//! The inference engine: batched, hot-swappable serving over learner
//! snapshots.
//!
//! # Hot-swap protocol (torn-weights freedom)
//!
//! The engine holds the live model in a *snapshot slot* — a mutex-guarded
//! `Arc<ServedModel>`. [`InferenceEngine::install`] rebuilds a model from
//! a published [`ModelSnapshot`] (re-verifying its parameter hash — a
//! torn or corrupted snapshot panics instead of serving), then swaps the
//! `Arc` while holding the slot lock. The batch worker **pins** one
//! `Arc` clone per micro-batch before touching any request, and every
//! response of that batch is computed — and labelled — against exactly
//! that pinned version. Because `ServedModel` is immutable after
//! construction and versions only move forward, a request can never
//! observe a mix of two snapshots, and version ids are monotone for any
//! client issuing sequential queries.
//!
//! # Batching and caching
//!
//! Requests enter a bounded queue ([`as_core::config::ServingConfig`]'s
//! `queue_bound`; submitters park on a condvar until the worker frees a
//! slot — closed-loop back-pressure, the serving twin of the SST queue,
//! with no spin). The worker coalesces up to `max_batch` requests:
//! whatever is already queued joins the batch at once, and it waits —
//! at most `max_wait_us` after the first arrival — only while some
//! admitted query has not reached the queue yet (`in_flight` exceeds
//! the batch), so a lone client never meets the timer. It then answers
//! cache hits from the LRU
//! ([`crate::cache::PosteriorCache`], keyed by
//! `(spectrum hash, version)`) and runs **one** batched forward for the
//! distinct misses. Responses are a pure function of
//! `(spectrum, version)`: the per-query normal residual draws are seeded
//! from the spectrum bits and the snapshot version, so batched,
//! per-item, and cached answers are all bitwise identical —
//! `tests/serving.rs` and the proptest suite hold the engine to that.

use crate::cache::PosteriorCache;
use as_core::config::ServingConfig;
use as_core::snapshot::{ModelSnapshot, SnapshotSink};
use as_detect::{track_cell, Cell};
use as_nn::model::ArtificialScientistModel;
use as_tensor::{Tensor, TensorRng, Workspace};
use crossbeam::channel::{self, Receiver, Sender};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One snapshot instantiated for serving; immutable after construction.
pub struct ServedModel {
    /// The rebuilt model (hash-verified against the snapshot).
    pub model: ArtificialScientistModel,
    /// Snapshot version id.
    pub version: u64,
    /// The snapshot's [`as_nn::ddp::param_hash`], re-verified on install.
    pub param_hash: u64,
    /// Training iteration the snapshot was captured at.
    pub iteration: u64,
    installed: Instant,
}

/// One answered query.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// Posterior summary: per phase-space channel the mean then the
    /// standard deviation over all sampled decoded points
    /// (`2 × 6` values), in encoded units.
    pub outputs: Vec<f32>,
    /// The snapshot version that produced (all of) the outputs.
    pub version: u64,
    /// True when the answer came from the LRU cache.
    pub cached: bool,
}

struct Request {
    spectrum: Vec<f32>,
    reply: Sender<Response>,
}

/// On the worker's queue: a query, or the message that ends an idle
/// worker's blocking receive at shutdown.
enum Msg {
    Query(Request),
    Stop,
}

#[derive(Debug, Clone)]
struct EngineStats {
    queries: u64,
    cache_hits: u64,
    cache_misses: u64,
    batches: u64,
    /// `batch_hist[s]` = micro-batches that coalesced exactly `s`
    /// requests (index 0 unused).
    batch_hist: Vec<u64>,
    swaps: u64,
    queue_full_waits: u64,
}

/// Aggregate serving telemetry ([`InferenceEngine::report`]).
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Queries answered.
    pub queries: u64,
    /// Answers served from the LRU cache.
    pub cache_hits: u64,
    /// Answers that required a forward pass.
    pub cache_misses: u64,
    /// Micro-batches executed.
    pub batches: u64,
    /// `batch_hist[s]` = micro-batches of size `s` (index 0 unused).
    pub batch_hist: Vec<u64>,
    /// Snapshot hot-swaps performed.
    pub swaps: u64,
    /// Times a submitter found the bounded queue full and had to wait.
    pub queue_full_waits: u64,
    /// Version of the currently served snapshot (0 before the first
    /// install).
    pub current_version: u64,
    /// Seconds since the current snapshot was installed — how stale the
    /// surrogate is when the learner stops publishing (e.g. after a
    /// `ConsumerKill`); `0.0` before the first install.
    pub stale_snapshot_seconds: f64,
}

impl ServeReport {
    /// Cache hits over answered queries (0 when idle).
    pub fn cache_hit_rate(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.queries as f64
        }
    }

    /// Mean micro-batch size (0 when idle).
    pub fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.queries as f64 / self.batches as f64
        }
    }
}

/// The serving engine. Create with [`InferenceEngine::start`]; feed it
/// snapshots through [`EngineSink`] (or [`InferenceEngine::install`]
/// directly); query from any number of threads with
/// [`InferenceEngine::query`]; stop with [`InferenceEngine::shutdown`].
pub struct InferenceEngine {
    cfg: ServingConfig,
    slot: parking_lot::Mutex<Option<Arc<ServedModel>>>,
    slot_cell: Cell,
    /// Notified under the slot lock by `install` and `shutdown`; what a
    /// worker without a snapshot (and the tests' `wait_for_version`)
    /// block on.
    slot_changed: parking_lot::Condvar,
    queue_tx: Sender<Msg>,
    /// Queries admitted by `query()` and not yet answered. A batch is
    /// subtracted *before* its replies go out, so a client's next query
    /// is never mistaken for its previous one: `in_flight > batch.len()`
    /// means an admitted query is still on its way to the queue.
    in_flight: AtomicUsize,
    /// Bounded-queue admission control: current depth under a mutex,
    /// with a condvar parking submitters while the queue is full (the
    /// worker notifies on every dequeue). Replaces the historical
    /// spin-wait — full-queue submitters sleep instead of burning a
    /// core, and under `--features detect` the mutex feeds the lockset
    /// checker like any other parking_lot lock.
    queue_depth: parking_lot::Mutex<usize>,
    queue_space: parking_lot::Condvar,
    queue_cell: Cell,
    cache: parking_lot::Mutex<PosteriorCache>,
    stats: parking_lot::Mutex<EngineStats>,
    /// Every installed snapshot, in version order — the single-version
    /// reference oracle for the torn-weights test harness.
    archive: parking_lot::Mutex<Vec<Arc<ServedModel>>>,
    installs: AtomicU64,
    shutdown: AtomicBool,
    worker: parking_lot::Mutex<Option<crossbeam::thread::JoinHandle<()>>>,
}

impl InferenceEngine {
    /// Start the engine: spawns the batch-worker thread and returns the
    /// shared handle.
    pub fn start(cfg: ServingConfig) -> Arc<Self> {
        assert!(cfg.max_batch >= 1, "max_batch must be >= 1");
        assert!(
            cfg.queue_bound >= cfg.max_batch,
            "queue_bound must hold at least one full batch"
        );
        let (queue_tx, queue_rx) = channel::unbounded();
        let engine = Arc::new(Self {
            stats: parking_lot::Mutex::new(EngineStats {
                queries: 0,
                cache_hits: 0,
                cache_misses: 0,
                batches: 0,
                batch_hist: vec![0; cfg.max_batch + 1],
                swaps: 0,
                queue_full_waits: 0,
            }),
            cache: parking_lot::Mutex::new(PosteriorCache::new(cfg.cache_capacity)),
            cfg,
            slot: parking_lot::Mutex::new(None),
            slot_cell: track_cell!("serve::Engine.slot"),
            slot_changed: parking_lot::Condvar::new(),
            queue_tx,
            in_flight: AtomicUsize::new(0),
            queue_depth: parking_lot::Mutex::new(0),
            queue_space: parking_lot::Condvar::new(),
            queue_cell: track_cell!("serve::Engine.queue_depth"),
            archive: parking_lot::Mutex::new(Vec::new()),
            installs: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            worker: parking_lot::Mutex::new(None),
        });
        let worker_engine = Arc::clone(&engine);
        let handle = crossbeam::thread::spawn(move || worker_engine.worker_loop(queue_rx));
        *engine.worker.lock() = Some(handle);
        engine
    }

    /// Hot-swap a published snapshot in. Rebuilds the model from a copy
    /// of the snapshot's buffers and hash-verifies it (torn weights panic
    /// here, never serve); the rebuilt model carries no training state.
    /// Asserts version monotonicity, swaps the slot `Arc`, and flushes the
    /// cache.
    pub fn install(&self, snapshot: &ModelSnapshot) {
        self.install_owned(snapshot.clone());
    }

    /// [`Self::install`] by value, the path a publish takes: the
    /// snapshot's buffers move into the served model and are hashed where
    /// they lie.
    fn install_owned(&self, snapshot: ModelSnapshot) {
        let (version, param_hash, iteration) =
            (snapshot.version, snapshot.param_hash, snapshot.iteration);
        let model = snapshot.into_model(); // panics on hash mismatch
        let served = Arc::new(ServedModel {
            model,
            version,
            param_hash,
            iteration,
            installed: Instant::now(),
        });
        {
            let mut slot = self.slot.lock();
            self.slot_cell.write();
            if let Some(old) = slot.as_ref() {
                assert!(
                    version > old.version,
                    "snapshot versions must be monotone: {} -> {version}",
                    old.version
                );
            }
            // Archive BEFORE publishing the slot (both under the slot
            // lock): any version a response can report must already be
            // resolvable through `archived` for reference verification.
            self.archive.lock().push(Arc::clone(&served));
            *slot = Some(served);
            self.slot_changed.notify_all();
        }
        // Old-version cache entries are unreachable by key (the version
        // is mixed into the cache key); flushing just frees capacity.
        self.cache.lock().flush();
        self.stats.lock().swaps += 1;
        self.installs.fetch_add(1, Ordering::SeqCst);
    }

    /// The serving configuration the engine was started with.
    pub(crate) fn config(&self) -> &ServingConfig {
        &self.cfg
    }

    /// The currently served snapshot, if any.
    pub fn current(&self) -> Option<Arc<ServedModel>> {
        let slot = self.slot.lock();
        self.slot_cell.read();
        slot.clone()
    }

    /// The archived snapshot with exactly `version` — the reference
    /// oracle for response verification.
    pub fn archived(&self, version: u64) -> Option<Arc<ServedModel>> {
        self.archive
            .lock()
            .iter()
            .find(|s| s.version == version)
            .cloned()
    }

    /// Block until a snapshot with `version >= min_version` is serving
    /// (true) or `timeout` elapses (false).
    #[cfg(test)]
    fn wait_for_version(&self, min_version: u64, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut slot = self.slot.lock();
        loop {
            self.slot_cell.read();
            if slot.as_ref().is_some_and(|s| s.version >= min_version) {
                return true;
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return false;
            }
            self.slot_changed.wait_for(&mut slot, left);
        }
    }

    /// Answer one inversion query (blocking). The spectrum must be
    /// encoded with the published snapshot's normalization and have the
    /// model's `spectrum_dim` length. Must not be called after
    /// [`InferenceEngine::shutdown`], nor before any snapshot is
    /// installed if the engine is shutting down.
    ///
    /// Admission order: the query is counted `in_flight` first (from
    /// then on the worker may hold a batch open for it), then waits for
    /// a slot in the bounded queue, then is queued; it stops counting
    /// once its batch is computed, just before the reply is sent.
    pub fn query(&self, spectrum: Vec<f32>) -> Response {
        self.submit(spectrum)
            .recv()
            .unwrap_or_else(|_| panic!("inference engine dropped an in-flight query"))
    }

    /// Admit and queue one query; the answer arrives on the channel.
    fn submit(&self, spectrum: Vec<f32>) -> Receiver<Response> {
        let (reply_tx, reply_rx) = channel::unbounded();
        self.in_flight.fetch_add(1, Ordering::SeqCst);
        // Bounded queue: closed-loop submitters park until the worker
        // frees a slot instead of growing the queue without bound (the
        // condvar wait releases the depth lock while asleep).
        let mut waited = false;
        {
            let mut depth = self.queue_depth.lock();
            while *depth >= self.cfg.queue_bound {
                waited = true;
                self.queue_space.wait(&mut depth);
            }
            self.queue_cell.write();
            *depth += 1;
        }
        if waited {
            self.stats.lock().queue_full_waits += 1;
        }
        self.queue_tx
            .send(Msg::Query(Request {
                spectrum,
                reply: reply_tx,
            }))
            .unwrap_or_else(|_| panic!("inference engine worker is gone"));
        reply_rx
    }

    /// Serving telemetry snapshot.
    pub fn report(&self) -> ServeReport {
        let stats = self.stats.lock().clone();
        let (current_version, stale) = match self.current() {
            Some(s) => (s.version, s.installed.elapsed().as_secs_f64()),
            None => (0, 0.0),
        };
        ServeReport {
            queries: stats.queries,
            cache_hits: stats.cache_hits,
            cache_misses: stats.cache_misses,
            batches: stats.batches,
            batch_hist: stats.batch_hist,
            swaps: stats.swaps,
            queue_full_waits: stats.queue_full_waits,
            current_version,
            stale_snapshot_seconds: stale,
        }
    }

    /// Drain outstanding queries and stop the batch worker (idempotent).
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Under the slot lock, so a worker between its shutdown check
        // and its wait for a first snapshot cannot miss the notify.
        let slot = self.slot.lock();
        self.slot_changed.notify_all();
        drop(slot);
        // A repeated shutdown finds the worker (and its receiver) gone.
        let _ = self.queue_tx.send(Msg::Stop);
        let handle = self.worker.lock().take();
        if let Some(h) = handle {
            if h.join().is_err() {
                panic!("serving batch worker panicked");
            }
        }
    }

    /// Worker: micro-batch requests (max_batch / max_wait_us) and serve
    /// each batch against one pinned snapshot. Idle, it blocks in `recv`
    /// (the stop message only ends that); it leaves once shutdown is
    /// flagged and every admitted query is answered.
    fn worker_loop(&self, queue_rx: Receiver<Msg>) {
        while !(self.shutdown.load(Ordering::SeqCst) && self.in_flight.load(Ordering::SeqCst) == 0)
        {
            let first = match queue_rx.recv() {
                Ok(Msg::Query(r)) => r,
                Ok(Msg::Stop) => continue,
                Err(_) => return,
            };
            self.dequeue_one();
            let mut batch = vec![first];
            let deadline = Instant::now() + Duration::from_micros(self.cfg.max_wait_us);
            while batch.len() < self.cfg.max_batch {
                // Work-conserving: the backlog joins the batch at once;
                // the timer runs only while an admitted query has not
                // reached the queue yet.
                let next = queue_rx.try_recv().or_else(|_| {
                    let left = deadline.saturating_duration_since(Instant::now());
                    if self.in_flight.load(Ordering::SeqCst) <= batch.len() || left.is_zero() {
                        return Err(());
                    }
                    queue_rx.recv_timeout(left).map_err(|_| ())
                });
                let Ok(Msg::Query(r)) = next else { break };
                self.dequeue_one();
                batch.push(r);
            }
            self.serve_batch(&batch);
        }
    }

    /// Release one bounded-queue slot and wake one parked submitter.
    fn dequeue_one(&self) {
        let mut depth = self.queue_depth.lock();
        self.queue_cell.write();
        *depth -= 1;
        self.queue_space.notify_one();
    }

    /// The live snapshot, blocking until the first install; `None` if
    /// the engine is shut down before one lands.
    fn pin_snapshot(&self) -> Option<Arc<ServedModel>> {
        let mut slot = self.slot.lock();
        loop {
            self.slot_cell.read();
            if slot.is_some() || self.shutdown.load(Ordering::SeqCst) {
                return slot.clone();
            }
            self.slot_changed.wait(&mut slot);
        }
    }

    fn serve_batch(&self, batch: &[Request]) {
        // Pin exactly one snapshot for the whole batch — the hot-swap
        // consistency point.
        let Some(served) = self.pin_snapshot() else {
            // Shutdown before any snapshot: answer with the empty
            // version-0 response rather than wedging the clients.
            self.in_flight.fetch_sub(batch.len(), Ordering::SeqCst);
            for req in batch {
                let _ = req.reply.send(Response {
                    outputs: Vec::new(),
                    version: 0,
                    cached: false,
                });
            }
            return;
        };
        let version = served.version;

        // Cache lookup, grouping duplicate spectra within the batch so
        // each distinct miss is computed once.
        let mut hits: Vec<(usize, Vec<f32>)> = Vec::new();
        let mut misses: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
        {
            let mut cache = self.cache.lock();
            for (i, req) in batch.iter().enumerate() {
                let key = cache_key(&req.spectrum, version);
                match cache.get(key) {
                    Some(out) => hits.push((i, out)),
                    None => misses.entry(key).or_default().push(i),
                }
            }
        }
        let miss_groups: Vec<(u64, Vec<usize>)> = misses.into_iter().collect();
        let spectra: Vec<&[f32]> = miss_groups
            .iter()
            .map(|(_, idxs)| batch[idxs[0]].spectrum.as_slice())
            .collect();
        let computed = if spectra.is_empty() {
            Vec::new()
        } else {
            posterior_batch(&served.model, &spectra, version, self.cfg.posterior_samples)
        };

        // Commit the stats before releasing any reply: a client that has
        // its answer must already see its query in the report.
        let n_hits = hits.len() as u64;
        {
            let mut stats = self.stats.lock();
            stats.queries += batch.len() as u64;
            stats.cache_hits += n_hits;
            stats.cache_misses += batch.len() as u64 - n_hits;
            stats.batches += 1;
            stats.batch_hist[batch.len()] += 1;
        }
        self.in_flight.fetch_sub(batch.len(), Ordering::SeqCst);

        for (i, out) in hits {
            let _ = batch[i].reply.send(Response {
                outputs: out,
                version,
                cached: true,
            });
        }
        {
            let mut cache = self.cache.lock();
            for ((key, idxs), out) in miss_groups.iter().zip(computed) {
                cache.insert(*key, out.clone());
                for &i in idxs {
                    let _ = batch[i].reply.send(Response {
                        outputs: out.clone(),
                        version,
                        cached: false,
                    });
                }
            }
        }
    }
}

/// [`SnapshotSink`] adapter: the learner publishes straight into the
/// engine's hot-swap slot.
pub struct EngineSink(pub Arc<InferenceEngine>);

impl SnapshotSink for EngineSink {
    fn publish(&self, snapshot: ModelSnapshot) {
        self.0.install_owned(snapshot);
    }
}

/// FNV-1a over the spectrum bits — the version-independent half of the
/// cache key and the per-query noise seed.
pub(crate) fn spectrum_key(spectrum: &[f32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in spectrum {
        for b in v.to_bits().to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Cache key / noise seed for a `(spectrum, version)` pair. Mixing the
/// version in makes stale cache entries unreachable after a hot-swap
/// and pins the noise stream to the snapshot version, so responses are
/// a pure function of the pair.
pub fn cache_key(spectrum: &[f32], version: u64) -> u64 {
    splitmix64(spectrum_key(spectrum) ^ version.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Reference single-query forward: the posterior summary for `spectrum`
/// at snapshot `version` — exactly what the engine must return,
/// computed outside its batching/caching machinery. The torn-weights
/// harness compares every served response against this.
pub fn posterior_reference(
    model: &ArtificialScientistModel,
    spectrum: &[f32],
    version: u64,
    samples: usize,
) -> Vec<f32> {
    let out = posterior_batch(model, &[spectrum], version, samples);
    out.into_iter()
        .next()
        .unwrap_or_else(|| panic!("posterior_batch returned no rows"))
}

/// Batched inversion: for each spectrum, draw `samples` normal
/// residuals from the `(spectrum, version)`-seeded stream, run **one**
/// INN inverse + VAE decode over all rows, and reduce each query's
/// decoded clouds to a per-channel mean/std summary.
///
/// Every operator on this path computes each output row purely from its
/// own input row, so the result is bitwise identical to running each
/// query alone — the batching invariant the proptest suite pins down.
pub fn posterior_batch(
    model: &ArtificialScientistModel,
    spectra: &[&[f32]],
    version: u64,
    samples: usize,
) -> Vec<Vec<f32>> {
    assert!(samples >= 1, "need at least one posterior sample");
    let dim = model.cfg.spectrum_dim;
    let d_n = model.cfg.residual_dim();
    let latent = dim + d_n;
    let mut rows = Vec::with_capacity(spectra.len() * samples * latent);
    for spectrum in spectra {
        assert_eq!(spectrum.len(), dim, "spectrum length != model spectrum_dim");
        let mut rng = TensorRng::seeded(cache_key(spectrum, version));
        let noise = rng.standard_normal([samples, d_n]);
        let noise_data = noise.data();
        for s in 0..samples {
            rows.extend_from_slice(spectrum);
            rows.extend_from_slice(&noise_data[s * d_n..(s + 1) * d_n]);
        }
    }
    let y = Tensor::from_vec([spectra.len() * samples, latent], rows);
    let ws = &mut Workspace::default();
    let (z, _) = model.inn.inverse(&y, ws);
    let clouds = model.vae.decode(&z, ws);
    let dims = clouds.dims();
    let (points, channels) = (dims[1], dims[2]);
    let data = clouds.data();
    let per_query = samples * points * channels;
    (0..spectra.len())
        .map(|q| summarize(&data[q * per_query..(q + 1) * per_query], channels))
        .collect()
}

/// Per-channel mean then std over all rows of one query's decoded
/// clouds, accumulated in f64 in row order (deterministic regardless of
/// batch composition).
fn summarize(chunk: &[f32], channels: usize) -> Vec<f32> {
    let n = (chunk.len() / channels) as f64;
    let mut sum = vec![0f64; channels];
    let mut sumsq = vec![0f64; channels];
    for row in chunk.chunks_exact(channels) {
        for (d, &v) in row.iter().enumerate() {
            let v = v as f64;
            sum[d] += v;
            sumsq[d] += v * v;
        }
    }
    let mut out = Vec::with_capacity(2 * channels);
    out.extend(sum.iter().map(|&s| (s / n) as f32));
    out.extend(sum.iter().zip(&sumsq).map(|(&s, &sq)| {
        let mean = s / n;
        (sq / n - mean * mean).max(0.0).sqrt() as f32
    }));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use as_core::encode::EncodeConfig;
    use as_nn::model::ModelConfig;

    fn snap(seed: u64, version: u64) -> ModelSnapshot {
        let mut m = ArtificialScientistModel::new(ModelConfig::small(), seed);
        ModelSnapshot::capture(&mut m, EncodeConfig::default(), version, version * 4)
    }

    fn spectrum(tag: u64, dim: usize) -> Vec<f32> {
        let mut rng = TensorRng::seeded(0xC0FFEE ^ tag);
        rng.standard_normal([1, dim]).data().to_vec()
    }

    #[test]
    fn engine_serves_and_caches() {
        let cfg = ServingConfig {
            max_batch: 4,
            max_wait_us: 50,
            cache_capacity: 8,
            posterior_samples: 2,
            ..ServingConfig::default()
        };
        let engine = InferenceEngine::start(cfg);
        engine.install(&snap(3, 1));
        let s = spectrum(1, ModelConfig::small().spectrum_dim);
        let first = engine.query(s.clone());
        assert_eq!(first.version, 1);
        assert!(!first.cached, "cold query computes");
        assert_eq!(first.outputs.len(), 12, "6 means + 6 stds");
        let second = engine.query(s.clone());
        assert!(second.cached, "repeat query hits the cache");
        assert_eq!(second.outputs, first.outputs, "hit is bitwise equal");
        // Reference oracle agrees with the served bits.
        let served = engine
            .archived(1)
            .unwrap_or_else(|| panic!("v1 must be archived"));
        assert_eq!(posterior_reference(&served.model, &s, 1, 2), first.outputs);
        let report = engine.report();
        assert_eq!(report.queries, 2);
        assert_eq!(report.cache_hits, 1);
        assert_eq!(report.current_version, 1);
        engine.shutdown();
    }

    #[test]
    fn the_engine_serves_the_model_the_learner_trained() {
        let engine = InferenceEngine::start(ServingConfig::default());
        let mut learner = ArtificialScientistModel::new(ModelConfig::small(), 7);
        let snapshot = ModelSnapshot::capture(&mut learner, EncodeConfig::default(), 1, 0);
        engine.install(&snapshot);
        let served = engine
            .archived(1)
            .unwrap_or_else(|| panic!("v1 must be archived"));
        for tag in 0..4 {
            let s = spectrum(tag, ModelConfig::small().spectrum_dim);
            let bits = |m: &ArtificialScientistModel| -> Vec<u32> {
                let out = posterior_reference(m, &s, 1, 32);
                out.iter().map(|v| v.to_bits()).collect()
            };
            assert_eq!(bits(&served.model), bits(&learner), "spectrum {tag}");
        }
        engine.shutdown();
    }

    #[test]
    fn hot_swap_bumps_version_and_invalidates_cache() {
        let cfg = ServingConfig {
            posterior_samples: 2,
            ..ServingConfig::default()
        };
        let engine = InferenceEngine::start(cfg);
        engine.install(&snap(3, 1));
        let s = spectrum(2, ModelConfig::small().spectrum_dim);
        let before = engine.query(s.clone());
        engine.install(&snap(4, 2));
        let after = engine.query(s.clone());
        assert_eq!((before.version, after.version), (1, 2));
        assert!(!after.cached, "swap invalidates the old version's entry");
        assert_ne!(before.outputs, after.outputs, "different weights");
        assert_eq!(engine.report().swaps, 2);
        engine.shutdown();
    }

    #[test]
    fn full_queue_parks_submitters_until_the_worker_drains() {
        // queue_bound 1 and no snapshot installed: the worker dequeues
        // one request and blocks in serve_batch waiting for a model, a
        // second request fills the queue, so the third submitter MUST
        // park on the admission condvar until install() unwedges the
        // worker. No spin, no loss: every query is answered at v1.
        let cfg = ServingConfig {
            max_batch: 1,
            queue_bound: 1,
            max_wait_us: 10,
            posterior_samples: 1,
            ..ServingConfig::default()
        };
        let engine = InferenceEngine::start(cfg);
        let dim = ModelConfig::small().spectrum_dim;
        let submitters: Vec<_> = (0..3u64)
            .map(|tag| {
                let e = Arc::clone(&engine);
                std::thread::spawn(move || e.query(spectrum(tag, dim)))
            })
            .collect();
        // Let the pile-up form, then unwedge the worker.
        std::thread::sleep(Duration::from_millis(20));
        engine.install(&snap(3, 1));
        for h in submitters {
            let resp = h.join().unwrap();
            assert_eq!(resp.version, 1);
            assert_eq!(resp.outputs.len(), 12);
        }
        let report = engine.report();
        assert_eq!(report.queries, 3);
        assert!(
            report.queue_full_waits >= 1,
            "with 3 in-flight queries, capacity 1 and a wedged worker, \
             at least one submitter must have parked"
        );
        engine.shutdown();
    }

    #[test]
    fn a_solo_client_never_meets_the_batching_timer() {
        // A two-second timer: had the worker waited it out once per
        // query (it used to), 50 queries would take 100 s.
        let engine = InferenceEngine::start(ServingConfig {
            max_wait_us: 2_000_000,
            posterior_samples: 1,
            ..ServingConfig::default()
        });
        engine.install(&snap(3, 1));
        let dim = ModelConfig::small().spectrum_dim;
        let start = Instant::now();
        for tag in 0..50 {
            assert_eq!(engine.query(spectrum(tag, dim)).version, 1);
        }
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "a lone client waited for company: {:?}",
            start.elapsed()
        );
        let report = engine.report();
        assert_eq!((report.batches, report.batch_hist[1]), (50, 50));
        assert_eq!(engine.in_flight.load(Ordering::SeqCst), 0);
        engine.shutdown();
    }

    #[test]
    fn a_backlog_coalesces_without_the_timer() {
        // No snapshot yet: the worker takes a first batch and blocks on
        // the slot condvar while the rest pile up in the queue. With a
        // zero timer, only the drain of what is already queued can fill
        // the next batch — and at least three of the six are left.
        let engine = InferenceEngine::start(ServingConfig {
            max_batch: 3,
            max_wait_us: 0,
            posterior_samples: 1,
            ..ServingConfig::default()
        });
        let dim = ModelConfig::small().spectrum_dim;
        let replies: Vec<_> = (0..6)
            .map(|tag| engine.submit(spectrum(tag, dim)))
            .collect();
        assert_eq!(engine.in_flight.load(Ordering::SeqCst), 6);
        engine.install(&snap(3, 1));
        for reply in replies {
            assert_eq!(reply.recv().map(|r| r.version), Ok(1));
        }
        let report = engine.report();
        assert_eq!(report.queries, 6);
        assert!(report.batch_hist[3] >= 1, "{:?}", report.batch_hist);
        assert_eq!(engine.in_flight.load(Ordering::SeqCst), 0);
        engine.shutdown();
    }

    #[test]
    fn four_closed_loop_clients_still_coalesce() {
        // Whenever the worker picks a query up, the other clients are
        // queued or admitted (`in_flight` says so), so it waits for a
        // second one; the timer is long enough that a descheduled client
        // does not break the pairs up.
        let engine = InferenceEngine::start(ServingConfig {
            max_batch: 2,
            max_wait_us: 20_000,
            cache_capacity: 0,
            posterior_samples: 1,
            ..ServingConfig::default()
        });
        engine.install(&snap(3, 1));
        let dim = ModelConfig::small().spectrum_dim;
        let clients: Vec<_> = (0..4u64)
            .map(|c| {
                let e = Arc::clone(&engine);
                std::thread::spawn(move || {
                    for q in 0..200 {
                        assert_eq!(e.query(spectrum(c * 1000 + q, dim)).outputs.len(), 12);
                    }
                })
            })
            .collect();
        for c in clients {
            c.join().unwrap();
        }
        let report = engine.report();
        assert_eq!(report.queries, 800);
        assert!(report.mean_batch() >= 1.5, "{:?}", report.batch_hist);
        assert_eq!(engine.in_flight.load(Ordering::SeqCst), 0);
        engine.shutdown();
        assert_eq!(engine.in_flight.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn wait_for_version_wakes_on_install_and_times_out_otherwise() {
        let engine = InferenceEngine::start(ServingConfig::default());
        let timeout = Duration::from_millis(30);
        let start = Instant::now();
        assert!(!engine.wait_for_version(1, timeout));
        assert!(start.elapsed() >= timeout, "gave up early");

        let waiter = {
            let e = Arc::clone(&engine);
            std::thread::spawn(move || e.wait_for_version(2, Duration::from_secs(120)))
        };
        engine.install(&snap(3, 1)); // not enough: the waiter wants v2
        engine.install(&snap(4, 2));
        assert!(waiter.join().unwrap(), "install must release the waiter");
        assert!(start.elapsed() < Duration::from_secs(60));
        assert!(engine.wait_for_version(2, Duration::ZERO), "already there");
        assert!(!engine.wait_for_version(3, Duration::ZERO));
        engine.shutdown();
    }

    #[test]
    fn shutdown_is_prompt_idempotent_and_answers_the_unserved() {
        // Idle engine: the worker sits in a blocking receive and only the
        // stop message ends it.
        let idle = InferenceEngine::start(ServingConfig::default());
        idle.shutdown();
        idle.shutdown();
        // A query admitted before any snapshot is answered (empty, v0)
        // by a shutdown instead of being left hanging.
        let engine = InferenceEngine::start(ServingConfig::default());
        let reply = engine.submit(spectrum(1, ModelConfig::small().spectrum_dim));
        engine.shutdown();
        let resp = reply.recv().unwrap();
        assert_eq!((resp.version, resp.outputs.len()), (0, 0));
        assert_eq!(engine.in_flight.load(Ordering::SeqCst), 0);
        engine.shutdown();
    }

    #[test]
    #[should_panic(expected = "monotone")]
    fn version_regression_is_rejected() {
        let engine = InferenceEngine::start(ServingConfig::default());
        engine.install(&snap(3, 2));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            engine.install(&snap(4, 1));
        }));
        engine.shutdown();
        if let Err(p) = result {
            std::panic::resume_unwind(p);
        }
    }
}
