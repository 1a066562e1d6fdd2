//! Data-parallel training (PyTorch-DDP style) over OS threads.
//!
//! §IV-D of the paper: *"As our machine learning model is small enough to
//! fit on a single GCD, parallel training of this model is done using data
//! parallelism, where copies of the model are distributed across GCDs with
//! each copy of the model receiving different chunks of data to train on.
//! Once each model computes its gradients, all the instances of the model
//! must do a collective all-reduce communication to average the
//! gradients."*
//!
//! Replicas here are threads; the gradient all-reduce is a real ring
//! all-reduce through the [`as_cluster::collective::Collective`] trait,
//! so the same training code runs over the in-process channel backend or
//! the netsim-delayed fabric model. Because every replica starts from
//! the same seed and applies identical averaged gradients, parameters stay
//! bit-identical across ranks — asserted in the tests, like DDP guarantees.
//!
//! Three gradient-averaging modes share one deterministic bucket
//! schedule (the flatten order of `visit_all` cut every `bucket_elems`
//! values):
//!
//! - [`sync_gradients`] — one whole-model flat all-reduce;
//! - [`sync_gradients_bucketed`] — buckets reduced synchronously as the
//!   flatten fills them;
//! - [`OverlappedGradSync`] — the non-blocking mode: a dedicated
//!   comm-worker thread (holding its **own** collective endpoint, like a
//!   NCCL stream) reduces filled buckets while the caller keeps filling
//!   the next ones, with a wait-all barrier right before the optimizer
//!   step. Same buckets, same all-reduce sequence ⇒ results are
//!   **bit-identical** to [`sync_gradients_bucketed`] (asserted in the
//!   tests and again end-to-end in `tests/consumer_policies.rs`).
//!
//! The backend and overlap knobs are threaded through the streaming
//! workflow by `as_core::config` (`CommBackend`, `overlap_grad_sync`).

use crate::cells::{track_cell, Cell};
use crate::model::{ArtificialScientistModel, LossReport, ModelConfig, ModelOptimizer};
use crate::optim::AdamConfig;
use as_cluster::collective::Collective;
use as_tensor::{Tensor, TensorRng};
use crossbeam::channel::{unbounded, Receiver, Sender};
use crossbeam::thread as cb_thread;
use std::sync::Arc;

/// Configuration of a data-parallel training run.
#[derive(Debug, Clone)]
pub struct DdpConfig {
    /// Number of model replicas (the paper: one per GCD, 4 per node).
    pub replicas: usize,
    /// Weight-init seed shared by all replicas.
    pub seed: u64,
    /// Base Adam config for the INN group (VAE group gets `m_vae`×lr).
    pub adam: AdamConfig,
    /// VAE learning-rate multiplier `m_VAE`.
    pub m_vae: f32,
}

impl Default for DdpConfig {
    fn default() -> Self {
        Self {
            replicas: 2,
            seed: 0,
            adam: AdamConfig::default(),
            m_vae: 1.0,
        }
    }
}

/// Average the accumulated gradients of `model` across all ranks of `comm`
/// using one flat ring all-reduce (the way DDP buckets flatten gradients).
pub fn sync_gradients<C: Collective>(comm: &C, model: &mut ArtificialScientistModel) {
    let mut flat: Vec<f32> = Vec::new();
    model.visit_all(&mut |_p: &mut Tensor, g: &mut Tensor| {
        flat.extend_from_slice(g.data());
    });
    comm.allreduce_sum_f32(&mut flat);
    let inv = 1.0 / comm.size() as f32;
    let mut cursor = 0usize;
    model.visit_all(&mut |_p: &mut Tensor, g: &mut Tensor| {
        let n = g.numel();
        for (gd, &fv) in g.data_mut().iter_mut().zip(&flat[cursor..cursor + n]) {
            *gd = fv * inv;
        }
        cursor += n;
    });
}

/// Default gradient-bucket size (elements) used by the streaming DDP
/// consumer ranks: 8192 f32 = 32 KiB per bucket message, small enough to
/// pipeline through the ring. It does **not** amortise the per-message
/// cost on the in-process backends: measured on the 2-vCPU reference VM, a
/// two-rank bucket all-reduce takes ≈ 55 µs (`waits/netsim_allreduce_32k`
/// in the kernels bench) — thread hand-offs, the time a `memcpy` moves
/// ≈ 250 KB. The value stays because changing it re-chunks the ring and so
/// the summation order for ≥ 3 ranks (every pinned `param_hash` moves).
pub const DEFAULT_BUCKET_ELEMS: usize = 8192;

/// Average the accumulated gradients of `model` across all ranks of
/// `comm` in fixed-size buckets, each reduced **as it fills** during the
/// gradient flatten (PyTorch-DDP's bucketed all-reduce, minus the
/// asynchrony our thread-ring transport cannot express): instead of
/// materialising the whole flat gradient and then reducing it once, a
/// bucket of `bucket_elems` values goes onto the wire the moment the
/// traversal has filled it, so reduction of bucket *i* is interleaved
/// with the flattening of bucket *i+1* and peak extra memory is one
/// bucket plus the reduced prefix rather than two whole-model copies.
///
/// Every rank traverses parameters in the same deterministic order, so
/// bucket boundaries — and therefore summation order — are identical on
/// all ranks, and the ring all-reduce computes each reduced chunk on one
/// rank before circulating it. Post-sync gradients are **bit-identical
/// across ranks** (the invariant [`param_hash`] asserts downstream),
/// though not bit-identical to [`sync_gradients`]'s single-flat-buffer
/// result, whose different chunking sums in a different order.
pub fn sync_gradients_bucketed<C: Collective>(
    comm: &C,
    model: &mut ArtificialScientistModel,
    bucket_elems: usize,
) {
    let mut reduced: Vec<f32> = Vec::new();
    for_each_grad_bucket(model, bucket_elems, |mut bucket| {
        comm.allreduce_sum_f32(&mut bucket);
        reduced.extend_from_slice(&bucket);
    });
    write_back_averaged(model, &reduced, comm.size());
}

/// Bucketed gradient averaging with a caller-supplied reducer — the
/// fault-tolerant entry point. `reduce` receives each bucket (cut by the
/// **same** deterministic schedule as [`sync_gradients_bucketed`]) and
/// must return the number of contributions it summed (the divisor for
/// that bucket's average) — a shrunk post-degradation world returns its
/// surviving-rank count.
///
/// When `reduce` performs the same summation as the healthy all-reduce
/// and returns the full world size, the averaged gradients are
/// **bit-identical** to [`sync_gradients_bucketed`]: the per-bucket
/// `× 1/n` here is the same single f32 multiply the legacy write-back
/// applies (and the final write-back multiplies by `1/1 = 1.0`, which is
/// exact for finite values).
pub fn sync_gradients_with(
    model: &mut ArtificialScientistModel,
    bucket_elems: usize,
    mut reduce: impl FnMut(&mut Vec<f32>) -> usize,
) {
    let mut reduced: Vec<f32> = Vec::new();
    for_each_grad_bucket(model, bucket_elems, |mut bucket| {
        let n = reduce(&mut bucket).max(1);
        let inv = 1.0 / n as f32;
        for v in &mut bucket {
            *v *= inv;
        }
        reduced.extend_from_slice(&bucket);
    });
    write_back_averaged(model, &reduced, 1);
}

/// Walk the model's gradients in the fixed `visit_all` flatten order,
/// handing `sink` one owned bucket of `bucket_elems` values at a time
/// (the last bucket may be shorter). This is **the** bucket schedule:
/// every gradient-averaging mode cuts buckets here, so bucket boundaries
/// — and therefore summation order — are identical across ranks and
/// across the blocking/overlapped modes.
fn for_each_grad_bucket(
    model: &mut ArtificialScientistModel,
    bucket_elems: usize,
    mut sink: impl FnMut(Vec<f32>),
) {
    assert!(bucket_elems > 0, "bucket size must be positive");
    let mut bucket: Vec<f32> = Vec::with_capacity(bucket_elems.min(1 << 20));
    model.visit_all(&mut |_p: &mut Tensor, g: &mut Tensor| {
        let data = g.data();
        let mut off = 0usize;
        while off < data.len() {
            let take = (bucket_elems - bucket.len()).min(data.len() - off);
            bucket.extend_from_slice(&data[off..off + take]);
            off += take;
            if bucket.len() == bucket_elems {
                sink(std::mem::replace(
                    &mut bucket,
                    Vec::with_capacity(bucket_elems.min(1 << 20)),
                ));
            }
        }
    });
    if !bucket.is_empty() {
        sink(bucket);
    }
}

/// Scatter the concatenated reduced buckets back into the model's
/// gradients, dividing by the world size (the DDP average).
fn write_back_averaged(model: &mut ArtificialScientistModel, reduced: &[f32], world: usize) {
    let inv = 1.0 / world as f32;
    let mut cursor = 0usize;
    model.visit_all(&mut |_p: &mut Tensor, g: &mut Tensor| {
        let n = g.numel();
        for (gd, &fv) in g.data_mut().iter_mut().zip(&reduced[cursor..cursor + n]) {
            *gd = fv * inv;
        }
        cursor += n;
    });
}

/// Non-blocking bucketed gradient averaging: a dedicated comm-worker
/// thread drains a bucket queue and runs the all-reduces, so reduction
/// of bucket *i* proceeds **concurrently** with the caller filling
/// buckets *i+1…* (and with any other main-thread work between
/// [`OverlappedGradSync::begin`] and [`OverlappedGradSync::wait_all`] —
/// the streaming consumer overlaps the per-iteration loss mean there).
///
/// The worker owns its collective endpoint outright (construct a second
/// world for it — `as_core::workflow` does), mirroring how NCCL gives
/// gradient reduction its own communicator/stream: the main thread's
/// collectives and the bucket all-reduces can never interleave on one
/// endpoint, so both schedules stay deterministic.
///
/// Buckets come from the same schedule as [`sync_gradients_bucketed`]
/// and are concatenated in send order at [`OverlappedGradSync::wait_all`],
/// making the averaged gradients — and everything downstream, parameters
/// included — **bit-identical** to the blocking bucketed path.
pub struct OverlappedGradSync<C: Collective> {
    /// The gradient world's endpoint, shared with the comm worker —
    /// kept here so the bucket traffic still shows up in per-run comm
    /// accounting after the worker takes its clone.
    grad_comm: Arc<C>,
    to_worker: Option<Sender<Vec<f32>>>,
    from_worker: Receiver<Vec<f32>>,
    worker: Option<cb_thread::JoinHandle<()>>,
    world: usize,
    inflight: usize,
    /// Detector registration for the bucket bookkeeping that the channel
    /// edges between caller and comm worker synchronise.
    bucket_cell: Cell,
}

impl<C: Collective> OverlappedGradSync<C> {
    /// Spawn the comm-worker thread over its own collective endpoint.
    ///
    /// `grad_comm` must span the same ranks as the caller's main
    /// endpoint; every rank of the group must construct its
    /// `OverlappedGradSync` from its endpoint of that dedicated world.
    pub fn new(grad_comm: Arc<C>) -> Self {
        let (to_worker, bucket_rx) = unbounded::<Vec<f32>>();
        let (reduced_tx, from_worker) = unbounded::<Vec<f32>>();
        let world = grad_comm.size();
        let comm = grad_comm.clone();
        let worker = cb_thread::spawn(move || {
            // Buckets arrive and are reduced strictly in schedule order;
            // ranks pipeline through the ring without barriers.
            while let Ok(mut bucket) = bucket_rx.recv() {
                comm.allreduce_sum_f32(&mut bucket);
                if reduced_tx.send(bucket).is_err() {
                    break; // caller dropped mid-sync (teardown)
                }
            }
        });
        Self {
            grad_comm,
            to_worker: Some(to_worker),
            from_worker,
            worker: Some(worker),
            world,
            inflight: 0,
            bucket_cell: track_cell!("nn::OverlappedGradSync.buckets"),
        }
    }

    /// Payload bytes the gradient world has moved so far (world-wide
    /// counter — the bucket traffic that would otherwise be invisible to
    /// the caller's main-world accounting).
    pub fn world_bytes_sent(&self) -> u64 {
        self.grad_comm.world_bytes_sent()
    }

    /// Modelled fabric seconds charged on the gradient world.
    pub fn modelled_comm_seconds(&self) -> f64 {
        self.grad_comm.modelled_comm_seconds()
    }

    /// Point-to-point messages the gradient world has sent so far
    /// (world-wide counter, like [`Self::world_bytes_sent`]).
    pub fn world_messages_sent(&self) -> u64 {
        self.grad_comm.world_messages_sent()
    }

    /// Cut the model's gradients into the fixed bucket schedule and hand
    /// them to the comm worker; returns immediately once the flatten is
    /// done (reduction keeps running in the background). Must be paired
    /// with [`Self::wait_all`] before the next `begin` or any use of the
    /// gradients.
    pub fn begin(&mut self, model: &mut ArtificialScientistModel, bucket_elems: usize) {
        assert_eq!(self.inflight, 0, "previous overlapped sync not awaited");
        self.bucket_cell.write();
        let tx = self.to_worker.as_ref().expect("comm worker alive");
        let mut sent = 0usize;
        for_each_grad_bucket(model, bucket_elems, |bucket| {
            tx.send(bucket).expect("comm worker died mid-sync");
            sent += 1;
        });
        self.inflight = sent;
    }

    /// Wait-all: collect every outstanding reduced bucket (in schedule
    /// order) and write the averaged gradients back into `model`. Call
    /// right before the optimizer step.
    pub fn wait_all(&mut self, model: &mut ArtificialScientistModel) {
        self.bucket_cell.write();
        let mut reduced: Vec<f32> = Vec::new();
        for _ in 0..self.inflight {
            let bucket = self
                .from_worker
                .recv()
                .expect("comm worker died before completing the sync");
            reduced.extend_from_slice(&bucket);
        }
        self.inflight = 0;
        write_back_averaged(model, &reduced, self.world);
    }
}

impl<C: Collective> Drop for OverlappedGradSync<C> {
    fn drop(&mut self) {
        drop(self.to_worker.take()); // closes the queue; worker exits
        if let Some(h) = self.worker.take() {
            let _ = h.join();
        }
    }
}

/// FNV-1a hash of the model's parameter bit patterns. Two replicas hold
/// bit-identical weights iff their hashes match — the cheap per-iteration
/// DDP synchronisation check used by the streaming consumer ranks.
pub fn param_hash(model: &mut ArtificialScientistModel) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    model.visit_all(&mut |p: &mut Tensor, _g: &mut Tensor| {
        for &v in p.data() {
            for b in v.to_bits().to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x100_0000_01b3);
            }
        }
    });
    h
}

/// Outcome of a data-parallel run.
#[derive(Debug, Clone)]
pub struct DdpOutcome {
    /// Per-iteration mean loss across replicas.
    pub losses: Vec<f64>,
    /// Flattened final parameters of rank 0 (for cross-run comparisons).
    pub final_params: Vec<f32>,
    /// Wall-clock seconds per iteration (rank 0's measurement).
    pub iteration_seconds: Vec<f64>,
}

/// Run synchronous data-parallel training over a caller-supplied
/// collective world (one endpoint per replica, in rank order — construct
/// it with `as_cluster::comm::CommWorld` or
/// `as_cluster::collective::SimNetComm::world`).
///
/// `batches[i]` is the *global* batch of iteration `i` as
/// `(points:[B,P,6], spectra:[B,S])`; each rank trains on its contiguous
/// shard of `B / replicas` rows (B must divide evenly).
pub fn train_ddp<C: Collective>(
    model_cfg: &ModelConfig,
    ddp: &DdpConfig,
    batches: &[(Tensor, Tensor)],
    endpoints: Vec<C>,
) -> DdpOutcome {
    let r = ddp.replicas;
    assert!(r >= 1);
    assert_eq!(
        endpoints.len(),
        r,
        "need exactly one collective endpoint per replica"
    );
    for (points, _) in batches {
        assert_eq!(
            points.dims()[0] % r,
            0,
            "global batch must divide evenly across replicas"
        );
    }
    let mut handles = Vec::with_capacity(r);
    for comm in endpoints {
        let cfg = model_cfg.clone();
        let ddp = ddp.clone();
        let batches = batches.to_vec();
        handles.push(cb_thread::spawn(move || {
            run_replica(cfg, ddp, comm, &batches)
        }));
    }
    let mut results: Vec<DdpOutcome> = handles
        .into_iter()
        .map(|h| h.join().expect("replica thread panicked"))
        .collect();
    results.remove(0)
}

fn run_replica<C: Collective>(
    cfg: ModelConfig,
    ddp: DdpConfig,
    comm: C,
    batches: &[(Tensor, Tensor)],
) -> DdpOutcome {
    let rank = comm.rank();
    let world = comm.size();
    let mut model = ArtificialScientistModel::new(cfg, ddp.seed);
    let mut opt = ModelOptimizer::new(ddp.adam, ddp.m_vae);
    // Different data-noise streams per rank (reparameterisation, MMD
    // reference draws), identical weights.
    let mut rng =
        TensorRng::seeded(ddp.seed ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(rank as u64 + 1)));
    let mut losses = Vec::with_capacity(batches.len());
    let mut times = Vec::with_capacity(batches.len());

    for (points, spectra) in batches {
        let start = std::time::Instant::now();
        let b = points.dims()[0];
        let shard = b / world;
        let rows: Vec<usize> = (rank * shard..(rank + 1) * shard).collect();
        let (p, d) = (points.dims()[1], points.dims()[2]);
        let my_points = shard_rows_3d(points, &rows, p, d);
        let my_spectra = spectra.select_rows(&rows);
        model.zero_grad();
        let report = model.accumulate_gradients(&my_points, &my_spectra, &mut rng);
        sync_gradients(&comm, &mut model);
        opt.step(&mut model);
        let mean_loss = comm.allreduce_scalar_f64(report.total) / world as f64;
        losses.push(mean_loss);
        times.push(start.elapsed().as_secs_f64());
    }

    let mut final_params = Vec::new();
    model.visit_all(&mut |pt: &mut Tensor, _g: &mut Tensor| {
        final_params.extend_from_slice(pt.data());
    });
    DdpOutcome {
        losses,
        final_params,
        iteration_seconds: times,
    }
}

fn shard_rows_3d(t: &Tensor, rows: &[usize], p: usize, d: usize) -> Tensor {
    let mut out = Tensor::zeros([rows.len(), p, d]);
    for (k, &r) in rows.iter().enumerate() {
        let src = &t.data()[r * p * d..(r + 1) * p * d];
        out.data_mut()[k * p * d..(k + 1) * p * d].copy_from_slice(src);
    }
    out
}

/// Single-process reference: same model, same seed, full global batch per
/// step, gradients divided by `replicas` to mirror the DDP average of
/// per-shard *sums*… Note that DDP averages per-replica mean-gradients, so
/// with batch-mean losses the single-process equivalent uses the global
/// batch directly. Used by tests and the Fig. 8 harness baseline.
pub fn train_single(
    model_cfg: &ModelConfig,
    seed: u64,
    adam: AdamConfig,
    m_vae: f32,
    batches: &[(Tensor, Tensor)],
) -> DdpOutcome {
    let mut model = ArtificialScientistModel::new(model_cfg.clone(), seed);
    let mut opt = ModelOptimizer::new(adam, m_vae);
    let mut rng = TensorRng::seeded(seed ^ 0x9E37_79B9_7F4A_7C15);
    let mut losses = Vec::new();
    let mut times = Vec::new();
    for (points, spectra) in batches {
        let start = std::time::Instant::now();
        model.zero_grad();
        let r = model.accumulate_gradients(points, spectra, &mut rng);
        opt.step(&mut model);
        losses.push(r.total);
        times.push(start.elapsed().as_secs_f64());
    }
    let mut final_params = Vec::new();
    model.visit_all(&mut |pt: &mut Tensor, _g: &mut Tensor| {
        final_params.extend_from_slice(pt.data());
    });
    DdpOutcome {
        losses,
        final_params,
        iteration_seconds: times,
    }
}

/// Mean per-iteration loss of the last `k` iterations (convergence probe).
pub fn tail_loss(outcome: &DdpOutcome, k: usize) -> f64 {
    let n = outcome.losses.len();
    let k = k.min(n);
    outcome.losses[n - k..].iter().sum::<f64>() / k as f64
}

#[allow(dead_code)]
fn unused_loss_report(_r: LossReport) {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vae::VaeConfig;
    use as_cluster::comm::CommWorld;

    fn world(n: usize) -> Vec<as_cluster::collective::ChannelComm> {
        CommWorld::new(n).into_endpoints()
    }

    fn tiny_cfg() -> ModelConfig {
        let mut cfg = ModelConfig::small();
        cfg.vae = VaeConfig {
            point_dim: 6,
            encoder_channels: vec![6, 8],
            head_hidden: 8,
            latent: 8,
            decoder_base: 2,
            decoder_channels: vec![4, 6],
        };
        cfg.spectrum_dim = 4;
        cfg.inn_hidden = vec![8];
        cfg.inn_blocks = 2;
        cfg
    }

    fn make_batches(n: usize, b: usize) -> Vec<(Tensor, Tensor)> {
        let mut rng = TensorRng::seeded(99);
        (0..n)
            .map(|_| {
                (
                    rng.uniform([b, 8, 6], -1.0, 1.0),
                    rng.uniform([b, 4], -1.0, 1.0),
                )
            })
            .collect()
    }

    #[test]
    fn replicas_stay_synchronized() {
        let cfg = tiny_cfg();
        let batches = make_batches(3, 4);
        // Run 2 replicas; ranks exchange final params through the outcome
        // of rank 0 vs an independent 2-replica run with the same seed.
        let ddp = DdpConfig {
            replicas: 2,
            seed: 7,
            adam: AdamConfig {
                lr: 1e-3,
                ..AdamConfig::default()
            },
            m_vae: 1.0,
        };
        let a = train_ddp(&cfg, &ddp, &batches, world(2));
        let b = train_ddp(&cfg, &ddp, &batches, world(2));
        assert_eq!(a.final_params.len(), b.final_params.len());
        for (x, y) in a.final_params.iter().zip(&b.final_params) {
            assert_eq!(x, y, "DDP must be deterministic for a fixed seed");
        }
    }

    #[test]
    fn ddp_losses_are_finite_and_trend_down() {
        let cfg = tiny_cfg();
        let batches: Vec<_> = (0..20).flat_map(|_| make_batches(1, 4)).collect();
        let ddp = DdpConfig {
            replicas: 2,
            seed: 3,
            adam: AdamConfig {
                lr: 2e-3,
                weight_decay: 0.0,
                ..AdamConfig::default()
            },
            m_vae: 4.0,
        };
        let out = train_ddp(&cfg, &ddp, &batches, world(2));
        assert!(out.losses.iter().all(|l| l.is_finite()));
        let head: f64 = out.losses[..5].iter().sum::<f64>() / 5.0;
        let tail = tail_loss(&out, 5);
        assert!(
            tail < head,
            "training should make progress: {head} → {tail}"
        );
    }

    #[test]
    fn gradient_sync_produces_identical_gradients() {
        // Two replicas with *different* local batches must hold identical
        // gradients after sync_gradients.
        let cfg = tiny_cfg();
        let endpoints = CommWorld::new(2).into_endpoints();
        let handles: Vec<_> = endpoints
            .into_iter()
            .map(|comm| {
                let cfg = cfg.clone();
                std::thread::spawn(move || {
                    let mut model = ArtificialScientistModel::new(cfg, 5);
                    let mut rng = TensorRng::seeded(100 + comm.rank() as u64);
                    let pts = rng.uniform([2, 8, 6], -1.0, 1.0);
                    let sp = rng.uniform([2, 4], -1.0, 1.0);
                    model.zero_grad();
                    let _ = model.accumulate_gradients(&pts, &sp, &mut rng);
                    sync_gradients(&comm, &mut model);
                    let mut flat = Vec::new();
                    model.visit_all(&mut |_p: &mut Tensor, g: &mut Tensor| {
                        flat.extend_from_slice(g.data())
                    });
                    flat
                })
            })
            .collect();
        let grads: Vec<Vec<f32>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(grads[0].len(), grads[1].len());
        for (a, b) in grads[0].iter().zip(&grads[1]) {
            assert_eq!(a, b, "post-allreduce gradients must match exactly");
        }
    }

    #[test]
    fn bucketed_sync_is_identical_across_ranks_and_close_to_flat() {
        // Two ranks with different local batches: after the bucketed
        // all-reduce every rank must hold bit-identical gradients, and
        // the averaged values must agree with the single-flat-buffer
        // reduction up to summation-order rounding.
        let cfg = tiny_cfg();
        for bucket_elems in [1usize, 7, 64, 100_000] {
            let endpoints = CommWorld::new(2).into_endpoints();
            let handles: Vec<_> = endpoints
                .into_iter()
                .map(|comm| {
                    let cfg = cfg.clone();
                    std::thread::spawn(move || {
                        let mut model = ArtificialScientistModel::new(cfg, 5);
                        let mut rng = TensorRng::seeded(100 + comm.rank() as u64);
                        let pts = rng.uniform([2, 8, 6], -1.0, 1.0);
                        let sp = rng.uniform([2, 4], -1.0, 1.0);
                        model.zero_grad();
                        let _ = model.accumulate_gradients(&pts, &sp, &mut rng);
                        sync_gradients_bucketed(&comm, &mut model, bucket_elems);
                        let mut flat = Vec::new();
                        model.visit_all(&mut |_p: &mut Tensor, g: &mut Tensor| {
                            flat.extend_from_slice(g.data())
                        });
                        flat
                    })
                })
                .collect();
            let grads: Vec<Vec<f32>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
            assert_eq!(grads[0].len(), grads[1].len());
            for (a, b) in grads[0].iter().zip(&grads[1]) {
                assert_eq!(a, b, "bucketed sync must be bit-identical across ranks");
            }
        }
        // Cross-check scheme agreement: one huge bucket covers the whole
        // model, which is exactly the flat path.
        let endpoints = CommWorld::new(2).into_endpoints();
        let handles: Vec<_> = endpoints
            .into_iter()
            .map(|comm| {
                let cfg = cfg.clone();
                std::thread::spawn(move || {
                    // Same seeds ⇒ m1 and m2 hold identical pre-sync
                    // gradients; only the reduction scheme differs.
                    let mut m1 = ArtificialScientistModel::new(cfg.clone(), 5);
                    let mut m2 = ArtificialScientistModel::new(cfg, 5);
                    let mut rng1 = TensorRng::seeded(100 + comm.rank() as u64);
                    let mut rng2 = TensorRng::seeded(100 + comm.rank() as u64);
                    let pts = rng1.uniform([2, 8, 6], -1.0, 1.0);
                    let sp = rng1.uniform([2, 4], -1.0, 1.0);
                    let pts2 = rng2.uniform([2, 8, 6], -1.0, 1.0);
                    let sp2 = rng2.uniform([2, 4], -1.0, 1.0);
                    m1.zero_grad();
                    let _ = m1.accumulate_gradients(&pts, &sp, &mut rng1);
                    m2.zero_grad();
                    let _ = m2.accumulate_gradients(&pts2, &sp2, &mut rng2);
                    sync_gradients(&comm, &mut m1);
                    sync_gradients_bucketed(&comm, &mut m2, DEFAULT_BUCKET_ELEMS);
                    let (mut f1, mut f2) = (Vec::new(), Vec::new());
                    m1.visit_all(&mut |_p: &mut Tensor, g: &mut Tensor| {
                        f1.extend_from_slice(g.data())
                    });
                    m2.visit_all(&mut |_p: &mut Tensor, g: &mut Tensor| {
                        f2.extend_from_slice(g.data())
                    });
                    (f1, f2)
                })
            })
            .collect();
        for h in handles {
            let (flat, bucketed) = h.join().unwrap();
            for (a, b) in flat.iter().zip(&bucketed) {
                assert!(
                    (a - b).abs() <= 1e-5 * a.abs().max(1.0),
                    "flat vs bucketed averages diverge: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn overlapped_sync_is_bit_identical_to_blocking_bucketed() {
        // Two ranks, different local batches. Each rank reduces one model
        // copy through the blocking bucketed path and a second identical
        // copy through the overlapped comm-worker path (over a separate
        // dedicated world, as the streaming consumer wires it). The
        // averaged gradients must match bit for bit — same bucket
        // schedule, same all-reduce sequence.
        let cfg = tiny_cfg();
        for bucket_elems in [7usize, DEFAULT_BUCKET_ELEMS] {
            let mains = world(2);
            let grads = world(2);
            let handles: Vec<_> = mains
                .into_iter()
                .zip(grads)
                .map(|(comm, grad_comm)| {
                    let cfg = cfg.clone();
                    std::thread::spawn(move || {
                        let mut m1 = ArtificialScientistModel::new(cfg.clone(), 5);
                        let mut m2 = ArtificialScientistModel::new(cfg, 5);
                        let mut rng1 = TensorRng::seeded(100 + comm.rank() as u64);
                        let mut rng2 = TensorRng::seeded(100 + comm.rank() as u64);
                        let pts = rng1.uniform([2, 8, 6], -1.0, 1.0);
                        let sp = rng1.uniform([2, 4], -1.0, 1.0);
                        let pts2 = rng2.uniform([2, 8, 6], -1.0, 1.0);
                        let sp2 = rng2.uniform([2, 4], -1.0, 1.0);
                        m1.zero_grad();
                        let _ = m1.accumulate_gradients(&pts, &sp, &mut rng1);
                        m2.zero_grad();
                        let _ = m2.accumulate_gradients(&pts2, &sp2, &mut rng2);
                        sync_gradients_bucketed(&comm, &mut m1, bucket_elems);
                        let mut overlap = OverlappedGradSync::new(Arc::new(grad_comm));
                        overlap.begin(&mut m2, bucket_elems);
                        overlap.wait_all(&mut m2);
                        let (mut f1, mut f2) = (Vec::new(), Vec::new());
                        m1.visit_all(&mut |_p: &mut Tensor, g: &mut Tensor| {
                            f1.extend_from_slice(g.data())
                        });
                        m2.visit_all(&mut |_p: &mut Tensor, g: &mut Tensor| {
                            f2.extend_from_slice(g.data())
                        });
                        (f1, f2)
                    })
                })
                .collect();
            for h in handles {
                let (blocking, overlapped) = h.join().unwrap();
                assert_eq!(blocking.len(), overlapped.len());
                for (a, b) in blocking.iter().zip(&overlapped) {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "overlapped sync must be bit-identical to blocking (bucket {bucket_elems})"
                    );
                }
            }
        }
    }

    #[test]
    fn overlapped_sync_runs_many_iterations_without_leaking_state() {
        // The worker thread persists across iterations; repeated
        // begin/wait cycles must keep ranks synchronized.
        let grads = world(2);
        let cfg = tiny_cfg();
        let handles: Vec<_> = grads
            .into_iter()
            .map(|grad_comm| {
                let cfg = cfg.clone();
                std::thread::spawn(move || {
                    let rank = grad_comm.rank() as u64;
                    let mut model = ArtificialScientistModel::new(cfg, 9);
                    let mut rng = TensorRng::seeded(7 + rank);
                    let mut overlap = OverlappedGradSync::new(Arc::new(grad_comm));
                    let mut hashes = Vec::new();
                    for _ in 0..3 {
                        let pts = rng.uniform([2, 8, 6], -1.0, 1.0);
                        let sp = rng.uniform([2, 4], -1.0, 1.0);
                        model.zero_grad();
                        let _ = model.accumulate_gradients(&pts, &sp, &mut rng);
                        overlap.begin(&mut model, 64);
                        overlap.wait_all(&mut model);
                        let mut flat = Vec::new();
                        model.visit_all(&mut |_p: &mut Tensor, g: &mut Tensor| {
                            flat.extend_from_slice(g.data())
                        });
                        let mut h = 0xcbf2_9ce4_8422_2325u64;
                        for v in flat {
                            h ^= v.to_bits() as u64;
                            h = h.wrapping_mul(0x100_0000_01b3);
                        }
                        hashes.push(h);
                    }
                    hashes
                })
            })
            .collect();
        let results: Vec<Vec<u64>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(
            results[0], results[1],
            "per-iteration reduced gradients must agree across ranks"
        );
    }

    #[test]
    fn param_hash_detects_any_weight_change() {
        let cfg = tiny_cfg();
        let mut a = ArtificialScientistModel::new(cfg.clone(), 42);
        let mut b = ArtificialScientistModel::new(cfg, 42);
        assert_eq!(param_hash(&mut a), param_hash(&mut b));
        // Flip one weight by one ULP: the hash must move.
        let mut first = true;
        b.visit_all(&mut |p: &mut Tensor, _g: &mut Tensor| {
            if first && p.numel() > 0 {
                let v = p.data()[0];
                p.data_mut()[0] = f32::from_bits(v.to_bits() ^ 1);
                first = false;
            }
        });
        assert_ne!(param_hash(&mut a), param_hash(&mut b));
    }

    #[test]
    fn single_process_matches_ddp_loss_scale() {
        // Not bit-identical (different noise sharding) but the same order of
        // magnitude and both finite — a cheap cross-check that sharding does
        // not break loss normalisation.
        let cfg = tiny_cfg();
        let batches = make_batches(4, 4);
        let ddp_out = train_ddp(
            &cfg,
            &DdpConfig {
                replicas: 2,
                seed: 11,
                adam: AdamConfig::default(),
                m_vae: 1.0,
            },
            &batches,
            world(2),
        );
        let single = train_single(&cfg, 11, AdamConfig::default(), 1.0, &batches);
        for (a, b) in ddp_out.losses.iter().zip(&single.losses) {
            assert!(a.is_finite() && b.is_finite());
            assert!(
                *a < 20.0 * b.max(1e-3) && *b < 20.0 * a.max(1e-3),
                "loss scales diverge: ddp {a} vs single {b}"
            );
        }
    }
}
