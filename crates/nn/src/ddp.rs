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
//! Two gradient-averaging modes share one deterministic bucket schedule
//! (the flatten order of `visit_all` cut every `bucket_elems` values):
//!
//! - [`sync_gradients_bucketed`] — buckets reduced synchronously as the
//!   flatten fills them (`usize::MAX` elements: one whole-model flat
//!   all-reduce);
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

use crate::model::ArtificialScientistModel;
use as_cluster::collective::Collective;
use as_detect::{track_cell, Cell};
use as_tensor::Tensor;
use crossbeam::channel::{unbounded, Receiver, Sender};
use crossbeam::thread as cb_thread;
use std::sync::Arc;

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
/// across ranks** (the invariant [`param_hash`] asserts downstream).
/// Different bucket sizes chunk the ring differently and so sum in a
/// different order; `usize::MAX` is one bucket holding the whole model.
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

/// Hash of the model's parameter bits in `visit_all` order, then of its
/// INN permutations ([`ParamHasher`]). Two replicas hold bit-identical
/// weights iff their hashes match — the per-iteration DDP synchronisation
/// witness of the streaming consumer ranks, and the hash a snapshot
/// carries from capture to install.
pub fn param_hash(model: &mut ArtificialScientistModel) -> u64 {
    let mut h = ParamHasher::default();
    model.visit_all(&mut |p: &mut Tensor, _g: &mut Tensor| h.update(p.data()));
    for perm in model.inn.permutations() {
        h.update_words(perm.iter().map(|&j| j as u32));
    }
    h.finish()
}

/// The multiplier of every lane step (2⁶⁴/φ, odd).
const LANE_MUL: u64 = 0x9E37_79B9_7F4A_7C15;

/// One lane step: `x = (lane ^ w)·LANE_MUL; lane = x ^ (x >> 29)`. The
/// xor, the odd multiply and the xorshift are each a bijection, so for a
/// given lane state every word leads to a different next state.
#[inline(always)]
fn lane_step(lane: u64, word: u64) -> u64 {
    let x = (lane ^ word).wrapping_mul(LANE_MUL);
    x ^ (x >> 29)
}

/// The splitmix64 finaliser, a bijection of `u64`.
fn splitmix64_fmix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Streaming form of [`param_hash`]: 32-bit values are paired into u64
/// words (the earlier value in the low half), word `i` goes to lane
/// `i mod 4`, and [`ParamHasher::finish`] folds the four lanes and the
/// value count through the splitmix64 finaliser. The four lanes are
/// independent dependency chains, so the hash runs at a few cycles per
/// word, with no per-byte loop.
///
/// The result depends on the concatenated values only, however they are
/// split across calls, so a snapshot's capture and its rebuild each hash
/// the buffers they copy while copying them and still agree with
/// [`param_hash`]. Every step is a bijection of the lane state, so two
/// inputs of one length that differ in a single word always hash apart.
#[derive(Debug, Clone)]
pub struct ParamHasher {
    lanes: [u64; 4],
    /// 32-bit values fed so far.
    len: u64,
    /// The low half of the word being filled while `len` is odd.
    half: u32,
}

impl Default for ParamHasher {
    fn default() -> Self {
        Self {
            lanes: [1, 2, 3, 4].map(|k: u64| k.wrapping_mul(LANE_MUL)),
            len: 0,
            half: 0,
        }
    }
}

impl ParamHasher {
    /// Feed the bit patterns of `data`.
    pub fn update(&mut self, data: &[f32]) {
        let mut rest = data;
        // Up to the next whole group of four words, one value at a time.
        while !self.len.is_multiple_of(8) {
            let Some((v, tail)) = rest.split_first() else {
                return;
            };
            self.push(v.to_bits());
            rest = tail;
        }
        let groups = rest.chunks_exact(8);
        let tail = groups.remainder();
        // Loaded from and stored to `self.lanes` side by side, the lanes
        // invite LLVM to pack them in pairs into SSE2 registers, where a
        // 64-bit multiply is three `pmuludq` and some shifts: that ran
        // 1.8× as long as four scalar `imul` chains (0.084 against 0.046 ms
        // for 123 536 values). Passing them through `black_box` on the way
        // in and out hides where they live and keeps the loop scalar; the
        // arithmetic is the same.
        let mut lanes = self.lanes.map(std::hint::black_box);
        for g in groups {
            for (k, lane) in lanes.iter_mut().enumerate() {
                let word = u64::from(g[2 * k].to_bits()) | u64::from(g[2 * k + 1].to_bits()) << 32;
                *lane = lane_step(*lane, word);
            }
        }
        self.lanes = lanes.map(std::hint::black_box);
        self.len += (rest.len() - tail.len()) as u64;
        for v in tail {
            self.push(v.to_bits());
        }
    }

    /// Feed 32-bit words (the INN permutation indices).
    pub fn update_words(&mut self, words: impl IntoIterator<Item = u32>) {
        words.into_iter().for_each(|w| self.push(w));
    }

    fn push(&mut self, v: u32) {
        if self.len.is_multiple_of(2) {
            self.half = v;
        } else {
            let k = (self.len / 2 % 4) as usize;
            let word = u64::from(self.half) | u64::from(v) << 32;
            self.lanes[k] = lane_step(self.lanes[k], word);
        }
        self.len += 1;
    }

    /// The hash of everything fed so far; a trailing odd value is a word
    /// with a zero high half (the count tells it from an explicit zero).
    pub fn finish(&self) -> u64 {
        let mut lanes = self.lanes;
        if !self.len.is_multiple_of(2) {
            let k = (self.len / 2 % 4) as usize;
            lanes[k] = lane_step(lanes[k], u64::from(self.half));
        }
        lanes.iter().fold(splitmix64_fmix(self.len), |h, &lane| {
            splitmix64_fmix(h ^ lane)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ModelConfig;
    use crate::vae::VaeConfig;
    use as_cluster::comm::CommWorld;
    use as_tensor::TensorRng;

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
    fn bucketed_sync_is_identical_across_ranks_and_close_to_flat() {
        // Two ranks with different local batches: after the bucketed
        // all-reduce every rank must hold bit-identical gradients, and
        // the averaged values must agree with one whole-model bucket (the
        // flat reduction) up to summation-order rounding.
        let cfg = tiny_cfg();
        for bucket_elems in [1usize, 7, 64, 100_000, usize::MAX] {
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
        // Cross-check scheme agreement against the whole-model bucket.
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
                    sync_gradients_bucketed(&comm, &mut m1, usize::MAX);
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

    /// A model whose widths are odd, so some parameter tensors have odd
    /// lengths and the hash's u64 words straddle tensor boundaries.
    fn odd_cfg() -> ModelConfig {
        let mut cfg = tiny_cfg();
        cfg.vae.encoder_channels = vec![6, 9, 13];
        cfg.vae.head_hidden = 7;
        cfg.vae.latent = 11;
        cfg.vae.decoder_channels = vec![3, 6];
        cfg.spectrum_dim = 5;
        cfg.inn_hidden = vec![7];
        cfg.inn_blocks = 3;
        cfg
    }

    fn tensor_lens(model: &mut ArtificialScientistModel) -> Vec<usize> {
        let mut lens = Vec::new();
        model.visit_all(&mut |p: &mut Tensor, _g: &mut Tensor| lens.push(p.numel()));
        lens
    }

    /// Flip bit `bit` of element `elem` of the `tensor`-th parameter.
    fn flip(model: &mut ArtificialScientistModel, tensor: usize, elem: usize, bit: u32) {
        let mut t = 0;
        model.visit_all(&mut |p: &mut Tensor, _g: &mut Tensor| {
            if t == tensor {
                let v = &mut p.data_mut()[elem];
                *v = f32::from_bits(v.to_bits() ^ (1 << bit));
            }
            t += 1;
        });
    }

    #[test]
    fn param_hash_detects_any_weight_change() {
        let cfg = tiny_cfg();
        let mut a = ArtificialScientistModel::new(cfg.clone(), 42);
        let mut b = ArtificialScientistModel::new(cfg, 42);
        assert_eq!(param_hash(&mut a), param_hash(&mut b));
        // Flip one weight by one ULP: the hash must move.
        flip(&mut b, 0, 0, 0);
        assert_ne!(param_hash(&mut a), param_hash(&mut b));

        // Seeded single-bit flips, every tensor in turn, each undone
        // after it is checked: a change confined to one word always moves
        // the hash, in either half of the word.
        for cfg in [ModelConfig::small(), odd_cfg()] {
            let mut m = ArtificialScientistModel::new(cfg, 7);
            let lens = tensor_lens(&mut m);
            let base = param_hash(&mut m);
            let mut rng = TensorRng::seeded(0xF11B);
            for i in 0..1000 {
                let t = i % lens.len();
                let (e, bit) = (rng.index(lens[t]), rng.index(32) as u32);
                flip(&mut m, t, e, bit);
                assert_ne!(param_hash(&mut m), base, "tensor {t} element {e} bit {bit}");
                flip(&mut m, t, e, bit);
            }
            assert_eq!(param_hash(&mut m), base);
        }
    }

    #[test]
    fn param_hash_reads_parameters_only() {
        // Gradients and the workspace change with every pass; the witness
        // must not.
        let mut m = ArtificialScientistModel::new(tiny_cfg(), 5);
        let base = param_hash(&mut m);
        let (points, spectra) = make_batches(1, 3).remove(0);
        for seed in 0..3 {
            m.accumulate_gradients(&points, &spectra, &mut TensorRng::seeded(seed));
            assert_eq!(param_hash(&mut m), base, "after pass {seed}");
        }
        let mut rng = TensorRng::seeded(9);
        m.visit_all(&mut |_p: &mut Tensor, g: &mut Tensor| {
            rng.fill_standard_normal(g.data_mut());
        });
        assert_eq!(param_hash(&mut m), base, "after overwriting the gradients");
    }

    #[test]
    fn streamed_hash_depends_on_the_bits_not_the_split() {
        let mut m = ArtificialScientistModel::new(odd_cfg(), 3);
        assert!(tensor_lens(&mut m).iter().any(|n| n % 2 == 1));
        let mut tensors: Vec<Vec<f32>> = Vec::new();
        m.visit_all(&mut |p: &mut Tensor, _g: &mut Tensor| tensors.push(p.data().to_vec()));
        let perms: Vec<Vec<u32>> = m
            .inn
            .permutations()
            .map(|p| p.iter().map(|&j| j as u32).collect())
            .collect();
        let flat: Vec<f32> = tensors.concat();
        let witness = param_hash(&mut m);
        let finish = |mut h: ParamHasher| {
            perms.iter().for_each(|p| h.update_words(p.iter().copied()));
            h.finish()
        };
        // Split at every tensor boundary (what capture does)…
        let mut h = ParamHasher::default();
        tensors.iter().for_each(|t| h.update(t));
        assert_eq!(finish(h), witness);
        // …in one piece…
        let mut h = ParamHasher::default();
        h.update(&flat);
        assert_eq!(finish(h), witness);
        // …and at odd offsets, pieces of 1 to 17 values.
        for step in [1, 3, 5, 7, 9, 17] {
            let mut h = ParamHasher::default();
            flat.chunks(step).for_each(|c| h.update(c));
            assert_eq!(finish(h), witness, "pieces of {step}");
        }
        // A model rebuilt from the buffers hashes them where they lie.
        let (mut served, h) =
            ArtificialScientistModel::from_buffers(m.cfg.clone(), tensors.clone(), perms.clone());
        assert_eq!(h, witness);
        assert_eq!(param_hash(&mut served), witness);
        // Length is part of the value: a trailing zero is not nothing.
        let mut h = ParamHasher::default();
        h.update(&[0.0]);
        assert_ne!(h.finish(), ParamHasher::default().finish());
    }
}
