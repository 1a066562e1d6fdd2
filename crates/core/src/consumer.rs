//! The consumer: the MLapp side of the pipeline.
//!
//! Receives particle and radiation iterations, encodes per-region
//! training samples, feeds the experience-replay buffer and trains the
//! VAE+INN `n_rep` iterations per streamed window (§IV-C).
//!
//! # One driver
//!
//! [`run_consumer`] is the only learner loop: one rank of a K-way
//! data-parallel group, written once against a [`Collective`] endpoint.
//! Per window it runs, in this order: the fault hooks (checkpoint capture,
//! kill, scheduled skip), a membership round, the window pick, the owner's
//! fetch + encode (optionally broadcast to the peers), the data-plane
//! charge, and `n_rep` synchronous training iterations — each a collective
//! go/no-go, a forward/backward pass, a bucketed gradient average, the
//! optimizer step, a cross-rank parameter-hash witness and, when due, a
//! snapshot publication.
//!
//! Everything that depends on *how the group communicates* is decided by
//! the learner-group strategy [`LearnerGroup`], chosen from
//! [`crate::faults::FaultPlan::active`]: fixed membership over the plain
//! blocking collectives, or degradable membership over the
//! timeout-bounded [`FtComm`] operations (who is alive, who picks the
//! `DropSteps` target, how sums/broadcasts/gradient buckets travel,
//! whether snapshot metadata is broadcast). The loop itself never asks
//! which one it has. While every rank is alive the two are bit-identical.
//!
//! K = 1 is the same loop over [`as_cluster::collective::SoloComm`], whose
//! collectives are the identity: ownership is always this rank, the
//! go/no-go is `buffer.ready()`, there is no gradient sync and nothing is
//! priced. A lone rank keeps the historical unmixed RNG seeds; ranks of a
//! K ≥ 2 group mix their rank into the buffer/encode/train seeds
//! (different data and noise streams over identical weights — the
//! `as_nn::ddp::train_ddp` discipline). Every rank sees every streamed
//! step (SST semantics) but only the round-robin owner among the live
//! members fetches the payload, so parameters stay bit-identical across
//! ranks (asserted each iteration via [`as_nn::ddp::param_hash`]).
//!
//! # Streaming policy
//!
//! [`WorkflowConfig::policy`] paces the loop:
//! - `BlockingEveryStep` consumes windows in order, letting the bounded
//!   SST queue stall the producer when training falls behind;
//! - [`ConsumerPolicy::DropSteps`] jumps to the **newest** published
//!   window — but only once at least `min_queue` unseen windows are
//!   pending (`0` = always jump); older pending windows are closed
//!   unread and their queue slots free immediately, so producer stall
//!   stays bounded by the queue depth. The group's root picks the target
//!   window and broadcasts its stream-step index so every rank skips the
//!   *same* window set — the collective schedule stays identical on all
//!   ranks.
//!
//! # Accounting identity
//!
//! Every published window is accounted for exactly once, on every rank:
//! `windows + dropped_windows + orphaned_windows + lost_windows ==`
//! [`ConsumerReport::published_windows`] — trained on, skipped by
//! `DropSteps`, stranded on one stream after the other ended (a producer
//! dying between the two emissions of a window; the longer stream is
//! drained, not panicked on), or destroyed by an injected fault.

use crate::checkpoint::{LearnerCheckpoint, LearnerProgress};
use crate::config::{ConsumerPolicy, WorkflowConfig};
use crate::encode::{batch_to_tensors, Sample};
use crate::faults::{InjectedFault, KillMode};
use crate::ft::{FtComm, LearnerGroup};
use crate::snapshot::{SnapshotPublisher, SnapshotSink};
use as_cluster::collective::Collective;
use as_nn::ddp::{param_hash, OverlappedGradSync};
use as_nn::model::{ArtificialScientistModel, LossReport, ModelOptimizer};
use as_openpmd::reader::{IterationData, OpenPmdReader};
use as_pic::diag::FlowRegion;
use as_radiation::spectrum::Spectrum;
use as_replay::buffer::TrainingBuffer;
use as_replay::scheduler::{ReplaySchedule, StallPolicy};
use as_staging::engine::SstReader;
use as_tensor::TensorRng;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Consumer-side outcome (one rank).
pub struct ConsumerReport {
    /// The trained model.
    pub model: ArtificialScientistModel,
    /// Loss after every training iteration (mean over the live ranks).
    pub losses: Vec<LossReport>,
    /// Windows received from the stream (every rank sees every window).
    pub windows: u64,
    /// Samples pushed into this rank's training buffer.
    pub samples: u64,
    /// Wall seconds spent in training iterations.
    pub train_seconds: f64,
    /// Bytes fetched from the particle stream by this rank.
    pub particle_bytes: u64,
    /// This rank's index in the learner group.
    pub rank: usize,
    /// Learner group size.
    pub world: usize,
    /// PIC iteration indices of the windows this rank owned (fetched and
    /// encoded). Across ranks these partition the stream exactly once.
    pub owned_windows: Vec<u64>,
    /// Windows left on one stream after the other ended — nonzero only
    /// when the producer died between the two emissions of a window.
    pub orphaned_windows: u64,
    /// Windows this rank skipped unread under
    /// [`ConsumerPolicy::DropSteps`] (always 0 when blocking).
    pub dropped_windows: u64,
    /// Total windows the producer published (the larger of the two
    /// streams' step counts). Always equals
    /// `windows + dropped_windows + orphaned_windows + lost_windows` —
    /// every published window is consumed, dropped, orphaned or lost to a
    /// fault, never lost silently.
    pub published_windows: u64,
    /// FNV-1a hash of the final parameter bits (DDP sync witness).
    pub param_hash: u64,
    /// Parameter hash after **every** training iteration, in order — the
    /// cross-backend determinism witness: two runs of the same seeded
    /// config under different [`crate::config::CommBackend`]s must
    /// produce identical sequences (delays may not change numerics), and
    /// the rollback bit-identity witness under a fault plan. Recorded
    /// whenever there is something to witness (a group of two or more
    /// ranks, or an active fault plan); empty for an unfaulted lone rank,
    /// which skips the per-iteration hash entirely.
    pub param_hashes: Vec<u64>,
    /// Inter-rank payload bytes the learner group's collective backends
    /// moved (world-wide counters observed at this rank's exit; gradient
    /// buckets, loss means, go/no-go and hash collectives — summed over
    /// the main world and, in overlap mode, the dedicated gradient
    /// world). Zero for a lone rank, which has no peers.
    pub comm_bytes: u64,
    /// Modelled fabric seconds charged by the collective backend
    /// (world-wide; nonzero only under `CommBackend::NetSim`).
    pub comm_model_seconds: f64,
    /// Point-to-point messages the learner group's collectives sent
    /// (world-wide counter, summed over the main world and — in overlap
    /// mode — the dedicated gradient world). Zero for a lone rank.
    pub comm_messages: u64,
    /// Windows destroyed by injected faults on this rank: checkpoint
    /// rollback after a kill-restart plus scheduled skip events. Zero on
    /// a healthy run.
    pub lost_windows: u64,
    /// Kill-restart cycles this rank survived.
    pub restarts: u64,
    /// Wall seconds spent recovering: checkpoint restores plus time
    /// waiting out death budgets on condemned peers.
    pub recovery_seconds: f64,
    /// Times this rank watched the learner group shrink (a peer declared
    /// dead and excluded from the collective schedule).
    pub degradations: u64,
    /// Live learner ranks at exit (`world` minus condemned peers; 0 for a
    /// rank that never returned).
    pub world_after: usize,
    /// Wire bytes this rank fetched from the two staging streams
    /// (particles + radiation) — equal to the logical payload bytes
    /// under the lossless codec, smaller under a compressing
    /// [`as_staging::codec::WireCodec`].
    pub staging_wire_bytes: u64,
    /// Modelled data-plane seconds the configured
    /// [`as_staging::dataplane::DataPlane`] charged this rank's staging
    /// reads (both streams).
    pub staging_model_seconds: f64,
}

impl ConsumerReport {
    /// The report of a rank that has consumed nothing yet: the freshly
    /// seeded (untrained) model and all-zero counters. The driver grows
    /// it in place; the workflow also uses it as the stand-in for a rank
    /// that died and never returned.
    pub(crate) fn fresh(cfg: &WorkflowConfig, rank: usize, world: usize) -> Self {
        Self {
            model: ArtificialScientistModel::new(cfg.model.clone(), cfg.seed),
            losses: Vec::new(),
            windows: 0,
            samples: 0,
            train_seconds: 0.0,
            particle_bytes: 0,
            rank,
            world,
            owned_windows: Vec::new(),
            orphaned_windows: 0,
            dropped_windows: 0,
            published_windows: 0,
            param_hash: 0,
            param_hashes: Vec::new(),
            comm_bytes: 0,
            comm_model_seconds: 0.0,
            comm_messages: 0,
            lost_windows: 0,
            restarts: 0,
            recovery_seconds: 0.0,
            degradations: 0,
            world_after: 0,
            staging_wire_bytes: 0,
            staging_model_seconds: 0.0,
        }
    }
}

/// Run one rank of the learner group until the streams end.
///
/// `comm` spans the K learner ranks (any [`Collective`] backend;
/// [`as_cluster::collective::SoloComm`] for K = 1). Window ownership is
/// round-robin over the live members in stream order; training is
/// synchronous and gradient-averaged every iteration in
/// `cfg.grad_bucket`-element buckets, so every rank holds bit-identical
/// parameters throughout (asserted). Iterations only run once *every*
/// live rank can draw a batch — the go/no-go is collective, keeping the
/// all-reduce schedule identical on all ranks; owed iterations are
/// recovered on later windows.
///
/// With [`WorkflowConfig::overlap_grad_sync`] (and K ≥ 2) the bucket
/// reduction runs non-blocking on a comm-worker thread over `grad_comm` —
/// a **second** collective world spanning the same ranks (its own
/// endpoint per rank, like a NCCL gradient stream), so bucket all-reduces
/// overlap the per-iteration loss mean on `comm` without the two
/// schedules ever sharing an endpoint. The reduction is bit-identical to
/// the blocking one ([`OverlappedGradSync`]). `grad_comm` is ignored
/// otherwise.
///
/// With [`WorkflowConfig::serving`] set and a `sink` given, the group's
/// root (the lowest live rank) captures a
/// [`crate::snapshot::ModelSnapshot`] every `publish_every` training
/// iterations — the counter is bit-identical across ranks, so every rank
/// agrees on the schedule — prices the payload along the group's
/// broadcast schedule and sends it to the sink; where the group
/// broadcasts the `(version, param_hash)` metadata, peers assert the hash
/// against their own parameters (a cross-rank torn-weights check). When
/// the root dies, publication fails over to the next survivor. The
/// version counter is *not* checkpointed: a rollback may republish the
/// same iteration range, but versions stay strictly monotone — the
/// engine's hot-swap invariant.
///
/// Under an **active** [`crate::faults::FaultPlan`] the hooks at the top
/// of each window, keyed on the *arrival counter* (windows taken off the
/// stream), come alive:
///
/// - **checkpoint capture** every `checkpoint_every` arrivals, *before*
///   the kill hook, so a kill landing on a boundary restores the state
///   captured a moment earlier (capture never mutates learner state);
/// - **kill events**: [`KillMode::Restart`] rolls back to the latest
///   [`LearnerCheckpoint`] (arrivals consumed since then are counted in
///   [`ConsumerReport::lost_windows`] — stream steps cannot be re-read)
///   and continues; [`KillMode::Die`] marks this rank dead on the shared
///   world — so survivors fast-fail their waits instead of burning the
///   full death budget — and panics with an [`InjectedFault`] payload
///   (the orchestrator captures it as a rank failure);
/// - **skip events** ([`crate::faults::FaultEvent::SkipWindows`]): the
///   window is read and closed unprocessed, counted as lost — the
///   reference-run twin of a rollback, for bit-identity comparisons.
///
/// With an event-free plan the training trajectory is bit-identical to
/// the inert plan's. Contradictory configurations are rejected up front
/// by [`WorkflowConfig::validate_topology`], which this function calls.
pub fn run_consumer<C: Collective>(
    cfg: &WorkflowConfig,
    comm: C,
    grad_comm: Option<C>,
    particle_stream: SstReader,
    radiation_stream: SstReader,
    sink: Option<Arc<dyn SnapshotSink>>,
) -> ConsumerReport {
    cfg.validate_topology();
    let plan = &cfg.faults;
    let rank = comm.rank();
    let world = comm.size();
    let mut group = if plan.active() {
        LearnerGroup::Ft(FtComm::new(&comm, plan))
    } else {
        let overlap = (cfg.overlap_grad_sync && world > 1).then(|| {
            let g = grad_comm
                .unwrap_or_else(|| panic!("overlap_grad_sync needs a dedicated gradient world"));
            assert_eq!(
                (g.rank(), g.size()),
                (rank, world),
                "gradient world must mirror the main world"
            );
            OverlappedGradSync::new(Arc::new(g))
        });
        LearnerGroup::Static {
            comm: &comm,
            overlap,
        }
    };
    // The per-iteration hash is a cross-rank / cross-run witness; an
    // unfaulted lone rank has nothing to compare it with.
    let witness = world > 1 || plan.active();
    let mut publisher = match (&cfg.serving, sink) {
        (Some(serving), Some(sink)) => Some(SnapshotPublisher::new(sink, serving, cfg.encode)),
        _ => None,
    };
    // Ranks of a group draw different data/noise streams over identical
    // weights; a lone rank keeps the historical unmixed seeds.
    let rank_mix = if world > 1 {
        0x9E37_79B9_7F4A_7C15u64.wrapping_mul(rank as u64 + 1)
    } else {
        0
    };
    let mut p_reader = OpenPmdReader::new(particle_stream);
    let mut r_reader = OpenPmdReader::new(radiation_stream);
    let mut rep = ConsumerReport::fresh(cfg, rank, world);
    let mut opt = ModelOptimizer::new(cfg.adam, cfg.m_vae);
    let mut buffer: TrainingBuffer<Sample> =
        TrainingBuffer::new(cfg.buffer, cfg.seed ^ 0xEB ^ rank_mix);
    let mut schedule = ReplaySchedule::new(cfg.n_rep, StallPolicy::StallProducer);
    let mut enc_rng = StdRng::seed_from_u64(cfg.seed ^ 0xE0C0DE ^ rank_mix);
    let mut train_rng = TensorRng::seeded(cfg.seed ^ 0x7241 ^ rank_mix);

    let kill = plan.consumer_kill(rank);
    let skips = plan.skip_ranges();
    // Arrival counter: strictly increasing across loop tops, never rolled
    // back, so each hook below fires at most once per arrival.
    let mut seen = 0u64;
    let mut ckpt: Option<LearnerCheckpoint> = None;
    let mut members: Vec<usize> = (0..world).collect();

    'stream: loop {
        if plan.checkpoint_every > 0 && seen.is_multiple_of(plan.checkpoint_every) {
            let progress = LearnerProgress {
                windows: rep.windows,
                samples: rep.samples,
                owned_windows: rep.owned_windows.clone(),
                losses: rep.losses.clone(),
                param_hashes: rep.param_hashes.clone(),
            };
            ckpt = Some(LearnerCheckpoint::capture(
                &mut rep.model,
                &opt,
                &buffer,
                &schedule,
                &enc_rng,
                &train_rng,
                &progress,
            ));
        }
        match kill {
            Some((at, KillMode::Die)) if at == seen => {
                // Self-mark before unwinding: the health board is shared,
                // so survivors fast-fail their pending waits.
                comm.mark_dead(rank);
                std::panic::panic_any(InjectedFault {
                    rank,
                    at_window: seen,
                });
            }
            Some((at, KillMode::Restart)) if at == seen => {
                let t0 = std::time::Instant::now();
                let c = ckpt.as_ref().unwrap_or_else(|| {
                    panic!("validate_topology guarantees a checkpoint before a restart")
                });
                let progress = c.restore(
                    &mut rep.model,
                    &mut opt,
                    &mut buffer,
                    &mut schedule,
                    &mut enc_rng,
                    &mut train_rng,
                );
                rep.lost_windows += rep.windows - progress.windows;
                rep.windows = progress.windows;
                rep.samples = progress.samples;
                rep.owned_windows = progress.owned_windows;
                rep.losses = progress.losses;
                rep.param_hashes = progress.param_hashes;
                rep.restarts += 1;
                rep.recovery_seconds += t0.elapsed().as_secs_f64();
            }
            _ => {}
        }
        // Membership round: agree on who is alive before any
        // value-bearing collective of this window. A shrink is a
        // degradation event — ownership, go/no-go threshold and loss
        // divisor all re-derive from the surviving member list.
        let now_alive = group.members();
        if now_alive.len() < members.len() {
            rep.degradations += 1;
        }
        members = now_alive;

        let (mut p_it, mut r_it) = match cfg.policy {
            ConsumerPolicy::BlockingEveryStep => {
                match (p_reader.next_iteration(), r_reader.next_iteration()) {
                    (Some(a), Some(b)) => (a, b),
                    (None, None) => break,
                    (Some(a), None) => {
                        p_reader.close_iteration(a);
                        rep.orphaned_windows += 1 + drain_stream(&mut p_reader);
                        break;
                    }
                    (None, Some(b)) => {
                        r_reader.close_iteration(b);
                        rep.orphaned_windows += 1 + drain_stream(&mut r_reader);
                        break;
                    }
                }
            }
            ConsumerPolicy::DropSteps { min_queue, .. } => {
                // The group's root decides which window to take
                // (freshest, or next-in-order while the backlog is
                // shallower than min_queue) by reading its own stream,
                // and broadcasts the stream step; peers follow to the
                // same step. Every rank enters a round with the same
                // cursor, so the skip counts match and the collective
                // schedule stays aligned. If a fault-tolerant root died
                // this round the election falls through to the next
                // survivor.
                let mut own_read: Option<(u64, Option<IterationData>)> = None;
                let target = group.elect_broadcast(|| {
                    let (skip, opt) = p_reader.next_iteration_latest_min(min_queue as u64);
                    let step = opt.as_ref().map(|it| it.stream_step());
                    own_read = Some((skip, opt));
                    step
                });
                let (p_skip, p_opt) = match (own_read, target) {
                    (Some(read), _) => read,
                    (None, Some(step)) => p_reader.next_iteration_at_least(step),
                    (None, None) => (0, None),
                };
                // The pairing/accounting outcome is a function of global
                // stream state and the shared target, so every rank takes
                // the same branch on the same window — on end-of-stream no
                // collective runs below and all ranks exit together.
                match pair_drop_steps_window(
                    p_skip,
                    p_opt,
                    &mut p_reader,
                    &mut r_reader,
                    &mut rep.dropped_windows,
                    &mut rep.orphaned_windows,
                ) {
                    Some(pair) => pair,
                    None => break 'stream,
                }
            }
        };
        let arrival = seen;
        seen += 1;
        if skips.iter().any(|&(f, t)| arrival >= f && arrival <= t) {
            p_reader.close_iteration(p_it);
            r_reader.close_iteration(r_it);
            rep.lost_windows += 1;
            continue 'stream;
        }
        let owner = members[(rep.windows % members.len() as u64) as usize];
        rep.windows += 1;
        // Only the owner pays the fetch + encode.
        let fresh = (rank == owner).then(|| {
            rep.owned_windows.push(p_it.iteration);
            encode_window(cfg, &mut p_it, &mut r_it, &mut enc_rng)
        });
        let fresh = if cfg.sample_broadcast {
            // Owner-computed broadcast: every rank's buffer receives the
            // encoded samples (a few KiB per window vs the full
            // phase-space fetch). The payload is opaque to the transport,
            // so the owner declares its per-copy serialized size and the
            // backend prices it along the broadcast schedule.
            if let Some(fresh) = &fresh {
                let per_copy: u64 = fresh
                    .iter()
                    .map(|s| ((s.points.len() + s.spectrum.len()) * 4 + 16) as u64)
                    .sum();
                comm.account_broadcast_payload(owner, per_copy);
            }
            group.broadcast_from(owner, fresh)
        } else {
            fresh
        };
        for s in fresh.unwrap_or_default() {
            rep.samples += 1;
            buffer.push(s);
        }
        // Price this rank's staging fetches for the window on the
        // collective's data plane (zero for non-owners, who fetched no
        // payload; the netsim backend sleeps the modelled cost, the
        // others ignore it).
        comm.account_dataplane(
            p_it.wire_bytes_fetched() + r_it.wire_bytes_fetched(),
            p_it.simulated_seconds() + r_it.simulated_seconds(),
        );
        p_reader.close_iteration(p_it);
        r_reader.close_iteration(r_it);

        // Train n_rep iterations for this window.
        schedule.on_step();
        while schedule.should_train() {
            // Collective go/no-go: every live rank must be able to draw
            // a batch before a synchronous iteration can run. Until the
            // last rank owns its first window this skips, and the owed
            // iterations are recovered on later windows.
            let mut vote = [if buffer.ready() { 1.0f64 } else { 0.0 }];
            let quorum = group.allreduce_sum(&mut vote);
            if (vote[0].round() as usize) < quorum {
                break;
            }
            let t0 = std::time::Instant::now();
            let batch = buffer.sample_batch();
            let (points, spectra) = batch_to_tensors(&batch, &cfg.model);
            rep.model.zero_grad();
            let local = rep
                .model
                .accumulate_gradients(&points, &spectra, &mut train_rng);
            // Same buckets, same all-reduce order in every mode; in the
            // overlapped mode the loss mean below runs on the main world
            // while the comm worker reduces buckets on its own.
            group.begin_grad_sync(&mut rep.model, cfg.grad_bucket);
            let loss = mean_loss(&group, &local);
            group.finish_grad_sync(&mut rep.model);
            opt.step(&mut rep.model);
            rep.train_seconds += t0.elapsed().as_secs_f64();
            rep.losses.push(loss);
            schedule.on_iteration();
            let iters = rep.losses.len() as u64;
            // DDP invariant: identical averaged gradients applied to
            // identical optimizer state ⇒ bit-identical parameters.
            let hash = witness.then(|| {
                let h = param_hash(&mut rep.model);
                let hashes = group.allgather(h);
                assert!(
                    hashes.iter().all(|&x| x == h),
                    "learner ranks diverged after iteration {iters}: {hashes:?}"
                );
                rep.param_hashes.push(h);
                h
            });
            if let Some(pb) = publisher.as_mut().filter(|pb| pb.due(iters)) {
                let root = members[0];
                if rank == root {
                    let snap = pb.capture(&mut rep.model, iters);
                    // Price the opaque snapshot payload along the
                    // broadcast schedule (the sample_broadcast idiom).
                    comm.account_broadcast_payload(root, snap.payload_bytes());
                    group.snapshot_meta(root, Some((snap.version, snap.param_hash)));
                    pb.send(snap);
                } else {
                    if let Some((_, root_hash)) = group.snapshot_meta(root, None) {
                        assert_eq!(
                            Some(root_hash),
                            hash,
                            "published snapshot hash diverged from rank {rank}'s parameters"
                        );
                    }
                    pb.skip();
                }
            }
        }
    }

    rep.recovery_seconds += group.condemned_wait_seconds();
    (rep.comm_bytes, rep.comm_messages, rep.comm_model_seconds) = group.traffic();
    rep.world_after = members.len();
    rep.particle_bytes = p_reader.stats().total_bytes();
    rep.staging_wire_bytes = p_reader.stats().wire_bytes() + r_reader.stats().wire_bytes();
    rep.staging_model_seconds =
        p_reader.stats().simulated_seconds() + r_reader.stats().simulated_seconds();
    rep.published_windows = p_reader.published_steps().max(r_reader.published_steps());
    rep.param_hash = param_hash(&mut rep.model);
    rep
}

/// Mean of every loss component over the live ranks (what DDP training
/// curves log).
fn mean_loss<C: Collective>(group: &LearnerGroup<'_, C>, local: &LossReport) -> LossReport {
    let mut buf = [
        local.cd,
        local.kl,
        local.mse,
        local.mmd_z,
        local.mmd_n,
        local.total,
    ];
    let inv = 1.0 / group.allreduce_sum(&mut buf) as f64;
    LossReport {
        cd: buf[0] * inv,
        kl: buf[1] * inv,
        mse: buf[2] * inv,
        mmd_z: buf[3] * inv,
        mmd_n: buf[4] * inv,
        total: buf[5] * inv,
    }
}

/// Pair a `DropSteps` particle read (already taken, with `p_skip`
/// windows skipped) with its radiation step, keeping both streams in
/// lockstep and settling the drop/orphan accounting. Returns the paired
/// iterations, or `None` when the stream is over — in which case both
/// streams are fully drained and every remaining window is already
/// counted (dropped where both halves existed, orphaned where only one
/// did).
fn pair_drop_steps_window(
    p_skip: u64,
    p_opt: Option<IterationData>,
    p_reader: &mut OpenPmdReader,
    r_reader: &mut OpenPmdReader,
    dropped_windows: &mut u64,
    orphaned_windows: &mut u64,
) -> Option<(IterationData, IterationData)> {
    let Some(p_it) = p_opt else {
        // Particle stream ended with nothing pending; any radiation
        // leftovers lost their particle halves.
        let (p_left, _) = p_reader.next_iteration_at_least(u64::MAX);
        let (r_left, _) = r_reader.next_iteration_at_least(u64::MAX);
        *orphaned_windows += p_left + r_left;
        return None;
    };
    // Keep the radiation stream in lockstep: skip to the same stream
    // step the particle read jumped to.
    let (r_skip, r_opt) = r_reader.next_iteration_at_least(p_it.stream_step());
    match r_opt {
        Some(r_it) => {
            debug_assert_eq!(r_skip, p_skip, "streams skip the same window set");
            *dropped_windows += p_skip;
            Some((p_it, r_it))
        }
        None => {
            // Radiation ended early (producer death): windows present on
            // both streams were dropped; the particle-only tail
            // (including this window) is orphaned.
            *dropped_windows += r_skip;
            *orphaned_windows += (p_skip - r_skip) + 1;
            p_reader.close_iteration(p_it);
            let (left, _) = p_reader.next_iteration_at_least(u64::MAX);
            *orphaned_windows += left;
            None
        }
    }
}

/// Close every remaining iteration of a stream whose partner ended early,
/// returning how many were discarded. Closing (rather than abandoning)
/// lets the surviving writer finish instead of wedging on the queue.
fn drain_stream(reader: &mut OpenPmdReader) -> u64 {
    let mut n = 0;
    while let Some(it) = reader.next_iteration() {
        reader.close_iteration(it);
        n += 1;
    }
    n
}

/// Fetch one window's phase space and spectra and encode one sample per
/// non-empty flow region; the caller feeds its buffer (or broadcasts the
/// encoded samples to peers — the owner-computed path).
///
/// The fetch is zero-copy: every particle component comes back as a
/// [`as_staging::view::VarView`] reading straight out of the published
/// block buffers, and the region filter / bounding box / point encoder
/// all index through the view — no per-window gather of the six
/// phase-space arrays. Under the lossless wire codec this path consumes
/// the RNG and performs arithmetic identically to the historical
/// gather-then-encode path, so training trajectories are bit-identical.
fn encode_window(
    cfg: &WorkflowConfig,
    p_it: &mut IterationData,
    r_it: &mut IterationData,
    enc_rng: &mut StdRng,
) -> Vec<Sample> {
    // Phase-space views (no payload copy).
    let xs = p_it.particles_view("e", "position", "x");
    let ys = p_it.particles_view("e", "position", "y");
    let zs = p_it.particles_view("e", "position", "z");
    let uxs = p_it.particles_view("e", "momentum", "x");
    let uys = p_it.particles_view("e", "momentum", "y");
    let uzs = p_it.particles_view("e", "momentum", "z");
    let step = p_it.iteration;
    let mut samples = Vec::new();

    // Build one sample per flow region.
    let (_, ly, _) = cfg.grid.extents();
    for (region_idx, _region) in FlowRegion::all().iter().enumerate() {
        let idx: Vec<usize> = (0..xs.len())
            .filter(|&i| region_of(ys.get_f64(i), ly, cfg.shear_width) == region_idx)
            .collect();
        if idx.is_empty() {
            continue;
        }
        let (center, half) = bounding_box_view(&xs, &ys, &zs, &idx);
        let points = cfg
            .encode
            .encode_points_view(&xs, &ys, &zs, &uxs, &uys, &uzs, &idx, center, half, enc_rng);
        let flat = r_it.f32_array_view(&format!("radiation/region{region_idx}/intensity"));
        // First direction's spectrum conditions the INN.
        let n_f = cfg.detector.n_freqs();
        let intensity: Vec<f64> = (0..n_f).map(|i| flat.get_f32(i) as f64).collect();
        let spec = Spectrum::new(cfg.detector.frequencies.clone(), intensity);
        let spectrum = cfg.encode.encode_spectrum(&spec, cfg.model.spectrum_dim);
        samples.push(Sample {
            points,
            spectrum,
            region: region_idx,
            step,
        });
    }
    samples
}

fn region_of(y: f64, ly: f64, shear_width: f64) -> usize {
    match FlowRegion::classify(y, ly, shear_width) {
        FlowRegion::Approaching => 0,
        FlowRegion::Receding => 1,
        FlowRegion::Vortex => 2,
    }
}

/// Zero-copy twin of [`bounding_box`]: the axis-aligned bounding box of
/// an indexed subset of three staging views. Folds min/max in `idx`
/// order — the same sequence the gather path folded — so the result is
/// bit-identical under the lossless codec.
pub fn bounding_box_view(
    xs: &as_staging::view::VarView,
    ys: &as_staging::view::VarView,
    zs: &as_staging::view::VarView,
    idx: &[usize],
) -> ([f64; 3], [f64; 3]) {
    let minmax = |v: &as_staging::view::VarView| {
        let lo = idx
            .iter()
            .map(|&i| v.get_f64(i))
            .fold(f64::INFINITY, f64::min);
        let hi = idx
            .iter()
            .map(|&i| v.get_f64(i))
            .fold(f64::NEG_INFINITY, f64::max);
        (lo, hi)
    };
    let (x0, x1) = minmax(xs);
    let (y0, y1) = minmax(ys);
    let (z0, z1) = minmax(zs);
    let center = [(x0 + x1) / 2.0, (y0 + y1) / 2.0, (z0 + z1) / 2.0];
    let half = [
        ((x1 - x0) / 2.0).max(1e-6),
        ((y1 - y0) / 2.0).max(1e-6),
        ((z1 - z0) / 2.0).max(1e-6),
    ];
    (center, half)
}

/// Axis-aligned bounding box of a point set: `(center, half_extents)`.
pub fn bounding_box(xs: &[f64], ys: &[f64], zs: &[f64]) -> ([f64; 3], [f64; 3]) {
    let minmax = |v: &[f64]| {
        let lo = v.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = v.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        (lo, hi)
    };
    let (x0, x1) = minmax(xs);
    let (y0, y1) = minmax(ys);
    let (z0, z1) = minmax(zs);
    let center = [(x0 + x1) / 2.0, (y0 + y1) / 2.0, (z0 + z1) / 2.0];
    let half = [
        ((x1 - x0) / 2.0).max(1e-6),
        ((y1 - y0) / 2.0).max(1e-6),
        ((z1 - z0) / 2.0).max(1e-6),
    ];
    (center, half)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounding_box_of_unit_cube() {
        let xs = [0.0, 1.0];
        let ys = [2.0, 4.0];
        let zs = [1.0, 1.0];
        let (c, h) = bounding_box(&xs, &ys, &zs);
        assert_eq!(c, [0.5, 3.0, 1.0]);
        assert!((h[0] - 0.5).abs() < 1e-12);
        assert!((h[1] - 1.0).abs() < 1e-12);
        assert!(h[2] >= 1e-6, "degenerate axis gets a floor");
    }

    #[test]
    fn region_indexing_matches_flow_region_order() {
        let ly = 8.0;
        assert_eq!(region_of(4.0, ly, 0.05), 0);
        assert_eq!(region_of(0.4, ly, 0.05), 1);
        assert_eq!(region_of(2.0, ly, 0.05), 2);
    }
}
