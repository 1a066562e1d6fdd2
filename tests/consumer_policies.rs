//! Consumer streaming policies: DropSteps accounting, bounded producer
//! stall, adaptive drop thresholds (`min_queue`), owner-broadcast sample
//! sharing, overlapped gradient sync, and DDP safety under drops.

use artificial_scientist::core::config::{ConsumerPolicy, WorkflowConfig};
use artificial_scientist::core::workflow::{run_workflow, WorkflowReport};

fn slow_consumer_cfg() -> WorkflowConfig {
    let mut cfg = WorkflowConfig::small();
    cfg.total_steps = 16;
    cfg.steps_per_sample = 2; // 8 windows
    cfg.n_rep = 8; // training dominates → consumer-bound loop
    cfg.queue_limit = 2;
    cfg
}

/// Every published window must be consumed, dropped, or orphaned —
/// nothing lost silently — on every consumer rank.
fn assert_accounting(report: &WorkflowReport) {
    for s in &report.consumer_summaries {
        assert_eq!(
            s.windows + s.dropped_windows + s.orphaned_windows,
            s.published_windows,
            "rank {}: published windows must be fully accounted",
            s.rank
        );
        assert_eq!(
            s.published_windows, report.producer.windows,
            "rank {}: stream count matches the producer",
            s.rank
        );
    }
}

#[test]
fn drop_steps_accounts_for_every_window_1x1() {
    let mut cfg = slow_consumer_cfg();
    cfg.policy = ConsumerPolicy::drop_steps(2);
    let report = run_workflow(&cfg);
    assert_eq!(report.producer.windows, 8);
    assert_accounting(&report);
    assert_eq!(report.consumer.orphaned_windows, 0);
    // The consumer still trains on what it does take.
    assert!(report.consumer.windows >= 1);
    assert!(!report.consumer.losses.is_empty());
    assert!(report.consumer.losses.iter().all(|l| l.total.is_finite()));
    // The freshest-step policy keeps the last window: its owned list must
    // end on the final emission.
    assert_eq!(
        *report.consumer.owned_windows.last().expect("nonempty"),
        cfg.total_steps as u64,
        "the newest window is never dropped at end of stream"
    );
}

#[test]
fn drop_steps_bounds_stall_under_tight_queue() {
    // max_queue 1 admits at most one in-flight window, so the producer's
    // stall per window is bounded by one consumer service cycle; the
    // stall telemetry must stay a strict subset of emit wall time and
    // the accounting identity must hold exactly.
    let mut cfg = slow_consumer_cfg();
    cfg.policy = ConsumerPolicy::drop_steps(1);
    let report = run_workflow(&cfg);
    assert_accounting(&report);
    assert!(
        report.producer.stall_seconds > 0.0,
        "a slow consumer must still register real back-pressure"
    );
    assert!(report.producer.stall_seconds <= report.producer.emit_seconds);
}

#[test]
fn drop_steps_reduces_producer_stall_vs_blocking() {
    let blocking_cfg = slow_consumer_cfg();
    let blocking = run_workflow(&blocking_cfg);

    let mut drop_cfg = slow_consumer_cfg();
    drop_cfg.policy = ConsumerPolicy::drop_steps(blocking_cfg.queue_limit);
    let dropping = run_workflow(&drop_cfg);

    assert_accounting(&blocking);
    assert_accounting(&dropping);
    assert_eq!(blocking.consumer.dropped_windows, 0, "blocking never drops");
    assert!(
        dropping.consumer.dropped_windows > 0,
        "a consumer 8× slower than the producer must skip windows"
    );
    // The policy's whole point: same physics, same queue depth, less
    // simulation time lost to back-pressure.
    assert!(
        dropping.producer.stall_seconds < blocking.producer.stall_seconds,
        "DropSteps must reduce producer stall: {} vs {} s",
        dropping.producer.stall_seconds,
        blocking.producer.stall_seconds
    );
    assert!(
        dropping.producer.stall_fraction() < blocking.producer.stall_fraction(),
        "DropSteps must reduce the stall fraction: {} vs {}",
        dropping.producer.stall_fraction(),
        blocking.producer.stall_fraction()
    );
}

#[test]
fn min_queue_threshold_disables_drops_when_backlog_is_shallow() {
    // A threshold deeper than the queue can ever get means the skip
    // condition never fires: the DropSteps consumer degenerates to
    // in-order consumption — every window trained, nothing dropped —
    // while keeping the DropSteps queue-depth semantics.
    let mut cfg = slow_consumer_cfg();
    cfg.policy = ConsumerPolicy::DropSteps {
        max_queue: 2,
        min_queue: 1000,
    };
    let report = run_workflow(&cfg);
    assert_eq!(report.producer.windows, 8);
    assert_accounting(&report);
    assert_eq!(
        report.consumer.dropped_windows, 0,
        "an unreachable min_queue must suppress all drops"
    );
    assert_eq!(report.consumer.windows, 8, "every window consumed in order");
    assert_eq!(
        report.consumer.owned_windows,
        (1..=8).map(|w| w * 2).collect::<Vec<u64>>(),
        "in-order consumption of every emission"
    );

    // The default threshold (0 = always jump) drops under the same
    // pressure — the gate, not the workload, is what changed.
    let mut always = slow_consumer_cfg();
    always.policy = ConsumerPolicy::drop_steps(2);
    let dropping = run_workflow(&always);
    assert_accounting(&dropping);
    assert!(
        dropping.consumer.dropped_windows > 0,
        "min_queue 0 must keep the classic drop-to-freshest behaviour"
    );
}

#[test]
fn min_queue_gate_works_under_ddp() {
    // 2 consumers, unreachable threshold: rank 0's gate decision is
    // broadcast, so both ranks consume every window in order and the
    // group stays synced.
    let mut cfg = WorkflowConfig::small();
    cfg.total_steps = 16;
    cfg.steps_per_sample = 4;
    cfg.n_rep = 3;
    cfg.producers = 2;
    cfg.consumers = 2;
    cfg.policy = ConsumerPolicy::DropSteps {
        max_queue: 2,
        min_queue: 1000,
    };
    let report = run_workflow(&cfg);
    assert_eq!(report.producer.windows, 4);
    assert_accounting(&report);
    for s in &report.consumer_summaries {
        assert_eq!(s.dropped_windows, 0, "rank {} must not drop", s.rank);
        assert_eq!(s.windows, 4);
    }
    assert_eq!(report.consumed_windows(), vec![4, 8, 12, 16]);
    let h0 = report.consumer_summaries[0].param_hash;
    assert!(report.consumer_summaries.iter().all(|s| s.param_hash == h0));
}

#[test]
fn drop_steps_2x2_stays_synced_and_accounts() {
    let mut cfg = WorkflowConfig::small();
    cfg.total_steps = 16;
    cfg.steps_per_sample = 4;
    cfg.n_rep = 3;
    cfg.producers = 2;
    cfg.consumers = 2;
    cfg.policy = ConsumerPolicy::drop_steps(2);
    cfg.sample_broadcast = true;
    let report = run_workflow(&cfg);
    assert_eq!(report.producer.windows, 4);
    assert_accounting(&report);
    // Rank 0 decides which windows to take, so every rank processes and
    // drops the same set — the collective schedule never diverges.
    let w0 = report.consumer_summaries[0].windows;
    let d0 = report.consumer_summaries[0].dropped_windows;
    for s in &report.consumer_summaries {
        assert_eq!(s.windows, w0, "rank {} window count diverged", s.rank);
        assert_eq!(s.dropped_windows, d0, "rank {} drop count diverged", s.rank);
    }
    // DDP invariant survives dropping: bit-identical parameters.
    let h0 = report.consumer_summaries[0].param_hash;
    assert!(report.consumer_summaries.iter().all(|s| s.param_hash == h0));
    // Processed windows partition across ranks exactly once.
    let consumed = report.consumed_windows();
    let mut dedup = consumed.clone();
    dedup.dedup();
    assert_eq!(consumed, dedup, "no window trained twice");
    assert_eq!(consumed.len() as u64, w0);
}

#[test]
fn overlapped_grad_sync_is_bit_identical_to_blocking() {
    // The non-blocking comm-worker reduction must not change numerics:
    // same bucket schedule, same all-reduce sequence ⇒ identical
    // per-iteration parameter hashes and losses. Blocking policy keeps
    // the training schedule timing-independent so the comparison is
    // exact.
    let mut cfg = WorkflowConfig::small();
    cfg.total_steps = 16;
    cfg.steps_per_sample = 4;
    cfg.n_rep = 3;
    cfg.producers = 2;
    cfg.consumers = 2;

    cfg.overlap_grad_sync = false;
    let blocking = run_workflow(&cfg);
    cfg.overlap_grad_sync = true;
    let overlapped = run_workflow(&cfg);

    assert!(!blocking.consumer.param_hashes.is_empty());
    assert_eq!(
        blocking.consumer.param_hashes, overlapped.consumer.param_hashes,
        "overlapped DDP must track the blocking path bit for bit"
    );
    let lb: Vec<u64> = blocking
        .consumer
        .losses
        .iter()
        .map(|l| l.total.to_bits())
        .collect();
    let lo: Vec<u64> = overlapped
        .consumer
        .losses
        .iter()
        .map(|l| l.total.to_bits())
        .collect();
    assert_eq!(lb, lo, "loss sequences must match bitwise");
    let h0 = overlapped.consumer_summaries[0].param_hash;
    assert!(
        overlapped
            .consumer_summaries
            .iter()
            .all(|s| s.param_hash == h0),
        "overlapped ranks stay synchronized"
    );
}

#[test]
fn overlapped_grad_sync_survives_drop_steps() {
    // Overlap + DropSteps: the drop schedule is timing-dependent, but
    // the per-iteration cross-rank hash assertion inside the consumer
    // must keep holding and the accounting identity must close.
    let mut cfg = WorkflowConfig::small();
    cfg.total_steps = 16;
    cfg.steps_per_sample = 2;
    cfg.n_rep = 6;
    cfg.producers = 2;
    cfg.consumers = 2;
    cfg.policy = ConsumerPolicy::drop_steps(2);
    cfg.sample_broadcast = true;
    cfg.overlap_grad_sync = true;
    let report = run_workflow(&cfg);
    assert_accounting(&report);
    let h0 = report.consumer_summaries[0].param_hash;
    assert!(report.consumer_summaries.iter().all(|s| s.param_hash == h0));
    assert!(!report.consumer.losses.is_empty());
    assert!(report.consumer.losses.iter().all(|l| l.total.is_finite()));
}

#[test]
fn sample_broadcast_feeds_every_rank_from_one_encode() {
    let mut cfg = WorkflowConfig::small();
    cfg.total_steps = 16;
    cfg.steps_per_sample = 4;
    cfg.n_rep = 3;
    cfg.consumers = 2;
    cfg.sample_broadcast = true;
    let report = run_workflow(&cfg);
    assert_eq!(report.producer.windows, 4);
    assert_accounting(&report);
    // Ownership still partitions the stream (each window encoded once)…
    let consumed = report.consumed_windows();
    assert_eq!(consumed.len() as u64, report.producer.windows);
    // …but every rank's buffer received every window's samples.
    let s0 = report.consumer_summaries[0].samples;
    assert!(s0 > 0);
    for s in &report.consumer_summaries {
        assert_eq!(
            s.samples, s0,
            "rank {}: broadcast must equalise sample counts",
            s.rank
        );
        assert_eq!(s.windows, report.producer.windows);
    }
    // The non-owning ranks never fetched the broadcast windows' particle
    // payload: their stream traffic is below the owner-fetch total of a
    // rank that owns only half the windows yet holds all samples.
    let h0 = report.consumer_summaries[0].param_hash;
    assert!(report.consumer_summaries.iter().all(|s| s.param_hash == h0));
}

/// The driver matrix: one consumer loop serves every combination of
/// group size, pacing policy, fault plan and serving sink, so every cell
/// must close the accounting identity, keep the ranks bit-synchronized
/// and publish strictly monotone snapshot versions. Under the blocking
/// policy the training schedule is timing-independent, so a fault plan
/// that destroys nothing (event-free, or a restart landing exactly on a
/// checkpoint) must reproduce the inert plan's parameters bit for bit.
#[test]
fn driver_matrix_accounts_syncs_and_publishes_in_every_cell() {
    use artificial_scientist::core::config::ServingConfig;
    use artificial_scientist::core::faults::{FaultEvent, FaultPlan, KillMode};
    use artificial_scientist::core::snapshot::{ModelSnapshot, SnapshotSink};
    use artificial_scientist::core::workflow::run_workflow_with_sink;
    use std::sync::{Arc, Mutex};

    #[derive(Default)]
    struct RecordingSink(Mutex<Vec<u64>>);
    impl SnapshotSink for RecordingSink {
        fn publish(&self, snapshot: ModelSnapshot) {
            self.0.lock().unwrap().push(snapshot.version);
        }
    }

    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Plan {
        Inert,
        EventFree,
        BoundaryRestart,
    }

    for k in [1usize, 2] {
        for policy in [
            ConsumerPolicy::BlockingEveryStep,
            ConsumerPolicy::drop_steps(2),
        ] {
            // The parameters every loss-free blocking cell must reproduce.
            let mut blocking_hash: Option<u64> = None;
            for plan in [Plan::Inert, Plan::EventFree, Plan::BoundaryRestart] {
                for with_sink in [false, true] {
                    let cell = format!("K={k} {} {plan:?} sink={with_sink}", policy.label());
                    let mut cfg = WorkflowConfig::small();
                    cfg.total_steps = 8;
                    cfg.steps_per_sample = 2; // 4 windows
                    cfg.n_rep = 2;
                    cfg.consumers = k;
                    cfg.policy = policy;
                    cfg.faults = match plan {
                        Plan::Inert => FaultPlan::default(),
                        Plan::EventFree => FaultPlan {
                            checkpoint_every: 2,
                            ..FaultPlan::default()
                        },
                        Plan::BoundaryRestart => FaultPlan {
                            checkpoint_every: 2,
                            events: vec![FaultEvent::ConsumerKill {
                                rank: k - 1,
                                at_window: 2,
                                mode: KillMode::Restart,
                            }],
                            ..FaultPlan::default()
                        },
                    };
                    let sink = with_sink.then(|| {
                        cfg.serving = Some(ServingConfig {
                            publish_every: 2,
                            ..ServingConfig::default()
                        });
                        Arc::new(RecordingSink::default())
                    });
                    let report = run_workflow_with_sink(
                        &cfg,
                        sink.clone().map(|s| s as Arc<dyn SnapshotSink>),
                    );

                    assert!(report.failures.is_empty(), "{cell}: no rank may die");
                    assert_eq!(report.consumer_summaries.len(), k, "{cell}");
                    assert_eq!(report.producer.windows, 4, "{cell}");
                    for s in &report.consumer_summaries {
                        assert_eq!(
                            s.windows + s.dropped_windows + s.orphaned_windows + s.lost_windows,
                            s.published_windows,
                            "{cell}: rank {} accounting",
                            s.rank
                        );
                        assert_eq!(s.published_windows, 4, "{cell}: rank {}", s.rank);
                        assert_eq!(
                            s.param_hash, report.consumer.param_hash,
                            "{cell}: rank {} diverged",
                            s.rank
                        );
                    }
                    if let Some(sink) = &sink {
                        let versions = sink.0.lock().unwrap();
                        assert!(!versions.is_empty(), "{cell}: nothing published");
                        assert!(
                            versions.windows(2).all(|w| w[0] < w[1]),
                            "{cell}: versions must be strictly monotone: {versions:?}"
                        );
                    }
                    if policy == ConsumerPolicy::BlockingEveryStep {
                        if plan == Plan::BoundaryRestart {
                            assert_eq!(
                                report.consumer_summaries[k - 1].restarts,
                                1,
                                "{cell}: the scheduled kill must fire"
                            );
                        }
                        let reference = *blocking_hash.get_or_insert(report.consumer.param_hash);
                        assert_eq!(
                            report.consumer.param_hash, reference,
                            "{cell}: a loss-free plan must not change the trajectory"
                        );
                    }
                }
            }
        }
    }
}
