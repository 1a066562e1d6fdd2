//! Cross-crate integration: the complete in-transit workflow.

use artificial_scientist::cluster::collective::SoloComm;
use artificial_scientist::core::config::{Placement, WorkflowConfig};
use artificial_scientist::core::noop::run_noop_consumer;
use artificial_scientist::core::producer::run_producer;
use artificial_scientist::core::workflow::run_workflow;
use artificial_scientist::staging::dataplane::{DataPlane, ReadStrategy};
use artificial_scientist::staging::engine::{open_stream, StreamConfig};

fn fast_cfg() -> WorkflowConfig {
    let mut cfg = WorkflowConfig::small();
    cfg.total_steps = 16;
    cfg.steps_per_sample = 4;
    cfg.n_rep = 3;
    cfg
}

#[test]
fn pipeline_runs_and_produces_finite_losses() {
    let report = run_workflow(&fast_cfg());
    assert_eq!(report.producer.steps, 16);
    assert_eq!(report.consumer.windows, 4);
    assert!(report.consumer.samples >= 8);
    assert!(!report.consumer.losses.is_empty());
    assert!(report
        .consumer
        .losses
        .iter()
        .all(|l| { l.total.is_finite() && l.cd.is_finite() && l.mmd_z.is_finite() }));
    assert!(report.producer.bytes > 0, "producer telemetry must be real");
}

/// The tentpole topology check: a 2×2 sharded run against the 1×1
/// reference with the same seed — same window schedule, every window
/// consumed exactly once across consumer ranks, learner ranks
/// bit-identical, and the loss still trending down.
#[test]
fn sharded_2x2_matches_1x1_window_schedule_and_learns() {
    let mut base = fast_cfg();
    base.total_steps = 24;
    base.steps_per_sample = 4;
    base.n_rep = 4;
    let single = run_workflow(&base);

    let mut multi = base.clone();
    multi.producers = 2;
    multi.consumers = 2;
    let report = run_workflow(&multi);

    // Same emission schedule as the reference topology.
    assert_eq!(report.producer.steps, single.producer.steps);
    assert_eq!(report.producer.windows, single.producer.windows);
    assert_eq!(
        report.consumed_windows(),
        single.consumed_windows(),
        "2×2 must consume exactly the windows the 1×1 run consumes"
    );

    // Exactly-once: ownership partitions the stream with no duplicates.
    let consumed = report.consumed_windows();
    let mut dedup = consumed.clone();
    dedup.dedup();
    assert_eq!(consumed, dedup, "no window may be consumed twice");
    assert_eq!(consumed.len() as u64, report.producer.windows);
    for s in &report.consumer_summaries {
        assert_eq!(
            s.windows, report.producer.windows,
            "every rank sees every window"
        );
        assert!(!s.owned_windows.is_empty(), "no idle learner rank");
        assert_eq!(s.orphaned_windows, 0);
    }

    // DDP invariant: both learner ranks end with bit-identical weights.
    let h0 = report.consumer_summaries[0].param_hash;
    for s in &report.consumer_summaries {
        assert_eq!(s.param_hash, h0, "rank {} diverged", s.rank);
    }

    // Both producer shards streamed real payload.
    assert_eq!(report.producers.len(), 2);
    for p in &report.producers {
        assert!(p.bytes > 0);
    }

    // The sharded learner still learns: tail loss below the head mean.
    let losses = &report.consumer.losses;
    assert!(losses.len() >= 8, "enough iterations to compare");
    let head: f64 = losses[..4].iter().map(|l| l.total).sum::<f64>() / 4.0;
    let tail = report.tail_loss(4);
    assert!(
        tail < head,
        "2×2 in-transit training should reduce the loss: {head} → {tail}"
    );
}

#[test]
fn workflow_is_reproducible_for_fixed_seed() {
    let cfg = fast_cfg();
    let a = run_workflow(&cfg);
    let b = run_workflow(&cfg);
    assert_eq!(a.consumer.losses.len(), b.consumer.losses.len());
    for (x, y) in a.consumer.losses.iter().zip(&b.consumer.losses) {
        assert_eq!(x.total, y.total, "seeded run must be deterministic");
    }
}

#[test]
fn different_seeds_give_different_trajectories() {
    let mut cfg = fast_cfg();
    let a = run_workflow(&cfg);
    cfg.seed = 999;
    let b = run_workflow(&cfg);
    let same = a
        .consumer
        .losses
        .iter()
        .zip(&b.consumer.losses)
        .all(|(x, y)| x.total == y.total);
    assert!(!same, "different seeds should differ");
}

#[test]
fn noop_consumer_measures_the_producer_stream() {
    let cfg = fast_cfg();
    let stream_cfg = StreamConfig {
        queue_limit: cfg.queue_limit,
        plane: cfg.data_plane,
        ..StreamConfig::default()
    };
    let (mut pw, mut pr) = open_stream(stream_cfg);
    let (mut rw, mut rr) = open_stream(stream_cfg);
    let (pw, rw) = (pw.remove(0), rw.remove(0));
    let cfg2 = cfg.clone();
    let producer = std::thread::spawn(move || run_producer(&cfg2, SoloComm, pw, rw));
    let rad = {
        let rr = rr.remove(0);
        std::thread::spawn(move || run_noop_consumer(rr))
    };
    let report = run_noop_consumer(pr.remove(0));
    rad.join().unwrap();
    let prod = producer.join().unwrap();
    assert_eq!(report.steps as u64, prod.windows);
    // Particle stream: 7 arrays (x,y,z,ux,uy,uz,w) × N particles × 8 B.
    let particles = (cfg.grid.cells() * cfg.khi.ppc) as u64;
    assert_eq!(report.bytes, prod.windows * particles * 7 * 8);
    assert!(report.mean_throughput() > 0.0);
}

#[test]
fn data_plane_and_placement_are_configurable() {
    for plane in [
        DataPlane::Tcp,
        DataPlane::Mpi,
        DataPlane::Libfabric(ReadStrategy::Batched(10)),
    ] {
        let [intra, inter] = [Placement::IntraNode, Placement::InterNode].map(|placement| {
            let mut cfg = fast_cfg();
            cfg.total_steps = 8;
            cfg.steps_per_sample = 4;
            cfg.n_rep = 1;
            cfg.data_plane = plane;
            cfg.placement = placement;
            let report = run_workflow(&cfg);
            assert_eq!(report.consumer.windows, 2, "plane {plane:?}, {placement:?}");
            report.staging_model_seconds()
        });
        // Sharing a node, the 1×1 stream's fetches take the device link;
        // on disjoint nodes they cross the fabric.
        assert!(
            intra < inter,
            "plane {plane:?}: intra-node {intra} s, inter-node {inter} s"
        );
    }
}

#[test]
fn longer_training_improves_over_short_training() {
    let mut short = fast_cfg();
    short.total_steps = 8;
    short.n_rep = 1;
    let mut long = fast_cfg();
    long.total_steps = 40;
    long.n_rep = 8;
    let a = run_workflow(&short);
    let b = run_workflow(&long);
    assert!(
        b.tail_loss(4) < a.tail_loss(2),
        "more in-transit training should reach a lower loss: {} vs {}",
        b.tail_loss(4),
        a.tail_loss(2)
    );
}
