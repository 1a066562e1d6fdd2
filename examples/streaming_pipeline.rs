//! The §IV-B streaming benchmark in miniature: a PIC producer feeds the
//! no-op consumer through the SST staging engine under different data
//! planes and queue limits, demonstrating loose coupling, back-pressure
//! and the "no filesystem anywhere" property — then the two consumer
//! streaming policies (blocking vs DropSteps) on the full coupled loop.
//!
//! Run with: `cargo run --release --example streaming_pipeline`

use artificial_scientist::cluster::collective::SoloComm;
use artificial_scientist::core::config::{ConsumerPolicy, WorkflowConfig};
use artificial_scientist::core::noop::run_noop_consumer;
use artificial_scientist::core::producer::run_producer;
use artificial_scientist::core::workflow::run_workflow;
use artificial_scientist::staging::dataplane::{DataPlane, ReadStrategy};
use artificial_scientist::staging::engine::{open_stream, StreamConfig};

fn main() {
    println!("=== producer → SST → no-op consumer (loose coupling) ===");
    for (plane, queue_limit) in [
        (DataPlane::Mpi, 2),
        (DataPlane::Libfabric(ReadStrategy::Batched(10)), 2),
        (DataPlane::Mpi, 1), // tight queue → visible back-pressure
    ] {
        let mut cfg = WorkflowConfig::small();
        cfg.total_steps = 16;
        cfg.steps_per_sample = 2;
        cfg.data_plane = plane;
        cfg.queue_limit = queue_limit;

        let stream_cfg = StreamConfig {
            queue_limit,
            plane,
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
        let particles = run_noop_consumer(pr.remove(0));
        let _ = rad.join().unwrap();
        let prod = producer.join().unwrap();

        println!(
            "plane {:<24} queue {queue_limit}: {} windows, {:6.2} MB, \
             in-process {:7.1} MB/s, modelled-wire {:6.2} GB/s, stall {:.3}s",
            plane.label(),
            particles.steps,
            particles.bytes as f64 / 1e6,
            particles.mean_throughput() / 1e6,
            particles.simulated_throughput() / 1e9,
            prod.stall_seconds,
        );
    }
    println!();
    println!("=== consumer streaming policies (full coupled loop) ===");
    for policy in [
        ConsumerPolicy::BlockingEveryStep,
        ConsumerPolicy::drop_steps(2),
    ] {
        let mut cfg = WorkflowConfig::small();
        cfg.total_steps = 16;
        cfg.steps_per_sample = 2;
        cfg.n_rep = 6; // deliberately consumer-bound
        cfg.policy = policy;
        let report = run_workflow(&cfg);
        let c = &report.consumer;
        println!(
            "policy {:<10}: trained on {}/{} windows (dropped {}), \
             producer stall {:4.1} %, {:4.1} windows/s",
            policy.label(),
            c.windows,
            c.published_windows,
            c.dropped_windows,
            report.producer.stall_fraction() * 100.0,
            report.windows_per_second(),
        );
    }
    println!();
    println!("note: every byte moved producer→consumer stayed in memory;");
    println!("      the filesystem was never touched (the paper's design goal).");
}
