//! In-text quantitative claims of the paper, regenerated.
//!
//! - **E5** (footnote 1): EMD loss costs ≈4× a CD batch;
//! - **E6** (§V-A): replay factors n_rep up to 96 explored, learning
//!   success up to ≈48;
//! - **E7** (§IV-D): the N/RCCL socket bootstrap fails beyond ~100 nodes;
//! - **E8** (§IV-B): single-reader throughput (1.9–4.7 GB/s) vs the
//!   25 GB/s NIC ⇒ parallelising the reader buys headroom.

#![forbid(unsafe_code)]

use as_cluster::sockets::SocketBudget;
use as_core::config::WorkflowConfig;
use as_core::workflow::run_workflow;
use as_nn::loss::{chamfer, sinkhorn_emd};
use as_staging::dataplane::{frontier_nic, DataPlane, ReadStrategy};
use as_tensor::TensorRng;
use std::time::Instant;

fn emd_vs_cd() {
    println!("-- E5: CD vs Sinkhorn-EMD batch cost (paper footnote 1: ≈4×) --");
    let mut rng = TensorRng::seeded(9);
    let pred = rng.uniform([8, 256, 6], -1.0, 1.0);
    let target = rng.uniform([8, 256, 6], -1.0, 1.0);
    // Warm up once.
    let _ = chamfer(&pred, &target);
    let t0 = Instant::now();
    let reps = 10;
    for _ in 0..reps {
        let _ = chamfer(&pred, &target);
    }
    let t_cd = t0.elapsed().as_secs_f64() / reps as f64;
    let t0 = Instant::now();
    for _ in 0..reps {
        let _ = sinkhorn_emd(&pred, &target, 0.05, 15);
    }
    let t_emd = t0.elapsed().as_secs_f64() / reps as f64;
    println!(
        "  CD {:.2} ms   EMD {:.2} ms   ratio {:.1}× (paper: ≈4×)",
        t_cd * 1e3,
        t_emd * 1e3,
        t_emd / t_cd
    );
}

fn nrep_sweep() {
    println!();
    println!("-- E6: replay factor n_rep sweep (paper: success up to ≈48) --");
    println!("{:>7} {:>12} {:>12}", "n_rep", "iterations", "tail loss");
    for n_rep in [1u32, 4, 16, 48] {
        let mut cfg = WorkflowConfig::small();
        cfg.total_steps = 32;
        cfg.steps_per_sample = 4;
        cfg.n_rep = n_rep;
        cfg.seed = 7;
        let report = run_workflow(&cfg);
        println!(
            "{:>7} {:>12} {:>12.4}",
            n_rep,
            report.consumer.losses.len(),
            report.tail_loss(8)
        );
    }
    println!("  (more replay iterations per streamed step → more optimiser");
    println!("   exploration per sample; the paper found gains up to ≈48)");
}

fn socket_limit() {
    println!();
    println!("-- E7: N/RCCL socket-bootstrap limit (paper: fails beyond ~100 nodes) --");
    let budget = SocketBudget::frontier_nccl_default();
    println!("{:>8} {:>16} {:>10}", "nodes", "sockets/node", "bootstrap");
    for nodes in [8usize, 50, 96, 100, 104, 128, 384] {
        let needed = budget.sockets_needed(nodes);
        let ok = budget.try_bootstrap(nodes).is_ok();
        println!(
            "{:>8} {:>16} {:>10}",
            nodes,
            needed,
            if ok { "ok" } else { "FAILS" }
        );
    }
    println!("  max bootstrappable: {} nodes", budget.max_nodes());
}

fn reader_headroom() {
    println!();
    println!("-- E8: single-reader bottleneck vs 25 GB/s NIC (paper §IV-B) --");
    let gb = 5.86e9;
    println!("{:>26} {:>10} {:>14}", "plane", "readers", "GB/s/node");
    for plane in [
        DataPlane::Libfabric(ReadStrategy::EnqueueAll),
        DataPlane::Libfabric(ReadStrategy::Batched(10)),
        DataPlane::Mpi,
    ] {
        for readers in [1usize, 2, 4] {
            // Independent reader processes split the volume, each pulling
            // its 64/readers blocks over its own NIC flow; the NIC caps
            // the sum.
            let ops = 64 / readers;
            let block = (gb / 64.0) as u64;
            let t = plane.fetch_seconds(&frontier_nic(), ops, (0..ops).map(|w| (w, block)));
            let node_rate = (gb / t).min(25.0e9);
            println!(
                "{:>26} {:>10} {:>14.2}",
                plane.label(),
                readers,
                node_rate / 1e9
            );
        }
    }
    println!("  paper: per-node 1.9-4.7 GB/s across all cases with ONE reader");
    println!("  per node vs 25 GB/s NIC — \"further speedup can be achieved by");
    println!("  parallelizing the reader\".");
}

fn main() {
    println!("=== In-text metrics ===");
    emd_vs_cd();
    socket_limit();
    reader_headroom();
    nrep_sweep();
}
