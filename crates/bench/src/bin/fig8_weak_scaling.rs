//! Fig. 8 — weak scaling of the in-transit training, 8 → 96 nodes
//! (32 → 384 GCDs).
//!
//! Part 1 measures *real* DDP training on this machine: model replicas on
//! threads, ring all-reduce gradient averaging, single-batch times
//! averaged after >4σ outlier removal (the paper's procedure).
//!
//! Part 2 evaluates the calibrated batch-time model at the paper's node
//! counts: efficiency 100 % → ≈35 %, with the all-reduce contributing
//! ≈30 % deficit and the naive distributed MMD the rest.
//!
//! Part 3 *executes* the collective schedules at 16/32/64 modelled
//! ranks on record-only netsim worlds, comparing the linear baselines to
//! the log-depth algorithms (binomial tree, Bruck, size-selected
//! allreduce): the latency-bound control collectives drop from O(K) to
//! O(log K) fabric seconds.
//!
//! Pass `--smoke` for the CI-sized run (2 DDP replicas max, 16 modelled
//! ranks only).

#![forbid(unsafe_code)]

use as_bench::{
    collective_microbench, fig8_batch_time, fig8_efficiency_series, PAPER_BATCH_COMPUTE,
    PAPER_GRAD_BYTES,
};
use as_cluster::algos::CollectiveAlgo;
use as_cluster::comm::CommWorld;
use as_cluster::machine::FRONTIER;
use as_nn::ddp::{train_ddp, DdpConfig};
use as_nn::model::ModelConfig;
use as_nn::optim::AdamConfig;
use as_tensor::stats::mean_without_outliers;
use as_tensor::{Tensor, TensorRng};

fn make_batches(n: usize, b: usize, points: usize, sdim: usize) -> Vec<(Tensor, Tensor)> {
    let mut rng = TensorRng::seeded(123);
    (0..n)
        .map(|_| {
            (
                rng.uniform([b, points, 6], -1.0, 1.0),
                rng.uniform([b, sdim], -1.0, 1.0),
            )
        })
        .collect()
}

fn measured_ddp(smoke: bool) {
    println!("-- measured: real DDP replicas on threads (batch 8 per replica) --");
    println!(
        "{:>9} {:>14} {:>12}",
        "replicas", "batch [ms]", "efficiency"
    );
    let cfg = ModelConfig::small();
    let mut base = 0.0;
    let replica_counts: &[usize] = if smoke { &[1, 2] } else { &[1, 2, 4] };
    for &replicas in replica_counts {
        let batches = make_batches(6, 8 * replicas, 64, cfg.spectrum_dim);
        let out = train_ddp(
            &cfg,
            &DdpConfig {
                replicas,
                seed: 5,
                adam: AdamConfig::default(),
                m_vae: 1.0,
            },
            &batches,
            CommWorld::new(replicas).into_endpoints(),
        );
        // Skip the first (warm-up) iteration; remove >4σ outliers.
        let times: Vec<f64> = out.iteration_seconds[1..].to_vec();
        let t = mean_without_outliers(&times, 4.0);
        if replicas == 1 {
            base = t;
        }
        println!(
            "{:>9} {:>14.2} {:>11.1}%",
            replicas,
            t * 1e3,
            100.0 * base / t
        );
    }
}

fn modelled_scaling() {
    println!();
    println!("-- modelled: Fig. 8 series (Frontier, 4 training GCDs/node) --");
    println!(
        "{:>7} {:>7} {:>13} {:>12}",
        "nodes", "GCDs", "batch [ms]", "efficiency"
    );
    for (nodes, eff) in fig8_efficiency_series(PAPER_BATCH_COMPUTE, PAPER_GRAD_BYTES) {
        let t = fig8_batch_time(&FRONTIER, nodes, PAPER_BATCH_COMPUTE, PAPER_GRAD_BYTES);
        println!(
            "{:>7} {:>7} {:>13.2} {:>11.1}%",
            nodes,
            nodes * 4,
            t * 1e3,
            eff * 100.0
        );
    }
    println!();
    println!("  paper: efficiency ≈35% at 96 nodes; ~30% deficit from the DDP");
    println!("  all-reduce, the rest from the replicated MMD computation whose");
    println!("  all_gather_into_tensor breaks the torch graph (host sync).");
    println!("  total batch sizes: 256 → 3072 (8 per GCD), sqrt-scaled lr.");
}

fn executed_collective_scaleout(smoke: bool) {
    println!();
    println!("-- executed: collective schedules on record-only netsim worlds --");
    println!(
        "{:>7} {:>18} {:>14} {:>14} {:>8}",
        "ranks", "op", "linear [µs]", "log [µs]", "ratio"
    );
    let rank_counts: &[usize] = if smoke { &[16] } else { &[16, 32, 64] };
    for &ranks in rank_counts {
        let lin = collective_microbench(&FRONTIER, CollectiveAlgo::Linear, ranks);
        let log = collective_microbench(&FRONTIER, CollectiveAlgo::Log, ranks);
        for (l, g) in lin.iter().zip(&log) {
            println!(
                "{:>7} {:>18} {:>14.2} {:>14.2} {:>7.1}x",
                ranks,
                l.op,
                l.modelled_seconds * 1e6,
                g.modelled_seconds * 1e6,
                l.modelled_seconds / g.modelled_seconds
            );
        }
    }
    println!();
    println!("  the control collectives (broadcast, small allreduce) are");
    println!("  latency-bound: O(K) serialized sends under the linear fan-out,");
    println!("  O(log K) under the binomial-tree/Bruck schedules. The 64 KiB");
    println!("  gradient bucket stays on the bandwidth-optimal ring either way.");
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    println!("=== Fig. 8: in-transit training weak scaling ===");
    measured_ddp(smoke);
    modelled_scaling();
    executed_collective_scaleout(smoke);
}
