//! Shared harness logic for the per-figure benchmark binaries.
//!
//! Every figure and in-text quantitative claim of the paper has a binary
//! in `src/bin/` that prints the corresponding rows/series (README.md,
//! *Benchmarks and `BENCH_*.json`*):
//!
//! | binary             | artefact  |
//! |--------------------|-----------|
//! | `fig4_fom`         | Fig. 4 — PIConGPU FOM weak scaling (Frontier vs Summit) |
//! | `fig6_streaming`   | Fig. 6 — full-scale streaming throughput by data plane |
//! | `fig8_weak_scaling`| Fig. 8 — in-transit training weak scaling 8→96 nodes |
//! | `fig9_inversion`   | Fig. 9 — spectra + momentum inversion quality |
//! | `fig_collectives`  | linear vs log-depth collective schedules, 4→64 modelled ranks (`BENCH_collectives.json`) |
//! | `fig_faults`       | fault-injection matrix: recovery cost and lost windows per fault kind (`BENCH_faults.json`) |
//! | `text_metrics`     | in-text numbers: EMD/CD ≈ 4×, n_rep sweep, socket limit, NIC headroom |
//!
//! The models here combine *measured* small-scale runs (real code paths on
//! this machine) with the `as-cluster` netsim pricing at paper scale.

#![forbid(unsafe_code)]

use as_cluster::algos::CollectiveAlgo;
use as_cluster::collective::{ChannelComm, Collective, NetModel, SimNetComm};
use as_cluster::machine::{MachineSpec, FRONTIER};
use as_staging::dataplane::{frontier_nic, DataPlane};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Fig. 6 model: Monte-Carlo per-node throughput samples for one data
/// plane at one node count. Returns per-node rates in bytes/second.
///
/// Per-measurement noise (fabric congestion, placement) is modelled as a
/// ±15 % multiplicative spread, matching the paper's boxplot widths.
pub fn fig6_per_node_samples(
    plane: DataPlane,
    nodes: usize,
    bytes_per_node: f64,
    trials: usize,
    seed: u64,
) -> Option<Vec<f64>> {
    if !plane.scales_to(nodes) {
        return None;
    }
    let mut rng = StdRng::seed_from_u64(seed ^ nodes as u64);
    // One reader per node pulls its volume in 64 remote blocks, each one
    // hop from a writer on another node over one Frontier NIC.
    let ops = 64;
    let block = (bytes_per_node / ops as f64) as u64;
    let blocks = (0..ops).map(|w| (w, block));
    let base = bytes_per_node / plane.fetch_seconds(&frontier_nic(), ops, blocks);
    // Mild congestion droop at scale: metadata fan-in to rank 0 grows
    // with the writer count (§IV-D), shaving a few percent per 2× nodes.
    let droop = 1.0 - 0.018 * (nodes as f64 / 4096.0).log2().max(0.0);
    Some(
        (0..trials)
            .map(|_| base * droop * rng.gen_range(0.85..1.15))
            .collect(),
    )
}

/// The fabric Fig. 8 prices its collectives on: every hop pays the
/// machine's network latency plus its bytes over one GCD's share of the
/// node's NICs (4 training GCDs per node), capped by the intra-node link.
fn fig8_fabric(spec: &MachineSpec) -> NetModel {
    let nic_share = spec.nic_bandwidth * spec.nics_per_node as f64 / 4.0;
    NetModel::uniform(
        spec.net_latency,
        nic_share.min(spec.intra_node_bandwidth),
        0.0,
    )
}

/// Seconds of the DDP gradient all-reduce of `grad_bytes` of fp32 over
/// `gcds` ranks: the critical path of the ring schedule the workflow
/// executes.
fn fig8_allreduce_seconds(spec: &MachineSpec, gcds: usize, grad_bytes: f64) -> f64 {
    let elems = (grad_bytes / 4.0).round() as usize;
    fig8_fabric(spec).allreduce_seconds(CollectiveAlgo::Log, gcds, elems, 4)
}

/// Host-synchronisation penalty for operations that break the device graph.
///
/// §V-A: the naive distributed MMD implementation calls
/// `all_gather_into_tensor`, which "breaks the torch computational graph,
/// i.e. synchronizes graph execution with host code at the invocation site".
/// We model that as a fixed host round-trip plus a small per-rank jitter term
/// (stragglers get worse with scale).
fn graph_break_penalty(ranks: usize, kernel_launch: f64, jitter_per_rank: f64) -> f64 {
    kernel_launch + jitter_per_rank * (ranks as f64).sqrt()
}

/// Fig. 8 model: seconds per training batch at `nodes` nodes with 4
/// training GCDs per node (intra-node placement).
///
/// `t_compute` is the single-GCD batch time (weak scaling keeps it
/// constant); gradients of the paper model are ≈17 MB fp32. Two overheads
/// reduce efficiency, as §V-A attributes: the DDP ring all-reduce (~30 %
/// deficit) and the naive distributed MMD (all-gather + graph break,
/// work replicated across ranks). Both collectives are priced from the
/// `as_cluster::algos` schedules the workflow executes.
pub fn fig8_batch_time(spec: &MachineSpec, nodes: usize, t_compute: f64, grad_bytes: f64) -> f64 {
    let gcds = nodes * 4;
    let ar = fig8_allreduce_seconds(spec, gcds, grad_bytes);
    // MMD terms: latent matrices (batch×544 fp32 per rank) are gathered to
    // every rank and the kernel matrix is recomputed everywhere; the
    // graph break serialises it with host sync.
    let latent_bytes = 8 * 544 * 4;
    let ag = fig8_fabric(spec).allgather_seconds(CollectiveAlgo::Log, gcds, latent_bytes);
    let brk = graph_break_penalty(gcds, 120e-6, 14e-6);
    // Replicated kernel-matrix work: every rank recomputes the MMD kernel
    // over the *gathered global batch* (8 samples per GCD), an
    // O((8·gcds)²) cost that torch < 2.2 offered no distributed primitive
    // for — the paper's second efficiency sink.
    let global_batch = 8.0 * gcds as f64;
    let mmd_compute = 7.0e-10 * global_batch * global_batch;
    t_compute + ar + ag + brk + mmd_compute
}

/// Fig. 8 efficiency relative to the smallest size (8 nodes), for the
/// paper's x-axis points.
pub fn fig8_efficiency_series(t_compute: f64, grad_bytes: f64) -> Vec<(usize, f64)> {
    let nodes = [8usize, 16, 24, 48, 96];
    let t8 = fig8_batch_time(&FRONTIER, 8, t_compute, grad_bytes);
    nodes
        .iter()
        .map(|&n| {
            let t = fig8_batch_time(&FRONTIER, n, t_compute, grad_bytes);
            (n, t8 / t)
        })
        .collect()
}

/// Paper-model gradient volume: ≈4.3 M parameters in fp32.
pub const PAPER_GRAD_BYTES: f64 = 4.3e6 * 4.0;

/// Single-GCD batch compute time used for the Fig. 8 model (MI250X-class,
/// batch 8; calibrated so the modelled efficiency at 96 nodes lands at
/// the paper's ≈35 %).
pub const PAPER_BATCH_COMPUTE: f64 = 3.0e-3;

/// One row of the per-algorithm collective microbench
/// (`fig_collectives`): a single collective executed on a fresh
/// record-only netsim world, with the backend's own telemetry counters
/// as the measurement.
pub struct CollectiveBenchRow {
    /// Collective name, e.g. `broadcast_1KiB`.
    pub op: &'static str,
    /// Algorithm family label (`linear` | `log`).
    pub algo: &'static str,
    /// World size.
    pub ranks: usize,
    /// Application payload per rank (what the caller handed the
    /// collective), bytes.
    pub payload_bytes: u64,
    /// Wire bytes the backend accounted (0 for the data collectives,
    /// whose byte telemetry is schedule-independent by design).
    pub wire_bytes: u64,
    /// Point-to-point messages sent world-wide.
    pub messages: u64,
    /// Modelled fabric seconds (critical path over ranks).
    pub modelled_seconds: f64,
}

/// Execute one collective on every rank of a fresh record-only netsim
/// world and return `(wire_bytes, messages, modelled_seconds)` from the
/// backend's world counters.
fn run_one_collective<F>(
    machine: &MachineSpec,
    algo: CollectiveAlgo,
    ranks: usize,
    op: F,
) -> (u64, u64, f64)
where
    F: Fn(&SimNetComm<ChannelComm>) + Send + Sync + Copy + 'static,
{
    let ranks_per_node = machine.gpus_per_node.max(1);
    let model = NetModel::from_machine(machine, ranks, ranks_per_node, 0.0);
    let eps = SimNetComm::world_with_algo(ranks, model, algo);
    let handles: Vec<_> = eps
        .into_iter()
        .map(|c| {
            crossbeam::thread::spawn(move || {
                op(&c);
                c
            })
        })
        .collect();
    let eps: Vec<_> = handles
        .into_iter()
        .map(|h| h.join().expect("bench rank panicked"))
        .collect();
    (
        eps[0].world_bytes_sent(),
        eps[0].world_messages_sent(),
        eps[0].modelled_comm_seconds(),
    )
}

/// The fixed microbench suite: the collectives the coupled workflow
/// actually issues (control broadcast, offset gather/allgather, the
/// small control allreduce and one gradient-bucket ring allreduce), each
/// run once per `(algo, ranks)` on its own world.
pub fn collective_microbench(
    machine: &MachineSpec,
    algo: CollectiveAlgo,
    ranks: usize,
) -> Vec<CollectiveBenchRow> {
    let mut rows = Vec::new();
    let mut push = |op: &'static str, payload_bytes: u64, m: (u64, u64, f64)| {
        rows.push(CollectiveBenchRow {
            op,
            algo: algo.label(),
            ranks,
            payload_bytes,
            wire_bytes: m.0,
            messages: m.1,
            modelled_seconds: m.2,
        });
    };
    push(
        "broadcast_1KiB",
        1024,
        run_one_collective(machine, algo, ranks, |c| {
            let _ = if c.rank() == 0 {
                c.broadcast(0, Some([0u8; 1024]))
            } else {
                c.broadcast::<[u8; 1024]>(0, None)
            };
        }),
    );
    push(
        "gather_1KiB",
        1024,
        run_one_collective(machine, algo, ranks, |c| {
            let _ = c.gather(0, [0u8; 1024]);
        }),
    );
    push(
        "allgather_1KiB",
        1024,
        run_one_collective(machine, algo, ranks, |c| {
            let _ = c.allgather([0u8; 1024]);
        }),
    );
    push(
        "allreduce_48B",
        48,
        run_one_collective(machine, algo, ranks, |c| {
            let mut buf = [1.0f64; 6];
            c.allreduce_sum_f64(&mut buf);
        }),
    );
    push(
        "allreduce_64KiB",
        16384 * 4,
        run_one_collective(machine, algo, ranks, |c| {
            let mut buf = vec![1.0f32; 16384];
            c.allreduce_sum_f32(&mut buf);
        }),
    );
    rows
}

/// Render a five-number summary row like the Fig. 6 boxplots.
pub fn format_box_row(label: &str, samples: &[f64], scale: f64, unit: &str) -> String {
    let s = as_tensor::stats::box_stats(samples);
    format!(
        "{label:<28} min {:7.2} {unit}  q1 {:7.2}  med {:7.2}  q3 {:7.2}  max {:7.2}",
        s.min / scale,
        s.q1 / scale,
        s.median / scale,
        s.q3 / scale,
        s.max / scale
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use as_staging::dataplane::ReadStrategy;

    #[test]
    fn fig6_model_reproduces_paper_ranges() {
        let gb = 5.86e9;
        // 4096 nodes: libfabric enqueue-all 3.5–4.7 GB/s per node.
        let s = fig6_per_node_samples(
            DataPlane::Libfabric(ReadStrategy::EnqueueAll),
            4096,
            gb,
            200,
            1,
        )
        .expect("scales at 4096");
        let mean = s.iter().sum::<f64>() / s.len() as f64 / 1e9;
        assert!((3.2..4.9).contains(&mean), "enqueue-all mean {mean}");
        // It must not produce full-scale samples.
        assert!(fig6_per_node_samples(
            DataPlane::Libfabric(ReadStrategy::EnqueueAll),
            9126,
            gb,
            10,
            1
        )
        .is_none());
        // MPI at 9126: 2.4–3.3 GB/s per node.
        let s = fig6_per_node_samples(DataPlane::Mpi, 9126, gb, 200, 2).expect("mpi scales");
        let mean = s.iter().sum::<f64>() / s.len() as f64 / 1e9;
        assert!((2.2..3.5).contains(&mean), "mpi mean {mean}");
    }

    #[test]
    fn fig6_aggregate_lands_in_20_to_30_tb_per_s() {
        // The headline: 20–30 TB/s at full scale, beating Orion's 10 TB/s.
        let s = fig6_per_node_samples(DataPlane::Mpi, 9126, 5.86e9, 200, 3).expect("scales");
        let mean_rate = s.iter().sum::<f64>() / s.len() as f64;
        let aggregate = mean_rate * 9126.0;
        assert!(
            (20e12..30e12).contains(&aggregate),
            "aggregate {aggregate:.3e}"
        );
        assert!(aggregate > as_cluster::machine::FRONTIER.pfs_bandwidth);
    }

    /// `value` equals `expected` to 1e-4 relative.
    fn assert_rel(value: f64, expected: f64, what: &str) {
        assert!(
            ((value - expected) / expected).abs() < 1e-4,
            "{what}: {value} vs {expected}"
        );
    }

    #[test]
    fn fig8_efficiency_drops_to_about_35_percent_at_96_nodes() {
        let series = fig8_efficiency_series(PAPER_BATCH_COMPUTE, PAPER_GRAD_BYTES);
        let (n0, e0) = series[0];
        assert_eq!(n0, 8);
        assert!((e0 - 1.0).abs() < 1e-12, "reference size is 100 %");
        let (n_last, e_last) = *series.last().unwrap();
        assert_eq!(n_last, 96);
        assert!(
            (0.30..0.45).contains(&e_last),
            "paper: ≈35 % at 96 nodes, modelled {e_last}"
        );
        // Monotone decreasing.
        for w in series.windows(2) {
            assert!(w[1].1 <= w[0].1 + 1e-12);
        }
        // The closed-form α-β series; pricing the ring's real chunk bounds
        // moves it by < 3e-6 relative.
        let expected = [
            (8, 1.0),
            (16, 0.932_213_319_560_119_7),
            (24, 0.861_939_765_012_468_7),
            (48, 0.653_158_999_855_975_6),
            (96, 0.358_896_444_911_060_2),
        ];
        for (&(n, e), (en, ee)) in series.iter().zip(expected) {
            assert_eq!(n, en);
            assert_rel(e, ee, &format!("efficiency at {n} nodes"));
        }
    }

    #[test]
    fn fig8_allreduce_alone_costs_about_30_percent() {
        // §V-A: the all-reduce "accounts for a deficit of ∼30 %". Model
        // check: efficiency with *only* the all-reduce term enabled.
        let t96 = PAPER_BATCH_COMPUTE + fig8_allreduce_seconds(&FRONTIER, 96 * 4, PAPER_GRAD_BYTES);
        let t8 = PAPER_BATCH_COMPUTE + fig8_allreduce_seconds(&FRONTIER, 8 * 4, PAPER_GRAD_BYTES);
        let deficit = 1.0 - t8 / t96;
        assert!(
            (0.15..0.40).contains(&deficit),
            "allreduce-only deficit {deficit}"
        );
        assert_rel(deficit, 0.245_141_348_990_162_8, "allreduce-only deficit");
    }

    #[test]
    fn graph_break_penalty_grows_with_scale() {
        let small = graph_break_penalty(8, 10e-6, 2e-6);
        let large = graph_break_penalty(384, 10e-6, 2e-6);
        assert!(large > small);
    }

    #[test]
    fn microbench_shows_log_depth_winning_at_scale() {
        // The latency-bound collectives must get cheaper under the
        // log-depth schedules — that is the tentpole claim the JSON
        // artefact records.
        for op in ["broadcast_1KiB", "allreduce_48B"] {
            let lin = collective_microbench(&FRONTIER, CollectiveAlgo::Linear, 64);
            let log = collective_microbench(&FRONTIER, CollectiveAlgo::Log, 64);
            let t_lin = lin.iter().find(|r| r.op == op).unwrap().modelled_seconds;
            let t_log = log.iter().find(|r| r.op == op).unwrap().modelled_seconds;
            assert!(
                t_log < t_lin / 2.0,
                "{op}: log {t_log:.3e}s should beat linear {t_lin:.3e}s at 64 ranks"
            );
        }
    }

    #[test]
    fn microbench_counters_are_populated() {
        let rows = collective_microbench(&FRONTIER, CollectiveAlgo::Log, 8);
        assert_eq!(rows.len(), 5);
        for r in &rows {
            assert!(r.messages > 0, "{} must send messages", r.op);
            assert!(r.modelled_seconds > 0.0, "{} must cost fabric time", r.op);
        }
        // The allreduces account real wire bytes; the broadcast is
        // world-total p−1 messages under any algorithm.
        assert!(rows
            .iter()
            .any(|r| r.op.starts_with("allreduce") && r.wire_bytes > 0));
        assert_eq!(rows[0].messages, 7);
    }

    #[test]
    fn box_row_formats() {
        let row = format_box_row("test", &[1.0, 2.0, 3.0], 1.0, "GB/s");
        assert!(row.contains("med"));
        assert!(row.starts_with("test"));
    }
}
