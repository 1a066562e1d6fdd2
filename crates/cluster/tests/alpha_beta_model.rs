//! The executed/priced schedules against the α-β closed forms, and the
//! world-free pricing against an executed world.
//!
//! For every collective, the modelled seconds `SimNetComm` charges (by
//! walking the real `as_cluster::algos` schedule) must match the textbook
//! α-β formula within tolerance, at 16 and 64 ranks. The formulas are
//! written out below as test oracles; nothing in the library carries
//! them.
//!
//! `NetModel::allreduce_seconds` / `allgather_seconds` price the same
//! schedules for every rank without a world (Fig. 8 uses them at 384
//! ranks), so they must equal an executed world's critical path to the
//! nanosecond.
//!
//! The comparisons use a placement-free uniform model — one fresh world
//! per operation, no barriers, so the measured critical path is the
//! collective alone (quantization is ≤ 1 ns per rank, far below the 1%
//! tolerance).

use as_cluster::algos::CollectiveAlgo;
use as_cluster::collective::{ChannelComm, Collective, NetModel, SimNetComm};
use as_cluster::machine::FRONTIER;
use std::thread;

const RANKS: [usize; 2] = [16, 64];
const TOLERANCE: f64 = 0.01;

/// β of one rank alone on its node: the full NIC aggregate, capped by the
/// intra-node link.
fn link_bandwidth() -> f64 {
    (FRONTIER.nic_bandwidth * FRONTIER.nics_per_node as f64).min(FRONTIER.intra_node_bandwidth)
}

fn analytic_model() -> NetModel {
    NetModel::uniform(FRONTIER.net_latency, link_bandwidth(), 0.0)
}

/// The α-β oracle: `steps` serialized latencies plus `wire_bytes` through
/// one rank's link.
fn alpha_beta(steps: f64, wire_bytes: f64) -> f64 {
    steps * FRONTIER.net_latency + wire_bytes / link_bandwidth()
}

/// `⌈log₂ p⌉`.
fn log_steps(p: usize) -> f64 {
    (p as f64).log2().ceil()
}

/// Run `op` once on every rank of a fresh record-only world under `algo`
/// and return the modelled critical-path seconds.
fn measure_with<F>(p: usize, algo: CollectiveAlgo, op: F) -> f64
where
    F: Fn(&SimNetComm<ChannelComm>) + Send + Sync + Copy + 'static,
{
    let eps = SimNetComm::world_with_algo(p, analytic_model(), algo);
    let handles: Vec<_> = eps
        .into_iter()
        .map(|c| {
            thread::spawn(move || {
                op(&c);
                c
            })
        })
        .collect();
    let eps: Vec<_> = handles
        .into_iter()
        .map(|h| h.join().expect("rank thread panicked"))
        .collect();
    eps[0].modelled_comm_seconds()
}

fn measure<F>(p: usize, op: F) -> f64
where
    F: Fn(&SimNetComm<ChannelComm>) + Send + Sync + Copy + 'static,
{
    measure_with(p, CollectiveAlgo::Log, op)
}

fn assert_close(measured: f64, analytic: f64, what: &str) {
    assert!(
        analytic > 0.0 && (measured - analytic).abs() / analytic < TOLERANCE,
        "{what}: measured {measured:.3e}s vs analytic {analytic:.3e}s"
    );
}

#[test]
fn broadcast_matches_the_tree_model() {
    for p in RANKS {
        let measured = measure(p, |c| {
            let _ = if c.rank() == 0 {
                c.broadcast(0, Some([0u8; 1024]))
            } else {
                c.broadcast::<[u8; 1024]>(0, None)
            };
        });
        // The root's ⌈log₂ p⌉ serialized full-payload sends.
        let analytic = alpha_beta(log_steps(p), log_steps(p) * 1024.0);
        assert_close(measured, analytic, &format!("broadcast p={p}"));
    }
}

#[test]
fn gather_matches_the_tree_model() {
    for p in RANKS {
        let measured = measure(p, |c| {
            let _ = c.gather(0, [0u8; 1024]);
        });
        // ⌈log₂ p⌉ subtree messages into the root, p−1 blocks in total.
        let analytic = alpha_beta(log_steps(p), (p as f64 - 1.0) * 1024.0);
        assert_close(measured, analytic, &format!("gather p={p}"));
    }
}

#[test]
fn allgather_matches_the_bruck_model() {
    for p in RANKS {
        let measured = measure(p, |c| {
            let _ = c.allgather([0u8; 1024]);
        });
        // Bruck: ⌈log₂ p⌉ rounds, every rank still moves p−1 blocks.
        let analytic = alpha_beta(log_steps(p), (p as f64 - 1.0) * 1024.0);
        assert_close(measured, analytic, &format!("allgather p={p}"));
    }
}

#[test]
fn ring_allreduce_matches_the_ring_model() {
    // 4096 f32 (16 KiB) is over the small-allreduce threshold, so the
    // log-depth algo still routes it through the ring; the length is
    // divisible by both rank counts, so chunks are exact.
    for p in RANKS {
        let measured = measure(p, |c| {
            let mut buf = vec![1.0f32; 4096];
            c.allreduce_sum_f32(&mut buf);
        });
        // 2(p−1) steps; 2(p−1)/p of the buffer crosses each link.
        let pf = p as f64;
        let analytic = alpha_beta(2.0 * (pf - 1.0), 2.0 * (pf - 1.0) / pf * 4096.0 * 4.0);
        assert_close(measured, analytic, &format!("ring allreduce p={p}"));
    }
}

#[test]
fn small_allreduce_matches_the_allgather_model() {
    for p in RANKS {
        let measured = measure(p, |c| {
            let mut buf = vec![1.0f64; 6]; // 48 B — a control scalar
            c.allreduce_sum_f64(&mut buf);
        });
        // A Bruck allgather of the whole 48 B contribution.
        let analytic = alpha_beta(log_steps(p), (p as f64 - 1.0) * 48.0);
        assert_close(measured, analytic, &format!("small allreduce p={p}"));
    }
}

#[test]
fn world_free_pricing_equals_an_executed_world() {
    // One collective, one charge per rank: the world's clock rounds a
    // rank's sum to the nanosecond once, so the two agree within 1 ns.
    let model = analytic_model();
    for p in [3usize, 5, 16, 64] {
        for algo in [CollectiveAlgo::Linear, CollectiveAlgo::Log] {
            let tag = format!("p={p} {}", algo.label());
            let small = measure_with(p, algo, |c| {
                let mut buf = vec![1.0f64; 6]; // 48 B: the log path's allgather
                c.allreduce_sum_f64(&mut buf);
            });
            let priced = model.allreduce_seconds(algo, p, 6, 8);
            assert!(
                (priced - small).abs() <= 1e-9,
                "48 B allreduce {tag}: priced {priced:e}s, executed {small:e}s"
            );
            let ring = measure_with(p, algo, |c| {
                let mut buf = vec![1.0f32; 4096]; // 16 KiB: the ring
                c.allreduce_sum_f32(&mut buf);
            });
            let priced = model.allreduce_seconds(algo, p, 4096, 4);
            assert!(
                (priced - ring).abs() <= 1e-9,
                "16 KiB allreduce {tag}: priced {priced:e}s, executed {ring:e}s"
            );
            let gathered = measure_with(p, algo, |c| {
                let _ = c.allgather([0u8; 1024]);
            });
            let priced = model.allgather_seconds(algo, p, 1024);
            assert!(
                (priced - gathered).abs() <= 1e-9,
                "1 KiB allgather {tag}: priced {priced:e}s, executed {gathered:e}s"
            );
        }
    }
}

#[test]
fn log_depth_beats_linear_at_scale() {
    // The point of the whole exercise: the same latency-bound broadcast
    // priced under the linear schedule grows O(p), under the tree
    // O(log p) — at 64 ranks the gap is an order of magnitude.
    fn bcast(c: &SimNetComm<ChannelComm>) {
        let _ = if c.rank() == 0 {
            c.broadcast(0, Some(1u64))
        } else {
            c.broadcast::<u64>(0, None)
        };
    }
    for p in RANKS {
        let linear = measure_with(p, CollectiveAlgo::Linear, bcast);
        let log = measure(p, bcast);
        let steps = log_steps(p);
        assert!(
            log < linear * (steps + 1.0) / (p as f64 - 1.0) * 1.5,
            "p={p}: log {log:.3e}s should be ~{steps}/{d} of linear {linear:.3e}s",
            d = p - 1
        );
    }
}
