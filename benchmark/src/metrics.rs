//! The metric registry: every name the benchmark prints, with its unit,
//! direction and — for end-to-end metrics — regression bound.
//!
//! `BENCHMARK.json` records the same lists for the driver; a unit test
//! holds the two in step.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    pub fn parse(s: &str) -> Option<Better> {
        match s {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }

    /// By what share of `base` is `value` worse? Negative when better.
    pub fn worse_by(self, base: f64, value: f64) -> f64 {
        match self {
            Better::Lower => (value - base) / base.abs(),
            Better::Higher => (base - value) / base.abs(),
        }
    }
}

/// Which of a run's samples of a metric the run reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pick {
    /// The median: for values that do not depend on how fast the machine
    /// happens to run (losses, counts, heap).
    Median,
    /// The quartile on the metric's better side — q3 of a rate, q1 of a
    /// time. The shared VM only ever slows a repetition down (spells of
    /// 1.3–1.7x lasting from a second to two minutes, see the README), so
    /// the better quartile reads the program's speed as long as a quarter
    /// of the run's repetitions met a quiet machine; the median needs
    /// half, and flipped between the two levels from run to run.
    BestQuartile,
}

impl Pick {
    pub fn as_str(self) -> &'static str {
        match self {
            Pick::Median => "median",
            Pick::BestQuartile => "best_quartile",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    /// `None` for per-layer metrics, which are not gated.
    pub bound: Option<f64>,
    pub pick: Pick,
}

impl MetricDef {
    /// The value a run reports for this metric, from the summary of its
    /// samples.
    pub fn reported(&self, s: &crate::stats::Summary) -> f64 {
        match (self.pick, self.better) {
            (Pick::Median, _) => s.median,
            (Pick::BestQuartile, Better::Lower) => s.q1,
            (Pick::BestQuartile, Better::Higher) => s.q3,
        }
    }
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    pick: Pick,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
        pick,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        pick: Pick::Median,
    }
}

use Better::{Higher, Lower};
use Pick::{BestQuartile, Median};

/// What a user of the coupled system sees. All seven are reported on all
/// four workloads. Each bound is at least three times the quartile
/// distance seen over ten seeds on the shared 2-vCPU VM in a quiet hour
/// (see the README's noise floor), and at most the contract's 25 %. The
/// four wall-clock metrics report their better quartile over the run's
/// samples, the other three the median.
pub const END_TO_END: [MetricDef; 7] = [
    e2e("setup_s", "s", Lower, 0.25, BestQuartile),
    e2e("windows_per_s", "1/s", Higher, 0.25, BestQuartile),
    e2e("trained_window_frac", "ratio", Higher, 0.2, Median),
    e2e("tail_loss", "loss", Lower, 0.25, Median),
    e2e("queries_per_s", "1/s", Higher, 0.25, BestQuartile),
    e2e("query_p50_ms", "ms", Lower, 0.25, BestQuartile),
    e2e("peak_heap_mb", "MB", Lower, 0.15, Median),
];

/// Program counters read from `WorkflowReport` / `ServeReport` and the
/// benchmark's allocator after each untraced repetition.
pub const COUNTERS: [MetricDef; 28] = [
    layer("core.producer_sim_s", "s", Lower),
    layer("core.producer_emit_s", "s", Lower),
    layer("core.producer_stall_frac", "ratio", Lower),
    layer("core.consumer_train_s", "s", Lower),
    layer("core.consumer_other_s", "s", Lower),
    layer("nn.iterations", "count", Higher),
    layer("nn.iter_ms", "ms", Lower),
    layer("core.windows_published", "count", Higher),
    layer("core.windows_trained", "count", Higher),
    layer("core.windows_dropped", "count", Lower),
    layer("core.windows_orphaned_lost", "count", Lower),
    layer("core.snapshots_published", "count", Higher),
    layer("core.allocs_per_window", "count", Lower),
    layer("core.alloc_mb_per_window", "MB", Lower),
    layer("staging.logical_bytes", "B", Lower),
    layer("staging.wire_bytes", "B", Lower),
    layer("staging.model_s", "s", Lower),
    layer("cluster.producer_comm_bytes", "B", Lower),
    layer("cluster.producer_comm_messages", "count", Lower),
    layer("cluster.consumer_comm_bytes", "B", Lower),
    layer("cluster.consumer_comm_messages", "count", Lower),
    layer("cluster.comm_model_s", "s", Lower),
    layer("serve.cache_hit_rate", "ratio", Higher),
    layer("serve.mean_batch", "count", Higher),
    layer("serve.swaps", "count", Higher),
    layer("serve.queue_full_waits", "count", Lower),
    layer("serve.query_p99_ms", "ms", Lower),
    layer("serve.query_p999_ms", "ms", Lower),
];

/// Median self time per call from the traced layer walk, and the two
/// numbers that say whether the trace can be trusted.
pub const WALK: [MetricDef; 28] = [
    layer("pic.step_ms", "ms", Lower),
    layer("pic.particle_steps_per_s", "1/s", Higher),
    layer("radiation.accumulate_ms", "ms", Lower),
    layer("radiation.take_window_ms", "ms", Lower),
    layer("openpmd.write_window_ms", "ms", Lower),
    layer("openpmd.read_window_ms", "ms", Lower),
    layer("staging.put_mb_per_s", "MB/s", Higher),
    layer("staging.codec_encode_mb_per_s", "MB/s", Higher),
    layer("staging.codec_decode_mb_per_s", "MB/s", Higher),
    layer("staging.skip_step_us", "us", Lower),
    layer("core.encode_window_ms", "ms", Lower),
    layer("core.batch_to_tensors_ms", "ms", Lower),
    layer("replay.push_us", "us", Lower),
    layer("replay.sample_batch_us", "us", Lower),
    layer("nn.forward_ms", "ms", Lower),
    layer("nn.forward_backward_ms", "ms", Lower),
    layer("nn.optimizer_ms", "ms", Lower),
    layer("nn.param_hash_ms", "ms", Lower),
    layer("tensor.matmul_gflops", "GFLOP/s", Higher),
    layer("nn.grad_sync_ms", "ms", Lower),
    layer("cluster.allreduce_bucket_us", "us", Lower),
    layer("cluster.broadcast_us", "us", Lower),
    layer("core.snapshot_capture_ms", "ms", Lower),
    layer("serve.install_ms", "ms", Lower),
    layer("serve.posterior_batch_ms", "ms", Lower),
    layer("serve.cache_op_us", "us", Lower),
    layer("trace.overhead_frac", "ratio", Lower),
    layer("trace.walk_coverage", "ratio", Higher),
];

/// Every per-layer metric, counters first.
pub fn per_layer() -> impl Iterator<Item = &'static MetricDef> {
    COUNTERS.iter().chain(WALK.iter())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::workloads::WORKLOADS;

    #[test]
    fn worse_by_respects_direction() {
        assert!((Lower.worse_by(10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((Higher.worse_by(10.0, 9.0) - 0.1).abs() < 1e-12);
        assert!(Lower.worse_by(10.0, 9.0) < 0.0);
        assert!(Higher.worse_by(10.0, 11.0) < 0.0);
        assert_eq!(Better::parse(Lower.as_str()), Some(Lower));
        assert_eq!(Better::parse("sideways"), None);
    }

    #[test]
    fn a_run_reports_the_better_quartile_of_a_wall_clock_metric() {
        let s = crate::stats::Summary {
            median: 10.0,
            q1: 8.0,
            q3: 13.0,
        };
        let by_name = |n: &str| END_TO_END.iter().find(|m| m.name == n).unwrap();
        assert_eq!(by_name("windows_per_s").reported(&s), 13.0);
        assert_eq!(by_name("queries_per_s").reported(&s), 13.0);
        assert_eq!(by_name("query_p50_ms").reported(&s), 8.0);
        assert_eq!(by_name("setup_s").reported(&s), 8.0);
        for n in ["trained_window_frac", "tail_loss", "peak_heap_mb"] {
            assert_eq!(by_name(n).reported(&s), 10.0, "{n}");
        }
        assert!(per_layer().all(|m| m.pick == Pick::Median));
    }

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(per_layer())
            .map(|m| m.name)
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a metric name is used once");
        let ok_name = |s: &str| {
            s.len() <= 64
                && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        for m in END_TO_END.iter().chain(per_layer()) {
            assert!(ok_name(m.name), "{}", m.name);
            assert!(ok_unit(m.unit), "{}: {}", m.name, m.unit);
        }
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(per_layer().count() <= 128);
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Lower));
    }

    /// `BENCHMARK.json` is what the driver reads; this registry is what
    /// the binary prints. They must list the same things.
    #[test]
    fn benchmark_json_matches_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );

        let listed = |key: &str| -> Vec<Vec<(String, Json)>> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| m.as_obj().unwrap().to_vec())
                .collect()
        };
        let field = |m: &[(String, Json)], k: &str| -> Json {
            m.iter().find(|(key, _)| key == k).unwrap().1.clone()
        };

        let e2e = listed("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (got, want) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(got.len(), 4, "exactly name, unit, better, bound");
            assert_eq!(field(got, "name"), Json::str(want.name));
            assert_eq!(field(got, "unit"), Json::str(want.unit));
            assert_eq!(field(got, "better"), Json::str(want.better.as_str()));
            assert_eq!(field(got, "bound"), Json::Num(want.bound.unwrap()));
        }

        let layers = listed("per_layer");
        assert_eq!(layers.len(), per_layer().count());
        for (got, want) in layers.iter().zip(per_layer()) {
            assert_eq!(got.len(), 3, "exactly name, unit, better");
            assert_eq!(field(got, "name"), Json::str(want.name));
            assert_eq!(field(got, "unit"), Json::str(want.unit));
            assert_eq!(field(got, "better"), Json::str(want.better.as_str()));
        }

        let workloads = listed("workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (got, want) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(got.len(), 2, "exactly name and why");
            assert_eq!(field(got, "name"), Json::str(want.name));
            assert_eq!(field(got, "why"), Json::str(want.why));
        }

        let secs = doc.get("run_seconds").and_then(Json::as_f64).unwrap();
        assert!((1.0..=60.0).contains(&secs) && secs.fract() == 0.0);
        assert_eq!(
            doc.get("paths").unwrap(),
            &Json::Arr(vec![Json::str("benchmark")])
        );
        assert!(text.len() <= 64 * 1024);
    }
}
