//! Fault-injection sweep: chaos rates × consumer policies × fault
//! scenarios over the coupled workflow, measuring what resilience costs.
//!
//! The chaos-hardened workflow (`WorkflowConfig::faults`) claims three
//! things: deterministic message chaos only *delays* the run, a learner
//! kill-and-restart recovers from its checkpoint with bounded loss, and
//! a rank death degrades the DDP group instead of hanging it. This
//! harness prices each claim on the real end-to-end pipeline (1 producer
//! × 2 learner ranks on the small KHI box) and records, per row:
//!
//! - **windows/s** — post-fault streamed throughput (the survivors keep
//!   the loop moving),
//! - **recovery seconds** — checkpoint-restore time plus the wall time
//!   survivors spent waiting out death budgets on condemned peers,
//! - **lost windows** — rolled back past a restart, skipped by schedule,
//!   or stranded behind a dead rank's departed readers,
//! - **restarts / degradations / failures** — the fault bookkeeping from
//!   [`as_core::workflow::WorkflowReport`],
//! - **tail loss** — the training still has to learn.
//!
//! Scenarios: `baseline` (fault-tolerant path, no events — prices the
//! FT collectives against an unfaulted run of the same topology),
//! `chaos@r` for each `--drop-rates` entry (drop/delay/duplicate at rate
//! `r`, 1 ms delay quantum), `restart` (rank 1 killed on a checkpoint
//! boundary and restored), and `rank_death` (rank 1 killed past its
//! retry budget; the survivor re-forms a 1-rank world).
//!
//! Writes `BENCH_faults.json`. Pass `--smoke` for the CI-sized run,
//! `--steps/--steps-per-sample/--n-rep/--drop-rates/--out` to override.

#![forbid(unsafe_code)]

use as_core::config::{ConsumerPolicy, WorkflowConfig};
use as_core::faults::{FaultEvent, FaultPlan, KillMode};
use as_core::workflow::run_workflow;

struct Args {
    steps: usize,
    steps_per_sample: usize,
    n_rep: u32,
    drop_rates: Vec<f64>,
    out: String,
}

fn parse_args() -> Args {
    let mut a = Args {
        steps: 32,
        steps_per_sample: 4,
        n_rep: 4,
        drop_rates: vec![0.1, 0.3],
        out: "BENCH_faults.json".to_string(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || {
            it.next()
                .unwrap_or_else(|| panic!("missing value for {flag}"))
        };
        match flag.as_str() {
            "--steps" => a.steps = val().parse().expect("--steps"),
            "--steps-per-sample" => a.steps_per_sample = val().parse().expect("--steps-per-sample"),
            "--n-rep" => a.n_rep = val().parse().expect("--n-rep"),
            "--drop-rates" => {
                a.drop_rates = val()
                    .split(',')
                    .map(|s| s.parse().expect("--drop-rates"))
                    .collect()
            }
            "--out" => a.out = val(),
            "--smoke" => {
                a.steps = 16;
                a.steps_per_sample = 4;
                a.n_rep = 2;
                a.drop_rates = vec![0.2];
            }
            other => panic!("unknown flag {other}"),
        }
    }
    a
}

/// One fault scenario applied on top of the armed base plan.
enum Scenario {
    Baseline,
    Chaos(f64),
    Restart,
    RankDeath,
}

impl Scenario {
    fn label(&self) -> String {
        match self {
            Scenario::Baseline => "baseline".into(),
            Scenario::Chaos(r) => format!("chaos@{r}"),
            Scenario::Restart => "restart".into(),
            Scenario::RankDeath => "rank_death".into(),
        }
    }

    fn arm(&self, plan: &mut FaultPlan) {
        match self {
            Scenario::Baseline => {}
            Scenario::Chaos(r) => {
                plan.msg_drop_rate = *r;
                plan.msg_delay_rate = *r;
                plan.msg_dup_rate = *r;
                plan.msg_delay_ms = 1;
            }
            Scenario::Restart => {
                plan.checkpoint_every = 2;
                plan.events.push(FaultEvent::ConsumerKill {
                    rank: 1,
                    at_window: 2,
                    mode: KillMode::Restart,
                });
            }
            Scenario::RankDeath => {
                plan.events.push(FaultEvent::ConsumerKill {
                    rank: 1,
                    at_window: 2,
                    mode: KillMode::Die,
                });
            }
        }
    }
}

struct Row {
    scenario: String,
    policy: &'static str,
    windows: u64,
    wall_seconds: f64,
    windows_per_sec: f64,
    lost_windows: u64,
    restarts: u64,
    degradations: u64,
    failures: usize,
    world_after: usize,
    recovery_seconds: f64,
    iterations: usize,
    tail_loss: f64,
}

fn main() {
    let a = parse_args();
    let mut rows: Vec<Row> = Vec::new();

    for drop_policy in [false, true] {
        let mut scenarios = vec![Scenario::Baseline];
        scenarios.extend(a.drop_rates.iter().map(|&r| Scenario::Chaos(r)));
        scenarios.push(Scenario::Restart);
        scenarios.push(Scenario::RankDeath);
        for scenario in scenarios {
            let mut cfg = WorkflowConfig::small();
            cfg.total_steps = a.steps;
            cfg.steps_per_sample = a.steps_per_sample;
            cfg.n_rep = a.n_rep;
            cfg.consumers = 2;
            if drop_policy {
                cfg.policy = ConsumerPolicy::drop_steps(cfg.queue_limit);
            }
            // Generous silence budget: injected deaths self-mark (instant
            // detection); the timeout backstop must not fire on a slow
            // PIC window.
            cfg.faults = FaultPlan {
                op_timeout_ms: 1000,
                tick_ms: 2,
                retry_budget: 5,
                ..FaultPlan::default()
            };
            scenario.arm(&mut cfg.faults);
            eprintln!(
                "fig_faults: {} under {} ({} steps, window every {}, n_rep {})",
                scenario.label(),
                cfg.policy.label(),
                a.steps,
                a.steps_per_sample,
                a.n_rep
            );
            let report = run_workflow(&cfg);
            for s in &report.consumer_summaries {
                assert_eq!(
                    s.windows + s.dropped_windows + s.orphaned_windows + s.lost_windows,
                    s.published_windows,
                    "{} {}: rank {} window accounting must balance",
                    scenario.label(),
                    cfg.policy.label(),
                    s.rank
                );
            }
            let survivors = &report.consumer_summaries;
            let h0 = survivors[0].param_hash;
            assert!(
                survivors.iter().all(|s| s.param_hash == h0),
                "{}: surviving ranks must stay bit-identical",
                scenario.label()
            );
            let row = Row {
                scenario: scenario.label(),
                policy: cfg.policy.label(),
                windows: report.producer.windows,
                wall_seconds: report.wall_seconds,
                windows_per_sec: report.windows_per_second(),
                lost_windows: report.lost_windows,
                restarts: survivors.iter().map(|s| s.restarts).sum(),
                degradations: report.degradations,
                failures: report.failures.len(),
                world_after: survivors.iter().map(|s| s.world_after).min().unwrap_or(0),
                recovery_seconds: survivors
                    .iter()
                    .map(|s| s.recovery_seconds)
                    .fold(0.0, f64::max),
                iterations: report.consumer.losses.len(),
                tail_loss: report.tail_loss(4),
            };
            eprintln!(
                "  {:>5.2} windows/s  lost {}  restarts {}  degradations {}  recovery {:.4}s",
                row.windows_per_sec,
                row.lost_windows,
                row.restarts,
                row.degradations,
                row.recovery_seconds
            );
            rows.push(row);
        }
    }

    let mut json = String::from("{\n  \"bench\": \"faults\",\n");
    json.push_str(&format!(
        "  \"total_steps\": {},\n  \"steps_per_sample\": {},\n  \"n_rep\": {},\n  \"rows\": [\n",
        a.steps, a.steps_per_sample, a.n_rep
    ));
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"scenario\": \"{}\", \"policy\": \"{}\", \"windows\": {}, \"wall_seconds\": {:.4}, \"windows_per_sec\": {:.3}, \"lost_windows\": {}, \"restarts\": {}, \"degradations\": {}, \"failures\": {}, \"world_after\": {}, \"recovery_seconds\": {:.6}, \"iterations\": {}, \"tail_loss\": {:.6}}}{}\n",
            r.scenario,
            r.policy,
            r.windows,
            r.wall_seconds,
            r.windows_per_sec,
            r.lost_windows,
            r.restarts,
            r.degradations,
            r.failures,
            r.world_after,
            r.recovery_seconds,
            r.iterations,
            r.tail_loss,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&a.out, &json).expect("write BENCH_faults.json");
    println!("{json}");
}
