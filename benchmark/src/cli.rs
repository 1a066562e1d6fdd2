//! Command line of the benchmark binary.

use crate::json::Json;
use crate::manifest::check_thread_budget;
use crate::metrics::{per_layer, END_TO_END};
use crate::run::{run, RunOptions};
use crate::workloads::{find, Workload, WORKLOADS};
use std::path::PathBuf;

const USAGE: &str = "\
usage:
  as-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--smoke] [--out DIR]
      Run one workload (or, without --workload, all four in turn). Prints the
      report, then one JSON result line per workload on standard output.
      --seconds  how long the timed section measures (default: run_seconds
                 of BENCHMARK.json, 28)
      --trace    separate traced run: untraced baseline repetitions, one traced
                 repetition, the layer walk; prints every per-layer metric
      --smoke    tiny counts, one repetition, every check on
      --out      directory for run files (default: benchmark/runs)
  as-benchmark compare <set A> <set B> [--spec BENCHMARK.json]
      Compare two directories of run files, per (metric, workload).
  as-benchmark spec
      Print BENCHMARK.json as the metric registry and workload table define it.
workloads: train_bound, sim_bound, ddp_sync, drop_stream";

/// `run_seconds` of `BENCHMARK.json`, and the default of `--seconds`.
pub const RUN_SECONDS: u32 = 28;

/// Where run files go unless `--out` says otherwise: `runs/` beside this
/// package's manifest, which the repo's `.gitignore` names.
fn default_out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("runs")
}

/// Entry point; returns the process exit code: 0 when every check
/// passed, 1 when a check failed, 2 when the benchmark could not run.
pub fn main(args: Vec<String>) -> i32 {
    match dispatch(args) {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(msg) => {
            eprintln!("as-benchmark: {msg}");
            2
        }
    }
}

fn dispatch(args: Vec<String>) -> Result<bool, String> {
    match args.first().map(String::as_str) {
        Some("compare") => compare_command(&args[1..]),
        Some("spec") => {
            print!("{}", spec().pretty());
            Ok(true)
        }
        Some("-h" | "--help" | "help") => {
            println!("{USAGE}");
            Ok(true)
        }
        Some("run") => run_command(&args[1..]),
        _ => run_command(&args),
    }
}

fn run_command(args: &[String]) -> Result<bool, String> {
    let mut workload: Option<&'static Workload> = None;
    let mut opts = RunOptions {
        seed: 1,
        seconds: f64::from(RUN_SECONDS),
        trace: false,
        smoke: false,
        out_dir: default_out_dir(),
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                workload =
                    Some(find(&name).ok_or_else(|| format!("unknown workload {name:?}\n{USAGE}"))?);
            }
            "--seed" => {
                let v = value("a whole number")?;
                opts.seed = v
                    .parse()
                    .map_err(|_| format!("--seed {v:?} is not a whole number"))?;
            }
            "--seconds" => {
                let v = value("a number of seconds")?;
                opts.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds {v:?} is not a positive number"))?;
            }
            "--out" => opts.out_dir = PathBuf::from(value("a directory")?),
            "--smoke" => opts.smoke = true,
            "--trace" => {
                // The driver passes `--trace 0|1`; by hand a bare
                // `--trace` means on.
                opts.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }

    check_thread_budget()?;
    let selected: Vec<&'static Workload> = match workload {
        Some(w) => vec![w],
        None => WORKLOADS.iter().collect(),
    };
    let mut all_correct = true;
    for w in selected {
        let result = run(w, &opts)?;
        // The result line: last on standard output, one per workload.
        println!("{}", result.line.compact());
        all_correct &= result.correct;
    }
    Ok(all_correct)
}

fn compare_command(args: &[String]) -> Result<bool, String> {
    let mut sets: Vec<PathBuf> = Vec::new();
    let mut spec_path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--spec" {
            spec_path = PathBuf::from(
                it.next()
                    .ok_or_else(|| format!("--spec needs a path\n{USAGE}"))?,
            );
        } else {
            sets.push(PathBuf::from(a));
        }
    }
    let [a, b] = sets.as_slice() else {
        return Err(format!("compare takes exactly two sets\n{USAGE}"));
    };
    print!("{}", crate::compare::compare(a, b, &spec_path)?);
    Ok(true)
}

/// `BENCHMARK.json`, generated: the registry and the workload table are
/// the single source, the committed file is this output.
pub fn spec() -> Json {
    let metric = |m: &crate::metrics::MetricDef| {
        let mut fields = vec![
            ("name", Json::str(m.name)),
            ("unit", Json::str(m.unit)),
            ("better", Json::str(m.better.as_str())),
        ];
        if let Some(b) = m.bound {
            fields.push(("bound", Json::Num(b)));
        }
        Json::obj(fields)
    };
    Json::obj([
        (
            "command",
            Json::Arr(
                [
                    "cargo",
                    "run",
                    "--release",
                    "--quiet",
                    "--offline",
                    "--manifest-path",
                    "benchmark/Cargo.toml",
                    "--",
                ]
                .map(Json::str)
                .to_vec(),
            ),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(f64::from(RUN_SECONDS))),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(END_TO_END.iter().map(metric).collect()),
        ),
        ("per_layer", Json::Arr(per_layer().map(metric).collect())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_benchmark_json_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            Json::parse(&committed).expect("BENCHMARK.json parses"),
            spec(),
            "regenerate with `as-benchmark spec > BENCHMARK.json`"
        );
    }

    #[test]
    fn bad_arguments_are_usage_errors_not_runs() {
        for args in [
            vec!["--workload", "nope"],
            vec!["--seed", "x"],
            vec!["--seconds", "-3"],
            vec!["--seconds"],
            vec!["--frobnicate"],
            vec!["compare", "only-one"],
        ] {
            let args = args.into_iter().map(String::from).collect();
            assert_eq!(main(args), 2);
        }
    }
}
