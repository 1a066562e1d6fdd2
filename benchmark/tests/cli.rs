//! Drives the built binary the way the driver does, at `--smoke` size,
//! and the `compare` command over run files on disk.

use as_benchmark::compare::compare;
use as_benchmark::json::Json;
use as_benchmark::metrics::{per_layer, END_TO_END};
use as_benchmark::workloads::WORKLOADS;
use std::path::PathBuf;
use std::process::Command;

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Run the binary; returns (exit code, parsed last line of stdout).
fn bench(args: &[&str]) -> (i32, Option<Json>) {
    let out = Command::new(env!("CARGO_BIN_EXE_as-benchmark"))
        .args(args)
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).unwrap();
    let last = stdout.lines().last().and_then(|l| Json::parse(l).ok());
    if !out.status.success() {
        eprintln!("{}", String::from_utf8_lossy(&out.stderr));
    }
    (out.status.code().unwrap_or(-1), last)
}

fn enough_cpus() -> bool {
    std::thread::available_parallelism().map_or(1, |n| n.get()) >= 2
}

fn check_result_line(line: &Json, expected: &[(&str, &str)], what: &str) {
    let keys: Vec<&str> = line
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        ["correct", "attempted", "failed", "metrics"],
        "{what}"
    );
    assert_eq!(line.get("correct"), Some(&Json::Bool(true)), "{what}");
    assert_eq!(
        line.get("failed").and_then(Json::as_f64),
        Some(0.0),
        "{what}"
    );
    let attempted = line.get("attempted").and_then(Json::as_f64).unwrap();
    assert!(attempted >= 1.0 && attempted.fract() == 0.0, "{what}");
    let metrics = line.get("metrics").and_then(Json::as_obj).unwrap();
    let got: Vec<(&str, &str)> = metrics
        .iter()
        .map(|(k, v)| (k.as_str(), v.get("unit").and_then(Json::as_str).unwrap()))
        .collect();
    assert_eq!(
        got, expected,
        "{what}: exactly the contract's metrics, in order"
    );
    for (name, m) in metrics {
        let v = m.get("value").and_then(Json::as_f64);
        assert!(v.is_some_and(f64::is_finite), "{what}: {name} = {v:?}");
    }
}

#[test]
fn smoke_run_of_every_workload_timed_and_traced() {
    let out = scratch("smoke");
    let out_dir = out.to_str().unwrap();
    if !enough_cpus() {
        // The thread-budget guard: a clear refusal, no result line.
        let (code, line) = bench(&["--workload", "train_bound", "--smoke", "--out", out_dir]);
        assert_eq!((code, line), (2, None));
        return;
    }
    let e2e: Vec<(&str, &str)> = END_TO_END.iter().map(|m| (m.name, m.unit)).collect();
    let layers: Vec<(&str, &str)> = per_layer().map(|m| (m.name, m.unit)).collect();
    for w in &WORKLOADS {
        // The driver's argument order, plus --smoke.
        let base = [
            "--workload",
            w.name,
            "--seed",
            "3",
            "--seconds",
            "1",
            "--smoke",
            "--out",
            out_dir,
        ];
        let (code, line) = bench(&[&base[..], &["--trace", "0"]].concat());
        assert_eq!(code, 0, "{} timed", w.name);
        let line = line.expect("a result line");
        check_result_line(&line, &e2e, w.name);
        for m in &END_TO_END {
            let v = line
                .get("metrics")
                .unwrap()
                .get(m.name)
                .unwrap()
                .get("value");
            assert!(
                v.and_then(Json::as_f64).unwrap() > 0.0,
                "{}: {} is never 0",
                w.name,
                m.name
            );
        }

        let (code, line) = bench(&[&base[..], &["--trace", "1"]].concat());
        assert_eq!(code, 0, "{} traced", w.name);
        let line = line.expect("a result line");
        check_result_line(&line, &layers, w.name);
        let coverage = line
            .get("metrics")
            .unwrap()
            .get("trace.walk_coverage")
            .unwrap();
        let coverage = coverage.get("value").and_then(Json::as_f64).unwrap();
        assert!(
            (0.3..3.0).contains(&coverage),
            "{}: walk coverage {coverage}",
            w.name
        );
    }

    // Every run left a run file with a manifest; traced runs a trace too.
    let mut run_files = 0;
    let mut trace_files = 0;
    for entry in std::fs::read_dir(&out).unwrap() {
        let path = entry.unwrap().path();
        let doc = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        if path.to_str().unwrap().ends_with(".trace.json") {
            let spans = doc.as_arr().unwrap();
            assert!(spans
                .iter()
                .any(|s| s.get("name") == Some(&Json::str("pic.step"))));
            assert!(spans
                .iter()
                .any(|s| s.get("name") == Some(&Json::str("serve.query"))));
            trace_files += 1;
            continue;
        }
        let manifest = doc
            .get("manifest")
            .expect("run files start with the manifest");
        for key in [
            "nproc",
            "rustc",
            "git_rev",
            "seed",
            "frozen_counts",
            "busy_thread_budget",
            "busy_threads",
        ] {
            assert!(manifest.get(key).is_some(), "manifest lacks {key}");
        }
        assert_eq!(manifest.get("rayon_num_threads"), Some(&Json::str("1")));
        assert_eq!(manifest.get("seed").and_then(Json::as_f64), Some(3.0));
        run_files += 1;
    }
    assert_eq!(
        (run_files, trace_files),
        (2 * WORKLOADS.len(), WORKLOADS.len())
    );
}

#[test]
fn usage_errors_exit_2_without_a_result_line() {
    for args in [
        &["--workload", "nope"][..],
        &["--frobnicate"],
        &["compare", "one-set"],
    ] {
        let (code, line) = bench(args);
        assert_eq!((code, line), (2, None), "{args:?}");
    }
}

#[test]
fn spec_command_prints_the_committed_benchmark_json() {
    let out = Command::new(env!("CARGO_BIN_EXE_as-benchmark"))
        .arg("spec")
        .output()
        .unwrap();
    assert!(out.status.success());
    let printed = Json::parse(&String::from_utf8(out.stdout).unwrap()).unwrap();
    let committed = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let committed = Json::parse(&std::fs::read_to_string(committed).unwrap()).unwrap();
    assert_eq!(printed, committed);
}

#[test]
fn compares_two_sets_of_run_files() {
    let dir = scratch("compare");
    let (a, b) = (dir.join("a"), dir.join("b"));
    for d in [&a, &b] {
        std::fs::create_dir_all(d).unwrap();
    }
    let run = |workload: &str, mode: &str, wps: f64| {
        Json::obj([
            (
                "manifest",
                Json::obj([
                    ("workload", Json::str(workload)),
                    ("mode", Json::str(mode)),
                    ("smoke", Json::Bool(false)),
                ]),
            ),
            (
                "end_to_end",
                Json::obj([(
                    "windows_per_s",
                    // A run reports q3 of a rate: the set is built from
                    // `value`, not from the run's median.
                    Json::obj([
                        ("value", Json::Num(wps)),
                        ("median", Json::Num(wps * 0.98)),
                        ("q1", Json::Num(wps * 0.97)),
                        ("q3", Json::Num(wps)),
                    ]),
                )]),
            ),
        ])
        .pretty()
    };
    for (i, wps) in [10.0, 10.2, 9.9].iter().enumerate() {
        std::fs::write(
            a.join(format!("t{i}.json")),
            run("train_bound", "timed", *wps),
        )
        .unwrap();
        std::fs::write(
            b.join(format!("t{i}.json")),
            run("train_bound", "timed", wps * 0.7),
        )
        .unwrap();
    }
    // Traced runs, trace files and other JSON are not part of a set.
    std::fs::write(a.join("x.json"), run("train_bound", "traced", 1.0)).unwrap();
    std::fs::write(a.join("y.trace.json"), "[]").unwrap();
    std::fs::write(a.join("single.json"), run("sim_bound", "timed", 4.0)).unwrap();
    std::fs::write(b.join("single.json"), run("sim_bound", "timed", 4.0)).unwrap();
    let spec = dir.join("BENCHMARK.json");
    std::fs::write(
        &spec,
        r#"{"workloads":[{"name":"train_bound","why":"w"},{"name":"sim_bound","why":"w"},{"name":"ddp_sync","why":"w"}],
            "end_to_end":[{"name":"windows_per_s","unit":"1/s","better":"higher","bound":0.1}]}"#,
    )
    .unwrap();

    let report = compare(&a, &b, &spec).unwrap();
    let row = |w: &str| {
        report
            .lines()
            .find(|l| l.starts_with(w))
            .unwrap()
            .to_string()
    };
    let train = row("train_bound");
    assert!(train.contains("worse"), "{train}");
    assert!(train.contains("0.7000"), "ratio B/A is printed: {train}");
    assert!(train.contains("base 10.000000"), "with its base: {train}");
    assert!(row("sim_bound").contains("same"));
    assert!(row("ddp_sync").contains("not in both sets"));

    assert!(compare(&dir.join("missing"), &b, &spec).is_err());
    assert!(compare(&a, &b, &dir.join("missing.json")).is_err());
}
