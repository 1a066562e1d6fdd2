//! One benchmark run of one workload: set-up passes, timed repetitions
//! (or, with `--trace`, the traced repetition and the layer walk), the
//! printed tables, the run file and the result line.

use crate::coupled::{check_repeatability, first_light, repetition, Inputs, Repetition};
use crate::json::Json;
use crate::manifest::manifest;
use crate::metrics::{per_layer, Better, MetricDef, Pick, COUNTERS, END_TO_END, WALK};
use crate::stats::{samples_beyond, Summary};
use crate::trace::{spans_to_json, Tracer};
use crate::walk;
use crate::workloads::Workload;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Cold first-light passes per run; `setup_s` is their better quartile.
/// They are also the warm-up: every code path of the workload has run
/// five times before the first timed repetition starts.
const SETUP_PASSES: usize = 5;
/// A run never reports a median or quartile over fewer timed repetitions
/// than this, however slow the machine.
const MIN_REPETITIONS: usize = 3;
/// Untraced repetitions of a `--trace` run: they give the program
/// counters and the untraced stream wall (their median) the traced one is
/// compared to.
const TRACE_BASELINE_REPETITIONS: usize = 3;

#[derive(Debug, Clone)]
pub struct RunOptions {
    pub seed: u64,
    /// How long the timed section measures, in seconds.
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    /// Directory the run file (and trace file) is written into.
    pub out_dir: PathBuf,
}

/// What a run hands back to `main`: the result line and whether every
/// check passed.
pub struct RunResult {
    pub line: Json,
    pub correct: bool,
}

pub fn run(workload: &'static Workload, opts: &RunOptions) -> Result<RunResult, String> {
    let started = Instant::now();
    let inputs = Inputs::new(workload, opts.seed, opts.smoke);
    eprintln!(
        "== {} (seed {}, {}{}) ==",
        workload.name,
        opts.seed,
        if opts.trace { "traced" } else { "timed" },
        if opts.smoke { ", smoke" } else { "" }
    );

    // ---- set-up: cold first-light passes ----
    // A traced run reports no `setup_s`; one pass keeps its table whole.
    let passes = if opts.smoke || opts.trace {
        1
    } else {
        SETUP_PASSES
    };
    let setup: Vec<f64> = (0..passes)
        .map(|_| first_light(workload, opts.seed))
        .collect::<Result<_, _>>()?;

    let mut failures: Vec<String> = Vec::new();
    let reps: Vec<Repetition>;
    // Per-layer values: the walk's (traced runs only), then the counters.
    let mut layers: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut trace_file: Option<PathBuf> = None;

    if opts.trace {
        // Untraced baseline, then one traced repetition, then the walk.
        let baseline = if opts.smoke {
            1
        } else {
            TRACE_BASELINE_REPETITIONS
        };
        let mut all: Vec<Repetition> = (0..baseline)
            .map(|i| repetition(&inputs, i as u64 + 1, None))
            .collect();
        let untraced_wall =
            crate::stats::median(&all.iter().map(|r| r.stream_wall_s).collect::<Vec<_>>());
        let tracer = Arc::new(Tracer::new());
        let traced = repetition(&inputs, baseline as u64 + 1, Some(&tracer));
        let overhead = traced.stream_wall_s / untraced_wall - 1.0;
        let walked = walk::layer_walk(&inputs, &traced, &tracer);
        failures.extend(walked.failures);
        layers = walked.metrics;
        layers.insert("trace.overhead_frac", overhead);
        all.push(traced);
        reps = all;
        let path = opts
            .out_dir
            .join(format!("{}.trace.json", run_file_stem(workload, opts)));
        write_file(&path, &spans_to_json(&tracer.spans()).pretty())?;
        trace_file = Some(path);
    } else {
        // Timed repetitions until `--seconds` of measurement are used up
        // (to within half a repetition), at least MIN_REPETITIONS.
        let budget = Instant::now();
        let mut timed: Vec<Repetition> = Vec::new();
        loop {
            let t0 = Instant::now();
            timed.push(repetition(&inputs, timed.len() as u64 + 1, None));
            let last = t0.elapsed().as_secs_f64();
            let used = budget.elapsed().as_secs_f64();
            let enough = timed.len() >= MIN_REPETITIONS;
            if opts.smoke || (enough && used + 0.5 * last >= opts.seconds) {
                break;
            }
        }
        reps = timed;
    }

    for (i, r) in reps.iter().enumerate() {
        failures.extend(r.failures.iter().map(|f| format!("repetition {i}: {f}")));
    }
    failures.extend(check_repeatability(workload, &reps));

    // ---- aggregate: one summary per metric over the run's samples ----
    let mut samples: BTreeMap<&'static str, Vec<f64>> = BTreeMap::from([("setup_s", setup)]);
    for m in END_TO_END.iter().filter(|m| m.name != "setup_s") {
        samples.insert(m.name, reps.iter().map(|r| r.end_to_end[m.name]).collect());
    }
    let e2e: BTreeMap<&'static str, Summary> = samples
        .iter()
        .map(|(name, values)| (*name, Summary::of(values)))
        .collect();
    for m in &COUNTERS {
        let values: Vec<f64> = reps.iter().map(|r| r.counters[m.name]).collect();
        layers.insert(m.name, crate::stats::median(&values));
    }

    let attempted: u64 = reps
        .iter()
        .map(|r| r.windows_published + r.queries_issued)
        .sum::<u64>()
        .max(1);
    let failed = failures.len() as u64;
    let correct = failed == 0;

    // ---- report ----
    print_tables(workload, opts, &reps, &e2e, &layers);
    for f in &failures {
        eprintln!("FAILED CHECK: {f}");
    }

    let reported: Vec<(&MetricDef, f64)> = if opts.trace {
        per_layer().map(|m| (m, layers[m.name])).collect()
    } else {
        END_TO_END
            .iter()
            .map(|m| (m, m.reported(&e2e[m.name])))
            .collect()
    };
    let metrics = Json::obj(reported.iter().map(|(m, v)| {
        (
            m.name,
            Json::obj([("value", Json::Num(*v)), ("unit", Json::str(m.unit))]),
        )
    }));
    let line = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", metrics),
    ]);

    let run_file = Json::obj([
        ("manifest", manifest(workload, &inputs, opts)),
        ("wall_s", Json::Num(started.elapsed().as_secs_f64())),
        ("repetitions", Json::Num(reps.len() as f64)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        (
            "failures",
            Json::Arr(failures.iter().map(Json::str).collect()),
        ),
        (
            "end_to_end",
            Json::obj(END_TO_END.iter().map(|m| {
                let s = e2e[m.name];
                (
                    m.name,
                    Json::obj([
                        ("unit", Json::str(m.unit)),
                        ("value", Json::Num(m.reported(&s))),
                        ("pick", Json::str(m.pick.as_str())),
                        ("median", Json::Num(s.median)),
                        ("q1", Json::Num(s.q1)),
                        ("q3", Json::Num(s.q3)),
                        ("samples", Json::nums(&samples[m.name])),
                    ]),
                )
            })),
        ),
        (
            "per_layer",
            Json::obj(
                per_layer()
                    .filter(|m| layers.contains_key(m.name))
                    .map(|m| {
                        (
                            m.name,
                            Json::obj([
                                ("unit", Json::str(m.unit)),
                                ("value", Json::Num(layers[m.name])),
                            ]),
                        )
                    }),
            ),
        ),
        (
            "trace_file",
            trace_file
                .as_deref()
                .map_or(Json::Null, |p| Json::str(p.display().to_string())),
        ),
        ("result", line.clone()),
    ]);
    let path = opts
        .out_dir
        .join(format!("{}.json", run_file_stem(workload, opts)));
    write_file(&path, &run_file.pretty())?;
    eprintln!("run file: {}", path.display());

    Ok(RunResult { line, correct })
}

/// `<workload>-s<seed>-<mode>-<unix millis>`: unique per run, sortable.
fn run_file_stem(workload: &Workload, opts: &RunOptions) -> String {
    let millis = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_millis());
    format!(
        "{}-s{}-{}-{millis}",
        workload.name,
        opts.seed,
        if opts.trace { "traced" } else { "timed" }
    )
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))
}

/// The human-readable report. It goes to standard output ahead of the
/// result line, which stays the last line.
fn print_tables(
    workload: &Workload,
    opts: &RunOptions,
    reps: &[Repetition],
    e2e: &BTreeMap<&'static str, Summary>,
    layers: &BTreeMap<&'static str, f64>,
) {
    println!(
        "{}: {} repetitions, mix `{}`; busy threads {}",
        workload.name,
        reps.len(),
        workload.mix.name,
        workload.busy_threads
    );
    println!(
        "  {:<20} {:>14} {:<6} {:>14} {:>14} {:>14} {:>8}  bound",
        "end-to-end", "reported", "unit", "q1", "median", "q3", "spread"
    );
    for m in &END_TO_END {
        let s = e2e[m.name];
        println!(
            "  {:<20} {:>14.6} {:<6} {:>14.6} {:>14.6} {:>14.6} {:>7.2}%  {:.0}% ({} is better; reports the {})",
            m.name,
            m.reported(&s),
            m.unit,
            s.q1,
            s.median,
            s.q3,
            s.spread() * 100.0,
            m.bound.unwrap_or(0.0) * 100.0,
            m.better.as_str(),
            match (m.pick, m.better) {
                (Pick::Median, _) => "median",
                (Pick::BestQuartile, Better::Lower) => "q1",
                (Pick::BestQuartile, Better::Higher) => "q3",
            },
        );
    }
    if let Some(n) = reps
        .first()
        .map(|r| r.queries_issued as usize)
        .filter(|&n| n > 0)
    {
        println!(
            "  query latency: {n} samples per repetition; p99 has {} beyond it, p99.9 has {} (reported, not gated)",
            samples_beyond(n, 99.0),
            samples_beyond(n, 99.9)
        );
    }
    println!("  {:<34} {:>16} unit", "per-layer", "value");
    let shown: &[MetricDef] = if opts.trace { &WALK } else { &[] };
    for m in COUNTERS.iter().chain(shown) {
        if let Some(v) = layers.get(m.name) {
            println!("  {:<34} {:>16.6} {}", m.name, v, m.unit);
        }
    }
}
