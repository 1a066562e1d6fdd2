//! `as-benchmark compare <set A> <set B>`: one row per (metric, workload).
//!
//! A set is a directory of run files. Each side's sample is the values
//! its timed runs reported (a run's median or better quartile over its
//! repetitions, as the metric registry says); a side with a single run
//! falls back to that run's own quartiles over repetitions. Verdicts use the bounds
//! `BENCHMARK.json` fixes, and every ratio is printed with its base.

use crate::json::Json;
use crate::metrics::Better;
use crate::stats::Summary;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// A side's own quartile distance exceeds the bound: the runs cannot
    /// resolve a change of the size the bound is meant to catch.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge B against A for one metric.
///
/// - `unresolved` when either side's `(q3 − q1) / median` exceeds `bound`;
/// - `worse` when B's median is worse than A's by more than `bound`;
/// - `better` when B's median is better than A's by more than A's own
///   quartile distance — a gain has to stand clear of the parent's noise,
///   not of the regression bound;
/// - `same` otherwise.
pub fn verdict(a: Summary, b: Summary, better: Better, bound: f64) -> Verdict {
    if a.spread() > bound || b.spread() > bound {
        return Verdict::Unresolved;
    }
    let worse_by = better.worse_by(a.median, b.median);
    if worse_by > bound {
        Verdict::Worse
    } else if -worse_by > a.spread() && worse_by < 0.0 {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

struct SpecMetric {
    name: String,
    unit: String,
    better: Better,
    bound: f64,
}

fn load_json(path: &Path) -> Result<Json, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn load_spec(path: &Path) -> Result<(Vec<String>, Vec<SpecMetric>), String> {
    let doc = load_json(path)?;
    let bad = |what: &str| format!("{}: {what}", path.display());
    let workloads = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .ok_or_else(|| bad("no workloads"))?
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str).map(str::to_string))
        .collect();
    let metrics = doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or_else(|| bad("no end_to_end"))?
        .iter()
        .map(|m| {
            Some(SpecMetric {
                name: m.get("name")?.as_str()?.to_string(),
                unit: m.get("unit")?.as_str()?.to_string(),
                better: Better::parse(m.get("better")?.as_str()?)?,
                bound: m.get("bound")?.as_f64()?,
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| bad("malformed end_to_end entry"))?;
    Ok((workloads, metrics))
}

/// One run file's reported value and `(median, q1, q3)` per metric.
type RunMetrics = BTreeMap<String, (f64, Summary)>;

/// All timed, non-smoke runs of a set, grouped by workload.
fn load_set(dir: &Path) -> Result<BTreeMap<String, Vec<RunMetrics>>, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("read {}: {e}", dir.display()))?;
    let mut paths: Vec<_> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
            name.ends_with(".json") && !name.ends_with(".trace.json")
        })
        .collect();
    paths.sort();
    let mut set: BTreeMap<String, Vec<RunMetrics>> = BTreeMap::new();
    for path in paths {
        let doc = load_json(&path)?;
        let Some(manifest) = doc.get("manifest") else {
            continue; // not a run file
        };
        let timed = manifest.get("mode").and_then(Json::as_str) == Some("timed");
        let smoke = manifest.get("smoke") == Some(&Json::Bool(true));
        let (Some(workload), true, false) = (
            manifest.get("workload").and_then(Json::as_str),
            timed,
            smoke,
        ) else {
            continue;
        };
        let mut run = RunMetrics::new();
        for (name, m) in doc.get("end_to_end").and_then(Json::as_obj).unwrap_or(&[]) {
            let num = |k: &str| m.get(k).and_then(Json::as_f64);
            if let (Some(median), Some(q1), Some(q3)) = (num("median"), num("q1"), num("q3")) {
                let value = num("value").unwrap_or(median);
                run.insert(name.clone(), (value, Summary { median, q1, q3 }));
            }
        }
        set.entry(workload.to_string()).or_default().push(run);
    }
    if set.is_empty() {
        return Err(format!("{}: no timed run files", dir.display()));
    }
    Ok(set)
}

/// A side's summary for one metric: over the values its runs reported,
/// or the single run's own quartiles.
fn side(runs: &[RunMetrics], metric: &str) -> Option<(Summary, usize)> {
    let per_run: Vec<(f64, Summary)> = runs.iter().filter_map(|r| r.get(metric).copied()).collect();
    match per_run.as_slice() {
        [] => None,
        [(_, only)] => Some((*only, 1)),
        many => {
            let values: Vec<f64> = many.iter().map(|(v, _)| *v).collect();
            Some((Summary::of(&values), many.len()))
        }
    }
}

pub fn compare(a_dir: &Path, b_dir: &Path, spec_path: &Path) -> Result<String, String> {
    let (workloads, metrics) = load_spec(spec_path)?;
    let (a, b) = (load_set(a_dir)?, load_set(b_dir)?);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "A = {}\nB = {}\nratios are B/A; base = A's median; bounds from {}",
        a_dir.display(),
        b_dir.display(),
        spec_path.display()
    );
    let _ = writeln!(
        out,
        "{:<12} {:<20} {:>4} {:>13} {:>20} {:>4} {:>13} {:>20} {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "nA",
        "A median",
        "A [q1, q3]",
        "nB",
        "B median",
        "B [q1, q3]",
        "B/A",
        "bound"
    );
    let mut tally: BTreeMap<&'static str, usize> = BTreeMap::new();
    for w in &workloads {
        let (Some(ra), Some(rb)) = (a.get(w), b.get(w)) else {
            let _ = writeln!(out, "{w:<12} (not in both sets)");
            continue;
        };
        for m in &metrics {
            let (Some((sa, na)), Some((sb, nb))) = (side(ra, &m.name), side(rb, &m.name)) else {
                continue;
            };
            let v = verdict(sa, sb, m.better, m.bound);
            *tally.entry(v.as_str()).or_default() += 1;
            let _ = writeln!(
                out,
                "{:<12} {:<20} {:>4} {:>13.6} {:>20} {:>4} {:>13.6} {:>20} {:>8.4} {:>5.0}%  {} ({} is better, {}; base {:.6})",
                w,
                m.name,
                na,
                sa.median,
                format!("[{:.5}, {:.5}]", sa.q1, sa.q3),
                nb,
                sb.median,
                format!("[{:.5}, {:.5}]", sb.q1, sb.q3),
                sb.median / sa.median,
                m.bound * 100.0,
                v.as_str(),
                m.better.as_str(),
                m.unit,
                sa.median,
            );
        }
    }
    let _ = writeln!(out, "verdicts: {tally:?}");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Better::{Higher, Lower};

    fn s(median: f64, q1: f64, q3: f64) -> Summary {
        Summary { median, q1, q3 }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_noise() {
        let a = s(100.0, 99.0, 101.0); // 2 % spread
                                       // Throughput (higher is better), 10 % bound.
        assert_eq!(
            verdict(a, s(85.0, 84.0, 86.0), Higher, 0.10),
            Verdict::Worse
        );
        assert_eq!(verdict(a, s(95.0, 94.0, 96.0), Higher, 0.10), Verdict::Same);
        assert_eq!(
            verdict(a, s(101.0, 100.0, 102.0), Higher, 0.10),
            Verdict::Same
        );
        assert_eq!(
            verdict(a, s(104.0, 103.0, 105.0), Higher, 0.10),
            Verdict::Better
        );
        // Latency (lower is better): the same numbers flip.
        assert_eq!(
            verdict(a, s(115.0, 114.0, 116.0), Lower, 0.10),
            Verdict::Worse
        );
        assert_eq!(
            verdict(a, s(96.0, 95.0, 97.0), Lower, 0.10),
            Verdict::Better
        );
        // Either side noisier than the bound: no verdict, whatever the medians.
        assert_eq!(
            verdict(s(100.0, 90.0, 105.0), s(50.0, 49.0, 51.0), Higher, 0.10),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(a, s(104.0, 95.0, 110.0), Higher, 0.10),
            Verdict::Unresolved
        );
        // A constant metric (spread 0) compares cleanly.
        let one = s(1.0, 1.0, 1.0);
        assert_eq!(verdict(one, one, Higher, 0.05), Verdict::Same);
    }
}
