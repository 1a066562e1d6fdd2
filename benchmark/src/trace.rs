//! In-memory span recorder for the traced run and the layer walk.
//!
//! Spans are recorded from the benchmark's own files, around calls into
//! the program's layers; nothing inside the program is instrumented.
//! They are kept in memory and written out once, when the run ends.
//! A span carries a name, start and end, the span that caused it
//! (`parent`) and a `key` shared by all spans of one unit of work — a
//! window, a training iteration or a query.

use crate::json::Json;
use crate::stats;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

pub type SpanId = u64;

/// No parent: a root span.
pub const ROOT: SpanId = 0;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: SpanId,
    pub parent: SpanId,
    pub name: &'static str,
    /// Window, iteration or query ordinal this span belongs to.
    pub key: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; it is recorded when the returned guard drops.
    pub fn span(&self, name: &'static str, parent: SpanId, key: u64) -> SpanGuard<'_> {
        SpanGuard {
            tracer: self,
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            name,
            key,
            start_ns: self.now_ns(),
        }
    }

    /// Time one call as a span and return its result.
    pub fn record<T>(
        &self,
        name: &'static str,
        parent: SpanId,
        key: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let _guard = self.span(name, parent, key);
        f()
    }

    /// All spans recorded so far, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("a thread panicked while recording a span")
            .clone()
    }
}

pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    id: SpanId,
    parent: SpanId,
    name: &'static str,
    key: u64,
    start_ns: u64,
}

impl SpanGuard<'_> {
    /// Id to pass as `parent` to spans this one causes.
    pub fn id(&self) -> SpanId {
        self.id
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let span = Span {
            id: self.id,
            parent: self.parent,
            name: self.name,
            key: self.key,
            start_ns: self.start_ns,
            end_ns: self.tracer.now_ns(),
        };
        // Never panic in drop: a poisoned recorder still takes the span.
        match self.tracer.spans.lock() {
            Ok(mut spans) => spans.push(span),
            Err(poisoned) => poisoned.into_inner().push(span),
        }
    }
}

/// Self time of every span: its duration minus the part of that interval
/// its child spans cover (overlapping children are merged first, and
/// clipped to the parent).
pub fn self_times_ns(spans: &[Span]) -> BTreeMap<SpanId, u64> {
    let mut children: BTreeMap<SpanId, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != ROOT {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0u64;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut cursor = s.start_ns;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(cursor), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        cursor = b;
                    }
                }
            }
            (s.id, s.dur_ns() - covered)
        })
        .collect()
}

/// Per span name: the self time of each unit of work, in seconds.
/// Spans sharing a `(name, key)` are one unit (a layer entered twice for
/// the same window) and their self times add up.
pub fn self_seconds_by_name(spans: &[Span]) -> BTreeMap<&'static str, Vec<f64>> {
    let self_ns = self_times_ns(spans);
    let mut units: BTreeMap<(&'static str, u64), u64> = BTreeMap::new();
    for s in spans {
        *units.entry((s.name, s.key)).or_default() += self_ns[&s.id];
    }
    let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for ((name, _), ns) in units {
        out.entry(name).or_default().push(ns as f64 * 1e-9);
    }
    out
}

/// Median self time per unit of work for `name`, in seconds; 0 when the
/// walk never entered that layer on this workload.
pub fn median_self_s(by_name: &BTreeMap<&'static str, Vec<f64>>, name: &str) -> f64 {
    by_name.get(name).map_or(0.0, |v| stats::median(v))
}

/// Total self time over all units of `name`, in seconds.
pub fn total_self_s(by_name: &BTreeMap<&'static str, Vec<f64>>, name: &str) -> f64 {
    by_name.get(name).map_or(0.0, |v| v.iter().sum())
}

pub fn spans_to_json(spans: &[Span]) -> Json {
    Json::Arr(
        spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("id", Json::Num(s.id as f64)),
                    ("parent", Json::Num(s.parent as f64)),
                    ("name", Json::str(s.name)),
                    ("key", Json::Num(s.key as f64)),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, key: u64, a: u64, b: u64) -> Span {
        Span {
            id,
            parent,
            name,
            key,
            start_ns: a,
            end_ns: b,
        }
    }

    #[test]
    fn self_time_subtracts_merged_clipped_children() {
        let spans = vec![
            span(1, ROOT, "window", 0, 0, 100),
            span(2, 1, "a", 0, 10, 30),
            span(3, 1, "b", 0, 20, 50),  // overlaps a: union is 10..50
            span(4, 1, "c", 0, 90, 120), // sticks out: clipped to 90..100
            span(5, 2, "leaf", 0, 12, 18),
        ];
        let st = self_times_ns(&spans);
        assert_eq!(st[&1], 100 - 40 - 10);
        assert_eq!(st[&2], 20 - 6);
        assert_eq!(st[&3], 30);
        assert_eq!(st[&5], 6);
    }

    #[test]
    fn units_sharing_a_key_add_up_and_medians_are_per_unit() {
        let spans = vec![
            span(1, ROOT, "read", 0, 0, 1_000),
            span(2, ROOT, "read", 0, 2_000, 2_500), // same window again
            span(3, ROOT, "read", 1, 3_000, 3_300),
            span(4, ROOT, "read", 2, 4_000, 4_100),
        ];
        let by = self_seconds_by_name(&spans);
        let mut units_ns: Vec<u64> = by["read"]
            .iter()
            .map(|s| (s * 1e9).round() as u64)
            .collect();
        units_ns.sort_unstable();
        assert_eq!(units_ns, vec![100, 300, 1_500]);
        assert!((median_self_s(&by, "read") - 3e-7).abs() < 1e-15);
        assert!((total_self_s(&by, "read") - 1.9e-6).abs() < 1e-15);
        assert_eq!(median_self_s(&by, "never_entered"), 0.0);
    }

    #[test]
    fn guards_record_parents_keys_and_ordered_times() {
        let t = Tracer::new();
        {
            let root = t.span("rep", ROOT, 7);
            t.record("child", root.id(), 7, || std::hint::black_box(1 + 1));
        }
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        let (child, root) = (&spans[0], &spans[1]);
        assert_eq!((child.name, root.name), ("child", "rep"));
        assert_eq!(child.parent, root.id);
        assert_eq!(root.parent, ROOT);
        assert_eq!((child.key, root.key), (7, 7));
        assert!(root.start_ns <= child.start_ns && child.end_ns <= root.end_ns);
        let json = spans_to_json(&spans);
        assert_eq!(json.as_arr().unwrap().len(), 2);
    }
}
