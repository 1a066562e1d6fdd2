//! The five lint rules.
//!
//! All rules operate on *pre-processed* source (comments/strings blanked,
//! `#[cfg(test)]` items removed — see [`crate::lexer`]), so needles never
//! fire inside comments, string literals, or test code.
//!
//! | rule | invariant |
//! |------|-----------|
//! | `hash-collections`    | no `HashMap`/`HashSet` outside the shims — iteration order leaks into collectives, telemetry, and serialized specs |
//! | `hot-path-unwrap`     | no `.unwrap()`/`.expect(` in staging/cluster/core — hot paths return typed `StagingError`/`CommError` |
//! | `raw-sync`            | no `std::thread::spawn` / raw `std::sync` primitives outside the shims and `core::workflow` — everything must go through the instrumented shims |
//! | `unordered-par-reduce`| no `.sum()`/`.product()`/`.reduce()` at the top level of a rayon parallel-iterator chain — float reduction order must not depend on the split |
//! | `raw-sleep`           | no `thread::sleep` outside `crates/cluster/src/pace.rs` and the shims — the OS timer overshoots a microsecond sleep ≈ 50×, so waits block on their event and modelled delays go through the pacer |

/// One lint hit: rule id, repo-relative path, 1-based line, and the
/// original source line text (for reporting and allowlist matching).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    pub rule: &'static str,
    pub path: String,
    pub line: usize,
    pub text: String,
}

pub const RULE_HASH: &str = "hash-collections";
pub const RULE_UNWRAP: &str = "hot-path-unwrap";
pub const RULE_SYNC: &str = "raw-sync";
pub const RULE_REDUCE: &str = "unordered-par-reduce";
pub const RULE_SLEEP: &str = "raw-sleep";

fn is_ident(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Byte offsets of `needle` in `hay` with identifier-boundary checks on
/// whichever ends of the needle are identifier characters (so `Once`
/// does not match inside `OnceLock`, and `par_chunks` does not match
/// inside `par_chunks_mut`).
fn find_bounded(hay: &str, needle: &str) -> Vec<usize> {
    let h = hay.as_bytes();
    let n = needle.as_bytes();
    let check_start = n.first().copied().is_some_and(is_ident);
    let check_end = n.last().copied().is_some_and(is_ident);
    let mut out = Vec::new();
    if n.is_empty() || h.len() < n.len() {
        return out;
    }
    for p in 0..=h.len() - n.len() {
        if &h[p..p + n.len()] != n {
            continue;
        }
        if check_start && p > 0 && is_ident(h[p - 1]) {
            continue;
        }
        if check_end && p + n.len() < h.len() && is_ident(h[p + n.len()]) {
            continue;
        }
        out.push(p);
    }
    out
}

fn line_of(src: &str, offset: usize) -> usize {
    src.as_bytes()[..offset]
        .iter()
        .filter(|&&b| b == b'\n')
        .count()
        + 1
}

fn line_text(original: &str, line: usize) -> String {
    original
        .lines()
        .nth(line - 1)
        .unwrap_or("")
        .trim()
        .to_string()
}

fn push(
    out: &mut Vec<Violation>,
    rule: &'static str,
    path: &str,
    original: &str,
    stripped: &str,
    offset: usize,
) {
    let line = line_of(stripped, offset);
    out.push(Violation {
        rule,
        path: path.to_string(),
        line,
        text: line_text(original, line),
    });
}

/// `hash-collections`: any mention of `HashMap`/`HashSet`.
pub fn hash_collections(path: &str, original: &str, stripped: &str) -> Vec<Violation> {
    let mut out = Vec::new();
    for needle in ["HashMap", "HashSet"] {
        for off in find_bounded(stripped, needle) {
            push(&mut out, RULE_HASH, path, original, stripped, off);
        }
    }
    out
}

/// `hot-path-unwrap`: `.unwrap()` / `.expect(` calls.
pub fn hot_path_unwrap(path: &str, original: &str, stripped: &str) -> Vec<Violation> {
    let mut out = Vec::new();
    for needle in [".unwrap()", ".expect("] {
        for off in find_bounded(stripped, needle) {
            push(&mut out, RULE_UNWRAP, path, original, stripped, off);
        }
    }
    out
}

/// `raw-sync`: `std::thread::spawn`, `use std::thread`, and
/// `std::sync::{Mutex,RwLock,Condvar,Barrier,mpsc,Once}`. Atomics,
/// `Arc`, and `OnceLock` stay allowed.
pub fn raw_sync(path: &str, original: &str, stripped: &str) -> Vec<Violation> {
    const BANNED_SYNC: &[&str] = &["Mutex", "RwLock", "Condvar", "Barrier", "mpsc", "Once"];
    let mut out = Vec::new();
    let mut offset = 0usize;
    for line in stripped.lines() {
        let hit = line.contains("std::thread::spawn")
            || line.contains("use std::thread")
            || (line.contains("std::sync::")
                && BANNED_SYNC
                    .iter()
                    .any(|n| !find_bounded(line, n).is_empty()));
        if hit {
            push(&mut out, RULE_SYNC, path, original, stripped, offset);
        }
        offset += line.len() + 1;
    }
    out
}

/// `unordered-par-reduce`: a `.sum(`/`.product(`/`.reduce(` applied at
/// the top level of a statement that contains a rayon parallel-iterator
/// marker. Sequential reductions *inside* the parallel closure (the
/// sanctioned fixed-chunk pattern) sit at bracket depth ≥ 1 and are not
/// flagged.
pub fn unordered_par_reduce(path: &str, original: &str, stripped: &str) -> Vec<Violation> {
    const MARKERS: &[&str] = &[
        "par_iter",
        "par_iter_mut",
        "into_par_iter",
        "par_bridge",
        "par_chunks",
        "par_chunks_mut",
        "par_chunks_exact",
    ];
    const REDUCERS: &[&str] = &[".sum(", ".sum::", ".product(", ".product::", ".reduce("];
    let mut out = Vec::new();
    let mut starts: Vec<usize> = Vec::new();
    for m in MARKERS {
        for off in find_bounded(stripped, m) {
            starts.push(off + m.len());
        }
    }
    starts.sort_unstable();
    let bytes = stripped.as_bytes();
    for start in starts {
        let mut depth = 0i32;
        let mut i = start;
        while i < bytes.len() {
            match bytes[i] {
                b'(' | b'[' | b'{' => depth += 1,
                b')' | b']' | b'}' => {
                    depth -= 1;
                    if depth < 0 {
                        break;
                    }
                }
                b';' if depth == 0 => break,
                b'.' if depth == 0 => {
                    let rest = &stripped[i..];
                    if REDUCERS.iter().any(|r| rest.starts_with(r)) {
                        push(&mut out, RULE_REDUCE, path, original, stripped, i);
                    }
                }
                _ => {}
            }
            i += 1;
        }
    }
    out.sort_by_key(|v| v.line);
    out.dedup();
    out
}

/// `raw-sleep`: any `thread::sleep` call or import.
pub fn raw_sleep(path: &str, original: &str, stripped: &str) -> Vec<Violation> {
    let mut out = Vec::new();
    for off in find_bounded(stripped, "thread::sleep") {
        push(&mut out, RULE_SLEEP, path, original, stripped, off);
    }
    out
}

/// Run every rule whose scope covers `path` (repo-relative).
pub fn run_all(path: &str, original: &str) -> Vec<Violation> {
    let stripped = crate::lexer::blank_test_items(&crate::lexer::strip(original));
    let mut out = Vec::new();
    if in_scope_hash(path) {
        out.extend(hash_collections(path, original, &stripped));
    }
    if in_scope_unwrap(path) {
        out.extend(hot_path_unwrap(path, original, &stripped));
    }
    if in_scope_sync(path) {
        out.extend(raw_sync(path, original, &stripped));
    }
    if in_scope_reduce(path) {
        out.extend(unordered_par_reduce(path, original, &stripped));
    }
    if in_scope_sleep(path) {
        out.extend(raw_sleep(path, original, &stripped));
    }
    out
}

fn is_tooling(path: &str) -> bool {
    path.starts_with("crates/shims/")
        || path.starts_with("crates/xtask/")
        || path.starts_with("crates/detect/")
}

fn in_scope_hash(path: &str) -> bool {
    !is_tooling(path)
}

fn in_scope_unwrap(path: &str) -> bool {
    path.starts_with("crates/staging/src")
        || path.starts_with("crates/cluster/src")
        || path.starts_with("crates/core/src")
}

fn in_scope_sync(path: &str) -> bool {
    !is_tooling(path) && path != "crates/core/src/workflow.rs"
}

fn in_scope_reduce(path: &str) -> bool {
    !is_tooling(path)
}

fn in_scope_sleep(path: &str) -> bool {
    !is_tooling(path) && path != "crates/cluster/src/pace.rs"
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prep(src: &str) -> String {
        crate::lexer::blank_test_items(&crate::lexer::strip(src))
    }

    // -- known-bad fixtures: each rule fires exactly once --

    #[test]
    fn fixture_hash_collections_fires_once() {
        let bad = "use std::collections::HashMap;\nfn f() { let m: BTreeMap<u8, u8> = BTreeMap::new(); }\n";
        let v = hash_collections("crates/core/src/x.rs", bad, &prep(bad));
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 1);
        assert_eq!(v[0].rule, RULE_HASH);
    }

    #[test]
    fn fixture_hot_path_unwrap_fires_once() {
        let bad = "fn f(x: Option<u8>) -> u8 {\n    x.unwrap()\n}\nfn g(x: Option<u8>) -> u8 { x.unwrap_or(0) }\n";
        let v = hot_path_unwrap("crates/staging/src/x.rs", bad, &prep(bad));
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 2);
        assert_eq!(v[0].rule, RULE_UNWRAP);
    }

    #[test]
    fn fixture_raw_sync_fires_once() {
        let bad = "use std::sync::{Arc, Mutex};\nuse std::sync::atomic::AtomicU64;\nuse std::sync::OnceLock;\nfn f() { let _ = parking_lot::Mutex::new(0); }\n";
        let v = raw_sync("crates/nn/src/x.rs", bad, &prep(bad));
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 1);
        assert_eq!(v[0].rule, RULE_SYNC);
    }

    #[test]
    fn fixture_raw_thread_spawn_fires() {
        let bad = "fn f() { let h = std::thread::spawn(|| 1); h.join().ok(); }\n";
        let v = raw_sync("crates/nn/src/x.rs", bad, &prep(bad));
        assert_eq!(v.len(), 1, "{v:?}");
    }

    #[test]
    fn fixture_unordered_par_reduce_fires_once() {
        let bad = "fn f(v: &[f32]) -> f32 {\n    v.par_iter().map(|x| x * x).sum::<f32>()\n}\n\
                   fn ok(v: &[f32]) -> Vec<f32> {\n    v.par_chunks(64).map(|c| c.iter().sum::<f32>()).collect()\n}\n";
        let v = unordered_par_reduce("crates/pic/src/x.rs", bad, &prep(bad));
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 2);
        assert_eq!(v[0].rule, RULE_REDUCE);
    }

    #[test]
    fn fixture_raw_sleep_fires_once() {
        let bad = "fn poll() {\n    std::thread::sleep(std::time::Duration::from_micros(200));\n}\n\
                   fn ok(c: &parking_lot::Condvar, g: &mut parking_lot::MutexGuard<'_, u8>) { c.wait(g); }\n";
        let v = raw_sleep("crates/serve/src/x.rs", bad, &prep(bad));
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 2);
        assert_eq!(v[0].rule, RULE_SLEEP);
    }

    #[test]
    fn raw_sleep_spares_tests_comments_and_the_pacer() {
        let src = "// thread::sleep overshoots\nfn sleep_for() {}\n\
                   #[cfg(test)]\nmod tests {\n    fn t() { std::thread::sleep(D); }\n}\n";
        assert!(raw_sleep("crates/serve/src/x.rs", src, &prep(src)).is_empty());
        let pacer = "pub fn sleep_for(d: Duration) { std::thread::sleep(d); }\n";
        assert!(run_all("crates/cluster/src/pace.rs", pacer).is_empty());
        assert_eq!(run_all("crates/cluster/src/comm.rs", pacer).len(), 1);
    }

    // -- negative space: stripped regions and scopes --

    #[test]
    fn needles_in_comments_strings_tests_do_not_fire() {
        let src = "// HashMap in a comment\nconst S: &str = \"std::sync::Mutex\";\n\
                   #[cfg(test)]\nmod tests {\n    fn t(x: Option<u8>) { x.unwrap(); }\n}\n";
        let stripped = prep(src);
        assert!(hash_collections("crates/core/src/x.rs", src, &stripped).is_empty());
        assert!(raw_sync("crates/core/src/x.rs", src, &stripped).is_empty());
        assert!(hot_path_unwrap("crates/core/src/x.rs", src, &stripped).is_empty());
    }

    #[test]
    fn once_needle_has_ident_boundaries() {
        let src = "use std::sync::OnceLock;\nstatic X: OnceLock<u8> = OnceLock::new();\n";
        assert!(raw_sync("crates/core/src/x.rs", src, &prep(src)).is_empty());
    }

    #[test]
    fn reduce_across_multiline_chain_fires() {
        let src = "fn f(v: &[f64]) -> f64 {\n    v.par_iter()\n        .map(|x| x + 1.0)\n        .reduce(|| 0.0, |a, b| a + b)\n}\n";
        let v = unordered_par_reduce("crates/pic/src/x.rs", src, &prep(src));
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 4);
    }

    #[test]
    fn scopes() {
        assert!(in_scope_unwrap("crates/staging/src/engine.rs"));
        assert!(!in_scope_unwrap("crates/pic/src/tile.rs"));
        assert!(!in_scope_sync("crates/core/src/workflow.rs"));
        assert!(!in_scope_sync("crates/shims/rayon/src/lib.rs"));
        assert!(in_scope_sync("crates/bench/src/bin/fig_faults.rs"));
        assert!(in_scope_hash("src/lib.rs"));
        assert!(in_scope_sleep("crates/bench/src/bin/fig_faults.rs"));
        assert!(!in_scope_sleep("crates/cluster/src/pace.rs"));
        assert!(!in_scope_sleep("crates/shims/criterion/src/lib.rs"));
    }
}
