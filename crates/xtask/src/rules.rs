//! The seven lint rules.
//!
//! All rules operate on *pre-processed* source (comments/strings blanked,
//! `#[cfg(test)]` items removed — see [`crate::lexer`]), so needles never
//! fire inside comments, string literals, or test code. The first six read
//! one file at a time ([`run_all`]); `unreached-pub` reads the whole
//! workspace at once ([`unreached_pub`]).
//!
//! | rule | invariant |
//! |------|-----------|
//! | `hash-collections`    | no `HashMap`/`HashSet` outside the shims — iteration order leaks into collectives, telemetry, and serialized specs |
//! | `hot-path-unwrap`     | no `.unwrap()`/`.expect(` in staging/cluster/core/serve — hot paths return typed `StagingError`/`CommError`/`SnapshotError` |
//! | `raw-sync`            | no `std::thread::spawn` / raw `std::sync` primitives outside the shims and `core::workflow` — everything must go through the instrumented shims |
//! | `unordered-par-reduce`| no `.sum()`/`.product()`/`.reduce()` at the top level of a rayon parallel-iterator chain — float reduction order must not depend on the split |
//! | `raw-sleep`           | no `thread::sleep` outside `crates/cluster/src/pace.rs` and the shims — the OS timer overshoots a microsecond sleep ≈ 50×, so waits block on their event and modelled delays go through the pacer |
//! | `fused-multiply`      | no `mul_add` under `crates/*/src`, and `target_feature`/`is_x86_feature_detected` only in the five files whose kernels have a run-time-picked AVX2 instance — an FMA rounds once where the baseline rounds twice, and the instances' bit identity rests on there being none |
//! | `unreached-pub`       | no `pub` fn, const, static, type, trait or named re-export in a library under `crates/` (shims and xtask aside) that nothing outside that library reaches — by name, through a reached item's signature or `pub` field, or (for a re-export) by the path it creates — `pub` hides dead code from rustc's `dead_code` lint, so an item no caller reaches is `pub(crate)` or private |

use std::collections::{BTreeMap, BTreeSet};

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
pub const RULE_FMA: &str = "fused-multiply";
pub const RULE_UNREACHED: &str = "unreached-pub";

/// The files that compile a kernel body a second time for AVX2 and pick
/// the instance at run time.
const DISPATCH_FILES: &[&str] = &[
    "crates/tensor/src/matmul.rs",
    "crates/nn/src/layers.rs",
    "crates/nn/src/loss.rs",
    "crates/radiation/src/lienard.rs",
    "crates/pic/src/tile.rs",
];

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

/// `fused-multiply`: any `mul_add`, and outside [`DISPATCH_FILES`] any
/// `target_feature` or `is_x86_feature_detected`.
pub fn fused_multiply(path: &str, original: &str, stripped: &str) -> Vec<Violation> {
    let mut needles = vec!["mul_add"];
    if !DISPATCH_FILES.contains(&path) {
        needles.extend(["target_feature", "is_x86_feature_detected"]);
    }
    let mut out = Vec::new();
    for needle in needles {
        for off in find_bounded(stripped, needle) {
            push(&mut out, RULE_FMA, path, original, stripped, off);
        }
    }
    out.sort_by_key(|v| v.line);
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
    if in_scope_fma(path) {
        out.extend(fused_multiply(path, original, &stripped));
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
        || path.starts_with("crates/serve/src")
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

/// `crates/<crate>/src/…`: the workspace's library and binary sources.
fn in_scope_fma(path: &str) -> bool {
    let mut parts = path.split('/');
    parts.next() == Some("crates") && parts.nth(1) == Some("src")
}

/// The crate whose library `path` belongs to: `crates/<c>/src/…` minus
/// `src/bin/**` and `src/main.rs`. `None` for every other location
/// (bins, tests, benches, examples, the shims' nested crates, the root
/// package, `benchmark/`), which only ever call.
fn library_of(path: &str) -> Option<&str> {
    let (krate, rest) = path.strip_prefix("crates/")?.split_once('/')?;
    let rest = rest.strip_prefix("src/")?;
    (rest != "main.rs" && !rest.starts_with("bin/")).then_some(krate)
}

/// A token of stripped source: an identifier (or number), `::`, or any
/// other single punctuation byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tok<'s> {
    Ident(&'s str),
    PathSep,
    Punct(u8),
}

/// The tokens of stripped source with their byte offsets.
fn tokens(stripped: &str) -> Vec<(usize, Tok<'_>)> {
    let b = stripped.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < b.len() {
        let start = i;
        if is_ident(b[i]) {
            while i < b.len() && is_ident(b[i]) {
                i += 1;
            }
            out.push((start, Tok::Ident(&stripped[start..i])));
        } else if b[i..].starts_with(b"::") {
            out.push((start, Tok::PathSep));
            i += 2;
        } else {
            if b[i].is_ascii_graphic() {
                out.push((start, Tok::Punct(b[i])));
            }
            i += 1;
        }
    }
    out
}

/// The identifiers among `toks`.
fn idents<'t, 's>(toks: &'t [(usize, Tok<'s>)]) -> impl Iterator<Item = &'s str> + 't {
    toks.iter().filter_map(|t| match t.1 {
        Tok::Ident(w) => Some(w),
        _ => None,
    })
}

/// One leaf of a path or `use` tree: its segments (a glob ends in `*`,
/// `self` is folded into its parent) and its `as` alias.
type Leaf<'s> = (Vec<&'s str>, Option<&'s str>);

/// Parse the path or `use` tree starting at `toks[i]` below `prefix`,
/// appending its leaves to `out`; returns the index after it.
fn path_tree<'s>(
    toks: &[(usize, Tok<'s>)],
    mut i: usize,
    prefix: &[&'s str],
    out: &mut Vec<Leaf<'s>>,
) -> usize {
    let mut segs = prefix.to_vec();
    while let Some(&(_, tok)) = toks.get(i) {
        match tok {
            Tok::Ident(w) => segs.push(w),
            Tok::Punct(b'*') => segs.push("*"),
            Tok::Punct(b'{') => {
                i += 1;
                while let Some(&(_, tok)) = toks.get(i) {
                    i = match tok {
                        Tok::Punct(b'}') => return i + 1,
                        Tok::Punct(b',') => i + 1,
                        _ => path_tree(toks, i, &segs, out).max(i + 1),
                    };
                }
                return i;
            }
            _ => break,
        }
        i += 1;
        if toks.get(i).map(|t| t.1) != Some(Tok::PathSep) {
            break;
        }
        i += 1;
    }
    if segs.last() == Some(&"self") {
        segs.pop();
    }
    let alias = match (toks.get(i).map(|t| t.1), toks.get(i + 1).map(|t| t.1)) {
        (Some(Tok::Ident("as")), Some(Tok::Ident(a))) => {
            i += 2;
            Some(a)
        }
        _ => None,
    };
    if segs.len() > prefix.len() {
        out.push((segs, alias));
    }
    i
}

/// Every path a file names, `use` trees expanded to their leaves.
fn paths<'s>(toks: &[(usize, Tok<'s>)]) -> Vec<Leaf<'s>> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        let starts =
            matches!(toks[i].1, Tok::Ident(_)) && (i == 0 || toks[i - 1].1 != Tok::PathSep);
        i = if starts {
            path_tree(toks, i, &[], &mut out).max(i + 1)
        } else {
            i + 1
        };
    }
    out
}

/// Index of the token closing the bracket opened at `toks[open]`.
fn close_of(toks: &[(usize, Tok<'_>)], open: usize) -> usize {
    let mut depth = 0usize;
    for (i, &(_, tok)) in toks.iter().enumerate().skip(open) {
        match tok {
            Tok::Punct(b'(' | b'[' | b'{') => depth += 1,
            Tok::Punct(b')' | b']' | b'}') => {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
            _ => {}
        }
    }
    toks.len()
}

/// Index of the first `stop` token at bracket depth 0 from `toks[i]` on.
fn until(toks: &[(usize, Tok<'_>)], mut i: usize, stop: &[u8]) -> usize {
    while let Some(&(_, tok)) = toks.get(i) {
        match tok {
            Tok::Punct(c) if stop.contains(&c) => return i,
            Tok::Punct(b'(' | b'[') => i = close_of(toks, i),
            _ => {}
        }
        i += 1;
    }
    toks.len()
}

/// The identifiers of the `pub` fields in the field list
/// `toks[open..=close]` of a struct: from each field's `pub` to the comma
/// ending it, outside brackets and generic arguments.
fn pub_fields<'s>(toks: &[(usize, Tok<'s>)], open: usize, close: usize) -> Vec<&'s str> {
    let mut out = Vec::new();
    let (mut depth, mut public) = (0usize, false);
    for i in open + 1..close {
        match toks[i].1 {
            Tok::Ident("pub") if depth == 0 => public = toks[i + 1].1 != Tok::Punct(b'('),
            Tok::Ident(w) if public => out.push(w),
            Tok::Punct(b'(' | b'[' | b'{' | b'<') => depth += 1,
            Tok::Punct(b'>') if matches!(toks[i - 1].1, Tok::Punct(b'-' | b'=')) => {}
            Tok::Punct(b')' | b']' | b'}' | b'>') => depth = depth.saturating_sub(1),
            Tok::Punct(b',') if depth == 0 => public = false,
            _ => {}
        }
    }
    out
}

/// What `unreached-pub` governs: an unrestricted `pub` item other than a
/// module, one entry per leaf of a named `pub use`.
struct PubItem<'s> {
    name: &'s str,
    /// Byte offset of its `pub`.
    off: usize,
    /// The names a reached item reaches in turn: those of a fn's
    /// signature, a const's or static's type, an alias's definition, an
    /// enum's or trait's header and body, a struct's header and `pub`
    /// fields, and the item a re-export re-exports.
    sig: Vec<&'s str>,
    /// For a re-export, the module path of its `use` below the crate root.
    module: Option<Vec<&'s str>>,
}

/// The module path of library file `path` below its crate root.
fn file_module(path: &str) -> Vec<&str> {
    let rel = path.split_once("/src/").map_or(path, |(_, r)| r);
    let mut segs: Vec<&str> = rel.trim_end_matches(".rs").split('/').collect();
    if matches!(segs.last(), Some(&("lib" | "mod"))) {
        segs.pop();
    }
    segs
}

/// The items `unreached-pub` governs in library file `path`, from its
/// stripped, test-blanked text: each unrestricted `pub` fn, const,
/// static, struct, union, enum, trait and type alias (qualifiers `unsafe`,
/// `async`, `extern` and `mut` skipped), and each named leaf of a `pub
/// use`. `pub(crate)` and the like, modules and glob re-exports are out of
/// scope.
fn pub_items<'s>(path: &'s str, live: &'s str) -> Vec<PubItem<'s>> {
    let toks = tokens(live);
    let ident = |i: usize| match toks.get(i) {
        Some(&(_, Tok::Ident(w))) => Some(w),
        _ => None,
    };
    // Inline `mod name { … }` blocks, as (first, last token index, name).
    let inline: Vec<(usize, usize, &str)> = (0..toks.len())
        .filter(|&i| {
            ident(i) == Some("mod") && toks.get(i + 2).map(|t| t.1) == Some(Tok::Punct(b'{'))
        })
        .filter_map(|i| Some((i + 2, close_of(&toks, i + 2), ident(i + 1)?)))
        .collect();
    let names = |range: std::ops::Range<usize>| -> Vec<&'s str> {
        idents(&toks[range.start..range.end.min(toks.len())]).collect()
    };
    let mut out = Vec::new();
    for k in (0..toks.len()).filter(|&k| ident(k) == Some("pub")) {
        if toks.get(k + 1).map(|t| t.1) == Some(Tok::Punct(b'(')) {
            continue;
        }
        let mut j = k + 1;
        while let Some("unsafe" | "async" | "extern" | "mut") = ident(j) {
            j += 1;
        }
        if ident(j) == Some("const")
            && matches!(ident(j + 1), Some("fn" | "unsafe" | "async" | "extern"))
        {
            j += 1;
            while let Some("unsafe" | "async" | "extern") = ident(j) {
                j += 1;
            }
        }
        let off = toks[k].0;
        let Some(kind) = ident(j) else { continue };
        if kind == "use" {
            let mut leaves = Vec::new();
            path_tree(&toks, j + 1, &[], &mut leaves);
            let mut module = file_module(path);
            module.extend(inline.iter().filter(|m| m.0 < k && k < m.1).map(|m| m.2));
            for (segs, alias) in leaves {
                let Some(&target) = segs.last().filter(|&&n| n != "*") else {
                    continue;
                };
                let (name, sig) = (alias.unwrap_or(target), vec![target]);
                let module = Some(module.clone());
                out.push(PubItem {
                    name,
                    off,
                    sig,
                    module,
                });
            }
            continue;
        }
        let mut n = j + 1;
        if kind == "static" && ident(n) == Some("mut") {
            n += 1;
        }
        let Some(name) = ident(n).filter(|&w| w != "_") else {
            continue;
        };
        let sig = match kind {
            "fn" => names(n + 1..until(&toks, n + 1, b"{;")),
            "const" | "static" => names(n + 1..until(&toks, n + 1, b"=;")),
            "type" => names(n + 1..until(&toks, n + 1, b";")),
            "enum" | "trait" => {
                let open = until(&toks, n + 1, b"{;");
                let end = match toks.get(open) {
                    Some((_, Tok::Punct(b'{'))) => close_of(&toks, open),
                    _ => open,
                };
                names(n + 1..end)
            }
            "struct" | "union" => {
                let open = until(&toks, n + 1, b"{(;");
                let mut sig = names(n + 1..open);
                if let Some((_, Tok::Punct(b'{' | b'('))) = toks.get(open) {
                    sig.extend(pub_fields(&toks, open, close_of(&toks, open)));
                }
                sig
            }
            _ => continue,
        };
        out.push(PubItem {
            name,
            off,
            sig,
            module: None,
        });
    }
    out
}

/// `unreached-pub`: every item that [`pub_items`] finds in a library
/// `crates/<c>/src` (shims and xtask aside) must be reached from outside
/// that library — from another crate's `src`, its own `src/bin` or
/// `main.rs`, any `tests`/`benches`/`examples`, the root package, or
/// `benchmark/`:
///
/// - a fn, const, static or type is reached if such a file names it as
///   an identifier outside comments and strings, or — to a fixpoint — if
///   a reached item of its library names it in its signature or a `pub`
///   field, or re-exports it (a type only ever inferred from a reached
///   fn's return is reached through that fn);
/// - a re-export is reached if such a file names the path it creates:
///   the library's crate name (or an alias of it, anywhere in a path),
///   the module path of the `use`, then its name or a glob.
///
/// `files` is every such `(repo-relative path, source)` pair and
/// `crate_names` maps a library's directory under `crates/` to its crate
/// name (the directory name when absent). The check is lexical, so a name
/// that also appears elsewhere hides its item.
pub fn unreached_pub(
    files: &[(String, String)],
    crate_names: &BTreeMap<String, String>,
) -> Vec<Violation> {
    let stripped: Vec<String> = files
        .iter()
        .map(|(_, src)| crate::lexer::strip(src))
        .collect();
    let toks: Vec<_> = stripped.iter().map(|s| tokens(s)).collect();
    // For each identifier, the libraries it is named outside of: `None`
    // when a caller-only file names it, which reaches every library.
    let mut named_from: BTreeMap<&str, BTreeSet<Option<&str>>> = BTreeMap::new();
    // Every path named, with the library naming it; and the crate aliases
    // (`use as_x as x;`).
    let mut named_paths: Vec<(Option<&str>, Vec<&str>)> = Vec::new();
    let mut aliases: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for ((path, _), toks) in files.iter().zip(&toks) {
        let owner = library_of(path);
        for word in idents(toks) {
            named_from.entry(word).or_default().insert(owner);
        }
        for (segs, alias) in paths(toks) {
            if let (&[krate], Some(alias)) = (segs.as_slice(), alias) {
                aliases.entry(krate).or_default().insert(alias);
            }
            named_paths.push((owner, segs));
        }
    }
    let lives: Vec<Option<(&str, String)>> = files
        .iter()
        .zip(&stripped)
        .map(|((path, _), text)| {
            let krate = library_of(path).filter(|&c| c != "xtask")?;
            Some((krate, crate::lexer::blank_test_items(text)))
        })
        .collect();
    let mut items: Vec<(usize, &str, PubItem)> = Vec::new();
    for (f, live) in lives.iter().enumerate() {
        if let Some((krate, live)) = live {
            let found = pub_items(&files[f].0, live);
            items.extend(found.into_iter().map(|item| (f, *krate, item)));
        }
    }
    let named_outside = |krate: &str, item: &PubItem| match &item.module {
        None => named_from
            .get(item.name)
            .is_some_and(|owners| owners.iter().any(|&o| o != Some(krate))),
        Some(module) => {
            let ident = crate_names.get(krate).map_or(krate, String::as_str);
            let mut idents = vec![ident];
            idents.extend(aliases.get(ident).into_iter().flatten());
            let len = module.len() + 2;
            let creates = |w: &[&str]| {
                idents.contains(&w[0])
                    && w[1..len - 1] == module[..]
                    && (w[len - 1] == item.name || w[len - 1] == "*")
            };
            named_paths
                .iter()
                .any(|(owner, segs)| *owner != Some(krate) && segs.windows(len).any(creates))
        }
    };
    let mut reached: Vec<bool> = items
        .iter()
        .map(|(_, krate, item)| named_outside(krate, item))
        .collect();
    // What a reached item's signature names is reached too, to a fixpoint.
    let mut by_name: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
    for (i, (_, krate, item)) in items.iter().enumerate() {
        if item.module.is_none() {
            by_name.entry((krate, item.name)).or_default().push(i);
        }
    }
    let mut queue: Vec<usize> = (0..items.len()).filter(|&i| reached[i]).collect();
    while let Some(i) = queue.pop() {
        let (_, krate, item) = &items[i];
        for &word in &item.sig {
            for &j in by_name.get(&(*krate, word)).into_iter().flatten() {
                if !reached[j] {
                    reached[j] = true;
                    queue.push(j);
                }
            }
        }
    }
    let mut out = Vec::new();
    for ((f, _, item), reached) in items.iter().zip(reached) {
        if let (false, Some((_, live))) = (reached, &lives[*f]) {
            let (path, original) = &files[*f];
            push(&mut out, RULE_UNREACHED, path, original, live, item.off);
        }
    }
    out
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
        for path in ["crates/staging/src/x.rs", "crates/serve/src/engine.rs"] {
            let v = run_all(path, bad);
            assert_eq!(v.len(), 1, "{path}: {v:?}");
            assert_eq!(v[0].line, 2);
            assert_eq!(v[0].rule, RULE_UNWRAP);
        }
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

    #[test]
    fn fixture_fused_multiply_fires_once_per_needle() {
        let bad = "fn f(a: f64, b: f64, c: f64) -> f64 {\n    a.mul_add(b, c)\n}\n\
                   #[target_feature(enable = \"avx2\")]\nfn g() {}\n\
                   fn h() -> bool { is_x86_feature_detected!(\"avx2\") }\n\
                   fn ok(a: f64, b: f64, c: f64) -> f64 { a * b + c }\n";
        let v = fused_multiply("crates/pic/src/x.rs", bad, &prep(bad));
        let lines: Vec<usize> = v.iter().map(|v| v.line).collect();
        assert_eq!(lines, [2, 4, 6], "{v:?}");
        assert!(v.iter().all(|v| v.rule == RULE_FMA));
    }

    #[test]
    fn fused_multiply_allows_dispatch_only_in_the_dispatch_files() {
        let dispatch = "#[target_feature(enable = \"avx2\")]\nfn g() {}\n\
                        fn h() -> bool { is_x86_feature_detected!(\"avx2\") }\n";
        for path in DISPATCH_FILES {
            assert!(run_all(path, dispatch).is_empty(), "{path}");
        }
        assert_eq!(run_all("crates/pic/src/deposit.rs", dispatch).len(), 2);
        let fma = "fn f(a: f32) -> f32 { a.mul_add(a, a) }\n";
        assert_eq!(run_all("crates/tensor/src/matmul.rs", fma).len(), 1);
        let spared = "// mul_add rounds once\n#[cfg(test)]\nmod tests {\n    fn t(a: f64) -> f64 { a.mul_add(a, a) }\n}\n";
        assert!(run_all("crates/nn/src/layers.rs", spared).is_empty());
        assert!(run_all("crates/bench/benches/kernels.rs", fma).is_empty());
        assert!(run_all("crates/shims/rayon/src/lib.rs", fma).is_empty());
    }

    // -- unreached-pub: whole-workspace fixtures --

    /// `unreached_pub` over library `a` with source `def` plus the given
    /// `(path, source)` files.
    fn reach(def: &str, others: &[(&str, &str)]) -> Vec<Violation> {
        let mut files = vec![("crates/a/src/lib.rs".to_string(), def.to_string())];
        files.extend(others.iter().map(|(p, s)| (p.to_string(), s.to_string())));
        unreached_pub(&files, &BTreeMap::new())
    }

    fn lines(v: &[Violation]) -> Vec<usize> {
        v.iter().map(|v| v.line).collect()
    }

    const REACH_ME: &str = "//! Library a.\npub fn reach_me() {}\n";

    #[test]
    fn fixture_unreached_pub_named_only_in_its_own_crate_fires() {
        let v = reach(
            REACH_ME,
            &[("crates/a/src/x.rs", "fn f() { crate::reach_me(); }\n")],
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!((v[0].rule, v[0].line), (RULE_UNREACHED, 2));
        assert_eq!(v[0].text, "pub fn reach_me() {}");
    }

    #[test]
    fn fixture_unreached_pub_named_only_in_a_comment_fires() {
        let b = "// a::reach_me is handy\nfn g() -> &'static str { \"reach_me\" }\n";
        assert_eq!(reach(REACH_ME, &[("crates/b/src/lib.rs", b)]).len(), 1);
    }

    const CALL: &str = "fn g() { a::reach_me(); }\n";

    #[test]
    fn fixture_unreached_pub_spares_a_call_from_another_crates_src() {
        assert!(reach(REACH_ME, &[("crates/b/src/lib.rs", CALL)]).is_empty());
    }

    #[test]
    fn fixture_unreached_pub_spares_a_call_from_benchmark_src() {
        assert!(reach(REACH_ME, &[("benchmark/src/run.rs", CALL)]).is_empty());
    }

    #[test]
    fn fixture_unreached_pub_spares_a_call_from_its_own_bin() {
        assert!(reach(REACH_ME, &[("crates/a/src/bin/tool.rs", CALL)]).is_empty());
    }

    #[test]
    fn fixture_unreached_pub_spares_a_call_from_its_own_tests() {
        assert!(reach(REACH_ME, &[("crates/a/tests/it.rs", CALL)]).is_empty());
    }

    #[test]
    fn fixture_unreached_pub_spares_pub_crate() {
        let def = "pub(crate) fn a() {}\npub(super) const B: u8 = 0;\n";
        assert!(reach(def, &[]).is_empty());
    }

    #[test]
    fn fixture_unreached_pub_spares_cfg_test_items() {
        let def = "#[cfg(test)]\npub fn c() {}\n\
                   #[cfg(test)]\nmod tests {\n    pub fn d() {}\n}\n";
        assert!(reach(def, &[]).is_empty());
    }

    #[test]
    fn unreached_pub_spares_the_other_caller_locations() {
        for caller in [
            "crates/a/src/main.rs",
            "crates/c/benches/k.rs",
            "tests/workflow.rs",
            "examples/quickstart.rs",
        ] {
            assert!(reach(REACH_ME, &[(caller, CALL)]).is_empty(), "{caller}");
        }
    }

    #[test]
    fn unreached_pub_covers_values_types_and_named_reexports_not_modules() {
        let def = "pub struct S;\npub trait T {}\npub use x::y;\npub mod m {}\n\
                   pub const K: u8 = 1;\npub static mut X: u8 = 2;\n\
                   pub const unsafe fn k() {}\npub extern \"C\" fn e() {}\n\
                   pub enum E {}\npub type A = u8;\npub union U { f: u8 }\npub use x::*;\n";
        assert_eq!(lines(&reach(def, &[])), [1, 2, 3, 5, 6, 7, 8, 9, 10, 11]);
    }

    #[test]
    fn fixture_unreached_pub_struct_named_only_in_its_own_crate_fires() {
        let def = "pub struct Lonely;\n";
        let own = (
            "crates/a/src/x.rs",
            "fn f() -> crate::Lonely { crate::Lonely }\n",
        );
        let v = reach(def, &[own]);
        assert_eq!(
            (lines(&v), v[0].text.as_str()),
            (vec![1], "pub struct Lonely;")
        );
    }

    /// A type no caller names is reached through a reached fn's signature,
    /// and through the `pub` fields of a type reached that way — never
    /// through a private field.
    #[test]
    fn fixture_unreached_pub_spares_a_type_reached_through_a_signature() {
        let def = "pub struct Made;\npub struct Inner;\n\
                   pub struct Outer<T: Bound> {\n    pub inner: BTreeMap<T, Inner>,\n    pub(crate) hidden: Hidden,\n    t: T,\n}\n\
                   pub struct Hidden;\npub trait Bound {}\n\
                   pub fn make() -> (Made, Outer<Made>) {\n    todo!()\n}\n";
        let call = ("tests/t.rs", "fn g() { let (_m, _o) = a::make(); }\n");
        assert_eq!(lines(&reach(def, &[call])), [8]);
        assert_eq!(lines(&reach(def, &[])).len(), 6, "nothing reaches make");
    }

    /// A glob-import module of the kind a prelude is.
    const PRELUDE: &str = "pub struct Tensor;\npub mod common {\n    pub use crate::Tensor;\n}\n";

    /// A re-export is reached by the path it creates, not by its name: a
    /// prelude nobody imports fires even though its names are in use.
    #[test]
    fn fixture_unreached_pub_prelude_nobody_imports_fires() {
        let v = reach(PRELUDE, &[("tests/t.rs", "use a::Tensor;\n")]);
        assert_eq!(
            (lines(&v), v[0].text.as_str()),
            (vec![3], "pub use crate::Tensor;")
        );
    }

    #[test]
    fn fixture_unreached_pub_spares_a_reexport_named_by_its_path() {
        for caller in [
            "use a::common::Tensor;\n",
            "use a::common::*;\n",
            "use a::{common::{self, Tensor as T}, Other};\n",
            "fn f() -> a::common::Tensor { a::common::Tensor }\n",
        ] {
            assert!(
                reach(PRELUDE, &[("tests/t.rs", caller)]).is_empty(),
                "{caller}"
            );
        }
    }

    /// A renamed re-export answers to its new name, under the library's
    /// crate name or an alias a caller gives the crate.
    #[test]
    fn unreached_pub_reexports_answer_to_the_crate_name_and_its_aliases() {
        let def = "mod inner {\n    pub struct Long;\n}\npub use inner::Long as Short;\n";
        let by = |callers: &[(&str, &str)], krate: &str| {
            let mut files = vec![("crates/a/src/lib.rs".to_string(), def.to_string())];
            files.extend(callers.iter().map(|(p, s)| (p.to_string(), s.to_string())));
            let names = BTreeMap::from([("a".to_string(), krate.to_string())]);
            lines(&unreached_pub(&files, &names))
        };
        assert_eq!(
            by(&[("tests/t.rs", "use as_a::Short;\n")], "as_a"),
            [] as [usize; 0]
        );
        assert_eq!(by(&[("tests/t.rs", "use a::Short;\n")], "as_a"), [2, 4]);
        assert_eq!(by(&[("tests/t.rs", "use as_a::Long;\n")], "as_a"), [4]);
        let umbrella = [
            ("src/lib.rs", "pub use as_a as alias_a;\n"),
            ("examples/e.rs", "use umbrella::alias_a::Short;\n"),
        ];
        assert_eq!(by(&umbrella, "as_a"), [] as [usize; 0]);
    }

    #[test]
    fn unreached_pub_governs_neither_shims_nor_xtask_nor_bins() {
        let def = "pub fn nobody_calls() {}\n";
        for path in [
            "crates/xtask/src/rules.rs",
            "crates/shims/rayon/src/lib.rs",
            "crates/bench/src/bin/fig4_fom.rs",
            "src/lib.rs",
        ] {
            let files = [(path.to_string(), def.to_string())];
            assert!(unreached_pub(&files, &BTreeMap::new()).is_empty(), "{path}");
        }
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
        assert!(in_scope_fma("crates/pic/src/tile.rs"));
        assert!(!in_scope_fma("crates/pic/tests/gauss_law.rs"));
        assert!(!in_scope_fma("crates/shims/rayon/src/lib.rs"));
    }
}
