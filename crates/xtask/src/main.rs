//! `as-xtask` — dependency-free workspace correctness lints.
//!
//! Usage: `cargo run -p as-xtask -- lint [--root <dir>]`
//!
//! Lexically scans every non-shim `src/` file in the workspace and
//! enforces the five determinism/robustness invariants documented in
//! `docs/ARCHITECTURE.md` § Correctness tooling. Suppressions live in
//! `lint-allowlist.txt` at the repo root and must each carry a
//! justification and still match a live violation.

mod allowlist;
mod lexer;
mod rules;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut root: Option<PathBuf> = None;
    let mut cmd: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--root" if i + 1 < args.len() => {
                root = Some(PathBuf::from(&args[i + 1]));
                i += 2;
            }
            c if cmd.is_none() => {
                cmd = Some(c.to_string());
                i += 1;
            }
            other => {
                eprintln!("unexpected argument: {other}");
                return usage();
            }
        }
    }
    match cmd.as_deref() {
        Some("lint") => lint(&root.unwrap_or_else(default_root)),
        _ => usage(),
    }
}

fn usage() -> ExitCode {
    eprintln!("usage: cargo run -p as-xtask -- lint [--root <workspace-dir>]");
    ExitCode::from(2)
}

/// Workspace root: two levels above this crate's manifest dir.
fn default_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .map(Path::to_path_buf)
        .unwrap_or_else(|| PathBuf::from("."))
}

fn lint(root: &Path) -> ExitCode {
    let files = collect_sources(root);
    if files.is_empty() {
        eprintln!("lint: no source files found under {}", root.display());
        return ExitCode::FAILURE;
    }

    let mut violations = Vec::new();
    for path in &files {
        let rel = repo_relative(root, path);
        let Ok(src) = std::fs::read_to_string(path) else {
            eprintln!("lint: unreadable file {}", path.display());
            return ExitCode::FAILURE;
        };
        violations.extend(rules::run_all(&rel, &src));
    }
    violations.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));

    let allow_path = root.join("lint-allowlist.txt");
    let allow_text = std::fs::read_to_string(&allow_path).unwrap_or_default();
    let (entries, mut errors) = allowlist::parse(&allow_text);
    let (remaining, suppressed, unused) = allowlist::apply(&entries, violations);
    errors.extend(unused);

    for v in &remaining {
        println!("{} {}:{}: {}", v.rule, v.path, v.line, v.text);
    }
    for e in &errors {
        println!("{e}");
    }
    if remaining.is_empty() && errors.is_empty() {
        println!(
            "lint: {} files clean ({} suppressed by allowlist)",
            files.len(),
            suppressed
        );
        ExitCode::SUCCESS
    } else {
        println!(
            "lint: {} violation(s), {} allowlist error(s) across {} files",
            remaining.len(),
            errors.len(),
            files.len()
        );
        ExitCode::FAILURE
    }
}

/// Every `.rs` under `src/` of each workspace crate (shims and tooling
/// excluded — rule scopes would skip them anyway) plus the root
/// package's `src/`.
fn collect_sources(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let crates = root.join("crates");
    if let Ok(entries) = std::fs::read_dir(&crates) {
        let mut dirs: Vec<_> = entries.flatten().map(|e| e.path()).collect();
        dirs.sort();
        for dir in dirs {
            let name = dir.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name == "shims" || name == "xtask" || name == "detect" {
                continue;
            }
            walk_rs(&dir.join("src"), &mut out);
        }
    }
    walk_rs(&root.join("src"), &mut out);
    out
}

fn walk_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    paths.sort();
    for p in paths {
        if p.is_dir() {
            walk_rs(&p, out);
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
}

fn repo_relative(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}
