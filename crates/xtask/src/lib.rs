//! `as-xtask` — dependency-free workspace correctness lints.
//!
//! [`lint`] lexically scans the workspace and enforces the seven
//! determinism/robustness/surface invariants documented in
//! `docs/ARCHITECTURE.md` § Correctness tooling: six rules read every
//! non-shim `src/` file on its own, and `unreached-pub` reads every Rust
//! file of the workspace and `benchmark/` together. Suppressions live in
//! `lint-allowlist.txt` at the repo root and must each carry a
//! justification and still match a live violation.

#![forbid(unsafe_code)]

mod allowlist;
mod lexer;
mod rules;

pub use rules::Violation;

use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

/// What one lint pass found, after the allowlist.
#[derive(Debug)]
pub struct Report {
    /// Files the per-file rules read.
    pub files: usize,
    /// Violations no allowlist entry suppressed.
    pub violations: Vec<Violation>,
    /// Allowlist format errors and stale entries.
    pub errors: Vec<String>,
    /// Violations the allowlist suppressed.
    pub suppressed: usize,
}

impl Report {
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty() && self.errors.is_empty()
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for v in &self.violations {
            writeln!(f, "{} {}:{}: {}", v.rule, v.path, v.line, v.text)?;
        }
        for e in &self.errors {
            writeln!(f, "{e}")?;
        }
        if self.is_clean() {
            writeln!(
                f,
                "lint: {} files clean ({} suppressed by allowlist)",
                self.files, self.suppressed
            )
        } else {
            writeln!(
                f,
                "lint: {} violation(s), {} allowlist error(s) across {} files",
                self.violations.len(),
                self.errors.len(),
                self.files
            )
        }
    }
}

/// Run all seven rules over the workspace at `root` and apply its
/// `lint-allowlist.txt`.
pub fn lint(root: &Path) -> Result<Report, String> {
    let files = read_all(root, &collect_sources(root))?;
    if files.is_empty() {
        return Err(format!(
            "lint: no source files found under {}",
            root.display()
        ));
    }
    let mut violations: Vec<Violation> = files
        .iter()
        .flat_map(|(rel, src)| rules::run_all(rel, src))
        .collect();
    violations.extend(rules::unreached_pub(
        &read_all(root, &collect_workspace(root))?,
        &crate_names(root),
    ));
    violations.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));

    let allow_text = std::fs::read_to_string(root.join("lint-allowlist.txt")).unwrap_or_default();
    let (entries, mut errors) = allowlist::parse(&allow_text);
    let (violations, suppressed, unused) = allowlist::apply(&entries, violations);
    errors.extend(unused);
    Ok(Report {
        files: files.len(),
        violations,
        errors,
        suppressed,
    })
}

/// The crate name of each library under `crates/`, by directory: its
/// `[lib] name`, else its package name with `-` read as `_`.
fn crate_names(root: &Path) -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    let Ok(entries) = std::fs::read_dir(root.join("crates")) else {
        return out;
    };
    for dir in entries.flatten().map(|e| e.path()) {
        let Ok(manifest) = std::fs::read_to_string(dir.join("Cargo.toml")) else {
            continue;
        };
        let (mut section, mut package, mut lib) = ("", None, None);
        for line in manifest.lines().map(str::trim) {
            if line.starts_with('[') {
                section = line;
            } else if let Some(value) = line.strip_prefix("name") {
                let value = value
                    .trim_start()
                    .trim_start_matches('=')
                    .trim()
                    .trim_matches('"');
                match section {
                    "[package]" => package = Some(value.replace('-', "_")),
                    "[lib]" => lib = Some(value.to_string()),
                    _ => {}
                }
            }
        }
        let name = dir.file_name().and_then(|n| n.to_str());
        if let (Some(dir), Some(krate)) = (name, lib.or(package)) {
            out.insert(dir.to_string(), krate);
        }
    }
    out
}

/// `(repo-relative path, source)` of each file.
fn read_all(root: &Path, paths: &[PathBuf]) -> Result<Vec<(String, String)>, String> {
    paths
        .iter()
        .map(|p| {
            std::fs::read_to_string(p)
                .map(|src| (repo_relative(root, p), src))
                .map_err(|e| format!("lint: unreadable file {}: {e}", p.display()))
        })
        .collect()
}

/// Every `.rs` under `src/` of each workspace crate (shims and tooling
/// excluded — rule scopes would skip them anyway) plus the root
/// package's `src/`: what the per-file rules read.
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

/// Every `.rs` under `crates/`, the root package's `src`, `tests` and
/// `examples`, and `benchmark/{src,tests}`: what `unreached-pub` reads.
fn collect_workspace(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    for dir in [
        "crates",
        "src",
        "tests",
        "examples",
        "benchmark/src",
        "benchmark/tests",
    ] {
        walk_rs(&root.join(dir), &mut out);
    }
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
            if p.file_name().is_some_and(|n| n != "target") {
                walk_rs(&p, out);
            }
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
