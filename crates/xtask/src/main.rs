//! `as-xtask` — dependency-free workspace correctness lints.
//!
//! Usage: `cargo run -p as-xtask -- lint [--root <dir>]`
//!
//! Enforces the seven determinism/robustness/surface invariants
//! documented in `docs/ARCHITECTURE.md` § Correctness tooling (see
//! [`as_xtask::lint`]). Suppressions live in `lint-allowlist.txt` at the
//! repo root and must each carry a justification and still match a live
//! violation.

#![forbid(unsafe_code)]

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
    match as_xtask::lint(root) {
        Ok(report) => {
            print!("{report}");
            if report.is_clean() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}
