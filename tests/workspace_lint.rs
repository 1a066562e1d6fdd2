//! The workspace passes every `as-xtask` lint rule, `unreached-pub`
//! included, with its committed allowlist — the check CI's `analysis` job
//! runs as `cargo run -p as-xtask -- lint`, here part of the root suite.

use std::path::Path;

#[test]
fn the_workspace_passes_every_lint_rule() {
    let report = as_xtask::lint(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("sources readable");
    assert!(report.is_clean(), "{report}");
}
