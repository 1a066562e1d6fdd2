//! # as-benchmark — the repo's benchmark
//!
//! Four long coupled-pipeline workloads, seven repeatable end-to-end
//! metrics and a traced layer walk, driving the whole system through its
//! public entry points only (`as_serve::run_workflow_serving`,
//! `InferenceEngine::{start,install,query,report}`,
//! `ModelSnapshot::capture`). `README.md` in this directory says how to
//! run, compare and trace, and why the benchmark has the shape it has.

pub mod alloc;
pub mod cli;
pub mod compare;
pub mod coupled;
pub mod json;
pub mod manifest;
pub mod metrics;
pub mod queries;
pub mod run;
pub mod stats;
pub mod trace;
pub mod walk;
pub mod workloads;
