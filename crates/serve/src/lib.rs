//! # as-serve — surrogate serving tier
//!
//! The paper's in-transit learner exists so that, at any moment, the
//! freshest surrogate can answer inverse queries ("which phase-space
//! distribution produced this radiation spectrum?") without running the
//! PIC simulation. This crate is that serving tier:
//!
//! - the continual learner publishes immutable, versioned
//!   [`as_core::snapshot::ModelSnapshot`]s on a configurable cadence
//!   ([`as_core::config::ServingConfig::publish_every`]), priced through
//!   the modelled network like every other collective;
//! - [`InferenceEngine`] serves concurrent inversion queries by
//!   coalescing them into batched forward passes (bounded queue +
//!   max-batch / max-wait micro-batching) with an LRU
//!   spectrum-hash → posterior cache, and hot-swaps newly published
//!   snapshots mid-traffic via an atomic `Arc` swap — every response is
//!   computed against exactly one snapshot version, never torn weights;
//! - [`loadgen::run_loadgen`] is the closed-loop harness that hammers the engine
//!   from thousands of logical clients while verifying each response
//!   bitwise against a single-version reference forward.
//!
//! Wire-up: pass an [`EngineSink`] to
//! [`as_core::workflow::run_workflow_with_sink`] (or use the
//! [`run_workflow_serving`] convenience here) with
//! `WorkflowConfig::serving` set, and the learner ranks publish into
//! the engine as they train.

#![forbid(unsafe_code)]

pub mod cache;
pub mod engine;
pub mod loadgen;

pub use cache::PosteriorCache;
pub use engine::{cache_key, posterior_batch, posterior_reference, EngineSink, InferenceEngine};

use as_core::config::WorkflowConfig;
use as_core::workflow::{run_workflow_with_sink, WorkflowReport};
use std::sync::Arc;

/// Run the full modelled workflow with the learner publishing snapshots
/// into `engine`. `cfg.serving` must be set — otherwise the learner
/// never publishes and the engine would starve.
pub fn run_workflow_serving(cfg: &WorkflowConfig, engine: &Arc<InferenceEngine>) -> WorkflowReport {
    assert!(
        cfg.serving.is_some(),
        "run_workflow_serving requires cfg.serving to be configured"
    );
    run_workflow_with_sink(cfg, Some(Arc::new(EngineSink(Arc::clone(engine)))))
}
