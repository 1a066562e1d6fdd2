//! The Artificial Scientist: orchestration of the loosely-coupled
//! in-transit workflow.
//!
//! The paper's pipeline (§III-B), reproduced end to end:
//!
//! ```text
//!  PIConGPU-like PIC sim ──(openPMD particles)──┐
//!        │ radiation plugin                     ├─► SST staging ─► MLapp
//!        └───────(openPMD radiation)────────────┘      (in-memory,      │
//!                                                      back-pressured)  ▼
//!                                              training buffer (now/EP) ─► VAE+INN
//! ```
//!
//! - [`producer`] runs the KHI simulation with the in-situ radiation
//!   plugin and streams particle phase space + per-region radiation
//!   amplitudes through two parallel openPMD streams (the paper: "two
//!   parallel data streams are opened between PIConGPU and the MLapp");
//! - [`consumer`] receives both streams, encodes sub-volume point clouds
//!   and log-spectra, feeds the experience-replay buffer and trains the
//!   VAE+INN `n_rep` iterations per streamed step;
//! - [`noop`] is the synthetic no-op consumer of §IV-B used for the
//!   streaming scaling study (it only measures and discards);
//! - [`workflow`] wires M producer ranks and K consumer ranks together
//!   under a placement policy (intra-node vs inter-node, Fig. 3(c)) and
//!   runs the whole thing with zero filesystem involvement: producers are
//!   slab shards of one distributed KHI box publishing on a shared
//!   multi-writer stream pair, consumers train data-parallel with
//!   gradients averaged every iteration (`WorkflowConfig::{producers,
//!   consumers}`). Every learner topology runs the one driver
//!   [`consumer::run_consumer`]; a lone learner is the same loop over the
//!   degenerate one-rank world `as_cluster::collective::SoloComm`.
//!
//! # Streaming contracts
//!
//! The producer/consumer coupling rests on three invariants:
//!
//! - **SST step lifecycle** (`as-staging`): a published window stays
//!   alive until *every* reader rank closes it; the bounded queue
//!   back-pressures the producers, whose queue-blocked time is reported
//!   honestly in `ProducerReport::stall_seconds`.
//! - **Window ownership**: every consumer rank sees every window, but
//!   exactly one (round-robin over the live members) fetches and encodes
//!   it.
//!   How ranks pace themselves is the [`config::ConsumerPolicy`]:
//!   [`config::ConsumerPolicy::BlockingEveryStep`] consumes in order,
//!   [`config::ConsumerPolicy::DropSteps`] always takes the freshest
//!   window and counts the skipped ones — per rank,
//!   `windows + dropped + orphaned + lost == published`, always (`lost`
//!   counts windows destroyed by injected faults: checkpoint rollback,
//!   skip events, rank death — zero on a healthy run). With
//!   `WorkflowConfig::sample_broadcast` the owner shares its encoded
//!   samples with every peer rank.
//! - **DDP invariant**: synchronous training with bucketed gradient
//!   all-reduce (`as_nn::ddp::sync_gradients_bucketed`, or its
//!   non-blocking comm-worker twin `as_nn::ddp::OverlappedGradSync`
//!   under [`config::WorkflowConfig::overlap_grad_sync`]) keeps learner
//!   parameters bit-identical across ranks; a `param_hash` allgather
//!   asserts it every iteration.
//!
//! # Communication layer
//!
//! Every inter-rank exchange goes through the
//! `as_cluster::collective::Collective` trait; the transport is the
//! [`config::CommBackend`] knob (in-process channels vs the
//! netsim-delayed fabric model), constructed only inside
//! [`workflow::run_workflow`]. Backend swaps are pure timing changes —
//! `tests/comm_backends.rs` asserts bit-identical `param_hash`
//! sequences — and per-group collective traffic is surfaced as
//! `WorkflowReport::{producer_comm_bytes, consumer_comm_bytes}`.

pub mod checkpoint;
pub mod config;
pub mod consumer;
pub mod encode;
pub mod eval;
pub mod faults;
pub mod ft;
pub mod noop;
pub mod producer;
pub mod snapshot;
pub mod workflow;

pub use checkpoint::{LearnerCheckpoint, LearnerProgress};
pub use config::{CommBackend, ConsumerPolicy, Placement, ServingConfig, WorkflowConfig};
pub use encode::{EncodeConfig, Sample};
pub use eval::InversionEval;
pub use faults::{FaultEvent, FaultPlan, InjectedFault, KillMode, StreamId};
pub use ft::{FtComm, LearnerGroup};
pub use snapshot::{ModelSnapshot, SnapshotPublisher, SnapshotSink};
pub use workflow::{
    run_workflow, run_workflow_with_sink, ConsumerSummary, RankFailure, RankGroup, WorkflowReport,
};

pub mod prelude {
    //! Common imports for workflow consumers.
    pub use crate::checkpoint::{LearnerCheckpoint, LearnerProgress};
    pub use crate::config::{
        CommBackend, ConsumerPolicy, Placement, ServingConfig, WorkflowConfig,
    };
    pub use crate::encode::{EncodeConfig, Sample};
    pub use crate::eval::InversionEval;
    pub use crate::faults::{FaultEvent, FaultPlan, InjectedFault, KillMode, StreamId};
    pub use crate::snapshot::{ModelSnapshot, SnapshotPublisher, SnapshotSink};
    pub use crate::workflow::{
        run_workflow, run_workflow_with_sink, ConsumerSummary, RankFailure, RankGroup,
        WorkflowReport,
    };
}
