//! SST-like in-transit staging engine.
//!
//! Reimplements the semantics of ADIOS2's **Sustainable Staging Transport**
//! (§IV-B): a parallel producer publishes *steps* of named global-array
//! variables; any number of parallel consumers open the same stream and
//! perform block-wise remote reads; the producer keeps a step's data alive
//! until every reader has closed it; a bounded step queue applies
//! back-pressure to the producer ("some leeway to stall the running
//! simulation if need be", §IV-C). Nothing ever touches a filesystem.
//!
//! Remote one-sided reads are emulated by reference-counted buffers
//! ([`bytes::Bytes`]): a writer *publishes* its block, a reader *fetches*
//! it, and the configured [`dataplane`] charges the modelled wire time —
//! the same separation of control metadata vs data plane as SST, with the
//! paper's three planes (TCP fallback, MPI, libfabric with its enqueue-all
//! vs batched read strategies) as timing models.
//!
//! # Step lifecycle contract
//!
//! A step is *pending* (writers contributing blocks) → *published* (last
//! writer's [`SstWriter::end_step`] validated the tiling and queued it)
//! → *retired* (every reader closed it; the queue slot frees, unblocking
//! any writer waiting at the `queue_limit`). Writer time blocked on the
//! full queue is recorded in [`SstWriter::stall_seconds`] — the honest
//! back-pressure telemetry, separate from emission wall time.
//!
//! Readers consume independently, in order ([`SstReader::begin_step`])
//! or skipping to the freshest published step
//! ([`SstReader::begin_latest_step`] /
//! [`SstReader::begin_step_at_least`]), where skipped steps are closed
//! unread and release back-pressure immediately — the primitive behind
//! the `DropSteps` consumer policy in `as-core`
//! (`ConsumerPolicy::DropSteps`).

pub mod codec;
pub mod dataplane;
pub mod engine;
pub mod error;
pub mod stats;
pub mod variable;
pub mod view;

pub use codec::WireCodec;
pub use dataplane::{DataPlane, ReadStrategy, NIC_BANDWIDTH};
pub use engine::StreamMonitor;
pub use engine::{open_stream, open_stream_monitored, SstReader, SstWriter, StreamConfig};
pub use error::StagingError;
pub use stats::ThroughputRecorder;
pub use variable::{Block, Dtype, VariableMeta};
pub use view::VarView;

pub mod prelude {
    //! Common imports for staging consumers.
    pub use crate::codec::WireCodec;
    pub use crate::dataplane::{DataPlane, ReadStrategy};
    pub use crate::engine::{
        open_stream, open_stream_monitored, SstReader, SstWriter, StreamConfig, StreamMonitor,
    };
    pub use crate::error::StagingError;
    pub use crate::stats::ThroughputRecorder;
    pub use crate::variable::{Block, Dtype, VariableMeta};
    pub use crate::view::VarView;
}
