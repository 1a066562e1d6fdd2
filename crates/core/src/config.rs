//! Workflow configuration.
//!
//! Besides the physics/topology knobs, this module owns the two levers
//! of the pluggable communication layer
//! ([`as_cluster::collective::Collective`]):
//!
//! - [`CommBackend`] picks the transport every rank group (producer
//!   slabs, DDP learners) is wired with — the in-process channels or the
//!   netsim-delayed fabric model;
//! - [`WorkflowConfig::overlap_grad_sync`] switches the DDP consumers
//!   from the blocking bucketed gradient all-reduce to the non-blocking
//!   comm-worker mode ([`as_nn::ddp::OverlappedGradSync`]), which is
//!   bit-identical but overlaps reduction with main-thread work.

use crate::encode::EncodeConfig;
use crate::faults::{FaultEvent, FaultPlan, KillMode};
use as_cluster::algos::CollectiveAlgo;
use as_cluster::machine::{MachineSpec, FRONTIER, SUMMIT};
use as_nn::model::ModelConfig;
use as_nn::optim::AdamConfig;
use as_pic::grid::GridSpec;
use as_pic::khi::KhiSetup;
use as_radiation::detector::Detector;
use as_replay::buffer::BufferConfig;
use as_staging::codec::WireCodec;
use as_staging::dataplane::DataPlane;

/// Where producer and consumer ranks live relative to each other
/// (Fig. 3(c)). Intra-node shares every node between 4 simulation GCDs
/// and 4 training GCDs so data exchange "mostly does not need to leave
/// the node"; inter-node gives whole nodes to one side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Simulation and MLapp share each node (the paper's choice).
    IntraNode,
    /// Disjoint node sets (easier to schedule in Slurm, more fabric
    /// traffic).
    InterNode,
}

impl Placement {
    /// Fraction of the stream that must cross the network fabric.
    pub fn fabric_fraction(&self) -> f64 {
        match self {
            // Reader loads "are configured such that data is shared within
            // node boundaries" — only halo leftovers leave the node.
            Placement::IntraNode => 0.1,
            Placement::InterNode => 1.0,
        }
    }
}

/// How consumer ranks pace themselves against the stream — the policy
/// lever Kelling et al. (arXiv:2501.03383) use to keep the simulation
/// unblocked: train on the freshest step, drop the rest.
///
/// The choice trades training coverage for producer stall:
/// - [`ConsumerPolicy::BlockingEveryStep`] consumes every window in
///   order. If training is slower than the simulation, the bounded SST
///   queue fills and the producer stalls (the §V-A telemetry).
/// - [`ConsumerPolicy::DropSteps`] always reads the **newest** published
///   window and closes older pending ones unread (they are counted in
///   `ConsumerReport::dropped_windows`). The producer can stall only
///   while the consumer is busy inside a single window, because every
///   skip-ahead read frees the whole backlog at once — stall is bounded
///   by the queue depth instead of growing with the training debt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConsumerPolicy {
    /// Consume every streamed window in order (the legacy behaviour);
    /// back-pressure is the flow control.
    BlockingEveryStep,
    /// Jump to the newest published window, dropping older ones.
    /// `max_queue` is the staging queue depth used for the run (it
    /// replaces [`WorkflowConfig::queue_limit`]): the producer keeps at
    /// most `max_queue` windows in flight and never waits for a consumer
    /// that is more than one window behind.
    DropSteps {
        /// In-flight window bound for the staging streams.
        max_queue: usize,
        /// Adaptive drop threshold: skip ahead only when at least this
        /// many unseen windows are pending on the stream; with a
        /// shallower backlog, consume the next window in order. `0` (and
        /// `1`) always jump to the freshest window — the classic
        /// behaviour and the default of [`ConsumerPolicy::drop_steps`].
        min_queue: usize,
    },
}

impl ConsumerPolicy {
    /// The classic drop-to-freshest policy: skip ahead whenever anything
    /// newer is pending (`min_queue: 0`).
    pub fn drop_steps(max_queue: usize) -> Self {
        ConsumerPolicy::DropSteps {
            max_queue,
            min_queue: 0,
        }
    }

    /// The staging queue limit this policy implies, given the config's
    /// blocking-mode `queue_limit`.
    pub fn effective_queue_limit(&self, blocking_limit: usize) -> usize {
        match self {
            ConsumerPolicy::BlockingEveryStep => blocking_limit,
            ConsumerPolicy::DropSteps { max_queue, .. } => *max_queue,
        }
    }

    /// True for the skip-ahead policy.
    pub fn drops_steps(&self) -> bool {
        matches!(self, ConsumerPolicy::DropSteps { .. })
    }

    /// Short label for benchmark output.
    pub fn label(&self) -> &'static str {
        match self {
            ConsumerPolicy::BlockingEveryStep => "blocking",
            ConsumerPolicy::DropSteps { .. } => "drop_steps",
        }
    }
}

/// Which [`as_cluster::collective::Collective`] backend carries every
/// inter-rank exchange of the run (producer halo/migration/merge traffic
/// and consumer DDP traffic alike).
///
/// Concrete endpoints are constructed only by
/// [`crate::workflow::run_workflow`] from this knob; all rank code is
/// generic over the trait.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CommBackend {
    /// The in-process thread/channel transport
    /// ([`as_cluster::collective::ChannelComm`]) — zero modelled cost,
    /// bit-exact with the historical direct-communicator paths.
    InProcess,
    /// The same transport wrapped in the netsim fabric model
    /// ([`as_cluster::collective::SimNetComm`]): every operation is
    /// charged the machine's latency/fair-share-bandwidth cost (each
    /// rank's share of its NIC and of the tapered bisection,
    /// [`as_cluster::collective::NetModel`]), and `time_scale` of that
    /// cost is injected as real wall time. Numerics are bit-identical
    /// to [`CommBackend::InProcess`].
    NetSim {
        /// The modelled machine (e.g. [`FRONTIER`], [`SUMMIT`]).
        machine: MachineSpec,
        /// Fraction of the modelled delay injected as wall time
        /// (`1.0` = full modelled delays, `0.0` = record-only).
        time_scale: f64,
    },
}

impl CommBackend {
    /// The paper's primary fabric, with modelled delays injected at
    /// full scale.
    pub fn netsim_frontier() -> Self {
        CommBackend::NetSim {
            machine: FRONTIER,
            time_scale: 1.0,
        }
    }

    /// The paper's 2019 baseline fabric.
    pub fn netsim_summit() -> Self {
        CommBackend::NetSim {
            machine: SUMMIT,
            time_scale: 1.0,
        }
    }

    /// Short label for benchmark output, e.g. `in_process` or
    /// `netsim-frontier`.
    pub fn label(&self) -> String {
        match self {
            CommBackend::InProcess => "in_process".to_string(),
            CommBackend::NetSim { machine, .. } => {
                format!("netsim-{}", machine.name.to_lowercase())
            }
        }
    }
}

/// Knobs of the surrogate serving tier ([`WorkflowConfig::serving`]):
/// how often the learner publishes [`crate::snapshot::ModelSnapshot`]s
/// and how the inference engine (`as-serve`) batches and caches queries.
///
/// Publication is keyed on the **training-iteration counter**, which is
/// identical on every DDP rank — so all ranks agree on when a snapshot
/// is due and the collective schedule never diverges. Only the learner
/// root captures and publishes; under the netsim backend the snapshot
/// payload is priced along the broadcast schedule like all other
/// traffic.
#[derive(Debug, Clone, PartialEq)]
pub struct ServingConfig {
    /// Publish a snapshot every this many training iterations.
    pub publish_every: u64,
    /// Micro-batching: serve at most this many queries per forward pass.
    pub max_batch: usize,
    /// Micro-batching: after the first query of a batch arrives, wait at
    /// most this long (microseconds) for more before running the pass.
    /// The wait runs only while some admitted query has not reached the
    /// queue yet; queued queries join at once and a lone client never
    /// waits.
    pub max_wait_us: u64,
    /// Bounded request queue: submitters wait while this many queries
    /// are already in flight (closed-loop back-pressure, like the SST
    /// queue on the training side).
    pub queue_bound: usize,
    /// LRU posterior-cache capacity (entries); `0` disables caching.
    pub cache_capacity: usize,
    /// Normal residual draws per query — the posterior sample count of
    /// each inversion ([`as_nn::model::ArtificialScientistModel`]'s
    /// `invert_radiation` semantics, seeded per `(spectrum, version)` so
    /// responses are a pure function of the snapshot version).
    pub posterior_samples: usize,
}

impl Default for ServingConfig {
    fn default() -> Self {
        Self {
            publish_every: 8,
            max_batch: 8,
            max_wait_us: 200,
            queue_bound: 256,
            cache_capacity: 64,
            posterior_samples: 4,
        }
    }
}

/// Everything needed to run the end-to-end workflow.
#[derive(Debug, Clone)]
pub struct WorkflowConfig {
    /// PIC grid.
    pub grid: GridSpec,
    /// KHI scenario parameters.
    pub khi: KhiSetup,
    /// Radiation detector geometry.
    pub detector: Detector,
    /// Vortex band half-width for region classification.
    pub shear_width: f64,
    /// PIC steps between emitted training samples (radiation accumulates
    /// over the window).
    pub steps_per_sample: usize,
    /// Total PIC steps to run.
    pub total_steps: usize,
    /// ML model configuration.
    pub model: ModelConfig,
    /// Encoding (normalisation) parameters.
    pub encode: EncodeConfig,
    /// Training buffer configuration.
    pub buffer: BufferConfig,
    /// Training iterations per streamed sample (n_rep).
    pub n_rep: u32,
    /// Adam configuration for the INN group.
    pub adam: AdamConfig,
    /// VAE learning-rate multiplier m_VAE.
    pub m_vae: f32,
    /// Producer/consumer placement.
    pub placement: Placement,
    /// Staging data plane: the timing model every window-payload
    /// transfer is priced with (and, under the netsim backend, charged
    /// to the run's modelled data-plane clock).
    pub data_plane: DataPlane,
    /// Wire codec for the staged window payloads: [`WireCodec::None`]
    /// streams raw little-endian lanes (lossless, the default);
    /// [`WireCodec::F16`] and [`WireCodec::QuantU16`] shrink the wire at
    /// a documented per-lane accuracy cost (see `docs/ARCHITECTURE.md`).
    pub wire_codec: WireCodec,
    /// Staging queue limit (in-flight steps before the producer stalls).
    pub queue_limit: usize,
    /// Simulation (writer) ranks: the KHI box is slab-decomposed along x
    /// into this many shards, one producer thread each. Must divide
    /// `grid.nx`. `1` is the same driver over a one-rank world (the slab is
    /// the whole box; nothing sent or priced).
    pub producers: usize,
    /// Learner (reader) ranks: each consumes its round-robin share of the
    /// streamed windows and trains data-parallel, averaging gradients
    /// every iteration. `1` is the same driver over a one-rank world
    /// (identity collectives, the historical unmixed seeds).
    pub consumers: usize,
    /// How consumers pace themselves against the stream (blocking
    /// every-step vs newest-step-only with drops).
    pub policy: ConsumerPolicy,
    /// Which collective backend carries all inter-rank communication.
    pub backend: CommBackend,
    /// Which collective algorithm family every rank world executes (and,
    /// under the netsim backend, is priced for):
    /// [`CollectiveAlgo::Log`] (the default) runs binomial-tree
    /// broadcast/gather, Bruck allgather and the size-selected allreduce;
    /// [`CollectiveAlgo::Linear`] keeps the historical linear fan-out
    /// loops as a baseline. Numerics are bit-identical either way — the
    /// log-depth small allreduce replays the canonical ring reduction
    /// order.
    pub collective_algo: CollectiveAlgo,
    /// With `consumers > 1`: run the DDP gradient all-reduce in the
    /// non-blocking comm-worker mode ([`as_nn::ddp::OverlappedGradSync`]
    /// over a dedicated second collective world), overlapping bucket
    /// reduction with bucket filling and the per-iteration loss mean.
    /// Bit-identical to the blocking bucketed path; `false` reduces in
    /// line. Not supported under an active fault plan
    /// ([`WorkflowConfig::validate_topology`] rejects the pair).
    pub overlap_grad_sync: bool,
    /// With `consumers > 1`: the round-robin owner of a window encodes it
    /// once and broadcasts the encoded samples to the peer ranks, so
    /// every rank's replay buffer sees every window at the cost of one
    /// encode (instead of each rank holding only its owned share).
    /// `false` keeps the rank-local-buffer behaviour.
    pub sample_broadcast: bool,
    /// Gradient-bucket size (elements) for the DDP consumers' bucketed
    /// all-reduce ([`as_nn::ddp::sync_gradients_bucketed`]): buckets are
    /// reduced as they fill during the gradient flatten instead of one
    /// whole-model reduction at the end.
    pub grad_bucket: usize,
    /// Master seed.
    pub seed: u64,
    /// Deterministic fault-injection plan ([`crate::faults::FaultPlan`]).
    /// Inert by default; when [`FaultPlan::active`] the workflow arms
    /// tolerant collective worlds, the consumer driver runs its
    /// fault-tolerant group strategy (checkpoint/restart, bounded-timeout
    /// collectives, graceful rank-death degradation) and executes the
    /// plan's seeded event schedule.
    pub faults: FaultPlan,
    /// Surrogate serving tier: with `Some`, the learner publishes
    /// immutable versioned snapshots every
    /// [`ServingConfig::publish_every`] training iterations to the
    /// [`crate::snapshot::SnapshotSink`] passed to
    /// [`crate::workflow::run_workflow_with_sink`]. `None` (the default)
    /// keeps the legacy training-only workflow bit-for-bit.
    pub serving: Option<ServingConfig>,
}

impl WorkflowConfig {
    /// A CPU-scale configuration that exercises the full pipeline in
    /// seconds (tests, quickstart example).
    pub fn small() -> Self {
        let grid = GridSpec::cubic(12, 24, 4, 0.5, 0.5);
        let khi = KhiSetup {
            beta: 0.2,
            ppc: 4,
            ..KhiSetup::default()
        };
        let model = ModelConfig::small();
        let detector = Detector::along_x(0.2, 20.0, model.spectrum_dim);
        Self {
            grid,
            khi,
            detector,
            shear_width: 0.06,
            steps_per_sample: 4,
            total_steps: 40,
            encode: EncodeConfig::default(),
            buffer: BufferConfig::default(),
            n_rep: 4,
            adam: AdamConfig {
                lr: 5e-4,
                weight_decay: 0.0,
                ..AdamConfig::default()
            },
            m_vae: 4.0,
            placement: Placement::IntraNode,
            data_plane: DataPlane::Mpi,
            wire_codec: WireCodec::None,
            queue_limit: 2,
            producers: 1,
            consumers: 1,
            policy: ConsumerPolicy::BlockingEveryStep,
            backend: CommBackend::InProcess,
            collective_algo: CollectiveAlgo::Log,
            overlap_grad_sync: false,
            sample_broadcast: false,
            grad_bucket: 8192,
            seed: 1,
            faults: FaultPlan::default(),
            serving: None,
            model,
        }
    }

    /// The paper-fidelity configuration (Frontier-scale; listed for
    /// completeness and used by the scaling models — do not run on a
    /// laptop).
    pub fn paper() -> Self {
        let mut cfg = Self::small();
        cfg.grid = KhiSetup::paper_grid();
        cfg.khi = KhiSetup::default();
        cfg.model = ModelConfig::paper();
        cfg.detector = Detector::along_x(0.1, 100.0, cfg.model.spectrum_dim);
        cfg.encode.sample_points = 30_000;
        cfg.n_rep = 48;
        cfg.adam = AdamConfig::default();
        cfg.total_steps = 2000;
        cfg
    }

    /// The staging queue limit the configured [`ConsumerPolicy`] implies
    /// (`queue_limit` for blocking, the policy's `max_queue` for
    /// drop-steps).
    pub fn effective_queue_limit(&self) -> usize {
        self.policy.effective_queue_limit(self.queue_limit)
    }

    /// Panics unless the M×K streaming topology is consistent — at least
    /// one rank on each side and an even slab split of the grid — and
    /// the fault plan does not contradict the rest of the configuration
    /// (checked here, before any stream or rank thread exists, rather
    /// than inside the learner ranks mid-run).
    pub fn validate_topology(&self) {
        assert!(
            self.producers >= 1 && self.consumers >= 1,
            "topology needs at least one producer and one consumer"
        );
        assert_eq!(
            self.grid.nx % self.producers,
            0,
            "grid.nx = {} must divide evenly into {} producer slabs",
            self.grid.nx,
            self.producers
        );
        let plan = &self.faults;
        assert!(
            !(self.overlap_grad_sync && plan.active()),
            "overlap_grad_sync is not supported under an active fault plan"
        );
        for event in &plan.events {
            if let FaultEvent::ConsumerKill {
                at_window,
                mode: KillMode::Restart,
                ..
            } = *event
            {
                assert!(
                    plan.checkpoint_every > 0,
                    "ConsumerKill restart needs checkpoint_every > 0"
                );
                assert!(
                    self.consumers == 1 || at_window.is_multiple_of(plan.checkpoint_every),
                    "multi-rank kill-restart must land on a checkpoint boundary \
                     (checkpoint_every must divide the kill window)"
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_config_is_consistent() {
        let c = WorkflowConfig::small();
        c.grid.validate();
        c.validate_topology();
        assert_eq!(c.detector.n_freqs(), c.model.spectrum_dim);
        assert!(c.n_rep >= 1);
        assert_eq!((c.producers, c.consumers), (1, 1), "legacy 1×1 default");
        assert_eq!(c.policy, ConsumerPolicy::BlockingEveryStep, "legacy policy");
        assert!(!c.sample_broadcast, "legacy rank-local buffers");
        assert_eq!(c.backend, CommBackend::InProcess, "legacy transport");
        assert_eq!(
            c.collective_algo,
            CollectiveAlgo::Log,
            "log-depth collectives are the default"
        );
        assert!(!c.overlap_grad_sync, "legacy in-line gradient sync");
        assert!(c.serving.is_none(), "legacy training-only workflow");
        assert_eq!(c.wire_codec, WireCodec::None, "lossless wire by default");
    }

    #[test]
    fn serving_defaults_are_sane() {
        let s = ServingConfig::default();
        assert!(s.publish_every >= 1);
        assert!(s.max_batch >= 1);
        assert!(s.queue_bound >= s.max_batch, "queue must hold a batch");
        assert!(s.posterior_samples >= 1);
    }

    #[test]
    fn policy_queue_limits() {
        let mut c = WorkflowConfig::small();
        c.queue_limit = 3;
        assert_eq!(c.effective_queue_limit(), 3);
        c.policy = ConsumerPolicy::drop_steps(1);
        assert_eq!(c.effective_queue_limit(), 1);
        assert!(c.policy.drops_steps());
        assert_eq!(c.policy.label(), "drop_steps");
        assert_eq!(ConsumerPolicy::BlockingEveryStep.label(), "blocking");
        assert_eq!(
            ConsumerPolicy::drop_steps(4),
            ConsumerPolicy::DropSteps {
                max_queue: 4,
                min_queue: 0
            },
            "the constructor defaults to always-jump"
        );
    }

    #[test]
    fn backend_labels() {
        assert_eq!(CommBackend::InProcess.label(), "in_process");
        assert_eq!(CommBackend::netsim_frontier().label(), "netsim-frontier");
        assert_eq!(CommBackend::netsim_summit().label(), "netsim-summit");
    }

    #[test]
    fn small_grid_admits_the_benchmark_topologies() {
        // The decomposition-invariance tests need 1, 2 and 4 producer slabs.
        for m in [1usize, 2, 4] {
            let mut c = WorkflowConfig::small();
            c.producers = m;
            c.consumers = 2;
            c.validate_topology();
        }
    }

    #[test]
    #[should_panic(expected = "divide evenly")]
    fn uneven_slab_split_is_rejected() {
        let mut c = WorkflowConfig::small();
        c.producers = 5; // 12 cells across 5 slabs
        c.validate_topology();
    }

    fn kill_restart(rank: usize, at_window: u64) -> FaultEvent {
        FaultEvent::ConsumerKill {
            rank,
            at_window,
            mode: KillMode::Restart,
        }
    }

    #[test]
    #[should_panic(expected = "overlap_grad_sync is not supported under an active fault plan")]
    fn overlap_under_an_active_fault_plan_is_rejected() {
        let mut c = WorkflowConfig::small();
        c.consumers = 2;
        c.overlap_grad_sync = true;
        c.faults.checkpoint_every = 2;
        c.validate_topology();
    }

    #[test]
    #[should_panic(expected = "ConsumerKill restart needs checkpoint_every > 0")]
    fn restart_without_checkpoints_is_rejected() {
        let mut c = WorkflowConfig::small();
        c.faults.events.push(kill_restart(0, 3));
        c.validate_topology();
    }

    #[test]
    #[should_panic(expected = "must land on a checkpoint boundary")]
    fn multi_rank_restart_off_a_checkpoint_boundary_is_rejected() {
        let mut c = WorkflowConfig::small();
        c.consumers = 2;
        c.faults.checkpoint_every = 2;
        c.faults.events.push(kill_restart(1, 3));
        c.validate_topology();
    }

    #[test]
    fn consistent_fault_plans_are_accepted() {
        let mut c = WorkflowConfig::small();
        c.faults.checkpoint_every = 2;
        c.faults.events.push(kill_restart(0, 3)); // a lone rank may roll back
        c.validate_topology();
        c.consumers = 2;
        c.faults.events = vec![kill_restart(1, 4)];
        c.validate_topology();
    }

    #[test]
    fn paper_config_matches_headline_numbers() {
        let c = WorkflowConfig::paper();
        assert_eq!((c.grid.nx, c.grid.ny, c.grid.nz), (192, 256, 12));
        assert_eq!(c.encode.sample_points, 30_000);
        assert_eq!(c.model.vae.latent, 544);
        assert_eq!(c.n_rep, 48);
    }

    #[test]
    fn placement_fabric_fractions() {
        assert!(Placement::IntraNode.fabric_fraction() < Placement::InterNode.fabric_fraction());
    }
}
