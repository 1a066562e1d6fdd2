//! The pluggable collective-communication layer.
//!
//! Every inter-rank exchange in the workflow — the PIC halo exchange and
//! particle migration (`as_pic::domain`), the producer's per-window
//! offset allgather and radiation allreduce (`as_core::producer`), the
//! consumer group's go/no-go, sample broadcast and loss mean
//! (`as_core::consumer`), and the DDP gradient buckets (`as_nn::ddp`) —
//! goes through the [`Collective`] trait defined here instead of a
//! concrete transport.
//! Two backends ship:
//!
//! - [`ChannelComm`] (an alias for [`crate::comm::Communicator`]): the
//!   in-process thread/channel transport. Bit-exact with the historical
//!   direct-`Communicator` paths — the trait impl is pure delegation.
//! - [`SimNetComm`]: wraps any backend and charges every operation the
//!   latency/bandwidth cost of a modelled fabric ([`NetModel`], derived
//!   from [`crate::netsim`] max-min fair sharing and the
//!   [`crate::machine`] presets), optionally injecting the modelled
//!   delay as real wall time. Payloads are untouched, so numerics are
//!   **bit-identical** to the wrapped backend — only timing (and the
//!   modelled-seconds telemetry) changes. This is what lets one box
//!   rehearse a Frontier-class fabric (`NetModel::frontier_paper`).
//!
//! Plus [`SoloComm`], the degenerate one-rank world (identity
//! collectives, nothing counted or priced), which lets group code run
//! the single-rank case without a second implementation.
//!
//! Workflow code is generic over `C: Collective`; concrete backends are
//! constructed only at the topology roots (`as_core::workflow`, tests,
//! benches). The backend choice is a config knob
//! (`as_core::config::CommBackend`), and the non-blocking DDP bucket
//! worker (`as_nn::ddp::OverlappedGradSync`) relies on the `Send + Sync`
//! supertrait bounds to share an endpoint with its comm thread.
//!
//! # Pricing = the executed schedule
//!
//! [`SimNetComm`] does not hand-write per-collective formulas. It walks
//! the same [`crate::algos`] message schedule the wrapped executor runs
//! — this rank's serialized sends for the algorithm in force
//! ([`Collective::algo`]) — and charges each hop its [`NetModel`] cost:
//! intra- or inter-node latency plus payload over the corresponding
//! fair-share bandwidth, decided by the [`NodeMap`] placement. Costs
//! accumulate on a **per-rank** timeline; the world-wide
//! [`Collective::modelled_comm_seconds`] is the *maximum* over ranks —
//! critical-path semantics, so a binomial broadcast costs the root's
//! `⌈log₂ p⌉` serialized hops, not the `p-1` total messages. The α-β
//! models in [`crate::collectives`] are therefore the measured cost, a
//! correspondence asserted within tolerance by `tests/alpha_beta_model.rs`.
//!
//! # Bytes accounting
//!
//! [`Collective::world_bytes_sent`] exposes the world-wide payload
//! traffic counter (slice-typed sends and the sized allreduce paths are
//! counted automatically; for opaque structured messages the sender
//! declares the serialized size via [`Collective::account_payload`] or,
//! for broadcast fan-outs, [`Collective::account_broadcast_payload`] —
//! the consumer's sample broadcast does). The workflow surfaces the
//! counter per run in `WorkflowReport`, along with the
//! [`Collective::world_messages_sent`] hop counter.

use crate::algos::{
    allgather_events, allreduce_events, broadcast_events, gather_events, CollectiveAlgo, MsgEvent,
};
use crate::comm::{CommWorld, Communicator};
use crate::error::CommError;
use crate::machine::{MachineSpec, FRONTIER, SUMMIT};
use crate::netsim::NetSim;
use crate::pace::Pacer;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The in-process backend: the thread/channel [`Communicator`] itself.
///
/// Construct worlds with [`crate::comm::CommWorld::new`] (or
/// [`crate::comm::CommWorld::with_algo`] to select the collective
/// schedules); the trait impl below delegates every method to the
/// inherent implementation, so code written against `Collective` is
/// bit-exact with code that called the `Communicator` directly.
pub type ChannelComm = Communicator;

/// An MPI-like collective-communication endpoint: one rank's handle in a
/// fixed-size world.
///
/// The contract mirrors MPI semantics as used by this workflow:
///
/// - collectives are **blocking** and must be invoked by every rank of
///   the world in the same order (the callers keep their collective
///   schedules deterministic — e.g. the DropSteps consumer broadcasts
///   the freshest-step decision so all ranks skip the same windows);
/// - point-to-point messages are matched by `(source, tag)` and are FIFO
///   per `(source, tag)` pair, which is what lets back-to-back ring
///   all-reduces (the DDP gradient buckets of
///   `as_nn::ddp::sync_gradients_bucketed`) pipeline without barriers;
/// - the reduction order inside each all-reduce is deterministic,
///   identical on every rank **and identical across algorithm choices**
///   (the log-depth small-buffer path replays the canonical ring order —
///   see [`crate::algos`]), so post-reduce buffers are bit-identical
///   across ranks, across backends and across algorithms.
///
/// `Send + Sync + 'static` is part of the trait: endpoints move into
/// rank threads, and an endpoint may be shared (behind `Arc`) with a
/// dedicated comm-worker thread (`as_nn::ddp::OverlappedGradSync`) —
/// with the usual MPI caveat that only one thread at a time may drive a
/// given endpoint's collective schedule.
pub trait Collective: Send + Sync + 'static {
    /// This endpoint's rank in `0..size`.
    fn rank(&self) -> usize;

    /// Number of ranks in the world.
    fn size(&self) -> usize;

    /// The collective algorithm family this world executes (and that the
    /// pricing layer charges for).
    fn algo(&self) -> CollectiveAlgo;

    /// Synchronise all ranks.
    fn barrier(&self);

    /// Send `value` to rank `dest` with message tag `tag` (eager, never
    /// blocks). Opaque payload: not counted by the traffic counter.
    fn send<T: Send + 'static>(&self, dest: usize, tag: u64, value: T);

    /// Send a typed vector, accounting its payload size in the world
    /// traffic counter.
    fn send_vec<T: Send + 'static>(&self, dest: usize, tag: u64, value: Vec<T>);

    /// Blocking receive of a `T` from `source` with tag `tag`.
    fn recv<T: Send + 'static>(&self, source: usize, tag: u64) -> T;

    /// Broadcast from `root`; every rank returns the value. Only `root`
    /// may pass `Some`.
    fn broadcast<T: Clone + Send + 'static>(&self, root: usize, value: Option<T>) -> T;

    /// Gather every rank's value at `root`; `Some(values)` on root
    /// (indexed by rank), `None` elsewhere.
    fn gather<T: Send + 'static>(&self, root: usize, value: T) -> Option<Vec<T>>;

    /// All-gather: every rank contributes `value` and receives the
    /// rank-indexed vector of all contributions.
    fn allgather<T: Clone + Send + 'static>(&self, value: T) -> Vec<T>;

    /// In-place all-reduce (sum) over an `f32` buffer.
    fn allreduce_sum_f32(&self, buf: &mut [f32]);

    /// In-place all-reduce (sum) over an `f64` buffer.
    fn allreduce_sum_f64(&self, buf: &mut [f64]);

    /// In-place all-reduce (element-wise max) over an `f64` buffer.
    fn allreduce_max_f64(&self, buf: &mut [f64]);

    /// Scalar sum all-reduce convenience.
    fn allreduce_scalar_f64(&self, v: f64) -> f64 {
        let mut buf = [v];
        self.allreduce_sum_f64(&mut buf);
        buf[0]
    }

    /// Total payload bytes sent across the whole world so far (slice-
    /// typed sends and sized allreduce paths; monotone, shared by all
    /// ranks).
    fn world_bytes_sent(&self) -> u64;

    /// Total point-to-point messages sent across the whole world so far,
    /// collective-internal hops included (monotone, shared by all
    /// ranks). The message count is what separates the linear and
    /// log-depth schedules when payloads are small.
    fn world_messages_sent(&self) -> u64;

    /// Record `bytes` of payload carried by opaque messages this rank is
    /// about to send (a `broadcast`/`gather` of structured values whose
    /// heap size the type system hides from the transport). Backends add
    /// it to the world traffic counter; modelled fabrics also charge the
    /// bandwidth cost. Purely local — never communicates — so calling it
    /// on one rank cannot desynchronise a collective schedule.
    fn account_payload(&self, bytes: u64);

    /// Record the payload of an opaque broadcast from `root` that ships
    /// `bytes_per_copy` serialized bytes to each receiving rank. The
    /// world traffic counter grows by `bytes_per_copy × (size-1)` (one
    /// delivered copy per non-root rank, independent of algorithm);
    /// modelled fabrics charge the *broadcast algorithm's* bandwidth on
    /// the caller's timeline — `⌈log₂ p⌉` copies down the binomial tree
    /// instead of the linear `p-1`. Call on the broadcasting rank,
    /// alongside the `broadcast` itself.
    fn account_broadcast_payload(&self, root: usize, bytes_per_copy: u64) {
        let _ = root;
        self.account_payload(bytes_per_copy.saturating_mul(self.size() as u64 - 1));
    }

    /// Seconds of fabric time the backend's network model has charged so
    /// far — the maximum over all ranks' serialized timelines (the
    /// modelled critical path). `0.0` for backends without a model (the
    /// in-process channels are "free"); [`SimNetComm`] accumulates the
    /// modelled latency/bandwidth cost here whether or not it injects
    /// the delay as wall time.
    fn modelled_comm_seconds(&self) -> f64 {
        0.0
    }

    /// Record staging **data-plane** traffic: `wire_bytes` crossed the
    /// SST-style staging stream at a modelled cost of `model_seconds`
    /// (computed by the caller from the staging layer's
    /// `DataPlane::read_time` — this crate stays independent of the
    /// staging crate, so the hook takes the raw numbers). Kept on
    /// counters **separate** from the collective traffic
    /// ([`Collective::world_bytes_sent`] /
    /// [`Collective::modelled_comm_seconds`]): the control-plane
    /// accounting stays bit-identical whether or not window payloads are
    /// priced. Default is a no-op — the in-process backend moves real
    /// bytes and needs no model; [`SimNetComm`] accumulates the cost on
    /// a per-rank data-plane timeline and, scaled by
    /// `NetModel::time_scale`, injects it as wall time. Purely local —
    /// never communicates.
    fn account_dataplane(&self, wire_bytes: u64, model_seconds: f64) {
        let _ = (wire_bytes, model_seconds);
    }

    /// World-wide modelled staging data-plane seconds charged so far —
    /// the maximum over ranks' serialized data-plane timelines, mirroring
    /// the critical-path semantics of
    /// [`Collective::modelled_comm_seconds`] but on the separate
    /// data-plane clock. `0.0` for backends without a model.
    fn modelled_dataplane_seconds(&self) -> f64 {
        0.0
    }

    /// World-wide staging wire bytes recorded via
    /// [`Collective::account_dataplane`] (monotone, shared by all
    /// ranks). `0` for backends without a model.
    fn dataplane_bytes(&self) -> u64 {
        0
    }

    // --- fault tolerance (optional capability) ---------------------------
    //
    // Backends built over a fault-armed world (`CommWorld::with_faults`)
    // override these; the defaults describe a world where nothing ever
    // dies, which keeps every legacy backend valid unchanged. Note that
    // `barrier` has no tolerant variant — fault-tolerant schedules must
    // not barrier once a rank may be dead.

    /// True when the transport tolerates rank deaths (suppressed sends,
    /// liveness tracking) instead of panicking.
    fn faults_armed(&self) -> bool {
        false
    }

    /// Mark `rank` dead in the shared world-health mask. No-op on
    /// backends without liveness tracking.
    fn mark_dead(&self, rank: usize) {
        let _ = rank;
    }

    /// Bitmask of ranks not marked dead (bit `r` set ⇔ rank `r` alive).
    fn alive_mask(&self) -> u64 {
        if self.size() >= 64 {
            u64::MAX
        } else {
            (1u64 << self.size()) - 1
        }
    }

    /// True when `rank` has been marked dead.
    fn is_rank_dead(&self, rank: usize) -> bool {
        rank < 64 && self.alive_mask() & (1 << rank) == 0
    }

    /// Deadline-bounded receive reporting failure as a value:
    /// `Ok(Some(v))` on a match, `Ok(None)` on timeout, a typed
    /// [`CommError`] on dead peer / teardown / payload mismatch. The
    /// default declines — only fault-aware backends implement it.
    fn try_recv_timeout<T: Send + 'static>(
        &self,
        source: usize,
        tag: u64,
        timeout: Duration,
    ) -> Result<Option<T>, CommError> {
        let _ = (source, tag, timeout);
        Err(CommError::Unsupported("try_recv_timeout"))
    }

    /// `(dropped, delayed, duplicated)` injected message-fault counters
    /// (zeros when no injector is installed).
    fn injected_fault_counts(&self) -> (u64, u64, u64) {
        (0, 0, 0)
    }
}

impl Collective for Communicator {
    fn rank(&self) -> usize {
        Communicator::rank(self)
    }
    fn size(&self) -> usize {
        Communicator::size(self)
    }
    fn algo(&self) -> CollectiveAlgo {
        Communicator::algo(self)
    }
    fn barrier(&self) {
        Communicator::barrier(self)
    }
    fn send<T: Send + 'static>(&self, dest: usize, tag: u64, value: T) {
        Communicator::send(self, dest, tag, value)
    }
    fn send_vec<T: Send + 'static>(&self, dest: usize, tag: u64, value: Vec<T>) {
        Communicator::send_vec(self, dest, tag, value)
    }
    fn recv<T: Send + 'static>(&self, source: usize, tag: u64) -> T {
        Communicator::recv(self, source, tag)
    }
    fn broadcast<T: Clone + Send + 'static>(&self, root: usize, value: Option<T>) -> T {
        Communicator::broadcast(self, root, value)
    }
    fn gather<T: Send + 'static>(&self, root: usize, value: T) -> Option<Vec<T>> {
        Communicator::gather(self, root, value)
    }
    fn allgather<T: Clone + Send + 'static>(&self, value: T) -> Vec<T> {
        Communicator::allgather(self, value)
    }
    fn allreduce_sum_f32(&self, buf: &mut [f32]) {
        Communicator::allreduce_sum_f32(self, buf)
    }
    fn allreduce_sum_f64(&self, buf: &mut [f64]) {
        Communicator::allreduce_sum_f64(self, buf)
    }
    fn allreduce_max_f64(&self, buf: &mut [f64]) {
        Communicator::allreduce_max_f64(self, buf)
    }
    fn allreduce_scalar_f64(&self, v: f64) -> f64 {
        Communicator::allreduce_scalar_f64(self, v)
    }
    fn world_bytes_sent(&self) -> u64 {
        Communicator::world_bytes_sent(self)
    }
    fn world_messages_sent(&self) -> u64 {
        Communicator::world_messages_sent(self)
    }
    fn account_payload(&self, bytes: u64) {
        Communicator::account_payload(self, bytes)
    }
    fn faults_armed(&self) -> bool {
        Communicator::faults_armed(self)
    }
    fn mark_dead(&self, rank: usize) {
        Communicator::mark_dead(self, rank)
    }
    fn alive_mask(&self) -> u64 {
        Communicator::alive_mask(self)
    }
    fn is_rank_dead(&self, rank: usize) -> bool {
        Communicator::is_rank_dead(self, rank)
    }
    fn try_recv_timeout<T: Send + 'static>(
        &self,
        source: usize,
        tag: u64,
        timeout: Duration,
    ) -> Result<Option<T>, CommError> {
        Communicator::try_recv_timeout(self, source, tag, timeout)
    }
    fn injected_fault_counts(&self) -> (u64, u64, u64) {
        Communicator::injected_fault_counts(self)
    }
}

/// The degenerate one-rank world: every collective is the identity and
/// nothing is ever sent, counted or priced.
///
/// This is what lets code written for a K-rank group (the learner loop in
/// `as_core::consumer`) run the single-rank case without a second
/// implementation: `broadcast`/`allreduce_*` return their input,
/// `gather`/`allgather` return a one-element vector, the traffic counters
/// and the modelled clocks stay zero (the defaults), and
/// `account_dataplane` is the default no-op — a lone rank prices nothing.
/// Point-to-point `send`/`recv` panic: there is no peer to talk to.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SoloComm;

impl Collective for SoloComm {
    fn rank(&self) -> usize {
        0
    }
    fn size(&self) -> usize {
        1
    }
    fn algo(&self) -> CollectiveAlgo {
        CollectiveAlgo::Linear
    }
    fn barrier(&self) {}
    fn send<T: Send + 'static>(&self, dest: usize, _tag: u64, _value: T) {
        panic!("SoloComm has no peer {dest} to send to");
    }
    fn send_vec<T: Send + 'static>(&self, dest: usize, _tag: u64, _value: Vec<T>) {
        panic!("SoloComm has no peer {dest} to send to");
    }
    fn recv<T: Send + 'static>(&self, source: usize, _tag: u64) -> T {
        panic!("SoloComm has no peer {source} to receive from");
    }
    fn broadcast<T: Clone + Send + 'static>(&self, _root: usize, value: Option<T>) -> T {
        value.unwrap_or_else(|| panic!("the only rank is the root and must pass the value"))
    }
    fn gather<T: Send + 'static>(&self, _root: usize, value: T) -> Option<Vec<T>> {
        Some(vec![value])
    }
    fn allgather<T: Clone + Send + 'static>(&self, value: T) -> Vec<T> {
        vec![value]
    }
    fn allreduce_sum_f32(&self, _buf: &mut [f32]) {}
    fn allreduce_sum_f64(&self, _buf: &mut [f64]) {}
    fn allreduce_max_f64(&self, _buf: &mut [f64]) {}
    fn world_bytes_sent(&self) -> u64 {
        0
    }
    fn world_messages_sent(&self) -> u64 {
        0
    }
    fn account_payload(&self, _bytes: u64) {}
}

/// Rank → modelled-node placement map for a [`NetModel`].
///
/// An empty map (the default) places every rank on its own node — all
/// hops are inter-node, which is the conservative legacy behaviour. A
/// populated map prices hops between co-located ranks at the intra-node
/// link instead of the fabric, which is what makes the `InterNode`
/// placement (producer slabs and learner ranks on distinct modelled
/// nodes) cost more fabric time than the packed `IntraNode` one.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct NodeMap {
    node_of: Vec<usize>,
}

impl NodeMap {
    /// Dense placement: `ranks` ranks filled `per_node` to a node, with
    /// node ids starting at `node_offset` (so two groups — producers and
    /// learners — can occupy provably distinct modelled nodes).
    pub fn placed(ranks: usize, per_node: usize, node_offset: usize) -> Self {
        let per_node = per_node.max(1);
        Self {
            node_of: (0..ranks).map(|r| node_offset + r / per_node).collect(),
        }
    }

    /// The modelled node hosting `rank`. Ranks beyond the map (and every
    /// rank of an empty map) live on their own private node.
    pub fn node_of(&self, rank: usize) -> usize {
        self.node_of.get(rank).copied().unwrap_or(usize::MAX - rank)
    }

    /// True when both ranks share a modelled node.
    pub fn same_node(&self, a: usize, b: usize) -> bool {
        self.node_of(a) == self.node_of(b)
    }

    /// Number of distinct modelled nodes in the map (0 for an empty map).
    pub fn node_count(&self) -> usize {
        let mut nodes: Vec<usize> = self.node_of.clone();
        nodes.sort_unstable();
        nodes.dedup();
        nodes.len()
    }
}

/// Per-rank fabric cost model behind [`SimNetComm`]: per-message
/// latencies plus fair-share bandwidths — one (latency, bandwidth) pair
/// for inter-node hops and one for intra-node hops, selected per message
/// by the [`NodeMap`] placement — with a knob for how much of the
/// modelled delay is injected as real wall time.
///
/// The inter-node bandwidth is **not** a free parameter:
/// [`NetModel::from_machine`] runs the machine's NIC + tapered-bisection
/// topology through the [`crate::netsim`] max-min fair allocation with
/// all ranks transmitting at once — the steady-state fair share under
/// full contention is the rate every inter-node message is charged at.
/// That reproduces the congestion knee the paper's scaling studies hinge
/// on: below the bisection saturation point the NIC share limits, beyond
/// it the bisection does.
#[derive(Debug, Clone, PartialEq)]
pub struct NetModel {
    /// Seconds charged per inter-node message (per hop aggregate).
    pub latency: f64,
    /// Fair-share inter-node bandwidth per rank under full contention,
    /// bytes/second.
    pub bytes_per_second: f64,
    /// Seconds charged per intra-node message.
    pub intra_latency: f64,
    /// Intra-node link bandwidth, bytes/second.
    pub intra_bytes_per_second: f64,
    /// Fraction of the modelled delay injected as real wall time. `1.0`
    /// delays in real modelled time: an endpoint's injected wall time
    /// equals what it was charged to within one pacing granule (250 µs,
    /// `pace.rs`) — a charge below the granule is slept together with
    /// later ones, not on its own. `0.0` records the cost and never
    /// sleeps (numerics are unaffected either way — delays never change
    /// payloads).
    pub time_scale: f64,
    /// Rank → modelled node placement; empty = every rank its own node.
    pub nodes: NodeMap,
}

impl NetModel {
    /// A placement-free model: every hop pays `latency` +
    /// `bytes/bytes_per_second`, like a fabric with no intra-node
    /// shortcut. The analytic α-β comparisons use this.
    pub fn uniform(latency: f64, bytes_per_second: f64, time_scale: f64) -> Self {
        Self {
            latency,
            bytes_per_second: bytes_per_second.max(1.0),
            intra_latency: latency,
            intra_bytes_per_second: bytes_per_second.max(1.0),
            time_scale,
            nodes: NodeMap::default(),
        }
    }

    /// Derive the fair-share model for `ranks` ranks placed
    /// `ranks_per_node` per node on `machine` (NIC shared by the same
    /// `ranks_per_node`), by running the max-min fair [`crate::netsim`]
    /// allocation on the machine's NIC + bisection topology with every
    /// rank transmitting concurrently.
    pub fn from_machine(
        machine: &MachineSpec,
        ranks: usize,
        ranks_per_node: usize,
        time_scale: f64,
    ) -> Self {
        Self::from_machine_placed(
            machine,
            ranks,
            ranks_per_node,
            ranks_per_node,
            0,
            time_scale,
        )
    }

    /// [`NetModel::from_machine`] with the placement degrees of freedom
    /// exposed: this group's ranks are packed `group_ranks_per_node` per
    /// modelled node starting at `node_offset`, while each NIC is shared
    /// by `nic_share_ranks` ranks (the *machine-wide* occupancy — on a
    /// node hosting both producer and learner ranks the NIC is split
    /// among all of them, not just this group's share).
    pub fn from_machine_placed(
        machine: &MachineSpec,
        ranks: usize,
        group_ranks_per_node: usize,
        nic_share_ranks: usize,
        node_offset: usize,
        time_scale: f64,
    ) -> Self {
        let ranks = ranks.max(1);
        let group_ranks_per_node = group_ranks_per_node.max(1);
        let nic_share_ranks = nic_share_ranks.max(1);
        let nodes = ranks.div_ceil(group_ranks_per_node);
        let egress_cap =
            machine.nic_bandwidth * machine.nics_per_node as f64 / nic_share_ranks as f64;
        let fair_rate = NetSim::contended_fair_share(
            ranks,
            egress_cap,
            machine.bisection_bandwidth(nodes).max(1.0),
        );
        Self {
            latency: machine.net_latency,
            bytes_per_second: fair_rate.max(1.0),
            intra_latency: machine.intra_node_latency,
            intra_bytes_per_second: machine.intra_node_bandwidth.max(1.0),
            time_scale,
            nodes: NodeMap::placed(ranks, group_ranks_per_node, node_offset),
        }
    }

    /// The paper's primary fabric: Frontier, 8 GCD-ranks per node,
    /// modelled delays injected at full scale.
    pub fn frontier_paper(ranks: usize) -> Self {
        Self::from_machine(&FRONTIER, ranks, FRONTIER.gpus_per_node, 1.0)
    }

    /// The paper's 2019 baseline fabric: Summit, 6 ranks per node.
    pub fn summit_paper(ranks: usize) -> Self {
        Self::from_machine(&SUMMIT, ranks, SUMMIT.gpus_per_node, 1.0)
    }

    /// Modelled cost of one message of `bytes` payload between `from`
    /// and `to`: the intra-node latency/bandwidth when the placement
    /// co-locates them, the fabric fair share otherwise.
    pub fn hop_cost(&self, from: usize, to: usize, bytes: u64) -> f64 {
        if self.nodes.same_node(from, to) {
            self.intra_latency + bytes as f64 / self.intra_bytes_per_second
        } else {
            self.latency + bytes as f64 / self.bytes_per_second
        }
    }

    /// Modelled cost of `messages` inter-node messages moving `bytes`
    /// payload (placement-blind; kept for coarse charges like
    /// [`Collective::account_payload`]).
    pub fn delay_seconds(&self, messages: u64, bytes: u64) -> f64 {
        messages as f64 * self.latency + bytes as f64 / self.bytes_per_second
    }
}

/// World-shared staging data-plane accounting: the critical-path clock
/// and wire-byte counter behind [`Collective::account_dataplane`]. One
/// instance is shared by every [`SimNetComm`] endpoint of a world
/// (created by [`SimNetComm::wrap_world`]), exactly like the
/// collective-side `world_max_nanos` counter — but deliberately a
/// *separate* object, so pricing the staging stream can never perturb
/// the collective traffic counters the cross-backend bit-identity tests
/// pin down.
#[derive(Debug, Default)]
pub struct DataPlaneClock {
    /// World-wide maximum of the per-rank data-plane timelines, nanos.
    max_nanos: AtomicU64,
    /// World-wide staging wire bytes.
    bytes: AtomicU64,
}

/// A [`Collective`] backend wrapped with a modelled network fabric.
///
/// Every operation walks the [`crate::algos`] schedule the wrapped
/// executor runs and charges this rank's serialized hops their
/// [`NetModel`] cost (accumulated per rank; the world-wide
/// [`Collective::modelled_comm_seconds`] is the per-rank maximum — the
/// modelled critical path — and, scaled by `NetModel::time_scale`, the
/// cost is injected as real wall time), then delegates to the inner
/// backend unchanged. Because payloads never change, **numerics are
/// bit-identical to the wrapped backend** — asserted end-to-end by the
/// cross-backend workflow determinism test.
///
/// Charging is byte-accurate for the sized operations (the allreduce
/// paths and `send_vec`), shallow-size-accurate for typed single-value
/// collectives (`broadcast`/`gather`/`allgather` price
/// `size_of::<T>()`), and latency-only for opaque `send`s; callers that
/// know the heap size of an opaque payload declare it via
/// [`Collective::account_payload`] /
/// [`Collective::account_broadcast_payload`].
pub struct SimNetComm<C: Collective> {
    inner: C,
    model: NetModel,
    /// This endpoint's serialized modelled nanoseconds.
    local_nanos: AtomicU64,
    /// World-wide maximum of the per-rank timelines (shared by all
    /// endpoints): the modelled critical path.
    world_max_nanos: Arc<AtomicU64>,
    /// This endpoint's serialized modelled data-plane nanoseconds.
    dp_local_nanos: AtomicU64,
    /// World-shared data-plane clock and wire-byte counter.
    dp_clock: Arc<DataPlaneClock>,
    /// Wall time this endpoint still owes for what both clocks charged
    /// (`time_scale` × modelled), slept off a granule at a time.
    pacer: Pacer,
}

impl<C: Collective> SimNetComm<C> {
    /// Wrap one endpoint. All endpoints of a world must share the
    /// `world_max_nanos` counter and the `dp_clock` — use
    /// [`SimNetComm::world`] unless you are assembling a world by hand.
    pub fn new(
        inner: C,
        model: NetModel,
        world_max_nanos: Arc<AtomicU64>,
        dp_clock: Arc<DataPlaneClock>,
    ) -> Self {
        Self {
            inner,
            model,
            local_nanos: AtomicU64::new(0),
            world_max_nanos,
            dp_local_nanos: AtomicU64::new(0),
            dp_clock,
            pacer: Pacer::default(),
        }
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &C {
        &self.inner
    }

    /// The fabric model in force.
    pub fn model(&self) -> &NetModel {
        &self.model
    }

    /// Charge `secs` of modelled fabric time to this rank's timeline,
    /// fold it into the world maximum, and owe its `time_scale` share of
    /// wall time to the pacer.
    fn charge_seconds(&self, secs: f64) {
        if secs <= 0.0 {
            return;
        }
        let nanos = (secs * 1e9).round() as u64;
        let local = self.local_nanos.fetch_add(nanos, Ordering::Relaxed) + nanos;
        self.world_max_nanos.fetch_max(local, Ordering::Relaxed);
        self.pacer.charge(secs * self.model.time_scale);
    }

    /// Sum the hop costs of this rank's events and charge them as one
    /// quantum (one f64 sum → at most 1 ns of quantization per
    /// collective, which is what keeps the α-β comparison tests tight).
    fn charge_events(&self, events: &[MsgEvent]) {
        let rank = self.inner.rank();
        let secs: f64 = events
            .iter()
            .map(|e| self.model.hop_cost(rank, e.peer, e.bytes))
            .sum();
        self.charge_seconds(secs);
    }
}

impl SimNetComm<ChannelComm> {
    /// Build a full world of `size` in-process endpoints wrapped with
    /// `model`, sharing one modelled-critical-path counter. The
    /// executors run the default log-depth schedules; use
    /// [`SimNetComm::world_with_algo`] to select.
    pub fn world(size: usize, model: NetModel) -> Vec<SimNetComm<ChannelComm>> {
        Self::world_with_algo(size, model, CollectiveAlgo::Log)
    }

    /// [`SimNetComm::world`] with an explicit collective algorithm.
    pub fn world_with_algo(
        size: usize,
        model: NetModel,
        algo: CollectiveAlgo,
    ) -> Vec<SimNetComm<ChannelComm>> {
        Self::wrap_world(CommWorld::with_algo(size, algo).into_endpoints(), model)
    }

    /// Wrap an externally built world (e.g. a fault-armed
    /// [`CommWorld::with_faults`]) with `model`, sharing one
    /// modelled-critical-path counter across the returned endpoints.
    pub fn wrap_world(
        endpoints: Vec<ChannelComm>,
        model: NetModel,
    ) -> Vec<SimNetComm<ChannelComm>> {
        let nanos = Arc::new(AtomicU64::new(0));
        let dp = Arc::new(DataPlaneClock::default());
        endpoints
            .into_iter()
            .map(|c| SimNetComm::new(c, model.clone(), nanos.clone(), dp.clone()))
            .collect()
    }
}

impl<C: Collective> Collective for SimNetComm<C> {
    fn rank(&self) -> usize {
        self.inner.rank()
    }
    fn size(&self) -> usize {
        self.inner.size()
    }
    fn algo(&self) -> CollectiveAlgo {
        self.inner.algo()
    }
    fn barrier(&self) {
        // One fabric round-trip's worth of latency, charged uniformly.
        self.charge_seconds(self.model.latency);
        self.inner.barrier()
    }
    fn send<T: Send + 'static>(&self, dest: usize, tag: u64, value: T) {
        self.charge_seconds(self.model.hop_cost(self.rank(), dest, 0));
        self.inner.send(dest, tag, value)
    }
    fn send_vec<T: Send + 'static>(&self, dest: usize, tag: u64, value: Vec<T>) {
        let bytes = (value.len() * std::mem::size_of::<T>()) as u64;
        self.charge_seconds(self.model.hop_cost(self.rank(), dest, bytes));
        self.inner.send_vec(dest, tag, value)
    }
    fn recv<T: Send + 'static>(&self, source: usize, tag: u64) -> T {
        // The sender carries the cost; receiving is the matching wait.
        self.inner.recv(source, tag)
    }
    fn broadcast<T: Clone + Send + 'static>(&self, root: usize, value: Option<T>) -> T {
        let ev = broadcast_events(
            self.algo(),
            self.size(),
            root,
            self.rank(),
            std::mem::size_of::<T>() as u64,
        );
        self.charge_events(&ev);
        self.inner.broadcast(root, value)
    }
    fn gather<T: Send + 'static>(&self, root: usize, value: T) -> Option<Vec<T>> {
        let ev = gather_events(
            self.algo(),
            self.size(),
            root,
            self.rank(),
            std::mem::size_of::<T>() as u64,
        );
        self.charge_events(&ev);
        self.inner.gather(root, value)
    }
    fn allgather<T: Clone + Send + 'static>(&self, value: T) -> Vec<T> {
        let ev = allgather_events(
            self.algo(),
            self.size(),
            self.rank(),
            std::mem::size_of::<T>() as u64,
        );
        self.charge_events(&ev);
        self.inner.allgather(value)
    }
    fn allreduce_sum_f32(&self, buf: &mut [f32]) {
        let ev = allreduce_events(self.algo(), self.size(), self.rank(), buf.len(), 4);
        self.charge_events(&ev);
        self.inner.allreduce_sum_f32(buf)
    }
    fn allreduce_sum_f64(&self, buf: &mut [f64]) {
        let ev = allreduce_events(self.algo(), self.size(), self.rank(), buf.len(), 8);
        self.charge_events(&ev);
        self.inner.allreduce_sum_f64(buf)
    }
    fn allreduce_max_f64(&self, buf: &mut [f64]) {
        let ev = allreduce_events(self.algo(), self.size(), self.rank(), buf.len(), 8);
        self.charge_events(&ev);
        self.inner.allreduce_max_f64(buf)
    }
    fn world_bytes_sent(&self) -> u64 {
        self.inner.world_bytes_sent()
    }
    fn world_messages_sent(&self) -> u64 {
        self.inner.world_messages_sent()
    }
    fn account_payload(&self, bytes: u64) {
        self.charge_seconds(bytes as f64 / self.model.bytes_per_second);
        self.inner.account_payload(bytes);
    }
    fn account_broadcast_payload(&self, root: usize, bytes_per_copy: u64) {
        // Bandwidth only — the accompanying `broadcast` call already
        // charged the per-hop latencies of the same schedule.
        let rank = self.rank();
        let ev = broadcast_events(self.algo(), self.size(), root, rank, bytes_per_copy);
        let secs: f64 = ev
            .iter()
            .map(|e| {
                self.model.hop_cost(rank, e.peer, e.bytes) - self.model.hop_cost(rank, e.peer, 0)
            })
            .sum();
        self.charge_seconds(secs);
        // The world traffic counter stays algorithm-independent: one
        // delivered copy per non-root rank.
        self.inner
            .account_payload(bytes_per_copy.saturating_mul(self.size() as u64 - 1));
    }
    fn modelled_comm_seconds(&self) -> f64 {
        self.world_max_nanos.load(Ordering::Relaxed) as f64 * 1e-9
    }
    fn account_dataplane(&self, wire_bytes: u64, model_seconds: f64) {
        self.dp_clock.bytes.fetch_add(wire_bytes, Ordering::Relaxed);
        if model_seconds <= 0.0 {
            return;
        }
        let nanos = (model_seconds * 1e9).round() as u64;
        let local = self.dp_local_nanos.fetch_add(nanos, Ordering::Relaxed) + nanos;
        self.dp_clock.max_nanos.fetch_max(local, Ordering::Relaxed);
        self.pacer.charge(model_seconds * self.model.time_scale);
    }
    fn modelled_dataplane_seconds(&self) -> f64 {
        self.dp_clock.max_nanos.load(Ordering::Relaxed) as f64 * 1e-9
    }
    fn dataplane_bytes(&self) -> u64 {
        self.dp_clock.bytes.load(Ordering::Relaxed)
    }
    fn faults_armed(&self) -> bool {
        self.inner.faults_armed()
    }
    fn mark_dead(&self, rank: usize) {
        self.inner.mark_dead(rank)
    }
    fn alive_mask(&self) -> u64 {
        self.inner.alive_mask()
    }
    fn is_rank_dead(&self, rank: usize) -> bool {
        self.inner.is_rank_dead(rank)
    }
    fn try_recv_timeout<T: Send + 'static>(
        &self,
        source: usize,
        tag: u64,
        timeout: Duration,
    ) -> Result<Option<T>, CommError> {
        // The matching wait is the receiver's; senders carried the cost.
        self.inner.try_recv_timeout(source, tag, timeout)
    }
    fn injected_fault_counts(&self) -> (u64, u64, u64) {
        self.inner.injected_fault_counts()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    fn run_world<C, F>(endpoints: Vec<C>, f: F)
    where
        C: Collective,
        F: Fn(C) + Send + Sync + Copy + 'static,
    {
        let handles: Vec<_> = endpoints
            .into_iter()
            .map(|c| thread::spawn(move || f(c)))
            .collect();
        for h in handles {
            h.join().expect("rank thread panicked");
        }
    }

    fn fast_model() -> NetModel {
        NetModel::uniform(1e-7, 1e9, 0.0) // record-only: tests stay fast
    }

    #[test]
    fn channel_comm_world_works_through_the_trait() {
        fn collective_roundtrip<C: Collective>(c: C) {
            let all = c.allgather(c.rank() as u64);
            assert_eq!(all, vec![0, 1, 2]);
            let mut buf = vec![c.rank() as f32 + 1.0; 5];
            c.allreduce_sum_f32(&mut buf);
            assert!(buf.iter().all(|&v| (v - 6.0).abs() < 1e-6));
            let s = c.allreduce_scalar_f64(2.0);
            assert!((s - 6.0).abs() < 1e-12);
            c.barrier();
        }
        run_world(CommWorld::new(3).into_endpoints(), collective_roundtrip);
        run_world(SimNetComm::world(3, fast_model()), collective_roundtrip);
    }

    #[test]
    fn solo_comm_collectives_are_the_identity_and_free() {
        let c = SoloComm;
        assert_eq!((c.rank(), c.size()), (0, 1));
        c.barrier();
        assert_eq!(c.broadcast(0, Some(vec![1u8, 2])), vec![1, 2]);
        assert_eq!(c.gather(0, 7u32), Some(vec![7]));
        assert_eq!(c.allgather("x"), vec!["x"]);
        let mut f = [1.5f32, -2.0];
        c.allreduce_sum_f32(&mut f);
        assert_eq!(f, [1.5, -2.0]);
        let mut d = [0.1f64, 3.0];
        c.allreduce_sum_f64(&mut d);
        c.allreduce_max_f64(&mut d);
        assert_eq!(d, [0.1, 3.0]);
        assert_eq!(c.allreduce_scalar_f64(4.25), 4.25);
        // Nothing a lone rank does is counted or priced.
        c.account_payload(1 << 20);
        c.account_broadcast_payload(0, 1 << 20);
        c.account_dataplane(1 << 20, 0.5);
        assert_eq!(c.world_bytes_sent(), 0);
        assert_eq!(c.world_messages_sent(), 0);
        assert_eq!(c.modelled_comm_seconds(), 0.0);
        assert_eq!(c.modelled_dataplane_seconds(), 0.0);
        assert_eq!(c.dataplane_bytes(), 0);
        // The liveness defaults describe a world where nothing dies.
        c.mark_dead(0);
        assert_eq!(c.alive_mask(), 1);
        assert!(!c.is_rank_dead(0));
    }

    #[test]
    fn simnet_matches_channel_comm_bit_for_bit() {
        // Same seed-free deterministic payloads through both backends:
        // the reduced buffers must be bit-identical.
        fn reduce<C: Collective>(c: C) -> Vec<f64> {
            let mut buf: Vec<f64> = (0..17)
                .map(|i| (c.rank() as f64 + 1.0) * (i as f64 + 0.37).sin())
                .collect();
            c.allreduce_sum_f64(&mut buf);
            buf
        }
        let run = |eps: Vec<Box<dyn FnOnce() -> Vec<f64> + Send>>| -> Vec<Vec<f64>> {
            let hs: Vec<_> = eps.into_iter().map(thread::spawn).collect();
            hs.into_iter().map(|h| h.join().unwrap()).collect()
        };
        let chan: Vec<Box<dyn FnOnce() -> Vec<f64> + Send>> = CommWorld::new(2)
            .into_endpoints()
            .into_iter()
            .map(|c| Box::new(move || reduce(c)) as _)
            .collect();
        let sim: Vec<Box<dyn FnOnce() -> Vec<f64> + Send>> = SimNetComm::world(2, fast_model())
            .into_iter()
            .map(|c| Box::new(move || reduce(c)) as _)
            .collect();
        let a = run(chan);
        let b = run(sim);
        for (ra, rb) in a.iter().zip(&b) {
            for (x, y) in ra.iter().zip(rb) {
                assert_eq!(x.to_bits(), y.to_bits(), "backends must agree bitwise");
            }
        }
    }

    #[test]
    fn simnet_accumulates_modelled_seconds_and_bytes() {
        run_world(SimNetComm::world(2, fast_model()), |c| {
            let mut buf = vec![c.rank() as f32; 1024];
            c.allreduce_sum_f32(&mut buf);
            if c.rank() == 0 {
                c.send_vec(1, 7, vec![0u8; 4096]);
            } else {
                let _: Vec<u8> = c.recv(0, 7);
            }
            c.barrier();
            assert!(c.modelled_comm_seconds() > 0.0, "fabric time must accrue");
            assert!(c.world_bytes_sent() >= 4096, "payload bytes still counted");
            assert!(c.world_messages_sent() > 0, "hops are counted");
        });
    }

    #[test]
    fn dataplane_charges_stay_off_the_collective_counters() {
        run_world(SimNetComm::world(2, fast_model()), |c| {
            let comm_secs = c.modelled_comm_seconds();
            let comm_bytes = c.world_bytes_sent();
            c.account_dataplane(1_000_000, 0.25);
            c.account_dataplane(500_000, 0.25);
            // The data-plane charge never leaks into the collective
            // accounting (read before the barrier adds its own cost).
            assert_eq!(c.modelled_comm_seconds(), comm_secs);
            assert_eq!(c.world_bytes_sent(), comm_bytes);
            c.barrier();
            // Data-plane traffic accrues on its own world-shared clock...
            assert_eq!(c.dataplane_bytes(), 2 * 1_500_000, "both ranks charged");
            // ...with critical-path semantics, not sum: both ranks
            // charged 0.5 s in parallel, so the clock reads 0.5, not 1.0.
            assert!((c.modelled_dataplane_seconds() - 0.5).abs() < 1e-9);
        });
    }

    #[test]
    fn injected_wall_time_follows_the_model_not_the_os_timer() {
        use std::time::Instant;
        // 1.4 µs per charge (an intra-node 32 KiB bucket on Frontier).
        // Slept one by one — ≥ 65 µs each on a stock timer — 20 000 of
        // them took ≈ 1.3 s; paced, they take the 28 ms they model.
        let c = SimNetComm::world(1, NetModel::uniform(0.0, 1e9, 1.0)).remove(0);
        let start = Instant::now();
        for _ in 0..20_000 {
            c.account_payload(1_400);
        }
        let wall = start.elapsed();
        assert!(wall >= Duration::from_micros(28_000 - 250), "{wall:?}");
        assert!(wall < Duration::from_millis(500), "{wall:?}");
        // The modelled clock still books every charge, rounded on its own.
        let modelled = (20_000u64 * 1_400) as f64 * 1e-9;
        assert_eq!(c.modelled_comm_seconds().to_bits(), modelled.to_bits());

        // Collective and data-plane charges owe to one balance: 2 + 2
        // charges of 100 µs cross the 250 µs granule only together.
        let c = SimNetComm::world(1, NetModel::uniform(0.0, 1e9, 1.0)).remove(0);
        let start = Instant::now();
        for _ in 0..2 {
            c.account_payload(100_000);
            c.account_dataplane(0, 100e-6);
        }
        assert!(start.elapsed() >= Duration::from_micros(300));
        assert_eq!(c.modelled_comm_seconds(), 200e-6);
        assert_eq!(c.modelled_dataplane_seconds(), 200e-6);
    }

    #[test]
    fn channel_comm_ignores_dataplane_charges() {
        run_world(CommWorld::new(2).into_endpoints(), |c| {
            c.account_dataplane(1 << 30, 10.0);
            assert_eq!(c.dataplane_bytes(), 0);
            assert_eq!(c.modelled_dataplane_seconds(), 0.0);
            c.barrier();
        });
    }

    #[test]
    fn modelled_seconds_are_the_critical_path_not_the_sum() {
        // A broadcast from rank 0 in a 4-rank world under the tree algo:
        // the root's serialized share is ⌈log₂ 4⌉ = 2 hops; leaves send
        // nothing. The world counter must be the root's timeline (2α),
        // not the 3α world total.
        let model = NetModel::uniform(1e-3, 1e12, 0.0);
        run_world(SimNetComm::world(4, model), |c| {
            let _ = if c.rank() == 0 {
                c.broadcast(0, Some(0u8))
            } else {
                c.broadcast::<u8>(0, None)
            };
            c.barrier();
            let secs = c.modelled_comm_seconds();
            // 2 root hops + 1 barrier latency, ±quantization.
            assert!((secs - 3e-3).abs() < 1e-6, "got {secs}");
        });
    }

    #[test]
    fn internode_placement_prices_hops_differently() {
        let mut model = NetModel::uniform(2e-6, 1e9, 0.0);
        model.intra_latency = 0.5e-6;
        model.intra_bytes_per_second = 50e9;
        model.nodes = NodeMap::placed(4, 2, 0);
        // Ranks 0,1 share node 0; ranks 2,3 share node 1.
        assert!(model.nodes.same_node(0, 1));
        assert!(!model.nodes.same_node(1, 2));
        assert_eq!(model.nodes.node_count(), 2);
        let close = model.hop_cost(0, 1, 1_000_000);
        let far = model.hop_cost(1, 2, 1_000_000);
        assert!(close < far, "intra-node hops must be cheaper");
        // Offset placements occupy disjoint nodes.
        let learners = NodeMap::placed(4, 2, 2);
        for p in 0..4 {
            for l in 0..4 {
                assert_ne!(
                    model.nodes.node_of(p),
                    learners.node_of(l),
                    "offset groups may not share a node"
                );
            }
        }
    }

    #[test]
    fn frontier_model_reflects_the_machine_constants() {
        let m = NetModel::frontier_paper(8);
        assert_eq!(m.latency, FRONTIER.net_latency);
        assert_eq!(m.intra_latency, FRONTIER.intra_node_latency);
        // 8 ranks on one node share 4×25 GB/s NICs: 12.5 GB/s fair share,
        // and one node's bisection slice cannot beat its injection.
        assert!(m.bytes_per_second <= 12.5e9 + 1.0);
        assert!(m.bytes_per_second > 1.0e9);
        // One node's worth of ranks all land on modelled node 0.
        assert_eq!(m.nodes.node_count(), 1);
        // More ranks through the same tapered bisection → smaller share.
        let big = NetModel::from_machine(&FRONTIER, 512, 8, 1.0);
        assert!(big.bytes_per_second <= m.bytes_per_second);
    }

    #[test]
    fn delay_model_is_latency_plus_bandwidth() {
        let m = NetModel::uniform(2e-6, 1e9, 0.0);
        let d = m.delay_seconds(3, 1_000_000);
        assert!((d - (6e-6 + 1e-3)).abs() < 1e-12);
    }
}
