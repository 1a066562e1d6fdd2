//! Thread-backed, MPI-like communicator.
//!
//! A [`CommWorld`] owns `size` endpoints; each endpoint is handed to one OS
//! thread and behaves like an MPI rank. Point-to-point messages are typed
//! (any `Send + 'static` payload) and matched by `(source, tag)`. On top of
//! the point-to-point layer we provide barriers and the collectives used by
//! the PIC halo exchange, the staging metadata path and DDP training.
//!
//! Collectives execute the explicit schedules from [`crate::algos`]: under
//! the default [`CollectiveAlgo::Log`] a broadcast walks a binomial tree,
//! gather mirrors it, allgather runs the Bruck dissemination rounds, and a
//! small allreduce takes the allgather-based path with the canonical ring
//! reduction order (so numerics are bit-identical across algorithms — see
//! the `algos` module docs). [`CollectiveAlgo::Linear`] keeps the
//! historical root-fan-out loops as a baseline.
//!
//! Messages between ranks never copy through shared memory owned by a third
//! party: the payload is moved through a channel, which mirrors the
//! zero-intermediate-storage philosophy of the paper's in-transit design.

use std::any::Any;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::{Condvar, Mutex};

use crate::algos::{
    allreduce_goes_log, binomial_plan, bruck_rounds, reduce_in_ring_order, CollectiveAlgo,
};
use crate::cells::{track_cell, Cell};
use crate::error::CommError;

/// Wildcard tag: matches any tag in [`Communicator::recv_any_tag`].
pub const ANY_TAG: u64 = u64::MAX;

/// Tags at or above this value are reserved for internal collectives.
pub const RESERVED_TAG_BASE: u64 = 1 << 62;

const BCAST_TAG: u64 = RESERVED_TAG_BASE;
const GATHER_TAG: u64 = RESERVED_TAG_BASE + (1 << 32);
const RS_TAG: u64 = RESERVED_TAG_BASE + (2 << 32);
const AG_TAG: u64 = RESERVED_TAG_BASE + (3 << 32);
const BRUCK_TAG: u64 = RESERVED_TAG_BASE + (4 << 32);
const SMALL_AR_TAG: u64 = RESERVED_TAG_BASE + (5 << 32);

/// Tag region reserved for the fault-tolerant exchange layer
/// (`as-core`'s `FtComm`): tags are `FT_TAG_BASE + op_seq`, one stable
/// tag per FT operation, so a survivor's late receive still matches the
/// sender's (possibly delayed or duplicated) message.
pub const FT_TAG_BASE: u64 = RESERVED_TAG_BASE + (9 << 32);

type Payload = Box<dyn Any + Send>;

struct Envelope {
    source: usize,
    tag: u64,
    /// Injected duplicate delivery: the receiver's dedup layer discards
    /// flagged envelopes without looking at the payload.
    dup: bool,
    payload: Payload,
}

/// Seeded message-level fault knobs for a fault-armed world.
///
/// Rates are per-message probabilities decided by a splitmix64 hash of
/// `(seed, source, dest, per-link sequence number)` — no shared mutable
/// state, so the same seed and the same per-rank send order give the
/// **bit-identical fault sequence** on every run. "Dropped" messages
/// model an eager-transport retransmit: the payload is delivered after a
/// retransmit timeout (4× `delay_ms`) rather than lost, so collectives
/// stay correct while their timing degrades.
#[derive(Debug, Clone, PartialEq)]
pub struct CommFaults {
    /// Seed for the per-message fault decisions.
    pub seed: u64,
    /// Probability a message is "dropped" (delivered after the modelled
    /// retransmit timeout, 4× `delay_ms`).
    pub drop_rate: f64,
    /// Probability a message is delayed by `delay_ms`.
    pub delay_rate: f64,
    /// Injected delay quantum in milliseconds.
    pub delay_ms: u64,
    /// Probability a message is duplicated (the twin is flagged and
    /// discarded by the receiver's dedup layer).
    pub dup_rate: f64,
}

impl CommFaults {
    /// No message-level faults (a fault-armed world can still tolerate
    /// rank deaths without injecting any chaos on the links).
    pub fn none(seed: u64) -> Self {
        Self {
            seed,
            drop_rate: 0.0,
            delay_rate: 0.0,
            delay_ms: 0,
            dup_rate: 0.0,
        }
    }

    /// True when every rate is zero — no injector is installed.
    pub fn is_noop(&self) -> bool {
        self.drop_rate <= 0.0 && self.delay_rate <= 0.0 && self.dup_rate <= 0.0
    }
}

enum FaultAction {
    None,
    Drop,
    Delay,
    Duplicate,
}

/// Deterministic per-message fault decisions plus world-wide counters.
pub struct FaultInjector {
    faults: CommFaults,
    dropped: AtomicU64,
    delayed: AtomicU64,
    duplicated: AtomicU64,
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl FaultInjector {
    fn new(faults: CommFaults) -> Self {
        Self {
            faults,
            dropped: AtomicU64::new(0),
            delayed: AtomicU64::new(0),
            duplicated: AtomicU64::new(0),
        }
    }

    /// The fault decision for the `seq`-th message on the `src → dest`
    /// link. Pure function of `(seed, src, dest, seq)`.
    fn decide(&self, src: usize, dest: usize, seq: u64) -> FaultAction {
        let key = self.faults.seed.wrapping_add(splitmix64(
            (src as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add((dest as u64).rotate_left(32))
                .wrapping_add(seq.wrapping_mul(0xD134_2543_DE82_EF95)),
        ));
        let u = (splitmix64(key) >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        let f = &self.faults;
        if u < f.drop_rate {
            FaultAction::Drop
        } else if u < f.drop_rate + f.delay_rate {
            FaultAction::Delay
        } else if u < f.drop_rate + f.delay_rate + f.dup_rate {
            FaultAction::Duplicate
        } else {
            FaultAction::None
        }
    }

    /// `(dropped, delayed, duplicated)` counters so far, world-wide.
    pub fn counts(&self) -> (u64, u64, u64) {
        (
            self.dropped.load(Ordering::Relaxed),
            self.delayed.load(Ordering::Relaxed),
            self.duplicated.load(Ordering::Relaxed),
        )
    }
}

/// Reusable rendezvous built on the workspace `parking_lot` shim rather
/// than `std::sync::Barrier`, so the `detect` instrumentation observes
/// its lock traffic like any other workspace synchronisation.
struct Rendezvous {
    state: Mutex<RendezvousState>,
    cvar: Condvar,
    size: usize,
}

struct RendezvousState {
    arrived: usize,
    generation: u64,
}

impl Rendezvous {
    fn new(size: usize) -> Self {
        Self {
            state: Mutex::new(RendezvousState {
                arrived: 0,
                generation: 0,
            }),
            cvar: Condvar::new(),
            size,
        }
    }

    fn wait(&self) {
        let mut st = self.state.lock();
        let gen = st.generation;
        st.arrived += 1;
        if st.arrived == self.size {
            st.arrived = 0;
            st.generation = st.generation.wrapping_add(1);
            self.cvar.notify_all();
        } else {
            while st.generation == gen {
                self.cvar.wait(&mut st);
            }
        }
    }
}

/// Shared liveness state of a world: which ranks are marked dead, and
/// whether the endpoints behave tolerantly (suppress sends to dead
/// ranks, mark a peer dead instead of panicking on a torn-down channel).
struct WorldHealth {
    /// Bitmask of dead ranks (worlds are ≤ 64 ranks here).
    dead: AtomicU64,
    /// Fault-armed worlds degrade instead of panicking.
    armed: bool,
    /// Detector registration for the shared liveness mask.
    cell: Cell,
}

/// A fixed-size group of communicating ranks.
///
/// Construct one world per logical job (a simulation, a reader group, a DDP
/// trainer), split the endpoints across threads and drop the world handle.
pub struct CommWorld {
    endpoints: Vec<Communicator>,
}

impl CommWorld {
    /// Create a world with `size` ranks running the default log-depth
    /// collective schedules ([`CollectiveAlgo::Log`]).
    ///
    /// # Panics
    /// Panics if `size == 0`.
    pub fn new(size: usize) -> Self {
        Self::with_algo(size, CollectiveAlgo::Log)
    }

    /// Create a world with `size` ranks running `algo` collectives.
    ///
    /// # Panics
    /// Panics if `size == 0`.
    pub fn with_algo(size: usize, algo: CollectiveAlgo) -> Self {
        Self::build(size, algo, false, None)
    }

    /// Create a **fault-armed** world: endpoints tolerate dead peers
    /// (sends to a rank marked dead are suppressed; a torn-down channel
    /// marks the peer dead instead of panicking) and, when `faults` has
    /// non-zero rates, every message passes through the deterministic
    /// [`FaultInjector`].
    ///
    /// # Panics
    /// Panics if `size == 0` or `size > 64` (liveness is a bitmask).
    pub fn with_faults(size: usize, algo: CollectiveAlgo, faults: CommFaults) -> Self {
        assert!(size <= 64, "fault-armed worlds are limited to 64 ranks");
        let injector = if faults.is_noop() {
            None
        } else {
            Some(Arc::new(FaultInjector::new(faults)))
        };
        Self::build(size, algo, true, injector)
    }

    fn build(
        size: usize,
        algo: CollectiveAlgo,
        armed: bool,
        injector: Option<Arc<FaultInjector>>,
    ) -> Self {
        assert!(size > 0, "communicator world must have at least one rank");
        let mut senders: Vec<Sender<Envelope>> = Vec::with_capacity(size);
        let mut receivers: Vec<Receiver<Envelope>> = Vec::with_capacity(size);
        for _ in 0..size {
            let (tx, rx) = unbounded();
            senders.push(tx);
            receivers.push(rx);
        }
        let barrier = Arc::new(Rendezvous::new(size));
        let bytes_sent = Arc::new(AtomicU64::new(0));
        let messages_sent = Arc::new(AtomicU64::new(0));
        let health = Arc::new(WorldHealth {
            dead: AtomicU64::new(0),
            armed,
            cell: track_cell!("cluster::WorldHealth.dead"),
        });
        let endpoints = receivers
            .into_iter()
            .enumerate()
            .map(|(rank, rx)| Communicator {
                rank,
                size,
                algo,
                peers: senders.clone(),
                inbox: rx,
                stash: Mutex::new(BTreeMap::new()),
                stash_cell: track_cell!("cluster::Communicator.stash"),
                barrier: barrier.clone(),
                bytes_sent: bytes_sent.clone(),
                messages_sent: messages_sent.clone(),
                health: health.clone(),
                injector: injector.clone(),
                fault_seq: (0..size).map(|_| AtomicU64::new(0)).collect(),
            })
            .collect();
        Self { endpoints }
    }

    /// Take the endpoints out, one per rank, in rank order.
    pub fn into_endpoints(self) -> Vec<Communicator> {
        self.endpoints
    }
}

/// One rank's endpoint in a [`CommWorld`].
pub struct Communicator {
    rank: usize,
    size: usize,
    algo: CollectiveAlgo,
    peers: Vec<Sender<Envelope>>,
    inbox: Receiver<Envelope>,
    /// Out-of-order messages parked until a matching `recv` arrives.
    /// Ordered map: wildcard (`ANY_TAG`) matching walks it in key order,
    /// so which stashed message wins is deterministic (a hash map here
    /// made the match depend on hash-iteration order).
    stash: Mutex<BTreeMap<(usize, u64), Vec<Envelope>>>,
    /// Detector registration for the stash (mutated under its mutex).
    stash_cell: Cell,
    barrier: Arc<Rendezvous>,
    bytes_sent: Arc<AtomicU64>,
    messages_sent: Arc<AtomicU64>,
    health: Arc<WorldHealth>,
    injector: Option<Arc<FaultInjector>>,
    /// Per-destination send sequence numbers (this rank's half of the
    /// deterministic `(src, dest, seq)` fault-decision key).
    fault_seq: Vec<AtomicU64>,
}

impl Communicator {
    /// This endpoint's rank in `0..size`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the world.
    pub fn size(&self) -> usize {
        self.size
    }

    /// The collective algorithm family this world executes.
    pub fn algo(&self) -> CollectiveAlgo {
        self.algo
    }

    /// Total payload bytes sent across the whole world so far (for traffic
    /// accounting in scaling studies). Only slice-typed sends are counted.
    pub fn world_bytes_sent(&self) -> u64 {
        self.bytes_sent.load(Ordering::Relaxed)
    }

    /// Total point-to-point messages sent across the whole world so far —
    /// every `send`, including collective-internal hops, counts one. The
    /// message count is what separates the linear and log-depth schedules
    /// when payloads are small, so benchmarks report it alongside bytes.
    pub fn world_messages_sent(&self) -> u64 {
        self.messages_sent.load(Ordering::Relaxed)
    }

    fn account(&self, bytes: usize) {
        self.bytes_sent.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    /// Record `bytes` of payload carried by messages whose size the type
    /// system hides (e.g. a broadcast of structured samples). Callers
    /// that know the serialized size of an opaque payload use this to
    /// keep [`Self::world_bytes_sent`] honest.
    pub fn account_payload(&self, bytes: u64) {
        self.bytes_sent.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Send `value` to rank `dest` with message tag `tag`.
    ///
    /// Never blocks (channels are unbounded, as MPI eager sends effectively
    /// are for the message sizes used here).
    pub fn send<T: Send + 'static>(&self, dest: usize, tag: u64, value: T) {
        assert!(dest < self.size, "send to out-of-range rank {dest}");
        assert_ne!(tag, ANY_TAG, "ANY_TAG is reserved for receives");
        if self.health.armed && self.is_rank_dead(dest) {
            // Tolerant mode: a dead rank receives nothing; the message
            // evaporates instead of piling up in an orphaned inbox.
            return;
        }
        self.messages_sent.fetch_add(1, Ordering::Relaxed);
        if let Some(inj) = &self.injector {
            let seq = self.fault_seq[dest].fetch_add(1, Ordering::Relaxed);
            match inj.decide(self.rank, dest, seq) {
                FaultAction::None => {}
                FaultAction::Drop => {
                    // Eager-transport semantics: the "lost" message is
                    // retransmitted after a timeout, so it arrives late
                    // rather than never.
                    inj.dropped.fetch_add(1, Ordering::Relaxed);
                    crate::pace::sleep_for(Duration::from_millis(4 * inj.faults.delay_ms.max(1)));
                }
                FaultAction::Delay => {
                    inj.delayed.fetch_add(1, Ordering::Relaxed);
                    crate::pace::sleep_for(Duration::from_millis(inj.faults.delay_ms.max(1)));
                }
                FaultAction::Duplicate => {
                    // The twin carries a junk payload: receivers discard
                    // dup-flagged envelopes without downcasting.
                    inj.duplicated.fetch_add(1, Ordering::Relaxed);
                    let twin = Envelope {
                        source: self.rank,
                        tag,
                        dup: true,
                        payload: Box::new(()),
                    };
                    let _ = self.peers[dest].send(twin);
                }
            }
        }
        let env = Envelope {
            source: self.rank,
            tag,
            dup: false,
            payload: Box::new(value),
        };
        match self.peers[dest].send(env) {
            Ok(()) => {}
            // In a fault-armed world a torn-down endpoint is a detected
            // rank death, not a usage error.
            Err(_) if self.health.armed => self.mark_dead(dest),
            // A send can only fail if the receiving endpoint was dropped,
            // which is a teardown race we treat as a hard usage error.
            Err(_) => panic!("send to a dropped communicator endpoint"),
        }
    }

    /// Mark `rank` dead in the shared world-health mask. Subsequent
    /// tolerant sends to it are suppressed; fault-aware receives
    /// ([`Self::try_recv_timeout`]) report [`CommError::RankDead`]
    /// immediately instead of waiting out their timeout.
    pub fn mark_dead(&self, rank: usize) {
        if rank < 64 {
            self.health.cell.atomic();
            self.health.dead.fetch_or(1 << rank, Ordering::SeqCst);
        }
    }

    /// Bitmask of ranks not (yet) marked dead.
    pub fn alive_mask(&self) -> u64 {
        let full = if self.size >= 64 {
            u64::MAX
        } else {
            (1u64 << self.size) - 1
        };
        self.health.cell.atomic();
        full & !self.health.dead.load(Ordering::SeqCst)
    }

    /// True when `rank` has been marked dead.
    pub fn is_rank_dead(&self, rank: usize) -> bool {
        self.health.cell.atomic();
        rank < 64 && self.health.dead.load(Ordering::SeqCst) & (1 << rank) != 0
    }

    /// True when this world was built with [`CommWorld::with_faults`]
    /// (tolerant sends, liveness tracking, optional message chaos).
    pub fn faults_armed(&self) -> bool {
        self.health.armed
    }

    /// `(dropped, delayed, duplicated)` injected-fault counters, or
    /// zeros when no injector is installed.
    pub fn injected_fault_counts(&self) -> (u64, u64, u64) {
        self.injector.as_ref().map_or((0, 0, 0), |i| i.counts())
    }

    /// Send a typed vector, accounting its size in the world traffic counter.
    pub fn send_vec<T: Send + 'static>(&self, dest: usize, tag: u64, value: Vec<T>) {
        self.account(value.len() * std::mem::size_of::<T>());
        self.send(dest, tag, value);
    }

    /// Blocking receive of a `T` from `source` with tag `tag`.
    ///
    /// # Panics
    /// Panics if the matched message is not of type `T` (a protocol bug).
    pub fn recv<T: Send + 'static>(&self, source: usize, tag: u64) -> T {
        let env = self.match_envelope(source, tag);
        *env.payload
            .downcast::<T>()
            .unwrap_or_else(|_| panic!("type mismatch on recv from {source} tag {tag}"))
    }

    /// Blocking receive matching only the source, returning `(tag, value)`.
    pub fn recv_any_tag<T: Send + 'static>(&self, source: usize) -> (u64, T) {
        let env = self.match_envelope(source, ANY_TAG);
        let tag = env.tag;
        let value = *env
            .payload
            .downcast::<T>()
            .unwrap_or_else(|_| panic!("type mismatch on recv from {source}"));
        (tag, value)
    }

    fn match_envelope(&self, source: usize, tag: u64) -> Envelope {
        // Fast path: check the stash for an already-delivered match.
        {
            let mut stash = self.stash.lock();
            self.stash_cell.read();
            if tag == ANY_TAG {
                // Ordered wildcard match: the lowest stashed tag from
                // `source` wins, on every run.
                for ((s, _), q) in stash.iter_mut() {
                    if *s == source && !q.is_empty() {
                        self.stash_cell.write();
                        return q.remove(0);
                    }
                }
            } else if let Some(q) = stash.get_mut(&(source, tag)) {
                if !q.is_empty() {
                    self.stash_cell.write();
                    return q.remove(0);
                }
            }
        }
        // Slow path: drain the inbox, stashing non-matching envelopes.
        loop {
            let env = self
                .inbox
                .recv()
                .unwrap_or_else(|_| panic!("communicator world torn down while receiving"));
            if env.dup {
                // Injected duplicate delivery: dedup at intake.
                continue;
            }
            let matches = env.source == source && (tag == ANY_TAG || env.tag == tag);
            if matches {
                return env;
            }
            let mut stash = self.stash.lock();
            self.stash_cell.write();
            stash.entry((env.source, env.tag)).or_default().push(env);
        }
    }

    /// Receive a `T` from `source`/`tag` with a deadline, reporting
    /// failure as a value instead of hanging or panicking — the
    /// primitive the fault-tolerant exchange layer polls on.
    ///
    /// Returns `Ok(Some(v))` on a match, `Ok(None)` when the deadline
    /// elapses with no match (the caller decides whether to retry or
    /// declare the peer dead), and a typed [`CommError`] when the peer
    /// is already marked dead, the world tore down, or the payload type
    /// is wrong.
    pub fn try_recv_timeout<T: Send + 'static>(
        &self,
        source: usize,
        tag: u64,
        timeout: Duration,
    ) -> Result<Option<T>, CommError> {
        fn open<T: Send + 'static>(env: Envelope) -> Result<Option<T>, CommError> {
            let source = env.source;
            let tag = env.tag;
            env.payload
                .downcast::<T>()
                .map(|b| Some(*b))
                .map_err(|_| CommError::TypeMismatch { source, tag })
        }
        // Fast path: an already-delivered match in the stash.
        {
            let mut stash = self.stash.lock();
            self.stash_cell.read();
            if let Some(q) = stash.get_mut(&(source, tag)) {
                if !q.is_empty() {
                    self.stash_cell.write();
                    return open(q.remove(0));
                }
            }
        }
        if self.is_rank_dead(source) {
            return Err(CommError::RankDead { rank: source });
        }
        let deadline = Instant::now() + timeout;
        loop {
            let Some(remaining) = deadline.checked_duration_since(Instant::now()) else {
                return Ok(None);
            };
            match self.inbox.recv_timeout(remaining) {
                Ok(env) => {
                    if env.dup {
                        continue;
                    }
                    if env.source == source && env.tag == tag {
                        return open(env);
                    }
                    let mut stash = self.stash.lock();
                    self.stash_cell.write();
                    stash.entry((env.source, env.tag)).or_default().push(env);
                }
                Err(RecvTimeoutError::Timeout) => return Ok(None),
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(CommError::Disconnected { source })
                }
            }
        }
    }

    /// Synchronise all ranks.
    pub fn barrier(&self) {
        self.barrier.wait();
    }

    /// Broadcast `value` from `root` to all ranks; every rank returns it.
    ///
    /// Under [`CollectiveAlgo::Log`] the value moves down a binomial tree
    /// (depth `⌈log₂ p⌉`, the root sends `⌈log₂ p⌉` messages); under
    /// [`CollectiveAlgo::Linear`] the root fans out `p-1` messages.
    pub fn broadcast<T: Clone + Send + 'static>(&self, root: usize, value: Option<T>) -> T {
        match self.algo {
            CollectiveAlgo::Linear => {
                if self.rank == root {
                    let v = value.unwrap_or_else(|| panic!("root must supply the broadcast value"));
                    for dest in 0..self.size {
                        if dest != root {
                            self.send(dest, BCAST_TAG, v.clone());
                        }
                    }
                    v
                } else {
                    self.recv::<T>(root, BCAST_TAG)
                }
            }
            CollectiveAlgo::Log => {
                let plan = binomial_plan(self.size, root, self.rank);
                let v = match plan.parent {
                    None => value.unwrap_or_else(|| panic!("root must supply the broadcast value")),
                    Some(parent) => self.recv::<T>(parent, BCAST_TAG),
                };
                for &(child, _) in &plan.children {
                    self.send(child, BCAST_TAG, v.clone());
                }
                v
            }
        }
    }

    /// Gather every rank's value at `root`; returns `Some(values)` on root
    /// (indexed by rank), `None` elsewhere.
    ///
    /// Under [`CollectiveAlgo::Log`] contributions merge up the binomial
    /// tree as `(rank, value)` pair lists, so every rank sends exactly one
    /// message (its whole subtree) and the root receives `⌈log₂ p⌉`.
    pub fn gather<T: Send + 'static>(&self, root: usize, value: T) -> Option<Vec<T>> {
        match self.algo {
            CollectiveAlgo::Linear => {
                if self.rank == root {
                    let mut out: Vec<Option<T>> = (0..self.size).map(|_| None).collect();
                    out[root] = Some(value);
                    for (src, slot) in out.iter_mut().enumerate() {
                        if src != root {
                            *slot = Some(self.recv::<T>(src, GATHER_TAG));
                        }
                    }
                    Some(
                        out.into_iter()
                            .map(|v| v.unwrap_or_else(|| panic!("gather slot left unfilled")))
                            .collect(),
                    )
                } else {
                    self.send(root, GATHER_TAG, value);
                    None
                }
            }
            CollectiveAlgo::Log => {
                let plan = binomial_plan(self.size, root, self.rank);
                let mut subtree: Vec<(usize, T)> = vec![(self.rank, value)];
                for &(child, _) in plan.children.iter().rev() {
                    let got: Vec<(usize, T)> = self.recv(child, GATHER_TAG);
                    subtree.extend(got);
                }
                match plan.parent {
                    Some(parent) => {
                        self.send(parent, GATHER_TAG, subtree);
                        None
                    }
                    None => {
                        let mut out: Vec<Option<T>> = (0..self.size).map(|_| None).collect();
                        for (r, v) in subtree {
                            debug_assert!(out[r].is_none(), "duplicate gather contribution");
                            out[r] = Some(v);
                        }
                        Some(
                            out.into_iter()
                                .map(|v| v.unwrap_or_else(|| panic!("gather slot left unfilled")))
                                .collect(),
                        )
                    }
                }
            }
        }
    }

    /// All-gather: every rank contributes `value`, every rank receives the
    /// rank-indexed vector of all contributions.
    ///
    /// Under [`CollectiveAlgo::Log`] this is the single-phase Bruck
    /// dissemination schedule — `⌈log₂ p⌉` rounds, each rank sending and
    /// receiving once per round, every block crossing the wire exactly
    /// once. [`CollectiveAlgo::Linear`] keeps the historical
    /// gather-to-root-then-broadcast, which moves (and prices) every
    /// payload twice.
    pub fn allgather<T: Clone + Send + 'static>(&self, value: T) -> Vec<T> {
        match self.algo {
            CollectiveAlgo::Linear => {
                let gathered = self.gather(0, value);
                if self.rank == 0 {
                    let v =
                        gathered.unwrap_or_else(|| panic!("gather must return a vector on root"));
                    self.broadcast(0, Some(v))
                } else {
                    self.broadcast::<Vec<T>>(0, None)
                }
            }
            CollectiveAlgo::Log => self.bruck_allgather(value, BRUCK_TAG, 0),
        }
    }

    /// The Bruck dissemination allgather: after round `k` this rank holds
    /// blocks `rank..rank + 2^{k+1}` (mod `p`) in order, so the first
    /// `blocks` held entries are exactly what the next peer is missing.
    /// When `bytes_per_block > 0` each send accounts `blocks ×` that size
    /// in the world traffic counter.
    fn bruck_allgather<T: Clone + Send + 'static>(
        &self,
        value: T,
        tag_base: u64,
        bytes_per_block: usize,
    ) -> Vec<T> {
        let mut held: Vec<(usize, T)> = vec![(self.rank, value)];
        for (k, round) in bruck_rounds(self.size, self.rank).into_iter().enumerate() {
            let out: Vec<(usize, T)> = held[..round.blocks].to_vec();
            if bytes_per_block > 0 {
                self.account(round.blocks * bytes_per_block);
            }
            self.send(round.to, tag_base + k as u64, out);
            let incoming: Vec<(usize, T)> = self.recv(round.from, tag_base + k as u64);
            held.extend(incoming);
        }
        let mut out: Vec<Option<T>> = (0..self.size).map(|_| None).collect();
        for (r, v) in held {
            debug_assert!(out[r].is_none(), "duplicate allgather block");
            out[r] = Some(v);
        }
        out.into_iter()
            .map(|v| v.unwrap_or_else(|| panic!("allgather block left unfilled")))
            .collect()
    }

    /// In-place all-reduce (sum) over an `f32` buffer.
    ///
    /// Large buffers take the bandwidth-optimal ring reduce-scatter +
    /// all-gather, the same algorithm NCCL/RCCL uses for large tensors, so
    /// the traffic pattern matches the gradient averaging the paper's DDP
    /// training performs every step. Small buffers (at most
    /// [`crate::algos::SMALL_ALLREDUCE_BYTES`], under the log-depth algo)
    /// instead Bruck-allgather the raw contributions and reduce locally in
    /// the canonical ring order — `⌈log₂ p⌉` latency instead of `2(p-1)`,
    /// bit-identical results.
    pub fn allreduce_sum_f32(&self, buf: &mut [f32]) {
        self.allreduce(buf, |a, b| *a += b);
    }

    /// In-place all-reduce (sum) over an `f64` buffer.
    pub fn allreduce_sum_f64(&self, buf: &mut [f64]) {
        self.allreduce(buf, |a, b| *a += b);
    }

    /// In-place all-reduce taking the element-wise maximum.
    pub fn allreduce_max_f64(&self, buf: &mut [f64]) {
        self.allreduce(buf, |a, b| {
            if b > *a {
                *a = b
            }
        });
    }

    /// Size-selected allreduce: log-depth allgather path for small
    /// buffers, ring for everything else (see [`crate::algos`]).
    fn allreduce<T, F>(&self, buf: &mut [T], reduce: F)
    where
        T: Copy + Send + 'static,
        F: FnMut(&mut T, T),
    {
        if allreduce_goes_log(self.algo, std::mem::size_of_val(buf)) {
            self.small_allreduce(buf, reduce);
        } else {
            self.ring_allreduce(buf, reduce);
        }
    }

    /// Log-depth small-buffer allreduce: every rank Bruck-allgathers its
    /// full contribution (accounting the real wire bytes), then reduces
    /// locally in the canonical ring order, which makes the result
    /// bit-identical to [`Self::ring_allreduce`].
    fn small_allreduce<T, F>(&self, buf: &mut [T], reduce: F)
    where
        T: Copy + Send + 'static,
        F: FnMut(&mut T, T),
    {
        if self.size == 1 || buf.is_empty() {
            return;
        }
        let contribs = self.bruck_allgather(buf.to_vec(), SMALL_AR_TAG, std::mem::size_of_val(buf));
        reduce_in_ring_order(&contribs, buf, reduce);
    }

    fn ring_allreduce<T, F>(&self, buf: &mut [T], mut reduce: F)
    where
        T: Copy + Send + 'static,
        F: FnMut(&mut T, T),
    {
        let n = self.size;
        if n == 1 || buf.is_empty() {
            return;
        }
        // Partition the buffer into n chunks (last chunk absorbs remainder).
        let len = buf.len();
        let chunk = len.div_ceil(n);
        let bounds = move |i: usize| -> (usize, usize) {
            let s = (i * chunk).min(len);
            let e = ((i + 1) * chunk).min(len);
            (s, e)
        };
        let next = (self.rank + 1) % n;
        let prev = (self.rank + n - 1) % n;

        // Reduce-scatter: after n-1 steps, rank r owns the fully reduced
        // chunk (r+1) mod n.
        for step in 0..n - 1 {
            let send_idx = (self.rank + n - step) % n;
            let recv_idx = (self.rank + n - step - 1) % n;
            let (s, e) = bounds(send_idx);
            let out: Vec<T> = buf[s..e].to_vec();
            self.account(out.len() * std::mem::size_of::<T>());
            self.send(next, RS_TAG + step as u64, out);
            let incoming: Vec<T> = self.recv(prev, RS_TAG + step as u64);
            let (s, e) = bounds(recv_idx);
            for (dst, src) in buf[s..e].iter_mut().zip(incoming) {
                reduce(dst, src);
            }
        }
        // All-gather: circulate the reduced chunks.
        for step in 0..n - 1 {
            let send_idx = (self.rank + 1 + n - step) % n;
            let recv_idx = (self.rank + n - step) % n;
            let (s, e) = bounds(send_idx);
            let out: Vec<T> = buf[s..e].to_vec();
            self.account(out.len() * std::mem::size_of::<T>());
            self.send(next, AG_TAG + step as u64, out);
            let incoming: Vec<T> = self.recv(prev, AG_TAG + step as u64);
            let (s, e) = bounds(recv_idx);
            buf[s..e].copy_from_slice(&incoming);
        }
    }

    /// Scalar sum all-reduce convenience.
    pub fn allreduce_scalar_f64(&self, v: f64) -> f64 {
        let mut buf = [v];
        self.allreduce_sum_f64(&mut buf);
        buf[0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    fn run_world<F>(n: usize, f: F)
    where
        F: Fn(Communicator) + Send + Sync + Copy + 'static,
    {
        run_world_algo(n, CollectiveAlgo::Log, f);
    }

    fn run_world_algo<F>(n: usize, algo: CollectiveAlgo, f: F)
    where
        F: Fn(Communicator) + Send + Sync + Copy + 'static,
    {
        let eps = CommWorld::with_algo(n, algo).into_endpoints();
        let handles: Vec<_> = eps
            .into_iter()
            .map(|c| thread::spawn(move || f(c)))
            .collect();
        for h in handles {
            h.join().expect("rank thread panicked");
        }
    }

    const BOTH_ALGOS: [CollectiveAlgo; 2] = [CollectiveAlgo::Linear, CollectiveAlgo::Log];

    #[test]
    fn point_to_point_roundtrip() {
        run_world(2, |c| {
            if c.rank() == 0 {
                c.send(1, 7, vec![1.0f64, 2.0, 3.0]);
                let back: Vec<f64> = c.recv(1, 8);
                assert_eq!(back, vec![6.0]);
            } else {
                let v: Vec<f64> = c.recv(0, 7);
                c.send(0, 8, vec![v.iter().sum::<f64>()]);
            }
        });
    }

    #[test]
    fn out_of_order_tags_are_stashed() {
        run_world(2, |c| {
            if c.rank() == 0 {
                c.send(1, 1, 10u32);
                c.send(1, 2, 20u32);
            } else {
                // Receive tag 2 first although tag 1 arrives first.
                let b: u32 = c.recv(0, 2);
                let a: u32 = c.recv(0, 1);
                assert_eq!((a, b), (10, 20));
            }
        });
    }

    #[test]
    fn broadcast_reaches_all_ranks() {
        // Both algorithms, power-of-two and non-power-of-two worlds,
        // non-zero roots included.
        for algo in BOTH_ALGOS {
            for n in [1usize, 2, 4, 5, 7] {
                run_world_algo(n, algo, move |c| {
                    let root = 2 % c.size();
                    let v = if c.rank() == root {
                        c.broadcast(root, Some(vec![9u8; 3]))
                    } else {
                        c.broadcast::<Vec<u8>>(root, None)
                    };
                    assert_eq!(v, vec![9u8; 3]);
                });
            }
        }
    }

    #[test]
    fn gather_collects_in_rank_order() {
        for algo in BOTH_ALGOS {
            for n in [1usize, 3, 5, 8] {
                run_world_algo(n, algo, move |c| {
                    let root = c.size() - 1;
                    let got = c.gather(root, c.rank() as u64 * 10);
                    if c.rank() == root {
                        let expect: Vec<u64> = (0..c.size() as u64).map(|r| r * 10).collect();
                        assert_eq!(got.expect("root"), expect);
                    } else {
                        assert!(got.is_none());
                    }
                });
            }
        }
    }

    #[test]
    fn allgather_is_symmetric() {
        for algo in BOTH_ALGOS {
            for n in [1usize, 2, 3, 6, 8] {
                run_world_algo(n, algo, move |c| {
                    let all = c.allgather(c.rank());
                    let expect: Vec<usize> = (0..c.size()).collect();
                    assert_eq!(all, expect);
                });
            }
        }
    }

    #[test]
    fn world_message_counter_counts_collective_hops() {
        fn messages_after_broadcast(algo: CollectiveAlgo) -> u64 {
            let eps = CommWorld::with_algo(8, algo).into_endpoints();
            let handles: Vec<_> = eps
                .into_iter()
                .map(|c| {
                    thread::spawn(move || {
                        let _ = if c.rank() == 0 {
                            c.broadcast(0, Some(1u8))
                        } else {
                            c.broadcast::<u8>(0, None)
                        };
                        c.barrier();
                        c.world_messages_sent()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("rank thread panicked"))
                .max()
                .expect("non-empty world")
        }
        // A broadcast delivers the value to every non-root rank exactly
        // once under either algorithm, so the world total is p-1 hops for
        // both; what differs is the *root's serialized share* (p-1 linear
        // vs ⌈log₂ p⌉ on the tree), which the pricing layer charges.
        assert_eq!(messages_after_broadcast(CollectiveAlgo::Linear), 7);
        assert_eq!(messages_after_broadcast(CollectiveAlgo::Log), 7);
    }

    #[test]
    fn small_allreduce_is_bit_identical_to_ring() {
        // The log-depth path must reproduce the ring's reduction order
        // exactly, bit for bit, for an order-sensitive float sum.
        for n in [2usize, 3, 4, 7, 8] {
            let results: Vec<Vec<u32>> = BOTH_ALGOS
                .iter()
                .map(|&algo| {
                    let eps = CommWorld::with_algo(n, algo).into_endpoints();
                    let handles: Vec<_> = eps
                        .into_iter()
                        .map(|c| {
                            thread::spawn(move || {
                                // Values chosen so different summation orders
                                // give different last-bit rounding.
                                let mut buf: Vec<f32> = (0..13)
                                    .map(|i| 0.1f32 + (c.rank() as f32) * 0.3 + i as f32 * 1e-4)
                                    .collect();
                                c.allreduce_sum_f32(&mut buf);
                                buf.iter().map(|v| v.to_bits()).collect::<Vec<u32>>()
                            })
                        })
                        .collect();
                    let mut per_rank: Vec<Vec<u32>> = handles
                        .into_iter()
                        .map(|h| h.join().expect("rank thread panicked"))
                        .collect();
                    // All ranks agree with each other.
                    let first = per_rank.remove(0);
                    for other in &per_rank {
                        assert_eq!(&first, other, "ranks disagree, n={n}");
                    }
                    first
                })
                .collect();
            assert_eq!(
                results[0], results[1],
                "linear (ring) vs log (allgather) allreduce differ, n={n}"
            );
        }
    }

    #[test]
    fn ring_allreduce_matches_serial_sum() {
        for n in [1usize, 2, 3, 4, 7] {
            run_world(n, move |c| {
                let len = 13; // deliberately not divisible by world size
                let mut buf: Vec<f32> = (0..len).map(|i| (c.rank() * 100 + i) as f32).collect();
                c.allreduce_sum_f32(&mut buf);
                for (i, v) in buf.iter().enumerate() {
                    let expect: f32 = (0..c.size()).map(|r| (r * 100 + i) as f32).sum();
                    assert!((v - expect).abs() < 1e-3, "n={n} i={i}");
                }
            });
        }
    }

    #[test]
    fn allreduce_max_takes_elementwise_max() {
        run_world(4, |c| {
            let mut buf = vec![c.rank() as f64, -(c.rank() as f64)];
            c.allreduce_max_f64(&mut buf);
            assert_eq!(buf, vec![3.0, 0.0]);
        });
    }

    #[test]
    fn scalar_allreduce() {
        run_world(6, |c| {
            let s = c.allreduce_scalar_f64(1.5);
            assert!((s - 9.0).abs() < 1e-12);
        });
    }

    #[test]
    fn barrier_synchronises() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static BEFORE: AtomicUsize = AtomicUsize::new(0);
        run_world(4, |c| {
            BEFORE.fetch_add(1, Ordering::SeqCst);
            c.barrier();
            assert_eq!(BEFORE.load(Ordering::SeqCst), 4);
        });
    }

    #[test]
    fn traffic_accounting_counts_vec_sends() {
        run_world(2, |c| {
            if c.rank() == 0 {
                c.send_vec(1, 3, vec![0u8; 128]);
            } else {
                let _: Vec<u8> = c.recv(0, 3);
            }
            c.barrier();
            assert!(c.world_bytes_sent() >= 128);
        });
    }

    #[test]
    fn try_recv_timeout_times_out_then_matches() {
        let eps =
            CommWorld::with_faults(2, CollectiveAlgo::Log, CommFaults::none(1)).into_endpoints();
        let mut it = eps.into_iter();
        let a = it.next().unwrap();
        let b = it.next().unwrap();
        let h = thread::spawn(move || {
            // Nothing sent yet: the first poll must time out cleanly.
            let none: Option<u32> = b
                .try_recv_timeout(0, 5, Duration::from_millis(10))
                .expect("timeout is not an error");
            assert_eq!(none, None);
            let got: Option<u32> = b
                .try_recv_timeout(0, 5, Duration::from_millis(2000))
                .expect("matched receive");
            assert_eq!(got, Some(77));
        });
        thread::sleep(Duration::from_millis(30));
        a.send(1, 5, 77u32);
        h.join().expect("rank thread panicked");
    }

    #[test]
    fn tolerant_world_suppresses_sends_to_dead_ranks() {
        let eps =
            CommWorld::with_faults(2, CollectiveAlgo::Log, CommFaults::none(2)).into_endpoints();
        let mut it = eps.into_iter();
        let a = it.next().unwrap();
        let b = it.next().unwrap();
        assert!(a.faults_armed());
        assert_eq!(a.alive_mask(), 0b11);
        a.mark_dead(1);
        assert!(b.is_rank_dead(1), "health mask is shared world-wide");
        assert_eq!(a.alive_mask(), 0b01);
        // Sending to the dead rank is a silent no-op, and dropping its
        // endpoint later must not panic tolerant senders either.
        a.send(1, 9, 1u8);
        drop(b);
        a.send(1, 9, 2u8);
        // Receives addressed to a dead peer fail fast.
        let e = a.try_recv_timeout::<u8>(1, 9, Duration::from_millis(1));
        assert_eq!(e, Err(CommError::RankDead { rank: 1 }));
    }

    #[test]
    fn fault_injection_is_deterministic_and_loses_nothing() {
        let chaos = CommFaults {
            seed: 42,
            drop_rate: 0.2,
            delay_rate: 0.2,
            delay_ms: 1,
            dup_rate: 0.2,
        };
        let run = |chaos: CommFaults| -> (Vec<u64>, (u64, u64, u64)) {
            let eps = CommWorld::with_faults(2, CollectiveAlgo::Log, chaos).into_endpoints();
            let mut it = eps.into_iter();
            let a = it.next().unwrap();
            let b = it.next().unwrap();
            let h = thread::spawn(move || {
                (0..40u64)
                    .map(|i| b.recv::<u64>(0, 100 + i))
                    .collect::<Vec<_>>()
            });
            for i in 0..40u64 {
                a.send(1, 100 + i, i * 3);
            }
            let got = h.join().expect("receiver panicked");
            (got, a.injected_fault_counts())
        };
        let (got1, counts1) = run(chaos.clone());
        let (got2, counts2) = run(chaos);
        // Every payload arrives exactly once despite drop/delay/dup...
        assert_eq!(got1, (0..40u64).map(|i| i * 3).collect::<Vec<_>>());
        assert_eq!(got1, got2);
        // ...the chaos actually fired, and identically across runs.
        let (d, l, u) = counts1;
        assert!(d + l + u > 0, "rates of 0.2 over 40 messages must fire");
        assert_eq!(counts1, counts2, "same seed ⇒ same fault sequence");
    }
}
