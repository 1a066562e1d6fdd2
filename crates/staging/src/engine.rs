//! The staging engine: step-based writer/reader groups.
//!
//! Semantics follow ADIOS2 SST (§IV-D of the paper):
//! - each writer rank `put`s its local blocks between `begin_step` and
//!   `end_step`; on `end_step` the last writer aggregates the metadata
//!   (ADIOS2 gathers it to rank 0) and *publishes* the step;
//! - every reader rank sees every step, decides for itself which blocks
//!   to fetch ("each reader application decides on its own which remote
//!   datasets to load"), and closes the step, "indicating to the writer
//!   that the data can now be dropped";
//! - a bounded queue of in-flight steps back-pressures the producer.
//!
//! # Step lifecycle
//!
//! A step is *pending* while writers contribute blocks, *published* once
//! the last writer's `end_step` validates the block tiling, and *retired*
//! once every reader rank has closed it. Readers consume independently
//! (each has its own cursor) but a step only leaves the bounded queue —
//! releasing back-pressure — when **all** readers closed it.
//!
//! Readers have two consumption modes, matching the consumer streaming
//! policies of `as-core` (`ConsumerPolicy`):
//! - [`SstReader::begin_step`] takes steps strictly in order and blocks
//!   until the next one is published (`BlockingEveryStep`);
//! - [`SstReader::begin_latest_step`] /
//!   [`SstReader::begin_step_at_least`] *skip ahead*, closing every older
//!   published step without fetching its payload (`DropSteps`). Skipping
//!   counts as closing, so a dropped step releases its queue slot — and
//!   the writer's back-pressure — immediately.
//!
//! # Failure semantics
//!
//! A reader that is dropped (its rank died) *departs*: its close vote is
//! implied for every current and future step, so surviving readers and
//! writers never deadlock on a dead rank's unclosed steps. The
//! [`StreamMonitor`] from [`open_stream_monitored`] reports how many
//! published steps a departed reader never consumed. A writer can be
//! armed to *truncate* ([`SstWriter::arm_truncate`]): from the trigger
//! step on, its puts turn inert and the stream closes — modelling a
//! producer crash mid-stream, readers drain what was published and see a
//! clean EOF.

use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::sync::Arc;

use as_detect::{track_cell, Cell};
use parking_lot::{Condvar, Mutex};

use crate::codec::WireCodec;
use crate::dataplane::{DataPlane, NIC_BANDWIDTH};
use crate::error::StagingError;
use crate::stats::ThroughputRecorder;
use crate::variable::{Block, Dtype, VariableMeta};
use crate::view::{Segment, VarView};

/// Stream configuration.
#[derive(Debug, Clone, Copy)]
pub struct StreamConfig {
    /// Writer (producer) rank count.
    pub writers: usize,
    /// Reader (consumer) rank count.
    pub readers: usize,
    /// Maximum published-but-unclosed steps before `begin_step` blocks
    /// (ADIOS2 `QueueLimit`).
    pub queue_limit: usize,
    /// The transport whose timing model annotates reads.
    pub plane: DataPlane,
    /// Wire codec applied to float payload blocks at publish time.
    pub codec: WireCodec,
}

impl Default for StreamConfig {
    fn default() -> Self {
        Self {
            writers: 1,
            readers: 1,
            queue_limit: 2,
            plane: DataPlane::Mpi,
            codec: WireCodec::None,
        }
    }
}

#[derive(Debug)]
struct StepData {
    step: u64,
    /// Ordered by name, so iteration (and [`ReadStep::variable_names`])
    /// is deterministic without a sort.
    vars: BTreeMap<String, VariableMeta>,
}

#[derive(Default)]
struct StreamState {
    /// Step being assembled (writers contribute blocks).
    pending: BTreeMap<u64, BTreeMap<String, VariableMeta>>,
    /// Writers that called `end_step` for a given step.
    end_arrivals: BTreeMap<u64, usize>,
    /// Published, not yet fully-closed steps (FIFO).
    queue: VecDeque<Arc<StepData>>,
    /// Per-step bitmask of reader ranks that closed it.
    closed: BTreeMap<u64, u64>,
    /// Bitmask of reader ranks that departed (endpoint dropped).
    departed: u64,
    /// Cursor each departed reader held at departure, keyed by rank.
    departed_cursors: BTreeMap<usize, u64>,
    /// Total published steps.
    published: u64,
    /// Writers that closed the stream entirely.
    writers_closed: usize,
}

struct StreamCore {
    cfg: StreamConfig,
    state: Mutex<StreamState>,
    cond: Condvar,
    /// Detector registration for the SST step table (everything inside
    /// `state`, mutated only under its mutex).
    cell: Cell,
}

impl StreamCore {
    /// Bitmask covering every reader rank.
    fn readers_mask(&self) -> u64 {
        if self.cfg.readers >= 64 {
            u64::MAX
        } else {
            (1u64 << self.cfg.readers) - 1
        }
    }

    /// Register reader `rank`'s close of `step` under the held lock; once
    /// every reader rank has closed the step — or departed, which implies
    /// its vote — the step is retired from the queue, releasing its slot
    /// (and any writer blocked on the queue limit).
    fn close_step_locked(&self, st: &mut StreamState, step: u64, rank: usize) {
        self.cell.write();
        let full = self.readers_mask();
        let mask = st.closed.entry(step).or_insert(0);
        *mask |= 1u64 << rank;
        if (*mask | st.departed) & full == full {
            st.closed.remove(&step);
            st.queue.retain(|s| s.step != step);
            self.cond.notify_all();
        }
    }

    /// Retire every queued step whose close votes plus departed readers
    /// cover the full reader set. Called when a reader departs (its
    /// implied votes may complete older steps) and on publish while
    /// readers are departed (a step may be born fully covered).
    fn retire_covered_locked(&self, st: &mut StreamState) {
        self.cell.write();
        if st.departed == 0 {
            return;
        }
        let full = self.readers_mask();
        let covered: Vec<u64> = st
            .queue
            .iter()
            .map(|s| s.step)
            .filter(|step| (st.closed.get(step).copied().unwrap_or(0) | st.departed) & full == full)
            .collect();
        if covered.is_empty() {
            return;
        }
        for step in &covered {
            st.closed.remove(step);
        }
        st.queue.retain(|s| !covered.contains(&s.step));
        self.cond.notify_all();
    }
}

/// Out-of-band observer of a stream's health, returned by
/// [`open_stream_monitored`]. Not a reader: it casts no close votes and
/// holding it never blocks retirement.
pub struct StreamMonitor {
    core: Arc<StreamCore>,
}

impl StreamMonitor {
    /// Total steps published so far.
    pub fn published(&self) -> u64 {
        self.core.state.lock().published
    }

    /// Number of reader ranks that departed (dropped their endpoint).
    pub fn departed_readers(&self) -> u64 {
        self.core.state.lock().departed.count_ones() as u64
    }

    /// Published steps departed readers never consumed, summed over all
    /// departed readers against the *current* published count (grows if
    /// writers keep publishing after a departure).
    pub fn departed_lost(&self) -> u64 {
        let st = self.core.state.lock();
        st.departed_cursors
            .values()
            .map(|&c| st.published.saturating_sub(c))
            .sum()
    }

    /// True once every writer closed the stream.
    pub fn writers_done(&self) -> bool {
        let st = self.core.state.lock();
        st.writers_closed == self.core.cfg.writers
    }
}

/// One writer rank's endpoint.
pub struct SstWriter {
    core: Arc<StreamCore>,
    rank: usize,
    current_step: Option<u64>,
    next_step: u64,
    closed: bool,
    truncate_at: Option<u64>,
    truncated: bool,
    stall_seconds: f64,
    /// Throughput accounting of published payload.
    pub stats: ThroughputRecorder,
}

/// One reader rank's endpoint.
pub struct SstReader {
    core: Arc<StreamCore>,
    rank: usize,
    cursor: u64,
    /// Throughput accounting of fetched payload.
    pub stats: ThroughputRecorder,
}

/// A step held open by a reader.
pub struct ReadStep {
    data: Arc<StepData>,
    plane: DataPlane,
    codec: WireCodec,
    /// Simulated wire seconds accumulated by fetches in this step.
    pub simulated_seconds: f64,
    /// Logical payload bytes fetched in this step.
    pub bytes_fetched: u64,
    /// Wire bytes fetched in this step (codec-compressed size — what
    /// the modelled data plane actually moves).
    pub wire_bytes_fetched: u64,
}

/// Open a stream, returning per-rank writer and reader endpoints.
pub fn open_stream(cfg: StreamConfig) -> (Vec<SstWriter>, Vec<SstReader>) {
    let (writers, readers, _monitor) = open_stream_monitored(cfg);
    (writers, readers)
}

/// Open a stream and additionally return a [`StreamMonitor`] for
/// out-of-band health observation (published/departed/lost counts).
pub fn open_stream_monitored(cfg: StreamConfig) -> (Vec<SstWriter>, Vec<SstReader>, StreamMonitor) {
    assert!(cfg.writers >= 1 && cfg.readers >= 1 && cfg.queue_limit >= 1);
    assert!(
        cfg.readers <= 64,
        "reader departure tracking caps at 64 ranks"
    );
    let core = Arc::new(StreamCore {
        cfg,
        state: Mutex::new(StreamState::default()),
        cond: Condvar::new(),
        cell: track_cell!("staging::StreamCore.state"),
    });
    let writers = (0..cfg.writers)
        .map(|rank| SstWriter {
            core: core.clone(),
            rank,
            current_step: None,
            next_step: 0,
            closed: false,
            truncate_at: None,
            truncated: false,
            stall_seconds: 0.0,
            stats: ThroughputRecorder::new(),
        })
        .collect();
    let readers = (0..cfg.readers)
        .map(|rank| SstReader {
            core: core.clone(),
            rank,
            cursor: 0,
            stats: ThroughputRecorder::new(),
        })
        .collect();
    let monitor = StreamMonitor { core };
    (writers, readers, monitor)
}

impl SstWriter {
    /// Writer rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Begin the next step; blocks while the queue is at its limit.
    ///
    /// Time spent blocked on a full queue (real consumer back-pressure,
    /// not the publish itself) accumulates into [`Self::stall_seconds`].
    pub fn begin_step(&mut self) -> u64 {
        if let Some(at) = self.truncate_at {
            if !self.truncated && self.next_step >= at {
                // Trigger reached: the stream closes here and every
                // further step on this writer is a silent no-op, like a
                // producer whose transport died mid-run.
                self.truncated = true;
                self.close();
            }
        }
        if self.truncated {
            assert!(self.current_step.is_none(), "step already open");
            let step = self.next_step;
            self.current_step = Some(step);
            return step;
        }
        assert!(!self.closed, "begin_step on closed writer");
        assert!(self.current_step.is_none(), "step already open");
        let step = self.next_step;
        let mut st = self.core.state.lock();
        self.core.cell.write();
        if st.queue.len() >= self.core.cfg.queue_limit {
            let blocked = std::time::Instant::now();
            while st.queue.len() >= self.core.cfg.queue_limit {
                self.core.cond.wait(&mut st);
            }
            self.stall_seconds += blocked.elapsed().as_secs_f64();
        }
        st.pending.entry(step).or_default();
        self.current_step = Some(step);
        step
    }

    /// Wall seconds this writer has spent blocked on the bounded queue
    /// (`begin_step` with `queue_limit` in-flight steps). This is the
    /// honest back-pressure signal: it excludes the serialisation and
    /// publish work of the step itself.
    pub fn stall_seconds(&self) -> f64 {
        self.stall_seconds
    }

    /// Publish one block of an `f64` variable (encoded with the
    /// stream's wire codec).
    pub fn put_f64(&mut self, name: &str, global_count: u64, offset: u64, data: &[f64]) {
        let wire = self.core.cfg.codec.encode_f64(data);
        self.put_bytes(
            name,
            Dtype::F64,
            global_count,
            offset,
            data.len() as u64,
            wire,
        );
    }

    /// Publish one block of an `f32` variable (encoded with the
    /// stream's wire codec).
    pub fn put_f32(&mut self, name: &str, global_count: u64, offset: u64, data: &[f32]) {
        let wire = self.core.cfg.codec.encode_f32(data);
        self.put_bytes(
            name,
            Dtype::F32,
            global_count,
            offset,
            data.len() as u64,
            wire,
        );
    }

    /// Publish a raw block. `data` must already be in wire form: for
    /// float dtypes that means encoded with the stream's codec (the
    /// typed `put_*` helpers do this), for `U64`/`U8` raw bytes.
    ///
    /// # Panics
    /// Panics on a step-protocol violation; [`Self::try_put_bytes`] is
    /// the fallible twin.
    pub fn put_bytes(
        &mut self,
        name: &str,
        dtype: Dtype,
        global_count: u64,
        offset: u64,
        count: u64,
        data: bytes::Bytes,
    ) {
        self.try_put_bytes(name, dtype, global_count, offset, count, data)
            .unwrap_or_else(|e| panic!("{e}"));
    }

    /// Publish a raw block, reporting step-protocol misuse as a typed
    /// [`StagingError`] instead of panicking.
    pub fn try_put_bytes(
        &mut self,
        name: &str,
        dtype: Dtype,
        global_count: u64,
        offset: u64,
        count: u64,
        data: bytes::Bytes,
    ) -> Result<(), StagingError> {
        let step = self.current_step.ok_or(StagingError::Protocol {
            what: "put outside begin/end step",
        })?;
        if self.truncated {
            return Ok(());
        }
        // Logical payload vs wire size: the codec shrinks what crosses
        // the plane, and the publish itself is charged one modelled op.
        self.stats.add_bytes(count * dtype.size() as u64);
        self.stats.add_wire_bytes(data.len() as u64);
        self.stats.add_simulated(self.core.cfg.plane.read_time(
            data.len() as f64,
            1,
            NIC_BANDWIDTH,
        ));
        let mut st = self.core.state.lock();
        self.core.cell.write();
        let vars = st
            .pending
            .get_mut(&step)
            .unwrap_or_else(|| panic!("begin_step must have registered pending step {step}"));
        let var = vars
            .entry(name.to_string())
            .or_insert_with(|| VariableMeta {
                name: name.to_string(),
                dtype,
                global_count,
                blocks: Vec::new(),
            });
        assert_eq!(var.dtype, dtype, "dtype mismatch on {name}");
        assert_eq!(
            var.global_count, global_count,
            "global count mismatch on {name}"
        );
        var.blocks.push(Block {
            writer_rank: self.rank,
            offset,
            count,
            data,
        });
        Ok(())
    }

    /// Close the step; the last writer to arrive validates and publishes.
    ///
    /// # Panics
    /// Panics on a step-protocol violation; [`Self::try_end_step`] is
    /// the fallible twin.
    pub fn end_step(&mut self) {
        self.try_end_step().unwrap_or_else(|e| panic!("{e}"));
    }

    /// Close the step, reporting a missing `begin_step` as a typed
    /// [`StagingError`] instead of panicking.
    pub fn try_end_step(&mut self) -> Result<(), StagingError> {
        let step = self.current_step.take().ok_or(StagingError::Protocol {
            what: "end_step without begin_step",
        })?;
        self.next_step = step + 1;
        if self.truncated {
            return Ok(());
        }
        let mut st = self.core.state.lock();
        self.core.cell.write();
        let arrivals = st.end_arrivals.entry(step).or_insert(0);
        *arrivals += 1;
        if *arrivals == self.core.cfg.writers {
            st.end_arrivals.remove(&step);
            let vars = st
                .pending
                .remove(&step)
                .unwrap_or_else(|| panic!("begin_step must have registered pending step {step}"));
            for v in vars.values() {
                v.validate_wire(self.core.cfg.codec);
            }
            st.queue.push_back(Arc::new(StepData { step, vars }));
            st.published += 1;
            // With departed readers the fresh step may already be fully
            // covered; retire it immediately instead of queueing forever.
            self.core.retire_covered_locked(&mut st);
            self.core.cond.notify_all();
        } else {
            // Wait until the step is actually published (writer-side
            // synchronisation point, like ADIOS2's collective end_step).
            let target = step + 1;
            while st.published < target {
                self.core.cond.wait(&mut st);
            }
        }
        Ok(())
    }

    /// Close the stream; when every writer closed, readers see EOF.
    pub fn close(&mut self) {
        if !self.closed {
            self.closed = true;
            let mut st = self.core.state.lock();
            self.core.cell.write();
            st.writers_closed += 1;
            self.core.cond.notify_all();
        }
    }

    /// Arm deterministic stream truncation: once `next_step` reaches
    /// `at_step` the stream closes (readers drain what was published, then
    /// see EOF) and every later `begin_step`/`put_*`/`end_step` on this
    /// writer becomes an inert no-op. Steps `0..at_step` publish normally.
    pub fn arm_truncate(&mut self, at_step: u64) {
        self.truncate_at = Some(at_step);
    }

    /// True once an armed truncation has fired.
    pub fn is_truncated(&self) -> bool {
        self.truncated
    }
}

impl Drop for SstWriter {
    fn drop(&mut self) {
        self.close();
    }
}

impl SstReader {
    /// Reader rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Wrap a published step for this reader. The `Arc` bump shares the
    /// step table; no block payload is touched until a fetch.
    fn open_step(&self, data: Arc<StepData>) -> ReadStep {
        ReadStep {
            data,
            plane: self.core.cfg.plane,
            codec: self.core.cfg.codec,
            simulated_seconds: 0.0,
            bytes_fetched: 0,
            wire_bytes_fetched: 0,
        }
    }

    /// Wait for the next step; `None` after the writers closed and all
    /// published steps were consumed.
    pub fn begin_step(&mut self) -> Option<ReadStep> {
        let mut st = self.core.state.lock();
        self.core.cell.read();
        loop {
            if let Some(sd) = st.queue.iter().find(|s| s.step == self.cursor) {
                let data = sd.clone();
                self.cursor += 1;
                return Some(self.open_step(data));
            }
            if st.writers_closed == self.core.cfg.writers && st.published <= self.cursor {
                return None;
            }
            self.core.cond.wait(&mut st);
        }
    }

    /// Close a step; when all readers closed it, the writer may drop it.
    pub fn end_step(&mut self, step: ReadStep) {
        self.stats.add_bytes(step.bytes_fetched);
        self.stats.add_wire_bytes(step.wire_bytes_fetched);
        self.stats.add_simulated(step.simulated_seconds);
        let idx = step.data.step;
        drop(step);
        let mut st = self.core.state.lock();
        self.core.close_step_locked(&mut st, idx, self.rank);
    }

    /// Total steps published on this stream so far (monotone; after the
    /// writers closed this is the final count — the denominator of the
    /// `consumed + dropped + orphaned` accounting identity).
    pub fn published_steps(&self) -> u64 {
        self.core.state.lock().published
    }

    /// Wait until at least one unseen step is published, then take the
    /// **newest** one, closing every older published step without
    /// fetching it. Returns `(skipped, step)`; `(0, None)` at end of
    /// stream.
    ///
    /// This is the `DropSteps` consumer primitive: skipped steps are
    /// closed under the same lock, so their queue slots free up — and any
    /// writer blocked on the queue limit resumes — before this call
    /// returns. No payload of a skipped step is ever fetched.
    pub fn begin_latest_step(&mut self) -> (u64, Option<ReadStep>) {
        self.begin_latest_step_min(0)
    }

    /// Adaptive variant of [`Self::begin_latest_step`]: jump to the
    /// newest published step only when at least `min_pending` unseen
    /// steps are pending for this reader; otherwise take the next step
    /// **in order** (no skip). `min_pending <= 1` always jumps — the
    /// classic drop-to-freshest behaviour — because with one pending
    /// step "next" and "newest" coincide.
    ///
    /// This is the `DropSteps { min_queue }` lever: a consumer that is
    /// only marginally behind keeps full training coverage, and dropping
    /// starts only once the backlog is `min_pending` deep.
    pub fn begin_latest_step_min(&mut self, min_pending: u64) -> (u64, Option<ReadStep>) {
        let mut st = self.core.state.lock();
        loop {
            // Steps publish in order, so this reader's pending set is
            // exactly [cursor, published) and every index in it is still
            // queued (we never closed those).
            let pending = st.published.saturating_sub(self.cursor);
            if pending > 0 {
                let target = if pending >= min_pending.max(1) {
                    st.published - 1 // newest
                } else {
                    self.cursor // stay in order
                };
                let mut skipped = 0u64;
                while self.cursor < target {
                    self.core.close_step_locked(&mut st, self.cursor, self.rank);
                    self.cursor += 1;
                    skipped += 1;
                }
                let data = st
                    .queue
                    .iter()
                    .find(|s| s.step == target)
                    .unwrap_or_else(|| panic!("step {target} must still be queued"))
                    .clone();
                self.cursor = target + 1;
                return (skipped, Some(self.open_step(data)));
            }
            if st.writers_closed == self.core.cfg.writers && st.published <= self.cursor {
                return (0, None);
            }
            self.core.cond.wait(&mut st);
        }
    }

    /// Wait for the first step with index `>= target`, closing every
    /// older published step without fetching it. Returns
    /// `(skipped, step)`; `(skipped, None)` if the writers close before
    /// `target` is published (any remaining older steps are still closed
    /// and counted, so the stream winds down cleanly).
    ///
    /// Used to keep a second stream in lockstep with a `DropSteps` read
    /// on the first: after `begin_latest_step` returns step `s` on one
    /// stream, `begin_step_at_least(s)` on the other skips exactly the
    /// same window set.
    pub fn begin_step_at_least(&mut self, target: u64) -> (u64, Option<ReadStep>) {
        let mut skipped = 0u64;
        let mut st = self.core.state.lock();
        loop {
            // Close published steps below the target as they appear
            // (publish order is sequential, so step `cursor` is queued
            // iff `cursor < published`).
            while self.cursor < target && self.cursor < st.published {
                self.core.close_step_locked(&mut st, self.cursor, self.rank);
                self.cursor += 1;
                skipped += 1;
            }
            if self.cursor >= target {
                if let Some(sd) = st.queue.iter().find(|s| s.step == self.cursor) {
                    let data = sd.clone();
                    self.cursor += 1;
                    return (skipped, Some(self.open_step(data)));
                }
            }
            if st.writers_closed == self.core.cfg.writers && st.published <= self.cursor {
                return (skipped, None);
            }
            self.core.cond.wait(&mut st);
        }
    }
}

impl Drop for SstReader {
    /// A dropped reader endpoint *departs*: its close vote is implied for
    /// every current and future step, so a dead consumer rank can never
    /// wedge the writers on the queue limit or starve surviving readers.
    /// The cursor at departure is recorded for the [`StreamMonitor`]'s
    /// lost-step accounting. A reader dropped after a clean EOF departs
    /// with `cursor == published`, losing nothing.
    fn drop(&mut self) {
        let mut st = self.core.state.lock();
        self.core.cell.write();
        if st.departed & (1u64 << self.rank) != 0 {
            return;
        }
        st.departed |= 1u64 << self.rank;
        st.departed_cursors.insert(self.rank, self.cursor);
        self.core.retire_covered_locked(&mut st);
        self.core.cond.notify_all();
    }
}

impl ReadStep {
    /// The step index.
    pub fn step(&self) -> u64 {
        self.data.step
    }

    /// Names of the variables in this step, in lexicographic order (the
    /// step table is an ordered map, so no sort is needed).
    pub fn variable_names(&self) -> Vec<String> {
        self.data.vars.keys().cloned().collect()
    }

    /// Metadata of one variable.
    pub fn variable(&self, name: &str) -> Option<&VariableMeta> {
        self.data.vars.get(name)
    }

    /// Charge one fetch: logical payload bytes, wire bytes, and the
    /// modelled wire seconds for `ops` read operations moving the wire
    /// bytes over the configured plane.
    fn charge(&mut self, logical: u64, wire: u64, ops: usize) {
        self.bytes_fetched += logical;
        self.wire_bytes_fetched += wire;
        self.simulated_seconds += self.plane.read_time(wire as f64, ops, NIC_BANDWIDTH);
    }

    fn lookup(&self, name: &str, dtype: Dtype) -> Result<&VariableMeta, StagingError> {
        let var = self
            .data
            .vars
            .get(name)
            .ok_or_else(|| StagingError::MissingVariable {
                name: name.to_string(),
                step: self.data.step,
            })?;
        if var.dtype != dtype {
            return Err(StagingError::DtypeMismatch {
                name: name.to_string(),
                expected: dtype,
                found: var.dtype,
            });
        }
        Ok(var)
    }

    /// Fetch the full global `f64` array, assembling all blocks (counts
    /// simulated wire time on this reader). Panics on a missing variable
    /// or dtype mismatch; fault-tolerant readers use
    /// [`ReadStep::try_get_f64`].
    pub fn get_f64(&mut self, name: &str) -> Vec<f64> {
        self.try_get_f64(name).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible twin of [`ReadStep::get_f64`].
    pub fn try_get_f64(&mut self, name: &str) -> Result<Vec<f64>, StagingError> {
        let codec = self.codec;
        let var = self.lookup(name, Dtype::F64)?;
        let mut out = vec![0.0f64; var.global_count as usize];
        let mut wire = 0u64;
        let ops = var.blocks.len();
        for b in &var.blocks {
            codec.decode_f64_into(
                &b.data,
                b.count as usize,
                &mut out[b.offset as usize..(b.offset + b.count) as usize],
            );
            wire += b.data.len() as u64;
        }
        let logical = var.global_count * Dtype::F64.size() as u64;
        self.charge(logical, wire, ops);
        Ok(out)
    }

    /// Fetch the full global `f32` array. Panics on a missing variable or
    /// dtype mismatch; fault-tolerant readers use [`ReadStep::try_get_f32`].
    pub fn get_f32(&mut self, name: &str) -> Vec<f32> {
        self.try_get_f32(name).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible twin of [`ReadStep::get_f32`].
    pub fn try_get_f32(&mut self, name: &str) -> Result<Vec<f32>, StagingError> {
        let codec = self.codec;
        let var = self.lookup(name, Dtype::F32)?;
        let mut out = vec![0.0f32; var.global_count as usize];
        let mut wire = 0u64;
        let ops = var.blocks.len();
        for b in &var.blocks {
            codec.decode_f32_into(
                &b.data,
                b.count as usize,
                &mut out[b.offset as usize..(b.offset + b.count) as usize],
            );
            wire += b.data.len() as u64;
        }
        let logical = var.global_count * Dtype::F32.size() as u64;
        self.charge(logical, wire, ops);
        Ok(out)
    }

    /// Zero-copy view of the full global `f64` array: the writers' wire
    /// buffers are shared by refcount and elements decode lazily. Same
    /// wire accounting as [`ReadStep::get_f64`], without the payload
    /// allocation. Panics on a missing variable or dtype mismatch.
    pub fn get_f64_view(&mut self, name: &str) -> VarView {
        self.try_get_view(name, Dtype::F64)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Zero-copy view of the full global `f32` array; see
    /// [`ReadStep::get_f64_view`].
    pub fn get_f32_view(&mut self, name: &str) -> VarView {
        self.try_get_view(name, Dtype::F32)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible zero-copy view of a `dtype` variable.
    pub fn try_get_view(&mut self, name: &str, dtype: Dtype) -> Result<VarView, StagingError> {
        let codec = self.codec;
        let var = self.lookup(name, dtype)?;
        let mut segments = Vec::with_capacity(var.blocks.len());
        let mut wire = 0u64;
        let ops = var.blocks.len();
        for b in &var.blocks {
            segments.push(Segment::new(
                b.offset,
                b.count,
                b.data.clone(),
                codec,
                dtype,
            ));
            wire += b.data.len() as u64;
        }
        let global_count = var.global_count;
        let logical = global_count * dtype.size() as u64;
        self.charge(logical, wire, ops);
        Ok(VarView::new(segments, global_count))
    }

    /// Fetch only the blocks written by `writer_rank` (the intra-node
    /// locality pattern of §IV-D: "data is shared within node boundaries").
    pub fn get_f64_from_rank(&mut self, name: &str, writer_rank: usize) -> Vec<(u64, Vec<f64>)> {
        let codec = self.codec;
        let var = self
            .data
            .vars
            .get(name)
            .unwrap_or_else(|| panic!("no variable {name}"));
        assert_eq!(var.dtype, Dtype::F64);
        let mut out = Vec::new();
        let mut logical = 0u64;
        let mut wire = 0u64;
        let mut ops = 0usize;
        for b in &var.blocks {
            if b.writer_rank == writer_rank {
                let mut vals = vec![0.0f64; b.count as usize];
                codec.decode_f64_into(&b.data, b.count as usize, &mut vals);
                out.push((b.offset, vals));
                logical += b.count * Dtype::F64.size() as u64;
                wire += b.data.len() as u64;
                ops += 1;
            }
        }
        self.charge(logical, wire, ops.max(1));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn single_writer_single_reader_round_trip() {
        let (mut writers, mut readers) = open_stream(StreamConfig::default());
        let mut w = writers.remove(0);
        let mut r = readers.remove(0);
        let producer = thread::spawn(move || {
            for s in 0..3 {
                w.begin_step();
                let data: Vec<f64> = (0..10).map(|i| (s * 10 + i) as f64).collect();
                w.put_f64("x", 10, 0, &data);
                w.end_step();
            }
            w.close();
        });
        let mut steps = 0;
        while let Some(mut step) = r.begin_step() {
            let x = step.get_f64("x");
            assert_eq!(x.len(), 10);
            assert_eq!(x[3], (step.step() * 10 + 3) as f64);
            r.end_step(step);
            steps += 1;
        }
        assert_eq!(steps, 3);
        producer.join().unwrap();
    }

    #[test]
    fn multi_writer_blocks_assemble_in_offset_order() {
        let cfg = StreamConfig {
            writers: 3,
            ..StreamConfig::default()
        };
        let (writers, mut readers) = open_stream(cfg);
        let handles: Vec<_> = writers
            .into_iter()
            .map(|mut w| {
                thread::spawn(move || {
                    let rank = w.rank() as u64;
                    w.begin_step();
                    let data: Vec<f64> = (0..4).map(|i| (rank * 4 + i) as f64).collect();
                    w.put_f64("x", 12, rank * 4, &data);
                    w.end_step();
                    w.close();
                })
            })
            .collect();
        let mut r = readers.remove(0);
        let mut step = r.begin_step().expect("one step");
        let x = step.get_f64("x");
        assert_eq!(x, (0..12).map(|v| v as f64).collect::<Vec<_>>());
        r.end_step(step);
        assert!(r.begin_step().is_none());
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn queue_limit_back_pressures_the_writer() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let cfg = StreamConfig {
            queue_limit: 1,
            ..StreamConfig::default()
        };
        let (mut writers, mut readers) = open_stream(cfg);
        let mut w = writers.remove(0);
        let published = Arc::new(AtomicU64::new(0));
        let p2 = published.clone();
        let producer = thread::spawn(move || {
            for s in 0..4 {
                w.begin_step();
                w.put_f64("x", 1, 0, &[s as f64]);
                w.end_step();
                p2.store(s + 1, Ordering::SeqCst);
            }
            w.close();
        });
        // Give the producer time: with queue_limit 1 it cannot publish
        // step 2 before we consume step 0.
        std::thread::sleep(std::time::Duration::from_millis(100));
        assert!(
            published.load(Ordering::SeqCst) <= 2,
            "producer ran ahead of the queue limit"
        );
        let mut r = readers.remove(0);
        let mut seen = 0;
        while let Some(step) = r.begin_step() {
            seen += 1;
            r.end_step(step);
        }
        assert_eq!(seen, 4);
        producer.join().unwrap();
    }

    #[test]
    fn stall_seconds_measures_only_queue_blocked_time() {
        let cfg = StreamConfig {
            queue_limit: 1,
            ..StreamConfig::default()
        };
        let (mut writers, mut readers) = open_stream(cfg);
        let mut w = writers.remove(0);
        let producer = thread::spawn(move || {
            for s in 0..3 {
                w.begin_step();
                w.put_f64("x", 1, 0, &[s as f64]);
                w.end_step();
            }
            w.close();
            w.stall_seconds()
        });
        let mut r = readers.remove(0);
        while let Some(step) = r.begin_step() {
            // A deliberately slow consumer: every step the producer has
            // already published the next and is blocked on the queue.
            std::thread::sleep(std::time::Duration::from_millis(20));
            r.end_step(step);
        }
        let stall = producer.join().unwrap();
        assert!(
            stall > 0.0,
            "queue_limit 1 with a slow reader must register stall time"
        );
    }

    #[test]
    fn fast_consumer_registers_no_stall() {
        let (mut writers, mut readers) = open_stream(StreamConfig {
            queue_limit: 8,
            ..StreamConfig::default()
        });
        let mut w = writers.remove(0);
        let mut r = readers.remove(0);
        let producer = thread::spawn(move || {
            for s in 0..4 {
                w.begin_step();
                w.put_f64("x", 1, 0, &[s as f64]);
                w.end_step();
            }
            w.close();
            w.stall_seconds()
        });
        while let Some(step) = r.begin_step() {
            r.end_step(step);
        }
        // The queue never fills, so no time is attributed to back-pressure.
        assert_eq!(producer.join().unwrap(), 0.0);
    }

    #[test]
    fn multiple_readers_each_see_every_step() {
        let cfg = StreamConfig {
            readers: 2,
            ..StreamConfig::default()
        };
        let (mut writers, readers) = open_stream(cfg);
        let mut w = writers.remove(0);
        let producer = thread::spawn(move || {
            for s in 0..5 {
                w.begin_step();
                w.put_f64("v", 2, 0, &[s as f64, -(s as f64)]);
                w.end_step();
            }
            w.close();
        });
        let consumers: Vec<_> = readers
            .into_iter()
            .map(|mut r| {
                thread::spawn(move || {
                    let mut count = 0;
                    while let Some(mut step) = r.begin_step() {
                        let v = step.get_f64("v");
                        assert_eq!(v[0], step.step() as f64);
                        r.end_step(step);
                        count += 1;
                    }
                    count
                })
            })
            .collect();
        for c in consumers {
            assert_eq!(c.join().unwrap(), 5);
        }
        producer.join().unwrap();
    }

    #[test]
    fn f32_and_rank_selected_reads() {
        let cfg = StreamConfig {
            writers: 2,
            ..StreamConfig::default()
        };
        let (writers, mut readers) = open_stream(cfg);
        let handles: Vec<_> = writers
            .into_iter()
            .map(|mut w| {
                thread::spawn(move || {
                    let rank = w.rank();
                    w.begin_step();
                    w.put_f32("s", 4, rank as u64 * 2, &[rank as f32; 2]);
                    w.put_f64("d", 4, rank as u64 * 2, &[rank as f64; 2]);
                    w.end_step();
                    w.close();
                })
            })
            .collect();
        let mut r = readers.remove(0);
        let mut step = r.begin_step().expect("step");
        assert_eq!(step.get_f32("s"), vec![0.0, 0.0, 1.0, 1.0]);
        let from1 = step.get_f64_from_rank("d", 1);
        assert_eq!(from1.len(), 1);
        assert_eq!(from1[0], (2, vec![1.0, 1.0]));
        assert!(step.simulated_seconds > 0.0);
        assert!(step.bytes_fetched > 0);
        r.end_step(step);
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn stats_account_published_and_fetched_bytes() {
        let (mut writers, mut readers) = open_stream(StreamConfig::default());
        let mut w = writers.remove(0);
        let mut r = readers.remove(0);
        let producer = thread::spawn(move || {
            w.begin_step();
            w.put_f64("x", 100, 0, &vec![0.0; 100]);
            w.end_step();
            w.close();
            w.stats.total_bytes()
        });
        let mut step = r.begin_step().expect("step");
        let _ = step.get_f64("x");
        r.end_step(step);
        assert!(r.begin_step().is_none());
        let written = producer.join().unwrap();
        assert_eq!(written, 800);
        assert_eq!(r.stats.total_bytes(), 800);
    }

    #[test]
    fn latest_step_skips_and_closes_older_steps() {
        let (mut writers, mut readers) = open_stream(StreamConfig {
            queue_limit: 8,
            ..StreamConfig::default()
        });
        let mut w = writers.remove(0);
        let mut r = readers.remove(0);
        for s in 0..5 {
            w.begin_step();
            w.put_f64("x", 1, 0, &[s as f64]);
            w.end_step();
        }
        // All 5 steps are queued; the latest read takes step 4 and closes
        // steps 0..4 unread.
        let (skipped, step) = r.begin_latest_step();
        let mut step = step.expect("a step is available");
        assert_eq!(skipped, 4);
        assert_eq!(step.step(), 4);
        assert_eq!(step.get_f64("x"), vec![4.0]);
        r.end_step(step);
        // Skipped payloads were never fetched: only step 4's 8 bytes.
        assert_eq!(r.stats.total_bytes(), 8);
        w.close();
        assert_eq!(r.begin_latest_step().1.map(|s| s.step()), None);
        assert_eq!(r.published_steps(), 5);
    }

    #[test]
    fn latest_step_min_holds_order_until_backlog_is_deep_enough() {
        let (mut writers, mut readers) = open_stream(StreamConfig {
            queue_limit: 8,
            ..StreamConfig::default()
        });
        let mut w = writers.remove(0);
        let mut r = readers.remove(0);
        for s in 0..5 {
            w.begin_step();
            w.put_f64("x", 1, 0, &[s as f64]);
            w.end_step();
        }
        w.close();
        // 5 pending but the threshold demands 6: read strictly in order.
        let (skipped, step) = r.begin_latest_step_min(6);
        assert_eq!(skipped, 0);
        assert_eq!(step.map(|s| s.step()), Some(0));
        // 4 pending, threshold 4: now the jump fires and takes step 4.
        let (skipped, step) = r.begin_latest_step_min(4);
        assert_eq!(skipped, 3);
        assert_eq!(step.map(|s| s.step()), Some(4));
        // min_pending 0 and 1 are the classic always-jump behaviour.
        assert_eq!(r.begin_latest_step_min(0).1.map(|s| s.step()), None);
    }

    #[test]
    fn skipping_releases_writer_backpressure() {
        // queue_limit 1: the writer can publish step 1 only after the
        // reader disposes of step 0 — which a latest-read does without
        // fetching.
        let (mut writers, mut readers) = open_stream(StreamConfig {
            queue_limit: 1,
            ..StreamConfig::default()
        });
        let mut w = writers.remove(0);
        let mut r = readers.remove(0);
        let producer = thread::spawn(move || {
            for s in 0..6 {
                w.begin_step();
                w.put_f64("x", 1, 0, &[s as f64]);
                w.end_step();
            }
            w.close();
            w.stall_seconds()
        });
        let mut seen = 0u64;
        let mut skipped_total = 0u64;
        loop {
            let (skipped, step) = r.begin_latest_step();
            skipped_total += skipped;
            match step {
                Some(s) => {
                    seen += 1;
                    r.end_step(s);
                }
                None => break,
            }
        }
        producer.join().unwrap();
        assert_eq!(seen + skipped_total, 6, "every step consumed or skipped");
        assert!(seen >= 1);
    }

    #[test]
    fn step_at_least_closes_everything_below_target() {
        let (mut writers, mut readers) = open_stream(StreamConfig {
            queue_limit: 8,
            ..StreamConfig::default()
        });
        let mut w = writers.remove(0);
        let mut r = readers.remove(0);
        for s in 0..4 {
            w.begin_step();
            w.put_f64("x", 1, 0, &[s as f64]);
            w.end_step();
        }
        let (skipped, step) = r.begin_step_at_least(2);
        let mut step = step.expect("step 2 exists");
        assert_eq!(skipped, 2);
        assert_eq!(step.step(), 2);
        assert_eq!(step.get_f64("x"), vec![2.0]);
        r.end_step(step);
        // Target 3 is next in order: nothing left to skip.
        let (skipped, step) = r.begin_step_at_least(3);
        assert_eq!(skipped, 0);
        r.end_step(step.expect("step 3 exists"));
        w.close();
        // Past-the-end target drains cleanly at EOF.
        let (skipped, step) = r.begin_step_at_least(u64::MAX);
        assert_eq!(skipped, 0);
        assert!(step.is_none());
    }

    #[test]
    fn step_at_least_drains_leftovers_when_writer_dies_short() {
        let (mut writers, mut readers) = open_stream(StreamConfig {
            queue_limit: 8,
            ..StreamConfig::default()
        });
        let mut w = writers.remove(0);
        let mut r = readers.remove(0);
        for s in 0..3 {
            w.begin_step();
            w.put_f64("x", 1, 0, &[s as f64]);
            w.end_step();
        }
        w.close();
        // Target 10 never arrives; the 3 published steps are closed and
        // counted so the stream winds down without leaking queue slots.
        let (skipped, step) = r.begin_step_at_least(10);
        assert_eq!(skipped, 3);
        assert!(step.is_none());
    }

    #[test]
    fn independent_readers_can_mix_blocking_and_latest() {
        let cfg = StreamConfig {
            readers: 2,
            queue_limit: 8,
            ..StreamConfig::default()
        };
        let (mut writers, mut readers) = open_stream(cfg);
        let mut w = writers.remove(0);
        let (mut blocking, mut dropping) = (readers.remove(0), readers.remove(0));
        let producer = thread::spawn(move || {
            for s in 0..4 {
                w.begin_step();
                w.put_f64("x", 1, 0, &[s as f64]);
                w.end_step();
            }
            w.close();
        });
        let block_thread = thread::spawn(move || {
            let mut seen = 0;
            while let Some(step) = blocking.begin_step() {
                blocking.end_step(step);
                seen += 1;
            }
            seen
        });
        let mut processed = 0u64;
        let mut dropped = 0u64;
        loop {
            let (skipped, step) = dropping.begin_latest_step();
            dropped += skipped;
            match step {
                Some(s) => {
                    processed += 1;
                    dropping.end_step(s);
                }
                None => break,
            }
        }
        assert_eq!(block_thread.join().unwrap(), 4, "blocking reader sees all");
        assert_eq!(processed + dropped, 4, "dropping reader accounts for all");
        producer.join().unwrap();
    }

    #[test]
    fn departed_reader_never_wedges_the_writer() {
        // queue_limit 1 and two readers; one reader dies after the first
        // step. Without departure tracking the writer would block forever
        // waiting for the dead rank's close votes.
        let cfg = StreamConfig {
            readers: 2,
            queue_limit: 1,
            ..StreamConfig::default()
        };
        let (mut writers, mut readers, monitor) = open_stream_monitored(cfg);
        let mut w = writers.remove(0);
        let (mut alive, mut dying) = (readers.remove(0), readers.remove(0));
        let producer = thread::spawn(move || {
            for s in 0..5 {
                w.begin_step();
                w.put_f64("x", 1, 0, &[s as f64]);
                w.end_step();
            }
            w.close();
        });
        // The dying reader consumes exactly one step, then departs.
        let step = dying.begin_step().expect("step 0");
        dying.end_step(step);
        drop(dying);
        let mut seen = 0;
        while let Some(step) = alive.begin_step() {
            alive.end_step(step);
            seen += 1;
        }
        producer.join().unwrap();
        assert_eq!(seen, 5, "surviving reader still sees every step");
        assert_eq!(monitor.published(), 5);
        assert_eq!(monitor.departed_readers(), 1);
        assert_eq!(monitor.departed_lost(), 4, "dead rank missed steps 1..5");
        assert!(monitor.writers_done());
    }

    #[test]
    fn reader_dropped_at_clean_eof_loses_nothing() {
        let (mut writers, mut readers, monitor) = open_stream_monitored(StreamConfig::default());
        let mut w = writers.remove(0);
        let mut r = readers.remove(0);
        w.begin_step();
        w.put_f64("x", 1, 0, &[1.0]);
        w.end_step();
        w.close();
        while let Some(step) = r.begin_step() {
            r.end_step(step);
        }
        drop(r);
        assert_eq!(monitor.departed_readers(), 1);
        assert_eq!(monitor.departed_lost(), 0);
    }

    #[test]
    fn armed_truncation_closes_the_stream_at_the_trigger() {
        let (mut writers, mut readers, monitor) = open_stream_monitored(StreamConfig {
            queue_limit: 8,
            ..StreamConfig::default()
        });
        let mut w = writers.remove(0);
        w.arm_truncate(2);
        // The producer loop is oblivious: it keeps writing five steps, but
        // only steps 0 and 1 publish; from step 2 on the puts are inert.
        for s in 0..5 {
            w.begin_step();
            w.put_f64("x", 1, 0, &[s as f64]);
            w.end_step();
        }
        assert!(w.is_truncated());
        let mut r = readers.remove(0);
        let mut seen = Vec::new();
        while let Some(mut step) = r.begin_step() {
            seen.push(step.get_f64("x")[0]);
            r.end_step(step);
        }
        assert_eq!(seen, vec![0.0, 1.0], "reader drains the published prefix");
        assert_eq!(monitor.published(), 2);
        assert!(monitor.writers_done(), "truncation closes the stream");
    }

    #[test]
    fn try_get_reports_missing_and_mismatched_variables() {
        let (mut writers, mut readers) = open_stream(StreamConfig::default());
        let mut w = writers.remove(0);
        let mut r = readers.remove(0);
        w.begin_step();
        w.put_f64("x", 1, 0, &[3.0]);
        w.end_step();
        w.close();
        let mut step = r.begin_step().expect("step");
        assert_eq!(step.try_get_f64("x"), Ok(vec![3.0]));
        assert_eq!(
            step.try_get_f64("y"),
            Err(StagingError::MissingVariable {
                name: "y".into(),
                step: 0,
            })
        );
        assert_eq!(
            step.try_get_f32("x"),
            Err(StagingError::DtypeMismatch {
                name: "x".into(),
                expected: Dtype::F32,
                found: Dtype::F64,
            })
        );
        r.end_step(step);
    }

    #[test]
    fn views_decode_the_same_values_as_owned_fetches() {
        let cfg = StreamConfig {
            writers: 2,
            ..StreamConfig::default()
        };
        let (writers, mut readers) = open_stream(cfg);
        let handles: Vec<_> = writers
            .into_iter()
            .map(|mut w| {
                thread::spawn(move || {
                    let rank = w.rank() as u64;
                    w.begin_step();
                    let d: Vec<f64> = (0..6).map(|i| (rank * 6 + i) as f64 * 0.5).collect();
                    w.put_f64("d", 12, rank * 6, &d);
                    let s: Vec<f32> = (0..6).map(|i| (rank * 6 + i) as f32).collect();
                    w.put_f32("s", 12, rank * 6, &s);
                    w.end_step();
                    w.close();
                })
            })
            .collect();
        let mut r = readers.remove(0);
        let mut step = r.begin_step().expect("step");
        let owned = step.get_f64("d");
        let view = step.get_f64_view("d");
        assert_eq!(view.len(), owned.len());
        for (i, &x) in owned.iter().enumerate() {
            assert_eq!(view.get_f64(i).to_bits(), x.to_bits());
        }
        let owned32 = step.get_f32("s");
        let view32 = step.get_f32_view("s");
        for (i, &x) in owned32.iter().enumerate() {
            assert_eq!(view32.get_f32(i).to_bits(), x.to_bits());
        }
        // Both fetch styles charge the same wire accounting per call.
        assert_eq!(step.bytes_fetched, 2 * (12 * 8 + 12 * 4));
        assert_eq!(step.wire_bytes_fetched, step.bytes_fetched);
        r.end_step(step);
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn f16_codec_shrinks_the_wire_and_survives_the_round_trip() {
        let cfg = StreamConfig {
            codec: WireCodec::F16,
            ..StreamConfig::default()
        };
        let (mut writers, mut readers) = open_stream(cfg);
        let mut w = writers.remove(0);
        let mut r = readers.remove(0);
        let data: Vec<f64> = (0..100).map(|i| i as f64 * 0.25 - 12.0).collect();
        let d2 = data.clone();
        let producer = thread::spawn(move || {
            w.begin_step();
            w.put_f64("x", 100, 0, &d2);
            w.end_step();
            w.close();
            (w.stats.total_bytes(), w.stats.wire_bytes())
        });
        let mut step = r.begin_step().expect("step");
        let x = step.get_f64("x");
        for (a, b) in data.iter().zip(&x) {
            // Every value here is exactly representable in binary16.
            assert_eq!(a.to_bits(), b.to_bits());
        }
        let v = step.get_f64_view("x");
        assert_eq!(v.get_f64(40).to_bits(), data[40].to_bits());
        r.end_step(step);
        let (logical, wire) = producer.join().unwrap();
        assert_eq!(logical, 800, "logical payload is the f64 size");
        assert_eq!(wire, 200, "binary16 wire is 4x smaller");
        assert_eq!(r.stats.total_bytes(), 2 * 800, "owned fetch + view fetch");
        assert_eq!(r.stats.wire_bytes(), 2 * 200);
    }

    #[test]
    fn writer_charges_modelled_publish_time() {
        let (mut writers, _readers) = open_stream(StreamConfig::default());
        let mut w = writers.remove(0);
        w.begin_step();
        w.put_f64("x", 64, 0, &[1.0; 64]);
        assert!(w.stats.simulated_seconds() > 0.0);
    }

    #[test]
    #[should_panic(expected = "payload size mismatch")]
    fn raw_put_bytes_must_match_the_codec_wire_size() {
        let cfg = StreamConfig {
            codec: WireCodec::F16,
            ..StreamConfig::default()
        };
        let (mut writers, _readers) = open_stream(cfg);
        let mut w = writers.remove(0);
        w.begin_step();
        // 8-byte-per-element raw payload on an f16 stream: rejected at
        // publish, where the tiling is validated.
        let raw = bytes::Bytes::from(vec![0u8; 32]);
        w.put_bytes("x", Dtype::F64, 4, 0, 4, raw);
        w.end_step();
    }

    #[test]
    #[should_panic(expected = "gap or overlap")]
    fn bad_tiling_is_rejected_at_publish() {
        let (mut writers, _readers) = open_stream(StreamConfig::default());
        let mut w = writers.remove(0);
        w.begin_step();
        w.put_f64("x", 10, 0, &[0.0; 4]);
        w.put_f64("x", 10, 5, &[0.0; 5]);
        w.end_step();
    }
}
