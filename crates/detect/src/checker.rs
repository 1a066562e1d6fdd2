//! The checker behind the `detect` feature (the `parking_lot`/`crossbeam`
//! shims call the hooks below; workspace crates annotate their shared
//! state with [`Cell`]).
//!
//! Two analyses share a single global registry:
//!
//! * **Lock-order graph** — [`lock_acquire`] records an edge `H → L`
//!   for every lock `L` taken while `H` is held, keeps the acquisition
//!   backtrace of each edge's first occurrence, and panics *before
//!   blocking* when a new edge closes a cycle (a potential deadlock),
//!   printing both acquisition stacks.
//!
//! * **Happens-before + lockset race checking** — threads carry sparse
//!   vector clocks advanced at release-style events (channel send,
//!   thread fork/exit) and joined at acquire-style events (recv,
//!   join). Shared state is annotated with [`Cell`] handles
//!   ([`track_cell!`](crate::track_cell)); each access records an
//!   epoch, the current lockset, and a backtrace. Two accesses to the same cell race when
//!   they come from different threads, at least one is a non-atomic
//!   write, their clocks are unordered, and their locksets are
//!   disjoint. Racy pairs are reported with both stacks.
//!
//! Lock release/acquire deliberately contributes **no** happens-before
//! edge: mutex-guarded state is covered by the lockset check instead,
//! which keeps accidental lock-free publication visible.

use std::backtrace::Backtrace;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::panic::Location;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;

// ---------------------------------------------------------------------------
// Thread identity and sparse vector clocks
// ---------------------------------------------------------------------------

/// A sparse vector-clock snapshot, piggybacked on channel messages and
/// thread fork/join edges. Missing components are zero.
#[derive(Debug, Clone, Default)]
pub struct Clock(BTreeMap<u32, u64>);

static NEXT_TID: AtomicU32 = AtomicU32::new(1);

struct ThreadState {
    tid: u32,
    clock: BTreeMap<u32, u64>,
    held: Vec<u64>,
}

impl ThreadState {
    fn fresh() -> Self {
        let tid = NEXT_TID.fetch_add(1, Ordering::Relaxed);
        let mut clock = BTreeMap::new();
        clock.insert(tid, 1);
        ThreadState {
            tid,
            clock,
            held: Vec::new(),
        }
    }
}

thread_local! {
    static TS: RefCell<ThreadState> = RefCell::new(ThreadState::fresh());
}

/// Release-style event: snapshot the current clock, then advance this
/// thread's own component so later local accesses are *not* ordered
/// before the receiver. Used for channel `send` and thread fork/exit.
pub fn send_event() -> Clock {
    TS.with(|ts| {
        let mut ts = ts.borrow_mut();
        let snap = Clock(ts.clock.clone());
        let tid = ts.tid;
        *ts.clock.entry(tid).or_insert(0) += 1;
        snap
    })
}

/// Acquire-style event: join a received snapshot into this thread's
/// clock. Used for channel `recv` and thread start/join.
pub fn recv_event(clock: &Clock) {
    TS.with(|ts| {
        let mut ts = ts.borrow_mut();
        for (&t, &v) in &clock.0 {
            let e = ts.clock.entry(t).or_insert(0);
            *e = (*e).max(v);
        }
    })
}

/// Parent-side fork edge (alias of [`send_event`]).
pub fn fork_event() -> Clock {
    send_event()
}

/// Child-side fork edge (alias of [`recv_event`]).
pub fn child_start(clock: &Clock) {
    recv_event(clock)
}

/// Child-side exit edge (alias of [`send_event`]).
pub fn exit_event() -> Clock {
    send_event()
}

/// Joiner-side join edge (alias of [`recv_event`]).
pub fn join_event(clock: &Clock) {
    recv_event(clock)
}

// ---------------------------------------------------------------------------
// Global registry
// ---------------------------------------------------------------------------

#[derive(Default)]
struct Global {
    /// `from → to → first-occurrence acquisition backtrace`.
    edges: BTreeMap<u64, BTreeMap<u64, String>>,
    /// Distinct race reports (`seen` keys them by location pair).
    races: Vec<String>,
    seen: BTreeMap<(u64, String, String), ()>,
    cells: BTreeMap<u64, CellState>,
    cell_names: BTreeMap<u64, String>,
}

#[derive(Default)]
struct CellState {
    /// Latest access per `(tid, write, atomic)` — per-thread epochs are
    /// monotone, so the latest access subsumes earlier ones.
    slots: BTreeMap<(u32, bool, bool), Access>,
}

struct Access {
    tid: u32,
    epoch: u64,
    write: bool,
    atomic: bool,
    lockset: Vec<u64>,
    loc: String,
    stack: Backtrace,
}

static GLOBAL: Mutex<Option<Global>> = Mutex::new(None);

fn with_global<R>(f: impl FnOnce(&mut Global) -> R) -> R {
    let mut g = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    f(g.get_or_insert_with(Global::default))
}

// ---------------------------------------------------------------------------
// Lock-order graph
// ---------------------------------------------------------------------------

/// Per-lock identity, embedded in the `parking_lot` shim's `Mutex`.
/// `const`-constructible; the id is assigned lazily on first acquire.
#[derive(Debug, Default)]
pub struct LockMeta {
    id: AtomicU64,
}

static NEXT_LOCK_ID: AtomicU64 = AtomicU64::new(1);

impl LockMeta {
    /// New, unassigned lock identity.
    pub const fn new() -> Self {
        LockMeta {
            id: AtomicU64::new(0),
        }
    }

    fn id(&self) -> u64 {
        let id = self.id.load(Ordering::Relaxed);
        if id != 0 {
            return id;
        }
        let fresh = NEXT_LOCK_ID.fetch_add(1, Ordering::Relaxed);
        match self
            .id
            .compare_exchange(0, fresh, Ordering::Relaxed, Ordering::Relaxed)
        {
            Ok(_) => fresh,
            Err(winner) => winner,
        }
    }
}

/// Depth-first path search in the lock-order graph.
fn find_path(
    edges: &BTreeMap<u64, BTreeMap<u64, String>>,
    from: u64,
    to: u64,
    visited: &mut Vec<u64>,
) -> Option<Vec<u64>> {
    if from == to {
        return Some(vec![from]);
    }
    if visited.contains(&from) {
        return None;
    }
    visited.push(from);
    for (&next, _) in edges.get(&from).into_iter().flatten() {
        if let Some(mut path) = find_path(edges, next, to, visited) {
            path.insert(0, from);
            return Some(path);
        }
    }
    None
}

/// Record an acquisition of `meta` by the current thread. Panics when
/// the implied lock-order edge closes a cycle — i.e. some interleaving
/// can deadlock — *before* the caller blocks on the real lock.
pub fn lock_acquire(meta: &LockMeta) {
    let id = meta.id();
    let held = TS.with(|ts| ts.borrow().held.clone());
    if !held.is_empty() {
        with_global(|g| {
            for &h in &held {
                if h == id {
                    panic!(
                        "as-detect: recursive acquisition of lock #{id}\n\
                         second acquisition at:\n{}",
                        Backtrace::force_capture()
                    );
                }
                if g.edges.get(&h).is_some_and(|m| m.contains_key(&id)) {
                    continue; // known edge, already cycle-checked
                }
                if let Some(path) = find_path(&g.edges, id, h, &mut Vec::new()) {
                    let first_edge_stack = path
                        .windows(2)
                        .next()
                        .and_then(|w| g.edges.get(&w[0]).and_then(|m| m.get(&w[1])))
                        .cloned()
                        .unwrap_or_default();
                    panic!(
                        "as-detect: lock-order cycle — acquiring lock #{id} while holding #{h}, \
                         but the reverse order #{path:?} is already established (potential deadlock)\n\
                         --- this acquisition (#{h} then #{id}) at:\n{}\n\
                         --- established order (#{id} then #{}) first seen at:\n{}",
                        Backtrace::force_capture(),
                        path.get(1).copied().unwrap_or(h),
                        first_edge_stack,
                    );
                }
                g.edges
                    .entry(h)
                    .or_default()
                    .insert(id, Backtrace::force_capture().to_string());
            }
        });
    }
    TS.with(|ts| ts.borrow_mut().held.push(id));
}

/// Record a release of `meta` by the current thread (any order, not
/// just LIFO — guards may be dropped out of acquisition order).
pub fn lock_release(meta: &LockMeta) {
    let id = meta.id();
    TS.with(|ts| {
        let mut ts = ts.borrow_mut();
        if let Some(pos) = ts.held.iter().rposition(|&h| h == id) {
            ts.held.remove(pos);
        }
    });
}

// ---------------------------------------------------------------------------
// Tracked cells (lockset + happens-before race checking)
// ---------------------------------------------------------------------------

static NEXT_CELL_ID: AtomicU64 = AtomicU64::new(1);

/// A registered piece of shared state. Construct with [`Cell::new`] (or
/// the [`track_cell!`](crate::track_cell) macro) and call
/// [`Cell::read`]/[`Cell::write`]/[`Cell::atomic`] next to the real
/// accesses.
#[derive(Debug)]
pub struct Cell {
    id: u64,
}

impl Cell {
    /// Register a named cell.
    pub fn new(name: &str) -> Self {
        let id = NEXT_CELL_ID.fetch_add(1, Ordering::Relaxed);
        with_global(|g| {
            g.cell_names.insert(id, name.to_string());
        });
        Cell { id }
    }

    /// Record a shared read.
    #[track_caller]
    pub fn read(&self) {
        self.access(false, false, Location::caller());
    }

    /// Record a shared write.
    #[track_caller]
    pub fn write(&self) {
        self.access(true, false, Location::caller());
    }

    /// Record an atomic access — participates in bookkeeping but never
    /// races (atomics are themselves synchronization).
    #[track_caller]
    pub fn atomic(&self) {
        self.access(true, true, Location::caller());
    }

    fn access(&self, write: bool, atomic: bool, loc: &Location<'_>) {
        let (tid, epoch, clock, lockset) = TS.with(|ts| {
            let ts = ts.borrow();
            let mut lockset = ts.held.clone();
            lockset.sort_unstable();
            lockset.dedup();
            (
                ts.tid,
                ts.clock.get(&ts.tid).copied().unwrap_or(0),
                ts.clock.clone(),
                lockset,
            )
        });
        let loc = format!("{}:{}", loc.file(), loc.line());
        with_global(|g| {
            let name = g.cell_names.get(&self.id).cloned().unwrap_or_default();
            let state = g.cells.entry(self.id).or_default();
            let mut found: Vec<(String, String)> = Vec::new();
            for a in state.slots.values() {
                if a.tid == tid || a.atomic || atomic || !(a.write || write) {
                    continue;
                }
                let ordered = a.epoch <= clock.get(&a.tid).copied().unwrap_or(0);
                let locked = a.lockset.iter().any(|l| lockset.contains(l));
                if !ordered && !locked {
                    let report = format!(
                        "as-detect: data race on cell `{name}`\n\
                         --- {} by thread #{} at {} (lockset {:?}), stack:\n{}\n\
                         --- {} by thread #{tid} at {loc} (lockset {lockset:?}), stack:\n{}",
                        kind(a.write),
                        a.tid,
                        a.loc,
                        a.lockset,
                        a.stack,
                        kind(write),
                        Backtrace::force_capture(),
                    );
                    found.push((report, a.loc.clone()));
                }
            }
            for (report, prior_loc) in found {
                let key = (self.id, prior_loc, loc.clone());
                if g.seen.insert(key, ()).is_none() {
                    eprintln!("{report}");
                    g.races.push(report);
                }
            }
            let state = g.cells.entry(self.id).or_default();
            state.slots.insert(
                (tid, write, atomic),
                Access {
                    tid,
                    epoch,
                    write,
                    atomic,
                    lockset,
                    loc,
                    stack: Backtrace::force_capture(),
                },
            );
        });
    }
}

fn kind(write: bool) -> &'static str {
    if write {
        "write"
    } else {
        "read"
    }
}

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

/// Number of distinct racy pairs observed so far.
pub fn race_count() -> usize {
    with_global(|g| g.races.len())
}

/// Clone the current race reports (non-draining — safe when tests run
/// concurrently in one binary).
pub fn race_reports() -> Vec<String> {
    with_global(|g| g.races.clone())
}

/// Drain the race reports (end-of-run CI check).
pub fn take_race_reports() -> Vec<String> {
    with_global(|g| std::mem::take(&mut g.races))
}

/// Number of distinct lock-order edges recorded so far.
pub fn lock_order_edges() -> usize {
    with_global(|g| g.edges.values().map(BTreeMap::len).sum())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_send_recv_orders_accesses() {
        // a send snapshot excludes the post-send increment…
        let snap = send_event();
        let own = TS.with(|ts| {
            let ts = ts.borrow();
            (ts.tid, ts.clock.get(&ts.tid).copied().unwrap_or(0))
        });
        assert_eq!(snap.0.get(&own.0).copied().unwrap_or(0) + 1, own.1);
        // …and recv joins componentwise.
        let mut other = Clock::default();
        other.0.insert(9_999_999, 7);
        recv_event(&other);
        TS.with(|ts| assert_eq!(ts.borrow().clock.get(&9_999_999), Some(&7)));
    }

    #[test]
    fn consistent_lock_order_is_silent() {
        let a = LockMeta::new();
        let b = LockMeta::new();
        for _ in 0..2 {
            lock_acquire(&a);
            lock_acquire(&b);
            lock_release(&b);
            lock_release(&a);
        }
    }

    #[test]
    #[should_panic(expected = "lock-order cycle")]
    fn lock_order_inversion_panics() {
        let a = LockMeta::new();
        let b = LockMeta::new();
        lock_acquire(&a);
        lock_acquire(&b); // establishes a → b
        lock_release(&b);
        lock_release(&a);
        lock_acquire(&b);
        lock_acquire(&a); // b → a closes the cycle
    }

    #[test]
    #[should_panic(expected = "recursive acquisition")]
    fn recursive_acquisition_panics() {
        let a = LockMeta::new();
        lock_acquire(&a);
        lock_acquire(&a);
    }

    #[test]
    fn unsynchronized_writes_race() {
        let cell = std::sync::Arc::new(Cell::new("detect.test.racy"));
        let c2 = cell.clone();
        // No fork_event/child_start handoff: the two writes are
        // unordered and lock-free → racy pair.
        let t = std::thread::spawn(move || c2.write());
        t.join().unwrap();
        cell.write();
        assert!(
            race_reports()
                .iter()
                .any(|r| r.contains("detect.test.racy")),
            "expected a race report for detect.test.racy"
        );
    }

    #[test]
    fn fork_join_edges_suppress_race() {
        let cell = std::sync::Arc::new(Cell::new("detect.test.forked"));
        let c2 = cell.clone();
        let snap = fork_event();
        let t = std::thread::spawn(move || {
            child_start(&snap);
            c2.write();
            exit_event()
        });
        let exit = t.join().unwrap();
        join_event(&exit);
        cell.write();
        assert!(
            !race_reports()
                .iter()
                .any(|r| r.contains("detect.test.forked")),
            "fork/join-ordered writes must not race"
        );
    }

    #[test]
    fn common_lock_suppresses_race() {
        let cell = std::sync::Arc::new(Cell::new("detect.test.locked"));
        let lock = std::sync::Arc::new(LockMeta::new());
        let (c2, l2) = (cell.clone(), lock.clone());
        let t = std::thread::spawn(move || {
            lock_acquire(&l2);
            c2.write();
            lock_release(&l2);
        });
        t.join().unwrap();
        // Unordered with the spawned write (no fork edge), but the
        // shared lockset makes it safe.
        lock_acquire(&lock);
        cell.write();
        lock_release(&lock);
        assert!(
            !race_reports()
                .iter()
                .any(|r| r.contains("detect.test.locked")),
            "lock-protected writes must not race"
        );
    }

    #[test]
    fn atomic_accesses_never_race() {
        let cell = std::sync::Arc::new(Cell::new("detect.test.atomic"));
        let c2 = cell.clone();
        let t = std::thread::spawn(move || c2.atomic());
        t.join().unwrap();
        cell.atomic();
        assert!(!race_reports()
            .iter()
            .any(|r| r.contains("detect.test.atomic")));
    }
}
