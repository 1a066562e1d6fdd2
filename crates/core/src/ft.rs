//! Fault-tolerant collectives for the degradable learner group.
//!
//! [`FtComm`] wraps any [`Collective`] endpoint with timeout-bounded,
//! membership-aware operations built from the transport's raw tagged
//! `send`/`try_recv_timeout` primitives (tags live in the reserved
//! `FT_TAG_BASE` block, so they can never collide with application or
//! overlap-worker traffic):
//!
//! - [`FtComm::exchange`] — every live rank contributes a value and
//!   receives the contributions of every peer that answered within the
//!   death budget, keyed by rank. The **key set is the agreed
//!   membership** for the round: deaths are injected at window
//!   boundaries *before* the dying rank sends anything, and a dying rank
//!   marks itself dead on the shared world first, so either every
//!   survivor gets its message or none does.
//! - [`FtComm::allreduce_sum`] — exchange + [`reduce_in_ring_order`]
//!   over the rank-ascending contributions. When every rank is alive
//!   this is **bit-identical** to the legacy blocking all-reduce (which
//!   replays the same canonical ring order), which is what lets a faulted
//!   run be compared hash-for-hash against an unfaulted reference.
//! - `FtComm::elect_broadcast` — broadcast rooted at the lowest live
//!   rank, with automatic re-election if the root dies before sending
//!   (the `DropSteps` window-target gate after rank 0's death).
//!
//! [`LearnerGroup`] is the strategy the consumer driver is written
//! against: the plain blocking collectives for a fixed group, or the
//! [`FtComm`] operations for a degradable one — the single place the two
//! learners differ.
//!
//! A peer that stays silent past `retry_budget × op_timeout` retries is
//! declared dead ([`Collective::mark_dead`]) and excluded from every
//! later round — detection is bounded, never a hang. Message chaos
//! (drop/delay/duplicate from [`as_cluster::comm::FaultInjector`]) only
//! *delays* traffic, so budgets merely need to exceed the worst injected
//! delay.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::time::Duration;

use as_cluster::algos::reduce_in_ring_order;
use as_cluster::collective::Collective;
use as_cluster::comm::FT_TAG_BASE;
use as_nn::ddp::{sync_gradients_bucketed, sync_gradients_with, OverlappedGradSync};
use as_nn::model::ArtificialScientistModel;

use crate::faults::FaultPlan;

/// Timeout-bounded, membership-aware collective operations over a
/// tolerant [`Collective`] world (see module docs).
pub(crate) struct FtComm<'a, C: Collective> {
    comm: &'a C,
    tick: Duration,
    /// Total silence budget before a peer is declared dead.
    budget: Duration,
    /// Monotone per-endpoint operation counter; never reset, so every
    /// logical operation owns a unique tag on every rank.
    op_seq: Cell<u64>,
    /// Wall seconds spent waiting on peers that ended up condemned —
    /// the detection cost of every death this endpoint witnessed.
    condemn_wait: Cell<f64>,
}

impl<'a, C: Collective> FtComm<'a, C> {
    /// Wrap an endpoint with the plan's detection budgets.
    pub(crate) fn new(comm: &'a C, plan: &FaultPlan) -> Self {
        Self {
            comm,
            tick: Duration::from_millis(plan.tick_ms.max(1)),
            budget: Duration::from_millis(plan.death_budget_ms().max(1)),
            op_seq: Cell::new(0),
            condemn_wait: Cell::new(0.0),
        }
    }

    /// Wall seconds this endpoint spent detecting peer deaths (waiting
    /// out budgets on peers that were then condemned).
    pub(crate) fn condemned_wait_seconds(&self) -> f64 {
        self.condemn_wait.get()
    }

    /// Ranks currently believed alive, ascending.
    pub(crate) fn alive_ranks(&self) -> Vec<usize> {
        let mask = self.comm.alive_mask();
        (0..self.comm.size())
            .filter(|&r| mask & (1 << r) != 0)
            .collect()
    }

    fn next_tag(&self) -> u64 {
        let seq = self.op_seq.get();
        self.op_seq.set(seq + 1);
        FT_TAG_BASE + seq
    }

    /// Wait for one message from `peer` on `tag` within the death
    /// budget; `None` declares the peer dead (and marks it so).
    fn recv_or_condemn<T: Send + 'static>(&self, peer: usize, tag: u64) -> Option<T> {
        let start = std::time::Instant::now();
        let mut waited = Duration::ZERO;
        loop {
            match self.comm.try_recv_timeout::<T>(peer, tag, self.tick) {
                Ok(Some(v)) => return Some(v),
                Ok(None) => {
                    waited += self.tick;
                    if waited >= self.budget {
                        self.comm.mark_dead(peer);
                        self.condemn_wait
                            .set(self.condemn_wait.get() + start.elapsed().as_secs_f64());
                        return None;
                    }
                }
                // Disconnected or already condemned: no retry can help.
                Err(_) => {
                    self.comm.mark_dead(peer);
                    self.condemn_wait
                        .set(self.condemn_wait.get() + start.elapsed().as_secs_f64());
                    return None;
                }
            }
        }
    }

    /// All-to-all contribution exchange. Returns every answering rank's
    /// value keyed by rank (self included) — the agreed membership for
    /// this round.
    pub(crate) fn exchange<T: Clone + Send + 'static>(&self, value: T) -> BTreeMap<usize, T> {
        let tag = self.next_tag();
        let me = self.comm.rank();
        for peer in 0..self.comm.size() {
            if peer != me && !self.comm.is_rank_dead(peer) {
                self.comm.send(peer, tag, value.clone());
            }
        }
        let mut out = BTreeMap::new();
        out.insert(me, value);
        for peer in 0..self.comm.size() {
            if peer == me || self.comm.is_rank_dead(peer) {
                continue;
            }
            if let Some(v) = self.recv_or_condemn::<T>(peer, tag) {
                out.insert(peer, v);
            }
        }
        out
    }

    /// Membership probe: exchange nothing, return who answered.
    pub(crate) fn members(&self) -> Vec<usize> {
        self.exchange(0u8).into_keys().collect()
    }

    /// Fault-tolerant element-wise sum over all live ranks, reduced in
    /// the canonical ring order (bit-identical to the legacy blocking
    /// all-reduce when every rank is alive). Returns the number of
    /// contributions summed.
    pub(crate) fn allreduce_sum<T>(&self, buf: &mut [T]) -> usize
    where
        T: Copy + Send + std::ops::AddAssign + 'static,
    {
        let contribs: Vec<Vec<T>> = self.exchange(buf.to_vec()).into_values().collect();
        reduce_in_ring_order(&contribs, buf, |a, b| *a += b);
        contribs.len()
    }

    /// Broadcast rooted at the lowest live rank. Only the elected root
    /// evaluates `make`; if the root dies before sending, the survivors
    /// re-elect and retry on the same tag (re-election never splits the
    /// tag space, so a late joiner of the round still pairs up).
    pub(crate) fn elect_broadcast<T, F>(&self, mut make: F) -> (usize, T)
    where
        T: Clone + Send + 'static,
        F: FnMut() -> T,
    {
        let tag = self.next_tag();
        let me = self.comm.rank();
        loop {
            let root = *self
                .alive_ranks()
                .first()
                .unwrap_or_else(|| panic!("at least this rank must be alive"));
            if root == me {
                let v = make();
                for peer in 0..self.comm.size() {
                    if peer != me && !self.comm.is_rank_dead(peer) {
                        self.comm.send(peer, tag, v.clone());
                    }
                }
                return (root, v);
            }
            if let Some(v) = self.recv_or_condemn::<T>(root, tag) {
                return (root, v);
            }
            // Root condemned — loop re-elects (possibly electing self).
        }
    }

    /// Broadcast from a known live `owner` (agreed upon by every member
    /// this round, e.g. the window owner). The owner passes
    /// `Some(value)`, every other member `None`; members that cannot
    /// hear a dying owner get `None` back.
    pub(crate) fn broadcast_from<T: Clone + Send + 'static>(
        &self,
        owner: usize,
        value: Option<T>,
    ) -> Option<T> {
        let tag = self.next_tag();
        let me = self.comm.rank();
        if me == owner {
            let v = value.unwrap_or_else(|| panic!("owner must provide the broadcast value"));
            for peer in 0..self.comm.size() {
                if peer != me && !self.comm.is_rank_dead(peer) {
                    self.comm.send(peer, tag, v.clone());
                }
            }
            Some(v)
        } else {
            self.recv_or_condemn::<T>(owner, tag)
        }
    }
}

/// How one learner rank runs its group's collectives — the **only** place
/// the fixed-membership learner and the fault-tolerant one differ. The
/// consumer driver ([`crate::consumer::run_consumer`]) is written once
/// against these operations and picks the variant from
/// [`FaultPlan::active`]:
///
/// | operation | [`LearnerGroup::Static`] | [`LearnerGroup::Ft`] |
/// |---|---|---|
/// | [`members`](Self::members) | `0..K`, no communication | [`FtComm::members`] exchange |
/// | `elect_broadcast` | rank-0 `broadcast` | lowest live rank, re-elected on death |
/// | `broadcast_from` | `broadcast` | `FtComm::broadcast_from` |
/// | [`allreduce_sum`](Self::allreduce_sum) | `allreduce_sum_f64` | [`FtComm::allreduce_sum`] |
/// | gradient sync | bucketed all-reduce, or the overlapped comm-worker | same buckets through [`FtComm::allreduce_sum`] |
/// | [`allgather`](Self::allgather) | `allgather` | [`FtComm::exchange`] |
/// | `snapshot_meta` | root `broadcast` | none (the membership round already aligns the group) |
///
/// While every rank is alive the two variants produce bit-identical
/// results (both reduce in the canonical ring order).
pub(crate) enum LearnerGroup<'a, C: Collective> {
    /// Fixed membership over the plain blocking [`Collective`] ops.
    Static {
        /// The learner group's main world.
        comm: &'a C,
        /// Non-blocking bucket reduction over a dedicated gradient world
        /// ([`OverlappedGradSync`]); `None` reduces in line on `comm`.
        overlap: Option<OverlappedGradSync<C>>,
    },
    /// Degradable membership: every operation goes through [`FtComm`].
    Ft(FtComm<'a, C>),
}

impl<'a, C: Collective> LearnerGroup<'a, C> {
    fn comm(&self) -> &'a C {
        match self {
            Self::Static { comm, .. } => comm,
            Self::Ft(ft) => ft.comm,
        }
    }

    /// The agreed live members for this window, ascending.
    pub(crate) fn members(&self) -> Vec<usize> {
        match self {
            Self::Static { comm, .. } => (0..comm.size()).collect(),
            Self::Ft(ft) => ft.members(),
        }
    }

    /// Broadcast from the group's root; only the root evaluates `make`.
    pub(crate) fn elect_broadcast<T, F>(&self, mut make: F) -> T
    where
        T: Clone + Send + 'static,
        F: FnMut() -> T,
    {
        match self {
            Self::Static { comm, .. } => {
                let value = (comm.rank() == 0).then(&mut make);
                comm.broadcast(0, value)
            }
            Self::Ft(ft) => ft.elect_broadcast(make).1,
        }
    }

    /// Broadcast from a known live `owner` (who passes `Some`); `None`
    /// comes back only when a dying owner could not be heard.
    pub(crate) fn broadcast_from<T: Clone + Send + 'static>(
        &self,
        owner: usize,
        value: Option<T>,
    ) -> Option<T> {
        match self {
            Self::Static { comm, .. } => Some(comm.broadcast(owner, value)),
            Self::Ft(ft) => ft.broadcast_from(owner, value),
        }
    }

    /// Element-wise sum over the live members; returns how many
    /// contributions were summed.
    pub(crate) fn allreduce_sum(&self, buf: &mut [f64]) -> usize {
        match self {
            Self::Static { comm, .. } => {
                comm.allreduce_sum_f64(buf);
                comm.size()
            }
            Self::Ft(ft) => ft.allreduce_sum(buf),
        }
    }

    /// Start averaging the model's gradients over the live members in
    /// `bucket_elems`-sized buckets. Only the overlapped mode returns
    /// before the reduction is done — the caller may run other
    /// collectives on the main world until
    /// [`finish_grad_sync`](Self::finish_grad_sync). A one-rank world has
    /// nothing to average and skips the flatten/write-back entirely.
    pub(crate) fn begin_grad_sync(
        &mut self,
        model: &mut ArtificialScientistModel,
        bucket_elems: usize,
    ) {
        if self.comm().size() == 1 {
            return;
        }
        match self {
            Self::Static {
                overlap: Some(sync),
                ..
            } => sync.begin(model, bucket_elems),
            Self::Static { comm, .. } => sync_gradients_bucketed(*comm, model, bucket_elems),
            Self::Ft(ft) => sync_gradients_with(model, bucket_elems, |b| ft.allreduce_sum(b)),
        }
    }

    /// Wait for the reduction begun by
    /// [`begin_grad_sync`](Self::begin_grad_sync) and write the averaged
    /// gradients back (a no-op outside the overlapped mode).
    pub(crate) fn finish_grad_sync(&mut self, model: &mut ArtificialScientistModel) {
        if let Self::Static {
            overlap: Some(sync),
            ..
        } = self
        {
            sync.wait_all(model);
        }
    }

    /// Every live member's `value`, rank-ascending.
    pub(crate) fn allgather<T: Clone + Send + 'static>(&self, value: T) -> Vec<T> {
        match self {
            Self::Static { comm, .. } => comm.allgather(value),
            Self::Ft(ft) => ft.exchange(value).into_values().collect(),
        }
    }

    /// Snapshot-publication metadata: the root passes
    /// `Some((version, param_hash))`; peers get the root's pair back to
    /// check against their own parameters, or `None` where the group
    /// does not broadcast it.
    pub(crate) fn snapshot_meta(
        &self,
        root: usize,
        meta: Option<(u64, u64)>,
    ) -> Option<(u64, u64)> {
        match self {
            Self::Static { comm, .. } => Some(comm.broadcast(root, meta)),
            Self::Ft(_) => meta,
        }
    }

    /// Wall seconds spent waiting out death budgets on condemned peers.
    pub(crate) fn condemned_wait_seconds(&self) -> f64 {
        match self {
            Self::Static { .. } => 0.0,
            Self::Ft(ft) => ft.condemned_wait_seconds(),
        }
    }

    /// `(payload bytes, messages, modelled seconds)` the group's worlds
    /// have moved so far — the main world plus, in overlapped mode, the
    /// dedicated gradient world.
    pub(crate) fn traffic(&self) -> (u64, u64, f64) {
        let comm = self.comm();
        let mut t = (
            comm.world_bytes_sent(),
            comm.world_messages_sent(),
            comm.modelled_comm_seconds(),
        );
        if let Self::Static {
            overlap: Some(sync),
            ..
        } = self
        {
            t.0 += sync.world_bytes_sent();
            t.1 += sync.world_messages_sent();
            t.2 += sync.modelled_comm_seconds();
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use as_cluster::algos::CollectiveAlgo;
    use as_cluster::collective::SoloComm;
    use as_cluster::comm::{CommFaults, CommWorld};

    fn plan() -> FaultPlan {
        FaultPlan {
            op_timeout_ms: 20,
            tick_ms: 1,
            retry_budget: 4,
            ..FaultPlan::default()
        }
    }

    fn armed_world(n: usize) -> Vec<impl Collective> {
        CommWorld::with_faults(n, CollectiveAlgo::Linear, CommFaults::none(7)).into_endpoints()
    }

    #[test]
    fn exchange_agrees_and_sums_like_the_ring() {
        let eps = armed_world(3);
        let handles: Vec<_> = eps
            .into_iter()
            .map(|c| {
                std::thread::spawn(move || {
                    let p = plan();
                    let ft = FtComm::new(&c, &p);
                    let rank = c.rank();
                    let got = ft.exchange(vec![rank as f64; 2]);
                    assert_eq!(got.keys().copied().collect::<Vec<_>>(), vec![0, 1, 2]);
                    // FT sum must equal the legacy blocking allreduce bitwise.
                    let mut ours = vec![rank as f64, 1.0];
                    let n = ft.allreduce_sum(&mut ours);
                    assert_eq!(n, 3);
                    let mut legacy = vec![rank as f64, 1.0];
                    c.allreduce_sum_f64(&mut legacy);
                    assert_eq!(ours[0].to_bits(), legacy[0].to_bits());
                    assert_eq!(ours[1].to_bits(), legacy[1].to_bits());
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn ft_comm_over_a_solo_world_is_the_identity() {
        let c = SoloComm;
        let p = plan();
        let ft = FtComm::new(&c, &p);
        assert_eq!(ft.members(), vec![0]);
        assert_eq!(
            ft.exchange(5u64).into_iter().collect::<Vec<_>>(),
            vec![(0, 5)]
        );
        let mut buf = [1.25f64, -3.0];
        assert_eq!(ft.allreduce_sum(&mut buf), 1);
        assert_eq!(buf, [1.25, -3.0]);
        let mut calls = 0;
        let (root, v) = ft.elect_broadcast(|| {
            calls += 1;
            42u8
        });
        assert_eq!((root, v, calls), (0, 42, 1), "root 0 evaluates make once");
        assert_eq!(ft.broadcast_from(0, Some("w")), Some("w"));
        assert_eq!(ft.condemned_wait_seconds(), 0.0);
        assert_eq!(c.world_bytes_sent(), 0);
        assert_eq!(c.world_messages_sent(), 0);
        assert_eq!(c.modelled_comm_seconds(), 0.0);
    }

    #[test]
    fn silent_rank_is_condemned_and_excluded_from_later_rounds() {
        let mut eps = armed_world(3);
        let dead = eps.remove(2);
        let handles: Vec<_> = eps
            .into_iter()
            .map(|c| {
                std::thread::spawn(move || {
                    let p = plan();
                    let ft = FtComm::new(&c, &p);
                    // Rank 2 never participates: the first round times
                    // out on it, later rounds skip it instantly.
                    let got = ft.exchange(1u64);
                    assert_eq!(got.keys().copied().collect::<Vec<_>>(), vec![0, 1]);
                    assert!(c.is_rank_dead(2));
                    let again = ft.members();
                    assert_eq!(again, vec![0, 1]);
                    let mut sum = vec![1.0f64];
                    assert_eq!(ft.allreduce_sum(&mut sum), 2);
                    assert_eq!(sum[0], 2.0);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        drop(dead);
    }

    #[test]
    fn dead_root_triggers_re_election() {
        let mut eps = armed_world(3);
        let rank0 = eps.remove(0);
        // Rank 0 marks itself dead (the DeathGuard path) and vanishes.
        rank0.mark_dead(0);
        drop(rank0);
        let handles: Vec<_> = eps
            .into_iter()
            .map(|c| {
                std::thread::spawn(move || {
                    let p = plan();
                    let ft = FtComm::new(&c, &p);
                    let me = c.rank();
                    let (root, v) = ft.elect_broadcast(|| me as u64);
                    assert_eq!(root, 1);
                    assert_eq!(v, 1);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }
}
