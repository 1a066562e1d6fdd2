//! Explicit send/recv schedules for the collective algorithms.
//!
//! Every collective the workflow runs — broadcast, gather, allgather and
//! the two allreduce paths — is described here as a *pure* per-rank plan:
//! given `(world size, root, rank)` the functions below return which
//! peers a rank talks to, in which order, and how much payload each
//! message carries. Both backends consume the same plans:
//!
//! - [`crate::comm::Communicator`] **executes** them over in-process
//!   channels (moving real payloads);
//! - [`crate::collective::SimNetComm`] **prices** them against its
//!   [`crate::collective::NetModel`] (walking the identical plan, hop by
//!   hop, with intra- vs inter-node costs).
//!
//! Because executor and pricer share one schedule source, the modelled
//! cost is the cost of the schedule that ran; `tests/alpha_beta_model.rs`
//! holds it against the α-β closed forms.
//!
//! # Algorithms
//!
//! | pattern   | [`CollectiveAlgo::Linear`]          | [`CollectiveAlgo::Log`]                   |
//! |-----------|-------------------------------------|-------------------------------------------|
//! | broadcast | root fan-out, `p-1` messages        | binomial tree, depth `⌈log₂ p⌉`           |
//! | gather    | fan-in to root, `p-1` messages      | binomial tree (mirrored), depth `⌈log₂ p⌉`|
//! | allgather | gather + broadcast (pays twice)     | Bruck dissemination, `⌈log₂ p⌉` rounds    |
//! | allreduce | ring reduce-scatter + allgather     | ring for large buffers; for small ones a  |
//! |           |                                     | Bruck allgather of the raw contributions  |
//! |           |                                     | + local reduction in canonical ring order |
//!
//! # The canonical reduction order
//!
//! Floating-point addition is not associative, so "which algorithm ran"
//! could leak into the numerics. It must not: the workflow asserts
//! bit-identical parameters across ranks, backends *and* algorithms. The
//! canonical order is the ring reduce-scatter order the transport has
//! always used — for chunk `c` (chunks of `len.div_ceil(p)` elements):
//!
//! ```text
//! acc = x_c;  acc = x_{(c+j) mod p} ⊕ acc   for j = 1 .. p-1
//! ```
//!
//! (each step reduces the *incoming* partial into the *local*
//! contribution, exactly like the ring's `reduce(dst_local, incoming)`).
//! The small-buffer log-depth allreduce gathers all raw contributions
//! and replays this exact order locally ([`reduce_in_ring_order`]), so
//! it is bit-identical to the ring by construction.

/// Which collective algorithm family a communicator world runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollectiveAlgo {
    /// Linear root fan-out/fan-in: the historical transport. O(p)
    /// messages on the root's timeline; allgather pays gather **plus**
    /// broadcast. Kept as the legacy baseline the scaling sweeps compare
    /// against.
    Linear,
    /// Log-depth schedules: binomial-tree broadcast/gather, Bruck
    /// dissemination allgather, and a size-selected allreduce (ring for
    /// large buffers, allgather-based for small ones). The default.
    Log,
}

impl CollectiveAlgo {
    /// Short label for benchmark output.
    pub fn label(&self) -> &'static str {
        match self {
            CollectiveAlgo::Linear => "linear",
            CollectiveAlgo::Log => "log",
        }
    }
}

/// Buffers at or below this size take the log-depth allreduce path under
/// [`CollectiveAlgo::Log`]; larger ones keep the bandwidth-optimal ring.
/// The selection is a pure function of `(buffer bytes, world size)`, so
/// every rank of a world picks the same path. DDP gradient buckets
/// (default 8192 f32 = 32 KiB) stay on the ring; per-iteration control
/// collectives (go/no-go scalars, loss means, radiation merges) go
/// log-depth.
pub(crate) const SMALL_ALLREDUCE_BYTES: usize = 4096;

/// One rank's role in a binomial tree rooted at `root` (broadcast runs
/// it parent→children, gather runs it children→parent).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct TreePlan {
    /// The peer one hop closer to the root (`None` at the root).
    pub parent: Option<usize>,
    /// Peers one hop further from the root, in broadcast send order
    /// (largest subtree first), each with the size in ranks of the
    /// subtree hanging off that edge.
    pub children: Vec<(usize, usize)>,
}

/// The binomial-tree plan for `rank` in a world of `size` rooted at
/// `root`. Tree depth is `⌈log₂ size⌉`; the root has `⌈log₂ size⌉`
/// children, so the root's serialized sends are the critical path.
pub(crate) fn binomial_plan(size: usize, root: usize, rank: usize) -> TreePlan {
    assert!(size > 0 && root < size && rank < size);
    let vrank = (rank + size - root) % size;
    // Parent: clear the lowest set bit of the virtual rank.
    let mut mask = 1usize;
    let mut parent_mask = 0usize;
    let mut parent = None;
    while mask < size {
        if vrank & mask != 0 {
            parent = Some(((vrank ^ mask) + root) % size);
            parent_mask = mask;
            break;
        }
        mask <<= 1;
    }
    // Children: every bit below the parent bit (the whole range for the
    // root) that lands inside the world.
    let top = if parent.is_some() {
        parent_mask
    } else {
        size.next_power_of_two()
    };
    let mut children = Vec::new();
    let mut m = top >> 1;
    while m > 0 {
        let child_v = vrank + m;
        if child_v < size {
            let subtree = m.min(size - child_v);
            children.push(((child_v + root) % size, subtree));
        }
        m >>= 1;
    }
    TreePlan { parent, children }
}

/// One round of the Bruck (dissemination) allgather.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct BruckRound {
    /// Peer this rank sends its held prefix to: `(rank - 2^k) mod p`.
    pub to: usize,
    /// Peer this rank receives from: `(rank + 2^k) mod p`.
    pub from: usize,
    /// Rank-blocks carried by the message (`min(2^k, p - 2^k)`).
    pub blocks: usize,
}

/// The `⌈log₂ size⌉` Bruck rounds for `rank`. After round `k` a rank
/// holds `min(2^{k+1}, p)` consecutive blocks starting at its own; the
/// total blocks received across rounds is exactly `p - 1`.
pub(crate) fn bruck_rounds(size: usize, rank: usize) -> Vec<BruckRound> {
    assert!(size > 0 && rank < size);
    let mut rounds = Vec::new();
    let mut dist = 1usize;
    while dist < size {
        rounds.push(BruckRound {
            to: (rank + size - dist) % size,
            from: (rank + dist) % size,
            blocks: dist.min(size - dist),
        });
        dist <<= 1;
    }
    rounds
}

/// Reduce rank-indexed full contributions into `out` in the canonical
/// ring reduce-scatter order (see the module docs): for chunk `c`,
/// `acc = x_c`, then `acc = reduce(x_{(c+j) mod p}, acc)` for
/// `j = 1..p-1`, where `reduce(dst, src)` folds `src` into `dst` exactly
/// like the ring's step does. Bit-identical to the ring allreduce for
/// any reduction closure.
pub fn reduce_in_ring_order<T, F>(contribs: &[Vec<T>], out: &mut [T], mut reduce: F)
where
    T: Copy,
    F: FnMut(&mut T, T),
{
    let p = contribs.len();
    let len = out.len();
    if p == 0 || len == 0 {
        return;
    }
    if p == 1 {
        out.copy_from_slice(&contribs[0][..len]);
        return;
    }
    let chunk = len.div_ceil(p);
    for c in 0..p {
        let s = (c * chunk).min(len);
        let e = ((c + 1) * chunk).min(len);
        for i in s..e {
            let mut acc = contribs[c][i];
            for j in 1..p {
                let mut v = contribs[(c + j) % p][i];
                reduce(&mut v, acc);
                acc = v;
            }
            out[i] = acc;
        }
    }
}

/// True when a `bytes`-sized allreduce takes the log-depth (allgather)
/// path under [`CollectiveAlgo::Log`].
pub(crate) fn allreduce_goes_log(algo: CollectiveAlgo, bytes: usize) -> bool {
    algo == CollectiveAlgo::Log && bytes <= SMALL_ALLREDUCE_BYTES
}

// ---------------------------------------------------------------------------
// Pricing events: the serialized message timeline of one rank.
// ---------------------------------------------------------------------------

/// One priced message on a rank's serialized timeline: the peer it moves
/// to/from and the payload it carries. A rank's modelled cost for a
/// collective is the sum of its events' hop costs; the world's modelled
/// cost is the per-rank maximum (the critical path), which for these
/// schedules lands on the root / is uniform across ranks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct MsgEvent {
    /// The other endpoint of the hop (send target or receive source).
    pub peer: usize,
    /// Payload bytes on the wire.
    pub bytes: u64,
}

/// Broadcast events for `rank`: its serialized sends. Linear: the root
/// fans out `p-1` messages; tree: each rank forwards to its binomial
/// children (the root's `⌈log₂ p⌉` sends are the critical path).
pub(crate) fn broadcast_events(
    algo: CollectiveAlgo,
    size: usize,
    root: usize,
    rank: usize,
    bytes: u64,
) -> Vec<MsgEvent> {
    if size <= 1 {
        return Vec::new();
    }
    match algo {
        CollectiveAlgo::Linear => {
            if rank == root {
                (0..size)
                    .filter(|&d| d != root)
                    .map(|d| MsgEvent { peer: d, bytes })
                    .collect()
            } else {
                Vec::new()
            }
        }
        CollectiveAlgo::Log => binomial_plan(size, root, rank)
            .children
            .iter()
            .map(|&(child, _)| MsgEvent { peer: child, bytes })
            .collect(),
    }
}

/// Gather events for `rank`, with `bytes` contributed per rank. The
/// receiving side serializes the fan-in, so the root's events are its
/// receives (linear: `p-1` single blocks; tree: `⌈log₂ p⌉` subtree
/// messages totalling `p-1` blocks) and a non-root rank's single event
/// is its subtree send to the parent.
pub(crate) fn gather_events(
    algo: CollectiveAlgo,
    size: usize,
    root: usize,
    rank: usize,
    bytes: u64,
) -> Vec<MsgEvent> {
    if size <= 1 {
        return Vec::new();
    }
    match algo {
        CollectiveAlgo::Linear => {
            if rank == root {
                (0..size)
                    .filter(|&s| s != root)
                    .map(|s| MsgEvent { peer: s, bytes })
                    .collect()
            } else {
                vec![MsgEvent { peer: root, bytes }]
            }
        }
        CollectiveAlgo::Log => {
            let plan = binomial_plan(size, root, rank);
            match plan.parent {
                None => plan
                    .children
                    .iter()
                    .map(|&(child, subtree)| MsgEvent {
                        peer: child,
                        bytes: bytes.saturating_mul(subtree as u64),
                    })
                    .collect(),
                Some(parent) => {
                    let subtree: usize = 1 + plan.children.iter().map(|&(_, s)| s).sum::<usize>();
                    vec![MsgEvent {
                        peer: parent,
                        bytes: bytes.saturating_mul(subtree as u64),
                    }]
                }
            }
        }
    }
}

/// Allgather events for `rank`, with `bytes` contributed per rank.
/// Linear is gather-to-0 plus broadcast-from-0 (the historical
/// double-priced path); log is the single-phase Bruck schedule —
/// `⌈log₂ p⌉` sends per rank carrying `p-1` blocks in total.
pub(crate) fn allgather_events(
    algo: CollectiveAlgo,
    size: usize,
    rank: usize,
    bytes: u64,
) -> Vec<MsgEvent> {
    if size <= 1 {
        return Vec::new();
    }
    match algo {
        CollectiveAlgo::Linear => {
            let mut ev = gather_events(algo, size, 0, rank, bytes);
            ev.extend(broadcast_events(
                algo,
                size,
                0,
                rank,
                bytes.saturating_mul(size as u64),
            ));
            ev
        }
        CollectiveAlgo::Log => bruck_rounds(size, rank)
            .into_iter()
            .map(|r| MsgEvent {
                peer: r.to,
                bytes: bytes.saturating_mul(r.blocks as u64),
            })
            .collect(),
    }
}

/// Ring-allreduce events for `rank`: `2(p-1)` chunk sends to the next
/// neighbour, with the real (remainder-absorbing) chunk bounds of an
/// `elems × elem_size` buffer — byte-exact with what the executor moves.
pub(crate) fn ring_allreduce_events(
    size: usize,
    rank: usize,
    elems: usize,
    elem_size: usize,
) -> Vec<MsgEvent> {
    if size <= 1 || elems == 0 {
        return Vec::new();
    }
    let chunk = elems.div_ceil(size);
    let bounds = |i: usize| -> u64 {
        let s = (i * chunk).min(elems);
        let e = ((i + 1) * chunk).min(elems);
        ((e - s) * elem_size) as u64
    };
    let next = (rank + 1) % size;
    let mut events = Vec::with_capacity(2 * (size - 1));
    for step in 0..size - 1 {
        events.push(MsgEvent {
            peer: next,
            bytes: bounds((rank + size - step) % size),
        });
    }
    for step in 0..size - 1 {
        events.push(MsgEvent {
            peer: next,
            bytes: bounds((rank + 1 + size - step) % size),
        });
    }
    events
}

/// Allreduce events for `rank` over an `elems × elem_size` buffer under
/// `algo` — the same path selection the executor makes: ring unless the
/// buffer is small and the algo is log-depth, in which case the cost is
/// a Bruck allgather of full contributions.
pub(crate) fn allreduce_events(
    algo: CollectiveAlgo,
    size: usize,
    rank: usize,
    elems: usize,
    elem_size: usize,
) -> Vec<MsgEvent> {
    if allreduce_goes_log(algo, elems * elem_size) {
        allgather_events(CollectiveAlgo::Log, size, rank, (elems * elem_size) as u64)
    } else {
        ring_allreduce_events(size, rank, elems, elem_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn depth(size: usize) -> usize {
        (usize::BITS - (size - 1).leading_zeros()) as usize // ⌈log₂ size⌉
    }

    #[test]
    fn binomial_tree_is_consistent_for_any_size_and_root() {
        for size in 1..=17 {
            for root in [0, size / 2, size - 1] {
                let plans: Vec<TreePlan> =
                    (0..size).map(|r| binomial_plan(size, root, r)).collect();
                // Exactly one root, and it is `root`.
                assert!(plans[root].parent.is_none());
                assert_eq!(
                    plans.iter().filter(|p| p.parent.is_none()).count(),
                    1,
                    "size {size} root {root}"
                );
                // Every child edge is mirrored by the child's parent edge.
                let mut covered = 1usize;
                for (r, plan) in plans.iter().enumerate() {
                    for &(c, subtree) in &plan.children {
                        assert_eq!(plans[c].parent, Some(r), "size {size} root {root}");
                        assert!(subtree >= 1);
                        covered += 1;
                    }
                }
                assert_eq!(covered, size, "every rank hangs off exactly one edge");
                // Subtree sizes account for every rank below each edge.
                for plan in &plans {
                    let sub: usize = plan.children.iter().map(|&(_, s)| s).sum();
                    if plan.parent.is_none() {
                        assert_eq!(sub + 1, size);
                    }
                }
                if size > 1 {
                    assert_eq!(plans[root].children.len(), depth(size), "root degree");
                }
            }
        }
    }

    #[test]
    fn bruck_rounds_cover_all_blocks() {
        for size in 1..=17 {
            for rank in 0..size {
                let rounds = bruck_rounds(size, rank);
                if size == 1 {
                    assert!(rounds.is_empty());
                    continue;
                }
                assert_eq!(rounds.len(), depth(size));
                let total: usize = rounds.iter().map(|r| r.blocks).sum();
                assert_eq!(total, size - 1, "size {size} rank {rank}");
            }
        }
    }

    #[test]
    fn ring_order_reduction_matches_a_hand_trace() {
        // p = 3, len = 3 (one element per chunk): chunk c is reduced as
        // x_{c+2} + (x_{c+1} + x_c) (indices mod 3).
        let contribs = vec![
            vec![1.0f64, 10.0, 100.0],
            vec![2.0, 20.0, 200.0],
            vec![4.0, 40.0, 400.0],
        ];
        let mut out = vec![0.0; 3];
        reduce_in_ring_order(&contribs, &mut out, |a, b| *a += b);
        assert_eq!(out, vec![7.0, 70.0, 700.0]);
    }

    #[test]
    fn log_events_have_log_depth_linear_events_do_not() {
        for p in [16usize, 64] {
            let root_lin = broadcast_events(CollectiveAlgo::Linear, p, 0, 0, 0).len();
            let root_log = broadcast_events(CollectiveAlgo::Log, p, 0, 0, 0).len();
            assert_eq!(root_lin, p - 1);
            assert_eq!(root_log, depth(p));
            let ag_log = allgather_events(CollectiveAlgo::Log, p, 3, 8);
            assert_eq!(ag_log.len(), depth(p));
            let wire: u64 = ag_log.iter().map(|e| e.bytes).sum();
            assert_eq!(wire, 8 * (p as u64 - 1), "Bruck moves each block once");
            // The linear allgather pays the payload twice (gather + bcast).
            let ag_lin = allgather_events(CollectiveAlgo::Linear, p, 0, 8);
            let wire_lin: u64 = ag_lin.iter().map(|e| e.bytes).sum();
            assert!(wire_lin > 2 * 8 * (p as u64 - 1) / 2);
        }
    }

    #[test]
    fn ring_events_match_the_alpha_beta_ring_model() {
        // len divisible by p: per-rank wire bytes = 2(p-1)/p · buffer.
        let (p, elems, esz) = (8usize, 64usize, 4usize);
        let ev = ring_allreduce_events(p, 5, elems, esz);
        assert_eq!(ev.len(), 2 * (p - 1));
        let wire: u64 = ev.iter().map(|e| e.bytes).sum();
        assert_eq!(wire, (2 * (p - 1) * elems * esz / p) as u64);
    }

    #[test]
    fn allreduce_path_selection_is_size_driven() {
        assert!(allreduce_goes_log(CollectiveAlgo::Log, 48));
        assert!(!allreduce_goes_log(CollectiveAlgo::Log, 32 * 1024));
        assert!(!allreduce_goes_log(CollectiveAlgo::Linear, 48));
    }
}
