//! Data planes: how efficiently a staging fetch uses the fabric.
//!
//! §IV-B: *"the SST engine implements different network transport
//! technologies (data planes), including TCP (non-scalable fallback),
//! libfabric, ucx and the `MPI_Open_port()` API of MPI."* The benchmark
//! compares the libfabric plane (lower-level, needs manual tuning; the
//! enqueue-all-reads variant peaked at 4096 nodes but failed to scale,
//! the batch-of-10 variant scaled at reduced per-node throughput) with the
//! MPI plane (default good performance from the MPI library's tuning).
//!
//! In-process the engine moves real bytes either way. A plane is not a
//! cost model of its own: it is data — an efficiency and a per-op
//! latency — applied to the [`NetModel`] hop from each block's writer to
//! its reader ([`DataPlane::fetch_seconds`]), so placement decides whether
//! a block crosses the fabric or stays on the node.

use as_cluster::collective::NetModel;
use as_cluster::machine::FRONTIER;

/// The fabric §IV-B measures one node's reader on, and the one
/// [`crate::engine::open_stream`] prices against: Frontier's hop latency
/// and one 25 GB/s Slingshot NIC per flow, every rank on its own node.
pub fn frontier_nic() -> NetModel {
    NetModel::uniform(FRONTIER.net_latency, FRONTIER.nic_bandwidth, 0.0)
}

/// Read-request scheduling strategy of the libfabric plane (§IV-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadStrategy {
    /// Enqueue all read operations at once and wait for replies — best
    /// per-node throughput, does not survive full scale.
    EnqueueAll,
    /// Enqueue in batches of `n` operations — scales, at a throughput cost.
    Batched(usize),
}

/// A data plane: the §IV-B efficiency and per-op latency of a transport.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DataPlane {
    /// TCP fallback: high latency, low bandwidth, always works.
    Tcp,
    /// MPI plane over `MPI_Open_port`: the implementation's collective
    /// tuning gives "default good performance".
    Mpi,
    /// libfabric/CXI plane with an explicit read strategy.
    Libfabric(ReadStrategy),
}

impl DataPlane {
    /// Achievable fraction of a hop's bandwidth for one reader.
    ///
    /// Calibrated against the §IV-B per-node numbers on
    /// [`frontier_nic`] (one 25 GB/s NIC):
    /// - libfabric enqueue-all: 3.5–4.7 GB/s → ~16 % of line rate
    /// - libfabric batch-10:    1.9–2.6 GB/s → ~9 %
    /// - MPI:                   2.4–3.7 GB/s → ~12 %
    /// - TCP:                   ~2 % (fallback)
    pub(crate) fn efficiency(&self) -> f64 {
        match self {
            DataPlane::Tcp => 0.02,
            DataPlane::Mpi => 0.125,
            DataPlane::Libfabric(ReadStrategy::EnqueueAll) => 0.165,
            DataPlane::Libfabric(ReadStrategy::Batched(n)) => {
                // Batching adds a per-batch round-trip bubble; deeper
                // batches close the gap towards enqueue-all.
                let n = (*n).max(1) as f64;
                0.165 * (n / (n + 8.0))
            }
        }
    }

    /// Per-read-operation latency in seconds (control-plane round trip).
    pub(crate) fn op_latency(&self) -> f64 {
        match self {
            DataPlane::Tcp => 100e-6,
            DataPlane::Mpi => 8e-6,
            DataPlane::Libfabric(_) => 3e-6,
        }
    }

    /// Does this configuration survive at `nodes` nodes?
    ///
    /// The enqueue-all strategy posts O(outstanding-reads × nodes)
    /// operations to the fabric at once; beyond ~half of Frontier the
    /// paper observed it failing to scale (an obvious outlier was removed
    /// at 8192 nodes and no full-scale result exists).
    pub fn scales_to(&self, nodes: usize) -> bool {
        match self {
            DataPlane::Libfabric(ReadStrategy::EnqueueAll) => nodes <= 4096,
            _ => true,
        }
    }

    /// Modelled seconds for `reader` to fetch `blocks`, each a
    /// `(writer rank, wire bytes)` pair, over `net`: every block is one
    /// [`NetModel::hop_seconds`] hop from its writer at this plane's
    /// efficiency, and every read operation (one per block) and every
    /// batch of them pays the plane's per-op latency.
    pub fn fetch_seconds(
        &self,
        net: &NetModel,
        reader: usize,
        blocks: impl IntoIterator<Item = (usize, u64)>,
    ) -> f64 {
        let (mut hops, mut ops) = (0.0, 0usize);
        for (writer, bytes) in blocks {
            hops += net.hop_seconds(writer, reader, bytes, self.efficiency());
            ops += 1;
        }
        let batches = match self {
            DataPlane::Libfabric(ReadStrategy::Batched(n)) => ops.div_ceil((*n).max(1)),
            _ => 1,
        };
        hops + self.op_latency() * (ops + batches) as f64
    }

    /// Display label matching the paper's figure legends.
    pub fn label(&self) -> String {
        match self {
            DataPlane::Tcp => "tcp".into(),
            DataPlane::Mpi => "mpi".into(),
            DataPlane::Libfabric(ReadStrategy::EnqueueAll) => "libfabric (enqueue all)".into(),
            DataPlane::Libfabric(ReadStrategy::Batched(n)) => format!("libfabric (batch {n})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Seconds for reader rank 64 to pull `bytes` in 64 equal blocks, one
    /// from each of writers 0..64, over one Frontier NIC.
    fn node_fetch_seconds(plane: DataPlane, bytes: f64) -> f64 {
        let block = (bytes / 64.0) as u64;
        plane.fetch_seconds(&frontier_nic(), 64, (0..64).map(|w| (w, block)))
    }

    #[test]
    fn per_node_rates_match_paper_ranges() {
        // §IV-B per-node throughputs at 4096 nodes.
        let gb = 5.86e9; // bytes per node per step
        let rate = |p: DataPlane| gb / node_fetch_seconds(p, gb) / 1e9;
        let lf_all = rate(DataPlane::Libfabric(ReadStrategy::EnqueueAll));
        assert!((3.5..4.7).contains(&lf_all), "enqueue-all {lf_all} GB/s");
        let lf_b10 = rate(DataPlane::Libfabric(ReadStrategy::Batched(10)));
        assert!((1.9..2.6).contains(&lf_b10), "batch-10 {lf_b10} GB/s");
        let mpi = rate(DataPlane::Mpi);
        assert!((2.4..3.7).contains(&mpi), "mpi {mpi} GB/s");
    }

    #[test]
    fn enqueue_all_fails_past_half_frontier() {
        let p = DataPlane::Libfabric(ReadStrategy::EnqueueAll);
        assert!(p.scales_to(4096));
        assert!(!p.scales_to(8192));
        assert!(DataPlane::Mpi.scales_to(9126));
        assert!(DataPlane::Libfabric(ReadStrategy::Batched(10)).scales_to(9126));
    }

    #[test]
    fn deeper_batches_improve_throughput() {
        let b2 = node_fetch_seconds(DataPlane::Libfabric(ReadStrategy::Batched(2)), 1e9);
        let b10 = node_fetch_seconds(DataPlane::Libfabric(ReadStrategy::Batched(10)), 1e9);
        let all = node_fetch_seconds(DataPlane::Libfabric(ReadStrategy::EnqueueAll), 1e9);
        assert!(b2 > b10 && b10 > all);
    }

    #[test]
    fn tcp_is_the_slow_fallback() {
        let t = node_fetch_seconds(DataPlane::Tcp, 1e9);
        let m = node_fetch_seconds(DataPlane::Mpi, 1e9);
        assert!(t > 4.0 * m);
    }

    #[test]
    fn labels_are_distinct() {
        let labels: Vec<String> = [
            DataPlane::Tcp,
            DataPlane::Mpi,
            DataPlane::Libfabric(ReadStrategy::EnqueueAll),
            DataPlane::Libfabric(ReadStrategy::Batched(10)),
        ]
        .iter()
        .map(|p| p.label())
        .collect();
        let unique: std::collections::HashSet<_> = labels.iter().collect();
        assert_eq!(unique.len(), labels.len());
    }
}
