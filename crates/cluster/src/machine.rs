//! Machine constants for the systems the paper measures on.
//!
//! All values come from the paper itself or the public system documentation
//! it cites: Frontier compute nodes carry 4 AMD MI250X (8 GCDs) and four
//! 25 GB/s Slingshot NICs; the Orion parallel filesystem sustains ~10 TB/s;
//! the node-local SSDs aggregate to ~35 TB/s across the system.

/// Static description of a machine used by the scaling models.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineSpec {
    /// Human-readable machine name.
    pub name: &'static str,
    /// Total number of compute nodes in the system.
    pub total_nodes: usize,
    /// Independently schedulable accelerator devices per node
    /// (GCDs on Frontier: 2 per MI250X, 8 per node).
    pub gpus_per_node: usize,
    /// Injection bandwidth per NIC, bytes/second.
    pub nic_bandwidth: f64,
    /// Number of NICs per node.
    pub nics_per_node: usize,
    /// Small-message network latency, seconds (per hop, approximate).
    pub net_latency: f64,
    /// Small-message latency between devices of the same node (Infinity
    /// Fabric / NVLink hop), seconds — approximate, well below the NIC
    /// latency, which is what makes intra-node collective hops cheap.
    pub intra_node_latency: f64,
    /// Aggregate parallel-filesystem write bandwidth, bytes/second.
    pub pfs_bandwidth: f64,
    /// Aggregate node-local SSD write bandwidth (whole system), bytes/second.
    pub node_ssd_bandwidth: f64,
    /// Intra-node link bandwidth between devices (Infinity Fabric / NVLink),
    /// bytes/second per direction.
    pub intra_node_bandwidth: f64,
    /// Fraction of total injection bandwidth usable through the global
    /// fabric bisection (dragonfly-style tapering).
    pub bisection_fraction: f64,
}

impl MachineSpec {
    /// Total injection bandwidth of `nodes` nodes, bytes/second.
    pub(crate) fn injection_bandwidth(&self, nodes: usize) -> f64 {
        nodes as f64 * self.nics_per_node as f64 * self.nic_bandwidth
    }

    /// Usable global bisection bandwidth for `nodes` nodes, bytes/second.
    pub(crate) fn bisection_bandwidth(&self, nodes: usize) -> f64 {
        self.injection_bandwidth(nodes) * self.bisection_fraction
    }
}

/// ORNL Frontier (Top-1, June 2024 Top500 — the paper's primary system).
pub const FRONTIER: MachineSpec = MachineSpec {
    name: "Frontier",
    total_nodes: 9408,
    gpus_per_node: 8,
    nic_bandwidth: 25.0e9,
    nics_per_node: 4,
    net_latency: 2.0e-6,
    intra_node_latency: 0.7e-6,
    pfs_bandwidth: 10.0e12,
    node_ssd_bandwidth: 35.0e12,
    intra_node_bandwidth: 50.0e9,
    bisection_fraction: 0.30,
};

/// ORNL Summit (the paper's 2019 baseline FOM system).
pub const SUMMIT: MachineSpec = MachineSpec {
    name: "Summit",
    total_nodes: 4608,
    gpus_per_node: 6,
    nic_bandwidth: 12.5e9,
    nics_per_node: 2,
    net_latency: 1.5e-6,
    intra_node_latency: 0.8e-6,
    pfs_bandwidth: 2.5e12,
    node_ssd_bandwidth: 7.4e12,
    intra_node_bandwidth: 25.0e9,
    bisection_fraction: 0.50,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frontier_matches_paper_constants() {
        // §IV-B: "max possible throughput of a single HPE Slingshot NIC at
        // 25 GB/s"; §IV-B: Orion ~10 TB/s; local SSDs 35 TB/s aggregate.
        assert_eq!(FRONTIER.nic_bandwidth, 25.0e9);
        assert_eq!(FRONTIER.pfs_bandwidth, 10.0e12);
        assert_eq!(FRONTIER.node_ssd_bandwidth, 35.0e12);
        // §IV-A: 36 864 GPUs across 9216 nodes → 4 GPUs = 8 GCDs per node.
        let gcds = 9216 * FRONTIER.gpus_per_node;
        let expect = 36_864usize * 2;
        assert_eq!(gcds, expect);
        assert_eq!(FRONTIER.gpus_per_node, 8);
    }

    #[test]
    fn injection_bandwidth_scales_linearly() {
        let one = FRONTIER.injection_bandwidth(1);
        assert_eq!(one, 100.0e9);
        assert_eq!(FRONTIER.injection_bandwidth(100), 100.0 * one);
    }

    #[test]
    fn bisection_below_injection() {
        for nodes in [16usize, 1024, 9408] {
            assert!(FRONTIER.bisection_bandwidth(nodes) < FRONTIER.injection_bandwidth(nodes));
        }
    }

    #[test]
    fn intra_node_hops_are_cheaper_than_the_fabric() {
        for m in [FRONTIER, SUMMIT] {
            assert!(m.intra_node_latency < m.net_latency, "{}", m.name);
            assert!(
                m.intra_node_bandwidth >= m.nic_bandwidth,
                "{}: device links beat one NIC",
                m.name
            );
        }
    }

    #[test]
    fn summit_is_smaller_than_frontier() {
        assert!(SUMMIT.injection_bandwidth(4608) < FRONTIER.injection_bandwidth(9408));
        let (s, f) = (SUMMIT.pfs_bandwidth, FRONTIER.pfs_bandwidth);
        assert!(s < f);
    }
}
