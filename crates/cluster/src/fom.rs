//! Weak-scaling Figure-of-Merit model (Fig. 4).
//!
//! PIConGPU's FOM is the weighted sum of particle updates per second (90 %)
//! and cell updates per second (10 %). The paper reports 65.3 TeraUpdates/s
//! on full Frontier (36 864 GPUs, 9216 nodes) vs 14.7 TeraUpdates/s on
//! Summit. Weak scaling is nearly flat because PIC communication is
//! nearest-neighbour halo exchange; the residual droop comes from halo
//! volume and the per-step global synchronisation (diagnostics reductions).
//!
//! The model here produces the Fig. 4 series: calibrate the per-device
//! update rate either from the paper's full-system endpoint or from a real
//! measured rate of our own CPU PIC, then evaluate FOM at any node count.

use crate::machine::MachineSpec;

/// Analytic weak-scaling model for the PIC Figure of Merit.
#[derive(Debug, Clone)]
pub struct FomModel {
    /// Machine constants (latency enters the sync term).
    pub spec: MachineSpec,
    /// Devices per node as the paper counts them (4 MI250X on Frontier,
    /// 6 V100 on Summit) — *not* GCDs.
    pub devices_per_node: usize,
    /// Particle updates per second per device at perfect efficiency.
    pub device_particle_rate: f64,
    /// Macro-particles per cell of the workload (TWEAC-FOM ≈ 27).
    pub particles_per_cell: f64,
    /// Fraction of a step spent on nearest-neighbour halo exchange at any
    /// scale > 1 node (weak scaling ⇒ constant halo volume per rank).
    pub halo_overhead: f64,
    /// Per-step global synchronisation cost in units of compute-step time,
    /// multiplied by log2(nodes) (reduction trees for diagnostics).
    pub sync_overhead_per_log_node: f64,
}

impl FomModel {
    /// Model with overheads representative of PIConGPU (≈96 % efficiency at
    /// full Frontier) and a device rate to be calibrated.
    pub(crate) fn new(spec: MachineSpec, devices_per_node: usize, particles_per_cell: f64) -> Self {
        Self {
            spec,
            devices_per_node,
            device_particle_rate: 1.0,
            particles_per_cell,
            halo_overhead: 0.025,
            sync_overhead_per_log_node: 0.0012,
        }
    }

    /// Parallel efficiency at `nodes` nodes (1.0 on a single node).
    pub fn efficiency(&self, nodes: usize) -> f64 {
        if nodes <= 1 {
            return 1.0;
        }
        let sync = self.sync_overhead_per_log_node * (nodes as f64).log2();
        1.0 / (1.0 + self.halo_overhead + sync)
    }

    /// FOM (weighted updates/second) at `nodes` nodes.
    pub fn fom(&self, nodes: usize) -> f64 {
        let devices = (nodes * self.devices_per_node) as f64;
        let particle_rate = devices * self.device_particle_rate * self.efficiency(nodes);
        // cells/s = particles/s ÷ (particles per cell)
        particle_rate * (0.9 + 0.1 / self.particles_per_cell)
    }

    /// Calibrate [`Self::device_particle_rate`] so `fom(nodes)` equals
    /// `target_fom` (e.g. the paper's 65.3 TU/s at 9216 nodes).
    pub(crate) fn calibrate_to(&mut self, nodes: usize, target_fom: f64) -> &mut Self {
        self.device_particle_rate = 1.0;
        let base = self.fom(nodes);
        self.device_particle_rate = target_fom / base;
        self
    }

    /// Seconds per PIC step when each device owns `particles_per_device`
    /// macro-particles (used to reproduce "1000 steps in 6.5 minutes").
    pub fn step_time(&self, nodes: usize, particles_per_device: f64) -> f64 {
        particles_per_device / (self.device_particle_rate * self.efficiency(nodes))
    }

    /// The paper's Frontier model: 4 devices/node, TWEAC-like 27 ppc,
    /// calibrated to 65.3 TU/s at 9216 nodes.
    pub fn frontier_paper() -> Self {
        let mut m = Self::new(crate::machine::FRONTIER, 4, 27.0);
        m.calibrate_to(9216, 65.3e12);
        m
    }

    /// The paper's Summit baseline: 6 devices/node, 25 ppc, calibrated to
    /// 14.7 TU/s at full machine (4608 nodes).
    pub fn summit_paper() -> Self {
        let mut m = Self::new(crate::machine::SUMMIT, 6, 25.0);
        m.calibrate_to(4608, 14.7e12);
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_hits_paper_endpoints() {
        let f = FomModel::frontier_paper();
        assert!((f.fom(9216) - 65.3e12).abs() / 65.3e12 < 1e-12);
        let s = FomModel::summit_paper();
        assert!((s.fom(4608) - 14.7e12).abs() / 14.7e12 < 1e-12);
    }

    #[test]
    fn frontier_beats_summit_per_device() {
        let f = FomModel::frontier_paper();
        let s = FomModel::summit_paper();
        assert!(f.device_particle_rate > 2.0 * s.device_particle_rate);
    }

    #[test]
    fn weak_scaling_is_nearly_linear() {
        let f = FomModel::frontier_paper();
        // Fig. 4 range: 6 → 9216 nodes (24 → 36 864 GPUs).
        let fom6 = f.fom(6);
        let fom9216 = f.fom(9216);
        let speedup = fom9216 / fom6;
        let ideal = 9216.0 / 6.0;
        assert!(speedup / ideal > 0.9, "weak scaling too lossy: {speedup}");
        assert!(speedup / ideal <= 1.0);
    }

    #[test]
    fn efficiency_monotonically_decreases() {
        let f = FomModel::frontier_paper();
        let mut last = f.efficiency(1);
        for nodes in [2usize, 8, 64, 512, 4096, 9216] {
            let e = f.efficiency(nodes);
            assert!(e <= last + 1e-15);
            last = e;
        }
        assert!(last > 0.9, "PIConGPU-like efficiency stays above 90 %");
    }

    #[test]
    fn thousand_steps_in_about_six_and_a_half_minutes() {
        // §IV-A: Frontier run with 2.7e13 macro-particles over 36 864
        // devices, 1000 steps in ~6.5 min.
        let f = FomModel::frontier_paper();
        let particles_per_device = 2.7e13 / 36_864.0;
        let t1000 = 1000.0 * f.step_time(9216, particles_per_device);
        let minutes = t1000 / 60.0;
        assert!(
            (4.0..10.0).contains(&minutes),
            "expected ≈6.5 min, modelled {minutes:.1} min"
        );
    }

    #[test]
    fn fom_weights_cells_at_ten_percent() {
        let mut a = FomModel::new(crate::machine::FRONTIER, 4, 1.0);
        a.device_particle_rate = 1.0;
        let mut b = FomModel::new(crate::machine::FRONTIER, 4, f64::INFINITY);
        b.device_particle_rate = 1.0;
        // ppc=1: FOM = rate · (0.9 + 0.1); ppc→∞: FOM = rate · 0.9.
        assert!((a.fom(1) / b.fom(1) - (1.0 / 0.9)).abs() < 1e-12);
    }
}
