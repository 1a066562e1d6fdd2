//! The in-situ radiation plugin: hooks the Liénard-Wiechert accumulator
//! into the PIC loop, exactly like PIConGPU's far-field radiation plugin
//! (§IV-A: "the far-field radiation plugin calculates radiation emissions
//! using the Liénard-Wiechert potential approach").
//!
//! `β̇` is derived from the gathered Lorentz force:
//! `β̇ = (f − β(β·f))/γ` with `f = (q/m)(E + β×B)` — the same fields the
//! pusher saw, so no extra state is stored per particle, not even for
//! the length of a step: [`particle_state`] is evaluated inside the
//! accumulator's particle chunks, where it is consumed.
//!
//! Accumulators can be kept per *flow region* ([`RegionMode::FlowRegions`])
//! so each ML training sample pairs a sub-volume's particles with the
//! spectrum that sub-volume emitted — the paper's (particles `D`,
//! radiation `I`) pairs.

use crate::detector::Detector;
use crate::lienard::{ParticleState, RadiationAccumulator};
use crate::spectrum::Spectrum;
use as_pic::diag::FlowRegion;
use as_pic::gather::gather_eb;
use as_pic::plugin::Plugin;
use as_pic::sim::Simulation;

/// How to partition particles into accumulation regions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RegionMode {
    /// One accumulator for the whole box.
    WholeBox,
    /// One accumulator per [`FlowRegion`] (approaching / receding /
    /// vortex), classified by y with the given shear half-width.
    FlowRegions {
        /// Vortex band half-width as a fraction of the box height.
        shear_width: f64,
    },
}

impl RegionMode {
    /// Number of regions this mode produces.
    pub fn n_regions(&self) -> usize {
        match self {
            RegionMode::WholeBox => 1,
            RegionMode::FlowRegions { .. } => 3,
        }
    }

    /// Region index of a particle at height `y` in a box of height `ly`.
    pub fn classify(&self, y: f64, ly: f64) -> usize {
        match self {
            RegionMode::WholeBox => 0,
            RegionMode::FlowRegions { shear_width } => {
                match FlowRegion::classify(y, ly, *shear_width) {
                    FlowRegion::Approaching => 0,
                    FlowRegion::Receding => 1,
                    FlowRegion::Vortex => 2,
                }
            }
        }
    }

    /// Human-readable region labels (Fig. 9 legend order).
    pub fn labels(&self) -> Vec<&'static str> {
        match self {
            RegionMode::WholeBox => vec!["whole box"],
            RegionMode::FlowRegions { .. } => vec![
                FlowRegion::Approaching.label(),
                FlowRegion::Receding.label(),
                FlowRegion::Vortex.label(),
            ],
        }
    }
}

/// The plugin: attach to a PIC driver loop via `as_pic::plugin`.
pub struct RadiationPlugin {
    /// Detector geometry shared by all regions.
    pub detector: Detector,
    /// Region partitioning.
    pub mode: RegionMode,
    /// Index of the radiating species (0 = electrons; ions radiate
    /// negligibly at mᵢ ≫ mₑ but can be included).
    pub species: usize,
    accumulators: Vec<RadiationAccumulator>,
    steps_accumulated: u64,
    /// Per-region particle indices of the current step and the
    /// accumulators' per-chunk partial sums: scratch kept across steps so
    /// steady-state accumulation allocates nothing.
    members: Vec<Vec<u32>>,
    partials: Vec<f64>,
}

impl RadiationPlugin {
    /// New plugin with zeroed accumulators.
    pub fn new(detector: Detector, mode: RegionMode, species: usize) -> Self {
        let accumulators = (0..mode.n_regions())
            .map(|_| RadiationAccumulator::new(&detector))
            .collect();
        Self {
            detector,
            mode,
            species,
            accumulators,
            steps_accumulated: 0,
            members: vec![Vec::new(); mode.n_regions()],
            partials: Vec::new(),
        }
    }

    /// Steps accumulated since the last reset.
    pub fn window_len(&self) -> u64 {
        self.steps_accumulated
    }

    /// Borrow the per-region accumulators.
    pub fn accumulators(&self) -> &[RadiationAccumulator] {
        &self.accumulators
    }

    /// Intensity spectra per region and direction.
    pub fn spectra(&self) -> Vec<Vec<Spectrum>> {
        self.accumulators
            .iter()
            .map(|acc| {
                acc.intensity()
                    .into_iter()
                    .map(|i| Spectrum::new(self.detector.frequencies.clone(), i))
                    .collect()
            })
            .collect()
    }

    /// Mutably borrow the per-region accumulators (e.g. to merge
    /// amplitudes across simulation ranks by superposition before
    /// emitting a window — an allreduce-sum over `amplitudes_mut`).
    pub fn accumulators_mut(&mut self) -> &mut [RadiationAccumulator] {
        &mut self.accumulators
    }

    /// Accumulate one step of a simulation whose local field slab starts
    /// at global x cell `origin` (a slab of a domain-decomposed run).
    /// Region classification happens in global y, which slab
    /// decomposition along x leaves untouched. The single-domain
    /// [`Plugin::after_step`] is `accumulate_for` with `origin = 0`.
    pub fn accumulate_for(&mut self, sim: &Simulation, origin: f64) {
        let g = sim.spec;
        let (_, ly, _) = g.extents();
        let sp = &sim.species[self.species];
        assert!(
            u32::try_from(sp.len()).is_ok(),
            "particle index exceeds u32"
        );
        // Partition the particles by region, in buffer order.
        self.members.iter_mut().for_each(Vec::clear);
        for (i, &y) in sp.y.iter().enumerate() {
            self.members[self.mode.classify(y, ly)].push(i as u32);
        }
        let (det, species) = (&self.detector, self.species);
        for (acc, members) in self.accumulators.iter_mut().zip(&self.members) {
            let state = |k: usize| particle_state(sim, species, members[k] as usize, origin);
            acc.accumulate_with(
                det,
                members.len(),
                state,
                sim.time,
                g.dt,
                &mut self.partials,
            );
        }
        self.steps_accumulated += 1;
    }

    /// Start a new window in place: zero the accumulators and the step
    /// count (what the streaming producer does after emitting a window).
    pub fn reset_window(&mut self) {
        self.steps_accumulated = 0;
        self.accumulators
            .iter_mut()
            .for_each(RadiationAccumulator::reset);
    }

    /// Take the accumulated window and reset, for callers that keep the
    /// window's amplitudes.
    pub fn take_window(&mut self) -> Vec<RadiationAccumulator> {
        self.steps_accumulated = 0;
        let fresh: Vec<RadiationAccumulator> = (0..self.mode.n_regions())
            .map(|_| RadiationAccumulator::new(&self.detector))
            .collect();
        std::mem::replace(&mut self.accumulators, fresh)
    }
}

/// The kinematic state of particle `i` of `species` as the accumulator
/// sees it: `β` from the momentum, `β̇` from the Lorentz force of the
/// fields gathered at its position (`origin` is the global x cell where
/// the local fields start).
pub fn particle_state(sim: &Simulation, species: usize, i: usize, origin: f64) -> ParticleState {
    let sp = &sim.species[species];
    let qm = sp.charge / sp.mass;
    let gamma = sp.gamma(i);
    let beta = [sp.ux[i] / gamma, sp.uy[i] / gamma, sp.uz[i] / gamma];
    let (ex, ey, ez, bx, by, bz) =
        gather_eb(&sim.e, &sim.b, &sim.spec, sp.x[i], sp.y[i], sp.z[i], origin);
    // Lorentz force per unit mass, then project out the parallel
    // part: β̇ = (f − β(β·f))/γ.
    let f = [
        qm * (ex + beta[1] * bz - beta[2] * by),
        qm * (ey + beta[2] * bx - beta[0] * bz),
        qm * (ez + beta[0] * by - beta[1] * bx),
    ];
    let bf = beta[0] * f[0] + beta[1] * f[1] + beta[2] * f[2];
    let beta_dot = [
        (f[0] - beta[0] * bf) / gamma,
        (f[1] - beta[1] * bf) / gamma,
        (f[2] - beta[2] * bf) / gamma,
    ];
    ParticleState {
        r: [sp.x[i], sp.y[i], sp.z[i]],
        beta,
        beta_dot,
        weight: sp.w[i],
    }
}

impl Plugin for RadiationPlugin {
    fn after_step(&mut self, sim: &Simulation) {
        self.accumulate_for(sim, 0.0);
    }

    fn name(&self) -> &str {
        "radiation"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use as_pic::grid::GridSpec;
    use as_pic::khi::KhiSetup;
    use as_pic::plugin::run_with_plugins;

    fn small_khi() -> (GridSpec, KhiSetup) {
        (
            GridSpec::cubic(8, 16, 4, 0.5, 0.5),
            KhiSetup {
                ppc: 2,
                ..KhiSetup::default()
            },
        )
    }

    #[test]
    fn plugin_accumulates_every_step() {
        let (g, setup) = small_khi();
        let mut sim = setup.build(g);
        let det = Detector::along_x(0.1, 10.0, 8);
        let mut plugin = RadiationPlugin::new(det, RegionMode::WholeBox, 0);
        run_with_plugins(&mut sim, 4, &mut [&mut plugin]);
        assert_eq!(plugin.window_len(), 4);
        let spectra = plugin.spectra();
        assert_eq!(spectra.len(), 1);
        assert_eq!(spectra[0].len(), 1);
        let total: f64 = spectra[0][0].intensity.iter().sum();
        assert!(total > 0.0, "interacting plasma must radiate");
    }

    #[test]
    fn flow_regions_give_three_spectra() {
        let (g, setup) = small_khi();
        let mut sim = setup.build(g);
        let det = Detector::along_x(0.1, 10.0, 8);
        let mode = RegionMode::FlowRegions { shear_width: 0.06 };
        assert_eq!(mode.labels().len(), 3);
        let mut plugin = RadiationPlugin::new(det, mode, 0);
        run_with_plugins(&mut sim, 3, &mut [&mut plugin]);
        let spectra = plugin.spectra();
        assert_eq!(spectra.len(), 3);
        for region in &spectra {
            let sum: f64 = region[0].intensity.iter().sum();
            assert!(sum >= 0.0);
        }
    }

    #[test]
    fn take_window_resets_accumulation() {
        let (g, setup) = small_khi();
        let mut sim = setup.build(g);
        let det = Detector::along_x(0.1, 10.0, 6);
        let mut plugin = RadiationPlugin::new(det, RegionMode::WholeBox, 0);
        run_with_plugins(&mut sim, 2, &mut [&mut plugin]);
        let window = plugin.take_window();
        assert_eq!(window.len(), 1);
        assert_eq!(plugin.window_len(), 0);
        let fresh_total: f64 = plugin.spectra()[0][0].intensity.iter().sum();
        assert_eq!(fresh_total, 0.0, "accumulators must reset");
    }

    #[test]
    fn region_classification_is_consistent_with_flow_region() {
        let mode = RegionMode::FlowRegions { shear_width: 0.05 };
        let ly = 8.0;
        assert_eq!(mode.classify(4.0, ly), 0); // middle = approaching
        assert_eq!(mode.classify(0.4, ly), 1); // outer = receding
        assert_eq!(mode.classify(2.0, ly), 2); // shear = vortex
    }
}
