//! The in-situ radiation plugin: hooks the Liénard-Wiechert accumulator
//! into the PIC loop, exactly like PIConGPU's far-field radiation plugin
//! (§IV-A: "the far-field radiation plugin calculates radiation emissions
//! using the Liénard-Wiechert potential approach").
//!
//! A particle's state is read after the step: position `x^{n+1}`,
//! velocity `β^{n+½}`, and `β̇ = (β^{n+½} − β^{n−½})/Δt`, the change of
//! velocity over the last push, from the momenta after and before it
//! (`ParticleBuffer::ux` and `ux_prev`, …, which the push stores). That
//! is how PIConGPU's plugin takes `β̇` from its `momentumPrev1`
//! attribute; no field is gathered. [`particle_states`] is evaluated
//! inside the accumulator's particle chunks, where it is consumed,
//! [`LANES`] particles at a time; each lane computes
//! [`particle_state`]'s formula op for op, and the states enter the sum
//! one by one in chunk order.
//!
//! Accumulators can be kept per *flow region* ([`RegionMode::FlowRegions`])
//! so each ML training sample pairs a sub-volume's particles with the
//! spectrum that sub-volume emitted — the paper's (particles `D`,
//! radiation `I`) pairs.

use crate::detector::Detector;
use crate::lienard::{ParticleState, RadiationAccumulator};
use crate::spectrum::Spectrum;
use as_pic::diag::FlowRegion;
use as_pic::lanes::Lanes;
use as_pic::plugin::Plugin;
use as_pic::sim::Simulation;
use as_pic::tile::LANES;

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

    /// Accumulate one step of `sim`: a whole box, or one slab of a
    /// domain-decomposed run whose fields start at global x cell
    /// `_origin`. The states come from the particles alone, so the origin
    /// is not read, and region classification happens in global y, which
    /// slab decomposition along x leaves untouched. The single-domain
    /// [`Plugin::after_step`] is `accumulate_for` with origin 0.
    pub fn accumulate_for(&mut self, sim: &Simulation, _origin: f64) {
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
            let states =
                |k: [usize; LANES]| particle_states(sim, species, k.map(|k| members[k] as usize));
            acc.accumulate_with(
                det,
                members.len(),
                states,
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
/// sees it after a step (see the module docs). [`particle_states`] at one
/// lane.
pub fn particle_state(sim: &Simulation, species: usize, i: usize) -> ParticleState {
    let [state] = particle_states(sim, species, [i]);
    state
}

/// [`particle_state`] of the `L` particles `idx`, lane by lane op for op.
/// Always inlined, so the radiation chunk's AVX2 instance compiles it too.
#[inline(always)]
pub fn particle_states<const L: usize>(
    sim: &Simulation,
    species: usize,
    idx: [usize; L],
) -> [ParticleState; L] {
    let sp = &sim.species[species];
    let load = |v: &[f64]| Lanes(idx.map(|i| v[i]));
    let r = [load(&sp.x), load(&sp.y), load(&sp.z)];
    let beta = velocity([load(&sp.ux), load(&sp.uy), load(&sp.uz)]);
    let beta_prev = velocity([load(&sp.ux_prev), load(&sp.uy_prev), load(&sp.uz_prev)]);
    let dt = sim.spec.dt;
    let beta_dot = [
        (beta[0] - beta_prev[0]) / dt,
        (beta[1] - beta_prev[1]) / dt,
        (beta[2] - beta_prev[2]) / dt,
    ];
    let w = load(&sp.w);
    std::array::from_fn(|l| ParticleState {
        r: r.map(|c| c.0[l]),
        beta: beta.map(|c| c.0[l]),
        beta_dot: beta_dot.map(|c| c.0[l]),
        weight: w.0[l],
    })
}

/// `β = u/γ` of the momenta `u = γβ`.
#[inline(always)]
fn velocity<const L: usize>([ux, uy, uz]: [Lanes<L>; 3]) -> [Lanes<L>; 3] {
    let gamma = (1.0 + ux * ux + uy * uy + uz * uz).sqrt();
    [ux / gamma, uy / gamma, uz / gamma]
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

    /// The lane states against the one-lane ones, bit for bit, on a
    /// stepped plasma, both species, and groups whose lanes repeat a
    /// particle (as a chunk's padded last group does).
    #[test]
    fn lane_states_equal_one_lane_states_bitwise() {
        let (g, setup) = small_khi();
        let mut sim = setup.build(g);
        sim.run(3);
        let bits = |p: &ParticleState| {
            [p.r, p.beta, p.beta_dot, [p.weight; 3]]
                .concat()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>()
        };
        for species in [0, 1] {
            let n = sim.species[species].len();
            for start in (0..n).step_by(LANES) {
                let idx: [usize; LANES] = std::array::from_fn(|l| (start + l).min(n - 1));
                let lanes = particle_states(&sim, species, idx);
                for (l, &i) in idx.iter().enumerate() {
                    let one = particle_state(&sim, species, i);
                    assert_eq!(
                        bits(&lanes[l]),
                        bits(&one),
                        "species {species} particle {i}"
                    );
                }
            }
        }
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
