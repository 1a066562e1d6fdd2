//! Kelvin-Helmholtz instability setup (§IV-A of the paper).
//!
//! Two counter-propagating electron streams along ±x with the shear normal
//! along y: `vₓ(y) = +β` for the middle half of the box and `−β` outside,
//! giving two shear surfaces (periodic boundaries require an even number).
//! The paper's parameters: β = 0.2, 9 particles per cell, reference
//! density n₀ = 10²⁵ m⁻³ (density 1 in normalised units). A small seeded
//! velocity perturbation accelerates the onset of the instability, whose
//! signature is exponential growth of the magnetic field energy at the
//! shear surfaces (the dc-magnetic-field generation of Grismayer et al.).

use crate::grid::GridSpec;
use crate::particles::ParticleBuffer;
use crate::sim::{Simulation, SimulationBuilder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of the KHI scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KhiSetup {
    /// Stream speed β = v/c (paper: 0.2).
    pub beta: f64,
    /// Macro-particles per cell (paper: 9).
    pub ppc: usize,
    /// Thermal momentum spread (γβ units) of each stream.
    pub thermal_u: f64,
    /// Relative amplitude of the seeded vy perturbation.
    pub perturbation: f64,
    /// Number of seeded modes along x.
    pub seed_modes: usize,
    /// RNG seed for particle placement.
    pub seed: u64,
    /// Ion-to-electron mass ratio (reduced for faster electron-scale
    /// dynamics; 1836 for hydrogen).
    pub ion_mass: f64,
    /// Include the co-streaming ion species (quasi-neutral flows carry no
    /// net current; disabling leaves an electron-only current slab, which
    /// is a different instability).
    pub mobile_ions: bool,
}

impl Default for KhiSetup {
    fn default() -> Self {
        Self {
            beta: 0.2,
            ppc: 9,
            thermal_u: 0.005,
            perturbation: 0.002,
            seed_modes: 2,
            seed: 0xC0FFEE,
            ion_mass: 100.0,
            mobile_ions: true,
        }
    }
}

impl KhiSetup {
    /// Stream velocity (±β) at height `y` for box extent `ly`: the middle
    /// half streams +x, the outer quarters −x (two shear surfaces at
    /// `ly/4` and `3·ly/4`).
    pub(crate) fn stream_beta(&self, y: f64, ly: f64) -> f64 {
        if y >= 0.25 * ly && y < 0.75 * ly {
            self.beta
        } else {
            -self.beta
        }
    }

    /// Build the electron buffer on `g`.
    pub(crate) fn electrons(&self, g: &GridSpec) -> ParticleBuffer {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let (lx, ly, _lz) = g.extents();
        let mut p = ParticleBuffer::new(-1.0, 1.0);
        p.reserve(g.cells() * self.ppc);
        let w = g.dx * g.dy * g.dz / self.ppc as f64;
        for cx in 0..g.nx {
            for cy in 0..g.ny {
                for cz in 0..g.nz {
                    for _ in 0..self.ppc {
                        let x = (cx as f64 + rng.gen_range(0.0..1.0)) * g.dx;
                        let y = (cy as f64 + rng.gen_range(0.0..1.0)) * g.dy;
                        let z = (cz as f64 + rng.gen_range(0.0..1.0)) * g.dz;
                        let beta = self.stream_beta(y, ly);
                        let gamma0 = 1.0 / (1.0 - beta * beta).sqrt();
                        let ux = gamma0 * beta + rng.gen_range(-self.thermal_u..self.thermal_u);
                        // Seeded perturbation localised at the shear
                        // surfaces (fastest-growing long modes).
                        let envelope =
                            ((y / ly - 0.25).abs().min((y / ly - 0.75).abs()) * 4.0).min(1.0);
                        let seed_amp = self.perturbation * (1.0 - envelope);
                        let kx = 2.0 * std::f64::consts::PI * self.seed_modes as f64 / lx;
                        let uy = seed_amp * (kx * x).sin()
                            + rng.gen_range(-self.thermal_u..self.thermal_u);
                        let uz = rng.gen_range(-self.thermal_u..self.thermal_u);
                        p.push(x, y, z, ux, uy, uz, w);
                    }
                }
            }
        }
        p
    }

    /// Build the co-streaming ion buffer: same velocity profile (the two
    /// flows are quasi-neutral plasma streams), independent placement, no
    /// seeded perturbation, cold.
    pub(crate) fn ions(&self, g: &GridSpec) -> ParticleBuffer {
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0xA5A5_5A5A);
        let (_lx, ly, _lz) = g.extents();
        let mut p = ParticleBuffer::new(1.0, self.ion_mass);
        p.reserve(g.cells() * self.ppc);
        let w = g.dx * g.dy * g.dz / self.ppc as f64;
        for cx in 0..g.nx {
            for cy in 0..g.ny {
                for cz in 0..g.nz {
                    for _ in 0..self.ppc {
                        let x = (cx as f64 + rng.gen_range(0.0..1.0)) * g.dx;
                        let y = (cy as f64 + rng.gen_range(0.0..1.0)) * g.dy;
                        let z = (cz as f64 + rng.gen_range(0.0..1.0)) * g.dz;
                        let beta = self.stream_beta(y, ly);
                        let gamma0 = 1.0 / (1.0 - beta * beta).sqrt();
                        p.push(x, y, z, gamma0 * beta, 0.0, 0.0, w);
                    }
                }
            }
        }
        p
    }

    /// All species of the scenario (electrons first).
    pub fn all_species(&self, g: &GridSpec) -> Vec<ParticleBuffer> {
        let mut out = vec![self.electrons(g)];
        if self.mobile_ions {
            out.push(self.ions(g));
        }
        out
    }

    /// Build a ready-to-run simulation.
    pub fn build(&self, g: GridSpec) -> Simulation {
        let mut b = SimulationBuilder::new(g);
        for sp in self.all_species(&g) {
            b = b.species(sp);
        }
        b.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_setup_matches_paper_parameters() {
        let k = KhiSetup::default();
        assert_eq!(k.beta, 0.2);
        assert_eq!(k.ppc, 9);
    }

    #[test]
    fn stream_profile_has_two_shear_surfaces() {
        let k = KhiSetup::default();
        let ly = 8.0;
        assert!(k.stream_beta(1.0, ly) < 0.0);
        assert!(k.stream_beta(3.0, ly) > 0.0);
        assert!(k.stream_beta(5.0, ly) > 0.0);
        assert!(k.stream_beta(7.0, ly) < 0.0);
    }

    #[test]
    fn particle_count_and_neutral_current() {
        let g = GridSpec::cubic(8, 8, 4, 0.5, 0.5);
        let k = KhiSetup::default();
        let p = k.electrons(&g);
        assert_eq!(p.len(), g.cells() * k.ppc);
        // Equal volumes stream each way → net x-momentum ≈ 0.
        let px: f64 = p.ux.iter().sum();
        let per_particle = px.abs() / p.len() as f64;
        assert!(per_particle < 0.02, "net drift {per_particle}");
    }

    /// Quasi-neutral streams carry no net current: the initial fields stay
    /// at the noise floor instead of launching a violent transient.
    #[test]
    fn neutral_streams_start_quiet() {
        let g = GridSpec::cubic(8, 16, 4, 0.5, 0.5);
        let setup = KhiSetup {
            ppc: 4,
            ..KhiSetup::default()
        };
        let mut sim = setup.build(g);
        let kinetic: f64 = sim.species.iter().map(|s| s.kinetic_energy()).sum();
        sim.run(5);
        let (e2, b2) = sim.field_energy();
        let vol = g.dx * g.dy * g.dz;
        let field = 0.5 * (e2 + b2) * vol;
        assert!(
            field < 0.05 * kinetic,
            "field transient too large: field {field} vs kinetic {kinetic}"
        );
    }

    /// The physics smoke test: shear-surface magnetic field energy must
    /// grow out of the noise floor (the ESKHI dc-field generation), with
    /// growth dominating the recorded window.
    #[test]
    fn magnetic_energy_grows_exponentially() {
        let g = GridSpec::cubic(12, 24, 4, 0.5, 0.5);
        let setup = KhiSetup {
            beta: 0.35,
            ppc: 4,
            thermal_u: 0.005,
            perturbation: 0.02,
            seed_modes: 2,
            seed: 12,
            ..KhiSetup::default()
        };
        let mut sim = setup.build(g);
        // Let the startup noise settle, then record the growth window.
        sim.run(30);
        let mut b_energy = Vec::new();
        for _ in 0..30 {
            sim.run(15);
            let (_, b2) = sim.field_energy();
            b_energy.push(b2);
        }
        let start = b_energy[0].max(1e-30);
        let end = *b_energy.last().expect("nonempty");
        assert!(
            end / start > 5.0,
            "B energy must grow out of the noise: {start:.3e} → {end:.3e}"
        );
        let grew = b_energy.windows(2).filter(|w| w[1] > w[0]).count();
        assert!(
            grew * 3 > b_energy.len() * 2,
            "growth should dominate: {b_energy:?}"
        );
    }
}
