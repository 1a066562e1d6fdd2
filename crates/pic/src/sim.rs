//! The simulation state and its one stepping path.
//!
//! One PIC step is the standard leapfrog cycle:
//! 1. gather `E`,`B` at particle positions (time n);
//! 2. Boris-push momenta `u^{n−½} → u^{n+½}` (keeping `u^{n−½}` as the
//!    particle's previous momentum) and move `x^n → x^{n+1} = x^n + Δt·v^{n+½}`;
//! 3. deposit the half-step current `J^{n+½}` (charge-conserving zigzag);
//! 4. advance fields: `B` half step, `E` full step, `B` half step.
//!
//! Steps 1–3 run as one fused, supercell-tiled, rayon-parallel pass
//! ([`crate::tile::fused_push_deposit`]); [`Simulation::step_reference`]
//! keeps the seed's push-then-serial-deposit pipeline as the equivalence
//! and benchmark baseline.
//!
//! A whole periodic box ([`Simulation::step`]) and one slab of a
//! decomposed box ([`crate::domain::DistributedSim::step`]) run the same
//! step body; they differ only in who owns the cells beyond the x faces —
//! the box itself, or the neighbour ranks.
//!
//! **Post-condition: a step returns with the E and B ghost layers
//! current.** Whatever reads the fields between steps — the radiation
//! gather above all — sees ghosts that match the interiors they mirror,
//! at every decomposition, without the caller having to remember a
//! refresh.

use crate::deposit::deposit_current;
use crate::field::VecField3;
use crate::gather::gather_eb;
use crate::grid::GridSpec;
use crate::maxwell::{advance_b, advance_e};
use crate::particles::ParticleBuffer;
use crate::pusher::boris;
use crate::tile::{fused_push_deposit, TilePool};
use rayon::prelude::*;

/// A complete single-domain PIC simulation state.
pub struct Simulation {
    /// Grid geometry and time step.
    pub spec: GridSpec,
    /// Electric field (Yee edges). Seed it before the first step; the
    /// ghost layers track only the step's own field updates.
    pub e: VecField3,
    /// Magnetic field (Yee faces); same caveat as [`Self::e`].
    pub b: VecField3,
    /// Current density (colocated with E).
    pub j: VecField3,
    /// Particle species (index 0 is conventionally the electrons).
    pub species: Vec<ParticleBuffer>,
    /// Completed step count.
    pub step_index: u64,
    /// Simulated time (1/ω_pe).
    pub time: f64,
    /// Re-sort interval of the *reference* path
    /// ([`Self::step_reference`]); the fused tiled step re-bins every step
    /// regardless. 0 = never.
    pub sort_interval: u64,
    /// Supercell edge length in cells (tile size of the fused step).
    pub supercell_edge: usize,
    /// Reusable tile accumulators of the fused step.
    tile_pool: TilePool,
    /// Whether the E and B ghost layers have yet to be made current: true
    /// for a fresh or restored state, false once a step has returned.
    pub(crate) ghosts_stale: bool,
}

/// The two fields whose x-ghost layers a step keeps current.
#[derive(Clone, Copy)]
pub(crate) enum Which {
    E,
    B,
}

/// Who owns the cells beyond the x faces of a [`Simulation`]'s grid.
pub(crate) trait Halo {
    /// Overwrite the ghost layers of `f` with the interior cells they
    /// mirror.
    fn exchange(&mut self, f: &mut VecField3, which: Which);
    /// Fold current deposited into the ghost layers into the interior
    /// cells that own it, and clear the ghosts.
    fn reduce_current(&mut self, j: &mut VecField3);
    /// Hand the particles of species `si` that left the grid to their new
    /// owners and take in the arrivals.
    fn migrate(&mut self, si: usize, sp: &mut ParticleBuffer);
}

/// The whole periodic box: the grid is its own neighbour on both sides.
struct PeriodicBox;

impl Halo for PeriodicBox {
    fn exchange(&mut self, f: &mut VecField3, _which: Which) {
        f.wrap_ghosts_periodic();
    }
    fn reduce_current(&mut self, j: &mut VecField3) {
        j.reduce_ghosts_periodic();
    }
    fn migrate(&mut self, _si: usize, _sp: &mut ParticleBuffer) {}
}

/// Builder for [`Simulation`].
pub struct SimulationBuilder {
    spec: GridSpec,
    species: Vec<ParticleBuffer>,
}

impl SimulationBuilder {
    /// Start from a validated grid spec.
    pub fn new(spec: GridSpec) -> Self {
        spec.validate();
        Self {
            spec,
            species: Vec::new(),
        }
    }

    /// Add a particle species.
    pub fn species(mut self, p: ParticleBuffer) -> Self {
        self.species.push(p);
        self
    }

    /// Finish construction.
    pub fn build(self) -> Simulation {
        let (nx, ny, nz) = (self.spec.nx, self.spec.ny, self.spec.nz);
        Simulation {
            spec: self.spec,
            e: VecField3::zeros(nx, ny, nz),
            b: VecField3::zeros(nx, ny, nz),
            j: VecField3::zeros(nx, ny, nz),
            species: self.species,
            step_index: 0,
            time: 0.0,
            sort_interval: 20,
            supercell_edge: 4,
            tile_pool: TilePool::new(),
            ghosts_stale: true,
        }
    }
}

impl Simulation {
    /// Total particle count over all species.
    pub fn particle_count(&self) -> usize {
        self.species.iter().map(|s| s.len()).sum()
    }

    /// One full PIC step of the whole periodic box, using the fused
    /// supercell-tiled parallel kernel for the particle phase.
    ///
    /// Steady-state calls perform no per-step heap allocation: the sort
    /// scratch lives in each [`ParticleBuffer`] and the tile accumulators
    /// in the simulation's [`TilePool`].
    pub fn step(&mut self) {
        let (lx, _, _) = self.spec.extents();
        self.step_over(&mut PeriodicBox, 0.0, lx);
    }

    /// The step body of every decomposition: this grid starts at global x
    /// cell `origin_cells` of a periodic box `global_lx` long, and `halo`
    /// stands for whatever lies beyond its x faces.
    pub(crate) fn step_over<H: Halo>(&mut self, halo: &mut H, origin_cells: f64, global_lx: f64) {
        let g = self.spec;
        let (_, ly, lz) = g.extents();
        self.first_exchange(halo);
        self.j.clear();

        let edge = self.supercell_edge.max(1);
        for sp in &mut self.species {
            fused_push_deposit(
                sp,
                &self.e,
                &self.b,
                &mut self.j,
                &g,
                origin_cells,
                (global_lx, ly, lz),
                edge,
                &mut self.tile_pool,
            );
        }
        halo.reduce_current(&mut self.j);

        self.advance_fields(halo);
        for (si, sp) in self.species.iter_mut().enumerate() {
            halo.migrate(si, sp);
        }
        self.step_index += 1;
        self.time += g.dt;
    }

    /// Every step but the first finds the ghost layers as the previous one
    /// left them: current.
    fn first_exchange<H: Halo>(&mut self, halo: &mut H) {
        if std::mem::take(&mut self.ghosts_stale) {
            halo.exchange(&mut self.e, Which::E);
            halo.exchange(&mut self.b, Which::B);
        }
    }

    /// The seed's push-then-serial-deposit step, kept as the equivalence
    /// and throughput baseline: a parallel Boris push materialises an O(N)
    /// move list, then the current deposition runs serially in particle
    /// order.
    pub fn step_reference(&mut self) {
        let g = self.spec;
        let (lx, ly, lz) = g.extents();
        self.first_exchange(&mut PeriodicBox);
        self.j.clear();

        for sp in &mut self.species {
            let qm_dt_half = sp.charge / sp.mass * g.dt * 0.5;
            let q = sp.charge;
            let n = sp.len();
            // Phase 1 (parallel): push and move, recording old positions.
            let e = &self.e;
            let b = &self.b;
            let moves: Vec<(f64, f64, f64, f64, f64, f64, f64)> = (0..n)
                .into_par_iter()
                .map(|i| {
                    let (x0, y0, z0) = (sp.x[i], sp.y[i], sp.z[i]);
                    let (ex, ey, ez, bx, by, bz) = gather_eb(e, b, &g, x0, y0, z0, 0.0);
                    let (ux, uy, uz) = boris(
                        sp.ux[i], sp.uy[i], sp.uz[i], ex, ey, ez, bx, by, bz, qm_dt_half,
                    );
                    let gamma = (1.0 + ux * ux + uy * uy + uz * uz).sqrt();
                    let x1 = x0 + g.dt * ux / gamma;
                    let y1 = y0 + g.dt * uy / gamma;
                    let z1 = z0 + g.dt * uz / gamma;
                    (ux, uy, uz, x1, y1, z1, sp.w[i])
                })
                .collect();
            // Phase 2 (serial writes + deposition): currents are deposited
            // from the *unwrapped* trajectory, then positions wrap.
            for (i, (ux, uy, uz, x1, y1, z1, w)) in moves.into_iter().enumerate() {
                let (x0, y0, z0) = (sp.x[i], sp.y[i], sp.z[i]);
                deposit_current(&mut self.j, &g, q, w, x0, y0, z0, x1, y1, z1, 0.0);
                sp.ux_prev[i] = sp.ux[i];
                sp.uy_prev[i] = sp.uy[i];
                sp.uz_prev[i] = sp.uz[i];
                sp.ux[i] = ux;
                sp.uy[i] = uy;
                sp.uz[i] = uz;
                sp.x[i] = x1;
                sp.y[i] = y1;
                sp.z[i] = z1;
            }
            sp.apply_periodic(lx, ly, lz);
        }
        self.j.reduce_ghosts_periodic();

        self.advance_fields(&mut PeriodicBox);
        self.step_index += 1;
        self.time += g.dt;
        if self.sort_interval > 0 && self.step_index.is_multiple_of(self.sort_interval) {
            let edge = self.supercell_edge;
            for sp in &mut self.species {
                sp.sort_by_supercell(edge, g.dx, g.dy, g.dz, g.nx, g.ny, g.nz);
            }
        }
    }

    /// Field update shared by both step paths: B half, E full, B half. A
    /// field's ghost layers go stale only when it is written, so each
    /// write is followed by one exchange — the last one being the module's
    /// post-condition.
    fn advance_fields<H: Halo>(&mut self, halo: &mut H) {
        let g = self.spec;
        advance_b(&mut self.b, &self.e, &g, 0.5 * g.dt);
        halo.exchange(&mut self.b, Which::B);
        advance_e(&mut self.e, &self.b, &self.j, &g, g.dt);
        halo.exchange(&mut self.e, Which::E);
        advance_b(&mut self.b, &self.e, &g, 0.5 * g.dt);
        halo.exchange(&mut self.b, Which::B);
    }

    /// Run `n` steps.
    pub fn run(&mut self, n: usize) {
        for _ in 0..n {
            self.step();
        }
    }

    /// Field energies `(E², B²)` summed over the interior (×½·V_cell for
    /// physical energy).
    pub fn field_energy(&self) -> (f64, f64) {
        (self.e.sq_sum_interior(), self.b.sq_sum_interior())
    }

    /// Total energy: kinetic + field (in consistent normalised units).
    pub fn total_energy(&self) -> f64 {
        let vol = self.spec.dx * self.spec.dy * self.spec.dz;
        let (e2, b2) = self.field_energy();
        let field = 0.5 * (e2 + b2) * vol;
        let kinetic: f64 = self.species.iter().map(|s| s.kinetic_energy()).sum();
        field + kinetic
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Uniform plasma with a seeded long-wavelength E perturbation must
    /// oscillate at ω ≈ ω_pe (= 1 in normalised units, density 1).
    #[test]
    fn plasma_oscillation_frequency() {
        let g = GridSpec::cubic(16, 4, 4, 0.5, 0.5);
        let mut rng = StdRng::seed_from_u64(7);
        let mut electrons = ParticleBuffer::new(-1.0, 1.0);
        let ppc = 8;
        let vol = g.dx * g.dy * g.dz;
        let w = vol / ppc as f64;
        for cx in 0..g.nx {
            for cy in 0..g.ny {
                for cz in 0..g.nz {
                    for _ in 0..ppc {
                        electrons.push(
                            (cx as f64 + rng.gen_range(0.0..1.0)) * g.dx,
                            (cy as f64 + rng.gen_range(0.0..1.0)) * g.dy,
                            (cz as f64 + rng.gen_range(0.0..1.0)) * g.dz,
                            0.0,
                            0.0,
                            0.0,
                            w,
                        );
                    }
                }
            }
        }
        let mut sim = SimulationBuilder::new(g).species(electrons).build();
        // Long-wavelength Ex seed.
        let kx = 2.0 * std::f64::consts::PI / (g.nx as f64 * g.dx);
        for i in 0..g.nx as isize {
            let x = (i as f64 + 0.5) * g.dx;
            for j in 0..g.ny as isize {
                for k in 0..g.nz as isize {
                    sim.e.x.set(i, j, k, 1e-3 * (kx * x).sin());
                }
            }
        }
        // Record the Ex mode amplitude over time and find the period from
        // zero crossings.
        let probe = |s: &Simulation| s.e.x.get(4, 1, 1);
        let mut crossings = Vec::new();
        let mut prev = probe(&sim);
        for _ in 0..600 {
            sim.step();
            let cur = probe(&sim);
            if prev < 0.0 && cur >= 0.0 {
                crossings.push(sim.time);
            }
            prev = cur;
        }
        assert!(crossings.len() >= 2, "no oscillation observed");
        let period = crossings[1] - crossings[0];
        let omega = 2.0 * std::f64::consts::PI / period;
        assert!(
            (omega - 1.0).abs() < 0.15,
            "plasma frequency should be ≈1 ω_pe, got {omega}"
        );
    }

    /// Build a warm quasi-neutral plasma for the equivalence tests.
    fn warm_plasma(g: GridSpec, ppc: usize, seed: u64) -> Simulation {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut electrons = ParticleBuffer::new(-1.0, 1.0);
        let w = g.dx * g.dy * g.dz / ppc as f64;
        for cx in 0..g.nx {
            for cy in 0..g.ny {
                for cz in 0..g.nz {
                    for _ in 0..ppc {
                        electrons.push(
                            (cx as f64 + rng.gen_range(0.0..1.0)) * g.dx,
                            (cy as f64 + rng.gen_range(0.0..1.0)) * g.dy,
                            (cz as f64 + rng.gen_range(0.0..1.0)) * g.dz,
                            rng.gen_range(-0.15..0.15),
                            rng.gen_range(-0.15..0.15),
                            rng.gen_range(-0.15..0.15),
                            w,
                        );
                    }
                }
            }
        }
        SimulationBuilder::new(g).species(electrons).build()
    }

    /// The tentpole equivalence: the fused tiled parallel step must match
    /// the seed's push-then-serial-deposit step on `J`, `E` and `B` to
    /// ≤ 1e-12 — the two paths differ only in summation order.
    #[test]
    fn fused_step_matches_reference_fields() {
        let g = GridSpec::cubic(12, 8, 8, 0.35, 0.5);
        let mut fused = warm_plasma(g, 4, 31);
        let mut reference = warm_plasma(g, 4, 31);
        reference.sort_interval = 0; // pure seed hot loop, no re-sorts
        for step in 0..8 {
            fused.step();
            reference.step_reference();
            let max_diff = |a: &crate::field::ScalarField3, b: &crate::field::ScalarField3| {
                let mut m: f64 = 0.0;
                for i in 0..g.nx as isize {
                    for jj in 0..g.ny as isize {
                        for k in 0..g.nz as isize {
                            m = m.max((a.get(i, jj, k) - b.get(i, jj, k)).abs());
                        }
                    }
                }
                m
            };
            for (name, a, b) in [
                ("jx", &fused.j.x, &reference.j.x),
                ("jy", &fused.j.y, &reference.j.y),
                ("jz", &fused.j.z, &reference.j.z),
                ("ex", &fused.e.x, &reference.e.x),
                ("ey", &fused.e.y, &reference.e.y),
                ("ez", &fused.e.z, &reference.e.z),
                ("bx", &fused.b.x, &reference.b.x),
                ("by", &fused.b.y, &reference.b.y),
                ("bz", &fused.b.z, &reference.b.z),
            ] {
                let d = max_diff(a, b);
                assert!(
                    d <= 1e-12,
                    "{name} diverged at step {step}: max |Δ| = {d:e}"
                );
            }
        }
        // The particle sets must also agree (order-independent invariants).
        let kf = fused.species[0].kinetic_energy();
        let kr = reference.species[0].kinetic_energy();
        assert!((kf - kr).abs() / kr < 1e-12, "kinetic: {kf} vs {kr}");
    }

    /// Both paths must conserve the total deposited current (first moment)
    /// regardless of tiling, ragged edges included.
    #[test]
    fn fused_step_handles_ragged_tiles() {
        // 10 and 6 are not multiples of the default supercell edge 4.
        let g = GridSpec::cubic(10, 6, 6, 0.35, 0.5);
        let mut fused = warm_plasma(g, 3, 5);
        let mut reference = warm_plasma(g, 3, 5);
        reference.sort_interval = 0;
        for _ in 0..5 {
            fused.step();
            reference.step_reference();
        }
        let (fe, fb) = fused.field_energy();
        let (re, rb) = reference.field_energy();
        assert!((fe - re).abs() <= 1e-12 * re.max(1.0), "E² {fe} vs {re}");
        assert!((fb - rb).abs() <= 1e-12 * rb.max(1.0), "B² {fb} vs {rb}");
    }

    #[test]
    fn step_advances_time_and_counts() {
        let g = GridSpec::cubic(4, 4, 4, 0.5, 0.5);
        let mut sim = SimulationBuilder::new(g)
            .species(ParticleBuffer::new(-1.0, 1.0))
            .build();
        sim.run(3);
        assert_eq!(sim.step_index, 3);
        assert!((sim.time - 3.0 * g.dt).abs() < 1e-12);
    }

    #[test]
    fn free_streaming_particle_returns_periodically() {
        let g = GridSpec::cubic(8, 4, 4, 0.5, 0.5);
        let mut p = ParticleBuffer::new(-1.0, 1.0);
        // Tiny weight → negligible self-field.
        let u = 0.5f64;
        p.push(1.0, 1.0, 1.0, u, 0.0, 0.0, 1e-12);
        let mut sim = SimulationBuilder::new(g).species(p).build();
        let v = u / (1.0f64 + u * u).sqrt();
        let lx = 8.0 * 0.5;
        let steps = (lx / (v * g.dt)).round() as usize;
        sim.run(steps);
        let x = sim.species[0].x[0];
        assert!(
            (x - 1.0).abs() < 0.05,
            "particle should lap the box back to x≈1, got {x}"
        );
    }
}
