//! Total energy (kinetic + field) of a whole periodic box over many
//! steps, as a property over random small boxes.
//!
//! A warm electron plasma on a neutralising background starts with zero
//! fields; its energy then sloshes between the particles and the fields
//! at the plasma frequency, and a sound step keeps the sum. What it may
//! not keep is numerical heating, which grows with the number of steps
//! and is an energy per cell, so the bound is stated per step and per
//! cell: the energy per cell may move by at most [`DRIFT_PER_STEP`] of
//! its initial value per step.
//!
//! The Debye length is kept resolved (`λ_D ≥ 0.45·dx` on every draw):
//! an under-resolved λ_D measures the well-known finite-grid instability
//! of momentum-conserving PIC, not a solver bug.

use as_pic::grid::GridSpec;
use as_pic::particles::ParticleBuffer;
use as_pic::sim::{Simulation, SimulationBuilder};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Largest admissible `|E_N − E_0| / (N · E_0)`: the drift of the energy
/// per cell per step, relative to the initial energy per cell.
const DRIFT_PER_STEP: f64 = 3e-4;

/// A uniform electron plasma of density 1 (so `ω_p = 1`) on `g`, `ppc`
/// particles per cell at uniform positions, each momentum component
/// uniform in `±u_max`.
fn warm_plasma(g: GridSpec, ppc: usize, u_max: f64, seed: u64) -> Simulation {
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
                        rng.gen_range(-u_max..u_max),
                        rng.gen_range(-u_max..u_max),
                        rng.gen_range(-u_max..u_max),
                        w,
                    );
                }
            }
        }
    }
    SimulationBuilder::new(g).species(electrons).build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The energy per cell drifts by at most [`DRIFT_PER_STEP`] of its
    /// initial value per step, over random dims, particles per cell,
    /// thermal spreads and seeds with a resolved Debye length.
    #[test]
    fn warm_plasma_energy_drift_is_bounded_per_step_and_cell(
        nx in 4usize..9,
        ny in 4usize..9,
        nz in 2usize..6,
        ppc in 4usize..11,
        u_max in 0.1f64..0.3,
        debye_cells in 0.45f64..1.0,
        steps in 100usize..201,
        seed in 0u64..1_000_000,
    ) {
        // λ_D = v_th/ω_p with v_th the rms of one uniform component.
        let debye = u_max / 3f64.sqrt();
        let g = GridSpec::cubic(nx, ny, nz, debye / debye_cells, 0.5);
        let mut sim = warm_plasma(g, ppc, u_max, seed);
        let e0 = sim.total_energy();
        sim.run(steps);
        let e1 = sim.total_energy();
        let drift = (e1 - e0).abs() / (steps as f64 * e0);
        prop_assert!(
            drift <= DRIFT_PER_STEP,
            "{nx}x{ny}x{nz}, {ppc} ppc, u_max {u_max}, λ_D {debye_cells} cells, {steps} steps, \
             seed {seed}: energy {e0} → {e1}, {drift:e} per step (bound {DRIFT_PER_STEP:e})"
        );
    }
}
