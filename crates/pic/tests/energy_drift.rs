//! Total energy (kinetic + field) of a whole periodic box over many steps.

use as_pic::grid::GridSpec;
use as_pic::particles::ParticleBuffer;
use as_pic::sim::SimulationBuilder;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Total energy (kinetic + field) stays bounded for a warm plasma with
/// a resolved Debye length (λ_D ≈ 0.8·dx here; under-resolving it
/// causes the well-known grid-heating artefact, not a solver bug).
#[test]
fn warm_plasma_energy_is_stable() {
    let g = GridSpec::cubic(8, 8, 4, 0.25, 0.5);
    let mut rng = StdRng::seed_from_u64(9);
    let mut electrons = ParticleBuffer::new(-1.0, 1.0);
    let ppc = 8;
    let w = g.dx * g.dy * g.dz / ppc as f64;
    for cx in 0..g.nx {
        for cy in 0..g.ny {
            for cz in 0..g.nz {
                for _ in 0..ppc {
                    electrons.push(
                        (cx as f64 + rng.gen_range(0.0..1.0)) * g.dx,
                        (cy as f64 + rng.gen_range(0.0..1.0)) * g.dy,
                        (cz as f64 + rng.gen_range(0.0..1.0)) * g.dz,
                        rng.gen_range(-0.2..0.2),
                        rng.gen_range(-0.2..0.2),
                        rng.gen_range(-0.2..0.2),
                        w,
                    );
                }
            }
        }
    }
    let mut sim = SimulationBuilder::new(g).species(electrons).build();
    let e0 = sim.total_energy();
    sim.run(200);
    let e1 = sim.total_energy();
    assert!(
        (e1 - e0).abs() / e0 < 0.1,
        "energy drifted more than 10%: {e0} → {e1}"
    );
}
