//! Checkpoint/restore of the simulation state through the openPMD-style
//! record naming.
//!
//! The paper's workflow deliberately stores nothing — but §III-B notes
//! "File I/O can certainly be initiated when desired". This module
//! provides that desired path: a full `Simulation` state serialises into
//! flat named arrays (`meshes/E/x`, `particles/s0/momentum/y`, …) and
//! restores bit-exactly, so long campaigns can checkpoint through any
//! file-like backend (a real file format would plug in behind the same
//! names).

use crate::field::VecField3;
use crate::grid::GridSpec;
use crate::particles::ParticleBuffer;
use crate::sim::{Simulation, SimulationBuilder};
use std::collections::BTreeMap;

/// A serialised simulation state: named flat arrays plus scalars.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Checkpoint {
    /// Named arrays (field components, particle records).
    pub arrays: BTreeMap<String, Vec<f64>>,
    /// Scalar metadata (grid dims, time, counters).
    pub scalars: BTreeMap<String, f64>,
}

fn field_to_vec(f: &crate::field::ScalarField3) -> Vec<f64> {
    let (nx, ny, nz) = f.dims();
    let mut out = Vec::with_capacity(nx * ny * nz);
    for i in 0..nx as isize {
        for j in 0..ny as isize {
            for k in 0..nz as isize {
                out.push(f.get(i, j, k));
            }
        }
    }
    out
}

fn vec_to_field(f: &mut crate::field::ScalarField3, data: &[f64]) {
    let (nx, ny, nz) = f.dims();
    assert_eq!(data.len(), nx * ny * nz, "field payload size mismatch");
    let mut it = data.iter();
    for i in 0..nx as isize {
        for j in 0..ny as isize {
            for k in 0..nz as isize {
                f.set(i, j, k, *it.next().expect("sized"));
            }
        }
    }
}

fn store_vecfield(cp: &mut Checkpoint, name: &str, f: &VecField3) {
    cp.arrays
        .insert(format!("meshes/{name}/x"), field_to_vec(&f.x));
    cp.arrays
        .insert(format!("meshes/{name}/y"), field_to_vec(&f.y));
    cp.arrays
        .insert(format!("meshes/{name}/z"), field_to_vec(&f.z));
}

fn load_vecfield(cp: &Checkpoint, name: &str, f: &mut VecField3) {
    vec_to_field(&mut f.x, &cp.arrays[&format!("meshes/{name}/x")]);
    vec_to_field(&mut f.y, &cp.arrays[&format!("meshes/{name}/y")]);
    vec_to_field(&mut f.z, &cp.arrays[&format!("meshes/{name}/z")]);
}

impl Checkpoint {
    /// Capture the complete state of `sim`.
    pub fn capture(sim: &Simulation) -> Self {
        let mut cp = Checkpoint::default();
        let g = sim.spec;
        for (k, v) in [
            ("nx", g.nx as f64),
            ("ny", g.ny as f64),
            ("nz", g.nz as f64),
            ("dx", g.dx),
            ("dy", g.dy),
            ("dz", g.dz),
            ("dt", g.dt),
            ("time", sim.time),
            ("step_index", sim.step_index as f64),
            ("n_species", sim.species.len() as f64),
            ("sort_interval", sim.sort_interval as f64),
            ("supercell_edge", sim.supercell_edge as f64),
        ] {
            cp.scalars.insert(k.to_string(), v);
        }
        store_vecfield(&mut cp, "E", &sim.e);
        store_vecfield(&mut cp, "B", &sim.b);
        for (si, sp) in sim.species.iter().enumerate() {
            let base = format!("particles/s{si}");
            cp.scalars.insert(format!("{base}/charge"), sp.charge);
            cp.scalars.insert(format!("{base}/mass"), sp.mass);
            cp.arrays.insert(format!("{base}/position/x"), sp.x.clone());
            cp.arrays.insert(format!("{base}/position/y"), sp.y.clone());
            cp.arrays.insert(format!("{base}/position/z"), sp.z.clone());
            cp.arrays
                .insert(format!("{base}/momentum/x"), sp.ux.clone());
            cp.arrays
                .insert(format!("{base}/momentum/y"), sp.uy.clone());
            cp.arrays
                .insert(format!("{base}/momentum/z"), sp.uz.clone());
            cp.arrays.insert(format!("{base}/weighting"), sp.w.clone());
        }
        cp
    }

    /// Rebuild a simulation from a captured state.
    ///
    /// # Panics
    /// Panics on missing or inconsistent records.
    pub fn restore(&self) -> Simulation {
        let g = GridSpec {
            nx: self.scalars["nx"] as usize,
            ny: self.scalars["ny"] as usize,
            nz: self.scalars["nz"] as usize,
            dx: self.scalars["dx"],
            dy: self.scalars["dy"],
            dz: self.scalars["dz"],
            dt: self.scalars["dt"],
        };
        let n_species = self.scalars["n_species"] as usize;
        let mut builder = SimulationBuilder::new(g).sorting(
            self.scalars["sort_interval"] as u64,
            self.scalars["supercell_edge"] as usize,
        );
        for si in 0..n_species {
            let base = format!("particles/s{si}");
            let mut sp = ParticleBuffer::new(
                self.scalars[&format!("{base}/charge")],
                self.scalars[&format!("{base}/mass")],
            );
            sp.x = self.arrays[&format!("{base}/position/x")].clone();
            sp.y = self.arrays[&format!("{base}/position/y")].clone();
            sp.z = self.arrays[&format!("{base}/position/z")].clone();
            sp.ux = self.arrays[&format!("{base}/momentum/x")].clone();
            sp.uy = self.arrays[&format!("{base}/momentum/y")].clone();
            sp.uz = self.arrays[&format!("{base}/momentum/z")].clone();
            sp.w = self.arrays[&format!("{base}/weighting")].clone();
            let n = sp.x.len();
            assert!(
                [&sp.y, &sp.z, &sp.ux, &sp.uy, &sp.uz, &sp.w]
                    .iter()
                    .all(|v| v.len() == n),
                "species {si}: record lengths disagree"
            );
            builder = builder.species(sp);
        }
        let mut sim = builder.build();
        load_vecfield(self, "E", &mut sim.e);
        load_vecfield(self, "B", &mut sim.b);
        sim.time = self.scalars["time"];
        sim.step_index = self.scalars["step_index"] as u64;
        sim
    }

    /// Total payload bytes (the storage cost the streaming path avoids).
    pub fn payload_bytes(&self) -> u64 {
        self.arrays.values().map(|v| (v.len() * 8) as u64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::khi::KhiSetup;

    fn sample_sim() -> Simulation {
        let g = GridSpec::cubic(6, 8, 4, 0.5, 0.5);
        let mut sim = KhiSetup {
            ppc: 2,
            ..KhiSetup::default()
        }
        .build(g);
        sim.run(7);
        sim
    }

    /// The decisive property: capture → restore → continue must be
    /// bit-identical to continuing the original (the scheme is fully
    /// deterministic).
    #[test]
    fn restart_is_bit_exact() {
        let mut original = sample_sim();
        let cp = Checkpoint::capture(&original);
        let mut restored = cp.restore();
        assert_eq!(restored.step_index, original.step_index);
        assert_eq!(restored.time, original.time);
        // March both forward and compare observables exactly.
        for _ in 0..5 {
            original.step();
            restored.step();
        }
        let (e1, b1) = original.field_energy();
        let (e2, b2) = restored.field_energy();
        assert_eq!(e1, e2, "restart changed the E field trajectory");
        assert_eq!(b1, b2, "restart changed the B field trajectory");
        for (a, b) in original.species[0].ux.iter().zip(&restored.species[0].ux) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn checkpoint_round_trips_through_memory_series_layout() {
        // The array names follow the openPMD path convention, so a
        // file-like store can hold them verbatim.
        let sim = sample_sim();
        let cp = Checkpoint::capture(&sim);
        assert!(cp.arrays.contains_key("meshes/E/x"));
        assert!(cp.arrays.contains_key("particles/s0/momentum/x"));
        assert!(cp.arrays.contains_key("particles/s1/weighting"));
        let restored = cp.restore();
        let cp2 = Checkpoint::capture(&restored);
        assert_eq!(cp, cp2, "capture∘restore must be idempotent");
    }

    #[test]
    fn payload_counts_all_arrays() {
        let sim = sample_sim();
        let cp = Checkpoint::capture(&sim);
        let cells = 6 * 8 * 4;
        let particles = sim.particle_count();
        let expect = (6 * cells + 7 * particles) * 8;
        assert_eq!(cp.payload_bytes(), expect as u64);
    }

    #[test]
    #[should_panic(expected = "lengths disagree")]
    fn corrupt_checkpoint_is_rejected() {
        let sim = sample_sim();
        let mut cp = Checkpoint::capture(&sim);
        cp.arrays.get_mut("particles/s0/momentum/x").unwrap().pop();
        let _ = cp.restore();
    }
}
