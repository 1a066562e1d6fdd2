//! Slab domain decomposition over the `as-cluster` communicator.
//!
//! The global grid is split along x into equal slabs, one per rank —
//! PIConGPU's spatial domain decomposition (§IV-A: "Spatial domain
//! decomposition distributes computational domains across GPUs …
//! asynchronous communication strategies between compute nodes minimize
//! communication overhead"). Every rank runs the step body of
//! [`crate::sim::Simulation`] on its slab; what lies beyond the slab's x
//! faces is the neighbour ring, with which each step exchanges:
//!
//! 1. **field halos** (E and B ghost slabs, width 2) with both neighbours,
//! 2. **current halos** (ghost-cell deposits folded into the neighbour's
//!    interior),
//! 3. **migrating particles** that crossed the slab boundary.
//!
//! A field's ghost layers go stale only when the field is written — E by
//! `advance_e`, B by `advance_b` — so the step exchanges a field right
//! after writing it and nowhere else: E once and B twice (the second
//! leaves the ghosts current on return, see [`crate::sim`]), 18 ghost
//! messages per rank and step. Payloads are recycled: the `Vec` a
//! neighbour sent is the buffer of this rank's next send.
//!
//! A one-rank world has no ring: its slab is the whole periodic box and
//! [`DistributedSim::step`] *is* [`Simulation::step`] (nothing sent,
//! nothing counted; bit equality asserted in the tests).
//!
//! All exchanges go through the [`Collective`] trait, so the same slab
//! code runs over the in-process channel backend or the netsim-delayed
//! fabric model (`as_cluster::collective::SimNetComm`); the backend
//! defaults to [`ChannelComm`] for existing call sites.

use crate::field::{ScalarField3, VecField3, GHOSTS};
use crate::grid::GridSpec;
use crate::particles::ParticleBuffer;
use crate::sim::{Halo, Simulation, SimulationBuilder, Which};
use as_cluster::collective::{ChannelComm, Collective};

// Base tags; a swap uses `tag` leftwards and `tag + 1` rightwards, vector
// components add 0 / 10 / 20 and species add 4 each.
const TAG_E: u64 = 100;
const TAG_B: u64 = 101;
const TAG_J: u64 = 102;
const TAG_PART: u64 = 104;

/// One rank's slab of a distributed PIC simulation, generic over the
/// collective backend (`C`).
pub struct DistributedSim<C: Collective = ChannelComm> {
    comm: C,
    /// The local simulation state (fields sized to the slab). Read it for
    /// diagnostics; the halo exchange tracks only the step's own field
    /// updates, so E or B written through this field never reach the
    /// neighbours' ghost layers.
    pub local: Simulation,
    /// Global x cell index of local cell 0.
    pub offset_cells: usize,
    /// Global grid spec.
    pub global: GridSpec,
    /// Idle message payload buffers (see the module docs).
    spare: Vec<Vec<f64>>,
}

/// The neighbour links of one rank of a world of two or more: the
/// [`Halo`] of its slab `[x_lo, x_lo + slab_len)`.
struct Ring<'a, C> {
    comm: &'a C,
    left: usize,
    right: usize,
    x_lo: f64,
    slab_len: f64,
    spare: &'a mut Vec<Vec<f64>>,
}

impl<C: Collective> Ring<'_, C> {
    /// Send `to_left` / `to_right` to the neighbours with tags `tag` /
    /// `tag + 1` and return what they sent this rank:
    /// `(from_right, from_left)`.
    fn swap(&self, tag: u64, to_left: Vec<f64>, to_right: Vec<f64>) -> (Vec<f64>, Vec<f64>) {
        // send_vec (not send) so the traffic shows up in the world byte
        // counter.
        self.comm.send_vec(self.left, tag, to_left);
        self.comm.send_vec(self.right, tag + 1, to_right);
        (
            self.comm.recv(self.right, tag),
            self.comm.recv(self.left, tag + 1),
        )
    }

    fn take_buf(&mut self) -> Vec<f64> {
        let mut buf = self.spare.pop().unwrap_or_default();
        buf.clear();
        buf
    }

    /// Exchange ghost slabs of one scalar field with both neighbours.
    fn exchange_ghosts(&mut self, f: &mut ScalarField3, tag: u64) {
        let nx = f.dims().0 as isize;
        // Send my low interior to the left (their right ghosts) and my
        // high interior to the right (their left ghosts).
        let (mut low, mut high) = (self.take_buf(), self.take_buf());
        f.extract_slab_into(0, GHOSTS, &mut low);
        f.extract_slab_into(nx - GHOSTS as isize, GHOSTS, &mut high);
        let (from_right, from_left) = self.swap(tag, low, high);
        f.insert_slab(nx, GHOSTS, &from_right);
        f.insert_slab(-(GHOSTS as isize), GHOSTS, &from_left);
        self.spare.extend([from_right, from_left]);
    }

    /// Fold ghost-deposited current into the neighbours' interiors.
    fn reduce_current_ghosts(&mut self, f: &mut ScalarField3, tag: u64) {
        let nx = f.dims().0 as isize;
        let (mut to_left, mut to_right) = (self.take_buf(), self.take_buf());
        f.extract_slab_into(-(GHOSTS as isize), GHOSTS, &mut to_left);
        f.extract_slab_into(nx, GHOSTS, &mut to_right);
        let (from_right, from_left) = self.swap(tag, to_left, to_right);
        f.add_slab(nx - GHOSTS as isize, GHOSTS, &from_right);
        f.add_slab(0, GHOSTS, &from_left);
        f.clear_ghosts();
        self.spare.extend([from_right, from_left]);
    }
}

impl<C: Collective> Halo for Ring<'_, C> {
    fn exchange(&mut self, f: &mut VecField3, which: Which) {
        let tag = match which {
            Which::E => TAG_E,
            Which::B => TAG_B,
        };
        self.exchange_ghosts(&mut f.x, tag);
        self.exchange_ghosts(&mut f.y, tag + 10);
        self.exchange_ghosts(&mut f.z, tag + 20);
    }

    fn reduce_current(&mut self, j: &mut VecField3) {
        self.reduce_current_ghosts(&mut j.x, TAG_J);
        self.reduce_current_ghosts(&mut j.y, TAG_J + 10);
        self.reduce_current_ghosts(&mut j.z, TAG_J + 20);
    }

    /// Ship particles that left the slab to their new owners.
    fn migrate(&mut self, si: usize, sp: &mut ParticleBuffer) {
        // CFL limits motion to one cell per step, so after the step's
        // global periodic wrap every leaver belongs to the left or right
        // neighbour. Leavers travel as flat bundles of 7 values each.
        let (mut to_left, mut to_right) = (self.take_buf(), self.take_buf());
        let (slab_len, last) = (self.slab_len, self.comm.size() - 1);
        let (left, right, rank) = (self.left, self.right, self.comm.rank());
        sp.drain_outside_x(self.x_lo, self.x_lo + slab_len, |p| {
            let owner = ((p[0] / slab_len) as usize).min(last);
            if owner == right {
                to_right.extend_from_slice(&p);
            } else if owner == left {
                to_left.extend_from_slice(&p);
            } else {
                panic!(
                    "particle jumped past a neighbour slab: x={} owner={owner} rank={rank}",
                    p[0]
                );
            }
        });
        let (from_right, from_left) = self.swap(TAG_PART + si as u64 * 4, to_left, to_right);
        for bundle in [from_right, from_left] {
            assert_eq!(bundle.len() % 7, 0, "corrupt particle bundle");
            for c in bundle.chunks_exact(7) {
                sp.push(c[0], c[1], c[2], c[3], c[4], c[5], c[6]);
            }
            self.spare.push(bundle);
        }
    }
}

impl<C: Collective> DistributedSim<C> {
    /// Split `global` across the communicator and keep the particles of
    /// `all_particles` (global coordinates) that fall into this slab.
    ///
    /// # Panics
    /// Panics unless `global.nx` divides evenly by the world size and each
    /// slab keeps at least `GHOSTS` cells.
    pub fn new(comm: C, global: GridSpec, all_particles: Vec<ParticleBuffer>) -> Self {
        global.validate();
        let world = comm.size();
        assert_eq!(global.nx % world, 0, "nx must divide by world size");
        let nx_local = global.nx / world;
        assert!(nx_local >= GHOSTS, "slab thinner than the ghost width");
        let offset_cells = comm.rank() * nx_local;
        let x_lo = offset_cells as f64 * global.dx;
        let x_hi = (offset_cells + nx_local) as f64 * global.dx;
        let local_spec = GridSpec {
            nx: nx_local,
            ..global
        };
        let mut builder = SimulationBuilder::new(local_spec);
        for mut sp in all_particles {
            // Keep only this slab's particles.
            sp.drain_outside_x(x_lo, x_hi, |_| {});
            builder = builder.species(sp);
        }
        Self {
            comm,
            local: builder.build(),
            offset_cells,
            global,
            spare: Vec::new(),
        }
    }

    /// One distributed PIC step: the shared step body over this world's
    /// halo. Like every step it returns with the E and B ghost layers
    /// current.
    pub fn step(&mut self) {
        let size = self.comm.size();
        if size == 1 {
            return self.local.step();
        }
        let rank = self.comm.rank();
        let mut ring = Ring {
            comm: &self.comm,
            left: (rank + size - 1) % size,
            right: (rank + 1) % size,
            x_lo: self.offset_cells as f64 * self.global.dx,
            slab_len: self.local.spec.nx as f64 * self.global.dx,
            spare: &mut self.spare,
        };
        let (global_lx, _, _) = self.global.extents();
        self.local
            .step_over(&mut ring, self.offset_cells as f64, global_lx);
    }

    /// Does nothing: [`Self::step`] already returns with the E and B ghost
    /// layers current. Kept for callers written when it did not.
    pub fn refresh_ghosts(&mut self) {}

    /// Sum of a scalar across ranks.
    pub fn allreduce_sum(&self, v: f64) -> f64 {
        self.comm.allreduce_scalar_f64(v)
    }

    /// Global particle count.
    pub fn global_particle_count(&self) -> usize {
        self.allreduce_sum(self.local.particle_count() as f64) as usize
    }

    /// Global field energy `(ΣE², ΣB²)`.
    pub fn global_field_energy(&self) -> (f64, f64) {
        let (e2, b2) = self.local.field_energy();
        (self.allreduce_sum(e2), self.allreduce_sum(b2))
    }

    /// Rank of this slab.
    pub fn rank(&self) -> usize {
        self.comm.rank()
    }

    /// World size.
    pub fn world(&self) -> usize {
        self.comm.size()
    }

    /// Borrow the collective endpoint (for plugins that need collectives).
    pub fn comm(&self) -> &C {
        &self.comm
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::khi::KhiSetup;
    use as_cluster::comm::CommWorld;

    fn khi_grid() -> GridSpec {
        GridSpec::cubic(16, 16, 4, 0.5, 0.5)
    }

    /// The decisive test: a 2-rank run must track the single-rank run's
    /// global observables (same physics, different partitioning).
    #[test]
    fn distributed_matches_single_rank_energies() {
        let g = khi_grid();
        let setup = KhiSetup {
            ppc: 2,
            ..KhiSetup::default()
        };
        // Reference: single-domain run.
        let mut reference = setup.build(g);
        for _ in 0..20 {
            reference.step();
        }
        let (re2, rb2) = reference.field_energy();
        let rkin: f64 = reference.species[0].kinetic_energy();

        // Distributed: 2 ranks.
        let endpoints = CommWorld::new(2).into_endpoints();
        let handles: Vec<_> = endpoints
            .into_iter()
            .map(|comm| {
                std::thread::spawn(move || {
                    let particles = setup.all_species(&g);
                    let mut d = DistributedSim::new(comm, g, particles);
                    for _ in 0..20 {
                        d.step();
                    }
                    let (e2, b2) = d.global_field_energy();
                    let kin = d.allreduce_sum(d.local.species[0].kinetic_energy());
                    let count = d.global_particle_count();
                    (e2, b2, kin, count)
                })
            })
            .collect();
        let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        let (e2, b2, kin, count) = results[0];
        assert_eq!(count, reference.particle_count(), "no particles lost");
        // Same initial conditions, same deterministic scheme ⇒ observables
        // agree to floating-point accumulation differences.
        assert!(
            (e2 - re2).abs() / re2.max(1e-30) < 1e-6,
            "E energy: {e2} vs {re2}"
        );
        assert!(
            (b2 - rb2).abs() / rb2.max(1e-30) < 1e-6,
            "B energy: {b2} vs {rb2}"
        );
        assert!((kin - rkin).abs() / rkin < 1e-9, "kinetic: {kin} vs {rkin}");
    }

    /// Two-rank KHI with two species; per rank the FNV-1a hash of every
    /// particle coordinate and field value after `steps` steps, and the
    /// messages the world had sent by then.
    fn two_rank_run(distrust_ghosts: bool, steps: usize) -> Vec<(u64, u64)> {
        let g = khi_grid();
        let setup = KhiSetup {
            ppc: 2,
            seed: 7,
            ..KhiSetup::default()
        };
        let handles: Vec<_> = CommWorld::new(2)
            .into_endpoints()
            .into_iter()
            .map(|comm| {
                std::thread::spawn(move || {
                    let mut d = DistributedSim::new(comm, g, setup.all_species(&g));
                    assert_eq!(d.local.species.len(), 2);
                    for _ in 0..steps {
                        d.local.ghosts_stale |= distrust_ghosts;
                        d.step();
                    }
                    // Past the barrier both ranks have sent everything.
                    d.comm().barrier();
                    let messages = d.comm().world_messages_sent();
                    let mut h = 0xcbf2_9ce4_8422_2325u64;
                    let mut fnv = |v: f64| {
                        for byte in v.to_bits().to_le_bytes() {
                            h = (h ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3);
                        }
                    };
                    let sim = &d.local;
                    for sp in &sim.species {
                        for arr in [&sp.x, &sp.y, &sp.z, &sp.ux, &sp.uy, &sp.uz] {
                            arr.iter().copied().for_each(&mut fnv);
                        }
                    }
                    for f in [&sim.e, &sim.b] {
                        for c in [&f.x, &f.y, &f.z] {
                            for i in -(GHOSTS as isize)..(g.nx / 2 + GHOSTS) as isize {
                                for j in 0..g.ny as isize {
                                    for k in 0..g.nz as isize {
                                        fnv(c.get(i, j, k));
                                    }
                                }
                            }
                        }
                    }
                    (h, messages)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    }

    /// The post-condition: a step returns with current ghost layers, so
    /// exchanging E and B again at the start of the next one changes no
    /// bit of the state (ghost layers included). Trusting it leaves 28
    /// messages per rank and step: 18 field-ghost, 6 current-ghost, 4
    /// migration.
    #[test]
    fn a_step_returns_with_current_ghosts_and_sends_28_messages() {
        let elided = two_rank_run(false, 20);
        let forced = two_rank_run(true, 20);
        for ((hash, _), (forced_hash, _)) in elided.iter().zip(&forced) {
            assert_eq!(hash, forced_hash, "a step returned with stale ghosts");
        }
        assert_ne!(elided[0].0, elided[1].0, "the ranks hold different slabs");
        // Ten more steps of two ranks, start-up and barrier cancelled out.
        let per_rank_step = |long: &[(u64, u64)], short: &[(u64, u64)]| {
            assert_eq!(long[0].1, long[1].1, "one world counter");
            (long[0].1 - short[0].1) / (10 * 2)
        };
        assert_eq!(per_rank_step(&elided, &two_rank_run(false, 10)), 28);
        assert_eq!(per_rank_step(&forced, &two_rank_run(true, 10)), 40);
    }

    #[test]
    fn particles_migrate_across_ranks_and_none_are_lost() {
        let g = khi_grid();
        let endpoints = CommWorld::new(4).into_endpoints();
        let handles: Vec<_> = endpoints
            .into_iter()
            .map(|comm| {
                std::thread::spawn(move || {
                    // A beam marching in +x crosses every slab.
                    let mut p = ParticleBuffer::new(-1.0, 1.0);
                    for k in 0..32 {
                        p.push(
                            0.1 + (k as f64) * 0.2,
                            (k % 16) as f64 * 0.5,
                            0.5,
                            1.0,
                            0.0,
                            0.0,
                            1e-9,
                        );
                    }
                    let mut d = DistributedSim::new(comm, g, vec![p]);
                    let before = d.global_particle_count();
                    for _ in 0..60 {
                        d.step();
                    }
                    (before, d.global_particle_count())
                })
            })
            .collect();
        for h in handles {
            let (before, after) = h.join().unwrap();
            assert_eq!(before, 32);
            assert_eq!(after, 32, "particle count must be conserved");
        }
    }

    /// A one-rank world steps exactly as the plain simulation does: every
    /// particle coordinate and momentum of both species and every E/B
    /// value, ghost layers included, bit for bit.
    #[test]
    fn single_rank_distributed_equals_plain_simulation() {
        let g = khi_grid();
        let setup = KhiSetup {
            ppc: 2,
            ..KhiSetup::default()
        };
        let mut plain = setup.build(g);
        let comm = CommWorld::new(1).into_endpoints().remove(0);
        let mut dist = DistributedSim::new(comm, g, setup.all_species(&g));
        assert_eq!(plain.species.len(), 2);
        for step in 0..12 {
            plain.step();
            dist.step();
            for (p, d) in plain.species.iter().zip(&dist.local.species) {
                for (a, b) in [
                    (&p.x, &d.x),
                    (&p.y, &d.y),
                    (&p.z, &d.z),
                    (&p.ux, &d.ux),
                    (&p.uy, &d.uy),
                    (&p.uz, &d.uz),
                ] {
                    assert!(
                        a.iter()
                            .map(|v| v.to_bits())
                            .eq(b.iter().map(|v| v.to_bits())),
                        "particles diverged at step {step}"
                    );
                }
            }
            for (p, d) in [(&plain.e, &dist.local.e), (&plain.b, &dist.local.b)] {
                for (a, b) in [(&p.x, &d.x), (&p.y, &d.y), (&p.z, &d.z)] {
                    for i in -(GHOSTS as isize)..(g.nx + GHOSTS) as isize {
                        for j in 0..g.ny as isize {
                            for k in 0..g.nz as isize {
                                assert_eq!(
                                    a.get(i, j, k).to_bits(),
                                    b.get(i, j, k).to_bits(),
                                    "field diverged at step {step}, cell ({i}, {j}, {k})"
                                );
                            }
                        }
                    }
                }
            }
        }
        assert_eq!(
            dist.comm().world_messages_sent(),
            0,
            "a lone rank sends nothing"
        );
    }
}
