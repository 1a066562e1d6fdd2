//! Slab domain decomposition over the `as-cluster` communicator.
//!
//! The global grid is split along x into equal slabs, one per rank —
//! PIConGPU's spatial domain decomposition (§IV-A: "Spatial domain
//! decomposition distributes computational domains across GPUs …
//! asynchronous communication strategies between compute nodes minimize
//! communication overhead"). Each step exchanges:
//!
//! 1. **field halos** (E and B ghost slabs, width 2) with both neighbours,
//! 2. **current halos** (ghost-cell deposits folded into the neighbour's
//!    interior),
//! 3. **migrating particles** that crossed the slab boundary.
//!
//! A field's ghost layers go stale only when the field is written — E by
//! `advance_e`, B by `advance_b` — so the driver keeps one flag per field
//! and an exchange point sends only a stale field: per step plus
//! [`DistributedSim::refresh_ghosts`] that is E once and B twice, 18 ghost
//! messages per rank instead of 42, the values received identical.
//! Payloads are recycled: the `Vec` a neighbour sent is the buffer of this
//! rank's next send.
//!
//! A single-rank world degenerates to the periodic wraps of
//! [`crate::sim::Simulation`]; the equivalence is asserted in the tests.
//!
//! All exchanges go through the [`Collective`] trait, so the same slab
//! code runs over the in-process channel backend or the netsim-delayed
//! fabric model (`as_cluster::collective::SimNetComm`); the backend
//! defaults to [`ChannelComm`] for existing call sites.

use crate::field::{ScalarField3, GHOSTS};
use crate::grid::GridSpec;
use crate::particles::ParticleBuffer;
use crate::sim::{Simulation, SimulationBuilder};
use crate::tile::{fused_push_deposit, wrap_coord, Wrap};
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
    /// diagnostics; the halo exchange tracks only the driver's own field
    /// updates, so E or B written through this field never reach the
    /// neighbours' ghost layers.
    pub local: Simulation,
    /// Global x cell index of local cell 0.
    pub offset_cells: usize,
    /// Global grid spec.
    pub global: GridSpec,
    /// Whether E / B was written since its ghost layers were last
    /// exchanged (indexed by [`Which`]).
    stale: [bool; 2],
    /// Idle message payload buffers (see the module docs).
    spare: Vec<Vec<f64>>,
    /// Test oracle: exchange at every stage, stale or not.
    #[cfg(test)]
    exchange_always: bool,
}

/// The neighbour links of one rank.
struct Ring<'a, C> {
    comm: &'a C,
    left: usize,
    right: usize,
}

impl<'a, C: Collective> Ring<'a, C> {
    fn of(comm: &'a C) -> Self {
        let (rank, size) = (comm.rank(), comm.size());
        Ring {
            comm,
            left: (rank + size - 1) % size,
            right: (rank + 1) % size,
        }
    }

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

    /// Exchange ghost slabs of one scalar field with both neighbours.
    fn exchange_ghosts(&self, f: &mut ScalarField3, tag: u64, spare: &mut Vec<Vec<f64>>) {
        let nx = f.dims().0 as isize;
        // Send my low interior to the left (their right ghosts) and my
        // high interior to the right (their left ghosts).
        let (mut low, mut high) = (take_buf(spare), take_buf(spare));
        f.extract_slab_into(0, GHOSTS, &mut low);
        f.extract_slab_into(nx - GHOSTS as isize, GHOSTS, &mut high);
        let (from_right, from_left) = self.swap(tag, low, high);
        f.insert_slab(nx, GHOSTS, &from_right);
        f.insert_slab(-(GHOSTS as isize), GHOSTS, &from_left);
        spare.extend([from_right, from_left]);
    }

    /// Fold ghost-deposited current into the neighbours' interiors.
    fn reduce_current_ghosts(&self, f: &mut ScalarField3, tag: u64, spare: &mut Vec<Vec<f64>>) {
        let nx = f.dims().0 as isize;
        let (mut to_left, mut to_right) = (take_buf(spare), take_buf(spare));
        f.extract_slab_into(-(GHOSTS as isize), GHOSTS, &mut to_left);
        f.extract_slab_into(nx, GHOSTS, &mut to_right);
        let (from_right, from_left) = self.swap(tag, to_left, to_right);
        f.add_slab(nx - GHOSTS as isize, GHOSTS, &from_right);
        f.add_slab(0, GHOSTS, &from_left);
        f.clear_ghosts();
        spare.extend([from_right, from_left]);
    }
}

fn take_buf(spare: &mut Vec<Vec<f64>>) -> Vec<f64> {
    let mut buf = spare.pop().unwrap_or_default();
    buf.clear();
    buf
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
            stale: [true; 2],
            spare: Vec::new(),
            #[cfg(test)]
            exchange_always: false,
        }
    }

    /// Bring the ghost layers of E or B up to date — a no-op unless the
    /// field was written since its last exchange.
    fn exchange_vec_ghosts(&mut self, which: Which) {
        let was_stale = std::mem::replace(&mut self.stale[which as usize], false);
        #[cfg(test)]
        let was_stale = was_stale || self.exchange_always;
        if !was_stale {
            return;
        }
        let (f, tag) = match which {
            Which::E => (&mut self.local.e, TAG_E),
            Which::B => (&mut self.local.b, TAG_B),
        };
        if self.comm.size() == 1 {
            f.wrap_ghosts_periodic();
        } else {
            let ring = Ring::of(&self.comm);
            ring.exchange_ghosts(&mut f.x, tag, &mut self.spare);
            ring.exchange_ghosts(&mut f.y, tag + 10, &mut self.spare);
            ring.exchange_ghosts(&mut f.z, tag + 20, &mut self.spare);
        }
    }

    fn advance_b(&mut self, dt: f64) {
        let g = self.local.spec;
        crate::maxwell::advance_b(&mut self.local.b, &self.local.e, &g, dt);
        self.stale[Which::B as usize] = true;
    }

    /// One distributed PIC step.
    pub fn step(&mut self) {
        let g = self.local.spec;
        let global = self.global;
        let (gx, gy, gz) = global.extents();
        let origin = self.offset_cells as f64;

        self.exchange_vec_ghosts(Which::E);
        self.exchange_vec_ghosts(Which::B);
        self.local.j.clear();

        // Same fused supercell-tiled kernel as the single-domain driver,
        // with the slab origin offsetting the x cell indices. Ghost-cell
        // deposits land in the x halo and are shipped to the neighbours
        // below.
        let edge = self.local.supercell_edge.max(1);
        let local = &mut self.local;
        for sp in &mut local.species {
            fused_push_deposit(
                sp,
                &local.e,
                &local.b,
                &mut local.j,
                &g,
                origin,
                Wrap::PeriodicYz { ly: gy, lz: gz },
                edge,
                &mut local.tile_pool,
            );
        }

        // Current halo reduction.
        if self.comm.size() == 1 {
            self.local.j.reduce_ghosts_periodic();
        } else {
            let ring = Ring::of(&self.comm);
            let j = &mut self.local.j;
            ring.reduce_current_ghosts(&mut j.x, TAG_J, &mut self.spare);
            ring.reduce_current_ghosts(&mut j.y, TAG_J + 10, &mut self.spare);
            ring.reduce_current_ghosts(&mut j.z, TAG_J + 20, &mut self.spare);
        }

        // Field updates with fresh halos at each stage.
        self.exchange_vec_ghosts(Which::E);
        self.advance_b(0.5 * g.dt);
        self.exchange_vec_ghosts(Which::B);
        crate::maxwell::advance_e(&mut self.local.e, &self.local.b, &self.local.j, &g, g.dt);
        self.stale[Which::E as usize] = true;
        self.exchange_vec_ghosts(Which::E);
        self.advance_b(0.5 * g.dt);

        self.migrate_particles(gx);

        self.local.step_index += 1;
        self.local.time += g.dt;
    }

    /// Ship particles that left the slab to their new owners.
    fn migrate_particles(&mut self, global_lx: f64) {
        let x_lo = self.offset_cells as f64 * self.global.dx;
        let x_hi = x_lo + self.local.spec.nx as f64 * self.global.dx;
        let slab_len = self.local.spec.nx as f64 * self.global.dx;
        let spare = &mut self.spare;
        for si in 0..self.local.species.len() {
            // Global periodic wrap in x first (same clamped wrap as the
            // single-domain path, so single-rank runs stay bit-identical).
            for v in &mut self.local.species[si].x {
                *v = wrap_coord(*v, global_lx);
            }
            if self.comm.size() == 1 {
                continue;
            }
            let ring = Ring::of(&self.comm);
            // CFL limits motion to one cell per step, so after the periodic
            // wrap every leaver belongs to the left or right neighbour.
            // Leavers travel as flat bundles of 7 values each.
            let (mut to_left, mut to_right) = (take_buf(spare), take_buf(spare));
            self.local.species[si].drain_outside_x(x_lo, x_hi, |p| {
                let owner = ((p[0] / slab_len) as usize).min(ring.comm.size() - 1);
                if owner == ring.right {
                    to_right.extend_from_slice(&p);
                } else if owner == ring.left {
                    to_left.extend_from_slice(&p);
                } else {
                    panic!(
                        "particle jumped past a neighbour slab: x={} owner={owner} rank={}",
                        p[0],
                        ring.comm.rank()
                    );
                }
            });
            let tag = TAG_PART + si as u64 * 4;
            let (from_right, from_left) = ring.swap(tag, to_left, to_right);
            for bundle in [from_right, from_left] {
                assert_eq!(bundle.len() % 7, 0, "corrupt particle bundle");
                let sp = &mut self.local.species[si];
                for c in bundle.chunks_exact(7) {
                    sp.push(c[0], c[1], c[2], c[3], c[4], c[5], c[6]);
                }
                spare.push(bundle);
            }
        }
    }

    /// Bring the E and B ghost layers up to date (call before any
    /// post-step diagnostic that gathers fields at particle positions,
    /// e.g. the radiation plugin — the final half-B update leaves the B
    /// ghosts one half-step stale otherwise).
    pub fn refresh_ghosts(&mut self) {
        self.exchange_vec_ghosts(Which::E);
        self.exchange_vec_ghosts(Which::B);
    }

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

#[derive(Clone, Copy)]
enum Which {
    E = 0,
    B = 1,
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

    /// Two-rank KHI with two species, stepped as the producer does
    /// (`step` + `refresh_ghosts`); per rank the FNV-1a hash of every
    /// particle coordinate and field value after `steps` steps, and the
    /// messages the world had sent by then.
    fn two_rank_run(exchange_always: bool, steps: usize) -> Vec<(u64, u64)> {
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
                    d.exchange_always = exchange_always;
                    assert_eq!(d.local.species.len(), 2);
                    for _ in 0..steps {
                        d.step();
                        d.refresh_ghosts();
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

    /// Skipping the exchange of a field nobody wrote changes no bit of
    /// the state (ghost layers included), and leaves 28 messages per rank
    /// and step: 18 field-ghost, 6 current-ghost, 4 migration.
    #[test]
    fn stale_only_exchange_is_bitwise_invisible_and_sends_28_messages() {
        let elided = two_rank_run(false, 20);
        let forced = two_rank_run(true, 20);
        for ((hash, _), (forced_hash, _)) in elided.iter().zip(&forced) {
            assert_eq!(
                hash, forced_hash,
                "eliding stale-free exchanges moved a bit"
            );
        }
        assert_ne!(elided[0].0, elided[1].0, "the ranks hold different slabs");
        // Ten more steps of two ranks, start-up and barrier cancelled out.
        let per_rank_step = |long: &[(u64, u64)], short: &[(u64, u64)]| {
            assert_eq!(long[0].1, long[1].1, "one world counter");
            (long[0].1 - short[0].1) / (10 * 2)
        };
        assert_eq!(per_rank_step(&elided, &two_rank_run(false, 10)), 28);
        assert_eq!(per_rank_step(&forced, &two_rank_run(true, 10)), 52);
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

    #[test]
    fn single_rank_distributed_equals_plain_simulation() {
        let g = khi_grid();
        let setup = KhiSetup {
            ppc: 2,
            ..KhiSetup::default()
        };
        let mut plain = setup.build(g);
        plain.sort_interval = 0;
        let comm = CommWorld::new(1).into_endpoints().remove(0);
        let mut dist = DistributedSim::new(comm, g, setup.all_species(&g));
        for _ in 0..10 {
            plain.step();
            dist.step();
        }
        let (pe, pb) = plain.field_energy();
        let (de, db) = dist.global_field_energy();
        assert!((pe - de).abs() / pe.max(1e-30) < 1e-12);
        assert!((pb - db).abs() / pb.max(1e-30) < 1e-12);
    }
}
