//! Gauss's law as a property of the whole step, across tiles, slab seams
//! and ghost layers.
//!
//! The zigzag deposit satisfies the discrete continuity equation and the
//! Yee divergence of a Yee curl vanishes, so the residual `∇·E − ρ` at
//! every node — Yee divergence of E against the CIC charge of all species
//! — must stay at its initial value through any number of steps. A lost,
//! doubled or misplaced current contribution (a tile halo, a slab seam, a
//! ghost fold, a lane of a particle group) breaks it at the cells it
//! touches.
//!
//! Each rank deposits the charge of its own particles with its slab origin
//! into a field with ghost layers; the global residual folds those
//! ghosts periodically and reads the ranks' E interiors at their offsets.
//!
//! **Tolerance.** Only round-off may move the residual: every step adds
//! `dt·(∇×B − J)` to E, whose rounding is a few ε of |E| per cell and
//! which the divergence scales by up to 6/d, and ρ is a sum of CIC
//! shares rounded to a few ε of |ρ|. The bound is therefore
//! `64·ε·(steps + 1)·(6·max|E|/d + max|ρ|)`, about 10⁻¹³ for these
//! configurations, whose residuals move by at most ≈ 10⁻¹⁵; a misplaced
//! particle contribution is of order `w/V ≈ 1/ppc`.

use as_cluster::comm::CommWorld;
use as_pic::deposit::deposit_charge;
use as_pic::domain::DistributedSim;
use as_pic::field::{ScalarField3, VecField3, GHOSTS};
use as_pic::grid::GridSpec;
use as_pic::khi::KhiSetup;
use proptest::prelude::*;

/// What one rank contributes to the global residual at one instant: its
/// slab offset, E on its interior cells, and the charge of its particles
/// with the ghost layers the CIC support spilled into.
struct RankView {
    offset: usize,
    e: VecField3,
    rho: ScalarField3,
}

fn view(d: &DistributedSim) -> RankView {
    let sim = &d.local;
    let (nx, ny, nz) = sim.e.x.dims();
    let mut rho = ScalarField3::zeros(nx, ny, nz);
    let origin = d.offset_cells as f64;
    for sp in &sim.species {
        for i in 0..sp.len() {
            let (x, y, z, w) = (sp.x[i], sp.y[i], sp.z[i], sp.w[i]);
            deposit_charge(&mut rho, &sim.spec, sp.charge, w, x, y, z, origin);
        }
    }
    RankView {
        offset: d.offset_cells,
        e: sim.e.clone(),
        rho,
    }
}

/// `∇·E − ρ` at every node of the global grid, with the largest |E|/d and
/// |ρ| (the residual's round-off scale).
fn residual(g: &GridSpec, ranks: &[RankView]) -> (Vec<f64>, f64) {
    let (nx, ny, nz) = (g.nx, g.ny, g.nz);
    let mut e = VecField3::zeros(nx, ny, nz);
    let mut rho = ScalarField3::zeros(nx, ny, nz);
    for r in ranks {
        let local_nx = r.e.x.dims().0 as isize;
        for i in -(GHOSTS as isize)..local_nx + GHOSTS as isize {
            let gi = (r.offset as isize + i).rem_euclid(nx as isize);
            for j in 0..ny as isize {
                for k in 0..nz as isize {
                    rho.add(gi, j, k, r.rho.get(i, j, k));
                    if (0..local_nx).contains(&i) {
                        e.x.set(gi, j, k, r.e.x.get(i, j, k));
                        e.y.set(gi, j, k, r.e.y.get(i, j, k));
                        e.z.set(gi, j, k, r.e.z.get(i, j, k));
                    }
                }
            }
        }
    }
    e.wrap_ghosts_periodic();
    let d = g.dx.min(g.dy).min(g.dz);
    let mut scale = 0.0f64;
    let mut out = Vec::with_capacity(g.cells());
    for i in 0..nx as isize {
        for j in 0..ny as isize {
            for k in 0..nz as isize {
                let div = (e.x.get(i, j, k) - e.x.get(i - 1, j, k)) / g.dx
                    + (e.y.get(i, j, k) - e.y.get(i, j - 1, k)) / g.dy
                    + (e.z.get(i, j, k) - e.z.get(i, j, k - 1)) / g.dz;
                let emax = [&e.x, &e.y, &e.z]
                    .iter()
                    .map(|f| f.get(i, j, k).abs())
                    .fold(0.0, f64::max);
                scale = scale.max(6.0 * emax / d).max(rho.get(i, j, k).abs());
                out.push(div - rho.get(i, j, k));
            }
        }
    }
    (out, scale)
}

/// Run `steps` steps of the KHI plasma on `world` slabs; every rank's view
/// before and after.
fn run(g: GridSpec, setup: KhiSetup, world: usize, steps: usize) -> [Vec<RankView>; 2] {
    let handles: Vec<_> = CommWorld::new(world)
        .into_endpoints()
        .into_iter()
        .map(|comm| {
            std::thread::spawn(move || {
                let mut d = DistributedSim::new(comm, g, setup.all_species(&g));
                let before = view(&d);
                for _ in 0..steps {
                    d.step();
                }
                (before, view(&d))
            })
        })
        .collect();
    let (before, after) = handles
        .into_iter()
        .map(|h| h.join().expect("rank thread"))
        .unzip();
    [before, after]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The residual after `steps` fused steps equals the initial one at
    /// every node, at 1, 2 and 4 slabs, to the round-off bound of the
    /// module docs.
    #[test]
    fn gauss_residual_is_conserved_across_tiles_seams_and_ghosts(
        world_pick in 0usize..3,
        slab in 2usize..5,
        ny in 3usize..10,
        nz in 2usize..7,
        d in 0.3f64..0.7,
        ppc in 1usize..4,
        beta in 0.05f64..0.4,
        thermal_u in 0.0f64..0.08,
        seed in 0u64..1_000_000,
        steps in 2usize..7,
    ) {
        let world = [1, 2, 4][world_pick];
        let g = GridSpec::cubic(world * slab, ny, nz, d, 0.5);
        let setup = KhiSetup { ppc, beta, thermal_u, seed, ..KhiSetup::default() };
        let [before, after] = run(g, setup, world, steps);
        let (r0, s0) = residual(&g, &before);
        let (r1, s1) = residual(&g, &after);
        let tol = 64.0 * f64::EPSILON * (steps + 1) as f64 * s0.max(s1);
        let (worst, at) = r0
            .iter()
            .zip(&r1)
            .map(|(a, b)| (a - b).abs())
            .enumerate()
            .fold((0.0f64, 0), |(m, at), (n, v)| if v > m { (v, n) } else { (m, at) });
        prop_assert!(
            worst <= tol,
            "world {} grid {}x{}x{}: residual moved by {:e} at node {} (tolerance {:e})",
            world, g.nx, g.ny, g.nz, worst, at, tol
        );
        prop_assert!(s1 > 0.0);
    }
}
