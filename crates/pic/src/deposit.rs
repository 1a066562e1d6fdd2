//! Charge-conserving current deposition (Esirkepov 2001, CIC order).
//!
//! The density decomposition scheme: for a particle moving `x⁰ → x¹`
//! (strictly less than one cell per axis, guaranteed by the CFL check),
//! per-axis CIC shape vectors `S⁰`, `S¹` over a 4-point support are
//! combined into the W-brackets
//!
//! `Wx(r,s,t) = ΔSx(r)·[S⁰y S⁰z + ½ΔSy S⁰z + ½S⁰y ΔSz + ⅓ΔSy ΔSz]`
//!
//! and currents accumulate along each axis as a running prefix sum, which
//! satisfies the discrete continuity equation `∂ρ/∂t + ∇·J = 0` **to
//! machine precision** (asserted in the tests). This is the same scheme
//! PIConGPU uses by default.
//!
//! # The window rule
//!
//! With the support based one cell below the start cell, `S⁰` lives on
//! `r = 1, 2` and `S¹` reaches `r = 0` only when the particle moved down
//! a cell. Per axis the non-zero brackets therefore fit a 3-cell window —
//! from `r = 0` if `S¹(0) ≠ 0`, else from `r = 1` — and every bracket
//! outside it is an exact zero. [`deposit_current`] walks, per component,
//! a 3×3 *transverse* window times the full 4-cell prefix axis (whose last
//! cell receives the prefix sum's rounding residue) and adds
//! unconditionally, in z rows: a skipped cell would have received
//! `f·(±0)`, which changes no bit of an accumulator that started at `+0.0`.

use crate::field::VecField3;
use crate::grid::{fast_floor, GridSpec};

/// Destination grid for Esirkepov current contributions.
///
/// [`deposit_current`] is generic over the sink so the same verified
/// kernel serves both the global field (serial reference path) and the
/// per-tile local accumulators of the fused parallel step
/// ([`crate::tile::TileAccumulator`]), which index without periodic
/// wrapping and are reduced into the global field afterwards.
pub trait CurrentSink {
    /// Accumulate `row` into component `c` (0 = x, 1 = y, 2 = z) at cells
    /// `(i, j, k0..k0 + row.len())`.
    fn add_row(&mut self, c: usize, i: isize, j: isize, k0: isize, row: &[f64]);
}

impl CurrentSink for VecField3 {
    #[inline]
    fn add_row(&mut self, c: usize, i: isize, j: isize, k0: isize, row: &[f64]) {
        let f = match c {
            0 => &mut self.x,
            1 => &mut self.y,
            _ => &mut self.z,
        };
        for (t, &v) in row.iter().enumerate() {
            f.add(i, j, k0 + t as isize, v);
        }
    }
}

/// CIC (first-order b-spline) shape function.
#[inline]
fn cic(u: f64) -> f64 {
    let a = 1.0 - u.abs();
    if a > 0.0 {
        a
    } else {
        0.0
    }
}

/// Per-axis Esirkepov shapes of one move over the 4-cell support that
/// starts at cell `base`.
struct Shapes {
    base: [isize; 3],
    /// `S⁰` per axis and support cell.
    s0: [[f64; 4]; 3],
    /// `ΔS = S¹ − S⁰`.
    ds: [[f64; 4]; 3],
    /// First cell of the 3-cell window per axis (see the module docs).
    lo: [usize; 3],
}

impl Shapes {
    #[inline(always)]
    fn new(c0: [f64; 3], c1: [f64; 3]) -> Self {
        let mut sh = Shapes {
            base: [0; 3],
            s0: [[0.0; 4]; 3],
            ds: [[0.0; 4]; 3],
            lo: [1; 3],
        };
        for a in 0..3 {
            debug_assert!(
                (c1[a] - c0[a]).abs() <= 1.0,
                "axis {a} displacement exceeds one cell"
            );
            sh.base[a] = fast_floor(c0[a]) as isize - 1;
            for r in 0..4 {
                let cell = (sh.base[a] + r as isize) as f64;
                let s1 = cic(c1[a] - cell);
                sh.s0[a][r] = cic(c0[a] - cell);
                sh.ds[a][r] = s1 - sh.s0[a][r];
                if r == 0 && s1 != 0.0 {
                    sh.lo[a] = 0;
                }
            }
        }
        sh
    }

    /// The W-bracket of support cells `ra`, `rb` on the axes `a`, `b`.
    #[inline(always)]
    fn bracket(&self, a: usize, ra: usize, b: usize, rb: usize) -> f64 {
        let (sa, da) = (self.s0[a][ra], self.ds[a][ra]);
        let (sb, db) = (self.s0[b][rb], self.ds[b][rb]);
        sa * sb + 0.5 * da * sb + 0.5 * sa * db + da * db / 3.0
    }
}

/// Deposit the current of one particle moving from `(x0,y0,z0)` to
/// `(x1,y1,z1)` with charge `q` (units e) and weight `w` into `j`.
///
/// `x_origin_cell` is the slab origin (global x cell of local cell 0).
///
/// The move must be shorter than one cell per axis. That is only
/// debug-asserted; a longer move in a release build loses the charge
/// whose support falls outside the 4-cell box around the start cell (as
/// the 4×4×4 loop this replaced did) but never writes outside that box,
/// which is all the tile accumulators' unchecked indexing relies on.
#[allow(clippy::too_many_arguments)]
pub fn deposit_current<S: CurrentSink>(
    j: &mut S,
    g: &GridSpec,
    q: f64,
    w: f64,
    x0: f64,
    y0: f64,
    z0: f64,
    x1: f64,
    y1: f64,
    z1: f64,
    x_origin_cell: f64,
) {
    let c0 = [x0 / g.dx - x_origin_cell, y0 / g.dy, z0 / g.dz];
    let c1 = [x1 / g.dx - x_origin_cell, y1 / g.dy, z1 / g.dz];
    let sh = Shapes::new(c0, c1);
    let [bi, bj, bk] = sh.base;
    let [lx, ly, lz] = sh.lo;
    let qw = q * w / (g.dx * g.dy * g.dz);

    // Jx and Jy differ only in which in-plane axis carries the prefix; they
    // stay two loops because one loop over a run-time axis measured 9 %
    // slower on the whole fused pass.
    // Jx: prefix over r, rows along the z window.
    let fx = -qw * g.dx / g.dt;
    for s in ly..ly + 3 {
        let wyz: [f64; 3] = std::array::from_fn(|t| sh.bracket(1, s, 2, lz + t));
        let mut running = [0.0f64; 3];
        for r in 0..4 {
            let mut row = [0.0f64; 3];
            for t in 0..3 {
                running[t] += sh.ds[0][r] * wyz[t];
                row[t] = fx * running[t];
            }
            j.add_row(0, bi + r as isize, bj + s as isize, bk + lz as isize, &row);
        }
    }
    // Jy: prefix over s, rows along the z window.
    let fy = -qw * g.dy / g.dt;
    for r in lx..lx + 3 {
        let wxz: [f64; 3] = std::array::from_fn(|t| sh.bracket(0, r, 2, lz + t));
        let mut running = [0.0f64; 3];
        for s in 0..4 {
            let mut row = [0.0f64; 3];
            for t in 0..3 {
                running[t] += sh.ds[1][s] * wxz[t];
                row[t] = fy * running[t];
            }
            j.add_row(1, bi + r as isize, bj + s as isize, bk + lz as isize, &row);
        }
    }
    // Jz: the prefix axis is the row itself.
    let fz = -qw * g.dz / g.dt;
    for r in lx..lx + 3 {
        for s in ly..ly + 3 {
            let wxy = sh.bracket(0, r, 1, s);
            let mut running = 0.0;
            let row: [f64; 4] = std::array::from_fn(|t| {
                running += sh.ds[2][t] * wxy;
                fz * running
            });
            j.add_row(2, bi + r as isize, bj + s as isize, bk, &row);
        }
    }
}

/// CIC charge-density deposition (diagnostics and the continuity test).
#[allow(clippy::too_many_arguments)]
pub fn deposit_charge(
    rho: &mut crate::field::ScalarField3,
    g: &GridSpec,
    q: f64,
    w: f64,
    x: f64,
    y: f64,
    z: f64,
    x_origin_cell: f64,
) {
    let cx = x / g.dx - x_origin_cell;
    let cy = y / g.dy;
    let cz = z / g.dz;
    let i0 = cx.floor() as isize;
    let j0 = cy.floor() as isize;
    let k0 = cz.floor() as isize;
    let wx = cx - i0 as f64;
    let wy = cy - j0 as f64;
    let wz = cz - k0 as f64;
    let qv = q * w / (g.dx * g.dy * g.dz);
    for (di, vx) in [(0isize, 1.0 - wx), (1, wx)] {
        for (dj, vy) in [(0isize, 1.0 - wy), (1, wy)] {
            for (dk, vz) in [(0isize, 1.0 - wz), (1, wz)] {
                rho.add(i0 + di, j0 + dj, k0 + dk, qv * vx * vy * vz);
            }
        }
    }
}

/// The 4×4×4 kernel [`deposit_current`] replaced — every support cell
/// visited, a cell written only when its running sum is non-zero — kept
/// as the bitwise oracle of the windowed kernel.
#[cfg(test)]
#[allow(clippy::too_many_arguments)]
pub(crate) fn deposit_current_oracle<S: CurrentSink>(
    j: &mut S,
    g: &GridSpec,
    q: f64,
    w: f64,
    x0: f64,
    y0: f64,
    z0: f64,
    x1: f64,
    y1: f64,
    z1: f64,
    x_origin_cell: f64,
) {
    let c0 = [x0 / g.dx - x_origin_cell, y0 / g.dy, z0 / g.dz];
    let c1 = [x1 / g.dx - x_origin_cell, y1 / g.dy, z1 / g.dz];
    let base = c0.map(|c| c.floor() as isize - 1);
    let mut s0 = [[0.0f64; 4]; 3];
    let mut s1 = [[0.0f64; 4]; 3];
    for a in 0..3 {
        for r in 0..4 {
            s0[a][r] = cic(c0[a] - (base[a] + r as isize) as f64);
            s1[a][r] = cic(c1[a] - (base[a] + r as isize) as f64);
        }
    }
    let ds = |a: usize, r: usize| s1[a][r] - s0[a][r];
    let bracket = |a: usize, ra: usize, b: usize, rb: usize| {
        s0[a][ra] * s0[b][rb]
            + 0.5 * ds(a, ra) * s0[b][rb]
            + 0.5 * s0[a][ra] * ds(b, rb)
            + ds(a, ra) * ds(b, rb) / 3.0
    };
    let qw = q * w / (g.dx * g.dy * g.dz);
    let f = [-qw * g.dx / g.dt, -qw * g.dy / g.dt, -qw * g.dz / g.dt];
    // Component `c` runs its prefix along axis `c`; `a`, `b` are the
    // transverse axes in ascending order.
    for (c, (a, b)) in [(1, 2), (0, 2), (0, 1)].into_iter().enumerate() {
        for ra in 0..4 {
            for rb in 0..4 {
                let wab = bracket(a, ra, b, rb);
                let mut running = 0.0;
                for rc in 0..4 {
                    running += ds(c, rc) * wab;
                    if running != 0.0 {
                        let mut cell = [0isize; 3];
                        cell[a] = base[a] + ra as isize;
                        cell[b] = base[b] + rb as isize;
                        cell[c] = base[c] + rc as isize;
                        j.add_row(c, cell[0], cell[1], cell[2], &[f[c] * running]);
                    }
                }
            }
        }
    }
}

/// The grid of the oracle tests: dyadic cell sizes, so the integer cell
/// coordinates among [`oracle_moves`] survive the trip through positions
/// exactly.
#[cfg(test)]
pub(crate) fn oracle_grid() -> GridSpec {
    GridSpec {
        dx: 0.5,
        dy: 0.25,
        dz: 1.0,
        ..GridSpec::cubic(8, 8, 8, 0.25, 0.9)
    }
}

/// Moves that exercise every branch of the window rule, as
/// `(x0, y0, z0, x1, y1, z1)` in cell units around cell `(3, 3, 3)`:
/// a cell crossed in each direction on each axis, no move at all,
/// integer start and end coordinates — then `n` random ones.
#[cfg(test)]
pub(crate) fn oracle_moves(n: usize, seed: u64) -> Vec<[f64; 6]> {
    use rand::{Rng, SeedableRng};
    let mut moves = vec![
        [3.5, 3.5, 3.5, 3.5, 3.5, 3.5],
        [3.0, 3.0, 3.0, 3.0, 3.0, 3.0],
        [3.0, 3.0, 3.0, 4.0, 4.0, 4.0],
        [3.0, 3.0, 3.0, 2.0, 2.0, 2.0],
        [4.0, 3.25, 3.0, 3.5, 3.25, 3.75],
        [3.25, 4.0, 3.75, 3.0, 3.0, 4.0],
    ];
    for axis in 0..3 {
        for (from, to) in [(3.9, 4.3), (3.1, 2.6)] {
            let mut m = [3.4, 3.6, 3.5, 3.45, 3.55, 3.5];
            (m[axis], m[axis + 3]) = (from, to);
            moves.push(m);
        }
    }
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    for _ in 0..n {
        let start: [f64; 3] = std::array::from_fn(|_| rng.gen_range(3.0..4.0));
        let d: [f64; 3] = std::array::from_fn(|_| rng.gen_range(-0.95..0.95));
        moves.push([
            start[0],
            start[1],
            start[2],
            start[0] + d[0],
            start[1] + d[1],
            start[2] + d[2],
        ]);
    }
    moves
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::{ScalarField3, VecField3};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn assert_bitwise_equal(a: &VecField3, b: &VecField3, what: &str) {
        let (nx, ny, nz) = a.x.dims();
        for (name, fa, fb) in [("jx", &a.x, &b.x), ("jy", &a.y, &b.y), ("jz", &a.z, &b.z)] {
            for i in -2..nx as isize + 2 {
                for j in 0..ny as isize {
                    for k in 0..nz as isize {
                        let (va, vb) = (fa.get(i, j, k), fb.get(i, j, k));
                        assert_eq!(
                            va.to_bits(),
                            vb.to_bits(),
                            "{what}: {name}({i},{j},{k}) = {va:e} vs oracle {vb:e}"
                        );
                    }
                }
            }
        }
    }

    /// The windowed kernel against the 4×4×4 oracle through the global
    /// sink, bit for bit: single particles and a field many particles
    /// accumulated into, with and without a slab origin.
    #[test]
    fn windowed_deposit_equals_the_oracle_bitwise() {
        for origin in [0.0, 5.0] {
            let g = oracle_grid();
            let mut sum_new = VecField3::zeros(8, 8, 8);
            let mut sum_old = VecField3::zeros(8, 8, 8);
            for (n, m) in oracle_moves(300, 17).into_iter().enumerate() {
                let pos = |c: f64, d: f64, o: f64| (c + o) * d;
                let (q, w) = (if n % 2 == 0 { -1.0 } else { 1.0 }, 0.5 + n as f64 * 0.01);
                let args = (
                    pos(m[0], g.dx, origin),
                    pos(m[1], g.dy, 0.0),
                    pos(m[2], g.dz, 0.0),
                    pos(m[3], g.dx, origin),
                    pos(m[4], g.dy, 0.0),
                    pos(m[5], g.dz, 0.0),
                );
                let mut one_new = VecField3::zeros(8, 8, 8);
                let mut one_old = VecField3::zeros(8, 8, 8);
                for (new, old) in [(&mut one_new, &mut one_old), (&mut sum_new, &mut sum_old)] {
                    let (x0, y0, z0, x1, y1, z1) = args;
                    deposit_current(new, &g, q, w, x0, y0, z0, x1, y1, z1, origin);
                    deposit_current_oracle(old, &g, q, w, x0, y0, z0, x1, y1, z1, origin);
                }
                assert_bitwise_equal(&one_new, &one_old, &format!("move {n} {m:?}"));
            }
            assert_bitwise_equal(&sum_new, &sum_old, "accumulated");
        }
    }

    /// The headline property: discrete continuity to machine precision.
    #[test]
    fn esirkepov_satisfies_discrete_continuity() {
        let g = GridSpec::cubic(8, 8, 8, 1.0, 0.9);
        let mut rng = StdRng::seed_from_u64(42);
        for trial in 0..50 {
            let mut j = VecField3::zeros(8, 8, 8);
            let mut rho0 = ScalarField3::zeros(8, 8, 8);
            let mut rho1 = ScalarField3::zeros(8, 8, 8);
            // Keep positions away from the x-ghost boundary so all support
            // cells stay in the addressable range (interior test).
            let x0 = rng.gen_range(2.0..6.0);
            let y0 = rng.gen_range(0.0..8.0);
            let z0 = rng.gen_range(0.0..8.0);
            let dx = rng.gen_range(-0.9..0.9);
            let dy = rng.gen_range(-0.9..0.9);
            let dz = rng.gen_range(-0.9..0.9);
            let (x1, y1, z1) = (x0 + dx, y0 + dy, z0 + dz);
            let q = if trial % 2 == 0 { -1.0 } else { 1.0 };
            let w = rng.gen_range(0.5..2.0);
            deposit_current(&mut j, &g, q, w, x0, y0, z0, x1, y1, z1, 0.0);
            deposit_charge(&mut rho0, &g, q, w, x0, y0, z0, 0.0);
            deposit_charge(&mut rho1, &g, q, w, x1, y1, z1, 0.0);
            // Continuity at every interior cell: (ρ¹−ρ⁰)/dt + ∇·J = 0.
            for i in 1..7isize {
                for jj in 0..8isize {
                    for k in 0..8isize {
                        let drho = (rho1.get(i, jj, k) - rho0.get(i, jj, k)) / g.dt;
                        let divj = (j.x.get(i, jj, k) - j.x.get(i - 1, jj, k)) / g.dx
                            + (j.y.get(i, jj, k) - j.y.get(i, jj - 1, k)) / g.dy
                            + (j.z.get(i, jj, k) - j.z.get(i, jj, k - 1)) / g.dz;
                        assert!(
                            (drho + divj).abs() < 1e-12,
                            "continuity violated at ({i},{jj},{k}): {}",
                            drho + divj
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn stationary_particle_deposits_no_current() {
        let g = GridSpec::cubic(8, 8, 8, 1.0, 0.9);
        let mut j = VecField3::zeros(8, 8, 8);
        deposit_current(&mut j, &g, -1.0, 1.0, 3.3, 4.4, 5.5, 3.3, 4.4, 5.5, 0.0);
        assert_eq!(j.x.sq_sum_interior(), 0.0);
        assert_eq!(j.y.sq_sum_interior(), 0.0);
        assert_eq!(j.z.sq_sum_interior(), 0.0);
    }

    #[test]
    fn total_current_matches_q_w_v() {
        // Σ_cells J·V_cell = q w v for a single particle (first moment).
        let g = GridSpec::cubic(8, 8, 8, 0.5, 0.9);
        let mut j = VecField3::zeros(8, 8, 8);
        let (x0, y0, z0) = (2.0, 2.0, 2.0);
        let v = (0.3, -0.1, 0.2);
        let (x1, y1, z1) = (x0 + v.0 * g.dt, y0 + v.1 * g.dt, z0 + v.2 * g.dt);
        let q = -1.0;
        let w = 1.7;
        deposit_current(&mut j, &g, q, w, x0, y0, z0, x1, y1, z1, 0.0);
        let vol = g.dx * g.dy * g.dz;
        let sum = |f: &ScalarField3| {
            let mut acc = 0.0;
            for i in -2..10 {
                for jj in 0..8 {
                    for k in 0..8 {
                        acc += f.get(i, jj, k);
                    }
                }
            }
            acc * vol
        };
        assert!((sum(&j.x) - q * w * v.0).abs() < 1e-12, "{}", sum(&j.x));
        assert!((sum(&j.y) - q * w * v.1).abs() < 1e-12);
        assert!((sum(&j.z) - q * w * v.2).abs() < 1e-12);
    }

    #[test]
    fn charge_deposition_sums_to_total_charge() {
        let g = GridSpec::cubic(4, 4, 4, 0.5, 0.9);
        let mut rho = ScalarField3::zeros(4, 4, 4);
        deposit_charge(&mut rho, &g, -1.0, 2.0, 1.1, 0.7, 0.9, 0.0);
        let vol = g.dx * g.dy * g.dz;
        let mut total = 0.0;
        for i in -2..6 {
            for j in 0..4 {
                for k in 0..4 {
                    total += rho.get(i, j, k) * vol;
                }
            }
        }
        assert!((total + 2.0).abs() < 1e-12);
    }

    #[test]
    fn slab_origin_shifts_deposition() {
        let g = GridSpec::cubic(4, 4, 4, 1.0, 0.9);
        let mut j = VecField3::zeros(4, 4, 4);
        // Global x≈5 on a slab with origin at global cell 4 → local cell 1.
        deposit_current(&mut j, &g, -1.0, 1.0, 5.2, 1.0, 1.0, 5.4, 1.0, 1.0, 4.0);
        let mut near = 0.0;
        for i in 0..3isize {
            for jj in 0..3 {
                for k in 0..3 {
                    near += j.x.get(i, jj, k).abs();
                }
            }
        }
        assert!(near > 0.0, "current must land in local cells");
    }
}
