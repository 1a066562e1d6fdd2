//! Charge-conserving current deposition at CIC order: "Esirkepov meets
//! ZigZag" (EmZ), the cheaper of PIConGPU's two charge-conserving
//! deposits.
//!
//! # The split
//!
//! Per axis, a move `c⁰ → c¹` in cell units (`i⁰ = ⌊c⁰⌋`, `i¹ = ⌊c¹⌋`)
//! is split at the relay point
//!
//! `r = min(min(i⁰, i¹) + 1, max(max(i⁰, i¹), (c⁰ + c¹)/2))`,
//!
//! the cell face the move crosses, or its midpoint when it crosses none.
//! The zigzag `c⁰ → r → c¹` is two segments, each inside one cell on every
//! axis: the first in `i⁰`, the second in `i¹`.
//!
//! # One cell
//!
//! Give a segment, per axis, its displacement `d` and the offset `m` of
//! its midpoint in its cell, so that `S̄(0) = 1 − m`, `S̄(1) = m` are the
//! CIC weights of the midpoint on the cell's two nodes and `ΔS(σ) = ∓d`.
//! Esirkepov's W-bracket on that cell is then
//!
//! `S⁰ₐS⁰_b + ½ΔSₐS⁰_b + ½S⁰ₐΔS_b + ⅓ΔSₐΔS_b = S̄ₐS̄_b + ΔSₐΔS_b/12`,
//!
//! so the segment adds `qw·d_c·Δ_c/Δt·[S̄ₐ(σ)·S̄_b(τ) + (−1)^{σ+τ}·dₐd_b/12]`
//! to `J_c` at `(cell_c, cellₐ + σ, cell_b + τ)` for `σ, τ ∈ {0, 1}`, `a`
//! and `b` the other two axes: a 2×2×2 block of cells per segment
//! ([`CurrentSink::add_segment`]), 24 accumulator adds per particle (16
//! rows along z), with no prefix sums and no divisions, where Esirkepov
//! on the 4-cell support formed 27 brackets and 108 adds in 33 rows.
//! Each segment's current is Esirkepov's current of that segment,
//! so the zigzag satisfies the discrete continuity equation
//! `∂ρ/∂t + ∇·J = 0` to round-off (asserted in the tests). Its current
//! differs from that of Esirkepov's straight move by a divergence-free
//! field, and equals it when the move stays inside one cell.
//!
//! **The `dₐd_b/12` term is required.** The midpoint products alone, the
//! 2-D zigzag of Umeda et al., give `∇·J` the terms of the CIC charge
//! change that are linear and quadratic in the displacement but only ¾ of
//! the cubic one: every node of the cell misses `±d_x·d_y·d_z/4` of its
//! charge change, and Gauss's law drifts.
//!
//! # Lanes
//!
//! `deposit_current_lanes` runs `L` moves at once: the relays, the
//! midpoints and the 24 current values are [`Lanes`] arithmetic (minima
//! and maxima by bit-pattern select, so no lane branches), each lane the
//! one-move formula op for op. The values are scattered per particle,
//! both segments of lane `l` before any of lane `l + 1` — the order
//! one-at-a-time deposition adds them in — so the sink's bits do not
//! depend on the lane count. [`deposit_current`] is the one-lane
//! instance.

use crate::field::VecField3;
use crate::grid::GridSpec;
use crate::lanes::Lanes;

/// Destination grid for current contributions.
///
/// [`deposit_current`] is generic over the sink so the same verified
/// kernel serves both the global field (serial reference path) and the
/// per-tile local accumulators of the fused parallel step
/// ([`crate::tile::TileAccumulator`]), which index without periodic
/// wrapping and are reduced into the global field afterwards.
pub trait CurrentSink {
    /// Accumulate one zigzag segment in cell `(i, j, k)`: `v[c][2σ + τ]`
    /// into component `c` (0 = x, 1 = y, 2 = z) at the node `(σ, τ)` of
    /// its transverse axes — `jx` at `(i, j + σ, k + τ)`, `jy` at
    /// `(i + σ, j, k + τ)`, `jz` at `(i + σ, j + τ, k)`.
    fn add_segment(&mut self, cell: [isize; 3], v: &[[f64; 4]; 3]);
}

impl CurrentSink for VecField3 {
    #[inline]
    fn add_segment(&mut self, [i, j, k]: [isize; 3], [jx, jy, jz]: &[[f64; 4]; 3]) {
        for (n, (s, t)) in [(0, 0), (0, 1), (1, 0), (1, 1)].into_iter().enumerate() {
            self.x.add(i, j + s, k + t, jx[n]);
            self.y.add(i + s, j, k + t, jy[n]);
            self.z.add(i + s, j + t, k, jz[n]);
        }
    }
}

/// `1/12` of the cross term (see the module docs).
const TWELFTH: f64 = 1.0 / 12.0;

/// One axis of `L` moves split at their relay points (see the module
/// docs): each segment's cell, displacement and midpoint weights.
struct Axis<const L: usize> {
    /// The segments' cells, `i⁰` and `i¹`.
    cell: [Lanes<L>; 2],
    /// The segments' displacements in cell units.
    d: [Lanes<L>; 2],
    /// The segments' midpoint weights `[S̄(0), S̄(1)]`.
    s: [[Lanes<L>; 2]; 2],
}

impl<const L: usize> Axis<L> {
    /// The split moves `c0 → c1` in cell units.
    #[inline(always)]
    fn new(c0: Lanes<L>, c1: Lanes<L>) -> Self {
        for l in 0..L {
            debug_assert!(
                (c1.0[l] - c0.0[l]).abs() <= 1.0,
                "displacement exceeds one cell"
            );
        }
        let i0 = c0.floor();
        // A longer move (see `deposit_current`) ends clamped into
        // `[i⁰ − 1, i⁰ + 2]`, in a cell of `[i⁰ − 1, i⁰ + 1]`; for a move
        // under a cell both clamps are the identity. The bound comes first
        // because `max` keeps `self` where the compare fails: a NaN end
        // becomes `i⁰ − 1`, not a NaN cell index.
        let c1 = (i0 - 1.0).max(c1).min(i0 + 2.0);
        let i1 = c1.floor().min(i0 + 1.0);
        let relay = (i0.min(i1) + 1.0).min(i0.max(i1).max((c0 + c1) * 0.5));
        let m0 = (c0 + relay) * 0.5 - i0;
        let m1 = (relay + c1) * 0.5 - i1;
        Axis {
            cell: [i0, i1],
            d: [relay - c0, c1 - relay],
            s: [[1.0 - m0, m0], [1.0 - m1, m1]],
        }
    }
}

/// Deposit the current of one particle moving from `(x0,y0,z0)` to
/// `(x1,y1,z1)` with charge `q` (units e) and weight `w` into `j`:
/// `deposit_current_lanes` at one lane.
///
/// `x_origin_cell` is the slab origin (global x cell of local cell 0).
///
/// **Moves longer than a cell.** The CFL check keeps every move under
/// one cell per axis, and only a debug build asserts it. A release build
/// given a longer move clamps its end, per axis, into `[i⁰ − 1, i⁰ + 2]`
/// (`i⁰` the start cell) and deposits the charge-conserving current of
/// the clamped move; the charge of the part clamped off is lost. An
/// infinite end clamps the same way and a NaN end to `i⁰ − 1`. Every
/// write therefore stays inside the 4-cell box `[i⁰ − 1, i⁰ + 2]` around
/// the start cell, which is all the tile accumulators' unchecked indexing
/// relies on
/// (`tile::tests::long_moves_stay_in_the_box_and_conserve_the_clamped_charge`).
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
    let lane = Lanes::<1>::splat;
    let (r0, r1) = ([x0, y0, z0].map(lane), [x1, y1, z1].map(lane));
    deposit_current_lanes(j, g, q, lane(w), r0, r1, x_origin_cell, 1);
}

/// [`deposit_current`] of `L` moves `r0 → r1` (per axis) with weights
/// `w`, of which the first `live` lanes are deposited — in lane order,
/// each lane's segments before the next lane's (see the module docs). The
/// other lanes are computed and dropped.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
pub(crate) fn deposit_current_lanes<S: CurrentSink, const L: usize>(
    j: &mut S,
    g: &GridSpec,
    q: f64,
    w: Lanes<L>,
    r0: [Lanes<L>; 3],
    r1: [Lanes<L>; 3],
    x_origin_cell: f64,
    live: usize,
) {
    let [x, y, z] = [
        Axis::new(r0[0] / g.dx - x_origin_cell, r1[0] / g.dx - x_origin_cell),
        Axis::new(r0[1] / g.dy, r1[1] / g.dy),
        Axis::new(r0[2] / g.dz, r1[2] / g.dz),
    ];
    let qw = q * w / (g.dx * g.dy * g.dz);
    let f = [qw * g.dx / g.dt, qw * g.dy / g.dt, qw * g.dz / g.dt];
    // Segment `seg`'s contribution to component `c` (transverse axes
    // `a < b`) at the transverse nodes (σ, τ) = (0, 0), (0, 1), (1, 0),
    // (1, 1).
    let current = |seg: usize, c: &Axis<L>, fc: Lanes<L>, a: &Axis<L>, b: &Axis<L>| {
        let amp = fc * c.d[seg];
        let cross = a.d[seg] * b.d[seg] * TWELFTH;
        let ([sa0, sa1], [sb0, sb1]) = (a.s[seg], b.s[seg]);
        [
            amp * (sa0 * sb0 + cross),
            amp * (sa0 * sb1 - cross),
            amp * (sa1 * sb0 - cross),
            amp * (sa1 * sb1 + cross),
        ]
    };
    let segment = |seg: usize| {
        [
            current(seg, &x, f[0], &y, &z),
            current(seg, &y, f[1], &x, &z),
            current(seg, &z, f[2], &x, &y),
        ]
    };
    let segments = [segment(0), segment(1)];

    // (`array::map` is left out of this loop: it does not always inline.)
    for l in 0..live {
        for (seg, [jx, jy, jz]) in segments.iter().enumerate() {
            let cell = |a: &Axis<L>| a.cell[seg].0[l] as isize;
            let lane = |v: &[Lanes<L>; 4]| [v[0].0[l], v[1].0[l], v[2].0[l], v[3].0[l]];
            j.add_segment(
                [cell(&x), cell(&y), cell(&z)],
                &[lane(jx), lane(jy), lane(jz)],
            );
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

/// Esirkepov's deposit (2001) on the 4-cell CIC support, the deposit
/// [`deposit_current`] replaced, kept as the reference of its contract
/// tests: every support cell visited, a cell written only when its
/// running sum is non-zero.
#[cfg(test)]
#[allow(clippy::too_many_arguments)]
pub(crate) fn deposit_current_oracle(
    j: &mut VecField3,
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
    let cic = |u: f64| (1.0 - u.abs()).max(0.0);
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
                        let field = match c {
                            0 => &mut j.x,
                            1 => &mut j.y,
                            _ => &mut j.z,
                        };
                        field.add(cell[0], cell[1], cell[2], f[c] * running);
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

/// Moves that exercise every branch of the relay rule, as
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

/// The moves of [`oracle_moves`] as positions on [`oracle_grid`] with a
/// slab origin, each with its charge and weight.
#[cfg(test)]
pub(crate) fn oracle_particles(n: usize, seed: u64, origin: f64) -> Vec<([f64; 6], f64, f64)> {
    let g = oracle_grid();
    let d = [g.dx, g.dy, g.dz];
    oracle_moves(n, seed)
        .into_iter()
        .enumerate()
        .map(|(n, m)| {
            let at = |c: usize| (m[c] + if c.is_multiple_of(3) { origin } else { 0.0 }) * d[c % 3];
            let q = if n % 2 == 0 { -1.0 } else { 1.0 };
            (std::array::from_fn(at), q, 0.5 + n as f64 * 0.01)
        })
        .collect()
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
                            "{what}: {name}({i},{j},{k}) = {va:e} vs {vb:e}"
                        );
                    }
                }
            }
        }
    }

    /// `∇·J` at node `(i, j, k)` (the divergence the continuity equation
    /// takes).
    fn divergence(j: &VecField3, g: &GridSpec, i: isize, jj: isize, k: isize) -> f64 {
        (j.x.get(i, jj, k) - j.x.get(i - 1, jj, k)) / g.dx
            + (j.y.get(i, jj, k) - j.y.get(i, jj - 1, k)) / g.dy
            + (j.z.get(i, jj, k) - j.z.get(i, jj, k - 1)) / g.dz
    }

    /// The lane kernel against its one-lane instance through the global
    /// sink, bit for bit: [`LANES`](crate::tile::LANES) moves at a time
    /// with a partial last group, into a field many particles accumulate
    /// into, with and without a slab origin.
    #[test]
    fn lane_kernel_equals_the_one_lane_instance_bitwise() {
        use crate::tile::LANES;
        let g = oracle_grid();
        for origin in [0.0, 5.0] {
            let particles = oracle_particles(301, 17, origin);
            assert_ne!(particles.len() % LANES, 0, "the last group must be partial");
            let mut one = VecField3::zeros(8, 8, 8);
            for &([x0, y0, z0, x1, y1, z1], _, w) in &particles {
                deposit_current(&mut one, &g, -1.0, w, x0, y0, z0, x1, y1, z1, origin);
            }
            let mut lanes = VecField3::zeros(8, 8, 8);
            for group in particles.chunks(LANES) {
                let lane = |l: usize| group[l.min(group.len() - 1)];
                let r0 = std::array::from_fn(|a| Lanes::<LANES>::from_fn(|l| lane(l).0[a]));
                let r1 = std::array::from_fn(|a| Lanes::from_fn(|l| lane(l).0[3 + a]));
                let w = Lanes::from_fn(|l| lane(l).2);
                deposit_current_lanes(&mut lanes, &g, -1.0, w, r0, r1, origin, group.len());
            }
            assert_bitwise_equal(&lanes, &one, &format!("origin {origin}"));
            assert!(one.x.sq_sum_interior() > 0.0);
        }
    }

    /// A move that stays inside one cell on every axis deposits
    /// Esirkepov's current, to round-off: the zigzag's two halves add up
    /// to the straight move.
    #[test]
    fn moves_inside_one_cell_deposit_esirkepov_current() {
        let g = oracle_grid();
        let mut inside = 0;
        for ([x0, y0, z0, x1, y1, z1], q, w) in oracle_particles(600, 29, 0.0) {
            let (c0, c1) = (
                [x0 / g.dx, y0 / g.dy, z0 / g.dz],
                [x1 / g.dx, y1 / g.dy, z1 / g.dz],
            );
            if (0..3).any(|a| c0[a].floor() != c1[a].floor()) {
                continue;
            }
            inside += 1;
            let mut emz = VecField3::zeros(8, 8, 8);
            let mut esirkepov = VecField3::zeros(8, 8, 8);
            deposit_current(&mut emz, &g, q, w, x0, y0, z0, x1, y1, z1, 0.0);
            deposit_current_oracle(&mut esirkepov, &g, q, w, x0, y0, z0, x1, y1, z1, 0.0);
            let scale = [&esirkepov.x, &esirkepov.y, &esirkepov.z]
                .iter()
                .flat_map(|f| f.raw().iter())
                .fold(0.0f64, |m, v| m.max(v.abs()));
            for (a, b) in [
                (&emz.x, &esirkepov.x),
                (&emz.y, &esirkepov.y),
                (&emz.z, &esirkepov.z),
            ] {
                for (u, v) in a.raw().iter().zip(b.raw()) {
                    assert!(
                        (u - v).abs() <= 16.0 * f64::EPSILON * scale,
                        "{c0:?} → {c1:?}: {u:e} vs Esirkepov {v:e}"
                    );
                }
            }
        }
        assert!(inside > 50, "only {inside} moves stayed inside one cell");
    }

    /// Any move: the zigzag's current and Esirkepov's differ by a
    /// divergence-free field, to round-off, at every node.
    #[test]
    fn emz_and_esirkepov_currents_have_the_same_divergence() {
        let g = oracle_grid();
        for ([x0, y0, z0, x1, y1, z1], q, w) in oracle_particles(600, 31, 0.0) {
            let mut emz = VecField3::zeros(8, 8, 8);
            let mut esirkepov = VecField3::zeros(8, 8, 8);
            deposit_current(&mut emz, &g, q, w, x0, y0, z0, x1, y1, z1, 0.0);
            deposit_current_oracle(&mut esirkepov, &g, q, w, x0, y0, z0, x1, y1, z1, 0.0);
            let scale = [&esirkepov.x, &esirkepov.y, &esirkepov.z]
                .iter()
                .flat_map(|f| f.raw().iter())
                .fold(0.0f64, |m, v| m.max(v.abs()))
                / g.dx.min(g.dy).min(g.dz);
            for i in -1..10isize {
                for jj in 0..8isize {
                    for k in 0..8isize {
                        let div =
                            divergence(&emz, &g, i, jj, k) - divergence(&esirkepov, &g, i, jj, k);
                        assert!(
                            div.abs() <= 64.0 * f64::EPSILON * scale,
                            "move {:?}: ∇·(J_EmZ − J_Esirkepov) = {div:e} at ({i},{jj},{k})",
                            [x0, y0, z0, x1, y1, z1]
                        );
                    }
                }
            }
        }
    }

    /// The headline property: discrete continuity to machine precision.
    #[test]
    fn emz_satisfies_discrete_continuity() {
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
