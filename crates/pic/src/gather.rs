//! CIC (cloud-in-cell) field interpolation at particle positions,
//! respecting the Yee staggering of each component.
//!
//! A component sits at stagger 0 or ½ on each axis, so the six components
//! of `E` and `B` share two CIC supports per axis: a gather divides once
//! and floors twice per axis (`supports`) and runs one trilinear body
//! (`gather_six`) — over the global fields here, over a tile's cached
//! [`crate::tile::FieldPatch`] in the fused step.
//!
//! The tile view gathers [`crate::tile::LANES`] particles at once:
//! divisions, floors, weights and the trilinear sums are [`Lanes`]
//! arithmetic, only the field loads are per lane. Every lane computes the
//! one-particle formula op for op, so [`gather_eb`] over the global fields
//! is the same body at one lane.

use crate::field::{ScalarField3, VecField3};
use crate::grid::GridSpec;
use crate::lanes::Lanes;

/// CIC support of one coordinate at one stagger, per lane: storage
/// offsets of the lower and upper cell along the axis, and the weight of
/// the upper one.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Support<const L: usize> {
    lo: [usize; L],
    hi: [usize; L],
    w: Lanes<L>,
}

/// The two supports of cell coordinates `q = x/dx`: stagger 0 and
/// stagger ½, relative to `origin`. `resolve` maps a cell index to its
/// storage offset: ghost offset, periodic wrap or tile-view offset, times
/// the axis stride, so a corner's flat index is the sum of three.
#[inline(always)]
pub(crate) fn supports<const L: usize>(
    q: Lanes<L>,
    origin: f64,
    resolve: impl Fn(isize) -> usize,
) -> [Support<L>; 2] {
    let at = |c: Lanes<L>| {
        let cell = c.floor();
        let i = cell.0.map(|v| v as isize);
        Support {
            lo: i.map(&resolve),
            hi: i.map(|i| resolve(i + 1)),
            w: c - cell,
        }
    };
    [at(q - origin), at(q - 0.5 - origin)]
}

/// Which stagger (0 → 0, 1 → ½) each component takes per axis, in gather
/// order Ex, Ey, Ez, Bx, By, Bz.
const STAGGER: [[usize; 3]; 6] = [
    [1, 0, 0],
    [0, 1, 0],
    [0, 0, 1],
    [0, 1, 1],
    [1, 0, 1],
    [1, 1, 0],
];

/// The trilinear body: all six components from the per-axis supports
/// (`axes[a][stagger]`) of `L` positions. `at(c, idx)` reads component
/// `c` at flat index `idx`. A plain loop, not `std::array::from_fn`,
/// whose closure the compiler may leave out of line — and then compiled
/// for the baseline target inside an AVX2 instance.
#[inline(always)]
pub(crate) fn gather_six<const L: usize>(
    at: impl Fn(usize, usize) -> f64,
    axes: &[[Support<L>; 2]; 3],
) -> [Lanes<L>; 6] {
    let mut out = [Lanes([0.0; L]); 6];
    for (c, out) in out.iter_mut().enumerate() {
        let x = &axes[0][STAGGER[c][0]];
        let y = &axes[1][STAGGER[c][1]];
        let z = &axes[2][STAGGER[c][2]];
        // Corner (i, j, k) of every lane, `i`, `j`, `k` lower or upper.
        let corner = |i: &[usize; L], j: &[usize; L], k: &[usize; L]| {
            Lanes::from_fn(|l| at(c, i[l] + j[l] + k[l]))
        };
        let (wx, wy, wz) = (x.w, y.w, z.w);
        *out = (1.0 - wx) * (1.0 - wy) * (1.0 - wz) * corner(&x.lo, &y.lo, &z.lo)
            + (1.0 - wx) * (1.0 - wy) * wz * corner(&x.lo, &y.lo, &z.hi)
            + (1.0 - wx) * wy * (1.0 - wz) * corner(&x.lo, &y.hi, &z.lo)
            + (1.0 - wx) * wy * wz * corner(&x.lo, &y.hi, &z.hi)
            + wx * (1.0 - wy) * (1.0 - wz) * corner(&x.hi, &y.lo, &z.lo)
            + wx * (1.0 - wy) * wz * corner(&x.hi, &y.lo, &z.hi)
            + wx * wy * (1.0 - wz) * corner(&x.hi, &y.hi, &z.lo)
            + wx * wy * wz * corner(&x.hi, &y.hi, &z.hi);
    }
    out
}

/// E and B interpolated at one particle position, through the supports
/// and trilinear body of the fused pass's tile view at one lane.
///
/// `x_origin_cell` is the x cell index of this rank's slab origin (0 in
/// single-domain mode). Returns `(ex, ey, ez, bx, by, bz)`.
#[allow(clippy::too_many_arguments)]
pub fn gather_eb(
    e: &VecField3,
    b: &VecField3,
    g: &GridSpec,
    x: f64,
    y: f64,
    z: f64,
    x_origin_cell: f64,
) -> (f64, f64, f64, f64, f64, f64) {
    let f = &e.x;
    let (_, ny, nz) = f.dims();
    debug_assert!(
        [&e.y, &e.z, &b.x, &b.y, &b.z]
            .iter()
            .all(|c| c.dims() == f.dims()),
        "E and B components must share dimensions"
    );
    let rows = f.raw().len() / (ny * nz);
    let x_row = |i: isize| {
        let row = f.resolve_x(i);
        assert!(row < rows, "gather position outside the x ghost layers");
        row * ny * nz
    };
    let axes = [
        supports(Lanes([x]) / g.dx, x_origin_cell, x_row),
        supports(Lanes([y]) / g.dy, 0.0, |j| ScalarField3::pwrap(j, ny) * nz),
        supports(Lanes([z]) / g.dz, 0.0, |k| ScalarField3::pwrap(k, nz)),
    ];
    let comp = [
        e.x.raw(),
        e.y.raw(),
        e.z.raw(),
        b.x.raw(),
        b.y.raw(),
        b.z.raw(),
    ];
    let [ex, ey, ez, bx, by, bz] = gather_six(|c, idx| comp[c][idx], &axes).map(|c| c.0[0]);
    (ex, ey, ez, bx, by, bz)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::VecField3;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The per-component gather [`gather_six`] replaced: the component's
    /// own division, floor and weights per axis, every access wrapped.
    fn per_component_reference(
        f: &crate::field::ScalarField3,
        g: &GridSpec,
        pos: (f64, f64, f64),
        off: (f64, f64, f64),
        x_origin_cell: f64,
    ) -> f64 {
        let cx = pos.0 / g.dx - off.0 - x_origin_cell;
        let cy = pos.1 / g.dy - off.1;
        let cz = pos.2 / g.dz - off.2;
        let (ix, iy, iz) = (cx.floor(), cy.floor(), cz.floor());
        let (wx, wy, wz) = (cx - ix, cy - iy, cz - iz);
        let (ix, iy, iz) = (ix as isize, iy as isize, iz as isize);
        let mut acc = 0.0;
        for (di, vx) in [(0isize, 1.0 - wx), (1, wx)] {
            for (dj, vy) in [(0isize, 1.0 - wy), (1, wy)] {
                for (dk, vz) in [(0isize, 1.0 - wz), (1, wz)] {
                    acc += vx * vy * vz * f.get(ix + di, iy + dj, iz + dk);
                }
            }
        }
        acc
    }

    /// One division and two floors per axis must give every component
    /// the bits its own division and floor gave it — in the interior, in
    /// the x ghosts on both sides and across the y/z seams.
    #[test]
    fn shared_supports_equal_the_per_component_gather_bitwise() {
        let g = GridSpec {
            dx: 0.35,
            dy: 0.5,
            dz: 0.3,
            ..GridSpec::cubic(6, 5, 4, 0.3, 0.5)
        };
        let mut rng = StdRng::seed_from_u64(3);
        let mut e = VecField3::zeros(6, 5, 4);
        let mut b = VecField3::zeros(6, 5, 4);
        for f in [&mut e.x, &mut e.y, &mut e.z, &mut b.x, &mut b.y, &mut b.z] {
            for i in -2..8 {
                for j in 0..5 {
                    for k in 0..4 {
                        f.set(i, j, k, rng.gen_range(-1.0..1.0));
                    }
                }
            }
        }
        let origin = 6.0;
        let (lx, ly, lz) = g.extents();
        let mut positions = vec![
            // Staggered x support reaching one cell into either ghost side.
            (origin * g.dx, 0.0, 0.0),
            (
                origin * g.dx + f64::next_down(lx),
                f64::next_down(ly),
                f64::next_down(lz),
            ),
            (origin * g.dx + 0.1 * g.dx, 0.2 * g.dy, 0.2 * g.dz),
            (
                origin * g.dx + lx - 0.1 * g.dx,
                ly - 0.1 * g.dy,
                lz - 0.1 * g.dz,
            ),
            // Exactly on cell and half-cell boundaries.
            ((origin + 2.0) * g.dx, 3.0 * g.dy, 1.0 * g.dz),
            ((origin + 2.5) * g.dx, 2.5 * g.dy, 1.5 * g.dz),
        ];
        for _ in 0..2000 {
            positions.push((
                origin * g.dx + rng.gen_range(0.0..lx),
                rng.gen_range(0.0..ly),
                rng.gen_range(0.0..lz),
            ));
        }
        for pos in positions {
            let got = gather_eb(&e, &b, &g, pos.0, pos.1, pos.2, origin);
            let want = [
                (&e.x, (0.5, 0.0, 0.0)),
                (&e.y, (0.0, 0.5, 0.0)),
                (&e.z, (0.0, 0.0, 0.5)),
                (&b.x, (0.0, 0.5, 0.5)),
                (&b.y, (0.5, 0.0, 0.5)),
                (&b.z, (0.5, 0.5, 0.0)),
            ]
            .map(|(f, off)| per_component_reference(f, &g, pos, off, origin));
            let got = [got.0, got.1, got.2, got.3, got.4, got.5];
            assert_eq!(
                got.map(f64::to_bits),
                want.map(f64::to_bits),
                "at {pos:?}: {got:?} vs {want:?}"
            );
        }
    }

    #[test]
    fn uniform_field_is_gathered_exactly() {
        let g = GridSpec::cubic(8, 8, 8, 0.5, 0.9);
        let mut e = VecField3::zeros(8, 8, 8);
        let b = VecField3::zeros(8, 8, 8);
        for i in -2..10 {
            for j in 0..8 {
                for k in 0..8 {
                    e.x.set(i, j, k, 3.0);
                }
            }
        }
        for &(x, y, z) in &[(0.1, 0.1, 0.1), (1.7, 2.3, 3.9), (3.999, 3.999, 3.999)] {
            let (ex, ey, ..) = gather_eb(&e, &b, &g, x, y, z, 0.0);
            assert!((ex - 3.0).abs() < 1e-12, "uniform Ex at ({x},{y},{z})");
            assert_eq!(ey, 0.0);
        }
    }

    #[test]
    fn linear_field_is_interpolated_linearly() {
        // Ex(i+½,j,k) = x value at the stagger point; CIC reproduces linear
        // functions exactly in the interior.
        let g = GridSpec::cubic(8, 4, 4, 1.0, 0.9);
        let mut e = VecField3::zeros(8, 4, 4);
        let b = VecField3::zeros(8, 4, 4);
        for i in -2..10 {
            for j in 0..4 {
                for k in 0..4 {
                    let x_pos = i as f64 + 0.5;
                    e.x.set(i, j, k, 2.0 * x_pos);
                }
            }
        }
        for &x in &[1.0, 1.25, 2.5, 3.75] {
            let (ex, ..) = gather_eb(&e, &b, &g, x, 1.0, 1.0, 0.0);
            assert!((ex - 2.0 * x).abs() < 1e-9, "Ex({x}) = {ex}");
        }
    }

    #[test]
    fn staggering_matters() {
        // A field varying along x gathered at the same point must differ
        // between a ½-staggered component (Ex) and an unstaggered one (Ey)
        // when the grid values are written identically.
        let g = GridSpec::cubic(8, 4, 4, 1.0, 0.9);
        let mut e = VecField3::zeros(8, 4, 4);
        let b = VecField3::zeros(8, 4, 4);
        for i in -2..10 {
            for j in 0..4 {
                for k in 0..4 {
                    e.x.set(i, j, k, i as f64);
                    e.y.set(i, j, k, i as f64);
                }
            }
        }
        let (ex, ey, ..) = gather_eb(&e, &b, &g, 2.0, 1.0, 1.0, 0.0);
        // Ex: stagger ½ → coordinate 1.5 → value 1.5; Ey: coordinate 2.0.
        assert!((ex - 1.5).abs() < 1e-12);
        assert!((ey - 2.0).abs() < 1e-12);
    }

    #[test]
    fn slab_origin_shifts_lookup() {
        let g = GridSpec::cubic(4, 4, 4, 1.0, 0.9);
        let mut e = VecField3::zeros(4, 4, 4);
        let b = VecField3::zeros(4, 4, 4);
        for i in -2..6 {
            for j in 0..4 {
                for k in 0..4 {
                    e.y.set(i, j, k, i as f64);
                }
            }
        }
        // Global x = 5.0 on a slab whose origin is global cell 4 → local 1.
        let (_, ey, ..) = gather_eb(&e, &b, &g, 5.0, 1.0, 1.0, 4.0);
        assert!((ey - 1.0).abs() < 1e-12);
    }
}
