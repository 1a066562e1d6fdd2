//! Supercell-tiled, fused gather→push→deposit kernel — the particle hot
//! loop of the whole producer.
//!
//! The seed implementation parallelised only the Boris push, materialised
//! an O(N) `Vec` of move tuples, and ran Esirkepov deposition serially;
//! for CIC deposition (~100 FLOPs and 48 scattered global writes per
//! particle) that serial phase dominated wall time. This module instead
//! mirrors PIConGPU's supercell design on the CPU:
//!
//! 1. **Bin** — every step, each species is counting-sorted by supercell
//!    ([`ParticleBuffer::sort_by_supercell_origin`]), which is O(N),
//!    allocation-free in steady state, and yields the per-supercell offset
//!    table partitioning the SoA buffer into contiguous tile ranges.
//! 2. **Fused tile pass** (rayon, dynamically load-balanced) — each worker
//!    takes whole tiles and, per particle: gathers `E`,`B`, Boris-pushes,
//!    moves, deposits the Esirkepov current into a **tile-local
//!    accumulator** (tile box + [`TILE_HALO`]-cell halo, indexed with pure
//!    integer arithmetic — no periodic wrapping, no atomics), and writes
//!    the new phase-space coordinates back in place. Tiles own disjoint
//!    particle ranges and disjoint accumulators, so the pass is race-free
//!    without locks. The gather shares two CIC supports per axis among
//!    all six components ([`crate::gather`]), the deposit walks a 3×3
//!    window per component ([`crate::deposit`]), and no step calls libm.
//! 3. **Deterministic reduction** — tile accumulators are added into the
//!    global [`VecField3`] in tile-index order, independent of the worker
//!    count or schedule, so a step is bit-reproducible for a given particle
//!    order. Whole k-rows of interior tiles are added as contiguous slices
//!    ([`crate::field::ScalarField3::add_row_unwrapped`]); only boundary tiles pay the
//!    wrapped per-cell path.
//!
//! Because a particle moves less than one cell per step (CFL) and binning
//! is refreshed *every* step, the deposition support of a tile's particles
//! is always inside the tile-plus-halo box; a one-cell float jitter at
//! periodic seams is absorbed by the halo as well.
//!
//! All scratch (sort buffers, tile accumulators) lives in reusable pools,
//! so steady-state stepping performs no per-step heap allocation.

use crate::deposit::{deposit_current, CurrentSink};
use crate::field::VecField3;
use crate::gather::{gather_six, supports};
use crate::grid::GridSpec;
use crate::particles::ParticleBuffer;
use crate::pusher::boris;
use parking_lot::Mutex;
use rayon::prelude::*;

/// Halo width (cells) of a tile-local accumulator on every side: the
/// Esirkepov CIC support of a particle starting in the tile reaches at
/// most one cell below and two cells above the tile box.
pub const TILE_HALO: usize = 2;

/// Largest admissible cell coordinate excess for the seam nudge: a
/// position strictly inside the box can still *divide* to exactly `n`
/// cells (the quotient rounds up), but only by a few ulps — anything
/// further out is a genuinely escaped particle.
const SEAM_EXCESS: f64 = 1e-9;

/// Pull `v` down by ulps until `v/d - origin < limit_cells`. Cold path:
/// reached only for the rare position whose cell quotient rounds onto the
/// box seam; the loop runs O(1) times because the excess is a few ulps.
#[cold]
#[inline(never)]
fn nudge_below_seam(mut v: f64, d: f64, origin: f64, limit_cells: f64) -> f64 {
    while v / d - origin >= limit_cells {
        v = f64::next_down(v);
    }
    v
}

/// Wrap a coordinate into `[0, l)`.
///
/// `rem_euclid` may return exactly `l` for tiny negative inputs; clamping
/// that to `0.0` (the periodically identical point) keeps every consumer —
/// binning, gather, deposition — strictly inside the box. Used by both the
/// fused kernel and [`ParticleBuffer::apply_periodic`] so the code paths
/// stay bit-identical.
///
/// A particle moves less than a cell per step, so `v` is within one box
/// length of the box and `rem_euclid` (a software `fmod` on the baseline
/// target) is needed only as the fallback: on `[0, l)` it is the identity,
/// on `[l, 2l)` `v − l` is exact (Sterbenz) and so equals the exact
/// remainder, and on `(−l, 0)` it is the one rounding `v + l` that
/// `rem_euclid` performs itself.
#[inline]
pub(crate) fn wrap_coord(v: f64, l: f64) -> f64 {
    let r = if v >= 0.0 && v < l {
        v
    } else if v >= l && v < l + l {
        v - l
    } else if v < 0.0 && v > -l {
        v + l
    } else {
        v.rem_euclid(l)
    };
    if r >= l {
        0.0
    } else {
        r
    }
}

/// The supercell tiling of a (local) grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileGrid {
    /// Supercell edge length in cells.
    pub edge: usize,
    /// Supercell counts per axis.
    pub scx: usize,
    /// Supercell count in y.
    pub scy: usize,
    /// Supercell count in z.
    pub scz: usize,
    nx: usize,
    ny: usize,
    nz: usize,
}

/// The cell box of one tile (`x0..x0+ex` × `y0..y0+ey` × `z0..z0+ez`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileBox {
    /// First cell per axis.
    pub x0: usize,
    /// First y cell.
    pub y0: usize,
    /// First z cell.
    pub z0: usize,
    /// Cell extents (edge tiles of a non-divisible grid are smaller).
    pub ex: usize,
    /// y extent.
    pub ey: usize,
    /// z extent.
    pub ez: usize,
}

impl TileGrid {
    /// Tiling of an `nx×ny×nz` grid into supercells of `edge` cells.
    pub fn new(edge: usize, nx: usize, ny: usize, nz: usize) -> Self {
        let edge = edge.max(1);
        Self {
            edge,
            scx: nx.div_ceil(edge),
            scy: ny.div_ceil(edge),
            scz: nz.div_ceil(edge),
            nx,
            ny,
            nz,
        }
    }

    /// Total tile count.
    pub fn n_tiles(&self) -> usize {
        self.scx * self.scy * self.scz
    }

    /// Cell box of tile `t`. Tile indices compose as
    /// `(cx·scy + cy)·scz + cz`, matching the supercell sort keys.
    pub fn tile_box(&self, t: usize) -> TileBox {
        let cz = t % self.scz;
        let cy = (t / self.scz) % self.scy;
        let cx = t / (self.scz * self.scy);
        let x0 = cx * self.edge;
        let y0 = cy * self.edge;
        let z0 = cz * self.edge;
        TileBox {
            x0,
            y0,
            z0,
            ex: self.edge.min(self.nx - x0),
            ey: self.edge.min(self.ny - y0),
            ez: self.edge.min(self.nz - z0),
        }
    }
}

/// A tile-local current accumulator: dense `(ex+2H)×(ey+2H)×(ez+2H)`
/// blocks for the three components, indexed by *global* cell coordinates
/// with pure offset arithmetic (no wrapping — the halo keeps every
/// deposit in-bounds).
#[derive(Debug, Default)]
pub struct TileAccumulator {
    /// Component blocks: Jx, Jy, Jz.
    j: [Vec<f64>; 3],
    /// Global cell of local index 0 per axis (tile origin − halo).
    ox: isize,
    oy: isize,
    oz: isize,
    /// Local extents per axis (tile extent + 2·halo).
    sx: usize,
    sy: usize,
    sz: usize,
    /// True when this tile received deposits this pass.
    active: bool,
}

impl TileAccumulator {
    /// Re-shape for `tile` and zero the contents. Steady-state calls with
    /// the same tile reuse the existing capacity (no allocation).
    pub fn reset(&mut self, tile: TileBox) {
        let h = TILE_HALO as isize;
        self.ox = tile.x0 as isize - h;
        self.oy = tile.y0 as isize - h;
        self.oz = tile.z0 as isize - h;
        self.sx = tile.ex + 2 * TILE_HALO;
        self.sy = tile.ey + 2 * TILE_HALO;
        self.sz = tile.ez + 2 * TILE_HALO;
        let n = self.sx * self.sy * self.sz;
        for c in &mut self.j {
            c.clear();
            c.resize(n, 0.0);
        }
    }

    #[inline]
    fn idx(&self, i: isize, j: isize, k: isize) -> usize {
        let li = (i - self.ox) as usize;
        let lj = (j - self.oy) as usize;
        let lk = (k - self.oz) as usize;
        debug_assert!(
            li < self.sx && lj < self.sy && lk < self.sz,
            "deposit ({i},{j},{k}) escapes tile box at ({},{},{}) size ({},{},{})",
            self.ox,
            self.oy,
            self.oz,
            self.sx,
            self.sy,
            self.sz
        );
        (li * self.sy + lj) * self.sz + lk
    }

    /// Add this tile's contributions into the global field, wrapping y/z
    /// at the box seams (x halos land in the ghost layers and are folded
    /// by the caller's ghost reduction, exactly as the serial path does).
    fn reduce_into(&self, j: &mut VecField3) {
        let (_, ny, nz) = j.x.dims();
        let yz_interior = self.oy >= 0
            && (self.oy as usize + self.sy) <= ny
            && self.oz >= 0
            && (self.oz as usize + self.sz) <= nz;
        for li in 0..self.sx {
            let gi = self.ox + li as isize;
            for lj in 0..self.sy {
                let gj = self.oy + lj as isize;
                let row = (li * self.sy + lj) * self.sz;
                let [jx, jy, jz] = &self.j;
                if yz_interior {
                    j.x.add_row_unwrapped(gi, gj, self.oz, &jx[row..row + self.sz]);
                    j.y.add_row_unwrapped(gi, gj, self.oz, &jy[row..row + self.sz]);
                    j.z.add_row_unwrapped(gi, gj, self.oz, &jz[row..row + self.sz]);
                } else {
                    for lk in 0..self.sz {
                        let gk = self.oz + lk as isize;
                        j.x.add(gi, gj, gk, jx[row + lk]);
                        j.y.add(gi, gj, gk, jy[row + lk]);
                        j.z.add(gi, gj, gk, jz[row + lk]);
                    }
                }
            }
        }
    }
}

impl CurrentSink for TileAccumulator {
    #[inline]
    fn add_row(&mut self, c: usize, i: isize, j: isize, k0: isize, row: &[f64]) {
        let idx = self.idx(i, j, k0);
        debug_assert!(
            (k0 - self.oz) as usize + row.len() <= self.sz,
            "deposit row at k = {k0} escapes the tile box in z"
        );
        let cells = &mut self.j[c];
        for (t, &v) in row.iter().enumerate() {
            // SAFETY: `idx` debug-asserts its per-axis bounds and the row
            // stays inside the z extent, which together imply
            // `idx + t < sx·sy·sz = len`. The invariant holds in release
            // because the fused pass asserts every particle's start cell
            // into its tile before depositing, binning is refreshed each
            // step, and `deposit_current` never writes outside the 4-cell
            // box around the start cell — which the halo covers. Unchecked
            // indexing removes ~100 bounds checks per particle from the
            // hottest loop of the code base.
            unsafe { *cells.get_unchecked_mut(idx + t) += v };
        }
    }
}

/// A cached *tile view* of the six staggered field components over one
/// tile plus a one-cell gather halo: the CIC support of any particle in
/// the tile. Loaded once per tile, then every gather indexes a small
/// contiguous buffer with pure offset arithmetic — the CPU analogue of
/// PIConGPU staging a supercell's fields in shared memory.
#[derive(Debug, Default)]
pub struct FieldPatch {
    /// Component buffers in gather order: Ex, Ey, Ez, Bx, By, Bz.
    comp: [Vec<f64>; 6],
    ox: isize,
    oy: isize,
    oz: isize,
    sy: usize,
    sz: usize,
}

impl FieldPatch {
    /// Fill the view from the global fields for `tile`.
    fn load(&mut self, e: &VecField3, b: &VecField3, tile: TileBox) {
        // Staggered CIC support of a position inside the tile: one cell
        // below the box through one past its end ⇒ extent + 2 per axis.
        self.ox = tile.x0 as isize - 1;
        self.oy = tile.y0 as isize - 1;
        self.oz = tile.z0 as isize - 1;
        let sx = tile.ex + 2;
        self.sy = tile.ey + 2;
        self.sz = tile.ez + 2;
        for (buf, f) in self
            .comp
            .iter_mut()
            .zip([&e.x, &e.y, &e.z, &b.x, &b.y, &b.z])
        {
            f.extract_patch(self.ox, self.oy, self.oz, sx, self.sy, self.sz, buf);
        }
    }

    /// Interpolate E and B at one particle position: the trilinear body
    /// of [`crate::gather`], reading the cached view.
    #[inline]
    fn gather_eb(
        &self,
        g: &GridSpec,
        x: f64,
        y: f64,
        z: f64,
        x_origin_cell: f64,
    ) -> (f64, f64, f64, f64, f64, f64) {
        let axes = [
            supports(x / g.dx, x_origin_cell, |i| (i - self.ox) as usize),
            supports(y / g.dy, 0.0, |j| (j - self.oy) as usize),
            supports(z / g.dz, 0.0, |k| (k - self.oz) as usize),
        ];
        let at = |c: usize, idx: usize| -> f64 {
            let buf = &self.comp[c];
            debug_assert!(idx < buf.len(), "gather index {idx} out of patch");
            // SAFETY: the tile view spans the CIC support of every
            // particle binned to this tile (asserted in debug; the fused
            // pass asserts the start cell into the tile in release).
            unsafe { *buf.get_unchecked(idx) }
        };
        gather_six(at, self.sy, self.sz, &axes)
    }
}

/// Reusable pool of one [`TileAccumulator`] per tile plus a free list of
/// per-worker [`FieldPatch`] views, kept across steps and species so
/// steady-state stepping never allocates.
#[derive(Debug, Default)]
pub struct TilePool {
    accs: Vec<TileAccumulator>,
    patches: Mutex<Vec<FieldPatch>>,
}

impl TilePool {
    /// Empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    fn ensure(&mut self, grid: &TileGrid) {
        let n = grid.n_tiles();
        if self.accs.len() != n {
            self.accs.clear();
            self.accs.resize_with(n, TileAccumulator::default);
        }
    }

    /// Current scratch footprint in bytes (diagnostics).
    pub fn scratch_bytes(&self) -> usize {
        let accs: usize = self
            .accs
            .iter()
            .map(|a| a.j.iter().map(|c| c.capacity() * 8).sum::<usize>())
            .sum();
        let patches: usize = self
            .patches
            .lock()
            .iter()
            .map(|p| p.comp.iter().map(|c| c.capacity() * 8).sum::<usize>())
            .sum();
        accs + patches
    }
}

/// Checks a [`FieldPatch`] out of the pool's free list for the lifetime of
/// one worker; returns it on drop so patches are reused across parallel
/// calls instead of reallocated.
struct PatchLease<'a> {
    pool: &'a Mutex<Vec<FieldPatch>>,
    patch: FieldPatch,
}

impl<'a> PatchLease<'a> {
    fn take(pool: &'a Mutex<Vec<FieldPatch>>) -> Self {
        let patch = pool.lock().pop().unwrap_or_default();
        Self { pool, patch }
    }
}

impl Drop for PatchLease<'_> {
    fn drop(&mut self) {
        self.pool.lock().push(std::mem::take(&mut self.patch));
    }
}

/// Raw shared view of the seven SoA particle arrays. Tiles own disjoint
/// index ranges (from the supercell offset table), which makes concurrent
/// writes through this pointer set race-free.
#[derive(Clone, Copy)]
struct SoAPtr {
    x: *mut f64,
    y: *mut f64,
    z: *mut f64,
    ux: *mut f64,
    uy: *mut f64,
    uz: *mut f64,
    w: *const f64,
    len: usize,
}

unsafe impl Send for SoAPtr {}
unsafe impl Sync for SoAPtr {}

/// Raw shared view of the accumulator pool; tile `t` only ever touches
/// entry `t`.
#[derive(Clone, Copy)]
struct PoolPtr(*mut TileAccumulator);

unsafe impl Send for PoolPtr {}
unsafe impl Sync for PoolPtr {}

/// One fused, tiled, parallel gather→push→deposit pass over a species.
///
/// Re-bins the species by supercell, pushes every particle, deposits the
/// half-step Esirkepov current into `j` (via tile-local accumulators
/// reduced deterministically), and stores wrapped positions / updated
/// momenta in place. `x_origin_cell` is the slab origin for distributed
/// runs (0 in single-domain mode); `extents` is the periodic box the
/// positions wrap into — the *global* box, so a slab's leavers come out
/// already wrapped and only need re-homing.
#[allow(clippy::too_many_arguments)]
pub fn fused_push_deposit(
    sp: &mut ParticleBuffer,
    e: &VecField3,
    b: &VecField3,
    j: &mut VecField3,
    g: &GridSpec,
    x_origin_cell: f64,
    extents: (f64, f64, f64),
    edge: usize,
    pool: &mut TilePool,
) {
    let (lx, ly, lz) = extents;
    let qm_dt_half = sp.charge / sp.mass * g.dt * 0.5;
    let q = sp.charge;
    let dt = g.dt;
    let grid = TileGrid::new(edge, g.nx, g.ny, g.nz);
    pool.ensure(&grid);

    sp.sort_by_supercell_origin(edge, g.dx, g.dy, g.dz, g.nx, g.ny, g.nz, x_origin_cell);
    let ([xs, ys, zs, uxs, uys, uzs, ws], offsets) = sp.soa_views_mut();
    debug_assert_eq!(offsets.len(), grid.n_tiles() + 1);
    let soa = SoAPtr {
        x: xs.as_mut_ptr(),
        y: ys.as_mut_ptr(),
        z: zs.as_mut_ptr(),
        ux: uxs.as_mut_ptr(),
        uy: uys.as_mut_ptr(),
        uz: uzs.as_mut_ptr(),
        w: ws.as_ptr(),
        len: xs.len(),
    };
    let accs = PoolPtr(pool.accs.as_mut_ptr());
    let patch_pool = &pool.patches;
    let n_tiles = grid.n_tiles();

    // Phase A: fused compute, one task per tile, dynamically scheduled;
    // each worker leases one reusable field-patch view.
    (0..n_tiles).into_par_iter().for_each_init(
        || PatchLease::take(patch_pool),
        |lease, t| {
            // Bind the whole wrappers so edition-2021 disjoint capture does
            // not capture bare raw-pointer fields (which are not Sync).
            #[allow(clippy::redundant_locals)]
            let soa = soa;
            #[allow(clippy::redundant_locals)]
            let accs = accs;
            let lo = offsets[t];
            let hi = offsets[t + 1];
            // SAFETY: tile `t` exclusively owns pool entry `t`.
            let acc = unsafe { &mut *accs.0.add(t) };
            acc.active = lo < hi;
            if lo >= hi {
                return;
            }
            let tile = grid.tile_box(t);
            acc.reset(tile);
            let patch = &mut lease.patch;
            patch.load(e, b, tile);
            for i in lo..hi {
                debug_assert!(i < soa.len);
                // SAFETY: `lo..hi` ranges of distinct tiles are disjoint,
                // so this tile has exclusive access to its particles.
                unsafe {
                    let mut x0 = *soa.x.add(i);
                    let mut y0 = *soa.y.add(i);
                    let mut z0 = *soa.z.add(i);
                    // Seam rounding: a position strictly inside the box can
                    // divide to exactly n cells (binning clamps it into the
                    // last tile). Pull such positions one ulp inside so the
                    // tile-local indexing invariant holds; anything further
                    // out fails the escape guard below instead.
                    let nx_f = (tile.x0 + tile.ex) as f64;
                    let ny_f = (tile.y0 + tile.ey) as f64;
                    let nz_f = (tile.z0 + tile.ez) as f64;
                    let mut cx = x0 / g.dx - x_origin_cell;
                    let mut cy = y0 / g.dy;
                    let mut cz = z0 / g.dz;
                    if cx >= nx_f && cx < nx_f + SEAM_EXCESS {
                        x0 = nudge_below_seam(x0, g.dx, x_origin_cell, nx_f);
                        cx = x0 / g.dx - x_origin_cell;
                    }
                    if cy >= ny_f && cy < ny_f + SEAM_EXCESS {
                        y0 = nudge_below_seam(y0, g.dy, 0.0, ny_f);
                        cy = y0 / g.dy;
                    }
                    if cz >= nz_f && cz < nz_f + SEAM_EXCESS {
                        z0 = nudge_below_seam(z0, g.dz, 0.0, nz_f);
                        cz = z0 / g.dz;
                    }
                    // Release-mode guard for the unchecked tile-local
                    // indexing below: binning *clamps* cell indices, so a
                    // position pushed outside the box through the pub SoA
                    // fields would land in a valid tile while its raw
                    // coordinates escape the tile-plus-halo support. Six
                    // predictable compares per particle turn that into a
                    // clean panic (the seed path's bounds-check behaviour)
                    // instead of undefined behaviour.
                    assert!(
                        cx >= tile.x0 as f64 - 0.5
                            && cx < nx_f
                            && cy >= tile.y0 as f64 - 0.5
                            && cy < ny_f
                            && cz >= tile.z0 as f64 - 0.5
                            && cz < nz_f,
                        "particle at ({x0}, {y0}, {z0}) escaped its supercell \
                         bin — positions must stay inside the periodic box \
                         between steps"
                    );
                    let (ex, ey, ez, bx, by, bz) = patch.gather_eb(g, x0, y0, z0, x_origin_cell);
                    let (ux, uy, uz) = boris(
                        *soa.ux.add(i),
                        *soa.uy.add(i),
                        *soa.uz.add(i),
                        ex,
                        ey,
                        ez,
                        bx,
                        by,
                        bz,
                        qm_dt_half,
                    );
                    let gamma = (1.0 + ux * ux + uy * uy + uz * uz).sqrt();
                    let x1 = x0 + dt * ux / gamma;
                    let y1 = y0 + dt * uy / gamma;
                    let z1 = z0 + dt * uz / gamma;
                    // Currents come from the unwrapped trajectory.
                    let w = *soa.w.add(i);
                    deposit_current(acc, g, q, w, x0, y0, z0, x1, y1, z1, x_origin_cell);
                    *soa.ux.add(i) = ux;
                    *soa.uy.add(i) = uy;
                    *soa.uz.add(i) = uz;
                    *soa.x.add(i) = wrap_coord(x1, lx);
                    *soa.y.add(i) = wrap_coord(y1, ly);
                    *soa.z.add(i) = wrap_coord(z1, lz);
                }
            }
        },
    );

    // Phase B: deterministic reduction in tile-index order. This is O(grid
    // cells), two orders of magnitude below the deposit work, so running it
    // serially keeps the step bit-reproducible at negligible cost.
    for t in 0..n_tiles {
        let acc = &mut pool.accs[t];
        if acc.active {
            acc.reduce_into(j);
            acc.active = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::{ScalarField3, VecField3};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn tile_grid_covers_ragged_grids_exactly() {
        let tg = TileGrid::new(4, 10, 8, 6);
        assert_eq!((tg.scx, tg.scy, tg.scz), (3, 2, 2));
        let mut cells = 0;
        for t in 0..tg.n_tiles() {
            let b = tg.tile_box(t);
            assert!(b.x0 + b.ex <= 10 && b.y0 + b.ey <= 8 && b.z0 + b.ez <= 6);
            cells += b.ex * b.ey * b.ez;
        }
        assert_eq!(cells, 10 * 8 * 6, "tiles must partition the grid");
    }

    /// The headline accumulator property: depositing through a tile-local
    /// accumulator and reducing must reproduce direct global deposition to
    /// float-reassociation accuracy, including ghost and wrapped cells.
    #[test]
    fn tile_accumulator_matches_direct_deposit() {
        let g = GridSpec::cubic(8, 8, 8, 1.0, 0.9);
        let tg = TileGrid::new(4, 8, 8, 8);
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..40 {
            let x0 = rng.gen_range(0.0..8.0);
            let y0 = rng.gen_range(0.0..8.0);
            let z0 = rng.gen_range(0.0..8.0);
            let (dx, dy, dz) = (
                rng.gen_range(-0.9..0.9),
                rng.gen_range(-0.9..0.9),
                rng.gen_range(-0.9..0.9),
            );
            let w = rng.gen_range(0.5..2.0);

            let mut direct = VecField3::zeros(8, 8, 8);
            deposit_current(
                &mut direct,
                &g,
                -1.0,
                w,
                x0,
                y0,
                z0,
                x0 + dx,
                y0 + dy,
                z0 + dz,
                0.0,
            );

            // Tile containing the starting position.
            let cx = (x0 as usize).min(7) / tg.edge;
            let cy = (y0 as usize).min(7) / tg.edge;
            let cz = (z0 as usize).min(7) / tg.edge;
            let t = (cx * tg.scy + cy) * tg.scz + cz;
            let mut acc = TileAccumulator::default();
            acc.reset(tg.tile_box(t));
            deposit_current(
                &mut acc,
                &g,
                -1.0,
                w,
                x0,
                y0,
                z0,
                x0 + dx,
                y0 + dy,
                z0 + dz,
                0.0,
            );
            let mut tiled = VecField3::zeros(8, 8, 8);
            acc.reduce_into(&mut tiled);

            for f in [
                (&direct.x, &tiled.x),
                (&direct.y, &tiled.y),
                (&direct.z, &tiled.z),
            ] {
                for i in -2..10isize {
                    for jj in 0..8isize {
                        for k in 0..8isize {
                            let (a, b) = (f.0.get(i, jj, k), f.1.get(i, jj, k));
                            assert!(
                                (a - b).abs() < 1e-15,
                                "mismatch at ({i},{jj},{k}): {a} vs {b}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// The windowed kernel against the 4×4×4 oracle through the tile
    /// sink, bit for bit, on a slab whose origin is not cell 0.
    #[test]
    fn windowed_deposit_equals_the_oracle_through_the_tile_sink() {
        use crate::deposit::{deposit_current_oracle, oracle_grid, oracle_moves};
        let g = oracle_grid();
        let origin = 8.0;
        // Moves start in cell (3, 3, 3): the middle tile of a 3×3×3 tiling.
        let tile = TileGrid::new(3, 8, 8, 8).tile_box(13);
        assert_eq!((tile.x0, tile.y0, tile.z0), (3, 3, 3));
        let (mut new, mut old) = (TileAccumulator::default(), TileAccumulator::default());
        new.reset(tile);
        old.reset(tile);
        for (n, m) in oracle_moves(300, 23).into_iter().enumerate() {
            let (x0, x1) = ((m[0] + origin) * g.dx, (m[3] + origin) * g.dx);
            let (y0, y1) = (m[1] * g.dy, m[4] * g.dy);
            let (z0, z1) = (m[2] * g.dz, m[5] * g.dz);
            let w = 0.5 + n as f64 * 0.01;
            deposit_current(&mut new, &g, -1.0, w, x0, y0, z0, x1, y1, z1, origin);
            deposit_current_oracle(&mut old, &g, -1.0, w, x0, y0, z0, x1, y1, z1, origin);
            for c in 0..3 {
                let same = new.j[c]
                    .iter()
                    .zip(&old.j[c])
                    .all(|(a, b)| a.to_bits() == b.to_bits());
                assert!(same, "component {c} diverged at move {n} {m:?}");
            }
        }
        assert!(new.j.iter().flatten().any(|&v| v != 0.0));
    }

    /// The tile view's gather against the global one, bit for bit, for
    /// positions all over a tile that touches the x ghosts and the y/z
    /// seams.
    #[test]
    fn patch_gather_equals_global_gather_bitwise() {
        let g = GridSpec::cubic(8, 6, 6, 0.35, 0.5);
        let mut rng = StdRng::seed_from_u64(5);
        let mut e = VecField3::zeros(8, 6, 6);
        let mut b = VecField3::zeros(8, 6, 6);
        for f in [&mut e.x, &mut e.y, &mut e.z, &mut b.x, &mut b.y, &mut b.z] {
            for i in -2..10 {
                for j in 0..6 {
                    for k in 0..6 {
                        f.set(i, j, k, rng.gen_range(-1.0..1.0));
                    }
                }
            }
        }
        let origin = 16.0;
        let tg = TileGrid::new(4, 8, 6, 6);
        for t in 0..tg.n_tiles() {
            let tile = tg.tile_box(t);
            let mut patch = FieldPatch::default();
            patch.load(&e, &b, tile);
            for _ in 0..200 {
                let x = (origin + tile.x0 as f64 + rng.gen_range(0.0..tile.ex as f64)) * g.dx;
                let y = (tile.y0 as f64 + rng.gen_range(0.0..tile.ey as f64)) * g.dy;
                let z = (tile.z0 as f64 + rng.gen_range(0.0..tile.ez as f64)) * g.dz;
                let got = patch.gather_eb(&g, x, y, z, origin);
                let want = crate::gather::gather_eb(&e, &b, &g, x, y, z, origin);
                let bits = |v: (f64, f64, f64, f64, f64, f64)| {
                    [v.0, v.1, v.2, v.3, v.4, v.5].map(f64::to_bits)
                };
                assert_eq!(bits(got), bits(want), "tile {t} at ({x}, {y}, {z})");
            }
        }
    }

    /// Discrete continuity must hold through the tiled accumulator path
    /// exactly as it does for direct deposition.
    #[test]
    fn continuity_holds_through_tile_accumulator() {
        let g = GridSpec::cubic(8, 8, 8, 1.0, 0.9);
        let tg = TileGrid::new(4, 8, 8, 8);
        let mut rng = StdRng::seed_from_u64(42);
        for trial in 0..30 {
            let x0 = rng.gen_range(2.0..6.0);
            let y0 = rng.gen_range(0.0..8.0);
            let z0 = rng.gen_range(0.0..8.0);
            let (x1, y1, z1) = (
                x0 + rng.gen_range(-0.9..0.9),
                y0 + rng.gen_range(-0.9..0.9),
                z0 + rng.gen_range(-0.9..0.9),
            );
            let q = if trial % 2 == 0 { -1.0 } else { 1.0 };
            let w = rng.gen_range(0.5..2.0);

            let cx = (x0 as usize).min(7) / tg.edge;
            let cy = (y0 as usize).min(7) / tg.edge;
            let cz = (z0 as usize).min(7) / tg.edge;
            let t = (cx * tg.scy + cy) * tg.scz + cz;
            let mut acc = TileAccumulator::default();
            acc.reset(tg.tile_box(t));
            deposit_current(&mut acc, &g, q, w, x0, y0, z0, x1, y1, z1, 0.0);
            let mut j = VecField3::zeros(8, 8, 8);
            acc.reduce_into(&mut j);

            let mut rho0 = ScalarField3::zeros(8, 8, 8);
            let mut rho1 = ScalarField3::zeros(8, 8, 8);
            crate::deposit::deposit_charge(&mut rho0, &g, q, w, x0, y0, z0, 0.0);
            crate::deposit::deposit_charge(&mut rho1, &g, q, w, x1, y1, z1, 0.0);
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

    /// A position strictly inside the box whose cell quotient rounds to
    /// exactly `n` must step cleanly (the seam nudge), not panic or index
    /// out of bounds: binning clamps it into the last tile.
    #[test]
    fn seam_rounding_position_steps_cleanly() {
        // Scan cell sizes for a (d, n) pair where some y < n·d divides to
        // ≥ n — the float coincidence the nudge exists for.
        let n = 8usize;
        let mut found = None;
        'outer: for &d in &[0.1f64, 0.3, 0.7, 0.9, 0.35, 0.55, 1.1, 0.15] {
            let l = n as f64 * d;
            let mut y = l;
            for _ in 0..4 {
                y = f64::next_down(y);
                if y < l && y / d >= n as f64 {
                    found = Some((d, y));
                    break 'outer;
                }
            }
        }
        let Some((d, seam)) = found else {
            // No representable seam value for these sizes on this target;
            // nothing to regress.
            return;
        };
        let g = crate::grid::GridSpec {
            nx: n,
            ny: n,
            nz: n,
            dx: d,
            dy: d,
            dz: d,
            dt: 0.2 * d,
        };
        let mut p = ParticleBuffer::new(-1.0, 1.0);
        // Seam coordinate on every axis at once, plus a benign particle.
        p.push(seam, seam, seam, 0.05, -0.05, 0.05, 1.0);
        p.push(0.5 * d, 0.5 * d, 0.5 * d, 0.0, 0.0, 0.0, 1.0);
        let mut sim = crate::sim::SimulationBuilder::new(g).species(p).build();
        sim.run(3);
        assert_eq!(sim.species[0].len(), 2);
        let (lx, _, _) = g.extents();
        for &x in &sim.species[0].x {
            assert!((0.0..lx).contains(&x), "positions stay in the box: {x}");
        }
    }

    /// The fast ranges of `wrap_coord` against the `rem_euclid` form it
    /// replaced, bit for bit (the sign of a zero included).
    #[test]
    fn wrap_coord_equals_the_rem_euclid_form_bitwise() {
        let reference = |v: f64, l: f64| {
            let r = v.rem_euclid(l);
            if r >= l {
                0.0
            } else {
                r
            }
        };
        let two52 = 4_503_599_627_370_496.0f64;
        for l in [4.0f64, 12.0, 0.35 * 7.0, 1e-3, 24.0 * 0.5] {
            let mut cases = vec![
                0.0,
                -0.0,
                -1.0,
                -3.0,
                l,
                -l,
                2.0 * l,
                -2.0 * l,
                f64::next_down(l),
                f64::next_up(l),
                f64::next_down(2.0 * l),
                f64::next_up(-l),
                f64::next_down(-l),
                f64::next_down(0.0),
                5e-324,
                -5e-324,
                f64::MIN_POSITIVE,
                -f64::MIN_POSITIVE,
                -1e-16,
                two52,
                -two52,
                1e300,
                -1e300,
            ];
            let mut rng = StdRng::seed_from_u64(77);
            for _ in 0..5000 {
                cases.push(rng.gen_range(-1.0..2.0) * l);
                cases.push(rng.gen_range(-50.0..50.0) * l);
            }
            for v in cases {
                let (got, want) = (wrap_coord(v, l), reference(v, l));
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "wrap_coord({v:e}, {l}) = {got:e}, rem_euclid form {want:e}"
                );
            }
        }
    }

    #[test]
    fn wrap_coord_stays_strictly_inside() {
        assert_eq!(wrap_coord(-1e-300, 4.0), 0.0);
        assert!(wrap_coord(4.0, 4.0) == 0.0);
        assert!((wrap_coord(5.5, 4.0) - 1.5).abs() < 1e-12);
        assert!((wrap_coord(-0.5, 4.0) - 3.5).abs() < 1e-12);
        for &v in &[-1e-16, -1e-12, 7.999999999999999, 1e300] {
            let r = wrap_coord(v, 8.0);
            assert!((0.0..8.0).contains(&r), "wrap({v}) = {r}");
        }
    }
}
