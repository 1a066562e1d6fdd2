//! Field storage with ghost layers in x and periodic wrapping in y/z.
//!
//! The slab domain decomposition splits the global grid along x, so every
//! scalar field keeps [`GHOSTS`] ghost layers on both x-sides (wide enough
//! for the current deposition support and the staggered gathers). y and z
//! stay node-local and periodic, handled by index wrapping.

/// Ghost-layer width on each x side.
pub const GHOSTS: usize = 2;

/// A scalar field on an `nx × ny × nz` local grid with x-ghosts.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalarField3 {
    nx: usize,
    ny: usize,
    nz: usize,
    data: Vec<f64>,
}

impl ScalarField3 {
    /// Zero-initialised field.
    pub fn zeros(nx: usize, ny: usize, nz: usize) -> Self {
        Self {
            nx,
            ny,
            nz,
            data: vec![0.0; (nx + 2 * GHOSTS) * ny * nz],
        }
    }

    /// Interior cell counts `(nx, ny, nz)`.
    pub fn dims(&self) -> (usize, usize, usize) {
        (self.nx, self.ny, self.nz)
    }

    /// Periodic wrap by repeated correction instead of `rem_euclid`: grid
    /// accesses stay within one period of the interior (CFL + CIC support),
    /// so this is 1–2 well-predicted branches instead of an integer
    /// division — the single hottest address computation in the PIC loop.
    #[inline]
    pub(crate) fn pwrap(mut v: isize, n: usize) -> usize {
        let n = n as isize;
        while v < 0 {
            v += n;
        }
        while v >= n {
            v -= n;
        }
        v as usize
    }

    #[inline]
    fn index(&self, i: isize, j: isize, k: isize) -> usize {
        let (jj, kk) = (Self::pwrap(j, self.ny), Self::pwrap(k, self.nz));
        (self.resolve_x(i) * self.ny + jj) * self.nz + kk
    }

    /// Value at (possibly ghost / wrapped) index.
    #[inline]
    pub fn get(&self, i: isize, j: isize, k: isize) -> f64 {
        self.data[self.index(i, j, k)]
    }

    /// Set value.
    #[inline]
    pub fn set(&mut self, i: isize, j: isize, k: isize, v: f64) {
        let idx = self.index(i, j, k);
        self.data[idx] = v;
    }

    /// Accumulate value.
    #[inline]
    pub fn add(&mut self, i: isize, j: isize, k: isize, v: f64) {
        let idx = self.index(i, j, k);
        self.data[idx] += v;
    }

    /// Zero everything including ghosts.
    pub fn clear(&mut self) {
        self.data.fill(0.0);
    }

    /// Add `row` into cells `(i, j, k0..k0+row.len())` **without** periodic
    /// index wrapping: the caller guarantees `j` and the whole `k` span are
    /// interior (`i` may be an x-ghost index). This is the fast path of the
    /// supercell-tile reduction ([`crate::tile`]), which adds whole
    /// contiguous k-rows of a tile-local accumulator at once.
    #[inline]
    pub(crate) fn add_row_unwrapped(&mut self, i: isize, j: isize, k0: isize, row: &[f64]) {
        debug_assert!(
            i >= -(GHOSTS as isize) && i < (self.nx + GHOSTS) as isize,
            "x index {i} outside ghost range"
        );
        debug_assert!(j >= 0 && (j as usize) < self.ny, "y index {j} not interior");
        debug_assert!(
            k0 >= 0 && k0 as usize + row.len() <= self.nz,
            "k row [{k0}, {k0}+{}) not interior",
            row.len()
        );
        let ii = (i + GHOSTS as isize) as usize;
        let base = (ii * self.ny + j as usize) * self.nz + k0 as usize;
        for (dst, &src) in self.data[base..base + row.len()].iter_mut().zip(row) {
            *dst += src;
        }
    }

    /// Sum of squares over interior cells (energy diagnostics).
    pub(crate) fn sq_sum_interior(&self) -> f64 {
        let mut acc = 0.0;
        for i in 0..self.nx as isize {
            for j in 0..self.ny as isize {
                for k in 0..self.nz as isize {
                    let v = self.get(i, j, k);
                    acc += v * v;
                }
            }
        }
        acc
    }

    /// Copy ghost layers from the periodic wrap of this field itself
    /// (single-domain mode): ghost `[-g, -1]` ← interior `[nx-g, nx-1]`,
    /// ghost `[nx, nx+g-1]` ← interior `[0, g-1]`.
    pub fn wrap_ghosts_periodic(&mut self) {
        for g in 0..GHOSTS as isize {
            for j in 0..self.ny as isize {
                for k in 0..self.nz as isize {
                    let left = self.get(self.nx as isize - GHOSTS as isize + g, j, k);
                    self.set(-(GHOSTS as isize) + g, j, k, left);
                    let right = self.get(g, j, k);
                    self.set(self.nx as isize + g, j, k, right);
                }
            }
        }
    }

    /// Fold ghost-layer *contributions* back into the periodic interior
    /// (single-domain mode, used after deposition): interior
    /// `[nx-g, nx-1]` += ghost `[-g, -1]`, interior `[0, g-1]` += ghost
    /// `[nx, nx+g-1]`; ghosts are cleared.
    pub(crate) fn reduce_ghosts_periodic(&mut self) {
        for g in 0..GHOSTS as isize {
            for j in 0..self.ny as isize {
                for k in 0..self.nz as isize {
                    let lo = self.get(-(GHOSTS as isize) + g, j, k);
                    self.add(self.nx as isize - GHOSTS as isize + g, j, k, lo);
                    self.set(-(GHOSTS as isize) + g, j, k, 0.0);
                    let hi = self.get(self.nx as isize + g, j, k);
                    self.add(g, j, k, hi);
                    self.set(self.nx as isize + g, j, k, 0.0);
                }
            }
        }
    }

    /// Copy the window `[i0, i0+si) × [j0, j0+sj) × [k0, k0+sk)` into
    /// `out` (resized, row-major in (i, j, k)). `i0` may reach into the
    /// x-ghost layers; y/z wrap periodically. This is the *tile view* the
    /// fused kernel caches per supercell so particle gathers index a small
    /// contiguous buffer instead of wrapping into the whole field.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn extract_patch(
        &self,
        i0: isize,
        j0: isize,
        k0: isize,
        si: usize,
        sj: usize,
        sk: usize,
        out: &mut Vec<f64>,
    ) {
        // Every element is overwritten below; only adjust the length.
        if out.len() != si * sj * sk {
            out.clear();
            out.resize(si * sj * sk, 0.0);
        }
        let interior_yz =
            j0 >= 0 && j0 as usize + sj <= self.ny && k0 >= 0 && k0 as usize + sk <= self.nz;
        for di in 0..si {
            let ii = (i0 + di as isize + GHOSTS as isize) as usize;
            debug_assert!(ii < self.nx + 2 * GHOSTS, "x window outside ghosts");
            for dj in 0..sj {
                let dst = ((di * sj) + dj) * sk;
                if interior_yz {
                    let src = (ii * self.ny + (j0 as usize + dj)) * self.nz + k0 as usize;
                    out[dst..dst + sk].copy_from_slice(&self.data[src..src + sk]);
                } else {
                    let gj = j0 + dj as isize;
                    for dk in 0..sk {
                        out[dst + dk] = self.get(i0 + di as isize, gj, k0 + dk as isize);
                    }
                }
            }
        }
    }

    /// Storage range of the x-slab `[i0, i0+w)` (ghost indices allowed):
    /// whole y–z planes are contiguous in (i, j, k) order.
    fn slab_range(&self, i0: isize, w: usize) -> std::ops::Range<usize> {
        assert!(
            i0 >= -(GHOSTS as isize) && i0 + w as isize <= (self.nx + GHOSTS) as isize,
            "x slab [{i0}, {i0}+{w}) outside ghost range"
        );
        let plane = self.ny * self.nz;
        let start = (i0 + GHOSTS as isize) as usize * plane;
        start..start + w * plane
    }

    /// Extract an x-slab `[i0, i0+w)` (ghost indices allowed) in (i, j, k)
    /// order — the halo-exchange payload — into a reused buffer.
    pub(crate) fn extract_slab_into(&self, i0: isize, w: usize, out: &mut Vec<f64>) {
        out.clear();
        out.extend_from_slice(&self.data[self.slab_range(i0, w)]);
    }

    /// Overwrite an x-slab from a flat vector (inverse of
    /// [`Self::extract_slab_into`]).
    pub(crate) fn insert_slab(&mut self, i0: isize, w: usize, data: &[f64]) {
        assert_eq!(data.len(), w * self.ny * self.nz, "slab size mismatch");
        let range = self.slab_range(i0, w);
        self.data[range].copy_from_slice(data);
    }

    /// Accumulate an x-slab from a flat vector (for halo reduction).
    pub(crate) fn add_slab(&mut self, i0: isize, w: usize, data: &[f64]) {
        assert_eq!(data.len(), w * self.ny * self.nz, "slab size mismatch");
        let range = self.slab_range(i0, w);
        for (dst, &src) in self.data[range].iter_mut().zip(data) {
            *dst += src;
        }
    }

    /// Zero the ghost layers only.
    pub(crate) fn clear_ghosts(&mut self) {
        for i0 in [-(GHOSTS as isize), self.nx as isize] {
            let range = self.slab_range(i0, GHOSTS);
            self.data[range].fill(0.0);
        }
    }

    /// The raw storage, `(nx + 2·GHOSTS) × ny × nz` row-major — for gathers
    /// that resolve each axis once per particle ([`Self::resolve_x`],
    /// [`Self::pwrap`]) instead of once per access.
    #[inline]
    pub(crate) fn raw(&self) -> &[f64] {
        &self.data
    }

    /// Storage row of x cell `i` (ghost indices allowed).
    #[inline]
    pub(crate) fn resolve_x(&self, i: isize) -> usize {
        debug_assert!(
            i >= -(GHOSTS as isize) && i < (self.nx + GHOSTS) as isize,
            "x index {i} outside ghost range"
        );
        (i + GHOSTS as isize) as usize
    }
}

/// A three-component vector field (E, B or J).
#[derive(Debug, Clone, PartialEq)]
pub struct VecField3 {
    /// x component.
    pub x: ScalarField3,
    /// y component.
    pub y: ScalarField3,
    /// z component.
    pub z: ScalarField3,
}

impl VecField3 {
    /// Zero-initialised vector field.
    pub fn zeros(nx: usize, ny: usize, nz: usize) -> Self {
        Self {
            x: ScalarField3::zeros(nx, ny, nz),
            y: ScalarField3::zeros(nx, ny, nz),
            z: ScalarField3::zeros(nx, ny, nz),
        }
    }

    /// Zero all three components.
    pub fn clear(&mut self) {
        self.x.clear();
        self.y.clear();
        self.z.clear();
    }

    /// Apply periodic single-domain ghost wrap to all components.
    pub fn wrap_ghosts_periodic(&mut self) {
        self.x.wrap_ghosts_periodic();
        self.y.wrap_ghosts_periodic();
        self.z.wrap_ghosts_periodic();
    }

    /// Fold ghost contributions into the interior (single-domain).
    pub(crate) fn reduce_ghosts_periodic(&mut self) {
        self.x.reduce_ghosts_periodic();
        self.y.reduce_ghosts_periodic();
        self.z.reduce_ghosts_periodic();
    }

    /// Sum of |v|² over the interior (×½ gives field energy density sums).
    pub(crate) fn sq_sum_interior(&self) -> f64 {
        self.x.sq_sum_interior() + self.y.sq_sum_interior() + self.z.sq_sum_interior()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_set_round_trip_with_wrapping() {
        let mut f = ScalarField3::zeros(4, 3, 2);
        f.set(1, 1, 1, 5.0);
        assert_eq!(f.get(1, 1, 1), 5.0);
        // y and z wrap periodically.
        assert_eq!(f.get(1, 4, 1), 5.0);
        assert_eq!(f.get(1, 1, -1), f.get(1, 1, 1));
        // x ghosts are distinct storage.
        f.set(-1, 0, 0, 7.0);
        assert_eq!(f.get(-1, 0, 0), 7.0);
        assert_ne!(f.get(3, 0, 0), 7.0);
    }

    #[test]
    fn periodic_wrap_fills_ghosts() {
        let mut f = ScalarField3::zeros(4, 2, 2);
        for i in 0..4 {
            f.set(i, 0, 0, (i + 1) as f64);
        }
        f.wrap_ghosts_periodic();
        assert_eq!(f.get(-1, 0, 0), 4.0);
        assert_eq!(f.get(-2, 0, 0), 3.0);
        assert_eq!(f.get(4, 0, 0), 1.0);
        assert_eq!(f.get(5, 0, 0), 2.0);
    }

    #[test]
    fn ghost_reduction_adds_and_clears() {
        let mut f = ScalarField3::zeros(4, 2, 2);
        f.add(-1, 0, 0, 2.0);
        f.add(4, 1, 1, 3.0);
        f.reduce_ghosts_periodic();
        assert_eq!(f.get(3, 0, 0), 2.0, "left ghost folds to right edge");
        assert_eq!(f.get(0, 1, 1), 3.0, "right ghost folds to left edge");
        assert_eq!(f.get(-1, 0, 0), 0.0);
        assert_eq!(f.get(4, 1, 1), 0.0);
    }

    #[test]
    fn slab_extract_insert_round_trip() {
        let mut f = ScalarField3::zeros(4, 2, 3);
        for i in 0..4 {
            for j in 0..2 {
                for k in 0..3 {
                    f.set(i, j, k, (100 * i + 10 * j + k) as f64);
                }
            }
        }
        let mut slab = Vec::new();
        f.extract_slab_into(1, 2, &mut slab);
        let mut g = ScalarField3::zeros(4, 2, 3);
        g.insert_slab(1, 2, &slab);
        for j in 0..2 {
            for k in 0..3 {
                assert_eq!(g.get(1, j, k), f.get(1, j, k));
                assert_eq!(g.get(2, j, k), f.get(2, j, k));
            }
        }
    }

    #[test]
    fn add_slab_accumulates() {
        let mut f = ScalarField3::zeros(2, 2, 2);
        f.set(0, 0, 0, 1.0);
        let slab = vec![1.0; 4];
        f.add_slab(0, 1, &slab);
        assert_eq!(f.get(0, 0, 0), 2.0);
        assert_eq!(f.get(0, 1, 1), 1.0);
    }

    #[test]
    fn energy_counts_interior_only() {
        let mut f = ScalarField3::zeros(2, 2, 2);
        f.set(-1, 0, 0, 100.0); // ghost
        f.set(0, 0, 0, 2.0);
        assert_eq!(f.sq_sum_interior(), 4.0);
    }
}
