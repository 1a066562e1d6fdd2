//! Structure-of-arrays particle storage with supercell sorting.
//!
//! PIConGPU organises particles into *supercells* to optimise data access
//! patterns [Hönig et al. 2010]; on the CPU the analogue is keeping the SoA
//! buffer sorted by supercell index so gather/deposit walk memory almost
//! linearly. Sorting is a counting sort, O(N); the fused tiled step
//! ([`crate::tile`]) re-bins every step and consumes the per-supercell
//! offset table the sort produces, so the sort keeps all of its working
//! buffers (keys, permutation, cursor, one apply-scratch) inside the
//! [`ParticleBuffer`] — steady-state sorting performs no heap allocation.

use rayon::prelude::*;

/// Below this particle count the rayon map-reduce helpers run serially
/// (fork-join overhead would dominate).
const PAR_MIN: usize = 8_192;

/// Chunk length for parallel in-place passes over the SoA arrays.
const PAR_CHUNK: usize = 16_384;

/// SoA buffer of macro-particles of one species.
///
/// Positions are *global* normalised coordinates; momenta are `u = γβ` in
/// units of mc. `weight` is the phase-space volume each macro-particle
/// carries: a cell at reference density holds `ppc` particles of weight
/// `n̂·V_cell/ppc`, so depositions divided by `V_cell` recover `n̂`.
#[derive(Debug, Clone, Default)]
pub struct ParticleBuffer {
    /// x positions.
    pub x: Vec<f64>,
    /// y positions.
    pub y: Vec<f64>,
    /// z positions.
    pub z: Vec<f64>,
    /// x momenta (γβₓ).
    pub ux: Vec<f64>,
    /// y momenta.
    pub uy: Vec<f64>,
    /// z momenta.
    pub uz: Vec<f64>,
    /// Macro-particle weights.
    pub w: Vec<f64>,
    /// Species charge in units of e (electrons: −1).
    pub charge: f64,
    /// Species mass in units of mₑ.
    pub mass: f64,
    /// Supercell key per particle (sort working buffer, reused).
    sort_keys: Vec<u32>,
    /// Counting-sort permutation (reused).
    sort_perm: Vec<u32>,
    /// Counting-sort write cursors (reused).
    sort_cursor: Vec<usize>,
    /// The one scratch array the permutation is applied through (reused
    /// across all seven SoA arrays and across sorts).
    sort_scratch: Vec<f64>,
    /// Per-supercell offsets from the last sort: supercell `s` owns
    /// particles `offsets[s]..offsets[s+1]` (length `n_supercells + 1`).
    supercell_offsets: Vec<usize>,
}

impl ParticleBuffer {
    /// Empty buffer for a species.
    pub fn new(charge: f64, mass: f64) -> Self {
        Self {
            charge,
            mass,
            ..Self::default()
        }
    }

    /// Particle count.
    pub fn len(&self) -> usize {
        self.x.len()
    }

    /// True when the buffer holds no particles.
    pub fn is_empty(&self) -> bool {
        self.x.is_empty()
    }

    /// Append one particle.
    #[allow(clippy::too_many_arguments)]
    pub fn push(&mut self, x: f64, y: f64, z: f64, ux: f64, uy: f64, uz: f64, w: f64) {
        self.x.push(x);
        self.y.push(y);
        self.z.push(z);
        self.ux.push(ux);
        self.uy.push(uy);
        self.uz.push(uz);
        self.w.push(w);
    }

    /// Reserve capacity for `n` additional particles.
    pub fn reserve(&mut self, n: usize) {
        self.x.reserve(n);
        self.y.reserve(n);
        self.z.reserve(n);
        self.ux.reserve(n);
        self.uy.reserve(n);
        self.uz.reserve(n);
        self.w.reserve(n);
    }

    /// Lorentz factor of particle `i`.
    #[inline]
    pub fn gamma(&self, i: usize) -> f64 {
        (1.0 + self.ux[i] * self.ux[i] + self.uy[i] * self.uy[i] + self.uz[i] * self.uz[i]).sqrt()
    }

    /// Velocity (β) of particle `i`.
    #[inline]
    pub fn velocity(&self, i: usize) -> (f64, f64, f64) {
        let g = self.gamma(i);
        (self.ux[i] / g, self.uy[i] / g, self.uz[i] / g)
    }

    /// Total kinetic energy `Σ w·m·(γ−1)` (units of mₑc²·n₀·V).
    ///
    /// Summed over fixed-size index chunks whose partials combine in
    /// chunk order — the serial and parallel paths associate identically,
    /// so the result is bit-reproducible for *any* worker count.
    pub fn kinetic_energy(&self) -> f64 {
        const CHUNK: usize = 4096;
        let n = self.len();
        let term = |i: usize| self.w[i] * self.mass * (self.gamma(i) - 1.0);
        let chunk_sum = |c: usize| {
            let lo = c * CHUNK;
            (lo..(lo + CHUNK).min(n)).map(term).sum::<f64>()
        };
        let n_chunks = n.div_ceil(CHUNK);
        let partials: Vec<f64> = if n < PAR_MIN {
            (0..n_chunks).map(chunk_sum).collect()
        } else {
            (0..n_chunks).into_par_iter().map(chunk_sum).collect()
        };
        partials.iter().sum()
    }

    /// Remove every particle whose x lies outside `[x_lo, x_hi)` — the
    /// migration step of the slab decomposition — handing each, in buffer
    /// order, to `leaver` as `[x, y, z, ux, uy, uz, w]`; the particles that
    /// stay keep their order.
    pub fn drain_outside_x(&mut self, x_lo: f64, x_hi: f64, mut leaver: impl FnMut([f64; 7])) {
        let mut keep = 0usize;
        for i in 0..self.len() {
            if self.x[i] >= x_lo && self.x[i] < x_hi {
                if keep != i {
                    self.x[keep] = self.x[i];
                    self.y[keep] = self.y[i];
                    self.z[keep] = self.z[i];
                    self.ux[keep] = self.ux[i];
                    self.uy[keep] = self.uy[i];
                    self.uz[keep] = self.uz[i];
                    self.w[keep] = self.w[i];
                }
                keep += 1;
            } else {
                leaver([
                    self.x[i], self.y[i], self.z[i], self.ux[i], self.uy[i], self.uz[i], self.w[i],
                ]);
            }
        }
        self.truncate(keep);
    }

    /// Append all particles of `other`.
    pub fn extend_from(&mut self, other: &ParticleBuffer) {
        self.x.extend_from_slice(&other.x);
        self.y.extend_from_slice(&other.y);
        self.z.extend_from_slice(&other.z);
        self.ux.extend_from_slice(&other.ux);
        self.uy.extend_from_slice(&other.uy);
        self.uz.extend_from_slice(&other.uz);
        self.w.extend_from_slice(&other.w);
    }

    fn truncate(&mut self, n: usize) {
        self.x.truncate(n);
        self.y.truncate(n);
        self.z.truncate(n);
        self.ux.truncate(n);
        self.uy.truncate(n);
        self.uz.truncate(n);
        self.w.truncate(n);
    }

    /// Wrap one coordinate array into `[0, l)`, in parallel above
    /// [`PAR_MIN`] elements. Uses [`crate::tile::wrap_coord`] so the
    /// result is bit-identical to the fused kernel's inline wrapping.
    fn wrap_axis(v: &mut [f64], l: f64) {
        if v.len() < PAR_MIN {
            for x in v {
                *x = crate::tile::wrap_coord(*x, l);
            }
        } else {
            v.par_chunks_mut(PAR_CHUNK).for_each(|chunk| {
                for x in chunk {
                    *x = crate::tile::wrap_coord(*x, l);
                }
            });
        }
    }

    /// Wrap positions into the periodic box `[0,lx)×[0,ly)×[0,lz)`.
    pub fn apply_periodic(&mut self, lx: f64, ly: f64, lz: f64) {
        Self::wrap_axis(&mut self.x, lx);
        Self::wrap_axis(&mut self.y, ly);
        Self::wrap_axis(&mut self.z, lz);
    }

    /// Counting sort by supercell index (supercells of `edge` cells per
    /// axis on a grid of `dx/dy/dz`-sized cells, `nx×ny×nz` total).
    ///
    /// Returns the per-supercell offset table: supercell `s` (index
    /// `(cx·scy + cy)·scz + cz`) owns the contiguous particle range
    /// `offsets[s]..offsets[s+1]`. All working storage is reused across
    /// calls, so steady-state sorting is allocation-free.
    #[allow(clippy::too_many_arguments)]
    pub fn sort_by_supercell(
        &mut self,
        edge: usize,
        dx: f64,
        dy: f64,
        dz: f64,
        nx: usize,
        ny: usize,
        nz: usize,
    ) -> &[usize] {
        self.sort_by_supercell_origin(edge, dx, dy, dz, nx, ny, nz, 0.0)
    }

    /// [`Self::sort_by_supercell`] with a slab origin: cell indices are
    /// taken relative to `x_origin_cell` (the global x cell of local cell
    /// 0), as the distributed slab decomposition requires.
    #[allow(clippy::too_many_arguments)]
    pub fn sort_by_supercell_origin(
        &mut self,
        edge: usize,
        dx: f64,
        dy: f64,
        dz: f64,
        nx: usize,
        ny: usize,
        nz: usize,
        x_origin_cell: f64,
    ) -> &[usize] {
        let scy = ny.div_ceil(edge);
        let scz = nz.div_ceil(edge);
        let n_sc = nx.div_ceil(edge) * scy * scz;
        let n = self.len();

        // Pass 1: cache each particle's supercell key and histogram them.
        resize_scratch(&mut self.sort_keys, n);
        self.supercell_offsets.clear();
        self.supercell_offsets.resize(n_sc + 1, 0);
        for i in 0..n {
            let cx = ((self.x[i] / dx - x_origin_cell).max(0.0) as usize).min(nx - 1) / edge;
            let cy = ((self.y[i] / dy).max(0.0) as usize).min(ny - 1) / edge;
            let cz = ((self.z[i] / dz).max(0.0) as usize).min(nz - 1) / edge;
            let s = (cx * scy + cy) * scz + cz;
            self.sort_keys[i] = s as u32;
            self.supercell_offsets[s + 1] += 1;
        }
        for s in 1..=n_sc {
            self.supercell_offsets[s] += self.supercell_offsets[s - 1];
        }

        // Pass 2: stable placement into the permutation.
        resize_scratch(&mut self.sort_perm, n);
        self.sort_cursor.clear();
        self.sort_cursor
            .extend_from_slice(&self.supercell_offsets[..n_sc]);
        for i in 0..n {
            let s = self.sort_keys[i] as usize;
            self.sort_perm[self.sort_cursor[s]] = i as u32;
            self.sort_cursor[s] += 1;
        }

        // Pass 3: apply the permutation to all seven SoA arrays through the
        // single reusable scratch.
        resize_scratch(&mut self.sort_scratch, n);
        let perm = &self.sort_perm;
        let scratch = &mut self.sort_scratch;
        for arr in [
            &mut self.x,
            &mut self.y,
            &mut self.z,
            &mut self.ux,
            &mut self.uy,
            &mut self.uz,
            &mut self.w,
        ] {
            for (dst, &src) in scratch.iter_mut().zip(perm.iter()) {
                *dst = arr[src as usize];
            }
            std::mem::swap(arr, scratch);
        }
        &self.supercell_offsets
    }

    /// Offset table produced by the most recent sort (empty before any
    /// sort). See [`Self::sort_by_supercell`].
    pub fn supercell_offsets(&self) -> &[usize] {
        &self.supercell_offsets
    }

    /// Mutable views of all seven SoA arrays plus the supercell offset
    /// table, borrowed simultaneously (the tiled kernel updates particles
    /// per tile while walking the offsets).
    #[allow(clippy::type_complexity)]
    pub(crate) fn soa_views_mut(&mut self) -> ([&mut [f64]; 7], &[usize]) {
        (
            [
                &mut self.x,
                &mut self.y,
                &mut self.z,
                &mut self.ux,
                &mut self.uy,
                &mut self.uz,
                &mut self.w,
            ],
            &self.supercell_offsets,
        )
    }
}

/// Set the length of a sort working buffer to `n` (contents unspecified).
/// The first allocation leaves an eighth of head-room: a slab's particle
/// count wobbles with migration, and a buffer sized to the count of the
/// first step would reallocate at every new maximum after it.
fn resize_scratch<T: Copy + Default>(buf: &mut Vec<T>, n: usize) {
    if buf.capacity() < n {
        buf.reserve(n + n / 8 - buf.len());
    }
    buf.resize(n, T::default());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ParticleBuffer {
        let mut p = ParticleBuffer::new(-1.0, 1.0);
        p.push(0.1, 0.2, 0.3, 0.0, 0.0, 0.0, 1.0);
        p.push(1.5, 0.8, 0.1, 1.0, 0.0, 0.0, 2.0);
        p.push(2.9, 1.9, 0.9, 0.0, 2.0, 0.0, 3.0);
        p
    }

    #[test]
    fn gamma_and_velocity() {
        let p = sample();
        assert_eq!(p.gamma(0), 1.0);
        assert!((p.gamma(1) - 2f64.sqrt()).abs() < 1e-12);
        let (vx, _, _) = p.velocity(1);
        assert!((vx - 1.0 / 2f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn kinetic_energy_weighted() {
        let p = sample();
        let expect = 2.0 * (2f64.sqrt() - 1.0) + 3.0 * (5f64.sqrt() - 1.0);
        assert!((p.kinetic_energy() - expect).abs() < 1e-12);
    }

    #[test]
    fn drain_outside_partitions_exactly() {
        let mut p = sample();
        let mut out = Vec::new();
        p.drain_outside_x(0.0, 2.0, |leaver| out.push(leaver));
        assert_eq!(p.len(), 2);
        assert_eq!(out, [[2.9, 1.9, 0.9, 0.0, 2.0, 0.0, 3.0]]);
        assert_eq!(p.x, vec![0.1, 1.5]);
    }

    #[test]
    fn periodic_wrap() {
        let mut p = ParticleBuffer::new(-1.0, 1.0);
        p.push(-0.5, 2.5, 1.0, 0.0, 0.0, 0.0, 1.0);
        p.apply_periodic(2.0, 2.0, 2.0);
        assert!((p.x[0] - 1.5).abs() < 1e-12);
        assert!((p.y[0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn supercell_sort_groups_neighbours() {
        let mut p = ParticleBuffer::new(-1.0, 1.0);
        // Two particles in supercell (1,*) then one in (0,*): after sorting
        // the (0,*) particle must come first.
        p.push(3.5, 0.1, 0.1, 0.0, 0.0, 0.0, 1.0);
        p.push(3.6, 0.2, 0.2, 0.0, 0.0, 0.0, 2.0);
        p.push(0.1, 0.1, 0.1, 0.0, 0.0, 0.0, 3.0);
        p.sort_by_supercell(2, 1.0, 1.0, 1.0, 4, 4, 4);
        assert_eq!(p.w, vec![3.0, 1.0, 2.0], "stable counting sort expected");
    }

    #[test]
    fn sort_preserves_all_particles() {
        let mut p = ParticleBuffer::new(-1.0, 1.0);
        for i in 0..100 {
            let f = i as f64;
            p.push(
                (f * 0.37) % 4.0,
                (f * 0.73) % 4.0,
                (f * 0.11) % 4.0,
                f,
                -f,
                0.5 * f,
                f + 1.0,
            );
        }
        let w_sum: f64 = p.w.iter().sum();
        p.sort_by_supercell(2, 1.0, 1.0, 1.0, 4, 4, 4);
        assert_eq!(p.len(), 100);
        assert!((p.w.iter().sum::<f64>() - w_sum).abs() < 1e-9);
    }
}
