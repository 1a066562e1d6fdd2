//! Grid geometry and stability checks.

/// Uniform Cartesian grid in normalised units, periodic in all directions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridSpec {
    /// Cell counts.
    pub nx: usize,
    /// Cell count in y.
    pub ny: usize,
    /// Cell count in z.
    pub nz: usize,
    /// Cell sizes (c/ω_pe).
    pub dx: f64,
    /// Cell size in y.
    pub dy: f64,
    /// Cell size in z.
    pub dz: f64,
    /// Time step (1/ω_pe).
    pub dt: f64,
}

impl GridSpec {
    /// Cubic-cell grid with a time step at `cfl` of the 3-D Courant limit.
    pub fn cubic(nx: usize, ny: usize, nz: usize, d: f64, cfl: f64) -> Self {
        let dt = cfl * d / 3f64.sqrt();
        Self {
            nx,
            ny,
            nz,
            dx: d,
            dy: d,
            dz: d,
            dt,
        }
    }

    /// Total cell count.
    pub fn cells(&self) -> usize {
        self.nx * self.ny * self.nz
    }

    /// Physical extents (normalised units).
    pub fn extents(&self) -> (f64, f64, f64) {
        (
            self.nx as f64 * self.dx,
            self.ny as f64 * self.dy,
            self.nz as f64 * self.dz,
        )
    }

    /// Courant number `c·dt·sqrt(1/dx² + 1/dy² + 1/dz²)`; FDTD is stable
    /// for values < 1.
    pub fn courant(&self) -> f64 {
        self.dt
            * (1.0 / (self.dx * self.dx) + 1.0 / (self.dy * self.dy) + 1.0 / (self.dz * self.dz))
                .sqrt()
    }

    /// Panics if the configuration is unstable or degenerate.
    pub fn validate(&self) {
        assert!(
            self.nx >= 2 && self.ny >= 2 && self.nz >= 2,
            "grid too small"
        );
        assert!(self.dx > 0.0 && self.dy > 0.0 && self.dz > 0.0 && self.dt > 0.0);
        assert!(
            self.courant() < 1.0,
            "FDTD unstable: Courant number {} ≥ 1",
            self.courant()
        );
        // A particle must not cross more than one cell per step (deposition
        // support assumption); |v| ≤ c = 1 so dt ≤ min(d).
        assert!(
            self.dt <= self.dx.min(self.dy).min(self.dz),
            "dt too large: particles may cross more than one cell per step"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cubic_is_stable_by_construction() {
        let g = GridSpec::cubic(16, 16, 16, 0.5, 0.95);
        g.validate();
        assert!((g.courant() - 0.95).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "unstable")]
    fn unstable_dt_is_rejected() {
        let mut g = GridSpec::cubic(8, 8, 8, 0.5, 0.95);
        g.dt = 1.0;
        g.validate();
    }

    #[test]
    fn extents_and_cells() {
        let g = GridSpec::cubic(4, 8, 2, 0.25, 0.9);
        assert_eq!(g.cells(), 64);
        let (lx, ly, lz) = g.extents();
        assert_eq!((lx, ly, lz), (1.0, 2.0, 0.5));
    }
}
