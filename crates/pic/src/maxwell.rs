//! Yee-staggered FDTD Maxwell solver (normalised units, c = 1).
//!
//! Staggering (component → location):
//! - `Ex(i+½,j,k)`, `Ey(i,j+½,k)`, `Ez(i,j,k+½)` — cell edges
//! - `Bx(i,j+½,k+½)`, `By(i+½,j,k+½)`, `Bz(i+½,j+½,k)` — cell faces
//! - `J` colocated with `E`.
//!
//! Update equations:
//! - `∂B/∂t = −∇×E` → `advance_b`
//! - `∂E/∂t = ∇×B − J` → `advance_e`
//!
//! Both loops assume ghost layers are up to date (see
//! [`crate::field::ScalarField3::wrap_ghosts_periodic`] or the distributed
//! halo exchange) and touch interior cells only.

use crate::field::VecField3;
use crate::grid::GridSpec;

/// Advance `B` by `dt` using the curl of `E`.
pub(crate) fn advance_b(b: &mut VecField3, e: &VecField3, g: &GridSpec, dt: f64) {
    let (nx, ny, nz) = b.x.dims();
    let (rdx, rdy, rdz) = (1.0 / g.dx, 1.0 / g.dy, 1.0 / g.dz);
    for i in 0..nx as isize {
        for j in 0..ny as isize {
            for k in 0..nz as isize {
                // (∇×E)ₓ at (i, j+½, k+½)
                let curl_x = (e.z.get(i, j + 1, k) - e.z.get(i, j, k)) * rdy
                    - (e.y.get(i, j, k + 1) - e.y.get(i, j, k)) * rdz;
                // (∇×E)ᵧ at (i+½, j, k+½)
                let curl_y = (e.x.get(i, j, k + 1) - e.x.get(i, j, k)) * rdz
                    - (e.z.get(i + 1, j, k) - e.z.get(i, j, k)) * rdx;
                // (∇×E)_z at (i+½, j+½, k)
                let curl_z = (e.y.get(i + 1, j, k) - e.y.get(i, j, k)) * rdx
                    - (e.x.get(i, j + 1, k) - e.x.get(i, j, k)) * rdy;
                b.x.add(i, j, k, -dt * curl_x);
                b.y.add(i, j, k, -dt * curl_y);
                b.z.add(i, j, k, -dt * curl_z);
            }
        }
    }
}

/// Advance `E` by `dt` using the curl of `B` minus the current density.
pub(crate) fn advance_e(
    e: &mut VecField3,
    b: &VecField3,
    j_field: &VecField3,
    g: &GridSpec,
    dt: f64,
) {
    let (nx, ny, nz) = e.x.dims();
    let (rdx, rdy, rdz) = (1.0 / g.dx, 1.0 / g.dy, 1.0 / g.dz);
    for i in 0..nx as isize {
        for jj in 0..ny as isize {
            for k in 0..nz as isize {
                // (∇×B)ₓ at (i+½, j, k)
                let curl_x = (b.z.get(i, jj, k) - b.z.get(i, jj - 1, k)) * rdy
                    - (b.y.get(i, jj, k) - b.y.get(i, jj, k - 1)) * rdz;
                // (∇×B)ᵧ at (i, j+½, k)
                let curl_y = (b.x.get(i, jj, k) - b.x.get(i, jj, k - 1)) * rdz
                    - (b.z.get(i, jj, k) - b.z.get(i - 1, jj, k)) * rdx;
                // (∇×B)_z at (i, j, k+½)
                let curl_z = (b.y.get(i, jj, k) - b.y.get(i - 1, jj, k)) * rdx
                    - (b.x.get(i, jj, k) - b.x.get(i, jj - 1, k)) * rdy;
                e.x.add(i, jj, k, dt * (curl_x - j_field.x.get(i, jj, k)));
                e.y.add(i, jj, k, dt * (curl_y - j_field.y.get(i, jj, k)));
                e.z.add(i, jj, k, dt * (curl_z - j_field.z.get(i, jj, k)));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::VecField3;

    /// A y-polarised plane wave travelling in +x must keep its shape and
    /// return to the start after one box crossing (periodic boundaries).
    #[test]
    fn vacuum_plane_wave_round_trip() {
        let n = 32;
        let g = GridSpec::cubic(n, 4, 4, 0.5, 0.5);
        let mut e = VecField3::zeros(n, 4, 4);
        let mut b = VecField3::zeros(n, 4, 4);
        let j = VecField3::zeros(n, 4, 4);
        let lx = n as f64 * g.dx;
        let kx = 2.0 * std::f64::consts::PI / lx;
        // Ey(i,j+½,k) at x = i·dx; Bz(i+½,j+½,k) at x = (i+½)·dx.
        // For a right-travelling wave Ey = Bz at matching phases; stagger B
        // by half a step in time as the leapfrog requires.
        for i in 0..n as isize {
            let xe = i as f64 * g.dx;
            let xb = (i as f64 + 0.5) * g.dx;
            for jj in 0..4 {
                for k in 0..4 {
                    e.y.set(i, jj, k, (kx * xe).sin());
                    // B at t = +dt/2, shifted by phase kx·(c·dt/2).
                    b.z.set(i, jj, k, (kx * (xb - 0.5 * g.dt)).sin());
                }
            }
        }
        let e0 = e.clone();
        // One full box crossing: t = Lx / c = Lx; steps = Lx/dt.
        let steps = (lx / g.dt).round() as usize;
        for _ in 0..steps {
            e.wrap_ghosts_periodic();
            b.wrap_ghosts_periodic();
            advance_b(&mut b, &e, &g, g.dt);
            b.wrap_ghosts_periodic();
            advance_e(&mut e, &b, &j, &g, g.dt);
        }
        // Compare against the initial snapshot (numerical dispersion gives a
        // small phase error at this resolution).
        let mut err = 0.0f64;
        let mut norm = 0.0f64;
        for i in 0..n as isize {
            let d = e.y.get(i, 0, 0) - e0.y.get(i, 0, 0);
            err += d * d;
            norm += e0.y.get(i, 0, 0).powi(2);
        }
        assert!(
            (err / norm).sqrt() < 0.15,
            "wave did not survive a box crossing: rel err {}",
            (err / norm).sqrt()
        );
    }

    /// Vacuum field energy ½∫(E²+B²) must be conserved by the leapfrog.
    #[test]
    fn vacuum_energy_conservation() {
        let n = 16;
        let g = GridSpec::cubic(n, 8, 4, 0.5, 0.5);
        let mut e = VecField3::zeros(n, 8, 4);
        let mut b = VecField3::zeros(n, 8, 4);
        let j = VecField3::zeros(n, 8, 4);
        let kx = 2.0 * std::f64::consts::PI / (n as f64 * g.dx);
        for i in 0..n as isize {
            let x = i as f64 * g.dx;
            for jj in 0..8 {
                for k in 0..4 {
                    e.y.set(i, jj, k, (kx * x).sin());
                    b.z.set(i, jj, k, (kx * (x + 0.5 * g.dx - 0.5 * g.dt)).sin());
                }
            }
        }
        let energy = |e: &VecField3, b: &VecField3| e.sq_sum_interior() + b.sq_sum_interior();
        let before = energy(&e, &b);
        for _ in 0..200 {
            e.wrap_ghosts_periodic();
            b.wrap_ghosts_periodic();
            advance_b(&mut b, &e, &g, g.dt);
            b.wrap_ghosts_periodic();
            advance_e(&mut e, &b, &j, &g, g.dt);
        }
        let after = energy(&e, &b);
        assert!(
            (after - before).abs() / before < 1e-2,
            "energy drifted: {before} → {after}"
        );
    }

    /// A static current along z must build an azimuthal B (Ampère's law
    /// direction check): positive Jz at one cell line ⇒ ∂E_z/∂t < 0 there.
    #[test]
    fn current_drives_counter_field() {
        let g = GridSpec::cubic(8, 8, 8, 0.5, 0.5);
        let mut e = VecField3::zeros(8, 8, 8);
        let b = VecField3::zeros(8, 8, 8);
        let mut j = VecField3::zeros(8, 8, 8);
        j.z.set(4, 4, 4, 1.0);
        advance_e(&mut e, &b, &j, &g, g.dt);
        assert!(e.z.get(4, 4, 4) < 0.0, "E must oppose the driving current");
        assert_eq!(e.z.get(0, 0, 0), 0.0);
    }
}
