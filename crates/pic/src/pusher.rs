//! Relativistic Boris particle pusher.
//!
//! The standard leapfrog rotation scheme: half electric kick, magnetic
//! rotation, half electric kick. Exactly energy-conserving for pure
//! magnetic fields, second-order accurate in time.

use crate::lanes::Lanes;

/// One Boris update of the momentum `u = γβ` (units mc).
///
/// `qm_dt_half = (q/m)·dt/2` in normalised units (electrons: −dt/2).
/// Returns the new momentum. This is `boris_lanes` at one lane.
#[inline]
#[allow(clippy::too_many_arguments)]
pub(crate) fn boris(
    ux: f64,
    uy: f64,
    uz: f64,
    ex: f64,
    ey: f64,
    ez: f64,
    bx: f64,
    by: f64,
    bz: f64,
    qm_dt_half: f64,
) -> (f64, f64, f64) {
    let lane = Lanes::<1>::splat;
    let [ux, uy, uz] = boris_lanes(
        [lane(ux), lane(uy), lane(uz)],
        [lane(ex), lane(ey), lane(ez)],
        [lane(bx), lane(by), lane(bz)],
        qm_dt_half,
    );
    (ux.0[0], uy.0[0], uz.0[0])
}

/// [`boris`] for `L` particles at once: momenta `u[axis]`, fields `e`,
/// `b` likewise. Each lane runs the scalar update op for op, so a lane's
/// result is the bits one [`boris`] call gives it.
#[inline(always)]
pub(crate) fn boris_lanes<const L: usize>(
    u: [Lanes<L>; 3],
    e: [Lanes<L>; 3],
    b: [Lanes<L>; 3],
    qm_dt_half: f64,
) -> [Lanes<L>; 3] {
    let ([ux, uy, uz], [ex, ey, ez], [bx, by, bz]) = (u, e, b);
    // Half electric impulse.
    let umx = ux + qm_dt_half * ex;
    let umy = uy + qm_dt_half * ey;
    let umz = uz + qm_dt_half * ez;
    // Rotation around B.
    let gamma_m = (1.0 + umx * umx + umy * umy + umz * umz).sqrt();
    let tx = qm_dt_half * bx / gamma_m;
    let ty = qm_dt_half * by / gamma_m;
    let tz = qm_dt_half * bz / gamma_m;
    let t2 = tx * tx + ty * ty + tz * tz;
    let sx = 2.0 * tx / (1.0 + t2);
    let sy = 2.0 * ty / (1.0 + t2);
    let sz = 2.0 * tz / (1.0 + t2);
    // u' = u⁻ + u⁻ × t
    let upx = umx + (umy * tz - umz * ty);
    let upy = umy + (umz * tx - umx * tz);
    let upz = umz + (umx * ty - umy * tx);
    // u⁺ = u⁻ + u' × s
    let uplx = umx + (upy * sz - upz * sy);
    let uply = umy + (upz * sx - upx * sz);
    let uplz = umz + (upx * sy - upy * sx);
    // Half electric impulse.
    [
        uplx + qm_dt_half * ex,
        uply + qm_dt_half * ey,
        uplz + qm_dt_half * ez,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pure_magnetic_field_conserves_energy_exactly() {
        let (mut ux, mut uy, mut uz) = (0.5, 0.0, 0.1);
        let u2_0 = ux * ux + uy * uy + uz * uz;
        for _ in 0..10_000 {
            let (a, b, c) = boris(ux, uy, uz, 0.0, 0.0, 0.0, 0.0, 0.0, 2.0, -0.05);
            ux = a;
            uy = b;
            uz = c;
        }
        let u2 = ux * ux + uy * uy + uz * uz;
        assert!(
            (u2 - u2_0).abs() / u2_0 < 1e-12,
            "Boris rotation must conserve |u| exactly: {u2_0} vs {u2}"
        );
    }

    #[test]
    fn gyrofrequency_matches_theory() {
        // Electron in uniform Bz: gyrates at ω_c = |q|B/(γm). Count the
        // period by tracking sign changes of ux.
        let b = 1.0;
        let dt = 0.01;
        let u0 = 0.3;
        let gamma = (1.0f64 + u0 * u0).sqrt();
        let omega_c = b / gamma;
        let period = 2.0 * std::f64::consts::PI / omega_c;
        let (mut ux, mut uy, mut uz) = (u0, 0.0, 0.0);
        let mut crossings = Vec::new();
        let mut prev = ux;
        for step in 1..200_000 {
            let (a, bb, c) = boris(ux, uy, uz, 0.0, 0.0, 0.0, 0.0, 0.0, b, -dt / 2.0);
            ux = a;
            uy = bb;
            uz = c;
            if prev <= 0.0 && ux > 0.0 {
                crossings.push(step as f64 * dt);
                if crossings.len() == 3 {
                    break;
                }
            }
            prev = ux;
        }
        assert!(crossings.len() >= 2, "must complete at least two periods");
        let measured = crossings[1] - crossings[0];
        assert!(
            (measured - period).abs() / period < 1e-3,
            "gyroperiod {measured} vs theory {period}"
        );
    }

    #[test]
    fn e_cross_b_drift_velocity() {
        // Ey and Bz: the guiding centre drifts at v = E×B/B² = (Ey/Bz) x̂.
        let ey = 0.02;
        let bz = 1.0;
        let dt = 0.02;
        let (mut ux, mut uy, mut uz) = (0.0, 0.0, 0.0);
        let mut sum_vx = 0.0;
        let steps = 100_000;
        for _ in 0..steps {
            let (a, b, c) = boris(ux, uy, uz, 0.0, ey, 0.0, 0.0, 0.0, bz, -dt / 2.0);
            ux = a;
            uy = b;
            uz = c;
            let g = (1.0f64 + ux * ux + uy * uy + uz * uz).sqrt();
            sum_vx += ux / g;
        }
        let mean_vx = sum_vx / steps as f64;
        // Electron: drift = E×B/B² independent of charge sign = (Ey·x̂?) —
        // E×B = (Ey ŷ)×(Bz ẑ) = Ey·Bz x̂ ⇒ v_d = +Ey/Bz x̂.
        let v_d = ey / bz;
        assert!(
            (mean_vx - v_d).abs() < 0.2 * v_d.abs() + 1e-4,
            "E×B drift {mean_vx} vs {v_d}"
        );
    }

    #[test]
    fn electric_acceleration_direction() {
        // Electron (q/m = −1) in +x E field accelerates in −x.
        let (ux, _, _) = boris(0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, -0.5);
        assert!(ux < 0.0);
    }

    #[test]
    fn zero_fields_leave_momentum_unchanged() {
        let (ux, uy, uz) = boris(0.3, -0.2, 0.7, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, -0.5);
        assert_eq!((ux, uy, uz), (0.3, -0.2, 0.7));
    }
}
