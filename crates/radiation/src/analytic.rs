//! Analytic reference formulas used to validate the numerical radiation
//! diagnostics and to interpret the Fig. 9 spectra.

/// Relativistic Doppler factor: an emitter with proper modulation
/// frequency `ω₀` moving with velocity `β` at angle `cosθ = n̂·β̂` to the
/// line of sight is observed at `ω₀ / (1 − β·cosθ)`.
pub fn doppler_shift(omega0: f64, beta: f64, cos_theta: f64) -> f64 {
    omega0 / (1.0 - beta * cos_theta)
}

/// Ratio of observed frequencies between an approaching and a receding
/// emitter of the same proper frequency: `(1+β)/(1−β)` for head-on
/// observation. For β = 0.2 (the paper's streams) this is 1.5 — the
/// spectral cutoff separation visible in Fig. 9(a).
pub fn approach_recede_ratio(beta: f64) -> f64 {
    (1.0 + beta) / (1.0 - beta)
}

/// Relativistic critical-frequency scaling for circular motion
/// (synchrotron-like): `ω_c ∝ γ³ ω_gyro`; used as a sanity scale for the
/// spectra of vortex-trapped electrons.
pub fn synchrotron_critical(gamma: f64, omega_gyro: f64) -> f64 {
    1.5 * gamma.powi(3) * omega_gyro
}

/// Larmor total radiated power (normalised units, dropping constant
/// prefactors): `P ∝ γ⁶ [ (β̇)² − (β × β̇)² ]`.
pub fn larmor_power(gamma: f64, beta: [f64; 3], beta_dot: [f64; 3]) -> f64 {
    let bd2 = beta_dot[0].powi(2) + beta_dot[1].powi(2) + beta_dot[2].powi(2);
    let cx = beta[1] * beta_dot[2] - beta[2] * beta_dot[1];
    let cy = beta[2] * beta_dot[0] - beta[0] * beta_dot[2];
    let cz = beta[0] * beta_dot[1] - beta[1] * beta_dot[0];
    let cross2 = cx * cx + cy * cy + cz * cz;
    gamma.powi(6) * (bd2 - cross2)
}
