//! The analytic reference formulas and the spectrum read-outs that the
//! numerical radiation diagnostics are checked against.

use as_pic::grid::GridSpec;
use as_pic::particles::ParticleBuffer;
use as_pic::sim::SimulationBuilder;
use as_radiation::analytic::{
    approach_recede_ratio, doppler_shift, larmor_power, synchrotron_critical,
};
use as_radiation::detector::Detector;
use as_radiation::plugin::{particle_state, RadiationPlugin, RegionMode};
use as_radiation::spectrum::Spectrum;

#[test]
fn paper_beta_gives_ratio_1_5() {
    assert!((approach_recede_ratio(0.2) - 1.5).abs() < 1e-12);
}

#[test]
fn doppler_limits() {
    assert_eq!(doppler_shift(1.0, 0.0, 1.0), 1.0);
    assert!(doppler_shift(1.0, 0.5, 1.0) > 1.0);
    assert!(doppler_shift(1.0, 0.5, -1.0) < 1.0);
    // Transverse: no first-order shift.
    assert_eq!(doppler_shift(2.0, 0.9, 0.0), 2.0);
}

#[test]
fn synchrotron_grows_as_gamma_cubed() {
    let a = synchrotron_critical(1.0, 1.0);
    let b = synchrotron_critical(2.0, 1.0);
    assert!((b / a - 8.0).abs() < 1e-12);
}

#[test]
fn larmor_power_is_positive_and_gamma_scaled() {
    let p1 = larmor_power(1.0, [0.0; 3], [0.1, 0.0, 0.0]);
    let p2 = larmor_power(2.0, [0.0; 3], [0.1, 0.0, 0.0]);
    assert!(p1 > 0.0);
    assert!((p2 / p1 - 64.0).abs() < 1e-9);
}

fn bump(center: usize) -> Spectrum {
    let freqs: Vec<f64> = (1..=20).map(|i| i as f64 * 0.5).collect();
    let intensity = (0..20)
        .map(|i| (-(i as f64 - center as f64).powi(2) / 4.0).exp())
        .collect();
    Spectrum::new(freqs, intensity)
}

#[test]
fn peak_and_cutoff() {
    let s = bump(8);
    assert!((s.peak_frequency() - 4.5).abs() < 1e-12);
    let cut = s.cutoff_frequency(0.1);
    assert!(cut > s.peak_frequency());
    assert!(cut < 10.0);
}

#[test]
fn cutoff_of_empty_spectrum_is_lowest_frequency() {
    let s = Spectrum::new(vec![1.0, 2.0], vec![0.0, 0.0]);
    assert_eq!(s.cutoff_frequency(0.1), 1.0);
}

#[test]
fn total_power_of_flat_spectrum() {
    let s = Spectrum::new(vec![0.0, 1.0, 2.0], vec![2.0, 2.0, 2.0]);
    assert!((s.total_power() - 4.0).abs() < 1e-12);
}

/// One light electron gyrating in a uniform B, driven through
/// `Simulation::step` and the radiation plugin. The Boris push turns the
/// momentum by θ = 2·atan(ω_cΔt/2) per step, so the β̇ the plugin forms
/// from the momenta after and before a push has
/// |β̇| = ω_c|β⊥|/√(1 + (ω_cΔt/2)²); seen along B the orbit shines in one
/// line at θ/Δt, not at ω_c; and its Larmor power is within (ω_cΔt)²/4
/// of the continuous orbit's.
#[test]
fn circular_orbit_radiates_at_the_discrete_gyro_frequency() {
    let g = GridSpec::cubic(4, 4, 4, 1.0, 0.9);
    let (b0, u0) = (1.0, 0.1);
    let mut electron = ParticleBuffer::new(-1.0, 1.0);
    // So light that the field of its own current stays below round-off.
    electron.push(2.0, 2.0, 2.0, u0, 0.0, 0.0, 1e-20);
    let mut sim = SimulationBuilder::new(g).species(electron).build();
    for i in 0..4 {
        for j in 0..4 {
            for k in 0..4 {
                sim.b.z.set(i, j, k, b0);
            }
        }
    }
    let gamma = (1.0 + u0 * u0).sqrt();
    let omega_c = b0 / gamma;
    let half_turn = omega_c * g.dt / 2.0;
    let line = 2.0 * half_turn.atan() / g.dt;
    // 0.1 % of ω_c apart across ±10 %: the line sits 2 % below ω_c.
    let freqs: Vec<f64> = (0..=200)
        .map(|k| omega_c * (0.9 + 0.001 * k as f64))
        .collect();
    let spacing = 0.001 * omega_c;
    assert!(omega_c - line > 10.0 * spacing);
    let mut plugin = RadiationPlugin::new(
        Detector::new(vec![[0.0, 0.0, 1.0]], freqs.clone()),
        RegionMode::WholeBox,
        0,
    );
    let norm = |v: [f64; 3]| (v[0] * v[0] + v[1] * v[1] + v[2] * v[2]).sqrt();
    for step in 0..400 {
        sim.step();
        plugin.accumulate_for(&sim, 0.0);
        let state = particle_state(&sim, 0, 0);
        let beta_perp = state.beta[0].hypot(state.beta[1]);
        let want = omega_c * beta_perp / (1.0 + half_turn * half_turn).sqrt();
        let got = norm(state.beta_dot);
        assert!(
            (got - want).abs() <= 1e-12 * want,
            "step {step}: |β̇| = {got:e}, the discrete orbit's {want:e}"
        );
        let continuous = [0.0, omega_c * beta_perp, 0.0];
        let analytic = larmor_power(gamma, [beta_perp, 0.0, 0.0], continuous);
        let power = larmor_power(gamma, state.beta, state.beta_dot);
        assert!(
            (power - analytic).abs() <= (omega_c * g.dt).powi(2) / 4.0 * analytic,
            "step {step}: Larmor power {power:e}, continuous orbit {analytic:e}"
        );
    }
    let peak = plugin.spectra()[0][0].peak_frequency();
    assert!(
        (peak - line).abs() <= spacing,
        "peak at {peak}, the discrete orbit's line at {line}, ω_c = {omega_c}"
    );
}
