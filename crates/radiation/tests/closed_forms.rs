//! The analytic reference formulas and the spectrum read-outs that the
//! numerical radiation diagnostics are checked against.

use as_radiation::analytic::{
    approach_recede_ratio, doppler_shift, larmor_power, synchrotron_critical,
};
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
