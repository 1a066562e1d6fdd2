//! Small statistics helpers shared by the benchmarking harnesses.
//!
//! Fig. 6 of the paper shows boxplots of streaming throughput and Fig. 8
//! averages batch times "after removal of > 4σ outliers" — both operations
//! live here so every harness reports them identically.

/// Five-number summary used for the Fig. 6 style boxplots.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoxStats {
    /// Minimum of the sample.
    pub min: f64,
    /// First quartile (linear interpolation).
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Maximum of the sample.
    pub max: f64,
}

/// Compute the five-number summary of `samples`.
///
/// # Panics
/// Panics if `samples` is empty.
pub fn box_stats(samples: &[f64]) -> BoxStats {
    assert!(!samples.is_empty(), "box_stats of empty sample");
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    BoxStats {
        min: sorted[0],
        q1: quantile(&sorted, 0.25),
        median: quantile(&sorted, 0.5),
        q3: quantile(&sorted, 0.75),
        max: sorted[sorted.len() - 1],
    }
}

/// Linear-interpolated quantile of an already **sorted** slice.
pub(crate) fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty());
    assert!((0.0..=1.0).contains(&q), "quantile must be in [0,1]");
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Sample mean.
pub(crate) fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Sample standard deviation (population form).
pub(crate) fn std_dev(samples: &[f64]) -> f64 {
    if samples.len() < 2 {
        return 0.0;
    }
    let m = mean(samples);
    (samples.iter().map(|v| (v - m).powi(2)).sum::<f64>() / samples.len() as f64).sqrt()
}

/// Mean after removing samples more than `n_sigma` standard deviations from
/// the mean — the paper's ">4σ outlier removal" for Fig. 8 (they observed
/// single batches taking >100× the mean on Frontier).
pub fn mean_without_outliers(samples: &[f64], n_sigma: f64) -> f64 {
    let m = mean(samples);
    let s = std_dev(samples);
    if s == 0.0 {
        return m;
    }
    let kept: Vec<f64> = samples
        .iter()
        .copied()
        .filter(|v| (v - m).abs() <= n_sigma * s)
        .collect();
    if kept.is_empty() {
        m
    } else {
        mean(&kept)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn box_stats_of_known_sample() {
        let s = box_stats(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.median, 3.0);
        assert_eq!(s.max, 5.0);
        assert_eq!(s.q1, 2.0);
        assert_eq!(s.q3, 4.0);
    }

    #[test]
    fn quantile_interpolates() {
        let sorted = [0.0, 10.0];
        assert_eq!(quantile(&sorted, 0.5), 5.0);
        assert_eq!(quantile(&sorted, 0.0), 0.0);
        assert_eq!(quantile(&sorted, 1.0), 10.0);
    }

    #[test]
    fn outlier_removal_recovers_clean_mean() {
        // 100 samples at ~1.0 plus one 100× outlier (the paper's scenario).
        let mut samples = vec![1.0; 100];
        samples.push(100.0);
        let naive = mean(&samples);
        let clean = mean_without_outliers(&samples, 4.0);
        assert!(naive > 1.5);
        assert!((clean - 1.0).abs() < 1e-9);
    }

    #[test]
    fn outlier_removal_keeps_tight_samples() {
        let samples = [1.0, 1.1, 0.9, 1.05, 0.95];
        let m = mean_without_outliers(&samples, 4.0);
        assert!((m - mean(&samples)).abs() < 1e-12);
    }

    #[test]
    fn std_dev_of_constant_is_zero() {
        assert_eq!(std_dev(&[2.0, 2.0, 2.0]), 0.0);
    }
}
