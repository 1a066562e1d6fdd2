//! Small statistics helpers shared by the benchmarking harnesses.
//!
//! Fig. 6 of the paper shows boxplots of streaming throughput; the
//! five-number summary lives here so every harness reports it identically.

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
}
