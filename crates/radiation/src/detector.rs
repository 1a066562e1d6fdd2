//! The synthetic radiation detector: a set of observation directions and a
//! frequency grid (paper Fig. 1: "the spectrally resolved radiation
//! determined by the synthetic radiation detector … radiation intensity
//! per direction and frequency").

/// Observation directions and frequencies (units of ω_pe).
#[derive(Debug, Clone, PartialEq)]
pub struct Detector {
    /// Unit observation directions.
    pub directions: Vec<[f64; 3]>,
    /// Angular frequencies, ascending (units of ω_pe).
    pub frequencies: Vec<f64>,
}

impl Detector {
    /// Build from raw parts, normalising directions.
    pub fn new(directions: Vec<[f64; 3]>, frequencies: Vec<f64>) -> Self {
        assert!(!directions.is_empty() && !frequencies.is_empty());
        let directions = directions
            .into_iter()
            .map(|d| {
                let n = (d[0] * d[0] + d[1] * d[1] + d[2] * d[2]).sqrt();
                assert!(n > 0.0, "zero direction vector");
                [d[0] / n, d[1] / n, d[2] / n]
            })
            .collect();
        let mut last = 0.0;
        for &f in &frequencies {
            assert!(f > last, "frequencies must be positive ascending");
            last = f;
        }
        Self {
            directions,
            frequencies,
        }
    }

    /// Single detector on the +x axis (the direction the KHI streams
    /// approach/recede from) with log-spaced frequencies.
    pub fn along_x(freq_min: f64, freq_max: f64, n_freq: usize) -> Self {
        Self::new(vec![[1.0, 0.0, 0.0]], log_freqs(freq_min, freq_max, n_freq))
    }

    /// A small angular fan in the x–y plane around +x (finite solid angle,
    /// as in Fig. 1), `n_dir` directions spread over ±`half_angle` rad.
    pub fn fan_xy(
        half_angle: f64,
        n_dir: usize,
        freq_min: f64,
        freq_max: f64,
        n_freq: usize,
    ) -> Self {
        assert!(n_dir >= 1);
        let dirs = (0..n_dir)
            .map(|i| {
                let t = if n_dir == 1 {
                    0.0
                } else {
                    -half_angle + 2.0 * half_angle * i as f64 / (n_dir - 1) as f64
                };
                [t.cos(), t.sin(), 0.0]
            })
            .collect();
        Self::new(dirs, log_freqs(freq_min, freq_max, n_freq))
    }

    /// Direction count.
    pub fn n_dirs(&self) -> usize {
        self.directions.len()
    }

    /// Frequency count.
    pub fn n_freqs(&self) -> usize {
        self.frequencies.len()
    }
}

/// Logarithmically spaced frequencies, `n ≥ 2`.
pub(crate) fn log_freqs(min: f64, max: f64, n: usize) -> Vec<f64> {
    assert!(min > 0.0 && max > min && n >= 2);
    let ratio = (max / min).powf(1.0 / (n - 1) as f64);
    (0..n).map(|i| min * ratio.powi(i as i32)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn directions_are_normalised() {
        let d = Detector::new(vec![[2.0, 0.0, 0.0], [0.0, 3.0, 4.0]], vec![1.0, 2.0]);
        for dir in &d.directions {
            let n = (dir[0].powi(2) + dir[1].powi(2) + dir[2].powi(2)).sqrt();
            assert!((n - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn log_freqs_span_and_order() {
        let f = log_freqs(0.1, 100.0, 31);
        assert_eq!(f.len(), 31);
        assert!((f[0] - 0.1).abs() < 1e-12);
        assert!((f[30] - 100.0).abs() / 100.0 < 1e-9);
        assert!(f.windows(2).all(|w| w[1] > w[0]));
        // Constant ratio.
        let r0 = f[1] / f[0];
        let r1 = f[20] / f[19];
        assert!((r0 - r1).abs() < 1e-9);
    }

    #[test]
    fn fan_spans_the_half_angle() {
        let d = Detector::fan_xy(0.5, 5, 1.0, 10.0, 4);
        assert_eq!(d.n_dirs(), 5);
        assert!((d.directions[0][1] - (-0.5f64).sin()).abs() < 1e-12);
        assert!((d.directions[2][0] - 1.0).abs() < 1e-12);
        assert!((d.directions[4][1] - 0.5f64.sin()).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn non_monotone_frequencies_rejected() {
        let _ = Detector::new(vec![[1.0, 0.0, 0.0]], vec![2.0, 1.0]);
    }
}
