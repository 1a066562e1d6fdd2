//! Spectrum post-processing: the bridge between raw intensities and the
//! ML-ready encodings / Fig. 9(a) plots.

/// An intensity spectrum over one direction.
#[derive(Debug, Clone, PartialEq)]
pub struct Spectrum {
    /// Angular frequencies (units of ω_pe), ascending.
    pub frequencies: Vec<f64>,
    /// Intensities per frequency.
    pub intensity: Vec<f64>,
}

impl Spectrum {
    /// Build from matching vectors.
    pub fn new(frequencies: Vec<f64>, intensity: Vec<f64>) -> Self {
        assert_eq!(frequencies.len(), intensity.len());
        Self {
            frequencies,
            intensity,
        }
    }

    /// Frequency of the maximum intensity.
    pub fn peak_frequency(&self) -> f64 {
        let i = self
            .intensity
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .expect("nonempty spectrum");
        self.frequencies[i]
    }

    /// Highest frequency whose intensity still exceeds
    /// `threshold × max(intensity)` — the spectral cutoff of Fig. 9(a).
    pub fn cutoff_frequency(&self, threshold: f64) -> f64 {
        let max = self.intensity.iter().cloned().fold(0.0, f64::max);
        if max <= 0.0 {
            return self.frequencies[0];
        }
        let floor = threshold * max;
        for i in (0..self.intensity.len()).rev() {
            if self.intensity[i] >= floor {
                return self.frequencies[i];
            }
        }
        self.frequencies[0]
    }

    /// Total (integrated) intensity, trapezoidal in ω.
    pub fn total_power(&self) -> f64 {
        let mut acc = 0.0;
        for i in 1..self.frequencies.len() {
            let dw = self.frequencies[i] - self.frequencies[i - 1];
            acc += 0.5 * (self.intensity[i] + self.intensity[i - 1]) * dw;
        }
        acc
    }

    /// ML encoding: `log10(I + ε)`, shifted and scaled into roughly
    /// `[-1, 1]` given the expected dynamic range `(log_min, log_max)`.
    /// This is the "suitable encoding for spectral data" step of §III-A.
    pub fn encode_log(&self, log_min: f64, log_max: f64) -> Vec<f32> {
        assert!(log_max > log_min);
        self.intensity
            .iter()
            .map(|&v| {
                let l = (v + 1e-30).log10().clamp(log_min, log_max);
                (2.0 * (l - log_min) / (log_max - log_min) - 1.0) as f32
            })
            .collect()
    }

    /// Resample onto `n` log-spaced bins between the first and last
    /// frequency (mean-pooling), e.g. to fit the INN's `dim(I)`.
    pub fn resample_log(&self, n: usize) -> Spectrum {
        assert!(n >= 2);
        let fmin = self.frequencies[0];
        let fmax = *self.frequencies.last().expect("nonempty");
        let edges: Vec<f64> = (0..=n)
            .map(|i| fmin * (fmax / fmin).powf(i as f64 / n as f64))
            .collect();
        let mut out_i = vec![0.0; n];
        let mut counts = vec![0usize; n];
        for (f, &v) in self.frequencies.iter().zip(&self.intensity) {
            let mut b = 0;
            while b + 1 < n && *f > edges[b + 1] {
                b += 1;
            }
            out_i[b] += v;
            counts[b] += 1;
        }
        for (v, c) in out_i.iter_mut().zip(&counts) {
            if *c > 0 {
                *v /= *c as f64;
            }
        }
        let centers = (0..n).map(|i| (edges[i] * edges[i + 1]).sqrt()).collect();
        Spectrum::new(centers, out_i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bump(center: usize) -> Spectrum {
        let freqs: Vec<f64> = (1..=20).map(|i| i as f64 * 0.5).collect();
        let intensity = (0..20)
            .map(|i| (-(i as f64 - center as f64).powi(2) / 4.0).exp())
            .collect();
        Spectrum::new(freqs, intensity)
    }

    #[test]
    fn encode_log_bounds() {
        let s = Spectrum::new(vec![1.0, 2.0, 3.0], vec![1e-12, 1.0, 1e12]);
        let e = s.encode_log(-6.0, 6.0);
        assert!(e.iter().all(|v| (-1.0..=1.0).contains(v)));
        assert!(e[0] < e[1] && e[1] < e[2]);
        assert_eq!(e[0], -1.0);
        assert_eq!(e[2], 1.0);
    }

    #[test]
    fn resample_preserves_peak_location_roughly() {
        let s = bump(10);
        let r = s.resample_log(8);
        assert_eq!(r.frequencies.len(), 8);
        let orig_peak = s.peak_frequency();
        let new_peak = r.peak_frequency();
        assert!((new_peak / orig_peak).ln().abs() < 0.5);
    }
}
