//! Seeded random tensor generation.
//!
//! Every stochastic piece of the workflow (weight init, reparameterisation
//! noise, buffer eviction) draws from explicitly seeded generators so runs
//! are reproducible — a practical necessity the paper's §V-A hyper-parameter
//! discussion underlines.

use crate::shape::Shape;
use crate::tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A seeded generator producing tensors.
pub struct TensorRng {
    rng: StdRng,
}

impl TensorRng {
    /// Create from an explicit seed.
    pub fn seeded(seed: u64) -> Self {
        Self {
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Standard normal samples (Box–Muller on uniform draws).
    pub fn standard_normal(&mut self, shape: impl Into<Shape>) -> Tensor {
        let mut t = Tensor::zeros(shape);
        self.fill_standard_normal(t.data_mut());
        t
    }

    /// Overwrite `out` with standard normal samples — the same stream
    /// [`TensorRng::standard_normal`] draws for `out.len()` elements.
    pub fn fill_standard_normal(&mut self, out: &mut [f32]) {
        for pair in out.chunks_mut(2) {
            let u1: f32 = self.rng.gen_range(f32::EPSILON..1.0);
            let u2: f32 = self.rng.gen_range(0.0..1.0);
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = 2.0 * std::f32::consts::PI * u2;
            pair[0] = r * theta.cos();
            if let Some(second) = pair.get_mut(1) {
                *second = r * theta.sin();
            }
        }
    }

    /// Uniform samples in `[lo, hi)`.
    pub fn uniform(&mut self, shape: impl Into<Shape>, lo: f32, hi: f32) -> Tensor {
        let shape = shape.into();
        let n = shape.numel();
        let data = (0..n).map(|_| self.rng.gen_range(lo..hi)).collect();
        Tensor::from_vec(shape, data)
    }

    /// A uniformly random index below `n`.
    pub fn index(&mut self, n: usize) -> usize {
        self.rng.gen_range(0..n)
    }

    /// The generator's raw state words (checkpoint capture).
    pub fn state(&self) -> [u64; 4] {
        self.rng.state()
    }

    /// Rebuild a generator mid-stream from captured state words
    /// (checkpoint restore) — resumes the exact noise sequence.
    pub fn from_state(s: [u64; 4]) -> Self {
        Self {
            rng: StdRng::from_state(s),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeding_is_reproducible() {
        let a = TensorRng::seeded(5).standard_normal([100]);
        let b = TensorRng::seeded(5).standard_normal([100]);
        assert_eq!(a, b);
        let c = TensorRng::seeded(6).standard_normal([100]);
        assert_ne!(a, c);
    }

    fn mean_of(t: &Tensor) -> f64 {
        t.data().iter().map(|&v| v as f64).sum::<f64>() / t.numel() as f64
    }

    #[test]
    fn standard_normal_moments() {
        let t = TensorRng::seeded(1).standard_normal([50_000]);
        let mean = mean_of(&t);
        let var = t
            .data()
            .iter()
            .map(|&v| (v as f64 - mean).powi(2))
            .sum::<f64>()
            / t.numel() as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
    }

    #[test]
    fn uniform_bounds_respected() {
        let t = TensorRng::seeded(2).uniform([10_000], -1.5, 2.5);
        assert!(t.data().iter().all(|&v| (-1.5..2.5).contains(&v)));
        assert!(mean_of(&t).abs() - 0.5 < 0.1);
    }

    #[test]
    fn index_is_in_range() {
        let mut rng = TensorRng::seeded(4);
        for _ in 0..100 {
            assert!(rng.index(7) < 7);
        }
    }
}
