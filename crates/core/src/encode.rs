//! Encoding simulation data into ML-ready samples.
//!
//! §III-A: "Prepare the collected data for an ML model by finding suitable
//! encodings for spectral and phase space data." One training sample pairs
//! a sub-volume's particle point cloud `D` (positions + momenta,
//! normalised) with the radiation spectrum `I` that sub-volume emitted
//! (log-encoded, resampled to the INN's `dim(I)`).

use as_nn::model::ModelConfig;
use as_radiation::spectrum::Spectrum;
use as_staging::view::VarView;
use as_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Normalisation parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EncodeConfig {
    /// Points per sample cloud (paper: 3×10⁴ fed in, 4096 out).
    pub sample_points: usize,
    /// Momentum normalisation scale (γβ units mapped to ≈[-1,1]).
    pub momentum_scale: f64,
    /// Log-intensity dynamic range for the spectrum encoding.
    pub log_min: f64,
    /// Upper end of the log-intensity range.
    pub log_max: f64,
}

impl Default for EncodeConfig {
    fn default() -> Self {
        Self {
            sample_points: 256,
            momentum_scale: 0.35,
            log_min: -12.0,
            log_max: 2.0,
        }
    }
}

/// One training sample: a point cloud and its spectrum, plus the ground
/// truth region label (used only for evaluation, never for training —
/// the learning is unsupervised).
#[derive(Debug, Clone)]
pub struct Sample {
    /// Flattened point cloud `[sample_points × 6]` (normalised).
    pub points: Vec<f32>,
    /// Encoded spectrum `[spectrum_dim]`.
    pub spectrum: Vec<f32>,
    /// Ground-truth region index (0 approaching, 1 receding, 2 vortex).
    pub region: usize,
    /// Source PIC step.
    pub step: u64,
}

impl EncodeConfig {
    /// Build the point-cloud half of a sample from raw particle arrays
    /// (global coordinates), selecting `sample_points` particles at
    /// random (with replacement when the region holds fewer).
    ///
    /// Positions are centred on the sub-volume and scaled by its
    /// half-extents; momenta scale by `momentum_scale`.
    #[allow(clippy::too_many_arguments)]
    pub fn encode_points(
        &self,
        xs: &[f64],
        ys: &[f64],
        zs: &[f64],
        uxs: &[f64],
        uys: &[f64],
        uzs: &[f64],
        center: [f64; 3],
        half_extent: [f64; 3],
        rng: &mut StdRng,
    ) -> Vec<f32> {
        assert!(!xs.is_empty(), "cannot encode an empty region");
        let n = xs.len();
        let mut out = Vec::with_capacity(self.sample_points * 6);
        for _ in 0..self.sample_points {
            let i = rng.gen_range(0..n);
            out.push((((xs[i] - center[0]) / half_extent[0]) as f32).clamp(-1.5, 1.5));
            out.push((((ys[i] - center[1]) / half_extent[1]) as f32).clamp(-1.5, 1.5));
            out.push((((zs[i] - center[2]) / half_extent[2]) as f32).clamp(-1.5, 1.5));
            out.push((uxs[i] / self.momentum_scale) as f32);
            out.push((uys[i] / self.momentum_scale) as f32);
            out.push((uzs[i] / self.momentum_scale) as f32);
        }
        out
    }

    /// Zero-copy twin of [`Self::encode_points`]: reads particles
    /// straight out of staging [`VarView`]s through a region index list
    /// instead of gathered per-region copies. Consumes the RNG
    /// identically (one `gen_range(0..idx.len())` per output point) and
    /// performs the same f64→f32 arithmetic, so under the lossless wire
    /// codec the output is bit-identical to the gather path.
    #[allow(clippy::too_many_arguments)]
    pub fn encode_points_view(
        &self,
        xs: &VarView,
        ys: &VarView,
        zs: &VarView,
        uxs: &VarView,
        uys: &VarView,
        uzs: &VarView,
        idx: &[usize],
        center: [f64; 3],
        half_extent: [f64; 3],
        rng: &mut StdRng,
    ) -> Vec<f32> {
        assert!(!idx.is_empty(), "cannot encode an empty region");
        let n = idx.len();
        let mut out = Vec::with_capacity(self.sample_points * 6);
        for _ in 0..self.sample_points {
            let i = idx[rng.gen_range(0..n)];
            out.push((((xs.get_f64(i) - center[0]) / half_extent[0]) as f32).clamp(-1.5, 1.5));
            out.push((((ys.get_f64(i) - center[1]) / half_extent[1]) as f32).clamp(-1.5, 1.5));
            out.push((((zs.get_f64(i) - center[2]) / half_extent[2]) as f32).clamp(-1.5, 1.5));
            out.push((uxs.get_f64(i) / self.momentum_scale) as f32);
            out.push((uys.get_f64(i) / self.momentum_scale) as f32);
            out.push((uzs.get_f64(i) / self.momentum_scale) as f32);
        }
        out
    }

    /// Encode a spectrum into the INN condition vector.
    pub fn encode_spectrum(&self, spectrum: &Spectrum, dim: usize) -> Vec<f32> {
        let resampled = if spectrum.frequencies.len() == dim {
            spectrum.clone()
        } else {
            spectrum.resample_log(dim)
        };
        resampled.encode_log(self.log_min, self.log_max)
    }

    /// Recover a physical momentum from an encoded value.
    pub(crate) fn decode_momentum(&self, encoded: f32) -> f64 {
        encoded as f64 * self.momentum_scale
    }
}

/// Assemble a batch of samples into model input tensors
/// `(points:[B,P,6], spectra:[B,S])`.
pub fn batch_to_tensors(batch: &[Sample], model: &ModelConfig) -> (Tensor, Tensor) {
    assert!(!batch.is_empty());
    let p = batch[0].points.len() / 6;
    let s = model.spectrum_dim;
    let b = batch.len();
    let mut points = Vec::with_capacity(b * p * 6);
    let mut spectra = Vec::with_capacity(b * s);
    for sample in batch {
        assert_eq!(sample.points.len(), p * 6, "inconsistent cloud sizes");
        assert_eq!(sample.spectrum.len(), s, "inconsistent spectrum sizes");
        points.extend_from_slice(&sample.points);
        spectra.extend_from_slice(&sample.spectrum);
    }
    (
        Tensor::from_vec([b, p, 6], points),
        Tensor::from_vec([b, s], spectra),
    )
}

/// Seeded RNG helper for encoders.
pub fn encoder_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_encoding_shape_and_normalisation() {
        let cfg = EncodeConfig {
            sample_points: 16,
            ..EncodeConfig::default()
        };
        let mut rng = encoder_rng(0);
        let xs = vec![1.0, 3.0];
        let ys = vec![2.0, 2.0];
        let zs = vec![0.5, 0.5];
        let uxs = vec![0.35, -0.35];
        let uys = vec![0.0, 0.0];
        let uzs = vec![0.0, 0.0];
        let pts = cfg.encode_points(
            &xs,
            &ys,
            &zs,
            &uxs,
            &uys,
            &uzs,
            [2.0, 2.0, 0.5],
            [1.0, 1.0, 0.5],
            &mut rng,
        );
        assert_eq!(pts.len(), 16 * 6);
        for chunk in pts.chunks_exact(6) {
            assert!(chunk[0].abs() <= 1.0 + 1e-6);
            assert!((chunk[3].abs() - 1.0).abs() < 1e-6, "u/scale = ±1");
        }
    }

    #[test]
    fn view_encode_is_bit_identical_to_gather_encode() {
        use as_staging::engine::{open_stream, StreamConfig};
        // Publish six particle arrays on a lossless stream, then encode
        // the same region through both paths with identically seeded
        // RNGs: every output f32 must match bit-for-bit.
        let cfg = EncodeConfig {
            sample_points: 64,
            ..EncodeConfig::default()
        };
        let names = ["x", "y", "z", "ux", "uy", "uz"];
        let arrays: Vec<Vec<f64>> = (0..6)
            .map(|k| (0..37).map(|i| (i as f64) * 0.1 + k as f64).collect())
            .collect();
        let (mut writers, mut readers) = open_stream(StreamConfig::default());
        let mut w = writers.remove(0);
        w.begin_step();
        for (name, data) in names.iter().zip(&arrays) {
            w.put_f64(name, data.len() as u64, 0, data);
        }
        w.end_step();
        w.close();
        let mut r = readers.remove(0);
        let mut step = r.begin_step().expect("one step");
        let views: Vec<_> = names.iter().map(|n| step.get_f64_view(n)).collect();
        // Region = every third particle, like a shear-band filter would pick.
        let idx: Vec<usize> = (0..37).step_by(3).collect();
        let gather: Vec<Vec<f64>> = arrays
            .iter()
            .map(|a| idx.iter().map(|&i| a[i]).collect())
            .collect();
        let center = [1.0, 2.0, 3.0];
        let half = [2.0, 2.0, 2.0];
        let mut rng_a = encoder_rng(42);
        let mut rng_b = encoder_rng(42);
        let legacy = cfg.encode_points(
            &gather[0], &gather[1], &gather[2], &gather[3], &gather[4], &gather[5], center, half,
            &mut rng_a,
        );
        let viewed = cfg.encode_points_view(
            &views[0], &views[1], &views[2], &views[3], &views[4], &views[5], &idx, center, half,
            &mut rng_b,
        );
        assert_eq!(legacy.len(), viewed.len());
        for (a, b) in legacy.iter().zip(&viewed) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        r.end_step(step);
    }

    #[test]
    fn decode_momentum_inverts_encoding() {
        let cfg = EncodeConfig::default();
        let u = 0.21f64;
        let enc = (u / cfg.momentum_scale) as f32;
        assert!((cfg.decode_momentum(enc) - u).abs() < 1e-6);
    }

    #[test]
    fn spectrum_encoding_matches_model_dim() {
        let cfg = EncodeConfig::default();
        let spec = Spectrum::new(
            (1..=64).map(|i| i as f64 * 0.1).collect(),
            (1..=64i32).map(|i| 10f64.powi(-(i % 10))).collect(),
        );
        let enc = cfg.encode_spectrum(&spec, 16);
        assert_eq!(enc.len(), 16);
        assert!(enc.iter().all(|v| (-1.0..=1.0).contains(v)));
    }

    #[test]
    fn batch_assembly() {
        let model = ModelConfig::small();
        let s1 = Sample {
            points: vec![0.0; 8 * 6],
            spectrum: vec![0.5; model.spectrum_dim],
            region: 0,
            step: 1,
        };
        let s2 = Sample {
            points: vec![1.0; 8 * 6],
            spectrum: vec![-0.5; model.spectrum_dim],
            region: 2,
            step: 2,
        };
        let (p, s) = batch_to_tensors(&[s1, s2], &model);
        assert_eq!(p.dims(), &[2, 8, 6]);
        assert_eq!(s.dims(), &[2, model.spectrum_dim]);
        assert_eq!(p.at(&[1, 0, 0]), 1.0);
        assert_eq!(s.at(&[0, 3]), 0.5);
    }
}
