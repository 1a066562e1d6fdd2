//! Contrastive representation learning on point clouds — the paper's
//! future-work item (c): *"ideally bringing contrastive learning
//! approaches \[68\] to point clouds to learn better latent
//! representations."*
//!
//! Implementation: InfoNCE (NT-Xent) over latent pairs. Two augmented
//! views of the same particle cloud (point resampling + Gaussian jitter —
//! both physically meaningless transformations of the same phase-space
//! sample) should encode to nearby latents, while latents of different
//! clouds repel. The loss and its exact gradient operate on the encoder's
//! latent matrix; augmentations live here too so the extension is
//! self-contained.

use as_tensor::{Tensor, TensorRng};

/// Generate an augmented view of a batch of clouds `[B, P, D]`:
/// resample points with replacement and jitter positions/momenta.
pub fn augment_clouds(points: &Tensor, jitter: f32, rng: &mut TensorRng) -> Tensor {
    let d = points.dims();
    assert_eq!(d.len(), 3, "expected [B, P, D]");
    let (b, p, dim) = (d[0], d[1], d[2]);
    let mut out = Tensor::zeros([b, p, dim]);
    for bi in 0..b {
        for pi in 0..p {
            let src = rng.index(p);
            for di in 0..dim {
                let v = points.at(&[bi, src, di]);
                *out.at_mut(&[bi, pi, di]) = v;
            }
        }
    }
    let noise = rng.normal([b, p, dim], 0.0, jitter);
    out.add_assign(&noise);
    out
}

/// InfoNCE loss over two aligned latent batches `za, zb : [B, Z]`
/// (row i of `za` and row i of `zb` are views of the same cloud).
///
/// Similarities are cosine; `temperature` sharpens the softmax. Returns
/// `(loss, dL/dza, dL/dzb)` with exact gradients.
pub fn info_nce(za: &Tensor, zb: &Tensor, temperature: f32) -> (f64, Tensor, Tensor) {
    assert_eq!(za.dims(), zb.dims(), "latent batch shape mismatch");
    assert_eq!(za.dims().len(), 2);
    let (b, z) = (za.dims()[0], za.dims()[1]);
    assert!(b >= 2, "contrastive loss needs at least two pairs");
    assert!(temperature > 0.0);

    // Normalise rows; keep norms for the gradient chain.
    let norm_rows = |t: &Tensor| -> (Tensor, Vec<f32>) {
        let mut out = t.clone();
        let mut norms = Vec::with_capacity(b);
        for row in out.data_mut().chunks_exact_mut(z) {
            let n = row.iter().map(|v| v * v).sum::<f32>().sqrt().max(1e-8);
            for v in row.iter_mut() {
                *v /= n;
            }
            norms.push(n);
        }
        (out, norms)
    };
    let (na, norms_a) = norm_rows(za);
    let (nb, norms_b) = norm_rows(zb);

    // Similarity matrix s[i][j] = na_i · nb_j / τ.
    let sims = as_tensor::matmul_a_bt(&na, &nb).scale(1.0 / temperature);
    // Cross-entropy with the diagonal as targets, both directions.
    let p_ab = sims.softmax_rows();
    let p_ba = sims.transpose2().softmax_rows();
    let mut loss = 0.0f64;
    for i in 0..b {
        loss -= (p_ab.at(&[i, i]).max(1e-12) as f64).ln();
        loss -= (p_ba.at(&[i, i]).max(1e-12) as f64).ln();
    }
    loss /= (2 * b) as f64;

    // dL/ds = (softmax − onehot)/(2b) from each direction.
    let mut dsim = Tensor::zeros([b, b]);
    for i in 0..b {
        for j in 0..b {
            let g_ab = p_ab.at(&[i, j]) - if i == j { 1.0 } else { 0.0 };
            let g_ba = p_ba.at(&[j, i]) - if i == j { 1.0 } else { 0.0 };
            *dsim.at_mut(&[i, j]) = (g_ab + g_ba) / (2.0 * b as f32) / temperature;
        }
    }
    // d na = dsim · nb ; d nb = dsimᵀ · na.
    let d_na = as_tensor::matmul(&dsim, &nb);
    let d_nb = as_tensor::matmul_at_b(&dsim, &na);
    // Back through the row normalisation: for u = v/|v|,
    // dv = (du − u (u·du)) / |v|.
    let denorm = |d_n: &Tensor, n: &Tensor, norms: &[f32]| -> Tensor {
        let mut out = d_n.clone();
        for (i, &norm) in norms.iter().enumerate().take(b) {
            let u = &n.data()[i * z..(i + 1) * z];
            let du = &d_n.data()[i * z..(i + 1) * z];
            let dot: f32 = u.iter().zip(du).map(|(a, c)| a * c).sum();
            let row = &mut out.data_mut()[i * z..(i + 1) * z];
            for (k, r) in row.iter_mut().enumerate() {
                *r = (du[k] - u[k] * dot) / norm;
            }
        }
        out
    };
    (
        loss,
        denorm(&d_na, &na, &norms_a),
        denorm(&d_nb, &nb, &norms_b),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::finite_diff_check;

    #[test]
    fn aligned_latents_give_low_loss_shuffled_high() {
        let mut rng = TensorRng::seeded(0);
        let za = rng.standard_normal([8, 16]);
        // Positive pairs = identical latents → minimal loss.
        let (aligned, _, _) = info_nce(&za, &za, 0.2);
        // Negative control: pair each row with a different row.
        let shuffled = {
            let rows: Vec<usize> = (0..8).map(|i| (i + 3) % 8).collect();
            za.select_rows(&rows)
        };
        let (mismatched, _, _) = info_nce(&za, &shuffled, 0.2);
        assert!(
            aligned < 0.5 * mismatched,
            "aligned {aligned} vs mismatched {mismatched}"
        );
    }

    #[test]
    fn gradients_match_finite_difference() {
        let mut rng = TensorRng::seeded(1);
        let za = rng.standard_normal([4, 6]);
        let zb = rng.standard_normal([4, 6]);
        let (_, ga, gb) = info_nce(&za, &zb, 0.5);
        let mut fa = |t: &Tensor| info_nce(t, &zb, 0.5).0;
        finite_diff_check(&mut fa, &za, &ga, 1e-2, 5e-2);
        let mut fb = |t: &Tensor| info_nce(&za, t, 0.5).0;
        finite_diff_check(&mut fb, &zb, &gb, 1e-2, 5e-2);
    }

    #[test]
    fn descent_aligns_views() {
        // Gradient descent on zb must pull it towards (the direction of)
        // za row-by-row.
        let mut rng = TensorRng::seeded(2);
        let za = rng.standard_normal([6, 8]);
        let mut zb = rng.standard_normal([6, 8]);
        let (start, _, _) = info_nce(&za, &zb, 0.3);
        for _ in 0..300 {
            let (_, _, gb) = info_nce(&za, &zb, 0.3);
            zb.axpy(-2.0, &gb);
        }
        let (end, _, _) = info_nce(&za, &zb, 0.3);
        assert!(end < 0.5 * start, "InfoNCE descent failed: {start} → {end}");
    }

    #[test]
    fn augmentation_preserves_shape_and_statistics() {
        let mut rng = TensorRng::seeded(3);
        let pts = rng.uniform([2, 64, 6], -1.0, 1.0);
        let aug = augment_clouds(&pts, 0.01, &mut rng);
        assert_eq!(aug.dims(), pts.dims());
        // Means stay close (resampling + small jitter).
        assert!((aug.mean() - pts.mean()).abs() < 0.1);
        // But the view is not identical.
        assert!(aug.sub(&pts).sq_norm() > 1e-6);
    }

    #[test]
    fn contrastive_training_of_encoder_latents() {
        // End-to-end with the real encoder: after a few steps, augmented
        // views of the same cloud sit closer in latent space than views
        // of different clouds.
        use crate::optim::{Adam, AdamConfig};
        use crate::vae::{Encoder, VaeConfig};
        let cfg = VaeConfig {
            point_dim: 6,
            encoder_channels: vec![6, 8, 16],
            head_hidden: 12,
            latent: 8,
            decoder_base: 2,
            decoder_channels: vec![4, 6],
        };
        let mut rng = TensorRng::seeded(4);
        let mut enc = Encoder::new(&mut rng, &cfg);
        let mut adam = Adam::new(AdamConfig {
            lr: 3e-3,
            weight_decay: 0.0,
            ..AdamConfig::default()
        });
        // Two distinct "physics" clouds.
        let mut base = rng.uniform([4, 24, 6], -1.0, 1.0);
        for b in 0..4 {
            for p in 0..24 {
                *base.at_mut(&[b, p, 3]) += if b % 2 == 0 { 1.0 } else { -1.0 };
            }
        }
        let mut first = None;
        let mut last = 0.0;
        let ws = &mut as_tensor::Workspace::default();
        for _ in 0..40 {
            let va = augment_clouds(&base, 0.02, &mut rng);
            let vb = augment_clouds(&base, 0.02, &mut rng);
            let (mu_a, _, ctx_a) = enc.forward(&va, ws);
            let (mu_b, _, ctx_b) = enc.forward(&vb, ws);
            let (l, ga, gb) = info_nce(&mu_a, &mu_b, 0.3);
            crate::optim::zero_grads(|v| enc.visit(v));
            let zero = Tensor::zeros(*mu_a.shape());
            let _ = enc.backward(&va, &ga, &zero, ctx_a, false, ws);
            let _ = enc.backward(&vb, &gb, &zero, ctx_b, false, ws);
            adam.step(|v| enc.visit(v));
            first.get_or_insert(l);
            last = l;
        }
        assert!(
            last < first.unwrap(),
            "contrastive pre-training should reduce InfoNCE: {first:?} → {last}"
        );
    }
}
