//! Loss functions of Eq. (1) and their exact gradients.
//!
//! - [`chamfer`] — reconstruction loss `L_CD` between point clouds (the
//!   paper's choice: cheap, differentiable, density-insensitive);
//! - [`sinkhorn_emd`] — the earth-mover's distance the paper *wanted* but
//!   could not run on AMD GPUs (KeOps is CUDA-only); implemented here via
//!   entropic regularisation so the CD-vs-EMD cost ratio (footnote 1: ≈4×)
//!   and quality comparison are reproducible;
//! - [`kl_divergence`] — `L_KL`, the VAE latent regulariser;
//! - [`mse`] — `L_MSE` on predicted radiation spectra;
//! - [`mmd_imq`] — maximum mean discrepancy with the inverse multi-quadratic
//!   kernel (Ardizzone et al.), used for both `L_MMD(z,z′)` and
//!   `L_MMD(N,N′)`.
//!
//! Conventions: the **first** argument is the trainable side; returned
//! gradients are w.r.t. it. Losses are means over the batch so magnitudes
//! are batch-size independent.

use as_tensor::Tensor;
use rayon::prelude::*;

/// Squared Euclidean distance between two `d`-vectors.
#[inline]
fn sqdist(a: &[f32], b: &[f32]) -> f32 {
    let mut acc = 0.0f32;
    for (x, y) in a.iter().zip(b) {
        let d = x - y;
        acc += d * d;
    }
    acc
}

/// Chamfer distance between batched point clouds.
///
/// `pred:[B,N,D]`, `target:[B,M,D]` → `(loss, dL/dpred)`.
///
/// `CD = mean_b [ (1/N) Σᵢ minⱼ ‖pᵢ−tⱼ‖² + (1/M) Σⱼ minᵢ ‖pᵢ−tⱼ‖² ]`.
pub fn chamfer(pred: &Tensor, target: &Tensor) -> (f64, Tensor) {
    let (b, n, d) = cloud_dims(pred, "pred");
    let (bt, m, dt) = cloud_dims(target, "target");
    assert_eq!(b, bt, "batch mismatch");
    assert_eq!(d, dt, "point dimension mismatch");
    let pd = pred.data();
    let td = target.data();

    // Per-batch results computed in parallel, then reduced.
    let per_batch: Vec<(f64, Vec<f32>)> = (0..b)
        .into_par_iter()
        .map(|bi| {
            let ps = &pd[bi * n * d..(bi + 1) * n * d];
            let ts = &td[bi * m * d..(bi + 1) * m * d];
            let mut grad = vec![0.0f32; n * d];
            let mut loss = 0.0f64;
            // One pass over the n×m distances serves both directions: row
            // minima are direction 1, running column minima (strict `<` over
            // ascending `i`: the first nearest prediction wins a tie) are
            // direction 2. Coordinate-major targets let one prediction's
            // distances vectorise, each still summed in `sqdist` order.
            let mut coords = vec![0.0f32; d * m];
            for (j, t) in ts.chunks_exact(d).enumerate() {
                for (k, &tk) in t.iter().enumerate() {
                    coords[k * m + j] = tk;
                }
            }
            let mut dist = vec![0.0f32; m];
            let mut nearest_pred = vec![(f32::INFINITY, 0usize); m];
            // Direction 1: every predicted point to its nearest target.
            for (i, p) in ps.chunks_exact(d).enumerate() {
                dist.fill(0.0);
                for (&pk, coord) in p.iter().zip(coords.chunks_exact(m.max(1))) {
                    for (acc, &tk) in dist.iter_mut().zip(coord) {
                        let diff = pk - tk;
                        *acc += diff * diff;
                    }
                }
                let mut best = f32::INFINITY;
                let mut bj = 0;
                for (j, (&dj, col)) in dist.iter().zip(nearest_pred.iter_mut()).enumerate() {
                    if dj < best {
                        best = dj;
                        bj = j;
                    }
                    if dj < col.0 {
                        *col = (dj, i);
                    }
                }
                loss += best as f64 / n as f64;
                let t = &ts[bj * d..(bj + 1) * d];
                for k in 0..d {
                    grad[i * d + k] += 2.0 * (p[k] - t[k]) / n as f32;
                }
            }
            // Direction 2: every target point to its nearest prediction.
            for (j, &(best, bi2)) in nearest_pred.iter().enumerate() {
                let t = &ts[j * d..(j + 1) * d];
                loss += best as f64 / m as f64;
                let p = &ps[bi2 * d..(bi2 + 1) * d];
                for k in 0..d {
                    grad[bi2 * d + k] += 2.0 * (p[k] - t[k]) / m as f32;
                }
            }
            (loss, grad)
        })
        .collect();

    let mut grad = Tensor::zeros([b, n, d]);
    let mut loss = 0.0;
    for (bi, (l, g)) in per_batch.into_iter().enumerate() {
        loss += l / b as f64;
        let dst = &mut grad.data_mut()[bi * n * d..(bi + 1) * n * d];
        for (o, v) in dst.iter_mut().zip(g) {
            *o = v / b as f32;
        }
    }
    (loss, grad)
}

/// Entropic-regularised earth mover's distance (Sinkhorn divergence,
/// transport-cost form) between batched clouds.
///
/// `pred:[B,N,D]`, `target:[B,M,D]` → `(loss, dL/dpred)`. The gradient uses
/// the envelope approximation (transport plan treated as constant), which is
/// the standard geomloss-style estimator.
pub fn sinkhorn_emd(pred: &Tensor, target: &Tensor, epsilon: f32, iters: usize) -> (f64, Tensor) {
    let (b, n, d) = cloud_dims(pred, "pred");
    let (bt, m, dt) = cloud_dims(target, "target");
    assert_eq!(b, bt, "batch mismatch");
    assert_eq!(d, dt, "point dimension mismatch");
    assert!(epsilon > 0.0 && iters > 0);
    let pd = pred.data();
    let td = target.data();

    let per_batch: Vec<(f64, Vec<f32>)> = (0..b)
        .into_par_iter()
        .map(|bi| {
            let ps = &pd[bi * n * d..(bi + 1) * n * d];
            let ts = &td[bi * m * d..(bi + 1) * m * d];
            // Cost matrix (n×m) and Gibbs kernel.
            let mut cost = vec![0.0f32; n * m];
            for i in 0..n {
                for j in 0..m {
                    cost[i * m + j] = sqdist(&ps[i * d..(i + 1) * d], &ts[j * d..(j + 1) * d]);
                }
            }
            // Scale ε by the mean cost for a dimensionless regulariser.
            let mean_cost: f32 = cost.iter().sum::<f32>() / (n * m) as f32;
            let eps = epsilon * mean_cost.max(1e-12);
            let k: Vec<f32> = cost.iter().map(|&c| (-c / eps).exp()).collect();
            // Sinkhorn iterations with uniform marginals 1/n, 1/m.
            let mut u = vec![1.0f32 / n as f32; n];
            let mut v = vec![1.0f32 / m as f32; m];
            for _ in 0..iters {
                for i in 0..n {
                    let mut s = 0.0f32;
                    for j in 0..m {
                        s += k[i * m + j] * v[j];
                    }
                    u[i] = (1.0 / n as f32) / s.max(1e-30);
                }
                for j in 0..m {
                    let mut s = 0.0f32;
                    for i in 0..n {
                        s += k[i * m + j] * u[i];
                    }
                    v[j] = (1.0 / m as f32) / s.max(1e-30);
                }
            }
            // loss = Σ P_ij C_ij ; grad_aᵢ = Σⱼ P_ij · 2(aᵢ − bⱼ).
            let mut grad = vec![0.0f32; n * d];
            let mut loss = 0.0f64;
            for i in 0..n {
                for j in 0..m {
                    let p_ij = u[i] * k[i * m + j] * v[j];
                    loss += (p_ij * cost[i * m + j]) as f64;
                    let pt = &ps[i * d..(i + 1) * d];
                    let tt = &ts[j * d..(j + 1) * d];
                    for kk in 0..d {
                        grad[i * d + kk] += p_ij * 2.0 * (pt[kk] - tt[kk]);
                    }
                }
            }
            (loss, grad)
        })
        .collect();

    let mut grad = Tensor::zeros([b, n, d]);
    let mut loss = 0.0;
    for (bi, (l, g)) in per_batch.into_iter().enumerate() {
        loss += l / b as f64;
        let dst = &mut grad.data_mut()[bi * n * d..(bi + 1) * n * d];
        for (o, v) in dst.iter_mut().zip(g) {
            *o = v / b as f32;
        }
    }
    (loss, grad)
}

/// VAE latent KL divergence to the standard normal.
///
/// `KL(N(μ,σ²) ‖ N(0,1)) = −½ Σ (1 + logσ² − μ² − σ²)`, averaged over the
/// batch. Returns `(loss, dL/dμ, dL/dlogvar)`.
pub fn kl_divergence(mu: &Tensor, logvar: &Tensor) -> (f64, Tensor, Tensor) {
    assert_eq!(mu.dims(), logvar.dims(), "mu/logvar shape mismatch");
    assert_eq!(mu.dims().len(), 2, "expected [batch, latent]");
    let b = mu.dims()[0] as f64;
    let mut loss = 0.0f64;
    let mut dmu = mu.clone();
    let mut dlv = logvar.clone();
    for ((m, lv), (gm, glv)) in mu
        .data()
        .iter()
        .zip(logvar.data())
        .zip(dmu.data_mut().iter_mut().zip(dlv.data_mut().iter_mut()))
    {
        let var = lv.exp();
        loss += -0.5 * (1.0 + lv - m * m - var) as f64;
        *gm = m / b as f32;
        *glv = -0.5 * (1.0 - var) / b as f32;
    }
    (loss / b, dmu, dlv)
}

/// Mean squared error over all elements. Returns `(loss, dL/dpred)`.
pub fn mse(pred: &Tensor, target: &Tensor) -> (f64, Tensor) {
    assert_eq!(pred.dims(), target.dims(), "mse shape mismatch");
    let n = pred.numel() as f64;
    let mut grad = pred.clone();
    let mut loss = 0.0f64;
    for (g, &t) in grad.data_mut().iter_mut().zip(target.data()) {
        let diff = *g - t;
        loss += (diff as f64) * (diff as f64);
        *g = 2.0 * diff / n as f32;
    }
    (loss / n, grad)
}

/// Maximum mean discrepancy with the inverse multi-quadratic kernel
/// `k(u,v) = C / (C + ‖u−v‖²)` (Ardizzone et al. 2018).
///
/// `x:[n,d]` is the trainable side, `y:[m,d]` the reference sample.
/// Returns `(MMD², dL/dx)` using the biased V-statistic.
pub fn mmd_imq(x: &Tensor, y: &Tensor, c: f32) -> (f64, Tensor) {
    assert_eq!(x.dims().len(), 2, "x must be [n, d]");
    assert_eq!(y.dims().len(), 2, "y must be [m, d]");
    assert_eq!(x.dims()[1], y.dims()[1], "feature dim mismatch");
    let (n, d) = (x.dims()[0], x.dims()[1]);
    let m = y.dims()[0];
    let xd = x.data();
    let yd = y.data();
    assert!(c > 0.0, "IMQ kernel scale must be positive");

    let kern = |a: &[f32], b: &[f32]| -> f32 { c / (c + sqdist(a, b)) };
    // dk/da = −2C (a−b) / (C + ‖a−b‖²)²
    let mut loss = 0.0f64;
    let mut grad = Tensor::zeros([n, d]);

    // E[k(x,x)] term and its gradient.
    for i in 0..n {
        let a = &xd[i * d..(i + 1) * d];
        for j in 0..n {
            let b2 = &xd[j * d..(j + 1) * d];
            let s = sqdist(a, b2);
            loss += (c / (c + s)) as f64 / (n * n) as f64;
            if i != j {
                let coeff = -2.0 * c / (c + s).powi(2) / (n * n) as f32;
                // x_i appears as both arguments across the double sum; the
                // factor 2 from symmetry is captured by iterating the full
                // (i, j) grid and writing only into row i.
                let g = &mut grad.data_mut()[i * d..(i + 1) * d];
                for k in 0..d {
                    g[k] += 2.0 * coeff * (a[k] - b2[k]);
                }
            }
        }
    }
    // E[k(y,y)] term (no x gradient).
    for i in 0..m {
        let a = &yd[i * d..(i + 1) * d];
        for j in 0..m {
            loss += kern(a, &yd[j * d..(j + 1) * d]) as f64 / (m * m) as f64;
        }
    }
    // −2 E[k(x,y)] term.
    for i in 0..n {
        let a = &xd[i * d..(i + 1) * d];
        let g_start = i * d;
        for j in 0..m {
            let b2 = &yd[j * d..(j + 1) * d];
            let s = sqdist(a, b2);
            loss -= 2.0 * (c / (c + s)) as f64 / (n * m) as f64;
            let coeff = 2.0 * 2.0 * c / (c + s).powi(2) / (n * m) as f32;
            let g = &mut grad.data_mut()[g_start..g_start + d];
            for k in 0..d {
                g[k] += coeff * (a[k] - b2[k]);
            }
        }
    }
    (loss, grad)
}

fn cloud_dims(t: &Tensor, name: &str) -> (usize, usize, usize) {
    let d = t.dims();
    assert_eq!(d.len(), 3, "{name} must be [batch, points, dim]");
    (d[0], d[1], d[2])
}

#[cfg(test)]
mod tests {
    use super::*;
    use as_tensor::TensorRng;

    fn fd_check(f: &mut dyn FnMut(&Tensor) -> f64, x: &Tensor, g: &Tensor, eps: f32, tol: f64) {
        for i in 0..x.numel() {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let num = (f(&xp) - f(&xm)) / (2.0 * eps as f64);
            let ana = g.data()[i] as f64;
            let scale = num.abs().max(ana.abs()).max(1e-3);
            assert!(
                (num - ana).abs() / scale < tol,
                "grad mismatch at {i}: num {num} vs ana {ana}"
            );
        }
    }

    #[test]
    fn chamfer_zero_for_identical_clouds() {
        let mut rng = TensorRng::seeded(0);
        let a = rng.standard_normal([2, 8, 3]);
        let (l, g) = chamfer(&a, &a);
        assert!(l.abs() < 1e-9);
        assert!(g.sq_norm() < 1e-9);
    }

    #[test]
    fn chamfer_is_permutation_invariant() {
        let a = Tensor::from_vec([1, 3, 2], vec![0., 0., 1., 0., 0., 1.]);
        let b = Tensor::from_vec([1, 3, 2], vec![0., 1., 0., 0., 1., 0.]);
        let (lab, _) = chamfer(&a, &b);
        assert!(lab.abs() < 1e-9, "same point set in different order");
    }

    #[test]
    fn chamfer_known_value() {
        // pred = {(0,0)}, target = {(1,0)}: CD = 1 + 1 = 2.
        let a = Tensor::from_vec([1, 1, 2], vec![0., 0.]);
        let b = Tensor::from_vec([1, 1, 2], vec![1., 0.]);
        let (l, g) = chamfer(&a, &b);
        assert!((l - 2.0).abs() < 1e-6);
        // grad: 2(a-b)/1 from each direction = -4 in x.
        assert!((g.data()[0] + 4.0).abs() < 1e-5);
    }

    /// The two-pass definition for one cloud pair (all `n·m` distances
    /// computed once per direction), which the single-pass kernel must
    /// equal bit for bit.
    fn chamfer_two_pass(ps: &[f32], ts: &[f32], d: usize) -> (f64, Vec<f32>) {
        fn row(cloud: &[f32], i: usize, d: usize) -> &[f32] {
            &cloud[i * d..(i + 1) * d]
        }
        let (n, m) = (ps.len() / d, ts.len() / d);
        let mut grad = vec![0.0f32; n * d];
        let mut loss = 0.0f64;
        for i in 0..n {
            let p = row(ps, i, d);
            let (mut best, mut bj) = (f32::INFINITY, 0);
            for j in 0..m {
                let dist = sqdist(p, row(ts, j, d));
                if dist < best {
                    (best, bj) = (dist, j);
                }
            }
            loss += best as f64 / n as f64;
            for k in 0..d {
                grad[i * d + k] += 2.0 * (p[k] - row(ts, bj, d)[k]) / n as f32;
            }
        }
        for j in 0..m {
            let t = row(ts, j, d);
            let (mut best, mut bi) = (f32::INFINITY, 0);
            for i in 0..n {
                let dist = sqdist(row(ps, i, d), t);
                if dist < best {
                    (best, bi) = (dist, i);
                }
            }
            loss += best as f64 / m as f64;
            for k in 0..d {
                grad[bi * d + k] += 2.0 * (row(ps, bi, d)[k] - t[k]) / m as f32;
            }
        }
        (loss, grad)
    }

    #[test]
    fn single_pass_chamfer_equals_the_two_pass_definition_bitwise() {
        let mut rng = TensorRng::seeded(20);
        let (b, n, m, d) = (3, 9, 14, 6);
        let mut pred = rng.uniform([b, n, d], -1.0, 1.0);
        let mut target = rng.uniform([b, m, d], -1.0, 1.0);
        // Duplicated points on both sides, and a prediction sitting on a
        // target, so nearest-neighbour ties must break the same way.
        let (pd, td) = (pred.data_mut(), target.data_mut());
        pd.copy_within(0..d, 4 * d);
        pd.copy_within(0..d, 7 * d);
        td.copy_within(2 * d..3 * d, 11 * d);
        td.copy_within(2 * d..3 * d, 5 * d);
        td[..d].copy_from_slice(&pd[d..2 * d]);
        let (loss, grad) = chamfer(&pred, &target);
        let mut want_loss = 0.0f64;
        for bi in 0..b {
            let ps = &pred.data()[bi * n * d..(bi + 1) * n * d];
            let ts = &target.data()[bi * m * d..(bi + 1) * m * d];
            let (l, g) = chamfer_two_pass(ps, ts, d);
            want_loss += l / b as f64;
            let got = &grad.data()[bi * n * d..(bi + 1) * n * d];
            for (x, y) in got.iter().zip(&g) {
                assert_eq!(x.to_bits(), (y / b as f32).to_bits());
            }
        }
        assert_eq!(loss.to_bits(), want_loss.to_bits());
    }

    #[test]
    fn chamfer_gradient_matches_finite_difference() {
        let mut rng = TensorRng::seeded(1);
        let a = rng.uniform([1, 5, 2], -1.0, 1.0);
        let b = rng.uniform([1, 7, 2], -1.0, 1.0);
        let (_, g) = chamfer(&a, &b);
        let mut f = |t: &Tensor| chamfer(t, &b).0;
        // Small eps so nearest-neighbour assignments stay fixed.
        fd_check(&mut f, &a, &g, 5e-4, 5e-2);
    }

    #[test]
    fn emd_zero_for_identical_and_positive_for_shifted() {
        let mut rng = TensorRng::seeded(2);
        let a = rng.standard_normal([1, 16, 2]);
        let (l_same, _) = sinkhorn_emd(&a, &a, 0.05, 60);
        let mut b = a.clone();
        b.map_inplace(|v| v + 1.0);
        let (l_shift, _) = sinkhorn_emd(&a, &b, 0.05, 60);
        assert!(l_same < 0.1 * l_shift, "same {l_same} vs shifted {l_shift}");
        // Shift by 1 in both coords: EMD ≈ ‖Δ‖² = 2.
        assert!((l_shift - 2.0).abs() < 0.5, "shift cost {l_shift}");
    }

    #[test]
    fn emd_detects_density_mismatch_that_chamfer_misses() {
        // Two clusters; pred puts 7/8 of its mass on the left cluster,
        // target splits 50/50. Chamfer (nearest-neighbour) barely notices;
        // EMD must pay to move ~3/8 of the mass across.
        let mut pred = Vec::new();
        for i in 0..8 {
            let x = if i < 7 { 0.0 } else { 10.0 };
            pred.extend_from_slice(&[x, 0.0]);
        }
        let mut targ = Vec::new();
        for i in 0..8 {
            let x = if i < 4 { 0.0 } else { 10.0 };
            targ.extend_from_slice(&[x, 0.0]);
        }
        let a = Tensor::from_vec([1, 8, 2], pred);
        let b = Tensor::from_vec([1, 8, 2], targ);
        let (cd, _) = chamfer(&a, &b);
        let (emd, _) = sinkhorn_emd(&a, &b, 0.02, 100);
        assert!(cd < 1e-6, "chamfer is blind to density: {cd}");
        assert!(emd > 10.0, "EMD sees the imbalance: {emd}");
    }

    #[test]
    fn kl_zero_for_standard_normal_params() {
        let mu = Tensor::zeros([4, 8]);
        let logvar = Tensor::zeros([4, 8]);
        let (l, dmu, dlv) = kl_divergence(&mu, &logvar);
        assert!(l.abs() < 1e-9);
        assert!(dmu.sq_norm() < 1e-12);
        assert!(dlv.sq_norm() < 1e-12);
    }

    #[test]
    fn kl_gradients_match_finite_difference() {
        let mut rng = TensorRng::seeded(3);
        let mu = rng.standard_normal([2, 4]);
        let lv = rng.uniform([2, 4], -1.0, 1.0);
        let (_, dmu, dlv) = kl_divergence(&mu, &lv);
        let mut fmu = |t: &Tensor| kl_divergence(t, &lv).0;
        fd_check(&mut fmu, &mu, &dmu, 1e-3, 2e-2);
        let mut flv = |t: &Tensor| kl_divergence(&mu, t).0;
        fd_check(&mut flv, &lv, &dlv, 1e-3, 2e-2);
    }

    #[test]
    fn kl_penalises_wide_and_narrow_posteriors() {
        let mu = Tensor::zeros([1, 1]);
        let wide = Tensor::full([1, 1], 2.0); // σ² = e²
        let narrow = Tensor::full([1, 1], -2.0); // σ² = e⁻²
        let (lw, _, _) = kl_divergence(&mu, &wide);
        let (ln, _, _) = kl_divergence(&mu, &narrow);
        assert!(lw > 0.0 && ln > 0.0);
    }

    #[test]
    fn mse_known_value_and_gradient() {
        let a = Tensor::from_slice(&[1., 2., 3.]);
        let b = Tensor::from_slice(&[1., 0., 0.]);
        let (l, g) = mse(&a, &b);
        assert!((l - (4.0 + 9.0) / 3.0).abs() < 1e-6);
        let mut f = |t: &Tensor| mse(t, &b).0;
        fd_check(&mut f, &a, &g, 1e-3, 1e-2);
    }

    #[test]
    fn mmd_near_zero_for_same_distribution_positive_for_different() {
        let mut rng = TensorRng::seeded(4);
        let x = rng.standard_normal([128, 4]);
        let y = rng.standard_normal([128, 4]);
        let (same, _) = mmd_imq(&x, &y, 4.0);
        let mut shifted = rng.standard_normal([128, 4]);
        shifted.map_inplace(|v| v + 2.0);
        let (diff, _) = mmd_imq(&shifted, &y, 4.0);
        assert!(same < 0.02, "same-distribution MMD {same}");
        assert!(diff > 10.0 * same, "shifted MMD {diff} vs {same}");
    }

    #[test]
    fn mmd_gradient_matches_finite_difference() {
        let mut rng = TensorRng::seeded(5);
        let x = rng.standard_normal([6, 3]);
        let y = rng.standard_normal([5, 3]);
        let (_, g) = mmd_imq(&x, &y, 2.0);
        let mut f = |t: &Tensor| mmd_imq(t, &y, 2.0).0;
        fd_check(&mut f, &x, &g, 1e-3, 3e-2);
    }

    #[test]
    fn mmd_gradient_descends() {
        // Gradient descent on MMD should pull a shifted sample towards the
        // reference distribution.
        let mut rng = TensorRng::seeded(6);
        let mut x = rng.standard_normal([64, 2]);
        x.map_inplace(|v| v + 3.0);
        let y = rng.standard_normal([64, 2]);
        let (start, _) = mmd_imq(&x, &y, 2.0);
        for _ in 0..200 {
            let (_, g) = mmd_imq(&x, &y, 2.0);
            x.axpy(-20.0, &g);
        }
        let (end, _) = mmd_imq(&x, &y, 2.0);
        assert!(end < 0.3 * start, "MMD descent: {start} → {end}");
    }
}
