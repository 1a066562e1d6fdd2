//! The full Artificial-Scientist model: VAE + INN trained jointly with the
//! five-term loss of Eq. (1).
//!
//! `L = L_CD + 0.001·L_KL + 0.3·L_MSE + 40·L_MMD(z,z′) + 0.03·L_MMD(N,N′)`
//!
//! Information flow per training step (paper Figs. 2 and 7):
//! 1. encode the particle point cloud `D` to a latent `z` (VAE encoder +
//!    reparameterisation) and decode a reconstruction `D′` → `L_CD`, `L_KL`;
//! 2. run the INN forward on `z` to predict `[I′ | N′]`: the radiation
//!    spectrum (surrogate task, `L_MSE` against the observed `I`) and the
//!    normal residual (`L_MMD(N,N′)` against fresh N(0,1) draws);
//! 3. run the INN inverse on `[I | N~N(0,1)]` to produce `z′` and match the
//!    encoder's latent distribution with `L_MMD(z,z′)` — this is the
//!    inversion task that later answers "which particle dynamics produced
//!    this spectrum?".
//!
//! Inference entry points: [`ArtificialScientistModel::invert_radiation`]
//! (spectrum → sampled particle clouds, the paper's Fig. 9(c)) and
//! [`ArtificialScientistModel::predict_spectrum`] (particles → spectrum,
//! the dashed lines of Fig. 9(a)).

use crate::init::{Buffers, ParamSource};
use crate::inn::{Inn, InnCtx};
use crate::loss;
use crate::optim::{zero_grads, Adam, AdamConfig, ParamVisitor};
use crate::vae::{Vae, VaeConfig, VaePass};
use as_tensor::{Tensor, TensorRng, Workspace};

/// Loss weights and architecture dimensions.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelConfig {
    /// VAE dimensions.
    pub vae: VaeConfig,
    /// Radiation-spectrum feature count `dim(I)`; the INN output is
    /// `[I | N]` with `dim(N) = latent − dim(I)`.
    pub spectrum_dim: usize,
    /// Number of GLOW coupling blocks (paper: 4).
    pub inn_blocks: usize,
    /// Hidden widths of each coupling subnet (paper: [272, 256]).
    pub inn_hidden: Vec<usize>,
    /// Weight of the Chamfer reconstruction loss (paper: 1).
    pub w_cd: f32,
    /// Weight of the KL regulariser (paper: 0.001).
    pub w_kl: f32,
    /// Weight of the spectrum MSE (paper: 0.3).
    pub w_mse: f32,
    /// Weight of `MMD(z, z′)` (paper: 40).
    pub w_mmd_z: f32,
    /// Weight of `MMD(N, N′)` (paper: 0.03).
    pub w_mmd_n: f32,
    /// IMQ kernel scale `C` for both MMD terms.
    pub mmd_kernel_c: f32,
    /// If true, the backward-pass MMD also trains the encoder (gradient
    /// flows into `z`); the default matches the usual INN recipe where the
    /// encoder side is detached.
    pub backward_mmd_trains_encoder: bool,
}

impl ModelConfig {
    /// The paper's dimensions: 544-d latent, 4 blocks, 30 000-in /
    /// 4096-out point clouds. `spectrum_dim = 272` (half the latent).
    pub fn paper() -> Self {
        Self {
            vae: VaeConfig::paper(),
            spectrum_dim: 272,
            inn_blocks: 4,
            inn_hidden: vec![272, 256],
            w_cd: 1.0,
            w_kl: 0.001,
            w_mse: 0.3,
            w_mmd_z: 40.0,
            w_mmd_n: 0.03,
            mmd_kernel_c: 1.0,
            backward_mmd_trains_encoder: false,
        }
    }

    /// CPU-scale preset with the same topology (for tests/examples).
    pub fn small() -> Self {
        Self {
            vae: VaeConfig::small(32),
            spectrum_dim: 16,
            inn_blocks: 4,
            inn_hidden: vec![24, 24],
            w_cd: 1.0,
            w_kl: 0.001,
            w_mse: 0.3,
            w_mmd_z: 40.0,
            w_mmd_n: 0.03,
            mmd_kernel_c: 1.0,
            backward_mmd_trains_encoder: false,
        }
    }

    /// Residual (normal) dimensionality `dim(N)`.
    pub fn residual_dim(&self) -> usize {
        assert!(
            self.spectrum_dim < self.vae.latent,
            "spectrum_dim must leave room for the normal residual"
        );
        self.vae.latent - self.spectrum_dim
    }
}

/// Per-step loss breakdown (unweighted raw values plus the weighted total).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LossReport {
    /// Chamfer reconstruction loss.
    pub cd: f64,
    /// KL divergence.
    pub kl: f64,
    /// Spectrum MSE.
    pub mse: f64,
    /// MMD between encoder latents and INN-inverted latents.
    pub mmd_z: f64,
    /// MMD between the INN's normal residual and N(0,1).
    pub mmd_n: f64,
    /// Weighted total (Eq. 1).
    pub total: f64,
}

impl LossReport {
    /// Weighted sum given a config.
    fn finish(mut self, cfg: &ModelConfig) -> Self {
        self.total = cfg.w_cd as f64 * self.cd
            + cfg.w_kl as f64 * self.kl
            + cfg.w_mse as f64 * self.mse
            + cfg.w_mmd_z as f64 * self.mmd_z
            + cfg.w_mmd_n as f64 * self.mmd_n;
        self
    }
}

/// What the forward half of a training step leaves for the backward half.
struct ForwardPass {
    vae: VaePass,
    inn_fwd: InnCtx,
    inn_inv: InnCtx,
    z_pred: Tensor,
    /// Weighted loss gradients w.r.t. the reconstruction, `μ`, `logvar`,
    /// the INN output `[I′ | N′]` and the inverted latent `z′`.
    d_recon: Tensor,
    dmu: Tensor,
    dlv: Tensor,
    d_out: Tensor,
    d_zpred: Tensor,
    report: LossReport,
}

/// VAE + INN with the Eq. (1) objective.
pub struct ArtificialScientistModel {
    /// Architecture and loss configuration.
    pub cfg: ModelConfig,
    /// The VAE (encoder/decoder blocks of Fig. 7).
    pub vae: Vae,
    /// The inversion INN (violet block of Fig. 7).
    pub inn: Inn,
    /// Buffers of the last training step, reused by the next. Only
    /// [`Self::accumulate_gradients`] touches it; the `&self` inference
    /// entry points run on a workspace of their own.
    ws: Workspace,
}

impl ArtificialScientistModel {
    /// Construct with seeded initialisation.
    pub fn new(cfg: ModelConfig, seed: u64) -> Self {
        Self::build(cfg, &mut TensorRng::seeded(seed))
    }

    /// Rebuild a captured model from its buffers: the parameters in
    /// [`Self::visit_all`] order and the INN permutations in block order
    /// (`Inn::permutations`), each moved into the model. The result has no
    /// gradient accumulators — it serves and never trains. Returns it with
    /// the [`crate::ddp::param_hash`] of the buffers, computed where they
    /// lie.
    pub fn from_buffers(
        cfg: ModelConfig,
        params: Vec<Vec<f32>>,
        perms: Vec<Vec<u32>>,
    ) -> (Self, u64) {
        let mut src = Buffers::new(params, perms);
        let model = Self::build(cfg, &mut src);
        (model, src.finish())
    }

    /// The one structural builder behind [`Self::new`] and
    /// [`Self::from_buffers`].
    fn build(cfg: ModelConfig, src: &mut impl ParamSource) -> Self {
        let vae = Vae::new(src, &cfg.vae);
        let inn = Inn::new(src, cfg.vae.latent, cfg.inn_blocks, &cfg.inn_hidden);
        Self {
            cfg,
            vae,
            inn,
            ws: Workspace::default(),
        }
    }

    /// The forward half of a step — the three passes of the module header
    /// in order, with the weighted loss gradients they end in.
    fn forward(
        &self,
        points: &Tensor,
        spectra: &Tensor,
        rng: &mut TensorRng,
        ws: &mut Workspace,
    ) -> ForwardPass {
        let cfg = &self.cfg;
        let b = points.dims()[0];
        assert_eq!(spectra.dims(), &[b, cfg.spectrum_dim], "spectra shape");
        let d_n = cfg.residual_dim();

        // --- VAE: encode, reparameterise, decode ---
        let vae = self.vae.forward_train(points, rng, ws);
        let (cd, mut d_recon) = loss::chamfer(&vae.recon, points);
        d_recon.map_inplace(|v| v * cfg.w_cd);
        let (kl, mut dmu, mut dlv) = loss::kl_divergence(&vae.mu, &vae.logvar);
        dmu.map_inplace(|v| v * cfg.w_kl);
        dlv.map_inplace(|v| v * cfg.w_kl);

        // --- INN forward: z → [I' | N'] ---
        let (out, inn_fwd) = self.inn.forward(&vae.z, ws);
        let (i_pred, n_pred) = out.split_cols(cfg.spectrum_dim, ws);
        let (mse, mut d_ipred) = loss::mse(&i_pred, spectra);
        d_ipred.map_inplace(|v| v * cfg.w_mse);
        let mut n_ref = ws.take([b.max(2), d_n]);
        rng.fill_standard_normal(n_ref.data_mut());
        let (mmd_n, mut d_npred) = loss::mmd_imq(&n_pred, &n_ref, cfg.mmd_kernel_c);
        d_npred.map_inplace(|v| v * cfg.w_mmd_n);
        let d_out = Tensor::concat_cols(&d_ipred, &d_npred, ws);

        // --- INN inverse: [I | N~N(0,1)] → z′ ---
        let mut n_draw = ws.take([b, d_n]);
        rng.fill_standard_normal(n_draw.data_mut());
        let y_cond = Tensor::concat_cols(spectra, &n_draw, ws);
        let (z_pred, inn_inv) = self.inn.inverse(&y_cond, ws);
        let (mmd_z, mut d_zpred) = loss::mmd_imq(&z_pred, &vae.z, cfg.mmd_kernel_c);
        d_zpred.map_inplace(|v| v * cfg.w_mmd_z);
        ws.give_all([out, i_pred, n_pred, n_ref, n_draw, y_cond]);

        let report = LossReport {
            cd,
            kl,
            mse,
            mmd_z,
            mmd_n,
            total: 0.0,
        };
        ForwardPass {
            vae,
            inn_fwd,
            inn_inv,
            z_pred,
            d_recon,
            dmu,
            dlv,
            d_out,
            d_zpred,
            report: report.finish(cfg),
        }
    }

    /// One combined forward+backward pass over a batch.
    ///
    /// `points:[B,P,6]`, `spectra:[B,spectrum_dim]`. Gradients are
    /// **accumulated** into the model; callers zero-grad and step the
    /// optimiser (see [`ModelOptimizer`]).
    pub fn accumulate_gradients(
        &mut self,
        points: &Tensor,
        spectra: &Tensor,
        rng: &mut TensorRng,
    ) -> LossReport {
        // `forward` borrows the whole model, so the workspace steps aside.
        let mut pool = std::mem::take(&mut self.ws);
        let ws = &mut pool;
        let f = self.forward(points, spectra, rng, ws);
        let mut dz = self.inn.backward(&f.d_out, f.inn_fwd, ws);
        // The gradient w.r.t. the inverse input is not computed — `I` and
        // `N` are data — but the call accumulates the subnet gradients.
        let _ = self.inn.inverse_backward(&f.d_zpred, f.inn_inv, false, ws);
        // Optionally let the backward MMD shape the encoder too (gradient
        // w.r.t. the second argument via symmetry of the MMD).
        if self.cfg.backward_mmd_trains_encoder {
            let (_, mut g) = loss::mmd_imq(&f.vae.z, &f.z_pred, self.cfg.mmd_kernel_c);
            g.map_inplace(|v| v * self.cfg.w_mmd_z);
            dz.add_assign(&g);
        }
        // VAE backward: reconstruction + KL + the INN's pull on z.
        let (d_recon, dmu, dlv) = (&f.d_recon, &f.dmu, &f.dlv);
        let _ = self
            .vae
            .backward(points, f.vae, d_recon, Some(&dz), dmu, dlv, false, ws);
        ws.give_all([f.d_out, f.z_pred, dz]);
        self.ws = pool;
        f.report
    }

    /// Evaluate the losses without touching gradients (validation).
    pub fn evaluate(&self, points: &Tensor, spectra: &Tensor, rng: &mut TensorRng) -> LossReport {
        let ws = &mut Workspace::default();
        self.forward(points, spectra, rng, ws).report
    }

    /// Solve the inverse problem: sample particle clouds consistent with
    /// the observed `spectra:[B,spectrum_dim]`. Each row gets `samples`
    /// independent normal draws; returns `[B·samples, P_out, 6]` clouds.
    pub fn invert_radiation(
        &self,
        spectra: &Tensor,
        samples: usize,
        rng: &mut TensorRng,
    ) -> Tensor {
        let b = spectra.dims()[0];
        let d_n = self.cfg.residual_dim();
        let mut rows = Vec::with_capacity(b * samples);
        for bi in 0..b {
            for _ in 0..samples {
                rows.push(bi);
            }
        }
        let expanded = spectra.select_rows(&rows);
        let n_draw = rng.standard_normal([b * samples, d_n]);
        let ws = &mut Workspace::default();
        let y = Tensor::concat_cols(&expanded, &n_draw, ws);
        let (z, _) = self.inn.inverse(&y, ws);
        self.vae.decode(&z, ws)
    }

    /// Surrogate forward prediction: particle cloud → radiation spectrum
    /// (the dashed "ML prediction" lines of Fig. 9(a)).
    pub fn predict_spectrum(&self, points: &Tensor) -> Tensor {
        let ws = &mut Workspace::default();
        let mu = self.vae.encode_mean(points, ws);
        let (out, _) = self.inn.forward(&mu, ws);
        out.split_cols(self.cfg.spectrum_dim, ws).0
    }

    /// Encode a point cloud to its latent mean (for latent-space analyses —
    /// the paper's near-linear classifier of physical regimes).
    pub fn encode(&self, points: &Tensor) -> Tensor {
        self.vae.encode_mean(points, &mut Workspace::default())
    }

    /// Zero all gradient accumulators.
    pub fn zero_grad(&mut self) {
        zero_grads(|v| self.visit_all(v));
    }

    /// Visit VAE parameters only (for the `m_VAE` learning-rate group).
    pub(crate) fn visit_vae(&mut self, v: &mut dyn ParamVisitor) {
        self.vae.visit(v);
    }

    /// Visit INN parameters only.
    pub(crate) fn visit_inn(&mut self, v: &mut dyn ParamVisitor) {
        self.inn.visit(v);
    }

    /// Visit all parameters (VAE then INN; stable order).
    pub fn visit_all(&mut self, v: &mut dyn ParamVisitor) {
        self.vae.visit(v);
        self.inn.visit(v);
    }

    /// Total trainable parameter count.
    #[cfg(test)]
    pub(crate) fn param_count(&mut self) -> usize {
        let mut n = 0usize;
        self.visit_all(&mut |p: &mut Tensor, _g: &mut Tensor| n += p.numel());
        n
    }
}

/// Two-group optimiser implementing the paper's separate `l_VAE`/`l_INN`
/// learning rates (§V-A: "separate learning rates … need to be applied at
/// large scales"; `l_VAE = m_VAE · l_INN`).
pub struct ModelOptimizer {
    /// Adam over the VAE parameter group.
    pub vae: Adam,
    /// Adam over the INN parameter group.
    pub inn: Adam,
}

impl ModelOptimizer {
    /// Build from a base INN config and the `m_VAE` multiplier.
    pub fn new(inn_cfg: AdamConfig, m_vae: f32) -> Self {
        Self {
            vae: Adam::new(inn_cfg.with_lr_factor(m_vae)),
            inn: Adam::new(inn_cfg),
        }
    }

    /// Apply one update to both groups.
    pub fn step(&mut self, model: &mut ArtificialScientistModel) {
        self.vae.step(|v| model.visit_vae(v));
        self.inn.step(|v| model.visit_inn(v));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> ModelConfig {
        let mut cfg = ModelConfig::small();
        cfg.vae = VaeConfig {
            point_dim: 6,
            encoder_channels: vec![6, 8, 16],
            head_hidden: 16,
            latent: 12,
            decoder_base: 2,
            decoder_channels: vec![4, 6],
        };
        cfg.spectrum_dim = 6;
        cfg.inn_hidden = vec![12];
        cfg.inn_blocks = 2;
        cfg
    }

    fn toy_batch(rng: &mut TensorRng, b: usize) -> (Tensor, Tensor) {
        // Point clouds whose mean x-momentum is encoded in the "spectrum":
        // a learnable correlation.
        let mut points = rng.uniform([b, 10, 6], -1.0, 1.0);
        let mut spectra = Tensor::zeros([b, 6]);
        for bi in 0..b {
            let shift = (bi as f32 / b as f32) * 2.0 - 1.0;
            for p in 0..10 {
                *points.at_mut(&[bi, p, 3]) += shift;
            }
            for k in 0..6 {
                *spectra.at_mut(&[bi, k]) = shift * (k as f32 + 1.0) / 6.0;
            }
        }
        (points, spectra)
    }

    #[test]
    fn paper_config_consistency() {
        let cfg = ModelConfig::paper();
        assert_eq!(cfg.residual_dim(), 272);
        assert_eq!(cfg.vae.latent, 544);
        assert_eq!(cfg.inn_blocks, 4);
        assert_eq!(cfg.w_kl, 0.001);
        assert_eq!(cfg.w_mse, 0.3);
        assert_eq!(cfg.w_mmd_z, 40.0);
        assert_eq!(cfg.w_mmd_n, 0.03);
    }

    #[test]
    fn gradients_are_finite_and_nonzero() {
        let mut model = ArtificialScientistModel::new(tiny_cfg(), 1);
        let mut rng = TensorRng::seeded(2);
        let (points, spectra) = toy_batch(&mut rng, 4);
        model.zero_grad();
        let report = model.accumulate_gradients(&points, &spectra, &mut rng);
        assert!(report.total.is_finite());
        assert!(report.cd > 0.0);
        let mut norm = 0.0;
        model.visit_all(&mut |_p: &mut Tensor, g: &mut Tensor| {
            assert!(g.all_finite(), "gradient contains NaN/Inf");
            norm += g.sq_norm();
        });
        assert!(norm > 0.0);
    }

    #[test]
    fn training_reduces_total_loss() {
        let mut model = ArtificialScientistModel::new(tiny_cfg(), 3);
        let mut rng = TensorRng::seeded(4);
        let (points, spectra) = toy_batch(&mut rng, 6);
        let mut opt = ModelOptimizer::new(
            AdamConfig {
                lr: 1e-3,
                weight_decay: 0.0,
                ..AdamConfig::default()
            },
            10.0,
        );
        let mut first = None;
        let mut last = f64::INFINITY;
        for it in 0..80 {
            model.zero_grad();
            let r = model.accumulate_gradients(&points, &spectra, &mut rng);
            opt.step(&mut model);
            if it == 0 {
                first = Some(r.total);
            }
            last = r.total;
        }
        let first = first.unwrap();
        assert!(last < first, "loss should decrease: {first} → {last}");
    }

    #[test]
    fn recycled_buffers_carry_no_state() {
        // Two models stepped side by side on the same batches: one fresh,
        // one whose workspace was first filled by a pass over a different
        // batch shape (its gradients zeroed again, no optimiser step).
        let mut fresh = ArtificialScientistModel::new(tiny_cfg(), 12);
        let mut warmed = ArtificialScientistModel::new(tiny_cfg(), 12);
        let mut rng = TensorRng::seeded(13);
        let (points, spectra) = toy_batch(&mut rng, 7);
        warmed.accumulate_gradients(&points, &spectra, &mut TensorRng::seeded(14));
        let adam = AdamConfig {
            lr: 1e-3,
            ..AdamConfig::default()
        };
        let mut opts = [
            ModelOptimizer::new(adam, 10.0),
            ModelOptimizer::new(adam, 10.0),
        ];
        let mut rngs = [TensorRng::seeded(15), TensorRng::seeded(15)];
        let mut idle = Vec::new();
        for _ in 0..5 {
            let (points, spectra) = toy_batch(&mut rng, 4);
            for (m, (opt, rng)) in [&mut fresh, &mut warmed]
                .into_iter()
                .zip(opts.iter_mut().zip(&mut rngs))
            {
                m.zero_grad();
                m.accumulate_gradients(&points, &spectra, rng);
                opt.step(m);
            }
            idle.push(fresh.ws.idle());
        }
        assert_eq!(
            crate::ddp::param_hash(&mut fresh),
            crate::ddp::param_hash(&mut warmed)
        );
        // Every buffer taken is given back exactly once: the pool neither
        // leaks nor grows once the shapes have been seen.
        assert!(idle.iter().all(|&n| n == idle[0]), "pool sizes {idle:?}");
    }

    #[test]
    fn inversion_has_right_shape_and_is_stochastic() {
        let model = ArtificialScientistModel::new(tiny_cfg(), 5);
        let mut rng = TensorRng::seeded(6);
        let spectra = rng.standard_normal([2, 6]);
        let clouds = model.invert_radiation(&spectra, 3, &mut rng);
        assert_eq!(clouds.dims(), &[6, 64, 6]);
        assert!(clouds.all_finite());
        // Different N draws → different inversions (ill-posed problem needs
        // a sampler, not a point estimate).
        let c0 = clouds.batch(0);
        let c1 = clouds.batch(1);
        assert!(c0.sub(&c1).sq_norm() > 1e-12);
    }

    #[test]
    fn predict_spectrum_shape() {
        let model = ArtificialScientistModel::new(tiny_cfg(), 7);
        let mut rng = TensorRng::seeded(8);
        let points = rng.standard_normal([3, 10, 6]);
        let s = model.predict_spectrum(&points);
        assert_eq!(s.dims(), &[3, 6]);
        assert!(s.all_finite());
    }

    #[test]
    fn optimizer_groups_use_different_learning_rates() {
        let opt = ModelOptimizer::new(
            AdamConfig {
                lr: 1e-4,
                ..AdamConfig::default()
            },
            8.0,
        );
        assert!((opt.vae.config().lr - 8e-4).abs() < 1e-9);
        assert!((opt.inn.config().lr - 1e-4).abs() < 1e-9);
    }

    #[test]
    fn param_count_is_stable() {
        let mut m1 = ArtificialScientistModel::new(tiny_cfg(), 9);
        let mut m2 = ArtificialScientistModel::new(tiny_cfg(), 10);
        assert_eq!(m1.param_count(), m2.param_count());
        assert!(m1.param_count() > 1000);
    }

    #[test]
    fn same_seed_gives_identical_models() {
        let mut a = ArtificialScientistModel::new(tiny_cfg(), 11);
        let mut b = ArtificialScientistModel::new(tiny_cfg(), 11);
        let mut va = Vec::new();
        a.visit_all(&mut |p: &mut Tensor, _g: &mut Tensor| va.extend_from_slice(p.data()));
        let mut vb = Vec::new();
        b.visit_all(&mut |p: &mut Tensor, _g: &mut Tensor| vb.extend_from_slice(p.data()));
        assert_eq!(va, vb);
    }
}
