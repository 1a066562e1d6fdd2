//! The variational auto-encoder of Fig. 7: a PointNet-style encoder over
//! particle point clouds and a 3-D deconvolution decoder.
//!
//! Encoder (paper): 6-dimensional points go through shared 1×1 convolutions
//! (channels 6→16→32→64→128→256→608), a max-pool over the particle
//! dimension makes the feature set transposition-invariant, and two MLP
//! heads (608→544 hidden) produce the mean μ and the log-variance of the
//! 544-dimensional latent. (The paper phrases the second head as predicting
//! σ; we parameterise log σ² as is standard for the same quantity.)
//!
//! Decoder (paper): one fully-connected layer to 1024 features reshaped to
//! a (4,4,4,16) channel grid, then stride-2³ kernel-2³ transposed 3-D
//! convolutions with channels 16→8→6, yielding 16³ = 4096 particles of 6
//! features. Because kernel = stride, the deconvolution is non-overlapping:
//! each input cell independently expands to a 2×2×2 block, i.e. a shared
//! linear map `C_in → 8·C_out` followed by a fixed scatter — which is
//! exactly how it is implemented here.
//!
//! The encoder's backward pass runs its convolutions only on the rows
//! the max-pool selected (see `Encoder::backward`).

use crate::init::ParamSource;
use crate::layers::{Activation, InitKind, Linear, Mlp, MlpCtx};
use crate::optim::ParamVisitor;
use as_tensor::{Tensor, TensorRng, Workspace};

/// Dimensions of the VAE. See [`crate::model::ModelConfig`] for presets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VaeConfig {
    /// Per-point feature count (3 positions + 3 momenta = 6).
    pub point_dim: usize,
    /// 1×1-convolution channel progression, starting at `point_dim`.
    pub encoder_channels: Vec<usize>,
    /// Hidden width of the μ and log-variance heads.
    pub head_hidden: usize,
    /// Latent dimensionality (paper: 544).
    pub latent: usize,
    /// Decoder base grid edge length (paper: 4 → (4,4,4)).
    pub decoder_base: usize,
    /// Decoder channel progression; each step doubles the grid edge
    /// (paper: [16, 8, 6] → 4³ → 8³ → 16³ cells).
    pub decoder_channels: Vec<usize>,
}

impl VaeConfig {
    /// A small preset for CPU-scale tests and examples.
    pub(crate) fn small(latent: usize) -> Self {
        Self {
            point_dim: 6,
            encoder_channels: vec![6, 16, 32, 64],
            head_hidden: latent,
            latent,
            decoder_base: 2,
            decoder_channels: vec![8, 6],
        }
    }
}

/// PointNet-style encoder producing `(μ, logvar)`.
pub struct Encoder {
    convs: Vec<Linear>,
    mu_head: Mlp,
    logvar_head: Mlp,
}

/// Backward context of the encoder. The input cloud stays with the
/// caller, who passes it to `backward` again.
pub struct EncoderCtx {
    /// Output of each 1×1 convolution but the last, `[B, P, channels]`.
    conv_out: Vec<Tensor>,
    pool_arg: Vec<usize>,
    pooled: Tensor,
    mu_ctx: MlpCtx,
    logvar_ctx: MlpCtx,
}

impl EncoderCtx {
    /// Hand the stored convolution outputs, pooled features and head
    /// activations back to `ws` without a backward pass (a forward whose
    /// gradient nobody wants).
    pub fn recycle(self, ws: &mut Workspace) {
        ws.give_all(self.conv_out.into_iter().chain([self.pooled]));
        self.mu_ctx.recycle(ws);
        self.logvar_ctx.recycle(ws);
    }
}

const LEAKY: Activation = Activation::LeakyRelu(0.01);

impl Encoder {
    /// Build from config.
    pub(crate) fn new(src: &mut impl ParamSource, cfg: &VaeConfig) -> Self {
        assert_eq!(
            cfg.encoder_channels[0], cfg.point_dim,
            "first encoder channel must equal point_dim"
        );
        assert!(
            cfg.encoder_channels.len() >= 2,
            "encoder needs a convolution"
        );
        let convs = cfg
            .encoder_channels
            .windows(2)
            .map(|w| Linear::new(src, w[0], w[1], InitKind::Kaiming))
            .collect();
        let feat = *cfg.encoder_channels.last().expect("channels nonempty");
        let heads = [feat, cfg.head_hidden, cfg.latent];
        let mu_head = Mlp::new(src, &heads, LEAKY, InitKind::Xavier);
        let logvar_head = Mlp::new(src, &heads, LEAKY, InitKind::Xavier);
        Self {
            convs,
            mu_head,
            logvar_head,
        }
    }

    /// `points:[B,P,point_dim]` → `(μ:[B,Z], logvar:[B,Z])`.
    pub fn forward(&self, points: &Tensor, ws: &mut Workspace) -> (Tensor, Tensor, EncoderCtx) {
        assert_eq!(points.dims().len(), 3, "encoder expects [B, P, dim]");
        // Shared 1×1 convolutions = a Linear over the point axis. Of the
        // last one only the pooled maxima are read again — its activation
        // derivative matters only where a gradient arrives — so it pools in
        // the matmul tile and its `[B,P,C]` output is never stored.
        let (last, hidden) = self.convs.split_last().expect("nonempty");
        let mut conv_out: Vec<Tensor> = Vec::with_capacity(hidden.len());
        for conv in hidden {
            let y = conv.forward(conv_out.last().unwrap_or(points), LEAKY, ws);
            conv_out.push(y);
        }
        let (pooled, pool_arg) =
            last.forward_max_pool(conv_out.last().unwrap_or(points), LEAKY, ws);
        let (mu, mu_ctx) = self.mu_head.forward(&pooled, ws);
        let (logvar, logvar_ctx) = self.logvar_head.forward(&pooled, ws);
        let ctx = EncoderCtx {
            conv_out,
            pool_arg,
            pooled,
            mu_ctx,
            logvar_ctx,
        };
        (mu, logvar, ctx)
    }

    /// Backward from `(dμ, dlogvar)` for the `points` of the forward pass;
    /// returns `d points` if `want_dpoints` (training never reads it, so
    /// the first convolution's input gradient is not computed).
    ///
    /// The max-pool routes a gradient only to the rows (points) some
    /// channel's arg-max selected — at most `B·C` of the `B·P`. A 1×1
    /// convolution keeps rows independent and `LeakyReLU′·0 = 0`, so in
    /// every convolution's gradient all other rows are structural `+0.0`:
    /// they add exact zeros to `gw`/`gb` and stay zero in `dx`. The
    /// convolutions therefore run on the selected rows only, compacted in
    /// ascending row order into the leading rows of the same `[B, P, ·]`
    /// buffers a dense pass would fill — the dense sums with their
    /// exact-zero terms removed, bit for bit (for finite activations), and
    /// the same workspace shapes whatever the arg-max pattern.
    pub(crate) fn backward(
        &mut self,
        points: &Tensor,
        dmu: &Tensor,
        dlogvar: &Tensor,
        ctx: EncoderCtx,
        want_dpoints: bool,
        ws: &mut Workspace,
    ) -> Option<Tensor> {
        let pooled = &ctx.pooled;
        let mut dpool = self
            .mu_head
            .backward(pooled, ctx.mu_ctx, dmu, true, ws)
            .expect("input gradient requested");
        let dpool2 = self
            .logvar_head
            .backward(pooled, ctx.logvar_ctx, dlogvar, true, ws)
            .expect("input gradient requested");
        dpool.add_assign(&dpool2);
        // The last convolution's LeakyReLU derivative, read from the maxima
        // and applied before the scatter: every other point gets a zero.
        LEAKY.backward(dpool.data_mut(), pooled.data());

        let (b, p, c) = (points.dims()[0], points.dims()[1], pooled.dims()[1]);
        let row_of = |bi: usize, pi: usize| bi * p + pi;
        let clouds = ctx.pool_arg.chunks_exact(c).enumerate();
        let mut rows: Vec<usize> = clouds
            .clone()
            .flat_map(|(bi, at)| at.iter().map(move |&pi| row_of(bi, pi)))
            .collect();
        rows.sort_unstable();
        rows.dedup();
        let n = rows.len();
        // `cur[..n]` is the gradient of convolution `i`'s pre-activation
        // output on the selected rows; its input is the output of the one
        // before (or `points`).
        let mut cur = ws.take([b, p, c]);
        cur.data_mut()[..n * c].fill(0.0);
        for ((bi, at), g) in clouds.zip(dpool.data().chunks_exact(c)) {
            for (ci, (&pi, &g)) in at.iter().zip(g).enumerate() {
                let r = rows
                    .binary_search(&row_of(bi, pi))
                    .expect("row was selected");
                cur.data_mut()[r * c + ci] += g;
            }
        }
        ws.give_all([dpool, dpool2, ctx.pooled]);
        let mut conv_out = ctx.conv_out;
        for (i, conv) in self.convs.iter_mut().enumerate().rev() {
            let (fan_in, fan_out) = (conv.fan_in(), conv.fan_out());
            // The selected rows of the input, compacted: in place in the
            // stored activation (row `r` comes from a row ≥ `r`), or out of
            // the caller's `points`.
            let x = match conv_out.pop() {
                Some(mut full) => {
                    for (r, &row) in rows.iter().enumerate() {
                        full.data_mut()
                            .copy_within(row * fan_in..(row + 1) * fan_in, r * fan_in);
                    }
                    full
                }
                None => {
                    // In a buffer shaped like this convolution's output:
                    // the backward step of the convolution after it has
                    // just given one back (a one-convolution encoder takes
                    // the one a previous step's `cur` left).
                    let mut x = ws.take([b, p, fan_in.max(fan_out)]);
                    for (dst, &row) in x.data_mut().chunks_exact_mut(fan_in).zip(&rows) {
                        dst.copy_from_slice(&points.data()[row * fan_in..][..fan_in]);
                    }
                    x
                }
            };
            let x_rows = &x.data()[..n * fan_in];
            conv.accumulate_grads_rows(x_rows, &cur.data()[..n * fan_out], ws);
            if i == 0 && !want_dpoints {
                ws.give_all([cur, x]);
                return None;
            }
            let mut dx = ws.take([b, p, fan_in]);
            let dx_rows = &mut dx.data_mut()[..n * fan_in];
            conv.input_grad_rows(&cur.data()[..n * fan_out], dx_rows, ws);
            if i > 0 {
                LEAKY.backward(dx_rows, x_rows);
            }
            ws.give_all([std::mem::replace(&mut cur, dx), x]);
        }
        // `cur` holds `d points` of the selected rows; all others are zero.
        let width = points.dims()[2];
        let mut dpoints = ws.take(*points.shape());
        dpoints.data_mut().fill(0.0);
        for (&row, d) in rows.iter().zip(cur.data().chunks_exact(width)) {
            dpoints.data_mut()[row * width..][..width].copy_from_slice(d);
        }
        ws.give(cur);
        Some(dpoints)
    }

    /// Visit all `(param, grad)` pairs.
    pub(crate) fn visit(&mut self, v: &mut dyn ParamVisitor) {
        for c in &mut self.convs {
            c.visit(v);
        }
        self.mu_head.visit(v);
        self.logvar_head.visit(v);
    }
}

/// One non-overlapping stride-2³ transposed 3-D convolution.
struct Deconv3 {
    lin: Linear,
    c_in: usize,
    c_out: usize,
}

impl Deconv3 {
    fn new(src: &mut impl ParamSource, c_in: usize, c_out: usize, last: bool) -> Self {
        let kind = if last {
            InitKind::Xavier
        } else {
            InitKind::Kaiming
        };
        Self {
            lin: Linear::new(src, c_in, 8 * c_out, kind),
            c_in,
            c_out,
        }
    }

    /// Visit every (linear-layout block, doubled-grid cell) pair of the
    /// fixed scatter as flat offsets `(lin, grid)` of `c_out`-wide runs.
    fn for_each_block(&self, b: usize, edge: usize, mut f: impl FnMut(usize, usize)) {
        let (co, e2) = (self.c_out, edge * 2);
        for bi in 0..b {
            for xi in 0..edge {
                for yi in 0..edge {
                    for zi in 0..edge {
                        let cell = (xi * edge + yi) * edge + zi;
                        let lin = (bi * edge * edge * edge + cell) * 8 * co;
                        for k in 0..8 {
                            let (dx, dy, dz) = (k >> 2, (k >> 1) & 1, k & 1);
                            let ocell = ((2 * xi + dx) * e2 + (2 * yi + dy)) * e2 + (2 * zi + dz);
                            f(lin + k * co, (bi * e2 * e2 * e2 + ocell) * co);
                        }
                    }
                }
            }
        }
    }

    /// `x:[B, e³, C_in]` (cells in x-major order) → `act(·):[B, (2e)³, C_out]`.
    fn forward(&self, x: &Tensor, edge: usize, act: Activation, ws: &mut Workspace) -> Tensor {
        let d = x.dims();
        let (b, cells) = (d[0], d[1]);
        assert_eq!(cells, edge * edge * edge, "cell count != edge³");
        assert_eq!(d[2], self.c_in);
        let y = self.lin.forward(x, act, ws);
        // Scatter each cell's 8·C_out outputs into the doubled grid.
        let mut out = ws.take([b, 8 * cells, self.c_out]);
        let (yd, od, co) = (y.data(), out.data_mut(), self.c_out);
        self.for_each_block(b, edge, |lin, grid| {
            od[grid..grid + co].copy_from_slice(&yd[lin..lin + co]);
        });
        ws.give(y);
        out
    }

    /// Backward for the input `x` of the forward pass and `dy` w.r.t. the
    /// pre-activation output: gather `dy` into the linear layout, then
    /// linear backward.
    fn backward(&mut self, x: &Tensor, dy: &Tensor, edge: usize, ws: &mut Workspace) -> Tensor {
        let (b, cells) = (x.dims()[0], x.dims()[1]);
        let mut dlin = ws.take([b, cells, 8 * self.c_out]);
        let (dd, ld, co) = (dy.data(), dlin.data_mut(), self.c_out);
        self.for_each_block(b, edge, |lin, grid| {
            ld[lin..lin + co].copy_from_slice(&dd[grid..grid + co]);
        });
        self.lin.accumulate_grads(x, &dlin, ws);
        let dx = self.lin.input_grad(&dlin, ws);
        ws.give(dlin);
        dx
    }
}

/// Decoder: FC → base grid → stacked deconvolutions → point cloud.
pub struct Decoder {
    fc: Linear,
    deconvs: Vec<Deconv3>,
    base: usize,
}

/// Backward context of the decoder: the input of every deconvolution
/// stage (each is the LeakyReLU output of the stage before it). The
/// latent stays with the caller.
pub(crate) struct DecoderCtx {
    stage_in: Vec<Tensor>,
}

impl DecoderCtx {
    /// Hand the stage inputs back to `ws` without a backward pass.
    fn recycle(self, ws: &mut Workspace) {
        ws.give_all(self.stage_in);
    }
}

impl Decoder {
    /// Build from config.
    pub(crate) fn new(src: &mut impl ParamSource, cfg: &VaeConfig) -> Self {
        let base = cfg.decoder_base;
        let c0 = cfg.decoder_channels[0];
        let fc = Linear::new(src, cfg.latent, base * base * base * c0, InitKind::Kaiming);
        let n = cfg.decoder_channels.len() - 1;
        assert!(n >= 1, "decoder needs a deconvolution stage");
        let deconvs = cfg
            .decoder_channels
            .windows(2)
            .enumerate()
            .map(|(i, w)| Deconv3::new(src, w[0], w[1], i + 1 == n))
            .collect();
        Self { fc, deconvs, base }
    }

    /// `z:[B,Z]` → point cloud `[B, P_out, out_dim]`.
    pub(crate) fn forward(&self, z: &Tensor, ws: &mut Workspace) -> (Tensor, DecoderCtx) {
        let b = z.dims()[0];
        let cells = self.base * self.base * self.base;
        let h = self.fc.forward(z, LEAKY, ws);
        let c0 = h.numel() / (b * cells);
        let mut stage_in = vec![h.reshape([b, cells, c0])];
        let mut edge = self.base;
        let n = self.deconvs.len();
        for (i, dc) in self.deconvs.iter().enumerate() {
            let act = if i + 1 < n {
                LEAKY
            } else {
                Activation::Identity
            };
            let y = dc.forward(stage_in.last().expect("nonempty"), edge, act, ws);
            stage_in.push(y);
            edge *= 2;
        }
        let out = stage_in.pop().expect("nonempty");
        (out, DecoderCtx { stage_in })
    }

    /// Backward from `d points` to `dz` for the latent `z` of the forward pass.
    pub(crate) fn backward(
        &mut self,
        z: &Tensor,
        dy: &Tensor,
        ctx: DecoderCtx,
        ws: &mut Workspace,
    ) -> Tensor {
        let mut stage_in = ctx.stage_in;
        let mut cur: Option<Tensor> = None;
        let mut edge = self.base << self.deconvs.len();
        for dc in self.deconvs.iter_mut().rev() {
            edge /= 2;
            let x = stage_in.pop().expect("one input per stage");
            let mut dx = dc.backward(&x, cur.as_ref().unwrap_or(dy), edge, ws);
            LEAKY.backward(dx.data_mut(), x.data());
            ws.give(x);
            ws.give_all(cur.replace(dx));
        }
        let dh = cur.expect("at least one stage");
        let dh = dh.reshape([z.dims()[0], self.fc.fan_out()]);
        self.fc.accumulate_grads(z, &dh, ws);
        let dz = self.fc.input_grad(&dh, ws);
        ws.give(dh);
        dz
    }

    /// Visit all `(param, grad)` pairs.
    pub(crate) fn visit(&mut self, v: &mut dyn ParamVisitor) {
        self.fc.visit(v);
        for d in &mut self.deconvs {
            d.lin.visit(v);
        }
    }
}

/// Encoder + decoder with the reparameterisation trick.
pub struct Vae {
    /// The encoder block (light green in Fig. 7).
    pub encoder: Encoder,
    /// The decoder block (cyan in Fig. 7).
    pub decoder: Decoder,
}

/// Everything one training-mode pass produced; [`Vae::backward`] consumes
/// it and hands the buffers back to the workspace.
pub(crate) struct VaePass {
    /// Posterior mean `μ:[B,Z]`.
    pub mu: Tensor,
    /// Posterior log-variance `[B,Z]`.
    pub logvar: Tensor,
    /// The reparameterised latent `z = μ + ε·σ`.
    pub z: Tensor,
    /// The decoded point cloud.
    pub recon: Tensor,
    /// The ε draw of the reparameterisation.
    eps: Tensor,
    enc: EncoderCtx,
    dec: DecoderCtx,
}

impl VaePass {
    /// Hand every buffer of the pass back to `ws` without a backward pass.
    pub(crate) fn recycle(self, ws: &mut Workspace) {
        ws.give_all([self.mu, self.logvar, self.z, self.recon, self.eps]);
        self.enc.recycle(ws);
        self.dec.recycle(ws);
    }
}

impl Vae {
    /// Build both halves from one config.
    pub(crate) fn new(src: &mut impl ParamSource, cfg: &VaeConfig) -> Self {
        Self {
            encoder: Encoder::new(src, cfg),
            decoder: Decoder::new(src, cfg),
        }
    }

    /// Full training-mode pass: encode, reparameterise (`z = μ + ε·σ`),
    /// decode.
    pub(crate) fn forward_train(
        &self,
        points: &Tensor,
        rng: &mut TensorRng,
        ws: &mut Workspace,
    ) -> VaePass {
        let (mu, logvar, enc) = self.encoder.forward(points, ws);
        let mut eps = ws.take(*mu.shape());
        rng.fill_standard_normal(eps.data_mut());
        let mut z = ws.take(*mu.shape());
        for ((zv, &m), (&e, &lv)) in z
            .data_mut()
            .iter_mut()
            .zip(mu.data())
            .zip(eps.data().iter().zip(logvar.data()))
        {
            *zv = m + e * (0.5 * lv).exp();
        }
        let (recon, dec) = self.decoder.forward(&z, ws);
        VaePass {
            mu,
            logvar,
            z,
            recon,
            eps,
            enc,
            dec,
        }
    }

    /// Deterministic encode (μ only) for inference.
    pub(crate) fn encode_mean(&self, points: &Tensor, ws: &mut Workspace) -> Tensor {
        self.encoder.forward(points, ws).0
    }

    /// Decode a latent for inference.
    pub fn decode(&self, z: &Tensor, ws: &mut Workspace) -> Tensor {
        self.decoder.forward(z, ws).0
    }

    /// Backward through decoder and the reparameterisation for the
    /// `points` of the forward pass.
    ///
    /// `d_recon` is the loss gradient w.r.t. the reconstruction; `dz_extra`
    /// is any additional gradient flowing into `z` from other heads (the
    /// INN); `dmu_extra`/`dlogvar_extra` come from the KL term. Returns
    /// `d points` if `want_dpoints`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn backward(
        &mut self,
        points: &Tensor,
        pass: VaePass,
        d_recon: &Tensor,
        dz_extra: Option<&Tensor>,
        dmu_extra: &Tensor,
        dlogvar_extra: &Tensor,
        want_dpoints: bool,
        ws: &mut Workspace,
    ) -> Option<Tensor> {
        let mut dz = self.decoder.backward(&pass.z, d_recon, pass.dec, ws);
        if let Some(e) = dz_extra {
            dz.add_assign(e);
        }
        // z = μ + ε·exp(logvar/2):
        //   dμ      += dz
        //   dlogvar += dz · ε · ½·exp(logvar/2)
        let mut dlogvar = ws.take(*dz.shape());
        let noise = pass.eps.data().iter().zip(pass.logvar.data());
        for ((g, &x), (&d, (&e, &lv))) in dlogvar
            .data_mut()
            .iter_mut()
            .zip(dlogvar_extra.data())
            .zip(dz.data().iter().zip(noise))
        {
            *g = x + d * e * 0.5 * (0.5 * lv).exp();
        }
        let mut dmu = dz;
        dmu.add_assign(dmu_extra);
        let enc = &mut self.encoder;
        let dpoints = enc.backward(points, &dmu, &dlogvar, pass.enc, want_dpoints, ws);
        let spent = [pass.mu, pass.logvar, pass.z, pass.recon, pass.eps];
        ws.give_all(spent.into_iter().chain([dmu, dlogvar]));
        dpoints
    }

    /// Visit all `(param, grad)` pairs (encoder first, then decoder).
    pub(crate) fn visit(&mut self, v: &mut dyn ParamVisitor) {
        self.encoder.visit(v);
        self.decoder.visit(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::zero_grads;

    fn ws() -> Workspace {
        Workspace::default()
    }

    fn small_cfg() -> VaeConfig {
        VaeConfig {
            point_dim: 6,
            encoder_channels: vec![6, 8, 16],
            head_hidden: 12,
            latent: 10,
            decoder_base: 2,
            decoder_channels: vec![4, 6],
        }
    }

    #[test]
    fn encoder_shapes() {
        let mut rng = TensorRng::seeded(0);
        let cfg = small_cfg();
        let enc = Encoder::new(&mut rng, &cfg);
        let pts = rng.standard_normal([3, 20, 6]);
        let (mu, lv, _) = enc.forward(&pts, &mut ws());
        assert_eq!(mu.dims(), &[3, 10]);
        assert_eq!(lv.dims(), &[3, 10]);
    }

    #[test]
    fn encoder_is_transposition_invariant() {
        let mut rng = TensorRng::seeded(1);
        let cfg = small_cfg();
        let enc = Encoder::new(&mut rng, &cfg);
        let pts = rng.standard_normal([1, 8, 6]);
        let (mu, _, _) = enc.forward(&pts, &mut ws());
        // Reverse point order.
        let mut rev = Tensor::zeros([1, 8, 6]);
        for p in 0..8 {
            for c in 0..6 {
                *rev.at_mut(&[0, 7 - p, c]) = pts.at(&[0, p, c]);
            }
        }
        let (mu2, _, _) = enc.forward(&rev, &mut ws());
        for (a, b) in mu.data().iter().zip(mu2.data()) {
            assert!((a - b).abs() < 1e-5, "PointNet must ignore particle order");
        }
    }

    #[test]
    fn decoder_shapes() {
        let mut rng = TensorRng::seeded(2);
        let cfg = small_cfg();
        let dec = Decoder::new(&mut rng, &cfg);
        let z = rng.standard_normal([2, 10]);
        let (pts, _) = dec.forward(&z, &mut ws());
        // base 2, one doubling → 4³ = 64 points of 6 features.
        assert_eq!(pts.dims(), &[2, 64, 6]);
    }

    #[test]
    fn encoder_gradient_matches_finite_difference() {
        let mut rng = TensorRng::seeded(3);
        let cfg = small_cfg();
        let enc = Encoder::new(&mut rng, &cfg);
        let pts = rng.uniform([1, 5, 6], -1.0, 1.0);
        let (mu, lv, ctx) = enc.forward(&pts, &mut ws());
        let mut probe = Encoder::new(&mut TensorRng::seeded(3), &cfg);
        let dpts = probe
            .backward(&pts, &mu, &lv, ctx, true, &mut ws())
            .expect("d points requested");
        let mut f = |t: &Tensor| {
            let (mu, lv, _) = enc.forward(t, &mut ws());
            0.5 * (mu.sq_norm() + lv.sq_norm())
        };
        // Max-pool argmaxes can flip under perturbation; use small eps and a
        // forgiving tolerance.
        crate::layers::finite_diff_check(&mut f, &pts, &dpts, 5e-3, 8e-2);
    }

    /// The dense backward the row-sparse one replaced: scatter the pooled
    /// gradient into a `[B, P, C]` tensor of zeros and run every
    /// convolution over all `B·P` rows.
    fn dense_backward(
        enc: &mut Encoder,
        points: &Tensor,
        dmu: &Tensor,
        dlogvar: &Tensor,
        ctx: EncoderCtx,
        ws: &mut Workspace,
    ) -> Tensor {
        let pooled = &ctx.pooled;
        let mut dpool = enc
            .mu_head
            .backward(pooled, ctx.mu_ctx, dmu, true, ws)
            .expect("input gradient requested");
        let dpool2 = enc
            .logvar_head
            .backward(pooled, ctx.logvar_ctx, dlogvar, true, ws)
            .expect("input gradient requested");
        dpool.add_assign(&dpool2);
        LEAKY.backward(dpool.data_mut(), pooled.data());
        let p = points.dims()[1];
        let mut cur = crate::layers::max_pool_points_backward(&dpool, &ctx.pool_arg, p, ws);
        let mut conv_out = ctx.conv_out;
        for conv in enc.convs.iter_mut().rev() {
            let x = conv_out.pop();
            conv.accumulate_grads(x.as_ref().unwrap_or(points), &cur, ws);
            cur = conv.input_grad(&cur, ws);
            if let Some(x) = x {
                LEAKY.backward(cur.data_mut(), x.data());
            }
        }
        cur
    }

    /// Row-sparse against dense, bit for bit, in every parameter gradient
    /// and in `d points`: on random clouds (several channels share an
    /// arg-max point), on a cloud where one point wins every channel, and
    /// with fewer points than channels.
    #[test]
    fn sparse_backward_equals_dense_backward_bitwise() {
        let cfg = VaeConfig {
            encoder_channels: vec![6, 8, 16, 24],
            ..small_cfg()
        };
        let mut rng = TensorRng::seeded(21);
        let random = rng.uniform([3, 40, 6], -1.0, 1.0);
        // Twelve copies of one point per cloud: every channel ties and the
        // first maximum — point 0 — wins them all.
        let seeds = rng.uniform([2, 1, 6], -1.0, 1.0);
        let mut dominated = Tensor::zeros([2, 12, 6]);
        for (cloud, seed) in dominated
            .data_mut()
            .chunks_exact_mut(12 * 6)
            .zip(seeds.data().chunks_exact(6))
        {
            cloud
                .chunks_exact_mut(6)
                .for_each(|pt| pt.copy_from_slice(seed));
        }
        let few_points = rng.uniform([2, 3, 6], -1.0, 1.0);
        for (name, points) in [
            ("random", random),
            ("dominated", dominated),
            ("few points", few_points),
        ] {
            let mut sparse = Encoder::new(&mut TensorRng::seeded(22), &cfg);
            let mut dense = Encoder::new(&mut TensorRng::seeded(22), &cfg);
            let ws = &mut ws();
            let (mu, lv, ctx) = sparse.forward(&points, ws);
            let (b, p, c) = (points.dims()[0], points.dims()[1], 24);
            let mut picked: Vec<usize> = ctx.pool_arg[..c].to_vec();
            picked.sort_unstable();
            picked.dedup();
            match name {
                "random" => assert!(
                    (2..c).contains(&picked.len()),
                    "cloud 0: some channels must share a point, not all: {picked:?}"
                ),
                "dominated" => assert_eq!(picked, [0], "point 0 must win every channel"),
                _ => assert!(b * p < b * c),
            }
            let (_, _, dense_ctx) = dense.forward(&points, ws);
            zero_grads(|v| sparse.visit(v));
            zero_grads(|v| dense.visit(v));
            let got = sparse
                .backward(&points, &mu, &lv, ctx, true, ws)
                .expect("d points requested");
            let want = dense_backward(&mut dense, &points, &mu, &lv, dense_ctx, ws);
            let bits = |t: &Tensor| -> Vec<u32> { t.data().iter().map(|v| v.to_bits()).collect() };
            assert_eq!(got.dims(), want.dims());
            assert_eq!(bits(&got), bits(&want), "{name}: d points");
            let mut grads = [Vec::new(), Vec::new()];
            sparse.visit(&mut |_p: &mut Tensor, g: &mut Tensor| grads[0].push(bits(g)));
            dense.visit(&mut |_p: &mut Tensor, g: &mut Tensor| grads[1].push(bits(g)));
            assert_eq!(grads[0], grads[1], "{name}: parameter gradients");
            assert!(grads[0].iter().flatten().any(|&g| g != 0));
        }
    }

    /// A one-convolution encoder pools its only convolution, which reads
    /// the caller's points: forward against that convolution stored and
    /// then max-pooled, and its row-sparse backward against the dense one.
    /// Every other channel's bias is −4, so its maxima are negative and
    /// the LeakyReLU slope shows in them.
    #[test]
    fn one_convolution_encoder_pools_the_points_directly() {
        let cfg = VaeConfig {
            encoder_channels: vec![6, 24],
            ..small_cfg()
        };
        let points = TensorRng::seeded(23).uniform([3, 13, 6], -1.0, 1.0);
        let encoder = || {
            let mut e = Encoder::new(&mut TensorRng::seeded(24), &cfg);
            let bias = (0..24).map(|c| if c % 2 == 0 { -4.0 } else { 0.0 });
            e.convs[0].b = Tensor::from_vec([24], bias.collect());
            e
        };
        let (mut sparse, mut dense) = (encoder(), encoder());
        let ws = &mut ws();
        let bits = |t: &Tensor| -> Vec<u32> { t.data().iter().map(|v| v.to_bits()).collect() };
        let (mu, lv, ctx) = sparse.forward(&points, ws);
        let conv = sparse.convs[0].forward(&points, LEAKY, ws);
        let (pooled, arg) = crate::layers::max_pool_points(&conv, ws);
        assert_eq!(bits(&ctx.pooled), bits(&pooled));
        assert_eq!(ctx.pool_arg, arg);
        assert!(pooled.data().iter().any(|&v| v < 0.0));
        assert!(ctx.conv_out.is_empty());
        assert_eq!(bits(&mu), bits(&sparse.mu_head.forward(&pooled, ws).0));
        let (_, _, dense_ctx) = dense.forward(&points, ws);
        zero_grads(|v| sparse.visit(v));
        zero_grads(|v| dense.visit(v));
        let got = sparse
            .backward(&points, &mu, &lv, ctx, true, ws)
            .expect("d points requested");
        let want = dense_backward(&mut dense, &points, &mu, &lv, dense_ctx, ws);
        assert_eq!(bits(&got), bits(&want), "d points");
        let mut grads = [Vec::new(), Vec::new()];
        sparse.visit(&mut |_p: &mut Tensor, g: &mut Tensor| grads[0].push(bits(g)));
        dense.visit(&mut |_p: &mut Tensor, g: &mut Tensor| grads[1].push(bits(g)));
        assert_eq!(grads[0], grads[1], "parameter gradients");
    }

    #[test]
    fn decoder_gradient_matches_finite_difference() {
        let mut rng = TensorRng::seeded(4);
        let cfg = small_cfg();
        let dec = Decoder::new(&mut rng, &cfg);
        let z = rng.standard_normal([2, 10]);
        let (y, ctx) = dec.forward(&z, &mut ws());
        let mut probe = Decoder::new(&mut TensorRng::seeded(4), &cfg);
        let dz = probe.backward(&z, &y, ctx, &mut ws());
        let mut f = |t: &Tensor| {
            let (y, _) = dec.forward(t, &mut ws());
            0.5 * y.sq_norm()
        };
        crate::layers::finite_diff_check(&mut f, &z, &dz, 1e-2, 5e-2);
    }

    #[test]
    fn deconv_scatter_covers_every_output_cell_once() {
        let mut rng = TensorRng::seeded(5);
        let dc = Deconv3::new(&mut rng, 2, 3, true);
        let x = rng.standard_normal([1, 8, 2]); // 2³ input cells
        let y = dc.forward(&x, 2, Activation::Identity, &mut ws());
        assert_eq!(y.dims(), &[1, 64, 3]); // 4³ output cells
                                           // With bias zero and near-deterministic linear, no output cell stays
                                           // exactly at the zero initialisation unless the product is zero —
                                           // just verify the scatter produced a finite, non-trivially-zero map.
        assert!(y.all_finite());
        let nonzero = y.data().iter().filter(|v| **v != 0.0).count();
        assert!(nonzero > 0);
    }

    #[test]
    fn vae_reparameterisation_uses_sigma() {
        let mut rng = TensorRng::seeded(6);
        let cfg = small_cfg();
        let vae = Vae::new(&mut rng, &cfg);
        let pts = rng.standard_normal([2, 10, 6]);
        let pass = vae.forward_train(&pts, &mut rng, &mut ws());
        assert_eq!(pass.z.dims(), pass.mu.dims());
        assert_eq!(pass.recon.dims(), &[2, 64, 6]);
        // z should differ from mu (noise injected).
        assert!(pass.z.sub(&pass.mu).sq_norm() > 0.0);
    }

    #[test]
    fn vae_full_backward_runs_and_produces_finite_grads() {
        let mut rng = TensorRng::seeded(7);
        let cfg = small_cfg();
        let mut vae = Vae::new(&mut rng, &cfg);
        let pts = rng.standard_normal([2, 10, 6]);
        let ws = &mut ws();
        let pass = vae.forward_train(&pts, &mut rng, ws);
        let (_, drecon) = crate::loss::chamfer(&pass.recon, &pts);
        let (_, dmu, dlv) = crate::loss::kl_divergence(&pass.mu, &pass.logvar);
        zero_grads(|v| vae.visit(v));
        let dpts = vae
            .backward(&pts, pass, &drecon, None, &dmu, &dlv, true, ws)
            .expect("d points requested");
        assert!(dpts.all_finite());
        let mut total = 0.0f64;
        vae.visit(&mut |_p: &mut Tensor, g: &mut Tensor| {
            assert!(g.all_finite());
            total += g.sq_norm();
        });
        assert!(total > 0.0, "some gradient must flow");
    }

    #[test]
    fn vae_overfits_single_cloud() {
        // Sanity: a few Adam steps on one sample must reduce CD.
        use crate::optim::{Adam, AdamConfig};
        let mut rng = TensorRng::seeded(8);
        let cfg = small_cfg();
        let mut vae = Vae::new(&mut rng, &cfg);
        let pts = rng.uniform([1, 16, 6], -1.0, 1.0);
        let mut adam = Adam::new(AdamConfig {
            lr: 3e-3,
            weight_decay: 0.0,
            ..AdamConfig::default()
        });
        let mut first = None;
        let mut last = 0.0;
        let ws = &mut ws();
        for _ in 0..60 {
            let pass = vae.forward_train(&pts, &mut rng, ws);
            let (cd, drecon) = crate::loss::chamfer(&pass.recon, &pts);
            let (_kl, dmu, dlv) = crate::loss::kl_divergence(&pass.mu, &pass.logvar);
            let dmu = dmu.scale(0.001);
            let dlv = dlv.scale(0.001);
            zero_grads(|v| vae.visit(v));
            let _ = vae.backward(&pts, pass, &drecon, None, &dmu, &dlv, false, ws);
            adam.step(|v| vae.visit(v));
            first.get_or_insert(cd);
            last = cd;
        }
        let first = first.unwrap();
        assert!(
            last < 0.7 * first,
            "VAE failed to overfit: {first} → {last}"
        );
    }
}
