//! Neural-network layers with exact manual backward passes.
//!
//! Every layer follows the same contract: `forward` is pure w.r.t. the
//! layer (parameters are read-only) and `backward` **accumulates**
//! parameter gradients (`g* += …`). Accumulation (rather than overwrite) is
//! what lets the INN call its subnets once in the forward direction and once
//! in the inverse direction per training step.
//!
//! Each activation value is stored once. A [`Linear`] applies its
//! activation in the same pass that adds the bias, its backward is handed
//! the layer input by reference (the caller's context owns it), and an
//! [`Activation`]'s derivative is read from its *output* — which is the
//! next layer's input and therefore already kept. Outputs, contexts and
//! internal gradients are taken from and given back to the caller's
//! [`Workspace`]; a `dy` argument is only ever borrowed.

use crate::init;
use crate::optim::ParamVisitor;
use as_tensor::{matmul_at_b_into, matmul_into, Tensor, TensorRng, Workspace};

/// Fully-connected layer `y = x·W + b` with `W:[in,out]`, acting on the
/// rows of `x:[…, in]` whatever its leading dimensions.
pub struct Linear {
    /// Weights, `[fan_in, fan_out]`.
    pub w: Tensor,
    /// Bias, `[fan_out]`.
    pub b: Tensor,
    /// Weight gradient accumulator.
    pub gw: Tensor,
    /// Bias gradient accumulator.
    pub gb: Tensor,
}

/// How to initialise a [`Linear`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InitKind {
    /// He uniform (for ReLU-family nets).
    Kaiming,
    /// Glorot uniform (for linear/tanh outputs).
    Xavier,
    /// Near-zero (identity-like flows).
    NearZero,
}

impl Linear {
    /// New layer with the given fan-in/out and initialisation.
    pub fn new(rng: &mut TensorRng, fan_in: usize, fan_out: usize, kind: InitKind) -> Self {
        let w = match kind {
            InitKind::Kaiming => init::kaiming_uniform(rng, fan_in, fan_out),
            InitKind::Xavier => init::xavier_uniform(rng, fan_in, fan_out),
            InitKind::NearZero => init::near_zero(rng, fan_in, fan_out),
        };
        Self {
            gw: Tensor::zeros([fan_in, fan_out]),
            gb: Tensor::zeros([fan_out]),
            b: Tensor::zeros([fan_out]),
            w,
        }
    }

    /// Input feature count.
    pub fn fan_in(&self) -> usize {
        self.w.dims()[0]
    }

    /// Output feature count.
    pub fn fan_out(&self) -> usize {
        self.w.dims()[1]
    }

    /// `y = act(x·W + b)` for `x:[…, in]` → `y:[…, out]`.
    pub fn forward(&self, x: &Tensor, act: Activation, ws: &mut Workspace) -> Tensor {
        let (fan_in, fan_out) = (self.fan_in(), self.fan_out());
        assert_eq!(x.dims().last(), Some(&fan_in), "Linear fan_in mismatch");
        let mut y = ws.take(x.shape().with_last_dim(fan_out));
        matmul_into(y.data_mut(), x.data(), self.w.data(), fan_in, fan_out);
        for row in y.data_mut().chunks_exact_mut(fan_out) {
            for (v, &bv) in row.iter_mut().zip(self.b.data()) {
                *v += bv;
            }
            act.forward(row);
        }
        y
    }

    /// Accumulate `gw += xᵀ·dy` and `gb += Σ dy` for the input `x` of the
    /// forward pass and `dy = dL/d(x·W + b)`.
    pub fn accumulate_grads(&mut self, x: &Tensor, dy: &Tensor, ws: &mut Workspace) {
        assert_eq!(
            dy.dims().last(),
            Some(&self.fan_out()),
            "Linear dy mismatch"
        );
        self.accumulate_grads_rows(x.data(), dy.data(), ws);
    }

    /// [`Self::accumulate_grads`] on flat row-major `x:[rows, in]` and
    /// `dy:[rows, out]` — for a caller that uses only the leading rows of
    /// its buffers.
    pub fn accumulate_grads_rows(&mut self, x: &[f32], dy: &[f32], ws: &mut Workspace) {
        let (fan_in, fan_out) = (self.fan_in(), self.fan_out());
        let rows = x.len() / fan_in;
        assert_eq!(x.len(), rows * fan_in, "x is not whole rows");
        assert_eq!(dy.len(), rows * fan_out, "row mismatch");
        let mut gw = ws.take([fan_in, fan_out]);
        matmul_at_b_into(gw.data_mut(), x, dy, rows, fan_out);
        self.gw.add_assign(&gw);
        ws.give(gw);
        for row in dy.chunks_exact(fan_out) {
            for (g, &d) in self.gb.data_mut().iter_mut().zip(row) {
                *g += d;
            }
        }
    }

    /// `dx = dy·Wᵀ`, through the row-update kernel on a transposed `W`.
    pub fn input_grad(&self, dy: &Tensor, ws: &mut Workspace) -> Tensor {
        assert_eq!(
            dy.dims().last(),
            Some(&self.fan_out()),
            "Linear dy mismatch"
        );
        let mut dx = ws.take(dy.shape().with_last_dim(self.fan_in()));
        self.input_grad_rows(dy.data(), dx.data_mut(), ws);
        dx
    }

    /// [`Self::input_grad`] on flat row-major `dy:[rows, out]` into
    /// `dx:[rows, in]`.
    pub fn input_grad_rows(&self, dy: &[f32], dx: &mut [f32], ws: &mut Workspace) {
        let (fan_in, fan_out) = (self.fan_in(), self.fan_out());
        assert_eq!(dy.len() * fan_in, dx.len() * fan_out, "row mismatch");
        let mut wt = ws.take([fan_out, fan_in]);
        self.w.transpose_into(&mut wt);
        matmul_into(dx, dy, wt.data(), fan_out, fan_in);
        ws.give(wt);
    }

    /// Visit `(param, grad)` pairs.
    pub fn visit(&mut self, v: &mut dyn ParamVisitor) {
        v.visit(&mut self.w, &mut self.gw);
        v.visit(&mut self.b, &mut self.gb);
    }
}

/// Supported activation functions, applied in place over slices.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Activation {
    /// `max(x, αx)` with slope `α ≥ 0`.
    LeakyRelu(f32),
    /// Hyperbolic tangent.
    Tanh,
    /// `ln(1 + eˣ)` (used for strictly-positive σ heads).
    Softplus,
    /// Identity (keeps MLP code uniform).
    Identity,
}

impl Activation {
    /// `v ← act(v)`. LeakyReLU is a select of the factor, not a branch
    /// around the multiply — multiplying by `1.0` is exact — so the loop
    /// vectorises.
    pub fn forward(&self, v: &mut [f32]) {
        match *self {
            Activation::LeakyRelu(a) => {
                for x in v {
                    *x *= if *x > 0.0 { 1.0 } else { a };
                }
            }
            Activation::Tanh => v.iter_mut().for_each(|x| *x = x.tanh()),
            Activation::Softplus => v.iter_mut().for_each(|x| *x = softplus(*x)),
            Activation::Identity => {}
        }
    }

    /// `d ← d · act′(x)`, with the derivative read from the **output**
    /// `y = act(x)`: the sign of a LeakyReLU output is the sign of its input
    /// (for `α ≥ 0`), `tanh′ = 1 − y²` and `softplus′ = σ(x) = 1 − e⁻ʸ`.
    pub fn backward(&self, d: &mut [f32], y: &[f32]) {
        assert_eq!(d.len(), y.len(), "activation gradient shape mismatch");
        match *self {
            Activation::LeakyRelu(a) => {
                assert!(a >= 0.0, "a negative slope hides the input sign");
                for (d, &y) in d.iter_mut().zip(y) {
                    *d *= if y <= 0.0 { a } else { 1.0 };
                }
            }
            Activation::Tanh => d.iter_mut().zip(y).for_each(|(d, &y)| *d *= 1.0 - y * y),
            Activation::Softplus => d.iter_mut().zip(y).for_each(|(d, &y)| *d *= -(-y).exp_m1()),
            Activation::Identity => {}
        }
    }
}

fn softplus(x: f32) -> f32 {
    // Overflow-safe: ln(1+e^x) = max(x,0) + ln(1+e^-|x|).
    x.max(0.0) + (-x.abs()).exp().ln_1p()
}

/// Multi-layer perceptron: Linear → act → … → Linear (linear output).
pub struct Mlp {
    layers: Vec<Linear>,
    act: Activation,
}

/// Backward context of an [`Mlp`]: the hidden activations. The input
/// stays with the caller, who passes it to `backward` again.
pub struct MlpCtx {
    hidden: Vec<Tensor>,
}

impl Mlp {
    /// Build from a width list `[in, h1, …, out]`.
    pub fn new(
        rng: &mut TensorRng,
        widths: &[usize],
        act: Activation,
        last_init: InitKind,
    ) -> Self {
        assert!(
            widths.len() >= 2,
            "MLP needs at least input and output widths"
        );
        let n = widths.len() - 1;
        let layers = (0..n)
            .map(|i| {
                let kind = if i + 1 == n {
                    last_init
                } else {
                    InitKind::Kaiming
                };
                Linear::new(rng, widths[i], widths[i + 1], kind)
            })
            .collect();
        Self { layers, act }
    }

    /// Forward through all layers.
    pub fn forward(&self, x: &Tensor, ws: &mut Workspace) -> (Tensor, MlpCtx) {
        let n = self.layers.len();
        let mut hidden: Vec<Tensor> = Vec::with_capacity(n);
        for (i, layer) in self.layers.iter().enumerate() {
            let act = if i + 1 < n {
                self.act
            } else {
                Activation::Identity
            };
            let y = layer.forward(hidden.last().unwrap_or(x), act, ws);
            hidden.push(y);
        }
        let y = hidden.pop().expect("nonempty");
        (y, MlpCtx { hidden })
    }

    /// Backward through all layers for the input `x` of the forward pass,
    /// accumulating gradients; returns `dL/dx` if `want_dx`.
    pub fn backward(
        &mut self,
        x: &Tensor,
        ctx: MlpCtx,
        dy: &Tensor,
        want_dx: bool,
        ws: &mut Workspace,
    ) -> Option<Tensor> {
        let act = self.act;
        let mut hidden = ctx.hidden;
        let mut cur: Option<Tensor> = None;
        for layer in self.layers.iter_mut().skip(1).rev() {
            let h = hidden.pop().expect("one hidden activation per inner layer");
            let dy = cur.as_ref().unwrap_or(dy);
            layer.accumulate_grads(&h, dy, ws);
            let mut dh = layer.input_grad(dy, ws);
            act.backward(dh.data_mut(), h.data());
            ws.give(h);
            ws.give_all(cur.replace(dh));
        }
        let dy = cur.as_ref().unwrap_or(dy);
        self.layers[0].accumulate_grads(x, dy, ws);
        let dx = want_dx.then(|| self.layers[0].input_grad(dy, ws));
        ws.give_all(cur);
        dx
    }

    /// Visit all `(param, grad)` pairs.
    pub fn visit(&mut self, v: &mut dyn ParamVisitor) {
        for l in &mut self.layers {
            l.visit(v);
        }
    }
}

/// Max-pool over the point dimension: `[b, p, c] → [b, c]`, keeping the
/// winning point index per (batch, channel) for routing gradients back
/// (the first maximum wins a tie). This is the transposition-invariance
/// step of PointNet.
pub fn max_pool_points(x: &Tensor, ws: &mut Workspace) -> (Tensor, Vec<usize>) {
    let d = x.dims();
    assert_eq!(d.len(), 3, "max_pool_points expects [b, p, c]");
    let (b, p, c) = (d[0], d[1], d[2]);
    assert!(p > 0, "cannot pool over zero points");
    let mut out = ws.take([b, c]);
    out.data_mut().fill(f32::NEG_INFINITY);
    let mut arg = vec![0usize; b * c];
    let cloud_rows = out
        .data_mut()
        .chunks_exact_mut(c)
        .zip(arg.chunks_exact_mut(c));
    for ((best, best_at), cloud) in cloud_rows.zip(x.data().chunks_exact(p * c)) {
        for (pi, point) in cloud.chunks_exact(c).enumerate() {
            for ((o, at), &v) in best.iter_mut().zip(best_at.iter_mut()).zip(point) {
                if v > *o {
                    *o = v;
                    *at = pi;
                }
            }
        }
    }
    (out, arg)
}

/// Backward of [`max_pool_points`]: route `dy:[b,c]` to the argmax points of
/// an input of shape `[b, p, c]`. The dense form — the oracle of the
/// encoder's row-sparse backward, which never materialises the zeros.
#[cfg(test)]
pub(crate) fn max_pool_points_backward(
    dy: &Tensor,
    arg: &[usize],
    p: usize,
    ws: &mut Workspace,
) -> Tensor {
    let d = dy.dims();
    assert_eq!(d.len(), 2, "dy must be [b, c]");
    let (b, c) = (d[0], d[1]);
    let mut dx = ws.take([b, p, c]);
    dx.data_mut().fill(0.0);
    let clouds = dx.data_mut().chunks_exact_mut(p * c);
    for ((cloud, at), g) in clouds
        .zip(arg.chunks_exact(c))
        .zip(dy.data().chunks_exact(c))
    {
        for (ci, (&pi, &g)) in at.iter().zip(g).enumerate() {
            cloud[pi * c + ci] += g;
        }
    }
    dx
}

/// Central-difference gradient check of a scalar function of a tensor.
/// Exposed crate-wide for the gradient tests of higher-level modules.
#[cfg(test)]
pub(crate) fn finite_diff_check(
    f: &mut dyn FnMut(&Tensor) -> f64,
    x: &Tensor,
    analytic: &Tensor,
    eps: f32,
    tol: f64,
) {
    for i in 0..x.numel() {
        let mut xp = x.clone();
        xp.data_mut()[i] += eps;
        let mut xm = x.clone();
        xm.data_mut()[i] -= eps;
        let num = (f(&xp) - f(&xm)) / (2.0 * eps as f64);
        let ana = analytic.data()[i] as f64;
        let scale = num.abs().max(ana.abs()).max(1e-4);
        assert!(
            (num - ana).abs() / scale < tol,
            "grad mismatch at {i}: numeric {num}, analytic {ana}"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::zero_grads;

    #[test]
    fn linear_forward_known_values() {
        let mut rng = TensorRng::seeded(0);
        let mut l = Linear::new(&mut rng, 2, 2, InitKind::Xavier);
        l.w = Tensor::from_vec([2, 2], vec![1., 2., 3., 4.]);
        l.b = Tensor::from_slice(&[10., 20.]);
        let x = Tensor::from_vec([1, 2], vec![1., 1.]);
        let y = l.forward(&x, Activation::Identity, &mut Workspace::default());
        assert_eq!(y.data(), &[14., 26.]);
    }

    #[test]
    fn linear_input_gradient_matches_finite_difference() {
        let mut rng = TensorRng::seeded(1);
        let l = Linear::new(&mut rng, 3, 4, InitKind::Xavier);
        let x = rng.standard_normal([2, 3]);
        let ws = &mut Workspace::default();
        // Loss = sum(y²)/2 so dL/dy = y.
        let y = l.forward(&x, Activation::Identity, ws);
        let dx = l.input_grad(&y, ws);
        let mut f = |xt: &Tensor| {
            let y = l.forward(xt, Activation::Identity, &mut Workspace::default());
            0.5 * y.sq_norm()
        };
        finite_diff_check(&mut f, &x, &dx, 1e-2, 2e-2);
    }

    #[test]
    fn linear_weight_gradient_matches_finite_difference() {
        let mut rng = TensorRng::seeded(2);
        let mut l = Linear::new(&mut rng, 3, 2, InitKind::Xavier);
        let x = rng.standard_normal([4, 3]);
        let ws = &mut Workspace::default();
        let y = l.forward(&x, Activation::Identity, ws);
        zero_grads(|v| l.visit(v));
        l.accumulate_grads(&x, &y, ws);
        let w0 = l.w.clone();
        let gw = l.gw.clone();
        let mut f = |wt: &Tensor| {
            let probe = Linear {
                w: wt.clone(),
                b: l.b.clone(),
                gw: Tensor::zeros([3, 2]),
                gb: Tensor::zeros([2]),
            };
            let y = probe.forward(&x, Activation::Identity, &mut Workspace::default());
            0.5 * y.sq_norm()
        };
        finite_diff_check(&mut f, &w0, &gw, 1e-2, 2e-2);
    }

    #[test]
    fn backward_accumulates_across_calls() {
        let mut rng = TensorRng::seeded(3);
        let mut l = Linear::new(&mut rng, 2, 2, InitKind::Xavier);
        let x = rng.standard_normal([1, 2]);
        let ws = &mut Workspace::default();
        let y = l.forward(&x, Activation::Identity, ws);
        zero_grads(|v| l.visit(v));
        l.accumulate_grads(&x, &y, ws);
        let once = l.gw.clone();
        l.accumulate_grads(&x, &y, ws);
        let twice = l.gw.clone();
        for (a, b) in once.data().iter().zip(twice.data()) {
            assert!((2.0 * a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn activations_match_finite_difference() {
        let mut rng = TensorRng::seeded(4);
        let x = rng.standard_normal([10]).reshape([2, 5]);
        for act in [
            Activation::LeakyRelu(0.01),
            Activation::Tanh,
            Activation::Softplus,
            Activation::Identity,
        ] {
            let mut y = x.clone();
            act.forward(y.data_mut());
            let mut dx = y.clone();
            act.backward(dx.data_mut(), y.data());
            let mut f = |xt: &Tensor| {
                let mut y = xt.clone();
                act.forward(y.data_mut());
                0.5 * y.sq_norm()
            };
            finite_diff_check(&mut f, &x, &dx, 1e-3, 5e-2);
        }
    }

    /// The branchy per-element definitions the slice kernels must equal
    /// bit for bit (`backward` in terms of the pre-activation input `x`).
    fn scalar_forward(act: Activation, x: f32) -> f32 {
        match act {
            Activation::LeakyRelu(_) if x > 0.0 => x,
            Activation::LeakyRelu(a) => a * x,
            Activation::Tanh => x.tanh(),
            Activation::Softplus => softplus(x),
            Activation::Identity => x,
        }
    }

    fn scalar_backward(act: Activation, d: f32, x: f32) -> f32 {
        match act {
            Activation::LeakyRelu(a) if x <= 0.0 => d * a,
            Activation::LeakyRelu(_) | Activation::Identity => d,
            Activation::Tanh => d * (1.0 - x.tanh() * x.tanh()),
            Activation::Softplus => d * -(-softplus(x)).exp_m1(),
        }
    }

    #[test]
    fn slice_kernels_equal_the_scalar_definitions_bitwise() {
        let mut rng = TensorRng::seeded(40);
        let specials = [
            0.0,
            -0.0,
            1e-40,
            -1e-40,
            f32::MIN_POSITIVE / 2.0,
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            88.0,
            -88.0,
        ];
        // Long enough for a vectorised body plus a remainder.
        let mut x = specials.to_vec();
        x.extend_from_slice(rng.standard_normal([27]).data());
        let d = rng.standard_normal([x.len()]);
        let same = |got: f32, want: f32| {
            got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan())
        };
        for act in [
            Activation::LeakyRelu(0.01),
            Activation::LeakyRelu(0.0),
            Activation::Tanh,
            Activation::Softplus,
            Activation::Identity,
        ] {
            let mut y = x.clone();
            act.forward(&mut y);
            let mut dx = d.data().to_vec();
            act.backward(&mut dx, &y);
            for i in 0..x.len() {
                let want = scalar_forward(act, x[i]);
                assert!(
                    same(y[i], want),
                    "{act:?} forward({}) = {} ≠ {want}",
                    x[i],
                    y[i]
                );
                // ReLU's output cannot tell −∞ from NaN (−∞·0); every
                // finite input and every α > 0 can.
                if act == Activation::LeakyRelu(0.0) && x[i] == f32::NEG_INFINITY {
                    continue;
                }
                let want = scalar_backward(act, d.data()[i], x[i]);
                assert!(
                    same(dx[i], want),
                    "{act:?} backward at {} = {} ≠ {want}",
                    x[i],
                    dx[i]
                );
            }
        }
    }

    #[test]
    fn softplus_is_overflow_safe() {
        let mut y = Tensor::from_slice(&[-100.0, 0.0, 100.0]);
        Activation::Softplus.forward(y.data_mut());
        assert!(y.all_finite());
        assert!((y.data()[2] - 100.0).abs() < 1e-3);
        assert!(y.data()[0] >= 0.0 && y.data()[0] < 1e-6);
    }

    #[test]
    fn mlp_gradient_matches_finite_difference() {
        let mut rng = TensorRng::seeded(5);
        let mlp = Mlp::new(&mut rng, &[3, 8, 2], Activation::Tanh, InitKind::Xavier);
        let x = rng.standard_normal([4, 3]);
        let ws = &mut Workspace::default();
        let (y, ctx) = mlp.forward(&x, ws);
        let mut probe = Mlp::new(
            &mut TensorRng::seeded(5),
            &[3, 8, 2],
            Activation::Tanh,
            InitKind::Xavier,
        );
        let dx = probe.backward(&x, ctx, &y, true, ws).expect("dx requested");
        let mut f = |xt: &Tensor| {
            let (y, _) = mlp.forward(xt, &mut Workspace::default());
            0.5 * y.sq_norm()
        };
        finite_diff_check(&mut f, &x, &dx, 1e-2, 3e-2);
    }

    #[test]
    fn max_pool_selects_max_and_routes_gradient() {
        // [1 batch, 3 points, 2 channels]
        let x = Tensor::from_vec([1, 3, 2], vec![1., 9., 5., 2., 3., 4.]);
        let ws = &mut Workspace::default();
        let (y, arg) = max_pool_points(&x, ws);
        assert_eq!(y.data(), &[5., 9.]);
        assert_eq!(arg, vec![1, 0]);
        let dy = Tensor::from_vec([1, 2], vec![10., 20.]);
        let dx = max_pool_points_backward(&dy, &arg, 3, ws);
        assert_eq!(dx.data(), &[0., 20., 10., 0., 0., 0.]);
    }

    #[test]
    fn max_pool_is_transposition_invariant() {
        let mut rng = TensorRng::seeded(6);
        let x = rng.standard_normal([2, 5, 3]);
        let ws = &mut Workspace::default();
        let (y, _) = max_pool_points(&x, ws);
        // Reverse the point order.
        let mut rev = Tensor::zeros([2, 5, 3]);
        for b in 0..2 {
            for p in 0..5 {
                for c in 0..3 {
                    *rev.at_mut(&[b, 4 - p, c]) = x.at(&[b, p, c]);
                }
            }
        }
        let (y2, _) = max_pool_points(&rev, ws);
        assert_eq!(y, y2);
    }
}
