//! Invertible neural network: GLOW coupling blocks (Kingma & Dhariwal 2018,
//! as packaged by FrEIA's `GLOWCouplingBlock`) with fixed channel
//! permutations between blocks.
//!
//! The paper builds the inversion block from **four GLOW coupling blocks
//! using MLPs with →272→256→544 hidden layers as subnets**. Each block
//! splits its input in half; one half is affinely transformed with scale
//! and shift predicted from the other half by a subnet, then the roles
//! swap — making the whole map invertible in closed form. Scales are
//! soft-clamped (`c·(2/π)·atan(s/c)`) for stability.
//!
//! Both directions are differentiable here: `backward` propagates loss
//! gradients through the forward map (for `L_MSE` and `L_MMD(N,N′)`), and
//! `inverse_backward` through the inverse map (for `L_MMD(z,z′)`). Subnet
//! parameter gradients accumulate across both passes, exactly like a tape
//! autograd would.

use crate::init::ParamSource;
use crate::layers::{Activation, InitKind, Mlp, MlpCtx};
use crate::optim::ParamVisitor;
use as_tensor::{Tensor, Workspace};

/// Soft clamp constant (FrEIA default is 2.0; the paper's flows are affine
/// with clamped scales per Dinh et al.).
const CLAMP: f32 = 2.0;

fn clamp_fn(s: f32) -> f32 {
    CLAMP * std::f32::consts::FRAC_2_PI * (s / CLAMP).atan()
}

fn clamp_deriv(s: f32) -> f32 {
    std::f32::consts::FRAC_2_PI / (1.0 + (s / CLAMP).powi(2))
}

/// Which way a coupling block is traversed.
#[derive(Clone, Copy)]
enum Dir {
    /// `v = u ⊙ exp(clamp(s)) + t`.
    Forward,
    /// `v = (u − t) ⊙ exp(−clamp(s))`.
    Inverse,
}

/// One GLOW affine coupling block on vectors of dimension `d1 + d2`.
pub(crate) struct CouplingBlock {
    /// Subnet fed with the (already transformed) first half, predicting
    /// scale+shift for the second half: `d1 → … → 2·d2`.
    subnet1: Mlp,
    /// Subnet fed with the raw second half, predicting scale+shift for the
    /// first half: `d2 → … → 2·d1`.
    subnet2: Mlp,
    d1: usize,
}

/// Context of one pass through a coupling block, in either direction.
/// With `x = [x1 | x2]` the block's forward-side vector and `y = [y1 | y2]`
/// its inverse-side one, both directions keep the same tensors once: the
/// two subnet inputs `x2` and `y1`, the half `x1`, and what each
/// `affine` half-step left behind.
pub(crate) struct CouplingCtx {
    x1: Tensor,
    x2: Tensor,
    y1: Tensor,
    step1: HalfCtx,
    step2: HalfCtx,
}

/// What one [`affine`] half-step keeps for its backward: the conditioning
/// subnet's output `a = [s | t]`, the factor `e = exp(±clamp(s))` applied
/// with it, the subnet's own context, and which way it ran.
struct HalfCtx {
    a: Tensor,
    e: Tensor,
    sub: MlpCtx,
    dir: Dir,
}

impl CouplingCtx {
    /// Hand every kept tensor back to `ws` without a backward pass.
    fn recycle(self, ws: &mut Workspace) {
        ws.give_all([self.x1, self.x2, self.y1]);
        for step in [self.step1, self.step2] {
            ws.give_all([step.a, step.e]);
            step.sub.recycle(ws);
        }
    }
}

/// One affine half-step: `subnet` reads `cond:[B,·]` and predicts
/// `[s | t]:[B,2w]`, with which the half `u:[B,w]` becomes `v`.
fn affine(
    subnet: &Mlp,
    cond: &Tensor,
    u: &Tensor,
    dir: Dir,
    ws: &mut Workspace,
) -> (Tensor, HalfCtx) {
    let (a, sub) = subnet.forward(cond, ws);
    let w = u.dims()[1];
    let (mut v, mut e) = (ws.take(*u.shape()), ws.take(*u.shape()));
    let outs = v.data_mut().chunks_exact_mut(w);
    let outs = outs.zip(e.data_mut().chunks_exact_mut(w));
    for ((v, e), (u, a)) in outs.zip(u.data().chunks_exact(w).zip(a.data().chunks_exact(2 * w))) {
        let (s, t) = a.split_at(w);
        for j in 0..w {
            e[j] = match dir {
                Dir::Forward => clamp_fn(s[j]).exp(),
                Dir::Inverse => (-clamp_fn(s[j])).exp(),
            };
            v[j] = match dir {
                Dir::Forward => u[j] * e[j] + t[j],
                Dir::Inverse => (u[j] - t[j]) * e[j],
            };
        }
    }
    (v, HalfCtx { a, e, sub, dir })
}

/// Backward of one [`affine`] half-step whose subnet read `cond`: from
/// `g = dL/dv` and the half the scale multiplied (`scaled`: the input `u`
/// going forward, the output `v` through the inverse), the direct gradient
/// `dL/du` and — through the subnet, whose parameter gradients accumulate —
/// `dL/d cond` if `want_dcond`.
fn affine_backward(
    subnet: &mut Mlp,
    cond: &Tensor,
    step: HalfCtx,
    g: &Tensor,
    scaled: &Tensor,
    want_dcond: bool,
    ws: &mut Workspace,
) -> (Tensor, Option<Tensor>) {
    let n = g.dims()[1];
    let (mut du, mut da) = (ws.take(*g.shape()), ws.take(*step.a.shape()));
    let outs = du.data_mut().chunks_exact_mut(n);
    let outs = outs.zip(da.data_mut().chunks_exact_mut(2 * n));
    let ins = g.data().chunks_exact(n).zip(scaled.data().chunks_exact(n));
    let ins = ins.zip(
        step.a
            .data()
            .chunks_exact(2 * n)
            .zip(step.e.data().chunks_exact(n)),
    );
    for ((du, da), ((g, w), (s, e))) in outs.zip(ins) {
        let (ds, dt) = da.split_at_mut(n);
        for j in 0..n {
            du[j] = g[j] * e[j];
            (ds[j], dt[j]) = match step.dir {
                Dir::Forward => (g[j] * w[j] * e[j] * clamp_deriv(s[j]), g[j]),
                // d v/d s = (u − t)·e·(−clamp′) = −v·clamp′(s)
                Dir::Inverse => (-(g[j] * w[j]) * clamp_deriv(s[j]), -(g[j] * e[j])),
            };
        }
    }
    let dcond = subnet.backward(cond, step.sub, &da, want_dcond, ws);
    ws.give_all([da, step.a, step.e]);
    (du, dcond)
}

impl CouplingBlock {
    /// Build a block for `dim`-dimensional vectors with the given subnet
    /// hidden widths (paper: `[272, 256]` between input and the doubled
    /// output).
    pub(crate) fn new(src: &mut impl ParamSource, dim: usize, hidden: &[usize]) -> Self {
        let d1 = dim / 2;
        let d2 = dim - d1;
        let mut w1 = vec![d1];
        w1.extend_from_slice(hidden);
        w1.push(2 * d2);
        let mut w2 = vec![d2];
        w2.extend_from_slice(hidden);
        w2.push(2 * d1);
        let act = Activation::LeakyRelu(0.01);
        Self {
            // Near-zero last layers start the flow at the identity map.
            subnet1: Mlp::new(src, &w1, act, InitKind::NearZero),
            subnet2: Mlp::new(src, &w2, act, InitKind::NearZero),
            d1,
        }
    }

    /// Forward: `x:[B, d1+d2] → y:[B, d1+d2]` with
    /// `y1 = x1 ⊙ exp(clamp(s2(x2))) + t2(x2)`, then
    /// `y2 = x2 ⊙ exp(clamp(s1(y1))) + t1(y1)`.
    pub(crate) fn forward(&self, x: &Tensor, ws: &mut Workspace) -> (Tensor, CouplingCtx) {
        let (x1, x2) = x.split_cols(self.d1, ws);
        let (y1, step2) = affine(&self.subnet2, &x2, &x1, Dir::Forward, ws);
        let (y2, step1) = affine(&self.subnet1, &y1, &x2, Dir::Forward, ws);
        let y = Tensor::concat_cols(&y1, &y2, ws);
        ws.give(y2);
        let ctx = CouplingCtx {
            x1,
            x2,
            y1,
            step1,
            step2,
        };
        (y, ctx)
    }

    /// Inverse: `y:[B, d1+d2] → x:[B, d1+d2]` with
    /// `x2 = (y2 − t1(y1)) ⊙ exp(−clamp(s1(y1)))`, then
    /// `x1 = (y1 − t2(x2)) ⊙ exp(−clamp(s2(x2)))`.
    pub(crate) fn inverse(&self, y: &Tensor, ws: &mut Workspace) -> (Tensor, CouplingCtx) {
        let (y1, y2) = y.split_cols(self.d1, ws);
        let (x2, step1) = affine(&self.subnet1, &y1, &y2, Dir::Inverse, ws);
        let (x1, step2) = affine(&self.subnet2, &x2, &y1, Dir::Inverse, ws);
        let x = Tensor::concat_cols(&x1, &x2, ws);
        ws.give(y2);
        let ctx = CouplingCtx {
            x1,
            x2,
            y1,
            step1,
            step2,
        };
        (x, ctx)
    }

    /// Backward through the forward map; accumulates subnet gradients and
    /// returns `dL/dx`. The half transformed last (`y2`) is unwound first.
    pub(crate) fn backward(&mut self, dy: &Tensor, c: CouplingCtx, ws: &mut Workspace) -> Tensor {
        let (mut dy1, dy2) = dy.split_cols(self.d1, ws);
        let sub1 = &mut self.subnet1;
        let (mut dx2, via_y1) = affine_backward(sub1, &c.y1, c.step1, &dy2, &c.x2, true, ws);
        dy1.add_assign(via_y1.as_ref().expect("requested"));
        let sub2 = &mut self.subnet2;
        let (dx1, via_x2) = affine_backward(sub2, &c.x2, c.step2, &dy1, &c.x1, true, ws);
        dx2.add_assign(via_x2.as_ref().expect("requested"));
        let dx = Tensor::concat_cols(&dx1, &dx2, ws);
        ws.give_all([dy1, dy2, dx1, dx2, c.x1, c.x2, c.y1]);
        ws.give_all(via_y1.into_iter().chain(via_x2));
        dx
    }

    /// Backward through the inverse map; accumulates subnet gradients and
    /// returns `dL/dy` if `want_dy`. The half recovered last (`x1`) is
    /// unwound first.
    pub(crate) fn inverse_backward(
        &mut self,
        dx: &Tensor,
        c: CouplingCtx,
        want_dy: bool,
        ws: &mut Workspace,
    ) -> Option<Tensor> {
        let (dx1, mut dx2) = dx.split_cols(self.d1, ws);
        let sub2 = &mut self.subnet2;
        let (mut dy1, via_x2) = affine_backward(sub2, &c.x2, c.step2, &dx1, &c.x1, true, ws);
        dx2.add_assign(via_x2.as_ref().expect("requested"));
        let sub1 = &mut self.subnet1;
        let (dy2, via_y1) = affine_backward(sub1, &c.y1, c.step1, &dx2, &c.x2, want_dy, ws);
        let dy = via_y1.as_ref().map(|via_y1| {
            dy1.add_assign(via_y1);
            Tensor::concat_cols(&dy1, &dy2, ws)
        });
        ws.give_all([dx1, dx2, dy1, dy2, c.x1, c.x2, c.y1]);
        ws.give_all(via_x2.into_iter().chain(via_y1));
        dy
    }

    /// Visit all `(param, grad)` pairs.
    pub(crate) fn visit(&mut self, v: &mut dyn ParamVisitor) {
        self.subnet1.visit(v);
        self.subnet2.visit(v);
    }
}

/// Stack of coupling blocks with fixed random permutations in between.
pub struct Inn {
    blocks: Vec<CouplingBlock>,
    /// `perms[i]` is applied after block `i` (except after the last block),
    /// stored with its inverse.
    perms: Vec<(Vec<usize>, Vec<usize>)>,
}

/// Context of a full INN pass, in either direction: one entry per block.
pub struct InnCtx {
    blocks: Vec<CouplingCtx>,
}

impl InnCtx {
    /// Hand every block's context back to `ws` without a backward pass.
    pub(crate) fn recycle(self, ws: &mut Workspace) {
        self.blocks.into_iter().for_each(|c| c.recycle(ws));
    }
}

fn apply_perm(x: &Tensor, perm: &[usize], ws: &mut Workspace) -> Tensor {
    let d = x.dims()[1];
    debug_assert_eq!(perm.len(), d);
    let mut out = ws.take(*x.shape());
    let rows = out.data_mut().chunks_exact_mut(d);
    for (dst, src) in rows.zip(x.data().chunks_exact(d)) {
        for (o, &p) in dst.iter_mut().zip(perm) {
            *o = src[p];
        }
    }
    out
}

fn invert_perm(perm: &[usize]) -> Vec<usize> {
    let mut inv = vec![0usize; perm.len()];
    for (j, &p) in perm.iter().enumerate() {
        inv[p] = j;
    }
    inv
}

impl Inn {
    /// Build `n_blocks` coupling blocks on `dim`-vectors with the given
    /// subnet hidden widths (paper: 4 blocks, hidden `[272, 256]`).
    pub fn new(src: &mut impl ParamSource, dim: usize, n_blocks: usize, hidden: &[usize]) -> Self {
        assert!(dim >= 2, "INN needs at least two channels to couple");
        assert!(n_blocks >= 1, "INN needs at least one coupling block");
        let blocks = (0..n_blocks)
            .map(|_| CouplingBlock::new(src, dim, hidden))
            .collect();
        let perms = (0..n_blocks.saturating_sub(1))
            .map(|_| {
                let p = src.permutation(dim);
                let inv = invert_perm(&p);
                (p, inv)
            })
            .collect();
        Self { blocks, perms }
    }

    /// Forward `x:[B,dim] → y:[B,dim]`.
    pub fn forward(&self, x: &Tensor, ws: &mut Workspace) -> (Tensor, InnCtx) {
        let mut cur: Option<Tensor> = None;
        let mut blocks = Vec::with_capacity(self.blocks.len());
        for (i, b) in self.blocks.iter().enumerate() {
            let (y, c) = b.forward(cur.as_ref().unwrap_or(x), ws);
            blocks.push(c);
            ws.give_all(cur.replace(y));
            if let Some((perm, _)) = self.perms.get(i) {
                let y = apply_perm(cur.as_ref().expect("just set"), perm, ws);
                ws.give_all(cur.replace(y));
            }
        }
        (cur.expect("INN has at least one block"), InnCtx { blocks })
    }

    /// Backward through the forward map.
    pub(crate) fn backward(&mut self, dy: &Tensor, ctx: InnCtx, ws: &mut Workspace) -> Tensor {
        let mut cur: Option<Tensor> = None;
        for (i, c) in ctx.blocks.into_iter().enumerate().rev() {
            if let Some((_, inv)) = self.perms.get(i) {
                // Gradient of a permutation is the inverse permutation.
                let d = apply_perm(cur.as_ref().unwrap_or(dy), inv, ws);
                ws.give_all(cur.replace(d));
            }
            let d = self.blocks[i].backward(cur.as_ref().unwrap_or(dy), c, ws);
            ws.give_all(cur.replace(d));
        }
        cur.expect("INN has at least one block")
    }

    /// Inverse `y:[B,dim] → x:[B,dim]`. The context lists the blocks in
    /// traversal order (last block first).
    pub fn inverse(&self, y: &Tensor, ws: &mut Workspace) -> (Tensor, InnCtx) {
        let mut cur: Option<Tensor> = None;
        let mut blocks = Vec::with_capacity(self.blocks.len());
        for (i, b) in self.blocks.iter().enumerate().rev() {
            if let Some((_, inv)) = self.perms.get(i) {
                let v = apply_perm(cur.as_ref().unwrap_or(y), inv, ws);
                ws.give_all(cur.replace(v));
            }
            let (x, c) = b.inverse(cur.as_ref().unwrap_or(y), ws);
            blocks.push(c);
            ws.give_all(cur.replace(x));
        }
        (cur.expect("INN has at least one block"), InnCtx { blocks })
    }

    /// Backward through the inverse map, accumulating subnet gradients;
    /// returns the gradient w.r.t. the inverse's input `y` if `want_dy`
    /// (training discards it: `I` and `N` are data).
    pub(crate) fn inverse_backward(
        &mut self,
        dx: &Tensor,
        ctx: InnCtx,
        want_dy: bool,
        ws: &mut Workspace,
    ) -> Option<Tensor> {
        let mut cur: Option<Tensor> = None;
        let last = self.blocks.len() - 1;
        for (i, c) in ctx.blocks.into_iter().rev().enumerate() {
            let want = want_dy || i < last;
            let d = self.blocks[i].inverse_backward(cur.as_ref().unwrap_or(dx), c, want, ws);
            let Some(d) = d else { break };
            ws.give_all(cur.replace(d));
            if let Some((perm, _)) = self.perms.get(i) {
                let d = apply_perm(cur.as_ref().expect("just set"), perm, ws);
                ws.give_all(cur.replace(d));
            }
        }
        if want_dy {
            return cur;
        }
        ws.give_all(cur);
        None
    }

    /// The channel permutations between blocks, in block order. They are
    /// drawn from the construction source, not trained, so they are part
    /// of what a snapshot of the model must carry.
    pub fn permutations(&self) -> impl Iterator<Item = &[usize]> {
        self.perms.iter().map(|(p, _)| p.as_slice())
    }

    /// Visit all `(param, grad)` pairs.
    pub(crate) fn visit(&mut self, v: &mut dyn ParamVisitor) {
        for b in &mut self.blocks {
            b.visit(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::finite_diff_check;
    use crate::optim::zero_grads;
    use as_tensor::TensorRng;

    fn ws() -> Workspace {
        Workspace::default()
    }

    #[test]
    fn clamp_is_bounded_and_smooth() {
        for s in [-100.0f32, -1.0, 0.0, 1.0, 100.0] {
            assert!(clamp_fn(s).abs() <= CLAMP);
        }
        assert!((clamp_fn(0.0)).abs() < 1e-7);
        assert!((clamp_deriv(0.0) - std::f32::consts::FRAC_2_PI).abs() < 1e-6);
    }

    #[test]
    fn coupling_block_inverts_its_forward() {
        let mut rng = TensorRng::seeded(0);
        let block = CouplingBlock::new(&mut rng, 8, &[16]);
        let x = rng.standard_normal([4, 8]);
        let (y, _) = block.forward(&x, &mut ws());
        let (x2, _) = block.inverse(&y, &mut ws());
        for (a, b) in x.data().iter().zip(x2.data()) {
            assert!((a - b).abs() < 1e-4, "inverse(forward(x)) ≠ x: {a} vs {b}");
        }
    }

    #[test]
    fn inn_round_trip_both_directions() {
        let mut rng = TensorRng::seeded(1);
        let inn = Inn::new(&mut rng, 12, 4, &[16, 16]);
        let x = rng.standard_normal([3, 12]);
        let (y, _) = inn.forward(&x, &mut ws());
        let (x_rec, _) = inn.inverse(&y, &mut ws());
        for (a, b) in x.data().iter().zip(x_rec.data()) {
            assert!((a - b).abs() < 1e-3);
        }
        // And the other way round.
        let (x2, _) = inn.inverse(&y, &mut ws());
        let (y2, _) = inn.forward(&x2, &mut ws());
        for (a, b) in y.data().iter().zip(y2.data()) {
            assert!((a - b).abs() < 1e-3);
        }
    }

    #[test]
    fn near_zero_init_starts_close_to_identity() {
        let mut rng = TensorRng::seeded(2);
        let inn = Inn::new(&mut rng, 6, 1, &[8]);
        let x = rng.standard_normal([2, 6]);
        let (y, _) = inn.forward(&x, &mut ws());
        for (a, b) in x.data().iter().zip(y.data()) {
            assert!((a - b).abs() < 0.05, "flow should start near identity");
        }
    }

    #[test]
    fn forward_gradient_matches_finite_difference() {
        let mut rng = TensorRng::seeded(3);
        let inn = Inn::new(&mut rng, 6, 2, &[8]);
        let x = rng.standard_normal([2, 6]);
        let (y, ctx) = inn.forward(&x, &mut ws());
        let mut probe = Inn::new(&mut TensorRng::seeded(3), 6, 2, &[8]);
        let dx = probe.backward(&y, ctx, &mut ws());
        let mut f = |t: &Tensor| {
            let (y, _) = inn.forward(t, &mut ws());
            0.5 * y.sq_norm()
        };
        finite_diff_check(&mut f, &x, &dx, 1e-2, 3e-2);
    }

    #[test]
    fn inverse_gradient_matches_finite_difference() {
        let mut rng = TensorRng::seeded(4);
        let inn = Inn::new(&mut rng, 6, 2, &[8]);
        let y = rng.standard_normal([2, 6]);
        let (x, ctx) = inn.inverse(&y, &mut ws());
        let mut probe = Inn::new(&mut TensorRng::seeded(4), 6, 2, &[8]);
        let dy = probe
            .inverse_backward(&x, ctx, true, &mut ws())
            .expect("dy requested");
        let mut f = |t: &Tensor| {
            let (x, _) = inn.inverse(t, &mut ws());
            0.5 * x.sq_norm()
        };
        finite_diff_check(&mut f, &y, &dy, 1e-2, 3e-2);
    }

    #[test]
    fn parameter_gradients_flow_in_both_directions() {
        let mut rng = TensorRng::seeded(5);
        let mut inn = Inn::new(&mut rng, 6, 2, &[8]);
        let x = rng.standard_normal([2, 6]);
        // Forward pass gradient.
        let (y, fctx) = inn.forward(&x, &mut ws());
        zero_grads(|v| inn.visit(v));
        let _ = inn.backward(&y, fctx, &mut ws());
        let mut fwd_norm = 0.0;
        inn.visit(&mut |_p: &mut Tensor, g: &mut Tensor| fwd_norm += g.sq_norm());
        // Inverse pass gradient.
        let (xr, ictx) = inn.inverse(&y, &mut ws());
        zero_grads(|v| inn.visit(v));
        let _ = inn.inverse_backward(&xr, ictx, false, &mut ws());
        let mut inv_norm = 0.0;
        inn.visit(&mut |_p: &mut Tensor, g: &mut Tensor| inv_norm += g.sq_norm());
        assert!(fwd_norm > 0.0, "forward pass must reach parameters");
        assert!(inv_norm > 0.0, "inverse pass must reach parameters");
    }

    #[test]
    fn permutation_helpers_invert() {
        let perm = vec![2usize, 0, 3, 1];
        let inv = invert_perm(&perm);
        let x = Tensor::from_vec([1, 4], vec![10., 20., 30., 40.]);
        let y = apply_perm(&x, &perm, &mut ws());
        assert_eq!(y.data(), &[30., 10., 40., 20.]);
        let back = apply_perm(&y, &inv, &mut ws());
        assert_eq!(back, x);
    }

    #[test]
    fn inn_can_learn_a_linear_map() {
        // Train forward(x) ≈ 2x + 1 on random data; a tiny regression that
        // exercises gradient flow end-to-end through both subnets.
        use crate::optim::{Adam, AdamConfig};
        let mut rng = TensorRng::seeded(6);
        let mut inn = Inn::new(&mut rng, 4, 2, &[16]);
        let mut adam = Adam::new(AdamConfig {
            lr: 1e-2,
            weight_decay: 0.0,
            ..AdamConfig::default()
        });
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..150 {
            let x = rng.standard_normal([16, 4]);
            let target = x.scale(2.0).map(|v| v + 1.0);
            let (y, ctx) = inn.forward(&x, &mut ws());
            let (l, dy) = crate::loss::mse(&y, &target);
            zero_grads(|v| inn.visit(v));
            let _ = inn.backward(&dy, ctx, &mut ws());
            adam.step(|v| inn.visit(v));
            first.get_or_insert(l);
            last = l;
        }
        assert!(last < 0.3 * first.unwrap(), "{first:?} → {last}");
    }
}
