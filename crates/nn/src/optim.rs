//! Optimisers.
//!
//! §IV-C of the paper: *"For all training runs, we use the Adam optimizer
//! with β₁ = 0.8, β₂ = 0.9, ε = 10⁻⁶ and weight decay λ = 2×10⁻⁵. …
//! Learning rates are scaled following a square-root rule"*, and §V-A adds
//! that the VAE block trains at a learning rate higher by a factor `m_VAE`
//! than the INN block. All of that is encoded here.

use as_tensor::Tensor;

/// Visitor over `(parameter, gradient)` pairs of a module.
///
/// Modules expose their parameters through a `visit` method; optimisers and
/// DDP gradient flattening are implemented as visitors, which keeps
/// parameter traversal order canonical without a parameter registry.
pub trait ParamVisitor {
    /// Called once per parameter tensor, in a stable order.
    fn visit(&mut self, param: &mut Tensor, grad: &mut Tensor);
}

impl<F: FnMut(&mut Tensor, &mut Tensor)> ParamVisitor for F {
    fn visit(&mut self, param: &mut Tensor, grad: &mut Tensor) {
        self(param, grad)
    }
}

/// Zero every gradient accumulator `visit` reaches, e.g.
/// `zero_grads(|v| module.visit(v))` — the one implementation behind every
/// module's "zero grad".
pub fn zero_grads(visit: impl FnOnce(&mut dyn ParamVisitor)) {
    visit(&mut |_p: &mut Tensor, g: &mut Tensor| g.data_mut().fill(0.0));
}

/// Adam hyper-parameters. Defaults are the paper's values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdamConfig {
    /// Base learning rate before batch-size scaling.
    pub lr: f32,
    /// First-moment decay (paper: 0.8).
    pub beta1: f32,
    /// Second-moment decay (paper: 0.9).
    pub beta2: f32,
    /// Numerical epsilon (paper: 1e-6).
    pub eps: f32,
    /// Decoupled weight decay λ (paper: 2e-5).
    pub weight_decay: f32,
}

impl Default for AdamConfig {
    fn default() -> Self {
        Self {
            lr: 1e-6, // l_base of §V-A
            beta1: 0.8,
            beta2: 0.9,
            eps: 1e-6,
            weight_decay: 2e-5,
        }
    }
}

impl AdamConfig {
    /// Square-root learning-rate scaling rule (Krizhevsky, "one weird
    /// trick"): when the effective batch grows by `k`, scale lr by `√k`.
    /// `base_batch` is the batch size `lr` was tuned at.
    pub fn scaled_for_batch(mut self, base_batch: usize, total_batch: usize) -> Self {
        let k = total_batch as f32 / base_batch as f32;
        self.lr *= k.sqrt();
        self
    }

    /// Multiply the learning rate (the `m_VAE` block factor of §V-A).
    pub fn with_lr_factor(mut self, factor: f32) -> Self {
        self.lr *= factor;
        self
    }
}

/// Snapshot of an [`Adam`] instance's mutable state — step count and
/// per-parameter moment vectors in visitation order. The learner
/// checkpoint (`as-core`) captures one per parameter group so a
/// restarted rank resumes the optimiser trajectory bit-exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct AdamState {
    /// Completed `step` calls (drives bias correction).
    pub step: u64,
    /// First-moment estimates, one vector per visited parameter.
    pub m: Vec<Vec<f32>>,
    /// Second-moment estimates, one vector per visited parameter.
    pub v: Vec<Vec<f32>>,
}

/// Adam optimiser with decoupled weight decay (AdamW-style).
///
/// State is kept per visited parameter in visitation order, so the same
/// module must always be visited with the same structure.
pub struct Adam {
    cfg: AdamConfig,
    step: u64,
    m: Vec<Vec<f32>>,
    v: Vec<Vec<f32>>,
    cursor: usize,
}

impl Adam {
    /// New optimiser with the given configuration.
    pub fn new(cfg: AdamConfig) -> Self {
        Self {
            cfg,
            step: 0,
            m: Vec::new(),
            v: Vec::new(),
            cursor: 0,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> AdamConfig {
        self.cfg
    }

    /// Change the learning rate mid-training.
    pub fn set_lr(&mut self, lr: f32) {
        self.cfg.lr = lr;
    }

    /// Number of `step` calls so far.
    pub fn steps(&self) -> u64 {
        self.step
    }

    /// Snapshot the optimiser's mutable state (checkpoint capture).
    pub fn state(&self) -> AdamState {
        AdamState {
            step: self.step,
            m: self.m.clone(),
            v: self.v.clone(),
        }
    }

    /// Restore a snapshot taken with [`Adam::state`]. The next `step`
    /// continues the bias-correction schedule and moment streams exactly
    /// where the snapshot left them.
    pub fn restore(&mut self, s: AdamState) {
        self.step = s.step;
        self.m = s.m;
        self.v = s.v;
        self.cursor = 0;
    }

    /// Apply one update. Call as
    /// `module.visit(&mut adam.begin_step());` — or more conveniently via
    /// [`Adam::step`] with a closure that visits the module.
    pub fn step(&mut self, visit: impl FnOnce(&mut dyn ParamVisitor)) {
        self.step += 1;
        self.cursor = 0;
        // Work around the borrow: move state through a small shim.
        let mut shim = AdamShim {
            cfg: self.cfg,
            t: self.step,
            m: &mut self.m,
            v: &mut self.v,
            cursor: &mut self.cursor,
        };
        visit(&mut shim);
    }
}

struct AdamShim<'a> {
    cfg: AdamConfig,
    t: u64,
    m: &'a mut Vec<Vec<f32>>,
    v: &'a mut Vec<Vec<f32>>,
    cursor: &'a mut usize,
}

impl ParamVisitor for AdamShim<'_> {
    fn visit(&mut self, param: &mut Tensor, grad: &mut Tensor) {
        let idx = *self.cursor;
        *self.cursor += 1;
        if self.m.len() <= idx {
            self.m.push(vec![0.0; param.numel()]);
            self.v.push(vec![0.0; param.numel()]);
        }
        let m = &mut self.m[idx];
        let v = &mut self.v[idx];
        assert_eq!(
            m.len(),
            param.numel(),
            "parameter shape changed mid-training"
        );
        let c = self.cfg;
        let bc1 = 1.0 - c.beta1.powi(self.t as i32);
        let bc2 = 1.0 - c.beta2.powi(self.t as i32);
        for ((p, g), (mi, vi)) in param
            .data_mut()
            .iter_mut()
            .zip(grad.data())
            .zip(m.iter_mut().zip(v.iter_mut()))
        {
            *mi = c.beta1 * *mi + (1.0 - c.beta1) * g;
            *vi = c.beta2 * *vi + (1.0 - c.beta2) * g * g;
            let mhat = *mi / bc1;
            let vhat = *vi / bc2;
            // Decoupled weight decay, then the Adam step.
            *p -= c.lr * c.weight_decay * *p;
            *p -= c.lr * mhat / (vhat.sqrt() + c.eps);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimise f(p) = ½‖p − target‖² with Adam; must converge.
    #[test]
    fn adam_converges_on_quadratic() {
        let target = [3.0f32, -2.0, 0.5];
        let mut p = Tensor::from_slice(&[0.0, 0.0, 0.0]);
        let mut g = Tensor::zeros([3]);
        let mut adam = Adam::new(AdamConfig {
            lr: 0.05,
            weight_decay: 0.0,
            ..AdamConfig::default()
        });
        for _ in 0..2000 {
            for (gi, (pi, ti)) in g
                .data_mut()
                .iter_mut()
                .zip(p.data().iter().zip(target.iter()))
            {
                *gi = pi - ti;
            }
            adam.step(|v| v.visit(&mut p, &mut g));
        }
        for (pi, ti) in p.data().iter().zip(target.iter()) {
            assert!((pi - ti).abs() < 1e-2, "converged to {pi} vs {ti}");
        }
    }

    #[test]
    fn weight_decay_shrinks_parameters_without_gradient() {
        let mut p = Tensor::from_slice(&[1.0]);
        let mut g = Tensor::zeros([1]);
        let mut adam = Adam::new(AdamConfig {
            lr: 0.1,
            weight_decay: 0.1,
            ..AdamConfig::default()
        });
        for _ in 0..10 {
            adam.step(|v| v.visit(&mut p, &mut g));
        }
        assert!(p.data()[0] < 1.0);
        assert!(p.data()[0] > 0.8);
    }

    #[test]
    fn sqrt_scaling_rule() {
        let base = AdamConfig {
            lr: 1e-6,
            ..AdamConfig::default()
        };
        // Paper: batch 8 per GCD; 384 GCDs → total batch 3072.
        let scaled = base.scaled_for_batch(8, 3072);
        let k = (3072.0f32 / 8.0).sqrt();
        assert!((scaled.lr - 1e-6 * k).abs() < 1e-12);
    }

    #[test]
    fn lr_factor_multiplies() {
        let cfg = AdamConfig::default().with_lr_factor(10.0);
        assert!((cfg.lr - 1e-5).abs() < 1e-12);
    }

    #[test]
    fn paper_defaults_are_encoded() {
        let c = AdamConfig::default();
        assert_eq!(c.beta1, 0.8);
        assert_eq!(c.beta2, 0.9);
        assert_eq!(c.eps, 1e-6);
        assert_eq!(c.weight_decay, 2e-5);
    }

    #[test]
    #[should_panic(expected = "shape changed")]
    fn shape_change_is_detected() {
        let mut adam = Adam::new(AdamConfig::default());
        let mut p = Tensor::zeros([2]);
        let mut g = Tensor::zeros([2]);
        adam.step(|v| v.visit(&mut p, &mut g));
        let mut p2 = Tensor::zeros([3]);
        let mut g2 = Tensor::zeros([3]);
        adam.step(|v| v.visit(&mut p2, &mut g2));
    }
}
