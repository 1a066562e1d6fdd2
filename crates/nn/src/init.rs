//! Where a model's tensors come from: weight initialisation, or the
//! buffers of a captured model.
//!
//! The constructors of [`crate::layers::Linear`], [`crate::layers::Mlp`],
//! the VAE, the INN and [`crate::model::ArtificialScientistModel`] take a
//! [`ParamSource`]. A [`TensorRng`] is one: it draws the seeded
//! initialisers and gives every parameter a zeroed gradient — a model to
//! train. The captured buffers of a model are the other (`Buffers`): they
//! are handed back in construction order, moved into the model and hashed
//! in place, with no gradients — a model to serve. One builder, two feeds.

use crate::ddp::ParamHasher;
use crate::layers::InitKind;
use as_tensor::{Tensor, TensorRng};

/// What the model constructors draw their tensors from, in construction
/// order: each `Linear`'s weight then bias, and after an INN's coupling
/// blocks its channel permutations.
pub trait ParamSource {
    /// A `[fan_in, fan_out]` weight, initialised as `kind` when drawn.
    fn weight(&mut self, fan_in: usize, fan_out: usize, kind: InitKind) -> Tensor;
    /// A `[fan_out]` bias (zero when drawn).
    fn bias(&mut self, fan_out: usize) -> Tensor;
    /// The gradient accumulator of `param`.
    fn grad(&self, param: &Tensor) -> Tensor;
    /// A permutation of `0..dim`.
    fn permutation(&mut self, dim: usize) -> Vec<usize>;
}

impl ParamSource for TensorRng {
    fn weight(&mut self, fan_in: usize, fan_out: usize, kind: InitKind) -> Tensor {
        match kind {
            InitKind::Kaiming => kaiming_uniform(self, fan_in, fan_out),
            InitKind::Xavier => xavier_uniform(self, fan_in, fan_out),
            InitKind::NearZero => near_zero(self, fan_in, fan_out),
        }
    }

    fn bias(&mut self, fan_out: usize) -> Tensor {
        Tensor::zeros([fan_out])
    }

    fn grad(&self, param: &Tensor) -> Tensor {
        Tensor::zeros(*param.shape())
    }

    /// Fisher–Yates with the tensor RNG.
    fn permutation(&mut self, dim: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..dim).collect();
        for i in (1..dim).rev() {
            let j = self.index(i + 1);
            p.swap(i, j);
        }
        p
    }
}

/// Captured tensors handed back in construction order — parameters in
/// `visit_all` order, then the INN permutations as u32 indices — each
/// moved into the model and hashed with [`ParamHasher`] where it lies, so
/// the model built from them has been checked without a copy. Its
/// gradients are empty: the model serves and never trains.
pub(crate) struct Buffers {
    params: std::vec::IntoIter<Vec<f32>>,
    perms: std::vec::IntoIter<Vec<u32>>,
    hash: ParamHasher,
}

impl Buffers {
    pub(crate) fn new(params: Vec<Vec<f32>>, perms: Vec<Vec<u32>>) -> Self {
        Self {
            params: params.into_iter(),
            perms: perms.into_iter(),
            hash: ParamHasher::default(),
        }
    }

    fn param(&mut self, dims: &[usize]) -> Tensor {
        let src = self.params.next().expect("too few parameter buffers");
        let n: usize = dims.iter().product();
        assert_eq!(src.len(), n, "parameter buffer length");
        self.hash.update(&src);
        Tensor::from_vec(dims, src)
    }

    /// The hash of every buffer read, once all were read.
    pub(crate) fn finish(self) -> u64 {
        assert_eq!(self.params.len(), 0, "unread parameter buffers");
        assert_eq!(self.perms.len(), 0, "unread permutations");
        self.hash.finish()
    }
}

impl ParamSource for Buffers {
    fn weight(&mut self, fan_in: usize, fan_out: usize, _kind: InitKind) -> Tensor {
        self.param(&[fan_in, fan_out])
    }

    fn bias(&mut self, fan_out: usize) -> Tensor {
        self.param(&[fan_out])
    }

    fn grad(&self, _param: &Tensor) -> Tensor {
        Tensor::zeros([0])
    }

    fn permutation(&mut self, dim: usize) -> Vec<usize> {
        let src = self.perms.next().expect("too few permutations");
        assert_eq!(src.len(), dim, "permutation length");
        self.hash.update_words(src.iter().copied());
        src.iter().map(|&j| j as usize).collect()
    }
}

/// Kaiming (He) uniform initialisation for a `[fan_in, fan_out]` weight,
/// appropriate for (leaky-)ReLU activations.
fn kaiming_uniform(rng: &mut TensorRng, fan_in: usize, fan_out: usize) -> Tensor {
    let bound = (6.0 / fan_in as f32).sqrt();
    rng.uniform([fan_in, fan_out], -bound, bound)
}

/// Xavier (Glorot) uniform initialisation, appropriate for tanh/linear
/// outputs (the INN subnets' final layers).
fn xavier_uniform(rng: &mut TensorRng, fan_in: usize, fan_out: usize) -> Tensor {
    let bound = (6.0 / (fan_in + fan_out) as f32).sqrt();
    rng.uniform([fan_in, fan_out], -bound, bound)
}

/// Near-zero initialisation for layers that should start as identity
/// perturbations (the last subnet layer of each GLOW block, so the flow
/// starts close to the identity map — standard Glow practice).
fn near_zero(rng: &mut TensorRng, fan_in: usize, fan_out: usize) -> Tensor {
    rng.uniform([fan_in, fan_out], -1e-3, 1e-3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kaiming_bound_shrinks_with_fan_in() {
        let mut rng = TensorRng::seeded(0);
        let small = kaiming_uniform(&mut rng, 4, 8);
        let large = kaiming_uniform(&mut rng, 4096, 8);
        assert!(small.max().abs() > large.max().abs());
        let bound = (6.0f32 / 4096.0).sqrt();
        assert!(large.data().iter().all(|v| v.abs() <= bound));
    }

    #[test]
    fn xavier_respects_bound() {
        let mut rng = TensorRng::seeded(1);
        let w = xavier_uniform(&mut rng, 100, 50);
        let bound = (6.0f32 / 150.0).sqrt();
        assert!(w.data().iter().all(|v| v.abs() <= bound));
    }

    #[test]
    fn near_zero_is_small() {
        let mut rng = TensorRng::seeded(2);
        let w = near_zero(&mut rng, 16, 16);
        assert!(w.data().iter().all(|v| v.abs() <= 1e-3));
    }
}
