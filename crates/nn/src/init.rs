//! Weight initialisation.

use as_tensor::{Tensor, TensorRng};

/// Kaiming (He) uniform initialisation for a `[fan_in, fan_out]` weight,
/// appropriate for (leaky-)ReLU activations.
pub(crate) fn kaiming_uniform(rng: &mut TensorRng, fan_in: usize, fan_out: usize) -> Tensor {
    let bound = (6.0 / fan_in as f32).sqrt();
    rng.uniform([fan_in, fan_out], -bound, bound)
}

/// Xavier (Glorot) uniform initialisation, appropriate for tanh/linear
/// outputs (the INN subnets' final layers).
pub(crate) fn xavier_uniform(rng: &mut TensorRng, fan_in: usize, fan_out: usize) -> Tensor {
    let bound = (6.0 / (fan_in + fan_out) as f32).sqrt();
    rng.uniform([fan_in, fan_out], -bound, bound)
}

/// Near-zero initialisation for layers that should start as identity
/// perturbations (the last subnet layer of each GLOW block, so the flow
/// starts close to the identity map — standard Glow practice).
pub(crate) fn near_zero(rng: &mut TensorRng, fan_in: usize, fan_out: usize) -> Tensor {
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
