//! `L` f64 lanes with element-wise arithmetic: the particle kernels'
//! one body for one particle (`L = 1`) and for a group of them.
//!
//! Every operator applies the scalar operation to each lane, unrolled,
//! so the optimiser packs lanes into vector registers: pairs into SSE2
//! registers on the baseline target, four into an AVX register where the
//! caller is compiled a second time for AVX2 and picked at run time (the
//! fused pass's tile body, and the radiation particle states inside
//! `as_radiation::lienard`'s chunk body).
//! No `target-cpu`, no `mul_add` (lint `fused-multiply`). A formula
//! written over [`Lanes`] therefore computes in every lane, in either
//! instance, the bits the same formula gives over `f64`. Compares produce
//! bit masks and `select` picks by bit pattern, so lane bodies carry no
//! branches.

use std::array::from_fn;
use std::ops::{Add, Div, Mul, Neg, Sub};

/// `L` f64 lanes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Lanes<const L: usize>(pub [f64; L]);

/// All-ones where a lane's compare held, zero elsewhere.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Mask<const L: usize>(pub(crate) [u64; L]);

impl<const L: usize> Lanes<L> {
    /// Every lane `v`.
    #[inline(always)]
    pub(crate) fn splat(v: f64) -> Self {
        Self([v; L])
    }

    /// Lane `l` is `f(l)`.
    #[inline(always)]
    pub fn from_fn(f: impl FnMut(usize) -> f64) -> Self {
        Self(from_fn(f))
    }

    /// `f` of every lane.
    #[inline(always)]
    fn map(self, f: impl Fn(f64) -> f64) -> Self {
        Self(from_fn(|l| f(self.0[l])))
    }

    /// Square root of every lane.
    #[inline(always)]
    pub fn sqrt(self) -> Self {
        self.map(f64::sqrt)
    }

    /// Absolute value of every lane.
    #[inline(always)]
    pub(crate) fn abs(self) -> Self {
        self.map(f64::abs)
    }

    /// `floor` of every lane, bitwise `f64::floor` on every input and
    /// without the library call the SSE2 baseline makes of it: round `|c|`
    /// to an integer by pushing its fraction out of the mantissa
    /// (`+ 2⁵² − 2⁵²`), restore the sign, step down where that rounded up.
    /// NaN, the infinities and everything from 2⁵² up are their own floor
    /// (selected by bit pattern), and `−0.0` stays `−0.0`.
    #[inline(always)]
    pub(crate) fn floor(self) -> Self {
        const TWO52: f64 = 4_503_599_627_370_496.0;
        let a = self.abs();
        let r = Self(from_fn(|l| ((a.0[l] + TWO52) - TWO52).copysign(self.0[l])));
        let f = r - Self::splat(0.0).select(r.gt(self), Self::splat(1.0));
        self.select(Self::splat(TWO52).gt(a), f)
    }

    /// Lanes where `self > o`.
    #[inline(always)]
    pub(crate) fn gt(self, o: Self) -> Mask<L> {
        Mask(from_fn(|l| mask(self.0[l] > o.0[l])))
    }

    /// The smaller of `self` and `o` per lane (`o` where `o < self`).
    #[inline(always)]
    pub(crate) fn min(self, o: Self) -> Self {
        self.select(self.gt(o), o)
    }

    /// The larger of `self` and `o` per lane (`o` where `o > self`).
    #[inline(always)]
    pub(crate) fn max(self, o: Self) -> Self {
        self.select(o.gt(self), o)
    }

    /// `if m { yes } else { self }` per lane, by bit pattern.
    #[inline(always)]
    pub(crate) fn select(self, m: Mask<L>, yes: Self) -> Self {
        Self(from_fn(|l| {
            f64::from_bits((yes.0[l].to_bits() & m.0[l]) | (self.0[l].to_bits() & !m.0[l]))
        }))
    }
}

/// All-ones when `b`, else zero.
#[inline(always)]
fn mask(b: bool) -> u64 {
    0u64.wrapping_sub(u64::from(b))
}

macro_rules! lane_op {
    ($trait:ident, $method:ident, $op:tt) => {
        impl<const L: usize> $trait for Lanes<L> {
            type Output = Self;
            #[inline(always)]
            fn $method(self, o: Self) -> Self {
                Self(from_fn(|l| self.0[l] $op o.0[l]))
            }
        }
        impl<const L: usize> $trait<f64> for Lanes<L> {
            type Output = Self;
            #[inline(always)]
            fn $method(self, o: f64) -> Self {
                Self(from_fn(|l| self.0[l] $op o))
            }
        }
        impl<const L: usize> $trait<Lanes<L>> for f64 {
            type Output = Lanes<L>;
            #[inline(always)]
            fn $method(self, o: Lanes<L>) -> Lanes<L> {
                Lanes(from_fn(|l| self $op o.0[l]))
            }
        }
    };
}

lane_op!(Add, add, +);
lane_op!(Sub, sub, -);
lane_op!(Mul, mul, *);
lane_op!(Div, div, /);

impl<const L: usize> Neg for Lanes<L> {
    type Output = Self;
    #[inline(always)]
    fn neg(self) -> Self {
        self.map(|v| -v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn floor_is_bitwise_floor() {
        let two52 = 4_503_599_627_370_496.0f64;
        let mut cases = vec![
            0.0,
            -0.0,
            0.5,
            -0.5,
            1.0,
            -1.0,
            -3.0,
            f64::next_down(48.0),
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            5e-324,
            -5e-324,
            two52,
            -two52,
            two52 - 0.5,
            -(two52 - 0.5),
            two52 * 1024.0,
            -two52 * 2048.0,
            1e300,
            -1e300,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..20_000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            cases.push(((state >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 200.0);
            cases.push(f64::from_bits(state));
        }
        cases.resize(cases.len().next_multiple_of(4), 0.5);
        for group in cases.chunks_exact(4) {
            let lanes = Lanes::<4>::from_fn(|l| group[l]);
            for (l, got) in lanes.floor().0.into_iter().enumerate() {
                let (c, want) = (group[l], group[l].floor());
                assert!(
                    got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()),
                    "floor({c:e}) = {got:e}, f64::floor = {want:e}"
                );
            }
        }
    }

    #[test]
    fn operators_are_the_scalar_operators_lane_by_lane() {
        let a = Lanes([1.5, -0.0, 3.0, f64::MIN_POSITIVE]);
        let b = Lanes([0.1, 0.0, -7.0, 3.0]);
        for l in 0..4 {
            let (x, y) = (a.0[l], b.0[l]);
            let pairs = [
                ((a + b).0[l], x + y),
                ((a - b).0[l], x - y),
                ((a * b).0[l], x * y),
                ((a / b).0[l], x / y),
                ((2.0 - a).0[l], 2.0 - x),
                ((a / 3.0).0[l], x / 3.0),
                ((-a).0[l], -x),
                (a.abs().sqrt().0[l], x.abs().sqrt()),
                (a.select(a.gt(b), b).0[l], if x > y { y } else { x }),
                (a.min(b).0[l], if y < x { y } else { x }),
                (a.max(b).0[l], if y > x { y } else { x }),
            ];
            for (k, (got, want)) in pairs.into_iter().enumerate() {
                assert!(
                    got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()),
                    "op {k} lane {l}: {got:e} vs {want:e}"
                );
            }
        }
    }
}
