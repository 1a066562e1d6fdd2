//! Property-based tests of the tensor core.

use as_tensor::{matmul, matmul_a_bt, matmul_at_b, Tensor, TensorRng, Workspace};
use proptest::prelude::*;

/// The summation-order contract, written out: every element is
/// `((0 + a₀b₀) + a₁b₁) + …` with `p` ascending, one rounding per product
/// and per sum.
fn naive_p_ascending(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k, n) = (a.dims()[0], a.dims()[1], b.dims()[1]);
    let mut c = Tensor::zeros([m, n]);
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for p in 0..k {
                acc += a.data()[i * k + p] * b.data()[p * n + j];
            }
            c.data_mut()[i * n + j] = acc;
        }
    }
    c
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

fn tensor_strategy(rows: usize, cols: usize) -> impl Strategy<Value = Tensor> {
    prop::collection::vec(-100.0f32..100.0, rows * cols)
        .prop_map(move |v| Tensor::from_vec([rows, cols], v))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// (A·B)ᵀ = Bᵀ·Aᵀ for all matrices.
    #[test]
    fn matmul_transpose_identity(a in tensor_strategy(3, 4), b in tensor_strategy(4, 5)) {
        let left = matmul(&a, &b).transpose2();
        let right = matmul(&b.transpose2(), &a.transpose2());
        for (x, y) in left.data().iter().zip(right.data()) {
            prop_assert!((x - y).abs() <= 1e-3 * x.abs().max(1.0));
        }
    }

    /// The fused variants agree with explicit transposition.
    #[test]
    fn fused_variants_agree(a in tensor_strategy(4, 3), b in tensor_strategy(4, 5)) {
        let fused = matmul_at_b(&a, &b);
        let explicit = matmul(&a.transpose2(), &b);
        for (x, y) in fused.data().iter().zip(explicit.data()) {
            prop_assert!((x - y).abs() <= 1e-3 * x.abs().max(1.0));
        }
        // A·Bᵀ: the Gram matrix B·Bᵀ via fused and explicit forms.
        let c = matmul_a_bt(&b, &b);
        let d = matmul(&b, &b.transpose2());
        for (x, y) in c.data().iter().zip(d.data()) {
            prop_assert!((x - y).abs() <= 1e-2 * x.abs().max(1.0));
        }
    }

    /// All three layouts equal the naive `p`-ascending reference **bit for
    /// bit** — over tile remainders in both directions (`m % 4`, `n % 8`),
    /// `k = 1`, and zeros in `A` — and a row's result does not depend on
    /// the rows around it.
    #[test]
    fn layouts_match_the_p_ascending_reference_bitwise(
        m in 1usize..23,
        k in 1usize..20,
        n in 1usize..27,
        seed in any::<u64>(),
    ) {
        let mut rng = TensorRng::seeded(seed);
        let mut a = rng.standard_normal([m, k]);
        let b = rng.standard_normal([k, n]);
        for v in a.data_mut().iter_mut().step_by(3) {
            *v = 0.0;
        }
        let want = bits(&naive_p_ascending(&a, &b));
        prop_assert_eq!(&bits(&matmul(&a, &b)), &want);
        prop_assert_eq!(&bits(&matmul_a_bt(&a, &b.transpose2())), &want);
        prop_assert_eq!(&bits(&matmul_at_b(&a.transpose2(), &b)), &want);
        for i in 0..m {
            let row = Tensor::from_vec([1, k], a.data()[i * k..(i + 1) * k].to_vec());
            prop_assert_eq!(&bits(&matmul(&row, &b))[..], &want[i * n..(i + 1) * n]);
        }
    }

    /// Matmul distributes over addition: A·(B+C) = A·B + A·C.
    #[test]
    fn matmul_distributes(
        a in tensor_strategy(3, 3),
        b in tensor_strategy(3, 3),
        c in tensor_strategy(3, 3),
    ) {
        let lhs = matmul(&a, &b.add(&c));
        let rhs = matmul(&a, &b).add(&matmul(&a, &c));
        for (x, y) in lhs.data().iter().zip(rhs.data()) {
            prop_assert!((x - y).abs() <= 1e-2 * x.abs().max(1.0));
        }
    }

    /// concat_cols then split_cols round-trips.
    #[test]
    fn concat_split_roundtrip(a in tensor_strategy(2, 3), b in tensor_strategy(2, 5)) {
        let ws = &mut Workspace::default();
        let cat = Tensor::concat_cols(&a, &b, ws);
        prop_assert_eq!(cat.split_cols(3, ws), (a, b));
    }

    /// Softmax rows are probability vectors for any input.
    #[test]
    fn softmax_rows_are_distributions(t in tensor_strategy(4, 6)) {
        let s = t.softmax_rows();
        for row in s.data().chunks_exact(6) {
            let sum: f32 = row.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
            prop_assert!(row.iter().all(|v| *v >= 0.0));
        }
    }

    /// Transpose is an involution.
    #[test]
    fn transpose_involution(t in tensor_strategy(5, 7)) {
        prop_assert_eq!(t.transpose2().transpose2(), t);
    }
}
