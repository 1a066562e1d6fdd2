//! Matrix multiplication: one register-tiled kernel behind three layouts.
//!
//! - [`matmul`]       — `C = A·B`    for `A:[m,k] B:[k,n]`
//! - [`matmul_a_bt`]  — `C = A·Bᵀ`   for `A:[m,k] B:[n,k]`
//! - [`matmul_at_b`]  — `C = Aᵀ·B`   for `A:[k,m] B:[k,n]`
//!
//! # Summation-order contract
//!
//! Every output element is `((0 + a₀b₀) + a₁b₁) + …` with `p` ascending,
//! each product rounded before it is added (no FMA). The value is a
//! function of that element's `k` operand pairs only — never of `m`, the
//! row's position, the tile it fell in, or the thread that ran it. Batched
//! and per-row results are therefore bit-identical, which the serving
//! tier (`posterior_batch ≡ posterior_reference`) and the DDP `param_hash`
//! witness rely on. A zero in `A` is multiplied like any other value, so a
//! non-finite `B` entry propagates as IEEE 754 says.
//!
//! All three layouts run the same micro-kernel (`tile`): `Aᵀ·B` reads
//! `A` with swapped strides, `A·Bᵀ` transposes `B` first (the model's
//! weight matrices are at most a few thousand elements). The `_into`
//! forms write into a caller-provided buffer so a training step can
//! recycle its outputs through a [`crate::Workspace`].

use crate::tensor::Tensor;
use rayon::prelude::*;

/// Below this many multiply-adds (`m·k·n`, about 0.2 ms of kernel time) a
/// fork-join costs more than it saves and the calling thread does it all.
const PAR_THRESHOLD: usize = 2 * 1024 * 1024;
/// Register tile: `MR` rows × `NR` columns of accumulators (8 SSE
/// registers), leaving room for one `B` row segment and a broadcast.
const MR: usize = 4;
const NR: usize = 8;
/// Rows per parallel task; a multiple of `MR` so tiles never straddle tasks.
const PAR_ROWS: usize = 16 * MR;

/// `C = A·B` with `A:[m,k]`, `B:[k,n]` → `C:[m,n]`.
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = mat_dims(a, "A");
    let (kb, n) = mat_dims(b, "B");
    assert_eq!(k, kb, "matmul inner dimensions differ: {k} vs {kb}");
    let mut out = Tensor::zeros([m, n]);
    matmul_into(out.data_mut(), a.data(), b.data(), k, n);
    out
}

/// `C = A·Bᵀ` with `A:[m,k]`, `B:[n,k]` → `C:[m,n]`.
pub fn matmul_a_bt(a: &Tensor, b: &Tensor) -> Tensor {
    matmul(a, &b.transpose2())
}

/// `C = Aᵀ·B` with `A:[k,m]`, `B:[k,n]` → `C:[m,n]` (the weight-gradient
/// contraction `dW = Xᵀ·dY`).
pub fn matmul_at_b(a: &Tensor, b: &Tensor) -> Tensor {
    let (k, m) = mat_dims(a, "A");
    let (kb, n) = mat_dims(b, "B");
    assert_eq!(k, kb, "matmul_at_b inner dimensions differ: {k} vs {kb}");
    let mut out = Tensor::zeros([m, n]);
    matmul_at_b_into(out.data_mut(), a.data(), b.data(), k, n);
    out
}

/// [`matmul`] on flat row-major slices: `out:[m,n] = a:[m,k]·b:[k,n]` with
/// `m = out.len() / n`. Every element of `out` is overwritten.
pub fn matmul_into(out: &mut [f32], a: &[f32], b: &[f32], k: usize, n: usize) {
    gemm(out, a, (k, 1), b, k, n);
}

/// [`matmul_at_b`] on flat row-major slices: `out:[m,n] = a:[k,m]ᵀ·b:[k,n]`
/// with `m = out.len() / n`. Every element of `out` is overwritten.
pub fn matmul_at_b_into(out: &mut [f32], a: &[f32], b: &[f32], k: usize, n: usize) {
    gemm(out, a, (1, out.len() / n.max(1)), b, k, n);
}

/// `A(i,p) = a[i·a_row + p·a_col]` and `B(p,j) = b[p·n + j]`.
#[derive(Clone, Copy)]
struct Operands<'a> {
    a: &'a [f32],
    a_row: usize,
    a_col: usize,
    b: &'a [f32],
    k: usize,
    n: usize,
}

/// `out[i][j] = Σ_p A(i,p)·B(p,j)` with `A`'s `(row, column)` strides given.
/// Row blocks are independent, so above [`PAR_THRESHOLD`] they are handed
/// to rayon [`PAR_ROWS`] at a time.
fn gemm(out: &mut [f32], a: &[f32], a_strides: (usize, usize), b: &[f32], k: usize, n: usize) {
    if out.is_empty() {
        return;
    }
    let (a_row, a_col) = a_strides;
    let ops = Operands {
        a,
        a_row,
        a_col,
        b,
        k,
        n,
    };
    let m = out.len() / n;
    assert_eq!(out.len(), m * n, "output is not a whole number of rows");
    assert_eq!(a.len(), m * k, "A does not hold m·k elements");
    assert_eq!(b.len(), k * n, "B does not hold k·n elements");
    let rows = if out.len() * k >= PAR_THRESHOLD {
        PAR_ROWS
    } else {
        m
    };
    let task = |(t, mut c): (usize, &mut [f32])| {
        let mut i = t * rows;
        while c.len() >= MR * n {
            let (block, rest) = c.split_at_mut(MR * n);
            row_block::<MR>(block, ops, i);
            (c, i) = (rest, i + MR);
        }
        for (r, row) in c.chunks_mut(n).enumerate() {
            row_block::<1>(row, ops, i + r);
        }
    };
    out.par_chunks_mut(rows * n).enumerate().for_each(task);
}

/// Rows `i..i+R` of the output: full-width tiles, then the `n % NR`
/// columns one by one.
fn row_block<const R: usize>(c: &mut [f32], ops: Operands, i: usize) {
    let full = ops.n - ops.n % NR;
    for j in (0..full).step_by(NR) {
        tile::<R, NR>(c, ops, i, j);
    }
    for j in full..ops.n {
        tile::<R, 1>(c, ops, i, j);
    }
}

/// The one kernel body: an `R`×`C` tile of accumulators held in registers
/// across the whole `p` loop, stored once. Remainder rows and columns use
/// the same recurrence with `R = 1` / `C = 1`.
#[inline(always)]
fn tile<const R: usize, const C: usize>(c: &mut [f32], ops: Operands, i: usize, j: usize) {
    let Operands {
        a_row, a_col, n, ..
    } = ops;
    let a = &ops.a[i * a_row..];
    let mut acc = [[0.0f32; C]; R];
    for p in 0..ops.k {
        let bv = &ops.b[p * n + j..][..C];
        for (r, acc_r) in acc.iter_mut().enumerate() {
            let av = a[r * a_row + p * a_col];
            for (o, &bx) in acc_r.iter_mut().zip(bv) {
                *o += av * bx;
            }
        }
    }
    for (r, acc_r) in acc.iter().enumerate() {
        c[r * n + j..][..C].copy_from_slice(acc_r);
    }
}

fn mat_dims(t: &Tensor, name: &str) -> (usize, usize) {
    assert_eq!(
        t.shape().rank(),
        2,
        "{name} must be a matrix, got {}",
        t.shape()
    );
    (t.shape().dim(0), t.shape().dim(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::TensorRng;

    fn naive(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = (a.dims()[0], a.dims()[1]);
        let n = b.dims()[1];
        let mut c = Tensor::zeros([m, n]);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0;
                for p in 0..k {
                    acc += a.at(&[i, p]) * b.at(&[p, j]);
                }
                *c.at_mut(&[i, j]) = acc;
            }
        }
        c
    }

    #[test]
    fn small_known_product() {
        let a = Tensor::from_vec([2, 2], vec![1., 2., 3., 4.]);
        let b = Tensor::from_vec([2, 2], vec![5., 6., 7., 8.]);
        let c = matmul(&a, &b);
        assert_eq!(c.data(), &[19., 22., 43., 50.]);
    }

    #[test]
    fn identity_is_neutral() {
        let mut eye = Tensor::zeros([3, 3]);
        for i in 0..3 {
            *eye.at_mut(&[i, i]) = 1.0;
        }
        let a = Tensor::from_vec([3, 3], (0..9).map(|v| v as f32).collect());
        assert_eq!(matmul(&a, &eye), a);
        assert_eq!(matmul(&eye, &a), a);
    }

    #[test]
    fn variants_agree_with_naive_on_random_input() {
        let mut rng = TensorRng::seeded(42);
        for (m, k, n) in [(3, 4, 5), (7, 1, 2), (16, 16, 16)] {
            let a = rng.standard_normal([m, k]);
            let b = rng.standard_normal([k, n]);
            let c = matmul(&a, &b);
            let cn = naive(&a, &b);
            for (x, y) in c.data().iter().zip(cn.data()) {
                assert!((x - y).abs() < 1e-4);
            }
            // A·Bᵀ against naive on transposed B.
            let bt = b.transpose2();
            let c2 = matmul_a_bt(&a, &bt);
            for (x, y) in c2.data().iter().zip(cn.data()) {
                assert!((x - y).abs() < 1e-4);
            }
            // Aᵀ·B against naive on transposed A.
            let at = a.transpose2();
            let c3 = matmul_at_b(&at, &b);
            for (x, y) in c3.data().iter().zip(cn.data()) {
                assert!((x - y).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn parallel_path_matches_serial() {
        let mut rng = TensorRng::seeded(7);
        // Big enough to take the rayon path (run with more than one rayon
        // thread for the row blocks to really land on different threads),
        // with a last task that is neither full nor a multiple of `MR`.
        let (m, k, n) = (PAR_ROWS * 4 + MR + 1, 64, 256);
        assert!(m * k * n >= PAR_THRESHOLD);
        let a = rng.standard_normal([m, k]);
        let b = rng.standard_normal([k, n]);
        let big = matmul(&a, &b);
        let small = naive(&a, &b);
        for (x, y) in big.data().iter().zip(small.data()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "inner dimensions differ")]
    fn dimension_mismatch_panics() {
        let a = Tensor::zeros([2, 3]);
        let b = Tensor::zeros([4, 2]);
        let _ = matmul(&a, &b);
    }
}
