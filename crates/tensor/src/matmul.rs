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
//!
//! # CPU instances
//!
//! The row-block body is compiled twice: for the SSE2 baseline with a
//! 4×8 tile, and under `target_feature(enable = "avx2")` with a 4×16 tile
//! (then one 4×8, then single columns), picked at run time. Packed
//! multiplies and adds round each lane as scalar code does, Rust never
//! fuses `a·b + c`, and the order above is fixed by the source, so both
//! instances give the same bits.

use crate::tensor::Tensor;
use rayon::prelude::*;

/// Below this many multiply-adds (`m·k·n`, about 0.2 ms of kernel time) a
/// fork-join costs more than it saves and the calling thread does it all.
const PAR_THRESHOLD: usize = 2 * 1024 * 1024;
/// Register tile: `MR` rows × `NR` columns of accumulators (8 SSE
/// registers), leaving room for one `B` row segment and a broadcast. The
/// AVX2 instance holds `MR` × `2·NR` in 8 AVX registers.
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
    let task = |(t, c): (usize, &mut [f32])| {
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx2") {
            // SAFETY: the CPU has AVX2.
            return unsafe { rows_avx2(c, ops, t * rows) };
        }
        row_blocks::<NR>(c, ops, t * rows);
    };
    out.par_chunks_mut(rows * n).enumerate().for_each(task);
}

/// [`row_blocks`] with `2·NR`-wide tiles, compiled for AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn rows_avx2(c: &mut [f32], ops: Operands, i: usize) {
    row_blocks::<{ 2 * NR }>(c, ops, i)
}

/// Output rows `i..` in `MR`-row blocks, then one by one.
#[inline(always)]
fn row_blocks<const W: usize>(mut c: &mut [f32], ops: Operands, mut i: usize) {
    while c.len() >= MR * ops.n {
        let (block, rest) = c.split_at_mut(MR * ops.n);
        row_block::<MR, W>(block, ops, i);
        (c, i) = (rest, i + MR);
    }
    for (r, row) in c.chunks_mut(ops.n).enumerate() {
        row_block::<1, W>(row, ops, i + r);
    }
}

/// Rows `i..i+R` of the output: `W`-wide tiles, one `NR`-wide tile if
/// that many columns remain, then the rest one by one.
#[inline(always)]
fn row_block<const R: usize, const W: usize>(c: &mut [f32], ops: Operands, i: usize) {
    let mut j = 0;
    while j + W <= ops.n {
        tile::<R, W>(c, ops, i, j);
        j += W;
    }
    if W > NR && j + NR <= ops.n {
        tile::<R, NR>(c, ops, i, j);
        j += NR;
    }
    for j in j..ops.n {
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

    type Rows = fn(&mut [f32], Operands, usize);

    /// Each instance of the row loop this CPU can run, on one thread.
    fn instances() -> Vec<(&'static str, Rows)> {
        let mut all: Vec<(&'static str, Rows)> = vec![("sse2", row_blocks::<NR>)];
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx2") {
            // SAFETY: the CPU has AVX2.
            all.push(("avx2", |c, ops, i| unsafe { rows_avx2(c, ops, i) }));
        }
        if all.len() == 1 {
            eprintln!("no AVX2 on this CPU: checking the baseline instance alone");
        }
        all
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The summation-order contract, bit for bit: every layout through
    /// the public entry points, and each instance over both `A` strides,
    /// equal the ordered naive sum — at every column count around the
    /// 8- and 16-wide tiles, `m` not a multiple of `MR`, and one shape on
    /// the parallel path.
    #[test]
    fn variants_agree_with_naive_on_random_input() {
        let mut rng = TensorRng::seeded(42);
        let big = (PAR_ROWS * 4 + MR + 1, 64, 256);
        assert!(big.0 * big.1 * big.2 >= PAR_THRESHOLD);
        let narrow = [1, 6, 7, 8, 9, 15, 16, 17, 24, 40].map(|n| (2 * MR + 3, 5, n));
        for (m, k, n) in narrow.into_iter().chain([(7, 1, 2), (16, 16, 16), big]) {
            let a = rng.standard_normal([m, k]);
            let b = rng.standard_normal([k, n]);
            let at = a.transpose2();
            let want = bits(naive(&a, &b).data());
            assert_eq!(bits(matmul(&a, &b).data()), want, "A·B {m}x{k}x{n}");
            let c2 = matmul_a_bt(&a, &b.transpose2());
            assert_eq!(bits(c2.data()), want, "A·Bᵀ {m}x{k}x{n}");
            let c3 = matmul_at_b(&at, &b);
            assert_eq!(bits(c3.data()), want, "Aᵀ·B {m}x{k}x{n}");
            for (name, rows) in instances() {
                for (a, a_row, a_col) in [(a.data(), k, 1), (at.data(), 1, m)] {
                    let mut c = vec![f32::NAN; m * n];
                    let b = b.data();
                    rows(
                        &mut c,
                        Operands {
                            a,
                            a_row,
                            a_col,
                            b,
                            k,
                            n,
                        },
                        0,
                    );
                    assert_eq!(
                        bits(&c),
                        want,
                        "{name} {m}x{k}x{n}, A strides {a_row}, {a_col}"
                    );
                }
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
