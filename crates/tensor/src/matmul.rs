//! Matrix multiplication: one register-tiled kernel behind three layouts
//! and three ways to finish a tile.
//!
//! - [`matmul`]       — `C = A·B`    for `A:[m,k] B:[k,n]`
//! - [`matmul_a_bt`]  — `C = A·Bᵀ`   for `A:[m,k] B:[n,k]`
//! - [`matmul_at_b`]  — `C = Aᵀ·B`   for `A:[k,m] B:[k,n]`
//! - [`matmul_epilogue_into`] — `C = act(A·B + bias)`, the [`Epilogue`]
//!   applied to the tile in registers before its one store
//! - [`matmul_max_pool_into`] — the max over each cloud's rows of
//!   `act(A·B + bias)`, with the winning row: nothing of `C` is stored
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
//! # Epilogue and pooling contract
//!
//! The fused forms round each output exactly as a plain product followed
//! by separate passes would: the sum above, then `+ bias[j]`, then — for
//! a LeakyReLU slope `α` — `v·1.0` if `v > 0` else `v·α` (a select of the
//! factor; multiplying by `1.0` is exact, so without a slope the bias
//! alone is applied). The pooling form folds the finished rows of each
//! cloud (`points` consecutive rows of `A`) into per-(cloud, column)
//! maxima in ascending row order, starting at `−∞` and replacing only on
//! a strict `v > max`: the first maximum wins a tie, a NaN never wins, and
//! a column with no value above `−∞` keeps `−∞` at row 0. Above the
//! parallel threshold whole clouds are handed to rayon, so no (cloud,
//! column) is ever split between threads and the split cannot move a bit.
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
use std::ops::Range;

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
    gemm(out, a, (k, 1), b, k, n, ());
}

/// [`matmul_at_b`] on flat row-major slices: `out:[m,n] = a:[k,m]ᵀ·b:[k,n]`
/// with `m = out.len() / n`. Every element of `out` is overwritten.
pub fn matmul_at_b_into(out: &mut [f32], a: &[f32], b: &[f32], k: usize, n: usize) {
    gemm(out, a, (1, out.len() / n.max(1)), b, k, n, ());
}

/// What a fused form does to a finished tile before it leaves the
/// registers: add `bias[j]` to column `j`, then apply LeakyReLU's select.
#[derive(Clone, Copy, Debug)]
pub struct Epilogue<'a> {
    /// Per-column bias, `[n]`.
    pub bias: &'a [f32],
    /// LeakyReLU slope `α`; `None` adds the bias only.
    pub leaky: Option<f32>,
}

/// The last step of a stored tile row before it leaves the registers.
trait Finish: Copy + Sync {
    /// Columns `j..` of one tile row.
    fn row<const C: usize>(self, row: &mut [f32; C], j: usize);
}

/// A plain product: the row is stored as summed.
impl Finish for () {
    #[inline(always)]
    fn row<const C: usize>(self, _row: &mut [f32; C], _j: usize) {}
}

impl Finish for Epilogue<'_> {
    /// The bias, then the select; without a slope both of the select's
    /// factors are `1.0`, so the bias alone is applied (`v·1.0 = v`).
    #[inline(always)]
    fn row<const C: usize>(self, row: &mut [f32; C], j: usize) {
        let a = self.leaky.unwrap_or(1.0);
        for (v, &b) in row.iter_mut().zip(&self.bias[j..][..C]) {
            *v += b;
            *v *= if *v > 0.0 { 1.0 } else { a };
        }
    }
}

/// [`matmul_into`] finished by `epilogue`:
/// `out:[m,n] = act(a:[m,k]·b:[k,n] + bias)`, the bias and the select
/// applied in the register tile. Every element of `out` is overwritten.
pub fn matmul_epilogue_into(
    out: &mut [f32],
    a: &[f32],
    b: &[f32],
    k: usize,
    n: usize,
    epilogue: Epilogue,
) {
    assert_eq!(epilogue.bias.len(), n, "bias is not one value per column");
    gemm(out, a, (k, 1), b, k, n, epilogue);
}

/// The max-pool of [`matmul_epilogue_into`]'s output over each cloud's
/// rows, without storing that output. `a:[clouds·points, k]` holds the
/// clouds one after another; `max:[clouds, n]` receives each column's
/// maximum over the cloud's rows and `arg:[clouds, n]` the index (within
/// the cloud) of the row that first reached it — see the module's pooling
/// contract. Every element of `max` and `arg` is overwritten.
pub fn matmul_max_pool_into(
    max: &mut [f32],
    arg: &mut [usize],
    a: &[f32],
    b: &[f32],
    k: usize,
    n: usize,
    epilogue: Epilogue,
) {
    assert_eq!(epilogue.bias.len(), n, "bias is not one value per column");
    assert_eq!(max.len(), arg.len(), "max and arg differ in length");
    let clouds = max.len() / n.max(1);
    assert_eq!(max.len(), clouds * n, "max is not a whole number of clouds");
    if clouds == 0 {
        return;
    }
    let m = a.len() / k.max(1);
    let points = m / clouds;
    assert!(points > 0, "cannot pool over zero points");
    assert_eq!(points * clouds, m, "A is not a whole number of clouds");
    let ops = Operands::new(a, (k, 1), b, k, n, m);
    assert!(u32::try_from(points).is_ok(), "too many points per cloud");
    max.fill(f32::NEG_INFINITY);
    let per_task = if m * k * n >= PAR_THRESHOLD {
        PAR_ROWS.div_ceil(points)
    } else {
        clouds
    };
    let mut tasks: Vec<_> = max
        .chunks_mut(per_task * n)
        .zip(arg.chunks_mut(per_task * n))
        .collect();
    tasks.par_chunks_mut(1).enumerate().for_each(|(t, task)| {
        let (max, arg) = &mut task[0];
        let mut rows = vec![0; n];
        let cloud_rows = max.chunks_exact_mut(n).zip(arg.chunks_exact_mut(n));
        for (c, (max, arg)) in cloud_rows.enumerate() {
            let row0 = (t * per_task + c) * points;
            rows.fill(0);
            let sink = &mut Pool {
                max,
                rows: &mut rows,
                row0,
                epilogue,
            };
            run(sink, ops, row0..row0 + points);
            for (at, &r) in arg.iter_mut().zip(&rows) {
                *at = r as usize;
            }
        }
    });
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

impl<'a> Operands<'a> {
    /// An `m`-row product with `A`'s `(row, column)` strides given.
    fn new(
        a: &'a [f32],
        a_strides: (usize, usize),
        b: &'a [f32],
        k: usize,
        n: usize,
        m: usize,
    ) -> Self {
        assert_eq!(a.len(), m * k, "A does not hold m·k elements");
        assert_eq!(b.len(), k * n, "B does not hold k·n elements");
        let (a_row, a_col) = a_strides;
        Self {
            a,
            a_row,
            a_col,
            b,
            k,
            n,
        }
    }
}

/// `out[i][j] = Σ_p A(i,p)·B(p,j)`, each row finished by `finish`. Row
/// blocks are independent, so above [`PAR_THRESHOLD`] they are handed to
/// rayon [`PAR_ROWS`] at a time.
fn gemm(
    out: &mut [f32],
    a: &[f32],
    a_strides: (usize, usize),
    b: &[f32],
    k: usize,
    n: usize,
    finish: impl Finish,
) {
    if out.is_empty() {
        return;
    }
    let m = out.len() / n;
    assert_eq!(out.len(), m * n, "output is not a whole number of rows");
    let ops = Operands::new(a, a_strides, b, k, n, m);
    let rows = if out.len() * k >= PAR_THRESHOLD {
        PAR_ROWS
    } else {
        m
    };
    out.par_chunks_mut(rows * n).enumerate().for_each(|(t, c)| {
        let row0 = t * rows;
        let end = row0 + c.len() / n;
        run(&mut Store { c, row0, n, finish }, ops, row0..end);
    });
}

/// Where the finished tiles of a run of rows go.
trait Sink {
    /// Take the `R`×`C` tile of rows `i..i+R`, columns `j..j+C`.
    fn take<const R: usize, const C: usize>(&mut self, acc: &mut [[f32; C]; R], i: usize, j: usize);
}

/// Stores rows `row0..` into `c:[·, n]`, each finished by `finish`.
struct Store<'c, F> {
    c: &'c mut [f32],
    row0: usize,
    n: usize,
    finish: F,
}

impl<F: Finish> Sink for Store<'_, F> {
    #[inline(always)]
    fn take<const R: usize, const C: usize>(
        &mut self,
        acc: &mut [[f32; C]; R],
        i: usize,
        j: usize,
    ) {
        for (r, acc_r) in acc.iter_mut().enumerate() {
            self.finish.row(acc_r, j);
            self.c[(i - self.row0 + r) * self.n + j..][..C].copy_from_slice(acc_r);
        }
    }
}

/// Folds the rows `row0..` of one cloud into its running maxima
/// `max:[n]` and their row indices `rows:[n]` (32 bits, so the two
/// selects of a column share a lane width), through the epilogue.
struct Pool<'c, 'e> {
    max: &'c mut [f32],
    rows: &'c mut [u32],
    row0: usize,
    epilogue: Epilogue<'e>,
}

impl Sink for Pool<'_, '_> {
    #[inline(always)]
    fn take<const R: usize, const C: usize>(
        &mut self,
        acc: &mut [[f32; C]; R],
        i: usize,
        j: usize,
    ) {
        let max: &mut [f32; C] = (&mut self.max[j..j + C]).try_into().expect("C maxima");
        let rows: &mut [u32; C] = (&mut self.rows[j..j + C]).try_into().expect("C rows");
        for acc_r in acc.iter_mut() {
            self.epilogue.row(acc_r, j);
        }
        // Folded in registers and written back once: a select between two
        // values vectorises, where a select between a value and memory
        // becomes a branch around a store.
        let (mut m, mut at) = (*max, *rows);
        for (r, acc_r) in acc.iter().enumerate() {
            let point = (i - self.row0 + r) as u32;
            for c in 0..C {
                let wins = acc_r[c] > m[c];
                m[c] = if wins { acc_r[c] } else { m[c] };
                at[c] = if wins { point } else { at[c] };
            }
        }
        (*max, *rows) = (m, at);
    }
}

/// Rows `rows` of the product into `sink`, on the widest instance this
/// CPU runs.
fn run<S: Sink>(sink: &mut S, ops: Operands, rows: Range<usize>) {
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx2") {
        // SAFETY: the CPU has AVX2.
        return unsafe { rows_avx2(sink, ops, rows) };
    }
    row_blocks::<NR, S>(sink, ops, rows);
}

/// [`row_blocks`] with `2·NR`-wide tiles, compiled for AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn rows_avx2<S: Sink>(sink: &mut S, ops: Operands, rows: Range<usize>) {
    row_blocks::<{ 2 * NR }, S>(sink, ops, rows)
}

/// Rows `rows` in `MR`-row blocks, then one by one.
#[inline(always)]
fn row_blocks<const W: usize, S: Sink>(sink: &mut S, ops: Operands, rows: Range<usize>) {
    let mut i = rows.start;
    while i + MR <= rows.end {
        row_block::<MR, W, S>(sink, ops, i);
        i += MR;
    }
    for i in i..rows.end {
        row_block::<1, W, S>(sink, ops, i);
    }
}

/// Rows `i..i+R`: `W`-wide tiles, one `NR`-wide tile if that many columns
/// remain, then the rest one by one.
#[inline(always)]
fn row_block<const R: usize, const W: usize, S: Sink>(sink: &mut S, ops: Operands, i: usize) {
    let mut j = 0;
    while j + W <= ops.n {
        sink.take(&mut tile::<R, W>(ops, i, j), i, j);
        j += W;
    }
    if W > NR && j + NR <= ops.n {
        sink.take(&mut tile::<R, NR>(ops, i, j), i, j);
        j += NR;
    }
    for j in j..ops.n {
        sink.take(&mut tile::<R, 1>(ops, i, j), i, j);
    }
}

/// The one kernel body: an `R`×`C` tile of accumulators held in registers
/// across the whole `p` loop, handed to the sink once. Remainder rows and
/// columns use the same recurrence with `R = 1` / `C = 1`.
#[inline(always)]
fn tile<const R: usize, const C: usize>(ops: Operands, i: usize, j: usize) -> [[f32; C]; R] {
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
    acc
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

    /// One instance of the row loop, run on the calling thread.
    #[derive(Clone, Copy)]
    enum Instance {
        Sse2,
        #[cfg(target_arch = "x86_64")]
        Avx2,
    }

    impl Instance {
        fn run<S: Sink>(self, sink: &mut S, ops: Operands, rows: Range<usize>) {
            match self {
                Instance::Sse2 => row_blocks::<NR, S>(sink, ops, rows),
                // SAFETY: `instances` lists AVX2 only on a CPU that has it.
                #[cfg(target_arch = "x86_64")]
                Instance::Avx2 => unsafe { rows_avx2(sink, ops, rows) },
            }
        }

        /// All of `out:[m,n]` through a [`Store`].
        fn store(self, out: &mut [f32], ops: Operands, finish: impl Finish) {
            let rows = 0..out.len() / ops.n;
            let n = ops.n;
            self.run(
                &mut Store {
                    c: out,
                    row0: 0,
                    n,
                    finish,
                },
                ops,
                rows,
            );
        }

        /// [`matmul_max_pool_into`] with every cloud on this instance, in
        /// cloud order.
        fn pool(self, ops: Operands, points: usize, epilogue: Epilogue) -> (Vec<f32>, Vec<usize>) {
            let clouds = ops.a.len() / ops.k / points;
            let mut max = vec![f32::NEG_INFINITY; clouds * ops.n];
            let mut rows = vec![0; clouds * ops.n];
            let cloud_rows = max
                .chunks_exact_mut(ops.n)
                .zip(rows.chunks_exact_mut(ops.n));
            for (c, (max, rows)) in cloud_rows.enumerate() {
                let row0 = c * points;
                let sink = &mut Pool {
                    max,
                    rows,
                    row0,
                    epilogue,
                };
                self.run(sink, ops, row0..row0 + points);
            }
            (max, rows.into_iter().map(|r| r as usize).collect())
        }
    }

    /// Each instance of the row loop this CPU can run.
    fn instances() -> Vec<(&'static str, Instance)> {
        let mut all = vec![("sse2", Instance::Sse2)];
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx2") {
            all.push(("avx2", Instance::Avx2));
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
            for (name, instance) in instances() {
                for (a, strides) in [(a.data(), (k, 1)), (at.data(), (1, m))] {
                    let mut c = vec![f32::NAN; m * n];
                    instance.store(&mut c, Operands::new(a, strides, b.data(), k, n, m), ());
                    assert_eq!(bits(&c), want, "{name} {m}x{k}x{n}, A strides {strides:?}");
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

    /// The epilogue as separate passes over a stored product: `+ bias[j]`
    /// on every row, then LeakyReLU's scalar definition.
    fn product_bias_select(a: &[f32], b: &[f32], k: usize, n: usize, e: Epilogue) -> Vec<f32> {
        let mut c = vec![f32::NAN; a.len() / k * n];
        matmul_into(&mut c, a, b, k, n);
        for row in c.chunks_exact_mut(n) {
            for (v, &bias) in row.iter_mut().zip(e.bias) {
                *v += bias;
            }
            if let Some(slope) = e.leaky {
                for v in row.iter_mut() {
                    *v = if *v > 0.0 { *v } else { slope * *v };
                }
            }
        }
        c
    }

    /// The max-pool of a stored `[clouds·points, n]` output: per cloud and
    /// column, the first row whose value exceeds everything before it.
    fn max_pool(c: &[f32], points: usize, n: usize) -> (Vec<f32>, Vec<usize>) {
        let clouds = c.len() / (points * n);
        let mut max = vec![f32::NEG_INFINITY; clouds * n];
        let mut arg = vec![0; clouds * n];
        for (ci, cloud) in c.chunks_exact(points * n).enumerate() {
            for (pi, row) in cloud.chunks_exact(n).enumerate() {
                for (j, &v) in row.iter().enumerate() {
                    if v > max[ci * n + j] {
                        max[ci * n + j] = v;
                        arg[ci * n + j] = pi;
                    }
                }
            }
        }
        (max, arg)
    }

    /// The epilogue form, bit for bit, against the product stored and
    /// then biased and activated — on each instance and through the
    /// public entry, around the 8- and 16-wide tiles, with a row count
    /// that is not a multiple of `MR`, for LeakyReLU slopes and the bias
    /// alone.
    #[test]
    fn epilogue_form_equals_product_bias_select_bitwise() {
        let mut rng = TensorRng::seeded(43);
        let m = 2 * MR + 3;
        for (n, k) in [1, 6, 7, 8, 9, 15, 16, 17, 24, 40]
            .into_iter()
            .flat_map(|n| [1, 6, 32].map(|k| (n, k)))
        {
            let a = rng.standard_normal([m, k]);
            let b = rng.standard_normal([k, n]);
            let bias = rng.standard_normal([n]);
            for leaky in [Some(0.01), Some(0.0), None] {
                let e = Epilogue {
                    bias: bias.data(),
                    leaky,
                };
                let want = bits(&product_bias_select(a.data(), b.data(), k, n, e));
                let mut c = vec![f32::NAN; m * n];
                matmul_epilogue_into(&mut c, a.data(), b.data(), k, n, e);
                assert_eq!(bits(&c), want, "live {m}x{k}x{n} {leaky:?}");
                for (name, instance) in instances() {
                    let mut c = vec![f32::NAN; m * n];
                    let ops = Operands::new(a.data(), (k, 1), b.data(), k, n, m);
                    instance.store(&mut c, ops, e);
                    assert_eq!(bits(&c), want, "{name} {m}x{k}x{n} {leaky:?}");
                }
            }
        }
    }

    /// `clouds` clouds of `points` rows of width `k` that exercise the
    /// pooling rules: in cloud 1 every row repeats the cloud's first (every
    /// column ties at every row); elsewhere some rows repeat the row
    /// before, some are NaN, and some are −∞ once multiplied by a `B`
    /// whose first row is positive.
    fn pool_input(rng: &mut TensorRng, clouds: usize, points: usize, k: usize) -> Vec<f32> {
        let mut a = rng.standard_normal([clouds * points, k]).data().to_vec();
        for r in 1..clouds * points {
            let (before, row) = a.split_at_mut(r * k);
            let (row, prev) = (&mut row[..k], &before[(r - 1) * k..]);
            match r % 7 {
                _ if r / points == 1 => row.copy_from_slice(prev),
                3 => row.copy_from_slice(prev),
                5 => row.fill(f32::NAN),
                6 => {
                    row.fill(0.0);
                    row[0] = f32::NEG_INFINITY;
                }
                _ => {}
            }
        }
        a
    }

    /// The pooling form, bit for bit in maxima and arg-max rows, against
    /// the max-pool of the stored product — on each instance and through
    /// the public entry, one-row to 256-row clouds, with ties, NaN and −∞
    /// rows and a column that is NaN throughout.
    #[test]
    fn pool_form_equals_max_pool_of_the_product_bitwise() {
        let mut rng = TensorRng::seeded(44);
        let clouds = 3;
        for (points, n, k) in [1, 3, 5, 256]
            .into_iter()
            .flat_map(|p| [1, 9, 17, 40].map(move |n| (p, n)))
            .flat_map(|(p, n)| [1, 6, 32].map(move |k| (p, n, k)))
        {
            let a = pool_input(&mut rng, clouds, points, k);
            let mut b = rng.standard_normal([k, n]);
            b.data_mut()[..n].iter_mut().for_each(|v| *v = v.abs());
            b.data_mut()[n - 1] = f32::NAN;
            let bias = rng.standard_normal([n]);
            for leaky in [Some(0.01), None] {
                let e = Epilogue {
                    bias: bias.data(),
                    leaky,
                };
                let dense = product_bias_select(&a, b.data(), k, n, e);
                let (want_max, want_arg) = max_pool(&dense, points, n);
                let all_nan = (0..clouds).map(|c| want_max[c * n + n - 1]);
                assert!(all_nan.into_iter().all(|v| v == f32::NEG_INFINITY));
                let case = format!("{clouds}x{points} points, k {k}, n {n}, {leaky:?}");
                let mut max = vec![f32::NAN; clouds * n];
                let mut arg = vec![usize::MAX; clouds * n];
                matmul_max_pool_into(&mut max, &mut arg, &a, b.data(), k, n, e);
                assert_eq!(bits(&max), bits(&want_max), "live maxima, {case}");
                assert_eq!(arg, want_arg, "live arg-max rows, {case}");
                for (name, instance) in instances() {
                    let ops = Operands::new(&a, (k, 1), b.data(), k, n, clouds * points);
                    let (max, arg) = instance.pool(ops, points, e);
                    assert_eq!(bits(&max), bits(&want_max), "{name} maxima, {case}");
                    assert_eq!(arg, want_arg, "{name} arg-max rows, {case}");
                }
            }
        }
    }

    /// Above the threshold whole clouds go to rayon tasks, several to a
    /// task and the last task short (run with more than one rayon thread
    /// for them to land on different threads); the result equals every
    /// cloud pooled in order on the calling thread.
    #[test]
    fn parallel_pool_split_equals_serial() {
        let mut rng = TensorRng::seeded(45);
        let (clouds, points, k, n) = (61, 20, 32, 64);
        assert!(clouds * points * k * n >= PAR_THRESHOLD);
        let per_task = PAR_ROWS.div_ceil(points);
        assert!(per_task > 1 && clouds % per_task != 0);
        let a = pool_input(&mut rng, clouds, points, k);
        let b = rng.standard_normal([k, n]);
        let bias = rng.standard_normal([n]);
        let e = Epilogue {
            bias: bias.data(),
            leaky: Some(0.01),
        };
        let mut max = vec![f32::NAN; clouds * n];
        let mut arg = vec![usize::MAX; clouds * n];
        matmul_max_pool_into(&mut max, &mut arg, &a, b.data(), k, n, e);
        for (name, instance) in instances() {
            let ops = Operands::new(&a, (k, 1), b.data(), k, n, clouds * points);
            let (serial_max, serial_arg) = instance.pool(ops, points, e);
            assert_eq!(bits(&max), bits(&serial_max), "{name} maxima");
            assert_eq!(arg, serial_arg, "{name} arg-max rows");
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
