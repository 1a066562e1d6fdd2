//! Contiguous row-major `f32` tensor and its kernels.

use crate::shape::Shape;
use crate::workspace::Workspace;

/// A dense, row-major, contiguous `f32` tensor.
#[derive(Clone, PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl std::fmt::Debug for Tensor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Tensor{} ", self.shape)?;
        if self.data.len() <= 8 {
            write!(f, "{:?}", self.data)
        } else {
            write!(
                f,
                "[{}, {}, …; n={}]",
                self.data[0],
                self.data[1],
                self.data.len()
            )
        }
    }
}

impl Tensor {
    /// Zero-filled tensor of the given shape.
    pub fn zeros(shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        let n = shape.numel();
        Self {
            shape,
            data: vec![0.0; n],
        }
    }

    /// Constant-filled tensor.
    pub fn full(shape: impl Into<Shape>, value: f32) -> Self {
        let shape = shape.into();
        let n = shape.numel();
        Self {
            shape,
            data: vec![value; n],
        }
    }

    /// Tensor from existing data.
    ///
    /// # Panics
    /// Panics if `data.len()` does not match the shape's element count.
    pub fn from_vec(shape: impl Into<Shape>, data: Vec<f32>) -> Self {
        let shape = shape.into();
        assert_eq!(
            shape.numel(),
            data.len(),
            "data length {} does not fit shape {shape}",
            data.len()
        );
        Self { shape, data }
    }

    /// 1-D tensor from a slice.
    pub fn from_slice(data: &[f32]) -> Self {
        Self::from_vec([data.len()], data.to_vec())
    }

    /// Shape accessor.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Dimension sizes.
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Element count.
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Immutable flat data view.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat data view.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consume into the flat data vector.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element at multi-index.
    pub fn at(&self, idx: &[usize]) -> f32 {
        self.data[self.shape.offset(idx)]
    }

    /// Mutable element at multi-index.
    pub fn at_mut(&mut self, idx: &[usize]) -> &mut f32 {
        let o = self.shape.offset(idx);
        &mut self.data[o]
    }

    /// Reinterpret with a new shape of identical element count.
    pub fn reshape(mut self, shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        assert_eq!(
            shape.numel(),
            self.data.len(),
            "reshape must preserve numel"
        );
        self.shape = shape;
        self
    }

    // ---- elementwise ----

    /// Apply `f` to every element, in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Apply `f` to every element, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Self {
        let mut out = self.clone();
        out.map_inplace(f);
        out
    }

    fn zip_inplace(&mut self, rhs: &Tensor, f: impl Fn(f32, f32) -> f32) {
        assert_eq!(self.shape, rhs.shape, "elementwise shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&rhs.data) {
            *a = f(*a, b);
        }
    }

    /// `self += rhs` elementwise.
    pub fn add_assign(&mut self, rhs: &Tensor) {
        self.zip_inplace(rhs, |a, b| a + b);
    }

    /// `self -= rhs` elementwise.
    pub(crate) fn sub_assign(&mut self, rhs: &Tensor) {
        self.zip_inplace(rhs, |a, b| a - b);
    }

    /// Elementwise sum.
    pub fn add(&self, rhs: &Tensor) -> Self {
        let mut out = self.clone();
        out.add_assign(rhs);
        out
    }

    /// Elementwise difference.
    pub fn sub(&self, rhs: &Tensor) -> Self {
        let mut out = self.clone();
        out.sub_assign(rhs);
        out
    }

    /// Scale by a scalar.
    pub fn scale(&self, s: f32) -> Self {
        self.map(|v| v * s)
    }

    /// `self += alpha * rhs` (axpy).
    pub fn axpy(&mut self, alpha: f32, rhs: &Tensor) {
        self.zip_inplace(rhs, |a, b| a + alpha * b);
    }

    // ---- reductions ----

    /// Maximum element (NaN-propagating; `-inf` for empty tensors).
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Squared L2 norm.
    pub fn sq_norm(&self) -> f64 {
        self.data.iter().map(|&v| (v as f64) * (v as f64)).sum()
    }

    /// Row-wise softmax over the last dimension of a 2-D tensor.
    pub fn softmax_rows(&self) -> Self {
        assert_eq!(self.shape.rank(), 2, "softmax_rows expects a matrix");
        let (r, c) = (self.shape.dim(0), self.shape.dim(1));
        let mut out = self.clone();
        for row in out.data.chunks_exact_mut(c) {
            let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut z = 0.0f32;
            for v in row.iter_mut() {
                *v = (*v - m).exp();
                z += *v;
            }
            for v in row.iter_mut() {
                *v /= z;
            }
        }
        debug_assert_eq!(out.numel(), r * c);
        out
    }

    // ---- structure ----

    /// Transpose a 2-D tensor.
    pub fn transpose2(&self) -> Self {
        assert_eq!(self.shape.rank(), 2, "transpose2 expects a matrix");
        let mut out = Tensor::zeros([self.shape.dim(1), self.shape.dim(0)]);
        self.transpose_into(&mut out);
        out
    }

    /// Write the transpose of this `[r, c]` matrix into `out:[c, r]`,
    /// overwriting every element.
    pub fn transpose_into(&self, out: &mut Tensor) {
        let (r, c) = (self.shape.dim(0), self.shape.dim(1));
        assert_eq!(out.dims(), &[c, r], "transpose target shape");
        for (i, row) in self.data.chunks_exact(c).enumerate() {
            for (j, &v) in row.iter().enumerate() {
                out.data[j * r + i] = v;
            }
        }
    }

    /// `[lo | hi]`: two matrices of equal row count side by side, the
    /// inverse of [`Tensor::split_cols`]. The result is taken from `ws`.
    pub fn concat_cols(lo: &Tensor, hi: &Tensor, ws: &mut Workspace) -> Self {
        let (rows, c1, c2) = (lo.shape.dim(0), lo.shape.dim(1), hi.shape.dim(1));
        assert_eq!(lo.dims(), &[rows, c1], "concat_cols expects matrices");
        assert_eq!(hi.dims(), &[rows, c2], "row count mismatch in concat");
        let mut out = ws.take([rows, c1 + c2]);
        let halves = lo.data.chunks_exact(c1).zip(hi.data.chunks_exact(c2));
        for (row, (l, h)) in out.data.chunks_exact_mut(c1 + c2).zip(halves) {
            row[..c1].copy_from_slice(l);
            row[c1..].copy_from_slice(h);
        }
        out
    }

    /// Split a matrix `[r, c]` into its column blocks `[r, at]` and
    /// `[r, c − at]` (both non-empty), taken from `ws`.
    pub fn split_cols(&self, at: usize, ws: &mut Workspace) -> (Tensor, Tensor) {
        assert_eq!(self.shape.rank(), 2, "split_cols expects a matrix");
        let (rows, cols) = (self.shape.dim(0), self.shape.dim(1));
        assert!(0 < at && at < cols, "split point {at} outside 1..{cols}");
        let (mut lo, mut hi) = (ws.take([rows, at]), ws.take([rows, cols - at]));
        let halves = lo.data.chunks_exact_mut(at);
        let halves = halves.zip(hi.data.chunks_exact_mut(cols - at));
        for (row, (l, h)) in self.data.chunks_exact(cols).zip(halves) {
            l.copy_from_slice(&row[..at]);
            h.copy_from_slice(&row[at..]);
        }
        (lo, hi)
    }

    /// Select rows of a 2-D tensor by index.
    pub fn select_rows(&self, idx: &[usize]) -> Self {
        assert_eq!(self.shape.rank(), 2, "select_rows expects a matrix");
        let c = self.shape.dim(1);
        let mut out = Tensor::zeros([idx.len(), c]);
        for (k, &i) in idx.iter().enumerate() {
            out.data[k * c..(k + 1) * c].copy_from_slice(&self.data[i * c..(i + 1) * c]);
        }
        out
    }

    /// Slice one batch entry out of a rank-3 tensor: `[B, P, D] → [P, D]`.
    pub fn batch(&self, i: usize) -> Self {
        assert_eq!(self.shape.rank(), 3, "batch() expects [B, P, D]");
        let (b, p, d) = (self.shape.dim(0), self.shape.dim(1), self.shape.dim(2));
        assert!(i < b, "batch index {i} out of range {b}");
        Tensor::from_vec([p, d], self.data[i * p * d..(i + 1) * p * d].to_vec())
    }

    /// Check all elements are finite — cheap NaN/Inf guard for tests and
    /// training-loop assertions.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let t = Tensor::from_vec([2, 3], vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(t.at(&[0, 2]), 3.0);
        assert_eq!(t.at(&[1, 0]), 4.0);
        assert_eq!(t.numel(), 6);
    }

    #[test]
    #[should_panic(expected = "does not fit shape")]
    fn from_vec_rejects_bad_length() {
        let _ = Tensor::from_vec([2, 2], vec![1.0]);
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_slice(&[1., 2., 3.]);
        let b = Tensor::from_slice(&[4., 5., 6.]);
        assert_eq!(a.add(&b).data(), &[5., 7., 9.]);
        assert_eq!(b.sub(&a).data(), &[3., 3., 3.]);
        assert_eq!(a.scale(2.0).data(), &[2., 4., 6.]);
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Tensor::from_slice(&[1., 1.]);
        let g = Tensor::from_slice(&[2., 4.]);
        a.axpy(0.5, &g);
        assert_eq!(a.data(), &[2., 3.]);
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_slice(&[1., 2., 3., 4.]);
        assert_eq!(t.max(), 4.0);
        assert_eq!(t.sq_norm(), 30.0);
    }

    #[test]
    fn transpose_round_trip() {
        let t = Tensor::from_vec([2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let tt = t.transpose2();
        assert_eq!(tt.dims(), &[3, 2]);
        assert_eq!(tt.at(&[2, 1]), 6.0);
        assert_eq!(tt.transpose2(), t);
    }

    #[test]
    fn concat_then_split_round_trips() {
        let a = Tensor::from_vec([2, 2], vec![1., 2., 3., 4.]);
        let b = Tensor::from_vec([2, 1], vec![9., 8.]);
        let ws = &mut Workspace::default();
        let cat = Tensor::concat_cols(&a, &b, ws);
        assert_eq!(cat.dims(), &[2, 3]);
        assert_eq!(cat.data(), &[1., 2., 9., 3., 4., 8.]);
        assert_eq!(cat.split_cols(2, ws), (a, b));
    }

    #[test]
    fn softmax_rows_sums_to_one_and_is_shift_invariant() {
        let t = Tensor::from_vec([2, 3], vec![1., 2., 3., 1000., 1001., 1002.]);
        let s = t.softmax_rows();
        for i in 0..2 {
            let row: f32 = (0..3).map(|j| s.at(&[i, j])).sum();
            assert!((row - 1.0).abs() < 1e-6);
        }
        // Shifted rows give the same softmax.
        for j in 0..3 {
            assert!((s.at(&[0, j]) - s.at(&[1, j])).abs() < 1e-6);
        }
    }

    #[test]
    fn select_rows_picks_in_order() {
        let t = Tensor::from_vec([3, 2], vec![0., 1., 10., 11., 20., 21.]);
        let sel = t.select_rows(&[2, 0]);
        assert_eq!(sel.data(), &[20., 21., 0., 1.]);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_slice(&[1., 2., 3., 4.]).reshape([2, 2]);
        assert_eq!(t.at(&[1, 1]), 4.0);
    }

    #[test]
    fn finite_guard_detects_nan() {
        let mut t = Tensor::zeros([3]);
        assert!(t.all_finite());
        t.data_mut()[1] = f32::NAN;
        assert!(!t.all_finite());
    }
}
