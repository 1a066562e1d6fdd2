//! Shape bookkeeping for row-major tensors.

use std::fmt;

/// Highest tensor rank the model needs (`[batch, points, channels]` plus one).
const MAX_RANK: usize = 4;

/// Row-major tensor shape, stored inline so building, cloning and
/// comparing a tensor's shape never touches the heap. Unused trailing
/// slots stay zero, which keeps the derived `Eq`/`Hash` exact.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Shape {
    dims: [usize; MAX_RANK],
    rank: usize,
}

impl Shape {
    /// Construct from dimension sizes.
    ///
    /// # Panics
    /// Panics if more than four dimensions are given.
    pub fn new(dims: &[usize]) -> Self {
        assert!(dims.len() <= MAX_RANK, "rank {} > {MAX_RANK}", dims.len());
        let mut s = Self {
            dims: [0; MAX_RANK],
            rank: dims.len(),
        };
        s.dims[..dims.len()].copy_from_slice(dims);
        s
    }

    /// Dimension sizes.
    pub fn dims(&self) -> &[usize] {
        &self.dims[..self.rank]
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Total element count (1 for a scalar/empty shape).
    pub fn numel(&self) -> usize {
        self.dims().iter().product()
    }

    /// Size of dimension `d`.
    pub fn dim(&self, d: usize) -> usize {
        self.dims()[d]
    }

    /// The same shape with its last dimension replaced by `d` (what a
    /// map over the trailing feature axis produces).
    ///
    /// # Panics
    /// Panics on a rank-0 shape.
    pub fn with_last_dim(mut self, d: usize) -> Self {
        self.dims[self.rank - 1] = d;
        self
    }

    /// Linear offset of the multi-index `idx`.
    ///
    /// # Panics
    /// Panics (debug) if `idx` is out of bounds or has the wrong rank.
    pub fn offset(&self, idx: &[usize]) -> usize {
        debug_assert_eq!(idx.len(), self.rank, "index rank mismatch");
        idx.iter().zip(self.dims()).fold(0, |off, (&i, &d)| {
            debug_assert!(i < d, "index {i} out of bounds for dim of size {d}");
            off * d + i
        })
    }
}

impl fmt::Debug for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.dims())
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.dims())
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape::new(dims)
    }
}

impl<const N: usize> From<[usize; N]> for Shape {
    fn from(dims: [usize; N]) -> Self {
        Shape::new(&dims)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numel_and_rank() {
        let s = Shape::new(&[2, 3, 4]);
        assert_eq!(s.numel(), 24);
        assert_eq!(s.rank(), 3);
        assert_eq!(s.dim(1), 3);
    }

    #[test]
    fn offset_matches_manual_row_major() {
        let s = Shape::new(&[2, 3, 4]);
        assert_eq!(s.offset(&[0, 0, 0]), 0);
        assert_eq!(s.offset(&[1, 2, 3]), 12 + 8 + 3);
    }

    #[test]
    fn scalar_shape() {
        let s = Shape::new(&[]);
        assert_eq!(s.numel(), 1);
        assert_eq!(s.rank(), 0);
    }

    #[test]
    fn display_matches_debug() {
        let s = Shape::new(&[5, 7]);
        assert_eq!(format!("{s}"), format!("{s:?}"));
    }
}
