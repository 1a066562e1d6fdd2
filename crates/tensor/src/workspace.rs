//! Recycling pool of tensor buffers.

use crate::shape::Shape;
use crate::tensor::Tensor;
use std::collections::BTreeMap;

/// Buffers handed back by one pass and reused by the next, keyed by
/// element count, so a loop over fixed shapes stops allocating after its
/// first iteration. It retains what was given back — one iteration's
/// working set per distinct set of shapes — until it is dropped.
///
/// A recycled buffer carries no meaning: [`Workspace::take`] promises
/// nothing about the contents and every taker overwrites all of them, so
/// results never depend on what a buffer held before. Give back only what
/// was taken (or replaces a take); a foreign tensor given every iteration
/// grows the pool without bound.
#[derive(Default)]
pub struct Workspace {
    free: BTreeMap<usize, Vec<Vec<f32>>>,
}

impl Workspace {
    /// Tensor of `shape` with unspecified contents; the caller overwrites
    /// every element.
    pub fn take(&mut self, shape: impl Into<Shape>) -> Tensor {
        let shape = shape.into();
        let n = shape.numel();
        let data = self.free.get_mut(&n).and_then(Vec::pop);
        Tensor::from_vec(shape, data.unwrap_or_else(|| vec![0.0; n]))
    }

    /// Hand a tensor's buffer back for reuse.
    pub fn give(&mut self, t: Tensor) {
        let data = t.into_vec();
        self.free.entry(data.len()).or_default().push(data);
    }

    /// [`Workspace::give`] for several tensors, or for an `Option` of one.
    pub fn give_all(&mut self, tensors: impl IntoIterator<Item = Tensor>) {
        tensors.into_iter().for_each(|t| self.give(t));
    }

    /// Number of idle buffers held.
    pub fn idle(&self) -> usize {
        self.free.values().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffers_are_reused_by_element_count() {
        let mut ws = Workspace::default();
        let t = ws.take([2, 3]);
        let ptr = t.data().as_ptr();
        ws.give_all([t, Tensor::zeros([5])]);
        assert_eq!(ws.idle(), 2);
        let again = ws.take([3, 2]);
        assert_eq!(
            again.data().as_ptr(),
            ptr,
            "same element count, same buffer"
        );
        assert_eq!(again.dims(), &[3, 2]);
        let other = ws.take([6]);
        assert_ne!(other.data().as_ptr(), ptr, "`again` still owns that buffer");
        assert_eq!(ws.idle(), 1);
    }
}
