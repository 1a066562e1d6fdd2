//! Dynamic concurrency analysis for the shimmed primitives, and the one
//! shared-state annotation every workspace crate uses.
//!
//! With the `detect` cargo feature on, this crate is the checker: the
//! `parking_lot`/`crossbeam` shims call its hooks (lock-order cycle
//! detection, vector-clock happens-before + lockset race checking) and
//! every [`Cell`] annotation feeds the race checker. With the feature off,
//! all that is left is a zero-sized [`Cell`] whose methods have empty
//! `#[inline(always)]` bodies and the [`track_cell!`] macro, so annotated
//! hot paths compile to exactly the uninstrumented code: no registry, no
//! global state.
//!
//! Workspace crates depend on this crate unconditionally and forward
//! their own `detect` feature to `as-detect/detect`.

#![forbid(unsafe_code)]

#[cfg(feature = "detect")]
mod checker;
#[cfg(feature = "detect")]
pub use checker::*;

/// Annotate a shared-state cell: `track_cell!("cluster::Communicator.stash")`.
#[macro_export]
macro_rules! track_cell {
    ($name:expr) => {
        $crate::Cell::new($name)
    };
}

/// No-op stand-in for the checker's `Cell` when `detect` is off.
#[cfg(not(feature = "detect"))]
#[derive(Debug)]
pub struct Cell;

#[cfg(not(feature = "detect"))]
impl Cell {
    /// Register nothing.
    #[inline(always)]
    pub fn new(_name: &str) -> Self {
        Cell
    }

    /// Record nothing.
    #[inline(always)]
    pub fn read(&self) {}

    /// Record nothing.
    #[inline(always)]
    pub fn write(&self) {}

    /// Record nothing.
    #[inline(always)]
    pub fn atomic(&self) {}
}
