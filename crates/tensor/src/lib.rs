//! Minimal N-dimensional `f32` tensor for the MLapp.
//!
//! The paper's ML application is built on PyTorch; no comparable Rust stack
//! exists offline, so this crate provides the small tensor core the model in
//! `as-nn` needs: contiguous row-major storage, shape/stride bookkeeping,
//! elementwise and reduction kernels, a register-tiled matmul with a fixed
//! summation order (see [`mod@matmul`]), and a [`Workspace`] buffer pool.
//!
//! Design choices:
//! - **Plain data, no autograd tape.** Gradients are computed layer-by-layer
//!   in `as-nn` with exact manual backward passes; that keeps tensors `Send`
//!   and makes DDP-over-threads trivial, at the cost of generality we do not
//!   need for a fixed architecture.
//! - **`f32` throughout** — matching the training precision used on MI250X.
//! - **Deterministic kernels** (reductions are sequential per output
//!   element) so single-threaded runs are bit-reproducible.

pub mod matmul;
pub mod rng;
pub mod shape;
pub mod stats;
pub mod tensor;
pub mod workspace;

pub use matmul::{matmul, matmul_a_bt, matmul_at_b, matmul_at_b_into, matmul_into};
pub use rng::TensorRng;
pub use shape::Shape;
pub use tensor::Tensor;
pub use workspace::Workspace;

pub mod prelude {
    //! Common imports for tensor consumers.
    pub use crate::matmul::{matmul, matmul_a_bt, matmul_at_b};
    pub use crate::rng::TensorRng;
    pub use crate::shape::Shape;
    pub use crate::tensor::Tensor;
}
