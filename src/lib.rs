//! # The Artificial Scientist
//!
//! A Rust reproduction of *"The Artificial Scientist: in-Transit Machine
//! Learning of Plasma Simulations"* (arXiv:2501.03383): a loosely-coupled
//! workflow in which a particle-in-cell plasma simulation streams particle
//! phase-space data and in-situ radiation spectra to a machine-learning
//! application that continually trains a VAE+INN model in-transit.
//!
//! This umbrella crate re-exports every subsystem crate under a short
//! name; their items are imported by their module paths:
//!
//! - [`pic`] — 3D3V relativistic particle-in-cell simulation (the producer)
//! - [`radiation`] — Liénard-Wiechert far-field radiation plugin
//! - [`openpmd`] / [`staging`] — the streaming I/O stack (openPMD over SST)
//! - [`tensor`] / [`nn`] — the MLapp: tensors, VAE+INN, losses, DDP
//! - [`replay`] — experience-replay training buffer for continual learning
//! - [`cluster`] — simulated HPC machine (communicator, network, collectives)
//! - [`core`] — the orchestration tying producer and consumer together
//! - [`serve`] — batched, hot-swappable inference over learner snapshots
//!
//! See `examples/quickstart.rs` for the fastest end-to-end tour.

#![forbid(unsafe_code)]

pub use as_cluster as cluster;
pub use as_core as core;
pub use as_nn as nn;
pub use as_openpmd as openpmd;
pub use as_pic as pic;
pub use as_radiation as radiation;
pub use as_replay as replay;
pub use as_serve as serve;
pub use as_staging as staging;
pub use as_tensor as tensor;
