//! openPMD-like data-standard layer.
//!
//! The paper's I/O stack (its Fig. 5) is `PIConGPU → openPMD-api → ADIOS2
//! SST → network → ADIOS2 SST → openPMD-api → MLapp`. openPMD itself is a
//! *naming and metadata standard* for particle-mesh data (F.A.I.R.
//! scientific I/O): iterations hold meshes (field records) and particle
//! species (position/momentum/weighting records), each carrying SI
//! conversion factors and dimensional metadata.
//!
//! This crate reproduces that layering over `as-staging`:
//! - [`writer::OpenPmdWriter`] / [`reader::OpenPmdReader`] — the streaming
//!   backend (one SST step per iteration, names like
//!   `meshes/E/x`, `particles/e/momentum/x`);
//! - [`attribute`] — typed attributes with the openPMD `unitDimension`
//!   seven-vector and `unitSI` factors.

#![forbid(unsafe_code)]

pub mod attribute;
pub mod reader;
pub mod writer;
