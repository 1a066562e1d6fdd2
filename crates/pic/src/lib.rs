//! 3D3V relativistic electromagnetic particle-in-cell simulation.
//!
//! This is the producer side of the paper's workflow: a from-scratch
//! implementation of the numerical stack PIConGPU uses —
//!
//! - **Yee-staggered FDTD** Maxwell solver ([`maxwell`]),
//! - **relativistic Boris pusher** ([`pusher`]),
//! - **charge-conserving current deposition**, "Esirkepov meets ZigZag"
//!   ([`deposit`]),
//! - **CIC field gather** respecting the Yee staggering ([`gather`]),
//! - SoA particle storage with supercell sorting for locality
//!   ([`particles`]), mirroring PIConGPU's supercell data layout,
//! - slab **domain decomposition** with halo exchange and particle
//!   migration over the `as-cluster` communicator ([`domain`]),
//! - the **Kelvin-Helmholtz instability** setup of §IV-A ([`khi`]) and the
//!   TWEAC-like high-particle-count benchmark case of Fig. 4 ([`tweac`]).
//!
//! Units are the standard normalised PIC units: lengths in c/ω_pe, times in
//! 1/ω_pe, momenta in mₑc, fields in mₑcω_pe/e, densities in n₀
//! ([`units`] converts the paper's SI setup). In these units a uniform
//! plasma of density 1 oscillates at ω = 1 — asserted in the tests.
//!
//! # Threading and tiling model
//!
//! The particle hot loop is a **fused, supercell-tiled, data-parallel
//! pipeline** ([`tile`]) inside the one step body ([`sim`]) that a whole
//! periodic box and a slab of a decomposed one ([`domain`]) both run:
//!
//! 1. Every step, each species is counting-sorted by supercell (O(N),
//!    reusable scratch inside [`particles::ParticleBuffer`]); the sort's
//!    offset table partitions the SoA buffer into contiguous per-tile
//!    ranges.
//! 2. Rayon workers claim whole tiles (dynamic scheduling). Per tile they
//!    stage a [`tile::FieldPatch`] view of E/B (tile + 1-cell gather
//!    halo), then run gather → Boris push → move → zigzag deposit
//!    [`tile::LANES`] particles at a time ([`lanes::Lanes`] arithmetic,
//!    bit-identical to one particle at a time), depositing into a
//!    [`tile::TileAccumulator`] (tile + 2-cell deposit halo). Tiles own
//!    disjoint particle ranges and accumulators, so the pass needs no
//!    locks or atomics.
//! 3. Accumulators reduce into the global `J` in **tile-index order**,
//!    independent of worker count or schedule: steps are bit-reproducible
//!    for a given particle order, and the fused path matches the serial
//!    reference ([`sim::Simulation::step_reference`]) to ≤ 1e-12
//!    (asserted in the tests).
//!
//! All scratch (sort buffers, tile accumulators, field patches) is pooled
//! and reused: steady-state stepping performs no per-step heap
//! allocation (asserted by the `alloc_free_step` integration test). The
//! worker count follows `RAYON_NUM_THREADS` / available parallelism;
//! reductions combine partials in a fixed order, so results are
//! deterministic per configuration. The `pic_step_pipeline` rows of
//! `cargo bench -p as-bench --bench kernels` time the fused pipeline
//! against the seed baseline.

pub mod deposit;
pub mod diag;
pub mod domain;
pub mod field;
pub mod fom;
pub mod gather;
pub mod grid;
pub mod khi;
pub mod lanes;
pub mod maxwell;
pub mod particles;
pub mod plugin;
pub mod pusher;
pub mod sim;
pub mod tile;
pub mod tweac;
pub mod units;

pub use field::{ScalarField3, VecField3};
pub use grid::GridSpec;
pub use particles::ParticleBuffer;
pub use plugin::Plugin;
pub use sim::{Simulation, SimulationBuilder};

pub mod prelude {
    //! Common imports for simulation consumers.
    pub use crate::diag::{FieldEnergy, FlowRegion};
    pub use crate::domain::DistributedSim;
    pub use crate::fom::FomCounter;
    pub use crate::grid::GridSpec;
    pub use crate::khi::KhiSetup;
    pub use crate::plugin::Plugin;
    pub use crate::sim::{Simulation, SimulationBuilder};
    pub use crate::tweac::TweacSetup;
    pub use crate::units::UnitSystem;
}
