//! In-situ far-field radiation diagnostics (Liénard-Wiechert).
//!
//! Reimplements PIConGPU's far-field radiation plugin [Pausch et al.]: the
//! spectrally and angularly resolved far-field amplitude
//!
//! ```text
//! A(n̂, ω) = Σ_steps Σ_particles  w ·  n̂×((n̂−β)×β̇) / (1−n̂·β)²
//!                                    · exp(iω(t − n̂·r))) · Δt
//! ```
//!
//! accumulated per time step, with the observed intensity
//! `d²I/dωdΩ ∝ |A|²`. This resolves frequencies far above the grid's
//! Nyquist limit (the reason the paper computes radiation in-situ rather
//! than from stored fields) and captures the relativistic Doppler physics
//! Fig. 9 relies on: emission from plasma approaching the detector is
//! blue-shifted by `1/(1−n̂·β)`, receding emission red-shifted.
//!
//! The plugin ([`plugin::RadiationPlugin`]) hooks into the PIC loop,
//! takes `β̇` from each particle's momenta before and after the push,
//! and keeps one accumulator per *flow region* so the ML pipeline can
//! pair each sub-volume's particle cloud with "its" observed spectrum.

pub mod analytic;
pub mod detector;
pub mod lienard;
pub mod plugin;
pub mod spectrum;

pub use detector::Detector;
pub use lienard::RadiationAccumulator;
pub use plugin::{RadiationPlugin, RegionMode};
pub use spectrum::Spectrum;

pub mod prelude {
    //! Common imports for radiation consumers.
    pub use crate::analytic::doppler_shift;
    pub use crate::detector::Detector;
    pub use crate::lienard::RadiationAccumulator;
    pub use crate::plugin::{RadiationPlugin, RegionMode};
    pub use crate::spectrum::Spectrum;
}
