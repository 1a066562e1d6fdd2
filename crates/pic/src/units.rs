//! Normalised PIC units and conversion from the paper's SI setup.
//!
//! Base scales for an electron plasma of reference density `n₀`:
//! - time: `1/ω_pe` with `ω_pe = sqrt(n₀ e² / (ε₀ mₑ))`
//! - length: `c/ω_pe` (the electron skin depth)
//! - momentum: `mₑ c`
//! - electric field: `mₑ c ω_pe / e`
//! - magnetic field: `mₑ ω_pe / e`
//! - current density: `e n₀ c`
//!
//! §IV-A of the paper: Δx = 93.5 µm cubic cells, Δt = 17.9 fs,
//! n₀ = 10²⁵ m⁻³, β = 0.2, 9 particles per cell, smallest volume
//! 192×256×12 cells.

/// Speed of light, m/s.
pub const C: f64 = 299_792_458.0;
/// Elementary charge, C.
pub(crate) const E_CHARGE: f64 = 1.602_176_634e-19;
/// Electron mass, kg.
pub const M_E: f64 = 9.109_383_701_5e-31;
/// Vacuum permittivity, F/m.
pub(crate) const EPS0: f64 = 8.854_187_812_8e-12;

/// Conversion between SI and normalised units for a given reference
/// density.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UnitSystem {
    /// Reference density n₀, m⁻³.
    pub n0: f64,
    /// Electron plasma frequency ω_pe, rad/s.
    pub omega_pe: f64,
    /// Skin depth c/ω_pe, m.
    pub skin_depth: f64,
}

impl UnitSystem {
    /// Build from a reference density in m⁻³.
    pub(crate) fn from_density(n0: f64) -> Self {
        assert!(n0 > 0.0, "density must be positive");
        let omega_pe = (n0 * E_CHARGE * E_CHARGE / (EPS0 * M_E)).sqrt();
        Self {
            n0,
            omega_pe,
            skin_depth: C / omega_pe,
        }
    }

    /// The paper's reference density 10²⁵ m⁻³.
    pub fn paper() -> Self {
        Self::from_density(1.0e25)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_density_gives_expected_scales() {
        let u = UnitSystem::paper();
        // ω_pe = 5.64e4 · sqrt(n[cm⁻³]) rad/s ≈ 1.784e14 for 1e19 cm⁻³.
        assert!(
            (u.omega_pe - 1.784e14).abs() / 1.784e14 < 0.01,
            "{}",
            u.omega_pe
        );
        // Skin depth ≈ 1.68 µm.
        assert!((u.skin_depth - 1.68e-6).abs() / 1.68e-6 < 0.01);
    }

    #[test]
    fn omega_scales_with_sqrt_density() {
        let a = UnitSystem::from_density(1e24);
        let b = UnitSystem::from_density(4e24);
        assert!((b.omega_pe / a.omega_pe - 2.0).abs() < 1e-12);
    }
}
