//! Diagnostics: field energies, momentum histograms, density maps and the
//! flow-region classification used to label Fig. 9's sub-volumes.

use crate::sim::Simulation;

/// Physical flow regions of the KHI box relative to a detector looking
/// along −x̂ (i.e. radiation observed in the +x̂ direction): the +x stream
/// approaches it, the −x stream recedes, and the neighbourhoods of the two
/// shear surfaces host the vortices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlowRegion {
    /// Bulk plasma streaming towards the detector (+x).
    Approaching,
    /// Bulk plasma streaming away from the detector (−x).
    Receding,
    /// Shear-surface / vortex region.
    Vortex,
}

impl FlowRegion {
    /// Classify a y-coordinate for box height `ly`; `shear_width` is the
    /// half-width (in units of ly) of the vortex band around each shear
    /// surface at ly/4 and 3ly/4.
    pub fn classify(y: f64, ly: f64, shear_width: f64) -> Self {
        let yn = (y / ly).rem_euclid(1.0);
        let d = (yn - 0.25).abs().min((yn - 0.75).abs());
        if d < shear_width {
            FlowRegion::Vortex
        } else if (0.25..0.75).contains(&yn) {
            FlowRegion::Approaching
        } else {
            FlowRegion::Receding
        }
    }

    /// All three regions.
    pub fn all() -> [FlowRegion; 3] {
        [
            FlowRegion::Approaching,
            FlowRegion::Receding,
            FlowRegion::Vortex,
        ]
    }

    /// Display label matching Fig. 9's legend.
    pub fn label(&self) -> &'static str {
        match self {
            FlowRegion::Approaching => "approaching detector",
            FlowRegion::Receding => "receding from detector",
            FlowRegion::Vortex => "KHI vortex",
        }
    }
}

/// Histogram of a particle momentum component (Fig. 9(b)).
#[derive(Debug, Clone)]
pub struct MomentumHistogram {
    /// Bin edges (len = bins + 1).
    pub edges: Vec<f64>,
    /// Weighted counts per bin ("charge density" in the paper's y-label).
    pub counts: Vec<f64>,
}

impl MomentumHistogram {
    /// Histogram `values` (with `weights`) into `bins` equal bins over
    /// `[lo, hi]`.
    pub fn build(values: &[f64], weights: &[f64], lo: f64, hi: f64, bins: usize) -> Self {
        assert!(hi > lo && bins > 0);
        assert_eq!(values.len(), weights.len());
        let width = (hi - lo) / bins as f64;
        let mut counts = vec![0.0; bins];
        for (&v, &w) in values.iter().zip(weights) {
            if v >= lo && v < hi {
                let b = ((v - lo) / width) as usize;
                counts[b.min(bins - 1)] += w;
            }
        }
        let edges = (0..=bins).map(|i| lo + i as f64 * width).collect();
        Self { edges, counts }
    }

    /// Mean of the histogrammed distribution.
    pub fn mean(&self) -> f64 {
        let total: f64 = self.counts.iter().sum();
        if total == 0.0 {
            return 0.0;
        }
        self.counts
            .iter()
            .enumerate()
            .map(|(i, c)| c * 0.5 * (self.edges[i] + self.edges[i + 1]))
            .sum::<f64>()
            / total
    }

    /// Count the local maxima above `threshold`× the global maximum —
    /// detects the two-population structure of the vortex region.
    pub fn count_modes(&self, threshold: f64) -> usize {
        let max = self.counts.iter().cloned().fold(0.0, f64::max);
        if max == 0.0 {
            return 0;
        }
        let floor = threshold * max;
        let mut modes = 0;
        for i in 0..self.counts.len() {
            let c = self.counts[i];
            if c < floor {
                continue;
            }
            let left = if i > 0 { self.counts[i - 1] } else { 0.0 };
            let right = if i + 1 < self.counts.len() {
                self.counts[i + 1]
            } else {
                0.0
            };
            if c >= left && c > right {
                modes += 1;
            }
        }
        modes
    }
}

/// Per-region p_x histograms of the electrons of `sim` (species 0).
pub fn momentum_by_region(
    sim: &Simulation,
    shear_width: f64,
    lo: f64,
    hi: f64,
    bins: usize,
) -> Vec<(FlowRegion, MomentumHistogram)> {
    let (_, ly, _) = sim.spec.extents();
    let sp = &sim.species[0];
    FlowRegion::all()
        .into_iter()
        .map(|region| {
            let mut vals = Vec::new();
            let mut ws = Vec::new();
            for i in 0..sp.len() {
                if FlowRegion::classify(sp.y[i], ly, shear_width) == region {
                    vals.push(sp.ux[i]);
                    ws.push(sp.w[i]);
                }
            }
            (region, MomentumHistogram::build(&vals, &ws, lo, hi, bins))
        })
        .collect()
}

/// x–y map of electron density, summed over z (the Fig. 1 style view).
pub fn density_map_xy(sim: &Simulation) -> Vec<Vec<f64>> {
    let g = &sim.spec;
    let mut map = vec![vec![0.0; g.ny]; g.nx];
    let sp = &sim.species[0];
    for i in 0..sp.len() {
        let cx = ((sp.x[i] / g.dx) as usize).min(g.nx - 1);
        let cy = ((sp.y[i] / g.dy) as usize).min(g.ny - 1);
        map[cx][cy] += sp.w[i];
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::GridSpec;
    use crate::khi::KhiSetup;

    #[test]
    fn region_classification_bands() {
        let ly = 8.0;
        assert_eq!(FlowRegion::classify(2.0, ly, 0.05), FlowRegion::Vortex);
        assert_eq!(FlowRegion::classify(6.0, ly, 0.05), FlowRegion::Vortex);
        assert_eq!(FlowRegion::classify(4.0, ly, 0.05), FlowRegion::Approaching);
        assert_eq!(FlowRegion::classify(0.5, ly, 0.05), FlowRegion::Receding);
        assert_eq!(FlowRegion::classify(7.9, ly, 0.05), FlowRegion::Receding);
    }

    #[test]
    fn histogram_mean_and_modes() {
        // Two clean populations at ±1.
        let mut vals = vec![];
        for _ in 0..100 {
            vals.push(1.0);
            vals.push(-1.0);
        }
        let w = vec![1.0; vals.len()];
        let h = MomentumHistogram::build(&vals, &w, -2.0, 2.0, 21);
        assert!(h.mean().abs() < 1e-9);
        assert_eq!(h.count_modes(0.5), 2, "bimodal distribution");
        // Single population.
        let h1 = MomentumHistogram::build(&vec![0.5; 50], &vec![1.0; 50], -2.0, 2.0, 21);
        assert_eq!(h1.count_modes(0.5), 1);
    }

    #[test]
    fn khi_regions_have_expected_mean_momenta() {
        let g = GridSpec::cubic(8, 16, 4, 0.5, 0.5);
        let sim = KhiSetup::default().build(g);
        let hists = momentum_by_region(&sim, 0.06, -0.5, 0.5, 41);
        for (region, h) in hists {
            match region {
                FlowRegion::Approaching => assert!(h.mean() > 0.1, "approaching mean {}", h.mean()),
                FlowRegion::Receding => assert!(h.mean() < -0.1, "receding mean {}", h.mean()),
                FlowRegion::Vortex => assert!(h.mean().abs() < 0.25, "vortex mixes streams"),
            }
        }
    }

    #[test]
    fn density_map_counts_all_weight() {
        let g = GridSpec::cubic(4, 4, 2, 0.5, 0.5);
        let sim = KhiSetup {
            ppc: 3,
            ..KhiSetup::default()
        }
        .build(g);
        let map = density_map_xy(&sim);
        let total: f64 = map.iter().flatten().sum();
        let expect: f64 = sim.species[0].w.iter().sum();
        assert!((total - expect).abs() < 1e-9);
    }
}
