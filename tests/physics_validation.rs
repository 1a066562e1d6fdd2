//! Cross-crate physics validation: PIC + radiation together must show the
//! signatures Fig. 9 relies on.

use artificial_scientist::pic::diag::{momentum_by_region, FlowRegion};
use artificial_scientist::pic::grid::GridSpec;
use artificial_scientist::pic::khi::KhiSetup;
use artificial_scientist::pic::plugin::run_with_plugins;
use artificial_scientist::radiation::detector::Detector;
use artificial_scientist::radiation::plugin::{RadiationPlugin, RegionMode};

/// The Doppler separation the INN learns to exploit ("the network
/// learned … the Doppler shift", §V-B): a plasma stream drifting towards
/// the detector radiates more intensely (relativistic beaming) and with a
/// harder spectrum than the same stream receding. Two uniform-drift boxes
/// give the clean apples-to-apples comparison of Fig. 9(a)'s blue/red
/// curves.
#[test]
fn streams_show_doppler_separation_in_pic_radiation() {
    let run = |beta: f64| {
        let g = GridSpec::cubic(8, 8, 4, 0.5, 0.5);
        let setup = KhiSetup {
            beta,
            ppc: 4,
            perturbation: 0.0,
            ..KhiSetup::default()
        };
        let mut sim = setup.build(g);
        // Uniform drift: override the two-band profile.
        let g0 = 1.0 / (1.0 - beta * beta).sqrt();
        for sp in &mut sim.species {
            for u in &mut sp.ux {
                *u = g0 * beta;
            }
        }
        let det = Detector::along_x(0.2, 15.0, 30);
        let mut plugin = RadiationPlugin::new(det, RegionMode::WholeBox, 0);
        run_with_plugins(&mut sim, 120, &mut [&mut plugin]);
        plugin.spectra()[0][0].clone()
    };
    let approaching = run(0.3);
    let receding = run(-0.3);
    let total_a: f64 = approaching.intensity.iter().sum();
    let total_r: f64 = receding.intensity.iter().sum();
    assert!(
        total_a > 1.5 * total_r,
        "relativistic beaming boosts the approaching stream: {total_a:.3e} vs {total_r:.3e}"
    );
    // Shape separation: the Doppler shift moves the plasma-line and
    // noise-line features to different frequencies for the two drift
    // signs, so the *normalised* spectra must be strongly distinguishable
    // — the separability of Fig. 9(a)'s blue/red curves that the INN
    // learns to invert. (A fixed high-frequency cut is not robust here:
    // at these small-box parameters the ω ≳ 3 ω_pe content is dominated
    // by grid-alias noise whose Doppler shift differs per stream.)
    let shape = |s: &artificial_scientist::radiation::spectrum::Spectrum| -> Vec<f64> {
        let total: f64 = s.intensity.iter().sum::<f64>().max(1e-30);
        s.intensity.iter().map(|i| i / total).collect()
    };
    let (sa, sr) = (shape(&approaching), shape(&receding));
    let l1: f64 = sa.iter().zip(&sr).map(|(a, r)| (a - r).abs()).sum();
    assert!(
        l1 > 0.15,
        "normalised spectra must be clearly distinguishable: L1 distance {l1:.3}"
    );
    // Directional check in the physically clean band: around the
    // (Doppler-shifted) plasma line, ω ∈ [0.4, 2.2] ω_pe, the approaching
    // stream must radiate several times more absolute intensity — beaming
    // plus blueshift concentrate its power there, while the receding
    // stream's lines move out of the band. A sign error in the Doppler /
    // beaming factors inverts this (and the total-intensity ratio above).
    let band = |s: &artificial_scientist::radiation::spectrum::Spectrum| -> f64 {
        s.frequencies
            .iter()
            .zip(&s.intensity)
            .filter(|(f, _)| (0.4..2.2).contains(*f))
            .map(|(_, i)| i)
            .sum()
    };
    let (ba, br) = (band(&approaching), band(&receding));
    assert!(
        ba > 2.0 * br,
        "approaching stream must dominate the plasma-line band: {ba:.3e} vs {br:.3e}"
    );
}

/// The vortex region mixes both streams: its p_x distribution carries two
/// populations while the bulk regions are single-peaked (Fig. 9(b)).
#[test]
fn vortex_region_is_bimodal_in_momentum() {
    let g = GridSpec::cubic(8, 16, 4, 0.5, 0.5);
    let sim = KhiSetup {
        ppc: 6,
        ..KhiSetup::default()
    }
    .build(g);
    let hists = momentum_by_region(&sim, 0.08, -0.5, 0.5, 41);
    for (region, h) in hists {
        let modes = h.count_modes(0.3);
        match region {
            FlowRegion::Vortex => assert!(
                modes >= 2,
                "vortex band must carry both populations, got {modes}"
            ),
            _ => assert_eq!(modes, 1, "{region:?} should be single-peaked"),
        }
    }
}

/// The B-field energy must grow while the simulation feeds the MLapp —
/// the non-steady stream continual learning must cope with.
#[test]
fn khi_stream_is_non_steady() {
    let g = GridSpec::cubic(12, 24, 4, 0.5, 0.5);
    let setup = KhiSetup {
        beta: 0.35,
        ppc: 4,
        perturbation: 0.02,
        ..KhiSetup::default()
    };
    let mut sim = setup.build(g);
    sim.run(40);
    let (_, b_early) = sim.field_energy();
    sim.run(300);
    let (_, b_late) = sim.field_energy();
    assert!(
        b_late > 2.0 * b_early,
        "field energy must evolve: {b_early:.3e} → {b_late:.3e}"
    );
}

/// Total charge is exactly conserved by the charge-conserving zigzag
/// deposit ("Esirkepov meets ZigZag") across a long run (the continuity
/// equation integrated over the box).
#[test]
fn charge_conservation_over_long_run() {
    let g = GridSpec::cubic(8, 8, 4, 0.5, 0.5);
    let mut sim = KhiSetup {
        ppc: 4,
        ..KhiSetup::default()
    }
    .build(g);
    let total_weight = |s: &artificial_scientist::pic::sim::Simulation| -> f64 {
        s.species.iter().flat_map(|sp| sp.w.iter()).sum()
    };
    let w0 = total_weight(&sim);
    sim.run(50);
    assert_eq!(
        sim.particle_count(),
        g.cells() * 4 * 2,
        "no particles created or lost"
    );
    assert!((total_weight(&sim) - w0).abs() < 1e-9);
}
