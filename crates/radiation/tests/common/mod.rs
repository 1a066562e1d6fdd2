//! The plugin's streamed accumulation against the sentence that defines
//! it — collect each region's particle states, cut them into chunks of
//! 256, one partial per chunk from zero, partials merged in order —
//! written with the public API only. Each test binary that includes this
//! module latches its own rayon worker count first.

use as_pic::grid::GridSpec;
use as_pic::khi::KhiSetup;
use as_radiation::detector::Detector;
use as_radiation::lienard::{ParticleState, RadiationAccumulator};
use as_radiation::plugin::{particle_state, RadiationPlugin, RegionMode};

pub fn streamed_accumulation_equals_collect_then_chunk(workers: usize) {
    std::env::set_var("RAYON_NUM_THREADS", workers.to_string());
    assert_eq!(rayon::current_num_threads(), workers);

    let g = GridSpec::cubic(8, 24, 4, 0.5, 0.5);
    let mut sim = KhiSetup {
        ppc: 5,
        seed: 7,
        ..KhiSetup::default()
    }
    .build(g);
    let det = Detector::fan_xy(0.2, 2, 0.2, 20.0, 11);
    let mode = RegionMode::FlowRegions { shear_width: 0.06 };
    let mut plugin = RadiationPlugin::new(det.clone(), mode, 0);
    let mut reference: Vec<RadiationAccumulator> = (0..mode.n_regions())
        .map(|_| RadiationAccumulator::new(&det))
        .collect();
    let (_, ly, _) = g.extents();
    for _ in 0..3 {
        sim.step();
        plugin.accumulate_for(&sim, 0.0);

        let mut states: Vec<Vec<ParticleState>> = vec![Vec::new(); mode.n_regions()];
        for (i, &y) in sim.species[0].y.iter().enumerate() {
            states[mode.classify(y, ly)].push(particle_state(&sim, 0, i, 0.0));
        }
        assert!(
            states.iter().all(|s| s.len() > 256 && s.len() % 256 != 0),
            "every region must end on a partial chunk: {:?}",
            states.iter().map(Vec::len).collect::<Vec<_>>()
        );
        for (total, states) in reference.iter_mut().zip(&states) {
            for chunk in states.chunks(256) {
                let mut partial = RadiationAccumulator::new(&det);
                partial.accumulate(&det, chunk, sim.time, g.dt);
                total.merge(&partial);
            }
        }
    }
    for (r, (got, want)) in plugin.accumulators().iter().zip(&reference).enumerate() {
        let bits = |acc: &RadiationAccumulator| -> Vec<u64> {
            acc.amplitudes().iter().map(|v| v.to_bits()).collect()
        };
        assert_eq!(bits(got), bits(want), "region {r} with {workers} workers");
        assert!(got.amplitudes().iter().any(|&v| v != 0.0));
    }
}
