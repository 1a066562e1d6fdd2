//! ML-side integration: the model must extract physics from streamed
//! data — the paper's central scientific claim ("the model clearly
//! learned to partition the latent space into regions for different flow
//! directions … they allow a simple, almost linear classifier to predict
//! physical regimes", §V-B).

use artificial_scientist::core::config::WorkflowConfig;
use artificial_scientist::core::encode::batch_to_tensors;
use artificial_scientist::core::workflow::{run_workflow, WorkflowReport};
use artificial_scientist::tensor::{Tensor, TensorRng};

/// Train in-transit, then check the latent space linearly separates the
/// flow regions above chance (a 1-D threshold classifier on the best
/// latent axis).
#[test]
fn latent_space_separates_flow_directions() {
    let mut cfg = WorkflowConfig::small();
    cfg.total_steps = 48;
    cfg.steps_per_sample = 4;
    cfg.n_rep = 6;
    let report = run_workflow(&cfg);
    let model = &report.consumer.model;

    // Fresh labelled samples from a new simulation state.
    let mut sim = cfg.khi.build(cfg.grid);
    sim.run(20);
    let (_, ly, _) = cfg.grid.extents();
    let sp = &sim.species[0];
    let mut rng = rand::SeedableRng::seed_from_u64(77);
    let mut clouds = Vec::new();
    let mut labels = Vec::new();
    for class in 0..2usize {
        // class 0: approaching (middle band); class 1: receding (outer).
        for trial in 0..8 {
            let idx: Vec<usize> = (0..sp.len())
                .filter(|&i| {
                    let yn = sp.y[i] / ly;
                    // Stay clear of the shear surfaces.
                    if class == 0 {
                        (0.35..0.65).contains(&yn)
                    } else {
                        !(0.2..0.8).contains(&yn)
                    }
                })
                .collect();
            assert!(idx.len() > 10);
            let pick = |src: &[f64]| -> Vec<f64> { idx.iter().map(|&i| src[i]).collect() };
            let (rx, ry, rz) = (pick(&sp.x), pick(&sp.y), pick(&sp.z));
            let (rux, ruy, ruz) = (pick(&sp.ux), pick(&sp.uy), pick(&sp.uz));
            let (center, half) = artificial_scientist::core::consumer::bounding_box(&rx, &ry, &rz);
            let pts = cfg
                .encode
                .encode_points(&rx, &ry, &rz, &rux, &ruy, &ruz, center, half, &mut rng);
            clouds.push(pts);
            labels.push(class);
            let _ = trial;
        }
    }
    let b = clouds.len();
    let p = clouds[0].len() / 6;
    let flat: Vec<f32> = clouds.concat();
    let points = Tensor::from_vec([b, p, 6], flat);
    let latents = model.encode(&points);
    // Best single-axis threshold classifier.
    let z = latents.dims()[1];
    let mut best_acc = 0.0f64;
    for axis in 0..z {
        let vals: Vec<f32> = (0..b).map(|i| latents.at(&[i, axis])).collect();
        let mut sorted = vals.clone();
        sorted.sort_by(|a, c| a.total_cmp(c));
        for w in sorted.windows(2) {
            let thr = 0.5 * (w[0] + w[1]);
            let acc = (0..b)
                .filter(|&i| (vals[i] > thr) == (labels[i] == 1))
                .count() as f64
                / b as f64;
            best_acc = best_acc.max(acc.max(1.0 - acc));
        }
    }
    assert!(
        best_acc >= 0.75,
        "a near-linear latent classifier should beat chance clearly, got {best_acc}"
    );
}

/// The in-transit learner with 2 DDP consumer ranks must converge like
/// the single-rank learner on the same seeded stream (the data-parallel
/// equivalence the paper relies on).
#[test]
fn ddp_matches_single_process_convergence() {
    let mut cfg = WorkflowConfig::small();
    cfg.total_steps = 24;
    cfg.steps_per_sample = 4;
    cfg.n_rep = 4;
    cfg.seed = 9;
    let single = run_workflow(&cfg);
    cfg.consumers = 2;
    let ddp = run_workflow(&cfg);
    // Both must make progress and land in the same loss band (not
    // bit-equal: the ranks draw different data and noise streams and
    // each rank's MMD estimator sees its own batch).
    let head =
        |r: &WorkflowReport| r.consumer.losses[..4].iter().map(|l| l.total).sum::<f64>() / 4.0;
    let (d_head, s_head) = (head(&ddp), head(&single));
    let (d_tail, s_tail) = (ddp.tail_loss(4), single.tail_loss(4));
    assert!(d_tail.is_finite() && s_tail.is_finite());
    assert!(
        d_tail < d_head,
        "DDP must make progress: {d_head} → {d_tail}"
    );
    assert!(
        s_tail < s_head,
        "single must make progress: {s_head} → {s_tail}"
    );
    assert!(
        d_tail / s_tail < 3.0 && s_tail / d_tail < 3.0,
        "DDP and single-process convergence diverged: {d_tail} vs {s_tail}"
    );
}

/// Samples encoded from the stream feed the model with the shapes it
/// expects (guards the encode → batch → model contract).
#[test]
fn encoded_batches_are_model_compatible() {
    let cfg = WorkflowConfig::small();
    let sample = artificial_scientist::core::encode::Sample {
        points: vec![0.1; cfg.encode.sample_points * 6],
        spectrum: vec![0.0; cfg.model.spectrum_dim],
        region: 0,
        step: 0,
    };
    let (points, spectra) = batch_to_tensors(&[sample.clone(), sample], &cfg.model);
    let mut model =
        artificial_scientist::nn::model::ArtificialScientistModel::new(cfg.model.clone(), 1);
    let mut rng = TensorRng::seeded(2);
    model.zero_grad();
    let report = model.accumulate_gradients(&points, &spectra, &mut rng);
    assert!(report.total.is_finite());
}
