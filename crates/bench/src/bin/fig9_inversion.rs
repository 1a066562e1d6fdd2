//! Fig. 9 — inversion quality: radiation spectra and reconstructed
//! momentum distributions per flow region.
//!
//! Runs the full in-transit workflow (KHI → streaming → continual VAE+INN
//! training), then evaluates on a fresh ground-truth snapshot:
//! (a) observed vs INN-forward-predicted spectra per region (the Doppler
//!     cutoffs separate approaching from receding plasma);
//! (b) ground-truth p_x distributions (approaching/receding peaks and the
//!     two-population vortex);
//! (c) p_x distributions of clouds sampled by inverting the observed
//!     spectra.

#![forbid(unsafe_code)]

use as_core::config::WorkflowConfig;
use as_core::eval::InversionEval;
use as_core::workflow::run_workflow;
use as_pic::plugin::Plugin;
use as_radiation::analytic::approach_recede_ratio;
use as_radiation::plugin::{RadiationPlugin, RegionMode};

fn main() {
    println!("=== Fig. 9: inverting radiation back to particle dynamics ===");
    let mut cfg = WorkflowConfig::small();
    cfg.total_steps = 120;
    cfg.steps_per_sample = 4;
    cfg.n_rep = 12;
    cfg.encode.sample_points = 192;

    println!(
        "training in-transit: {} PIC steps, {} windows, n_rep {} …",
        cfg.total_steps,
        cfg.total_steps / cfg.steps_per_sample,
        cfg.n_rep
    );
    let report = run_workflow(&cfg);
    println!(
        "  {} samples streamed, {} training iterations, loss {:.4} → {:.4}",
        report.consumer.samples,
        report.consumer.losses.len(),
        report
            .consumer
            .losses
            .first()
            .map(|l| l.total)
            .unwrap_or(f64::NAN),
        report.tail_loss(8),
    );

    // Fresh ground-truth snapshot from the same scenario, later in time.
    let mut sim = cfg.khi.build(cfg.grid);
    let mut rad = RadiationPlugin::new(
        cfg.detector.clone(),
        RegionMode::FlowRegions {
            shear_width: cfg.shear_width,
        },
        0,
    );
    for _ in 0..cfg.total_steps {
        sim.step();
        if sim.step_index > (cfg.total_steps as u64).saturating_sub(cfg.steps_per_sample as u64) {
            rad.after_step(&sim);
        }
    }
    let eval = InversionEval::run(
        &cfg,
        &report.consumer.model,
        &sim,
        &rad,
        64,
        (-1.2, 1.2),
        25,
    );

    println!();
    println!("(a) spectra (encoded log-intensity, first/peak/cutoff bins) — solid GT, dashed ML:");
    for r in &eval.regions {
        let gt_peak = argmax(&r.gt_spectrum);
        let pr_peak = argmax(&r.pred_spectrum);
        println!(
            "  {:<26} GT peak bin {:>2} (ω={:.2}), ML peak bin {:>2} (ω={:.2})",
            r.label, gt_peak, r.frequencies[gt_peak], pr_peak, r.frequencies[pr_peak]
        );
        print_series("    GT ", &r.gt_spectrum);
        print_series("    ML ", &r.pred_spectrum);
    }
    println!(
        "  analytic Doppler cutoff ratio approaching/receding at β=0.2: {:.2}",
        approach_recede_ratio(cfg.khi.beta)
    );
    println!("  spectrum MSE (encoded space): {:.4}", eval.spectrum_mse());

    println!();
    println!("(b,c) momentum p_x distributions (normalised bin weights):");
    for r in &eval.regions {
        println!(
            "  {:<26} GT mean {:+.3}  ML mean {:+.3}  GT modes {}  ML modes {}",
            r.label,
            r.gt_hist.mean(),
            r.pred_hist.mean(),
            r.gt_hist.count_modes(0.35),
            r.pred_hist.count_modes(0.35),
        );
        print_hist("    GT ", &r.gt_hist.counts);
        print_hist("    ML ", &r.pred_hist.counts);
    }
    for (label, err) in eval.momentum_mean_errors() {
        println!("  |Δmean p_x| {label:<26} {err:.3}");
    }
}

fn argmax(v: &[f32]) -> usize {
    v.iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| i)
        .unwrap_or(0)
}

fn print_series(prefix: &str, v: &[f32]) {
    let chars = b" .:-=+*#%@";
    let (lo, hi) = v
        .iter()
        .fold((f32::MAX, f32::MIN), |(l, h), &x| (l.min(x), h.max(x)));
    let span = (hi - lo).max(1e-6);
    let s: String = v
        .iter()
        .map(|&x| chars[(((x - lo) / span) * 9.0) as usize % 10] as char)
        .collect();
    println!("{prefix}|{s}|");
}

fn print_hist(prefix: &str, counts: &[f64]) {
    let max = counts.iter().cloned().fold(0.0, f64::max).max(1e-30);
    let chars = b" .:-=+*#%@";
    let s: String = counts
        .iter()
        .map(|&c| chars[((c / max) * 9.0) as usize % 10] as char)
        .collect();
    println!("{prefix}|{s}|");
}
