//! The run manifest and the thread-budget guard.
//!
//! Every run file starts with what is needed to tell two runs apart or
//! to explain why they differ: machine, toolchain, commit, seed, the
//! workload's frozen counts and its busy-thread budget.

use crate::coupled::Inputs;
use crate::json::Json;
use crate::run::RunOptions;
use crate::workloads::Workload;
use std::process::Command;

/// The budget every workload is built to: at most this many threads
/// runnable at once. The reference VM has exactly this many vCPUs.
pub const BUSY_THREAD_BUDGET: usize = 2;

/// Pin the rayon shim to one worker per parallel call. The binary calls
/// this first thing in `main`, while the process is single-threaded: the
/// shim reads `RAYON_NUM_THREADS` once, and with its default every
/// parallel call would add `nproc` workers to a 1×1 run that is already
/// two busy threads.
pub fn pin_rayon_threads() {
    std::env::set_var("RAYON_NUM_THREADS", "1");
}

/// Refuse to measure on a machine, or in a process, that cannot hold the
/// busy-thread budget.
pub fn check_thread_budget() -> Result<(), String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    if nproc < BUSY_THREAD_BUDGET {
        return Err(format!(
            "this machine offers {nproc} CPU; every workload keeps {BUSY_THREAD_BUDGET} threads \
             busy, and with fewer CPUs the timings would measure the scheduler, not the program"
        ));
    }
    if std::env::var("RAYON_NUM_THREADS").as_deref() != Ok("1") {
        return Err("RAYON_NUM_THREADS is not 1: the binary pins it before first use".into());
    }
    Ok(())
}

/// First line of a command's standard output, or `unknown`. The driver
/// runs the benchmark in a checkout that is not a git repository, so
/// `git` failing is an expected case, not an error.
fn first_line(program: &str, args: &[&str]) -> String {
    // Keep `git` from searching for a repository above the checkout.
    let ceiling = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(|p| p.to_path_buf()))
        .unwrap_or_default();
    Command::new(program)
        .args(args)
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// The manifest every run file starts with.
pub fn manifest(workload: &Workload, inputs: &Inputs, opts: &RunOptions) -> Json {
    let cfg = &inputs.cfg;
    let serving = cfg.serving.clone().unwrap_or_default();
    let mix = &inputs.mix;
    let counts = Json::obj([
        ("windows", Json::Num(inputs.windows as f64)),
        ("steps_per_sample", Json::Num(cfg.steps_per_sample as f64)),
        ("n_rep", Json::Num(cfg.n_rep as f64)),
        ("producers", Json::Num(cfg.producers as f64)),
        ("consumers", Json::Num(cfg.consumers as f64)),
        ("queue_limit", Json::Num(cfg.effective_queue_limit() as f64)),
        ("policy", Json::str(cfg.policy.label())),
        ("backend", Json::str(cfg.backend.label())),
        ("wire_codec", Json::str(cfg.wire_codec.label())),
        (
            "grid",
            Json::nums(&[cfg.grid.nx as f64, cfg.grid.ny as f64, cfg.grid.nz as f64]),
        ),
        ("ppc", Json::Num(cfg.khi.ppc as f64)),
        ("publish_every", Json::Num(serving.publish_every as f64)),
        ("max_batch", Json::Num(serving.max_batch as f64)),
        ("max_wait_us", Json::Num(serving.max_wait_us as f64)),
        ("cache_capacity", Json::Num(serving.cache_capacity as f64)),
        (
            "posterior_samples",
            Json::Num(serving.posterior_samples as f64),
        ),
        ("mix", Json::str(mix.name)),
        ("clients", Json::Num(mix.clients as f64)),
        ("spectrum_pool", Json::Num(mix.pool as f64)),
        (
            "queries_per_client",
            Json::Num(mix.queries_per_client as f64),
        ),
        (
            "install_every",
            mix.install_every
                .map_or(Json::Null, |n| Json::Num(n as f64)),
        ),
        ("verify_every", Json::Num(mix.verify_every as f64)),
    ]);
    Json::obj([
        ("workload", Json::str(workload.name)),
        ("why", Json::str(workload.why)),
        (
            "mode",
            Json::str(if opts.trace { "traced" } else { "timed" }),
        ),
        ("smoke", Json::Bool(opts.smoke)),
        ("seed", Json::Num(opts.seed as f64)),
        ("seconds", Json::Num(opts.seconds)),
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64),
        ),
        (
            "rayon_num_threads",
            Json::str(std::env::var("RAYON_NUM_THREADS").unwrap_or_default()),
        ),
        ("busy_thread_budget", Json::Num(BUSY_THREAD_BUDGET as f64)),
        ("busy_threads", Json::str(workload.busy_threads)),
        ("rustc", Json::str(first_line("rustc", &["--version"]))),
        (
            "git_rev",
            Json::str(first_line("git", &["rev-parse", "--short", "HEAD"])),
        ),
        ("frozen_counts", counts),
    ])
}
