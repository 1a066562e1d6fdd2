//! The producer must publish the same radiation whatever its slab count:
//! the far-field plugin sees one plasma, not M of them (paper §IV-A/B).
//!
//! Observed through the real emit path: every rank's collective endpoint
//! is wrapped in a tap that records the per-region window amplitudes as
//! `run_producer` merges them — the f64 values the published f32 spectra
//! are computed from.

use artificial_scientist::cluster::algos::CollectiveAlgo;
use artificial_scientist::cluster::collective::{Collective, SoloComm};
use artificial_scientist::cluster::comm::CommWorld;
use artificial_scientist::core::config::WorkflowConfig;
use artificial_scientist::core::noop::run_noop_consumer;
use artificial_scientist::core::producer::run_producer;
use artificial_scientist::pic::plugin::Plugin;
use artificial_scientist::radiation::plugin::{RadiationPlugin, RegionMode};
use artificial_scientist::staging::engine::{open_stream, StreamConfig};
use std::sync::{Arc, Mutex};

/// Forwards everything to `inner`; rank 0 additionally keeps a copy of
/// every merged f64 buffer (the producer reduces nothing else in f64).
struct Tap<C> {
    inner: C,
    merged: Arc<Mutex<Vec<Vec<f64>>>>,
}

impl<C: Collective> Collective for Tap<C> {
    fn rank(&self) -> usize {
        self.inner.rank()
    }
    fn size(&self) -> usize {
        self.inner.size()
    }
    fn algo(&self) -> CollectiveAlgo {
        self.inner.algo()
    }
    fn barrier(&self) {
        self.inner.barrier()
    }
    fn send<T: Send + 'static>(&self, dest: usize, tag: u64, value: T) {
        self.inner.send(dest, tag, value)
    }
    fn send_vec<T: Send + 'static>(&self, dest: usize, tag: u64, value: Vec<T>) {
        self.inner.send_vec(dest, tag, value)
    }
    fn recv<T: Send + 'static>(&self, source: usize, tag: u64) -> T {
        self.inner.recv(source, tag)
    }
    fn broadcast<T: Clone + Send + 'static>(&self, root: usize, value: Option<T>) -> T {
        self.inner.broadcast(root, value)
    }
    fn gather<T: Send + 'static>(&self, root: usize, value: T) -> Option<Vec<T>> {
        self.inner.gather(root, value)
    }
    fn allgather<T: Clone + Send + 'static>(&self, value: T) -> Vec<T> {
        self.inner.allgather(value)
    }
    fn allreduce_sum_f32(&self, buf: &mut [f32]) {
        self.inner.allreduce_sum_f32(buf)
    }
    fn allreduce_sum_f64(&self, buf: &mut [f64]) {
        self.inner.allreduce_sum_f64(buf);
        if self.rank() == 0 {
            self.merged.lock().unwrap().push(buf.to_vec());
        }
    }
    fn allreduce_max_f64(&self, buf: &mut [f64]) {
        self.inner.allreduce_max_f64(buf)
    }
    fn world_bytes_sent(&self) -> u64 {
        self.inner.world_bytes_sent()
    }
    fn world_messages_sent(&self) -> u64 {
        self.inner.world_messages_sent()
    }
    fn account_payload(&self, bytes: u64) {
        self.inner.account_payload(bytes)
    }
}

fn cfg() -> WorkflowConfig {
    let mut cfg = WorkflowConfig::small();
    cfg.total_steps = 8;
    cfg.steps_per_sample = 4;
    cfg
}

/// The merged amplitudes `run_producer` published over `world`, one
/// buffer per (window, region) in emit order.
fn published_amplitudes<C: Collective>(world: Vec<C>) -> Vec<Vec<f64>> {
    let cfg = cfg();
    let stream_cfg = StreamConfig {
        writers: world.len(),
        ..StreamConfig::default()
    };
    let (pw, mut pr) = open_stream(stream_cfg);
    let (rw, mut rr) = open_stream(stream_cfg);
    let merged = Arc::new(Mutex::new(Vec::new()));
    let ranks: Vec<_> = world
        .into_iter()
        .zip(pw.into_iter().zip(rw))
        .map(|(inner, (pw, rw))| {
            let cfg = cfg.clone();
            let tap = Tap {
                inner,
                merged: merged.clone(),
            };
            std::thread::spawn(move || run_producer(&cfg, tap, pw, rw))
        })
        .collect();
    let rr = rr.remove(0);
    let radiation_drain = std::thread::spawn(move || run_noop_consumer(rr));
    run_noop_consumer(pr.remove(0));
    radiation_drain.join().unwrap();
    for rank in ranks {
        assert_eq!(rank.join().unwrap().windows, 2);
    }
    let merged = std::mem::take(&mut *merged.lock().unwrap());
    merged
}

/// The same windows from the plain periodic box with the plugin hooked
/// after every step.
fn plain_box_amplitudes() -> Vec<Vec<f64>> {
    let cfg = cfg();
    let mut sim = cfg.khi.build(cfg.grid);
    let mode = RegionMode::FlowRegions {
        shear_width: cfg.shear_width,
    };
    let mut radiation = RadiationPlugin::new(cfg.detector.clone(), mode, 0);
    let mut windows = Vec::new();
    for step in 0..cfg.total_steps {
        sim.step();
        radiation.after_step(&sim);
        if (step + 1) % cfg.steps_per_sample == 0 {
            windows.extend(
                radiation
                    .accumulators()
                    .iter()
                    .map(|acc| acc.amplitudes().to_vec()),
            );
            radiation.reset_window();
        }
    }
    windows
}

/// Largest |a − b| over the run, relative to the largest amplitude of the
/// window it occurs in.
fn max_rel_diff(a: &[Vec<f64>], b: &[Vec<f64>]) -> f64 {
    assert_eq!(a.len(), b.len(), "same windows × regions");
    a.iter().zip(b).fold(0.0, |worst, (a, b)| {
        assert_eq!(a.len(), b.len());
        let peak = a.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        assert!(peak > 0.0, "an empty window proves nothing");
        let diff = a
            .iter()
            .zip(b)
            .fold(0.0f64, |m, (x, y)| m.max((x - y).abs()));
        f64::max(worst, diff / peak)
    })
}

#[test]
fn published_amplitudes_do_not_depend_on_the_slab_count() {
    let solo = published_amplitudes(vec![SoloComm]);
    assert!(!solo.is_empty());
    for m in [2, 4] {
        let sharded = published_amplitudes(CommWorld::new(m).into_endpoints());
        let diff = max_rel_diff(&solo, &sharded);
        assert!(
            diff <= 1e-12,
            "M = 1 vs M = {m}: {diff:e} of the window maximum"
        );
    }
    let diff = max_rel_diff(&solo, &plain_box_amplitudes());
    assert!(
        diff <= 1e-12,
        "M = 1 vs Simulation::step + after_step: {diff:e}"
    );
}
