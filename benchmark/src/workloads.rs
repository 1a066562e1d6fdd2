//! The four workloads: which configuration streams, which traffic mix
//! queries, and why each is here.
//!
//! Counts are frozen: they were tuned once on the 2-vCPU reference VM so
//! that a repetition lasts about four seconds, and every later run — on
//! any commit — does exactly this much work. `BENCHMARK.json` carries
//! the one-line reasons; this file is where the numbers live.

use crate::queries::{Mix, Popularity};
use as_cluster::algos::CollectiveAlgo;
use as_core::config::{CommBackend, ConsumerPolicy, ServingConfig, WorkflowConfig};
use as_nn::vae::VaeConfig;
use as_pic::grid::GridSpec;
use as_staging::codec::WireCodec;

/// Serving knobs shared by all workloads. `max_batch 2` with four
/// closed-loop clients keeps two queries in service and two queued, so
/// the batch worker never waits out the batching timer and never sleeps:
/// throughput and latency are set by the forward pass, not by how fast
/// the hypervisor wakes a thread (with two clients, the same code read
/// p50 0.51, 0.62 or 0.84 ms depending on the wake-up regime). 32
/// posterior samples make a cache-missing query forward-bound.
pub fn serving() -> ServingConfig {
    ServingConfig {
        publish_every: 8,
        max_batch: 2,
        max_wait_us: 200,
        queue_bound: 256,
        cache_capacity: 64,
        posterior_samples: 32,
    }
}

pub struct Workload {
    pub name: &'static str,
    /// The one-line reason recorded in `BENCHMARK.json`.
    pub why: &'static str,
    /// Threads that can be runnable at once, by construction, and why.
    pub busy_threads: &'static str,
    /// True when the consumer policy consumes every window in order, so
    /// windows trained, losses and byte counts must repeat exactly.
    pub blocking: bool,
    /// Windows streamed per repetition.
    pub windows: usize,
    /// Windows streamed per repetition under `--smoke`.
    pub smoke_windows: usize,
    pub mix: Mix,
    configure: fn(&mut WorkflowConfig),
}

impl Workload {
    /// The workflow configuration for a stream of `windows` windows.
    /// `seed` drives the learner (`cfg.seed`) and the plasma
    /// (`cfg.khi.seed`); the query generator takes it separately.
    pub fn config(&self, seed: u64, windows: usize) -> WorkflowConfig {
        let mut cfg = WorkflowConfig::small();
        cfg.serving = Some(serving());
        (self.configure)(&mut cfg);
        cfg.seed = seed;
        cfg.khi.seed = seed;
        cfg.total_steps = windows * cfg.steps_per_sample;
        cfg
    }

    /// The traffic mix, shrunk for `--smoke`.
    pub fn mix(&self, smoke: bool) -> Mix {
        if !smoke {
            return self.mix;
        }
        Mix {
            queries_per_client: 96,
            install_every: self.mix.install_every.map(|_| 24),
            ..self.mix
        }
    }
}

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

pub static WORKLOADS: [Workload; 4] = [
    Workload {
        name: "train_bound",
        why: "1x1 blocking stream, 8 training iterations per window: the learner (nn, tensor, replay, encode) is ~97% of wall and the producer stalls; queries miss the cache",
        busy_threads: "2: learner always busy, producer stalled ~65% of the time; query phase: the batch worker always busy, 4 closed-loop clients that run for microseconds between answers",
        blocking: true,
        windows: 36,
        smoke_windows: 4,
        mix: Mix {
            name: "cold",
            clients: 4,
            pool: 4096,
            popularity: Popularity::Uniform,
            queries_per_client: 625,
            install_every: None,
            verify_every: 8,
        },
        configure: |cfg| {
            cfg.steps_per_sample = 2;
            cfg.n_rep = 8;
            cfg.queue_limit = 2;
        },
    },
    Workload {
        name: "sim_bound",
        why: "2x1 slab producers on a 24x48x8 grid with 8 ppc, 1 iteration per window: pic, radiation and multi-writer staging are ~98% of wall, the mirror image of train_bound; half the Zipf queries hit the cache",
        busy_threads: "2: both slab producers busy, learner <10% busy; query phase as train_bound",
        blocking: true,
        windows: 12,
        // One iteration per window: the first snapshot needs eight.
        smoke_windows: 9,
        mix: Mix {
            name: "skew",
            clients: 4,
            pool: 1024,
            popularity: Popularity::Zipf(1.0),
            queries_per_client: 1250,
            install_every: None,
            verify_every: 1,
        },
        configure: |cfg| {
            cfg.producers = 2;
            cfg.grid = GridSpec::cubic(24, 48, 8, 0.5, 0.5);
            cfg.khi.ppc = 8;
            cfg.steps_per_sample = 4;
            cfg.n_rep = 1;
        },
    },
    Workload {
        name: "ddp_sync",
        why: "1x2 DDP learners over the netsim Frontier fabric with overlapped bucketed gradient sync and a ~1 MB model: collectives, the DDP driver and larger matmuls; snapshots hot-swap under traffic",
        busy_threads: "2: two learner ranks busy (their comm workers only while a rank waits), producer stalled ~88%; query phase as train_bound, client 0 installs inline",
        blocking: true,
        windows: 24,
        smoke_windows: 4,
        mix: Mix {
            name: "swap",
            clients: 4,
            pool: 4096,
            popularity: Popularity::Uniform,
            queries_per_client: 400,
            install_every: Some(50),
            verify_every: 8,
        },
        configure: |cfg| {
            cfg.consumers = 2;
            cfg.backend = CommBackend::netsim_frontier();
            cfg.collective_algo = CollectiveAlgo::Log;
            cfg.overlap_grad_sync = true;
            cfg.queue_limit = 1;
            cfg.steps_per_sample = 1;
            cfg.n_rep = 4;
            cfg.model.vae = VaeConfig {
                encoder_channels: vec![6, 32, 64, 128],
                head_hidden: 64,
                latent: 64,
                ..cfg.model.vae.clone()
            };
            cfg.model.inn_hidden = vec![64, 64];
        },
    },
    Workload {
        name: "drop_stream",
        why: "1x1 DropSteps stream with the f16 wire codec: the staging/consumer layers used the other way (skip-ahead reads, compressed wire); the producer never stalls, learner speed shows as the trained share",
        busy_threads: "2: producer and learner both always busy; query phase 1 client + worker, at most 1 runnable",
        blocking: false,
        windows: 170,
        smoke_windows: 24,
        mix: Mix {
            name: "solo",
            clients: 1,
            pool: 4096,
            popularity: Popularity::Uniform,
            queries_per_client: 2000,
            install_every: None,
            verify_every: 8,
        },
        configure: |cfg| {
            cfg.policy = ConsumerPolicy::DropSteps {
                max_queue: 4,
                min_queue: 0,
            };
            cfg.wire_codec = WireCodec::F16;
            cfg.steps_per_sample = 2;
            cfg.n_rep = 4;
        },
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_builds_a_consistent_config() {
        for w in &WORKLOADS {
            for windows in [w.windows, w.smoke_windows] {
                let cfg = w.config(9, windows);
                cfg.grid.validate();
                cfg.validate_topology();
                assert_eq!(cfg.total_steps, windows * cfg.steps_per_sample);
                assert_eq!((cfg.seed, cfg.khi.seed), (9, 9));
                assert_eq!(cfg.detector.n_freqs(), cfg.model.spectrum_dim);
                assert_eq!(cfg.policy.drops_steps(), !w.blocking, "{}", w.name);
                let serving = cfg.serving.expect("serving is always on");
                assert!(serving.queue_bound >= serving.max_batch);
            }
            assert!(
                w.why.len() <= 200,
                "{}: BENCHMARK.json caps a why at 200",
                w.name
            );
            assert!(!w.why.contains('\n'));
            assert!(w.mix(true).total_queries() < w.mix(false).total_queries());
            assert_eq!(find(w.name).map(|f| f.name), Some(w.name));
        }
        assert!(find("nope").is_none());
    }

    #[test]
    fn workloads_differ_along_the_axes_they_claim() {
        let cfgs: Vec<_> = WORKLOADS.iter().map(|w| w.config(1, w.windows)).collect();
        assert_eq!((cfgs[0].producers, cfgs[0].consumers), (1, 1));
        assert_eq!((cfgs[1].producers, cfgs[1].consumers), (2, 1));
        assert_eq!((cfgs[2].producers, cfgs[2].consumers), (1, 2));
        assert!(cfgs[2].overlap_grad_sync);
        assert_ne!(
            cfgs[2].model, cfgs[0].model,
            "ddp_sync trains the medium model"
        );
        assert_eq!(cfgs[3].wire_codec, WireCodec::F16);
        assert_eq!(cfgs[0].wire_codec, WireCodec::None);
        let electrons = cfgs[1].grid.cells() * cfgs[1].khi.ppc;
        assert_eq!(electrons, 73_728);
    }
}
