//! Closed-loop load generator for the serving tier.
//!
//! Simulates thousands of clients on a handful of OS threads: each
//! worker thread round-robins a block of logical clients, and every
//! client issues its next query only after its previous answer arrived
//! (closed loop — offered load self-regulates through the engine's
//! bounded queue). While running, the generator *is* the torn-weights
//! harness:
//!
//! - every response is (memoized per `(spectrum, version)`) verified
//!   bitwise against [`crate::engine::posterior_reference`] on the
//!   archived snapshot with exactly the version the response reports —
//!   a response mixing two snapshots cannot pass;
//! - every logical client asserts its observed version ids are
//!   monotone non-decreasing.
//!
//! Per-query latencies are kept so the caller can report p50/p95/p99.

use crate::engine::{posterior_reference, spectrum_key, InferenceEngine};
use as_tensor::TensorRng;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Load-generator shape.
#[derive(Debug, Clone)]
pub struct LoadGenConfig {
    /// Worker OS threads.
    pub threads: usize,
    /// Logical clients multiplexed onto each worker thread.
    pub clients_per_thread: usize,
    /// Distinct spectra in the shared query pool (smaller pool → higher
    /// cache hit rate).
    pub spectrum_pool: usize,
    /// Spectrum length (the model's `spectrum_dim`).
    pub spectrum_dim: usize,
    /// Keep querying until the stop flag is set AND each thread has
    /// issued at least this many queries.
    pub min_queries_per_thread: u64,
    /// Verify every response against the single-version reference
    /// forward (memoized per `(spectrum, version)`).
    pub verify: bool,
    /// Base seed for the spectrum pool and per-client choice streams.
    pub seed: u64,
}

impl Default for LoadGenConfig {
    fn default() -> Self {
        Self {
            threads: 4,
            clients_per_thread: 256,
            spectrum_pool: 48,
            spectrum_dim: 16,
            min_queries_per_thread: 200,
            verify: true,
            seed: 0x10AD_6E4E,
        }
    }
}

/// What the load generator observed.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Total queries issued (and answered — the loop is closed).
    pub queries: u64,
    /// Responses answered from the cache.
    pub cached_responses: u64,
    /// Responses verified bitwise against the reference forward.
    pub verified_responses: u64,
    /// Responses whose outputs differed from the single-version
    /// reference — torn weights if ever nonzero.
    pub mismatched_responses: u64,
    /// Per-client version regressions observed — must stay zero.
    pub monotonicity_violations: u64,
    /// Distinct snapshot versions observed in responses, ascending.
    pub versions_seen: Vec<u64>,
    /// Per-query latencies in seconds, unordered.
    pub latencies: Vec<f64>,
    /// Wall-clock seconds the generator ran.
    pub elapsed_seconds: f64,
}

impl LoadReport {}

struct ThreadReport {
    queries: u64,
    cached: u64,
    verified: u64,
    mismatched: u64,
    monotonicity_violations: u64,
    versions: Vec<u64>,
    latencies: Vec<f64>,
}

/// Deterministic spectrum pool shared by all clients.
pub(crate) fn make_spectrum_pool(cfg: &LoadGenConfig) -> Vec<Vec<f32>> {
    let mut rng = TensorRng::seeded(cfg.seed);
    (0..cfg.spectrum_pool)
        .map(|_| rng.standard_normal([1, cfg.spectrum_dim]).data().to_vec())
        .collect()
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Drive the engine from `cfg.threads × cfg.clients_per_thread` logical
/// clients until `stop` is set (and the per-thread query floor is met).
/// Panics on any torn-weights mismatch or version regression.
pub fn run_loadgen(
    engine: &Arc<InferenceEngine>,
    cfg: &LoadGenConfig,
    stop: &Arc<AtomicBool>,
) -> LoadReport {
    assert!(cfg.threads >= 1 && cfg.clients_per_thread >= 1);
    let pool = Arc::new(make_spectrum_pool(cfg));
    let started = Instant::now();
    let handles: Vec<_> = (0..cfg.threads)
        .map(|t| {
            let engine = Arc::clone(engine);
            let stop = Arc::clone(stop);
            let pool = Arc::clone(&pool);
            let cfg = cfg.clone();
            crossbeam::thread::spawn(move || loadgen_thread(t, &engine, &cfg, &pool, &stop))
        })
        .collect();
    let mut queries = 0;
    let mut cached = 0;
    let mut verified = 0;
    let mut mismatched = 0;
    let mut monotonicity_violations = 0;
    let mut versions: Vec<u64> = Vec::new();
    let mut latencies = Vec::new();
    for h in handles {
        let r = h
            .join()
            .unwrap_or_else(|_| panic!("load generator thread panicked"));
        queries += r.queries;
        cached += r.cached;
        verified += r.verified;
        mismatched += r.mismatched;
        monotonicity_violations += r.monotonicity_violations;
        for v in r.versions {
            if !versions.contains(&v) {
                versions.push(v);
            }
        }
        latencies.extend(r.latencies);
    }
    versions.sort_unstable();
    LoadReport {
        queries,
        cached_responses: cached,
        verified_responses: verified,
        mismatched_responses: mismatched,
        monotonicity_violations,
        versions_seen: versions,
        latencies,
        elapsed_seconds: started.elapsed().as_secs_f64(),
    }
}

fn loadgen_thread(
    thread_id: usize,
    engine: &Arc<InferenceEngine>,
    cfg: &LoadGenConfig,
    pool: &Arc<Vec<Vec<f32>>>,
    stop: &Arc<AtomicBool>,
) -> ThreadReport {
    let samples = engine.config().posterior_samples;
    // Per-logical-client state: last version seen, private choice rng.
    let mut last_version = vec![0u64; cfg.clients_per_thread];
    let mut choice: Vec<u64> = (0..cfg.clients_per_thread)
        .map(|c| splitmix64(cfg.seed ^ ((thread_id as u64) << 32) ^ c as u64))
        .collect();
    // (spectrum key, version) → reference outputs, memoized so a hot
    // pool entry is re-derived once per version, not once per query.
    let mut reference: BTreeMap<(u64, u64), Vec<f32>> = BTreeMap::new();
    let mut r = ThreadReport {
        queries: 0,
        cached: 0,
        verified: 0,
        mismatched: 0,
        monotonicity_violations: 0,
        versions: Vec::new(),
        latencies: Vec::new(),
    };
    let mut client = 0usize;
    while !(stop.load(Ordering::SeqCst) && r.queries >= cfg.min_queries_per_thread) {
        choice[client] = splitmix64(choice[client]);
        let spectrum = &pool[(choice[client] % pool.len() as u64) as usize];
        let t0 = Instant::now();
        let resp = engine.query(spectrum.clone());
        r.latencies.push(t0.elapsed().as_secs_f64());
        r.queries += 1;
        if resp.cached {
            r.cached += 1;
        }
        if resp.version < last_version[client] {
            r.monotonicity_violations += 1;
            panic!(
                "client {thread_id}/{client} saw version regress {} -> {}",
                last_version[client], resp.version
            );
        }
        last_version[client] = resp.version;
        if !r.versions.contains(&resp.version) {
            r.versions.push(resp.version);
        }
        if cfg.verify && resp.version > 0 {
            let key = (spectrum_key(spectrum), resp.version);
            let want = reference.entry(key).or_insert_with(|| {
                let served = engine.archived(resp.version).unwrap_or_else(|| {
                    panic!("response reports unarchived version {}", resp.version)
                });
                posterior_reference(&served.model, spectrum, resp.version, samples)
            });
            if &resp.outputs == want {
                r.verified += 1;
            } else {
                r.mismatched += 1;
                panic!(
                    "torn weights: response at version {} differs from the \
                     single-version reference forward",
                    resp.version
                );
            }
        }
        client = (client + 1) % cfg.clients_per_thread;
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use as_core::config::ServingConfig;
    use as_core::encode::EncodeConfig;
    use as_core::snapshot::ModelSnapshot;
    use as_nn::model::{ArtificialScientistModel, ModelConfig};

    #[test]
    fn loadgen_verifies_and_reports() {
        let engine = InferenceEngine::start(ServingConfig {
            posterior_samples: 2,
            cache_capacity: 16,
            ..ServingConfig::default()
        });
        let mut m = ArtificialScientistModel::new(ModelConfig::small(), 11);
        engine.install(&ModelSnapshot::capture(
            &mut m,
            EncodeConfig::default(),
            1,
            4,
        ));
        let cfg = LoadGenConfig {
            threads: 2,
            clients_per_thread: 8,
            spectrum_pool: 4,
            spectrum_dim: ModelConfig::small().spectrum_dim,
            min_queries_per_thread: 40,
            ..LoadGenConfig::default()
        };
        let stop = Arc::new(AtomicBool::new(true)); // run just to the floor
        let report = run_loadgen(&engine, &cfg, &stop);
        engine.shutdown();
        assert!(report.queries >= 80);
        assert_eq!(report.mismatched_responses, 0);
        assert_eq!(report.monotonicity_violations, 0);
        assert_eq!(report.verified_responses, report.queries);
        assert_eq!(report.versions_seen, vec![1]);
        assert!(report.cached_responses > 0, "pool of 4 must hit the cache");
        assert_eq!(report.latencies.len() as u64, report.queries);
        assert!(report.elapsed_seconds > 0.0);
    }
}
