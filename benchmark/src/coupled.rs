//! The coupled run: first-light set-up passes and timed repetitions.
//!
//! A repetition is a *stream phase* — one `run_workflow_serving` call on
//! a fresh engine, the whole pic → radiation → openpmd/staging → core →
//! replay → nn/tensor → cluster pipeline publishing snapshots into serve —
//! followed by a *query phase*: closed-loop clients against that engine
//! with a script generated before the clock started. Every check the
//! benchmark makes on the program's outputs lives here.

use crate::alloc;
use crate::queries::{client_scripts, spectrum_pool, Mix, Op};
use crate::stats;
use crate::trace::{SpanId, Tracer};
use crate::workloads::Workload;
use as_core::config::WorkflowConfig;
use as_core::snapshot::{ModelSnapshot, SnapshotSink};
use as_core::workflow::{run_workflow_with_sink, WorkflowReport};
use as_serve::{posterior_reference, run_workflow_serving, EngineSink, InferenceEngine};
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::sync::{Arc, Barrier};
use std::time::Instant;

/// Everything fixed before the clock starts: configuration, spectrum
/// pool and client scripts, all derived from the seed.
pub struct Inputs {
    pub workload: &'static Workload,
    pub windows: usize,
    pub cfg: WorkflowConfig,
    pub mix: Mix,
    pub pool: Vec<Vec<f32>>,
    pub scripts: Vec<Vec<Op>>,
}

impl Inputs {
    pub fn new(workload: &'static Workload, seed: u64, smoke: bool) -> Self {
        let windows = if smoke {
            workload.smoke_windows
        } else {
            workload.windows
        };
        let cfg = workload.config(seed, windows);
        let mix = workload.mix(smoke);
        Self {
            workload,
            windows,
            pool: spectrum_pool(seed, mix.pool, cfg.model.spectrum_dim),
            scripts: client_scripts(&mix, seed),
            cfg,
            mix,
        }
    }

    /// PIC iteration index of every window the stream emits, in order.
    fn emitted_windows(&self) -> Vec<u64> {
        (1..=self.windows as u64)
            .map(|w| w * self.cfg.steps_per_sample as u64)
            .collect()
    }
}

/// One cold first-light pass: construct all state and run the workload's
/// configuration with a two-window stream through to the first installed
/// snapshot and the first answered query. Returns its wall seconds.
///
/// `publish_every` is 1 here so that two windows always reach a snapshot
/// whatever the workload's `n_rep`; everything else is the workload's
/// own configuration, so work a later change moves into constructors
/// shows up in this number.
pub fn first_light(workload: &'static Workload, seed: u64) -> Result<f64, String> {
    let t0 = Instant::now();
    let mut cfg = workload.config(seed, 2);
    let mut serving = crate::workloads::serving();
    serving.publish_every = 1;
    cfg.serving = Some(serving.clone());
    let pool = spectrum_pool(seed, 1, cfg.model.spectrum_dim);
    let engine = InferenceEngine::start(serving);
    let report = run_workflow_serving(&cfg, &engine);
    let answered = if engine.current().is_some() {
        let resp = engine.query(pool[0].clone());
        resp.version >= 1 && !resp.outputs.is_empty()
    } else {
        false
    };
    let elapsed = t0.elapsed().as_secs_f64();
    engine.shutdown();
    if !report.failures.is_empty() {
        return Err(format!("first light: rank failure: {:?}", report.failures));
    }
    if !answered {
        return Err(
            "first light: no snapshot was installed, or the first query went unanswered".into(),
        );
    }
    Ok(elapsed)
}

/// What one repetition measured and checked.
#[derive(Debug, Clone)]
pub struct Repetition {
    /// End-to-end values of this repetition (all but `setup_s`).
    pub end_to_end: BTreeMap<&'static str, f64>,
    /// Program counters of this repetition (see `metrics::COUNTERS`).
    pub counters: BTreeMap<&'static str, f64>,
    pub stream_wall_s: f64,
    pub windows_published: u64,
    /// Queries answered; each is one latency sample behind the percentiles.
    pub queries_issued: u64,
    /// One line per violated check; empty on a clean repetition.
    pub failures: Vec<String>,
    /// Witnesses that must repeat exactly on a blocking workload.
    pub param_hash: u64,
    pub tail_loss: f64,
    pub counts: ExactCounts,
    /// PIC iteration index of each window learner rank 0's group trained
    /// on, in order (the layer walk replays this set).
    pub trained_windows: Vec<u64>,
}

/// Counts the program reports that do not depend on timing when the
/// stream is blocking: they must be equal in every repetition, and the
/// layer walk must reproduce the ones it can.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExactCounts {
    pub windows_published: u64,
    pub windows_trained: u64,
    /// Training iterations of learner rank 0.
    pub iterations: u64,
    /// Samples encoded into replay buffers, over all learner ranks.
    pub samples: u64,
    /// Payload bytes published on both streams, over all producer ranks.
    pub logical_bytes: u64,
    pub wire_bytes: u64,
    pub fetched_wire_bytes: u64,
    pub producer_comm_bytes: u64,
    pub producer_comm_messages: u64,
    pub consumer_comm_bytes: u64,
    pub consumer_comm_messages: u64,
}

/// Forwards every snapshot to the engine and records one span per
/// publish, so a traced repetition has a progress mark every
/// `publish_every` iterations.
struct StampingSink {
    inner: EngineSink,
    tracer: Arc<Tracer>,
    parent: SpanId,
}

impl SnapshotSink for StampingSink {
    fn publish(&self, snapshot: ModelSnapshot) {
        let version = snapshot.version;
        self.tracer
            .record("core.snapshot_publish", self.parent, version, || {
                self.inner.publish(snapshot)
            });
    }
}

/// Run one repetition. With a tracer, spans are recorded around the
/// stream call, every snapshot publish and every query.
pub fn repetition(inputs: &Inputs, ordinal: u64, tracer: Option<&Arc<Tracer>>) -> Repetition {
    let serving = inputs
        .cfg
        .serving
        .clone()
        .expect("workloads always configure serving");
    let mut failures = Vec::new();
    alloc::reset();
    let root = tracer.map(|t| t.span("repetition", crate::trace::ROOT, ordinal));
    let root_id = root.as_ref().map_or(crate::trace::ROOT, |g| g.id());

    // ---- stream phase ----
    let engine = InferenceEngine::start(serving.clone());
    let t0 = Instant::now();
    let report = match tracer {
        None => run_workflow_serving(&inputs.cfg, &engine),
        Some(t) => {
            let stream = t.span("stream", root_id, ordinal);
            let sink = StampingSink {
                inner: EngineSink(Arc::clone(&engine)),
                tracer: Arc::clone(t),
                parent: stream.id(),
            };
            run_workflow_with_sink(&inputs.cfg, Some(Arc::new(sink)))
        }
    };
    let stream_wall_s = t0.elapsed().as_secs_f64();
    let after_stream = alloc::snapshot();
    let snapshots_published = engine.report().swaps;

    let stream = check_stream(inputs, &report, &mut failures);

    // ---- query phase ----
    let WorkflowReport { consumer, .. } = report;
    let mut model = consumer.model;
    let base_version = engine.report().current_version;
    let iterations = consumer.losses.len() as u64;
    let installs: Vec<ModelSnapshot> = (0..inputs.mix.installs() as u64)
        .map(|k| {
            ModelSnapshot::capture(
                &mut model,
                inputs.cfg.encode,
                base_version + 1 + k,
                iterations,
            )
        })
        .collect();
    drop(model);

    let queries = if engine.current().is_some() {
        query_phase(
            &engine,
            inputs,
            &installs,
            tracer.map(|t| (&**t, root_id)),
            &mut failures,
        )
    } else {
        // Without a snapshot every query would block for ever.
        failures.push(format!(
            "no snapshot was installed during the stream; {} queries not issued",
            inputs.mix.total_queries()
        ));
        QueryOutcome::default()
    };
    drop(installs);
    let serve = engine.report();
    engine.shutdown();
    drop(root);
    let peak = alloc::snapshot().peak;

    verify_responses(
        &engine,
        inputs,
        serving.posterior_samples,
        &queries,
        &mut failures,
    );

    let lat = stats::sorted(&queries.latencies_s);
    let pct = |p: f64| {
        if lat.is_empty() {
            0.0
        } else {
            stats::percentile_sorted(&lat, p) * 1e3
        }
    };
    let published = stream.counts.windows_published;
    let windows = published.max(1) as f64;

    let end_to_end = BTreeMap::from([
        ("windows_per_s", published as f64 / stream_wall_s),
        (
            "trained_window_frac",
            stream.counts.windows_trained as f64 / windows,
        ),
        ("tail_loss", stream.tail_loss),
        (
            "queries_per_s",
            if queries.elapsed_s > 0.0 {
                queries.latencies_s.len() as f64 / queries.elapsed_s
            } else {
                0.0
            },
        ),
        ("query_p50_ms", pct(50.0)),
        ("peak_heap_mb", peak as f64 / 1e6),
    ]);
    let mut counters = stream.counters;
    counters.extend([
        ("core.consumer_other_s", stream_wall_s - stream.train_s),
        ("core.snapshots_published", snapshots_published as f64),
        (
            "core.allocs_per_window",
            after_stream.count as f64 / windows,
        ),
        (
            "core.alloc_mb_per_window",
            after_stream.bytes as f64 / 1e6 / windows,
        ),
        ("serve.cache_hit_rate", serve.cache_hit_rate()),
        ("serve.mean_batch", serve.mean_batch()),
        ("serve.swaps", serve.swaps as f64),
        ("serve.queue_full_waits", serve.queue_full_waits as f64),
        ("serve.query_p99_ms", pct(99.0)),
        ("serve.query_p999_ms", pct(99.9)),
    ]);

    Repetition {
        end_to_end,
        counters,
        stream_wall_s,
        windows_published: published,
        queries_issued: lat.len() as u64,
        failures,
        param_hash: stream.param_hash,
        tail_loss: stream.tail_loss,
        counts: stream.counts,
        trained_windows: stream.trained_windows,
    }
}

struct StreamFacts {
    tail_loss: f64,
    train_s: f64,
    param_hash: u64,
    counts: ExactCounts,
    trained_windows: Vec<u64>,
    counters: BTreeMap<&'static str, f64>,
}

/// Read the stream phase's facts off the report and check them.
fn check_stream(
    inputs: &Inputs,
    report: &WorkflowReport,
    failures: &mut Vec<String>,
) -> StreamFacts {
    let w = inputs.workload;
    let published = report.producer.windows;
    for f in &report.failures {
        failures.push(format!(
            "rank failure: {:?} rank {}: {}",
            f.group, f.rank, f.message
        ));
    }
    if published != inputs.windows as u64 {
        failures.push(format!(
            "published {published} windows, the workload streams {}",
            inputs.windows
        ));
    }
    let mut orphaned_lost = report.lost_windows;
    for s in &report.consumer_summaries {
        orphaned_lost += s.orphaned_windows;
        let accounted = s.windows + s.dropped_windows + s.orphaned_windows + s.lost_windows;
        if accounted != s.published_windows {
            failures.push(format!(
                "rank {}: windows+dropped+orphaned+lost = {accounted} != published {}",
                s.rank, s.published_windows
            ));
        }
    }
    if orphaned_lost > 0 {
        failures.push(format!("{orphaned_lost} windows orphaned or lost"));
    }
    let losses: Vec<f64> = report.consumer.losses.iter().map(|l| l.total).collect();
    if losses.iter().any(|l| !l.is_finite()) {
        failures.push("non-finite training loss".into());
    }
    if losses.is_empty() {
        failures.push("the learner ran no training iteration".into());
    }
    // Every rank sees every window; the group trains on each seen window
    // once (its round-robin owner encodes it).
    let trained = report.consumer.windows;
    let dropped = report.consumer.dropped_windows;
    let trained_windows = report.consumed_windows();
    if w.blocking {
        if trained_windows != inputs.emitted_windows() {
            failures.push(format!(
                "blocking stream: {} of {} windows trained exactly once",
                trained_windows.len(),
                inputs.windows
            ));
        }
        if dropped != 0 {
            failures.push(format!("blocking stream dropped {dropped} windows"));
        }
    } else {
        let mut unique = trained_windows.clone();
        unique.dedup();
        if unique.len() != trained_windows.len() {
            failures.push("a window was trained more than once".into());
        }
    }
    let hashes: Vec<u64> = report
        .consumer_summaries
        .iter()
        .map(|s| s.param_hash)
        .collect();
    if hashes.iter().any(|&h| h != report.consumer.param_hash) {
        failures.push(format!(
            "learner ranks end with different parameters: {hashes:?}"
        ));
    }

    // Mean total loss over the final quarter of rank 0's iterations.
    let tail_loss = report.tail_loss((losses.len() / 4).max(1));
    let train_s = report.consumer.train_seconds;
    let iterations = losses.len() as u64;

    let counts = ExactCounts {
        windows_published: published,
        windows_trained: trained,
        iterations,
        samples: report.consumer_summaries.iter().map(|s| s.samples).sum(),
        logical_bytes: report.producer.bytes,
        wire_bytes: report.staging_wire_bytes(),
        fetched_wire_bytes: report.consumer_staging_wire_bytes(),
        producer_comm_bytes: report.producer_comm_bytes(),
        producer_comm_messages: report.producer_comm_messages(),
        consumer_comm_bytes: report.consumer_comm_bytes(),
        consumer_comm_messages: report.consumer_comm_messages(),
    };
    let counters = BTreeMap::from([
        ("core.producer_sim_s", report.producer.sim_seconds),
        ("core.producer_emit_s", report.producer.emit_seconds),
        ("core.producer_stall_frac", report.producer.stall_fraction()),
        ("core.consumer_train_s", train_s),
        ("nn.iterations", iterations as f64),
        (
            "nn.iter_ms",
            if iterations > 0 {
                train_s / iterations as f64 * 1e3
            } else {
                0.0
            },
        ),
        ("core.windows_published", published as f64),
        ("core.windows_trained", trained as f64),
        ("core.windows_dropped", dropped as f64),
        ("core.windows_orphaned_lost", orphaned_lost as f64),
        ("staging.logical_bytes", report.producer.bytes as f64),
        ("staging.wire_bytes", report.staging_wire_bytes() as f64),
        ("staging.model_s", report.staging_model_seconds()),
        (
            "cluster.producer_comm_bytes",
            report.producer_comm_bytes() as f64,
        ),
        (
            "cluster.producer_comm_messages",
            report.producer_comm_messages() as f64,
        ),
        (
            "cluster.consumer_comm_bytes",
            report.consumer_comm_bytes() as f64,
        ),
        (
            "cluster.consumer_comm_messages",
            report.consumer_comm_messages() as f64,
        ),
        ("cluster.comm_model_s", report.comm_model_seconds()),
    ]);
    StreamFacts {
        tail_loss,
        train_s,
        param_hash: report.consumer.param_hash,
        counts,
        trained_windows,
        counters,
    }
}

/// A response kept for verification after the timed section.
struct Kept {
    pool_idx: u32,
    version: u64,
    outputs: Vec<f32>,
}

#[derive(Default)]
struct QueryOutcome {
    elapsed_s: f64,
    latencies_s: Vec<f64>,
    kept: Vec<Kept>,
}

/// Closed loop: each client thread walks its script, timing only the
/// `engine.query` call. All clients start together on a barrier.
fn query_phase(
    engine: &Arc<InferenceEngine>,
    inputs: &Inputs,
    installs: &[ModelSnapshot],
    tracer: Option<(&Tracer, SpanId)>,
    failures: &mut Vec<String>,
) -> QueryOutcome {
    let mix = &inputs.mix;
    let start = Barrier::new(mix.clients + 1);
    let phase = tracer.map(|(t, parent)| t.span("query_phase", parent, 0));
    let phase_id = phase.as_ref().map(|g| g.id());
    struct ClientOutcome {
        latencies_s: Vec<f64>,
        kept: Vec<Kept>,
        regressions: u64,
        unversioned: u64,
    }
    let (elapsed_s, clients) = std::thread::scope(|scope| {
        let handles: Vec<_> = inputs
            .scripts
            .iter()
            .enumerate()
            .map(|(client, script)| {
                let start = &start;
                let pool = &inputs.pool;
                scope.spawn(move || {
                    let mut out = ClientOutcome {
                        latencies_s: Vec::with_capacity(mix.queries_per_client),
                        kept: Vec::with_capacity(mix.queries_per_client / mix.verify_every + 1),
                        regressions: 0,
                        unversioned: 0,
                    };
                    let mut last_version = 0u64;
                    let mut issued = 0usize;
                    start.wait();
                    for op in script {
                        match *op {
                            Op::Install(k) => engine.install(&installs[k as usize]),
                            Op::Query(idx) => {
                                let spectrum = pool[idx as usize].clone();
                                let span = tracer.zip(phase_id).map(|((t, _), parent)| {
                                    t.span(
                                        "serve.query",
                                        parent,
                                        (client * mix.queries_per_client + issued) as u64,
                                    )
                                });
                                let t0 = Instant::now();
                                let resp = engine.query(spectrum);
                                out.latencies_s.push(t0.elapsed().as_secs_f64());
                                drop(span);
                                if resp.version < last_version {
                                    out.regressions += 1;
                                }
                                last_version = resp.version;
                                if resp.version == 0 || resp.outputs.is_empty() {
                                    out.unversioned += 1;
                                } else if issued.is_multiple_of(mix.verify_every) {
                                    out.kept.push(Kept {
                                        pool_idx: idx,
                                        version: resp.version,
                                        outputs: resp.outputs,
                                    });
                                }
                                issued += 1;
                            }
                        }
                    }
                    out
                })
            })
            .collect();
        start.wait();
        let t0 = Instant::now();
        let clients: Vec<ClientOutcome> = handles
            .into_iter()
            .map(|h| h.join().expect("a query client panicked"))
            .collect();
        (t0.elapsed().as_secs_f64(), clients)
    });
    drop(phase);

    let mut outcome = QueryOutcome {
        elapsed_s,
        ..QueryOutcome::default()
    };
    for (client, c) in clients.into_iter().enumerate() {
        if c.regressions > 0 {
            failures.push(format!(
                "client {client}: {} version regressions",
                c.regressions
            ));
        }
        if c.unversioned > 0 {
            failures.push(format!(
                "client {client}: {} responses without a snapshot version",
                c.unversioned
            ));
        }
        outcome.latencies_s.extend(c.latencies_s);
        outcome.kept.extend(c.kept);
    }
    outcome
}

/// After the timed section: every kept response must equal, bit for bit,
/// the single-version reference forward at the version it reports.
fn verify_responses(
    engine: &Arc<InferenceEngine>,
    inputs: &Inputs,
    samples: usize,
    queries: &QueryOutcome,
    failures: &mut Vec<String>,
) {
    let mut reference: BTreeMap<(u32, u64), Vec<f32>> = BTreeMap::new();
    let mut mismatched = 0u64;
    let mut unarchived = 0u64;
    for k in &queries.kept {
        let want = match reference.entry((k.pool_idx, k.version)) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => {
                let Some(served) = engine.archived(k.version) else {
                    unarchived += 1;
                    continue;
                };
                let spectrum = &inputs.pool[k.pool_idx as usize];
                e.insert(posterior_reference(
                    &served.model,
                    spectrum,
                    k.version,
                    samples,
                ))
            }
        };
        let same = want.len() == k.outputs.len()
            && want
                .iter()
                .zip(&k.outputs)
                .all(|(a, b)| a.to_bits() == b.to_bits());
        if !same {
            mismatched += 1;
        }
    }
    if mismatched > 0 {
        failures.push(format!(
            "{mismatched} of {} checked responses differ from posterior_reference",
            queries.kept.len()
        ));
    }
    if unarchived > 0 {
        failures.push(format!(
            "{unarchived} responses report a version the engine never archived"
        ));
    }
}

/// Blocking workloads stream every window in order, so two repetitions
/// of the same inputs must end in the same parameters, the same tail
/// loss and the same byte/message/iteration counts.
pub fn check_repeatability(workload: &Workload, reps: &[Repetition]) -> Vec<String> {
    let mut failures = Vec::new();
    if !workload.blocking {
        return failures;
    }
    let Some(first) = reps.first() else {
        return failures;
    };
    for (i, r) in reps.iter().enumerate().skip(1) {
        if r.param_hash != first.param_hash {
            failures.push(format!(
                "repetition {i}: param_hash {:#x} != {:#x} of repetition 0",
                r.param_hash, first.param_hash
            ));
        }
        if r.tail_loss.to_bits() != first.tail_loss.to_bits() {
            failures.push(format!(
                "repetition {i}: tail_loss {} != {} of repetition 0",
                r.tail_loss, first.tail_loss
            ));
        }
        if r.counts != first.counts {
            failures.push(format!(
                "repetition {i}: {:?} != {:?} of repetition 0",
                r.counts, first.counts
            ));
        }
    }
    failures
}
