//! The traced layer walk.
//!
//! After the traced repetition, the walk pushes the same windows through
//! the public calls of each layer, in pipeline order, on one thread (plus
//! one helper thread per extra rank where a call is collective), with one
//! span per call:
//!
//! ```text
//! window ─ pic.step ×steps_per_sample      Simulation::step | DistributedSim::step + refresh_ghosts
//!        ─ radiation.accumulate ×steps     RadiationPlugin::accumulate_for
//!        ─ radiation.take_window           RadiationPlugin::spectra + take_window
//!        ─ openpmd.write_window            OpenPmdWriter::begin_iteration / write_* / end_iteration
//!        ─ staging.put, staging.codec_*    SstWriter::put_f64, WireCodec::encode_f64 / decode_f64_into
//!        ─ openpmd.read_window             OpenPmdReader::next_iteration*, particles_view, close_iteration
//!        ─ core.encode_window              bounding_box_view, EncodeConfig::encode_points_view / encode_spectrum
//!        ─ replay.push ×samples            TrainingBuffer::push
//!        ─ iteration ×n_rep ─ replay.sample_batch, core.batch_to_tensors,
//!                             nn.forward_backward, nn.optimizer
//!                           ─ core.snapshot_capture, serve.install (every publish_every)
//!        ─ nn.forward, nn.param_hash       ArtificialScientistModel::evaluate, param_hash
//! serve  ─ serve.posterior_batch, serve.cache_op
//! ddp    ─ nn.grad_sync, cluster.allreduce_bucket, cluster.broadcast   (learner worlds of 2+ ranks)
//! ```
//!
//! A layer's reported time is the median self time per unit of work. The
//! walk is valid only if it did the coupled run's work: windows, bytes,
//! samples and iterations must equal the traced repetition's counters.
//! `trace.walk_coverage` then says how much of the coupled run's measured
//! busy time (producer sim + emit − stall, learner train) the walk's
//! spans account for.

use crate::coupled::{Inputs, Repetition};
use crate::stats;
use crate::trace::{median_self_s, self_seconds_by_name, total_self_s, SpanId, Tracer, ROOT};
use as_cluster::collective::{Collective, NetModel, SimNetComm};
use as_cluster::comm::CommWorld;
use as_core::config::{CommBackend, Placement, WorkflowConfig};
use as_core::consumer::bounding_box_view;
use as_core::encode::{batch_to_tensors, encoder_rng, Sample};
use as_core::snapshot::ModelSnapshot;
use as_nn::ddp::{param_hash, sync_gradients_bucketed};
use as_nn::model::{ArtificialScientistModel, ModelOptimizer};
use as_openpmd::attribute::{UnitDimension, Value};
use as_openpmd::reader::{IterationData, OpenPmdReader};
use as_openpmd::writer::OpenPmdWriter;
use as_pic::diag::FlowRegion;
use as_pic::domain::DistributedSim;
use as_pic::sim::Simulation;
use as_radiation::plugin::{RadiationPlugin, RegionMode};
use as_radiation::spectrum::Spectrum;
use as_replay::buffer::TrainingBuffer;
use as_serve::{cache_key, posterior_batch, InferenceEngine, PosteriorCache};
use as_staging::engine::{open_stream, SstReader, SstWriter, StreamConfig};
use as_tensor::{matmul, Tensor, TensorRng};
use std::collections::BTreeMap;
use std::collections::BTreeSet;

pub struct Walked {
    /// Every `metrics::WALK` entry except `trace.overhead_frac`, which
    /// the caller knows.
    pub metrics: BTreeMap<&'static str, f64>,
    pub failures: Vec<String>,
}

/// Calls per span in the two places where one call is too short to time
/// on its own (a cache operation, a skipped step).
const CACHE_OPS_PER_SPAN: usize = 256;
const SKIPPED_STEPS_PER_SPAN: u64 = 63;
/// Calls of each serve-side and collective operation the walk times.
const SERVE_CALLS: usize = 64;
const COLLECTIVE_CALLS: usize = 32;
const MATMUL_CALLS: usize = 32;

pub fn layer_walk(inputs: &Inputs, traced: &Repetition, tracer: &Tracer) -> Walked {
    let cfg = &inputs.cfg;
    let algo = cfg.collective_algo;
    match cfg.backend {
        CommBackend::InProcess => walk_on(inputs, traced, tracer, |n| {
            CommWorld::with_algo(n, algo).into_endpoints()
        }),
        CommBackend::NetSim {
            machine,
            time_scale,
        } => {
            // The same node map `run_workflow` gives an intra-node run:
            // each group packs half a node's GCDs per node from node 0.
            assert_eq!(
                cfg.placement,
                Placement::IntraNode,
                "the walk models the intra-node placement only"
            );
            let gpus = machine.gpus_per_node.max(1);
            walk_on(inputs, traced, tracer, move |n| {
                let model = NetModel::from_machine_placed(
                    &machine,
                    n,
                    (gpus / 2).max(1),
                    gpus,
                    0,
                    time_scale,
                );
                SimNetComm::world_with_algo(n, model, algo)
            })
        }
    }
}

fn walk_on<C: Collective + 'static>(
    inputs: &Inputs,
    traced: &Repetition,
    tracer: &Tracer,
    make_world: impl Fn(usize) -> Vec<C>,
) -> Walked {
    let cfg = &inputs.cfg;
    let root = tracer.span("walk", ROOT, 0);
    let pipeline = walk_pipeline(inputs, traced, tracer, root.id(), &make_world);
    walk_serve(inputs, &pipeline.model, tracer, root.id());
    if matches!(
        cfg.policy,
        as_core::config::ConsumerPolicy::DropSteps { .. }
    ) {
        walk_skips(tracer, root.id());
    }
    if cfg.consumers > 1 {
        walk_collectives(cfg, tracer, root.id(), make_world(cfg.consumers));
    }
    let matmul_flop = walk_matmul(cfg, tracer, root.id());
    drop(root);

    let by_name = self_seconds_by_name(&tracer.spans());
    let med_ms = |name: &str| median_self_s(&by_name, name) * 1e3;
    let med_us = |name: &str| median_self_s(&by_name, name) * 1e6;
    // Work per unit ÷ median seconds per unit, in millions per second
    // (MB/s for bytes; GFLOP/s when handed flop / 1e3).
    let rate = |work_per_unit: f64, name: &str| {
        let s = median_self_s(&by_name, name);
        if s > 0.0 {
            work_per_unit / 1e6 / s
        } else {
            0.0
        }
    };
    let step_s = median_self_s(&by_name, "pic.step");

    // ---- validity: the walk did the coupled run's work ----
    let mut failures = Vec::new();
    let want = &traced.counts;
    let got = &pipeline;
    for (what, walked, coupled) in [
        (
            "windows published",
            got.windows_published,
            want.windows_published,
        ),
        ("windows trained", got.windows_trained, want.windows_trained),
        ("logical bytes", got.logical_bytes, want.logical_bytes),
        ("samples", got.samples, want.samples),
        ("iterations", got.iterations, want.iterations),
    ] {
        if walked != coupled {
            failures.push(format!(
                "layer walk: {what} {walked} != {coupled} of the traced repetition"
            ));
        }
    }

    // ---- coverage: walk spans vs the program's own busy-time counters ----
    let total = |name: &str| total_self_s(&by_name, name);
    let mut explained = total("pic.step")
        + total("radiation.accumulate")
        + total("radiation.take_window")
        + total("openpmd.write_window")
        + total("replay.sample_batch")
        + total("core.batch_to_tensors")
        + total("nn.forward_backward")
        + total("nn.optimizer");
    if cfg.consumers > 1 {
        // The DDP learner also syncs gradients inside its timed section.
        explained += median_self_s(&by_name, "nn.grad_sync") * got.iterations as f64;
    }
    let c = &traced.counters;
    let producer_busy = (c["core.producer_sim_s"] + c["core.producer_emit_s"])
        * (1.0 - c["core.producer_stall_frac"]);
    let measured = producer_busy + c["core.consumer_train_s"];

    let metrics = BTreeMap::from([
        ("pic.step_ms", step_s * 1e3),
        (
            "pic.particle_steps_per_s",
            if step_s > 0.0 {
                pipeline.particles as f64 / step_s
            } else {
                0.0
            },
        ),
        ("radiation.accumulate_ms", med_ms("radiation.accumulate")),
        ("radiation.take_window_ms", med_ms("radiation.take_window")),
        ("openpmd.write_window_ms", med_ms("openpmd.write_window")),
        ("openpmd.read_window_ms", med_ms("openpmd.read_window")),
        (
            "staging.put_mb_per_s",
            rate(pipeline.put_bytes_per_window, "staging.put"),
        ),
        (
            "staging.codec_encode_mb_per_s",
            rate(pipeline.codec_bytes_per_window, "staging.codec_encode"),
        ),
        (
            "staging.codec_decode_mb_per_s",
            rate(pipeline.codec_bytes_per_window, "staging.codec_decode"),
        ),
        (
            "staging.skip_step_us",
            med_us("staging.skip_steps") / SKIPPED_STEPS_PER_SPAN as f64,
        ),
        ("core.encode_window_ms", med_ms("core.encode_window")),
        ("core.batch_to_tensors_ms", med_ms("core.batch_to_tensors")),
        ("replay.push_us", med_us("replay.push")),
        ("replay.sample_batch_us", med_us("replay.sample_batch")),
        ("nn.forward_ms", med_ms("nn.forward")),
        ("nn.forward_backward_ms", med_ms("nn.forward_backward")),
        ("nn.optimizer_ms", med_ms("nn.optimizer")),
        ("nn.param_hash_ms", med_ms("nn.param_hash")),
        (
            "tensor.matmul_gflops",
            rate(matmul_flop / 1e3, "tensor.matmul"),
        ),
        ("nn.grad_sync_ms", med_ms("nn.grad_sync")),
        (
            "cluster.allreduce_bucket_us",
            med_us("cluster.allreduce_bucket"),
        ),
        ("cluster.broadcast_us", med_us("cluster.broadcast")),
        ("core.snapshot_capture_ms", med_ms("core.snapshot_capture")),
        ("serve.install_ms", med_ms("serve.install")),
        ("serve.posterior_batch_ms", med_ms("serve.posterior_batch")),
        (
            "serve.cache_op_us",
            med_us("serve.cache_ops") / CACHE_OPS_PER_SPAN as f64,
        ),
        (
            "trace.walk_coverage",
            if measured > 0.0 {
                explained / measured
            } else {
                0.0
            },
        ),
    ]);
    Walked { metrics, failures }
}

/// What the pipeline stage of the walk did, for the validity check.
struct Pipeline {
    model: ArtificialScientistModel,
    windows_published: u64,
    windows_trained: u64,
    logical_bytes: u64,
    samples: u64,
    iterations: u64,
    /// Macro-particles of all species in the whole box.
    particles: usize,
    /// Logical bytes per `staging.put` span and per codec span.
    put_bytes_per_window: f64,
    codec_bytes_per_window: f64,
}

/// The plasma of one producer rank: the whole box, or one slab of it.
enum Plasma<C: Collective> {
    Whole(Box<Simulation>),
    Slab(Box<DistributedSim<C>>),
}

impl<C: Collective> Plasma<C> {
    fn step(&mut self) {
        match self {
            Plasma::Whole(sim) => sim.step(),
            Plasma::Slab(d) => {
                d.step();
                // The radiation gather needs fresh halos.
                d.refresh_ghosts();
            }
        }
    }

    fn local(&self) -> &Simulation {
        match self {
            Plasma::Whole(sim) => sim,
            Plasma::Slab(d) => &d.local,
        }
    }

    /// Global x cell index where the local fields start.
    fn origin(&self) -> f64 {
        match self {
            Plasma::Whole(_) => 0.0,
            Plasma::Slab(d) => d.offset_cells as f64,
        }
    }

    /// Agree this rank's block of the global electron array and merge the
    /// radiation amplitudes across ranks; `(global_n, offset)`.
    fn window_layout(&self, radiation: &mut RadiationPlugin) -> (u64, u64) {
        let local_n = self.local().species[0].len() as u64;
        match self {
            Plasma::Whole(_) => (local_n, 0),
            Plasma::Slab(d) => {
                let counts: Vec<u64> = d.comm().allgather(local_n);
                for acc in radiation.accumulators_mut() {
                    d.comm().allreduce_sum_f64(acc.amplitudes_mut());
                }
                (counts.iter().sum(), counts[..d.rank()].iter().sum())
            }
        }
    }

    /// Wait until every producer rank has published its block.
    fn barrier(&self) {
        if let Plasma::Slab(d) = self {
            d.comm().barrier();
        }
    }
}

/// One producer rank's side of the walk: step, accumulate, emit.
struct ProducerRank<'a, C: Collective> {
    cfg: &'a WorkflowConfig,
    tracer: &'a Tracer,
    plasma: Plasma<C>,
    radiation: RadiationPlugin,
    pw: OpenPmdWriter,
    rw: OpenPmdWriter,
    step: u64,
}

impl<'a, C: Collective> ProducerRank<'a, C> {
    fn new(
        cfg: &'a WorkflowConfig,
        tracer: &'a Tracer,
        comm: Option<C>,
        pw: SstWriter,
        rw: SstWriter,
    ) -> Self {
        let plasma = match comm {
            None => Plasma::Whole(Box::new(cfg.khi.build(cfg.grid))),
            Some(comm) => Plasma::Slab(Box::new(DistributedSim::new(
                comm,
                cfg.grid,
                cfg.khi.all_species(&cfg.grid),
            ))),
        };
        let radiation = RadiationPlugin::new(
            cfg.detector.clone(),
            RegionMode::FlowRegions {
                shear_width: cfg.shear_width,
            },
            0,
        );
        Self {
            cfg,
            tracer,
            plasma,
            radiation,
            pw: OpenPmdWriter::new(pw),
            rw: OpenPmdWriter::new(rw),
            step: 0,
        }
    }

    /// Simulate and publish window `w` under `parent`.
    fn produce_window(&mut self, w: u64, parent: SpanId) {
        let t = self.tracer;
        for _ in 0..self.cfg.steps_per_sample {
            t.record("pic.step", parent, self.step, || self.plasma.step());
            let (sim, origin) = (self.plasma.local(), self.plasma.origin());
            t.record("radiation.accumulate", parent, self.step, || {
                self.radiation.accumulate_for(sim, origin)
            });
            self.step += 1;
        }
        let (global_n, offset) = self.plasma.window_layout(&mut self.radiation);
        let spectra = t.record("radiation.take_window", parent, w, || {
            self.radiation.spectra()
        });
        t.record("openpmd.write_window", parent, w, || {
            self.write_window(global_n, offset, &spectra)
        });
        t.record("radiation.take_window", parent, w, || {
            self.radiation.take_window()
        });
        self.plasma.barrier();
    }

    /// The producer's emission of one window, on both streams.
    fn write_window(&mut self, global_n: u64, offset: u64, spectra: &[Vec<Spectrum>]) {
        let cfg = self.cfg;
        let sim = self.plasma.local();
        let sp = &sim.species[0];
        let units = as_pic::units::UnitSystem::paper();
        let p_si = as_pic::units::M_E * as_pic::units::C;
        let pw = &mut self.pw;
        pw.begin_iteration(sim.step_index, sim.time, sim.spec.dt);
        pw.set_attribute("beta", Value::F64(cfg.khi.beta));
        let length = (UnitDimension::length(), units.skin_depth);
        let momentum = (UnitDimension::momentum(), p_si);
        for (record, component, (dim, unit_si), data) in [
            ("position", "x", length, &sp.x),
            ("position", "y", length, &sp.y),
            ("position", "z", length, &sp.z),
            ("momentum", "x", momentum, &sp.ux),
            ("momentum", "y", momentum, &sp.uy),
            ("momentum", "z", momentum, &sp.uz),
            ("weighting", "w", (UnitDimension::none(), 1.0), &sp.w),
        ] {
            pw.write_particles("e", record, component, dim, unit_si, global_n, offset, data);
        }
        pw.end_iteration();

        let rw = &mut self.rw;
        rw.begin_iteration(sim.step_index, sim.time, sim.spec.dt);
        if rw.rank() == 0 {
            for (r, region) in spectra.iter().enumerate() {
                let flat: Vec<f32> = region
                    .iter()
                    .flat_map(|dir| dir.intensity.iter().map(|&v| v as f32))
                    .collect();
                let name = format!("radiation/region{r}/intensity");
                rw.write_f32_array(&name, flat.len() as u64, 0, &flat);
            }
            rw.set_attribute("n_regions", Value::I64(spectra.len() as i64));
            rw.set_attribute(
                "window_steps",
                Value::I64(self.radiation.window_len() as i64),
            );
        }
        rw.end_iteration();
    }

    /// Close both streams; this rank's published payload bytes.
    fn finish(mut self) -> u64 {
        self.pw.close();
        self.rw.close();
        self.pw.bytes_published() + self.rw.bytes_published()
    }
}

/// The learner's side of the walk: read, encode, buffer, train, publish.
struct Learner<'a> {
    cfg: &'a WorkflowConfig,
    tracer: &'a Tracer,
    p_reader: OpenPmdReader,
    r_reader: OpenPmdReader,
    model: ArtificialScientistModel,
    opt: ModelOptimizer,
    buffer: TrainingBuffer<Sample>,
    enc_rng: rand::rngs::StdRng,
    train_rng: TensorRng,
    eval_rng: TensorRng,
    engine: std::sync::Arc<InferenceEngine>,
    samples: u64,
    iterations: u64,
    version: u64,
}

impl Learner<'_> {
    /// Consume stream step `w` (skipping any older unread steps, as the
    /// `DropSteps` consumer does) and train `n_rep` iterations on it.
    fn train_on_window(&mut self, w: u64, parent: SpanId) {
        let t = self.tracer;
        let cfg = self.cfg;
        let (mut p_it, mut r_it) = t.record("openpmd.read_window", parent, w, || {
            let (_, p) = self.p_reader.next_iteration_at_least(w);
            let (_, r) = self.r_reader.next_iteration_at_least(w);
            (
                p.expect("the producer published this window"),
                r.expect("the producer published this window"),
            )
        });
        let fresh = self.encode_window(&mut p_it, &mut r_it, w, parent);
        t.record("openpmd.read_window", parent, w, || {
            self.p_reader.close_iteration(p_it);
            self.r_reader.close_iteration(r_it);
        });
        for s in fresh {
            t.record("replay.push", parent, self.samples, || self.buffer.push(s));
            self.samples += 1;
        }

        let publish_every = cfg.serving.as_ref().map_or(u64::MAX, |s| s.publish_every);
        for _ in 0..cfg.n_rep {
            let it = self.iterations;
            let iteration = t.span("iteration", parent, it);
            let id = iteration.id();
            let batch = t.record("replay.sample_batch", id, it, || self.buffer.sample_batch());
            let (points, spectra) = t.record("core.batch_to_tensors", id, it, || {
                batch_to_tensors(&batch, &cfg.model)
            });
            t.record("nn.forward_backward", id, it, || {
                self.model.zero_grad();
                self.model
                    .accumulate_gradients(&points, &spectra, &mut self.train_rng)
            });
            t.record("nn.optimizer", id, it, || self.opt.step(&mut self.model));
            self.iterations += 1;
            if self.iterations.is_multiple_of(publish_every) {
                self.version += 1;
                let snap = t.record("core.snapshot_capture", id, self.version, || {
                    ModelSnapshot::capture(
                        &mut self.model,
                        cfg.encode,
                        self.version,
                        self.iterations,
                    )
                });
                t.record("serve.install", id, self.version, || {
                    self.engine.install(&snap)
                });
            }
            if self.iterations.is_multiple_of(u64::from(cfg.n_rep)) {
                // Once per window, off the training path: the
                // evaluation-only forward and the parameter hash.
                t.record("nn.forward", id, w, || {
                    self.model.evaluate(&points, &spectra, &mut self.eval_rng)
                });
                t.record("nn.param_hash", id, w, || param_hash(&mut self.model));
            }
        }
    }

    /// One sample per non-empty flow region, read through zero-copy views
    /// — what the consumer's per-window encode does.
    fn encode_window(
        &mut self,
        p_it: &mut IterationData,
        r_it: &mut IterationData,
        w: u64,
        parent: SpanId,
    ) -> Vec<Sample> {
        let t = self.tracer;
        let cfg = self.cfg;
        let [xs, ys, zs, uxs, uys, uzs] = t.record("openpmd.read_window", parent, w, || {
            [
                ("position", "x"),
                ("position", "y"),
                ("position", "z"),
                ("momentum", "x"),
                ("momentum", "y"),
                ("momentum", "z"),
            ]
            .map(|(record, component)| p_it.particles_view("e", record, component))
        });
        let regions = FlowRegion::all();
        let flats = t.record("openpmd.read_window", parent, w, || {
            (0..regions.len())
                .map(|r| r_it.f32_array_view(&format!("radiation/region{r}/intensity")))
                .collect::<Vec<_>>()
        });
        let step = p_it.iteration;
        t.record("core.encode_window", parent, w, || {
            let (_, ly, _) = cfg.grid.extents();
            let mut samples = Vec::new();
            for (region_idx, region) in regions.iter().enumerate() {
                let idx: Vec<usize> = (0..xs.len())
                    .filter(|&i| {
                        FlowRegion::classify(ys.get_f64(i), ly, cfg.shear_width) == *region
                    })
                    .collect();
                if idx.is_empty() {
                    continue;
                }
                let (center, half) = bounding_box_view(&xs, &ys, &zs, &idx);
                let points = cfg.encode.encode_points_view(
                    &xs,
                    &ys,
                    &zs,
                    &uxs,
                    &uys,
                    &uzs,
                    &idx,
                    center,
                    half,
                    &mut self.enc_rng,
                );
                let n_f = cfg.detector.n_freqs();
                let intensity: Vec<f64> = (0..n_f)
                    .map(|i| f64::from(flats[region_idx].get_f32(i)))
                    .collect();
                let spec = Spectrum::new(cfg.detector.frequencies.clone(), intensity);
                samples.push(Sample {
                    points,
                    spectrum: cfg.encode.encode_spectrum(&spec, cfg.model.spectrum_dim),
                    region: region_idx,
                    step,
                });
            }
            samples
        })
    }
}

/// The staging layer on its own: the window's arrays through a bare SST
/// stream, and through the wire codec directly.
struct StagingTwin {
    writer: SstWriter,
    reader: SstReader,
    codec: as_staging::codec::WireCodec,
    decoded: Vec<f64>,
}

impl StagingTwin {
    fn new(cfg: &WorkflowConfig) -> Self {
        let (mut writers, mut readers) = open_stream(StreamConfig {
            codec: cfg.wire_codec,
            plane: cfg.data_plane,
            ..StreamConfig::default()
        });
        Self {
            writer: writers.remove(0),
            reader: readers.remove(0),
            codec: cfg.wire_codec,
            decoded: Vec::new(),
        }
    }

    /// Returns the logical bytes put, and the bytes through the codec.
    fn window(
        &mut self,
        sim: &Simulation,
        tracer: &Tracer,
        w: u64,
        parent: SpanId,
    ) -> (usize, usize) {
        let sp = &sim.species[0];
        let n = sp.len() as u64;
        let arrays = [&sp.x, &sp.y, &sp.z, &sp.ux, &sp.uy, &sp.uz, &sp.w];
        self.writer.begin_step();
        tracer.record("staging.put", parent, w, || {
            for (name, data) in ["x", "y", "z", "ux", "uy", "uz", "w"].iter().zip(arrays) {
                self.writer.put_f64(name, n, 0, data);
            }
        });
        self.writer.end_step();
        let step = self
            .reader
            .begin_step()
            .expect("the step was just published");
        self.reader.end_step(step);

        let wire = tracer.record("staging.codec_encode", parent, w, || {
            self.codec.encode_f64(&sp.x)
        });
        self.decoded.resize(sp.len(), 0.0);
        tracer.record("staging.codec_decode", parent, w, || {
            self.codec
                .decode_f64_into(&wire, sp.len(), &mut self.decoded)
        });
        std::hint::black_box(&self.decoded);
        (arrays.len() * sp.len() * 8, sp.len() * 8)
    }
}

fn walk_pipeline<C: Collective + 'static>(
    inputs: &Inputs,
    traced: &Repetition,
    tracer: &Tracer,
    root: SpanId,
    make_world: &impl Fn(usize) -> Vec<C>,
) -> Pipeline {
    let cfg = &inputs.cfg;
    let windows = inputs.windows as u64;
    let sps = cfg.steps_per_sample as u64;
    // Stream step of every window the coupled run trained on.
    let trained: BTreeSet<u64> = traced
        .trained_windows
        .iter()
        .map(|it| it / sps - 1)
        .collect();

    // One reader, and a queue deep enough that the single thread that
    // both writes and reads never blocks on it.
    let stream_cfg = StreamConfig {
        writers: cfg.producers,
        readers: 1,
        queue_limit: inputs.windows + 1,
        plane: cfg.data_plane,
        codec: cfg.wire_codec,
    };
    let (mut pw, mut pr) = open_stream(stream_cfg);
    let (mut rw, mut rr) = open_stream(stream_cfg);
    let mut comms: Vec<Option<C>> = if cfg.producers == 1 {
        vec![None]
    } else {
        make_world(cfg.producers).into_iter().map(Some).collect()
    };

    let serving = cfg
        .serving
        .clone()
        .expect("workloads always configure serving");
    let engine = InferenceEngine::start(serving);
    let mut learner = Learner {
        cfg,
        tracer,
        p_reader: OpenPmdReader::new(pr.remove(0)),
        r_reader: OpenPmdReader::new(rr.remove(0)),
        model: ArtificialScientistModel::new(cfg.model.clone(), cfg.seed),
        opt: ModelOptimizer::new(cfg.adam, cfg.m_vae),
        buffer: TrainingBuffer::new(cfg.buffer, cfg.seed),
        enc_rng: encoder_rng(cfg.seed),
        train_rng: TensorRng::seeded(cfg.seed),
        eval_rng: TensorRng::seeded(cfg.seed ^ 1),
        engine: std::sync::Arc::clone(&engine),
        samples: 0,
        iterations: 0,
        version: 0,
    };
    let mut twin = StagingTwin::new(cfg);
    let mut put_bytes = Vec::new();
    let mut codec_bytes = Vec::new();

    // Ranks 1.. mirror rank 0's producer calls on helper threads (a slab
    // step is collective); their spans go to a tracer nobody reads.
    let quiet = Tracer::new();
    let (rank0_bytes, peer_bytes, particles) = std::thread::scope(|scope| {
        let peers: Vec<_> = comms
            .drain(1..)
            .zip(pw.drain(1..).zip(rw.drain(1..)))
            .map(|(comm, (pw_i, rw_i))| {
                let quiet = &quiet;
                scope.spawn(move || {
                    let mut rank = ProducerRank::new(cfg, quiet, comm, pw_i, rw_i);
                    for w in 0..windows {
                        rank.produce_window(w, ROOT);
                    }
                    rank.finish()
                })
            })
            .collect();

        let mut rank0 = ProducerRank::new(cfg, tracer, comms.remove(0), pw.remove(0), rw.remove(0));
        let local_particles: usize = rank0.plasma.local().species.iter().map(|s| s.len()).sum();
        for w in 0..windows {
            let window = tracer.span("window", root, w);
            rank0.produce_window(w, window.id());
            let (put, codec) = twin.window(rank0.plasma.local(), tracer, w, window.id());
            put_bytes.push(put as f64);
            codec_bytes.push(codec as f64);
            if trained.contains(&w) {
                learner.train_on_window(w, window.id());
            }
        }
        let rank0_bytes = rank0.finish();
        let peer_bytes: u64 = peers
            .into_iter()
            .map(|h| h.join().expect("a producer helper rank panicked"))
            .sum();
        // Slabs hold equal shares of the box at start; the count is the
        // box's, to compare particle-steps per second across topologies.
        (rank0_bytes, peer_bytes, local_particles * cfg.producers)
    });
    // Untrained windows left at the tail: close them like the consumer.
    let _ = learner.p_reader.next_iteration_at_least(u64::MAX);
    let _ = learner.r_reader.next_iteration_at_least(u64::MAX);
    engine.shutdown();

    Pipeline {
        windows_published: learner.p_reader.published_steps(),
        windows_trained: trained.len() as u64,
        logical_bytes: rank0_bytes + peer_bytes,
        samples: learner.samples,
        iterations: learner.iterations,
        particles,
        put_bytes_per_window: stats::median(&put_bytes),
        codec_bytes_per_window: stats::median(&codec_bytes),
        model: learner.model,
    }
}

/// The serve layer: batched posterior forwards at the engine's batch
/// size, and the LRU cache's hit / miss / insert mix.
fn walk_serve(inputs: &Inputs, model: &ArtificialScientistModel, tracer: &Tracer, root: SpanId) {
    let serving = inputs.cfg.serving.clone().expect("serving is configured");
    let pool = &inputs.pool;
    for call in 0..SERVE_CALLS {
        let spectra: Vec<&[f32]> = (0..serving.max_batch)
            .map(|k| pool[(call * serving.max_batch + k) % pool.len()].as_slice())
            .collect();
        let out = tracer.record("serve.posterior_batch", root, call as u64, || {
            posterior_batch(model, &spectra, 1, serving.posterior_samples)
        });
        std::hint::black_box(out);
    }
    let mut cache = PosteriorCache::new(serving.cache_capacity);
    let keys: Vec<u64> = pool.iter().map(|s| cache_key(s, 1)).collect();
    let summary = vec![0.0f32; 12];
    let mut next = 0usize;
    for span in 0..SERVE_CALLS {
        tracer.record("serve.cache_ops", root, span as u64, || {
            // The engine's pattern: look up; on a miss, insert.
            for _ in 0..CACHE_OPS_PER_SPAN / 2 {
                let key = keys[next % keys.len()];
                next += 1;
                if cache.get(key).is_none() {
                    cache.insert(key, summary.clone());
                }
                std::hint::black_box(cache.get(key));
            }
        });
    }
}

/// `begin_step_at_least` closing a backlog of unread steps in one call —
/// the `DropSteps` skip-ahead — on a bare stream of one-value steps.
fn walk_skips(tracer: &Tracer, root: SpanId) {
    for round in 0..8u64 {
        let (mut writers, mut readers) = open_stream(StreamConfig {
            queue_limit: SKIPPED_STEPS_PER_SPAN as usize + 2,
            ..StreamConfig::default()
        });
        let (mut w, mut r) = (writers.remove(0), readers.remove(0));
        for _ in 0..=SKIPPED_STEPS_PER_SPAN {
            w.begin_step();
            w.put_f64("v", 1, 0, &[1.0]);
            w.end_step();
        }
        let (skipped, step) = tracer.record("staging.skip_steps", root, round, || {
            r.begin_step_at_least(SKIPPED_STEPS_PER_SPAN)
        });
        assert_eq!(skipped, SKIPPED_STEPS_PER_SPAN);
        r.end_step(step.expect("the target step was published"));
        w.close();
    }
}

/// The learner group's collectives on a world of the workload's backend:
/// bucketed gradient sync over the whole model, one bucket's all-reduce,
/// and the small metadata broadcast of a snapshot publish.
fn walk_collectives<C: Collective + 'static>(
    cfg: &WorkflowConfig,
    tracer: &Tracer,
    root: SpanId,
    world: Vec<C>,
) {
    std::thread::scope(|scope| {
        for comm in world {
            scope.spawn(move || {
                let quiet = Tracer::new();
                let t = if comm.rank() == 0 { tracer } else { &quiet };
                let mut model = ArtificialScientistModel::new(cfg.model.clone(), cfg.seed);
                let mut bucket = vec![1.0f32; cfg.grad_bucket];
                for call in 0..COLLECTIVE_CALLS as u64 {
                    // Line the ranks up so a span times the collective,
                    // not a peer's lateness.
                    comm.barrier();
                    t.record("nn.grad_sync", root, call, || {
                        sync_gradients_bucketed(&comm, &mut model, cfg.grad_bucket)
                    });
                    comm.barrier();
                    t.record("cluster.allreduce_bucket", root, call, || {
                        comm.allreduce_sum_f32(&mut bucket)
                    });
                    comm.barrier();
                    let meta = (comm.rank() == 0).then_some((call, call));
                    t.record("cluster.broadcast", root, call, || comm.broadcast(0, meta));
                    bucket.fill(1.0);
                }
            });
        }
    });
}

/// `tensor::matmul` at the model's largest shape — the last encoder
/// 1×1 convolution over a full batch of point clouds. Returns the
/// computed 2·m·n·k of one call (no hardware counter is read).
fn walk_matmul(cfg: &WorkflowConfig, tracer: &Tracer, root: SpanId) -> f64 {
    let channels = &cfg.model.vae.encoder_channels;
    let m = cfg.buffer.batch_size() * cfg.encode.sample_points;
    let (k, n) = (channels[channels.len() - 2], channels[channels.len() - 1]);
    let mut rng = TensorRng::seeded(cfg.seed);
    let a = rng.standard_normal([m, k]);
    let b = rng.standard_normal([k, n]);
    for call in 0..MATMUL_CALLS as u64 {
        let c: Tensor = tracer.record("tensor.matmul", root, call, || matmul(&a, &b));
        std::hint::black_box(c);
    }
    2.0 * (m * n * k) as f64
}
