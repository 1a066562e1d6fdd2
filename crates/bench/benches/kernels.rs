//! Criterion micro-benchmarks of the building blocks composed by the
//! figure harnesses: PIC kernels, the radiation kernel, the producer's hot
//! path against its two stated ceilings, the point-cloud losses (the
//! CD-vs-EMD cost claim), tensor contractions against their stated
//! ceiling, the learner's hot kernels and one whole training pass, INN
//! coupling blocks, the staging engine and the ring all-reduce.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use as_cluster::collective::{Collective, NetModel, SimNetComm};
use as_cluster::comm::CommWorld;
use as_cluster::machine::FRONTIER;
use as_core::config::ServingConfig;
use as_core::encode::EncodeConfig;
use as_core::snapshot::ModelSnapshot;
use as_nn::inn::Inn;
use as_nn::layers::Activation;
use as_nn::loss::{chamfer, mmd_imq, sinkhorn_emd};
use as_nn::model::{ArtificialScientistModel, ModelConfig};
use as_pic::deposit::deposit_current;
use as_pic::domain::DistributedSim;
use as_pic::gather::gather_eb;
use as_pic::grid::GridSpec;
use as_pic::khi::KhiSetup;
use as_pic::tile::{fused_push_deposit, TileAccumulator, TileGrid, TilePool};
use as_pic::tweac::TweacSetup;
use as_radiation::detector::Detector;
use as_radiation::lienard::{sin_cos_lanes, LANES};
use as_radiation::lienard::{ParticleState, RadiationAccumulator};
use as_radiation::plugin::{RadiationPlugin, RegionMode};
use as_serve::engine::{posterior_batch, InferenceEngine};
use as_staging::engine::{open_stream, StreamConfig};
use as_tensor::{matmul, matmul_a_bt, matmul_at_b, TensorRng, Workspace};

fn bench_pic_step(c: &mut Criterion) {
    let mut g = c.benchmark_group("pic_step");
    g.sample_size(10);
    for ppc in [4usize, 12] {
        let grid = GridSpec::cubic(8, 8, 4, 0.5, 0.5);
        let mut sim = TweacSetup {
            ppc,
            ..TweacSetup::default()
        }
        .build(grid);
        g.bench_with_input(BenchmarkId::new("tweac_8x8x4", ppc), &ppc, |b, _| {
            b.iter(|| {
                sim.step();
                black_box(sim.step_index);
            })
        });
    }
    let grid = GridSpec::cubic(8, 16, 4, 0.5, 0.5);
    let mut sim = KhiSetup {
        ppc: 4,
        ..KhiSetup::default()
    }
    .build(grid);
    g.bench_function("khi_8x16x4_ppc4", |b| {
        b.iter(|| {
            sim.step();
            black_box(sim.step_index);
        })
    });
    g.finish();
}

/// Fused supercell-tiled step vs the seed's push-then-serial-deposit
/// reference, same warm plasma (end to end the fused step is
/// `pic.particle_steps_per_s` in `BENCHMARK.json`).
fn bench_fused_vs_reference(c: &mut Criterion) {
    let mut g = c.benchmark_group("pic_step_pipeline");
    g.sample_size(10);
    let grid = GridSpec::cubic(16, 16, 8, 0.5, 0.5);
    let mut fused = KhiSetup {
        ppc: 8,
        ..KhiSetup::default()
    }
    .build(grid);
    g.bench_function("fused_16x16x8_ppc8", |b| {
        b.iter(|| {
            fused.step();
            black_box(fused.step_index);
        })
    });
    let mut reference = KhiSetup {
        ppc: 8,
        ..KhiSetup::default()
    }
    .build(grid);
    g.bench_function("reference_16x16x8_ppc8", |b| {
        b.iter(|| {
            reference.step_reference();
            black_box(reference.step_index);
        })
    });
    g.finish();
}

fn bench_radiation(c: &mut Criterion) {
    let mut g = c.benchmark_group("radiation_kernel");
    g.sample_size(10);
    let det = Detector::along_x(0.1, 10.0, 32);
    let particles: Vec<ParticleState> = (0..512)
        .map(|i| ParticleState {
            r: [i as f64 * 0.01, 0.0, 0.0],
            beta: [0.2, 0.01, 0.0],
            beta_dot: [0.0, 0.05, 0.0],
            weight: 1.0,
        })
        .collect();
    g.bench_function("accumulate_512p_32f", |b| {
        let mut acc = RadiationAccumulator::new(&det);
        b.iter(|| {
            acc.accumulate(&det, &particles, 1.0, 0.1);
            black_box(acc.n_freqs());
        })
    });
    g.finish();
}

/// Seconds of the fastest of `reps` calls.
fn fastest(reps: usize, mut f: impl FnMut()) -> f64 {
    (0..reps)
        .map(|_| {
            let t0 = std::time::Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// Flop of one (particle, direction, frequency) of the Liénard–Wiechert
/// update, counted from `lienard.rs`: the phase 1, the two-term argument
/// reduction with its tail 10, `z` and `z²` 2, the sine polynomial and its
/// assembly 18, the cosine's 21, the six amplitude multiply-adds 12.
const LW_FLOP: f64 = 64.0;

/// The producer's hot path at one `sim_bound` slab (12×48×8 cells, 8 ppc,
/// electrons + ions = 73 728 macro-particles, 16 frequencies), kernel by
/// kernel and as one two-rank step, and how far its two halves sit from
/// their ceilings: the fused tile pass from a `copy_from_slice` bandwidth
/// probe, the radiation sum from the no-FMA SSE2 arithmetic rate. Run with
/// `RAYON_NUM_THREADS=1` for per-core numbers (the benchmark's setting).
fn bench_producer(c: &mut Criterion) {
    let mut g = c.benchmark_group("producer");
    g.sample_size(10);
    let slab = GridSpec::cubic(12, 48, 8, 0.5, 0.5);
    let setup = KhiSetup {
        ppc: 8,
        seed: 7,
        ..KhiSetup::default()
    };
    let mut sim = setup.build(slab);
    sim.run(4);
    let extents = slab.extents();
    let particles: usize = sim.species.iter().map(|s| s.len()).sum();
    let electrons = sim.species[0].len();

    // One tile's worth of short moves into its accumulator.
    let tiles = TileGrid::new(4, slab.nx, slab.ny, slab.nz);
    let tile = tiles.tile_box(tiles.n_tiles() / 2);
    let mut acc = TileAccumulator::default();
    acc.reset(tile);
    let mut rng = TensorRng::seeded(5);
    let unit = rng.uniform([512 * 6], 0.0, 1.0);
    let moves: Vec<[f64; 6]> = unit
        .data()
        .chunks_exact(6)
        .map(|u| {
            let u: [f64; 6] = std::array::from_fn(|i| f64::from(u[i]));
            let start = [
                (tile.x0 as f64 + u[0] * tile.ex as f64) * slab.dx,
                (tile.y0 as f64 + u[1] * tile.ey as f64) * slab.dy,
                (tile.z0 as f64 + u[2] * tile.ez as f64) * slab.dz,
            ];
            let step = |i: usize| start[i] + (u[3 + i] - 0.5) * 0.4 * slab.dt;
            [start[0], start[1], start[2], step(0), step(1), step(2)]
        })
        .collect();
    g.throughput(Throughput::Elements(moves.len() as u64));
    g.bench_function("deposit_current_tile_sink_512p", |b| {
        b.iter(|| {
            for m in &moves {
                deposit_current(
                    &mut acc, &slab, -1.0, 0.5, m[0], m[1], m[2], m[3], m[4], m[5], 0.0,
                );
            }
        })
    });
    g.bench_function("gather_eb_512p", |b| {
        b.iter(|| {
            moves.iter().fold(0.0, |s, m| {
                s + gather_eb(&sim.e, &sim.b, &slab, m[0], m[1], m[2], 0.0).0
            })
        })
    });

    let mut pool = TilePool::new();
    let mut j = sim.j.clone();
    let mut fused = |sim: &mut as_pic::sim::Simulation| {
        j.clear();
        for sp in &mut sim.species {
            fused_push_deposit(
                sp, &sim.e, &sim.b, &mut j, &slab, 0.0, extents, 4, &mut pool,
            );
        }
    };
    g.throughput(Throughput::Elements(particles as u64));
    g.bench_function("fused_tile_pass_12x48x8_ppc8", |b| {
        b.iter(|| fused(&mut sim))
    });
    let fused_s = fastest(10, || fused(&mut sim));

    let phases: Vec<[f64; LANES]> = (0..2048)
        .map(|i| std::array::from_fn(|l| (i * LANES + l) as f64 * 0.37 - 3000.0))
        .collect();
    g.throughput(Throughput::Elements((phases.len() * LANES) as u64));
    g.bench_function("sin_cos_lanes_16k", |b| {
        b.iter(|| {
            phases.iter().fold(0.0, |s, x| {
                let (sin, cos) = sin_cos_lanes(black_box(x));
                s + sin[0] + cos[LANES - 1]
            })
        })
    });
    g.bench_function("sin_cos_libm_16k", |b| {
        b.iter(|| {
            phases.iter().flatten().fold(0.0, |s, &x| {
                let (sin, cos) = black_box(x).sin_cos();
                s + sin + cos
            })
        })
    });

    let det = Detector::along_x(0.2, 20.0, 16);
    let mode = RegionMode::FlowRegions { shear_width: 0.06 };
    let mut radiation = RadiationPlugin::new(det.clone(), mode, 0);
    let pairs = (electrons * det.n_dirs() * det.n_freqs()) as f64;
    g.throughput(Throughput::Elements(pairs as u64));
    g.bench_function("accumulate_for_36864p_16f", |b| {
        b.iter(|| radiation.accumulate_for(&sim, 0.0))
    });
    let radiation_s = fastest(10, || radiation.accumulate_for(&sim, 0.0));

    // Two slab ranks in lock-step: rank 1 steps whenever rank 0 does.
    let global = GridSpec::cubic(24, 48, 8, 0.5, 0.5);
    let mut ranks = CommWorld::new(2).into_endpoints();
    let peer = ranks.pop().expect("rank 1");
    let (go, steps) = std::sync::mpsc::channel::<()>();
    let follower = std::thread::spawn(move || {
        let mut d = DistributedSim::new(peer, global, setup.all_species(&global));
        while steps.recv().is_ok() {
            d.step();
        }
    });
    let mut d = DistributedSim::new(ranks.remove(0), global, setup.all_species(&global));
    g.throughput(Throughput::Elements(d.local.particle_count() as u64));
    g.bench_function("distributed_step_2x_12x48x8_ppc8", |b| {
        b.iter(|| {
            go.send(()).expect("follower alive");
            d.step();
        })
    });
    drop(go);
    follower.join().expect("follower rank");
    g.finish();

    // Ceiling 1: bytes the fused pass must move per particle·step. The
    // particle itself: 7 SoA reads and 6 writes. Its share of the tile:
    // the six-component field view (tile + 1-cell halo, written then
    // read) and the three-component accumulator (tile + 2-cell halo:
    // zeroed, read, and added into the global field, itself read and
    // written).
    let per_tile = (particles / tiles.n_tiles() / sim.species.len()) as f64;
    let view = 6.0 * 6.0f64.powi(3) * 8.0 * 2.0;
    let accumulator = 3.0 * 8.0f64.powi(3) * 8.0 * 4.0;
    let bytes = 13.0 * 8.0 + (view + accumulator) / per_tile;
    let src = vec![1.0f64; 4 << 20];
    let mut dst = vec![0.0f64; 4 << 20];
    let copy_s = fastest(5, || {
        dst.copy_from_slice(black_box(&src));
        black_box(&mut dst);
    });
    let bandwidth = 2.0 * (src.len() * 8) as f64 / copy_s;
    let fused_ns = fused_s * 1e9 / particles as f64;
    let floor_ns = bytes / bandwidth * 1e9;
    println!(
        "producer: fused tile pass moves {bytes:.0} B per particle·step; at the \
         copy_from_slice rate {:.1} GB/s that is {floor_ns:.1} ns, measured {fused_ns:.1} ns \
         ({:.1}x the bandwidth floor)",
        bandwidth / 1e9,
        fused_ns / floor_ns
    );
    // Ceiling 2: the arithmetic of the radiation sum, in f64 — two lanes
    // per SSE2 register, so half the 8 flop/cycle `tensor` is held against.
    let pair_ns = radiation_s * 1e9 / pairs;
    match sse2_ceiling_gflops().map(|f32_peak| f32_peak / 2.0) {
        Some(peak) => println!(
            "producer: Liénard–Wiechert update is {LW_FLOP} flop per (particle, frequency); \
             at the no-FMA SSE2 f64 ceiling (4 flop/cycle) {peak:.1} GFLOP/s that is {:.2} ns, \
             measured {pair_ns:.2} ns incl. the field gather ({:.0} % of the ceiling)",
            LW_FLOP / peak,
            100.0 * LW_FLOP / peak / pair_ns
        ),
        None => println!(
            "producer: Liénard–Wiechert update is {LW_FLOP} flop per (particle, frequency), \
             measured {pair_ns:.2} ns incl. the field gather (clock not reported)"
        ),
    }
}

fn bench_losses(c: &mut Criterion) {
    let mut g = c.benchmark_group("losses");
    g.sample_size(10);
    let mut rng = TensorRng::seeded(0);
    let pred = rng.uniform([8, 256, 6], -1.0, 1.0);
    let target = rng.uniform([8, 256, 6], -1.0, 1.0);
    // Footnote 1 of the paper: EMD ≈ 4× CD batch time.
    g.bench_function("chamfer_8x256", |b| {
        b.iter(|| black_box(chamfer(&pred, &target).0))
    });
    // The training shape: 64 decoded points against a 256-point cloud.
    let decoded = rng.uniform([8, 64, 6], -1.0, 1.0);
    g.bench_function("chamfer_8x64_vs_8x256", |b| {
        b.iter(|| black_box(chamfer(&decoded, &target).0))
    });
    g.bench_function("sinkhorn_emd_8x256", |b| {
        b.iter(|| black_box(sinkhorn_emd(&pred, &target, 0.05, 15).0))
    });
    let x = rng.standard_normal([64, 32]);
    let y = rng.standard_normal([64, 32]);
    g.bench_function("mmd_imq_64x32", |b| {
        b.iter(|| black_box(mmd_imq(&x, &y, 1.0).0))
    });
    g.finish();
}

/// The ceiling `tensor::matmul` is held against, per core. The kernel's
/// contract rules out FMA and wider-than-baseline vectors, which leaves one
/// 4-wide SSE2 multiply and one 4-wide add per cycle: 8 flop. The clock is
/// the one the kernel reports, so a turbo clock or a core with a second
/// add/multiply pipe reads above 100 %.
fn sse2_ceiling_gflops() -> Option<f64> {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    let line = cpuinfo.lines().find(|l| l.starts_with("cpu MHz"))?;
    let mhz: f64 = line.split(':').nth(1)?.trim().parse().ok()?;
    Some(8.0 * mhz / 1e3)
}

/// The three matmul layouts at the encoder's 1×1-convolution shapes
/// (B·P = 2048 rows; the last is `ddp_sync`'s medium model): forward
/// `x·W`, input gradient `dy·Wᵀ`, weight gradient `xᵀ·dy`. `thrpt` is
/// GFLOP/s.
fn bench_tensor(c: &mut Criterion) {
    let mut g = c.benchmark_group("tensor");
    g.sample_size(20);
    let threads = rayon::current_num_threads();
    match sse2_ceiling_gflops() {
        Some(peak) => println!(
            "tensor: no-FMA SSE2 ceiling 8 flop/cycle = {peak:.1} GFLOP/s per core \
             at the reported clock; {threads} rayon thread(s)"
        ),
        None => println!("tensor: no-FMA SSE2 ceiling 8 flop/cycle per core (clock not reported)"),
    }
    let mut rng = TensorRng::seeded(1);
    for (m, k, n) in [
        (2048, 6, 16),
        (2048, 16, 32),
        (2048, 32, 64),
        (2048, 64, 128),
    ] {
        let (x, w, dy) = (
            rng.standard_normal([m, k]),
            rng.standard_normal([k, n]),
            rng.standard_normal([m, n]),
        );
        let shape = format!("{m}x{k}x{n}");
        g.throughput(Throughput::Elements((2 * m * k * n) as u64));
        g.bench_function(BenchmarkId::new("matmul", &shape), |b| {
            b.iter(|| black_box(matmul(&x, &w)))
        });
        g.bench_function(BenchmarkId::new("matmul_a_bt", &shape), |b| {
            b.iter(|| black_box(matmul_a_bt(&dy, &w)))
        });
        g.bench_function(BenchmarkId::new("matmul_at_b", &shape), |b| {
            b.iter(|| black_box(matmul_at_b(&x, &dy)))
        });
    }
    g.finish();
}

/// The learner's elementwise hot spot and one whole forward+backward
/// pass at the benchmark's shape (B=8, P=256, `ModelConfig::small()`).
fn bench_learner(c: &mut Criterion) {
    let mut g = c.benchmark_group("learner");
    g.sample_size(20);
    let mut rng = TensorRng::seeded(3);
    // Slope 1 keeps the data fixed over repeated in-place application (a
    // real slope would shrink it into subnormals); the select is
    // branch-free, so the slope does not change the instruction stream.
    let leaky = Activation::LeakyRelu(1.0);
    let mut act = rng.standard_normal([2048, 64]);
    let out = rng.standard_normal([2048, 64]);
    g.bench_function("leaky_relu_forward_2048x64", |b| {
        b.iter(|| {
            leaky.forward(act.data_mut());
            black_box(act.data()[0])
        })
    });
    g.bench_function("leaky_relu_backward_2048x64", |b| {
        b.iter(|| {
            leaky.backward(act.data_mut(), out.data());
            black_box(act.data()[0])
        })
    });
    let mut model = ArtificialScientistModel::new(ModelConfig::small(), 7);
    let points = rng.uniform([8, 256, 6], -1.0, 1.0);
    let spectra = rng.standard_normal([8, 16]);
    g.bench_function("accumulate_gradients_8x256", |b| {
        b.iter(|| {
            model.zero_grad();
            black_box(
                model
                    .accumulate_gradients(&points, &spectra, &mut rng)
                    .total,
            )
        })
    });
    g.finish();
}

fn bench_inn(c: &mut Criterion) {
    let mut g = c.benchmark_group("inn");
    g.sample_size(10);
    let mut rng = TensorRng::seeded(2);
    let inn = Inn::new(&mut rng, 64, 4, &[48, 48]);
    let x = rng.standard_normal([8, 64]);
    g.bench_function("forward_4blocks_d64", |b| {
        b.iter(|| black_box(inn.forward(&x, &mut Workspace::default()).0))
    });
    g.bench_function("inverse_4blocks_d64", |b| {
        b.iter(|| black_box(inn.inverse(&x, &mut Workspace::default()).0))
    });
    g.finish();
}

fn bench_staging(c: &mut Criterion) {
    let mut g = c.benchmark_group("staging");
    g.sample_size(10);
    g.bench_function("step_roundtrip_1mb", |b| {
        b.iter(|| {
            let (mut writers, mut readers) = open_stream(StreamConfig::default());
            let mut w = writers.remove(0);
            let mut r = readers.remove(0);
            let data = vec![1.0f64; 128 * 1024];
            let producer = std::thread::spawn(move || {
                w.begin_step();
                w.put_f64("x", 128 * 1024, 0, &data);
                w.end_step();
                w.close();
            });
            let mut step = r.begin_step().expect("step");
            let v = step.get_f64("x");
            black_box(v.len());
            r.end_step(step);
            producer.join().unwrap();
        })
    });
    g.finish();
}

fn bench_allreduce(c: &mut Criterion) {
    let mut g = c.benchmark_group("allreduce");
    g.sample_size(10);
    for ranks in [2usize, 4] {
        g.bench_with_input(BenchmarkId::new("ring_1m_f32", ranks), &ranks, |b, &n| {
            b.iter(|| {
                let endpoints = CommWorld::new(n).into_endpoints();
                let handles: Vec<_> = endpoints
                    .into_iter()
                    .map(|comm| {
                        std::thread::spawn(move || {
                            let mut buf = vec![comm.rank() as f32; 1 << 20];
                            comm.allreduce_sum_f32(&mut buf);
                            buf[0]
                        })
                    })
                    .collect();
                for h in handles {
                    black_box(h.join().unwrap());
                }
            })
        });
    }
    g.finish();
}

/// Seconds per 32 KiB `allreduce_sum_f32` on a two-rank Frontier-model
/// `SimNetComm` world (the slower rank of one run), and the modelled
/// seconds per call.
fn netsim_bucket_seconds(time_scale: f64, calls: usize) -> (f64, f64) {
    let model = NetModel::from_machine(&FRONTIER, 2, FRONTIER.gpus_per_node, time_scale);
    let ranks: Vec<_> = SimNetComm::world(2, model)
        .into_iter()
        .map(|comm| {
            std::thread::spawn(move || {
                let mut bucket = vec![comm.rank() as f32; 8192];
                let t0 = std::time::Instant::now();
                for _ in 0..calls {
                    comm.allreduce_sum_f32(&mut bucket);
                }
                black_box(bucket[0]);
                let wall = t0.elapsed().as_secs_f64();
                (wall, comm.modelled_comm_seconds())
            })
        })
        .collect();
    let (wall, modelled) = ranks
        .into_iter()
        .map(|h| h.join().unwrap())
        .fold((0f64, 0f64), |a, r| (a.0.max(r.0), a.1.max(r.1)));
    (wall / calls as f64, modelled / calls as f64)
}

/// Where a thread waits for something other than work, stand-alone: what
/// the OS timer makes of a microsecond delay against one pacer charge,
/// the two thread hand-offs of a serve round trip, and how much wall time
/// the netsim backend injects per modelled second (the numbers beside
/// `serve.*` and `cluster.allreduce_bucket_us` in a traced benchmark run).
fn bench_waits(_c: &mut Criterion) {
    const CALLS: usize = 2000;
    let per_call_ns = |f: &mut dyn FnMut()| {
        fastest(3, || {
            for _ in 0..CALLS {
                f()
            }
        }) / CALLS as f64
            * 1e9
    };
    let asked = std::time::Duration::from_nanos(1_400);
    let slept = per_call_ns(&mut || std::thread::sleep(asked));
    let paced = SimNetComm::world(1, NetModel::uniform(0.0, 1e9, 1.0)).remove(0);
    let charged = per_call_ns(&mut || paced.account_payload(1_400));
    println!("waits/thread_sleep_1.4us                 {slept:>10.0} ns per call");
    println!("waits/pacer_charge_1.4us                 {charged:>10.0} ns per call");

    let mut model = ArtificialScientistModel::new(ModelConfig::small(), 7);
    let snapshot = ModelSnapshot::capture(&mut model, EncodeConfig::default(), 1, 0);
    let serving = ServingConfig {
        cache_capacity: 0,
        posterior_samples: 32,
        ..ServingConfig::default()
    };
    let engine = InferenceEngine::start(serving);
    engine.install(&snapshot);
    let spectrum = TensorRng::seeded(11)
        .standard_normal([1, model.cfg.spectrum_dim])
        .data()
        .to_vec();
    let round_trip = per_call_ns(&mut || {
        black_box(engine.query(spectrum.clone()));
    });
    let forward = per_call_ns(&mut || {
        black_box(posterior_batch(&model, &[&spectrum], 1, 32));
    });
    engine.shutdown();
    println!(
        "waits/solo_query_round_trip              {:>10.1} us",
        round_trip * 1e-3
    );
    println!(
        "waits/posterior_batch_1                  {:>10.1} us",
        forward * 1e-3
    );
    println!(
        "waits: hand-off overhead = round trip − forward = {:.1} us (two thread wake-ups)",
        (round_trip - forward) * 1e-3
    );

    // Fastest of five runs a side: the two hand-offs of a bucket (≈ 50 µs)
    // dwarf the ≈ 2 µs it models, so the difference is good to ± 1–2 µs.
    let best = |time_scale: f64| {
        (0..5)
            .map(|_| netsim_bucket_seconds(time_scale, CALLS))
            .fold((f64::INFINITY, 0.0), |a, r| (a.0.min(r.0), r.1))
    };
    let (recorded, _) = best(0.0);
    let (injecting, modelled) = best(1.0);
    println!(
        "waits/netsim_allreduce_32k/time_scale_0  {:>10.1} us",
        recorded * 1e6
    );
    println!(
        "waits/netsim_allreduce_32k/time_scale_1  {:>10.1} us",
        injecting * 1e6
    );
    println!(
        "waits: injected {:.2} us per call for {:.2} us modelled — injected ÷ modelled = {:.2}",
        (injecting - recorded) * 1e6,
        modelled * 1e6,
        (injecting - recorded) / modelled
    );
}

criterion_group!(
    benches,
    bench_pic_step,
    bench_fused_vs_reference,
    bench_radiation,
    bench_producer,
    bench_losses,
    bench_tensor,
    bench_learner,
    bench_inn,
    bench_staging,
    bench_allreduce,
    bench_waits
);
criterion_main!(benches);
