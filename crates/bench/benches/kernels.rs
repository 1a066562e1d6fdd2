//! Criterion micro-benchmarks of the building blocks composed by the
//! figure harnesses: PIC kernels, the radiation kernel, the producer's hot
//! path against its two stated ceilings, the point-cloud losses (the
//! CD-vs-EMD cost claim), tensor contractions against their stated
//! ceiling, the learner's hot kernels and one whole training pass, its
//! bookkeeping (parameter hash, snapshot publish) against the copy rate,
//! INN coupling blocks, the staging engine and the ring all-reduce.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use as_cluster::collective::{Collective, NetModel, SimNetComm};
use as_cluster::comm::CommWorld;
use as_cluster::machine::FRONTIER;
use as_core::config::ServingConfig;
use as_core::encode::EncodeConfig;
use as_core::snapshot::ModelSnapshot;
use as_nn::ddp::param_hash;
use as_nn::inn::Inn;
use as_nn::layers::Activation;
use as_nn::loss::{chamfer, mmd_imq, sinkhorn_emd};
use as_nn::model::{ArtificialScientistModel, ModelConfig};
use as_pic::deposit::deposit_current;
use as_pic::domain::DistributedSim;
use as_pic::gather::gather_eb;
use as_pic::grid::GridSpec;
use as_pic::khi::KhiSetup;
use as_pic::lanes::Lanes;
use as_pic::tile::{fused_push_deposit, FieldPatch, TileAccumulator, TileGrid, TilePool, LANES};
use as_pic::tweac::TweacSetup;
use as_radiation::detector::Detector;
use as_radiation::lienard::{sin_cos_lanes, LANES as SIN_COS_LANES};
use as_radiation::lienard::{ParticleState, RadiationAccumulator};
use as_radiation::plugin::{particle_states, RadiationPlugin, RegionMode};
use as_serve::engine::{posterior_batch, InferenceEngine};
use as_staging::engine::{open_stream, StreamConfig};
use as_tensor::{matmul, matmul_a_bt, matmul_at_b, Tensor, TensorRng, Workspace};

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

/// Bytes per second a `copy_from_slice` of `bytes` moves, reads and
/// writes counted: the memory ceiling of the producer and bookkeeping
/// lines (32 MiB streams from memory; a model-sized copy stays in cache).
fn copy_rate(bytes: usize) -> f64 {
    let src = vec![1.0f64; bytes / 8];
    let mut dst = vec![0.0f64; bytes / 8];
    let reps = if bytes >= 1 << 24 { 5 } else { 50 };
    let copy_s = fastest(reps, || {
        dst.copy_from_slice(black_box(&src));
        black_box(&mut dst);
    });
    2.0 * (src.len() * 8) as f64 / copy_s
}

/// Flop of one particle of the fused tile pass, counted from the code
/// (+, −, ×, ÷, √; a lane floor is 3; compares and selects are not
/// counted): the escape check 6; the gather's supports 36 and its six
/// trilinear sums 204; Boris 61; γ and the move 16; the deposit's cell
/// coordinates 8, its zigzag split 66 (per axis two floors, the end clamp
/// and the relay 12, two midpoint offsets 6, two displacements and two
/// weight pairs 4), `qw` and the current factors 10, the 24 current
/// values 90 (per segment and component 3 for the amplitude and the cross
/// term, 3 per node) and 24 accumulator adds.
const FUSED_FLOP: f64 = 521.0;

/// Divisions of one particle of the fused pass, counted from the code: 6
/// in Boris, 3 in the move, 6 cell coordinates (start and end of the
/// move), 4 for `qw` and the three current factors.
const FUSED_DIV: usize = 19;

/// Flop of one (particle, direction, frequency) of the Liénard–Wiechert
/// update, counted from `lienard.rs`: the phase 1, the two-term argument
/// reduction with its tail 10, `z` and `z²` 2, the sine polynomial and its
/// assembly 18, the cosine's 21, the six amplitude multiply-adds 12.
const LW_FLOP: f64 = 64.0;

/// The producer's hot path at one `sim_bound` slab (12×48×8 cells, 8 ppc,
/// electrons + ions = 73 728 macro-particles, 16 frequencies), kernel by
/// kernel and as one two-rank step, and how far its two halves sit from
/// their ceilings: the fused tile pass from a `copy_from_slice` bandwidth
/// probe, the radiation sum from the no-FMA arithmetic rate of the instance
/// it runs. Run with `RAYON_NUM_THREADS=1` for per-core numbers (the
/// benchmark's setting).
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
    // The same positions LANES at a time over the tile's cached view (the
    // fused pass).
    let groups: Vec<[Lanes<LANES>; 3]> = moves
        .chunks_exact(LANES)
        .map(|m| std::array::from_fn(|a| Lanes::from_fn(|l| m[l][a])))
        .collect();
    let mut patch = FieldPatch::default();
    patch.load(&sim.e, &sim.b, tile);
    g.bench_function("gather_lanes_patch_512p", |b| {
        b.iter(|| {
            groups.iter().fold(0.0, |s, &r| {
                // SAFETY: every move starts inside `tile`.
                s + unsafe { patch.gather(&slab, r, 0.0) }[0].0[0]
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

    let phases: Vec<[f64; SIN_COS_LANES]> = (0..2048)
        .map(|i| std::array::from_fn(|l| (i * SIN_COS_LANES + l) as f64 * 0.37 - 3000.0))
        .collect();
    g.throughput(Throughput::Elements((phases.len() * SIN_COS_LANES) as u64));
    g.bench_function("sin_cos_lanes_16k", |b| {
        b.iter(|| {
            phases.iter().fold(0.0, |s, x| {
                let (sin, cos) = sin_cos_lanes(black_box(x));
                s + sin[0] + cos[SIN_COS_LANES - 1]
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
    // `accumulate_for` in its two halves: the particle states (ten loads,
    // β and β̇ from the momenta after and before the push), then the sum
    // over states computed beforehand.
    g.throughput(Throughput::Elements(electrons as u64));
    g.bench_function("accumulate_for_states_36864p", |b| {
        b.iter(|| {
            (0..electrons).step_by(LANES).fold(0.0, |s, i| {
                let at: [usize; LANES] = std::array::from_fn(|l| (i + l).min(electrons - 1));
                s + particle_states(&sim, 0, at)[0].beta_dot[0]
            })
        })
    });
    let states: Vec<ParticleState> = (0..electrons)
        .map(|i| as_radiation::plugin::particle_state(&sim, 0, i))
        .collect();
    let mut sum = RadiationAccumulator::new(&det);
    g.throughput(Throughput::Elements(pairs as u64));
    g.bench_function("accumulate_for_sum_36864p_16f", |b| {
        b.iter(|| sum.accumulate(&det, &states, sim.time, slab.dt))
    });

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
    // particle itself: 7 SoA reads and 9 writes (the new phase space and
    // the momentum before the push). Its share of the tile:
    // the six-component field view (tile + 1-cell halo, written then
    // read) and the three-component accumulator (tile + 2-cell halo:
    // zeroed, read, and added into the global field, itself read and
    // written).
    let per_tile = (particles / tiles.n_tiles() / sim.species.len()) as f64;
    let view = 6.0 * 6.0f64.powi(3) * 8.0 * 2.0;
    let accumulator = 3.0 * 8.0f64.powi(3) * 8.0 * 4.0;
    let bytes = 16.0 * 8.0 + (view + accumulator) / per_tile;
    let bandwidth = copy_rate(32 << 20);
    let fused_ns = fused_s * 1e9 / particles as f64;
    let floor_ns = bytes / bandwidth * 1e9;
    println!(
        "producer: fused tile pass moves {bytes:.0} B per particle·step; at the \
         copy_from_slice rate {:.1} GB/s that is {floor_ns:.1} ns, measured {fused_ns:.1} ns \
         ({:.1}x the bandwidth floor)",
        bandwidth / 1e9,
        fused_ns / floor_ns
    );
    // The same pass against the arithmetic ceiling, LANES particles at a
    // time, on the instance that ran (the pass is one of the dispatch
    // sites): two f64 lanes per SSE2 register, four per AVX2 one.
    let (instance, f32_flop) = live_instance();
    let f64_flop = f32_flop / 2.0;
    match clock_ghz() {
        Some(ghz) => println!(
            "producer: fused tile pass {fused_ns:.1} ns/particle, {FUSED_FLOP} flop and \
             {FUSED_DIV} divisions per particle (counted from the code) = {:.2} flop/cycle at \
             {ghz:.2} GHz against the {instance} instance's no-FMA f64 ceiling of {f64_flop} \
             ({:.0} %), {LANES} particles per lane group",
            FUSED_FLOP / (fused_ns * ghz),
            100.0 * FUSED_FLOP / (fused_ns * ghz) / f64_flop
        ),
        None => println!(
            "producer: fused tile pass {fused_ns:.1} ns/particle, {FUSED_FLOP} flop and \
             {FUSED_DIV} divisions per particle (counted from the code; {instance} instance, \
             clock not reported)"
        ),
    }
    // Ceiling 2: the arithmetic of the radiation sum, in f64 — half the
    // f32 rate `tensor` is held against, on the same instance.
    let pair_ns = radiation_s * 1e9 / pairs;
    match clock_ghz().map(|ghz| ghz * f64_flop) {
        Some(peak) => println!(
            "producer: Liénard–Wiechert update is {LW_FLOP} flop per (particle, frequency); \
             at the {instance} instance's no-FMA f64 ceiling ({f64_flop} flop/cycle) \
             {peak:.1} GFLOP/s that is {:.2} ns, measured {pair_ns:.2} ns incl. the particle \
             states ({:.0} % of the ceiling)",
            LW_FLOP / peak,
            100.0 * LW_FLOP / peak / pair_ns
        ),
        None => println!(
            "producer: Liénard–Wiechert update is {LW_FLOP} flop per (particle, frequency), \
             measured {pair_ns:.2} ns incl. the particle states on the {instance} instance \
             (clock not reported)"
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

/// The compilation of the learner's kernels, the fused PIC pass and the
/// radiation sum this CPU runs (the condition their entries test), and its ceiling in f32
/// flop per cycle and core. The bit contract rules out FMA, not width:
/// one packed multiply and one packed add per cycle, 4 + 4 f32 lanes on
/// SSE2, 8 + 8 on AVX2. In f64 it is half that.
fn live_instance() -> (&'static str, f64) {
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx2") {
        return ("avx2", 16.0);
    }
    ("sse2", 8.0)
}

/// The clock the kernel reports, in GHz. A turbo clock or a core with a
/// second add/multiply pipe therefore reads above 100 % of a ceiling.
fn clock_ghz() -> Option<f64> {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    let line = cpuinfo.lines().find(|l| l.starts_with("cpu MHz"))?;
    let mhz: f64 = line.split(':').nth(1)?.trim().parse().ok()?;
    Some(mhz / 1e3)
}

/// The three matmul layouts at the encoder's 1×1-convolution shapes
/// (B·P = 2048 rows; the last is `ddp_sync`'s medium model): forward
/// `x·W`, input gradient `dy·Wᵀ`, weight gradient `xᵀ·dy`. `thrpt` is
/// GFLOP/s.
fn bench_tensor(c: &mut Criterion) {
    let mut g = c.benchmark_group("tensor");
    g.sample_size(20);
    let threads = rayon::current_num_threads();
    let (instance, flop) = live_instance();
    match clock_ghz() {
        Some(ghz) => println!(
            "tensor: {instance} instance, no-FMA ceiling {flop} flop/cycle = {:.1} GFLOP/s per \
             core at the reported clock; {threads} rayon thread(s)",
            flop * ghz
        ),
        None => println!(
            "tensor: {instance} instance, no-FMA ceiling {flop} flop/cycle per core (clock not \
             reported)"
        ),
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

/// The LeakyReLU derivative kernel and one whole forward+backward
/// pass at the benchmark's shape (B=8, P=256, `ModelConfig::small()`).
fn bench_learner(c: &mut Criterion) {
    let mut g = c.benchmark_group("learner");
    g.sample_size(20);
    let mut rng = TensorRng::seeded(3);
    // Slope 1 keeps the gradient fixed over repeated in-place application
    // (a real slope would shrink it into subnormals); the select is
    // branch-free, so the slope does not change the instruction stream.
    let leaky = Activation::LeakyRelu(1.0);
    let mut grad = rng.standard_normal([2048, 64]);
    let out = rng.standard_normal([2048, 64]);
    g.bench_function("leaky_relu_backward_2048x64", |b| {
        b.iter(|| {
            leaky.backward(grad.data_mut(), out.data());
            black_box(grad.data()[0])
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

/// The `ddp_sync` workload's model: `small` with encoder channels
/// 6-32-64-128, latent 64 and INN subnets 64-64 (123 536 parameters).
fn ddp_sync_model() -> ModelConfig {
    let mut cfg = ModelConfig::small();
    cfg.vae.encoder_channels = vec![6, 32, 64, 128];
    cfg.vae.head_hidden = 64;
    cfg.vae.latent = 64;
    cfg.inn_hidden = vec![64, 64];
    cfg
}

/// The encoder's forward pass at the benchmark's batch (B=8, P=256) on
/// the `small` and `ddp_sync` models: the 1×1 convolutions, bias and
/// LeakyReLU in the matmul tile, the last one max-pooled there, then the
/// two heads. Its convolutions' GFLOP/s (heads and epilogues timed but
/// not counted) against the no-FMA ceiling of the instance that ran, and
/// the bytes of the `[B·P, C]` output the pooled layer no longer writes
/// (nor the pool reads back).
fn bench_encoder(c: &mut Criterion) {
    let (instance, flop) = live_instance();
    let mut rng = TensorRng::seeded(4);
    let points = rng.uniform([8, 256, 6], -1.0, 1.0);
    let rows = 8 * 256;
    for (name, cfg) in [
        ("small", ModelConfig::small()),
        ("ddp_sync", ddp_sync_model()),
    ] {
        let model = ArtificialScientistModel::new(cfg.clone(), 7);
        let encoder = &model.vae.encoder;
        let ws = &mut Workspace::default();
        let mut forward = || {
            let (mu, logvar, ctx) = encoder.forward(&points, ws);
            black_box(mu.data()[0]);
            ws.give_all([mu, logvar]);
            ctx.recycle(ws);
        };
        let mut g = c.benchmark_group("learner");
        g.sample_size(20);
        g.bench_function(format!("encoder_forward_8x256/{name}"), |b| {
            b.iter(&mut forward)
        });
        g.finish();
        let forward_s = fastest(50, &mut forward);
        let channels = &cfg.vae.encoder_channels;
        let conv_flop: usize = channels.windows(2).map(|w| 2 * rows * w[0] * w[1]).sum();
        let gflops = conv_flop as f64 / forward_s / 1e9;
        let threads = rayon::current_num_threads();
        let ceiling = match clock_ghz() {
            Some(ghz) => format!(
                "{:.0} % of {threads} × the {instance} instance's per-core no-FMA ceiling \
                 ({:.1} GFLOP/s)",
                100.0 * gflops / (threads as f64 * flop * ghz),
                flop * ghz
            ),
            None => format!(
                "the {instance} instance's ceiling is {flop} flop/cycle per core (clock not \
                 reported)"
            ),
        };
        let last = channels.last().expect("channels");
        println!(
            "learner: {name} encoder forward {:.3} ms, convolutions {:.1} MFLOP at {gflops:.1} \
             GFLOP/s on {threads} rayon thread(s), {ceiling}; the pooled layer writes 8×{last} maxima, not its {rows}×{last} \
             output ({} KiB not written or read back)",
            forward_s * 1e3,
            conv_flop as f64 / 1e6,
            rows * last * 4 / 1024
        );
    }
}

/// The learner's bookkeeping on the `ddp_sync` model, each against the
/// `copy_from_slice` rate of the producer line (32 MiB) and of a copy the
/// model's size: the per-iteration parameter hash, which reads every
/// parameter byte once, and one publish — a snapshot capture, which reads
/// and writes them, then the by-value rebuild a published snapshot takes
/// into the engine, which moves the buffers and reads them once.
fn bench_bookkeeping(c: &mut Criterion) {
    let mut model = ArtificialScientistModel::new(ddp_sync_model(), 7);
    let mut params = 0usize;
    model.visit_all(&mut |p: &mut Tensor, _g: &mut Tensor| params += p.numel());
    let bytes = (params * 4) as f64;
    let (stream, cached) = (copy_rate(32 << 20), copy_rate(params * 4));
    let against = |rate: f64| {
        format!(
            "{:.2} of the 32 MiB copy_from_slice rate ({:.1} GB/s), {:.2} of a model-sized \
             one ({:.1} GB/s)",
            rate / stream,
            stream / 1e9,
            rate / cached,
            cached / 1e9
        )
    };

    let mut g = c.benchmark_group("learner");
    g.sample_size(50);
    g.throughput(Throughput::Elements(params as u64));
    g.bench_function("param_hash_123k", |b| b.iter(|| param_hash(&mut model)));
    g.finish();
    let hash_s = fastest(50, || {
        black_box(param_hash(&mut model));
    });
    println!(
        "learner: param_hash reads {:.2} MB at {:.1} GB/s: {}",
        bytes / 1e6,
        bytes / hash_s / 1e9,
        against(bytes / hash_s)
    );

    let mut g = c.benchmark_group("publish");
    g.sample_size(20);
    g.throughput(Throughput::Elements(params as u64));
    let publish = |model: &mut ArtificialScientistModel| {
        ModelSnapshot::capture(model, EncodeConfig::default(), 1, 0)
            .into_model()
            .unwrap_or_else(|e| panic!("{e}"))
    };
    g.bench_function("capture_into_model_123k", |b| {
        b.iter(|| publish(&mut model))
    });
    g.finish();
    let publish_s = fastest(20, || {
        black_box(publish(&mut model));
    });
    let moved = 3.0 * bytes;
    println!(
        "publish: capture + into_model move {:.2} MB in {:.3} ms, {:.1} GB/s: {}",
        moved / 1e6,
        publish_s * 1e3,
        moved / publish_s / 1e9,
        against(moved / publish_s)
    );
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
    // Round trip and forward alternate block by block, so both sides of
    // each difference see the same machine; separate blocks timed seconds
    // apart drift further than the two hand-offs are long.
    let block_us = |f: &mut dyn FnMut()| {
        let t0 = std::time::Instant::now();
        (0..CALLS / 10).for_each(|_| f());
        t0.elapsed().as_secs_f64() * 1e6 / (CALLS / 10) as f64
    };
    let (mut round_trip, mut forward, mut overhead) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..15 {
        let r = block_us(&mut || {
            black_box(engine.query(spectrum.clone()));
        });
        let f = block_us(&mut || {
            black_box(posterior_batch(&model, &[&spectrum], 1, 32));
        });
        round_trip.push(r);
        forward.push(f);
        overhead.push(r - f);
    }
    engine.shutdown();
    let median = |mut v: Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    let (round_trip, forward) = (median(round_trip), median(forward));
    let overhead = median(overhead);
    println!("waits/solo_query_round_trip              {round_trip:>10.1} us");
    println!("waits/posterior_batch_1                  {forward:>10.1} us");
    println!(
        "waits: hand-off overhead = round trip − forward = {overhead:.1} us (two thread \
         wake-ups; median of 15 interleaved pairs)"
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
    bench_encoder,
    bench_bookkeeping,
    bench_inn,
    bench_staging,
    bench_allreduce,
    bench_waits
);
criterion_main!(benches);
