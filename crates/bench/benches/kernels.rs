//! Criterion micro-benchmarks of the building blocks composed by the
//! figure harnesses: PIC kernels, the radiation kernel, the point-cloud
//! losses (the CD-vs-EMD cost claim), tensor contractions against their
//! stated ceiling, the learner's hot kernels and one whole training pass,
//! INN coupling blocks, the staging engine and the ring all-reduce.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use as_cluster::comm::CommWorld;
use as_nn::inn::Inn;
use as_nn::layers::Activation;
use as_nn::loss::{chamfer, mmd_imq, sinkhorn_emd};
use as_nn::model::{ArtificialScientistModel, ModelConfig};
use as_pic::grid::GridSpec;
use as_pic::khi::KhiSetup;
use as_pic::tweac::TweacSetup;
use as_radiation::detector::Detector;
use as_radiation::lienard::{ParticleState, RadiationAccumulator};
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
/// reference, same warm plasma — the microbenchmark behind
/// `fig_step_throughput`.
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

criterion_group!(
    benches,
    bench_pic_step,
    bench_fused_vs_reference,
    bench_radiation,
    bench_losses,
    bench_tensor,
    bench_learner,
    bench_inn,
    bench_staging,
    bench_allreduce
);
criterion_main!(benches);
