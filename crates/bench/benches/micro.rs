//! Criterion micro-benchmarks of the hot kernels: RNG throughput,
//! Box–Muller, the MH parameter step (posterior evaluation), trilinear
//! interpolation, and the walker step. These are the per-iteration costs
//! the device model abstracts.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use tracto::diffusion::posterior::{BallSticksParams, NUM_PARAMETERS};
use tracto::diffusion::{BallSticksPosterior, PriorConfig};
use tracto::mcmc::mh::{AdaptScheme, MhSampler};
use tracto::phantom::gradients;
use tracto::prelude::*;
use tracto::rng::{box_muller_pair, HybridTaus, RandomSource};
use tracto::tracking::field::FnField;
use tracto::tracking::walker::Walker;
use tracto::volume::interp::trilinear_scalar;

fn bench_rng(c: &mut Criterion) {
    let mut g = c.benchmark_group("rng");
    g.throughput(Throughput::Elements(1024));
    g.bench_function("hybrid_taus_1024_u32", |b| {
        let mut rng = HybridTaus::new(42);
        b.iter(|| {
            let mut acc = 0u32;
            for _ in 0..1024 {
                acc ^= rng.next_u32();
            }
            black_box(acc)
        })
    });
    g.bench_function("box_muller_512_pairs", |b| {
        let mut rng = HybridTaus::new(42);
        b.iter(|| {
            let mut acc = 0.0;
            for _ in 0..512 {
                let (z1, z2) = box_muller_pair(rng.next_f64(), rng.next_f64());
                acc += z1 + z2;
            }
            black_box(acc)
        })
    });
    g.finish();
}

fn bench_posterior(c: &mut Criterion) {
    let acq = gradients::default_protocol(1);
    let dirs = (Vec3::X, Vec3::Y);
    let model = tracto::diffusion::BallSticksModel::new(
        1000.0,
        1.5e-3,
        vec![0.5, 0.2],
        vec![dirs.0, dirs.1],
    );
    use tracto::diffusion::DiffusionModel;
    let signal = model.predict_protocol(&acq);
    let posterior = BallSticksPosterior::new(&acq, &signal, PriorConfig::default());
    let params = posterior.initial_params();

    let mut g = c.benchmark_group("posterior");
    g.bench_function("log_posterior_64_measurements", |b| {
        b.iter(|| black_box(posterior.log_posterior(black_box(&params))))
    });
    g.bench_function("mh_full_loop_9_params", |b| {
        let target =
            |p: &[f64; NUM_PARAMETERS]| posterior.log_posterior(&BallSticksParams::from_array(*p));
        let mut sampler = MhSampler::new(
            &target,
            params.to_array(),
            [0.01; NUM_PARAMETERS],
            AdaptScheme::paper_default(),
        );
        let mut rng = HybridTaus::new(7);
        b.iter(|| {
            sampler.step_loop(&target, &mut rng);
            black_box(sampler.log_density())
        })
    });
    g.bench_function("mh_full_loop_9_params_cached", |b| {
        use tracto::mcmc::cached::{WavefrontBallSticks, WavefrontLane};
        struct Lane<'a>(&'a [f64], MhSampler<NUM_PARAMETERS>, HybridTaus);
        impl WavefrontLane for Lane<'_> {
            type Rng = HybridTaus;
            fn signal(&self) -> &[f64] {
                self.0
            }
            fn chain(&mut self) -> (&mut MhSampler<NUM_PARAMETERS>, &mut HybridTaus) {
                (&mut self.1, &mut self.2)
            }
        }
        let target =
            |p: &[f64; NUM_PARAMETERS]| posterior.log_posterior(&BallSticksParams::from_array(*p));
        let sampler = MhSampler::new(
            &target,
            params.to_array(),
            [0.01; NUM_PARAMETERS],
            AdaptScheme::paper_default(),
        );
        let mut lanes = [Lane(posterior.signal(), sampler, HybridTaus::new(7))];
        let mut cache = WavefrontBallSticks::new();
        cache.bind(posterior.acquisition(), posterior.prior(), &mut lanes);
        b.iter(|| {
            cache.step_loop(posterior.acquisition(), &mut lanes, &[true]);
            black_box(lanes[0].1.log_density())
        })
    });
    g.finish();
}

fn bench_tracking(c: &mut Criterion) {
    let dims = Dim3::new(32, 32, 32);
    let scalar = tracto::volume::Volume3::from_fn(dims, |c| (c.i + c.j + c.k) as f32);
    let field = FnField::new(dims, |c: Ijk| {
        let t = Vec3::new(1.0, (c.j as f64 * 0.1).sin() * 0.2, 0.0).normalized();
        [(t, 0.6), (Vec3::ZERO, 0.0)]
    });
    let params = TrackingParams {
        step_length: 0.2,
        angular_threshold: 0.8,
        max_steps: u32::MAX,
        min_fraction: 0.05,
        interp: InterpMode::Nearest,
    };

    let mut g = c.benchmark_group("tracking");
    g.bench_function("trilinear_scalar", |b| {
        b.iter(|| {
            black_box(trilinear_scalar(
                &scalar,
                black_box(Vec3::new(12.3, 4.5, 21.7)),
            ))
        })
    });
    g.bench_function("walker_step_nearest", |b| {
        let mut w = Walker::new(0, Vec3::new(1.0, 16.0, 16.0), Vec3::X);
        b.iter(|| {
            if !w.alive() || w.pos.x > 30.0 {
                w = Walker::new(0, Vec3::new(1.0, 16.0, 16.0), Vec3::X);
            }
            black_box(w.step(&field, &params, None))
        })
    });
    let tri_params = TrackingParams {
        interp: InterpMode::Trilinear,
        ..params
    };
    g.bench_function("walker_step_trilinear", |b| {
        let mut w = Walker::new(0, Vec3::new(1.0, 16.0, 16.0), Vec3::X);
        b.iter(|| {
            if !w.alive() || w.pos.x > 30.0 {
                w = Walker::new(0, Vec3::new(1.0, 16.0, 16.0), Vec3::X);
            }
            black_box(w.step(&field, &tri_params, None))
        })
    });
    g.finish();
}

fn bench_tensor_fit(c: &mut Criterion) {
    let acq = gradients::default_protocol(2);
    let tensor =
        tracto::diffusion::SymTensor3::cylindrical(Vec3::new(1.0, 1.0, 0.5), 1.7e-3, 0.3e-3);
    use tracto::diffusion::DiffusionModel;
    let model = tracto::diffusion::TensorModel { s0: 900.0, tensor };
    let signal = model.predict_protocol(&acq);
    c.bench_function("tensor_fit_64_measurements", |b| {
        b.iter(|| black_box(tracto::diffusion::TensorFit::fit(&acq, black_box(&signal))))
    });
}

fn bench_end_to_end(c: &mut Criterion) {
    use tracto::synthetic::samples_from_truth;
    use tracto::tracking::gpu::{GpuTracker, SeedOrdering};
    use tracto_gpu_sim::Gpu;

    let ds = tracto::phantom::datasets::single_bundle(Dim3::new(16, 10, 10), Some(25.0), 7);
    let mut g = c.benchmark_group("end_to_end");
    g.sample_size(10);

    // Step 1 on one voxel (the per-lane unit of the MCMC kernel).
    let mask_one = Mask::from_fn(ds.dwi.dims(), |c| c == Ijk::new(8, 5, 5));
    let est = VoxelEstimator::new(
        &ds.acq,
        &ds.dwi,
        &mask_one,
        PriorConfig::default(),
        ChainConfig::fast_test(),
        3,
    );
    let idx = ds.dwi.dims().index(Ijk::new(8, 5, 5));
    g.bench_function("mcmc_one_voxel_fast_chain", |b| {
        b.iter(|| black_box(est.run_voxel(idx).samples.len()))
    });

    // Step 2 over the whole phantom with the paper's strategy.
    let samples = samples_from_truth(&ds.truth, 5, 0.15, 0.04, 9);
    let seeds = seeds_from_mask(&Mask::full(ds.dwi.dims()));
    g.bench_function("gpu_tracking_1600_seeds_5_samples", |b| {
        b.iter(|| {
            let tracker = GpuTracker {
                samples: &samples,
                params: TrackingParams::paper_default(),
                seeds: seeds.clone(),
                mask: None,
                strategy: SegmentationStrategy::paper_table2(),
                ordering: SeedOrdering::Natural,
                jitter: 0.5,
                run_seed: 5,
                record: RecordMode::LengthsOnly,
            };
            let mut gpu = Gpu::new(DeviceConfig::radeon_5870());
            black_box(tracker.run(&mut gpu, 1).output.total_steps)
        })
    });
    g.finish();
}

fn bench_trace(c: &mut Criterion) {
    use tracto_trace::{RingSink, Tracer};

    let mut g = c.benchmark_group("trace");
    g.throughput(Throughput::Elements(1));
    // The disabled tracer must cost a branch, nothing more: every
    // instrumented hot loop in gpu-sim and mcmc pays this on each event.
    g.bench_function("emit_disabled", |b| {
        let tracer = Tracer::disabled();
        let mut n = 0u64;
        b.iter(|| {
            n += 1;
            tracer.emit("bench.noop", &[("n", black_box(n).into())]);
            black_box(&tracer)
        })
    });
    g.bench_function("emit_ring", |b| {
        let tracer = Tracer::new(RingSink::new(4096));
        let mut n = 0u64;
        b.iter(|| {
            n += 1;
            tracer.emit("bench.ring", &[("n", black_box(n).into())]);
            black_box(&tracer)
        })
    });
    g.bench_function("span_ring", |b| {
        let tracer = Tracer::new(RingSink::new(4096));
        b.iter(|| {
            let span = tracer.span("bench.span");
            drop(black_box(span));
        })
    });
    g.finish();
}

fn bench_failover_overhead(c: &mut Criterion) {
    use tracto_gpu_sim::{FaultPlan, Gpu, LaneStatus, MultiGpu, SimKernel};

    // A deterministic spin kernel: each lane mixes a counter into an
    // accumulator for a fixed budget of iterations, so results expose any
    // replay divergence and the work is identical across pool sizes.
    struct SpinKernel;
    struct SpinLane {
        acc: u64,
        done: u32,
        budget: u32,
    }
    impl SimKernel for SpinKernel {
        type Lane = SpinLane;
        fn step(&self, lane: &mut SpinLane) -> LaneStatus {
            lane.acc = lane
                .acc
                .wrapping_mul(6364136223846793005)
                .wrapping_add(u64::from(lane.done));
            lane.done += 1;
            if lane.done >= lane.budget {
                LaneStatus::Finished
            } else {
                LaneStatus::Continue
            }
        }
    }
    let lanes = |n: usize| -> Vec<SpinLane> {
        (0..n)
            .map(|i| SpinLane {
                acc: i as u64,
                done: 0,
                budget: 64,
            })
            .collect()
    };

    let mut g = c.benchmark_group("failover_overhead");
    for devices in [2usize, 4, 8] {
        // Fault-free baseline at this pool width.
        g.bench_function(&format!("{devices}_devices_fault_free"), |b| {
            b.iter(|| {
                let mut multi = MultiGpu::new(DeviceConfig::radeon_5870(), devices);
                let mut pop = lanes(512);
                multi
                    .launch_partitioned(&SpinKernel, &mut pop, 64)
                    .expect("fault-free launch");
                black_box(pop.iter().map(|l| l.acc).fold(0u64, u64::wrapping_add))
            })
        });
        // Same run with one device lost mid-launch: the re-partition and
        // replay are the measured overhead, and the results must not move.
        let reference: u64 = {
            let mut multi = MultiGpu::new(DeviceConfig::radeon_5870(), devices);
            let mut pop = lanes(512);
            multi
                .launch_partitioned(&SpinKernel, &mut pop, 64)
                .expect("reference launch");
            pop.iter().map(|l| l.acc).fold(0u64, u64::wrapping_add)
        };
        g.bench_function(&format!("{devices}_devices_one_loss"), |b| {
            let plan = FaultPlan::parse("fault 1 0 device-lost").unwrap();
            b.iter(|| {
                let mut multi = MultiGpu::new(DeviceConfig::radeon_5870(), devices);
                multi.set_fault_plan(&plan);
                let mut pop = lanes(512);
                multi
                    .launch_partitioned(&SpinKernel, &mut pop, 64)
                    .expect("survivors absorb one loss");
                assert_eq!(multi.failovers(), 1);
                let sum = pop.iter().map(|l| l.acc).fold(0u64, u64::wrapping_add);
                assert_eq!(sum, reference, "failover must not change results");
                black_box(sum)
            })
        });
    }
    // Single-device fault path for scale: a transient launch failure
    // retried in place (no re-partition).
    g.bench_function("1_device_transient_retry", |b| {
        let plan = FaultPlan::parse("fault 0 0 launch-fail").unwrap();
        b.iter(|| {
            let mut gpu = Gpu::new(DeviceConfig::radeon_5870());
            gpu.set_fault_plan(&plan, 0);
            let mut pop = lanes(512);
            let err = gpu
                .try_launch(&SpinKernel, &mut pop, 64)
                .expect_err("planned transient fault");
            black_box(err.is_retryable());
            gpu.try_launch(&SpinKernel, &mut pop, 64)
                .expect("retry succeeds");
            black_box(pop.len())
        })
    });
    g.finish();
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(30)
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(500))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_rng, bench_posterior, bench_tracking, bench_tensor_fit, bench_end_to_end, bench_trace, bench_failover_overhead
}
criterion_main!(benches);
