//! Micro-benchmarks of the hot kernels: RNG throughput, Box–Muller, the
//! MH parameter step (posterior evaluation), trilinear interpolation, and
//! the walker step. These are the per-iteration costs the device model
//! abstracts. Each prints its median host time per iteration; a name
//! filter selects benches (`cargo bench -p tracto-bench --bench micro --
//! failover_overhead`).

use std::hint::black_box;
use std::time::{Duration, Instant};
use tracto::diffusion::posterior::{BallSticksParams, NUM_PARAMETERS};
use tracto::diffusion::{BallSticksPosterior, PriorConfig};
use tracto::mcmc::mh::{AdaptScheme, MhSampler};
use tracto::phantom::gradients;
use tracto::prelude::*;
use tracto::rng::{box_muller_pair, HybridTaus, RandomSource};
use tracto::tracking::field::FnField;
use tracto::tracking::walker::Walker;
use tracto::volume::interp::trilinear_scalar;

fn bench_rng(m: &Micro) {
    m.bench("rng/hybrid_taus_1024_u32", |b| {
        let mut rng = HybridTaus::new(42);
        b.iter(|| {
            let mut acc = 0u32;
            for _ in 0..1024 {
                acc ^= rng.next_u32();
            }
            black_box(acc)
        })
    });
    m.bench("rng/box_muller_512_pairs", |b| {
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
}

fn bench_posterior(m: &Micro) {
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

    m.bench("posterior/log_posterior_64_measurements", |b| {
        b.iter(|| black_box(posterior.log_posterior(black_box(&params))))
    });
    m.bench("posterior/mh_full_loop_9_params", |b| {
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
    m.bench("posterior/mh_full_loop_9_params_cached", |b| {
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
}

fn bench_tracking(m: &Micro) {
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

    m.bench("tracking/trilinear_scalar", |b| {
        b.iter(|| {
            black_box(trilinear_scalar(
                &scalar,
                black_box(Vec3::new(12.3, 4.5, 21.7)),
            ))
        })
    });
    m.bench("tracking/walker_step_nearest", |b| {
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
    m.bench("tracking/walker_step_trilinear", |b| {
        let mut w = Walker::new(0, Vec3::new(1.0, 16.0, 16.0), Vec3::X);
        b.iter(|| {
            if !w.alive() || w.pos.x > 30.0 {
                w = Walker::new(0, Vec3::new(1.0, 16.0, 16.0), Vec3::X);
            }
            black_box(w.step(&field, &tri_params, None))
        })
    });
}

fn bench_tensor_fit(m: &Micro) {
    let acq = gradients::default_protocol(2);
    let tensor =
        tracto::diffusion::SymTensor3::cylindrical(Vec3::new(1.0, 1.0, 0.5), 1.7e-3, 0.3e-3);
    use tracto::diffusion::DiffusionModel;
    let model = tracto::diffusion::TensorModel { s0: 900.0, tensor };
    let signal = model.predict_protocol(&acq);
    m.bench("tensor_fit_64_measurements", |b| {
        b.iter(|| black_box(tracto::diffusion::TensorFit::fit(&acq, black_box(&signal))))
    });
}

fn bench_end_to_end(m: &Micro) {
    use tracto::synthetic::samples_from_truth;
    use tracto::tracking::gpu::{GpuTracker, SeedOrdering};
    use tracto_gpu_sim::Gpu;

    let ds = tracto::phantom::datasets::single_bundle(Dim3::new(16, 10, 10), Some(25.0), 7);

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
    m.bench("end_to_end/mcmc_one_voxel_fast_chain", |b| {
        b.iter(|| black_box(est.run_voxel(idx).samples.len()))
    });

    // Step 2 over the whole phantom with the paper's strategy.
    let samples = samples_from_truth(&ds.truth, 5, 0.15, 0.04, 9);
    let seeds = seeds_from_mask(&Mask::full(ds.dwi.dims()));
    m.bench("end_to_end/gpu_tracking_1600_seeds_5_samples", |b| {
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
}

fn bench_trace(m: &Micro) {
    use tracto_trace::{RingSink, Tracer};

    // The disabled tracer must cost a branch, nothing more: every
    // instrumented hot loop in gpu-sim and mcmc pays this on each event.
    m.bench("trace/emit_disabled", |b| {
        let tracer = Tracer::disabled();
        let mut n = 0u64;
        b.iter(|| {
            n += 1;
            tracer.emit("bench.noop", &[("n", black_box(n).into())]);
            black_box(&tracer)
        })
    });
    m.bench("trace/emit_ring", |b| {
        let tracer = Tracer::new(RingSink::new(4096));
        let mut n = 0u64;
        b.iter(|| {
            n += 1;
            tracer.emit("bench.ring", &[("n", black_box(n).into())]);
            black_box(&tracer)
        })
    });
    m.bench("trace/span_ring", |b| {
        let tracer = Tracer::new(RingSink::new(4096));
        b.iter(|| {
            let span = tracer.span("bench.span");
            drop(black_box(span));
        })
    });
}

fn bench_failover_overhead(m: &Micro) {
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

    for devices in [2usize, 4, 8] {
        // Fault-free baseline at this pool width.
        m.bench(
            &format!("failover_overhead/{devices}_devices_fault_free"),
            |b| {
                b.iter(|| {
                    let mut multi = MultiGpu::new(DeviceConfig::radeon_5870(), devices);
                    let mut pop = lanes(512);
                    multi
                        .launch_partitioned(&SpinKernel, &mut pop, 64)
                        .expect("fault-free launch");
                    black_box(pop.iter().map(|l| l.acc).fold(0u64, u64::wrapping_add))
                })
            },
        );
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
        m.bench(
            &format!("failover_overhead/{devices}_devices_one_loss"),
            |b| {
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
            },
        );
    }
    // Single-device fault path for scale: a transient launch failure
    // retried in place (no re-partition).
    m.bench("failover_overhead/1_device_transient_retry", |b| {
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
}

/// Runs each bench whose `group/name` contains the filter, if any.
struct Micro {
    filter: Option<String>,
}

impl Micro {
    fn bench(&self, name: &str, f: impl FnOnce(&Bencher)) {
        if self.filter.as_deref().is_none_or(|x| name.contains(x)) {
            f(&Bencher { name })
        }
    }
}

struct Bencher<'a> {
    name: &'a str,
}

impl Bencher<'_> {
    /// Print the median host time per call of `routine` over 15 samples,
    /// each a batch of calls that takes at least 20 ms.
    fn iter<R>(&self, mut routine: impl FnMut() -> R) {
        let mut batch = |calls: u64| {
            let t = Instant::now();
            for _ in 0..calls {
                black_box(routine());
            }
            t.elapsed()
        };
        let mut calls = 1;
        while batch(calls) < Duration::from_millis(20) {
            calls *= 2;
        }
        let mut ns: Vec<f64> = (0..15)
            .map(|_| batch(calls).as_nanos() as f64 / calls as f64)
            .collect();
        ns.sort_by(f64::total_cmp);
        println!("{:<48} {:>14.1} ns/iter", self.name, ns[7]);
    }
}

fn main() {
    // `cargo bench` passes `--bench`; a bare argument is a name filter.
    let m = Micro {
        filter: std::env::args().skip(1).find(|a| !a.starts_with('-')),
    };
    bench_rng(&m);
    bench_posterior(&m);
    bench_tracking(&m);
    bench_tensor_fit(&m);
    bench_end_to_end(&m);
    bench_trace(&m);
    bench_failover_overhead(&m);
}
