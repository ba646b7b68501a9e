//! Device-model integration: the Table IV cost structure on controlled
//! synthetic loads, schedule traces, and the Fig. 8 overlap extension.

use tracto::gpu_sim::schedule::EventKind;
use tracto::gpu_sim::{DeviceConfig, Gpu, LaneStatus, SimKernel, StreamClock};
use tracto::rng::{dist, HybridTaus};
use tracto::stats::loadbalance::{charged_iterations, rectangle_model, useful_iterations};
use tracto::tracking::SegmentationStrategy;

/// Countdown kernel: lane = remaining iterations.
struct Countdown;
impl SimKernel for Countdown {
    type Lane = u32;
    fn step(&self, lane: &mut u32) -> LaneStatus {
        if *lane > 1 {
            *lane -= 1;
            LaneStatus::Continue
        } else {
            *lane = 0;
            LaneStatus::Finished
        }
    }
}

/// Exponentially distributed synthetic loads (the paper's Fig. 5 regime).
fn exponential_loads(n: usize, mean: f64, seed: u64) -> Vec<u32> {
    let mut rng = HybridTaus::new(seed);
    (0..n)
        .map(|_| dist::exponential(&mut rng, 1.0 / mean).ceil() as u32 + 1)
        .collect()
}

/// Run a segmented countdown through the simulator, with host compaction
/// between launches, mimicking the tracking driver.
fn run_strategy(
    loads: &[u32],
    strategy: &SegmentationStrategy,
    device: DeviceConfig,
) -> tracto::gpu_sim::TimingLedger {
    let max = *loads.iter().max().unwrap();
    let mut gpu = Gpu::new(device);
    let mut lanes: Vec<u32> = loads.to_vec();
    gpu.transfer_to_device(lanes.len() as u64 * 32);
    for &budget in &strategy.budgets(max) {
        if lanes.is_empty() {
            break;
        }
        let stats = gpu.launch(&Countdown, &mut lanes, budget);
        gpu.transfer_to_host(lanes.len() as u64 * 32);
        gpu.host_reduction(lanes.len() as u64);
        let mut next = Vec::with_capacity(stats.unfinished());
        for (lane, fin) in lanes.into_iter().zip(&stats.finished) {
            if !fin {
                next.push(lane);
            }
        }
        lanes = next;
        if !lanes.is_empty() {
            gpu.transfer_to_device(lanes.len() as u64 * 32);
        }
    }
    *gpu.ledger()
}

/// Paper-shaped loads: most seeds are background (immediate stop), a
/// minority follow fibers with exponentially distributed lengths — the
/// mixture that makes wavefronts badly imbalanced.
fn paper_shaped_loads(n: usize, fiber_fraction: f64, mean_fiber: f64, seed: u64) -> Vec<u32> {
    let mut rng = HybridTaus::new(seed);
    (0..n)
        .map(|_| {
            if dist::bernoulli(&mut rng, fiber_fraction) {
                dist::exponential(&mut rng, 1.0 / mean_fiber).ceil() as u32 + 1
            } else {
                1
            }
        })
        .collect()
}

#[test]
fn table_iv_u_curve_on_exponential_loads() {
    // 256k lanes, 10% on-fiber with mean length 110 (the dataset-1
    // statistics: 2.28M steps per sample over 205k seeds): the k-sweep must
    // be U-shaped with the extremes slow and the increasing-interval
    // strategy at or near the bottom.
    let loads = paper_shaped_loads(262_144, 0.1, 110.0, 42);
    let device = DeviceConfig::radeon_5870();
    let total = |s: SegmentationStrategy| run_strategy(&loads, &s, device.clone()).total_s();

    let a1 = total(SegmentationStrategy::every_step());
    let a5 = total(SegmentationStrategy::Uniform(5));
    let a20 = total(SegmentationStrategy::Uniform(20));
    let single = total(SegmentationStrategy::Single);
    let b = total(SegmentationStrategy::paper_b());

    assert!(
        a1 > a5,
        "A_1 {a1:.3} must be slower than A_5 {a5:.3} (transfer overhead)"
    );
    assert!(b < a1, "B {b:.3} must beat A_1 {a1:.3}");
    assert!(b < single, "B {b:.3} must beat A_MaxStep {single:.3}");
    assert!(
        b <= a20 * 1.3,
        "B {b:.3} should be near the best uniform {a20:.3}"
    );
}

#[test]
fn wavefront_size_ablation_narrow_warps_waste_less() {
    let loads = exponential_loads(16_384, 10.0, 7);
    let wide = charged_iterations(&loads, 64);
    let narrow = charged_iterations(&loads, 32);
    assert!(narrow < wide, "32-lane warps must charge fewer iterations");
    assert_eq!(
        useful_iterations(&loads),
        loads.iter().map(|&l| l as u64).sum::<u64>()
    );
}

#[test]
fn rectangle_model_matches_simulator_utilization_trend() {
    // The Fig. 6 analytical model and the executed simulator must rank
    // strategies identically.
    let loads = exponential_loads(8_192, 15.0, 3);
    let max = *loads.iter().max().unwrap();
    let strategies = [
        SegmentationStrategy::Single,
        SegmentationStrategy::Uniform(10),
        SegmentationStrategy::paper_b(),
    ];
    let mut model_util = Vec::new();
    let mut sim_util = Vec::new();
    for s in &strategies {
        model_util.push(rectangle_model(&loads, &s.budgets(max)).utilization());
        let ledger = run_strategy(&loads, s, DeviceConfig::radeon_5870());
        sim_util.push(ledger.simd_utilization());
    }
    // Single worst in both orderings.
    assert!(model_util[0] < model_util[1] && model_util[0] < model_util[2]);
    assert!(sim_util[0] < sim_util[1] && sim_util[0] < sim_util[2]);
}

#[test]
fn schedule_trace_structure() {
    let loads = exponential_loads(512, 8.0, 5);
    let mut gpu = Gpu::new(DeviceConfig::radeon_5870());
    let mut lanes = loads.clone();
    gpu.transfer_to_device(1024);
    gpu.launch(&Countdown, &mut lanes, 1_000);
    gpu.transfer_to_host(1024);
    gpu.host_reduction(512);
    let trace = gpu.trace();
    let kinds: Vec<EventKind> = trace.events().iter().map(|e| e.kind).collect();
    assert_eq!(
        kinds,
        vec![
            EventKind::TransferH2D,
            EventKind::Kernel,
            EventKind::TransferD2H,
            EventKind::Reduction
        ]
    );
    // Events tile the timeline contiguously.
    let mut t = 0.0;
    for e in trace.events() {
        assert!((e.start_s - t).abs() < 1e-12);
        t += e.duration_s;
    }
    assert!((trace.makespan_s() - t).abs() < 1e-12);
    let ascii = trace.render_ascii(60);
    assert_eq!(ascii.lines().count(), 4);
}

/// Issue `k` identical streams of `(kernel, host)` segments round-robin by
/// segment — how a pipelined driver realizes Fig. 8 — with kernels on the
/// GPU and host work on the CPU.
fn interleave(segments: &[(f64, f64)], k: usize) -> StreamClock {
    const GPU: usize = 0;
    const HOST: usize = 1;
    let mut clock = StreamClock::new();
    for &(kernel_s, host_s) in segments {
        for stream in 0..k {
            clock.charge(stream, GPU, kernel_s);
            clock.charge(stream, HOST, host_s);
        }
    }
    clock
}

#[test]
fn overlap_extension_saves_on_balanced_streams() {
    // Fig. 8: interleaving two samples overlaps GPU kernels with host
    // reductions.
    let segments: Vec<(f64, f64)> = (0..8).map(|i| (0.1 + 0.01 * i as f64, 0.08)).collect();
    let two = interleave(&segments, 2);
    assert!(two.makespan_s() < two.serial_s());
    let saving = two.saved_s() / two.serial_s();
    assert!(saving > 0.2, "saving {saving:.2}");
    // More streams cannot hurt.
    let four = interleave(&segments, 4);
    let eff2 = two.makespan_s() / 2.0;
    let eff4 = four.makespan_s() / 4.0;
    assert!(
        eff4 <= eff2 * 1.05,
        "per-stream time should not degrade: {eff4} vs {eff2}"
    );
}

#[test]
fn overlap_respects_dependency_chains() {
    // A stream with one giant kernel serializes everything behind it on the
    // GPU resource.
    let mut clock = StreamClock::new();
    clock.charge(0, 0, 10.0);
    clock.charge(0, 1, 0.1);
    for _ in 0..5 {
        let kernel = clock.charge(1, 0, 0.1);
        let host = clock.charge(1, 1, 0.1);
        assert!(kernel.start_s >= 10.0, "GPU busy with stream 0");
        assert!(host.start_s >= kernel.end_s, "host waits for its kernel");
    }
    assert!(clock.makespan_s() >= 10.0, "GPU-bound floor");
    assert!(clock.makespan_s() <= clock.serial_s());
}

#[test]
fn mcmc_like_balanced_loads_have_full_utilization() {
    let mut gpu = Gpu::new(DeviceConfig::radeon_5870());
    let mut lanes = vec![600u32; 4096];
    gpu.launch(&Countdown, &mut lanes, 600);
    assert!((gpu.ledger().simd_utilization() - 1.0).abs() < 1e-12);
}

#[test]
fn device_memory_accounting() {
    let mut gpu = Gpu::new(DeviceConfig::radeon_5870());
    // The full dataset-2 sample volume (six fields × 60×102×102 × f32)
    // fits comfortably; sixty of them do not.
    let one_volume = 6 * 60 * 102 * 102 * 4u64;
    assert!(gpu.device_alloc(one_volume).is_ok());
    assert_eq!(gpu.allocated_bytes(), one_volume);
    let mut failures = 0;
    for _ in 0..100 {
        if gpu.device_alloc(one_volume).is_err() {
            failures += 1;
        }
    }
    assert!(
        failures > 0,
        "1 GB device must refuse ~70 resident sample volumes"
    );
    gpu.device_free(one_volume * 80); // saturating
    assert_eq!(gpu.allocated_bytes(), 0);
}

#[test]
fn reset_does_not_leak_allocations_into_timing() {
    let mut gpu = Gpu::new(DeviceConfig::radeon_5870());
    gpu.device_alloc(1024).unwrap();
    gpu.transfer_to_device(1024);
    gpu.reset();
    assert_eq!(gpu.ledger().bytes_h2d, 0);
}
