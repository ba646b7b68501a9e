//! Integration tests of probabilistic streamlining at moderate scale using
//! synthetic posterior samples: distribution shape, strategy invariance,
//! and CPU/GPU agreement.

use tracto::prelude::*;
use tracto::stats::expfit::{semilog_fit, ExponentialFit};
use tracto::synthetic::samples_from_truth;
use tracto::tracking::gpu::{GpuTracker, SeedOrdering};
use tracto::tracking::probabilistic::{CpuTracker, RecordMode};
use tracto::tracking::TrackingOutput;

/// A moderately sized workload with strong orientation dispersion: one long
/// bundle tracked at fine step length. Most seeds sit off-fiber and stop
/// immediately; fiber lengths are governed by the per-step curvature-stop
/// hazard — the memoryless mechanism behind the paper's Fig. 5.
fn workload() -> (Dataset, SampleVolumes, Vec<Vec3>) {
    let ds = datasets::single_bundle(Dim3::new(64, 16, 16), None, 5);
    let samples = samples_from_truth(&ds.truth, 20, 0.22, 0.05, 77);
    let seeds = seeds_from_mask(&Mask::full(ds.dwi.dims()));
    (ds, samples, seeds)
}

/// A larger anatomy-mixed workload where imbalance waste dominates segment
/// overheads (the Table IV regime).
fn workload_large() -> (Dataset, SampleVolumes, Vec<Vec3>) {
    let ds = DatasetSpec::paper_dataset1()
        .scaled(0.75)
        .light_protocol()
        .noiseless()
        .build();
    let samples = samples_from_truth(&ds.truth, 10, 0.10, 0.04, 99);
    let seeds = seeds_from_mask(&ds.wm_mask);
    (ds, samples, seeds)
}

/// Step 2 on the production path: the simulated-GPU tracker.
fn gpu_track(
    samples: &SampleVolumes,
    params: TrackingParams,
    seeds: Vec<Vec3>,
    jitter: f64,
    run_seed: u64,
    record: RecordMode,
) -> TrackingOutput {
    GpuTracker {
        samples,
        params,
        seeds,
        mask: None,
        strategy: SegmentationStrategy::paper_b(),
        ordering: SeedOrdering::Natural,
        jitter,
        run_seed,
        record,
    }
    .run(&mut Gpu::new(DeviceConfig::radeon_5870()), 1)
    .output
}

fn params() -> TrackingParams {
    TrackingParams {
        step_length: 0.1,
        angular_threshold: 0.9,
        max_steps: 2000,
        min_fraction: 0.05,
        interp: InterpMode::Nearest,
    }
}

#[test]
fn fiber_lengths_are_exponentially_distributed() {
    // The paper's central empirical finding (Fig. 5 / Eq. 4).
    let (_ds, samples, seeds) = workload();
    let out = gpu_track(&samples, params(), seeds, 0.5, 3, RecordMode::LengthsOnly);
    // Fit the positive lengths (seeds that tracked at all).
    let lengths: Vec<f64> = out
        .all_lengths()
        .into_iter()
        .filter(|&l| l > 0)
        .map(|l| l as f64)
        .collect();
    assert!(
        lengths.len() > 2000,
        "need a populated length set: {}",
        lengths.len()
    );
    let fit = ExponentialFit::fit(&lengths);
    // The KS test against a perfect exponential is extremely strict at this
    // n; the paper's own claim is the straight semi-log line, so assert a
    // strongly linear semi-log density plus a sane KS distance.
    let line = semilog_fit(&lengths, 25);
    assert!(line.slope < 0.0, "density must decay");
    assert!(
        line.r_squared > 0.85,
        "semi-log r² {:.3} (slope {:.4}) — not exponential-shaped",
        line.r_squared,
        line.slope
    );
    assert!(
        fit.ks_statistic < 0.15,
        "KS {:.3} too far from exponential",
        fit.ks_statistic
    );
}

#[test]
fn all_strategies_identical_results_different_costs() {
    let (_ds, samples, seeds) = workload();
    let strategies = [
        SegmentationStrategy::Single,
        SegmentationStrategy::every_step(),
        SegmentationStrategy::Uniform(20),
        SegmentationStrategy::paper_b(),
        SegmentationStrategy::paper_c(),
    ];
    let mut reference: Option<(Vec<Vec<u32>>, u64)> = None;
    let mut totals = Vec::new();
    for strategy in strategies {
        let tracker = GpuTracker {
            samples: &samples,
            params: params(),
            seeds: seeds.clone(),
            mask: None,
            strategy,
            ordering: SeedOrdering::Natural,
            jitter: 0.5,
            run_seed: 3,
            record: RecordMode::LengthsOnly,
        };
        let mut gpu = Gpu::new(DeviceConfig::radeon_5870());
        let report = tracker.run(&mut gpu, 1);
        match &reference {
            None => {
                reference = Some((
                    report.output.lengths_by_sample.clone(),
                    report.output.total_steps,
                ))
            }
            Some((lens, steps)) => {
                assert_eq!(&report.output.lengths_by_sample, lens);
                assert_eq!(report.output.total_steps, *steps);
            }
        }
        totals.push(report.ledger.total_s());
    }
    // Costs must differ across strategies (the whole point of Table IV).
    let min = totals.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = totals.iter().cloned().fold(0.0f64, f64::max);
    assert!(max / min > 1.2, "strategies indistinguishable: {totals:?}");
}

#[test]
fn increasing_interval_beats_both_extremes_at_scale() {
    // The Table IV headline: B beats A_1 (transfer-bound) and A_MaxStep
    // (imbalance-bound) once the workload is large enough.
    let (_ds, samples, seeds) = workload_large();
    let run = |strategy: SegmentationStrategy| {
        let tracker = GpuTracker {
            samples: &samples,
            params: params(),
            seeds: seeds.clone(),
            mask: None,
            strategy,
            ordering: SeedOrdering::Natural,
            jitter: 0.5,
            run_seed: 3,
            record: RecordMode::LengthsOnly,
        };
        let mut gpu = Gpu::new(DeviceConfig::radeon_5870());
        tracker.run(&mut gpu, 1).ledger
    };
    let every = run(SegmentationStrategy::every_step());
    let single = run(SegmentationStrategy::Single);
    let b = run(SegmentationStrategy::paper_b());
    assert!(
        b.total_s() < every.total_s(),
        "B {:.3}s must beat per-step reduction {:.3}s",
        b.total_s(),
        every.total_s()
    );
    assert!(
        b.total_s() < single.total_s(),
        "B {:.3}s must beat the single launch {:.3}s",
        b.total_s(),
        single.total_s()
    );
    // And the mechanisms are the expected ones:
    assert!(
        every.transfer_s > single.transfer_s,
        "A_1 is transfer-dominated"
    );
    assert!(
        single.simd_utilization() < b.simd_utilization(),
        "A_MaxStep wastes SIMD cycles"
    );
}

#[test]
fn cpu_and_gpu_trackers_agree_at_scale() {
    let (_ds, samples, seeds) = workload();
    let cpu = CpuTracker {
        samples: &samples,
        params: params(),
        seeds: seeds.clone(),
        mask: None,
        jitter: 0.5,
        run_seed: 3,
        bidirectional: false,
    }
    .run_serial(RecordMode::LengthsOnly);
    let gpu = GpuTracker {
        samples: &samples,
        params: params(),
        seeds,
        mask: None,
        strategy: SegmentationStrategy::paper_table2(),
        ordering: SeedOrdering::Natural,
        jitter: 0.5,
        run_seed: 3,
        record: RecordMode::LengthsOnly,
    }
    .run(&mut Gpu::new(DeviceConfig::radeon_5870()), 1);
    assert_eq!(cpu.lengths_by_sample, gpu.output.lengths_by_sample);
    assert_eq!(cpu.total_steps, gpu.output.total_steps);
}

#[test]
fn sorted_pilot_does_not_predict_other_samples() {
    // Fig. 4's negative result: ordering seeds by one sample's lengths
    // leaves high neighbor variance in other samples.
    let (_ds, samples, seeds) = workload();
    let tracker = GpuTracker {
        samples: &samples,
        params: params(),
        seeds,
        mask: None,
        strategy: SegmentationStrategy::Single,
        ordering: SeedOrdering::SortedByPilot,
        jitter: 0.5,
        run_seed: 3,
        record: RecordMode::LengthsOnly,
    };
    let report = tracker.run(&mut Gpu::new(DeviceConfig::radeon_5870()), 1);
    use tracto::stats::loadbalance::neighbor_mean_abs_diff;
    // Within the pilot sample, its own sorted order is perfectly smooth.
    let pilot = &report.output.lengths_by_sample[0];
    let order1 = &report.submission_orders[1];
    let pilot_in_sorted_order: Vec<u32> = order1.iter().map(|&i| pilot[i as usize]).collect();
    let sample1_in_sorted_order = report.thread_loads(1);
    let self_smooth = neighbor_mean_abs_diff(&pilot_in_sorted_order);
    let cross_smooth = neighbor_mean_abs_diff(&sample1_in_sorted_order);
    assert!(
        cross_smooth > 2.0 * self_smooth,
        "sorting should fail to transfer: self {self_smooth:.2} vs cross {cross_smooth:.2}"
    );
}

#[test]
fn longest_fiber_under_max_steps_cap() {
    let (_ds, samples, seeds) = workload();
    let mut p = params();
    p.max_steps = 300;
    let out = gpu_track(&samples, p, seeds, 0.5, 4, RecordMode::LengthsOnly);
    assert!(out.longest() <= 300);
}

#[test]
fn kissing_bundles_not_confused_with_crossing() {
    // Two bundles that touch but do not cross: orientation maintenance
    // must keep streamlines on their own arc, so upper-arc seeds connect
    // west↔east along the top and (almost) never exit through the lower
    // arc's arms — the connectivity difference that distinguishes kissing
    // from crossing.
    let dims = Dim3::new(28, 28, 7);
    let ds = tracto::phantom::datasets::kissing(dims, None, 6);
    let samples = samples_from_truth(&ds.truth, 10, 0.08, 0.03, 21);

    // Seed on the upper arc, a few voxels west of the kiss.
    let mut seeds = Vec::new();
    for c in ds.truth.fiber_mask().coords() {
        if c.j > dims.ny / 2 && c.i >= 5 && c.i <= 7 {
            seeds.push(Vec3::new(c.i as f64, c.j as f64, c.k as f64));
        }
    }
    assert!(!seeds.is_empty(), "upper-arc seeds exist");
    let params = TrackingParams {
        step_length: 0.2,
        angular_threshold: 0.85,
        max_steps: 1500,
        min_fraction: 0.05,
        interp: InterpMode::Nearest,
    };
    let out = gpu_track(
        &samples,
        params,
        seeds,
        0.3,
        7,
        RecordMode::Streamlines { min_steps: 10 },
    );
    let mut stayed_upper = 0;
    let mut switched_lower = 0;
    for s in &out.streamlines {
        let end = s.points.last().unwrap();
        // Ends in the lower half, away from the kiss zone → switched arcs.
        if end.y < (dims.ny / 2) as f64 - 3.0 {
            switched_lower += 1;
        } else {
            stayed_upper += 1;
        }
    }
    assert!(
        stayed_upper > 4 * switched_lower.max(1),
        "orientation maintenance failed: {stayed_upper} stayed vs {switched_lower} switched"
    );
}
