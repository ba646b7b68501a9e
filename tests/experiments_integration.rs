//! Reduced-scale versions of the paper's headline experimental claims, so
//! `cargo test` guards the shapes the full bench harness reproduces.

use tracto::prelude::*;
use tracto::stats::ecdf::Ecdf;
use tracto::stats::expfit::ExponentialFit;
use tracto::synthetic::samples_from_truth;
use tracto::tracking::gpu::{GpuTracker, SeedOrdering};
use tracto::tracking::probabilistic::RecordMode;

struct Experiment {
    samples: SampleVolumes,
    seeds: Vec<Vec3>,
}

fn experiment() -> Experiment {
    // A long single bundle tracked at fine step length produces the paper's
    // workload structure: most seeds are off-fiber and stop immediately,
    // fiber seeds run for hundreds of steps, and the angular dispersion of
    // the posterior samples makes lengths noisy across samples.
    let ds = datasets::single_bundle(Dim3::new(64, 16, 16), None, 5);
    let samples = samples_from_truth(&ds.truth, 25, 0.22, 0.05, 55);
    let seeds = seeds_from_mask(&Mask::full(ds.dwi.dims()));
    Experiment { samples, seeds }
}

/// Larger workload for the timing-shape tests (Tables II and IV): the full
/// dataset-1 anatomy, whose arcs and crossings mix long and dead lanes
/// within wavefronts; half the paper's grid, 25 sample volumes.
fn experiment_large() -> Experiment {
    let ds = DatasetSpec::paper_dataset1()
        .scaled(0.75)
        .light_protocol()
        .noiseless()
        .build();
    let samples = samples_from_truth(&ds.truth, 10, 0.10, 0.04, 99);
    let seeds = seeds_from_mask(&ds.wm_mask);
    Experiment { samples, seeds }
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

fn gpu_run(
    exp: &Experiment,
    strategy: SegmentationStrategy,
) -> tracto::tracking::gpu::GpuTrackingReport {
    GpuTracker {
        samples: &exp.samples,
        params: params(),
        seeds: exp.seeds.clone(),
        mask: None,
        strategy,
        ordering: SeedOrdering::Natural,
        jitter: 0.5,
        run_seed: 5,
        record: RecordMode::LengthsOnly,
    }
    .run(&mut Gpu::new(DeviceConfig::radeon_5870()), 1)
}

#[test]
fn table2_shape_gpu_beats_modeled_cpu_by_tens() {
    // Table II's conclusion: with the increasing-interval strategy, the GPU
    // runs tens of times faster than the serial CPU. CPU time is modeled
    // from the paper's own throughput (289.6 s / 113.8 M steps ≈ 2.54 µs
    // per tracking step on the Phenom X4).
    let exp = experiment_large();
    let report = gpu_run(&exp, SegmentationStrategy::paper_table2());
    let cpu_model_s = report.output.total_steps as f64 * 2.54e-6;
    let speedup = cpu_model_s / report.ledger.total_s();
    assert!(
        (10.0..200.0).contains(&speedup),
        "speedup {speedup:.1}x out of the plausible band (paper: 43–55x)"
    );
}

#[test]
fn table4_shape_increasing_interval_wins() {
    let exp = experiment_large();
    let rows: Vec<(String, f64)> = [
        SegmentationStrategy::every_step(),
        SegmentationStrategy::Uniform(10),
        SegmentationStrategy::Uniform(50),
        SegmentationStrategy::Single,
        SegmentationStrategy::paper_b(),
        SegmentationStrategy::paper_c(),
    ]
    .into_iter()
    .map(|s| {
        let label = s.label();
        let t = gpu_run(&exp, s).ledger.total_s();
        (label, t)
    })
    .collect();
    let best = rows
        .iter()
        .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
        .unwrap();
    assert!(
        best.0 == "B"
            || best.0 == "C"
            || best.0.starts_with("A_5")
            || best.0 == "A_10"
            || best.0 == "A_50",
        "unexpected winner {rows:?}"
    );
    // The paper's two extremes must both lose to B.
    let get = |name: &str| rows.iter().find(|(n, _)| n == name).unwrap().1;
    assert!(get("B") < get("A_1"));
    assert!(get("B") < get("A_MaxStep"));
}

#[test]
fn fig5_shape_lengths_exponential() {
    let exp = experiment();
    let out = GpuTracker {
        samples: &exp.samples,
        params: params(),
        seeds: exp.seeds.clone(),
        mask: None,
        strategy: SegmentationStrategy::paper_b(),
        ordering: SeedOrdering::Natural,
        jitter: 0.5,
        run_seed: 5,
        record: RecordMode::LengthsOnly,
    }
    .run(&mut Gpu::new(DeviceConfig::radeon_5870()), 1)
    .output;
    let lengths: Vec<f64> = out
        .all_lengths()
        .into_iter()
        .filter(|&l| l > 0)
        .map(f64::from)
        .collect();
    let fit = ExponentialFit::fit(&lengths);
    assert!(fit.ks_statistic < 0.15, "KS {:.3}", fit.ks_statistic);
    // CCDF decays by orders of magnitude over the support (straight
    // semi-log line = geometric decade spacing).
    let ecdf = Ecdf::new(lengths);
    let p_short = ecdf.ccdf(ecdf.mean());
    let p_long = ecdf.ccdf(4.0 * ecdf.mean());
    assert!(
        p_short > 5.0 * p_long.max(1e-6),
        "tail not decaying: {p_short} vs {p_long}"
    );
}

#[test]
fn fig4_shape_sorting_fails_across_samples() {
    use tracto::stats::loadbalance::{charged_iterations, neighbor_mean_abs_diff};
    let exp = experiment();
    let sorted = GpuTracker {
        samples: &exp.samples,
        params: params(),
        seeds: exp.seeds.clone(),
        mask: None,
        strategy: SegmentationStrategy::Single,
        ordering: SeedOrdering::SortedByPilot,
        jitter: 0.5,
        run_seed: 5,
        record: RecordMode::LengthsOnly,
    }
    .run(&mut Gpu::new(DeviceConfig::radeon_5870()), 1);

    // (a) within the pilot, sorting is smooth; (b) applied to another
    // sample, neighbor variance comes back (Fig. 4c).
    let loads_sample1 = sorted.thread_loads(1);
    let mut resorted = loads_sample1.clone();
    resorted.sort_unstable_by(|a, b| b.cmp(a));
    let cross = neighbor_mean_abs_diff(&loads_sample1);
    let ideal = neighbor_mean_abs_diff(&resorted);
    assert!(
        cross > 3.0 * ideal.max(0.05),
        "cross {cross:.2} vs ideal {ideal:.2}"
    );

    // (c) consequently the charged work barely improves vs natural order —
    // "this method does not bring any notable improvement at all".
    let natural = gpu_run(&exp, SegmentationStrategy::Single);
    let charged_sorted: u64 = (1..sorted.output.lengths_by_sample.len())
        .map(|s| charged_iterations(&sorted.thread_loads(s), 64))
        .sum();
    let charged_natural: u64 = (1..natural.output.lengths_by_sample.len())
        .map(|s| charged_iterations(&natural.thread_loads(s), 64))
        .sum();
    let improvement = 1.0 - charged_sorted as f64 / charged_natural as f64;
    assert!(
        improvement < 0.35,
        "stale sorting should not fix imbalance: improvement {improvement:.2}"
    );
}

#[test]
fn fig6_shape_utilization_ordering() {
    let exp = experiment();
    let util = |s: SegmentationStrategy| gpu_run(&exp, s).ledger.simd_utilization();
    let single = util(SegmentationStrategy::Single);
    let b = util(SegmentationStrategy::paper_b());
    let every = util(SegmentationStrategy::every_step());
    assert!(single < b, "single {single:.3} vs B {b:.3}");
    assert!(b <= every + 1e-9, "A_1 has no lockstep waste");
    assert!(
        every > 0.95,
        "per-step launches are near-perfectly balanced: {every:.3}"
    );
}

#[test]
fn table3_shape_mcmc_utilization_and_transfer() {
    // MCMC lanes are balanced (utilization 1) and its speedup is therefore
    // strategy-independent — the structural reason Table III needs no
    // segmentation analysis.
    let ds = DatasetSpec::paper_dataset1()
        .scaled(0.12)
        .light_protocol()
        .build();
    let mut gpu = Gpu::new(DeviceConfig::radeon_5870());
    let report = tracto::run_mcmc_gpu(
        &mut gpu,
        &ds.acq,
        &ds.dwi,
        &ds.wm_mask,
        PriorConfig::default(),
        ChainConfig::fast_test(),
        9,
        1,
        None,
    )
    .unwrap();
    assert!((report.ledger.simd_utilization() - 1.0).abs() < 1e-9);
    assert_eq!(report.ledger.launches, 1);
    // Modeled CPU from the paper's own throughput: 1383 s for 205k voxels ×
    // 600 loops ⇒ ≈11.2 µs per MH loop.
    let loops = ChainConfig::fast_test().num_loops() as u64 * report.voxels as u64;
    let cpu_model_s = loops as f64 * 11.2e-6;
    let speedup = cpu_model_s / report.ledger.total_s();
    assert!(
        (5.0..120.0).contains(&speedup),
        "MCMC speedup {speedup:.1}x implausible (paper: ~34x)"
    );
}
