//! Segmentation-strategy tuning — an interactive-scale version of the
//! paper's Table IV: compare `A_k`, `B`, and `C` on a real tracking
//! workload and print the kernel / reduction / transfer breakdown.
//!
//! ```sh
//! cargo run --release --example segmentation_tuning
//! ```

use tracto::prelude::*;
use tracto::tracking::gpu::{GpuTracker, SeedOrdering};
use tracto::tracking::probabilistic::RecordMode;

fn main() {
    // A moderate phantom so every strategy runs in a few seconds.
    let dataset = DatasetSpec::paper_dataset1()
        .scaled(0.25)
        .light_protocol()
        .build();
    let fiber_mask = dataset.truth.fiber_mask();
    let config = PipelineConfig::fast();
    println!("estimating posteriors over {} voxels…", fiber_mask.count());
    let samples = run_mcmc_gpu(
        &mut Gpu::new(DeviceConfig::radeon_5870()),
        &dataset.acq,
        &dataset.dwi,
        &fiber_mask,
        config.prior,
        config.chain,
        config.seed,
        1,
        None,
    )
    .expect("a fault-free device cannot fail")
    .samples;

    let seeds = seeds_from_mask(&fiber_mask);
    let params = TrackingParams {
        step_length: 0.1,
        angular_threshold: 0.9,
        max_steps: 1000,
        ..TrackingParams::paper_default()
    };

    let strategies: Vec<SegmentationStrategy> = vec![
        SegmentationStrategy::every_step(),
        SegmentationStrategy::Uniform(5),
        SegmentationStrategy::Uniform(20),
        SegmentationStrategy::Uniform(100),
        SegmentationStrategy::Single,
        SegmentationStrategy::paper_b(),
        SegmentationStrategy::paper_c(),
    ];

    println!(
        "\n{:<12} {:>10} {:>10} {:>10} {:>10} {:>8} {:>7}",
        "Strategy", "Kernel(s)", "Reduce(s)", "Xfer(s)", "Total(s)", "Launch", "Util%"
    );
    let mut best: Option<(String, f64)> = None;
    let mut reference_steps: Option<u64> = None;
    for strategy in strategies {
        let tracker = GpuTracker {
            samples: &samples,
            params,
            seeds: seeds.clone(),
            mask: None,
            strategy: strategy.clone(),
            ordering: SeedOrdering::Natural,
            jitter: 0.5,
            run_seed: config.seed,
            record: RecordMode::LengthsOnly,
        };
        let mut gpu = Gpu::new(DeviceConfig::radeon_5870());
        let report = tracker.run(&mut gpu, 1);
        let l = report.ledger;
        println!(
            "{:<12} {:>10.3} {:>10.3} {:>10.3} {:>10.3} {:>8} {:>6.1}%",
            strategy.label(),
            l.kernel_s,
            l.reduction_s,
            l.transfer_s,
            l.total_s(),
            l.launches,
            l.simd_utilization() * 100.0
        );
        // Correctness: every strategy computes the identical tracking result.
        match reference_steps {
            None => reference_steps = Some(report.output.total_steps),
            Some(expected) => assert_eq!(
                report.output.total_steps, expected,
                "strategies must not change results"
            ),
        }
        if best.as_ref().map(|(_, t)| l.total_s() < *t).unwrap_or(true) {
            best = Some((strategy.label(), l.total_s()));
        }
    }
    let (name, total) = best.unwrap();
    println!("\nbest strategy: {name} at {total:.3} simulated s");
    println!("(the paper's Table IV finds the increasing-interval strategies B/C fastest)");
}
