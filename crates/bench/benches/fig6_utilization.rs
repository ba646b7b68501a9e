//! Figure 6 — the load and the utilization.
//!
//! Renders the cumulative-load rectangle model for the three segmentation
//! regimes of the figure: (a) one launch (`A_MaxStep`), (b) uniform
//! segments, (c) segments with increasing iterations. Reports the
//! necessary-work area, the charged (rectangle) area, and the waste.

use tracto::prelude::*;
use tracto::stats::loadbalance::rectangle_model;
use tracto::tracking::gpu::{GpuTracker, SeedOrdering};
use tracto::tracking::probabilistic::RecordMode;
use tracto_bench::{row_params, tracking_workload, BenchScale, TableWriter};

fn main() {
    let scale = BenchScale::from_env();
    let workload = tracking_workload(1, scale);
    // The paper's Fig. 6 regime has mean fiber length far below MaxStep
    // (their dataset-1 mean is ~11 steps against a 1888-step budget), which
    // requires the strict 0.9 threshold here; the caption's 0.7 threshold
    // on their smaller dataset produced the same decay shape.
    let mut params = row_params(0.1, 0.9);
    params.max_steps = 2000;
    let out = GpuTracker {
        samples: &workload.samples,
        params,
        seeds: workload.seeds.clone(),
        mask: None,
        strategy: SegmentationStrategy::paper_b(),
        ordering: SeedOrdering::Natural,
        jitter: 0.5,
        run_seed: 42,
        record: RecordMode::LengthsOnly,
    }
    .run(&mut Gpu::new(DeviceConfig::radeon_5870()), 1)
    .output;

    // One sample's loads, as in the figure.
    let loads = out.lengths_by_sample[0].clone();
    let max = loads.iter().copied().max().unwrap().max(1);
    let useful: u64 = loads.iter().map(|&l| l as u64).sum();

    let mut w = TableWriter::new(
        "fig6",
        &format!(
            "Fig. 6: load and utilization ({} threads, longest {} steps, useful {} its)",
            loads.len(),
            max,
            useful
        ),
    );

    // Cumulative load curve (the number of threads still running after x
    // iterations) at a few points — the curve under which the useful area
    // lies.
    w.line("cumulative load curve (threads alive after x steps):");
    let mut sorted = loads.clone();
    sorted.sort_unstable();
    for frac in [0.0, 0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 1.0] {
        let x = (max as f64 * frac) as u32;
        let alive = sorted.len() - sorted.partition_point(|&l| l <= x);
        w.line(&format!("   alive(L > {x:>5}) = {alive:>8}"));
    }

    w.line("");
    let widths = [26, 12, 12, 10, 8];
    w.row(
        &["strategy", "charged", "useful", "wasted%", "launches"].map(str::to_string),
        &widths,
    );
    let cases: Vec<(String, Vec<u32>)> = vec![
        (
            "(a) minimize segments".into(),
            SegmentationStrategy::Single.budgets(max),
        ),
        // Fig. 6(b) draws a handful of coarse uniform segments; the full
        // uniform granularity sweep (with its launch/transfer costs) is
        // Table IV's subject.
        (
            "(b) uniform segments".into(),
            SegmentationStrategy::Uniform((max / 4).max(1)).budgets(max),
        ),
        (
            "(c) increasing intervals".into(),
            SegmentationStrategy::paper_b().budgets(max),
        ),
    ];
    let mut wastes = Vec::new();
    for (label, budgets) in cases {
        let model = rectangle_model(&loads, &budgets);
        let waste = 1.0 - model.utilization();
        w.row(
            &[
                label,
                model.charged.to_string(),
                model.useful.to_string(),
                format!("{:.1}", waste * 100.0),
                model.segments.len().to_string(),
            ],
            &widths,
        );
        wastes.push(waste);
    }
    w.line("");
    w.line("Shape check (matching Fig. 6a→6c): wasted area shrinks monotonically from");
    w.line("the single launch, to uniform segments, to increasing intervals.");
    assert!(
        wastes[0] > wastes[1] && wastes[1] > wastes[2],
        "waste ordering violated: {wastes:?}"
    );
    w.save();
}
