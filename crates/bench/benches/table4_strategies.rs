//! Table IV — comparison of segmentation strategies.
//!
//! Dataset-1 workload (step 0.1, threshold 0.9, the paper's Table IV
//! setting), one row per strategy: `A_1 … A_200`, `A_MaxStep`, and the
//! increasing-interval strategies `B` and `C`. The published numbers are
//! printed alongside.

use tracto::prelude::*;
use tracto::tracking::gpu::{GpuTracker, SeedOrdering};
use tracto::tracking::probabilistic::RecordMode;
use tracto_bench::{fmt_s, row_params, tracking_workload, BenchScale, TableWriter};

const PAPER: [(&str, f64, f64, f64, f64); 11] = [
    ("A_1", 9.16, 8.21, 41.21, 58.6),
    ("A_2", 7.84, 4.18, 21.14, 33.3),
    ("A_5", 6.91, 3.78, 11.35, 22.0),
    ("A_10", 7.81, 3.29, 7.86, 19.0),
    ("A_20", 9.46, 2.37, 5.17, 17.0),
    ("A_50", 14.42, 1.65, 2.27, 18.3),
    ("A_100", 23.27, 1.52, 1.62, 26.4),
    ("A_200", 39.45, 1.63, 1.14, 42.2),
    ("A_MaxStep", 58.52, 0.0, 0.0, 58.5),
    ("B", 7.06, 3.33, 4.09, 14.5),
    ("C", 6.55, 3.38, 4.73, 14.7),
];

fn main() {
    let scale = BenchScale::from_env();
    let workload = tracking_workload(1, scale);
    let params = row_params(0.1, 0.9);
    let mut w = TableWriter::new(
        "table4",
        &format!(
            "Table IV: segmentation strategies (dataset 1, step 0.1, thr 0.9; grid scale {:.2}, {} samples, {} seeds)",
            scale.grid,
            scale.samples,
            workload.seeds.len()
        ),
    );
    let widths = [10, 9, 9, 9, 9, 7, 24];
    w.row(
        &[
            "strategy",
            "kernel_s",
            "reduce_s",
            "xfer_s",
            "total_s",
            "util%",
            "paper k/r/x/total",
        ]
        .map(str::to_string),
        &widths,
    );

    let strategies: Vec<SegmentationStrategy> = vec![
        SegmentationStrategy::Uniform(1),
        SegmentationStrategy::Uniform(2),
        SegmentationStrategy::Uniform(5),
        SegmentationStrategy::Uniform(10),
        SegmentationStrategy::Uniform(20),
        SegmentationStrategy::Uniform(50),
        SegmentationStrategy::Uniform(100),
        SegmentationStrategy::Uniform(200),
        SegmentationStrategy::Single,
        SegmentationStrategy::paper_b(),
        SegmentationStrategy::paper_c(),
    ];

    let mut reference_steps = None;
    let mut results: Vec<(String, f64)> = Vec::new();
    for (strategy, paper) in strategies.into_iter().zip(PAPER) {
        let tracker = GpuTracker {
            samples: &workload.samples,
            params,
            seeds: workload.seeds.clone(),
            mask: None,
            strategy: strategy.clone(),
            ordering: SeedOrdering::Natural,
            jitter: 0.5,
            run_seed: 42,
            record: RecordMode::LengthsOnly,
        };
        let mut gpu = Gpu::new(DeviceConfig::radeon_5870());
        let report = tracker.run(&mut gpu, 1);
        match reference_steps {
            None => reference_steps = Some(report.output.total_steps),
            Some(expected) => assert_eq!(
                report.output.total_steps, expected,
                "strategy changed tracking results"
            ),
        }
        let l = report.ledger;
        w.row(
            &[
                strategy.label(),
                fmt_s(l.kernel_s),
                fmt_s(l.reduction_s),
                fmt_s(l.transfer_s),
                fmt_s(l.total_s()),
                format!("{:.1}", l.simd_utilization() * 100.0),
                format!(
                    "{}/{}/{}/{}",
                    fmt_s(paper.1),
                    fmt_s(paper.2),
                    fmt_s(paper.3),
                    fmt_s(paper.4)
                ),
            ],
            &widths,
        );
        results.push((strategy.label(), l.total_s()));
    }

    let best = results
        .iter()
        .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
        .unwrap();
    w.line("");
    w.line(&format!(
        "winner: {} at {} simulated s (paper: B at 14.5 s, C at 14.7 s)",
        best.0,
        fmt_s(best.1)
    ));
    let get = |n: &str| {
        results
            .iter()
            .find(|(l, _)| l == n)
            .map(|(_, t)| *t)
            .unwrap()
    };
    w.line(&format!(
        "shape: A_1 {}s > A_k sweet spot; A_MaxStep {}s imbalance-bound; B {}s / C {}s near the bottom",
        fmt_s(get("A_1")),
        fmt_s(get("A_MaxStep")),
        fmt_s(get("B")),
        fmt_s(get("C"))
    ));
    w.save();
}
