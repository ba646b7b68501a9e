//! Table II — the speedup of probabilistic streamlining.
//!
//! For each dataset and `(step length, angular threshold)` row, runs the
//! GPU-simulated tracker with the paper's increasing-interval strategy
//! `{1, 2, 5, 10, 20, 50, 100, 200, 500, 1000}`, reporting the longest
//! fiber, total fiber length, kernel / reduction / transfer seconds, the
//! paper-calibrated CPU baseline, and the speedup — next to the published
//! row.

use tracto::prelude::*;
use tracto::tracking::gpu::{GpuTracker, SeedOrdering};
use tracto::tracking::probabilistic::RecordMode;
use tracto_bench::{
    fmt_s, row_params, table2_rows, tracking_workload, BenchScale, HostModel, TableWriter,
};

/// (dataset, step, thr, longest, total len, kernel, reduce, xfer, cpu, speedup)
type PaperRow = (u8, f64, f64, u32, u64, f64, f64, f64, f64, f64);
const PAPER: [PaperRow; 6] = [
    (
        1,
        0.1,
        0.90,
        453,
        113_822_762,
        3.02,
        0.78,
        2.94,
        289.6,
        43.0,
    ),
    (
        1,
        0.2,
        0.80,
        304,
        102_796_526,
        2.73,
        0.92,
        2.32,
        271.7,
        45.5,
    ),
    (
        1,
        0.3,
        0.85,
        286,
        109_408_821,
        2.71,
        0.78,
        2.33,
        306.6,
        52.7,
    ),
    (
        2,
        0.1,
        0.90,
        777,
        305_396_623,
        6.78,
        3.77,
        4.29,
        739.6,
        52.0,
    ),
    (
        2,
        0.2,
        0.85,
        476,
        272_836_940,
        6.42,
        3.35,
        4.38,
        702.8,
        49.7,
    ),
    (
        2,
        0.3,
        0.80,
        517,
        291_393_911,
        6.63,
        3.38,
        4.37,
        784.5,
        54.5,
    ),
];

fn main() {
    let scale = BenchScale::from_env();
    let host = HostModel::default();
    let mut w = TableWriter::new(
        "table2",
        &format!(
            "Table II: speedup of probabilistic streamlining (grid scale {:.2}, {} samples)",
            scale.grid, scale.samples
        ),
    );
    let widths = [3, 5, 5, 8, 13, 9, 9, 9, 9, 8];
    w.row(
        &[
            "ds",
            "step",
            "thr",
            "longest",
            "total_len",
            "kernel_s",
            "reduce_s",
            "xfer_s",
            "cpu_s",
            "speedup",
        ]
        .map(str::to_string),
        &widths,
    );

    for dataset_id in [1u8, 2] {
        let workload = tracking_workload(dataset_id, scale);
        for (step, thr) in table2_rows(dataset_id) {
            let params = row_params(step, thr);
            let tracker = GpuTracker {
                samples: &workload.samples,
                params,
                seeds: workload.seeds.clone(),
                mask: None,
                strategy: SegmentationStrategy::paper_table2(),
                ordering: SeedOrdering::Natural,
                jitter: 0.5,
                run_seed: 42,
                record: RecordMode::LengthsOnly,
            };
            let mut gpu = Gpu::new(DeviceConfig::radeon_5870());
            let t0 = std::time::Instant::now();
            let report = tracker.run(&mut gpu, 1);
            let wall = t0.elapsed().as_secs_f64();
            let l = report.ledger;
            let cpu_s = host.tracking_seconds(report.output.total_steps);
            let speedup = cpu_s / l.total_s();
            w.row(
                &[
                    dataset_id.to_string(),
                    format!("{step:.1}"),
                    format!("{thr:.2}"),
                    report.output.longest().to_string(),
                    report.output.total_steps.to_string(),
                    fmt_s(l.kernel_s),
                    fmt_s(l.reduction_s),
                    fmt_s(l.transfer_s),
                    fmt_s(cpu_s),
                    format!("{speedup:.1}"),
                ],
                &widths,
            );
            let paper = PAPER
                .iter()
                .find(|p| p.0 == dataset_id && p.1 == step && p.2 == thr)
                .expect("paper row");
            w.row(
                &[
                    "·".into(),
                    "paper".into(),
                    String::new(),
                    paper.3.to_string(),
                    paper.4.to_string(),
                    fmt_s(paper.5),
                    fmt_s(paper.6),
                    fmt_s(paper.7),
                    fmt_s(paper.8),
                    format!("{:.1}", paper.9),
                ],
                &widths,
            );
            w.line(&format!(
                "    [simd util {:.1}%, {} launches, wall {:.1}s]",
                l.simd_utilization() * 100.0,
                l.launches,
                wall
            ));
        }
    }
    w.line("");
    w.line("Shape checks: GPU wins by tens of x on every row; dataset 2 rows cost");
    w.line("more than dataset 1 rows; kernel+transfer dominate the GPU budget.");
    w.save();
}
