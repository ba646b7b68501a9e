//! Figure 4 — work loads before and after sorting.
//!
//! (a) per-thread loads in original sequence, (b) the same loads sorted,
//! (c) the sorted *order* applied to another sample: the general trends
//! match but neighbor variance persists, so "this method does not bring
//! any notable improvement at all".

use tracto::prelude::*;
use tracto::stats::loadbalance::{charged_iterations, neighbor_mean_abs_diff, utilization};
use tracto::tracking::gpu::{GpuTracker, SeedOrdering};
use tracto::tracking::probabilistic::RecordMode;
use tracto_bench::{row_params, tracking_workload, BenchScale, TableWriter};

fn sparkline(loads: &[u32], buckets: usize) -> String {
    let glyphs = [' ', '.', ':', '-', '=', '+', '*', '#'];
    let max = loads.iter().copied().max().unwrap_or(1).max(1) as f64;
    let chunk = (loads.len() / buckets).max(1);
    loads
        .chunks(chunk)
        .take(buckets)
        .map(|c| {
            let m = c.iter().copied().max().unwrap_or(0) as f64;
            glyphs[((m / max) * (glyphs.len() - 1) as f64).round() as usize]
        })
        .collect()
}

fn main() {
    let scale = BenchScale::from_env();
    let workload = tracking_workload(1, scale);
    let params = row_params(0.1, 0.9);
    let tracker = GpuTracker {
        samples: &workload.samples,
        params,
        seeds: workload.seeds.clone(),
        mask: None,
        strategy: SegmentationStrategy::Single,
        ordering: SeedOrdering::SortedByPilot,
        jitter: 0.5,
        run_seed: 42,
        record: RecordMode::LengthsOnly,
    };
    let report = tracker.run(&mut Gpu::new(DeviceConfig::radeon_5870()), 1);

    let mut w = TableWriter::new("fig4", "Fig. 4: work loads before and after sorting");
    // (a) original sequence = pilot sample's natural-order loads.
    let original = report.output.lengths_by_sample[0].clone();
    // (b) sorted sequence.
    let mut sorted = original.clone();
    sorted.sort_unstable_by(|a, b| b.cmp(a));
    // (c) the pilot's sorted order applied to sample 1.
    let applied = report.thread_loads(1);

    let wf = 64;
    let rows: [(&str, &Vec<u32>); 3] = [
        ("(a) original", &original),
        ("(b) sorted", &sorted),
        ("(c) next sample", &applied),
    ];
    for (label, loads) in rows {
        w.line(&format!(
            "{label:<16} neighbor-MAD {:>8.2}  simd-util {:>5.1}%  charged {:>12}   |{}|",
            neighbor_mean_abs_diff(loads),
            utilization(loads, wf) * 100.0,
            charged_iterations(loads, wf),
            sparkline(loads, 72)
        ));
    }

    let mad_orig = neighbor_mean_abs_diff(&original);
    let mad_sorted = neighbor_mean_abs_diff(&sorted);
    let mad_applied = neighbor_mean_abs_diff(&applied);
    w.line("");
    w.line(&format!(
        "sorting smooths the pilot itself ({mad_orig:.1} → {mad_sorted:.1}) but the order does"
    ));
    w.line(&format!(
        "not transfer to the next sample (neighbor-MAD back up to {mad_applied:.1}),"
    ));
    let improvement =
        1.0 - charged_iterations(&applied, wf) as f64 / charged_iterations(&original, wf) as f64;
    w.line(&format!(
        "so charged SIMD work improves only {:.0}% — the paper's negative result.",
        improvement * 100.0
    ));
    assert!(
        mad_applied > 2.0 * mad_sorted.max(0.05),
        "sorting unexpectedly transferred"
    );
    w.save();
}
