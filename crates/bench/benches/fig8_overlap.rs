//! Figures 3/7/8 — execution schedules and the CPU–GPU overlap extension.
//!
//! Renders the schedule trace of a segmented run (Figs. 3 and 7), then
//! evaluates the paper's future-work proposal (Fig. 8): track `k` samples
//! at once on `k` streams so the CPU reduces one sample while the GPU
//! tracks another. Every row is a real `GpuTracker::run(gpu, k)`; the
//! device's `StreamClock` reports the serialized sum of the same charges
//! next to the overlapped makespan.

use tracto::gpu_sim::schedule::ScheduleTrace;
use tracto::prelude::*;
use tracto::tracking::gpu::{GpuTracker, SeedOrdering};
use tracto::tracking::probabilistic::RecordMode;
use tracto_bench::{fmt_s, row_params, tracking_workload, BenchScale, TableWriter};

fn main() {
    let scale = BenchScale::from_env();
    let workload = tracking_workload(1, scale);
    let params = row_params(0.1, 0.9);

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
    let serial = tracker.run(&mut gpu, 1);

    let mut w = TableWriter::new("fig8", "Figs. 3/7/8: schedules and CPU-GPU overlap");
    w.line("Fig. 7 (segmented schedule, first events of the trace):");
    let mut head = ScheduleTrace::default();
    for e in gpu.trace().events().iter().take(14) {
        head.push(*e);
    }
    w.line(&head.render_ascii(56));
    w.line(&format!(
        "{} samples x {} seeds, strategy {:?}",
        workload.samples.num_samples(),
        workload.seeds.len(),
        SegmentationStrategy::paper_table2()
    ));
    w.line("");
    w.line("Fig. 8 (overlapped execution of k samples on k streams):");
    let widths = [10, 14, 14, 9];
    w.row(
        &["streams", "serial_s", "makespan_s", "saving%"].map(str::to_string),
        &widths,
    );
    let mut savings = Vec::new();
    for k in [1usize, 2, 4] {
        let mut gpu = Gpu::new(DeviceConfig::radeon_5870());
        let report = tracker.run(&mut gpu, k);
        assert_eq!(
            report.output.lengths_by_sample, serial.output.lengths_by_sample,
            "{k} streams must not change results"
        );
        let clock = gpu.stream_clock();
        let saving = clock.saved_s() / clock.serial_s();
        w.row(
            &[
                k.to_string(),
                fmt_s(clock.serial_s()),
                fmt_s(clock.makespan_s()),
                format!("{:.1}", saving * 100.0),
            ],
            &widths,
        );
        savings.push(saving);
    }
    w.line("");
    w.line("Shape check: one stream cannot overlap (segment i+1 depends on segment");
    w.line("i's reduction); k samples in flight hide host work and transfers behind");
    w.line("kernels, as the paper anticipates in Fig. 8.");
    assert!(savings[0] == 0.0, "single stream must not overlap");
    assert!(savings[1] > 0.0, "two streams must save time");
    w.save();
}
