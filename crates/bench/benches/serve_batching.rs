//! Continuous batching in the job service: simulated cost of K concurrent
//! tracking jobs launched one-at-a-time (each client pays its own partially
//! filled wavefronts) versus merged into one shared lane population, plus
//! the Step-1 saving a warm sample cache buys a repeated job.
//!
//! Not in the paper — the serving layer generalizes the paper's single-run
//! model — but the numbers come from the same device simulation as every
//! other table.

use std::sync::Arc;
use std::time::Duration;
use tracto::mcmc::ChainConfig;
use tracto::phantom::datasets;
use tracto::pipeline::PipelineConfig;
use tracto::prelude::*;
use tracto_bench::{fmt_s, row_params, tracking_workload, BenchScale, TableWriter};
use tracto_gpu_sim::MultiGpu;
use tracto_serve::{run_batch, BatchJob, JobSpec, ServiceConfig, TractoService};
use tracto_volume::Dim3;

/// Split the workload's seeds round-robin into `k` jobs, as if `k` clients
/// each asked for a region of the same study.
fn split_jobs(samples: &Arc<SampleVolumes>, seeds: &[Vec3], k: usize) -> Vec<BatchJob> {
    (0..k)
        .map(|i| BatchJob {
            samples: Arc::clone(samples),
            params: row_params(0.1, 0.9),
            seeds: seeds.iter().skip(i).step_by(k).copied().collect(),
            mask: None,
            jitter: 0.5,
            run_seed: 42 + i as u64,
            record_visits: false,
        })
        .collect()
}

fn main() {
    let scale = BenchScale::from_env();
    let workload = tracking_workload(1, scale);
    let samples = Arc::new(workload.samples);
    let strategy = SegmentationStrategy::paper_table2();
    let mut w = TableWriter::new(
        "serve_batching",
        &format!(
            "Serving: sequential vs continuously batched tracking (dataset 1, strategy B; grid scale {:.2}, {} samples, {} seeds total)",
            scale.grid,
            scale.samples,
            workload.seeds.len()
        ),
    );
    let widths = [6, 8, 11, 11, 9, 9, 11, 11];
    w.row(
        &[
            "jobs",
            "lanes",
            "seq_sim_s",
            "batch_sim_s",
            "speedup",
            "launches",
            "seq_util%",
            "batch_util%",
        ]
        .map(str::to_string),
        &widths,
    );

    for &k in &[1usize, 4, 16] {
        let jobs = split_jobs(&samples, &workload.seeds, k);

        // Sequential: each job gets its own launch sequence on a fresh device.
        let mut seq_sim_s = 0.0;
        let mut seq_launches = 0u64;
        let mut seq_charged = 0.0f64;
        let mut seq_useful = 0.0f64;
        let mut seq_results = Vec::new();
        for job in &jobs {
            let mut gpu = MultiGpu::new(DeviceConfig::radeon_5870(), 1);
            let report =
                run_batch(&mut gpu, std::slice::from_ref(job), &strategy).expect("sequential run");
            seq_sim_s += report.wall_s;
            seq_launches += report.launches;
            seq_charged += report.ledger.charged_iterations as f64;
            seq_useful += report.ledger.useful_iterations as f64;
            seq_results.extend(report.per_job);
        }

        // Batched: all jobs merged into one shared lane population.
        let mut gpu = MultiGpu::new(DeviceConfig::radeon_5870(), 1);
        let batched = run_batch(&mut gpu, &jobs, &strategy).expect("batched run");

        // Scheduling must never change numerics.
        for (i, (seq, bat)) in seq_results.iter().zip(&batched.per_job).enumerate() {
            assert_eq!(
                seq.lengths_by_sample, bat.lengths_by_sample,
                "job {i}: batching changed results"
            );
        }

        let seq_util = if seq_charged > 0.0 {
            seq_useful / seq_charged
        } else {
            1.0
        };
        w.row(
            &[
                format!("{k}"),
                format!("{}", batched.lanes),
                fmt_s(seq_sim_s),
                fmt_s(batched.wall_s),
                format!("{:.2}x", seq_sim_s / batched.wall_s),
                format!("{}→{}", seq_launches, batched.launches),
                format!("{:.1}", seq_util * 100.0),
                format!("{:.1}", batched.utilization * 100.0),
            ],
            &widths,
        );
    }

    // --- Warm-cache effect: the same tracking JobSpec twice through the service.
    let ds = Arc::new(datasets::single_bundle(Dim3::new(10, 7, 7), Some(20.0), 3));
    let mut cfg = PipelineConfig::fast();
    cfg.chain = ChainConfig {
        num_burnin: 80,
        num_samples: 4,
        sample_interval: 1,
        ..ChainConfig::fast_test()
    };
    cfg.tracking.max_steps = 200;
    let service = TractoService::start(ServiceConfig {
        batch_window: Duration::from_millis(5),
        ..ServiceConfig::default()
    });
    let cold = service
        .submit(JobSpec::track(Arc::clone(&ds), cfg.clone()))
        .wait_track()
        .expect("cold job");
    let after_cold = service.metrics();
    let warm = service
        .submit(JobSpec::track(Arc::clone(&ds), cfg.clone()))
        .wait_track()
        .expect("warm job");
    let after_warm = service.shutdown();
    assert!(
        !cold.cache_hit && warm.cache_hit,
        "second job must ride the cache"
    );

    let cold_sim = after_cold.estimation_sim_s + after_cold.tracking_sim_s;
    let warm_sim = (after_warm.estimation_sim_s - after_cold.estimation_sim_s)
        + (after_warm.tracking_sim_s - after_cold.tracking_sim_s);
    w.line("");
    w.line(&format!(
        "sample cache: cold job {} sim s (Step 1 {} + Step 2 {}), warm repeat {} sim s ({:.1}x), hit rate {:.2}, {} MCMC run(s) for 2 jobs",
        fmt_s(cold_sim),
        fmt_s(after_cold.estimation_sim_s),
        fmt_s(after_cold.tracking_sim_s),
        fmt_s(warm_sim),
        cold_sim / warm_sim.max(1e-12),
        after_warm.cache.hit_rate(),
        after_warm.estimations_run
    ));
    w.save();
}
