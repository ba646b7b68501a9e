//! End-to-end pipeline integration: dataset → MCMC → tracking →
//! connectivity, across backends.

use tracto::prelude::*;

fn gpu() -> Backend {
    Backend::GpuSim(DeviceConfig::radeon_5870())
}

fn dataset() -> Dataset {
    DatasetSpec::paper_dataset1()
        .scaled(0.14)
        .light_protocol()
        .build()
}

#[test]
fn full_pipeline_runs_on_all_backends() {
    let ds = dataset();
    let pipeline = Pipeline::new(PipelineConfig::fast());
    let cpu = pipeline.run(&ds, Backend::CpuSerial);
    let gpu = pipeline.run(&ds, gpu());

    // The paper's Fig. 11/12 claim, strengthened: results identical.
    assert_eq!(cpu.samples.f1, gpu.samples.f1);
    assert_eq!(cpu.samples.th2, gpu.samples.th2);
    assert_eq!(
        cpu.tracking.lengths_by_sample,
        gpu.tracking.lengths_by_sample
    );

    // GPU backend reports simulated timing with all three components.
    let ledger = gpu.tracking_ledger.expect("tracking ledger");
    assert!(ledger.kernel_s > 0.0);
    assert!(ledger.transfer_s > 0.0);
    assert!(ledger.launches > 0);
    let mcmc = gpu.mcmc_ledger.expect("mcmc ledger");
    assert!(
        (mcmc.simd_utilization() - 1.0).abs() < 1e-9,
        "MCMC lanes are balanced"
    );
}

#[test]
fn pipeline_deterministic_across_runs() {
    let ds = dataset();
    let pipeline = Pipeline::new(PipelineConfig::fast());
    let a = pipeline.run(&ds, gpu());
    let b = pipeline.run(&ds, gpu());
    assert_eq!(a.samples.ph1, b.samples.ph1);
    assert_eq!(a.tracking.total_steps, b.tracking.total_steps);
}

#[test]
fn connectivity_concentrates_on_anatomy() {
    let ds = dataset();
    let pipeline = Pipeline::new(PipelineConfig::fast());
    let out = pipeline.run(&ds, gpu());
    let conn = out.tracking.connectivity.expect("connectivity");
    let dims = ds.dwi.dims();

    // Average connection probability over fiber voxels must dominate the
    // average over non-fiber white matter.
    let fiber = ds.truth.fiber_mask();
    let mut fiber_p = 0.0;
    let mut fiber_n = 0;
    let mut bg_p = 0.0;
    let mut bg_n = 0;
    for c in dims.iter() {
        let p = conn.probability(c);
        if fiber.contains(c) {
            fiber_p += p;
            fiber_n += 1;
        } else if ds.wm_mask.contains(c) {
            bg_p += p;
            bg_n += 1;
        }
    }
    let fiber_mean = fiber_p / fiber_n.max(1) as f64;
    let bg_mean = bg_p / bg_n.max(1) as f64;
    assert!(
        fiber_mean > 5.0 * bg_mean,
        "fiber voxels {fiber_mean:.4} vs background {bg_mean:.4}"
    );
}

#[test]
fn paper_config_values() {
    let cfg = PipelineConfig::paper_default();
    assert_eq!(cfg.chain.num_burnin, 500);
    assert_eq!(cfg.chain.num_samples, 50);
    assert_eq!(cfg.chain.sample_interval, 2);
    assert_eq!(cfg.tracking.step_length, 0.1);
    assert_eq!(cfg.tracking.angular_threshold, 0.9);
    assert_eq!(
        cfg.strategy.budgets(1888),
        vec![1, 2, 5, 10, 20, 50, 100, 200, 500, 1000]
    );
}

#[test]
fn different_seeds_different_results() {
    let ds = dataset();
    let mut cfg_a = PipelineConfig::fast();
    cfg_a.seed = 1;
    let mut cfg_b = PipelineConfig::fast();
    cfg_b.seed = 2;
    let a = Pipeline::new(cfg_a).run(&ds, gpu());
    let b = Pipeline::new(cfg_b).run(&ds, gpu());
    assert_ne!(a.samples.th1, b.samples.th1, "MCMC must depend on the seed");
}
