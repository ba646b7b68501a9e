//! The end-to-end pipeline: dataset → MCMC sampling → probabilistic
//! streamlining → connectivity.

use crate::estimation::run_mcmc_gpu;
use std::time::{Duration, Instant};
use tracto_diffusion::PriorConfig;
use tracto_gpu_sim::{DeviceConfig, Gpu, TimingLedger};
use tracto_mcmc::{ChainConfig, SampleVolumes, VoxelEstimator};
use tracto_phantom::Dataset;
use tracto_trace::Tracer;
use tracto_tracking::analytic::{analytic_params, mean_posterior};
use tracto_tracking::getter::Modality;
use tracto_tracking::gpu::{GpuTracker, SeedOrdering};
use tracto_tracking::probabilistic::{seeds_from_mask, CpuTracker, RecordMode};
use tracto_tracking::stop::mask_from_percentile;
use tracto_tracking::tensorline::TensorField;
use tracto_tracking::walker::TrackingParams;
use tracto_tracking::{SegmentationStrategy, TrackingOutput};
use tracto_volume::{Volume3, Volume4};

/// Pipeline configuration.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// MCMC schedule.
    pub chain: ChainConfig,
    /// Priors for the ball-and-two-sticks posterior.
    pub prior: PriorConfig,
    /// Tracking parameters.
    pub tracking: TrackingParams,
    /// Kernel segmentation strategy (GPU backend).
    pub strategy: SegmentationStrategy,
    /// Seed submission ordering (GPU backend).
    pub ordering: SeedOrdering,
    /// Sub-voxel seed jitter (voxels).
    pub jitter: f64,
    /// Master seed.
    pub seed: u64,
    /// Record per-voxel connectivity.
    pub record_connectivity: bool,
    /// Stream lanes for the GPU backend: both steps issue their launches
    /// and transfers through the overlap scheduler with this many streams.
    /// `1` (the default) reproduces the serialized host loop exactly;
    /// results are bit-identical for any value, only simulated wall time
    /// changes.
    pub streams: usize,
    /// Which direction getter drives Step 2. The default (`Mcmc`) is
    /// bit-identical to the pre-modality pipeline; `Tensorline` replaces
    /// Step 1 with a closed-form tensor fit; `Analytic` collapses the
    /// posterior to its mean and tracks voxel-length hops.
    pub modality: Modality,
    /// Optional stop mask expressed as a percentile (0–100) of the
    /// dataset's mean-DWI values: streamlines stop on leaving the
    /// above-percentile region.
    pub stop_percentile: Option<f64>,
}

impl PipelineConfig {
    /// The paper's experimental configuration: burn-in 500, 50 samples at
    /// interval 2; step 0.1, angular threshold 0.9; the Table II
    /// increasing-interval array.
    pub fn paper_default() -> Self {
        PipelineConfig {
            chain: ChainConfig::paper_default(),
            prior: PriorConfig::default(),
            tracking: TrackingParams::paper_default(),
            strategy: SegmentationStrategy::paper_table2(),
            ordering: SeedOrdering::Natural,
            jitter: 0.5,
            seed: 42,
            record_connectivity: true,
            streams: 1,
            modality: Modality::Mcmc,
            stop_percentile: None,
        }
    }

    /// A configuration small enough for unit tests and examples.
    pub fn fast() -> Self {
        PipelineConfig {
            chain: ChainConfig::fast_test(),
            tracking: TrackingParams {
                max_steps: 400,
                ..TrackingParams::paper_default()
            },
            ..Self::paper_default()
        }
    }
}

/// Execution backend.
#[derive(Debug, Clone)]
pub enum Backend {
    /// Single-threaded CPU reference (the paper's baseline and the oracle
    /// the device kernels are checked against).
    CpuSerial,
    /// The simulated GPU with a given device model — the production path.
    GpuSim(DeviceConfig),
}

/// Everything a pipeline run produces.
#[derive(Debug, Clone)]
pub struct PipelineOutcome {
    /// The six 4-D sample volumes from Step 1.
    pub samples: SampleVolumes,
    /// Step-2 output: fiber lengths, connectivity, total steps.
    pub tracking: TrackingOutput,
    /// Simulated Step-1 timing (GPU backend only).
    pub mcmc_ledger: Option<TimingLedger>,
    /// Simulated Step-2 timing (GPU backend only).
    pub tracking_ledger: Option<TimingLedger>,
    /// Wall-clock duration of Step 1.
    pub mcmc_wall: Duration,
    /// Wall-clock duration of Step 2.
    pub tracking_wall: Duration,
}

/// Per-voxel mean DWI signal — the scalar volume that `--stop-threshold`
/// percentiles are taken over, on both the CLI and the server side.
pub fn mean_dwi_volume(dwi: &Volume4<f32>) -> Volume3<f32> {
    Volume3::from_fn(dwi.dims(), |c| {
        let v = dwi.voxel(c);
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f32>() / v.len() as f32
        }
    })
}

/// The end-to-end driver.
#[derive(Debug, Clone)]
pub struct Pipeline {
    config: PipelineConfig,
    tracer: Tracer,
}

impl Pipeline {
    /// Create a pipeline with the given configuration.
    pub fn new(config: PipelineConfig) -> Self {
        Pipeline {
            config,
            tracer: Tracer::disabled(),
        }
    }

    /// Emit structured events (spans per step, per-launch GPU events,
    /// MCMC chain progress) into `tracer`.
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// The configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// Run both steps on `dataset` with the chosen backend. Seeds are the
    /// centers of all fiber-bearing voxels of the dataset's ground truth
    /// (the realistic seeding choice available because the phantom knows its
    /// anatomy; callers needing custom seeds use the step drivers directly).
    pub fn run(&self, dataset: &Dataset, backend: Backend) -> PipelineOutcome {
        let cfg = &self.config;
        let seeds = seeds_from_mask(&dataset.truth.fiber_mask());

        // ---- Step 1: local parameter estimation.
        let t0 = Instant::now();
        let step1 = self.tracer.span_with(
            "pipeline.step1",
            &[("voxels", dataset.wm_mask.count().into())],
        );
        let (samples, mcmc_ledger) = if cfg.modality == Modality::Tensorline {
            // The tensorline tier needs no posterior: Step 1 is the
            // closed-form tensor fit re-encoded as a one-sample volume,
            // identical on every backend.
            (
                TensorField::fit(&dataset.acq, &dataset.dwi).to_sample_volumes(),
                None,
            )
        } else {
            match &backend {
                Backend::CpuSerial => (
                    VoxelEstimator::new(
                        &dataset.acq,
                        &dataset.dwi,
                        &dataset.wm_mask,
                        cfg.prior,
                        cfg.chain,
                        cfg.seed,
                    )
                    .with_tracer(self.tracer.clone())
                    .run_serial(),
                    None,
                ),
                Backend::GpuSim(device) => {
                    let mut gpu = Gpu::with_tracer(device.clone(), self.tracer.clone());
                    let report = run_mcmc_gpu(
                        &mut gpu,
                        &dataset.acq,
                        &dataset.dwi,
                        &dataset.wm_mask,
                        cfg.prior,
                        cfg.chain,
                        cfg.seed,
                        cfg.streams,
                        None,
                    )
                    .expect("a run without a snapshot store on a fault-free device cannot fail");
                    (report.samples, Some(report.ledger))
                }
            }
        };
        step1.end_with(&[(
            "sim_s",
            mcmc_ledger
                .as_ref()
                .map(|l| l.total_s())
                .unwrap_or(0.0)
                .into(),
        )]);
        let mcmc_wall = t0.elapsed();

        // ---- Step 2: streamlining under the configured modality.
        let t1 = Instant::now();
        // The analytic tier tracks the posterior mean with voxel-length
        // hops; the other tiers track the Step-1 samples directly.
        // Deterministic tiers force the seed jitter off.
        let analytic_samples;
        let (track_samples, track_params, jitter): (&SampleVolumes, TrackingParams, f64) =
            match cfg.modality {
                Modality::Analytic => {
                    analytic_samples = mean_posterior(&samples);
                    (&analytic_samples, analytic_params(&cfg.tracking), 0.0)
                }
                _ => (
                    &samples,
                    cfg.tracking,
                    cfg.modality.effective_jitter(cfg.jitter),
                ),
            };
        let stop_mask = cfg
            .stop_percentile
            .and_then(|pct| mask_from_percentile(&mean_dwi_volume(&dataset.dwi), pct));
        let record = if cfg.record_connectivity {
            RecordMode::Connectivity
        } else {
            RecordMode::LengthsOnly
        };
        let step2 = self
            .tracer
            .span_with("pipeline.step2", &[("seeds", seeds.len().into())]);
        let (tracking, tracking_ledger) = match &backend {
            Backend::CpuSerial => {
                let tracker = CpuTracker {
                    samples: track_samples,
                    params: track_params,
                    seeds,
                    mask: stop_mask.as_ref(),
                    jitter,
                    run_seed: cfg.seed,
                    bidirectional: false,
                };
                (tracker.run_serial(record), None)
            }
            Backend::GpuSim(device) => {
                let mut gpu = Gpu::with_tracer(device.clone(), self.tracer.clone());
                let tracker = GpuTracker {
                    samples: track_samples,
                    params: track_params,
                    seeds,
                    mask: stop_mask.as_ref(),
                    strategy: cfg.strategy.clone(),
                    ordering: cfg.ordering,
                    jitter,
                    run_seed: cfg.seed,
                    record,
                };
                let report = tracker.run(&mut gpu, cfg.streams);
                (report.output, Some(report.ledger))
            }
        };
        step2.end_with(&[("total_steps", tracking.total_steps.into())]);
        let tracking_wall = t1.elapsed();

        PipelineOutcome {
            samples,
            tracking,
            mcmc_ledger,
            tracking_ledger,
            mcmc_wall,
            tracking_wall,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracto_phantom::datasets::DatasetSpec;
    use tracto_volume::Dim3;

    fn tiny_dataset() -> Dataset {
        DatasetSpec {
            name: "tiny".into(),
            dims: Dim3::new(10, 8, 8),
            spacing_mm: 2.5,
            n_dirs: 12,
            n_b0: 2,
            bval: 1000.0,
            snr: None,
            seed: 9,
        }
        .build()
    }

    #[test]
    fn gpu_backend_records_one_event_per_kernel_launch() {
        use std::sync::Arc;
        use tracto_trace::{RingSink, Tracer};

        let ds = tiny_dataset();
        let ring = Arc::new(RingSink::new(1 << 16));
        let pipeline =
            Pipeline::new(PipelineConfig::fast()).with_tracer(Tracer::shared(ring.clone()));
        let out = pipeline.run(&ds, Backend::GpuSim(DeviceConfig::radeon_5870()));
        let launches = out.mcmc_ledger.as_ref().unwrap().launches
            + out.tracking_ledger.as_ref().unwrap().launches;
        assert!(launches >= 1);
        assert_eq!(ring.count("gpu.launch") as u64, launches);
        // Each step's span opens and closes.
        assert_eq!(ring.count("pipeline.step1"), 2);
        assert_eq!(ring.count("pipeline.step2"), 2);
        // Transfers are traced too.
        assert!(ring.count("gpu.transfer_h2d") >= 1);
    }

    #[test]
    fn gpu_and_cpu_backends_agree_on_results() {
        let ds = tiny_dataset();
        let pipeline = Pipeline::new(PipelineConfig::fast());
        let cpu = pipeline.run(&ds, Backend::CpuSerial);
        let gpu = pipeline.run(&ds, Backend::GpuSim(DeviceConfig::radeon_5870()));
        // "CPU and GPU results are substantially the same" — here exactly.
        assert_eq!(cpu.samples.f1, gpu.samples.f1);
        assert_eq!(
            cpu.tracking.lengths_by_sample,
            gpu.tracking.lengths_by_sample
        );
        assert_eq!(cpu.tracking.total_steps, gpu.tracking.total_steps);
        // Ledgers only exist for the GPU backend.
        assert!(cpu.mcmc_ledger.is_none() && gpu.mcmc_ledger.is_some());
        assert!(gpu.tracking_ledger.unwrap().total_s() > 0.0);
    }

    #[test]
    fn connectivity_follows_the_bundle() {
        let ds = tiny_dataset();
        let pipeline = Pipeline::new(PipelineConfig::fast());
        let out = pipeline.run(&ds, Backend::GpuSim(DeviceConfig::radeon_5870()));
        let conn = out.tracking.connectivity.expect("connectivity recorded");
        assert!(conn.total_streamlines() > 0);
        // Voxels on the bundle spine should be visited far more often than
        // corner voxels.
        let dims = ds.dwi.dims();
        let spine = tracto_volume::Ijk::new(dims.nx / 2, dims.ny / 2, dims.nz / 2);
        let corner = tracto_volume::Ijk::new(0, 0, 0);
        assert!(conn.count(spine) > conn.count(corner));
    }

    #[test]
    fn stream_count_never_changes_pipeline_results() {
        let ds = tiny_dataset();
        let serialized = Pipeline::new(PipelineConfig::fast())
            .run(&ds, Backend::GpuSim(DeviceConfig::radeon_5870()));
        for streams in [2usize, 4] {
            let cfg = PipelineConfig {
                streams,
                ..PipelineConfig::fast()
            };
            let streamed =
                Pipeline::new(cfg).run(&ds, Backend::GpuSim(DeviceConfig::radeon_5870()));
            assert_eq!(
                serialized.samples.f1, streamed.samples.f1,
                "{streams} streams: Step-1 samples must be bit-identical"
            );
            assert_eq!(serialized.samples.ph2, streamed.samples.ph2);
            assert_eq!(
                serialized.tracking.lengths_by_sample, streamed.tracking.lengths_by_sample,
                "{streams} streams: Step-2 lengths must be bit-identical"
            );
            assert_eq!(
                serialized.tracking.total_steps,
                streamed.tracking.total_steps
            );
            let (a, b) = (
                serialized.tracking.connectivity.as_ref().unwrap(),
                streamed.tracking.connectivity.as_ref().unwrap(),
            );
            assert_eq!(a.total_streamlines(), b.total_streamlines());
        }
    }

    #[test]
    fn analytic_modality_is_cheaper_than_mcmc_tracking() {
        let ds = tiny_dataset();
        let mcmc = Pipeline::new(PipelineConfig::fast())
            .run(&ds, Backend::GpuSim(DeviceConfig::radeon_5870()));
        let cfg = PipelineConfig {
            modality: Modality::Analytic,
            ..PipelineConfig::fast()
        };
        let analytic = Pipeline::new(cfg).run(&ds, Backend::GpuSim(DeviceConfig::radeon_5870()));
        // One mean volume instead of N samples, voxel-length hops instead
        // of sub-voxel steps: far fewer lanes and far fewer iterations.
        assert!(analytic.tracking.total_steps > 0);
        assert!(
            analytic.tracking.total_steps * 5 <= mcmc.tracking.total_steps,
            "analytic steps {} vs mcmc {}",
            analytic.tracking.total_steps,
            mcmc.tracking.total_steps
        );
        let (a, m) = (
            analytic.tracking_ledger.unwrap().total_s(),
            mcmc.tracking_ledger.unwrap().total_s(),
        );
        assert!(a * 5.0 <= m, "analytic {a:.4}s vs mcmc {m:.4}s");
        // Connectivity still lands on fiber voxels.
        let conn = analytic.tracking.connectivity.expect("connectivity");
        let fiber_hits: u32 = ds
            .truth
            .fiber_mask()
            .coords()
            .iter()
            .map(|&c| conn.count(c))
            .sum();
        assert!(fiber_hits > 0, "analytic tier must visit the bundle");
    }

    #[test]
    fn tensorline_modality_skips_mcmc_and_tracks() {
        let ds = tiny_dataset();
        let cfg = PipelineConfig {
            modality: Modality::Tensorline,
            ..PipelineConfig::fast()
        };
        let out = Pipeline::new(cfg).run(&ds, Backend::GpuSim(DeviceConfig::radeon_5870()));
        // Step 1 is the tensor fit: one sample volume, no MCMC ledger.
        assert_eq!(out.samples.num_samples(), 1);
        assert!(out.mcmc_ledger.is_none());
        assert!(out.tracking_ledger.is_some());
        assert!(out.tracking.total_steps > 0);
        // Deterministic tier: repeat runs are bit-identical even though
        // the config asks for jitter.
        let cfg2 = PipelineConfig {
            modality: Modality::Tensorline,
            jitter: 0.5,
            ..PipelineConfig::fast()
        };
        let out2 = Pipeline::new(cfg2).run(&ds, Backend::CpuSerial);
        assert_eq!(
            out.tracking.lengths_by_sample,
            out2.tracking.lengths_by_sample
        );
    }

    #[test]
    fn stop_percentile_truncates_streamlines() {
        let ds = tiny_dataset();
        let base = Pipeline::new(PipelineConfig::fast()).run(&ds, Backend::CpuSerial);
        let cfg = PipelineConfig {
            stop_percentile: Some(95.0),
            ..PipelineConfig::fast()
        };
        let masked = Pipeline::new(cfg).run(&ds, Backend::CpuSerial);
        assert!(masked.tracking.total_steps > 0);
        assert!(
            masked.tracking.total_steps < base.tracking.total_steps,
            "a tight stop mask must shorten tracking: {} vs {}",
            masked.tracking.total_steps,
            base.tracking.total_steps
        );
    }

    #[test]
    fn fast_config_is_consistent() {
        let cfg = PipelineConfig::fast();
        assert!(cfg.chain.num_loops() < ChainConfig::paper_default().num_loops());
        assert!(cfg.tracking.max_steps <= TrackingParams::paper_default().max_steps);
    }
}
