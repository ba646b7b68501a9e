//! The unified job-submission payload and its wire conversion.
//!
//! [`JobSpec`] is the one way work enters the service:
//! [`TractoService::submit`](crate::TractoService::submit) takes it whether
//! the caller is in-process (datasets passed as `Arc<Dataset>`) or remote
//! (datasets named as deterministic phantom recipes that the server
//! materializes — and memoizes — itself). The wire-to-serve conversion
//! lives here, in exactly one function ([`JobSpec::from_wire`]), so the
//! socket front end and an in-process caller building from the same
//! [`tracto_proto::JobSpec`] run byte-for-byte identical jobs.

use std::sync::Arc;
use std::time::Duration;
use tracto::phantom::{datasets, Dataset};
use tracto::pipeline::PipelineConfig;
use tracto::tracking::getter::Modality;
use tracto_diffusion::PriorConfig;
use tracto_mcmc::mh::AdaptScheme;
use tracto_mcmc::ChainConfig;
use tracto_proto::{CachePolicy, JobKind, Priority};
use tracto_trace::{TractoError, TractoResult};
use tracto_volume::{Dim3, Mask, Vec3};

/// Where a job's dataset comes from.
#[derive(Clone)]
pub enum DatasetSource {
    /// An in-process dataset, shared by reference.
    Loaded(Arc<Dataset>),
    /// A deterministic phantom recipe (the only form that crosses the
    /// wire). The service materializes it once per distinct recipe and
    /// shares the result between jobs.
    Phantom(tracto_proto::DatasetSpec),
}

impl From<Arc<Dataset>> for DatasetSource {
    fn from(ds: Arc<Dataset>) -> Self {
        DatasetSource::Loaded(ds)
    }
}

impl From<tracto_proto::DatasetSpec> for DatasetSource {
    fn from(spec: tracto_proto::DatasetSpec) -> Self {
        DatasetSource::Phantom(spec)
    }
}

/// What the job runs.
#[derive(Clone)]
pub enum Work {
    /// Step 1 only: estimate posteriors, warm the sample cache.
    Estimate {
        /// Posterior priors.
        prior: PriorConfig,
        /// Chain schedule.
        chain: ChainConfig,
        /// Master seed.
        seed: u64,
    },
    /// The full pipeline: Step 1 via the cache, Step 2 batched.
    Track {
        /// Full pipeline configuration (chain + prior + tracking + seed +
        /// modality + optional stop percentile).
        config: PipelineConfig,
        /// Seed points; `None` seeds every fiber-bearing ground-truth
        /// voxel, exactly as [`tracto::Pipeline`] does.
        seeds: Option<Vec<Vec3>>,
        /// Explicit stop mask (streamlines stop on leaving it). Only
        /// in-process callers can pass one — file masks do not cross the
        /// wire; remote jobs express stop masks as a percentile of the
        /// dataset's mean DWI via `config.stop_percentile`.
        stop_mask: Option<Mask>,
    },
}

/// The one job-submission payload. Every submission — estimation or
/// tracking, local or remote — is a `JobSpec`.
#[derive(Clone)]
pub struct JobSpec {
    /// The dataset to run on.
    pub dataset: DatasetSource,
    /// Estimate or track.
    pub work: Work,
    /// Give up if the job has not started tracking within this budget.
    pub deadline: Option<Duration>,
    /// Batch-admission priority.
    pub priority: Priority,
    /// Per-job override of the service-wide retry budget.
    pub retry_budget: Option<u32>,
    /// How this job interacts with the sample cache.
    pub cache: CachePolicy,
    /// Accounting tenant for rate limits and fair admission
    /// ([`tracto_proto::DEFAULT_TENANT`] for unlabelled traffic).
    pub tenant: String,
    /// The wire-level spec this job was converted from, when it came
    /// through [`JobSpec::from_wire`]. This is what the job journal
    /// persists: wire specs name datasets as deterministic recipes, so a
    /// journaled job can be re-run bit-identically after a crash. Jobs
    /// built from in-process `Arc<Dataset>`s have no wire form and are
    /// not journaled.
    pub wire: Option<tracto_proto::JobSpec>,
}

impl JobSpec {
    /// An estimation job with default priors and scheduling knobs.
    pub fn estimate(dataset: impl Into<DatasetSource>, chain: ChainConfig, seed: u64) -> Self {
        JobSpec {
            dataset: dataset.into(),
            work: Work::Estimate {
                prior: PriorConfig::default(),
                chain,
                seed,
            },
            deadline: None,
            priority: Priority::Normal,
            retry_budget: None,
            cache: CachePolicy::ReadWrite,
            tenant: tracto_proto::DEFAULT_TENANT.to_string(),
            wire: None,
        }
    }

    /// A tracking job with default scheduling knobs.
    pub fn track(dataset: impl Into<DatasetSource>, config: PipelineConfig) -> Self {
        JobSpec {
            dataset: dataset.into(),
            work: Work::Track {
                config,
                seeds: None,
                stop_mask: None,
            },
            deadline: None,
            priority: Priority::Normal,
            retry_budget: None,
            cache: CachePolicy::ReadWrite,
            tenant: tracto_proto::DEFAULT_TENANT.to_string(),
            wire: None,
        }
    }

    /// Set a deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Set the priority.
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Use explicit seed points instead of mask-derived ones.
    ///
    /// # Panics
    /// On estimation jobs, which have no seeds.
    pub fn with_seeds(mut self, points: Vec<Vec3>) -> Self {
        match &mut self.work {
            Work::Track { seeds, .. } => *seeds = Some(points),
            Work::Estimate { .. } => panic!("estimation jobs take no seed points"),
        }
        self
    }

    /// Select the tracking modality (which direction getter drives
    /// Step 2). Returns a typed [`TractoError::Config`] on estimation
    /// jobs — modality only changes Step 2, so requesting one on a job
    /// with no Step 2 is a caller bug worth surfacing, not ignoring.
    pub fn with_modality(mut self, modality: Modality) -> TractoResult<Self> {
        match &mut self.work {
            Work::Track { config, .. } => {
                config.modality = modality;
                Ok(self)
            }
            Work::Estimate { .. } => Err(TractoError::config(
                "modality applies to track jobs only (estimation has no Step 2)",
            )),
        }
    }

    /// Attach an explicit stop mask: streamlines stop on leaving it.
    /// Returns a typed [`TractoError::Config`] on estimation jobs.
    pub fn with_stop_mask(mut self, mask: Mask) -> TractoResult<Self> {
        match &mut self.work {
            Work::Track { stop_mask, .. } => {
                *stop_mask = Some(mask);
                Ok(self)
            }
            Work::Estimate { .. } => Err(TractoError::config(
                "stop masks apply to track jobs only (estimation has no Step 2)",
            )),
        }
    }

    /// Override the service-wide retry budget for this job.
    pub fn with_retry_budget(mut self, budget: u32) -> Self {
        self.retry_budget = Some(budget);
        self
    }

    /// Set the cache policy.
    pub fn with_cache(mut self, cache: CachePolicy) -> Self {
        self.cache = cache;
        self
    }

    /// Set the accounting tenant.
    pub fn with_tenant(mut self, tenant: impl Into<String>) -> Self {
        self.tenant = tenant.into();
        self
    }

    /// Convert a wire-level spec. This is the *only* wire-to-serve
    /// conversion: the socket listener and any in-process caller that
    /// starts from a [`tracto_proto::JobSpec`] both go through here, so
    /// the two paths cannot drift apart — which is what makes socket
    /// results bit-identical to in-process ones.
    pub fn from_wire(wire: &tracto_proto::JobSpec) -> TractoResult<Self> {
        let chain = ChainConfig {
            num_burnin: wire.chain.burnin,
            num_samples: wire.chain.samples,
            sample_interval: wire.chain.interval,
            adapt: AdaptScheme::paper_default(),
        };
        if chain.num_samples == 0 || chain.sample_interval == 0 {
            return Err(TractoError::config(
                "chain samples and interval must be positive",
            ));
        }
        let work = match &wire.kind {
            JobKind::Estimate => {
                // Modality and stop thresholds only change Step 2; a
                // Step-1-only job carrying them is a client bug.
                if wire.modality != tracto_proto::Modality::Mcmc || wire.stop_percentile.is_some() {
                    return Err(TractoError::config(
                        "modality and stop thresholds apply to track jobs only",
                    ));
                }
                Work::Estimate {
                    prior: PriorConfig::default(),
                    chain,
                    seed: wire.seed,
                }
            }
            JobKind::Track(t) => {
                if t.step <= 0.0 || !(0.0..=1.0).contains(&t.threshold) || t.max_steps == 0 {
                    return Err(TractoError::config("invalid tracking parameters"));
                }
                if let Some(pct) = wire.stop_percentile {
                    if !pct.is_finite() || !(0.0..=100.0).contains(&pct) {
                        return Err(TractoError::config(
                            "stop percentile must be a finite value in [0, 100]",
                        ));
                    }
                }
                let mut config = PipelineConfig {
                    chain,
                    seed: wire.seed,
                    modality: modality_from_wire(wire.modality),
                    stop_percentile: wire.stop_percentile,
                    ..PipelineConfig::fast()
                };
                config.tracking.step_length = t.step;
                config.tracking.angular_threshold = t.threshold;
                config.tracking.max_steps = t.max_steps;
                Work::Track {
                    config,
                    seeds: None,
                    stop_mask: None,
                }
            }
        };
        Ok(JobSpec {
            dataset: DatasetSource::Phantom(wire.dataset.clone()),
            work,
            deadline: wire.deadline_ms.map(Duration::from_millis),
            priority: wire.priority,
            retry_budget: wire.retry_budget,
            cache: wire.cache,
            tenant: wire.tenant.clone(),
            wire: Some(wire.clone()),
        })
    }
}

/// Wire modality → domain modality. The two enums exist so the tracking
/// crate never depends on the protocol; this is the one crossing point.
pub fn modality_from_wire(m: tracto_proto::Modality) -> Modality {
    match m {
        tracto_proto::Modality::Mcmc => Modality::Mcmc,
        tracto_proto::Modality::Tensorline => Modality::Tensorline,
        tracto_proto::Modality::Analytic => Modality::Analytic,
    }
}

/// Materialize a phantom recipe into a dataset. Deterministic in the
/// recipe: the same `(kind, scale, seed, snr)` always builds the same
/// volumes, which is what lets the wire carry recipes instead of data.
pub fn materialize_dataset(spec: &tracto_proto::DatasetSpec) -> TractoResult<Dataset> {
    let scale = spec.scale;
    if !(0.0..=1.0).contains(&scale) || scale == 0.0 {
        return Err(TractoError::config("dataset scale must be in (0, 1]"));
    }
    match spec.kind.as_str() {
        "1" | "2" => {
            let mut phantom = if spec.kind == "1" {
                datasets::DatasetSpec::paper_dataset1()
            } else {
                datasets::DatasetSpec::paper_dataset2()
            }
            .scaled(scale);
            phantom.seed = spec.seed;
            phantom.snr = spec.snr;
            Ok(phantom.build())
        }
        "single" => {
            let n = ((32.0 * scale * 4.0).round() as usize).max(8);
            Ok(datasets::single_bundle(
                Dim3::new(n, n / 2 + 2, n / 2 + 2),
                spec.snr,
                spec.seed,
            ))
        }
        "crossing" => {
            let n = ((40.0 * scale * 4.0).round() as usize).max(10);
            Ok(datasets::crossing(
                Dim3::new(n, n, (n / 3).max(5)),
                90.0,
                spec.snr,
                spec.seed,
            ))
        }
        other => Err(TractoError::config(format!(
            "unknown dataset kind `{other}` (1|2|single|crossing)"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracto_proto::{DatasetSpec as WireDataset, TrackSpec};
    use tracto_trace::ErrorKind;

    fn wire_ds() -> WireDataset {
        WireDataset {
            kind: "single".into(),
            scale: 0.05,
            seed: 3,
            snr: None,
            upload: None,
        }
    }

    #[test]
    fn materialization_is_deterministic() {
        let a = materialize_dataset(&wire_ds()).unwrap();
        let b = materialize_dataset(&wire_ds()).unwrap();
        assert_eq!(a.dwi.dims(), b.dwi.dims());
        assert_eq!(a.dwi.as_slice(), b.dwi.as_slice(), "bit-identical volumes");
        let mut other = wire_ds();
        other.seed = 4;
        let c = materialize_dataset(&other).unwrap();
        assert_ne!(a.dwi.as_slice(), c.dwi.as_slice(), "seed changes data");
    }

    #[test]
    fn bad_recipes_are_config_errors() {
        let mut bad_kind = wire_ds();
        bad_kind.kind = "moebius".into();
        assert_eq!(
            materialize_dataset(&bad_kind).unwrap_err().kind(),
            ErrorKind::Config
        );
        let mut bad_scale = wire_ds();
        bad_scale.scale = 0.0;
        assert_eq!(
            materialize_dataset(&bad_scale).unwrap_err().kind(),
            ErrorKind::Config
        );
    }

    #[test]
    fn from_wire_validates_tracking_parameters() {
        let mut wire = tracto_proto::JobSpec::track(wire_ds());
        wire.kind = tracto_proto::JobKind::Track(TrackSpec {
            step: 0.0,
            threshold: 0.9,
            max_steps: 100,
        });
        assert_eq!(
            JobSpec::from_wire(&wire).err().expect("must fail").kind(),
            ErrorKind::Config
        );
        let mut wire = tracto_proto::JobSpec::estimate(wire_ds());
        wire.chain.samples = 0;
        assert_eq!(
            JobSpec::from_wire(&wire).err().expect("must fail").kind(),
            ErrorKind::Config
        );
    }

    #[test]
    fn modality_builders_reject_estimation_jobs() {
        let ds = Arc::new(materialize_dataset(&wire_ds()).unwrap());
        let track = JobSpec::track(ds.clone(), PipelineConfig::fast())
            .with_modality(Modality::Analytic)
            .expect("track jobs take a modality");
        match &track.work {
            Work::Track { config, .. } => assert_eq!(config.modality, Modality::Analytic),
            Work::Estimate { .. } => panic!("track spec became estimate"),
        }
        let dims = ds.dwi.dims();
        let track = JobSpec::track(ds.clone(), PipelineConfig::fast())
            .with_stop_mask(Mask::full(dims))
            .expect("track jobs take a stop mask");
        match &track.work {
            Work::Track { stop_mask, .. } => assert!(stop_mask.is_some()),
            Work::Estimate { .. } => panic!("track spec became estimate"),
        }
        // Estimation has no Step 2: both builders are typed config errors.
        let est = JobSpec::estimate(ds.clone(), ChainConfig::fast_test(), 1);
        assert_eq!(
            est.with_modality(Modality::Tensorline)
                .err()
                .expect("must fail")
                .kind(),
            ErrorKind::Config
        );
        let est = JobSpec::estimate(ds, ChainConfig::fast_test(), 1);
        assert_eq!(
            est.with_stop_mask(Mask::full(dims))
                .err()
                .expect("must fail")
                .kind(),
            ErrorKind::Config
        );
    }

    #[test]
    fn from_wire_rejects_modality_work_mismatches() {
        // Estimate + non-default modality is a client bug.
        let mut wire = tracto_proto::JobSpec::estimate(wire_ds());
        wire.modality = tracto_proto::Modality::Analytic;
        assert_eq!(
            JobSpec::from_wire(&wire).err().expect("must fail").kind(),
            ErrorKind::Config
        );
        let mut wire = tracto_proto::JobSpec::estimate(wire_ds());
        wire.stop_percentile = Some(50.0);
        assert_eq!(
            JobSpec::from_wire(&wire).err().expect("must fail").kind(),
            ErrorKind::Config
        );
        // Out-of-range percentiles are rejected before any dataset work.
        let mut wire = tracto_proto::JobSpec::track(wire_ds());
        wire.stop_percentile = Some(150.0);
        assert_eq!(
            JobSpec::from_wire(&wire).err().expect("must fail").kind(),
            ErrorKind::Config
        );
        // A valid modality + percentile lands in the pipeline config.
        let mut wire = tracto_proto::JobSpec::track(wire_ds());
        wire.modality = tracto_proto::Modality::Tensorline;
        wire.stop_percentile = Some(60.0);
        match JobSpec::from_wire(&wire).unwrap().work {
            Work::Track { config, .. } => {
                assert_eq!(config.modality, Modality::Tensorline);
                assert_eq!(config.stop_percentile, Some(60.0));
            }
            Work::Estimate { .. } => panic!("track spec converted to estimate"),
        }
    }

    #[test]
    fn from_wire_carries_scheduling_envelope() {
        let mut wire = tracto_proto::JobSpec::track(wire_ds());
        wire.deadline_ms = Some(750);
        wire.priority = Priority::High;
        wire.retry_budget = Some(4);
        wire.cache = CachePolicy::Bypass;
        let spec = JobSpec::from_wire(&wire).unwrap();
        assert_eq!(spec.deadline, Some(Duration::from_millis(750)));
        assert_eq!(spec.priority, Priority::High);
        assert_eq!(spec.retry_budget, Some(4));
        assert_eq!(spec.cache, CachePolicy::Bypass);
        match spec.work {
            Work::Track { config, .. } => assert_eq!(config.seed, wire.seed),
            Work::Estimate { .. } => panic!("track spec converted to estimate"),
        }
    }
}
