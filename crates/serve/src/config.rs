//! Service configuration and its validating builder.
//!
//! [`ServiceConfigBuilder`] is the one place service knobs are defined:
//! every knob has a typed setter, a validation rule applied in
//! [`build`](ServiceConfigBuilder::build), and (where it makes sense on a
//! command line) an entry in [`CLI_FLAGS`](ServiceConfigBuilder::CLI_FLAGS)
//! consumed by [`set_cli`](ServiceConfigBuilder::set_cli) — so the CLI's
//! flag set is derived from the builder and cannot drift from it.

use std::path::PathBuf;
use std::time::Duration;
use tracto::tracking::SegmentationStrategy;
use tracto_gpu_sim::{DeviceConfig, FaultPlan};
use tracto_trace::{Tracer, TractoError, TractoResult};

/// Service tuning knobs. Construct via [`ServiceConfig::builder`] (which
/// validates) or field-by-field with `..Default::default()` in tests.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Simulated device model.
    pub device: DeviceConfig,
    /// Devices in the tracking worker's group.
    pub devices: usize,
    /// Estimation worker threads (each owns one simulated GPU).
    pub estimate_workers: usize,
    /// Bound of both submission queues.
    pub queue_capacity: usize,
    /// Most jobs merged into one batch.
    pub max_batch_jobs: usize,
    /// Upper bound on how long the batch worker holds a batch open for
    /// more jobs after the first. The batch runs as soon as no further job
    /// is expected — none admitted upstream and no recent arrivals — so a
    /// lone job never waits the window out.
    pub batch_window: Duration,
    /// Segmentation schedule for batched launches. Results are invariant
    /// to this choice (it only shapes timing), so one service-wide
    /// schedule serves jobs that asked for different ones.
    pub strategy: SegmentationStrategy,
    /// In-memory sample-cache bound in bytes.
    pub cache_bytes: u64,
    /// Victim choice for both cache tiers when full. The default is the
    /// eviction-ablation winner (EXPERIMENTS.md); `--cache-policy` selects
    /// the others for re-running the ablation.
    pub cache_policy: crate::cache::EvictionPolicy,
    /// Optional on-disk sample cache shared with `tracto track --cache-dir`.
    pub disk_cache: Option<PathBuf>,
    /// Byte cap for the disk tier; `None` leaves it unbounded.
    pub disk_cache_bytes: Option<u64>,
    /// Deterministic fault schedule installed on the batch worker's device
    /// pool (chaos testing); `None` runs fault-free.
    pub fault_plan: Option<FaultPlan>,
    /// Times a job may be re-queued after a device fault escapes the pool
    /// before it fails with the typed cause.
    pub retry_budget: u32,
    /// Backoff before the first retry; doubles per retry, capped at 1024×.
    pub retry_backoff: Duration,
    /// Durable-state directory: the write-ahead job journal and persistent
    /// MCMC checkpoints live here. `None` runs the service purely
    /// in-memory (no crash recovery).
    pub state_dir: Option<PathBuf>,
    /// Persist an MCMC checkpoint every N launch segments during
    /// estimation (0 disables mid-run checkpoints; the job journal still
    /// replays whole jobs). Requires `state_dir`.
    pub checkpoint_every: u32,
    /// Stream lanes for batched launches (1 = serialized legacy path).
    /// Results are bit-identical for any value; streams only let one
    /// job's host work hide behind another's kernels on the simulated
    /// clock.
    pub streams: usize,
    /// This host's fleet member name. Echoed in the protocol handshake and
    /// heartbeat answers, and used as the replication source name when
    /// [`replicate_to`](Self::replicate_to) is set. `None` = standalone.
    pub member: Option<String>,
    /// Stream every job-journal record to a standby at this endpoint (the
    /// fleet replication sink). Requires [`member`](Self::member) (the
    /// standby files records by source name) and
    /// [`state_dir`](Self::state_dir) (no journal, nothing to replicate).
    pub replicate_to: Option<tracto_proto::Endpoint>,
    /// Route `Priority::Low` MCMC tracking jobs onto the analytic fast
    /// tier at batch admission: they keep their full posterior for Step 1
    /// (the cache stays warm) but track the closed-form mean instead of
    /// every sample, trading per-sample fidelity for a far cheaper batch
    /// slot. Off by default — demotion changes results, so it is an
    /// explicit operator opt-in.
    pub approx_low: bool,
    /// Per-tenant token-bucket rate limit in jobs/second (burst capacity
    /// is one second of refill, minimum 1). `0.0` disables rate limiting.
    /// Each tenant gets its own bucket, so one tenant hammering submit
    /// cannot spend another's budget.
    pub rate_limit: f64,
    /// Structured-event sink for job lifecycle, cache, batch, and GPU
    /// events. Disabled by default.
    pub tracer: Tracer,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            device: DeviceConfig::radeon_5870(),
            devices: 1,
            estimate_workers: 2,
            queue_capacity: 64,
            max_batch_jobs: 16,
            batch_window: Duration::from_millis(20),
            strategy: SegmentationStrategy::paper_table2(),
            cache_bytes: 256 * 1024 * 1024,
            cache_policy: crate::cache::EvictionPolicy::default(),
            disk_cache: None,
            disk_cache_bytes: None,
            fault_plan: None,
            retry_budget: 2,
            retry_backoff: Duration::from_millis(5),
            state_dir: None,
            checkpoint_every: 0,
            streams: 1,
            member: None,
            replicate_to: None,
            approx_low: false,
            rate_limit: 0.0,
            tracer: Tracer::disabled(),
        }
    }
}

impl ServiceConfig {
    /// Start building a validated configuration.
    pub fn builder() -> ServiceConfigBuilder {
        ServiceConfigBuilder::default()
    }
}

/// Builder for [`ServiceConfig`] with validation at
/// [`build`](Self::build) time. All setters take and return `self` so
/// configurations read as one chain.
#[derive(Debug, Clone, Default)]
pub struct ServiceConfigBuilder {
    config: ServiceConfig,
    /// Deferred `--fault-seed`: a seeded plan needs the final device count,
    /// so it is generated in `build()` rather than at set time.
    fault_seed: Option<u64>,
}

impl ServiceConfigBuilder {
    /// The service flags a CLI exposes, as `(name, value-hint, help)`.
    /// [`set_cli`](Self::set_cli) accepts exactly these names, so commands
    /// can loop over this table for both parsing and usage text.
    pub const CLI_FLAGS: [(&'static str, &'static str, &'static str); 19] = [
        ("devices", "N", "devices in the tracking pool (default 1)"),
        ("workers", "N", "estimation worker threads (default 2)"),
        (
            "max-batch",
            "N",
            "max jobs merged into one batch (default 16)",
        ),
        (
            "batch-window-ms",
            "MS",
            "longest a batch waits for more jobs (default 20)",
        ),
        ("strategy", "S", "segmentation: B|C|single|every|uniform:K"),
        (
            "cache-mb",
            "MB",
            "in-memory sample cache bound (default 256)",
        ),
        (
            "cache-policy",
            "P",
            "cache eviction policy: lru|lfu|cost (default cost)",
        ),
        ("cache-dir", "DIR", "on-disk sample cache directory"),
        ("disk-cache-mb", "MB", "byte cap for the disk cache tier"),
        ("fault-plan", "FILE", "deterministic fault schedule"),
        ("fault-seed", "S", "generate a recoverable fault schedule"),
        (
            "retry-budget",
            "N",
            "job re-queues after device faults (default 2)",
        ),
        (
            "state-dir",
            "DIR",
            "durable state: job journal + MCMC checkpoints",
        ),
        (
            "checkpoint-every",
            "N",
            "persist an MCMC checkpoint every N segments (0 = off)",
        ),
        (
            "streams",
            "N",
            "stream lanes for batched launches (default 1 = serialized)",
        ),
        ("member", "NAME", "fleet member name for this host"),
        (
            "replicate-to",
            "EP",
            "stream journal records to a standby at this endpoint",
        ),
        (
            "approx-low",
            "BOOL",
            "route low-priority track jobs to the analytic fast tier",
        ),
        (
            "rate-limit",
            "JPS",
            "per-tenant token-bucket rate limit in jobs/sec (0 = off)",
        ),
    ];

    /// Set the simulated device model.
    pub fn device(mut self, device: DeviceConfig) -> Self {
        self.config.device = device;
        self
    }

    /// Set the tracking-pool device count.
    pub fn devices(mut self, devices: usize) -> Self {
        self.config.devices = devices;
        self
    }

    /// Set the estimation worker count.
    pub fn estimate_workers(mut self, workers: usize) -> Self {
        self.config.estimate_workers = workers;
        self
    }

    /// Set the submission-queue bound.
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.config.queue_capacity = capacity;
        self
    }

    /// Set the per-batch job bound.
    pub fn max_batch_jobs(mut self, jobs: usize) -> Self {
        self.config.max_batch_jobs = jobs;
        self
    }

    /// Set the batching window (an upper bound on a batch's hold).
    pub fn batch_window(mut self, window: Duration) -> Self {
        self.config.batch_window = window;
        self
    }

    /// Set the segmentation schedule.
    pub fn strategy(mut self, strategy: SegmentationStrategy) -> Self {
        self.config.strategy = strategy;
        self
    }

    /// Set the in-memory cache bound in bytes.
    pub fn cache_bytes(mut self, bytes: u64) -> Self {
        self.config.cache_bytes = bytes;
        self
    }

    /// Set the eviction policy for both cache tiers.
    pub fn cache_policy(mut self, policy: crate::cache::EvictionPolicy) -> Self {
        self.config.cache_policy = policy;
        self
    }

    /// Enable the on-disk cache tier.
    pub fn disk_cache(mut self, dir: impl Into<PathBuf>) -> Self {
        self.config.disk_cache = Some(dir.into());
        self
    }

    /// Cap the disk cache tier.
    pub fn disk_cache_bytes(mut self, bytes: u64) -> Self {
        self.config.disk_cache_bytes = Some(bytes);
        self
    }

    /// Install an explicit fault schedule.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.config.fault_plan = Some(plan);
        self
    }

    /// Generate a recoverable fault schedule at build time, seeded over the
    /// final device count. Mutually exclusive with
    /// [`fault_plan`](Self::fault_plan).
    pub fn fault_seed(mut self, seed: u64) -> Self {
        self.fault_seed = Some(seed);
        self
    }

    /// Set the per-job retry budget.
    pub fn retry_budget(mut self, budget: u32) -> Self {
        self.config.retry_budget = budget;
        self
    }

    /// Set the initial retry backoff.
    pub fn retry_backoff(mut self, backoff: Duration) -> Self {
        self.config.retry_backoff = backoff;
        self
    }

    /// Enable durable state (write-ahead job journal and persistent MCMC
    /// checkpoints) under `dir`.
    pub fn state_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.config.state_dir = Some(dir.into());
        self
    }

    /// Persist an MCMC checkpoint every `n` launch segments (0 disables).
    pub fn checkpoint_every(mut self, n: u32) -> Self {
        self.config.checkpoint_every = n;
        self
    }

    /// Set the stream-lane count for batched launches (1 = serialized).
    pub fn streams(mut self, streams: usize) -> Self {
        self.config.streams = streams;
        self
    }

    /// Name this host as a fleet member.
    pub fn member(mut self, name: impl Into<String>) -> Self {
        self.config.member = Some(name.into());
        self
    }

    /// Replicate the job journal to a standby at `endpoint`.
    pub fn replicate_to(mut self, endpoint: tracto_proto::Endpoint) -> Self {
        self.config.replicate_to = Some(endpoint);
        self
    }

    /// Route low-priority MCMC tracking jobs onto the analytic fast tier
    /// at batch admission.
    pub fn approx_low(mut self, on: bool) -> Self {
        self.config.approx_low = on;
        self
    }

    /// Set the per-tenant token-bucket rate limit in jobs/second
    /// (`0.0` disables).
    pub fn rate_limit(mut self, jobs_per_sec: f64) -> Self {
        self.config.rate_limit = jobs_per_sec;
        self
    }

    /// Install an event sink.
    pub fn tracer(mut self, tracer: Tracer) -> Self {
        self.config.tracer = tracer;
        self
    }

    /// Apply one CLI flag by name (a name from
    /// [`CLI_FLAGS`](Self::CLI_FLAGS), without leading dashes). Unknown
    /// names and malformed values are [`TractoError::Config`].
    pub fn set_cli(self, name: &str, value: &str) -> TractoResult<Self> {
        fn num<T: std::str::FromStr>(name: &str, value: &str) -> TractoResult<T> {
            value
                .parse()
                .map_err(|_| TractoError::config(format!("--{name}: bad value `{value}`")))
        }
        Ok(match name {
            "devices" => self.devices(num(name, value)?),
            "workers" => self.estimate_workers(num(name, value)?),
            "max-batch" => self.max_batch_jobs(num(name, value)?),
            "batch-window-ms" => self.batch_window(Duration::from_millis(num::<u64>(name, value)?)),
            "strategy" => self.strategy(SegmentationStrategy::parse(value)?),
            "cache-mb" => self.cache_bytes(num::<u64>(name, value)? << 20),
            "cache-policy" => self.cache_policy(crate::cache::EvictionPolicy::parse(value)?),
            "cache-dir" => self.disk_cache(value),
            "disk-cache-mb" => self.disk_cache_bytes(num::<u64>(name, value)? << 20),
            "fault-plan" => self.fault_plan(FaultPlan::load(value)?),
            "fault-seed" => self.fault_seed(num(name, value)?),
            "retry-budget" => self.retry_budget(num(name, value)?),
            "state-dir" => self.state_dir(value),
            "checkpoint-every" => self.checkpoint_every(num(name, value)?),
            "streams" => self.streams(num(name, value)?),
            "member" => self.member(value),
            "replicate-to" => self.replicate_to(tracto_proto::Endpoint::parse(value)?),
            "approx-low" => match value {
                "true" | "on" | "1" => self.approx_low(true),
                "false" | "off" | "0" => self.approx_low(false),
                other => {
                    return Err(TractoError::config(format!(
                        "--approx-low: bad value `{other}` (true|false)"
                    )))
                }
            },
            "rate-limit" => self.rate_limit(num(name, value)?),
            other => {
                return Err(TractoError::config(format!(
                    "unknown service flag `--{other}`"
                )))
            }
        })
    }

    /// Validate and produce the configuration. Every failure is a
    /// [`TractoError::Config`] naming the offending knob.
    pub fn build(self) -> TractoResult<ServiceConfig> {
        let mut config = self.config;
        if config.devices == 0 {
            return Err(TractoError::config("devices must be positive"));
        }
        if config.estimate_workers == 0 {
            return Err(TractoError::config("workers must be positive"));
        }
        if config.max_batch_jobs == 0 {
            return Err(TractoError::config("max-batch must be positive"));
        }
        if config.queue_capacity == 0 {
            return Err(TractoError::config("queue capacity must be positive"));
        }
        if config.cache_bytes == 0 {
            return Err(TractoError::config("cache-mb must be positive"));
        }
        if config.batch_window > Duration::from_secs(60) {
            return Err(TractoError::config(
                "batch-window-ms above 60s holds jobs hostage",
            ));
        }
        if config.streams == 0 {
            return Err(TractoError::config(
                "streams must be positive (1 = serialized)",
            ));
        }
        if !config.rate_limit.is_finite() || config.rate_limit < 0.0 {
            return Err(TractoError::config(
                "rate-limit must be a finite jobs/sec value (0 = off)",
            ));
        }
        if config.checkpoint_every > 0 && config.state_dir.is_none() {
            return Err(TractoError::config(
                "checkpoint-every requires state-dir (checkpoints need somewhere to live)",
            ));
        }
        if let Some(name) = &config.member {
            if name.is_empty()
                || name.len() > 64
                || !name
                    .bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b == b'.' || b == b'_' || b == b'-')
            {
                return Err(TractoError::config(format!(
                    "member name `{name}` must be 1-64 chars of [A-Za-z0-9._-]"
                )));
            }
        }
        if config.replicate_to.is_some() {
            if config.member.is_none() {
                return Err(TractoError::config(
                    "replicate-to requires member (the standby files records by source name)",
                ));
            }
            if config.state_dir.is_none() {
                return Err(TractoError::config(
                    "replicate-to requires state-dir (without a journal there is nothing \
                     to replicate)",
                ));
            }
        }
        if let Some(seed) = self.fault_seed {
            if config.fault_plan.is_some() {
                return Err(TractoError::config(
                    "fault-plan and fault-seed are mutually exclusive",
                ));
            }
            config.fault_plan = Some(FaultPlan::seeded(seed, config.devices as u32));
        }
        Ok(config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracto_trace::ErrorKind;

    #[test]
    fn builder_defaults_match_config_defaults() {
        let built = ServiceConfig::builder().build().unwrap();
        let def = ServiceConfig::default();
        assert_eq!(built.devices, def.devices);
        assert_eq!(built.estimate_workers, def.estimate_workers);
        assert_eq!(built.queue_capacity, def.queue_capacity);
        assert_eq!(built.max_batch_jobs, def.max_batch_jobs);
        assert_eq!(built.batch_window, def.batch_window);
        assert_eq!(built.cache_bytes, def.cache_bytes);
        assert_eq!(built.retry_budget, def.retry_budget);
        assert!(built.fault_plan.is_none());
    }

    #[test]
    fn invalid_knobs_are_typed_config_errors() {
        for builder in [
            ServiceConfig::builder().devices(0),
            ServiceConfig::builder().estimate_workers(0),
            ServiceConfig::builder().max_batch_jobs(0),
            ServiceConfig::builder().queue_capacity(0),
            ServiceConfig::builder().cache_bytes(0),
            ServiceConfig::builder().batch_window(Duration::from_secs(3600)),
            ServiceConfig::builder().checkpoint_every(2),
            ServiceConfig::builder().streams(0),
            ServiceConfig::builder().member("no spaces allowed"),
            // replicate-to without member / without state-dir.
            ServiceConfig::builder()
                .replicate_to(tracto_proto::Endpoint::parse("unix:/tmp/x.sock").unwrap()),
            ServiceConfig::builder()
                .member("m0")
                .replicate_to(tracto_proto::Endpoint::parse("unix:/tmp/x.sock").unwrap()),
        ] {
            let err = builder.build().expect_err("must be rejected");
            assert_eq!(err.kind(), ErrorKind::Config);
        }
    }

    #[test]
    fn fault_seed_resolves_against_final_device_count() {
        let cfg = ServiceConfig::builder()
            .fault_seed(9)
            .devices(3)
            .build()
            .unwrap();
        let plan = cfg.fault_plan.expect("seeded plan generated");
        // Seeded plans target only devices that exist.
        assert!(plan.events.iter().all(|e| e.device < 3));
        let err = ServiceConfig::builder()
            .fault_seed(9)
            .fault_plan(FaultPlan::seeded(1, 1))
            .build()
            .expect_err("seed and plan are mutually exclusive");
        assert!(err.to_string().contains("mutually exclusive"));
    }

    #[test]
    fn cli_flags_round_trip_through_set_cli() {
        let mut b = ServiceConfig::builder();
        for (name, value) in [
            ("devices", "3"),
            ("workers", "4"),
            ("max-batch", "8"),
            ("batch-window-ms", "15"),
            ("strategy", "uniform:50"),
            ("cache-mb", "64"),
            ("cache-policy", "lfu"),
            ("cache-dir", "/tmp/tracto-test-cache"),
            ("disk-cache-mb", "128"),
            ("retry-budget", "5"),
            ("state-dir", "/tmp/tracto-test-state"),
            ("checkpoint-every", "2"),
            ("streams", "4"),
            ("member", "m0"),
            ("replicate-to", "unix:/tmp/tracto-test-standby.sock"),
            ("approx-low", "true"),
            ("rate-limit", "2.5"),
        ] {
            assert!(
                ServiceConfigBuilder::CLI_FLAGS
                    .iter()
                    .any(|(n, _, _)| *n == name),
                "{name} missing from CLI_FLAGS"
            );
            b = b.set_cli(name, value).unwrap();
        }
        let cfg = b.build().unwrap();
        assert_eq!(cfg.devices, 3);
        assert_eq!(cfg.estimate_workers, 4);
        assert_eq!(cfg.max_batch_jobs, 8);
        assert_eq!(cfg.batch_window, Duration::from_millis(15));
        assert_eq!(cfg.strategy, SegmentationStrategy::Uniform(50));
        assert_eq!(cfg.cache_bytes, 64 << 20);
        assert_eq!(cfg.cache_policy, crate::cache::EvictionPolicy::Lfu);
        assert_eq!(
            cfg.disk_cache.as_deref().unwrap().to_str().unwrap(),
            "/tmp/tracto-test-cache"
        );
        assert_eq!(cfg.disk_cache_bytes, Some(128 << 20));
        assert_eq!(cfg.retry_budget, 5);
        assert_eq!(
            cfg.state_dir.as_deref().unwrap().to_str().unwrap(),
            "/tmp/tracto-test-state"
        );
        assert_eq!(cfg.checkpoint_every, 2);
        assert_eq!(cfg.streams, 4);
        assert_eq!(cfg.member.as_deref(), Some("m0"));
        assert_eq!(
            cfg.replicate_to.as_ref().unwrap().to_string(),
            "unix:/tmp/tracto-test-standby.sock"
        );
        assert!(cfg.approx_low);
        assert_eq!(cfg.rate_limit, 2.5);
        assert!(ServiceConfig::builder()
            .set_cli("approx-low", "maybe")
            .is_err());
        assert!(ServiceConfig::builder()
            .rate_limit(f64::NAN)
            .build()
            .is_err());
    }

    #[test]
    fn every_cli_flag_name_is_accepted_by_set_cli() {
        // A flag listed in CLI_FLAGS but not handled in set_cli (or vice
        // versa) is exactly the drift this table exists to prevent.
        for (name, _, _) in ServiceConfigBuilder::CLI_FLAGS {
            let sample = match name {
                "strategy" => "B",
                "cache-dir" | "state-dir" => "/tmp/x",
                "fault-plan" => continue, // needs a real file; covered below
                "member" => "m0",
                "replicate-to" => "unix:/tmp/x.sock",
                "approx-low" => "true",
                "cache-policy" => "lru",
                _ => "1",
            };
            ServiceConfig::builder()
                .set_cli(name, sample)
                .unwrap_or_else(|e| panic!("flag {name} rejected: {e}"));
        }
        let err = ServiceConfig::builder()
            .set_cli("warp-factor", "9")
            .expect_err("unknown flags rejected");
        assert_eq!(err.kind(), ErrorKind::Config);
        assert!(ServiceConfig::builder()
            .set_cli("fault-plan", "/nonexistent/plan.txt")
            .is_err());
    }
}
