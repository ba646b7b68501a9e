//! The unified wire-level job description.
//!
//! A [`JobSpec`] names everything the service needs to run a job from
//! scratch in another process: the dataset (as a deterministic phantom
//! recipe, not raw volumes — phantom generation is seeded, so both sides
//! agree bit-for-bit), the MCMC schedule, the tracking parameters, and the
//! scheduling envelope (deadline, priority, retry budget, cache policy).

use crate::json_util::{obj_f64, obj_opt_f64, obj_opt_u64, obj_str, obj_u32, obj_u64, JsonWriter};
use tracto_trace::json::Json;
use tracto_trace::{TractoError, TractoResult};

/// Scheduling priority. Higher priorities are admitted into batches first;
/// within a priority class the batch worker keeps its earliest-deadline
/// order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Priority {
    /// Behind everything else.
    Low,
    /// The default class.
    #[default]
    Normal,
    /// Ahead of normal and low traffic.
    High,
}

impl Priority {
    /// Canonical wire name.
    pub fn as_str(&self) -> &'static str {
        match self {
            Priority::Low => "low",
            Priority::Normal => "normal",
            Priority::High => "high",
        }
    }

    /// Parse a wire/CLI name.
    pub fn parse(s: &str) -> TractoResult<Self> {
        match s {
            "low" => Ok(Priority::Low),
            "normal" => Ok(Priority::Normal),
            "high" => Ok(Priority::High),
            other => Err(TractoError::config(format!(
                "unknown priority `{other}` (low|normal|high)"
            ))),
        }
    }
}

/// How a job interacts with the sample cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CachePolicy {
    /// Read hits and write fresh results back (the default).
    #[default]
    ReadWrite,
    /// Read hits but never write (e.g. probe jobs that should not evict).
    ReadOnly,
    /// Ignore the cache entirely: always re-estimate, store nothing.
    Bypass,
}

impl CachePolicy {
    /// Canonical wire name.
    pub fn as_str(&self) -> &'static str {
        match self {
            CachePolicy::ReadWrite => "read-write",
            CachePolicy::ReadOnly => "read-only",
            CachePolicy::Bypass => "bypass",
        }
    }

    /// Parse a wire/CLI name.
    pub fn parse(s: &str) -> TractoResult<Self> {
        match s {
            "read-write" | "rw" => Ok(CachePolicy::ReadWrite),
            "read-only" | "ro" => Ok(CachePolicy::ReadOnly),
            "bypass" => Ok(CachePolicy::Bypass),
            other => Err(TractoError::config(format!(
                "unknown cache policy `{other}` (read-write|read-only|bypass)"
            ))),
        }
    }
}

/// The tracking modality a job requests — which direction getter drives
/// Step 2. Absent on the wire for the default (`mcmc`), so encodings of
/// default jobs are byte-identical to those without the field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Modality {
    /// Posterior-sample streamlining (the paper's pipeline; the default).
    #[default]
    Mcmc,
    /// Deterministic single-tensor baseline (skips MCMC entirely).
    Tensorline,
    /// Closed-form fast tier over the posterior mean.
    Analytic,
}

impl Modality {
    /// Canonical wire name.
    pub fn as_str(&self) -> &'static str {
        match self {
            Modality::Mcmc => "mcmc",
            Modality::Tensorline => "tensorline",
            Modality::Analytic => "analytic",
        }
    }

    /// Parse a wire/CLI name.
    pub fn parse(s: &str) -> TractoResult<Self> {
        match s {
            "mcmc" => Ok(Modality::Mcmc),
            "tensorline" => Ok(Modality::Tensorline),
            "analytic" => Ok(Modality::Analytic),
            other => Err(TractoError::config(format!(
                "unknown modality `{other}` (mcmc|tensorline|analytic)"
            ))),
        }
    }
}

/// A dataset reference that crosses the wire: either a deterministic
/// phantom recipe (`(kind, scale, seed, snr)` fully determine the
/// generated volumes, so the recipe doubles as a memoization key
/// server-side) or a pointer to a previously uploaded
/// volume blob (`kind = "upload"`, content hash in `upload`).
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetSpec {
    /// Phantom family: `1` | `2` (the paper's datasets) | `single` |
    /// `crossing` — or `upload` for an uploaded volume.
    pub kind: String,
    /// Grid scale in `(0, 1]` (ignored for uploads).
    pub scale: f64,
    /// Generation seed (ignored for uploads).
    pub seed: u64,
    /// Rician noise SNR; `None` generates a noiseless dataset (ignored
    /// for uploads).
    pub snr: Option<f64>,
    /// Content hash (16 hex digits) of an uploaded volume blob; set if
    /// and only if `kind == "upload"`.
    pub upload: Option<String>,
}

impl DatasetSpec {
    /// A spec with the script defaults (scale 0.25, seed 7, SNR 25).
    pub fn new(kind: impl Into<String>) -> Self {
        DatasetSpec {
            kind: kind.into(),
            scale: 0.25,
            seed: 7,
            snr: Some(25.0),
            upload: None,
        }
    }

    /// A reference to an uploaded volume blob by content hash.
    pub fn uploaded(hash: impl Into<String>) -> Self {
        DatasetSpec {
            kind: "upload".into(),
            scale: 1.0,
            seed: 0,
            snr: None,
            upload: Some(hash.into()),
        }
    }

    /// Canonical string form, used as the server's memoization key.
    pub fn canonical(&self) -> String {
        if let Some(hash) = &self.upload {
            return format!("upload:{hash}");
        }
        match self.snr {
            Some(snr) => format!("{}:{}:{}:{}", self.kind, self.scale, self.seed, snr),
            None => format!("{}:{}:{}:none", self.kind, self.scale, self.seed),
        }
    }

    fn write_json(&self, w: &mut JsonWriter) {
        w.begin();
        w.str_field("kind", &self.kind);
        w.f64_field("scale", self.scale);
        w.u64_field("seed", self.seed);
        match self.snr {
            Some(snr) => w.f64_field("snr", snr),
            None => w.null_field("snr"),
        }
        // Only uploads carry the hash, so recipe specs encode without it.
        if let Some(hash) = &self.upload {
            w.str_field("upload", hash);
        }
        w.end();
    }

    fn from_json(v: &Json) -> TractoResult<Self> {
        let kind = obj_str(v, "kind")?;
        let upload =
            match v.get("upload") {
                None | Some(Json::Null) => None,
                Some(j) => Some(j.as_str().map(str::to_owned).ok_or_else(|| {
                    TractoError::protocol("dataset field `upload` is not a string")
                })?),
            };
        if (kind == "upload") != upload.is_some() {
            return Err(TractoError::protocol(
                "dataset kind `upload` requires the `upload` hash field (and vice versa)",
            ));
        }
        Ok(DatasetSpec {
            kind,
            scale: obj_f64(v, "scale")?,
            seed: obj_u64(v, "seed")?,
            snr: obj_opt_f64(v, "snr")?,
            upload,
        })
    }
}

/// The MCMC schedule knobs carried on the wire (the same knobs as the `serve` script; the adaptation scheme is always the
/// paper default).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChainSpec {
    /// Burn-in loops.
    pub burnin: u32,
    /// Recorded samples.
    pub samples: u32,
    /// Loops between samples.
    pub interval: u32,
}

impl Default for ChainSpec {
    fn default() -> Self {
        ChainSpec {
            burnin: 300,
            samples: 25,
            interval: 2,
        }
    }
}

/// Step-2 tracking knobs carried on the wire.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrackSpec {
    /// Step length in voxel units.
    pub step: f64,
    /// Angular threshold (minimum successive-direction dot product).
    pub threshold: f64,
    /// Maximum steps per streamline.
    pub max_steps: u32,
}

impl Default for TrackSpec {
    fn default() -> Self {
        TrackSpec {
            step: 0.1,
            threshold: 0.9,
            max_steps: 400,
        }
    }
}

/// What kind of work the job does.
#[derive(Debug, Clone, PartialEq)]
pub enum JobKind {
    /// Step 1 only: estimate posteriors and warm the sample cache.
    Estimate,
    /// The full pipeline: Step 1 via the cache, Step 2 batched.
    Track(TrackSpec),
}

/// The one job-submission payload: everything [`Submit`] carries.
///
/// [`Submit`]: crate::Request::Submit
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// The dataset recipe.
    pub dataset: DatasetSpec,
    /// Estimate or track (with tracking knobs).
    pub kind: JobKind,
    /// MCMC schedule.
    pub chain: ChainSpec,
    /// Master seed for estimation and tracking.
    pub seed: u64,
    /// Give up if the job has not started tracking within this budget.
    pub deadline_ms: Option<u64>,
    /// Batch-admission priority.
    pub priority: Priority,
    /// Per-job override of the service retry budget.
    pub retry_budget: Option<u32>,
    /// Sample-cache interaction.
    pub cache: CachePolicy,
    /// Which direction getter drives Step 2. Additive and optional on the
    /// wire (absent means the default), so no protocol version bump is
    /// needed.
    pub modality: Modality,
    /// Optional stop-mask threshold: a percentile (0–100) of the dataset's
    /// mean-DWI volume. The server derives the stop mask from the
    /// materialized dataset, so only the scalar crosses the wire.
    pub stop_percentile: Option<f64>,
    /// Accounting tenant for rate limits and fair admission. Additive and
    /// optional on the wire (absent means [`DEFAULT_TENANT`]), so no
    /// protocol version bump is needed.
    pub tenant: String,
}

/// The tenant a spec belongs to when it names none. Never emitted on the
/// wire, so default specs stay byte-identical to v3 output.
pub const DEFAULT_TENANT: &str = "default";

impl JobSpec {
    /// An estimation job with default chain/scheduling knobs.
    pub fn estimate(dataset: DatasetSpec) -> Self {
        JobSpec {
            dataset,
            kind: JobKind::Estimate,
            chain: ChainSpec::default(),
            seed: 42,
            deadline_ms: None,
            priority: Priority::Normal,
            retry_budget: None,
            cache: CachePolicy::ReadWrite,
            modality: Modality::Mcmc,
            stop_percentile: None,
            tenant: DEFAULT_TENANT.to_string(),
        }
    }

    /// A tracking job with default knobs.
    pub fn track(dataset: DatasetSpec) -> Self {
        JobSpec {
            kind: JobKind::Track(TrackSpec::default()),
            ..Self::estimate(dataset)
        }
    }

    /// Serialize to a standalone JSON string (one line, no trailing
    /// newline) — the durable form used by the service's job journal.
    pub fn to_json_string(&self) -> String {
        let mut w = JsonWriter::new();
        self.write_json(&mut w);
        w.finish()
    }

    /// Parse a standalone JSON string produced by [`Self::to_json_string`].
    pub fn from_json_str(s: &str) -> TractoResult<Self> {
        let v = tracto_trace::json::parse(s)?;
        Self::from_json(&v)
    }

    /// Decode from an already-parsed JSON value, e.g. one field of a
    /// larger journal record.
    pub fn from_json_value(v: &Json) -> TractoResult<Self> {
        Self::from_json(v)
    }

    pub(crate) fn write_json(&self, w: &mut JsonWriter) {
        w.begin();
        w.raw_field("dataset", |w| self.dataset.write_json(w));
        match &self.kind {
            JobKind::Estimate => w.str_field("job", "estimate"),
            JobKind::Track(t) => {
                w.str_field("job", "track");
                w.f64_field("step", t.step);
                w.f64_field("threshold", t.threshold);
                w.u64_field("max_steps", u64::from(t.max_steps));
            }
        }
        w.u64_field("burnin", u64::from(self.chain.burnin));
        w.u64_field("samples", u64::from(self.chain.samples));
        w.u64_field("interval", u64::from(self.chain.interval));
        w.u64_field("seed", self.seed);
        if let Some(ms) = self.deadline_ms {
            w.u64_field("deadline_ms", ms);
        }
        w.str_field("priority", self.priority.as_str());
        if let Some(n) = self.retry_budget {
            w.u64_field("retry_budget", u64::from(n));
        }
        w.str_field("cache", self.cache.as_str());
        // Post-v3 fields append after `cache` and only when non-default,
        // so default specs encode byte-identically to v3 output.
        if self.modality != Modality::Mcmc {
            w.str_field("modality", self.modality.as_str());
        }
        if let Some(pct) = self.stop_percentile {
            w.f64_field("stop_percentile", pct);
        }
        if self.tenant != DEFAULT_TENANT {
            w.str_field("tenant", &self.tenant);
        }
        w.end();
    }

    pub(crate) fn from_json(v: &Json) -> TractoResult<Self> {
        let dataset = DatasetSpec::from_json(
            v.get("dataset")
                .ok_or_else(|| TractoError::protocol("job spec missing `dataset`"))?,
        )?;
        let kind = match obj_str(v, "job")?.as_str() {
            "estimate" => JobKind::Estimate,
            "track" => JobKind::Track(TrackSpec {
                step: obj_f64(v, "step")?,
                threshold: obj_f64(v, "threshold")?,
                max_steps: obj_u32(v, "max_steps")?,
            }),
            other => {
                return Err(TractoError::protocol(format!(
                    "unknown job kind `{other}` (estimate|track)"
                )))
            }
        };
        Ok(JobSpec {
            dataset,
            kind,
            chain: ChainSpec {
                burnin: obj_u32(v, "burnin")?,
                samples: obj_u32(v, "samples")?,
                interval: obj_u32(v, "interval")?,
            },
            seed: obj_u64(v, "seed")?,
            deadline_ms: obj_opt_u64(v, "deadline_ms")?,
            priority: Priority::parse(&obj_str(v, "priority")?)?,
            retry_budget: obj_opt_u64(v, "retry_budget")?.map(|n| n as u32),
            cache: CachePolicy::parse(&obj_str(v, "cache")?)?,
            modality: match v.get("modality") {
                None | Some(Json::Null) => Modality::Mcmc,
                Some(j) => Modality::parse(j.as_str().ok_or_else(|| {
                    TractoError::protocol("job field `modality` is not a string")
                })?)?,
            },
            stop_percentile: obj_opt_f64(v, "stop_percentile")?,
            tenant: match v.get("tenant") {
                None | Some(Json::Null) => DEFAULT_TENANT.to_string(),
                Some(j) => j
                    .as_str()
                    .map(str::to_owned)
                    .ok_or_else(|| TractoError::protocol("job field `tenant` is not a string"))?,
            },
        })
    }
}

/// The fleet placement key of a job: an FNV-1a hash over exactly the
/// inputs that determine its Step-1 sample-cache entry — the dataset
/// recipe's canonical form, the chain schedule, and the seed. Two specs
/// with equal placement keys resolve to the same cached MCMC samples on
/// whichever host ran either of them first, so a consistent-hash router
/// keyed on this value sends repeat work to the host whose cache is
/// already warm. Tracking knobs, deadlines, and priorities deliberately
/// do not participate: they change the job, not its cache residency.
pub fn placement_key(spec: &JobSpec) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix_bytes = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x1_0000_01b3);
        }
    };
    mix_bytes(spec.dataset.canonical().as_bytes());
    mix_bytes(&spec.chain.burnin.to_le_bytes());
    mix_bytes(&spec.chain.samples.to_le_bytes());
    mix_bytes(&spec.chain.interval.to_le_bytes());
    mix_bytes(&spec.seed.to_le_bytes());
    h
}

/// FNV-1a digest of a raw byte blob: the content hash that names an
/// uploaded volume on the wire (16-hex form) and on disk. Stable across
/// platforms.
pub fn content_digest(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1_0000_01b3);
    }
    h
}

/// FNV-1a digest of a per-sample length table, the compact form of "these
/// two tracking runs are bit-identical". Stable across platforms.
pub fn lengths_digest(lengths: &[Vec<u32>]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |x: u64| {
        h ^= x;
        h = h.wrapping_mul(0x1_0000_01b3);
    };
    mix(lengths.len() as u64);
    for row in lengths {
        mix(row.len() as u64);
        for &l in row {
            mix(u64::from(l));
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(spec: &JobSpec) -> JobSpec {
        let mut w = JsonWriter::new();
        spec.write_json(&mut w);
        let text = w.finish();
        let v = tracto_trace::json::parse(&text).expect("valid JSON");
        JobSpec::from_json(&v).expect("decodes")
    }

    #[test]
    fn track_spec_round_trips() {
        let mut spec = JobSpec::track(DatasetSpec::new("crossing"));
        spec.chain = ChainSpec {
            burnin: 30,
            samples: 2,
            interval: 1,
        };
        spec.seed = 9;
        spec.deadline_ms = Some(1500);
        spec.priority = Priority::High;
        spec.retry_budget = Some(3);
        spec.cache = CachePolicy::Bypass;
        spec.dataset.snr = None;
        assert_eq!(roundtrip(&spec), spec);
    }

    #[test]
    fn estimate_spec_round_trips() {
        let spec = JobSpec::estimate(DatasetSpec::new("1"));
        assert_eq!(roundtrip(&spec), spec);
    }

    #[test]
    fn json_string_helpers_round_trip_on_one_line() {
        let mut spec = JobSpec::track(DatasetSpec::new("2"));
        spec.retry_budget = Some(1);
        let text = spec.to_json_string();
        assert!(!text.contains('\n'), "journal records must be one line");
        assert_eq!(JobSpec::from_json_str(&text).unwrap(), spec);
        assert!(JobSpec::from_json_str("{\"job\":12}").is_err());
    }

    #[test]
    fn priority_and_cache_parse_reject_unknown() {
        assert!(Priority::parse("urgent").is_err());
        assert!(CachePolicy::parse("write-back").is_err());
        assert_eq!(Priority::parse("high").unwrap(), Priority::High);
        assert_eq!(CachePolicy::parse("ro").unwrap(), CachePolicy::ReadOnly);
    }

    #[test]
    fn digest_separates_shapes() {
        let a = vec![vec![1, 2, 3], vec![4]];
        let b = vec![vec![1, 2], vec![3, 4]];
        let c = vec![vec![1, 2, 3], vec![4]];
        assert_ne!(lengths_digest(&a), lengths_digest(&b));
        assert_eq!(lengths_digest(&a), lengths_digest(&c));
        assert_ne!(lengths_digest(&a), lengths_digest(&[]));
    }

    #[test]
    fn uploaded_spec_round_trips_and_keys_by_hash() {
        let spec = JobSpec::track(DatasetSpec::uploaded("0123456789abcdef"));
        assert_eq!(roundtrip(&spec), spec);
        assert_eq!(spec.dataset.canonical(), "upload:0123456789abcdef");
        // A phantom recipe never emits the upload field.
        assert!(!JobSpec::track(DatasetSpec::new("single"))
            .to_json_string()
            .contains("upload"));
        // Kind and hash must agree.
        let mut bad = DatasetSpec::new("single");
        bad.upload = Some("0123456789abcdef".into());
        let text = JobSpec::track(bad).to_json_string();
        assert!(JobSpec::from_json_str(&text).is_err());
    }

    #[test]
    fn placement_key_follows_cache_identity() {
        let base = JobSpec::track(DatasetSpec::new("single"));
        // Equal cache inputs → equal key, even across job kinds and
        // scheduling envelopes.
        let mut estimate = JobSpec::estimate(DatasetSpec::new("single"));
        estimate.deadline_ms = Some(100);
        estimate.priority = Priority::High;
        assert_eq!(placement_key(&base), placement_key(&estimate));
        let mut other_step = base.clone();
        if let JobKind::Track(t) = &mut other_step.kind {
            t.max_steps = 999;
        }
        assert_eq!(placement_key(&base), placement_key(&other_step));
        // Any cache input change moves the key.
        let mut other_seed = base.clone();
        other_seed.seed = 43;
        assert_ne!(placement_key(&base), placement_key(&other_seed));
        let mut other_chain = base.clone();
        other_chain.chain.samples += 1;
        assert_ne!(placement_key(&base), placement_key(&other_chain));
        let mut other_ds = base.clone();
        other_ds.dataset.seed = 8;
        assert_ne!(placement_key(&base), placement_key(&other_ds));
    }

    #[test]
    fn modality_round_trips_and_defaults_stay_v3_compatible() {
        // Non-default modality and stop percentile survive the wire.
        let mut spec = JobSpec::track(DatasetSpec::new("single"));
        spec.modality = Modality::Analytic;
        spec.stop_percentile = Some(60.0);
        assert_eq!(roundtrip(&spec), spec);
        // Default specs never emit the new fields: a v3 peer sees the
        // exact bytes it always did, and a v3 frame (no modality key)
        // decodes to the default modality.
        let text = JobSpec::track(DatasetSpec::new("single")).to_json_string();
        assert!(!text.contains("modality"));
        assert!(!text.contains("stop_percentile"));
        let decoded = JobSpec::from_json_str(&text).unwrap();
        assert_eq!(decoded.modality, Modality::Mcmc);
        assert_eq!(decoded.stop_percentile, None);
        assert!(Modality::parse("deep-learned").is_err());
    }

    #[test]
    fn placement_key_ignores_modality() {
        // Modality changes the job, not its Step-1 cache residency, so it
        // must not move the placement key.
        let base = JobSpec::track(DatasetSpec::new("single"));
        let mut analytic = base.clone();
        analytic.modality = Modality::Analytic;
        analytic.stop_percentile = Some(50.0);
        assert_eq!(placement_key(&base), placement_key(&analytic));
    }

    #[test]
    fn tenant_round_trips_and_default_stays_v3_compatible() {
        // A named tenant survives the wire.
        let mut spec = JobSpec::track(DatasetSpec::new("single"));
        spec.tenant = "hospital-a".to_string();
        assert_eq!(roundtrip(&spec), spec);
        // The default tenant is never emitted: a v3 peer sees the exact
        // bytes it always did, and a v3 frame (no tenant key) decodes to
        // the default tenant.
        let text = JobSpec::track(DatasetSpec::new("single")).to_json_string();
        assert!(!text.contains("tenant"));
        let decoded = JobSpec::from_json_str(&text).unwrap();
        assert_eq!(decoded.tenant, DEFAULT_TENANT);
    }

    #[test]
    fn placement_key_ignores_tenant() {
        // Tenancy is a scheduling envelope, not a cache input: the same
        // work from two tenants must land on the same warm cache.
        let base = JobSpec::track(DatasetSpec::new("single"));
        let mut other = base.clone();
        other.tenant = "hospital-b".to_string();
        assert_eq!(placement_key(&base), placement_key(&other));
    }

    #[test]
    fn canonical_key_distinguishes_noise() {
        let mut a = DatasetSpec::new("single");
        let mut b = a.clone();
        b.snr = None;
        assert_ne!(a.canonical(), b.canonical());
        a.seed = 8;
        assert!(a.canonical().contains("single"));
    }
}
