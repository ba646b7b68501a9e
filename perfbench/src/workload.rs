//! The three workloads and their seeded job lists.
//!
//! A run's whole job list is fixed by `(workload, seed, seconds)`, so two
//! runs with the same arguments submit exactly the same specs in the same
//! order. The generator is a local SplitMix64 rather than the program's
//! own RNG, so a change to the program cannot change the benchmark input.

use tracto_proto::{ChainSpec, DatasetSpec, JobKind, JobSpec};

/// Fewest measured jobs per run: the p90 needs ten samples beyond it in
/// the quieter half of the run.
pub const MIN_JOBS: usize = 200;

/// Seeds stay below 2^53 so they survive the JSON wire exactly.
const SEED_RANGE: u64 = 1 << 40;

/// SplitMix64: tiny, seedable, and stable across program versions.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed ^ 0x5EED_BA5E_D15C_0DE5)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn next_seed(&mut self) -> u64 {
        self.next_u64() % SEED_RANGE
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One job in flight; every job is a fresh recipe, so Step 1 (MCMC)
    /// runs for every job and both cache tiers take writes.
    ColdMcmc,
    /// Sixteen jobs in flight over sixteen tiny recipes estimated during
    /// set-up: per-job serving overhead and cache reads dominate.
    WarmMany,
    /// One job in flight on one large crossing recipe estimated during
    /// set-up: Step 2 (tracking) dominates.
    WarmTracking,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::ColdMcmc,
        Workload::WarmMany,
        Workload::WarmTracking,
    ];

    pub fn parse(name: &str) -> Result<Self, String> {
        Self::ALL
            .into_iter()
            .find(|w| w.name() == name)
            .ok_or_else(|| format!("unknown workload `{name}` (cold_mcmc|warm_many|warm_tracking)"))
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdMcmc => "cold_mcmc",
            Workload::WarmMany => "warm_many",
            Workload::WarmTracking => "warm_tracking",
        }
    }

    /// Closed-loop callers: each waits for its job's terminal event before
    /// submitting the next one.
    pub fn callers(self) -> usize {
        match self {
            Workload::WarmMany => WARM_MANY_RECIPES,
            Workload::ColdMcmc | Workload::WarmTracking => 1,
        }
    }

    /// Whether every measured job must hit the sample cache (`true`) or
    /// miss it (`false`).
    pub fn warm(self) -> bool {
        self != Workload::ColdMcmc
    }

    /// Measured jobs for a run of about `seconds` on a 2-core host.
    fn job_count(self, seconds: u64) -> usize {
        let per_s = match self {
            Workload::ColdMcmc | Workload::WarmTracking => 10,
            Workload::WarmMany => 400,
        };
        MIN_JOBS.max(seconds as usize * per_s)
    }
}

/// The server's default `max_batch_jobs`, so one round fills one batch.
const WARM_MANY_RECIPES: usize = 16;

/// Everything a run submits.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    pub workload: Workload,
    /// Submitted and awaited during set-up; never measured.
    pub warmup: Vec<JobSpec>,
    /// The distinct track specs of the measured phase.
    pub recipes: Vec<JobSpec>,
    /// The measured job list, as indices into `recipes`.
    pub jobs: Vec<usize>,
    /// `serve --cache-mb`, when the workload needs a small memory tier.
    pub cache_mb: Option<u64>,
}

impl Plan {
    /// Content hash of everything the run submits, in order.
    pub fn digest(&self) -> u64 {
        let mut text = String::new();
        for spec in self.warmup.iter().chain(&self.recipes) {
            text.push_str(&spec.to_json_string());
            text.push('\n');
        }
        text.push_str(&format!("{:?}", self.jobs));
        tracto_proto::content_digest(text.as_bytes())
    }
}

fn track_spec(kind: &str, scale: f64, chain: ChainSpec, rng: &mut SplitMix) -> JobSpec {
    let mut spec = JobSpec::track(DatasetSpec {
        kind: kind.to_string(),
        scale,
        seed: rng.next_seed(),
        snr: Some(20.0),
        upload: None,
    });
    spec.chain = chain;
    spec.seed = rng.next_seed();
    spec
}

/// The estimate job that warms the cache for `track` (same dataset, chain
/// and seed, hence the same sample key).
fn estimate_for(track: &JobSpec) -> JobSpec {
    JobSpec {
        kind: JobKind::Estimate,
        ..track.clone()
    }
}

pub fn plan(workload: Workload, seed: u64, seconds: u64) -> Plan {
    let mut rng = SplitMix::new(seed);
    let n = workload.job_count(seconds);
    match workload {
        Workload::ColdMcmc => {
            // Single-bundle phantom at scale 0.1 (13x8x8 voxels) with a
            // short chain: Step 1 is most of each job, and the job is short
            // enough that one run holds at least MIN_JOBS of them.
            let chain = ChainSpec {
                burnin: 30,
                samples: 5,
                interval: 2,
            };
            let mut specs: Vec<JobSpec> = Vec::with_capacity(n + 1);
            while specs.len() < n + 1 {
                let spec = track_spec("single", 0.1, chain, &mut rng);
                if specs.iter().all(|s| s.dataset.seed != spec.dataset.seed) {
                    specs.push(spec);
                }
            }
            let warmup = vec![specs.remove(0)];
            Plan {
                workload,
                warmup,
                recipes: specs,
                jobs: (0..n).collect(),
                // Far below the run's total posterior bytes, so inserts evict.
                cache_mb: Some(1),
            }
        }
        Workload::WarmMany => {
            let chain = ChainSpec {
                burnin: 40,
                samples: 3,
                interval: 2,
            };
            let recipes: Vec<JobSpec> = (0..WARM_MANY_RECIPES)
                .map(|_| track_spec("single", 0.05, chain, &mut rng))
                .collect();
            warm_plan(workload, recipes, n, &mut rng)
        }
        Workload::WarmTracking => {
            // Crossing phantom at scale 0.12 (19x19x6 voxels), twelve
            // samples per voxel: about 440k tracking steps a job. The
            // default 300-loop burn-in matters here: with a converged chain
            // a recipe's step count varies by ~1% with its seeds, against
            // ~5% after 40 loops.
            let chain = ChainSpec {
                burnin: 300,
                samples: 12,
                interval: 1,
            };
            let recipe = track_spec("crossing", 0.12, chain, &mut rng);
            warm_plan(workload, vec![recipe], n, &mut rng)
        }
    }
}

/// A warm plan: set-up estimates every recipe, and the measured list is
/// `n` jobs in rounds of a fresh shuffle of the recipes.
fn warm_plan(workload: Workload, recipes: Vec<JobSpec>, n: usize, rng: &mut SplitMix) -> Plan {
    let mut jobs = Vec::with_capacity(n + recipes.len());
    while jobs.len() < n {
        let mut round: Vec<usize> = (0..recipes.len()).collect();
        for i in (1..round.len()).rev() {
            round.swap(i, rng.below(i + 1));
        }
        jobs.extend(round);
    }
    jobs.truncate(n);
    Plan {
        workload,
        warmup: recipes.iter().map(estimate_for).collect(),
        recipes,
        jobs,
        cache_mb: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_the_same_job_list() {
        for w in Workload::ALL {
            let a = plan(w, 7, 20);
            assert_eq!(a, plan(w, 7, 20), "{}", w.name());
            assert_eq!(a.digest(), plan(w, 7, 20).digest());
            assert_ne!(a, plan(w, 8, 20), "{}", w.name());
            assert_ne!(a.digest(), plan(w, 8, 20).digest());
            assert!(a.jobs.len() >= MIN_JOBS);
            assert!(a.jobs.iter().all(|&j| j < a.recipes.len()));
        }
    }

    #[test]
    fn cold_recipes_are_all_distinct_from_each_other_and_the_warmup() {
        let p = plan(Workload::ColdMcmc, 3, 20);
        let mut seeds: Vec<u64> = p
            .recipes
            .iter()
            .chain(&p.warmup)
            .map(|s| s.dataset.seed)
            .collect();
        let total = seeds.len();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), total);
    }

    #[test]
    fn warm_workloads_estimate_exactly_their_recipes() {
        for w in [Workload::WarmMany, Workload::WarmTracking] {
            let p = plan(w, 11, 20);
            assert_eq!(p.warmup.len(), p.recipes.len());
            for (e, t) in p.warmup.iter().zip(&p.recipes) {
                assert_eq!(e.kind, JobKind::Estimate);
                assert_eq!((&e.dataset, e.chain, e.seed), (&t.dataset, t.chain, t.seed));
            }
        }
    }
}
