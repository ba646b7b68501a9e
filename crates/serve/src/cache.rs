//! Posterior sample-volume caching.
//!
//! Step 1 (voxelwise MCMC) dominates end-to-end cost, yet its output
//! depends only on the dataset content and the estimation configuration —
//! both fully hashable. The service therefore keys a byte-bounded cache of
//! [`SampleVolumes`] stacks (victim choice per [`EvictionPolicy`]) on a
//! content hash of `(dataset, PriorConfig, ChainConfig, seed)`, so a
//! repeated tracking job against a known dataset skips Step 1 entirely. A
//! directory-backed variant persists entries in the CLI's TRV4 sample
//! format so `tracto track --cache-dir` shares them across processes.

use crate::lock;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::sync::Mutex;
use std::time::SystemTime;
use tracto::diffusion::{Acquisition, NoiseLikelihood, PriorConfig};
use tracto::mcmc::{AdaptScheme, ChainConfig, SampleVolumes};
use tracto::phantom::Dataset;
use tracto_trace::{Tracer, TractoError, TractoResult, Value};
use tracto_volume::io::{read_volume4, write_volume4};
use tracto_volume::{Mask, Volume4};

/// How the byte-bounded cache tiers pick a victim when full.
///
/// The default is the winner of the eviction ablation in EXPERIMENTS.md,
/// run under the `tracto loadgen` repeat-rate distributions; the others
/// stay selectable via `--cache-policy` for re-running it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EvictionPolicy {
    /// Evict the least recently used entry.
    Lru,
    /// Evict the least frequently used entry (hits since admission;
    /// ties broken toward the least recently used).
    Lfu,
    /// Evict the entry with the least retained benefit per byte:
    /// `(hits + 1) × recompute-cost / bytes`, falling back to plain
    /// frequency when no recompute cost was recorded. Keeps entries that
    /// are expensive to rebuild relative to the space they occupy.
    #[default]
    CostAware,
}

impl EvictionPolicy {
    /// Canonical CLI name.
    pub fn as_str(&self) -> &'static str {
        match self {
            EvictionPolicy::Lru => "lru",
            EvictionPolicy::Lfu => "lfu",
            EvictionPolicy::CostAware => "cost",
        }
    }

    /// Parse a CLI name.
    pub fn parse(s: &str) -> TractoResult<Self> {
        match s {
            "lru" => Ok(EvictionPolicy::Lru),
            "lfu" => Ok(EvictionPolicy::Lfu),
            "cost" | "cost-aware" => Ok(EvictionPolicy::CostAware),
            other => Err(TractoError::config(format!(
                "unknown eviction policy `{other}` (lru|lfu|cost)"
            ))),
        }
    }
}

/// Content hash identifying one Step-1 computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SampleKey(pub u64);

impl SampleKey {
    /// Hex form used for on-disk directory names.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// FNV-1a accumulator over the typed fields that determine Step-1 output.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn f32(&mut self, v: f32) {
        self.u64(v.to_bits() as u64);
    }
}

/// Hash everything Step 1 reads: DWI signal bits, white-matter mask,
/// acquisition protocol, priors, chain schedule, and the master seed.
/// Estimation is deterministic, so equal keys imply bit-identical
/// [`SampleVolumes`].
pub fn sample_key(
    dataset: &Dataset,
    prior: &PriorConfig,
    chain: &ChainConfig,
    seed: u64,
) -> SampleKey {
    sample_key_parts(
        &dataset.dwi,
        &dataset.wm_mask,
        &dataset.acq,
        prior,
        chain,
        seed,
    )
}

/// [`sample_key`] over the raw dataset parts, for callers (like the CLI)
/// holding a stored dataset rather than a [`Dataset`] struct.
pub fn sample_key_parts(
    dwi: &Volume4<f32>,
    wm_mask: &Mask,
    acq: &Acquisition,
    prior: &PriorConfig,
    chain: &ChainConfig,
    seed: u64,
) -> SampleKey {
    let mut h = Fnv::new();
    let dims = dwi.dims();
    h.u64(dims.nx as u64);
    h.u64(dims.ny as u64);
    h.u64(dims.nz as u64);
    h.u64(dwi.nt() as u64);
    for &v in dwi.as_slice() {
        h.f32(v);
    }
    for idx in wm_mask.indices() {
        h.u64(idx as u64);
    }
    for (&b, g) in acq.bvals().iter().zip(acq.grads()) {
        h.f64(b);
        h.f64(g.x);
        h.f64(g.y);
        h.f64(g.z);
    }
    h.f64(prior.d_max);
    h.f64(prior.sigma_max);
    match prior.ard_weight {
        None => h.u64(0),
        Some(w) => {
            h.u64(1);
            h.f64(w);
        }
    }
    h.u64(match prior.likelihood {
        NoiseLikelihood::Gaussian => 0,
        NoiseLikelihood::Rician => 1,
    });
    h.u64(prior.max_sticks as u64);
    h.u64(chain.num_burnin as u64);
    h.u64(chain.num_samples as u64);
    h.u64(chain.sample_interval as u64);
    match chain.adapt {
        AdaptScheme::Fixed => h.u64(0),
        AdaptScheme::Band {
            interval,
            lo,
            hi,
            grow,
            shrink,
        } => {
            h.u64(1);
            h.u64(interval as u64);
            h.f64(lo);
            h.f64(hi);
            h.f64(grow);
            h.f64(shrink);
        }
    }
    h.u64(seed);
    SampleKey(h.0)
}

/// Device-resident footprint of one cached stack: six f32 fields over
/// `dims × num_samples`.
pub fn sample_bytes(samples: &SampleVolumes) -> u64 {
    6 * samples.dims().len() as u64 * samples.num_samples() as u64 * 4
}

struct CacheEntry {
    key: SampleKey,
    samples: Arc<SampleVolumes>,
    bytes: u64,
    /// Hits since admission (refreshing an entry preserves its count).
    hits: u64,
    /// Wall-clock cost of the estimation that produced this entry, in
    /// milliseconds; `0.0` when unknown (e.g. promoted from disk).
    cost_ms: f64,
}

impl CacheEntry {
    /// Cost-aware retention score: benefit per byte. Entries with no
    /// recorded cost score by frequency alone (cost cancels bytes).
    fn score(&self) -> f64 {
        let cost = if self.cost_ms > 0.0 {
            self.cost_ms
        } else {
            self.bytes as f64
        };
        (self.hits + 1) as f64 * cost / (self.bytes.max(1)) as f64
    }
}

/// Pick an eviction victim's index from `(hits, cost-aware score)` pairs.
/// Callers keep entries in recency order (front = least recently used), so
/// index 0 is the LRU victim and the first-occurrence argmin used by the
/// other policies breaks ties toward the least recently used entry.
fn victim_index(policy: EvictionPolicy, entries: impl Iterator<Item = (u64, f64)>) -> usize {
    match policy {
        EvictionPolicy::Lru => 0,
        EvictionPolicy::Lfu => entries
            .enumerate()
            .min_by_key(|&(_, (hits, _))| hits)
            .map_or(0, |(i, _)| i),
        EvictionPolicy::CostAware => entries
            .enumerate()
            .min_by(|(_, (_, a)), (_, (_, b))| a.total_cmp(b))
            .map_or(0, |(i, _)| i),
    }
}

struct CacheInner {
    // Recency order: front = least recently used.
    entries: Vec<CacheEntry>,
    bytes: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// Byte-bounded cache of posterior sample stacks. The victim choice when
/// full is pluggable ([`EvictionPolicy`], default the ablation winner).
pub struct SampleCache {
    max_bytes: u64,
    policy: EvictionPolicy,
    inner: Mutex<CacheInner>,
    tracer: Tracer,
}

/// Point-in-time cache statistics.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CacheStats {
    /// Lookups that found an entry.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries evicted to respect the byte bound.
    pub evictions: u64,
    /// Bytes currently held.
    pub bytes: u64,
    /// Entries currently held.
    pub entries: usize,
}

impl CacheStats {
    /// Hit rate in `[0, 1]` (1.0 when no lookups happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            return 1.0;
        }
        self.hits as f64 / total as f64
    }
}

impl SampleCache {
    /// Create a cache bounded to `max_bytes` of sample data.
    pub fn new(max_bytes: u64) -> Self {
        SampleCache {
            max_bytes,
            policy: EvictionPolicy::default(),
            inner: Mutex::new(CacheInner {
                entries: Vec::new(),
                bytes: 0,
                hits: 0,
                misses: 0,
                evictions: 0,
            }),
            tracer: Tracer::disabled(),
        }
    }

    /// Emit hit/miss/eviction events into `tracer`.
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// Choose the eviction policy (default: [`EvictionPolicy::default`]).
    pub fn with_policy(mut self, policy: EvictionPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Whether a key is resident, without touching recency, frequency, or
    /// the hit/miss counters — admission probes must not skew eviction.
    pub fn contains(&self, key: SampleKey) -> bool {
        lock(&self.inner).entries.iter().any(|e| e.key == key)
    }

    /// Look up a key, refreshing its recency and frequency.
    pub fn get(&self, key: SampleKey) -> Option<Arc<SampleVolumes>> {
        let mut inner = lock(&self.inner);
        if let Some(pos) = inner.entries.iter().position(|e| e.key == key) {
            let mut entry = inner.entries.remove(pos);
            entry.hits += 1;
            let samples = Arc::clone(&entry.samples);
            inner.entries.push(entry);
            inner.hits += 1;
            drop(inner);
            if self.tracer.enabled() {
                self.tracer
                    .emit("serve.cache_hit", &[("key", Value::Text(key.hex()))]);
            }
            Some(samples)
        } else {
            inner.misses += 1;
            drop(inner);
            if self.tracer.enabled() {
                self.tracer
                    .emit("serve.cache_miss", &[("key", Value::Text(key.hex()))]);
            }
            None
        }
    }

    /// Insert (or refresh) an entry, evicting policy-chosen victims until
    /// the byte bound holds. An entry larger than the whole bound is
    /// simply not retained.
    pub fn insert(&self, key: SampleKey, samples: Arc<SampleVolumes>) {
        self.insert_with_cost(key, samples, 0.0);
    }

    /// [`insert`](Self::insert), recording the wall-clock cost (ms) of the
    /// estimation that produced the entry so the cost-aware policy can
    /// keep expensive-to-rebuild stacks preferentially.
    pub fn insert_with_cost(&self, key: SampleKey, samples: Arc<SampleVolumes>, cost_ms: f64) {
        let bytes = sample_bytes(&samples);
        let mut inner = lock(&self.inner);
        let mut hits = 0;
        if let Some(pos) = inner.entries.iter().position(|e| e.key == key) {
            let entry = inner.entries.remove(pos);
            inner.bytes -= entry.bytes;
            hits = entry.hits;
        }
        if bytes > self.max_bytes {
            return;
        }
        while inner.bytes + bytes > self.max_bytes {
            let victim = victim_index(
                self.policy,
                inner.entries.iter().map(|e| (e.hits, e.score())),
            );
            let evicted = inner.entries.remove(victim);
            inner.bytes -= evicted.bytes;
            inner.evictions += 1;
            if self.tracer.enabled() {
                self.tracer.emit(
                    "serve.cache_evict",
                    &[
                        ("key", Value::Text(evicted.key.hex())),
                        ("bytes", evicted.bytes.into()),
                        ("policy", Value::Str(self.policy.as_str())),
                    ],
                );
            }
        }
        inner.bytes += bytes;
        inner.entries.push(CacheEntry {
            key,
            samples,
            bytes,
            hits,
            cost_ms,
        });
    }

    /// Current statistics.
    pub fn stats(&self) -> CacheStats {
        let inner = lock(&self.inner);
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
            bytes: inner.bytes,
            entries: inner.entries.len(),
        }
    }
}

const DISK_FIELDS: [&str; 6] = ["f1", "f2", "th1", "ph1", "th2", "ph2"];

/// Directory-backed sample cache in the CLI's TRV4 layout: one
/// subdirectory per key (`<dir>/<hex key>/{f1,f2,th1,ph1,th2,ph2}.trv4`).
///
/// Optionally byte-capped: with [`DiskSampleCache::with_limit`] the cache
/// evicts policy-chosen entry directories on insert until the bound
/// holds. Recency survives restarts via file modification times — a hit
/// touches the entry's `f1.trv4`, and [`DiskSampleCache::open`] rebuilds
/// the recency order from the on-disk timestamps.
pub struct DiskSampleCache {
    dir: PathBuf,
    max_bytes: Option<u64>,
    policy: EvictionPolicy,
    tracer: Tracer,
    state: Mutex<DiskState>,
}

struct DiskEntry {
    key: SampleKey,
    /// Summed file sizes of the entry directory.
    bytes: u64,
    /// Hits since this process opened the cache (frequency does not
    /// survive a restart; a reopened cache warms its counts from zero).
    hits: u64,
    /// Recompute cost (ms) read from the entry's `cost` sidecar file;
    /// `0.0` when the entry predates cost recording.
    cost_ms: f64,
}

impl DiskEntry {
    /// Same retained-benefit-per-byte score as the memory tier.
    fn score(&self) -> f64 {
        let cost = if self.cost_ms > 0.0 {
            self.cost_ms
        } else {
            self.bytes as f64
        };
        (self.hits + 1) as f64 * cost / (self.bytes.max(1)) as f64
    }
}

struct DiskState {
    // Recency order: front = least recently used.
    entries: Vec<DiskEntry>,
    bytes: u64,
}

fn dir_entry_stats(dir: &Path) -> (u64, Option<SystemTime>) {
    let mut bytes = 0u64;
    let mut newest: Option<SystemTime> = None;
    if let Ok(read) = std::fs::read_dir(dir) {
        for file in read.flatten() {
            if let Ok(meta) = file.metadata() {
                bytes += meta.len();
                if let Ok(modified) = meta.modified() {
                    newest = Some(newest.map_or(modified, |n| n.max(modified)));
                }
            }
        }
    }
    (bytes, newest)
}

impl DiskSampleCache {
    /// Open (creating if needed) a cache rooted at `dir`, rebuilding the
    /// recency order from entry modification times.
    pub fn open(dir: &Path) -> TractoResult<Self> {
        std::fs::create_dir_all(dir)
            .map_err(|e| TractoError::io(format!("create cache dir {}", dir.display()), e))?;
        let read = std::fs::read_dir(dir)
            .map_err(|e| TractoError::io(format!("scan cache dir {}", dir.display()), e))?;
        let mut scanned: Vec<(SampleKey, u64, f64, Option<SystemTime>)> = Vec::new();
        for entry in read.flatten() {
            let name = entry.file_name();
            let Some(key) = name
                .to_str()
                .filter(|n| n.len() == 16)
                .and_then(|n| u64::from_str_radix(n, 16).ok())
            else {
                continue; // unrelated file/dir — not ours to manage
            };
            if !entry.path().is_dir() {
                continue;
            }
            let (bytes, modified) = dir_entry_stats(&entry.path());
            let cost_ms = std::fs::read_to_string(entry.path().join("cost"))
                .ok()
                .and_then(|s| s.trim().parse::<f64>().ok())
                .filter(|c| c.is_finite() && *c > 0.0)
                .unwrap_or(0.0);
            scanned.push((SampleKey(key), bytes, cost_ms, modified));
        }
        scanned.sort_by_key(|&(key, _, _, modified)| (modified, key));
        let bytes = scanned.iter().map(|&(_, b, _, _)| b).sum();
        Ok(DiskSampleCache {
            dir: dir.to_path_buf(),
            max_bytes: None,
            policy: EvictionPolicy::default(),
            tracer: Tracer::disabled(),
            state: Mutex::new(DiskState {
                entries: scanned
                    .into_iter()
                    .map(|(key, bytes, cost_ms, _)| DiskEntry {
                        key,
                        bytes,
                        hits: 0,
                        cost_ms,
                    })
                    .collect(),
                bytes,
            }),
        })
    }

    /// Cap the cache at `max_bytes`, evicting least-recently-used entries
    /// immediately if the existing contents already exceed the bound.
    pub fn with_limit(mut self, max_bytes: u64) -> Self {
        self.max_bytes = Some(max_bytes);
        let mut state = lock(&self.state);
        self.enforce_cap(&mut state);
        drop(state);
        self
    }

    /// Emit hit/miss/eviction/poisoned-entry events into `tracer`.
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// Choose the eviction policy (default: [`EvictionPolicy::default`]).
    pub fn with_policy(mut self, policy: EvictionPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Entries currently tracked.
    pub fn len(&self) -> usize {
        lock(&self.state).entries.len()
    }

    /// True when the cache tracks no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes currently held on disk (tracked entries only).
    pub fn bytes(&self) -> u64 {
        lock(&self.state).bytes
    }

    fn entry_dir(&self, key: SampleKey) -> PathBuf {
        self.dir.join(key.hex())
    }

    /// Whether a key is present on disk, without opening or verifying the
    /// entry (admission probes only need residency, not bytes).
    pub fn contains(&self, key: SampleKey) -> bool {
        lock(&self.state).entries.iter().any(|e| e.key == key)
    }

    fn forget(state: &mut DiskState, key: SampleKey) -> u64 {
        if let Some(pos) = state.entries.iter().position(|e| e.key == key) {
            let entry = state.entries.remove(pos);
            state.bytes -= entry.bytes;
            return entry.hits;
        }
        0
    }

    /// Delete the policy-chosen victim; false when nothing is left.
    fn evict_one(&self, state: &mut DiskState) -> bool {
        if state.entries.is_empty() {
            return false;
        }
        let victim = victim_index(
            self.policy,
            state.entries.iter().map(|e| (e.hits, e.score())),
        );
        let DiskEntry { key, bytes, .. } = state.entries.remove(victim);
        state.bytes -= bytes;
        std::fs::remove_dir_all(self.entry_dir(key)).ok();
        if self.tracer.enabled() {
            self.tracer.emit(
                "serve.disk_cache_evict",
                &[
                    ("key", Value::Text(key.hex())),
                    ("bytes", bytes.into()),
                    ("policy", Value::Str(self.policy.as_str())),
                ],
            );
        }
        true
    }

    fn enforce_cap(&self, state: &mut DiskState) {
        let Some(max) = self.max_bytes else { return };
        while state.bytes > max && self.evict_one(state) {}
    }

    /// Load an entry. `Ok(None)` is a clean miss. A present-but-unreadable
    /// entry (truncated or corrupt file) is quarantined — deleted from disk,
    /// dropped from the index, reported via a `serve.cache_quarantine` trace
    /// event — and also returns `Ok(None)` so callers fall through to a
    /// recompute instead of failing the job.
    pub fn get(&self, key: SampleKey) -> TractoResult<Option<SampleVolumes>> {
        let dir = self.entry_dir(key);
        if !dir.is_dir() {
            if self.tracer.enabled() {
                self.tracer
                    .emit("serve.disk_cache_miss", &[("key", Value::Text(key.hex()))]);
            }
            return Ok(None);
        }
        match self.read_entry(&dir) {
            Ok(samples) => {
                let mut state = lock(&self.state);
                if let Some(pos) = state.entries.iter().position(|e| e.key == key) {
                    let mut entry = state.entries.remove(pos);
                    entry.hits += 1;
                    state.entries.push(entry);
                }
                drop(state);
                // Touch the entry so recency survives a restart (best
                // effort — a read-only cache dir still works, it just
                // degrades to scan order).
                if let Ok(f) = std::fs::File::options()
                    .write(true)
                    .open(dir.join("f1.trv4"))
                {
                    f.set_modified(SystemTime::now()).ok();
                }
                if self.tracer.enabled() {
                    self.tracer
                        .emit("serve.disk_cache_hit", &[("key", Value::Text(key.hex()))]);
                }
                Ok(Some(samples))
            }
            Err(err) => {
                // Quarantine: a present-but-unreadable entry (truncated or
                // corrupt file) is deleted and forgotten so it can never
                // poison the cache twice, then reported as a clean miss —
                // the caller recomputes and `put` repopulates the slot.
                std::fs::remove_dir_all(&dir).ok();
                let mut state = lock(&self.state);
                Self::forget(&mut state, key);
                drop(state);
                if self.tracer.enabled() {
                    self.tracer.emit(
                        "serve.cache_quarantine",
                        &[
                            ("key", Value::Text(key.hex())),
                            ("error", Value::Text(err.to_string())),
                        ],
                    );
                }
                Ok(None)
            }
        }
    }

    fn read_entry(&self, dir: &Path) -> TractoResult<SampleVolumes> {
        let mut vols: Vec<Volume4<f32>> = Vec::with_capacity(6);
        for name in DISK_FIELDS {
            let path = dir.join(format!("{name}.trv4"));
            let data = std::fs::read(&path)
                .map_err(|e| TractoError::io(format!("read cache entry {}", path.display()), e))?;
            let vol = read_volume4(&mut data.as_slice()).map_err(|e| {
                TractoError::format_with(format!("corrupt cache entry {}", path.display()), e)
            })?;
            vols.push(vol);
        }
        let [f1, f2, th1, ph1, th2, ph2]: [Volume4<f32>; 6] = vols
            .try_into()
            .map_err(|_| TractoError::format("cache entry field count"))?;
        Ok(SampleVolumes {
            f1,
            f2,
            th1,
            ph1,
            th2,
            ph2,
        })
    }

    /// Persist an entry (overwrites), then evict policy-chosen victims
    /// while the byte cap is exceeded.
    pub fn put(&self, key: SampleKey, samples: &SampleVolumes) -> TractoResult<()> {
        self.put_with_cost(key, samples, 0.0)
    }

    /// [`put`](Self::put), recording the wall-clock estimation cost (ms)
    /// in a `cost` sidecar file so the cost-aware policy survives a
    /// restart (unlike hit counts, which reset per process).
    pub fn put_with_cost(
        &self,
        key: SampleKey,
        samples: &SampleVolumes,
        cost_ms: f64,
    ) -> TractoResult<()> {
        let dir = self.entry_dir(key);
        std::fs::create_dir_all(&dir)
            .map_err(|e| TractoError::io(format!("create cache entry {}", dir.display()), e))?;
        let fields = [
            ("f1", &samples.f1),
            ("f2", &samples.f2),
            ("th1", &samples.th1),
            ("ph1", &samples.ph1),
            ("th2", &samples.th2),
            ("ph2", &samples.ph2),
        ];
        let mut written = 0u64;
        for (name, vol) in fields {
            let mut buf = Vec::new();
            write_volume4(&mut buf, vol)
                .map_err(|e| TractoError::format_with(format!("encode {name}.trv4"), e))?;
            let path = dir.join(format!("{name}.trv4"));
            written += buf.len() as u64;
            std::fs::write(&path, buf)
                .map_err(|e| TractoError::io(format!("write cache entry {}", path.display()), e))?;
        }
        if cost_ms > 0.0 {
            // Best-effort sidecar: a missing cost file only degrades the
            // cost-aware score to frequency, never the entry itself.
            let text = format!("{cost_ms:.3}\n");
            if std::fs::write(dir.join("cost"), text.as_bytes()).is_ok() {
                written += text.len() as u64;
            }
        }
        let mut state = lock(&self.state);
        let hits = Self::forget(&mut state, key);
        // Mirror the memory tier: the fresh entry is never its own victim
        // (an LFU/cost-aware scan would otherwise always pick the zero-hit
        // newcomer) — evict among existing entries, then admit. An entry
        // larger than the whole cap is simply not retained.
        if let Some(max) = self.max_bytes {
            while state.bytes + written > max && self.evict_one(&mut state) {}
            if written > max {
                drop(state);
                std::fs::remove_dir_all(&dir).ok();
                return Ok(());
            }
        }
        state.entries.push(DiskEntry {
            key,
            bytes: written,
            hits,
            cost_ms,
        });
        state.bytes += written;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracto_volume::Dim3;

    fn stack(dims: Dim3, n: usize, fill: f32) -> Arc<SampleVolumes> {
        let mut sv = SampleVolumes::zeros(dims, n);
        for c in dims.iter() {
            for s in 0..n {
                sv.f1.set(c, s, fill);
            }
        }
        Arc::new(sv)
    }

    #[test]
    fn key_sensitive_to_each_input() {
        let ds = tracto::phantom::datasets::single_bundle(Dim3::new(6, 4, 4), Some(20.0), 3);
        let prior = PriorConfig::default();
        let chain = ChainConfig::fast_test();
        let base = sample_key(&ds, &prior, &chain, 42);
        assert_eq!(base, sample_key(&ds, &prior, &chain, 42), "deterministic");
        assert_ne!(base, sample_key(&ds, &prior, &chain, 43), "seed matters");
        let other_chain = ChainConfig {
            num_samples: chain.num_samples + 1,
            ..chain
        };
        assert_ne!(
            base,
            sample_key(&ds, &prior, &other_chain, 42),
            "chain matters"
        );
        let other_prior = PriorConfig {
            d_max: prior.d_max * 2.0,
            ..prior
        };
        assert_ne!(
            base,
            sample_key(&ds, &other_prior, &chain, 42),
            "prior matters"
        );
        let ds2 = tracto::phantom::datasets::single_bundle(Dim3::new(6, 4, 4), Some(20.0), 4);
        assert_ne!(
            base,
            sample_key(&ds2, &prior, &chain, 42),
            "dataset content matters"
        );
    }

    #[test]
    fn lru_evicts_oldest_under_byte_bound() {
        let dims = Dim3::new(4, 4, 4);
        let per = sample_bytes(&stack(dims, 2, 0.0));
        let cache = SampleCache::new(2 * per).with_policy(EvictionPolicy::Lru);
        cache.insert(SampleKey(1), stack(dims, 2, 0.1));
        cache.insert(SampleKey(2), stack(dims, 2, 0.2));
        assert!(cache.get(SampleKey(1)).is_some(), "refresh key 1");
        cache.insert(SampleKey(3), stack(dims, 2, 0.3));
        // Key 2 was least recently used, so it went.
        assert!(cache.get(SampleKey(2)).is_none());
        assert!(cache.get(SampleKey(1)).is_some());
        assert!(cache.get(SampleKey(3)).is_some());
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.entries, 2);
        assert!(stats.bytes <= 2 * per);
    }

    #[test]
    fn lfu_evicts_the_coldest_entry_even_when_recently_used() {
        let dims = Dim3::new(4, 4, 4);
        let per = sample_bytes(&stack(dims, 2, 0.0));
        let cache = SampleCache::new(2 * per).with_policy(EvictionPolicy::Lfu);
        cache.insert(SampleKey(1), stack(dims, 2, 0.1));
        cache.insert(SampleKey(2), stack(dims, 2, 0.2));
        assert!(cache.get(SampleKey(1)).is_some());
        assert!(cache.get(SampleKey(1)).is_some());
        assert!(cache.get(SampleKey(2)).is_some());
        // Recency order is now [1, 2] — LRU would evict key 1 here, but
        // key 2 has fewer hits (1 vs 2), so LFU picks it.
        cache.insert(SampleKey(3), stack(dims, 2, 0.3));
        assert!(cache.get(SampleKey(2)).is_none(), "coldest entry evicted");
        assert!(cache.get(SampleKey(1)).is_some());
        assert!(cache.get(SampleKey(3)).is_some());
    }

    #[test]
    fn cost_aware_keeps_expensive_entries_over_hot_cheap_ones() {
        let dims = Dim3::new(4, 4, 4);
        let per = sample_bytes(&stack(dims, 2, 0.0));
        let cache = SampleCache::new(2 * per).with_policy(EvictionPolicy::CostAware);
        cache.insert_with_cost(SampleKey(1), stack(dims, 2, 0.1), 5_000.0);
        cache.insert_with_cost(SampleKey(2), stack(dims, 2, 0.2), 1.0);
        // Key 2 is both more recent and more frequent — but nearly free to
        // recompute, so it scores below the expensive key 1.
        assert!(cache.get(SampleKey(2)).is_some());
        cache.insert_with_cost(SampleKey(3), stack(dims, 2, 0.3), 100.0);
        assert!(cache.get(SampleKey(2)).is_none(), "cheap entry evicted");
        assert!(cache.get(SampleKey(1)).is_some(), "expensive entry kept");
        assert!(cache.get(SampleKey(3)).is_some());
    }

    #[test]
    fn oversized_entry_not_retained() {
        let dims = Dim3::new(4, 4, 4);
        let cache = SampleCache::new(10);
        cache.insert(SampleKey(1), stack(dims, 2, 0.5));
        assert!(cache.get(SampleKey(1)).is_none());
        assert_eq!(cache.stats().bytes, 0);
    }

    #[test]
    fn hit_rate_counts() {
        let dims = Dim3::new(4, 4, 4);
        let cache = SampleCache::new(u64::MAX);
        assert_eq!(cache.stats().hit_rate(), 1.0);
        cache.insert(SampleKey(7), stack(dims, 1, 0.5));
        assert!(cache.get(SampleKey(7)).is_some());
        assert!(cache.get(SampleKey(8)).is_none());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn disk_cache_roundtrip() {
        let dims = Dim3::new(3, 2, 2);
        let dir = std::env::temp_dir().join(format!("tracto-serve-cache-{}", std::process::id()));
        let cache = DiskSampleCache::open(&dir).unwrap();
        let key = SampleKey(0xABCD);
        assert!(cache.get(key).unwrap().is_none());
        let sv = stack(dims, 2, 0.75);
        cache.put(key, &sv).unwrap();
        let back = cache.get(key).unwrap().expect("entry persisted");
        assert_eq!(back.f1, sv.f1);
        assert_eq!(back.num_samples(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn disk_cache_byte_cap_evicts_lru_and_traces() {
        use tracto_trace::{RingSink, Tracer};

        let dims = Dim3::new(3, 2, 2);
        let dir = std::env::temp_dir().join(format!(
            "tracto-serve-disk-lru-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        let ring = Arc::new(RingSink::new(128));
        let cache = DiskSampleCache::open(&dir)
            .unwrap()
            .with_tracer(Tracer::shared(ring.clone()));
        let sv = stack(dims, 2, 0.5);
        cache.put(SampleKey(1), &sv).unwrap();
        let per = cache.bytes();
        assert!(per > 0);

        // Re-open with a cap that fits exactly two entries.
        drop(cache);
        let cache = DiskSampleCache::open(&dir)
            .unwrap()
            .with_limit(2 * per)
            .with_policy(EvictionPolicy::Lru)
            .with_tracer(Tracer::shared(ring.clone()));
        assert_eq!(cache.len(), 1);
        cache.put(SampleKey(2), &sv).unwrap();
        // Refresh key 1 so key 2 becomes the LRU.
        assert!(cache.get(SampleKey(1)).unwrap().is_some());
        cache.put(SampleKey(3), &sv).unwrap();

        assert_eq!(cache.len(), 2);
        assert!(cache.bytes() <= 2 * per);
        assert!(cache.get(SampleKey(2)).unwrap().is_none(), "LRU evicted");
        assert!(cache.get(SampleKey(1)).unwrap().is_some());
        assert!(cache.get(SampleKey(3)).unwrap().is_some());
        let evicts = ring.named("serve.disk_cache_evict");
        assert_eq!(evicts.len(), 1);
        assert_eq!(
            evicts[0].field("key"),
            Some(&tracto_trace::Value::Text(SampleKey(2).hex()))
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn disk_lfu_evicts_coldest_and_cost_sidecar_survives_reopen() {
        let dims = Dim3::new(3, 2, 2);
        let dir = std::env::temp_dir().join(format!(
            "tracto-serve-disk-policy-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        let cache = DiskSampleCache::open(&dir).unwrap();
        let sv = stack(dims, 2, 0.5);
        cache.put(SampleKey(1), &sv).unwrap();
        let per = cache.bytes();
        drop(cache);

        // LFU on disk: key 1 is hotter (2 hits) than key 2 (1 hit), so
        // the third put evicts key 2 even though key 1 is less recent.
        let cache = DiskSampleCache::open(&dir)
            .unwrap()
            .with_policy(EvictionPolicy::Lfu)
            .with_limit(2 * per + 64);
        cache.put(SampleKey(2), &sv).unwrap();
        assert!(cache.get(SampleKey(1)).unwrap().is_some());
        assert!(cache.get(SampleKey(1)).unwrap().is_some());
        assert!(cache.get(SampleKey(2)).unwrap().is_some());
        cache.put(SampleKey(3), &sv).unwrap();
        assert!(
            cache.get(SampleKey(2)).unwrap().is_none(),
            "coldest evicted"
        );
        assert!(cache.get(SampleKey(1)).unwrap().is_some());
        drop(cache);

        // Cost sidecars persist across a reopen: the expensive entry
        // survives a cap squeeze even with all hit counts reset to zero.
        std::fs::remove_dir_all(&dir).ok();
        let cache = DiskSampleCache::open(&dir).unwrap();
        cache.put_with_cost(SampleKey(10), &sv, 9_000.0).unwrap();
        cache.put(SampleKey(11), &sv).unwrap();
        let both = cache.bytes();
        drop(cache);
        let cache = DiskSampleCache::open(&dir)
            .unwrap()
            .with_policy(EvictionPolicy::CostAware)
            .with_limit(both - 1);
        assert_eq!(cache.len(), 1);
        assert!(cache.get(SampleKey(11)).unwrap().is_none(), "cheap evicted");
        let back = cache.get(SampleKey(10)).unwrap();
        assert!(back.is_some(), "expensive entry kept via persisted cost");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn poisoned_disk_entry_is_quarantined_with_trace_event() {
        use tracto_trace::{RingSink, Tracer, Value};

        let dims = Dim3::new(3, 2, 2);
        let dir = std::env::temp_dir().join(format!(
            "tracto-serve-disk-poison-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        let ring = Arc::new(RingSink::new(32));
        let cache = DiskSampleCache::open(&dir)
            .unwrap()
            .with_tracer(Tracer::shared(ring.clone()));
        let key = SampleKey(0xBEEF);
        let sv = stack(dims, 2, 0.25);
        cache.put(key, &sv).unwrap();

        // Truncate one field mid-header: the entry is now poisoned.
        let entry_dir = dir.join(key.hex());
        let poisoned = entry_dir.join("th1.trv4");
        let full = std::fs::read(&poisoned).unwrap();
        std::fs::write(&poisoned, &full[..7.min(full.len())]).unwrap();

        // A poisoned entry is quarantined (deleted + forgotten) and reads
        // as a clean miss — never an error, never a panic.
        assert!(cache.get(key).unwrap().is_none(), "quarantined entry");
        assert!(!entry_dir.exists(), "entry dir removed from disk");
        assert_eq!(cache.len(), 0, "entry dropped from index");
        assert_eq!(cache.bytes(), 0);
        let events = ring.named("serve.cache_quarantine");
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].field("key"), Some(&Value::Text(key.hex())));
        assert!(matches!(
            events[0].field("error"),
            Some(Value::Text(msg)) if msg.contains("th1.trv4")
        ));

        // The slot is immediately reusable: a fresh put round-trips.
        cache.put(key, &sv).unwrap();
        let back = cache.get(key).unwrap().expect("repopulated entry");
        assert_eq!(back.f1, sv.f1);

        // Garbage bytes (bad magic) are quarantined the same way.
        std::fs::write(entry_dir.join("f1.trv4"), b"not a volume at all").unwrap();
        assert!(cache.get(key).unwrap().is_none());
        assert_eq!(ring.count("serve.cache_quarantine"), 2);
        std::fs::remove_dir_all(&dir).ok();
    }
}
