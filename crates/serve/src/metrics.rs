//! Service observability: counters accumulated by the workers, exposed as
//! point-in-time snapshots.
//!
//! The SLO-bearing counters (settlements, deadline hits, sheds, demotions,
//! per-tenant totals) are additionally persisted to `metrics.json` under
//! the service's `--state-dir` (see [`MetricsPersist`]), so they survive a
//! `kill -9` and a dashboard never watches them restart from zero. The
//! job journal cannot carry them: it compacts terminal records away on
//! every restart, which is exactly the history these totals summarize.

use crate::cache::CacheStats;
use crate::lock;
use std::collections::BTreeMap;
use std::fs::{self, File};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use tracto_trace::json::{escape_into, parse, Json};

/// Shared counter block the workers write into.
#[derive(Default)]
pub(crate) struct Metrics {
    pub submitted: AtomicU64,
    pub completed: AtomicU64,
    pub failed: AtomicU64,
    pub cancelled: AtomicU64,
    pub deadline_exceeded: AtomicU64,
    pub batches: AtomicU64,
    pub batch_jobs: AtomicU64,
    pub lanes_tracked: AtomicU64,
    pub launches: AtomicU64,
    pub estimations_run: AtomicU64,
    pub faults_injected: AtomicU64,
    pub device_retries: AtomicU64,
    pub job_retries: AtomicU64,
    pub failovers: AtomicU64,
    // Overload-ladder counters.
    pub deadline_hits: AtomicU64,
    pub sheds: AtomicU64,
    pub demotions: AtomicU64,
    pub rate_limited: AtomicU64,
    // Gauges, not counters: the batch worker stores the pool's current shape.
    pub devices_alive: AtomicU64,
    pub devices_total: AtomicU64,
    // f64 accumulators (simulated seconds, utilization sums) under a lock.
    pub accum: Mutex<Accum>,
    /// Per-tenant settlement counters, keyed by tenant name. A BTreeMap so
    /// snapshots (and the persisted file) list tenants in a stable order.
    pub tenants: Mutex<BTreeMap<String, TenantCounters>>,
}

/// One tenant's settlement totals.
#[derive(Default, Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct TenantCounters {
    pub submitted: u64,
    pub completed: u64,
    pub shed: u64,
}

#[derive(Default, Clone, Copy)]
pub(crate) struct Accum {
    pub tracking_sim_s: f64,
    pub tracking_serial_sim_s: f64,
    pub overlap_saved_sim_s: f64,
    pub estimation_sim_s: f64,
    pub utilization_sum: f64,
    pub utilization_batches: u64,
}

/// One batch's contribution to the counters, taken from its
/// [`BatchReport`](crate::batch::BatchReport).
pub(crate) struct BatchSample {
    pub jobs: u64,
    pub lanes: u64,
    pub launches: u64,
    pub wall_s: f64,
    pub serial_s: f64,
    pub overlap_saved_s: f64,
    pub utilization: f64,
}

impl Metrics {
    pub(crate) fn tenant_submitted(&self, name: &str) {
        lock(&self.tenants)
            .entry(name.to_string())
            .or_default()
            .submitted += 1;
    }

    pub(crate) fn tenant_completed(&self, name: &str) {
        lock(&self.tenants)
            .entry(name.to_string())
            .or_default()
            .completed += 1;
    }

    pub(crate) fn tenant_shed(&self, name: &str) {
        lock(&self.tenants)
            .entry(name.to_string())
            .or_default()
            .shed += 1;
    }

    pub(crate) fn add_batch(&self, sample: BatchSample) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.batch_jobs.fetch_add(sample.jobs, Ordering::Relaxed);
        self.lanes_tracked
            .fetch_add(sample.lanes, Ordering::Relaxed);
        self.launches.fetch_add(sample.launches, Ordering::Relaxed);
        let mut acc = lock(&self.accum);
        acc.tracking_sim_s += sample.wall_s;
        acc.tracking_serial_sim_s += sample.serial_s;
        acc.overlap_saved_sim_s += sample.overlap_saved_s;
        acc.utilization_sum += sample.utilization;
        acc.utilization_batches += 1;
    }
}

/// A point-in-time view of the service's health and throughput.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Jobs accepted (both kinds).
    pub submitted: u64,
    /// Jobs fulfilled successfully.
    pub completed: u64,
    /// Jobs that failed outright.
    pub failed: u64,
    /// Jobs cancelled by their client before running.
    pub cancelled: u64,
    /// Jobs dropped for missing their deadline.
    pub deadline_exceeded: u64,
    /// Jobs currently queued or running.
    pub in_flight: u64,
    /// Batched tracking rounds executed.
    pub batches: u64,
    /// Jobs that rode in those batches.
    pub batch_jobs: u64,
    /// Mean jobs per batch (continuous-batching occupancy).
    pub mean_batch_occupancy: f64,
    /// Total lanes tracked across all batches.
    pub lanes_tracked: u64,
    /// GPU launches issued by the batch worker.
    pub launches: u64,
    /// Mean per-batch wavefront (SIMD) utilization.
    pub mean_wavefront_utilization: f64,
    /// Fresh MCMC estimations executed (cache misses that did work).
    pub estimations_run: u64,
    /// Faults the simulated device pool injected (from its [`FaultPlan`]).
    ///
    /// [`FaultPlan`]: tracto_gpu_sim::FaultPlan
    pub faults_injected: u64,
    /// Transient device faults the pool absorbed by retrying in place.
    pub device_retries: u64,
    /// Whole jobs re-queued with backoff after a device fault escaped the
    /// pool (e.g. an allocation failure).
    pub job_retries: u64,
    /// Device losses survived by re-partitioning work onto the rest of the
    /// pool.
    pub failovers: u64,
    /// Devices currently accepting work.
    pub devices_alive: u64,
    /// Devices the pool started with.
    pub devices_total: u64,
    /// Simulated seconds spent in batched tracking.
    pub tracking_sim_s: f64,
    /// Simulated wall time hidden by multi-stream overlap across all
    /// batches (`serial − wall`, summed; 0 when serving serialized).
    pub overlap_saved_sim_s: f64,
    /// Stream occupancy `serial / wall` over all batched tracking
    /// (≥ 1; exactly 1.0 when serving serialized).
    pub stream_occupancy: f64,
    /// Simulated seconds spent in estimation.
    pub estimation_sim_s: f64,
    /// Sample-cache statistics (hits, misses, bytes, evictions).
    pub cache: CacheStats,
    /// Jobs that completed *within* their requested deadline (jobs with no
    /// deadline never count here).
    pub deadline_hits: u64,
    /// Jobs refused by the overload ladder because their deadline was
    /// provably infeasible at submit or admission time.
    pub sheds: u64,
    /// Low-priority MCMC jobs demoted to the analytic tier under load.
    pub demotions: u64,
    /// Jobs refused by a tenant's token-bucket rate limit.
    pub rate_limited: u64,
    /// Per-tenant settlement totals, sorted by tenant name.
    pub tenants: Vec<TenantSnapshot>,
}

/// One tenant's row in a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantSnapshot {
    /// Tenant name (`default` for unlabelled traffic).
    pub name: String,
    /// Jobs this tenant submitted.
    pub submitted: u64,
    /// Jobs that finished successfully.
    pub completed: u64,
    /// Jobs refused by the overload ladder (shed or rate-limited).
    pub shed: u64,
}

impl Metrics {
    pub(crate) fn snapshot(&self, in_flight: u64, cache: CacheStats) -> MetricsSnapshot {
        let acc = *lock(&self.accum);
        let batches = self.batches.load(Ordering::Relaxed);
        let batch_jobs = self.batch_jobs.load(Ordering::Relaxed);
        MetricsSnapshot {
            submitted: self.submitted.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            cancelled: self.cancelled.load(Ordering::Relaxed),
            deadline_exceeded: self.deadline_exceeded.load(Ordering::Relaxed),
            in_flight,
            batches,
            batch_jobs,
            mean_batch_occupancy: if batches == 0 {
                0.0
            } else {
                batch_jobs as f64 / batches as f64
            },
            lanes_tracked: self.lanes_tracked.load(Ordering::Relaxed),
            launches: self.launches.load(Ordering::Relaxed),
            mean_wavefront_utilization: if acc.utilization_batches == 0 {
                0.0
            } else {
                acc.utilization_sum / acc.utilization_batches as f64
            },
            estimations_run: self.estimations_run.load(Ordering::Relaxed),
            faults_injected: self.faults_injected.load(Ordering::Relaxed),
            device_retries: self.device_retries.load(Ordering::Relaxed),
            job_retries: self.job_retries.load(Ordering::Relaxed),
            failovers: self.failovers.load(Ordering::Relaxed),
            devices_alive: self.devices_alive.load(Ordering::Relaxed),
            devices_total: self.devices_total.load(Ordering::Relaxed),
            tracking_sim_s: acc.tracking_sim_s,
            overlap_saved_sim_s: acc.overlap_saved_sim_s,
            stream_occupancy: if acc.tracking_sim_s <= 0.0 {
                1.0
            } else {
                acc.tracking_serial_sim_s / acc.tracking_sim_s
            },
            estimation_sim_s: acc.estimation_sim_s,
            cache,
            deadline_hits: self.deadline_hits.load(Ordering::Relaxed),
            sheds: self.sheds.load(Ordering::Relaxed),
            demotions: self.demotions.load(Ordering::Relaxed),
            rate_limited: self.rate_limited.load(Ordering::Relaxed),
            tenants: lock(&self.tenants)
                .iter()
                .map(|(name, t)| TenantSnapshot {
                    name: name.clone(),
                    submitted: t.submitted,
                    completed: t.completed,
                    shed: t.shed,
                })
                .collect(),
        }
    }
}

/// Durable home for the SLO counters: `metrics.json` under `--state-dir`.
///
/// [`save`](Self::save) rewrites the file with the same atomic discipline
/// as journal compaction (write-tmp → fsync → rename → dir fsync), so a
/// `kill -9` leaves either the old totals or the new ones, never a torn
/// file. [`seed`](Self::seed) loads the totals back at startup and adds
/// them into a fresh [`Metrics`] block; the live counters then advance
/// from where the dead process left off. Only settlement totals persist —
/// throughput stats (batches, lanes, sim time) describe a process
/// lifetime and deliberately restart from zero.
pub(crate) struct MetricsPersist {
    dir: PathBuf,
    path: PathBuf,
    tmp: PathBuf,
    lock: Mutex<()>,
}

impl MetricsPersist {
    pub(crate) fn open(dir: &Path) -> MetricsPersist {
        MetricsPersist {
            dir: dir.to_path_buf(),
            path: dir.join("metrics.json"),
            tmp: dir.join("metrics.json.tmp"),
            lock: Mutex::new(()),
        }
    }

    /// Add the persisted totals (if any) into `metrics`. Call once, before
    /// any worker can write counters. A missing or torn file seeds nothing
    /// — recovery must never wedge on observability state.
    pub(crate) fn seed(&self, metrics: &Metrics) {
        let Ok(text) = fs::read_to_string(&self.path) else {
            return;
        };
        let Ok(v) = parse(&text) else { return };
        let load = |key: &str| -> u64 {
            v.get(key)
                .and_then(Json::as_f64)
                .filter(|n| *n >= 0.0 && n.fract() == 0.0)
                .map_or(0, |n| n as u64)
        };
        for (key, counter) in self.persisted_fields(metrics) {
            counter.fetch_add(load(key), Ordering::Relaxed);
        }
        if let Some(Json::Array(rows)) = v.get("tenants") {
            let mut tenants = lock(&metrics.tenants);
            for row in rows {
                let Some(name) = row.get("name").and_then(Json::as_str) else {
                    continue;
                };
                let get = |key: &str| -> u64 {
                    row.get(key).and_then(Json::as_f64).map_or(0, |n| n as u64)
                };
                let t = tenants.entry(name.to_string()).or_default();
                t.submitted += get("submitted");
                t.completed += get("completed");
                t.shed += get("shed");
            }
        }
    }

    /// Persist the current SLO totals. Best-effort like journal appends: a
    /// full disk degrades metrics durability, never the jobs themselves.
    pub(crate) fn save(&self, metrics: &Metrics) {
        let _guard = lock(&self.lock);
        let mut out = String::with_capacity(256);
        out.push('{');
        for (i, (key, counter)) in self.persisted_fields(metrics).iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            escape_into(&mut out, key);
            out.push(':');
            out.push_str(&counter.load(Ordering::Relaxed).to_string());
        }
        out.push_str(",\"tenants\":[");
        {
            let tenants = lock(&metrics.tenants);
            for (i, (name, t)) in tenants.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str("{\"name\":");
                escape_into(&mut out, name);
                out.push_str(&format!(
                    ",\"submitted\":{},\"completed\":{},\"shed\":{}}}",
                    t.submitted, t.completed, t.shed
                ));
            }
        }
        out.push_str("]}");
        let written = File::create(&self.tmp)
            .and_then(|mut f| {
                f.write_all(out.as_bytes())?;
                f.sync_all()
            })
            .and_then(|_| fs::rename(&self.tmp, &self.path));
        if written.is_ok() {
            if let Ok(d) = File::open(&self.dir) {
                let _ = d.sync_all();
            }
        }
    }

    fn persisted_fields<'m>(&self, m: &'m Metrics) -> [(&'static str, &'m AtomicU64); 9] {
        [
            ("submitted", &m.submitted),
            ("completed", &m.completed),
            ("failed", &m.failed),
            ("cancelled", &m.cancelled),
            ("deadline_exceeded", &m.deadline_exceeded),
            ("deadline_hits", &m.deadline_hits),
            ("sheds", &m.sheds),
            ("demotions", &m.demotions),
            ("rate_limited", &m.rate_limited),
        ]
    }
}

impl std::fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "jobs: {} submitted, {} completed, {} failed, {} cancelled, {} past deadline, {} in flight",
            self.submitted,
            self.completed,
            self.failed,
            self.cancelled,
            self.deadline_exceeded,
            self.in_flight
        )?;
        writeln!(
            f,
            "batches: {} ({} jobs, mean occupancy {:.2}, {} lanes, {} launches, wavefront util {:.3})",
            self.batches,
            self.batch_jobs,
            self.mean_batch_occupancy,
            self.lanes_tracked,
            self.launches,
            self.mean_wavefront_utilization
        )?;
        writeln!(
            f,
            "cache: {} hits / {} misses (rate {:.2}), {} entries, {} bytes, {} evictions",
            self.cache.hits,
            self.cache.misses,
            self.cache.hit_rate(),
            self.cache.entries,
            self.cache.bytes,
            self.cache.evictions
        )?;
        writeln!(
            f,
            "faults: {} injected, {} device retries, {} job retries, {} failovers, {}/{} devices alive",
            self.faults_injected,
            self.device_retries,
            self.job_retries,
            self.failovers,
            self.devices_alive,
            self.devices_total
        )?;
        writeln!(
            f,
            "overload: {} deadline hits, {} sheds, {} demotions, {} rate limited",
            self.deadline_hits, self.sheds, self.demotions, self.rate_limited
        )?;
        for t in &self.tenants {
            writeln!(
                f,
                "tenant {}: {} submitted, {} completed, {} shed",
                t.name, t.submitted, t.completed, t.shed
            )?;
        }
        writeln!(
            f,
            "streams: {:.4} s hidden by overlap, occupancy {:.3}",
            self.overlap_saved_sim_s, self.stream_occupancy
        )?;
        write!(
            f,
            "simulated: {:.4} s tracking, {:.4} s estimation ({} MCMC runs)",
            self.tracking_sim_s, self.estimation_sim_s, self.estimations_run
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(jobs: u64, lanes: u64, launches: u64, wall_s: f64, util: f64) -> BatchSample {
        BatchSample {
            jobs,
            lanes,
            launches,
            wall_s,
            serial_s: wall_s,
            overlap_saved_s: 0.0,
            utilization: util,
        }
    }

    #[test]
    fn occupancy_and_utilization_means() {
        let m = Metrics::default();
        m.add_batch(sample(4, 100, 10, 1.5, 0.8));
        m.add_batch(sample(2, 50, 5, 0.5, 0.6));
        let snap = m.snapshot(
            0,
            CacheStats {
                hits: 0,
                misses: 0,
                evictions: 0,
                bytes: 0,
                entries: 0,
            },
        );
        assert_eq!(snap.batches, 2);
        assert!((snap.mean_batch_occupancy - 3.0).abs() < 1e-12);
        assert!((snap.mean_wavefront_utilization - 0.7).abs() < 1e-12);
        assert!((snap.tracking_sim_s - 2.0).abs() < 1e-12);
        assert_eq!(snap.lanes_tracked, 150);
        assert_eq!(snap.overlap_saved_sim_s, 0.0);
        assert!((snap.stream_occupancy - 1.0).abs() < 1e-12);
    }

    #[test]
    fn overlap_savings_accumulate_into_occupancy() {
        let m = Metrics::default();
        m.add_batch(BatchSample {
            jobs: 3,
            lanes: 60,
            launches: 6,
            wall_s: 1.0,
            serial_s: 1.5,
            overlap_saved_s: 0.5,
            utilization: 0.9,
        });
        m.add_batch(BatchSample {
            jobs: 1,
            lanes: 20,
            launches: 2,
            wall_s: 1.0,
            serial_s: 1.5,
            overlap_saved_s: 0.5,
            utilization: 0.9,
        });
        let snap = m.snapshot(
            0,
            CacheStats {
                hits: 0,
                misses: 0,
                evictions: 0,
                bytes: 0,
                entries: 0,
            },
        );
        assert!((snap.overlap_saved_sim_s - 1.0).abs() < 1e-12);
        assert!((snap.stream_occupancy - 1.5).abs() < 1e-12);
        let text = snap.to_string();
        assert!(text.contains("hidden by overlap"));
        assert!(text.contains("occupancy 1.500"));
    }

    #[test]
    fn slo_counters_persist_and_seed_across_a_restart() {
        let dir = std::env::temp_dir().join(format!(
            "tracto-metrics-persist-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let persist = MetricsPersist::open(&dir);
        let m = Metrics::default();
        m.submitted.store(7, Ordering::Relaxed);
        m.completed.store(5, Ordering::Relaxed);
        m.deadline_hits.store(4, Ordering::Relaxed);
        m.sheds.store(2, Ordering::Relaxed);
        m.demotions.store(1, Ordering::Relaxed);
        m.tenant_submitted("hospital-a");
        m.tenant_submitted("hospital-a");
        m.tenant_completed("hospital-a");
        m.tenant_shed("default");
        persist.save(&m);
        // A restart: a fresh counter block seeded from disk continues the
        // totals instead of restarting from zero.
        let fresh = Metrics::default();
        MetricsPersist::open(&dir).seed(&fresh);
        assert_eq!(fresh.submitted.load(Ordering::Relaxed), 7);
        assert_eq!(fresh.completed.load(Ordering::Relaxed), 5);
        assert_eq!(fresh.deadline_hits.load(Ordering::Relaxed), 4);
        assert_eq!(fresh.sheds.load(Ordering::Relaxed), 2);
        assert_eq!(fresh.demotions.load(Ordering::Relaxed), 1);
        {
            let tenants = lock(&fresh.tenants);
            assert_eq!(tenants["hospital-a"].submitted, 2);
            assert_eq!(tenants["hospital-a"].completed, 1);
            assert_eq!(tenants["default"].shed, 1);
        }
        // Post-restart work accumulates on top and re-persists monotone.
        fresh.completed.fetch_add(3, Ordering::Relaxed);
        fresh.tenant_completed("hospital-a");
        MetricsPersist::open(&dir).save(&fresh);
        let third = Metrics::default();
        MetricsPersist::open(&dir).seed(&third);
        assert_eq!(third.completed.load(Ordering::Relaxed), 8);
        assert_eq!(lock(&third.tenants)["hospital-a"].completed, 2);
        // A torn file (crash mid-write would be prevented by the rename,
        // but defend anyway) seeds nothing rather than wedging startup.
        fs::write(dir.join("metrics.json"), "{\"completed\":5,").unwrap();
        let torn = Metrics::default();
        MetricsPersist::open(&dir).seed(&torn);
        assert_eq!(torn.completed.load(Ordering::Relaxed), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_carries_overload_counters_and_tenants() {
        let m = Metrics::default();
        m.deadline_hits.store(6, Ordering::Relaxed);
        m.sheds.store(3, Ordering::Relaxed);
        m.rate_limited.store(2, Ordering::Relaxed);
        m.tenant_submitted("b-lab");
        m.tenant_submitted("a-lab");
        let snap = m.snapshot(0, CacheStats::default());
        assert_eq!(snap.deadline_hits, 6);
        assert_eq!(snap.sheds, 3);
        assert_eq!(snap.rate_limited, 2);
        // Stable (sorted) tenant order.
        let names: Vec<&str> = snap.tenants.iter().map(|t| t.name.as_str()).collect();
        assert_eq!(names, ["a-lab", "b-lab"]);
        let text = snap.to_string();
        assert!(text.contains("overload: 6 deadline hits, 3 sheds"));
        assert!(text.contains("tenant a-lab: 1 submitted"));
    }

    #[test]
    fn display_is_complete() {
        let m = Metrics::default();
        m.add_batch(sample(1, 10, 3, 0.1, 0.9));
        let snap = m.snapshot(
            2,
            CacheStats {
                hits: 3,
                misses: 1,
                evictions: 0,
                bytes: 64,
                entries: 1,
            },
        );
        let text = snap.to_string();
        assert!(text.contains("in flight"));
        assert!(text.contains("occupancy"));
        assert!(text.contains("0.75") || text.contains("rate"));
    }
}
