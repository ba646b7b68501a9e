//! The job service: submission queues, estimation workers, and the
//! continuous-batching tracking worker.
//!
//! Topology:
//!
//! ```text
//! clients ──submit──▶ [bounded prep queue] ──▶ estimation workers (1 Gpu each)
//!                                                │  cache miss → run_mcmc_gpu
//!                                                │  cache hit  → Arc clone
//!                                                ▼
//!                            [bounded ready queue] ──▶ batch worker (MultiGpu)
//!                                                        collects a window of
//!                                                        ready jobs, merges
//!                                                        their lanes, runs one
//!                                                        shared segmented
//!                                                        launch sequence,
//!                                                        demuxes per job
//! ```
//!
//! Work enters through exactly one door: [`TractoService::submit`] takes a
//! [`JobSpec`] — estimation or tracking, in-process dataset or phantom
//! recipe — and returns a [`Ticket<JobOutput>`].
//!
//! Backpressure: both queues are bounded; `submit` blocks when the prep
//! queue is full, `try_submit` fails fast with [`JobError::QueueFull`].
//! Shutdown drops the submission side, lets the workers drain, and joins
//! them; `drain` blocks until no job is queued or running.

use crate::batch::{run_batch_streamed, BatchJob};
use crate::cache::{sample_key, DiskSampleCache, SampleCache, SampleKey};
use crate::config::ServiceConfig;
use crate::events::EventBus;
use crate::job::{EstimateResult, JobError, JobId, JobOutput, Ticket, TrackResult};
use crate::journal::{JobJournal, RecoveredJob, Terminal};
use crate::lock;
use crate::metrics::{Metrics, MetricsPersist, MetricsSnapshot};
use crate::spec::{materialize_dataset, DatasetSource, JobSpec, Work};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender, TryRecvError};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};
use tracto::mcmc::{ChainConfig, CheckpointPolicy, CheckpointStore, SampleVolumes};
use tracto::phantom::Dataset;
use tracto::pipeline::{mean_dwi_volume, PipelineConfig};
use tracto::tracking::analytic::{analytic_params, mean_posterior};
use tracto::tracking::getter::Modality;
use tracto::tracking::probabilistic::seeds_from_mask;
use tracto::tracking::stop::mask_from_percentile;
use tracto::tracking::tensorline::TensorField;
use tracto::{run_mcmc_gpu, PersistentCheckpoint};
use tracto_diffusion::PriorConfig;
use tracto_gpu_sim::{DeviceConfig, Gpu, MultiGpu};
use tracto_proto::{CachePolicy, JobState, Priority};
use tracto_trace::{Tracer, Value};
use tracto_volume::{Mask, Vec3};

struct PrepTask {
    spec: JobSpec,
    ticket: Ticket<JobOutput>,
}

/// An admitted job waiting for an estimation worker, tagged with the
/// fields the queue orders by so a pop never has to inspect the spec.
struct PrepEntry {
    seq: u64,
    priority: Priority,
    deadline_at: Option<Instant>,
    task: PrepTask,
}

struct PrepQueueState {
    entries: Vec<PrepEntry>,
    closed: bool,
    seq: u64,
}

/// Outcome of a non-blocking push, mirroring a bounded channel's
/// `TrySendError` so the submit paths keep their shed/shutdown split.
/// The task rides back to the caller so its ticket is dropped (and any
/// waiter woken) there, not inside the queue lock.
enum TryPushError {
    Full(#[allow(dead_code)] PrepTask),
    Closed(#[allow(dead_code)] PrepTask),
}

/// SLO-aware admission queue feeding the estimation workers.
///
/// A push publishes the job's `admitted` event inside the critical
/// section that makes the task poppable, so no subscriber can see a job's
/// terminal event before its `admitted` one.
///
/// The prep stage is where a cache-miss job pays its MCMC bill, so a
/// plain FIFO channel head-of-line-blocks urgent work behind whatever
/// arrived first — under overload every deadline blows no matter how the
/// *tracking* stage orders its window. Workers instead always dequeue in
/// admission order (higher priority first, nearest deadline within a
/// band, FIFO otherwise), so saturation starves low-priority jobs
/// instead of defeating the priority bands.
struct PrepQueue {
    inner: Mutex<PrepQueueState>,
    /// Signalled on push and on close: wakes workers waiting in `pop`.
    nonempty: Condvar,
    /// Signalled on pop and on close: wakes producers blocked in `push`.
    vacancy: Condvar,
    cap: usize,
    bus: Arc<EventBus>,
}

impl PrepQueue {
    fn new(cap: usize, bus: Arc<EventBus>) -> PrepQueue {
        PrepQueue {
            inner: Mutex::new(PrepQueueState {
                entries: Vec::new(),
                closed: false,
                seq: 0,
            }),
            nonempty: Condvar::new(),
            vacancy: Condvar::new(),
            cap: cap.max(1),
            bus,
        }
    }

    /// Enqueue under the held lock and announce the job as admitted.
    fn enqueue(&self, state: &mut PrepQueueState, task: PrepTask) {
        let seq = state.seq;
        state.seq += 1;
        let deadline_at = task.spec.deadline.map(|d| task.ticket.accepted_at + d);
        self.bus
            .publish(task.ticket.id.0, "admitted", JobState::Pending);
        state.entries.push(PrepEntry {
            seq,
            priority: task.spec.priority,
            deadline_at,
            task,
        });
        self.nonempty.notify_one();
    }

    /// Enqueue, blocking while the queue is at capacity. Returns the task
    /// back when the queue has been closed (by value on purpose: the
    /// ticket must drop at the caller, outside the queue lock).
    #[allow(clippy::result_large_err)]
    fn push(&self, task: PrepTask) -> Result<(), PrepTask> {
        let state = lock(&self.inner);
        let mut state = (self.vacancy)
            .wait_while(state, |s| s.entries.len() >= self.cap && !s.closed)
            .unwrap_or_else(PoisonError::into_inner);
        if state.closed {
            return Err(task);
        }
        self.enqueue(&mut state, task);
        Ok(())
    }

    /// Enqueue without blocking; a full queue is the caller's load shed.
    #[allow(clippy::result_large_err)]
    fn try_push(&self, task: PrepTask) -> Result<(), TryPushError> {
        let mut state = lock(&self.inner);
        if state.closed {
            return Err(TryPushError::Closed(task));
        }
        if state.entries.len() >= self.cap {
            return Err(TryPushError::Full(task));
        }
        self.enqueue(&mut state, task);
        Ok(())
    }

    /// Dequeue the best waiting job (admission order), blocking while the
    /// queue is empty. Returns `None` only when the queue is closed *and*
    /// drained, so shutdown still runs every accepted job.
    fn pop(&self) -> Option<PrepTask> {
        let mut state = lock(&self.inner);
        loop {
            if let Some(best) = Self::best_index(&state.entries) {
                let entry = state.entries.swap_remove(best);
                self.vacancy.notify_one();
                return Some(entry.task);
            }
            if state.closed {
                return None;
            }
            state = self
                .nonempty
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Index of the entry workers should take next: priority bands first,
    /// nearest deadline within a band, then arrival order. The explicit
    /// sequence number makes the order independent of `swap_remove`'s
    /// shuffling.
    fn best_index(entries: &[PrepEntry]) -> Option<usize> {
        entries
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| {
                b.priority
                    .cmp(&a.priority)
                    .then_with(|| cmp_deadlines(a.deadline_at, b.deadline_at))
                    .then_with(|| a.seq.cmp(&b.seq))
            })
            .map(|(i, _)| i)
    }

    /// Stop accepting jobs and wake everyone; queued jobs still drain.
    fn close(&self) {
        lock(&self.inner).closed = true;
        self.nonempty.notify_all();
        self.vacancy.notify_all();
    }
}

struct ReadyTrack {
    config: PipelineConfig,
    seeds: Vec<Vec3>,
    samples: Arc<SampleVolumes>,
    /// Stop mask: explicit (in-process callers) or derived from the
    /// job's stop percentile over the dataset's mean DWI.
    stop_mask: Option<Mask>,
    cache_hit: bool,
    deadline_at: Option<Instant>,
    priority: Priority,
    retry_budget: Option<u32>,
    tenant: String,
    ticket: Ticket<JobOutput>,
    /// When the job entered the ready channel.
    ready_at: Instant,
}

/// Per-tenant token bucket for submit-time rate limiting. Buckets start
/// full (one second of refill, at least one job) so a tenant's first burst
/// is admitted; sustained traffic is clamped to the refill rate.
struct TokenBucket {
    tokens: f64,
    last: Instant,
}

impl TokenBucket {
    fn full(rate: f64) -> TokenBucket {
        TokenBucket {
            tokens: rate.max(1.0),
            last: Instant::now(),
        }
    }

    /// Take one token, or report how long (in ms) until one is available.
    fn take(&mut self, rate: f64) -> Result<(), u64> {
        let now = Instant::now();
        let burst = rate.max(1.0);
        self.tokens = (self.tokens + now.duration_since(self.last).as_secs_f64() * rate).min(burst);
        self.last = now;
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            Ok(())
        } else {
            Err((((1.0 - self.tokens) / rate) * 1000.0).ceil() as u64)
        }
    }
}

/// Rewrite a ready job onto the analytic fast tier: collapse the posterior
/// stack to its mean, switch to voxel-length hops with the same reach, and
/// force the (deterministic) tier's jitter off. Callers guard on the
/// *previous* modality so the transform runs exactly once per job even
/// when a fault-retried job passes through admission again.
fn apply_analytic_tier(r: &mut ReadyTrack) {
    r.samples = Arc::new(mean_posterior(&r.samples));
    r.config.tracking = analytic_params(&r.config.tracking);
    r.config.modality = Modality::Analytic;
    r.config.jitter = 0.0;
}

/// A job's ticket, tenant and result, ready for [`Shared::settle`].
type Settlement = (Ticket<JobOutput>, String, Result<JobOutput, JobError>);

struct Shared {
    cache: SampleCache,
    disk: Option<DiskSampleCache>,
    /// Materialized phantom recipes, keyed by canonical recipe string, so
    /// repeated remote submissions of the same recipe build once.
    phantoms: Mutex<HashMap<String, Arc<Dataset>>>,
    metrics: Metrics,
    in_flight: Mutex<u64>,
    idle: Condvar,
    next_id: AtomicU64,
    /// Write-ahead journal of wire-form job lifecycles (crash recovery).
    journal: Option<Arc<JobJournal>>,
    /// Persistent MCMC snapshot store under the state dir.
    ckpt_store: Option<Arc<CheckpointStore>>,
    /// Persist a snapshot every N launch segments (0 = off).
    checkpoint_every: u32,
    tracer: Tracer,
    /// Lifecycle event bus for subscribers; publishes are no-ops until
    /// a socket front end attaches.
    bus: Arc<EventBus>,
    /// Committed volume uploads (`<state-dir>/uploads`), resolvable as
    /// `kind: "upload"` datasets.
    upload_dir: Option<std::path::PathBuf>,
    /// SLO counter sidecar under the state dir; counters seed from it at
    /// startup and every settle re-saves, so totals survive `kill -9`.
    persist: Option<MetricsPersist>,
    /// Per-tenant token-bucket rate limit in jobs/sec (0 = off).
    rate_limit: f64,
    buckets: Mutex<HashMap<String, TokenBucket>>,
    /// EWMA of per-job batch wall time in ms (0 until the first batch).
    /// Half of it is the "provably infeasible" service floor: a deadline
    /// below the floor is shed at submit instead of wasting GPU time.
    service_ewma_ms: AtomicU64,
    /// EWMA of a cache-miss estimation's wall time in ms (0 until the
    /// first miss). The prep-stage shed rung compares a dated job's
    /// remaining budget against it before paying for a doomed MCMC run.
    estimate_ewma_ms: AtomicU64,
    /// Jobs admitted to the prep queue and not yet received by the batch
    /// worker (or settled on the way). While it is nonzero an open batch
    /// has a job to wait for; see [`hold_until`].
    upstream: AtomicU64,
    /// Mirror of [`ServiceConfig::approx_low`] for the prep stage: under
    /// deadline pressure a low-priority MCMC job demotes to the
    /// deterministic tensorline tier (skipping estimation entirely)
    /// instead of being shed.
    approx_low: bool,
}

impl Shared {
    fn job_started(&self, tenant: &str) {
        *lock(&self.in_flight) += 1;
        self.metrics.submitted.fetch_add(1, Ordering::Relaxed);
        self.metrics.tenant_submitted(tenant);
    }

    fn persist_metrics(&self) {
        if let Some(persist) = &self.persist {
            persist.save(&self.metrics);
        }
    }

    /// The admission ladder's shed rung: reject a job at submit when the
    /// tenant is over its rate limit or the deadline is provably
    /// infeasible. Returns the typed `Capacity` error (with a
    /// `retry_after_ms` hint) the caller must settle the job with; the
    /// shed counters are already ticked.
    fn admission_shed(&self, spec: &JobSpec) -> Option<JobError> {
        if self.rate_limit > 0.0 {
            let verdict = lock(&self.buckets)
                .entry(spec.tenant.clone())
                .or_insert_with(|| TokenBucket::full(self.rate_limit))
                .take(self.rate_limit);
            if let Err(retry_ms) = verdict {
                self.metrics.rate_limited.fetch_add(1, Ordering::Relaxed);
                self.metrics.tenant_shed(&spec.tenant);
                if self.tracer.enabled() {
                    self.tracer.emit(
                        "serve.job_rate_limited",
                        &[
                            ("tenant", Value::Text(spec.tenant.clone())),
                            ("retry_after_ms", retry_ms.into()),
                        ],
                    );
                }
                return Some(JobError::Failed(Arc::new(
                    tracto_trace::TractoError::capacity(
                        format!(
                            "tenant `{}` rate limit (retry_after_ms={retry_ms})",
                            spec.tenant
                        ),
                        1,
                        0,
                    ),
                )));
            }
        }
        if let Some(deadline) = spec.deadline {
            let floor_ms = self.service_ewma_ms.load(Ordering::Relaxed) / 2;
            let deadline_ms = deadline.as_millis() as u64;
            if floor_ms > 0 && deadline_ms < floor_ms {
                self.metrics.sheds.fetch_add(1, Ordering::Relaxed);
                self.metrics.tenant_shed(&spec.tenant);
                if self.tracer.enabled() {
                    self.tracer.emit(
                        "serve.job_shed",
                        &[
                            ("tenant", Value::Text(spec.tenant.clone())),
                            ("reason", Value::Text("infeasible-deadline".into())),
                            ("deadline_ms", deadline_ms.into()),
                            ("floor_ms", floor_ms.into()),
                        ],
                    );
                }
                return Some(JobError::Failed(Arc::new(
                    tracto_trace::TractoError::capacity(
                        format!(
                            "deadline {deadline_ms}ms below service floor \
                             (retry_after_ms={floor_ms})"
                        ),
                        floor_ms,
                        deadline_ms,
                    ),
                )));
            }
        }
        None
    }

    /// Prep-stage shed rung: would a fresh MCMC run provably blow this
    /// job's deadline? Returns the measured estimation cost (the retry
    /// hint) when it would. Cached samples make estimation free, so a
    /// job whose key is already resident in either tier always passes.
    fn estimation_infeasible(
        &self,
        deadline_at: Option<Instant>,
        key: SampleKey,
        policy: CachePolicy,
    ) -> Option<u64> {
        let deadline = deadline_at?;
        let est_ms = self.estimate_ewma_ms.load(Ordering::Relaxed);
        if est_ms == 0 {
            return None;
        }
        if policy != CachePolicy::Bypass
            && (self.cache.contains(key) || self.disk.as_ref().is_some_and(|d| d.contains(key)))
        {
            return None;
        }
        let remaining = deadline
            .saturating_duration_since(Instant::now())
            .as_millis() as u64;
        (remaining < est_ms).then_some(est_ms)
    }

    /// Account a prep-stage shed: tick the overload counters, trace it,
    /// and return the typed `Capacity` error (the one remote clients back
    /// off on) to settle the job with.
    fn shed_at_prep(
        &self,
        ticket: &Ticket<JobOutput>,
        tenant: &str,
        remaining_ms: u64,
        est_ms: u64,
    ) -> JobError {
        self.metrics.sheds.fetch_add(1, Ordering::Relaxed);
        self.metrics.tenant_shed(tenant);
        if self.tracer.enabled() {
            self.tracer.emit(
                "serve.job_shed",
                &[
                    ("job", ticket.id.0.into()),
                    ("tenant", Value::Text(tenant.to_string())),
                    ("reason", Value::Text("estimation-infeasible".into())),
                    ("remaining_ms", remaining_ms.into()),
                    ("estimate_ms", est_ms.into()),
                ],
            );
        }
        JobError::Failed(Arc::new(tracto_trace::TractoError::capacity(
            format!(
                "remaining deadline {remaining_ms}ms below estimation cost \
                 (retry_after_ms={est_ms})"
            ),
            est_ms,
            remaining_ms,
        )))
    }

    fn jobs_finished(&self, jobs: u64) {
        let mut n = lock(&self.in_flight);
        *n -= jobs;
        if *n == 0 {
            self.idle.notify_all();
        }
    }

    /// Settle one job; see [`settle`](Self::settle).
    fn complete(
        &self,
        ticket: &Ticket<JobOutput>,
        tenant: &str,
        result: Result<JobOutput, JobError>,
    ) {
        self.settle(vec![(ticket.clone(), tenant.to_string(), result)]);
    }

    /// Settle a batch of jobs at once:
    ///
    /// 1. fulfill each ticket and tick the per-outcome counters, which
    ///    follow what the ticket actually *stored* — a cancel that won the
    ///    race converts a late success into `Cancelled`, and the cancelled
    ///    counter (not the completed one) must tick;
    /// 2. write every terminal journal record with one fsync;
    /// 3. publish the terminal events, so each record is durable before
    ///    its event is observable;
    /// 4. save the counter sidecar once, after the counters settled, so a
    ///    crash never observes a job both re-runnable and counted;
    /// 5. release the jobs' in-flight slots.
    fn settle(&self, jobs: Vec<Settlement>) {
        let count = jobs.len() as u64;
        let mut stored_all = Vec::with_capacity(jobs.len());
        for (ticket, tenant, result) in jobs {
            let Some(stored) = ticket.fulfill(result) else {
                continue;
            };
            let (counter, event) = match &stored {
                Ok(_) => (&self.metrics.completed, "serve.job_completed"),
                Err(JobError::Cancelled) => (&self.metrics.cancelled, "serve.job_cancelled"),
                Err(JobError::DeadlineExceeded) => {
                    (&self.metrics.deadline_exceeded, "serve.job_deadline")
                }
                Err(_) => (&self.metrics.failed, "serve.job_failed"),
            };
            counter.fetch_add(1, Ordering::Relaxed);
            if stored.is_ok() {
                self.metrics.tenant_completed(&tenant);
            }
            if self.tracer.enabled() {
                match &stored {
                    Err(JobError::Failed(err)) => self.tracer.emit(
                        event,
                        &[
                            ("job", ticket.id.0.into()),
                            ("error", Value::Text(err.to_string())),
                        ],
                    ),
                    _ => self.tracer.emit(event, &[("job", ticket.id.0.into())]),
                }
            }
            stored_all.push((ticket, stored));
        }
        if !stored_all.is_empty() {
            if let Some(journal) = &self.journal {
                // Ids that were never journaled (in-process submissions)
                // write nothing.
                let records: Vec<(u64, Terminal)> = stored_all
                    .iter()
                    .map(|(ticket, stored)| {
                        let terminal = match stored {
                            Ok(_) => Terminal::Completed,
                            Err(JobError::Cancelled) => Terminal::Cancelled,
                            Err(_) => Terminal::Failed {
                                retries: ticket.attempts(),
                            },
                        };
                        (ticket.id.0, terminal)
                    })
                    .collect();
                journal.settle(&records);
            }
            // Terminal push carries the full wire state, so a subscriber
            // needs no follow-up status poll. Gated on `attached` because
            // building the state clones the result.
            if self.bus.attached() {
                for (ticket, stored) in stored_all {
                    self.bus.publish(
                        ticket.id.0,
                        crate::events::terminal_kind(&stored),
                        crate::events::job_state(Some(stored)),
                    );
                }
            }
            self.persist_metrics();
        }
        self.jobs_finished(count);
    }

    /// Resolve a job's dataset: an in-process `Arc` passes through, a
    /// phantom recipe is materialized once and memoized by its canonical
    /// string, and an `upload` spec is decoded from its committed TRDS
    /// blob under the state dir (memoized the same way — the canonical
    /// key embeds the content hash).
    fn resolve_dataset(&self, source: &DatasetSource) -> Result<Arc<Dataset>, JobError> {
        match source {
            DatasetSource::Loaded(ds) => Ok(Arc::clone(ds)),
            DatasetSource::Phantom(spec) => {
                let key = spec.canonical();
                if let Some(ds) = lock(&self.phantoms).get(&key) {
                    return Ok(Arc::clone(ds));
                }
                // Build outside the lock — materialization is seconds of
                // work at full scale and must not serialize other workers.
                // A racing duplicate build is wasted work, not an error;
                // first insert wins so every job shares one copy.
                let built = if spec.kind == "upload" {
                    self.load_upload(spec)
                } else {
                    materialize_dataset(spec)
                };
                let built = Arc::new(built.map_err(|e| JobError::Failed(Arc::new(e)))?);
                let mut memo = lock(&self.phantoms);
                Ok(Arc::clone(memo.entry(key).or_insert(built)))
            }
        }
    }

    /// Decode an uploaded TRDS container into a runnable dataset,
    /// re-verifying the content hash so a corrupted blob fails the job
    /// rather than silently changing its results.
    fn load_upload(&self, spec: &tracto_proto::DatasetSpec) -> tracto_trace::TractoResult<Dataset> {
        use tracto_trace::TractoError;
        let hash = spec
            .upload
            .as_deref()
            .ok_or_else(|| TractoError::config("upload dataset spec is missing its hash"))?;
        let dir = self
            .upload_dir
            .as_ref()
            .ok_or_else(|| TractoError::config("uploads require --state-dir"))?;
        let path = dir.join(format!("{hash}.trds"));
        let bytes = std::fs::read(&path).map_err(|_| {
            TractoError::config(format!("unknown upload volume {hash} (upload it first)"))
        })?;
        let actual = format!("{:016x}", tracto_proto::content_digest(&bytes));
        if actual != hash {
            return Err(TractoError::format(format!(
                "upload {hash} hashes to {actual}: corrupt blob"
            )));
        }
        tracto::loaded::dataset_from_trds(format!("upload:{hash}"), &bytes)
    }

    /// Resolve a sample stack through memory cache → disk cache → fresh
    /// MCMC, honoring the job's cache policy: `Bypass` never touches
    /// either tier, `ReadOnly` reads hits but never writes fresh results
    /// back. Returns `(samples, cache_hit, voxels_estimated)`.
    #[allow(clippy::too_many_arguments)]
    fn resolve_samples(
        &self,
        gpu: &mut Gpu,
        key: SampleKey,
        dataset: &Dataset,
        prior: PriorConfig,
        chain: ChainConfig,
        seed: u64,
        policy: CachePolicy,
        job: JobId,
    ) -> (Arc<SampleVolumes>, bool, usize) {
        if policy != CachePolicy::Bypass {
            if let Some(samples) = self.cache.get(key) {
                return (samples, true, 0);
            }
            if let Some(disk) = &self.disk {
                // A poisoned entry was quarantined by `get` (deleted, with a
                // `serve.cache_quarantine` event) and reads as a miss, so the
                // job falls through to a fresh estimation.
                if let Ok(Some(samples)) = disk.get(key) {
                    let samples = Arc::new(samples);
                    if policy == CachePolicy::ReadWrite {
                        self.cache.insert(key, Arc::clone(&samples));
                    }
                    return (samples, true, 0);
                }
            }
        }
        let wall = Instant::now();
        let report = self.run_estimation(gpu, key, dataset, prior, chain, seed, job);
        // Recompute cost for the cost-aware eviction score: what this
        // entry actually took to build, in wall milliseconds.
        let cost_ms = wall.elapsed().as_secs_f64() * 1e3;
        // Feed the prep-stage feasibility floor: what a miss costs now.
        let cost = (cost_ms as u64).max(1);
        let prev = self.estimate_ewma_ms.load(Ordering::Relaxed);
        let ewma = if prev == 0 {
            cost
        } else {
            (3 * prev + cost) / 4
        };
        self.estimate_ewma_ms.store(ewma, Ordering::Relaxed);
        self.metrics.estimations_run.fetch_add(1, Ordering::Relaxed);
        lock(&self.metrics.accum).estimation_sim_s += report.ledger.total_s();
        let samples = Arc::new(report.samples);
        if policy == CachePolicy::ReadWrite {
            self.cache
                .insert_with_cost(key, Arc::clone(&samples), cost_ms);
            if let Some(disk) = &self.disk {
                // Disk persistence is best-effort; the in-memory result stands.
                let _ = disk.put_with_cost(key, &samples, cost_ms);
            }
        }
        (samples, false, report.voxels)
    }

    /// Run a fresh MCMC estimation, through the persistent-checkpoint
    /// runner when a state dir is configured: the run saves a resumable
    /// snapshot every `checkpoint_every` segments under the sample key, so
    /// a crash mid-estimation costs at most one checkpoint interval. The
    /// journal records the binding so recovery can report which snapshot a
    /// re-run resumes from.
    #[allow(clippy::too_many_arguments)]
    fn run_estimation(
        &self,
        gpu: &mut Gpu,
        key: SampleKey,
        dataset: &Dataset,
        prior: PriorConfig,
        chain: ChainConfig,
        seed: u64,
        job: JobId,
    ) -> tracto::McmcGpuReport {
        if let (Some(store), every) = (&self.ckpt_store, self.checkpoint_every) {
            if every > 0 {
                let key_hex = key.hex();
                if let Some(journal) = &self.journal {
                    journal.checkpointed(job.0, &key_hex);
                }
                self.bus.publish(job.0, "checkpointed", JobState::Pending);
                let persist = PersistentCheckpoint {
                    store: store.as_ref(),
                    key: key_hex,
                    tracer: self.tracer.clone(),
                };
                match run_mcmc_gpu(
                    gpu,
                    &dataset.acq,
                    &dataset.dwi,
                    &dataset.wm_mask,
                    prior,
                    chain,
                    seed,
                    1,
                    Some((CheckpointPolicy::every(every), &persist)),
                ) {
                    Ok(report) => return report,
                    Err(err) => {
                        // Snapshot-store I/O trouble must not kill the job:
                        // fall back to a plain (non-resumable) run.
                        if self.tracer.enabled() {
                            self.tracer.emit(
                                "serve.ckpt_error",
                                &[
                                    ("job", job.0.into()),
                                    ("error", Value::Text(err.to_string())),
                                ],
                            );
                        }
                    }
                }
            }
        }
        run_mcmc_gpu(
            gpu,
            &dataset.acq,
            &dataset.dwi,
            &dataset.wm_mask,
            prior,
            chain,
            seed,
            1,
            None,
        )
        .expect("a run without a snapshot store on a fault-free device cannot fail")
    }
}

/// The running service. Dropping it without calling
/// [`shutdown`](Self::shutdown) aborts queued jobs with
/// [`JobError::ShuttingDown`] and joins the workers.
pub struct TractoService {
    config: ServiceConfig,
    shared: Arc<Shared>,
    prep_q: Arc<PrepQueue>,
    workers: Vec<std::thread::JoinHandle<()>>,
    /// Unfinished journaled jobs found at startup, waiting for
    /// [`recover`](Self::recover) to re-enqueue them.
    recovered: Mutex<Vec<RecoveredJob>>,
}

impl TractoService {
    /// Bring up the worker pool.
    pub fn start(config: ServiceConfig) -> Self {
        assert!(
            config.estimate_workers >= 1,
            "need at least one estimation worker"
        );
        assert!(config.max_batch_jobs >= 1, "need a positive batch bound");
        let disk = config.disk_cache.as_ref().map(|dir| {
            let mut cache = DiskSampleCache::open(dir)
                .expect("open disk cache")
                .with_policy(config.cache_policy)
                .with_tracer(config.tracer.clone());
            if let Some(cap) = config.disk_cache_bytes {
                cache = cache.with_limit(cap);
            }
            cache
        });
        let mut recovered = Vec::new();
        let mut max_seen_id = 0;
        let (journal, ckpt_store) = match &config.state_dir {
            Some(dir) => {
                let (journal, recovery) = JobJournal::open(dir, config.tracer.clone())
                    .expect("open job journal in state dir");
                let store = CheckpointStore::open(&dir.join("checkpoints"))
                    .expect("open checkpoint store in state dir");
                recovered = recovery.jobs;
                max_seen_id = recovery.max_seen_id;
                let journal = Arc::new(journal);
                // Fleet replication: tee every subsequent journal append to
                // a detached replicator thread, seeded with the compacted
                // on-disk snapshot. Wired before any submission is possible,
                // so no record can slip between snapshot and mirror. The
                // thread is not joined: it exits when the journal (holding
                // the channel sender) drops, which happens after
                // `shutdown_inner` joins the workers — joining it here
                // would deadlock.
                if let (Some(target), Some(member)) = (&config.replicate_to, &config.member) {
                    let (tx, rx) = std::sync::mpsc::channel();
                    let snapshot: Vec<String> = journal
                        .snapshot_text()
                        .lines()
                        .map(|l| l.to_string())
                        .collect();
                    journal.set_mirror(tx);
                    crate::fleet::spawn_replicator(
                        member.clone(),
                        target.clone(),
                        snapshot,
                        rx,
                        config.tracer.clone(),
                    );
                }
                (Some(journal), Some(Arc::new(store)))
            }
            None => (None, None),
        };
        // Seed the SLO counters from the previous incarnation's sidecar
        // before any job can tick them, so recovered totals stay monotone.
        let metrics = Metrics::default();
        let persist = config.state_dir.as_ref().map(|dir| {
            let persist = MetricsPersist::open(dir);
            persist.seed(&metrics);
            persist
        });
        let shared = Arc::new(Shared {
            cache: SampleCache::new(config.cache_bytes)
                .with_policy(config.cache_policy)
                .with_tracer(config.tracer.clone()),
            disk,
            phantoms: Mutex::new(HashMap::new()),
            metrics,
            in_flight: Mutex::new(0),
            idle: Condvar::new(),
            // Fresh ids allocate strictly above every id the journal has
            // ever issued, so recovered and new jobs never collide.
            next_id: AtomicU64::new(max_seen_id + 1),
            journal,
            ckpt_store,
            checkpoint_every: config.checkpoint_every,
            tracer: config.tracer.clone(),
            bus: Arc::new(EventBus::new()),
            upload_dir: config.state_dir.as_ref().map(|d| d.join("uploads")),
            persist,
            rate_limit: config.rate_limit,
            buckets: Mutex::new(HashMap::new()),
            service_ewma_ms: AtomicU64::new(0),
            estimate_ewma_ms: AtomicU64::new(0),
            upstream: AtomicU64::new(0),
            approx_low: config.approx_low,
        });

        let prep_q = Arc::new(PrepQueue::new(
            config.queue_capacity,
            Arc::clone(&shared.bus),
        ));
        let (ready_tx, ready_rx) = sync_channel::<ReadyTrack>(config.queue_capacity);

        let mut workers = Vec::new();
        for i in 0..config.estimate_workers {
            let q = Arc::clone(&prep_q);
            let tx = ready_tx.clone();
            let shared = Arc::clone(&shared);
            let device = config.device.clone();
            workers.push(
                std::thread::Builder::new()
                    .name(format!("tracto-estimate-{i}"))
                    .spawn(move || estimate_worker(i, q, tx, shared, device))
                    .expect("spawn estimation worker"),
            );
        }
        // The clones above keep the channel alive; drop the original so
        // the pipeline collapses cleanly once the senders go away.
        drop(ready_tx);

        {
            let shared = Arc::clone(&shared);
            let cfg = config.clone();
            workers.push(
                std::thread::Builder::new()
                    .name("tracto-batch".into())
                    .spawn(move || batch_worker(ready_rx, shared, cfg))
                    .expect("spawn batch worker"),
            );
        }

        TractoService {
            config,
            shared,
            prep_q,
            workers,
            recovered: Mutex::new(recovered),
        }
    }

    /// The configuration the service was started with.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// The lifecycle event bus (attached by the socket front end).
    pub(crate) fn event_bus(&self) -> Arc<EventBus> {
        Arc::clone(&self.shared.bus)
    }

    fn next_id(&self) -> JobId {
        JobId(self.shared.next_id.fetch_add(1, Ordering::Relaxed))
    }

    fn trace_submit(&self, id: JobId, kind: &'static str) {
        if self.shared.tracer.enabled() {
            self.shared.tracer.emit(
                "serve.job_submitted",
                &[("job", id.0.into()), ("kind", kind.into())],
            );
        }
    }

    /// Submit any job, blocking while the queue is full. This is the one
    /// submission door: estimation and tracking, in-process datasets and
    /// phantom recipes, all enter as a [`JobSpec`].
    pub fn submit(&self, spec: impl Into<JobSpec>) -> Ticket<JobOutput> {
        let spec = spec.into();
        let ticket = Ticket::new(self.next_id());
        self.trace_submit(ticket.id, work_kind(&spec.work));
        // Shed rung of the admission ladder: a rate-limited or provably
        // late job fails typed before it is journaled, so a rejected job
        // is never re-run by crash recovery.
        if let Some(err) = self.shared.admission_shed(&spec) {
            self.shared.job_started(&spec.tenant);
            self.shared.complete(&ticket, &spec.tenant, Err(err));
            return ticket;
        }
        // Write-ahead: a wire-form job is durable before acceptance becomes
        // observable, so a crash after this point cannot lose it.
        if let (Some(journal), Some(wire)) = (&self.shared.journal, &spec.wire) {
            journal.submitted(ticket.id.0, wire);
        }
        self.shared.job_started(&spec.tenant);
        let tenant = spec.tenant.clone();
        let task = PrepTask {
            spec,
            ticket: ticket.clone(),
        };
        self.shared.upstream.fetch_add(1, Ordering::SeqCst);
        if self.prep_q.push(task).is_err() {
            self.shared.upstream.fetch_sub(1, Ordering::SeqCst);
            self.shared
                .complete(&ticket, &tenant, Err(JobError::ShuttingDown));
        }
        ticket
    }

    /// Submit any job without blocking; fails with
    /// [`JobError::QueueFull`] when the bounded queue is at capacity.
    pub fn try_submit(&self, spec: impl Into<JobSpec>) -> Result<Ticket<JobOutput>, JobError> {
        let spec = spec.into();
        // Shed rung: reject before the job is ticketed or journaled. The
        // caller sees the typed `Capacity` error (with its retry-after
        // hint) directly — the reactor maps it to a wire error as-is.
        if let Some(err) = self.shared.admission_shed(&spec) {
            self.shared.job_started(&spec.tenant);
            self.shared.metrics.failed.fetch_add(1, Ordering::Relaxed);
            self.shared.jobs_finished(1);
            self.shared.persist_metrics();
            return Err(err);
        }
        let ticket = Ticket::new(self.next_id());
        self.trace_submit(ticket.id, work_kind(&spec.work));
        if let (Some(journal), Some(wire)) = (&self.shared.journal, &spec.wire) {
            journal.submitted(ticket.id.0, wire);
        }
        self.shared.job_started(&spec.tenant);
        let tenant = spec.tenant.clone();
        self.shared.upstream.fetch_add(1, Ordering::SeqCst);
        let pushed = self.prep_q.try_push(PrepTask {
            spec,
            ticket: ticket.clone(),
        });
        if pushed.is_err() {
            self.shared.upstream.fetch_sub(1, Ordering::SeqCst);
        }
        match pushed {
            Ok(()) => Ok(ticket),
            Err(TryPushError::Full(_)) => {
                if let Some(journal) = &self.shared.journal {
                    journal.failed(ticket.id.0, 0);
                }
                self.shared.metrics.failed.fetch_add(1, Ordering::Relaxed);
                // A full queue is a load shed too: count it so saturation
                // shows up in the overload counters, not just as failures.
                self.shared.metrics.sheds.fetch_add(1, Ordering::Relaxed);
                self.shared.metrics.tenant_shed(&tenant);
                self.shared.jobs_finished(1);
                self.shared.persist_metrics();
                Err(JobError::QueueFull)
            }
            Err(TryPushError::Closed(_)) => {
                if let Some(journal) = &self.shared.journal {
                    journal.failed(ticket.id.0, 0);
                }
                self.shared.metrics.failed.fetch_add(1, Ordering::Relaxed);
                self.shared.jobs_finished(1);
                self.shared.persist_metrics();
                Err(JobError::ShuttingDown)
            }
        }
    }

    /// Re-enqueue every unfinished journaled job found in the state dir at
    /// startup, preserving original job ids — clients that were polling a
    /// job id across the crash keep a valid handle. Returns `(id, ticket)`
    /// pairs so a front end can rebind them (see
    /// [`SocketServer::adopt_jobs`](crate::SocketServer::adopt_jobs)).
    ///
    /// A recovered estimation resumes from its latest persistent
    /// checkpoint automatically: it recomputes the same sample key and the
    /// checkpointed runner finds the snapshot, so at most one checkpoint
    /// interval of MCMC work is repeated.
    pub fn recover(&self) -> Vec<(u64, Ticket<JobOutput>)> {
        let jobs = std::mem::take(&mut *lock(&self.recovered));
        let mut out = Vec::with_capacity(jobs.len());
        for r in jobs {
            let ticket = Ticket::new(JobId(r.id));
            if self.shared.tracer.enabled() {
                self.shared.tracer.emit(
                    "serve.job_recovered",
                    &[
                        ("job", r.id.into()),
                        (
                            "checkpoint",
                            Value::Text(r.checkpoint.clone().unwrap_or_default()),
                        ),
                    ],
                );
            }
            // Re-bumping `submitted` here keeps the persisted totals
            // monotone: a job accepted after the last sidecar save is
            // unfinished in the journal, so its count re-enters through
            // this path after the crash.
            self.shared.job_started(&r.spec.tenant);
            match JobSpec::from_wire(&r.spec) {
                Ok(spec) => {
                    let tenant = spec.tenant.clone();
                    let task = PrepTask {
                        spec,
                        ticket: ticket.clone(),
                    };
                    self.shared.upstream.fetch_add(1, Ordering::SeqCst);
                    if self.prep_q.push(task).is_err() {
                        self.shared.upstream.fetch_sub(1, Ordering::SeqCst);
                        self.shared
                            .complete(&ticket, &tenant, Err(JobError::ShuttingDown));
                    }
                }
                Err(err) => {
                    // A journaled spec that no longer converts (protocol
                    // drift across the restart) fails terminally — and
                    // observably — rather than vanishing.
                    self.shared.complete(
                        &ticket,
                        &r.spec.tenant,
                        Err(JobError::Failed(Arc::new(err))),
                    );
                }
            }
            out.push((r.id, ticket));
        }
        out
    }

    /// Block until every accepted job has completed (successfully or not).
    pub fn drain(&self) {
        let n = lock(&self.shared.in_flight);
        let _n = self.shared.idle.wait_while(n, |n| *n > 0);
    }

    /// Jobs admitted and not yet received by the batch worker.
    #[cfg(test)]
    fn upstream(&self) -> u64 {
        self.shared.upstream.load(Ordering::SeqCst)
    }

    /// Current metrics.
    pub fn metrics(&self) -> MetricsSnapshot {
        let in_flight = *lock(&self.shared.in_flight);
        self.shared
            .metrics
            .snapshot(in_flight, self.shared.cache.stats())
    }

    /// Stop accepting jobs, drain the queues, and join the workers.
    pub fn shutdown(mut self) -> MetricsSnapshot {
        self.shutdown_inner();
        self.metrics()
    }

    fn shutdown_inner(&mut self) {
        self.prep_q.close();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for TractoService {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

fn work_kind(work: &Work) -> &'static str {
    match work {
        Work::Estimate { .. } => "estimate",
        Work::Track { .. } => "track",
    }
}

/// What the prep stage made of one task.
enum Prepared {
    /// A tracking job ready for the batch worker.
    Ready(ReadyTrack),
    /// A job that ends in the prep stage — estimation work, or a cancel,
    /// deadline, shed or dataset error — for the worker to settle.
    Settle(Settlement),
}

fn estimate_worker(
    index: usize,
    queue: Arc<PrepQueue>,
    tx: SyncSender<ReadyTrack>,
    shared: Arc<Shared>,
    device: DeviceConfig,
) {
    let mut gpu = Gpu::new(device);
    gpu.set_tracer(shared.tracer.clone(), index as u32);
    while let Some(task) = queue.pop() {
        let (ticket, tenant, result) = match prepare(&shared, &mut gpu, task) {
            Prepared::Ready(mut ready) => {
                // Stamped at the send, after any tier rewrite in `prepare`.
                ready.ready_at = Instant::now();
                match tx.send(ready) {
                    Ok(()) => continue,
                    Err(send_err) => {
                        let ReadyTrack { ticket, tenant, .. } = send_err.0;
                        (ticket, tenant, Err(JobError::ShuttingDown))
                    }
                }
            }
            Prepared::Settle(settlement) => settlement,
        };
        // The job will never reach the batch worker, so it stops counting
        // as upstream — before it settles, so `drain` never sees it.
        shared.upstream.fetch_sub(1, Ordering::SeqCst);
        shared.complete(&ticket, &tenant, result);
    }
}

/// Run the prep stage for one task: the cancel and deadline checks,
/// dataset resolution, the overload ladder, and Step 1 through the
/// sample cache.
fn prepare(shared: &Shared, gpu: &mut Gpu, task: PrepTask) -> Prepared {
    let PrepTask { spec, ticket } = task;
    if ticket.is_cancelled() {
        return Prepared::Settle((ticket, spec.tenant, Err(JobError::Cancelled)));
    }
    let deadline_at = spec.deadline.map(|d| ticket.accepted_at + d);
    if deadline_at.is_some_and(|t| Instant::now() >= t) {
        return Prepared::Settle((ticket, spec.tenant, Err(JobError::DeadlineExceeded)));
    }
    let dataset = match shared.resolve_dataset(&spec.dataset) {
        Ok(ds) => ds,
        Err(err) => return Prepared::Settle((ticket, spec.tenant, Err(err))),
    };
    match spec.work {
        Work::Estimate { prior, chain, seed } => {
            let key = sample_key(&dataset, &prior, &chain, seed);
            // Prep-stage shed rung: an estimation job has no cheaper
            // tier to demote onto, so an unaffordable fresh run is
            // shed typed before it burns the worker.
            if let Some(est_ms) = shared.estimation_infeasible(deadline_at, key, spec.cache) {
                let remaining_ms = deadline_at
                    .map(|t| t.saturating_duration_since(Instant::now()).as_millis() as u64)
                    .unwrap_or(0);
                let err = shared.shed_at_prep(&ticket, &spec.tenant, remaining_ms, est_ms);
                return Prepared::Settle((ticket, spec.tenant, Err(err)));
            }
            let (samples, cache_hit, voxels) = shared.resolve_samples(
                gpu, key, &dataset, prior, chain, seed, spec.cache, ticket.id,
            );
            if deadline_at.is_some_and(|t| Instant::now() <= t) {
                shared.metrics.deadline_hits.fetch_add(1, Ordering::Relaxed);
            }
            Prepared::Settle((
                ticket,
                spec.tenant,
                Ok(JobOutput::Estimate(EstimateResult {
                    samples,
                    cache_hit,
                    voxels,
                })),
            ))
        }
        Work::Track {
            mut config,
            seeds,
            stop_mask,
        } => {
            let seeds = seeds.unwrap_or_else(|| seeds_from_mask(&dataset.truth.fiber_mask()));
            // Derive the stop mask here, where the dataset is
            // materialized: remote jobs carry only the percentile.
            let stop_mask = stop_mask.or_else(|| {
                config
                    .stop_percentile
                    .and_then(|pct| mask_from_percentile(&mean_dwi_volume(&dataset.dwi), pct))
            });
            // Prep-stage overload ladder, applied where the MCMC bill
            // is actually paid: a dated job whose remaining budget
            // cannot cover a fresh estimation either demotes onto the
            // estimation-free tensorline tier (low priority, opt-in
            // via `--approx-low`) or is shed typed — never run to a
            // guaranteed deadline failure.
            if config.modality != Modality::Tensorline {
                let key = sample_key(&dataset, &config.prior, &config.chain, config.seed);
                if let Some(est_ms) = shared.estimation_infeasible(deadline_at, key, spec.cache) {
                    if shared.approx_low
                        && spec.priority == Priority::Low
                        && config.modality == Modality::Mcmc
                    {
                        config.modality = Modality::Tensorline;
                        config.jitter = 0.0;
                        shared.metrics.demotions.fetch_add(1, Ordering::Relaxed);
                        if shared.tracer.enabled() {
                            shared.tracer.emit(
                                "serve.job_demoted",
                                &[
                                    ("job", ticket.id.0.into()),
                                    ("modality", Value::Text("tensorline".into())),
                                ],
                            );
                        }
                    } else {
                        let remaining_ms = deadline_at
                            .map(|t| t.saturating_duration_since(Instant::now()).as_millis() as u64)
                            .unwrap_or(0);
                        let err = shared.shed_at_prep(&ticket, &spec.tenant, remaining_ms, est_ms);
                        return Prepared::Settle((ticket, spec.tenant, Err(err)));
                    }
                }
            }
            let (samples, cache_hit) = if config.modality == Modality::Tensorline {
                // The tensorline tier skips MCMC entirely: Step 1 is
                // the closed-form tensor fit. It must bypass the
                // sample cache — a fit stored under the dataset+chain
                // key would poison later MCMC jobs (and vice versa).
                (
                    Arc::new(TensorField::fit(&dataset.acq, &dataset.dwi).to_sample_volumes()),
                    false,
                )
            } else {
                let key = sample_key(&dataset, &config.prior, &config.chain, config.seed);
                let (samples, cache_hit, _) = shared.resolve_samples(
                    gpu,
                    key,
                    &dataset,
                    config.prior,
                    config.chain,
                    config.seed,
                    spec.cache,
                    ticket.id,
                );
                (samples, cache_hit)
            };
            let mut ready = ReadyTrack {
                config,
                seeds,
                samples,
                stop_mask,
                cache_hit,
                deadline_at,
                priority: spec.priority,
                retry_budget: spec.retry_budget,
                tenant: spec.tenant,
                ticket,
                ready_at: Instant::now(),
            };
            match ready.config.modality {
                Modality::Analytic => apply_analytic_tier(&mut ready),
                // Deterministic tiers never jitter their seeds.
                Modality::Tensorline => ready.config.jitter = 0.0,
                Modality::Mcmc => {}
            }
            Prepared::Ready(ready)
        }
    }
}

/// Admission order for the batch worker's pending window: higher-priority
/// jobs first; within a priority band, jobs with the nearest deadlines go
/// first and jobs without a deadline keep their FIFO order behind every
/// dated job (the sort is stable).
fn cmp_admission(a: &ReadyTrack, b: &ReadyTrack) -> std::cmp::Ordering {
    b.priority
        .cmp(&a.priority)
        .then_with(|| cmp_deadlines(a.deadline_at, b.deadline_at))
}

fn cmp_deadlines(a: Option<Instant>, b: Option<Instant>) -> std::cmp::Ordering {
    use std::cmp::Ordering::*;
    match (a, b) {
        (Some(x), Some(y)) => x.cmp(&y),
        (Some(_), None) => Less,
        (None, Some(_)) => Greater,
        (None, None) => Equal,
    }
}

/// Pull up to `max_jobs` jobs out of `pending` in admission order.
///
/// When the window cannot fit every pending job, admission is
/// tenant-fair *within each priority band*: tenants take turns
/// contributing their best remaining job, so one tenant's backlog
/// cannot starve another tenant out of the window. Across bands the
/// strict priority order of [`cmp_admission`] still holds — fairness
/// never promotes a low-priority job over a high-priority one. The
/// `rotor` advances every call so the tenant who leads a round rotates
/// between windows — without it a narrow window would always favor the
/// first-arriving tenant.
fn admit_batch(
    pending: &mut Vec<ReadyTrack>,
    max_jobs: usize,
    rotor: &mut usize,
) -> Vec<ReadyTrack> {
    pending.sort_by(cmp_admission);
    let take = max_jobs.min(pending.len());
    if take == pending.len() {
        return std::mem::take(pending);
    }
    let start = *rotor;
    *rotor = rotor.wrapping_add(1);
    let mut picked = vec![false; pending.len()];
    let mut taken = 0;
    {
        // Maximal runs of equal priority in the sorted order.
        let mut band_start = 0;
        while band_start < pending.len() && taken < take {
            let band_end = band_start
                + pending[band_start..]
                    .iter()
                    .take_while(|r| r.priority == pending[band_start].priority)
                    .count();
            // Per-tenant index queues, each already in admission order.
            let mut names: Vec<&str> = Vec::new();
            let mut queues: Vec<Vec<usize>> = Vec::new();
            for (i, ready) in pending.iter().enumerate().take(band_end).skip(band_start) {
                match names.iter().position(|t| *t == ready.tenant) {
                    Some(q) => queues[q].push(i),
                    None => {
                        names.push(&ready.tenant);
                        queues.push(vec![i]);
                    }
                }
            }
            let mut round = 0;
            'band: loop {
                let mut any = false;
                for k in 0..queues.len() {
                    let q = &queues[(k + start) % queues.len()];
                    if let Some(&i) = q.get(round) {
                        any = true;
                        picked[i] = true;
                        taken += 1;
                        if taken == take {
                            break 'band;
                        }
                    }
                }
                if !any {
                    break;
                }
                round += 1;
            }
            band_start = band_end;
        }
    }
    let mut admitted = Vec::with_capacity(take);
    let mut kept = Vec::new();
    for (i, r) in std::mem::take(pending).into_iter().enumerate() {
        if picked[i] {
            admitted.push(r);
        } else {
            kept.push(r);
        }
    }
    *pending = kept;
    admitted
}

/// Device-pool counter values already copied into the service metrics; the
/// pool's counters are cumulative, so the worker settles deltas after each
/// batch.
#[derive(Default)]
struct FaultCounters {
    faults: u64,
    retries: u64,
    failovers: u64,
}

fn settle_fault_metrics(multi: &MultiGpu, shared: &Shared, last: &mut FaultCounters) {
    let faults = multi.faults_injected();
    let retries = multi.fault_retries();
    let failovers = multi.failovers();
    shared
        .metrics
        .faults_injected
        .fetch_add(faults - last.faults, Ordering::Relaxed);
    shared
        .metrics
        .device_retries
        .fetch_add(retries - last.retries, Ordering::Relaxed);
    shared
        .metrics
        .failovers
        .fetch_add(failovers - last.failovers, Ordering::Relaxed);
    shared
        .metrics
        .devices_alive
        .store(multi.alive_devices() as u64, Ordering::Relaxed);
    *last = FaultCounters {
        faults,
        retries,
        failovers,
    };
}

/// How many expected arrival gaps an open batch waits, when no admitted
/// job is upstream, before it concludes that nothing is coming.
const HOLD_GAPS: u32 = 8;

/// The batching window scaled to the live share of the pool: fewer
/// devices means piling up a full-width batch only adds queueing delay.
fn pool_window(batch_window: Duration, alive: usize, total: usize) -> Duration {
    batch_window.mul_f64(alive.max(1) as f64 / total.max(1) as f64)
}

/// Until when an open batch waits for its next job; `None` runs it now.
///
/// A batch holds only while a job is expected. With an admitted job
/// still upstream of the batch worker it holds to the end of the window.
/// Otherwise it holds while the arrival-gap EWMA (`gap`) is shorter than
/// the pool-scaled `window`, and then only [`HOLD_GAPS`] gaps past
/// `hold_from` — the later of the batch's opening and its latest arrival.
/// The window stays the upper bound.
fn hold_until(
    upstream: u64,
    gap: Option<Duration>,
    hold_from: Instant,
    window: Duration,
    window_end: Instant,
) -> Option<Instant> {
    if upstream > 0 {
        return Some(window_end);
    }
    let gap = gap.filter(|g| *g < window)?;
    Some((hold_from + gap * HOLD_GAPS).min(window_end))
}

/// EWMA (4:1, like `service_ewma_ms`) of the gap between consecutive
/// arrivals (entries into the ready channel) of jobs that end up in the
/// same batch. The gap before a batch's first job is not counted: it
/// measures the clients' think time, and a lone closed-loop client would
/// otherwise look like a stream worth waiting for. A hold that ends with
/// the batch closing counts as a gap of the time waited, so a stale short
/// estimate grows back once jobs stop coming.
#[derive(Default)]
struct ArrivalGap {
    ewma: Option<Duration>,
}

impl ArrivalGap {
    fn record(&mut self, gap: Duration) {
        self.ewma = Some(match self.ewma {
            None => gap,
            Some(prev) => (prev * 4 + gap) / 5,
        });
    }
}

/// A job arrived at the batch worker: it is no longer upstream.
fn received(shared: &Shared, ready: ReadyTrack) -> ReadyTrack {
    shared.upstream.fetch_sub(1, Ordering::SeqCst);
    ready
}

fn batch_worker(rx: Receiver<ReadyTrack>, shared: Arc<Shared>, cfg: ServiceConfig) {
    let mut multi = MultiGpu::new(cfg.device.clone(), cfg.devices);
    multi.set_tracer(&shared.tracer);
    if let Some(plan) = &cfg.fault_plan {
        multi.set_fault_plan(plan);
    }
    let total_devices = multi.num_devices();
    shared
        .metrics
        .devices_total
        .store(total_devices as u64, Ordering::Relaxed);
    shared
        .metrics
        .devices_alive
        .store(total_devices as u64, Ordering::Relaxed);
    let mut pending: Vec<ReadyTrack> = Vec::new();
    // Jobs re-queued after a device fault, held until their backoff expires.
    let mut delayed: Vec<(ReadyTrack, Instant)> = Vec::new();
    let mut fair_rotor = 0usize;
    let mut counters = FaultCounters::default();
    let mut prev_alive = multi.alive_devices();
    let mut channel_open = true;
    let mut gap = ArrivalGap::default();
    loop {
        // Promote retries whose backoff has expired.
        let now = Instant::now();
        let mut i = 0;
        while i < delayed.len() {
            if delayed[i].1 <= now {
                pending.push(delayed.swap_remove(i).0);
            } else {
                i += 1;
            }
        }
        if pending.is_empty() {
            if !channel_open {
                if delayed.is_empty() {
                    break;
                }
                // Shutdown with retries still cooling down: run them now
                // rather than abandoning them mid-backoff.
                pending.extend(delayed.drain(..).map(|(r, _)| r));
            } else if let Some(due) = delayed.iter().map(|&(_, at)| at).min() {
                // Idle but with retries pending: sleep on the channel only
                // until the earliest backoff expires.
                match rx.recv_timeout(due.saturating_duration_since(Instant::now())) {
                    Ok(t) => pending.push(received(&shared, t)),
                    Err(RecvTimeoutError::Timeout) => {}
                    Err(RecvTimeoutError::Disconnected) => channel_open = false,
                }
                continue;
            } else {
                match rx.recv() {
                    Ok(t) => pending.push(received(&shared, t)),
                    Err(_) => channel_open = false,
                }
                continue;
            }
        }
        // Continuous batching, work-conserving: take every job already
        // queued, then hold the batch open only while another job is
        // expected (`hold_until`), re-deciding on each arrival. A backlog
        // wider than one batch skips the wait and drains immediately.
        let window = pool_window(cfg.batch_window, multi.alive_devices(), total_devices);
        let opened = Instant::now();
        let window_end = opened + window;
        // The latest arrival into this batch, for the gap EWMA; holds run
        // from it or from the batch's opening, whichever is later.
        let mut last_arrival = pending.iter().map(|r| r.ready_at).max().unwrap_or(opened);
        let mut waited = false;
        while channel_open && pending.len() < cfg.max_batch_jobs {
            let next = match rx.try_recv() {
                Ok(t) => Some(t),
                Err(TryRecvError::Disconnected) => {
                    channel_open = false;
                    break;
                }
                Err(TryRecvError::Empty) => {
                    let now = Instant::now();
                    let upstream = shared.upstream.load(Ordering::SeqCst);
                    let hold_from = last_arrival.max(opened);
                    let Some(until) = hold_until(upstream, gap.ewma, hold_from, window, window_end)
                        .filter(|&t| t > now)
                    else {
                        if waited {
                            gap.record(now.saturating_duration_since(hold_from));
                        }
                        break;
                    };
                    match rx.recv_timeout(until - now) {
                        Ok(t) => Some(t),
                        Err(RecvTimeoutError::Timeout) => {
                            waited = true;
                            None
                        }
                        // The held jobs still run; the next iteration
                        // observes the closed channel.
                        Err(RecvTimeoutError::Disconnected) => {
                            channel_open = false;
                            break;
                        }
                    }
                }
            };
            if let Some(t) = next {
                gap.record(t.ready_at.saturating_duration_since(last_arrival));
                last_arrival = last_arrival.max(t.ready_at);
                waited = false;
                pending.push(received(&shared, t));
            }
        }

        let admitted = admit_batch(&mut pending, cfg.max_batch_jobs, &mut fair_rotor);
        let mut live = Vec::with_capacity(admitted.len());
        for mut r in admitted {
            if r.ticket.is_cancelled() {
                shared.complete(&r.ticket, &r.tenant, Err(JobError::Cancelled));
                continue;
            }
            if r.deadline_at.is_some_and(|t| Instant::now() >= t) {
                shared.complete(&r.ticket, &r.tenant, Err(JobError::DeadlineExceeded));
                continue;
            }
            // Overload ladder, rung 1 — demote: low-priority MCMC jobs
            // drop to the analytic getter at admission (opt-in). The
            // modality guard keeps fault-retried jobs from being
            // transformed twice.
            if cfg.approx_low && r.priority == Priority::Low && r.config.modality == Modality::Mcmc
            {
                apply_analytic_tier(&mut r);
                shared.metrics.demotions.fetch_add(1, Ordering::Relaxed);
                if shared.tracer.enabled() {
                    shared.tracer.emit(
                        "serve.job_demoted",
                        &[
                            ("job", r.ticket.id.0.into()),
                            ("modality", Value::Text("analytic".into())),
                        ],
                    );
                }
            }
            // Rung 2 — shed: a job whose remaining deadline budget is
            // below the measured service floor cannot finish in time, so
            // spending a batch slot on it only delays feasible work.
            let floor_ms = shared.service_ewma_ms.load(Ordering::Relaxed) / 2;
            if floor_ms > 0 {
                if let Some(t) = r.deadline_at {
                    let remaining = t.saturating_duration_since(Instant::now()).as_millis() as u64;
                    if remaining < floor_ms {
                        shared.metrics.sheds.fetch_add(1, Ordering::Relaxed);
                        shared.metrics.tenant_shed(&r.tenant);
                        if shared.tracer.enabled() {
                            shared.tracer.emit(
                                "serve.job_shed",
                                &[
                                    ("job", r.ticket.id.0.into()),
                                    ("tenant", Value::Text(r.tenant.clone())),
                                    ("reason", Value::Text("deadline-infeasible".into())),
                                    ("remaining_ms", remaining.into()),
                                    ("floor_ms", floor_ms.into()),
                                ],
                            );
                        }
                        let err = tracto_trace::TractoError::capacity(
                            format!(
                                "remaining deadline {remaining}ms below service floor \
                                 (retry_after_ms={floor_ms})"
                            ),
                            floor_ms,
                            remaining,
                        );
                        shared.complete(&r.ticket, &r.tenant, Err(JobError::Failed(Arc::new(err))));
                        continue;
                    }
                }
            }
            live.push(r);
        }
        if !live.is_empty() {
            if shared.tracer.enabled() {
                shared.tracer.emit(
                    "serve.batch_formed",
                    &[("jobs", live.len().into()), ("held", pending.len().into())],
                );
            }
            execute_batch(&mut multi, &shared, &cfg, live, &mut delayed);
            settle_fault_metrics(&multi, &shared, &mut counters);
            let alive_now = multi.alive_devices();
            if alive_now < prev_alive {
                if shared.tracer.enabled() {
                    shared.tracer.emit(
                        "serve.pool_degraded",
                        &[
                            ("alive", (alive_now as u64).into()),
                            ("total", (total_devices as u64).into()),
                        ],
                    );
                }
                prev_alive = alive_now;
            }
        }
    }
    // Complete anything still buffered after the senders vanished (pending
    // and delayed are empty here — the loop drains both before exiting).
    for r in pending {
        shared.complete(&r.ticket, &r.tenant, Err(JobError::ShuttingDown));
    }
    while let Ok(r) = rx.try_recv() {
        let r = received(&shared, r);
        shared.complete(&r.ticket, &r.tenant, Err(JobError::ShuttingDown));
    }
}

fn execute_batch(
    multi: &mut MultiGpu,
    shared: &Shared,
    cfg: &ServiceConfig,
    live: Vec<ReadyTrack>,
    delayed: &mut Vec<(ReadyTrack, Instant)>,
) {
    let jobs: Vec<BatchJob> = live
        .iter()
        .map(|r| BatchJob {
            samples: Arc::clone(&r.samples),
            params: r.config.tracking,
            seeds: r.seeds.clone(),
            mask: r.stop_mask.clone(),
            jitter: r.config.jitter,
            run_seed: r.config.seed,
            record_visits: r.config.record_connectivity,
        })
        .collect();

    match run_batch_streamed(multi, &jobs, &cfg.strategy, cfg.streams) {
        Ok(report) => {
            if shared.tracer.enabled() {
                shared.tracer.emit(
                    "serve.batch_done",
                    &[
                        ("jobs", live.len().into()),
                        ("lanes", report.lanes.into()),
                        ("launches", report.launches.into()),
                        ("utilization", report.utilization.into()),
                        ("streams", report.streams.into()),
                        ("overlap_saved_s", report.overlap_saved_s.into()),
                    ],
                );
            }
            shared.metrics.add_batch(crate::metrics::BatchSample {
                jobs: live.len() as u64,
                lanes: report.lanes as u64,
                launches: report.launches,
                wall_s: report.wall_s,
                serial_s: report.serial_s,
                overlap_saved_s: report.overlap_saved_s,
                utilization: report.utilization,
            });
            // Feed the service-floor estimate: EWMA of per-job batch wall
            // time, the cost of running one cache-warm tracking job.
            let per_job_ms = (report.wall_s * 1000.0 / live.len().max(1) as f64) as u64;
            let prev = shared.service_ewma_ms.load(Ordering::Relaxed);
            let ewma = if prev == 0 {
                per_job_ms.max(1)
            } else {
                ((prev * 4 + per_job_ms) / 5).max(1)
            };
            shared.service_ewma_ms.store(ewma, Ordering::Relaxed);
            let batch_jobs = live.len();
            let settled_at = Instant::now();
            let outcomes = live
                .into_iter()
                .zip(report.per_job)
                .map(|(r, out)| {
                    if r.deadline_at.is_some_and(|t| settled_at <= t) {
                        shared.metrics.deadline_hits.fetch_add(1, Ordering::Relaxed);
                    }
                    let result = Ok(JobOutput::Track(TrackResult {
                        tracking: out,
                        cache_hit: r.cache_hit,
                        batch_jobs,
                        batch_lanes: report.lanes,
                    }));
                    (r.ticket, r.tenant, result)
                })
                .collect();
            shared.settle(outcomes);
        }
        Err(err) if err.is_retryable() => {
            // A transient device fault escaped the pool before any lane ran
            // (mid-launch faults are absorbed by failover, so lanes never
            // run twice). Re-queue each job with exponential backoff until
            // its budget is spent, then fail it with the typed cause.
            let err = Arc::new(err);
            for r in live {
                let attempt = r.ticket.record_attempt();
                let budget = r.retry_budget.unwrap_or(cfg.retry_budget);
                if attempt > budget {
                    shared.complete(
                        &r.ticket,
                        &r.tenant,
                        Err(JobError::Failed(Arc::clone(&err))),
                    );
                    continue;
                }
                let backoff = cfg
                    .retry_backoff
                    .saturating_mul(1u32 << (attempt - 1).min(10));
                shared.metrics.job_retries.fetch_add(1, Ordering::Relaxed);
                if shared.tracer.enabled() {
                    shared.tracer.emit(
                        "serve.job_retry",
                        &[
                            ("job", r.ticket.id.0.into()),
                            ("attempt", u64::from(attempt).into()),
                            ("backoff_ms", (backoff.as_millis() as u64).into()),
                            ("error", Value::Text(err.to_string())),
                        ],
                    );
                }
                delayed.push((r, Instant::now() + backoff));
            }
        }
        Err(err) => {
            if live.len() > 1 {
                // The merged working set didn't fit: fall back to running
                // each job alone, which halves residency per attempt.
                for r in live {
                    execute_batch(multi, shared, cfg, vec![r], delayed);
                }
            } else {
                let r = &live[0];
                shared.complete(&r.ticket, &r.tenant, Err(JobError::from(err)));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use tracto::phantom::datasets::DatasetSpec;
    use tracto_gpu_sim::FaultPlan;

    fn tiny_dataset(seed: u64) -> Arc<tracto::phantom::Dataset> {
        Arc::new(
            DatasetSpec {
                name: format!("svc-{seed}"),
                dims: tracto_volume::Dim3::new(8, 6, 6),
                spacing_mm: 2.5,
                n_dirs: 9,
                n_b0: 1,
                bval: 1000.0,
                snr: None,
                seed,
            }
            .build(),
        )
    }

    fn small_config() -> ServiceConfig {
        ServiceConfig {
            device: DeviceConfig {
                wavefront_size: 4,
                num_compute_units: 2,
                waves_per_cu: 2,
                ..DeviceConfig::radeon_5870()
            },
            devices: 2,
            estimate_workers: 2,
            queue_capacity: 8,
            max_batch_jobs: 4,
            batch_window: Duration::from_millis(10),
            ..ServiceConfig::default()
        }
    }

    fn fast_pipeline(seed: u64) -> PipelineConfig {
        PipelineConfig {
            seed,
            chain: tracto::mcmc::ChainConfig {
                num_burnin: 40,
                num_samples: 3,
                sample_interval: 2,
                ..tracto::mcmc::ChainConfig::fast_test()
            },
            ..PipelineConfig::fast()
        }
    }

    fn ready(priority: Priority, deadline_at: Option<Instant>) -> ReadyTrack {
        ready_for("default", priority, deadline_at)
    }

    fn ready_for(tenant: &str, priority: Priority, deadline_at: Option<Instant>) -> ReadyTrack {
        ReadyTrack {
            config: fast_pipeline(0),
            seeds: Vec::new(),
            samples: Arc::new(SampleVolumes::zeros(tracto_volume::Dim3::new(1, 1, 1), 1)),
            stop_mask: None,
            cache_hit: false,
            deadline_at,
            priority,
            retry_budget: None,
            tenant: tenant.to_string(),
            ticket: Ticket::new(JobId(0)),
            ready_at: Instant::now(),
        }
    }

    #[test]
    fn admission_orders_priority_then_deadline() {
        let now = Instant::now();
        let long = Some(now + Duration::from_secs(60));
        let short = Some(now + Duration::from_secs(1));
        // FIFO arrival: normal/no-deadline, normal/long, normal/short,
        // low/short, high/no-deadline.
        let mut window = [
            (0u32, ready(Priority::Normal, None)),
            (1, ready(Priority::Normal, long)),
            (2, ready(Priority::Normal, short)),
            (3, ready(Priority::Low, short)),
            (4, ready(Priority::High, None)),
        ];
        window.sort_by(|a, b| cmp_admission(&a.1, &b.1));
        let order: Vec<u32> = window.iter().map(|(id, _)| *id).collect();
        // High priority beats any deadline in a lower band; within the
        // normal band the short-deadline job jumps the queue and undated
        // jobs keep FIFO order behind every dated one.
        assert_eq!(order, vec![4, 2, 1, 0, 3]);
    }

    /// Property test over the admission order: `cmp_admission` must be a
    /// total order (antisymmetric, transitive) that ranks priority above
    /// deadline and sorts no-deadline jobs behind every dated job in
    /// their band. Exercised over a deterministic LCG-generated corpus.
    #[test]
    fn cmp_admission_is_a_total_order() {
        let base = Instant::now();
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let mut jobs = Vec::new();
        for _ in 0..48 {
            let priority = match next() % 3 {
                0 => Priority::Low,
                1 => Priority::Normal,
                _ => Priority::High,
            };
            let deadline_at = match next() % 4 {
                0 => None,
                k => Some(base + Duration::from_millis(100 * k * (1 + next() % 7))),
            };
            jobs.push(ready(priority, deadline_at));
        }
        use std::cmp::Ordering::*;
        for a in &jobs {
            assert_eq!(cmp_admission(a, a), Equal, "reflexivity");
            for b in &jobs {
                let ab = cmp_admission(a, b);
                assert_eq!(ab, cmp_admission(b, a).reverse(), "antisymmetry");
                // Priority dominates: a higher-priority job never sorts
                // after a lower-priority one, whatever the deadlines.
                if a.priority > b.priority {
                    assert_eq!(ab, Less, "priority must dominate deadline");
                }
                // Within a band, a dated job beats an undated one.
                if a.priority == b.priority && a.deadline_at.is_some() && b.deadline_at.is_none() {
                    assert_eq!(ab, Less, "no-deadline jobs sort last in band");
                }
                for c in &jobs {
                    let bc = cmp_admission(b, c);
                    if ab == bc && ab != Equal {
                        assert_eq!(cmp_admission(a, c), ab, "transitivity");
                    }
                    if ab == Equal && bc == Equal {
                        assert_eq!(cmp_admission(a, c), Equal, "equivalence classes");
                    }
                }
            }
        }
    }

    #[test]
    fn admission_window_is_tenant_fair_within_a_band() {
        // Tenant `a` floods the queue; tenant `b` has two jobs. A window
        // of four must carry both of b's jobs, not four of a's.
        let mut pending: Vec<ReadyTrack> = Vec::new();
        for _ in 0..6 {
            pending.push(ready_for("a", Priority::Normal, None));
        }
        for _ in 0..2 {
            pending.push(ready_for("b", Priority::Normal, None));
        }
        let mut rotor = 0;
        let admitted = admit_batch(&mut pending, 4, &mut rotor);
        let b_jobs = admitted.iter().filter(|r| r.tenant == "b").count();
        assert_eq!(admitted.len(), 4);
        assert_eq!(b_jobs, 2, "fair admission must not starve tenant b");
        assert_eq!(pending.len(), 4, "the rest of a's backlog stays queued");
        // Priority still dominates fairness: a lone high-priority job from
        // the flooding tenant leads the next window; the advanced rotor
        // hands the next normal-band slot to tenant b.
        pending.push(ready_for("b", Priority::Normal, None));
        pending.insert(0, ready_for("a", Priority::High, None));
        let admitted = admit_batch(&mut pending, 2, &mut rotor);
        assert_eq!(admitted[0].priority, Priority::High);
        assert_eq!(admitted[1].tenant, "b", "band fairness below the high job");
        // Even a width-1 window cannot starve anyone: the rotor hands the
        // lead to each tenant in turn.
        pending.push(ready_for("b", Priority::Normal, None));
        pending.push(ready_for("b", Priority::Normal, None));
        let mut lead = std::collections::BTreeSet::new();
        for _ in 0..2 {
            let one = admit_batch(&mut pending, 1, &mut rotor);
            lead.insert(one[0].tenant.clone());
        }
        assert_eq!(lead.len(), 2, "rotation alternates the leading tenant");
    }

    #[test]
    fn rate_limited_tenants_shed_with_a_typed_retry_hint() {
        use tracto_trace::ErrorKind;
        let mut cfg = small_config();
        cfg.rate_limit = 1.0; // burst of 1, then 1 job/sec
        let service = TractoService::start(cfg);
        let ds = tiny_dataset(31);
        let first = service
            .try_submit(JobSpec::track(Arc::clone(&ds), fast_pipeline(1)).with_tenant("greedy"))
            .expect("burst capacity admits the first job");
        let err = match service
            .try_submit(JobSpec::track(Arc::clone(&ds), fast_pipeline(2)).with_tenant("greedy"))
        {
            Err(err) => err,
            Ok(_) => panic!("the second submission must exceed the bucket"),
        };
        match &err {
            JobError::Failed(cause) => {
                assert_eq!(cause.kind(), ErrorKind::Capacity);
                assert!(cause.to_string().contains("retry_after_ms="));
                assert!(
                    tracto_proto::capacity_retry_after(cause).is_some(),
                    "clients must be able to recover the hint"
                );
            }
            other => panic!("expected a typed capacity shed, got {other}"),
        }
        // Another tenant's bucket is untouched by greedy's exhaustion.
        let other = service
            .try_submit(JobSpec::track(Arc::clone(&ds), fast_pipeline(3)).with_tenant("patient"))
            .expect("rate limits are per tenant");
        first.wait_track().expect("admitted job completes");
        other.wait_track().expect("other tenant's job completes");
        let snap = service.shutdown();
        assert_eq!(snap.rate_limited, 1);
        assert_eq!(snap.completed, 2);
        let greedy = snap.tenants.iter().find(|t| t.name == "greedy").unwrap();
        assert_eq!(greedy.submitted, 2);
        assert_eq!(greedy.completed, 1);
        assert_eq!(greedy.shed, 1);
        let patient = snap.tenants.iter().find(|t| t.name == "patient").unwrap();
        assert_eq!(patient.shed, 0);
    }

    #[test]
    fn provably_infeasible_deadlines_shed_at_submit_once_floor_is_known() {
        use tracto_trace::ErrorKind;
        let service = TractoService::start(small_config());
        let ds = tiny_dataset(32);
        // Establish the service floor with a real batch.
        service
            .submit(JobSpec::track(Arc::clone(&ds), fast_pipeline(4)))
            .wait_track()
            .expect("warm job");
        let floor = service.shared.service_ewma_ms.load(Ordering::Relaxed);
        assert!(floor >= 1, "a completed batch must establish the floor");
        // Force an unmissable shed: pretend the floor is enormous.
        service
            .shared
            .service_ewma_ms
            .store(60_000, Ordering::Relaxed);
        let err = service
            .submit(
                JobSpec::track(Arc::clone(&ds), fast_pipeline(5))
                    .with_deadline(Duration::from_millis(5)),
            )
            .wait()
            .expect_err("a 5ms deadline under a 30s floor is infeasible");
        match &err {
            JobError::Failed(cause) => {
                assert_eq!(cause.kind(), ErrorKind::Capacity);
                assert!(cause.to_string().contains("below service floor"));
            }
            other => panic!("expected a capacity shed, got {other}"),
        }
        // An undated job is never shed by the feasibility check.
        service
            .submit(JobSpec::track(Arc::clone(&ds), fast_pipeline(6)))
            .wait_track()
            .expect("undated jobs still run");
        let snap = service.shutdown();
        assert_eq!(snap.sheds, 1);
        assert_eq!(snap.completed, 2);
        assert_eq!(snap.deadline_hits, 0, "no deadlined job ever finished");
    }

    #[test]
    fn prep_queue_pops_in_admission_order_and_drains_after_close() {
        let ds = tiny_dataset(71);
        let task = |id: u64, priority: Priority, deadline: Option<Duration>| {
            let mut spec =
                JobSpec::track(Arc::clone(&ds), fast_pipeline(id)).with_priority(priority);
            if let Some(d) = deadline {
                spec = spec.with_deadline(d);
            }
            PrepTask {
                spec,
                ticket: Ticket::new(JobId(id)),
            }
        };
        let q = PrepQueue::new(8, Arc::new(EventBus::new()));
        q.push(task(1, Priority::Low, None)).ok().unwrap();
        q.push(task(2, Priority::Normal, Some(Duration::from_secs(9))))
            .ok()
            .unwrap();
        q.push(task(3, Priority::Normal, Some(Duration::from_secs(1))))
            .ok()
            .unwrap();
        q.push(task(4, Priority::High, None)).ok().unwrap();
        q.push(task(5, Priority::Normal, None)).ok().unwrap();
        q.close();
        // Highest band first; nearest deadline within a band; an undated
        // job sorts behind every dated peer; close still drains the queue.
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|t| t.ticket.id.0)).collect();
        assert_eq!(order, vec![4, 3, 2, 5, 1]);
        assert!(q.pop().is_none(), "closed and drained");
        assert!(
            matches!(
                q.try_push(task(6, Priority::High, None)),
                Err(TryPushError::Closed(_))
            ),
            "pushes after close are refused"
        );
        // A full queue refuses non-blocking pushes without dropping jobs.
        let q = PrepQueue::new(2, Arc::new(EventBus::new()));
        q.push(task(7, Priority::Normal, None)).ok().unwrap();
        q.push(task(8, Priority::Normal, None)).ok().unwrap();
        assert!(matches!(
            q.try_push(task(9, Priority::Normal, None)),
            Err(TryPushError::Full(_))
        ));
        assert_eq!(
            q.pop().map(|t| t.ticket.id.0),
            Some(7),
            "FIFO within equals"
        );
    }

    #[test]
    fn doomed_mcmc_jobs_shed_at_prep_unless_their_samples_are_cached() {
        use tracto_trace::ErrorKind;
        let service = TractoService::start(small_config());
        let ds = tiny_dataset(33);
        // Warm the cache (and the estimation EWMA) with a real run.
        service
            .submit(JobSpec::track(Arc::clone(&ds), fast_pipeline(4)))
            .wait_track()
            .expect("warm job");
        assert!(
            service.shared.estimate_ewma_ms.load(Ordering::Relaxed) >= 1,
            "a cache miss must establish the estimation floor"
        );
        // Pretend estimation costs a minute: a dated cache-miss job is now
        // provably doomed and must shed at the prep stage, typed.
        service
            .shared
            .estimate_ewma_ms
            .store(60_000, Ordering::Relaxed);
        let err = service
            .submit(
                JobSpec::track(Arc::clone(&ds), fast_pipeline(5))
                    .with_deadline(Duration::from_secs(5)),
            )
            .wait()
            .expect_err("a 5s deadline cannot cover a 60s estimation");
        match &err {
            JobError::Failed(cause) => {
                assert_eq!(cause.kind(), ErrorKind::Capacity);
                assert!(cause.to_string().contains("below estimation cost"));
                assert!(tracto_proto::capacity_retry_after(cause).is_some());
            }
            other => panic!("expected a typed capacity shed, got {other}"),
        }
        // The same dated spec with *cached* samples is free to run: the
        // feasibility probe must not shed a job estimation costs nothing.
        service
            .submit(
                JobSpec::track(Arc::clone(&ds), fast_pipeline(4))
                    .with_deadline(Duration::from_secs(5)),
            )
            .wait_track()
            .expect("cached samples make the deadline feasible");
        let snap = service.shutdown();
        assert_eq!(snap.sheds, 1);
        assert_eq!(snap.completed, 2);
    }

    #[test]
    fn doomed_low_priority_jobs_demote_to_tensorline_instead_of_shedding() {
        let mut cfg = small_config();
        cfg.approx_low = true;
        let service = TractoService::start(cfg);
        let ds = tiny_dataset(34);
        service
            .shared
            .estimate_ewma_ms
            .store(60_000, Ordering::Relaxed);
        // A low-priority MCMC job that cannot afford estimation drops to
        // the estimation-free tensorline tier and still completes in time.
        let result = service
            .submit(
                JobSpec::track(Arc::clone(&ds), fast_pipeline(6))
                    .with_priority(Priority::Low)
                    .with_deadline(Duration::from_secs(30)),
            )
            .wait_track()
            .expect("demoted job completes on the fast tier");
        assert!(
            result.tracking.total_steps > 0,
            "the demoted job still tracks"
        );
        // A normal-priority sibling has no tier to fall to: it sheds.
        service
            .submit(
                JobSpec::track(Arc::clone(&ds), fast_pipeline(7))
                    .with_deadline(Duration::from_secs(5)),
            )
            .wait()
            .expect_err("normal priority has no demotion tier");
        let snap = service.shutdown();
        assert_eq!(snap.demotions, 1);
        assert_eq!(snap.sheds, 1);
        assert_eq!(snap.completed, 1);
        assert_eq!(snap.deadline_hits, 1, "the demoted job beat its deadline");
    }

    #[test]
    fn slo_counters_survive_a_service_restart() {
        let dir = tmp_state_dir("slo");
        let mut cfg = small_config();
        cfg.state_dir = Some(dir.clone());
        let before;
        {
            let service = TractoService::start(cfg.clone());
            service
                .submit(
                    JobSpec::from_wire(&wire_track(9))
                        .unwrap()
                        .with_deadline(Duration::from_secs(60)),
                )
                .wait_track()
                .expect("deadlined job completes in time");
            before = service.shutdown();
            assert_eq!(before.deadline_hits, 1);
            assert_eq!(before.completed, 1);
        }
        let service = TractoService::start(cfg);
        let after = service.metrics();
        assert_eq!(after.submitted, before.submitted, "counters seed from disk");
        assert_eq!(after.completed, before.completed);
        assert_eq!(after.deadline_hits, before.deadline_hits);
        let tenant = after.tenants.iter().find(|t| t.name == "default").unwrap();
        assert_eq!(tenant.completed, 1, "per-tenant counters persist too");
        service
            .submit(JobSpec::from_wire(&wire_track(9)).unwrap())
            .wait_track()
            .expect("post-restart job completes");
        let last = service.shutdown();
        assert_eq!(last.completed, before.completed + 1, "strictly monotone");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn short_deadline_job_completes_under_load() {
        let mut cfg = small_config();
        cfg.max_batch_jobs = 2;
        let service = TractoService::start(cfg);
        let ds = tiny_dataset(7);
        // Warm the cache so the batch worker sees all jobs close together.
        service
            .submit(JobSpec::track(Arc::clone(&ds), fast_pipeline(2)))
            .wait_track()
            .expect("warm job");
        let mut tickets = Vec::new();
        for _ in 0..4 {
            tickets.push(service.submit(JobSpec::track(Arc::clone(&ds), fast_pipeline(2))));
        }
        let urgent = service.submit(
            JobSpec::track(Arc::clone(&ds), fast_pipeline(2))
                .with_priority(Priority::High)
                .with_deadline(Duration::from_secs(30)),
        );
        urgent.wait_track().expect("urgent job completes");
        for t in tickets {
            t.wait_track().expect("background jobs complete");
        }
        service.shutdown();
    }

    #[test]
    fn estimate_then_track_hits_cache() {
        let service = TractoService::start(small_config());
        let ds = tiny_dataset(1);
        let cfg = fast_pipeline(7);
        let est = service.submit(JobSpec::estimate(Arc::clone(&ds), cfg.chain, cfg.seed));
        let est = est.wait_estimate().expect("estimation succeeds");
        assert!(!est.cache_hit, "first estimation is a miss");
        assert!(est.voxels > 0);

        let track = service.submit(JobSpec::track(Arc::clone(&ds), cfg));
        let result = track.wait_track().expect("tracking succeeds");
        assert!(result.cache_hit, "warm cache skips Step 1");
        assert!(result.tracking.total_steps > 0);

        let snap = service.shutdown();
        assert_eq!(snap.completed, 2);
        assert_eq!(snap.estimations_run, 1, "only the cold job ran MCMC");
        assert!(snap.cache.hits >= 1);
    }

    #[test]
    fn cache_bypass_always_recomputes() {
        let service = TractoService::start(small_config());
        let ds = tiny_dataset(9);
        let cfg = fast_pipeline(5);
        // Two bypass jobs: neither reads nor warms the cache.
        for _ in 0..2 {
            service
                .submit(
                    JobSpec::estimate(Arc::clone(&ds), cfg.chain, cfg.seed)
                        .with_cache(CachePolicy::Bypass),
                )
                .wait_estimate()
                .expect("bypass estimation succeeds");
        }
        // A read-only job misses (nothing was written) and writes nothing.
        let ro = service
            .submit(
                JobSpec::estimate(Arc::clone(&ds), cfg.chain, cfg.seed)
                    .with_cache(CachePolicy::ReadOnly),
            )
            .wait_estimate()
            .expect("read-only estimation succeeds");
        assert!(!ro.cache_hit, "bypass jobs must not have warmed the cache");
        // A read-write job still misses, then warms the cache for the last.
        let rw = service
            .submit(JobSpec::estimate(Arc::clone(&ds), cfg.chain, cfg.seed))
            .wait_estimate()
            .expect("read-write estimation succeeds");
        assert!(!rw.cache_hit, "read-only jobs must not have written");
        let warm = service
            .submit(JobSpec::estimate(Arc::clone(&ds), cfg.chain, cfg.seed))
            .wait_estimate()
            .expect("warm estimation succeeds");
        assert!(warm.cache_hit, "read-write job warmed the cache");
        let snap = service.shutdown();
        assert_eq!(snap.estimations_run, 4, "only the warm job skipped MCMC");
    }

    #[test]
    fn phantom_datasets_materialize_once() {
        let service = TractoService::start(small_config());
        let recipe = tracto_proto::DatasetSpec {
            kind: "single".into(),
            scale: 0.05,
            seed: 3,
            snr: None,
            upload: None,
        };
        // Warm first so the two remaining jobs deterministically hit the
        // cache instead of racing both estimate workers on a cold key.
        service
            .submit(JobSpec::track(recipe.clone(), fast_pipeline(6)))
            .wait_track()
            .expect("warm phantom job");
        let tickets: Vec<_> = (0..2)
            .map(|_| service.submit(JobSpec::track(recipe.clone(), fast_pipeline(6))))
            .collect();
        for t in tickets {
            t.wait_track().expect("phantom jobs complete");
        }
        assert_eq!(lock(&service.shared.phantoms).len(), 1, "one build, shared");
        let snap = service.shutdown();
        assert_eq!(snap.completed, 3);
        assert_eq!(snap.estimations_run, 1, "identical recipes share the cache");
    }

    #[test]
    fn bad_phantom_recipe_fails_typed() {
        use tracto_trace::ErrorKind;
        let service = TractoService::start(small_config());
        let recipe = tracto_proto::DatasetSpec::new("klein-bottle");
        let err = service
            .submit(JobSpec::track(recipe, fast_pipeline(1)))
            .wait()
            .expect_err("unknown recipe must fail");
        match err {
            JobError::Failed(cause) => assert_eq!(cause.kind(), ErrorKind::Config),
            other => panic!("expected a typed config failure, got {other}"),
        }
        let snap = service.shutdown();
        assert_eq!(snap.failed, 1);
    }

    #[test]
    fn concurrent_jobs_share_batches() {
        let service = TractoService::start(small_config());
        let ds = tiny_dataset(2);
        // Warm the cache so all four jobs arrive at the batch worker close
        // together.
        let warm = service.submit(JobSpec::track(Arc::clone(&ds), fast_pipeline(3)));
        warm.wait_track().expect("warm job");
        // Same dataset + estimation config ⇒ same cache key for all four.
        let tickets: Vec<_> = (0..4)
            .map(|_| service.submit(JobSpec::track(Arc::clone(&ds), fast_pipeline(3))))
            .collect();
        for t in &tickets {
            let r = t.wait_track().expect("batched job succeeds");
            assert!(r.batch_jobs >= 1);
        }
        let snap = service.shutdown();
        assert_eq!(snap.completed, 5);
        // Four cache-warm jobs cannot need four cold MCMC runs.
        assert_eq!(snap.estimations_run, 1);
        assert!(snap.mean_batch_occupancy >= 1.0);
    }

    #[test]
    fn batches_hold_only_while_a_job_is_expected() {
        let ms = Duration::from_millis;
        let t0 = Instant::now();
        let window = ms(20);
        let end = t0 + window;
        // An admitted job still upstream holds the batch to the window's end.
        assert_eq!(hold_until(1, None, t0, window, end), Some(end));
        assert_eq!(hold_until(3, Some(ms(500)), t0, window, end), Some(end));
        // Nothing upstream, but jobs have been arriving 1 ms apart: hold
        // HOLD_GAPS gaps past the latest arrival...
        let last = t0 + ms(2);
        assert_eq!(
            hold_until(0, Some(ms(1)), last, window, end),
            Some(last + ms(1) * HOLD_GAPS)
        );
        // ...and never past the window.
        assert_eq!(hold_until(0, Some(ms(9)), last, window, end), Some(end));
        // Neither signal: the batch runs now.
        assert_eq!(hold_until(0, None, t0, window, end), None);
        assert_eq!(hold_until(0, Some(window), t0, window, end), None);
        assert_eq!(hold_until(0, Some(ms(50)), t0, window, end), None);
    }

    #[test]
    fn a_degraded_pool_judges_the_gap_against_a_shorter_window() {
        let ms = Duration::from_millis;
        let full = pool_window(ms(20), 4, 4);
        let degraded = pool_window(ms(20), 2, 4);
        assert_eq!(full, ms(20));
        assert_eq!(degraded, ms(10));
        assert_eq!(pool_window(ms(20), 0, 4), ms(5), "at least one device");
        let t0 = Instant::now();
        let gap = Some(ms(12));
        assert_eq!(hold_until(0, gap, t0, full, t0 + full), Some(t0 + full));
        assert_eq!(hold_until(0, gap, t0, degraded, t0 + degraded), None);
        assert_eq!(
            hold_until(1, gap, t0, degraded, t0 + degraded),
            Some(t0 + degraded)
        );
    }

    #[test]
    fn arrival_gap_is_a_four_to_one_ewma() {
        let ms = Duration::from_millis;
        let mut gap = ArrivalGap::default();
        assert_eq!(gap.ewma, None);
        gap.record(ms(10));
        assert_eq!(gap.ewma, Some(ms(10)), "the first wait seeds it");
        gap.record(ms(20));
        assert_eq!(gap.ewma, Some(ms(12)));
    }

    #[test]
    fn a_lone_job_does_not_wait_out_the_batch_window() {
        let mut cfg = small_config();
        cfg.batch_window = Duration::from_secs(5);
        let service = TractoService::start(cfg);
        let ds = tiny_dataset(41);
        // Warm the sample cache, so the timed jobs are tracking alone.
        service
            .submit(JobSpec::track(Arc::clone(&ds), fast_pipeline(2)))
            .wait_track()
            .expect("warm job");
        for _ in 0..2 {
            let t0 = Instant::now();
            let r = service
                .submit(JobSpec::track(Arc::clone(&ds), fast_pipeline(2)))
                .wait_track()
                .expect("lone job");
            assert_eq!(r.batch_jobs, 1);
            assert!(
                t0.elapsed() < Duration::from_millis(2500),
                "a lone job waited {:?} for company that was not coming",
                t0.elapsed()
            );
        }
        let snap = service.shutdown();
        assert_eq!(snap.completed, 3);
    }

    #[test]
    fn upstream_count_returns_to_zero_after_drain() {
        use tracto_trace::ErrorKind;
        let service = TractoService::start(small_config());
        let ds = tiny_dataset(43);
        // Two cold track jobs occupy both estimation workers...
        let mut tickets: Vec<_> = (0..2)
            .map(|i| service.submit(JobSpec::track(Arc::clone(&ds), fast_pipeline(i))))
            .collect();
        // ...so these queue behind them: a job past its deadline at prep
        // (the service floor is still unknown, so admission lets it in),
        let late = service.submit(
            JobSpec::track(Arc::clone(&ds), fast_pipeline(0)).with_deadline(Duration::ZERO),
        );
        // a job cancelled before work,
        let cancelled = service.submit(JobSpec::track(Arc::clone(&ds), fast_pipeline(1)));
        cancelled.cancel();
        // an estimation job, and a track job that will hit the cache.
        tickets.push(service.submit(JobSpec::estimate(
            Arc::clone(&ds),
            fast_pipeline(5).chain,
            5,
        )));
        tickets.push(service.submit(JobSpec::track(Arc::clone(&ds), fast_pipeline(0))));
        service.drain();
        assert_eq!(late.wait().unwrap_err(), JobError::DeadlineExceeded);
        assert!(cancelled.try_result().is_some());
        // A prep-stage shed: a dated cache miss that estimation cannot fit.
        service
            .shared
            .estimate_ewma_ms
            .store(60_000, Ordering::Relaxed);
        let shed = service.submit(
            JobSpec::track(Arc::clone(&ds), fast_pipeline(9)).with_deadline(Duration::from_secs(5)),
        );
        match shed.wait() {
            Err(JobError::Failed(cause)) => assert_eq!(cause.kind(), ErrorKind::Capacity),
            other => panic!("expected a prep-stage shed, got {other:?}"),
        }
        service.drain();
        for t in &tickets {
            t.wait().expect("admitted job completes");
        }
        assert_eq!(service.upstream(), 0, "every admitted job left upstream");
        let snap = service.shutdown();
        assert_eq!(snap.sheds, 1);
        assert_eq!(snap.deadline_exceeded, 1);
    }

    #[test]
    fn cancellation_before_work() {
        let service = TractoService::start(small_config());
        let ds = tiny_dataset(3);
        let ticket = service.submit(JobSpec::track(Arc::clone(&ds), fast_pipeline(1)));
        ticket.cancel();
        // Depending on timing the job is either cancelled or completed —
        // cancellation is advisory — but it must terminate either way.
        let result = ticket.wait();
        if let Err(e) = &result {
            assert_eq!(*e, JobError::Cancelled);
        }
        service.drain();
        let snap = service.shutdown();
        assert_eq!(snap.cancelled + snap.completed, 1);
    }

    #[test]
    fn winning_cancel_counts_as_cancelled_even_if_work_finished() {
        // The cancel/fulfill race, driven to both outcomes: whatever the
        // ticket reports, the metrics must agree with it.
        for seed in 0..6 {
            let service = TractoService::start(small_config());
            let ds = tiny_dataset(20 + seed);
            let ticket = service.submit(JobSpec::track(Arc::clone(&ds), fast_pipeline(seed)));
            let won = ticket.cancel();
            let result = ticket.wait();
            let snap = service.shutdown();
            match result {
                Err(JobError::Cancelled) => {
                    assert_eq!(snap.cancelled, 1, "ticket said cancelled; metrics must too");
                    assert_eq!(snap.completed, 0);
                }
                Ok(_) => {
                    assert!(!won, "a winning cancel can never observe success");
                    assert_eq!(snap.completed, 1);
                    assert_eq!(snap.cancelled, 0);
                }
                Err(other) => panic!("unexpected error: {other}"),
            }
        }
    }

    #[test]
    fn immediate_deadline_rejected() {
        let service = TractoService::start(small_config());
        let ds = tiny_dataset(4);
        let job = JobSpec::track(Arc::clone(&ds), fast_pipeline(1)).with_deadline(Duration::ZERO);
        let err = service.submit(job).wait().expect_err("deadline must fire");
        assert_eq!(err, JobError::DeadlineExceeded);
        let snap = service.shutdown();
        assert_eq!(snap.deadline_exceeded, 1);
    }

    #[test]
    fn drain_waits_for_everything() {
        let service = TractoService::start(small_config());
        let ds = tiny_dataset(5);
        let tickets: Vec<_> = (0..3)
            .map(|i| service.submit(JobSpec::track(Arc::clone(&ds), fast_pipeline(i))))
            .collect();
        service.drain();
        for t in tickets {
            assert!(
                t.try_result().is_some(),
                "drain returned before a job finished"
            );
        }
        assert_eq!(service.metrics().in_flight, 0);
    }

    #[test]
    fn device_loss_mid_service_jobs_still_complete() {
        let mut cfg = small_config();
        // One transient launch failure on device 0 and a permanent loss of
        // device 1: every job must still complete via retry + failover.
        cfg.fault_plan =
            Some(FaultPlan::parse("fault 0 0 launch-fail\nfault 1 0 device-lost").unwrap());
        let service = TractoService::start(cfg);
        let ds = tiny_dataset(11);
        let tickets: Vec<_> = (0..3)
            .map(|_| service.submit(JobSpec::track(Arc::clone(&ds), fast_pipeline(4))))
            .collect();
        for t in tickets {
            t.wait_track()
                .expect("jobs survive device loss via failover");
        }
        let snap = service.shutdown();
        assert_eq!(snap.completed, 3);
        assert_eq!(snap.failed, 0);
        assert_eq!(snap.faults_injected, 2, "both plan events fired");
        assert_eq!(snap.device_retries, 1);
        assert_eq!(snap.failovers, 1);
        assert_eq!(snap.devices_total, 2);
        assert_eq!(snap.devices_alive, 1);
    }

    #[test]
    fn retry_budget_exhaustion_surfaces_typed_device_error() {
        use std::error::Error;
        use tracto_trace::ErrorKind;

        let mut cfg = small_config();
        cfg.devices = 1;
        cfg.retry_budget = 1;
        cfg.retry_backoff = Duration::from_millis(1);
        // Allocation faults escape the pool (nothing to fail over to for an
        // admission-time fault), so the first run and the one retry both
        // die; the budget is then spent.
        cfg.fault_plan =
            Some(FaultPlan::parse("fault 0 0 alloc-fail\nfault 0 1 alloc-fail").unwrap());
        let service = TractoService::start(cfg);
        let ds = tiny_dataset(12);
        let err = service
            .submit(JobSpec::track(Arc::clone(&ds), fast_pipeline(5)))
            .wait()
            .expect_err("retry budget must run out");
        match &err {
            JobError::Failed(cause) => {
                assert_eq!(cause.kind(), ErrorKind::Device);
                assert!(cause.to_string().contains("device"));
            }
            other => panic!("expected a typed device failure, got {other}"),
        }
        assert!(err.source().is_some(), "typed cause stays chained");
        let snap = service.shutdown();
        assert_eq!(snap.failed, 1);
        assert_eq!(snap.job_retries, 1, "exactly one backoff retry ran");
        assert_eq!(snap.faults_injected, 2);
        assert_eq!(snap.completed, 0);
    }

    #[test]
    fn per_job_retry_budget_overrides_service_budget() {
        use tracto_trace::ErrorKind;

        let mut cfg = small_config();
        cfg.devices = 1;
        cfg.retry_budget = 5; // generous service-wide budget…
        cfg.retry_backoff = Duration::from_millis(1);
        cfg.fault_plan =
            Some(FaultPlan::parse("fault 0 0 alloc-fail\nfault 0 1 alloc-fail").unwrap());
        let service = TractoService::start(cfg);
        let ds = tiny_dataset(13);
        // …but this job opts out of retries entirely: the first fault kills it.
        let err = service
            .submit(JobSpec::track(Arc::clone(&ds), fast_pipeline(5)).with_retry_budget(0))
            .wait()
            .expect_err("zero per-job budget fails on the first fault");
        match &err {
            JobError::Failed(cause) => assert_eq!(cause.kind(), ErrorKind::Device),
            other => panic!("expected a typed device failure, got {other}"),
        }
        let snap = service.shutdown();
        assert_eq!(snap.job_retries, 0, "no retries despite the service budget");
        assert_eq!(snap.faults_injected, 1, "second fault event never fired");
    }

    #[test]
    fn try_submit_backpressure_shape() {
        let mut cfg = small_config();
        cfg.queue_capacity = 1;
        cfg.estimate_workers = 1;
        let service = TractoService::start(cfg);
        let ds = tiny_dataset(6);
        let mut accepted = Vec::new();
        let mut rejected = 0;
        for i in 0..16 {
            match service.try_submit(JobSpec::track(Arc::clone(&ds), fast_pipeline(i))) {
                Ok(t) => accepted.push(t),
                Err(JobError::QueueFull) => rejected += 1,
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert!(!accepted.is_empty(), "some jobs must get through");
        for t in accepted {
            t.wait_track().expect("accepted jobs complete");
        }
        let snap = service.shutdown();
        // Every submission is accounted for: completed or rejected.
        assert_eq!(snap.completed + rejected, 16);
    }

    fn tmp_state_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("tracto-svc-state-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn wire_track(seed: u64) -> tracto_proto::JobSpec {
        let mut wire = tracto_proto::JobSpec::track(tracto_proto::DatasetSpec {
            kind: "single".into(),
            scale: 0.05,
            seed: 3,
            snr: None,
            upload: None,
        });
        wire.chain = tracto_proto::ChainSpec {
            burnin: 40,
            samples: 3,
            interval: 2,
        };
        wire.seed = seed;
        wire
    }

    #[test]
    fn journaled_wire_jobs_recover_and_complete_after_crash() {
        use crate::journal::JobJournal;
        let dir = tmp_state_dir("recover");
        let wire = wire_track(4);
        // Session 1: accept the job durably, then "crash" before running it
        // (drop with no terminal record).
        {
            let (journal, recovery) = JobJournal::open(&dir, Tracer::disabled()).unwrap();
            assert!(recovery.jobs.is_empty());
            journal.submitted(5, &wire);
        }
        // Session 2: the restarted service replays the journal and re-runs
        // the job under its original id.
        let mut cfg = small_config();
        cfg.state_dir = Some(dir.clone());
        cfg.checkpoint_every = 1;
        let service = TractoService::start(cfg);
        let recovered = service.recover();
        assert_eq!(recovered.len(), 1);
        assert_eq!(recovered[0].0, 5, "recovery preserves job ids");
        let out = recovered[0]
            .1
            .wait_track()
            .expect("recovered job completes");
        assert!(out.tracking.total_steps > 0);
        // Fresh submissions allocate above every journaled id.
        let fresh = service.submit(JobSpec::from_wire(&wire).unwrap());
        assert!(fresh.id.0 > 5, "fresh id {} must exceed 5", fresh.id.0);
        fresh.wait_track().expect("fresh job completes");
        let snap = service.shutdown();
        assert_eq!(snap.completed, 2);
        // Session 3: everything finished, so nothing is left to recover.
        let (_j, recovery) = JobJournal::open(&dir, Tracer::disabled()).unwrap();
        assert!(
            recovery.jobs.is_empty(),
            "terminal records settle the journal"
        );
        assert_eq!(recovery.max_seen_id, fresh.id.0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn completed_jobs_settle_the_journal_and_local_jobs_skip_it() {
        use crate::journal::JobJournal;
        let dir = tmp_state_dir("settle");
        let mut cfg = small_config();
        cfg.state_dir = Some(dir.clone());
        let service = TractoService::start(cfg);
        service
            .submit(JobSpec::from_wire(&wire_track(6)).unwrap())
            .wait_track()
            .expect("wire job completes");
        // An in-process dataset has no wire form: it must run fine and
        // never touch the journal.
        service
            .submit(JobSpec::track(tiny_dataset(15), fast_pipeline(1)))
            .wait_track()
            .expect("local job completes");
        service.shutdown();
        let (_j, recovery) = JobJournal::open(&dir, Tracer::disabled()).unwrap();
        assert!(recovery.jobs.is_empty());
        assert_eq!(
            recovery.max_seen_id, 1,
            "only the wire job (id 1) was journaled"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn estimation_persists_checkpoints_under_the_state_dir() {
        use tracto_trace::RingSink;
        let dir = tmp_state_dir("ckpt");
        let ring = Arc::new(RingSink::new(4096));
        let mut cfg = small_config();
        cfg.state_dir = Some(dir.clone());
        cfg.checkpoint_every = 1;
        cfg.tracer = Tracer::shared(Arc::clone(&ring) as _);
        let service = TractoService::start(cfg);
        let mut wire = wire_track(8);
        wire.kind = tracto_proto::JobKind::Estimate;
        wire.cache = CachePolicy::Bypass;
        service
            .submit(JobSpec::from_wire(&wire).unwrap())
            .wait_estimate()
            .expect("estimation completes");
        service.shutdown();
        assert!(
            ring.count("ckpt.save") >= 1,
            "persistent checkpoints must be written during estimation"
        );
        // A completed run discards its snapshot: the store holds nothing.
        let ckpts: Vec<_> = std::fs::read_dir(dir.join("checkpoints"))
            .unwrap()
            .filter_map(|e| e.ok())
            .collect();
        assert!(ckpts.is_empty(), "completed runs leave no snapshots");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
