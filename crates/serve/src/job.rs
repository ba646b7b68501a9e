//! Job descriptions, results, and the completion tickets clients wait on.

use crate::lock;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};
use tracto::mcmc::SampleVolumes;
use tracto::tracking::TrackingOutput;

/// Monotonic identifier the service assigns at submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u64);

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job-{}", self.0)
    }
}

/// Outcome of an estimation job.
#[derive(Debug, Clone)]
pub struct EstimateResult {
    /// The posterior sample stack (shared with the cache).
    pub samples: Arc<SampleVolumes>,
    /// Whether the stack came from the cache rather than a fresh MCMC run.
    pub cache_hit: bool,
    /// Voxels estimated (0 on a cache hit).
    pub voxels: usize,
}

/// Outcome of a tracking job.
#[derive(Debug, Clone)]
pub struct TrackResult {
    /// Lengths, total steps, and optional connectivity — the same shape
    /// [`tracto::Pipeline`] returns.
    pub tracking: TrackingOutput,
    /// Whether Step 1 was skipped via the sample cache.
    pub cache_hit: bool,
    /// Number of jobs sharing the batch this job's lanes ran in.
    pub batch_jobs: usize,
    /// Total lanes in that batch (all jobs, all samples, all seeds).
    pub batch_lanes: usize,
}

/// What a completed job produced — the single result type behind
/// [`TractoService::submit`](crate::TractoService::submit). Estimation
/// jobs yield [`JobOutput::Estimate`], tracking jobs [`JobOutput::Track`];
/// the [`Ticket::wait_estimate`]/[`Ticket::wait_track`] helpers unwrap the
/// expected variant.
#[derive(Debug, Clone)]
pub enum JobOutput {
    /// Result of an estimation job.
    Estimate(EstimateResult),
    /// Result of a tracking job.
    Track(TrackResult),
}

impl JobOutput {
    /// The tracking result, if this job tracked.
    pub fn into_track(self) -> Option<TrackResult> {
        match self {
            JobOutput::Track(r) => Some(r),
            JobOutput::Estimate(_) => None,
        }
    }

    /// The estimation result, if this job estimated.
    pub fn into_estimate(self) -> Option<EstimateResult> {
        match self {
            JobOutput::Estimate(r) => Some(r),
            JobOutput::Track(_) => None,
        }
    }
}

/// Why a job did not complete.
#[derive(Debug, Clone)]
pub enum JobError {
    /// The bounded submission queue was full (`try_submit` only).
    QueueFull,
    /// The client cancelled the ticket.
    Cancelled,
    /// The job's deadline passed before tracking started.
    DeadlineExceeded,
    /// The service is shutting down and no longer accepts or runs jobs.
    ShuttingDown,
    /// The job failed outright (e.g. device memory exhausted); the typed
    /// cause is shared so the ticket stays cheaply cloneable.
    Failed(Arc<tracto_trace::TractoError>),
}

impl JobError {
    /// Wrap a workspace error as a job failure.
    pub fn failed(err: tracto_trace::TractoError) -> Self {
        JobError::Failed(Arc::new(err))
    }

    /// Whether the batch worker may retry the job: only failures whose
    /// typed cause is a transient device fault qualify. Cancellations,
    /// deadlines, and exhausted capacity never retry.
    pub fn is_retryable(&self) -> bool {
        matches!(self, JobError::Failed(err) if err.is_retryable())
    }
}

impl PartialEq for JobError {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (JobError::QueueFull, JobError::QueueFull)
            | (JobError::Cancelled, JobError::Cancelled)
            | (JobError::DeadlineExceeded, JobError::DeadlineExceeded)
            | (JobError::ShuttingDown, JobError::ShuttingDown) => true,
            // Failures compare by error kind: callers match on what went
            // wrong, not the exact message.
            (JobError::Failed(a), JobError::Failed(b)) => a.kind() == b.kind(),
            _ => false,
        }
    }
}

impl Eq for JobError {}

impl From<tracto_trace::TractoError> for JobError {
    fn from(err: tracto_trace::TractoError) -> Self {
        match err {
            tracto_trace::TractoError::Cancelled => JobError::Cancelled,
            tracto_trace::TractoError::Deadline => JobError::DeadlineExceeded,
            other => JobError::Failed(Arc::new(other)),
        }
    }
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::QueueFull => f.write_str("submission queue full"),
            JobError::Cancelled => f.write_str("cancelled by client"),
            JobError::DeadlineExceeded => f.write_str("deadline exceeded"),
            JobError::ShuttingDown => f.write_str("service shutting down"),
            JobError::Failed(err) => write!(f, "job failed: {err}"),
        }
    }
}

impl std::error::Error for JobError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JobError::Failed(err) => Some(err.as_ref()),
            _ => None,
        }
    }
}

struct TicketState<T> {
    result: Mutex<Option<Result<T, JobError>>>,
    done: Condvar,
    cancelled: AtomicBool,
    attempts: AtomicU32,
}

/// A client's handle to a submitted job: blocks on the result, supports
/// cancellation. Cloneable so one waiter can hand the cancel side to
/// another thread.
pub struct Ticket<T> {
    /// Identifier assigned at submission.
    pub id: JobId,
    /// When the job was accepted (deadlines are measured from here).
    pub accepted_at: Instant,
    state: Arc<TicketState<T>>,
}

impl<T> Clone for Ticket<T> {
    fn clone(&self) -> Self {
        Ticket {
            id: self.id,
            accepted_at: self.accepted_at,
            state: Arc::clone(&self.state),
        }
    }
}

impl<T: Clone> Ticket<T> {
    pub(crate) fn new(id: JobId) -> Self {
        Ticket {
            id,
            accepted_at: Instant::now(),
            state: Arc::new(TicketState {
                result: Mutex::new(None),
                done: Condvar::new(),
                cancelled: AtomicBool::new(false),
                attempts: AtomicU32::new(0),
            }),
        }
    }

    /// Deliver the result. The first fulfillment wins; later ones (e.g. a
    /// worker racing a cancellation) are dropped. A successful result for
    /// a ticket whose [`cancel`](Self::cancel) won the race is converted to
    /// [`JobError::Cancelled`] *under the same lock* — the client that was
    /// told "cancelled" never observes a completed job. Returns what was
    /// actually stored, or `None` if the ticket was already fulfilled.
    pub(crate) fn fulfill(&self, result: Result<T, JobError>) -> Option<Result<T, JobError>> {
        let mut slot = lock(&self.state.result);
        if slot.is_some() {
            return None;
        }
        let stored = if self.state.cancelled.load(Ordering::SeqCst) && result.is_ok() {
            Err(JobError::Cancelled)
        } else {
            result
        };
        *slot = Some(stored.clone());
        self.state.done.notify_all();
        Some(stored)
    }

    /// Request cancellation. Returns `true` if the cancel arrived before a
    /// result was stored — the job is then guaranteed to resolve to
    /// [`JobError::Cancelled`], even if a worker was mid-fulfilment
    /// (the cancelled flag and the result slot are settled under one lock,
    /// so there is no window where both "cancelled" and a completed result
    /// are observable). Returns `false` if the job had already finished.
    pub fn cancel(&self) -> bool {
        let slot = lock(&self.state.result);
        self.state.cancelled.store(true, Ordering::SeqCst);
        slot.is_none()
    }

    /// Whether [`cancel`](Self::cancel) was called.
    pub fn is_cancelled(&self) -> bool {
        self.state.cancelled.load(Ordering::SeqCst)
    }

    /// Retries this job has consumed so far (0 until a device fault forces
    /// the first re-run).
    pub fn attempts(&self) -> u32 {
        self.state.attempts.load(Ordering::SeqCst)
    }

    /// Record one retry and return the new count (1 for the first retry).
    pub(crate) fn record_attempt(&self) -> u32 {
        self.state.attempts.fetch_add(1, Ordering::SeqCst) + 1
    }

    /// Non-blocking poll.
    pub fn try_result(&self) -> Option<Result<T, JobError>> {
        lock(&self.state.result).clone()
    }

    /// Block until the job completes (or fails).
    pub fn wait(&self) -> Result<T, JobError> {
        let slot = lock(&self.state.result);
        let slot = (self.state.done)
            .wait_while(slot, |s| s.is_none())
            .unwrap_or_else(PoisonError::into_inner);
        slot.clone().expect("slot filled")
    }

    /// Block up to `timeout`; `None` when still pending.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Result<T, JobError>> {
        let slot = lock(&self.state.result);
        let (slot, _) = (self.state.done)
            .wait_timeout_while(slot, timeout, |s| s.is_none())
            .unwrap_or_else(PoisonError::into_inner);
        slot.clone()
    }
}

impl Ticket<JobOutput> {
    /// [`wait`](Self::wait) and unwrap the tracking result.
    ///
    /// # Panics
    /// If the ticket belongs to an estimation job — waiting for the wrong
    /// kind is a caller bug, not a runtime condition.
    pub fn wait_track(&self) -> Result<TrackResult, JobError> {
        self.wait()
            .map(|o| o.into_track().expect("ticket is for an estimation job"))
    }

    /// [`wait`](Self::wait) and unwrap the estimation result.
    ///
    /// # Panics
    /// If the ticket belongs to a tracking job.
    pub fn wait_estimate(&self) -> Result<EstimateResult, JobError> {
        self.wait()
            .map(|o| o.into_estimate().expect("ticket is for a tracking job"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ticket_wait_sees_fulfillment() {
        let t: Ticket<u32> = Ticket::new(JobId(1));
        let t2 = t.clone();
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            t2.fulfill(Ok(7));
        });
        assert_eq!(t.wait(), Ok(7));
        h.join().unwrap();
    }

    #[test]
    fn first_fulfillment_wins() {
        let t: Ticket<u32> = Ticket::new(JobId(2));
        assert!(t.fulfill(Err(JobError::Cancelled)).is_some());
        assert!(t.fulfill(Ok(9)).is_none(), "second fulfilment is dropped");
        assert_eq!(t.wait(), Err(JobError::Cancelled));
    }

    #[test]
    fn wait_timeout_on_pending() {
        let t: Ticket<u32> = Ticket::new(JobId(3));
        assert!(t.wait_timeout(Duration::from_millis(5)).is_none());
        assert!(t.try_result().is_none());
        t.fulfill(Ok(1));
        assert_eq!(t.wait_timeout(Duration::from_millis(5)), Some(Ok(1)));
    }

    #[test]
    fn cancel_reports_whether_it_won() {
        let t: Ticket<u32> = Ticket::new(JobId(4));
        assert!(!t.is_cancelled());
        assert!(t.cancel(), "no result yet: cancel wins");
        assert!(t.is_cancelled());
        let late: Ticket<u32> = Ticket::new(JobId(5));
        late.fulfill(Ok(3));
        assert!(!late.cancel(), "result stored: cancel loses");
        assert_eq!(late.wait(), Ok(3), "a lost cancel leaves the result");
    }

    /// Regression for the cancel/fulfil race: a cancel that returned `true`
    /// must never be followed by an observable completed result, even when
    /// a worker fulfils `Ok` immediately afterwards (the batch-admission
    /// race). The conversion happens under the result lock, so there is no
    /// interleaving where both outcomes are visible.
    #[test]
    fn winning_cancel_converts_late_success() {
        let t: Ticket<u32> = Ticket::new(JobId(6));
        assert!(t.cancel());
        let stored = t.fulfill(Ok(7)).expect("first fulfilment stores");
        assert_eq!(stored, Err(JobError::Cancelled));
        assert_eq!(t.wait(), Err(JobError::Cancelled));
        // Errors pass through unconverted — a deadline miss stays a
        // deadline miss even on a cancelled ticket.
        let t2: Ticket<u32> = Ticket::new(JobId(7));
        assert!(t2.cancel());
        assert_eq!(
            t2.fulfill(Err(JobError::DeadlineExceeded)),
            Some(Err(JobError::DeadlineExceeded))
        );
    }

    #[test]
    fn hammered_cancel_never_observes_success() {
        for round in 0..200 {
            let t: Ticket<u32> = Ticket::new(JobId(round));
            let worker = t.clone();
            let h = std::thread::spawn(move || {
                worker.fulfill(Ok(1));
            });
            let won = t.cancel();
            h.join().unwrap();
            let result = t.wait();
            if won {
                assert_eq!(result, Err(JobError::Cancelled), "round {round}");
            } else {
                assert_eq!(result, Ok(1), "round {round}");
            }
        }
    }
}
