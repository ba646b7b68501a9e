//! The job-event bus: how lifecycle transitions reach subscribers.
//!
//! The service publishes an [`Event`] at each transition the journal
//! already records — `admitted`, `checkpointed`, and the terminal
//! `completed`/`cancelled`/`failed` — and the socket reactor drains the
//! bus and fans events out to subscribed connections. Publication is a
//! no-op until a front end [`attach`](EventBus::attach)es, so an
//! in-process-only service pays one atomic load per transition and the
//! queue cannot grow without a consumer.
//!
//! Every publish also unparks the reactor's IO thread (registered with
//! [`set_waker`](EventBus::set_waker)), so a pushed event leaves on the
//! next scan instead of waiting out the reactor's idle backoff.
//!
//! The queue is bounded: if the reactor stalls long enough for
//! [`BUS_CAP`] events to pile up, the oldest are dropped (counted in
//! [`dropped`](EventBus::dropped)) rather than growing without bound —
//! subscribers are a monitoring surface, not a durability surface; the
//! journal remains the record of truth.

use crate::job::{JobError, JobOutput};
use crate::lock;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::thread::Thread;
use tracto_proto::{Event, JobState, Outcome};

/// Most events held while the reactor is between drains.
pub(crate) const BUS_CAP: usize = 65_536;

/// A bounded, attach-gated queue of job lifecycle events.
#[derive(Default)]
pub(crate) struct EventBus {
    attached: AtomicBool,
    seq: AtomicU64,
    dropped: AtomicU64,
    queue: Mutex<VecDeque<Event>>,
    /// The thread that drains the queue, unparked on every publish.
    waker: Mutex<Option<Thread>>,
}

impl EventBus {
    pub(crate) fn new() -> Self {
        EventBus::default()
    }

    /// Start buffering published events (called by the socket front end).
    pub(crate) fn attach(&self) {
        self.attached.store(true, Ordering::SeqCst);
    }

    /// Stop buffering, discard anything queued, and forget the waker.
    pub(crate) fn detach(&self) {
        self.attached.store(false, Ordering::SeqCst);
        lock(&self.queue).clear();
        *lock(&self.waker) = None;
    }

    /// Register the thread that drains the bus (the reactor's IO thread).
    pub(crate) fn set_waker(&self, thread: Thread) {
        *lock(&self.waker) = Some(thread);
    }

    /// Unpark the draining thread, if one is registered: new work for it
    /// that is not a socket byte (an event, a worker's answer, a stop).
    pub(crate) fn wake(&self) {
        if let Some(thread) = &*lock(&self.waker) {
            thread.unpark();
        }
    }

    /// Whether a front end is consuming events. Callers with a nontrivial
    /// payload to build (a full terminal [`JobState`]) should check this
    /// first; `publish` itself also gates.
    pub(crate) fn attached(&self) -> bool {
        self.attached.load(Ordering::SeqCst)
    }

    /// Allocate the next event sequence number. Also used for synthetic
    /// terminal events pushed at subscribe time, so every event a client
    /// sees carries a server-unique, monotonically increasing `seq`.
    pub(crate) fn next_seq(&self) -> u64 {
        self.seq.fetch_add(1, Ordering::Relaxed)
    }

    /// Publish one transition and wake the drainer. No-op while detached.
    pub(crate) fn publish(&self, job: u64, kind: &str, state: JobState) {
        if !self.attached.load(Ordering::SeqCst) {
            return;
        }
        let ev = Event {
            seq: self.next_seq(),
            job,
            kind: kind.to_string(),
            state,
        };
        let mut q = lock(&self.queue);
        if q.len() >= BUS_CAP {
            q.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        q.push_back(ev);
        drop(q);
        self.wake();
    }

    /// Move every queued event into `into` (oldest first).
    pub(crate) fn drain(&self, into: &mut Vec<Event>) {
        let mut q = lock(&self.queue);
        into.extend(q.drain(..));
    }

    /// Events discarded because the queue was full.
    #[allow(dead_code)]
    pub(crate) fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

/// The event `kind` string for a settled job result.
pub(crate) fn terminal_kind(stored: &Result<JobOutput, JobError>) -> &'static str {
    match stored {
        Ok(_) => "completed",
        Err(JobError::Cancelled) => "cancelled",
        Err(_) => "failed",
    }
}

/// The wire `kind` string for a job failure. Typed causes use their
/// [`ErrorKind`](tracto_trace::ErrorKind) display name so the client can
/// re-type them.
pub(crate) fn error_kind(err: &JobError) -> String {
    match err {
        JobError::QueueFull => "capacity".into(),
        JobError::Cancelled => "cancelled".into(),
        JobError::DeadlineExceeded => "deadline".into(),
        JobError::ShuttingDown => "shutdown".into(),
        JobError::Failed(cause) => cause.kind().to_string(),
    }
}

/// Flatten a ticket result into its wire form — shared by the status
/// path and the event bus so a pushed terminal event carries exactly the
/// state a `status` poll would have returned.
pub(crate) fn job_state(result: Option<Result<JobOutput, JobError>>) -> JobState {
    match result {
        None => JobState::Pending,
        Some(Err(e)) => JobState::Failed {
            kind: error_kind(&e),
            message: e.to_string(),
        },
        Some(Ok(JobOutput::Estimate(est))) => JobState::Done(Outcome::Estimate {
            voxels: est.voxels as u64,
            cache_hit: est.cache_hit,
        }),
        Some(Ok(JobOutput::Track(track))) => {
            let streamlines = track
                .tracking
                .lengths_by_sample
                .iter()
                .map(|s| s.len() as u64)
                .sum();
            JobState::Done(Outcome::Track {
                total_steps: track.tracking.total_steps,
                streamlines,
                lengths_digest: tracto_proto::lengths_digest(&track.tracking.lengths_by_sample),
                cache_hit: track.cache_hit,
                batch_jobs: track.batch_jobs as u64,
                batch_lanes: track.batch_lanes as u64,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detached_bus_buffers_nothing() {
        let bus = EventBus::new();
        bus.publish(1, "admitted", JobState::Pending);
        let mut out = Vec::new();
        bus.drain(&mut out);
        assert!(out.is_empty(), "publish before attach is a no-op");
    }

    #[test]
    fn attached_bus_orders_and_numbers_events() {
        let bus = EventBus::new();
        bus.attach();
        bus.publish(1, "admitted", JobState::Pending);
        bus.publish(1, "completed", JobState::Pending);
        bus.publish(2, "admitted", JobState::Pending);
        let mut out = Vec::new();
        bus.drain(&mut out);
        assert_eq!(out.len(), 3);
        assert!(out.windows(2).all(|w| w[0].seq < w[1].seq));
        assert_eq!(out[0].kind, "admitted");
        assert_eq!(out[1].job, 1);
        bus.detach();
        bus.publish(3, "admitted", JobState::Pending);
        out.clear();
        bus.drain(&mut out);
        assert!(out.is_empty(), "detach discards and gates");
    }

    #[test]
    fn full_bus_drops_oldest_and_counts() {
        let bus = EventBus::new();
        bus.attach();
        for i in 0..(BUS_CAP + 3) as u64 {
            bus.publish(i, "admitted", JobState::Pending);
        }
        let mut out = Vec::new();
        bus.drain(&mut out);
        assert_eq!(out.len(), BUS_CAP);
        assert_eq!(bus.dropped(), 3);
        assert_eq!(out[0].job, 3, "oldest three were dropped");
    }

    #[test]
    fn publish_unparks_the_registered_waker() {
        use std::time::{Duration, Instant};
        let bus = EventBus::new();
        bus.attach();
        let parked = std::thread::spawn(|| {
            let t0 = Instant::now();
            // An unpark that lands before the park is kept as a token, so
            // this returns early either way — unless nobody wakes it.
            std::thread::park_timeout(Duration::from_secs(30));
            t0.elapsed()
        });
        bus.set_waker(parked.thread().clone());
        bus.publish(1, "admitted", JobState::Pending);
        assert!(parked.join().unwrap() < Duration::from_secs(10));
    }

    #[test]
    fn terminal_kinds_match_job_errors() {
        assert_eq!(terminal_kind(&Err(JobError::Cancelled)), "cancelled");
        assert_eq!(terminal_kind(&Err(JobError::DeadlineExceeded)), "failed");
        assert_eq!(error_kind(&JobError::DeadlineExceeded), "deadline");
    }
}
