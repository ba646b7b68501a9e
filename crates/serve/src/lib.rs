//! **tracto-serve** — a batched, cache-backed tractography job service.
//!
//! The paper treats one tractography run as one program invocation. This
//! crate wraps the reproduction's pipeline in a multi-client job service
//! built around two observations:
//!
//! 1. **Step 1 is cacheable.** Voxelwise MCMC is deterministic in
//!    `(dataset, priors, chain schedule, seed)`, so its sample volumes are
//!    keyed by a content hash and held in a byte-bounded LRU
//!    ([`SampleCache`]) — a repeated tracking request skips estimation
//!    entirely.
//! 2. **Step 2 batches across clients.** Tracking lanes are independent,
//!    so pending jobs merge into one lane population per launch sequence
//!    (continuous batching, [`run_batch`]); the compaction boundaries the
//!    paper's segmentation already requires are where per-job results are
//!    demultiplexed back out. Results are bit-identical to running each
//!    job alone through [`tracto::Pipeline`].
//!
//! Every job — estimation or tracking, local dataset or phantom recipe —
//! enters through one door, [`TractoService::submit`], as a [`JobSpec`]:
//!
//! ```no_run
//! use std::sync::Arc;
//! use tracto::pipeline::PipelineConfig;
//! use tracto::phantom::datasets::DatasetSpec;
//! use tracto_serve::{JobSpec, ServiceConfig, TractoService};
//!
//! let service = TractoService::start(ServiceConfig::builder().build().unwrap());
//! let dataset = Arc::new(DatasetSpec::paper_dataset1().scaled(0.2).build());
//! let ticket = service.submit(JobSpec::track(dataset, PipelineConfig::fast()));
//! let result = ticket.wait_track().unwrap();
//! println!("{} total steps (batched with {} jobs)",
//!     result.tracking.total_steps, result.batch_jobs);
//! println!("{}", service.shutdown());
//! ```
//!
//! The same service can serve other processes: [`SocketServer`] exposes it
//! over the `tracto-proto` wire protocol (Unix socket by default, TCP on
//! request), and results are bit-identical to in-process submission.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod cache;
pub mod config;
mod events;
pub mod fleet;
pub mod job;
pub mod journal;
pub mod listener;
pub mod metrics;
mod reactor;
pub mod service;
pub mod spec;
pub mod uploads;

pub use batch::{run_batch, run_batch_streamed, BatchJob, BatchReport};
pub use cache::{
    sample_key, sample_key_parts, CacheStats, DiskSampleCache, EvictionPolicy, SampleCache,
    SampleKey,
};
pub use config::{ServiceConfig, ServiceConfigBuilder};
pub use fleet::{Fleet, FleetConfig, HashRing, ReplicaStore};
pub use job::{EstimateResult, JobError, JobId, JobOutput, Ticket, TrackResult};
pub use journal::{replay_text, JobJournal, RecoveredJob, Recovery};
pub use listener::SocketServer;
pub use metrics::MetricsSnapshot;
pub use service::TractoService;
pub use spec::{materialize_dataset, DatasetSource, JobSpec, Work};
pub use uploads::UploadStore;

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Lock `m`, recovering the guard when a panicking holder poisoned it: one
/// panicked job must not wedge the service's shared state.
fn lock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::lock;
    use std::sync::Mutex;

    #[test]
    fn mutex_guards_exclusive_access() {
        let m = Mutex::new(0u64);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| (0..1000).for_each(|_| *lock(&m) += 1));
            }
        });
        assert_eq!(*lock(&m), 4000);
    }

    #[test]
    fn a_poisoned_lock_still_hands_out_its_guard() {
        let m = Mutex::new(1);
        std::thread::scope(|s| {
            let holder = s.spawn(|| {
                let _guard = lock(&m);
                panic!("the holder panics");
            });
            assert!(holder.join().is_err());
        });
        assert!(m.is_poisoned());
        *lock(&m) += 1;
        assert_eq!(*lock(&m), 2);
    }
}
