//! **tracto** — probabilistic brain fiber tractography: Bayesian MCMC
//! parameter estimation plus probabilistic streamlining, on a CPU reference
//! and on a simulated GPU.
//!
//! This is the top-level crate of the reproduction of *"Probabilistic Brain
//! Fiber Tractography on GPUs"* (Xu et al., IPDPS Workshops 2012). The
//! pipeline follows the paper's Fig. 1:
//!
//! 1. **Local parameter estimation** ([`estimation`]): for every
//!    white-matter voxel, Metropolis–Hastings sampling of the
//!    ball-and-two-sticks posterior yields six 4-D sample volumes
//!    `(f₁, f₂, θ₁, θ₂, φ₁, φ₂)`.
//! 2. **Global connectivity estimation** ([`tracking::gpu`],
//!    [`tracking::probabilistic`]): probabilistic streamlining runs
//!    deterministic tracking once per sample volume per seed, with the
//!    paper's increasing-interval kernel segmentation on the simulated GPU.
//!
//! ```no_run
//! use tracto::prelude::*;
//!
//! let dataset = DatasetSpec::paper_dataset1().scaled(0.2).light_protocol().build();
//! let pipeline = Pipeline::new(PipelineConfig::fast());
//! let outcome = pipeline.run(&dataset, Backend::GpuSim(DeviceConfig::radeon_5870()));
//! println!("{} streamlines, {:.2} simulated s",
//!     outcome.tracking.total_steps, outcome.tracking_ledger.map(|l| l.total_s()).unwrap_or(0.0));
//! ```
//!
//! The subsystem crates are re-exported under short names: [`volume`],
//! [`rng`], [`phantom`], [`diffusion`], [`mcmc`], [`gpu_sim`],
//! [`tracking`], [`stats`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod estimation;
pub mod loaded;
pub mod pipeline;
pub mod synthetic;

pub use estimation::{run_mcmc_gpu, run_mcmc_multi, McmcGpuReport, PersistentCheckpoint};
pub use pipeline::{Backend, Pipeline, PipelineConfig, PipelineOutcome};

pub use tracto_diffusion as diffusion;
pub use tracto_gpu_sim as gpu_sim;
pub use tracto_mcmc as mcmc;
pub use tracto_phantom as phantom;
pub use tracto_rng as rng;
pub use tracto_stats as stats;
pub use tracto_tracking as tracking;
pub use tracto_volume as volume;

/// Convenient glob-import surface for examples and tests.
pub mod prelude {
    pub use crate::estimation::{run_mcmc_gpu, run_mcmc_multi, McmcGpuReport};
    pub use crate::pipeline::{Backend, Pipeline, PipelineConfig, PipelineOutcome};
    pub use tracto_diffusion::{Acquisition, BallSticksPosterior, PriorConfig};
    pub use tracto_gpu_sim::{DeviceConfig, Gpu, TimingLedger};
    pub use tracto_mcmc::{ChainConfig, SampleVolumes, VoxelEstimator};
    pub use tracto_phantom::datasets::{self, Dataset, DatasetSpec};
    pub use tracto_tracking::field::InterpMode;
    pub use tracto_tracking::getter::Modality;
    pub use tracto_tracking::gpu::{GpuTracker, SeedOrdering};
    pub use tracto_tracking::probabilistic::{seeds_from_mask, CpuTracker, RecordMode};
    pub use tracto_tracking::walker::TrackingParams;
    pub use tracto_tracking::SegmentationStrategy;
    pub use tracto_volume::{Dim3, Ijk, Mask, Vec3, Volume3, Volume4};
}
