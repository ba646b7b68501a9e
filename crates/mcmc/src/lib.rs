//! Metropolis–Hastings MCMC for voxelwise diffusion parameter estimation.
//!
//! This is Step 1 of the paper's pipeline (Fig. 2): for every valid
//! (white-matter) voxel, sample the posterior of the ball-and-two-sticks
//! parameters with a per-parameter Metropolis–Hastings sweep:
//!
//! * each loop performs one MH step per parameter (the paper: "the MH step
//!   is repeated NumParameters times");
//! * proposals are zero-mean Gaussian perturbations `N(0, σ²ⱼ)`;
//! * every `K` loops the proposal σs are adapted so acceptance stays in the
//!   25–50 % band the paper prescribes;
//! * after `NumBurnIn` loops, every `L`-th state is recorded until
//!   `NumSamples` samples exist, so
//!   `NumLoops = NumBurnIn + NumSamples × L`.
//!
//! The module split mirrors the paper's architecture: [`mh`] is the generic
//! sampler machinery (one simulated GPU lane's worth of state), [`cached`]
//! runs a wavefront of chains in lockstep on a structure-of-arrays
//! posterior cache (per-parameter proposals invalidate only the
//! per-measurement terms they touch, bit-identical to the full
//! evaluation), [`chain`] drives one voxel's chain,
//! [`voxelwise`] fans chains out across the brain volume and assembles the
//! six 4-D sample volumes of Fig. 1, and [`diagnostics`] provides
//! acceptance/ESS checks.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cached;
pub mod chain;
pub mod checkpoint;
pub mod diagnostics;
#[cfg(test)]
mod gibbs;
pub mod mh;
pub mod pointest;
pub mod voxelwise;

pub use cached::{WavefrontBallSticks, WavefrontLane};
pub use chain::{ChainConfig, ChainOutput};
pub use checkpoint::{CheckpointPolicy, CheckpointStore, SnapshotLoad, CHECKPOINT_LANE_BYTES};
pub use mh::{AdaptScheme, MhSampler, MhState, Target};
pub use pointest::{PointEstimate, PointEstimator};
pub use voxelwise::{SampleVolumes, VoxelEstimator};
