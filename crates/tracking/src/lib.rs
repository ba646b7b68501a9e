//! Deterministic and probabilistic streamline tracking.
//!
//! Step 2 of the paper's pipeline: probabilistic streamlining is
//! "deterministic streamlining invoked for many times" — once per posterior
//! sample volume per seed — after which connectivity is the fraction of
//! streamlines that visit a target voxel.
//!
//! Layout:
//!
//! * [`field`] — the [`field::OrientationField`]
//!   abstraction over per-voxel stick populations (precomputed posterior
//!   samples, ground-truth fields, closures for tests) plus direction selection with
//!   multi-fiber "maintain orientation" semantics and nearest/trilinear
//!   interpolation;
//! * [`getter`] — the modality layer: the object-safe
//!   [`getter::DirectionGetter`] trait with the posterior sampler,
//!   tensorline, and analytic tiers as interchangeable implementations,
//!   plus the [`getter::Modality`] selector threaded through the service;
//! * [`stop`] — the composable [`stop::StopStack`] of termination
//!   criteria (max steps, curvature, bounds, stop/exclusion masks with
//!   percentile thresholds);
//! * [`walker`] — one streamline walker: stepping through a getter under
//!   a stop stack (plus the fused legacy fast path);
//! * [`deterministic`] — whole-streamline tracking from a seed;
//! * [`probabilistic`] — the serial CPU reference probabilistic-streamlining
//!   driver (the Table II baseline and the oracle for the GPU tracker);
//! * [`analytic`] — the closed-form fast tier: posterior-mean collapse,
//!   rescaled voxel-hop parameters, and the no-streamline
//!   local-connectivity map (after Cieslak et al.);
//! * [`segmentation`] — the paper's segmentation strategies: `A_k` uniform
//!   segments, the increasing-interval arrays `B` and `C`, single-launch
//!   `A_MaxStep`, per-step `A_1`, and load-sorted variants (Fig. 4);
//! * [`gpu`] — Algorithm 1: the segmented tracking loop on the simulated
//!   GPU, with per-segment compaction, the full timing breakdown, and
//!   streamline export — the production tracker;
//! * [`tensorline`] — the classical deterministic single-tensor baseline;
//! * [`connectivity`] — visit counting and the connectivity matrix;
//! * [`export`] — streamline polyline export (CSV) for the biological
//!   figures.
//!
//! Import the working set in one line with [`prelude`]. Direction
//! selection (`select_direction`, `InterpMode`) lives behind the getter
//! surface now; reach it via [`prelude`] or the [`field`] module rather
//! than crate-root re-exports.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analytic;
pub mod cluster;
pub mod connectivity;
pub mod deterministic;
pub mod export;
pub mod field;
pub mod getter;
pub mod gpu;
pub mod probabilistic;
pub mod resample;
pub mod segmentation;
pub mod stop;
pub mod tensorline;
pub mod walker;

pub use connectivity::ConnectivityAccumulator;
pub use field::{OrientationField, SampleField, SampleFieldView};
pub use getter::{DirectionGetter, Modality};
pub use gpu::{GpuTracker, GpuTrackingReport};
pub use probabilistic::{CpuTracker, TrackingOutput};
pub use segmentation::SegmentationStrategy;
pub use stop::{StopCriterion, StopStack};
pub use walker::{Recording, StopReason, TrackingParams, Walker};

/// The one-line import for tracking callers: modality surface, stop
/// criteria, trackers, and the parameter/result types.
pub mod prelude {
    pub use crate::analytic::{
        analytic_params, local_connectivity, mean_posterior, AnalyticGetter,
    };
    pub use crate::connectivity::ConnectivityAccumulator;
    pub use crate::deterministic::{track_streamline, track_streamline_with, Streamline};
    pub use crate::field::{
        select_direction, FnField, InterpMode, OrientationField, SampleField, SampleFieldView,
    };
    pub use crate::getter::{
        lane_rng, DirectionGetter, Modality, PosteriorSampleGetter, TensorlineGetter,
    };
    pub use crate::gpu::{GpuTracker, GpuTrackingReport, SeedOrdering};
    pub use crate::probabilistic::{seeds_from_mask, CpuTracker, RecordMode, TrackingOutput};
    pub use crate::segmentation::SegmentationStrategy;
    pub use crate::stop::{mask_from_percentile, percentile_threshold, StopCriterion, StopStack};
    pub use crate::tensorline::TensorField;
    pub use crate::walker::{Recording, StopReason, TrackingParams, Walker};
}
