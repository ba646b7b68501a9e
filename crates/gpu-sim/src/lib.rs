//! Wavefront-level SIMD GPU execution simulator.
//!
//! The paper's contribution is an *execution-scheduling* result: because
//! GPU wavefronts run in lockstep, a kernel whose lanes need wildly
//! different iteration counts (streamlines of exponentially distributed
//! length) wastes hardware, and the fix — segmenting the kernel into
//! launches with increasing iteration budgets — trades that waste against
//! kernel-launch overhead and PCIe transfer cost.
//!
//! No GPU is available in this reproduction, so this crate builds the
//! substrate that exposes exactly those quantities:
//!
//! * [`DeviceConfig`] — wavefront size, compute-unit count, per-iteration
//!   lane cost, kernel-launch overhead, and a PCIe latency/bandwidth model,
//!   with defaults calibrated to the paper's AMD Radeon 5870;
//! * [`SimKernel`] / [`Gpu::launch`] — kernels are Rust closures over
//!   per-lane state, executed **for real** (in parallel via rayon, one task
//!   per wavefront), while simulated time is charged per wavefront as
//!   `max(lane iterations)` — the lockstep rule;
//! * [`TimingLedger`] — accumulated kernel / host-reduction / transfer time,
//!   the three columns of the paper's Tables II and IV;
//! * [`schedule`] — an event trace of the run (the paper's Figs. 3 and 7);
//! * [`stream`] — the CPU–GPU overlap the paper sketches in Fig. 8 as
//!   future work, charged *online* on the simulated clock: every
//!   launch/transfer/reduction names a stream, and per-resource
//!   availability (GPU, DMA link, host CPU) decides how much of it hides
//!   behind other streams' work.
//!
//! Because lanes are mutated by real Rust code, results are bit-identical to
//! a serial CPU execution of the same algorithm — the property the paper
//! demonstrates in its Fig. 11/12 CPU-vs-GPU comparison — while the timing
//! model yields the load-balance economics the tables measure.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod device;
mod kernel;
mod ledger;

pub mod fault;
pub mod multi;
pub mod schedule;
pub mod stream;

pub use device::{DeviceConfig, PcieModel};
pub use fault::{DeviceHealth, FaultEvent, FaultKind, FaultPlan};
pub use kernel::{Gpu, LaneStatus, LaunchStats, SimKernel};
pub use ledger::TimingLedger;
pub use multi::MultiGpu;
pub use stream::{ChargeSpan, StreamClock};
