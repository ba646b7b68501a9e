//! Algorithm 1: segmented probabilistic streamlining on the simulated GPU.
//!
//! ```text
//! for every sample volume:
//!     Copy3DImagesToGPU()
//!     for i in 0..NumSegments:
//!         SendStartPointsToGPU()
//!         LaunchGPUKernel(NumThreads, NumIterations[i])
//!         ReadEndPointFromGPU()
//!         Reduction()            // CPU compacts unfinished pathways
//! ```
//!
//! One lane tracks one streamline; lanes are compacted between launches so
//! every launch's wavefronts are densely packed with live walkers.

use crate::connectivity::ConnectivityAccumulator;
use crate::field::SampleFieldView;
use crate::getter::{lane_rng, PosteriorSampleGetter};
use crate::probabilistic::{initial_direction, jittered_seed};
use crate::segmentation::SegmentationStrategy;
use crate::stop::StopStack;
use crate::walker::{StopReason, TrackingParams, Walker};
use tracto_gpu_sim::{Gpu, LaneStatus, SimKernel, TimingLedger};
use tracto_mcmc::SampleVolumes;
use tracto_rng::HybridTaus;
use tracto_volume::{Mask, Vec3};

/// Simulated size of one lane's transferable state (float3 position +
/// float3 direction + step counter + status word).
pub const LANE_BYTES: u64 = 32;

/// Bytes of one sample volume resident on the device: six f32 fields
/// (f₁, f₂, θ₁, φ₁, θ₂, φ₂) over the grid.
pub fn sample_volume_bytes(samples: &SampleVolumes) -> u64 {
    6 * samples.dims().len() as u64 * 4
}

/// One tracking lane: a walker plus its identity for post-compaction
/// bookkeeping and its private RNG stream (deterministic getters never
/// draw from it).
#[derive(Debug, Clone)]
pub struct TrackLane {
    walker: Walker,
    rng: HybridTaus,
}

/// The tracking kernel over one sample volume: a prebuilt direction
/// getter plus the stop-criterion stack, shared read-only across lanes.
struct TrackingKernel<'a> {
    getter: PosteriorSampleGetter<SampleFieldView<'a>>,
    step_length: f64,
    stop: StopStack<'a>,
}

impl<'a> TrackingKernel<'a> {
    fn new(field: SampleFieldView<'a>, params: &TrackingParams, mask: Option<&'a Mask>) -> Self {
        TrackingKernel {
            getter: PosteriorSampleGetter::new(field, params.interp, params.min_fraction),
            step_length: params.step_length,
            stop: StopStack::standard(params, mask),
        }
    }
}

impl SimKernel for TrackingKernel<'_> {
    type Lane = TrackLane;

    #[inline]
    fn step(&self, lane: &mut TrackLane) -> LaneStatus {
        match lane
            .walker
            .step_with(&self.getter, self.step_length, &self.stop, &mut lane.rng)
        {
            StopReason::Running => LaneStatus::Continue,
            _ => LaneStatus::Finished,
        }
    }
}

/// Seed submission ordering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeedOrdering {
    /// Seeds in natural (voxel linear) order — the default kernel mapping.
    Natural,
    /// Seeds ordered by descending fiber length of a pilot sample (the
    /// Fig. 4 "sorting the load" strategy, shown by the paper not to help).
    SortedByPilot,
}

/// Configuration + driver for GPU-simulated probabilistic streamlining.
#[derive(Clone)]
pub struct GpuTracker<'a> {
    /// Posterior sample stack.
    pub samples: &'a SampleVolumes,
    /// Tracking parameters.
    pub params: TrackingParams,
    /// Seed positions.
    pub seeds: Vec<Vec3>,
    /// Optional tracking mask.
    pub mask: Option<&'a Mask>,
    /// Segmentation strategy (the `NumIterations[]` array).
    pub strategy: SegmentationStrategy,
    /// Seed submission ordering.
    pub ordering: SeedOrdering,
    /// Sub-voxel jitter amplitude.
    pub jitter: f64,
    /// Run seed.
    pub run_seed: u64,
    /// Record per-voxel visits (costs lane memory; off for timing runs).
    pub record_visits: bool,
}

/// Result of a GPU-simulated tracking run.
#[derive(Debug, Clone)]
pub struct GpuTrackingReport {
    /// Timing breakdown (kernel / reduction / transfer — Table II columns).
    pub ledger: TimingLedger,
    /// `lengths_by_sample[s][seed]`: steps per original seed index.
    pub lengths_by_sample: Vec<Vec<u32>>,
    /// Submission order per sample (original seed indices) — thread loads in
    /// SIMD order are `order.map(|i| lengths[i])`.
    pub submission_orders: Vec<Vec<u32>>,
    /// Lanes still unfinished after each segment, per sample.
    pub per_segment_unfinished: Vec<Vec<usize>>,
    /// Total steps (Table II "Total fiber length").
    pub total_steps: u64,
    /// Visit counts when `record_visits` was set.
    pub connectivity: Option<ConnectivityAccumulator>,
}

impl GpuTrackingReport {
    /// Thread loads in submission (SIMD) order for one sample.
    pub fn thread_loads(&self, sample: usize) -> Vec<u32> {
        self.submission_orders[sample]
            .iter()
            .map(|&i| self.lengths_by_sample[sample][i as usize])
            .collect()
    }

    /// Longest fiber across the run.
    pub fn longest(&self) -> u32 {
        self.lengths_by_sample
            .iter()
            .flatten()
            .copied()
            .max()
            .unwrap_or(0)
    }
}

/// In-flight state of one sample volume being streamed through the device.
struct SampleStream<'a> {
    sample: usize,
    stream: usize,
    order: Vec<u32>,
    lanes: Vec<TrackLane>,
    kernel: TrackingKernel<'a>,
    unfinished_after_segment: Vec<usize>,
}

impl<'a> GpuTracker<'a> {
    /// Execute Algorithm 1 on `gpu` with `streams` sample volumes in flight
    /// at once. The device ledger is reset first so the report's timing
    /// covers exactly this run.
    ///
    /// Samples are processed in groups of `streams`, each pinned to its own
    /// stream lane on the device's [`StreamClock`](tracto_gpu_sim::StreamClock):
    /// within a group, segment rounds are issued round-robin so one
    /// sample's lane uploads, readbacks, and CPU compactions hide behind
    /// another sample's kernels — the Fig. 8 overlap. Device memory holds
    /// at most `streams` sample volumes at a time. With one stream every
    /// charge lands at its stream's ready time, so the clock is the plain
    /// sequential sum of Algorithm 1.
    ///
    /// Results do not depend on `streams`: streams reorder *time* only —
    /// every walker is stepped by the same code in the same per-lane order,
    /// and retirement writes are indexed by seed, never order-dependent.
    pub fn run(&self, gpu: &mut Gpu, streams: usize) -> GpuTrackingReport {
        gpu.reset();
        let num_samples = self.samples.num_samples();
        let n_seeds = self.seeds.len();
        let budgets = self.strategy.budgets(self.params.max_steps);
        let volume_bytes = sample_volume_bytes(self.samples);

        let mut lengths_by_sample = vec![vec![0u32; n_seeds]; num_samples];
        let mut submission_orders: Vec<Vec<u32>> = Vec::with_capacity(num_samples);
        let mut per_segment_unfinished: Vec<Vec<usize>> = Vec::with_capacity(num_samples);
        let mut connectivity = self
            .record_visits
            .then(|| ConnectivityAccumulator::new(self.samples.dims()));
        let mut total_steps = 0u64;
        let mut pilot_lengths: Option<Vec<u32>> = None;

        // Sorted ordering needs the pilot's lengths before any other
        // sample's submission order exists: the pilot runs as its own
        // group, the rest overlap.
        let mut groups: Vec<Vec<usize>> = Vec::new();
        let first_group = if self.ordering == SeedOrdering::SortedByPilot && num_samples > 0 {
            groups.push(vec![0]);
            1
        } else {
            0
        };
        for chunk in (first_group..num_samples)
            .collect::<Vec<_>>()
            .chunks(streams.max(1))
        {
            groups.push(chunk.to_vec());
        }

        for group in groups {
            let mut in_flight: Vec<SampleStream<'a>> = Vec::with_capacity(group.len());
            // Copy3DImagesToGPU() + SendStartPointsToGPU() for the whole
            // group, one stream lane per sample.
            for (slot, &sample) in group.iter().enumerate() {
                let lane_bytes = n_seeds as u64 * LANE_BYTES;
                gpu.device_alloc(volume_bytes + lane_bytes)
                    .unwrap_or_else(|err| {
                        panic!("{err} (shrink the grid, sample count, or stream count)")
                    });
                gpu.try_transfer_to_device_on(volume_bytes, slot)
                    .expect("transfer failed on a device with a fault plan");
                let order: Vec<u32> = match (&self.ordering, &pilot_lengths) {
                    (SeedOrdering::SortedByPilot, Some(pilot)) => {
                        let mut idx: Vec<u32> = (0..n_seeds as u32).collect();
                        idx.sort_by_key(|&i| std::cmp::Reverse(pilot[i as usize]));
                        idx
                    }
                    _ => (0..n_seeds as u32).collect(),
                };
                let field = SampleFieldView::new(self.samples, sample);
                let lanes: Vec<TrackLane> = order
                    .iter()
                    .map(|&seed_idx| {
                        let pos = jittered_seed(
                            self.seeds[seed_idx as usize],
                            self.run_seed,
                            sample,
                            seed_idx as usize,
                            self.jitter,
                        );
                        let dir = initial_direction(&field, pos, self.params.min_fraction)
                            .unwrap_or(Vec3::ZERO);
                        let walker = if self.record_visits {
                            Walker::new_recording(seed_idx, pos, dir)
                        } else {
                            Walker::new(seed_idx, pos, dir)
                        };
                        let mut lane = TrackLane {
                            walker,
                            rng: lane_rng(self.run_seed, sample, seed_idx as usize),
                        };
                        if dir == Vec3::ZERO {
                            // No eligible population at the seed: dead on
                            // arrival, finishes in the first iteration.
                            lane.walker.stop = StopReason::NoDirection;
                        }
                        lane
                    })
                    .collect();
                gpu.try_transfer_to_device_on(lanes.len() as u64 * LANE_BYTES, slot)
                    .expect("transfer failed on a device with a fault plan");
                in_flight.push(SampleStream {
                    sample,
                    stream: slot,
                    order,
                    lanes,
                    kernel: TrackingKernel::new(field, &self.params, self.mask),
                    unfinished_after_segment: Vec::with_capacity(budgets.len()),
                });
            }

            // Segment rounds, round-robin across the group's streams: the
            // launch of one sample overlaps the readback + reduction of
            // the previous one.
            for (seg_idx, &budget) in budgets.iter().enumerate() {
                let mut any = false;
                for st in in_flight.iter_mut() {
                    if st.lanes.is_empty() {
                        continue;
                    }
                    any = true;
                    if seg_idx > 0 {
                        // Re-upload the compacted start points.
                        gpu.try_transfer_to_device_on(
                            st.lanes.len() as u64 * LANE_BYTES,
                            st.stream,
                        )
                        .expect("transfer failed on a device with a fault plan");
                    }
                    gpu.try_launch_on(&st.kernel, &mut st.lanes, budget, st.stream)
                        .expect("launch failed on a device with a fault plan");
                    // ReadEndPointFromGPU(), then Reduction(): compact,
                    // retiring finished lanes.
                    gpu.try_transfer_to_host_on(st.lanes.len() as u64 * LANE_BYTES, st.stream)
                        .expect("transfer failed on a device with a fault plan");
                    gpu.host_reduction_on(st.lanes.len() as u64, st.stream);
                    let mut still_running = Vec::with_capacity(st.lanes.len());
                    for lane in st.lanes.drain(..) {
                        if lane.walker.alive() {
                            still_running.push(lane);
                        } else {
                            self.retire(
                                &lane,
                                st.sample,
                                &mut lengths_by_sample,
                                &mut connectivity,
                                &mut total_steps,
                            );
                        }
                    }
                    st.lanes = still_running;
                    st.unfinished_after_segment.push(st.lanes.len());
                }
                if !any {
                    break;
                }
            }

            for st in in_flight {
                // Budgets sum to max_steps, so every walker has terminated.
                debug_assert!(st.lanes.is_empty(), "lanes survived the full budget");
                gpu.device_free(volume_bytes + n_seeds as u64 * LANE_BYTES);
                if st.sample == 0 && self.ordering == SeedOrdering::SortedByPilot {
                    pilot_lengths = Some(lengths_by_sample[0].clone());
                }
                submission_orders.push(st.order);
                per_segment_unfinished.push(st.unfinished_after_segment);
            }
        }

        GpuTrackingReport {
            ledger: *gpu.ledger(),
            lengths_by_sample,
            submission_orders,
            per_segment_unfinished,
            total_steps,
            connectivity,
        }
    }

    fn retire(
        &self,
        lane: &TrackLane,
        sample: usize,
        lengths_by_sample: &mut [Vec<u32>],
        connectivity: &mut Option<ConnectivityAccumulator>,
        total_steps: &mut u64,
    ) {
        let seed = lane.walker.seed_id as usize;
        lengths_by_sample[sample][seed] = lane.walker.steps;
        *total_steps += lane.walker.steps as u64;
        if let Some(acc) = connectivity.as_mut() {
            if lane.walker.path.is_empty() {
                acc.add_empty();
            } else {
                acc.add_path(&lane.walker.path);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::InterpMode;
    use crate::probabilistic::{CpuTracker, RecordMode};
    use tracto_gpu_sim::DeviceConfig;
    use tracto_volume::Dim3;

    fn x_samples(dims: Dim3, n: usize) -> SampleVolumes {
        let mut sv = SampleVolumes::zeros(dims, n);
        for c in dims.iter() {
            for s in 0..n {
                sv.f1.set(c, s, 0.6);
                sv.th1.set(c, s, std::f64::consts::FRAC_PI_2 as f32);
                sv.ph1.set(c, s, 0.0);
            }
        }
        sv
    }

    fn params() -> TrackingParams {
        TrackingParams {
            step_length: 0.5,
            angular_threshold: 0.8,
            max_steps: 200,
            min_fraction: 0.05,
            interp: InterpMode::Nearest,
        }
    }

    fn small_gpu() -> Gpu {
        Gpu::new(DeviceConfig {
            wavefront_size: 4,
            num_compute_units: 2,
            waves_per_cu: 2,
            ..DeviceConfig::radeon_5870()
        })
    }

    fn tracker<'a>(
        sv: &'a SampleVolumes,
        seeds: Vec<Vec3>,
        strategy: SegmentationStrategy,
    ) -> GpuTracker<'a> {
        GpuTracker {
            samples: sv,
            params: params(),
            seeds,
            mask: None,
            strategy,
            ordering: SeedOrdering::Natural,
            jitter: 0.4,
            run_seed: 5,
            record_visits: false,
        }
    }

    fn line_seeds(dims: Dim3) -> Vec<Vec3> {
        (0..dims.nx)
            .map(|i| Vec3::new(i as f64, 2.0, 2.0))
            .collect()
    }

    #[test]
    fn gpu_lengths_match_cpu_reference() {
        let dims = Dim3::new(12, 6, 6);
        let sv = x_samples(dims, 3);
        let seeds = line_seeds(dims);
        let gpu_run =
            tracker(&sv, seeds.clone(), SegmentationStrategy::paper_b()).run(&mut small_gpu(), 1);
        let cpu = CpuTracker {
            samples: &sv,
            params: params(),
            seeds,
            mask: None,
            jitter: 0.4,
            run_seed: 5,
            bidirectional: false,
        }
        .run_serial(RecordMode::LengthsOnly);
        assert_eq!(
            gpu_run.lengths_by_sample, cpu.lengths_by_sample,
            "bit-identical results regardless of segmentation (the paper's CPU≡GPU check)"
        );
        assert_eq!(gpu_run.total_steps, cpu.total_steps);
    }

    #[test]
    fn results_invariant_to_strategy() {
        let dims = Dim3::new(12, 6, 6);
        let sv = x_samples(dims, 2);
        let seeds = line_seeds(dims);
        let runs: Vec<_> = [
            SegmentationStrategy::Single,
            SegmentationStrategy::Uniform(10),
            SegmentationStrategy::every_step(),
            SegmentationStrategy::paper_b(),
            SegmentationStrategy::paper_c(),
        ]
        .into_iter()
        .map(|s| tracker(&sv, seeds.clone(), s).run(&mut small_gpu(), 1))
        .collect();
        for r in &runs[1..] {
            assert_eq!(r.lengths_by_sample, runs[0].lengths_by_sample);
        }
    }

    #[test]
    fn finer_segmentation_more_launches_more_transfer() {
        let dims = Dim3::new(12, 6, 6);
        let sv = x_samples(dims, 2);
        let seeds = line_seeds(dims);
        let single =
            tracker(&sv, seeds.clone(), SegmentationStrategy::Single).run(&mut small_gpu(), 1);
        let every = tracker(&sv, seeds.clone(), SegmentationStrategy::every_step())
            .run(&mut small_gpu(), 1);
        assert!(every.ledger.launches > single.ledger.launches);
        assert!(every.ledger.transfer_s > single.ledger.transfer_s);
        assert!(every.ledger.reduction_s > single.ledger.reduction_s);
        // And the single launch wastes more SIMD cycles.
        assert!(single.ledger.simd_utilization() <= every.ledger.simd_utilization() + 1e-12);
    }

    #[test]
    fn unfinished_counts_decrease() {
        let dims = Dim3::new(12, 6, 6);
        let sv = x_samples(dims, 1);
        let seeds = line_seeds(dims);
        let run = tracker(&sv, seeds, SegmentationStrategy::paper_b()).run(&mut small_gpu(), 1);
        let counts = &run.per_segment_unfinished[0];
        for w in counts.windows(2) {
            assert!(
                w[1] <= w[0],
                "unfinished counts must be non-increasing: {counts:?}"
            );
        }
        assert_eq!(*counts.last().unwrap(), 0);
    }

    #[test]
    fn sorted_ordering_uses_pilot() {
        let dims = Dim3::new(12, 6, 6);
        let sv = x_samples(dims, 3);
        let seeds = line_seeds(dims);
        let mut t = tracker(&sv, seeds, SegmentationStrategy::Single);
        t.ordering = SeedOrdering::SortedByPilot;
        let run = t.run(&mut small_gpu(), 1);
        // Sample 0 is the pilot: natural order.
        assert_eq!(run.submission_orders[0], (0..12).collect::<Vec<u32>>());
        // Later samples are sorted by descending pilot length.
        let pilot = &run.lengths_by_sample[0];
        let order1 = &run.submission_orders[1];
        for w in order1.windows(2) {
            assert!(
                pilot[w[0] as usize] >= pilot[w[1] as usize],
                "submission not sorted by pilot: {order1:?} lens {pilot:?}"
            );
        }
        // Lengths are still reported per original seed.
        assert_eq!(run.lengths_by_sample[1].len(), 12);
    }

    #[test]
    fn thread_loads_permuted_view() {
        let dims = Dim3::new(8, 6, 6);
        let sv = x_samples(dims, 1);
        let seeds = line_seeds(dims);
        let run = tracker(&sv, seeds, SegmentationStrategy::Single).run(&mut small_gpu(), 1);
        let loads = run.thread_loads(0);
        assert_eq!(loads, run.lengths_by_sample[0], "natural order is identity");
    }

    #[test]
    fn connectivity_when_recording() {
        let dims = Dim3::new(10, 6, 6);
        let sv = x_samples(dims, 2);
        let mut t = tracker(
            &sv,
            vec![Vec3::new(0.0, 2.0, 2.0)],
            SegmentationStrategy::paper_b(),
        );
        t.record_visits = true;
        t.jitter = 0.0;
        let run = t.run(&mut small_gpu(), 1);
        let acc = run.connectivity.unwrap();
        assert_eq!(acc.total_streamlines(), 2);
        assert!(acc.probability(tracto_volume::Ijk::new(5, 2, 2)) > 0.9);
    }

    #[test]
    fn ledger_charges_sample_volume_uploads() {
        let dims = Dim3::new(8, 6, 6);
        let sv = x_samples(dims, 3);
        let run =
            tracker(&sv, line_seeds(dims), SegmentationStrategy::Single).run(&mut small_gpu(), 1);
        let expected_volume_bytes = 3 * sample_volume_bytes(&sv);
        assert!(run.ledger.bytes_h2d >= expected_volume_bytes);
    }

    #[test]
    fn streamed_run_bit_identical_to_serialized() {
        let dims = Dim3::new(12, 6, 6);
        let sv = x_samples(dims, 5);
        let seeds = line_seeds(dims);
        let mut t = tracker(&sv, seeds, SegmentationStrategy::paper_b());
        t.record_visits = true;
        let serial = t.run(&mut small_gpu(), 1);
        for streams in [2usize, 3, 8] {
            let streamed = t.run(&mut small_gpu(), streams);
            assert_eq!(streamed.lengths_by_sample, serial.lengths_by_sample);
            assert_eq!(streamed.total_steps, serial.total_steps);
            assert_eq!(streamed.submission_orders, serial.submission_orders);
            assert_eq!(
                streamed.per_segment_unfinished,
                serial.per_segment_unfinished
            );
            let (a, b) = (
                serial.connectivity.as_ref().unwrap(),
                streamed.connectivity.as_ref().unwrap(),
            );
            assert_eq!(a.total_streamlines(), b.total_streamlines());
            for c in dims.iter() {
                assert_eq!(a.count(c), b.count(c));
            }
        }
    }

    #[test]
    fn streamed_run_overlaps_host_work() {
        let dims = Dim3::new(12, 6, 6);
        let sv = x_samples(dims, 4);
        let seeds = line_seeds(dims);
        let t = tracker(&sv, seeds, SegmentationStrategy::paper_b());
        let mut g_serial = small_gpu();
        let mut g_streamed = small_gpu();
        t.run(&mut g_serial, 1);
        t.run(&mut g_streamed, 2);
        assert!(g_streamed.overlap_saved_s() > 0.0);
        assert!(
            g_streamed.clock_s() < g_serial.clock_s(),
            "streamed {0} vs serialized {1}",
            g_streamed.clock_s(),
            g_serial.clock_s()
        );
    }

    #[test]
    fn streamed_sorted_ordering_still_runs_pilot_first() {
        let dims = Dim3::new(12, 6, 6);
        let sv = x_samples(dims, 4);
        let seeds = line_seeds(dims);
        let mut t = tracker(&sv, seeds, SegmentationStrategy::Single);
        t.ordering = SeedOrdering::SortedByPilot;
        let serial = t.run(&mut small_gpu(), 1);
        let streamed = t.run(&mut small_gpu(), 3);
        assert_eq!(streamed.submission_orders, serial.submission_orders);
        assert_eq!(streamed.lengths_by_sample, serial.lengths_by_sample);
    }

    #[test]
    fn longest_reported() {
        let dims = Dim3::new(12, 6, 6);
        let sv = x_samples(dims, 1);
        let run =
            tracker(&sv, line_seeds(dims), SegmentationStrategy::Single).run(&mut small_gpu(), 1);
        assert_eq!(
            run.longest(),
            run.lengths_by_sample
                .iter()
                .flatten()
                .copied()
                .max()
                .unwrap()
        );
        assert!(run.longest() > 0);
    }
}
