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
//! every launch's wavefronts are densely packed with live walkers. This is
//! the production Step-2 driver: it hands back lengths, connectivity, and
//! (in [`RecordMode::Streamlines`]) the exported fibers themselves, the
//! way GPUStreamlines' tracker returns its streamlines chunk by chunk.

use crate::connectivity::ConnectivityAccumulator;
use crate::deterministic::Streamline;
use crate::field::SampleField;
use crate::probabilistic::{initial_direction, jittered_seed, RecordMode, TrackingOutput};
use crate::segmentation::SegmentationStrategy;
use crate::walker::{Recording, StopReason, TrackingParams, Walker};
use tracto_gpu_sim::{Gpu, LaneStatus, SimKernel, TimingLedger};
use tracto_mcmc::SampleVolumes;
use tracto_volume::{Mask, Vec3};

/// Simulated size of one lane's transferable state (float3 position +
/// float3 direction + step counter + status word).
pub const LANE_BYTES: u64 = 32;

/// Simulated size of one exported streamline point (float3).
pub const POINT_BYTES: u64 = 12;

/// Bytes of one sample volume resident on the device: six f32 fields
/// (f₁, f₂, θ₁, φ₁, θ₂, φ₂) over the grid.
pub fn sample_volume_bytes(samples: &SampleVolumes) -> u64 {
    6 * samples.dims().len() as u64 * 4
}

/// The tracking kernel over one sample volume: the fused walker step over
/// the sample's precomputed field, the tracking parameters and the mask,
/// shared read-only across lanes. One lane is one [`Walker`], which keeps
/// its seed index across compaction.
struct TrackingKernel<'a> {
    field: SampleField,
    params: TrackingParams,
    mask: Option<&'a Mask>,
}

impl SimKernel for TrackingKernel<'_> {
    type Lane = Walker;

    #[inline]
    fn step(&self, walker: &mut Walker) -> LaneStatus {
        match walker.step(&self.field, &self.params, self.mask) {
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
    /// What to collect: lengths only (timing runs), per-voxel visits, or
    /// visits plus exported fibers of at least `min_steps` steps.
    pub record: RecordMode,
}

/// Result of a GPU-simulated tracking run.
#[derive(Debug, Clone)]
pub struct GpuTrackingReport {
    /// Timing breakdown (kernel / reduction / transfer — Table II columns).
    pub ledger: TimingLedger,
    /// Lengths per (sample, original seed index), total steps, and what
    /// [`GpuTracker::record`] asked for — the same shape and, run for run,
    /// the same values as [`CpuTracker::run_serial`](crate::CpuTracker::run_serial).
    pub output: TrackingOutput,
    /// Submission order per sample (original seed indices) — thread loads in
    /// SIMD order are `order.map(|i| lengths[i])`.
    pub submission_orders: Vec<Vec<u32>>,
    /// Lanes still unfinished after each segment, per sample.
    pub per_segment_unfinished: Vec<Vec<usize>>,
}

impl GpuTrackingReport {
    /// Thread loads in submission (SIMD) order for one sample.
    pub fn thread_loads(&self, sample: usize) -> Vec<u32> {
        self.submission_orders[sample]
            .iter()
            .map(|&i| self.output.lengths_by_sample[sample][i as usize])
            .collect()
    }
}

/// In-flight state of one sample volume being streamed through the device.
struct SampleStream<'a> {
    sample: usize,
    stream: usize,
    order: Vec<u32>,
    lanes: Vec<Walker>,
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
    /// and retirement writes are indexed by seed, never order-dependent
    /// (kept fibers are sorted by (sample, seed) once at the end).
    ///
    /// In [`RecordMode::Streamlines`] mode each segment's new trajectory
    /// points come back on one extra device→host transfer of
    /// [`POINT_BYTES`] per point; the other modes charge exactly what they
    /// did before fiber export existed.
    pub fn run(&self, gpu: &mut Gpu, streams: usize) -> GpuTrackingReport {
        gpu.reset();
        let num_samples = self.samples.num_samples();
        let n_seeds = self.seeds.len();
        let budgets = self.strategy.budgets(self.params.max_steps);
        let volume_bytes = sample_volume_bytes(self.samples);
        let recording = self.record.recording();
        let exporting = recording == Recording::Points;

        let mut output = TrackingOutput {
            lengths_by_sample: vec![vec![0u32; n_seeds]; num_samples],
            total_steps: 0,
            connectivity: (recording != Recording::Off)
                .then(|| ConnectivityAccumulator::new(self.samples.dims())),
            streamlines: Vec::new(),
        };
        // Kept fibers tagged with their sample, in retirement order.
        let mut kept: Vec<(usize, Streamline)> = Vec::new();
        let mut submission_orders: Vec<Vec<u32>> = Vec::with_capacity(num_samples);
        let mut per_segment_unfinished: Vec<Vec<usize>> = Vec::with_capacity(num_samples);
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
                // The host-side layout of the volume just uploaded; it lives
                // until the group's lanes have all retired.
                let field = SampleField::build(self.samples, sample);
                let lanes: Vec<Walker> = order
                    .iter()
                    .map(|&seed_idx| {
                        let pos = jittered_seed(
                            self.seeds[seed_idx as usize],
                            self.run_seed,
                            sample,
                            seed_idx as usize,
                            self.jitter,
                        );
                        let dir = initial_direction(&field, pos, self.params.min_fraction);
                        Walker::start(seed_idx, pos, dir, recording, self.samples.dims())
                    })
                    .collect();
                gpu.try_transfer_to_device_on(lanes.len() as u64 * LANE_BYTES, slot)
                    .expect("transfer failed on a device with a fault plan");
                in_flight.push(SampleStream {
                    sample,
                    stream: slot,
                    order,
                    lanes,
                    kernel: TrackingKernel {
                        field,
                        params: self.params,
                        mask: self.mask,
                    },
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
                    let points_before = if exporting {
                        recorded_points(&st.lanes)
                    } else {
                        0
                    };
                    gpu.try_launch_on(&st.kernel, &mut st.lanes, budget, st.stream)
                        .expect("launch failed on a device with a fault plan");
                    // ReadEndPointFromGPU(), then Reduction(): compact,
                    // retiring finished lanes.
                    gpu.try_transfer_to_host_on(st.lanes.len() as u64 * LANE_BYTES, st.stream)
                        .expect("transfer failed on a device with a fault plan");
                    if exporting {
                        // Drain the points this segment appended to every
                        // lane's trajectory buffer.
                        let points = recorded_points(&st.lanes) - points_before;
                        gpu.try_transfer_to_host_on(points * POINT_BYTES, st.stream)
                            .expect("transfer failed on a device with a fault plan");
                    }
                    gpu.host_reduction_on(st.lanes.len() as u64, st.stream);
                    let mut still_running = Vec::with_capacity(st.lanes.len());
                    for walker in st.lanes.drain(..) {
                        if walker.alive() {
                            still_running.push(walker);
                        } else {
                            self.retire(walker, st.sample, &mut output, &mut kept);
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
                    pilot_lengths = Some(output.lengths_by_sample[0].clone());
                }
                submission_orders.push(st.order);
                per_segment_unfinished.push(st.unfinished_after_segment);
            }
        }

        // Lanes retire in compaction order; the CPU reference emits
        // fibers in (sample, seed) order.
        kept.sort_unstable_by_key(|(sample, s)| (*sample, s.seed_id));
        output.streamlines = kept.into_iter().map(|(_, s)| s).collect();
        GpuTrackingReport {
            ledger: *gpu.ledger(),
            output,
            submission_orders,
            per_segment_unfinished,
        }
    }

    fn retire(
        &self,
        mut walker: Walker,
        sample: usize,
        output: &mut TrackingOutput,
        kept: &mut Vec<(usize, Streamline)>,
    ) {
        output.lengths_by_sample[sample][walker.seed_id as usize] = walker.steps;
        output.total_steps += walker.steps as u64;
        if let Some(acc) = output.connectivity.as_mut() {
            walker.count_into(acc);
        }
        if let RecordMode::Streamlines { min_steps } = self.record {
            if walker.steps >= min_steps {
                kept.push((
                    sample,
                    Streamline {
                        seed_id: walker.seed_id,
                        points: walker.path,
                        steps: walker.steps,
                        stop: walker.stop,
                    },
                ));
            }
        }
    }
}

/// Trajectory points held by `lanes`' recording buffers.
fn recorded_points(lanes: &[Walker]) -> u64 {
    lanes.iter().map(|w| w.path.len() as u64).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connectivity::voxel_index;
    use crate::field::InterpMode;
    use crate::probabilistic::CpuTracker;
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
            record: RecordMode::LengthsOnly,
        }
    }

    fn line_seeds(dims: Dim3) -> Vec<Vec3> {
        (0..dims.nx)
            .map(|i| Vec3::new(i as f64, 2.0, 2.0))
            .collect()
    }

    #[test]
    fn gpu_lengths_match_cpu_reference() {
        // A stop mask, and seeds in a stick-free slab (dead on arrival),
        // under a permuted submission order: lengths, visits and exported
        // fibers must all equal the serial CPU reference, which reads the
        // samples through `SampleFieldView`, for both interpolation modes.
        // The azimuth wobbles by ±0.1 rad per voxel so trilinear blending
        // mixes distinct directions.
        let dims = Dim3::new(12, 6, 6);
        let mut sv = x_samples(dims, 3);
        for c in dims.iter() {
            for s in 0..3 {
                sv.ph1
                    .set(c, s, 0.1 * ((c.i + 2 * c.j + s) % 3) as f32 - 0.1);
                if c.j >= 4 {
                    sv.f1.set(c, s, 0.0);
                }
            }
        }
        let mask = Mask::from_fn(dims, |c| c.i < 9);
        let mut seeds = line_seeds(dims);
        seeds.extend(
            seeds
                .clone()
                .into_iter()
                .map(|p| p + Vec3::new(0.0, 2.0, 0.0)),
        );
        let mut t = tracker(&sv, seeds, SegmentationStrategy::paper_b());
        t.mask = Some(&mask);
        t.ordering = SeedOrdering::SortedByPilot;
        t.record = RecordMode::Streamlines { min_steps: 2 };
        for interp in [InterpMode::Nearest, InterpMode::Trilinear] {
            t.params.interp = interp;
            let cpu = CpuTracker {
                samples: &sv,
                params: t.params,
                seeds: t.seeds.clone(),
                mask: t.mask,
                jitter: 0.4,
                run_seed: 5,
                bidirectional: false,
            }
            .run_serial(t.record);
            assert!(cpu.all_lengths().contains(&0), "no dead-on-arrival seed");
            assert!(cpu
                .streamlines
                .iter()
                .any(|s| s.stop == StopReason::OutOfMask));
            for streams in [1usize, 3] {
                let gpu = t.run(&mut small_gpu(), streams).output;
                assert_eq!(
                    gpu.lengths_by_sample, cpu.lengths_by_sample,
                    "bit-identical results regardless of segmentation (the paper's CPU≡GPU check), {interp:?}"
                );
                assert_eq!(gpu.total_steps, cpu.total_steps);
                let (g, c) = (
                    gpu.connectivity.unwrap(),
                    cpu.connectivity.as_ref().unwrap(),
                );
                assert_eq!(g.total_streamlines(), c.total_streamlines());
                assert!(dims.iter().all(|v| g.count(v) == c.count(v)));
                assert_eq!(gpu.streamlines.len(), cpu.streamlines.len());
                for (g, c) in gpu.streamlines.iter().zip(&cpu.streamlines) {
                    assert_eq!((g.seed_id, g.steps, g.stop), (c.seed_id, c.steps, c.stop));
                    assert_eq!(g.points, c.points);
                }
            }
        }
    }

    #[test]
    fn edge_seeds_count_like_cpu_reference() {
        // Seeds on the grid's edge (-0.5 or n - 0.5 on one axis) under
        // jitter 0.5: some starts round outside the grid. Such a live seed
        // counts one streamline and only the voxels it steps into; a
        // 0.7-voxel step lets a walker starting below -0.5 step in.
        let dims = Dim3::new(10, 6, 6);
        let sv = x_samples(dims, 4);
        let mut seeds = Vec::new();
        for j in 0..dims.ny {
            seeds.push(Vec3::new(-0.5, j as f64, 2.0));
            seeds.push(Vec3::new(3.0, -0.5, j as f64));
            seeds.push(Vec3::new(9.5, j as f64, 3.0));
            seeds.push(Vec3::new(j as f64, 2.0, 5.5));
        }
        let mut t = tracker(&sv, seeds, SegmentationStrategy::paper_b());
        t.jitter = 0.5;
        t.params.step_length = 0.7;
        let cpu_tracker = CpuTracker {
            samples: &sv,
            params: t.params,
            seeds: t.seeds.clone(),
            mask: None,
            jitter: t.jitter,
            run_seed: t.run_seed,
            bidirectional: false,
        };
        let lengths = cpu_tracker.run_serial(RecordMode::LengthsOnly);
        let outside_then_in = (0..sv.num_samples()).any(|s| {
            (0..t.seeds.len()).any(|i| {
                let pos = jittered_seed(t.seeds[i], t.run_seed, s, i, t.jitter);
                voxel_index(dims, pos).is_none() && lengths.lengths_by_sample[s][i] > 0
            })
        });
        assert!(outside_then_in, "no start rounds outside and steps in");
        for record in [
            RecordMode::Connectivity,
            RecordMode::Streamlines { min_steps: 1 },
        ] {
            t.record = record;
            let cpu = cpu_tracker.run_serial(record);
            let gpu = t.run(&mut small_gpu(), 2).output;
            assert_eq!(gpu.lengths_by_sample, cpu.lengths_by_sample);
            let (g, c) = (
                gpu.connectivity.unwrap(),
                cpu.connectivity.as_ref().unwrap(),
            );
            assert_eq!(g.total_streamlines(), c.total_streamlines());
            assert_eq!(g.total_streamlines(), 4 * t.seeds.len() as u64);
            assert!(dims.iter().all(|v| g.count(v) == c.count(v)), "{record:?}");
            assert_eq!(gpu.streamlines.len(), cpu.streamlines.len());
        }
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
            assert_eq!(r.output.lengths_by_sample, runs[0].output.lengths_by_sample);
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
        let pilot = &run.output.lengths_by_sample[0];
        let order1 = &run.submission_orders[1];
        for w in order1.windows(2) {
            assert!(
                pilot[w[0] as usize] >= pilot[w[1] as usize],
                "submission not sorted by pilot: {order1:?} lens {pilot:?}"
            );
        }
        // Lengths are still reported per original seed.
        assert_eq!(run.output.lengths_by_sample[1].len(), 12);
    }

    #[test]
    fn thread_loads_permuted_view() {
        let dims = Dim3::new(8, 6, 6);
        let sv = x_samples(dims, 1);
        let seeds = line_seeds(dims);
        let run = tracker(&sv, seeds, SegmentationStrategy::Single).run(&mut small_gpu(), 1);
        let loads = run.thread_loads(0);
        assert_eq!(
            loads, run.output.lengths_by_sample[0],
            "natural order is identity"
        );
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
        t.record = RecordMode::Connectivity;
        t.jitter = 0.0;
        let run = t.run(&mut small_gpu(), 1);
        let acc = run.output.connectivity.unwrap();
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
        t.record = RecordMode::Connectivity;
        let serial = t.run(&mut small_gpu(), 1);
        for streams in [2usize, 3, 8] {
            let streamed = t.run(&mut small_gpu(), streams);
            assert_eq!(
                streamed.output.lengths_by_sample,
                serial.output.lengths_by_sample
            );
            assert_eq!(streamed.output.total_steps, serial.output.total_steps);
            assert_eq!(streamed.submission_orders, serial.submission_orders);
            assert_eq!(
                streamed.per_segment_unfinished,
                serial.per_segment_unfinished
            );
            let (a, b) = (
                serial.output.connectivity.as_ref().unwrap(),
                streamed.output.connectivity.as_ref().unwrap(),
            );
            assert_eq!(a.total_streamlines(), b.total_streamlines());
            for c in dims.iter() {
                assert_eq!(a.count(c), b.count(c));
            }
        }
    }

    #[test]
    fn only_fiber_export_adds_readback() {
        let dims = Dim3::new(12, 6, 6);
        let sv = x_samples(dims, 2);
        let mut t = tracker(&sv, line_seeds(dims), SegmentationStrategy::paper_b());
        let lengths_only = t.run(&mut small_gpu(), 1);
        t.record = RecordMode::Connectivity;
        let visits = t.run(&mut small_gpu(), 1);
        // `wall_kernel_s` is host time; every simulated column must match.
        let simulated = |l: TimingLedger| TimingLedger {
            wall_kernel_s: 0.0,
            ..l
        };
        assert_eq!(
            simulated(visits.ledger),
            simulated(lengths_only.ledger),
            "visits are free"
        );
        t.record = RecordMode::Streamlines { min_steps: 0 };
        let fibers = t.run(&mut small_gpu(), 1);
        // Every device-produced point (one per step) comes back once.
        assert_eq!(
            fibers.ledger.bytes_d2h - lengths_only.ledger.bytes_d2h,
            lengths_only.output.total_steps * POINT_BYTES
        );
        assert!(fibers.ledger.transfer_s > lengths_only.ledger.transfer_s);
        assert_eq!(fibers.ledger.kernel_s, lengths_only.ledger.kernel_s);
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
        assert_eq!(
            streamed.output.lengths_by_sample,
            serial.output.lengths_by_sample
        );
    }

    #[test]
    fn longest_reported() {
        let dims = Dim3::new(12, 6, 6);
        let sv = x_samples(dims, 1);
        let run =
            tracker(&sv, line_seeds(dims), SegmentationStrategy::Single).run(&mut small_gpu(), 1);
        assert_eq!(
            run.output.longest(),
            run.output
                .lengths_by_sample
                .iter()
                .flatten()
                .copied()
                .max()
                .unwrap()
        );
        assert!(run.output.longest() > 0);
    }
}
