//! Continuous batching of tracking work from many jobs into shared
//! GPU launches.
//!
//! The paper's segmentation keeps wavefronts full *within* one tracking
//! run by compacting lanes between launches. A job service can go one step
//! further: because every lane is independent (one walker, one sample
//! volume), lanes from *different jobs* can share the same launch.
//! Merging the queue's pending jobs into one lane population keeps the
//! device saturated even when each individual job is too small to fill it,
//! and the compaction boundaries the paper already requires are exactly
//! where finished jobs' results are demultiplexed back out.
//!
//! Results are bit-identical to running each job alone through
//! [`tracto::tracking::gpu::GpuTracker`]: lane initialization reproduces its
//! recipe exactly (jittered seed → initial direction → walker), stepping is
//! deterministic, and the per-job accumulators are order-independent sums.

use std::sync::Arc;
use tracto::tracking::connectivity::ConnectivityAccumulator;
use tracto::tracking::field::SampleField;
use tracto::tracking::gpu::{sample_volume_bytes, LANE_BYTES};
use tracto::tracking::probabilistic::{initial_direction, jittered_seed};
use tracto::tracking::walker::{Recording, StopReason, TrackingParams, Walker};
use tracto::tracking::{SegmentationStrategy, TrackingOutput};
use tracto_gpu_sim::{par_map, LaneStatus, MultiGpu, SimKernel, TimingLedger};
use tracto_mcmc::SampleVolumes;
use tracto_volume::{Mask, Vec3};

/// One job's contribution to a batch.
#[derive(Clone)]
pub struct BatchJob {
    /// Posterior sample stack (usually shared with the cache).
    pub samples: Arc<SampleVolumes>,
    /// Tracking parameters — may differ per job; each walker enforces its
    /// own `max_steps`, so a shared launch budget cannot overrun a job.
    pub params: TrackingParams,
    /// Seed positions.
    pub seeds: Vec<Vec3>,
    /// Optional tracking mask.
    pub mask: Option<Mask>,
    /// Sub-voxel jitter amplitude.
    pub jitter: f64,
    /// Run seed.
    pub run_seed: u64,
    /// Record per-voxel visits.
    pub record_visits: bool,
}

/// One lane of the merged population: a walker plus routing identity.
#[derive(Clone)]
pub struct BatchLane {
    walker: Walker,
    job: u32,
    sample: u32,
}

/// The batched tracking kernel: routes each lane's step through its own
/// job's sample field, parameters, and mask. Holds every job's samples as
/// precomputed [`SampleField`]s, built at batch start (where the batch
/// charges their volume uploads) and dropped with the kernel when the
/// batch's lanes have retired.
struct BatchKernel<'a> {
    jobs: &'a [BatchJob],
    /// `fields[job][sample]`.
    fields: Vec<Vec<SampleField>>,
}

impl<'a> BatchKernel<'a> {
    /// The kernel plus each job's lanes in (sample, seed) order. One task
    /// per (job, sample) builds its field and then its lanes, in parallel:
    /// at batch start nothing else runs on the host.
    fn new(jobs: &'a [BatchJob]) -> (Self, Vec<Vec<BatchLane>>) {
        let pairs: Vec<(usize, usize)> = jobs
            .iter()
            .enumerate()
            .flat_map(|(j, job)| (0..job.samples.num_samples()).map(move |s| (j, s)))
            .collect();
        let mut built = par_map(pairs, |(j, s)| {
            let field = SampleField::build(&jobs[j].samples, s);
            let lanes = sample_lanes(&jobs[j], j, s, &field);
            (field, lanes)
        })
        .into_iter();
        let (fields, lanes) = jobs
            .iter()
            .map(|j| {
                let (fields, lanes) = built.by_ref().take(j.samples.num_samples()).unzip();
                (fields, concat(lanes))
            })
            .unzip();
        (BatchKernel { jobs, fields }, lanes)
    }
}

/// The lists one after another, in one exactly sized buffer: a lane list
/// grown by doubling would leave large freed buffers behind.
fn concat(lists: Vec<Vec<BatchLane>>) -> Vec<BatchLane> {
    let mut all = Vec::with_capacity(lists.iter().map(Vec::len).sum());
    for list in lists {
        all.extend(list);
    }
    all
}

impl SimKernel for BatchKernel<'_> {
    type Lane = BatchLane;

    #[inline]
    fn step(&self, lane: &mut BatchLane) -> LaneStatus {
        let job = &self.jobs[lane.job as usize];
        let field = &self.fields[lane.job as usize][lane.sample as usize];
        match lane.walker.step(field, &job.params, job.mask.as_ref()) {
            StopReason::Running => LaneStatus::Continue,
            _ => LaneStatus::Finished,
        }
    }
}

/// One batched run's outcome.
pub struct BatchReport {
    /// Per-job results, in submission order, shaped exactly like the
    /// single-job pipeline output.
    pub per_job: Vec<TrackingOutput>,
    /// Aggregate device ledger for the batch (device-seconds).
    pub ledger: TimingLedger,
    /// Simulated wall-clock of the batch (kernels overlap across devices).
    pub wall_s: f64,
    /// What the same charges would have cost on the serialized host loop.
    pub serial_s: f64,
    /// Simulated wall time hidden by multi-stream overlap (`serial_s −
    /// wall_s` over this batch, ≥ 0; exactly 0 on the serialized path).
    pub overlap_saved_s: f64,
    /// Stream lanes the batch ran with (1 = serialized legacy path).
    pub streams: usize,
    /// Total lanes in the merged population.
    pub lanes: usize,
    /// Launches issued.
    pub launches: u64,
    /// Mean wavefront (SIMD) utilization across the batch's launches.
    pub utilization: f64,
}

/// The lanes of one (job, sample), in seed order, reproducing the solo
/// tracker's lane recipe exactly — per-job results are therefore
/// independent of how jobs are grouped into batches or streams.
fn sample_lanes(
    job: &BatchJob,
    job_idx: usize,
    sample: usize,
    field: &SampleField,
) -> Vec<BatchLane> {
    let recording = if job.record_visits {
        Recording::Visits
    } else {
        Recording::Off
    };
    let dims = job.samples.dims();
    job.seeds
        .iter()
        .enumerate()
        .map(|(seed_idx, &seed)| {
            let pos = jittered_seed(seed, job.run_seed, sample, seed_idx, job.jitter);
            let dir = initial_direction(field, pos, job.params.min_fraction);
            BatchLane {
                walker: Walker::start(seed_idx as u32, pos, dir, recording, dims),
                job: job_idx as u32,
                sample: sample as u32,
            }
        })
        .collect()
}

/// Per-job results, filled as lanes retire: lengths by (sample, seed),
/// total steps, and the visit counts when the job records them.
fn fresh_outputs(jobs: &[BatchJob]) -> Vec<TrackingOutput> {
    jobs.iter()
        .map(|j| TrackingOutput {
            lengths_by_sample: vec![vec![0u32; j.seeds.len()]; j.samples.num_samples()],
            total_steps: 0,
            connectivity: j
                .record_visits
                .then(|| ConnectivityAccumulator::new(j.samples.dims())),
            streamlines: Vec::new(),
        })
        .collect()
}

fn ledger_delta(before: &TimingLedger, after: &TimingLedger) -> TimingLedger {
    TimingLedger {
        kernel_s: after.kernel_s - before.kernel_s,
        reduction_s: after.reduction_s - before.reduction_s,
        transfer_s: after.transfer_s - before.transfer_s,
        launches: after.launches - before.launches,
        bytes_h2d: after.bytes_h2d - before.bytes_h2d,
        bytes_d2h: after.bytes_d2h - before.bytes_d2h,
        useful_iterations: after.useful_iterations - before.useful_iterations,
        charged_iterations: after.charged_iterations - before.charged_iterations,
        wall_kernel_s: after.wall_kernel_s - before.wall_kernel_s,
    }
}

/// [`run_batch`] driven through the stream-aware launch path: jobs are
/// round-robined onto `streams` stream lanes, each pinned to device
/// `stream % devices`, and every upload / kernel / readback / reduction is
/// charged to its stream — so one stream's host-side work hides behind
/// another stream's kernels on the simulated clock. Per-job results are
/// **bit-identical** to the serialized path for any stream count: lane
/// construction and stepping are per-job deterministic, and the per-job
/// accumulators are order-independent sums.
///
/// A device lost mid-stream fails over to the next alive device: residency
/// is re-uploaded and the failed launch replayed (a failed launch never
/// advances a lane), composing with [`FaultPlan`](tracto_gpu_sim::FaultPlan)
/// exactly as the serialized path does. Errors with a capacity error only
/// when every device is lost.
///
/// `streams <= 1` delegates to [`run_batch`] exactly.
pub fn run_batch_streamed(
    multi: &mut MultiGpu,
    jobs: &[BatchJob],
    strategy: &SegmentationStrategy,
    streams: usize,
) -> Result<BatchReport, tracto_trace::TractoError> {
    if streams <= 1 {
        return run_batch(multi, jobs, strategy);
    }
    assert!(!jobs.is_empty(), "empty batch");
    let ledger_before = multi.aggregate_ledger();
    let wall_before = multi.wall_s();
    let serial_before = multi.serial_s();

    struct StreamState {
        stream: usize,
        device: usize,
        /// Resident job volumes on the stream's device.
        volume_bytes: u64,
        /// Total reservation currently held on `device`.
        alloc_bytes: u64,
        lanes: Vec<BatchLane>,
    }

    let n_dev = multi.num_devices();
    let k = streams.min(jobs.len());
    let (kernel, mut job_lanes) = BatchKernel::new(jobs);
    let mut states: Vec<StreamState> = Vec::with_capacity(k);
    let mut total_lanes = 0usize;
    for s in 0..k {
        let lanes = concat(
            (s..jobs.len())
                .step_by(k)
                .map(|i| std::mem::take(&mut job_lanes[i]))
                .collect(),
        );
        let volume_bytes: u64 = (s..jobs.len())
            .step_by(k)
            .map(|i| sample_volume_bytes(&jobs[i].samples) * jobs[i].samples.num_samples() as u64)
            .sum();
        let device = multi
            .next_alive_device(s % n_dev)
            .ok_or_else(|| tracto_trace::TractoError::capacity("gpu devices", 1, 0))?;
        total_lanes += lanes.len();
        states.push(StreamState {
            stream: s,
            device,
            volume_bytes,
            alloc_bytes: 0,
            lanes,
        });
    }

    // Residency per stream on its pinned device: its jobs' sample stacks
    // plus its share of the merged lane buffers.
    for st in states.iter_mut() {
        let bytes = st.volume_bytes + st.lanes.len() as u64 * LANE_BYTES;
        multi.stream_alloc(st.device, bytes)?;
        st.alloc_bytes = bytes;
    }

    /// Re-home a stream after a device loss: claim the next alive device,
    /// reserve memory there, and re-upload the stream's full residency.
    /// Loops because the replacement can itself be scheduled to fail.
    fn fail_over(
        multi: &mut MultiGpu,
        st: &mut StreamState,
    ) -> Result<(), tracto_trace::TractoError> {
        loop {
            let next = multi.stream_failover(st.device, st.lanes.len())?;
            st.device = next;
            multi.stream_alloc(next, st.alloc_bytes)?;
            let residency = st.volume_bytes + st.lanes.len() as u64 * LANE_BYTES;
            match multi.stream_upload(st.stream, next, residency) {
                Ok(_) => return Ok(()),
                Err(_) => continue,
            }
        }
    }

    let max_steps = jobs
        .iter()
        .map(|j| j.params.max_steps)
        .max()
        .expect("non-empty");
    let budgets = strategy.budgets(max_steps);

    let mut per_job = fresh_outputs(jobs);
    let mut launches = 0u64;
    let mut charged = 0u64;
    let mut useful = 0u64;

    // Initial residency uploads, one per stream, issued round-robin so the
    // clock can pipeline them against each other's devices.
    for st in states.iter_mut() {
        let residency = st.volume_bytes + st.lanes.len() as u64 * LANE_BYTES;
        if multi
            .stream_upload(st.stream, st.device, residency)
            .is_err()
        {
            fail_over(multi, st)?;
        }
    }

    // Shared segmentation schedule, interleaved across streams per segment:
    // submission order is issue order on the simulated clock, so the
    // round-robin is what lets stream s+1's upload hide behind stream s's
    // kernel (and readbacks hide behind the next stream's kernels).
    for (seg_idx, &budget) in budgets.iter().enumerate() {
        let mut any = false;
        for st in states.iter_mut() {
            if st.lanes.is_empty() {
                continue;
            }
            any = true;
            if seg_idx > 0 {
                // Re-upload the compacted population.
                if multi
                    .stream_upload(st.stream, st.device, st.lanes.len() as u64 * LANE_BYTES)
                    .is_err()
                {
                    fail_over(multi, st)?;
                }
            }
            // A failed launch never advances a lane, so replaying it on the
            // failover device is bit-identical to a fault-free run.
            let stats = loop {
                match multi.stream_launch(st.stream, st.device, &kernel, &mut st.lanes, budget) {
                    Ok(stats) => break stats,
                    Err(_) => fail_over(multi, st)?,
                }
            };
            launches += 1;
            charged += stats.charged_iterations;
            useful += stats.useful_iterations;
            if multi
                .stream_readback(st.stream, st.device, st.lanes.len() as u64 * LANE_BYTES)
                .is_err()
            {
                fail_over(multi, st)?;
                multi.stream_readback(st.stream, st.device, st.lanes.len() as u64 * LANE_BYTES)?;
            }
            multi.stream_reduce(st.stream, st.device, st.lanes.len() as u64);

            // Compact: retire finished lanes into their job's accumulators.
            let mut still_running = Vec::with_capacity(st.lanes.len());
            for lane in st.lanes.drain(..) {
                if lane.walker.alive() {
                    still_running.push(lane);
                } else {
                    retire(lane, &mut per_job);
                }
            }
            st.lanes = still_running;
        }
        if !any {
            break;
        }
    }
    for st in states.iter_mut() {
        debug_assert!(st.lanes.is_empty(), "lanes survived the full budget");
        for lane in st.lanes.drain(..) {
            retire(lane, &mut per_job);
        }
        multi.stream_free(st.device, st.alloc_bytes);
    }

    let wall_s = multi.wall_s() - wall_before;
    let serial_s = multi.serial_s() - serial_before;
    Ok(BatchReport {
        per_job,
        ledger: ledger_delta(&ledger_before, &multi.aggregate_ledger()),
        wall_s,
        serial_s,
        overlap_saved_s: (serial_s - wall_s).max(0.0),
        streams: k,
        lanes: total_lanes,
        launches,
        utilization: if charged == 0 {
            1.0
        } else {
            useful as f64 / charged as f64
        },
    })
}

/// Run `jobs` as one merged lane population on `multi`, under one shared
/// segmentation schedule. The report's ledger and wall clock are deltas
/// over this call, so a long-lived device group yields per-batch numbers.
pub fn run_batch(
    multi: &mut MultiGpu,
    jobs: &[BatchJob],
    strategy: &SegmentationStrategy,
) -> Result<BatchReport, tracto_trace::TractoError> {
    assert!(!jobs.is_empty(), "empty batch");
    let ledger_before = multi.aggregate_ledger();
    let wall_before = multi.wall_s();
    let serial_before = multi.serial_s();

    // Residency: every job's full sample stack on every device (lanes from
    // all samples are in flight together), plus the merged lane buffers.
    let volume_bytes: u64 = jobs
        .iter()
        .map(|j| sample_volume_bytes(&j.samples) * j.samples.num_samples() as u64)
        .sum();

    let (kernel, job_lanes) = BatchKernel::new(jobs);
    let mut lanes = concat(job_lanes);
    let total_lanes = lanes.len();
    let lane_bytes = total_lanes as u64 * LANE_BYTES;

    multi.device_alloc_all(volume_bytes + lane_bytes)?;
    multi.broadcast_to_devices(volume_bytes);
    multi.scatter_to_devices(lane_bytes);

    // One shared schedule covers the longest job; shorter jobs' walkers
    // stop at their own max_steps and retire at the next compaction.
    let max_steps = jobs
        .iter()
        .map(|j| j.params.max_steps)
        .max()
        .expect("non-empty");
    let budgets = strategy.budgets(max_steps);

    let mut per_job = fresh_outputs(jobs);

    let mut launches = 0u64;
    let mut charged = 0u64;
    let mut useful = 0u64;

    for (seg_idx, &budget) in budgets.iter().enumerate() {
        if lanes.is_empty() {
            break;
        }
        if seg_idx > 0 {
            // Re-upload the compacted population.
            multi.scatter_to_devices(lanes.len() as u64 * LANE_BYTES);
        }
        let stats = multi.launch_partitioned(&kernel, &mut lanes, budget)?;
        launches += stats.len() as u64;
        for s in &stats {
            charged += s.charged_iterations;
            useful += s.useful_iterations;
        }
        multi.gather_to_host(lanes.len() as u64 * LANE_BYTES);
        multi.host_reduction(lanes.len() as u64);

        // Compact: retire finished lanes into their job's accumulators.
        let mut still_running = Vec::with_capacity(lanes.len());
        for lane in lanes.drain(..) {
            if lane.walker.alive() {
                still_running.push(lane);
            } else {
                retire(lane, &mut per_job);
            }
        }
        lanes = still_running;
    }
    debug_assert!(lanes.is_empty(), "lanes survived the full budget");
    for lane in lanes.drain(..) {
        retire(lane, &mut per_job);
    }

    multi.device_free_all(volume_bytes + lane_bytes);

    let wall_s = multi.wall_s() - wall_before;
    let serial_s = multi.serial_s() - serial_before;
    Ok(BatchReport {
        per_job,
        ledger: ledger_delta(&ledger_before, &multi.aggregate_ledger()),
        wall_s,
        serial_s,
        overlap_saved_s: (serial_s - wall_s).max(0.0),
        streams: 1,
        lanes: total_lanes,
        launches,
        utilization: if charged == 0 {
            1.0
        } else {
            useful as f64 / charged as f64
        },
    })
}

fn retire(mut lane: BatchLane, per_job: &mut [TrackingOutput]) {
    let out = &mut per_job[lane.job as usize];
    let seed = lane.walker.seed_id as usize;
    out.lengths_by_sample[lane.sample as usize][seed] = lane.walker.steps;
    out.total_steps += lane.walker.steps as u64;
    if let Some(acc) = out.connectivity.as_mut() {
        lane.walker.count_into(acc);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracto::tracking::field::InterpMode;
    use tracto::tracking::gpu::{GpuTracker, SeedOrdering};
    use tracto::tracking::probabilistic::{CpuTracker, RecordMode};
    use tracto_gpu_sim::{DeviceConfig, Gpu};
    use tracto_volume::Dim3;

    fn x_samples(dims: Dim3, n: usize) -> Arc<SampleVolumes> {
        let mut sv = SampleVolumes::zeros(dims, n);
        for c in dims.iter() {
            for s in 0..n {
                sv.f1.set(c, s, 0.6);
                sv.th1.set(c, s, std::f64::consts::FRAC_PI_2 as f32);
                sv.ph1.set(c, s, 0.0);
            }
        }
        Arc::new(sv)
    }

    fn params(max_steps: u32) -> TrackingParams {
        TrackingParams {
            step_length: 0.5,
            angular_threshold: 0.8,
            max_steps,
            min_fraction: 0.05,
            interp: InterpMode::Nearest,
        }
    }

    fn device() -> DeviceConfig {
        DeviceConfig {
            wavefront_size: 4,
            num_compute_units: 2,
            waves_per_cu: 2,
            ..DeviceConfig::radeon_5870()
        }
    }

    fn line_seeds(dims: Dim3) -> Vec<Vec3> {
        (0..dims.nx)
            .map(|i| Vec3::new(i as f64, 2.0, 2.0))
            .collect()
    }

    fn batch_job(sv: &Arc<SampleVolumes>, seeds: Vec<Vec3>, run_seed: u64, max: u32) -> BatchJob {
        BatchJob {
            samples: Arc::clone(sv),
            params: params(max),
            seeds,
            mask: None,
            jitter: 0.4,
            run_seed,
            record_visits: false,
        }
    }

    fn solo_report(job: &BatchJob, strategy: &SegmentationStrategy) -> (Vec<Vec<u32>>, u64) {
        let tracker = GpuTracker {
            samples: &job.samples,
            params: job.params,
            seeds: job.seeds.clone(),
            mask: job.mask.as_ref(),
            strategy: strategy.clone(),
            ordering: SeedOrdering::Natural,
            jitter: job.jitter,
            run_seed: job.run_seed,
            record: RecordMode::LengthsOnly,
        };
        let r = tracker.run(&mut Gpu::new(device()), 1).output;
        (r.lengths_by_sample, r.total_steps)
    }

    #[test]
    fn batched_results_match_solo_runs() {
        // Both interpolation modes, against the solo kernel tracker and
        // the serial CPU reference (which reads `SampleFieldView`). Both
        // angles wobble per voxel and sample, so trilinear blends distinct
        // sticks and each sample stops its walkers at its own curvature.
        let dims = Dim3::new(12, 6, 6);
        let mut sv = (*x_samples(dims, 3)).clone();
        let wobble = |n: usize| 0.25 * ((n % 3) as f32 - 1.0);
        for c in dims.iter() {
            for s in 0..3 {
                sv.ph1.set(c, s, wobble(c.i + c.j + s));
                sv.th1.set(
                    c,
                    s,
                    std::f32::consts::FRAC_PI_2 + wobble(c.i + 2 * c.k + s),
                );
            }
        }
        let sv = Arc::new(sv);
        let strategy = SegmentationStrategy::paper_b();
        for interp in [InterpMode::Nearest, InterpMode::Trilinear] {
            let mut jobs = vec![
                batch_job(&sv, line_seeds(dims), 5, 200),
                batch_job(&sv, line_seeds(dims), 77, 200),
                // A job with a smaller step cap under the shared schedule.
                batch_job(&sv, line_seeds(dims), 5, 9),
            ];
            jobs.iter_mut().for_each(|j| j.params.interp = interp);
            let mut multi = MultiGpu::new(device(), 2);
            let report = run_batch(&mut multi, &jobs, &strategy).unwrap();
            assert_eq!(report.per_job.len(), 3);
            assert_eq!(report.lanes, 3 * 3 * 12);
            for (job, out) in jobs.iter().zip(&report.per_job) {
                let (lengths, total) = solo_report(job, &strategy);
                assert_eq!(
                    out.lengths_by_sample, lengths,
                    "batching must not change results ({interp:?})"
                );
                assert_eq!(out.total_steps, total);
                let cpu = CpuTracker {
                    samples: &job.samples,
                    params: job.params,
                    seeds: job.seeds.clone(),
                    mask: None,
                    jitter: job.jitter,
                    run_seed: job.run_seed,
                    bidirectional: false,
                }
                .run_serial(RecordMode::LengthsOnly);
                assert_eq!(out.lengths_by_sample, cpu.lengths_by_sample);
            }

            // Seeds on the grid's edge under jitter 0.5, recording visits:
            // some starts round outside the grid, and such a live seed
            // still counts one streamline; 0.7-voxel steps let one that
            // starts below -0.5 step in and count what it visits.
            let mut edge_seeds = Vec::new();
            for j in 0..dims.ny {
                edge_seeds.push(Vec3::new(-0.5, j as f64, 2.0));
                edge_seeds.push(Vec3::new(11.5, j as f64, 3.0));
                edge_seeds.push(Vec3::new(j as f64, -0.5, 1.0));
                edge_seeds.push(Vec3::new(j as f64 + 4.0, 3.0, 5.5));
            }
            let mut edge = batch_job(&sv, edge_seeds, 9, 200);
            edge.params.interp = interp;
            edge.params.step_length = 0.7;
            edge.jitter = 0.5;
            edge.record_visits = true;
            let cpu = CpuTracker {
                samples: &edge.samples,
                params: edge.params,
                seeds: edge.seeds.clone(),
                mask: None,
                jitter: edge.jitter,
                run_seed: edge.run_seed,
                bidirectional: false,
            }
            .run_serial(RecordMode::Connectivity);
            let want = cpu.connectivity.as_ref().unwrap();
            let pair = [edge, jobs[1].clone()];
            for streams in [1, 2] {
                let mut multi = MultiGpu::new(device(), 2);
                let report = run_batch_streamed(&mut multi, &pair, &strategy, streams).unwrap();
                let out = &report.per_job[0];
                assert_eq!(out.lengths_by_sample, cpu.lengths_by_sample);
                let got = out.connectivity.as_ref().unwrap();
                assert_eq!(got.total_streamlines(), want.total_streamlines());
                assert!(
                    dims.iter().all(|c| got.count(c) == want.count(c)),
                    "edge-seed visits differ ({interp:?}, {streams} streams)"
                );
            }
        }
    }

    #[test]
    fn batched_connectivity_matches_solo() {
        // The second seed sits in a stick-free slab: dead on arrival, an
        // empty streamline on every path, never a visit.
        let dims = Dim3::new(10, 6, 6);
        let mut sv = (*x_samples(dims, 2)).clone();
        for c in dims.iter().filter(|c| c.j >= 4) {
            (0..2).for_each(|s| sv.f1.set(c, s, 0.0));
        }
        let sv = Arc::new(sv);
        let strategy = SegmentationStrategy::paper_c();
        let seeds = vec![Vec3::new(0.0, 2.0, 2.0), Vec3::new(0.0, 4.0, 2.0)];
        let mut job = batch_job(&sv, seeds, 3, 200);
        job.record_visits = true;
        job.jitter = 0.0;
        let mut multi = MultiGpu::new(device(), 1);
        let report = run_batch(&mut multi, std::slice::from_ref(&job), &strategy).unwrap();
        let batched = report.per_job[0].connectivity.as_ref().unwrap();

        let tracker = GpuTracker {
            samples: &job.samples,
            params: job.params,
            seeds: job.seeds.clone(),
            mask: None,
            strategy: strategy.clone(),
            ordering: SeedOrdering::Natural,
            jitter: 0.0,
            run_seed: 3,
            record: RecordMode::Connectivity,
        };
        let solo = tracker.run(&mut Gpu::new(device()), 1).output;
        let cpu = CpuTracker {
            samples: &job.samples,
            params: job.params,
            seeds: job.seeds.clone(),
            mask: None,
            jitter: 0.0,
            run_seed: 3,
            bidirectional: false,
        }
        .run_serial(RecordMode::Connectivity);
        assert!(cpu.all_lengths().contains(&0), "no dead-on-arrival seed");
        for other in [solo.connectivity.unwrap(), cpu.connectivity.unwrap()] {
            assert_eq!(batched.total_streamlines(), other.total_streamlines());
            assert_eq!(batched.probability_volume(), other.probability_volume());
        }
    }

    #[test]
    fn results_invariant_to_batch_composition() {
        let dims = Dim3::new(12, 6, 6);
        let sv = x_samples(dims, 2);
        let strategy = SegmentationStrategy::paper_b();
        let a = batch_job(&sv, line_seeds(dims), 11, 200);
        let b = batch_job(&sv, line_seeds(dims), 22, 150);
        let mut multi = MultiGpu::new(device(), 2);
        let together = run_batch(&mut multi, &[a.clone(), b.clone()], &strategy).unwrap();
        let mut m1 = MultiGpu::new(device(), 2);
        let alone_a = run_batch(&mut m1, std::slice::from_ref(&a), &strategy).unwrap();
        let mut m2 = MultiGpu::new(device(), 2);
        let alone_b = run_batch(&mut m2, std::slice::from_ref(&b), &strategy).unwrap();
        assert_eq!(
            together.per_job[0].lengths_by_sample,
            alone_a.per_job[0].lengths_by_sample
        );
        assert_eq!(
            together.per_job[1].lengths_by_sample,
            alone_b.per_job[0].lengths_by_sample
        );
    }

    #[test]
    fn merged_batch_fewer_launches_than_sequential() {
        let dims = Dim3::new(12, 6, 6);
        let sv = x_samples(dims, 2);
        let strategy = SegmentationStrategy::paper_b();
        let jobs: Vec<BatchJob> = (0..4)
            .map(|i| batch_job(&sv, line_seeds(dims), i, 200))
            .collect();
        let mut merged = MultiGpu::new(device(), 1);
        let batch = run_batch(&mut merged, &jobs, &strategy).unwrap();
        let sequential: u64 = jobs
            .iter()
            .map(|j| {
                let mut m = MultiGpu::new(device(), 1);
                run_batch(&mut m, std::slice::from_ref(j), &strategy)
                    .unwrap()
                    .launches
            })
            .sum();
        assert!(
            batch.launches < sequential,
            "merged {} vs sequential {}",
            batch.launches,
            sequential
        );
        assert!(batch.utilization > 0.0 && batch.utilization <= 1.0);
    }

    fn assert_reports_identical(a: &BatchReport, b: &BatchReport) {
        assert_eq!(a.per_job.len(), b.per_job.len());
        for (x, y) in a.per_job.iter().zip(&b.per_job) {
            assert_eq!(x.lengths_by_sample, y.lengths_by_sample);
            assert_eq!(x.total_steps, y.total_steps);
            match (&x.connectivity, &y.connectivity) {
                (None, None) => {}
                (Some(ca), Some(cb)) => {
                    assert_eq!(ca.total_streamlines(), cb.total_streamlines());
                    assert_eq!(ca.probability_volume(), cb.probability_volume());
                }
                _ => panic!("connectivity presence differs"),
            }
        }
    }

    fn stream_jobs(sv: &Arc<SampleVolumes>, dims: Dim3) -> Vec<BatchJob> {
        let mut jobs: Vec<BatchJob> = (0..5u64)
            .map(|i| batch_job(sv, line_seeds(dims), 10 + i, 200))
            .collect();
        jobs[1].params.max_steps = 9;
        jobs[3].record_visits = true;
        jobs
    }

    #[test]
    fn streamed_batch_bit_identical_to_serialized() {
        let dims = Dim3::new(12, 6, 6);
        let sv = x_samples(dims, 3);
        let strategy = SegmentationStrategy::paper_b();
        let jobs = stream_jobs(&sv, dims);
        let mut base = MultiGpu::new(device(), 2);
        let serial = run_batch(&mut base, &jobs, &strategy).unwrap();
        assert_eq!(serial.streams, 1);
        assert_eq!(serial.overlap_saved_s, 0.0);
        for streams in [2usize, 3, 5, 9] {
            let mut multi = MultiGpu::new(device(), 2);
            let streamed = run_batch_streamed(&mut multi, &jobs, &strategy, streams).unwrap();
            assert_reports_identical(&serial, &streamed);
            assert_eq!(streamed.streams, streams.min(jobs.len()));
            assert_eq!(streamed.lanes, serial.lanes);
        }
    }

    #[test]
    fn streamed_batch_overlaps_host_work_behind_kernels() {
        let dims = Dim3::new(12, 6, 6);
        let sv = x_samples(dims, 3);
        let strategy = SegmentationStrategy::paper_b();
        let jobs = stream_jobs(&sv, dims);
        let mut multi = MultiGpu::new(device(), 2);
        let report = run_batch_streamed(&mut multi, &jobs, &strategy, 4).unwrap();
        assert!(
            report.overlap_saved_s > 0.0,
            "expected overlap, saved = {}",
            report.overlap_saved_s
        );
        assert!(report.wall_s < report.serial_s);
    }

    #[test]
    fn single_stream_delegates_to_serialized_path() {
        let dims = Dim3::new(10, 6, 6);
        let sv = x_samples(dims, 2);
        let strategy = SegmentationStrategy::paper_b();
        let jobs = stream_jobs(&sv, dims);
        let mut a = MultiGpu::new(device(), 2);
        let legacy = run_batch(&mut a, &jobs, &strategy).unwrap();
        let mut b = MultiGpu::new(device(), 2);
        let delegated = run_batch_streamed(&mut b, &jobs, &strategy, 1).unwrap();
        assert_reports_identical(&legacy, &delegated);
        assert_eq!(legacy.wall_s, delegated.wall_s);
        assert_eq!(delegated.streams, 1);
        assert_eq!(delegated.overlap_saved_s, 0.0);
    }

    #[test]
    fn streamed_batch_composes_with_device_loss() {
        let dims = Dim3::new(12, 6, 6);
        let sv = x_samples(dims, 3);
        let strategy = SegmentationStrategy::paper_b();
        let jobs = stream_jobs(&sv, dims);
        let mut clean = MultiGpu::new(device(), 2);
        let expected = run_batch_streamed(&mut clean, &jobs, &strategy, 3).unwrap();

        // Device 0 dies on its second launch: mid-schedule, with lanes in
        // flight on both stream lanes pinned to it.
        let plan = tracto_gpu_sim::FaultPlan::parse("fault 0 1 device-lost").unwrap();
        let mut faulted = MultiGpu::new(device(), 2);
        faulted.set_fault_plan(&plan);
        let report = run_batch_streamed(&mut faulted, &jobs, &strategy, 3).unwrap();
        assert!(faulted.failovers() >= 1, "the fault must actually fire");
        assert_reports_identical(&expected, &report);
    }

    #[test]
    fn streamed_batch_pool_exhausted_reports_capacity() {
        let dims = Dim3::new(10, 6, 6);
        let sv = x_samples(dims, 2);
        let plan = tracto_gpu_sim::FaultPlan::parse("fault 0 0 device-lost").unwrap();
        let mut multi = MultiGpu::new(device(), 1);
        multi.set_fault_plan(&plan);
        let jobs = vec![
            batch_job(&sv, line_seeds(dims), 1, 100),
            batch_job(&sv, line_seeds(dims), 2, 100),
        ];
        match run_batch_streamed(&mut multi, &jobs, &SegmentationStrategy::paper_b(), 2) {
            Err(err) => assert_eq!(err.kind(), tracto_trace::ErrorKind::Capacity),
            Ok(_) => panic!("expected pool-exhausted error"),
        }
    }

    #[test]
    fn insufficient_memory_reported() {
        let dims = Dim3::new(12, 6, 6);
        let sv = x_samples(dims, 2);
        let tiny = DeviceConfig {
            memory_bytes: 64,
            ..device()
        };
        let mut multi = MultiGpu::new(tiny, 1);
        let job = batch_job(&sv, line_seeds(dims), 1, 100);
        match run_batch(
            &mut multi,
            std::slice::from_ref(&job),
            &SegmentationStrategy::Single,
        ) {
            Err(err) => {
                assert_eq!(err.kind(), tracto_trace::ErrorKind::Capacity);
                assert!(err.to_string().contains("device memory"));
            }
            other => panic!("expected memory error, got {:?}", other.map(|_| "report")),
        }
    }
}
