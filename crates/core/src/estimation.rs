//! Step 1 on the simulated GPU: one lane per voxel's Markov chain.
//!
//! "We use one thread for the MCMC of one voxel, since the MCMC processes
//! for different voxels are completely independent of each other." Unlike
//! tracking, every chain runs the same `NumLoops`, so MCMC lanes are
//! perfectly balanced and need no segmentation — which is why the paper's
//! Table III speedup is a flat ~34× while tracking required the
//! load-balancing contribution.
//!
//! On the host each wavefront runs the same way the device would run it:
//! its 64 lanes advance in lockstep, one parameter step at a time, through
//! a structure-of-arrays sweep ([`tracto_mcmc::cached`]), and the lanes of
//! a launch are built in parallel. Each lane's chain is bit-identical to
//! [`VoxelEstimator::run_voxel`](tracto_mcmc::VoxelEstimator) for the same
//! `(seed, voxel)`.

use std::cell::RefCell;
use std::ops::Range;

use tracto_diffusion::posterior::{BallSticksParams, NUM_PARAMETERS};
use tracto_diffusion::{Acquisition, BallSticksPosterior, PriorConfig};
use tracto_gpu_sim::{par_map, Gpu, LaneStatus, MultiGpu, SimKernel, TimingLedger};
use tracto_mcmc::cached::{WavefrontBallSticks, WavefrontLane};
use tracto_mcmc::chain::ChainConfig;
use tracto_mcmc::checkpoint::{
    CheckpointPolicy, CheckpointStore, SnapshotLoad, CHECKPOINT_LANE_BYTES,
};
use tracto_mcmc::mh::{MhSampler, MhState};
use tracto_mcmc::voxelwise::{default_proposal_scales, SampleVolumes};
use tracto_rng::HybridTaus;
use tracto_trace::{Tracer, TractoResult, Value};
use tracto_volume::{Mask, Volume4};

/// One voxel's chain as a GPU lane.
pub struct McmcLane {
    voxel_index: usize,
    signal: Vec<f64>,
    sampler: MhSampler<NUM_PARAMETERS>,
    rng: HybridTaus,
    loops_done: u32,
    samples: Vec<[f64; NUM_PARAMETERS]>,
}

impl WavefrontLane for McmcLane {
    type Rng = HybridTaus;

    fn signal(&self) -> &[f64] {
        &self.signal
    }

    fn chain(&mut self) -> (&mut MhSampler<NUM_PARAMETERS>, &mut HybridTaus) {
        (&mut self.sampler, &mut self.rng)
    }
}

impl McmcLane {
    /// Count one finished MH loop and record a sample every L loops after
    /// burn-in.
    fn finish_loop(&mut self, config: ChainConfig) {
        self.loops_done += 1;
        if self.loops_done > config.num_burnin {
            let since = self.loops_done - config.num_burnin;
            if since % config.sample_interval == 0
                && self.samples.len() < config.num_samples as usize
            {
                self.samples.push(*self.sampler.params());
            }
        }
    }
}

/// The MCMC kernel: one `step` = one MH loop (one update of each of the 9
/// parameters), matching the paper's Fig. 2 inner loop.
///
/// [`run_wavefront`](SimKernel::run_wavefront) runs a wavefront's lanes in
/// lockstep, as the device's SIMD unit would: one bind of the per-thread
/// structure-of-arrays cache ([`WavefrontBallSticks`]) per launch, then
/// each loop moves every lane through each parameter together. Counts,
/// charges and samples equal the lane-major default's: chains never
/// interact, and each lane keeps its own draws and arithmetic.
struct McmcKernel<'a> {
    acq: &'a Acquisition,
    prior: PriorConfig,
    config: ChainConfig,
}

impl SimKernel for McmcKernel<'_> {
    type Lane = McmcLane;

    /// One MH loop performs `NUM_PARAMETERS` posterior evaluations, each a
    /// full pass over the measurement vector — far heavier than the
    /// device's reference iteration (one tracking step, a handful of
    /// arithmetic ops plus a texture fetch). The weight makes simulated
    /// MCMC kernel seconds comparable across the two steps.
    fn cost_weight(&self) -> f64 {
        // Calibrated so a paper-shaped run (205k voxels × 600 loops on the
        // default 64-measurement protocol) lands near Table III's 41.3 s of
        // GPU time: one MH loop ≈ 0.08 × 9 × n_meas tracking-step
        // equivalents.
        NUM_PARAMETERS as f64 * self.acq.len() as f64 * 0.08
    }

    fn step(&self, lane: &mut McmcLane) -> LaneStatus {
        let (_, finished) = self.run_wavefront(std::slice::from_mut(lane), 1);
        if finished[0] {
            LaneStatus::Finished
        } else {
            LaneStatus::Continue
        }
    }

    /// Each lane runs `min(budget, loops left)` loops; a call on a finished
    /// chain counts one executed loop, as a `step` does.
    fn run_wavefront(&self, chunk: &mut [McmcLane], max_iters: u32) -> (Vec<u32>, Vec<bool>) {
        let num_loops = self.config.num_loops();
        let budget: Vec<u32> = chunk
            .iter()
            .map(|lane| num_loops.saturating_sub(lane.loops_done).min(max_iters))
            .collect();
        let rounds = budget.iter().copied().max().unwrap_or(0);
        if rounds > 0 {
            WAVEFRONT_CACHE.with(|cache| {
                let mut cache = cache.borrow_mut();
                cache.bind(self.acq, self.prior, chunk);
                let mut active = vec![false; chunk.len()];
                for round in 0..rounds {
                    for (on, &b) in active.iter_mut().zip(&budget) {
                        *on = round < b;
                    }
                    cache.step_loop(self.acq, chunk, &active);
                    for (lane, &on) in chunk.iter_mut().zip(&active) {
                        if on {
                            lane.finish_loop(self.config);
                        }
                    }
                }
            });
        }
        chunk
            .iter()
            .zip(&budget)
            .map(|(lane, &b)| {
                let finished = max_iters > 0 && lane.loops_done >= num_loops;
                (if finished && b == 0 { 1 } else { b }, finished)
            })
            .unzip()
    }
}

thread_local! {
    /// Reusable wavefront cache: one per launch worker thread, bound to each
    /// wavefront in turn for that wavefront's whole run through a launch,
    /// so the hot loop allocates nothing in steady state.
    static WAVEFRONT_CACHE: RefCell<WavefrontBallSticks> =
        RefCell::new(WavefrontBallSticks::new());
}

/// Report of a GPU-simulated MCMC run.
#[derive(Debug, Clone)]
pub struct McmcGpuReport {
    /// The six 4-D sample volumes.
    pub samples: SampleVolumes,
    /// Timing breakdown of the run.
    pub ledger: TimingLedger,
    /// Number of voxels estimated.
    pub voxels: usize,
    /// Chain-state snapshots taken (0 when checkpointing is disabled).
    pub checkpoints: u64,
}

/// Build one [`McmcLane`] per masked voxel, seeded per-voxel so results are
/// independent of how lanes are later partitioned across devices. Each
/// lane's tensor-fit start is its own, so lanes build in parallel (in mask
/// order).
fn build_mcmc_lanes(
    acq: &Acquisition,
    dwi: &Volume4<f32>,
    mask: &Mask,
    prior: PriorConfig,
    config: ChainConfig,
    seed: u64,
) -> Vec<McmcLane> {
    par_map(mask.indices(), |voxel_index| {
        let signal: Vec<f64> = dwi
            .voxel_at(voxel_index)
            .iter()
            .map(|&v| v as f64)
            .collect();
        let posterior = BallSticksPosterior::new(acq, &signal, prior);
        let mut init = posterior.initial_params();
        if prior.max_sticks == 1 {
            init.f2 = 0.0;
        }
        let scales = default_proposal_scales(init.s0);
        let target =
            |p: &[f64; NUM_PARAMETERS]| posterior.log_posterior(&BallSticksParams::from_array(*p));
        let mut sampler = MhSampler::new(&target, init.to_array(), scales, config.adapt);
        if prior.max_sticks == 1 {
            use tracto_diffusion::posterior::param_index;
            sampler.freeze(param_index::F2);
            sampler.freeze(param_index::TH2);
            sampler.freeze(param_index::PH2);
        }
        McmcLane {
            voxel_index,
            signal,
            sampler,
            rng: HybridTaus::seed_stream(seed, voxel_index as u64),
            loops_done: 0,
            samples: Vec::with_capacity(config.num_samples as usize),
        }
    })
}

/// Assemble downloaded lanes into the six sample volumes.
fn assemble_volumes(
    lanes: &[McmcLane],
    dwi: &Volume4<f32>,
    config: ChainConfig,
) -> (SampleVolumes, usize) {
    let mut volumes = SampleVolumes::zeros(dwi.dims(), config.num_samples as usize);
    let dims = dwi.dims();
    let mut voxels = 0;
    for lane in lanes {
        let c = dims.coords(lane.voxel_index);
        let out = tracto_mcmc::chain::ChainOutput::<NUM_PARAMETERS> {
            samples: lane.samples.clone(),
            final_scales: *lane.sampler.scales(),
            final_acceptance: lane.sampler.recent_acceptance_rates(),
        };
        volumes.store_chain(c, &out);
        voxels += 1;
    }
    (volumes, voxels)
}

/// Run Step 1 on one simulated GPU: upload the DWI volume, run one lane per
/// masked voxel for `NumLoops` iterations, download the six sample volumes.
///
/// Results are bit-identical to
/// [`VoxelEstimator::run_voxel`](tracto_mcmc::VoxelEstimator) with the same
/// `(seed, voxel)` pairs, since lanes execute the same chain code with the
/// same per-voxel RNG streams. Neither argument below changes them; each
/// lane owns its RNG stream and guards on its own loop counter.
///
/// * `streams` splits the masked voxels into that many contiguous lane
///   groups, each bound to its own stream, so one group's sample-volume
///   readback hides behind the next group's kernel on the simulated clock.
///   Chains are perfectly balanced, so the kernels serialize on the single
///   compute engine and only transfers overlap — exactly what real streams
///   buy on one GPU. With one stream the clock is the plain sequential sum.
/// * `checkpoint` makes the run durable and resumable: the `NumLoops`
///   launch is split into `policy.segments(..)` budgets, and after each
///   non-final segment the full chain state (sampler, RNG, kept samples)
///   is read back ([`CHECKPOINT_LANE_BYTES`] per lane) and written through
///   the store — atomically, so a process killed at any instant leaves a
///   complete snapshot from at most one checkpoint interval ago. On entry,
///   a valid snapshot for the key is restored and its segments skipped; a
///   corrupt or mismatched one emits `ckpt.corrupt` and the run restarts
///   from scratch. The snapshot is discarded once the run completes.
///
/// Errors come from the snapshot store, or from a device whose fault plan
/// fails a launch or transfer.
#[allow(clippy::too_many_arguments)]
pub fn run_mcmc_gpu(
    gpu: &mut Gpu,
    acq: &Acquisition,
    dwi: &Volume4<f32>,
    mask: &Mask,
    prior: PriorConfig,
    config: ChainConfig,
    seed: u64,
    streams: usize,
    checkpoint: Option<(CheckpointPolicy, &PersistentCheckpoint<'_>)>,
) -> TractoResult<McmcGpuReport> {
    assert_eq!(dwi.nt(), acq.len(), "DWI volume count must match protocol");
    assert_eq!(dwi.dims(), mask.dims(), "mask dims must match DWI dims");
    gpu.reset();

    // Upload the 4-D DWI volume plus b-values/gradients (Fig. 1 inputs).
    // Every group shares them; charging them to stream 0 makes each
    // group's first launch wait on them (the groups' kernels serialize on
    // the compute engine behind stream 0's).
    let dwi_bytes = dwi.len() as u64 * 4;
    let protocol_bytes = acq.len() as u64 * 16; // b + 3-vector per volume
    gpu.try_transfer_to_device_on(dwi_bytes + protocol_bytes, 0)?;

    let (policy, persist) = checkpoint.unzip();
    let mut lanes = build_mcmc_lanes(acq, dwi, mask, prior, config, seed);
    let segments_done = match persist {
        Some(persist) => resume_from_snapshot(persist, &mut lanes, config, seed, || {
            build_mcmc_lanes(acq, dwi, mask, prior, config, seed)
        })?,
        None => 0,
    };

    // Contiguous lane groups, one per stream. An empty mask still forms one
    // (empty) group, so every stream count launches and downloads alike.
    let total = lanes.len();
    let per_group = total.div_ceil(streams.clamp(1, total.max(1))).max(1);
    let groups: Vec<Range<usize>> = (0..total.max(1))
        .step_by(per_group)
        .map(|start| start..(start + per_group).min(total))
        .collect();

    let kernel = McmcKernel { acq, prior, config };
    // Every chain needs exactly NumLoops iterations: without checkpoints,
    // one balanced launch per group.
    let segments = policy.map_or_else(
        || vec![config.num_loops()],
        |policy| policy.segments(config.num_loops()),
    );
    let mut checkpoints = 0u64;
    for (i, &budget) in segments.iter().enumerate().skip(segments_done as usize) {
        // Issued in stream order so the clock pipelines group g's
        // transfers behind group g+1's kernel.
        for (g, range) in groups.iter().enumerate() {
            gpu.try_launch_on(&kernel, &mut lanes[range.clone()], budget, g)?;
        }
        if i + 1 == segments.len() {
            continue;
        }
        // The simulated device pays the same per-lane snapshot transfer as
        // in-memory checkpointing; durability adds host-side fsync cost
        // only (measured by the checkpoint_persistence bench).
        for (g, range) in groups.iter().enumerate() {
            gpu.try_transfer_to_host_on(range.len() as u64 * CHECKPOINT_LANE_BYTES, g)?;
        }
        if let Some(persist) = persist {
            let key = persist.key.as_str();
            let payload = encode_chain_state(&lanes, config, seed, i as u32 + 1);
            persist.store.save(key, &payload)?;
            checkpoints += 1;
            persist.tracer.emit(
                "ckpt.save",
                &[
                    ("key", Value::Text(key.to_string())),
                    ("segment", (i as u64 + 1).into()),
                    ("bytes", (payload.len() as u64).into()),
                ],
            );
        }
    }

    // Download the six sample volumes, each group its lane share.
    let out_bytes = 6 * dwi.dims().len() as u64 * config.num_samples as u64 * 4;
    let mut charged = 0u64;
    for (g, range) in groups.iter().enumerate() {
        let share = if g + 1 == groups.len() {
            out_bytes - charged
        } else {
            out_bytes * range.len() as u64 / total as u64
        };
        charged += share;
        gpu.try_transfer_to_host_on(share, g)?;
    }

    let (volumes, voxels) = assemble_volumes(&lanes, dwi, config);
    if let Some(persist) = persist {
        persist.store.discard(&persist.key)?;
    }

    Ok(McmcGpuReport {
        samples: volumes,
        ledger: *gpu.ledger(),
        voxels,
        checkpoints,
    })
}

/// Run Step 1 across a device pool with chain checkpointing.
///
/// The single `NumLoops` launch is split into `checkpoint.segments(..)`
/// budgets; after each non-final segment the kept chain state is
/// snapshotted to the host ([`CHECKPOINT_LANE_BYTES`] per lane). Each chain
/// guards on its own loop counter, so segmentation — and any mid-segment
/// device-loss failover inside
/// [`launch_partitioned`](MultiGpu::launch_partitioned) — leaves the
/// posterior samples bit-identical to [`run_mcmc_gpu`] with the same seed:
/// a failed launch never advances a lane, so a lost device costs only the
/// replay time since the last completed segment, never a burn-in re-run.
///
/// Errors with [`tracto_trace::TractoError::Capacity`] if every device in
/// the pool is lost.
#[allow(clippy::too_many_arguments)]
pub fn run_mcmc_multi(
    multi: &mut MultiGpu,
    acq: &Acquisition,
    dwi: &Volume4<f32>,
    mask: &Mask,
    prior: PriorConfig,
    config: ChainConfig,
    seed: u64,
    checkpoint: CheckpointPolicy,
) -> TractoResult<McmcGpuReport> {
    assert_eq!(dwi.nt(), acq.len(), "DWI volume count must match protocol");
    assert_eq!(dwi.dims(), mask.dims(), "mask dims must match DWI dims");

    // Every device needs the full DWI volume and protocol.
    let dwi_bytes = dwi.len() as u64 * 4;
    let protocol_bytes = acq.len() as u64 * 16;
    multi.broadcast_to_devices(dwi_bytes + protocol_bytes);

    let mut lanes = build_mcmc_lanes(acq, dwi, mask, prior, config, seed);
    let kernel = McmcKernel { acq, prior, config };

    let segments = checkpoint.segments(config.num_loops());
    let mut checkpoints = 0u64;
    for (i, &budget) in segments.iter().enumerate() {
        multi.launch_partitioned(&kernel, &mut lanes, budget)?;
        if i + 1 < segments.len() {
            // Snapshot chain state so a later device loss replays at most
            // one segment.
            multi.gather_to_host(lanes.len() as u64 * CHECKPOINT_LANE_BYTES);
            checkpoints += 1;
        }
    }

    // Download the six sample volumes.
    let out_bytes = 6 * dwi.dims().len() as u64 * config.num_samples as u64 * 4;
    multi.gather_to_host(out_bytes);

    let (volumes, voxels) = assemble_volumes(&lanes, dwi, config);

    Ok(McmcGpuReport {
        samples: volumes,
        ledger: multi.aggregate_ledger(),
        voxels,
        checkpoints,
    })
}

/// Where a persistently checkpointed run stores its snapshots: a
/// [`CheckpointStore`], the key naming this chain (the serve layer uses the
/// Step-1 content hash, so a recovered job recomputes the same key and
/// finds its own snapshot), and a tracer for `ckpt.*` lifecycle events.
pub struct PersistentCheckpoint<'a> {
    /// The snapshot store (under the service's `--state-dir`).
    pub store: &'a CheckpointStore,
    /// Snapshot key; must satisfy the store's key rules.
    pub key: String,
    /// Receives `ckpt.save` / `ckpt.resume` / `ckpt.corrupt` events.
    pub tracer: Tracer,
}

// --- chain-state snapshot codec -------------------------------------------
//
// The payload the CheckpointStore envelopes for one MCMC run: a fingerprint
// of the chain schedule, then the full mutable state of every lane. Every
// number is written as little-endian bit patterns (f64::to_bits for floats),
// so restore is exact — no text round-trip, no rounding.

struct ByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.pos + n > self.bytes.len() {
            return Err(format!(
                "snapshot payload truncated at byte {} (wanted {n} more of {})",
                self.pos,
                self.bytes.len()
            ));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, String> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn f64_array<const N: usize>(&mut self) -> Result<[f64; N], String> {
        let mut out = [0.0; N];
        for v in &mut out {
            *v = self.f64()?;
        }
        Ok(out)
    }

    fn u32_array<const N: usize>(&mut self) -> Result<[u32; N], String> {
        let mut out = [0; N];
        for v in &mut out {
            *v = self.u32()?;
        }
        Ok(out)
    }
}

fn encode_chain_state(
    lanes: &[McmcLane],
    config: ChainConfig,
    seed: u64,
    segments_done: u32,
) -> Vec<u8> {
    let mut buf = Vec::with_capacity(32 + lanes.len() * 256);
    buf.extend_from_slice(&config.num_burnin.to_le_bytes());
    buf.extend_from_slice(&config.num_samples.to_le_bytes());
    buf.extend_from_slice(&config.sample_interval.to_le_bytes());
    buf.extend_from_slice(&segments_done.to_le_bytes());
    buf.extend_from_slice(&seed.to_le_bytes());
    buf.extend_from_slice(&(lanes.len() as u64).to_le_bytes());
    for lane in lanes {
        buf.extend_from_slice(&(lane.voxel_index as u64).to_le_bytes());
        buf.extend_from_slice(&lane.loops_done.to_le_bytes());
        for z in lane.rng.state() {
            buf.extend_from_slice(&z.to_le_bytes());
        }
        let s = lane.sampler.snapshot();
        for p in s.params {
            buf.extend_from_slice(&p.to_bits().to_le_bytes());
        }
        buf.extend_from_slice(&s.log_density.to_bits().to_le_bytes());
        for sc in s.scales {
            buf.extend_from_slice(&sc.to_bits().to_le_bytes());
        }
        for a in s.accepted {
            buf.extend_from_slice(&a.to_le_bytes());
        }
        for p in s.proposed {
            buf.extend_from_slice(&p.to_le_bytes());
        }
        buf.extend_from_slice(&s.loops_done.to_le_bytes());
        for r in s.last_window_rates {
            buf.extend_from_slice(&r.to_bits().to_le_bytes());
        }
        buf.extend_from_slice(&(lane.samples.len() as u32).to_le_bytes());
        for sample in &lane.samples {
            for v in sample {
                buf.extend_from_slice(&v.to_bits().to_le_bytes());
            }
        }
    }
    buf
}

/// Apply a decoded snapshot onto freshly built lanes. Returns how many
/// segments the snapshotted run had completed, or a reason string when the
/// payload does not belong to this `(lanes, config, seed)` run — the caller
/// then restarts from scratch exactly as for a corrupt envelope.
fn restore_chain_state(
    lanes: &mut [McmcLane],
    config: ChainConfig,
    seed: u64,
    payload: &[u8],
) -> Result<u32, String> {
    let mut r = ByteReader {
        bytes: payload,
        pos: 0,
    };
    let (burnin, samples, interval) = (r.u32()?, r.u32()?, r.u32()?);
    let segments_done = r.u32()?;
    let snap_seed = r.u64()?;
    let lane_count = r.u64()?;
    if (burnin, samples, interval)
        != (
            config.num_burnin,
            config.num_samples,
            config.sample_interval,
        )
    {
        return Err(format!(
            "chain schedule mismatch: snapshot {burnin}/{samples}/{interval}, \
             run {}/{}/{}",
            config.num_burnin, config.num_samples, config.sample_interval
        ));
    }
    if snap_seed != seed {
        return Err(format!("seed mismatch: snapshot {snap_seed}, run {seed}"));
    }
    if lane_count != lanes.len() as u64 {
        return Err(format!(
            "lane count mismatch: snapshot {lane_count}, run {}",
            lanes.len()
        ));
    }
    for lane in lanes.iter_mut() {
        let voxel = r.u64()?;
        if voxel != lane.voxel_index as u64 {
            return Err(format!(
                "voxel order mismatch: snapshot {voxel}, run {}",
                lane.voxel_index
            ));
        }
        let loops_done = r.u32()?;
        let rng_state = r.u32_array::<4>()?;
        let state = MhState::<NUM_PARAMETERS> {
            params: r.f64_array()?,
            log_density: r.f64()?,
            scales: r.f64_array()?,
            accepted: r.u32_array()?,
            proposed: r.u32_array()?,
            loops_done: r.u32()?,
            last_window_rates: r.f64_array()?,
        };
        let n_samples = r.u32()? as usize;
        if n_samples > config.num_samples as usize {
            return Err(format!(
                "snapshot holds {n_samples} samples, schedule allows {}",
                config.num_samples
            ));
        }
        let mut collected = Vec::with_capacity(config.num_samples as usize);
        for _ in 0..n_samples {
            collected.push(r.f64_array::<NUM_PARAMETERS>()?);
        }
        // The freeze mask is configuration: carry it over from the freshly
        // built sampler rather than trusting bytes on disk.
        let mut frozen = [false; NUM_PARAMETERS];
        for (j, f) in frozen.iter_mut().enumerate() {
            *f = lane.sampler.is_frozen(j);
        }
        lane.sampler = MhSampler::restore(state, config.adapt, frozen);
        lane.rng = HybridTaus::from_state(rng_state);
        lane.loops_done = loops_done;
        lane.samples = collected;
    }
    if r.pos != payload.len() {
        return Err(format!(
            "snapshot payload has {} trailing bytes",
            payload.len() - r.pos
        ));
    }
    Ok(segments_done)
}

/// Restore `persist`'s snapshot onto `lanes` and return how many
/// checkpoint segments it covers (0 when there is none). A corrupt or
/// mismatched snapshot emits `ckpt.corrupt` and the run restarts from
/// `fresh()` lanes.
fn resume_from_snapshot(
    persist: &PersistentCheckpoint<'_>,
    lanes: &mut Vec<McmcLane>,
    config: ChainConfig,
    seed: u64,
    fresh: impl FnOnce() -> Vec<McmcLane>,
) -> TractoResult<u32> {
    let key = persist.key.as_str();
    let corrupt = |reason: String| {
        persist.tracer.emit(
            "ckpt.corrupt",
            &[
                ("key", Value::Text(key.to_string())),
                ("reason", Value::Text(reason)),
            ],
        );
    };
    match persist.store.load(key)? {
        SnapshotLoad::Missing => Ok(0),
        SnapshotLoad::Corrupt(reason) => {
            corrupt(reason);
            Ok(0)
        }
        SnapshotLoad::Snapshot(payload) => {
            match restore_chain_state(lanes, config, seed, &payload) {
                Ok(done) => {
                    persist.tracer.emit(
                        "ckpt.resume",
                        &[
                            ("key", Value::Text(key.to_string())),
                            ("segments_done", u64::from(done).into()),
                        ],
                    );
                    Ok(done)
                }
                Err(reason) => {
                    // Structurally valid envelope, wrong contents: same
                    // fallback as corruption — restart from scratch.
                    persist.store.discard(key)?;
                    *lanes = fresh();
                    corrupt(reason);
                    Ok(0)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracto_gpu_sim::DeviceConfig;
    use tracto_mcmc::VoxelEstimator;
    use tracto_phantom::{datasets, Dataset};
    use tracto_volume::{Dim3, Ijk};

    fn small_gpu() -> Gpu {
        Gpu::new(DeviceConfig {
            wavefront_size: 8,
            num_compute_units: 2,
            waves_per_cu: 2,
            ..DeviceConfig::radeon_5870()
        })
    }

    /// Step 1 on `gpu` with the default prior.
    fn estimate(
        gpu: &mut Gpu,
        ds: &Dataset,
        mask: &Mask,
        config: ChainConfig,
        seed: u64,
        streams: usize,
        checkpoint: Option<(CheckpointPolicy, &PersistentCheckpoint<'_>)>,
    ) -> McmcGpuReport {
        let prior = PriorConfig::default();
        run_mcmc_gpu(
            gpu, &ds.acq, &ds.dwi, mask, prior, config, seed, streams, checkpoint,
        )
        .unwrap()
    }

    #[test]
    fn gpu_mcmc_matches_cpu_reference_exactly() {
        let ds = datasets::single_bundle(Dim3::new(6, 4, 4), Some(25.0), 3);
        let mask = Mask::from_fn(ds.dwi.dims(), |c| c.j == 2 && c.k == 2);
        let config = ChainConfig::fast_test();
        let prior = PriorConfig::default();
        let mut gpu = small_gpu();
        let gpu_out = estimate(&mut gpu, &ds, &mask, config, 77, 1, None);
        let cpu_out = VoxelEstimator::new(&ds.acq, &ds.dwi, &mask, prior, config, 77).run_serial();
        assert_eq!(
            gpu_out.samples.f1, cpu_out.f1,
            "f1 volumes must be bit-identical"
        );
        assert_eq!(gpu_out.samples.th1, cpu_out.th1);
        assert_eq!(gpu_out.samples.ph2, cpu_out.ph2);
        assert_eq!(gpu_out.voxels, mask.count());
    }

    #[test]
    fn mcmc_lanes_perfectly_balanced() {
        let ds = datasets::single_bundle(Dim3::new(6, 4, 4), None, 3);
        let mask = Mask::from_fn(ds.dwi.dims(), |c| c.k == 2);
        let config = ChainConfig::fast_test();
        let mut gpu = small_gpu();
        let out = estimate(&mut gpu, &ds, &mask, config, 5, 1, None);
        // All lanes run NumLoops: zero lockstep waste.
        assert!(
            (out.ledger.simd_utilization() - 1.0).abs() < 1e-12,
            "utilization {}",
            out.ledger.simd_utilization()
        );
        assert_eq!(out.ledger.launches, 1);
    }

    #[test]
    fn streamed_mcmc_bit_identical_to_serialized() {
        let ds = datasets::single_bundle(Dim3::new(6, 4, 4), Some(25.0), 3);
        let mask = Mask::from_fn(ds.dwi.dims(), |c| c.j == 2 && c.k == 2);
        let config = ChainConfig::fast_test();
        let mut gpu = small_gpu();
        let serialized = estimate(&mut gpu, &ds, &mask, config, 77, 1, None);
        for streams in [2usize, 3, 5] {
            let mut gpu = small_gpu();
            let streamed = estimate(&mut gpu, &ds, &mask, config, 77, streams, None);
            assert_eq!(
                serialized.samples.f1, streamed.samples.f1,
                "{streams} streams: f1 must be bit-identical"
            );
            assert_eq!(serialized.samples.th1, streamed.samples.th1);
            assert_eq!(serialized.samples.ph2, streamed.samples.ph2);
            assert_eq!(serialized.voxels, streamed.voxels);
            // Same total traffic, just charged to different streams.
            assert_eq!(serialized.ledger.bytes_h2d, streamed.ledger.bytes_h2d);
            assert_eq!(serialized.ledger.bytes_d2h, streamed.ledger.bytes_d2h);
        }
    }

    #[test]
    fn streamed_mcmc_overlaps_readbacks_behind_kernels() {
        let ds = datasets::single_bundle(Dim3::new(6, 4, 4), Some(25.0), 3);
        let mask = Mask::from_fn(ds.dwi.dims(), |c| c.j == 2 && c.k == 2);
        let config = ChainConfig::fast_test();
        let mut gpu = small_gpu();
        estimate(&mut gpu, &ds, &mask, config, 77, 3, None);
        assert!(
            gpu.overlap_saved_s() > 0.0,
            "a group's readback should hide behind the next group's kernel"
        );
        assert!(gpu.clock_s() < gpu.stream_clock().serial_s());
    }

    #[test]
    fn single_stream_delegates_to_serialized_path() {
        // One stream is the serialized path: every charge starts when the
        // previous one ends, so the clock is the plain sequential sum.
        let ds = datasets::single_bundle(Dim3::new(6, 4, 4), Some(25.0), 3);
        let mask = Mask::from_fn(ds.dwi.dims(), |c| c.j == 2 && c.k == 2);
        let config = ChainConfig::fast_test();
        let mut gpu = small_gpu();
        let out = estimate(&mut gpu, &ds, &mask, config, 9, 1, None);
        assert_eq!(out.ledger.launches, 1);
        assert_eq!(gpu.clock_s(), gpu.stream_clock().serial_s());
        assert_eq!(gpu.overlap_saved_s(), 0.0);
    }

    #[test]
    fn every_stream_count_downloads_all_six_sample_volumes() {
        // An empty mask has no lanes to split into groups; it must still
        // launch once and read back the (zero-filled) sample volumes.
        let ds = datasets::single_bundle(Dim3::new(6, 4, 4), None, 3);
        let config = ChainConfig::fast_test();
        let sample_bytes = 6 * ds.dwi.dims().len() as u64 * config.num_samples as u64 * 4;
        let empty = Mask::from_fn(ds.dwi.dims(), |_| false);
        let row = Mask::from_fn(ds.dwi.dims(), |c| c.j == 2 && c.k == 2);
        for mask in [&empty, &row] {
            let mut gpu = small_gpu();
            let one = estimate(&mut gpu, &ds, mask, config, 5, 1, None);
            let one_clock = gpu.clock_s();
            assert_eq!(one.ledger.launches, 1);
            for streams in [1usize, 2, 4] {
                let mut gpu = small_gpu();
                let out = estimate(&mut gpu, &ds, mask, config, 5, streams, None);
                assert_eq!(
                    out.ledger.bytes_d2h,
                    sample_bytes,
                    "{} voxels, {streams} streams",
                    mask.count()
                );
                assert!(out.ledger.launches >= 1);
                assert_eq!(out.samples.f1, one.samples.f1);
                if mask.count() == 0 {
                    assert_eq!(out.ledger.launches, 1);
                    assert_eq!(gpu.clock_s(), one_clock, "{streams} streams");
                }
            }
        }
    }

    #[test]
    fn transfers_match_volume_sizes() {
        let ds = datasets::single_bundle(Dim3::new(6, 4, 4), None, 3);
        let mask = Mask::from_fn(ds.dwi.dims(), |c| c == Ijk::new(3, 2, 2));
        let config = ChainConfig::fast_test();
        let mut gpu = small_gpu();
        let out = estimate(&mut gpu, &ds, &mask, config, 5, 1, None);
        let dwi_bytes = ds.dwi.len() as u64 * 4;
        assert!(out.ledger.bytes_h2d >= dwi_bytes);
        let sample_bytes = 6 * ds.dwi.dims().len() as u64 * config.num_samples as u64 * 4;
        assert_eq!(out.ledger.bytes_d2h, sample_bytes);
    }

    #[test]
    fn multi_device_checkpointed_matches_single_device_exactly() {
        let ds = datasets::single_bundle(Dim3::new(6, 4, 4), Some(25.0), 3);
        let mask = Mask::from_fn(ds.dwi.dims(), |c| c.j == 2 && c.k == 2);
        let config = ChainConfig::fast_test();
        let prior = PriorConfig::default();
        let mut gpu = small_gpu();
        let single = estimate(&mut gpu, &ds, &mask, config, 77, 1, None);
        let mut multi = MultiGpu::new(small_gpu().config().clone(), 3);
        let multi_out = run_mcmc_multi(
            &mut multi,
            &ds.acq,
            &ds.dwi,
            &mask,
            prior,
            config,
            77,
            CheckpointPolicy::every(3),
        )
        .unwrap();
        assert_eq!(single.samples.f1, multi_out.samples.f1);
        assert_eq!(single.samples.th1, multi_out.samples.th1);
        assert_eq!(single.samples.ph2, multi_out.samples.ph2);
        assert_eq!(single.voxels, multi_out.voxels);
        assert!(multi_out.checkpoints > 0, "policy of 3 loops snapshots");
        // Snapshots are charged to the transfer ledger.
        assert!(multi_out.ledger.bytes_d2h > single.ledger.bytes_d2h);
    }

    #[test]
    fn device_loss_mid_estimation_resumes_from_checkpoint() {
        use tracto_gpu_sim::FaultPlan;

        let ds = datasets::single_bundle(Dim3::new(6, 4, 4), Some(25.0), 3);
        let mask = Mask::from_fn(ds.dwi.dims(), |c| c.j == 2 && c.k == 2);
        let config = ChainConfig::fast_test();
        let prior = PriorConfig::default();
        let run = |plan: Option<&FaultPlan>| {
            let mut multi = MultiGpu::new(small_gpu().config().clone(), 3);
            if let Some(p) = plan {
                multi.set_fault_plan(p);
            }
            run_mcmc_multi(
                &mut multi,
                &ds.acq,
                &ds.dwi,
                &mask,
                prior,
                config,
                77,
                CheckpointPolicy::every(3),
            )
            .map(|r| {
                (
                    r,
                    multi.failovers(),
                    multi.aggregate_ledger().useful_iterations,
                )
            })
        };
        let (clean, _, clean_useful) = run(None).unwrap();
        // Lose device 1 partway through the segmented launches.
        let plan = FaultPlan::parse("fault 1 2 device-lost").unwrap();
        let (faulted, failovers, faulted_useful) = run(Some(&plan)).unwrap();
        assert_eq!(clean.samples.f1, faulted.samples.f1, "bit-identical");
        assert_eq!(clean.samples.th1, faulted.samples.th1);
        assert_eq!(failovers, 1);
        // No burn-in re-run: failed launches never advance a lane, so the
        // faulted run performs exactly the same useful work.
        assert_eq!(clean_useful, faulted_useful);
    }

    #[test]
    fn all_devices_lost_surfaces_capacity_error() {
        use tracto_gpu_sim::FaultPlan;

        let ds = datasets::single_bundle(Dim3::new(6, 4, 4), None, 3);
        let mask = Mask::from_fn(ds.dwi.dims(), |c| c == Ijk::new(3, 2, 2));
        let plan = FaultPlan::parse("fault 0 0 device-lost\nfault 1 0 device-lost").unwrap();
        let mut multi = MultiGpu::new(small_gpu().config().clone(), 2);
        multi.set_fault_plan(&plan);
        let err = run_mcmc_multi(
            &mut multi,
            &ds.acq,
            &ds.dwi,
            &mask,
            PriorConfig::default(),
            ChainConfig::fast_test(),
            5,
            CheckpointPolicy::disabled(),
        )
        .expect_err("no devices left");
        assert_eq!(err.kind(), tracto_trace::ErrorKind::Capacity);
    }

    fn tmp_store(tag: &str) -> (std::path::PathBuf, CheckpointStore) {
        let dir = std::env::temp_dir().join(format!(
            "tracto-est-ckpt-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let store = CheckpointStore::open(&dir).unwrap();
        (dir, store)
    }

    /// Simulate a crash: run only `crash_after` segments of the schedule,
    /// persist the snapshot exactly as the checkpointed runner would, and
    /// throw everything else away.
    #[allow(clippy::too_many_arguments)]
    fn run_partially_then_die(
        ds: &Dataset,
        mask: &Mask,
        config: ChainConfig,
        seed: u64,
        policy: CheckpointPolicy,
        crash_after: usize,
        store: &CheckpointStore,
        key: &str,
    ) {
        let prior = PriorConfig::default();
        let mut gpu = small_gpu();
        let mut lanes = build_mcmc_lanes(&ds.acq, &ds.dwi, mask, prior, config, seed);
        let kernel = McmcKernel {
            acq: &ds.acq,
            prior,
            config,
        };
        let segments = policy.segments(config.num_loops());
        assert!(crash_after < segments.len(), "crash point must be mid-run");
        for (i, &budget) in segments.iter().take(crash_after).enumerate() {
            gpu.launch(&kernel, &mut lanes, budget);
            store
                .save(key, &encode_chain_state(&lanes, config, seed, i as u32 + 1))
                .unwrap();
        }
        // ... SIGKILL: lanes dropped, only the store survives.
    }

    #[test]
    fn interrupted_run_resumes_bit_identical_to_uninterrupted() {
        let ds = datasets::single_bundle(Dim3::new(6, 4, 4), Some(25.0), 3);
        let mask = Mask::from_fn(ds.dwi.dims(), |c| c.j == 2 && c.k == 2);
        let config = ChainConfig::fast_test();
        let policy = CheckpointPolicy::every(3);
        let mut gpu = small_gpu();
        let clean = estimate(&mut gpu, &ds, &mask, config, 77, 1, None);

        let n_segments = policy.segments(config.num_loops()).len();
        assert!(
            n_segments >= 3,
            "schedule too short to test mid-run crashes"
        );
        for crash_after in 1..n_segments {
            let (dir, store) = tmp_store(&format!("resume{crash_after}"));
            run_partially_then_die(&ds, &mask, config, 77, policy, crash_after, &store, "job");
            // "Restart": a fresh checkpointed run over the same store.
            let ring = std::sync::Arc::new(tracto_trace::RingSink::new(4096));
            let persist = PersistentCheckpoint {
                store: &store,
                key: "job".to_string(),
                tracer: Tracer::shared(ring.clone()),
            };
            let mut gpu2 = small_gpu();
            let resumed = estimate(
                &mut gpu2,
                &ds,
                &mask,
                config,
                77,
                1,
                Some((policy, &persist)),
            );
            assert_eq!(
                clean.samples.f1, resumed.samples.f1,
                "crash after {crash_after} segment(s): f1 must be bit-identical"
            );
            assert_eq!(clean.samples.th1, resumed.samples.th1);
            assert_eq!(clean.samples.ph2, resumed.samples.ph2);
            assert_eq!(clean.voxels, resumed.voxels);
            assert_eq!(ring.count("ckpt.resume"), 1, "crash {crash_after}");
            assert_eq!(ring.count("ckpt.corrupt"), 0);
            assert_eq!(
                store.load("job").unwrap(),
                SnapshotLoad::Missing,
                "snapshot discarded after completion"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn corrupt_snapshot_restarts_from_scratch_with_trace_event() {
        let ds = datasets::single_bundle(Dim3::new(6, 4, 4), Some(25.0), 3);
        let mask = Mask::from_fn(ds.dwi.dims(), |c| c.j == 2 && c.k == 2);
        let config = ChainConfig::fast_test();
        let policy = CheckpointPolicy::every(3);
        let mut gpu = small_gpu();
        let clean = estimate(&mut gpu, &ds, &mask, config, 77, 1, None);

        let (dir, store) = tmp_store("corrupt");
        run_partially_then_die(&ds, &mask, config, 77, policy, 2, &store, "job");
        // Flip a payload byte: the envelope checksum must catch it.
        let path = dir.join("job.ckpt");
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();

        let ring = std::sync::Arc::new(tracto_trace::RingSink::new(4096));
        let persist = PersistentCheckpoint {
            store: &store,
            key: "job".to_string(),
            tracer: Tracer::shared(ring.clone()),
        };
        let mut gpu2 = small_gpu();
        let resumed = estimate(
            &mut gpu2,
            &ds,
            &mask,
            config,
            77,
            1,
            Some((policy, &persist)),
        );
        assert_eq!(ring.count("ckpt.corrupt"), 1, "corruption must be reported");
        assert_eq!(ring.count("ckpt.resume"), 0, "no resume from garbage");
        assert_eq!(
            clean.samples.f1, resumed.samples.f1,
            "restart is still exact"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mismatched_snapshot_is_rejected_not_resumed() {
        // A snapshot taken under a different seed shares the key (operator
        // error / key collision): the fingerprint rejects it and the run
        // restarts from scratch rather than splicing chains.
        let ds = datasets::single_bundle(Dim3::new(6, 4, 4), Some(25.0), 3);
        let mask = Mask::from_fn(ds.dwi.dims(), |c| c.j == 2 && c.k == 2);
        let config = ChainConfig::fast_test();
        let policy = CheckpointPolicy::every(3);
        let (dir, store) = tmp_store("mismatch");
        run_partially_then_die(&ds, &mask, config, 123, policy, 1, &store, "job");

        let ring = std::sync::Arc::new(tracto_trace::RingSink::new(4096));
        let persist = PersistentCheckpoint {
            store: &store,
            key: "job".to_string(),
            tracer: Tracer::shared(ring.clone()),
        };
        let mut gpu = small_gpu();
        let resumed = estimate(
            &mut gpu,
            &ds,
            &mask,
            config,
            77,
            1,
            Some((policy, &persist)),
        );
        let mut gpu2 = small_gpu();
        let clean = estimate(&mut gpu2, &ds, &mask, config, 77, 1, None);
        assert_eq!(clean.samples.f1, resumed.samples.f1);
        assert_eq!(ring.count("ckpt.corrupt"), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpointed_run_without_prior_snapshot_matches_plain_run() {
        let ds = datasets::single_bundle(Dim3::new(6, 4, 4), Some(25.0), 3);
        let mask = Mask::from_fn(ds.dwi.dims(), |c| c.j == 2 && c.k == 2);
        let config = ChainConfig::fast_test();
        let (dir, store) = tmp_store("fresh");
        let persist = PersistentCheckpoint {
            store: &store,
            key: "fresh".to_string(),
            tracer: Tracer::disabled(),
        };
        let mut gpu = small_gpu();
        let ckpt = estimate(
            &mut gpu,
            &ds,
            &mask,
            config,
            77,
            1,
            Some((CheckpointPolicy::every(3), &persist)),
        );
        let mut gpu2 = small_gpu();
        let plain = estimate(&mut gpu2, &ds, &mask, config, 77, 1, None);
        assert_eq!(ckpt.samples.f1, plain.samples.f1);
        assert_eq!(ckpt.samples.th2, plain.samples.th2);
        assert!(ckpt.checkpoints > 0, "snapshots were written");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn streamed_run_resumes_from_a_persisted_snapshot_bit_identical() {
        let ds = datasets::single_bundle(Dim3::new(6, 4, 4), Some(25.0), 3);
        let mask = Mask::from_fn(ds.dwi.dims(), |c| c.k == 2);
        let config = ChainConfig::fast_test();
        let policy = CheckpointPolicy::every(3);
        let mut gpu = small_gpu();
        let clean = estimate(&mut gpu, &ds, &mask, config, 77, 1, None);
        let n_segments = policy.segments(config.num_loops()).len();
        for streams in [2usize, 3] {
            let (dir, store) = tmp_store(&format!("streamed{streams}"));
            run_partially_then_die(
                &ds,
                &mask,
                config,
                77,
                policy,
                n_segments / 2,
                &store,
                "job",
            );
            let ring = std::sync::Arc::new(tracto_trace::RingSink::new(4096));
            let persist = PersistentCheckpoint {
                store: &store,
                key: "job".to_string(),
                tracer: Tracer::shared(ring.clone()),
            };
            let mut gpu = small_gpu();
            let resumed = estimate(
                &mut gpu,
                &ds,
                &mask,
                config,
                77,
                streams,
                Some((policy, &persist)),
            );
            assert_eq!(ring.count("ckpt.resume"), 1, "{streams} streams");
            assert_eq!(clean.samples.f1, resumed.samples.f1, "{streams} streams");
            assert_eq!(clean.samples.f2, resumed.samples.f2);
            assert_eq!(clean.samples.th1, resumed.samples.th1);
            assert_eq!(clean.samples.ph1, resumed.samples.ph1);
            assert_eq!(clean.samples.th2, resumed.samples.th2);
            assert_eq!(clean.samples.ph2, resumed.samples.ph2);
            assert_eq!(clean.voxels, resumed.voxels);
            assert!(resumed.checkpoints > 0, "later segments still snapshot");
            assert_eq!(store.load("job").unwrap(), SnapshotLoad::Missing);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    fn assert_volumes_eq(a: &SampleVolumes, b: &SampleVolumes, what: &str) {
        assert_eq!(a.f1, b.f1, "{what}: f1");
        assert_eq!(a.f2, b.f2, "{what}: f2");
        assert_eq!(a.th1, b.th1, "{what}: th1");
        assert_eq!(a.ph1, b.ph1, "{what}: ph1");
        assert_eq!(a.th2, b.th2, "{what}: th2");
        assert_eq!(a.ph2, b.ph2, "{what}: ph2");
    }

    #[test]
    fn segment_boundaries_leave_step1_bit_identical() {
        // Each lane binds and initializes its posterior cache once per
        // launch, so every checkpoint segment boundary is a cache rebuild.
        // Every schedule must still equal the unsegmented run and the plain
        // serial reference; every(1) rebuilds before every loop (the old
        // round-robin schedule), every(num_loops) is one launch.
        use tracto_diffusion::NoiseLikelihood;
        let ds = datasets::single_bundle(Dim3::new(6, 4, 4), Some(25.0), 3);
        let mask = Mask::from_fn(ds.dwi.dims(), |c| c.j == 2 && c.k == 2);
        let config = ChainConfig::fast_test();
        let priors = [
            ("two sticks", PriorConfig::default()),
            (
                "one stick (frozen f2/th2/ph2)",
                PriorConfig {
                    max_sticks: 1,
                    ..PriorConfig::default()
                },
            ),
            (
                "Rician exact fallback",
                PriorConfig {
                    likelihood: NoiseLikelihood::Rician,
                    ..PriorConfig::default()
                },
            ),
        ];
        for (p, (name, prior)) in priors.into_iter().enumerate() {
            let cpu = VoxelEstimator::new(&ds.acq, &ds.dwi, &mask, prior, config, 77).run_serial();
            let run = |checkpoint: Option<(CheckpointPolicy, &PersistentCheckpoint<'_>)>| {
                run_mcmc_gpu(
                    &mut small_gpu(),
                    &ds.acq,
                    &ds.dwi,
                    &mask,
                    prior,
                    config,
                    77,
                    1,
                    checkpoint,
                )
                .unwrap()
            };
            let whole = run(None);
            assert_volumes_eq(
                &whole.samples,
                &cpu,
                &format!("{name}: one launch vs serial"),
            );
            for k in [1, 7, config.num_loops()] {
                let (dir, store) = tmp_store(&format!("seg{p}-{k}"));
                let persist = PersistentCheckpoint {
                    store: &store,
                    key: "seg".to_string(),
                    tracer: Tracer::disabled(),
                };
                let policy = CheckpointPolicy::every(k);
                let segmented = run(Some((policy, &persist)));
                let what = format!("{name}: every({k})");
                assert_volumes_eq(&segmented.samples, &whole.samples, &what);
                assert_eq!(
                    segmented.checkpoints as usize,
                    policy.segments(config.num_loops()).len() - 1,
                    "{what}"
                );
                assert_eq!(
                    segmented.ledger.useful_iterations, whole.ledger.useful_iterations,
                    "{what}"
                );
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
    }

    #[test]
    fn sample_count_honored() {
        let ds = datasets::single_bundle(Dim3::new(6, 4, 4), None, 3);
        let mask = Mask::from_fn(ds.dwi.dims(), |c| c == Ijk::new(3, 2, 2));
        let config = ChainConfig::fast_test();
        let mut gpu = small_gpu();
        let out = estimate(&mut gpu, &ds, &mask, config, 5, 1, None);
        assert_eq!(out.samples.num_samples(), config.num_samples as usize);
    }
}
