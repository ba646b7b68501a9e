//! Multi-GPU extension.
//!
//! The paper's conclusion: "Our GPU-based framework has considerable
//! scalability, since the communication of parallel threads is negligible.
//! Little adaptation is needed to extend the current implementation to the
//! multi-GPU version, and proportional performance gains can be expected."
//! This module builds that version: lanes partition across `n` simulated
//! devices, each device runs its shard independently (kernel time is the
//! maximum across devices — they execute concurrently), while the single
//! host bus serializes transfers and the single CPU serializes reductions.

use crate::device::DeviceConfig;
use crate::fault::{DeviceHealth, FaultPlan};
use crate::kernel::{Gpu, LaunchStats, SimKernel};
use crate::ledger::TimingLedger;
use crate::stream::{ChargeSpan, StreamClock};
use tracto_trace::{Tracer, TractoError, TractoResult};

/// A group of identical simulated devices sharing one host.
///
/// Device faults injected by a [`FaultPlan`] are absorbed here where
/// possible: transient launch failures and transfer timeouts retry on the
/// same device, and a lost device's lane shard fails over to the survivors
/// (see [`launch_partitioned`](Self::launch_partitioned)). Only allocation
/// faults and the loss of *every* device escape to the caller.
///
/// Wall time is kept by a pool-level [`StreamClock`] with one compute
/// resource and one PCIe link per device plus one shared host CPU. The
/// legacy collective operations charge stream 0 — the serialized host loop
/// this pool always modelled — while the `stream_*` operations let callers
/// pin independent work to distinct streams so one job's transfers and
/// reductions hide behind another's kernels.
#[derive(Debug)]
pub struct MultiGpu {
    devices: Vec<Gpu>,
    clock: StreamClock,
    failovers: u64,
    fault_retries: u64,
    tracer: Tracer,
}

impl MultiGpu {
    /// Bring up `n` identical devices.
    ///
    /// # Panics
    ///
    /// Panics when `n == 0`; fallible callers use
    /// [`try_new`](Self::try_new).
    pub fn new(config: DeviceConfig, n: usize) -> Self {
        MultiGpu::try_new(config, n).expect("need at least one device")
    }

    /// Bring up `n` identical devices, rejecting `n == 0` with
    /// [`TractoError::Config`].
    pub fn try_new(config: DeviceConfig, n: usize) -> TractoResult<Self> {
        if n == 0 {
            return Err(TractoError::config("device pool needs at least one device"));
        }
        Ok(MultiGpu {
            devices: (0..n).map(|_| Gpu::new(config.clone())).collect(),
            clock: StreamClock::new(),
            failovers: 0,
            fault_retries: 0,
            tracer: Tracer::disabled(),
        })
    }

    /// Pool-clock resource id of device `d`'s compute engine.
    fn res_gpu(&self, d: usize) -> usize {
        d
    }

    /// Pool-clock resource id of device `d`'s PCIe link.
    fn res_dma(&self, d: usize) -> usize {
        self.devices.len() + d
    }

    /// Pool-clock resource id of the one shared host CPU.
    fn res_cpu(&self) -> usize {
        2 * self.devices.len()
    }

    /// Number of devices (including failed ones).
    pub fn num_devices(&self) -> usize {
        self.devices.len()
    }

    /// Number of devices still able to execute work (healthy or degraded).
    pub fn alive_devices(&self) -> usize {
        self.devices
            .iter()
            .filter(|d| d.health() != DeviceHealth::Failed)
            .count()
    }

    /// Per-device health, indexed by device id.
    pub fn health(&self) -> Vec<DeviceHealth> {
        self.devices.iter().map(|d| d.health()).collect()
    }

    /// How many lane shards have been re-partitioned off a lost device.
    pub fn failovers(&self) -> u64 {
        self.failovers
    }

    /// How many transient faults were absorbed by same-device retries.
    pub fn fault_retries(&self) -> u64 {
        self.fault_retries
    }

    /// Total faults injected across the pool so far.
    pub fn faults_injected(&self) -> u64 {
        self.devices.iter().map(|d| d.faults_injected()).sum()
    }

    /// Install a fault plan: device `d` receives the plan's events
    /// addressed to device `d`.
    pub fn set_fault_plan(&mut self, plan: &FaultPlan) {
        for (d, gpu) in self.devices.iter_mut().enumerate() {
            gpu.set_fault_plan(plan, d as u32);
        }
    }

    /// Attach a tracer to every device; device `d`'s events carry
    /// `device=d`.
    pub fn set_tracer(&mut self, tracer: &Tracer) {
        self.tracer = tracer.clone();
        for (d, gpu) in self.devices.iter_mut().enumerate() {
            gpu.set_tracer(tracer.clone(), d as u32);
        }
    }

    /// Indices of devices that can still execute work.
    fn alive_indices(&self) -> Vec<usize> {
        self.devices
            .iter()
            .enumerate()
            .filter(|(_, d)| d.health() != DeviceHealth::Failed)
            .map(|(i, _)| i)
            .collect()
    }

    /// All devices lost: the pool can no longer run anything.
    fn pool_exhausted() -> TractoError {
        TractoError::capacity("gpu devices", 1, 0)
    }

    /// Launch a kernel with lanes partitioned round-robin-contiguously
    /// (device `d` gets the `d`-th contiguous shard). Returns per-shard
    /// launch stats whose concatenated `executed`/`finished` vectors align
    /// with `lanes` in order; lanes are mutated in place.
    ///
    /// Simulated wall time advances by the **maximum** shard kernel time
    /// per round — devices run concurrently.
    ///
    /// Fault handling: a transient launch failure retries on the same
    /// device (the failed attempt's overhead is charged). A lost device
    /// triggers failover — its shard and every not-yet-launched shard of
    /// the round are re-partitioned across the surviving devices and
    /// replayed. Because faults fire before any lane is stepped, the
    /// failed-over replay produces results bit-identical to a fault-free
    /// run. Errors with [`TractoError::Capacity`] only when no device
    /// remains.
    pub fn launch_partitioned<K: SimKernel>(
        &mut self,
        kernel: &K,
        lanes: &mut [K::Lane],
        max_iters: u32,
    ) -> TractoResult<Vec<LaunchStats>> {
        let mut stats = Vec::with_capacity(self.devices.len());
        let mut rest: &mut [K::Lane] = lanes;
        loop {
            if rest.is_empty() {
                return Ok(stats);
            }
            let alive = self.alive_indices();
            if alive.is_empty() {
                return Err(Self::pool_exhausted());
            }
            let shard = rest.len().div_ceil(alive.len()).max(1);
            // One group charge per round: each device's time this round
            // (including failed attempts) on its own compute resource,
            // advancing stream 0 by the slowest — devices run concurrently.
            let mut round_parts: Vec<(usize, f64)> = Vec::with_capacity(alive.len());
            let mut done_lanes = 0usize;
            let mut lost_device: Option<usize> = None;
            for (k, chunk) in rest.chunks_mut(shard).enumerate() {
                let d = alive[k];
                let t0 = self.devices[d].clock_s();
                let outcome = loop {
                    match self.devices[d].try_launch(kernel, chunk, max_iters) {
                        Ok(s) => break Ok(s),
                        Err(e) if self.devices[d].health() == DeviceHealth::Failed => {
                            break Err(e);
                        }
                        Err(_) => {
                            // Transient launch failure: retry on the same
                            // device. Bounded — every fault event fires at
                            // most once.
                            self.fault_retries += 1;
                            if self.tracer.enabled() {
                                self.tracer.emit(
                                    "gpu.retry",
                                    &[("device", (d as u32).into()), ("op", "launch".into())],
                                );
                            }
                        }
                    }
                };
                // Device time spent this round, including failed attempts.
                let gpu_res = self.res_gpu(d);
                round_parts.push((gpu_res, self.devices[d].clock_s() - t0));
                match outcome {
                    Ok(s) => {
                        done_lanes += chunk.len();
                        stats.push(s);
                    }
                    Err(_) => {
                        lost_device = Some(d);
                        break;
                    }
                }
            }
            self.clock.charge_group(0, &round_parts);
            let Some(d) = lost_device else {
                return Ok(stats);
            };
            // Failover: re-partition everything not yet executed (the lost
            // device's untouched shard plus any shards after it) across the
            // survivors on the next round.
            self.failovers += 1;
            if self.tracer.enabled() {
                self.tracer.emit(
                    "gpu.failover",
                    &[
                        ("device", (d as u32).into()),
                        ("orphaned_lanes", (rest.len() - done_lanes).into()),
                        ("survivors", self.alive_devices().into()),
                    ],
                );
            }
            let r = std::mem::take(&mut rest);
            rest = &mut r[done_lanes..];
        }
    }

    /// Run one serialized host-bus transfer on device `i` via `op`,
    /// absorbing transient timeouts by retrying (each stall is charged to
    /// serialized host time). Gives up only if the device fails outright.
    fn transfer_with_retry(
        &mut self,
        i: usize,
        op: impl Fn(&mut Gpu) -> TractoResult<f64>,
        label: &'static str,
    ) {
        let dma = self.res_dma(i);
        loop {
            let d = &mut self.devices[i];
            if d.health() == DeviceHealth::Failed {
                return;
            }
            let before = d.clock_s();
            match op(d) {
                Ok(t) => {
                    self.clock.charge(0, dma, t);
                    return;
                }
                Err(_) => {
                    // Timed-out transfer: the stall was charged to the
                    // device clock; mirror it into serialized host time and
                    // retry.
                    let stall = self.devices[i].clock_s() - before;
                    self.clock.charge(0, dma, stall);
                    self.fault_retries += 1;
                    if self.tracer.enabled() {
                        self.tracer.emit(
                            "gpu.retry",
                            &[("device", (i as u32).into()), ("op", label.into())],
                        );
                    }
                }
            }
        }
    }

    /// Broadcast an upload (e.g. the sample volume) to every live device
    /// over the shared bus: the bus serializes, so cost is `alive ×` one
    /// transfer.
    pub fn broadcast_to_devices(&mut self, bytes: u64) {
        for i in 0..self.devices.len() {
            self.transfer_with_retry(i, |d| d.try_transfer_to_device(bytes), "broadcast");
        }
    }

    /// Upload distinct shards (e.g. start points): total bytes split across
    /// live devices, one serialized transfer each.
    pub fn scatter_to_devices(&mut self, total_bytes: u64) {
        let n = self.alive_devices().max(1) as u64;
        for i in 0..self.devices.len() {
            self.transfer_with_retry(i, |d| d.try_transfer_to_device(total_bytes / n), "scatter");
        }
    }

    /// Read each live device's shard back.
    pub fn gather_to_host(&mut self, total_bytes: u64) {
        let n = self.alive_devices().max(1) as u64;
        for i in 0..self.devices.len() {
            self.transfer_with_retry(i, |d| d.try_transfer_to_host(total_bytes / n), "gather");
        }
    }

    /// Host reduction over all live shards (serialized on the one CPU).
    pub fn host_reduction(&mut self, elements: u64) {
        let n = self.alive_devices().max(1) as u64;
        let cpu = self.res_cpu();
        for d in &mut self.devices {
            if d.health() == DeviceHealth::Failed {
                continue;
            }
            let t = d.host_reduction(elements / n);
            self.clock.charge(0, cpu, t);
        }
    }

    /// Reserve `bytes` on every live device (replicated residency, e.g.
    /// each device holding the full sample-volume stack). On failure the
    /// devices already charged are rolled back and the error is returned:
    /// [`TractoError::Capacity`] for genuine exhaustion, retryable
    /// [`TractoError::Device`] for an injected allocation fault.
    pub fn device_alloc_all(&mut self, bytes: u64) -> Result<(), TractoError> {
        if self.alive_devices() == 0 {
            return Err(Self::pool_exhausted());
        }
        let mut charged: Vec<usize> = Vec::new();
        for i in 0..self.devices.len() {
            if self.devices[i].health() == DeviceHealth::Failed {
                continue;
            }
            if let Err(err) = self.devices[i].device_alloc(bytes) {
                for &j in &charged {
                    self.devices[j].device_free(bytes);
                }
                return Err(err);
            }
            charged.push(i);
        }
        Ok(())
    }

    /// Release a replicated reservation on every device.
    pub fn device_free_all(&mut self, bytes: u64) {
        for d in &mut self.devices {
            d.device_free(bytes);
        }
    }

    /// Aggregate ledger (sums across devices — device-seconds, not wall).
    pub fn aggregate_ledger(&self) -> TimingLedger {
        let mut total = TimingLedger::default();
        for d in &self.devices {
            total.merge(d.ledger());
        }
        total
    }

    /// Simulated wall-clock makespan: concurrent kernels, overlapped
    /// streams, serialized per-link transfers and CPU reductions.
    pub fn wall_s(&self) -> f64 {
        self.clock.makespan_s()
    }

    /// What this pool's charges would have cost on the serialized
    /// single-stream path (concurrent device rounds still overlap).
    pub fn serial_s(&self) -> f64 {
        self.clock.serial_s()
    }

    /// Wall time hidden by multi-stream overlap: `serial − wall` (0 when
    /// everything ran through the legacy stream-0 path).
    pub fn overlap_saved_s(&self) -> f64 {
        self.clock.saved_s()
    }

    /// Stream occupancy `serial / wall` (1.0 when serialized, > 1 when
    /// streams overlapped).
    pub fn occupancy(&self) -> f64 {
        self.clock.occupancy()
    }

    /// The pool's stream clock.
    pub fn stream_clock(&self) -> &StreamClock {
        &self.clock
    }

    /// First alive device at or after `from` (wrapping); `None` when the
    /// pool is exhausted.
    pub fn next_alive_device(&self, from: usize) -> Option<usize> {
        let n = self.devices.len();
        (0..n)
            .map(|k| (from + k) % n)
            .find(|&d| self.devices[d].health() != DeviceHealth::Failed)
    }

    /// Emit a `gpu.stream` event for one pool-level stream segment.
    fn emit_stream_event(
        &self,
        segment: &'static str,
        stream: usize,
        device: usize,
        span: ChargeSpan,
    ) {
        if self.tracer.enabled() {
            self.tracer.emit_sim(
                "gpu.stream",
                span.end_s,
                &[
                    ("device", (device as u32).into()),
                    ("stream", stream.into()),
                    ("segment", segment.into()),
                    ("start_s", span.start_s.into()),
                    ("duration_s", span.duration_s().into()),
                    ("hidden_s", span.hidden_s.into()),
                ],
            );
        }
    }

    /// Reserve `bytes` on one device (streamed residency: each stream's
    /// jobs live only on their pinned device).
    pub fn stream_alloc(&mut self, device: usize, bytes: u64) -> Result<(), TractoError> {
        self.devices[device].device_alloc(bytes)
    }

    /// Release a per-device reservation.
    pub fn stream_free(&mut self, device: usize, bytes: u64) {
        self.devices[device].device_free(bytes);
    }

    /// Upload `bytes` to `device` on `stream`, charged to that device's
    /// PCIe link — transfers to *other* devices and all kernels overlap.
    /// Transient timeouts retry on the same device (stalls charged to the
    /// stream); errors only if the device has failed.
    pub fn stream_upload(&mut self, stream: usize, device: usize, bytes: u64) -> TractoResult<f64> {
        self.stream_transfer(stream, device, bytes, false)
    }

    /// Read `bytes` back from `device` on `stream` (see
    /// [`stream_upload`](Self::stream_upload)).
    pub fn stream_readback(
        &mut self,
        stream: usize,
        device: usize,
        bytes: u64,
    ) -> TractoResult<f64> {
        self.stream_transfer(stream, device, bytes, true)
    }

    fn stream_transfer(
        &mut self,
        stream: usize,
        device: usize,
        bytes: u64,
        to_host: bool,
    ) -> TractoResult<f64> {
        let dma = self.res_dma(device);
        let (label, segment): (&'static str, &'static str) = if to_host {
            ("stream-readback", "d2h")
        } else {
            ("stream-upload", "h2d")
        };
        loop {
            let d = &mut self.devices[device];
            let before = d.clock_s();
            let outcome = if to_host {
                d.try_transfer_to_host(bytes)
            } else {
                d.try_transfer_to_device(bytes)
            };
            match outcome {
                Ok(t) => {
                    let span = self.clock.charge(stream, dma, t);
                    self.emit_stream_event(segment, stream, device, span);
                    return Ok(t);
                }
                Err(e) if self.devices[device].health() == DeviceHealth::Failed => {
                    return Err(e);
                }
                Err(_) => {
                    let stall = self.devices[device].clock_s() - before;
                    self.clock.charge(stream, dma, stall);
                    self.fault_retries += 1;
                    if self.tracer.enabled() {
                        self.tracer.emit(
                            "gpu.retry",
                            &[("device", (device as u32).into()), ("op", label.into())],
                        );
                    }
                }
            }
        }
    }

    /// Launch `kernel` over `lanes` on one device, charged to `stream` on
    /// that device's compute resource — kernels of other devices and
    /// transfers of other streams overlap. Transient launch failures retry
    /// on the same device; a lost device returns the error with lanes
    /// untouched so the caller can fail over (see
    /// [`stream_failover`](Self::stream_failover)) and replay
    /// bit-identically.
    pub fn stream_launch<K: SimKernel>(
        &mut self,
        stream: usize,
        device: usize,
        kernel: &K,
        lanes: &mut [K::Lane],
        max_iters: u32,
    ) -> TractoResult<LaunchStats> {
        let gpu_res = self.res_gpu(device);
        loop {
            let d = &mut self.devices[device];
            let before = d.clock_s();
            match d.try_launch(kernel, lanes, max_iters) {
                Ok(stats) => {
                    let spent = self.devices[device].clock_s() - before;
                    let span = self.clock.charge(stream, gpu_res, spent);
                    self.emit_stream_event("kernel", stream, device, span);
                    return Ok(stats);
                }
                Err(e) if self.devices[device].health() == DeviceHealth::Failed => {
                    // Charge the failed attempt's overhead before erroring.
                    let spent = self.devices[device].clock_s() - before;
                    self.clock.charge(stream, gpu_res, spent);
                    return Err(e);
                }
                Err(_) => {
                    let spent = self.devices[device].clock_s() - before;
                    self.clock.charge(stream, gpu_res, spent);
                    self.fault_retries += 1;
                    if self.tracer.enabled() {
                        self.tracer.emit(
                            "gpu.retry",
                            &[
                                ("device", (device as u32).into()),
                                ("op", "stream-launch".into()),
                            ],
                        );
                    }
                }
            }
        }
    }

    /// Host reduction over one stream's shard, charged to `stream` on the
    /// shared CPU — reductions of different streams serialize (reduction
    /// *order* is the caller's, preserving bit-identity), but hide behind
    /// kernels and transfers of other streams.
    pub fn stream_reduce(&mut self, stream: usize, device: usize, elements: u64) -> f64 {
        let cpu = self.res_cpu();
        let t = self.devices[device].host_reduction(elements);
        let span = self.clock.charge(stream, cpu, t);
        self.emit_stream_event("reduce", stream, device, span);
        t
    }

    /// A stream's device was lost: pick the next alive device (wrapping),
    /// count the failover, and emit the `gpu.failover` trace event. Errors
    /// with [`TractoError::Capacity`] when no device remains.
    pub fn stream_failover(&mut self, from: usize, orphaned_lanes: usize) -> TractoResult<usize> {
        let Some(next) = self.next_alive_device(from) else {
            return Err(Self::pool_exhausted());
        };
        self.failovers += 1;
        if self.tracer.enabled() {
            self.tracer.emit(
                "gpu.failover",
                &[
                    ("device", (from as u32).into()),
                    ("orphaned_lanes", orphaned_lanes.into()),
                    ("survivors", self.alive_devices().into()),
                ],
            );
        }
        Ok(next)
    }
}

/// Strong-scaling summary for a workload run at several device counts.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalingPoint {
    /// Device count.
    pub devices: usize,
    /// Simulated wall seconds.
    pub wall_s: f64,
    /// Speedup over one device.
    pub speedup: f64,
    /// Parallel efficiency (`speedup / devices`).
    pub efficiency: f64,
}

/// Compute scaling points from `(devices, wall_s)` measurements.
pub fn scaling_summary(measurements: &[(usize, f64)]) -> Vec<ScalingPoint> {
    assert!(!measurements.is_empty());
    let base = measurements
        .iter()
        .find(|(n, _)| *n == 1)
        .map(|(_, t)| *t)
        .unwrap_or(measurements[0].1);
    measurements
        .iter()
        .map(|&(devices, wall_s)| {
            let speedup = base / wall_s;
            ScalingPoint {
                devices,
                wall_s,
                speedup,
                efficiency: speedup / devices as f64,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::LaneStatus;

    struct Countdown;
    impl SimKernel for Countdown {
        type Lane = u32;
        fn step(&self, lane: &mut u32) -> LaneStatus {
            if *lane > 1 {
                *lane -= 1;
                LaneStatus::Continue
            } else {
                *lane = 0;
                LaneStatus::Finished
            }
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

    fn balanced_loads(n: usize) -> Vec<u32> {
        vec![100u32; n]
    }

    #[test]
    fn results_identical_across_device_counts() {
        for n in [1usize, 2, 4] {
            let mut multi = MultiGpu::new(device(), n);
            let mut lanes = (1..=257u32).collect::<Vec<_>>();
            multi
                .launch_partitioned(&Countdown, &mut lanes, 10_000)
                .unwrap();
            assert!(
                lanes.iter().all(|&l| l == 0),
                "all lanes completed on {n} devices"
            );
        }
    }

    #[test]
    fn kernels_overlap_across_devices() {
        let mut one = MultiGpu::new(device(), 1);
        let mut four = MultiGpu::new(device(), 4);
        let mut a = balanced_loads(1024);
        let mut b = balanced_loads(1024);
        one.launch_partitioned(&Countdown, &mut a, 10_000).unwrap();
        four.launch_partitioned(&Countdown, &mut b, 10_000).unwrap();
        // Proportional gains: 4 devices ≈ 4× faster on balanced loads
        // (modulo the fixed launch overhead).
        let ratio = one.wall_s() / four.wall_s();
        assert!(ratio > 3.0, "scaling ratio {ratio:.2}");
        // Total device-seconds are roughly conserved.
        let l1 = one.aggregate_ledger();
        let l4 = four.aggregate_ledger();
        assert_eq!(l1.useful_iterations, l4.useful_iterations);
    }

    #[test]
    fn host_work_serializes() {
        let mut multi = MultiGpu::new(device(), 4);
        multi.broadcast_to_devices(1_000_000);
        // Broadcast over a shared bus costs ~4 single transfers.
        let single = device().pcie.transfer_seconds(1_000_000);
        assert!((multi.wall_s() - 4.0 * single).abs() < 1e-9);
    }

    #[test]
    fn scatter_and_gather_split_bytes() {
        let mut multi = MultiGpu::new(device(), 2);
        multi.scatter_to_devices(1_000_000);
        multi.gather_to_host(1_000_000);
        let l = multi.aggregate_ledger();
        assert_eq!(l.bytes_h2d, 1_000_000);
        assert_eq!(l.bytes_d2h, 1_000_000);
    }

    #[test]
    fn scaling_summary_math() {
        let pts = scaling_summary(&[(1, 8.0), (2, 4.2), (4, 2.4)]);
        assert_eq!(pts[0].speedup, 1.0);
        assert!((pts[1].speedup - 8.0 / 4.2).abs() < 1e-12);
        assert!(pts[2].efficiency < 1.0 && pts[2].efficiency > 0.7);
    }

    #[test]
    fn reduction_split_across_shards() {
        let mut multi = MultiGpu::new(device(), 4);
        multi.host_reduction(4000);
        let l = multi.aggregate_ledger();
        // Total elements reduced = 4000 regardless of device count.
        assert!((l.reduction_s - device().reduction_seconds(4000)).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_devices_rejected() {
        let _ = MultiGpu::new(device(), 0);
    }

    #[test]
    fn try_new_rejects_zero_devices_with_config_error() {
        let err = MultiGpu::try_new(device(), 0).expect_err("zero devices");
        assert_eq!(err.kind(), tracto_trace::ErrorKind::Config);
        assert!(MultiGpu::try_new(device(), 1).is_ok());
    }

    /// A device loss mid-launch fails over to the survivors and the lane
    /// results are bit-identical to the fault-free run.
    #[test]
    fn failover_preserves_results_bit_identically() {
        let plan = FaultPlan::parse("fault 1 0 device-lost").unwrap();
        let mut clean = MultiGpu::new(device(), 4);
        let mut faulted = MultiGpu::new(device(), 4);
        faulted.set_fault_plan(&plan);

        let mut a: Vec<u32> = (1..=257u32).collect();
        let mut b = a.clone();
        let sa = clean
            .launch_partitioned(&Countdown, &mut a, 10_000)
            .unwrap();
        let sb = faulted
            .launch_partitioned(&Countdown, &mut b, 10_000)
            .unwrap();
        assert_eq!(a, b, "lane states identical after failover");
        assert_eq!(faulted.failovers(), 1);
        assert_eq!(faulted.alive_devices(), 3);
        assert_eq!(faulted.health()[1], DeviceHealth::Failed);
        // Per-lane accounting also matches: concatenated executed vectors
        // align with the lane order either way.
        let ex_a: Vec<u32> = sa.into_iter().flat_map(|s| s.executed).collect();
        let ex_b: Vec<u32> = sb.into_iter().flat_map(|s| s.executed).collect();
        assert_eq!(ex_a, ex_b);
        // The replay costs extra simulated wall time.
        assert!(faulted.wall_s() > clean.wall_s());
    }

    #[test]
    fn transient_launch_failure_retries_on_same_device() {
        let plan = FaultPlan::parse("fault 0 0 launch-fail").unwrap();
        let mut multi = MultiGpu::new(device(), 2);
        multi.set_fault_plan(&plan);
        let mut lanes: Vec<u32> = (1..=64u32).collect();
        multi
            .launch_partitioned(&Countdown, &mut lanes, 10_000)
            .unwrap();
        assert!(lanes.iter().all(|&l| l == 0));
        assert_eq!(multi.fault_retries(), 1);
        assert_eq!(multi.failovers(), 0);
        assert_eq!(multi.alive_devices(), 2);
    }

    #[test]
    fn all_devices_lost_is_capacity_error() {
        let plan = FaultPlan::parse("fault 0 0 device-lost\nfault 1 0 device-lost").unwrap();
        let mut multi = MultiGpu::new(device(), 2);
        multi.set_fault_plan(&plan);
        let mut lanes: Vec<u32> = (1..=64u32).collect();
        let err = multi
            .launch_partitioned(&Countdown, &mut lanes, 10_000)
            .expect_err("no survivors");
        assert_eq!(err.kind(), tracto_trace::ErrorKind::Capacity);
        assert!(!err.is_retryable());
        assert_eq!(multi.alive_devices(), 0);
    }

    #[test]
    fn transfer_timeouts_absorbed_and_charged() {
        let plan = FaultPlan::parse("timeout-s 0.5\nfault 1 0 transfer-timeout").unwrap();
        let mut clean = MultiGpu::new(device(), 2);
        let mut faulted = MultiGpu::new(device(), 2);
        faulted.set_fault_plan(&plan);
        clean.broadcast_to_devices(1_000_000);
        faulted.broadcast_to_devices(1_000_000);
        let l_clean = clean.aggregate_ledger();
        let l_faulted = faulted.aggregate_ledger();
        assert_eq!(
            l_clean.bytes_h2d, l_faulted.bytes_h2d,
            "all bytes still arrive"
        );
        assert_eq!(faulted.fault_retries(), 1);
        assert!(
            (faulted.wall_s() - clean.wall_s() - 0.5).abs() < 1e-9,
            "the stall is charged to serialized host time"
        );
    }

    #[test]
    fn transfers_skip_failed_devices() {
        let plan = FaultPlan::parse("fault 0 0 device-lost").unwrap();
        let mut multi = MultiGpu::new(device(), 2);
        multi.set_fault_plan(&plan);
        let mut lanes: Vec<u32> = (1..=64u32).collect();
        multi
            .launch_partitioned(&Countdown, &mut lanes, 10_000)
            .unwrap();
        assert_eq!(multi.alive_devices(), 1);
        multi.scatter_to_devices(1_000_000);
        multi.gather_to_host(1_000_000);
        let l = multi.aggregate_ledger();
        // The surviving device carries the full payload.
        assert_eq!(l.bytes_h2d, 1_000_000);
        assert_eq!(l.bytes_d2h, 1_000_000);
    }

    #[test]
    fn failover_emits_trace_events() {
        use std::sync::Arc;
        use tracto_trace::{RingSink, Tracer};

        let plan = FaultPlan::parse("fault 0 1 device-lost\nfault 1 0 launch-fail").unwrap();
        let ring = Arc::new(RingSink::new(128));
        let mut multi = MultiGpu::new(device(), 2);
        multi.set_tracer(&Tracer::shared(ring.clone()));
        multi.set_fault_plan(&plan);
        let mut lanes: Vec<u32> = (1..=64u32).collect();
        multi.launch_partitioned(&Countdown, &mut lanes, 4).unwrap();
        multi
            .launch_partitioned(&Countdown, &mut lanes, 10_000)
            .unwrap();
        assert_eq!(ring.count("gpu.fault"), 2, "each injected fault traced");
        assert_eq!(ring.count("gpu.failover"), 1);
        assert_eq!(ring.count("gpu.retry"), 1);
        let failover = &ring.named("gpu.failover")[0];
        assert_eq!(failover.field_u64("device"), Some(0));
        assert_eq!(failover.field_u64("survivors"), Some(1));
    }

    fn run_job(multi: &mut MultiGpu, stream: usize, device: usize, lanes: &mut [u32]) {
        multi.stream_upload(stream, device, 1_000_000).unwrap();
        multi
            .stream_launch(stream, device, &Countdown, lanes, 10_000)
            .unwrap();
        multi.stream_readback(stream, device, 500_000).unwrap();
        multi.stream_reduce(stream, device, lanes.len() as u64);
    }

    #[test]
    fn streams_hide_one_jobs_host_work_behind_anothers_kernels() {
        let mut serialized = MultiGpu::new(device(), 2);
        let mut streamed = MultiGpu::new(device(), 2);
        let mut a0 = balanced_loads(256);
        let mut a1 = balanced_loads(256);
        let mut b0 = a0.clone();
        let mut b1 = a1.clone();
        // Same jobs, same devices; the only difference is the stream id.
        run_job(&mut serialized, 0, 0, &mut a0);
        run_job(&mut serialized, 0, 1, &mut a1);
        run_job(&mut streamed, 0, 0, &mut b0);
        run_job(&mut streamed, 1, 1, &mut b1);
        assert_eq!(a0, b0);
        assert_eq!(a1, b1);
        assert!(
            streamed.wall_s() < serialized.wall_s(),
            "streamed {0} vs serialized {1}",
            streamed.wall_s(),
            serialized.wall_s()
        );
        assert!(streamed.overlap_saved_s() > 0.0);
        assert_eq!(serialized.overlap_saved_s(), 0.0);
        assert_eq!(
            streamed.serial_s(),
            serialized.wall_s(),
            "the serialized view of the streamed run is the stream-0 wall"
        );
        assert!(streamed.occupancy() > 1.0);
    }

    #[test]
    fn stream_failover_replays_bit_identically() {
        let plan = FaultPlan::parse("fault 1 0 device-lost").unwrap();
        let mut clean = MultiGpu::new(device(), 2);
        let mut faulted = MultiGpu::new(device(), 2);
        faulted.set_fault_plan(&plan);
        let mut a: Vec<u32> = (1..=64u32).collect();
        let mut b = a.clone();
        clean
            .stream_launch(0, 1, &Countdown, &mut a, 10_000)
            .unwrap();
        let err = faulted
            .stream_launch(0, 1, &Countdown, &mut b, 10_000)
            .expect_err("device 1 lost before stepping lanes");
        assert_eq!(err.kind(), tracto_trace::ErrorKind::Device);
        assert_eq!(b, (1..=64u32).collect::<Vec<_>>(), "lanes untouched");
        let next = faulted.stream_failover(1, b.len()).expect("a survivor");
        assert_eq!(next, 0);
        faulted
            .stream_launch(0, next, &Countdown, &mut b, 10_000)
            .unwrap();
        assert_eq!(a, b, "replay on the failover device is bit-identical");
        assert_eq!(faulted.failovers(), 1);
        assert_eq!(faulted.alive_devices(), 1);
    }

    #[test]
    fn stream_failover_with_no_survivors_is_capacity_error() {
        let plan = FaultPlan::parse("fault 0 0 device-lost").unwrap();
        let mut multi = MultiGpu::new(device(), 1);
        multi.set_fault_plan(&plan);
        let mut lanes = vec![4u32; 8];
        multi
            .stream_launch(0, 0, &Countdown, &mut lanes, 10)
            .expect_err("only device lost");
        let err = multi
            .stream_failover(0, lanes.len())
            .expect_err("exhausted");
        assert_eq!(err.kind(), tracto_trace::ErrorKind::Capacity);
    }

    #[test]
    fn stream_ops_emit_stream_events_with_device_and_hidden_time() {
        use std::sync::Arc;
        use tracto_trace::{RingSink, Tracer};

        let ring = Arc::new(RingSink::new(128));
        let mut multi = MultiGpu::new(device(), 2);
        multi.set_tracer(&Tracer::shared(ring.clone()));
        let mut l0 = balanced_loads(256);
        let mut l1 = balanced_loads(256);
        run_job(&mut multi, 0, 0, &mut l0);
        run_job(&mut multi, 1, 1, &mut l1);
        let events = ring.named("gpu.stream");
        assert_eq!(events.len(), 8, "4 segments per job");
        assert!(events
            .iter()
            .any(|e| e.field_u64("stream") == Some(1) && e.field_u64("device") == Some(1)));
        // Stream 1's upload runs on device 1's own link while stream 0
        // works: fully hidden.
        let s1_upload = events
            .iter()
            .find(|e| {
                e.field_u64("stream") == Some(1)
                    && e.field("segment") == Some(&tracto_trace::Value::Str("h2d"))
            })
            .expect("stream 1 upload traced");
        let dur = s1_upload.field_f64("duration_s").unwrap();
        let hidden = s1_upload.field_f64("hidden_s").unwrap();
        assert!((hidden - dur).abs() < 1e-15);
    }

    #[test]
    fn device_alloc_all_propagates_injected_alloc_fault() {
        let plan = FaultPlan::parse("fault 1 0 alloc-fail").unwrap();
        let mut multi = MultiGpu::new(device(), 2);
        multi.set_fault_plan(&plan);
        let err = multi.device_alloc_all(1024).expect_err("alloc fault");
        assert_eq!(err.kind(), tracto_trace::ErrorKind::Device);
        assert!(err.is_retryable());
        // Rollback: nothing remains charged anywhere.
        assert_eq!(multi.aggregate_ledger().bytes_h2d, 0);
        // The fault was consumed; the retry succeeds on every device.
        multi.device_alloc_all(1024).expect("retry clean");
    }
}
