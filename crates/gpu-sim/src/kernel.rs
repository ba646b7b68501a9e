//! Kernel execution: real computation, lockstep-charged timing.

use crate::device::DeviceConfig;
use crate::fault::{DeviceHealth, FaultCategory, FaultKind, FaultPlan, FaultState};
use crate::ledger::TimingLedger;
use crate::schedule::{EventKind, ScheduleEvent, ScheduleTrace};
use crate::stream::{ChargeSpan, StreamClock};
use std::time::Instant;
use tracto_trace::{Tracer, TractoError, TractoResult};

/// Resource id of this device's compute engine on its [`StreamClock`].
pub const RES_GPU: usize = 0;
/// Resource id of this device's PCIe/DMA link.
pub const RES_DMA: usize = 1;
/// Resource id of the host CPU (reductions/compactions).
pub const RES_HOST: usize = 2;

/// Whether a lane wants to keep iterating.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaneStatus {
    /// The lane has more work; it will run again next iteration (and in the
    /// next segment's launch if the budget runs out first).
    Continue,
    /// The lane has finished (streamline terminated / chain complete).
    Finished,
}

/// A simulated GPU kernel: one `step` is one unit of per-lane work (one
/// tracking step, one MH parameter update, …).
///
/// `step` receives only the lane state, mirroring the data-parallel,
/// communication-free structure the paper exploits ("the communication of
/// parallel threads is negligible").
pub trait SimKernel: Sync {
    /// Per-lane mutable state.
    type Lane: Send;

    /// Execute one iteration of one lane.
    fn step(&self, lane: &mut Self::Lane) -> LaneStatus;

    /// Relative cost of one iteration of this kernel versus the device's
    /// reference iteration (one streamline tracking step). Defaults to 1.
    fn cost_weight(&self) -> f64 {
        1.0
    }

    /// Run one wavefront's lanes for at most `max_iters` iterations each
    /// and report, per lane, how many iterations executed (the `step` that
    /// returned [`LaneStatus::Finished`] included) and whether it finished.
    ///
    /// The host order is the kernel's choice; the simulated charge is not:
    /// the launcher builds the lockstep charge from `executed` alone. Lanes
    /// never communicate, so each lane's count is `min(steps to finish,
    /// max_iters)` under any order. The default is lane-major: each lane
    /// runs to that count before the next lane starts, the loop of the
    /// paper's one-thread-one-streamline kernel, which keeps one lane's
    /// state hot in cache. Step 1's kernel overrides this to bind its
    /// structure-of-arrays posterior cache once per launch and move every
    /// lane through each parameter step together.
    fn run_wavefront(&self, chunk: &mut [Self::Lane], max_iters: u32) -> (Vec<u32>, Vec<bool>) {
        chunk
            .iter_mut()
            .map(|lane| {
                let mut executed = 0;
                while executed < max_iters {
                    executed += 1;
                    if self.step(lane) == LaneStatus::Finished {
                        return (executed, true);
                    }
                }
                (executed, false)
            })
            .unzip()
    }
}

/// Statistics of a single kernel launch.
#[derive(Debug, Clone)]
pub struct LaunchStats {
    /// Iterations actually executed per lane (≤ the launch budget).
    pub executed: Vec<u32>,
    /// Whether each lane finished during this launch.
    pub finished: Vec<bool>,
    /// Simulated kernel seconds for this launch.
    pub kernel_s: f64,
    /// Lockstep-charged lane-iterations.
    pub charged_iterations: u64,
    /// Useful lane-iterations.
    pub useful_iterations: u64,
}

impl LaunchStats {
    /// Number of lanes still unfinished after this launch.
    pub fn unfinished(&self) -> usize {
        self.finished.iter().filter(|&&f| !f).count()
    }
}

/// The simulated GPU: owns the device model, a timing ledger, and a
/// schedule trace.
///
/// Every operation accepts a *stream*: operations on the same stream are
/// dependent and chain sequentially, while operations on different streams
/// overlap wherever their resources (compute engine, DMA link, host CPU)
/// allow — the Fig. 8 model, charged on the simulated clock by a
/// [`StreamClock`]. The plain (streamless) methods charge stream 0, which
/// degenerates to the strictly sequential clock this simulator always had.
#[derive(Debug)]
pub struct Gpu {
    config: DeviceConfig,
    ledger: TimingLedger,
    trace: ScheduleTrace,
    clock: StreamClock,
    allocated_bytes: u64,
    tracer: Tracer,
    device_id: u32,
    fault: FaultState,
}

impl Gpu {
    /// Bring up a device.
    pub fn new(config: DeviceConfig) -> Self {
        Gpu {
            config,
            ledger: TimingLedger::default(),
            trace: ScheduleTrace::default(),
            clock: StreamClock::new(),
            allocated_bytes: 0,
            tracer: Tracer::disabled(),
            device_id: 0,
            fault: FaultState::default(),
        }
    }

    /// Bring up a device that emits structured events into `tracer`.
    pub fn with_tracer(config: DeviceConfig, tracer: Tracer) -> Self {
        let mut gpu = Gpu::new(config);
        gpu.tracer = tracer;
        gpu
    }

    /// Attach (or detach, with [`Tracer::disabled`]) a tracer after
    /// construction, tagging this device's events with `device_id`.
    pub fn set_tracer(&mut self, tracer: Tracer, device_id: u32) {
        self.tracer = tracer;
        self.device_id = device_id;
    }

    /// The tracer this device emits into (disabled by default).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The device model.
    pub fn config(&self) -> &DeviceConfig {
        &self.config
    }

    /// Accumulated timing.
    pub fn ledger(&self) -> &TimingLedger {
        &self.ledger
    }

    /// The schedule trace recorded so far.
    pub fn trace(&self) -> &ScheduleTrace {
        &self.trace
    }

    /// Reset ledger, trace, and clock (keep the device model). Fault state
    /// — health, pending events, operation counters — is preserved: a lost
    /// device stays lost across a reset. Reinstall a plan with
    /// [`set_fault_plan`](Self::set_fault_plan) to revive it.
    pub fn reset(&mut self) {
        self.ledger = TimingLedger::default();
        self.trace = ScheduleTrace::default();
        self.clock.reset();
    }

    /// Install `plan`'s events addressed to `device` on this GPU, resetting
    /// health, operation counters, and the injected-fault count.
    pub fn set_fault_plan(&mut self, plan: &FaultPlan, device: u32) {
        self.fault.install(plan, device);
    }

    /// Current health of this device.
    pub fn health(&self) -> DeviceHealth {
        self.fault.health
    }

    /// How many faults the plan has injected on this device so far.
    pub fn faults_injected(&self) -> u64 {
        self.fault.faults_injected
    }

    /// Emit a `gpu.fault` trace event for an injected fault. `at_op` is the
    /// per-category operation index the fault fired on; recording it makes
    /// the trace replayable ([`FaultPlan::from_trace`]).
    fn emit_fault(&mut self, kind: FaultKind, op: &'static str, at_op: u64) {
        if self.tracer.enabled() {
            let health = match self.fault.health {
                DeviceHealth::Healthy => "healthy",
                DeviceHealth::Degraded => "degraded",
                DeviceHealth::Failed => "failed",
            };
            self.tracer.emit_sim(
                "gpu.fault",
                self.clock.makespan_s(),
                &[
                    ("device", self.device_id.into()),
                    ("kind", kind.as_str().into()),
                    ("op", op.into()),
                    ("at_op", at_op.into()),
                    ("health", health.into()),
                ],
            );
        }
    }

    /// Launch a kernel over `lanes` with a per-lane iteration budget of
    /// `max_iters` (one `NumIteration[i]` entry of the segmentation array).
    ///
    /// Infallible wrapper over [`try_launch`](Self::try_launch) for devices
    /// without a fault plan, where a launch cannot fail.
    ///
    /// # Panics
    ///
    /// Panics if a fault plan injects a launch fault or the device has
    /// failed; fault-aware callers use `try_launch`.
    pub fn launch<K: SimKernel>(
        &mut self,
        kernel: &K,
        lanes: &mut [K::Lane],
        max_iters: u32,
    ) -> LaunchStats {
        self.try_launch(kernel, lanes, max_iters)
            .expect("launch failed on a device with a fault plan; use try_launch")
    }

    /// Fault-aware launch. Scheduled launch faults fire *before* any lane
    /// is stepped, so a failed launch leaves lane state untouched (the
    /// failed attempt still charges its fixed launch overhead to the
    /// simulated clock) and a replay — on this device or another — yields
    /// results bit-identical to a fault-free run.
    ///
    /// Lanes are grouped into wavefronts **in submission order** — exactly
    /// how the paper's kernel maps seed points to SIMD threads — and each
    /// wavefront is charged the maximum iteration count among its lanes
    /// (lockstep execution). The real per-lane computation runs in parallel
    /// with one [`par_map`](crate::par_map) item per wavefront. On a [`DeviceHealth::Degraded`]
    /// device the charged kernel time is multiplied by the plan's
    /// `degrade_factor`.
    pub fn try_launch<K: SimKernel>(
        &mut self,
        kernel: &K,
        lanes: &mut [K::Lane],
        max_iters: u32,
    ) -> TractoResult<LaunchStats> {
        self.try_launch_inner(kernel, lanes, max_iters, 0)
            .map(|(stats, _)| stats)
    }

    /// Stream-aware [`try_launch`](Self::try_launch): the kernel is charged
    /// to `stream` on this device's compute engine, so it overlaps other
    /// streams' transfers and host work. Emits a `gpu.stream` trace event
    /// recording how much of the kernel hid behind already-scheduled work.
    pub fn try_launch_on<K: SimKernel>(
        &mut self,
        kernel: &K,
        lanes: &mut [K::Lane],
        max_iters: u32,
        stream: usize,
    ) -> TractoResult<LaunchStats> {
        let (stats, span) = self.try_launch_inner(kernel, lanes, max_iters, stream)?;
        self.emit_stream_event("kernel", stream, span);
        Ok(stats)
    }

    fn try_launch_inner<K: SimKernel>(
        &mut self,
        kernel: &K,
        lanes: &mut [K::Lane],
        max_iters: u32,
        stream: usize,
    ) -> TractoResult<(LaunchStats, ChargeSpan)> {
        if self.fault.health == DeviceHealth::Failed {
            return Err(TractoError::device(
                self.device_id,
                "kernel launch on failed device",
            ));
        }
        if let Some((kind, at_op)) = self.fault.next_fault(FaultCategory::Launch) {
            match kind {
                FaultKind::LaunchFail | FaultKind::DeviceLost => {
                    let overhead = self.config.kernel_seconds_weighted(0, kernel.cost_weight());
                    self.ledger.kernel_s += overhead;
                    let span = self.clock.charge(stream, RES_GPU, overhead);
                    self.trace.push(ScheduleEvent {
                        kind: EventKind::Kernel,
                        start_s: span.start_s,
                        duration_s: overhead,
                        lanes: 0,
                    });
                    self.emit_fault(kind, "launch", at_op);
                    let context = if kind == FaultKind::DeviceLost {
                        "device lost during kernel launch"
                    } else {
                        "kernel launch failed"
                    };
                    return Err(TractoError::device(self.device_id, context));
                }
                FaultKind::Degrade => {
                    // Sticky slowdown; the launch itself proceeds.
                    self.emit_fault(kind, "launch", at_op);
                }
                FaultKind::AllocFail | FaultKind::TransferTimeout => {
                    unreachable!("category filter yields only launch faults")
                }
            }
        }
        let wf = self.config.wavefront_size.max(1);
        let n = lanes.len();
        let wall_start = Instant::now();

        // Run every wavefront in parallel, in the order the kernel picks
        // (lane-major unless it overrides `run_wavefront`); the lockstep
        // charge is the wavefront's largest executed count either way.
        let per_wavefront = crate::par_map(lanes.chunks_mut(wf), |chunk| {
            let (executed, finished) = kernel.run_wavefront(chunk, max_iters);
            let lockstep = executed.iter().copied().max().unwrap_or(0);
            (executed, finished, lockstep)
        });

        let wall = wall_start.elapsed().as_secs_f64();

        let mut executed = Vec::with_capacity(n);
        let mut finished = Vec::with_capacity(n);
        let mut charged = 0u64;
        let mut useful = 0u64;
        let mut wavefront_iterations = 0u64;
        for (ex, fi, lockstep) in per_wavefront {
            charged += lockstep as u64 * ex.len() as u64;
            useful += ex.iter().map(|&e| e as u64).sum::<u64>();
            wavefront_iterations += lockstep as u64;
            executed.extend(ex);
            finished.extend(fi);
        }

        let kernel_s = self
            .config
            .kernel_seconds_weighted(wavefront_iterations, kernel.cost_weight())
            * self.fault.degrade_factor;
        self.ledger.kernel_s += kernel_s;
        self.ledger.launches += 1;
        self.ledger.useful_iterations += useful;
        self.ledger.charged_iterations += charged;
        self.ledger.wall_kernel_s += wall;
        let span = self.clock.charge(stream, RES_GPU, kernel_s);
        self.trace.push(ScheduleEvent {
            kind: EventKind::Kernel,
            start_s: span.start_s,
            duration_s: kernel_s,
            lanes: n,
        });
        if self.tracer.enabled() {
            self.tracer.emit_sim(
                "gpu.launch",
                span.end_s,
                &[
                    ("device", self.device_id.into()),
                    ("lanes", n.into()),
                    ("budget", max_iters.into()),
                    ("kernel_s", kernel_s.into()),
                    ("charged_iterations", charged.into()),
                    ("useful_iterations", useful.into()),
                    ("wall_s", wall.into()),
                ],
            );
        }

        Ok((
            LaunchStats {
                executed,
                finished,
                kernel_s,
                charged_iterations: charged,
                useful_iterations: useful,
            },
            span,
        ))
    }

    /// Emit a `gpu.stream` trace event for one stream-charged segment:
    /// which stream, what segment kind, where it landed on the overlapped
    /// timeline, and how much of it was hidden behind other streams' work.
    fn emit_stream_event(&self, segment: &'static str, stream: usize, span: ChargeSpan) {
        if self.tracer.enabled() {
            self.tracer.emit_sim(
                "gpu.stream",
                span.end_s,
                &[
                    ("device", self.device_id.into()),
                    ("stream", stream.into()),
                    ("segment", segment.into()),
                    ("start_s", span.start_s.into()),
                    ("duration_s", span.duration_s().into()),
                    ("hidden_s", span.hidden_s.into()),
                ],
            );
        }
    }

    /// Whether a scheduled fault pre-empts a transfer. On a timeout the
    /// stall is charged to the clock and ledger before the error returns.
    fn check_transfer_fault(
        &mut self,
        event_kind: EventKind,
        dir: &'static str,
        stream: usize,
    ) -> TractoResult<()> {
        if self.fault.health == DeviceHealth::Failed {
            return Err(TractoError::device(
                self.device_id,
                format!("{dir} transfer on failed device"),
            ));
        }
        if let Some((kind, at_op)) = self.fault.next_fault(FaultCategory::Transfer) {
            let stall = self.fault.transfer_timeout_s;
            self.ledger.transfer_s += stall;
            let span = self.clock.charge(stream, RES_DMA, stall);
            self.trace.push(ScheduleEvent {
                kind: event_kind,
                start_s: span.start_s,
                duration_s: stall,
                lanes: 0,
            });
            self.emit_fault(kind, "transfer", at_op);
            return Err(TractoError::device(
                self.device_id,
                format!("{dir} transfer timed out"),
            ));
        }
        Ok(())
    }

    /// Charge a host→device transfer.
    ///
    /// Infallible wrapper over [`try_transfer_to_device`]
    /// (Self::try_transfer_to_device) for devices without a fault plan.
    ///
    /// # Panics
    ///
    /// Panics if a fault plan injects a transfer fault or the device has
    /// failed.
    pub fn transfer_to_device(&mut self, bytes: u64) -> f64 {
        self.try_transfer_to_device(bytes)
            .expect("transfer failed on a device with a fault plan; use try_transfer_to_device")
    }

    /// Fault-aware host→device transfer: a scheduled timeout stalls for the
    /// plan's `transfer_timeout_s` (charged to the simulated clock), then
    /// errors without moving any bytes.
    pub fn try_transfer_to_device(&mut self, bytes: u64) -> TractoResult<f64> {
        self.try_transfer_to_device_inner(bytes, 0).map(|(t, _)| t)
    }

    /// Stream-aware [`try_transfer_to_device`](Self::try_transfer_to_device):
    /// the transfer is charged to `stream` on this device's DMA link, so it
    /// overlaps other streams' kernels. Emits a `gpu.stream` trace event.
    pub fn try_transfer_to_device_on(&mut self, bytes: u64, stream: usize) -> TractoResult<f64> {
        let (t, span) = self.try_transfer_to_device_inner(bytes, stream)?;
        self.emit_stream_event("h2d", stream, span);
        Ok(t)
    }

    fn try_transfer_to_device_inner(
        &mut self,
        bytes: u64,
        stream: usize,
    ) -> TractoResult<(f64, ChargeSpan)> {
        self.check_transfer_fault(EventKind::TransferH2D, "host-to-device", stream)?;
        let t = self.config.pcie.transfer_seconds(bytes);
        self.ledger.transfer_s += t;
        self.ledger.bytes_h2d += bytes;
        let span = self.clock.charge(stream, RES_DMA, t);
        self.trace.push(ScheduleEvent {
            kind: EventKind::TransferH2D,
            start_s: span.start_s,
            duration_s: t,
            lanes: 0,
        });
        if self.tracer.enabled() {
            self.tracer.emit_sim(
                "gpu.transfer_h2d",
                span.end_s,
                &[
                    ("device", self.device_id.into()),
                    ("bytes", bytes.into()),
                    ("transfer_s", t.into()),
                ],
            );
        }
        Ok((t, span))
    }

    /// Charge a device→host transfer.
    ///
    /// Infallible wrapper over [`try_transfer_to_host`]
    /// (Self::try_transfer_to_host) for devices without a fault plan.
    ///
    /// # Panics
    ///
    /// Panics if a fault plan injects a transfer fault or the device has
    /// failed.
    pub fn transfer_to_host(&mut self, bytes: u64) -> f64 {
        self.try_transfer_to_host(bytes)
            .expect("transfer failed on a device with a fault plan; use try_transfer_to_host")
    }

    /// Fault-aware device→host transfer: a scheduled timeout stalls for the
    /// plan's `transfer_timeout_s` (charged to the simulated clock), then
    /// errors without moving any bytes.
    pub fn try_transfer_to_host(&mut self, bytes: u64) -> TractoResult<f64> {
        self.try_transfer_to_host_inner(bytes, 0).map(|(t, _)| t)
    }

    /// Stream-aware [`try_transfer_to_host`](Self::try_transfer_to_host):
    /// the readback is charged to `stream` on this device's DMA link.
    /// Emits a `gpu.stream` trace event.
    pub fn try_transfer_to_host_on(&mut self, bytes: u64, stream: usize) -> TractoResult<f64> {
        let (t, span) = self.try_transfer_to_host_inner(bytes, stream)?;
        self.emit_stream_event("d2h", stream, span);
        Ok(t)
    }

    fn try_transfer_to_host_inner(
        &mut self,
        bytes: u64,
        stream: usize,
    ) -> TractoResult<(f64, ChargeSpan)> {
        self.check_transfer_fault(EventKind::TransferD2H, "device-to-host", stream)?;
        let t = self.config.pcie.transfer_seconds(bytes);
        self.ledger.transfer_s += t;
        self.ledger.bytes_d2h += bytes;
        let span = self.clock.charge(stream, RES_DMA, t);
        self.trace.push(ScheduleEvent {
            kind: EventKind::TransferD2H,
            start_s: span.start_s,
            duration_s: t,
            lanes: 0,
        });
        if self.tracer.enabled() {
            self.tracer.emit_sim(
                "gpu.transfer_d2h",
                span.end_s,
                &[
                    ("device", self.device_id.into()),
                    ("bytes", bytes.into()),
                    ("transfer_s", t.into()),
                ],
            );
        }
        Ok((t, span))
    }

    /// Charge a host-side reduction/compaction over `elements` items.
    pub fn host_reduction(&mut self, elements: u64) -> f64 {
        self.host_reduction_inner(elements, 0).0
    }

    /// Stream-aware [`host_reduction`](Self::host_reduction): the reduction
    /// is charged to `stream` on the host CPU, so it overlaps other
    /// streams' kernels and transfers. Emits a `gpu.stream` trace event.
    pub fn host_reduction_on(&mut self, elements: u64, stream: usize) -> f64 {
        let (t, span) = self.host_reduction_inner(elements, stream);
        self.emit_stream_event("reduce", stream, span);
        t
    }

    fn host_reduction_inner(&mut self, elements: u64, stream: usize) -> (f64, ChargeSpan) {
        let t = self.config.reduction_seconds(elements);
        self.ledger.reduction_s += t;
        let span = self.clock.charge(stream, RES_HOST, t);
        self.trace.push(ScheduleEvent {
            kind: EventKind::Reduction,
            start_s: span.start_s,
            duration_s: t,
            lanes: elements as usize,
        });
        if self.tracer.enabled() {
            self.tracer.emit_sim(
                "gpu.compaction",
                span.end_s,
                &[
                    ("device", self.device_id.into()),
                    ("elements", elements.into()),
                    ("reduction_s", t.into()),
                ],
            );
        }
        (t, span)
    }

    /// Current simulated clock: the end of the latest segment across all
    /// streams (for single-stream use, the plain sequential sum).
    pub fn clock_s(&self) -> f64 {
        self.clock.makespan_s()
    }

    /// The stream clock: per-stream readiness, per-resource availability,
    /// and the serialized-vs-overlapped accounting.
    pub fn stream_clock(&self) -> &StreamClock {
        &self.clock
    }

    /// Wall time hidden by multi-stream overlap so far (0 when serialized).
    pub fn overlap_saved_s(&self) -> f64 {
        self.clock.saved_s()
    }

    /// Reserve device memory. Fails with [`TractoError::Capacity`] when the
    /// device's capacity would be exceeded, or with [`TractoError::Device`]
    /// when the device has failed or a fault plan injects an allocation
    /// fault (transient — a retry may succeed).
    pub fn device_alloc(&mut self, bytes: u64) -> Result<(), TractoError> {
        if self.fault.health == DeviceHealth::Failed {
            return Err(TractoError::device(
                self.device_id,
                "allocation on failed device",
            ));
        }
        if let Some((kind, at_op)) = self.fault.next_fault(FaultCategory::Alloc) {
            self.emit_fault(kind, "alloc", at_op);
            return Err(TractoError::device(
                self.device_id,
                "device allocation fault",
            ));
        }
        let new_total = self.allocated_bytes + bytes;
        if new_total > self.config.memory_bytes {
            Err(TractoError::capacity(
                "device memory",
                new_total,
                self.config.memory_bytes,
            ))
        } else {
            self.allocated_bytes = new_total;
            Ok(())
        }
    }

    /// Release device memory (saturating).
    pub fn device_free(&mut self, bytes: u64) {
        self.allocated_bytes = self.allocated_bytes.saturating_sub(bytes);
    }

    /// Bytes currently resident on the device.
    pub fn allocated_bytes(&self) -> u64 {
        self.allocated_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A kernel whose lane is `(remaining, counter)`: runs `remaining`
    /// iterations then finishes.
    struct CountdownKernel;
    impl SimKernel for CountdownKernel {
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
            waves_per_cu: 1,
            ..DeviceConfig::radeon_5870()
        }
    }

    #[test]
    fn lanes_execute_to_completion_within_budget() {
        let mut gpu = Gpu::new(device());
        let mut lanes = vec![3u32, 1, 5, 2];
        let stats = gpu.launch(&CountdownKernel, &mut lanes, 100);
        assert_eq!(stats.executed, vec![3, 1, 5, 2]);
        assert!(stats.finished.iter().all(|&f| f));
        assert_eq!(stats.unfinished(), 0);
        assert!(lanes.iter().all(|&l| l == 0));
    }

    #[test]
    fn budget_caps_execution() {
        let mut gpu = Gpu::new(device());
        let mut lanes = vec![10u32, 2];
        let stats = gpu.launch(&CountdownKernel, &mut lanes, 3);
        assert_eq!(stats.executed, vec![3, 2]);
        assert_eq!(stats.finished, vec![false, true]);
        assert_eq!(stats.unfinished(), 1);
        assert_eq!(
            lanes[0], 7,
            "partial progress preserved for the next segment"
        );
    }

    #[test]
    fn lockstep_charging_is_wavefront_max() {
        let mut gpu = Gpu::new(device());
        // One wavefront of 4 lanes: max executed = 5 → charged 5 × 4 = 20.
        let mut lanes = vec![5u32, 1, 1, 1];
        let stats = gpu.launch(&CountdownKernel, &mut lanes, 100);
        assert_eq!(stats.charged_iterations, 20);
        assert_eq!(stats.useful_iterations, 8);
    }

    #[test]
    fn charging_invariant_to_intra_wavefront_order() {
        let mut g1 = Gpu::new(device());
        let mut g2 = Gpu::new(device());
        let mut a = vec![5u32, 1, 2, 3];
        let mut b = vec![3u32, 2, 1, 5];
        let sa = g1.launch(&CountdownKernel, &mut a, 100);
        let sb = g2.launch(&CountdownKernel, &mut b, 100);
        assert_eq!(sa.charged_iterations, sb.charged_iterations);
        assert_eq!(sa.kernel_s, sb.kernel_s);
    }

    #[test]
    fn multiple_wavefronts_charged_independently() {
        let mut gpu = Gpu::new(device());
        // Two wavefronts: [9,1,1,1] and [1,1,1,1] → charged 9·4 + 1·4 = 40.
        let mut lanes = vec![9u32, 1, 1, 1, 1, 1, 1, 1];
        let stats = gpu.launch(&CountdownKernel, &mut lanes, 100);
        assert_eq!(stats.charged_iterations, 40);
        // Sorting the same loads so long lanes share a wavefront reduces
        // the charge: [9,1,1,1,1,1,1,1] sorted desc = [9,...] same here; use
        // a clearer case below.
        let mut g2 = Gpu::new(device());
        let mut sorted = vec![9u32, 9, 9, 9, 1, 1, 1, 1];
        let s2 = g2.launch(&CountdownKernel, &mut sorted, 100);
        assert_eq!(s2.charged_iterations, 40);
        let mut g3 = Gpu::new(device());
        let mut interleaved = vec![9u32, 1, 9, 1, 9, 1, 9, 1];
        let s3 = g3.launch(&CountdownKernel, &mut interleaved, 100);
        assert_eq!(
            s3.charged_iterations, 72,
            "imbalanced wavefronts charge more"
        );
    }

    #[test]
    fn ledger_accumulates_over_launches() {
        let mut gpu = Gpu::new(device());
        let mut lanes = vec![4u32; 8];
        gpu.launch(&CountdownKernel, &mut lanes, 2);
        gpu.launch(&CountdownKernel, &mut lanes, 2);
        assert_eq!(gpu.ledger().launches, 2);
        assert!(gpu.ledger().kernel_s > 0.0);
        assert_eq!(gpu.ledger().useful_iterations, 32);
    }

    #[test]
    fn transfers_and_reduction_tracked() {
        let mut gpu = Gpu::new(device());
        gpu.transfer_to_device(1_000_000);
        gpu.transfer_to_host(500_000);
        gpu.host_reduction(1000);
        let l = gpu.ledger();
        assert_eq!(l.bytes_h2d, 1_000_000);
        assert_eq!(l.bytes_d2h, 500_000);
        assert!(l.transfer_s > 0.0);
        assert!(l.reduction_s > 0.0);
        assert_eq!(gpu.trace().events().len(), 3);
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut gpu = Gpu::new(device());
        let t0 = gpu.clock_s();
        gpu.transfer_to_device(100);
        let t1 = gpu.clock_s();
        let mut lanes = vec![2u32; 4];
        gpu.launch(&CountdownKernel, &mut lanes, 10);
        let t2 = gpu.clock_s();
        assert!(t0 < t1 && t1 < t2);
    }

    #[test]
    fn reset_clears_state() {
        let mut gpu = Gpu::new(device());
        gpu.transfer_to_device(100);
        gpu.reset();
        assert_eq!(*gpu.ledger(), TimingLedger::default());
        assert_eq!(gpu.clock_s(), 0.0);
        assert!(gpu.trace().events().is_empty());
    }

    #[test]
    fn zero_budget_launch_is_noop_for_lanes() {
        let mut gpu = Gpu::new(device());
        let mut lanes = vec![5u32, 5];
        let stats = gpu.launch(&CountdownKernel, &mut lanes, 0);
        assert_eq!(stats.executed, vec![0, 0]);
        assert_eq!(lanes, vec![5, 5]);
        // But launch overhead is still charged — the cost the segmentation
        // strategy must amortize.
        assert!(stats.kernel_s > 0.0);
    }

    #[test]
    fn tracer_records_launch_transfer_and_compaction_events() {
        use std::sync::Arc;
        use tracto_trace::{RingSink, Tracer};

        let ring = Arc::new(RingSink::new(64));
        let mut gpu = Gpu::with_tracer(device(), Tracer::shared(ring.clone()));
        let mut lanes = vec![3u32, 1, 5, 2];
        gpu.transfer_to_device(1024);
        gpu.launch(&CountdownKernel, &mut lanes, 100);
        gpu.host_reduction(4);
        gpu.transfer_to_host(512);

        assert_eq!(ring.count("gpu.launch"), 1);
        assert_eq!(ring.count("gpu.transfer_h2d"), 1);
        assert_eq!(ring.count("gpu.transfer_d2h"), 1);
        assert_eq!(ring.count("gpu.compaction"), 1);
        let launch = &ring.named("gpu.launch")[0];
        assert_eq!(launch.field_u64("lanes"), Some(4));
        assert_eq!(launch.field_u64("charged_iterations"), Some(20));
        let sim = launch.sim_s.expect("launch carries the simulated clock");
        assert!(sim > 0.0);
    }

    #[test]
    fn device_alloc_failure_is_capacity_error() {
        let mut gpu = Gpu::new(device());
        let cap = gpu.config().memory_bytes;
        let err = gpu.device_alloc(cap + 1).expect_err("over capacity");
        assert_eq!(err.kind(), tracto_trace::ErrorKind::Capacity);
        assert!(err.to_string().contains("device memory"));
    }

    #[test]
    fn launch_fault_fires_before_lane_mutation() {
        let plan = FaultPlan::parse("fault 0 0 launch-fail").unwrap();
        let mut gpu = Gpu::new(device());
        gpu.set_fault_plan(&plan, 0);
        let mut lanes = vec![3u32, 1, 5, 2];
        let err = gpu
            .try_launch(&CountdownKernel, &mut lanes, 100)
            .expect_err("op 0 launch faulted");
        assert_eq!(err.kind(), tracto_trace::ErrorKind::Device);
        assert!(err.is_retryable());
        assert_eq!(lanes, vec![3, 1, 5, 2], "failed launch never touches lanes");
        // The failed attempt still cost its fixed overhead.
        let overhead = gpu.config().kernel_seconds_weighted(0, 1.0);
        assert!((gpu.clock_s() - overhead).abs() < 1e-15);
        assert_eq!(gpu.health(), DeviceHealth::Healthy);
        // Transient: the retry (launch op 1) succeeds with full results.
        let stats = gpu
            .try_launch(&CountdownKernel, &mut lanes, 100)
            .expect("retry clean");
        assert_eq!(stats.executed, vec![3, 1, 5, 2]);
        assert_eq!(gpu.faults_injected(), 1);
    }

    #[test]
    fn device_lost_is_sticky() {
        let plan = FaultPlan::parse("fault 0 1 device-lost").unwrap();
        let mut gpu = Gpu::new(device());
        gpu.set_fault_plan(&plan, 0);
        let mut lanes = vec![2u32; 4];
        gpu.try_launch(&CountdownKernel, &mut lanes, 10).unwrap();
        let err = gpu
            .try_launch(&CountdownKernel, &mut lanes, 10)
            .expect_err("lost on second launch");
        assert_eq!(err.kind(), tracto_trace::ErrorKind::Device);
        assert_eq!(gpu.health(), DeviceHealth::Failed);
        // Every subsequent operation errors.
        assert!(gpu.try_launch(&CountdownKernel, &mut lanes, 10).is_err());
        assert!(gpu.try_transfer_to_device(64).is_err());
        assert!(gpu.try_transfer_to_host(64).is_err());
        assert!(gpu.device_alloc(64).is_err());
    }

    #[test]
    fn transfer_timeout_charges_stall_then_errors() {
        let plan = FaultPlan::parse("timeout-s 0.125\nfault 0 0 transfer-timeout").unwrap();
        let mut gpu = Gpu::new(device());
        gpu.set_fault_plan(&plan, 0);
        let err = gpu.try_transfer_to_device(1024).expect_err("timed out");
        assert!(err.is_retryable());
        assert!((gpu.clock_s() - 0.125).abs() < 1e-15);
        assert_eq!(gpu.ledger().bytes_h2d, 0, "no bytes moved");
        // The retry is clean and moves the bytes.
        gpu.try_transfer_to_device(1024).expect("retry clean");
        assert_eq!(gpu.ledger().bytes_h2d, 1024);
    }

    #[test]
    fn degrade_slows_kernels_but_results_identical() {
        let plan = FaultPlan::parse("degrade-factor 4.0\nfault 0 0 degrade").unwrap();
        let mut clean = Gpu::new(device());
        let mut slow = Gpu::new(device());
        slow.set_fault_plan(&plan, 0);
        let mut a = vec![9u32, 3, 7, 5];
        let mut b = a.clone();
        let sc = clean.launch(&CountdownKernel, &mut a, 100);
        let sd = slow
            .try_launch(&CountdownKernel, &mut b, 100)
            .expect("degraded device still runs");
        assert_eq!(a, b, "degradation affects time, never results");
        assert_eq!(slow.health(), DeviceHealth::Degraded);
        assert!((sd.kernel_s / sc.kernel_s - 4.0).abs() < 1e-9);
    }

    #[test]
    fn alloc_fault_is_transient_device_error() {
        let plan = FaultPlan::parse("fault 0 0 alloc-fail").unwrap();
        let mut gpu = Gpu::new(device());
        gpu.set_fault_plan(&plan, 0);
        let err = gpu.device_alloc(1024).expect_err("alloc fault");
        assert_eq!(err.kind(), tracto_trace::ErrorKind::Device);
        assert!(err.is_retryable());
        assert_eq!(gpu.allocated_bytes(), 0);
        gpu.device_alloc(1024).expect("retry clean");
        assert_eq!(gpu.allocated_bytes(), 1024);
    }

    #[test]
    fn injected_faults_emit_trace_events() {
        use std::sync::Arc;
        use tracto_trace::{RingSink, Tracer};

        let plan = FaultPlan::parse(
            "fault 2 0 launch-fail\nfault 2 0 transfer-timeout\nfault 2 0 alloc-fail",
        )
        .unwrap();
        let ring = Arc::new(RingSink::new(64));
        let mut gpu = Gpu::with_tracer(device(), Tracer::shared(ring.clone()));
        gpu.set_tracer(Tracer::shared(ring.clone()), 2);
        gpu.set_fault_plan(&plan, 2);
        let mut lanes = vec![1u32];
        let _ = gpu.try_launch(&CountdownKernel, &mut lanes, 10);
        let _ = gpu.try_transfer_to_host(64);
        let _ = gpu.device_alloc(64);
        let faults = ring.named("gpu.fault");
        assert_eq!(faults.len(), 3);
        assert!(faults.iter().all(|e| e.field_u64("device") == Some(2)));
    }

    #[test]
    fn stream_zero_matches_legacy_clock_exactly() {
        let mut legacy = Gpu::new(device());
        let mut streamed = Gpu::new(device());
        let mut a = vec![7u32; 8];
        let mut b = a.clone();
        legacy.transfer_to_device(1_000_000);
        legacy.launch(&CountdownKernel, &mut a, 100);
        legacy.host_reduction(8);
        legacy.transfer_to_host(500_000);
        streamed.try_transfer_to_device_on(1_000_000, 0).unwrap();
        streamed
            .try_launch_on(&CountdownKernel, &mut b, 100, 0)
            .unwrap();
        streamed.host_reduction_on(8, 0);
        streamed.try_transfer_to_host_on(500_000, 0).unwrap();
        assert_eq!(a, b);
        assert_eq!(legacy.clock_s(), streamed.clock_s(), "bit-identical clock");
        assert_eq!(streamed.overlap_saved_s(), 0.0);
    }

    #[test]
    fn second_stream_hides_transfer_behind_kernel() {
        let mut serial = Gpu::new(device());
        let mut streamed = Gpu::new(device());
        let mut a = vec![200u32; 8];
        let mut b = a.clone();
        serial.launch(&CountdownKernel, &mut a, 1000);
        serial.transfer_to_device(4_000_000);
        streamed
            .try_launch_on(&CountdownKernel, &mut b, 1000, 0)
            .unwrap();
        streamed.try_transfer_to_device_on(4_000_000, 1).unwrap();
        assert_eq!(a, b, "streams reorder time, never results");
        assert!(streamed.clock_s() < serial.clock_s());
        assert!(streamed.overlap_saved_s() > 0.0);
        assert_eq!(
            streamed.ledger().total_s(),
            serial.ledger().total_s(),
            "device-seconds identical; only the wall shrinks"
        );
    }

    #[test]
    fn stream_ops_emit_stream_trace_events() {
        use std::sync::Arc;
        use tracto_trace::{RingSink, Tracer};

        let ring = Arc::new(RingSink::new(64));
        let mut gpu = Gpu::with_tracer(device(), Tracer::shared(ring.clone()));
        let mut lanes = vec![300u32; 8];
        gpu.try_launch_on(&CountdownKernel, &mut lanes, 1000, 0)
            .unwrap();
        gpu.try_transfer_to_device_on(4_000_000, 1).unwrap();
        gpu.host_reduction_on(16, 1);
        let events = ring.named("gpu.stream");
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].field_u64("stream"), Some(0));
        assert_eq!(
            events[0].field("segment"),
            Some(&tracto_trace::Value::Str("kernel"))
        );
        let h2d = &events[1];
        assert_eq!(h2d.field_u64("stream"), Some(1));
        let dur = h2d.field_f64("duration_s").unwrap();
        let hidden = h2d.field_f64("hidden_s").unwrap();
        assert!(
            (hidden - dur).abs() < 1e-15,
            "transfer fully hidden behind the stream-0 kernel"
        );
        // Legacy (streamless) ops never emit gpu.stream.
        gpu.transfer_to_host(64);
        assert_eq!(ring.count("gpu.stream"), 3);
    }

    #[test]
    fn parallel_matches_sequential_results() {
        // The same lanes through a 1-wide device (serial wavefronts) and the
        // normal device must end in identical states.
        let mut wide = Gpu::new(device());
        let mut narrow = Gpu::new(DeviceConfig {
            wavefront_size: 1,
            ..device()
        });
        let mut a: Vec<u32> = (1..100).collect();
        let mut b = a.clone();
        wide.launch(&CountdownKernel, &mut a, 1000);
        narrow.launch(&CountdownKernel, &mut b, 1000);
        assert_eq!(a, b);
    }
}
