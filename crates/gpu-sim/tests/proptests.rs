//! Property-based tests of the simulator's cost-model invariants.

use proptest::prelude::*;
use tracto_gpu_sim::{DeviceConfig, Gpu, LaneStatus, SimKernel, StreamClock};

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

/// [`Countdown`] stepped round-robin: every live lane advances one
/// iteration per pass, the lockstep order itself. The reference order for
/// the lane-major default.
struct RoundRobinCountdown;
impl SimKernel for RoundRobinCountdown {
    type Lane = u32;
    fn step(&self, lane: &mut u32) -> LaneStatus {
        Countdown.step(lane)
    }
    fn run_wavefront(&self, chunk: &mut [u32], max_iters: u32) -> (Vec<u32>, Vec<bool>) {
        let m = chunk.len();
        let mut executed = vec![0u32; m];
        let mut finished = vec![false; m];
        let mut alive = m;
        let mut iters_done = 0u32;
        while alive > 0 && iters_done < max_iters {
            for (i, lane) in chunk.iter_mut().enumerate() {
                if finished[i] {
                    continue;
                }
                executed[i] += 1;
                if self.step(lane) == LaneStatus::Finished {
                    finished[i] = true;
                    alive -= 1;
                }
            }
            iters_done += 1;
        }
        (executed, finished)
    }
}

fn device(wavefront: usize) -> DeviceConfig {
    DeviceConfig {
        wavefront_size: wavefront,
        num_compute_units: 2,
        waves_per_cu: 2,
        ..DeviceConfig::radeon_5870()
    }
}

proptest! {
    #[test]
    fn lane_major_run_wavefront_matches_the_round_robin_default(
        loads in prop::collection::vec(0u32..120, 1..150),
        wavefront in 1usize..20,
        budgets in prop::collection::vec(0u32..60, 1..6),
    ) {
        // The `run_wavefront` contract: a kernel may pick its host order,
        // but per-lane counts, finish flags, lockstep charges, simulated
        // kernel time and lane results must not depend on it. The
        // lane-major default must equal round-robin stepping, launch by
        // launch, over any split of the work into budgets.
        let mut round_robin = Gpu::new(device(wavefront));
        let mut lane_major = Gpu::new(device(wavefront));
        let mut a = loads.clone();
        let mut b = loads.clone();
        for &budget in &budgets {
            let sa = round_robin.launch(&RoundRobinCountdown, &mut a, budget);
            let sb = lane_major.launch(&Countdown, &mut b, budget);
            prop_assert_eq!(&sa.executed, &sb.executed, "budget {}", budget);
            prop_assert_eq!(&sa.finished, &sb.finished);
            prop_assert_eq!(sa.charged_iterations, sb.charged_iterations);
            prop_assert_eq!(sa.useful_iterations, sb.useful_iterations);
            prop_assert_eq!(sa.kernel_s.to_bits(), sb.kernel_s.to_bits());
            prop_assert_eq!(&a, &b);
        }
        prop_assert_eq!(round_robin.clock_s().to_bits(), lane_major.clock_s().to_bits());
    }

    #[test]
    fn executed_never_exceeds_budget(
        loads in prop::collection::vec(1u32..500, 1..200),
        budget in 1u32..100,
        wavefront in 1usize..16,
    ) {
        let mut gpu = Gpu::new(device(wavefront));
        let mut lanes = loads.clone();
        let stats = gpu.launch(&Countdown, &mut lanes, budget);
        for (i, (&e, &orig)) in stats.executed.iter().zip(&loads).enumerate() {
            prop_assert!(e <= budget, "lane {i} executed {e} > budget {budget}");
            prop_assert!(e <= orig, "lane {i} executed {e} > its own load {orig}");
            // Finished iff the load fit within the budget.
            prop_assert_eq!(stats.finished[i], orig <= budget);
        }
    }

    #[test]
    fn charged_at_least_useful(
        loads in prop::collection::vec(1u32..300, 1..256),
        wavefront in 1usize..64,
    ) {
        let mut gpu = Gpu::new(device(wavefront));
        let mut lanes = loads.clone();
        let stats = gpu.launch(&Countdown, &mut lanes, 1_000);
        prop_assert!(stats.charged_iterations >= stats.useful_iterations);
        prop_assert_eq!(
            stats.useful_iterations,
            loads.iter().map(|&l| l as u64).sum::<u64>()
        );
        let util = gpu.ledger().simd_utilization();
        prop_assert!(util > 0.0 && util <= 1.0 + 1e-12);
    }

    #[test]
    fn charging_invariant_to_intra_warp_permutation(
        mut loads in prop::collection::vec(1u32..200, 8..64),
        seed in 0u64..1000,
    ) {
        let wavefront = 8;
        let mut g1 = Gpu::new(device(wavefront));
        let s1 = g1.launch(&Countdown, &mut loads.clone(), 1_000);
        // Permute within each wavefront only.
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        for chunk in loads.chunks_mut(wavefront) {
            for i in (1..chunk.len()).rev() {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let j = (state >> 33) as usize % (i + 1);
                chunk.swap(i, j);
            }
        }
        let mut g2 = Gpu::new(device(wavefront));
        let s2 = g2.launch(&Countdown, &mut loads, 1_000);
        prop_assert_eq!(s1.charged_iterations, s2.charged_iterations);
        prop_assert!((s1.kernel_s - s2.kernel_s).abs() < 1e-15);
    }

    #[test]
    fn wider_wavefronts_never_charge_less(
        loads in prop::collection::vec(1u32..200, 1..200),
    ) {
        // Doubling the wavefront merges pairs of warps: max(a,b) ≥ each.
        let mut narrow = Gpu::new(device(4));
        let mut wide = Gpu::new(device(8));
        let sn = narrow.launch(&Countdown, &mut loads.clone(), 1_000);
        let sw = wide.launch(&Countdown, &mut loads.clone(), 1_000);
        prop_assert!(sw.charged_iterations >= sn.charged_iterations);
    }

    #[test]
    fn transfer_time_monotone_and_additive(a in 0u64..1_000_000, b in 0u64..1_000_000) {
        let d = DeviceConfig::radeon_5870();
        let ta = d.pcie.transfer_seconds(a);
        let tb = d.pcie.transfer_seconds(b);
        let tab = d.pcie.transfer_seconds(a + b);
        prop_assert!(tab + 1e-15 >= ta.max(tb));
        // One big transfer beats two small ones (latency amortized).
        prop_assert!(tab <= ta + tb + 1e-15);
    }

    #[test]
    fn overlap_bounded_by_sequential_and_resource_floor(
        charges in prop::collection::vec((0usize..4, 0usize..3, 0.001f64..1.0), 1..40),
    ) {
        let mut clock = StreamClock::new();
        let mut one_stream = StreamClock::new();
        let mut busy = [0.0f64; 3];
        for &(stream, resource, duration_s) in &charges {
            clock.charge(stream, resource, duration_s);
            one_stream.charge(0, resource, duration_s);
            busy[resource] += duration_s;
        }
        prop_assert!(clock.makespan_s() <= clock.serial_s() + 1e-9);
        let floor = busy.iter().copied().fold(0.0, f64::max);
        prop_assert!(clock.makespan_s() + 1e-9 >= floor,
            "makespan below the busy-resource floor");
        prop_assert_eq!(one_stream.makespan_s(), one_stream.serial_s());
        prop_assert_eq!(one_stream.serial_s(), clock.serial_s());
    }

    #[test]
    fn kernel_time_monotone_in_weight(
        iters in 1u64..10_000_000,
        w1 in 0.1f64..10.0,
        extra in 0.1f64..10.0,
    ) {
        let d = DeviceConfig::radeon_5870();
        prop_assert!(
            d.kernel_seconds_weighted(iters, w1) <= d.kernel_seconds_weighted(iters, w1 + extra)
        );
    }
}
