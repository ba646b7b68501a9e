//! CI bench smoke: quick-mode regression gates over the performance
//! claims of the overlap-scheduled execution path and the MH loop.
//!
//! 1. **Ablation-6 scaling**: stream-overlapped strategy B must scale at
//!    or above 1.0x at 2 and 4 simulated devices, with per-lane executed
//!    iteration counts bit-identical to the serialized host loop. These
//!    run on the simulated clock, so they are machine-independent.
//! 2. **MH inner loop**: the wavefront sweep
//!    ([`WavefrontBallSticks`]) driving one chain (width 1) must stay at
//!    or below its committed cached/plain time ratio (+10% tolerance) and
//!    below the 0.5 ceiling (the 2x acceptance bar), with bit-identical
//!    chain output for a fixed seed. Ratios divide out machine speed, so
//!    the committed baseline is portable across CI hosts.
//! 3. **Analytic fast tier**: tracking the posterior mean with closed-form
//!    unit steps must cost at least `analytic_vs_mcmc_min_speedup` times
//!    less simulated device time than per-sample MCMC tracking of the
//!    same dataset. Simulated clock again, so machine-independent.
//! 4. **MH kernel path**: `run_mcmc_gpu` over one wavefront of voxels that
//!    all carry gate 2's signal must cost at most
//!    `mcmc_kernel_vs_cached_loop_max` times a hand-driven wavefront sweep
//!    over the same 64 chains, each built as the kernel builds it
//!    (tensor-fit start, one `bind`, then lockstep `step_loop`s, kept
//!    samples) — the kernel's own overhead per voxel-loop (cache binds,
//!    lane bookkeeping), a ratio of two host timings. A kernel that
//!    rebuilds the cache every loop measures ~1.2–1.6x here.
//!
//! Baseline: `crates/bench/baselines/smoke.json`. Exit code 0 = pass.

use std::time::Instant;
use tracto::diffusion::posterior::{BallSticksParams, NUM_PARAMETERS};
use tracto::diffusion::DiffusionModel;
use tracto::mcmc::cached::{WavefrontBallSticks, WavefrontLane};
use tracto::mcmc::mh::{AdaptScheme, MhSampler};
use tracto::mcmc::voxelwise::default_proposal_scales;
use tracto::phantom::gradients;
use tracto::prelude::*;
use tracto::rng::HybridTaus;
use tracto_bench::{run_scaling, scaling_loads};
use tracto_trace::json::{parse, Json};

/// Quick-mode lane count: a quarter of the full ablation keeps the same
/// 10% heavy-tail shape while the whole gate runs in seconds.
const SMOKE_LANES: usize = 65_536;
/// Timing loops per MH measurement pass.
const MH_LOOPS: u32 = 2_000;

fn baseline() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/baselines/smoke.json");
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read baseline {path}: {e}"));
    parse(&text).expect("baseline JSON parses")
}

fn baseline_f64(doc: &Json, key: &str) -> f64 {
    doc.get(key)
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("baseline missing numeric `{key}`"))
}

/// Gate 1: streamed strategy-B scaling on the simulated clock.
fn check_scaling(failures: &mut Vec<String>) {
    let loads = scaling_loads(SMOKE_LANES, 99);
    let strategy = SegmentationStrategy::paper_b();
    let base = run_scaling(&loads, &strategy, 1, 2);
    println!("ablation-6 (quick, {SMOKE_LANES} lanes), strategy B streamed:");
    for n in [2usize, 4] {
        let serial = run_scaling(&loads, &strategy, n, 1);
        let streamed = run_scaling(&loads, &strategy, n, 2 * n);
        let speedup = base.wall_s / streamed.wall_s;
        println!(
            "  {n} device(s): wall {:.4} s (serialized {:.4} s), speedup {speedup:.2}x, \
             {:.4} s hidden",
            streamed.wall_s, serial.wall_s, streamed.overlap_saved_s
        );
        if serial.executed != streamed.executed {
            failures.push(format!(
                "streamed schedule diverged from serialized at {n} device(s)"
            ));
        }
        if speedup < 1.0 {
            failures.push(format!(
                "strategy B streamed speedup {speedup:.3}x < 1.0x at {n} device(s)"
            ));
        }
    }
}

/// Gate 2's protocol and noiseless two-stick signal (gate 4 reuses it).
fn gate_signal() -> (Acquisition, Vec<f64>) {
    let acq = gradients::default_protocol(1);
    let model = tracto::diffusion::BallSticksModel::new(
        1000.0,
        1.5e-3,
        vec![0.5, 0.2],
        vec![Vec3::X, Vec3::Y],
    );
    let signal = model.predict_protocol(&acq);
    (acq, signal)
}

/// One hand-driven chain of the wavefront sweep.
struct Lane {
    signal: Vec<f64>,
    sampler: MhSampler<NUM_PARAMETERS>,
    rng: HybridTaus,
}

impl WavefrontLane for Lane {
    type Rng = HybridTaus;

    fn signal(&self) -> &[f64] {
        &self.signal
    }

    fn chain(&mut self) -> (&mut MhSampler<NUM_PARAMETERS>, &mut HybridTaus) {
        (&mut self.sampler, &mut self.rng)
    }
}

/// Median of a set of timings.
fn median(v: &mut [f64]) -> f64 {
    v.sort_by(|a, b| a.total_cmp(b));
    v[v.len() / 2]
}

/// Gate 2: the MH inner loop on the wavefront sweep at width 1 —
/// identical output, bounded ratio.
fn check_mh_loop(doc: &Json, failures: &mut Vec<String>) {
    let (acq, signal) = gate_signal();
    let posterior = BallSticksPosterior::new(&acq, &signal, PriorConfig::default());
    let init = posterior.initial_params().to_array();
    let target =
        |p: &[f64; NUM_PARAMETERS]| posterior.log_posterior(&BallSticksParams::from_array(*p));
    let scheme = AdaptScheme::paper_default;

    // Identity first: the cached loop must retrace the plain one exactly.
    let mut plain = MhSampler::new(&target, init, [0.01; NUM_PARAMETERS], scheme());
    let mut rng = HybridTaus::new(7);
    for _ in 0..MH_LOOPS {
        plain.step_loop(&target, &mut rng);
    }
    let lane = || Lane {
        signal: signal.clone(),
        sampler: MhSampler::new(&target, init, [0.01; NUM_PARAMETERS], scheme()),
        rng: HybridTaus::new(7),
    };
    let mut cached = [lane()];
    let mut cache = WavefrontBallSticks::new();
    cache.bind(&acq, PriorConfig::default(), &mut cached);
    for _ in 0..MH_LOOPS {
        cache.step_loop(&acq, &mut cached, &[true]);
    }
    if plain.snapshot() != cached[0].sampler.snapshot() {
        failures.push("wavefront MH loop diverged from the plain sampler".into());
    }

    // Timing: median of 5 passes each, interleaved to share thermal state.
    let time_plain = || {
        let mut s = MhSampler::new(&target, init, [0.01; NUM_PARAMETERS], scheme());
        let mut rng = HybridTaus::new(7);
        let t = Instant::now();
        for _ in 0..MH_LOOPS {
            s.step_loop(&target, &mut rng);
        }
        t.elapsed().as_secs_f64()
    };
    let time_cached = || {
        let mut lanes = [lane()];
        let mut cache = WavefrontBallSticks::new();
        cache.bind(&acq, PriorConfig::default(), &mut lanes);
        let t = Instant::now();
        for _ in 0..MH_LOOPS {
            cache.step_loop(&acq, &mut lanes, &[true]);
        }
        t.elapsed().as_secs_f64()
    };
    let mut plain_ts = Vec::new();
    let mut cached_ts = Vec::new();
    for _ in 0..5 {
        plain_ts.push(time_plain());
        cached_ts.push(time_cached());
    }
    let plain_us = median(&mut plain_ts) / f64::from(MH_LOOPS) * 1e6;
    let cached_us = median(&mut cached_ts) / f64::from(MH_LOOPS) * 1e6;
    let ratio = cached_us / plain_us;

    let base_ratio = baseline_f64(doc, "mh_loop_cached_ratio");
    let ceiling = baseline_f64(doc, "mh_loop_cached_ratio_max");
    println!(
        "mh loop: plain {plain_us:.2} us, cached {cached_us:.2} us, ratio {ratio:.3} \
         (baseline {base_ratio:.3}, ceiling {ceiling:.3})"
    );
    if ratio > base_ratio * 1.10 {
        failures.push(format!(
            "MH cached/plain ratio {ratio:.3} regressed >10% over baseline {base_ratio:.3}"
        ));
    }
    if ratio > ceiling {
        failures.push(format!(
            "MH cached/plain ratio {ratio:.3} above the {ceiling:.2} ceiling (2x speedup bar)"
        ));
    }
}

/// Gate 3: the analytic modality's simulated-time advantage over MCMC.
fn check_analytic_vs_mcmc(doc: &Json, failures: &mut Vec<String>) {
    use tracto::tracking::analytic::{analytic_params, mean_posterior};

    let min_speedup = baseline_f64(doc, "analytic_vs_mcmc_min_speedup");
    let ds = datasets::single_bundle(Dim3::new(12, 8, 8), None, 3);
    let mask = Mask::from_fn(ds.dwi.dims(), |c| ds.truth.at(c).count > 0);
    let samples = tracto::synthetic::samples_from_truth(&ds.truth, 16, 0.1, 0.02, 5);
    let seeds = seeds_from_mask(&mask);
    let params = TrackingParams {
        step_length: 0.1,
        angular_threshold: 0.9,
        max_steps: 2000,
        min_fraction: 0.05,
        interp: InterpMode::Nearest,
    };
    let simulated_s =
        |samples: &tracto::mcmc::SampleVolumes, params: TrackingParams, jitter: f64| {
            let tracker = GpuTracker {
                samples,
                params,
                seeds: seeds.clone(),
                mask: None,
                strategy: SegmentationStrategy::paper_b(),
                ordering: SeedOrdering::Natural,
                jitter,
                run_seed: 42,
                record: RecordMode::LengthsOnly,
            };
            let mut gpu = Gpu::new(DeviceConfig::radeon_5870());
            tracker.run(&mut gpu, 1).ledger.total_s()
        };
    let mcmc_s = simulated_s(&samples, params, 0.5);
    let analytic_s = simulated_s(&mean_posterior(&samples), analytic_params(&params), 0.0);
    let speedup = mcmc_s / analytic_s;
    println!(
        "analytic tier ({} seeds, {} samples): mcmc {mcmc_s:.4} s simulated, \
         analytic {analytic_s:.4} s simulated, {speedup:.1}x cheaper (floor {min_speedup:.1}x)",
        seeds.len(),
        samples.num_samples()
    );
    if speedup < min_speedup {
        failures.push(format!(
            "analytic tier only {speedup:.2}x cheaper than MCMC (floor {min_speedup:.1}x)"
        ));
    }
}

/// Gate 4: Step 1 through the simulated kernel versus the hand-driven
/// wavefront sweep over the same chains, per voxel-loop. One wavefront (64
/// lanes on the default device) is one `par_map` item, so the launch runs
/// the kernel inline on the calling thread, as the hand loop runs.
fn check_mcmc_kernel(doc: &Json, failures: &mut Vec<String>) {
    let (acq, signal) = gate_signal();
    let dims = Dim3::new(4, 4, 4);
    let mut dwi = Volume4::<f32>::zeros(dims, acq.len());
    for v in 0..dims.len() {
        for (out, &s) in dwi.voxel_at_mut(v).iter_mut().zip(&signal) {
            *out = s as f32;
        }
    }
    let mask = Mask::from_fn(dims, |_| true);
    let config = ChainConfig {
        num_burnin: MH_LOOPS / 4 - 50,
        num_samples: 25,
        sample_interval: 2,
        adapt: AdaptScheme::paper_default(),
    };
    let prior = PriorConfig::default();
    let seed = 7;
    let device = DeviceConfig::radeon_5870();
    assert_eq!(device.wavefront_size, dims.len(), "one wavefront of lanes");

    // The chains run_mcmc_gpu builds, built and run the same way inside
    // the timed region: every voxel's f32 signal, tensor-fit start,
    // default scales, its own RNG stream, one cache bind for the
    // wavefront, and the kept samples. What the ratio leaves is the kernel
    // path's own overhead (lane and launch bookkeeping), not per-chain
    // set-up whose share varies from host to host.
    let time_hand = || {
        let mut cache = WavefrontBallSticks::new();
        let mut kept = Vec::with_capacity(dims.len() * config.num_samples as usize);
        let t = Instant::now();
        let mut lanes: Vec<Lane> = (0..dims.len())
            .map(|voxel| {
                let signal: Vec<f64> = dwi.voxel_at(voxel).iter().map(|&v| f64::from(v)).collect();
                let posterior = BallSticksPosterior::new(&acq, &signal, prior);
                let init = posterior.initial_params();
                let scales = default_proposal_scales(init.s0);
                let target = |p: &[f64; NUM_PARAMETERS]| {
                    posterior.log_posterior(&BallSticksParams::from_array(*p))
                };
                let sampler = MhSampler::new(&target, init.to_array(), scales, config.adapt);
                Lane {
                    signal,
                    sampler,
                    rng: HybridTaus::seed_stream(seed, voxel as u64),
                }
            })
            .collect();
        cache.bind(&acq, prior, &mut lanes);
        let active = vec![true; lanes.len()];
        for done in 1..=config.num_loops() {
            cache.step_loop(&acq, &mut lanes, &active);
            if done > config.num_burnin && (done - config.num_burnin) % config.sample_interval == 0
            {
                kept.extend(lanes.iter().map(|l| *l.sampler.params()));
            }
        }
        let elapsed = t.elapsed().as_secs_f64();
        assert_eq!(kept.len(), dims.len() * config.num_samples as usize);
        elapsed
    };
    let time_kernel = || {
        let mut gpu = Gpu::new(device.clone());
        let t = Instant::now();
        run_mcmc_gpu(&mut gpu, &acq, &dwi, &mask, prior, config, seed, 1, None)
            .expect("fault-free device");
        t.elapsed().as_secs_f64()
    };
    // Seven back-to-back pairs; the gate takes the median of the per-pair
    // ratios, so drift in host speed between pairs cancels.
    let (mut hand_ts, mut kernel_ts, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..7 {
        let (hand, kernel) = (time_hand(), time_kernel());
        hand_ts.push(hand);
        kernel_ts.push(kernel);
        ratios.push(kernel / hand);
    }
    let voxel_loops = dims.len() as f64 * f64::from(config.num_loops());
    let hand_us = median(&mut hand_ts) / voxel_loops * 1e6;
    let kernel_us = median(&mut kernel_ts) / voxel_loops * 1e6;
    let ratio = median(&mut ratios);
    let ceiling = baseline_f64(doc, "mcmc_kernel_vs_cached_loop_max");
    println!(
        "mcmc kernel ({} lanes x {} loops): {kernel_us:.2} us per voxel-loop, hand wavefront \
         sweep {hand_us:.2} us, median pair ratio {ratio:.3} (ceiling {ceiling:.2})",
        dims.len(),
        config.num_loops()
    );
    if ratio > ceiling {
        failures.push(format!(
            "run_mcmc_gpu costs {ratio:.3}x the hand wavefront sweep per voxel-loop \
             (ceiling {ceiling:.2})"
        ));
    }
}

fn main() {
    let doc = baseline();
    let mut failures = Vec::new();
    check_scaling(&mut failures);
    check_mh_loop(&doc, &mut failures);
    check_analytic_vs_mcmc(&doc, &mut failures);
    check_mcmc_kernel(&doc, &mut failures);
    if failures.is_empty() {
        println!("bench smoke: PASS");
    } else {
        for f in &failures {
            eprintln!("bench smoke FAIL: {f}");
        }
        std::process::exit(1);
    }
}
