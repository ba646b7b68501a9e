//! Property-based tests of the sampler machinery.

use proptest::prelude::*;
use tracto_mcmc::chain::{run_chain, ChainConfig};
use tracto_mcmc::diagnostics::{autocorrelation, effective_sample_size};
use tracto_mcmc::mh::{AdaptScheme, MhSampler};
use tracto_rng::HybridTaus;

proptest! {
    #[test]
    fn chain_collects_exact_sample_count(
        burnin in 0u32..50,
        samples in 1u32..40,
        interval in 1u32..5,
        seed in 0u64..1000,
    ) {
        let target = |p: &[f64; 1]| -0.5 * p[0] * p[0];
        let config = ChainConfig {
            num_burnin: burnin,
            num_samples: samples,
            sample_interval: interval,
            adapt: AdaptScheme::paper_default(),
        };
        let mut rng = HybridTaus::new(seed);
        let out = run_chain(&target, [0.0], [1.0], config, &mut rng);
        prop_assert_eq!(out.samples.len(), samples as usize);
        prop_assert_eq!(config.num_loops(), burnin + samples * interval);
    }

    #[test]
    fn sampler_stays_in_support(
        lo in -5.0f64..0.0,
        width in 0.5f64..10.0,
        seed in 0u64..500,
        scale in 0.1f64..20.0,
    ) {
        // Uniform target on [lo, lo+width]: the chain must never escape.
        let hi = lo + width;
        let target = move |p: &[f64; 1]| {
            if p[0] >= lo && p[0] <= hi { 0.0 } else { f64::NEG_INFINITY }
        };
        let start = lo + width / 2.0;
        let mut s = MhSampler::new(&target, [start], [scale], AdaptScheme::Fixed);
        let mut rng = HybridTaus::new(seed);
        for _ in 0..300 {
            s.step_loop(&target, &mut rng);
            prop_assert!(s.params()[0] >= lo && s.params()[0] <= hi);
        }
    }

    #[test]
    fn log_density_never_decreases_on_accept(
        seed in 0u64..500,
        mean in -3.0f64..3.0,
    ) {
        let target = move |p: &[f64; 1]| -0.5 * (p[0] - mean) * (p[0] - mean);
        let mut s = MhSampler::new(&target, [0.0], [0.7], AdaptScheme::Fixed);
        let mut rng = HybridTaus::new(seed);
        for _ in 0..200 {
            let before = s.log_density();
            let accepted = s.step_param(&target, &mut rng, 0);
            if !accepted {
                prop_assert_eq!(s.log_density(), before, "rejected move changed density");
            } else {
                // Accepted moves can go downhill (that's MH), but the stored
                // density must match the target at the new point.
                let expect = target(s.params());
                prop_assert!((s.log_density() - expect).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn determinism_across_replays(seed in 0u64..2000) {
        let target = |p: &[f64; 2]| -0.5 * (p[0] * p[0] + p[1] * p[1]);
        let run = |seed: u64| {
            let config = ChainConfig::fast_test();
            let mut rng = HybridTaus::new(seed);
            run_chain(&target, [1.0, -1.0], [0.5, 0.5], config, &mut rng).samples
        };
        prop_assert_eq!(run(seed), run(seed));
    }

    #[test]
    fn ess_bounds(data in prop::collection::vec(-10.0f64..10.0, 8..300)) {
        let ess = effective_sample_size(&data);
        prop_assert!(ess >= 1.0 && ess <= data.len() as f64 + 1e-9);
    }

    #[test]
    fn autocorrelation_bounds(data in prop::collection::vec(-10.0f64..10.0, 4..200), lag in 0usize..5) {
        let rho = autocorrelation(&data, lag);
        prop_assert!(rho.abs() <= 1.0 + 1e-9, "|ρ|={rho}");
        if lag == 0 && data.iter().any(|&x| x != data[0]) {
            prop_assert!((rho - 1.0).abs() < 1e-9);
        }
    }
}

mod wavefront {
    use proptest::prelude::*;
    use tracto_diffusion::posterior::{param_index, NUM_PARAMETERS};
    use tracto_diffusion::{
        Acquisition, BallSticksParams, BallSticksPosterior, NoiseLikelihood, PriorConfig,
    };
    use tracto_mcmc::cached::{WavefrontBallSticks, WavefrontLane};
    use tracto_mcmc::chain::{run_chain, ChainConfig};
    use tracto_mcmc::checkpoint::CheckpointPolicy;
    use tracto_mcmc::mh::{AdaptScheme, MhSampler};
    use tracto_mcmc::voxelwise::default_proposal_scales;
    use tracto_rng::{HybridTaus, RandomSource};
    use tracto_volume::Vec3;

    /// A lane of the sweep under test, and its per-lane oracle's inputs.
    struct Lane {
        signal: Vec<f64>,
        sampler: MhSampler<NUM_PARAMETERS>,
        rng: HybridTaus,
        loops: u32,
        done: u32,
        samples: Vec<[f64; NUM_PARAMETERS]>,
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

    /// Record a sample after loop `done` as the Step-1 kernel does: every
    /// `L` loops after burn-in, up to `NumSamples`.
    fn record(config: ChainConfig, done: u32, params: &[f64; 9], out: &mut Vec<[f64; 9]>) {
        if done > config.num_burnin
            && (done - config.num_burnin) % config.sample_interval == 0
            && out.len() < config.num_samples as usize
        {
            out.push(*params);
        }
    }

    /// Two b=0 rows and twelve random directions on two shells.
    fn protocol(rng: &mut HybridTaus) -> Acquisition {
        let mut bvals = vec![0.0, 0.0];
        let mut grads = vec![Vec3::ZERO, Vec3::ZERO];
        for i in 0..12 {
            bvals.push(if i % 2 == 0 { 1000.0 } else { 2500.0 });
            let g = Vec3::new(
                rng.next_f64() - 0.5,
                rng.next_f64() - 0.5,
                rng.next_f64() - 0.5,
            );
            grads.push(g);
        }
        Acquisition::new(bvals, grads)
    }

    /// A random ball-and-two-sticks voxel plus uniform noise, as magnitude
    /// data (positive, so the Rician likelihood has support).
    fn voxel_signal(acq: &Acquisition, rng: &mut HybridTaus, noise: f64) -> Vec<f64> {
        let mut u = |lo: f64, hi: f64| lo + (hi - lo) * rng.next_f64();
        let truth = BallSticksParams {
            s0: u(50.0, 200.0),
            d: u(5e-4, 2.5e-3),
            sigma: 1.0,
            f1: u(0.2, 0.7),
            th1: u(0.0, 3.1),
            ph1: u(-3.1, 3.1),
            f2: u(0.0, 0.25),
            th2: u(0.0, 3.1),
            ph2: u(-3.1, 3.1),
        };
        (0..acq.len())
            .map(|i| {
                (tracto_diffusion::models::ball_two_sticks_predict(
                    truth.s0,
                    truth.d,
                    truth.f1,
                    truth.f2,
                    truth.dir1(),
                    truth.dir2(),
                    acq.bval(i),
                    acq.grad(i),
                ) + noise * (u(0.0, 1.0) - 0.5))
                    .abs()
                    + 0.01
            })
            .collect()
    }

    proptest! {
        #[test]
        fn wavefront_lockstep_equals_per_lane_oracle(
            width_pick in 0usize..4,
            variant in 0usize..4,
            wild in 0usize..3,
            policy_pick in 0usize..3,
            seed in 0u64..100_000,
            noise in 0.5f64..8.0,
            burnin in 5u32..40,
            samples in 1u32..6,
            interval in 1u32..4,
        ) {
            let width = [1usize, 3, 64, 65][width_pick];
            let prior = match variant {
                0 => PriorConfig::default(),
                1 => PriorConfig { ard_weight: Some(2.0), ..PriorConfig::default() },
                2 => PriorConfig { max_sticks: 1, ..PriorConfig::default() },
                _ => PriorConfig { likelihood: NoiseLikelihood::Rician, ..PriorConfig::default() },
            };
            let config = ChainConfig {
                num_burnin: burnin,
                num_samples: samples,
                sample_interval: interval,
                adapt: AdaptScheme::Band {
                    interval: 4 + (seed % 5) as u32,
                    lo: 0.25,
                    hi: 0.5,
                    grow: 1.25,
                    shrink: 0.8,
                },
            };
            let num_loops = config.num_loops();
            let every = [1, 7, num_loops][policy_pick];
            let mut setup = HybridTaus::new(seed);
            let acq = protocol(&mut setup);

            // Lanes: their own signal, tensor-fit start, scales (huge under
            // `wild == 0`, so most proposals leave the support) and seed
            // stream; some stop a few loops early, so lanes go inactive
            // mid-launch.
            let mut lanes: Vec<Lane> = (0..width)
                .map(|l| {
                    let signal = voxel_signal(&acq, &mut setup, noise);
                    let post = BallSticksPosterior::new(&acq, &signal, prior);
                    let mut init = post.initial_params();
                    if prior.max_sticks == 1 {
                        init.f2 = 0.0;
                    }
                    let mut scales = default_proposal_scales(init.s0);
                    if wild == 0 {
                        scales.iter_mut().for_each(|s| *s *= 40.0);
                    }
                    let plain = |p: &[f64; 9]| post.log_posterior(&BallSticksParams::from_array(*p));
                    let mut sampler = MhSampler::new(&plain, init.to_array(), scales, config.adapt);
                    if prior.max_sticks == 1 {
                        for j in [param_index::F2, param_index::TH2, param_index::PH2] {
                            sampler.freeze(j);
                        }
                    }
                    Lane {
                        signal,
                        sampler,
                        rng: HybridTaus::seed_stream(seed, l as u64),
                        loops: num_loops - (l as u32 * 7 % 4).min(num_loops - 1),
                        done: 0,
                        samples: Vec::new(),
                    }
                })
                .collect();
            let start: Vec<_> = lanes.iter().map(|l| (l.sampler.clone(), l.rng.clone())).collect();

            // The sweep under test: 64-lane wavefronts, each bound once per
            // checkpoint segment.
            let mut cache = WavefrontBallSticks::new();
            for budget in CheckpointPolicy::every(every).segments(num_loops) {
                for wave in lanes.chunks_mut(64) {
                    cache.bind(&acq, prior, wave);
                    for _ in 0..budget {
                        let active: Vec<bool> = wave.iter().map(|l| l.done < l.loops).collect();
                        cache.step_loop(&acq, wave, &active);
                        for lane in wave.iter_mut().filter(|l| l.done < l.loops) {
                            lane.done += 1;
                            record(config, lane.done, lane.sampler.params(), &mut lane.samples);
                        }
                    }
                }
            }

            // The oracle: each lane's plain chain, alone.
            for (l, (lane, (sampler, rng))) in lanes.iter().zip(start).enumerate() {
                let post = BallSticksPosterior::new(&acq, &lane.signal, prior);
                let plain = |p: &[f64; 9]| post.log_posterior(&BallSticksParams::from_array(*p));
                let (mut s, mut r) = (sampler.clone(), rng.clone());
                let mut kept = Vec::new();
                for done in 1..=lane.loops {
                    s.step_loop(&plain, &mut r);
                    record(config, done, s.params(), &mut kept);
                }
                prop_assert_eq!(lane.done, lane.loops);
                prop_assert_eq!(lane.sampler.snapshot(), s.snapshot(), "lane {}", l);
                prop_assert_eq!(lane.rng.state(), r.state(), "lane {} draws", l);
                prop_assert_eq!(&lane.samples, &kept, "lane {} samples", l);
                if prior.max_sticks == 2 && lane.loops == num_loops {
                    let mut r = rng.clone();
                    let out = run_chain(&plain, *sampler.params(), *sampler.scales(), config, &mut r);
                    prop_assert_eq!(&lane.samples, &out.samples, "lane {} vs run_chain", l);
                    prop_assert_eq!(*lane.sampler.scales(), out.final_scales);
                    prop_assert_eq!(lane.sampler.recent_acceptance_rates(), out.final_acceptance);
                }
            }
        }
    }
}
