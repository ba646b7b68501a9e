//! Fanning chains out across the brain volume.
//!
//! Step 1 of the pipeline consumes the 4-D DWI volume and produces "six 4-D
//! volumes (DimX × DimY × DimZ × NumSamples)" (Fig. 1): per-voxel posterior
//! samples of `(f₁, f₂, θ₁, θ₂, φ₁, φ₂)`. Chains for different voxels are
//! completely independent — "we use one thread for the MCMC of one voxel" —
//! the serial CPU reference here runs them one after another (the Table III
//! baseline and the oracle), and the simulated-GPU path maps one voxel per
//! lane.

use crate::chain::{run_chain, ChainConfig, ChainOutput};
use tracto_diffusion::posterior::{param_index, BallSticksParams, NUM_PARAMETERS};
use tracto_diffusion::{Acquisition, BallSticksPosterior, PriorConfig};
use tracto_rng::HybridTaus;
use tracto_volume::{Dim3, Ijk, Mask, Vec3, Volume4};

/// The six 4-D sample volumes produced by the MCMC step.
#[derive(Debug, Clone)]
pub struct SampleVolumes {
    /// Stick-1 volume fraction samples.
    pub f1: Volume4<f32>,
    /// Stick-2 volume fraction samples.
    pub f2: Volume4<f32>,
    /// Stick-1 polar angle samples.
    pub th1: Volume4<f32>,
    /// Stick-1 azimuth samples.
    pub ph1: Volume4<f32>,
    /// Stick-2 polar angle samples.
    pub th2: Volume4<f32>,
    /// Stick-2 azimuth samples.
    pub ph2: Volume4<f32>,
}

impl SampleVolumes {
    /// Allocate zeroed sample volumes.
    pub fn zeros(dims: Dim3, num_samples: usize) -> Self {
        SampleVolumes {
            f1: Volume4::zeros(dims, num_samples),
            f2: Volume4::zeros(dims, num_samples),
            th1: Volume4::zeros(dims, num_samples),
            ph1: Volume4::zeros(dims, num_samples),
            th2: Volume4::zeros(dims, num_samples),
            ph2: Volume4::zeros(dims, num_samples),
        }
    }

    /// Grid dimensions.
    pub fn dims(&self) -> Dim3 {
        self.f1.dims()
    }

    /// Number of samples per voxel.
    pub fn num_samples(&self) -> usize {
        self.f1.nt()
    }

    /// The two sampled sticks `(direction, fraction)` of voxel `c` in sample
    /// `s`. Directions are reconstructed from `(θ, φ)`.
    #[inline]
    pub fn sticks_at(&self, c: Ijk, s: usize) -> [(Vec3, f64); 2] {
        [
            (
                Vec3::from_spherical(*self.th1.get(c, s) as f64, *self.ph1.get(c, s) as f64),
                *self.f1.get(c, s) as f64,
            ),
            (
                Vec3::from_spherical(*self.th2.get(c, s) as f64, *self.ph2.get(c, s) as f64),
                *self.f2.get(c, s) as f64,
            ),
        ]
    }

    /// Write one voxel's chain output into sample slot order, sorting each
    /// sample so stick 1 is the dominant population.
    pub fn store_chain(&mut self, c: Ijk, out: &ChainOutput<NUM_PARAMETERS>) {
        for (s, raw) in out.samples.iter().enumerate() {
            let p = BallSticksParams::from_array(*raw).sorted_by_fraction();
            self.f1.set(c, s, p.f1 as f32);
            self.f2.set(c, s, p.f2 as f32);
            self.th1.set(c, s, p.th1 as f32);
            self.ph1.set(c, s, p.ph1 as f32);
            self.th2.set(c, s, p.th2 as f32);
            self.ph2.set(c, s, p.ph2 as f32);
        }
    }

    /// Posterior-mean dominant direction of a voxel (mean of sample
    /// directions, sign-aligned to the first sample).
    pub fn mean_principal_direction(&self, c: Ijk) -> Vec3 {
        let n = self.num_samples();
        if n == 0 {
            return Vec3::ZERO;
        }
        let reference = self.sticks_at(c, 0)[0].0;
        let mut acc = Vec3::ZERO;
        for s in 0..n {
            acc += self.sticks_at(c, s)[0].0.aligned_with(reference);
        }
        acc.normalized()
    }

    /// Posterior mean of f₁ at a voxel.
    pub fn mean_f1(&self, c: Ijk) -> f64 {
        let n = self.num_samples();
        if n == 0 {
            return 0.0;
        }
        (0..n).map(|s| *self.f1.get(c, s) as f64).sum::<f64>() / n as f64
    }
}

/// Default per-parameter proposal scales, ordered per
/// [`param_index`]: generous starting points that the
/// band adaptation refines within the first burn-in windows.
pub fn default_proposal_scales(s0_estimate: f64) -> [f64; NUM_PARAMETERS] {
    let mut scales = [0.0; NUM_PARAMETERS];
    scales[param_index::S0] = 0.05 * s0_estimate.max(1e-6);
    scales[param_index::D] = 1e-4;
    scales[param_index::SIGMA] = 0.02 * s0_estimate.max(1e-6);
    scales[param_index::F1] = 0.05;
    scales[param_index::TH1] = 0.2;
    scales[param_index::PH1] = 0.2;
    scales[param_index::F2] = 0.05;
    scales[param_index::TH2] = 0.2;
    scales[param_index::PH2] = 0.2;
    scales
}

/// Orchestrates voxelwise estimation over a masked volume.
#[derive(Clone)]
pub struct VoxelEstimator<'a> {
    acq: &'a Acquisition,
    dwi: &'a Volume4<f32>,
    mask: &'a Mask,
    prior: PriorConfig,
    config: ChainConfig,
    seed: u64,
    tracer: tracto_trace::Tracer,
}

impl<'a> VoxelEstimator<'a> {
    /// Bind an estimator to a dataset.
    ///
    /// # Panics
    /// If the DWI measurement count does not match the protocol, or mask
    /// dims differ from DWI dims.
    pub fn new(
        acq: &'a Acquisition,
        dwi: &'a Volume4<f32>,
        mask: &'a Mask,
        prior: PriorConfig,
        config: ChainConfig,
        seed: u64,
    ) -> Self {
        assert_eq!(dwi.nt(), acq.len(), "DWI volume count must match protocol");
        assert_eq!(dwi.dims(), mask.dims(), "mask dims must match DWI dims");
        VoxelEstimator {
            acq,
            dwi,
            mask,
            prior,
            config,
            seed,
            tracer: tracto_trace::Tracer::disabled(),
        }
    }

    /// Emit chain-progress and acceptance-rate events into `tracer`.
    pub fn with_tracer(mut self, tracer: tracto_trace::Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// Chain configuration in use.
    pub fn config(&self) -> ChainConfig {
        self.config
    }

    /// Number of voxels that will be estimated.
    pub fn workload(&self) -> usize {
        self.mask.count()
    }

    /// Run the chain of a single voxel (identified by linear index). This is
    /// the exact body of one simulated GPU lane. With
    /// `prior.max_sticks == 1` the second stick's parameters are frozen at
    /// `f₂ = 0` — the N = 1 compartment model.
    pub fn run_voxel(&self, voxel_index: usize) -> ChainOutput<NUM_PARAMETERS> {
        let signal: Vec<f64> = self
            .dwi
            .voxel_at(voxel_index)
            .iter()
            .map(|&v| v as f64)
            .collect();
        let posterior = BallSticksPosterior::new(self.acq, &signal, self.prior);
        let mut init = posterior.initial_params();
        if self.prior.max_sticks == 1 {
            init.f2 = 0.0;
        }
        let scales = default_proposal_scales(init.s0);
        let mut rng = HybridTaus::seed_stream(self.seed, voxel_index as u64);
        let target =
            |p: &[f64; NUM_PARAMETERS]| posterior.log_posterior(&BallSticksParams::from_array(*p));
        let mut sampler =
            crate::mh::MhSampler::new(&target, init.to_array(), scales, self.config.adapt);
        if self.prior.max_sticks == 1 {
            sampler.freeze(param_index::F2);
            sampler.freeze(param_index::TH2);
            sampler.freeze(param_index::PH2);
        }
        let mut samples = Vec::with_capacity(self.config.num_samples as usize);
        for _ in 0..self.config.num_burnin {
            sampler.step_loop(&target, &mut rng);
        }
        for _ in 0..self.config.num_samples {
            for _ in 0..self.config.sample_interval {
                sampler.step_loop(&target, &mut rng);
            }
            samples.push(*sampler.params());
        }
        let out = ChainOutput {
            samples,
            final_scales: *sampler.scales(),
            final_acceptance: sampler.recent_acceptance_rates(),
        };
        if self.tracer.enabled() {
            let rates = &out.final_acceptance;
            let mean = rates.iter().sum::<f64>() / rates.len() as f64;
            self.tracer.emit(
                "mcmc.chain",
                &[
                    ("voxel", voxel_index.into()),
                    ("samples", self.config.num_samples.into()),
                    ("mean_acceptance", mean.into()),
                ],
            );
        }
        out
    }

    /// Estimate all masked voxels serially (the CPU baseline of Table III).
    pub fn run_serial(&self) -> SampleVolumes {
        let mut out = SampleVolumes::zeros(self.dwi.dims(), self.config.num_samples as usize);
        let dims = self.dwi.dims();
        let indices = self.mask.indices();
        let total = indices.len();
        let stride = progress_stride(total);
        for (done, idx) in indices.into_iter().enumerate() {
            let chain = self.run_voxel(idx);
            out.store_chain(dims.coords(idx), &chain);
            if (done + 1) % stride == 0 || done + 1 == total {
                self.tracer.emit(
                    "mcmc.progress",
                    &[("done", (done + 1).into()), ("total", total.into())],
                );
            }
        }
        out
    }

    /// Multi-chain convergence check for one voxel: run `n_chains`
    /// independent chains (different RNG streams) and return the
    /// Gelman–Rubin R̂ of each parameter of interest
    /// `(f₁, θ₁, φ₁, f₂, θ₂, φ₂)`. Values near 1 indicate convergence; the
    /// paper's burn-in of 500 was chosen to reach this regime.
    pub fn convergence_check(&self, voxel_index: usize, n_chains: usize) -> [f64; 6] {
        assert!(n_chains >= 2, "need at least two chains");
        let param_slots = [
            param_index::F1,
            param_index::TH1,
            param_index::PH1,
            param_index::F2,
            param_index::TH2,
            param_index::PH2,
        ];
        let signal: Vec<f64> = self
            .dwi
            .voxel_at(voxel_index)
            .iter()
            .map(|&v| v as f64)
            .collect();
        let posterior = BallSticksPosterior::new(self.acq, &signal, self.prior);
        let init = posterior.initial_params();
        let scales = default_proposal_scales(init.s0);
        let target =
            |p: &[f64; NUM_PARAMETERS]| posterior.log_posterior(&BallSticksParams::from_array(*p));
        let chains: Vec<ChainOutput<NUM_PARAMETERS>> = (0..n_chains)
            .map(|chain_idx| {
                let stream = voxel_index as u64 ^ ((chain_idx as u64 + 1) << 48);
                let mut rng = HybridTaus::seed_stream(self.seed, stream);
                run_chain(&target, init.to_array(), scales, self.config, &mut rng)
            })
            .collect();
        let mut out = [0.0; 6];
        for (slot, &j) in param_slots.iter().enumerate() {
            let series: Vec<Vec<f64>> = chains
                .iter()
                .map(|c| c.samples.iter().map(|s| s[j]).collect())
                .collect();
            out[slot] = crate::diagnostics::gelman_rubin(&series);
        }
        out
    }
}

/// Progress events are emitted roughly sixteen times per run, and at
/// completion.
fn progress_stride(total: usize) -> usize {
    (total / 16).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracto_phantom::datasets;

    fn quick_config() -> ChainConfig {
        ChainConfig::fast_test()
    }

    #[test]
    fn tracer_sees_chain_and_progress_events() {
        use std::sync::Arc;
        use tracto_trace::{RingSink, Tracer};

        let ds = datasets::single_bundle(Dim3::new(6, 4, 4), None, 11);
        let ring = Arc::new(RingSink::new(4096));
        let est = VoxelEstimator::new(
            &ds.acq,
            &ds.dwi,
            &ds.wm_mask,
            PriorConfig::default(),
            quick_config(),
            42,
        )
        .with_tracer(Tracer::shared(ring.clone()));
        let total = est.workload();
        est.run_serial();
        assert_eq!(ring.count("mcmc.chain"), total);
        let progress = ring.named("mcmc.progress");
        assert!(!progress.is_empty());
        assert!(progress
            .iter()
            .any(|e| e.field_u64("done") == Some(total as u64)));
        let chain = &ring.named("mcmc.chain")[0];
        let rate = chain.field_f64("mean_acceptance").expect("rate field");
        assert!((0.0..=1.0).contains(&rate));
    }

    #[test]
    fn recovers_single_bundle_direction() {
        let ds = datasets::single_bundle(Dim3::new(8, 6, 6), None, 11);
        let est = VoxelEstimator::new(
            &ds.acq,
            &ds.dwi,
            &ds.wm_mask,
            PriorConfig::default(),
            quick_config(),
            42,
        );
        // Estimate just the center voxel.
        let c = Ijk::new(4, 2, 2);
        assert_eq!(
            ds.truth.at(c).count,
            1,
            "center voxel must carry the bundle"
        );
        let idx = ds.dwi.dims().index(c);
        let chain = est.run_voxel(idx);
        let mut vols = SampleVolumes::zeros(ds.dwi.dims(), chain.samples.len());
        vols.store_chain(c, &chain);
        let dir = vols.mean_principal_direction(c);
        let truth = ds.truth.at(c).sticks()[0].0;
        assert!(
            dir.dot(truth).abs() > 0.9,
            "posterior mean direction {dir:?} vs truth {truth:?}"
        );
        // The anisotropic fraction should be materially nonzero.
        assert!(vols.mean_f1(c) > 0.3, "mean f1 {}", vols.mean_f1(c));
    }

    #[test]
    fn sample_volume_shapes() {
        let ds = datasets::single_bundle(Dim3::new(6, 4, 4), None, 5);
        let mask = Mask::from_fn(ds.dwi.dims(), |c| c.i == 3 && c.j == 2 && c.k == 2);
        let est = VoxelEstimator::new(
            &ds.acq,
            &ds.dwi,
            &mask,
            PriorConfig::default(),
            quick_config(),
            7,
        );
        let vols = est.run_serial();
        assert_eq!(vols.dims(), ds.dwi.dims());
        assert_eq!(vols.num_samples(), quick_config().num_samples as usize);
    }

    #[test]
    fn sticks_sorted_dominant_first() {
        let ds = datasets::single_bundle(Dim3::new(6, 4, 4), None, 5);
        let c = Ijk::new(3, 2, 2);
        let est = VoxelEstimator::new(
            &ds.acq,
            &ds.dwi,
            &ds.wm_mask,
            PriorConfig::default(),
            quick_config(),
            3,
        );
        let chain = est.run_voxel(ds.dwi.dims().index(c));
        let mut vols = SampleVolumes::zeros(ds.dwi.dims(), chain.samples.len());
        vols.store_chain(c, &chain);
        for s in 0..vols.num_samples() {
            let sticks = vols.sticks_at(c, s);
            assert!(sticks[0].1 >= sticks[1].1, "sample {s} unsorted");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let ds = datasets::single_bundle(Dim3::new(6, 4, 4), Some(25.0), 5);
        let mask = Mask::from_fn(ds.dwi.dims(), |c| c == Ijk::new(3, 2, 2));
        let make = || {
            VoxelEstimator::new(
                &ds.acq,
                &ds.dwi,
                &mask,
                PriorConfig::default(),
                quick_config(),
                99,
            )
            .run_serial()
        };
        let a = make();
        let b = make();
        assert_eq!(a.th1, b.th1);
    }

    #[test]
    fn acceptance_rates_in_reasonable_band() {
        let ds = datasets::single_bundle(Dim3::new(8, 6, 6), Some(25.0), 11);
        let c = Ijk::new(4, 2, 2);
        let est = VoxelEstimator::new(
            &ds.acq,
            &ds.dwi,
            &ds.wm_mask,
            PriorConfig::default(),
            ChainConfig::paper_default(),
            42,
        );
        let chain = est.run_voxel(ds.dwi.dims().index(c));
        // After adaptation most parameters should sit near the 25–50% band;
        // allow slack since the last window is finite.
        let in_band = chain
            .final_acceptance
            .iter()
            .filter(|&&r| (0.1..=0.7).contains(&r))
            .count();
        assert!(
            in_band >= 6,
            "acceptance rates {:?}",
            chain.final_acceptance
        );
    }

    #[test]
    fn convergence_check_near_one_for_well_mixed_voxel() {
        let ds = datasets::single_bundle(Dim3::new(8, 6, 6), Some(20.0), 11);
        let c = Ijk::new(4, 2, 2);
        let est = VoxelEstimator::new(
            &ds.acq,
            &ds.dwi,
            &ds.wm_mask,
            PriorConfig::default(),
            ChainConfig {
                num_burnin: 400,
                num_samples: 150,
                sample_interval: 2,
                adapt: crate::mh::AdaptScheme::paper_default(),
            },
            42,
        );
        let rhat = est.convergence_check(ds.dwi.dims().index(c), 3);
        // The dominant-stick parameters must be well mixed; the secondary
        // stick of a single-fiber voxel can wander (its posterior is broad),
        // so only sanity-bound it.
        for (i, r) in rhat.iter().enumerate() {
            assert!(r.is_finite() && *r >= 0.97, "parameter {i}: R̂ {r}");
        }
        assert!(rhat[0] < 1.3, "f1 R̂ {} not converged", rhat[0]);
    }

    #[test]
    #[should_panic(expected = "two chains")]
    fn convergence_check_needs_two_chains() {
        let ds = datasets::single_bundle(Dim3::new(6, 4, 4), None, 5);
        let est = VoxelEstimator::new(
            &ds.acq,
            &ds.dwi,
            &ds.wm_mask,
            PriorConfig::default(),
            ChainConfig::fast_test(),
            1,
        );
        let _ = est.convergence_check(0, 1);
    }

    #[test]
    fn workload_equals_mask_count() {
        let ds = datasets::single_bundle(Dim3::new(6, 4, 4), None, 5);
        let est = VoxelEstimator::new(
            &ds.acq,
            &ds.dwi,
            &ds.wm_mask,
            PriorConfig::default(),
            quick_config(),
            1,
        );
        assert_eq!(est.workload(), ds.wm_mask.count());
    }
}
