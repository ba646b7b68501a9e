//! Point-estimation baseline — the empirical-Bayes alternative of Friman et
//! al. (and McGraw's GPU port) that the paper's related work contrasts with
//! full MCMC: "they replaced the MCMC sampling with point estimation for
//! computational tractability. However, the equivalence of these two
//! methods is still under investigation."
//!
//! This module implements that alternative for the single-stick model:
//! a MAP fit by coordinate descent, then a Laplace (Gaussian) approximation
//! of the orientation posterior from the numerical Hessian, from which
//! pseudo-samples are drawn. By construction it represents **one** fiber
//! population per voxel — the structural limitation (no crossings) that
//! motivates the full multi-fiber MCMC this repository centers on.

use crate::voxelwise::SampleVolumes;
use tracto_diffusion::posterior::BallSticksParams;
use tracto_diffusion::{Acquisition, BallSticksPosterior, PriorConfig};
use tracto_gpu_sim::par_map;
use tracto_rng::{BoxMuller, HybridTaus};
use tracto_volume::{Mask, Volume4};

/// A single-stick MAP estimate with a Laplace orientation covariance.
#[derive(Debug, Clone, Copy)]
pub struct PointEstimate {
    /// MAP parameters (`f2 = 0`; stick 2 unused).
    pub map: BallSticksParams,
    /// Laplace covariance of `(θ₁, φ₁)`: `[var_θ, cov, var_φ]`.
    pub orientation_cov: [f64; 3],
}

impl PointEstimate {
    /// Standard deviation of the polar angle under the Laplace
    /// approximation.
    pub fn theta_std(&self) -> f64 {
        self.orientation_cov[0].max(0.0).sqrt()
    }

    /// Standard deviation of the azimuth.
    pub fn phi_std(&self) -> f64 {
        self.orientation_cov[2].max(0.0).sqrt()
    }
}

/// Golden-section maximization of `f` on `[lo, hi]`.
fn golden_max(mut lo: f64, mut hi: f64, iters: usize, f: impl Fn(f64) -> f64) -> f64 {
    const INV_PHI: f64 = 0.618_033_988_749_894_9;
    let mut x1 = hi - INV_PHI * (hi - lo);
    let mut x2 = lo + INV_PHI * (hi - lo);
    let mut f1 = f(x1);
    let mut f2 = f(x2);
    for _ in 0..iters {
        if f1 >= f2 {
            hi = x2;
            x2 = x1;
            f2 = f1;
            x1 = hi - INV_PHI * (hi - lo);
            f1 = f(x1);
        } else {
            lo = x1;
            x1 = x2;
            f1 = f2;
            x2 = lo + INV_PHI * (hi - lo);
            f2 = f(x2);
        }
    }
    if f1 >= f2 {
        x1
    } else {
        x2
    }
}

/// MAP-fit the single-stick (ball-and-one-stick) model to one voxel by
/// cyclic coordinate ascent on the log posterior with `f₂` pinned at zero.
pub fn fit_map(acq: &Acquisition, signal: &[f64], prior: PriorConfig) -> PointEstimate {
    let posterior = BallSticksPosterior::new(acq, signal, prior);
    let mut p = posterior.initial_params();
    p.f2 = 0.0;
    p.th2 = std::f64::consts::FRAC_PI_2;
    p.ph2 = 0.0;

    let eval = |p: &BallSticksParams| posterior.log_posterior(p);
    // Coordinate sweeps: (s0, d, sigma, f1, th1, ph1).
    for _sweep in 0..12 {
        let s0 = p.s0;
        p.s0 = golden_max(0.5 * s0, 1.5 * s0, 24, |v| {
            eval(&BallSticksParams { s0: v, ..p })
        });
        let d = p.d;
        p.d = golden_max(0.25 * d, 3.0 * d, 24, |v| {
            eval(&BallSticksParams { d: v, ..p })
        });
        let sg = p.sigma;
        p.sigma = golden_max(0.2 * sg, 4.0 * sg, 24, |v| {
            eval(&BallSticksParams { sigma: v, ..p })
        });
        p.f1 = golden_max(0.0, 1.0, 24, |v| eval(&BallSticksParams { f1: v, ..p }));
        let th = p.th1;
        p.th1 = golden_max(
            (th - 0.6).max(1e-3),
            (th + 0.6).min(std::f64::consts::PI - 1e-3),
            24,
            |v| eval(&BallSticksParams { th1: v, ..p }),
        );
        let ph = p.ph1;
        p.ph1 = golden_max(ph - 0.6, ph + 0.6, 24, |v| {
            eval(&BallSticksParams { ph1: v, ..p })
        });
    }

    // Laplace: numerical Hessian of −log posterior in (θ₁, φ₁).
    let h = 1e-3;
    let f00 = eval(&p);
    let fpp = |dt: f64, dp: f64| {
        eval(&BallSticksParams {
            th1: p.th1 + dt,
            ph1: p.ph1 + dp,
            ..p
        })
    };
    let d2t = -(fpp(h, 0.0) - 2.0 * f00 + fpp(-h, 0.0)) / (h * h);
    let d2p = -(fpp(0.0, h) - 2.0 * f00 + fpp(0.0, -h)) / (h * h);
    let dtp = -(fpp(h, h) - fpp(h, -h) - fpp(-h, h) + fpp(-h, -h)) / (4.0 * h * h);
    // Invert the 2×2 information matrix, guarding degenerate curvature.
    let det = d2t * d2p - dtp * dtp;
    let cov = if det > 1e-12 && d2t > 0.0 && d2p > 0.0 {
        [d2p / det, -dtp / det, d2t / det]
    } else {
        // Flat direction: fall back to a broad prior-scale dispersion.
        [0.25, 0.0, 0.25]
    };
    PointEstimate {
        map: p,
        orientation_cov: cov,
    }
}

/// Voxelwise point estimation mirroring
/// [`VoxelEstimator`](crate::VoxelEstimator)'s interface: produces sample
/// volumes by drawing `num_samples` pseudo-samples per voxel from the
/// Laplace orientation Gaussian. `f₂` is identically zero — the structural
/// single-fiber limitation of the method.
pub struct PointEstimator<'a> {
    acq: &'a Acquisition,
    dwi: &'a Volume4<f32>,
    mask: &'a Mask,
    prior: PriorConfig,
    num_samples: usize,
    seed: u64,
}

impl<'a> PointEstimator<'a> {
    /// Bind the estimator to a dataset.
    pub fn new(
        acq: &'a Acquisition,
        dwi: &'a Volume4<f32>,
        mask: &'a Mask,
        prior: PriorConfig,
        num_samples: usize,
        seed: u64,
    ) -> Self {
        assert_eq!(dwi.nt(), acq.len());
        assert_eq!(dwi.dims(), mask.dims());
        assert!(num_samples > 0);
        PointEstimator {
            acq,
            dwi,
            mask,
            prior,
            num_samples,
            seed,
        }
    }

    /// Point-estimate one voxel.
    pub fn estimate_voxel(&self, voxel_index: usize) -> PointEstimate {
        let signal: Vec<f64> = self
            .dwi
            .voxel_at(voxel_index)
            .iter()
            .map(|&v| v as f64)
            .collect();
        fit_map(self.acq, &signal, self.prior)
    }

    /// Run over the mask in parallel, producing pseudo-sample volumes.
    pub fn run_parallel(&self) -> SampleVolumes {
        let dims = self.dwi.dims();
        let results = par_map(self.mask.indices(), |idx| (idx, self.estimate_voxel(idx)));
        let mut out = SampleVolumes::zeros(dims, self.num_samples);
        for (idx, est) in results {
            let c = dims.coords(idx);
            let mut rng = BoxMuller::new(HybridTaus::seed_stream(self.seed, idx as u64));
            // Cholesky of the 2×2 covariance.
            let a = est.orientation_cov[0].max(1e-12).sqrt();
            let b = est.orientation_cov[1] / a;
            let c22 = (est.orientation_cov[2] - b * b).max(0.0).sqrt();
            for s in 0..self.num_samples {
                let z1 = rng.next_standard();
                let z2 = rng.next_standard();
                let th = (est.map.th1 + a * z1).clamp(1e-3, std::f64::consts::PI - 1e-3);
                let ph = est.map.ph1 + b * z1 + c22 * z2;
                out.f1.set(c, s, est.map.f1 as f32);
                out.th1.set(c, s, th as f32);
                out.ph1.set(c, s, ph as f32);
                // f2 stays zero: single population.
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracto_phantom::datasets;
    use tracto_volume::{Dim3, Ijk};

    #[test]
    fn golden_max_finds_parabola_peak() {
        let x = golden_max(-4.0, 10.0, 60, |v| -(v - 3.0) * (v - 3.0));
        assert!((x - 3.0).abs() < 1e-6);
    }

    #[test]
    fn map_recovers_single_fiber() {
        let ds = datasets::single_bundle(Dim3::new(10, 6, 6), Some(30.0), 4);
        let c = Ijk::new(5, 2, 2);
        let truth = ds.truth.at(c).sticks()[0];
        let signal: Vec<f64> = ds.dwi.voxel(c).iter().map(|&v| v as f64).collect();
        let est = fit_map(&ds.acq, &signal, PriorConfig::default());
        assert!(
            est.map.dir1().dot(truth.0).abs() > 0.97,
            "MAP direction {:?} vs truth {:?}",
            est.map.dir1(),
            truth.0
        );
        assert!((est.map.f1 - truth.1).abs() < 0.2, "MAP f1 {}", est.map.f1);
        assert_eq!(est.map.f2, 0.0);
    }

    #[test]
    fn laplace_uncertainty_grows_with_noise() {
        let dims = Dim3::new(10, 6, 6);
        let c = Ijk::new(5, 2, 2);
        let spread = |snr: Option<f64>| {
            let ds = datasets::single_bundle(dims, snr, 4);
            let signal: Vec<f64> = ds.dwi.voxel(c).iter().map(|&v| v as f64).collect();
            let est = fit_map(&ds.acq, &signal, PriorConfig::default());
            est.theta_std() + est.phi_std()
        };
        assert!(spread(Some(10.0)) > spread(Some(50.0)));
    }

    #[test]
    fn pseudo_samples_scatter_around_map() {
        let ds = datasets::single_bundle(Dim3::new(8, 6, 6), Some(25.0), 5);
        let c = Ijk::new(4, 2, 2);
        let mask = Mask::from_fn(ds.dwi.dims(), |x| x == c);
        let est = PointEstimator::new(&ds.acq, &ds.dwi, &mask, PriorConfig::default(), 40, 9);
        let map = est.estimate_voxel(ds.dwi.dims().index(c));
        let vols = est.run_parallel();
        let mean = vols.mean_principal_direction(c);
        assert!(mean.dot(map.map.dir1()).abs() > 0.95);
        // Every sample's f2 is zero — single population by construction.
        for s in 0..vols.num_samples() {
            assert_eq!(vols.sticks_at(c, s)[1].1, 0.0);
        }
    }

    #[test]
    fn point_estimation_blind_to_crossings_unlike_mcmc() {
        // The structural contrast the paper's related work highlights.
        let dims = Dim3::new(14, 14, 5);
        let ds = datasets::crossing(dims, 90.0, Some(30.0), 8);
        let c = Ijk::new(6, 6, 2);
        assert_eq!(ds.truth.at(c).count, 2);
        let mask = Mask::from_fn(dims, |x| x == c);
        let point = PointEstimator::new(&ds.acq, &ds.dwi, &mask, PriorConfig::default(), 30, 3)
            .run_parallel();
        // Point estimation reports exactly one population.
        let pe_f2: f64 = (0..30).map(|s| point.sticks_at(c, s)[1].1).sum::<f64>() / 30.0;
        assert_eq!(pe_f2, 0.0);
        // Full MCMC assigns substantial volume to the second stick.
        let mcmc = crate::VoxelEstimator::new(
            &ds.acq,
            &ds.dwi,
            &mask,
            PriorConfig::default(),
            crate::ChainConfig::paper_default(),
            3,
        )
        .run_serial();
        let mcmc_f2: f64 = (0..mcmc.num_samples())
            .map(|s| mcmc.sticks_at(c, s)[1].1)
            .sum::<f64>()
            / mcmc.num_samples() as f64;
        assert!(
            mcmc_f2 > 0.15,
            "MCMC should find the second population: mean f2 {mcmc_f2}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let ds = datasets::single_bundle(Dim3::new(8, 6, 6), Some(25.0), 5);
        let mask = Mask::from_fn(ds.dwi.dims(), |c| c.k == 3);
        let make = || {
            PointEstimator::new(&ds.acq, &ds.dwi, &mask, PriorConfig::default(), 10, 4)
                .run_parallel()
        };
        let a = make();
        let b = make();
        assert_eq!(a.th1, b.th1);
        assert_eq!(a.ph1, b.ph1);
    }
}
