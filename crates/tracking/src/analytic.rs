//! The analytic fast tier (after Cieslak et al., *Analytic Tractography*):
//! collapse the MCMC posterior to its per-voxel mean field and answer
//! connectivity questions from closed-form local evaluations instead of
//! thousands of per-sample walks.
//!
//! Two pieces:
//!
//! * [`mean_posterior`] + [`analytic_params`] — the service tier. The
//!   posterior stack collapses to **one** mean sample volume and the step
//!   length is raised to whole-voxel hops (with `max_steps` rescaled so
//!   spatial reach is preserved), so the unchanged tracking machinery runs
//!   `samples × (1/step)` times cheaper in simulated time. The batch
//!   scheduler routes `--modality analytic` (and optionally low-priority)
//!   jobs through this transform.
//! * [`local_connectivity`] — the fully closed-form estimate: a one-sweep
//!   per-voxel score of how coherently each voxel's mean fiber
//!   orientation continues into the neighbor it points at. No
//!   streamlines at all; useful as a screening map.

use crate::field::{InterpMode, SampleField};
use crate::getter::{DirectionGetter, PosteriorSampleGetter};
use crate::walker::TrackingParams;
use tracto_mcmc::SampleVolumes;
use tracto_rng::HybridTaus;
use tracto_volume::{Dim3, Ijk, Vec3, Volume3};

/// Collapse a posterior sample stack to one mean sample volume: per stick
/// slot, the sign-aligned vector mean of the sampled directions and the
/// arithmetic mean of the sampled fractions. Slots whose mean direction
/// vanishes (or whose mean fraction is zero) become empty sticks.
pub fn mean_posterior(samples: &SampleVolumes) -> SampleVolumes {
    let dims = samples.dims();
    let n = samples.num_samples();
    let mut mean = SampleVolumes::zeros(dims, 1);
    if n == 0 {
        return mean;
    }
    for c in dims.iter() {
        let reference = samples.sticks_at(c, 0);
        let mut acc = [(Vec3::ZERO, 0.0f64); 2];
        for s in 0..n {
            let sticks = samples.sticks_at(c, s);
            for slot in 0..2 {
                let (d, f) = sticks[slot];
                acc[slot].1 += f;
                if f > 0.0 && d != Vec3::ZERO {
                    acc[slot].0 += d.aligned_with(reference[slot].0);
                }
            }
        }
        let fields: [(&mut tracto_volume::Volume4<f32>, _, _); 2] = [
            (&mut mean.f1, &mut mean.th1, &mut mean.ph1),
            (&mut mean.f2, &mut mean.th2, &mut mean.ph2),
        ];
        for (slot, (fv, thv, phv)) in fields.into_iter().enumerate() {
            let dir = acc[slot].0.normalized();
            let f = acc[slot].1 / n as f64;
            if dir == Vec3::ZERO || f <= 0.0 {
                continue;
            }
            let (theta, phi) = dir.to_spherical();
            fv.set(c, 0, f as f32);
            thv.set(c, 0, theta as f32);
            phv.set(c, 0, phi as f32);
        }
    }
    mean
}

/// Tracking parameters for the analytic tier: whole-voxel steps with
/// `max_steps` rescaled so the maximum spatial reach (`max_steps × step`)
/// is preserved. Thresholds and interpolation are untouched.
pub fn analytic_params(params: &TrackingParams) -> TrackingParams {
    let reach = params.max_steps as f64 * params.step_length;
    TrackingParams {
        step_length: 1.0,
        max_steps: (reach.ceil() as u32).max(1),
        ..*params
    }
}

/// The closed-form local-connectivity map: for each voxel, each eligible
/// mean stick contributes `fraction × |d · d'|` where `d'` is the best
/// continuation stick in the neighbor voxel that `d` points at (zero when
/// the neighbor is outside the volume or has no eligible stick). High
/// values mean "a streamline through here keeps going coherently" — the
/// no-streamline screening estimate.
pub fn local_connectivity(samples: &SampleVolumes, min_fraction: f64) -> Volume3<f32> {
    let mean = mean_posterior(samples);
    let dims = mean.dims();
    Volume3::from_fn(dims, |c| {
        let mut score = 0.0f64;
        for (d, f) in mean.sticks_at(c, 0) {
            if f < min_fraction || f <= 0.0 || d == Vec3::ZERO {
                continue;
            }
            let nx = c.i as f64 + d.x.round();
            let ny = c.j as f64 + d.y.round();
            let nz = c.k as f64 + d.z.round();
            if nx < 0.0 || ny < 0.0 || nz < 0.0 {
                continue;
            }
            let nc = Ijk::new(nx as usize, ny as usize, nz as usize);
            if !dims.contains(nc) || nc == c {
                continue;
            }
            let continuation = mean
                .sticks_at(nc, 0)
                .iter()
                .filter(|(nd, nf)| *nf >= min_fraction && *nf > 0.0 && *nd != Vec3::ZERO)
                .map(|(nd, _)| nd.dot(d).abs())
                .fold(0.0f64, f64::max);
            score += f * continuation;
        }
        score as f32
    })
}

/// The analytic tier as a [`DirectionGetter`]: deterministic direction
/// selection over the collapsed posterior mean. Owns its mean volume, and
/// that volume's precomputed [`SampleField`], so it can outlive the full
/// sample stack.
#[derive(Debug, Clone)]
pub struct AnalyticGetter {
    mean: SampleVolumes,
    inner: PosteriorSampleGetter<SampleField>,
}

impl AnalyticGetter {
    /// Collapse `samples` and wrap the result.
    pub fn new(samples: &SampleVolumes, interp: InterpMode, min_fraction: f64) -> Self {
        let mean = mean_posterior(samples);
        let field = SampleField::build(&mean, 0);
        AnalyticGetter {
            mean,
            inner: PosteriorSampleGetter::new(field, interp, min_fraction),
        }
    }

    /// The collapsed mean sample volume (always exactly one sample).
    pub fn mean(&self) -> &SampleVolumes {
        &self.mean
    }
}

impl DirectionGetter for AnalyticGetter {
    fn dims(&self) -> Dim3 {
        self.mean.dims()
    }

    fn initial_directions(&self, seed: Vec3) -> Vec<Vec3> {
        self.inner.initial_directions(seed)
    }

    #[inline]
    fn next_direction(&self, pos: Vec3, prev: Vec3, rng: &mut HybridTaus) -> Option<Vec3> {
        self.inner.next_direction(pos, prev, rng)
    }

    fn peak_count(&self) -> usize {
        2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::getter::lane_rng;

    /// A stack whose samples wobble around +x in the xy-plane.
    fn wobbly_x_samples(dims: Dim3, n: usize) -> SampleVolumes {
        let mut sv = SampleVolumes::zeros(dims, n);
        for c in dims.iter() {
            for s in 0..n {
                // ±0.2 rad wobble in φ, alternating sign per sample.
                let wobble = if s % 2 == 0 { 0.2 } else { -0.2 };
                sv.f1.set(c, s, 0.6);
                sv.th1.set(c, s, std::f64::consts::FRAC_PI_2 as f32);
                sv.ph1.set(c, s, wobble);
            }
        }
        sv
    }

    #[test]
    fn mean_posterior_collapses_to_one_sample() {
        let dims = Dim3::new(6, 4, 4);
        let sv = wobbly_x_samples(dims, 4);
        let mean = mean_posterior(&sv);
        assert_eq!(mean.num_samples(), 1);
        assert_eq!(mean.dims(), dims);
        let c = Ijk::new(3, 2, 2);
        let [(d, f), (d2, f2)] = mean.sticks_at(c, 0);
        // The ±wobble cancels: the mean is +x with the mean fraction.
        assert!(d.dot(Vec3::X) > 0.999, "mean direction {d:?}");
        assert!((f - 0.6).abs() < 1e-6, "mean fraction {f}");
        // The empty second slot stays empty (θ=φ=0 ⇒ +z with f=0).
        assert_eq!(f2, 0.0);
        let _ = d2;
    }

    #[test]
    fn mean_posterior_handles_sign_flipped_samples() {
        // Antipodal directions are the same fiber axis: the sign-aligned
        // mean must not cancel to zero.
        let dims = Dim3::new(2, 2, 2);
        let mut sv = SampleVolumes::zeros(dims, 2);
        for c in dims.iter() {
            sv.f1.set(c, 0, 0.5);
            sv.th1.set(c, 0, std::f64::consts::FRAC_PI_2 as f32);
            sv.ph1.set(c, 0, 0.0); // +x
            sv.f1.set(c, 1, 0.5);
            sv.th1.set(c, 1, std::f64::consts::FRAC_PI_2 as f32);
            sv.ph1.set(c, 1, std::f64::consts::PI as f32); // −x
        }
        let mean = mean_posterior(&sv);
        let (d, f) = mean.sticks_at(Ijk::new(1, 1, 1), 0)[0];
        assert!(d.dot(Vec3::X).abs() > 0.999, "axis preserved: {d:?}");
        assert!((f - 0.5).abs() < 1e-6);
    }

    #[test]
    fn analytic_params_preserve_reach() {
        let p = TrackingParams {
            step_length: 0.1,
            angular_threshold: 0.9,
            max_steps: 400,
            min_fraction: 0.05,
            interp: InterpMode::Nearest,
        };
        let a = analytic_params(&p);
        assert_eq!(a.step_length, 1.0);
        assert_eq!(a.max_steps, 40);
        assert_eq!(a.angular_threshold, p.angular_threshold);
        assert_eq!(a.min_fraction, p.min_fraction);
        // Degenerate inputs never collapse to a zero budget.
        let tiny = TrackingParams {
            max_steps: 1,
            step_length: 0.1,
            ..p
        };
        assert_eq!(analytic_params(&tiny).max_steps, 1);
    }

    #[test]
    fn local_connectivity_scores_coherent_voxels() {
        let dims = Dim3::new(8, 4, 4);
        let sv = wobbly_x_samples(dims, 4);
        let map = local_connectivity(&sv, 0.05);
        // Interior voxel: +x neighbor exists and is perfectly aligned.
        let interior = *map.get(Ijk::new(3, 2, 2));
        assert!(interior > 0.55, "coherent interior score {interior}");
        // The +x boundary voxel has no continuation.
        let edge = *map.get(Ijk::new(7, 2, 2));
        assert_eq!(edge, 0.0);
        // An empty stack scores zero everywhere.
        let empty = local_connectivity(&SampleVolumes::zeros(dims, 2), 0.05);
        assert!(empty.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn analytic_getter_is_deterministic_mean_field() {
        let dims = Dim3::new(8, 4, 4);
        let sv = wobbly_x_samples(dims, 4);
        let g = AnalyticGetter::new(&sv, InterpMode::Nearest, 0.05);
        assert_eq!(g.dims(), dims);
        assert_eq!(g.mean().num_samples(), 1);
        let mut rng = lane_rng(0, 0, 0);
        let pos = Vec3::new(2.0, 2.0, 2.0);
        let d = g.next_direction(pos, Vec3::X, &mut rng).unwrap();
        assert!(d.dot(Vec3::X) > 0.999, "mean-field direction {d:?}");
        assert_eq!(g.initial_directions(pos).len(), 1);
    }
}
