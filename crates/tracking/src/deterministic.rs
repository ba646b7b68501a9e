//! Whole-streamline deterministic tracking — the inner loop of
//! probabilistic streamlining ("the probabilistic streamlining algorithm is
//! done by invoking deterministic streamlining for many times").

use crate::field::{dominant_direction, OrientationField};
use crate::getter::{lane_rng, DirectionGetter, PosteriorSampleGetter};
use crate::stop::StopStack;
use crate::walker::{Recording, StopReason, TrackingParams, Walker};
use tracto_rng::HybridTaus;
use tracto_volume::{Ijk, Mask, Vec3};

/// A completed streamline.
#[derive(Debug, Clone)]
pub struct Streamline {
    /// Seed identifier.
    pub seed_id: u32,
    /// Trajectory points, including the seed (present only when recorded).
    pub points: Vec<Vec3>,
    /// Number of steps taken (the fiber length in steps — the paper's
    /// load/length unit).
    pub steps: u32,
    /// Why tracking stopped.
    pub stop: StopReason,
}

impl Streamline {
    /// Path length in voxel units (`steps × step_length`).
    pub fn length_voxels(&self, params: &TrackingParams) -> f64 {
        self.steps as f64 * params.step_length
    }
}

/// Track a single streamline through any [`DirectionGetter`] under a
/// [`StopStack`] — the modality-layer driver every tracker shares.
#[allow(clippy::too_many_arguments)]
pub fn track_streamline_with(
    getter: &dyn DirectionGetter,
    seed_id: u32,
    seed: Vec3,
    dir: Vec3,
    step_length: f64,
    stop: &StopStack<'_>,
    rng: &mut HybridTaus,
    record: bool,
) -> Streamline {
    let mut w = if record {
        Walker::new_recording(seed_id, seed, dir, Recording::Points, getter.dims())
    } else {
        Walker::new(seed_id, seed, dir)
    };
    while w.alive() {
        w.step_with(getter, step_length, stop, rng);
    }
    Streamline {
        seed_id,
        points: w.path,
        steps: w.steps,
        stop: w.stop,
    }
}

/// Track a single streamline from `seed` in direction `dir` until a stop
/// criterion fires. Records the trajectory when `record` is set.
///
/// This is the posterior-sampling modality spelled out: a
/// [`PosteriorSampleGetter`] over `field` with the standard stop stack.
pub fn track_streamline<Fld: OrientationField + ?Sized>(
    field: &Fld,
    seed_id: u32,
    seed: Vec3,
    dir: Vec3,
    params: &TrackingParams,
    mask: Option<&Mask>,
    record: bool,
) -> Streamline {
    let getter = PosteriorSampleGetter::new(field, params.interp, params.min_fraction);
    let stop = StopStack::standard(params, mask);
    let mut rng = lane_rng(0, 0, seed_id as usize);
    track_streamline_with(
        &getter,
        seed_id,
        seed,
        dir,
        params.step_length,
        &stop,
        &mut rng,
        record,
    )
}

/// Track bidirectionally: once along the seed's dominant direction and once
/// along its negation, splicing the two halves (reversed backward half +
/// forward half). Step counts add.
pub fn track_bidirectional<Fld: OrientationField + ?Sized>(
    field: &Fld,
    seed_id: u32,
    seed: Vec3,
    params: &TrackingParams,
    mask: Option<&Mask>,
    record: bool,
) -> Option<Streamline> {
    let c = Ijk::new(
        seed.x.round().max(0.0) as usize,
        seed.y.round().max(0.0) as usize,
        seed.z.round().max(0.0) as usize,
    );
    if !field.dims().contains(c) {
        return None;
    }
    let dir = dominant_direction(field, c, params.min_fraction)?;
    let fwd = track_streamline(field, seed_id, seed, dir, params, mask, record);
    let bwd = track_streamline(field, seed_id, seed, -dir, params, mask, record);
    let mut points = Vec::new();
    if record {
        points.reserve(bwd.points.len() + fwd.points.len());
        points.extend(bwd.points.iter().rev().copied());
        // Skip the duplicated seed point.
        points.extend(fwd.points.iter().skip(1).copied());
    }
    Some(Streamline {
        seed_id,
        points,
        steps: fwd.steps + bwd.steps,
        stop: fwd.stop,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::{FnField, InterpMode};
    use tracto_volume::Dim3;

    fn params() -> TrackingParams {
        TrackingParams {
            step_length: 0.5,
            angular_threshold: 0.8,
            max_steps: 1000,
            min_fraction: 0.05,
            interp: InterpMode::Nearest,
        }
    }

    fn x_field(dims: Dim3) -> FnField<impl Fn(Ijk) -> [(Vec3, f64); 2] + Sync> {
        FnField::new(dims, |_| [(Vec3::X, 0.6), (Vec3::ZERO, 0.0)])
    }

    #[test]
    fn streamline_reaches_far_boundary() {
        let dims = Dim3::new(16, 4, 4);
        let f = x_field(dims);
        let s = track_streamline(
            &f,
            0,
            Vec3::new(0.0, 2.0, 2.0),
            Vec3::X,
            &params(),
            None,
            true,
        );
        assert_eq!(s.stop, StopReason::OutOfBounds);
        assert_eq!(s.points.len() as u32, s.steps + 1);
        assert!((s.length_voxels(&params()) - 15.0).abs() < 1e-9);
    }

    #[test]
    fn unrecorded_streamline_has_no_points() {
        let dims = Dim3::new(8, 4, 4);
        let f = x_field(dims);
        let s = track_streamline(
            &f,
            0,
            Vec3::new(0.0, 2.0, 2.0),
            Vec3::X,
            &params(),
            None,
            false,
        );
        assert!(s.points.is_empty());
        assert!(s.steps > 0);
    }

    #[test]
    fn bidirectional_covers_both_sides() {
        let dims = Dim3::new(16, 4, 4);
        let f = x_field(dims);
        let s = track_bidirectional(&f, 0, Vec3::new(8.0, 2.0, 2.0), &params(), None, true)
            .expect("seed on fiber");
        // Forward reaches x=15 (14 steps), backward reaches x=0 (16 steps).
        assert_eq!(s.steps, 30);
        // Spliced path is ordered from the backward extreme to the forward
        // extreme.
        let first = s.points.first().unwrap();
        let last = s.points.last().unwrap();
        assert!(first.x < 1.0 && last.x > 14.0, "ends {first:?} {last:?}");
        // No duplicated seed point.
        let dup = s
            .points
            .windows(2)
            .filter(|w| (w[0] - w[1]).norm() < 1e-12)
            .count();
        assert_eq!(dup, 0);
    }

    #[test]
    fn bidirectional_none_off_fiber() {
        let dims = Dim3::new(8, 4, 4);
        let f = FnField::new(dims, |_| [(Vec3::ZERO, 0.0), (Vec3::ZERO, 0.0)]);
        assert!(
            track_bidirectional(&f, 0, Vec3::new(4.0, 2.0, 2.0), &params(), None, false).is_none()
        );
    }

    #[test]
    fn follows_curved_field() {
        // Quarter-circle field in the x–y plane around the origin corner:
        // tangent = (−y, x) normalized.
        let dims = Dim3::new(32, 32, 3);
        let f = FnField::new(dims, |c: Ijk| {
            let t = Vec3::new(-(c.j as f64), c.i as f64, 0.0).normalized();
            let t = if t == Vec3::ZERO { Vec3::Y } else { t };
            [(t, 0.6), (Vec3::ZERO, 0.0)]
        });
        let mut p = params();
        p.step_length = 0.2;
        p.angular_threshold = 0.95;
        let start = Vec3::new(20.0, 1.0, 1.0);
        let s = track_streamline(&f, 0, start, Vec3::Y, &p, None, true);
        // The walker should sweep a curve and keep a ~constant radius from
        // the (x=0, y=0) axis.
        let r0 = (start.x * start.x + start.y * start.y).sqrt();
        for pt in &s.points {
            let r = (pt.x * pt.x + pt.y * pt.y).sqrt();
            assert!((r - r0).abs() < 2.0, "radius drifted: {r} vs {r0}");
        }
        assert!(
            s.steps > 50,
            "should follow the curve a while, got {}",
            s.steps
        );
    }
}
