//! Orientation fields and direction selection.
//!
//! The trackers read posterior samples through two fields: the production
//! drivers through a precomputed [`SampleField`] per in-flight sample, and
//! the serial reference through a [`SampleFieldView`] that reconstructs
//! each stick from `(θ, φ)` on every lookup — an independent read path the
//! CPU ≡ kernel checks compare against.

use tracto_mcmc::SampleVolumes;
use tracto_volume::{Dim3, Ijk, Vec3};

/// A field of per-voxel fiber populations: up to two `(direction, fraction)`
/// sticks per voxel, the output shape of the N = 2 partial-volume model.
pub trait OrientationField: Sync {
    /// Grid dimensions.
    fn dims(&self) -> Dim3;

    /// The stick populations of voxel `c`; unused slots carry zero fraction.
    fn sticks(&self, c: Ijk) -> [(Vec3, f64); 2];
}

impl<F: OrientationField + ?Sized> OrientationField for &F {
    fn dims(&self) -> Dim3 {
        (**self).dims()
    }

    #[inline]
    fn sticks(&self, c: Ijk) -> [(Vec3, f64); 2] {
        (**self).sticks(c)
    }
}

/// One posterior sample volume viewed as an orientation field — what one
/// iteration of the paper's "for every sample volume" loop tracks through.
#[derive(Debug, Clone, Copy)]
pub struct SampleFieldView<'a> {
    samples: &'a SampleVolumes,
    sample: usize,
}

impl<'a> SampleFieldView<'a> {
    /// View sample `sample` of a sample stack.
    pub fn new(samples: &'a SampleVolumes, sample: usize) -> Self {
        assert!(sample < samples.num_samples(), "sample index out of range");
        SampleFieldView { samples, sample }
    }

    /// The sample index viewed.
    pub fn sample_index(&self) -> usize {
        self.sample
    }
}

impl OrientationField for SampleFieldView<'_> {
    fn dims(&self) -> Dim3 {
        self.samples.dims()
    }

    #[inline]
    fn sticks(&self, c: Ijk) -> [(Vec3, f64); 2] {
        self.samples.sticks_at(c, self.sample)
    }
}

/// One posterior sample volume's sticks, precomputed voxel-major: 64 B per
/// voxel, so a lookup is one indexed load instead of four `sin_cos` and six
/// strided loads. The host-side twin of the paper's `Copy3DImagesToGPU()`:
/// drivers build it where they charge the sample's volume upload and drop
/// it when the sample's lanes retire. Every entry is computed by
/// [`SampleVolumes::sticks_at`] itself, so it tracks bit-identically to a
/// [`SampleFieldView`] of the same sample.
#[derive(Debug, Clone)]
pub struct SampleField {
    dims: Dim3,
    sticks: Vec<[(Vec3, f64); 2]>,
}

impl SampleField {
    /// Precompute sample `sample` of a sample stack.
    pub fn build(samples: &SampleVolumes, sample: usize) -> Self {
        assert!(sample < samples.num_samples(), "sample index out of range");
        let dims = samples.dims();
        SampleField {
            dims,
            sticks: dims.iter().map(|c| samples.sticks_at(c, sample)).collect(),
        }
    }
}

impl OrientationField for SampleField {
    fn dims(&self) -> Dim3 {
        self.dims
    }

    #[inline]
    fn sticks(&self, c: Ijk) -> [(Vec3, f64); 2] {
        self.sticks[self.dims.index(c)]
    }
}

/// A closure-backed field, used by tests and by ground-truth tracking.
pub struct FnField<F> {
    dims: Dim3,
    f: F,
}

impl<F: Fn(Ijk) -> [(Vec3, f64); 2] + Sync> FnField<F> {
    /// Wrap a closure.
    pub fn new(dims: Dim3, f: F) -> Self {
        FnField { dims, f }
    }
}

impl<F: Fn(Ijk) -> [(Vec3, f64); 2] + Sync> OrientationField for FnField<F> {
    fn dims(&self) -> Dim3 {
        self.dims
    }

    fn sticks(&self, c: Ijk) -> [(Vec3, f64); 2] {
        (self.f)(c)
    }
}

/// Orientation interpolation mode for the tracking kernel's
/// `Interpolation()` step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InterpMode {
    /// Take the nearest voxel's selected stick (the sample-volume access
    /// pattern of the original kernel).
    Nearest,
    /// Blend the selected, sign-aligned stick of the eight surrounding
    /// voxels with trilinear weights.
    Trilinear,
}

/// Select the stick of voxel `c` that best maintains the walker's current
/// orientation (the paper's multi-fiber rule: "a right direction should be
/// chosen … maintaining the original orientation of the streamline through
/// crossing regions"), sign-aligned with `prev_dir`.
///
/// Sticks with fraction below `min_fraction` are ignored. Returns `None`
/// when no eligible stick exists.
#[inline]
pub fn select_stick<Fld: OrientationField + ?Sized>(
    field: &Fld,
    c: Ijk,
    prev_dir: Vec3,
    min_fraction: f64,
) -> Option<Vec3> {
    let sticks = field.sticks(c);
    let mut best: Option<(f64, Vec3)> = None;
    for (dir, f) in sticks {
        if f < min_fraction || f <= 0.0 || dir == Vec3::ZERO {
            continue;
        }
        let align = dir.dot(prev_dir).abs();
        if best.map(|(a, _)| align > a).unwrap_or(true) {
            best = Some((align, dir.aligned_with(prev_dir)));
        }
    }
    best.map(|(_, d)| d)
}

/// The voxel nearest to `pos`, clamped to the lattice: a position up to
/// half a voxel outside the grid (a jittered edge seed) reads its edge
/// voxel. Inside the grid it is plain rounding.
#[inline]
pub fn nearest_voxel(dims: Dim3, pos: Vec3) -> Ijk {
    Ijk::new(
        (pos.x.round().clamp(0.0, (dims.nx - 1) as f64)) as usize,
        (pos.y.round().clamp(0.0, (dims.ny - 1) as f64)) as usize,
        (pos.z.round().clamp(0.0, (dims.nz - 1) as f64)) as usize,
    )
}

/// Evaluate the stepping direction at a continuous position.
///
/// `prev_dir` both disambiguates stick signs and drives multi-fiber stick
/// selection. Positions are clamped to the lattice (bounds termination is
/// the walker's responsibility).
pub fn select_direction<Fld: OrientationField + ?Sized>(
    field: &Fld,
    pos: Vec3,
    prev_dir: Vec3,
    mode: InterpMode,
    min_fraction: f64,
) -> Option<Vec3> {
    let dims = field.dims();
    match mode {
        InterpMode::Nearest => {
            select_stick(field, nearest_voxel(dims, pos), prev_dir, min_fraction)
        }
        InterpMode::Trilinear => {
            let st = tracto_volume::interp::trilinear_stencil(dims, pos);
            let mut acc = Vec3::ZERO;
            let mut weight_used = 0.0;
            for (c, w) in st.corners.iter().zip(st.weights.iter()) {
                if let Some(d) = select_stick(field, *c, prev_dir, min_fraction) {
                    acc += d * *w;
                    weight_used += *w;
                }
            }
            if weight_used < 0.5 {
                // Majority of the neighborhood is sub-threshold — treat as
                // leaving the fiber-bearing region.
                return None;
            }
            let n = acc.normalized();
            (n != Vec3::ZERO).then_some(n)
        }
    }
}

/// The dominant (largest-fraction) stick at a voxel — the canonical initial
/// direction of a streamline seeded there.
pub fn dominant_direction<Fld: OrientationField + ?Sized>(
    field: &Fld,
    c: Ijk,
    min_fraction: f64,
) -> Option<Vec3> {
    let sticks = field.sticks(c);
    sticks
        .iter()
        .filter(|(d, f)| *f >= min_fraction && *f > 0.0 && *d != Vec3::ZERO)
        .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite fractions"))
        .map(|(d, _)| *d)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform_x_field(dims: Dim3) -> FnField<impl Fn(Ijk) -> [(Vec3, f64); 2] + Sync> {
        FnField::new(dims, |_| [(Vec3::X, 0.6), (Vec3::ZERO, 0.0)])
    }

    fn crossing_field(dims: Dim3) -> FnField<impl Fn(Ijk) -> [(Vec3, f64); 2] + Sync> {
        FnField::new(dims, |_| [(Vec3::X, 0.5), (Vec3::Y, 0.4)])
    }

    #[test]
    fn select_stick_prefers_aligned_population() {
        let dims = Dim3::new(4, 4, 4);
        let f = crossing_field(dims);
        let c = Ijk::new(1, 1, 1);
        // Walker heading along y picks the y stick even though x has more
        // volume.
        let d = select_stick(&f, c, Vec3::Y, 0.05).unwrap();
        assert!((d - Vec3::Y).norm() < 1e-12);
        let d = select_stick(&f, c, Vec3::X, 0.05).unwrap();
        assert!((d - Vec3::X).norm() < 1e-12);
    }

    #[test]
    fn select_stick_aligns_sign() {
        let dims = Dim3::new(2, 2, 2);
        let f = uniform_x_field(dims);
        let d = select_stick(&f, Ijk::new(0, 0, 0), -Vec3::X, 0.0).unwrap();
        assert!(
            (d + Vec3::X).norm() < 1e-12,
            "must flip into walker hemisphere"
        );
    }

    #[test]
    fn select_stick_respects_min_fraction() {
        let dims = Dim3::new(2, 2, 2);
        let f = FnField::new(dims, |_| [(Vec3::X, 0.04), (Vec3::ZERO, 0.0)]);
        assert!(select_stick(&f, Ijk::new(0, 0, 0), Vec3::X, 0.05).is_none());
        assert!(select_stick(&f, Ijk::new(0, 0, 0), Vec3::X, 0.01).is_some());
    }

    #[test]
    fn nearest_direction_uses_closest_voxel() {
        let dims = Dim3::new(4, 1, 1);
        let f = FnField::new(dims, |c| {
            let d = if c.i < 2 { Vec3::X } else { Vec3::Z };
            [(d, 0.5), (Vec3::ZERO, 0.0)]
        });
        let d = select_direction(
            &f,
            Vec3::new(2.4, 0.0, 0.0),
            Vec3::Z,
            InterpMode::Nearest,
            0.0,
        )
        .unwrap();
        assert!((d - Vec3::Z).norm() < 1e-12);
        let d = select_direction(
            &f,
            Vec3::new(1.4, 0.0, 0.0),
            Vec3::X,
            InterpMode::Nearest,
            0.0,
        )
        .unwrap();
        assert!((d - Vec3::X).norm() < 1e-12);
    }

    #[test]
    fn trilinear_blends_neighbors() {
        let dims = Dim3::new(2, 1, 1);
        // Directions 45° apart; midpoint blend must lie between them.
        let d0 = Vec3::X;
        let d1 = Vec3::new(1.0, 1.0, 0.0).normalized();
        let f = FnField::new(dims, move |c| {
            [(if c.i == 0 { d0 } else { d1 }, 0.5), (Vec3::ZERO, 0.0)]
        });
        let d = select_direction(
            &f,
            Vec3::new(0.5, 0.0, 0.0),
            Vec3::X,
            InterpMode::Trilinear,
            0.0,
        )
        .unwrap();
        assert!((d.norm() - 1.0).abs() < 1e-12);
        assert!(
            d.dot(d0) > 0.8 && d.dot(d1) > 0.8,
            "blend between neighbors: {d:?}"
        );
    }

    #[test]
    fn trilinear_none_when_region_subthreshold() {
        let dims = Dim3::new(2, 2, 2);
        let f = FnField::new(dims, |_| [(Vec3::X, 0.01), (Vec3::ZERO, 0.0)]);
        assert!(select_direction(
            &f,
            Vec3::new(0.5, 0.5, 0.5),
            Vec3::X,
            InterpMode::Trilinear,
            0.05
        )
        .is_none());
    }

    #[test]
    fn dominant_direction_largest_fraction() {
        let dims = Dim3::new(2, 2, 2);
        let f = crossing_field(dims);
        let d = dominant_direction(&f, Ijk::new(0, 0, 0), 0.0).unwrap();
        assert!((d - Vec3::X).norm() < 1e-12);
    }

    #[test]
    fn dominant_direction_none_when_empty() {
        let dims = Dim3::new(2, 2, 2);
        let f = FnField::new(dims, |_| [(Vec3::ZERO, 0.0), (Vec3::ZERO, 0.0)]);
        assert!(dominant_direction(&f, Ijk::new(0, 0, 0), 0.0).is_none());
    }

    #[test]
    fn sample_field_view_reads_samples() {
        let mut sv = SampleVolumes::zeros(Dim3::new(2, 2, 2), 2);
        // th=π/2, ph=0 → +x in sample 0; th=π/2, ph=π/2 → +y in sample 1.
        let c = Ijk::new(1, 1, 1);
        sv.f1.set(c, 0, 0.6);
        sv.th1.set(c, 0, std::f64::consts::FRAC_PI_2 as f32);
        sv.ph1.set(c, 0, 0.0);
        sv.f1.set(c, 1, 0.6);
        sv.th1.set(c, 1, std::f64::consts::FRAC_PI_2 as f32);
        sv.ph1.set(c, 1, std::f64::consts::FRAC_PI_2 as f32);
        let v0 = SampleFieldView::new(&sv, 0);
        let v1 = SampleFieldView::new(&sv, 1);
        assert!(v0.sticks(c)[0].0.dot(Vec3::X) > 0.999);
        assert!(v1.sticks(c)[0].0.dot(Vec3::Y) > 0.999);
        assert_eq!(v0.sample_index(), 0);
    }

    #[test]
    #[should_panic(expected = "sample index")]
    fn sample_view_out_of_range() {
        let sv = SampleVolumes::zeros(Dim3::new(2, 2, 2), 1);
        let _ = SampleFieldView::new(&sv, 1);
    }
}
