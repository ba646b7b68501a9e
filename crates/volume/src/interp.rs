//! Trilinear interpolation stencils and scalar-field sampling.
//!
//! The tracking kernel's `Interpolation()` step (Algorithm 1 in the paper)
//! evaluates the local fiber orientation at a continuous trajectory point.
//! Two modes are supported, matching the options in FSL's probtrackx:
//!
//! * **nearest** — take the orientation of the nearest voxel (cheap, what the
//!   original GPU kernel does for the sample volumes);
//! * **trilinear** — blend the eight surrounding voxels. Because fiber
//!   orientations are axes (sign-ambiguous), the tracking crate flips each
//!   corner direction into the walker's hemisphere before blending over
//!   this module's [`TrilinearStencil`].

use crate::{Dim3, Ijk, Vec3, Volume3};

/// The eight corners and weights of the trilinear stencil around a point.
///
/// Coordinates are clamped to the lattice so that querying a boundary point
/// is well-defined; callers decide separately whether out-of-volume points
/// should terminate a streamline.
#[derive(Debug, Clone, Copy)]
pub struct TrilinearStencil {
    /// Corner voxel coordinates.
    pub corners: [Ijk; 8],
    /// Convex weights summing to 1.
    pub weights: [f64; 8],
}

/// Build the trilinear stencil for a continuous voxel-space point.
pub fn trilinear_stencil(dims: Dim3, p: Vec3) -> TrilinearStencil {
    let max_x = (dims.nx - 1) as f64;
    let max_y = (dims.ny - 1) as f64;
    let max_z = (dims.nz - 1) as f64;
    let x = p.x.clamp(0.0, max_x);
    let y = p.y.clamp(0.0, max_y);
    let z = p.z.clamp(0.0, max_z);

    let x0 = x.floor().min(max_x - 1.0).max(0.0);
    let y0 = y.floor().min(max_y - 1.0).max(0.0);
    let z0 = z.floor().min(max_z - 1.0).max(0.0);
    // Degenerate axes (extent 1) collapse the stencil onto the single plane.
    let (x0, fx) = if dims.nx == 1 {
        (0.0, 0.0)
    } else {
        (x0, x - x0)
    };
    let (y0, fy) = if dims.ny == 1 {
        (0.0, 0.0)
    } else {
        (y0, y - y0)
    };
    let (z0, fz) = if dims.nz == 1 {
        (0.0, 0.0)
    } else {
        (z0, z - z0)
    };

    let i0 = x0 as usize;
    let j0 = y0 as usize;
    let k0 = z0 as usize;
    let i1 = (i0 + 1).min(dims.nx - 1);
    let j1 = (j0 + 1).min(dims.ny - 1);
    let k1 = (k0 + 1).min(dims.nz - 1);

    let corners = [
        Ijk::new(i0, j0, k0),
        Ijk::new(i1, j0, k0),
        Ijk::new(i0, j1, k0),
        Ijk::new(i1, j1, k0),
        Ijk::new(i0, j0, k1),
        Ijk::new(i1, j0, k1),
        Ijk::new(i0, j1, k1),
        Ijk::new(i1, j1, k1),
    ];
    let weights = [
        (1.0 - fx) * (1.0 - fy) * (1.0 - fz),
        fx * (1.0 - fy) * (1.0 - fz),
        (1.0 - fx) * fy * (1.0 - fz),
        fx * fy * (1.0 - fz),
        (1.0 - fx) * (1.0 - fy) * fz,
        fx * (1.0 - fy) * fz,
        (1.0 - fx) * fy * fz,
        fx * fy * fz,
    ];
    TrilinearStencil { corners, weights }
}

/// Trilinearly interpolate a scalar volume at a continuous voxel-space point
/// (clamped to the lattice).
pub fn trilinear_scalar(volume: &Volume3<f32>, p: Vec3) -> f64 {
    let st = trilinear_stencil(volume.dims(), p);
    let mut acc = 0.0;
    for (c, w) in st.corners.iter().zip(st.weights.iter()) {
        acc += *volume.get(*c) as f64 * w;
    }
    acc
}

/// Nearest-voxel lookup of a scalar volume (clamped to the lattice).
pub fn nearest_scalar(volume: &Volume3<f32>, p: Vec3) -> f64 {
    let d = volume.dims();
    let c = Ijk::new(
        (p.x.round().clamp(0.0, (d.nx - 1) as f64)) as usize,
        (p.y.round().clamp(0.0, (d.ny - 1) as f64)) as usize,
        (p.z.round().clamp(0.0, (d.nz - 1) as f64)) as usize,
    );
    *volume.get(c) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp_volume() -> Volume3<f32> {
        // value = i + 10 j + 100 k, trilinear in all axes.
        Volume3::from_fn(Dim3::new(4, 4, 4), |c| {
            (c.i as f32) + 10.0 * c.j as f32 + 100.0 * c.k as f32
        })
    }

    #[test]
    fn stencil_weights_sum_to_one() {
        let d = Dim3::new(4, 4, 4);
        for p in [
            Vec3::new(0.0, 0.0, 0.0),
            Vec3::new(1.5, 2.3, 0.7),
            Vec3::new(3.0, 3.0, 3.0),
            Vec3::new(-1.0, 5.0, 1.2), // clamped
        ] {
            let st = trilinear_stencil(d, p);
            let sum: f64 = st.weights.iter().sum();
            assert!((sum - 1.0).abs() < 1e-12, "weights sum {sum} at {p:?}");
            assert!(st
                .weights
                .iter()
                .all(|&w| (-1e-12..=1.0 + 1e-12).contains(&w)));
        }
    }

    #[test]
    fn trilinear_exact_on_lattice() {
        let v = ramp_volume();
        for c in v.dims().iter() {
            let p = Vec3::new(c.i as f64, c.j as f64, c.k as f64);
            assert!((trilinear_scalar(&v, p) - *v.get(c) as f64).abs() < 1e-9);
        }
    }

    #[test]
    fn trilinear_linear_ramp_midpoints() {
        let v = ramp_volume();
        // Linear field → trilinear interpolation is exact everywhere.
        let p = Vec3::new(1.25, 2.5, 0.75);
        let expected = 1.25 + 10.0 * 2.5 + 100.0 * 0.75;
        assert!((trilinear_scalar(&v, p) - expected).abs() < 1e-9);
    }

    #[test]
    fn trilinear_clamps_outside() {
        let v = ramp_volume();
        let inside = trilinear_scalar(&v, Vec3::new(0.0, 0.0, 0.0));
        let outside = trilinear_scalar(&v, Vec3::new(-5.0, -5.0, -5.0));
        assert_eq!(inside, outside);
        let hi = trilinear_scalar(&v, Vec3::new(99.0, 99.0, 99.0));
        assert_eq!(hi, trilinear_scalar(&v, Vec3::new(3.0, 3.0, 3.0)));
    }

    #[test]
    fn nearest_scalar_picks_closest() {
        let v = ramp_volume();
        assert_eq!(
            nearest_scalar(&v, Vec3::new(1.4, 0.6, 2.5)),
            1.0 + 10.0 + 100.0 * 3.0
        );
    }

    #[test]
    fn degenerate_single_slice_volume() {
        let v = Volume3::from_fn(Dim3::new(3, 3, 1), |c| c.i as f32);
        // Query at arbitrary z must not panic and must use the only slice.
        assert!((trilinear_scalar(&v, Vec3::new(1.5, 1.0, 0.9)) - 1.5).abs() < 1e-9);
    }
}
