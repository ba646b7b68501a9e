//! Property-based tests for the volume crate's geometric invariants.

use proptest::prelude::*;
use tracto_volume::interp::{trilinear_scalar, trilinear_stencil};
use tracto_volume::{Dim3, Ijk, Vec3, Volume3, VoxelGrid};

fn dim_strategy() -> impl Strategy<Value = Dim3> {
    (1usize..8, 1usize..8, 1usize..8).prop_map(|(x, y, z)| Dim3::new(x, y, z))
}

proptest! {
    #[test]
    fn index_coords_roundtrip(d in dim_strategy(), frac in 0.0f64..1.0) {
        let idx = ((d.len() - 1) as f64 * frac) as usize;
        prop_assert_eq!(d.index(d.coords(idx)), idx);
    }

    #[test]
    fn coords_always_in_bounds(d in dim_strategy(), frac in 0.0f64..1.0) {
        let idx = ((d.len() - 1) as f64 * frac) as usize;
        prop_assert!(d.contains(d.coords(idx)));
    }

    #[test]
    fn spherical_roundtrip_unit(theta in 1e-6f64..std::f64::consts::PI - 1e-6,
                                phi in -std::f64::consts::PI..std::f64::consts::PI) {
        let v = Vec3::from_spherical(theta, phi);
        prop_assert!((v.norm() - 1.0).abs() < 1e-12);
        let (t2, p2) = v.to_spherical();
        let v2 = Vec3::from_spherical(t2, p2);
        prop_assert!((v - v2).norm() < 1e-9);
    }

    #[test]
    fn normalized_is_unit_or_zero(x in -100.0f64..100.0, y in -100.0f64..100.0, z in -100.0f64..100.0) {
        let v = Vec3::new(x, y, z);
        let n = v.normalized();
        if v.norm() == 0.0 {
            prop_assert_eq!(n, Vec3::ZERO);
        } else {
            prop_assert!((n.norm() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn cross_orthogonal_to_operands(
        ax in -10.0f64..10.0, ay in -10.0f64..10.0, az in -10.0f64..10.0,
        bx in -10.0f64..10.0, by in -10.0f64..10.0, bz in -10.0f64..10.0,
    ) {
        let a = Vec3::new(ax, ay, az);
        let b = Vec3::new(bx, by, bz);
        let c = a.cross(b);
        prop_assert!(c.dot(a).abs() < 1e-6);
        prop_assert!(c.dot(b).abs() < 1e-6);
    }

    #[test]
    fn stencil_weights_convex(d in dim_strategy(),
                              x in -2.0f64..10.0, y in -2.0f64..10.0, z in -2.0f64..10.0) {
        let st = trilinear_stencil(d, Vec3::new(x, y, z));
        let sum: f64 = st.weights.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-9);
        for (c, w) in st.corners.iter().zip(st.weights.iter()) {
            prop_assert!(d.contains(*c));
            prop_assert!(*w >= -1e-12 && *w <= 1.0 + 1e-12);
        }
    }

    #[test]
    fn trilinear_within_data_range(d in dim_strategy(),
                                   x in 0.0f64..7.0, y in 0.0f64..7.0, z in 0.0f64..7.0,
                                   seed in 0u64..1000) {
        // Interpolation of a convex combination never escapes [min, max].
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        let v = Volume3::from_fn(d, |_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f32) / (u32::MAX as f32)
        });
        let (lo, hi) = v.min_max().unwrap();
        let s = trilinear_scalar(&v, Vec3::new(x, y, z));
        prop_assert!(s >= lo as f64 - 1e-6 && s <= hi as f64 + 1e-6);
    }

    #[test]
    fn voxel_world_roundtrip(
        spacing in 0.5f64..5.0,
        ox in -100.0f64..100.0,
        px in 0.0f64..50.0, py in 0.0f64..50.0, pz in 0.0f64..50.0,
    ) {
        let mut g = VoxelGrid::isotropic(Dim3::new(64, 64, 64), spacing);
        g.origin = Vec3::new(ox, -ox, 2.0 * ox);
        let p = Vec3::new(px, py, pz);
        let back = g.world_to_voxel(g.voxel_to_world(p));
        prop_assert!((back - p).norm() < 1e-9);
    }

    #[test]
    fn mask_threshold_counts(v0 in 0.0f32..1.0, v1 in 0.0f32..1.0, thr in 0.0f32..1.0) {
        let vol = Volume3::from_vec(Dim3::new(2, 1, 1), vec![v0, v1]).unwrap();
        let m = tracto_volume::Mask::threshold(&vol, thr);
        let expected = (v0 > thr) as usize + (v1 > thr) as usize;
        prop_assert_eq!(m.count(), expected);
    }
}

#[test]
fn volume4_slice_roundtrip() {
    use tracto_volume::Volume4;
    let d = Dim3::new(3, 2, 2);
    let v4 = Volume4::from_fn(d, 3, |c, t| (d.index(c) * 3 + t) as f32);
    for t in 0..3 {
        let s = v4.slice_t(t);
        for c in d.iter() {
            assert_eq!(*s.get(c), *v4.get(c, t));
        }
    }
    let _ = Ijk::new(0, 0, 0);
}
