//! Property-based tests of tracking invariants.

use proptest::prelude::*;
use tracto_mcmc::SampleVolumes;
use tracto_tracking::connectivity::{voxel_index, ConnectivityAccumulator};
use tracto_tracking::field::{FnField, InterpMode, OrientationField, SampleField};
use tracto_tracking::getter::{lane_rng, PosteriorSampleGetter};
use tracto_tracking::walker::{Recording, TrackingParams, Walker};
use tracto_tracking::{SegmentationStrategy, StopStack};
use tracto_volume::{Dim3, Ijk, Mask, Vec3};

fn strategy_strategy() -> impl Strategy<Value = SegmentationStrategy> {
    prop_oneof![
        Just(SegmentationStrategy::Single),
        (1u32..64).prop_map(SegmentationStrategy::Uniform),
        prop::collection::vec(1u32..50, 1..8).prop_map(SegmentationStrategy::Increasing),
        Just(SegmentationStrategy::paper_b()),
        Just(SegmentationStrategy::paper_c()),
    ]
}

/// Sample angles: arbitrary f32 plus the poles and signed zeros.
fn angle_strategy() -> impl Strategy<Value = f32> {
    use std::f32::consts::PI;
    prop_oneof![
        Just(0.0f32),
        Just(-0.0f32),
        Just(PI),
        Just(-PI),
        -7.0f32..7.0,
    ]
}

/// Sample fractions: zero (both signs), below the tracking floor of 0.05,
/// and anywhere in the unit interval.
fn fraction_strategy() -> impl Strategy<Value = f32> {
    prop_oneof![Just(0.0f32), Just(-0.0f32), 0.0f32..0.05, 0.0f32..1.0]
}

/// The bit patterns of one voxel's sticks, so `-0.0` and `0.0` differ.
fn stick_bits(sticks: [(Vec3, f64); 2]) -> [u64; 8] {
    let [(a, fa), (b, fb)] = sticks;
    [a.x, a.y, a.z, fa, b.x, b.y, b.z, fb].map(f64::to_bits)
}

proptest! {
    #[test]
    fn sample_field_is_bit_identical_to_sticks_at(
        entries in prop::collection::vec(
            (
                angle_strategy(),
                angle_strategy(),
                angle_strategy(),
                angle_strategy(),
                fraction_strategy(),
                fraction_strategy(),
            ),
            36..37,
        ),
        sample in 0usize..3,
    ) {
        let dims = Dim3::new(3, 2, 2);
        let mut sv = SampleVolumes::zeros(dims, 3);
        for (n, &(th1, ph1, th2, ph2, f1, f2)) in entries.iter().enumerate() {
            let (c, s) = (dims.coords(n / 3), n % 3);
            sv.th1.set(c, s, th1);
            sv.ph1.set(c, s, ph1);
            sv.th2.set(c, s, th2);
            sv.ph2.set(c, s, ph2);
            sv.f1.set(c, s, f1);
            sv.f2.set(c, s, f2);
        }
        let field = SampleField::build(&sv, sample);
        prop_assert_eq!(field.dims(), dims);
        for c in dims.iter() {
            prop_assert_eq!(
                stick_bits(field.sticks(c)),
                stick_bits(sv.sticks_at(c, sample)),
                "voxel {:?}",
                c
            );
        }
    }

    #[test]
    fn budgets_cover_max_steps_exactly(s in strategy_strategy(), max in 1u32..3000) {
        let b = s.budgets(max);
        prop_assert_eq!(b.iter().sum::<u32>(), max);
        prop_assert!(b.iter().all(|&x| x > 0));
    }

    #[test]
    fn walker_never_leaves_volume(
        nx in 4usize..12, ny in 4usize..12, nz in 4usize..12,
        sx in 0.0f64..1.0, sy in 0.0f64..1.0, sz in 0.0f64..1.0,
        theta in 0.0f64..std::f64::consts::PI,
        phi in -std::f64::consts::PI..std::f64::consts::PI,
        field_seed in 0u64..500,
        step in 0.05f64..0.9,
    ) {
        let dims = Dim3::new(nx, ny, nz);
        // Pseudo-random direction field.
        let f = FnField::new(dims, move |c: Ijk| {
            let mut h = field_seed
                .wrapping_mul(0x9E3779B97F4A7C15)
                .wrapping_add((c.i * 73 + c.j * 1009 + c.k * 7919) as u64);
            h ^= h >> 33;
            h = h.wrapping_mul(0xFF51AFD7ED558CCD);
            let a = (h & 0xFFFF) as f64 / 65535.0 * std::f64::consts::PI;
            let b = ((h >> 16) & 0xFFFF) as f64 / 65535.0 * std::f64::consts::TAU;
            [(Vec3::from_spherical(a, b), 0.6), (Vec3::ZERO, 0.0)]
        });
        let params = TrackingParams {
            step_length: step,
            angular_threshold: 0.5,
            max_steps: 200,
            min_fraction: 0.05,
            interp: InterpMode::Nearest,
        };
        let pos = Vec3::new(
            sx * (nx - 1) as f64,
            sy * (ny - 1) as f64,
            sz * (nz - 1) as f64,
        );
        let mut w = Walker::new(0, pos, Vec3::from_spherical(theta, phi));
        while w.alive() {
            w.step(&f, &params, None);
            prop_assert!(dims.contains_point(w.pos.x, w.pos.y, w.pos.z),
                "walker escaped to {:?}", w.pos);
        }
        prop_assert!(w.steps <= params.max_steps);
    }

    #[test]
    fn walker_step_count_matches_distance(
        steps_wanted in 1u32..50,
        step in 0.1f64..0.5,
    ) {
        // In a uniform +x field with no curvature stops, distance traveled
        // is exactly steps × step_length.
        let dims = Dim3::new(64, 4, 4);
        let f = FnField::new(dims, |_| [(Vec3::X, 0.6), (Vec3::ZERO, 0.0)]);
        let params = TrackingParams {
            step_length: step,
            angular_threshold: 0.5,
            max_steps: steps_wanted,
            min_fraction: 0.05,
            interp: InterpMode::Nearest,
        };
        let start = Vec3::new(0.0, 2.0, 2.0);
        let mut w = Walker::new(0, start, Vec3::X);
        while w.alive() {
            w.step(&f, &params, None);
        }
        prop_assert!((w.pos.x - start.x - w.steps as f64 * step).abs() < 1e-9);
    }

    #[test]
    fn walker_visit_list_matches_voxels_of_path(
        (nx, ny, nz) in (4usize..12, 4usize..12, 4usize..12),
        (sx, sy, sz) in (0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0),
        (edge_axis, edge_at) in (0usize..9, prop_oneof![Just(-0.5f64), -0.8f64..0.0]),
        (theta, phi, field_seed) in (
            0.0f64..std::f64::consts::PI,
            -std::f64::consts::PI..std::f64::consts::PI,
            0u64..500,
        ),
        step in 0.05f64..1.2,
        (mix, trilinear, masked) in (0u32..256, 0u8..2, 0u8..2),
    ) {
        // A field bent around one random heading, so walkers travel a
        // while before a curvature stop. A third of the starts lie
        // anywhere in the grid; the others sit up to 0.8 outside one face
        // of the grid (at -0.8..0 or n-1..n-0.2 on one axis, often exactly
        // half a voxel out), heading inward: a start half a voxel out or
        // more rounds outside the grid and may step in, and a nearer one
        // looks up its clamped edge voxel.
        let dims = Dim3::new(nx, ny, nz);
        let axes = [Vec3::X, Vec3::Y, Vec3::Z];
        let heading = match edge_axis {
            0..=2 => (axes[edge_axis] * 2.0 + Vec3::from_spherical(theta, phi)).normalized(),
            3..=5 => (axes[edge_axis - 3] * -2.0 + Vec3::from_spherical(theta, phi)).normalized(),
            _ => Vec3::from_spherical(theta, phi),
        };
        let (theta, phi) = heading.to_spherical();
        let f = FnField::new(dims, move |c: Ijk| {
            let mut h = field_seed
                .wrapping_mul(0x9E3779B97F4A7C15)
                .wrapping_add((c.i * 73 + c.j * 1009 + c.k * 7919) as u64);
            h ^= h >> 33;
            h = h.wrapping_mul(0xFF51AFD7ED558CCD);
            let wobble = |b: u64| ((h >> b) & 0xFFFF) as f64 / 65535.0 * 0.6 - 0.3;
            let d = Vec3::from_spherical(theta + wobble(0), phi + wobble(16));
            [(d, 0.6), (Vec3::from_spherical(wobble(32) + 1.5, phi), 0.3)]
        });
        let mask = Mask::from_fn(dims, |c| c.i + c.j + c.k < (nx + ny + nz) * 2 / 3);
        let mask = (masked == 1).then_some(&mask);
        let params = TrackingParams {
            step_length: step,
            angular_threshold: 0.6,
            max_steps: 300,
            min_fraction: 0.05,
            interp: if trilinear == 1 { InterpMode::Trilinear } else { InterpMode::Nearest },
        };
        let top = [nx - 1, ny - 1, nz - 1].map(|t| t as f64);
        let mut start = [sx * top[0], sy * top[1], sz * top[2]];
        match edge_axis {
            0..=2 => start[edge_axis] = edge_at,
            3..=5 => start[edge_axis - 3] = top[edge_axis - 3] - edge_at,
            _ => {}
        }
        let pos = Vec3::new(start[0], start[1], start[2]);
        let getter = PosteriorSampleGetter::new(&f, params.interp, params.min_fraction);
        let stack = StopStack::standard(&params, mask);
        let mut rng = lane_rng(1, 0, 0);
        // The fused step, the stack, and a walker that switches between
        // them in the pattern `mix` spells (bit `steps % 8` set = stack
        // step): a voxel the fused step keeps must never go stale.
        let start_walker = || Walker::new_recording(0, pos, heading, Recording::Points, dims);
        let mut fused = start_walker();
        while fused.alive() {
            fused.step(&f, &params, mask);
        }
        let mut stacked = start_walker();
        while stacked.alive() {
            stacked.step_with(&getter, params.step_length, &stack, &mut rng);
        }
        let mut mixed = start_walker();
        while mixed.alive() {
            if mix >> (mixed.steps % 8) & 1 == 1 {
                mixed.step_with(&getter, params.step_length, &stack, &mut rng);
            } else {
                mixed.step(&f, &params, mask);
            }
        }
        for other in [&stacked, &mixed] {
            prop_assert_eq!(other.stop, fused.stop);
            prop_assert_eq!(other.steps, fused.steps);
            prop_assert_eq!(&other.path, &fused.path);
            prop_assert_eq!(&other.visits, &fused.visits);
        }
        let w = fused;
        prop_assert_eq!(w.path.len() as u32, w.steps + 1);
        // In order: the points' voxels with consecutive repeats dropped.
        let mut in_order: Vec<u32> = Vec::new();
        for v in w.path.iter().filter_map(|&p| voxel_index(dims, p)) {
            if in_order.last() != Some(&v) {
                in_order.push(v);
            }
        }
        prop_assert_eq!(&w.visits, &in_order);
        let mut visits = w.visits.clone();
        visits.sort_unstable();
        visits.dedup();
        prop_assert_eq!(visits, ConnectivityAccumulator::voxels_of_path(dims, &w.path));
    }

    #[test]
    fn path_voxels_sorted_unique_and_in_bounds(
        points in prop::collection::vec(
            (-2.0f64..12.0, -2.0f64..12.0, -2.0f64..12.0),
            0..100
        ),
    ) {
        let dims = Dim3::new(8, 8, 8);
        let path: Vec<Vec3> = points.iter().map(|&(x, y, z)| Vec3::new(x, y, z)).collect();
        let voxels = ConnectivityAccumulator::voxels_of_path(dims, &path);
        for w in voxels.windows(2) {
            prop_assert!(w[0] < w[1], "not strictly sorted: {voxels:?}");
        }
        for &v in &voxels {
            prop_assert!((v as usize) < dims.len());
        }
    }

    #[test]
    fn connectivity_probability_bounded(
        paths in prop::collection::vec(
            prop::collection::vec((0.0f64..7.0, 0.0f64..7.0, 0.0f64..7.0), 1..20),
            1..30
        ),
    ) {
        let dims = Dim3::new(8, 8, 8);
        let mut acc = ConnectivityAccumulator::new(dims);
        for p in &paths {
            let pts: Vec<Vec3> = p.iter().map(|&(x, y, z)| Vec3::new(x, y, z)).collect();
            acc.add_path(&pts);
        }
        prop_assert_eq!(acc.total_streamlines(), paths.len() as u64);
        for c in dims.iter() {
            let p = acc.probability(c);
            prop_assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn rectangle_model_waste_nonnegative_and_complete(
        loads in prop::collection::vec(1u32..200, 1..100),
        s in strategy_strategy(),
    ) {
        use tracto_stats::loadbalance::rectangle_model;
        let max = *loads.iter().max().unwrap();
        let m = rectangle_model(&loads, &s.budgets(max));
        prop_assert!(m.charged >= m.useful);
        // Every lane's full load is covered by the budgets.
        prop_assert_eq!(m.useful, loads.iter().map(|&l| l as u64).sum::<u64>());
    }
}
