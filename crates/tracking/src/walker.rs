//! One streamline walker: stepping and termination.

use crate::connectivity::{voxel_index, ConnectivityAccumulator};
use crate::field::{select_direction, select_stick, InterpMode, OrientationField};
use crate::getter::DirectionGetter;
use crate::stop::StopStack;
use tracto_rng::HybridTaus;
use tracto_volume::{Dim3, Ijk, Mask, Vec3};

/// Tracking configuration.
///
/// Step length and the angular threshold are the paper's swept parameters
/// (Table II: step 0.1–0.3 voxels, threshold 0.8–0.9 measured as "the dot
/// product of the two regular directions").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrackingParams {
    /// Step length in voxel units.
    pub step_length: f64,
    /// Minimum dot product between successive step directions; below it the
    /// streamline stops ("maximum angle formed by two subsequent fiber
    /// segments").
    pub angular_threshold: f64,
    /// Maximum number of steps ("to avoid dead loops").
    pub max_steps: u32,
    /// Sticks with fraction below this are invisible to the walker. The
    /// paper notes the anisotropy floor "is not a must" for probabilistic
    /// tracking; a small floor keeps walkers out of pure-ball voxels.
    pub min_fraction: f64,
    /// Orientation interpolation mode.
    pub interp: InterpMode,
}

impl TrackingParams {
    /// The paper's first Table II row: step 0.1, threshold 0.9.
    pub fn paper_default() -> Self {
        TrackingParams {
            step_length: 0.1,
            angular_threshold: 0.9,
            max_steps: 2000,
            min_fraction: 0.05,
            interp: InterpMode::Nearest,
        }
    }
}

/// Why a streamline terminated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// Hit the step cap.
    MaxSteps,
    /// Turned sharper than the angular threshold.
    Curvature,
    /// Left the volume.
    OutOfBounds,
    /// Left the tracking mask.
    OutOfMask,
    /// No eligible fiber population at the current position.
    NoDirection,
    /// Still running (not yet terminated).
    Running,
}

/// What a walker records as it steps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Recording {
    /// Nothing: only the step count (lengths-only runs).
    Off,
    /// The voxels it visits, in [`Walker::visits`] (connectivity counts).
    Visits,
    /// The visits plus every point, in [`Walker::path`] (fiber export).
    Points,
}

/// Starting capacity of a recording walker's visit list: most streamlines
/// of a few hundred steps cross fewer voxels, so the list rarely grows.
const VISIT_CAPACITY: usize = 16;

/// A streamline walker: the per-lane state of the tracking kernel
/// (Algorithm 1's `GetStartPoint` → iterate `Interpolation`;
/// `StepToNextPoint`; stop-check → `SetEndPoint`).
#[derive(Debug, Clone)]
pub struct Walker {
    /// Current position (continuous voxel coordinates). [`step`](Self::step)
    /// keeps the voxel it rounds to once it has stepped, so moving it by
    /// hand needs a fresh walker.
    pub pos: Vec3,
    /// Direction of the last step (unit).
    pub dir: Vec3,
    /// Steps taken so far.
    pub steps: u32,
    /// Termination state.
    pub stop: StopReason,
    /// Index of the seed this walker serves (survives compaction).
    pub seed_id: u32,
    /// What this walker records, fixed when it starts.
    pub recording: Recording,
    /// Linear indices of the voxels visited, start point included, with a
    /// voxel pushed only when it differs from the last one pushed (points
    /// outside the grid are skipped). Empty unless recording; a live
    /// walker whose start rounds outside the grid starts it empty too.
    pub visits: Vec<u32>,
    /// Trajectory points, start point included (only under
    /// [`Recording::Points`]).
    pub path: Vec<Vec3>,
    /// The voxel `pos` rounds to, kept by [`step`](Self::step) once the
    /// walker has moved inside the grid; `None` at the start, where the
    /// position may sit up to half a voxel outside the grid and the
    /// lookup takes the clamped nearest voxel instead.
    voxel: Option<Ijk>,
}

impl Walker {
    /// Start a walker at `pos` heading along `dir`, recording nothing.
    pub fn new(seed_id: u32, pos: Vec3, dir: Vec3) -> Self {
        Walker {
            pos,
            dir: dir.normalized(),
            steps: 0,
            stop: StopReason::Running,
            seed_id,
            recording: Recording::Off,
            visits: Vec::new(),
            path: Vec::new(),
            voxel: None,
        }
    }

    /// Start a walker that records what `recording` asks for over a grid
    /// of `dims`, beginning with the start point.
    pub fn new_recording(
        seed_id: u32,
        pos: Vec3,
        dir: Vec3,
        recording: Recording,
        dims: Dim3,
    ) -> Self {
        let mut w = Self::new(seed_id, pos, dir);
        w.recording = recording;
        if recording != Recording::Off {
            w.visits.reserve_exact(VISIT_CAPACITY);
        }
        w.record(voxel_index(dims, pos), pos);
        w
    }

    /// Start a kernel lane's walker from its seed's initial direction
    /// (`None` when the seed has no eligible population). Such a seed is
    /// dead on arrival: stopped before its first step and recording
    /// nothing, so it counts as an empty streamline, as on the CPU
    /// reference.
    pub fn start(
        seed_id: u32,
        pos: Vec3,
        dir: Option<Vec3>,
        recording: Recording,
        dims: Dim3,
    ) -> Self {
        match dir.filter(|&d| d != Vec3::ZERO) {
            None => Walker {
                stop: StopReason::NoDirection,
                ..Self::new(seed_id, pos, Vec3::ZERO)
            },
            Some(d) => Self::new_recording(seed_id, pos, d, recording, dims),
        }
    }

    /// Record a point the walker has reached, with the linear index of its
    /// voxel (`None` outside the grid).
    #[inline]
    fn record(&mut self, voxel: Option<u32>, p: Vec3) {
        if self.recording == Recording::Off {
            return;
        }
        if let Some(v) = voxel {
            if self.visits.last() != Some(&v) {
                self.visits.push(v);
            }
        }
        if self.recording == Recording::Points {
            self.path.push(p);
        }
    }

    /// Count this walker's streamline into `acc`: its visits, sorted and
    /// deduplicated in place, or an empty streamline when it recorded
    /// nothing (a dead-on-arrival seed). Called once, at retirement.
    pub fn count_into(&mut self, acc: &mut ConnectivityAccumulator) {
        if self.recording == Recording::Off {
            acc.add_empty();
        } else {
            self.visits.sort_unstable();
            self.visits.dedup();
            acc.add_visited(&self.visits);
        }
    }

    /// Whether the walker is still tracking.
    #[inline]
    pub fn alive(&self) -> bool {
        self.stop == StopReason::Running
    }

    /// Advance one step through a pluggable [`DirectionGetter`] under a
    /// composable [`StopStack`] — the modality-layer stepping path the
    /// serial trackers drive (the kernels run the fused [`step`](Self::step)).
    ///
    /// The check order is exactly the fused step's: budget,
    /// direction, turn, position (bounds then masks), advance, budget
    /// again — so `step_with` over a
    /// [`PosteriorSampleGetter`](crate::getter::PosteriorSampleGetter)
    /// and [`StopStack::standard`] is bit-identical to the fused fast
    /// path. Deterministic getters never draw from `rng`. Generic so a
    /// caller over a concrete getter is monomorphized; `&dyn
    /// DirectionGetter` works too.
    pub fn step_with<G: DirectionGetter + ?Sized>(
        &mut self,
        getter: &G,
        step_length: f64,
        stop: &StopStack<'_>,
        rng: &mut HybridTaus,
    ) -> StopReason {
        if !self.alive() {
            return self.stop;
        }
        if let Some(r) = stop.check_budget(self.steps) {
            self.stop = r;
            return self.stop;
        }
        // Interpolation(): evaluate the local direction.
        let Some(new_dir) = getter.next_direction(self.pos, self.dir, rng) else {
            self.stop = StopReason::NoDirection;
            return self.stop;
        };
        if let Some(r) = stop.check_turn(self.dir, new_dir) {
            self.stop = r;
            return self.stop;
        }
        // StepToNextPoint().
        let next = self.pos + new_dir * step_length;
        if let Some(r) = stop.check_position(getter.dims(), next) {
            self.stop = r;
            return self.stop;
        }
        self.pos = next;
        self.dir = new_dir;
        self.steps += 1;
        // This path rounds positions where it reads them; a later `step`
        // rounds the new position afresh.
        self.voxel = None;
        self.record(voxel_index(getter.dims(), next), next);
        if let Some(r) = stop.check_budget(self.steps) {
            self.stop = r;
        }
        self.stop
    }

    /// Advance one step through `field`. Returns the walker's stop state
    /// after the step ([`StopReason::Running`] if it may continue).
    ///
    /// One call is exactly one iteration of the GPU kernel's inner loop.
    /// This is the fused fast path for the standard criteria, which both
    /// tracking kernels run: on serve's `warm_tracking` recipe it measured
    /// ~14 % fewer ns per step than [`step_with`](Self::step_with) over a
    /// monomorphized getter and the standard stack (EXPERIMENTS.md, "Step 2
    /// on the host"). It rounds each new position once, for the mask, the
    /// visit record and the next step's nearest-voxel lookup: inside the
    /// grid rounding equals the clamped nearest voxel, so it stays
    /// bit-identical to `step_with` over the standard stack.
    pub fn step<Fld: OrientationField + ?Sized>(
        &mut self,
        field: &Fld,
        params: &TrackingParams,
        mask: Option<&Mask>,
    ) -> StopReason {
        if !self.alive() {
            return self.stop;
        }
        if self.steps >= params.max_steps {
            self.stop = StopReason::MaxSteps;
            return self.stop;
        }
        // Interpolation(): evaluate the local direction.
        let new_dir = match (params.interp, self.voxel) {
            (InterpMode::Nearest, Some(c)) => select_stick(field, c, self.dir, params.min_fraction),
            (interp, _) => select_direction(field, self.pos, self.dir, interp, params.min_fraction),
        };
        let Some(new_dir) = new_dir else {
            self.stop = StopReason::NoDirection;
            return self.stop;
        };
        // Curvature criterion on successive directions.
        if new_dir.dot(self.dir) < params.angular_threshold {
            self.stop = StopReason::Curvature;
            return self.stop;
        }
        // StepToNextPoint().
        let next = self.pos + new_dir * params.step_length;
        let dims = field.dims();
        if !dims.contains_point(next.x, next.y, next.z) {
            self.stop = StopReason::OutOfBounds;
            return self.stop;
        }
        let c = Ijk::new(
            next.x.round() as usize,
            next.y.round() as usize,
            next.z.round() as usize,
        );
        if mask.is_some_and(|m| !m.contains(c)) {
            self.stop = StopReason::OutOfMask;
            return self.stop;
        }
        self.pos = next;
        self.dir = new_dir;
        self.steps += 1;
        self.voxel = Some(c);
        self.record(Some(dims.index(c) as u32), next);
        if self.steps >= params.max_steps {
            self.stop = StopReason::MaxSteps;
        }
        self.stop
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::FnField;
    use tracto_volume::Dim3;

    fn x_field(dims: Dim3) -> FnField<impl Fn(Ijk) -> [(Vec3, f64); 2] + Sync> {
        FnField::new(dims, |_| [(Vec3::X, 0.6), (Vec3::ZERO, 0.0)])
    }

    fn params() -> TrackingParams {
        TrackingParams {
            step_length: 0.5,
            angular_threshold: 0.8,
            max_steps: 100,
            min_fraction: 0.05,
            interp: InterpMode::Nearest,
        }
    }

    #[test]
    fn walks_straight_until_boundary() {
        let dims = Dim3::new(8, 4, 4);
        let f = x_field(dims);
        let mut w = Walker::new(0, Vec3::new(0.0, 2.0, 2.0), Vec3::X);
        while w.alive() {
            w.step(&f, &params(), None);
        }
        assert_eq!(w.stop, StopReason::OutOfBounds);
        // 14 steps of 0.5 reach x=7.0; the 15th would leave.
        assert_eq!(w.steps, 14);
        assert!((w.pos.x - 7.0).abs() < 1e-9);
    }

    #[test]
    fn max_steps_terminates() {
        let dims = Dim3::new(8, 4, 4);
        let f = x_field(dims);
        let mut p = params();
        p.max_steps = 5;
        let mut w = Walker::new(0, Vec3::new(0.0, 2.0, 2.0), Vec3::X);
        while w.alive() {
            w.step(&f, &p, None);
        }
        assert_eq!(w.stop, StopReason::MaxSteps);
        assert_eq!(w.steps, 5);
    }

    #[test]
    fn curvature_stops_sharp_turn() {
        // Field flips from +x to +y halfway: dot = 0 < 0.8 threshold.
        let dims = Dim3::new(8, 8, 4);
        let f = FnField::new(dims, |c: Ijk| {
            let d = if c.i < 4 { Vec3::X } else { Vec3::Y };
            [(d, 0.6), (Vec3::ZERO, 0.0)]
        });
        let mut w = Walker::new(0, Vec3::new(0.0, 2.0, 2.0), Vec3::X);
        while w.alive() {
            w.step(&f, &params(), None);
        }
        assert_eq!(w.stop, StopReason::Curvature);
        assert!(w.pos.x < 4.5, "stopped near the flip plane at {:?}", w.pos);
    }

    #[test]
    fn no_direction_in_empty_region() {
        let dims = Dim3::new(8, 4, 4);
        let f = FnField::new(dims, |c: Ijk| {
            if c.i < 4 {
                [(Vec3::X, 0.6), (Vec3::ZERO, 0.0)]
            } else {
                [(Vec3::ZERO, 0.0), (Vec3::ZERO, 0.0)]
            }
        });
        let mut w = Walker::new(0, Vec3::new(0.0, 2.0, 2.0), Vec3::X);
        while w.alive() {
            w.step(&f, &params(), None);
        }
        assert_eq!(w.stop, StopReason::NoDirection);
    }

    #[test]
    fn mask_exit_detected() {
        let dims = Dim3::new(8, 4, 4);
        let f = x_field(dims);
        let mask = Mask::from_fn(dims, |c| c.i < 4);
        let mut w = Walker::new(0, Vec3::new(0.0, 2.0, 2.0), Vec3::X);
        while w.alive() {
            w.step(&f, &params(), Some(&mask));
        }
        assert_eq!(w.stop, StopReason::OutOfMask);
        assert!(w.pos.x <= 3.5);
    }

    #[test]
    fn recording_collects_path() {
        let dims = Dim3::new(8, 4, 4);
        let f = x_field(dims);
        let start = Vec3::new(0.0, 2.0, 2.0);
        let mut w = Walker::new_recording(3, start, Vec3::X, Recording::Points, dims);
        while w.alive() {
            w.step(&f, &params(), None);
        }
        assert_eq!(w.path.len() as u32, w.steps + 1);
        assert_eq!(w.seed_id, 3);
        assert_eq!(w.path[0], start);
        // 0.5-voxel steps along x from x = 0: voxel 0, then a new voxel
        // every other step (x = 0.5 rounds up), each pushed once.
        let expected: Vec<u32> = (0..8)
            .map(|i| dims.index(Ijk::new(i, 2, 2)) as u32)
            .collect();
        assert_eq!(w.visits, expected);
    }

    #[test]
    fn visits_only_walker_keeps_no_points() {
        let dims = Dim3::new(8, 4, 4);
        let f = x_field(dims);
        let mut w = Walker::new_recording(
            0,
            Vec3::new(0.0, 2.0, 2.0),
            Vec3::X,
            Recording::Visits,
            dims,
        );
        while w.alive() {
            w.step(&f, &params(), None);
        }
        assert!(w.path.is_empty());
        assert_eq!(w.visits.len(), 8);
    }

    #[test]
    fn start_outside_the_grid_records_later_visits_only() {
        // x = -0.6 rounds to voxel -1: the list starts empty, yet the
        // walker is live and records the voxels it steps into.
        let dims = Dim3::new(4, 4, 4);
        let f = x_field(dims);
        let mut p = params();
        p.step_length = 0.7;
        let pos = Vec3::new(-0.6, 2.0, 2.0);
        let mut w = Walker::start(0, pos, Some(Vec3::X), Recording::Visits, dims);
        assert!(w.alive() && w.visits.is_empty());
        while w.alive() {
            w.step(&f, &p, None);
        }
        assert_eq!(w.steps, 5);
        let mut acc = ConnectivityAccumulator::new(dims);
        w.count_into(&mut acc);
        assert_eq!(acc.total_streamlines(), 1);
        assert!((0..4).all(|i| acc.count(Ijk::new(i, 2, 2)) == 1));
        // A dead-on-arrival seed records nothing and counts as empty.
        let mut dead = Walker::start(1, Vec3::new(1.0, 2.0, 2.0), None, Recording::Visits, dims);
        assert!(!dead.alive() && dead.visits.is_empty());
        dead.count_into(&mut acc);
        assert_eq!(acc.total_streamlines(), 2);
        assert_eq!(acc.count(Ijk::new(1, 2, 2)), 1);
    }

    #[test]
    fn step_after_stop_is_noop() {
        let dims = Dim3::new(4, 4, 4);
        let f = x_field(dims);
        let mut p = params();
        p.max_steps = 1;
        let mut w = Walker::new(0, Vec3::new(0.0, 2.0, 2.0), Vec3::X);
        w.step(&f, &p, None);
        w.step(&f, &p, None);
        let steps = w.steps;
        let pos = w.pos;
        w.step(&f, &p, None);
        assert_eq!(w.steps, steps);
        assert_eq!(w.pos, pos);
    }

    #[test]
    fn step_with_standard_stack_is_bit_identical_to_step() {
        use crate::field::nearest_voxel;
        use crate::getter::{lane_rng, PosteriorSampleGetter};
        use crate::stop::StopStack;
        // A spiral into the grid's centre line that also pulls toward the
        // middle plane, plus a weaker second stick that differs per voxel:
        // a walker that reads a wrong voxel leaves the reference path. The
        // mask exercises OutOfMask.
        let dims = Dim3::new(16, 16, 6);
        let f = FnField::new(dims, |c: Ijk| {
            let (x, y, z) = (c.i as f64 - 7.5, c.j as f64 - 7.5, 2.5 - c.k as f64);
            let spiral = Vec3::new(-2.0 * x - 0.5 * y, 0.5 * x - 2.0 * y, 4.0 * z).normalized();
            let other = Vec3::new(1.0, 0.1 * c.i as f64, 0.1 * c.k as f64).normalized();
            [(spiral, 0.6), (other, 0.3)]
        });
        let mask = Mask::from_fn(dims, |c| c.i + c.j < 24);
        // (start, heading, least step length that enters the grid):
        // interior starts, then each axis's edges, heading inward. A
        // jittered seed sits up to half a voxel outside the grid, and its
        // first lookup takes the clamped edge voxel; -0.5 and n - 0.5
        // themselves round outside, so only a long step gets in from there.
        let mut starts = vec![
            (Vec3::new(10.0, 1.0, 2.0), Vec3::Y, 0.0),
            (Vec3::new(3.0, 0.5, 2.0), Vec3::Y, 0.0),
            (Vec3::new(14.9, 2.0, 2.0), Vec3::Y, 0.0),
        ];
        let axes = [Vec3::X, Vec3::Y, Vec3::Z];
        for (axis, n) in [dims.nx, dims.ny, dims.nz].into_iter().enumerate() {
            let top = n as f64 - 1.0;
            for (at, inward, enters_at) in [
                (-0.5, 1.0, 0.9),
                (-0.2, 1.0, 0.5),
                (top + 0.2, -1.0, 0.5),
                (top + 0.5, -1.0, 0.9),
            ] {
                let mut p = [4.2, 11.6, 2.4];
                p[axis] = at;
                starts.push((Vec3::new(p[0], p[1], p[2]), axes[axis] * inward, enters_at));
            }
        }
        for interp in [InterpMode::Nearest, InterpMode::Trilinear] {
            for step_length in [0.5, 0.9] {
                let p = TrackingParams {
                    interp,
                    step_length,
                    ..params()
                };
                let getter = PosteriorSampleGetter::new(&f, p.interp, p.min_fraction);
                for mask in [None, Some(&mask)] {
                    let stack = StopStack::standard(&p, mask);
                    for &(pos, heading, enters_at) in &starts {
                        let what = format!("{interp:?}, step {step_length}, start {pos:?}");
                        let dir = f.sticks(nearest_voxel(dims, pos))[0]
                            .0
                            .aligned_with(heading);
                        let start = || Walker::new_recording(0, pos, dir, Recording::Points, dims);
                        let mut rng = lane_rng(0, 0, 0);
                        let mut reference = start();
                        while reference.alive() {
                            reference.step_with(&getter, p.step_length, &stack, &mut rng);
                        }
                        let mut fused = start();
                        while fused.alive() {
                            fused.step(&f, &p, mask);
                        }
                        // Two fused steps, then one through the stack,
                        // which must not leave the fused path a stale voxel.
                        let mut mixed = start();
                        while mixed.alive() {
                            if mixed.steps % 3 == 2 {
                                mixed.step_with(&getter, p.step_length, &stack, &mut rng);
                            } else {
                                mixed.step(&f, &p, mask);
                            }
                        }
                        for w in [&fused, &mixed] {
                            assert_eq!(w.stop, reference.stop, "{what}");
                            assert_eq!(w.steps, reference.steps, "{what}");
                            assert_eq!(w.pos, reference.pos, "{what}");
                            assert_eq!(w.path, reference.path, "{what}");
                            assert_eq!(w.visits, reference.visits, "{what}");
                        }
                        if mask.is_none() && step_length >= enters_at {
                            assert!(reference.steps > 1, "{what}: did not step in");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn walker_follows_sign_flips_in_axis_field() {
        // Stored directions alternate sign per voxel; the walker must still
        // travel in a consistent direction.
        let dims = Dim3::new(16, 4, 4);
        let f = FnField::new(dims, |c: Ijk| {
            let d = if c.i % 2 == 0 { Vec3::X } else { -Vec3::X };
            [(d, 0.6), (Vec3::ZERO, 0.0)]
        });
        let mut w = Walker::new(0, Vec3::new(0.0, 2.0, 2.0), Vec3::X);
        while w.alive() {
            w.step(&f, &params(), None);
        }
        assert_eq!(w.stop, StopReason::OutOfBounds);
        assert!(w.pos.x > 14.0, "walker should traverse the whole field");
    }
}
