//! The CPU reference implementation of probabilistic streamlining — the
//! baseline whose time is the "CPU time" column of Table II, and the serial
//! oracle the simulated-GPU tracker is checked against.

use crate::connectivity::ConnectivityAccumulator;
use crate::deterministic::{track_bidirectional, track_streamline, Streamline};
use crate::field::{dominant_direction, OrientationField, SampleFieldView};
use crate::walker::{Recording, StopReason, TrackingParams};
use tracto_mcmc::SampleVolumes;
use tracto_rng::{HybridTaus, RandomSource};
use tracto_volume::{Ijk, Mask, Vec3};

/// What to collect while tracking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordMode {
    /// Only per-thread fiber lengths (the Tables II/IV workload).
    LengthsOnly,
    /// Lengths plus the per-voxel connectivity accumulator.
    Connectivity,
    /// Lengths, connectivity, and full polylines for streamlines of at
    /// least `min_steps` steps (the Figs. 11/12 "fibers whose length > 100"
    /// renders).
    Streamlines {
        /// Minimum steps for a streamline to be retained.
        min_steps: u32,
    },
}

impl RecordMode {
    /// What a kernel lane's walker records in this mode.
    pub fn recording(self) -> Recording {
        match self {
            RecordMode::LengthsOnly => Recording::Off,
            RecordMode::Connectivity => Recording::Visits,
            RecordMode::Streamlines { .. } => Recording::Points,
        }
    }
}

/// Seed positions at the centers of a mask's voxels.
pub fn seeds_from_mask(mask: &Mask) -> Vec<Vec3> {
    mask.coords()
        .into_iter()
        .map(|c| Vec3::new(c.i as f64, c.j as f64, c.k as f64))
        .collect()
}

/// Deterministic per-(run, sample, seed) sub-voxel jitter in
/// `[-amp/2, amp/2]³`. Jitter decorrelates fiber lengths across samples —
/// the effect that defeats the load-sorting strategy in the paper's Fig. 4.
pub fn jittered_seed(pos: Vec3, run_seed: u64, sample: usize, seed_idx: usize, amp: f64) -> Vec3 {
    if amp == 0.0 {
        return pos;
    }
    let stream = ((sample as u64) << 40) ^ seed_idx as u64;
    let mut rng = HybridTaus::seed_stream(run_seed ^ 0x7261636B, stream);
    Vec3::new(
        pos.x + (rng.next_f64() - 0.5) * amp,
        pos.y + (rng.next_f64() - 0.5) * amp,
        pos.z + (rng.next_f64() - 0.5) * amp,
    )
}

/// The initial tracking direction at a (possibly jittered) seed: the
/// dominant stick of the nearest voxel.
pub fn initial_direction<Fld: OrientationField + ?Sized>(
    field: &Fld,
    pos: Vec3,
    min_fraction: f64,
) -> Option<Vec3> {
    let dims = field.dims();
    let c = Ijk::new(
        (pos.x.round().clamp(0.0, (dims.nx - 1) as f64)) as usize,
        (pos.y.round().clamp(0.0, (dims.ny - 1) as f64)) as usize,
        (pos.z.round().clamp(0.0, (dims.nz - 1) as f64)) as usize,
    );
    dominant_direction(field, c, min_fraction)
}

/// Output of a probabilistic streamlining run.
#[derive(Debug, Clone)]
pub struct TrackingOutput {
    /// `lengths_by_sample[s][i]`: steps of seed `i`'s streamline in sample
    /// `s` — the per-thread loads of Figs. 4–6.
    pub lengths_by_sample: Vec<Vec<u32>>,
    /// Total steps over all streamlines (the "Total fiber length" column of
    /// Table II).
    pub total_steps: u64,
    /// Per-voxel visit counts (when requested).
    pub connectivity: Option<ConnectivityAccumulator>,
    /// Retained streamline polylines (when requested).
    pub streamlines: Vec<Streamline>,
}

impl TrackingOutput {
    /// All lengths flattened across samples.
    pub fn all_lengths(&self) -> Vec<u32> {
        self.lengths_by_sample.iter().flatten().copied().collect()
    }

    /// The longest fiber (steps) — Table II's "Longest fiber length".
    pub fn longest(&self) -> u32 {
        self.lengths_by_sample
            .iter()
            .flatten()
            .copied()
            .max()
            .unwrap_or(0)
    }
}

/// CPU probabilistic streamlining over a stack of posterior sample volumes.
#[derive(Clone)]
pub struct CpuTracker<'a> {
    /// The sample stack from Step 1.
    pub samples: &'a SampleVolumes,
    /// Tracking parameters.
    pub params: TrackingParams,
    /// Seed positions (continuous voxel coordinates).
    pub seeds: Vec<Vec3>,
    /// Optional tracking mask (streamlines stop on exit).
    pub mask: Option<&'a Mask>,
    /// Sub-voxel seed jitter amplitude (voxels); 0 disables.
    pub jitter: f64,
    /// Run seed for jitter determinism.
    pub run_seed: u64,
    /// Track both ways from each seed.
    pub bidirectional: bool,
}

impl<'a> CpuTracker<'a> {
    /// Track seed `seed_idx` through sample `sample`. Always returns a
    /// streamline; seeds without an eligible direction yield zero steps.
    pub fn track_one(&self, sample: usize, seed_idx: usize, record: bool) -> Streamline {
        let field = SampleFieldView::new(self.samples, sample);
        let pos = jittered_seed(
            self.seeds[seed_idx],
            self.run_seed,
            sample,
            seed_idx,
            self.jitter,
        );
        if self.bidirectional {
            if let Some(s) = track_bidirectional(
                &field,
                seed_idx as u32,
                pos,
                &self.params,
                self.mask,
                record,
            ) {
                return s;
            }
        } else if let Some(dir) = initial_direction(&field, pos, self.params.min_fraction) {
            return track_streamline(
                &field,
                seed_idx as u32,
                pos,
                dir,
                &self.params,
                self.mask,
                record,
            );
        }
        Streamline {
            seed_id: seed_idx as u32,
            points: Vec::new(),
            steps: 0,
            stop: StopReason::NoDirection,
        }
    }

    /// Run serially — the Table II "CPU time" baseline and the reference
    /// output of every CPU ≡ GPU check. Samples run in order and seeds in
    /// order within a sample, so retained streamlines come out sorted by
    /// (sample, seed).
    pub fn run_serial(&self, mode: RecordMode) -> TrackingOutput {
        let record = !matches!(mode, RecordMode::LengthsOnly);
        let mut connectivity = record.then(|| ConnectivityAccumulator::new(self.samples.dims()));
        let mut streamlines = Vec::new();
        let mut total_steps = 0u64;
        let mut lengths_by_sample = Vec::with_capacity(self.samples.num_samples());
        for sample in 0..self.samples.num_samples() {
            let mut lengths = Vec::with_capacity(self.seeds.len());
            for seed_idx in 0..self.seeds.len() {
                let s = self.track_one(sample, seed_idx, record);
                lengths.push(s.steps);
                total_steps += s.steps as u64;
                if let Some(acc) = connectivity.as_mut() {
                    if s.points.is_empty() {
                        acc.add_empty();
                    } else {
                        acc.add_path(&s.points);
                    }
                }
                if let RecordMode::Streamlines { min_steps } = mode {
                    if s.steps >= min_steps {
                        streamlines.push(s);
                    }
                }
            }
            lengths_by_sample.push(lengths);
        }
        TrackingOutput {
            lengths_by_sample,
            total_steps,
            connectivity,
            streamlines,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::InterpMode;
    use tracto_volume::Dim3;

    /// Sample volumes whose every sample is a clean x-aligned field.
    fn x_samples(dims: Dim3, n: usize) -> SampleVolumes {
        let mut sv = SampleVolumes::zeros(dims, n);
        for c in dims.iter() {
            for s in 0..n {
                sv.f1.set(c, s, 0.6);
                sv.th1.set(c, s, std::f64::consts::FRAC_PI_2 as f32);
                sv.ph1.set(c, s, 0.0);
            }
        }
        sv
    }

    fn params() -> TrackingParams {
        TrackingParams {
            step_length: 0.5,
            angular_threshold: 0.8,
            max_steps: 500,
            min_fraction: 0.05,
            interp: InterpMode::Nearest,
        }
    }

    #[test]
    fn lengths_shape_matches_samples_and_seeds() {
        let dims = Dim3::new(8, 4, 4);
        let sv = x_samples(dims, 3);
        let tracker = CpuTracker {
            samples: &sv,
            params: params(),
            seeds: vec![Vec3::new(0.0, 2.0, 2.0), Vec3::new(4.0, 2.0, 2.0)],
            mask: None,
            jitter: 0.0,
            run_seed: 1,
            bidirectional: false,
        };
        let out = tracker.run_serial(RecordMode::LengthsOnly);
        assert_eq!(out.lengths_by_sample.len(), 3);
        assert_eq!(out.lengths_by_sample[0].len(), 2);
        assert!(out.total_steps > 0);
        assert_eq!(out.all_lengths().len(), 6);
    }

    #[test]
    fn jitter_decorrelates_lengths_across_samples() {
        let dims = Dim3::new(16, 6, 6);
        let sv = x_samples(dims, 2);
        let tracker = CpuTracker {
            samples: &sv,
            params: params(),
            seeds: vec![Vec3::new(8.0, 3.0, 3.0); 8],
            mask: None,
            jitter: 0.9,
            run_seed: 3,
            bidirectional: false,
        };
        let out = tracker.run_serial(RecordMode::LengthsOnly);
        // Same nominal seed, different jitter per (sample, idx) → spread of
        // lengths.
        let s0 = &out.lengths_by_sample[0];
        assert!(
            s0.iter().any(|&l| l != s0[0]),
            "jitter had no effect: {s0:?}"
        );
    }

    #[test]
    fn zero_direction_seed_counts_as_empty() {
        let dims = Dim3::new(4, 4, 4);
        let sv = SampleVolumes::zeros(dims, 1); // no sticks anywhere
        let tracker = CpuTracker {
            samples: &sv,
            params: params(),
            seeds: vec![Vec3::new(2.0, 2.0, 2.0)],
            mask: None,
            jitter: 0.0,
            run_seed: 1,
            bidirectional: false,
        };
        let out = tracker.run_serial(RecordMode::Connectivity);
        assert_eq!(out.lengths_by_sample[0][0], 0);
        assert_eq!(out.connectivity.unwrap().total_streamlines(), 1);
    }

    #[test]
    fn streamline_mode_filters_by_min_steps() {
        let dims = Dim3::new(16, 4, 4);
        let sv = x_samples(dims, 1);
        let tracker = CpuTracker {
            samples: &sv,
            params: params(),
            // One seed at the left edge (long run) and one near the right
            // edge (short run).
            seeds: vec![Vec3::new(0.0, 2.0, 2.0), Vec3::new(14.0, 2.0, 2.0)],
            mask: None,
            jitter: 0.0,
            run_seed: 1,
            bidirectional: false,
        };
        let out = tracker.run_serial(RecordMode::Streamlines { min_steps: 10 });
        assert_eq!(out.streamlines.len(), 1);
        assert!(out.streamlines[0].steps >= 10);
        assert!(!out.streamlines[0].points.is_empty());
    }

    #[test]
    fn connectivity_accumulates_over_samples() {
        let dims = Dim3::new(8, 4, 4);
        let sv = x_samples(dims, 5);
        let tracker = CpuTracker {
            samples: &sv,
            params: params(),
            seeds: vec![Vec3::new(0.0, 2.0, 2.0)],
            mask: None,
            jitter: 0.0,
            run_seed: 1,
            bidirectional: false,
        };
        let out = tracker.run_serial(RecordMode::Connectivity);
        let acc = out.connectivity.unwrap();
        assert_eq!(acc.total_streamlines(), 5);
        // All 5 clean-field streamlines pass through the downstream voxel.
        assert_eq!(acc.probability(Ijk::new(6, 2, 2)), 1.0);
    }

    #[test]
    fn bidirectional_extends_lengths() {
        let dims = Dim3::new(16, 4, 4);
        let sv = x_samples(dims, 1);
        let mid_seed = vec![Vec3::new(8.0, 2.0, 2.0)];
        let make = |bidir| CpuTracker {
            samples: &sv,
            params: params(),
            seeds: mid_seed.clone(),
            mask: None,
            jitter: 0.0,
            run_seed: 1,
            bidirectional: bidir,
        };
        let uni = make(false).run_serial(RecordMode::LengthsOnly);
        let bi = make(true).run_serial(RecordMode::LengthsOnly);
        assert!(bi.lengths_by_sample[0][0] > uni.lengths_by_sample[0][0]);
    }

    #[test]
    fn seeds_from_mask_centers() {
        let dims = Dim3::new(3, 2, 1);
        let m = Mask::from_fn(dims, |c| c.i == 1);
        let seeds = seeds_from_mask(&m);
        assert_eq!(seeds.len(), 2);
        assert_eq!(seeds[0], Vec3::new(1.0, 0.0, 0.0));
    }

    #[test]
    fn jitter_deterministic_and_bounded() {
        let p = Vec3::new(4.0, 4.0, 4.0);
        let a = jittered_seed(p, 9, 3, 17, 0.8);
        let b = jittered_seed(p, 9, 3, 17, 0.8);
        assert_eq!(a, b);
        assert!((a - p).norm() < 0.8);
        let c = jittered_seed(p, 9, 4, 17, 0.8);
        assert_ne!(a, c, "different sample → different jitter");
        assert_eq!(jittered_seed(p, 9, 3, 17, 0.0), p);
    }
}
