//! Visit counting and connectivity estimation.
//!
//! "Having obtained the probabilistic streamlines from the seed point A
//! with all the samples, we may then get the connectivity P(∃A→B|Y) by
//! simply counting the number of streamlines passing through B, and
//! dividing it by the total number of the streamlines."

use tracto_volume::{Dim3, Ijk, Mask, Vec3, Volume3};

/// The linear index of the voxel a point rounds to, or `None` when that
/// voxel lies outside the grid. A point is in the voxel whose center is
/// nearest (`round` per axis), so `-0.5 < x < 0` is still voxel 0.
#[inline]
pub fn voxel_index(dims: Dim3, p: Vec3) -> Option<u32> {
    let (i, j, k) = (p.x.round(), p.y.round(), p.z.round());
    if i < 0.0 || j < 0.0 || k < 0.0 {
        return None;
    }
    let c = Ijk::new(i as usize, j as usize, k as usize);
    dims.contains(c).then(|| dims.index(c) as u32)
}

/// Accumulates per-voxel visit counts over many streamlines. A streamline
/// contributes at most 1 to each voxel it traverses.
#[derive(Debug, Clone)]
pub struct ConnectivityAccumulator {
    dims: Dim3,
    counts: Vec<u32>,
    total_streamlines: u64,
}

impl ConnectivityAccumulator {
    /// New empty accumulator over a grid.
    pub fn new(dims: Dim3) -> Self {
        ConnectivityAccumulator {
            dims,
            counts: vec![0; dims.len()],
            total_streamlines: 0,
        }
    }

    /// Grid dimensions.
    pub fn dims(&self) -> Dim3 {
        self.dims
    }

    /// Total streamlines accumulated (the connectivity denominator).
    pub fn total_streamlines(&self) -> u64 {
        self.total_streamlines
    }

    /// Map a trajectory to the sorted, deduplicated set of voxel linear
    /// indices it traverses.
    pub fn voxels_of_path(dims: Dim3, points: &[Vec3]) -> Vec<u32> {
        let mut out: Vec<u32> = Vec::with_capacity(points.len() / 4 + 1);
        for idx in points.iter().filter_map(|&p| voxel_index(dims, p)) {
            if out.last() != Some(&idx) {
                out.push(idx);
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Count one streamline given its trajectory points.
    pub fn add_path(&mut self, points: &[Vec3]) {
        let voxels = Self::voxels_of_path(self.dims, points);
        self.add_visited(&voxels);
    }

    /// Count one streamline given its already-deduplicated visited voxel
    /// indices.
    pub fn add_visited(&mut self, visited: &[u32]) {
        for &idx in visited {
            self.counts[idx as usize] += 1;
        }
        self.total_streamlines += 1;
    }

    /// Count a streamline that visited nothing (e.g. zero-length).
    pub fn add_empty(&mut self) {
        self.total_streamlines += 1;
    }

    /// Raw visit count of a voxel.
    pub fn count(&self, c: Ijk) -> u32 {
        self.counts[self.dims.index(c)]
    }

    /// Connection probability `P(∃ seed → c)`: visits / total streamlines.
    pub fn probability(&self, c: Ijk) -> f64 {
        if self.total_streamlines == 0 {
            return 0.0;
        }
        self.count(c) as f64 / self.total_streamlines as f64
    }

    /// The full probability volume.
    pub fn probability_volume(&self) -> Volume3<f32> {
        let total = self.total_streamlines.max(1) as f64;
        Volume3::from_fn(self.dims, |c| {
            (self.counts[self.dims.index(c)] as f64 / total) as f32
        })
    }

    /// Probability that a streamline reaches *any* voxel of `target` —
    /// used for region-to-region connectivity. Computed from counts as an
    /// upper bound refinement is not possible post-hoc, so this accumulates
    /// by the maximum voxel count in the region (a streamline crossing the
    /// region touches at least its best-visited voxel).
    pub fn region_probability_upper(&self, target: &Mask) -> f64 {
        if self.total_streamlines == 0 {
            return 0.0;
        }
        let best = target
            .indices()
            .into_iter()
            .map(|i| self.counts[i])
            .max()
            .unwrap_or(0);
        best as f64 / self.total_streamlines as f64
    }
}

/// A region-to-region connectivity matrix: entry `(i, j)` is the fraction of
/// streamlines seeded in region `i` that pass through region `j` — the
/// paper's `P` matrix restricted to regions of interest (the full
/// `NumVoxels × NumVoxels` matrix at paper scale is ~160 GB, which is why
/// the output stage aggregates).
#[derive(Debug, Clone)]
pub struct RegionConnectivity {
    n: usize,
    /// counts[i][j]: streamlines from region i that crossed region j.
    counts: Vec<Vec<u64>>,
    /// streamlines seeded per region.
    totals: Vec<u64>,
}

impl RegionConnectivity {
    /// New matrix over `n` regions.
    pub fn new(n: usize) -> Self {
        RegionConnectivity {
            n,
            counts: vec![vec![0; n]; n],
            totals: vec![0; n],
        }
    }

    /// Number of regions.
    pub fn num_regions(&self) -> usize {
        self.n
    }

    /// Record one streamline seeded in `seed_region` whose visited voxel
    /// indices are `visited`; `regions` are the target masks.
    pub fn add_streamline(&mut self, seed_region: usize, visited: &[u32], regions: &[Mask]) {
        assert_eq!(regions.len(), self.n);
        self.totals[seed_region] += 1;
        for (j, region) in regions.iter().enumerate() {
            let dims = region.dims();
            let hit = visited.iter().any(|&idx| {
                let c = dims.coords(idx as usize);
                region.contains(c)
            });
            if hit {
                self.counts[seed_region][j] += 1;
            }
        }
    }

    /// Connection probability from region `i` to region `j`.
    pub fn probability(&self, i: usize, j: usize) -> f64 {
        if self.totals[i] == 0 {
            return 0.0;
        }
        self.counts[i][j] as f64 / self.totals[i] as f64
    }

    /// Streamlines seeded in region `i`.
    pub fn seeded(&self, i: usize) -> u64 {
        self.totals[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_voxels_dedup() {
        let dims = Dim3::new(8, 4, 4);
        // Many sub-voxel steps through two voxels.
        let points: Vec<Vec3> = (0..20)
            .map(|i| Vec3::new(i as f64 * 0.1, 2.0, 2.0))
            .collect();
        let voxels = ConnectivityAccumulator::voxels_of_path(dims, &points);
        assert_eq!(voxels.len(), 3); // x rounds to 0, 1, 2
    }

    #[test]
    fn path_voxels_skip_out_of_bounds() {
        let dims = Dim3::new(2, 2, 2);
        let points = vec![
            Vec3::new(-3.0, 0.0, 0.0),
            Vec3::new(1.0, 1.0, 1.0),
            Vec3::new(9.0, 0.0, 0.0),
        ];
        let voxels = ConnectivityAccumulator::voxels_of_path(dims, &points);
        assert_eq!(voxels.len(), 1);
    }

    #[test]
    fn probability_counts_streamlines_once_per_voxel() {
        let dims = Dim3::new(4, 1, 1);
        let mut acc = ConnectivityAccumulator::new(dims);
        // Streamline oscillating within voxel 1 — still one visit.
        acc.add_path(&[
            Vec3::new(1.0, 0.0, 0.0),
            Vec3::new(1.2, 0.0, 0.0),
            Vec3::new(0.9, 0.0, 0.0),
        ]);
        acc.add_path(&[Vec3::new(1.0, 0.0, 0.0), Vec3::new(2.0, 0.0, 0.0)]);
        assert_eq!(acc.total_streamlines(), 2);
        assert_eq!(acc.count(Ijk::new(1, 0, 0)), 2);
        assert_eq!(acc.count(Ijk::new(2, 0, 0)), 1);
        assert_eq!(acc.probability(Ijk::new(1, 0, 0)), 1.0);
        assert_eq!(acc.probability(Ijk::new(2, 0, 0)), 0.5);
        assert_eq!(acc.probability(Ijk::new(3, 0, 0)), 0.0);
    }

    #[test]
    fn empty_streamline_counts_in_denominator() {
        let dims = Dim3::new(2, 1, 1);
        let mut acc = ConnectivityAccumulator::new(dims);
        acc.add_path(&[Vec3::new(0.0, 0.0, 0.0)]);
        acc.add_empty();
        assert_eq!(acc.total_streamlines(), 2);
        assert_eq!(acc.probability(Ijk::new(0, 0, 0)), 0.5);
    }

    #[test]
    fn probability_volume_matches_pointwise() {
        let dims = Dim3::new(3, 1, 1);
        let mut acc = ConnectivityAccumulator::new(dims);
        acc.add_path(&[Vec3::new(0.0, 0.0, 0.0), Vec3::new(1.0, 0.0, 0.0)]);
        acc.add_path(&[Vec3::new(1.0, 0.0, 0.0)]);
        let vol = acc.probability_volume();
        for c in dims.iter() {
            assert!((*vol.get(c) as f64 - acc.probability(c)).abs() < 1e-7);
        }
    }

    #[test]
    fn region_matrix_probabilities() {
        let dims = Dim3::new(4, 1, 1);
        let left = Mask::from_fn(dims, |c| c.i < 2);
        let right = Mask::from_fn(dims, |c| c.i >= 2);
        let regions = vec![left, right];
        let mut m = RegionConnectivity::new(2);
        // Two streamlines from region 0: one crosses into region 1, one not.
        m.add_streamline(0, &[0, 1, 2], &regions);
        m.add_streamline(0, &[0], &regions);
        assert_eq!(m.seeded(0), 2);
        assert_eq!(m.probability(0, 1), 0.5);
        assert_eq!(m.probability(0, 0), 1.0);
        assert_eq!(m.probability(1, 0), 0.0, "nothing seeded in region 1");
        assert_eq!(m.num_regions(), 2);
    }

    #[test]
    fn region_probability_upper_bound() {
        let dims = Dim3::new(4, 1, 1);
        let mut acc = ConnectivityAccumulator::new(dims);
        acc.add_path(&[Vec3::new(2.0, 0.0, 0.0)]);
        acc.add_path(&[Vec3::new(3.0, 0.0, 0.0)]);
        let target = Mask::from_fn(dims, |c| c.i >= 2);
        // Each voxel saw 1 of 2 streamlines; the max-voxel estimate is 0.5.
        assert_eq!(acc.region_probability_upper(&target), 0.5);
    }
}
