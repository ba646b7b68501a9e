//! Pluggable direction getters — the tracking modality layer.
//!
//! The paper's Step 2 is "deterministic streamlining invoked for many
//! times", and everything about *how a step picks its direction* lives
//! behind the object-safe [`DirectionGetter`] trait: the MCMC
//! posterior-sample selection of the original kernel is one implementation
//! ([`PosteriorSampleGetter`]) next to the classical single-tensor
//! baseline ([`TensorlineGetter`]) and the closed-form analytic fast tier
//! ([`AnalyticGetter`](crate::analytic::AnalyticGetter)). The walker, the
//! CPU reference, the simulated-GPU kernel, and the policy layer all step
//! through `&dyn DirectionGetter`, so a new modality is one `impl`, not a
//! fork of the drivers.

use crate::field::{select_direction, InterpMode, OrientationField};
use crate::probabilistic::initial_direction;
use crate::tensorline::TensorField;
use tracto_rng::HybridTaus;
use tracto_trace::{TractoError, TractoResult};
use tracto_volume::{Dim3, Vec3};

/// Which direction getter drives Step 2 — the service's selectable
/// tracking tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Modality {
    /// Probabilistic streamlining over the MCMC posterior sample stack
    /// (the paper's pipeline; the default, bit-identical to the
    /// pre-modality code path).
    #[default]
    Mcmc,
    /// Classical deterministic tensor-line tracking over a per-voxel
    /// tensor fit — one trajectory per seed, no posterior.
    Tensorline,
    /// The closed-form fast tier: deterministic tracking over the
    /// collapsed posterior mean with voxel-sized steps (after Cieslak et
    /// al., *Analytic Tractography*) — an approximate answer at a fraction
    /// of the simulated cost.
    Analytic,
}

impl Modality {
    /// Canonical wire/CLI name.
    pub fn as_str(&self) -> &'static str {
        match self {
            Modality::Mcmc => "mcmc",
            Modality::Tensorline => "tensorline",
            Modality::Analytic => "analytic",
        }
    }

    /// Parse a wire/CLI name.
    pub fn parse(s: &str) -> TractoResult<Self> {
        match s {
            "mcmc" => Ok(Modality::Mcmc),
            "tensorline" => Ok(Modality::Tensorline),
            "analytic" => Ok(Modality::Analytic),
            other => Err(TractoError::config(format!(
                "unknown modality `{other}` (mcmc|tensorline|analytic)"
            ))),
        }
    }

    /// The seed jitter this modality actually uses: the deterministic
    /// tiers (tensorline, analytic) produce exactly one trajectory per
    /// seed, so sub-voxel jitter is forced off.
    pub fn effective_jitter(&self, jitter: f64) -> f64 {
        match self {
            Modality::Mcmc => jitter,
            Modality::Tensorline | Modality::Analytic => 0.0,
        }
    }

    /// All modalities, for conformance matrices.
    pub const ALL: [Modality; 3] = [Modality::Mcmc, Modality::Tensorline, Modality::Analytic];
}

impl std::fmt::Display for Modality {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// How one tracking step picks its direction. Object-safe so drivers hold
/// `&dyn DirectionGetter`; implementations must be [`Sync`] so one getter
/// can serve lanes stepped on the launch's worker threads.
///
/// Deterministic getters ignore `rng`; it is threaded through so
/// stochastic getters (bootstrap, learned) slot in without an API change.
/// Every lane owns its own deterministically-seeded stream
/// ([`lane_rng`]), so a getter that draws stays reproducible and
/// launch-order independent.
pub trait DirectionGetter: Sync {
    /// Grid dimensions (bounds termination is the walker's job).
    fn dims(&self) -> Dim3;

    /// Candidate initial directions at a seed position (empty when the
    /// seed has no eligible fiber population). The first entry is the
    /// canonical choice; bidirectional tracking negates it.
    fn initial_directions(&self, seed: Vec3) -> Vec<Vec3>;

    /// The stepping direction at `pos` given the previous direction, or
    /// `None` when no eligible population remains.
    fn next_direction(&self, pos: Vec3, prev: Vec3, rng: &mut HybridTaus) -> Option<Vec3>;

    /// How many distinct fiber populations this getter can resolve per
    /// voxel (metadata: 2 for the ball-and-two-sticks posterior, 1 for a
    /// single-tensor fit).
    fn peak_count(&self) -> usize {
        1
    }
}

/// Deterministic per-(run, sample, seed) RNG stream for one tracking lane,
/// derived exactly like the seed-jitter stream so lanes never share draws.
/// The built-in getters are deterministic and never consume it.
pub fn lane_rng(run_seed: u64, sample: usize, seed_idx: usize) -> HybridTaus {
    let stream = ((sample as u64) << 40) ^ seed_idx as u64;
    HybridTaus::seed_stream(run_seed ^ 0x6765_7474, stream)
}

/// The original modality: direction selection over an
/// [`OrientationField`] of posterior-sample sticks — nearest/trilinear
/// interpolation plus the paper's multi-fiber "maintain orientation" rule.
/// This is the exact `select_direction` the pre-trait kernel used, so the
/// default tracking path is bit-identical to the pre-modality code.
#[derive(Debug, Clone, Copy)]
pub struct PosteriorSampleGetter<F> {
    field: F,
    interp: InterpMode,
    min_fraction: f64,
}

impl<F: OrientationField> PosteriorSampleGetter<F> {
    /// Wrap a field with the interpolation mode and anisotropy floor that
    /// used to live in `TrackingParams`.
    pub fn new(field: F, interp: InterpMode, min_fraction: f64) -> Self {
        PosteriorSampleGetter {
            field,
            interp,
            min_fraction,
        }
    }

    /// The wrapped field.
    pub fn field(&self) -> &F {
        &self.field
    }
}

impl<F: OrientationField> DirectionGetter for PosteriorSampleGetter<F> {
    fn dims(&self) -> Dim3 {
        self.field.dims()
    }

    fn initial_directions(&self, seed: Vec3) -> Vec<Vec3> {
        initial_direction(&self.field, seed, self.min_fraction)
            .into_iter()
            .collect()
    }

    #[inline]
    fn next_direction(&self, pos: Vec3, prev: Vec3, _rng: &mut HybridTaus) -> Option<Vec3> {
        select_direction(&self.field, pos, prev, self.interp, self.min_fraction)
    }

    fn peak_count(&self) -> usize {
        2
    }
}

/// The classical deterministic baseline as a getter: principal
/// eigenvector of a per-voxel tensor fit, with `min_fraction` acting as
/// the FA termination floor. One peak per voxel, blind to crossings —
/// exactly the failure mode the paper's probabilistic pipeline fixes.
#[derive(Debug, Clone, Copy)]
pub struct TensorlineGetter<'a> {
    inner: PosteriorSampleGetter<&'a TensorField>,
}

impl<'a> TensorlineGetter<'a> {
    /// Wrap a fitted tensor field; `fa_floor` is the classical FA
    /// termination threshold.
    pub fn new(field: &'a TensorField, fa_floor: f64) -> Self {
        TensorlineGetter {
            inner: PosteriorSampleGetter::new(field, InterpMode::Nearest, fa_floor),
        }
    }
}

impl DirectionGetter for TensorlineGetter<'_> {
    fn dims(&self) -> Dim3 {
        self.inner.dims()
    }

    fn initial_directions(&self, seed: Vec3) -> Vec<Vec3> {
        self.inner.initial_directions(seed)
    }

    #[inline]
    fn next_direction(&self, pos: Vec3, prev: Vec3, rng: &mut HybridTaus) -> Option<Vec3> {
        self.inner.next_direction(pos, prev, rng)
    }

    fn peak_count(&self) -> usize {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::FnField;
    use tracto_volume::Ijk;

    fn x_field(dims: Dim3) -> FnField<impl Fn(Ijk) -> [(Vec3, f64); 2] + Sync> {
        FnField::new(dims, |_| [(Vec3::X, 0.6), (Vec3::ZERO, 0.0)])
    }

    #[test]
    fn modality_names_round_trip() {
        for m in Modality::ALL {
            assert_eq!(Modality::parse(m.as_str()).unwrap(), m);
            assert_eq!(format!("{m}"), m.as_str());
        }
        assert!(Modality::parse("deeptract").is_err());
        assert_eq!(Modality::default(), Modality::Mcmc);
    }

    #[test]
    fn deterministic_tiers_force_jitter_off() {
        assert_eq!(Modality::Mcmc.effective_jitter(0.5), 0.5);
        assert_eq!(Modality::Tensorline.effective_jitter(0.5), 0.0);
        assert_eq!(Modality::Analytic.effective_jitter(0.5), 0.0);
    }

    #[test]
    fn posterior_getter_matches_free_functions() {
        let dims = Dim3::new(8, 4, 4);
        let f = x_field(dims);
        let g = PosteriorSampleGetter::new(&f, InterpMode::Nearest, 0.05);
        let mut rng = lane_rng(1, 0, 0);
        let pos = Vec3::new(2.2, 2.0, 2.0);
        assert_eq!(
            g.next_direction(pos, Vec3::X, &mut rng),
            select_direction(&f, pos, Vec3::X, InterpMode::Nearest, 0.05)
        );
        assert_eq!(g.initial_directions(pos), vec![Vec3::X]);
        assert_eq!(g.dims(), dims);
        assert_eq!(g.peak_count(), 2);
    }

    #[test]
    fn getter_is_object_safe() {
        let dims = Dim3::new(4, 4, 4);
        let f = x_field(dims);
        let g = PosteriorSampleGetter::new(&f, InterpMode::Nearest, 0.05);
        let dynamic: &dyn DirectionGetter = &g;
        let mut rng = lane_rng(0, 0, 0);
        assert!(dynamic
            .next_direction(Vec3::new(1.0, 1.0, 1.0), Vec3::X, &mut rng)
            .is_some());
    }

    #[test]
    fn lane_rng_is_per_lane_deterministic() {
        let mut a = lane_rng(7, 3, 11);
        let mut b = lane_rng(7, 3, 11);
        let mut c = lane_rng(7, 3, 12);
        use tracto_rng::RandomSource;
        let (xa, xb, xc) = (a.next_f64(), b.next_f64(), c.next_f64());
        assert_eq!(xa, xb);
        assert_ne!(xa, xc);
    }
}
