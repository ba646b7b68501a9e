//! Generic per-parameter Metropolis–Hastings machinery.

use tracto_rng::{box_muller_cos, RandomSource};

/// A log-density target over an `N`-dimensional parameter vector.
///
/// Implementations return `f64::NEG_INFINITY` outside the support, which
/// makes the MH step reject the proposal unconditionally.
pub trait Target<const N: usize> {
    /// Unnormalized log density at `params`.
    fn log_density(&self, params: &[f64; N]) -> f64;
}

impl<const N: usize, F: Fn(&[f64; N]) -> f64> Target<N> for F {
    fn log_density(&self, params: &[f64; N]) -> f64 {
        self(params)
    }
}

/// Proposal-scale adaptation scheme.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AdaptScheme {
    /// Fixed proposal scales (no adaptation) — the ablation baseline.
    Fixed,
    /// Every `interval` loops, multiply a parameter's σ by `grow` when its
    /// acceptance rate exceeds `hi`, and by `shrink` when below `lo` — the
    /// paper's rule keeping acceptance "somewhere between 25% and 50%".
    Band {
        /// Loops between adaptations (the paper's `K`).
        interval: u32,
        /// Lower acceptance bound (paper: 0.25).
        lo: f64,
        /// Upper acceptance bound (paper: 0.50).
        hi: f64,
        /// Multiplier when acceptance is too high.
        grow: f64,
        /// Multiplier when acceptance is too low.
        shrink: f64,
    },
}

impl AdaptScheme {
    /// The paper's adaptation: every 50 loops, keep acceptance in
    /// [0.25, 0.50].
    pub fn paper_default() -> Self {
        AdaptScheme::Band {
            interval: 50,
            lo: 0.25,
            hi: 0.50,
            grow: 1.25,
            shrink: 0.8,
        }
    }
}

/// The serializable portion of one sampler: everything
/// [`MhSampler::step_loop`] mutates. Plain-old-data so persistent
/// checkpoints can encode it as raw bit patterns; the adaptation scheme and
/// freeze mask are configuration, re-derived on restore rather than stored.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MhState<const N: usize> {
    /// Current position.
    pub params: [f64; N],
    /// Log density at `params`.
    pub log_density: f64,
    /// Per-parameter proposal scales.
    pub scales: [f64; N],
    /// Acceptances since the last adaptation reset.
    pub accepted: [u32; N],
    /// Proposals since the last adaptation reset.
    pub proposed: [u32; N],
    /// Completed MH loops.
    pub loops_done: u32,
    /// Acceptance rates of the last complete adaptation window.
    pub last_window_rates: [f64; N],
}

/// One chain's Metropolis–Hastings state: current position, log density,
/// per-parameter proposal scales and acceptance counters.
///
/// This struct is exactly the per-lane state of the paper's MCMC GPU kernel;
/// the voxelwise driver owns one per voxel.
#[derive(Debug, Clone)]
pub struct MhSampler<const N: usize> {
    params: [f64; N],
    log_density: f64,
    scales: [f64; N],
    accepted: [u32; N],
    proposed: [u32; N],
    adapt: AdaptScheme,
    loops_done: u32,
    last_window_rates: [f64; N],
    frozen: [bool; N],
}

impl<const N: usize> MhSampler<N> {
    /// Start a sampler at `initial` with per-parameter proposal scales.
    ///
    /// # Panics
    /// If the initial point has zero density (`-∞` log density) — chains
    /// must start inside the support.
    pub fn new<T: Target<N>>(
        target: &T,
        initial: [f64; N],
        scales: [f64; N],
        adapt: AdaptScheme,
    ) -> Self {
        let log_density = target.log_density(&initial);
        assert!(
            log_density > f64::NEG_INFINITY,
            "initial state outside the target support"
        );
        assert!(
            scales.iter().all(|&s| s > 0.0),
            "proposal scales must be positive"
        );
        MhSampler {
            params: initial,
            log_density,
            scales,
            accepted: [0; N],
            proposed: [0; N],
            adapt,
            loops_done: 0,
            last_window_rates: [0.0; N],
            frozen: [false; N],
        }
    }

    /// Freeze a parameter: it is skipped by [`step_loop`](Self::step_loop)
    /// and keeps its initial value. Used to restrict the model — e.g.
    /// pinning `(f₂, θ₂, φ₂)` reduces ball-and-two-sticks to the N = 1
    /// compartment model of Table I.
    pub fn freeze(&mut self, j: usize) {
        self.frozen[j] = true;
    }

    /// Whether parameter `j` is frozen.
    pub fn is_frozen(&self, j: usize) -> bool {
        self.frozen[j]
    }

    /// Current position.
    #[inline]
    pub fn params(&self) -> &[f64; N] {
        &self.params
    }

    /// Current log density.
    #[inline]
    pub fn log_density(&self) -> f64 {
        self.log_density
    }

    /// Current proposal scales.
    pub fn scales(&self) -> &[f64; N] {
        &self.scales
    }

    /// Per-parameter acceptance rates since the last adaptation reset.
    pub fn acceptance_rates(&self) -> [f64; N] {
        let mut out = [0.0; N];
        for (o, (&acc, &prop)) in out.iter_mut().zip(self.accepted.iter().zip(&self.proposed)) {
            if prop > 0 {
                *o = acc as f64 / prop as f64;
            }
        }
        out
    }

    /// The rates the chain reports as its final acceptance: the live
    /// counters ([`acceptance_rates`](Self::acceptance_rates)) whenever any
    /// proposal has been made since the last adaptation reset, and the
    /// rates of the last complete adaptation window only when the counters
    /// were just reset (nothing proposed since). No blending happens.
    pub fn recent_acceptance_rates(&self) -> [f64; N] {
        if self.proposed.iter().any(|&p| p > 0) && self.last_window_rates.iter().all(|&r| r == 0.0)
        {
            self.acceptance_rates()
        } else if self.proposed.iter().all(|&p| p == 0) {
            self.last_window_rates
        } else {
            // Mid-window: the live counters, as above.
            self.acceptance_rates()
        }
    }

    /// One MH update of parameter `j`: propose a Gaussian perturbation and
    /// accept with probability `min(1, r)` where
    /// `r = P(ω′|Y)/P(ω|Y)` (paper Section III-A-2).
    ///
    /// Uses three uniform draws: two through Box–Muller for the proposal
    /// (only its cosine variate is used), one for the accept test — the
    /// paper's "3 random numbers" per step.
    #[inline]
    pub fn step_param<T: Target<N>, R: RandomSource>(
        &mut self,
        target: &T,
        rng: &mut R,
        j: usize,
    ) -> bool {
        let old = self.propose_param(j, rng);
        let new_ld = target.log_density(&self.params);
        self.decide_param(j, old, new_ld, rng)
    }

    /// The propose half of [`step_param`](Self::step_param): draw the
    /// Gaussian perturbation and move coordinate `j` to the proposal, which
    /// [`params`](Self::params) then shows. Returns the previous value for
    /// [`decide_param`](Self::decide_param), which must follow before the
    /// next proposal. Splitting the step lets a wavefront of chains draw
    /// their proposals, evaluate them in one sweep, then decide each.
    #[inline]
    pub fn propose_param<R: RandomSource>(&mut self, j: usize, rng: &mut R) -> f64 {
        let z = box_muller_cos(rng.next_f64(), rng.next_f64());
        let old = self.params[j];
        self.params[j] = old + self.scales[j] * z;
        old
    }

    /// The decide half of [`step_param`](Self::step_param): given the log
    /// density `new_ld` at the proposal, accept it or restore `old`,
    /// drawing the accept uniform only when the move is downhill and inside
    /// the support. Returns whether the proposal was accepted.
    #[inline]
    pub fn decide_param<R: RandomSource>(
        &mut self,
        j: usize,
        old: f64,
        new_ld: f64,
        rng: &mut R,
    ) -> bool {
        self.proposed[j] += 1;
        // log r = ln P(ω′) − ln P(ω); accept if u < r.
        let log_r = new_ld - self.log_density;
        let accept = if log_r >= 0.0 {
            true
        } else if new_ld == f64::NEG_INFINITY {
            false
        } else {
            rng.next_f64().ln() < log_r
        };
        if accept {
            self.log_density = new_ld;
            self.accepted[j] += 1;
        } else {
            self.params[j] = old;
        }
        accept
    }

    /// One full loop: an MH step for each of the `N` parameters, then
    /// (periodically) proposal adaptation.
    pub fn step_loop<T: Target<N>, R: RandomSource>(&mut self, target: &T, rng: &mut R) {
        for j in 0..N {
            if self.frozen[j] {
                continue;
            }
            self.step_param(target, rng, j);
        }
        self.end_loop();
    }

    /// Close one loop after its per-parameter steps: count it and, every
    /// adaptation interval, adapt the proposal scales.
    pub fn end_loop(&mut self) {
        self.loops_done += 1;
        if let AdaptScheme::Band {
            interval,
            lo,
            hi,
            grow,
            shrink,
        } = self.adapt
        {
            if self.loops_done % interval == 0 {
                self.adapt_scales(lo, hi, grow, shrink);
            }
        }
    }

    /// Export the sampler's full mutable state for a persistent checkpoint.
    /// [`restore`](Self::restore) with the same adaptation scheme and freeze
    /// mask rebuilds a sampler that continues the chain bit-identically.
    pub fn snapshot(&self) -> MhState<N> {
        MhState {
            params: self.params,
            log_density: self.log_density,
            scales: self.scales,
            accepted: self.accepted,
            proposed: self.proposed,
            loops_done: self.loops_done,
            last_window_rates: self.last_window_rates,
        }
    }

    /// Rebuild a sampler from a [`snapshot`](Self::snapshot). The target is
    /// *not* re-evaluated: the stored log density is trusted, so restore is
    /// exact even where the density computation involves cached signal.
    /// `frozen` must match the mask the original sampler ran with (it is
    /// re-derived from the model configuration, not stored).
    pub fn restore(state: MhState<N>, adapt: AdaptScheme, frozen: [bool; N]) -> Self {
        MhSampler {
            params: state.params,
            log_density: state.log_density,
            scales: state.scales,
            accepted: state.accepted,
            proposed: state.proposed,
            adapt,
            loops_done: state.loops_done,
            last_window_rates: state.last_window_rates,
            frozen,
        }
    }

    fn adapt_scales(&mut self, lo: f64, hi: f64, grow: f64, shrink: f64) {
        for j in 0..N {
            if self.proposed[j] == 0 {
                continue;
            }
            let rate = self.accepted[j] as f64 / self.proposed[j] as f64;
            self.last_window_rates[j] = rate;
            if rate > hi {
                self.scales[j] *= grow;
            } else if rate < lo {
                self.scales[j] *= shrink;
            }
            self.accepted[j] = 0;
            self.proposed[j] = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracto_rng::HybridTaus;

    /// 1-D standard normal target.
    fn std_normal(p: &[f64; 1]) -> f64 {
        -0.5 * p[0] * p[0]
    }

    #[test]
    fn always_accepts_uphill() {
        // A target increasing in p[0]: any positive proposal is uphill.
        let target = |p: &[f64; 1]| p[0];
        let mut rng = HybridTaus::new(1);
        let mut s = MhSampler::new(&target, [0.0], [1.0], AdaptScheme::Fixed);
        for _ in 0..200 {
            let before = s.params()[0];
            let before_ld = s.log_density();
            let accepted = s.step_param(&target, &mut rng, 0);
            if s.params()[0] > before {
                assert!(accepted, "uphill move must be accepted");
                assert!(s.log_density() > before_ld);
            }
        }
    }

    #[test]
    fn rejects_out_of_support_always() {
        // Support is p > 0 only; start inside, propose huge jumps.
        let target = |p: &[f64; 1]| if p[0] > 0.0 { 0.0 } else { f64::NEG_INFINITY };
        let mut rng = HybridTaus::new(2);
        let mut s = MhSampler::new(&target, [1.0], [100.0], AdaptScheme::Fixed);
        for _ in 0..500 {
            s.step_param(&target, &mut rng, 0);
            assert!(s.params()[0] > 0.0, "chain escaped the support");
        }
    }

    #[test]
    fn normal_target_moments() {
        let mut rng = HybridTaus::new(3);
        let mut s = MhSampler::new(&std_normal, [0.0], [2.4], AdaptScheme::Fixed);
        // Burn in.
        for _ in 0..500 {
            s.step_loop(&std_normal, &mut rng);
        }
        let mut sum = 0.0;
        let mut sum2 = 0.0;
        const N: usize = 20_000;
        for _ in 0..N {
            s.step_loop(&std_normal, &mut rng);
            let x = s.params()[0];
            sum += x;
            sum2 += x * x;
        }
        let mean = sum / N as f64;
        let var = sum2 / N as f64 - mean * mean;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn bivariate_correlated_gaussian() {
        // ρ = 0.8 bivariate normal.
        let rho: f64 = 0.8;
        let det = 1.0 - rho * rho;
        let target = move |p: &[f64; 2]| {
            -(p[0] * p[0] - 2.0 * rho * p[0] * p[1] + p[1] * p[1]) / (2.0 * det)
        };
        let mut rng = HybridTaus::new(4);
        let mut s = MhSampler::new(
            &target,
            [0.0, 0.0],
            [1.0, 1.0],
            AdaptScheme::paper_default(),
        );
        for _ in 0..1000 {
            s.step_loop(&target, &mut rng);
        }
        let (mut sx, mut sy, mut sxy, mut sxx, mut syy) = (0.0, 0.0, 0.0, 0.0, 0.0);
        const N: usize = 40_000;
        for _ in 0..N {
            s.step_loop(&target, &mut rng);
            let [x, y] = *s.params();
            sx += x;
            sy += y;
            sxy += x * y;
            sxx += x * x;
            syy += y * y;
        }
        let n = N as f64;
        let corr = (n * sxy - sx * sy) / ((n * sxx - sx * sx).sqrt() * (n * syy - sy * sy).sqrt());
        assert!((corr - rho).abs() < 0.05, "sampled correlation {corr}");
    }

    #[test]
    fn adaptation_reaches_band() {
        let mut rng = HybridTaus::new(5);
        // Start with a wildly oversized proposal; adaptation must pull the
        // acceptance rate into (or near) the band.
        let mut s = MhSampler::new(&std_normal, [0.0], [500.0], AdaptScheme::paper_default());
        for _ in 0..3000 {
            s.step_loop(&std_normal, &mut rng);
        }
        // Measure acceptance over a fresh window with frozen scales.
        let scales = *s.scales();
        let mut frozen = MhSampler::new(&std_normal, *s.params(), scales, AdaptScheme::Fixed);
        for _ in 0..2000 {
            frozen.step_loop(&std_normal, &mut rng);
        }
        let rate = frozen.acceptance_rates()[0];
        assert!(
            (0.15..=0.65).contains(&rate),
            "acceptance {rate} far outside the target band; scale {}",
            scales[0]
        );
        assert!(scales[0] < 500.0, "scale should have shrunk");
    }

    #[test]
    fn adaptation_grows_tiny_scales() {
        let mut rng = HybridTaus::new(6);
        let mut s = MhSampler::new(&std_normal, [0.0], [1e-6], AdaptScheme::paper_default());
        for _ in 0..3000 {
            s.step_loop(&std_normal, &mut rng);
        }
        assert!(s.scales()[0] > 1e-6, "tiny scale should grow");
    }

    #[test]
    fn deterministic_given_seed() {
        let mut r1 = HybridTaus::new(7);
        let mut r2 = HybridTaus::new(7);
        let mut a = MhSampler::new(&std_normal, [0.5], [1.0], AdaptScheme::paper_default());
        let mut b = MhSampler::new(&std_normal, [0.5], [1.0], AdaptScheme::paper_default());
        for _ in 0..500 {
            a.step_loop(&std_normal, &mut r1);
            b.step_loop(&std_normal, &mut r2);
        }
        assert_eq!(a.params(), b.params());
        assert_eq!(a.scales(), b.scales());
    }

    #[test]
    fn snapshot_restore_resumes_bit_identically() {
        let mut rng = HybridTaus::new(11);
        let mut s = MhSampler::new(&std_normal, [0.3], [1.0], AdaptScheme::paper_default());
        // Stop mid-adaptation-window so counters and window rates matter.
        for _ in 0..137 {
            s.step_loop(&std_normal, &mut rng);
        }
        let state = s.snapshot();
        let rng_state = rng.state();
        // Continue the original.
        for _ in 0..300 {
            s.step_loop(&std_normal, &mut rng);
        }
        // Restore and continue the copy with the same draws.
        let mut restored = MhSampler::restore(state, AdaptScheme::paper_default(), [false]);
        let mut rng2 = HybridTaus::from_state(rng_state);
        for _ in 0..300 {
            restored.step_loop(&std_normal, &mut rng2);
        }
        assert_eq!(s.params(), restored.params());
        assert_eq!(s.scales(), restored.scales());
        assert_eq!(s.log_density(), restored.log_density());
        assert_eq!(s.acceptance_rates(), restored.acceptance_rates());
    }

    #[test]
    fn restore_preserves_freeze_mask() {
        let target = |p: &[f64; 2]| -0.5 * (p[0] * p[0] + p[1] * p[1]);
        let mut s = MhSampler::new(&target, [1.0, 4.0], [1.0, 1.0], AdaptScheme::Fixed);
        s.freeze(1);
        let restored = MhSampler::restore(s.snapshot(), AdaptScheme::Fixed, [false, true]);
        assert!(restored.is_frozen(1) && !restored.is_frozen(0));
        assert_eq!(restored.params(), s.params());
    }

    #[test]
    #[should_panic(expected = "support")]
    fn initial_outside_support_panics() {
        let target = |p: &[f64; 1]| if p[0] > 0.0 { 0.0 } else { f64::NEG_INFINITY };
        let _ = MhSampler::new(&target, [-1.0], [1.0], AdaptScheme::Fixed);
    }

    #[test]
    fn frozen_parameters_never_move() {
        let target = |p: &[f64; 2]| -0.5 * (p[0] * p[0] + p[1] * p[1]);
        let mut s = MhSampler::new(&target, [5.0, 5.0], [1.0, 1.0], AdaptScheme::Fixed);
        s.freeze(1);
        assert!(s.is_frozen(1) && !s.is_frozen(0));
        let mut rng = HybridTaus::new(3);
        for _ in 0..200 {
            s.step_loop(&target, &mut rng);
        }
        assert_eq!(s.params()[1], 5.0, "frozen coordinate moved");
        assert_ne!(s.params()[0], 5.0, "free coordinate should move");
    }

    /// One loop driven through the split halves, as the wavefront sweep
    /// drives each lane: propose, evaluate, decide.
    fn split_loop<const N: usize>(
        s: &mut MhSampler<N>,
        target: impl Fn(&[f64; N]) -> f64,
        rng: &mut HybridTaus,
    ) {
        for j in 0..N {
            if !s.is_frozen(j) {
                let old = s.propose_param(j, rng);
                let ld = target(s.params());
                s.decide_param(j, old, ld, rng);
            }
        }
        s.end_loop();
    }

    #[test]
    fn incremental_loop_is_bit_identical_to_plain_loop() {
        let weights = [1.0, 0.5, 2.0];
        let plain = move |p: &[f64; 3]| {
            let mut ld = 0.0;
            for j in 0..3 {
                ld += -0.5 * weights[j] * p[j] * p[j];
            }
            ld
        };
        let initial = [0.7, -1.2, 0.1];
        let scales = [0.8, 0.8, 0.8];
        let mut a = MhSampler::new(&plain, initial, scales, AdaptScheme::paper_default());
        let mut b = a.clone();
        let mut r1 = HybridTaus::new(21);
        let mut r2 = HybridTaus::new(21);
        for loop_i in 0..400 {
            a.step_loop(&plain, &mut r1);
            split_loop(&mut b, plain, &mut r2);
            assert_eq!(a.snapshot(), b.snapshot(), "diverged at loop {loop_i}");
        }
    }

    #[test]
    fn incremental_loop_respects_freeze_mask() {
        let plain = move |p: &[f64; 2]| -0.5 * (p[0] * p[0] + p[1] * p[1]);
        let mut s = MhSampler::new(&plain, [0.0, 3.0], [1.0, 1.0], AdaptScheme::Fixed);
        s.freeze(1);
        let mut rng = HybridTaus::new(22);
        for _ in 0..100 {
            split_loop(&mut s, plain, &mut rng);
        }
        assert_eq!(s.params()[1], 3.0, "frozen coordinate moved");
        assert_ne!(s.params()[0], 0.0);
    }

    #[test]
    fn incremental_rejects_out_of_support() {
        let plain = |p: &[f64; 1]| if p[0] > 0.0 { 0.0 } else { f64::NEG_INFINITY };
        let mut s = MhSampler::new(&plain, [1.0], [100.0], AdaptScheme::Fixed);
        let mut rng = HybridTaus::new(23);
        for _ in 0..500 {
            let old = s.propose_param(0, &mut rng);
            let ld = plain(s.params());
            let accepted = s.decide_param(0, old, ld, &mut rng);
            assert_eq!(accepted, ld == 0.0, "out-of-support proposal accepted");
            s.end_loop();
            assert!(s.params()[0] > 0.0, "chain escaped the support");
        }
    }

    #[test]
    fn acceptance_counters_track() {
        let target = |_: &[f64; 1]| 0.0; // flat: every proposal accepted
        let mut rng = HybridTaus::new(8);
        let mut s = MhSampler::new(&target, [0.0], [1.0], AdaptScheme::Fixed);
        for _ in 0..100 {
            s.step_loop(&target, &mut rng);
        }
        assert_eq!(s.acceptance_rates()[0], 1.0);
    }
}
