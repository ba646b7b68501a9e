//! Incremental (cached) evaluation of the ball-and-two-sticks posterior.
//!
//! The per-parameter MH sweep changes exactly one coordinate per proposal,
//! but the plain [`BallSticksPosterior::log_posterior`] recomputes every
//! per-measurement term — two direction projections and three exponentials
//! per measurement — on every call. This module keeps those terms in
//! structure-of-arrays buffers and invalidates only what the proposed
//! coordinate actually touches:
//!
//! | coordinate      | recomputed per measurement                  |
//! |-----------------|---------------------------------------------|
//! | `S₀`, `f₁`, `f₂`| signal recombination + residual only (0 exp)|
//! | `d`             | both stick exponentials (ball: one per shell)|
//! | `σ`             | nothing (closed form from the cached SSE)   |
//! | `θ₁`, `φ₁`      | stick-1 projection + exponential            |
//! | `θ₂`, `φ₂`      | stick-2 projection + exponential            |
//!
//! Transcendentals whose values the cache already holds are not redone:
//! the ball term `exp(-b·d)` depends on the b-value alone, so it is
//! evaluated once per b-shell
//! ([`Acquisition::shells`](tracto_diffusion::Acquisition::shells)); and each stick's
//! committed `(sin θ, cos θ, sin φ, cos φ)` is kept, so a θ move computes
//! only θ's `sin_cos` (and takes the prior's `sin θ` from it) and a φ move
//! only φ's.
//!
//! Every staged expression is written exactly as the plain evaluation
//! writes it (same literals, same association, same inputs), so the
//! cached chain is **bit-identical** to the serialized one — the property
//! `tests::cached_chain_matches_plain_chain_exactly` pins down.
//!
//! The Rician likelihood couples σ into every per-measurement term, so it
//! falls back to the full evaluation (still behind the same
//! [`IncrementalTarget`] interface).

use crate::mh::IncrementalTarget;
use tracto_diffusion::posterior::{param_index, NUM_PARAMETERS};
use tracto_diffusion::{BallSticksParams, BallSticksPosterior, NoiseLikelihood};
use tracto_volume::Vec3;

/// `(sin θ, cos θ, sin φ, cos φ)` of one stick.
type StickTrig = [f64; 4];

/// The trig of `(θ, φ)` — the `sin_cos` pair [`Vec3::from_spherical`]
/// takes of each angle.
fn stick_trig(theta: f64, phi: f64) -> StickTrig {
    let (st, ct) = theta.sin_cos();
    let (sp, cp) = phi.sin_cos();
    [st, ct, sp, cp]
}

/// The stick direction from its trig: the same expression as
/// [`Vec3::from_spherical`], so the same bits.
fn stick_dir([st, ct, sp, cp]: StickTrig) -> Vec3 {
    Vec3::new(st * cp, st * sp, ct)
}

/// Which staged buffers a pending proposal holds, i.e. what
/// [`accept`](IncrementalTarget::accept) must fold into the committed
/// cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum Pending {
    /// Nothing staged (σ move, out-of-support proposal, or exact fallback).
    #[default]
    Nothing,
    /// Only the residual sum changed (`S₀`, `f₁`, `f₂`).
    Sse,
    /// Diffusivity changed: all three exponential arrays + SSE.
    Ball,
    /// Stick-1 direction changed: its projection + exponential + SSE.
    Stick1,
    /// Stick-2 direction changed: its projection + exponential + SSE.
    Stick2,
}

/// Owned, reusable buffers for one [`CachedBallSticks`] target. Keeping
/// them separate from the borrowing adapter lets a driver hold one set per
/// thread and rebind it to one voxel's posterior after another without
/// reallocating (Step 1 binds it once per lane per kernel launch).
#[derive(Debug, Clone, Default)]
pub struct BallSticksCacheBuffers {
    // Committed per-measurement terms at the chain's current position.
    p1: Vec<f64>,
    p2: Vec<f64>,
    iso: Vec<f64>,
    e1: Vec<f64>,
    e2: Vec<f64>,
    sse: f64,
    // Committed trig of stick 1 and stick 2.
    trig: [StickTrig; 2],
    // Scratch: the ball exponential per b-shell.
    shell_iso: Vec<f64>,
    // Staged terms for the in-flight proposal.
    s_p1: Vec<f64>,
    s_p2: Vec<f64>,
    s_iso: Vec<f64>,
    s_e1: Vec<f64>,
    s_e2: Vec<f64>,
    s_sse: f64,
    // Staged trig of the moved stick (`Stick1` / `Stick2` pending).
    s_trig: StickTrig,
    pending: Pending,
    // Committed prior terms `[ln sin θ₁, ln sin θ₂, ln σ, ARD]` — a
    // proposal touches at most one, so the rest never re-pay their
    // transcendentals. `ln σ` doubles as the likelihood's closing factor.
    prior_terms: [f64; 4],
    // Staged `(term index, value)` for the in-flight proposal.
    staged_prior: Option<(usize, f64)>,
}

impl BallSticksCacheBuffers {
    /// Fresh, empty buffers (sized lazily on first
    /// [`IncrementalTarget::init`]).
    pub fn new() -> Self {
        BallSticksCacheBuffers::default()
    }

    fn resize(&mut self, n: usize, shells: usize) {
        self.shell_iso.resize(shells, 0.0);
        self.p1.resize(n, 0.0);
        self.p2.resize(n, 0.0);
        self.iso.resize(n, 0.0);
        self.e1.resize(n, 0.0);
        self.e2.resize(n, 0.0);
        self.s_p1.resize(n, 0.0);
        self.s_p2.resize(n, 0.0);
        self.s_iso.resize(n, 0.0);
        self.s_e1.resize(n, 0.0);
        self.s_e2.resize(n, 0.0);
        self.pending = Pending::Nothing;
        self.staged_prior = None;
    }
}

/// [`IncrementalTarget`] adapter binding a voxel's posterior to a set of
/// cache buffers for the duration of one chain run (or one lane's run
/// through a kernel launch).
#[derive(Debug)]
pub struct CachedBallSticks<'a> {
    post: &'a BallSticksPosterior<'a>,
    buf: &'a mut BallSticksCacheBuffers,
    /// Rician likelihood couples σ into every term — evaluate exactly.
    exact: bool,
}

impl<'a> CachedBallSticks<'a> {
    /// Bind `post` to reusable `buf`. The caller must
    /// [`init`](IncrementalTarget::init) before the first proposal.
    pub fn new(post: &'a BallSticksPosterior<'a>, buf: &'a mut BallSticksCacheBuffers) -> Self {
        let exact = post.prior().likelihood != NoiseLikelihood::Gaussian;
        CachedBallSticks { post, buf, exact }
    }

    /// Gaussian log-likelihood from an already-known residual sum — the
    /// exact closing expression of the plain evaluation. `sigma_ln` is
    /// `sigma.ln()`, cached or freshly staged, so unchanged-σ proposals
    /// skip the logarithm.
    fn gaussian_ll(&self, sigma: f64, sigma_ln: f64, sse: f64) -> f64 {
        let inv_two_var = 0.5 / (sigma * sigma);
        -(self.post.signal().len() as f64) * sigma_ln - sse * inv_two_var
    }

    /// The plain prior's support checks — comparisons only, no
    /// transcendentals. (`sin θ > 0` for an *unchanged* θ is guaranteed by
    /// the committed term; a changed θ is checked where it is staged.)
    fn in_support(&self, p: &BallSticksParams) -> bool {
        !(p.s0 <= 0.0
            || p.d <= 0.0
            || p.d > self.post.prior().d_max
            || p.sigma <= 0.0
            || p.sigma > self.post.prior().sigma_max
            || !(0.0..=1.0).contains(&p.f1)
            || !(0.0..=1.0).contains(&p.f2)
            || p.f1 + p.f2 > 1.0)
    }

    /// Log prior from the committed terms with at most one overridden —
    /// the same values summed in the same association as the plain prior,
    /// so the float result is bit-identical.
    fn prior_from_terms(&self, override_term: Option<(usize, f64)>) -> f64 {
        let t = |k: usize| match override_term {
            Some((ok, v)) if ok == k => v,
            _ => self.buf.prior_terms[k],
        };
        let lp = t(0) + t(1) - t(2);
        if self.post.prior().ard_weight.is_some() {
            lp + t(3)
        } else {
            lp
        }
    }

    /// Residual sum against the committed exponentials with (possibly
    /// proposed) `s0`, `f1`, `f2` — accumulated in measurement order so the
    /// float result matches the plain loop bit-for-bit.
    fn sse_from_committed(&self, s0: f64, f1: f64, f2: f64) -> f64 {
        let mut sse = 0.0;
        for (((&y, &iso), &e1), &e2) in self
            .post
            .signal()
            .iter()
            .zip(&self.buf.iso)
            .zip(&self.buf.e1)
            .zip(&self.buf.e2)
        {
            let mu = s0 * ((1.0 - f1 - f2) * iso + f1 * e1 + f2 * e2);
            let r = y - mu;
            sse += r * r;
        }
        sse
    }

    /// Fill `shell_iso` with the ball term `exp(-b·d)` of each b-shell —
    /// the expression the plain evaluation writes per measurement, on the
    /// same bits, so every measurement of a shell gets the same value.
    fn ball_per_shell(&mut self, d: f64) {
        let acq = self.post.acquisition();
        for (out, &b) in self.buf.shell_iso.iter_mut().zip(acq.shells()) {
            *out = (-b * d).exp();
        }
    }
}

impl IncrementalTarget<NUM_PARAMETERS> for CachedBallSticks<'_> {
    fn init(&mut self, params: &[f64; NUM_PARAMETERS]) -> f64 {
        let p = BallSticksParams::from_array(*params);
        if self.exact {
            return self.post.log_posterior(&p);
        }
        let lp = self.post.log_prior(&p);
        if lp == f64::NEG_INFINITY {
            return lp;
        }
        let acq = self.post.acquisition();
        let n = self.post.signal().len();
        self.buf.resize(n, acq.shells().len());
        self.buf.trig = [stick_trig(p.th1, p.ph1), stick_trig(p.th2, p.ph2)];
        let dir1 = stick_dir(self.buf.trig[0]);
        let dir2 = stick_dir(self.buf.trig[1]);
        self.ball_per_shell(p.d);
        let mut sse = 0.0;
        for (i, &y) in self.post.signal().iter().enumerate() {
            let b = acq.bval(i);
            let g = acq.grad(i);
            let p1 = g.dot(dir1);
            let p2 = g.dot(dir2);
            let iso = self.buf.shell_iso[acq.shell_indices()[i]];
            let e1 = (-b * p.d * p1 * p1).exp();
            let e2 = (-b * p.d * p2 * p2).exp();
            self.buf.p1[i] = p1;
            self.buf.p2[i] = p2;
            self.buf.iso[i] = iso;
            self.buf.e1[i] = e1;
            self.buf.e2[i] = e2;
            let mu = p.s0 * ((1.0 - p.f1 - p.f2) * iso + p.f1 * e1 + p.f2 * e2);
            let r = y - mu;
            sse += r * r;
        }
        self.buf.sse = sse;
        self.buf.pending = Pending::Nothing;
        self.buf.prior_terms = [
            self.buf.trig[0][0].abs().ln(),
            self.buf.trig[1][0].abs().ln(),
            p.sigma.ln(),
            match self.post.prior().ard_weight {
                Some(w) => w * (1.0 - p.f2).ln(),
                None => 0.0,
            },
        ];
        self.buf.staged_prior = None;
        let sigma_ln = self.buf.prior_terms[2];
        lp + self.gaussian_ll(p.sigma, sigma_ln, sse)
    }

    fn propose(&mut self, j: usize, params: &[f64; NUM_PARAMETERS]) -> f64 {
        let p = BallSticksParams::from_array(*params);
        if self.exact {
            self.buf.pending = Pending::Nothing;
            self.buf.staged_prior = None;
            return self.post.log_posterior(&p);
        }
        if !self.in_support(&p) {
            self.buf.pending = Pending::Nothing;
            self.buf.staged_prior = None;
            return f64::NEG_INFINITY;
        }
        // Stage the one prior term coordinate `j` can touch (a rejected
        // θ with `sin θ ≤ 0` short-circuits exactly as the plain prior).
        // A direction move stages its stick's trig, recomputing only the
        // moved angle's `sin_cos`; the other angle keeps its committed pair.
        let staged = match j {
            param_index::TH1 | param_index::TH2 => {
                let k = usize::from(j == param_index::TH2);
                let (st, ct) = if k == 0 { p.th1 } else { p.th2 }.sin_cos();
                let [_, _, sp, cp] = self.buf.trig[k];
                self.buf.s_trig = [st, ct, sp, cp];
                let s = st.abs();
                if s <= 0.0 {
                    self.buf.pending = Pending::Nothing;
                    self.buf.staged_prior = None;
                    return f64::NEG_INFINITY;
                }
                Some((k, s.ln()))
            }
            param_index::PH1 | param_index::PH2 => {
                let k = usize::from(j == param_index::PH2);
                let (sp, cp) = if k == 0 { p.ph1 } else { p.ph2 }.sin_cos();
                let [st, ct, _, _] = self.buf.trig[k];
                self.buf.s_trig = [st, ct, sp, cp];
                None
            }
            param_index::SIGMA => Some((2, p.sigma.ln())),
            param_index::F2 => self
                .post
                .prior()
                .ard_weight
                .map(|w| (3, w * (1.0 - p.f2).ln())),
            _ => None,
        };
        let lp = self.prior_from_terms(staged);
        self.buf.staged_prior = staged;
        let sigma_ln = match staged {
            Some((2, v)) => v,
            _ => self.buf.prior_terms[2],
        };
        let acq = self.post.acquisition();
        match j {
            param_index::SIGMA => {
                self.buf.pending = Pending::Nothing;
                lp + self.gaussian_ll(p.sigma, sigma_ln, self.buf.sse)
            }
            param_index::S0 | param_index::F1 | param_index::F2 => {
                self.buf.s_sse = self.sse_from_committed(p.s0, p.f1, p.f2);
                self.buf.pending = Pending::Sse;
                lp + self.gaussian_ll(p.sigma, sigma_ln, self.buf.s_sse)
            }
            param_index::D => {
                self.ball_per_shell(p.d);
                let buf = &mut *self.buf;
                let mut sse = 0.0;
                for (((((&y, &b), &shell), (&p1, &p2)), iso_out), (e1_out, e2_out)) in self
                    .post
                    .signal()
                    .iter()
                    .zip(acq.bvals())
                    .zip(acq.shell_indices())
                    .zip(buf.p1.iter().zip(&buf.p2))
                    .zip(buf.s_iso.iter_mut())
                    .zip(buf.s_e1.iter_mut().zip(buf.s_e2.iter_mut()))
                {
                    let iso = buf.shell_iso[shell];
                    let e1 = (-b * p.d * p1 * p1).exp();
                    let e2 = (-b * p.d * p2 * p2).exp();
                    *iso_out = iso;
                    *e1_out = e1;
                    *e2_out = e2;
                    let mu = p.s0 * ((1.0 - p.f1 - p.f2) * iso + p.f1 * e1 + p.f2 * e2);
                    let r = y - mu;
                    sse += r * r;
                }
                buf.s_sse = sse;
                buf.pending = Pending::Ball;
                lp + self.gaussian_ll(p.sigma, sigma_ln, sse)
            }
            param_index::TH1 | param_index::PH1 => {
                let dir1 = stick_dir(self.buf.s_trig);
                let buf = &mut *self.buf;
                let mut sse = 0.0;
                for (((((&y, &b), g), (&iso, &e2)), p1_out), e1_out) in self
                    .post
                    .signal()
                    .iter()
                    .zip(acq.bvals())
                    .zip(acq.grads())
                    .zip(buf.iso.iter().zip(&buf.e2))
                    .zip(buf.s_p1.iter_mut())
                    .zip(buf.s_e1.iter_mut())
                {
                    let p1 = g.dot(dir1);
                    let e1 = (-b * p.d * p1 * p1).exp();
                    *p1_out = p1;
                    *e1_out = e1;
                    let mu = p.s0 * ((1.0 - p.f1 - p.f2) * iso + p.f1 * e1 + p.f2 * e2);
                    let r = y - mu;
                    sse += r * r;
                }
                buf.s_sse = sse;
                buf.pending = Pending::Stick1;
                lp + self.gaussian_ll(p.sigma, sigma_ln, sse)
            }
            param_index::TH2 | param_index::PH2 => {
                let dir2 = stick_dir(self.buf.s_trig);
                let buf = &mut *self.buf;
                let mut sse = 0.0;
                for (((((&y, &b), g), (&iso, &e1)), p2_out), e2_out) in self
                    .post
                    .signal()
                    .iter()
                    .zip(acq.bvals())
                    .zip(acq.grads())
                    .zip(buf.iso.iter().zip(&buf.e1))
                    .zip(buf.s_p2.iter_mut())
                    .zip(buf.s_e2.iter_mut())
                {
                    let p2 = g.dot(dir2);
                    let e2 = (-b * p.d * p2 * p2).exp();
                    *p2_out = p2;
                    *e2_out = e2;
                    let mu = p.s0 * ((1.0 - p.f1 - p.f2) * iso + p.f1 * e1 + p.f2 * e2);
                    let r = y - mu;
                    sse += r * r;
                }
                buf.s_sse = sse;
                buf.pending = Pending::Stick2;
                lp + self.gaussian_ll(p.sigma, sigma_ln, sse)
            }
            _ => panic!("parameter index {j} out of range for ball-and-two-sticks"),
        }
    }

    fn accept(&mut self, _j: usize) {
        if let Some((k, v)) = self.buf.staged_prior.take() {
            self.buf.prior_terms[k] = v;
        }
        match self.buf.pending {
            Pending::Nothing => {}
            Pending::Sse => self.buf.sse = self.buf.s_sse,
            Pending::Ball => {
                std::mem::swap(&mut self.buf.iso, &mut self.buf.s_iso);
                std::mem::swap(&mut self.buf.e1, &mut self.buf.s_e1);
                std::mem::swap(&mut self.buf.e2, &mut self.buf.s_e2);
                self.buf.sse = self.buf.s_sse;
            }
            Pending::Stick1 => {
                self.buf.trig[0] = self.buf.s_trig;
                std::mem::swap(&mut self.buf.p1, &mut self.buf.s_p1);
                std::mem::swap(&mut self.buf.e1, &mut self.buf.s_e1);
                self.buf.sse = self.buf.s_sse;
            }
            Pending::Stick2 => {
                self.buf.trig[1] = self.buf.s_trig;
                std::mem::swap(&mut self.buf.p2, &mut self.buf.s_p2);
                std::mem::swap(&mut self.buf.e2, &mut self.buf.s_e2);
                self.buf.sse = self.buf.s_sse;
            }
        }
        self.buf.pending = Pending::Nothing;
    }

    fn reject(&mut self, _j: usize) {
        self.buf.pending = Pending::Nothing;
        self.buf.staged_prior = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mh::{AdaptScheme, MhSampler};
    use tracto_diffusion::{Acquisition, PriorConfig};
    use tracto_rng::HybridTaus;
    use tracto_volume::Vec3;

    fn test_acq() -> Acquisition {
        let dirs = [
            (1.0, 0.0, 0.0),
            (0.0, 1.0, 0.0),
            (0.0, 0.0, 1.0),
            (1.0, 1.0, 0.0),
            (1.0, -1.0, 0.0),
            (1.0, 0.0, 1.0),
            (1.0, 0.0, -1.0),
            (0.0, 1.0, 1.0),
            (0.0, 1.0, -1.0),
            (1.0, 1.0, 1.0),
            (-1.0, 1.0, 1.0),
            (1.0, -1.0, 1.0),
        ];
        let mut bvals = vec![0.0, 0.0];
        let mut grads = vec![Vec3::ZERO, Vec3::ZERO];
        for (x, y, z) in dirs {
            bvals.push(1500.0);
            grads.push(Vec3::new(x, y, z));
        }
        Acquisition::new(bvals, grads)
    }

    /// A plausible anisotropic signal without pulling in the phantom crate.
    fn test_signal(acq: &Acquisition) -> Vec<f64> {
        let truth = BallSticksParams {
            s0: 110.0,
            d: 1.4e-3,
            sigma: 2.0,
            f1: 0.55,
            th1: 1.2,
            ph1: 0.4,
            f2: 0.2,
            th2: 2.1,
            ph2: -0.9,
        };
        let (dir1, dir2) = (truth.dir1(), truth.dir2());
        (0..acq.len())
            .map(|i| {
                let b = acq.bval(i);
                let g = acq.grad(i);
                let p1 = g.dot(dir1);
                let p2 = g.dot(dir2);
                truth.s0
                    * ((1.0 - truth.f1 - truth.f2) * (-b * truth.d).exp()
                        + truth.f1 * (-b * truth.d * p1 * p1).exp()
                        + truth.f2 * (-b * truth.d * p2 * p2).exp())
            })
            .collect()
    }

    fn run_pair(prior: PriorConfig, loops: u32, seed: u64) {
        let acq = test_acq();
        let signal = test_signal(&acq);
        let post = BallSticksPosterior::new(&acq, &signal, prior);
        let plain =
            |p: &[f64; NUM_PARAMETERS]| post.log_posterior(&BallSticksParams::from_array(*p));
        let init = post.initial_params().to_array();
        let scales = [1.0, 1e-4, 0.2, 0.05, 0.1, 0.1, 0.05, 0.1, 0.1];
        let mut a = MhSampler::new(&plain, init, scales, AdaptScheme::paper_default());
        let mut b = MhSampler::new(&plain, init, scales, AdaptScheme::paper_default());
        let mut buf = BallSticksCacheBuffers::new();
        let mut cached = CachedBallSticks::new(&post, &mut buf);
        let ld0 = cached.init(b.params());
        assert_eq!(ld0, b.log_density(), "init must reproduce the density");
        let mut r1 = HybridTaus::new(seed);
        let mut r2 = HybridTaus::new(seed);
        for loop_i in 0..loops {
            a.step_loop(&plain, &mut r1);
            b.step_loop_incremental(&mut cached, &mut r2);
            assert_eq!(a.params(), b.params(), "params diverged at loop {loop_i}");
            assert_eq!(
                a.log_density(),
                b.log_density(),
                "density diverged at loop {loop_i}"
            );
            assert_eq!(a.scales(), b.scales(), "scales diverged at loop {loop_i}");
        }
        assert_eq!(a.acceptance_rates(), b.acceptance_rates());
    }

    #[test]
    fn cached_chain_matches_plain_chain_exactly() {
        run_pair(PriorConfig::default(), 400, 41);
    }

    #[test]
    fn cached_chain_matches_with_ard_prior() {
        let prior = PriorConfig {
            ard_weight: Some(3.0),
            ..PriorConfig::default()
        };
        run_pair(prior, 250, 42);
    }

    #[test]
    fn rician_fallback_matches_plain_chain_exactly() {
        let prior = PriorConfig {
            likelihood: NoiseLikelihood::Rician,
            ..PriorConfig::default()
        };
        run_pair(prior, 150, 43);
    }

    #[test]
    fn rebinding_buffers_across_voxels_stays_exact() {
        // The same buffer set, reused for a second voxel with a different
        // signal, must re-initialize cleanly — the thread-local reuse shape
        // the estimation driver relies on.
        let acq = test_acq();
        let signal_a = test_signal(&acq);
        let signal_b: Vec<f64> = signal_a.iter().map(|s| s * 0.8 + 1.0).collect();
        let mut buf = BallSticksCacheBuffers::new();
        for signal in [&signal_a, &signal_b] {
            let post = BallSticksPosterior::new(&acq, signal, PriorConfig::default());
            let plain =
                |p: &[f64; NUM_PARAMETERS]| post.log_posterior(&BallSticksParams::from_array(*p));
            let init = post.initial_params().to_array();
            let scales = [1.0, 1e-4, 0.2, 0.05, 0.1, 0.1, 0.05, 0.1, 0.1];
            let mut a = MhSampler::new(&plain, init, scales, AdaptScheme::paper_default());
            let mut b = MhSampler::new(&plain, init, scales, AdaptScheme::paper_default());
            let mut cached = CachedBallSticks::new(&post, &mut buf);
            cached.init(b.params());
            let mut r1 = HybridTaus::new(7);
            let mut r2 = HybridTaus::new(7);
            for _ in 0..120 {
                a.step_loop(&plain, &mut r1);
                b.step_loop_incremental(&mut cached, &mut r2);
            }
            assert_eq!(a.params(), b.params());
            assert_eq!(a.log_density(), b.log_density());
        }
    }

    #[test]
    fn out_of_support_proposals_reject_without_corrupting_cache() {
        // Huge proposal scales make most proposals leave the support; the
        // cache must stay in sync through long reject runs.
        let acq = test_acq();
        let signal = test_signal(&acq);
        let post = BallSticksPosterior::new(&acq, &signal, PriorConfig::default());
        let plain =
            |p: &[f64; NUM_PARAMETERS]| post.log_posterior(&BallSticksParams::from_array(*p));
        let init = post.initial_params().to_array();
        let scales = [500.0, 1.0, 50.0, 5.0, 20.0, 20.0, 5.0, 20.0, 20.0];
        let mut a = MhSampler::new(&plain, init, scales, AdaptScheme::Fixed);
        let mut b = MhSampler::new(&plain, init, scales, AdaptScheme::Fixed);
        let mut buf = BallSticksCacheBuffers::new();
        let mut cached = CachedBallSticks::new(&post, &mut buf);
        cached.init(b.params());
        let mut r1 = HybridTaus::new(44);
        let mut r2 = HybridTaus::new(44);
        for _ in 0..300 {
            a.step_loop(&plain, &mut r1);
            b.step_loop_incremental(&mut cached, &mut r2);
        }
        assert_eq!(a.params(), b.params());
        assert_eq!(a.log_density(), b.log_density());
    }
}
