//! Wavefront-lockstep evaluation of the ball-and-two-sticks posterior.
//!
//! The paper runs one GPU thread per voxel's chain, and a 64-lane
//! wavefront moves those threads through the MH loop in SIMD lockstep.
//! [`WavefrontBallSticks`] does the same on the host: all lanes of a
//! wavefront take the same parameter step together, in four passes —
//!
//! 1. each lane draws its proposal from its own stream
//!    ([`MhSampler::propose_param`]) and stages what needs no sweep: the
//!    support check, the moved stick's trig, the one prior term it
//!    touches;
//! 2. one lane-inner sweep over the measurements evaluates every lane,
//!    written as passes the compiler can vectorize: the `exp` arguments,
//!    then the `exp` calls, then the residual sums;
//! 3. each lane makes its accept decision ([`MhSampler::decide_param`]);
//! 4. accepted lanes commit their staged terms and columns through a
//!    branch-free select.
//!
//! Run one chain after another instead and each proposal's likelihood
//! waits on the previous accept decision; in lockstep the lanes' sweeps
//! are independent and overlap. On a 2-vCPU x86-64 box that makes a
//! voxel-loop on a 17-measurement protocol ~8–10 % cheaper than the
//! per-chain cache it replaces; libm's `exp`, `ln` and `sin_cos` stay
//! scalar calls and are most of what is left.
//!
//! The per-measurement terms live in measurement-major `[measurement][lane]`
//! columns, and each proposal re-evaluates only what its coordinate touches
//! (`touched`): both stick exponentials and the ball for `d`, one stick's
//! projection and exponential for its angles, only the residuals for `S₀`,
//! `f₁`, `f₂`, and nothing for `σ` (closed form from the cached residual
//! sum). Transcendentals whose values the cache already holds are not
//! redone: the ball term `exp(-b·d)` once per b-shell
//! ([`Acquisition::shells`](tracto_diffusion::Acquisition::shells)), and
//! each stick's committed `(sin θ, cos θ, sin φ, cos φ)`, so a θ move
//! computes only θ's `sin_cos` (and takes the prior's `sin θ` from it).
//!
//! Every lane keeps its own draw order, and every staged expression is
//! written exactly as the plain evaluation writes it (same literals, same
//! association, same inputs, each lane's residuals summed in measurement
//! order), so each lane's chain is **bit-identical** to the plain
//! serialized one — `tests::cached_chain_matches_plain_chain_exactly` and
//! the `wavefront_lockstep_equals_per_lane_oracle` property pin it down.
//! Out-of-support proposals (and `sin θ ≤ 0`) are decided per lane and
//! masked out of the commit. The Rician likelihood couples σ into every
//! per-measurement term, so it falls back to the full per-lane evaluation.

use crate::mh::MhSampler;
use tracto_diffusion::posterior::{param_index as pi, NUM_PARAMETERS};
use tracto_diffusion::{
    Acquisition, BallSticksParams, BallSticksPosterior, NoiseLikelihood, PriorConfig,
};
use tracto_rng::RandomSource;

/// `(sin θ, cos θ, sin φ, cos φ)` of one stick.
type StickTrig = [f64; 4];

/// The trig of `(θ, φ)` — the `sin_cos` pair
/// [`Vec3::from_spherical`](tracto_volume::Vec3::from_spherical) takes of
/// each angle.
fn stick_trig(theta: f64, phi: f64) -> StickTrig {
    let (st, ct) = theta.sin_cos();
    let (sp, cp) = phi.sin_cos();
    [st, ct, sp, cp]
}

/// One chain as the wavefront sweep drives it: its voxel's signal, its
/// sampler and its own random stream.
pub trait WavefrontLane {
    /// The lane's random stream.
    type Rng: RandomSource;

    /// The voxel's measurements, one per acquisition row.
    fn signal(&self) -> &[f64];

    /// The lane's sampler and random stream.
    fn chain(&mut self) -> (&mut MhSampler<NUM_PARAMETERS>, &mut Self::Rng);
}

/// Column of stick `k`'s projections `g·dir` is `P + k`.
const P: usize = 0;
/// Column of stick `k`'s exponentials `exp(-b·d·(g·dir)²)` is `E + k`.
const E: usize = 2;
/// Column of the ball exponentials `exp(-b·d)`.
const ISO: usize = 4;

/// The columns a move of coordinate `j` restages.
fn touched(j: usize) -> &'static [usize] {
    match j {
        pi::D => &[ISO, E, E + 1],
        pi::TH1 | pi::PH1 => &[P, E],
        pi::TH2 | pi::PH2 => &[P + 1, E + 1],
        _ => &[],
    }
}

/// The stick a move of coordinate `j` turns, if any.
fn stick(j: usize) -> Option<usize> {
    match j {
        pi::TH1 | pi::PH1 => Some(0),
        pi::TH2 | pi::PH2 => Some(1),
        _ => None,
    }
}

/// The prior term `[ln sin θ₁, ln sin θ₂, ln σ, ARD]` a move of coordinate
/// `j` restages, if any.
fn restaged_term(j: usize, prior: PriorConfig) -> Option<usize> {
    match j {
        pi::TH1 => Some(0),
        pi::TH2 => Some(1),
        pi::SIGMA => Some(2),
        pi::F2 => prior.ard_weight.map(|_| 3),
        _ => None,
    }
}

/// A wavefront's posterior cache, structure-of-arrays: per-measurement
/// terms in `[measurement][lane]` columns; per-lane parameters, sums, trig
/// and prior terms in `[lane]` arrays. One set per worker thread is
/// rebound to each wavefront in turn ([`bind`](Self::bind)), so the hot
/// loop allocates nothing in steady state.
#[derive(Debug, Clone, Default)]
pub struct WavefrontBallSticks {
    width: usize,
    prior: PriorConfig,
    /// Rician likelihood couples σ into every term — evaluate exactly.
    exact: bool,
    /// `[measurement][lane]` signal.
    y: Vec<f64>,
    /// `[measurement][lane]` terms ([`P`], [`E`], [`ISO`]) at each lane's
    /// committed position, and as staged for the in-flight proposals.
    cols: [Vec<f64>; 5],
    staged: [Vec<f64>; 5],
    /// `[shell][lane]` ball exponential of each b-shell.
    shell_iso: Vec<f64>,
    /// `[parameter][lane]`: each lane's committed position, mirrored from
    /// its sampler so the passes read coordinates as arrays.
    cur: [Vec<f64>; NUM_PARAMETERS],
    // `[lane]`: committed residual sum, stick trig and prior terms
    // `[ln sin θ₁, ln sin θ₂, ln σ, ARD]` (`ln σ` doubles as the
    // likelihood's closing factor).
    sse: Vec<f64>,
    trig: Vec<[StickTrig; 2]>,
    prior_terms: Vec<[f64; 4]>,
    // `[lane]`: the in-flight proposal — whether the lane drew one, its
    // value of the moved coordinate, whether it is inside the support, the
    // one prior term it restages, its log density, and what the sweep
    // staged (residual sum, the moved stick's trig and direction).
    live: Vec<bool>,
    x: Vec<f64>,
    ok: Vec<bool>,
    s_term: Vec<f64>,
    ld: Vec<f64>,
    s_sse: Vec<f64>,
    s_trig: Vec<StickTrig>,
    dir: [Vec<f64>; 3],
    /// All ones on lanes that accepted, else zero.
    commit: Vec<u64>,
}

/// Resize each buffer to `len`, keeping the allocation.
fn fit<T: Clone + Default>(len: usize, bufs: &mut [&mut Vec<T>]) {
    for b in bufs {
        b.clear();
        b.resize(len, T::default());
    }
}

/// Gaussian log-likelihood from a known residual sum — the exact closing
/// expression of the plain evaluation. `sigma_ln` is `sigma.ln()`, cached
/// or freshly staged, so unchanged-σ proposals skip the logarithm.
fn gaussian_ll(n: usize, sigma: f64, sigma_ln: f64, sse: f64) -> f64 {
    let inv_two_var = 0.5 / (sigma * sigma);
    -(n as f64) * sigma_ln - sse * inv_two_var
}

/// Every lane's residual sum over the measurements, in measurement order
/// per lane, with `mu = s0·((1 − f1 − f2)·iso + f1·e1 + f2·e2)` written as
/// the plain evaluation writes it.
#[inline(always)]
fn sweep_sse(
    w: usize,
    y: &[f64],
    [iso, e1, e2]: [&[f64]; 3],
    [s0, f1, f2]: [&[f64]; 3],
    sse: &mut [f64],
) {
    sse.fill(0.0);
    let rows = y
        .chunks_exact(w)
        .zip(iso.chunks_exact(w))
        .zip(e1.chunks_exact(w).zip(e2.chunks_exact(w)));
    let coeffs = s0.iter().zip(f1).zip(f2);
    for ((y, iso), (e1, e2)) in rows {
        let terms = y.iter().zip(iso).zip(e1.iter().zip(e2));
        for ((sse, ((&y, &iso), (&e1, &e2))), ((&s0, &f1), &f2)) in
            sse.iter_mut().zip(terms).zip(coeffs.clone())
        {
            let mu = s0 * ((1.0 - f1 - f2) * iso + f1 * e1 + f2 * e2);
            let r = y - mu;
            *sse += r * r;
        }
    }
}

/// One stick's projections `p = g·dir` and exponentials `exp(-b·d·p²)`
/// for every lane: first the arguments, then the `exp` calls.
#[inline(always)]
fn stick_columns(
    acq: &Acquisition,
    w: usize,
    d: &[f64],
    dir: &[Vec<f64>; 3],
    p: &mut [f64],
    e: &mut [f64],
) {
    let lanes = dir[0].iter().zip(&dir[1]).zip(&dir[2]).zip(d);
    let rows = p.chunks_exact_mut(w).zip(e.chunks_exact_mut(w));
    for ((&b, g), (p, e)) in acq.bvals().iter().zip(acq.grads()).zip(rows) {
        for ((p, e), (((&dx, &dy), &dz), &d)) in p.iter_mut().zip(e).zip(lanes.clone()) {
            let pl = g.x * dx + g.y * dy + g.z * dz;
            *p = pl;
            *e = -b * d * pl * pl;
        }
    }
    exp_in_place(e);
}

/// The ball exponential `exp(-b·d)` of every lane, once per b-shell, then
/// copied to each measurement of the shell.
#[inline(always)]
fn ball_column(acq: &Acquisition, w: usize, d: &[f64], shell_iso: &mut [f64], iso: &mut [f64]) {
    for (b, out) in acq.shells().iter().zip(shell_iso.chunks_exact_mut(w)) {
        for (out, &d) in out.iter_mut().zip(d) {
            *out = -b * d;
        }
    }
    exp_in_place(shell_iso);
    for (&shell, iso) in acq.shell_indices().iter().zip(iso.chunks_exact_mut(w)) {
        for (iso, &ball) in iso.iter_mut().zip(&shell_iso[shell * w..]) {
            *iso = ball;
        }
    }
}

fn exp_in_place(v: &mut [f64]) {
    for x in v {
        *x = x.exp();
    }
}

/// Point `dir` along each lane's stick from its trig — the expression of
/// [`Vec3::from_spherical`](tracto_volume::Vec3::from_spherical).
fn aim(dir: &mut [Vec<f64>; 3], trig: impl Iterator<Item = StickTrig>) {
    for (l, [st, ct, sp, cp]) in trig.enumerate() {
        dir[0][l] = st * cp;
        dir[1][l] = st * sp;
        dir[2][l] = ct;
    }
}

/// Two distinct columns, mutably (`a < b`).
fn pair(cols: &mut [Vec<f64>; 5], a: usize, b: usize) -> (&mut [f64], &mut [f64]) {
    let (lo, hi) = cols.split_at_mut(b);
    (&mut lo[a], &mut hi[0])
}

/// `new` where the mask `m` is all ones, `old` where it is zero: a bitwise
/// select, so commits carry no data-dependent branch.
fn select(m: u64, new: f64, old: f64) -> f64 {
    f64::from_bits((old.to_bits() & !m) | (new.to_bits() & m))
}

/// Move `staged` into `committed` on the lanes that accepted: a buffer
/// swap when every lane did, else a per-lane select.
fn commit_column(w: usize, commit: &[u64], staged: &mut Vec<f64>, committed: &mut Vec<f64>) {
    if commit.iter().all(|&m| m == u64::MAX) {
        std::mem::swap(staged, committed);
        return;
    }
    for (c, s) in committed.chunks_exact_mut(w).zip(staged.chunks_exact(w)) {
        for ((c, &s), &m) in c.iter_mut().zip(s).zip(commit) {
            *c = select(m, s, *c);
        }
    }
}

impl WavefrontBallSticks {
    /// Fresh, empty buffers (sized on first [`bind`](Self::bind)).
    pub fn new() -> Self {
        WavefrontBallSticks::default()
    }

    /// Bind the buffers to one wavefront — one lane per chain, each chain
    /// at its sampler's current position — and build every lane's cache
    /// with the sweeps' own expressions. Call again whenever a sampler's
    /// position changed by other means (restore, external update).
    pub fn bind<L: WavefrontLane>(
        &mut self,
        acq: &Acquisition,
        prior: PriorConfig,
        lanes: &mut [L],
    ) {
        let (w, n) = (lanes.len(), acq.len());
        self.width = w;
        self.prior = prior;
        self.exact = prior.likelihood != NoiseLikelihood::Gaussian;
        fit(n * w, &mut [&mut self.y]);
        fit(n * w, &mut self.cols.each_mut());
        fit(n * w, &mut self.staged.each_mut());
        fit(acq.shells().len() * w, &mut [&mut self.shell_iso]);
        fit(w, &mut self.cur.each_mut());
        fit(w, &mut self.dir.each_mut());
        fit(w, &mut [&mut self.sse, &mut self.s_sse, &mut self.x]);
        fit(w, &mut [&mut self.s_term, &mut self.ld]);
        fit(w, &mut [&mut self.live, &mut self.ok]);
        fit(w, &mut [&mut self.trig]);
        fit(w, &mut [&mut self.prior_terms]);
        fit(w, &mut [&mut self.s_trig]);
        fit(w, &mut [&mut self.commit]);
        for (l, lane) in lanes.iter_mut().enumerate() {
            let params = *lane.chain().0.params();
            for (cur, v) in self.cur.iter_mut().zip(params) {
                cur[l] = v;
            }
            for (i, &v) in lane.signal().iter().enumerate() {
                self.y[i * w + l] = v;
            }
            let p = BallSticksParams::from_array(params);
            let trig = [stick_trig(p.th1, p.ph1), stick_trig(p.th2, p.ph2)];
            self.trig[l] = trig;
            self.prior_terms[l] = [
                trig[0][0].abs().ln(),
                trig[1][0].abs().ln(),
                p.sigma.ln(),
                match prior.ard_weight {
                    Some(a) => a * (1.0 - p.f2).ln(),
                    None => 0.0,
                },
            ];
        }
        if self.exact {
            return;
        }
        let d = &self.cur[pi::D];
        for k in 0..2 {
            aim(&mut self.dir, self.trig.iter().map(|t| t[k]));
            let (p, e) = pair(&mut self.cols, P + k, E + k);
            stick_columns(acq, w, d, &self.dir, p, e);
        }
        ball_column(acq, w, d, &mut self.shell_iso, &mut self.cols[ISO]);
        let c = &self.cols;
        let cur = &self.cur;
        let coeffs = [&cur[pi::S0][..], &cur[pi::F1][..], &cur[pi::F2][..]];
        sweep_sse(
            w,
            &self.y,
            [&c[ISO], &c[E], &c[E + 1]],
            coeffs,
            &mut self.sse,
        );
    }

    /// One MH loop of every lane whose `active` flag is set, in lockstep:
    /// each parameter in turn is proposed on every lane, evaluated in one
    /// sweep, decided per lane and committed. Inactive lanes draw nothing
    /// and do not move. `lanes` must be the wavefront last
    /// [`bind`](Self::bind)-ed, with `acq` the protocol it was bound with.
    pub fn step_loop<L: WavefrontLane>(
        &mut self,
        acq: &Acquisition,
        lanes: &mut [L],
        active: &[bool],
    ) {
        debug_assert_eq!(lanes.len(), self.width, "lanes differ from the binding");
        for j in 0..NUM_PARAMETERS {
            self.draw(lanes, active, j);
            if self.exact {
                self.exact_density(acq, lanes);
            } else {
                self.stage(j);
                if j != pi::SIGMA && self.ok.contains(&true) {
                    if self.width == 1 {
                        self.sweep::<1>(acq, j);
                    } else {
                        self.sweep::<0>(acq, j);
                    }
                }
                self.density(acq.len(), j);
            }
            self.decide(lanes, j);
        }
        for (lane, &on) in lanes.iter_mut().zip(active) {
            if on {
                lane.chain().0.end_loop();
            }
        }
    }

    /// Pass 1: every active lane whose coordinate `j` is not frozen draws
    /// its proposal from its own stream.
    fn draw<L: WavefrontLane>(&mut self, lanes: &mut [L], active: &[bool], j: usize) {
        for (l, lane) in lanes.iter_mut().enumerate() {
            let (sampler, rng) = lane.chain();
            self.live[l] = active[l] && !sampler.is_frozen(j);
            if self.live[l] {
                let old = sampler.propose_param(j, rng);
                debug_assert_eq!(
                    old.to_bits(),
                    self.cur[j][l].to_bits(),
                    "lane {l} out of sync"
                );
                self.x[l] = sampler.params()[j];
            }
        }
    }

    /// The Rician fallback: each drawn lane's full plain evaluation.
    fn exact_density<L: WavefrontLane>(&mut self, acq: &Acquisition, lanes: &mut [L]) {
        for (l, lane) in lanes.iter_mut().enumerate() {
            if self.live[l] {
                let p = BallSticksParams::from_array(*lane.chain().0.params());
                let post = BallSticksPosterior::new(acq, lane.signal(), self.prior);
                self.ld[l] = post.log_posterior(&p);
            }
        }
    }

    /// Pass 1, continued: what needs no sweep — the support check, the one
    /// prior term coordinate `j` can touch, the moved stick's trig — and
    /// each lane's log prior (in `ld`).
    fn stage(&mut self, j: usize) {
        let w = self.width;
        let prior = self.prior;
        let (x, ok, live) = (&self.x[..w], &mut self.ok[..w], &self.live[..w]);
        // The committed position is inside the support, so only the moved
        // coordinate's own comparisons of the plain prior can fail.
        let outside = |l: usize| -> bool {
            let v = x[l];
            match j {
                pi::S0 => v <= 0.0,
                pi::D => v <= 0.0 || v > prior.d_max,
                pi::SIGMA => v <= 0.0 || v > prior.sigma_max,
                pi::F1 => !(0.0..=1.0).contains(&v) || v + self.cur[pi::F2][l] > 1.0,
                pi::F2 => !(0.0..=1.0).contains(&v) || self.cur[pi::F1][l] + v > 1.0,
                _ => false,
            }
        };
        for l in 0..w {
            ok[l] = live[l] && !outside(l);
        }
        // A direction move stages its stick's trig, recomputing only the
        // moved angle's `sin_cos`; a θ with `sin θ ≤ 0` leaves the support
        // exactly as in the plain prior. Every lane is computed, inside the
        // support or not: no branch, and a lane outside never commits.
        let over = restaged_term(j, prior);
        if let Some(k) = stick(j) {
            let polar = matches!(j, pi::TH1 | pi::TH2);
            for l in 0..w {
                let [st, ct, sp, cp] = self.trig[l][k];
                self.s_trig[l] = if polar {
                    let (st, ct) = x[l].sin_cos();
                    let s = st.abs();
                    let pole = s <= 0.0;
                    ok[l] &= !pole;
                    self.s_term[l] = s.ln();
                    [st, ct, sp, cp]
                } else {
                    let (sp, cp) = x[l].sin_cos();
                    [st, ct, sp, cp]
                };
            }
            aim(&mut self.dir, self.s_trig[..w].iter().copied());
        } else if let Some(k) = over {
            let ard = prior.ard_weight.unwrap_or(0.0);
            for (t, &v) in self.s_term.iter_mut().zip(x) {
                *t = if k == 2 { v.ln() } else { ard * (1.0 - v).ln() };
            }
        }
        // The committed terms with at most one restaged — the plain prior's
        // values summed in its association.
        for l in 0..w {
            let mut t = self.prior_terms[l];
            if let Some(k) = over {
                t[k] = self.s_term[l];
            }
            let lp = t[0] + t[1] - t[2];
            self.ld[l] = if prior.ard_weight.is_some() {
                lp + t[3]
            } else {
                lp
            };
        }
    }

    /// Pass 2: one lane-inner sweep over the measurements stages the
    /// columns coordinate `j` touches and every lane's residual sum. Lanes
    /// outside the support are computed too, on their own inputs, and
    /// never committed. `W` is the width when known at compile time (a
    /// one-lane wavefront, whose lane loops then vanish), 0 otherwise.
    fn sweep<const W: usize>(&mut self, acq: &Acquisition, j: usize) {
        let w = if W == 0 { self.width } else { W };
        let (c, x) = (&self.cur, &self.x[..w]);
        let mut coeffs = [&c[pi::S0][..], &c[pi::F1][..], &c[pi::F2][..]];
        match j {
            pi::S0 => coeffs[0] = x,
            pi::F1 => coeffs[1] = x,
            pi::F2 => coeffs[2] = x,
            _ => {}
        }
        let d = if j == pi::D { x } else { &c[pi::D][..] };
        if j == pi::D {
            ball_column(acq, w, d, &mut self.shell_iso, &mut self.staged[ISO]);
            let (e1, e2) = pair(&mut self.staged, E, E + 1);
            let rows = e1.chunks_exact_mut(w).zip(e2.chunks_exact_mut(w));
            let committed = self.cols[P]
                .chunks_exact(w)
                .zip(self.cols[P + 1].chunks_exact(w));
            for ((&b, (e1, e2)), (p1, p2)) in acq.bvals().iter().zip(rows).zip(committed) {
                let lanes = e1.iter_mut().zip(e2.iter_mut()).zip(p1.iter().zip(p2));
                for (((e1, e2), (&p1, &p2)), &d) in lanes.zip(d) {
                    *e1 = -b * d * p1 * p1;
                    *e2 = -b * d * p2 * p2;
                }
            }
            exp_in_place(e1);
            exp_in_place(e2);
        } else if let Some(k) = stick(j) {
            let (p, e) = pair(&mut self.staged, P + k, E + k);
            stick_columns(acq, w, d, &self.dir, p, e);
        }
        // The residuals, with each column `j` touches taken as staged.
        let col = |i: usize| -> &[f64] {
            if touched(j).contains(&i) {
                &self.staged[i]
            } else {
                &self.cols[i]
            }
        };
        let terms = [col(ISO), col(E), col(E + 1)];
        sweep_sse(w, &self.y, terms, coeffs, &mut self.s_sse);
    }

    /// Each lane's log density at its proposal: its log prior plus the
    /// Gaussian likelihood from the staged (or, for a σ move, committed)
    /// residual sum; `-∞` outside the support.
    fn density(&mut self, n: usize, j: usize) {
        let sigma_move = j == pi::SIGMA;
        let sigma = if sigma_move {
            &self.x
        } else {
            &self.cur[pi::SIGMA]
        };
        let sse = if sigma_move { &self.sse } else { &self.s_sse };
        for (l, ld) in self.ld[..self.width].iter_mut().enumerate() {
            // A σ move: its staged log and the committed residuals; any
            // other move: the committed log and the staged residuals.
            let sigma_ln = if sigma_move {
                self.s_term[l]
            } else {
                self.prior_terms[l][2]
            };
            *ld = if self.ok[l] {
                *ld + gaussian_ll(n, sigma[l], sigma_ln, sse[l])
            } else {
                f64::NEG_INFINITY
            };
        }
    }

    /// Passes 3 and 4: each lane that drew decides on its proposal (drawing
    /// its accept uniform as the plain step does); then, branch-free,
    /// accepted lanes fold their staged terms in and commit their staged
    /// columns.
    fn decide<L: WavefrontLane>(&mut self, lanes: &mut [L], j: usize) {
        let w = self.width;
        for (l, lane) in lanes.iter_mut().enumerate() {
            let accepted = self.live[l] && {
                let (sampler, rng) = lane.chain();
                sampler.decide_param(j, self.cur[j][l], self.ld[l], rng)
            };
            self.commit[l] = u64::from(accepted).wrapping_neg();
        }
        // An accepted lane is inside the support (its density is finite),
        // so everything it staged is valid.
        let m = &self.commit[..w];
        for ((cur, &x), &m) in self.cur[j].iter_mut().zip(&self.x).zip(m) {
            *cur = select(m, x, *cur);
        }
        if self.exact || !m.contains(&u64::MAX) {
            return;
        }
        if let Some(k) = restaged_term(j, self.prior) {
            for ((t, &s), &m) in self.prior_terms.iter_mut().zip(&self.s_term).zip(m) {
                t[k] = select(m, s, t[k]);
            }
        }
        if let Some(k) = stick(j) {
            for ((t, s), &m) in self.trig.iter_mut().zip(&self.s_trig).zip(m) {
                for (c, &s) in t[k].iter_mut().zip(s) {
                    *c = select(m, s, *c);
                }
            }
        }
        if j == pi::SIGMA {
            return;
        }
        for ((sse, &s), &m) in self.sse.iter_mut().zip(&self.s_sse).zip(m) {
            *sse = select(m, s, *sse);
        }
        for &i in touched(j) {
            commit_column(w, m, &mut self.staged[i], &mut self.cols[i]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mh::AdaptScheme;
    use crate::voxelwise::default_proposal_scales;
    use tracto_diffusion::{BallSticksModel, DiffusionModel};
    use tracto_rng::HybridTaus;
    use tracto_volume::Vec3;

    struct Lane(Vec<f64>, MhSampler<NUM_PARAMETERS>, HybridTaus);

    impl WavefrontLane for Lane {
        type Rng = HybridTaus;
        fn signal(&self) -> &[f64] {
            &self.0
        }
        fn chain(&mut self) -> (&mut MhSampler<NUM_PARAMETERS>, &mut HybridTaus) {
            (&mut self.1, &mut self.2)
        }
    }

    /// `width` lanes on `buf` — each its own noisy two-stick voxel, tensor-fit
    /// start and seed stream, scales × `scale` — against their plain chains
    /// on the same streams, compared after every loop.
    fn run_pair(
        buf: &mut WavefrontBallSticks,
        prior: PriorConfig,
        width: usize,
        scale: f64,
        loops: u32,
        seed: u64,
    ) {
        let acq = tracto_phantom::gradients::test_protocol(seed);
        let signals: Vec<Vec<f64>> = (0..width)
            .map(|k| {
                let dirs = vec![
                    Vec3::new(1.0, 0.3 * k as f64, 0.2),
                    Vec3::new(0.1, -0.4, 1.0),
                ];
                let model = BallSticksModel::new(110.0 + k as f64, 1.4e-3, vec![0.55, 0.2], dirs);
                let noise = (0..).map(|i: usize| ((i * 7 + k) % 5) as f64 - 2.0);
                model
                    .predict_protocol(&acq)
                    .iter()
                    .zip(noise)
                    .map(|(s, e)| s + e)
                    .collect()
            })
            .collect();
        let posts: Vec<_> = signals
            .iter()
            .map(|s| BallSticksPosterior::new(&acq, s, prior))
            .collect();
        let plains: Vec<_> = posts
            .iter()
            .map(|post| move |p: &[f64; 9]| post.log_posterior(&BallSticksParams::from_array(*p)))
            .collect();
        let mut oracle: Vec<_> = (0..width)
            .map(|k| {
                let init = posts[k].initial_params();
                let scales = default_proposal_scales(init.s0).map(|s| s * scale);
                let adapt = AdaptScheme::paper_default();
                let s = MhSampler::new(&plains[k], init.to_array(), scales, adapt);
                (s, HybridTaus::seed_stream(seed, k as u64))
            })
            .collect();
        let mut lanes: Vec<Lane> = oracle
            .iter()
            .zip(&signals)
            .map(|((s, r), y)| Lane(y.clone(), s.clone(), r.clone()))
            .collect();
        buf.bind(&acq, prior, &mut lanes);
        for loop_i in 0..loops {
            buf.step_loop(&acq, &mut lanes, &vec![true; width]);
            for (k, ((a, r), lane)) in oracle.iter_mut().zip(&lanes).enumerate() {
                a.step_loop(&plains[k], r);
                assert_eq!(
                    a.snapshot(),
                    lane.1.snapshot(),
                    "lane {k} diverged at loop {loop_i}"
                );
            }
        }
    }

    #[test]
    fn cached_chain_matches_plain_chain_exactly() {
        let mut buf = WavefrontBallSticks::new();
        run_pair(&mut buf, PriorConfig::default(), 3, 1.0, 400, 41);
    }

    #[test]
    fn cached_chain_matches_with_ard_prior() {
        let prior = PriorConfig {
            ard_weight: Some(3.0),
            ..PriorConfig::default()
        };
        run_pair(&mut WavefrontBallSticks::new(), prior, 2, 1.0, 250, 42);
    }

    #[test]
    fn rician_fallback_matches_plain_chain_exactly() {
        let prior = PriorConfig {
            likelihood: NoiseLikelihood::Rician,
            ..PriorConfig::default()
        };
        run_pair(&mut WavefrontBallSticks::new(), prior, 2, 1.0, 150, 43);
    }

    #[test]
    fn rebinding_buffers_across_voxels_stays_exact() {
        // The same buffer set, rebound to wavefronts of other widths and
        // signals, must re-initialize cleanly — the thread-local reuse
        // shape the estimation driver relies on.
        let mut buf = WavefrontBallSticks::new();
        for (width, seed) in [(5, 7), (1, 8), (3, 9)] {
            run_pair(&mut buf, PriorConfig::default(), width, 1.0, 120, seed);
        }
    }

    #[test]
    fn out_of_support_proposals_reject_without_corrupting_cache() {
        // Huge proposal scales make most proposals leave the support; each
        // lane's cache must stay in sync through long reject runs.
        let mut buf = WavefrontBallSticks::new();
        run_pair(&mut buf, PriorConfig::default(), 4, 50.0, 300, 44);
    }
}
