//! Box–Muller Gaussian variates.
//!
//! The MH proposal in the paper draws its Gaussian perturbation by the
//! Box–Muller transformation of two uniform variates (the paper's "three
//! random numbers per MH step": two for the Gaussian proposal, one for the
//! accept/reject draw).

use crate::RandomSource;

/// A Gaussian variate source wrapping any [`RandomSource`].
///
/// Each Box–Muller evaluation yields two independent standard normals; the
/// second is cached, so amortized cost is one `ln`, one `sqrt`, one
/// `sin_cos` per two variates — the same arithmetic the GPU kernel performs.
#[derive(Debug, Clone)]
pub struct BoxMuller<R> {
    source: R,
    cached: Option<f64>,
}

impl<R: RandomSource> BoxMuller<R> {
    /// Wrap a uniform source.
    pub fn new(source: R) -> Self {
        BoxMuller {
            source,
            cached: None,
        }
    }

    /// Next standard normal N(0, 1).
    #[inline]
    pub fn next_standard(&mut self) -> f64 {
        if let Some(z) = self.cached.take() {
            return z;
        }
        let u1 = self.source.next_f64();
        let u2 = self.source.next_f64();
        let r = (-2.0 * u1.ln()).sqrt();
        let (s, c) = (std::f64::consts::TAU * u2).sin_cos();
        self.cached = Some(r * s);
        r * c
    }

    /// Next normal with the given mean and standard deviation.
    #[inline]
    pub fn next(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.next_standard()
    }

    /// Access the underlying uniform source (e.g. for the accept/reject
    /// uniform draw of the same lane).
    pub fn source_mut(&mut self) -> &mut R {
        &mut self.source
    }

    /// Unwrap the source.
    pub fn into_source(self) -> R {
        self.source
    }
}

/// One-shot Box–Muller: transform two uniforms in (0,1) into two independent
/// standard normals. This is the exact kernel-side primitive; [`BoxMuller`]
/// is the buffered convenience wrapper.
#[inline]
pub fn box_muller_pair(u1: f64, u2: f64) -> (f64, f64) {
    debug_assert!(u1 > 0.0 && u1 < 1.0 && u2 > 0.0 && u2 < 1.0);
    let r = (-2.0 * u1.ln()).sqrt();
    let (s, c) = (std::f64::consts::TAU * u2).sin_cos();
    (r * c, r * s)
}

/// The first variate of [`box_muller_pair`] alone, `r · cos(2π u₂)`, for
/// callers that discard the second: it skips the `sin` and is bit-equal to
/// `box_muller_pair(u1, u2).0` (the pair's `sin_cos` is a `sin` and a
/// `cos` of the same argument).
#[inline]
pub fn box_muller_cos(u1: f64, u2: f64) -> f64 {
    debug_assert!(u1 > 0.0 && u1 < 1.0 && u2 > 0.0 && u2 < 1.0);
    let r = (-2.0 * u1.ln()).sqrt();
    r * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HybridTaus;

    #[test]
    fn standard_normal_moments() {
        let mut g = BoxMuller::new(HybridTaus::new(42));
        const N: usize = 200_000;
        let mut sum = 0.0;
        let mut sum2 = 0.0;
        let mut sum3 = 0.0;
        let mut sum4 = 0.0;
        for _ in 0..N {
            let z = g.next_standard();
            sum += z;
            sum2 += z * z;
            sum3 += z * z * z;
            sum4 += z * z * z * z;
        }
        let n = N as f64;
        let mean = sum / n;
        let var = sum2 / n - mean * mean;
        let skew = sum3 / n;
        let kurt = sum4 / n;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "var {var}");
        assert!(skew.abs() < 0.05, "skewness {skew}");
        assert!((kurt - 3.0).abs() < 0.1, "kurtosis {kurt}");
    }

    #[test]
    fn scaled_normal_moments() {
        let mut g = BoxMuller::new(HybridTaus::new(7));
        const N: usize = 100_000;
        let (mu, sigma) = (3.0, 0.5);
        let mut sum = 0.0;
        let mut sum2 = 0.0;
        for _ in 0..N {
            let z = g.next(mu, sigma);
            sum += z;
            sum2 += z * z;
        }
        let mean = sum / N as f64;
        let var = sum2 / N as f64 - mean * mean;
        assert!((mean - mu).abs() < 0.01);
        assert!((var - sigma * sigma).abs() < 0.01);
    }

    #[test]
    fn pair_function_finite_for_extreme_uniforms() {
        let tiny = f64::MIN_POSITIVE;
        let (a, b) = box_muller_pair(tiny, 0.5);
        assert!(a.is_finite() && b.is_finite());
        let (a, b) = box_muller_pair(1.0 - 1e-16, 1.0 - 1e-16);
        assert!(a.is_finite() && b.is_finite());
    }

    #[test]
    fn cos_only_draw_is_bit_equal_to_the_pair_first_variate() {
        let mut g = HybridTaus::new(31);
        for _ in 0..100_000 {
            let u1 = crate::RandomSource::next_f64(&mut g);
            let u2 = crate::RandomSource::next_f64(&mut g);
            assert_eq!(
                box_muller_cos(u1, u2).to_bits(),
                box_muller_pair(u1, u2).0.to_bits(),
                "u1 {u1:e}, u2 {u2:e}"
            );
        }
        for (u1, u2) in [
            (f64::MIN_POSITIVE, 0.5),
            (1.0 - 1e-16, 1.0 - 1e-16),
            (0.5, 0.25),
        ] {
            assert_eq!(
                box_muller_cos(u1, u2).to_bits(),
                box_muller_pair(u1, u2).0.to_bits()
            );
        }
    }

    #[test]
    fn pair_values_independent_dimensions() {
        // The two outputs of one transform are uncorrelated by construction;
        // sanity-check empirically.
        let mut g = HybridTaus::new(99);
        const N: usize = 50_000;
        let mut sxy = 0.0;
        for _ in 0..N {
            let (a, b) = box_muller_pair(
                crate::RandomSource::next_f64(&mut g),
                crate::RandomSource::next_f64(&mut g),
            );
            sxy += a * b;
        }
        assert!((sxy / N as f64).abs() < 0.02);
    }

    #[test]
    fn cached_value_used_once() {
        let mut g1 = BoxMuller::new(HybridTaus::new(5));
        let mut g2 = BoxMuller::new(HybridTaus::new(5));
        // Drawing four values one at a time equals drawing two pairs.
        let seq: Vec<f64> = (0..4).map(|_| g1.next_standard()).collect();
        let (a, b) = {
            let s = g2.source_mut();
            let u1 = s.next_f64();
            let u2 = s.next_f64();
            box_muller_pair(u1, u2)
        };
        assert_eq!(seq[0], a);
        assert_eq!(seq[1], b);
    }

    #[test]
    fn tail_probability_reasonable() {
        let mut g = BoxMuller::new(HybridTaus::new(2025));
        const N: usize = 100_000;
        let beyond_2 = (0..N).filter(|_| g.next_standard().abs() > 2.0).count();
        let frac = beyond_2 as f64 / N as f64;
        // P(|Z| > 2) ≈ 0.0455.
        assert!(
            (frac - 0.0455).abs() < 0.005,
            "two-sigma tail fraction {frac}"
        );
    }
}
