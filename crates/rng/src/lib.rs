//! Combined Tausworthe PRNG and Box–Muller transform.
//!
//! The paper generates all randomness on the device with the *hybrid*
//! combined generator of GPU Gems 3 (ch. 37): three Tausworthe steps XOR'd
//! with a 32-bit LCG step. Pre-generating random numbers on the host is
//! infeasible — the paper computes `NumVoxels × NumLoops × NumParameters × 3`
//! values (> 20 GB) — so each simulated GPU lane owns an independent
//! generator state, exactly as in the original implementation.
//!
//! This crate provides:
//!
//! * [`HybridTaus`] — the combined Tausworthe + LCG generator;
//! * [`BoxMuller`] — Gaussian variates via the Box–Muller transform
//!   (the paper's source of proposal noise), built on any [`RandomSource`];
//! * [`dist`] — small distribution helpers (uniform range, unit sphere,
//!   exponential) used by the phantom generator and tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dist;

mod boxmuller;
mod taus;

pub use boxmuller::{box_muller_cos, box_muller_pair, BoxMuller};
pub use taus::HybridTaus;

/// A deterministic source of uniform random `u32`s / floats.
///
/// Implemented by [`HybridTaus`]; the MCMC and tracking kernels are generic
/// over this trait so tests can substitute counting or constant sources.
pub trait RandomSource {
    /// Next raw 32-bit value.
    fn next_u32(&mut self) -> u32;

    /// Uniform `f64` in the open interval `(0, 1)`.
    ///
    /// The end points are excluded so that `ln(u)` and `ln(1-u)` are always
    /// finite — both Box–Muller and exponential inversion depend on this.
    #[inline]
    fn next_f64(&mut self) -> f64 {
        // 2^-32 scaling of (x + 0.5) maps {0 … 2^32-1} into (0, 1).
        (self.next_u32() as f64 + 0.5) * 2.328_306_436_538_696_3e-10
    }

    /// Uniform `f32` in `(0, 1)`.
    #[inline]
    fn next_f32(&mut self) -> f32 {
        self.next_f64() as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Counting(u32);
    impl RandomSource for Counting {
        fn next_u32(&mut self) -> u32 {
            let v = self.0;
            self.0 = self.0.wrapping_add(1);
            v
        }
    }

    #[test]
    fn next_f64_open_interval_extremes() {
        let mut lo = Counting(0);
        let v = lo.next_f64();
        assert!(v > 0.0 && v < 1e-9);
        let mut hi = Counting(u32::MAX);
        let v = hi.next_f64();
        assert!(v < 1.0 && v > 1.0 - 1e-9);
    }

    #[test]
    fn next_f32_in_open_interval() {
        let mut c = Counting(0);
        for _ in 0..100 {
            let v = c.next_f32();
            assert!(v > 0.0 && v < 1.0);
        }
    }
}
