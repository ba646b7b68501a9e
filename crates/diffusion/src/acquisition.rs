//! The DWI acquisition protocol: b-values and gradient directions.

use std::collections::HashMap;

use tracto_volume::Vec3;

/// The experimental parameters of a DWI scan: one `(b, ĝ)` pair per
/// measurement. These are the "known experimental parameters" of Section
/// III-A of the paper (gradient directions `r̂ᵢ` and b-values `bᵢ`).
#[derive(Debug, Clone, PartialEq)]
pub struct Acquisition {
    bvals: Vec<f64>,
    grads: Vec<Vec3>,
    /// Distinct b-values (bit-equal ones grouped), in first-seen order.
    shells: Vec<f64>,
    /// Per measurement, the index of its b-value in `shells`.
    shell_of: Vec<usize>,
}

impl Acquisition {
    /// Build from parallel vectors of b-values and (unnormalized) gradient
    /// directions. Gradients of b>0 measurements are normalized; gradients of
    /// b=0 measurements are kept as given (conventionally zero).
    ///
    /// # Panics
    /// If the two vectors differ in length or are empty, or if a b > 0
    /// gradient normalizes to zero (a zero vector, or one whose norm
    /// overflows) — the same rows every protocol decoder refuses.
    pub fn new(bvals: Vec<f64>, grads: Vec<Vec3>) -> Self {
        assert_eq!(bvals.len(), grads.len(), "bvals and gradients must pair up");
        assert!(!bvals.is_empty(), "acquisition must contain measurements");
        let grads = bvals
            .iter()
            .zip(grads)
            .enumerate()
            .map(|(i, (&b, g))| {
                if b > 0.0 {
                    let n = g.normalized();
                    assert!(
                        n != Vec3::ZERO,
                        "measurement {i}: b = {b} needs a nonzero gradient, got {g:?}"
                    );
                    n
                } else {
                    g
                }
            })
            .collect();
        // Keyed on the bits, so grouping stays linear in the measurement
        // count however many distinct b-values an uploaded protocol holds.
        let mut shells: Vec<f64> = Vec::new();
        let mut shell_by_bits: HashMap<u64, usize> = HashMap::new();
        let shell_of = bvals
            .iter()
            .map(|&b| {
                *shell_by_bits.entry(b.to_bits()).or_insert_with(|| {
                    shells.push(b);
                    shells.len() - 1
                })
            })
            .collect();
        Acquisition {
            bvals,
            grads,
            shells,
            shell_of,
        }
    }

    /// Number of measurements (the `n` of the 4-D input volume).
    #[inline]
    pub fn len(&self) -> usize {
        self.bvals.len()
    }

    /// True when there are no measurements (never for valid protocols).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.bvals.is_empty()
    }

    /// b-value of measurement `i`.
    #[inline]
    pub fn bval(&self, i: usize) -> f64 {
        self.bvals[i]
    }

    /// Gradient direction of measurement `i` (unit for b>0).
    #[inline]
    pub fn grad(&self, i: usize) -> Vec3 {
        self.grads[i]
    }

    /// All b-values.
    #[inline]
    pub fn bvals(&self) -> &[f64] {
        &self.bvals
    }

    /// All gradient directions.
    #[inline]
    pub fn grads(&self) -> &[Vec3] {
        &self.grads
    }

    /// The b-shells: distinct b-values, bit-equal ones grouped, in the
    /// order they first appear. Any per-measurement quantity that depends
    /// on the b-value alone (the ball compartment's `exp(-b·d)`) is the
    /// same bits for every measurement of a shell, so it can be computed
    /// once per shell.
    #[inline]
    pub fn shells(&self) -> &[f64] {
        &self.shells
    }

    /// Per measurement, the index of its b-value in [`shells`](Self::shells).
    #[inline]
    pub fn shell_indices(&self) -> &[usize] {
        &self.shell_of
    }

    /// Indices of b=0 (non-diffusion-weighted) measurements.
    pub fn b0_indices(&self) -> Vec<usize> {
        self.bvals
            .iter()
            .enumerate()
            .filter_map(|(i, &b)| (b == 0.0).then_some(i))
            .collect()
    }

    /// Indices of diffusion-weighted (b>0) measurements.
    pub fn dwi_indices(&self) -> Vec<usize> {
        self.bvals
            .iter()
            .enumerate()
            .filter_map(|(i, &b)| (b > 0.0).then_some(i))
            .collect()
    }

    /// Mean of the values at the b=0 indices of a signal vector — the `S₀`
    /// estimate used to initialize chains and normalize signals.
    pub fn mean_b0(&self, signal: &[f64]) -> f64 {
        let idx = self.b0_indices();
        if idx.is_empty() {
            return signal.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        }
        idx.iter().map(|&i| signal[i]).sum::<f64>() / idx.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn protocol() -> Acquisition {
        Acquisition::new(
            vec![0.0, 1000.0, 1000.0, 0.0],
            vec![
                Vec3::ZERO,
                Vec3::new(2.0, 0.0, 0.0),
                Vec3::new(0.0, 3.0, 0.0),
                Vec3::ZERO,
            ],
        )
    }

    #[test]
    fn gradients_normalized_for_dwi_only() {
        let a = protocol();
        assert_eq!(a.grad(1), Vec3::X);
        assert_eq!(a.grad(2), Vec3::Y);
        assert_eq!(a.grad(0), Vec3::ZERO);
    }

    #[test]
    #[should_panic(expected = "measurement 1: b = 1000 needs a nonzero gradient")]
    fn zero_gradient_dwi_row_panics() {
        let _ = Acquisition::new(vec![0.0, 1000.0], vec![Vec3::ZERO, Vec3::ZERO]);
    }

    #[test]
    #[should_panic(expected = "needs a nonzero gradient")]
    fn overflowing_gradient_dwi_row_panics() {
        // The norm overflows to infinity, so the normalized gradient is zero.
        let _ = Acquisition::new(vec![1000.0], vec![Vec3::new(1e300, 0.0, 0.0)]);
    }

    #[test]
    fn index_partitions() {
        let a = protocol();
        assert_eq!(a.b0_indices(), vec![0, 3]);
        assert_eq!(a.dwi_indices(), vec![1, 2]);
        assert_eq!(a.len(), 4);
    }

    #[test]
    fn mean_b0_averages_b0_samples() {
        let a = protocol();
        let s0 = a.mean_b0(&[100.0, 40.0, 50.0, 120.0]);
        assert_eq!(s0, 110.0);
    }

    #[test]
    fn mean_b0_without_b0_falls_back_to_max() {
        let a = Acquisition::new(vec![1000.0, 1000.0], vec![Vec3::X, Vec3::Y]);
        assert_eq!(a.mean_b0(&[10.0, 30.0]), 30.0);
    }

    #[test]
    fn shells_group_bit_equal_bvalues_in_first_seen_order() {
        let a = Acquisition::new(
            vec![
                1000.0,
                0.0,
                2000.0,
                1000.0,
                0.0,
                -0.0,
                2000.0,
                1000.0 + 1e-9,
            ],
            vec![Vec3::X; 8],
        );
        // -0.0 == 0.0 numerically but not bitwise, so it is its own shell;
        // so is a b-value 1e-9 away from 1000.
        assert_eq!(a.shells().len(), 5);
        assert_eq!(a.shells()[..3], [1000.0, 0.0, 2000.0]);
        assert_eq!(a.shells()[3].to_bits(), (-0.0f64).to_bits());
        assert_eq!(a.shells()[4], 1000.0 + 1e-9);
        assert_eq!(a.shell_indices(), &[0, 1, 2, 0, 1, 3, 2, 4]);
        for i in 0..a.len() {
            assert_eq!(
                a.shells()[a.shell_indices()[i]].to_bits(),
                a.bval(i).to_bits()
            );
        }
        assert_eq!(protocol().shells(), &[0.0, 1000.0]);
    }

    #[test]
    fn many_distinct_bvalues_group_in_linear_time() {
        // One shell per measurement: a quadratic grouping would make
        // ~2·10^10 comparisons here.
        let n = 200_000;
        let t = std::time::Instant::now();
        let a = Acquisition::new((0..n).map(f64::from).collect(), vec![Vec3::X; n as usize]);
        assert_eq!(a.shells().len(), n as usize);
        assert!(a.shell_indices().iter().enumerate().all(|(i, &s)| i == s));
        assert!(
            t.elapsed().as_secs_f64() < 5.0,
            "grouping {n} distinct b-values took {:?}",
            t.elapsed()
        );
    }

    #[test]
    #[should_panic(expected = "pair up")]
    fn mismatched_lengths_panic() {
        let _ = Acquisition::new(vec![0.0], vec![]);
    }
}
