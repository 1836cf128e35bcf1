//! Expectation values over measured outcome data.
//!
//! Some workloads judge runs by an expectation rather than a single
//! bitstring; GHZ coherence, for one, shows up in parity expectations.
//! These helpers evaluate diagonal Pauli observables directly from shot
//! histograms.

use crate::Counts;

/// Expectation of the Pauli-Z operator on classical bit `bit`:
/// `⟨Z⟩ = P(0) - P(1)`, in `[-1, 1]`.
///
/// # Panics
///
/// Panics if `bit` is outside the histogram's register or no shots were
/// recorded.
///
/// # Examples
///
/// ```
/// use qsim::{observables, Counts};
/// let mut c = Counts::new(1);
/// c.extend([0, 0, 0, 1]);
/// assert!((observables::expectation_z(&c, 0) - 0.5).abs() < 1e-12);
/// ```
pub fn expectation_z(counts: &Counts, bit: u32) -> f64 {
    assert!(bit < counts.num_clbits(), "bit {bit} out of range");
    assert!(counts.shots() > 0, "empty histogram");
    let mut acc = 0.0;
    for (k, n) in counts.iter() {
        let sign = if k >> bit & 1 == 1 { -1.0 } else { 1.0 };
        acc += sign * n as f64;
    }
    acc / counts.shots() as f64
}

/// Expectation of the parity operator `Z⊗Z⊗…` over the bits set in `mask`:
/// `+1` contributions from outcomes with an even number of 1s inside the
/// mask, `-1` from odd.
///
/// # Panics
///
/// Panics if `mask` covers bits outside the register or no shots were
/// recorded.
pub fn expectation_parity(counts: &Counts, mask: u64) -> f64 {
    assert!(
        counts.num_clbits() >= 63 || mask < (1u64 << counts.num_clbits()),
        "mask {mask:#b} out of range"
    );
    assert!(counts.shots() > 0, "empty histogram");
    let mut acc = 0.0;
    for (k, n) in counts.iter() {
        let sign = if (k & mask).count_ones().is_multiple_of(2) {
            1.0
        } else {
            -1.0
        };
        acc += sign * n as f64;
    }
    acc / counts.shots() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counts(entries: &[u64]) -> Counts {
        let mut c = Counts::new(3);
        c.extend(entries.iter().copied());
        c
    }

    #[test]
    fn z_expectation_extremes() {
        assert_eq!(expectation_z(&counts(&[0, 0]), 0), 1.0);
        assert_eq!(expectation_z(&counts(&[1, 1]), 0), -1.0);
        assert_eq!(expectation_z(&counts(&[0, 1]), 0), 0.0);
    }

    #[test]
    fn z_expectation_respects_bit_index() {
        let c = counts(&[0b100, 0b100, 0b000, 0b000]);
        assert_eq!(expectation_z(&c, 2), 0.0);
        assert_eq!(expectation_z(&c, 0), 1.0);
    }

    #[test]
    fn parity_expectation() {
        // 011 has even parity over mask 011; 001 odd.
        let c = counts(&[0b011, 0b011, 0b001, 0b000]);
        assert_eq!(expectation_parity(&c, 0b011), 0.5);
        // Mask restricted to bit 0: 011->odd, 001->odd, 000->even.
        assert_eq!(expectation_parity(&c, 0b001), -0.5);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn z_rejects_bad_bit() {
        let _ = expectation_z(&counts(&[0]), 3);
    }

    #[test]
    #[should_panic(expected = "empty histogram")]
    fn parity_rejects_empty() {
        let c = Counts::new(2);
        let _ = expectation_parity(&c, 0b11);
    }
}
