//! Dense state-vector simulation.
//!
//! Qubit `q` corresponds to bit `q` of the basis-state index (little-endian:
//! qubit 0 is the least significant bit).
//!
//! The amplitude-sweep kernels at the bottom of this module operate on raw
//! `&mut [C64]` slices so the trajectory executor can reuse one scratch
//! buffer across shots. They are written as index-split loops over
//! contiguous amplitude runs (`split_at_mut` + `zip`), which eliminates
//! bounds checks from the hot stride and leaves the inner loops in a shape
//! the compiler can autovectorize.

use crate::complex::{C64, ONE, ZERO};
use crate::fuse::{self, Mat2};
use qcir::{Gate, Qubit};
use rand::Rng;

/// The widest state vector the simulators allocate: `2^26` amplitudes,
/// 1 GiB of `C64`. Wider circuits are rejected with
/// [`SimError::TooWideToSimulate`](crate::SimError::TooWideToSimulate)
/// before anything is allocated.
pub const MAX_QUBITS: u32 = 26;

/// A normalized pure state over `n` qubits, stored as `2^n` amplitudes.
///
/// # Examples
///
/// ```
/// use qsim::StateVector;
/// use qcir::{Gate, Qubit};
///
/// let mut sv = StateVector::zero_state(2);
/// sv.apply(&Gate::H(Qubit::new(0)));
/// sv.apply(&Gate::Cx(Qubit::new(0), Qubit::new(1)));
/// let p = sv.probabilities();
/// assert!((p[0b00] - 0.5).abs() < 1e-12);
/// assert!((p[0b11] - 0.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct StateVector {
    num_qubits: u32,
    amps: Vec<C64>,
}

impl StateVector {
    /// Creates the all-zeros computational basis state `|0...0>`.
    ///
    /// # Panics
    ///
    /// Panics if `num_qubits > MAX_QUBITS` (the amplitude vector would not
    /// fit in memory).
    pub fn zero_state(num_qubits: u32) -> Self {
        assert!(
            num_qubits <= MAX_QUBITS,
            "state vector too large: {num_qubits} qubits"
        );
        let mut amps = vec![ZERO; 1usize << num_qubits];
        amps[0] = ONE;
        StateVector { num_qubits, amps }
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> u32 {
        self.num_qubits
    }

    /// The raw amplitudes (little-endian basis ordering).
    pub fn amplitudes(&self) -> &[C64] {
        &self.amps
    }

    /// Applies a symbolic gate.
    ///
    /// # Panics
    ///
    /// Panics if the gate is a measurement (use a simulator driver for
    /// those) or touches a qubit out of range.
    pub fn apply(&mut self, gate: &Gate) {
        if let Some((q, m)) = fuse::gate_matrix(gate) {
            self.apply_1q(q, m);
            return;
        }
        match *gate {
            Gate::Cx(c, t) => self.apply_cx(c, t),
            Gate::Cz(a, b) => self.apply_cz(a, b),
            Gate::Swap(a, b) => self.apply_swap(a, b),
            Gate::Ccx(a, b, t) => self.apply_ccx(a, b, t),
            Gate::Cswap(c, a, b) => self.apply_cswap(c, a, b),
            Gate::Measure(..) => panic!("measurements must be handled by a simulator driver"),
            _ => unreachable!("single-qubit gates are handled via gate_matrix"),
        }
    }

    /// Applies an arbitrary single-qubit unitary `m` (row-major) to `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn apply_1q(&mut self, q: Qubit, m: [[C64; 2]; 2]) {
        let bit = self.bit(q);
        apply_1q_kernel(&mut self.amps, bit, &m);
    }

    fn apply_cx(&mut self, c: Qubit, t: Qubit) {
        let cbit = self.bit(c);
        let tbit = self.bit(t);
        apply_cx_kernel(&mut self.amps, cbit, tbit);
    }

    fn apply_cz(&mut self, a: Qubit, b: Qubit) {
        let abit = self.bit(a);
        let bbit = self.bit(b);
        for i in 0..self.amps.len() {
            if i & abit != 0 && i & bbit != 0 {
                self.amps[i] = -self.amps[i];
            }
        }
    }

    fn apply_swap(&mut self, a: Qubit, b: Qubit) {
        let abit = self.bit(a);
        let bbit = self.bit(b);
        for i in 0..self.amps.len() {
            if i & abit != 0 && i & bbit == 0 {
                self.amps.swap(i, (i & !abit) | bbit);
            }
        }
    }

    fn apply_ccx(&mut self, a: Qubit, b: Qubit, t: Qubit) {
        let abit = self.bit(a);
        let bbit = self.bit(b);
        let tbit = self.bit(t);
        for i in 0..self.amps.len() {
            if i & abit != 0 && i & bbit != 0 && i & tbit == 0 {
                self.amps.swap(i, i | tbit);
            }
        }
    }

    fn apply_cswap(&mut self, c: Qubit, a: Qubit, b: Qubit) {
        let cbit = self.bit(c);
        let abit = self.bit(a);
        let bbit = self.bit(b);
        for i in 0..self.amps.len() {
            if i & cbit != 0 && i & abit != 0 && i & bbit == 0 {
                self.amps.swap(i, (i & !abit) | bbit);
            }
        }
    }

    fn bit(&self, q: Qubit) -> usize {
        assert!(
            q.index() < self.num_qubits,
            "qubit {q} out of range for {}-qubit state",
            self.num_qubits
        );
        1usize << q.index()
    }

    /// Probability of each computational basis state.
    pub fn probabilities(&self) -> Vec<f64> {
        self.amps.iter().map(|a| a.norm_sqr()).collect()
    }

    /// Probability that qubit `q` reads 1.
    pub fn prob_one(&self, q: Qubit) -> f64 {
        let bit = self.bit(q);
        self.amps
            .iter()
            .enumerate()
            .filter(|(i, _)| i & bit != 0)
            .map(|(_, a)| a.norm_sqr())
            .sum()
    }

    /// Samples one basis state index according to the state's probabilities.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        sample_kernel(&self.amps, rng)
    }

    /// The squared overlap `|<self|other>|²` with another state.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    pub fn fidelity(&self, other: &StateVector) -> f64 {
        assert_eq!(self.num_qubits, other.num_qubits, "dimension mismatch");
        let mut inner = ZERO;
        for (a, b) in self.amps.iter().zip(&other.amps) {
            inner += a.conj() * *b;
        }
        inner.norm_sqr()
    }

    /// Sum of all probabilities (should stay 1 within floating-point error).
    pub fn norm(&self) -> f64 {
        self.amps.iter().map(|a| a.norm_sqr()).sum()
    }
}

// ---------------------------------------------------------------------------
// Raw amplitude-sweep kernels.
//
// These are the hot loops of trajectory simulation. They take `&mut [C64]`
// rather than `&mut StateVector` so the noisy executor can run shots into a
// reusable scratch buffer without constructing a state object per shot.
// Every kernel walks the vector in blocks of `2·bit` and splits each block
// into two equal contiguous halves (`bit` clear / `bit` set); iterating the
// halves with `zip` proves equal lengths to the compiler, so the inner
// stride carries no bounds checks.
//
// The kernels are `#[inline(always)]` so that the shot loop, dispatched
// once per SIMD tier (`crate::tier`), carries a copy of each compiled at
// that tier's vector width.
// ---------------------------------------------------------------------------

/// Resets `amps` to the `|0…0>` state over `num_qubits` qubits, reusing the
/// buffer's capacity.
pub(crate) fn reset_zero(amps: &mut Vec<C64>, num_qubits: u32) {
    let dim = 1usize << num_qubits;
    amps.clear();
    amps.resize(dim, ZERO);
    amps[0] = ONE;
}

/// Applies the 2×2 unitary `m` to the qubit whose index mask is `bit`.
///
/// Identical arithmetic, pair order, and rounding as the historical
/// naive loop — only the iteration structure changed.
#[inline(always)]
pub(crate) fn apply_1q_kernel(amps: &mut [C64], bit: usize, m: &Mat2) {
    debug_assert!(bit < amps.len() && amps.len().is_multiple_of(bit << 1));
    let [[m00, m01], [m10, m11]] = *m;
    let block = bit << 1;
    let mut base = 0;
    while base < amps.len() {
        let (lo, hi) = amps[base..base + block].split_at_mut(bit);
        for (a, b) in lo.iter_mut().zip(hi.iter_mut()) {
            let (a0, a1) = (*a, *b);
            *a = m00 * a0 + m01 * a1;
            *b = m10 * a0 + m11 * a1;
        }
        base += block;
    }
}

/// Swaps the target pair of every basis state with the control bit set:
/// the CX permutation, exact (no floating-point arithmetic).
#[inline(always)]
pub(crate) fn apply_cx_kernel(amps: &mut [C64], cbit: usize, tbit: usize) {
    debug_assert!(cbit != tbit && cbit < amps.len() && tbit < amps.len());
    if cbit < tbit {
        // Outer blocks over the target bit; within the target-clear and
        // target-set halves, the control-set indices form aligned
        // sub-runs of length `cbit`.
        let mut base = 0;
        while base < amps.len() {
            let (lo, hi) = amps[base..base + (tbit << 1)].split_at_mut(tbit);
            let mut sub = cbit;
            while sub < tbit {
                let l = &mut lo[sub..sub + cbit];
                let h = &mut hi[sub..sub + cbit];
                for (x, y) in l.iter_mut().zip(h.iter_mut()) {
                    std::mem::swap(x, y);
                }
                sub += cbit << 1;
            }
            base += tbit << 1;
        }
    } else {
        // Control stride outer: each control-set run of length `cbit`
        // contains whole target blocks.
        let mut base = cbit;
        while base < amps.len() {
            let upper = &mut amps[base..base + cbit];
            let mut sub = 0;
            while sub < cbit {
                let (lo, hi) = upper[sub..sub + (tbit << 1)].split_at_mut(tbit);
                for (x, y) in lo.iter_mut().zip(hi.iter_mut()) {
                    std::mem::swap(x, y);
                }
                sub += tbit << 1;
            }
            base += cbit << 1;
        }
    }
}

/// Pauli-X on the qubit with index mask `bit`: exact amplitude swap.
#[inline(always)]
pub(crate) fn apply_x_kernel(amps: &mut [C64], bit: usize) {
    let block = bit << 1;
    let mut base = 0;
    while base < amps.len() {
        let (lo, hi) = amps[base..base + block].split_at_mut(bit);
        for (a, b) in lo.iter_mut().zip(hi.iter_mut()) {
            std::mem::swap(a, b);
        }
        base += block;
    }
}

/// Pauli-Y on the qubit with index mask `bit`: exact component shuffle
/// (`(a0, a1) → (-i·a1, i·a0)`), no rounding.
#[inline(always)]
pub(crate) fn apply_y_kernel(amps: &mut [C64], bit: usize) {
    let block = bit << 1;
    let mut base = 0;
    while base < amps.len() {
        let (lo, hi) = amps[base..base + block].split_at_mut(bit);
        for (a, b) in lo.iter_mut().zip(hi.iter_mut()) {
            let (a0, a1) = (*a, *b);
            *a = C64::new(a1.im, -a1.re);
            *b = C64::new(-a0.im, a0.re);
        }
        base += block;
    }
}

/// Pauli-Z on the qubit with index mask `bit`: exact sign flip of the
/// bit-set half of every block.
#[inline(always)]
pub(crate) fn apply_z_kernel(amps: &mut [C64], bit: usize) {
    let block = bit << 1;
    let mut base = 0;
    while base < amps.len() {
        for v in &mut amps[base + bit..base + block] {
            *v = -*v;
        }
        base += block;
    }
}

/// Samples one basis index by linear inversion over `|amp|²`, consuming
/// exactly one `f64` draw (same scheme as [`StateVector::sample`]).
pub(crate) fn sample_kernel<R: Rng + ?Sized>(amps: &[C64], rng: &mut R) -> usize {
    let u: f64 = rng.gen();
    let mut acc = 0.0;
    for (i, a) in amps.iter().enumerate() {
        acc += a.norm_sqr();
        if u < acc {
            return i;
        }
    }
    amps.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcir::Clbit;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    const EPS: f64 = 1e-10;
    fn q(i: u32) -> Qubit {
        Qubit::new(i)
    }

    #[test]
    fn zero_state_is_basis_zero() {
        let sv = StateVector::zero_state(3);
        let p = sv.probabilities();
        assert!((p[0] - 1.0).abs() < EPS);
        assert!(p[1..].iter().all(|&x| x < EPS));
    }

    #[test]
    fn x_flips() {
        let mut sv = StateVector::zero_state(2);
        sv.apply(&Gate::X(q(1)));
        assert!((sv.probabilities()[0b10] - 1.0).abs() < EPS);
    }

    #[test]
    fn h_creates_superposition_and_is_involutive() {
        let mut sv = StateVector::zero_state(1);
        sv.apply(&Gate::H(q(0)));
        assert!((sv.prob_one(q(0)) - 0.5).abs() < EPS);
        sv.apply(&Gate::H(q(0)));
        assert!((sv.probabilities()[0] - 1.0).abs() < EPS);
    }

    #[test]
    fn bell_state() {
        let mut sv = StateVector::zero_state(2);
        sv.apply(&Gate::H(q(0)));
        sv.apply(&Gate::Cx(q(0), q(1)));
        let p = sv.probabilities();
        assert!((p[0b00] - 0.5).abs() < EPS);
        assert!((p[0b11] - 0.5).abs() < EPS);
        assert!(p[0b01] < EPS && p[0b10] < EPS);
    }

    #[test]
    fn cx_control_must_be_set() {
        let mut sv = StateVector::zero_state(2);
        sv.apply(&Gate::Cx(q(0), q(1)));
        assert!((sv.probabilities()[0] - 1.0).abs() < EPS);
    }

    #[test]
    fn swap_moves_excitation() {
        let mut sv = StateVector::zero_state(3);
        sv.apply(&Gate::X(q(0)));
        sv.apply(&Gate::Swap(q(0), q(2)));
        assert!((sv.probabilities()[0b100] - 1.0).abs() < EPS);
    }

    #[test]
    fn swap_equals_three_cx() {
        let mut a = StateVector::zero_state(2);
        a.apply(&Gate::H(q(0)));
        a.apply(&Gate::T(q(1)));
        let mut b = a.clone();
        a.apply(&Gate::Swap(q(0), q(1)));
        b.apply(&Gate::Cx(q(0), q(1)));
        b.apply(&Gate::Cx(q(1), q(0)));
        b.apply(&Gate::Cx(q(0), q(1)));
        assert!((a.fidelity(&b) - 1.0).abs() < EPS);
    }

    #[test]
    fn ccx_truth_table() {
        // |11t> flips t.
        let mut sv = StateVector::zero_state(3);
        sv.apply(&Gate::X(q(0)));
        sv.apply(&Gate::X(q(1)));
        sv.apply(&Gate::Ccx(q(0), q(1), q(2)));
        assert!((sv.probabilities()[0b111] - 1.0).abs() < EPS);
        // |10t> does not.
        let mut sv = StateVector::zero_state(3);
        sv.apply(&Gate::X(q(0)));
        sv.apply(&Gate::Ccx(q(0), q(1), q(2)));
        assert!((sv.probabilities()[0b001] - 1.0).abs() < EPS);
    }

    #[test]
    fn ccx_matches_decomposition() {
        let mut direct = StateVector::zero_state(3);
        direct.apply(&Gate::H(q(0)));
        direct.apply(&Gate::H(q(1)));
        direct.apply(&Gate::H(q(2)));
        let mut via_decomp = direct.clone();
        direct.apply(&Gate::Ccx(q(0), q(1), q(2)));
        let mut c = qcir::Circuit::new(3, 0);
        c.ccx(0, 1, 2);
        for g in c.decomposed().iter() {
            via_decomp.apply(g);
        }
        assert!(
            (direct.fidelity(&via_decomp) - 1.0).abs() < EPS,
            "fidelity {}",
            direct.fidelity(&via_decomp)
        );
    }

    #[test]
    fn cswap_matches_decomposition() {
        let mut direct = StateVector::zero_state(3);
        direct.apply(&Gate::H(q(0)));
        direct.apply(&Gate::Ry(q(1), 0.7));
        direct.apply(&Gate::H(q(2)));
        let mut via_decomp = direct.clone();
        direct.apply(&Gate::Cswap(q(0), q(1), q(2)));
        let mut c = qcir::Circuit::new(3, 0);
        c.cswap(0, 1, 2);
        for g in c.decomposed().iter() {
            via_decomp.apply(g);
        }
        assert!((direct.fidelity(&via_decomp) - 1.0).abs() < EPS);
    }

    #[test]
    fn cz_matches_decomposition() {
        let mut direct = StateVector::zero_state(2);
        direct.apply(&Gate::H(q(0)));
        direct.apply(&Gate::H(q(1)));
        let mut via = direct.clone();
        direct.apply(&Gate::Cz(q(0), q(1)));
        via.apply(&Gate::H(q(1)));
        via.apply(&Gate::Cx(q(0), q(1)));
        via.apply(&Gate::H(q(1)));
        assert!((direct.fidelity(&via) - 1.0).abs() < EPS);
    }

    #[test]
    fn rotations_compose() {
        // Rz(a)Rz(b) = Rz(a+b) up to global phase; compare via fidelity with
        // an H first so the phase matters relationally.
        let mut a = StateVector::zero_state(1);
        a.apply(&Gate::H(q(0)));
        let mut b = a.clone();
        a.apply(&Gate::Rz(q(0), 0.3));
        a.apply(&Gate::Rz(q(0), 0.5));
        b.apply(&Gate::Rz(q(0), 0.8));
        assert!((a.fidelity(&b) - 1.0).abs() < EPS);
    }

    #[test]
    fn rx_pi_is_x_up_to_phase() {
        let mut a = StateVector::zero_state(1);
        a.apply(&Gate::Rx(q(0), std::f64::consts::PI));
        assert!((a.prob_one(q(0)) - 1.0).abs() < EPS);
    }

    #[test]
    fn norm_preserved_by_random_circuit() {
        let mut sv = StateVector::zero_state(4);
        let gates = [
            Gate::H(q(0)),
            Gate::Rx(q(1), 0.4),
            Gate::Cx(q(0), q(2)),
            Gate::Ry(q(3), 1.1),
            Gate::Cz(q(1), q(3)),
            Gate::T(q(2)),
            Gate::Swap(q(0), q(3)),
            Gate::Rz(q(2), -0.9),
        ];
        for g in &gates {
            sv.apply(g);
            assert!((sv.norm() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn sampling_matches_probabilities() {
        let mut sv = StateVector::zero_state(2);
        sv.apply(&Gate::H(q(0)));
        sv.apply(&Gate::Cx(q(0), q(1)));
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let n = 10_000;
        let mut count = [0u32; 4];
        for _ in 0..n {
            count[sv.sample(&mut rng)] += 1;
        }
        assert_eq!(count[0b01], 0);
        assert_eq!(count[0b10], 0);
        let frac = count[0b00] as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.02, "frac {frac}");
    }

    #[test]
    #[should_panic(expected = "simulator driver")]
    fn measure_panics() {
        let mut sv = StateVector::zero_state(1);
        sv.apply(&Gate::Measure(q(0), Clbit::new(0)));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        let mut sv = StateVector::zero_state(1);
        sv.apply(&Gate::H(q(1)));
    }

    /// A random-ish dense state for kernel comparisons (unnormalized is
    /// fine: the kernels are linear).
    fn dense_state(n: u32) -> Vec<C64> {
        (0..1usize << n)
            .map(|i| C64::new((i as f64 * 0.37).sin(), (i as f64 * 0.61).cos()))
            .collect()
    }

    /// Reference implementation: the historical naive bit-test sweep.
    fn naive_1q(amps: &mut [C64], bit: usize, m: &crate::fuse::Mat2) {
        for i in 0..amps.len() {
            if i & bit == 0 {
                let a0 = amps[i];
                let a1 = amps[i | bit];
                amps[i] = m[0][0] * a0 + m[0][1] * a1;
                amps[i | bit] = m[1][0] * a0 + m[1][1] * a1;
            }
        }
    }

    #[test]
    fn blocked_1q_kernel_matches_naive_sweep_bitwise() {
        let (_, m) = crate::fuse::gate_matrix(&Gate::Ry(q(0), 0.83)).unwrap();
        for qi in 0..4u32 {
            let mut blocked = dense_state(4);
            let mut naive = blocked.clone();
            apply_1q_kernel(&mut blocked, 1 << qi, &m);
            naive_1q(&mut naive, 1 << qi, &m);
            assert_eq!(blocked, naive, "qubit {qi}");
        }
    }

    #[test]
    fn blocked_cx_kernel_matches_naive_sweep_both_orientations() {
        for (c, t) in [(0u32, 2u32), (2, 0), (1, 3), (3, 1), (0, 1)] {
            let (cbit, tbit) = (1usize << c, 1usize << t);
            let mut blocked = dense_state(4);
            let mut naive = blocked.clone();
            apply_cx_kernel(&mut blocked, cbit, tbit);
            for i in 0..naive.len() {
                if i & cbit != 0 && i & tbit == 0 {
                    naive.swap(i, i | tbit);
                }
            }
            assert_eq!(blocked, naive, "cx {c}->{t}");
        }
    }

    #[test]
    fn pauli_kernels_match_gate_application() {
        for qi in 0..3u32 {
            for (kernel, gate) in [
                (apply_x_kernel as fn(&mut [C64], usize), Gate::X(q(qi))),
                (apply_y_kernel as fn(&mut [C64], usize), Gate::Y(q(qi))),
                (apply_z_kernel as fn(&mut [C64], usize), Gate::Z(q(qi))),
            ] {
                let mut via_kernel = dense_state(3);
                let mut via_gate = StateVector {
                    num_qubits: 3,
                    amps: via_kernel.clone(),
                };
                kernel(&mut via_kernel, 1 << qi);
                via_gate.apply(&gate);
                for (a, b) in via_kernel.iter().zip(via_gate.amps.iter()) {
                    assert!((a.re - b.re).abs() < 1e-15 && (a.im - b.im).abs() < 1e-15);
                }
            }
        }
    }

    #[test]
    fn reset_zero_reuses_capacity() {
        let mut amps = dense_state(4);
        let cap = amps.capacity();
        reset_zero(&mut amps, 3);
        assert_eq!(amps.len(), 8);
        assert_eq!(amps[0], ONE);
        assert!(amps[1..].iter().all(|&a| a == ZERO));
        assert_eq!(amps.capacity(), cap);
    }
}
