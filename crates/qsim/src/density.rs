//! Exact density-matrix simulation of the noisy device.
//!
//! The trajectory sampler ([`crate::NoisySimulator`]) estimates the outcome
//! distribution from finite shots; this module computes it *exactly* by
//! evolving the density matrix through the same channels:
//!
//! - ideal gate unitaries plus the device's hidden coherent/crosstalk
//!   unitaries,
//! - depolarizing Pauli channels after every gate,
//! - Pauli-twirled T1/T2 relaxation on gate operands,
//! - asymmetric readout confusion applied to the final diagonal.
//!
//! Because the channels are identical, the trajectory sampler converges to
//! the density-matrix distribution as shots grow — which the test suite
//! checks. That is this module's role: a reference for tests and one
//! criterion benchmark. Every figure, ablation and extension in `edm-bench`
//! samples shots through the trajectory simulator instead.
//!
//! Memory scales as `4^n` in the number of *active* qubits, so circuits are
//! limited to 10 active qubits (16 M amplitudes); the paper's workloads use
//! at most 8.

use crate::complex::{C64, ONE, ZERO};
use crate::error::SimError;
use crate::ideal;
use crate::noise::SimOptions;
use qcir::{Circuit, Gate, Qubit};
use qdevice::{DeviceModel, Edge, NoiseParams, Topology};
use std::collections::BTreeMap;

/// Maximum number of active qubits the density simulator accepts.
pub const MAX_DENSITY_QUBITS: u32 = 10;

/// A density matrix over `n` qubits, stored dense row-major.
#[derive(Debug, Clone, PartialEq)]
pub struct DensityMatrix {
    num_qubits: u32,
    dim: usize,
    data: Vec<C64>,
}

impl DensityMatrix {
    /// The pure state `|0...0><0...0|`.
    ///
    /// # Panics
    ///
    /// Panics if `num_qubits > MAX_DENSITY_QUBITS`.
    pub fn zero_state(num_qubits: u32) -> Self {
        assert!(
            num_qubits <= MAX_DENSITY_QUBITS,
            "density matrix too large: {num_qubits} qubits"
        );
        let dim = 1usize << num_qubits;
        let mut data = vec![ZERO; dim * dim];
        data[0] = ONE;
        DensityMatrix {
            num_qubits,
            dim,
            data,
        }
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> u32 {
        self.num_qubits
    }

    /// Trace of the matrix (should stay 1).
    pub fn trace(&self) -> f64 {
        (0..self.dim).map(|i| self.data[i * self.dim + i].re).sum()
    }

    /// The diagonal as outcome probabilities over basis states.
    pub fn diagonal(&self) -> Vec<f64> {
        (0..self.dim)
            .map(|i| self.data[i * self.dim + i].re.max(0.0))
            .collect()
    }

    /// Purity `Tr(ρ²)`: 1 for pure states, `1/2^n` for the maximally mixed.
    pub fn purity(&self) -> f64 {
        let mut sum = 0.0;
        for r in 0..self.dim {
            for c in 0..self.dim {
                // Tr(ρ²) = Σ_{r,c} ρ[r,c]·ρ[c,r] = Σ |ρ[r,c]|² for Hermitian ρ.
                sum += self.data[r * self.dim + c].norm_sqr();
            }
        }
        sum
    }

    /// Applies a symbolic unitary gate `ρ -> U ρ U†`.
    ///
    /// # Panics
    ///
    /// Panics on measurement gates or out-of-range qubits.
    pub fn apply(&mut self, gate: &Gate) {
        match *gate {
            Gate::Cx(c, t) => self.permute_both(|i| {
                let cb = 1usize << c.index();
                let tb = 1usize << t.index();
                if i & cb != 0 {
                    i ^ tb
                } else {
                    i
                }
            }),
            Gate::Swap(a, b) => self.permute_both(|i| {
                let ab = 1usize << a.index();
                let bb = 1usize << b.index();
                let bit_a = (i & ab != 0) as usize;
                let bit_b = (i & bb != 0) as usize;
                if bit_a != bit_b {
                    i ^ ab ^ bb
                } else {
                    i
                }
            }),
            Gate::Cz(a, b) => {
                let ab = 1usize << a.index();
                let bb = 1usize << b.index();
                self.phase_both(|i| i & ab != 0 && i & bb != 0);
            }
            Gate::Ccx(a, b, t) => self.permute_both(|i| {
                let abit = 1usize << a.index();
                let bbit = 1usize << b.index();
                let tbit = 1usize << t.index();
                if i & abit != 0 && i & bbit != 0 {
                    i ^ tbit
                } else {
                    i
                }
            }),
            Gate::Cswap(c, a, b) => self.permute_both(|i| {
                let cb = 1usize << c.index();
                let ab = 1usize << a.index();
                let bb = 1usize << b.index();
                if i & cb != 0 && ((i & ab != 0) as usize) != ((i & bb != 0) as usize) {
                    i ^ ab ^ bb
                } else {
                    i
                }
            }),
            Gate::Measure(..) => panic!("measurements must be handled by the simulator driver"),
            ref g1 => {
                let q = g1.qubits()[0];
                let m = matrix_1q(g1);
                self.apply_1q_both(q, m);
            }
        }
    }

    /// `ρ -> U ρ U†` for a single-qubit unitary `m` on qubit `q`.
    pub fn apply_1q_both(&mut self, q: Qubit, m: [[C64; 2]; 2]) {
        assert!(q.index() < self.num_qubits, "qubit {q} out of range");
        let bit = 1usize << q.index();
        let dim = self.dim;
        // Left: rows.
        for c in 0..dim {
            for r in 0..dim {
                if r & bit == 0 {
                    let a0 = self.data[r * dim + c];
                    let a1 = self.data[(r | bit) * dim + c];
                    self.data[r * dim + c] = m[0][0] * a0 + m[0][1] * a1;
                    self.data[(r | bit) * dim + c] = m[1][0] * a0 + m[1][1] * a1;
                }
            }
        }
        // Right: columns, with U†.
        for r in 0..dim {
            for c in 0..dim {
                if c & bit == 0 {
                    let a0 = self.data[r * dim + c];
                    let a1 = self.data[r * dim + (c | bit)];
                    self.data[r * dim + c] = a0 * m[0][0].conj() + a1 * m[0][1].conj();
                    self.data[r * dim + (c | bit)] = a0 * m[1][0].conj() + a1 * m[1][1].conj();
                }
            }
        }
    }

    /// Applies a basis permutation `U` (its own inverse) on both sides.
    fn permute_both<F: Fn(usize) -> usize>(&mut self, perm: F) {
        let dim = self.dim;
        // Rows.
        for r in 0..dim {
            let pr = perm(r);
            if pr > r {
                for c in 0..dim {
                    self.data.swap(r * dim + c, pr * dim + c);
                }
            }
        }
        // Columns.
        for c in 0..dim {
            let pc = perm(c);
            if pc > c {
                for r in 0..dim {
                    self.data.swap(r * dim + c, r * dim + pc);
                }
            }
        }
    }

    /// Applies a diagonal ±1 phase on both sides (`-1` where `flip` holds).
    fn phase_both<F: Fn(usize) -> bool>(&mut self, flip: F) {
        let dim = self.dim;
        for r in 0..dim {
            for c in 0..dim {
                // Phases cancel when both indices flip.
                if flip(r) != flip(c) {
                    self.data[r * dim + c] = -self.data[r * dim + c];
                }
            }
        }
    }

    /// Mixes `ρ -> (1-p)·ρ + (p/3)(XρX + YρY + ZρZ)` on qubit `q`.
    pub fn depolarize_1q(&mut self, q: Qubit, p: f64) {
        if p <= 0.0 {
            return;
        }
        let mut mix = vec![ZERO; self.data.len()];
        for pauli in [Gate::X(q), Gate::Y(q), Gate::Z(q)] {
            let mut branch = self.clone();
            branch.apply(&pauli);
            for (m, b) in mix.iter_mut().zip(&branch.data) {
                *m += *b;
            }
        }
        for (d, m) in self.data.iter_mut().zip(&mix) {
            *d = d.scale(1.0 - p) + m.scale(p / 3.0);
        }
    }

    /// Two-qubit depolarizing channel: uniform mixture of the 15
    /// non-identity Pauli pairs with total probability `p`.
    pub fn depolarize_2q(&mut self, a: Qubit, b: Qubit, p: f64) {
        if p <= 0.0 {
            return;
        }
        let paulis = |q: Qubit| [Gate::X(q), Gate::Y(q), Gate::Z(q)];
        let mut mix = vec![ZERO; self.data.len()];
        // Single-sided terms.
        for g in paulis(a).into_iter().chain(paulis(b)) {
            let mut branch = self.clone();
            branch.apply(&g);
            for (m, v) in mix.iter_mut().zip(&branch.data) {
                *m += *v;
            }
        }
        // Double-sided terms.
        for ga in paulis(a) {
            for gb in paulis(b) {
                let mut branch = self.clone();
                branch.apply(&ga);
                branch.apply(&gb);
                for (m, v) in mix.iter_mut().zip(&branch.data) {
                    *m += *v;
                }
            }
        }
        for (d, m) in self.data.iter_mut().zip(&mix) {
            *d = d.scale(1.0 - p) + m.scale(p / 15.0);
        }
    }

    /// Pauli-twirled relaxation: bit-flip with probability `p_bit` and
    /// phase-flip with probability `p_phase` (matching the trajectory
    /// sampler's model).
    pub fn relax(&mut self, q: Qubit, p_bit: f64, p_phase: f64) {
        for (gate, p) in [(Gate::X(q), p_bit), (Gate::Z(q), p_phase)] {
            if p <= 0.0 {
                continue;
            }
            let mut branch = self.clone();
            branch.apply(&gate);
            for (d, b) in self.data.iter_mut().zip(&branch.data) {
                *d = d.scale(1.0 - p) + b.scale(p);
            }
        }
    }
}

fn matrix_1q(g: &Gate) -> [[C64; 2]; 2] {
    use std::f64::consts::{FRAC_1_SQRT_2, FRAC_PI_4};
    let i = crate::complex::I;
    match *g {
        Gate::H(_) => {
            let s = C64::real(FRAC_1_SQRT_2);
            [[s, s], [s, -s]]
        }
        Gate::X(_) => [[ZERO, ONE], [ONE, ZERO]],
        Gate::Y(_) => [[ZERO, -i], [i, ZERO]],
        Gate::Z(_) => [[ONE, ZERO], [ZERO, -ONE]],
        Gate::S(_) => [[ONE, ZERO], [ZERO, i]],
        Gate::Sdg(_) => [[ONE, ZERO], [ZERO, -i]],
        Gate::T(_) => [[ONE, ZERO], [ZERO, C64::cis(FRAC_PI_4)]],
        Gate::Tdg(_) => [[ONE, ZERO], [ZERO, C64::cis(-FRAC_PI_4)]],
        Gate::Rx(_, t) => {
            let (c, s) = ((t / 2.0).cos(), (t / 2.0).sin());
            [
                [C64::real(c), C64::new(0.0, -s)],
                [C64::new(0.0, -s), C64::real(c)],
            ]
        }
        Gate::Ry(_, t) => {
            let (c, s) = ((t / 2.0).cos(), (t / 2.0).sin());
            [[C64::real(c), C64::real(-s)], [C64::real(s), C64::real(c)]]
        }
        Gate::Rz(_, t) => [[C64::cis(-t / 2.0), ZERO], [ZERO, C64::cis(t / 2.0)]],
        ref other => panic!("{} is not a single-qubit unitary", other.name()),
    }
}

/// Exact (shot-noise-free) noisy execution via density matrices.
///
/// Mirrors [`crate::NoisySimulator`]'s channel model; the trajectory
/// sampler's histogram converges to this distribution.
///
/// # Examples
///
/// ```
/// use qcir::Circuit;
/// use qdevice::{presets, DeviceModel};
/// use qsim::DensitySimulator;
///
/// let device = DeviceModel::synthesize(presets::melbourne14(), 3);
/// let mut c = Circuit::new(2, 2);
/// c.h(0);
/// c.cx(0, 1);
/// c.measure_all();
/// let dist = DensitySimulator::from_device(&device).exact_distribution(&c)?;
/// let total: f64 = dist.values().sum();
/// assert!((total - 1.0).abs() < 1e-9);
/// # Ok::<(), qsim::SimError>(())
/// ```
#[derive(Debug, Clone)]
pub struct DensitySimulator<'a> {
    topology: &'a Topology,
    params: &'a NoiseParams,
    options: SimOptions,
}

impl<'a> DensitySimulator<'a> {
    /// Creates a simulator over an explicit topology and noise parameters.
    ///
    /// # Panics
    ///
    /// Panics if the parameters do not cover every topology qubit.
    pub fn new(topology: &'a Topology, params: &'a NoiseParams) -> Self {
        assert_eq!(
            topology.num_qubits(),
            params.num_qubits(),
            "noise parameters must cover every topology qubit"
        );
        DensitySimulator {
            topology,
            params,
            options: SimOptions::default(),
        }
    }

    /// Creates a simulator from a device model's ground truth.
    pub fn from_device(device: &'a DeviceModel) -> Self {
        Self::new(device.topology(), device.truth())
    }

    /// Replaces the channel toggles.
    pub fn with_options(mut self, options: SimOptions) -> Self {
        self.options = options;
        self
    }

    /// Computes the exact outcome distribution over classical bits.
    ///
    /// # Errors
    ///
    /// Same validity conditions as [`crate::NoisySimulator::run`], plus
    /// [`SimError::TooManyQubits`] when more than
    /// [`MAX_DENSITY_QUBITS`] qubits are active.
    pub fn exact_distribution(&self, circuit: &Circuit) -> Result<BTreeMap<u64, f64>, SimError> {
        if circuit.num_qubits() > self.topology.num_qubits() {
            return Err(SimError::TooManyQubits {
                circuit: circuit.num_qubits(),
                device: self.topology.num_qubits(),
            });
        }
        let meas = ideal::measurement_map(circuit)?;

        let active: Vec<u32> = circuit.active_qubits().iter().map(|q| q.index()).collect();
        if active.len() as u32 > MAX_DENSITY_QUBITS {
            return Err(SimError::TooManyQubits {
                circuit: active.len() as u32,
                device: MAX_DENSITY_QUBITS,
            });
        }
        let mut dense = vec![u32::MAX; self.topology.num_qubits() as usize];
        for (i, &q) in active.iter().enumerate() {
            dense[q as usize] = i as u32;
        }
        let dq = |q: Qubit| Qubit::new(dense[q.usize()]);

        let mut rho = DensityMatrix::zero_state(active.len() as u32);
        for g in circuit.iter() {
            match *g {
                Gate::Cx(a, b) => {
                    if !self.topology.has_edge(a.index(), b.index()) {
                        return Err(SimError::UncoupledQubits {
                            a: a.index(),
                            b: b.index(),
                        });
                    }
                    let e = Edge::new(a.index(), b.index());
                    rho.apply(&Gate::Cx(dq(a), dq(b)));
                    if self.options.coherent_errors {
                        let theta = self.params.coherent_cx_angle[&e];
                        if theta != 0.0 {
                            rho.apply(&Gate::Rz(dq(a), theta));
                            rho.apply(&Gate::Rz(dq(b), theta));
                            rho.apply(&Gate::Rx(dq(b), 0.6 * theta));
                        }
                    }
                    if self.options.crosstalk {
                        let chi = self.params.zz_crosstalk[&e];
                        if chi != 0.0 {
                            for &end in &[a.index(), b.index()] {
                                for &n in self.topology.neighbors(end) {
                                    if n != a.index()
                                        && n != b.index()
                                        && dense[n as usize] != u32::MAX
                                    {
                                        rho.apply(&Gate::Rz(Qubit::new(dense[n as usize]), chi));
                                    }
                                }
                            }
                        }
                    }
                    if self.options.stochastic_gate_noise {
                        rho.depolarize_2q(dq(a), dq(b), self.params.cx_err[&e]);
                    }
                    if self.options.decoherence {
                        self.relax_operand(&mut rho, a, dq(a), true);
                        self.relax_operand(&mut rho, b, dq(b), true);
                    }
                }
                Gate::Measure(..) => {}
                ref g1 if g1.is_single_qubit() => {
                    let q = g1.qubits()[0];
                    rho.apply(&g1.map_qubits(dq));
                    if self.options.stochastic_gate_noise {
                        rho.depolarize_1q(dq(q), self.params.gate_1q_err[q.usize()]);
                    }
                    if self.options.decoherence {
                        self.relax_operand(&mut rho, q, dq(q), false);
                    }
                }
                ref other => return Err(SimError::UnsupportedGate { name: other.name() }),
            }
        }

        // Diagonal probabilities + readout confusion, then marginalize onto
        // classical bits.
        let mut probs = rho.diagonal();
        if self.options.readout_error {
            for &(q, _) in &meas {
                let qd = dense[q.usize()] as usize;
                let bit = 1usize << qd;
                let p01 = self.params.readout_p01[q.usize()];
                let p10 = self.params.readout_p10[q.usize()];
                for i in 0..probs.len() {
                    if i & bit == 0 {
                        let p0 = probs[i];
                        let p1 = probs[i | bit];
                        probs[i] = (1.0 - p01) * p0 + p10 * p1;
                        probs[i | bit] = p01 * p0 + (1.0 - p10) * p1;
                    }
                }
            }
        }

        let mut dist: BTreeMap<u64, f64> = BTreeMap::new();
        for (idx, p) in probs.into_iter().enumerate() {
            if p < 1e-15 {
                continue;
            }
            let mut key = 0u64;
            for &(q, c) in &meas {
                if idx >> dense[q.usize()] & 1 == 1 {
                    key |= 1 << c.index();
                }
            }
            *dist.entry(key).or_insert(0.0) += p;
        }
        Ok(dist)
    }
}

impl DensitySimulator<'_> {
    fn relax_operand(&self, rho: &mut DensityMatrix, phys: Qubit, dense: Qubit, two_qubit: bool) {
        let t = if two_qubit {
            self.params.gate_time_2q_us
        } else {
            self.params.gate_time_1q_us
        };
        let p_bit = 0.5 * (1.0 - (-t / self.params.t1_us[phys.usize()]).exp());
        let p_phase = 0.5 * (1.0 - (-t / self.params.t2_us[phys.usize()]).exp());
        rho.relax(dense, p_bit, p_phase);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NoisySimulator, StateVector};
    use qdevice::presets;

    fn q(i: u32) -> Qubit {
        Qubit::new(i)
    }

    #[test]
    fn pure_evolution_matches_statevector() {
        let gates = [
            Gate::H(q(0)),
            Gate::Rx(q(1), 0.7),
            Gate::Cx(q(0), q(1)),
            Gate::T(q(2)),
            Gate::Cz(q(1), q(2)),
            Gate::Ry(q(0), -0.4),
            Gate::Swap(q(0), q(2)),
        ];
        let mut rho = DensityMatrix::zero_state(3);
        let mut sv = StateVector::zero_state(3);
        for g in &gates {
            rho.apply(g);
            sv.apply(g);
        }
        let probs = sv.probabilities();
        let diag = rho.diagonal();
        for (a, b) in probs.iter().zip(&diag) {
            assert!((a - b).abs() < 1e-10, "{a} vs {b}");
        }
        assert!((rho.trace() - 1.0).abs() < 1e-10);
        assert!((rho.purity() - 1.0).abs() < 1e-10);
    }

    #[test]
    fn three_qubit_gates_match_statevector() {
        let gates = [
            Gate::H(q(0)),
            Gate::H(q(1)),
            Gate::Ccx(q(0), q(1), q(2)),
            Gate::Cswap(q(2), q(0), q(1)),
        ];
        let mut rho = DensityMatrix::zero_state(3);
        let mut sv = StateVector::zero_state(3);
        for g in &gates {
            rho.apply(g);
            sv.apply(g);
        }
        for (a, b) in sv.probabilities().iter().zip(&rho.diagonal()) {
            assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn depolarizing_reduces_purity_keeps_trace() {
        let mut rho = DensityMatrix::zero_state(2);
        rho.apply(&Gate::H(q(0)));
        rho.depolarize_1q(q(0), 0.2);
        assert!((rho.trace() - 1.0).abs() < 1e-10);
        assert!(rho.purity() < 1.0 - 1e-6);
        rho.depolarize_2q(q(0), q(1), 0.3);
        assert!((rho.trace() - 1.0).abs() < 1e-10);
    }

    #[test]
    fn full_depolarizing_yields_maximally_mixed_qubit() {
        // p = 3/4 single-qubit depolarizing is the fully depolarizing channel.
        let mut rho = DensityMatrix::zero_state(1);
        rho.depolarize_1q(q(0), 0.75);
        let d = rho.diagonal();
        assert!((d[0] - 0.5).abs() < 1e-10);
        assert!((d[1] - 0.5).abs() < 1e-10);
        assert!((rho.purity() - 0.5).abs() < 1e-10);
    }

    #[test]
    fn relax_mixes_excited_state() {
        let mut rho = DensityMatrix::zero_state(1);
        rho.apply(&Gate::X(q(0)));
        rho.relax(q(0), 0.1, 0.0);
        let d = rho.diagonal();
        assert!((d[0] - 0.1).abs() < 1e-10);
        assert!((d[1] - 0.9).abs() < 1e-10);
    }

    #[test]
    fn exact_distribution_is_normalized_and_correct_at_zero_noise() {
        let device = DeviceModel::synthesize(presets::melbourne14(), 9);
        let sim = DensitySimulator::from_device(&device).with_options(SimOptions::none());
        let mut c = Circuit::new(3, 3);
        c.h(0).cx(0, 1).cx(1, 2).measure_all();
        let dist = sim.exact_distribution(&c).unwrap();
        assert_eq!(dist.len(), 2);
        assert!((dist[&0b000] - 0.5).abs() < 1e-10);
        assert!((dist[&0b111] - 0.5).abs() < 1e-10);
    }

    #[test]
    fn trajectory_sampler_converges_to_density_distribution() {
        let device = DeviceModel::synthesize(presets::melbourne14(), 5);
        let mut c = Circuit::new(3, 3);
        c.h(0).cx(0, 1).cx(1, 2).h(0).h(1).measure_all();

        let exact = DensitySimulator::from_device(&device)
            .exact_distribution(&c)
            .unwrap();
        let counts = NoisySimulator::from_device(&device)
            .run(&c, 60_000, 7)
            .unwrap();
        for (&k, &p) in &exact {
            let empirical = counts.probability(k);
            // 60k shots: ~4-5 sigma tolerance at p(1-p)/n.
            let sigma = (p * (1.0 - p) / 60_000.0).sqrt();
            assert!(
                (empirical - p).abs() < 5.0 * sigma + 0.002,
                "key {k}: exact {p:.4}, empirical {empirical:.4}"
            );
        }
    }

    #[test]
    fn readout_confusion_matches_parameters() {
        let device = DeviceModel::synthesize(presets::melbourne14(), 4);
        let sim = DensitySimulator::from_device(&device).with_options(SimOptions {
            stochastic_gate_noise: false,
            decoherence: false,
            coherent_errors: false,
            crosstalk: false,
            readout_error: true,
        });
        let mut c = Circuit::new(1, 1);
        c.x(0).measure(0, 0);
        let dist = sim.exact_distribution(&c).unwrap();
        let p10 = device.truth().readout_p10[0];
        assert!((dist[&0] - p10).abs() < 1e-10);
        assert!((dist[&1] - (1.0 - p10)).abs() < 1e-10);
    }

    #[test]
    fn rejects_wide_active_sets() {
        let device = DeviceModel::synthesize(presets::melbourne14(), 4);
        let sim = DensitySimulator::from_device(&device);
        let mut c = Circuit::new(14, 0);
        for i in 0..13 {
            if device.topology().has_edge(i, i + 1) {
                c.cx(i, i + 1);
            } else {
                c.x(i);
            }
        }
        c.x(13);
        let err = sim.exact_distribution(&c).unwrap_err();
        assert!(matches!(err, SimError::TooManyQubits { .. }));
    }

    #[test]
    fn coherent_channel_shifts_exact_distribution() {
        let device = DeviceModel::synthesize(presets::melbourne14(), 8);
        let mut c = Circuit::new(2, 2);
        c.h(0).h(1).cx(0, 1).h(0).h(1).measure_all();
        let with = DensitySimulator::from_device(&device)
            .with_options(SimOptions {
                stochastic_gate_noise: false,
                decoherence: false,
                coherent_errors: true,
                crosstalk: false,
                readout_error: false,
            })
            .exact_distribution(&c)
            .unwrap();
        let without = DensitySimulator::from_device(&device)
            .with_options(SimOptions::none())
            .exact_distribution(&c)
            .unwrap();
        let diff: f64 = (0..4u64)
            .map(|k| {
                (with.get(&k).copied().unwrap_or(0.0) - without.get(&k).copied().unwrap_or(0.0))
                    .abs()
            })
            .sum();
        assert!(diff > 1e-3, "coherent channel had no effect: {diff}");
    }
}
