//! Noisy trajectory simulation with correlated error channels.
//!
//! The executor models three families of error, mirroring §2.1 of the paper:
//!
//! 1. **Stochastic gate noise** — depolarizing Pauli errors after every gate
//!    (probability = the calibrated gate error rate), plus Pauli-twirled
//!    T1/T2 relaxation on the operands of each gate, scaled by gate duration.
//!    These are the errors an IID simulator would also model.
//! 2. **Coherent errors (hidden, deterministic)** — every CX on edge `e`
//!    additionally applies a fixed systematic rotation (`Rz(θ_e)` on both
//!    operands and `Rx(0.6·θ_e)` on the target) and a ZZ-crosstalk phase
//!    `Rz(χ_e)` on active topology-neighbors of the edge. Because θ and χ are
//!    fixed per device, every shot of a given mapping is tilted toward the
//!    *same* wrong answers — the correlated-error "demon" of Appendix A.
//!    A different mapping uses different edges and is tilted differently.
//! 3. **Asymmetric readout** — measured bits flip with state-dependent
//!    probabilities `p01 = P(1|0)` and `p10 = P(0|1)`, with `p10 > p01`.
//!
//! Idle-qubit decoherence is not modeled (only gate operands decohere); the
//! paper's shallow workloads keep qubits busy, so this mainly affects
//! absolute PST, not the correlation structure.
//!
//! # Execution model
//!
//! [`NoisySimulator::compile`] lowers a circuit once into a
//! [`CompiledCircuit`]: gate matrices tabulated, adjacent single-qubit
//! gates fused ([`crate::fuse`]), stochastic error sites flattened into
//! lookup tables with a precomputed survival-product table, readout flip
//! probabilities baked per measurement, and the coherent-only ("clean")
//! outcome distribution cached. [`CompiledCircuit::run_into`] then executes
//! shots against reusable [`SimScratch`] buffers: after the first window of
//! shots has warmed the buffers, the steady-state shot loop performs **zero
//! heap allocations** (verified by a counting-allocator test).
//!
//! Per shot, the fired-event set is drawn by *skip sampling* over the
//! survival table: one uniform draw decides how far the scan jumps to the
//! next firing site (an exact sample of the independent per-site Bernoulli
//! process — see [`CompiledCircuit::sample_events`]), so a shot costs
//! `O(1 + #fired)` RNG draws instead of one draw per error site. The
//! resulting histogram remains a pure function of `(circuit, shots, seed)`
//! and is bit-identical across thread counts (DESIGN.md §7); the draw
//! *schedule* differs from pre-compile-era versions of this crate, which
//! only re-rolls which equally-distributed histogram a given seed labels.
//!
//! A shot whose first event fires at step `k` shares its whole prefix up to
//! `k` with the clean trajectory. Compilation therefore also keeps copies
//! of the clean state at every ⌈√ops⌉-th fused-op boundary (bounded by
//! `CHECKPOINT_AMP_CAP` amplitudes per plan), and a fired-error shot
//! resumes from the last checkpoint before its first event instead of
//! replaying from |0…0⟩. The resumed amplitudes are the very floats the
//! from-zero walk would reach there, so histograms are bit-identical.
//!
//! At low error rates most fired shots fire the same few events, so
//! `run_into` runs each window of at most [`SLICE_SHOTS`] shots in two
//! passes. The first draws every shot's events and uniforms in stream
//! order, finishing clean shots at once and deferring fired ones. The
//! second runs each distinct fired-event set once and samples all of its
//! shots in one ascending sweep. No draw depends on the state, so the
//! histogram is exactly what one trajectory per shot would give.

use crate::complex::C64;
use crate::counts::Counts;
use crate::error::SimError;
use crate::fuse::{self, FusedOp, Prim};
use crate::ideal;
use crate::parallel::SLICE_SHOTS;
use crate::statevector::{
    apply_1q_kernel, apply_cx_kernel, apply_x_kernel, apply_y_kernel, apply_z_kernel, reset_zero,
    StateVector,
};
use qcir::{Circuit, Gate, Qubit};
use qdevice::{DeviceModel, Edge, NoiseParams, Topology};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::ops::Range;

/// Toggles for the individual noise channels (all on by default).
///
/// Switching channels off enables the ablation studies in the bench harness
/// (e.g. reproducing the IID-simulator gap the paper describes in §4.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimOptions {
    /// Depolarizing Pauli noise after every gate.
    pub stochastic_gate_noise: bool,
    /// Pauli-twirled T1/T2 relaxation on gate operands.
    pub decoherence: bool,
    /// Hidden deterministic CX over-rotation.
    pub coherent_errors: bool,
    /// Hidden deterministic ZZ-crosstalk on spectator neighbors.
    pub crosstalk: bool,
    /// Asymmetric readout bit-flips.
    pub readout_error: bool,
}

impl SimOptions {
    /// All channels enabled (the realistic device model).
    pub fn all() -> Self {
        SimOptions {
            stochastic_gate_noise: true,
            decoherence: true,
            coherent_errors: true,
            crosstalk: true,
            readout_error: true,
        }
    }

    /// All channels disabled (an ideal machine).
    pub fn none() -> Self {
        SimOptions {
            stochastic_gate_noise: false,
            decoherence: false,
            coherent_errors: false,
            crosstalk: false,
            readout_error: false,
        }
    }

    /// Only IID channels: stochastic gate noise, decoherence, and readout,
    /// with the correlated (coherent/crosstalk) channels off. This is the
    /// "existing simulator" model the paper contrasts against in §4.4.
    pub fn iid_only() -> Self {
        SimOptions {
            stochastic_gate_noise: true,
            decoherence: true,
            coherent_errors: false,
            crosstalk: false,
            readout_error: true,
        }
    }
}

impl Default for SimOptions {
    fn default() -> Self {
        Self::all()
    }
}

/// Shot-based noisy executor for circuits in the device basis.
///
/// # Examples
///
/// ```
/// use qcir::Circuit;
/// use qdevice::{presets, DeviceModel};
/// use qsim::NoisySimulator;
///
/// let device = DeviceModel::synthesize(presets::melbourne14(), 3);
/// let sim = NoisySimulator::from_device(&device);
/// let mut c = Circuit::new(2, 2);
/// c.h(0);
/// c.cx(0, 1);
/// c.measure_all();
/// let counts = sim.run(&c, 1024, 7)?;
/// assert_eq!(counts.shots(), 1024);
/// # Ok::<(), qsim::SimError>(())
/// ```
#[derive(Debug, Clone)]
pub struct NoisySimulator<'a> {
    topology: &'a Topology,
    params: &'a NoiseParams,
    options: SimOptions,
}

/// Event probabilities are clamped below 1 so the survival products in the
/// skip-sampling table stay strictly positive. A "certain" error channel is
/// already unphysical; losing 1e-9 of its firing probability is invisible
/// to every statistical tolerance in the workspace.
const MAX_EVENT_PROB: f64 = 1.0 - 1e-9;

/// Outcome histograms are accumulated in a dense per-scratch array (zero
/// allocation, O(1) record) when the classical register has at most this
/// many bits; wider registers fall back to direct `Counts` recording.
const DENSE_HIST_BITS: u32 = 12;

/// Upper bound on the total amplitudes one plan keeps in clean-prefix
/// checkpoints (2^16 amplitudes = 1 MiB). States wider than 16 qubits get
/// no checkpoints; narrower ones get fewer when the √ops stride would
/// exceed the bound.
const CHECKPOINT_AMP_CAP: usize = 1 << 16;

impl<'a> NoisySimulator<'a> {
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
        NoisySimulator {
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

    /// The active channel toggles.
    pub fn options(&self) -> SimOptions {
        self.options
    }

    /// Runs `shots` noisy trials of `circuit` and returns the outcome
    /// histogram. Deterministic for a fixed `(circuit, shots, seed)`.
    ///
    /// Equivalent to [`NoisySimulator::compile`] followed by one
    /// [`CompiledCircuit::run_into`] with the same seed — callers that run
    /// the same circuit repeatedly (slices, ensemble members, rounds)
    /// should compile once and reuse the plan and a [`SimScratch`].
    ///
    /// The circuit must already be *physical*: lowered to the
    /// `{single-qubit, CX, measure}` basis with every CX on a coupled pair
    /// (use the `qmap` transpiler to get there).
    ///
    /// # Errors
    ///
    /// - [`SimError::TooManyQubits`] if the circuit is wider than the device.
    /// - [`SimError::TooManyClbits`] if its classical register does not fit
    ///   a histogram key.
    /// - [`SimError::UnsupportedGate`] for gates outside the device basis.
    /// - [`SimError::UncoupledQubits`] for a CX on a non-edge.
    /// - [`SimError::MidCircuitMeasurement`] / [`SimError::ClbitReused`] for
    ///   invalid measurement structure.
    pub fn run(&self, circuit: &Circuit, shots: u64, seed: u64) -> Result<Counts, SimError> {
        let plan = self.compile(circuit)?;
        let mut counts = Counts::new(plan.num_clbits());
        plan.run_into(shots, seed, &mut SimScratch::new(), &mut counts);
        Ok(counts)
    }

    /// Validates and lowers a circuit into a reusable execution plan.
    ///
    /// Compilation does all per-circuit work once — gate-matrix
    /// tabulation, single-qubit fusion, noise-event lookup tables, the
    /// survival-product table, baked readout probabilities, and the
    /// coherent-only outcome distribution — so that per-shot work is pure
    /// table lookups. The plan borrows nothing: it can be shared across
    /// threads and outlives the simulator.
    ///
    /// # Errors
    ///
    /// Same conditions as [`NoisySimulator::run`].
    pub fn compile(&self, circuit: &Circuit) -> Result<CompiledCircuit, SimError> {
        if circuit.num_qubits() > self.topology.num_qubits() {
            return Err(SimError::TooManyQubits {
                circuit: circuit.num_qubits(),
                device: self.topology.num_qubits(),
            });
        }
        let meas = ideal::measurement_map(circuit)?;

        // Dense re-indexing of the active physical qubits keeps the state
        // vector as small as the program, not the device.
        let active: Vec<u32> = circuit.active_qubits().iter().map(|q| q.index()).collect();
        let mut dense = vec![u32::MAX; self.topology.num_qubits() as usize];
        for (i, &q) in active.iter().enumerate() {
            dense[q as usize] = i as u32;
        }
        let dq = |q: Qubit| Qubit::new(dense[q.usize()]);

        let mut prims: Vec<Prim> = Vec::with_capacity(circuit.len());
        let mut lut = EventLut::default();
        let mut step = 0u32;
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
                    prims.push(Prim::cx(step, dq(a), dq(b)));
                    if self.options.coherent_errors {
                        let theta = self.params.coherent_cx_angle[&e];
                        if theta != 0.0 {
                            prims.push(unary(step, Gate::Rz(dq(a), theta)));
                            prims.push(unary(step, Gate::Rz(dq(b), theta)));
                            prims.push(unary(step, Gate::Rx(dq(b), 0.6 * theta)));
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
                                        let nq = Qubit::new(dense[n as usize]);
                                        prims.push(unary(step, Gate::Rz(nq, chi)));
                                    }
                                }
                            }
                        }
                    }
                    if self.options.stochastic_gate_noise {
                        lut.push(
                            step,
                            self.params.cx_err[&e],
                            EventKind::Depol2(dq(a), dq(b)),
                        );
                    }
                    if self.options.decoherence {
                        self.push_relaxation(&mut lut, step, a, dq(a), true);
                        self.push_relaxation(&mut lut, step, b, dq(b), true);
                    }
                }
                Gate::Measure(..) => {
                    // Handled via the measurement map + readout flips.
                    continue;
                }
                ref g1 if g1.is_single_qubit() => {
                    let q = g1.qubits()[0];
                    prims.push(unary(step, g1.map_qubits(dq)));
                    if self.options.stochastic_gate_noise {
                        lut.push(
                            step,
                            self.params.gate_1q_err[q.usize()],
                            EventKind::Depol1(dq(q)),
                        );
                    }
                    if self.options.decoherence {
                        self.push_relaxation(&mut lut, step, q, dq(q), false);
                    }
                }
                ref other => {
                    return Err(SimError::UnsupportedGate { name: other.name() });
                }
            }
            step += 1;
        }

        let measurements = meas
            .iter()
            .map(|&(q, c)| MeasSite {
                dense: dense[q.usize()],
                clbit: c.index(),
                p01: self.params.readout_p01[q.usize()],
                p10: self.params.readout_p10[q.usize()],
            })
            .collect();

        let fused = fuse::fuse(&prims);
        let survival = lut.survival();
        let num_dense_qubits = active.len() as u32;
        let stride = checkpoint_stride(fused.len(), num_dense_qubits);
        let mut plan = CompiledCircuit {
            num_dense_qubits,
            num_clbits: circuit.num_clbits(),
            prims,
            fused,
            events: lut.events,
            outcomes: lut.outcomes,
            pauli_terms: lut.pauli_terms,
            survival,
            measurements,
            readout: self.options.readout_error,
            clean_cum: Vec::new(),
            checkpoints: Vec::new(),
            checkpoint_amps: Vec::new(),
        };

        // Coherent-only reference distribution: computed once here, reused
        // for every shot in which no stochastic event fires. The same walk
        // snapshots the clean prefix at every `stride`-th op boundary —
        // exactly the states (and floats) a fired-error shot's from-zero
        // walk reaches there before its first event.
        let mut amps = Vec::new();
        reset_zero(&mut amps, num_dense_qubits);
        for (i, f) in plan.fused.iter().enumerate() {
            if stride.is_some_and(|s| i > 0 && i % s == 0) {
                plan.checkpoints.push(Checkpoint {
                    op: i,
                    min_step: plan.fused[i - 1].last_step,
                });
                plan.checkpoint_amps.extend_from_slice(&amps);
            }
            apply_prim(&mut amps, &f.op);
        }
        let mut acc = 0.0;
        plan.clean_cum = amps
            .iter()
            .map(|a| {
                acc += a.norm_sqr();
                acc
            })
            .collect();
        Ok(plan)
    }

    fn push_relaxation(
        &self,
        lut: &mut EventLut,
        step: u32,
        phys: Qubit,
        dense: Qubit,
        two_qubit: bool,
    ) {
        let t = if two_qubit {
            self.params.gate_time_2q_us
        } else {
            self.params.gate_time_1q_us
        };
        let p_bit = 0.5 * (1.0 - (-t / self.params.t1_us[phys.usize()]).exp());
        let p_phase = 0.5 * (1.0 - (-t / self.params.t2_us[phys.usize()]).exp());
        lut.push(step, p_bit, EventKind::BitFlip(dense));
        lut.push(step, p_phase, EventKind::PhaseFlip(dense));
    }
}

/// Builds a single-qubit unitary primitive from a symbolic gate.
fn unary(step: u32, gate: Gate) -> Prim {
    let (q, m) = fuse::gate_matrix(&gate).expect("single-qubit gate");
    Prim::unary(step, q, m)
}

/// A validated, fully lowered execution plan: fused gate stream, flat
/// noise-event lookup tables, baked readout probabilities, and the cached
/// coherent-only outcome distribution.
///
/// Owns all of its data (no borrows), so one compiled plan can be shared
/// by every slice of a parallel run. Produced by
/// [`NoisySimulator::compile`]; executed by [`CompiledCircuit::run_into`].
#[derive(Debug, Clone)]
pub struct CompiledCircuit {
    num_dense_qubits: u32,
    num_clbits: u32,
    /// Unfused step-tagged primitives (the slow path when a fired Pauli
    /// lands strictly inside a fused span).
    prims: Vec<Prim>,
    /// The fused fast-path stream.
    fused: Vec<FusedOp>,
    /// Stochastic error sites in step order.
    events: Vec<EventSite>,
    /// Flat outcome directory across all events.
    outcomes: Vec<OutcomeDesc>,
    /// Flat Pauli-term pool across all outcomes.
    pauli_terms: Vec<PauliTerm>,
    /// `survival[i] = Π_{j<i} (1 - p_j)`; length `events.len() + 1`. The
    /// per-slice LUT that skip sampling walks instead of drawing one
    /// uniform per event site per shot.
    survival: Vec<f64>,
    /// Measurement sites with readout-flip probabilities baked in.
    measurements: Vec<MeasSite>,
    /// Whether readout flips are applied (and their draws consumed).
    readout: bool,
    /// Cumulative probabilities of the coherent-only ("clean") state.
    clean_cum: Vec<f64>,
    /// Clean-prefix resume points, in op (and `min_step`) order.
    checkpoints: Vec<Checkpoint>,
    /// The checkpointed clean states, concatenated: checkpoint `c` owns
    /// amplitudes `c·2^n .. (c+1)·2^n`.
    checkpoint_amps: Vec<C64>,
}

/// A clean-prefix resume point: the coherent-only state just before
/// `fused[op]`.
#[derive(Debug, Clone, Copy)]
struct Checkpoint {
    /// Fused-op index the trajectory resumes at.
    op: usize,
    /// Smallest first-fired step that may resume here:
    /// `fused[op - 1].last_step` (inclusive). A Pauli at an earlier step
    /// would have been applied before, or spliced into, one of the skipped
    /// ops.
    min_step: u32,
}

/// The fused-op stride between checkpoints for a plan of `ops` fused ops
/// on `qubits` dense qubits: ⌈√ops⌉, widened so that at most
/// [`CHECKPOINT_AMP_CAP`] amplitudes are kept. `None` when even one
/// checkpoint would exceed the cap.
fn checkpoint_stride(ops: usize, qubits: u32) -> Option<usize> {
    let max_checkpoints = CHECKPOINT_AMP_CAP.checked_shr(qubits).unwrap_or(0);
    if max_checkpoints == 0 {
        return None;
    }
    // Checkpoints sit at the multiples of the stride inside `1..ops`:
    // at most ⌈ops/stride⌉ − 1 ≤ max_checkpoints of them.
    let sqrt = (ops as f64).sqrt().ceil() as usize;
    Some(sqrt.max(ops.div_ceil(max_checkpoints + 1)).max(1))
}

/// Exact work done by one [`CompiledCircuit::run_into`] call.
///
/// All three counts are deterministic functions of `(plan, shots, seed)`,
/// so they sum to the same totals for any thread count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShotWork {
    /// Shots that took a trajectory's state (at least one event fired)
    /// instead of sampling the cached clean distribution.
    pub replayed_shots: u64,
    /// Fused ops those shots' trajectories skipped by resuming from a
    /// clean-prefix checkpoint, counted once per shot.
    pub skipped_ops: u64,
    /// Trajectories actually run: the distinct fired-event sets among each
    /// window's replayed shots (at most `replayed_shots`).
    pub distinct_trajectories: u64,
}

impl CompiledCircuit {
    /// Width of the dense (re-indexed) state vector in qubits.
    pub fn num_qubits(&self) -> u32 {
        self.num_dense_qubits
    }

    /// Width of the classical register outcomes are recorded under.
    pub fn num_clbits(&self) -> u32 {
        self.num_clbits
    }

    /// Number of stochastic error sites in the plan.
    pub fn num_event_sites(&self) -> usize {
        self.events.len()
    }

    /// Number of fused operations on the fast path (≤ the primitive
    /// count; the gap is what fusion saved per trajectory).
    pub fn num_fused_ops(&self) -> usize {
        self.fused.len()
    }

    /// Number of unfused primitives.
    pub fn num_prims(&self) -> usize {
        self.prims.len()
    }

    /// Number of clean-prefix checkpoints fired-error shots can resume
    /// from (zero for plans too short or too wide to keep any).
    pub fn num_checkpoints(&self) -> usize {
        self.checkpoints.len()
    }

    /// Runs `shots` trials with the given seed, accumulating outcomes into
    /// `counts`. Deterministic for a fixed `(plan, shots, seed)`;
    /// histograms produced this way are exactly what
    /// [`NoisySimulator::run`] returns for the same arguments. Returns the
    /// call's exact trajectory work (equally deterministic).
    ///
    /// Shots run in windows of at most [`SLICE_SHOTS`], each in two passes.
    /// Pass 1 walks the window in stream order and draws what a shot
    /// draws, in this order: its events, one uniform (for the fired
    /// trajectory's `|amp|²` sweep, or for the clean distribution), and one
    /// readout uniform per measurement when readout error is on. A clean
    /// shot is recorded at once. A fired one is deferred with its sweep
    /// uniform and its readout flips (see `ReadoutFlips`). Pass 2 groups
    /// the deferred shots by fired set, runs each set's trajectory once,
    /// and samples the group's shots in ascending uniform order with one
    /// sweep over its `|amp|²`. No draw depends on the state, and a set's
    /// state does not depend on which shot drew it, so the histogram is
    /// the one a trajectory per shot gives, bit for bit.
    ///
    /// `scratch` provides the working buffers (state vector, the window's
    /// fired events and deferred shots, dense histogram). Their size is
    /// bounded by one window, not by `shots`. After the
    /// buffers have grown to this plan's sizes — one warm window suffices —
    /// the shot loop performs no heap allocation: reuse the same scratch
    /// across calls to stay in steady state. Registers wider than 12
    /// classical bits fall back from the dense histogram to direct
    /// `Counts` recording, which may allocate per newly seen outcome.
    ///
    /// # Panics
    ///
    /// Panics if `counts` was created with a different classical-register
    /// width than the compiled circuit's.
    pub fn run_into(
        &self,
        shots: u64,
        seed: u64,
        scratch: &mut SimScratch,
        counts: &mut Counts,
    ) -> ShotWork {
        assert_eq!(
            counts.num_clbits(),
            self.num_clbits,
            "counts width must match the compiled circuit"
        );
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let dense = self.num_clbits <= DENSE_HIST_BITS;
        let hist_len = 1usize << self.num_clbits.min(DENSE_HIST_BITS);
        let SimScratch {
            amps,
            fired,
            deferred,
            hist,
        } = scratch;
        if dense && hist.len() < hist_len {
            hist.resize(hist_len, 0);
        }
        let mut record = |key: u64| {
            if dense {
                hist[key as usize] += 1;
            } else {
                counts.record(key);
            }
        };

        let mut work = ShotWork::default();
        let mut left = shots;
        while left > 0 {
            let window = left.min(SLICE_SHOTS);
            left -= window;

            // Pass 1: every draw of the window, in stream order.
            fired.clear();
            deferred.clear();
            for _ in 0..window {
                let start = fired.len();
                self.sample_events(&mut rng, fired);
                if fired.len() == start {
                    let basis = sample_cumulative(&self.clean_cum, &mut rng);
                    record(self.readout_key(basis, self.draw_flips(&mut rng)));
                    continue;
                }
                let u = rng.gen();
                deferred.push(DeferredShot {
                    start: start as u32,
                    end: fired.len() as u32,
                    u,
                    flips: self.draw_flips(&mut rng),
                });
            }

            // Pass 2: one trajectory per distinct fired set.
            deferred.sort_unstable_by(|a, b| {
                fired[a.fired()]
                    .cmp(&fired[b.fired()])
                    .then(a.u.total_cmp(&b.u))
            });
            for group in deferred.chunk_by(|a, b| fired[a.fired()] == fired[b.fired()]) {
                let skipped = self.run_trajectory_into(&fired[group[0].fired()], amps);
                work.distinct_trajectories += 1;
                work.replayed_shots += group.len() as u64;
                work.skipped_ops += (skipped * group.len()) as u64;
                let mut sweep = SortedSweep::new(amps);
                for shot in group {
                    record(self.readout_key(sweep.sample(shot.u), shot.flips));
                }
            }
        }

        if dense {
            for (outcome, slot) in hist[..hist_len].iter_mut().enumerate() {
                if *slot > 0 {
                    counts.record_n(outcome as u64, *slot);
                    *slot = 0;
                }
            }
        }
        work
    }

    /// Draws one shot's readout uniforms, one per measurement in order
    /// when readout error is on (none otherwise), and keeps of each only
    /// whether it flips a 0 and whether it flips a 1.
    fn draw_flips(&self, rng: &mut ChaCha8Rng) -> ReadoutFlips {
        let mut flips = ReadoutFlips::default();
        if self.readout {
            for m in &self.measurements {
                let u: f64 = rng.gen();
                flips.if_zero |= u64::from(u < m.p01) << m.clbit;
                flips.if_one |= u64::from(u < m.p10) << m.clbit;
            }
        }
        flips
    }

    /// The classical key recorded for basis state `basis`: each measured
    /// bit, flipped when the shot's readout uniform for it fell below that
    /// bit value's flip probability.
    fn readout_key(&self, basis: usize, flips: ReadoutFlips) -> u64 {
        let mut key = 0u64;
        for m in &self.measurements {
            key |= (((basis >> m.dense) & 1) as u64) << m.clbit;
        }
        key ^ ((key & flips.if_one) | (!key & flips.if_zero))
    }

    /// Draws this shot's fired-event set by skip sampling over the
    /// survival table.
    ///
    /// With per-site firing probabilities `p_i` and prefix survival
    /// products `S_i = Π_{j<i}(1-p_j)`, the first site at or after cursor
    /// `k` to fire is distributed as `P(i) = (S_i/S_k)·p_i` with
    /// `P(none) = S_n/S_k`. One uniform draw `u` maps to
    /// `w = (1-u)·S_k`; "no further site fires" iff `w < S_n`, otherwise
    /// the firing site is the smallest `i` with `S_{i+1} ≤ w` (binary
    /// search — `S` is non-increasing). Repeating from `k = i+1` samples
    /// the exact joint distribution of the independent Bernoulli sites in
    /// `O((1 + #fired)·log n)` instead of `n` draws.
    fn sample_events(&self, rng: &mut ChaCha8Rng, fired: &mut Vec<FiredPauli>) {
        let n = self.events.len();
        if n == 0 {
            return;
        }
        let mut k = 0usize;
        loop {
            let u: f64 = rng.gen();
            let w = (1.0 - u) * self.survival[k];
            if w < self.survival[n] {
                return;
            }
            let i = k + self.survival[k + 1..=n].partition_point(|&t| t > w);
            debug_assert!(i < n);
            let site = self.events[i];
            let oi = if site.outcome_count > 1 {
                site.outcome_start + rng.gen_range(0..site.outcome_count)
            } else {
                site.outcome_start
            };
            let od = self.outcomes[oi as usize];
            let terms = &self.pauli_terms[od.start as usize..od.start as usize + od.len as usize];
            for t in terms {
                fired.push(FiredPauli {
                    step: site.step,
                    bit: t.bit,
                    pauli: t.pauli,
                });
            }
            k = i + 1;
            if k == n {
                return;
            }
        }
    }

    /// Runs one trajectory with the given fired Paulis (step-sorted) into
    /// `amps`, reusing its capacity, and returns the number of fused ops
    /// skipped by resuming from a checkpoint.
    ///
    /// The walk starts from the last checkpoint whose `min_step` is at or
    /// before the first fired step (or from |0…0⟩ when none qualifies):
    /// every skipped op ends at or before that step, so from zero it would
    /// have run unsplit with no Pauli applied — the checkpoint holds
    /// exactly its result.
    ///
    /// Fast path: walk the fused stream, applying pending Paulis whose
    /// step precedes each op's span. A Pauli landing strictly inside a
    /// fused span `[first_step, last_step)` forces that op to replay its
    /// unfused primitive range with exact step interleaving; Paulis at a
    /// step apply after *all* primitives of that step, exactly as the
    /// unfused executor ordered them.
    fn run_trajectory_into(&self, fired: &[FiredPauli], amps: &mut Vec<C64>) -> usize {
        let resume = fired.first().and_then(|first| {
            let c = self
                .checkpoints
                .partition_point(|cp| cp.min_step <= first.step);
            c.checked_sub(1)
        });
        let start = match resume {
            Some(c) => {
                let dim = 1usize << self.num_dense_qubits;
                amps.clear();
                amps.extend_from_slice(&self.checkpoint_amps[c * dim..(c + 1) * dim]);
                self.checkpoints[c].op
            }
            None => {
                reset_zero(amps, self.num_dense_qubits);
                0
            }
        };
        let mut fi = 0;
        for f in &self.fused[start..] {
            while fi < fired.len() && fired[fi].step < f.first_step {
                apply_pauli(amps, fired[fi]);
                fi += 1;
            }
            if fi < fired.len() && fired[fi].step < f.last_step {
                for p in &self.prims[f.prims.clone()] {
                    while fi < fired.len() && fired[fi].step < p.step {
                        apply_pauli(amps, fired[fi]);
                        fi += 1;
                    }
                    apply_prim(amps, &p.op);
                }
            } else {
                apply_prim(amps, &f.op);
            }
        }
        while fi < fired.len() {
            apply_pauli(amps, fired[fi]);
            fi += 1;
        }
        start
    }

    /// The coherent-only ("clean") trajectory as a state vector — the
    /// state every no-event shot samples from.
    pub fn clean_statevector(&self) -> StateVector {
        let mut amps = Vec::new();
        self.run_trajectory_into(&[], &mut amps);
        StateVector::from_amplitudes(self.num_dense_qubits, amps)
    }
}

/// Reusable per-thread working buffers for [`CompiledCircuit::run_into`].
///
/// Holds the trajectory state vector, one window's fired events and
/// deferred shots, and the dense outcome histogram. Buffers
/// only ever grow, and no further than one window needs; once the first
/// window has warmed them for a given plan size, the shot loop allocates
/// nothing. One scratch serves any sequence of plans (workers keep a
/// thread-local instance across slices and batches).
#[derive(Debug, Default)]
pub struct SimScratch {
    amps: Vec<C64>,
    fired: Vec<FiredPauli>,
    deferred: Vec<DeferredShot>,
    hist: Vec<u64>,
}

impl SimScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// A fired shot of the current window, waiting for its group's trajectory.
#[derive(Debug, Clone, Copy)]
struct DeferredShot {
    /// Its fired Paulis are `fired[start..end]` of the window's buffer.
    start: u32,
    end: u32,
    /// The uniform its trajectory's `|amp|²` sweep samples with.
    u: f64,
    flips: ReadoutFlips,
}

impl DeferredShot {
    fn fired(&self) -> Range<usize> {
        self.start as usize..self.end as usize
    }
}

/// One shot's readout flips, decided before its state is known: bit `c` of
/// `if_zero` (`if_one`) is set when clbit `c`'s readout uniform falls below
/// `P(1|0)` (`P(0|1)`), so the bit flips if it reads 0 (1). A register has
/// at most 63 bits (`Counts`), so one word holds every measurement.
#[derive(Debug, Clone, Copy, Default)]
struct ReadoutFlips {
    if_zero: u64,
    if_one: u64,
}

/// Samples one state for a run of ascending uniforms in a single sweep.
///
/// `sample_kernel` returns the first index whose running sum `acc` of
/// `|amp|²` exceeds `u`, or the last index when none does. `acc` only
/// grows, so for a larger `u` that index is never earlier: the sweep keeps
/// `acc` (built by the same additions in the same order) and resumes where
/// the previous uniform stopped. Each `u` gets exactly the index
/// `sample_kernel` would return for it.
struct SortedSweep<'a> {
    amps: &'a [C64],
    /// `Σ |amps[i]|²` over `i < next`, summed in index order.
    acc: f64,
    next: usize,
}

impl<'a> SortedSweep<'a> {
    fn new(amps: &'a [C64]) -> Self {
        SortedSweep {
            amps,
            acc: 0.0,
            next: 0,
        }
    }

    /// The sampled index for a uniform `u` in `[0, 1)`, which must not be
    /// below any earlier `u`.
    // `!(u < acc)`, not `u >= acc`: it is `sample_kernel`'s own test
    // negated, so a NaN `acc` keeps sweeping exactly as `sample_kernel` does.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    fn sample(&mut self, u: f64) -> usize {
        while !(u < self.acc) && self.next < self.amps.len() {
            self.acc += self.amps[self.next].norm_sqr();
            self.next += 1;
        }
        // Either `u < acc` first held once `amps[next - 1]` was added, or
        // the sweep ran off the end, where `sample_kernel` falls through to
        // the last index: `next - 1` both ways.
        self.next - 1
    }
}

fn apply_prim(amps: &mut [C64], op: &fuse::PrimOp) {
    match *op {
        fuse::PrimOp::Unary { qubit, m } => {
            apply_1q_kernel(amps, 1usize << qubit.index(), &m);
        }
        fuse::PrimOp::Cx { control, target } => {
            apply_cx_kernel(amps, 1usize << control.index(), 1usize << target.index());
        }
    }
}

fn apply_pauli(amps: &mut [C64], fp: FiredPauli) {
    match fp.pauli {
        Pauli::X => apply_x_kernel(amps, fp.bit),
        Pauli::Y => apply_y_kernel(amps, fp.bit),
        Pauli::Z => apply_z_kernel(amps, fp.bit),
    }
}

/// One stochastic error site: its step and the slice of the flat outcome
/// directory it samples from (uniformly) when it fires.
#[derive(Debug, Clone, Copy)]
struct EventSite {
    step: u32,
    outcome_start: u32,
    outcome_count: u32,
}

/// One possible outcome of an event: a run of [`PauliTerm`]s in the flat
/// pool (at most two — the channels here are 1- and 2-qubit Paulis).
#[derive(Debug, Clone, Copy)]
struct OutcomeDesc {
    start: u32,
    len: u8,
}

/// A single Pauli factor, with the qubit pre-lowered to its index mask.
#[derive(Debug, Clone, Copy)]
struct PauliTerm {
    bit: usize,
    pauli: Pauli,
}

/// A measurement site with its readout-flip probabilities baked in.
#[derive(Debug, Clone, Copy)]
struct MeasSite {
    dense: u32,
    clbit: u32,
    p01: f64,
    p10: f64,
}

/// A Pauli drawn for this shot, pre-expanded to (step, qubit mask, kind).
/// Ordered so that a window's fired sets can be sorted into groups.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct FiredPauli {
    step: u32,
    bit: usize,
    pauli: Pauli,
}

/// Accumulates the flat event lookup tables during compilation.
#[derive(Debug, Default)]
struct EventLut {
    events: Vec<EventSite>,
    probs: Vec<f64>,
    outcomes: Vec<OutcomeDesc>,
    pauli_terms: Vec<PauliTerm>,
}

impl EventLut {
    /// Appends an event site, flattening its outcome table. Zero-probability
    /// sites are dropped (they can never fire) and probabilities are clamped
    /// to [`MAX_EVENT_PROB`].
    fn push(&mut self, step: u32, prob: f64, kind: EventKind) {
        let p = prob.clamp(0.0, MAX_EVENT_PROB);
        if p <= 0.0 {
            return;
        }
        let outcome_start = self.outcomes.len() as u32;
        for outcome in kind.outcome_table() {
            let start = self.pauli_terms.len() as u32;
            for (q, pauli) in outcome {
                self.pauli_terms.push(PauliTerm {
                    bit: 1usize << q.index(),
                    pauli,
                });
            }
            self.outcomes.push(OutcomeDesc {
                start,
                len: (self.pauli_terms.len() as u32 - start) as u8,
            });
        }
        self.events.push(EventSite {
            step,
            outcome_start,
            outcome_count: self.outcomes.len() as u32 - outcome_start,
        });
        self.probs.push(p);
    }

    /// The prefix survival-product table over the collected sites.
    fn survival(&self) -> Vec<f64> {
        let mut table = Vec::with_capacity(self.probs.len() + 1);
        let mut acc = 1.0f64;
        table.push(acc);
        for &p in &self.probs {
            acc *= 1.0 - p;
            table.push(acc);
        }
        table
    }
}

#[derive(Debug, Clone, Copy)]
enum EventKind {
    /// Single-qubit depolarizing: one of X/Y/Z uniformly.
    Depol1(Qubit),
    /// Two-qubit depolarizing: one of the 15 non-identity Pauli pairs.
    Depol2(Qubit, Qubit),
    /// T1-style bit flip.
    BitFlip(Qubit),
    /// T2-style phase flip.
    PhaseFlip(Qubit),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Pauli {
    X,
    Y,
    Z,
}

const PAULIS: [Pauli; 3] = [Pauli::X, Pauli::Y, Pauli::Z];

impl EventKind {
    /// Enumerates every Pauli string the channel can apply, in a fixed
    /// order (uniformly likely once the event fires).
    fn outcome_table(self) -> Vec<Vec<(Qubit, Pauli)>> {
        match self {
            EventKind::Depol1(q) => PAULIS.iter().map(|&p| vec![(q, p)]).collect(),
            EventKind::Depol2(a, b) => {
                // The 15 non-identity pairs: index 1..16 over base 4.
                (1..16usize)
                    .map(|idx| {
                        let (pa, pb) = (idx / 4, idx % 4);
                        let mut out = Vec::with_capacity(2);
                        if pa > 0 {
                            out.push((a, PAULIS[pa - 1]));
                        }
                        if pb > 0 {
                            out.push((b, PAULIS[pb - 1]));
                        }
                        out
                    })
                    .collect()
            }
            EventKind::BitFlip(q) => vec![vec![(q, Pauli::X)]],
            EventKind::PhaseFlip(q) => vec![vec![(q, Pauli::Z)]],
        }
    }
}

fn sample_cumulative<R: Rng + ?Sized>(cum: &[f64], rng: &mut R) -> usize {
    let u: f64 = rng.gen::<f64>() * cum.last().copied().unwrap_or(1.0);
    cum.partition_point(|&c| c <= u).min(cum.len() - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdevice::presets;

    fn device() -> DeviceModel {
        DeviceModel::synthesize(presets::melbourne14(), 42)
    }

    fn bell() -> Circuit {
        let mut c = Circuit::new(2, 2);
        c.h(0).cx(0, 1).measure_all();
        c
    }

    #[test]
    fn runs_are_deterministic_per_seed() {
        let d = device();
        let sim = NoisySimulator::from_device(&d);
        let a = sim.run(&bell(), 500, 1).unwrap();
        let b = sim.run(&bell(), 500, 1).unwrap();
        let c = sim.run(&bell(), 500, 2).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn run_equals_compile_plus_run_into() {
        let d = device();
        let sim = NoisySimulator::from_device(&d);
        let direct = sim.run(&bell(), 1500, 11).unwrap();
        let plan = sim.compile(&bell()).unwrap();
        let mut scratch = SimScratch::new();
        let mut counts = Counts::new(plan.num_clbits());
        plan.run_into(1500, 11, &mut scratch, &mut counts);
        assert_eq!(direct, counts);
    }

    #[test]
    fn compiled_plan_is_reusable_with_shared_scratch() {
        // One plan + one scratch across many seeds must match fresh
        // runs bit-for-bit: nothing may leak between calls.
        let d = device();
        let sim = NoisySimulator::from_device(&d);
        let plan = sim.compile(&bell()).unwrap();
        let mut scratch = SimScratch::new();
        for seed in [3u64, 17, 3, 99] {
            let mut counts = Counts::new(plan.num_clbits());
            plan.run_into(700, seed, &mut scratch, &mut counts);
            assert_eq!(counts, sim.run(&bell(), 700, seed).unwrap(), "seed {seed}");
        }
    }

    #[test]
    fn fusion_collapses_single_qubit_runs() {
        let d = device();
        let sim = NoisySimulator::from_device(&d);
        let mut c = Circuit::new(1, 1);
        c.h(0).t(0).s(0).h(0).measure(0, 0);
        let plan = sim.compile(&c).unwrap();
        assert_eq!(plan.num_prims(), 4);
        assert_eq!(plan.num_fused_ops(), 1, "adjacent 1q run must fuse");
    }

    #[test]
    fn fused_rotation_chain_matches_ideal_outcome() {
        // Six Rx(π/6) compose to Rx(π) = X up to phase: the fused pipeline
        // must land every noiseless shot on |1>.
        let d = device();
        let sim = NoisySimulator::from_device(&d).with_options(SimOptions::none());
        let mut c = Circuit::new(1, 1);
        for _ in 0..6 {
            c.rx(0, std::f64::consts::PI / 6.0);
        }
        c.measure(0, 0);
        let counts = sim.run(&c, 1000, 5).unwrap();
        assert_eq!(counts.get(1), 1000);
    }

    #[test]
    fn noiseless_options_reproduce_ideal_distribution() {
        let d = device();
        let sim = NoisySimulator::from_device(&d).with_options(SimOptions::none());
        let counts = sim.run(&bell(), 4000, 3).unwrap();
        // Only 00 and 11 may appear.
        assert_eq!(counts.get(0b01), 0);
        assert_eq!(counts.get(0b10), 0);
        let p00 = counts.probability(0b00);
        assert!((p00 - 0.5).abs() < 0.05, "p00 {p00}");
    }

    #[test]
    fn noisy_run_pollutes_other_outcomes() {
        let d = device();
        let sim = NoisySimulator::from_device(&d);
        let counts = sim.run(&bell(), 4000, 4).unwrap();
        // With ~6% readout error per bit some 01/10 outcomes must appear.
        assert!(counts.get(0b01) + counts.get(0b10) > 0);
        // But the Bell pair should still dominate.
        assert!(counts.probability(0b00) + counts.probability(0b11) > 0.6);
    }

    #[test]
    fn event_firing_rate_matches_site_probability() {
        // One X gate with only stochastic gate noise: the depolarizing
        // site fires with the calibrated 1q error rate. Two-thirds of
        // firings (X or Y) flip the measured bit... but on |1> an X/Y
        // lands on |0>: p(read 0) ≈ (2/3)·p_err. Checks the skip-sampling
        // scan against the direct Bernoulli definition.
        let d = device();
        let opts = SimOptions {
            stochastic_gate_noise: true,
            decoherence: false,
            coherent_errors: false,
            crosstalk: false,
            readout_error: false,
        };
        let sim = NoisySimulator::from_device(&d).with_options(opts);
        let mut c = Circuit::new(1, 1);
        c.x(0).measure(0, 0);
        let shots = 200_000;
        let counts = sim.run(&c, shots, 13).unwrap();
        let p_err = d.truth().gate_1q_err[0];
        let expect = 2.0 / 3.0 * p_err;
        let got = counts.probability(0);
        let sigma = (expect * (1.0 - expect) / shots as f64).sqrt();
        assert!(
            (got - expect).abs() < 5.0 * sigma + 2e-4,
            "flip rate {got} vs expected {expect}"
        );
    }

    #[test]
    fn wide_circuit_rejected() {
        let d = device();
        let sim = NoisySimulator::from_device(&d);
        let c = Circuit::new(20, 0);
        assert_eq!(
            sim.run(&c, 1, 0).unwrap_err(),
            SimError::TooManyQubits {
                circuit: 20,
                device: 14
            }
        );
    }

    #[test]
    fn register_wider_than_a_histogram_key_is_rejected_not_a_panic() {
        let d = device();
        let sim = NoisySimulator::from_device(&d);
        let mut c = Circuit::new(2, 64);
        c.h(0).measure(0, 63);
        let want = SimError::TooManyClbits { clbits: 64 };
        assert_eq!(sim.run(&c, 8, 0).unwrap_err(), want);
        let batch = sim.run_batch(&[crate::parallel::BatchJob::new(&c, 8, 0)], 1);
        assert_eq!(batch[0].as_ref().unwrap_err(), &want);
        assert_eq!(crate::ideal::probabilities(&c).unwrap_err(), want);
    }

    #[test]
    fn non_basis_gate_rejected() {
        let d = device();
        let sim = NoisySimulator::from_device(&d);
        let mut c = Circuit::new(3, 0);
        c.ccx(0, 1, 2);
        assert_eq!(
            sim.run(&c, 1, 0).unwrap_err(),
            SimError::UnsupportedGate { name: "ccx" }
        );
        let mut c = Circuit::new(2, 0);
        c.swap(0, 1);
        assert_eq!(
            sim.run(&c, 1, 0).unwrap_err(),
            SimError::UnsupportedGate { name: "swap" }
        );
    }

    #[test]
    fn uncoupled_cx_rejected() {
        let d = device();
        let sim = NoisySimulator::from_device(&d);
        let mut c = Circuit::new(14, 0);
        c.cx(0, 7); // opposite corners of melbourne
        assert_eq!(
            sim.run(&c, 1, 0).unwrap_err(),
            SimError::UncoupledQubits { a: 0, b: 7 }
        );
    }

    #[test]
    fn readout_error_flips_deterministic_outcome() {
        let d = device();
        let sim = NoisySimulator::from_device(&d);
        // |1> on a single qubit: asymmetric readout must flip some shots.
        let mut c = Circuit::new(1, 1);
        c.x(0).measure(0, 0);
        let counts = sim.run(&c, 8000, 5).unwrap();
        let p_wrong = counts.probability(0);
        let expected = d.truth().readout_p10[0];
        assert!(
            (p_wrong - expected).abs() < 0.03,
            "p_wrong {p_wrong} vs p10 {expected}"
        );
    }

    #[test]
    fn readout_asymmetry_is_visible() {
        let d = device();
        let sim = NoisySimulator::from_device(&d).with_options(SimOptions {
            stochastic_gate_noise: false,
            decoherence: false,
            coherent_errors: false,
            crosstalk: false,
            readout_error: true,
        });
        let mut prep0 = Circuit::new(1, 1);
        prep0.measure(0, 0);
        let mut prep1 = Circuit::new(1, 1);
        prep1.x(0).measure(0, 0);
        let c0 = sim.run(&prep0, 20_000, 6).unwrap();
        let c1 = sim.run(&prep1, 20_000, 7).unwrap();
        let err0 = c0.probability(1);
        let err1 = c1.probability(0);
        assert!(
            err1 > 1.5 * err0,
            "reading |1> (err {err1}) should fail more than |0> (err {err0})"
        );
    }

    #[test]
    fn coherent_errors_are_reproducible_across_seeds() {
        // With only coherent errors (deterministic), two different seeds must
        // produce statistically identical distributions.
        let d = device();
        let opts = SimOptions {
            stochastic_gate_noise: false,
            decoherence: false,
            coherent_errors: true,
            crosstalk: true,
            readout_error: false,
        };
        let sim = NoisySimulator::from_device(&d).with_options(opts);
        let mut c = Circuit::new(2, 2);
        c.h(0).cx(0, 1).h(0).h(1).measure_all();
        let a = sim.run(&c, 20_000, 1).unwrap();
        let b = sim.run(&c, 20_000, 99).unwrap();
        for key in 0..4u64 {
            assert!(
                (a.probability(key) - b.probability(key)).abs() < 0.02,
                "key {key}: {} vs {}",
                a.probability(key),
                b.probability(key)
            );
        }
    }

    #[test]
    fn different_edges_make_different_mistakes() {
        // The same logical circuit placed on two different edges must see
        // different coherent tilts — the core premise of EDM.
        let d = device();
        let opts = SimOptions {
            stochastic_gate_noise: false,
            decoherence: false,
            coherent_errors: true,
            crosstalk: false,
            readout_error: false,
        };
        let sim = NoisySimulator::from_device(&d).with_options(opts);
        // Phase-sensitive circuit: H, CX, T, H on both -> coherent angles
        // leak into outcome probabilities. The T gates bias the phase to
        // π/4 + θ so outcomes are monotone in θ near zero — without them
        // the probabilities are even in θ and two edges whose angles have
        // equal magnitude but opposite sign would be indistinguishable.
        let build = |a: u32, b: u32| {
            let n = a.max(b) + 1;
            let mut c = Circuit::new(n, 2);
            c.h(a).h(b).cx(a, b).t(a).t(b).h(a).h(b);
            c.measure(a, 0).measure(b, 1);
            c
        };
        let c01 = sim.run(&build(0, 1), 30_000, 1).unwrap();
        let c45 = sim.run(&build(4, 5), 30_000, 1).unwrap();
        let diff: f64 = (0..4u64)
            .map(|k| (c01.probability(k) - c45.probability(k)).abs())
            .sum();
        assert!(diff > 0.02, "distributions unexpectedly similar: {diff}");
    }

    #[test]
    fn mid_circuit_measurement_rejected() {
        let d = device();
        let sim = NoisySimulator::from_device(&d);
        let mut c = Circuit::new(1, 1);
        c.measure(0, 0).x(0);
        assert!(matches!(
            sim.run(&c, 1, 0).unwrap_err(),
            SimError::MidCircuitMeasurement { .. }
        ));
    }

    #[test]
    fn shot_count_respected() {
        let d = device();
        let sim = NoisySimulator::from_device(&d);
        let counts = sim.run(&bell(), 777, 0).unwrap();
        assert_eq!(counts.shots(), 777);
    }

    #[test]
    fn zero_shots_gives_empty_counts() {
        let d = device();
        let sim = NoisySimulator::from_device(&d);
        let counts = sim.run(&bell(), 0, 0).unwrap();
        assert_eq!(counts.shots(), 0);
    }

    #[test]
    fn iid_only_matches_most_frequent_for_easy_circuit() {
        let d = device();
        let sim = NoisySimulator::from_device(&d).with_options(SimOptions::iid_only());
        let mut c = Circuit::new(3, 3);
        c.x(0).x(2).measure_all();
        let counts = sim.run(&c, 2000, 9).unwrap();
        assert_eq!(counts.most_frequent(), Some(0b101));
    }

    #[test]
    fn dense_reindexing_handles_high_physical_qubits() {
        // A circuit using only high-numbered physical qubits must still run
        // in a compact state vector.
        let d = device();
        let sim = NoisySimulator::from_device(&d);
        let mut c = Circuit::new(14, 2);
        c.h(9).cx(9, 10).measure(9, 0).measure(10, 1);
        let counts = sim.run(&c, 1000, 3).unwrap();
        assert_eq!(counts.shots(), 1000);
        assert!(counts.probability(0b00) + counts.probability(0b11) > 0.6);
    }

    #[test]
    fn survival_table_matches_event_probabilities() {
        let d = device();
        let sim = NoisySimulator::from_device(&d);
        let plan = sim.compile(&bell()).unwrap();
        let n = plan.num_event_sites();
        assert!(n > 0, "a noisy bell circuit must have error sites");
        assert_eq!(plan.survival.len(), n + 1);
        assert_eq!(plan.survival[0], 1.0);
        for w in plan.survival.windows(2) {
            assert!(
                w[1] <= w[0] && w[1] > 0.0,
                "survival must decrease, stay positive"
            );
        }
    }

    #[test]
    fn clean_statevector_matches_trajectory() {
        let d = device();
        let opts = SimOptions {
            stochastic_gate_noise: false,
            decoherence: false,
            coherent_errors: true,
            crosstalk: true,
            readout_error: false,
        };
        let sim = NoisySimulator::from_device(&d).with_options(opts);
        let plan = sim.compile(&bell()).unwrap();
        let sv = plan.clean_statevector();
        assert_eq!(sv.num_qubits(), 2);
        assert!((sv.norm() - 1.0).abs() < 1e-9);
        // clean_cum is the cumulative of exactly this state.
        let probs = sv.probabilities();
        let mut acc = 0.0;
        for (p, &c) in probs.iter().zip(plan.clean_cum.iter()) {
            acc += p;
            assert!((acc - c).abs() < 1e-12);
        }
    }
}

/// Clean-prefix checkpoints: resuming must be bitwise invisible. Tiny
/// circuits and few cases keep this module cheap enough for Miri.
#[cfg(test)]
mod checkpoint {
    use super::*;
    use qdevice::presets;
    use rand::Rng;

    const CASES: u64 = if cfg!(miri) { 4 } else { 64 };

    pub(super) fn device(qubits: u32) -> DeviceModel {
        DeviceModel::synthesize(presets::line(qubits), 7)
    }

    /// A random basis circuit on a line: single-qubit gates that tend to
    /// repeat on one qubit (so fusion builds multi-step spans) and CXs on
    /// neighboring pairs.
    pub(super) fn random_circuit(rng: &mut ChaCha8Rng, qubits: u32, gates: usize) -> Circuit {
        let mut c = Circuit::new(qubits, qubits);
        let mut q = 0;
        for _ in 0..gates {
            if qubits > 1 && rng.gen_bool(0.25) {
                let a = rng.gen_range(0..qubits - 1);
                if rng.gen_bool(0.5) {
                    c.cx(a, a + 1);
                } else {
                    c.cx(a + 1, a);
                }
                continue;
            }
            if rng.gen_bool(0.4) {
                q = rng.gen_range(0..qubits);
            }
            let theta = rng.gen_range(-3.0..3.0);
            match rng.gen_range(0..5) {
                0 => c.rx(q, theta),
                1 => c.ry(q, theta),
                2 => c.rz(q, theta),
                3 => c.h(q),
                _ => c.t(q),
            };
        }
        c.measure_all();
        c
    }

    pub(super) fn compile(circuit: &Circuit) -> CompiledCircuit {
        let d = device(circuit.num_qubits().max(2));
        NoisySimulator::from_device(&d).compile(circuit).unwrap()
    }

    pub(super) fn without_checkpoints(plan: &CompiledCircuit) -> CompiledCircuit {
        let mut bare = plan.clone();
        bare.checkpoints.clear();
        bare.checkpoint_amps.clear();
        bare
    }

    fn pauli(step: u32, qubit: u32, pauli: Pauli) -> FiredPauli {
        FiredPauli {
            step,
            bit: 1 << qubit,
            pauli,
        }
    }

    /// Runs `fired` on `plan` and on its checkpoint-free twin, asserts the
    /// states agree bit for bit, and returns the ops the plan skipped.
    fn assert_resumes_exactly(plan: &CompiledCircuit, fired: &[FiredPauli]) -> usize {
        let (mut resumed, mut replayed) = (Vec::new(), Vec::new());
        let skipped = plan.run_trajectory_into(fired, &mut resumed);
        assert_eq!(
            without_checkpoints(plan).run_trajectory_into(fired, &mut replayed),
            0
        );
        let bits = |v: &[C64]| -> Vec<(u64, u64)> {
            v.iter().map(|a| (a.re.to_bits(), a.im.to_bits())).collect()
        };
        assert_eq!(bits(&resumed), bits(&replayed), "fired {fired:?}");
        skipped
    }

    #[test]
    fn random_plans_resume_bit_identically() {
        let mut resumed_any = false;
        for case in 0..CASES {
            let mut rng = ChaCha8Rng::seed_from_u64(case);
            let qubits = rng.gen_range(1..=4);
            let gates = rng.gen_range(0..48);
            let plan = compile(&random_circuit(&mut rng, qubits, gates));
            let steps = gates.max(1) as u32;
            for _ in 0..8 {
                let mut fired: Vec<FiredPauli> = (0..rng.gen_range(1..=3))
                    .map(|_| {
                        let q = rng.gen_range(0..plan.num_dense_qubits.max(1));
                        pauli(rng.gen_range(0..steps), q, PAULIS[rng.gen_range(0..3usize)])
                    })
                    .collect();
                fired.sort_by_key(|f| f.step);
                resumed_any |= assert_resumes_exactly(&plan, &fired) > 0;
            }
        }
        assert!(resumed_any, "no random case exercised a checkpoint");
    }

    /// Runs of three rotations on each qubit between CXs, with the
    /// correlated decorations off so the fused stream is exactly
    /// `[span(q0), span(q1), cx]` per round: 24 ops at stride 5, so
    /// multi-step spans end right at checkpoints 5, 10 and 20.
    fn span_plan() -> CompiledCircuit {
        let mut c = Circuit::new(2, 2);
        for i in 0..8 {
            let theta = 0.3 + 0.1 * i as f64;
            c.rx(0, theta).rz(0, 0.7).ry(0, -0.4);
            c.ry(1, theta).rx(1, -0.2).rz(1, 0.9);
            c.cx(0, 1);
        }
        c.measure_all();
        let d = device(2);
        let plan = NoisySimulator::from_device(&d)
            .with_options(SimOptions::iid_only())
            .compile(&c)
            .unwrap();
        assert_eq!(plan.num_fused_ops(), 24);
        plan
    }

    #[test]
    fn first_event_exactly_at_a_checkpoint_step_resumes_there() {
        let plan = span_plan();
        assert_eq!(plan.num_checkpoints(), 4);
        for (c, cp) in plan.checkpoints.iter().enumerate() {
            // The last checkpoint sharing this `min_step` is the one chosen.
            let chosen = plan.checkpoints[c..]
                .iter()
                .take_while(|later| later.min_step == cp.min_step)
                .last()
                .unwrap();
            let fired = [
                pauli(cp.min_step, 0, Pauli::X),
                pauli(cp.min_step + 2, 1, Pauli::Z),
            ];
            assert_eq!(assert_resumes_exactly(&plan, &fired), chosen.op);
            if cp.min_step > 0 {
                // One step earlier may not use this checkpoint.
                let fired = [pauli(cp.min_step - 1, 1, Pauli::Y)];
                assert!(assert_resumes_exactly(&plan, &fired) < cp.op);
            }
        }
    }

    #[test]
    fn events_inside_spans_around_a_checkpoint_replay_exactly() {
        let plan = span_plan();
        let mut straddled = 0;
        for cp in &plan.checkpoints {
            let before = &plan.fused[cp.op - 1];
            let after = &plan.fused[cp.op];
            straddled += usize::from(before.first_step < before.last_step);
            for step in before.first_step..=after.last_step {
                for pauli_kind in PAULIS {
                    let fired = [pauli(step, 0, pauli_kind), pauli(step, 1, Pauli::X)];
                    let skipped = assert_resumes_exactly(&plan, &fired);
                    if step < before.last_step {
                        // Inside the span that ends at the checkpoint: the
                        // span must be replayed, so resumption stops short.
                        assert!(skipped < cp.op);
                    }
                }
            }
        }
        assert!(straddled > 0, "no multi-step span ends at a checkpoint");
    }

    #[test]
    fn plans_shorter_than_one_stride_and_empty_plans_run_from_zero() {
        let mut empty = Circuit::new(2, 2);
        empty.measure_all();
        let mut one = Circuit::new(2, 2);
        one.h(0).t(0).measure_all();
        let mut two = Circuit::new(2, 2);
        two.h(0).x(1).measure_all();
        for (circuit, ops) in [(empty, 0), (one, 1), (two, 2)] {
            let plan = compile(&circuit);
            assert_eq!(plan.num_fused_ops(), ops);
            assert_eq!(plan.num_checkpoints(), 0);
            for step in 0..=ops as u32 {
                let fired = [pauli(step, 0, Pauli::Y)];
                assert_eq!(assert_resumes_exactly(&plan, &fired), 0);
            }
        }
    }

    #[test]
    fn histograms_and_replay_counts_ignore_checkpoints() {
        let plan = span_plan();
        let bare = without_checkpoints(&plan);
        let shots = if cfg!(miri) { 16 } else { 2048 };
        let (mut a, mut b) = (Counts::new(2), Counts::new(2));
        let work = plan.run_into(shots, 5, &mut SimScratch::new(), &mut a);
        let bare_work = bare.run_into(shots, 5, &mut SimScratch::new(), &mut b);
        assert_eq!(a, b);
        assert_eq!(work.replayed_shots, bare_work.replayed_shots);
        assert!(work.replayed_shots <= shots);
        assert_eq!(bare_work.skipped_ops, 0);
        assert!(work.skipped_ops > 0);
    }

    #[test]
    fn stride_keeps_every_plan_under_the_amplitude_cap() {
        for qubits in 0..=20u32 {
            for ops in [0usize, 1, 2, 3, 10, 100, 1_000, 100_000] {
                let kept =
                    checkpoint_stride(ops, qubits).map_or(0, |s| (s..ops).step_by(s).count());
                assert!(kept << qubits <= CHECKPOINT_AMP_CAP, "{qubits}q {ops} ops");
                if qubits <= 8 && ops <= 1_000 {
                    // The cap does not bind: the plain ⌈√ops⌉ stride.
                    let sqrt = (ops as f64).sqrt().ceil() as usize;
                    assert_eq!(checkpoint_stride(ops, qubits), Some(sqrt.max(1)));
                }
            }
        }
    }

    #[test]
    #[cfg_attr(miri, ignore = "wide state vectors are too slow under Miri")]
    fn wide_plans_stay_under_the_amplitude_cap() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        // 12 qubits: the cap allows 16 checkpoints, fewer than √ops.
        let plan = compile(&random_circuit(&mut rng, 12, 1_200));
        assert!(plan.num_checkpoints() > 0);
        assert!(plan.checkpoint_amps.len() <= CHECKPOINT_AMP_CAP);
        assert_eq!(plan.checkpoint_amps.len(), plan.num_checkpoints() << 12);
        // 17 qubits: one checkpoint alone would exceed the cap.
        let plan = compile(&random_circuit(&mut rng, 17, 40));
        assert_eq!(plan.num_dense_qubits, 17);
        assert_eq!(plan.num_checkpoints(), 0);
        assert!(plan.checkpoint_amps.is_empty());
    }
}

/// The two-pass shot loop against the per-shot loop it replaced, kept here
/// as the oracle: histograms and work counts must match bit for bit. Tiny
/// circuits and few shots keep this module cheap enough for Miri.
#[cfg(test)]
mod dedup {
    use super::checkpoint::{compile, device, random_circuit, without_checkpoints};
    use super::*;
    use crate::statevector::sample_kernel;
    use qdevice::presets;
    use rand::Rng;

    const CASES: u64 = if cfg!(miri) { 1 } else { 6 };

    /// Shot counts around the window size, plus one run of several windows.
    const SHOTS: &[u64] = if cfg!(miri) {
        &[0, 1, 2, 33]
    } else {
        &[0, 1, 2, 1023, 1024, 1025, 5000]
    };

    /// The per-shot loop: draws, one trajectory per fired shot, one
    /// `sample_kernel` sweep and the readout flips, shot by shot.
    fn per_shot(plan: &CompiledCircuit, shots: u64, seed: u64) -> (Counts, ShotWork) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut counts = Counts::new(plan.num_clbits());
        let (mut fired, mut amps) = (Vec::new(), Vec::new());
        let mut work = ShotWork::default();
        for _ in 0..shots {
            fired.clear();
            plan.sample_events(&mut rng, &mut fired);
            let basis = if fired.is_empty() {
                sample_cumulative(&plan.clean_cum, &mut rng)
            } else {
                work.replayed_shots += 1;
                work.skipped_ops += plan.run_trajectory_into(&fired, &mut amps) as u64;
                sample_kernel(&amps, &mut rng)
            };
            let mut key = 0u64;
            for m in &plan.measurements {
                let mut bit = (basis >> m.dense) & 1;
                if plan.readout {
                    let flip_prob = if bit == 1 { m.p10 } else { m.p01 };
                    if rng.gen::<f64>() < flip_prob {
                        bit ^= 1;
                    }
                }
                key |= (bit as u64) << m.clbit;
            }
            counts.record(key);
        }
        (counts, work)
    }

    /// Runs `plan` both ways with every shot count in [`SHOTS`] (sharing
    /// one scratch, so nothing may leak between calls) and asserts equal
    /// histograms and per-shot work. Returns whether any window ran fewer
    /// trajectories than it had fired shots.
    fn assert_matches_per_shot(plan: &CompiledCircuit, seed: u64) -> bool {
        let mut scratch = SimScratch::new();
        let mut shared = false;
        for &shots in SHOTS {
            let (want, want_work) = per_shot(plan, shots, seed);
            let mut got = Counts::new(plan.num_clbits());
            let work = plan.run_into(shots, seed, &mut scratch, &mut got);
            assert_eq!(got, want, "{shots} shots, seed {seed}");
            assert_eq!(work.replayed_shots, want_work.replayed_shots);
            assert_eq!(work.skipped_ops, want_work.skipped_ops);
            assert!(work.distinct_trajectories <= work.replayed_shots);
            assert_eq!(work.distinct_trajectories == 0, work.replayed_shots == 0);
            shared |= work.distinct_trajectories < work.replayed_shots;
        }
        shared
    }

    /// Every channel set of the ablations, each with readout on and off.
    fn option_sets() -> Vec<SimOptions> {
        let mut sets = Vec::new();
        for base in [
            SimOptions::all(),
            SimOptions::iid_only(),
            SimOptions::none(),
        ] {
            for readout_error in [true, false] {
                sets.push(SimOptions {
                    readout_error,
                    ..base
                });
            }
        }
        sets
    }

    #[test]
    fn random_plans_match_the_per_shot_loop() {
        let (mut shared, mut without_sites) = (false, false);
        for case in 0..CASES {
            let mut rng = ChaCha8Rng::seed_from_u64(case);
            let qubits = rng.gen_range(1..=4);
            let gates = rng.gen_range(0..32);
            let circuit = random_circuit(&mut rng, qubits, gates);
            let d = device(qubits.max(2));
            for options in option_sets() {
                let plan = NoisySimulator::from_device(&d)
                    .with_options(options)
                    .compile(&circuit)
                    .unwrap();
                without_sites |= plan.num_event_sites() == 0;
                shared |= assert_matches_per_shot(&plan, 100 + case);
            }
        }
        assert!(without_sites, "no plan without event sites");
        // Miri's few shots need not repeat a fired set.
        assert!(shared || cfg!(miri), "no window shared a trajectory");
    }

    #[test]
    fn plans_without_checkpoints_match_the_per_shot_loop() {
        for case in 0..CASES {
            let mut rng = ChaCha8Rng::seed_from_u64(50 + case);
            let qubits = rng.gen_range(2..=4);
            let plan = compile(&random_circuit(&mut rng, qubits, 40));
            let bare = without_checkpoints(&plan);
            assert_eq!(bare.num_checkpoints(), 0);
            assert_matches_per_shot(&bare, case);
        }
    }

    #[test]
    fn wide_registers_match_the_per_shot_loop() {
        // 14 classical bits: outcomes go straight into `Counts`, not the
        // dense histogram.
        let mut c = Circuit::new(3, 14);
        c.h(0).cx(0, 1).ry(2, 0.7).cx(1, 2).h(1);
        c.measure(0, 0).measure(1, 7).measure(2, 13);
        let d = device(3);
        for options in [SimOptions::all(), SimOptions::iid_only()] {
            let plan = NoisySimulator::from_device(&d)
                .with_options(options)
                .compile(&c)
                .unwrap();
            assert!(plan.num_clbits() > DENSE_HIST_BITS);
            let shared = assert_matches_per_shot(&plan, 4);
            assert!(shared || cfg!(miri), "no window shared a trajectory");
        }
    }

    #[test]
    fn sorted_sweep_returns_what_sample_kernel_returns() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let state: Vec<C64> = (0..8)
            .map(|_| C64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
            .collect();
        let norm = state.iter().map(|a| a.norm_sqr()).sum::<f64>().sqrt();
        let normalized: Vec<C64> = state.iter().map(|a| a.scale(1.0 / norm)).collect();
        // Total weight 1/4: most uniforms fall through to the last index.
        let short: Vec<C64> = normalized.iter().map(|a| a.scale(0.5)).collect();
        let mut sparse = normalized.clone();
        sparse[0] = C64::new(0.0, 0.0);
        sparse[3] = C64::new(0.0, 0.0);
        sparse[7] = C64::new(0.0, 0.0);
        let single = vec![C64::new(1.0, 0.0)];
        let draws = if cfg!(miri) { 16 } else { 512 };
        for amps in [&normalized, &short, &sparse, &single] {
            // (u, index): `sample_kernel` on a clone of the stream draws
            // exactly the `u` read here.
            let mut pairs: Vec<(f64, usize)> = (0..draws)
                .map(|_| {
                    let mut twin = rng.clone();
                    let u: f64 = rng.gen();
                    (u, sample_kernel(amps, &mut twin))
                })
                .collect();
            pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut sweep = SortedSweep::new(amps);
            for &(u, want) in &pairs {
                assert_eq!(sweep.sample(u), want, "u {u}");
            }
        }
    }

    /// FNV-1a over the histogram's width and `(outcome, count)` pairs.
    fn digest(counts: &Counts) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        };
        eat(&counts.num_clbits().to_le_bytes());
        for (outcome, n) in counts.iter() {
            eat(&outcome.to_le_bytes());
            eat(&n.to_le_bytes());
        }
        h
    }

    /// Histogram digests recorded with the per-shot loop, before the
    /// two-pass loop existed, so that they cannot move with it.
    #[test]
    #[cfg_attr(miri, ignore = "thousands of shots are too slow under Miri")]
    fn histograms_match_the_digests_of_the_per_shot_loop() {
        let mut layered = Circuit::new(3, 3);
        for i in 0..10 {
            layered.h(0).cx(0, 1).rx(1, 0.2 * i as f64).cx(1, 2).t(2);
        }
        layered.measure_all();
        let mut bell = Circuit::new(2, 2);
        bell.h(0).cx(0, 1).measure_all();
        let mut wide = Circuit::new(3, 14);
        wide.h(0).cx(0, 1).ry(2, 0.7).cx(1, 2).h(1);
        wide.measure(0, 0).measure(1, 7).measure(2, 13);
        // (circuit, options, shots, seed, run digest, run_parallel digest)
        let cases = [
            (
                &layered,
                SimOptions::all(),
                5000,
                11,
                0xfa13241f5b6996c4u64,
                0xe9b3c90b9d30e519u64,
            ),
            (
                &bell,
                SimOptions::iid_only(),
                1025,
                3,
                0x1eae4f5cf24814a4,
                0x05791bf37fc39b40,
            ),
            (
                &wide,
                SimOptions::all(),
                2048,
                5,
                0xc4e3ed0dc7128c7f,
                0xf456bb6c73a9748b,
            ),
            (
                &layered,
                SimOptions::none(),
                1023,
                9,
                0xe1e39da5fa833755,
                0x6be20d44336ace04,
            ),
        ];
        let d = DeviceModel::synthesize(presets::melbourne14(), 42);
        for (circuit, options, shots, seed, run, parallel) in cases {
            let sim = NoisySimulator::from_device(&d).with_options(options);
            assert_eq!(digest(&sim.run(circuit, shots, seed).unwrap()), run);
            for threads in [1, 2] {
                let counts = sim.run_parallel(circuit, shots, seed, threads).unwrap();
                assert_eq!(digest(&counts), parallel, "{threads} thread(s)");
            }
        }
    }
}
