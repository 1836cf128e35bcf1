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
//! outcome distribution cached. [`NoisySimulator::run_batch`] then runs
//! every job's shots against the shared plan, slice by slice.
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
//! At low error rates most fired shots fire the same few events, so shots
//! run in two passes. The first (*draw*, one slice at a time) draws every
//! shot's events and uniforms in stream order, finishing clean shots at
//! once and deferring fired ones. The second (*replay*) runs each distinct
//! fired-event set of a group of a plan's slices once, across jobs, and
//! samples all of its shots in one ascending sweep. No draw depends on the
//! state, so the histogram is exactly what one trajectory per shot would
//! give.

use crate::complex::C64;
use crate::counts::Counts;
use crate::error::SimError;
use crate::fuse::{self, FusedOp, Prim};
use crate::ideal;
use crate::parallel::BatchJob;
use crate::rngstream;
use crate::statevector::{
    apply_1q_kernel, apply_cx_kernel, apply_x_kernel, apply_y_kernel, apply_z_kernel, reset_zero,
    MAX_QUBITS,
};
use crate::tier::{self, Tier, Tiered};
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
    /// A one-job [`NoisySimulator::run_batch`] at one thread, run on the
    /// calling thread: the budget is cut into
    /// [`SLICE_SHOTS`](crate::parallel::SLICE_SHOTS)-shot slices,
    /// slice `s` seeded with `rngstream::fork(seed, s)`. So the histogram
    /// is the one `run_batch` returns for the same job at every thread
    /// count — the repository has one seed schedule (DESIGN.md §7). The
    /// job inherits the caller's trace context, so its slices link into
    /// the caller's trace.
    ///
    /// The circuit must already be *physical*: lowered to the
    /// `{single-qubit, CX, measure}` basis with every CX on a coupled pair
    /// (use the `qmap` transpiler to get there).
    ///
    /// # Errors
    ///
    /// - [`SimError::TooManyQubits`] if the circuit is wider than the device.
    /// - [`SimError::TooWideToSimulate`] if it acts on more qubits than a
    ///   state vector can hold.
    /// - [`SimError::TooManyClbits`] if its classical register does not fit
    ///   a histogram key.
    /// - [`SimError::UnsupportedGate`] for gates outside the device basis.
    /// - [`SimError::UncoupledQubits`] for a CX on a non-edge.
    /// - [`SimError::MidCircuitMeasurement`] / [`SimError::ClbitReused`] for
    ///   invalid measurement structure.
    /// - [`SimError::TooManyShots`] if `shots` exceeds
    ///   [`MAX_SHOTS`](crate::parallel::MAX_SHOTS).
    pub fn run(&self, circuit: &Circuit, shots: u64, seed: u64) -> Result<Counts, SimError> {
        let job =
            BatchJob::new(circuit, shots, seed).traced(edm_telemetry::trace::current_context());
        self.run_batch(&[job], 1).pop().expect("one result per job")
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
    /// Same conditions as [`NoisySimulator::run`], but for
    /// [`SimError::TooManyShots`]: a plan has no shot budget.
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
        if active.len() > MAX_QUBITS as usize {
            return Err(SimError::TooWideToSimulate {
                qubits: active.len() as u32,
            });
        }
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
/// [`NoisySimulator::compile`]; executed by [`NoisySimulator::run_batch`].
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

/// Exact work done by one [`CompiledCircuit::replay_slices`] call.
///
/// All four counts are deterministic functions of the slices' draws, so
/// they sum to the same totals for any thread count and any SIMD tier.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct ShotWork {
    /// Shots that took a trajectory's state (at least one event fired)
    /// instead of sampling the cached clean distribution.
    pub(crate) replayed_shots: u64,
    /// Fused ops those shots' trajectories skipped by resuming from a
    /// clean-prefix checkpoint, counted once per shot.
    pub(crate) skipped_ops: u64,
    /// Trajectories actually run: the distinct fired-event sets among the
    /// replayed shots (at most `replayed_shots`).
    pub(crate) distinct_trajectories: u64,
    /// Amplitude-kernel calls those trajectories made: fused ops, prims
    /// replayed inside a fused span a Pauli split, and the Paulis.
    pub(crate) kernel_ops: u64,
}

impl std::ops::AddAssign for ShotWork {
    fn add_assign(&mut self, other: ShotWork) {
        self.replayed_shots += other.replayed_shots;
        self.skipped_ops += other.skipped_ops;
        self.distinct_trajectories += other.distinct_trajectories;
        self.kernel_ops += other.kernel_ops;
    }
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

    /// Pass 1 of one batch slice, compiled for `tier`: draws `shots` shots
    /// seeded with `seed`, in stream order. Returns the slice's clean shots
    /// as a histogram and its fired shots sorted by set key.
    ///
    /// A shot draws, in this order: its events, one uniform (for the fired
    /// trajectory's `|amp|²` sweep, or for the clean distribution), and one
    /// readout uniform per measurement when readout error is on. A clean
    /// shot is recorded at once. A fired one is deferred with its sweep
    /// uniform and its readout flips (see `ReadoutFlips`).
    pub(crate) fn draw_slice(
        &self,
        tier: Tier,
        shots: u64,
        seed: u64,
        scratch: &mut SimScratch,
    ) -> (Counts, Deferred) {
        let mut counts = Counts::new(self.num_clbits);
        let mut deferred = Deferred::default();
        let job = DrawSlice {
            plan: self,
            shots,
            seed,
            deferred: &mut deferred,
            hist: &mut scratch.hist,
            counts: &mut counts,
        };
        tier::dispatch(tier, job);
        deferred.shots.sort_unstable_by_key(|p| p.key);
        (counts, deferred)
    }

    /// Pass 2 over the fired shots of `slices` (one plan's) whose set key
    /// falls in `bucket`, compiled for `tier`. Runs each distinct fired
    /// set's trajectory once and samples its shots in ascending uniform
    /// order with one sweep over its `|amp|²`. No draw depends on the
    /// state, and a set's state does not depend on which shot drew it, so
    /// the outcomes are the ones a trajectory per shot gives, bit for bit.
    /// Returns each shot's `(slice, outcome)`, sorted, and the exact work
    /// done.
    pub(crate) fn replay_slices(
        &self,
        tier: Tier,
        slices: &[&Deferred],
        bucket: Bucket,
        scratch: &mut SimScratch,
    ) -> (Vec<(u32, u64)>, ShotWork) {
        let mut outcomes = Vec::new();
        let job = Replay {
            plan: self,
            slices,
            bucket,
            scratch,
            outcomes: &mut outcomes,
        };
        let work = tier::dispatch(tier, job);
        outcomes.sort_unstable();
        (outcomes, work)
    }

    /// Pass 1: draws `shots` shots from `rng` in stream order. A clean
    /// shot is recorded into `clean` at once; a fired one is appended to
    /// `deferred` with its Paulis, set key, sweep uniform and readout
    /// flips.
    #[inline(always)]
    fn draw(
        &self,
        rng: &mut ChaCha8Rng,
        shots: u64,
        deferred: &mut Deferred,
        clean: &mut Recorder<'_>,
    ) {
        let fired = &mut deferred.fired;
        for _ in 0..shots {
            let start = fired.len();
            self.sample_events(rng, fired);
            if fired.len() == start {
                let basis = sample_cumulative(&self.clean_cum, rng);
                clean.record(self.readout_key(basis, self.draw_flips(rng)));
                continue;
            }
            // Keeps every offset into `fired` a valid `u32` (2^32 Paulis
            // would fill 32 GiB first).
            assert!(
                fired.len() <= u32::MAX as usize,
                "fired Paulis overflow u32 offsets"
            );
            let u = rng.gen();
            let flips = self.draw_flips(rng);
            deferred.shots.push(Pending {
                key: set_key(&fired[start..]),
                slice: 0,
                start: start as u32,
                end: fired.len() as u32,
                u,
                flips,
            });
        }
    }

    /// Pass 2: sorts `pending` by (set, `u`), runs one trajectory per
    /// distinct set and samples its shots with one ascending sweep,
    /// passing each shot's slice and outcome to `record`. Slice `s`'s
    /// fired Paulis are `fired[s]`.
    #[inline(always)]
    fn replay(
        &self,
        fired: &[&[FiredPauli]],
        pending: &mut [Pending],
        amps: &mut Vec<C64>,
        mut record: impl FnMut(u32, u64),
    ) -> ShotWork {
        let fired = |d: &Pending| &fired[d.slice as usize][d.fired()];
        // The key orders distinct sets cheaply; equal keys fall back to
        // the sets themselves, so equal sets end up adjacent.
        pending.sort_unstable_by(|a, b| {
            a.key
                .cmp(&b.key)
                .then_with(|| fired(a).cmp(fired(b)))
                .then(a.u.total_cmp(&b.u))
        });
        let mut work = ShotWork::default();
        for group in pending.chunk_by(|a, b| a.key == b.key && fired(a) == fired(b)) {
            let (skipped, kernel_ops) = self.run_trajectory_into(fired(&group[0]), amps);
            work.distinct_trajectories += 1;
            work.replayed_shots += group.len() as u64;
            work.skipped_ops += (skipped * group.len()) as u64;
            work.kernel_ops += kernel_ops;
            let mut sweep = SortedSweep::new(amps);
            for shot in group {
                record(
                    shot.slice,
                    self.readout_key(sweep.sample(shot.u), shot.flips),
                );
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
                    qubit: t.qubit,
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
    /// `amps`, reusing its capacity. Returns the number of fused ops
    /// skipped by resuming from a checkpoint and the number of kernel
    /// calls made.
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
    #[inline(always)]
    fn run_trajectory_into(&self, fired: &[FiredPauli], amps: &mut Vec<C64>) -> (usize, u64) {
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
        // Every Pauli and every walked fused op is one kernel call; a split
        // op makes one per prim instead.
        let mut kernel_ops = (fired.len() + self.fused.len() - start) as u64;
        let mut fi = 0;
        for f in &self.fused[start..] {
            while fi < fired.len() && fired[fi].step < f.first_step {
                apply_pauli(amps, fired[fi]);
                fi += 1;
            }
            if fi < fired.len() && fired[fi].step < f.last_step {
                kernel_ops += f.prims.len() as u64 - 1;
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
        (start, kernel_ops)
    }
}

/// One [`CompiledCircuit::draw_slice`] call, as the job [`tier::dispatch`]
/// compiles once per SIMD tier.
struct DrawSlice<'a> {
    plan: &'a CompiledCircuit,
    shots: u64,
    seed: u64,
    deferred: &'a mut Deferred,
    hist: &'a mut Vec<u64>,
    counts: &'a mut Counts,
}

impl Tiered for DrawSlice<'_> {
    type Output = ();

    #[inline(always)]
    fn run(self) {
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        let mut clean = Recorder::new(self.plan.num_clbits, self.hist, self.counts);
        self.plan
            .draw(&mut rng, self.shots, self.deferred, &mut clean);
    }
}

/// One [`CompiledCircuit::replay_slices`] call, as a tiered job.
struct Replay<'a> {
    plan: &'a CompiledCircuit,
    slices: &'a [&'a Deferred],
    bucket: Bucket,
    scratch: &'a mut SimScratch,
    outcomes: &'a mut Vec<(u32, u64)>,
}

impl Tiered for Replay<'_> {
    type Output = ShotWork;

    #[inline(always)]
    fn run(self) -> ShotWork {
        let SimScratch { amps, pending, .. } = self.scratch;
        pending.clear();
        for (s, slice) in self.slices.iter().enumerate() {
            let shots = &slice.shots;
            // Sorted by key, so a bucket's shots are one run.
            let start = shots.partition_point(|p| self.bucket.index_of(p.key) < self.bucket.index);
            let end = shots.partition_point(|p| self.bucket.index_of(p.key) <= self.bucket.index);
            pending.extend(shots[start..end].iter().map(|&p| Pending {
                slice: s as u32,
                ..p
            }));
        }
        let fired: Vec<&[FiredPauli]> = self.slices.iter().map(|s| &s.fired[..]).collect();
        self.outcomes.reserve(pending.len());
        self.plan.replay(&fired, pending, amps, |slice, key| {
            self.outcomes.push((slice, key))
        })
    }
}

/// Per-worker buffers the batch path reuses across slices and batches:
/// the trajectory state vector, a replay item's gathered shots, and the
/// dense outcome histogram (left zeroed after every slice). Buffers only
/// grow; one scratch serves any sequence of plans.
#[derive(Debug, Default)]
pub(crate) struct SimScratch {
    amps: Vec<C64>,
    pending: Vec<Pending>,
    hist: Vec<u64>,
}

/// One batch slice's fired shots and their Paulis. Pass 1 appends them in
/// draw order; [`CompiledCircuit::draw_slice`] sorts them by set key.
#[derive(Debug, Default)]
pub(crate) struct Deferred {
    fired: Vec<FiredPauli>,
    shots: Vec<Pending>,
}

impl Deferred {
    /// How many fired shots the slice deferred.
    pub(crate) fn len(&self) -> usize {
        self.shots.len()
    }
}

/// One of `of` disjoint ranges of set keys. A plan's replay splits into
/// work items by bucket: every fired set falls in exactly one, so the
/// trajectories run do not depend on how many buckets there are.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Bucket {
    index: u64,
    of: u64,
}

impl Bucket {
    /// Bucket `index` of `of` (`index < of <= 2^32`).
    pub(crate) fn new(index: u64, of: u64) -> Self {
        debug_assert!(index < of && of <= 1 << 32);
        Bucket { index, of }
    }

    /// The bucket `key` falls in: the key scaled to `0..of`, so it never
    /// decreases as the key grows.
    fn index_of(self, key: u32) -> u64 {
        (u64::from(key) * self.of) >> 32
    }
}

/// A fired shot, deferred by pass 1 and gathered for replay.
#[derive(Debug, Clone, Copy)]
struct Pending {
    /// [`set_key`] of its fired Paulis.
    key: u32,
    /// Its slice's index among the slices replayed together (0 until a
    /// replay gathers it).
    slice: u32,
    /// Its fired Paulis are `fired[start..end]` of its slice's buffer.
    start: u32,
    end: u32,
    /// The uniform its trajectory's `|amp|²` sweep samples with.
    u: f64,
    flips: ReadoutFlips,
}

impl Pending {
    fn fired(&self) -> Range<usize> {
        self.start as usize..self.end as usize
    }
}

/// A 32-bit hash of a fired set. Equal sets have equal keys, so a replay
/// that splits shots by key never splits a set, and sorting by key first
/// compares the sets themselves only where keys tie.
#[inline(always)]
fn set_key(fired: &[FiredPauli]) -> u32 {
    let h = fired.iter().fold(0, |h, f| {
        let term = u64::from(f.step) << 16 | u64::from(f.qubit) << 8 | f.pauli as u64;
        rngstream::mix(h ^ term).wrapping_add(1)
    });
    (h >> 32) as u32
}

/// Records outcomes into `counts`: through a dense histogram in `hist`
/// when the register has at most [`DENSE_HIST_BITS`] bits, drained into
/// `counts` when the recorder drops, else straight into `counts`.
struct Recorder<'a> {
    /// Empty when the register is too wide.
    hist: &'a mut [u64],
    counts: &'a mut Counts,
}

impl<'a> Recorder<'a> {
    fn new(num_clbits: u32, hist: &'a mut Vec<u64>, counts: &'a mut Counts) -> Self {
        let len = if num_clbits <= DENSE_HIST_BITS {
            1 << num_clbits
        } else {
            0
        };
        if hist.len() < len {
            hist.resize(len, 0);
        }
        Recorder {
            hist: &mut hist[..len],
            counts,
        }
    }

    #[inline(always)]
    fn record(&mut self, key: u64) {
        if self.hist.is_empty() {
            self.counts.record(key);
        } else {
            self.hist[key as usize] += 1;
        }
    }
}

impl Drop for Recorder<'_> {
    /// Drains the dense histogram into `counts`, leaving it zeroed for the
    /// next pass. While unwinding it only zeroes it: the counts are
    /// discarded then, and a drop must not panic.
    fn drop(&mut self) {
        let unwinding = std::thread::panicking();
        for (outcome, slot) in self.hist.iter_mut().enumerate() {
            if *slot > 0 {
                if !unwinding {
                    self.counts.record_n(outcome as u64, *slot);
                }
                *slot = 0;
            }
        }
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

#[inline(always)]
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

#[inline(always)]
fn apply_pauli(amps: &mut [C64], fp: FiredPauli) {
    match fp.pauli {
        Pauli::X => apply_x_kernel(amps, 1 << fp.qubit),
        Pauli::Y => apply_y_kernel(amps, 1 << fp.qubit),
        Pauli::Z => apply_z_kernel(amps, 1 << fp.qubit),
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

/// A single Pauli factor on a dense qubit.
#[derive(Debug, Clone, Copy)]
struct PauliTerm {
    qubit: u8,
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

/// A Pauli drawn for this shot: (step, dense qubit, kind), 8 bytes.
/// Ordered so that fired sets can be sorted into groups.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct FiredPauli {
    step: u32,
    qubit: u8,
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
                    qubit: q.index() as u8,
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
    fn compiled_plan_is_reusable_with_shared_scratch() {
        // One plan + one scratch across many seeds must match fresh
        // runs bit-for-bit: nothing may leak between calls.
        let d = device();
        let sim = NoisySimulator::from_device(&d);
        let plan = sim.compile(&bell()).unwrap();
        let mut scratch = SimScratch::default();
        for (shots, seed) in [(700u64, 3u64), (2500, 17), (700, 3), (1, 99)] {
            let (counts, _) =
                super::dedup::batch_at(Tier::detected(), &plan, shots, seed, &mut scratch);
            assert_eq!(
                counts,
                sim.run(&bell(), shots, seed).unwrap(),
                "seed {seed}"
            );
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
    fn circuit_wider_than_a_state_vector_is_rejected_before_allocating() {
        let d = DeviceModel::synthesize(presets::falcon27(), 42);
        let sim = NoisySimulator::from_device(&d);
        let mut ghz = Circuit::new(27, 27);
        ghz.h(0);
        for q in 0..26 {
            ghz.cx(q, q + 1);
        }
        ghz.measure_all();
        let want = SimError::TooWideToSimulate { qubits: 27 };
        // Validation precedes both the coupling check and the clean-state
        // allocation, so the logical chain need not fit the topology.
        assert_eq!(sim.compile(&ghz).unwrap_err(), want);
        assert_eq!(sim.run(&ghz, 8, 0).unwrap_err(), want);
        assert_eq!(crate::ideal::final_state(&ghz).unwrap_err(), want);
        assert!(want.to_string().contains("27"), "{want}");
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
    fn clean_distribution_is_the_clean_trajectorys() {
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
        let mut amps = Vec::new();
        plan.run_trajectory_into(&[], &mut amps);
        assert_eq!(amps.len(), 4);
        // clean_cum is the cumulative of exactly this state.
        let mut acc = 0.0;
        for (a, &c) in amps.iter().zip(plan.clean_cum.iter()) {
            acc += a.norm_sqr();
            assert!((acc - c).abs() < 1e-12);
        }
        assert!((acc - 1.0).abs() < 1e-9);
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
            qubit: qubit as u8,
            pauli,
        }
    }

    /// Runs `fired` on `plan` and on its checkpoint-free twin, asserts the
    /// states agree bit for bit, and returns the ops the plan skipped.
    fn assert_resumes_exactly(plan: &CompiledCircuit, fired: &[FiredPauli]) -> usize {
        let (mut resumed, mut replayed) = (Vec::new(), Vec::new());
        let (skipped, _) = plan.run_trajectory_into(fired, &mut resumed);
        assert_eq!(
            without_checkpoints(plan)
                .run_trajectory_into(fired, &mut replayed)
                .0,
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
        assert_eq!(plan.checkpoints.len(), 4);
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
            assert_eq!(plan.checkpoints.len(), 0);
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
        let run = |plan| {
            super::dedup::batch_at(Tier::detected(), plan, shots, 5, &mut SimScratch::default())
        };
        let ((a, work), (b, bare_work)) = (run(&plan), run(&bare));
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
        assert!(!plan.checkpoints.is_empty());
        assert!(plan.checkpoint_amps.len() <= CHECKPOINT_AMP_CAP);
        assert_eq!(plan.checkpoint_amps.len(), plan.checkpoints.len() << 12);
        // 17 qubits: one checkpoint alone would exceed the cap.
        let plan = compile(&random_circuit(&mut rng, 17, 40));
        assert_eq!(plan.num_dense_qubits, 17);
        assert_eq!(plan.checkpoints.len(), 0);
        assert!(plan.checkpoint_amps.is_empty());
    }
}

/// The two-pass shot loop against the per-shot loop it replaced, kept here
/// as the oracle: histograms and work counts must match bit for bit. Tiny
/// circuits and few shots keep this module cheap enough for Miri.
#[cfg(test)]
pub(crate) mod dedup {
    use super::checkpoint::{compile, device, random_circuit, without_checkpoints};
    use super::*;
    use crate::parallel::{slice_sizes, GROUP_SLICES, REPLAY_ITEM_SHOTS, SLICE_SHOTS};
    use crate::statevector::sample_kernel;
    use qdevice::presets;
    use rand::Rng;

    pub(super) const CASES: u64 = if cfg!(miri) { 1 } else { 6 };

    /// Shot counts around the slice size, plus a job of several slices.
    pub(super) const SHOTS: &[u64] = if cfg!(miri) {
        &[0, 1, 2, 33]
    } else {
        &[0, 1, 2, 1023, 1024, 1025, 5000]
    };

    /// The per-shot loop over the slices `run_batch` cuts a job into:
    /// slice `s` of `n` shots draws from `fork(seed, s)`, shot by shot —
    /// its events, one trajectory per fired shot, one `sample_kernel`
    /// sweep and the readout flips. Its `distinct_trajectories` and
    /// `kernel_ops` count each distinct fired set once per group of
    /// [`GROUP_SLICES`] slices, the groups `run_batch` replays together.
    pub(crate) fn per_shot(plan: &CompiledCircuit, shots: u64, seed: u64) -> (Counts, ShotWork) {
        let mut counts = Counts::new(plan.num_clbits());
        let (mut fired, mut amps) = (Vec::new(), Vec::new());
        let mut seen = std::collections::BTreeSet::new();
        let mut work = ShotWork::default();
        for (s, n) in slice_sizes(shots).into_iter().enumerate() {
            if s % GROUP_SLICES == 0 {
                seen.clear();
            }
            let mut rng = ChaCha8Rng::seed_from_u64(rngstream::fork(seed, s as u64));
            for _ in 0..n {
                fired.clear();
                plan.sample_events(&mut rng, &mut fired);
                let basis = if fired.is_empty() {
                    sample_cumulative(&plan.clean_cum, &mut rng)
                } else {
                    let (skipped, kernel_ops) = plan.run_trajectory_into(&fired, &mut amps);
                    work.replayed_shots += 1;
                    work.skipped_ops += skipped as u64;
                    if seen.insert(fired.clone()) {
                        work.distinct_trajectories += 1;
                        work.kernel_ops += kernel_ops;
                    }
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
        }
        (counts, work)
    }

    /// One `shots`-shot job of `plan` seeded with `seed`, run as
    /// `run_batch` runs it, but serially and compiled for `tier`: each
    /// slice drawn on its own from `fork(seed, s)`, then each group of
    /// [`GROUP_SLICES`] slices replayed together in `run_batch`'s key
    /// buckets. Returns the histogram and the replay work.
    pub(super) fn batch_at(
        tier: Tier,
        plan: &CompiledCircuit,
        shots: u64,
        seed: u64,
        scratch: &mut SimScratch,
    ) -> (Counts, ShotWork) {
        let mut counts = Counts::new(plan.num_clbits());
        let mut work = ShotWork::default();
        for (g, group) in slice_sizes(shots).chunks(GROUP_SLICES).enumerate() {
            let drawn: Vec<(Counts, Deferred)> = group
                .iter()
                .enumerate()
                .map(|(i, &n)| {
                    let seed = rngstream::fork(seed, (g * GROUP_SLICES + i) as u64);
                    plan.draw_slice(tier, n, seed, scratch)
                })
                .collect();
            let views: Vec<&Deferred> = drawn.iter().map(|(_, deferred)| deferred).collect();
            let fired: usize = views.iter().map(|d| d.len()).sum();
            let of = fired.div_ceil(REPLAY_ITEM_SHOTS).max(1) as u64;
            for index in 0..of {
                let (outcomes, item) =
                    plan.replay_slices(tier, &views, Bucket::new(index, of), scratch);
                work += item;
                for (_, key) in outcomes {
                    counts.record(key);
                }
            }
            for (clean, _) in &drawn {
                counts.merge_from(clean);
            }
        }
        (counts, work)
    }

    /// Runs `plan` both ways with every shot count in `shots` (sharing
    /// one scratch, so nothing may leak between calls) and asserts equal
    /// histograms and work: the batch path must run exactly one trajectory
    /// per distinct fired set of each group of slices. Returns whether any
    /// job ran fewer trajectories than it had fired shots.
    fn assert_matches_per_shot_at(plan: &CompiledCircuit, seed: u64, shots: &[u64]) -> bool {
        let mut scratch = SimScratch::default();
        let mut shared = false;
        for &shots in shots {
            let want = per_shot(plan, shots, seed);
            let got = batch_at(Tier::detected(), plan, shots, seed, &mut scratch);
            assert_eq!(got, want, "{shots} shots, seed {seed}");
            shared |= got.1.distinct_trajectories < got.1.replayed_shots;
        }
        shared
    }

    /// [`assert_matches_per_shot_at`] every shot count in [`SHOTS`].
    fn assert_matches_per_shot(plan: &CompiledCircuit, seed: u64) -> bool {
        assert_matches_per_shot_at(plan, seed, SHOTS)
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

    /// Random case `case` compiled under every option set.
    pub(super) fn random_plans(case: u64) -> Vec<CompiledCircuit> {
        let mut rng = ChaCha8Rng::seed_from_u64(case);
        let qubits = rng.gen_range(1..=4);
        let gates = rng.gen_range(0..32);
        let circuit = random_circuit(&mut rng, qubits, gates);
        let d = device(qubits.max(2));
        option_sets()
            .into_iter()
            .map(|options| {
                NoisySimulator::from_device(&d)
                    .with_options(options)
                    .compile(&circuit)
                    .unwrap()
            })
            .collect()
    }

    #[test]
    fn random_plans_match_the_per_shot_loop() {
        let (mut shared, mut without_sites) = (false, false);
        for case in 0..CASES {
            for plan in random_plans(case) {
                without_sites |= plan.num_event_sites() == 0;
                shared |= assert_matches_per_shot(&plan, 100 + case);
            }
        }
        assert!(without_sites, "no plan without event sites");
        // Miri's few shots need not repeat a fired set.
        assert!(shared || cfg!(miri), "no call shared a trajectory");
    }

    #[test]
    fn plans_without_checkpoints_match_the_per_shot_loop() {
        for case in 0..CASES {
            let mut rng = ChaCha8Rng::seed_from_u64(50 + case);
            let qubits = rng.gen_range(2..=4);
            let plan = compile(&random_circuit(&mut rng, qubits, 40));
            let bare = without_checkpoints(&plan);
            assert_eq!(bare.checkpoints.len(), 0);
            assert_matches_per_shot(&bare, case);
        }
    }

    #[test]
    #[cfg_attr(miri, ignore = "tens of thousands of shots are too slow under Miri")]
    fn jobs_longer_than_one_group_replay_each_group_on_its_own() {
        // One group of slices, one shot more, and two and a half groups:
        // the first fired sets of a group are new trajectories even when
        // an earlier group of the same job already ran them.
        let run = GROUP_SLICES as u64 * SLICE_SHOTS;
        let mut rng = ChaCha8Rng::seed_from_u64(77);
        let plan = compile(&random_circuit(&mut rng, 3, 24));
        assert!(assert_matches_per_shot_at(
            &plan,
            8,
            &[run, run + 1, 5 * run / 2]
        ));
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
            assert!(shared || cfg!(miri), "no call shared a trajectory");
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
        // (circuit, options, shots, seed, digest of the sliced schedule of
        // `run` and `run_batch`).
        let cases = [
            (&layered, SimOptions::all(), 5000, 11, 0xe9b3c90b9d30e519u64),
            (&bell, SimOptions::iid_only(), 1025, 3, 0x05791bf37fc39b40),
            (&wide, SimOptions::all(), 2048, 5, 0xf456bb6c73a9748b),
            (&layered, SimOptions::none(), 1023, 9, 0x6be20d44336ace04),
        ];
        let d = DeviceModel::synthesize(presets::melbourne14(), 42);
        for (circuit, options, shots, seed, batch) in cases {
            let sim = NoisySimulator::from_device(&d).with_options(options);
            let plan = sim.compile(circuit).unwrap();
            assert_eq!(digest(&per_shot(&plan, shots, seed).0), batch);
            assert_eq!(digest(&sim.run(circuit, shots, seed).unwrap()), batch);
            for threads in [1, 2] {
                let job = BatchJob::new(circuit, shots, seed);
                let counts = sim.run_batch(&[job], threads).pop().unwrap().unwrap();
                assert_eq!(digest(&counts), batch, "{threads} thread(s)");
            }
        }
    }
}

/// Every SIMD tier the host supports against the portable body, bit for
/// bit: each kernel on random states, and whole jobs drawn and replayed
/// through the batch path's two passes. Under
/// Miri only the portable tier exists, so the module checks the dispatch
/// path itself on tiny inputs.
#[cfg(test)]
mod tiers {
    use super::checkpoint::{compile, random_circuit};
    use super::dedup::{batch_at, random_plans, CASES, SHOTS};
    use super::*;
    use rand::Rng;

    /// The tiers this host can run, portable first.
    fn supported() -> Vec<Tier> {
        Tier::ALL.into_iter().filter(|t| t.is_supported()).collect()
    }

    #[test]
    fn portable_is_always_supported_and_detection_picks_the_widest() {
        let tiers = supported();
        assert_eq!(tiers[0], Tier::Portable);
        assert_eq!(Tier::detected(), *tiers.last().unwrap());
        if cfg!(miri) {
            assert_eq!(tiers, [Tier::Portable]);
        }
    }

    /// One kernel call, dispatched like the shot loop's.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Prim(fuse::PrimOp),
        Pauli(FiredPauli),
    }

    struct Apply<'a> {
        amps: &'a mut [C64],
        op: Op,
    }

    impl Tiered for Apply<'_> {
        type Output = ();

        #[inline(always)]
        fn run(self) {
            match self.op {
                Op::Prim(op) => apply_prim(self.amps, &op),
                Op::Pauli(fp) => apply_pauli(self.amps, fp),
            }
        }
    }

    fn random_c64(rng: &mut ChaCha8Rng) -> C64 {
        C64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))
    }

    /// Every kernel on every qubit bit (bit 0 included) and every CX
    /// orientation, for each state width.
    fn ops(rng: &mut ChaCha8Rng, qubits: u32) -> Vec<Op> {
        let mut ops = Vec::new();
        for q in 0..qubits {
            let m = [[0; 2]; 2].map(|row| row.map(|_| random_c64(rng)));
            let qubit = Qubit::new(q);
            ops.push(Op::Prim(fuse::PrimOp::Unary { qubit, m }));
            for pauli in PAULIS {
                ops.push(Op::Pauli(FiredPauli {
                    step: 0,
                    qubit: q as u8,
                    pauli,
                }));
            }
            for t in (0..qubits).filter(|&t| t != q) {
                ops.push(Op::Prim(fuse::PrimOp::Cx {
                    control: qubit,
                    target: Qubit::new(t),
                }));
            }
        }
        ops
    }

    fn bits(amps: &[C64]) -> Vec<(u64, u64)> {
        amps.iter()
            .map(|a| (a.re.to_bits(), a.im.to_bits()))
            .collect()
    }

    #[test]
    fn every_kernel_matches_the_portable_body_bit_for_bit() {
        let max_qubits = if cfg!(miri) { 3 } else { 8 };
        let mut rng = ChaCha8Rng::seed_from_u64(20);
        for qubits in 1..=max_qubits {
            let state: Vec<C64> = (0..1usize << qubits)
                .map(|_| random_c64(&mut rng))
                .collect();
            for op in ops(&mut rng, qubits) {
                let mut want = state.clone();
                tier::dispatch(
                    Tier::Portable,
                    Apply {
                        amps: &mut want,
                        op,
                    },
                );
                for tier in supported() {
                    let mut got = state.clone();
                    tier::dispatch(tier, Apply { amps: &mut got, op });
                    assert_eq!(bits(&got), bits(&want), "{tier:?} {qubits}q {op:?}");
                }
            }
        }
    }

    #[test]
    fn draw_and_replay_match_the_portable_body_bit_for_bit() {
        // The `noise::dedup` plans, plus wider states whose runs of
        // amplitudes fill whole vector registers.
        let wide_qubits: &[u32] = if cfg!(miri) { &[] } else { &[6, 8] };
        let wide = wide_qubits.iter().map(|&qubits| {
            let mut rng = ChaCha8Rng::seed_from_u64(qubits.into());
            compile(&random_circuit(&mut rng, qubits, 60))
        });
        let plans = (0..CASES).flat_map(random_plans).chain(wide);
        let mut scratch = SimScratch::default();
        let mut kernel_ops = 0;
        for (case, plan) in plans.enumerate() {
            for &shots in SHOTS {
                let seed = 300 + case as u64;
                let want = batch_at(Tier::Portable, &plan, shots, seed, &mut scratch);
                kernel_ops += want.1.kernel_ops;
                for tier in supported() {
                    let got = batch_at(tier, &plan, shots, seed, &mut scratch);
                    assert_eq!(got, want, "{tier:?}, plan {case}, {shots} shots");
                }
            }
        }
        assert!(kernel_ops > 0, "no trajectory ran a kernel");
    }
}
