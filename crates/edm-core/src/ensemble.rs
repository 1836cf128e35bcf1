//! Ensemble construction and orchestration (§5.2).
//!
//! The four EDM steps:
//!
//! 1. a variation-aware transpiler produces the best initial mapping and
//!    SWAP schedule (`qmap::Transpiler`),
//! 2. the mapped circuit's physical footprint is transplanted onto the
//!    isomorphic subgraphs of the coupling graph and the embeddings are
//!    ranked by ESP in one bounded pool (`qmap::placement::rank_embeddings`,
//!    the same pool whose top 1 is the transpiler's swap-free placement);
//!    the top *K* become the ensemble ([`build_ensemble`]),
//! 3. each member executable runs a share of the trials
//!    ([`EdmRunner::run`]),
//! 4. the output distributions are merged — uniformly (EDM) and
//!    KL-weighted (WEDM).
//!
//! Because every member is an isomorphic relabeling of the same routed
//! circuit, all members execute an identical gate count (§3.2), differing
//! only in *which* physical qubits and links they stress.

use crate::dist::ProbDist;
use crate::executor::{Backend, BatchJob};
use crate::filter;
use crate::metrics;
use crate::wedm;
use crate::EdmError;
use qcir::{Circuit, Gate, Qubit};
use qdevice::drift::Quarantine;
use qdevice::mapper::SearchOutcome;
use qdevice::Topology;
use qmap::{esp, placement, Transpiler};
use qsim::Counts;
use std::collections::BTreeSet;

/// How the trial budget is divided among ensemble members.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShotAllocation {
    /// Equal shares (the paper's design: each mapping runs `N/K` trials).
    #[default]
    Uniform,
    /// Shares proportional to compile-time ESP: stronger mappings vote with
    /// more trials. An ablation knob — the paper argues diversity matters
    /// more than concentrating trials on the (imperfectly) estimated best.
    EspWeighted,
}

/// Configuration of the ensemble construction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnsembleConfig {
    /// Number of mappings in the ensemble (the paper's default K = 4).
    pub size: usize,
    /// Capacity of the ranked candidate pool: the best `max_candidates`
    /// embeddings within `min_esp_ratio` of the best are kept, ties in
    /// enumeration order, and members are selected from them. Each
    /// embedding of the footprint's interacting qubits enters with its
    /// measure-only qubits on their best free qubits; when fewer than
    /// `size` are kept, their next-best placements of the measure-only
    /// qubits fill the pool up to twice `size` (see
    /// `qmap::placement::rank_embeddings`). The embedding search itself
    /// has no result cap: the pool's floor is its cut, and a filtered
    /// mapper selection keeps its own budgets.
    pub max_candidates: usize,
    /// Only keep members whose ESP is at least this fraction of the best
    /// member's ESP (§3.2 used mappings within 10% of the best, i.e. 0.9).
    /// Set to 0.0 to keep everything. When the filtered pool is smaller
    /// than `size` the ensemble simply ends up smaller — the paper observes
    /// exactly this on IBMQ-14 ("the number of strong ensembles are limited
    /// two to four", §5.5).
    pub min_esp_ratio: f64,
    /// Select members for qubit-set diversity within the ESP pool instead
    /// of taking the top-K by ESP alone. The coupling graph's symmetries
    /// make many embeddings ESP-identical relabelings of the *same* qubits,
    /// which would make every "diverse" member suffer the same correlated
    /// errors; greedy max-min footprint selection avoids that.
    pub diverse_selection: bool,
    /// Optional footnote-2 uniformity filter: members whose output is
    /// indistinguishable from uniform (RSD below the threshold) are dropped
    /// before merging.
    pub uniformity_filter: Option<f64>,
    /// How trials are divided among members.
    pub shot_allocation: ShotAllocation,
    /// Measurement-inversion diversity (the paper's future-work transform,
    /// §7/§8): odd ensemble members additionally invert every measured qubit
    /// right before readout (and their recorded outcomes are flipped back),
    /// steering readout-bias mistakes in the opposite direction.
    pub invert_measurements: bool,
    /// Minimum number of members that must execute successfully for a run
    /// with failures to complete in degraded mode (default 2, so a merged
    /// answer always reflects at least two diverse mappings). When members
    /// fail but at least `min_quorum` survive, [`assemble_result`] drops
    /// the failures, renormalizes the EDM/WEDM merges over the survivors,
    /// and marks the result [`RunHealth::Degraded`]; below quorum the run
    /// fails with the first member's error. Values below 1 behave as 1 —
    /// merging zero distributions is meaningless.
    pub min_quorum: usize,
}

impl Default for EnsembleConfig {
    fn default() -> Self {
        EnsembleConfig {
            size: 4,
            max_candidates: 200_000,
            min_esp_ratio: 0.9,
            uniformity_filter: None,
            diverse_selection: true,
            shot_allocation: ShotAllocation::default(),
            invert_measurements: false,
            min_quorum: 2,
        }
    }
}

/// One member of the ensemble: a relabeled executable and its metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct EnsembleMember {
    /// The physical executable (device basis, coupled CX only).
    pub physical: Circuit,
    /// Compile-time ESP of this executable.
    pub esp: f64,
    /// The physical qubits used, ascending (the member's footprint).
    pub qubits: Vec<u32>,
    /// The embedding assignment: `assignment[i]` is the physical qubit
    /// hosting the `i`-th active qubit of the baseline executable. Two
    /// members with the same footprint but different assignments still
    /// expose the program to different per-qubit errors.
    pub assignment: Vec<u32>,
    /// Whether this member measures in the inverted basis (outcomes are
    /// already flipped back when recorded).
    pub inverted_measurement: bool,
}

/// Ranks the isomorphic relabelings of a physical circuit's footprint by
/// ESP and returns the top-`config.size` (best first). On an exhaustively
/// searched device the baseline's own placement is a candidate, or is
/// beaten by one that completes its measure-only qubits better, so member
/// 0 is at least as strong as the baseline.
///
/// # Errors
///
/// - [`EdmError::InvalidConfig`] if `config.size == 0`.
/// - [`EdmError::NoEmbeddings`] if the embedding search finds nothing
///   (cannot happen when `physical` already satisfies the coupling
///   constraints and the search is exhaustive).
/// - Mapping errors from ESP evaluation.
pub fn diversify(
    transpiler: &Transpiler<'_>,
    physical: &Circuit,
    config: &EnsembleConfig,
) -> Result<Vec<EnsembleMember>, EdmError> {
    diversify_detailed(transpiler, physical, config).map(|(members, _)| members)
}

/// [`diversify`] plus the embedding-search outcome, so callers (the CLI's
/// `map` command, dashboards) can tell a full candidate pool from one the
/// mapper's budget truncated. The search runs with the budgets of the
/// transpiler's [`qmap::MapperSelection`]: none on small devices, the
/// filtered depth-limited search's on large heavy-hex ones.
///
/// # Errors
///
/// Same conditions as [`diversify`].
pub fn diversify_detailed(
    transpiler: &Transpiler<'_>,
    physical: &Circuit,
    config: &EnsembleConfig,
) -> Result<(Vec<EnsembleMember>, SearchOutcome), EdmError> {
    if config.size == 0 {
        return Err(EdmError::InvalidConfig("ensemble size must be positive"));
    }
    let topology = transpiler.topology();
    let cal = transpiler.calibration();

    // The footprint pattern: active qubits re-indexed densely.
    let active: Vec<u32> = physical.active_qubits().iter().map(|q| q.index()).collect();
    let mut pos = vec![u32::MAX; topology.num_qubits() as usize];
    for (i, &q) in active.iter().enumerate() {
        pos[q as usize] = i as u32;
    }
    let pattern_edges: Vec<(u32, u32)> = physical
        .interaction_edges()
        .into_iter()
        .map(|(a, b)| (pos[a.usize()], pos[b.usize()]))
        .collect();
    let pattern = Topology::new(active.len() as u32, &pattern_edges);

    // Rank the footprint's embeddings off one compiled term list into a
    // bounded pool; circuits are built for the chosen members alone. Rank
    // on the quarantine-masked view first; quarantine is advisory, so fall
    // back to the full device rather than return zero embeddings.
    let scorer = esp::Scorer::new(physical, topology.num_qubits(), |q| pos[q.usize()], cal);
    let rank = |target: &Topology, quarantine: Option<&Quarantine>| {
        placement::rank_embeddings(
            &scorer,
            &pattern,
            target,
            transpiler.mapper_selection(),
            quarantine,
            config.max_candidates,
            config.min_esp_ratio,
            config.size,
        )
    };
    let (mut pool, mut outcome) = rank(transpiler.effective_topology(), transpiler.quarantine())?;
    if pool.is_empty() && transpiler.quarantine().is_some() {
        (pool, outcome) = rank(topology, None)?;
    }
    if !matches!(outcome, SearchOutcome::Complete) {
        edm_telemetry::counter!(
            "edm_core_truncated_pools_total",
            "Ensemble candidate pools built from a truncated embedding search"
        )
        .inc();
    }
    if pool.is_empty() {
        return Err(EdmError::NoEmbeddings);
    }

    let mut ranked: Vec<Candidate<'_>> = pool
        .iter()
        .map(|(esp, phi)| Candidate {
            esp: *esp,
            assignment: phi,
        })
        .collect();
    let chosen = if config.diverse_selection {
        let interacting: Vec<bool> = (0..pattern.num_qubits())
            .map(|v| pattern.degree(v) > 0)
            .collect();
        // With fewer distinct core embeddings than members, the pool was
        // filled and members share cores: where their measure-only qubits
        // sit is then a choice too, and every position counts.
        let core = |c: &Candidate<'_>| -> Vec<u32> {
            let positions = c.assignment.iter().zip(&interacting);
            positions.filter(|(_, &i)| i).map(|(&q, _)| q).collect()
        };
        let shared = ranked.len() <= config.size.saturating_mul(2)
            && ranked.iter().map(core).collect::<BTreeSet<_>>().len() < config.size;
        let counted = if shared {
            vec![true; interacting.len()]
        } else {
            interacting
        };
        select_diverse(ranked, config.size, &counted)
    } else {
        ranked.truncate(config.size);
        ranked
    };
    let mut members: Vec<EnsembleMember> = chosen
        .into_iter()
        .map(|c| {
            let relabeled = physical.relabeled(topology.num_qubits(), |q| {
                Qubit::new(c.assignment[pos[q.usize()] as usize])
            });
            let mut qubits = c.assignment.to_vec();
            qubits.sort_unstable();
            EnsembleMember {
                physical: relabeled,
                esp: c.esp,
                qubits,
                assignment: c.assignment.to_vec(),
                inverted_measurement: false,
            }
        })
        .collect();

    if config.invert_measurements {
        for (i, m) in members.iter_mut().enumerate() {
            if i % 2 == 1 {
                m.physical = invert_measured_qubits(&m.physical);
                m.inverted_measurement = true;
            }
        }
    }
    Ok((members, outcome))
}

/// One ranked candidate: an embedding and its ESP.
#[derive(Debug, Clone, Copy)]
struct Candidate<'a> {
    esp: f64,
    assignment: &'a [u32],
}

/// Greedy max-min diversity selection: start from the ESP-best member, then
/// repeatedly add the candidate whose *assignment* (which physical qubit
/// hosts each program qubit) differs in the most positions from every
/// already-selected member, breaking ties toward higher ESP. Assignment
/// distance, unlike footprint distance, counts automorphic relabelings on
/// the same qubit set as diverse — on a small device like IBMQ-14 those
/// relabelings are often the only way to decorrelate per-qubit mistakes.
/// All candidates are already inside the ESP pool, so this trades no
/// reliability for the added diversity.
///
/// Only the positions `counted` marks count: the interacting ones where
/// each candidate has a core embedding of its own, whose measure-only
/// qubits sit on the best qubits it leaves free, so where those sit
/// follows from the rest and is not a choice of its own.
fn select_diverse<'a>(
    pool: Vec<Candidate<'a>>,
    size: usize,
    counted: &[bool],
) -> Vec<Candidate<'a>> {
    if pool.len() <= size {
        return pool;
    }
    let footprint_distance = |a: &Candidate<'_>, b: &Candidate<'_>| -> usize {
        a.assignment
            .iter()
            .zip(b.assignment)
            .zip(counted)
            .filter(|((x, y), &counts)| counts && x != y)
            .count()
    };
    let mut remaining = pool;
    let mut selected: Vec<Candidate<'_>> = vec![remaining.remove(0)];
    while selected.len() < size && !remaining.is_empty() {
        // remaining is ESP-descending, so the first candidate achieving the
        // best min-distance wins ties by ESP automatically.
        let (best_idx, _) = remaining
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let d = selected
                    .iter()
                    .map(|s| footprint_distance(c, s))
                    .min()
                    .expect("selected is non-empty");
                (i, d)
            })
            .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
            .expect("remaining is non-empty");
        selected.push(remaining.remove(best_idx));
    }
    // Restore the ESP-descending order contract (index 0 = best estimated).
    selected.sort_by(|a, b| b.esp.partial_cmp(&a.esp).expect("ESP is finite"));
    selected
}

/// Transpiles a logical circuit and diversifies it into an ensemble.
///
/// # Errors
///
/// Propagates transpilation and diversification failures.
pub fn build_ensemble(
    transpiler: &Transpiler<'_>,
    circuit: &Circuit,
    config: &EnsembleConfig,
) -> Result<Vec<EnsembleMember>, EdmError> {
    let _span = edm_telemetry::trace::span("ensemble_build");
    edm_telemetry::histogram!(
        "edm_core_ensemble_build_us",
        "Wall time to transpile and diversify one circuit into an ensemble"
    )
    .time(|| {
        let baseline = transpiler.transpile(circuit)?;
        diversify(transpiler, &baseline.physical, config)
    })
}

/// Inserts an X on every measured qubit right before its measurement
/// (Invert-and-Measure style diversity). The recorded outcome of such a
/// member must be XOR-corrected; [`EdmRunner`] does this automatically.
fn invert_measured_qubits(physical: &Circuit) -> Circuit {
    let mut out = Circuit::new(physical.num_qubits(), physical.num_clbits());
    for g in physical.iter() {
        if let Gate::Measure(q, c) = *g {
            out.x(q.index());
            out.measure(q.index(), c.index());
        } else {
            out.extend([g.clone()]);
        }
    }
    out
}

/// One executed ensemble member.
#[derive(Debug, Clone, PartialEq)]
pub struct MemberRun {
    /// The member executable.
    pub member: EnsembleMember,
    /// Raw shot histogram (already basis-corrected for inverted members).
    pub counts: Counts,
    /// Normalized output distribution.
    pub dist: ProbDist,
}

/// A planned ensemble member that failed permanently (after whatever retry
/// policy the dispatcher applied) and was dropped from a degraded run.
#[derive(Debug, Clone, PartialEq)]
pub struct FailedMember {
    /// The member's index in the planned (ESP-descending) member order —
    /// i.e. into the [`RunPlan`], not into the surviving
    /// [`EdmResult::members`].
    pub index: usize,
    /// The member whose execution failed.
    pub member: EnsembleMember,
    /// The terminal execution error.
    pub error: qsim::SimError,
}

/// Health of an assembled run: did every planned member contribute?
///
/// Degradation is EDM's own premise applied to failures — no single mapping
/// is load-bearing, so losing one costs statistical strength, not the
/// answer. The marker keeps the quality downgrade honest instead of silent.
#[derive(Debug, Clone, PartialEq)]
pub enum RunHealth {
    /// Every planned member executed; merges cover the full ensemble.
    Full,
    /// Some members failed permanently and were dropped; the EDM/WEDM
    /// merges are renormalized over the survivors.
    Degraded {
        /// The dropped members with their errors, in plan order.
        failed_members: Vec<FailedMember>,
        /// The minimum survivor count that allowed the run to complete.
        quorum: usize,
    },
}

impl RunHealth {
    /// True for [`RunHealth::Degraded`].
    pub fn is_degraded(&self) -> bool {
        matches!(self, RunHealth::Degraded { .. })
    }
}

/// The result of a full EDM run.
#[derive(Debug, Clone, PartialEq)]
pub struct EdmResult {
    /// Executed (surviving) members, ordered by descending compile-time ESP
    /// (so index 0 is the paper's "single best mapping at compile time"
    /// among the members that actually ran).
    pub members: Vec<MemberRun>,
    /// Uniform merge of the member distributions (EDM, §5.2), renormalized
    /// over the survivors in a degraded run.
    pub edm: ProbDist,
    /// Divergence-weighted merge (WEDM, §6), renormalized likewise.
    pub wedm: ProbDist,
    /// The normalized WEDM weights, aligned with `members` (`0.0` for
    /// members the uniformity filter dropped from the merge).
    pub weights: Vec<f64>,
    /// Indices into `members` dropped by the uniformity filter, if enabled.
    pub filtered_out: Vec<usize>,
    /// Whether every planned member contributed, or which ones were lost.
    pub health: RunHealth,
}

impl EdmResult {
    /// The member with the best compile-time ESP (the baseline mapping).
    pub fn best_estimated(&self) -> &MemberRun {
        &self.members[0]
    }

    /// True when at least one planned member failed and was dropped — the
    /// merges then cover survivors only (see [`RunHealth::Degraded`]).
    pub fn is_degraded(&self) -> bool {
        self.health.is_degraded()
    }

    /// The member with the highest *observed* PST — the paper's "single
    /// best mapping post execution" baseline (§5.4).
    pub fn best_post_execution(&self, correct: u64) -> &MemberRun {
        self.members
            .iter()
            .max_by(|a, b| {
                metrics::pst(&a.dist, correct)
                    .partial_cmp(&metrics::pst(&b.dist, correct))
                    .expect("PST is finite")
            })
            .expect("ensemble is non-empty")
    }

    /// IST of the EDM (uniform) merge.
    pub fn ist_edm(&self, correct: u64) -> f64 {
        metrics::ist(&self.edm, correct)
    }

    /// IST of the WEDM (weighted) merge.
    pub fn ist_wedm(&self, correct: u64) -> f64 {
        metrics::ist(&self.wedm, correct)
    }
}

/// Orchestrates EDM end to end over a transpiler and a backend.
///
/// # Examples
///
/// ```
/// use qdevice::{presets, DeviceModel};
/// use qmap::Transpiler;
/// use qsim::NoisySimulator;
/// use edm_core::{EdmRunner, EnsembleConfig};
///
/// let device = DeviceModel::synthesize(presets::melbourne14(), 7);
/// let cal = device.calibration();
/// let transpiler = Transpiler::new(device.topology(), &cal);
/// let backend = NoisySimulator::from_device(&device);
/// let runner = EdmRunner::new(&transpiler, &backend, EnsembleConfig::default());
///
/// let bv = qbench::bv::bv(0b101, 3);
/// let result = runner.run(&bv, 4096, 1)?;
/// assert_eq!(result.members.len(), 4);
/// assert_eq!(result.members.iter().map(|m| m.counts.shots()).sum::<u64>(), 4096);
/// # Ok::<(), edm_core::EdmError>(())
/// ```
#[derive(Debug, Clone)]
pub struct EdmRunner<'t, B> {
    transpiler: &'t Transpiler<'t>,
    backend: B,
    config: EnsembleConfig,
    threads: usize,
}

impl<'t, B: Backend> EdmRunner<'t, B> {
    /// Creates a runner using every available core for execution.
    ///
    /// Results are bit-identical regardless of the thread count (see
    /// [`Backend::execute_batch`]), so the default costs nothing in
    /// reproducibility.
    pub fn new(transpiler: &'t Transpiler<'t>, backend: B, config: EnsembleConfig) -> Self {
        EdmRunner {
            transpiler,
            backend,
            config,
            threads: qsim::pool::default_threads(),
        }
    }

    /// Caps execution at `threads` worker threads (including the caller).
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn with_threads(mut self, threads: usize) -> Self {
        assert!(threads > 0, "need at least one thread");
        self.threads = threads;
        self
    }

    /// The execution thread cap.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs the full EDM flow: build the top-K ensemble, split
    /// `total_shots` evenly across members, execute, and merge.
    ///
    /// # Errors
    ///
    /// Propagates transpilation and execution failures; fails with
    /// [`EdmError::InvalidConfig`] if fewer shots than members are
    /// requested.
    pub fn run(
        &self,
        circuit: &Circuit,
        total_shots: u64,
        seed: u64,
    ) -> Result<EdmResult, EdmError> {
        let members = build_ensemble(self.transpiler, circuit, &self.config)?;
        self.run_members(members, total_shots, seed)
    }

    /// Runs a pre-built ensemble (useful for sensitivity studies that reuse
    /// the same members with different shot budgets).
    ///
    /// # Errors
    ///
    /// Same conditions as [`EdmRunner::run`].
    pub fn run_members(
        &self,
        members: Vec<EnsembleMember>,
        total_shots: u64,
        seed: u64,
    ) -> Result<EdmResult, EdmError> {
        let plan = plan_run(members, total_shots, seed, self.config.shot_allocation)?;
        let jobs = plan.jobs();
        let results = {
            let _span = edm_telemetry::trace::span("execute");
            edm_telemetry::histogram!(
                "edm_core_execute_us",
                "Wall time of one ensemble's backend execution"
            )
            .time(|| self.backend.execute_batch(&jobs, self.threads))
        };
        drop(jobs);
        assemble_result(plan.members, results, &self.config)
    }

    /// Runs the paper's baseline: all trials on the single best mapping.
    ///
    /// # Errors
    ///
    /// Propagates transpilation and execution failures.
    pub fn run_baseline(
        &self,
        circuit: &Circuit,
        total_shots: u64,
        seed: u64,
    ) -> Result<MemberRun, EdmError> {
        let mut single = self.config;
        single.size = 1;
        single.invert_measurements = false;
        let members = build_ensemble(self.transpiler, circuit, &single)?;
        let result = self.run_members(members, total_shots, seed)?;
        Ok(result.members.into_iter().next().expect("one member"))
    }
}

/// A fully planned ensemble execution: members in ESP-descending order,
/// per-member shot shares, and per-member RNG roots.
///
/// Splitting planning from assembly lets callers control dispatch: the
/// serving layer (`edm-serve`) concatenates the [`RunPlan::jobs`] of many
/// queued requests into one `execute_batch` call and still reassembles each
/// request with [`assemble_result`]. Because the batch executor is per-job
/// deterministic, results are bit-identical to running every request alone
/// through [`EdmRunner::run_members`].
#[derive(Debug, Clone, PartialEq)]
pub struct RunPlan {
    /// Ensemble members, ordered by descending compile-time ESP.
    pub members: Vec<EnsembleMember>,
    /// Shots assigned to each member; sums to the requested total.
    pub shares: Vec<u64>,
    /// Per-member RNG roots, forked from the run seed.
    pub seeds: Vec<u64>,
    /// Trace context stamped onto every batch job of this plan, linking
    /// the pool slices of its execution into the submitting job's trace.
    /// Telemetry only; never consulted by planning or execution.
    pub trace: qsim::parallel::TraceContext,
}

impl RunPlan {
    /// Stamps the trace context this plan's batch jobs (and therefore
    /// their pool slices) report into.
    pub fn set_trace(&mut self, trace: qsim::parallel::TraceContext) {
        self.trace = trace;
    }
}

impl RunPlan {
    /// The planned execution as batch jobs, one per member, in member order.
    pub fn jobs(&self) -> Vec<BatchJob<'_>> {
        self.members
            .iter()
            .zip(&self.shares)
            .zip(&self.seeds)
            .map(|((member, &shots), &seed)| {
                BatchJob::new(&member.physical, shots, seed).traced(self.trace)
            })
            .collect()
    }
}

/// Plans an ensemble execution: allocates the shot budget across members and
/// forks each member's RNG root from the run seed.
///
/// Each member's root is `qsim::rngstream::fork(seed, i)` — unlike a naive
/// `seed + i` scheme, forked streams cannot collide with the per-slice
/// streams the executor derives below them (see `qsim::rngstream`).
///
/// # Errors
///
/// - [`EdmError::NoEmbeddings`] if `members` is empty.
/// - [`EdmError::InvalidConfig`] if fewer shots than members are requested.
pub fn plan_run(
    members: Vec<EnsembleMember>,
    total_shots: u64,
    seed: u64,
    allocation: ShotAllocation,
) -> Result<RunPlan, EdmError> {
    if members.is_empty() {
        return Err(EdmError::NoEmbeddings);
    }
    if total_shots < members.len() as u64 {
        return Err(EdmError::InvalidConfig("fewer shots than ensemble members"));
    }
    let shares = allocate_shots(&members, total_shots, allocation);
    let seeds = (0..members.len() as u64)
        .map(|i| qsim::rngstream::fork(seed, i))
        .collect();
    Ok(RunPlan {
        members,
        shares,
        seeds,
        // Inherit the planning thread's context: a plan built under
        // `with_context` (the service's per-job guard) links its slices
        // without the caller doing anything; `set_trace` overrides.
        trace: edm_telemetry::trace::current_context(),
    })
}

/// Merges raw per-member histograms into an [`EdmResult`]: basis-corrects
/// inverted members, normalizes, applies the optional uniformity filter, and
/// computes the EDM and WEDM merges.
///
/// `raw` must hold one result per member, in member order — exactly what
/// `Backend::execute_batch` returns for [`RunPlan::jobs`].
///
/// Failed members do not automatically fail the run. As long as at least
/// `config.min_quorum` members executed, the failures are dropped, the
/// merges renormalize over the survivors, and the result carries
/// [`RunHealth::Degraded`] naming every lost member — the caller decides
/// whether a degraded answer is acceptable. Errors reaching this function
/// are terminal by construction: transient failures were already retried by
/// the dispatching layer.
///
/// # Errors
///
/// Below quorum (including a fully failed run) the first member's execution
/// error is propagated, wrapped in [`EdmError::Sim`].
///
/// # Panics
///
/// Panics if `raw` and `members` have different lengths.
pub fn assemble_result(
    members: Vec<EnsembleMember>,
    raw: Vec<Result<Counts, qsim::SimError>>,
    config: &EnsembleConfig,
) -> Result<EdmResult, EdmError> {
    let _span = edm_telemetry::trace::span("merge");
    edm_telemetry::histogram!(
        "edm_core_merge_us",
        "Wall time to basis-correct, filter, and merge one run's member histograms"
    )
    .time(|| assemble_result_inner(members, raw, config))
}

fn assemble_result_inner(
    members: Vec<EnsembleMember>,
    raw: Vec<Result<Counts, qsim::SimError>>,
    config: &EnsembleConfig,
) -> Result<EdmResult, EdmError> {
    assert_eq!(
        members.len(),
        raw.len(),
        "one raw result required per member"
    );
    let mut runs = Vec::with_capacity(members.len());
    let mut failed_members = Vec::new();
    for (index, (member, raw)) in members.into_iter().zip(raw).enumerate() {
        let raw = match raw {
            Ok(raw) => raw,
            Err(error) => {
                failed_members.push(FailedMember {
                    index,
                    member,
                    error,
                });
                continue;
            }
        };
        let counts = if member.inverted_measurement {
            uninvert_counts(&raw, &member.physical)
        } else {
            raw
        };
        let dist = ProbDist::from_counts(&counts);
        runs.push(MemberRun {
            member,
            counts,
            dist,
        });
    }

    let quorum = config.min_quorum.max(1);
    let health = if failed_members.is_empty() {
        RunHealth::Full
    } else if runs.len() >= quorum {
        RunHealth::Degraded {
            failed_members,
            quorum,
        }
    } else {
        // Too few survivors for a defensible merge: fail the run with the
        // first lost member's error.
        return Err(EdmError::Sim(failed_members.swap_remove(0).error));
    };

    edm_telemetry::counter!("edm_core_runs_total", "Ensemble runs assembled").inc();
    if health.is_degraded() {
        edm_telemetry::counter!(
            "edm_core_degraded_runs_total",
            "Ensemble runs completed in degraded mode (members dropped)"
        )
        .inc();
    }
    if let RunHealth::Degraded { failed_members, .. } = &health {
        edm_telemetry::counter!(
            "edm_core_failed_members_total",
            "Ensemble members dropped after terminal execution failure"
        )
        .add(failed_members.len() as u64);
    }
    if edm_telemetry::enabled() {
        // Compile-time ESP next to achieved top-outcome probability: the
        // paper's ESP-vs-IST correlation, observable per member via
        // quantiles of these two histograms (both scaled by 10⁶).
        let esp_hist = edm_telemetry::histogram!(
            "edm_core_member_esp_micro",
            "Compile-time ESP of executed ensemble members, scaled by 1e6"
        );
        let top_hist = edm_telemetry::histogram!(
            "edm_core_member_top_prob_micro",
            "Achieved top-outcome probability of executed members, scaled by 1e6"
        );
        for run in &runs {
            esp_hist.observe((run.member.esp * 1e6) as u64);
            let top = run.dist.iter().map(|(_, p)| p).fold(0.0f64, f64::max);
            top_hist.observe((top * 1e6) as u64);
        }
    }

    // `None` slots are members the uniformity filter excludes from the
    // merge; execution failures never reach here (they were dropped above),
    // so slot indices align with the surviving `runs`.
    let all_dists: Vec<ProbDist> = runs.iter().map(|r| r.dist.clone()).collect();
    let (slots, filtered_out): (Vec<Option<ProbDist>>, Vec<usize>) = match config.uniformity_filter
    {
        Some(threshold) => {
            let (kept, dropped) = filter::partition_informative(&all_dists, threshold);
            if kept.is_empty() {
                // Everything drowned in noise: fall back to merging all.
                (all_dists.into_iter().map(Some).collect(), dropped)
            } else {
                let dropped_set: std::collections::BTreeSet<usize> =
                    dropped.iter().copied().collect();
                (
                    all_dists
                        .into_iter()
                        .enumerate()
                        .map(|(i, d)| (!dropped_set.contains(&i)).then_some(d))
                        .collect(),
                    dropped,
                )
            }
        }
        None => (all_dists.into_iter().map(Some).collect(), Vec::new()),
    };

    let merge_input: Vec<ProbDist> = slots.iter().flatten().cloned().collect();
    let edm = ProbDist::merge_uniform(&merge_input);
    let (wedm, weights) = wedm::merge_survivors(&slots);
    Ok(EdmResult {
        members: runs,
        edm,
        wedm,
        weights,
        filtered_out,
        health,
    })
}

/// Divides `total_shots` among members per the allocation policy; every
/// member receives at least one shot and the shares sum exactly to the
/// total.
fn allocate_shots(
    members: &[EnsembleMember],
    total_shots: u64,
    allocation: ShotAllocation,
) -> Vec<u64> {
    let k = members.len() as u64;
    match allocation {
        ShotAllocation::Uniform => {
            let each = total_shots / k;
            let remainder = total_shots % k;
            (0..k).map(|i| each + u64::from(i < remainder)).collect()
        }
        ShotAllocation::EspWeighted => {
            let total_esp: f64 = members.iter().map(|m| m.esp).sum();
            let mut shares: Vec<u64> = members
                .iter()
                .map(|m| (((m.esp / total_esp) * total_shots as f64).floor() as u64).max(1))
                .collect();
            // Fix rounding drift onto the strongest member.
            let assigned: u64 = shares.iter().sum();
            if assigned <= total_shots {
                shares[0] += total_shots - assigned;
            } else {
                let mut excess = assigned - total_shots;
                for s in shares.iter_mut().rev() {
                    let take = excess.min(s.saturating_sub(1));
                    *s -= take;
                    excess -= take;
                    if excess == 0 {
                        break;
                    }
                }
            }
            shares
        }
    }
}

/// XOR-corrects a histogram recorded in the inverted measurement basis:
/// flips exactly the classical bits the inverted member `physical`
/// measures into, so bits no measurement writes stay 0. Constant time per
/// distinct outcome, not per shot.
fn uninvert_counts(raw: &Counts, physical: &Circuit) -> Counts {
    let mask = physical.iter().fold(0u64, |mask, g| match *g {
        Gate::Measure(_, c) => mask | 1 << c.index(),
        _ => mask,
    });
    let mut out = Counts::new(raw.num_clbits());
    for (k, v) in raw.iter() {
        out.record_n(k ^ mask, v);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdevice::{presets, DeviceModel};
    use qsim::NoisySimulator;

    fn setup() -> (DeviceModel, qdevice::Calibration) {
        let d = DeviceModel::synthesize(presets::melbourne14(), 12);
        let cal = d.calibration();
        (d, cal)
    }

    fn bv3() -> Circuit {
        qbench::bv::bv(0b101, 3)
    }

    #[test]
    fn quarantined_qubits_are_excluded_from_the_ensemble() {
        let (d, cal) = setup();
        let mut quarantine = qdevice::drift::Quarantine::new();
        quarantine.add_qubit(0);
        quarantine.add_qubit(7);
        let t = Transpiler::new(d.topology(), &cal).with_quarantine(&quarantine);
        let members = build_ensemble(&t, &bv3(), &EnsembleConfig::default()).unwrap();
        assert!(!members.is_empty());
        for member in &members {
            for &q in &member.qubits {
                assert!(
                    !quarantine.contains_qubit(q),
                    "member uses quarantined qubit {q}"
                );
            }
        }
    }

    #[test]
    fn total_quarantine_falls_back_to_the_full_device() {
        let (d, cal) = setup();
        let mut quarantine = qdevice::drift::Quarantine::new();
        for q in 0..14 {
            quarantine.add_qubit(q);
        }
        let t = Transpiler::new(d.topology(), &cal).with_quarantine(&quarantine);
        // Advisory quarantine: compilation must still find an ensemble.
        let members = build_ensemble(&t, &bv3(), &EnsembleConfig::default()).unwrap();
        assert_eq!(members.len(), 4);
    }

    #[test]
    fn ensemble_members_sorted_by_esp_with_identical_gate_counts() {
        let (d, cal) = setup();
        let t = Transpiler::new(d.topology(), &cal);
        let members = build_ensemble(&t, &bv3(), &EnsembleConfig::default()).unwrap();
        assert_eq!(members.len(), 4);
        for w in members.windows(2) {
            assert!(w[0].esp >= w[1].esp);
        }
        let counts: Vec<_> = members
            .iter()
            .map(|m| (m.physical.count_1q(), m.physical.count_cx()))
            .collect();
        assert!(counts.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn members_use_different_qubit_sets_or_assignments() {
        let (d, cal) = setup();
        let t = Transpiler::new(d.topology(), &cal);
        let members = build_ensemble(&t, &bv3(), &EnsembleConfig::default()).unwrap();
        let mut distinct = std::collections::BTreeSet::new();
        for m in &members {
            let ops: Vec<String> = m.physical.iter().map(|g| g.to_string()).collect();
            distinct.insert(ops.join(";"));
        }
        assert_eq!(distinct.len(), members.len(), "members must differ");
    }

    #[test]
    fn min_esp_ratio_prunes_weak_members() {
        let (d, cal) = setup();
        let t = Transpiler::new(d.topology(), &cal);
        let config = EnsembleConfig {
            size: 100,
            min_esp_ratio: 0.95,
            ..EnsembleConfig::default()
        };
        let members = diversify(&t, &t.transpile(&bv3()).unwrap().physical, &config).unwrap();
        let best = members[0].esp;
        assert!(members.iter().all(|m| m.esp >= 0.95 * best));
    }

    #[test]
    fn zero_size_rejected() {
        let (d, cal) = setup();
        let t = Transpiler::new(d.topology(), &cal);
        let config = EnsembleConfig {
            size: 0,
            ..EnsembleConfig::default()
        };
        assert_eq!(
            build_ensemble(&t, &bv3(), &config).unwrap_err(),
            EdmError::InvalidConfig("ensemble size must be positive")
        );
    }

    #[test]
    fn runner_splits_shots_evenly() {
        let (d, cal) = setup();
        let t = Transpiler::new(d.topology(), &cal);
        let backend = NoisySimulator::from_device(&d);
        let runner = EdmRunner::new(&t, &backend, EnsembleConfig::default());
        let result = runner.run(&bv3(), 4098, 3).unwrap();
        let shots: Vec<u64> = result.members.iter().map(|m| m.counts.shots()).collect();
        assert_eq!(shots.iter().sum::<u64>(), 4098);
        assert!(shots.iter().all(|&s| s == 1024 || s == 1025));
    }

    #[test]
    fn runner_rejects_too_few_shots() {
        let (d, cal) = setup();
        let t = Transpiler::new(d.topology(), &cal);
        let backend = NoisySimulator::from_device(&d);
        let runner = EdmRunner::new(&t, &backend, EnsembleConfig::default());
        assert!(matches!(
            runner.run(&bv3(), 2, 3).unwrap_err(),
            EdmError::InvalidConfig(_)
        ));
    }

    #[test]
    fn baseline_uses_all_shots_on_best_mapping() {
        let (d, cal) = setup();
        let t = Transpiler::new(d.topology(), &cal);
        let backend = NoisySimulator::from_device(&d);
        let runner = EdmRunner::new(&t, &backend, EnsembleConfig::default());
        let base = runner.run_baseline(&bv3(), 2048, 5).unwrap();
        assert_eq!(base.counts.shots(), 2048);
        // The baseline is the ESP-best member of the full ensemble.
        let ensemble = runner.run(&bv3(), 2048, 5).unwrap();
        assert!((base.member.esp - ensemble.best_estimated().member.esp).abs() < 1e-12);
    }

    #[test]
    fn best_post_execution_maximizes_pst() {
        let (d, cal) = setup();
        let t = Transpiler::new(d.topology(), &cal);
        let backend = NoisySimulator::from_device(&d);
        let runner = EdmRunner::new(&t, &backend, EnsembleConfig::default());
        let result = runner.run(&bv3(), 8192, 9).unwrap();
        let correct = 0b101;
        let best = result.best_post_execution(correct);
        for m in &result.members {
            assert!(metrics::pst(&best.dist, correct) >= metrics::pst(&m.dist, correct));
        }
    }

    #[test]
    fn merged_distributions_are_normalized() {
        let (d, cal) = setup();
        let t = Transpiler::new(d.topology(), &cal);
        let backend = NoisySimulator::from_device(&d);
        let runner = EdmRunner::new(&t, &backend, EnsembleConfig::default());
        let result = runner.run(&bv3(), 4096, 11).unwrap();
        let total_edm: f64 = result.edm.iter().map(|(_, p)| p).sum();
        let total_wedm: f64 = result.wedm.iter().map(|(_, p)| p).sum();
        assert!((total_edm - 1.0).abs() < 1e-9);
        assert!((total_wedm - 1.0).abs() < 1e-9);
        assert!((result.weights.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let (d, cal) = setup();
        let t = Transpiler::new(d.topology(), &cal);
        let backend = NoisySimulator::from_device(&d);
        let runner = EdmRunner::new(&t, &backend, EnsembleConfig::default());
        let a = runner.run(&bv3(), 1024, 42).unwrap();
        let b = runner.run(&bv3(), 1024, 42).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn run_is_bit_identical_across_worker_counts() {
        let (d, cal) = setup();
        let t = Transpiler::new(d.topology(), &cal);
        let backend = NoisySimulator::from_device(&d);
        let reference = EdmRunner::new(&t, &backend, EnsembleConfig::default())
            .with_threads(1)
            .run(&bv3(), 4096, 7)
            .unwrap();
        for threads in [2, 8] {
            let runner =
                EdmRunner::new(&t, &backend, EnsembleConfig::default()).with_threads(threads);
            assert_eq!(runner.threads(), threads);
            let result = runner.run(&bv3(), 4096, 7).unwrap();
            assert_eq!(result, reference, "threads = {threads}");
        }
    }

    #[test]
    fn member_seeds_do_not_collide_across_adjacent_run_seeds() {
        // The old scheme seeded member i with `seed + i`, so member 1 of a
        // run seeded s replayed member 0 of a run seeded s + 1. With forked
        // streams the two runs share no member histograms.
        let (d, cal) = setup();
        let t = Transpiler::new(d.topology(), &cal);
        let backend = NoisySimulator::from_device(&d);
        let runner = EdmRunner::new(&t, &backend, EnsembleConfig::default());
        let a = runner.run(&bv3(), 8192, 100).unwrap();
        let b = runner.run(&bv3(), 8192, 101).unwrap();
        for (i, ma) in a.members.iter().enumerate() {
            for (j, mb) in b.members.iter().enumerate() {
                assert_ne!(
                    ma.counts, mb.counts,
                    "member {i} of seed 100 replays member {j} of seed 101"
                );
            }
        }
    }

    #[test]
    fn plan_seeds_fork_from_run_seed() {
        let (d, cal) = setup();
        let t = Transpiler::new(d.topology(), &cal);
        let members = build_ensemble(&t, &bv3(), &EnsembleConfig::default()).unwrap();
        let plan = plan_run(members, 4096, 17, ShotAllocation::Uniform).unwrap();
        for (i, &s) in plan.seeds.iter().enumerate() {
            assert_eq!(s, qsim::rngstream::fork(17, i as u64));
        }
        assert_eq!(plan.shares.iter().sum::<u64>(), 4096);
        let jobs = plan.jobs();
        assert_eq!(jobs.len(), plan.members.len());
        for (job, (&shots, &seed)) in jobs.iter().zip(plan.shares.iter().zip(&plan.seeds)) {
            assert_eq!(job.shots, shots);
            assert_eq!(job.seed, seed);
        }
    }

    #[test]
    fn coalesced_plans_match_individual_runs() {
        // The serving pattern: concatenate two requests' jobs into ONE
        // execute_batch call, split the results, assemble each — must be
        // bit-identical to running each request through run_members alone.
        let (d, cal) = setup();
        let t = Transpiler::new(d.topology(), &cal);
        let backend = NoisySimulator::from_device(&d);
        let config = EnsembleConfig::default();
        let runner = EdmRunner::new(&t, &backend, config);

        let requests = [(&bv3(), 2048u64, 5u64), (&bv3(), 4096, 91)];
        let direct: Vec<EdmResult> = requests
            .iter()
            .map(|&(c, shots, seed)| runner.run(c, shots, seed).unwrap())
            .collect();

        let plans: Vec<RunPlan> = requests
            .iter()
            .map(|&(c, shots, seed)| {
                let members = build_ensemble(&t, c, &config).unwrap();
                plan_run(members, shots, seed, config.shot_allocation).unwrap()
            })
            .collect();
        let all_jobs: Vec<BatchJob<'_>> = plans.iter().flat_map(|p| p.jobs()).collect();
        let mut results = backend.execute_batch(&all_jobs, 2).into_iter();
        drop(all_jobs);
        for (plan, expected) in plans.into_iter().zip(direct) {
            let k = plan.members.len();
            let raw: Vec<_> = results.by_ref().take(k).collect();
            let assembled = assemble_result(plan.members, raw, &config).unwrap();
            assert_eq!(assembled, expected);
        }
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        let (d, cal) = setup();
        let t = Transpiler::new(d.topology(), &cal);
        let backend = NoisySimulator::from_device(&d);
        let _ = EdmRunner::new(&t, &backend, EnsembleConfig::default()).with_threads(0);
    }

    /// Executes normally except for the `fail_at`-th job it sees.
    struct FailNthBackend {
        calls: std::cell::Cell<usize>,
        fail_at: usize,
    }

    impl Backend for FailNthBackend {
        fn execute_batch(
            &self,
            jobs: &[BatchJob<'_>],
            _threads: usize,
        ) -> Vec<Result<Counts, qsim::SimError>> {
            jobs.iter()
                .map(|job| {
                    let call = self.calls.get();
                    self.calls.set(call + 1);
                    if call == self.fail_at {
                        return Err(qsim::SimError::TooManyQubits {
                            circuit: 99,
                            device: 1,
                        });
                    }
                    let mut counts = Counts::new(job.circuit.num_clbits());
                    counts.record_n(0, job.shots);
                    Ok(counts)
                })
                .collect()
        }
    }

    #[test]
    fn failing_member_degrades_the_run_instead_of_failing_it() {
        let (d, cal) = setup();
        let t = Transpiler::new(d.topology(), &cal);
        let backend = FailNthBackend {
            calls: std::cell::Cell::new(0),
            fail_at: 2,
        };
        let runner = EdmRunner::new(&t, backend, EnsembleConfig::default());
        let result = runner.run(&bv3(), 4096, 3).unwrap();
        assert!(result.is_degraded());
        match &result.health {
            RunHealth::Degraded {
                failed_members,
                quorum,
            } => {
                assert_eq!(*quorum, 2);
                assert_eq!(failed_members.len(), 1);
                assert_eq!(failed_members[0].index, 2, "plan-order index of the loss");
                assert!(matches!(
                    failed_members[0].error,
                    qsim::SimError::TooManyQubits { .. }
                ));
            }
            RunHealth::Full => unreachable!("is_degraded was true"),
        }
        // Three of four members survive; the merges renormalize over them.
        assert_eq!(result.members.len(), 3);
        assert_eq!(result.weights.len(), 3);
        let total_edm: f64 = result.edm.iter().map(|(_, p)| p).sum();
        assert!((total_edm - 1.0).abs() < 1e-9);
        assert!((result.weights.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn below_quorum_failures_propagate_the_error() {
        let (d, cal) = setup();
        let t = Transpiler::new(d.topology(), &cal);
        // Require the full ensemble: any loss must fail the run.
        let config = EnsembleConfig {
            min_quorum: 4,
            ..EnsembleConfig::default()
        };
        let backend = FailNthBackend {
            calls: std::cell::Cell::new(0),
            fail_at: 1,
        };
        let runner = EdmRunner::new(&t, backend, config);
        let err = runner.run(&bv3(), 4096, 3).unwrap_err();
        assert!(
            matches!(err, EdmError::Sim(qsim::SimError::TooManyQubits { .. })),
            "expected the lost member's error, got {err:?}"
        );
    }

    #[test]
    fn fully_failed_run_errors_even_with_zero_quorum() {
        let (d, cal) = setup();
        let t = Transpiler::new(d.topology(), &cal);
        let members = build_ensemble(&t, &bv3(), &EnsembleConfig::default()).unwrap();
        let n = members.len();
        let raw: Vec<Result<Counts, qsim::SimError>> = (0..n)
            .map(|_| {
                Err(qsim::SimError::BackendUnavailable {
                    reason: "dead backend",
                })
            })
            .collect();
        // min_quorum 0 is clamped to 1: merging nothing is meaningless.
        let config = EnsembleConfig {
            min_quorum: 0,
            ..EnsembleConfig::default()
        };
        let err = assemble_result(members, raw, &config).unwrap_err();
        assert!(matches!(
            err,
            EdmError::Sim(qsim::SimError::BackendUnavailable { .. })
        ));
    }

    #[test]
    fn degraded_merge_equals_a_fresh_run_over_the_survivors() {
        // The renormalization contract: dropping a member and merging must
        // give the same distributions as if the ensemble had never
        // contained it.
        let (d, cal) = setup();
        let t = Transpiler::new(d.topology(), &cal);
        let backend = NoisySimulator::from_device(&d);
        let config = EnsembleConfig::default();
        let members = build_ensemble(&t, &bv3(), &config).unwrap();
        let plan = plan_run(members, 4096, 17, config.shot_allocation).unwrap();
        let jobs = plan.jobs();
        let mut raw = Backend::execute_batch(&backend, &jobs, 2);
        drop(jobs);
        // Kill member 1 after the fact.
        raw[1] = Err(qsim::SimError::ExecutionPanicked {
            detail: "chaos".into(),
        });
        let degraded = assemble_result(plan.members.clone(), raw.clone(), &config).unwrap();
        assert!(degraded.is_degraded());

        let surviving_members: Vec<EnsembleMember> = plan
            .members
            .into_iter()
            .enumerate()
            .filter(|(i, _)| *i != 1)
            .map(|(_, m)| m)
            .collect();
        let surviving_raw: Vec<_> = raw
            .into_iter()
            .enumerate()
            .filter(|(i, _)| *i != 1)
            .map(|(_, r)| r)
            .collect();
        let reference = assemble_result(surviving_members, surviving_raw, &config).unwrap();
        assert_eq!(degraded.edm, reference.edm);
        assert_eq!(degraded.wedm, reference.wedm);
        assert_eq!(degraded.weights, reference.weights);
        assert_eq!(degraded.members, reference.members);
    }

    #[test]
    fn inverted_measurement_members_agree_on_the_answer() {
        let (d, cal) = setup();
        let t = Transpiler::new(d.topology(), &cal);
        let backend = NoisySimulator::from_device(&d);
        let config = EnsembleConfig {
            invert_measurements: true,
            ..EnsembleConfig::default()
        };
        let runner = EdmRunner::new(&t, &backend, config);
        let result = runner.run(&bv3(), 8192, 21).unwrap();
        assert!(result.members.iter().any(|m| m.member.inverted_measurement));
        // Basis-corrected outcomes: every member still votes 101 on top (or
        // near the top) despite the inverted readout.
        for m in &result.members {
            assert!(
                m.dist.probability(0b101) > 0.2,
                "member lost the answer: {}",
                m.dist.probability(0b101)
            );
        }
    }

    #[test]
    fn inverted_members_leave_unmeasured_clbits_alone() {
        // Measures c0 and c1 of a 3-bit register: the answer is 011, and
        // c2 is never written, so no member may read it as 1.
        let mut c = Circuit::new(2, 3);
        c.x(0).x(1).measure(0, 0).measure(1, 1);
        let inverted = invert_measured_qubits(&c);
        let mut raw = Counts::new(3);
        raw.record_n(qsim::ideal::outcome(&inverted).unwrap(), 7);
        assert_eq!(uninvert_counts(&raw, &inverted).get(0b011), 7);

        let (d, cal) = setup();
        let t = Transpiler::new(d.topology(), &cal);
        let backend = NoisySimulator::from_device(&d);
        let config = EnsembleConfig {
            invert_measurements: true,
            ..EnsembleConfig::default()
        };
        let result = EdmRunner::new(&t, &backend, config)
            .run(&c, 2048, 5)
            .unwrap();
        assert!(result.members.iter().any(|m| m.member.inverted_measurement));
        for m in &result.members {
            assert_eq!(m.counts.most_frequent(), Some(0b011), "{:?}", m.member);
            assert_eq!(m.dist.probability(0b111), 0.0, "{:?}", m.member);
        }
    }

    #[test]
    fn uniformity_filter_reports_dropped_members() {
        let (d, cal) = setup();
        let t = Transpiler::new(d.topology(), &cal);
        let backend = NoisySimulator::from_device(&d);
        // Threshold so extreme that every member gets "dropped" -> fallback
        // merges all and reports them.
        let config = EnsembleConfig {
            uniformity_filter: Some(f64::INFINITY),
            ..EnsembleConfig::default()
        };
        let runner = EdmRunner::new(&t, &backend, config);
        let result = runner.run(&bv3(), 1024, 2).unwrap();
        assert_eq!(result.filtered_out.len(), 4);
        // Normal threshold drops nothing for a healthy circuit.
        let config = EnsembleConfig {
            uniformity_filter: Some(filter::DEFAULT_RSD_THRESHOLD),
            ..EnsembleConfig::default()
        };
        let runner = EdmRunner::new(&t, &backend, config);
        let result = runner.run(&bv3(), 1024, 2).unwrap();
        assert!(result.filtered_out.is_empty());
    }
}

#[cfg(test)]
mod allocation_tests {
    use super::*;
    use qdevice::{presets, DeviceModel};
    use qmap::Transpiler;
    use qsim::NoisySimulator;

    #[test]
    fn esp_weighted_allocation_favors_stronger_members() {
        let d = DeviceModel::synthesize(presets::melbourne14(), 12);
        let cal = d.calibration();
        let t = Transpiler::new(d.topology(), &cal);
        let backend = NoisySimulator::from_device(&d);
        let config = EnsembleConfig {
            shot_allocation: ShotAllocation::EspWeighted,
            min_esp_ratio: 0.0,
            size: 4,
            ..EnsembleConfig::default()
        };
        let runner = EdmRunner::new(&t, &backend, config);
        let bv = qbench::bv::bv(0b101, 3);
        let result = runner.run(&bv, 4096, 3).unwrap();
        let shots: Vec<u64> = result.members.iter().map(|m| m.counts.shots()).collect();
        assert_eq!(shots.iter().sum::<u64>(), 4096);
        // Members are ESP-descending; shares must be non-increasing within
        // one shot of each other.
        for w in shots.windows(2) {
            assert!(w[0] + 1 >= w[1], "shares {shots:?}");
        }
        assert!(shots.iter().all(|&s| s >= 1));
    }

    #[test]
    fn allocation_helper_edge_cases() {
        let member = |esp: f64| EnsembleMember {
            physical: qcir::Circuit::new(1, 1),
            esp,
            qubits: vec![0],
            assignment: vec![0],
            inverted_measurement: false,
        };
        // Tiny budgets still give everyone at least one shot.
        let members = vec![member(0.9), member(0.1)];
        let shares = allocate_shots(&members, 2, ShotAllocation::EspWeighted);
        assert_eq!(shares.iter().sum::<u64>(), 2);
        assert!(shares.iter().all(|&s| s >= 1));
        // Uniform splits evenly with remainder to the front.
        let shares = allocate_shots(&members, 5, ShotAllocation::Uniform);
        assert_eq!(shares, vec![3, 2]);
    }
}
