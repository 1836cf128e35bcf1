//! Parallel shot execution over the shared worker pool.
//!
//! The paper's protocol runs 16 384 trials per policy per round; trajectory
//! simulation of those trials is embarrassingly parallel. This module
//! splits every job's shot budget into fixed-size slices, derives each
//! slice's RNG seed from the job seed with [`crate::rngstream::fork`], and
//! lays each plan's slices, across every job that runs the plan, out in
//! groups of at most [`GROUP_SLICES`]. It runs the groups in waves of at
//! most [`WAVE_SLICES`] slices, each wave in two pool dispatches:
//!
//! 1. **Draw**: every slice is one work item. It makes the slice's draws,
//!    records its clean shots and defers its fired ones.
//! 2. **Replay**: each group's fired shots are split by fired-set key into
//!    work items, never splitting a set. Each distinct fired set in a
//!    group runs one trajectory, and every shot is recorded into its own
//!    job's histogram.
//!
//! Because the slicing depends only on the shot count — never on the
//! worker count — every slice owns a derived seed stream, and a shot's
//! outcome depends only on its plan, fired set, sweep uniform and readout
//! flips, the merged histogram is **bit-identical for any number of
//! threads**. Threads decide only how fast the answer arrives, not what it
//! is. The trajectory counts depend on the batch and its groups, not on
//! the threads or the waves.
//!
//! Each distinct circuit in a batch is compiled **once** into a shared
//! [`crate::CompiledCircuit`] before dispatch; jobs match by
//! [`Circuit::fingerprint`], confirmed by equality. Workers keep
//! thread-local buffers for trajectories, gathered shots and histograms
//! across slices and batches; a wave's draws are dropped when the wave
//! ends.

use crate::noise::{Bucket, Deferred, SimScratch};
use crate::pool::WorkerPool;
use crate::tier::Tier;
use crate::{rngstream, CompiledCircuit, Counts, NoisySimulator, SimError};
pub use edm_telemetry::trace::TraceContext;

use qcir::Circuit;
use std::cell::RefCell;
use std::ops::Range;

/// Shots per work slice.
///
/// Small enough that a 16 384-shot budget yields 16 slices (ample
/// load-balancing granularity for small thread counts), large enough that
/// per-slice overhead (histogram merge, scratch warm-up) stays well under
/// a percent of the trajectory work.
pub const SLICE_SHOTS: u64 = 1024;

/// The largest shot budget one job may ask for: 2^30 shots, 65 536 times
/// the paper's 16 384 trials. A larger job fails alone with
/// [`SimError::TooManyShots`] before any of its slices is laid out, so an
/// absurd budget cannot exhaust memory. Front ends reject above it at
/// admission.
pub const MAX_SHOTS: u64 = 1 << 30;

/// Slices replayed together: a batch replays each plan's slices in
/// consecutive runs of at most this many, the paper's 16 384 trials. The
/// trajectory counts depend on it, so it is fixed.
pub const GROUP_SLICES: usize = 16;

/// Slices whose draws a batch holds at once: it draws and replays
/// consecutive groups of at most this many slices together (a group is
/// never cut). This bounds pass 1's buffers by the wave, not by the
/// batch's shots, and changes no histogram or count.
pub const WAVE_SLICES: usize = 4 * GROUP_SLICES;

/// Fired shots per replay work item: a group of `n` fired shots splits
/// into `⌈n / REPLAY_ITEM_SHOTS⌉` key buckets, so the split depends only on
/// the draws. Small enough that the unequal groups of a small batch (a
/// 256-shot baseline sharing a plan with one of four 64-shot members)
/// still split into near-equal items for the workers.
pub(crate) const REPLAY_ITEM_SHOTS: usize = 64;

/// A job with this seed panics in every replay item it shares, to test
/// that the panic fails no other job.
#[cfg(test)]
const REPLAY_FAULT_SEED: u64 = 0xFA17_5EED;

thread_local! {
    /// Per-worker simulation buffers, reused across every slice a worker
    /// ever runs (buffers only grow; see [`SimScratch`]).
    static SCRATCH: RefCell<SimScratch> = RefCell::default();
}

/// One independent execution request inside a batch: a circuit, its shot
/// budget, and the root seed its slice streams are forked from.
#[derive(Debug, Clone, Copy)]
pub struct BatchJob<'a> {
    /// The physical circuit to run.
    pub circuit: &'a Circuit,
    /// Number of shots to accumulate for this job.
    pub shots: u64,
    /// Root seed; slice `s` runs with `rngstream::fork(seed, s)`.
    pub seed: u64,
    /// Trace context the job's pool slices report into (the default —
    /// untraced — emits no slice spans). Telemetry only: never consulted
    /// by the execution or seed schedule, so tracing cannot perturb
    /// histograms.
    pub trace: TraceContext,
}

impl<'a> BatchJob<'a> {
    /// An untraced job; chain [`BatchJob::traced`] to link its slices
    /// into a trace.
    pub fn new(circuit: &'a Circuit, shots: u64, seed: u64) -> Self {
        BatchJob {
            circuit,
            shots,
            seed,
            trace: TraceContext::default(),
        }
    }

    /// Stamps the trace context the job's pool slices report into.
    pub fn traced(mut self, trace: TraceContext) -> Self {
        self.trace = trace;
        self
    }
}

/// The shot budgets of each slice of a `shots`-shot job.
///
/// A zero-shot job still gets one (empty) slice.
pub(crate) fn slice_sizes(shots: u64) -> Vec<u64> {
    if shots == 0 {
        return vec![0];
    }
    let full = shots / SLICE_SHOTS;
    let rest = shots % SLICE_SHOTS;
    let mut sizes = vec![SLICE_SHOTS; full as usize];
    if rest > 0 {
        sizes.push(rest);
    }
    sizes
}

/// One pass-1 work item: slice `index` of job `job`.
struct Slice {
    job: usize,
    index: u64,
    shots: u64,
}

/// Consecutive slices of one plan, replayed together.
struct Group {
    plan: usize,
    /// Into the batch's slices.
    slices: Range<usize>,
    /// The jobs of those slices, in order.
    jobs: Vec<usize>,
}

/// The batch laid out plan by plan: each plan's slices in job order, then
/// slice order, cut into groups of at most [`GROUP_SLICES`].
struct Layout {
    slices: Vec<Slice>,
    groups: Vec<Group>,
}

impl Layout {
    fn new(
        jobs: &[BatchJob<'_>],
        plan_of: &[usize],
        plans: &[Result<CompiledCircuit, SimError>],
    ) -> Self {
        let mut order: Vec<usize> = (0..jobs.len())
            .filter(|&j| plans[plan_of[j]].is_ok() && jobs[j].shots <= MAX_SHOTS)
            .collect();
        // Stable: a plan's jobs stay in job order.
        order.sort_by_key(|&j| plan_of[j]);
        let mut layout = Layout {
            slices: Vec::new(),
            groups: Vec::new(),
        };
        for (i, &j) in order.iter().enumerate() {
            let new_plan = i == 0 || plan_of[order[i - 1]] != plan_of[j];
            for (s, shots) in slice_sizes(jobs[j].shots).into_iter().enumerate() {
                let full = layout
                    .groups
                    .last()
                    .is_none_or(|g| g.slices.len() == GROUP_SLICES);
                if new_plan && s == 0 || full {
                    let at = layout.slices.len();
                    layout.groups.push(Group {
                        plan: plan_of[j],
                        slices: at..at,
                        jobs: Vec::new(),
                    });
                }
                let group = layout.groups.last_mut().expect("every slice has a group");
                if group.jobs.last() != Some(&j) {
                    group.jobs.push(j);
                }
                layout.slices.push(Slice {
                    job: j,
                    index: s as u64,
                    shots,
                });
                group.slices.end += 1;
            }
        }
        layout
    }

    /// The groups cut into waves: runs of consecutive groups holding at
    /// most [`WAVE_SLICES`] slices, or one group.
    fn waves(&self) -> Vec<Range<usize>> {
        let mut waves: Vec<Range<usize>> = Vec::new();
        let mut held = 0;
        for (g, group) in self.groups.iter().enumerate() {
            match waves.last_mut() {
                Some(wave) if held + group.slices.len() <= WAVE_SLICES => {
                    wave.end = g + 1;
                    held += group.slices.len();
                }
                _ => {
                    waves.push(g..g + 1);
                    held = group.slices.len();
                }
            }
        }
        waves
    }
}

/// Fails a job with a work item's panic, unless it failed already (its
/// first failure wins). Returns whether it failed the job.
fn fail(slot: &mut Result<Counts, SimError>, detail: &str) -> bool {
    if slot.is_err() {
        return false;
    }
    *slot = Err(SimError::ExecutionPanicked {
        detail: detail.to_string(),
    });
    true
}

impl NoisySimulator<'_> {
    /// Runs a batch of independent jobs, fanning work items across at
    /// most `threads` pool workers, and returns one result per job in job
    /// order.
    ///
    /// Each job's result is bit-identical for every `threads` value, and
    /// equal to running each slice `s` of `n` shots shot by shot, one
    /// trajectory per shot, from `rngstream::fork(seed, s)`, and summing.
    /// A job whose circuit fails validation, or whose budget exceeds
    /// [`MAX_SHOTS`], reports its own error without disturbing the other
    /// jobs.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    ///
    /// # Examples
    ///
    /// ```
    /// use qcir::Circuit;
    /// use qdevice::{presets, DeviceModel};
    /// use qsim::parallel::BatchJob;
    /// use qsim::NoisySimulator;
    ///
    /// let device = DeviceModel::synthesize(presets::melbourne14(), 3);
    /// let sim = NoisySimulator::from_device(&device);
    /// let mut c = Circuit::new(2, 2);
    /// c.h(0).cx(0, 1).measure_all();
    /// let jobs = [
    ///     BatchJob::new(&c, 2000, 7),
    ///     BatchJob::new(&c, 1000, 8),
    /// ];
    /// let results = sim.run_batch(&jobs, 4);
    /// assert_eq!(results[0].as_ref().unwrap().shots(), 2000);
    /// assert_eq!(results[1].as_ref().unwrap().shots(), 1000);
    /// ```
    pub fn run_batch(
        &self,
        jobs: &[BatchJob<'_>],
        threads: usize,
    ) -> Vec<Result<Counts, SimError>> {
        assert!(threads > 0, "need at least one thread");
        edm_telemetry::histogram!(
            "edm_qsim_batch_us",
            "Wall time of one run_batch dispatch (all jobs, all slices)"
        )
        .time(|| self.run_batch_inner(jobs, threads))
    }

    /// Compiles each distinct circuit of the batch once. Returns the
    /// plans and each job's plan index.
    fn compile_distinct(
        &self,
        jobs: &[BatchJob<'_>],
    ) -> (Vec<Result<CompiledCircuit, SimError>>, Vec<usize>) {
        let fingerprints: Vec<u64> = jobs.iter().map(|job| job.circuit.fingerprint()).collect();
        let mut plans = Vec::new();
        // The first job of each plan.
        let mut firsts: Vec<usize> = Vec::new();
        let plan_of = (0..jobs.len())
            .map(|j| {
                let same = |&k: &usize| {
                    fingerprints[k] == fingerprints[j] && jobs[k].circuit == jobs[j].circuit
                };
                firsts.iter().position(same).unwrap_or_else(|| {
                    firsts.push(j);
                    plans.push(self.compile(jobs[j].circuit));
                    plans.len() - 1
                })
            })
            .collect();
        edm_telemetry::counter!(
            "edm_qsim_plans_compiled_total",
            "Plans run_batch compiled: one per distinct circuit in a batch"
        )
        .add(plans.len() as u64);
        (plans, plan_of)
    }

    fn run_batch_inner(
        &self,
        jobs: &[BatchJob<'_>],
        threads: usize,
    ) -> Vec<Result<Counts, SimError>> {
        let (plans, plan_of) = self.compile_distinct(jobs);
        let plan = |p: usize| plans[p].as_ref().expect("only compiled plans have slices");
        let layout = Layout::new(jobs, &plan_of, &plans);
        let Layout { slices, groups } = &layout;
        edm_telemetry::counter!(
            "edm_qsim_slices_total",
            "Shot slices dispatched to the worker pool"
        )
        .add(slices.len() as u64);
        edm_telemetry::counter!("edm_qsim_shots_total", "Shots executed by the simulator")
            .add(slices.iter().map(|s| s.shots).sum());
        let tier = Tier::detected();
        // Set per batch, not once per process: a gauge write made while
        // telemetry is off is dropped, and telemetry may come on later.
        edm_telemetry::gauge!(
            "edm_qsim_kernel_tier",
            "SIMD tier the shot loop's kernels run at: 0 portable, 1 AVX2, 2 AVX-512F"
        )
        .set(tier as i64);

        // Work-item timing is recorded inside the worker closures: a
        // histogram touch is worker-safe (relaxed atomics, no span stack).
        // Traced jobs additionally report each item as an explicit-
        // context span (`record_external`) — pool threads never inherit
        // the dispatcher's thread-local span stack, so the job's own
        // `BatchJob::trace` is the only way an item can link into its
        // cross-process trace instead of surfacing as a parentless root.
        let slice_hist = edm_telemetry::histogram!(
            "edm_qsim_slice_us",
            "Wall time of one shot slice's draws on a pool worker"
        );
        let replay_hist = edm_telemetry::histogram!(
            "edm_qsim_replay_us",
            "Wall time of one replay work item on a pool worker"
        );
        let traced = |j: usize| edm_telemetry::enabled() && jobs[j].trace.is_traced();
        let span = |name: &'static str, j: usize, started: std::time::Instant| {
            edm_telemetry::trace::record_external(
                name,
                jobs[j].trace,
                started.elapsed().as_micros() as u64,
            );
        };
        // Work counters are bumped once per replay item from its own
        // `ShotWork` tally, never per shot.
        let replayed = edm_telemetry::counter!(
            "edm_qsim_replayed_shots_total",
            "Shots that ran a trajectory instead of sampling the clean distribution"
        );
        let skipped = edm_telemetry::counter!(
            "edm_qsim_resumed_ops_skipped_total",
            "Fused ops skipped by resuming trajectories from clean-prefix checkpoints"
        );
        let distinct = edm_telemetry::counter!(
            "edm_qsim_distinct_trajectories_total",
            "Trajectories run: the distinct fired-event sets of each plan's replay groups"
        );
        let kernel_ops = edm_telemetry::counter!(
            "edm_qsim_kernel_ops_total",
            "Amplitude-kernel calls made by trajectories: fused ops, replayed prims and Paulis"
        );

        // A job that failed validation starts (and stays) failed: its
        // circuit may not even fit a histogram. Counts commute, so the
        // merge order is free.
        let mut out: Vec<Result<Counts, SimError>> = jobs
            .iter()
            .zip(&plan_of)
            .map(|(job, &p)| match &plans[p] {
                _ if job.shots > MAX_SHOTS => Err(SimError::TooManyShots { shots: job.shots }),
                Ok(plan) => Ok(Counts::new(plan.num_clbits())),
                Err(e) => Err(e.clone()),
            })
            .collect();
        // Jobs failed by a replay item they shared with other jobs.
        let mut shared_failure = vec![false; jobs.len()];

        for wave in layout.waves() {
            let groups = &groups[wave];
            let first = groups[0].slices.start;
            let wave_slices = &slices[first..groups[groups.len() - 1].slices.end];

            // Dispatch 1: every slice's draws. The pool contains a
            // panicking item: it fails only its own job (as a
            // non-transient [`SimError::ExecutionPanicked`]) and the pool
            // stays usable.
            let drawn = WorkerPool::global().map(wave_slices, threads, |_, slice| {
                let job = &jobs[slice.job];
                let started = traced(slice.job).then(std::time::Instant::now);
                let drawn = slice_hist.time(|| {
                    SCRATCH.with(|scratch| {
                        plan(plan_of[slice.job]).draw_slice(
                            tier,
                            slice.shots,
                            rngstream::fork(job.seed, slice.index),
                            &mut scratch.borrow_mut(),
                        )
                    })
                });
                if let Some(started) = started {
                    span("pool_slice", slice.job, started);
                }
                drawn
            });

            // Dispatch 2: each group's fired shots, split by set key into
            // `⌈fired / REPLAY_ITEM_SHOTS⌉` buckets. It starts right after
            // dispatch 1, with only per-slice work in between: a pause
            // lets the idle workers sleep, and waking them costs more than
            // the pause. A slice whose draws panicked replays nothing: its
            // job has failed already.
            let none = Deferred::default();
            let views: Vec<&Deferred> = drawn
                .iter()
                .map(|drawn| drawn.as_ref().map_or(&none, |(_, deferred)| deferred))
                .collect();
            let views_of =
                |group: &Group| &views[group.slices.start - first..group.slices.end - first];
            let mut items: Vec<(usize, Bucket)> = Vec::new();
            for (g, group) in groups.iter().enumerate() {
                let fired: usize = views_of(group).iter().map(|d| d.len()).sum();
                let of = fired.div_ceil(REPLAY_ITEM_SHOTS).max(1) as u64;
                items.extend((0..of).map(|index| (g, Bucket::new(index, of))));
            }
            let replays = WorkerPool::global().map(&items, threads, |_, &(g, bucket)| {
                let group = &groups[g];
                #[cfg(test)]
                if group
                    .jobs
                    .iter()
                    .any(|&j| jobs[j].seed == REPLAY_FAULT_SEED)
                {
                    panic!("injected replay fault");
                }
                let started = std::time::Instant::now();
                let (outcomes, work) = replay_hist.time(|| {
                    SCRATCH.with(|scratch| {
                        plan(group.plan).replay_slices(
                            tier,
                            views_of(group),
                            bucket,
                            &mut scratch.borrow_mut(),
                        )
                    })
                });
                replayed.add(work.replayed_shots);
                skipped.add(work.skipped_ops);
                distinct.add(work.distinct_trajectories);
                kernel_ops.add(work.kernel_ops);
                for &j in group.jobs.iter().filter(|&&j| traced(j)) {
                    span("pool_replay", j, started);
                }
                outcomes
            });

            for (slice, drawn) in wave_slices.iter().zip(&drawn) {
                match (&mut out[slice.job], drawn) {
                    (Ok(acc), Ok((clean, _))) => acc.merge_from(clean),
                    (slot, Err(detail)) => {
                        fail(slot, detail);
                    }
                    (Err(_), Ok(_)) => {}
                }
            }
            for ((g, _), replay) in items.iter().zip(&replays) {
                let group = &groups[*g];
                match replay {
                    Ok(outcomes) => {
                        // Sorted: each run of one slice's outcome records once.
                        for run in outcomes.chunk_by(|a, b| a == b) {
                            let (s, key) = run[0];
                            let job = slices[group.slices.start + s as usize].job;
                            if let Ok(acc) = &mut out[job] {
                                acc.record_n(key, run.len() as u64);
                            }
                        }
                    }
                    Err(detail) => {
                        for &j in &group.jobs {
                            shared_failure[j] |= fail(&mut out[j], detail) && group.jobs.len() > 1;
                        }
                    }
                }
            }
        }

        // A panic in replay work shared with other jobs may come from
        // another job's shots: run each job it failed alone, so a job
        // fails only on its own shots. Its work counts again.
        for j in (0..jobs.len()).filter(|&j| shared_failure[j]) {
            out[j] = self
                .run_batch_inner(std::slice::from_ref(&jobs[j]), threads)
                .pop()
                .expect("one result per job");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdevice::{presets, DeviceModel};

    fn bell() -> Circuit {
        let mut c = Circuit::new(2, 2);
        c.h(0).cx(0, 1).measure_all();
        c
    }

    #[test]
    fn slice_layout_depends_only_on_shots() {
        assert_eq!(slice_sizes(0), vec![0]);
        assert_eq!(slice_sizes(1), vec![1]);
        assert_eq!(slice_sizes(SLICE_SHOTS), vec![SLICE_SHOTS]);
        assert_eq!(slice_sizes(2500), vec![1024, 1024, 452]);
        assert_eq!(slice_sizes(2500).iter().sum::<u64>(), 2500);
    }

    /// One job through `run_batch` at `threads` workers.
    fn one_job(
        sim: &NoisySimulator<'_>,
        c: &Circuit,
        shots: u64,
        seed: u64,
        threads: usize,
    ) -> Result<Counts, SimError> {
        sim.run_batch(&[BatchJob::new(c, shots, seed)], threads)
            .pop()
            .expect("one result per job")
    }

    #[test]
    fn parallel_run_has_exact_shot_count() {
        let d = DeviceModel::synthesize(presets::melbourne14(), 5);
        let sim = NoisySimulator::from_device(&d);
        // 2501 shots slice unevenly (1024 + 1024 + 453); nothing may be
        // lost or double-counted.
        let counts = one_job(&sim, &bell(), 2501, 1, 4).unwrap();
        assert_eq!(counts.shots(), 2501);
    }

    #[test]
    fn results_are_bit_identical_across_worker_counts() {
        // `run` is a one-job batch: it must equal that batch at every
        // worker count, for budgets below, at and above a slice multiple.
        let d = DeviceModel::synthesize(presets::melbourne14(), 5);
        let sim = NoisySimulator::from_device(&d);
        for shots in [1000, 2047, 2048, 2049] {
            let reference = sim.run(&bell(), shots, 9).unwrap();
            assert_eq!(reference.shots(), shots);
            for threads in [1, 2, 3, 8] {
                let counts = one_job(&sim, &bell(), shots, 9, threads).unwrap();
                assert_eq!(counts, reference, "shots = {shots}, threads = {threads}");
            }
        }
    }

    #[test]
    fn fused_runs_are_bit_identical_across_worker_counts() {
        // A long single-qubit rotation chain between CXs exercises the
        // fusion fast path and its Pauli-interleave slow path hard; the
        // histogram must not depend on the worker count (DESIGN.md §7).
        let d = DeviceModel::synthesize(presets::melbourne14(), 5);
        let sim = NoisySimulator::from_device(&d);
        let mut c = Circuit::new(2, 2);
        for i in 0..6 {
            c.rx(0, 0.1 + 0.05 * i as f64);
            c.rz(1, 0.2 + 0.05 * i as f64);
        }
        c.cx(0, 1);
        for _ in 0..4 {
            c.h(0).t(0);
        }
        c.cx(0, 1).measure_all();
        let reference = sim.run(&c, 5000, 21).unwrap();
        for threads in [2, 8] {
            let counts = one_job(&sim, &c, 5000, 21, threads).unwrap();
            assert_eq!(counts, reference, "threads = {threads}");
        }
    }

    #[test]
    fn parallel_run_is_deterministic() {
        let d = DeviceModel::synthesize(presets::melbourne14(), 5);
        let sim = NoisySimulator::from_device(&d);
        let a = one_job(&sim, &bell(), 2000, 9, 4).unwrap();
        let b = one_job(&sim, &bell(), 2000, 9, 4).unwrap();
        assert_eq!(a, b);
        // Different seeds give different histograms.
        let c = one_job(&sim, &bell(), 2000, 10, 4).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn batch_jobs_match_individual_runs() {
        let d = DeviceModel::synthesize(presets::melbourne14(), 5);
        let sim = NoisySimulator::from_device(&d);
        let bell = bell();
        let mut ghz = Circuit::new(3, 3);
        ghz.h(0).cx(0, 1).cx(1, 2).measure_all();
        let jobs = [
            BatchJob::new(&bell, 1500, 11),
            BatchJob::new(&ghz, 2048, 12),
        ];
        let batch = sim.run_batch(&jobs, 4);
        // Batched execution must equal running each job alone — the
        // contract that lets the ensemble fan members out together.
        assert_eq!(
            batch[0].as_ref().unwrap(),
            &sim.run(&bell, 1500, 11).unwrap()
        );
        assert_eq!(
            batch[1].as_ref().unwrap(),
            &one_job(&sim, &ghz, 2048, 12, 2).unwrap()
        );
    }

    #[test]
    fn errors_propagate_from_slices() {
        let d = DeviceModel::synthesize(presets::melbourne14(), 5);
        let sim = NoisySimulator::from_device(&d);
        let mut bad = Circuit::new(3, 0);
        bad.ccx(0, 1, 2);
        assert!(one_job(&sim, &bad, 100, 0, 4).is_err());
        // Zero shots still validate.
        assert!(one_job(&sim, &bad, 0, 0, 4).is_err());
        assert!(sim.run(&bad, 0, 0).is_err());
    }

    #[test]
    fn failing_job_does_not_poison_its_batch_mates() {
        let d = DeviceModel::synthesize(presets::melbourne14(), 5);
        let sim = NoisySimulator::from_device(&d);
        let good = bell();
        let mut bad = Circuit::new(3, 0);
        bad.ccx(0, 1, 2);
        let jobs = [BatchJob::new(&bad, 100, 0), BatchJob::new(&good, 1200, 1)];
        let results = sim.run_batch(&jobs, 4);
        assert!(results[0].is_err());
        assert_eq!(results[1].as_ref().unwrap().shots(), 1200);
    }

    #[test]
    fn oversized_budget_fails_alone_before_any_slice_is_laid_out() {
        let d = DeviceModel::synthesize(presets::melbourne14(), 5);
        let sim = NoisySimulator::from_device(&d);
        let c = bell();
        // Laid out, u64::MAX shots would need 2^54 slices.
        let jobs = [
            BatchJob::new(&c, u64::MAX, 0),
            BatchJob::new(&c, 1200, 1),
            BatchJob::new(&c, MAX_SHOTS + 1, 2),
        ];
        for threads in [1, 2] {
            let results = sim.run_batch(&jobs, threads);
            let err = results[0].as_ref().unwrap_err();
            assert_eq!(err, &SimError::TooManyShots { shots: u64::MAX });
            assert!(!err.is_transient());
            assert_eq!(results[1], sim.run(&c, 1200, 1));
            assert_eq!(
                results[2],
                Err(SimError::TooManyShots {
                    shots: MAX_SHOTS + 1
                })
            );
        }
        assert!(sim.run(&c, u64::MAX, 0).is_err());
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        let d = DeviceModel::synthesize(presets::melbourne14(), 5);
        let sim = NoisySimulator::from_device(&d);
        let _ = one_job(&sim, &bell(), 10, 0, 0);
    }
}

/// `run_batch` against its definition: each job's histogram is the one
/// the per-shot loop gives over its slices, whatever the threads, plan
/// sharing and replay grouping. Few shots under Miri.
#[cfg(test)]
mod replay {
    use super::*;
    use crate::noise::dedup::per_shot;
    use qdevice::{presets, DeviceModel};

    /// Each slice `s` of `n` shots run shot by shot from `fork(seed, s)`,
    /// summed.
    fn summed_slices(sim: &NoisySimulator<'_>, job: &BatchJob<'_>) -> Result<Counts, SimError> {
        Ok(per_shot(&sim.compile(job.circuit)?, job.shots, job.seed).0)
    }

    fn circuits() -> (Circuit, Circuit, Circuit) {
        let mut bell = Circuit::new(2, 2);
        bell.h(0).cx(0, 1).measure_all();
        let mut ghz = Circuit::new(3, 3);
        ghz.h(0).cx(0, 1).rx(1, 0.3).cx(1, 2).measure_all();
        let mut bad = Circuit::new(3, 0);
        bad.ccx(0, 1, 2);
        (bell, ghz, bad)
    }

    #[test]
    fn batch_histograms_equal_the_summed_slices_at_every_thread_count() {
        let d = DeviceModel::synthesize(presets::melbourne14(), 5);
        let sim = NoisySimulator::from_device(&d);
        let (bell, ghz, bad) = circuits();
        // Equal to `bell` but a separate value: matched by content.
        let bell_again = bell.clone();
        let (many, few) = if cfg!(miri) { (1025, 3) } else { (2500, 1500) };
        let mut jobs = vec![
            BatchJob::new(&bell, many, 1),
            BatchJob::new(&ghz, few, 2),
            BatchJob::new(&bad, 100, 3),
            BatchJob::new(&bell_again, few, 4),
            BatchJob::new(&bell, 0, 5),
            BatchJob::new(&ghz, many, 6),
        ];
        if !cfg!(miri) {
            // 17 slices: one plan's slices fill a group and spill into
            // the next.
            jobs.push(BatchJob::new(&ghz, 16 * SLICE_SHOTS + 7, 7));
            // 70 slices: the batch runs in three waves.
            jobs.push(BatchJob::new(&bell, 53 * SLICE_SHOTS, 8));
        }
        let want: Vec<_> = jobs.iter().map(|job| summed_slices(&sim, job)).collect();
        assert!(want[2].is_err());
        assert_eq!(want[4].as_ref().unwrap().shots(), 0);
        let threads: &[usize] = if cfg!(miri) { &[1, 2] } else { &[1, 2, 3, 8] };
        for &t in threads {
            assert_eq!(sim.run_batch(&jobs, t), want, "{t} thread(s)");
        }
    }

    #[test]
    fn layout_groups_each_plans_slices_in_runs_of_at_most_sixteen() {
        let d = DeviceModel::synthesize(presets::melbourne14(), 5);
        let sim = NoisySimulator::from_device(&d);
        let (bell, ghz, bad) = circuits();
        let bell_again = bell.clone();
        let jobs = [
            BatchJob::new(&bell, 10 * SLICE_SHOTS, 1),
            BatchJob::new(&ghz, 1, 2),
            BatchJob::new(&bad, 1, 3),
            BatchJob::new(&bell_again, 8 * SLICE_SHOTS, 4),
            BatchJob::new(&bell, 0, 5),
        ];
        let (plans, plan_of) = sim.compile_distinct(&jobs);
        assert_eq!(plan_of, [0, 1, 2, 0, 0]);
        assert_eq!(plans.len(), 3);
        let layout = Layout::new(&jobs, &plan_of, &plans);
        // The bell plan's 10 + 8 + 1 slices make groups of 16 and 3; the
        // ghz plan one group; the bad plan none.
        let shape: Vec<(usize, usize, Vec<usize>)> = layout
            .groups
            .iter()
            .map(|g| (g.plan, g.slices.len(), g.jobs.clone()))
            .collect();
        assert_eq!(
            shape,
            [(0, 16, vec![0, 3]), (0, 3, vec![3, 4]), (1, 1, vec![1])]
        );
        for group in &layout.groups {
            for slice in &layout.slices[group.slices.clone()] {
                assert!(group.jobs.contains(&slice.job));
            }
        }
        // 20 slices: one wave.
        assert_eq!(layout.waves().len(), 1);
        assert_eq!(layout.waves()[0], 0..3);
    }

    #[test]
    fn waves_hold_whole_groups_of_at_most_sixty_four_slices() {
        let d = DeviceModel::synthesize(presets::melbourne14(), 5);
        let sim = NoisySimulator::from_device(&d);
        let (bell, ghz, _) = circuits();
        // bell: 70 slices (groups of 16, 16, 16, 16, 6); ghz: 20 (16, 4).
        // The first four groups fill a wave; the other three share one.
        let jobs = [
            BatchJob::new(&bell, 70 * SLICE_SHOTS, 1),
            BatchJob::new(&ghz, 20 * SLICE_SHOTS, 2),
        ];
        let (plans, plan_of) = sim.compile_distinct(&jobs);
        let layout = Layout::new(&jobs, &plan_of, &plans);
        assert_eq!(layout.waves(), [0..4, 4..7]);
    }

    #[test]
    fn a_shared_replay_panic_fails_only_the_job_whose_shots_panic() {
        let d = DeviceModel::synthesize(presets::melbourne14(), 5);
        let sim = NoisySimulator::from_device(&d);
        // Deep enough that most shots fire an error, so every job of the
        // shared plan has replay items.
        let mut deep = Circuit::new(3, 3);
        for _ in 0..10 {
            deep.h(0).cx(0, 1).cx(1, 2);
        }
        deep.measure_all();
        let deep_again = deep.clone();
        let (bell, _, _) = circuits();
        let shots = if cfg!(miri) { 16 } else { 300 };
        let jobs = [
            BatchJob::new(&deep, shots, 1),
            BatchJob::new(&deep_again, shots, REPLAY_FAULT_SEED),
            BatchJob::new(&bell, shots, 3),
        ];
        let (plans, _) = sim.compile_distinct(&jobs);
        let (_, work) = per_shot(plans[0].as_ref().unwrap(), shots, REPLAY_FAULT_SEED);
        assert!(work.replayed_shots > 0, "the faulty job fires no error");
        for threads in [1, 2] {
            let results = sim.run_batch(&jobs, threads);
            assert_eq!(results[0], summed_slices(&sim, &jobs[0]));
            assert!(
                matches!(results[1], Err(SimError::ExecutionPanicked { .. })),
                "{:?}",
                results[1]
            );
            assert_eq!(results[2], summed_slices(&sim, &jobs[2]));
        }
    }
}
