//! Parallel shot execution over the shared worker pool.
//!
//! The paper's protocol runs 16 384 trials per policy per round; trajectory
//! simulation of those trials is embarrassingly parallel. This module
//! splits every job's shot budget into fixed-size slices, derives each
//! slice's RNG seed from the job seed with [`crate::rngstream::fork`], fans
//! the `(job × slice)` work items out over [`crate::pool::WorkerPool`], and
//! merges the per-slice histograms in slice order.
//!
//! Because the slicing depends only on the shot count — never on the
//! worker count — and every slice owns a derived seed stream, the merged
//! histogram is **bit-identical for any number of threads**. Threads decide
//! only how fast the answer arrives, not what it is.
//!
//! Each job's circuit is compiled **once** into a shared
//! [`crate::CompiledCircuit`] before dispatch; every slice of the job
//! executes against the same plan (the per-slice noise lookup tables are
//! built once, not per slice, and never per shot). Workers keep a
//! thread-local [`crate::SimScratch`], so after the first slice has warmed
//! a worker's buffers, slice execution allocates only its output `Counts`.

use crate::pool::WorkerPool;
use crate::{rngstream, CompiledCircuit, Counts, NoisySimulator, SimError, SimScratch};
pub use edm_telemetry::trace::TraceContext;

use qcir::Circuit;
use std::cell::RefCell;

/// Shots per work slice.
///
/// Small enough that a 16 384-shot budget yields 16 slices (ample
/// load-balancing granularity for small thread counts), large enough that
/// per-slice overhead (histogram merge, scratch warm-up) stays well under
/// a percent of the trajectory work.
pub const SLICE_SHOTS: u64 = 1024;

thread_local! {
    /// Per-worker simulation buffers, reused across every slice a worker
    /// ever runs (buffers only grow; see [`SimScratch`]).
    static SCRATCH: RefCell<SimScratch> = RefCell::new(SimScratch::new());
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
/// A zero-shot job still gets one (empty) slice so that circuit validation
/// runs and errors surface exactly as in [`NoisySimulator::run`].
fn slice_sizes(shots: u64) -> Vec<u64> {
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

impl NoisySimulator<'_> {
    /// Runs a batch of independent jobs, fanning `(job × slice)` work
    /// items across at most `threads` pool workers, and returns one result
    /// per job in job order.
    ///
    /// Each job's result is bit-identical for every `threads` value — the
    /// slice layout and seed streams depend only on `(shots, seed)`, and
    /// slices merge in slice order. A job whose circuit fails validation
    /// reports its own error without disturbing the other jobs.
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

    fn run_batch_inner(
        &self,
        jobs: &[BatchJob<'_>],
        threads: usize,
    ) -> Vec<Result<Counts, SimError>> {
        // Flatten jobs into (job, slice) work items so one pool dispatch
        // covers the whole batch — slices of a slow job and of its
        // neighbors interleave freely across workers.
        let mut items: Vec<(usize, u64, u64)> = Vec::new();
        for (j, job) in jobs.iter().enumerate() {
            for (s, slice_shots) in slice_sizes(job.shots).into_iter().enumerate() {
                items.push((j, s as u64, slice_shots));
            }
        }
        edm_telemetry::counter!(
            "edm_qsim_slices_total",
            "Shot slices dispatched to the worker pool"
        )
        .add(items.len() as u64);
        edm_telemetry::counter!("edm_qsim_shots_total", "Shots executed by the simulator")
            .add(jobs.iter().map(|j| j.shots).sum());

        // Per-slice timing is recorded inside the worker closure: a
        // histogram touch is worker-safe (relaxed atomics, no span stack).
        // Traced jobs additionally report each slice as an explicit-
        // context span (`record_external`) — pool threads never inherit
        // the dispatcher's thread-local span stack, so the job's own
        // `BatchJob::trace` is the only way a slice can link into its
        // cross-process trace instead of surfacing as a parentless root.
        let slice_hist = edm_telemetry::histogram!(
            "edm_qsim_slice_us",
            "Wall time of one shot slice on a pool worker"
        );
        // Work counters are bumped once per slice from the slice's own
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
            "Trajectories run: the distinct fired-event sets of each slice"
        );

        // Compile each job exactly once; every slice shares the plan. A
        // job that fails validation is reported per slice below, matching
        // the error `NoisySimulator::run` would have returned.
        let compiled: Vec<Result<CompiledCircuit, SimError>> =
            jobs.iter().map(|job| self.compile(job.circuit)).collect();

        // `map_catch` contains a panicking slice: it fails only its own
        // job (as a non-transient [`SimError::ExecutionPanicked`]) and the
        // pool stays usable for the rest of the batch and future calls.
        let slice_results = WorkerPool::global()
            .map_catch(&items, threads, |_, &(j, s, n)| {
                let plan = match &compiled[j] {
                    Ok(plan) => plan,
                    Err(e) => return Err(e.clone()),
                };
                let trace = jobs[j].trace;
                let started =
                    (edm_telemetry::enabled() && trace.is_traced()).then(std::time::Instant::now);
                let result = slice_hist.time(|| {
                    let mut counts = Counts::new(plan.num_clbits());
                    let work = SCRATCH.with(|scratch| {
                        plan.run_into(
                            n,
                            rngstream::fork(jobs[j].seed, s),
                            &mut scratch.borrow_mut(),
                            &mut counts,
                        )
                    });
                    replayed.add(work.replayed_shots);
                    skipped.add(work.skipped_ops);
                    distinct.add(work.distinct_trajectories);
                    Ok(counts)
                });
                if let Some(started) = started {
                    edm_telemetry::trace::record_external(
                        "pool_slice",
                        trace,
                        started.elapsed().as_micros() as u64,
                    );
                }
                result
            })
            .into_iter()
            .map(|r| r.unwrap_or_else(|detail| Err(SimError::ExecutionPanicked { detail })));

        // Merge per job, in slice order; a job's first failing slice wins.
        // A job that failed validation starts (and stays) failed: its
        // circuit may not even fit a histogram.
        let mut out: Vec<Result<Counts, SimError>> = compiled
            .iter()
            .map(|plan| match plan {
                Ok(plan) => Ok(Counts::new(plan.num_clbits())),
                Err(e) => Err(e.clone()),
            })
            .collect();
        for (&(j, _, _), sliced) in items.iter().zip(slice_results) {
            match (&mut out[j], sliced) {
                (Ok(acc), Ok(counts)) => acc.merge_from(&counts),
                (slot @ Ok(_), Err(e)) => *slot = Err(e),
                (Err(_), _) => {}
            }
        }
        out
    }

    /// Runs `shots` trials of one circuit across at most `threads` pool
    /// workers.
    ///
    /// Equivalent to a single-job [`NoisySimulator::run_batch`]: the shot
    /// budget is cut into [`SLICE_SHOTS`]-sized slices with seeds forked
    /// from `seed`, so the histogram is bit-identical for every `threads`
    /// value (including 1). Note this differs from the single-stream
    /// [`NoisySimulator::run`] histogram for the same seed — the sliced
    /// seed schedule is its own deterministic contract.
    ///
    /// # Errors
    ///
    /// Same conditions as [`NoisySimulator::run`]; the first failing
    /// slice's error is returned.
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
    /// use qsim::NoisySimulator;
    ///
    /// let device = DeviceModel::synthesize(presets::melbourne14(), 3);
    /// let sim = NoisySimulator::from_device(&device);
    /// let mut c = Circuit::new(2, 2);
    /// c.h(0);
    /// c.cx(0, 1);
    /// c.measure_all();
    /// let counts = sim.run_parallel(&c, 4096, 7, 4)?;
    /// assert_eq!(counts.shots(), 4096);
    /// // Same shots + seed, different worker count: same histogram.
    /// assert_eq!(counts, sim.run_parallel(&c, 4096, 7, 1)?);
    /// # Ok::<(), qsim::SimError>(())
    /// ```
    pub fn run_parallel(
        &self,
        circuit: &Circuit,
        shots: u64,
        seed: u64,
        threads: usize,
    ) -> Result<Counts, SimError> {
        // Inherit the caller's trace context so slices of a directly-run
        // circuit (e.g. `edm-cli run --profile`) still link up.
        let job =
            BatchJob::new(circuit, shots, seed).traced(edm_telemetry::trace::current_context());
        self.run_batch(&[job], threads)
            .pop()
            .expect("one result per job")
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

    #[test]
    fn parallel_run_has_exact_shot_count() {
        let d = DeviceModel::synthesize(presets::melbourne14(), 5);
        let sim = NoisySimulator::from_device(&d);
        // 2501 shots slice unevenly (1024 + 1024 + 453); nothing may be
        // lost or double-counted.
        let counts = sim.run_parallel(&bell(), 2501, 1, 4).unwrap();
        assert_eq!(counts.shots(), 2501);
    }

    #[test]
    fn results_are_bit_identical_across_worker_counts() {
        let d = DeviceModel::synthesize(presets::melbourne14(), 5);
        let sim = NoisySimulator::from_device(&d);
        let reference = sim.run_parallel(&bell(), 5000, 9, 1).unwrap();
        for threads in [2, 3, 8] {
            let counts = sim.run_parallel(&bell(), 5000, 9, threads).unwrap();
            assert_eq!(counts, reference, "threads = {threads}");
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
        let reference = sim.run_parallel(&c, 5000, 21, 1).unwrap();
        for threads in [2, 8] {
            let counts = sim.run_parallel(&c, 5000, 21, threads).unwrap();
            assert_eq!(counts, reference, "threads = {threads}");
        }
    }

    #[test]
    fn parallel_run_is_deterministic() {
        let d = DeviceModel::synthesize(presets::melbourne14(), 5);
        let sim = NoisySimulator::from_device(&d);
        let a = sim.run_parallel(&bell(), 2000, 9, 4).unwrap();
        let b = sim.run_parallel(&bell(), 2000, 9, 4).unwrap();
        assert_eq!(a, b);
        // Different seeds give different histograms.
        let c = sim.run_parallel(&bell(), 2000, 10, 4).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn parallel_statistics_match_serial() {
        let d = DeviceModel::synthesize(presets::melbourne14(), 5);
        let sim = NoisySimulator::from_device(&d);
        let serial = sim.run(&bell(), 20_000, 3).unwrap();
        let parallel = sim.run_parallel(&bell(), 20_000, 3, 8).unwrap();
        for key in 0..4u64 {
            let a = serial.probability(key);
            let b = parallel.probability(key);
            assert!((a - b).abs() < 0.02, "key {key}: {a} vs {b}");
        }
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
            &sim.run_parallel(&bell, 1500, 11, 1).unwrap()
        );
        assert_eq!(
            batch[1].as_ref().unwrap(),
            &sim.run_parallel(&ghz, 2048, 12, 2).unwrap()
        );
    }

    #[test]
    fn errors_propagate_from_slices() {
        let d = DeviceModel::synthesize(presets::melbourne14(), 5);
        let sim = NoisySimulator::from_device(&d);
        let mut bad = Circuit::new(3, 0);
        bad.ccx(0, 1, 2);
        assert!(sim.run_parallel(&bad, 100, 0, 4).is_err());
        // Zero shots still validate.
        assert!(sim.run_parallel(&bad, 0, 0, 4).is_err());
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
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        let d = DeviceModel::synthesize(presets::melbourne14(), 5);
        let sim = NoisySimulator::from_device(&d);
        let _ = sim.run_parallel(&bell(), 10, 0, 0);
    }
}
