//! Execution backend abstraction.
//!
//! EDM is backend-agnostic: it needs only "run these physical circuits for
//! N trials each". [`Backend`] is implemented for the noisy simulator; a
//! real cloud device could implement it as well.
//!
//! The trait has one method, [`Backend::execute_batch`]: a batch of
//! independent jobs that the backend may fan out in parallel. One circuit
//! is a one-job batch. So a backend with real parallelism (like the noisy
//! simulator's worker-pool engine) accelerates every EDM mode without the
//! ensemble layer knowing how. On the simulator backend each job's circuit
//! is compiled once (gate fusion + noise lookup tables, see
//! `qsim::CompiledCircuit`) and every shot slice executes against the
//! shared plan with per-worker reusable buffers — the ensemble pays the
//! per-mapping compile cost K times per batch, not K × slices times.

use qsim::{Counts, NoisySimulator, SimError};

pub use qsim::parallel::BatchJob;

/// Something that can execute physical circuits for a number of shots.
///
/// Object-safe: `&dyn Backend` works.
pub trait Backend {
    /// Runs a batch of independent jobs, returning one result per job in
    /// job order. `threads` caps the parallelism a backend may use.
    ///
    /// Determinism contract: for a fixed job list the results must be
    /// bit-identical for every `threads` value, and a job's result must
    /// not depend on the other jobs in its batch. An implementation may
    /// use any per-job seed schedule (the simulator slices each job's
    /// budget and forks per-slice seed streams), as long as the schedule
    /// depends only on the job itself — never on `threads` or scheduling.
    ///
    /// A failing job reports its own [`SimError`] (wrong basis, uncoupled
    /// CX, invalid measurement structure, a transient backend fault, or
    /// [`SimError::ExecutionPanicked`] for a contained panic) without
    /// disturbing the rest of the batch.
    fn execute_batch(&self, jobs: &[BatchJob<'_>], threads: usize)
        -> Vec<Result<Counts, SimError>>;
}

impl Backend for NoisySimulator<'_> {
    fn execute_batch(
        &self,
        jobs: &[BatchJob<'_>],
        threads: usize,
    ) -> Vec<Result<Counts, SimError>> {
        self.run_batch(jobs, threads)
    }
}

impl<B: Backend + ?Sized> Backend for &B {
    fn execute_batch(
        &self,
        jobs: &[BatchJob<'_>],
        threads: usize,
    ) -> Vec<Result<Counts, SimError>> {
        (**self).execute_batch(jobs, threads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcir::Circuit;
    use qdevice::{presets, DeviceModel};

    #[test]
    fn simulator_implements_backend() {
        let device = DeviceModel::synthesize(presets::melbourne14(), 1);
        let sim = NoisySimulator::from_device(&device);
        let mut c = Circuit::new(2, 2);
        c.h(0).cx(0, 1).measure_all();
        let job = [BatchJob::new(&c, 128, 0)];
        let counts = Backend::execute_batch(&sim, &job, 1)
            .pop()
            .unwrap()
            .unwrap();
        assert_eq!(counts.shots(), 128);
        // One circuit is a one-job batch: the same histogram as `run`.
        assert_eq!(counts, sim.run(&c, 128, 0).unwrap());
    }

    #[test]
    fn batch_path_is_thread_count_invariant() {
        let device = DeviceModel::synthesize(presets::melbourne14(), 1);
        let sim = NoisySimulator::from_device(&device);
        let mut c = Circuit::new(2, 2);
        c.h(0).cx(0, 1).measure_all();
        let jobs = [BatchJob::new(&c, 1500, 3), BatchJob::new(&c, 2048, 4)];
        let one = sim.execute_batch(&jobs, 1);
        let eight = sim.execute_batch(&jobs, 8);
        assert_eq!(one[0].as_ref().unwrap(), eight[0].as_ref().unwrap());
        assert_eq!(one[1].as_ref().unwrap(), eight[1].as_ref().unwrap());
        // The blanket &B impl forwards: &sim must agree with sim. Call
        // through the trait with Self = &NoisySimulator so the blanket
        // impl is actually exercised.
        let forwarded = Backend::execute_batch(&&sim, &jobs, 8);
        assert_eq!(one[0].as_ref().unwrap(), forwarded[0].as_ref().unwrap());
        // And the trait stays object-safe.
        let dyn_backend: &dyn Backend = &sim;
        let via_dyn = dyn_backend.execute_batch(&jobs, 2);
        assert_eq!(one[1].as_ref().unwrap(), via_dyn[1].as_ref().unwrap());
    }
}
