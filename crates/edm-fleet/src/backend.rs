//! An owning [`Backend`] over a device model.
//!
//! [`NoisySimulator`] borrows its topology and noise
//! parameters, which is perfect for one-shot pipelines but makes a
//! long-lived fleet self-referential: the fleet would own the device and a
//! simulator borrowing it. [`DeviceBackend`] breaks the cycle by owning the
//! [`DeviceModel`] behind an `Arc` and constructing the (two-reference,
//! trivially cheap) simulator inside each call. Delegating to the
//! simulator's pool-based batch engine keeps the
//! bit-identical-for-any-thread-count contract intact.

use edm_core::{Backend, BatchJob};
use qdevice::DeviceModel;
use qsim::counts::Counts;
use qsim::{NoisySimulator, SimError};
use std::sync::Arc;

/// A [`Backend`] that owns its device, cloneable across threads.
#[derive(Debug, Clone)]
pub struct DeviceBackend {
    device: Arc<DeviceModel>,
}

impl DeviceBackend {
    /// Wraps a device model.
    pub fn new(device: Arc<DeviceModel>) -> Self {
        DeviceBackend { device }
    }

    /// The wrapped device.
    pub fn device(&self) -> &DeviceModel {
        &self.device
    }
}

impl Backend for DeviceBackend {
    fn execute_batch(
        &self,
        jobs: &[BatchJob<'_>],
        threads: usize,
    ) -> Vec<Result<Counts, SimError>> {
        NoisySimulator::from_device(&self.device).run_batch(jobs, threads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcir::Circuit;
    use qdevice::presets;

    fn bell() -> Circuit {
        let mut c = Circuit::new(2, 2);
        c.h(0).cx(0, 1).measure_all();
        c
    }

    #[test]
    fn owning_backend_matches_borrowing_simulator() {
        let device = Arc::new(DeviceModel::synthesize(presets::melbourne14(), 5));
        let backend = DeviceBackend::new(Arc::clone(&device));
        let sim = NoisySimulator::from_device(&device);
        let c = bell();
        assert_eq!(
            backend.execute_batch(&[BatchJob::new(&c, 512, 9)], 1)[0],
            sim.run(&c, 512, 9)
        );

        let jobs = [BatchJob::new(&c, 256, 1), BatchJob::new(&c, 256, 2)];
        let owned: Vec<_> = backend
            .execute_batch(&jobs, 2)
            .into_iter()
            .map(Result::unwrap)
            .collect();
        let borrowed: Vec<_> = sim
            .run_batch(&jobs, 1)
            .into_iter()
            .map(Result::unwrap)
            .collect();
        assert_eq!(owned, borrowed, "thread count must not matter");
    }
}
