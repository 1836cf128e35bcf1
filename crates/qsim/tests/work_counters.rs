//! The shot loop's exact work counters (`edm_qsim_replayed_shots_total`,
//! `edm_qsim_resumed_ops_skipped_total`,
//! `edm_qsim_distinct_trajectories_total`, `edm_qsim_kernel_ops_total`)
//! must not depend on the thread count. The counters are process-wide, so this binary holds exactly one
//! test: no concurrently running test can move them.

use edm_telemetry::metrics::registry;
use qcir::Circuit;
use qdevice::{presets, DeviceModel};
use qsim::parallel::BatchJob;
use qsim::NoisySimulator;

fn counter(name: &'static str) -> u64 {
    registry().counter(name, "").get()
}

const COUNTERS: [&str; 4] = [
    "edm_qsim_replayed_shots_total",
    "edm_qsim_resumed_ops_skipped_total",
    "edm_qsim_distinct_trajectories_total",
    "edm_qsim_kernel_ops_total",
];

/// (replayed shots, skipped ops, distinct trajectories, kernel ops) added
/// by one one-job batch.
fn work_of(sim: &NoisySimulator<'_>, c: &Circuit, shots: u64, threads: usize) -> [u64; 4] {
    let before = COUNTERS.map(counter);
    let job = BatchJob::new(c, shots, 11);
    sim.run_batch(&[job], threads).pop().unwrap().unwrap();
    let after = COUNTERS.map(counter);
    [0, 1, 2, 3].map(|i| after[i] - before[i])
}

#[test]
fn work_counters_are_identical_across_thread_counts() {
    edm_telemetry::set_enabled(true);
    let device = DeviceModel::synthesize(presets::melbourne14(), 42);
    let sim = NoisySimulator::from_device(&device);
    let mut c = Circuit::new(3, 3);
    for i in 0..10 {
        c.h(0).cx(0, 1).rx(1, 0.2 * i as f64).cx(1, 2).t(2);
    }
    c.measure_all();
    let shots = 5000;

    let one = work_of(&sim, &c, shots, 1);
    let four = work_of(&sim, &c, shots, 4);
    assert_eq!(one, four);
    let [replayed, skipped, distinct, kernel_ops] = one;
    assert!(replayed > 0 && replayed <= shots, "replayed {replayed}");
    assert!(skipped > 0, "no shot resumed from a checkpoint");
    assert!(
        distinct > 0 && distinct <= replayed,
        "{distinct} trajectories for {replayed} replayed shots"
    );
    // Each trajectory applies at least one fired Pauli.
    assert!(kernel_ops >= distinct, "{kernel_ops} kernel ops");
}
