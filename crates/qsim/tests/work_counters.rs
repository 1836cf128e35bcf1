//! The shot loop's exact work counters (`edm_qsim_plans_compiled_total`,
//! `edm_qsim_replayed_shots_total`, `edm_qsim_resumed_ops_skipped_total`,
//! `edm_qsim_distinct_trajectories_total`, `edm_qsim_kernel_ops_total`)
//! must not depend on the thread count. The counters are process-wide, so
//! this binary holds exactly one test: no concurrently running test can
//! move them.

use edm_telemetry::metrics::registry;
use qcir::Circuit;
use qdevice::{presets, DeviceModel};
use qsim::parallel::BatchJob;
use qsim::NoisySimulator;

fn counter(name: &'static str) -> u64 {
    registry().counter(name, "").get()
}

const COUNTERS: [&str; 5] = [
    "edm_qsim_plans_compiled_total",
    "edm_qsim_replayed_shots_total",
    "edm_qsim_resumed_ops_skipped_total",
    "edm_qsim_distinct_trajectories_total",
    "edm_qsim_kernel_ops_total",
];

/// (plans compiled, replayed shots, skipped ops, distinct trajectories,
/// kernel ops) added by one batch.
fn work_of(sim: &NoisySimulator<'_>, jobs: &[BatchJob<'_>], threads: usize) -> [u64; 5] {
    let before = COUNTERS.map(counter);
    for result in sim.run_batch(jobs, threads) {
        result.unwrap();
    }
    let after = COUNTERS.map(counter);
    [0, 1, 2, 3, 4].map(|i| after[i] - before[i])
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
    let twin = c.clone();
    let shots = 5000;

    let alone = [BatchJob::new(&c, shots, 11)];
    let one = work_of(&sim, &alone, 1);
    let four = work_of(&sim, &alone, 4);
    assert_eq!(one, four);
    let [plans, replayed, skipped, distinct, kernel_ops] = one;
    assert_eq!(plans, 1);
    assert!(replayed > 0 && replayed <= shots, "replayed {replayed}");
    assert!(skipped > 0, "no shot resumed from a checkpoint");
    assert!(
        distinct > 0 && distinct <= replayed,
        "{distinct} trajectories for {replayed} replayed shots"
    );
    // Each trajectory applies at least one fired Pauli.
    assert!(kernel_ops >= distinct, "{kernel_ops} kernel ops");

    // Two multi-slice jobs of one circuit (the second an equal copy):
    // one plan, and their slices replay together.
    let pair = [BatchJob::new(&c, shots, 11), BatchJob::new(&twin, 3000, 12)];
    let one = work_of(&sim, &pair, 1);
    let four = work_of(&sim, &pair, 4);
    assert_eq!(one, four);
    let second = work_of(&sim, &[BatchJob::new(&twin, 3000, 12)], 1);
    assert_eq!(one[0], 1, "one plan for two equal circuits");
    // Per-shot counts add up; trajectories are shared across the jobs.
    assert_eq!(one[1], replayed + second[1]);
    assert_eq!(one[2], skipped + second[2]);
    assert!(one[3] < distinct + second[3], "no set shared across jobs");
    assert!(one[4] < kernel_ops + second[4]);
}
