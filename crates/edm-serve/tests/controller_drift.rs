//! Closed-loop controller under injected drift — the acceptance suite
//! for the adaptive-ensemble feedback loop (DESIGN.md §14):
//!
//! - worsening a qubit inside an active member's footprint past the
//!   drift threshold quarantines it, forces a recompile, and the very
//!   next job runs on a pool that avoids the bad qubit — with the
//!   correct answer still on top of the merge,
//! - a member whose backend seed is permanently killed strikes out and
//!   is swapped for the next-ranked spare,
//! - the whole decision sequence is a pure function of the run history:
//!   re-running the scenario, or replaying it through the write-ahead
//!   journal after a crash, reproduces byte-identical results and the
//!   identical swap/reweight/recompile log.

use edm_core::{ControllerConfig, ControllerEvent, RunHealth};
use edm_serve::clock::ManualClock;
use edm_serve::dispatch::ChaosBackend;
use edm_serve::queue::{JobRequest, Priority};
use edm_serve::service::{ControllerDecision, JobService, JobState, ServeConfig};
use qcir::Circuit;
use qdevice::{presets, DeviceModel};
use qsim::NoisySimulator;
use std::sync::Arc;

const DEVICE_SEED: u64 = 11;
const RUN_SEED: u64 = 9;
const SHOTS: u64 = 2048;
const ANSWER: u64 = 0b101;

fn device() -> DeviceModel {
    DeviceModel::synthesize(presets::melbourne14(), DEVICE_SEED)
}

fn bv() -> Circuit {
    qbench::bv::bv(0b101, 3)
}

fn request(seed: u64) -> JobRequest {
    JobRequest {
        circuit: bv(),
        shots: SHOTS,
        seed,
        priority: Priority::Normal,
    }
}

/// One job per batch so run history (and therefore controller state)
/// advances between jobs exactly the way journal replay re-drives it.
fn config() -> ServeConfig {
    ServeConfig {
        threads: 2,
        max_batch_jobs: 1,
        controller: Some(ControllerConfig::default()),
        ..ServeConfig::default()
    }
}

fn service(backend: NoisySimulator) -> JobService<NoisySimulator> {
    let d = device();
    JobService::with_clock(
        d.topology().clone(),
        d.calibration(),
        backend,
        config(),
        Arc::new(ManualClock::new()),
    )
}

fn done(svc: &JobService<impl edm_core::Backend>, id: u64) -> edm_core::EdmResult {
    match svc.poll(id) {
        Some(JobState::Done(done)) => done.result.clone(),
        other => panic!("job {id} should be done, got {other:?}"),
    }
}

/// The full drift scenario, returning everything observable so the
/// determinism test can compare two executions wholesale.
fn drift_scenario() -> (Vec<edm_core::EdmResult>, Vec<ControllerDecision>, u64) {
    let d = device();
    let mut svc = service(NoisySimulator::from_device(&d));

    // Warm the controller with a couple of healthy runs.
    let mut results = Vec::new();
    for round in 0..2 {
        let id = svc.submit(request(RUN_SEED + round)).unwrap();
        assert_eq!(svc.process_all(), 1);
        results.push(done(&svc, id));
    }
    assert_eq!(results[0].wedm.most_probable(), Some(ANSWER));

    // Drift injection: worsen the readout of a qubit every active member
    // can see (index 0 is the top-ranked member's best qubit) far past
    // the 5% drift threshold.
    let bad_qubit = results[0].members[0].member.qubits[0];
    let degraded = svc
        .calibration()
        .clone()
        .with_degraded_readout(bad_qubit, 0.2);
    svc.update_calibration(degraded);
    assert!(
        svc.is_quarantined(),
        "a 20% readout regression must trip the watchdog"
    );

    // The next job recompiles onto a pool that avoids the bad qubit.
    let id = svc.submit(request(RUN_SEED + 2)).unwrap();
    assert_eq!(svc.process_all(), 1);
    let after = done(&svc, id);
    assert_eq!(after.health, RunHealth::Full);
    for run in &after.members {
        assert!(
            !run.member.qubits.contains(&bad_qubit),
            "post-drift pool must avoid quarantined qubit {bad_qubit}"
        );
    }
    assert_eq!(
        after.wedm.most_probable(),
        Some(ANSWER),
        "merged top outcome must survive the drift"
    );
    results.push(after);

    let stats = svc.stats();
    assert!(
        stats.controller_recompiles >= 1,
        "drift must force at least one recompile, stats: {stats:?}"
    );
    (
        results,
        svc.take_controller_events(),
        stats.controller_recompiles,
    )
}

/// Mid-run calibration drift quarantines the footprint, the controller
/// recompiles, and the merge still answers correctly.
#[test]
fn drift_injection_recompiles_and_keeps_the_answer() {
    let (_, decisions, _) = drift_scenario();
    assert!(
        decisions
            .iter()
            .any(|d| matches!(d.event, ControllerEvent::Recompile { .. })),
        "decision log must record the recompile: {decisions:?}"
    );
}

/// The same drift scenario executed twice produces byte-identical
/// results and an identical decision sequence — no wall clock, no RNG.
#[test]
fn drift_decisions_are_deterministic() {
    let first = drift_scenario();
    let second = drift_scenario();
    assert_eq!(first, second);
}

/// A member whose backend seed is permanently dead keeps dragging its
/// health down until it strikes out; the controller swaps in the
/// next-ranked spare and jobs keep completing.
#[test]
fn struck_out_member_is_swapped_for_a_spare() {
    let d = device();
    // Kill plan position 1 of every run seeded RUN_SEED: seeds are
    // forked positionally, so the member in slot 1 fails each run.
    let mut chaos = ChaosBackend::new(NoisySimulator::from_device(&d), 0, 0);
    chaos.kill_seed(qsim::rngstream::fork(RUN_SEED, 1));
    let mut svc = JobService::with_clock(
        d.topology().clone(),
        d.calibration(),
        chaos,
        config(),
        Arc::new(ManualClock::new()),
    );

    let mut swap_seen = false;
    for _ in 0..8 {
        let id = svc.submit(request(RUN_SEED)).unwrap();
        assert_eq!(svc.process_all(), 1);
        let result = done(&svc, id);
        // Every run degrades (slot 1 is dead) but still answers.
        assert!(matches!(result.health, RunHealth::Degraded { .. }));
        assert_eq!(result.wedm.most_probable(), Some(ANSWER));
        swap_seen |= svc.stats().controller_swaps >= 1;
    }
    assert!(swap_seen, "8 failing runs must strike the member out");

    let decisions = svc.take_controller_events();
    let swap = decisions
        .iter()
        .find_map(|d| match &d.event {
            ControllerEvent::Swap {
                slot,
                out_member,
                in_member,
                ..
            } => Some((*slot, *out_member, *in_member)),
            _ => None,
        })
        .expect("decision log must record the swap");
    let (slot, out_member, in_member) = swap;
    assert_eq!(slot, 1, "the dead plan position is the one demoted");
    assert_eq!(out_member, 1);
    assert!(
        in_member >= config().ensemble.size,
        "replacement must come from the spare pool, got {in_member}"
    );
}

/// Crash-safety meets determinism: jobs journaled but unprocessed when
/// the service dies are replayed by a fresh instance, and the recovered
/// run — controller decisions included — is byte-identical to an
/// uninterrupted one.
#[test]
fn journal_replay_reproduces_the_swap_sequence() {
    let dir = std::env::temp_dir().join(format!(
        "edm-controller-drift-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("replay.jsonl");
    let _ = std::fs::remove_file(&path);

    let d = device();
    fn fresh(d: &DeviceModel) -> JobService<ChaosBackend<NoisySimulator<'_>>> {
        let mut chaos = ChaosBackend::new(NoisySimulator::from_device(d), 0, 0);
        chaos.kill_seed(qsim::rngstream::fork(RUN_SEED, 1));
        JobService::with_clock(
            d.topology().clone(),
            d.calibration(),
            chaos,
            config(),
            Arc::new(ManualClock::new()),
        )
    }
    const JOBS: u64 = 8;

    // Reference: uninterrupted, journal-free.
    let mut reference = fresh(&d);
    let ref_ids: Vec<u64> = (0..JOBS)
        .map(|_| reference.submit(request(RUN_SEED)).unwrap())
        .collect();
    assert_eq!(reference.process_all() as u64, JOBS);
    let want: Vec<_> = ref_ids.iter().map(|&id| done(&reference, id)).collect();
    let want_decisions = reference.take_controller_events();
    assert!(
        reference.stats().controller_swaps >= 1,
        "the scenario must contain a swap for the comparison to mean anything"
    );

    // First process: accepts the jobs, crashes before processing any.
    let ids: Vec<u64> = {
        let mut svc = fresh(&d);
        assert!(svc.attach_journal(&path).unwrap().is_empty());
        (0..JOBS)
            .map(|_| svc.submit(request(RUN_SEED)).unwrap())
            .collect()
        // Dropped here: all jobs journaled, none executed.
    };

    // Second process: replays and finishes them.
    let mut svc = fresh(&d);
    assert_eq!(svc.attach_journal(&path).unwrap(), ids);
    assert_eq!(svc.process_all() as u64, JOBS);
    let got: Vec<_> = ids.iter().map(|&id| done(&svc, id)).collect();

    assert_eq!(got, want, "recovered results must be bit-identical");
    assert_eq!(
        svc.take_controller_events(),
        want_decisions,
        "replay must reproduce the identical decision sequence"
    );
    assert_eq!(
        svc.stats().controller_swaps,
        reference.stats().controller_swaps
    );

    let _ = std::fs::remove_file(&path);
}
