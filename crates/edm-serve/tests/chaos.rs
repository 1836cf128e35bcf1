//! Fault-injection integration suite (the "chaos" tests).
//!
//! Drives the full service stack — admission, cached compilation,
//! coalesced dispatch, retry, circuit breaker, degraded-mode merge,
//! write-ahead journal — under injected failures:
//!
//! - ~30% of backend attempts fail transiently (retries absorb them),
//! - one ensemble member's seed is killed outright (its retries exhaust
//!   and the run degrades to the surviving quorum),
//! - the service process "crashes" mid-queue and a fresh instance replays
//!   the journal bit-identically.
//!
//! Everything is deterministic: chaos decisions hash `(salt, seed,
//! attempt)`, so a failing case fails every run.

use edm_core::{build_ensemble, plan_run, RunHealth};
use edm_serve::clock::ManualClock;
use edm_serve::dispatch::ChaosBackend;
use edm_serve::queue::{JobRequest, Priority};
use edm_serve::service::{JobService, JobState, ServeConfig};
use qcir::Circuit;
use qdevice::{presets, DeviceModel};
use qmap::Transpiler;
use qsim::NoisySimulator;
use std::sync::Arc;

const DEVICE_SEED: u64 = 11;
const RUN_SEED: u64 = 9;
const SHOTS: u64 = 4096;

fn device() -> DeviceModel {
    DeviceModel::synthesize(presets::melbourne14(), DEVICE_SEED)
}

fn bv() -> Circuit {
    qbench::bv::bv(0b101, 3)
}

fn request(circuit: Circuit, shots: u64, seed: u64) -> JobRequest {
    JobRequest {
        circuit,
        shots,
        seed,
        priority: Priority::Normal,
    }
}

fn config() -> ServeConfig {
    ServeConfig {
        threads: 2,
        ..ServeConfig::default()
    }
}

/// The acceptance scenario: 30% transient chaos plus one permanently dead
/// member. The job must complete Degraded, with the merge renormalized
/// over the survivors and the correct answer still on top.
#[test]
fn chaos_run_degrades_but_answers_correctly() {
    let d = device();
    let cal = d.calibration();
    let cfg = config();

    // Precompute the plan the service will derive, to learn which backend
    // seed belongs to member 1 — that member dies permanently.
    let transpiler = Transpiler::new(d.topology(), &cal);
    let ensemble = build_ensemble(&transpiler, &bv(), &cfg.ensemble).unwrap();
    let planned_members = ensemble.len();
    assert!(planned_members >= 3, "need members to spare");
    let plan = plan_run(ensemble, SHOTS, RUN_SEED, cfg.ensemble.shot_allocation).unwrap();
    let dead_seed = plan.seeds[1];

    let mut chaos = ChaosBackend::new(NoisySimulator::from_device(&d), 30, 0xC0FFEE);
    chaos.kill_seed(dead_seed);
    let mut svc = JobService::with_clock(
        d.topology().clone(),
        cal,
        chaos,
        cfg,
        Arc::new(ManualClock::new()),
    );

    let id = svc.submit(request(bv(), SHOTS, RUN_SEED)).unwrap();
    assert_eq!(svc.process_all(), 1);

    let Some(JobState::Done(done)) = svc.poll(id) else {
        panic!("expected Done, got {:?}", svc.poll(id));
    };
    // Degraded marker with exactly the dead member dropped.
    let RunHealth::Degraded {
        failed_members,
        quorum,
    } = &done.result.health
    else {
        panic!("expected a degraded run, got {:?}", done.result.health);
    };
    assert_eq!(failed_members.len(), 1);
    assert_eq!(failed_members[0].index, 1);
    assert!(failed_members[0].error.is_transient());
    assert_eq!(*quorum, 2);
    assert_eq!(done.result.members.len(), planned_members - 1);

    // The merge is renormalized over the survivors...
    let survivor_dists: Vec<_> = done.result.members.iter().map(|m| m.dist.clone()).collect();
    assert_eq!(
        done.result.edm,
        edm_core::ProbDist::merge_uniform(&survivor_dists)
    );
    let total: f64 = done.result.edm.iter().map(|(_, p)| p).sum();
    assert!((total - 1.0).abs() < 1e-9);
    // ...and the correct answer still wins.
    assert_eq!(done.result.edm.most_probable(), Some(0b101));

    let stats = svc.stats();
    assert_eq!(stats.degraded, 1);
    assert!(stats.retries > 0, "ambient chaos should force retries");
    assert!(stats.retry_exhausted >= 1, "the dead member must exhaust");
}

/// Chaos that only ever fails transiently (no dead member) is fully
/// absorbed by the dispatcher: the result is bit-identical to a
/// chaos-free service run.
#[test]
fn transient_chaos_is_invisible_in_the_result() {
    let d = device();
    let cfg = config();

    let mut clean = JobService::with_clock(
        d.topology().clone(),
        d.calibration(),
        NoisySimulator::from_device(&d),
        cfg.clone(),
        Arc::new(ManualClock::new()),
    );
    let id = clean.submit(request(bv(), SHOTS, RUN_SEED)).unwrap();
    clean.process_all();
    let Some(JobState::Done(reference)) = clean.poll(id) else {
        panic!("clean run failed");
    };

    let chaos = ChaosBackend::new(NoisySimulator::from_device(&d), 30, 0xBEEF);
    let mut noisy = JobService::with_clock(
        d.topology().clone(),
        d.calibration(),
        chaos,
        cfg,
        Arc::new(ManualClock::new()),
    );
    let id = noisy.submit(request(bv(), SHOTS, RUN_SEED)).unwrap();
    noisy.process_all();
    let Some(JobState::Done(done)) = noisy.poll(id) else {
        panic!("chaotic run failed: {:?}", noisy.poll(id));
    };

    assert_eq!(done.result, reference.result);
    assert_eq!(done.result.health, RunHealth::Full);
    assert!(noisy.stats().retries > 0, "chaos must actually have fired");
}

/// Crash-safety: jobs accepted into the journal but unfinished when the
/// process dies are replayed by a fresh instance under their original ids
/// and seeds, and the recovered results are bit-identical to what an
/// uninterrupted run produces.
#[test]
fn journal_replay_is_bit_identical() {
    let dir = std::env::temp_dir().join(format!("edm-chaos-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("replay.jsonl");
    let _ = std::fs::remove_file(&path);
    let d = device();

    // Reference: an uninterrupted, journal-free service.
    let mut reference = JobService::with_clock(
        d.topology().clone(),
        d.calibration(),
        NoisySimulator::from_device(&d),
        config(),
        Arc::new(ManualClock::new()),
    );
    let ref_id = reference.submit(request(bv(), 2048, 21)).unwrap();
    reference.process_all();
    let Some(JobState::Done(want)) = reference.poll(ref_id) else {
        panic!("reference run failed");
    };
    let want = want.clone();

    // First process: accepts two jobs, finishes one, "crashes" (drops)
    // with the second still queued.
    let first_id;
    let crashed_id;
    {
        let mut svc = JobService::with_clock(
            d.topology().clone(),
            d.calibration(),
            NoisySimulator::from_device(&d),
            config(),
            Arc::new(ManualClock::new()),
        );
        assert!(svc.attach_journal(&path).unwrap().is_empty());
        first_id = svc.submit(request(bv(), 1024, 5)).unwrap();
        svc.process_all();
        assert!(matches!(svc.poll(first_id), Some(JobState::Done(_))));
        crashed_id = svc.submit(request(bv(), 2048, 21)).unwrap();
        assert!(matches!(svc.poll(crashed_id), Some(JobState::Queued)));
        // Process dies here with the job accepted but unexecuted.
    }

    // Second process: replays the journal.
    let mut svc = JobService::with_clock(
        d.topology().clone(),
        d.calibration(),
        NoisySimulator::from_device(&d),
        config(),
        Arc::new(ManualClock::new()),
    );
    let recovered = svc.attach_journal(&path).unwrap();
    assert_eq!(
        recovered,
        vec![crashed_id],
        "only the unfinished job replays"
    );
    assert_eq!(svc.stats().recovered, 1);
    // The finished job does not reappear...
    assert!(svc.poll(first_id).is_none());
    // ...the crashed one is queued under its original id.
    assert!(matches!(svc.poll(crashed_id), Some(JobState::Queued)));

    svc.process_all();
    let Some(JobState::Done(got)) = svc.poll(crashed_id) else {
        panic!("recovered job failed: {:?}", svc.poll(crashed_id));
    };
    assert_eq!(got.result, want.result, "recovery must be bit-identical");

    // New submissions continue past every journaled id.
    let next = svc.submit(request(bv(), 64, 1)).unwrap();
    assert!(next > crashed_id);

    std::fs::remove_file(&path).unwrap();
}

/// Recovery composes with chaos: the replayed job sees the same injected
/// faults (same salt) and still lands the identical result.
#[test]
fn journal_replay_survives_chaos() {
    let dir = std::env::temp_dir().join(format!("edm-chaos-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("replay-chaos.jsonl");
    let _ = std::fs::remove_file(&path);
    let d = device();

    let mut reference = JobService::with_clock(
        d.topology().clone(),
        d.calibration(),
        NoisySimulator::from_device(&d),
        config(),
        Arc::new(ManualClock::new()),
    );
    let ref_id = reference.submit(request(bv(), 2048, 33)).unwrap();
    reference.process_all();
    let Some(JobState::Done(want)) = reference.poll(ref_id) else {
        panic!("reference run failed");
    };
    let want = want.clone();

    let id;
    {
        let mut svc = JobService::with_clock(
            d.topology().clone(),
            d.calibration(),
            ChaosBackend::new(NoisySimulator::from_device(&d), 30, 0xABAD1DEA),
            config(),
            Arc::new(ManualClock::new()),
        );
        svc.attach_journal(&path).unwrap();
        id = svc.submit(request(bv(), 2048, 33)).unwrap();
        // Crash before processing.
    }

    let mut svc = JobService::with_clock(
        d.topology().clone(),
        d.calibration(),
        ChaosBackend::new(NoisySimulator::from_device(&d), 30, 0xABAD1DEA),
        config(),
        Arc::new(ManualClock::new()),
    );
    assert_eq!(svc.attach_journal(&path).unwrap(), vec![id]);
    svc.process_all();
    let Some(JobState::Done(got)) = svc.poll(id) else {
        panic!("recovered chaotic job failed: {:?}", svc.poll(id));
    };
    assert_eq!(got.result, want.result);

    std::fs::remove_file(&path).unwrap();
}
