//! Oracle for the controller's planning and feedback steps.
//!
//! `Controller::plan` and `Controller::feed_back` replace two hand-written
//! copies of the same loop (one in `edm-cli run --adaptive-controller`, one
//! in the job service). The service's copy is kept below, verbatim in its
//! float operations, as the reference. Two controllers walk the same
//! multi-run history in lockstep — one through the reference, one through
//! the controller's own steps — and every run must leave bit-identical
//! WEDM merges, weights, health scores and event sequences. The history
//! covers full runs, degraded runs with a failed slot in the middle of the
//! plan, runs where the uniformity filter drops a member, a strike-out
//! swap and a quarantine eviction.

use edm_core::{
    assemble_result, filter, Controller, ControllerConfig, ControllerEvent, EdmResult,
    EnsembleConfig, EnsembleMember, MemberObservation, ProbDist, RunHealth, SwapReason,
};
use qcir::Circuit;
use qdevice::drift::Quarantine;
use qsim::{Counts, SimError};
use std::collections::BTreeMap;

const CLBITS: u32 = 4;
const ANSWER: u64 = 0b1011;
const ACTIVE: usize = 4;

/// An ESP-descending pool of eight layouts with disjoint footprints.
fn pool() -> Vec<EnsembleMember> {
    let mut physical = Circuit::new(CLBITS, CLBITS);
    physical.h(0).cx(0, 1).cx(1, 2).cx(2, 3).measure_all();
    (0..8u32)
        .map(|i| EnsembleMember {
            physical: physical.clone(),
            esp: 0.62 - 0.05 * f64::from(i),
            qubits: (4 * i..4 * i + 4).collect(),
            assignment: (4 * i..4 * i + 4).collect(),
            inverted_measurement: false,
        })
        .collect()
}

/// What one run does to its planned slots.
#[derive(Clone, Copy, Debug)]
enum Case {
    /// Every member returns a peaked histogram.
    Full,
    /// The member in plan slot 1 fails terminally.
    FailedMiddle,
    /// The member in plan slot 2 returns flat (uniform) output.
    Flat,
}

/// A deterministic peaked histogram whose sharpness depends on the pool
/// member and the run, so observed merge shares drift from predicted ESP.
fn peaked(member: usize, run: usize) -> Counts {
    let mut counts = Counts::new(CLBITS);
    let right = 300 + (member as u64 * 137 + run as u64 * 71) % 420;
    counts.record_n(ANSWER, right);
    counts.record_n(0b0011, (1000 - right) / 2);
    counts.record_n(0b1001, (1000 - right) / 3);
    counts.record_n(
        0b1111,
        1000 - right - (1000 - right) / 2 - (1000 - right) / 3,
    );
    counts
}

fn flat() -> Counts {
    let mut counts = Counts::new(CLBITS);
    for outcome in 0..1u64 << CLBITS {
        counts.record_n(outcome, 64);
    }
    counts
}

fn raw_results(
    pool: &[EnsembleMember],
    planned: &[EnsembleMember],
    run: usize,
    case: Case,
) -> Vec<Result<Counts, SimError>> {
    planned
        .iter()
        .enumerate()
        .map(|(slot, member)| {
            let index = pool.iter().position(|m| m == member).expect("pool member");
            match (case, slot) {
                (Case::FailedMiddle, 1) => Err(SimError::UncoupledQubits { a: 0, b: 1 }),
                (Case::Flat, 2) => Ok(flat()),
                _ => Ok(peaked(index, run)),
            }
        })
        .collect()
}

/// The planning step as the service wrote it by hand.
fn reference_plan(
    controller: &mut Controller,
    pool: &[EnsembleMember],
    quarantine: Option<&Quarantine>,
) -> (Vec<EnsembleMember>, Vec<ControllerEvent>) {
    let footprints: Vec<Vec<u32>> = pool.iter().map(|m| m.qubits.clone()).collect();
    let events = controller.maintain(&footprints, quarantine);
    let members = controller
        .active()
        .iter()
        .map(|&i| pool[i].clone())
        .collect();
    (members, events)
}

/// The feedback step as the service wrote it by hand
/// (`JobService::controller_observe`); `planned` is the planned member
/// count.
fn reference_feed_back(
    controller: &mut Controller,
    planned: usize,
    result: &mut EdmResult,
    ensemble: &EnsembleConfig,
) -> Vec<ControllerEvent> {
    let threshold = ensemble
        .uniformity_filter
        .unwrap_or(filter::DEFAULT_RSD_THRESHOLD);
    let failed: BTreeMap<usize, f64> = match &result.health {
        RunHealth::Degraded { failed_members, .. } => failed_members
            .iter()
            .map(|f| (f.index, f.member.esp))
            .collect(),
        RunHealth::Full => BTreeMap::new(),
    };
    let mut observations = Vec::with_capacity(planned);
    let mut survivor = 0usize;
    for slot in 0..planned {
        if let Some(&esp) = failed.get(&slot) {
            observations.push(MemberObservation {
                esp,
                informative: false,
                realized_weight: 0.0,
                failed: true,
            });
        } else if survivor < result.members.len() {
            let run = &result.members[survivor];
            observations.push(MemberObservation {
                esp: run.member.esp,
                informative: filter::is_informative(&run.dist, threshold),
                realized_weight: result.weights.get(survivor).copied().unwrap_or(0.0),
                failed: false,
            });
            survivor += 1;
        }
    }
    if observations.len() != controller.active().len() {
        return Vec::new();
    }
    let assessment = controller.observe(&observations);
    if assessment.reweighted {
        let mut adjusted = Vec::with_capacity(result.members.len());
        for (slot, weight) in assessment.weights.iter().enumerate() {
            if !failed.contains_key(&slot) {
                adjusted.push(*weight);
            }
        }
        let total: f64 = adjusted.iter().sum();
        if adjusted.len() == result.members.len() && total.is_finite() && total > 0.0 {
            for w in &mut adjusted {
                *w /= total;
            }
            let dists: Vec<ProbDist> = result.members.iter().map(|r| r.dist.clone()).collect();
            result.wedm = ProbDist::merge_weighted(&dists, &adjusted);
            result.weights = adjusted;
        }
    }
    assessment.events
}

fn dist_bits(dist: &ProbDist) -> Vec<(u64, u64)> {
    dist.iter().map(|(k, p)| (k, p.to_bits())).collect()
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Walks `history` through a reference controller and a controller using
/// its own steps, asserting bit-identity after every run. Returns the
/// controller and the assembled results for coverage checks.
fn replay(history: &[(Case, EnsembleConfig, Option<Quarantine>)]) -> (Controller, Vec<EdmResult>) {
    let pool = pool();
    let config = ControllerConfig::default();
    let mut reference = Controller::new(config, pool.len(), ACTIVE);
    let mut subject = Controller::new(config, pool.len(), ACTIVE);
    let mut results = Vec::new();
    for (run, (case, ensemble, quarantine)) in history.iter().enumerate() {
        let (want_members, want_swaps) = reference_plan(&mut reference, &pool, quarantine.as_ref());
        let (got_members, got_swaps) = subject.plan(&pool, quarantine.as_ref());
        assert_eq!(got_members, want_members, "run {run}: planned members");
        assert_eq!(got_swaps, want_swaps, "run {run}: swap events");

        let planned = want_members.len();
        let mut want = assemble_result(
            want_members.clone(),
            raw_results(&pool, &want_members, run, *case),
            ensemble,
        )
        .expect("quorum holds");
        let mut got = assemble_result(
            got_members.clone(),
            raw_results(&pool, &got_members, run, *case),
            ensemble,
        )
        .expect("quorum holds");
        let want_events = reference_feed_back(&mut reference, planned, &mut want, ensemble);
        let got_events = subject.feed_back(&mut got, ensemble);

        assert_eq!(got_events, want_events, "run {run} ({case:?}): events");
        assert_eq!(
            dist_bits(&got.wedm),
            dist_bits(&want.wedm),
            "run {run}: wedm"
        );
        assert_eq!(
            bits(&got.weights),
            bits(&want.weights),
            "run {run}: weights"
        );
        assert_eq!(got, want, "run {run}: whole result");
        assert_eq!(
            bits(subject.health()),
            bits(reference.health()),
            "run {run}: health"
        );
        assert_eq!(subject.active(), reference.active(), "run {run}: active");
        results.push(got);
    }
    assert_eq!(subject.log(), reference.log(), "decision logs");
    (subject, results)
}

fn filtering() -> EnsembleConfig {
    EnsembleConfig {
        uniformity_filter: Some(filter::DEFAULT_RSD_THRESHOLD),
        ..EnsembleConfig::default()
    }
}

#[test]
fn full_results_match_the_reference() {
    let history: Vec<_> = (0..6)
        .map(|_| (Case::Full, EnsembleConfig::default(), None))
        .collect();
    let (controller, results) = replay(&history);
    assert!(results.iter().all(|r| !r.is_degraded()));
    assert!(controller.reweights() > 0, "the history must reweight");
}

#[test]
fn degraded_results_with_a_failed_middle_slot_match_the_reference() {
    // Slot 1 fails in every run: it strikes out and is swapped for a
    // spare, after which the spare fails in the same slot.
    let history: Vec<_> = (0..8)
        .map(|_| (Case::FailedMiddle, EnsembleConfig::default(), None))
        .collect();
    let (controller, results) = replay(&history);
    for r in &results {
        match &r.health {
            RunHealth::Degraded { failed_members, .. } => {
                assert_eq!(failed_members.len(), 1);
                assert_eq!(failed_members[0].index, 1);
            }
            RunHealth::Full => panic!("every run loses slot 1"),
        }
    }
    assert!(controller.swaps() > 0, "the failing slot must strike out");
    assert!(controller.reweights() > 0, "the history must reweight");
}

#[test]
fn filtered_results_match_the_reference() {
    let history: Vec<_> = (0..6).map(|_| (Case::Flat, filtering(), None)).collect();
    let (controller, results) = replay(&history);
    for r in &results {
        assert_eq!(r.filtered_out, vec![2], "the flat member is dropped");
        assert_eq!(r.weights[2], 0.0);
    }
    assert!(controller.reweights() > 0, "the history must reweight");
}

#[test]
fn mixed_history_matches_the_reference() {
    let mut quarantine = Quarantine::new();
    quarantine.add_qubit(0); // pool member 0's footprint
    let history = vec![
        (Case::Full, EnsembleConfig::default(), None),
        (Case::Flat, EnsembleConfig::default(), None),
        (Case::FailedMiddle, filtering(), None),
        (Case::Flat, filtering(), None),
        (Case::FailedMiddle, EnsembleConfig::default(), None),
        (Case::FailedMiddle, EnsembleConfig::default(), None),
        (Case::FailedMiddle, filtering(), None),
        (Case::Full, EnsembleConfig::default(), Some(quarantine)),
        (Case::Flat, filtering(), None),
        (Case::Full, EnsembleConfig::default(), None),
    ];
    let (controller, results) = replay(&history);
    assert!(results.iter().any(|r| r.is_degraded()));
    assert!(results.iter().any(|r| !r.filtered_out.is_empty()));
    let swaps: Vec<(usize, SwapReason)> = controller
        .log()
        .iter()
        .filter_map(|e| match e {
            ControllerEvent::Swap {
                out_member, reason, ..
            } => Some((*out_member, *reason)),
            _ => None,
        })
        .collect();
    assert!(
        swaps.contains(&(0, SwapReason::QuarantinedFootprint)),
        "member 0 was evicted: {swaps:?}"
    );
    assert!(
        swaps.iter().any(|s| s.1 == SwapReason::Underperforming),
        "a slot struck out: {swaps:?}"
    );
}
