//! Closed-loop feedback control over ensemble composition.
//!
//! The compile-time ensemble is a static top-K choice, but the paper's
//! Fig. 8 shows predicted ESP and observed inference strength disagree —
//! and calibration drift means the disagreement grows over a device's
//! cycle. This module closes the loop: after every run it compares each
//! member's *realized* merge contribution (its WEDM weight, plus the
//! footnote-2 uniformity signal) against its *predicted* share of the
//! ensemble ESP, smooths the ratio with an EWMA into a per-slot health
//! score, and acts on persistent disagreement:
//!
//! - **reweight** — the WEDM merge weights are scaled by each slot's
//!   health, shifting shots of trust toward members that outperform their
//!   prediction (the merged weights stay finite, non-negative, and
//!   normalized no matter how degenerate the observations are);
//! - **swap** — a slot whose health stays below the demotion threshold
//!   for `strike_limit` consecutive runs (after a warmup) is replaced by
//!   the next-ranked spare from the already-compiled layout pool; a slot
//!   whose footprint lands in the drift watchdog's [`Quarantine`] is
//!   evicted immediately;
//! - **recompile** — when the calibration generation changes the pool
//!   itself is stale, so the controller resets to the fresh pool and
//!   reports a recompile event.
//!
//! This is the one closed-loop path; `edm-cli run --adaptive-controller`
//! and the job service both drive it the same way: compile the pool with
//! [`ControllerConfig::pool_config`], take each run's members from
//! [`Controller::plan`], and hand the assembled result to
//! [`Controller::feed_back`].
//!
//! Every decision is a pure function of (ordered run history, calibration
//! generation, config): no wall clock, no RNG. Replaying the same run
//! history through a fresh controller reproduces the identical decision
//! sequence, which is what lets journal replay (DESIGN.md §7) stay
//! bit-identical even with the controller enabled.

use crate::dist::ProbDist;
use crate::ensemble::{EdmResult, EnsembleConfig, EnsembleMember, RunHealth};
use crate::filter;
use qdevice::drift::Quarantine;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Division guard: predicted shares below this are treated as "no
/// prediction" rather than amplified into huge observed/predicted ratios.
const EPS: f64 = 1e-12;

/// Minimum L1 distance between realized and adjusted weights for the
/// adjustment to count (and be reported) as a reweight decision.
const REWEIGHT_L1_THRESHOLD: f64 = 1e-9;

/// Tuning knobs for the feedback controller.
///
/// The defaults favor stability over reactivity: two warmup runs before
/// any demotion, three consecutive unhealthy runs ("strikes") before a
/// swap, and an EWMA that weights history 70/30 against the newest run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ControllerConfig {
    /// EWMA smoothing factor in `(0, 1]` for the health score; higher
    /// reacts faster to the newest run (default 0.3).
    pub ewma_alpha: f64,
    /// Health below this marks the run as a strike against the slot
    /// (default 0.6; healthy-as-predicted is 1.0).
    pub demote_threshold: f64,
    /// Consecutive strikes before a slot is swapped for a spare
    /// (default 3). This is the swap hysteresis: one noisy run never
    /// demotes anybody.
    pub strike_limit: u32,
    /// Exponent applied to health when adjusting WEDM merge weights
    /// (default 1.0; 0 disables reweighting without disabling swaps).
    pub reweight_gain: f64,
    /// Runs observed before strikes can trigger a swap (default 2), so
    /// the EWMA has data before the controller starts acting on it.
    pub warmup_runs: u64,
    /// Extra pool members compiled beyond the active ensemble size to
    /// serve as swap targets (default 4).
    pub spares: usize,
    /// Maximum retained decision-log entries; older entries are dropped
    /// first (default 4096).
    pub log_capacity: usize,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        ControllerConfig {
            ewma_alpha: 0.3,
            demote_threshold: 0.6,
            strike_limit: 3,
            reweight_gain: 1.0,
            warmup_runs: 2,
            spares: 4,
            log_capacity: 4096,
        }
    }
}

impl ControllerConfig {
    /// Clamps the numeric knobs into their meaningful ranges so a
    /// hand-edited config cannot produce NaN health scores.
    fn sanitized(self) -> Self {
        ControllerConfig {
            ewma_alpha: if self.ewma_alpha.is_finite() {
                self.ewma_alpha.clamp(0.01, 1.0)
            } else {
                0.3
            },
            demote_threshold: if self.demote_threshold.is_finite() {
                self.demote_threshold.max(0.0)
            } else {
                0.6
            },
            reweight_gain: if self.reweight_gain.is_finite() {
                self.reweight_gain.clamp(0.0, 8.0)
            } else {
                1.0
            },
            ..self
        }
    }

    /// The ensemble config a controlled circuit's layout pool is compiled
    /// with: `ensemble` widened by [`ControllerConfig::spares`] ranked
    /// layouts. The active ensemble stays `ensemble.size` wide; the
    /// surplus is the pool [`Controller::plan`] promotes spares from.
    pub fn pool_config(&self, ensemble: &EnsembleConfig) -> EnsembleConfig {
        EnsembleConfig {
            size: ensemble.size + self.spares,
            ..*ensemble
        }
    }
}

/// What one run revealed about one active slot, in plan order.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MemberObservation {
    /// The member's compile-time ESP (its predicted quality).
    pub esp: f64,
    /// False when the member's output was indistinguishable from uniform
    /// (the footnote-2 RSD signal) — its evidence is discounted.
    pub informative: bool,
    /// The member's realized WEDM merge weight this run (0 when the
    /// uniformity filter dropped it from the merge).
    pub realized_weight: f64,
    /// True when the member failed terminally and contributed nothing.
    pub failed: bool,
}

/// Why a slot was swapped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SwapReason {
    /// Health stayed below the demotion threshold for `strike_limit` runs.
    Underperforming,
    /// The drift watchdog quarantined part of the member's footprint.
    QuarantinedFootprint,
}

/// One controller decision, in the order it was made.
///
/// The sequence of events is part of the determinism contract: two
/// controllers fed the same run history in the same order produce the
/// same event sequence.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ControllerEvent {
    /// WEDM merge weights were adjusted away from the realized weights.
    Reweight {
        /// Run counter when the decision was made (1-based).
        run: u64,
        /// The adjusted, normalized per-slot weights.
        weights: Vec<f64>,
    },
    /// An active slot was re-pointed at a spare pool member.
    Swap {
        /// Run counter when the decision was made.
        run: u64,
        /// The active slot that changed.
        slot: usize,
        /// Pool index of the demoted member.
        out_member: usize,
        /// Pool index of the promoted member.
        in_member: usize,
        /// What triggered the demotion.
        reason: SwapReason,
    },
    /// The layout pool was recompiled under a new calibration generation.
    Recompile {
        /// Run counter when the decision was made.
        run: u64,
        /// The calibration generation the pool was rebuilt against.
        generation: u64,
    },
}

/// The controller's verdict on one run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunAssessment {
    /// Health-adjusted per-slot merge weights: always finite,
    /// non-negative, and summing to 1.
    pub weights: Vec<f64>,
    /// True when `weights` meaningfully differ from the realized weights
    /// (the caller should re-merge WEDM with them).
    pub reweighted: bool,
    /// Decisions made while assessing this run.
    pub events: Vec<ControllerEvent>,
}

/// Online feedback controller over one circuit's compiled layout pool.
///
/// The pool (compiled once per calibration generation, ESP-descending) is
/// owned by the caller; the controller tracks which pool indices are
/// *active* and how healthy each active slot looks. Decisions are pure
/// functions of the observation sequence — see the module docs.
///
/// # Examples
///
/// ```
/// use edm_core::controller::{Controller, ControllerConfig, MemberObservation};
///
/// // 4 active slots over a pool of 6 compiled layouts.
/// let mut ctl = Controller::new(ControllerConfig::default(), 6, 4);
/// assert_eq!(ctl.active(), &[0, 1, 2, 3]);
/// let obs: Vec<MemberObservation> = (0..4)
///     .map(|_| MemberObservation {
///         esp: 0.5,
///         informative: true,
///         realized_weight: 0.25,
///         failed: false,
///     })
///     .collect();
/// let assessment = ctl.observe(&obs);
/// assert!((assessment.weights.iter().sum::<f64>() - 1.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct Controller {
    config: ControllerConfig,
    /// Size of the caller's compiled pool (active + spares).
    pool_len: usize,
    /// Target number of active slots (the ensemble size).
    target_active: usize,
    /// Pool index each active slot currently points at.
    active: Vec<usize>,
    /// EWMA health per active slot (1.0 = performing as predicted).
    health: Vec<f64>,
    /// Consecutive below-threshold runs per active slot.
    strikes: Vec<u32>,
    /// Runs observed since creation or the last rebuild.
    runs: u64,
    swaps: u64,
    reweights: u64,
    recompiles: u64,
    log: Vec<ControllerEvent>,
}

impl Controller {
    /// Creates a controller over a pool of `pool_len` compiled layouts
    /// with `active_len` active slots (clamped to the pool size).
    pub fn new(config: ControllerConfig, pool_len: usize, active_len: usize) -> Self {
        let config = config.sanitized();
        let n = active_len.min(pool_len);
        Controller {
            config,
            pool_len,
            target_active: active_len,
            active: (0..n).collect(),
            health: vec![1.0; n],
            strikes: vec![0; n],
            runs: 0,
            swaps: 0,
            reweights: 0,
            recompiles: 0,
            log: Vec::new(),
        }
    }

    /// Pool indices of the currently active slots, in plan order.
    pub fn active(&self) -> &[usize] {
        &self.active
    }

    /// EWMA health per active slot (aligned with [`Controller::active`]).
    pub fn health(&self) -> &[f64] {
        &self.health
    }

    /// Runs observed since creation or the last rebuild.
    pub fn runs(&self) -> u64 {
        self.runs
    }

    /// Swap decisions since creation.
    pub fn swaps(&self) -> u64 {
        self.swaps
    }

    /// Reweight decisions since creation.
    pub fn reweights(&self) -> u64 {
        self.reweights
    }

    /// Pool recompilations since creation.
    pub fn recompiles(&self) -> u64 {
        self.recompiles
    }

    /// The retained decision log, oldest first (bounded by
    /// [`ControllerConfig::log_capacity`]).
    pub fn log(&self) -> &[ControllerEvent] {
        &self.log
    }

    /// Ingests one run's per-slot observations (in plan order, one per
    /// active slot) and returns health-adjusted merge weights.
    ///
    /// # Panics
    ///
    /// Panics if `observations` does not have one entry per active slot.
    pub fn observe(&mut self, observations: &[MemberObservation]) -> RunAssessment {
        assert_eq!(
            observations.len(),
            self.active.len(),
            "one observation per active slot"
        );
        let _span = edm_telemetry::trace::span("controller_observe");
        self.runs += 1;
        let n = observations.len();
        let mut events = Vec::new();
        if n == 0 {
            return RunAssessment {
                weights: Vec::new(),
                reweighted: false,
                events,
            };
        }

        let sane = |v: f64| if v.is_finite() && v > 0.0 { v } else { 0.0 };
        // Predicted share of the merge, from compile-time ESP.
        let esp: Vec<f64> = observations.iter().map(|o| sane(o.esp)).collect();
        let esp_total: f64 = esp.iter().sum();
        let predicted: Vec<f64> = if esp_total > 0.0 {
            esp.iter().map(|e| e / esp_total).collect()
        } else {
            vec![1.0 / n as f64; n]
        };
        // Observed share, from the realized WEDM weights.
        let realized: Vec<f64> = observations
            .iter()
            .map(|o| {
                if o.failed {
                    0.0
                } else {
                    sane(o.realized_weight)
                }
            })
            .collect();
        let realized_total: f64 = realized.iter().sum();

        if realized_total > 0.0 {
            let alpha = self.config.ewma_alpha;
            let gap_hist = edm_telemetry::histogram!(
                "edm_controller_esp_gap_micro",
                "Per-slot |observed - predicted| merge-share gap, scaled by 1e6"
            );
            for i in 0..n {
                let observed = realized[i] / realized_total;
                let mut ratio = if observations[i].failed {
                    0.0
                } else {
                    (observed / predicted[i].max(EPS)).clamp(0.0, 2.0)
                };
                if !observations[i].informative && !observations[i].failed {
                    // Uniform-looking output: weak evidence either way.
                    ratio *= 0.5;
                }
                self.health[i] = ((1.0 - alpha) * self.health[i] + alpha * ratio).clamp(0.0, 2.0);
                if self.health[i] < self.config.demote_threshold {
                    self.strikes[i] = self.strikes[i].saturating_add(1);
                } else {
                    self.strikes[i] = 0;
                }
                gap_hist.observe(((observed - predicted[i]).abs() * 1e6) as u64);
            }
            if edm_telemetry::enabled() {
                let registry = edm_telemetry::metrics::registry();
                for (slot, h) in self.health.iter().enumerate() {
                    registry
                        .gauge_with(
                            "edm_controller_member_health_micro",
                            "EWMA health of each active ensemble slot, scaled by 1e6",
                            &[("slot", slot_label(slot))],
                        )
                        .set((h * 1e6) as i64);
                }
            }
        }

        // Health-adjusted weights: realized * health^gain, renormalized.
        // Fall back to the realized weights, then uniform, whenever the
        // adjustment degenerates — the output is always a distribution.
        let adjusted_raw: Vec<f64> = realized
            .iter()
            .zip(&self.health)
            .map(|(&w, &h)| sane(w * h.powf(self.config.reweight_gain)))
            .collect();
        let adjusted_total: f64 = adjusted_raw.iter().sum();
        let uniform = vec![1.0 / n as f64; n];
        let (weights, reweighted) = if adjusted_total > 0.0 && adjusted_total.is_finite() {
            let weights: Vec<f64> = adjusted_raw.iter().map(|w| w / adjusted_total).collect();
            let base: Vec<f64> = realized.iter().map(|w| w / realized_total).collect();
            let l1: f64 = weights.iter().zip(&base).map(|(a, b)| (a - b).abs()).sum();
            (weights, l1 > REWEIGHT_L1_THRESHOLD)
        } else if realized_total > 0.0 {
            (realized.iter().map(|w| w / realized_total).collect(), false)
        } else {
            (uniform, false)
        };
        if reweighted {
            self.reweights += 1;
            edm_telemetry::counter!(
                "edm_controller_reweights_total",
                "Runs whose WEDM merge weights the controller adjusted"
            )
            .inc();
            events.push(ControllerEvent::Reweight {
                run: self.runs,
                weights: weights.clone(),
            });
        }
        self.push_log(&events);
        RunAssessment {
            weights,
            reweighted,
            events,
        }
    }

    /// Applies the swap policy: evicts active slots whose footprint is
    /// quarantined, demotes slots that have accumulated `strike_limit`
    /// strikes past the warmup, and promotes the best-ranked viable spare
    /// into each vacated slot. Returns the swap events (also logged).
    ///
    /// `pool_footprints` must hold the sorted physical footprint of every
    /// pool member, in pool order. A slot with no viable replacement is
    /// left alone — the quarantine is advisory, never answer-blocking.
    ///
    /// # Panics
    ///
    /// Panics if `pool_footprints` does not cover the whole pool.
    pub fn maintain(
        &mut self,
        pool_footprints: &[Vec<u32>],
        quarantine: Option<&Quarantine>,
    ) -> Vec<ControllerEvent> {
        assert_eq!(
            pool_footprints.len(),
            self.pool_len,
            "one footprint per pool member"
        );
        let _span = edm_telemetry::trace::span("controller_maintain");
        let allowed =
            |member: usize| quarantine.is_none_or(|q| q.allows_footprint(&pool_footprints[member]));
        let mut events = Vec::new();
        for slot in 0..self.active.len() {
            let member = self.active[slot];
            let quarantined = !allowed(member);
            let struck = self.runs > self.config.warmup_runs
                && self.strikes[slot] >= self.config.strike_limit;
            if !quarantined && !struck {
                continue;
            }
            // Next-best viable spare: pool order is ESP-descending, so the
            // first unused allowed index is the best replacement.
            let replacement = (0..self.pool_len).find(|i| !self.active.contains(i) && allowed(*i));
            let Some(replacement) = replacement else {
                continue;
            };
            let reason = if quarantined {
                SwapReason::QuarantinedFootprint
            } else {
                SwapReason::Underperforming
            };
            self.active[slot] = replacement;
            self.health[slot] = 1.0;
            self.strikes[slot] = 0;
            self.swaps += 1;
            edm_telemetry::counter!(
                "edm_controller_swaps_total",
                "Active ensemble slots swapped for a spare pool member"
            )
            .inc();
            events.push(ControllerEvent::Swap {
                run: self.runs,
                slot,
                out_member: member,
                in_member: replacement,
                reason,
            });
        }
        self.push_log(&events);
        events
    }

    /// The planning step of a controlled run: applies the swap policy
    /// ([`Controller::maintain`]) to `pool` — the circuit's compiled
    /// layouts, ESP-descending — and returns the active members in plan
    /// order together with the swap events.
    ///
    /// # Panics
    ///
    /// Panics if `pool` is not the pool the controller was built (or last
    /// rebuilt) over.
    pub fn plan(
        &mut self,
        pool: &[EnsembleMember],
        quarantine: Option<&Quarantine>,
    ) -> (Vec<EnsembleMember>, Vec<ControllerEvent>) {
        let footprints: Vec<Vec<u32>> = pool.iter().map(|m| m.qubits.clone()).collect();
        let events = self.maintain(&footprints, quarantine);
        let members = self.active.iter().map(|&i| pool[i].clone()).collect();
        (members, events)
    }

    /// The feedback step of a controlled run: observes `result` — assembled
    /// with `ensemble` from the members [`Controller::plan`] returned — one
    /// slot per planned member, and when the controller reweights,
    /// re-merges `result.wedm` under the health-adjusted weights. Returns
    /// the decisions made.
    ///
    /// Failed slots come from [`RunHealth::Degraded`]; survivors fill the
    /// remaining slots in plan order. A survivor counts as informative when
    /// it passes the uniformity test at `ensemble.uniformity_filter` (or the
    /// default threshold). When the planned member count no longer matches
    /// the active slots, the run is not fed back at all rather than
    /// misattributed to the wrong slots.
    pub fn feed_back(
        &mut self,
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
        let planned = result.members.len() + failed.len();
        let mut observations = Vec::with_capacity(planned);
        let mut survivors = result.members.iter().zip(&result.weights);
        for slot in 0..planned {
            if let Some(&esp) = failed.get(&slot) {
                observations.push(MemberObservation {
                    esp,
                    informative: false,
                    realized_weight: 0.0,
                    failed: true,
                });
            } else if let Some((run, &weight)) = survivors.next() {
                observations.push(MemberObservation {
                    esp: run.member.esp,
                    informative: filter::is_informative(&run.dist, threshold),
                    realized_weight: weight,
                    failed: false,
                });
            }
        }
        if observations.len() != self.active.len() {
            return Vec::new();
        }
        let assessment = self.observe(&observations);
        if assessment.reweighted {
            // Failed slots carry no distribution: drop their (zero) weight
            // and renormalize over the survivors actually merged.
            let adjusted: Vec<f64> = (0..planned)
                .filter(|slot| !failed.contains_key(slot))
                .map(|slot| assessment.weights[slot])
                .collect();
            let total: f64 = adjusted.iter().sum();
            if adjusted.len() == result.members.len() && total.is_finite() && total > 0.0 {
                let adjusted: Vec<f64> = adjusted.iter().map(|w| w / total).collect();
                let dists: Vec<ProbDist> = result.members.iter().map(|m| m.dist.clone()).collect();
                result.wedm = ProbDist::merge_weighted(&dists, &adjusted);
                result.weights = adjusted;
            }
        }
        assessment.events
    }

    /// Resets the controller onto a freshly compiled pool (a new
    /// calibration generation): active slots return to the top-ranked
    /// members and all health state is cleared. Returns the recompile
    /// event (also logged).
    pub fn rebuild(&mut self, pool_len: usize, generation: u64) -> ControllerEvent {
        let _span = edm_telemetry::trace::span("controller_rebuild");
        let n = self.target_active.min(pool_len);
        self.pool_len = pool_len;
        self.active = (0..n).collect();
        self.health = vec![1.0; n];
        self.strikes = vec![0; n];
        self.runs = 0;
        self.recompiles += 1;
        edm_telemetry::counter!(
            "edm_controller_recompiles_total",
            "Layout-pool recompilations requested by the controller"
        )
        .inc();
        let event = ControllerEvent::Recompile {
            run: self.runs,
            generation,
        };
        self.push_log(std::slice::from_ref(&event));
        event
    }

    fn push_log(&mut self, events: &[ControllerEvent]) {
        self.log.extend_from_slice(events);
        if self.log.len() > self.config.log_capacity {
            let excess = self.log.len() - self.config.log_capacity;
            self.log.drain(..excess);
        }
    }
}

/// Interned per-slot label values (`m0`, `m1`, …) for the health gauges;
/// one leak per slot per process, same trade as the fleet device labels.
fn slot_label(slot: usize) -> &'static str {
    use std::sync::{Mutex, OnceLock};
    static LABELS: OnceLock<Mutex<Vec<&'static str>>> = OnceLock::new();
    let labels = LABELS.get_or_init(|| Mutex::new(Vec::new()));
    let mut labels = labels.lock().expect("label cache poisoned");
    while labels.len() <= slot {
        let next = labels.len();
        labels.push(Box::leak(format!("m{next}").into_boxed_str()));
    }
    labels[slot]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(esp: f64, weight: f64) -> MemberObservation {
        MemberObservation {
            esp,
            informative: true,
            realized_weight: weight,
            failed: false,
        }
    }

    fn footprints(pool: usize) -> Vec<Vec<u32>> {
        (0..pool as u32).map(|i| vec![2 * i, 2 * i + 1]).collect()
    }

    #[test]
    fn matching_observations_keep_health_at_one() {
        let mut ctl = Controller::new(ControllerConfig::default(), 6, 3);
        // Observed shares exactly match predicted shares.
        let run = [obs(0.6, 0.5), obs(0.36, 0.3), obs(0.24, 0.2)];
        for _ in 0..5 {
            let a = ctl.observe(&run);
            assert!(!a.reweighted, "matching shares need no adjustment");
        }
        for h in ctl.health() {
            assert!((h - 1.0).abs() < 1e-9, "health stayed nominal: {h}");
        }
        assert!(ctl.maintain(&footprints(6), None).is_empty());
    }

    #[test]
    fn underperformer_is_swapped_after_strikes() {
        let config = ControllerConfig::default();
        let mut ctl = Controller::new(config, 6, 3);
        // Slot 2 predicted strong but contributes nothing.
        let run = [obs(0.3, 0.5), obs(0.3, 0.5), obs(0.3, 0.0)];
        let mut swapped_at = None;
        for round in 1..=10u64 {
            let _ = ctl.observe(&run);
            let events = ctl.maintain(&footprints(6), None);
            if !events.is_empty() {
                swapped_at = Some((round, events));
                break;
            }
        }
        let (round, events) = swapped_at.expect("persistent underperformer must be swapped");
        assert!(
            round > u64::from(config.strike_limit).min(config.warmup_runs),
            "swap must wait out warmup and strikes, got round {round}"
        );
        assert_eq!(events.len(), 1);
        match &events[0] {
            ControllerEvent::Swap {
                slot,
                out_member,
                in_member,
                reason,
                ..
            } => {
                assert_eq!(*slot, 2);
                assert_eq!(*out_member, 2);
                assert_eq!(*in_member, 3, "next-ranked spare is promoted");
                assert_eq!(*reason, SwapReason::Underperforming);
            }
            other => panic!("expected a swap, got {other:?}"),
        }
        assert_eq!(ctl.active(), &[0, 1, 3]);
        assert_eq!(ctl.swaps(), 1);
    }

    #[test]
    fn quarantined_footprint_is_evicted_immediately() {
        let mut ctl = Controller::new(ControllerConfig::default(), 5, 3);
        let pool = footprints(5);
        let mut quarantine = Quarantine::new();
        quarantine.add_qubit(2); // member 1 occupies qubits {2, 3}
        let events = ctl.maintain(&pool, Some(&quarantine));
        assert_eq!(events.len(), 1);
        match &events[0] {
            ControllerEvent::Swap {
                out_member,
                in_member,
                reason,
                ..
            } => {
                assert_eq!(*out_member, 1);
                assert_eq!(*in_member, 3);
                assert_eq!(*reason, SwapReason::QuarantinedFootprint);
            }
            other => panic!("expected a quarantine swap, got {other:?}"),
        }
        for &m in ctl.active() {
            assert!(quarantine.allows_footprint(&pool[m]));
        }
    }

    #[test]
    fn no_viable_spare_leaves_the_slot_alone() {
        let mut ctl = Controller::new(ControllerConfig::default(), 3, 3);
        let pool = footprints(3);
        let mut quarantine = Quarantine::new();
        quarantine.add_qubit(0); // member 0 is quarantined, no spares exist
        let events = ctl.maintain(&pool, Some(&quarantine));
        assert!(events.is_empty(), "quarantine is advisory, never blocking");
        assert_eq!(ctl.active(), &[0, 1, 2]);
    }

    #[test]
    fn reweight_shifts_mass_toward_the_overperformer() {
        let mut ctl = Controller::new(ControllerConfig::default(), 4, 2);
        // Slot 1 predicted weak but contributes strongly.
        let run = [obs(0.9, 0.3), obs(0.1, 0.7)];
        let mut last = None;
        for _ in 0..6 {
            last = Some(ctl.observe(&run));
        }
        let a = last.unwrap();
        assert!(a.reweighted);
        assert!(
            a.weights[1] > 0.7,
            "overperformer gains weight: {:?}",
            a.weights
        );
        let total: f64 = a.weights.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert!(ctl.reweights() > 0);
    }

    #[test]
    fn degenerate_observations_still_yield_a_distribution() {
        let mut ctl = Controller::new(ControllerConfig::default(), 4, 3);
        let run = [
            MemberObservation {
                esp: f64::NAN,
                informative: false,
                realized_weight: 0.0,
                failed: true,
            },
            MemberObservation {
                esp: -1.0,
                informative: false,
                realized_weight: f64::INFINITY,
                failed: false,
            },
            MemberObservation {
                esp: 0.0,
                informative: false,
                realized_weight: 0.0,
                failed: false,
            },
        ];
        let a = ctl.observe(&run);
        assert!(a.weights.iter().all(|w| w.is_finite() && *w >= 0.0));
        assert!((a.weights.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn rebuild_resets_onto_the_fresh_pool() {
        let mut ctl = Controller::new(ControllerConfig::default(), 6, 3);
        let run = [obs(0.3, 0.5), obs(0.3, 0.5), obs(0.3, 0.0)];
        for _ in 0..6 {
            let _ = ctl.observe(&run);
            let _ = ctl.maintain(&footprints(6), None);
        }
        assert!(ctl.swaps() > 0);
        let event = ctl.rebuild(6, 7);
        assert_eq!(
            event,
            ControllerEvent::Recompile {
                run: 0,
                generation: 7
            }
        );
        assert_eq!(ctl.active(), &[0, 1, 2]);
        assert_eq!(ctl.runs(), 0);
        assert_eq!(ctl.recompiles(), 1);
        assert!(ctl.health().iter().all(|h| (h - 1.0).abs() < 1e-12));
    }

    #[test]
    fn decision_log_is_bounded() {
        let config = ControllerConfig {
            log_capacity: 4,
            ..ControllerConfig::default()
        };
        let mut ctl = Controller::new(config, 4, 2);
        for _ in 0..20 {
            let _ = ctl.rebuild(4, 1);
        }
        assert_eq!(ctl.log().len(), 4);
    }

    #[test]
    fn identical_histories_produce_identical_decisions() {
        let config = ControllerConfig::default();
        let mut a = Controller::new(config, 6, 3);
        let mut b = Controller::new(config, 6, 3);
        let pool = footprints(6);
        let history = [
            [obs(0.5, 0.6), obs(0.3, 0.4), obs(0.2, 0.0)],
            [obs(0.5, 0.7), obs(0.3, 0.3), obs(0.2, 0.0)],
            [obs(0.5, 0.5), obs(0.3, 0.5), obs(0.2, 0.0)],
            [obs(0.5, 0.6), obs(0.3, 0.4), obs(0.2, 0.0)],
            [obs(0.5, 0.6), obs(0.3, 0.4), obs(0.2, 0.0)],
        ];
        for run in &history {
            let ra = a.observe(run);
            let rb = b.observe(run);
            assert_eq!(ra, rb);
            assert_eq!(a.maintain(&pool, None), b.maintain(&pool, None));
        }
        assert_eq!(a.log(), b.log());
        assert_eq!(a.active(), b.active());
    }
}
