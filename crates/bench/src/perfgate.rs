//! Performance-regression gate over `BENCH_pipeline.json` documents.
//!
//! `pipeline_profile` measures per-stage mean latency; this module turns
//! two such documents — a committed baseline and a fresh run — into a
//! pass/fail verdict. CI runs the comparison on every PR
//! (the `perf-gate` job) so a kernel regression fails the build instead of
//! landing silently.
//!
//! The comparison is intentionally coarse: only a stage's **mean**
//! microseconds are gated, only when it exceeds a regression `tolerance`
//! ratio (default 1.25×), and only for stages whose baseline mean is above
//! a floor (default 50µs — sub-floor stages are timer noise). A stage
//! present in the baseline but missing from the current run is a failure
//! too: a silently dropped stage must not read as "infinitely faster".
//!
//! Only latency histograms are gated as latencies. `pipeline_profile`
//! digests every telemetry histogram, including value histograms such as
//! `edm_core_member_esp_micro` (ESP ×10⁶); a "slower" value there is a
//! quality change, not a regression. Latency histograms are the ones
//! named in microseconds (`_us`), per the telemetry naming convention.
//!
//! Counters are gated exactly. Every counter the profile records is a
//! deterministic count of work (shots replayed, trajectories run, ops
//! skipped, embeddings scored), the same on any host and at any thread
//! count. A counter that differs from the baseline, or is missing from the
//! current run, means the work itself changed: the baseline must then be
//! regenerated deliberately, with the change that moved it.
//!
//! Gauges are recorded but never gated. The one the profile sees,
//! `edm_qsim_kernel_tier`, says which SIMD tier the shot loop ran at: a
//! fact about the host, which explains its latencies but changes no work.

use serde::{Deserialize, Serialize};

/// Default regression tolerance: a stage may be up to this factor slower
/// than the baseline before the gate fails.
pub const DEFAULT_TOLERANCE: f64 = 1.25;

/// Default floor (µs) under which a baseline stage is too fast to gate.
pub const DEFAULT_MIN_MEAN_US: f64 = 50.0;

/// One stage histogram, digested to the quantiles worth diffing.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StageLatency {
    /// Telemetry histogram name (e.g. `edm_core_execute_us`).
    pub name: String,
    /// Number of recorded observations.
    pub count: u64,
    /// Mean latency in microseconds — the gated quantity.
    pub mean_us: f64,
    /// Median latency in microseconds.
    pub p50_us: u64,
    /// 99th-percentile latency in microseconds.
    pub p99_us: u64,
}

/// One domain counter, carried for context (cache hits, shots, members).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CounterValue {
    /// Telemetry counter name.
    pub name: String,
    /// Final counter value.
    pub value: u64,
}

/// One gauge, recorded for context and never gated.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GaugeValue {
    /// Telemetry gauge name.
    pub name: String,
    /// Final gauge value.
    pub value: i64,
}

/// The whole document `pipeline_profile` writes.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PipelineBench {
    /// Shots per workload run.
    pub shots: u64,
    /// Number of `(workload × seed)` runs profiled.
    pub workload_runs: u64,
    /// Per-stage latency digests.
    pub stages: Vec<StageLatency>,
    /// Domain counters.
    pub counters: Vec<CounterValue>,
    /// Gauges (absent from documents written before gauges were kept).
    #[serde(default)]
    pub gauges: Vec<GaugeValue>,
}

impl PipelineBench {
    /// Parses a document from JSON.
    ///
    /// # Errors
    ///
    /// Returns the `serde_json` error when the document does not match the
    /// schema.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }
}

/// One way a fresh profile fails the gate.
#[derive(Debug, Clone, PartialEq)]
pub enum Regression {
    /// A gated stage got slower than the baseline allows, or vanished.
    Latency {
        /// Stage name.
        name: String,
        /// Baseline mean (µs).
        baseline_mean_us: f64,
        /// Current mean (µs), or `None` when the stage is missing entirely.
        current_mean_us: Option<f64>,
    },
    /// A work counter differs from the baseline, or vanished.
    Counter {
        /// Counter name.
        name: String,
        /// Baseline value.
        baseline: u64,
        /// Current value, or `None` when the counter is missing entirely.
        current: Option<u64>,
    },
}

impl Regression {
    /// The stage or counter name.
    pub fn name(&self) -> &str {
        match self {
            Regression::Latency { name, .. } | Regression::Counter { name, .. } => name,
        }
    }
}

impl std::fmt::Display for Regression {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Regression::Latency {
                name,
                baseline_mean_us,
                current_mean_us: Some(cur),
            } => write!(
                f,
                "{name}: mean {cur:.1}µs vs baseline {baseline_mean_us:.1}µs ({:.2}x)",
                cur / baseline_mean_us
            ),
            Regression::Latency {
                name,
                baseline_mean_us,
                current_mean_us: None,
            } => write!(
                f,
                "{name}: present in baseline (mean {baseline_mean_us:.1}µs) but missing from current run"
            ),
            Regression::Counter {
                name,
                baseline,
                current: Some(cur),
            } => write!(
                f,
                "{name}: counted {cur} vs baseline {baseline} ({:+})",
                *cur as i128 - *baseline as i128
            ),
            Regression::Counter {
                name,
                baseline,
                current: None,
            } => write!(
                f,
                "{name}: present in baseline (value {baseline}) but missing from current run"
            ),
        }
    }
}

/// Compares a fresh profile against a baseline.
///
/// Returns every baseline stage whose current mean exceeds
/// `baseline mean × tolerance`, or which is missing from `current`, then
/// every baseline counter whose current value differs or which is missing
/// from `current`. Baseline stages with a mean below `min_mean_us` are
/// skipped (too fast to measure reliably), as are stages with zero
/// observations and stages that are not latency histograms (name not
/// ending in `_us`). Stages and counters that appear only in `current`
/// are ignored — new instrumentation must not fail the gate until a
/// refreshed baseline covers it.
pub fn compare(
    baseline: &PipelineBench,
    current: &PipelineBench,
    tolerance: f64,
    min_mean_us: f64,
) -> Vec<Regression> {
    let mut regressions = Vec::new();
    for base in baseline.stages.iter().filter(|s| is_gated(s, min_mean_us)) {
        let cur = current.stages.iter().find(|s| s.name == base.name);
        if cur.is_none_or(|cur| cur.mean_us > base.mean_us * tolerance) {
            regressions.push(Regression::Latency {
                name: base.name.clone(),
                baseline_mean_us: base.mean_us,
                current_mean_us: cur.map(|c| c.mean_us),
            });
        }
    }
    for base in &baseline.counters {
        let cur = current.counters.iter().find(|c| c.name == base.name);
        if cur.is_none_or(|cur| cur.value != base.value) {
            regressions.push(Regression::Counter {
                name: base.name.clone(),
                baseline: base.value,
                current: cur.map(|c| c.value),
            });
        }
    }
    regressions
}

/// Whether a baseline stage is gated: observed, above the timer-noise
/// floor, and a latency histogram.
pub fn is_gated(stage: &StageLatency, min_mean_us: f64) -> bool {
    stage.count > 0 && stage.mean_us >= min_mean_us && is_latency(&stage.name)
}

/// Whether a stage histogram records a latency (µs) rather than a value.
fn is_latency(name: &str) -> bool {
    name.ends_with("_us")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stage(name: &str, mean_us: f64) -> StageLatency {
        StageLatency {
            name: name.to_string(),
            count: 100,
            mean_us,
            p50_us: mean_us as u64,
            p99_us: (mean_us * 2.0) as u64,
        }
    }

    fn doc(stages: Vec<StageLatency>) -> PipelineBench {
        PipelineBench {
            shots: 4096,
            workload_runs: 8,
            stages,
            counters: vec![],
            gauges: vec![],
        }
    }

    fn counted(counters: &[(&str, u64)]) -> PipelineBench {
        let mut d = doc(vec![]);
        d.counters = counters
            .iter()
            .map(|&(name, value)| CounterValue {
                name: name.to_string(),
                value,
            })
            .collect();
        d
    }

    fn current_mean_us(r: &Regression) -> Option<f64> {
        match r {
            Regression::Latency {
                current_mean_us, ..
            } => *current_mean_us,
            Regression::Counter { .. } => panic!("expected a latency regression, got {r}"),
        }
    }

    #[test]
    fn identical_profiles_pass() {
        let base = doc(vec![stage("a_us", 1000.0), stage("b_us", 200.0)]);
        assert!(compare(&base, &base.clone(), DEFAULT_TOLERANCE, DEFAULT_MIN_MEAN_US).is_empty());
    }

    #[test]
    fn within_tolerance_passes() {
        let base = doc(vec![stage("a_us", 1000.0)]);
        let current = doc(vec![stage("a_us", 1240.0)]);
        assert!(compare(&base, &current, 1.25, DEFAULT_MIN_MEAN_US).is_empty());
    }

    #[test]
    fn inflated_current_fails() {
        // The acceptance check: feeding the gate a current run slower than
        // tolerance allows must produce a regression verdict.
        let base = doc(vec![stage("a_us", 1000.0), stage("b_us", 400.0)]);
        let current = doc(vec![stage("a_us", 1300.0), stage("b_us", 410.0)]);
        let regs = compare(&base, &current, 1.25, DEFAULT_MIN_MEAN_US);
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].name(), "a_us");
        assert_eq!(current_mean_us(&regs[0]), Some(1300.0));
        assert!(regs[0].to_string().contains("1.30x"), "{}", regs[0]);
    }

    #[test]
    fn missing_stage_fails() {
        let base = doc(vec![stage("a_us", 1000.0)]);
        let current = doc(vec![]);
        let regs = compare(&base, &current, 1.25, DEFAULT_MIN_MEAN_US);
        assert_eq!(regs.len(), 1);
        assert_eq!(current_mean_us(&regs[0]), None);
        assert!(regs[0].to_string().contains("missing"));
    }

    #[test]
    fn new_stage_in_current_is_ignored() {
        let base = doc(vec![stage("a_us", 1000.0)]);
        let current = doc(vec![stage("a_us", 1000.0), stage("new_us", 9999.0)]);
        assert!(compare(&base, &current, 1.25, DEFAULT_MIN_MEAN_US).is_empty());
    }

    #[test]
    fn sub_floor_stages_are_not_gated() {
        let base = doc(vec![stage("tiny_us", 10.0)]);
        let current = doc(vec![stage("tiny_us", 500.0)]);
        // 50x slower, but under the 50µs floor: timer noise, not a verdict.
        assert!(compare(&base, &current, 1.25, DEFAULT_MIN_MEAN_US).is_empty());
        // Lowering the floor exposes it.
        assert_eq!(compare(&base, &current, 1.25, 1.0).len(), 1);
    }

    #[test]
    fn tolerance_is_tunable() {
        let base = doc(vec![stage("a_us", 1000.0)]);
        let current = doc(vec![stage("a_us", 1800.0)]);
        assert_eq!(compare(&base, &current, 1.25, DEFAULT_MIN_MEAN_US).len(), 1);
        assert!(compare(&base, &current, 2.0, DEFAULT_MIN_MEAN_US).is_empty());
    }

    #[test]
    fn zero_count_stages_are_skipped() {
        let mut s = stage("idle_us", 5000.0);
        s.count = 0;
        let base = doc(vec![s]);
        let current = doc(vec![]);
        assert!(compare(&base, &current, 1.25, DEFAULT_MIN_MEAN_US).is_empty());
    }

    #[test]
    fn value_histograms_are_not_gated() {
        // ESP ×10⁶ doubling is a quality gain, not a slowdown; missing
        // value histograms are not failures either.
        let base = doc(vec![stage("edm_core_member_esp_micro", 350_277.0)]);
        let current = doc(vec![stage("edm_core_member_esp_micro", 700_554.0)]);
        assert!(compare(&base, &current, 1.25, DEFAULT_MIN_MEAN_US).is_empty());
        assert!(compare(&base, &doc(vec![]), 1.25, DEFAULT_MIN_MEAN_US).is_empty());
    }

    #[test]
    fn slower_latency_stage_still_fails_next_to_value_stages() {
        let base = doc(vec![
            stage("edm_core_execute_us", 1000.0),
            stage("edm_core_member_top_prob_micro", 167_053.0),
        ]);
        let current = doc(vec![
            stage("edm_core_execute_us", 1300.0),
            stage("edm_core_member_top_prob_micro", 334_106.0),
        ]);
        let regs = compare(&base, &current, 1.25, DEFAULT_MIN_MEAN_US);
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].name(), "edm_core_execute_us");
    }

    #[test]
    fn equal_counters_pass() {
        let base = counted(&[("edm_qsim_replayed_shots_total", 105_275), ("b_total", 0)]);
        assert!(compare(&base, &base.clone(), DEFAULT_TOLERANCE, DEFAULT_MIN_MEAN_US).is_empty());
    }

    #[test]
    fn any_counter_difference_fails_in_either_direction() {
        // Work counters are exact: one shot more or less is a verdict, and
        // no latency tolerance applies to them.
        let base = counted(&[("up_total", 100), ("down_total", 100), ("same_total", 7)]);
        let current = counted(&[("up_total", 101), ("down_total", 60), ("same_total", 7)]);
        let regs = compare(&base, &current, 10.0, DEFAULT_MIN_MEAN_US);
        assert_eq!(
            regs,
            vec![
                Regression::Counter {
                    name: "up_total".into(),
                    baseline: 100,
                    current: Some(101),
                },
                Regression::Counter {
                    name: "down_total".into(),
                    baseline: 100,
                    current: Some(60),
                },
            ]
        );
        assert!(regs[0].to_string().contains("+1"), "{}", regs[0]);
        assert!(regs[1].to_string().contains("-40"), "{}", regs[1]);
    }

    #[test]
    fn missing_counter_fails() {
        let base = counted(&[("edm_qsim_distinct_trajectories_total", 0)]);
        let regs = compare(&base, &counted(&[]), 1.25, DEFAULT_MIN_MEAN_US);
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].name(), "edm_qsim_distinct_trajectories_total");
        assert!(regs[0].to_string().contains("missing"), "{}", regs[0]);
    }

    #[test]
    fn new_counter_in_current_is_ignored() {
        let base = counted(&[("a_total", 5)]);
        let current = counted(&[("a_total", 5), ("new_total", 9)]);
        assert!(compare(&base, &current, 1.25, DEFAULT_MIN_MEAN_US).is_empty());
    }

    #[test]
    fn latency_and_counter_regressions_are_both_reported() {
        let mut base = doc(vec![stage("a_us", 1000.0)]);
        base.counters = counted(&[("a_total", 5)]).counters;
        let mut current = doc(vec![stage("a_us", 2000.0)]);
        current.counters = counted(&[("a_total", 6)]).counters;
        let regs = compare(&base, &current, 1.25, DEFAULT_MIN_MEAN_US);
        let names: Vec<&str> = regs.iter().map(Regression::name).collect();
        assert_eq!(names, ["a_us", "a_total"]);
    }

    #[test]
    fn document_round_trips_through_json() {
        let base = doc(vec![stage("a_us", 123.4)]);
        let json = serde_json::to_string(&base).unwrap();
        let back = PipelineBench::from_json(&json).unwrap();
        assert_eq!(back.stages.len(), 1);
        assert_eq!(back.stages[0].name, "a_us");
        assert!((back.stages[0].mean_us - 123.4).abs() < 1e-9);
        assert_eq!(back.shots, 4096);
    }

    #[test]
    fn gauges_are_recorded_but_not_gated() {
        let tier = |value| GaugeValue {
            name: "edm_qsim_kernel_tier".to_string(),
            value,
        };
        let mut base = counted(&[("a_total", 5)]);
        base.gauges = vec![tier(2)];
        let mut current = base.clone();
        current.gauges = vec![tier(0)];
        assert!(compare(&base, &current, 1.25, DEFAULT_MIN_MEAN_US).is_empty());
        current.gauges.clear();
        assert!(compare(&base, &current, 1.25, DEFAULT_MIN_MEAN_US).is_empty());
        let back = PipelineBench::from_json(&serde_json::to_string(&base).unwrap()).unwrap();
        assert_eq!(back.gauges[0].value, 2);
    }

    #[test]
    fn documents_without_gauges_still_parse() {
        let json = r#"{"shots":4096,"workload_runs":1,"stages":[],"counters":[]}"#;
        assert!(PipelineBench::from_json(json).unwrap().gauges.is_empty());
    }
}
