//! The job service: admission, cached compilation, coalesced dispatch.
//!
//! [`JobService`] owns the device description (topology + calibration), the
//! compilation cache, the admission queue, and a retry-aware dispatcher
//! around the execution backend. `submit` only validates and enqueues;
//! `process_pending` drains a priority-ordered batch, compiles each circuit
//! through the cache, and coalesces every member job of every drained
//! request into ONE `execute_batch` call — legal because batch execution is
//! bit-identical to running each job alone (see
//! [`Backend::execute_batch`]).

use crate::cache::{CacheKey, CompileCache};
use crate::clock::{Clock, SystemClock};
use crate::dispatch::{BreakerConfig, CircuitBreaker, Dispatcher, RetryPolicy};
use crate::journal::{self, Journal, JournalEntry, JournalError};
use crate::queue::{AdmissionQueue, AdmitError, JobRequest, QueuedJob};
use crate::stats::{LatencyRecorder, ServiceStats};
use crate::validate;
use edm_core::{
    assemble_result, build_ensemble, plan_run, Backend, BatchJob, Controller, ControllerConfig,
    ControllerEvent, EdmResult, EnsembleConfig, EnsembleMember, QualityConfig, QualityEstimator,
    QualitySnapshot, RunPlan,
};
use edm_telemetry::trace::TraceContext;
use qdevice::drift::{DriftPolicy, DriftWatchdog};
use qdevice::{Calibration, Topology};
use qmap::Transpiler;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Knobs for a [`JobService`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bound on waiting jobs before submissions are rejected.
    pub queue_capacity: usize,
    /// Bound on live compilation-cache entries.
    pub cache_capacity: usize,
    /// Most requests drained (and coalesced) per `process_pending` call.
    pub max_batch_jobs: usize,
    /// Execution thread cap (bit-identical for any value).
    pub threads: usize,
    /// Ensemble construction parameters, shared by every job.
    pub ensemble: EnsembleConfig,
    /// Retry behavior of the dispatcher.
    pub retry: RetryPolicy,
    /// Circuit-breaker tuning for the backend wrapper.
    pub breaker: BreakerConfig,
    /// Calibration-drift thresholds for the quarantine watchdog.
    pub drift: DriftPolicy,
    /// Closed-loop feedback controller over ensemble composition; `None`
    /// (the default) keeps the classic static top-K behavior. When set,
    /// each circuit's pool is compiled `spares` members larger and the
    /// controller reweights/swaps/recompiles between runs (DESIGN.md §14).
    pub controller: Option<ControllerConfig>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            queue_capacity: 256,
            cache_capacity: 64,
            max_batch_jobs: 32,
            threads: qsim::pool::default_threads(),
            ensemble: EnsembleConfig::default(),
            retry: RetryPolicy::default(),
            breaker: BreakerConfig::default(),
            drift: DriftPolicy::default(),
            controller: None,
        }
    }
}

/// One controller decision with the circuit it was made for, in the order
/// decisions were made. The `edm-serve --controller-log` flag streams
/// these to disk as JSON lines; tests compare whole sequences to prove
/// replay determinism.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ControllerDecision {
    /// Fingerprint of the circuit whose ensemble the decision concerns.
    pub circuit: u64,
    /// The decision itself.
    pub event: ControllerEvent,
}

/// Per-circuit controller state: the controller plus the calibration
/// generation its pool was compiled under (a mismatch means the pool went
/// stale and the controller must rebuild onto the fresh one).
struct ControllerEntry {
    controller: Controller,
    generation: u64,
}

/// Where a submitted job currently is.
#[derive(Debug, Clone, PartialEq)]
pub enum JobState {
    /// Admitted, waiting for a `process_pending` pass.
    Queued,
    /// Finished with a result.
    Done(CompletedJob),
    /// Finished with a terminal error.
    Failed(String),
}

/// Everything the service keeps about one job id.
struct JobRecord {
    state: JobState,
    /// The job's correlation id, fixed for its whole service life, plus
    /// the client parent span its server-side spans link under (0 when the
    /// client sent none or the job was replayed from the journal — the
    /// client span is gone, which only flattens the replayed trace).
    trace: TraceContext,
}

/// A finished job's result and its accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct CompletedJob {
    /// The full EDM result — bit-identical to a direct
    /// [`EdmRunner::run`](edm_core::EdmRunner::run) with the same inputs.
    pub result: EdmResult,
    /// Submit-to-finish latency on the service clock, milliseconds.
    pub latency_ms: u64,
}

/// A long-running EDM job service over one device.
///
/// Generic over the execution [`Backend`]; the service wraps it in a
/// [`Dispatcher`] so transient failures are retried transparently.
pub struct JobService<B> {
    topology: Topology,
    topology_fp: u64,
    calibration: Calibration,
    dispatcher: CircuitBreaker<Dispatcher<B>>,
    watchdog: DriftWatchdog,
    journal: Option<Journal>,
    cache: CompileCache,
    queue: AdmissionQueue,
    jobs: BTreeMap<u64, JobRecord>,
    /// Live answer-quality estimate for this device: EWMA of observed
    /// top-outcome share vs the ESP the planner predicted, per job.
    quality: QualityEstimator,
    /// The next job id. A fleet shares one counter across its devices
    /// ([`JobService::with_ids`]), so an id names one job fleet-wide.
    ids: Arc<AtomicU64>,
    clock: Arc<dyn Clock>,
    latency: LatencyRecorder,
    config: ServeConfig,
    submitted: u64,
    completed: u64,
    failed: u64,
    rejected: u64,
    batches: u64,
    compilations: u64,
    degraded: u64,
    recovered: u64,
    journal_appends: u64,
    /// Per-circuit feedback controllers (empty unless
    /// [`ServeConfig::controller`] is set), keyed by circuit fingerprint.
    controllers: BTreeMap<u64, ControllerEntry>,
    /// Decisions not yet drained by [`JobService::take_controller_events`],
    /// oldest first, bounded to avoid unbounded growth in embedded users.
    controller_events: Vec<ControllerDecision>,
    controller_swaps: u64,
    controller_reweights: u64,
    controller_recompiles: u64,
}

impl<B: Backend> JobService<B> {
    /// Creates a service over `topology` + `calibration`, executing on
    /// `backend`, with the real system clock.
    ///
    /// # Panics
    ///
    /// Panics if the calibration does not cover the topology, or if
    /// `config` has a zero queue, cache, batch, or thread bound.
    pub fn new(
        topology: Topology,
        calibration: Calibration,
        backend: B,
        config: ServeConfig,
    ) -> Self {
        JobService::with_clock(
            topology,
            calibration,
            backend,
            config,
            Arc::new(SystemClock::new()),
        )
    }

    /// Same as [`JobService::new`] with an explicit clock (tests pass
    /// [`ManualClock`](crate::clock::ManualClock)).
    ///
    /// # Panics
    ///
    /// Same conditions as [`JobService::new`].
    pub fn with_clock(
        topology: Topology,
        calibration: Calibration,
        backend: B,
        config: ServeConfig,
        clock: Arc<dyn Clock>,
    ) -> Self {
        assert_eq!(
            topology.num_qubits(),
            calibration.num_qubits(),
            "calibration must cover the topology"
        );
        assert!(config.max_batch_jobs > 0, "batch bound must be positive");
        assert!(config.threads > 0, "need at least one thread");
        let topology_fp = topology.fingerprint();
        // Breaker outside dispatcher: when the backend is declared dead,
        // calls skip the whole backoff schedule instead of sleeping
        // through it.
        let dispatcher = CircuitBreaker::with_clock(
            Dispatcher::with_clock(backend, config.retry, Arc::clone(&clock)),
            config.breaker,
            Arc::clone(&clock),
        );
        // Seed the watchdog's baseline so the next update_calibration is
        // compared against what we're compiling with right now.
        let mut watchdog = DriftWatchdog::new(config.drift);
        watchdog.observe(&calibration);
        JobService {
            topology,
            topology_fp,
            calibration,
            dispatcher,
            watchdog,
            journal: None,
            cache: CompileCache::new(config.cache_capacity),
            queue: AdmissionQueue::new(config.queue_capacity),
            jobs: BTreeMap::new(),
            quality: QualityEstimator::new(QualityConfig::default()),
            ids: Arc::new(AtomicU64::new(1)),
            clock,
            latency: LatencyRecorder::default(),
            config,
            submitted: 0,
            completed: 0,
            failed: 0,
            rejected: 0,
            batches: 0,
            compilations: 0,
            degraded: 0,
            recovered: 0,
            journal_appends: 0,
            controllers: BTreeMap::new(),
            controller_events: Vec::new(),
            controller_swaps: 0,
            controller_reweights: 0,
            controller_recompiles: 0,
        }
    }

    /// Draws job ids from `ids` instead of this service's own counter.
    /// A fleet hands every device the same counter, so ids are unique
    /// across devices and a client polls one id from admission to replay.
    /// Call before attaching a journal or submitting.
    pub fn with_ids(mut self, ids: Arc<AtomicU64>) -> Self {
        self.ids = ids;
        self
    }

    /// Attaches a write-ahead journal at `path`, replaying any entries a
    /// previous process left behind. Jobs that were accepted but never
    /// finished are re-enqueued under their original ids and seeds — their
    /// recovered results are bit-identical to what the interrupted run
    /// would have produced. The id counter moves past every id the journal
    /// ever issued. Returns the ids the journal left open, including any
    /// that recovery had to fail because the queue overflowed.
    ///
    /// # Errors
    ///
    /// [`JournalError`] when the file cannot be opened or a non-final line
    /// is corrupt (a data error — the service refuses to silently drop
    /// journaled jobs).
    pub fn attach_journal(&mut self, path: impl AsRef<Path>) -> Result<Vec<u64>, JournalError> {
        let (journal, entries) = Journal::open(path)?;
        let (open, max_id) = journal::outstanding(&entries);
        let ids = open.iter().map(|job| job.id).collect();
        for recovered_job in open {
            let id = recovered_job.id;
            // The original correlation id, not a fresh one: the replayed
            // job's responses and spans stay correlatable with whatever the
            // crashed process logged about it.
            let trace = TraceContext {
                trace_id: recovered_job.trace_id,
                parent_span: 0,
            };
            self.jobs.insert(
                id,
                JobRecord {
                    state: JobState::Queued,
                    trace,
                },
            );
            let job = QueuedJob {
                id,
                request: recovered_job.request,
                enqueued_at_ms: self.clock.now_ms(),
            };
            match self.queue.push(job) {
                Ok(()) => {
                    self.submitted += 1;
                    self.recovered += 1;
                    edm_telemetry::counter!(
                        "edm_serve_recovered_total",
                        "Jobs re-enqueued from the journal after a restart"
                    )
                    .inc();
                }
                // A recovered backlog larger than the queue: the overflow
                // fails visibly rather than vanishing.
                Err(e) => self.fail(id, format!("recovery dropped the job: {e}")),
            }
        }
        self.ids.fetch_max(max_id + 1, Ordering::SeqCst);
        self.journal = Some(journal);
        Ok(ids)
    }

    /// Validates and enqueues a job, returning its id.
    ///
    /// Admission never runs the pipeline — a bad circuit is only discovered
    /// (and reported via [`JobState::Failed`]) when its batch runs.
    ///
    /// # Errors
    ///
    /// [`AdmitError::Invalid`] for a zero shot budget,
    /// [`AdmitError::QueueFull`] under backpressure. Rejected jobs get no
    /// id and leave no trace beyond the `rejected` counter.
    pub fn submit(&mut self, request: JobRequest) -> Result<u64, AdmitError> {
        self.submit_with_context(request, TraceContext::default())
    }

    /// [`JobService::submit`] with an explicit trace context: when the
    /// client already opened a trace (`ctx.trace_id != 0`), the job adopts
    /// it — every server-side span, journal entry, and pool slice carries
    /// the client's id, and spans parent under `ctx.parent_span` — so one
    /// trace covers the whole cross-process request. A zero context is
    /// exactly [`JobService::submit`]: the service mints a fresh id.
    ///
    /// # Errors
    ///
    /// Same conditions as [`JobService::submit`].
    pub fn submit_with_context(
        &mut self,
        request: JobRequest,
        ctx: TraceContext,
    ) -> Result<u64, AdmitError> {
        if let Err(e) = validate::shots(request.shots) {
            self.reject();
            return Err(AdmitError::Invalid(e.to_string()));
        }
        // Backpressure is checked before journaling so a rejected job
        // never leaves an orphan `Accepted` entry behind.
        if self.queue.len() >= self.config.queue_capacity {
            self.reject();
            return Err(AdmitError::QueueFull {
                capacity: self.config.queue_capacity,
            });
        }
        let id = self.ids.fetch_add(1, Ordering::SeqCst);
        let trace_id = if ctx.trace_id != 0 {
            ctx.trace_id
        } else {
            edm_telemetry::trace::next_trace_id()
        };
        let _trace = edm_telemetry::trace::with_context(TraceContext {
            trace_id,
            parent_span: ctx.parent_span,
        });
        let _span = edm_telemetry::trace::span("serve_admit");
        // Write-ahead: the journal entry lands on disk before the job is
        // acknowledged, so an accepted job survives a crash. A job we
        // cannot journal is refused — accepting it silently would break
        // the recovery contract — and its id is left unused.
        if let Some(journal) = &mut self.journal {
            let entry = JournalEntry::Accepted {
                id,
                trace_id,
                circuit: request.circuit.clone(),
                shots: request.shots,
                seed: request.seed,
                priority: request.priority,
            };
            if let Err(e) = journal.append(&entry) {
                self.reject();
                return Err(AdmitError::Journal(e.to_string()));
            }
            self.count_journal_append();
        }
        let job = QueuedJob {
            id,
            request,
            enqueued_at_ms: self.clock.now_ms(),
        };
        self.queue
            .push(job)
            .expect("capacity was checked before journaling");
        self.submitted += 1;
        edm_telemetry::counter!("edm_serve_submitted_total", "Jobs admitted to the queue").inc();
        self.jobs.insert(
            id,
            JobRecord {
                state: JobState::Queued,
                trace: TraceContext {
                    trace_id,
                    parent_span: ctx.parent_span,
                },
            },
        );
        Ok(id)
    }

    /// The correlation id assigned to `id` at submission (or recovered from
    /// the journal), if the id was ever issued.
    pub fn trace_id(&self, id: u64) -> Option<u64> {
        self.jobs.get(&id).map(|record| record.trace.trace_id)
    }

    /// The trace context every span of job `id` links into.
    fn job_context(&self, id: u64) -> TraceContext {
        self.jobs
            .get(&id)
            .map(|record| record.trace)
            .unwrap_or_default()
    }

    fn reject(&mut self) {
        self.rejected += 1;
        edm_telemetry::counter!(
            "edm_serve_rejected_total",
            "Submissions refused at admission (validation or backpressure)"
        )
        .inc();
    }

    /// Drains up to `max_batch_jobs` queued requests, compiles each through
    /// the cache, and executes ALL their member jobs as one coalesced
    /// `execute_batch` dispatch. Returns how many requests finished (in
    /// either state).
    pub fn process_pending(&mut self) -> usize {
        let drained = self.queue.drain_batch(self.config.max_batch_jobs);
        if drained.is_empty() {
            return 0;
        }
        let processed = drained.len();

        // Phase 1: compile (through the cache) and plan each request.
        // Failures are terminal for that request only.
        let mut plans: Vec<(u64, u64, RunPlan, Option<u64>)> = Vec::new();
        for job in drained {
            // Compile under the job's full trace context so transpile/VF2
            // spans of a cache miss carry the trace id AND parent under
            // the client's span when the submission named one.
            let ctx = self.job_context(job.id);
            let _trace = edm_telemetry::trace::with_context(ctx);
            let _span = edm_telemetry::trace::span("serve_plan");
            let pool = match self.compile_cached(&job.request.circuit) {
                Ok(members) => members,
                Err(reason) => {
                    self.fail(job.id, reason);
                    continue;
                }
            };
            // With the controller on, the pool is larger than the active
            // ensemble: plan over whatever the circuit's controller holds
            // active right now (rebuilding first if the pool went stale,
            // and evicting quarantined footprints).
            let (members, context): (Vec<EnsembleMember>, Option<u64>) =
                if self.config.controller.is_some() {
                    let fp = job.request.circuit.fingerprint();
                    (self.controller_members(fp, &pool), Some(fp))
                } else {
                    (pool.as_ref().clone(), None)
                };
            match plan_run(
                members,
                job.request.shots,
                job.request.seed,
                self.config.ensemble.shot_allocation,
            ) {
                Ok(mut plan) => {
                    // Pool slices of this plan run inside the coalesced
                    // phase-2 dispatch, long after the planning span above
                    // has closed — parent them under the client's span
                    // (or the trace root) rather than a dead sibling.
                    plan.set_trace(ctx);
                    plans.push((job.id, job.enqueued_at_ms, plan, context));
                }
                Err(e) => self.fail(job.id, e.to_string()),
            }
        }

        // Phase 2: one coalesced dispatch for every member job of every
        // planned request. Seeds were forked per-request inside plan_run,
        // so concatenation changes nothing about any job's RNG stream.
        if !plans.is_empty() {
            let all_jobs: Vec<BatchJob<'_>> =
                plans.iter().flat_map(|(_, _, p, _)| p.jobs()).collect();
            let results = {
                let _span = edm_telemetry::trace::span("dispatch");
                edm_telemetry::histogram!(
                    "edm_serve_dispatch_us",
                    "Wall time of one coalesced execute_batch dispatch"
                )
                .time(|| {
                    self.dispatcher
                        .execute_batch(&all_jobs, self.config.threads)
                })
            };
            drop(all_jobs);
            self.batches += 1;
            edm_telemetry::counter!(
                "edm_serve_batches_total",
                "Coalesced execute_batch dispatches issued"
            )
            .inc();

            // Phase 3: split the flat result vector back per request and
            // merge each into its EdmResult.
            let mut results = results.into_iter();
            for (id, enqueued_at_ms, plan, context) in plans {
                let _trace = edm_telemetry::trace::with_context(self.job_context(id));
                let _span = edm_telemetry::trace::span("serve_assemble");
                let k = plan.members.len();
                // The best planned ESP is the promise the quality plane
                // scores the merged outcome against.
                let predicted_esp = plan
                    .members
                    .iter()
                    .map(|m| m.esp)
                    .fold(f64::NEG_INFINITY, f64::max);
                let raw: Vec<_> = results.by_ref().take(k).collect();
                match assemble_result(plan.members, raw, &self.config.ensemble) {
                    Ok(mut result) => {
                        if let Some(fp) = context {
                            self.controller_observe(fp, &mut result);
                        }
                        self.observe_quality(&result, predicted_esp);
                        let latency_ms = self.clock.now_ms().saturating_sub(enqueued_at_ms);
                        self.latency.record(latency_ms);
                        self.completed += 1;
                        edm_telemetry::counter!(
                            "edm_serve_jobs_completed_total",
                            "Jobs finished with a result"
                        )
                        .inc();
                        edm_telemetry::histogram!(
                            "edm_serve_job_latency_ms",
                            "Submit-to-finish job latency in milliseconds"
                        )
                        .observe(latency_ms);
                        if result.is_degraded() {
                            self.degraded += 1;
                            edm_telemetry::counter!(
                                "edm_serve_degraded_jobs_total",
                                "Jobs whose ensemble lost members and ran degraded"
                            )
                            .inc();
                        }
                        self.journal_finished(JournalEntry::Completed { id });
                        self.set_state(id, JobState::Done(CompletedJob { result, latency_ms }));
                    }
                    Err(e) => self.fail(id, e.to_string()),
                }
            }
        }
        processed
    }

    /// Drains the queue completely, batch by batch. Returns how many
    /// requests finished.
    pub fn process_all(&mut self) -> usize {
        let mut total = 0;
        loop {
            let n = self.process_pending();
            if n == 0 {
                return total;
            }
            total += n;
        }
    }

    /// A submitted job's current state, or `None` for an unknown id.
    pub fn poll(&self, id: u64) -> Option<&JobState> {
        self.jobs.get(&id).map(|record| &record.state)
    }

    /// Simulates a recalibration: bumps the calibration generation and
    /// purges every now-stale cache entry. Returns the new generation.
    pub fn bump_calibration_generation(&mut self) -> u64 {
        let generation = self.calibration.bump_generation();
        self.cache.retain_generation(generation);
        // Same error rates, new generation: the watchdog sees zero drift
        // but its baseline tracks the generation we now compile against.
        self.watchdog.observe(&self.calibration);
        generation
    }

    /// Installs a fresh calibration (same device, new measured error
    /// rates). The service restamps it with the next generation so cached
    /// compilations from the old calibration can never be served.
    ///
    /// # Panics
    ///
    /// Panics if the new calibration does not cover the topology.
    pub fn update_calibration(&mut self, calibration: Calibration) {
        assert_eq!(
            self.topology.num_qubits(),
            calibration.num_qubits(),
            "calibration must cover the topology"
        );
        let generation = self.calibration.generation() + 1;
        self.calibration = calibration.with_generation(generation);
        self.cache.retain_generation(generation);
        // Score the new calibration against the previous one; qubits and
        // links whose error rates worsened past the drift thresholds are
        // quarantined and avoided by every compilation until rates
        // stabilize.
        self.watchdog.observe(&self.calibration);
    }

    /// The drift watchdog (thresholds, current quarantine, event count).
    pub fn watchdog(&self) -> &DriftWatchdog {
        &self.watchdog
    }

    /// The calibration currently compiled against.
    pub fn calibration(&self) -> &Calibration {
        &self.calibration
    }

    /// The device topology served.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Jobs waiting in the queue right now.
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// Counter snapshot across queue, cache, dispatcher, breaker,
    /// watchdog, journal, and latencies.
    pub fn stats(&self) -> ServiceStats {
        // One sorted copy serves both percentiles (the old code re-sorted
        // the reservoir per percentile).
        let ps = self.latency.percentiles_ms(&[50, 99]);
        let (latency_p50_ms, latency_p99_ms) = (ps[0], ps[1]);
        ServiceStats {
            submitted: self.submitted,
            completed: self.completed,
            failed: self.failed,
            rejected: self.rejected,
            batches: self.batches,
            compilations: self.compilations,
            queue_depth: self.queue.len() as u64,
            cache: self.cache.stats(),
            retries: self.dispatcher.inner().retries(),
            retry_exhausted: self.dispatcher.inner().exhausted(),
            timeouts: self.dispatcher.inner().timeouts(),
            breaker: self.dispatcher.stats(),
            drift_events: self.watchdog.drift_events(),
            quarantined_qubits: self.watchdog.quarantine().num_qubits() as u64,
            quarantined_links: self.watchdog.quarantine().num_links() as u64,
            degraded: self.degraded,
            recovered: self.recovered,
            journal_appends: self.journal_appends,
            controller_swaps: self.controller_swaps,
            controller_reweights: self.controller_reweights,
            controller_recompiles: self.controller_recompiles,
            quality: self.quality.snapshot(),
            latency_p50_ms,
            latency_p99_ms,
        }
    }

    /// The live answer-quality estimate for this device: EWMA of observed
    /// merged top-outcome share against the planner's predicted ESP, one
    /// observation per completed job. Deterministic and clock-free — a
    /// replica that processed the same jobs reports the identical
    /// snapshot.
    pub fn quality(&self) -> QualitySnapshot {
        self.quality.snapshot()
    }

    /// Feeds one completed job into the quality estimator and refreshes
    /// the quality gauges.
    fn observe_quality(&mut self, result: &EdmResult, predicted_esp: f64) {
        let Some(top) = result.edm.most_probable() else {
            return;
        };
        if !predicted_esp.is_finite() {
            return;
        }
        self.quality
            .observe(predicted_esp, result.edm.probability(top));
    }

    /// Test hook: injects a raw (predicted ESP, observed top share)
    /// observation, exactly as a completed job would.
    #[doc(hidden)]
    pub fn inject_quality_observation(&mut self, predicted_esp: f64, observed_top_share: f64) {
        self.quality.observe(predicted_esp, observed_top_share);
    }

    /// The predicted success probability of running `circuit` on this
    /// device right now: the ESP of the best ensemble member under the
    /// current calibration and quarantine. Compiles through the cache, so
    /// scoring a circuit warms the same entry its subsequent submission
    /// hits — a fleet scheduler can score every device without paying for
    /// compilation twice.
    ///
    /// # Errors
    ///
    /// The compilation error as text when the circuit cannot be mapped to
    /// this device (too many qubits, no embedding) — a scheduler treats
    /// that as "this device is not a candidate".
    pub fn predicted_esp(&mut self, circuit: &qcir::Circuit) -> Result<f64, String> {
        let members = self.compile_cached(circuit)?;
        // build_ensemble returns members best-ESP-first.
        members
            .first()
            .map(|m| m.esp)
            .ok_or_else(|| "empty ensemble".to_string())
    }

    /// The backend breaker's admission state right now.
    pub fn breaker_state(&self) -> crate::dispatch::BreakerState {
        self.dispatcher.state()
    }

    /// True when the drift watchdog currently quarantines any qubit or
    /// link of this device.
    pub fn is_quarantined(&self) -> bool {
        let q = self.watchdog.quarantine();
        q.num_qubits() > 0 || q.num_links() > 0
    }

    /// Looks a circuit's ensemble up in the cache, compiling (and caching)
    /// on a miss.
    fn compile_cached(
        &mut self,
        circuit: &qcir::Circuit,
    ) -> Result<Arc<Vec<edm_core::EnsembleMember>>, String> {
        let key = CacheKey {
            circuit: circuit.fingerprint(),
            topology: self.topology_fp,
            generation: self.calibration.generation(),
        };
        if let Some(members) = self.cache.get(&key) {
            edm_telemetry::counter!(
                "edm_serve_cache_hits_total",
                "Compilations served from the ensemble cache"
            )
            .inc();
            return Ok(members);
        }
        edm_telemetry::counter!(
            "edm_serve_cache_misses_total",
            "Compilations that missed the ensemble cache"
        )
        .inc();
        // Quarantine only changes when the calibration does, and every
        // calibration change bumps the generation in the cache key — so
        // cached ensembles never reflect a stale quarantine.
        let transpiler = Transpiler::new(&self.topology, &self.calibration)
            .with_quarantine(self.watchdog.quarantine());
        // With the controller on, compile its spares too.
        let ensemble_config = match &self.config.controller {
            Some(controller) => controller.pool_config(&self.config.ensemble),
            None => self.config.ensemble,
        };
        let members =
            build_ensemble(&transpiler, circuit, &ensemble_config).map_err(|e| e.to_string())?;
        self.compilations += 1;
        Ok(self.cache.insert(key, members))
    }

    /// The members to plan this run over, per the circuit's feedback
    /// controller: creates the controller on first sight, rebuilds it when
    /// the pool was recompiled under a new calibration generation, and
    /// applies the swap policy (quarantined footprints, struck-out slots)
    /// before planning. Only called when [`ServeConfig::controller`] is set.
    fn controller_members(
        &mut self,
        fp: u64,
        pool: &Arc<Vec<EnsembleMember>>,
    ) -> Vec<EnsembleMember> {
        let config = self
            .config
            .controller
            .expect("controller_members requires a controller config");
        let target = self.config.ensemble.size;
        let generation = self.calibration.generation();
        let entry = self
            .controllers
            .entry(fp)
            .or_insert_with(|| ControllerEntry {
                controller: Controller::new(config, pool.len(), target),
                generation,
            });
        let mut events = Vec::new();
        let stale = entry.generation != generation
            || entry.controller.active().iter().any(|&i| i >= pool.len());
        if stale {
            events.push(entry.controller.rebuild(pool.len(), generation));
            entry.generation = generation;
        }
        let (members, swaps) = entry
            .controller
            .plan(pool, Some(self.watchdog.quarantine()));
        events.extend(swaps);
        self.record_controller_events(fp, events);
        // Bound the controller map like the cache it shadows; evict the
        // smallest other fingerprint (deterministic, and never the entry
        // serving the current job).
        let bound = self.config.cache_capacity.max(1) * 2;
        while self.controllers.len() > bound {
            let victim = self
                .controllers
                .keys()
                .find(|k| **k != fp)
                .copied()
                .expect("bound > 1, so another entry exists");
            self.controllers.remove(&victim);
        }
        members
    }

    /// Feeds one finished run back into the circuit's controller
    /// ([`Controller::feed_back`]), which may re-merge the result's WEDM
    /// under health-adjusted weights, and records its decisions.
    fn controller_observe(&mut self, fp: u64, result: &mut EdmResult) {
        let Some(entry) = self.controllers.get_mut(&fp) else {
            return;
        };
        let events = entry.controller.feed_back(result, &self.config.ensemble);
        self.record_controller_events(fp, events);
    }

    /// Mirrors controller decisions into the service-level counters and
    /// the bounded drainable decision log.
    fn record_controller_events(&mut self, fp: u64, events: Vec<ControllerEvent>) {
        for event in events {
            match &event {
                ControllerEvent::Swap { .. } => self.controller_swaps += 1,
                ControllerEvent::Reweight { .. } => self.controller_reweights += 1,
                ControllerEvent::Recompile { .. } => self.controller_recompiles += 1,
            }
            self.controller_events
                .push(ControllerDecision { circuit: fp, event });
        }
        const EVENT_BOUND: usize = 4096;
        if self.controller_events.len() > EVENT_BOUND {
            let excess = self.controller_events.len() - EVENT_BOUND;
            self.controller_events.drain(..excess);
        }
    }

    /// Drains the controller decisions made since the last call, oldest
    /// first (the `--controller-log` flag streams these to disk).
    pub fn take_controller_events(&mut self) -> Vec<ControllerDecision> {
        std::mem::take(&mut self.controller_events)
    }

    fn fail(&mut self, id: u64, reason: String) {
        self.failed += 1;
        edm_telemetry::counter!(
            "edm_serve_jobs_failed_total",
            "Jobs finished with a terminal error"
        )
        .inc();
        self.journal_finished(JournalEntry::Failed { id });
        self.set_state(id, JobState::Failed(reason));
    }

    /// Moves a job this service holds to `state`.
    fn set_state(&mut self, id: u64, state: JobState) {
        if let Some(record) = self.jobs.get_mut(&id) {
            record.state = state;
        }
    }

    /// Journals a terminal transition. Unlike admission, a failed append
    /// here is tolerated: the work is already done, and re-running a
    /// finished job after a crash is safe because execution is
    /// deterministic — the replay reproduces the identical result.
    fn journal_finished(&mut self, entry: JournalEntry) {
        if let Some(journal) = &mut self.journal {
            if journal.append(&entry).is_ok() {
                self.count_journal_append();
            }
        }
    }

    fn count_journal_append(&mut self) {
        self.journal_appends += 1;
        edm_telemetry::counter!(
            "edm_serve_journal_appends_total",
            "Write-ahead journal entries appended"
        )
        .inc();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;
    use crate::queue::Priority;
    use qcir::Circuit;
    use qdevice::{presets, DeviceModel};
    use qsim::NoisySimulator;

    fn ghz(n: u32) -> Circuit {
        let mut c = Circuit::new(n, n);
        c.h(0);
        for q in 1..n {
            c.cx(q - 1, q);
        }
        c.measure_all();
        c
    }

    fn request(circuit: Circuit, shots: u64, seed: u64) -> JobRequest {
        JobRequest {
            circuit,
            shots,
            seed,
            priority: Priority::Normal,
        }
    }

    fn small_config() -> ServeConfig {
        ServeConfig {
            threads: 2,
            ..ServeConfig::default()
        }
    }

    #[test]
    fn submit_process_poll_lifecycle() {
        let device = DeviceModel::synthesize(presets::melbourne14(), 11);
        let backend = NoisySimulator::from_device(&device);
        let mut svc = JobService::with_clock(
            device.topology().clone(),
            device.calibration(),
            backend,
            small_config(),
            Arc::new(ManualClock::new()),
        );
        let id = svc.submit(request(ghz(3), 1024, 5)).unwrap();
        assert_eq!(svc.poll(id), Some(&JobState::Queued));
        assert_eq!(svc.queue_depth(), 1);
        assert_eq!(svc.process_pending(), 1);
        match svc.poll(id) {
            Some(JobState::Done(done)) => {
                let total: u64 = done.result.members.iter().map(|m| m.counts.shots()).sum();
                assert_eq!(total, 1024);
            }
            other => panic!("expected Done, got {other:?}"),
        }
        assert!(svc.poll(999).is_none());
        let stats = svc.stats();
        assert_eq!(stats.submitted, 1);
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.batches, 1);
        assert_eq!(stats.compilations, 1);
        assert_eq!(stats.queue_depth, 0);
    }

    #[test]
    fn zero_shots_rejected_at_admission() {
        let device = DeviceModel::synthesize(presets::melbourne14(), 11);
        let backend = NoisySimulator::from_device(&device);
        let mut svc = JobService::new(
            device.topology().clone(),
            device.calibration(),
            backend,
            small_config(),
        );
        let err = svc.submit(request(ghz(3), 0, 5)).unwrap_err();
        assert!(matches!(err, AdmitError::Invalid(_)));
        assert!(err.to_string().contains("shots must be at least 1"));
        assert_eq!(svc.stats().rejected, 1);
        assert_eq!(svc.stats().submitted, 0);
    }

    #[test]
    fn queue_backpressure_rejects_without_losing_admitted_jobs() {
        let device = DeviceModel::synthesize(presets::melbourne14(), 11);
        let backend = NoisySimulator::from_device(&device);
        let mut svc = JobService::new(
            device.topology().clone(),
            device.calibration(),
            backend,
            ServeConfig {
                queue_capacity: 2,
                ..small_config()
            },
        );
        let a = svc.submit(request(ghz(2), 64, 1)).unwrap();
        let b = svc.submit(request(ghz(2), 64, 2)).unwrap();
        let err = svc.submit(request(ghz(2), 64, 3)).unwrap_err();
        assert_eq!(err, AdmitError::QueueFull { capacity: 2 });
        assert_eq!(svc.stats().rejected, 1);
        // The earlier admissions still run to completion.
        assert_eq!(svc.process_all(), 2);
        assert!(matches!(svc.poll(a), Some(JobState::Done(_))));
        assert!(matches!(svc.poll(b), Some(JobState::Done(_))));
    }

    #[test]
    fn resubmission_hits_cache_and_generation_bump_invalidates() {
        let device = DeviceModel::synthesize(presets::melbourne14(), 11);
        let backend = NoisySimulator::from_device(&device);
        let mut svc = JobService::new(
            device.topology().clone(),
            device.calibration(),
            backend,
            small_config(),
        );
        let a = svc.submit(request(ghz(3), 512, 1)).unwrap();
        svc.process_pending();
        assert_eq!(svc.stats().compilations, 1);
        assert_eq!(svc.stats().cache.misses, 1);

        // Same circuit, different shots/seed: compilation reused.
        let b = svc.submit(request(ghz(3), 1024, 2)).unwrap();
        svc.process_pending();
        assert_eq!(svc.stats().compilations, 1, "second run must hit cache");
        assert_eq!(svc.stats().cache.hits, 1);
        assert!(matches!(svc.poll(a), Some(JobState::Done(_))));
        assert!(matches!(svc.poll(b), Some(JobState::Done(_))));

        // Recalibration: cached ensembles go stale and recompile.
        let generation = svc.bump_calibration_generation();
        assert_eq!(generation, 1);
        assert_eq!(svc.stats().cache.invalidated, 1);
        svc.submit(request(ghz(3), 512, 3)).unwrap();
        svc.process_pending();
        assert_eq!(svc.stats().compilations, 2, "bump must force a recompile");
    }

    #[test]
    fn predicted_esp_warms_the_cache_for_submission() {
        let device = DeviceModel::synthesize(presets::melbourne14(), 11);
        let backend = NoisySimulator::from_device(&device);
        let mut svc = JobService::new(
            device.topology().clone(),
            device.calibration(),
            backend,
            small_config(),
        );
        let esp = svc.predicted_esp(&ghz(3)).unwrap();
        assert!(esp > 0.0 && esp <= 1.0, "ESP must be a probability: {esp}");
        assert_eq!(svc.stats().compilations, 1);

        // Scoring is idempotent and the submission reuses the entry.
        assert_eq!(svc.predicted_esp(&ghz(3)).unwrap(), esp);
        let id = svc.submit(request(ghz(3), 256, 4)).unwrap();
        svc.process_pending();
        assert!(matches!(svc.poll(id), Some(JobState::Done(_))));
        assert_eq!(svc.stats().compilations, 1, "submission must hit cache");
        assert_eq!(svc.stats().cache.hits, 2);

        // A circuit the device cannot host is an error, not a panic.
        assert!(svc.predicted_esp(&ghz(20)).is_err());
        assert_eq!(svc.breaker_state(), crate::dispatch::BreakerState::Closed);
        assert!(!svc.is_quarantined());
    }

    #[test]
    fn oversized_circuit_fails_terminally_not_fatally() {
        let device = DeviceModel::synthesize(presets::melbourne14(), 11);
        let backend = NoisySimulator::from_device(&device);
        let mut svc = JobService::new(
            device.topology().clone(),
            device.calibration(),
            backend,
            small_config(),
        );
        // 20 qubits on a 14-qubit device: compiles cannot succeed.
        let id = svc.submit(request(ghz(20), 256, 1)).unwrap();
        let ok = svc.submit(request(ghz(2), 256, 2)).unwrap();
        assert_eq!(svc.process_pending(), 2);
        assert!(matches!(svc.poll(id), Some(JobState::Failed(_))));
        assert!(matches!(svc.poll(ok), Some(JobState::Done(_))));
        assert_eq!(svc.stats().failed, 1);
        assert_eq!(svc.stats().completed, 1);
    }

    #[test]
    fn register_wider_than_a_histogram_key_fails_the_job_not_the_device() {
        let device = DeviceModel::synthesize(presets::melbourne14(), 11);
        let backend = NoisySimulator::from_device(&device);
        let mut svc = JobService::new(
            device.topology().clone(),
            device.calibration(),
            backend,
            small_config(),
        );
        let mut wide = Circuit::new(3, 64);
        wide.h(0).cx(0, 1).cx(1, 2);
        wide.measure(0, 0).measure(1, 1).measure(2, 63);
        let bad = svc.submit(request(wide, 256, 1)).unwrap();
        assert_eq!(svc.process_pending(), 1);
        match svc.poll(bad) {
            Some(JobState::Failed(reason)) => {
                assert!(reason.contains("64 classical bits"), "got: {reason}")
            }
            other => panic!("expected Failed, got {other:?}"),
        }
        // The device is still serving.
        let ok = svc.submit(request(ghz(3), 256, 2)).unwrap();
        assert_eq!(svc.process_pending(), 1);
        assert!(matches!(svc.poll(ok), Some(JobState::Done(_))));
        assert_eq!(svc.breaker_state(), crate::dispatch::BreakerState::Closed);
    }

    #[test]
    fn replayed_jobs_keep_their_original_trace_id() {
        let dir = std::env::temp_dir().join(format!(
            "edm-serve-trace-replay-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("journal.jsonl");
        let _ = std::fs::remove_file(&path);

        let device = DeviceModel::synthesize(presets::melbourne14(), 11);

        // First process: accept a job, crash before processing it.
        let original_trace = {
            let backend = NoisySimulator::from_device(&device);
            let mut svc = JobService::new(
                device.topology().clone(),
                device.calibration(),
                backend,
                small_config(),
            );
            svc.attach_journal(&path).unwrap();
            let id = svc.submit(request(ghz(3), 512, 7)).unwrap();
            let trace = svc.trace_id(id).expect("submitted jobs have a trace id");
            assert_ne!(trace, 0);
            trace
            // svc dropped here without processing = the "crash".
        };

        // Second process: replay must resurrect the job under the SAME
        // trace id, not mint a fresh one.
        let backend = NoisySimulator::from_device(&device);
        let mut svc = JobService::new(
            device.topology().clone(),
            device.calibration(),
            backend,
            small_config(),
        );
        assert_eq!(svc.attach_journal(&path).unwrap(), vec![1]);
        assert_eq!(svc.trace_id(1), Some(original_trace));
        svc.process_all();
        assert!(matches!(svc.poll(1), Some(JobState::Done(_))));
        assert_eq!(
            svc.trace_id(1),
            Some(original_trace),
            "trace id survives processing"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn client_supplied_trace_context_is_adopted() {
        edm_telemetry::set_enabled(true);
        let device = DeviceModel::synthesize(presets::melbourne14(), 11);
        let backend = NoisySimulator::from_device(&device);
        let mut svc = JobService::new(
            device.topology().clone(),
            device.calibration(),
            backend,
            small_config(),
        );
        // A trace id no other (parallel) test mints: next_trace_id() is
        // salted and sequential, so a fixed literal cannot collide.
        let client_trace = 0x7e57_0000_c0ff_ee01_u64;
        let client_span = 77u64;
        let id = svc
            .submit_with_context(
                request(ghz(3), 512, 5),
                TraceContext {
                    trace_id: client_trace,
                    parent_span: client_span,
                },
            )
            .unwrap();
        assert_eq!(svc.trace_id(id), Some(client_trace));
        assert_eq!(svc.process_pending(), 1);
        assert!(matches!(svc.poll(id), Some(JobState::Done(_))));

        let spans = edm_telemetry::trace::recorder().trace(client_trace);
        let names: Vec<&str> = spans.iter().map(|s| s.name).collect();
        for stage in ["serve_admit", "serve_plan", "serve_assemble", "pool_slice"] {
            assert!(names.contains(&stage), "missing {stage} in {names:?}");
        }
        // Every server-side stage parents under the client's span: one
        // trace tree across the (simulated) process boundary.
        for span in &spans {
            assert_eq!(span.trace_id, client_trace);
            if matches!(
                span.name,
                "serve_admit" | "serve_plan" | "serve_assemble" | "pool_slice"
            ) {
                assert_eq!(span.parent_id, client_span, "span {}", span.name);
            }
        }
    }

    #[test]
    fn zero_context_submission_still_mints_a_trace() {
        let device = DeviceModel::synthesize(presets::melbourne14(), 11);
        let backend = NoisySimulator::from_device(&device);
        let mut svc = JobService::new(
            device.topology().clone(),
            device.calibration(),
            backend,
            small_config(),
        );
        let id = svc
            .submit_with_context(request(ghz(2), 128, 1), TraceContext::default())
            .unwrap();
        let minted = svc.trace_id(id).unwrap();
        assert_ne!(minted, 0, "a zero client context must mint a trace id");
    }

    #[test]
    fn replay_preserves_client_supplied_trace_id_byte_identically() {
        let dir = std::env::temp_dir().join(format!(
            "edm-serve-client-trace-replay-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("journal.jsonl");
        let _ = std::fs::remove_file(&path);

        let device = DeviceModel::synthesize(presets::melbourne14(), 11);
        let client_trace = u64::MAX - 3; // exercises full-width round-trip
        {
            let backend = NoisySimulator::from_device(&device);
            let mut svc = JobService::new(
                device.topology().clone(),
                device.calibration(),
                backend,
                small_config(),
            );
            svc.attach_journal(&path).unwrap();
            let id = svc
                .submit_with_context(
                    request(ghz(3), 512, 7),
                    TraceContext {
                        trace_id: client_trace,
                        parent_span: 9,
                    },
                )
                .unwrap();
            assert_eq!(svc.trace_id(id), Some(client_trace));
            // Crash before processing.
        }
        let backend = NoisySimulator::from_device(&device);
        let mut svc = JobService::new(
            device.topology().clone(),
            device.calibration(),
            backend,
            small_config(),
        );
        assert_eq!(svc.attach_journal(&path).unwrap(), vec![1]);
        assert_eq!(
            svc.trace_id(1),
            Some(client_trace),
            "the CLIENT's trace id must survive the crash byte-identically"
        );
        svc.process_all();
        assert!(matches!(svc.poll(1), Some(JobState::Done(_))));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn quality_estimator_tracks_completed_jobs() {
        let device = DeviceModel::synthesize(presets::melbourne14(), 11);
        let backend = NoisySimulator::from_device(&device);
        let mut svc = JobService::new(
            device.topology().clone(),
            device.calibration(),
            backend,
            small_config(),
        );
        assert_eq!(svc.quality().observations, 0);
        assert_eq!(svc.quality().quality_factor, 1.0);
        let id = svc.submit(request(ghz(3), 1024, 5)).unwrap();
        svc.process_pending();
        assert!(matches!(svc.poll(id), Some(JobState::Done(_))));
        let q = svc.quality();
        assert_eq!(q.observations, 1);
        let ist = q.live_ist.expect("one observation recorded");
        assert!((0.0..=1.0).contains(&ist), "IST is a probability: {ist}");
        assert_eq!(svc.stats().quality, q, "stats carries the same snapshot");
    }

    #[test]
    fn fewer_shots_than_members_fails_that_job_only() {
        let device = DeviceModel::synthesize(presets::melbourne14(), 11);
        let backend = NoisySimulator::from_device(&device);
        let mut svc = JobService::new(
            device.topology().clone(),
            device.calibration(),
            backend,
            small_config(),
        );
        // 1 shot across a (usually) multi-member ensemble.
        let id = svc.submit(request(ghz(3), 1, 9)).unwrap();
        svc.process_pending();
        match svc.poll(id) {
            Some(JobState::Failed(reason)) => {
                assert!(reason.contains("fewer shots"), "got: {reason}")
            }
            Some(JobState::Done(done)) => {
                // Degenerate but legal: a single-member ensemble can absorb
                // one shot.
                assert_eq!(done.result.members.len(), 1);
            }
            other => panic!("unexpected state {other:?}"),
        }
    }
}
