//! The variability-aware fleet scheduler.
//!
//! Tannu & Qureshi's variability-aware policy, lifted from qubits to whole
//! devices: a [`Fleet`] owns N virtual devices — distinct topology presets
//! and calibration snapshots, each wrapping its own full
//! [`JobService`] stack, so the
//! compilation cache, circuit breaker, drift quarantine, journal, and
//! telemetry are per-device components — and routes every submission to
//! the device with the highest predicted ESP for that circuit.
//!
//! ## Scoring and failover order
//!
//! For each device the scheduler asks
//! [`predicted_esp`](edm_serve::service::JobService::predicted_esp) — the
//! best ensemble member's ESP under the device's current calibration and
//! quarantine, compiled through the per-device cache so scoring warms the
//! entry the accepted submission then hits. Devices that cannot map the
//! circuit at all are not candidates. The rest are ordered:
//!
//! 1. healthy before unhealthy — healthy means breaker
//!    [`Closed`](edm_serve::dispatch::BreakerState::Closed), nothing
//!    quarantined, and queue depth below the routing cap,
//! 2. predicted ESP, descending,
//! 3. device index, ascending (the deterministic tie-break).
//!
//! A one-device fleet skips scoring: there is nothing to rank, so its
//! device admits every submission exactly as a bare [`JobService`] would.
//!
//! Submission walks that order and takes the first device whose admission
//! queue accepts. Unhealthy devices are kept at the tail rather than
//! dropped: while any healthy candidate exists they never receive work,
//! but when the whole fleet is sick the best unhealthy device still gets
//! the job — which is also what lets an open breaker see its half-open
//! probe and recover.
//!
//! ## Determinism
//!
//! Scores depend only on (circuit, calibration generation, quarantine) and
//! health only on per-device service state, so two fleets in identical
//! states route identically; and because routing picks a (device, seed)
//! but never alters the request, a fleet-routed result is bit-identical to
//! a direct single-device run on the chosen device — the DESIGN.md §7
//! contract extended to routing.

use crate::backend::DeviceBackend;
use edm_core::{Backend, QualitySnapshot};
use edm_serve::dispatch::BreakerState;
use edm_serve::journal::JournalError;
use edm_serve::protocol::DeviceStatus;
use edm_serve::queue::{AdmitError, JobRequest};
use edm_serve::service::{ControllerDecision, JobService, JobState, ServeConfig};
use edm_serve::stats::ServiceStats;
use edm_telemetry::trace::TraceContext;
use qcir::Circuit;
use qdevice::DeviceModel;
use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Mutex};

/// How the scheduler scores a device for a circuit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RoutingPolicy {
    /// Compile-time score only: the predicted ESP of the best ensemble
    /// member under the device's current calibration and quarantine.
    #[default]
    Esp,
    /// ESP corrected by the live answer-quality plane: each device's score
    /// is its predicted ESP multiplied by the quality factor its online
    /// IST estimator has earned (EWMA of observed top-outcome share over
    /// EWMA of promised ESP, clamped). Until an estimator's warmup
    /// threshold is crossed its factor is exactly `1.0`, so `LiveIst`
    /// routes identically to [`Esp`](RoutingPolicy::Esp) on a cold fleet —
    /// the deterministic fallback the DESIGN.md §7 contract needs.
    LiveIst,
}

impl std::str::FromStr for RoutingPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "esp" => Ok(RoutingPolicy::Esp),
            "live-ist" => Ok(RoutingPolicy::LiveIst),
            other => Err(format!(
                "unknown routing policy {other:?} (expected esp or live-ist)"
            )),
        }
    }
}

/// Fleet-level knobs on top of the per-device [`ServeConfig`].
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Per-device service configuration (every device gets a copy).
    pub serve: ServeConfig,
    /// Routing-level queue-depth cap: a device at or above this depth is
    /// treated as unhealthy so one hot device cannot starve the fleet.
    /// Must be positive and no larger than the admission-queue capacity.
    pub depth_cap: usize,
    /// How candidate devices are scored (compile-time ESP, or ESP
    /// corrected by the live answer-quality plane).
    pub routing: RoutingPolicy,
}

impl Default for FleetConfig {
    fn default() -> Self {
        let serve = ServeConfig::default();
        FleetConfig {
            depth_cap: serve.queue_capacity / 4,
            serve,
            routing: RoutingPolicy::default(),
        }
    }
}

/// Why a submission could not be routed.
#[derive(Debug, Clone, PartialEq)]
pub enum RouteError {
    /// The fleet has no devices.
    Empty,
    /// No device can map the circuit at all.
    Unmappable {
        /// The last device's compilation error.
        reason: String,
    },
    /// Every candidate's admission queue refused the job.
    AllRejected {
        /// The best-ranked candidate's admission error.
        reason: String,
    },
}

impl fmt::Display for RouteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouteError::Empty => write!(f, "fleet has no devices"),
            RouteError::Unmappable { reason } => {
                write!(f, "no device can run this circuit: {reason}")
            }
            RouteError::AllRejected { reason } => {
                write!(f, "every device refused the job: {reason}")
            }
        }
    }
}

impl std::error::Error for RouteError {}

/// One device's standing for a specific circuit.
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    /// Device index within the fleet.
    pub device: usize,
    /// Routing score: the best ensemble member's predicted ESP, multiplied
    /// by the device's live quality factor under
    /// [`RoutingPolicy::LiveIst`].
    pub score: f64,
    /// Breaker closed, nothing quarantined, depth under the cap.
    pub healthy: bool,
}

/// The receipt for an accepted fleet submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ticket {
    /// The job id, one number fleet-wide: what clients poll and what the
    /// routed device journals and replays.
    pub id: u64,
    /// The device the job was routed to.
    pub device: usize,
    /// The correlation id the device's service stamped on the job.
    pub trace_id: u64,
}

struct DeviceSlot<B> {
    name: String,
    service: JobService<B>,
    routed: &'static edm_telemetry::metrics::Counter,
    completed: &'static edm_telemetry::metrics::Counter,
    depth: &'static edm_telemetry::metrics::Gauge,
    breaker: &'static edm_telemetry::metrics::Gauge,
    quarantined: &'static edm_telemetry::metrics::Gauge,
    live_ist: &'static edm_telemetry::metrics::Gauge,
    esp_gap: &'static edm_telemetry::metrics::Gauge,
}

impl<B: Backend> DeviceSlot<B> {
    /// Pushes the routing-relevant gauges after any state change.
    fn refresh_gauges(&self) {
        self.depth.set(self.service.queue_depth() as i64);
        self.breaker.set(match self.service.breaker_state() {
            BreakerState::Closed => 0,
            BreakerState::HalfOpen => 1,
            BreakerState::Open => 2,
        });
        self.quarantined
            .set(i64::from(self.service.is_quarantined()));
        // Quality gauges follow the `_micro` convention (×10⁶). A device
        // with no completed jobs yet reports 0 — indistinguishable from a
        // measured 0, so dashboards should gate on observations > 0 via
        // the fleet-stats wire if that matters.
        let quality = self.service.quality();
        self.live_ist
            .set(edm_core::quality::micro(quality.live_ist.unwrap_or(0.0)));
        self.esp_gap
            .set(edm_core::quality::micro(quality.esp_gap.unwrap_or(0.0)));
    }
}

/// A fleet of virtual devices behind one ESP-scored router.
///
/// Generic over the per-device [`Backend`] so tests can wrap
/// [`DeviceBackend`] in the fault-injecting doubles from
/// [`edm_serve::dispatch`]. Every method takes `&self`: devices sit behind
/// per-device mutexes, so connection shards and executor threads share a
/// fleet through an [`Arc`].
pub struct Fleet<B> {
    slots: Vec<Mutex<DeviceSlot<B>>>,
    /// Job id → the index of the device that holds it.
    index: Mutex<BTreeMap<u64, usize>>,
    /// The one job-id counter every device's service draws from.
    ids: Arc<AtomicU64>,
    config: FleetConfig,
}

/// Interned per-device label values (`d0`, `d1`, …). Metric registration
/// borrows label values only for the call, but building the string each
/// time would churn; one leak per device per process is the cheap choice.
fn device_label(idx: usize) -> &'static str {
    Box::leak(format!("d{idx}").into_boxed_str())
}

impl<B: Backend> Fleet<B> {
    /// An empty fleet; add devices with [`Fleet::add_device`].
    ///
    /// # Panics
    ///
    /// Panics if `depth_cap` is zero or exceeds the admission-queue
    /// capacity (such a cap could never mark any device healthy, or never
    /// fire).
    pub fn new(config: FleetConfig) -> Self {
        assert!(config.depth_cap > 0, "depth cap must be positive");
        assert!(
            config.depth_cap <= config.serve.queue_capacity,
            "depth cap beyond queue capacity can never fire"
        );
        Fleet {
            slots: Vec::new(),
            index: Mutex::new(BTreeMap::new()),
            ids: Arc::new(AtomicU64::new(1)),
            config,
        }
    }

    /// Adds a virtual device wrapping its own full `JobService` stack and
    /// returns its index. `name` should describe the preset and seed
    /// (e.g. `tokyo20#7`).
    pub fn add_device(
        &mut self,
        name: impl Into<String>,
        device: &DeviceModel,
        backend: B,
    ) -> usize {
        let idx = self.slots.len();
        let service = JobService::new(
            device.topology().clone(),
            device.calibration(),
            backend,
            self.config.serve.clone(),
        )
        .with_ids(Arc::clone(&self.ids));
        let label = &[("device", device_label(idx))][..];
        let registry = edm_telemetry::metrics::registry();
        let slot = DeviceSlot {
            name: name.into(),
            service,
            routed: registry.counter_with(
                "edm_fleet_jobs_routed_total",
                "Jobs the scheduler routed to this device",
                label,
            ),
            completed: registry.counter_with(
                "edm_fleet_jobs_completed_total",
                "Jobs this device finished with a result",
                label,
            ),
            depth: registry.gauge_with(
                "edm_fleet_queue_depth",
                "Jobs waiting in this device's admission queue",
                label,
            ),
            breaker: registry.gauge_with(
                "edm_fleet_breaker_state",
                "This device's breaker state (0 closed, 1 half-open, 2 open)",
                label,
            ),
            quarantined: registry.gauge_with(
                "edm_fleet_quarantined",
                "Whether the drift watchdog has quarantined part of this device (0/1)",
                label,
            ),
            live_ist: registry.gauge_with(
                "edm_quality_live_ist",
                "EWMA of this device's observed top-outcome share (micro-units)",
                label,
            ),
            esp_gap: registry.gauge_with(
                "edm_quality_esp_gap",
                "Predicted ESP minus observed share, EWMA (micro-units; positive = under-delivery)",
                label,
            ),
        };
        self.slots.push(Mutex::new(slot));
        idx
    }

    /// Number of devices in the fleet.
    pub fn num_devices(&self) -> usize {
        self.slots.len()
    }

    /// Scores `circuit` on every device and returns the candidates in
    /// failover order: healthy first, then score descending, then device
    /// index ascending. Devices that cannot map the circuit are absent.
    ///
    /// Under [`RoutingPolicy::Esp`] the score is the predicted ESP; under
    /// [`RoutingPolicy::LiveIst`] it is the ESP multiplied by the device's
    /// current quality factor (exactly `1.0` until that device's estimator
    /// warms up, so a cold fleet scores identically under both policies).
    pub fn candidates(&self, circuit: &Circuit) -> Vec<Candidate> {
        let mut out = Vec::with_capacity(self.slots.len());
        for (idx, slot) in self.slots.iter().enumerate() {
            let mut slot = slot.lock().expect("device lock poisoned");
            let esp = match slot.service.predicted_esp(circuit) {
                Ok(score) => score,
                Err(_) => continue,
            };
            let score = match self.config.routing {
                RoutingPolicy::Esp => esp,
                RoutingPolicy::LiveIst => esp * slot.service.quality().quality_factor,
            };
            let healthy = slot.service.breaker_state() == BreakerState::Closed
                && !slot.service.is_quarantined()
                && slot.service.queue_depth() < self.config.depth_cap;
            out.push(Candidate {
                device: idx,
                score,
                healthy,
            });
        }
        // ESP lives in (0, 1] — never NaN — but stay total anyway.
        out.sort_by(|a, b| {
            b.healthy
                .cmp(&a.healthy)
                .then(
                    b.score
                        .partial_cmp(&a.score)
                        .unwrap_or(std::cmp::Ordering::Equal),
                )
                .then(a.device.cmp(&b.device))
        });
        out
    }

    /// The device a submission of `circuit` would go to right now.
    pub fn route(&self, circuit: &Circuit) -> Option<Candidate> {
        self.candidates(circuit).into_iter().next()
    }

    /// Routes and submits a job, returning the fleet-wide ticket.
    ///
    /// Walks the candidate order and takes the first device whose
    /// admission queue accepts — an unhealthy or full best device fails
    /// over to the next-best instead of bouncing the client.
    ///
    /// # Errors
    ///
    /// [`RouteError`] when the fleet is empty, no device can map the
    /// circuit, or every candidate's queue refused.
    pub fn submit(&self, request: JobRequest) -> Result<Ticket, RouteError> {
        self.submit_with_context(request, TraceContext::default())
    }

    /// [`Fleet::submit`] with an explicit client trace context: the routed
    /// device's service links its spans (and the job's pool slices) under
    /// the client's trace instead of minting a fresh one. A zero context
    /// behaves exactly like [`Fleet::submit`].
    ///
    /// # Errors
    ///
    /// Same as [`Fleet::submit`].
    pub fn submit_with_context(
        &self,
        request: JobRequest,
        ctx: TraceContext,
    ) -> Result<Ticket, RouteError> {
        let order: Vec<usize> = match self.slots.len() {
            0 => return Err(RouteError::Empty),
            // Nothing to rank. Scoring would compile through the cache and
            // refuse an unmappable circuit here; a lone device behaves as
            // its bare service does and reports that failure at poll.
            1 => vec![0],
            _ => {
                let candidates = self.candidates(&request.circuit);
                if candidates.is_empty() {
                    // Re-ask one device for the human-readable reason.
                    let reason = self.slots[0]
                        .lock()
                        .expect("device lock poisoned")
                        .service
                        .predicted_esp(&request.circuit)
                        .err()
                        .unwrap_or_else(|| "unmappable".into());
                    return Err(RouteError::Unmappable { reason });
                }
                candidates.into_iter().map(|c| c.device).collect()
            }
        };
        let mut first_rejection: Option<AdmitError> = None;
        for device in order {
            let mut slot = self.slots[device].lock().expect("device lock poisoned");
            match slot.service.submit_with_context(request.clone(), ctx) {
                Ok(id) => {
                    let trace_id = slot.service.trace_id(id).unwrap_or(0);
                    slot.routed.inc();
                    slot.refresh_gauges();
                    drop(slot);
                    self.index
                        .lock()
                        .expect("index lock poisoned")
                        .insert(id, device);
                    return Ok(Ticket {
                        id,
                        device,
                        trace_id,
                    });
                }
                Err(e) => {
                    first_rejection.get_or_insert(e);
                }
            }
        }
        Err(RouteError::AllRejected {
            reason: first_rejection
                .expect("at least one device was tried, so at least one rejection")
                .to_string(),
        })
    }

    /// A fleet job's current state (cloned), or `None` for an unknown id.
    pub fn poll(&self, id: u64) -> Option<JobState> {
        let device = self.device_of(id)?;
        let slot = self.slots[device].lock().expect("device lock poisoned");
        slot.service.poll(id).cloned()
    }

    /// The correlation id the routed device's service stamped on a fleet
    /// job, or `None` for an unknown id.
    pub fn trace_id(&self, id: u64) -> Option<u64> {
        let device = self.device_of(id)?;
        let slot = self.slots[device].lock().expect("device lock poisoned");
        slot.service.trace_id(id)
    }

    /// The (device index, job id) a fleet job was routed to. The device
    /// holds the job under the same id the client polls.
    pub fn placement(&self, id: u64) -> Option<(usize, u64)> {
        Some((self.device_of(id)?, id))
    }

    fn device_of(&self, id: u64) -> Option<usize> {
        self.index
            .lock()
            .expect("index lock poisoned")
            .get(&id)
            .copied()
    }

    /// Runs one `process_pending` pass on one device. Returns how many of
    /// its requests finished.
    pub fn process_device(&self, device: usize) -> usize {
        let mut slot = self.slots[device].lock().expect("device lock poisoned");
        let before = slot.service.stats().completed;
        let n = slot.service.process_pending();
        let delta = slot.service.stats().completed.saturating_sub(before);
        if delta > 0 {
            slot.completed.add(delta);
        }
        slot.refresh_gauges();
        n
    }

    /// Drains every device completely. Returns how many requests finished
    /// fleet-wide.
    pub fn process_all(&self) -> usize {
        let mut total = 0;
        loop {
            let mut round = 0;
            for device in 0..self.slots.len() {
                round += self.process_device(device);
            }
            if round == 0 {
                return total;
            }
            total += round;
        }
    }

    /// Per-device status in device-index order, as the wire protocol
    /// reports it.
    pub fn device_status(&self) -> Vec<DeviceStatus> {
        self.slots
            .iter()
            .enumerate()
            .map(|(idx, slot)| {
                let slot = slot.lock().expect("device lock poisoned");
                DeviceStatus {
                    device: idx as u64,
                    name: slot.name.clone(),
                    queue_depth: slot.service.queue_depth() as u64,
                    breaker: slot.service.breaker_state(),
                    quarantined: slot.service.is_quarantined(),
                    quality: slot.service.quality(),
                    stats: slot.service.stats(),
                }
            })
            .collect()
    }

    /// Fleet-wide counter snapshot: sums across devices, with the worst
    /// breaker state and the maximum latency percentiles (a conservative
    /// merge — exact fleet-wide percentiles would need the raw windows).
    pub fn stats(&self) -> ServiceStats {
        let per_device: Vec<ServiceStats> = self
            .slots
            .iter()
            .map(|slot| slot.lock().expect("device lock poisoned").service.stats())
            .collect();
        aggregate_stats(&per_device)
    }

    /// Bumps every device's calibration generation (a fleet-wide
    /// recalibration drill). Returns the maximum generation now current.
    pub fn bump_calibration_generation(&self) -> u64 {
        self.slots
            .iter()
            .map(|slot| {
                slot.lock()
                    .expect("device lock poisoned")
                    .service
                    .bump_calibration_generation()
            })
            .max()
            .unwrap_or(0)
    }

    /// Installs a fresh calibration on one device (the fleet analogue of
    /// [`JobService::update_calibration`]).
    ///
    /// # Panics
    ///
    /// Panics if `device` is out of range or the calibration does not
    /// cover the device's topology.
    pub fn update_calibration(&self, device: usize, calibration: qdevice::Calibration) {
        let mut slot = self.slots[device].lock().expect("device lock poisoned");
        slot.service.update_calibration(calibration);
        // The service's drift watchdog just re-observed the calibration, so
        // the quarantine gauge — and through `candidates()`'s re-scoring,
        // the device's routing rank — reflect the new error rates at once.
        slot.refresh_gauges();
    }

    /// One device's live answer-quality snapshot.
    ///
    /// # Panics
    ///
    /// Panics if `device` is out of range.
    pub fn device_quality(&self, device: usize) -> QualitySnapshot {
        self.slots[device]
            .lock()
            .expect("device lock poisoned")
            .service
            .quality()
    }

    /// Test/tooling hook: feeds a synthetic observation into one device's
    /// quality estimator and refreshes its gauges, exactly as a completed
    /// job would. Deterministic drift injection for routing tests.
    ///
    /// # Panics
    ///
    /// Panics if `device` is out of range.
    #[doc(hidden)]
    pub fn inject_quality_observation(
        &self,
        device: usize,
        predicted_esp: f64,
        observed_top_share: f64,
    ) {
        let mut slot = self.slots[device].lock().expect("device lock poisoned");
        slot.service
            .inject_quality_observation(predicted_esp, observed_top_share);
        slot.refresh_gauges();
    }

    /// Attaches crash-safe journals: device `i`'s write-ahead journal at
    /// `devices[i]` (via [`JobService::attach_journal`]). Jobs a previous
    /// process accepted but never finished are re-enqueued on their
    /// original devices with their original ids and seeds, so every id a
    /// client held keeps resolving; fresh ids start past every id any
    /// journal ever issued. Returns how many jobs were recovered
    /// fleet-wide.
    ///
    /// Call before serving traffic — recovery assumes no concurrent
    /// submissions.
    ///
    /// # Errors
    ///
    /// [`JournalError`] when a journal cannot be opened or a non-final line
    /// of one is corrupt (a truncated final line — the torn write of the
    /// crash itself — is dropped, not an error), and
    /// [`JournalError::Corrupt`] when two journals hold the same open id:
    /// one id names one job, and journals whose ids overlap across devices
    /// cannot say which job a client's id meant.
    ///
    /// # Panics
    ///
    /// Panics unless there is exactly one device journal per device.
    pub fn attach_journals(&self, devices: &[impl AsRef<Path>]) -> Result<usize, JournalError> {
        assert_eq!(devices.len(), self.slots.len(), "one journal per device");
        let mut recovered = 0;
        for (device, (slot, path)) in self.slots.iter().zip(devices).enumerate() {
            let mut slot = slot.lock().expect("device lock poisoned");
            let open = slot.service.attach_journal(path)?;
            slot.refresh_gauges();
            drop(slot);
            recovered += open.len();
            let mut index = self.index.lock().expect("index lock poisoned");
            for id in open {
                if let Some(other) = index.insert(id, device) {
                    return Err(JournalError::Corrupt {
                        line: 0,
                        reason: format!(
                            "job id {id} is open in both {} and {}",
                            devices[other].as_ref().display(),
                            path.as_ref().display()
                        ),
                    });
                }
            }
        }
        Ok(recovered)
    }

    /// Drains every device's controller decisions made since the last
    /// call, device by device, oldest first within a device.
    pub fn take_controller_events(&self) -> Vec<ControllerDecision> {
        self.slots
            .iter()
            .flat_map(|slot| {
                slot.lock()
                    .expect("device lock poisoned")
                    .service
                    .take_controller_events()
            })
            .collect()
    }
}

impl Fleet<DeviceBackend> {
    /// Builds a fleet over synthesized devices: one virtual device per
    /// `(topology, name)` pair, each synthesized from `device_seed + index`
    /// so calibrations differ across the fleet.
    pub fn synthesize(
        presets: &[(qdevice::Topology, &str)],
        device_seed: u64,
        config: FleetConfig,
    ) -> Self {
        let mut fleet = Fleet::new(config);
        for (idx, (topology, name)) in presets.iter().enumerate() {
            let seed = device_seed + idx as u64;
            let device = Arc::new(DeviceModel::synthesize(topology.clone(), seed));
            let backend = DeviceBackend::new(Arc::clone(&device));
            fleet.add_device(format!("{name}#{seed}"), &device, backend);
        }
        fleet
    }
}

/// Merges per-device snapshots into one fleet-wide snapshot: counters sum;
/// the breaker reports the worst state (`Open` > `HalfOpen` > `Closed`)
/// with summed trip counters; latency percentiles take the per-device
/// maximum (conservative — merging percentiles exactly would need the raw
/// samples). A single device's snapshot passes through unchanged.
pub fn aggregate_stats(per_device: &[ServiceStats]) -> ServiceStats {
    if let [only] = per_device {
        return *only;
    }
    let mut total = ServiceStats {
        submitted: 0,
        completed: 0,
        failed: 0,
        rejected: 0,
        batches: 0,
        compilations: 0,
        queue_depth: 0,
        cache: edm_serve::cache::CacheStats::default(),
        retries: 0,
        retry_exhausted: 0,
        timeouts: 0,
        breaker: edm_serve::dispatch::BreakerStats {
            state: BreakerState::Closed,
            trips: 0,
            fast_failures: 0,
            consecutive_failures: 0,
        },
        drift_events: 0,
        quarantined_qubits: 0,
        quarantined_links: 0,
        degraded: 0,
        recovered: 0,
        journal_appends: 0,
        controller_swaps: 0,
        controller_reweights: 0,
        controller_recompiles: 0,
        // Per-device EWMAs do not merge meaningfully; the fleet-wide
        // snapshot stays empty and `device_status` carries the real ones.
        quality: QualitySnapshot::default(),
        latency_p50_ms: 0,
        latency_p99_ms: 0,
    };
    let severity = |state: BreakerState| match state {
        BreakerState::Closed => 0,
        BreakerState::HalfOpen => 1,
        BreakerState::Open => 2,
    };
    for s in per_device {
        total.submitted += s.submitted;
        total.completed += s.completed;
        total.failed += s.failed;
        total.rejected += s.rejected;
        total.batches += s.batches;
        total.compilations += s.compilations;
        total.queue_depth += s.queue_depth;
        total.cache.hits += s.cache.hits;
        total.cache.misses += s.cache.misses;
        total.cache.evictions += s.cache.evictions;
        total.cache.invalidated += s.cache.invalidated;
        total.cache.entries += s.cache.entries;
        total.cache.capacity += s.cache.capacity;
        total.retries += s.retries;
        total.retry_exhausted += s.retry_exhausted;
        total.timeouts += s.timeouts;
        if severity(s.breaker.state) > severity(total.breaker.state) {
            total.breaker.state = s.breaker.state;
        }
        total.breaker.trips += s.breaker.trips;
        total.breaker.fast_failures += s.breaker.fast_failures;
        total.breaker.consecutive_failures = total
            .breaker
            .consecutive_failures
            .max(s.breaker.consecutive_failures);
        total.drift_events += s.drift_events;
        total.quarantined_qubits += s.quarantined_qubits;
        total.quarantined_links += s.quarantined_links;
        total.degraded += s.degraded;
        total.recovered += s.recovered;
        total.journal_appends += s.journal_appends;
        total.controller_swaps += s.controller_swaps;
        total.controller_reweights += s.controller_reweights;
        total.controller_recompiles += s.controller_recompiles;
        total.latency_p50_ms = total.latency_p50_ms.max(s.latency_p50_ms);
        total.latency_p99_ms = total.latency_p99_ms.max(s.latency_p99_ms);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use edm_serve::queue::Priority;
    use qdevice::presets;

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

    fn small_config() -> FleetConfig {
        FleetConfig {
            serve: ServeConfig {
                threads: 2,
                ..ServeConfig::default()
            },
            ..FleetConfig::default()
        }
    }

    fn three_device_fleet() -> Fleet<DeviceBackend> {
        Fleet::synthesize(
            &[
                (presets::melbourne14(), "melbourne14"),
                (presets::guadalupe16(), "guadalupe16"),
                (presets::tokyo20(), "tokyo20"),
            ],
            7,
            small_config(),
        )
    }

    #[test]
    fn routes_to_best_esp_and_completes() {
        let fleet = three_device_fleet();
        assert_eq!(fleet.num_devices(), 3);
        let candidates = fleet.candidates(&ghz(3));
        assert_eq!(candidates.len(), 3, "all devices can host a 3q circuit");
        assert!(candidates.iter().all(|c| c.healthy));
        assert!(
            candidates.windows(2).all(|w| w[0].score >= w[1].score),
            "candidates must be ESP-descending: {candidates:?}"
        );

        let ticket = fleet.submit(request(ghz(3), 512, 11)).unwrap();
        assert_eq!(ticket.device, candidates[0].device);
        assert_eq!(fleet.placement(ticket.id), Some((ticket.device, ticket.id)));
        assert!(matches!(fleet.poll(ticket.id), Some(JobState::Queued)));
        assert_eq!(fleet.process_all(), 1);
        assert!(matches!(fleet.poll(ticket.id), Some(JobState::Done(_))));
        assert!(fleet.poll(9999).is_none());
    }

    #[test]
    fn circuit_too_large_for_some_devices_routes_to_the_rest() {
        let fleet = three_device_fleet();
        // 16 qubits: melbourne14 (14q) cannot host it; guadalupe16 and
        // tokyo20 can.
        let candidates = fleet.candidates(&ghz(16));
        assert_eq!(candidates.len(), 2);
        assert!(candidates.iter().all(|c| c.device != 0));

        let ticket = fleet.submit(request(ghz(16), 128, 3)).unwrap();
        assert_ne!(ticket.device, 0);
        fleet.process_all();
        assert!(matches!(fleet.poll(ticket.id), Some(JobState::Done(_))));
    }

    #[test]
    fn unmappable_everywhere_is_a_route_error() {
        let fleet = three_device_fleet();
        let err = fleet.submit(request(ghz(24), 128, 3)).unwrap_err();
        assert!(matches!(err, RouteError::Unmappable { .. }), "got {err:?}");
    }

    #[test]
    fn depth_cap_fails_over_to_next_best() {
        let mut config = small_config();
        config.depth_cap = 1;
        let fleet = Fleet::synthesize(
            &[
                (presets::melbourne14(), "melbourne14"),
                (presets::guadalupe16(), "guadalupe16"),
            ],
            7,
            config,
        );
        let first = fleet.submit(request(ghz(3), 64, 1)).unwrap();
        // The best device now sits at the cap, so the next submission must
        // go elsewhere even though the score order is unchanged.
        let second = fleet.submit(request(ghz(3), 64, 2)).unwrap();
        assert_ne!(first.device, second.device);
        fleet.process_all();
        assert!(matches!(fleet.poll(first.id), Some(JobState::Done(_))));
        assert!(matches!(fleet.poll(second.id), Some(JobState::Done(_))));
    }

    #[test]
    fn fleet_ids_are_unique_and_stable_across_devices() {
        let fleet = three_device_fleet();
        let mut ids = std::collections::BTreeSet::new();
        for seed in 0..10 {
            let ticket = fleet.submit(request(ghz(3), 64, seed)).unwrap();
            assert!(ids.insert(ticket.id), "fleet ids must never repeat");
        }
        fleet.process_all();
        for id in ids {
            assert!(matches!(fleet.poll(id), Some(JobState::Done(_))));
        }
    }

    #[test]
    fn aggregate_stats_sums_and_takes_worst() {
        let fleet = three_device_fleet();
        for seed in 0..4 {
            fleet.submit(request(ghz(3), 64, seed)).unwrap();
        }
        fleet.process_all();
        let status = fleet.device_status();
        assert_eq!(status.len(), 3);
        let total = fleet.stats();
        assert_eq!(total.submitted, 4);
        assert_eq!(total.completed, 4);
        assert_eq!(
            total.submitted,
            status.iter().map(|d| d.stats.submitted).sum::<u64>()
        );
        assert_eq!(total.breaker.state, BreakerState::Closed);
    }

    fn live_ist_fleet() -> Fleet<DeviceBackend> {
        let mut config = small_config();
        config.routing = RoutingPolicy::LiveIst;
        Fleet::synthesize(
            &[
                (presets::melbourne14(), "melbourne14"),
                (presets::guadalupe16(), "guadalupe16"),
                (presets::tokyo20(), "tokyo20"),
            ],
            7,
            config,
        )
    }

    #[test]
    fn aggregate_of_one_device_is_that_device() {
        let fleet = three_device_fleet();
        fleet.submit(request(ghz(3), 64, 1)).unwrap();
        fleet.process_all();
        for status in fleet.device_status() {
            assert_eq!(aggregate_stats(&[status.stats]), status.stats);
        }
    }

    #[test]
    fn one_device_fleet_admits_without_scoring() {
        let fleet = Fleet::synthesize(
            &[(presets::melbourne14(), "melbourne14")],
            7,
            small_config(),
        );
        // Too wide for the device: a lone device accepts it and reports
        // the mapping failure at poll, as its bare service would.
        let ticket = fleet.submit(request(ghz(16), 64, 1)).unwrap();
        assert_eq!(ticket.device, 0);
        let first = fleet.submit(request(ghz(3), 64, 1)).unwrap();
        fleet.process_all();
        assert!(matches!(fleet.poll(ticket.id), Some(JobState::Failed(_))));
        assert!(matches!(fleet.poll(first.id), Some(JobState::Done(_))));
        // No scoring compile: the one compile of ghz(3) was a miss.
        assert_eq!(fleet.stats().cache.hits, 0);
    }

    #[test]
    fn circuit_too_wide_to_simulate_fails_alone() {
        // 40 qubits map onto eagle127, but a 2^40-amplitude state does not
        // fit in memory: the job fails with the reason, and the device
        // serves the job behind it.
        let fleet = Fleet::synthesize(&[(presets::eagle127(), "eagle127")], 7, small_config());
        let wide = fleet.submit(request(ghz(40), 64, 1)).unwrap();
        let next = fleet.submit(request(ghz(3), 64, 2)).unwrap();
        fleet.process_all();
        match fleet.poll(wide.id) {
            Some(JobState::Failed(reason)) => {
                assert!(reason.contains("40 qubits"), "{reason}");
                assert!(reason.contains("at most 26"), "{reason}");
            }
            other => panic!("expected Failed, got {other:?}"),
        }
        assert!(matches!(fleet.poll(next.id), Some(JobState::Done(_))));
    }

    #[test]
    fn live_ist_matches_esp_routing_during_warmup() {
        let esp_fleet = three_device_fleet();
        let live_fleet = live_ist_fleet();
        let circuit = ghz(3);
        let esp_candidates = esp_fleet.candidates(&circuit);
        let live_candidates = live_fleet.candidates(&circuit);
        assert_eq!(esp_candidates.len(), live_candidates.len());
        for (a, b) in esp_candidates.iter().zip(&live_candidates) {
            assert_eq!(a.device, b.device);
            // Bit identity, not approximate: the cold quality factor is
            // exactly 1.0, so the scores are the very same floats.
            assert_eq!(a.score.to_bits(), b.score.to_bits());
        }
    }

    #[test]
    fn live_ist_demotes_a_device_that_under_delivers() {
        let fleet = live_ist_fleet();
        let circuit = ghz(3);
        let best = fleet.route(&circuit).unwrap().device;
        // Severe sustained under-delivery on the ESP favorite: promised
        // 0.9, delivered near-uniform. Past warmup the factor clamps at
        // its 0.25 floor, which must push the device below its rivals.
        for _ in 0..8 {
            fleet.inject_quality_observation(best, 0.9, 0.02);
        }
        assert!(fleet.device_quality(best).warmed_up);
        let rerouted = fleet.route(&circuit).unwrap().device;
        assert_ne!(
            rerouted, best,
            "a drift-degraded device must lose the route"
        );
        let ticket = fleet.submit(request(ghz(3), 128, 5)).unwrap();
        assert_eq!(ticket.device, rerouted);
        fleet.process_all();
        assert!(matches!(fleet.poll(ticket.id), Some(JobState::Done(_))));
    }

    #[test]
    fn live_ist_routing_is_a_pure_function_of_the_history() {
        let build = || {
            let fleet = live_ist_fleet();
            for i in 0..12u32 {
                let observed = 0.8 - 0.05 * f64::from(i % 4);
                fleet.inject_quality_observation(i as usize % 3, 0.85, observed);
            }
            fleet
        };
        let a = build();
        let b = build();
        let circuit = ghz(4);
        let ca = a.candidates(&circuit);
        let cb = b.candidates(&circuit);
        assert_eq!(ca.len(), cb.len());
        for (x, y) in ca.iter().zip(&cb) {
            assert_eq!(x.device, y.device);
            assert_eq!(x.score.to_bits(), y.score.to_bits());
            assert_eq!(x.healthy, y.healthy);
        }
    }

    #[test]
    fn bump_calibration_touches_every_device() {
        let fleet = three_device_fleet();
        assert_eq!(fleet.bump_calibration_generation(), 1);
        for status in fleet.device_status() {
            assert_eq!(status.stats.cache.invalidated, 0);
        }
        assert_eq!(fleet.bump_calibration_generation(), 2);
    }
}
