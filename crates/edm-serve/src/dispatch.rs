//! The retry-aware dispatcher: a [`Backend`] wrapper that survives
//! transient failures.
//!
//! Real backends drop jobs for reasons that have nothing to do with the
//! circuit — queue contention, lost links, worker restarts. The
//! [`Dispatcher`] retries exactly those (`SimError::is_transient`) with
//! bounded exponential backoff under a per-job timeout, and passes every
//! deterministic circuit error straight through. Because a retry reuses the
//! identical `(circuit, shots, seed)`, a job that eventually succeeds is
//! bit-identical to one that succeeded first try.

use crate::clock::{Clock, SystemClock};
use edm_core::{Backend, BatchJob};
use qsim::{Counts, SimError};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Bounds on the dispatcher's retry behavior.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries after the initial attempt (0 disables retrying).
    pub max_retries: u32,
    /// Backoff before the first retry, in milliseconds; doubles per retry.
    pub base_backoff_ms: u64,
    /// Upper bound on any single backoff.
    pub max_backoff_ms: u64,
    /// Wall-clock budget per job, measured from dispatch; a retry whose
    /// backoff would overrun it is not attempted.
    pub job_timeout_ms: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            base_backoff_ms: 10,
            max_backoff_ms: 1_000,
            job_timeout_ms: 30_000,
        }
    }
}

impl RetryPolicy {
    /// The backoff before retry `k` (1-based): `base * 2^(k-1)`, capped at
    /// `max_backoff_ms`.
    pub fn backoff_ms(&self, k: u32) -> u64 {
        let doubled = self
            .base_backoff_ms
            .saturating_mul(1u64.checked_shl(k.saturating_sub(1)).unwrap_or(u64::MAX));
        doubled.min(self.max_backoff_ms)
    }
}

/// A [`Backend`] wrapper that retries transient failures.
///
/// Deterministic circuit errors pass through untouched. Counters
/// ([`Dispatcher::retries`], [`Dispatcher::exhausted`],
/// [`Dispatcher::timeouts`]) feed the service stats.
pub struct Dispatcher<B> {
    inner: B,
    policy: RetryPolicy,
    clock: Arc<dyn Clock>,
    retries: AtomicU64,
    exhausted: AtomicU64,
    timeouts: AtomicU64,
}

impl<B: Backend> Dispatcher<B> {
    /// Wraps `inner` under `policy` with the real system clock.
    pub fn new(inner: B, policy: RetryPolicy) -> Self {
        Dispatcher::with_clock(inner, policy, Arc::new(SystemClock::new()))
    }

    /// Wraps `inner` with an explicit clock (tests pass
    /// [`ManualClock`](crate::clock::ManualClock)).
    pub fn with_clock(inner: B, policy: RetryPolicy, clock: Arc<dyn Clock>) -> Self {
        Dispatcher {
            inner,
            policy,
            clock,
            retries: AtomicU64::new(0),
            exhausted: AtomicU64::new(0),
            timeouts: AtomicU64::new(0),
        }
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &B {
        &self.inner
    }

    /// The retry policy in force.
    pub fn policy(&self) -> &RetryPolicy {
        &self.policy
    }

    /// Total retry attempts performed (not jobs retried).
    pub fn retries(&self) -> u64 {
        self.retries.load(Ordering::SeqCst)
    }

    /// Jobs that failed even after the full retry budget.
    pub fn exhausted(&self) -> u64 {
        self.exhausted.load(Ordering::SeqCst)
    }

    /// Jobs whose retrying was cut short by the per-job timeout.
    pub fn timeouts(&self) -> u64 {
        self.timeouts.load(Ordering::SeqCst)
    }

    /// Retries a transiently failed job, each attempt a one-job batch,
    /// until success, a deterministic error, retry exhaustion, or the
    /// deadline. A job's result does not depend on its batch mates, so a
    /// late success is bit-identical to a first-try success.
    fn retry(
        &self,
        deadline_ms: u64,
        mut last: SimError,
        job: &BatchJob<'_>,
    ) -> Result<Counts, SimError> {
        for k in 1..=self.policy.max_retries {
            let backoff = self.policy.backoff_ms(k);
            if self.clock.now_ms().saturating_add(backoff) > deadline_ms {
                self.timeouts.fetch_add(1, Ordering::SeqCst);
                edm_telemetry::counter!(
                    "edm_serve_retry_timeouts_total",
                    "Jobs whose retrying was cut short by the per-job timeout"
                )
                .inc();
                return Err(SimError::BackendUnavailable {
                    reason: "per-job timeout exceeded before the retry budget",
                });
            }
            self.clock.sleep_ms(backoff);
            self.retries.fetch_add(1, Ordering::SeqCst);
            edm_telemetry::counter!(
                "edm_serve_retries_total",
                "Retry attempts performed by the dispatcher"
            )
            .inc();
            let attempt = self
                .inner
                .execute_batch(std::slice::from_ref(job), 1)
                .pop()
                .expect("one job in, one result out");
            match attempt {
                Ok(counts) => return Ok(counts),
                Err(e) if !e.is_transient() => return Err(e),
                Err(e) => last = e,
            }
        }
        self.exhausted.fetch_add(1, Ordering::SeqCst);
        edm_telemetry::counter!(
            "edm_serve_retry_exhausted_total",
            "Jobs that failed even after the full retry budget"
        )
        .inc();
        Err(last)
    }
}

impl<B: Backend> Backend for Dispatcher<B> {
    fn execute_batch(
        &self,
        jobs: &[BatchJob<'_>],
        threads: usize,
    ) -> Vec<Result<Counts, SimError>> {
        // One parallel pass through the inner backend, then serial retries
        // for the (rare) transient stragglers. The timeout window is
        // measured from batch dispatch.
        let deadline = self
            .clock
            .now_ms()
            .saturating_add(self.policy.job_timeout_ms);
        let mut out = self.inner.execute_batch(jobs, threads);
        for (job, slot) in jobs.iter().zip(out.iter_mut()) {
            if let Err(e) = slot {
                if e.is_transient() {
                    *slot = self.retry(deadline, e.clone(), job);
                }
            }
        }
        out
    }
}

/// A fault-injecting [`Backend`] test double.
///
/// Fails each distinct job (keyed by seed) with a transient
/// [`SimError::BackendUnavailable`] for its first `failures_per_job`
/// attempts, then delegates to the wrapped backend. Used to prove the
/// dispatcher's retry and give-up behavior; exported so downstream crates
/// can fault-inject their own integration tests.
pub struct FlakyBackend<B> {
    inner: B,
    failures_per_job: u32,
    attempts: Mutex<BTreeMap<u64, u32>>,
}

impl<B: Backend> FlakyBackend<B> {
    /// Wraps `inner`, injecting `failures_per_job` transient failures per
    /// distinct job seed.
    pub fn new(inner: B, failures_per_job: u32) -> Self {
        FlakyBackend {
            inner,
            failures_per_job,
            attempts: Mutex::new(BTreeMap::new()),
        }
    }

    /// Total injected failures so far.
    ///
    /// # Panics
    ///
    /// Panics if the internal lock is poisoned.
    pub fn injected(&self) -> u64 {
        self.attempts
            .lock()
            .expect("attempts lock poisoned")
            .values()
            .map(|&n| u64::from(n.min(self.failures_per_job)))
            .sum()
    }

    fn inject(&self, seed: u64) -> bool {
        let mut attempts = self.attempts.lock().expect("attempts lock poisoned");
        let n = attempts.entry(seed).or_insert(0);
        let hit = *n < self.failures_per_job;
        if hit {
            *n += 1;
        }
        hit
    }
}

impl<B: Backend> Backend for FlakyBackend<B> {
    fn execute_batch(
        &self,
        jobs: &[BatchJob<'_>],
        threads: usize,
    ) -> Vec<Result<Counts, SimError>> {
        execute_survivors(&self.inner, jobs, threads, "injected fault", |seed| {
            self.inject(seed)
        })
    }
}

/// The batch path of the fault injectors: fails each job whose seed
/// `inject` picks (in job order) with a transient `reason`, and runs the
/// rest on `inner` as one sub-batch. Per-job batch results must not depend
/// on batch composition, so every surviving job stays bit-identical to a
/// fault-free full batch — which is exactly what the dispatcher and chaos
/// tests assert.
fn execute_survivors<B: Backend>(
    inner: &B,
    jobs: &[BatchJob<'_>],
    threads: usize,
    reason: &'static str,
    inject: impl Fn(u64) -> bool,
) -> Vec<Result<Counts, SimError>> {
    let injected: Vec<bool> = jobs.iter().map(|job| inject(job.seed)).collect();
    let survivors: Vec<BatchJob<'_>> = jobs
        .iter()
        .zip(&injected)
        .filter(|(_, &inj)| !inj)
        .map(|(job, _)| *job)
        .collect();
    let mut passed = inner.execute_batch(&survivors, threads).into_iter();
    injected
        .into_iter()
        .map(|inj| {
            if inj {
                Err(SimError::BackendUnavailable { reason })
            } else {
                passed.next().expect("one result per surviving job")
            }
        })
        .collect()
}

/// Circuit-breaker tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive transient failures that trip the breaker open.
    pub failure_threshold: u32,
    /// How long an open breaker fails fast before admitting one half-open
    /// probe, in clock milliseconds.
    pub cooldown_ms: u64,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            failure_threshold: 5,
            cooldown_ms: 5_000,
        }
    }
}

/// Where a [`CircuitBreaker`] currently is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum BreakerState {
    /// Calls pass through; consecutive transient failures are counted.
    Closed,
    /// Calls fail fast until the cooldown elapses.
    Open,
    /// One probe call is in flight; its outcome decides Closed vs Open.
    HalfOpen,
}

/// Counter snapshot of one breaker, folded into the service stats.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct BreakerStats {
    /// The admission state right now.
    pub state: BreakerState,
    /// Times the breaker tripped open (including a failed half-open probe
    /// re-opening it).
    pub trips: u64,
    /// Calls refused without touching the backend while open.
    pub fast_failures: u64,
    /// Transient failures since the last success.
    pub consecutive_failures: u32,
}

struct BreakerCore {
    state: BreakerState,
    consecutive_failures: u32,
    opened_at_ms: u64,
}

/// A [`Backend`] wrapper that stops hammering a dead backend.
///
/// After `failure_threshold` *consecutive* transient failures the breaker
/// opens and every call fails fast with a transient
/// [`SimError::BackendUnavailable`] — no backend round-trip, no retry
/// storm. Once `cooldown_ms` elapses, exactly one probe call is admitted
/// (half-open); its success closes the breaker, another transient failure
/// re-opens it for a fresh cooldown. Deterministic circuit errors neither
/// trip nor hold the breaker open: they prove the backend is alive and
/// reset the failure streak.
///
/// Layering: put the breaker *outside* the [`Dispatcher`]
/// (`CircuitBreaker<Dispatcher<B>>`, as
/// [`JobService`](crate::service::JobService) does) so an open breaker
/// skips the whole backoff schedule instead of sleeping through it.
pub struct CircuitBreaker<B> {
    inner: B,
    config: BreakerConfig,
    clock: Arc<dyn Clock>,
    core: Mutex<BreakerCore>,
    trips: AtomicU64,
    fast_failures: AtomicU64,
}

impl<B: Backend> CircuitBreaker<B> {
    /// Wraps `inner` under `config` with the real system clock.
    pub fn new(inner: B, config: BreakerConfig) -> Self {
        CircuitBreaker::with_clock(inner, config, Arc::new(SystemClock::new()))
    }

    /// Wraps `inner` with an explicit clock (tests pass
    /// [`ManualClock`](crate::clock::ManualClock)).
    pub fn with_clock(inner: B, config: BreakerConfig, clock: Arc<dyn Clock>) -> Self {
        CircuitBreaker {
            inner,
            config,
            clock,
            core: Mutex::new(BreakerCore {
                state: BreakerState::Closed,
                consecutive_failures: 0,
                opened_at_ms: 0,
            }),
            trips: AtomicU64::new(0),
            fast_failures: AtomicU64::new(0),
        }
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &B {
        &self.inner
    }

    /// The breaker tuning in force.
    pub fn config(&self) -> &BreakerConfig {
        &self.config
    }

    /// Counter snapshot for the stats endpoint.
    ///
    /// # Panics
    ///
    /// Panics if the internal lock is poisoned.
    pub fn stats(&self) -> BreakerStats {
        let core = self.core.lock().expect("breaker lock poisoned");
        BreakerStats {
            state: core.state,
            trips: self.trips.load(Ordering::SeqCst),
            fast_failures: self.fast_failures.load(Ordering::SeqCst),
            consecutive_failures: core.consecutive_failures,
        }
    }

    /// The admission state right now (an elapsed cooldown still reports
    /// `Open` until a call actually probes).
    ///
    /// # Panics
    ///
    /// Panics if the internal lock is poisoned.
    pub fn state(&self) -> BreakerState {
        self.core.lock().expect("breaker lock poisoned").state
    }

    /// Decides whether a call may reach the backend, performing the
    /// `Open -> HalfOpen` transition when the cooldown has elapsed.
    fn admit(&self) -> bool {
        let mut core = self.core.lock().expect("breaker lock poisoned");
        match core.state {
            BreakerState::Closed => true,
            BreakerState::Open => {
                if self.clock.now_ms() >= core.opened_at_ms.saturating_add(self.config.cooldown_ms)
                {
                    core.state = BreakerState::HalfOpen;
                    true
                } else {
                    false
                }
            }
            // A probe is already in flight; don't pile on.
            BreakerState::HalfOpen => false,
        }
    }

    /// Folds one backend outcome into the breaker state. Anything that is
    /// not a transient failure — success or deterministic error — proves
    /// the backend responded and resets the streak.
    fn observe<T>(&self, outcome: &Result<T, SimError>) {
        let transient_failure = matches!(outcome, Err(e) if e.is_transient());
        let mut core = self.core.lock().expect("breaker lock poisoned");
        if !transient_failure {
            core.state = BreakerState::Closed;
            core.consecutive_failures = 0;
            return;
        }
        core.consecutive_failures = core.consecutive_failures.saturating_add(1);
        let trip = match core.state {
            // A failed probe re-opens immediately.
            BreakerState::HalfOpen => true,
            _ => core.consecutive_failures >= self.config.failure_threshold,
        };
        if trip && core.state != BreakerState::Open {
            core.state = BreakerState::Open;
            core.opened_at_ms = self.clock.now_ms();
            self.trips.fetch_add(1, Ordering::SeqCst);
            edm_telemetry::counter!(
                "edm_serve_breaker_trips_total",
                "Times the circuit breaker tripped open"
            )
            .inc();
        }
    }

    fn fail_fast(&self) -> SimError {
        self.fast_failures.fetch_add(1, Ordering::SeqCst);
        edm_telemetry::counter!(
            "edm_serve_breaker_fast_failures_total",
            "Calls refused without touching the backend while the breaker was open"
        )
        .inc();
        SimError::BackendUnavailable {
            reason: "circuit breaker open; backend cooling down",
        }
    }
}

impl<B: Backend> Backend for CircuitBreaker<B> {
    fn execute_batch(
        &self,
        jobs: &[BatchJob<'_>],
        threads: usize,
    ) -> Vec<Result<Counts, SimError>> {
        if !self.admit() {
            return jobs.iter().map(|_| Err(self.fail_fast())).collect();
        }
        let out = self.inner.execute_batch(jobs, threads);
        // Fold outcomes in job order so "consecutive" means the same thing
        // it would have meant for sequential execution.
        for slot in &out {
            self.observe(slot);
        }
        out
    }
}

/// A deterministic chaos-injecting [`Backend`] test double.
///
/// Each *attempt* at a job fails transiently with probability
/// `fail_percent` (decided by hashing `(salt, seed, attempt number)` with
/// the same SplitMix64 fork the seed schedule uses, so chaos runs replay
/// exactly). Seeds registered via [`ChaosBackend::kill_seed`] fail
/// transiently on every attempt — the dispatcher's retries exhaust and the
/// member fails permanently, which is how the chaos suite produces a
/// degraded ensemble on demand.
pub struct ChaosBackend<B> {
    inner: B,
    fail_percent: u32,
    salt: u64,
    dead_seeds: std::collections::BTreeSet<u64>,
    attempts: Mutex<BTreeMap<u64, u64>>,
    injected: AtomicU64,
}

impl<B: Backend> ChaosBackend<B> {
    /// Wraps `inner`, failing roughly `fail_percent`% of attempts. The
    /// `salt` picks which attempts; two chaos backends with the same salt
    /// inject identically.
    ///
    /// # Panics
    ///
    /// Panics if `fail_percent > 100`.
    pub fn new(inner: B, fail_percent: u32, salt: u64) -> Self {
        assert!(fail_percent <= 100, "fail_percent is a percentage");
        ChaosBackend {
            inner,
            fail_percent,
            salt,
            dead_seeds: std::collections::BTreeSet::new(),
            attempts: Mutex::new(BTreeMap::new()),
            injected: AtomicU64::new(0),
        }
    }

    /// Marks a job seed as permanently dead: every attempt fails
    /// transiently, so retries never rescue it.
    pub fn kill_seed(&mut self, seed: u64) {
        self.dead_seeds.insert(seed);
    }

    /// Total injected failures so far.
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::SeqCst)
    }

    fn inject(&self, seed: u64) -> bool {
        if self.dead_seeds.contains(&seed) {
            self.injected.fetch_add(1, Ordering::SeqCst);
            return true;
        }
        let attempt = {
            let mut attempts = self.attempts.lock().expect("attempts lock poisoned");
            let n = attempts.entry(seed).or_insert(0);
            *n += 1;
            *n
        };
        let roll = qsim::rngstream::fork(self.salt ^ seed, attempt) % 100;
        let hit = roll < u64::from(self.fail_percent);
        if hit {
            self.injected.fetch_add(1, Ordering::SeqCst);
        }
        hit
    }
}

impl<B: Backend> Backend for ChaosBackend<B> {
    fn execute_batch(
        &self,
        jobs: &[BatchJob<'_>],
        threads: usize,
    ) -> Vec<Result<Counts, SimError>> {
        execute_survivors(&self.inner, jobs, threads, "injected chaos", |seed| {
            self.inject(seed)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;
    use qcir::Circuit;

    /// Succeeds every job with a fixed all-zeros histogram.
    struct OkBackend;

    impl Backend for OkBackend {
        fn execute_batch(&self, jobs: &[BatchJob<'_>], _: usize) -> Vec<Result<Counts, SimError>> {
            jobs.iter()
                .map(|job| {
                    let mut counts = Counts::new(job.circuit.num_clbits());
                    counts.record_n(0, job.shots);
                    Ok(counts)
                })
                .collect()
        }
    }

    /// Fails every job with a transient error, forever.
    struct DownBackend;

    impl Backend for DownBackend {
        fn execute_batch(&self, jobs: &[BatchJob<'_>], _: usize) -> Vec<Result<Counts, SimError>> {
            jobs.iter()
                .map(|_| {
                    Err(SimError::BackendUnavailable {
                        reason: "backend down",
                    })
                })
                .collect()
        }
    }

    /// Fails every job with a deterministic circuit error.
    struct BadCircuitBackend;

    impl Backend for BadCircuitBackend {
        fn execute_batch(&self, jobs: &[BatchJob<'_>], _: usize) -> Vec<Result<Counts, SimError>> {
            jobs.iter()
                .map(|_| Err(SimError::UnsupportedGate { name: "ccx" }))
                .collect()
        }
    }

    /// Runs one job through `backend` as a one-job batch.
    fn run_one(
        backend: &impl Backend,
        circuit: &Circuit,
        shots: u64,
        seed: u64,
    ) -> Result<Counts, SimError> {
        backend
            .execute_batch(&[BatchJob::new(circuit, shots, seed)], 1)
            .pop()
            .expect("one job in, one result out")
    }

    fn circuit() -> Circuit {
        let mut c = Circuit::new(1, 1);
        c.h(0).measure(0, 0);
        c
    }

    fn policy() -> RetryPolicy {
        RetryPolicy {
            max_retries: 3,
            base_backoff_ms: 10,
            max_backoff_ms: 1_000,
            job_timeout_ms: 30_000,
        }
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let p = RetryPolicy {
            base_backoff_ms: 10,
            max_backoff_ms: 50,
            ..policy()
        };
        assert_eq!(p.backoff_ms(1), 10);
        assert_eq!(p.backoff_ms(2), 20);
        assert_eq!(p.backoff_ms(3), 40);
        assert_eq!(p.backoff_ms(4), 50);
        assert_eq!(p.backoff_ms(63), 50);
        assert_eq!(p.backoff_ms(200), 50);
    }

    #[test]
    fn flaky_job_succeeds_after_retries() {
        let clock = Arc::new(ManualClock::new());
        let flaky = FlakyBackend::new(OkBackend, 2);
        let d = Dispatcher::with_clock(flaky, policy(), clock.clone());
        let counts = run_one(&d, &circuit(), 64, 7).unwrap();
        assert_eq!(counts.shots(), 64);
        assert_eq!(d.retries(), 2);
        assert_eq!(d.exhausted(), 0);
        // Exponential schedule: 10ms then 20ms.
        assert_eq!(clock.sleeps(), vec![10, 20]);
        assert_eq!(d.inner().injected(), 2);
    }

    #[test]
    fn budget_exhaustion_surfaces_terminal_error() {
        let clock = Arc::new(ManualClock::new());
        let d = Dispatcher::with_clock(DownBackend, policy(), clock.clone());
        let err = run_one(&d, &circuit(), 64, 7).unwrap_err();
        assert!(err.is_transient());
        assert!(err.to_string().contains("backend down"));
        assert_eq!(d.retries(), 3);
        assert_eq!(d.exhausted(), 1);
        assert_eq!(clock.sleeps(), vec![10, 20, 40]);
    }

    #[test]
    fn deterministic_errors_pass_through_without_retry() {
        let clock = Arc::new(ManualClock::new());
        let d = Dispatcher::with_clock(BadCircuitBackend, policy(), clock.clone());
        let err = run_one(&d, &circuit(), 64, 7).unwrap_err();
        assert_eq!(err, SimError::UnsupportedGate { name: "ccx" });
        assert_eq!(d.retries(), 0);
        assert!(clock.sleeps().is_empty());
    }

    #[test]
    fn per_job_timeout_cuts_retrying_short() {
        let clock = Arc::new(ManualClock::new());
        let p = RetryPolicy {
            max_retries: 10,
            base_backoff_ms: 100,
            max_backoff_ms: 10_000,
            job_timeout_ms: 150,
        };
        let d = Dispatcher::with_clock(DownBackend, p, clock.clone());
        let err = run_one(&d, &circuit(), 64, 7).unwrap_err();
        assert!(err.to_string().contains("timeout"));
        // First retry (100ms backoff) fits the 150ms budget; the second
        // (200ms) would overrun it and is never slept.
        assert_eq!(d.retries(), 1);
        assert_eq!(d.timeouts(), 1);
        assert_eq!(clock.sleeps(), vec![100]);
    }

    #[test]
    fn batch_retries_only_failed_jobs_bit_identically() {
        let clock = Arc::new(ManualClock::new());
        // Seed 5 fails twice; seed 6 never fails.
        let flaky = FlakyBackend::new(OkBackend, 2);
        {
            // Pre-burn seed 6's failures so only seed 5 is flaky.
            let mut attempts = flaky.attempts.lock().unwrap();
            attempts.insert(6, 2);
        }
        let d = Dispatcher::with_clock(flaky, policy(), clock.clone());
        let c = circuit();
        let jobs = [BatchJob::new(&c, 32, 5), BatchJob::new(&c, 64, 6)];
        let out = d.execute_batch(&jobs, 1);
        assert_eq!(out[0].as_ref().unwrap().shots(), 32);
        assert_eq!(out[1].as_ref().unwrap().shots(), 64);
        assert_eq!(d.retries(), 2);
        // The retried result matches a clean backend bit for bit.
        let clean = run_one(&OkBackend, &c, 32, 5).unwrap();
        assert_eq!(out[0].as_ref().unwrap(), &clean);
    }

    #[test]
    fn zero_max_retries_disables_retrying() {
        let clock = Arc::new(ManualClock::new());
        let p = RetryPolicy {
            max_retries: 0,
            ..policy()
        };
        let d = Dispatcher::with_clock(DownBackend, p, clock.clone());
        assert!(run_one(&d, &circuit(), 8, 1).is_err());
        assert_eq!(d.retries(), 0);
        assert_eq!(d.exhausted(), 1);
    }

    fn breaker_config() -> BreakerConfig {
        BreakerConfig {
            failure_threshold: 3,
            cooldown_ms: 100,
        }
    }

    #[test]
    fn breaker_trips_after_consecutive_transient_failures() {
        let clock = Arc::new(ManualClock::new());
        let b = CircuitBreaker::with_clock(DownBackend, breaker_config(), clock.clone());
        let c = circuit();
        for _ in 0..3 {
            assert!(run_one(&b, &c, 8, 1).is_err());
        }
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.stats().trips, 1);
        // While open, calls fail fast without touching the backend.
        let err = run_one(&b, &c, 8, 1).unwrap_err();
        assert!(err.is_transient());
        assert!(err.to_string().contains("circuit breaker open"));
        assert_eq!(b.stats().fast_failures, 1);
    }

    #[test]
    fn half_open_probe_closes_on_success() {
        let clock = Arc::new(ManualClock::new());
        // Fails exactly 3 attempts (keyed on seed 1), then recovers.
        let flaky = FlakyBackend::new(OkBackend, 3);
        let b = CircuitBreaker::with_clock(flaky, breaker_config(), clock.clone());
        let c = circuit();
        for _ in 0..3 {
            assert!(run_one(&b, &c, 8, 1).is_err());
        }
        assert_eq!(b.state(), BreakerState::Open);
        // Cooldown not elapsed: still failing fast.
        clock.advance_ms(50);
        assert!(run_one(&b, &c, 8, 1).is_err());
        assert_eq!(b.stats().fast_failures, 1);
        // Cooldown elapsed: the probe goes through and closes the breaker.
        clock.advance_ms(50);
        assert!(run_one(&b, &c, 8, 1).is_ok());
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.stats().consecutive_failures, 0);
    }

    #[test]
    fn failed_probe_reopens_for_a_fresh_cooldown() {
        let clock = Arc::new(ManualClock::new());
        let b = CircuitBreaker::with_clock(DownBackend, breaker_config(), clock.clone());
        let c = circuit();
        for _ in 0..3 {
            assert!(run_one(&b, &c, 8, 1).is_err());
        }
        clock.advance_ms(100);
        // The probe reaches the (still dead) backend and re-opens.
        assert!(run_one(&b, &c, 8, 1).is_err());
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.stats().trips, 2);
        // The fresh cooldown starts at the probe, not the original trip.
        clock.advance_ms(50);
        let err = run_one(&b, &c, 8, 1).unwrap_err();
        assert!(err.to_string().contains("circuit breaker open"));
    }

    #[test]
    fn deterministic_errors_do_not_trip_the_breaker() {
        let clock = Arc::new(ManualClock::new());
        let b = CircuitBreaker::with_clock(BadCircuitBackend, breaker_config(), clock);
        let c = circuit();
        for _ in 0..10 {
            assert!(run_one(&b, &c, 8, 1).is_err());
        }
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.stats().trips, 0);
    }

    #[test]
    fn success_resets_the_failure_streak() {
        let clock = Arc::new(ManualClock::new());
        // Each fresh seed fails twice then succeeds — never 3 in a row on
        // the streak counter because each success resets it.
        let flaky = FlakyBackend::new(OkBackend, 2);
        let b = CircuitBreaker::with_clock(flaky, breaker_config(), clock);
        let c = circuit();
        for seed in 0..4 {
            assert!(run_one(&b, &c, 8, seed).is_err());
            assert!(run_one(&b, &c, 8, seed).is_err());
            assert!(run_one(&b, &c, 8, seed).is_ok());
        }
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.stats().trips, 0);
    }

    #[test]
    fn open_breaker_fails_a_whole_batch_fast() {
        let clock = Arc::new(ManualClock::new());
        let b = CircuitBreaker::with_clock(DownBackend, breaker_config(), clock);
        let c = circuit();
        let jobs = [BatchJob::new(&c, 8, 1), BatchJob::new(&c, 8, 2)];
        // Trip via a batch: 2 failures, then 1 more in the next batch.
        b.execute_batch(&jobs, 1);
        assert_eq!(b.stats().consecutive_failures, 2);
        assert!(run_one(&b, &c, 8, 3).is_err());
        assert_eq!(b.state(), BreakerState::Open);
        let out = b.execute_batch(&jobs, 1);
        assert_eq!(out.len(), 2);
        for slot in &out {
            assert!(slot.as_ref().unwrap_err().to_string().contains("breaker"));
        }
        assert_eq!(b.stats().fast_failures, 2);
    }

    #[test]
    fn chaos_injection_is_deterministic_and_roughly_calibrated() {
        let a = ChaosBackend::new(OkBackend, 30, 99);
        let b = ChaosBackend::new(OkBackend, 30, 99);
        let c = circuit();
        let mut fails = 0;
        for seed in 0..200 {
            let ra = run_one(&a, &c, 8, seed);
            let rb = run_one(&b, &c, 8, seed);
            assert_eq!(
                ra.is_err(),
                rb.is_err(),
                "same salt must inject identically"
            );
            fails += u32::from(ra.is_err());
        }
        // ~30% of 200; generous bounds, the point is "nonzero and not all".
        assert!((30..90).contains(&fails), "got {fails} failures");
        assert_eq!(a.injected(), u64::from(fails));
    }

    #[test]
    fn dead_seeds_fail_every_attempt_but_others_recover() {
        let mut chaos = ChaosBackend::new(OkBackend, 0, 1);
        chaos.kill_seed(42);
        let d = Dispatcher::with_clock(chaos, policy(), Arc::new(ManualClock::new()));
        let c = circuit();
        // The dead seed exhausts the dispatcher's whole retry budget.
        let err = run_one(&d, &c, 8, 42).unwrap_err();
        assert!(err.is_transient());
        assert_eq!(d.retries(), 3);
        assert_eq!(d.exhausted(), 1);
        // A live seed sails through (0% ambient chaos here).
        assert!(run_one(&d, &c, 8, 43).is_ok());
    }

    #[test]
    fn chaos_batch_survivors_are_bit_identical_to_clean_runs() {
        use qsim::NoisySimulator;
        let device = qdevice::DeviceModel::synthesize(qdevice::presets::melbourne14(), 3);
        let chaos = ChaosBackend::new(NoisySimulator::from_device(&device), 50, 7);
        let clean = NoisySimulator::from_device(&device);
        let mut c = Circuit::new(2, 2);
        c.h(0).cx(0, 1).measure_all();
        let jobs: Vec<BatchJob<'_>> = (0..8).map(|seed| BatchJob::new(&c, 128, seed)).collect();
        let chaotic = chaos.execute_batch(&jobs, 2);
        let reference = clean.execute_batch(&jobs, 2);
        let mut survivors = 0;
        for (got, want) in chaotic.iter().zip(&reference) {
            if let Ok(counts) = got {
                assert_eq!(counts, want.as_ref().unwrap());
                survivors += 1;
            }
        }
        assert!(survivors > 0, "50% chaos should leave some survivors");
    }
}
