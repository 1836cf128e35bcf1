//! # edm-serve — a job service in front of the EDM pipeline
//!
//! Real deployments (IBMQ-style queues, daily calibration cycles) submit
//! many programs against the same device between calibration updates, so
//! recompiling the full VF2 + ESP ranking per job is massively redundant.
//! This crate puts a long-running service in front of the pipeline:
//!
//! - [`cache`] — memoized compiled ensembles keyed by
//!   `(circuit fingerprint, topology fingerprint, calibration generation)`,
//!   LRU-bounded, with hit/miss/eviction counters,
//! - [`queue`] — a bounded admission queue with priority classes and
//!   reject-with-reason backpressure,
//! - [`dispatch`] — a retry-aware [`Backend`](edm_core::Backend) wrapper
//!   with per-job timeout and bounded exponential backoff on transient
//!   errors, a [`CircuitBreaker`](dispatch::CircuitBreaker) that fails fast
//!   while a backend is down, and the fault-injecting
//!   [`FlakyBackend`](dispatch::FlakyBackend) /
//!   [`ChaosBackend`](dispatch::ChaosBackend) test doubles,
//! - [`journal`] — a JSON-lines write-ahead journal so accepted jobs
//!   survive a service crash and replay bit-identically,
//! - [`framing`] — the incremental line decoder both front ends use, so a
//!   request split across reads reassembles and a malformed frame gets a
//!   reject-with-reason instead of a dropped connection,
//! - [`service`] — the [`JobService`](service::JobService) orchestrator that
//!   coalesces queued jobs into one `execute_batch` dispatch,
//! - [`protocol`] — the JSON-lines request/response types the `edm-serve`
//!   and `edm-fleet` binaries speak,
//! - [`exitcode`] — the sysexits-style process exit codes the binaries
//!   map error classes onto,
//! - [`flags`] — the command-line flag lookup the binaries share.
//!
//! ## Determinism contract
//!
//! Seeds are derived with `qsim::rngstream` exactly as
//! [`EdmRunner`](edm_core::EdmRunner) derives them, so a served job's result
//! is bit-identical to a direct `EdmRunner` run for the same
//! `(circuit, shots, seed)` — batching, caching, and retries included.
//!
//! # Examples
//!
//! ```
//! use edm_serve::queue::{JobRequest, Priority};
//! use edm_serve::service::{JobService, JobState, ServeConfig};
//! use qdevice::{presets, DeviceModel};
//! use qsim::NoisySimulator;
//!
//! let device = DeviceModel::synthesize(presets::melbourne14(), 7);
//! let backend = NoisySimulator::from_device(&device);
//! let mut service = JobService::new(
//!     device.topology().clone(),
//!     device.calibration(),
//!     backend,
//!     ServeConfig::default(),
//! );
//!
//! let mut ghz = qcir::Circuit::new(3, 3);
//! ghz.h(0).cx(0, 1).cx(1, 2).measure_all();
//! let id = service.submit(JobRequest {
//!     circuit: ghz,
//!     shots: 2048,
//!     seed: 7,
//!     priority: Priority::Normal,
//! })?;
//! service.process_pending();
//! assert!(matches!(service.poll(id), Some(JobState::Done(_))));
//! # Ok::<(), edm_serve::queue::AdmitError>(())
//! ```

#![deny(missing_docs)]

pub mod cache;
pub mod clock;
pub mod dispatch;
pub mod exitcode;
pub mod flags;
pub mod framing;
pub mod journal;
pub mod protocol;
pub mod queue;
pub mod service;
pub mod stats;
pub mod validate;
