//! # edm-fleet — variability-aware fleet serving for the EDM pipeline
//!
//! The paper's argument — route work where predicted success probability
//! is highest, and diversify so mistakes decorrelate — applied one level
//! up from qubit mappings: a fleet of heterogeneous virtual devices
//! (distinct topology presets and calibration snapshots), each wrapping
//! its own full [`JobService`](edm_serve::service::JobService) stack, fed
//! by thousands of concurrent JSON-lines connections.
//!
//! - [`backend`] — [`DeviceBackend`](backend::DeviceBackend), an owning
//!   [`Backend`](edm_core::Backend) over a device model (breaks the
//!   borrow cycle a long-lived fleet would otherwise have),
//! - [`fleet`] — the [`Fleet`](fleet::Fleet) scheduler: per-circuit ESP
//!   scoring across devices (optionally corrected by each device's live
//!   answer-quality estimator under
//!   [`RoutingPolicy::LiveIst`](fleet::RoutingPolicy)), deterministic
//!   tie-breaking, breaker/quarantine/depth-aware failover, fleet-wide
//!   job ids,
//! - [`server`] — the sharded non-blocking connection layer
//!   ([`FleetServer`](server::FleetServer)): `std::net` readiness polling
//!   (no async runtime), per-connection framing via
//!   [`LineFramer`](edm_serve::framing::LineFramer), write buffering with
//!   per-connection backpressure, per-device executor threads — plus the
//!   request path ([`frame_to_request`](server::frame_to_request),
//!   [`handle_request`](server::handle_request),
//!   [`encode_response`](server::encode_response)) the `edm-serve`
//!   stdin/stdout transport shares over a one-device fleet,
//! - [`startup`] — flag-to-config, telemetry, and journal start-up shared
//!   by the `edm-serve` and `edm-fleet` binaries.
//!
//! ## Determinism contract
//!
//! Routing picks a device but never rewrites the request, so a
//! fleet-routed result is bit-identical to a direct single-device
//! [`JobService`](edm_serve::service::JobService) run on the chosen device
//! with the same `(circuit, shots, seed)` — see DESIGN.md §7 and §12.
//!
//! # Examples
//!
//! ```
//! use edm_fleet::fleet::{Fleet, FleetConfig};
//! use edm_serve::queue::{JobRequest, Priority};
//! use edm_serve::service::JobState;
//! use qdevice::presets;
//!
//! let fleet = Fleet::synthesize(
//!     &[
//!         (presets::melbourne14(), "melbourne14"),
//!         (presets::tokyo20(), "tokyo20"),
//!     ],
//!     42,
//!     FleetConfig::default(),
//! );
//! let mut ghz = qcir::Circuit::new(3, 3);
//! ghz.h(0).cx(0, 1).cx(1, 2).measure_all();
//! let ticket = fleet.submit(JobRequest {
//!     circuit: ghz,
//!     shots: 1024,
//!     seed: 7,
//!     priority: Priority::Normal,
//! })?;
//! fleet.process_all();
//! assert!(matches!(fleet.poll(ticket.id), Some(JobState::Done(_))));
//! # Ok::<(), edm_fleet::fleet::RouteError>(())
//! ```

#![deny(missing_docs)]

pub mod backend;
pub mod fleet;
pub mod server;
pub mod startup;
