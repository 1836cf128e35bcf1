//! # edm-core — Ensemble of Diverse Mappings
//!
//! The primary contribution of *"Ensemble of Diverse Mappings: Improving
//! Reliability of Quantum Computers by Orchestrating Dissimilar Mistakes"*
//! (Tannu & Qureshi, MICRO 2019), reproduced in Rust.
//!
//! NISQ machines infer a program's answer from thousands of noisy trials.
//! Running every trial on the single best qubit mapping exposes all of them
//! to the *same* correlated errors, letting one wrong answer dominate. EDM
//! instead splits the trials across the top-K isomorphic mappings — each
//! making *different* mistakes — and merges the output distributions, which
//! attenuates correlated wrong answers and amplifies the correct one.
//!
//! - [`ensemble`](EdmRunner) — ensemble construction (VF2 + ESP ranking)
//!   and the [`EdmRunner`] orchestrator,
//! - [`wedm`] — divergence-weighted merging (§6),
//! - [`dist`] / [`ProbDist`] — the distribution algebra (KL divergence,
//!   merging, entropy; Appendix B),
//! - [`metrics`] — PST and Inference Strength (§4.3),
//! - [`model`] — the buckets-and-balls correlated-error analysis
//!   (Appendix A),
//! - [`filter`] — the footnote-2 uniformity filter,
//! - [`controller`] — the closed-loop feedback controller that reweights,
//!   swaps, and recompiles ensemble members as devices drift.
//!
//! # Examples
//!
//! ```
//! use qdevice::{presets, DeviceModel};
//! use qmap::Transpiler;
//! use qsim::NoisySimulator;
//! use edm_core::{metrics, EdmRunner, EnsembleConfig};
//!
//! // A synthetic IBMQ-14 with correlated error channels.
//! let device = DeviceModel::synthesize(presets::melbourne14(), 3);
//! let cal = device.calibration();
//! let transpiler = Transpiler::new(device.topology(), &cal);
//! let backend = NoisySimulator::from_device(&device);
//!
//! // Run Bernstein-Vazirani with a 4-mapping ensemble.
//! let runner = EdmRunner::new(&transpiler, &backend, EnsembleConfig::default());
//! let bv = qbench::bv::bv(0b101, 3);
//! let result = runner.run(&bv, 4096, 7)?;
//!
//! // Compare inference strength: merged ensemble vs the best single mapping.
//! let ist_edm = result.ist_edm(0b101);
//! let ist_best = metrics::ist(&result.best_estimated().dist, 0b101);
//! assert!(ist_edm > 0.0 && ist_best > 0.0);
//! # Ok::<(), edm_core::EdmError>(())
//! ```

#![deny(missing_docs)]

pub mod analysis;
pub mod controller;
pub mod dist;
pub mod divergence;
mod ensemble;
mod error;
mod executor;
pub mod filter;
pub mod metrics;
pub mod mitigate;
pub mod model;
pub mod quality;
pub mod wedm;

pub use controller::{
    Controller, ControllerConfig, ControllerEvent, MemberObservation, RunAssessment, SwapReason,
};
pub use dist::ProbDist;
pub use ensemble::{
    assemble_result, build_ensemble, diversify, diversify_detailed, plan_run, EdmResult, EdmRunner,
    EnsembleConfig, EnsembleMember, FailedMember, MemberRun, RunHealth, RunPlan, ShotAllocation,
};
pub use error::EdmError;
pub use executor::{Backend, BatchJob};
pub use quality::{QualityConfig, QualityEstimator, QualitySnapshot};
