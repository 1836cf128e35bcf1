//! # edm-repro — Ensemble of Diverse Mappings, reproduced in Rust
//!
//! Facade crate re-exporting the full reproduction stack of *"Ensemble of
//! Diverse Mappings: Improving Reliability of Quantum Computers by
//! Orchestrating Dissimilar Mistakes"* (Tannu & Qureshi, MICRO 2019):
//!
//! - [`qcir`] — circuit IR
//! - [`qdevice`] — device topologies, calibration, subgraph-isomorphism embedding search
//! - [`qsim`] — noisy state-vector simulator with correlated error channels
//! - [`qmap`] — variation-aware placement and A* SWAP routing
//! - [`edm_core`] — the EDM/WEDM ensemble machinery and metrics
//! - [`qbench`] — the paper's benchmark circuits
//!
//! # Quickstart
//!
//! See `examples/quickstart.rs` for an end-to-end run: build a
//! Bernstein-Vazirani circuit, map it onto a simulated IBMQ-14 device, run an
//! ensemble of four diverse mappings, and compare the Inference Strength of
//! EDM against the single best mapping.

pub use edm_core;
pub use qbench;
pub use qcir;
pub use qdevice;
pub use qmap;
pub use qsim;
