//! # qmap — variation-aware qubit mapping
//!
//! The transpiler substrate of the EDM reproduction, implementing the
//! baseline the paper builds on (§2.4, §5.2):
//!
//! - [`Layout`] — injective logical-to-physical qubit assignments,
//! - [`esp`] — the Estimated Success Probability metric of Nishio et al.,
//!   computed from compiler-visible calibration data; [`esp::Scorer`]
//!   compiles a circuit once into its ESP term list so any embedding can
//!   be scored without building its relabeled circuit,
//! - [`placement`] — variation-aware initial placement, including swap-free
//!   embedding ranking ([`placement::score_embeddings`] is the engine
//!   behind both the best swap-free placement and EDM's top-K mapping
//!   selection; it streams embeddings from the one embedding search,
//!   exhaustive or budgeted by [`MapperSelection`], and reports pool
//!   completeness),
//! - [`router`] — SWAP insertion along reliability-optimal (Dijkstra) paths,
//!   with a swap-count-minimizing baseline strategy,
//! - [`Transpiler`] — the end-to-end pipeline producing device-basis
//!   physical circuits.
//!
//! # Examples
//!
//! ```
//! use qcir::Circuit;
//! use qdevice::{presets, DeviceModel};
//! use qmap::Transpiler;
//!
//! let device = DeviceModel::synthesize(presets::melbourne14(), 5);
//! let mut bell = Circuit::new(2, 2);
//! bell.h(0);
//! bell.cx(0, 1);
//! bell.measure_all();
//!
//! let cal = device.calibration();
//! let transpiler = Transpiler::new(device.topology(), &cal);
//! let out = transpiler.transpile(&bell)?;
//! assert!(out.esp > 0.0 && out.esp <= 1.0);
//! # Ok::<(), qmap::MapError>(())
//! ```

#![deny(missing_docs)]

mod error;
pub mod esp;
mod layout;
pub mod optimize;
pub mod placement;
pub mod router;
mod transpile;

pub use error::MapError;
pub use layout::Layout;
pub use qdevice::mapper::MapperSelection;
pub use router::RoutingStrategy;
pub use transpile::{TranspiledCircuit, Transpiler};
