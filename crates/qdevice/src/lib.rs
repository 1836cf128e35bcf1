//! # qdevice — NISQ device models
//!
//! The device substrate for the EDM reproduction. The paper evaluates on the
//! real `ibmq-16-melbourne` machine; this crate replaces it with a synthetic
//! but behaviourally faithful model:
//!
//! - [`Topology`] — coupling graphs with BFS distances ([`presets`] provides
//!   melbourne-14, tokyo-20, lines and grids),
//! - [`DeviceModel`] — the ground-truth error parameters of a device,
//!   including *hidden* coherent error channels (per-edge systematic
//!   over-rotation and ZZ-crosstalk) and *asymmetric* readout bias that
//!   produce the correlated errors central to the paper (§2.6, Appendix A),
//! - [`Calibration`] — the compiler-visible view (error rates only, no
//!   hidden coherent information), optionally drifted relative to the truth
//!   so that compile-time ESP imperfectly predicts run-time PST (Fig. 8),
//! - [`fdls`] — the subgraph-isomorphism search used by EDM to transplant a
//!   mapping onto alternative qubit subsets (§5.2): exhaustive on small
//!   devices, budgeted (filtered depth-limited search) on the
//!   27/65/127-qubit heavy-hex presets,
//! - [`mapper`] — the selection layer ([`mapper::MapperSelection`]) that
//!   picks the search's budgets and reports an explicit
//!   [`mapper::SearchOutcome`],
//! - [`drift`] — cycle-over-cycle calibration-drift scoring and the
//!   qubit/link quarantine that feeds variation-aware mapping.
//!
//! # Examples
//!
//! ```
//! use qdevice::{presets, DeviceModel};
//!
//! let topo = presets::melbourne14();
//! assert_eq!(topo.num_qubits(), 14);
//! let device = DeviceModel::synthesize(topo, 42);
//! let cal = device.calibration();
//! assert_eq!(cal.num_qubits(), 14);
//! ```

#![deny(missing_docs)]

mod calibration;
mod device;
pub mod drift;
pub mod fdls;
pub mod mapper;
pub mod persist;
pub mod presets;
pub mod stats;
mod topology;

pub use calibration::Calibration;
pub use device::{DeviceModel, NoiseParams, SynthesisProfile};
pub use topology::{Edge, Topology};
