//! # qsim — a noisy NISQ simulator with correlated error channels
//!
//! The simulation substrate of the EDM reproduction. The paper (§4.4) points
//! out that simulators with independent-and-identically-distributed error
//! models track PST but cannot reproduce Inference Strength, because real
//! devices make *correlated* mistakes. This simulator therefore models, on
//! top of the usual stochastic channels, deterministic per-edge coherent
//! errors and state-dependent readout bias — see [`NoisySimulator`].
//!
//! - [`StateVector`] — dense pure-state simulation,
//! - [`NoisySimulator`] / [`SimOptions`] — shot-based trajectory execution
//!   against a `qdevice::DeviceModel`,
//! - [`ideal`] — noise-free reference runs (defines each benchmark's
//!   correct answer),
//! - [`Counts`] — outcome histograms,
//! - [`parallel`] / [`pool`] / [`rngstream`] — the deterministic parallel
//!   execution engine: fixed shot slices with forked seed streams fanned
//!   out over a persistent worker pool, bit-identical for any thread
//!   count. The shot loop's kernels run at the CPU's SIMD width (portable,
//!   AVX2 or AVX-512F, picked at run time), with the same floats on every
//!   tier.
//!
//! # Examples
//!
//! ```
//! use qcir::Circuit;
//! use qdevice::{presets, DeviceModel};
//! use qsim::{ideal, NoisySimulator};
//!
//! let mut c = Circuit::new(2, 2);
//! c.h(0);
//! c.cx(0, 1);
//! c.measure_all();
//!
//! // The correct answer set, from the ideal backend:
//! let exact = ideal::probabilities(&c)?;
//! assert_eq!(exact.len(), 2);
//!
//! // A noisy run on a synthetic melbourne-like device:
//! let device = DeviceModel::synthesize(presets::melbourne14(), 1);
//! let counts = NoisySimulator::from_device(&device).run(&c, 2048, 7)?;
//! assert_eq!(counts.shots(), 2048);
//! # Ok::<(), qsim::SimError>(())
//! ```

#![deny(missing_docs)]
#![deny(clippy::undocumented_unsafe_blocks)]

pub mod complex;
pub mod counts;
pub mod density;
mod error;
pub mod fuse;
pub mod ideal;
mod noise;
pub mod observables;
pub mod parallel;
pub mod pool;
pub mod rngstream;
mod statevector;
mod tier;
pub mod verify;

pub use counts::Counts;
pub use density::{DensityMatrix, DensitySimulator};
pub use error::SimError;
pub use noise::{CompiledCircuit, NoisySimulator, SimOptions};
pub use statevector::{StateVector, MAX_QUBITS};
