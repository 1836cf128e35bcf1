//! Simulator error types.

use std::error::Error;
use std::fmt;

/// Error produced when a circuit cannot be simulated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The noisy simulator only accepts circuits lowered to the
    /// `{single-qubit, CX, measure}` device basis.
    UnsupportedGate {
        /// Mnemonic of the offending gate.
        name: &'static str,
    },
    /// A gate or second measurement acted on a qubit after it was measured.
    MidCircuitMeasurement {
        /// The qubit measured mid-circuit.
        qubit: u32,
    },
    /// Two measurements wrote to the same classical bit.
    ClbitReused {
        /// The reused classical bit.
        clbit: u32,
    },
    /// The classical register is wider than a histogram key can hold
    /// ([`MAX_CLBITS`](crate::counts::MAX_CLBITS)).
    TooManyClbits {
        /// Classical bits the circuit declares.
        clbits: u32,
    },
    /// A CX was applied to a physically uncoupled qubit pair.
    UncoupledQubits {
        /// First qubit.
        a: u32,
        /// Second qubit.
        b: u32,
    },
    /// The circuit is wider than the device.
    TooManyQubits {
        /// Qubits required by the circuit.
        circuit: u32,
        /// Qubits available on the device.
        device: u32,
    },
    /// The circuit acts on more qubits than a state vector can hold
    /// ([`MAX_QUBITS`](crate::MAX_QUBITS)).
    TooWideToSimulate {
        /// Qubits the circuit acts on.
        qubits: u32,
    },
    /// The job asks for more shots than one job may run
    /// ([`MAX_SHOTS`](crate::parallel::MAX_SHOTS)).
    TooManyShots {
        /// Shots the job asked for.
        shots: u64,
    },
    /// The execution backend was temporarily unable to run the job (queue
    /// contention, lost link, worker restart).
    ///
    /// Unlike every other variant this is not a property of the circuit:
    /// retrying the same job later can succeed. Dispatchers test for it via
    /// [`SimError::is_transient`] and retry with backoff instead of failing
    /// the job outright.
    BackendUnavailable {
        /// Human-readable description of the transient condition.
        reason: &'static str,
    },
    /// A worker panicked while executing the job (or one of its slices).
    ///
    /// The panic is caught at the pool boundary so the worker pool and the
    /// rest of the batch survive; the job itself is failed. This is *not*
    /// transient: a panic is a bug in the backend or simulator, and retrying
    /// the same deterministic job would panic identically.
    ExecutionPanicked {
        /// The panic payload, stringified (`"<non-string panic>"` when the
        /// payload was not a string).
        detail: String,
    },
}

impl SimError {
    /// True if retrying the same job can succeed.
    ///
    /// Every other variant describes a deterministic property of the circuit
    /// or device, so retrying would fail identically.
    pub fn is_transient(&self) -> bool {
        matches!(self, SimError::BackendUnavailable { .. })
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::UnsupportedGate { name } => {
                write!(
                    f,
                    "gate '{name}' is not in the device basis; lower the circuit first"
                )
            }
            SimError::MidCircuitMeasurement { qubit } => {
                write!(f, "qubit {qubit} is used after being measured (mid-circuit measurement is unsupported)")
            }
            SimError::ClbitReused { clbit } => {
                write!(
                    f,
                    "classical bit {clbit} receives more than one measurement"
                )
            }
            SimError::TooManyClbits { clbits } => {
                write!(
                    f,
                    "circuit has {clbits} classical bits but at most {} are supported",
                    crate::counts::MAX_CLBITS
                )
            }
            SimError::UncoupledQubits { a, b } => {
                write!(f, "qubits {a} and {b} are not coupled on the device")
            }
            SimError::TooManyQubits { circuit, device } => {
                write!(
                    f,
                    "circuit needs {circuit} qubits but the device has {device}"
                )
            }
            SimError::TooWideToSimulate { qubits } => {
                write!(
                    f,
                    "circuit acts on {qubits} qubits but at most {} fit a state vector",
                    crate::statevector::MAX_QUBITS
                )
            }
            SimError::TooManyShots { shots } => {
                write!(
                    f,
                    "job asks for {shots} shots but at most {} are supported",
                    crate::parallel::MAX_SHOTS
                )
            }
            SimError::BackendUnavailable { reason } => {
                write!(
                    f,
                    "backend unavailable: {reason} (transient; retry may succeed)"
                )
            }
            SimError::ExecutionPanicked { detail } => {
                write!(f, "execution panicked: {detail} (not transient; the job is failed but the pool survives)")
            }
        }
    }
}

impl Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(SimError::UnsupportedGate { name: "ccx" }
            .to_string()
            .contains("ccx"));
        assert!(SimError::MidCircuitMeasurement { qubit: 3 }
            .to_string()
            .contains("qubit 3"));
        assert!(SimError::ClbitReused { clbit: 1 }
            .to_string()
            .contains("classical bit 1"));
        assert!(SimError::UncoupledQubits { a: 0, b: 5 }
            .to_string()
            .contains("not coupled"));
        assert!(SimError::TooManyQubits {
            circuit: 20,
            device: 14
        }
        .to_string()
        .contains("20"));
        let wide = SimError::TooWideToSimulate { qubits: 40 }.to_string();
        assert!(wide.contains("40") && wide.contains("26"), "{wide}");
        let shots = SimError::TooManyShots { shots: 1 << 31 }.to_string();
        assert!(
            shots.contains("2147483648") && shots.contains("1073741824"),
            "{shots}"
        );
    }

    #[test]
    fn backend_unavailable_display_and_transience() {
        let e = SimError::BackendUnavailable {
            reason: "worker restarting",
        };
        assert!(e.to_string().contains("worker restarting"));
        assert!(e.to_string().contains("transient"));
        assert!(e.is_transient());
    }

    #[test]
    fn circuit_errors_are_not_transient() {
        for e in [
            SimError::UnsupportedGate { name: "ccx" },
            SimError::MidCircuitMeasurement { qubit: 3 },
            SimError::ClbitReused { clbit: 1 },
            SimError::TooManyClbits { clbits: 64 },
            SimError::TooWideToSimulate { qubits: 40 },
            SimError::UncoupledQubits { a: 0, b: 5 },
            SimError::TooManyQubits {
                circuit: 20,
                device: 14,
            },
            SimError::TooManyShots { shots: u64::MAX },
            SimError::ExecutionPanicked {
                detail: "index out of bounds".into(),
            },
        ] {
            assert!(!e.is_transient(), "{e} must not be retryable");
        }
    }

    #[test]
    fn panic_display_names_the_payload() {
        let e = SimError::ExecutionPanicked {
            detail: "boom".into(),
        };
        assert!(e.to_string().contains("boom"));
        assert!(e.to_string().contains("pool survives"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync + 'static>() {}
        assert_send_sync::<SimError>();
    }
}
