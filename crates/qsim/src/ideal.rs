//! Noise-free reference simulation.
//!
//! Used to determine each benchmark's *correct answer* (the paper's
//! "error-free output") and to verify circuit constructions.

use crate::counts::MAX_CLBITS;
use crate::error::SimError;
use crate::statevector::StateVector;
use qcir::{Circuit, Clbit, Gate, Qubit};
use std::collections::BTreeMap;

/// Extracts the measurement map of a circuit, verifying that the classical
/// register fits a histogram key, that measurements are terminal (no
/// operation touches a qubit after it is measured), and that every
/// classical bit is written at most once.
pub(crate) fn measurement_map(circuit: &Circuit) -> Result<Vec<(Qubit, Clbit)>, SimError> {
    if circuit.num_clbits() > MAX_CLBITS {
        return Err(SimError::TooManyClbits {
            clbits: circuit.num_clbits(),
        });
    }
    let mut measured: Vec<bool> = vec![false; circuit.num_qubits() as usize];
    let mut clbit_used: Vec<bool> = vec![false; circuit.num_clbits() as usize];
    let mut map = Vec::new();
    for g in circuit.iter() {
        for q in g.qubits() {
            if measured[q.usize()] {
                return Err(SimError::MidCircuitMeasurement { qubit: q.index() });
            }
        }
        if let Gate::Measure(q, c) = *g {
            if clbit_used[c.usize()] {
                return Err(SimError::ClbitReused { clbit: c.index() });
            }
            clbit_used[c.usize()] = true;
            measured[q.usize()] = true;
            map.push((q, c));
        }
    }
    Ok(map)
}

/// Simulates all unitary gates of a circuit, ignoring measurements.
///
/// # Errors
///
/// Returns an error if the circuit has more than [`MAX_CLBITS`] classical
/// bits, a measured qubit is used afterwards, or a classical bit is written
/// twice (the same validity conditions as the samplers).
pub fn final_state(circuit: &Circuit) -> Result<StateVector, SimError> {
    measurement_map(circuit)?;
    let mut sv = StateVector::zero_state(circuit.num_qubits());
    for g in circuit.iter() {
        if !g.is_measure() {
            sv.apply(g);
        }
    }
    Ok(sv)
}

/// The exact outcome distribution over classical bits of a noise-free run.
///
/// Outcomes with probability below `1e-12` are omitted.
///
/// # Errors
///
/// Same conditions as [`final_state`].
///
/// # Examples
///
/// ```
/// use qcir::Circuit;
/// use qsim::ideal;
///
/// let mut c = Circuit::new(2, 2);
/// c.h(0);
/// c.cx(0, 1);
/// c.measure_all();
/// let dist = ideal::probabilities(&c)?;
/// assert_eq!(dist.len(), 2);
/// assert!((dist[&0b00] - 0.5).abs() < 1e-12);
/// assert!((dist[&0b11] - 0.5).abs() < 1e-12);
/// # Ok::<(), qsim::SimError>(())
/// ```
pub fn probabilities(circuit: &Circuit) -> Result<BTreeMap<u64, f64>, SimError> {
    let map = measurement_map(circuit)?;
    let sv = final_state(circuit)?;
    let mut dist: BTreeMap<u64, f64> = BTreeMap::new();
    for (idx, p) in sv.probabilities().into_iter().enumerate() {
        if p < 1e-12 {
            continue;
        }
        let mut key = 0u64;
        for &(q, c) in &map {
            if idx >> q.index() & 1 == 1 {
                key |= 1 << c.index();
            }
        }
        *dist.entry(key).or_insert(0.0) += p;
    }
    Ok(dist)
}

/// The most probable noise-free outcome: the benchmark's correct answer.
///
/// # Errors
///
/// Same conditions as [`final_state`].
pub fn outcome(circuit: &Circuit) -> Result<u64, SimError> {
    let dist = probabilities(circuit)?;
    Ok(dist
        .into_iter()
        .max_by(|a, b| a.1.partial_cmp(&b.1).expect("probabilities are finite"))
        .map(|(k, _)| k)
        .unwrap_or(0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_circuit_single_outcome() {
        let mut c = Circuit::new(3, 3);
        c.x(0).x(2).measure_all();
        let dist = probabilities(&c).unwrap();
        assert_eq!(dist.len(), 1);
        assert!((dist[&0b101] - 1.0).abs() < 1e-12);
        assert_eq!(outcome(&c).unwrap(), 0b101);
    }

    #[test]
    fn unmeasured_qubits_do_not_affect_key() {
        let mut c = Circuit::new(2, 1);
        c.x(1); // qubit 1 excited but never measured
        c.measure(0, 0);
        let dist = probabilities(&c).unwrap();
        assert_eq!(dist.len(), 1);
        assert!((dist[&0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn measurement_to_arbitrary_clbit() {
        let mut c = Circuit::new(2, 2);
        c.x(0);
        c.measure(0, 1); // qubit 0 -> clbit 1
        let dist = probabilities(&c).unwrap();
        assert!((dist[&0b10] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mid_circuit_measurement_rejected() {
        let mut c = Circuit::new(1, 1);
        c.measure(0, 0).x(0);
        assert_eq!(
            probabilities(&c).unwrap_err(),
            SimError::MidCircuitMeasurement { qubit: 0 }
        );
    }

    #[test]
    fn double_measurement_of_qubit_rejected() {
        let mut c = Circuit::new(1, 2);
        c.measure(0, 0).measure(0, 1);
        assert_eq!(
            probabilities(&c).unwrap_err(),
            SimError::MidCircuitMeasurement { qubit: 0 }
        );
    }

    #[test]
    fn clbit_reuse_rejected() {
        let mut c = Circuit::new(2, 1);
        c.measure(0, 0).measure(1, 0);
        assert_eq!(
            probabilities(&c).unwrap_err(),
            SimError::ClbitReused { clbit: 0 }
        );
    }

    #[test]
    fn ghz_probabilities() {
        let mut c = Circuit::new(3, 3);
        c.h(0).cx(0, 1).cx(1, 2).measure_all();
        let dist = probabilities(&c).unwrap();
        assert_eq!(dist.len(), 2);
        assert!((dist[&0b000] - 0.5).abs() < 1e-12);
        assert!((dist[&0b111] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn bv_like_circuit_recovers_key() {
        // BV with key 101 on 3 data qubits + 1 ancilla (qubit 3).
        let mut c = Circuit::new(4, 3);
        c.x(3).h(3);
        c.h(0).h(1).h(2);
        c.cx(0, 3);
        c.cx(2, 3);
        c.h(0).h(1).h(2);
        c.measure(0, 0).measure(1, 1).measure(2, 2);
        assert_eq!(outcome(&c).unwrap(), 0b101);
        let dist = probabilities(&c).unwrap();
        assert!((dist[&0b101] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_circuit_outcome_zero() {
        let c = Circuit::new(2, 2);
        assert_eq!(outcome(&c).unwrap(), 0);
    }

    #[test]
    fn final_state_ignores_measurements() {
        let mut c = Circuit::new(1, 1);
        c.h(0).measure(0, 0);
        let sv = final_state(&c).unwrap();
        assert!((sv.prob_one(Qubit::new(0)) - 0.5).abs() < 1e-12);
    }
}
