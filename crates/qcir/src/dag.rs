//! Dependency DAG over a circuit's operations.
//!
//! The DAG connects operations that share a wire (qubit or classical bit) in
//! program order. Its ASAP layers are the columns of the ASCII diagram
//! ([`crate::draw`]).

use crate::{Circuit, Gate};

/// A dependency DAG built from a [`Circuit`].
///
/// Node `i` is operation `i` of the underlying circuit. There is an edge
/// `i -> j` when `i` and `j` act on a common wire and `i` precedes `j` with no
/// intervening operation on that wire.
///
/// # Examples
///
/// ```
/// use qcir::{Circuit, dag::DagCircuit};
/// let mut c = Circuit::new(3, 0);
/// c.h(0);
/// c.h(1);
/// c.cx(0, 1);
/// c.cx(1, 2);
/// let dag = DagCircuit::new(&c);
/// let layers = dag.layers();
/// assert_eq!(layers, vec![vec![0, 1], vec![2], vec![3]]);
/// ```
#[derive(Debug, Clone)]
pub struct DagCircuit<'a> {
    circuit: &'a Circuit,
    successors: Vec<Vec<usize>>,
    predecessor_count: Vec<usize>,
}

impl<'a> DagCircuit<'a> {
    /// Builds the dependency DAG for `circuit`.
    pub fn new(circuit: &'a Circuit) -> Self {
        let n = circuit.len();
        let mut successors = vec![Vec::new(); n];
        let mut predecessor_count = vec![0usize; n];
        let mut last_on_qubit: Vec<Option<usize>> = vec![None; circuit.num_qubits() as usize];
        let mut last_on_clbit: Vec<Option<usize>> = vec![None; circuit.num_clbits() as usize];

        for (i, g) in circuit.iter().enumerate() {
            for q in g.qubits() {
                if let Some(p) = last_on_qubit[q.usize()] {
                    successors[p].push(i);
                    predecessor_count[i] += 1;
                }
                last_on_qubit[q.usize()] = Some(i);
            }
            if let Gate::Measure(_, c) = g {
                if let Some(p) = last_on_clbit[c.usize()] {
                    successors[p].push(i);
                    predecessor_count[i] += 1;
                }
                last_on_clbit[c.usize()] = Some(i);
            }
        }
        DagCircuit {
            circuit,
            successors,
            predecessor_count,
        }
    }

    /// The circuit this DAG was built from.
    pub fn circuit(&self) -> &'a Circuit {
        self.circuit
    }

    /// Number of nodes (operations).
    pub fn len(&self) -> usize {
        self.successors.len()
    }

    /// True if the circuit had no operations.
    pub fn is_empty(&self) -> bool {
        self.successors.is_empty()
    }

    /// Direct successors of node `i`.
    pub fn successors(&self, i: usize) -> &[usize] {
        &self.successors[i]
    }

    /// Number of direct predecessors of node `i`.
    pub fn predecessor_count(&self, i: usize) -> usize {
        self.predecessor_count[i]
    }

    /// ASAP layering: each inner `Vec` holds the operation indices whose
    /// dependencies are satisfied by all previous layers.
    ///
    /// Concatenating the layers yields a valid topological order.
    pub fn layers(&self) -> Vec<Vec<usize>> {
        let n = self.len();
        let mut remaining = self.predecessor_count.clone();
        let mut frontier: Vec<usize> = (0..n).filter(|&i| remaining[i] == 0).collect();
        let mut layers = Vec::new();
        let mut emitted = 0;
        while !frontier.is_empty() {
            frontier.sort_unstable();
            let mut next = Vec::new();
            for &i in &frontier {
                for &s in &self.successors[i] {
                    remaining[s] -= 1;
                    if remaining[s] == 0 {
                        next.push(s);
                    }
                }
            }
            emitted += frontier.len();
            layers.push(std::mem::replace(&mut frontier, next));
        }
        debug_assert_eq!(emitted, n, "DAG must be acyclic by construction");
        layers
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_dag() {
        let c = Circuit::new(2, 0);
        let dag = DagCircuit::new(&c);
        assert!(dag.is_empty());
        assert!(dag.layers().is_empty());
    }

    #[test]
    fn chain_on_one_qubit() {
        let mut c = Circuit::new(1, 0);
        c.h(0).x(0).z(0);
        let dag = DagCircuit::new(&c);
        assert_eq!(dag.layers(), vec![vec![0], vec![1], vec![2]]);
        assert_eq!(dag.successors(0), &[1]);
        assert_eq!(dag.predecessor_count(2), 1);
    }

    #[test]
    fn parallel_ops_share_a_layer() {
        let mut c = Circuit::new(2, 0);
        c.h(0).h(1);
        let dag = DagCircuit::new(&c);
        assert_eq!(dag.layers(), vec![vec![0, 1]]);
        assert_eq!(dag.predecessor_count(1), 0);
    }

    #[test]
    fn two_qubit_gate_joins_wires() {
        let mut c = Circuit::new(2, 0);
        c.h(0).h(1).cx(0, 1).x(0);
        let dag = DagCircuit::new(&c);
        assert_eq!(dag.predecessor_count(2), 2);
        assert_eq!(dag.layers(), vec![vec![0, 1], vec![2], vec![3]]);
    }

    #[test]
    fn measurement_depends_on_clbit_wire() {
        let mut c = Circuit::new(2, 1);
        c.measure(0, 0).measure(1, 0);
        let dag = DagCircuit::new(&c);
        // Same classical bit: second measure must wait.
        assert_eq!(dag.layers(), vec![vec![0], vec![1]]);
    }

    #[test]
    fn layers_concatenate_to_topological_order() {
        let mut c = Circuit::new(3, 3);
        c.h(0).cx(0, 1).cx(1, 2).h(1).measure_all();
        let dag = DagCircuit::new(&c);
        let order: Vec<usize> = dag.layers().into_iter().flatten().collect();
        // Every edge must point forward in the flattened order.
        let pos: Vec<usize> = {
            let mut p = vec![0; order.len()];
            for (rank, &i) in order.iter().enumerate() {
                p[i] = rank;
            }
            p
        };
        for i in 0..dag.len() {
            for &s in dag.successors(i) {
                assert!(pos[i] < pos[s], "edge {i}->{s} violated");
            }
        }
    }
}
