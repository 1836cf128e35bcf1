//! Estimated Success Probability (ESP).
//!
//! ESP is the compile-time reliability estimate of §2.4:
//!
//! ```text
//! ESP = Π (1 - g_i^e) · Π (1 - m_j^e)
//! ```
//!
//! the product of every gate's and every measurement's success rate under
//! the current calibration. Variation-aware mapping maximizes ESP; EDM ranks
//! candidate mappings by it.

use crate::MapError;
use qcir::{Circuit, Gate, Qubit};
use qdevice::{mapper, Calibration, Topology};

/// Computes the ESP of a *physical* circuit under a calibration.
///
/// The circuit must be in the device basis (single-qubit gates, CX,
/// measurements), with every CX on a calibrated coupling. This is the
/// identity-embedding case of [`Scorer::score`].
///
/// # Errors
///
/// - [`MapError::UnsupportedGate`] for gates outside the device basis.
/// - [`MapError::UncalibratedEdge`] for a CX on an uncalibrated pair.
/// - [`MapError::TooManyQubits`] if the circuit is wider than the table.
///
/// # Examples
///
/// ```
/// use qcir::Circuit;
/// use qdevice::{presets, DeviceModel};
/// use qmap::esp;
///
/// let device = DeviceModel::synthesize(presets::melbourne14(), 2);
/// let cal = device.calibration();
/// let mut c = Circuit::new(2, 2);
/// c.h(0);
/// c.cx(0, 1);
/// c.measure_all();
/// let value = esp::esp(&c, &cal)?;
/// assert!(value > 0.5 && value < 1.0);
/// # Ok::<(), qmap::MapError>(())
/// ```
pub fn esp(circuit: &Circuit, cal: &Calibration) -> Result<f64, MapError> {
    Scorer::new(circuit, circuit.num_qubits(), Qubit::index, cal).score(|q| q)
}

/// One factor of an ESP product, on pattern indices.
#[derive(Debug, Clone, Copy)]
enum Term {
    /// A single-qubit gate: `1 − gate_1q_err`.
    Gate1q(u32),
    /// A CX: `1 − cx_err` of the coupling it lands on.
    Cx(u32, u32),
    /// A measurement: `1 − readout_err`.
    Measure(u32),
}

/// A basis circuit compiled once into its ESP term list, with the
/// calibration's success rates (`1 − error`) in flat tables.
///
/// Scoring an embedding `phi` walks the list in gate order, multiplying
/// the rate of each term's qubits under `phi`. The factors and their order
/// are exactly those [`esp`] multiplies for the relabeled circuit, so the
/// score is bit-identical to relabeling the circuit and calling [`esp`] —
/// without building the circuit.
///
/// # Examples
///
/// ```
/// use qcir::{Circuit, Qubit};
/// use qdevice::{presets, DeviceModel};
/// use qmap::esp::{self, Scorer};
///
/// let device = DeviceModel::synthesize(presets::melbourne14(), 2);
/// let cal = device.calibration();
/// let mut c = Circuit::new(2, 2);
/// c.h(0).cx(0, 1).measure_all();
/// // Score the embedding 0 → Q1, 1 → Q2 on the 14-qubit device.
/// let scorer = Scorer::new(&c, 14, Qubit::index, &cal);
/// let phi = [1, 2];
/// let score = scorer.score(|p| phi[p as usize])?;
/// let relabeled = c.relabeled(14, |q| Qubit::new(phi[q.usize()]));
/// assert_eq!(score.to_bits(), esp::esp(&relabeled, &cal)?.to_bits());
/// # Ok::<(), qmap::MapError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Scorer {
    terms: Vec<Term>,
    /// Qubit count of the scored physical circuit.
    width: u32,
    /// The first gate outside the device basis. A gate walk stops there,
    /// so the term list ends there and scoring fails with this name.
    unsupported: Option<&'static str>,
    /// Qubits covered by the rate tables.
    num_qubits: u32,
    gate_1q: Vec<f64>,
    readout: Vec<f64>,
    /// Dense `num_qubits × num_qubits` CX success table; `None` where the
    /// pair is not calibrated.
    cx: Vec<Option<f64>>,
}

impl Scorer {
    /// Compiles `circuit` into its term list. `index` maps each circuit
    /// qubit to the pattern index an embedding assigns; `width` is the
    /// qubit count of the physical circuit an embedding would produce.
    pub fn new(
        circuit: &Circuit,
        width: u32,
        index: impl Fn(Qubit) -> u32,
        cal: &Calibration,
    ) -> Self {
        let mut terms = Vec::with_capacity(circuit.len());
        let mut unsupported = None;
        for g in circuit.iter() {
            terms.push(match *g {
                Gate::Cx(a, b) => Term::Cx(index(a), index(b)),
                Gate::Measure(q, _) => Term::Measure(index(q)),
                ref g1 if g1.is_single_qubit() => Term::Gate1q(index(g1.qubits()[0])),
                ref other => {
                    unsupported = Some(other.name());
                    break;
                }
            });
        }
        let n = cal.num_qubits();
        let mut cx = vec![None; (n as usize) * (n as usize)];
        for (e, &err) in cal.cx_table() {
            let success = Some(1.0 - err);
            cx[(e.lo() * n + e.hi()) as usize] = success;
            cx[(e.hi() * n + e.lo()) as usize] = success;
        }
        Scorer {
            terms,
            width,
            unsupported,
            num_qubits: n,
            gate_1q: (0..n).map(|q| 1.0 - cal.gate_1q_err(q)).collect(),
            readout: (0..n).map(|q| 1.0 - cal.readout_err(q)).collect(),
            cx,
        }
    }

    /// The ESP of the circuit under the embedding `phi` (pattern index →
    /// physical qubit).
    ///
    /// # Errors
    ///
    /// The errors [`esp`] would return for the relabeled circuit, in the
    /// same precedence: [`MapError::TooManyQubits`] first, then the first
    /// uncalibrated CX or unsupported gate in gate order.
    #[inline]
    pub fn score(&self, phi: impl Fn(u32) -> u32) -> Result<f64, MapError> {
        if self.width > self.num_qubits {
            return Err(MapError::TooManyQubits {
                circuit: self.width,
                device: self.num_qubits,
            });
        }
        let mut product = 1.0;
        for &term in &self.terms {
            product *= match term {
                Term::Gate1q(q) => self.gate_1q[phi(q) as usize],
                Term::Measure(q) => self.readout[phi(q) as usize],
                Term::Cx(a, b) => {
                    let (a, b) = (phi(a), phi(b));
                    self.cx_success(a, b)
                        .ok_or(MapError::UncalibratedEdge { a, b })?
                }
            };
        }
        match self.unsupported {
            Some(name) => Err(MapError::UnsupportedGate { name }),
            None => Ok(product),
        }
    }

    fn cx_success(&self, a: u32, b: u32) -> Option<f64> {
        let n = self.num_qubits;
        if a >= n || b >= n {
            return None;
        }
        self.cx[(a * n + b) as usize]
    }

    /// The term list regrouped into search factors for embeddings of
    /// `pattern` into `target`; see [`Bound`].
    pub(crate) fn bound(&self, pattern: &Topology, target: &Topology) -> Bound<'_> {
        let (pn, n, tn) = (pattern.num_qubits(), self.num_qubits, target.num_qubits());
        let mut gates = vec![(0i32, 0i32); pn as usize];
        let mut partners: Vec<Vec<(u32, i32)>> = vec![Vec::new(); pn as usize];
        // Scoring fails for every embedding, or for some embeddings of
        // this pattern into this target: nothing may then be skipped.
        let mut fallible = self.unsupported.is_some() || self.width > n || tn > n;
        for &term in &self.terms {
            match term {
                Term::Gate1q(q) if q < pn => gates[q as usize].0 += 1,
                Term::Measure(q) if q < pn => gates[q as usize].1 += 1,
                Term::Cx(a, b) if pattern.has_edge(a, b) => {
                    for (v, u) in [(a, b), (b, a)] {
                        let list = &mut partners[v as usize];
                        match list.iter_mut().find(|(w, _)| *w == u) {
                            Some((_, count)) => *count += 1,
                            None => list.push((u, 1)),
                        }
                    }
                }
                // A CX off the pattern's edges may land on an uncoupled
                // pair. Other terms out of range only drop a factor.
                Term::Cx(..) => fallible = true,
                _ => {}
            }
        }
        fallible |= target.edges().iter().any(|e| {
            self.cx_success(e.lo(), e.hi())
                .is_none_or(|s| !(0.0..=1.0).contains(&s))
        });
        // Qubits past the calibration keep factor 1; scoring there fails.
        let mut vertex = vec![1.0; (pn * tn) as usize];
        for (v, &(g, m)) in gates.iter().enumerate() {
            for t in 0..tn.min(n) as usize {
                vertex[v * tn as usize + t] = self.gate_1q[t].powi(g) * self.readout[t].powi(m);
            }
        }
        fallible |= vertex.iter().any(|f| !(0.0..=1.0).contains(f));
        Bound {
            scorer: self,
            targets: tn,
            vertex,
            partners,
            slack: BOUND_SLACK.max(4.0 * (self.terms.len() + 1) as f64 * f64::EPSILON),
            fallible,
        }
    }
}

/// The relative margin below a bar that a bound must clear before an
/// embedding is skipped. The bound multiplies the same factors as
/// [`Scorer::score`] in another order, so the two round differently; the
/// margin widens with the term count to keep covering that.
const BOUND_SLACK: f64 = 1e-12;

/// A [`Scorer`]'s term list regrouped into factors an embedding search can
/// multiply as it places vertices: per pattern vertex, the 1q-gate and
/// readout success of the qubit it lands on (one factor per term), and per
/// pattern edge, the CX success of the coupling it lands on, raised to its
/// CX count.
///
/// Every factor is a success rate in `[0, 1]`, so the running product of
/// a partial embedding bounds the ESP of every completion. A caller ranking
/// by ESP turns its running bar into a cut ([`Bound::cut`]) and skips what
/// falls below it; every ESP it keeps still comes from [`Scorer::score`].
#[derive(Debug, Clone)]
pub(crate) struct Bound<'a> {
    scorer: &'a Scorer,
    /// Qubit count of the target.
    targets: u32,
    /// `pattern × target`: the 1q-gate and readout factor of each pattern
    /// vertex on each qubit.
    vertex: Vec<f64>,
    /// Per pattern vertex: its CX partners and the CX count of each pair.
    partners: Vec<Vec<(u32, i32)>>,
    /// Relative margin below a bar before anything is cut.
    slack: f64,
    /// Whether scoring some embedding could fail: an unsupported gate, a
    /// circuit wider than the calibration, an uncalibrated coupling in the
    /// target, or a rate outside `[0, 1]`. Skipping nothing then keeps the
    /// first error in enumeration order where it is.
    fallible: bool,
}

impl Bound<'_> {
    /// The product below which an embedding cannot reach `bar` (an ESP
    /// the caller no longer counts below): `bar` less the rounding slack,
    /// or `0.0` (skip nothing) when scoring could fail or `bar` is not a
    /// normal positive number.
    pub(crate) fn cut(&self, bar: f64) -> f64 {
        if self.fallible || bar.is_nan() || bar < f64::MIN_POSITIVE {
            return 0.0;
        }
        bar * (1.0 - self.slack)
    }
}

impl mapper::Weights for Bound<'_> {
    #[inline]
    fn place(&self, v: u32, t: u32, mapping: &[u32]) -> f64 {
        let mut factor = self.vertex[(v * self.targets + t) as usize];
        for &(u, count) in &self.partners[v as usize] {
            let tu = mapping[u as usize];
            if tu != u32::MAX {
                // An uncalibrated pair only arises when the bound is off.
                factor *= self.scorer.cx_success(t, tu).unwrap_or(1.0).powi(count);
            }
        }
        factor
    }
}

/// ESP restricted to the measurement terms only — useful when comparing
/// mappings of measurement-dominated circuits.
pub fn measurement_esp(circuit: &Circuit, cal: &Calibration) -> Result<f64, MapError> {
    if circuit.num_qubits() > cal.num_qubits() {
        return Err(MapError::TooManyQubits {
            circuit: circuit.num_qubits(),
            device: cal.num_qubits(),
        });
    }
    let mut product = 1.0;
    for g in circuit.iter() {
        if let Gate::Measure(q, _) = *g {
            product *= 1.0 - cal.readout_err(q.index());
        }
    }
    Ok(product)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdevice::Edge;
    use std::collections::BTreeMap;

    fn cal3() -> Calibration {
        let mut cx = BTreeMap::new();
        cx.insert(Edge::new(0, 1), 0.1);
        cx.insert(Edge::new(1, 2), 0.2);
        Calibration::new(vec![0.05, 0.10, 0.20], vec![0.01, 0.02, 0.03], cx)
    }

    #[test]
    fn empty_circuit_has_esp_one() {
        let c = Circuit::new(2, 0);
        assert_eq!(esp(&c, &cal3()).unwrap(), 1.0);
    }

    #[test]
    fn esp_multiplies_success_rates() {
        let mut c = Circuit::new(3, 3);
        c.h(0); // 0.99
        c.cx(0, 1); // 0.9
        c.measure(0, 0); // 0.95
        c.measure(1, 1); // 0.90
        let got = esp(&c, &cal3()).unwrap();
        let want = 0.99 * 0.9 * 0.95 * 0.90;
        assert!((got - want).abs() < 1e-12, "{got} vs {want}");
    }

    #[test]
    fn worked_paper_equation() {
        // The equation in §2.4: gate terms and measurement terms multiply.
        let mut c = Circuit::new(2, 2);
        c.cx(0, 1).cx(0, 1).measure_all();
        let got = esp(&c, &cal3()).unwrap();
        let want = 0.9 * 0.9 * 0.95 * 0.90;
        assert!((got - want).abs() < 1e-12);
    }

    #[test]
    fn uncalibrated_edge_rejected() {
        let mut c = Circuit::new(3, 0);
        c.cx(0, 2);
        assert_eq!(
            esp(&c, &cal3()).unwrap_err(),
            MapError::UncalibratedEdge { a: 0, b: 2 }
        );
    }

    #[test]
    fn unsupported_gate_rejected() {
        let mut c = Circuit::new(2, 0);
        c.swap(0, 1);
        assert_eq!(
            esp(&c, &cal3()).unwrap_err(),
            MapError::UnsupportedGate { name: "swap" }
        );
    }

    #[test]
    fn oversize_circuit_rejected() {
        let c = Circuit::new(5, 0);
        assert!(matches!(
            esp(&c, &cal3()).unwrap_err(),
            MapError::TooManyQubits { .. }
        ));
    }

    #[test]
    fn measurement_esp_ignores_gates() {
        let mut c = Circuit::new(2, 2);
        c.cx(0, 1).measure(0, 0);
        let got = measurement_esp(&c, &cal3()).unwrap();
        assert!((got - 0.95).abs() < 1e-12);
    }

    #[test]
    fn bound_products_bound_the_score_and_fallible_lists_cut_nothing() {
        use qdevice::mapper::Weights;
        let cal = cal3();
        let mut c = Circuit::new(2, 2);
        c.h(0).cx(0, 1).cx(1, 0).measure_all();
        let pattern = Topology::new(2, &[(0, 1)]);
        let target = Topology::new(3, &[(0, 1), (1, 2)]);
        let scorer = Scorer::new(&c, 3, Qubit::index, &cal);
        let bound = scorer.bound(&pattern, &target);
        // Place 0 → Q1, then 1 → Q2: every term is counted once, the CX
        // pair as one factor squared.
        let mut mapping = [u32::MAX; 2];
        let first = bound.place(0, 1, &mapping);
        mapping[0] = 1;
        let product = first * bound.place(1, 2, &mapping);
        let esp = scorer.score(|p| [1, 2][p as usize]).unwrap();
        assert!(first >= product);
        assert!((product - esp).abs() <= 1e-15, "{product} vs {esp}");
        assert_eq!(bound.cut(0.5), 0.5 * (1.0 - BOUND_SLACK));
        assert_eq!(bound.cut(0.0), 0.0);
        assert_eq!(bound.cut(f64::MIN_POSITIVE / 2.0), 0.0);
        // An uncalibrated coupling in the target cuts nothing...
        let ring = Topology::new(3, &[(0, 1), (1, 2), (0, 2)]);
        assert_eq!(scorer.bound(&pattern, &ring).cut(0.5), 0.0);
        // ...nor does a gate outside the basis.
        let mut swap = c.clone();
        swap.swap(0, 1);
        let scorer = Scorer::new(&swap, 3, Qubit::index, &cal);
        assert_eq!(scorer.bound(&pattern, &target).cut(0.5), 0.0);
    }

    #[test]
    fn better_qubits_give_higher_esp() {
        // Same circuit shape on (0,1) vs (1,2): the (0,1) variant uses more
        // reliable hardware and must score higher.
        let mut good = Circuit::new(3, 3);
        good.cx(0, 1).measure(0, 0).measure(1, 1);
        let mut bad = Circuit::new(3, 3);
        bad.cx(1, 2).measure(1, 1).measure(2, 2);
        let c = cal3();
        assert!(esp(&good, &c).unwrap() > esp(&bad, &c).unwrap());
    }
}
