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
use std::cmp::Ordering;
use std::collections::BinaryHeap;

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
        // The search places the core; idle vertices are assigned after it.
        let (core, idle): (Vec<u32>, Vec<u32>) = (0..pn).partition(|&v| pattern.degree(v) > 0);
        let mut core_index = vec![u32::MAX; pn as usize];
        for (i, &v) in core.iter().enumerate() {
            core_index[v as usize] = i as u32;
        }
        let core_edges: Vec<(u32, u32)> = pattern
            .edges()
            .iter()
            .map(|e| (core_index[e.lo() as usize], core_index[e.hi() as usize]))
            .collect();
        let mut counts = vec![(0i32, 0i32); pn as usize];
        let mut partners: Vec<Vec<(u32, i32)>> = vec![Vec::new(); core.len()];
        // Scoring fails for every embedding, or for some embeddings of
        // this pattern into this target: nothing may then be skipped.
        let mut fallible = self.unsupported.is_some() || self.width > n || tn > n;
        for &term in &self.terms {
            match term {
                Term::Gate1q(q) if q < pn => counts[q as usize].0 += 1,
                Term::Measure(q) if q < pn => counts[q as usize].1 += 1,
                Term::Cx(a, b) if pattern.has_edge(a, b) => {
                    let (a, b) = (core_index[a as usize], core_index[b as usize]);
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
        for (v, &(g, m)) in counts.iter().enumerate() {
            for t in 0..tn.min(n) as usize {
                vertex[v * tn as usize + t] = self.gate_1q[t].powi(g) * self.readout[t].powi(m);
            }
        }
        fallible |= vertex.iter().any(|f| !(0.0..=1.0).contains(f));
        // The most each vertex and each coupling can contribute.
        let stride = tn as usize;
        let best_vertex: Vec<f64> = (0..pn as usize)
            .map(|v| {
                vertex[v * stride..(v + 1) * stride]
                    .iter()
                    .copied()
                    .fold(0.0, f64::max)
            })
            .collect();
        let best_cx = target
            .edges()
            .iter()
            .filter_map(|e| self.cx_success(e.lo(), e.hi()))
            .fold(0.0, f64::max);
        let idle_best = idle.iter().map(|&v| best_vertex[v as usize]).product();
        Bound {
            scorer: self,
            targets: tn,
            core_pattern: Topology::new(core.len() as u32, &core_edges),
            core,
            idle,
            counts,
            vertex,
            partners,
            best_vertex,
            best_cx,
            idle_best,
            slack: BOUND_SLACK.max(4.0 * (self.terms.len() + 1) as f64 * f64::EPSILON),
            fallible,
        }
    }
}

/// The relative margin below a bar that a bound must clear before an
/// embedding is skipped. The bound multiplies the same factors as
/// [`Scorer::score`] in another order, so the two round differently; the
/// margin widens with the term count to keep covering that. A completion
/// of idle vertices is exact up to the same margin.
pub const BOUND_SLACK: f64 = 1e-12;

/// The cost that stands for a factor of zero (or a factor that is not a
/// number) in the idle assignment: far beyond the `−ln` of any positive
/// double, yet finite, so the assignment still terminates.
const ZERO_FACTOR_COST: f64 = 1e6;

/// A [`Scorer`]'s term list regrouped for an embedding search of one
/// pattern into one target.
///
/// The pattern splits into its *core*, the vertices with a CX partner,
/// and its *idle* vertices, which have none. The search places only the
/// core ([`Bound::core_pattern`], core index `i` being pattern vertex
/// `core[i]`), multiplying as it goes: per core vertex, the 1q-gate and
/// readout success of the qubit it lands on (one factor per term), and
/// per pattern edge, the CX success of the coupling it lands on, raised
/// to its CX count. An idle vertex's factor depends only on its own
/// qubit, so each core embedding is completed by the best assignment of
/// idle vertices to free qubits ([`Bound::complete`]), and, where a pool
/// wants more, by the next-best ones ([`Bound::next_completions`]).
///
/// Every factor is a success rate in `[0, 1]`, so the running product of
/// a partial embedding bounds the ESP of every completion, and
/// [`mapper::Weights::rest`] tightens that by the best factor each
/// unplaced vertex and each uncounted edge could still add. A caller
/// ranking by ESP turns its running bar into a cut ([`Bound::cut`]) and
/// skips what falls below it; every ESP it keeps still comes from
/// [`Scorer::score`].
#[derive(Debug, Clone)]
pub(crate) struct Bound<'a> {
    scorer: &'a Scorer,
    /// Qubit count of the target.
    targets: u32,
    /// The core's edges, re-indexed densely: the pattern the search
    /// places.
    core_pattern: Topology,
    /// Pattern vertex of each core index, ascending.
    core: Vec<u32>,
    /// Pattern vertices without a CX partner, ascending.
    idle: Vec<u32>,
    /// Per pattern vertex: its 1q-gate and measurement counts.
    counts: Vec<(i32, i32)>,
    /// `pattern × target`: the 1q-gate and readout factor of each pattern
    /// vertex on each qubit.
    vertex: Vec<f64>,
    /// Per core index: its CX partners (core indices) and the CX count of
    /// each pair.
    partners: Vec<Vec<(u32, i32)>>,
    /// Per pattern vertex: its largest factor on any qubit.
    best_vertex: Vec<f64>,
    /// The largest CX success of any coupling in the target.
    best_cx: f64,
    /// The product of every idle vertex's `best_vertex`: what a completion
    /// can add at most to a core embedding.
    idle_best: f64,
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

    /// The pattern the search places: the core, re-indexed densely.
    pub(crate) fn core_pattern(&self) -> &Topology {
        &self.core_pattern
    }

    /// The most a completion can multiply into a core embedding's
    /// product.
    pub(crate) fn idle_best(&self) -> f64 {
        self.idle_best
    }

    /// Completes `core_phi`, an embedding of the core (by core index),
    /// into `phi`, an embedding of the whole pattern: core vertices keep
    /// their qubits, and every idle vertex gets a free qubit, one the core
    /// does not use and `excluded` (indexed by qubit) does not mark.
    ///
    /// The idle vertices take the assignment with the largest product of
    /// their factors, solved exactly as a minimum-cost assignment on the
    /// factors' negative logarithms. That sums where [`Scorer::score`]
    /// multiplies, so the completion's ESP is the best over every
    /// completion up to [`BOUND_SLACK`]. Interchangeable idle vertices
    /// (equal 1q-gate and measurement counts, hence equal factors on every
    /// qubit) take their qubits in ascending order, so a relabeled pattern
    /// completes the same way. Returns false when fewer qubits are free
    /// than vertices are idle.
    pub(crate) fn complete(&self, core_phi: &[u32], excluded: &[bool], phi: &mut Vec<u32>) -> bool {
        phi.clear();
        phi.resize(self.counts.len(), u32::MAX);
        for (&v, &t) in self.core.iter().zip(core_phi) {
            phi[v as usize] = t;
        }
        if self.idle.is_empty() {
            return true;
        }
        let columns = self.free_qubits(core_phi.iter().copied(), excluded);
        let Some(assigned) = min_cost_assignment(self.idle.len(), columns.len(), |r, c| {
            Some(self.idle_cost(r, columns[c]))
        }) else {
            return false;
        };
        let key = |r: usize| self.counts[self.idle[r] as usize];
        let mut rows: Vec<usize> = (0..self.idle.len()).collect();
        rows.sort_by_key(|&r| key(r));
        for group in rows.chunk_by(|&a, &b| key(a) == key(b)) {
            let mut qubits: Vec<u32> = group.iter().map(|&r| columns[assigned[r]]).collect();
            qubits.sort_unstable();
            for (&r, q) in group.iter().zip(qubits) {
                phi[self.idle[r] as usize] = q;
            }
        }
        true
    }

    /// The next-best completions of the completed embeddings `ranking`
    /// (each with its ESP), best first across all of them: every other
    /// assignment of their idle vertices to free qubits, interchangeable
    /// vertices swapped included. `visit` gets each as an embedding of the
    /// whole pattern until it returns false or the next one's ESP falls
    /// below `floor`.
    ///
    /// This is Murty's ranking of assignments, one partition tree per
    /// embedding on a shared heap: a popped assignment's subproblem splits
    /// into one child per free row, which keeps the rows before it and
    /// forbids that row its qubit, and each child is solved by the same
    /// exact assignment as [`Bound::complete`]. The order is by the sum of
    /// the factors' logarithms, so it is ESP order up to [`BOUND_SLACK`].
    pub(crate) fn next_completions(
        &self,
        ranking: &[(f64, Vec<u32>)],
        excluded: &[bool],
        floor: f64,
        mut visit: impl FnMut(&[u32]) -> bool,
    ) {
        if self.idle.is_empty() {
            return;
        }
        let idle_of =
            |phi: &[u32]| -> Vec<u32> { self.idle.iter().map(|&v| phi[v as usize]).collect() };
        let cost = |assignment: &[u32]| -> f64 {
            assignment
                .iter()
                .enumerate()
                .map(|(r, &t)| self.idle_cost(r, t))
                .sum()
        };
        // A node's key is its root's ln ESP less the rise in idle cost.
        let base: Vec<f64> = ranking
            .iter()
            .map(|(esp, phi)| esp.ln() + cost(&idle_of(phi)))
            .collect();
        let roots = ranking.len() as u64;
        let mut heap: BinaryHeap<Assignment> = ranking
            .iter()
            .enumerate()
            .map(|(root, (esp, phi))| Assignment {
                key: esp.ln(),
                seq: root as u64,
                root,
                fixed: 0,
                forbidden: Vec::new(),
                qubits: idle_of(phi),
            })
            .collect();
        let free: Vec<Vec<u32>> = ranking
            .iter()
            .map(|(_, phi)| self.free_qubits(self.core.iter().map(|&v| phi[v as usize]), excluded))
            .collect();
        let stop = floor * (1.0 - self.slack);
        let mut seq = roots;
        let mut phi = Vec::new();
        while let Some(node) = heap.pop() {
            if node.seq >= roots {
                if node.key.exp() < stop {
                    return;
                }
                phi.clone_from(&ranking[node.root].1);
                for (&v, &t) in self.idle.iter().zip(&node.qubits) {
                    phi[v as usize] = t;
                }
                if !visit(&phi) {
                    return;
                }
            }
            for i in node.fixed..self.idle.len() {
                let mut forbidden: Vec<(usize, u32)> = node
                    .forbidden
                    .iter()
                    .copied()
                    .filter(|&(r, _)| r >= i)
                    .collect();
                forbidden.push((i, node.qubits[i]));
                let kept = &node.qubits[..i];
                let columns: Vec<u32> = free[node.root]
                    .iter()
                    .copied()
                    .filter(|t| !kept.contains(t))
                    .collect();
                let solved = min_cost_assignment(self.idle.len() - i, columns.len(), |r, c| {
                    let t = columns[c];
                    (!forbidden.contains(&(i + r, t))).then(|| self.idle_cost(i + r, t))
                });
                let Some(solved) = solved else { continue };
                let mut qubits = kept.to_vec();
                qubits.extend(solved.iter().map(|&c| columns[c]));
                heap.push(Assignment {
                    key: base[node.root] - cost(&qubits),
                    seq,
                    root: node.root,
                    fixed: i,
                    forbidden,
                    qubits,
                });
                seq += 1;
            }
        }
    }

    /// The cost of idle vertex `idle[r]` on qubit `t` in the idle
    /// assignment: the negative logarithm of its factor.
    fn idle_cost(&self, r: usize, t: u32) -> f64 {
        let f = self.vertex[self.idle[r] as usize * self.targets as usize + t as usize];
        if f > 0.0 && f.is_finite() {
            -f.ln()
        } else {
            ZERO_FACTOR_COST
        }
    }

    /// The qubits idle vertices may take next to a core on `core_qubits`:
    /// the others, less those `excluded` marks, ascending.
    fn free_qubits(&self, core_qubits: impl Iterator<Item = u32>, excluded: &[bool]) -> Vec<u32> {
        let mut taken = excluded.to_vec();
        for t in core_qubits {
            taken[t as usize] = true;
        }
        (0..self.targets).filter(|&t| !taken[t as usize]).collect()
    }
}

impl mapper::Weights for Bound<'_> {
    #[inline]
    fn place(&self, i: u32, t: u32, mapping: &[u32]) -> f64 {
        let mut factor = self.vertex[(self.core[i as usize] * self.targets + t) as usize];
        for &(u, count) in &self.partners[i as usize] {
            let tu = mapping[u as usize];
            if tu != u32::MAX {
                // An uncalibrated pair only arises when the bound is off.
                factor *= self.scorer.cx_success(t, tu).unwrap_or(1.0).powi(count);
            }
        }
        factor
    }

    /// Per depth, the best factor of each core vertex still to place, the
    /// best CX success of each edge it closes, and the best completion.
    fn rest(&self, order: &[u32]) -> Vec<f64> {
        let mut depth_of = vec![0; order.len()];
        for (d, &i) in order.iter().enumerate() {
            depth_of[i as usize] = d;
        }
        let mut rest = vec![self.idle_best; order.len() + 1];
        for d in (0..order.len()).rev() {
            let i = order[d] as usize;
            let mut factor = self.best_vertex[self.core[i] as usize];
            for &(u, count) in &self.partners[i] {
                if depth_of[u as usize] < d {
                    factor *= self.best_cx.powi(count);
                }
            }
            rest[d] = rest[d + 1] * factor;
        }
        rest
    }
}

/// A node of [`Bound::next_completions`]' partition trees: the best idle
/// assignment of one completed embedding whose rows before `fixed` keep
/// the qubits of the assignment it split from and whose `forbidden`
/// cells are ruled out.
#[derive(Debug)]
struct Assignment {
    /// Its ESP's logarithm, up to rounding.
    key: f64,
    /// Creation order: roots first, then children as they are made.
    seq: u64,
    /// The completed embedding it descends from.
    root: usize,
    /// Rows before this one keep their qubits in every descendant.
    fixed: usize,
    /// `(row, qubit)` cells the assignment may not use.
    forbidden: Vec<(usize, u32)>,
    /// The qubit of each idle vertex.
    qubits: Vec<u32>,
}

/// Highest key first, then earliest made.
impl Ord for Assignment {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key
            .total_cmp(&other.key)
            .then(other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for Assignment {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Assignment {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Assignment {}

/// The minimum-cost assignment of each of `rows` rows to its own one of
/// `columns` columns, by the shortest augmenting path Hungarian method in
/// `O(rows² · columns)`. `cost` is finite, or `None` for a cell no row may
/// take. Returns the column of each row, or `None` if no assignment
/// exists.
fn min_cost_assignment(
    rows: usize,
    columns: usize,
    cost: impl Fn(usize, usize) -> Option<f64>,
) -> Option<Vec<usize>> {
    if rows > columns {
        return None;
    }
    // 1-based, with row 0 and column 0 as the sentinel that starts each
    // augmenting path; `matched[j]` is the row on column `j` (0: none).
    let mut row_potential = vec![0.0; rows + 1];
    let mut column_potential = vec![0.0; columns + 1];
    let mut matched = vec![0usize; columns + 1];
    let mut previous = vec![0usize; columns + 1];
    for row in 1..=rows {
        matched[0] = row;
        let mut j0 = 0;
        let mut slack = vec![f64::INFINITY; columns + 1];
        let mut visited = vec![false; columns + 1];
        loop {
            visited[j0] = true;
            let i0 = matched[j0];
            let (mut delta, mut j1) = (f64::INFINITY, 0);
            for j in 1..=columns {
                if visited[j] {
                    continue;
                }
                if let Some(c) = cost(i0 - 1, j - 1) {
                    let reduced = c - row_potential[i0] - column_potential[j];
                    if reduced < slack[j] {
                        slack[j] = reduced;
                        previous[j] = j0;
                    }
                }
                if slack[j] < delta {
                    delta = slack[j];
                    j1 = j;
                }
            }
            // No column is reachable: the rows so far have no assignment.
            if j1 == 0 {
                return None;
            }
            for j in 0..=columns {
                if visited[j] {
                    row_potential[matched[j]] += delta;
                    column_potential[j] -= delta;
                } else {
                    slack[j] -= delta;
                }
            }
            j0 = j1;
            if matched[j0] == 0 {
                break;
            }
        }
        while j0 != 0 {
            let j1 = previous[j0];
            matched[j0] = matched[j1];
            j0 = j1;
        }
    }
    let mut assigned = vec![0; rows];
    for j in 1..=columns {
        if matched[j] != 0 {
            assigned[matched[j] - 1] = j - 1;
        }
    }
    Some(assigned)
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
    fn assignment_is_the_brute_force_minimum() {
        // Deterministic pseudo-random costs, ties and forbidden cells
        // (`None`) included.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            Some((state % 8) as f64 * 0.5).filter(|&c| c < 3.5)
        };
        type Costs = Vec<Vec<Option<f64>>>;
        fn best(rows: usize, used: &mut Vec<usize>, cost: &Costs) -> Option<f64> {
            if used.len() == rows {
                return used.iter().enumerate().map(|(r, &c)| cost[r][c]).sum();
            }
            let mut min: Option<f64> = None;
            for c in 0..cost[0].len() {
                if !used.contains(&c) {
                    used.push(c);
                    if let Some(total) = best(rows, used, cost) {
                        min = Some(min.map_or(total, |m| m.min(total)));
                    }
                    used.pop();
                }
            }
            min
        }
        for (rows, columns) in [(1, 1), (1, 5), (2, 2), (3, 5), (4, 6), (5, 5), (3, 2)] {
            for _ in 0..20 {
                let cost: Costs = (0..rows)
                    .map(|_| (0..columns).map(|_| next()).collect())
                    .collect();
                let want = best(rows, &mut Vec::new(), &cost);
                let Some(assigned) = min_cost_assignment(rows, columns, |r, c| cost[r][c]) else {
                    assert_eq!(want, None, "{cost:?}");
                    continue;
                };
                let mut distinct = assigned.clone();
                distinct.sort_unstable();
                distinct.dedup();
                assert_eq!(distinct.len(), rows);
                let total: Option<f64> =
                    assigned.iter().enumerate().map(|(r, &c)| cost[r][c]).sum();
                assert_eq!(total, want, "{cost:?}");
            }
        }
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
