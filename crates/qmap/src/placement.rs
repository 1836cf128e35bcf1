//! Variation-aware initial placement.
//!
//! - Swap-free placement ranks the embeddings of a circuit's interaction
//!   graph into the coupling graph by ESP ([`rank_embeddings`]). The top
//!   of that ranking is both the paper's "brute force search to check the
//!   optimality of the mapping" (§5.2), [`best_swap_free_placement_with`],
//!   and, for a mapped circuit's footprint, the pool EDM's
//!   `diversify_detailed` takes its top-K members from. One bounded pool
//!   serves both: it keeps the best `capacity` embeddings within a ratio
//!   of the best, and its bar is the search's cut. The search is
//!   branch-and-bound on ESP: a partial embedding whose product, times
//!   the best its unplaced vertices and edges could still add, falls
//!   below the bar is not extended. Only the interacting core of the
//!   pattern is searched; qubits without a two-qubit gate are assigned to
//!   free qubits exactly, once per core embedding, and a pool left short
//!   of its fill takes the next-best such assignments. No circuit is
//!   built: every ESP comes off one compiled [`esp::Scorer`] term list.
//! - [`greedy_placement`]: a variation-aware greedy heuristic for circuits
//!   whose interaction graph does not embed swap-free (routing will insert
//!   SWAPs afterwards).

use crate::esp;
use crate::{Layout, MapError};
use qcir::{Circuit, Qubit};
use qdevice::drift::Quarantine;
use qdevice::mapper::{self, MapperSelection, SearchOutcome};
use qdevice::{Calibration, Topology};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Builds the interaction graph of a logical circuit: one vertex per logical
/// qubit, one edge per interacting pair.
pub fn interaction_topology(circuit: &Circuit) -> Topology {
    let edges: Vec<(u32, u32)> = circuit
        .interaction_edges()
        .into_iter()
        .map(|(a, b)| (a.index(), b.index()))
        .collect();
    Topology::new(circuit.num_qubits(), &edges)
}

/// Embeddings with their ESP, best first: what [`rank_embeddings`] keeps.
pub type Ranking = Vec<(f64, Vec<u32>)>;

/// Ranks the embeddings of `pattern` into `target` by the ESP `scorer`
/// gives them, keeping the best `capacity` whose ESP is at least `ratio`
/// times the best one. Returns them best first, ties in enumeration
/// order, each with its ESP, plus the search outcome.
///
/// Only the pattern's core, its vertices with a two-qubit gate, is
/// searched. Each core embedding is completed at its best: every idle
/// vertex goes to a free qubit by an exact maximum-product assignment of
/// its 1q-gate and readout factors, and the completed embedding is
/// scored.
/// `quarantine`'s qubits are never assigned to idle vertices; `target`
/// is expected to have its quarantined links masked already
/// ([`Quarantine::mask`]), which keeps the core off them.
///
/// The pool's bar is max(`ratio` × best, the worst kept once `capacity`
/// are kept), and it only rises. It is the search's cut: an exhaustive
/// search does not extend a partial embedding whose product, times the
/// most its unplaced vertices, uncounted edges and idle completion could
/// add, falls below the bar (with a rounding margin), and a budgeted one
/// reaches such embeddings as before but leaves them unscored. Either
/// way the ranking is the one every embedding scored would give.
///
/// When fewer than `fill` (at most `capacity`) embeddings are kept and the
/// pattern has idle vertices, the pool is filled with the next-best
/// completions of the kept core embeddings: their idle vertices on other
/// free qubits, or interchangeable ones swapped, which send readout
/// errors to other output bits. They join best first across all kept
/// cores, while they are within `ratio` of the best, up to twice `fill`
/// in all (at most `capacity`), so that picking `fill` from the pool
/// leaves a choice for each; the ranking is then re-sorted by ESP (ties:
/// core embeddings first). A completion that fails to score ends the
/// fill.
///
/// The number of embeddings scored is added to the
/// `edm_qmap_esp_scored_total` work counter, and the placements cut plus
/// the embeddings left unscored to `edm_qmap_esp_pruned_total`.
///
/// # Errors
///
/// The first scoring error in enumeration order (see [`esp::Scorer::score`]).
/// Where scoring could fail the bound skips nothing, so that error is the
/// unbounded search's. The search still runs to its end.
#[allow(clippy::too_many_arguments)]
pub fn rank_embeddings(
    scorer: &esp::Scorer,
    pattern: &Topology,
    target: &Topology,
    selection: MapperSelection,
    quarantine: Option<&Quarantine>,
    capacity: usize,
    ratio: f64,
    fill: usize,
) -> Result<(Ranking, SearchOutcome), MapError> {
    let bound = scorer.bound(pattern, target);
    let excluded: Vec<bool> = (0..target.num_qubits())
        .map(|q| quarantine.is_some_and(|z| z.contains_qubit(q)))
        .collect();
    let mut pool = Pool::new(capacity, ratio);
    let (mut scored, mut unscored) = (0u64, 0u64);
    let mut cut = 0.0;
    let mut error = None;
    let mut phi = Vec::new();
    let (outcome, pruned) = mapper::for_each_weighted(
        bound.core_pattern(),
        target,
        usize::MAX,
        selection,
        &bound,
        |core_phi, product| {
            if error.is_some() {
                return cut;
            }
            if product * bound.idle_best() < cut {
                unscored += 1;
                return cut;
            }
            if !bound.complete(core_phi, &excluded, &mut phi) {
                return cut;
            }
            scored += 1;
            match scorer.score(|p| phi[p as usize]) {
                Ok(esp) => cut = bound.cut(pool.offer(&phi, esp)),
                Err(e) => error = Some(e),
            }
            cut
        },
    );
    let floor = pool.ratio * pool.best;
    let mut ranking = pool.ranked();
    if error.is_none() && ranking.len() < fill.min(capacity) {
        let wanted = fill.saturating_mul(2).min(capacity);
        let (kept, mut more) = (ranking.len(), Vec::new());
        bound.next_completions(&ranking, &excluded, floor, |phi| {
            scored += 1;
            match scorer.score(|p| phi[p as usize]) {
                Ok(esp) if esp >= floor => more.push((esp, phi.to_vec())),
                Ok(_) => {}
                Err(_) => return false,
            }
            kept + more.len() < wanted
        });
        ranking.extend(more);
        ranking.sort_by(|a, b| b.0.total_cmp(&a.0));
    }
    edm_telemetry::counter!(
        "edm_qmap_esp_scored_total",
        "Embeddings scored by an ESP term list"
    )
    .add(scored);
    edm_telemetry::counter!(
        "edm_qmap_esp_pruned_total",
        "Partial placements an ESP bound cut, plus embeddings it left unscored"
    )
    .add(pruned + unscored);
    match error {
        Some(e) => Err(e),
        None => Ok((ranking, outcome)),
    }
}

/// The bounded pool of [`rank_embeddings`].
struct Pool {
    capacity: usize,
    ratio: f64,
    /// The best ESP offered so far.
    best: f64,
    /// The kept embeddings, the next one to drop on top.
    kept: BinaryHeap<Entry>,
    /// Embeddings offered so far: the enumeration index of the next one.
    offered: u64,
}

/// One kept embedding. Entries order worst first: lower ESP, then later
/// in enumeration order.
#[derive(Debug)]
struct Entry {
    esp: f64,
    index: u64,
    phi: Vec<u32>,
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .esp
            .total_cmp(&self.esp)
            .then(self.index.cmp(&other.index))
    }
}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Entry {}

impl Pool {
    fn new(capacity: usize, ratio: f64) -> Self {
        Pool {
            capacity,
            ratio: ratio.max(0.0),
            best: 0.0,
            kept: BinaryHeap::new(),
            offered: 0,
        }
    }

    /// The ESP below which no later embedding is kept: `ratio` × best,
    /// or the worst kept once the pool is full, whichever is higher. An
    /// embedding tying the worst of a full pool is not kept either: it
    /// comes later in enumeration order.
    fn bar(&self) -> f64 {
        let floor = self.ratio * self.best;
        match self.kept.peek() {
            Some(worst) if self.kept.len() >= self.capacity => floor.max(worst.esp),
            _ => floor,
        }
    }

    /// Keeps `phi` if it ranks among the best `capacity` within `ratio` of
    /// the best, drops what that pushes out, and returns the new bar.
    fn offer(&mut self, phi: &[u32], esp: f64) -> f64 {
        let index = self.offered;
        self.offered += 1;
        let full = self.kept.len() >= self.capacity;
        if esp < self.ratio * self.best || (full && self.kept.peek().is_none_or(|w| esp <= w.esp)) {
            return self.bar();
        }
        self.kept.push(Entry {
            esp,
            index,
            phi: phi.to_vec(),
        });
        self.best = self.best.max(esp);
        let floor = self.ratio * self.best;
        while self
            .kept
            .peek()
            .is_some_and(|w| self.kept.len() > self.capacity || w.esp < floor)
        {
            self.kept.pop();
        }
        self.bar()
    }

    /// The kept embeddings, best first, ties in enumeration order.
    fn ranked(self) -> Ranking {
        self.kept
            .into_sorted_vec()
            .into_iter()
            .map(|e| (e.esp, e.phi))
            .collect()
    }
}

/// The single best swap-free placement by ESP, or `None` if the interaction
/// graph does not embed. On devices where exhaustive enumeration is
/// intractable, a budgeted [`MapperSelection::Filtered`] search yields the
/// best embedding *seen* — still a strong variation-aware placement, though
/// no longer provably optimal.
///
/// The circuit must be in the device basis (use
/// [`qcir::Circuit::decomposed`]). A budget-truncated enumeration is
/// counted by the `edm_qmap_truncated_rankings_total` counter.
///
/// # Errors
///
/// - [`MapError::TooManyQubits`] if the circuit is wider than the device.
/// - [`MapError::UnsupportedGate`] if the circuit is not in the basis.
/// - [`MapError::UncalibratedEdge`] if an embedding uses an uncalibrated
///   link (the first such embedding in enumeration order).
///
/// # Examples
///
/// ```
/// use qcir::Circuit;
/// use qdevice::{presets, DeviceModel};
/// use qmap::{placement, MapperSelection};
///
/// let device = DeviceModel::synthesize(presets::melbourne14(), 4);
/// let cal = device.calibration();
/// let mut c = Circuit::new(3, 3);
/// c.cx(0, 1);
/// c.cx(1, 2);
/// c.measure_all();
/// let best = placement::best_swap_free_placement_with(
///     &c,
///     device.topology(),
///     &cal,
///     MapperSelection::Exhaustive,
/// )?;
/// assert!(best.is_some());
/// # Ok::<(), qmap::MapError>(())
/// ```
pub fn best_swap_free_placement_with(
    circuit: &Circuit,
    topology: &Topology,
    cal: &Calibration,
    selection: MapperSelection,
) -> Result<Option<Layout>, MapError> {
    best_placement(circuit, topology, cal, selection, None)
}

/// The top of a [`rank_embeddings`] ranking of `circuit` with capacity 1:
/// the first maximum in enumeration order, `quarantine`'s qubits kept out
/// of the idle assignment.
pub(crate) fn best_placement(
    circuit: &Circuit,
    topology: &Topology,
    cal: &Calibration,
    selection: MapperSelection,
    quarantine: Option<&Quarantine>,
) -> Result<Option<Layout>, MapError> {
    if circuit.num_qubits() > topology.num_qubits() {
        return Err(MapError::TooManyQubits {
            circuit: circuit.num_qubits(),
            device: topology.num_qubits(),
        });
    }
    let pattern = interaction_topology(circuit);
    let scorer = esp::Scorer::new(circuit, topology.num_qubits(), Qubit::index, cal);
    let (ranked, outcome) = rank_embeddings(
        &scorer, &pattern, topology, selection, quarantine, 1, 0.0, 1,
    )?;
    if outcome != SearchOutcome::Complete {
        edm_telemetry::counter!(
            "edm_qmap_truncated_rankings_total",
            "ESP rankings computed over a truncated embedding pool"
        )
        .inc();
    }
    Ok(ranked
        .into_iter()
        .next()
        .map(|(_, phi)| Layout::from_physical(phi, topology.num_qubits())))
}

/// Variation-aware greedy placement for circuits that need routing.
///
/// Logical qubits are placed in order of decreasing interaction weight; each
/// is assigned the free physical qubit maximizing a reliability score that
/// combines readout success (weighted by the qubit's measurement count) and
/// link success to already-placed interaction partners, with distance decay
/// for non-adjacent partners.
///
/// # Errors
///
/// Returns [`MapError::TooManyQubits`] if the circuit is wider than the
/// device.
pub fn greedy_placement(
    circuit: &Circuit,
    topology: &Topology,
    cal: &Calibration,
) -> Result<Layout, MapError> {
    let n = circuit.num_qubits() as usize;
    let np = topology.num_qubits() as usize;
    if n > np {
        return Err(MapError::TooManyQubits {
            circuit: circuit.num_qubits(),
            device: topology.num_qubits(),
        });
    }

    // Interaction weights and measurement counts.
    let mut weight = vec![vec![0u32; n]; n];
    let mut meas = vec![0u32; n];
    for g in circuit.iter() {
        let qs = g.qubits();
        if qs.len() == 2 {
            let (a, b) = (qs[0].usize(), qs[1].usize());
            weight[a][b] += 1;
            weight[b][a] += 1;
        }
        if g.is_measure() {
            meas[qs[0].usize()] += 1;
        }
    }
    let total_weight: Vec<u32> = (0..n).map(|l| weight[l].iter().sum()).collect();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&l| std::cmp::Reverse((total_weight[l], meas[l])));

    let dist = topology.distance_matrix();
    let mean_link_success = 1.0 - cal.mean_cx_err();
    let mut assignment: Vec<Option<u32>> = vec![None; n];
    let mut used = vec![false; np];

    for &l in &order {
        let mut best: Option<(f64, u32)> = None;
        for p in 0..np as u32 {
            if used[p as usize] {
                continue;
            }
            let mut score = (1.0 - cal.readout_err(p)).powi(meas[l] as i32);
            // Seed qubits (no placed partners) prefer spots with strong links
            // available around them.
            let placed_partners: Vec<(usize, u32)> = (0..n)
                .filter(|&k| weight[l][k] > 0 && assignment[k].is_some())
                .map(|k| (k, assignment[k].expect("filtered to placed")))
                .collect();
            if placed_partners.is_empty() {
                let best_link = topology
                    .neighbors(p)
                    .iter()
                    .filter_map(|&m| cal.cx_err(p, m))
                    .map(|e| 1.0 - e)
                    .fold(0.0, f64::max);
                score *= 0.5 + 0.5 * best_link;
            }
            for (k, pk) in placed_partners {
                let d = dist[p as usize][pk as usize];
                let factor = if d == usize::MAX {
                    0.0
                } else if d == 1 {
                    1.0 - cal.cx_err(p, pk).unwrap_or(cal.mean_cx_err())
                } else {
                    // Each extra hop costs roughly one SWAP (3 CX) of the
                    // average link.
                    mean_link_success.powi(3 * (d as i32 - 1)) * mean_link_success
                };
                score *= factor.powi(weight[l][k] as i32);
            }
            if best.is_none_or(|(s, _)| score > s) {
                best = Some((score, p));
            }
        }
        let (_, p) = best.expect("device has at least as many qubits as the circuit");
        assignment[l] = Some(p);
        used[p as usize] = true;
    }

    let log_to_phys: Vec<u32> = assignment
        .into_iter()
        .map(|a| a.expect("every logical qubit placed"))
        .collect();
    Ok(Layout::from_physical(log_to_phys, topology.num_qubits()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdevice::{presets, DeviceModel};

    fn setup() -> (DeviceModel, Calibration) {
        let d = DeviceModel::synthesize(presets::melbourne14(), 21);
        let c = d.calibration();
        (d, c)
    }

    fn path_circuit(n: u32) -> Circuit {
        let mut c = Circuit::new(n, n);
        for i in 0..n - 1 {
            c.cx(i, i + 1);
        }
        c.measure_all();
        c
    }

    /// The best `capacity` exhaustive embeddings of `c` with their ESP,
    /// best first.
    fn ranked(
        c: &Circuit,
        topology: &Topology,
        cal: &Calibration,
        capacity: usize,
    ) -> Vec<(Layout, f64)> {
        let scorer = esp::Scorer::new(c, topology.num_qubits(), Qubit::index, cal);
        let pattern = interaction_topology(c);
        let selection = MapperSelection::Exhaustive;
        let (ranked, outcome) = rank_embeddings(
            &scorer, &pattern, topology, selection, None, capacity, 0.0, 0,
        )
        .unwrap();
        assert_eq!(outcome, SearchOutcome::Complete);
        ranked
            .into_iter()
            .map(|(esp, phi)| (Layout::from_physical(phi, topology.num_qubits()), esp))
            .collect()
    }

    #[test]
    fn interaction_topology_matches_gates() {
        let mut c = Circuit::new(4, 0);
        c.cx(0, 1).cx(1, 2).cx(0, 1);
        let t = interaction_topology(&c);
        assert_eq!(t.num_edges(), 2);
        assert!(t.has_edge(0, 1));
        assert!(t.has_edge(1, 2));
    }

    #[test]
    fn rank_embeddings_sorted_and_valid() {
        let (d, cal) = setup();
        let c = path_circuit(4);
        let ranked = ranked(&c, d.topology(), &cal, usize::MAX);
        assert!(ranked.len() > 10);
        for w in ranked.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
        // Every layout supports the circuit swap-free.
        for (layout, _) in ranked.iter().take(5) {
            let phys = layout.apply(&c);
            assert!(esp::esp(&phys, &cal).is_ok());
        }
    }

    #[test]
    fn best_embedding_avoids_bad_readout_qubits() {
        let (d, cal) = setup();
        let c = path_circuit(4);
        let best =
            best_swap_free_placement_with(&c, d.topology(), &cal, MapperSelection::Exhaustive)
                .unwrap()
                .expect("path embeds in melbourne");
        // Q11 and Q12 have ~28% readout error; a 4-qubit path has plenty of
        // better homes.
        for &p in best.as_slice() {
            assert!(p != 11 && p != 12, "best layout used bad qubit {p}");
        }
    }

    #[test]
    fn unembeddable_pattern_returns_none() {
        let (d, cal) = setup();
        // A 5-star needs a degree-4 hub; melbourne's max degree is 3.
        let mut c = Circuit::new(5, 0);
        c.cx(0, 1).cx(0, 2).cx(0, 3).cx(0, 4);
        assert!(
            best_swap_free_placement_with(&c, d.topology(), &cal, MapperSelection::Exhaustive)
                .unwrap()
                .is_none()
        );
    }

    #[test]
    fn greedy_placement_is_injective_and_complete() {
        let (d, cal) = setup();
        let mut c = Circuit::new(5, 0);
        c.cx(0, 1).cx(0, 2).cx(0, 3).cx(0, 4); // needs routing
        let layout = greedy_placement(&c, d.topology(), &cal).unwrap();
        assert_eq!(layout.num_logical(), 5);
        let mut phys = layout.physical_qubits();
        phys.dedup();
        assert_eq!(phys.len(), 5);
    }

    #[test]
    fn greedy_places_interacting_qubits_nearby() {
        let (d, cal) = setup();
        let c = path_circuit(4);
        let layout = greedy_placement(&c, d.topology(), &cal).unwrap();
        // Consecutive path qubits should be close on the device.
        for i in 0..3 {
            let dd = d
                .topology()
                .distance(layout.phys(i), layout.phys(i + 1))
                .unwrap();
            assert!(dd <= 2, "logical {i},{} placed {dd} apart", i + 1);
        }
    }

    #[test]
    fn oversize_circuit_rejected() {
        let (d, cal) = setup();
        let c = Circuit::new(15, 0);
        assert!(matches!(
            greedy_placement(&c, d.topology(), &cal).unwrap_err(),
            MapError::TooManyQubits { .. }
        ));
        assert!(matches!(
            best_swap_free_placement_with(&c, d.topology(), &cal, MapperSelection::Exhaustive)
                .unwrap_err(),
            MapError::TooManyQubits { .. }
        ));
    }

    #[test]
    fn capacity_keeps_the_top_of_the_full_ranking() {
        let (d, cal) = setup();
        let c = path_circuit(3);
        let all = ranked(&c, d.topology(), &cal, usize::MAX);
        assert_eq!(ranked(&c, d.topology(), &cal, 7), all[..7]);
    }

    #[test]
    fn pool_keeps_the_best_within_the_ratio_ties_in_order() {
        let mut pool = Pool::new(3, 0.5);
        assert_eq!(pool.offer(&[0], 0.4), 0.2);
        assert_eq!(pool.offer(&[1], 0.6), 0.3);
        assert_eq!(pool.offer(&[2], 0.6), 0.4);
        // Full: a tie with the worst comes later and is not kept.
        assert_eq!(pool.offer(&[3], 0.4), 0.4);
        assert_eq!(pool.offer(&[4], 0.5), 0.5);
        // The best rises past twice the worst: the ratio drops it.
        assert_eq!(pool.offer(&[5], 1.1), 0.6);
        assert_eq!(pool.offer(&[6], 0.5), 0.6);
        let ranked = pool.ranked();
        assert_eq!(ranked, vec![(1.1, vec![5]), (0.6, vec![1]), (0.6, vec![2])]);
    }

    #[test]
    fn idle_qubits_take_the_best_free_readout() {
        let (d, cal) = setup();
        // Qubits 1 and 2 are measured only: each is one idle vertex,
        // assigned once per embedding of the 0-3 edge.
        let mut c = Circuit::new(4, 4);
        c.cx(0, 3).measure_all();
        let ranking = ranked(&c, d.topology(), &cal, usize::MAX);
        assert_eq!(ranking.len(), 2 * d.topology().num_edges());
        for (layout, _) in &ranking {
            let phys = layout.as_slice();
            let free: Vec<u32> = (0..14).filter(|q| !phys.contains(q)).collect();
            let best_free = free
                .iter()
                .map(|&q| 1.0 - cal.readout_err(q))
                .fold(0.0, f64::max);
            let worst_idle = (1.0 - cal.readout_err(phys[1])).min(1.0 - cal.readout_err(phys[2]));
            // Measure-only qubits sit on the two best free readouts, in
            // ascending qubit order.
            assert!(phys[1] < phys[2]);
            assert!(
                free.iter()
                    .filter(|&&q| 1.0 - cal.readout_err(q) > worst_idle)
                    .count()
                    == 0,
                "{phys:?}: a free qubit reads out better than {worst_idle} (best {best_free})"
            );
        }
    }

    #[test]
    fn top_embeddings_differ_in_qubits() {
        // EDM's premise: the top-K embeddings use (partially) different
        // hardware.
        let (d, cal) = setup();
        let c = path_circuit(4);
        let ranked = ranked(&c, d.topology(), &cal, usize::MAX);
        let top: Vec<_> = ranked.iter().take(4).map(|(l, _)| l.clone()).collect();
        let mut any_disjointness = false;
        for i in 0..top.len() {
            for j in (i + 1)..top.len() {
                if top[i].overlap(&top[j]) < 4 {
                    any_disjointness = true;
                }
            }
        }
        assert!(
            any_disjointness,
            "top-4 embeddings all identical qubit sets"
        );
    }
}
