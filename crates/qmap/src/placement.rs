//! Variation-aware initial placement.
//!
//! Two engines are provided:
//!
//! - swap-free placement: the circuit's interaction graph is embedded into
//!   the coupling graph and the embeddings are ranked by ESP. This is both
//!   the paper's "brute force search to check the optimality of the
//!   mapping" (§5.2) and the engine EDM uses to pick its top-K diverse
//!   mappings. Embeddings are streamed through [`score_embeddings`], which
//!   scores each one off a compiled [`esp::Scorer`] term list instead of
//!   building its relabeled circuit: [`best_swap_free_placement_with`]
//!   keeps a running argmax, and EDM's `diversify_detailed` keeps the
//!   top-K pool. The search is branch-and-bound on ESP: each caller's
//!   running bar (the best so far, or the pool's floor) and the
//!   ESP bound of a partial embedding let it skip embeddings that
//!   cannot reach the bar. An uncapped exhaustive search cuts them as
//!   subtrees; a capped or budgeted one reaches them as before and leaves
//!   them unscored. Either way the result is bit for bit the unbounded
//!   search's.
//! - [`greedy_placement`]: a variation-aware greedy heuristic for circuits
//!   whose interaction graph does not embed swap-free (routing will insert
//!   SWAPs afterwards).

use crate::esp;
use crate::{Layout, MapError};
use qcir::{Circuit, Qubit};
use qdevice::mapper::{self, MapperSelection, SearchOutcome};
use qdevice::{Calibration, Topology};

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

/// Streams the embeddings of `pattern` into `target` (at most
/// `max_embeddings`, in the mapper's enumeration order), scores each one
/// `keep` accepts with `scorer`, and hands it to `visit` with its ESP.
/// `visit` returns its *bar*: the ESP below which no later embedding
/// counts for it (`0.0` when every one does).
///
/// The search carries the ESP bound of each partial embedding: the
/// product of the success rates its placed vertices and edges contribute,
/// which bounds the ESP of all its completions (see
/// [`mapper::for_each_weighted`]). An embedding whose bound falls below
/// the bar is never handed to `visit`: an uncapped exhaustive search does
/// not even extend a partial embedding that low, any other search reaches
/// it as before but leaves it unscored. So `visit` misses only embeddings
/// whose ESP is certainly below its bar (a margin keeps ties), sees the
/// rest in enumeration order, and the outcome is the unbounded search's.
///
/// No embedding is stored and no circuit is built. Returns the search
/// outcome and the number of embeddings scored; the scored count is added
/// to the `edm_qmap_esp_scored_total` work counter, and the placements
/// cut plus the embeddings left unscored to `edm_qmap_esp_pruned_total`.
///
/// # Errors
///
/// The first scoring error in enumeration order (see [`esp::Scorer::score`]).
/// Where scoring could fail the bound skips nothing, so that error is the
/// unbounded search's. The search still runs to its end.
pub fn score_embeddings(
    scorer: &esp::Scorer,
    pattern: &Topology,
    target: &Topology,
    max_embeddings: usize,
    selection: MapperSelection,
    mut keep: impl FnMut(&[u32]) -> bool,
    mut visit: impl FnMut(&[u32], f64) -> f64,
) -> Result<(SearchOutcome, u64), MapError> {
    let bound = scorer.bound(pattern, target);
    let (mut scored, mut unscored) = (0u64, 0u64);
    let mut cut = 0.0;
    let mut error = None;
    let (outcome, pruned) = mapper::for_each_weighted(
        pattern,
        target,
        max_embeddings,
        selection,
        &bound,
        |phi, product| {
            if error.is_some() || !keep(phi) {
                return cut;
            }
            if product < cut {
                unscored += 1;
                return cut;
            }
            scored += 1;
            match scorer.score(|p| phi[p as usize]) {
                Ok(esp) => cut = bound.cut(visit(phi, esp)),
                Err(e) => error = Some(e),
            }
            cut
        },
    );
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
        None => Ok((outcome, scored)),
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
    best_placement_where(circuit, topology, cal, selection, |_| true)
}

/// The ESP-best swap-free placement among the embeddings `allowed`
/// accepts. Errors match a full ranking (where scoring could fail the
/// bound skips nothing), and the strict `>` keeps the first maximum in
/// enumeration order — the element a stable best-first sort would put
/// first. The running best is the bar, so the search skips only
/// embeddings whose ESP is certainly below it: ties with the best are
/// still scored, and lose to it.
pub(crate) fn best_placement_where(
    circuit: &Circuit,
    topology: &Topology,
    cal: &Calibration,
    selection: MapperSelection,
    allowed: impl Fn(&[u32]) -> bool,
) -> Result<Option<Layout>, MapError> {
    if circuit.num_qubits() > topology.num_qubits() {
        return Err(MapError::TooManyQubits {
            circuit: circuit.num_qubits(),
            device: topology.num_qubits(),
        });
    }
    let pattern = interaction_topology(circuit);
    let scorer = esp::Scorer::new(circuit, topology.num_qubits(), Qubit::index, cal);
    // Ranking wants every embedding the bound cannot rule out; under a
    // budgeted engine the search itself bounds the pool instead of a
    // result cap.
    let mut best: Option<(f64, Vec<u32>)> = None;
    let (outcome, _) = score_embeddings(
        &scorer,
        &pattern,
        topology,
        usize::MAX,
        selection,
        |_| true,
        |phi, esp| {
            if best.as_ref().is_none_or(|(top, _)| esp > *top) && allowed(phi) {
                best = Some((esp, phi.to_vec()));
            }
            best.as_ref().map_or(0.0, |(top, _)| *top)
        },
    )?;
    if outcome != SearchOutcome::Complete {
        edm_telemetry::counter!(
            "edm_qmap_truncated_rankings_total",
            "ESP rankings computed over a truncated embedding pool"
        )
        .inc();
    }
    Ok(best.map(|(_, phi)| Layout::from_physical(phi, topology.num_qubits())))
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

    /// The first `cap` exhaustive embeddings of `c` with their ESP, best
    /// first.
    fn ranked(
        c: &Circuit,
        topology: &Topology,
        cal: &Calibration,
        cap: usize,
    ) -> Vec<(Layout, f64)> {
        let scorer = esp::Scorer::new(c, topology.num_qubits(), Qubit::index, cal);
        let pattern = interaction_topology(c);
        let mut ranked = Vec::new();
        let (_, scored) = score_embeddings(
            &scorer,
            &pattern,
            topology,
            cap,
            MapperSelection::Exhaustive,
            |_| true,
            |phi, esp| {
                ranked.push((
                    Layout::from_physical(phi.to_vec(), topology.num_qubits()),
                    esp,
                ));
                0.0
            },
        )
        .unwrap();
        assert_eq!(scored as usize, ranked.len());
        ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
        ranked
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
    fn max_embeddings_caps_results() {
        let (d, cal) = setup();
        let c = path_circuit(3);
        assert_eq!(ranked(&c, d.topology(), &cal, 7).len(), 7);
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
