//! The ESP bound skips only what nobody keeps, and each core embedding is
//! completed at its best.
//!
//! `placement::rank_embeddings` with capacity `usize::MAX` and ratio 0 never
//! raises its bar, so it cuts nothing and scores every core embedding: that
//! is the unbounded ranking. Every bounded ranking must be its top (the
//! best `capacity` within the ratio of the best, ties in enumeration
//! order) bit for bit, with the same `SearchOutcome` and the same first
//! error; the transpiler's placement, quarantine or not, must be its first
//! entry. The unbounded ranking itself is checked by brute force: every
//! embedding of the whole pattern is scored, and each core's completion
//! must reach the best ESP over all of that core's completions up to
//! `esp::BOUND_SLACK`. Patterns are small paths, stars and rings with
//! isolated vertices; calibrations are random, all equal (every embedding
//! ties), coarse (many ties) or holed (some couplings uncalibrated).

use proptest::prelude::*;
use qcir::{Circuit, Qubit};
use qdevice::drift::Quarantine;
use qdevice::fdls::FdlsConfig;
use qdevice::mapper::{self, SearchOutcome};
use qdevice::{presets, Calibration, Topology};
use qmap::{esp, placement, MapError, MapperSelection, Transpiler};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeMap;

fn target(kind: usize) -> Topology {
    match kind {
        0 => presets::line(8),
        1 => presets::melbourne14(),
        _ => presets::tokyo20(),
    }
}

/// A path, star or ring of `core` vertices followed by `isolated` idle
/// ones, as a circuit: each edge carries one to three CX in random
/// directions, among random 1q gates; every qubit but possibly the last
/// is measured.
fn circuit(shape: usize, core: u32, isolated: u32, rng: &mut ChaCha8Rng) -> Circuit {
    let edges: Vec<(u32, u32)> = match shape {
        0 => (1..core).map(|i| (i - 1, i)).collect(),
        1 => (1..core).map(|i| (0, i)).collect(),
        _ => (0..core).map(|i| (i, (i + 1) % core)).collect(),
    };
    let n = core + isolated;
    let mut c = Circuit::new(n, n);
    for &(a, b) in &edges {
        for _ in 0..rng.gen_range(1..4u32) {
            match rng.gen_range(0..3u32) {
                0 => c.h(rng.gen_range(0..n)),
                1 => c.t(rng.gen_range(0..n)),
                _ => c.x(rng.gen_range(0..n)),
            };
            if rng.gen_bool(0.5) {
                c.cx(a, b);
            } else {
                c.cx(b, a);
            }
        }
    }
    let measured = if rng.gen_bool(0.25) { n - 1 } else { n };
    for q in 0..measured {
        c.measure(q, q);
    }
    c
}

/// Error rates for `topology`: random (mode 0), all equal (1), drawn from
/// three levels (2), or random with about a third of the couplings left
/// uncalibrated (3).
fn calibration(topology: &Topology, mode: usize, rng: &mut ChaCha8Rng) -> Calibration {
    let n = topology.num_qubits();
    let rate = |lo: f64, hi: f64, rng: &mut ChaCha8Rng| match mode {
        1 => hi,
        2 => [lo, (lo + hi) / 2.0, hi][rng.gen_range(0..3usize)],
        _ => rng.gen_range(lo..hi),
    };
    let readout = (0..n).map(|_| rate(0.01, 0.3, rng)).collect();
    let gate = (0..n).map(|_| rate(0.0001, 0.01, rng)).collect();
    let mut cx = BTreeMap::new();
    for e in topology.edges() {
        let err = rate(0.005, 0.1, rng);
        if mode != 3 || rng.gen_range(0..3u32) != 0 {
            cx.insert(*e, err);
        }
    }
    Calibration::new(readout, gate, cx)
}

fn selection(kind: usize) -> MapperSelection {
    match kind {
        0 => MapperSelection::Exhaustive,
        1 => MapperSelection::Filtered(FdlsConfig::default()),
        _ => MapperSelection::Filtered(FdlsConfig {
            node_budget: 400,
            root_budget: 60,
            backtrack_depth: 2,
        }),
    }
}

/// No quarantine (0), one qubit (1), or one qubit and one link (2).
fn quarantine(topology: &Topology, kind: usize, rng: &mut ChaCha8Rng) -> Option<Quarantine> {
    if kind == 0 {
        return None;
    }
    let mut q = Quarantine::new();
    q.add_qubit(rng.gen_range(0..topology.num_qubits()));
    if kind == 2 {
        let edges = topology.edges();
        q.add_link(edges[rng.gen_range(0..edges.len())]);
    }
    Some(q)
}

type Ranking = Result<(Vec<(f64, Vec<u32>)>, SearchOutcome), MapError>;

/// `c` ranked on `topology` (masked by `quarantine`, if any), with the
/// pool's `(capacity, ratio, fill)`.
fn rank(
    c: &Circuit,
    topology: &Topology,
    cal: &Calibration,
    selection: MapperSelection,
    quarantine: Option<&Quarantine>,
    (capacity, ratio, fill): (usize, f64, usize),
) -> Ranking {
    let scorer = esp::Scorer::new(c, topology.num_qubits(), Qubit::index, cal);
    let pattern = placement::interaction_topology(c);
    let masked = quarantine.map(|q| q.mask(topology));
    let target = masked.as_ref().unwrap_or(topology);
    placement::rank_embeddings(
        &scorer, &pattern, target, selection, quarantine, capacity, ratio, fill,
    )
}

/// The top of an unbounded ranking: the best `capacity` within `ratio`
/// of the best, in the order they were ranked.
fn top(full: &Ranking, capacity: usize, ratio: f64) -> Ranking {
    let (ranked, outcome) = full.clone()?;
    let floor = ratio * ranked.first().map_or(0.0, |(esp, _)| *esp);
    let kept = ranked
        .into_iter()
        .filter(|(esp, _)| *esp >= floor)
        .take(capacity)
        .collect();
    Ok((kept, outcome))
}

/// Compares two rankings, ESP bits included.
fn same(got: &Ranking, want: &Ranking) -> bool {
    match (got, want) {
        (Ok((g, go)), Ok((w, wo))) => {
            go == wo
                && g.len() == w.len()
                && g.iter()
                    .zip(w)
                    .all(|(a, b)| a.0.to_bits() == b.0.to_bits() && a.1 == b.1)
        }
        (got, want) => got == want,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn bounded_ranking_is_the_top_of_the_unbounded_one(
        (shape, core, isolated) in (0usize..3, 2u32..6, 0u32..4),
        (target_kind, cal_mode, selection_kind, quarantine_kind) in (0usize..3, 0usize..4, 0usize..3, 0usize..3),
        (capacity, ratio, seed) in (1usize..400, 0usize..4, 0u64..1_000_000),
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let topology = target(target_kind);
        let core = if shape == 2 { core.max(3) } else { core };
        let c = circuit(shape, core, isolated, &mut rng);
        let cal = calibration(&topology, cal_mode, &mut rng);
        let selection = selection(selection_kind);
        let ratio = [0.0, 0.5, 0.9, 1.0][ratio];
        let q = quarantine(&topology, quarantine_kind, &mut rng);
        let label = format!("shape {shape} core {core}+{isolated} target {target_kind} \
            cal {cal_mode} selection {selection_kind} quarantine {quarantine_kind} seed {seed}");

        let full = rank(&c, &topology, &cal, selection, q.as_ref(), (usize::MAX, 0.0, 0));
        for (capacity, ratio) in [(capacity, ratio), (1, 0.0), (usize::MAX, ratio), (3, 0.9)] {
            let got = rank(&c, &topology, &cal, selection, q.as_ref(), (capacity, ratio, 0));
            let want = top(&full, capacity, ratio);
            prop_assert!(same(&got, &want), "{} capacity {} ratio {}: {:?} vs {:?}",
                label, capacity, ratio, got, want);
        }

        // The transpiler's swap-free placement is the unbounded ranking's
        // first entry.
        let best = full.map(|(ranked, _)| ranked.into_iter().next());
        match q {
            None => {
                let got = placement::best_swap_free_placement_with(&c, &topology, &cal, selection);
                let want = best.map(|b| b.map(|(_, phi)| phi));
                prop_assert_eq!(got.map(|l| l.map(|l| l.as_slice().to_vec())), want, "{}", label);
            }
            Some(q) => {
                let t = Transpiler::new(&topology, &cal)
                    .with_mapper(selection)
                    .with_quarantine(&q);
                match best {
                    Err(e) => prop_assert_eq!(t.transpile(&c).unwrap_err(), e, "{}", label),
                    Ok(Some((esp, phi))) => {
                        let layout = qmap::Layout::from_physical(phi, topology.num_qubits());
                        let got = t.transpile(&c);
                        prop_assert_eq!(&got, &t.transpile_with_layout(&c, &layout), "{}", label);
                        prop_assert_eq!(got.expect("routes").esp.to_bits(), esp.to_bits(), "{}", label);
                    }
                    // Nothing to rank: the greedy placement takes over.
                    Ok(None) => {}
                }
            }
        }
    }

    #[test]
    fn each_core_is_completed_at_its_best(
        (shape, core, isolated) in (0usize..3, 2u32..5, 1u32..4),
        (target_kind, cal_mode, quarantine_kind, seed) in (0usize..2, 0usize..3, 0usize..3, 0u64..1_000_000),
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let topology = target(target_kind);
        let core = if shape == 2 { core.max(3) } else { core };
        let c = circuit(shape, core, isolated, &mut rng);
        let cal = calibration(&topology, cal_mode, &mut rng);
        let q = quarantine(&topology, quarantine_kind, &mut rng);
        let label = format!("shape {shape} core {core}+{isolated} target {target_kind} \
            cal {cal_mode} quarantine {quarantine_kind} seed {seed}");
        let exhaustive = MapperSelection::Exhaustive;
        let (ranked, outcome) = rank(&c, &topology, &cal, exhaustive, q.as_ref(), (usize::MAX, 0.0, 0))
            .expect("calibrated");
        prop_assert_eq!(outcome, SearchOutcome::Complete);

        // Brute force: every embedding of the whole pattern, scored; per
        // core (the embedding of the vertices with a CX), the best ESP and
        // the order cores first appear in.
        let scorer = esp::Scorer::new(&c, topology.num_qubits(), Qubit::index, &cal);
        let pattern = placement::interaction_topology(&c);
        let core_vertices: Vec<usize> =
            (0..pattern.num_qubits()).filter(|&v| pattern.degree(v) > 0).map(|v| v as usize).collect();
        let core_of = |phi: &[u32]| core_vertices.iter().map(|&v| phi[v]).collect::<Vec<u32>>();
        let masked = q.as_ref().map(|q| q.mask(&topology));
        let mut best: BTreeMap<Vec<u32>, (usize, f64)> = BTreeMap::new();
        mapper::for_each_embedding(&pattern, masked.as_ref().unwrap_or(&topology), usize::MAX, exhaustive, |phi| {
            if q.as_ref().is_some_and(|q| !q.allows_footprint(phi)) {
                return;
            }
            let esp = scorer.score(|p| phi[p as usize]).expect("scores");
            let next = best.len();
            let entry = best.entry(core_of(phi)).or_insert((next, 0.0));
            entry.1 = entry.1.max(esp);
        });

        prop_assert_eq!(ranked.len(), best.len(), "{}", label);
        for (esp, phi) in &ranked {
            let (_, max) = best[&core_of(phi)];
            prop_assert_eq!(esp.to_bits(), scorer.score(|p| phi[p as usize]).expect("scores").to_bits());
            prop_assert!(*esp >= max * (1.0 - esp::BOUND_SLACK), "{}: {:?} reaches {} of {}", label, phi, esp, max);
            let mut used = phi.clone();
            used.sort_unstable();
            used.dedup();
            prop_assert_eq!(used.len(), phi.len(), "{}: {:?} is not injective", label, phi);
            prop_assert!(q.as_ref().is_none_or(|q| q.allows_footprint(phi)), "{}: {:?}", label, phi);
        }
        // Best first, ties in the order the cores were enumerated.
        for w in ranked.windows(2) {
            let first = |(esp, phi): &(f64, Vec<u32>)| (-esp, best[&core_of(phi)].0);
            prop_assert!(first(&w[0]) < first(&w[1]), "{}: out of order", label);
        }
    }

    #[test]
    fn filled_pool_holds_the_next_best_completions(
        (shape, core, isolated) in (0usize..3, 2u32..5, 1u32..4),
        (target_kind, cal_mode, quarantine_kind) in (0usize..2, 0usize..3, 0usize..3),
        (capacity, ratio, fill, seed) in (0usize..3, 0usize..4, 1usize..12, 0u64..1_000_000),
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let topology = target(target_kind);
        let core = if shape == 2 { core.max(3) } else { core };
        let c = circuit(shape, core, isolated, &mut rng);
        let cal = calibration(&topology, cal_mode, &mut rng);
        let q = quarantine(&topology, quarantine_kind, &mut rng);
        let capacity = [2, 5, usize::MAX][capacity];
        let ratio = [0.0, 0.5, 0.9, 1.0][ratio];
        let label = format!("shape {shape} core {core}+{isolated} target {target_kind} \
            cal {cal_mode} quarantine {quarantine_kind} capacity {capacity} ratio {ratio} \
            fill {fill} seed {seed}");
        let exhaustive = MapperSelection::Exhaustive;
        let (kept, _) = rank(&c, &topology, &cal, exhaustive, q.as_ref(), (capacity, ratio, 0))
            .expect("calibrated");
        let (filled, _) = rank(&c, &topology, &cal, exhaustive, q.as_ref(), (capacity, ratio, fill))
            .expect("calibrated");
        if kept.len() >= fill.min(capacity) || kept.is_empty() {
            prop_assert!(same(&Ok((filled, SearchOutcome::Complete)), &Ok((kept, SearchOutcome::Complete))), "{}", label);
            return Ok(());
        }

        // Brute force: every other completion of a kept core, within the
        // ratio of the best, best first.
        let scorer = esp::Scorer::new(&c, topology.num_qubits(), Qubit::index, &cal);
        let pattern = placement::interaction_topology(&c);
        let core_vertices: Vec<usize> =
            (0..pattern.num_qubits()).filter(|&v| pattern.degree(v) > 0).map(|v| v as usize).collect();
        let core_of = |phi: &[u32]| core_vertices.iter().map(|&v| phi[v]).collect::<Vec<u32>>();
        let floor = ratio * kept[0].0;
        let masked = q.as_ref().map(|q| q.mask(&topology));
        let mut others: Vec<f64> = Vec::new();
        let mut valid = std::collections::BTreeSet::new();
        mapper::for_each_embedding(&pattern, masked.as_ref().unwrap_or(&topology), usize::MAX, exhaustive, |phi| {
            let esp = scorer.score(|p| phi[p as usize]).expect("scores");
            let ours = kept.iter().any(|(_, k)| core_of(k) == core_of(phi));
            let own = kept.iter().any(|(_, k)| k == phi);
            if ours && !own && esp >= floor && q.as_ref().is_none_or(|q| q.allows_footprint(phi)) {
                others.push(esp);
                valid.insert(phi.to_vec());
            }
        });
        others.sort_by(|a, b| b.total_cmp(a));

        // The kept entries stay, bit for bit, and in ESP order with the
        // completions that join them.
        for k in &kept {
            prop_assert!(filled.iter().any(|f| f.0.to_bits() == k.0.to_bits() && f.1 == k.1), "{}: lost {:?}", label, k);
        }
        for w in filled.windows(2) {
            prop_assert!(w[0].0 >= w[1].0, "{}: out of order", label);
        }
        let mut joined: Vec<f64> = Vec::new();
        for (esp, phi) in &filled {
            if kept.iter().any(|k| &k.1 == phi) {
                continue;
            }
            prop_assert!(valid.remove(phi), "{}: {:?} is no new completion of a kept core", label, phi);
            prop_assert_eq!(esp.to_bits(), scorer.score(|p| phi[p as usize]).expect("scores").to_bits());
            joined.push(*esp);
        }
        // Up to twice the fill in all, or every one within the ratio, and
        // each the best left up to the rounding slack.
        let wanted = (2 * fill).min(capacity);
        prop_assert_eq!(joined.len(), (wanted - kept.len()).min(others.len()), "{}", label);
        for (got, best) in joined.iter().zip(&others) {
            prop_assert!(*got >= best * (1.0 - esp::BOUND_SLACK), "{}: {} joined, {} was left", label, got, best);
        }
    }
}
