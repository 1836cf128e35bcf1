//! The ESP bound skips only what nobody counts: the bounded search
//! returns what the same search returns with the bound off.
//!
//! The reference below is the unbounded algorithm: visit every embedding
//! the mapper reaches (`mapper::for_each_embedding`), score each with
//! `esp::Scorer::score`, keep the first maximum or offer each to a
//! ratio-filtered pool, and stop scoring at the first error. The bounded
//! paths (`placement::best_swap_free_placement_with`, `Transpiler` with a
//! quarantine, and `placement::score_embeddings` under a result cap) must
//! match it exactly: argmax layout, ESP bits, capped pool, `SearchOutcome`
//! and first error. Patterns are small paths, stars and rings with
//! isolated vertices; calibrations are random, all equal (every embedding
//! ties), coarse (many ties) or holed (some couplings uncalibrated).

use proptest::prelude::*;
use qcir::{Circuit, Qubit};
use qdevice::drift::Quarantine;
use qdevice::fdls::FdlsConfig;
use qdevice::mapper::{self, SearchOutcome};
use qdevice::{presets, Calibration, Topology};
use qmap::{esp, placement, Layout, MapError, MapperSelection, Transpiler};
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

/// The unbounded argmax: every embedding scored in enumeration order, the
/// first maximum among the `allowed` ones kept, the first error returned.
fn unbounded_argmax(
    c: &Circuit,
    topology: &Topology,
    cal: &Calibration,
    selection: MapperSelection,
    allowed: impl Fn(&[u32]) -> bool,
) -> Result<Option<(Layout, f64)>, MapError> {
    if c.num_qubits() > topology.num_qubits() {
        return Err(MapError::TooManyQubits {
            circuit: c.num_qubits(),
            device: topology.num_qubits(),
        });
    }
    let scorer = esp::Scorer::new(c, topology.num_qubits(), Qubit::index, cal);
    let pattern = placement::interaction_topology(c);
    let mut best: Option<(f64, Vec<u32>)> = None;
    let mut error = None;
    mapper::for_each_embedding(&pattern, topology, usize::MAX, selection, |phi| {
        if error.is_some() {
            return;
        }
        match scorer.score(|p| phi[p as usize]) {
            Ok(esp) => {
                if best.as_ref().is_none_or(|(top, _)| esp > *top) && allowed(phi) {
                    best = Some((esp, phi.to_vec()));
                }
            }
            Err(e) => error = Some(e),
        }
    });
    match error {
        Some(e) => Err(e),
        None => Ok(best.map(|(esp, phi)| (Layout::from_physical(phi, topology.num_qubits()), esp))),
    }
}

/// A ratio-filtered candidate pool, offered embeddings in enumeration
/// order exactly as `edm_core`'s ensemble pool is.
#[derive(Debug, Default, PartialEq)]
struct Pool {
    ratio: f64,
    best: f64,
    kept: Vec<(u64, Vec<u32>)>,
}

impl Pool {
    fn offer(&mut self, phi: &[u32], esp: f64) -> f64 {
        let floor = self.ratio * self.best;
        if self.ratio > 0.0 && esp < floor {
            return floor;
        }
        self.best = self.best.max(esp);
        self.kept.push((esp.to_bits(), phi.to_vec()));
        self.ratio.max(0.0) * self.best
    }
}

type Scored = Result<(Pool, SearchOutcome), MapError>;

/// `score_embeddings` under a result cap, offering into a pool whose
/// floor is the bar.
fn bounded_pool(
    c: &Circuit,
    topology: &Topology,
    cal: &Calibration,
    cap: usize,
    selection: MapperSelection,
    ratio: f64,
    keep: impl Fn(&[u32]) -> bool,
) -> Scored {
    let scorer = esp::Scorer::new(c, topology.num_qubits(), Qubit::index, cal);
    let pattern = placement::interaction_topology(c);
    let mut pool = Pool {
        ratio,
        ..Pool::default()
    };
    let (outcome, _) = placement::score_embeddings(
        &scorer,
        &pattern,
        topology,
        cap,
        selection,
        keep,
        |phi, esp| pool.offer(phi, esp),
    )?;
    Ok((pool, outcome))
}

/// The same pool with every kept embedding scored.
fn unbounded_pool(
    c: &Circuit,
    topology: &Topology,
    cal: &Calibration,
    cap: usize,
    selection: MapperSelection,
    ratio: f64,
    keep: impl Fn(&[u32]) -> bool,
) -> Scored {
    let scorer = esp::Scorer::new(c, topology.num_qubits(), Qubit::index, cal);
    let pattern = placement::interaction_topology(c);
    let mut pool = Pool {
        ratio,
        ..Pool::default()
    };
    let mut error = None;
    let outcome = mapper::for_each_embedding(&pattern, topology, cap, selection, |phi| {
        if error.is_some() || !keep(phi) {
            return;
        }
        match scorer.score(|p| phi[p as usize]) {
            Ok(esp) => {
                pool.offer(phi, esp);
            }
            Err(e) => error = Some(e),
        }
    });
    match error {
        Some(e) => Err(e),
        None => Ok((pool, outcome)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn bounded_search_matches_the_unbounded_one(
        (shape, core, isolated) in (0usize..3, 2u32..6, 0u32..3),
        (target_kind, cal_mode, selection_kind, quarantine_kind) in (0usize..3, 0usize..4, 0usize..3, 0usize..3),
        (cap, ratio, seed) in (1usize..400, 0usize..4, 0u64..1_000_000),
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let topology = target(target_kind);
        // Keep the isolated vertices' P(free, idle) variants small.
        let isolated = if target_kind == 2 { isolated.min(1) } else { isolated };
        let core = if shape == 2 { core.max(3) } else { core };
        let c = circuit(shape, core, isolated, &mut rng);
        let cal = calibration(&topology, cal_mode, &mut rng);
        let selection = selection(selection_kind);
        let ratio = [0.0, 0.5, 0.9, 1.0][ratio];
        let label = format!("shape {shape} core {core}+{isolated} target {target_kind} \
            cal {cal_mode} selection {selection_kind} quarantine {quarantine_kind} seed {seed}");

        // The argmax, with or without a quarantine.
        match quarantine(&topology, quarantine_kind, &mut rng) {
            None => {
                let want = unbounded_argmax(&c, &topology, &cal, selection, |_| true);
                let got = placement::best_swap_free_placement_with(&c, &topology, &cal, selection);
                prop_assert_eq!(&got, &want.clone().map(|b| b.map(|(l, _)| l)), "{}", label);
                if let Ok(Some((layout, esp))) = want {
                    let scorer = esp::Scorer::new(&c, topology.num_qubits(), Qubit::index, &cal);
                    let got = scorer.score(|p| layout.phys(p)).expect("scores");
                    prop_assert_eq!(got.to_bits(), esp.to_bits(), "{}", label);
                }
            }
            Some(q) => {
                let t = Transpiler::new(&topology, &cal)
                    .with_mapper(selection)
                    .with_quarantine(&q);
                let want = unbounded_argmax(&c, t.effective_topology(), &cal, selection, |phi| {
                    q.allows_footprint(phi)
                });
                match want {
                    Err(e) => prop_assert_eq!(t.transpile(&c).unwrap_err(), e, "{}", label),
                    Ok(Some((layout, esp))) => {
                        let got = t.transpile(&c);
                        prop_assert_eq!(&got, &t.transpile_with_layout(&c, &layout), "{}", label);
                        prop_assert_eq!(got.expect("routes").esp.to_bits(), esp.to_bits(), "{}", label);
                    }
                    // Nothing to rank: the greedy placement takes over.
                    Ok(None) => {}
                }
            }
        }

        // The capped, ratio-filtered pool, with the quarantine as its
        // footprint filter.
        let q = quarantine(&topology, quarantine_kind, &mut rng).unwrap_or_default();
        let masked = q.mask(&topology);
        for cap in [cap, usize::MAX] {
            let keep = |phi: &[u32]| q.allows_footprint(phi);
            let want = unbounded_pool(&c, &masked, &cal, cap, selection, ratio, keep);
            let got = bounded_pool(&c, &masked, &cal, cap, selection, ratio, keep);
            prop_assert_eq!(got, want, "{} cap {} ratio {}", label, cap, ratio);
        }
    }
}
