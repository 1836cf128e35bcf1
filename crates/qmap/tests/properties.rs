//! Property-based tests for the transpiler: the router preserves
//! semantics, placements are valid, and the optimizer never changes a
//! circuit's meaning.

use proptest::prelude::*;
use qcir::Circuit;
use qcir::Qubit;
use qdevice::{presets, DeviceModel};
use qdevice::{Calibration, Topology};
use qmap::{
    esp, optimize, placement, router, Layout, MapperSelection, RoutingStrategy, Transpiler,
};
use qsim::ideal;

#[derive(Debug, Clone)]
enum Spec {
    H(u32),
    X(u32),
    T(u32),
    Rz(u32, f64),
    Cx(u32, u32),
}

fn basis_circuit(n: u32, max_ops: usize) -> impl Strategy<Value = Circuit> {
    let spec = prop_oneof![
        (0..n).prop_map(Spec::H),
        (0..n).prop_map(Spec::X),
        (0..n).prop_map(Spec::T),
        ((0..n), -3.0f64..3.0).prop_map(|(q, t)| Spec::Rz(q, t)),
        ((0..n), (0..n)).prop_map(|(a, b)| Spec::Cx(a, b)),
    ];
    proptest::collection::vec(spec, 1..max_ops).prop_map(move |specs| {
        let mut c = Circuit::new(n, n);
        for s in specs {
            match s {
                Spec::H(q) => {
                    c.h(q);
                }
                Spec::X(q) => {
                    c.x(q);
                }
                Spec::T(q) => {
                    c.t(q);
                }
                Spec::Rz(q, t) => {
                    c.rz(q, t);
                }
                Spec::Cx(a, b) => {
                    if a != b {
                        c.cx(a, b);
                    }
                }
            }
        }
        c.measure_all();
        c
    })
}

/// The best `capacity` embeddings `selection` finds for `c`, with their
/// ESP, best first.
fn ranked(
    c: &Circuit,
    topology: &Topology,
    cal: &Calibration,
    capacity: usize,
    selection: MapperSelection,
) -> Vec<(Layout, f64)> {
    let scorer = esp::Scorer::new(c, topology.num_qubits(), Qubit::index, cal);
    let pattern = placement::interaction_topology(c);
    let (ranked, _) = placement::rank_embeddings(
        &scorer, &pattern, topology, selection, None, capacity, 0.0, 0,
    )
    .expect("ranks");
    ranked
        .into_iter()
        .map(|(esp, phi)| (Layout::from_physical(phi, topology.num_qubits()), esp))
        .collect()
}

fn dist_eq(
    a: &std::collections::BTreeMap<u64, f64>,
    b: &std::collections::BTreeMap<u64, f64>,
) -> bool {
    a.len() == b.len()
        && a.iter()
            .all(|(k, p)| (p - b.get(k).copied().unwrap_or(0.0)).abs() < 1e-6)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn router_preserves_semantics(c in basis_circuit(5, 16), seed in 0u64..30) {
        let device = DeviceModel::synthesize(presets::melbourne14(), seed);
        let cal = device.calibration();
        let layout = Layout::from_physical(vec![0, 4, 9, 12, 7], 14);
        let logical = ideal::probabilities(&c).expect("valid");

        let routed = router::route(
            &c, device.topology(), &cal, &layout, RoutingStrategy::ReliabilityAware,
        ).expect("routable");
        let physical = routed.circuit.decomposed();
        let got = ideal::probabilities(&physical).expect("valid");
        prop_assert!(dist_eq(&logical, &got));
        for g in physical.iter() {
            if g.is_two_qubit() {
                let q = g.qubits();
                prop_assert!(device.topology().has_edge(q[0].index(), q[1].index()));
            }
        }
    }

    #[test]
    fn transpiler_preserves_outcomes(c in basis_circuit(4, 12), seed in 0u64..20) {
        let device = DeviceModel::synthesize(presets::melbourne14(), seed);
        let cal = device.calibration();
        let logical = ideal::probabilities(&c).expect("valid");
        let out = Transpiler::new(device.topology(), &cal).transpile(&c).expect("transpiles");
        let got = ideal::probabilities(&out.physical).expect("valid");
        prop_assert!(dist_eq(&logical, &got));
    }

    #[test]
    fn optimizer_preserves_distributions(c in basis_circuit(4, 25)) {
        let opt = optimize::optimize(&c);
        prop_assert!(opt.len() <= c.len());
        let a = ideal::probabilities(&c).expect("valid");
        let b = ideal::probabilities(&opt).expect("valid");
        prop_assert!(dist_eq(&a, &b));
    }

    #[test]
    fn greedy_placement_is_always_injective(c in basis_circuit(6, 20), seed in 0u64..20) {
        let device = DeviceModel::synthesize(presets::melbourne14(), seed);
        let cal = device.calibration();
        let layout = placement::greedy_placement(&c, device.topology(), &cal).expect("places");
        let mut phys = layout.physical_qubits();
        let before = phys.len();
        phys.dedup();
        prop_assert_eq!(phys.len(), before);
        prop_assert_eq!(layout.num_logical(), 6);
    }

    #[test]
    fn ranked_embeddings_when_present_support_the_circuit(c in basis_circuit(4, 10), seed in 0u64..20) {
        let device = DeviceModel::synthesize(presets::melbourne14(), seed);
        let cal = device.calibration();
        for (layout, esp) in ranked(&c, device.topology(), &cal, 50, MapperSelection::Exhaustive) {
            prop_assert!(esp > 0.0 && esp <= 1.0);
            // Swap-free: every interaction edge coupled under the layout.
            for (a, b) in c.interaction_edges() {
                prop_assert!(device.topology().has_edge(
                    layout.phys(a.index()),
                    layout.phys(b.index())
                ));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(30))]

    #[test]
    fn optimizer_preserves_the_exact_unitary(c in basis_circuit(4, 20)) {
        // Strip measurements: unitary equivalence is the strongest check.
        let mut unitary = Circuit::new(4, 0);
        for g in c.iter().filter(|g| !g.is_measure()) {
            unitary.extend([g.clone()]);
        }
        let opt = optimize::optimize(&unitary);
        prop_assert!(qsim::verify::equivalent(&unitary, &opt).is_equal());
    }
}

/// The filtered mapper must give EDM a usable pool on the 127-qubit
/// preset: at least 5 distinct, genuinely swap-free layouts, ESP-ranked
/// best-first with finite in-range scores (deterministic, so a plain test).
#[test]
fn filtered_ranking_on_eagle_yields_a_diverse_esp_ranked_pool() {
    let device = DeviceModel::synthesize(presets::eagle127(), 11);
    let cal = device.calibration();
    // A 6-qubit line interaction graph: embeddable all over heavy-hex.
    let mut c = Circuit::new(6, 6);
    for q in 0..5 {
        c.cx(q, q + 1);
    }
    c.measure_all();

    let ranked = ranked(
        &c,
        device.topology(),
        &cal,
        64,
        MapperSelection::Filtered(qdevice::fdls::FdlsConfig::default()),
    );
    assert!(ranked.len() >= 5, "only {}", ranked.len());

    let mut footprints = std::collections::BTreeSet::new();
    let mut prev = f64::INFINITY;
    for (layout, esp) in &ranked {
        assert!(esp.is_finite() && *esp > 0.0 && *esp <= 1.0);
        assert!(*esp <= prev, "pool not sorted best-first");
        prev = *esp;
        for (a, b) in c.interaction_edges() {
            assert!(device
                .topology()
                .has_edge(layout.phys(a.index()), layout.phys(b.index())));
        }
        footprints.insert(layout.physical_qubits());
    }
    assert!(
        footprints.len() >= 5,
        "only {} footprints",
        footprints.len()
    );
}
