//! Property-based cross-crate tests: invariants that must hold for random
//! circuits, layouts, and distributions.

use edm_core::dist::{kl_divergence, symmetric_kl, KL_SMOOTHING};
use edm_core::{metrics, ProbDist};
use proptest::prelude::*;
use qcir::Circuit;
use qdevice::mapper::{self, MapperSelection};
use qdevice::{presets, DeviceModel, Topology};
use qmap::{router, Layout, RoutingStrategy};
use qsim::{ideal, StateVector};

/// A random basis circuit (1q gates + CX + terminal measurements) over
/// `n` qubits.
fn basis_circuit(n: u32, max_ops: usize) -> impl Strategy<Value = Circuit> {
    let gate = prop_oneof![
        (0..n).prop_map(GateSpec::H),
        (0..n).prop_map(GateSpec::X),
        ((0..n), -3.0f64..3.0).prop_map(|(q, t)| GateSpec::Rz(q, t)),
        ((0..n), -3.0f64..3.0).prop_map(|(q, t)| GateSpec::Rx(q, t)),
        ((0..n), (0..n)).prop_map(|(a, b)| GateSpec::Cx(a, b)),
    ];
    proptest::collection::vec(gate, 1..max_ops).prop_map(move |specs| {
        let mut c = Circuit::new(n, n);
        for s in specs {
            match s {
                GateSpec::H(q) => {
                    c.h(q);
                }
                GateSpec::X(q) => {
                    c.x(q);
                }
                GateSpec::Rz(q, t) => {
                    c.rz(q, t);
                }
                GateSpec::Rx(q, t) => {
                    c.rx(q, t);
                }
                GateSpec::Cx(a, b) => {
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

#[derive(Debug, Clone)]
enum GateSpec {
    H(u32),
    X(u32),
    Rz(u32, f64),
    Rx(u32, f64),
    Cx(u32, u32),
}

/// A random sparse distribution over `2^width` outcomes.
fn dist(width: u32) -> impl Strategy<Value = ProbDist> {
    proptest::collection::btree_map(0u64..(1 << width), 1u32..1000, 1..12)
        .prop_map(move |m| ProbDist::new(width, m.into_iter().map(|(k, v)| (k, v as f64))))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn routing_preserves_circuit_semantics(c in basis_circuit(4, 20), seed in 0u64..50) {
        let device = DeviceModel::synthesize(presets::line(6), seed);
        let cal = device.calibration();
        let layout = Layout::from_physical(vec![1, 3, 0, 5], 6);
        let routed = router::route(
            &c, device.topology(), &cal, &layout, RoutingStrategy::ReliabilityAware,
        ).expect("routable");
        let physical = routed.circuit.decomposed();
        let a = ideal::probabilities(&c).expect("valid");
        let b = ideal::probabilities(&physical).expect("valid");
        prop_assert_eq!(a.len(), b.len());
        for (k, p) in &a {
            let q = b.get(k).copied().unwrap_or(0.0);
            prop_assert!((p - q).abs() < 1e-6, "key {}: {} vs {}", k, p, q);
        }
    }

    #[test]
    fn statevector_norm_is_preserved(c in basis_circuit(5, 30)) {
        let mut sv = StateVector::zero_state(5);
        for g in c.iter() {
            if !g.is_measure() {
                sv.apply(g);
            }
        }
        prop_assert!((sv.norm() - 1.0).abs() < 1e-8);
    }

    #[test]
    fn decomposition_preserves_outcomes(ops in proptest::collection::vec((0u32..3, 0u32..3, 0u32..3), 1..6)) {
        // Random CCX/CSWAP/SWAP networks on 3 qubits with X preambles.
        let mut c = Circuit::new(3, 3);
        c.x(0).x(2);
        for (i, (a, b, t)) in ops.into_iter().enumerate() {
            if a != b && b != t && a != t {
                if i % 3 == 0 {
                    c.ccx(a, b, t);
                } else if i % 3 == 1 {
                    c.cswap(a, b, t);
                } else {
                    c.swap(a, b);
                }
            }
        }
        c.measure_all();
        let lowered = c.decomposed();
        prop_assert_eq!(lowered.count_3q(), 0);
        let a = ideal::outcome(&c).expect("valid");
        let b = ideal::outcome(&lowered).expect("valid");
        prop_assert_eq!(a, b);
    }

    #[test]
    fn vf2_embeddings_are_injective_edge_preserving(edges in proptest::collection::btree_set((0u32..6, 0u32..6), 1..8)) {
        let edges: Vec<(u32, u32)> = edges.into_iter().filter(|(a, b)| a != b).collect();
        prop_assume!(!edges.is_empty());
        let pattern = Topology::new(6, &edges);
        let target = presets::melbourne14();
        let set = mapper::enumerate_embeddings(&pattern, &target, 200, MapperSelection::Exhaustive);
        for phi in set.embeddings {
            let mut seen = std::collections::BTreeSet::new();
            for &t in &phi {
                prop_assert!(seen.insert(t));
            }
            for e in pattern.edges() {
                prop_assert!(target.has_edge(phi[e.lo() as usize], phi[e.hi() as usize]));
            }
        }
    }

    #[test]
    fn kl_divergence_is_nonnegative_and_zero_iff_equal(p in dist(4), q in dist(4)) {
        let d_pq = kl_divergence(&p, &q, KL_SMOOTHING);
        prop_assert!(d_pq >= -1e-12, "negative KL {}", d_pq);
        let d_pp = kl_divergence(&p, &p, KL_SMOOTHING);
        prop_assert!(d_pp.abs() < 1e-9);
    }

    #[test]
    fn symmetric_kl_is_symmetric(p in dist(4), q in dist(4)) {
        prop_assert!((symmetric_kl(&p, &q) - symmetric_kl(&q, &p)).abs() < 1e-9);
    }

    #[test]
    fn merge_is_convex(p in dist(3), q in dist(3), w in 0.01f64..0.99) {
        let merged = ProbDist::merge_weighted(&[p.clone(), q.clone()], &[w, 1.0 - w]);
        for k in 0..8u64 {
            let expect = w * p.probability(k) + (1.0 - w) * q.probability(k);
            prop_assert!((merged.probability(k) - expect).abs() < 1e-9);
        }
        let mass: f64 = merged.iter().map(|(_, pk)| pk).sum();
        prop_assert!((mass - 1.0).abs() < 1e-9);
    }

    #[test]
    fn merged_ist_bounded_by_member_extremes_for_shared_wrong(p in dist(3), q in dist(3), correct in 0u64..8) {
        // Uniform merge PST is the average of member PSTs.
        let merged = ProbDist::merge_uniform(&[p.clone(), q.clone()]);
        let avg = 0.5 * (metrics::pst(&p, correct) + metrics::pst(&q, correct));
        prop_assert!((metrics::pst(&merged, correct) - avg).abs() < 1e-9);
    }

    #[test]
    fn wedm_weights_are_a_distribution(ds in proptest::collection::vec(dist(4), 1..6)) {
        let w = edm_core::wedm::weights(&ds);
        prop_assert_eq!(w.len(), ds.len());
        prop_assert!(w.iter().all(|&x| x >= 0.0));
        prop_assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn entropy_bounds(p in dist(4)) {
        let h = p.entropy();
        prop_assert!(h >= -1e-12);
        prop_assert!(h <= 4.0 + 1e-12);
    }

    #[test]
    fn ist_above_one_iff_correct_is_argmax(p in dist(4), correct in 0u64..16) {
        let ist = metrics::ist(&p, correct);
        let argmax = p.most_probable().expect("non-empty");
        if ist > 1.0 {
            prop_assert_eq!(argmax, correct);
        }
        if argmax != correct {
            prop_assert!(ist <= 1.0 + 1e-12);
        }
    }
}
