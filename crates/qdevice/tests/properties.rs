//! Property-based tests for the device substrate: topology invariants, VF2
//! against brute force, synthesis validity, and persistence round-trips.

use proptest::prelude::*;
use qdevice::fdls::FdlsConfig;
use qdevice::mapper::{self, MapperSelection};
use qdevice::{persist, presets, DeviceModel, SynthesisProfile, Topology};

/// Every embedding `selection` finds of `pattern` into `target`.
fn embeddings(pattern: &Topology, target: &Topology, selection: MapperSelection) -> Vec<Vec<u32>> {
    mapper::enumerate_embeddings(pattern, target, usize::MAX, selection).embeddings
}

/// A random simple graph over `n` vertices.
fn graph(n: u32) -> impl Strategy<Value = Topology> {
    proptest::collection::btree_set((0..n, 0..n), 0..12).prop_map(move |edges| {
        let edges: Vec<(u32, u32)> = edges.into_iter().filter(|(a, b)| a != b).collect();
        Topology::new(n, &edges)
    })
}

/// A random *connected* graph over `n` vertices: a path backbone plus
/// random extra edges. Connected patterns keep full enumeration against
/// the 16/20-qubit presets tractable (isolated vertices would multiply
/// the embedding count by the target's falling factorial).
fn connected_graph(n: u32) -> impl Strategy<Value = Topology> {
    proptest::collection::btree_set((0..n, 0..n), 0..6).prop_map(move |extra| {
        let mut edges: Vec<(u32, u32)> = (1..n).map(|v| (v - 1, v)).collect();
        edges.extend(extra.into_iter().filter(|(a, b)| a != b));
        Topology::new(n, &edges)
    })
}

/// Brute-force subgraph-isomorphism count by permutation enumeration
/// (pattern and target small).
fn brute_force_count(pattern: &Topology, target: &Topology) -> usize {
    let pn = pattern.num_qubits() as usize;
    let tn = target.num_qubits() as usize;
    if pn > tn {
        return 0;
    }
    // Enumerate all injective maps via indices.
    let mut count = 0;
    let mut phi = vec![0u32; pn];
    let mut used = vec![false; tn];
    #[allow(clippy::too_many_arguments)]
    fn rec(
        depth: usize,
        pn: usize,
        tn: usize,
        pattern: &Topology,
        target: &Topology,
        phi: &mut Vec<u32>,
        used: &mut Vec<bool>,
        count: &mut usize,
    ) {
        if depth == pn {
            *count += 1;
            return;
        }
        for t in 0..tn as u32 {
            if used[t as usize] {
                continue;
            }
            // Check edges from `depth` to all earlier mapped vertices.
            let ok = (0..depth)
                .all(|u| !pattern.has_edge(depth as u32, u as u32) || target.has_edge(t, phi[u]));
            if ok {
                phi[depth] = t;
                used[t as usize] = true;
                rec(depth + 1, pn, tn, pattern, target, phi, used, count);
                used[t as usize] = false;
            }
        }
    }
    rec(0, pn, tn, pattern, target, &mut phi, &mut used, &mut count);
    count
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn distance_matrix_is_symmetric_with_triangle_inequality(t in graph(7)) {
        let m = t.distance_matrix();
        let n = t.num_qubits() as usize;
        for i in 0..n {
            prop_assert_eq!(m[i][i], 0);
            for j in 0..n {
                prop_assert_eq!(m[i][j], m[j][i]);
                for k in 0..n {
                    if m[i][k] != usize::MAX && m[k][j] != usize::MAX {
                        prop_assert!(m[i][j] <= m[i][k] + m[k][j]);
                    }
                }
            }
        }
    }

    #[test]
    fn shortest_path_length_matches_distance(t in graph(7), a in 0u32..7, b in 0u32..7) {
        match (t.shortest_path(a, b), t.distance(a, b)) {
            (Some(path), Some(d)) => {
                prop_assert_eq!(path.len(), d + 1);
                prop_assert_eq!(path[0], a);
                prop_assert_eq!(*path.last().unwrap(), b);
                for w in path.windows(2) {
                    prop_assert!(w[0] == w[1] || t.has_edge(w[0], w[1]));
                }
            }
            (None, None) => {}
            (p, d) => prop_assert!(false, "inconsistent: path {:?} dist {:?}", p, d),
        }
    }

    #[test]
    fn vf2_count_matches_brute_force(p in graph(4), t in graph(5)) {
        let fast = embeddings(&p, &t, MapperSelection::Exhaustive).len();
        let slow = brute_force_count(&p, &t);
        prop_assert_eq!(fast, slow);
    }

    #[test]
    fn fdls_exhaustive_matches_vf2_on_every_small_preset(p in connected_graph(5)) {
        // The filtered engine with budgets disabled must agree with VF2 on
        // the full embedding *set* (not just the count) for every preset
        // the Auto mapper would search exhaustively.
        for make in [presets::melbourne14, presets::guadalupe16, presets::tokyo20] {
            let target = make();
            let mut fast = embeddings(&p, &target, MapperSelection::Exhaustive);
            let mut filtered =
                embeddings(&p, &target, MapperSelection::Filtered(FdlsConfig::exhaustive()));
            fast.sort();
            filtered.sort();
            prop_assert_eq!(&fast, &filtered, "sets differ on a {}-qubit preset",
                target.num_qubits());
        }
    }

    #[test]
    fn fdls_under_budget_returns_a_subset_of_vf2(p in graph(4), t in graph(6)) {
        // Budgets may drop embeddings but never invent them.
        let full: std::collections::BTreeSet<Vec<u32>> =
            embeddings(&p, &t, MapperSelection::Exhaustive).into_iter().collect();
        let tight = FdlsConfig { node_budget: 12, root_budget: 4, backtrack_depth: 1 };
        for config in [FdlsConfig::default(), tight] {
            let got = embeddings(&p, &t, MapperSelection::Filtered(config));
            let distinct: std::collections::BTreeSet<Vec<u32>> =
                got.iter().cloned().collect();
            prop_assert_eq!(distinct.len(), got.len(), "duplicates in FDLS output");
            for e in &got {
                prop_assert!(full.contains(e), "FDLS invented {:?}", e);
            }
        }
    }

    #[test]
    fn synthesized_devices_have_valid_rates(seed in 0u64..200) {
        let d = DeviceModel::synthesize(presets::melbourne14(), seed);
        let t = d.truth();
        for q in 0..14usize {
            prop_assert!((0.0..=0.5).contains(&t.readout_p01[q]));
            prop_assert!((0.0..=0.5).contains(&t.readout_p10[q]));
            prop_assert!(t.readout_p10[q] >= t.readout_p01[q]);
            prop_assert!(t.t1_us[q] > 0.0);
            prop_assert!(t.t2_us[q] <= 2.0 * t.t1_us[q] + 1e-9);
        }
        for &e in t.cx_err.values() {
            prop_assert!((0.0..=0.5).contains(&e));
        }
    }

    #[test]
    fn drift_preserves_validity(seed in 0u64..50, sigma in 0.0f64..0.8) {
        let d = DeviceModel::synthesize(presets::melbourne14(), seed);
        let drifted = d.truth().drifted(sigma, seed ^ 1);
        for q in 0..14usize {
            prop_assert!((0.0..=0.5).contains(&drifted.readout_p01[q]));
            prop_assert!((0.0..=0.5).contains(&drifted.gate_1q_err[q]));
        }
        // Drifted calibration remains constructible.
        let _ = d.drifted_calibration(sigma, seed);
    }

    #[test]
    fn scaling_is_monotone(seed in 0u64..50, f in 0.0f64..3.0) {
        let d = DeviceModel::synthesize(presets::melbourne14(), seed);
        let scaled = d.truth().scaled(f);
        for q in 0..14usize {
            if f <= 1.0 {
                prop_assert!(scaled.readout_p01[q] <= d.truth().readout_p01[q] + 1e-12);
            } else {
                prop_assert!(scaled.readout_p01[q] + 1e-12 >= d.truth().readout_p01[q].min(0.5));
            }
        }
    }

    #[test]
    fn persistence_roundtrip_over_random_profiles(seed in 0u64..50, coh in 0.0f64..1.5) {
        let profile = SynthesisProfile {
            coherent_max_angle: coh,
            ..SynthesisProfile::default()
        };
        let d = DeviceModel::synthesize_with(presets::line(6), &profile, seed);
        let json = persist::device_to_json(&d).expect("serializes");
        let restored = persist::device_from_json(&json).expect("parses");
        prop_assert_eq!(restored, d);
    }
}
