//! Ranking embeddings off the compiled ESP term list must reproduce the
//! circuit-building ranking exactly.
//!
//! The oracle below is the previous algorithm, kept here verbatim in
//! spirit: relabel the circuit for every embedding, score it with
//! `esp::esp`, stable-sort best first, then filter and select. The
//! production path (`Transpiler::transpile`, `diversify_detailed`) must
//! match it bit for bit — chosen layout, ESP bits, every ensemble member
//! and the search outcome — across the IST suite on the paper devices and
//! the scaling circuits, with and without a quarantine, for every
//! selection option.

use edm_core::{diversify_detailed, EdmError, EnsembleConfig, EnsembleMember};
use qcir::{Circuit, Gate, Qubit};
use qdevice::drift::Quarantine;
use qdevice::mapper::{self, SearchOutcome};
use qdevice::{presets, Calibration, DeviceModel, Topology};
use qmap::{esp, placement, Layout, MapError, MapperSelection, TranspiledCircuit, Transpiler};

// ---------------------------------------------------------------------------
// Oracle: the relabel-and-sort ranking.
// ---------------------------------------------------------------------------

fn oracle_rank(
    circuit: &Circuit,
    topology: &Topology,
    cal: &Calibration,
    max: usize,
    selection: MapperSelection,
) -> Result<Vec<(Layout, f64)>, MapError> {
    if circuit.num_qubits() > topology.num_qubits() {
        return Err(MapError::TooManyQubits {
            circuit: circuit.num_qubits(),
            device: topology.num_qubits(),
        });
    }
    let pattern = placement::interaction_topology(circuit);
    let set = mapper::enumerate_embeddings(&pattern, topology, max, selection);
    let mut ranked = Vec::with_capacity(set.embeddings.len());
    for phi in set.embeddings {
        let layout = Layout::from_physical(phi, topology.num_qubits());
        let physical = layout.apply(circuit);
        let score = esp::esp(&physical, cal)?;
        ranked.push((layout, score));
    }
    ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("ESP is finite"));
    Ok(ranked)
}

fn oracle_swap_free(t: &Transpiler<'_>, basis: &Circuit) -> Result<Option<Layout>, MapError> {
    let cal = t.calibration();
    let Some(quarantine) = t.quarantine() else {
        let ranked = oracle_rank(basis, t.topology(), cal, usize::MAX, t.mapper_selection())?;
        return Ok(ranked.into_iter().next().map(|(l, _)| l));
    };
    let ranked = oracle_rank(
        basis,
        t.effective_topology(),
        cal,
        usize::MAX,
        t.mapper_selection(),
    )?;
    Ok(ranked
        .into_iter()
        .map(|(l, _)| l)
        .find(|l| quarantine.allows_footprint(&l.physical_qubits())))
}

fn oracle_greedy(t: &Transpiler<'_>, basis: &Circuit) -> Result<Layout, MapError> {
    let cal = t.calibration();
    let Some(quarantine) = t.quarantine() else {
        return placement::greedy_placement(basis, t.topology(), cal);
    };
    match placement::greedy_placement(basis, t.effective_topology(), cal) {
        Ok(layout) if quarantine.allows_footprint(&layout.physical_qubits()) => Ok(layout),
        _ => placement::greedy_placement(basis, t.topology(), cal),
    }
}

fn oracle_transpile(t: &Transpiler<'_>, circuit: &Circuit) -> Result<TranspiledCircuit, MapError> {
    let basis = circuit.decomposed();
    let layout = match oracle_swap_free(t, &basis)? {
        Some(layout) => layout,
        None => oracle_greedy(t, &basis)?,
    };
    t.transpile_with_layout(circuit, &layout)
}

fn oracle_select_diverse(pool: Vec<EnsembleMember>, size: usize) -> Vec<EnsembleMember> {
    if pool.len() <= size {
        return pool;
    }
    let distance = |a: &EnsembleMember, b: &EnsembleMember| -> usize {
        a.assignment
            .iter()
            .zip(&b.assignment)
            .filter(|(x, y)| x != y)
            .count()
    };
    let mut remaining = pool;
    let mut selected = vec![remaining.remove(0)];
    while selected.len() < size && !remaining.is_empty() {
        let (best_idx, _) = remaining
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let d = selected.iter().map(|s| distance(c, s)).min().unwrap();
                (i, d)
            })
            .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
            .unwrap();
        selected.push(remaining.remove(best_idx));
    }
    selected.sort_by(|a, b| b.esp.partial_cmp(&a.esp).expect("ESP is finite"));
    selected
}

fn oracle_invert(physical: &Circuit) -> Circuit {
    let mut out = Circuit::new(physical.num_qubits(), physical.num_clbits());
    for g in physical.iter() {
        if let Gate::Measure(q, c) = *g {
            out.x(q.index());
            out.measure(q.index(), c.index());
        } else {
            out.extend([g.clone()]);
        }
    }
    out
}

/// Every embedding relabeled and scored, ESP-descending (stable), plus the
/// search outcome: the config-independent half of the old diversify.
fn oracle_pool(
    t: &Transpiler<'_>,
    physical: &Circuit,
    max_candidates: usize,
) -> Result<(Vec<EnsembleMember>, SearchOutcome), EdmError> {
    let topology = t.topology();
    let active: Vec<u32> = physical.active_qubits().iter().map(|q| q.index()).collect();
    let mut pos = vec![u32::MAX; topology.num_qubits() as usize];
    for (i, &q) in active.iter().enumerate() {
        pos[q as usize] = i as u32;
    }
    let edges: Vec<(u32, u32)> = physical
        .interaction_edges()
        .into_iter()
        .map(|(a, b)| (pos[a.usize()], pos[b.usize()]))
        .collect();
    let pattern = Topology::new(active.len() as u32, &edges);
    let selection = t.mapper_selection();
    let set =
        mapper::enumerate_embeddings(&pattern, t.effective_topology(), max_candidates, selection);
    let mut outcome = set.outcome;
    let mut embeddings = set.embeddings;
    if let Some(quarantine) = t.quarantine() {
        embeddings.retain(|phi| quarantine.allows_footprint(phi));
        if embeddings.is_empty() {
            let set = mapper::enumerate_embeddings(&pattern, topology, max_candidates, selection);
            outcome = set.outcome;
            embeddings = set.embeddings;
        }
    }
    if embeddings.is_empty() {
        return Err(EdmError::NoEmbeddings);
    }
    let mut members = Vec::with_capacity(embeddings.len());
    for phi in embeddings {
        let relabeled = physical.relabeled(topology.num_qubits(), |q| {
            Qubit::new(phi[pos[q.usize()] as usize])
        });
        let esp = esp::esp(&relabeled, t.calibration())?;
        let mut qubits = phi.clone();
        qubits.sort_unstable();
        members.push(EnsembleMember {
            physical: relabeled,
            esp,
            qubits,
            assignment: phi,
            inverted_measurement: false,
        });
    }
    members.sort_by(|a, b| b.esp.partial_cmp(&a.esp).expect("ESP is finite"));
    Ok((members, outcome))
}

/// The config-dependent half of the old diversify: filter, select, invert.
fn oracle_select(mut members: Vec<EnsembleMember>, config: &EnsembleConfig) -> Vec<EnsembleMember> {
    if config.min_esp_ratio > 0.0 {
        let best = members[0].esp;
        members.retain(|m| m.esp >= config.min_esp_ratio * best);
    }
    members = if config.diverse_selection {
        oracle_select_diverse(members, config.size)
    } else {
        members.truncate(config.size);
        members
    };
    if config.invert_measurements {
        for (i, m) in members.iter_mut().enumerate() {
            if i % 2 == 1 {
                m.physical = oracle_invert(&m.physical);
                m.inverted_measurement = true;
            }
        }
    }
    members
}

// ---------------------------------------------------------------------------
// Comparison.
// ---------------------------------------------------------------------------

fn configs() -> Vec<EnsembleConfig> {
    let mut out = Vec::new();
    for min_esp_ratio in [0.0, 0.9] {
        for diverse_selection in [false, true] {
            out.push(EnsembleConfig {
                min_esp_ratio,
                diverse_selection,
                ..EnsembleConfig::default()
            });
        }
    }
    out.push(EnsembleConfig {
        invert_measurements: true,
        ..EnsembleConfig::default()
    });
    out
}

fn assert_members_identical(label: &str, got: &[EnsembleMember], want: &[EnsembleMember]) {
    assert_eq!(got, want, "{label}: members differ");
    for (g, w) in got.iter().zip(want) {
        assert_eq!(g.esp.to_bits(), w.esp.to_bits(), "{label}: ESP bits differ");
    }
}

/// Compares transpile and every diversify configuration against the
/// oracle on one transpiler.
fn check_transpiler(label: &str, t: &Transpiler<'_>, circuit: &Circuit) {
    let got = t.transpile(circuit);
    let want = oracle_transpile(t, circuit);
    assert_eq!(got, want, "{label}: transpile differs");
    let (got, want) = (got.unwrap(), want.unwrap());
    assert_eq!(got.initial_layout, want.initial_layout, "{label}: layout");
    assert_eq!(got.esp.to_bits(), want.esp.to_bits(), "{label}: ESP bits");

    let max_candidates = EnsembleConfig::default().max_candidates;
    let pool = oracle_pool(t, &want.physical, max_candidates);
    for config in configs() {
        let label = format!(
            "{label} ratio={} diverse={} invert={}",
            config.min_esp_ratio, config.diverse_selection, config.invert_measurements
        );
        let got = diversify_detailed(t, &got.physical, &config);
        match &pool {
            Ok((members, outcome)) => {
                let (got_members, got_outcome) = got.expect(&label);
                assert_eq!(got_outcome, *outcome, "{label}: outcome");
                let want_members = oracle_select(members.clone(), &config);
                assert_members_identical(&label, &got_members, &want_members);
            }
            Err(e) => assert_eq!(got.unwrap_err(), *e, "{label}: error"),
        }
    }
}

/// One circuit on one device: no quarantine, a quarantine on the best
/// layout's first qubit, and an all-qubit quarantine that forces the
/// full-device fallback.
fn check_case(label: &str, topology: &Topology, cal: &Calibration, circuit: &Circuit) {
    let plain = Transpiler::new(topology, cal);
    check_transpiler(&format!("{label} plain"), &plain, circuit);

    let best = plain.transpile(circuit).expect("transpiles");
    let mut hit = Quarantine::new();
    hit.add_qubit(best.initial_layout.physical_qubits()[0]);
    let t = Transpiler::new(topology, cal).with_quarantine(&hit);
    check_transpiler(&format!("{label} quarantine-best"), &t, circuit);

    let mut all = Quarantine::new();
    for q in 0..topology.num_qubits() {
        all.add_qubit(q);
    }
    let t = Transpiler::new(topology, cal).with_quarantine(&all);
    check_transpiler(&format!("{label} quarantine-all"), &t, circuit);
}

fn scaling(name: &str) -> Circuit {
    qbench::registry::scaling_by_name(name).expect("known scaling circuit")
}

/// The devices of the compile-scaling benchmark items.
fn scaling_device(preset: Topology, k: u64) -> DeviceModel {
    DeviceModel::synthesize(preset, qsim::rngstream::fork(0xED_2019, 100 + k))
}

// ---------------------------------------------------------------------------
// Cases.
// ---------------------------------------------------------------------------

#[test]
fn ist_suite_on_the_paper_devices_matches_the_oracle() {
    let suite = qbench::registry::ist_suite();
    for d in 0..8u64 {
        let seed = qsim::rngstream::fork(0xED_2019, d);
        let device = edm_bench::setup::paper_device(seed);
        let cal = edm_bench::experiments::compile_view(
            &device,
            edm_bench::experiments::DRIFT_SIGMA,
            seed,
        );
        for b in &suite {
            check_case(
                &format!("{}@melbourne14#{d}", b.name),
                device.topology(),
                &cal,
                &b.circuit,
            );
        }
    }
}

#[test]
fn qaoa_ring_10_on_tokyo20_matches_the_oracle() {
    let device = scaling_device(presets::tokyo20(), 0);
    let cal = device.calibration();
    check_case(
        "qaoa-ring-10@tokyo20",
        device.topology(),
        &cal,
        &scaling("qaoa-ring-10"),
    );
}

#[test]
fn qft_8_on_eagle127_matches_the_oracle() {
    let device = scaling_device(presets::eagle127(), 7);
    let cal = device.calibration();
    check_case("qft-8@eagle127", device.topology(), &cal, &scaling("qft-8"));
}

#[test]
fn ghz_8_matches_the_oracle_on_three_presets() {
    for (name, preset) in [
        ("tokyo20", presets::tokyo20()),
        ("guadalupe16", presets::guadalupe16()),
        ("falcon27", presets::falcon27()),
    ] {
        let device = DeviceModel::synthesize(preset, 8);
        let cal = device.calibration();
        check_case(
            &format!("ghz-8@{name}"),
            device.topology(),
            &cal,
            &scaling("ghz-8"),
        );
    }
}

/// The two largest pools of the compile-scaling benchmark. The oracle
/// builds a circuit per embedding (over a million for ghz-12), which takes
/// minutes without optimization, so these run in release builds only.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release-only: the oracle is too slow unoptimized"
)]
fn large_pools_match_the_oracle() {
    let tokyo = scaling_device(presets::tokyo20(), 0);
    let cal = tokyo.calibration();
    check_case("ghz-12@tokyo20", tokyo.topology(), &cal, &scaling("ghz-12"));

    let melbourne = scaling_device(presets::melbourne14(), 2);
    let cal = melbourne.calibration();
    check_case(
        "bv-6-sparse@melbourne14",
        melbourne.topology(),
        &cal,
        &qbench::bv::bv(0b100100, 6),
    );
}

#[test]
fn errors_match_the_oracle() {
    let device = DeviceModel::synthesize(presets::melbourne14(), 5);
    let full = device.calibration();
    // Drop every other CX calibration: embeddings crossing a dropped link
    // fail with the first uncalibrated edge in enumeration order.
    let readout: Vec<f64> = (0..14).map(|q| full.readout_err(q)).collect();
    let gate: Vec<f64> = (0..14).map(|q| full.gate_1q_err(q)).collect();
    let cx = full
        .cx_table()
        .iter()
        .enumerate()
        .filter(|(i, _)| i % 2 == 0)
        .map(|(_, (e, r))| (*e, *r))
        .collect();
    let holes = Calibration::new(readout, gate, cx);
    let mut ghz = Circuit::new(4, 4);
    ghz.h(0).cx(0, 1).cx(1, 2).cx(2, 3).measure_all();
    for selection in [
        MapperSelection::Exhaustive,
        MapperSelection::Filtered(Default::default()),
    ] {
        let want = oracle_rank(&ghz, device.topology(), &holes, usize::MAX, selection);
        assert!(
            matches!(want, Err(MapError::UncalibratedEdge { .. })),
            "{want:?}"
        );
        let got =
            placement::best_swap_free_placement_with(&ghz, device.topology(), &holes, selection);
        assert_eq!(got.unwrap_err(), want.unwrap_err());
    }

    // A non-basis gate fails scoring wherever an embedding exists...
    let cal = device.calibration();
    let mut swap = Circuit::new(3, 3);
    swap.cx(0, 1).swap(1, 2).measure_all();
    let got = placement::best_swap_free_placement_with(
        &swap,
        device.topology(),
        &cal,
        MapperSelection::Exhaustive,
    );
    let want = oracle_rank(
        &swap,
        device.topology(),
        &cal,
        50,
        MapperSelection::Exhaustive,
    );
    assert_eq!(want, Err(MapError::UnsupportedGate { name: "swap" }));
    assert_eq!(got.unwrap_err(), want.unwrap_err());
    let t = Transpiler::new(device.topology(), &cal);
    let config = EnsembleConfig::default();
    let want =
        oracle_pool(&t, &swap, config.max_candidates).map(|(m, o)| (oracle_select(m, &config), o));
    assert_eq!(diversify_detailed(&t, &swap, &config), want);
    assert!(want.is_err());

    // ...and is never reached when no embedding exists.
    let mut star = Circuit::new(5, 0);
    star.cx(0, 1).cx(0, 2).cx(0, 3).cx(0, 4).swap(1, 2);
    assert_eq!(
        placement::best_swap_free_placement_with(
            &star,
            device.topology(),
            &cal,
            MapperSelection::Exhaustive
        ),
        Ok(None)
    );
}
