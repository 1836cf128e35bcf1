//! Ranking embeddings off the compiled ESP term list, branch-and-bound,
//! must reproduce the exhaustive circuit-building ranking exactly.
//!
//! The oracle below enumerates without any bound: every embedding of the
//! pattern's core (its vertices with a two-qubit gate) and, for each, every
//! injective placement of the idle vertices on free, unquarantined qubits.
//! It relabels the circuit for each, scores it with `esp::esp`, keeps each
//! core's best completion (the first maximum; interchangeable idle vertices,
//! with equal 1q-gate and measurement counts, then take their qubits in
//! ascending order), stable-sorts the cores best first, filters by the
//! ESP ratio, keeps the pool's capacity and selects by distance over the
//! interacting qubits. The production path (`Transpiler::transpile`,
//! `diversify_detailed`) must match it bit for bit — chosen layout, ESP
//! bits, every ensemble member and the search outcome — across the IST
//! suite on the paper devices and the scaling circuits, with and without a
//! quarantine, for every selection option.
//!
//! When fewer cores than the ensemble size are within the ratio, the pool
//! is filled with the best other completions of the kept cores. Those
//! near-tie in ESP (interchangeable idle vertices swapped), so the oracle
//! checks the filled pool by value: every kept member bit for bit and in
//! order, each joined one a distinct other completion of a kept core,
//! scored bit for bit, as many as the fill asks for (or every one within
//! the ratio), each the best one left up to `esp::BOUND_SLACK`. Selection
//! from that pool, with every footprint position counted, is then checked
//! bit for bit.

use edm_core::{diversify_detailed, EdmError, EnsembleConfig, EnsembleMember};
use qcir::{Circuit, Gate, Qubit};
use qdevice::drift::Quarantine;
use qdevice::mapper::{self, SearchOutcome};
use qdevice::{presets, Calibration, DeviceModel, Topology};
use qmap::{esp, placement, Layout, MapError, MapperSelection, TranspiledCircuit, Transpiler};

// ---------------------------------------------------------------------------
// Oracle: the relabel-and-sort ranking over every completion.
// ---------------------------------------------------------------------------

/// What the oracle ranks: a circuit whose qubit `q` is pattern vertex
/// `index(q)`, relabeled onto `width` physical qubits.
struct Ranked<'a> {
    circuit: &'a Circuit,
    pattern: Topology,
    index: &'a dyn Fn(Qubit) -> u32,
    width: u32,
}

impl Ranked<'_> {
    /// The circuit under the embedding `phi`, scored by `esp::esp`.
    fn relabel(&self, phi: &[u32], cal: &Calibration) -> Result<(Circuit, f64), MapError> {
        let physical = self
            .circuit
            .relabeled(self.width, |q| Qubit::new(phi[(self.index)(q) as usize]));
        let esp = esp::esp(&physical, cal)?;
        Ok((physical, esp))
    }

    /// Per pattern vertex, its single-qubit gate and measurement counts.
    fn counts(&self) -> Vec<(u32, u32)> {
        let mut counts = vec![(0, 0); self.pattern.num_qubits() as usize];
        for g in self.circuit.iter() {
            if g.is_measure() || g.is_single_qubit() {
                let v = (self.index)(g.qubits()[0]) as usize;
                match g.is_measure() {
                    true => counts[v].1 += 1,
                    false => counts[v].0 += 1,
                }
            }
        }
        counts
    }

    /// Every core embedding into `target` under `selection`, completed at
    /// its best, ranked best first (stable), with the search outcome.
    fn rank(
        &self,
        target: &Topology,
        cal: &Calibration,
        selection: MapperSelection,
        quarantine: Option<&Quarantine>,
    ) -> Result<(placement::Ranking, SearchOutcome), MapError> {
        let n = self.pattern.num_qubits();
        let (core, idle): (Vec<u32>, Vec<u32>) = (0..n).partition(|&v| self.pattern.degree(v) > 0);
        let mut core_index = vec![u32::MAX; n as usize];
        for (i, &v) in core.iter().enumerate() {
            core_index[v as usize] = i as u32;
        }
        let edges: Vec<(u32, u32)> = self
            .pattern
            .edges()
            .iter()
            .map(|e| (core_index[e.lo() as usize], core_index[e.hi() as usize]))
            .collect();
        let core_pattern = Topology::new(core.len() as u32, &edges);
        let set = mapper::enumerate_embeddings(&core_pattern, target, usize::MAX, selection);
        let counts = self.counts();
        let mut ranked = Vec::new();
        for core_phi in set.embeddings {
            let mut phi = vec![u32::MAX; n as usize];
            for (&v, &t) in core.iter().zip(&core_phi) {
                phi[v as usize] = t;
            }
            let free: Vec<u32> = (0..target.num_qubits())
                .filter(|t| !core_phi.contains(t))
                .filter(|&t| quarantine.is_none_or(|q| !q.contains_qubit(t)))
                .collect();
            let mut best: Option<(f64, Vec<u32>)> = None;
            complete(&idle, &free, &mut phi, &mut |phi| {
                let (_, esp) = self.relabel(phi, cal)?;
                if best.as_ref().is_none_or(|(top, _)| esp > *top) {
                    best = Some((esp, phi.to_vec()));
                }
                Ok(())
            })?;
            let Some((_, mut phi)) = best else { continue };
            // Interchangeable idle vertices take ascending qubits.
            let mut groups: Vec<(u32, u32)> = idle.iter().map(|&v| counts[v as usize]).collect();
            groups.sort_unstable();
            groups.dedup();
            for key in groups {
                let members: Vec<u32> = idle
                    .iter()
                    .copied()
                    .filter(|&v| counts[v as usize] == key)
                    .collect();
                let mut qubits: Vec<u32> = members.iter().map(|&v| phi[v as usize]).collect();
                qubits.sort_unstable();
                for (v, q) in members.into_iter().zip(qubits) {
                    phi[v as usize] = q;
                }
            }
            let (_, esp) = self.relabel(&phi, cal)?;
            ranked.push((esp, phi));
        }
        ranked.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("ESP is finite"));
        Ok((ranked, set.outcome))
    }
}

impl Ranked<'_> {
    /// Every completion of `phi`'s core other than `phi` itself, scored:
    /// its idle vertices on the qubits of `target` the core leaves free
    /// and `quarantine` allows.
    fn other_completions(
        &self,
        phi: &[u32],
        target: &Topology,
        cal: &Calibration,
        quarantine: Option<&Quarantine>,
    ) -> Result<Vec<(f64, Vec<u32>)>, MapError> {
        let n = self.pattern.num_qubits();
        let idle: Vec<u32> = (0..n).filter(|&v| self.pattern.degree(v) == 0).collect();
        let mut completion = phi.to_vec();
        for &v in &idle {
            completion[v as usize] = u32::MAX;
        }
        let free: Vec<u32> = (0..target.num_qubits())
            .filter(|t| !completion.contains(t))
            .filter(|&t| quarantine.is_none_or(|q| !q.contains_qubit(t)))
            .collect();
        let mut others = Vec::new();
        complete(&idle, &free, &mut completion, &mut |other| {
            if other != phi {
                others.push((self.relabel(other, cal)?.1, other.to_vec()));
            }
            Ok(())
        })?;
        Ok(others)
    }
}

/// Visits every injective placement of the `idle` vertices on `free`
/// qubits (each in ascending order per vertex), completing `phi`.
fn complete(
    idle: &[u32],
    free: &[u32],
    phi: &mut Vec<u32>,
    visit: &mut dyn FnMut(&[u32]) -> Result<(), MapError>,
) -> Result<(), MapError> {
    let Some((&v, rest)) = idle.split_first() else {
        return visit(phi);
    };
    for &t in free {
        if !phi.contains(&t) {
            phi[v as usize] = t;
            complete(rest, free, phi, visit)?;
            phi[v as usize] = u32::MAX;
        }
    }
    Ok(())
}

/// The oracle ranking of a logical circuit on a whole device.
fn oracle_rank(
    circuit: &Circuit,
    topology: &Topology,
    cal: &Calibration,
    selection: MapperSelection,
) -> Result<Vec<(f64, Vec<u32>)>, MapError> {
    let ranked = Ranked {
        circuit,
        pattern: placement::interaction_topology(circuit),
        index: &Qubit::index,
        width: topology.num_qubits(),
    };
    Ok(ranked.rank(topology, cal, selection, None)?.0)
}

fn oracle_swap_free(t: &Transpiler<'_>, basis: &Circuit) -> Result<Option<Layout>, MapError> {
    let topology = t.topology();
    if basis.num_qubits() > topology.num_qubits() {
        return Err(MapError::TooManyQubits {
            circuit: basis.num_qubits(),
            device: topology.num_qubits(),
        });
    }
    let ranked = Ranked {
        circuit: basis,
        pattern: placement::interaction_topology(basis),
        index: &Qubit::index,
        width: topology.num_qubits(),
    };
    let (ranking, _) = ranked.rank(
        t.effective_topology(),
        t.calibration(),
        t.mapper_selection(),
        t.quarantine(),
    )?;
    Ok(ranking
        .into_iter()
        .next()
        .map(|(_, phi)| Layout::from_physical(phi, topology.num_qubits())))
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

fn oracle_select_diverse(
    pool: Vec<EnsembleMember>,
    size: usize,
    counted: &[bool],
) -> Vec<EnsembleMember> {
    if pool.len() <= size {
        return pool;
    }
    let distance = |a: &EnsembleMember, b: &EnsembleMember| -> usize {
        (0..a.assignment.len())
            .filter(|&i| counted[i] && a.assignment[i] != b.assignment[i])
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

/// The ensemble size of every configuration checked.
const SIZE: usize = 4;

/// What the config-independent half of diversify produces.
struct Pool {
    /// The ranked members.
    members: Vec<EnsembleMember>,
    outcome: SearchOutcome,
    /// Which footprint qubits interact.
    interacting: Vec<bool>,
    /// For the first `SIZE` members, every other completion of their
    /// core, relabeled.
    others: Vec<Vec<EnsembleMember>>,
    /// Whether the ranking fell back to the full device.
    fallback: bool,
}

/// The member `ranked` relabels under `phi`, whose ESP must be `esp`.
fn member(
    ranked: &Ranked<'_>,
    cal: &Calibration,
    esp: f64,
    phi: Vec<u32>,
) -> Result<EnsembleMember, MapError> {
    let (relabeled, relabeled_esp) = ranked.relabel(&phi, cal)?;
    assert_eq!(esp.to_bits(), relabeled_esp.to_bits());
    let mut qubits = phi.clone();
    qubits.sort_unstable();
    Ok(EnsembleMember {
        physical: relabeled,
        esp,
        qubits,
        assignment: phi,
        inverted_measurement: false,
    })
}

/// The footprint of a physical circuit on `width` qubits: each active
/// qubit's pattern index (`u32::MAX` elsewhere) and the pattern.
fn footprint(physical: &Circuit, width: u32) -> (Vec<u32>, Topology) {
    let active: Vec<u32> = physical.active_qubits().iter().map(|q| q.index()).collect();
    let mut pos = vec![u32::MAX; width as usize];
    for (i, &q) in active.iter().enumerate() {
        pos[q as usize] = i as u32;
    }
    let edges: Vec<(u32, u32)> = physical
        .interaction_edges()
        .into_iter()
        .map(|(a, b)| (pos[a.usize()], pos[b.usize()]))
        .collect();
    (pos, Topology::new(active.len() as u32, &edges))
}

/// The footprint's ranking, every member relabeled, plus the search
/// outcome and the other completions of the first members.
fn oracle_pool(t: &Transpiler<'_>, physical: &Circuit) -> Result<Pool, EdmError> {
    let topology = t.topology();
    let (pos, pattern) = footprint(physical, topology.num_qubits());
    let index = |q: Qubit| pos[q.usize()];
    let ranked = Ranked {
        circuit: physical,
        pattern,
        index: &index,
        width: topology.num_qubits(),
    };
    let (cal, selection) = (t.calibration(), t.mapper_selection());
    let (mut target, mut quarantine) = (t.effective_topology(), t.quarantine());
    let (mut ranking, mut outcome) = ranked.rank(target, cal, selection, quarantine)?;
    let fallback = ranking.is_empty() && quarantine.is_some();
    if fallback {
        (target, quarantine) = (topology, None);
        (ranking, outcome) = ranked.rank(target, cal, selection, quarantine)?;
    }
    if ranking.is_empty() {
        return Err(EdmError::NoEmbeddings);
    }
    let mut others = Vec::new();
    for (_, phi) in ranking.iter().take(SIZE) {
        let completions = ranked.other_completions(phi, target, cal, quarantine)?;
        let completions = completions
            .into_iter()
            .map(|(esp, phi)| member(&ranked, cal, esp, phi));
        others.push(completions.collect::<Result<Vec<_>, _>>()?);
    }
    let members = ranking
        .into_iter()
        .map(|(esp, phi)| member(&ranked, cal, esp, phi))
        .collect::<Result<_, _>>()?;
    let interacting = (0..ranked.pattern.num_qubits())
        .map(|v| ranked.pattern.degree(v) > 0)
        .collect();
    Ok(Pool {
        members,
        outcome,
        interacting,
        others,
        fallback,
    })
}

/// The pool diversify ranks for `config`, straight from
/// `placement::rank_embeddings`; [`check_fill`] holds it to the oracle.
fn production_pool(
    t: &Transpiler<'_>,
    physical: &Circuit,
    config: &EnsembleConfig,
    fallback: bool,
) -> placement::Ranking {
    let topology = t.topology();
    let (pos, pattern) = footprint(physical, topology.num_qubits());
    let scorer = esp::Scorer::new(
        physical,
        topology.num_qubits(),
        |q| pos[q.usize()],
        t.calibration(),
    );
    let (target, quarantine) = match fallback {
        true => (topology, None),
        false => (t.effective_topology(), t.quarantine()),
    };
    let (ranking, _) = placement::rank_embeddings(
        &scorer,
        &pattern,
        target,
        t.mapper_selection(),
        quarantine,
        config.max_candidates,
        config.min_esp_ratio,
        config.size,
    )
    .expect("scores");
    ranking
}

/// Checks a filled pool against the oracle and returns it as members:
/// every `kept` member bit for bit and in order, and joined ones each a
/// distinct one of `candidates` (the kept cores' other completions within
/// the ratio, best first), as many as `wanted` leaves room for (or every
/// candidate), each the best one left up to the rounding slack.
fn check_fill(
    label: &str,
    kept: Vec<EnsembleMember>,
    candidates: &[&EnsembleMember],
    wanted: usize,
    filled: placement::Ranking,
) -> Vec<EnsembleMember> {
    let open = (wanted - kept.len()).min(candidates.len());
    assert_eq!(filled.len(), kept.len() + open, "{label}: filled size");
    let (mut pool, mut joined) = (Vec::new(), Vec::new());
    for (i, (esp, phi)) in filled.iter().enumerate() {
        assert!(i == 0 || filled[i - 1].0 >= *esp, "{label}: out of order");
        let source = match kept.iter().find(|m| &m.assignment == phi) {
            Some(m) => m,
            None => {
                let other = candidates.iter().find(|m| &m.assignment == phi);
                joined.push(*esp);
                other.unwrap_or_else(|| panic!("{label}: {phi:?} joined"))
            }
        };
        assert_eq!(esp.to_bits(), source.esp.to_bits(), "{label}: ESP bits");
        pool.push(source.clone());
    }
    let assignments = |ms: &mut dyn Iterator<Item = &EnsembleMember>| {
        ms.map(|m| m.assignment.clone()).collect::<Vec<_>>()
    };
    let in_pool = assignments(&mut pool.iter().filter(|m| kept.contains(m)));
    assert_eq!(in_pool, assignments(&mut kept.iter()), "{label}: kept");
    let mut distinct = assignments(&mut pool.iter());
    distinct.sort();
    distinct.dedup();
    assert_eq!(distinct.len(), pool.len(), "{label}: joined twice");
    for (got, best) in joined.iter().zip(candidates) {
        assert!(
            *got >= best.esp * (1.0 - esp::BOUND_SLACK),
            "{label}: {got} joined, {} was left",
            best.esp
        );
    }
    pool
}

/// The config-dependent half of diversify: filter by the ratio, keep the
/// pool's capacity, fill it when it holds fewer cores than members (the
/// production fill, checked by [`check_fill`]), select, invert.
fn oracle_select(
    label: &str,
    pool: &Pool,
    config: &EnsembleConfig,
    filled: impl FnOnce() -> placement::Ranking,
) -> Vec<EnsembleMember> {
    assert_eq!(config.size, SIZE);
    let mut members = pool.members.clone();
    let floor = config.min_esp_ratio.max(0.0) * members[0].esp;
    members.retain(|m| m.esp >= floor);
    members.truncate(config.max_candidates);
    let mut counted = pool.interacting.clone();
    if members.len() < config.size.min(config.max_candidates) {
        let mut candidates: Vec<&EnsembleMember> = pool.others[..members.len()]
            .iter()
            .flatten()
            .filter(|m| m.esp >= floor)
            .collect();
        candidates.sort_by(|a, b| b.esp.total_cmp(&a.esp));
        let wanted = (2 * config.size).min(config.max_candidates);
        members = check_fill(label, members, &candidates, wanted, filled());
        // Members share cores: every position counts.
        counted = vec![true; counted.len()];
    }
    members = if config.diverse_selection {
        oracle_select_diverse(members, config.size, &counted)
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

    let pool = oracle_pool(t, &want.physical);
    for config in configs() {
        let label = format!(
            "{label} ratio={} diverse={} invert={}",
            config.min_esp_ratio, config.diverse_selection, config.invert_measurements
        );
        let got = diversify_detailed(t, &got.physical, &config);
        match &pool {
            Ok(pool) => {
                let (got_members, got_outcome) = got.expect(&label);
                assert_eq!(got_outcome, pool.outcome, "{label}: outcome");
                let filled = || production_pool(t, &want.physical, &config, pool.fallback);
                let want_members = oracle_select(&label, pool, &config, filled);
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
        let want = oracle_rank(&ghz, device.topology(), &holes, selection);
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
    let want = oracle_rank(&swap, device.topology(), &cal, MapperSelection::Exhaustive);
    assert_eq!(want, Err(MapError::UnsupportedGate { name: "swap" }));
    assert_eq!(got.unwrap_err(), want.unwrap_err());
    let t = Transpiler::new(device.topology(), &cal);
    let Err(want) = oracle_pool(&t, &swap) else {
        panic!("a swap gate scores nowhere")
    };
    assert_eq!(
        diversify_detailed(&t, &swap, &EnsembleConfig::default()),
        Err(want)
    );

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
