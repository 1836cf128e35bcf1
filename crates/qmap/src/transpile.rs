//! The end-to-end transpilation pipeline.
//!
//! `lower → place → route → lower SWAPs → score` — the full variation-aware
//! compilation flow the paper's baseline uses, with a hook
//! ([`Transpiler::transpile_with_layout`]) for EDM to re-compile the same
//! program under each of its diverse initial mappings.

use crate::{esp, placement, router, Layout, MapError, RoutingStrategy};
use qcir::Circuit;
use qdevice::drift::Quarantine;
use qdevice::mapper::MapperSelection;
use qdevice::{Calibration, Topology};
use serde::{Deserialize, Serialize};

/// The result of transpiling a logical circuit onto a device.
///
/// Serializable so compiled artifacts can be persisted or cached (the
/// `edm-serve` compilation cache stores ensembles of these per circuit
/// fingerprint).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TranspiledCircuit {
    /// Device-basis physical circuit (single-qubit gates, coupled CX,
    /// measurements), ready for the noisy simulator.
    pub physical: Circuit,
    /// The initial logical-to-physical assignment.
    pub initial_layout: Layout,
    /// The assignment after all routing SWAPs.
    pub final_layout: Layout,
    /// Number of SWAPs the router inserted.
    pub swap_count: usize,
    /// Compile-time Estimated Success Probability of the physical circuit.
    pub esp: f64,
}

/// Variation-aware transpiler for a fixed device and calibration.
///
/// # Examples
///
/// ```
/// use qcir::Circuit;
/// use qdevice::{presets, DeviceModel};
/// use qmap::{RoutingStrategy, Transpiler};
///
/// let device = DeviceModel::synthesize(presets::melbourne14(), 11);
/// let cal = device.calibration();
/// let t = Transpiler::new(device.topology(), &cal)
///     .with_strategy(RoutingStrategy::ReliabilityAware);
///
/// let mut c = Circuit::new(3, 3);
/// c.h(0);
/// c.cx(0, 1);
/// c.cx(1, 2);
/// c.measure_all();
/// let out = t.transpile(&c)?;
/// assert_eq!(out.swap_count, 0); // a path embeds swap-free in melbourne
/// # Ok::<(), qmap::MapError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Transpiler<'a> {
    topology: &'a Topology,
    calibration: &'a Calibration,
    strategy: RoutingStrategy,
    /// Embedding-engine selection (see [`Transpiler::with_mapper`]).
    mapper: MapperSelection,
    /// Drift quarantine, if any (see [`Transpiler::with_quarantine`]).
    quarantine: Option<Quarantine>,
    /// The topology with quarantined links masked out, kept alongside the
    /// borrowed full topology so `effective_topology` is allocation-free.
    masked: Option<Topology>,
}

impl<'a> Transpiler<'a> {
    /// Creates a transpiler targeting `topology` under `calibration`.
    ///
    /// # Panics
    ///
    /// Panics if the calibration covers a different number of qubits than
    /// the topology.
    pub fn new(topology: &'a Topology, calibration: &'a Calibration) -> Self {
        assert_eq!(
            topology.num_qubits(),
            calibration.num_qubits(),
            "calibration must cover the topology"
        );
        Transpiler {
            topology,
            calibration,
            strategy: RoutingStrategy::default(),
            mapper: MapperSelection::default(),
            quarantine: None,
            masked: None,
        }
    }

    /// Makes placement and routing avoid drift-quarantined qubits and
    /// links (see `qdevice::drift`): embeddings are enumerated on the
    /// masked topology, measure-only qubits are never assigned a
    /// quarantined qubit, and the greedy mapper places on the masked
    /// device.
    ///
    /// Quarantine is advisory, not absolute: whenever honoring it would
    /// leave *zero* viable mappings (the pattern no longer embeds, the
    /// masked graph is too disconnected to route), the transpiler falls
    /// back to the full topology — a mapping on suspect hardware beats no
    /// mapping at all. An empty quarantine clears any previous one.
    pub fn with_quarantine(mut self, quarantine: &Quarantine) -> Self {
        if quarantine.is_empty() {
            self.quarantine = None;
            self.masked = None;
        } else {
            self.masked = Some(quarantine.mask(self.topology));
            self.quarantine = Some(quarantine.clone());
        }
        self
    }

    /// Selects the routing cost model.
    pub fn with_strategy(mut self, strategy: RoutingStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Selects the budgets of the one embedding search behind swap-free
    /// placement and the EDM candidate pool ([`placement::rank_embeddings`]).
    /// The default, [`MapperSelection::Auto`], searches devices up to 20
    /// qubits exhaustively, branch-and-bound on ESP, and gives larger
    /// heavy-hex devices the filtered depth-limited search's budgets.
    pub fn with_mapper(mut self, mapper: MapperSelection) -> Self {
        self.mapper = mapper;
        self
    }

    /// The configured embedding-engine selection (possibly `Auto`).
    pub fn mapper_selection(&self) -> MapperSelection {
        self.mapper
    }

    /// The device topology this transpiler targets.
    pub fn topology(&self) -> &'a Topology {
        self.topology
    }

    /// The calibration this transpiler optimizes against.
    pub fn calibration(&self) -> &'a Calibration {
        self.calibration
    }

    /// The active drift quarantine, if one was installed.
    pub fn quarantine(&self) -> Option<&Quarantine> {
        self.quarantine.as_ref()
    }

    /// The topology mapping actually targets: the quarantine-masked graph
    /// when a quarantine is active, otherwise the full device.
    pub fn effective_topology(&self) -> &Topology {
        self.masked.as_ref().unwrap_or(self.topology)
    }

    /// Transpiles with an automatically chosen variation-aware placement:
    /// the best swap-free embedding when one exists, otherwise the greedy
    /// variation-aware placement followed by routing.
    ///
    /// # Errors
    ///
    /// Propagates placement and routing failures (width, routability).
    pub fn transpile(&self, circuit: &Circuit) -> Result<TranspiledCircuit, MapError> {
        let _span = edm_telemetry::trace::span("transpile");
        edm_telemetry::histogram!(
            "edm_qmap_transpile_us",
            "Wall time of one Transpiler::transpile call"
        )
        .time(|| self.transpile_inner(circuit))
    }

    fn transpile_inner(&self, circuit: &Circuit) -> Result<TranspiledCircuit, MapError> {
        let basis = circuit.decomposed();
        let layout = match self.swap_free_layout(&basis)? {
            Some(layout) => layout,
            None => self.greedy_layout(&basis)?,
        };
        self.transpile_with_layout(circuit, &layout)
    }

    /// The ESP-best swap-free placement honoring the quarantine, if any
    /// exists: the masked graph keeps the interacting qubits off
    /// quarantined links, and no measure-only program qubit is assigned a
    /// quarantined (now isolated) qubit.
    fn swap_free_layout(&self, basis: &Circuit) -> Result<Option<Layout>, MapError> {
        placement::best_placement(
            basis,
            self.effective_topology(),
            self.calibration,
            self.mapper,
            self.quarantine.as_ref(),
        )
    }

    /// Greedy variation-aware placement honoring the quarantine when
    /// possible, falling back to the full device when the masked one can't
    /// host the circuit (so compilation never fails just because drift
    /// shrank the device).
    fn greedy_layout(&self, basis: &Circuit) -> Result<Layout, MapError> {
        let Some(quarantine) = &self.quarantine else {
            return placement::greedy_placement(basis, self.topology, self.calibration);
        };
        match placement::greedy_placement(basis, self.effective_topology(), self.calibration) {
            Ok(layout) if quarantine.allows_footprint(&layout.physical_qubits()) => Ok(layout),
            _ => placement::greedy_placement(basis, self.topology, self.calibration),
        }
    }

    /// Transpiles with a caller-supplied initial layout (EDM's per-member
    /// re-compilation step).
    ///
    /// # Errors
    ///
    /// Propagates routing failures; also fails if the layout does not cover
    /// the circuit.
    pub fn transpile_with_layout(
        &self,
        circuit: &Circuit,
        layout: &Layout,
    ) -> Result<TranspiledCircuit, MapError> {
        let basis = circuit.decomposed();
        let route = |topology: &Topology| {
            router::route(&basis, topology, self.calibration, layout, self.strategy)
        };
        let routed = match route(self.effective_topology()) {
            Ok(routed) => routed,
            // Quarantine may disconnect the masked graph; route on the full
            // device rather than fail compilation outright.
            Err(_) if self.masked.is_some() => route(self.topology)?,
            Err(e) => return Err(e),
        };
        let physical = routed.circuit.decomposed();
        let esp = esp::esp(&physical, self.calibration)?;
        Ok(TranspiledCircuit {
            physical,
            initial_layout: layout.clone(),
            final_layout: routed.final_layout,
            swap_count: routed.swap_count,
            esp,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdevice::{presets, DeviceModel};
    use qsim::ideal;

    fn setup() -> DeviceModel {
        DeviceModel::synthesize(presets::melbourne14(), 31)
    }

    fn ghz(n: u32) -> Circuit {
        let mut c = Circuit::new(n, n);
        c.h(0);
        for i in 0..n - 1 {
            c.cx(i, i + 1);
        }
        c.measure_all();
        c
    }

    #[test]
    fn path_circuit_transpiles_swap_free() {
        let d = setup();
        let cal = d.calibration();
        let t = Transpiler::new(d.topology(), &cal);
        let out = t.transpile(&ghz(5)).unwrap();
        assert_eq!(out.swap_count, 0);
        assert!(out.esp > 0.0 && out.esp < 1.0);
        assert_eq!(out.physical.num_qubits(), 14);
    }

    #[test]
    fn transpiled_circuit_is_simulatable_and_correct() {
        let d = setup();
        let cal = d.calibration();
        let t = Transpiler::new(d.topology(), &cal);
        let c = ghz(4);
        let out = t.transpile(&c).unwrap();
        // Physical circuit has the same ideal outcome distribution.
        let a = ideal::probabilities(&c).unwrap();
        let b = ideal::probabilities(&out.physical).unwrap();
        assert_eq!(a.len(), b.len());
        for (k, p) in &a {
            assert!((p - b[k]).abs() < 1e-9);
        }
    }

    #[test]
    fn star_circuit_needs_swaps_or_careful_placement() {
        let d = setup();
        let cal = d.calibration();
        let t = Transpiler::new(d.topology(), &cal);
        // Degree-4 hub cannot embed; greedy + routing must handle it.
        let mut c = Circuit::new(5, 5);
        c.cx(0, 1).cx(0, 2).cx(0, 3).cx(0, 4).measure_all();
        let out = t.transpile(&c).unwrap();
        assert!(out.swap_count > 0);
        // All CX on edges.
        for g in out.physical.iter() {
            if g.is_two_qubit() {
                let q = g.qubits();
                assert!(d.topology().has_edge(q[0].index(), q[1].index()));
            }
        }
        // Semantics preserved.
        let a = ideal::outcome(&c).unwrap();
        let b = ideal::outcome(&out.physical).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn three_qubit_gates_are_lowered() {
        let d = setup();
        let cal = d.calibration();
        let t = Transpiler::new(d.topology(), &cal);
        let mut c = Circuit::new(3, 3);
        c.ccx(0, 1, 2).measure_all();
        let out = t.transpile(&c).unwrap();
        assert_eq!(out.physical.count_3q(), 0);
        assert!(out.physical.count_cx() >= 6);
    }

    #[test]
    fn explicit_layout_is_respected() {
        let d = setup();
        let cal = d.calibration();
        let t = Transpiler::new(d.topology(), &cal);
        let layout = Layout::from_physical(vec![5, 4, 3], 14);
        let out = t.transpile_with_layout(&ghz(3), &layout).unwrap();
        assert_eq!(out.initial_layout, layout);
        assert_eq!(out.swap_count, 0);
        let used: Vec<u32> = out
            .physical
            .active_qubits()
            .iter()
            .map(|q| q.index())
            .collect();
        assert_eq!(used, vec![3, 4, 5]);
    }

    #[test]
    fn auto_placement_beats_or_matches_identity_layout() {
        let d = setup();
        let cal = d.calibration();
        let t = Transpiler::new(d.topology(), &cal);
        let c = ghz(4);
        let auto = t.transpile(&c).unwrap();
        let fixed = t
            .transpile_with_layout(&c, &Layout::identity(4, 14))
            .unwrap();
        assert!(auto.esp >= fixed.esp - 1e-12);
    }

    #[test]
    fn transpiled_circuit_serde_roundtrip() {
        let d = setup();
        let cal = d.calibration();
        let t = Transpiler::new(d.topology(), &cal);
        let out = t.transpile(&ghz(4)).unwrap();
        let json = serde_json::to_string(&out).unwrap();
        let restored: TranspiledCircuit = serde_json::from_str(&json).unwrap();
        assert_eq!(restored, out);
        assert_eq!(restored.esp.to_bits(), out.esp.to_bits());
    }

    #[test]
    fn swap_count_strategy_available() {
        let d = setup();
        let cal = d.calibration();
        let t = Transpiler::new(d.topology(), &cal).with_strategy(RoutingStrategy::SwapCount);
        let out = t.transpile(&ghz(3)).unwrap();
        assert_eq!(out.swap_count, 0);
    }
}

#[cfg(test)]
mod mapper_tests {
    use super::*;
    use qdevice::fdls::FdlsConfig;
    use qdevice::mapper::{self, SearchOutcome};
    use qdevice::{presets, DeviceModel};

    /// The embeddings `t`'s engine hands to ESP scoring for `circuit`.
    fn pool(t: &Transpiler<'_>, circuit: &Circuit) -> (Vec<Vec<u32>>, SearchOutcome) {
        let pattern = placement::interaction_topology(&circuit.decomposed());
        let mut seen = Vec::new();
        let outcome = mapper::for_each_embedding(
            &pattern,
            t.effective_topology(),
            usize::MAX,
            t.mapper_selection(),
            |phi| seen.push(phi.to_vec()),
        );
        (seen, outcome)
    }

    fn path(n: u32) -> Circuit {
        let mut c = Circuit::new(n, n);
        for i in 0..n - 1 {
            c.cx(i, i + 1);
        }
        c.measure_all();
        c
    }

    #[test]
    fn swap_free_pool_is_plentiful() {
        let d = DeviceModel::synthesize(presets::melbourne14(), 31);
        let cal = d.calibration();
        let (seen, outcome) = pool(&Transpiler::new(d.topology(), &cal), &path(4));
        assert_eq!(outcome, SearchOutcome::Complete);
        assert!(seen.len() >= 8, "only {} embeddings", seen.len());
    }

    #[test]
    fn auto_mapper_matches_exhaustive_on_small_devices() {
        // The Auto/Exhaustive equivalence EDM's small-device results rely
        // on: the same embeddings in the same order, so the same ESP
        // ranking and the same chosen layout, bit for bit.
        let d = DeviceModel::synthesize(presets::melbourne14(), 31);
        let cal = d.calibration();
        let auto = Transpiler::new(d.topology(), &cal);
        let vf2 = Transpiler::new(d.topology(), &cal).with_mapper(MapperSelection::Exhaustive);
        let (a, outcome) = pool(&auto, &path(4));
        assert_eq!(outcome, SearchOutcome::Complete);
        assert!(!a.is_empty());
        assert_eq!((a, outcome), pool(&vf2, &path(4)));
        let (ta, tb) = (auto.transpile(&path(4)), vf2.transpile(&path(4)));
        assert_eq!(ta, tb);
        assert_eq!(ta.unwrap().esp.to_bits(), tb.unwrap().esp.to_bits());
    }

    #[test]
    fn filtered_mapper_transpiles_on_eagle() {
        let d = DeviceModel::synthesize(presets::eagle127(), 7);
        let cal = d.calibration();
        let t = Transpiler::new(d.topology(), &cal); // Auto -> Filtered at 127q
        let out = t.transpile(&path(10)).unwrap();
        assert_eq!(out.swap_count, 0); // a 10-path embeds swap-free
        assert!(out.esp > 0.0);
        assert_eq!(out.physical.num_qubits(), 127);
    }

    #[test]
    fn explicit_filtered_pool_is_marked_truncated_when_budget_bites() {
        let d = DeviceModel::synthesize(presets::eagle127(), 7);
        let cal = d.calibration();
        let tiny = FdlsConfig {
            node_budget: 64,
            ..FdlsConfig::default()
        };
        let t = Transpiler::new(d.topology(), &cal).with_mapper(MapperSelection::Filtered(tiny));
        let (_, outcome) = pool(&t, &path(6));
        assert!(matches!(outcome, SearchOutcome::Truncated { .. }));
    }
}

#[cfg(test)]
mod quarantine_tests {
    use super::*;
    use qdevice::drift::Quarantine;
    use qdevice::{presets, DeviceModel};
    use qsim::ideal;

    fn setup() -> DeviceModel {
        DeviceModel::synthesize(presets::melbourne14(), 31)
    }

    fn ghz(n: u32) -> Circuit {
        let mut c = Circuit::new(n, n);
        c.h(0);
        for i in 0..n - 1 {
            c.cx(i, i + 1);
        }
        c.measure_all();
        c
    }

    #[test]
    fn quarantined_qubits_are_avoided() {
        let d = setup();
        let cal = d.calibration();
        let mut q = Quarantine::new();
        q.add_qubit(3);
        q.add_qubit(10);
        let t = Transpiler::new(d.topology(), &cal).with_quarantine(&q);
        assert_eq!(t.quarantine().unwrap().num_qubits(), 2);
        assert!(t.effective_topology().num_qubits() == 14);
        assert!(!t.effective_topology().has_edge(3, 4));
        let out = t.transpile(&ghz(4)).unwrap();
        for qubit in out.physical.active_qubits() {
            assert!(
                !q.contains_qubit(qubit.index()),
                "placed on quarantined qubit {}",
                qubit.index()
            );
        }
        // Semantics are untouched by the detour.
        assert_eq!(
            ideal::outcome(&out.physical).unwrap(),
            ideal::outcome(&ghz(4)).unwrap()
        );
    }

    #[test]
    fn impossible_quarantine_falls_back_to_full_device() {
        let d = setup();
        let cal = d.calibration();
        // Quarantine every qubit: honoring it strictly would leave nothing.
        let mut q = Quarantine::new();
        for qubit in 0..14 {
            q.add_qubit(qubit);
        }
        let t = Transpiler::new(d.topology(), &cal).with_quarantine(&q);
        // Compilation must still succeed (availability over purity).
        let out = t.transpile(&ghz(4)).unwrap();
        assert!(out.esp > 0.0);
    }

    #[test]
    fn empty_quarantine_is_a_no_op() {
        let d = setup();
        let cal = d.calibration();
        let t = Transpiler::new(d.topology(), &cal).with_quarantine(&Quarantine::new());
        assert!(t.quarantine().is_none());
        let reference = Transpiler::new(d.topology(), &cal);
        assert_eq!(
            t.transpile(&ghz(4)).unwrap(),
            reference.transpile(&ghz(4)).unwrap()
        );
    }

    #[test]
    fn quarantine_changes_the_chosen_mapping_when_it_hits_the_best() {
        let d = setup();
        let cal = d.calibration();
        let reference = Transpiler::new(d.topology(), &cal);
        let best = reference.transpile(&ghz(4)).unwrap();
        // Quarantine the best mapping's first qubit; the detour must avoid it.
        let first = best.initial_layout.physical_qubits()[0];
        let mut q = Quarantine::new();
        q.add_qubit(first);
        let detour = Transpiler::new(d.topology(), &cal)
            .with_quarantine(&q)
            .transpile(&ghz(4))
            .unwrap();
        assert!(!detour.initial_layout.physical_qubits().contains(&first));
        // The detour pays at most a modest ESP price on a 14-qubit device.
        assert!(detour.esp > 0.0);
    }
}
