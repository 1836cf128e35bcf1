//! `edm_qmap_esp_scored_total` counts the embeddings scored by an ESP term
//! list and `edm_qmap_esp_pruned_total` what the ESP bound saved. The
//! uncapped placement search scores every embedding it reaches and cuts
//! the rest as partial placements; the capped candidate search reaches
//! every embedding the unbounded one does and either scores it or leaves
//! it unscored. The counters are process-wide, so this binary holds
//! exactly one test: no concurrently running test can move them.

use edm_core::{diversify, EnsembleConfig};
use edm_telemetry::metrics::registry;
use qcir::Circuit;
use qdevice::mapper::{self, MapperSelection};
use qdevice::{presets, DeviceModel, Topology};
use qmap::{placement, Transpiler};

/// `(scored, pruned, reached)`: the ESP counters and the embeddings VF2
/// handed out.
fn counts() -> [u64; 3] {
    [
        "edm_qmap_esp_scored_total",
        "edm_qmap_esp_pruned_total",
        "edm_qdevice_vf2_embeddings_total",
    ]
    .map(|name| registry().counter(name, "").get())
}

fn since(before: [u64; 3]) -> [u64; 3] {
    let now = counts();
    [0, 1, 2].map(|i| now[i] - before[i])
}

/// The footprint pattern `diversify` enumerates: the physical circuit's
/// active qubits, re-indexed densely.
fn footprint(physical: &Circuit, num_qubits: u32) -> Topology {
    let active: Vec<u32> = physical.active_qubits().iter().map(|q| q.index()).collect();
    let mut pos = vec![u32::MAX; num_qubits as usize];
    for (i, &q) in active.iter().enumerate() {
        pos[q as usize] = i as u32;
    }
    let edges: Vec<(u32, u32)> = physical
        .interaction_edges()
        .into_iter()
        .map(|(a, b)| (pos[a.usize()], pos[b.usize()]))
        .collect();
    Topology::new(active.len() as u32, &edges)
}

#[test]
fn transpile_and_diversify_account_for_each_embedding_once() {
    edm_telemetry::set_enabled(true);
    let device = DeviceModel::synthesize(presets::melbourne14(), 31);
    let cal = device.calibration();
    let topology = device.topology();
    let transpiler = Transpiler::new(topology, &cal);
    let config = EnsembleConfig::default();
    let mut ghz = Circuit::new(4, 4);
    ghz.h(0).cx(0, 1).cx(1, 2).cx(2, 3).measure_all();

    let before = counts();
    let baseline = transpiler.transpile(&ghz).expect("transpiles");
    let [placed, cut, reached] = since(before);
    let before = counts();
    let members = diversify(&transpiler, &baseline.physical, &config).expect("diversifies");
    let [ranked, unscored, visited] = since(before);
    assert_eq!(members.len(), config.size);

    let placements = mapper::enumerate_embeddings(
        &placement::interaction_topology(&ghz.decomposed()),
        topology,
        usize::MAX,
        MapperSelection::Auto,
    );
    let candidates = mapper::enumerate_embeddings(
        &footprint(&baseline.physical, topology.num_qubits()),
        topology,
        config.max_candidates,
        MapperSelection::Auto,
    );
    assert!(placements.is_complete() && candidates.is_complete());
    assert!(!placements.embeddings.is_empty());
    // The uncapped placement search scores what it reaches and cuts the
    // rest before reaching it.
    assert_eq!(placed, reached);
    assert!(placed < placements.embeddings.len() as u64 && cut > 0);
    // The capped candidate search reaches every embedding once.
    assert_eq!(visited, candidates.embeddings.len() as u64);
    assert_eq!(ranked + unscored, visited);
    assert!(unscored > 0);
}
