//! `edm_qmap_esp_scored_total` counts the embeddings scored by an ESP term
//! list, `edm_qmap_esp_pruned_total` what the ESP bound saved and
//! `edm_qdevice_vf2_embeddings_total` the core embeddings the exhaustive
//! search reached. Both the placement search and the candidate search run
//! uncapped, cutting on their pool's bar, so each scores exactly what it
//! reaches; the candidate search reaches one embedding per core embedding
//! above its floor, not every idle-qubit variant. (A pool filled with
//! next-best completions would score those too; every pool here holds at
//! least the ensemble size.) The counts of the
//! `compile-scaling` footprints are pinned exactly. The counters are
//! process-wide, so this binary holds exactly one test: no concurrently
//! running test can move them.

use edm_core::{diversify, EnsembleConfig};
use edm_telemetry::metrics::registry;
use qcir::Circuit;
use qdevice::mapper::{self, MapperSelection};
use qdevice::{presets, Calibration, DeviceModel, Topology};
use qmap::{placement, Transpiler};

/// `(scored, pruned, reached)`: the ESP counters and the embeddings the
/// exhaustive search handed out.
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

/// The counts of one transpile and of the diversify of its result.
fn transpile_and_diversify(
    topology: &Topology,
    cal: &Calibration,
    circuit: &Circuit,
) -> ([u64; 3], [u64; 3]) {
    let transpiler = Transpiler::new(topology, cal);
    let before = counts();
    let baseline = transpiler.transpile(circuit).expect("transpiles");
    let placed = since(before);
    let before = counts();
    let config = EnsembleConfig::default();
    let members = diversify(&transpiler, &baseline.physical, &config).expect("diversifies");
    assert_eq!(members.len(), config.size);
    (placed, since(before))
}

/// The devices of the `compile-scaling` benchmark items.
fn scaling_device(preset: Topology, k: u64) -> DeviceModel {
    DeviceModel::synthesize(preset, qsim::rngstream::fork(0xED_2019, 100 + k))
}

#[test]
fn transpile_and_diversify_score_what_they_reach() {
    edm_telemetry::set_enabled(true);
    let device = DeviceModel::synthesize(presets::melbourne14(), 31);
    let cal = device.calibration();
    let topology = device.topology();
    let mut ghz = Circuit::new(4, 4);
    ghz.h(0).cx(0, 1).cx(1, 2).cx(2, 3).measure_all();

    let ([placed, cut, reached], [ranked, unscored, visited]) =
        transpile_and_diversify(topology, &cal, &ghz);
    let placements = mapper::enumerate_embeddings(
        &placement::interaction_topology(&ghz.decomposed()),
        topology,
        usize::MAX,
        MapperSelection::Auto,
    );
    assert!(placements.is_complete() && !placements.embeddings.is_empty());
    // Each search scores what it reaches and cuts the rest before
    // reaching it.
    assert_eq!((placed, ranked), (reached, visited));
    assert!(placed < placements.embeddings.len() as u64 && cut > 0);
    assert!(ranked < placements.embeddings.len() as u64 && unscored > 0);

    // The compile-scaling items, as `(scored, pruned, reached)` for the
    // transpile and then the diversify. When the candidate search was
    // capped at 200,000 embeddings, cut nothing and enumerated every
    // idle-qubit variant, the diversify rows read (84, 199_916, 200_000)
    // for ghz-12, (126, 40_114, 40_240) for qaoa-ring-10 and
    // (17_294, 182_706, 200_000) for bv-6-sparse.
    let tokyo = scaling_device(presets::tokyo20(), 0);
    let melbourne = scaling_device(presets::melbourne14(), 2);
    let scaling = |name: &str| qbench::registry::scaling_by_name(name).expect("known");
    let rows = [
        (
            "ghz-12@tokyo20",
            &tokyo,
            scaling("ghz-12"),
            [9, 15_782, 9],
            [181, 36_569, 181],
        ),
        (
            "qaoa-ring-10@tokyo20",
            &tokyo,
            scaling("qaoa-ring-10"),
            [24, 16_456, 24],
            [126, 26_398, 126],
        ),
        (
            "bv-6-sparse@melbourne14",
            &melbourne,
            qbench::bv::bv(0b100100, 6),
            [34, 25, 34],
            [42, 17, 42],
        ),
    ];
    for (label, device, circuit, transpile, diversify) in rows {
        let cal = device.calibration();
        let got = transpile_and_diversify(device.topology(), &cal, &circuit);
        assert_eq!(got, (transpile, diversify), "{label}");
    }
}
