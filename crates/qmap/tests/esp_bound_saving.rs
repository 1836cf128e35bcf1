//! The ESP bound's saving, pinned as exact work counts rather than a time.
//!
//! Transpiling ghz-12 onto the `compile-scaling` tokyo20 device used to
//! score all 1,051,542 swap-free embeddings to pick one. With the bound the
//! exhaustive search cuts every subtree whose ESP bound (the running
//! product times the best the rest of the embedding could add) falls below
//! the running best, so only a handful are scored, and the layout is still
//! the unbounded argmax. The counters are process-wide, so this binary holds
//! exactly one test: no concurrently running test can move them.

use edm_telemetry::metrics::registry;
use qcir::Qubit;
use qdevice::mapper::{self, MapperSelection};
use qdevice::{presets, DeviceModel};
use qmap::{esp, placement, Transpiler};

/// Embeddings of ghz-12's path into tokyo20 (every one was scored before).
const EMBEDDINGS: u64 = 1_051_542;

fn counter(name: &'static str) -> u64 {
    registry().counter(name, "").get()
}

#[test]
fn ghz_12_on_tokyo20_scores_a_handful_of_embeddings_and_keeps_the_argmax() {
    edm_telemetry::set_enabled(true);
    let device = DeviceModel::synthesize(presets::tokyo20(), qsim::rngstream::fork(0xED_2019, 100));
    let cal = device.calibration();
    let topology = device.topology();
    let ghz = qbench::registry::scaling_by_name("ghz-12").expect("known scaling circuit");

    let (scored, pruned, reached) = (
        counter("edm_qmap_esp_scored_total"),
        counter("edm_qmap_esp_pruned_total"),
        counter("edm_qdevice_vf2_embeddings_total"),
    );
    let out = Transpiler::new(topology, &cal)
        .transpile(&ghz)
        .expect("transpiles");
    let scored = counter("edm_qmap_esp_scored_total") - scored;
    let pruned = counter("edm_qmap_esp_pruned_total") - pruned;
    let reached = counter("edm_qdevice_vf2_embeddings_total") - reached;

    // The unbounded argmax: every embedding scored, first maximum kept.
    let basis = ghz.decomposed();
    let scorer = esp::Scorer::new(&basis, topology.num_qubits(), Qubit::index, &cal);
    let pattern = placement::interaction_topology(&basis);
    let mut best: Option<(f64, Vec<u32>)> = None;
    let mut all = 0u64;
    mapper::for_each_embedding(
        &pattern,
        topology,
        usize::MAX,
        MapperSelection::Exhaustive,
        |phi| {
            all += 1;
            let esp = scorer.score(|p| phi[p as usize]).expect("scores");
            if best.as_ref().is_none_or(|(top, _)| esp > *top) {
                best = Some((esp, phi.to_vec()));
            }
        },
    );
    let (esp, layout) = best.expect("ghz-12 embeds in tokyo20");
    assert_eq!(all, EMBEDDINGS);
    assert_eq!(out.initial_layout.as_slice(), &layout[..]);
    assert_eq!(out.swap_count, 0);
    assert_eq!(out.esp.to_bits(), esp.to_bits());

    // The search reached and scored 9 embeddings; 15,782 partial
    // placements were cut before they could become embeddings. Cutting
    // on the running product alone, without the completion bound on what
    // the unplaced vertices and edges can still add, cut 55,868.
    assert_eq!((scored, reached, pruned), (9, 9, 15_782));
}
