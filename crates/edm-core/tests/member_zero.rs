//! The ensemble is the top of the ESP ranking the baseline is the top 1
//! of: on every swap-free circuit of an exhaustively searched device,
//! member 0's ESP is at least the transpiler baseline's. Covered: the IST
//! suite on the paper devices, the `compile-scaling` items, and random
//! interaction patterns with measure-only qubits.

use edm_core::{diversify, EnsembleConfig};
use proptest::prelude::*;
use qcir::Circuit;
use qdevice::{presets, Calibration, DeviceModel, Topology};
use qmap::Transpiler;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Transpiles `circuit`; when no SWAP was needed, diversifies the result
/// and checks member 0 against the baseline. Returns whether it checked.
fn check(label: &str, topology: &Topology, cal: &Calibration, circuit: &Circuit) -> bool {
    let t = Transpiler::new(topology, cal);
    let baseline = t.transpile(circuit).expect(label);
    if baseline.swap_count > 0 {
        return false;
    }
    let members = diversify(&t, &baseline.physical, &EnsembleConfig::default()).expect(label);
    assert!(
        members[0].esp >= baseline.esp,
        "{label}: member 0 ESP {} below the baseline's {}",
        members[0].esp,
        baseline.esp
    );
    true
}

#[test]
fn ist_suite_on_the_paper_devices() {
    let suite = qbench::registry::ist_suite();
    let mut checked = 0;
    for d in 0..8u64 {
        let seed = qsim::rngstream::fork(0xED_2019, d);
        let device = edm_bench::setup::paper_device(seed);
        let cal = edm_bench::experiments::compile_view(
            &device,
            edm_bench::experiments::DRIFT_SIGMA,
            seed,
        );
        for b in &suite {
            let label = format!("{}@melbourne14#{d}", b.name);
            checked += usize::from(check(&label, device.topology(), &cal, &b.circuit));
        }
    }
    assert!(checked > 0);
}

#[test]
fn compile_scaling_items() {
    let device = |preset: Topology, k: u64| {
        DeviceModel::synthesize(preset, qsim::rngstream::fork(0xED_2019, 100 + k))
    };
    let tokyo = device(presets::tokyo20(), 0);
    let melbourne = device(presets::melbourne14(), 2);
    let scaling = |name: &str| qbench::registry::scaling_by_name(name).expect("known");
    for (label, device, circuit) in [
        ("qaoa-ring-10@tokyo20", &tokyo, scaling("qaoa-ring-10")),
        ("ghz-12@tokyo20", &tokyo, scaling("ghz-12")),
        (
            "bv-6-sparse@melbourne14",
            &melbourne,
            qbench::bv::bv(0b100100, 6),
        ),
    ] {
        let cal = device.calibration();
        assert!(
            check(label, device.topology(), &cal, &circuit),
            "{label} routes"
        );
    }
}

/// A path, star or ring of `core` qubits plus `idle` measure-only ones,
/// with random 1q gates; each edge carries one or two CX.
fn circuit(shape: usize, core: u32, idle: u32, rng: &mut ChaCha8Rng) -> Circuit {
    let edges: Vec<(u32, u32)> = match shape {
        0 => (1..core).map(|i| (i - 1, i)).collect(),
        1 => (1..core).map(|i| (0, i)).collect(),
        _ => (0..core).map(|i| (i, (i + 1) % core)).collect(),
    };
    let n = core + idle;
    let mut c = Circuit::new(n, n);
    for q in 0..n {
        for _ in 0..rng.gen_range(0..3u32) {
            c.h(q);
        }
    }
    for &(a, b) in &edges {
        for _ in 0..rng.gen_range(1..3u32) {
            c.cx(a, b);
        }
    }
    c.measure_all();
    c
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_patterns_with_idle_qubits(
        (shape, core, idle) in (0usize..3, 2u32..6, 0u32..4),
        (preset, seed) in (0usize..2, 0u64..1_000_000),
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let core = if shape == 2 { core.max(3) } else { core };
        let c = circuit(shape, core, idle, &mut rng);
        let preset = [presets::melbourne14(), presets::tokyo20()][preset].clone();
        let device = DeviceModel::synthesize(preset, seed);
        let cal = device.calibration();
        check(&format!("shape {shape} core {core}+{idle} seed {seed}"), device.topology(), &cal, &c);
    }
}
