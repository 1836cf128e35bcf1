//! Criterion micro-benchmarks for the transpiler: placement ranking and
//! SWAP routing under both cost models (the paper's reliability-aware
//! routing vs the swap-count baseline), plus the two largest ESP rankings
//! of the compile path — the best swap-free placement of ghz-12 over
//! tokyo20's ~10^6 embeddings, and the ensemble candidate pool of a
//! sparse-secret BV on melbourne14.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use edm_core::{diversify, EnsembleConfig};
use qbench::registry;
use qdevice::{presets, DeviceModel};
use qmap::{placement, MapperSelection, RoutingStrategy, Transpiler};

fn bench_router(c: &mut Criterion) {
    let device = DeviceModel::synthesize(presets::melbourne14(), 7);
    let cal = device.calibration();

    let mut group = c.benchmark_group("transpile");
    for name in ["bv-6", "qaoa-6", "decode-24"] {
        let bench = registry::by_name(name).expect("registered");
        for (label, strategy) in [
            ("reliability", RoutingStrategy::ReliabilityAware),
            ("swap_count", RoutingStrategy::SwapCount),
        ] {
            let t = Transpiler::new(device.topology(), &cal).with_strategy(strategy);
            group.bench_function(format!("{name}_{label}"), |b| {
                b.iter(|| t.transpile(black_box(&bench.circuit)).expect("transpiles"))
            });
        }
    }
    let bv6 = registry::by_name("bv-6")
        .expect("registered")
        .circuit
        .decomposed();
    group.bench_function("best_placement_bv6", |b| {
        b.iter(|| {
            placement::best_swap_free_placement_with(
                black_box(&bv6),
                device.topology(),
                &cal,
                MapperSelection::Auto,
            )
        })
    });
    group.finish();
}

fn bench_ranking(c: &mut Criterion) {
    let mut group = c.benchmark_group("ranking");

    let tokyo = DeviceModel::synthesize(presets::tokyo20(), 7);
    let cal = tokyo.calibration();
    let ghz12 = registry::scaling_by_name("ghz-12")
        .expect("registered")
        .decomposed();
    group.bench_function("best_placement_ghz12_tokyo20", |b| {
        b.iter(|| {
            placement::best_swap_free_placement_with(
                black_box(&ghz12),
                tokyo.topology(),
                &cal,
                MapperSelection::Auto,
            )
            .expect("ranks")
        })
    });

    let melbourne = DeviceModel::synthesize(presets::melbourne14(), 7);
    let cal = melbourne.calibration();
    let t = Transpiler::new(melbourne.topology(), &cal);
    let baseline = t
        .transpile(&qbench::bv::bv(0b100100, 6))
        .expect("transpiles");
    let config = EnsembleConfig::default();
    group.bench_function("diversify_bv6_sparse_melbourne14", |b| {
        b.iter(|| diversify(&t, black_box(&baseline.physical), &config).expect("diversifies"))
    });
    group.finish();
}

criterion_group!(benches, bench_router, bench_ranking);
criterion_main!(benches);
