//! Criterion micro-benchmarks for the noisy simulator: shot throughput
//! under different channel configurations and widths.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use qbench::registry;
use qdevice::{presets, DeviceModel};
use qmap::Transpiler;
use qsim::{NoisySimulator, SimOptions};

fn bench_simulator(c: &mut Criterion) {
    let device = DeviceModel::synthesize(presets::melbourne14(), 7);
    let cal = device.calibration();
    let transpiler = Transpiler::new(device.topology(), &cal);

    let mut group = c.benchmark_group("simulate_1024_shots");
    group.sample_size(20);
    for name in ["bv-6", "qaoa-6", "decode-24"] {
        let bench = registry::by_name(name).expect("registered");
        let physical = transpiler
            .transpile(&bench.circuit)
            .expect("transpiles")
            .physical;
        group.bench_function(format!("{name}_all_channels"), |b| {
            let sim = NoisySimulator::from_device(&device);
            b.iter(|| sim.run(black_box(&physical), 1024, 7).expect("runs"))
        });
        group.bench_function(format!("{name}_iid_only"), |b| {
            let sim = NoisySimulator::from_device(&device).with_options(SimOptions::iid_only());
            b.iter(|| sim.run(black_box(&physical), 1024, 7).expect("runs"))
        });
        group.bench_function(format!("{name}_noiseless"), |b| {
            let sim = NoisySimulator::from_device(&device).with_options(SimOptions::none());
            b.iter(|| sim.run(black_box(&physical), 1024, 7).expect("runs"))
        });
    }
    group.finish();

    let mut group = c.benchmark_group("density_vs_trajectory");
    group.sample_size(10);
    let bench = registry::by_name("greycode").expect("registered");
    let physical = transpiler
        .transpile(&bench.circuit)
        .expect("transpiles")
        .physical;
    group.bench_function("density_exact_greycode", |b| {
        let sim = qsim::DensitySimulator::from_device(&device);
        b.iter(|| sim.exact_distribution(black_box(&physical)).expect("fits"))
    });
    group.bench_function("trajectory_4096_greycode", |b| {
        let sim = NoisySimulator::from_device(&device);
        b.iter(|| sim.run(black_box(&physical), 4096, 7).expect("runs"))
    });
    group.bench_function("trajectory_4096_parallel4", |b| {
        let sim = NoisySimulator::from_device(&device);
        b.iter(|| {
            sim.run_batch(
                &[qsim::parallel::BatchJob::new(black_box(&physical), 4096, 7)],
                4,
            )
        })
    });
    group.finish();

    let mut group = c.benchmark_group("ideal_probabilities");
    for name in ["bv-6", "qaoa-7", "decode-24"] {
        let bench = registry::by_name(name).expect("registered");
        group.bench_function(name, |b| {
            b.iter(|| qsim::ideal::probabilities(black_box(&bench.circuit)).expect("valid"))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_simulator);
criterion_main!(benches);
