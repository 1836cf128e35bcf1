//! Criterion benchmarks for the parallel execution engine: serial
//! execution vs the pooled `(member × slice)` fan-out, at the paper's
//! scale (4 members × 16 384 total shots) and below.
//!
//! The engine is bit-identical across thread counts, so these benchmarks
//! measure pure scheduling overhead/speedup — every variant computes the
//! same histograms.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use edm_core::{Backend, BatchJob, EdmRunner, EnsembleConfig};
use qdevice::{presets, DeviceModel};
use qmap::Transpiler;
use qsim::NoisySimulator;

fn bench_parallel_engine(c: &mut Criterion) {
    let device = DeviceModel::synthesize(presets::melbourne14(), 7);
    let cal = device.calibration();
    let transpiler = Transpiler::new(device.topology(), &cal);
    let sim = NoisySimulator::from_device(&device);

    let bv = qbench::bv::bv(0b101, 3);
    let physical = transpiler.transpile(&bv).expect("transpiles").physical;

    // Single circuit: `run` (a one-job batch on the calling thread) vs
    // the same job over the pool at increasing worker caps.
    let mut group = c.benchmark_group("single_circuit_4096_shots");
    group.sample_size(10);
    group.bench_function("serial_run", |b| {
        b.iter(|| sim.run(black_box(&physical), 4096, 7).expect("runs"))
    });
    for threads in [1usize, 2, 4] {
        group.bench_function(format!("pooled_{threads}_threads"), |b| {
            b.iter(|| {
                let job = BatchJob::new(black_box(&physical), 4096, 7);
                sim.execute_batch(&[job], threads)
            })
        });
    }
    group.finish();

    // The acceptance-scale workload: 4 ensemble members × 16 384 total
    // shots, executed as one batch over the worker pool.
    let members = edm_core::build_ensemble(&transpiler, &bv, &EnsembleConfig::default())
        .expect("ensemble builds");
    let jobs: Vec<BatchJob<'_>> = members
        .iter()
        .enumerate()
        .map(|(i, m)| BatchJob::new(&m.physical, 4096, qsim::rngstream::fork(7, i as u64)))
        .collect();
    let mut group = c.benchmark_group("batch_4_members_16384_shots");
    group.sample_size(10);
    group.bench_function("serial_loop", |b| {
        b.iter(|| {
            jobs.iter()
                .map(|j| {
                    sim.run(black_box(j.circuit), j.shots, j.seed)
                        .expect("runs")
                })
                .collect::<Vec<_>>()
        })
    });
    for threads in [1usize, 2, 4] {
        group.bench_function(format!("pooled_{threads}_threads"), |b| {
            b.iter(|| sim.execute_batch(black_box(&jobs), threads))
        });
    }
    group.finish();

    // End-to-end EDM (transpile + diversify + execute + merge) at both
    // ends of the thread cap, through the public runner API.
    let mut group = c.benchmark_group("edm_run_end_to_end_16384_shots");
    group.sample_size(10);
    for threads in [1usize, 4] {
        group.bench_function(format!("{threads}_threads"), |b| {
            let runner =
                EdmRunner::new(&transpiler, &sim, EnsembleConfig::default()).with_threads(threads);
            b.iter(|| runner.run(black_box(&bv), 16_384, 7).expect("runs"))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_parallel_engine);
criterion_main!(benches);
