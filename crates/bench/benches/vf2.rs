//! Criterion micro-benchmarks for the VF2 subgraph-isomorphism engine —
//! the cost of EDM step 2 (enumerating candidate mappings).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use qdevice::mapper::{self, EmbeddingSet, MapperSelection};
use qdevice::{presets, Topology};

fn vf2(pattern: &Topology, target: &Topology, max_results: usize) -> EmbeddingSet {
    mapper::enumerate_embeddings(pattern, target, max_results, MapperSelection::Exhaustive)
}

fn bench_vf2(c: &mut Criterion) {
    let melbourne = presets::melbourne14();
    let tokyo = presets::tokyo20();

    let mut group = c.benchmark_group("vf2");
    for n in [4u32, 6, 8] {
        let path = presets::line(n);
        group.bench_function(format!("path{n}_into_melbourne"), |b| {
            b.iter(|| vf2(black_box(&path), black_box(&melbourne), usize::MAX))
        });
    }
    let ring6 = presets::ring(6);
    group.bench_function("ring6_into_melbourne", |b| {
        b.iter(|| vf2(black_box(&ring6), black_box(&melbourne), usize::MAX))
    });
    group.bench_function("path6_into_tokyo20", |b| {
        b.iter(|| vf2(black_box(&presets::line(6)), black_box(&tokyo), usize::MAX))
    });
    group.bench_function("first_embedding_only", |b| {
        b.iter(|| vf2(black_box(&presets::line(6)), black_box(&melbourne), 1))
    });
    group.finish();
}

criterion_group!(benches, bench_vf2);
criterion_main!(benches);
