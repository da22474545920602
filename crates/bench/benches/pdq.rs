//! Criterion bench: cost of a single frontier refinement step (the paper's
//! claim that the incremental density update after reading one node is very
//! cheap) and of full probability density queries at different levels.

use bayestree::pdq::density_at_level;
use bayestree::{build_tree, BulkLoadMethod, DescentStrategy};
use bt_anytree::TreeView;
use bt_data::synth::Benchmark;
use bt_index::PageGeometry;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn pdq_benchmarks(c: &mut Criterion) {
    let dataset = Benchmark::Pendigits.generate(3_000, 5);
    let dims = dataset.dims();
    let points = dataset.features_of_class(0);
    let tree = build_tree(
        &points,
        dims,
        PageGeometry::default_for_dims(dims),
        BulkLoadMethod::EmTopDown,
        1,
    );
    let query = dataset.feature(1).to_vec();

    let (view, model) = (tree.shard(0), tree.query_model());
    let mut group = c.benchmark_group("pdq");
    group.bench_function("refine_50_nodes", |b| {
        b.iter(|| {
            let mut frontier = view.new_query(&model, black_box(&query));
            view.refine_query_up_to(&model, DescentStrategy::default().into(), 50, &mut frontier);
            black_box(frontier.estimate().max(0.0))
        })
    });
    for level in [0usize, 1, 2] {
        group.bench_with_input(
            BenchmarkId::new("level_density", level),
            &level,
            |b, &level| b.iter(|| black_box(density_at_level(&tree, black_box(&query), level))),
        );
    }
    group.bench_function("full_kernel_density", |b| {
        b.iter(|| black_box(tree.full_kernel_density(black_box(&query))))
    });
    group.finish();
}

criterion_group!(benches, pdq_benchmarks);
criterion_main!(benches);
