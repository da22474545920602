//! Criterion bench: per-step cost of the descent strategies of Section 2.2
//! (breadth-first, depth-first, global-best geometric/probabilistic).

use bayestree::{build_tree, BulkLoadMethod, DescentStrategy};
use bt_anytree::TreeView;
use bt_data::synth::Benchmark;
use bt_index::PageGeometry;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn descent_benchmarks(c: &mut Criterion) {
    let dataset = Benchmark::Letter.generate(5_200, 9);
    let dims = dataset.dims();
    let points = dataset.features_of_class(0);
    let tree = build_tree(
        &points,
        dims,
        PageGeometry::from_fanout(8, 16),
        BulkLoadMethod::Hilbert,
        1,
    );
    let query = dataset.feature(2).to_vec();

    let (view, model) = (tree.shard(0), tree.query_model());
    let mut group = c.benchmark_group("descent_strategies");
    for strategy in DescentStrategy::all() {
        group.bench_with_input(
            BenchmarkId::from_parameter(strategy.short_name()),
            &strategy,
            |b, &strategy| {
                b.iter(|| {
                    let mut frontier = view.new_query(&model, black_box(&query));
                    view.refine_query_up_to(&model, strategy.into(), 40, &mut frontier);
                    black_box(frontier.estimate().max(0.0))
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, descent_benchmarks);
criterion_main!(benches);
