//! Criterion bench: the anytime query engine — refinement convergence and
//! sharded query throughput at shard counts 1 / 2 / 4 / 8.
//!
//! Before the timed groups run, two smoke properties are asserted:
//!
//! * **refinement converges**: the fully refined cursor's estimate matches
//!   the flat kernel density, and the certain bound interval is
//!   non-increasing in budget (the monotone anytime contract),
//! * **sharded queries scale**: per-shard frontiers refine on their own
//!   scoped threads, so the folded query path performs ~K× the frontier
//!   node reads of a single tree in similar wall-clock.  On runners with
//!   ≥ 4 CPUs the 4-shard-vs-1-shard node-read throughput ratio must be
//!   ≥ 1.5× (on smaller runners it is reported but not asserted, since
//!   queries cannot beat the core count).

use bayestree::{BayesTree, DescentStrategy};
use bt_data::stream::DriftingStream;
use bt_index::PageGeometry;
use clustree::{ClusTree, ClusTreeConfig};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use std::time::Instant;

const TREE_SIZE: usize = 4_000;
const NUM_QUERIES: usize = 64;
const QUERY_BUDGETS: [usize; 4] = [0, 8, 32, 128];
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];
const BUDGET_PER_SHARD: usize = 64;
/// Required 4-shard node-read throughput ratio on runners with ≥ 4 CPUs.
const SMOKE_SPEEDUP: f64 = 1.5;

fn stream(len: usize) -> Vec<Vec<f64>> {
    DriftingStream::new(4, 3, 0.3, 0.002, 23)
        .generate(len)
        .into_iter()
        .map(|(p, _)| p)
        .collect()
}

fn geometry() -> PageGeometry {
    PageGeometry::from_fanout(4, 8)
}

fn build_single(points: &[Vec<f64>]) -> BayesTree {
    let mut tree: BayesTree = BayesTree::new(3, geometry());
    for chunk in points.chunks(256) {
        tree.insert_batch(chunk.to_vec());
    }
    tree.fit_bandwidth();
    tree
}

fn build_sharded(points: &[Vec<f64>], shards: usize) -> BayesTree {
    let mut tree: BayesTree = BayesTree::sharded(3, geometry(), shards);
    for chunk in points.chunks(256) {
        let _ = tree.insert_batch(chunk.to_vec());
    }
    tree.fit_bandwidth();
    tree
}

/// Best-of-3 wall-clock seconds of one query-batch closure; returns the
/// seconds together with the node reads the batch performed.
fn best_of_3(mut run: impl FnMut() -> u64) -> (f64, u64) {
    let mut best = f64::INFINITY;
    let mut reads = 0;
    for _ in 0..3 {
        let start = Instant::now();
        reads = black_box(run());
        best = best.min(start.elapsed().as_secs_f64());
    }
    (best, reads)
}

/// Asserts the monotone-refinement contract and, with enough cores, the
/// sharded query throughput smoke threshold.
fn assert_convergence_and_scaling() {
    let points = stream(TREE_SIZE);
    let tree = build_single(&points);
    let queries: Vec<Vec<f64>> = points
        .iter()
        .step_by(TREE_SIZE / NUM_QUERIES)
        .cloned()
        .collect();

    // (1) Convergence: full refinement reproduces the flat estimate with a
    // collapsed bound interval, and uncertainty never grows with budget.
    for query in queries.iter().take(8) {
        let mut last = f64::INFINITY;
        for budget in [0usize, 4, 16, 64, 256] {
            let answer = tree.anytime_density(query, DescentStrategy::default(), budget);
            assert!(
                answer.uncertainty() <= last + 1e-12,
                "uncertainty grew at budget {budget}"
            );
            last = answer.uncertainty();
        }
        let full = tree.anytime_density(query, DescentStrategy::default(), usize::MAX);
        let truth = tree.full_kernel_density(query);
        assert!(
            (full.estimate - truth).abs() <= 1e-9 * (1.0 + truth),
            "refinement did not converge: {} vs {truth}",
            full.estimate
        );
        assert!(full.uncertainty() < 1e-12, "bounds did not collapse");
    }

    // (2) Sharded scaling: same per-shard budget, K shards refine ~K× the
    // frontier reads; with ≥ 4 CPUs that must show up as ≥ 1.5× node-read
    // throughput at 4 shards vs 1.
    let cpus = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let sharded1 = build_sharded(&points, 1);
    let sharded4 = build_sharded(&points, 4);
    let (t1, reads1) = best_of_3(|| {
        sharded1
            .density_batch(&queries, DescentStrategy::default(), BUDGET_PER_SHARD)
            .1
            .nodes_read
    });
    let (t4, reads4) = best_of_3(|| {
        sharded4
            .density_batch(&queries, DescentStrategy::default(), BUDGET_PER_SHARD)
            .1
            .nodes_read
    });
    let throughput1 = reads1 as f64 / t1.max(1e-12);
    let throughput4 = reads4 as f64 / t4.max(1e-12);
    let ratio = throughput4 / throughput1.max(1e-12);
    eprintln!(
        "sharded query scaling ({cpus} CPUs): {NUM_QUERIES} queries, budget {BUDGET_PER_SHARD}/shard: \
         1 shard {reads1} reads in {t1:.4}s vs 4 shards {reads4} reads in {t4:.4}s \
         -> node-read throughput ratio {ratio:.2}x (smoke threshold {SMOKE_SPEEDUP}x, enforced at >= 4 CPUs)"
    );
    if cpus >= 4 {
        assert!(
            ratio >= SMOKE_SPEEDUP,
            "sharded query throughput regressed: {ratio:.2}x < {SMOKE_SPEEDUP}x on {cpus} CPUs"
        );
    }
}

fn anytime_query_benchmarks(c: &mut Criterion) {
    assert_convergence_and_scaling();

    let points = stream(TREE_SIZE);
    let tree = build_single(&points);
    let queries: Vec<Vec<f64>> = points
        .iter()
        .step_by(TREE_SIZE / NUM_QUERIES)
        .cloned()
        .collect();

    let mut group = c.benchmark_group("bayes_anytime_density");
    for &budget in &QUERY_BUDGETS {
        group.throughput(Throughput::Elements(NUM_QUERIES as u64));
        group.bench_with_input(
            BenchmarkId::from_parameter(budget),
            &budget,
            |b, &budget| {
                b.iter(|| {
                    tree.density_batch(black_box(&queries), DescentStrategy::default(), budget)
                        .0
                        .len()
                })
            },
        );
    }
    group.finish();

    let mut clus = ClusTree::new(3, ClusTreeConfig::default());
    for (i, chunk) in points.chunks(64).enumerate() {
        let _ = clus.insert_batch(chunk, i as f64, 8);
    }
    let mut group = c.benchmark_group("clustree_anytime_knn");
    for &budget in &QUERY_BUDGETS {
        group.throughput(Throughput::Elements(NUM_QUERIES as u64));
        group.bench_with_input(
            BenchmarkId::from_parameter(budget),
            &budget,
            |b, &budget| {
                b.iter(|| {
                    queries
                        .iter()
                        .map(|q| clus.anytime_knn(black_box(q), 3, budget).neighbors.len())
                        .sum::<usize>()
                })
            },
        );
    }
    group.finish();

    let mut group = c.benchmark_group("sharded_density_batch");
    for &shards in &SHARD_COUNTS {
        let sharded = build_sharded(&points, shards);
        group.throughput(Throughput::Elements(NUM_QUERIES as u64));
        group.bench_with_input(
            BenchmarkId::from_parameter(shards),
            &shards,
            |b, _shards| {
                b.iter(|| {
                    sharded
                        .density_batch(
                            black_box(&queries),
                            DescentStrategy::default(),
                            BUDGET_PER_SHARD,
                        )
                        .1
                        .nodes_read
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, anytime_query_benchmarks);
criterion_main!(benches);
