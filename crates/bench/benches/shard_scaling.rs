//! Criterion bench: insert throughput of the sharded anytime trees at
//! shard counts 1 / 2 / 4 / 8.
//!
//! Shards never share nodes, so each mini-batch descends all shards on its
//! own scoped thread; on an `N`-core runner the per-object budget is spent
//! on up to `N` cores at once.  Besides the timed groups the bench measures
//! the 4-shard-vs-1-shard wall-clock ratio directly and — **only when the
//! runner actually has ≥ 4 CPUs** — asserts the ≥ 1.5× scaling claim as a
//! smoke threshold (on smaller runners the ratio is reported but not
//! asserted, since sharding cannot beat the core count).

use bayestree::BayesTree;
use bt_data::stream::DriftingStream;
use bt_data::synth::Benchmark;
use bt_index::PageGeometry;
use clustree::{ClusTree, ClusTreeConfig};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use std::time::Instant;

const STREAM_LEN: usize = 4_000;
const BATCH_SIZE: usize = 256;
const NODE_BUDGET: usize = 8;
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];
/// Required 4-shard speedup over 1 shard on runners with ≥ 4 CPUs.
const SMOKE_SPEEDUP: f64 = 1.5;

fn clustree_stream(len: usize) -> Vec<Vec<f64>> {
    DriftingStream::new(4, 3, 0.3, 0.002, 17)
        .generate(len)
        .into_iter()
        .map(|(p, _)| p)
        .collect()
}

fn build_sharded_clustree(points: &[Vec<f64>], shards: usize) -> ClusTree {
    let mut tree: ClusTree = ClusTree::sharded(3, ClusTreeConfig::default(), shards);
    for (batch_idx, chunk) in points.chunks(BATCH_SIZE).enumerate() {
        let _ = tree.insert_batch(chunk, (batch_idx * BATCH_SIZE) as f64, NODE_BUDGET);
    }
    tree
}

fn build_sharded_bayestree(points: &[Vec<f64>], dims: usize, shards: usize) -> BayesTree {
    let geometry = PageGeometry::default_for_dims(dims);
    let mut tree: BayesTree = BayesTree::sharded(dims, geometry, shards);
    for chunk in points.chunks(BATCH_SIZE) {
        let _ = tree.insert_batch(chunk.to_vec());
    }
    tree
}

/// Best-of-3 wall-clock seconds for one build closure.
fn best_of_3(mut build: impl FnMut() -> usize) -> f64 {
    (0..3)
        .map(|_| {
            let start = Instant::now();
            black_box(build());
            start.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// Measures the 4-shard speedup over 1 shard and asserts the smoke
/// threshold when the runner has the cores to meet it.
fn report_shard_speedup() {
    let cpus = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let points = clustree_stream(2 * STREAM_LEN);
    let t1 = best_of_3(|| build_sharded_clustree(&points, 1).num_nodes());
    let t4 = best_of_3(|| build_sharded_clustree(&points, 4).num_nodes());
    let speedup = t1 / t4.max(1e-12);
    eprintln!(
        "shard scaling ({cpus} CPUs): {} objects, 1 shard {t1:.3}s vs 4 shards {t4:.3}s \
         -> speedup {speedup:.2}x (smoke threshold {SMOKE_SPEEDUP}x, enforced at >= 4 CPUs)",
        2 * STREAM_LEN
    );
    if cpus >= 4 {
        assert!(
            speedup >= SMOKE_SPEEDUP,
            "4-shard insert throughput regressed: {speedup:.2}x < {SMOKE_SPEEDUP}x on {cpus} CPUs"
        );
    }
}

fn shard_scaling_benchmarks(c: &mut Criterion) {
    report_shard_speedup();

    let clus_points = clustree_stream(STREAM_LEN);
    let mut group = c.benchmark_group("clustree_shard_insert");
    for &shards in &SHARD_COUNTS {
        group.throughput(Throughput::Elements(STREAM_LEN as u64));
        group.bench_with_input(
            BenchmarkId::from_parameter(shards),
            &shards,
            |b, &shards| {
                b.iter(|| build_sharded_clustree(black_box(&clus_points), shards).num_nodes())
            },
        );
    }
    group.finish();

    let bayes_dataset = Benchmark::Pendigits.generate(STREAM_LEN, 11);
    let dims = bayes_dataset.dims();
    let bayes_points: Vec<Vec<f64>> = bayes_dataset.features().to_vec();
    let mut group = c.benchmark_group("bayestree_shard_insert");
    for &shards in &SHARD_COUNTS {
        group.throughput(Throughput::Elements(STREAM_LEN as u64));
        group.bench_with_input(
            BenchmarkId::from_parameter(shards),
            &shards,
            |b, &shards| {
                b.iter(|| build_sharded_bayestree(black_box(&bayes_points), dims, shards).len())
            },
        );
    }
    group.finish();
}

criterion_group!(benches, shard_scaling_benchmarks);
criterion_main!(benches);
