//! Criterion bench: readers must not block writers.
//!
//! The epoch-versioned snapshot layer promises lock-free overlap: reader
//! threads refine queries against pinned pre-batch snapshots while the
//! writer drains batches, and the writer's only extra cost is one
//! copy-on-write per node a snapshot still pins.  Besides the timed groups
//! the bench measures the writer's insert throughput with **two concurrent
//! reader threads** hammering snapshot queries, and — **only when the
//! runner actually has ≥ 4 CPUs** (writer + 2 readers + slack) — asserts
//! that concurrent readers cost the writer at most 20% insert throughput
//! (`>= 0.8x` solo).  On smaller runners the ratio is reported but not
//! asserted, since the threads would contend for the same core.

use bayestree::{BayesTree, DescentStrategy};
use bt_data::stream::DriftingStream;
use bt_index::PageGeometry;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

const STREAM_LEN: usize = 6_000;
const BATCH_SIZE: usize = 256;
const QUERY_BUDGET: usize = 8;
const READERS: usize = 2;
/// Required writer throughput ratio under concurrent readers on ≥ 4 CPUs.
const SMOKE_RATIO: f64 = 0.8;

fn stream(len: usize) -> Vec<Vec<f64>> {
    DriftingStream::new(4, 3, 0.3, 0.002, 31)
        .generate(len)
        .into_iter()
        .map(|(p, _)| p)
        .collect()
}

fn geometry() -> PageGeometry {
    PageGeometry::from_fanout(4, 8)
}

fn build_tree(points: &[Vec<f64>], shards: usize) -> BayesTree {
    let mut tree: BayesTree = BayesTree::sharded(3, geometry(), shards);
    for chunk in points.chunks(BATCH_SIZE) {
        let _ = tree.insert_batch(chunk.to_vec());
    }
    tree
}

/// Writer wall-clock for inserting `points`, best of 3.
fn best_of_3(mut run: impl FnMut() -> f64) -> f64 {
    (0..3).map(|_| run()).fold(f64::INFINITY, f64::min)
}

/// Measures solo vs. with-2-readers writer throughput and asserts the smoke
/// ratio when the runner has the cores to meet it.
fn report_reader_writer_ratio() {
    let cpus = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let warmup = stream(STREAM_LEN);
    let points = stream(STREAM_LEN);
    let queries: Vec<Vec<f64>> = warmup.iter().step_by(400).cloned().collect();

    // Solo: nobody reading.
    let solo_secs = best_of_3(|| {
        let mut tree = build_tree(&warmup, 1);
        let start = Instant::now();
        for chunk in points.chunks(BATCH_SIZE) {
            black_box(tree.insert_batch(chunk.to_vec()));
        }
        start.elapsed().as_secs_f64()
    });

    // Concurrent: two reader threads hammer snapshot queries against the
    // warmed-up tree's pinned snapshot while the writer inserts the same
    // stream.
    let answered = AtomicU64::new(0);
    let concurrent_secs = best_of_3(|| {
        let mut tree = build_tree(&warmup, 1);
        let snapshot = tree.snapshot();
        let done = AtomicBool::new(false);
        let mut writer_secs = 0.0;
        std::thread::scope(|scope| {
            for _ in 0..READERS {
                let snapshot = &snapshot;
                let done = &done;
                let queries = &queries;
                let answered = &answered;
                scope.spawn(move || {
                    while !done.load(Ordering::Relaxed) {
                        let (answers, _) = snapshot.density_batch(
                            queries,
                            DescentStrategy::default(),
                            QUERY_BUDGET,
                        );
                        answered.fetch_add(answers.len() as u64, Ordering::Relaxed);
                        black_box(answers);
                    }
                });
            }
            let start = Instant::now();
            for chunk in points.chunks(BATCH_SIZE) {
                black_box(tree.insert_batch(chunk.to_vec()));
            }
            writer_secs = start.elapsed().as_secs_f64();
            done.store(true, Ordering::Relaxed);
        });
        writer_secs
    });

    let ratio = solo_secs / concurrent_secs.max(1e-12);
    let answered = answered.load(Ordering::Relaxed);
    eprintln!(
        "pipelined readers/writer ({cpus} CPUs): solo {solo_secs:.3}s vs \
         with-{READERS}-readers {concurrent_secs:.3}s -> writer ratio {ratio:.2}x \
         ({answered} snapshot queries answered; smoke threshold {SMOKE_RATIO}x, \
         enforced at >= 4 CPUs)"
    );
    assert!(answered > 0, "readers must make progress while writing");
    if cpus >= 4 {
        assert!(
            ratio >= SMOKE_RATIO,
            "concurrent readers cost the writer too much: {ratio:.2}x < {SMOKE_RATIO}x on {cpus} CPUs"
        );
    }
}

fn pipelined_benchmarks(c: &mut Criterion) {
    report_reader_writer_ratio();

    let points = stream(STREAM_LEN);
    let queries: Vec<Vec<f64>> = points.iter().step_by(400).cloned().collect();

    // Snapshot cost: the spine clone + epoch pin, per shard count.
    let mut group = c.benchmark_group("snapshot");
    for &shards in &[1usize, 4] {
        let tree = build_tree(&points, shards);
        group.bench_with_input(BenchmarkId::from_parameter(shards), &shards, |b, _| {
            b.iter(|| black_box(tree.snapshot().len()));
        });
    }
    group.finish();

    // Insert-only vs. pipelined (inserts overlapped with snapshot queries).
    let mut group = c.benchmark_group("pipelined_vs_solo");
    group.throughput(Throughput::Elements(STREAM_LEN as u64));
    group.bench_function("solo_insert", |b| {
        b.iter(|| {
            let mut tree: BayesTree = BayesTree::sharded(3, geometry(), 4);
            for chunk in points.chunks(BATCH_SIZE) {
                black_box(tree.insert_batch(chunk.to_vec()));
            }
            tree.len()
        });
    });
    group.bench_function("pipelined_insert_query", |b| {
        b.iter(|| {
            let mut tree: BayesTree = BayesTree::sharded(3, geometry(), 4);
            let mut answered = 0usize;
            for chunk in points.chunks(BATCH_SIZE) {
                let outcome = tree.pipelined_batch(
                    chunk.to_vec(),
                    &queries,
                    DescentStrategy::default(),
                    QUERY_BUDGET,
                );
                answered += outcome.answers.len();
            }
            black_box(answered);
            tree.len()
        });
    });
    group.finish();
}

criterion_group!(benches, pipelined_benchmarks);
criterion_main!(benches);
