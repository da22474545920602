//! Criterion bench: incremental insertion throughput — the "learn from new
//! training data incrementally and online" requirement of Section 1 — and
//! the R* split that dominates it.
//!
//! The `rstar_split` group times one split of a 16-d point leaf overflowed
//! to 31 (one insert), 64 and 94 (a 64-point batch into a full 30-point
//! leaf) items, and of an overflowing 8-entry directory node, on a 4 KiB
//! page.  Splits run back to back on one thread, so after the first one
//! each reuses the thread's split buffers and allocates only its result;
//! a 64- or 94-point split frees them again (see `docs/PERF.md`, "R*
//! split kernel").  Run `cargo bench --bench insert -- --test` as a smoke
//! check.

use bayestree::BayesTree;
use bt_data::synth::Benchmark;
use bt_index::rstar::{rstar_split, rstar_split_corners};
use bt_index::{Mbr, PageGeometry};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

fn insert_benchmarks(c: &mut Criterion) {
    let dataset = Benchmark::Pendigits.generate(5_000, 11);
    let dims = dataset.dims();
    let geometry = PageGeometry::default_for_dims(dims);

    let mut group = c.benchmark_group("iterative_insert");
    for &n in &[500usize, 2_000, 5_000] {
        let points: Vec<Vec<f64>> = dataset.features()[..n].to_vec();
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &points, |b, points| {
            b.iter(|| {
                let mut tree: BayesTree = BayesTree::new(dims, geometry);
                for p in points {
                    tree.insert(black_box(p.clone()));
                }
                black_box(tree.len())
            })
        });
    }
    group.finish();
}

/// Splits per timed iteration, so one sample is well above the clock's
/// resolution; the printed rate is splits per second.
const SPLITS_PER_ITER: u64 = 64;

fn split_benchmarks(c: &mut Criterion) {
    let dims = 16;
    let geometry = PageGeometry::default_for_dims(dims);
    let dataset = Benchmark::Pendigits.generate(200, 12);
    assert_eq!(dataset.dims(), dims);
    let points = dataset.features();

    let mut group = c.benchmark_group("rstar_split");
    group.throughput(Throughput::Elements(SPLITS_PER_ITER));
    for &n in &[31usize, 64, 94] {
        let leaf: Vec<Vec<f64>> = points[..n].to_vec();
        let min = geometry.min_leaf.min(n / 2).max(1);
        group.bench_with_input(BenchmarkId::new("point_leaf", n), &leaf, |b, leaf| {
            b.iter(|| {
                for _ in 0..SPLITS_PER_ITER {
                    let leaf = black_box(leaf);
                    black_box(rstar_split_corners(
                        leaf.len(),
                        dims,
                        |i, d| (leaf[i][d], leaf[i][d]),
                        min,
                    ));
                }
            })
        });
    }
    // Directory entries: boxes around disjoint runs of eight points.
    let n = geometry.max_fanout + 1;
    let boxes: Vec<Mbr> = points
        .chunks(8)
        .take(n)
        .map(|run| Mbr::from_points(run.iter().map(Vec::as_slice)).expect("non-empty run"))
        .collect();
    let min = geometry.min_fanout.min(n / 2).max(1);
    group.bench_with_input(BenchmarkId::new("directory", n), &boxes, |b, boxes| {
        b.iter(|| {
            for _ in 0..SPLITS_PER_ITER {
                black_box(rstar_split(black_box(boxes), min));
            }
        })
    });
    group.finish();
}

criterion_group!(benches, insert_benchmarks, split_benchmarks);
criterion_main!(benches);
