//! Criterion bench behind Figures 2–4: cost of anytime classification as a
//! function of the node budget, for trees built with different bulk loads.
//!
//! The `anytime_classify_letter_snapshot` group times the stream setting:
//! 64 objects classified at budget 6 against a pinned snapshot of a
//! 26-class, 16-d classifier (the Letter stand-in on 4 KiB pages), where
//! every classification scores all 26 class roots in one pass and builds a
//! per-class frontier, on the thread's pooled query cursors, only for the
//! classes it refines.  Run `cargo bench --bench anytime_classify --
//! --test` as a smoke check.

use bayestree::{AnytimeClassifier, BayesTree, BulkLoadMethod, ClassifierConfig};
use bt_data::synth::{letter, Benchmark};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

fn classify_benchmarks(c: &mut Criterion) {
    let dataset = Benchmark::Pendigits.generate(2_000, 7);
    let mut group = c.benchmark_group("anytime_classify_pendigits");

    for method in [
        BulkLoadMethod::EmTopDown,
        BulkLoadMethod::Hilbert,
        BulkLoadMethod::Iterative,
    ] {
        let config = ClassifierConfig::with_bulk_load(method);
        let classifier = AnytimeClassifier::train(&dataset, &config);
        let query = dataset.feature(0).to_vec();
        for budget in [5usize, 25, 100] {
            group.bench_with_input(
                BenchmarkId::new(method.name(), budget),
                &budget,
                |b, &budget| {
                    b.iter(|| black_box(classifier.classify_with_budget(black_box(&query), budget)))
                },
            );
        }
    }
    group.finish();
}

/// Objects classified per timed iteration.
const SNAPSHOT_OBJECTS: usize = 64;
/// Node reads per classification: on the rising part of the Letter
/// accuracy curve.
const SNAPSHOT_BUDGET: usize = 6;

fn snapshot_benchmarks(c: &mut Criterion) {
    let dims = 16;
    let train = letter::generate(4_000, 7);
    let config = ClassifierConfig {
        geometry: Some(BayesTree::<f64>::paged_geometry(dims)),
        ..ClassifierConfig::default()
    };
    let classifier = AnytimeClassifier::train(&train, &config);
    assert_eq!(classifier.num_classes(), 26);
    let snapshot = classifier.snapshot();
    let objects = letter::generate(SNAPSHOT_OBJECTS, 8);
    for x in objects.features() {
        assert_eq!(
            snapshot.classify_with_budget(x, SNAPSHOT_BUDGET),
            classifier.classify_with_budget(x, SNAPSHOT_BUDGET),
            "a pinned snapshot classifies as the live classifier"
        );
    }

    let mut group = c.benchmark_group("anytime_classify_letter_snapshot");
    group.throughput(Throughput::Elements(SNAPSHOT_OBJECTS as u64));
    group.bench_function(BenchmarkId::from_parameter(SNAPSHOT_BUDGET), |b| {
        b.iter(|| {
            objects
                .features()
                .iter()
                .map(|x| {
                    snapshot
                        .classify_with_budget(black_box(x), SNAPSHOT_BUDGET)
                        .label
                })
                .sum::<usize>()
        })
    });
    group.finish();
}

criterion_group!(benches, classify_benchmarks, snapshot_benchmarks);
criterion_main!(benches);
