//! Property tests for the observability layer: recording must be an
//! *observational* change only, and recording the same work through
//! different engine paths must produce the same registry deltas.
//!
//! Locked down here (the histogram/registry merge algebra itself is
//! property-tested inside `bt-obs`):
//!
//! * a one-shard `BayesTree` records exactly the metric deltas of one
//!   directly driven `AnytimeTree` core — the sharding-equivalence suite
//!   extended to the registry (insert, batched-density and outlier paths;
//!   both sides run the one outlier loop, the core as its one-view slice,
//!   so every counter and histogram matches exactly),
//! * a pinned snapshot answering the same query batch records the same
//!   *cache-independent* query counters as the live tree (the block-cache
//!   counters legitimately differ: snapshot and live tree share warm
//!   `Arc`-shared cache slots, so whoever queries second sees more hits),
//! * disabling recording freezes every tree counter while answers stay
//!   bit-identical — the observability layer cannot leak into results,
//! * one-shot queries on the per-thread scratch cursor answer exactly as a
//!   fresh cursor does and each adds exactly its own work,
//! * the live classifier and its pinned snapshot record the same query
//!   counters for the same classifications, equal to fresh `begin_query`
//!   cursors', with each class root counted once as a block gather or a
//!   gather avoided,
//! * a classification or k-NN retrieval on the pooled scratch cursors
//!   records exactly its own work: repeating it on one thread, or running
//!   it on a fresh thread (empty pool), records identical deltas,
//! * the arena gauges read the census each arena published at its last
//!   batch, the recycled counter adds every recycled copy, and dropping
//!   the tree takes its share back out of the gauges.
//!
//! All tests in this binary serialise on one lock: they read deltas of the
//! single process-global registry, so two concurrently recording workloads
//! would pollute each other's deltas.

use anytime_stream_mining::anytree::{
    outlier_score_over, query_batch_over, with_scratch_cursors, AnytimeTree, OutlierScore,
    OutlierVerdict, QueryAnswer, QueryCursor, QueryStats, RefineOrder, ShardSet, TreeView,
};
use anytime_stream_mining::bayestree::insert::KernelModel;
use anytime_stream_mining::bayestree::{
    AnytimeClassifier, BayesCore, BayesTree, ClassifierConfig, DescentStrategy, KernelQueryModel,
    KernelSummary, RefinementScheduler,
};
use anytime_stream_mining::clustree::{ClusTree, ClusTreeConfig};
use anytime_stream_mining::data::synth::blobs::BlobConfig;
use anytime_stream_mining::eval::RegistryCapture;
use anytime_stream_mining::index::PageGeometry;
use anytime_stream_mining::obs::{Registry, Snapshot, ValueSnapshot};
use anytime_stream_mining::stats::KernelBandwidth;
use proptest::prelude::*;
use std::sync::{Mutex, MutexGuard, OnceLock};

fn registry_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Every tree-layer counter the equivalence tests compare.
const TREE_COUNTERS: &[&str] = &[
    "bt_insert_objects_total",
    "bt_insert_reached_leaf_total",
    "bt_insert_parked_total",
    "bt_insert_batches_total",
    "bt_insert_node_visits_total",
    "bt_insert_summary_refreshes_total",
    "bt_insert_splits_total",
    "bt_insert_prefetches_total",
    "bt_queries_total",
    "bt_query_nodes_read_total",
    "bt_query_elements_scored_total",
    "bt_query_block_gathers_total",
    "bt_query_gathers_avoided_total",
    "bt_query_prefetches_total",
    "bt_queries_certified_total",
    "bt_queries_uncertain_total",
    "bt_arena_versions_recycled_total",
];

/// The query counters that do not depend on block-cache temperature —
/// live trees and their snapshots share cache slots, so only these are
/// comparable across that pair.
const CACHE_INDEPENDENT_COUNTERS: &[&str] = &[
    "bt_queries_total",
    "bt_query_nodes_read_total",
    "bt_query_elements_scored_total",
    "bt_queries_certified_total",
    "bt_queries_uncertain_total",
];

fn counter_values(delta: &Snapshot, names: &[&'static str]) -> Vec<(&'static str, u64)> {
    names.iter().map(|n| (*n, delta.counter(n))).collect()
}

/// A histogram's exact tallies: its count and every bucket count.
fn histogram_tallies(delta: &Snapshot, name: &str) -> Option<(u64, Vec<u64>)> {
    delta
        .metrics
        .iter()
        .find(|m| m.name == name)
        .and_then(|m| match &m.value {
            ValueSnapshot::Histogram { count, buckets, .. } => Some((*count, buckets.clone())),
            _ => None,
        })
}

/// Strategy producing a bounded set of 3-d points.
fn stream_strategy(max_len: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(prop::collection::vec(-5.0f64..5.0, 3), 12..max_len)
}

fn geometry() -> PageGeometry {
    PageGeometry::from_fanout(4, 4)
}

/// The workload both sides of the sharded equivalence run: batched
/// construction, a batched density pass and an outlier certification.
struct Workload {
    points: Vec<Vec<f64>>,
    queries: Vec<Vec<f64>>,
    budget: usize,
}

impl Workload {
    /// Returns the registry deltas of the two phases separately: the
    /// insert + batched-density phase and the outlier phase.
    /// The reference side: one core driven directly with the Bayes tree's
    /// insertion policy and read through the fold as a one-view slice.
    fn run_plain(&self) -> (Snapshot, Snapshot) {
        let capture = RegistryCapture::begin();
        let mut core: BayesCore<KernelSummary> = AnytimeTree::new(3, geometry());
        for chunk in self.points.chunks(16) {
            let _ = core.insert_batch(&mut KernelModel::new(3), chunk.to_vec(), usize::MAX);
        }
        let bandwidth = KernelBandwidth::new(vec![0.8, 0.8, 0.8]);
        let model = KernelQueryModel::new(self.points.len(), &bandwidth);
        let views = std::slice::from_ref(&core);
        let order = RefineOrder::from(DescentStrategy::default());
        let _ = query_batch_over(views, &model, &self.queries, order, self.budget);
        let density = capture.delta();
        let capture = RegistryCapture::begin();
        let _ = outlier_score_over(views, &model, &self.queries[0], 1e-3, 30);
        (density, capture.delta())
    }

    fn run_one_shard(&self) -> (Snapshot, Snapshot) {
        let capture = RegistryCapture::begin();
        let mut sharded: BayesTree = BayesTree::new(3, geometry());
        for chunk in self.points.chunks(16) {
            let _ = sharded.insert_batch(chunk.to_vec());
        }
        sharded.set_bandwidth(vec![0.8, 0.8, 0.8]);
        let _ = sharded.density_batch(&self.queries, DescentStrategy::default(), self.budget);
        let density = capture.delta();
        let capture = RegistryCapture::begin();
        let _ = sharded.outlier_score(&self.queries[0], 1e-3, 30);
        (density, capture.delta())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// One-shard sharding is metric-invisible: every tree counter delta —
    /// insert, query and verdict side — matches the plain tree's exactly,
    /// and so do the refinement histogram totals.
    #[test]
    fn one_shard_records_the_plain_trees_deltas(
        points in stream_strategy(100),
        qx in -6.0f64..6.0,
        budget in 0usize..32,
    ) {
        let _guard = registry_lock();
        let workload = Workload {
            points,
            queries: vec![vec![qx, -qx, qx * 0.5], vec![qx, qx, qx]],
            budget,
        };
        let (plain, plain_outlier) = workload.run_plain();
        let (sharded, sharded_outlier) = workload.run_one_shard();
        prop_assert_eq!(
            counter_values(&plain, TREE_COUNTERS),
            counter_values(&sharded, TREE_COUNTERS)
        );
        for hist in ["bt_query_bound_width", "bt_refine_budget_spent"] {
            let (plain_count, plain_sum) = plain.histogram_totals(hist);
            let (sharded_count, sharded_sum) = sharded.histogram_totals(hist);
            prop_assert_eq!(plain_count, sharded_count, "{} counts", hist);
            prop_assert!(
                (plain_sum - sharded_sum).abs() <= 1e-9 * (1.0 + plain_sum.abs()),
                "{} sums: plain {} vs one-shard {}", hist, plain_sum, sharded_sum
            );
        }
        // One outlier loop serves both sides: every counter, both
        // refinement histograms (the per-read bound widths and the budget
        // spent) and the final bound width match exactly — count and every
        // bucket.  Only the sums carry a tolerance: they are differences
        // of one global float accumulator read at different baselines.
        prop_assert_eq!(
            counter_values(&plain_outlier, TREE_COUNTERS),
            counter_values(&sharded_outlier, TREE_COUNTERS)
        );
        for hist in ["bt_refine_bound_width", "bt_refine_budget_spent", "bt_query_bound_width"] {
            prop_assert_eq!(
                histogram_tallies(&plain_outlier, hist),
                histogram_tallies(&sharded_outlier, hist),
                "{}", hist
            );
            let (_, plain_sum) = plain_outlier.histogram_totals(hist);
            let (_, sharded_sum) = sharded_outlier.histogram_totals(hist);
            prop_assert!(
                (plain_sum - sharded_sum).abs() <= 1e-9 * (1.0 + plain_sum.abs()),
                "{} sums: plain {} vs one-shard {}", hist, plain_sum, sharded_sum
            );
        }
    }

    /// A pinned snapshot answering the same batch records the same
    /// cache-independent query counters as the live tree, and the answers
    /// are bit-identical.
    #[test]
    fn snapshot_queries_record_the_live_trees_counters(
        points in stream_strategy(100),
        qx in -6.0f64..6.0,
        budget in 0usize..32,
    ) {
        let _guard = registry_lock();
        let mut tree: BayesTree = BayesTree::new(3, geometry());
        for chunk in points.chunks(16) {
            tree.insert_batch(chunk.to_vec());
        }
        tree.set_bandwidth(vec![0.8, 0.8, 0.8]);
        let queries = vec![vec![qx, -qx, qx * 0.5], vec![qx, qx, qx]];

        let live_capture = RegistryCapture::begin();
        let (live_answers, _) = tree.density_batch(&queries, DescentStrategy::default(), budget);
        let live = live_capture.delta();

        let snapshot = tree.snapshot();
        let snap_capture = RegistryCapture::begin();
        let (snap_answers, _) = snapshot.density_batch(&queries, DescentStrategy::default(), budget);
        let snap = snap_capture.delta();

        prop_assert_eq!(live_answers, snap_answers);
        prop_assert_eq!(
            counter_values(&live, CACHE_INDEPENDENT_COUNTERS),
            counter_values(&snap, CACHE_INDEPENDENT_COUNTERS)
        );
    }

    /// Disabling recording freezes every tree counter while the engine's
    /// answers stay bit-identical — metrics cannot leak into results.
    #[test]
    fn disabled_recording_freezes_counters_without_changing_answers(
        points in stream_strategy(80),
        qx in -6.0f64..6.0,
        budget in 0usize..32,
    ) {
        let _guard = registry_lock();
        let mut tree: BayesTree = BayesTree::new(3, geometry());
        for chunk in points.chunks(16) {
            tree.insert_batch(chunk.to_vec());
        }
        tree.set_bandwidth(vec![0.8, 0.8, 0.8]);
        let queries = vec![vec![qx, -qx, qx * 0.5]];

        let (enabled_answers, _) = tree.density_batch(&queries, DescentStrategy::default(), budget);

        anytime_stream_mining::obs::set_enabled(false);
        let capture = RegistryCapture::begin();
        let (disabled_answers, _) = tree.density_batch(&queries, DescentStrategy::default(), budget);
        let frozen = capture.delta();
        anytime_stream_mining::obs::set_enabled(true);

        prop_assert_eq!(enabled_answers, disabled_answers);
        for (name, value) in counter_values(&frozen, TREE_COUNTERS) {
            prop_assert_eq!(value, 0, "{} moved while recording was disabled", name);
        }
    }
}

/// Deterministic 3-d points in two blobs.
fn blob_points(n: usize) -> Vec<Vec<f64>> {
    (0..n)
        .map(|i| {
            let t = i as f64;
            let centre = if i % 2 == 0 { -2.0 } else { 2.5 };
            vec![
                centre + (t * 0.37).sin(),
                centre + (t * 0.71).cos(),
                (t * 0.13).sin() * 1.5,
            ]
        })
        .collect()
}

/// The one-view outlier loop of `outlier_score_over`, driven by hand on a
/// fresh `new_query` cursor — the reference the scratch cursor must match.
/// (It runs on a snapshot, which answers exactly as the live tree does.)
fn fresh_outlier_score(tree: &BayesTree, x: &[f64], threshold: f64, budget: usize) -> OutlierScore {
    let snapshot = tree.snapshot();
    let (view, model) = (snapshot.core().shard(0), snapshot.query_model());
    let mut cursor = view.new_query(&model, x);
    let mut verdict = cursor.answer().verdict(threshold);
    while verdict == OutlierVerdict::Undecided
        && cursor.nodes_read() < budget
        && view.refine_query(&model, RefineOrder::WidestBound, &mut cursor)
    {
        verdict = cursor.answer().verdict(threshold);
    }
    OutlierScore {
        answer: cursor.answer(),
        verdict,
    }
}

/// `anytime_density` on a fresh `new_query` cursor.
fn fresh_density(tree: &BayesTree, x: &[f64], budget: usize) -> QueryAnswer {
    let snapshot = tree.snapshot();
    let (view, model) = (snapshot.core().shard(0), snapshot.query_model());
    let order = DescentStrategy::default().into();
    let mut cursor = view.new_query(&model, x);
    view.refine_query_up_to(&model, order, budget, &mut cursor);
    cursor.answer()
}

fn answer_bits(a: &QueryAnswer) -> (u64, u64, u64, usize) {
    (
        a.estimate.to_bits(),
        a.lower.to_bits(),
        a.upper.to_bits(),
        a.nodes_read,
    )
}

/// Checks one one-shot call against its fresh-cursor reference and the
/// registry delta it left: one query, exactly its own node reads.
fn assert_one_shot(tree: &BayesTree, x: &[f64], threshold: f64, budget: usize) {
    let capture = RegistryCapture::begin();
    let score = tree.outlier_score(x, threshold, budget);
    let delta = capture.delta();
    let want = fresh_outlier_score(tree, x, threshold, budget);
    assert_eq!(answer_bits(&score.answer), answer_bits(&want.answer));
    assert_eq!(score.verdict, want.verdict);
    assert_eq!(delta.counter("bt_queries_total"), 1);
    assert_eq!(
        delta.counter("bt_query_nodes_read_total"),
        score.answer.nodes_read as u64
    );

    let capture = RegistryCapture::begin();
    let answer = tree.anytime_density(x, DescentStrategy::default(), budget);
    let delta = capture.delta();
    assert_eq!(
        answer_bits(&answer),
        answer_bits(&fresh_density(tree, x, budget))
    );
    assert_eq!(delta.counter("bt_queries_total"), 1);
    assert_eq!(
        delta.counter("bt_query_nodes_read_total"),
        answer.nodes_read as u64
    );
}

/// One-shot queries run on the per-thread scratch cursor: repeated calls
/// on one thread, and calls made while that cursor is already held (which
/// fall back to a fresh cursor), answer bit-identically to a `new_query`
/// cursor, and each call adds exactly its own work to the registry.
#[test]
fn one_shot_queries_reuse_the_scratch_cursor_exactly() {
    let _guard = registry_lock();
    let mut tree: BayesTree = BayesTree::new(3, geometry());
    for chunk in blob_points(240).chunks(32) {
        tree.insert_batch(chunk.to_vec());
    }
    tree.set_bandwidth(vec![0.6, 0.6, 0.6]);
    let threshold = 0.2 * tree.full_kernel_density(&[-2.0, -2.0, 0.0]);
    let queries = [
        vec![-2.0, -2.0, 0.0],
        vec![0.3, 0.2, -0.4],
        vec![2.5, 2.5, 1.0],
        vec![9.0, -9.0, 4.0],
    ];
    for round in 0..2 {
        for (i, x) in queries.iter().enumerate() {
            assert_one_shot(&tree, x, threshold, 3 + 7 * i + round);
        }
    }
    with_scratch_cursors(1, |held| {
        let before = *held[0].stats();
        for (i, x) in queries.iter().enumerate() {
            assert_one_shot(&tree, x, threshold, 5 + 4 * i);
        }
        assert_eq!(
            *held[0].stats(),
            before,
            "a held scratch cursor is left alone"
        );
    });
}

/// The live classifier and its pinned snapshot fold the same per-frontier
/// query work into the registry for the same classifications: one query
/// per class frontier, and the same node reads and scored elements.
#[test]
fn classifier_snapshot_records_the_live_classifiers_counters() {
    let _guard = registry_lock();
    let dataset = BlobConfig::new(3, 3)
        .samples_per_class(60)
        .seed(29)
        .generate();
    let config = ClassifierConfig {
        geometry: Some(PageGeometry::from_fanout(4, 5)),
        ..ClassifierConfig::default()
    };
    let classifier = AnytimeClassifier::train(&dataset, &config);
    let objects: Vec<Vec<f64>> = dataset.features().iter().step_by(11).cloned().collect();

    let live_capture = RegistryCapture::begin();
    let live: Vec<usize> = objects
        .iter()
        .map(|x| classifier.classify_with_budget(x, 6).label)
        .collect();
    let live_delta = live_capture.delta();

    let snapshot = classifier.snapshot();
    let snap_capture = RegistryCapture::begin();
    let snap: Vec<usize> = objects
        .iter()
        .map(|x| snapshot.classify_with_budget(x, 6).label)
        .collect();
    let snap_delta = snap_capture.delta();

    assert_eq!(live, snap);
    assert_eq!(
        counter_values(&live_delta, CACHE_INDEPENDENT_COUNTERS),
        counter_values(&snap_delta, CACHE_INDEPENDENT_COUNTERS)
    );
    assert_eq!(
        live_delta.counter("bt_queries_total"),
        (objects.len() * classifier.num_classes()) as u64
    );
    assert!(live_delta.counter("bt_query_elements_scored_total") > 0);
    assert!(live_delta.counter("bt_query_nodes_read_total") > 0);
}

/// The query work the classifier's loop does for `x`, replayed on fresh
/// cursors through `begin_query` with the full kernel model: one cursor per
/// class, the same scheduler, one node read per step.  Returns the summed
/// `(queries, nodes_read, elements_scored)`.
fn reference_query_work(classifier: &AnytimeClassifier, x: &[f64], budget: usize) -> [u64; 3] {
    let config = classifier.config();
    let mut frontiers: Vec<_> = classifier
        .trees()
        .iter()
        .map(|t| {
            (
                t,
                t.query_model(),
                t.shard(0).new_query(&t.query_model(), x),
            )
        })
        .collect();
    let score =
        |f: &(&BayesTree, KernelQueryModel<'_>, QueryCursor), &p: &f64| p * f.2.estimate().max(0.0);
    let mut scheduler = RefinementScheduler::new(config.refinement, frontiers.len());
    for _ in 0..budget {
        let scores: Vec<f64> = frontiers
            .iter()
            .zip(classifier.priors())
            .map(|(f, p)| score(f, p))
            .collect();
        let refinable: Vec<bool> = frontiers.iter().map(|f| f.2.can_refine()).collect();
        let Some(class) = scheduler.next_class(&scores, &refinable) else {
            break;
        };
        let (tree, model, cursor) = &mut frontiers[class];
        tree.shard(0)
            .refine_query(&*model, config.descent.into(), cursor);
    }
    let mut stats = QueryStats::default();
    for (_, _, cursor) in &frontiers {
        stats.merge(cursor.stats());
    }
    [stats.queries, stats.nodes_read, stats.elements_scored]
}

/// The classifier scores every class root in one stacked block instead of
/// one `begin_query` per class, and that changes none of its query work:
/// the registry's queries, node reads and scored elements equal the fresh
/// `begin_query` reference, live and pinned.  Each class root counts once
/// per classification — a block gather when the classification built the
/// stacked block, a gather avoided after that — so every classification
/// records `block_gathers + gathers_avoided == classes + nodes_read`.
#[test]
fn classification_counts_each_class_root_once() {
    let _guard = registry_lock();
    let dataset = BlobConfig::new(3, 3)
        .samples_per_class(60)
        .seed(37)
        .generate();
    let config = ClassifierConfig {
        geometry: Some(PageGeometry::from_fanout(4, 5)),
        ..ClassifierConfig::default()
    };
    let mut classifier = AnytimeClassifier::train(&dataset, &config);
    let classes = classifier.num_classes() as u64;
    let objects: Vec<Vec<f64>> = dataset.features().iter().step_by(17).cloned().collect();
    let record = |classify: &dyn Fn() -> usize| {
        let capture = RegistryCapture::begin();
        let nodes_read = classify() as u64;
        let delta = capture.delta();
        let work = [
            delta.counter("bt_queries_total"),
            delta.counter("bt_query_nodes_read_total"),
            delta.counter("bt_query_elements_scored_total"),
        ];
        let gathers = delta.counter("bt_query_block_gathers_total");
        let avoided = delta.counter("bt_query_gathers_avoided_total");
        assert_eq!(gathers + avoided, classes + nodes_read);
        (work, gathers, avoided)
    };
    for round in 0..2 {
        let snapshot = classifier.snapshot();
        for (i, x) in objects.iter().enumerate() {
            for budget in [0, 6, 40] {
                let want = reference_query_work(&classifier, x, budget);
                let (live, live_gathers, _) =
                    record(&|| classifier.classify_with_budget(x, budget).nodes_read);
                let (pinned, pinned_gathers, _) =
                    record(&|| snapshot.classify_with_budget(x, budget).nodes_read);
                assert_eq!(live, want, "round {round}, budget {budget}");
                assert_eq!(pinned, want, "round {round}, budget {budget}");
                // The first classification builds each stacked block and
                // gathers every root; later ones find them built.
                if i == 0 && budget == 0 {
                    assert_eq!(live_gathers, classes);
                    assert_eq!(pinned_gathers, classes);
                }
                // A repeat reads only warm nodes and the built block.
                let (_, repeat_gathers, repeat_avoided) =
                    record(&|| snapshot.classify_with_budget(x, budget).nodes_read);
                assert_eq!(repeat_gathers, 0, "round {round}, budget {budget}");
                assert_eq!(repeat_avoided, classes + live[1]);
            }
        }
        // Learning empties the live classifier's block: the next round
        // builds it again.
        let batch = objects.iter().map(|x| (x.clone(), 1)).collect();
        classifier.learn_batch(batch);
    }
}

/// The query-work counters a classification or k-NN retrieval folds into
/// the registry.
const QUERY_WORK_COUNTERS: &[&str] = &[
    "bt_queries_total",
    "bt_query_elements_scored_total",
    "bt_query_nodes_read_total",
];

/// The query-work deltas `f` records.
fn query_work(f: impl FnOnce()) -> Vec<(&'static str, u64)> {
    let capture = RegistryCapture::begin();
    f();
    counter_values(&capture.delta(), QUERY_WORK_COUNTERS)
}

/// The query-work deltas `f` records on a freshly spawned thread, whose
/// cursor pool is empty.
fn query_work_on_fresh_thread(f: impl FnOnce() + Send) -> Vec<(&'static str, u64)> {
    std::thread::scope(|scope| {
        scope
            .spawn(|| query_work(f))
            .join()
            .expect("fresh-thread call")
    })
}

/// Pooled cursors keep counting across queries, so each classification
/// must fold only the work done since it began: classifying the same
/// object twice in a row records identical deltas, equal to a fresh
/// thread's.  (Double-counting would grow the second delta; the
/// live-vs-snapshot comparison above cannot see it, since both sides
/// would double-count alike.)
#[test]
fn pooled_classifications_record_only_their_own_work() {
    let _guard = registry_lock();
    let dataset = BlobConfig::new(4, 3)
        .samples_per_class(50)
        .seed(31)
        .generate();
    let config = ClassifierConfig {
        geometry: Some(PageGeometry::from_fanout(4, 5)),
        ..ClassifierConfig::default()
    };
    let classifier = AnytimeClassifier::train(&dataset, &config);
    let snapshot = classifier.snapshot();
    let classes = classifier.num_classes() as u64;
    for x in dataset.features().iter().step_by(23) {
        for budget in [0, 6, 40] {
            let first = query_work(|| {
                let _ = snapshot.classify_with_budget(x, budget);
            });
            let second = query_work(|| {
                let _ = snapshot.classify_with_budget(x, budget);
            });
            let fresh = query_work_on_fresh_thread(|| {
                let _ = snapshot.classify_with_budget(x, budget);
            });
            assert_eq!(first, second, "budget {budget}");
            assert_eq!(first, fresh, "budget {budget}");
            assert_eq!(first[0], ("bt_queries_total", classes));

            let nodes_read = snapshot.classify_with_budget(x, budget).nodes_read as u64;
            let live = query_work(|| {
                let _ = classifier.classify_with_budget(x, budget);
            });
            assert_eq!(live, first, "budget {budget}");
            assert_eq!(live[2], ("bt_query_nodes_read_total", nodes_read));
            let trace = query_work(|| {
                let _ = classifier.anytime_trace(x, budget);
            });
            assert_eq!(trace, first, "budget {budget}");
        }
    }
}

/// The k-NN retrieval folds only its own work, too: one query and exactly
/// its node reads per call, the same on a repeat and on a fresh thread.
#[test]
fn pooled_knn_records_only_its_own_work() {
    let _guard = registry_lock();
    let mut tree = ClusTree::new(2, ClusTreeConfig::default());
    for i in 0..300 {
        let c = if i % 2 == 0 { 0.0 } else { 20.0 };
        let jitter = (i % 9) as f64 * 0.1;
        tree.insert(&[c + jitter, c - jitter], i as f64, 10);
    }
    let snapshot = tree.snapshot();
    for budget in [0, 2, 7, 50] {
        let x = [0.5 * budget as f64, 1.0];
        let nodes_read = tree.anytime_knn(&x, 3, budget).nodes_read as u64;
        let first = query_work(|| {
            let _ = tree.anytime_knn(&x, 3, budget);
        });
        let second = query_work(|| {
            let _ = tree.anytime_knn(&x, 3, budget);
        });
        let fresh = query_work_on_fresh_thread(|| {
            let _ = snapshot.anytime_knn(&x, 3, budget);
        });
        let pinned = query_work(|| {
            let _ = snapshot.anytime_knn(&x, 3, budget);
        });
        assert_eq!(first, second, "budget {budget}");
        assert_eq!(first, fresh, "budget {budget}");
        assert_eq!(first, pinned, "budget {budget}");
        assert_eq!(first[0], ("bt_queries_total", 1));
        assert_eq!(first[2], ("bt_query_nodes_read_total", nodes_read));
    }
}

fn gauge(name: &str) -> f64 {
    Registry::global().snapshot().gauge(name).unwrap_or(0.0)
}

/// Pinned batches publish their arena's census: the gauges move by the
/// census a batch leaves behind, the recycled counter by the copies
/// written into recycled versions, and the tree's drop restores both
/// gauges.
#[test]
fn arena_gauges_follow_the_census_of_pinned_batches() {
    let _guard = registry_lock();
    let (live_before, held_before) = (
        gauge("bt_arena_versions_live"),
        gauge("bt_arena_versions_held_by_pins"),
    );
    let capture = RegistryCapture::begin();
    let points = blob_points(480);
    let mut tree: BayesTree = BayesTree::new(3, geometry());
    for chunk in points.chunks(40) {
        let pin = tree.snapshot();
        tree.insert_batch(chunk.to_vec());
        drop(pin);
    }
    // The last batch keeps its pin, so its census has versions held.
    let pin = tree.snapshot();
    tree.insert_batch(points[..40].to_vec());
    let census = tree.arena_census();
    assert!(census.versions_recycled > 0);
    assert!(census.versions_held_by_pins > 0);
    assert_eq!(
        capture.delta().counter("bt_arena_versions_recycled_total"),
        census.versions_recycled
    );
    assert_eq!(
        gauge("bt_arena_versions_live") - live_before,
        census.versions_live as f64
    );
    assert_eq!(
        gauge("bt_arena_versions_held_by_pins") - held_before,
        census.versions_held_by_pins as f64
    );
    drop(pin);
    drop(tree);
    assert_eq!(gauge("bt_arena_versions_live"), live_before);
    assert_eq!(gauge("bt_arena_versions_held_by_pins"), held_before);
}
