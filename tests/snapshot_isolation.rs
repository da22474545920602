//! Property tests for epoch-versioned snapshot isolation: a pinned snapshot
//! answers **bit-identically to the pre-batch tree** while a batch commits
//! concurrently.
//!
//! Locked down for both instantiations (Bayes tree and ClusTree) and their
//! sharded variants:
//!
//! * a snapshot pinned before a batch returns exactly the pre-batch
//!   density / k-NN answers even while a writer thread is mutating the tree
//!   at the same time (the writes copy-on-write every node the snapshot
//!   still pins),
//! * the sharded **pipelined mode** ([`pipelined_batch`]) — writers drain a
//!   mini-batch per shard while readers refine against the pre-batch
//!   snapshot — returns exactly the answers `query_batch` gave before the
//!   batch,
//! * the no-reader fast path never copies a node, and dropping the last
//!   snapshot unpins its epoch,
//! * **one reader**: every read the live tree and its snapshot share —
//!   Bayes density, batched density and outlier scores (both stored modes,
//!   1 and 3 shards), ClusTree density, batched density, k-NN, outlier
//!   scores and micro-clusters, classifier decisions and traces — gives the
//!   same bits on both at the same epoch, and the snapshot keeps those bits
//!   after one more batch.

use anytime_stream_mining::anytree::{OutlierScore, QueryAnswer, RefineOrder, ShardSet};
use anytime_stream_mining::bayestree::{
    AnytimeClassifier, BayesIndex, BayesTree, Classification, Classifier, ClassifierConfig,
    DescentStrategy, KernelSummary, Quantized, StoredElement,
};
use anytime_stream_mining::clustree::{ClusIndex, ClusTree, ClusTreeConfig, MicroCluster};
use anytime_stream_mining::data::synth::blobs::BlobConfig;
use anytime_stream_mining::index::PageGeometry;
use proptest::prelude::*;

/// Strategy producing a bounded set of 3-d points.
fn stream_strategy(max_len: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(prop::collection::vec(-5.0f64..5.0, 3), 12..max_len)
}

fn geometry() -> PageGeometry {
    PageGeometry::from_fanout(4, 4)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn bayes_snapshot_is_isolated_from_a_concurrent_batch(
        points in stream_strategy(100),
        extra in stream_strategy(100),
        qx in -6.0f64..6.0,
        budget in 0usize..40,
    ) {
        let mut tree: BayesTree = BayesTree::new(3, geometry());
        for chunk in points.chunks(16) {
            tree.insert_batch(chunk.to_vec());
        }
        tree.set_bandwidth(vec![0.8, 0.8, 0.8]);
        let pre_batch = tree.clone();
        let snapshot = tree.snapshot();
        let queries = vec![vec![qx, -qx, qx * 0.5], vec![0.0, 0.0, 0.0]];

        // Query the snapshot WHILE a writer thread commits the next batch.
        let mut concurrent = Vec::new();
        std::thread::scope(|scope| {
            let writer = scope.spawn(|| {
                for chunk in extra.chunks(8) {
                    tree.insert_batch(chunk.to_vec());
                }
            });
            for q in &queries {
                concurrent.push(snapshot.anytime_density(q, DescentStrategy::default(), budget));
            }
            writer.join().expect("writer thread");
        });

        // Bit-identical to the pre-batch tree, during and after the batch.
        for (q, got) in queries.iter().zip(&concurrent) {
            let expected = pre_batch.anytime_density(q, DescentStrategy::default(), budget);
            prop_assert_eq!(got, &expected);
            prop_assert_eq!(
                snapshot.anytime_density(q, DescentStrategy::default(), budget),
                expected
            );
        }
        prop_assert_eq!(snapshot.len(), pre_batch.len());
    }

    #[test]
    fn clustree_snapshot_is_isolated_from_a_concurrent_batch(
        points in stream_strategy(90),
        extra in stream_strategy(90),
        qx in -6.0f64..6.0,
        budget in 0usize..30,
    ) {
        let mut tree = ClusTree::new(3, ClusTreeConfig::default());
        for (i, chunk) in points.chunks(12).enumerate() {
            let _ = tree.insert_batch(chunk, i as f64, 4);
        }
        let pre_batch = tree.clone();
        let snapshot = tree.snapshot();
        let bandwidth = [1.2, 1.2, 1.2];
        let query = vec![qx, qx * 0.3, -qx];

        let mut concurrent_density = None;
        let mut concurrent_knn = None;
        std::thread::scope(|scope| {
            let writer = scope.spawn(|| {
                for (i, chunk) in extra.chunks(8).enumerate() {
                    let _ = tree.insert_batch(chunk, 100.0 + i as f64, 4);
                }
            });
            concurrent_density =
                Some(snapshot.anytime_density(&query, &bandwidth, RefineOrder::WidestBound, budget));
            concurrent_knn = Some(snapshot.anytime_knn(&query, 3, budget));
            writer.join().expect("writer thread");
        });

        let expected =
            pre_batch.anytime_density(&query, &bandwidth, RefineOrder::WidestBound, budget);
        prop_assert_eq!(concurrent_density.unwrap(), expected);
        let expected_knn = pre_batch.anytime_knn(&query, 3, budget);
        let got_knn = concurrent_knn.unwrap();
        prop_assert_eq!(got_knn.nodes_read, expected_knn.nodes_read);
        prop_assert_eq!(got_knn.neighbors.len(), expected_knn.neighbors.len());
        for (a, b) in got_knn.neighbors.iter().zip(&expected_knn.neighbors) {
            prop_assert_eq!(&a.center, &b.center);
            prop_assert_eq!(a.weight, b.weight);
            prop_assert_eq!(a.sq_dist, b.sq_dist);
            prop_assert_eq!(a.depth, b.depth);
        }
    }

    #[test]
    fn sharded_bayes_pipelined_batch_returns_pre_batch_answers(
        points in stream_strategy(100),
        extra in stream_strategy(100),
        shards in 1usize..5,
        budget in 0usize..30,
    ) {
        let mut tree: BayesTree = BayesTree::sharded(3, geometry(), shards);
        for chunk in points.chunks(16) {
            let _ = tree.insert_batch(chunk.to_vec());
        }
        tree.set_bandwidth(vec![0.7, 0.9, 0.8]);
        let queries: Vec<Vec<f64>> = points.iter().take(4).cloned().collect();

        // The reference: what the live tree answers BEFORE the batch.
        let (expected, _) = tree.density_batch(&queries, DescentStrategy::default(), budget);
        // Snapshot taken before the batch answers identically...
        let snapshot = tree.snapshot();
        // ...and the pipelined batch's readers must return exactly that.
        let outcome =
            tree.pipelined_batch(extra.clone(), &queries, DescentStrategy::default(), budget);
        prop_assert_eq!(outcome.insert.outcomes.len(), extra.len());
        prop_assert_eq!(&outcome.answers, &expected);
        let (from_snapshot, _) = snapshot.density_batch(&queries, DescentStrategy::default(), budget);
        prop_assert_eq!(&from_snapshot, &expected);
        // The live tree has moved on to the post-batch state.
        prop_assert_eq!(tree.len(), points.len() + extra.len());
        tree.validate(true).expect("valid after pipelined batch");
    }

    #[test]
    fn sharded_clustree_pipelined_batch_returns_pre_batch_answers(
        points in stream_strategy(90),
        extra in stream_strategy(90),
        shards in 1usize..4,
        budget in 0usize..25,
    ) {
        let mut tree: ClusTree = ClusTree::sharded(3, ClusTreeConfig::default(), shards);
        for (i, chunk) in points.chunks(12).enumerate() {
            let _ = tree.insert_batch(chunk, i as f64, 4);
        }
        let bandwidth = [1.5, 1.5, 1.5];
        let queries: Vec<Vec<f64>> = points.iter().take(3).cloned().collect();

        let (expected, _) =
            tree.density_batch(&queries, &bandwidth, RefineOrder::BestFirst, budget);
        let outcome = tree.pipelined_batch(
            &extra,
            1_000.0,
            4,
            &queries,
            &bandwidth,
            RefineOrder::BestFirst,
            budget,
        );
        prop_assert_eq!(outcome.insert.outcomes.len(), extra.len());
        prop_assert_eq!(&outcome.answers, &expected);
        prop_assert_eq!(tree.len(), points.len() + extra.len());
        tree.validate().expect("valid after pipelined batch");
    }
}

#[test]
fn no_reader_fast_path_never_copies_and_pins_release() {
    let mut tree: BayesTree = BayesTree::new(3, geometry());
    let points: Vec<Vec<f64>> = (0..200)
        .map(|i| vec![(i % 13) as f64, (i % 7) as f64, (i % 5) as f64])
        .collect();
    for chunk in points.chunks(20) {
        tree.insert_batch(chunk.to_vec());
    }
    assert_eq!(tree.retired_nodes(), 0);

    let snapshot = tree.snapshot();
    assert_eq!(tree.pinned_snapshots(), 1);
    assert_eq!(snapshot.epochs(), tree.epochs());
    tree.insert_batch(points[..40].to_vec());
    let copied = tree.retired_nodes();
    assert!(copied > 0, "pinned snapshot forces copy-on-write");
    drop(snapshot);
    assert_eq!(tree.pinned_snapshots(), 0);
    tree.insert_batch(points[..40].to_vec());
    assert_eq!(
        tree.retired_nodes(),
        copied,
        "unpinned writes go in place again"
    );
}

#[test]
fn clustree_counters_mirror_the_bayes_tree() {
    let mut tree = ClusTree::new(2, ClusTreeConfig::default());
    for i in 0..120 {
        tree.insert(&[(i % 11) as f64, (i % 7) as f64], i as f64, 6);
    }
    assert_eq!(tree.retired_nodes(), 0);
    assert_eq!(tree.epochs(), vec![120]);
    let snapshot = tree.snapshot();
    assert_eq!(tree.pinned_snapshots(), 1);
    tree.insert(&[0.0, 0.0], 121.0, 6);
    assert!(tree.retired_nodes() > 0);
    drop(snapshot);
    assert_eq!(tree.pinned_snapshots(), 0);
}

/// The bits of one density answer.
fn answer_bits(a: &QueryAnswer, out: &mut Vec<u64>) {
    out.extend([a.estimate, a.lower, a.upper].map(f64::to_bits));
    out.push(a.nodes_read as u64);
}

/// The bits of one outlier score.
fn score_bits(s: &OutlierScore, out: &mut Vec<u64>) {
    answer_bits(&s.answer, out);
    out.push(s.verdict as u64);
}

/// Every read a Bayes tree and its snapshot share, as bits: the count,
/// one-shot and batched density at each budget, and outlier scores at two
/// thresholds.
fn bayes_reads<E: StoredElement, C: ShardSet<E::Summary, Vec<f64>>>(
    index: &BayesIndex<E, C>,
    queries: &[Vec<f64>],
) -> Vec<u64> {
    let mut out = vec![index.len() as u64];
    out.extend(index.bandwidth().iter().map(|h| h.to_bits()));
    for budget in [0, 3, 12, usize::MAX] {
        for q in queries {
            answer_bits(
                &index.anytime_density(q, DescentStrategy::default(), budget),
                &mut out,
            );
        }
        let (batch, _) = index.density_batch(queries, DescentStrategy::default(), budget);
        batch.iter().for_each(|a| answer_bits(a, &mut out));
        for q in queries {
            for threshold in [1e-4, 0.05] {
                score_bits(&index.outlier_score(q, threshold, budget), &mut out);
            }
        }
    }
    out
}

/// Builds a Bayes tree of `shards` shards in mode `E`, checks that its
/// snapshot reads the same bits as the live tree, commits one more batch
/// and checks that the snapshot still reads them.
fn check_bayes_parity<E: StoredElement>(points: &[Vec<f64>], extra: &[Vec<f64>], shards: usize) {
    let mut tree: BayesTree<E> = BayesTree::sharded(3, geometry(), shards);
    for chunk in points.chunks(16) {
        tree.insert_batch(chunk.to_vec());
    }
    tree.set_bandwidth(vec![0.8, 1.1, 0.9]);
    let queries: Vec<Vec<f64>> = points
        .iter()
        .take(3)
        .cloned()
        .chain([vec![9.0; 3]])
        .collect();
    let snapshot = tree.snapshot();
    assert_eq!(snapshot.epochs(), tree.epochs());
    assert_eq!(snapshot.dims(), tree.dims());
    let live = bayes_reads(&tree, &queries);
    assert_eq!(&bayes_reads(&snapshot, &queries), &live);
    tree.insert_batch(extra.to_vec());
    assert_eq!(&bayes_reads(&snapshot, &queries), &live);
}

/// Every read a ClusTree and its snapshot share, as bits.
fn clustree_reads<C: ShardSet<MicroCluster, MicroCluster>>(
    index: &ClusIndex<C>,
    queries: &[Vec<f64>],
) -> Vec<u64> {
    let bandwidth = [1.3, 0.9, 1.1];
    let mut out = vec![index.len() as u64, index.current_time().to_bits()];
    for budget in [0, 2, 9, usize::MAX] {
        for q in queries {
            let density = index.anytime_density(q, &bandwidth, RefineOrder::BestFirst, budget);
            answer_bits(&density, &mut out);
            score_bits(&index.outlier_score(q, &bandwidth, 0.01, budget), &mut out);
            let knn = index.anytime_knn(q, 3, budget);
            out.push(knn.nodes_read as u64);
            for n in &knn.neighbors {
                out.extend(n.center.iter().map(|c| c.to_bits()));
                out.extend([n.weight, n.radius, n.sq_dist].map(f64::to_bits));
                out.extend([n.depth as u64, u64::from(n.refinable)]);
            }
        }
        let (batch, _) = index.density_batch(queries, &bandwidth, RefineOrder::WidestBound, budget);
        batch.iter().for_each(|a| answer_bits(a, &mut out));
    }
    for mc in index.micro_clusters() {
        out.extend(mc.center().iter().map(|c| c.to_bits()));
        out.extend([mc.weight(), mc.radius()].map(f64::to_bits));
    }
    out
}

/// The bits of one classification.
fn classification_bits(c: &Classification, out: &mut Vec<u64>) {
    out.extend([c.label as u64, c.nodes_read as u64]);
    out.extend(c.posteriors.iter().map(|p| p.to_bits()));
}

/// Every read a classifier and its snapshot share, as bits.
fn classifier_reads<C: ShardSet<KernelSummary, Vec<f64>>>(
    classifier: &Classifier<BayesIndex<f64, C>>,
    queries: &[Vec<f64>],
) -> Vec<u64> {
    let mut out: Vec<u64> = classifier.priors().iter().map(|p| p.to_bits()).collect();
    out.push(classifier.num_classes() as u64);
    for q in queries {
        for budget in [0, 4, 20] {
            classification_bits(&classifier.classify_with_budget(q, budget), &mut out);
        }
        let trace = classifier.anytime_trace(q, 20);
        out.extend(trace.labels.iter().map(|&l| l as u64));
        out.extend(trace.final_posteriors.iter().map(|p| p.to_bits()));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn bayes_snapshot_reads_the_live_bits(
        points in stream_strategy(90),
        extra in stream_strategy(40),
    ) {
        for shards in [1, 3] {
            check_bayes_parity::<f64>(&points, &extra, shards);
            check_bayes_parity::<Quantized>(&points, &extra, shards);
        }
    }

    #[test]
    fn clustree_snapshot_reads_the_live_bits(
        points in stream_strategy(90),
        extra in stream_strategy(40),
        shards in 1usize..4,
    ) {
        // Decay makes the micro-clusters depend on the frozen current time.
        let config = ClusTreeConfig { decay_lambda: 0.05, ..ClusTreeConfig::default() };
        let mut tree: ClusTree = ClusTree::sharded(3, config, shards);
        for (i, chunk) in points.chunks(12).enumerate() {
            let _ = tree.insert_batch(chunk, i as f64, 3);
        }
        let queries: Vec<Vec<f64>> = points.iter().take(3).cloned().collect();
        let snapshot = tree.snapshot();
        prop_assert_eq!(snapshot.epochs(), tree.epochs());
        prop_assert_eq!(snapshot.dims(), tree.dims());
        let live = clustree_reads(&tree, &queries);
        prop_assert_eq!(&clustree_reads(&snapshot, &queries), &live);
        let _ = tree.insert_batch(&extra, 50.0, 3);
        prop_assert_eq!(&clustree_reads(&snapshot, &queries), &live);
    }
}

#[test]
fn classifier_snapshot_reads_the_live_bits() {
    let data = BlobConfig::new(3, 3)
        .samples_per_class(60)
        .seed(5)
        .generate();
    let config = ClassifierConfig {
        geometry: Some(PageGeometry::from_fanout(4, 4)),
        ..ClassifierConfig::default()
    };
    let mut classifier = AnytimeClassifier::train(&data, &config);
    let queries: Vec<Vec<f64>> = (0..12).map(|i| data.feature(i * 13).to_vec()).collect();
    let snapshot = classifier.snapshot();
    assert_eq!(snapshot.dims(), classifier.dims());
    let live = classifier_reads(&classifier, &queries);
    assert_eq!(classifier_reads(&snapshot, &queries), live);
    classifier.learn_batch((0..40).map(|i| (data.feature(i).to_vec(), i % 3)).collect());
    assert_eq!(classifier_reads(&snapshot, &queries), live);
    // The batch moved the live classifier, so the check above has teeth.
    assert_ne!(classifier_reads(&classifier, &queries), live);
}
