//! Epoch-pinned snapshots of the Bayes tree and the anytime classifier.
//!
//! A snapshot is a cheap, owned, `Send + Sync` point-in-time view over the
//! shared core's versioned arena ([`bt_anytree::snapshot`]): queries
//! answered against it are bit-identical to querying the live structure at
//! snapshot time, even while later training batches mutate the tree
//! concurrently (writers copy-on-write any node a snapshot still pins).
//! This is what lets a stream processor keep serving density / outlier /
//! classification queries *while* inserts are flowing.
//!
//! A snapshot is not a type of its own: [`BayesTreeSnapshot`] is the
//! [`BayesIndex`] over a [`ShardedTreeSnapshot`] — one pinned shard per
//! shard of the [`BayesTree`] — and [`ClassifierSnapshot`] the classifier
//! over such trees, so they answer through the very read methods the live
//! structures run.  This module holds only the two constructors.

use crate::classifier::{AnytimeClassifier, Classifier, ClassifierSnapshot};
use crate::node::StoredElement;
use crate::tree::{BayesIndex, BayesTree, BayesTreeSnapshot};
use bt_anytree::ShardedTreeSnapshot;
use std::marker::PhantomData;
use std::sync::{Arc, OnceLock};

impl<E: StoredElement, R> BayesTree<E, R> {
    /// Takes an epoch-pinned snapshot of every shard: each shard's
    /// versioned arena spine is cloned (`O(nodes)` pointer copies), its
    /// published epoch is pinned, and the density-model parameters (global
    /// count, bandwidth) are frozen alongside.
    ///
    /// The snapshot is `Send + Sync` and keeps answering queries
    /// bit-identically to this moment while later inserts mutate the tree.
    #[must_use]
    pub fn snapshot(&self) -> BayesTreeSnapshot<E> {
        BayesIndex {
            core: ShardedTreeSnapshot::new(self.shards()),
            num_points: self.num_points,
            bandwidth: Arc::clone(&self.bandwidth),
            mode: PhantomData,
        }
    }
}

impl AnytimeClassifier {
    /// Takes an epoch-pinned snapshot of every per-class tree plus the
    /// current priors.  Reader threads classify against the snapshot —
    /// bit-identically to this moment — while online learning keeps
    /// mutating the live trees.
    #[must_use]
    pub fn snapshot(&self) -> ClassifierSnapshot {
        Classifier {
            trees: self.trees.iter().map(BayesTree::snapshot).collect(),
            priors: self.priors.clone(),
            class_names: Arc::clone(&self.class_names),
            config: self.config.clone(),
            dims: self.dims,
            roots: OnceLock::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classifier::{Classification, ClassifierConfig};
    use crate::descent::DescentStrategy;
    use bt_data::synth::blobs::BlobConfig;
    use bt_index::PageGeometry;

    fn sample_points(n: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| {
                let c = if i % 2 == 0 { 0.0 } else { 8.0 };
                vec![c + (i % 7) as f64 * 0.1, c + (i % 5) as f64 * 0.1]
            })
            .collect()
    }

    #[test]
    fn tree_snapshot_answers_stay_frozen_under_inserts() {
        let mut tree: BayesTree =
            BayesTree::build_iterative(&sample_points(150), 2, PageGeometry::from_fanout(4, 4));
        let snapshot = tree.snapshot();
        let frozen = snapshot.anytime_density(&[0.4, 0.4], DescentStrategy::default(), 12);
        tree.insert_batch(sample_points(150));
        assert_eq!(
            snapshot.anytime_density(&[0.4, 0.4], DescentStrategy::default(), 12),
            frozen
        );
        // The live tree genuinely moved on.
        assert_ne!(tree.len(), snapshot.len());
        assert!(tree.retired_nodes() > 0);
    }

    #[test]
    fn classifier_snapshot_matches_the_live_classifier() {
        let data = BlobConfig::new(3, 4)
            .samples_per_class(60)
            .seed(3)
            .generate();
        let mut clf = AnytimeClassifier::train(&data, &ClassifierConfig::default());
        let snapshot = clf.snapshot();
        let queries: Vec<Vec<f64>> = (0..10).map(|i| data.feature(i).to_vec()).collect();
        let frozen: Vec<Classification> = queries
            .iter()
            .map(|q| snapshot.classify_with_budget(q, 15))
            .collect();
        for (q, expected) in queries.iter().zip(&frozen) {
            assert_eq!(&clf.classify_with_budget(q, 15), expected);
        }
        // Keep learning, then re-check: the snapshot must not move.
        for i in 0..30 {
            clf.learn_one(data.feature(i).to_vec(), i % 3);
        }
        for (q, expected) in queries.iter().zip(&frozen) {
            assert_eq!(&snapshot.classify_with_budget(q, 15), expected);
        }
    }

    #[test]
    #[should_panic(expected = "query coordinates must not be NaN")]
    fn classifier_snapshot_rejects_a_nan_query() {
        let data = BlobConfig::new(3, 2)
            .samples_per_class(40)
            .seed(3)
            .generate();
        let snapshot = AnytimeClassifier::train(&data, &ClassifierConfig::default()).snapshot();
        let _ = snapshot.classify_with_budget(&[f64::NAN, 10.3], 4);
    }

    #[test]
    fn snapshots_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<BayesTreeSnapshot>();
        assert_send_sync::<ClassifierSnapshot>();
    }

    #[test]
    fn bulk_loaded_trees_publish_an_epoch_covering_their_nodes() {
        use crate::bulk::{build_tree, BulkLoadMethod};
        use bt_anytree::{ShardSet, TreeView};
        let points = sample_points(120);
        for method in BulkLoadMethod::all() {
            let tree = build_tree(&points, 2, PageGeometry::from_fanout(4, 4), method, 7);
            let snapshot = tree.snapshot();
            let core = snapshot.core().shard(0);
            assert!(
                core.epoch() >= 1,
                "{method:?}: bulk build must publish an epoch"
            );
            for id in core.reachable() {
                assert!(
                    core.node_version(id) <= core.epoch(),
                    "{method:?}: node {id} stamped past the published epoch"
                );
            }
        }
    }

    #[test]
    fn classifier_reports_the_node_reads_it_spent() {
        let data = BlobConfig::new(3, 4)
            .samples_per_class(60)
            .seed(9)
            .generate();
        let config = ClassifierConfig {
            geometry: Some(PageGeometry::from_fanout(4, 4)),
            ..ClassifierConfig::default()
        };
        let clf = AnytimeClassifier::train(&data, &config);
        let c = clf.classify_with_budget(data.feature(0), 15);
        assert!(c.nodes_read > 0, "budgeted classification spends reads");
        assert!(c.nodes_read <= 15);
        let snap = clf.snapshot().classify_with_budget(data.feature(0), 15);
        assert_eq!(snap.nodes_read, c.nodes_read);
        // The reported count matches the trace's step count.
        let trace = clf.anytime_trace(data.feature(0), 15);
        assert_eq!(c.nodes_read, trace.labels.len() - 1);
    }
}
