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
//! A [`BayesTreeSnapshot`] holds a [`ShardedTreeSnapshot`] — one pinned
//! shard per shard of the [`BayesTree`], one for a plain tree — and answers
//! through the same query fold the live tree uses.

use crate::classifier::{
    run_anytime_over, AnytimeClassifier, AnytimeTrace, ClassForest, Classification, RootBlock,
};
use crate::descent::DescentStrategy;
use crate::node::StoredElement;
use crate::qbk::RefinementStrategy;
use crate::query::KernelQueryModel;
use crate::tree::BayesTree;
use bt_anytree::{
    outlier_score_over, query_batch_over, query_over, OutlierScore, QueryAnswer, QueryStats,
    ShardedTreeSnapshot,
};
use bt_stats::KernelBandwidth;
use std::sync::{Arc, OnceLock};

/// An epoch-pinned, immutable view of a [`BayesTree`]: one pinned core
/// snapshot per shard (a plain tree is one shard) plus the density-model
/// parameters (global observation count, bandwidth) frozen at snapshot
/// time.
#[derive(Debug, Clone)]
pub struct BayesTreeSnapshot<E: StoredElement = f64> {
    core: ShardedTreeSnapshot<E::Summary, Vec<f64>>,
    num_points: usize,
    bandwidth: Arc<KernelBandwidth>,
}

impl<E: StoredElement> BayesTreeSnapshot<E> {
    /// Dimensionality of the stored kernels.
    #[must_use]
    pub fn dims(&self) -> usize {
        self.core.dims()
    }

    /// Number of observations stored at snapshot time (across all shards).
    #[must_use]
    pub fn len(&self) -> usize {
        self.num_points
    }

    /// Whether the snapshot holds no observations.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.num_points == 0
    }

    /// The per-shard epochs this snapshot pins.
    #[must_use]
    pub fn epochs(&self) -> Vec<u64> {
        self.core.epochs()
    }

    /// The kernel bandwidth frozen at snapshot time.
    #[must_use]
    pub fn bandwidth(&self) -> &[f64] {
        self.bandwidth.values()
    }

    /// The underlying per-shard core snapshots (for frontier construction
    /// and inspection through [`bt_anytree::TreeView`]).
    #[must_use]
    pub fn core(&self) -> &ShardedTreeSnapshot<E::Summary, Vec<f64>> {
        &self.core
    }

    /// The kernel-density query model frozen at snapshot time, normalised
    /// by the global observation count.
    #[must_use]
    pub fn query_model(&self) -> KernelQueryModel<'_> {
        KernelQueryModel::new(self.num_points, &self.bandwidth)
    }

    /// Budget-bracketed anytime density query against the frozen shards —
    /// exactly what the live tree's `anytime_density` returned at snapshot
    /// time.
    ///
    /// # Panics
    ///
    /// Panics if the query has the wrong dimensionality or a NaN
    /// coordinate.
    #[must_use]
    pub fn anytime_density(
        &self,
        x: &[f64],
        strategy: DescentStrategy,
        budget: usize,
    ) -> QueryAnswer {
        let model = self.query_model();
        query_over(self.core.shards(), &model, x, strategy.into(), budget)
    }

    /// Batched density queries against the frozen shards (see
    /// [`BayesTree::density_batch`]).
    ///
    /// # Panics
    ///
    /// Panics if any query has the wrong dimensionality or a NaN
    /// coordinate.
    #[must_use]
    pub fn density_batch(
        &self,
        queries: &[Vec<f64>],
        strategy: DescentStrategy,
        budget: usize,
    ) -> (Vec<QueryAnswer>, QueryStats) {
        let model = self.query_model();
        query_batch_over(self.core.shards(), &model, queries, strategy.into(), budget)
    }

    /// Anytime outlier scoring against the frozen shards (see
    /// [`BayesTree::outlier_score`]).
    ///
    /// # Panics
    ///
    /// Panics if the query has the wrong dimensionality or a NaN
    /// coordinate.
    #[must_use]
    pub fn outlier_score(&self, x: &[f64], threshold: f64, budget: usize) -> OutlierScore {
        let model = self.query_model();
        outlier_score_over(self.core.shards(), &model, x, threshold, budget)
    }
}

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
        BayesTreeSnapshot {
            core: ShardedTreeSnapshot::new(self.shards()),
            num_points: self.len(),
            bandwidth: Arc::clone(self.kernel_bandwidth()),
        }
    }
}

/// An epoch-pinned, immutable view of an [`AnytimeClassifier`]: one
/// per-class [`BayesTreeSnapshot`] plus the priors frozen at snapshot time.
///
/// `Send + Sync`, so classification keeps running on reader threads while
/// [`AnytimeClassifier::learn_batch`] drains new labelled observations into
/// the live per-class trees.
#[derive(Debug, Clone)]
pub struct ClassifierSnapshot {
    trees: Vec<BayesTreeSnapshot>,
    priors: Vec<f64>,
    refinement: RefinementStrategy,
    descent: DescentStrategy,
    dims: usize,
    /// The frozen class roots' stacked block, gathered by the snapshot's
    /// first classification.
    roots: OnceLock<RootBlock>,
}

impl ClassifierSnapshot {
    /// Number of classes.
    #[must_use]
    pub fn num_classes(&self) -> usize {
        self.trees.len()
    }

    /// Feature dimensionality.
    #[must_use]
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// The class priors frozen at snapshot time.
    #[must_use]
    pub fn priors(&self) -> &[f64] {
        &self.priors
    }

    /// The per-class tree snapshots.
    #[must_use]
    pub fn trees(&self) -> &[BayesTreeSnapshot] {
        &self.trees
    }

    /// Classifies `x` spending at most `budget` node reads against the
    /// frozen per-class trees — exactly what
    /// [`AnytimeClassifier::classify_with_budget`] returned at snapshot
    /// time.
    ///
    /// # Panics
    ///
    /// Panics if the query has the wrong dimensionality or a NaN
    /// coordinate.
    #[must_use]
    pub fn classify_with_budget(&self, x: &[f64], budget: usize) -> Classification {
        let (trace, nodes_read) = self.run_anytime(x, budget, false);
        Classification {
            label: *trace.labels.last().expect("trace is never empty"),
            posteriors: trace.final_posteriors,
            nodes_read,
        }
    }

    /// The full anytime trace against the frozen per-class trees (see
    /// [`AnytimeClassifier::anytime_trace`]).
    ///
    /// # Panics
    ///
    /// Panics if the query has the wrong dimensionality or a NaN
    /// coordinate.
    #[must_use]
    pub fn anytime_trace(&self, x: &[f64], max_nodes: usize) -> AnytimeTrace {
        self.run_anytime(x, max_nodes, true).0
    }

    fn run_anytime(&self, x: &[f64], budget: usize, record_all: bool) -> (AnytimeTrace, usize) {
        assert_eq!(x.len(), self.dims, "query dimensionality mismatch");
        let classes: Vec<_> = self
            .trees
            .iter()
            .map(|t| (t.core().shard(0), t.query_model()))
            .collect();
        let forest = ClassForest {
            classes,
            roots: &self.roots,
            priors: &self.priors,
            refinement: self.refinement,
            descent: self.descent,
        };
        run_anytime_over(&forest, x, budget, record_all)
    }
}

impl AnytimeClassifier {
    /// Takes an epoch-pinned snapshot of every per-class tree plus the
    /// current priors.  Reader threads classify against the snapshot —
    /// bit-identically to this moment — while online learning keeps
    /// mutating the live trees.
    #[must_use]
    pub fn snapshot(&self) -> ClassifierSnapshot {
        ClassifierSnapshot {
            trees: self.trees().iter().map(BayesTree::snapshot).collect(),
            priors: self.priors().to_vec(),
            refinement: self.config().refinement,
            descent: self.config().descent,
            dims: self.dims(),
            roots: OnceLock::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classifier::ClassifierConfig;
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
        use bt_anytree::TreeView;
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
