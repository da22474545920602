//! Epoch-pinned snapshots of the clustering index.
//!
//! Not to be confused with [`crate::snapshot`] (the pyramidal *time-frame*
//! store of micro-cluster sets): [`ClusTreeSnapshot`] is an **isolation**
//! snapshot over the shared core's versioned arena — a cheap, owned,
//! `Send + Sync` view whose density / k-NN / outlier answers stay
//! bit-identical to the moment it was taken, while later mini-batches keep
//! mutating the live tree (writers copy-on-write any node a snapshot still
//! pins).  It holds a [`ShardedTreeSnapshot`] — one pinned shard per shard
//! of the [`ClusTree`], one for a plain tree — and answers through the same
//! query fold the live tree uses.

use crate::microcluster::MicroCluster;
use crate::query::{knn_with_decay, ClusQueryModel, KnnAnswer};
use crate::tree::{fold_micro_clusters, ClusTree, ClusTreeConfig};
use bt_anytree::{
    outlier_score_over, query_batch_over, query_over, OutlierScore, QueryAnswer, QueryStats,
    RefineOrder, ShardedTreeSnapshot,
};

/// An epoch-pinned, immutable view of a [`ClusTree`]: one pinned core
/// snapshot per shard (a plain tree is one shard) plus the model parameters
/// (decay rate, current time) frozen at snapshot time.
#[derive(Debug, Clone)]
pub struct ClusTreeSnapshot {
    core: ShardedTreeSnapshot<MicroCluster, MicroCluster>,
    config: ClusTreeConfig,
    current_time: f64,
    num_inserted: usize,
}

impl ClusTreeSnapshot {
    /// Dimensionality of the clustered points.
    #[must_use]
    pub fn dims(&self) -> usize {
        self.core.dims()
    }

    /// Number of objects inserted at snapshot time (across all shards).
    #[must_use]
    pub fn len(&self) -> usize {
        self.num_inserted
    }

    /// Whether the snapshot holds no objects.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.num_inserted == 0
    }

    /// The per-shard epochs this snapshot pins.
    #[must_use]
    pub fn epochs(&self) -> Vec<u64> {
        self.core.epochs()
    }

    /// The latest timestamp seen at snapshot time.
    #[must_use]
    pub fn current_time(&self) -> f64 {
        self.current_time
    }

    /// The underlying per-shard core snapshots.
    #[must_use]
    pub fn core(&self) -> &ShardedTreeSnapshot<MicroCluster, MicroCluster> {
        &self.core
    }

    /// All micro-clusters as of snapshot time, folded over the shards (leaf
    /// entries plus non-empty hitchhiker buffers, decayed to the frozen
    /// current time).
    #[must_use]
    pub fn micro_clusters(&self) -> Vec<MicroCluster> {
        fold_micro_clusters(
            self.core.shards(),
            self.current_time,
            self.config.decay_lambda,
        )
    }

    /// The micro-cluster query model frozen at snapshot time, normalised by
    /// the **global** stored weight across the frozen shards.
    ///
    /// # Panics
    ///
    /// Panics if the bandwidth has the wrong dimensionality or a
    /// non-positive component.
    #[must_use]
    pub fn query_model(&self, bandwidth: &[f64]) -> ClusQueryModel {
        ClusQueryModel::over(self.core.shards(), bandwidth, self.config.decay_lambda)
    }

    /// Budget-bracketed anytime density score against the frozen shards
    /// (see [`ClusTree::anytime_density`]).
    ///
    /// # Panics
    ///
    /// Panics if the query or bandwidth has the wrong dimensionality, or if
    /// the query has a NaN coordinate.
    #[must_use]
    pub fn anytime_density(
        &self,
        x: &[f64],
        bandwidth: &[f64],
        order: RefineOrder,
        budget: usize,
    ) -> QueryAnswer {
        let model = self.query_model(bandwidth);
        query_over(self.core.shards(), &model, x, order, budget)
    }

    /// Batched density queries against the frozen shards (see
    /// [`ClusTree::density_batch`]).
    ///
    /// # Panics
    ///
    /// Panics if any query or the bandwidth has the wrong dimensionality,
    /// or if a query has a NaN coordinate.
    #[must_use]
    pub fn density_batch(
        &self,
        queries: &[Vec<f64>],
        bandwidth: &[f64],
        order: RefineOrder,
        budget: usize,
    ) -> (Vec<QueryAnswer>, QueryStats) {
        let model = self.query_model(bandwidth);
        query_batch_over(self.core.shards(), &model, queries, order, budget)
    }

    /// Anytime k-NN micro-cluster retrieval against the frozen shards (see
    /// [`ClusTree::anytime_knn`]).
    ///
    /// # Panics
    ///
    /// Panics if the query has the wrong dimensionality or a NaN
    /// coordinate.
    #[must_use]
    pub fn anytime_knn(&self, x: &[f64], k: usize, budget: usize) -> KnnAnswer {
        knn_with_decay(self.core.shards(), self.config.decay_lambda, x, k, budget)
    }

    /// Anytime outlier scoring against the frozen shards (see
    /// [`ClusTree::outlier_score`]).
    ///
    /// # Panics
    ///
    /// Panics if the query or bandwidth has the wrong dimensionality, or if
    /// the query has a NaN coordinate.
    #[must_use]
    pub fn outlier_score(
        &self,
        x: &[f64],
        bandwidth: &[f64],
        threshold: f64,
        budget: usize,
    ) -> OutlierScore {
        let model = self.query_model(bandwidth);
        outlier_score_over(self.core.shards(), &model, x, threshold, budget)
    }
}

impl<R> ClusTree<R> {
    /// Takes an epoch-pinned snapshot of every shard: each shard's
    /// versioned arena spine is cloned, its published epoch pinned, and the
    /// model parameters (decay rate, current time, insert count) frozen
    /// alongside.  `Send + Sync`; keeps answering the folded density /
    /// k-NN / outlier surface bit-identically to this moment while later
    /// batches mutate the tree.
    #[must_use]
    pub fn snapshot(&self) -> ClusTreeSnapshot {
        ClusTreeSnapshot {
            core: ShardedTreeSnapshot::new(self.shards()),
            config: self.config().clone(),
            current_time: self.current_time(),
            num_inserted: self.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bt_anytree::OutlierVerdict;

    fn two_cluster_stream(n: usize) -> Vec<(Vec<f64>, f64)> {
        (0..n)
            .map(|i| {
                let c = if i % 2 == 0 { 0.0 } else { 20.0 };
                let jitter = (i % 9) as f64 * 0.1;
                (vec![c + jitter, c - jitter], i as f64)
            })
            .collect()
    }

    #[test]
    fn snapshot_density_and_knn_stay_frozen_under_inserts() {
        let mut tree = ClusTree::new(2, ClusTreeConfig::default());
        for (p, t) in two_cluster_stream(200) {
            tree.insert(&p, t, 8);
        }
        let snapshot = tree.snapshot();
        let bandwidth = [1.5, 1.5];
        let frozen = snapshot.anytime_density(&[0.5, -0.5], &bandwidth, RefineOrder::BestFirst, 10);
        let frozen_knn = snapshot.anytime_knn(&[0.5, -0.5], 3, 25);
        let frozen_mcs = snapshot.micro_clusters().len();

        for (p, t) in two_cluster_stream(200) {
            tree.insert(&p, 200.0 + t, 8);
        }
        assert_eq!(
            snapshot.anytime_density(&[0.5, -0.5], &bandwidth, RefineOrder::BestFirst, 10),
            frozen
        );
        let again = snapshot.anytime_knn(&[0.5, -0.5], 3, 25);
        assert_eq!(again.nodes_read, frozen_knn.nodes_read);
        for (a, b) in again.neighbors.iter().zip(&frozen_knn.neighbors) {
            assert_eq!(a.center, b.center);
            assert_eq!(a.sq_dist, b.sq_dist);
        }
        assert_eq!(snapshot.micro_clusters().len(), frozen_mcs);
        assert_eq!(snapshot.len(), 200);
        assert_eq!(tree.len(), 400);
    }

    #[test]
    fn mbr_backed_upper_bound_certifies_far_outliers_quickly() {
        let mut tree = ClusTree::new(2, ClusTreeConfig::default());
        for (p, t) in two_cluster_stream(400) {
            tree.insert(&p, t, 10);
        }
        let bandwidth = [1.0, 1.0];
        let score = tree.outlier_score(&[500.0, 500.0], &bandwidth, 1e-6, 10_000);
        assert_eq!(score.verdict, OutlierVerdict::Outlier);
        // With the distance-aware MBR bound the verdict is near-immediate —
        // the bare-CF peak bound needed refinement down to leaf granularity.
        assert!(
            score.answer.nodes_read <= 2,
            "MBR bound should certify a far outlier in <=2 reads, took {}",
            score.answer.nodes_read
        );
    }

    #[test]
    fn snapshots_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ClusTreeSnapshot>();
    }

    #[test]
    #[should_panic(expected = "query coordinates must not be NaN")]
    fn snapshot_rejects_a_nan_query() {
        let mut tree = ClusTree::new(2, ClusTreeConfig::default());
        for (p, t) in two_cluster_stream(100) {
            tree.insert(&p, t, 8);
        }
        let _ = tree.snapshot().anytime_knn(&[0.0, f64::NAN], 3, 8);
    }
}
