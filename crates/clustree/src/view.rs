//! Epoch-pinned snapshots of the clustering index.
//!
//! Not to be confused with [`crate::snapshot`] (the pyramidal *time-frame*
//! store of micro-cluster sets): [`ClusTreeSnapshot`] is an **isolation**
//! snapshot over the shared core's versioned arena — a cheap, owned,
//! `Send + Sync` view whose density / k-NN / outlier answers stay
//! bit-identical to the moment it was taken, while later mini-batches keep
//! mutating the live tree (writers copy-on-write any node a snapshot still
//! pins).
//!
//! A snapshot is not a type of its own: [`ClusTreeSnapshot`] is the
//! [`ClusIndex`] over a [`ShardedTreeSnapshot`] — one pinned shard per
//! shard of the [`ClusTree`] — so it answers through the very read methods
//! the live tree runs.  This module holds only its constructor.

use crate::tree::{ClusIndex, ClusTree, ClusTreeSnapshot};
use bt_anytree::ShardedTreeSnapshot;

impl<R> ClusTree<R> {
    /// Takes an epoch-pinned snapshot of every shard: each shard's
    /// versioned arena spine is cloned, its published epoch pinned, and the
    /// model parameters (decay rate, current time, insert count) frozen
    /// alongside.  `Send + Sync`; keeps answering the folded density /
    /// k-NN / outlier surface bit-identically to this moment while later
    /// batches mutate the tree.
    #[must_use]
    pub fn snapshot(&self) -> ClusTreeSnapshot {
        ClusIndex {
            config: self.config.clone(),
            core: ShardedTreeSnapshot::new(self.shards()),
            num_inserted: self.num_inserted,
            current_time: self.current_time,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::ClusTreeConfig;
    use bt_anytree::{OutlierVerdict, RefineOrder};

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
