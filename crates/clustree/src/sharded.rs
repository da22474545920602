//! Tests of the ClusTree at `K` shards: every mini-batch splits across the
//! shards and descends in parallel, and the offline step, the snapshots and
//! the queries fold the per-shard micro-clusters into one model.

#[cfg(test)]
mod tests {
    use crate::microcluster::MicroCluster;
    use crate::offline::DbscanConfig;
    use crate::query::{knn_over, ClusQueryModel};
    use crate::snapshot::SnapshotStore;
    use crate::tree::{ClusCore, ClusModel, ClusTree, ClusTreeConfig};
    use bt_anytree::{query_over, FixedPartitionRouter, RefineOrder};

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
    fn sharded_batches_conserve_mass_and_stay_valid() {
        let stream = two_cluster_stream(512);
        let mut tree: ClusTree = ClusTree::sharded(2, ClusTreeConfig::default(), 4);
        for (batch_idx, chunk) in stream.chunks(32).enumerate() {
            let points: Vec<Vec<f64>> = chunk.iter().map(|(p, _)| p.clone()).collect();
            let routed_before: usize = tree.shard_sizes().iter().sum();
            let result = tree.insert_batch(&points, batch_idx as f64, 8);
            assert_eq!(result.outcomes.len(), points.len());
            assert_eq!(result.depths.total(), points.len());
            let routed: usize = tree.shard_sizes().iter().sum();
            assert_eq!(routed - routed_before, points.len());
        }
        assert_eq!(tree.len(), 512);
        assert!((tree.total_weight() - 512.0).abs() < 1e-6);
        tree.validate().expect("valid sharded tree");
        assert!(tree.num_micro_clusters() >= 2);
    }

    #[test]
    fn offline_step_folds_the_shards() {
        let stream = two_cluster_stream(400);
        let mut tree: ClusTree = ClusTree::sharded(2, ClusTreeConfig::default(), 3);
        for (batch_idx, chunk) in stream.chunks(50).enumerate() {
            let points: Vec<Vec<f64>> = chunk.iter().map(|(p, _)| p.clone()).collect();
            let _ = tree.insert_batch(&points, batch_idx as f64, 10);
        }
        let macro_result = tree.offline_clustering(&DbscanConfig {
            epsilon: 3.0,
            min_weight: 10.0,
        });
        // Two well-separated clusters survive the shard fold.
        assert!(
            macro_result.num_clusters >= 2,
            "{}",
            macro_result.num_clusters
        );

        let mut store = SnapshotStore::new(2);
        tree.record_snapshot(&mut store, 8);
        assert_eq!(store.len(), 1);
        assert_eq!(
            store.closest_before(8.0).unwrap().micro_clusters.len(),
            tree.num_micro_clusters()
        );
    }

    #[test]
    fn fixed_router_shards_match_partitioned_plain_trees() {
        let stream = two_cluster_stream(240);
        let shards = 3;
        let mut sharded: ClusTree<FixedPartitionRouter> =
            ClusTree::sharded(2, ClusTreeConfig::default(), shards);
        let mut plain: Vec<ClusTree> = (0..shards)
            .map(|_| ClusTree::new(2, ClusTreeConfig::default()))
            .collect();
        for (batch_idx, chunk) in stream.chunks(24).enumerate() {
            let points: Vec<Vec<f64>> = chunk.iter().map(|(p, _)| p.clone()).collect();
            let timestamp = batch_idx as f64;
            // Mirror the round-robin deal (the rotation continues across
            // batches: 24 % 3 == 0, so each batch starts at shard 0).
            let mut parts: Vec<Vec<Vec<f64>>> = vec![Vec::new(); shards];
            for (i, p) in points.iter().enumerate() {
                parts[i % shards].push(p.clone());
            }
            let before = sharded.shard_sizes().to_vec();
            let _ = sharded.insert_batch(&points, timestamp, 6);
            for (k, part) in parts.into_iter().enumerate() {
                let reference = plain[k].insert_batch(&part, timestamp, 6);
                let routed = sharded.shard_sizes()[k] - before[k];
                assert_eq!(routed, reference.outcomes.len());
            }
        }
        assert_eq!(
            sharded.num_nodes(),
            plain.iter().map(ClusTree::num_nodes).sum::<usize>()
        );
        let plain_weight: f64 = plain.iter().map(ClusTree::total_weight).sum();
        assert!((sharded.total_weight() - plain_weight).abs() < 1e-6);
    }

    #[test]
    fn zero_budget_parks_across_shards() {
        let mut tree: ClusTree = ClusTree::sharded(2, ClusTreeConfig::default(), 2);
        for (p, t) in two_cluster_stream(80) {
            tree.insert(&p, t, 10);
        }
        assert!(tree.height() > 1);
        let points: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64 * 0.1, 0.0]).collect();
        let result = tree.insert_batch(&points, 81.0, 0);
        assert_eq!(result.depths.reached_leaf, 0);
        assert_eq!(result.depths.parked_total(), 10);
        assert!((tree.total_weight() - 90.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "dimensionality mismatch")]
    fn wrong_dims_panics() {
        let mut tree: ClusTree = ClusTree::sharded(2, ClusTreeConfig::default(), 2);
        tree.insert(&[1.0], 0.0, 1);
    }

    #[test]
    fn one_shard_queries_match_the_plain_tree() {
        // The reference is a directly driven core with the ClusTree's
        // insertion policy, read as a one-view slice.
        let stream = two_cluster_stream(240);
        let config = ClusTreeConfig::default();
        let mut plain = ClusCore::new(2, config.geometry());
        let mut sharded = ClusTree::new(2, config.clone());
        for (batch_idx, chunk) in stream.chunks(24).enumerate() {
            let points: Vec<Vec<f64>> = chunk.iter().map(|(p, _)| p.clone()).collect();
            let now = batch_idx as f64;
            let payloads = points
                .iter()
                .map(|p| MicroCluster::from_point(p, now))
                .collect();
            let _ = plain.insert_batch(&mut ClusModel::new(&config, now), payloads, 6);
            let _ = sharded.insert_batch(&points, now, 6);
        }
        let plain = std::slice::from_ref(&plain);
        let bandwidth = [1.5, 1.5];
        let model = ClusQueryModel::over(plain, &bandwidth, config.decay_lambda);
        let query = [0.5, -0.5];
        for budget in [0usize, 1, 4, 16, usize::MAX] {
            let reference = query_over(plain, &model, &query, RefineOrder::BestFirst, budget);
            let folded =
                sharded.anytime_density(&query, &bandwidth, RefineOrder::BestFirst, budget);
            assert_eq!(folded, reference, "budget {budget}");
        }
        let knn_model = ClusQueryModel::over(plain, &[1.0, 1.0], config.decay_lambda);
        let plain_knn = knn_over(plain, &knn_model, &query, 3, 20);
        let sharded_knn = sharded.anytime_knn(&query, 3, 20);
        assert_eq!(plain_knn.nodes_read, sharded_knn.nodes_read);
        assert_eq!(plain_knn.neighbors.len(), sharded_knn.neighbors.len());
        for (a, b) in plain_knn.neighbors.iter().zip(&sharded_knn.neighbors) {
            assert_eq!(a.center, b.center);
            assert_eq!(a.sq_dist, b.sq_dist);
            assert_eq!(a.depth, b.depth);
        }
    }

    #[test]
    fn sharded_knn_folds_the_closest_clusters_across_shards() {
        let stream = two_cluster_stream(400);
        let mut sharded: ClusTree = ClusTree::sharded(2, ClusTreeConfig::default(), 4);
        for (batch_idx, chunk) in stream.chunks(40).enumerate() {
            let points: Vec<Vec<f64>> = chunk.iter().map(|(p, _)| p.clone()).collect();
            let _ = sharded.insert_batch(&points, batch_idx as f64, 10);
        }
        let answer = sharded.anytime_knn(&[20.0, 19.0], 2, 100);
        assert!(!answer.neighbors.is_empty());
        // The nearest retrieved cluster belongs to the high cluster.
        assert!(answer.neighbors[0].center[0] > 10.0);
        for pair in answer.neighbors.windows(2) {
            assert!(pair[0].sq_dist <= pair[1].sq_dist);
        }
        // Sizes are observable and cover the stream.
        assert_eq!(sharded.shard_sizes().iter().sum::<usize>(), 400);
        // The folded density bounds tighten with budget.
        let bandwidth = [2.0, 2.0];
        let coarse = sharded.anytime_density(&[0.0, 0.0], &bandwidth, RefineOrder::WidestBound, 0);
        let fine =
            sharded.anytime_density(&[0.0, 0.0], &bandwidth, RefineOrder::WidestBound, 1_000);
        assert!(fine.uncertainty() <= coarse.uncertainty() + 1e-12);
        assert!(fine.lower >= coarse.lower - 1e-12);
    }

    #[test]
    #[should_panic(expected = "query coordinates must not be NaN")]
    fn sharded_tree_rejects_a_nan_query() {
        let mut tree: ClusTree = ClusTree::sharded(2, ClusTreeConfig::default(), 2);
        for (p, t) in two_cluster_stream(100) {
            tree.insert(&p, t, 8);
        }
        let _ = tree.outlier_score(&[f64::NAN, 0.0], &[1.0, 1.0], 1.0, 8);
    }
}
