//! The sharded anytime clustering index: parallel descent across shards.
//!
//! A [`ShardedClusTree`] splits the stream across `K` independent
//! [`ClusTree`](crate::ClusTree)-style shards behind the shared sharding
//! layer of [`bt_anytree::shard`]: the default [`CheapestRouter`] converges
//! to one spatial region per shard, and every mini-batch descends all shards
//! in parallel on scoped threads — the per-object node budget the paper
//! trades quality against is spent on `K` cores at once.
//!
//! The offline step is unchanged: micro-clusters are additive, so the
//! snapshot/offline components simply **fold the per-shard micro-clusters**
//! into one set ([`ShardedClusTree::micro_clusters`]) before running
//! [`weighted_dbscan`](crate::weighted_dbscan) or recording a pyramidal
//! snapshot, exactly as they would over a single tree.

use crate::microcluster::MicroCluster;
use crate::offline::{weighted_dbscan, DbscanConfig, MacroClustering};
use crate::query::{knn_over, model_over, ClusQueryModel, KnnAnswer};
use crate::snapshot::SnapshotStore;
use crate::tree::{
    collect_micro_clusters, finish_micro_clusters, validate_node, ClusModel, ClusTreeConfig,
};
use crate::view::ClusTreeSnapshot;
use bt_anytree::{
    outlier_score_over, query_batch_over, query_over, AnytimeTree, CheapestRouter, DescentStats,
    OutlierScore, PipelinedOutcome, QueryAnswer, QueryStats, RefineOrder, ShardRouter,
    ShardedAnytimeTree, ShardedBatchOutcome,
};

/// An anytime clustering index sharded into `K` independently descending
/// subtrees.
#[derive(Debug, Clone)]
pub struct ShardedClusTree<R = CheapestRouter> {
    config: ClusTreeConfig,
    core: ShardedAnytimeTree<MicroCluster, MicroCluster, R>,
    num_inserted: usize,
    current_time: f64,
}

impl<R: Default> ShardedClusTree<R> {
    /// Creates `num_shards` empty shards for `dims`-dimensional points with
    /// a default-constructed router.
    ///
    /// # Panics
    ///
    /// Panics if `dims == 0`, `num_shards == 0` or the configuration is
    /// inconsistent.
    #[must_use]
    pub fn new(dims: usize, config: ClusTreeConfig, num_shards: usize) -> Self {
        Self::with_router(dims, config, num_shards, R::default())
    }
}

impl<R> ShardedClusTree<R> {
    /// Creates `num_shards` empty shards routed by `router`.
    ///
    /// # Panics
    ///
    /// Panics if `dims == 0`, `num_shards == 0` or the configuration is
    /// inconsistent.
    #[must_use]
    pub fn with_router(dims: usize, config: ClusTreeConfig, num_shards: usize, router: R) -> Self {
        assert!(dims > 0, "dimensionality must be positive");
        config.validate();
        let core = ShardedAnytimeTree::with_router(dims, config.geometry(), num_shards, router);
        Self {
            config,
            core,
            num_inserted: 0,
            current_time: 0.0,
        }
    }

    /// Dimensionality of the clustered points.
    #[must_use]
    pub fn dims(&self) -> usize {
        self.core.dims()
    }

    /// Number of shards.
    #[must_use]
    pub fn num_shards(&self) -> usize {
        self.core.num_shards()
    }

    /// Number of objects inserted so far (across all shards).
    #[must_use]
    pub fn len(&self) -> usize {
        self.num_inserted
    }

    /// Whether no objects have been inserted yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.num_inserted == 0
    }

    /// The configuration the tree was created with.
    #[must_use]
    pub fn config(&self) -> &ClusTreeConfig {
        &self.config
    }

    /// The latest timestamp seen.
    #[must_use]
    pub fn current_time(&self) -> f64 {
        self.current_time
    }

    /// Height of the tallest shard.
    #[must_use]
    pub fn height(&self) -> usize {
        self.core.height()
    }

    /// Read access to the shard trees.
    #[must_use]
    pub fn shards(&self) -> &[AnytimeTree<MicroCluster, MicroCluster>] {
        self.core.shards()
    }

    /// Total number of reachable nodes across all shards.
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.core.num_nodes()
    }

    /// The descent-engine work counters merged over all shards.
    #[must_use]
    pub fn stats(&self) -> DescentStats {
        self.core.stats()
    }

    /// Total payload-summary refresh (decay) operations over all shards.
    #[must_use]
    pub fn summary_refreshes(&self) -> u64 {
        self.core.summary_refreshes()
    }

    /// All current micro-clusters, **folded over the shards**: every shard's
    /// leaf entries plus non-empty hitchhiker buffers, decayed to the tree's
    /// current time.  This fold is the input to the offline step — macro
    /// clustering and snapshots do not care how the model was partitioned.
    #[must_use]
    pub fn micro_clusters(&self) -> Vec<MicroCluster> {
        let mut out = Vec::new();
        for shard in self.core.shards() {
            collect_micro_clusters(shard, &mut out);
        }
        finish_micro_clusters(&mut out, self.current_time, self.config.decay_lambda);
        out
    }

    /// Number of current micro-clusters across all shards.
    #[must_use]
    pub fn num_micro_clusters(&self) -> usize {
        self.micro_clusters().len()
    }

    /// Total decayed weight currently represented by all shards.
    #[must_use]
    pub fn total_weight(&self) -> f64 {
        self.micro_clusters().iter().map(MicroCluster::weight).sum()
    }

    /// Runs the offline density-based macro clustering over the folded
    /// per-shard micro-clusters.
    #[must_use]
    pub fn offline_clustering(&self, dbscan: &DbscanConfig) -> MacroClustering {
        weighted_dbscan(&self.micro_clusters(), dbscan)
    }

    /// Records the folded per-shard micro-clusters as one pyramidal
    /// snapshot at integer tick `tick`.
    pub fn record_snapshot(&self, store: &mut SnapshotStore, tick: u64) {
        store.record(tick, self.micro_clusters());
    }

    /// Validates every shard's internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        for (k, shard) in self.core.shards().iter().enumerate() {
            validate_node(shard, &self.config, shard.root())
                .map_err(|e| format!("shard {k}: {e}"))?;
        }
        Ok(())
    }

    /// Objects routed to each shard so far — the direct skew measure for
    /// the configured router.  Counted at routing time: during a
    /// [`Self::pipelined_batch`] the sizes already include the in-flight
    /// batch while any pre-batch snapshot still reflects the old epochs.
    #[must_use]
    pub fn shard_sizes(&self) -> &[usize] {
        self.core.shard_sizes()
    }

    /// Takes an epoch-pinned snapshot of every shard plus the frozen model
    /// parameters (decay rate, current time, insert count).  `Send + Sync`;
    /// answers the folded density / k-NN / outlier surface bit-identically
    /// to this moment while later batches drain into the live shards.
    #[must_use]
    pub fn snapshot(&self) -> ClusTreeSnapshot {
        ClusTreeSnapshot::from_parts(
            self.core.snapshot(),
            self.config.clone(),
            self.current_time,
            self.num_inserted,
        )
    }

    /// The micro-cluster query model of this sharded tree: normalised by
    /// the **global** stored weight across all shards, so per-shard partial
    /// scores fold by summation.
    ///
    /// # Panics
    ///
    /// Panics if the bandwidth has the wrong dimensionality or a
    /// non-positive component.
    #[must_use]
    pub fn query_model(&self, bandwidth: &[f64]) -> ClusQueryModel {
        model_over(self.core.shards(), bandwidth, self.config.decay_lambda)
    }

    /// Budget-bracketed anytime density score over all shards: per-shard
    /// frontiers refine **in parallel** (up to `budget` node reads each)
    /// and fold into one global smoothed-kernel answer whose bounds inherit
    /// each shard's monotonicity.
    ///
    /// # Panics
    ///
    /// Panics if the query or bandwidth has the wrong dimensionality.
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

    /// Refines a batch of density queries across all shards (one worker per
    /// shard processes the whole batch through a reused cursor).
    ///
    /// # Panics
    ///
    /// Panics if any query or the bandwidth has the wrong dimensionality.
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

    /// Anytime k-NN micro-cluster retrieval over all shards: per-shard
    /// frontiers refine closest-first **in parallel**, then the shard
    /// frontiers are folded into one ranking and the `k` closest clusters
    /// are returned.
    ///
    /// # Panics
    ///
    /// Panics if the query has the wrong dimensionality.
    #[must_use]
    pub fn anytime_knn(&self, x: &[f64], k: usize, budget: usize) -> KnnAnswer {
        let model = self.query_model(&vec![1.0; self.dims()]);
        knn_over(self.core.shards(), &model, x, k, budget)
    }

    /// Anytime outlier scoring over the sharded index: per-shard density
    /// bounds refine in parallel and the verdict is taken from the folded
    /// global interval.
    ///
    /// # Panics
    ///
    /// Panics if the query or bandwidth has the wrong dimensionality.
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

impl<R: ShardRouter<MicroCluster>> ShardedClusTree<R> {
    /// Inserts one object observed at `timestamp` with a budget of
    /// `node_budget` node reads into the shard the router assigns it.
    ///
    /// # Panics
    ///
    /// Panics if the point has the wrong dimensionality.
    pub fn insert(
        &mut self,
        point: &[f64],
        timestamp: f64,
        node_budget: usize,
    ) -> crate::InsertOutcome {
        assert_eq!(point.len(), self.dims(), "point dimensionality mismatch");
        self.current_time = self.current_time.max(timestamp);
        self.num_inserted += 1;
        let payload = MicroCluster::from_point(point, timestamp);
        let mut model = ClusModel {
            config: &self.config,
            now: timestamp,
        };
        self.core.insert(&mut model, payload, node_budget)
    }

    /// Inserts a mini-batch of objects observed at `timestamp`, each with a
    /// budget of `node_budget` node reads, descending every shard's share
    /// **in parallel** on scoped threads.
    ///
    /// Within each shard the batch behaves exactly like
    /// [`ClusTree::insert_batch`](crate::ClusTree::insert_batch): one decay
    /// refresh per visited node, splits resolved once after the shard's
    /// share drains.  The merged [`ShardedBatchOutcome`] carries the
    /// per-object outcomes in input order, the folded depth histogram and
    /// the summed work counters.
    ///
    /// # Panics
    ///
    /// Panics if any point has the wrong dimensionality.
    pub fn insert_batch(
        &mut self,
        points: &[Vec<f64>],
        timestamp: f64,
        node_budget: usize,
    ) -> ShardedBatchOutcome {
        let dims = self.dims();
        assert!(
            points.iter().all(|p| p.len() == dims),
            "point dimensionality mismatch"
        );
        self.current_time = self.current_time.max(timestamp);
        self.num_inserted += points.len();
        let payloads: Vec<MicroCluster> = points
            .iter()
            .map(|p| MicroCluster::from_point(p, timestamp))
            .collect();
        let config = &self.config;
        self.core.insert_batch(
            &|| ClusModel {
                config,
                now: timestamp,
            },
            payloads,
            node_budget,
        )
    }

    /// The pipelined mode: drains a mini-batch through the per-shard
    /// writers **while** reader threads answer `queries` (density scores
    /// smoothed with `bandwidth`, refined in `order`) against the pre-batch
    /// snapshot — the returned answers are exactly what
    /// [`Self::density_batch`] would have returned *before* this batch
    /// (pre-batch total weight, pre-batch epochs; property-tested in
    /// `tests/snapshot_isolation.rs`).
    ///
    /// # Panics
    ///
    /// Panics if any point, query or the bandwidth has the wrong
    /// dimensionality.
    #[allow(clippy::too_many_arguments)]
    pub fn pipelined_batch(
        &mut self,
        points: &[Vec<f64>],
        timestamp: f64,
        node_budget: usize,
        queries: &[Vec<f64>],
        bandwidth: &[f64],
        order: RefineOrder,
        query_budget: usize,
    ) -> PipelinedOutcome
    where
        R: Send,
    {
        let dims = self.dims();
        assert!(
            points.iter().all(|p| p.len() == dims),
            "point dimensionality mismatch"
        );
        // The readers answer against the pre-batch state, so they normalise
        // by the pre-batch global stored weight.
        let query_model = self.query_model(bandwidth);
        self.current_time = self.current_time.max(timestamp);
        self.num_inserted += points.len();
        let payloads: Vec<MicroCluster> = points
            .iter()
            .map(|p| MicroCluster::from_point(p, timestamp))
            .collect();
        let config = &self.config;
        self.core.pipelined_batch(
            &|| ClusModel {
                config,
                now: timestamp,
            },
            payloads,
            node_budget,
            &query_model,
            queries,
            order,
            query_budget,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::ClusTree;
    use bt_anytree::FixedPartitionRouter;

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
        let mut tree: ShardedClusTree = ShardedClusTree::new(2, ClusTreeConfig::default(), 4);
        for (batch_idx, chunk) in stream.chunks(32).enumerate() {
            let points: Vec<Vec<f64>> = chunk.iter().map(|(p, _)| p.clone()).collect();
            let result = tree.insert_batch(&points, batch_idx as f64, 8);
            assert_eq!(result.outcomes.len(), points.len());
            assert_eq!(result.depths.total(), points.len());
            assert_eq!(result.objects_per_shard.iter().sum::<usize>(), points.len());
        }
        assert_eq!(tree.len(), 512);
        assert!((tree.total_weight() - 512.0).abs() < 1e-6);
        tree.validate().expect("valid sharded tree");
        assert!(tree.num_micro_clusters() >= 2);
    }

    #[test]
    fn offline_step_folds_the_shards() {
        let stream = two_cluster_stream(400);
        let mut tree: ShardedClusTree = ShardedClusTree::new(2, ClusTreeConfig::default(), 3);
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
        let mut sharded: ShardedClusTree<FixedPartitionRouter> =
            ShardedClusTree::new(2, ClusTreeConfig::default(), shards);
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
            let result = sharded.insert_batch(&points, timestamp, 6);
            for (k, part) in parts.into_iter().enumerate() {
                let reference = plain[k].insert_batch(&part, timestamp, 6);
                assert_eq!(result.objects_per_shard[k], reference.outcomes.len());
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
        let mut tree: ShardedClusTree = ShardedClusTree::new(2, ClusTreeConfig::default(), 2);
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
        let mut tree: ShardedClusTree = ShardedClusTree::new(2, ClusTreeConfig::default(), 2);
        tree.insert(&[1.0], 0.0, 1);
    }

    #[test]
    fn one_shard_queries_match_the_plain_tree() {
        let stream = two_cluster_stream(240);
        let mut plain = ClusTree::new(2, ClusTreeConfig::default());
        let mut sharded: ShardedClusTree = ShardedClusTree::new(2, ClusTreeConfig::default(), 1);
        for (batch_idx, chunk) in stream.chunks(24).enumerate() {
            let points: Vec<Vec<f64>> = chunk.iter().map(|(p, _)| p.clone()).collect();
            let _ = plain.insert_batch(&points, batch_idx as f64, 6);
            let _ = sharded.insert_batch(&points, batch_idx as f64, 6);
        }
        let bandwidth = [1.5, 1.5];
        let query = [0.5, -0.5];
        for budget in [0usize, 1, 4, 16, usize::MAX] {
            let reference =
                plain.anytime_density(&query, &bandwidth, RefineOrder::BestFirst, budget);
            let folded =
                sharded.anytime_density(&query, &bandwidth, RefineOrder::BestFirst, budget);
            assert_eq!(folded, reference, "budget {budget}");
        }
        let plain_knn = plain.anytime_knn(&query, 3, 20);
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
        let mut sharded: ShardedClusTree = ShardedClusTree::new(2, ClusTreeConfig::default(), 4);
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
}
