//! The sharded Bayes tree: parallel kernel insertion across subtree shards.
//!
//! A [`ShardedBayesTree`] partitions the kernel space into `K` independent
//! [`BayesTree`]-style shards behind the shared sharding layer of
//! [`bt_anytree::shard`]: the default [`CheapestRouter`] sends each point to
//! the shard whose aggregate is closest (so shards converge to spatial
//! regions, exactly the subtrees a taller single tree would form), and
//! [`ShardedBayesTree::insert_batch`] descends all shards in parallel on
//! scoped threads.
//!
//! Because kernel density estimates are sums over kernels, the full-model
//! density of the sharded tree is *exactly* the density of the equivalent
//! single tree: `p(x) = (1/N) Σ_shards Σ_kernels K_h(x - x_i)`.  The shards
//! only change how the sum is organised — and how many cores can build it.

use crate::descent::DescentStrategy;
use crate::insert::KernelModel;
use crate::node::StoredElement;
use crate::query::KernelQueryModel;
use crate::view::BayesTreeSnapshot;
use bt_anytree::{
    outlier_score_over, query_batch_over, query_over, AnytimeTree, CheapestRouter, DescentStats,
    OutlierScore, PipelinedOutcome, QueryAnswer, QueryStats, ShardRouter, ShardedAnytimeTree,
    ShardedBatchOutcome,
};
use bt_index::PageGeometry;
use bt_stats::bandwidth::silverman_bandwidth;
use bt_stats::kernel::{GaussianKernel, Kernel, KernelBandwidth};
use std::sync::Arc;

/// A Bayes tree sharded into `K` independently descending subtrees.
///
/// Like [`crate::BayesTree`], the trailing stored-precision parameter `E`
/// (default `f64`) selects the scalar type each shard's entry summaries are
/// stored at.
#[derive(Debug, Clone)]
pub struct ShardedBayesTree<R = CheapestRouter, E: StoredElement = f64> {
    core: ShardedAnytimeTree<E::Summary, Vec<f64>, R>,
    num_points: usize,
    /// The global bandwidth with its cached scoring terms; shared with
    /// snapshots, replaced (never mutated) when the bandwidth changes.
    bandwidth: Arc<KernelBandwidth>,
}

impl<R: Default, E: StoredElement> ShardedBayesTree<R, E> {
    /// Creates an empty sharded tree for `dims`-dimensional kernels with a
    /// default-constructed router.
    ///
    /// # Panics
    ///
    /// Panics if `dims == 0` or `num_shards == 0`.
    #[must_use]
    pub fn new(dims: usize, geometry: PageGeometry, num_shards: usize) -> Self {
        Self::with_router(dims, geometry, num_shards, R::default())
    }
}

impl<R, E: StoredElement> ShardedBayesTree<R, E> {
    /// Creates an empty sharded tree routed by `router`.
    ///
    /// # Panics
    ///
    /// Panics if `dims == 0` or `num_shards == 0`.
    #[must_use]
    pub fn with_router(dims: usize, geometry: PageGeometry, num_shards: usize, router: R) -> Self {
        Self {
            core: ShardedAnytimeTree::with_router(dims, geometry, num_shards, router),
            num_points: 0,
            bandwidth: Arc::new(KernelBandwidth::new(vec![1.0; dims])),
        }
    }

    /// Dimensionality of the stored kernels.
    #[must_use]
    pub fn dims(&self) -> usize {
        self.core.dims()
    }

    /// Number of shards.
    #[must_use]
    pub fn num_shards(&self) -> usize {
        self.core.num_shards()
    }

    /// Number of stored observations across all shards.
    #[must_use]
    pub fn len(&self) -> usize {
        self.num_points
    }

    /// Whether the tree stores no observations.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.num_points == 0
    }

    /// Total number of reachable nodes across all shards.
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.core.num_nodes()
    }

    /// Height of the tallest shard.
    #[must_use]
    pub fn height(&self) -> usize {
        self.core.height()
    }

    /// Read access to the shard trees.
    #[must_use]
    pub fn shards(&self) -> &[AnytimeTree<E::Summary, Vec<f64>>] {
        self.core.shards()
    }

    /// The descent-engine work counters merged over all shards.
    #[must_use]
    pub fn stats(&self) -> DescentStats {
        self.core.stats()
    }

    /// Total payload-summary refresh operations over all shards.
    #[must_use]
    pub fn summary_refreshes(&self) -> u64 {
        self.core.summary_refreshes()
    }

    /// Observations routed to each shard so far — the direct skew measure
    /// for the configured router.  Counted at routing time: during a
    /// [`Self::pipelined_batch`] the sizes already include the in-flight
    /// batch while any pre-batch snapshot still reflects the old epochs.
    #[must_use]
    pub fn shard_sizes(&self) -> &[usize] {
        self.core.shard_sizes()
    }

    /// Takes an epoch-pinned snapshot of every shard plus the frozen global
    /// density-model parameters (observation count, bandwidth).  The
    /// snapshot is `Send + Sync` and answers the folded query surface
    /// bit-identically to this moment while later batches drain into the
    /// live shards.
    #[must_use]
    pub fn snapshot(&self) -> BayesTreeSnapshot<E> {
        BayesTreeSnapshot::from_parts(
            self.core.snapshot(),
            self.num_points,
            Arc::clone(&self.bandwidth),
        )
    }

    /// The kernel-density query model of this sharded tree: every shard
    /// normalises by the same **global** observation count, so per-shard
    /// partial densities fold by summation.
    #[must_use]
    pub fn query_model(&self) -> KernelQueryModel<'_> {
        KernelQueryModel::new(self.num_points, &self.bandwidth)
    }

    /// Budget-bracketed anytime density query over all shards: every shard
    /// refines its own frontier **in parallel** (up to `budget` node reads
    /// each, ordered by `strategy`), and the per-shard partial densities are
    /// folded into one global mixture answer.  Every shard normalises by the
    /// same global observation count, so the fold is exact — and each
    /// shard's `[lower, upper]` interval can only tighten with budget, so
    /// the folded bound inherits the monotonicity guarantee.
    ///
    /// # Panics
    ///
    /// Panics if the query has the wrong dimensionality.
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

    /// Refines a batch of density queries across all shards (one worker per
    /// shard processes the whole batch through a reused cursor) and folds
    /// the partials per query.
    ///
    /// # Panics
    ///
    /// Panics if any query has the wrong dimensionality.
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

    /// Anytime outlier scoring over the sharded index: the per-shard density
    /// bounds refine in parallel and the verdict is taken from the folded
    /// global interval.
    ///
    /// # Panics
    ///
    /// Panics if the query has the wrong dimensionality.
    #[must_use]
    pub fn outlier_score(&self, x: &[f64], threshold: f64, budget: usize) -> OutlierScore {
        let model = self.query_model();
        outlier_score_over(self.core.shards(), &model, x, threshold, budget)
    }

    /// The per-dimension kernel bandwidth used for leaf-level kernels.
    #[must_use]
    pub fn bandwidth(&self) -> &[f64] {
        self.bandwidth.values()
    }

    /// Overrides the kernel bandwidth.
    ///
    /// # Panics
    ///
    /// Panics if the bandwidth vector has the wrong dimensionality or a
    /// non-positive component.
    pub fn set_bandwidth(&mut self, bandwidth: Vec<f64>) {
        assert_eq!(
            bandwidth.len(),
            self.dims(),
            "bandwidth dimensionality mismatch"
        );
        assert!(
            bandwidth.iter().all(|h| *h > 0.0),
            "bandwidths must be positive"
        );
        self.bandwidth = Arc::new(KernelBandwidth::new(bandwidth));
    }

    /// Recomputes the kernel bandwidth with Silverman's rule over all stored
    /// observations of all shards.
    pub fn fit_bandwidth(&mut self) {
        let points = self.all_points();
        if !points.is_empty() {
            self.bandwidth = Arc::new(KernelBandwidth::new(silverman_bandwidth(
                &points,
                self.dims(),
            )));
        }
    }

    /// All observations stored at leaf level across all shards (shard-major,
    /// arbitrary order within a shard).
    #[must_use]
    pub fn all_points(&self) -> Vec<Vec<f64>> {
        let mut out = Vec::with_capacity(self.num_points);
        for shard in self.core.shards() {
            for id in shard.reachable() {
                if let bt_anytree::NodeKind::Leaf { items } = &shard.node(id).kind {
                    out.extend(items.iter().cloned());
                }
            }
        }
        out
    }

    /// Evaluates the full kernel density estimate `p(x)` by reading every
    /// leaf kernel of every shard.  Identical to the unsharded estimate:
    /// the kernel sum does not care how the kernels are partitioned.
    #[must_use]
    pub fn full_kernel_density(&self, x: &[f64]) -> f64 {
        if self.num_points == 0 {
            return 0.0;
        }
        let kernel = GaussianKernel;
        let mut acc = 0.0;
        for shard in self.core.shards() {
            for id in shard.reachable() {
                if let bt_anytree::NodeKind::Leaf { items } = &shard.node(id).kind {
                    for p in items {
                        acc += kernel.density(p, x, self.bandwidth.values());
                    }
                }
            }
        }
        acc / self.num_points as f64
    }

    /// Validates per-shard consistency: the aggregated root weight of every
    /// shard matches its reachable observations, and the total matches
    /// [`Self::len`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        let mut reachable_total = 0usize;
        for (k, shard) in self.core.shards().iter().enumerate() {
            let mut shard_points = 0usize;
            for id in shard.reachable() {
                if let bt_anytree::NodeKind::Leaf { items } = &shard.node(id).kind {
                    shard_points += items.len();
                }
            }
            let root = shard.node(shard.root());
            if let bt_anytree::NodeKind::Inner { entries } = &root.kind {
                let weight: f64 = entries.iter().map(|e| e.weight()).sum();
                if (weight - shard_points as f64).abs() > 1e-6 {
                    return Err(format!(
                        "shard {k} root claims {weight} objects, {shard_points} are reachable"
                    ));
                }
            }
            reachable_total += shard_points;
        }
        if reachable_total != self.num_points {
            return Err(format!(
                "sharded tree claims {} points but {reachable_total} are reachable",
                self.num_points
            ));
        }
        Ok(())
    }
}

impl<R: ShardRouter<E::Summary>, E: StoredElement> ShardedBayesTree<R, E> {
    /// Inserts one observation into the shard the router assigns it.
    ///
    /// # Panics
    ///
    /// Panics if the point has the wrong dimensionality.
    pub fn insert(&mut self, point: Vec<f64>) {
        assert_eq!(point.len(), self.dims(), "point dimensionality mismatch");
        let mut model = KernelModel { dims: self.dims() };
        let _ = self.core.insert(&mut model, point, usize::MAX);
        self.num_points += 1;
    }

    /// Inserts a mini-batch of observations, descending every shard's share
    /// in parallel on scoped threads.  The Bayes tree always descends to a
    /// leaf (unbounded budget); the merged report still carries the
    /// per-shard object counts and summed work counters.
    ///
    /// # Panics
    ///
    /// Panics if any point has the wrong dimensionality.
    pub fn insert_batch(&mut self, points: Vec<Vec<f64>>) -> ShardedBatchOutcome {
        let dims = self.dims();
        assert!(
            points.iter().all(|p| p.len() == dims),
            "point dimensionality mismatch"
        );
        self.num_points += points.len();
        self.core
            .insert_batch(&|| KernelModel { dims }, points, usize::MAX)
    }

    /// The pipelined mode: drains `points` through the per-shard writers
    /// **while** reader threads answer `queries` against the pre-batch
    /// snapshot — the returned answers are exactly what
    /// [`Self::density_batch`] would have returned *before* this batch
    /// (pre-batch observation count, pre-batch epochs; property-tested in
    /// `tests/snapshot_isolation.rs`).
    ///
    /// # Panics
    ///
    /// Panics if any point or query has the wrong dimensionality.
    pub fn pipelined_batch(
        &mut self,
        points: Vec<Vec<f64>>,
        queries: &[Vec<f64>],
        strategy: DescentStrategy,
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
        // by the pre-batch observation count.
        let query_model = KernelQueryModel::new(self.num_points, &self.bandwidth);
        self.num_points += points.len();
        self.core.pipelined_batch(
            &|| KernelModel { dims },
            points,
            usize::MAX,
            &query_model,
            queries,
            strategy.into(),
            query_budget,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::BayesTree;
    use bt_anytree::FixedPartitionRouter;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn geometry() -> PageGeometry {
        PageGeometry::from_fanout(4, 4)
    }

    fn random_points(n: usize, dims: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| (0..dims).map(|_| rng.random::<f64>() * 10.0).collect())
            .collect()
    }

    #[test]
    fn sharded_batches_cover_every_point() {
        let points = random_points(400, 3, 1);
        let mut sharded: ShardedBayesTree = ShardedBayesTree::new(3, geometry(), 4);
        for chunk in points.chunks(50) {
            let result = sharded.insert_batch(chunk.to_vec());
            assert_eq!(result.outcomes.len(), chunk.len());
            assert_eq!(result.objects_per_shard.iter().sum::<usize>(), chunk.len());
        }
        assert_eq!(sharded.len(), 400);
        assert_eq!(sharded.all_points().len(), 400);
        sharded.validate().expect("valid sharded tree");
    }

    #[test]
    fn sharded_density_matches_the_single_tree() {
        let points = random_points(300, 2, 2);
        let mut single: BayesTree = BayesTree::new(2, geometry());
        let mut sharded: ShardedBayesTree = ShardedBayesTree::new(2, geometry(), 3);
        for chunk in points.chunks(32) {
            single.insert_batch(chunk.to_vec());
            let _ = sharded.insert_batch(chunk.to_vec());
        }
        single.fit_bandwidth();
        sharded.fit_bandwidth();
        // Same points, shard-major order: Silverman's rule agrees up to
        // floating-point summation order.
        for (a, b) in single.bandwidth().iter().zip(sharded.bandwidth()) {
            assert!((a - b).abs() < 1e-9 * (1.0 + a.abs()), "{a} vs {b}");
        }
        let shared = vec![0.8, 0.9];
        single.set_bandwidth(shared.clone());
        sharded.set_bandwidth(shared);
        for q in random_points(10, 2, 3) {
            let a = single.full_kernel_density(&q);
            let b = sharded.full_kernel_density(&q);
            assert!(
                (a - b).abs() <= 1e-12 * (1.0 + a.abs()),
                "density mismatch at {q:?}: {a} vs {b}"
            );
        }
    }

    #[test]
    fn fixed_router_spreads_points_evenly() {
        let mut sharded: ShardedBayesTree<FixedPartitionRouter> =
            ShardedBayesTree::new(2, geometry(), 4);
        let result = sharded.insert_batch(random_points(40, 2, 4));
        assert_eq!(result.objects_per_shard, vec![10, 10, 10, 10]);
        sharded.validate().expect("valid");
    }

    #[test]
    fn single_inserts_work_too() {
        let mut sharded: ShardedBayesTree = ShardedBayesTree::new(2, geometry(), 2);
        for p in random_points(60, 2, 5) {
            sharded.insert(p);
        }
        assert_eq!(sharded.len(), 60);
        sharded.validate().expect("valid");
        assert_eq!(sharded.stats().batches, 60);
    }

    #[test]
    #[should_panic(expected = "dimensionality mismatch")]
    fn wrong_dims_panics() {
        let mut sharded: ShardedBayesTree = ShardedBayesTree::new(2, geometry(), 2);
        let _ = sharded.insert_batch(vec![vec![1.0]]);
    }

    #[test]
    fn one_shard_query_matches_the_single_tree() {
        let points = random_points(200, 2, 6);
        let mut single: BayesTree = BayesTree::new(2, geometry());
        let mut sharded: ShardedBayesTree = ShardedBayesTree::new(2, geometry(), 1);
        for chunk in points.chunks(25) {
            single.insert_batch(chunk.to_vec());
            let _ = sharded.insert_batch(chunk.to_vec());
        }
        let bandwidth = vec![0.7, 0.9];
        single.set_bandwidth(bandwidth.clone());
        sharded.set_bandwidth(bandwidth);
        for budget in [0usize, 1, 4, 16, usize::MAX] {
            for q in random_points(5, 2, 7) {
                let reference = single.anytime_density(&q, DescentStrategy::default(), budget);
                let folded = sharded.anytime_density(&q, DescentStrategy::default(), budget);
                assert_eq!(folded, reference, "budget {budget} at {q:?}");
            }
        }
    }

    #[test]
    fn sharded_density_bounds_bracket_the_flat_estimate() {
        let points = random_points(300, 2, 8);
        let mut sharded: ShardedBayesTree = ShardedBayesTree::new(2, geometry(), 4);
        for chunk in points.chunks(32) {
            let _ = sharded.insert_batch(chunk.to_vec());
        }
        sharded.set_bandwidth(vec![0.8, 0.8]);
        let q = vec![5.0, 5.0];
        let truth = sharded.full_kernel_density(&q);
        let mut last = f64::INFINITY;
        for budget in [0usize, 2, 8, 32, usize::MAX] {
            let answer = sharded.anytime_density(&q, DescentStrategy::default(), budget);
            assert!(
                answer.lower <= truth + 1e-12 && truth <= answer.upper + 1e-12,
                "budget {budget}: [{}, {}] misses {truth}",
                answer.lower,
                answer.upper
            );
            assert!(answer.uncertainty() <= last + 1e-12);
            last = answer.uncertainty();
        }
        // Fully refined the fold is exact.
        let full = sharded.anytime_density(&q, DescentStrategy::default(), usize::MAX);
        assert!((full.estimate - truth).abs() <= 1e-12 * (1.0 + truth));
        assert!(full.uncertainty() < 1e-12);
        // The batched path agrees with the one-shot path.
        let queries = random_points(4, 2, 9);
        let (answers, stats) = sharded.density_batch(&queries, DescentStrategy::default(), 6);
        assert_eq!(answers.len(), 4);
        assert!(stats.nodes_read > 0);
        for (answer, q) in answers.iter().zip(&queries) {
            assert_eq!(
                *answer,
                sharded.anytime_density(q, DescentStrategy::default(), 6)
            );
        }
    }

    #[test]
    fn sharded_outlier_scoring_exits_early_on_clear_verdicts() {
        use bt_anytree::OutlierVerdict;
        let points = random_points(300, 2, 11);
        let mut sharded: ShardedBayesTree = ShardedBayesTree::new(2, geometry(), 4);
        for chunk in points.chunks(32) {
            let _ = sharded.insert_batch(chunk.to_vec());
        }
        sharded.set_bandwidth(vec![0.5, 0.5]);
        let score = sharded.outlier_score(&[1000.0, -1000.0], 1e-6, 10_000);
        assert_eq!(score.verdict, OutlierVerdict::Outlier);
        // The verdict is certain long before every shard exhausts its
        // 10_000-read budget: the round-based refinement exits early.
        assert!(
            score.answer.nodes_read < 100,
            "spent {} reads on a clear-cut outlier",
            score.answer.nodes_read
        );
    }

    #[test]
    fn shard_sizes_are_observable() {
        let mut sharded: ShardedBayesTree<FixedPartitionRouter> =
            ShardedBayesTree::new(2, geometry(), 4);
        let _ = sharded.insert_batch(random_points(42, 2, 10));
        assert_eq!(sharded.shard_sizes(), &[11, 11, 10, 10]);
        assert_eq!(sharded.shard_sizes().iter().sum::<usize>(), sharded.len());
    }
}
