//! Incremental (iterative) insertion.
//!
//! This is the construction path evaluated as "Iterativ" in the paper's
//! figures: objects are inserted one at a time, descending by least area
//! enlargement (as in the R*-tree), updating every ancestor entry's MBR and
//! cluster feature, and splitting overflowing nodes with the R* topological
//! split.  Because new training data keeps arriving on a stream, this path is
//! also what [`crate::classifier::AnytimeClassifier::learn_one`] uses for
//! online learning.
//!
//! The descent, ancestor-summary maintenance and split propagation live in
//! the shared [`bt_anytree`] core (an iterative cursor engine, see
//! [`bt_anytree::descent`]); this module only supplies the kernel-specific
//! [`InsertModel`]: raw points as leaf items, R* leaf splits over per-point
//! MBRs, no hitchhiker buffering (every insertion descends to a leaf, i.e.
//! an unbounded budget).  [`BayesTree::insert_batch`] hands a mini-batch to
//! the shared sharding layer, which drains it into the one shard of a plain
//! tree (or routes it across `K` shards descending in parallel) through the
//! core's batched engine, sharing summary refreshes and split handling
//! across the batch.

use crate::descent::DescentStrategy;
use crate::node::{StoredElement, StoredSummary};
use crate::query::KernelQueryModel;
use crate::tree::BayesTree;
use bt_anytree::{BatchOutcome, InsertModel, PipelinedOutcome, ShardRouter};
use bt_index::rstar::rstar_split_corners;
use bt_index::PageGeometry;

/// The Bayes tree's insertion policy over the shared core (one impl per
/// stored summary representation; the split geometry always works over
/// exact per-point `f64` boxes regardless of how the node summaries are
/// stored).  Public so a [`bt_anytree::AnytimeTree`] can be driven
/// directly with the Bayes tree's policy, as the equivalence tests do.
#[derive(Debug, Clone, Copy)]
pub struct KernelModel {
    dims: usize,
}

impl KernelModel {
    /// The policy for `dims`-dimensional kernels.
    #[must_use]
    pub fn new(dims: usize) -> Self {
        Self { dims }
    }
}

impl<S: StoredSummary> InsertModel<S> for KernelModel {
    type Object = Vec<f64>;
    type LeafItem = Vec<f64>;

    fn ctx(&self) {}

    fn route_point<'a>(&self, obj: &'a Vec<f64>, _scratch: &'a mut Vec<f64>) -> &'a [f64] {
        obj
    }

    fn summary_of(&self, obj: &Vec<f64>) -> S {
        S::from_point(obj)
    }

    fn absorb_into(&self, summary: &mut S, obj: &Vec<f64>) {
        summary.absorb_point(obj);
    }

    fn insert_into_leaf(&mut self, items: &mut Vec<Vec<f64>>, obj: Vec<f64>) {
        items.push(obj);
    }

    fn summarize_leaf_items(&self, items: &[Vec<f64>]) -> S {
        S::from_points(items, self.dims).expect("cannot summarise an empty leaf")
    }

    fn split_leaf_items(
        &self,
        items: Vec<Vec<f64>>,
        geometry: &PageGeometry,
    ) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
        let min = geometry.min_leaf.min(items.len() / 2).max(1);
        let split = rstar_split_corners(
            items.len(),
            self.dims,
            |i, d| (items[i][d], items[i][d]),
            min,
        );
        bt_anytree::split::distribute(items, &split.first, &split.second)
    }
}

/// Rejects a non-finite coordinate at a write entry, before any state
/// changes: one NaN or infinity folded into a summary voids every certified
/// bound of its shard.
///
/// # Panics
///
/// Panics with "point coordinates must be finite" on a NaN or infinite
/// coordinate.
pub(crate) fn assert_finite<'a>(points: impl IntoIterator<Item = &'a Vec<f64>>) {
    assert!(
        points.into_iter().all(|p| p.iter().all(|v| v.is_finite())),
        "point coordinates must be finite"
    );
}

impl<E: StoredElement, R: ShardRouter<E::Summary>> BayesTree<E, R> {
    /// Inserts one observation into the shard the router assigns it (the
    /// one shard of a plain tree).
    ///
    /// # Panics
    ///
    /// Panics if the point has the wrong dimensionality or a non-finite
    /// coordinate.
    pub fn insert(&mut self, point: Vec<f64>) {
        assert_eq!(point.len(), self.dims(), "point dimensionality mismatch");
        assert_finite([&point]);
        let mut model = KernelModel::new(self.dims());
        // The Bayes tree always descends to a leaf: an unbounded budget.
        let _ = self.core.insert(&mut model, point, usize::MAX);
        self.num_points += 1;
    }

    /// Inserts every observation of an iterator in order.
    pub fn insert_all<I: IntoIterator<Item = Vec<f64>>>(&mut self, points: I) {
        for p in points {
            self.insert(p);
        }
    }

    /// Inserts a mini-batch of observations through the core's batched
    /// descent engine: every node visited by the batch refreshes its entry
    /// summaries once, and overflowing nodes split once after the whole
    /// batch has drained.  Structurally equivalent to sequential insertion
    /// for a batch of one; larger batches may group splits differently (both
    /// are valid trees covering the same data).  A tree of several shards
    /// descends every shard's share in parallel on scoped threads.
    ///
    /// The Bayes tree always descends to a leaf (unbounded budget); the
    /// report carries the per-object outcomes in input order and the work
    /// counters summed over the shards.
    ///
    /// # Panics
    ///
    /// Panics if any point has the wrong dimensionality or a non-finite
    /// coordinate; the tree is left untouched.
    pub fn insert_batch(&mut self, points: Vec<Vec<f64>>) -> BatchOutcome {
        let dims = self.dims();
        assert!(
            points.iter().all(|p| p.len() == dims),
            "point dimensionality mismatch"
        );
        assert_finite(&points);
        self.num_points += points.len();
        self.core
            .insert_batch(&|| KernelModel::new(dims), points, usize::MAX)
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
    /// Panics if any point or query has the wrong dimensionality, or a
    /// point has a non-finite coordinate (before any state changes).
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
        assert_finite(&points);
        // The readers answer against the pre-batch state, so they normalise
        // by the pre-batch observation count.
        let bandwidth = std::sync::Arc::clone(&self.bandwidth);
        let query_model = KernelQueryModel::new(self.len(), &bandwidth);
        self.num_points += points.len();
        self.core.pipelined_batch(
            &|| KernelModel::new(dims),
            points,
            usize::MAX,
            &query_model,
            queries,
            strategy.into(),
            query_budget,
        )
    }
}

impl<E: StoredElement> BayesTree<E> {
    /// Builds a one-shard tree by inserting `points` one at a time (the
    /// paper's "Iterativ" baseline).
    ///
    /// # Panics
    ///
    /// Panics if any point has the wrong dimensionality or a non-finite
    /// coordinate.
    #[must_use]
    pub fn build_iterative(
        points: &[Vec<f64>],
        dims: usize,
        geometry: bt_index::PageGeometry,
    ) -> BayesTree<E> {
        assert_finite(points);
        let mut tree = BayesTree::<E>::new(dims, geometry);
        for p in points {
            tree.insert(p.clone());
        }
        tree.fit_bandwidth();
        tree
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bt_index::PageGeometry;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn small_geometry() -> PageGeometry {
        PageGeometry::from_fanout(4, 4)
    }

    fn random_points(n: usize, dims: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| (0..dims).map(|_| rng.random::<f64>() * 10.0).collect())
            .collect()
    }

    #[test]
    fn leaf_split_over_raw_points_matches_split_over_point_boxes() {
        use bt_index::rstar::rstar_split;
        use bt_index::Mbr;

        let geometry = PageGeometry::default_for_dims(16);
        for (seed, n) in [(5u64, geometry.max_leaf + 1), (6, 64), (7, 94)] {
            // Coordinates on a coarse grid, so sort keys tie often.
            let items: Vec<Vec<f64>> = random_points(n, 16, seed)
                .into_iter()
                .map(|p| p.into_iter().map(f64::round).collect())
                .collect();
            let boxes: Vec<Mbr> = items.iter().map(|p| Mbr::from_point(p)).collect();
            let min = geometry.min_leaf.min(n / 2).max(1);
            let reference = rstar_split(&boxes, min);
            let expected =
                bt_anytree::split::distribute(items.clone(), &reference.first, &reference.second);
            let model = KernelModel::new(16);
            let got =
                InsertModel::<crate::KernelSummary>::split_leaf_items(&model, items, &geometry);
            assert_eq!(got, expected, "n = {n}");
        }
    }

    #[test]
    fn one_large_batch_into_an_empty_tree_stays_valid() {
        // The batch lands in the root leaf, which then splits at 4,096
        // entries and below, far past the split's rank cutoff (bt-index
        // tests that such splits build no rank table).
        let geometry = PageGeometry::default_for_dims(16);
        let mut tree: BayesTree = BayesTree::new(16, geometry);
        tree.insert_batch(random_points(4_096, 16, 8));
        assert_eq!(tree.len(), 4_096);
        assert!(tree.validate(true).is_ok());
    }

    #[test]
    fn inserting_under_capacity_keeps_leaf_root() {
        let mut tree: BayesTree = BayesTree::new(2, small_geometry());
        for p in random_points(4, 2, 1) {
            tree.insert(p);
        }
        assert_eq!(tree.height(), 1);
        assert_eq!(tree.len(), 4);
        assert!(tree.validate(true).is_ok());
    }

    #[test]
    fn overflow_splits_the_root() {
        let mut tree: BayesTree = BayesTree::new(2, small_geometry());
        for p in random_points(5, 2, 2) {
            tree.insert(p);
        }
        assert_eq!(tree.height(), 2);
        assert!(tree.validate(true).is_ok());
    }

    #[test]
    fn large_insert_stays_valid_and_balanced() {
        let mut tree: BayesTree = BayesTree::new(3, small_geometry());
        for p in random_points(500, 3, 3) {
            tree.insert(p);
        }
        assert_eq!(tree.len(), 500);
        assert!(tree.height() >= 3);
        tree.validate(true).expect("tree invariants hold");
    }

    #[test]
    fn root_cf_counts_every_point() {
        let mut tree: BayesTree = BayesTree::new(2, small_geometry());
        for p in random_points(100, 2, 4) {
            tree.insert(p);
        }
        let total: f64 = tree.root_entries().iter().map(|e| e.weight()).sum();
        assert!((total - 100.0).abs() < 1e-6);
    }

    #[test]
    fn clustered_data_splits_along_clusters() {
        let mut tree: BayesTree = BayesTree::new(2, small_geometry());
        let mut pts = Vec::new();
        for i in 0..20 {
            pts.push(vec![i as f64 * 0.01, 0.0]);
            pts.push(vec![100.0 + i as f64 * 0.01, 50.0]);
        }
        for p in pts {
            tree.insert(p);
        }
        tree.validate(true).expect("valid");
        // Root entries should separate the two clusters: at least one root
        // entry must lie entirely in the low cluster region.
        let entries = tree.root_entries();
        assert!(entries
            .iter()
            .any(|e| e.mbr.upper()[0] < 50.0 || e.mbr.lower()[0] > 50.0));
    }

    #[test]
    fn build_iterative_fits_bandwidth() {
        let tree: BayesTree =
            BayesTree::build_iterative(&random_points(50, 2, 5), 2, small_geometry());
        assert!(tree.bandwidth().iter().all(|h| *h > 0.0 && *h < 10.0));
        assert_eq!(tree.len(), 50);
    }

    #[test]
    fn duplicate_points_are_handled() {
        let mut tree: BayesTree = BayesTree::new(2, small_geometry());
        for _ in 0..50 {
            tree.insert(vec![1.0, 1.0]);
        }
        assert_eq!(tree.len(), 50);
        tree.validate(true).expect("valid with duplicates");
    }

    #[test]
    #[should_panic(expected = "dimensionality mismatch")]
    fn wrong_dims_panics() {
        let mut tree: BayesTree = BayesTree::new(2, small_geometry());
        tree.insert(vec![1.0]);
    }

    #[test]
    fn batch_of_one_matches_sequential_insertion() {
        let points = random_points(200, 2, 9);
        let mut sequential: BayesTree = BayesTree::new(2, small_geometry());
        let mut batched: BayesTree = BayesTree::new(2, small_geometry());
        for p in &points {
            sequential.insert(p.clone());
            batched.insert_batch(vec![p.clone()]);
        }
        assert_eq!(sequential.len(), batched.len());
        assert_eq!(sequential.height(), batched.height());
        assert_eq!(sequential.num_nodes(), batched.num_nodes());
        batched.validate(true).expect("valid tree");
    }

    #[test]
    fn batched_insertion_builds_a_valid_tree() {
        let points = random_points(500, 3, 10);
        let mut tree: BayesTree = BayesTree::new(3, small_geometry());
        for chunk in points.chunks(16) {
            tree.insert_batch(chunk.to_vec());
        }
        assert_eq!(tree.len(), 500);
        tree.validate(true).expect("tree invariants hold");
        let total: f64 = tree.root_entries().iter().map(|e| e.weight()).sum();
        assert!((total - 500.0).abs() < 1e-6);
    }

    #[test]
    fn batched_insertion_refreshes_fewer_summaries() {
        let points = random_points(600, 2, 11);
        let mut sequential: BayesTree = BayesTree::new(2, small_geometry());
        for p in &points {
            sequential.insert(p.clone());
        }
        let mut batched: BayesTree = BayesTree::new(2, small_geometry());
        for chunk in points.chunks(64) {
            batched.insert_batch(chunk.to_vec());
        }
        assert!(
            batched.summary_refreshes() < sequential.summary_refreshes(),
            "batched {} vs sequential {}",
            batched.summary_refreshes(),
            sequential.summary_refreshes()
        );
    }

    #[test]
    #[should_panic(expected = "dimensionality mismatch")]
    fn batch_with_wrong_dims_panics() {
        let mut tree: BayesTree = BayesTree::new(2, small_geometry());
        tree.insert_batch(vec![vec![1.0, 2.0], vec![1.0]]);
    }
}
