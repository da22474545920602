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
//! [`InsertModel`]: raw points copied into each leaf's dimension-major
//! block ([`PointColumns`]), absorbed into each ancestor entry's columns
//! ([`EntryColumns`]), R* leaf splits over per-point MBRs, no hitchhiker
//! buffering (every insertion descends to a leaf, i.e.
//! an unbounded budget).  [`BayesTree::insert_batch`] hands a mini-batch to
//! the shared sharding layer, which drains it into the one shard of a plain
//! tree (or routes it across `K` shards descending in parallel) through the
//! core's batched engine, sharing summary refreshes and split handling
//! across the batch.

use crate::descent::DescentStrategy;
use crate::leaf::PointColumns;
use crate::node::{EntryColumns, KernelSummary};
use crate::query::KernelQueryModel;
use crate::tree::{BayesIndex, BayesTree, LiveShards};
use bt_anytree::{BatchOutcome, InsertModel, PipelinedOutcome, ShardRouter};
use bt_index::rstar::rstar_split_corners;
use bt_index::PageGeometry;

/// The Bayes tree's insertion policy over the shared core (the leaf split
/// works over the points' degenerate boxes).  Public so a
/// [`bt_anytree::AnytimeTree`] can be driven directly with the Bayes
/// tree's policy, as the equivalence tests do.
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

impl InsertModel<KernelSummary> for KernelModel {
    type Object = Vec<f64>;
    type Leaf = PointColumns;

    fn ctx(&self) {}

    fn route_point<'a>(&self, obj: &'a Vec<f64>, _scratch: &'a mut Vec<f64>) -> &'a [f64] {
        obj
    }

    fn summary_of(&self, obj: &Vec<f64>) -> KernelSummary {
        KernelSummary::from_point(obj)
    }

    fn absorb_into(&self, summary: &mut KernelSummary, obj: &Vec<f64>) {
        summary.absorb_point(obj);
    }

    /// Absorbs the point into the entry's columns in place; the batch
    /// derives the entry's mean and variance lanes before it publishes.
    fn absorb_into_entry(&self, entries: &mut EntryColumns, i: usize, obj: &Vec<f64>) {
        entries.absorb_point(i, obj);
    }

    /// Copies the point into the leaf's columns.
    fn insert_into_leaf(&mut self, leaf: &mut PointColumns, obj: Vec<f64>) {
        leaf.push(&obj);
    }

    fn summarize_leaf_items(&self, leaf: &PointColumns) -> KernelSummary {
        KernelSummary::from_leaf(leaf).expect("cannot summarise an empty leaf")
    }

    /// The R* split over the points' degenerate boxes, read from the
    /// columns; both halves keep room for a full page (the node overflows
    /// at `max_leaf + 1` points).
    fn split_leaf_items(
        &self,
        leaf: PointColumns,
        geometry: &PageGeometry,
    ) -> (PointColumns, PointColumns) {
        let min = geometry.min_leaf.min(leaf.len() / 2).max(1);
        let split = rstar_split_corners(
            leaf.len(),
            self.dims,
            |i, d| {
                let v = leaf.get(i, d);
                (v, v)
            },
            min,
        );
        leaf.split(&split.first, &split.second, geometry.max_leaf + 1)
    }
}

pub use bt_anytree::InputError;
pub(crate) use bt_anytree::{check_point, check_points, or_panic};

impl<R: ShardRouter<KernelSummary>> BayesIndex<LiveShards<R>> {
    /// Inserts one observation into the shard the router assigns it (the
    /// one shard of a plain tree).
    ///
    /// # Panics
    ///
    /// Panics if the point has the wrong dimensionality or a non-finite
    /// coordinate ([`Self::try_insert`] returns the error instead).
    pub fn insert(&mut self, point: Vec<f64>) {
        or_panic(self.try_insert(point));
    }

    /// Inserts one observation, or rejects it before any state changes.
    ///
    /// # Errors
    ///
    /// [`InputError::Dimensionality`] or [`InputError::NonFinite`] (index
    /// `0`); the tree is left untouched.
    pub fn try_insert(&mut self, point: Vec<f64>) -> Result<(), InputError> {
        check_point(0, &point, self.dims())?;
        self.insert_checked(point);
        Ok(())
    }

    /// Inserts one point that passed [`check_point`].
    pub(crate) fn insert_checked(&mut self, point: Vec<f64>) {
        let mut model = KernelModel::new(self.dims());
        // The Bayes tree always descends to a leaf: an unbounded budget.
        let _ = self.core.insert(&mut model, point, usize::MAX);
        self.num_points += 1;
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
    /// coordinate; the tree is left untouched ([`Self::try_insert_batch`]
    /// returns the error instead).
    pub fn insert_batch(&mut self, points: Vec<Vec<f64>>) -> BatchOutcome {
        or_panic(self.try_insert_batch(points))
    }

    /// Inserts a mini-batch as [`Self::insert_batch`] does, or rejects it:
    /// the whole batch is checked in one pass before any state changes.
    ///
    /// # Errors
    ///
    /// [`InputError::Dimensionality`] or [`InputError::NonFinite`] naming
    /// the first offending point; the tree is left untouched.
    pub fn try_insert_batch(&mut self, points: Vec<Vec<f64>>) -> Result<BatchOutcome, InputError> {
        check_points(&points, self.dims())?;
        Ok(self.insert_batch_checked(points))
    }

    /// Inserts a batch whose every point passed [`check_point`].
    pub(crate) fn insert_batch_checked(&mut self, points: Vec<Vec<f64>>) -> BatchOutcome {
        let (dims, count) = (self.dims(), points.len());
        let outcome = self
            .core
            .insert_batch(&|| KernelModel::new(dims), points, usize::MAX);
        self.num_points += count;
        outcome
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
        or_panic(check_points(&points, dims));
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

impl BayesTree {
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
    ) -> BayesTree {
        or_panic(check_points(points, dims));
        Self::build_iterative_checked(points, dims, geometry)
    }

    /// [`Self::build_iterative`] over a batch that passed [`check_points`].
    pub(crate) fn build_iterative_checked(
        points: &[Vec<f64>],
        dims: usize,
        geometry: bt_index::PageGeometry,
    ) -> BayesTree {
        let mut tree = BayesTree::new(dims, geometry);
        for p in points {
            tree.insert_checked(p.clone());
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
            let leaf = PointColumns::from_rows(16, items.iter().map(Vec::as_slice));
            let (first, second) = model.split_leaf_items(leaf, &geometry);
            let got = (first.rows(), second.rows());
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
