//! Frontiers: the anytime mixture model of a query.
//!
//! A *frontier* is a set of entries such that every leaf kernel of the tree
//! is represented exactly once (Section 2.2).  It defines a Gaussian mixture
//! model (Definition 3) whose density for the query object is refined
//! incrementally: in each time step one frontier element is replaced by the
//! entries of its child node, and the density is updated by subtracting the
//! refined element's contribution and adding its children's contributions —
//! the cost per step is one node read.
//!
//! The frontier machinery itself — element bookkeeping, the refinement
//! orderings of Section 2.2, the resumable cursor with its certain
//! `[lower, upper]` density bounds — is the shared engine in
//! [`bt_anytree::query`]; this module is the Bayes tree's thin instantiation
//! over the [`KernelQueryModel`](crate::query::KernelQueryModel).  The
//! paper's [`DescentStrategy`] names map one-to-one onto the core's
//! [`RefineOrder`](bt_anytree::RefineOrder)s.

use crate::descent::DescentStrategy;
use crate::node::KernelSummary;
use crate::query::KernelQueryModel;
use crate::tree::BayesTree;
use bt_anytree::{AnytimeTree, QueryAnswer, QueryCursor, QueryStats, TreeView};

/// One element of the frontier: re-exported from the shared query engine.
///
/// The familiar fields are unchanged (`child`, `weight`, `contribution`,
/// `min_dist_sq`, `depth`, `seq`); the engine adds the certain
/// `lower`/`upper` bounds and the element's [`origin`](bt_anytree::QueryElement::origin).
pub type FrontierElement = bt_anytree::QueryElement;

/// The evolving frontier of one tree for one query object.
///
/// Generic over the [`TreeView`] it refines against: the live tree (the
/// default, via [`TreeFrontier::new`]) or an epoch-pinned
/// [`TreeSnapshot`](bt_anytree::TreeSnapshot) (via [`TreeFrontier::over`]).
/// This is the public single-tree API and owns its cursor; the classifier
/// runs the same refinement on pooled per-thread cursors instead
/// ([`bt_anytree::with_scratch_cursors`]).
#[derive(Debug, Clone)]
pub struct TreeFrontier<'a, V = AnytimeTree<KernelSummary, Vec<f64>>>
where
    V: TreeView<KernelSummary, Vec<f64>>,
{
    view: &'a V,
    model: KernelQueryModel<'a>,
    cursor: QueryCursor,
}

impl<'a> TreeFrontier<'a> {
    /// Creates the initial frontier: the entries of the root node.
    ///
    /// Reading the root is considered free (it is required to produce any
    /// model at all); [`Self::nodes_read`] therefore starts at 0 and counts
    /// refinement steps, matching the x-axis of the paper's figures.
    ///
    /// A frontier covers one tree, so `tree` must have one shard; a tree of
    /// several shards answers through its folded queries
    /// ([`BayesTree::anytime_density`]).
    ///
    /// # Panics
    ///
    /// Panics if the query has the wrong dimensionality or `tree` has more
    /// than one shard.
    #[must_use]
    pub fn new(tree: &'a BayesTree, query: &[f64]) -> Self {
        assert_eq!(tree.num_shards(), 1, "a frontier covers a one-shard tree");
        Self::over(tree.shard(0), tree.query_model(), query)
    }
}

impl<'a, V: TreeView<KernelSummary, Vec<f64>>> TreeFrontier<'a, V> {
    /// Creates the initial frontier over any tree view (live tree or pinned
    /// snapshot) with an explicit query model.
    ///
    /// # Panics
    ///
    /// Panics if the query has the wrong dimensionality.
    #[must_use]
    pub fn over(view: &'a V, model: KernelQueryModel<'a>, query: &[f64]) -> Self {
        let cursor = view.new_query(&model, query);
        Self {
            view,
            model,
            cursor,
        }
    }

    /// The current probability density `pdq(x, E)` of the query under the
    /// frontier's mixture model.
    #[must_use]
    pub fn density(&self) -> f64 {
        self.cursor.estimate().max(0.0)
    }

    /// The certain `(lower, upper)` bounds on the fully refined density —
    /// the interval can only tighten with further refinement.
    #[must_use]
    pub fn density_bounds(&self) -> (f64, f64) {
        self.cursor.bounds()
    }

    /// Width of the certain bound interval (non-increasing in budget).
    #[must_use]
    pub fn uncertainty(&self) -> f64 {
        self.cursor.uncertainty()
    }

    /// The current answer (estimate, bounds, reads) as a standalone value.
    #[must_use]
    pub fn answer(&self) -> QueryAnswer {
        self.cursor.answer()
    }

    /// Number of refinement steps (node reads) performed so far.
    #[must_use]
    pub fn nodes_read(&self) -> usize {
        self.cursor.nodes_read()
    }

    /// The current frontier elements.
    #[must_use]
    pub fn elements(&self) -> &[FrontierElement] {
        self.cursor.elements()
    }

    /// Whether at least one element can still be refined.
    #[must_use]
    pub fn can_refine(&self) -> bool {
        self.cursor.can_refine()
    }

    /// The query engine's work counters for this frontier: one query begun,
    /// plus every node read, element scored and block gathered since.
    #[must_use]
    pub fn stats(&self) -> &QueryStats {
        self.cursor.stats()
    }

    /// Total weight of the frontier (must equal the number of stored
    /// objects — every kernel is represented exactly once).
    #[must_use]
    pub fn total_weight(&self) -> f64 {
        self.cursor.total_weight()
    }

    /// Performs one refinement step with the given descent strategy.
    ///
    /// Returns `false` (and changes nothing) when no element is refinable.
    pub fn refine(&mut self, strategy: DescentStrategy) -> bool {
        self.view
            .refine_query(&self.model, strategy.into(), &mut self.cursor)
    }

    /// Refines until either `budget` node reads have been spent or nothing is
    /// refinable; returns the number of reads actually performed.
    pub fn refine_up_to(&mut self, budget: usize, strategy: DescentStrategy) -> usize {
        self.view
            .refine_query_up_to(&self.model, strategy.into(), budget, &mut self.cursor)
    }

    /// Index of the element the strategy would refine next, if any (via the
    /// cursor's reference scan — see
    /// [`QueryCursor::peek_next_scan`](bt_anytree::QueryCursor::peek_next_scan)).
    #[must_use]
    pub fn peek_next(&self, strategy: DescentStrategy) -> Option<usize> {
        self.cursor.peek_next_scan(strategy.into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descent::PriorityMeasure;
    use bt_index::PageGeometry;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn sample_tree(n: usize, seed: u64) -> BayesTree {
        let mut rng = StdRng::seed_from_u64(seed);
        let points: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                let center = if i % 2 == 0 { 0.0 } else { 8.0 };
                vec![center + rng.random::<f64>(), center + rng.random::<f64>()]
            })
            .collect();
        BayesTree::build_iterative(&points, 2, PageGeometry::from_fanout(4, 4))
    }

    #[test]
    fn initial_frontier_is_root_entries() {
        let tree = sample_tree(100, 1);
        let frontier = TreeFrontier::new(&tree, &[0.5, 0.5]);
        assert_eq!(frontier.nodes_read(), 0);
        assert_eq!(frontier.elements().len(), tree.root_entries().len());
        assert!((frontier.total_weight() - 100.0).abs() < 1e-6);
    }

    #[test]
    fn refinement_preserves_total_weight() {
        let tree = sample_tree(200, 2);
        let mut frontier = TreeFrontier::new(&tree, &[4.0, 4.0]);
        for _ in 0..30 {
            if !frontier.refine(DescentStrategy::default()) {
                break;
            }
            assert!((frontier.total_weight() - 200.0).abs() < 1e-6);
        }
    }

    #[test]
    fn full_refinement_converges_to_kernel_density() {
        let tree = sample_tree(60, 3);
        let query = [1.0, 0.5];
        for strategy in DescentStrategy::all() {
            let mut frontier = TreeFrontier::new(&tree, &query);
            while frontier.refine(strategy) {}
            assert!(!frontier.can_refine());
            let expected = tree.full_kernel_density(&query);
            assert!(
                (frontier.density() - expected).abs() < 1e-9,
                "strategy {strategy:?}: {} vs {expected}",
                frontier.density()
            );
        }
    }

    #[test]
    fn nodes_read_counts_refinements() {
        let tree = sample_tree(100, 4);
        let mut frontier = TreeFrontier::new(&tree, &[0.0, 0.0]);
        let done = frontier.refine_up_to(5, DescentStrategy::BreadthFirst);
        assert_eq!(done, 5);
        assert_eq!(frontier.nodes_read(), 5);
    }

    #[test]
    fn refine_up_to_stops_when_exhausted() {
        let tree = sample_tree(20, 5);
        let mut frontier = TreeFrontier::new(&tree, &[0.0, 0.0]);
        let done = frontier.refine_up_to(10_000, DescentStrategy::DepthFirst);
        assert!(done < 10_000);
        assert!(!frontier.can_refine());
    }

    #[test]
    fn breadth_first_refines_shallowest_first() {
        let tree = sample_tree(300, 6);
        let mut frontier = TreeFrontier::new(&tree, &[0.0, 0.0]);
        // After refining every depth-1 element, the minimum depth among
        // refinable elements must have increased.
        let initial = frontier.elements().len();
        for _ in 0..initial {
            frontier.refine(DescentStrategy::BreadthFirst);
        }
        let min_depth = frontier
            .elements()
            .iter()
            .filter(|e| e.is_refinable())
            .map(|e| e.depth)
            .min()
            .unwrap();
        assert!(min_depth >= 2);
    }

    #[test]
    fn probabilistic_descent_refines_highest_contribution_first() {
        let tree = sample_tree(400, 7);
        // Query sits in the cluster around (8, 8).
        let query = [8.5, 8.5];
        let frontier = TreeFrontier::new(&tree, &query);
        let idx = frontier
            .peek_next(DescentStrategy::GlobalBest(PriorityMeasure::Probabilistic))
            .unwrap();
        let selected = frontier.elements()[idx].contribution;
        let best = frontier
            .elements()
            .iter()
            .filter(|e| e.is_refinable())
            .map(|e| e.contribution)
            .fold(f64::NEG_INFINITY, f64::max);
        assert!((selected - best).abs() < 1e-15);
    }

    #[test]
    fn probabilistic_descent_converges_toward_full_model() {
        // The error against the fully refined kernel density must not grow as
        // the probabilistic descent spends more budget.
        let tree = sample_tree(400, 7);
        let query = [8.5, 8.5];
        let target = tree.full_kernel_density(&query);
        let mut frontier = TreeFrontier::new(&tree, &query);
        let initial_error = (frontier.density() - target).abs();
        while frontier.refine(DescentStrategy::default()) {}
        let final_error = (frontier.density() - target).abs();
        assert!(final_error <= initial_error + 1e-12);
        assert!(final_error < 1e-9);
    }

    #[test]
    fn geometric_descent_selects_closest_mbr() {
        let tree = sample_tree(200, 8);
        let query = [0.2, 0.2];
        let frontier = TreeFrontier::new(&tree, &query);
        let idx = frontier
            .peek_next(DescentStrategy::GlobalBest(PriorityMeasure::Geometric))
            .unwrap();
        let selected = &frontier.elements()[idx];
        let best = frontier
            .elements()
            .iter()
            .filter(|e| e.is_refinable())
            .map(|e| e.min_dist_sq)
            .fold(f64::INFINITY, f64::min);
        assert!((selected.min_dist_sq - best).abs() < 1e-12);
    }

    #[test]
    fn empty_tree_frontier_is_empty() {
        let tree: BayesTree = BayesTree::new(2, PageGeometry::from_fanout(4, 4));
        let frontier = TreeFrontier::new(&tree, &[0.0, 0.0]);
        assert_eq!(frontier.elements().len(), 0);
        assert_eq!(frontier.density(), 0.0);
        assert!(!frontier.can_refine());
    }

    #[test]
    fn bounds_tighten_monotonically_under_refinement() {
        let tree = sample_tree(300, 9);
        let mut frontier = TreeFrontier::new(&tree, &[4.0, 4.0]);
        let mut last = frontier.uncertainty();
        while frontier.refine(DescentStrategy::default()) {
            let now = frontier.uncertainty();
            assert!(now <= last + 1e-12, "uncertainty grew: {last} -> {now}");
            last = now;
        }
        // Fully refined kernels are exact: the interval collapses.
        assert!(frontier.uncertainty() < 1e-12);
        let (lower, upper) = frontier.density_bounds();
        assert!(lower <= frontier.density() + 1e-12);
        assert!(frontier.density() <= upper + 1e-12);
    }
}
