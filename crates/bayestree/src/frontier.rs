//! Frontier tests.  A frontier (Definition 3) is a query cursor over the
//! tree's one shard running the [`KernelQueryModel`](crate::KernelQueryModel):
//! `tree.shard(0).new_query(&tree.query_model(), x)` starts it on the
//! root's entries and each `refine_query` replaces one element by its
//! child's entries — one node read.

#[cfg(test)]
mod tests {
    use crate::descent::{DescentStrategy, PriorityMeasure};
    use crate::tree::BayesTree;
    use bt_anytree::{QueryCursor, TreeView};
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

    /// A fresh query cursor over `tree`'s one shard (the root's entries).
    fn start(tree: &BayesTree, query: &[f64]) -> QueryCursor {
        tree.shard(0).new_query(&tree.query_model(), query)
    }

    /// One refinement step (one node read) of `cursor` in `strategy`.
    fn refine(tree: &BayesTree, strategy: DescentStrategy, cursor: &mut QueryCursor) -> bool {
        tree.shard(0)
            .refine_query(&tree.query_model(), strategy.into(), cursor)
    }

    /// Refines `cursor` by up to `budget` node reads.
    fn refine_up_to(
        tree: &BayesTree,
        budget: usize,
        strategy: DescentStrategy,
        cursor: &mut QueryCursor,
    ) -> usize {
        tree.shard(0)
            .refine_query_up_to(&tree.query_model(), strategy.into(), budget, cursor)
    }

    #[test]
    fn initial_frontier_is_root_entries() {
        let tree = sample_tree(100, 1);
        let cursor = start(&tree, &[0.5, 0.5]);
        assert_eq!(cursor.nodes_read(), 0);
        assert_eq!(cursor.elements().len(), tree.root_entries().len());
        assert!((cursor.total_weight() - 100.0).abs() < 1e-6);
    }

    #[test]
    fn refinement_preserves_total_weight() {
        let tree = sample_tree(200, 2);
        let mut cursor = start(&tree, &[4.0, 4.0]);
        for _ in 0..30 {
            if !refine(&tree, DescentStrategy::default(), &mut cursor) {
                break;
            }
            assert!((cursor.total_weight() - 200.0).abs() < 1e-6);
        }
    }

    #[test]
    fn full_refinement_converges_to_kernel_density() {
        let tree = sample_tree(60, 3);
        let query = [1.0, 0.5];
        for strategy in DescentStrategy::all() {
            let mut cursor = start(&tree, &query);
            while refine(&tree, strategy, &mut cursor) {}
            assert!(!cursor.can_refine());
            let expected = tree.full_kernel_density(&query);
            let density = cursor.estimate().max(0.0);
            assert!(
                (density - expected).abs() < 1e-9,
                "strategy {strategy:?}: {density} vs {expected}"
            );
        }
    }

    #[test]
    fn nodes_read_counts_refinements() {
        let tree = sample_tree(100, 4);
        let mut cursor = start(&tree, &[0.0, 0.0]);
        let done = refine_up_to(&tree, 5, DescentStrategy::BreadthFirst, &mut cursor);
        assert_eq!(done, 5);
        assert_eq!(cursor.nodes_read(), 5);
    }

    #[test]
    fn refine_up_to_stops_when_exhausted() {
        let tree = sample_tree(20, 5);
        let mut cursor = start(&tree, &[0.0, 0.0]);
        let done = refine_up_to(&tree, 10_000, DescentStrategy::DepthFirst, &mut cursor);
        assert!(done < 10_000);
        assert!(!cursor.can_refine());
    }

    #[test]
    fn breadth_first_refines_shallowest_first() {
        let tree = sample_tree(300, 6);
        let mut cursor = start(&tree, &[0.0, 0.0]);
        // After refining every depth-1 element, the minimum depth among
        // refinable elements must have increased.
        let initial = cursor.elements().len();
        for _ in 0..initial {
            refine(&tree, DescentStrategy::BreadthFirst, &mut cursor);
        }
        let min_depth = cursor
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
        let cursor = start(&tree, &query);
        let idx = cursor
            .peek_next_scan(DescentStrategy::GlobalBest(PriorityMeasure::Probabilistic).into())
            .unwrap();
        let selected = cursor.elements()[idx].contribution;
        let best = cursor
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
        let mut cursor = start(&tree, &query);
        let initial_error = (cursor.estimate().max(0.0) - target).abs();
        while refine(&tree, DescentStrategy::default(), &mut cursor) {}
        let final_error = (cursor.estimate().max(0.0) - target).abs();
        assert!(final_error <= initial_error + 1e-12);
        assert!(final_error < 1e-9);
    }

    #[test]
    fn geometric_descent_selects_closest_mbr() {
        let tree = sample_tree(200, 8);
        let query = [0.2, 0.2];
        let cursor = start(&tree, &query);
        let idx = cursor
            .peek_next_scan(DescentStrategy::GlobalBest(PriorityMeasure::Geometric).into())
            .unwrap();
        let selected = &cursor.elements()[idx];
        let best = cursor
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
        let cursor = start(&tree, &[0.0, 0.0]);
        assert_eq!(cursor.elements().len(), 0);
        assert_eq!(cursor.estimate().max(0.0), 0.0);
        assert!(!cursor.can_refine());
    }

    #[test]
    fn bounds_tighten_monotonically_under_refinement() {
        let tree = sample_tree(300, 9);
        let mut cursor = start(&tree, &[4.0, 4.0]);
        let mut last = cursor.uncertainty();
        while refine(&tree, DescentStrategy::default(), &mut cursor) {
            let now = cursor.uncertainty();
            assert!(now <= last + 1e-12, "uncertainty grew: {last} -> {now}");
            last = now;
        }
        // Fully refined kernels are exact: the interval collapses.
        assert!(cursor.uncertainty() < 1e-12);
        let (lower, upper) = cursor.bounds();
        let density = cursor.estimate().max(0.0);
        assert!(lower <= density + 1e-12);
        assert!(density <= upper + 1e-12);
    }
}
