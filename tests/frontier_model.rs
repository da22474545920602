//! Integration test for experiment E8 (Figure 1): every frontier of a Bayes
//! tree is a complete mixture model — each stored kernel is represented
//! exactly once — and refining the frontier to exhaustion reproduces the full
//! kernel density estimate, regardless of how the tree was constructed or
//! which descent strategy is used.

//!
//! A frontier is a query cursor over the tree's one shard, refined one node
//! read at a time through `TreeView::refine_query`.

use anytime_stream_mining::anytree::{QueryCursor, TreeView};
use anytime_stream_mining::bayestree::{build_tree, BayesTree, BulkLoadMethod, DescentStrategy};
use anytime_stream_mining::data::synth::blobs::BlobConfig;
use anytime_stream_mining::index::PageGeometry;

/// The initial frontier of `query`: the root's entries.
fn start(tree: &BayesTree, query: &[f64]) -> QueryCursor {
    tree.shard(0).new_query(&tree.query_model(), query)
}

/// One refinement step (one node read) in `strategy`.
fn refine(tree: &BayesTree, strategy: DescentStrategy, cursor: &mut QueryCursor) -> bool {
    tree.shard(0)
        .refine_query(&tree.query_model(), strategy.into(), cursor)
}

/// The frontier's mixture density `pdq(x, E)`.
fn density(cursor: &QueryCursor) -> f64 {
    cursor.estimate().max(0.0)
}

fn workload() -> (Vec<Vec<f64>>, usize) {
    let dataset = BlobConfig::new(3, 5)
        .samples_per_class(120)
        .clusters_per_class(3)
        .seed(33)
        .generate();
    (dataset.features().to_vec(), dataset.dims())
}

#[test]
fn every_frontier_represents_each_kernel_exactly_once() {
    let (points, dims) = workload();
    let geometry = PageGeometry::from_fanout(5, 8);
    for method in BulkLoadMethod::all() {
        let tree = build_tree(&points, dims, geometry, method, 5);
        let query = vec![1.0; dims];
        let mut frontier = start(&tree, &query);
        let n = points.len() as f64;
        assert!(
            (frontier.total_weight() - n).abs() < 1e-6,
            "{method:?}: initial frontier weight {}",
            frontier.total_weight()
        );
        let mut steps = 0;
        while refine(&tree, DescentStrategy::default(), &mut frontier) {
            steps += 1;
            assert!(
                (frontier.total_weight() - n).abs() < 1e-6,
                "{method:?}: weight drifted after {steps} refinements"
            );
        }
        assert!(steps > 0, "{method:?}: nothing to refine");
    }
}

#[test]
fn exhaustive_refinement_matches_full_kernel_density_for_all_strategies() {
    let (points, dims) = workload();
    let geometry = PageGeometry::from_fanout(4, 10);
    let tree = build_tree(&points, dims, geometry, BulkLoadMethod::Hilbert, 1);
    let queries = [vec![0.0; 5], vec![6.0; 5], vec![12.0; 5]];
    for strategy in DescentStrategy::all() {
        for query in &queries {
            let mut frontier = start(&tree, query);
            while refine(&tree, strategy, &mut frontier) {}
            let expected = tree.full_kernel_density(query);
            assert!(
                (density(&frontier) - expected).abs() <= 1e-9 * (1.0 + expected),
                "strategy {strategy:?}: {} vs {expected}",
                density(&frontier)
            );
        }
    }
}

#[test]
fn node_reads_equal_number_of_internal_plus_leaf_nodes() {
    // Refining everything reads every node of the tree except the root
    // (which is free): the refinement count is a direct measure of I/O.
    let (points, dims) = workload();
    let geometry = PageGeometry::from_fanout(4, 8);
    let tree = build_tree(&points, dims, geometry, BulkLoadMethod::Str, 1);
    let mut frontier = start(&tree, &vec![0.0; dims]);
    while refine(&tree, DescentStrategy::BreadthFirst, &mut frontier) {}
    assert_eq!(frontier.nodes_read(), tree.num_nodes() - 1);
}

#[test]
fn intermediate_models_are_valid_densities_along_the_descent() {
    let (points, dims) = workload();
    let tree = build_tree(
        &points,
        dims,
        PageGeometry::from_fanout(5, 10),
        BulkLoadMethod::EmTopDown,
        9,
    );
    let query = vec![5.0; dims];
    let mut frontier = start(&tree, &query);
    for _ in 0..50 {
        assert!(density(&frontier) >= 0.0);
        assert!(density(&frontier).is_finite());
        if !refine(&tree, DescentStrategy::default(), &mut frontier) {
            break;
        }
    }
}
