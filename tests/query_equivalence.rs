//! Property tests for the sharded query path: sharding must be an
//! *organisational* change on the query side too, never an observable one.
//!
//! Locked down for both instantiations (Bayes tree and ClusTree):
//!
//! * a tree with **one shard** answers every anytime query exactly like
//!   one directly driven [`AnytimeTree`] core read through the fold as its
//!   one-view slice — estimates, certain bounds, node reads, outlier
//!   scores and retrieved neighbours,
//! * at **any shard count** the fully refined folded answer equals the
//!   one-shard tree's fully refined answer (the mixture sum does not care
//!   how the kernels are partitioned), and the folded bound interval is
//!   monotone in the per-shard budget,
//! * every query kind rejects a query of the wrong dimensionality with the
//!   same message on an empty sharded tree and on one with two busy
//!   shards — the fold checks at its entry, before any dispatch.

use anytime_stream_mining::anytree::{
    outlier_score_over, query_over, AnytimeTree, FixedPartitionRouter, RefineOrder,
};
use anytime_stream_mining::bayestree::insert::KernelModel;
use anytime_stream_mining::bayestree::{
    BayesCore, BayesTree, DescentStrategy, KernelQueryModel, KernelSummary,
};
use anytime_stream_mining::clustree::{
    knn_over, ClusCore, ClusModel, ClusQueryModel, ClusTree, ClusTreeConfig, MicroCluster,
};
use anytime_stream_mining::index::PageGeometry;
use anytime_stream_mining::stats::KernelBandwidth;
use proptest::prelude::*;

/// Strategy producing a bounded set of 3-d points.
fn stream_strategy(max_len: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(prop::collection::vec(-5.0f64..5.0, 3), 12..max_len)
}

fn geometry() -> PageGeometry {
    PageGeometry::from_fanout(4, 4)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn one_shard_bayes_queries_match_the_plain_tree(
        points in stream_strategy(120),
        qx in -6.0f64..6.0,
        budget in 0usize..40,
    ) {
        let mut plain: BayesCore<KernelSummary> = AnytimeTree::new(3, geometry());
        let mut sharded: BayesTree = BayesTree::new(3, geometry());
        for chunk in points.chunks(16) {
            let _ = plain.insert_batch(&mut KernelModel::new(3), chunk.to_vec(), usize::MAX);
            let _ = sharded.insert_batch(chunk.to_vec());
        }
        let bandwidth = vec![0.8, 0.8, 0.8];
        let plain_bandwidth = KernelBandwidth::new(bandwidth.clone());
        let model = KernelQueryModel::new(points.len(), &plain_bandwidth);
        let plain = std::slice::from_ref(&plain);
        sharded.set_bandwidth(bandwidth);
        let query = vec![qx, -qx, qx * 0.5];
        for strategy in DescentStrategy::all() {
            let reference = query_over(plain, &model, &query, strategy.into(), budget);
            let folded = sharded.anytime_density(&query, strategy, budget);
            prop_assert_eq!(folded, reference, "strategy {:?}", strategy);
        }
        let score_plain = outlier_score_over(plain, &model, &query, 1e-3, 30);
        let score_sharded = sharded.outlier_score(&query, 1e-3, 30);
        prop_assert_eq!(score_plain, score_sharded);
    }

    #[test]
    fn sharded_bayes_full_refinement_is_partition_invariant(
        points in stream_strategy(100),
        shards in 2usize..5,
        qx in -6.0f64..6.0,
    ) {
        let mut plain: BayesTree = BayesTree::new(3, geometry());
        let mut sharded: BayesTree = BayesTree::sharded(3, geometry(), shards);
        for chunk in points.chunks(16) {
            let _ = plain.insert_batch(chunk.to_vec());
            let _ = sharded.insert_batch(chunk.to_vec());
        }
        let bandwidth = vec![0.6, 0.9, 0.7];
        plain.set_bandwidth(bandwidth.clone());
        sharded.set_bandwidth(bandwidth);
        let query = vec![qx, qx, qx];
        let reference = plain.anytime_density(&query, DescentStrategy::default(), usize::MAX);
        let folded = sharded.anytime_density(&query, DescentStrategy::default(), usize::MAX);
        prop_assert!(
            (folded.estimate - reference.estimate).abs() <= 1e-9 * (1.0 + reference.estimate),
            "fully refined fold {} vs plain {}", folded.estimate, reference.estimate
        );
        prop_assert!(folded.uncertainty() < 1e-12);
        // Folded bounds are monotone in the per-shard budget.
        let mut last = f64::INFINITY;
        for budget in [0usize, 1, 2, 4, 8, 16] {
            let answer = sharded.anytime_density(&query, DescentStrategy::default(), budget);
            prop_assert!(answer.uncertainty() <= last + 1e-12);
            last = answer.uncertainty();
        }
        // Every shard routed some share of the points.
        prop_assert_eq!(sharded.shard_sizes().iter().sum::<usize>(), points.len());
    }

    #[test]
    fn one_shard_clustree_queries_match_the_plain_tree(
        points in stream_strategy(100),
        insert_budget in 0usize..8,
        qx in -6.0f64..6.0,
        query_budget in 0usize..30,
    ) {
        let config = ClusTreeConfig::default();
        let mut plain: ClusCore = AnytimeTree::new(3, config.geometry());
        let mut sharded = ClusTree::new(3, config.clone());
        for (batch_idx, chunk) in points.chunks(12).enumerate() {
            let now = batch_idx as f64;
            let payloads = chunk.iter().map(|p| MicroCluster::from_point(p, now)).collect();
            let _ = plain.insert_batch(&mut ClusModel::new(&config, now), payloads, insert_budget);
            let _ = sharded.insert_batch(chunk, now, insert_budget);
        }
        let plain = std::slice::from_ref(&plain);
        let bandwidth = [1.5, 1.5, 1.5];
        let model = ClusQueryModel::over(plain, &bandwidth, config.decay_lambda);
        let query = vec![qx, qx * 0.5, -qx];
        let reference = query_over(plain, &model, &query, RefineOrder::BestFirst, query_budget);
        let folded = sharded.anytime_density(&query, &bandwidth, RefineOrder::BestFirst, query_budget);
        prop_assert_eq!(folded, reference);
        let score_plain = outlier_score_over(plain, &model, &query, 1e-3, query_budget);
        let score_sharded = sharded.outlier_score(&query, &bandwidth, 1e-3, query_budget);
        prop_assert_eq!(score_plain, score_sharded);
        let knn_model = ClusQueryModel::over(plain, &[1.0; 3], config.decay_lambda);
        let knn_plain = knn_over(plain, &knn_model, &query, 3, query_budget);
        let knn_sharded = sharded.anytime_knn(&query, 3, query_budget);
        prop_assert_eq!(knn_plain.nodes_read, knn_sharded.nodes_read);
        prop_assert_eq!(knn_plain.neighbors.len(), knn_sharded.neighbors.len());
        for (a, b) in knn_plain.neighbors.iter().zip(&knn_sharded.neighbors) {
            prop_assert_eq!(&a.center, &b.center);
            prop_assert_eq!(a.sq_dist, b.sq_dist);
            prop_assert_eq!(a.depth, b.depth);
            prop_assert_eq!(a.refinable, b.refinable);
        }
    }
}

/// Every [`RefineOrder`], exercised by the lazy-heap-vs-reference-scan
/// property tests below.
const ALL_ORDERS: [RefineOrder; 5] = [
    RefineOrder::BreadthFirst,
    RefineOrder::DepthFirst,
    RefineOrder::ClosestFirst,
    RefineOrder::BestFirst,
    RefineOrder::WidestBound,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The cursor's per-order lazy heap must pop **the identical element
    /// sequence** as the reference linear scan, for every `RefineOrder`:
    /// before each refinement the heap's choice (`peek_next`, what
    /// `refine_query` consumes) is compared against the scan's
    /// (`peek_next_scan`), all the way to frontier exhaustion.
    #[test]
    fn bayes_heap_selection_pops_the_scan_sequence(
        points in stream_strategy(100),
        qx in -6.0f64..6.0,
    ) {
        use anytime_stream_mining::anytree::TreeView;
        let mut tree: BayesTree = BayesTree::new(3, geometry());
        for chunk in points.chunks(16) {
            tree.insert_batch(chunk.to_vec());
        }
        tree.set_bandwidth(vec![0.8, 0.9, 0.7]);
        let snapshot = tree.snapshot();
        let model = snapshot.query_model();
        let query = vec![qx, -qx, qx * 0.5];
        for order in ALL_ORDERS {
            let mut cursor = snapshot.core().shard(0).new_query(&model, &query);
            let mut steps = 0usize;
            loop {
                let scan = cursor.peek_next_scan(order);
                let heap = cursor.peek_next(order);
                prop_assert_eq!(heap, scan, "{:?} diverged at step {}", order, steps);
                if !snapshot.core().shard(0).refine_query(&model, order, &mut cursor) {
                    prop_assert!(scan.is_none());
                    break;
                }
                steps += 1;
            }
        }
    }

    #[test]
    fn clustree_heap_selection_pops_the_scan_sequence(
        points in stream_strategy(90),
        insert_budget in 0usize..8,
        qx in -6.0f64..6.0,
    ) {
        use anytime_stream_mining::anytree::TreeView;
        let mut tree = ClusTree::new(3, ClusTreeConfig::default());
        for (batch_idx, chunk) in points.chunks(12).enumerate() {
            let _ = tree.insert_batch(chunk, batch_idx as f64, insert_budget);
        }
        let model = tree.query_model(&[1.3, 1.3, 1.3]);
        let query = vec![qx * 0.5, qx, -qx];
        for order in ALL_ORDERS {
            let mut cursor = tree.shard(0).new_query(&model, &query);
            let mut steps = 0usize;
            loop {
                let scan = cursor.peek_next_scan(order);
                let heap = cursor.peek_next(order);
                prop_assert_eq!(heap, scan, "{:?} diverged at step {}", order, steps);
                if !tree.shard(0).refine_query(&model, order, &mut cursor) {
                    prop_assert!(scan.is_none());
                    break;
                }
                steps += 1;
            }
        }
    }

    /// Switching the order mid-query rebuilds the heap; selection must stay
    /// scan-identical across the switch.
    #[test]
    fn heap_survives_order_switches_mid_query(
        points in stream_strategy(80),
        qx in -6.0f64..6.0,
        switch in 0usize..5,
    ) {
        use anytime_stream_mining::anytree::TreeView;
        let mut tree: BayesTree = BayesTree::new(3, geometry());
        for chunk in points.chunks(16) {
            tree.insert_batch(chunk.to_vec());
        }
        let snapshot = tree.snapshot();
        let model = snapshot.query_model();
        let query = vec![qx, qx, qx];
        let mut cursor = snapshot.core().shard(0).new_query(&model, &query);
        let mut order = ALL_ORDERS[switch % ALL_ORDERS.len()];
        let mut step = 0usize;
        loop {
            let scan = cursor.peek_next_scan(order);
            prop_assert_eq!(cursor.peek_next(order), scan, "{:?} at step {}", order, step);
            if !snapshot.core().shard(0).refine_query(&model, order, &mut cursor) {
                break;
            }
            step += 1;
            if step.is_multiple_of(3) {
                order = ALL_ORDERS[(switch + step) % ALL_ORDERS.len()];
            }
        }
    }
}

/// A 2-d sharded Bayes tree dealt `points` points round-robin (two points
/// or more leave both of two shards busy).
fn bayes_2d(shards: usize, points: usize) -> BayesTree<f64, FixedPartitionRouter> {
    let mut tree = BayesTree::sharded(2, geometry(), shards);
    let _ = tree.insert_batch((0..points).map(|i| vec![i as f64, 1.0]).collect());
    tree
}

/// The ClusTree counterpart of [`bayes_2d`].
fn clus_2d(shards: usize, points: usize) -> ClusTree<FixedPartitionRouter> {
    let mut tree = ClusTree::sharded(2, ClusTreeConfig::default(), shards);
    let batch: Vec<Vec<f64>> = (0..points).map(|i| vec![i as f64, 1.0]).collect();
    let _ = tree.insert_batch(&batch, 0.0, 8);
    tree
}

/// One `should_panic` test per case: a 3-d query against a 2-d tree.
macro_rules! wrong_query_dims_panic {
    ($($name:ident: $call:expr;)*) => {$(
        #[test]
        #[should_panic(expected = "query dimensionality mismatch")]
        fn $name() {
            let _ = $call;
        }
    )*};
}

const Q3: [f64; 3] = [1.0, 2.0, 3.0];
const BW: [f64; 2] = [1.0, 1.0];

wrong_query_dims_panic! {
    empty_bayes_density: bayes_2d(4, 0).anytime_density(&Q3, DescentStrategy::default(), 8);
    empty_bayes_batch: bayes_2d(4, 0).density_batch(&[Q3.to_vec()], DescentStrategy::default(), 8);
    empty_bayes_outlier: bayes_2d(4, 0).outlier_score(&[1.0], 1e-3, 8);
    busy_bayes_density: bayes_2d(2, 40).anytime_density(&Q3, DescentStrategy::default(), 8);
    busy_bayes_batch: bayes_2d(2, 40).density_batch(&[Q3.to_vec()], DescentStrategy::default(), 8);
    busy_bayes_outlier: bayes_2d(2, 40).outlier_score(&Q3, 1e-3, 8);
    empty_clus_density: clus_2d(2, 0).anytime_density(&Q3, &BW, RefineOrder::BestFirst, 8);
    empty_clus_batch: clus_2d(2, 0).density_batch(&[Q3.to_vec()], &BW, RefineOrder::BestFirst, 8);
    empty_clus_outlier: clus_2d(2, 0).outlier_score(&Q3, &BW, 1e-3, 8);
    empty_clus_knn: clus_2d(2, 0).anytime_knn(&Q3, 3, 8);
    busy_clus_density: clus_2d(2, 40).anytime_density(&Q3, &BW, RefineOrder::BestFirst, 8);
    busy_clus_batch: clus_2d(2, 40).density_batch(&[Q3.to_vec()], &BW, RefineOrder::BestFirst, 8);
    busy_clus_outlier: clus_2d(2, 40).outlier_score(&Q3, &BW, 1e-3, 8);
    busy_clus_knn: clus_2d(2, 40).anytime_knn(&Q3, 3, 8);
}
