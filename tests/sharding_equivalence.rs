//! Property tests for the sharded concurrent trees: sharding must be an
//! *organisational* change, never an observable one.
//!
//! Two equivalences are locked down for both instantiations (Bayes tree and
//! ClusTree), each against directly driven [`AnytimeTree`] cores running
//! the tree's own insertion policy ([`KernelModel`], [`ClusModel`]):
//!
//! * a tree with **one shard** behaves exactly like one directly driven
//!   core — per-object outcomes, node counts, heights, aggregate mass and
//!   work counters,
//! * a tree with the data-independent [`FixedPartitionRouter`] at **any
//!   shard count K** behaves exactly like K cores fed the same round-robin
//!   partition — the parallel path performs precisely the steps the
//!   sequential simulation performs, shard by shard.
//!
//! Every property also runs the tree's full structural validation after
//! every batch, at every shard count.

use anytime_stream_mining::anytree::{AnytimeTree, FixedPartitionRouter, NodeKind, TreeView};
use anytime_stream_mining::bayestree::insert::KernelModel;
use anytime_stream_mining::bayestree::{BayesCore, BayesTree, KernelSummary};
use anytime_stream_mining::clustree::{
    ClusCore, ClusModel, ClusTree, ClusTreeConfig, MicroCluster,
};
use anytime_stream_mining::index::PageGeometry;
use proptest::prelude::*;

/// Strategy producing a bounded set of 3-d points.
fn stream_strategy(max_len: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(prop::collection::vec(-5.0f64..5.0, 3), 8..max_len)
}

/// Shifts every other point far away, shaping the raw points into the
/// two-cluster streams the routers are designed for.
fn two_clusters(mut points: Vec<Vec<f64>>) -> Vec<Vec<f64>> {
    for (i, p) in points.iter_mut().enumerate() {
        if i % 2 == 1 {
            for x in p.iter_mut() {
                *x += 40.0;
            }
        }
    }
    points
}

fn geometry() -> PageGeometry {
    PageGeometry::from_fanout(4, 4)
}

fn sorted_points(mut points: Vec<Vec<f64>>) -> Vec<Vec<f64>> {
    points.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    points
}

/// Deals `points` round-robin over `k` parts, continuing the rotation at
/// `next` — the exact partition [`FixedPartitionRouter`] produces.
fn round_robin_deal(points: &[Vec<f64>], k: usize, next: &mut usize) -> Vec<Vec<Vec<f64>>> {
    let mut parts: Vec<Vec<Vec<f64>>> = vec![Vec::new(); k];
    for p in points {
        parts[*next % k].push(p.clone());
        *next += 1;
    }
    parts
}

/// A directly driven Bayes core for 3-d kernels.
fn bayes_core() -> BayesCore<KernelSummary> {
    AnytimeTree::new(3, geometry())
}

/// A directly driven ClusTree core under `config`.
fn clus_core(config: &ClusTreeConfig) -> ClusCore {
    AnytimeTree::new(3, config.geometry())
}

/// Drives `core` with the ClusTree's policy: `points` observed at `now`.
fn clus_insert(
    core: &mut ClusCore,
    config: &ClusTreeConfig,
    points: &[Vec<f64>],
    now: f64,
    budget: usize,
) -> anytime_stream_mining::anytree::BatchOutcome {
    let payloads = points
        .iter()
        .map(|p| MicroCluster::from_point(p, now))
        .collect();
    core.insert_batch(&mut ClusModel::new(config, now), payloads, budget)
}

/// Every kernel stored at leaf level of a Bayes core.
fn core_points(core: &BayesCore<KernelSummary>) -> Vec<Vec<f64>> {
    let mut out = Vec::new();
    for id in TreeView::reachable(core) {
        if let NodeKind::Leaf { items } = &core.node(id).kind {
            out.extend(items.rows());
        }
    }
    out
}

/// The micro-clusters of a ClusTree core: leaf items plus hitchhiker
/// buffers that carry weight (no decay: the properties run with
/// `lambda == 0`).
fn core_micro_clusters(core: &ClusCore) -> Vec<MicroCluster> {
    let mut out = Vec::new();
    for id in TreeView::reachable(core) {
        match &core.node(id).kind {
            NodeKind::Leaf { items } => out.extend(items.iter().cloned()),
            NodeKind::Inner { entries } => {
                out.extend(entries.iter().filter_map(|e| e.buffer.clone()));
            }
        }
    }
    out.retain(|mc| mc.weight() > f64::EPSILON);
    out
}

/// Total stored weight of a ClusTree core.
fn core_weight(core: &ClusCore) -> f64 {
    core_micro_clusters(core)
        .iter()
        .map(MicroCluster::weight)
        .sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn one_shard_bayestree_equals_the_plain_tree(
        points in stream_strategy(120),
        batch_size in 1usize..24,
    ) {
        let points = two_clusters(points);
        let mut plain = bayes_core();
        let mut tree: BayesTree = BayesTree::new(3, geometry());
        for chunk in points.chunks(batch_size) {
            let routed = tree.shard_sizes()[0];
            let a = plain.insert_batch(&mut KernelModel::new(3), chunk.to_vec(), usize::MAX);
            let b = tree.insert_batch(chunk.to_vec());
            prop_assert_eq!(tree.shard_sizes()[0] - routed, chunk.len());
            prop_assert_eq!(a.outcomes, b.outcomes);
            prop_assert_eq!(a.depths, b.depths);
            prop_assert_eq!(a.stats, b.stats);
            prop_assert!(tree.validate(true).is_ok());
        }
        prop_assert_eq!(tree.len(), points.len());
        prop_assert_eq!(plain.num_nodes(), tree.num_nodes());
        prop_assert_eq!(plain.height(), tree.height());
        prop_assert_eq!(plain.summary_refreshes(), tree.summary_refreshes());
        prop_assert_eq!(
            sorted_points(core_points(&plain)),
            sorted_points(tree.all_points())
        );
    }

    #[test]
    fn fixed_router_bayestree_equals_partitioned_plain_trees(
        points in stream_strategy(120),
        batch_size in 1usize..24,
        shards in 2usize..5,
    ) {
        let points = two_clusters(points);
        let mut sharded: BayesTree<f64, FixedPartitionRouter> =
            BayesTree::sharded(3, geometry(), shards);
        let mut plain: Vec<BayesCore<KernelSummary>> = (0..shards).map(|_| bayes_core()).collect();
        let mut next = 0usize;
        for chunk in points.chunks(batch_size) {
            let parts = round_robin_deal(chunk, shards, &mut next);
            let before = sharded.shard_sizes().to_vec();
            let _ = sharded.insert_batch(chunk.to_vec());
            for (k, part) in parts.into_iter().enumerate() {
                prop_assert_eq!(sharded.shard_sizes()[k] - before[k], part.len());
                let _ = plain[k].insert_batch(&mut KernelModel::new(3), part, usize::MAX);
            }
            prop_assert!(sharded.validate(true).is_ok());
        }
        // Shard k of the sharded tree is observably the core fed partition
        // k: same nodes, same height, same points, same work.
        for (k, reference) in plain.iter().enumerate() {
            let shard = sharded.shard(k);
            prop_assert_eq!(shard.num_nodes(), reference.num_nodes());
            prop_assert_eq!(shard.height(), reference.height());
            prop_assert_eq!(shard.stats(), reference.stats());
        }
        prop_assert_eq!(
            sharded.num_nodes(),
            plain.iter().map(AnytimeTree::num_nodes).sum::<usize>()
        );
        prop_assert_eq!(
            sorted_points(sharded.all_points()),
            sorted_points(plain.iter().flat_map(core_points).collect())
        );
    }

    #[test]
    fn one_shard_clustree_equals_the_plain_tree(
        points in stream_strategy(120),
        batch_size in 1usize..24,
        budget in 0usize..12,
    ) {
        let points = two_clusters(points);
        let config = ClusTreeConfig::default();
        let mut plain = clus_core(&config);
        let mut tree = ClusTree::new(3, config.clone());
        for (batch_idx, chunk) in points.chunks(batch_size).enumerate() {
            let timestamp = batch_idx as f64;
            let a = clus_insert(&mut plain, &config, chunk, timestamp, budget);
            let b = tree.insert_batch(chunk, timestamp, budget);
            prop_assert_eq!(a.outcomes, b.outcomes);
            prop_assert_eq!(a.depths, b.depths);
            prop_assert_eq!(a.stats, b.stats);
            prop_assert!(tree.validate().is_ok());
        }
        prop_assert_eq!(tree.len(), points.len());
        prop_assert_eq!(tree.shard_sizes(), &[points.len()]);
        prop_assert_eq!(plain.num_nodes(), tree.num_nodes());
        prop_assert_eq!(plain.height(), tree.height());
        prop_assert_eq!(plain.summary_refreshes(), tree.summary_refreshes());
        prop_assert_eq!(core_micro_clusters(&plain).len(), tree.num_micro_clusters());
        prop_assert!((core_weight(&plain) - tree.total_weight()).abs() < 1e-9);
    }

    #[test]
    fn fixed_router_clustree_equals_partitioned_plain_trees(
        points in stream_strategy(120),
        batch_size in 1usize..24,
        shards in 2usize..5,
        budget in 0usize..12,
    ) {
        let points = two_clusters(points);
        let config = ClusTreeConfig::default();
        let mut sharded: ClusTree<FixedPartitionRouter> =
            ClusTree::sharded(3, config.clone(), shards);
        let mut plain: Vec<ClusCore> = (0..shards).map(|_| clus_core(&config)).collect();
        let mut next = 0usize;
        for (batch_idx, chunk) in points.chunks(batch_size).enumerate() {
            let timestamp = batch_idx as f64;
            let start = next;
            let parts = round_robin_deal(chunk, shards, &mut next);
            let result = sharded.insert_batch(chunk, timestamp, budget);
            for (k, part) in parts.into_iter().enumerate() {
                let reference = clus_insert(&mut plain[k], &config, &part, timestamp, budget);
                // Map each per-shard outcome back to its input position.
                let positions = (0..chunk.len()).filter(|i| (start + i) % shards == k);
                for (pos, expected) in positions.zip(reference.outcomes) {
                    prop_assert_eq!(result.outcomes[pos], expected);
                }
            }
            prop_assert!(sharded.validate().is_ok());
        }
        for (k, reference) in plain.iter().enumerate() {
            let shard = sharded.shard(k);
            prop_assert_eq!(shard.num_nodes(), reference.num_nodes());
            prop_assert_eq!(shard.height(), reference.height());
        }
        let plain_weight: f64 = plain.iter().map(core_weight).sum();
        prop_assert!((sharded.total_weight() - plain_weight).abs() < 1e-9);
        prop_assert_eq!(
            sharded.num_micro_clusters(),
            plain.iter().map(|core| core_micro_clusters(core).len()).sum::<usize>()
        );
    }

    #[test]
    fn sharded_classifier_training_is_bit_identical(
        seed in 0u64..1000,
        workers in 2usize..6,
    ) {
        use anytime_stream_mining::bayestree::{AnytimeClassifier, ClassifierConfig};
        use anytime_stream_mining::data::synth::blobs::BlobConfig;
        let dataset = BlobConfig::new(3, 3).samples_per_class(40).seed(seed).generate();
        let config = ClassifierConfig {
            geometry: Some(geometry()),
            ..ClassifierConfig::default()
        };
        let sequential = AnytimeClassifier::train(&dataset, &config);
        let parallel = AnytimeClassifier::train_sharded(&dataset, &config, workers);
        prop_assert_eq!(sequential.priors(), parallel.priors());
        for (a, b) in sequential.trees().iter().zip(parallel.trees()) {
            prop_assert_eq!(a.len(), b.len());
            prop_assert_eq!(a.num_nodes(), b.num_nodes());
            prop_assert_eq!(a.height(), b.height());
            prop_assert_eq!(a.bandwidth(), b.bandwidth());
        }
        // Same trees -> same decisions at every budget.
        for (x, _) in dataset.iter().take(10) {
            for budget in [0usize, 3, 10] {
                prop_assert_eq!(
                    sequential.classify_with_budget(x, budget).label,
                    parallel.classify_with_budget(x, budget).label
                );
            }
        }
    }
}
