//! The k-NN retrieval keeps its `k` nearest in one insertion pass.
//!
//! `ClusTree::anytime_knn` used to collect every frontier element of every
//! shard, stable-sort them by centre distance and truncate to `k`.  It now
//! keeps at most `k` in one pass, each new element placed after every kept
//! element it does not strictly precede.  Locked down here against that
//! sort-then-truncate reference, every `ClusterNeighbor` field and
//! `nodes_read` equal bit for bit:
//!
//! * on trees of duplicated points, whose identical micro-clusters tie in
//!   `min_dist_sq` (within a shard and across shards), and on queries at
//!   infinity, where every distance ties at `inf`;
//! * at `k = 0`, small `k`, `k` equal to and above the frontier size, and
//!   `k = usize::MAX`;
//! * on 1 and 3 shards, live and pinned.

use anytime_stream_mining::anytree::{
    refine_frontiers_over, ElementOrigin, QueryCursor, QueryElement, QueryModel, RefineOrder,
    ShardSet, TreeView,
};
use anytime_stream_mining::clustree::{
    ClusQueryModel, ClusTree, ClusTreeConfig, KnnAnswer, MicroCluster,
};

/// One neighbour with every float as bits.
type NeighborBits = (Vec<u64>, u64, u64, u64, usize, bool);

fn knn_bits(answer: &KnnAnswer) -> (Vec<NeighborBits>, usize) {
    let neighbors = answer
        .neighbors
        .iter()
        .map(|n| {
            (
                n.center.iter().map(|c| c.to_bits()).collect(),
                n.weight.to_bits(),
                n.radius.to_bits(),
                n.sq_dist.to_bits(),
                n.depth,
                n.refinable,
            )
        })
        .collect();
    (neighbors, answer.nodes_read)
}

/// The micro-cluster behind a frontier element.
fn cluster_of<V: TreeView<MicroCluster, Vec<MicroCluster>>>(
    view: &V,
    model: &ClusQueryModel,
    element: &QueryElement,
) -> MicroCluster {
    match element.origin {
        ElementOrigin::Entry { node, index } => view.node(node).entries()[index].summary.clone(),
        ElementOrigin::Buffer { node, index } => view.node(node).entries()[index]
            .buffer
            .clone()
            .expect("buffer element refers to an occupied buffer"),
        ElementOrigin::LeafItem { node, index } => view.node(node).items()[index].clone(),
        ElementOrigin::RootLeaf => model.summarize_leaf_items(view.node(view.root()).items()),
    }
}

/// What the reference saw besides its answer: the frontier size and the
/// number of adjacent ties in the sorted frontier.
struct Frontier {
    len: usize,
    ties: usize,
}

/// The reference: every frontier element of every view collected, stably
/// sorted by `min_dist_sq` and truncated to `k`.
fn reference_knn<V: TreeView<MicroCluster, Vec<MicroCluster>> + Sync>(
    views: &[V],
    lambda: f64,
    x: &[f64],
    k: usize,
    budget: usize,
) -> ((Vec<NeighborBits>, usize), Frontier) {
    let model = ClusQueryModel::over(views, &vec![1.0; x.len()], lambda);
    refine_frontiers_over(
        views,
        &model,
        x,
        RefineOrder::ClosestFirst,
        budget,
        |cursors| {
            let mut ranked: Vec<(&V, &QueryElement)> = views
                .iter()
                .zip(cursors)
                .flat_map(|(view, cursor)| cursor.elements().iter().map(move |e| (view, e)))
                .collect();
            ranked.sort_by(|a, b| {
                a.1.min_dist_sq
                    .partial_cmp(&b.1.min_dist_sq)
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            let frontier = Frontier {
                len: ranked.len(),
                ties: ranked
                    .windows(2)
                    .filter(|w| w[0].1.min_dist_sq == w[1].1.min_dist_sq)
                    .count(),
            };
            ranked.truncate(k);
            let neighbors = ranked
                .into_iter()
                .map(|(view, element)| {
                    let mc = cluster_of(view, &model, element);
                    (
                        mc.center().iter().map(|c| c.to_bits()).collect(),
                        mc.weight().to_bits(),
                        mc.radius().to_bits(),
                        element.min_dist_sq.to_bits(),
                        element.depth,
                        element.is_refinable(),
                    )
                })
                .collect();
            let nodes_read = cursors.iter().map(QueryCursor::nodes_read).sum();
            ((neighbors, nodes_read), frontier)
        },
    )
}

/// A 3-d tree over a few distinct points, each repeated many times, so
/// many micro-clusters are identical and tie in centre distance.
fn duplicated_tree(shards: usize, lambda: f64) -> ClusTree {
    let config = ClusTreeConfig {
        max_entries: 4,
        min_entries: 2,
        decay_lambda: lambda,
        ..ClusTreeConfig::default()
    };
    let mut tree = ClusTree::sharded(3, config, shards);
    let distinct = [
        [0.0, 0.0, 0.0],
        [1.0, 0.0, 0.0],
        [0.0, 1.0, 0.0],
        [-1.0, 0.0, 0.0],
        [4.0, 4.0, 4.0],
    ];
    let points: Vec<Vec<f64>> = (0..480)
        .map(|i| distinct[(i * 7 / 3) % distinct.len()].to_vec())
        .collect();
    for (batch, chunk) in points.chunks(24).enumerate() {
        let _ = tree.insert_batch(chunk, batch as f64, 1 + batch % 4);
    }
    tree
}

const QUERIES: [[f64; 3]; 4] = [
    [0.0, 0.0, 0.0],
    [0.5, 0.5, 0.0],
    [4.0, 4.0, 4.0],
    [f64::INFINITY, 0.0, 1.0],
];

fn assert_matches_the_reference(shards: usize, lambda: f64) {
    let tree = duplicated_tree(shards, lambda);
    let pin = tree.snapshot();
    let (mut ties, mut full) = (0, 0);
    for x in QUERIES {
        for budget in [0usize, 1, 3, 10, 1000] {
            let (_, frontier) = reference_knn(tree.core().shards(), lambda, &x, 0, budget);
            let n = frontier.len;
            ties += frontier.ties;
            for k in [0, 1, 2, 5, n.saturating_sub(1), n, n + 4, usize::MAX] {
                let case = format!("shards {shards} lambda {lambda} x {x:?} budget {budget} k {k}");
                let (want, _) = reference_knn(tree.core().shards(), lambda, &x, k, budget);
                assert_eq!(knn_bits(&tree.anytime_knn(&x, k, budget)), want, "{case}");
                let (want, _) = reference_knn(pin.core().shards(), lambda, &x, k, budget);
                assert_eq!(
                    knn_bits(&pin.anytime_knn(&x, k, budget)),
                    want,
                    "{case} (snapshot)"
                );
                full += usize::from(k >= n);
            }
        }
    }
    assert!(ties > 100, "shards {shards}: only {ties} tied distances");
    assert!(full > 0);
}

#[test]
fn one_shard_keeps_the_sorted_prefix() {
    assert_matches_the_reference(1, 0.0);
    assert_matches_the_reference(1, 0.02);
}

#[test]
fn three_shards_keep_the_sorted_prefix() {
    assert_matches_the_reference(3, 0.0);
    assert_matches_the_reference(3, 0.02);
}
