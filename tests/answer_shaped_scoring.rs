//! Answer-shaped scoring: a read scores only what its answer uses.
//!
//! The k-NN retrieval ranks frontier elements by centre distance alone, so
//! `ClusTree::anytime_knn` (and `knn_over`) refine through a distance-only
//! model instead of the density `ClusQueryModel`.  Locked down here:
//!
//! * every `ClusterNeighbor` field and `nodes_read` equal, bit for bit, a
//!   reference that ranks `refine_frontiers_over` cursors driven by the full
//!   density model — live trees, pinned snapshots and 2-shard trees, decay
//!   on and off, roots that are leaves, parked buffers, budgets 0 to 32,
//! * the work the two record is identical: queries, node reads, elements
//!   scored, block gathers and gathers avoided,
//! * the two models share one gather, so density and k-NN reads on one tree
//!   reuse each other's cached blocks and answer as on a cold twin.
//!
//! The classifier's estimate-only model is locked by
//! `tests/classifier_cursor_pool.rs` (answers equal a fresh-cursor
//! loop over the full model) and by the kernel parity suites.
//!
//! Every test serialises on one lock: work counters are read as deltas of
//! the process-global registry.

use anytime_stream_mining::anytree::{
    refine_frontiers_over, ElementOrigin, QueryCursor, QueryElement, RefineOrder, ShardSet,
    TreeView,
};
use anytime_stream_mining::clustree::{
    knn_over, ClusQueryModel, ClusTree, ClusTreeConfig, KnnAnswer, MicroCluster,
};
use anytime_stream_mining::eval::RegistryCapture;
use std::sync::{Mutex, MutexGuard, OnceLock};

fn registry_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

const BUDGETS: [usize; 5] = [0, 1, 4, 8, 32];

/// The query-work counters both models must record alike.
const WORK_COUNTERS: [&str; 5] = [
    "bt_queries_total",
    "bt_query_nodes_read_total",
    "bt_query_elements_scored_total",
    "bt_query_block_gathers_total",
    "bt_query_gathers_avoided_total",
];

type Work = Vec<(&'static str, u64)>;

/// The registry work `f` records, with its result.
fn with_work<R>(f: impl FnOnce() -> R) -> (R, Work) {
    let capture = RegistryCapture::begin();
    let result = f();
    let delta = capture.delta();
    let work = WORK_COUNTERS
        .iter()
        .map(|name| (*name, delta.counter(name)))
        .collect();
    (result, work)
}

/// One neighbour with every float as bits.
type NeighborBits = (Vec<u64>, u64, u64, u64, usize, bool);

/// A k-NN answer with every float as bits.
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

/// The micro-cluster behind a frontier element (owned, as the retrieval
/// used to materialise it).
fn cluster_of<V: TreeView<MicroCluster, MicroCluster>>(
    view: &V,
    model: &ClusQueryModel,
    element: &QueryElement,
) -> MicroCluster {
    use anytime_stream_mining::anytree::QueryModel;
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

/// The reference retrieval: frontiers refined closest-first through the
/// full density model, ranked by `min_dist_sq` (stable, ties in frontier
/// order), the `k` closest materialised.
fn reference_knn<V: TreeView<MicroCluster, MicroCluster> + Sync>(
    views: &[V],
    lambda: f64,
    x: &[f64],
    k: usize,
    budget: usize,
) -> (Vec<NeighborBits>, usize) {
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
            (neighbors, cursors.iter().map(QueryCursor::nodes_read).sum())
        },
    )
}

/// A two-blob 2-d stream of `n` points inserted in batches of 16 at small,
/// cycling budgets, so buffers hold parked mass.
fn tree(n: usize, lambda: f64, shards: usize) -> ClusTree {
    let config = ClusTreeConfig {
        decay_lambda: lambda,
        ..ClusTreeConfig::default()
    };
    let mut tree = ClusTree::sharded(2, config, shards);
    let points: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            let c = if i % 2 == 0 { 0.0 } else { 20.0 };
            let jitter = (i % 9) as f64 * 0.3;
            vec![c + jitter, c - 0.5 * jitter]
        })
        .collect();
    for (batch, chunk) in points.chunks(16).enumerate() {
        let _ = tree.insert_batch(chunk, batch as f64, 1 + batch % 3);
    }
    tree
}

const QUERIES: [[f64; 2]; 4] = [[0.4, -0.2], [20.5, 19.0], [10.0, 10.0], [-60.0, 75.0]];

/// Runs the same k-NN reads on two identically built trees — one through
/// the tree's surface, one through the reference — and checks answers and
/// recorded work per read.  Both trees start cold and see the same reads
/// in the same order, so equal work means equal gathers and cache hits.
fn assert_knn_matches_the_reference(n: usize, lambda: f64, shards: usize) {
    let _guard = registry_lock();
    let (narrow, full) = (tree(n, lambda, shards), tree(n, lambda, shards));
    let (narrow_pin, full_pin) = (narrow.snapshot(), full.snapshot());
    let what = format!("n {n} lambda {lambda} shards {shards}");
    for x in QUERIES {
        for budget in BUDGETS {
            for k in [1, 3, 10] {
                let (got, got_work) = with_work(|| knn_bits(&narrow.anytime_knn(&x, k, budget)));
                let (want, want_work) =
                    with_work(|| reference_knn(full.shards(), lambda, &x, k, budget));
                let case = format!("{what} live x {x:?} budget {budget} k {k}");
                assert_eq!(got, want, "{case}");
                assert_eq!(got_work, want_work, "{case}: work");

                let (got, got_work) =
                    with_work(|| knn_bits(&narrow_pin.anytime_knn(&x, k, budget)));
                let (want, want_work) =
                    with_work(|| reference_knn(full_pin.core().shards(), lambda, &x, k, budget));
                let case = format!("{what} snapshot x {x:?} budget {budget} k {k}");
                assert_eq!(got, want, "{case}");
                assert_eq!(got_work, want_work, "{case}: work");

                // `knn_over` with an arbitrary density model answers alike:
                // only its decay rate is read.
                let model = ClusQueryModel::over(narrow.shards(), &[0.3, 7.0], lambda);
                let (got, got_work) =
                    with_work(|| knn_bits(&knn_over(narrow.shards(), &model, &x, k, budget)));
                let (want, want_work) =
                    with_work(|| reference_knn(full.shards(), lambda, &x, k, budget));
                let case = format!("{what} knn_over x {x:?} budget {budget} k {k}");
                assert_eq!(got, want, "{case}");
                assert_eq!(got_work, want_work, "{case}: work");
            }
        }
    }
}

#[test]
fn knn_matches_the_density_model_reference_without_decay() {
    assert_knn_matches_the_reference(300, 0.0, 1);
}

#[test]
fn knn_matches_the_density_model_reference_with_decay() {
    assert_knn_matches_the_reference(300, 0.05, 1);
}

#[test]
fn two_shard_knn_matches_the_density_model_reference() {
    assert_knn_matches_the_reference(300, 0.0, 2);
    assert_knn_matches_the_reference(300, 0.05, 2);
}

#[test]
fn leaf_root_knn_matches_the_density_model_reference() {
    // Two points make a root that is itself a leaf: the one element is a
    // summary merged on the fly (with decay when it is on).
    for lambda in [0.0, 0.05] {
        let small = tree(2, lambda, 1);
        assert_eq!(small.height(), 1);
        assert_knn_matches_the_reference(2, lambda, 1);
        assert_knn_matches_the_reference(2, lambda, 2);
    }
}

/// Density and k-NN reads share one gather: on one tree, whichever reads a
/// node first gathers it and the other finds it cached — and every answer
/// equals a cold twin's.
#[test]
fn density_and_knn_reuse_each_others_cached_blocks() {
    let _guard = registry_lock();
    let bandwidth = [1.5, 2.5];
    let x = [0.4, -0.2];
    let warm = tree(300, 0.0, 1);
    let cold_density =
        || tree(300, 0.0, 1).anytime_density(&x, &bandwidth, RefineOrder::BreadthFirst, usize::MAX);
    let cold_knn = || knn_bits(&tree(300, 0.0, 1).anytime_knn(&x, 4, usize::MAX));
    let gathers = |work: &Work| (work[3].1, work[4].1);

    // A full density read gathers every node once (the root included)…
    let (density, work) =
        with_work(|| warm.anytime_density(&x, &bandwidth, RefineOrder::BreadthFirst, usize::MAX));
    let nodes = warm.num_nodes() as u64;
    assert_eq!(gathers(&work), (nodes, 0), "cold density read");
    assert_eq!(density, cold_density());
    // …so a full k-NN read gathers nothing and hits every node…
    let (knn, work) = with_work(|| knn_bits(&warm.anytime_knn(&x, 4, usize::MAX)));
    assert_eq!(gathers(&work), (0, nodes), "k-NN after density");
    assert_eq!(knn, cold_knn());
    // …and a density read after it is still served from the same blocks.
    let (again, work) =
        with_work(|| warm.anytime_density(&x, &bandwidth, RefineOrder::BreadthFirst, usize::MAX));
    assert_eq!(gathers(&work), (0, nodes), "density after k-NN");
    assert_eq!(again, density);

    // The other way round: k-NN first gathers, density then hits.
    let warm = tree(300, 0.0, 1);
    let (knn, work) = with_work(|| knn_bits(&warm.anytime_knn(&x, 4, usize::MAX)));
    assert_eq!(gathers(&work), (nodes, 0), "cold k-NN read");
    assert_eq!(knn, cold_knn());
    let (density, work) =
        with_work(|| warm.anytime_density(&x, &bandwidth, RefineOrder::BreadthFirst, usize::MAX));
    assert_eq!(gathers(&work), (0, nodes), "density after k-NN");
    assert_eq!(density, cold_density());
}
