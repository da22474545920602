//! Cache-epoch interaction properties for the per-node block cache.
//!
//! The block cache must be *invisible*: warm slots, cold
//! slots and no slots at all produce bit-identical density answers —
//! across the live tree, epoch-pinned snapshots and the sharded variant —
//! and a node's block is never reused after a write changes the node
//! (every write empties the node's slot).

use bayestree::{BayesTree, DescentStrategy};
use bt_anytree::{Node, NodeId, QueryAnswer, ShardSet, Summary, TreeView};
use bt_index::PageGeometry;

/// Delegating view whose `block_cache` stays at the default `None` — the
/// gather-every-time reference every cached answer must reproduce.
struct NoCache<'a, V>(&'a V);

impl<S: Summary, L, V: TreeView<S, L>> TreeView<S, L> for NoCache<'_, V> {
    fn dims(&self) -> usize {
        self.0.dims()
    }

    fn root(&self) -> NodeId {
        self.0.root()
    }

    fn node(&self, id: NodeId) -> &Node<S, L> {
        self.0.node(id)
    }

    fn height(&self) -> usize {
        self.0.height()
    }
}

const DIMS: usize = 3;
const BUDGET: usize = 16;

fn stream(n: usize, phase: usize) -> Vec<Vec<f64>> {
    (0..n)
        .map(|i| {
            let i = i + phase;
            let c = (i % 4) as f64 * 3.0;
            (0..DIMS)
                .map(|d| c + ((i * 31 + d * 17) % 97) as f64 / 97.0)
                .collect()
        })
        .collect()
}

fn build_tree(points: &[Vec<f64>]) -> BayesTree {
    let mut tree: BayesTree = BayesTree::new(DIMS, PageGeometry::from_fanout(3, 5));
    for chunk in points.chunks(64) {
        tree.insert_batch(chunk.to_vec());
    }
    tree
}

fn queries() -> Vec<Vec<f64>> {
    stream(40, 7)
}

fn bits(answers: &[QueryAnswer]) -> Vec<(u64, u64, u64)> {
    answers
        .iter()
        .map(|a| (a.estimate.to_bits(), a.lower.to_bits(), a.upper.to_bits()))
        .collect()
}

/// The live tree's shared core is crate-private, but an epoch-pinned
/// snapshot of an idle tree answers bit-identically to the live tree and
/// exposes its core — so the cache-less reference runs over that.
fn reference_batch(
    tree: &BayesTree,
    queries: &[Vec<f64>],
) -> (Vec<QueryAnswer>, bt_anytree::QueryStats) {
    let snapshot = tree.snapshot();
    NoCache(snapshot.core().shard(0)).query_batch(
        &snapshot.query_model(),
        queries,
        DescentStrategy::default().into(),
        BUDGET,
    )
}

#[test]
fn warm_cache_answers_match_the_gather_every_time_reference() {
    let tree = build_tree(&stream(300, 0));
    let queries = queries();

    // Nothing is gathered: both passes score every node where it lies.
    let (cold, cold_stats) = tree.density_batch(&queries, DescentStrategy::default(), BUDGET);
    assert_eq!(
        cold_stats.block_gathers, 0,
        "every node is scored where it lies"
    );
    let (warm, warm_stats) = tree.density_batch(&queries, DescentStrategy::default(), BUDGET);
    assert!(
        warm_stats.gathers_avoided > 0,
        "second pass hits the warm slots"
    );
    assert_eq!(bits(&cold), bits(&warm), "hits change nothing");

    // The cache-less reference view scores the same tree the long way.
    let (reference, ref_stats) = reference_batch(&tree, &queries);
    assert_eq!(ref_stats.gathers_avoided, 0, "no slots, no hits");
    assert_eq!(bits(&reference), bits(&warm), "cache is invisible");
}

#[test]
fn mutation_restamps_the_slot_so_stale_blocks_are_never_reused() {
    let mut tree = build_tree(&stream(300, 0));
    let queries = queries();

    // Warm every slot the workload touches, then mutate the tree.
    let _ = tree.density_batch(&queries, DescentStrategy::default(), BUDGET);
    tree.insert_batch(stream(200, 1000));

    let (after, _) = tree.density_batch(&queries, DescentStrategy::default(), BUDGET);
    let (reference, _) = reference_batch(&tree, &queries);
    assert_eq!(
        bits(&reference),
        bits(&after),
        "post-mutation answers must come from fresh gathers, not stale blocks"
    );
}

#[test]
fn pinned_snapshot_scores_identically_while_the_live_cache_churns() {
    let mut tree = build_tree(&stream(300, 0));
    let queries = queries();
    let snapshot = tree.snapshot();

    let (frozen, _) = snapshot.density_batch(&queries, DescentStrategy::default(), BUDGET);

    // Later batches mutate the tree and live queries repopulate the slots
    // at newer epochs; the pinned pages keep their own blocks.
    for phase in 0..3 {
        tree.insert_batch(stream(100, 2000 + phase * 100));
        let _ = tree.density_batch(&queries, DescentStrategy::default(), BUDGET);
    }

    let (again, again_stats) = snapshot.density_batch(&queries, DescentStrategy::default(), BUDGET);
    assert!(
        again_stats.gathers_avoided > 0,
        "snapshot reuses its warm blocks"
    );
    assert_eq!(bits(&frozen), bits(&again), "snapshot answers are frozen");

    let (reference, _) = NoCache(snapshot.core().shard(0)).query_batch(
        &snapshot.query_model(),
        &queries,
        DescentStrategy::default().into(),
        BUDGET,
    );
    assert_eq!(bits(&reference), bits(&frozen), "and still exact");
}

#[test]
fn sharded_warm_cache_is_bit_identical_to_the_cold_pass() {
    let points = stream(400, 0);
    let mut tree: BayesTree = BayesTree::sharded(DIMS, PageGeometry::from_fanout(3, 5), 3);
    for chunk in points.chunks(64) {
        let _ = tree.insert_batch(chunk.to_vec());
    }
    tree.fit_bandwidth();
    let queries = queries();

    let (cold, _) = tree.density_batch(&queries, DescentStrategy::default(), BUDGET);
    let (warm, warm_stats) = tree.density_batch(&queries, DescentStrategy::default(), BUDGET);
    assert!(
        warm_stats.gathers_avoided > 0,
        "shard frontiers hit their warm slots"
    );
    for (a, b) in cold.iter().zip(&warm) {
        assert_eq!(a.estimate.to_bits(), b.estimate.to_bits());
        assert_eq!(a.lower.to_bits(), b.lower.to_bits());
        assert_eq!(a.upper.to_bits(), b.upper.to_bits());
    }
}
