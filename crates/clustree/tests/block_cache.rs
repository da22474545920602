//! Cache-epoch interaction properties for the per-node block cache, on the
//! micro-cluster tree.
//!
//! Mirrors the Bayes-tree suite: warm slots, cold slots and cache-less
//! views produce bit-identical density answers, a node's block is never
//! consumed after a write changes the node (every write empties the
//! node's slot), and epoch-pinned snapshots stay frozen while the live
//! cache churns.

use bt_anytree::{Node, NodeId, QueryAnswer, RefineOrder, ShardSet, Summary, TreeView};
use clustree::{ClusTree, ClusTreeConfig};

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
const NODE_BUDGET: usize = 8;

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

fn build_tree(points: &[Vec<f64>]) -> ClusTree {
    let mut tree = ClusTree::new(DIMS, ClusTreeConfig::default());
    for (batch, chunk) in points.chunks(64).enumerate() {
        tree.insert_batch(chunk, batch as f64, NODE_BUDGET);
    }
    tree
}

fn queries() -> Vec<Vec<f64>> {
    stream(40, 7)
}

fn bandwidth() -> Vec<f64> {
    vec![0.8; DIMS]
}

fn bits(answers: &[QueryAnswer]) -> Vec<(u64, u64, u64)> {
    answers
        .iter()
        .map(|a| (a.estimate.to_bits(), a.lower.to_bits(), a.upper.to_bits()))
        .collect()
}

#[test]
fn warm_cache_answers_match_the_gather_every_time_reference() {
    let tree = build_tree(&stream(300, 0));
    let queries = queries();
    let bw = bandwidth();

    let (cold, cold_stats) = tree.density_batch(&queries, &bw, RefineOrder::BestFirst, BUDGET);
    assert!(cold_stats.block_gathers > 0, "block path is exercised");
    let (warm, warm_stats) = tree.density_batch(&queries, &bw, RefineOrder::BestFirst, BUDGET);
    assert!(
        warm_stats.gathers_avoided > 0,
        "second pass hits the warm slots"
    );
    assert_eq!(bits(&cold), bits(&warm), "hits change nothing");

    let (reference, ref_stats) = NoCache(tree.shard(0)).query_batch(
        &tree.query_model(&bw),
        &queries,
        RefineOrder::BestFirst,
        BUDGET,
    );
    assert_eq!(ref_stats.gathers_avoided, 0, "no slots, no hits");
    assert_eq!(bits(&reference), bits(&warm), "cache is invisible");
}

#[test]
fn mutation_restamps_the_slot_so_stale_blocks_are_never_reused() {
    let mut tree = build_tree(&stream(300, 0));
    let queries = queries();
    let bw = bandwidth();

    let _ = tree.density_batch(&queries, &bw, RefineOrder::BestFirst, BUDGET);
    tree.insert_batch(&stream(200, 1000), 50.0, NODE_BUDGET);

    let (after, _) = tree.density_batch(&queries, &bw, RefineOrder::BestFirst, BUDGET);
    let (reference, _) = NoCache(tree.shard(0)).query_batch(
        &tree.query_model(&bw),
        &queries,
        RefineOrder::BestFirst,
        BUDGET,
    );
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
    let bw = bandwidth();
    let snapshot = tree.snapshot();

    let (frozen, _) = snapshot.density_batch(&queries, &bw, RefineOrder::BestFirst, BUDGET);

    for phase in 0..3 {
        tree.insert_batch(
            &stream(100, 2000 + phase * 100),
            60.0 + phase as f64,
            NODE_BUDGET,
        );
        let _ = tree.density_batch(&queries, &bw, RefineOrder::BestFirst, BUDGET);
    }

    let (again, again_stats) =
        snapshot.density_batch(&queries, &bw, RefineOrder::BestFirst, BUDGET);
    assert!(
        again_stats.gathers_avoided > 0,
        "snapshot reuses its warm blocks"
    );
    assert_eq!(bits(&frozen), bits(&again), "snapshot answers are frozen");

    let (reference, _) = NoCache(snapshot.core().shard(0)).query_batch(
        &snapshot.query_model(&bw),
        &queries,
        RefineOrder::BestFirst,
        BUDGET,
    );
    assert_eq!(bits(&reference), bits(&frozen), "and still exact");
}

#[test]
fn sharded_warm_cache_is_bit_identical_to_the_cold_pass() {
    let points = stream(400, 0);
    let mut tree: ClusTree = ClusTree::sharded(DIMS, ClusTreeConfig::default(), 3);
    for (batch, chunk) in points.chunks(64).enumerate() {
        let _ = tree.insert_batch(chunk, batch as f64, NODE_BUDGET);
    }
    let queries = queries();
    let bw = bandwidth();

    let (cold, _) = tree.density_batch(&queries, &bw, RefineOrder::BestFirst, BUDGET);
    let (warm, warm_stats) = tree.density_batch(&queries, &bw, RefineOrder::BestFirst, BUDGET);
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
