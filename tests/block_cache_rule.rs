//! The block-cache rule: every write to a node empties the node's cache
//! slot, so a filled slot always describes the node as it is now and a
//! cached read needs no version stamp, flag or lock.
//!
//! Locked down here:
//!
//! * reads between two cursor steps of one batch cache what they gather,
//!   and the next step's write empties the slot again — every answer
//!   equals the cache-less reference bit for bit,
//! * threads racing to fill one cold pinned snapshot's slots answer like
//!   the cache-less reference, and every scored node is either gathered or
//!   served without a gather (from the cache, or a Bayes-tree leaf in
//!   place),
//! * the writer never fills a reader slot,
//! * no Bayes-tree slot, leaf or directory, is ever filled: a leaf's point
//!   block and a directory's entry block are their scoring layouts and are
//!   scored where they lie,
//! * a cached block carries only the columns its node's pass reads:
//!   ClusTree leaf blocks, whose micro-clusters' smoothed kernel reads
//!   variances, carry variance columns as directory blocks do.

use anytime_stream_mining::anytree::{
    AnytimeTree, CursorStep, DescentCursor, Node, NodeId, QueryAnswer, QueryModel, QueryStats,
    RefineOrder, ShardSet, Summary, TreeView,
};
use anytime_stream_mining::bayestree::insert::KernelModel;
use anytime_stream_mining::bayestree::{
    BayesCore, BayesTree, DescentStrategy, KernelQueryModel, KernelSummary, PointColumns,
};
use anytime_stream_mining::clustree::{ClusTree, ClusTreeConfig};
use anytime_stream_mining::index::PageGeometry;
use anytime_stream_mining::stats::KernelBandwidth;

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
const BUDGET: usize = 12;

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

fn geometry() -> PageGeometry {
    PageGeometry::from_fanout(3, 5)
}

fn order() -> RefineOrder {
    DescentStrategy::default().into()
}

fn bits(answers: &[QueryAnswer]) -> Vec<(u64, u64, u64, usize)> {
    answers
        .iter()
        .map(|a| {
            (
                a.estimate.to_bits(),
                a.lower.to_bits(),
                a.upper.to_bits(),
                a.nodes_read,
            )
        })
        .collect()
}

/// Answers `queries` through `view`'s cache and through the cache-less
/// reference, asserts they agree bit for bit, and returns the cached
/// pass's work counters.
fn assert_cache_invisible<M, V>(view: &V, model: &M, queries: &[Vec<f64>]) -> QueryStats
where
    M: QueryModel<KernelSummary, Leaf = PointColumns>,
    V: TreeView<KernelSummary, PointColumns>,
{
    let (cached, stats) = view.query_batch(model, queries, order(), BUDGET);
    let (reference, _) = NoCache(view).query_batch(model, queries, order(), BUDGET);
    assert_eq!(bits(&cached), bits(&reference), "cache must be invisible");
    stats
}

#[test]
fn reads_between_cursor_steps_equal_the_cache_less_reference() {
    let mut core: BayesCore<KernelSummary> = AnytimeTree::new(DIMS, geometry());
    let mut writer = KernelModel::new(DIMS);
    for chunk in stream(300, 0).chunks(64) {
        let _ = core.insert_batch(&mut writer, chunk.to_vec(), usize::MAX);
    }
    let bandwidth = KernelBandwidth::new(vec![0.8; DIMS]);
    let model = KernelQueryModel::new(300, &bandwidth);
    let queries = stream(16, 7);

    core.begin_batch();
    let mut hits_mid_batch = 0;
    for point in stream(24, 1000) {
        // Every cursor starts at the root, so each one writes a node the
        // reads below have just cached.
        let mut cursor = DescentCursor::start(&core, point, usize::MAX);
        loop {
            // The first pass fills the slots of the nodes it reads, the
            // second is served from them: both must match the reference.
            let _ = assert_cache_invisible(&core, &model, &queries);
            hits_mid_batch += assert_cache_invisible(&core, &model, &queries).gathers_avoided;
            if let CursorStep::Finished(_) = core.step_cursor(&mut writer, &mut cursor) {
                break;
            }
        }
    }
    core.finish_batch(&mut writer);
    assert!(hits_mid_batch > 0, "mid-batch reads are cached");
    let _ = assert_cache_invisible(&core, &model, &queries);
}

#[test]
fn racing_readers_fill_a_cold_snapshot_like_the_reference() {
    let mut tree: BayesTree = BayesTree::new(DIMS, geometry());
    for chunk in stream(400, 0).chunks(64) {
        let _ = tree.insert_batch(chunk.to_vec());
    }
    let snapshot = tree.snapshot();
    let (view, model) = (snapshot.core().shard(0), snapshot.query_model());
    let queries = stream(32, 11);
    let (reference, _) = NoCache(view).query_batch(&model, &queries, order(), BUDGET);

    let threads = 4;
    let barrier = std::sync::Barrier::new(threads);
    let runs: Vec<(Vec<QueryAnswer>, QueryStats)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    barrier.wait();
                    view.query_batch(&model, &queries, order(), BUDGET)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reader thread"))
            .collect()
    });
    for (answers, stats) in &runs {
        assert_eq!(
            bits(answers),
            bits(&reference),
            "racing fills are invisible"
        );
        // The root is scored when a query begins and every node read is
        // scored once: each one either gathered or hit the cache.
        assert_eq!(
            stats.block_gathers + stats.gathers_avoided,
            stats.queries + stats.nodes_read
        );
    }
    let (warm, warm_stats) = view.query_batch(&model, &queries, order(), BUDGET);
    assert_eq!(bits(&warm), bits(&reference));
    assert_eq!(
        warm_stats.block_gathers, 0,
        "every slot the queries read is filled"
    );
}

/// Whether any node reachable in `view` has a filled cache slot.
fn any_slot_filled<S: Summary, L, V: TreeView<S, L>>(view: &V) -> bool {
    view.reachable().into_iter().any(|id| {
        view.block_cache(id)
            .is_some_and(|slot| slot.get().is_some())
    })
}

#[test]
fn the_writer_never_fills_a_reader_slot() {
    // MBR routing (Bayes tree) reads the directory's own box columns and
    // centre routing (ClusTree) each entry row: neither touches a slot.
    let mut bayes: BayesTree = BayesTree::new(DIMS, geometry());
    let mut clus = ClusTree::new(DIMS, ClusTreeConfig::default());
    for (batch, chunk) in stream(300, 0).chunks(64).enumerate() {
        let _ = bayes.insert_batch(chunk.to_vec());
        let _ = clus.insert_batch(chunk, batch as f64, 8);
    }
    assert!(bayes.shard(0).height() > 1 && clus.shard(0).height() > 1);
    assert!(!any_slot_filled(bayes.shard(0)));
    assert!(!any_slot_filled(clus.shard(0)));

    // A Bayes read fills no slot.  A ClusTree read fills slots; the next
    // batch's writes empty the ones it touches and fill none.
    let _ = bayes.density_batch(&stream(8, 5), DescentStrategy::default(), BUDGET);
    assert!(!any_slot_filled(bayes.shard(0)));
    let _ = clus.density_batch(&stream(8, 5), &[0.8; DIMS], order(), BUDGET);
    assert!(any_slot_filled(clus.shard(0)));
    let _ = clus.insert_batch(&stream(64, 500), 10.0, 8);
    let root = clus.shard(0).root();
    assert!(clus
        .shard(0)
        .block_cache(root)
        .is_some_and(|s| s.get().is_none()));
}

/// Every cached block a read left in `view`'s slots, as `(leaf?, entries,
/// variance values)`.
fn cached_var_columns<S: Summary, L, V: TreeView<S, L>>(view: &V) -> Vec<(bool, usize, usize)> {
    view.reachable()
        .into_iter()
        .filter_map(|id| {
            let gathered = view.block_cache(id)?.get()?;
            let block = &gathered.block;
            Some((view.node(id).is_leaf(), block.len(), block.var().len()))
        })
        .collect()
}

#[test]
fn only_gathers_that_read_variances_carry_a_variance_column() {
    let mut bayes: BayesTree = BayesTree::new(DIMS, geometry());
    let mut clus = ClusTree::new(DIMS, ClusTreeConfig::default());
    for (batch, chunk) in stream(300, 0).chunks(64).enumerate() {
        let _ = bayes.insert_batch(chunk.to_vec());
        let _ = clus.insert_batch(chunk, batch as f64, 8);
    }
    let queries = stream(8, 5);
    let _ = bayes.density_batch(&queries, DescentStrategy::default(), usize::MAX);
    let _ = clus.density_batch(&queries, &[0.8; DIMS], order(), usize::MAX);

    // No Bayes slot, leaf or directory, is ever filled: both are scored
    // where they lie.
    assert!(cached_var_columns(bayes.shard(0)).is_empty());

    // ClusTree leaves hold micro-clusters, whose smoothed kernel reads the
    // variances too.
    let blocks = cached_var_columns(clus.shard(0));
    assert!(blocks.iter().any(|b| b.0) && blocks.iter().any(|b| !b.0));
    for (_, len, vars) in blocks {
        assert!(len > 0);
        assert_eq!(vars, DIMS * len);
    }
}
