//! Sharded concurrent anytime trees: parallel descent across subtree shards.
//!
//! The paper's anytime premise is that insertion quality scales with the
//! budget the system can spend per object.  On multi-core hardware that
//! budget is bounded by single-threaded descent — so this module partitions
//! the object space into `K` independent [`AnytimeTree`] shards and runs the
//! batched descent engine of [`crate::descent`] on all of them **in
//! parallel**:
//!
//! * a pluggable [`ShardRouter`] assigns every incoming object to a shard
//!   (the default [`CheapestRouter`] routes to the shard whose running root
//!   aggregate is closest; the data-independent [`FixedPartitionRouter`]
//!   deals objects round-robin and is the reference router for equivalence
//!   tests),
//! * [`ShardedAnytimeTree::insert_batch`] splits the batch by shard and
//!   descends every shard on its own scoped thread
//!   (`std::thread::scope` — no extra dependencies), one
//!   [`DescentCursor`](crate::DescentCursor) per shard as the concurrency
//!   unit,
//! * each shard's `finish_batch` is its single synchronisation point for
//!   structural changes, and the per-shard [`BatchOutcome`]s are merged
//!   ([`DepthHistogram::merge`], [`DescentStats::merge`]) into one
//!   [`BatchOutcome`] in input order.
//!
//! Because shards never share nodes, no locking is needed: the coordinator
//! routes (cheap, one distance per shard), the shards descend, and the merge
//! is a histogram fold.
//!
//! **A plain tree is a one-shard tree.**  The index families
//! (`bayestree::BayesTree`, `clustree::ClusTree`) each own one
//! `ShardedAnytimeTree` and build one shard unless asked for more.  With one
//! shard the coordinator never consults the router: a batch goes to shard 0
//! untouched and that shard's [`BatchOutcome`] is returned as is, so a
//! one-shard tree performs exactly the steps of a directly driven
//! [`AnytimeTree`] at the same cost.  That branch lives in the routing
//! helpers (`route_object`, `route_batch`); no facade looks at the shard
//! count.
//!
//! The layer also owns the **one query engine**: every read of the index
//! — the shards of a live tree or of its snapshot, or one directly driven
//! [`AnytimeTree`] — is a fold over a slice of [`TreeView`]s, and a lone
//! view is simply the one-view slice `std::slice::from_ref(view)`.
//! [`query_over`], [`query_batch_over`], [`outlier_score_over`] and
//! [`refine_frontiers_over`] (which the clustering crate's k-NN retrieval
//! ranks) refine one frontier per view — inline for one view, on scoped
//! threads for several busy ones — and sum the per-view partials into one
//! [`QueryAnswer`].  On one view the sum is that view's answer bit for bit.
//! Every fold checks the query's dimensionality once at its entry, before
//! any dispatch.
//!
//! The layer also runs **pipelined**: [`ShardedAnytimeTree::snapshot`]
//! pins every shard's published epoch into one `Send + Sync`
//! [`ShardedTreeSnapshot`], and [`ShardedAnytimeTree::pipelined_batch`]
//! drains a mini-batch through the per-shard writers *while* the
//! coordinator refines a query batch against that pre-batch snapshot —
//! reads and writes overlap on the same index without locks, and the
//! readers' answers are exactly the pre-batch answers
//! (`tests/snapshot_isolation.rs`).
//!
//! Both shard sets — live and pinned — implement [`ShardSet`]: the shard
//! views plus `dims`, `num_shards`, `shard(k)` and `epochs`, each defined
//! once.  An index family is one struct generic over its shard set, so
//! every read it offers is written once, against this trait.

use crate::arena::{ArenaCensus, SnapshotRefresh};
use crate::descent::{BatchOutcome, DepthHistogram, DescentStats};
use crate::model::InsertModel;
use crate::node::LeafItems;
use crate::query::{
    with_scratch_cursors, OutlierScore, OutlierVerdict, QueryAnswer, QueryCursor, QueryModel,
    QueryStats, RefineOrder, TreeView,
};
use crate::snapshot::TreeSnapshot;
use crate::summary::Summary;
use crate::tree::{AnytimeTree, InsertOutcome};
use bt_index::PageGeometry;

/// The policy assigning incoming objects to shards.
///
/// The router sees the object's routing point and the coordinator's running
/// per-shard aggregates (`None` for shards that have received nothing yet)
/// and returns the index of the shard the object descends into.  Routers may
/// keep state (e.g. a round-robin counter), hence `&mut self`.
pub trait ShardRouter<S: Summary> {
    /// Chooses the shard for an object whose routing point is `point`.
    ///
    /// `aggregates[k]` is the running aggregate of everything routed to
    /// shard `k` so far (`None` while the shard is empty).  The returned
    /// index must be `< aggregates.len()`.
    fn route(&mut self, point: &[f64], aggregates: &[Option<S>]) -> usize;
}

/// The default router: cheapest routing over the per-shard root aggregates.
///
/// While any shard is still empty the next empty shard wins (so all `K`
/// shards are seeded before costs are compared); afterwards the object goes
/// to the shard whose aggregate centre is closest
/// ([`Summary::sq_dist_to`]).  Over clustered data this converges to one
/// subtree region per shard — the "shard the arena by subtree" layout.
#[derive(Debug, Clone, Copy, Default)]
pub struct CheapestRouter;

impl<S: Summary> ShardRouter<S> for CheapestRouter {
    fn route(&mut self, point: &[f64], aggregates: &[Option<S>]) -> usize {
        if let Some(empty) = aggregates.iter().position(Option::is_none) {
            return empty;
        }
        aggregates
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| {
                let da = a.as_ref().map_or(f64::INFINITY, |s| s.sq_dist_to(point));
                let db = b.as_ref().map_or(f64::INFINITY, |s| s.sq_dist_to(point));
                da.partial_cmp(&db).unwrap_or(std::cmp::Ordering::Equal)
            })
            .map(|(k, _)| k)
            .expect("sharded trees have at least one shard")
    }
}

/// A data-independent router dealing objects round-robin across the shards.
///
/// Deterministic and oblivious to the routing point, so an external
/// simulation can reproduce the exact partition — the reference router for
/// the sharded-vs-plain equivalence property tests, and a reasonable choice
/// for uniformly mixed streams.
#[derive(Debug, Clone, Default)]
pub struct FixedPartitionRouter {
    next: usize,
}

impl<S: Summary> ShardRouter<S> for FixedPartitionRouter {
    fn route(&mut self, _point: &[f64], aggregates: &[Option<S>]) -> usize {
        let shard = self.next % aggregates.len();
        self.next += 1;
        shard
    }
}

/// The sharded tree's single concurrency dispatch: runs `run` over the
/// `(shard, state)` pairs `busy` selects — inline when at most one is
/// selected (no thread overhead and no allocation for a lone busy shard or
/// view), on one scoped thread per pair otherwise — and returns whether any
/// pair was selected.  Every
/// parallel path (batched insertion, frontier refinement, batched
/// queries, outlier rounds) goes through here, so the dispatch policy
/// exists exactly once.
fn dispatch_busy<A: Send, B: Send>(
    pairs: impl Iterator<Item = (A, B)>,
    busy: impl Fn(&A, &B) -> bool,
    run: impl Fn(A, B) + Sync,
) -> bool {
    let mut selected = pairs.filter(|(a, b)| busy(a, b));
    let Some(first) = selected.next() else {
        return false;
    };
    let Some(second) = selected.next() else {
        run(first.0, first.1);
        return true;
    };
    std::thread::scope(|scope| {
        let run = &run;
        for (a, b) in [first, second].into_iter().chain(selected) {
            scope.spawn(move || run(a, b));
        }
    });
    true
}

/// A batch the coordinator has routed, ready for the per-shard writers.
enum RoutedBatch<O> {
    /// A one-shard tree's batch: shard 0 takes it whole, in input order.
    Whole(Vec<O>),
    /// Each shard's objects with their input indices, which restore input
    /// order in the merged report.
    Split {
        objs: Vec<Vec<O>>,
        indices: Vec<Vec<usize>>,
        total: usize,
    },
}

/// `K` independent anytime trees behind one insertion facade.
///
/// Shards never share nodes, so each one can run the full batched descent
/// engine on its own thread without synchronisation; the coordinator only
/// routes objects (one [`ShardRouter`] decision per object) and merges the
/// per-shard reports.  With one shard it neither routes nor merges.  See
/// the [module docs](crate::shard) for the design.
#[derive(Debug, Clone)]
pub struct ShardedAnytimeTree<S: Summary, L, R = CheapestRouter> {
    shards: Vec<AnytimeTree<S, L>>,
    /// Running aggregate of everything routed to each shard — routing state
    /// only (never refreshed/decayed), not a substitute for the shard trees'
    /// own summaries.  Never filled on a one-shard tree, which does not
    /// route.
    aggregates: Vec<Option<S>>,
    /// Objects routed to each shard so far (router-skew observability).
    sizes: Vec<usize>,
    router: R,
    route_scratch: Vec<f64>,
}

impl<S: Summary, L: LeafItems, R: Default> ShardedAnytimeTree<S, L, R> {
    /// Creates `num_shards` empty shards for `dims`-dimensional data with a
    /// default-constructed router.
    ///
    /// # Panics
    ///
    /// Panics if `num_shards == 0` or `dims == 0`.
    #[must_use]
    pub fn new(dims: usize, geometry: PageGeometry, num_shards: usize) -> Self {
        Self::with_router(dims, geometry, num_shards, R::default())
    }
}

impl<S: Summary, L: LeafItems, R> ShardedAnytimeTree<S, L, R> {
    /// Creates `num_shards` empty shards routed by `router`.
    ///
    /// # Panics
    ///
    /// Panics if `num_shards == 0` or `dims == 0`.
    #[must_use]
    pub fn with_router(dims: usize, geometry: PageGeometry, num_shards: usize, router: R) -> Self {
        assert!(num_shards > 0, "need at least one shard");
        Self {
            shards: (0..num_shards)
                .map(|_| AnytimeTree::new(dims, geometry))
                .collect(),
            aggregates: vec![None; num_shards],
            sizes: vec![0; num_shards],
            router,
            route_scratch: Vec::new(),
        }
    }

    /// Fanout / leaf-capacity parameters shared by every shard.
    #[must_use]
    pub fn geometry(&self) -> PageGeometry {
        self.shards[0].geometry()
    }

    /// Write access to one shard tree, for building it node by node (the
    /// bulk loaders).  Objects placed this way bypass the router, so
    /// [`Self::shard_sizes`] does not count them.
    pub fn shard_mut(&mut self, k: usize) -> &mut AnytimeTree<S, L> {
        &mut self.shards[k]
    }

    /// Objects routed to each shard so far — the direct skew measure for the
    /// configured [`ShardRouter`] (a future work-stealing layer rebalances
    /// exactly this).
    ///
    /// Counted at **routing time**, not at epoch-publish time: during a
    /// pipelined batch ([`Self::pipelined_batch`]) the whole batch is routed
    /// before the per-shard writers drain it, so `shard_sizes` already
    /// includes the in-flight batch while each shard's published epoch — and
    /// any [`ShardedTreeSnapshot`] pinned before the batch — still reflects
    /// the pre-batch state.  The counts and the snapshot agree again as soon
    /// as every shard's `finish_batch` has published.
    #[must_use]
    pub fn shard_sizes(&self) -> &[usize] {
        &self.sizes
    }

    /// Takes a cheap, immutable snapshot of **every shard** at its current
    /// published epoch (one [`TreeSnapshot`] per shard, each pinning its
    /// shard's epoch registry).
    ///
    /// The fold functions ([`query_over`], [`query_batch_over`],
    /// [`outlier_score_over`]) answer over the snapshot's shards
    /// bit-identically to this tree's at snapshot time, and the snapshot is
    /// `Send + Sync`, so reader threads can refine against it while writers
    /// drain later batches into the live shards — the pipelined mode below
    /// does exactly that.
    #[must_use]
    pub fn snapshot(&self) -> ShardedTreeSnapshot<S, L> {
        ShardedTreeSnapshot::new(&self.shards)
    }

    /// Retired node copies created by copy-on-write, summed over the shards
    /// — zero as long as no snapshot (and no clone, which shares the arena
    /// slots the same way) overlaps a write.
    #[must_use]
    pub fn retired_nodes(&self) -> u64 {
        self.shards.iter().map(AnytimeTree::retired_nodes).sum()
    }

    /// The shards' arena censuses, summed.
    #[must_use]
    pub fn arena_census(&self) -> ArenaCensus {
        self.shards.iter().map(AnytimeTree::arena_census).sum()
    }

    /// Live snapshots pinning this tree.  A whole-tree snapshot pins every
    /// shard once, so this is the most pins any one shard holds.
    #[must_use]
    pub fn pinned_snapshots(&self) -> usize {
        self.shards
            .iter()
            .map(AnytimeTree::pinned_snapshots)
            .max()
            .unwrap_or(0)
    }

    /// Total number of reachable nodes across all shards.
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.shards.iter().map(AnytimeTree::num_nodes).sum()
    }

    /// Height of the tallest shard (a single empty leaf root has height 1).
    #[must_use]
    pub fn height(&self) -> usize {
        self.shards
            .iter()
            .map(AnytimeTree::height)
            .max()
            .unwrap_or(1)
    }

    /// The descent-engine work counters merged over all shards.
    #[must_use]
    pub fn stats(&self) -> DescentStats {
        let mut merged = DescentStats::default();
        for shard in &self.shards {
            merged.merge(shard.stats());
        }
        merged
    }

    /// Total payload-summary refresh operations over all shards.
    #[must_use]
    pub fn summary_refreshes(&self) -> u64 {
        self.stats().summary_refreshes
    }
}

impl<S: Summary, L: LeafItems, R: ShardRouter<S>> ShardedAnytimeTree<S, L, R> {
    /// Routes one object: asks the router for a shard and folds the object
    /// into that shard's running aggregate.  A one-shard tree skips both
    /// and only counts the object.
    fn route_object<M>(&mut self, model: &M, obj: &M::Object) -> usize
    where
        M: InsertModel<S, Leaf = L>,
    {
        let shard = if self.shards.len() == 1 {
            0
        } else {
            let point = model.route_point(obj, &mut self.route_scratch);
            let shard = self.router.route(point, &self.aggregates);
            assert!(shard < self.shards.len(), "router chose shard {shard}");
            match &mut self.aggregates[shard] {
                Some(agg) => model.absorb_into(agg, obj),
                slot @ None => *slot = Some(model.summary_of(obj)),
            }
            shard
        };
        self.sizes[shard] += 1;
        shard
    }

    /// Inserts one object with `budget` descent steps into the shard the
    /// router assigns it.  A batch of one on that shard — no threads.
    pub fn insert<M>(&mut self, model: &mut M, obj: M::Object, budget: usize) -> InsertOutcome
    where
        M: InsertModel<S, Leaf = L>,
        L: Clone,
    {
        let shard = self.route_object(model, &obj);
        self.shards[shard].insert(model, obj, budget)
    }

    /// Inserts a mini-batch of objects, each with a budget of `budget`
    /// descent steps, descending every shard's share **in parallel** on
    /// scoped threads.
    ///
    /// The coordinator routes the whole batch first (objects keep their
    /// relative order within a shard, so hitchhiker pickup behaves exactly
    /// as a directly driven tree's batched insertion does), then every
    /// shard with work runs [`AnytimeTree::insert_batch`] concurrently; each
    /// shard's `finish_batch` is its single synchronisation point for
    /// structural changes.  `make_model` constructs one insertion model per
    /// worker — models are per-shard scratch state and never cross threads.
    /// The returned outcomes are in input order.
    ///
    /// A one-shard tree hands the batch to shard 0 on the calling thread
    /// and returns that shard's report as is; when only one shard of
    /// several receives work, it too runs inline.
    pub fn insert_batch<M, F>(
        &mut self,
        make_model: &F,
        objs: Vec<M::Object>,
        budget: usize,
    ) -> BatchOutcome
    where
        M: InsertModel<S, Leaf = L>,
        M::Object: Send,
        S: Send + Sync,
        L: Send + Sync + Clone,
        F: Fn() -> M + Sync,
    {
        let routed = self.route_batch(make_model, objs);
        self.descend_routed(make_model, routed, budget)
    }

    /// Routes a whole batch through the coordinator.  A one-shard tree
    /// keeps the batch whole.
    fn route_batch<M, F>(&mut self, make_model: &F, objs: Vec<M::Object>) -> RoutedBatch<M::Object>
    where
        M: InsertModel<S, Leaf = L>,
        F: Fn() -> M + Sync,
    {
        if self.shards.len() == 1 {
            self.sizes[0] += objs.len();
            return RoutedBatch::Whole(objs);
        }
        let total = objs.len();
        let num_shards = self.shards.len();
        let mut per_shard_objs: Vec<Vec<M::Object>> = (0..num_shards).map(|_| Vec::new()).collect();
        let mut indices: Vec<Vec<usize>> = (0..num_shards).map(|_| Vec::new()).collect();
        let router_model = make_model();
        for (i, obj) in objs.into_iter().enumerate() {
            let shard = self.route_object(&router_model, &obj);
            indices[shard].push(i);
            per_shard_objs[shard].push(obj);
        }
        RoutedBatch::Split {
            objs: per_shard_objs,
            indices,
            total,
        }
    }

    /// Descends an already-routed batch: a whole batch drains into shard 0;
    /// a split one drains every busy shard's share on its own scoped thread
    /// and the per-shard reports are merged in input order.
    fn descend_routed<M, F>(
        &mut self,
        make_model: &F,
        routed: RoutedBatch<M::Object>,
        budget: usize,
    ) -> BatchOutcome
    where
        M: InsertModel<S, Leaf = L>,
        M::Object: Send,
        S: Send + Sync,
        L: Send + Sync + Clone,
        F: Fn() -> M + Sync,
    {
        let (per_shard_objs, per_shard_idx, total) = match routed {
            RoutedBatch::Whole(objs) => {
                return self.shards[0].insert_batch(&mut make_model(), objs, budget);
            }
            RoutedBatch::Split {
                objs,
                indices,
                total,
            } => (objs, indices, total),
        };
        let mut results: Vec<Option<BatchOutcome>> = self.shards.iter().map(|_| None).collect();
        dispatch_busy(
            self.shards
                .iter_mut()
                .zip(per_shard_objs.into_iter().zip(results.iter_mut())),
            |_, (objs, _)| !objs.is_empty(),
            |shard, (objs, slot)| {
                let mut model = make_model();
                *slot = Some(shard.insert_batch(&mut model, objs, budget));
            },
        );

        let mut outcomes = vec![InsertOutcome::ReachedLeaf; total];
        let mut depths = DepthHistogram::default();
        let mut stats = DescentStats::default();
        for (result, indices) in results.into_iter().zip(per_shard_idx) {
            let Some(batch) = result else {
                debug_assert!(indices.is_empty(), "shard with work produced no outcome");
                continue;
            };
            depths.merge(&batch.depths);
            stats.merge(&batch.stats);
            for (i, outcome) in indices.into_iter().zip(batch.outcomes) {
                outcomes[i] = outcome;
            }
        }
        BatchOutcome {
            outcomes,
            depths,
            stats,
        }
    }

    /// The **pipelined mode**: drains a mini-batch through the per-shard
    /// writers *while* readers refine a query batch against the pre-batch
    /// snapshot — inserts and queries overlap on the same index without
    /// locks.
    ///
    /// Concretely: the coordinator pins a [`ShardedTreeSnapshot`] (the
    /// pre-batch epochs), routes the whole batch, then one scoped writer
    /// thread drains it through the per-shard writers (exactly
    /// [`Self::insert_batch`]) while the coordinator runs
    /// [`query_batch_over`] on the frozen shard views.  Writers
    /// copy-on-write any node the snapshot still pins, so the returned
    /// answers are **exactly the pre-batch answers** — bit-identical to
    /// calling [`query_batch_over`] on the shards before the batch
    /// (property-tested in `tests/snapshot_isolation.rs`).
    ///
    /// `query_model` must use the *pre-batch* global normaliser for that
    /// equivalence to extend across shards.
    ///
    /// # Panics
    ///
    /// Panics if any query has the wrong dimensionality or a NaN
    /// coordinate (checked before any object is routed).
    #[allow(clippy::too_many_arguments)]
    pub fn pipelined_batch<M, F, Q>(
        &mut self,
        make_model: &F,
        objs: Vec<M::Object>,
        budget: usize,
        query_model: &Q,
        queries: &[Vec<f64>],
        order: RefineOrder,
        query_budget: usize,
    ) -> PipelinedOutcome
    where
        M: InsertModel<S, Leaf = L>,
        M::Object: Send,
        S: Send + Sync,
        L: Send + Sync + Clone,
        R: Send,
        Q: QueryModel<S, Leaf = L> + Sync,
        F: Fn() -> M + Sync,
    {
        let snapshot = self.snapshot();
        for query in queries {
            assert_query_dims(snapshot.shards(), query);
        }
        let routed = self.route_batch(make_model, objs);
        let mut insert_slot: Option<BatchOutcome> = None;
        let (answers, query_stats) = std::thread::scope(|scope| {
            let writer = &mut *self;
            let insert_slot = &mut insert_slot;
            scope.spawn(move || {
                *insert_slot = Some(writer.descend_routed(make_model, routed, budget));
            });
            query_batch_over(snapshot.shards(), query_model, queries, order, query_budget)
        });
        PipelinedOutcome {
            insert: insert_slot.expect("writer thread completed"),
            answers,
            query_stats,
        }
    }
}

/// The merged result of one [`ShardedAnytimeTree::pipelined_batch`] call:
/// the insert-side report plus the query answers computed against the
/// pre-batch snapshot while the batch was draining.
#[derive(Debug, Clone)]
pub struct PipelinedOutcome {
    /// The insert-side report (identical in shape to
    /// [`ShardedAnytimeTree::insert_batch`]'s).
    pub insert: BatchOutcome,
    /// Per-query folded answers — **exactly** what [`query_batch_over`]
    /// over the shards would have returned before the batch.
    pub answers: Vec<QueryAnswer>,
    /// The readers' merged work counters.
    pub query_stats: QueryStats,
}

/// Rejects a query whose dimensionality differs from the views', or that
/// has a NaN coordinate — checked at the fold's entry, before any
/// dispatch, so neither an empty view (which reads nothing) nor a worker
/// thread (whose panic would reach the caller as "a scoped thread
/// panicked") can hide the mismatch.  A NaN coordinate would score every
/// element NaN or zero, so an outlier test would certify a verdict from a
/// meaningless interval and k-NN would rank NaN distances; ±inf is a valid
/// far-away query.
fn assert_query_dims<S: Summary, L, V: TreeView<S, L>>(views: &[V], query: &[f64]) {
    for view in views {
        assert_eq!(query.len(), view.dims(), "query dimensionality mismatch");
    }
    assert!(
        query.iter().all(|v| !v.is_nan()),
        "query coordinates must not be NaN"
    );
}

/// Adds one view's partial answer into the fold — the fold's only
/// arithmetic, shared by the one-shot, batched and outlier paths.
fn accumulate(sum: &mut QueryAnswer, part: &QueryAnswer) {
    sum.estimate += part.estimate;
    sum.lower += part.lower;
    sum.upper += part.upper;
    sum.nodes_read += part.nodes_read;
}

/// The global answer of a set of refined frontiers.  The first cursor's
/// answer is the starting sum, so a one-view fold returns that view's
/// answer bit for bit.
fn fold_cursors(cursors: &[QueryCursor]) -> QueryAnswer {
    let Some((first, rest)) = cursors.split_first() else {
        return QueryAnswer::default();
    };
    let mut sum = first.answer();
    for cursor in rest {
        accumulate(&mut sum, &cursor.answer());
    }
    sum
}

/// Runs `f` on one pooled scratch cursor per view
/// ([`with_scratch_cursors`]), each begun on `query` — an empty view's
/// frontier is empty — and returns `f`'s result with the work the cursors
/// did meanwhile.
fn with_seeded_frontiers<S, L, V, M, R>(
    views: &[V],
    model: &M,
    query: &[f64],
    f: impl FnOnce(&mut [QueryCursor]) -> R,
) -> (R, QueryStats)
where
    S: Summary,
    L: LeafItems,
    V: TreeView<S, L>,
    M: QueryModel<S, Leaf = L>,
{
    assert_query_dims(views, query);
    with_scratch_cursors(views.len(), |cursors| {
        let mut before = QueryStats::default();
        for (view, cursor) in views.iter().zip(cursors.iter_mut()) {
            before.merge(cursor.stats());
            view.begin_query(model, query, cursor);
        }
        let result = f(cursors);
        let mut after = QueryStats::default();
        for cursor in cursors.iter() {
            after.merge(cursor.stats());
        }
        (result, after.delta_since(&before))
    })
}

/// One refinement round: every frontier that can still refine reads up to
/// `step` more nodes in `order` — inline for a lone view, on one scoped
/// thread per refinable view otherwise.  Returns whether any frontier
/// refined.
fn refine_round<S, L, V, M>(
    views: &[V],
    model: &M,
    order: RefineOrder,
    step: usize,
    cursors: &mut [QueryCursor],
) -> bool
where
    S: Summary + Send + Sync,
    L: LeafItems + Send + Sync,
    V: TreeView<S, L> + Sync,
    M: QueryModel<S, Leaf = L> + Sync,
{
    if let ([view], [cursor]) = (views, &mut *cursors) {
        return view.refine_query_up_to(model, order, step, cursor) > 0;
    }
    step > 0
        && dispatch_busy(
            views.iter().zip(cursors.iter_mut()),
            |_, cursor| cursor.can_refine(),
            |view, cursor| {
                view.refine_query_up_to(model, order, step, cursor);
            },
        )
}

/// Refines one query over a slice of views and hands the refined cursors
/// to `f`: every view's frontier is begun on a pooled scratch cursor and
/// refined up to `budget` node reads in `order` — inline when one view can
/// refine, on scoped threads otherwise — and the cursors' work plus the
/// wall-clock latency are folded into the registry as one query boundary.
///
/// Trees and snapshots pass their `shards()` (one for a plain tree), a
/// directly driven tree `std::slice::from_ref(view)`; the clustering
/// crate's k-NN retrieval ranks the cursors' frontier elements in `f`.  `model`
/// must use one global normaliser for every view, so partial answers fold
/// by summation.
///
/// # Panics
///
/// Panics if the query has the wrong dimensionality or a NaN coordinate.
pub fn refine_frontiers_over<S, L, V, M, R>(
    views: &[V],
    model: &M,
    query: &[f64],
    order: RefineOrder,
    budget: usize,
    f: impl FnOnce(&[QueryCursor]) -> R,
) -> R
where
    S: Summary + Send + Sync,
    L: LeafItems + Send + Sync,
    V: TreeView<S, L> + Sync,
    M: QueryModel<S, Leaf = L> + Sync,
{
    let started = crate::obs::boundary_timer();
    let (result, delta) = with_seeded_frontiers(views, model, query, |cursors| {
        refine_round(views, model, order, budget, cursors);
        f(cursors)
    });
    crate::obs::record_external_query(&delta, started);
    result
}

/// One-shot query over a slice of views: every frontier refines up to
/// `budget` node reads ([`refine_frontiers_over`]) and the partials fold
/// into one global mixture answer.  Each view's `[lower, upper]` interval
/// can only tighten with budget, so the folded interval inherits the
/// monotonicity guarantee.
///
/// # Panics
///
/// Panics if the query has the wrong dimensionality or a NaN coordinate.
#[must_use]
pub fn query_over<S, L, V, M>(
    views: &[V],
    model: &M,
    query: &[f64],
    order: RefineOrder,
    budget: usize,
) -> QueryAnswer
where
    S: Summary + Send + Sync,
    L: LeafItems + Send + Sync,
    V: TreeView<S, L> + Sync,
    M: QueryModel<S, Leaf = L> + Sync,
{
    let answer = refine_frontiers_over(views, model, query, order, budget, fold_cursors);
    crate::obs::record_query_answer(&answer, None);
    answer
}

/// Refines a batch of queries over a slice of views: each view processes
/// the **whole batch** through one reused cursor
/// ([`TreeView::query_batch`]) — inline for one view, one scoped thread per
/// view otherwise, so thread-spawn cost amortises over the batch — and the
/// per-view partials fold per query.  Returns the per-query global answers
/// plus the merged [`QueryStats`].
///
/// # Panics
///
/// Panics if any query has the wrong dimensionality or a NaN
/// coordinate.
#[must_use]
pub fn query_batch_over<S, L, V, M>(
    views: &[V],
    model: &M,
    queries: &[Vec<f64>],
    order: RefineOrder,
    budget: usize,
) -> (Vec<QueryAnswer>, QueryStats)
where
    S: Summary + Send + Sync,
    L: LeafItems + Send + Sync,
    V: TreeView<S, L> + Sync,
    M: QueryModel<S, Leaf = L> + Sync,
{
    for query in queries {
        assert_query_dims(views, query);
    }
    if let [view] = views {
        return view.query_batch(model, queries, order, budget);
    }
    let mut per_view: Vec<Option<(Vec<QueryAnswer>, QueryStats)>> =
        views.iter().map(|_| None).collect();
    dispatch_busy(
        views.iter().zip(per_view.iter_mut()),
        |_, _| true,
        |view, slot| *slot = Some(view.query_batch(model, queries, order, budget)),
    );
    // The first view's partials are the starting sums, as in `fold_cursors`.
    let mut parts = per_view.into_iter().flatten();
    let (mut answers, mut stats) = parts.next().unwrap_or_default();
    for (partials, view_stats) in parts {
        stats.merge(&view_stats);
        for (sum, part) in answers.iter_mut().zip(&partials) {
            accumulate(sum, part);
        }
    }
    (answers, stats)
}

/// Anytime outlier scoring over a slice of views: the density bounds
/// refine (widest interval first) until the folded interval's verdict
/// against `threshold` is certain or `budget` node reads are spent.
///
/// The one refinement loop of the engine.  One view refines one read at a
/// time and checks the verdict after every read, so a clear-cut verdict
/// costs exactly the reads it needs; several views refine in doubling
/// per-view rounds (1, 2, 4, … reads each) with a fold-and-check between
/// rounds, so each round's thread dispatch amortises over more reads.
/// How early either stops depends on the model's bound tightness:
/// MBR-backed bounds decide far-away outliers almost immediately, while a
/// distance-blind peak upper bound resolves inlier verdicts quickly but
/// needs deep refinement to certify an outlier.
///
/// # Panics
///
/// Panics if the query has the wrong dimensionality or a NaN coordinate.
#[must_use]
pub fn outlier_score_over<S, L, V, M>(
    views: &[V],
    model: &M,
    query: &[f64],
    threshold: f64,
    budget: usize,
) -> OutlierScore
where
    S: Summary + Send + Sync,
    L: LeafItems + Send + Sync,
    V: TreeView<S, L> + Sync,
    M: QueryModel<S, Leaf = L> + Sync,
{
    let started = crate::obs::boundary_timer();
    let (score, delta) = with_seeded_frontiers(views, model, query, |cursors| {
        let mut spent = 0usize;
        let mut round = 1usize;
        let mut rounds_done: u32 = 0;
        loop {
            let answer = fold_cursors(cursors);
            let verdict = answer.verdict(threshold);
            if rounds_done > 0 {
                crate::obs::record_refine_step(
                    rounds_done,
                    spent as u64,
                    answer.uncertainty(),
                    verdict != OutlierVerdict::Undecided,
                );
            }
            let step = if views.len() == 1 {
                1
            } else {
                round.min(budget.saturating_sub(spent))
            };
            if verdict != OutlierVerdict::Undecided
                || spent >= budget
                || !refine_round(views, model, RefineOrder::WidestBound, step, cursors)
            {
                return OutlierScore { answer, verdict };
            }
            spent += step;
            round = round.saturating_mul(2);
            rounds_done += 1;
        }
    });
    crate::obs::record_verdict(score.verdict);
    crate::obs::record_query_answer(&score.answer, started);
    crate::obs::record_query_stats(&delta);
    score
}

/// A point-in-time view of a set of trees — the shards of a
/// [`ShardedAnytimeTree`], or one plain [`AnytimeTree`] as a one-shard
/// snapshot: one pinned [`TreeSnapshot`] per tree, taken together.
///
/// `Send + Sync` whenever the payloads are; its [`shards`](Self::shards)
/// are the views the fold functions read — the pipelined mode's readers run
/// against exactly this type.
#[derive(Debug, Clone)]
pub struct ShardedTreeSnapshot<S: Summary, L> {
    shards: Vec<TreeSnapshot<S, L>>,
}

impl<S: Summary, L> ShardedTreeSnapshot<S, L> {
    /// Pins every tree of `shards` at its current published epoch
    /// ([`AnytimeTree::snapshot`]); a lone tree passes
    /// `std::slice::from_ref(tree)`.
    #[must_use]
    pub fn new(shards: &[AnytimeTree<S, L>]) -> Self {
        Self {
            shards: shards.iter().map(AnytimeTree::snapshot).collect(),
        }
    }

    /// Incrementally moves every shard's snapshot forward to `tree`'s
    /// current state ([`TreeSnapshot::refresh`]) and returns the summed
    /// [`SnapshotRefresh`] counters: only the slot chunks touched since the
    /// pins are replaced, shard by shard.
    ///
    /// # Panics
    ///
    /// Panics if `tree` is not the sharded tree this snapshot was taken
    /// from (shard count or epoch registries differ).
    pub fn refresh<R: ShardRouter<S>>(
        &mut self,
        tree: &ShardedAnytimeTree<S, L, R>,
    ) -> SnapshotRefresh {
        assert_eq!(
            self.shards.len(),
            tree.shards.len(),
            "snapshot refreshed against a different sharded tree"
        );
        let mut total = SnapshotRefresh::default();
        for (snapshot, shard) in self.shards.iter_mut().zip(&tree.shards) {
            let report = snapshot.refresh(shard);
            total.chunks_reused += report.chunks_reused;
            total.chunks_refreshed += report.chunks_refreshed;
        }
        total
    }
}

/// The shard set an index reads: the live shards of a
/// [`ShardedAnytimeTree`] or the pinned ones of a [`ShardedTreeSnapshot`].
///
/// An index family is one struct generic over its shard set, so each of its
/// reads is written once against this trait and serves the live tree and
/// its snapshot alike; writes and `snapshot()` stay on the live
/// instantiation.
pub trait ShardSet<S: Summary, L> {
    /// The per-shard view the query folds read.
    type View: TreeView<S, L> + Sync;

    /// The shard views, in shard order.
    fn shards(&self) -> &[Self::View];

    /// The published epoch `view` reads (a live tree's current one, a
    /// snapshot's pinned one).
    fn epoch_of(view: &Self::View) -> u64;

    /// One shard's view: its `root()`, `node(id)` and reachable set.
    fn shard(&self, k: usize) -> &Self::View {
        &self.shards()[k]
    }

    /// Dimensionality of the indexed data.
    fn dims(&self) -> usize {
        self.shards()[0].dims()
    }

    /// Number of shards.
    fn num_shards(&self) -> usize {
        self.shards().len()
    }

    /// Every shard's epoch, in shard order — what a snapshot taken of a
    /// live set now pins, or what a snapshot set pins.
    fn epochs(&self) -> Vec<u64> {
        self.shards().iter().map(Self::epoch_of).collect()
    }
}

impl<S, L, R> ShardSet<S, L> for ShardedAnytimeTree<S, L, R>
where
    S: Summary + Send + Sync,
    L: Send + Sync,
{
    type View = AnytimeTree<S, L>;

    fn shards(&self) -> &[AnytimeTree<S, L>] {
        &self.shards
    }

    fn epoch_of(view: &AnytimeTree<S, L>) -> u64 {
        view.epoch()
    }
}

impl<S, L> ShardSet<S, L> for ShardedTreeSnapshot<S, L>
where
    S: Summary + Send + Sync,
    L: Send + Sync,
{
    type View = TreeSnapshot<S, L>;

    fn shards(&self) -> &[TreeSnapshot<S, L>] {
        &self.shards
    }

    fn epoch_of(view: &TreeSnapshot<S, L>) -> u64 {
        view.epoch()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeKind;

    /// A minimal distance-routed payload: (weight, component sums).
    #[derive(Debug, Clone, PartialEq)]
    struct Blob {
        weight: f64,
        sum: Vec<f64>,
    }

    impl Blob {
        fn center_of(&self) -> Vec<f64> {
            self.sum.iter().map(|s| s / self.weight).collect()
        }
    }

    impl Summary for Blob {
        type Ctx = ();
        type Dir = Vec<crate::node::Entry<Blob>>;
        fn merge(&mut self, other: &Self, _ctx: ()) {
            self.weight += other.weight;
            for (a, b) in self.sum.iter_mut().zip(&other.sum) {
                *a += b;
            }
        }
        fn weight(&self) -> f64 {
            self.weight
        }
        fn sq_dist_to(&self, point: &[f64]) -> f64 {
            self.center_of()
                .iter()
                .zip(point)
                .map(|(a, b)| (a - b) * (a - b))
                .sum()
        }
        fn center(&self) -> Vec<f64> {
            self.center_of()
        }
    }

    /// A buffered model storing blobs directly at leaf level.
    struct BlobModel;

    impl InsertModel<Blob> for BlobModel {
        type Object = Blob;
        type Leaf = Vec<Blob>;
        const BUFFERED: bool = true;

        fn ctx(&self) {}
        fn route_point<'a>(&self, obj: &'a Blob, scratch: &'a mut Vec<f64>) -> &'a [f64] {
            scratch.clear();
            scratch.extend(obj.center_of());
            scratch
        }
        fn summary_of(&self, obj: &Blob) -> Blob {
            obj.clone()
        }
        fn absorb_into(&self, summary: &mut Blob, obj: &Blob) {
            summary.merge(obj, ());
        }
        fn merge_buffer_into_object(&self, obj: &mut Blob, buffer: Blob) {
            obj.merge(&buffer, ());
        }
        fn insert_into_leaf(&mut self, items: &mut Vec<Blob>, obj: Blob) {
            items.push(obj);
        }
        fn summarize_leaf_items(&self, items: &Vec<Blob>) -> Blob {
            let mut s = items[0].clone();
            for i in &items[1..] {
                s.merge(i, ());
            }
            s
        }
        fn split_leaf_items(
            &self,
            items: Vec<Blob>,
            geometry: &PageGeometry,
        ) -> (Vec<Blob>, Vec<Blob>) {
            let centers: Vec<f64> = items.iter().flat_map(Summary::center).collect();
            let (a, b) = crate::split::polar_partition(
                &centers,
                centers.len() / items.len(),
                geometry.max_leaf,
            );
            crate::split::distribute(items, &a, &b)
        }
    }

    fn blob(x: f64, y: f64) -> Blob {
        Blob {
            weight: 1.0,
            sum: vec![x, y],
        }
    }

    fn geometry() -> PageGeometry {
        PageGeometry {
            min_fanout: 1,
            max_fanout: 3,
            min_leaf: 1,
            max_leaf: 3,
        }
    }

    fn stream(n: usize) -> Vec<Blob> {
        (0..n)
            .map(|i| {
                let c = if i % 2 == 0 { 0.0 } else { 20.0 };
                blob(c + (i % 5) as f64 * 0.1, c + (i % 7) as f64 * 0.1)
            })
            .collect()
    }

    fn tree_weight(tree: &AnytimeTree<Blob, Vec<Blob>>) -> f64 {
        let mut total = 0.0;
        for id in tree.reachable() {
            match &tree.node(id).kind {
                NodeKind::Leaf { items } => total += items.iter().map(|b| b.weight).sum::<f64>(),
                NodeKind::Inner { entries } => {
                    total += entries
                        .iter()
                        .map(crate::node::Entry::buffered_weight)
                        .sum::<f64>();
                }
            }
        }
        total
    }

    fn sharded_weight<R>(tree: &ShardedAnytimeTree<Blob, Vec<Blob>, R>) -> f64 {
        tree.shards().iter().map(tree_weight).sum()
    }

    /// Objects routed to each shard since `before` was read.
    fn size_deltas<R>(
        before: &[usize],
        tree: &ShardedAnytimeTree<Blob, Vec<Blob>, R>,
    ) -> Vec<usize> {
        tree.shard_sizes()
            .iter()
            .zip(before)
            .map(|(after, before)| after - before)
            .collect()
    }

    /// A router that must never be asked: a one-shard tree does not route.
    #[derive(Default)]
    struct UnreachableRouter;

    impl ShardRouter<Blob> for UnreachableRouter {
        fn route(&mut self, _point: &[f64], _aggregates: &[Option<Blob>]) -> usize {
            unreachable!("a one-shard tree consulted its router")
        }
    }

    #[test]
    fn one_shard_tree_never_routes() {
        let mut sharded: ShardedAnytimeTree<Blob, Vec<Blob>, UnreachableRouter> =
            ShardedAnytimeTree::new(2, geometry(), 1);
        let mut model = BlobModel;
        let _ = sharded.insert(&mut model, blob(1.0, 1.0), usize::MAX);
        let _ = sharded.insert_batch(&|| BlobModel, stream(40), usize::MAX);
        assert_eq!(sharded.shard_sizes(), &[41]);
        assert!(sharded.aggregates[0].is_none(), "no routing state is kept");
        assert!((sharded_weight(&sharded) - 41.0).abs() < 1e-9);
    }

    #[test]
    fn single_shard_matches_the_plain_tree() {
        let points = stream(150);
        let mut plain = AnytimeTree::new(2, geometry());
        let mut sharded: ShardedAnytimeTree<Blob, Vec<Blob>> =
            ShardedAnytimeTree::new(2, geometry(), 1);
        let mut model = BlobModel;
        for chunk in points.chunks(16) {
            let before = sharded.shard_sizes().to_vec();
            let a = plain.insert_batch(&mut model, chunk.to_vec(), 3);
            let b = sharded.insert_batch(&|| BlobModel, chunk.to_vec(), 3);
            assert_eq!(a.outcomes, b.outcomes);
            assert_eq!(a.depths, b.depths);
            assert_eq!(a.stats, b.stats);
            assert_eq!(size_deltas(&before, &sharded), vec![chunk.len()]);
        }
        assert_eq!(plain.num_nodes(), sharded.num_nodes());
        assert_eq!(plain.height(), sharded.height());
        assert_eq!(plain.stats(), &sharded.stats());
        assert!((tree_weight(&plain) - sharded_weight(&sharded)).abs() < 1e-9);
    }

    #[test]
    fn fixed_partition_router_deals_round_robin() {
        let mut sharded: ShardedAnytimeTree<Blob, Vec<Blob>, FixedPartitionRouter> =
            ShardedAnytimeTree::new(2, geometry(), 3);
        let result = sharded.insert_batch(&|| BlobModel, stream(31), usize::MAX);
        assert_eq!(sharded.shard_sizes(), &[11, 10, 10]);
        assert_eq!(result.outcomes.len(), 31);
        assert_eq!(result.depths.total(), 31);
        // The next batch continues the rotation where the last one stopped.
        let before = sharded.shard_sizes().to_vec();
        let _ = sharded.insert_batch(&|| BlobModel, stream(2), usize::MAX);
        assert_eq!(size_deltas(&before, &sharded), vec![0, 1, 1]);
    }

    #[test]
    fn cheapest_router_seeds_every_shard_then_routes_by_distance() {
        let mut sharded: ShardedAnytimeTree<Blob, Vec<Blob>> =
            ShardedAnytimeTree::new(2, geometry(), 2);
        let model = BlobModel;
        // First two objects seed the two empty shards in order.
        assert_eq!(sharded.route_object(&model, &blob(0.0, 0.0)), 0);
        assert_eq!(sharded.route_object(&model, &blob(20.0, 20.0)), 1);
        // From now on distance decides.
        assert_eq!(sharded.route_object(&model, &blob(1.0, 1.0)), 0);
        assert_eq!(sharded.route_object(&model, &blob(19.0, 19.0)), 1);
        assert!(sharded.aggregates.iter().all(Option::is_some));
    }

    #[test]
    fn parallel_batches_conserve_mass_and_merge_reports() {
        let points = stream(320);
        let mut sharded: ShardedAnytimeTree<Blob, Vec<Blob>> =
            ShardedAnytimeTree::new(2, geometry(), 4);
        let mut total_stats = DescentStats::default();
        for chunk in points.chunks(64) {
            let before = sharded.shard_sizes().to_vec();
            let result = sharded.insert_batch(&|| BlobModel, chunk.to_vec(), usize::MAX);
            assert_eq!(result.outcomes.len(), chunk.len());
            assert_eq!(result.depths.total(), chunk.len());
            assert_eq!(result.depths.reached_leaf, chunk.len());
            assert_eq!(
                size_deltas(&before, &sharded).iter().sum::<usize>(),
                chunk.len()
            );
            total_stats.merge(&result.stats);
        }
        assert!((sharded_weight(&sharded) - 320.0).abs() < 1e-9);
        // The merged per-batch deltas add up to the merged per-shard totals.
        assert_eq!(total_stats, sharded.stats());
        // Every shard saw work: two clusters spread over four seeded shards.
        for shard in sharded.shards() {
            assert!(shard.stats().batches > 0);
        }
    }

    #[test]
    fn empty_batches_are_no_ops_on_both_paths() {
        let mut plain = AnytimeTree::new(2, geometry());
        let mut sharded: ShardedAnytimeTree<Blob, Vec<Blob>> =
            ShardedAnytimeTree::new(2, geometry(), 1);
        let mut model = BlobModel;
        let a = plain.insert_batch(&mut model, Vec::new(), 3);
        let b = sharded.insert_batch(&|| BlobModel, Vec::new(), 3);
        assert!(a.outcomes.is_empty() && b.outcomes.is_empty());
        assert_eq!(a.stats, DescentStats::default());
        assert_eq!(plain.stats(), &sharded.stats());
        assert_eq!(plain.stats(), &DescentStats::default());
    }

    #[test]
    fn zero_budget_batches_park_across_shards() {
        let mut sharded: ShardedAnytimeTree<Blob, Vec<Blob>> =
            ShardedAnytimeTree::new(2, geometry(), 2);
        let _ = sharded.insert_batch(&|| BlobModel, stream(60), usize::MAX);
        assert!(sharded.height() > 1);
        let result = sharded.insert_batch(&|| BlobModel, stream(8), 0);
        assert_eq!(result.depths.reached_leaf, 0);
        assert_eq!(result.depths.parked_total(), 8);
        assert!((sharded_weight(&sharded) - 68.0).abs() < 1e-9);
    }

    #[test]
    fn single_object_insert_routes_and_descends() {
        let mut sharded: ShardedAnytimeTree<Blob, Vec<Blob>> =
            ShardedAnytimeTree::new(2, geometry(), 2);
        let mut model = BlobModel;
        for p in stream(40) {
            let outcome = sharded.insert(&mut model, p, usize::MAX);
            assert_eq!(outcome, InsertOutcome::ReachedLeaf);
        }
        assert!((sharded_weight(&sharded) - 40.0).abs() < 1e-9);
        assert_eq!(sharded.stats().batches, 40);
    }

    #[test]
    fn sharded_trees_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<AnytimeTree<Blob, Vec<Blob>>>();
        assert_send::<crate::DescentCursor<Blob>>();
        assert_send::<crate::QueryCursor>();
        assert_send::<ShardedAnytimeTree<Blob, Vec<Blob>, CheapestRouter>>();
        assert_send::<ShardedAnytimeTree<Blob, Vec<Blob>, FixedPartitionRouter>>();
    }

    /// A toy density model over blobs: `w/n * exp(-d²)` with trivially
    /// nested bounds `(0, w/n)`; exact at leaf level.
    struct BlobQueryModel {
        n: f64,
    }

    impl QueryModel<Blob> for BlobQueryModel {
        type Leaf = Vec<Blob>;
        fn summary_contribution(&self, query: &[f64], summary: &Blob) -> f64 {
            summary.weight / self.n * (-summary.sq_dist_to(query)).exp()
        }
        fn summary_bounds(&self, _query: &[f64], summary: &Blob) -> (f64, f64) {
            (0.0, summary.weight / self.n)
        }
        fn leaf_contribution(&self, query: &[f64], leaf: &Vec<Blob>, index: usize) -> f64 {
            let item = &leaf[index];
            self.summary_contribution(query, item)
        }
        fn leaf_sq_dist(&self, query: &[f64], leaf: &Vec<Blob>, index: usize) -> f64 {
            let item = &leaf[index];
            item.sq_dist_to(query)
        }
        fn leaf_weight(&self, leaf: &Vec<Blob>, index: usize) -> f64 {
            let item = &leaf[index];
            item.weight
        }
        fn summarize_leaf_items(&self, items: &Vec<Blob>) -> Blob {
            let mut s = items[0].clone();
            for i in &items[1..] {
                s.merge(i, ());
            }
            s
        }
    }

    #[test]
    fn shard_sizes_track_routing() {
        let mut sharded: ShardedAnytimeTree<Blob, Vec<Blob>, FixedPartitionRouter> =
            ShardedAnytimeTree::new(2, geometry(), 3);
        assert_eq!(sharded.shard_sizes(), &[0, 0, 0]);
        let _ = sharded.insert_batch(&|| BlobModel, stream(31), usize::MAX);
        assert_eq!(sharded.shard_sizes(), &[11, 10, 10]);
        let _ = sharded.insert_batch(&|| BlobModel, stream(2), usize::MAX);
        assert_eq!(sharded.shard_sizes(), &[11, 11, 11]);
    }

    #[test]
    fn one_shard_query_matches_the_plain_tree() {
        let points = stream(150);
        let mut plain = AnytimeTree::new(2, geometry());
        let mut sharded: ShardedAnytimeTree<Blob, Vec<Blob>> =
            ShardedAnytimeTree::new(2, geometry(), 1);
        let mut model = BlobModel;
        for chunk in points.chunks(16) {
            let _ = plain.insert_batch(&mut model, chunk.to_vec(), 3);
            let _ = sharded.insert_batch(&|| BlobModel, chunk.to_vec(), 3);
        }
        let (query, best) = ([1.0, 1.0], RefineOrder::BestFirst);
        let model = BlobQueryModel { n: 150.0 };
        for budget in [0usize, 1, 3, 8, usize::MAX] {
            let reference = query_over(std::slice::from_ref(&plain), &model, &query, best, budget);
            let folded = query_over(sharded.shards(), &model, &query, best, budget);
            assert_eq!(folded, reference, "budget {budget}");
        }
    }

    #[test]
    fn sharded_query_folds_the_full_mixture() {
        // Fully refined, the partition is invisible: the folded sum over
        // shards equals the plain tree's fully refined sum.
        let points = stream(200);
        let mut plain = AnytimeTree::new(2, geometry());
        let mut sharded: ShardedAnytimeTree<Blob, Vec<Blob>> =
            ShardedAnytimeTree::new(2, geometry(), 4);
        let mut model = BlobModel;
        for chunk in points.chunks(32) {
            let _ = plain.insert_batch(&mut model, chunk.to_vec(), usize::MAX);
            let _ = sharded.insert_batch(&|| BlobModel, chunk.to_vec(), usize::MAX);
        }
        let model = BlobQueryModel { n: 200.0 };
        let (plain, shards) = (std::slice::from_ref(&plain), sharded.shards());
        let best = RefineOrder::BestFirst;
        for query in [[0.1, 0.2], [20.0, 20.1], [10.0, 10.0]] {
            let reference = query_over(plain, &model, &query, best, usize::MAX);
            let folded = query_over(shards, &model, &query, best, usize::MAX);
            assert!(
                (folded.estimate - reference.estimate).abs() <= 1e-12 * (1.0 + reference.estimate),
                "estimate mismatch at {query:?}"
            );
            assert!(folded.uncertainty() < 1e-12);
        }
        // Batched multi-query path agrees with the one-shot path.
        let queries: Vec<Vec<f64>> = vec![vec![0.1, 0.2], vec![20.0, 20.1]];
        let (answers, stats) = query_batch_over(shards, &model, &queries, best, 5);
        assert_eq!(answers.len(), 2);
        assert_eq!(stats.queries, 2 * 4); // every shard begins every query
        for (answer, query) in answers.iter().zip(&queries) {
            assert_eq!(answer, &query_over(shards, &model, query, best, 5));
        }
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_panics() {
        let _: ShardedAnytimeTree<Blob, Vec<Blob>> = ShardedAnytimeTree::new(2, geometry(), 0);
    }
}
