//! # bt-anytree — the shared anytime-index core
//!
//! Kranen's VLDB 2009 thesis is that the Bayes tree "is essentially an index
//! structure", and that the stream-clustering extension (ClusTree) is the
//! *same* index with micro-clusters instead of kernels.  This crate owns the
//! machinery both trees share so that it exists exactly once:
//!
//! * the **node arena** ([`AnytimeTree`], [`arena`]): every node version is
//!   its own reference-counted allocation behind a chunked slot table that
//!   keeps [`NodeId`]s stable.  Every version carries the epoch of the
//!   batch that last mutated it and a block-cache slot that every write
//!   empties (so a filled slot always describes the node as it is — the
//!   one cache rule), and mutation is **copy-on-write per version**: a
//!   write mutates in place while no pinned snapshot reaches the version
//!   (one reference-count check — the no-reader fast path never copies)
//!   and otherwise repoints the slot to a copy, leaving the old version to
//!   its readers,
//! * **epoch-pinned snapshots** ([`snapshot`]): `finish_batch` publishes a
//!   new root epoch, [`AnytimeTree::snapshot`] pins it (a slot-table clone
//!   plus one registry pin) and returns an owned, `Send + Sync`
//!   [`TreeSnapshot`] whose query answers stay bit-identical to pin time
//!   while later batches mutate the tree.  A retired version is kept by
//!   the snapshots that reach it and by its arena's graveyard; once no pin
//!   reaches it, the arena's next batch writes a copy into it (`clone_from`
//!   reuses its buffers) or frees it beyond one batch's worth of spares
//!   ([`ArenaCensus`] counts what is held, [`EpochRegistry`] records the
//!   pins).  A held snapshot catches up in place via
//!   [`TreeSnapshot::refresh`]: only the slot chunks the intervening
//!   batches actually replaced are re-pinned, everything untouched is
//!   reused pointer-for-pointer ([`SnapshotRefresh`] reports the reuse
//!   counters),
//! * **entries generic over a payload** ([`Summary`]): merge / weight /
//!   distance / decay, kept in a directory container the payload chooses
//!   ([`Directory`]); a container that lends box columns routes descent
//!   through `bt_index::rstar` choose-subtree and splits with the R*
//!   topological split,
//! * **budgeted descent** with a pluggable per-level step cost
//!   ([`InsertModel::step_cost`]), implemented as an iterative, resumable
//!   cursor engine ([`descent`]): a [`DescentCursor`] holds one in-flight
//!   insertion (node, depth, remaining budget, carried object plus picked-up
//!   hitchhikers) and advances one node per step — no recursion, and the
//!   literal stop/resume-anywhere anytime contract,
//! * **mini-batch insertion** ([`AnytimeTree::insert_batch`]): a batch
//!   shares one summary refresh per visited node, one routing scratch
//!   allocation per tree, and one overflow resolution per node after the
//!   batch drains, reporting a reached-leaf vs. parked-at-depth
//!   [`DepthHistogram`],
//! * **hitchhiker / park buffers**: an object that runs out of budget is
//!   parked in its entry's buffer and carried further down by a later
//!   descent through the same entry,
//! * **split and overflow propagation** with `(min, max)` fanout taken from
//!   [`bt_index::PageGeometry`], including the root split and the
//!   merge-instead-of-split fallback used when there is no time to split,
//! * the **anytime query engine** ([`query`]): the query-side mirror of the
//!   descent engine — a payload-generic [`QueryModel`] scores summaries and
//!   leaf items against a query point, a resumable [`QueryCursor`] refines a
//!   best-first frontier one node read at a time (per-tree scratch/frontier
//!   reuse, a **per-order lazy selection heap** property-tested to pop the
//!   identical sequence as the reference scan, [`QueryStats`] counters
//!   alongside [`DescentStats`]), partial answers carry certain
//!   `[lower, upper]` bounds that can only tighten with budget, and
//!   insert-free workloads such as anytime **outlier scoring**
//!   ([`outlier_score_over`]) plug in with just a `Summary` +
//!   `QueryModel`.  The per-view primitives run on the [`TreeView`]
//!   abstraction, so live trees and pinned [`TreeSnapshot`]s answer
//!   through literally the same code,
//! * the **structure-of-arrays scoring layout** ([`SummaryBlock`],
//!   [`BlockScratch`], re-exported from `bt_stats::block`): the hot "score
//!   every entry of this node" step — box routing in the descent engine
//!   and frontier scoring/bounds in the query engine — runs the batch
//!   kernels of `bt_stats::kernel` over dimension-major
//!   weight/mean/variance/box columns in one autovectorizable pass
//!   ([`QueryModel::score_entries`]).  The scalar per-entry path remains
//!   the behavioural reference: block overrides are bit-identical to it
//!   (property-tested).  A directory holds a container its payload
//!   chooses ([`Summary::Dir`], [`Directory`]) and a leaf one its model
//!   chooses ([`LeafItems`]).  A container that already is its scoring
//!   block (the Bayes tree's entry and point columns) is scored where it
//!   lies, gathered never and cached never; a box-routed directory is
//!   routed from its own box columns, any other by each entry row's
//!   distance.  A node a model gathers (the ClusTree density model's) is
//!   cached in its set-once [`BlockCacheSlot`] under one rule: every write
//!   empties the slot, so a cached read is a plain load with no stamp,
//!   flag or lock; a model that gathers nothing scores its rows even when
//!   another model's block is cached,
//! * the **sharding layer** ([`shard`]): a [`ShardedAnytimeTree`] partitions
//!   the object space into `K` independent shard trees behind a pluggable
//!   [`ShardRouter`] and descends every shard's share of a mini-batch in
//!   parallel on scoped threads — one cursor per shard as the concurrency
//!   unit, each shard's `finish_batch` its single synchronisation point,
//!   per-shard reports merged via [`DepthHistogram::merge`] and
//!   [`DescentStats::merge`].  It is the **one writer**: each index family
//!   owns one `ShardedAnytimeTree`, and a plain tree is a one-shard tree
//!   whose batches go to shard 0 without routing.  It also holds the **one
//!   query engine**:
//!   every whole query — one-shot ([`query_over`]), batched
//!   ([`query_batch_over`]), outlier scoring ([`outlier_score_over`]) and
//!   the frontier refinement k-NN retrieval ranks
//!   ([`refine_frontiers_over`]) — is a fold over a slice of views, refined
//!   concurrently per view and summed into one [`QueryAnswer`] whose bounds
//!   inherit each view's monotonicity.  A directly driven [`AnytimeTree`]
//!   is the one-view slice (`std::slice::from_ref`), so it answers exactly
//!   as a one-shard tree does.  On top sits
//!   the **pipelined mode** ([`ShardedAnytimeTree::pipelined_batch`]):
//!   writer threads drain a mini-batch per shard while reader threads
//!   refine query frontiers against the pre-batch
//!   [`ShardedTreeSnapshot`] — property-tested to return exactly the
//!   pre-batch answers.  The core carries no lock on any hot path, so
//!   `AnytimeTree<S, L>: Send + Sync` whenever the payloads are,
//! * the **observability boundary** ([`obs`]): every batch, query and
//!   snapshot refresh folds its [`DescentStats`] / [`QueryStats`] /
//!   [`SnapshotRefresh`] delta into the process-global [`bt_obs`] metric
//!   registry (latency and bound-width histograms included), every publish
//!   adds its arena's [`ArenaCensus`] change to the arena gauges, and emits
//!   span-trace events for the refinement lifecycle — the hot loops never
//!   touch an atomic, and disabled recording costs one relaxed load per
//!   boundary.
//!
//! Consumers instantiate the core by choosing a payload (`bayestree`: an
//! MBR + cluster-feature summary over raw kernel points; `clustree`: a
//! decaying micro-cluster) and implementing [`InsertModel`] for the handful
//! of decisions that genuinely differ between workloads (leaf insertion
//! policy, leaf splitting, buffering).  Everything else — descent order,
//! buffer bookkeeping, split propagation, height tracking — is shared.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod arena;
pub mod descent;
pub mod input;
pub mod model;
pub mod node;
pub mod obs;
pub mod query;
pub mod shard;
pub mod snapshot;
pub mod split;
pub mod summary;
pub mod tree;

pub use arena::{
    ArenaCensus, ArenaSpine, EpochPin, EpochRegistry, NodeArena, SnapshotRefresh, VersionedNode,
    SLOT_CHUNK,
};
pub use bt_obs;
pub use bt_stats::{BlockCacheSlot, BlockScratch, GatheredBlock, SummaryBlock};
pub use descent::{BatchOutcome, CursorStep, DepthHistogram, DescentCursor, DescentStats};
pub use input::{check_point, check_points, or_panic, InputError};
pub use model::InsertModel;
pub use node::{Directory, Entry, LeafItems, Node, NodeId, NodeKind};
pub use query::{
    frontier_sum, with_scratch_cursors, ElementOrigin, OutlierScore, OutlierVerdict, QueryAnswer,
    QueryCursor, QueryElement, QueryModel, QueryStats, RefineOrder, SummaryScore, TreeView,
};
pub use shard::{
    outlier_score_over, query_batch_over, query_over, refine_frontiers_over, CheapestRouter,
    FixedPartitionRouter, PipelinedOutcome, ShardRouter, ShardSet, ShardedAnytimeTree,
    ShardedTreeSnapshot,
};
pub use snapshot::TreeSnapshot;
pub use split::{distribute, polar_partition};
pub use summary::Summary;
pub use tree::{AnytimeTree, InsertOutcome};
