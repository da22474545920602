//! The generic anytime query engine: resumable best-first frontiers.
//!
//! The paper's anytime promise covers *answers*, not just inserts: a query's
//! mixture estimate must improve monotonically as the budget grows and be
//! interruptible at any node read.  This module is the query-side mirror of
//! the insertion engine in [`crate::descent`] — payload-generic, iterative,
//! resumable, and built around one reusable piece of per-query scratch:
//!
//! * a [`QueryModel`] supplies the handful of decisions that differ per
//!   workload (how a directory summary is scored against the query, what
//!   certain lower/upper bounds on its fully refined contribution are, how a
//!   leaf item is scored),
//! * a [`QueryCursor`] holds the complete state of one in-flight query: the
//!   *frontier* — a set of elements such that every leaf item of the tree is
//!   represented exactly once — plus the running partial answer and its
//!   certain bounds.  [`TreeView::refine_query`] advances it by exactly
//!   one node read, replacing one frontier element by its children and
//!   updating the partial answer by subtracting the refined contribution and
//!   adding the children's — the cost per step is one node read, and the
//!   cursor can stop and resume anywhere,
//! * a [`RefineOrder`] decides which element refines next (the orderings the
//!   Bayes tree's Section 2.2 evaluates, hoisted here so they exist once:
//!   breadth-first, depth-first, closest-first, best-contribution-first,
//!   plus the bound-driven widest-bound-first used by outlier scoring),
//! * [`QueryStats`] counts the engine's work (queries begun, node reads,
//!   elements scored) alongside the insertion path's
//!   [`DescentStats`](crate::DescentStats),
//! * [`TreeView::query_batch`] refines many queries through **one reused
//!   cursor** — the frontier allocation is per-tree scratch, not per-query,
//! * every node a view exposes a cache slot for ([`TreeView::block_cache`])
//!   is scored from its cached gather when the slot is filled, and fills
//!   the slot after gathering when it is empty.  Every write to a node
//!   empties its slot ([`crate::arena`]), so the engine trusts a filled
//!   slot without any check — live tree, snapshot, or a live tree read
//!   between two cursor steps of a batch alike.
//!
//! ## The monotonicity contract
//!
//! Every frontier element carries certain bounds `lower <= c <= upper` on
//! its fully refined contribution `c`.  [`QueryModel::summary_bounds`] must
//! guarantee **nesting**: the bounds of an entry's children (plus its split
//! -out hitchhiker buffer, if any) sum to an interval contained in the
//! entry's own.  Under that contract the cursor's global interval
//! [`QueryCursor::bounds`] can only tighten with every refinement — more
//! budget never worsens the bound — which is what makes the interval an
//! *anytime answer*: interrupt whenever, the reported uncertainty is honest
//! and non-increasing in budget.  Leaf items are exact (`lower == upper`),
//! so a fully refined cursor has zero uncertainty (up to unrefinable
//! buffered mass, whose interval is frozen).
//!
//! Whole queries are folds over a slice of views, in [`crate::shard`]: a
//! tree or snapshot passes its shards (one for a plain tree), a directly
//! driven [`AnytimeTree`] the one-view slice.
//! Insert-free workloads plug in there without touching the insertion
//! path: anytime **outlier scoring**
//! ([`crate::shard::outlier_score_over`]) needs only a `Summary` +
//! `QueryModel` — the score *is* the refinable density interval, and the
//! verdict against a threshold becomes certain as soon as the interval
//! clears it.

use crate::node::{Entry, Node, NodeId, NodeKind};
use crate::summary::Summary;
use crate::tree::AnytimeTree;
use bt_stats::{BlockCacheSlot, BlockScratch, GatheredBlock, ScoreLanes};
use std::cell::Cell;
use std::collections::BinaryHeap;

/// The complete score of one directory summary against a query point — what
/// the frontier needs to admit the summary as an element.
///
/// Produced per node by [`QueryModel::score_entries`]; the default
/// implementation fills it from the per-summary model methods, block-scoring
/// models fill it column-wise for all entries of a node at once.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SummaryScore {
    /// The summary's (possibly decayed) weight.
    pub weight: f64,
    /// Point estimate of the summary's contribution.
    pub contribution: f64,
    /// Certain lower bound on the fully refined contribution.
    pub lower: f64,
    /// Certain upper bound on the fully refined contribution.
    pub upper: f64,
    /// Geometric priority (squared distance from query to region).
    pub min_dist_sq: f64,
}

/// The query-side policy: how summaries and leaf items are scored against a
/// query point.
///
/// The shared engine owns frontier bookkeeping, refinement ordering and the
/// partial-answer fold; the model supplies what genuinely differs between
/// workloads.  Implementations must be cheap to construct (one is typically
/// built per query or per shard) and must use the *same global normaliser*
/// across the shards of a sharded tree so that per-shard partial answers fold
/// by plain summation.
pub trait QueryModel<S: Summary> {
    /// What the tree's leaves store.
    type LeafItem;

    /// Point estimate of the contribution a directory summary makes to the
    /// query answer (e.g. `weight/n * gaussian(summary).pdf(query)`).
    fn summary_contribution(&self, query: &[f64], summary: &S) -> f64;

    /// Certain bounds `(lower, upper)` on the summary's *fully refined*
    /// contribution.  Contract: the bounds of the summary's children (plus
    /// its split-out buffer) must sum to an interval nested inside this one
    /// — that nesting is what makes refinement monotone.
    fn summary_bounds(&self, query: &[f64], summary: &S) -> (f64, f64);

    /// Geometric priority of a summary: squared distance from the query to
    /// the summary's region (used by [`RefineOrder::ClosestFirst`]).
    fn summary_sq_dist(&self, query: &[f64], summary: &S) -> f64 {
        summary.sq_dist_to(query)
    }

    /// Exact contribution of one leaf item (its bounds collapse to a point).
    fn leaf_contribution(&self, query: &[f64], item: &Self::LeafItem) -> f64;

    /// Geometric priority of a leaf item.
    fn leaf_sq_dist(&self, query: &[f64], item: &Self::LeafItem) -> f64;

    /// Weight of one leaf item (`1.0` for raw points).
    fn leaf_weight(&self, _item: &Self::LeafItem) -> f64 {
        1.0
    }

    /// The summary describing a whole (non-empty) leaf node — used to seed
    /// the frontier when the root itself is a leaf.
    fn summarize_leaf_items(&self, items: &[Self::LeafItem]) -> S;

    /// Gathers one directory node's entries into `out`'s columns and returns
    /// `true`; a model with no block representation returns `false` (the
    /// default) and is scored through the per-summary scalar loop.
    ///
    /// The gather must be a pure function of `entries`: the engine caches
    /// the result in the node's block-cache slot (emptied by every write to
    /// the node) and replays it through [`QueryModel::score_gathered`] on
    /// later visits.
    fn gather_entries(&self, entries: &[Entry<S>], out: &mut GatheredBlock) -> bool {
        let _ = (entries, out);
        false
    }

    /// Scores one directory node from its gathered columns, filling `out`
    /// with one [`SummaryScore`] per entry (in entry order; `out` is cleared
    /// first).  `entries` is the same slice the gather saw, for per-entry
    /// fallbacks the columns cannot express.
    ///
    /// Must produce exactly the scores [`QueryModel::score_entries`] would:
    /// the gather/score split exists so the gather can be cached, not so the
    /// arithmetic can change.
    fn score_gathered(
        &self,
        query: &[f64],
        entries: &[Entry<S>],
        gathered: &GatheredBlock,
        lanes: &mut ScoreLanes,
        out: &mut Vec<SummaryScore>,
    ) {
        let _ = (query, entries, gathered, lanes);
        out.clear();
    }

    /// Scores every entry of one directory node against `query` in a single
    /// call, filling `out` with one [`SummaryScore`] per entry (in entry
    /// order; `out` is cleared first).
    ///
    /// The default composes [`QueryModel::gather_entries`] +
    /// [`QueryModel::score_gathered`] when the model gathers, and otherwise
    /// delegates to the per-summary methods — which stay the behavioural
    /// reference: a block path may only change *how* the scores are computed
    /// (structure-of-arrays batch kernels of `bt_stats::kernel`), never
    /// their values.
    fn score_entries(
        &self,
        query: &[f64],
        entries: &[Entry<S>],
        scratch: &mut BlockScratch,
        out: &mut Vec<SummaryScore>,
    ) {
        let BlockScratch { gathered, lanes } = scratch;
        if self.gather_entries(entries, gathered) {
            self.score_gathered(query, entries, gathered, lanes, out);
            return;
        }
        out.clear();
        out.reserve(entries.len());
        for entry in entries {
            let summary = &entry.summary;
            let contribution = self.summary_contribution(query, summary);
            let (lower, upper) = self.summary_bounds(query, summary);
            let min_dist_sq = self.summary_sq_dist(query, summary);
            out.push(SummaryScore {
                weight: summary.weight(),
                contribution,
                lower,
                upper,
                min_dist_sq,
            });
        }
    }

    /// Gathers one leaf node's items into `out`'s columns and returns
    /// `true`; a model with no leaf block representation returns `false`
    /// (the default) and leaves are scored item by item.  Cached per node
    /// like [`QueryModel::gather_entries`].
    fn gather_leaf_items(&self, items: &[Self::LeafItem], out: &mut GatheredBlock) -> bool {
        let _ = (items, out);
        false
    }

    /// Scores one leaf node from its gathered columns — the leaf
    /// counterpart of [`QueryModel::score_gathered`].  Leaf items are exact,
    /// so each score's bounds must collapse (`lower == upper ==
    /// contribution`).
    fn score_gathered_leaves(
        &self,
        query: &[f64],
        items: &[Self::LeafItem],
        gathered: &GatheredBlock,
        lanes: &mut ScoreLanes,
        out: &mut Vec<SummaryScore>,
    ) {
        let _ = (query, items, gathered, lanes);
        out.clear();
    }

    /// Scores every item of one leaf node against `query` in a single call,
    /// filling `out` with one [`SummaryScore`] per item (in item order;
    /// `out` is cleared first).
    ///
    /// The default composes [`QueryModel::gather_leaf_items`] +
    /// [`QueryModel::score_gathered_leaves`] when the model gathers leaves,
    /// and otherwise runs the per-item scalar loop — the behavioural
    /// reference a leaf block path must reproduce.
    fn score_leaf_items(
        &self,
        query: &[f64],
        items: &[Self::LeafItem],
        scratch: &mut BlockScratch,
        out: &mut Vec<SummaryScore>,
    ) {
        let BlockScratch { gathered, lanes } = scratch;
        if self.gather_leaf_items(items, gathered) {
            self.score_gathered_leaves(query, items, gathered, lanes, out);
            return;
        }
        out.clear();
        out.reserve(items.len());
        for item in items {
            let contribution = self.leaf_contribution(query, item);
            out.push(SummaryScore {
                weight: self.leaf_weight(item),
                contribution,
                lower: contribution,
                upper: contribution,
                min_dist_sq: self.leaf_sq_dist(query, item),
            });
        }
    }
}

/// Which frontier element to refine next.
///
/// These are the orderings the paper's Section 2.2 evaluates on the query
/// side (hoisted out of the Bayes tree so they exist exactly once), plus the
/// bound-driven order used by outlier scoring.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RefineOrder {
    /// Refine elements level by level in arrival order (`bft`).
    BreadthFirst,
    /// Refine the most recently produced refinable element first (`dft`).
    DepthFirst,
    /// Refine the element geometrically closest to the query (`glo-geo`).
    ClosestFirst,
    /// Refine the element with the largest contribution (`glo`, the paper's
    /// best-performing probabilistic measure).
    #[default]
    BestFirst,
    /// Refine the element with the widest `[lower, upper]` bound interval —
    /// the greedy choice for shrinking the answer's uncertainty, used by
    /// anytime outlier scoring.
    WidestBound,
}

/// Where a frontier element came from, so instantiations can map elements
/// back to tree payloads (e.g. k-NN retrieval returning the micro-clusters
/// behind the closest elements).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ElementOrigin {
    /// The element is entry `index` of directory node `node`.
    Entry {
        /// Directory node holding the entry.
        node: NodeId,
        /// Index of the entry within the node.
        index: usize,
    },
    /// The element is the hitchhiker buffer of entry `index` of node `node`,
    /// split out when that entry was refined (unrefinable: the buffered
    /// objects have not descended yet).
    Buffer {
        /// Directory node holding the entry.
        node: NodeId,
        /// Index of the entry within the node.
        index: usize,
    },
    /// The element is leaf item `index` of leaf node `node`.
    LeafItem {
        /// The leaf node.
        node: NodeId,
        /// Index of the item within the leaf.
        index: usize,
    },
    /// The synthetic element summarising a root that is itself a leaf.
    RootLeaf,
}

/// One element of a query frontier.
///
/// A frontier represents every leaf item of the tree exactly once; each
/// element contributes a point estimate and a certain `[lower, upper]`
/// interval to the cursor's partial answer.
#[derive(Debug, Clone)]
pub struct QueryElement {
    /// Where the element came from (entry / buffer / leaf item).
    pub origin: ElementOrigin,
    /// Child node this element refines into (`None` for exact leaf items
    /// and unrefinable buffers).
    pub child: Option<NodeId>,
    /// Number of objects represented by this element.
    pub weight: f64,
    /// Point estimate of this element's contribution to the answer.
    pub contribution: f64,
    /// Certain lower bound on the fully refined contribution.
    pub lower: f64,
    /// Certain upper bound on the fully refined contribution.
    pub upper: f64,
    /// Geometric priority: squared distance from the query to the element.
    pub min_dist_sq: f64,
    /// Depth of the element in the tree (root entries have depth 1).
    pub depth: usize,
    /// Monotone sequence number recording when the element joined the
    /// frontier (FIFO/LIFO tie-breaking).
    pub seq: u64,
}

impl QueryElement {
    /// Whether the element can still be refined.
    #[must_use]
    pub fn is_refinable(&self) -> bool {
        self.child.is_some()
    }
}

/// The query engine's work counters: one struct shared by the single-tree
/// and sharded query paths, merged with [`QueryStats::merge`] — the
/// query-side sibling of [`DescentStats`](crate::DescentStats).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Queries begun on a cursor.
    pub queries: u64,
    /// Refinement steps performed (one node read each).
    pub nodes_read: u64,
    /// Frontier elements scored against a query (entries, buffers and leaf
    /// items pushed onto a frontier).
    pub elements_scored: u64,
    /// Nodes whose columns were gathered into a block (a cache miss on the
    /// block path, or a model without a cache slot in reach).
    pub block_gathers: u64,
    /// Nodes scored straight from a cached block — gathers the cache made
    /// unnecessary.
    pub gathers_avoided: u64,
    /// Software prefetches issued for the upcoming frontier candidate's
    /// epoch-page slot (see [`TreeView::prefetch_node`]).
    pub prefetches: u64,
}

impl QueryStats {
    /// Folds another stats record into this one (used to aggregate per-shard
    /// and per-batch counters into one report).
    pub fn merge(&mut self, other: &QueryStats) {
        self.queries += other.queries;
        self.nodes_read += other.nodes_read;
        self.elements_scored += other.elements_scored;
        self.block_gathers += other.block_gathers;
        self.gathers_avoided += other.gathers_avoided;
        self.prefetches += other.prefetches;
    }

    /// The work performed since `earlier` was captured (element-wise
    /// saturating difference).
    #[must_use]
    pub fn delta_since(&self, earlier: &QueryStats) -> QueryStats {
        QueryStats {
            queries: self.queries.saturating_sub(earlier.queries),
            nodes_read: self.nodes_read.saturating_sub(earlier.nodes_read),
            elements_scored: self.elements_scored.saturating_sub(earlier.elements_scored),
            block_gathers: self.block_gathers.saturating_sub(earlier.block_gathers),
            gathers_avoided: self.gathers_avoided.saturating_sub(earlier.gathers_avoided),
            prefetches: self.prefetches.saturating_sub(earlier.prefetches),
        }
    }

    /// Fraction of block-scored node visits served from the cache
    /// (`0.0` when no block scoring happened at all).
    #[must_use]
    pub fn gather_hit_rate(&self) -> f64 {
        let total = self.block_gathers + self.gathers_avoided;
        if total == 0 {
            0.0
        } else {
            self.gathers_avoided as f64 / total as f64
        }
    }
}

impl std::fmt::Display for QueryStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "queries={} reads={} scored={} gathers={} cached={} prefetch={}",
            self.queries,
            self.nodes_read,
            self.elements_scored,
            self.block_gathers,
            self.gathers_avoided,
            self.prefetches
        )
    }
}

/// The answer of one (possibly interrupted) query: the current mixture
/// estimate with its certain bounds and the budget actually spent.
///
/// One type serves every view: one view's answer and a fold over several
/// ([`crate::shard::query_over`]) alike, with `nodes_read` summed over the
/// views.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct QueryAnswer {
    /// Point estimate of the answer under the current frontier.
    pub estimate: f64,
    /// Certain lower bound on the fully refined answer.
    pub lower: f64,
    /// Certain upper bound on the fully refined answer.
    pub upper: f64,
    /// Refinement steps (node reads) this answer cost.
    pub nodes_read: usize,
}

impl QueryAnswer {
    /// Width of the certain bound interval — the answer's honest remaining
    /// uncertainty, non-increasing in budget.
    #[must_use]
    pub fn uncertainty(&self) -> f64 {
        (self.upper - self.lower).max(0.0)
    }

    /// Classifies the answer against a density `threshold`: certain verdicts
    /// as soon as the bound interval clears the threshold.
    #[must_use]
    pub fn verdict(&self, threshold: f64) -> OutlierVerdict {
        if self.upper < threshold {
            OutlierVerdict::Outlier
        } else if self.lower > threshold {
            OutlierVerdict::Inlier
        } else {
            OutlierVerdict::Undecided
        }
    }
}

/// The (possibly still uncertain) outcome of an anytime outlier test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutlierVerdict {
    /// The density is certainly below the threshold: an outlier.
    Outlier,
    /// The density is certainly above the threshold: an inlier.
    Inlier,
    /// The bound interval still straddles the threshold.
    Undecided,
}

/// The result of one anytime outlier test: the refinable density interval
/// plus the verdict it supports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OutlierScore {
    /// The density estimate with its certain bounds.
    pub answer: QueryAnswer,
    /// The verdict the bounds support at the tested threshold.
    pub verdict: OutlierVerdict,
}

/// A Neumaier-compensated accumulator: every refinement subtracts a parent
/// contribution and adds its children's, and a single degenerate summary
/// (near-zero variance, astronomically peaked density) passing through a
/// plain `f64` sum would permanently shave low-order bits off the answer.
/// The compensation term keeps the running sums as accurate as re-summing
/// the frontier from scratch, at O(1) per update — as long as the sum does
/// not cancel.
///
/// **Cancellation.**  The compensation is itself a plain sum of rounding
/// errors of the size of the largest terms.  A small term added while a
/// large one is live lands in it, below its own rounding, and is lost when
/// the large terms leave again: fully refined, an exact density of
/// `1.1e-94` read as an upper bound of `0`, and an exact `0` as an
/// estimate of `-7.2e-43`.  So the accumulator
/// also tracks `peak`, the largest term taken out ([`Self::sub`]) since it
/// was last (re)built, and [`Self::cancelled`] reports a value that fell
/// more than [`CANCELLATION`] below it; the cursor then re-sums that total
/// from its frontier ([`QueryCursor::resum_cancelled`]).  Frontier terms
/// are never negative, so a term still in the sum is at most its value:
/// only terms taken out can leave the value far below them.
#[derive(Debug, Clone, Copy, Default)]
struct Accumulator {
    sum: f64,
    compensation: f64,
    peak: f64,
}

/// How far (relative to the largest term taken out) a running sum may fall
/// before the cursor re-sums it from the frontier: `2^-40`.  Above it the
/// compensated sum's error — at most a few `ε² · peak` per update, `ε =
/// 2^-53` — stays many orders of magnitude below `1e-12` of the value; at
/// or below it the value may be mostly rounding error.
const CANCELLATION: f64 = 1.0 / (1u64 << 40) as f64;

impl Accumulator {
    /// The compensated sum of `values`, built from scratch.
    fn over(values: impl Iterator<Item = f64>) -> Self {
        let mut acc = Self::default();
        values.for_each(|v| acc.add(v));
        acc
    }

    fn add(&mut self, value: f64) {
        let t = self.sum + value;
        if self.sum.abs() >= value.abs() {
            self.compensation += (self.sum - t) + value;
        } else {
            self.compensation += (value - t) + self.sum;
        }
        self.sum = t;
    }

    fn sub(&mut self, value: f64) {
        self.peak = self.peak.max(value.abs());
        self.add(-value);
    }

    fn value(&self) -> f64 {
        self.sum + self.compensation
    }

    /// Whether the value fell so far below the largest term taken out that
    /// the compensation may no longer hold it.
    fn cancelled(&self) -> bool {
        self.value().abs() < self.peak * CANCELLATION
    }
}

/// One entry of the cursor's lazy selection heap: the normalised priority
/// of a frontier element under the heap's active [`RefineOrder`], plus the
/// element's stable sequence number.
///
/// Priorities are pre-normalised at push time (min-orders negate, `-0.0`
/// collapses onto `+0.0` by adding `0.0`) so that one max-heap comparison —
/// `total_cmp` on `prio`, then the tie stamp — reproduces the reference
/// scan's selection *exactly*, tie-breaks included.
#[derive(Debug, Clone, Copy)]
struct HeapEntry {
    prio: f64,
    tie: u64,
    seq: u64,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}

impl Eq for HeapEntry {}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.prio
            .total_cmp(&other.prio)
            .then(self.tie.cmp(&other.tie))
    }
}

/// The complete state of one in-flight query: the frontier, the running
/// partial answer with its certain bounds, and the engine's work counters.
///
/// A cursor is plain per-query scratch — it borrows nothing, so one cursor
/// can be reused across many queries ([`QueryCursor::new`] once, then
/// [`TreeView::begin_query`] per query re-fills the same allocations) and
/// moved freely across threads by the sharded query path.
///
/// Selection runs on a **per-order lazy heap**: the heap is built for the
/// first order a refinement asks for, updated incrementally as elements
/// join the frontier, rebuilt only if the order changes mid-query, and
/// cleaned lazily (refined elements are discarded when they surface at the
/// top).  [`QueryCursor::peek_next_scan`] keeps the historical linear scan
/// as the executable specification — the heap is property-tested to pop the
/// identical element sequence for every order.
#[derive(Debug, Clone, Default)]
pub struct QueryCursor {
    query: Vec<f64>,
    elements: Vec<QueryElement>,
    estimate: Accumulator,
    lower: Accumulator,
    upper: Accumulator,
    nodes_read: usize,
    next_seq: u64,
    stats: QueryStats,
    /// Lazy selection heap for `heap_order` (empty until a refinement runs).
    heap: BinaryHeap<HeapEntry>,
    /// The order the heap is currently keyed by.
    heap_order: Option<RefineOrder>,
    /// Maps an element's `seq` to its current index in `elements`
    /// (`usize::MAX` once refined away) — heap entries stay valid across
    /// the frontier's `swap_remove`s.
    seq_index: Vec<usize>,
    /// Structure-of-arrays scratch reused by block-scoring models.
    block: BlockScratch,
    /// Per-node score outputs of [`QueryModel::score_entries`].
    scores: Vec<SummaryScore>,
}

impl QueryCursor {
    /// Creates an empty cursor (no frontier until a query begins).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The query point the cursor currently refines for.
    #[must_use]
    pub fn query(&self) -> &[f64] {
        &self.query
    }

    /// The current point estimate of the answer.
    #[must_use]
    pub fn estimate(&self) -> f64 {
        self.estimate.value()
    }

    /// The certain `(lower, upper)` bounds on the fully refined answer.
    #[must_use]
    pub fn bounds(&self) -> (f64, f64) {
        (self.lower.value(), self.upper.value())
    }

    /// Width of the certain bound interval (non-increasing in budget).
    #[must_use]
    pub fn uncertainty(&self) -> f64 {
        (self.upper.value() - self.lower.value()).max(0.0)
    }

    /// Number of refinement steps (node reads) spent on the current query.
    #[must_use]
    pub fn nodes_read(&self) -> usize {
        self.nodes_read
    }

    /// The current frontier elements.
    #[must_use]
    pub fn elements(&self) -> &[QueryElement] {
        &self.elements
    }

    /// Whether at least one element can still be refined.
    #[must_use]
    pub fn can_refine(&self) -> bool {
        self.elements.iter().any(QueryElement::is_refinable)
    }

    /// Total weight of the frontier (equals the number of stored objects —
    /// every leaf item is represented exactly once).
    #[must_use]
    pub fn total_weight(&self) -> f64 {
        self.elements.iter().map(|e| e.weight).sum()
    }

    /// The engine's work counters, accumulated across every query this
    /// cursor served.
    #[must_use]
    pub fn stats(&self) -> &QueryStats {
        &self.stats
    }

    /// The current answer as a standalone value.
    #[must_use]
    pub fn answer(&self) -> QueryAnswer {
        QueryAnswer {
            estimate: self.estimate.value(),
            lower: self.lower.value(),
            upper: self.upper.value(),
            nodes_read: self.nodes_read,
        }
    }

    /// Index of the element `order` would refine next, if any — the
    /// heap-backed selection the engine itself uses ([`Self::peek_next_scan`]
    /// is the read-only reference scan).
    #[must_use]
    pub fn peek_next(&mut self, order: RefineOrder) -> Option<usize> {
        self.select(order)
    }

    /// Index of the element `order` would refine next, by the reference
    /// linear scan over the frontier.
    ///
    /// This is the executable specification of the orderings (tie-breaking
    /// included: FIFO for the minimising orders, earliest-joined-wins for
    /// the maximising ones), deliberately matching the historical Bayes-tree
    /// frontier step for step.  The engine's hot path is the per-order lazy
    /// heap ([`Self::peek_next`]); `tests/query_equivalence.rs` locks the
    /// two onto the same selection sequence for every order.
    #[must_use]
    pub fn peek_next_scan(&self, order: RefineOrder) -> Option<usize> {
        self.select_scan(order)
    }

    fn reset(&mut self, query: &[f64]) {
        self.query.clear();
        self.query.extend_from_slice(query);
        self.elements.clear();
        self.estimate = Accumulator::default();
        self.lower = Accumulator::default();
        self.upper = Accumulator::default();
        self.nodes_read = 0;
        self.next_seq = 0;
        self.stats.queries += 1;
        self.heap.clear();
        self.heap_order = None;
        self.seq_index.clear();
    }

    /// The heap entry of `element` under `order`, normalised so that one
    /// max-heap comparison reproduces the scan's selection exactly: min
    /// orders negate the key, `+ 0.0` collapses a negated zero onto `+0.0`
    /// (the scan's `partial_cmp` treats `-0.0 == 0.0`), and the tie stamp
    /// is the sequence number (or its complement) so equal keys resolve
    /// exactly like the scan's explicit seq tie-breaks.  Keys are assumed
    /// non-NaN — every certain bound and contribution the models produce is
    /// finite or infinite, never NaN.
    fn heap_entry(order: RefineOrder, element: &QueryElement) -> HeapEntry {
        let (prio, tie) = match order {
            RefineOrder::BreadthFirst => (-(element.depth as f64), !element.seq),
            RefineOrder::DepthFirst => (element.depth as f64, element.seq),
            RefineOrder::ClosestFirst => (-element.min_dist_sq + 0.0, !element.seq),
            RefineOrder::BestFirst => (element.contribution + 0.0, !element.seq),
            RefineOrder::WidestBound => ((element.upper - element.lower) + 0.0, !element.seq),
        };
        HeapEntry {
            prio,
            tie,
            seq: element.seq,
        }
    }

    /// Bookkeeping after a push: record the new element's position and feed
    /// the active heap (only refinable elements ever need selecting).
    fn after_push(&mut self) {
        let idx = self.elements.len() - 1;
        debug_assert_eq!(self.elements[idx].seq as usize, self.seq_index.len());
        self.seq_index.push(idx);
        if let Some(order) = self.heap_order {
            let element = &self.elements[idx];
            if element.is_refinable() {
                self.heap.push(Self::heap_entry(order, element));
            }
        }
    }

    /// Removes element `idx` from the frontier (subtracting its partial
    /// contribution) while keeping the seq→index map consistent across the
    /// `swap_remove`.  The heap is cleaned lazily: the removed element's
    /// entry is discarded when it next surfaces at the top.
    fn remove_element(&mut self, idx: usize) -> QueryElement {
        let element = self.elements.swap_remove(idx);
        self.seq_index[element.seq as usize] = usize::MAX;
        if let Some(moved) = self.elements.get(idx) {
            self.seq_index[moved.seq as usize] = idx;
        }
        self.estimate.sub(element.contribution);
        self.lower.sub(element.lower);
        self.upper.sub(element.upper);
        element
    }

    /// Heap-backed selection: (re)key the lazy heap if the order changed,
    /// then pop stale entries until a live refinable element surfaces.
    fn select(&mut self, order: RefineOrder) -> Option<usize> {
        if self.heap_order != Some(order) {
            self.heap.clear();
            self.heap_order = Some(order);
            for element in self.elements.iter().filter(|e| e.is_refinable()) {
                self.heap.push(Self::heap_entry(order, element));
            }
        }
        while let Some(top) = self.heap.peek() {
            let idx = self.seq_index[top.seq as usize];
            if idx != usize::MAX {
                debug_assert_eq!(self.elements[idx].seq, top.seq);
                debug_assert!(self.elements[idx].is_refinable());
                return Some(idx);
            }
            self.heap.pop();
        }
        None
    }

    /// The child node the next refinement in `order` would read, if any —
    /// the prefetch target of [`TreeView::refine_query`].  Peeking reuses
    /// (and warms) the selection heap, so it does not disturb the order and
    /// the following `select` call finds its work done.
    pub fn next_refinable_child(&mut self, order: RefineOrder) -> Option<NodeId> {
        let idx = self.select(order)?;
        self.elements[idx].child
    }

    fn select_scan(&self, order: RefineOrder) -> Option<usize> {
        let refinable = self
            .elements
            .iter()
            .enumerate()
            .filter(|(_, e)| e.is_refinable());
        match order {
            RefineOrder::BreadthFirst => refinable
                .min_by(|(_, a), (_, b)| a.depth.cmp(&b.depth).then(a.seq.cmp(&b.seq)))
                .map(|(i, _)| i),
            RefineOrder::DepthFirst => refinable
                .max_by(|(_, a), (_, b)| a.depth.cmp(&b.depth).then(a.seq.cmp(&b.seq)))
                .map(|(i, _)| i),
            RefineOrder::ClosestFirst => refinable
                .min_by(|(_, a), (_, b)| {
                    a.min_dist_sq
                        .partial_cmp(&b.min_dist_sq)
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(a.seq.cmp(&b.seq))
                })
                .map(|(i, _)| i),
            RefineOrder::BestFirst => refinable
                .max_by(|(_, a), (_, b)| {
                    a.contribution
                        .partial_cmp(&b.contribution)
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(b.seq.cmp(&a.seq))
                })
                .map(|(i, _)| i),
            RefineOrder::WidestBound => refinable
                .max_by(|(_, a), (_, b)| {
                    (a.upper - a.lower)
                        .partial_cmp(&(b.upper - b.lower))
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(b.seq.cmp(&a.seq))
                })
                .map(|(i, _)| i),
        }
    }

    /// Re-sums from the frontier every running total that cancelled (see
    /// [`Accumulator`]), each on its own: a total that did not cancel keeps
    /// its bits.  [`TreeView::refine_query`] calls this after every step.
    fn resum_cancelled(&mut self) {
        if self.estimate.cancelled() {
            self.estimate = Accumulator::over(self.elements.iter().map(|e| e.contribution));
        }
        if self.lower.cancelled() {
            self.lower = Accumulator::over(self.elements.iter().map(|e| e.lower));
        }
        if self.upper.cancelled() {
            self.upper = Accumulator::over(self.elements.iter().map(|e| e.upper));
        }
    }

    /// (Re)starts the cursor on `query` with a root frontier scored by the
    /// caller: one element per `(child, origin, score)`, admitted in order
    /// at depth 1.  Fed the scores [`TreeView::begin_query`] computes for
    /// `root`, in entry order (or the one [`ElementOrigin::RootLeaf`]
    /// element), this replays that call's admissions exactly — the same
    /// elements, sequence numbers and running sums — so refinement carries
    /// on as if `begin_query` had run.
    ///
    /// This is the entry point for callers that score many roots in one
    /// block pass (the per-class classifier).  The root read counts as one
    /// block-scored visit of `root`: a gather when `gathered` (the caller
    /// gathered the root's columns for this query), otherwise a gather
    /// avoided.  An empty frontier counts nothing, as an empty root reads
    /// nothing.
    pub fn begin_scored(
        &mut self,
        query: &[f64],
        root: NodeId,
        gathered: bool,
        elements: impl IntoIterator<Item = (Option<NodeId>, ElementOrigin, SummaryScore)>,
    ) {
        self.reset(query);
        for (child, origin, score) in elements {
            self.push_scored(child, &score, origin, 1);
        }
        if self.elements.is_empty() {
            return;
        }
        if gathered {
            self.stats.block_gathers += 1;
        } else {
            self.stats.gathers_avoided += 1;
        }
        bt_obs::trace(|| bt_obs::TraceEvent::Gather {
            node: root as u64,
            cached: !gathered,
        });
    }

    /// The cursor's reusable per-entry output lanes, lent to callers that
    /// score outside the engine (take them with `std::mem::take` and put
    /// them back) so their scratch rides along with the pooled cursor.
    pub fn scratch_lanes(&mut self) -> &mut ScoreLanes {
        &mut self.block.lanes
    }

    fn push_summary<S, M>(
        &mut self,
        model: &M,
        child: Option<NodeId>,
        summary: &S,
        origin: ElementOrigin,
        depth: usize,
    ) where
        S: Summary,
        M: QueryModel<S>,
    {
        let contribution = model.summary_contribution(&self.query, summary);
        let (lower, upper) = model.summary_bounds(&self.query, summary);
        let min_dist_sq = model.summary_sq_dist(&self.query, summary);
        let score = SummaryScore {
            weight: summary.weight(),
            contribution,
            lower,
            upper,
            min_dist_sq,
        };
        self.push_scored(child, &score, origin, depth);
    }

    /// Admits one pre-scored summary to the frontier (the shared tail of
    /// [`Self::push_summary`] and the block scoring path).
    fn push_scored(
        &mut self,
        child: Option<NodeId>,
        score: &SummaryScore,
        origin: ElementOrigin,
        depth: usize,
    ) {
        let seq = self.bump_seq();
        self.elements.push(QueryElement {
            origin,
            child,
            weight: score.weight,
            contribution: score.contribution,
            lower: score.lower,
            upper: score.upper,
            min_dist_sq: score.min_dist_sq,
            depth,
            seq,
        });
        self.after_push();
        self.estimate.add(score.contribution);
        self.lower.add(score.lower);
        self.upper.add(score.upper);
        self.stats.elements_scored += 1;
    }

    /// Scores all entries of directory node `node` in one block-scoring
    /// call and admits them to the frontier — the entry point used by
    /// [`TreeView::begin_query`] and [`TreeView::refine_query`].  A filled
    /// cache slot skips the gather entirely.
    fn push_entries<S, M>(
        &mut self,
        model: &M,
        node: NodeId,
        entries: &[Entry<S>],
        cache: Option<&BlockCacheSlot>,
        depth: usize,
    ) where
        S: Summary,
        M: QueryModel<S>,
    {
        self.score_node_entries(model, node, entries, cache);
        debug_assert_eq!(self.scores.len(), entries.len());
        let scores = std::mem::take(&mut self.scores);
        for (index, (entry, score)) in entries.iter().zip(&scores).enumerate() {
            self.push_scored(
                Some(entry.child),
                score,
                ElementOrigin::Entry { node, index },
                depth,
            );
        }
        self.scores = scores;
    }

    /// Fills `self.scores` with one score per entry: the cached block if
    /// the node's slot holds one, else gather (filling the slot), else the
    /// scalar loop.
    fn score_node_entries<S, M>(
        &mut self,
        model: &M,
        node: NodeId,
        entries: &[Entry<S>],
        cache: Option<&BlockCacheSlot>,
    ) where
        S: Summary,
        M: QueryModel<S>,
    {
        if let Some(hit) = cache.and_then(BlockCacheSlot::get) {
            self.stats.gathers_avoided += 1;
            bt_obs::trace(|| bt_obs::TraceEvent::Gather {
                node: node as u64,
                cached: true,
            });
            model.score_gathered(
                &self.query,
                entries,
                hit,
                &mut self.block.lanes,
                &mut self.scores,
            );
            return;
        }
        let BlockScratch { gathered, lanes } = &mut self.block;
        if model.gather_entries(entries, gathered) {
            self.stats.block_gathers += 1;
            bt_obs::trace(|| bt_obs::TraceEvent::Gather {
                node: node as u64,
                cached: false,
            });
            model.score_gathered(&self.query, entries, gathered, lanes, &mut self.scores);
            if let Some(slot) = cache {
                slot.fill(Box::new(std::mem::take(gathered)));
            }
            return;
        }
        model.score_entries(&self.query, entries, &mut self.block, &mut self.scores);
    }

    /// Scores all items of leaf node `node` in one block-scoring call and
    /// admits them to the frontier (unrefinable, collapsed bounds) — the
    /// leaf counterpart of [`Self::push_entries`].
    fn push_leaf_items<S, M>(
        &mut self,
        model: &M,
        node: NodeId,
        items: &[M::LeafItem],
        cache: Option<&BlockCacheSlot>,
        depth: usize,
    ) where
        S: Summary,
        M: QueryModel<S>,
    {
        self.score_node_leaves(model, node, items, cache);
        debug_assert_eq!(self.scores.len(), items.len());
        let scores = std::mem::take(&mut self.scores);
        for (index, score) in scores.iter().enumerate() {
            self.push_scored(None, score, ElementOrigin::LeafItem { node, index }, depth);
        }
        self.scores = scores;
    }

    /// Leaf twin of [`Self::score_node_entries`], over the model's leaf
    /// gather/score hooks.
    fn score_node_leaves<S, M>(
        &mut self,
        model: &M,
        node: NodeId,
        items: &[M::LeafItem],
        cache: Option<&BlockCacheSlot>,
    ) where
        S: Summary,
        M: QueryModel<S>,
    {
        if let Some(hit) = cache.and_then(BlockCacheSlot::get) {
            self.stats.gathers_avoided += 1;
            bt_obs::trace(|| bt_obs::TraceEvent::Gather {
                node: node as u64,
                cached: true,
            });
            model.score_gathered_leaves(
                &self.query,
                items,
                hit,
                &mut self.block.lanes,
                &mut self.scores,
            );
            return;
        }
        let BlockScratch { gathered, lanes } = &mut self.block;
        if model.gather_leaf_items(items, gathered) {
            self.stats.block_gathers += 1;
            bt_obs::trace(|| bt_obs::TraceEvent::Gather {
                node: node as u64,
                cached: false,
            });
            model.score_gathered_leaves(&self.query, items, gathered, lanes, &mut self.scores);
            if let Some(slot) = cache {
                slot.fill(Box::new(std::mem::take(gathered)));
            }
            return;
        }
        model.score_leaf_items(&self.query, items, &mut self.block, &mut self.scores);
    }

    fn bump_seq(&mut self) -> u64 {
        let s = self.next_seq;
        self.next_seq += 1;
        s
    }
}

/// A read-only view of an anytime tree — the abstraction the query engine
/// runs on.
///
/// Two kinds of view exist: the **live tree** ([`AnytimeTree`] itself — a
/// zero-copy view of the current epoch, used when no batch is in flight)
/// and the **pinned snapshot** ([`crate::TreeSnapshot`] — an owned,
/// `Send + Sync`, point-in-time view that stays bit-stable while later
/// batches mutate the tree).  The trait's provided methods are the
/// per-view primitives ([`TreeView::begin_query`],
/// [`TreeView::refine_query`], [`TreeView::refine_query_up_to`],
/// [`TreeView::query_batch`]), so both views answer through literally the
/// same code.  Whole queries — one-shot, batched, outlier scoring, k-NN —
/// are folds over a slice of views in [`crate::shard`]; a single view
/// passes `std::slice::from_ref(view)`.
pub trait TreeView<S: Summary, L> {
    /// Dimensionality of the indexed data.
    fn dims(&self) -> usize;

    /// The arena index of the root node.
    fn root(&self) -> NodeId;

    /// Read access to a node.
    fn node(&self, id: NodeId) -> &Node<S, L>;

    /// Height of the tree (a single leaf root has height 1).
    fn height(&self) -> usize;

    /// The block-cache slot of node `id`, if this view exposes one.  A
    /// filled slot describes the node as this view sees it (every write to
    /// a node empties its slot), so the engine scores from it without a
    /// check and fills an empty one after gathering.  The default (`None`)
    /// disables caching: every block-scored visit gathers anew.
    fn block_cache(&self, id: NodeId) -> Option<&BlockCacheSlot> {
        let _ = id;
        None
    }

    /// Best-effort prefetch of node `id`'s backing memory — a pure hint the
    /// query engine uses to overlap the next frontier candidate's page load
    /// with scoring the current one.  The default is a no-op; arena- and
    /// spine-backed views forward to the epoch-page prefetch.
    fn prefetch_node(&self, id: NodeId) {
        let _ = id;
    }

    /// The ids of every node reachable from the root, in depth-first order.
    #[must_use]
    fn reachable(&self) -> Vec<NodeId> {
        let mut stack = vec![self.root()];
        let mut out = Vec::new();
        while let Some(id) = stack.pop() {
            out.push(id);
            if let NodeKind::Inner { entries } = &self.node(id).kind {
                for e in entries {
                    stack.push(e.child);
                }
            }
        }
        out
    }

    /// Number of nodes reachable from the root.
    #[must_use]
    fn num_nodes(&self) -> usize {
        self.reachable().len()
    }

    /// (Re)starts `cursor` on `query`: the frontier becomes the root's
    /// entries (or one synthetic element summarising a root that is itself a
    /// leaf), reusing the cursor's allocations.
    ///
    /// Reading the root is free — it is required to produce any model at all
    /// — so [`QueryCursor::nodes_read`] starts at 0 and counts refinement
    /// steps.
    ///
    /// # Panics
    ///
    /// Panics if the query has the wrong dimensionality.
    fn begin_query<M>(&self, model: &M, query: &[f64], cursor: &mut QueryCursor)
    where
        M: QueryModel<S, LeafItem = L>,
    {
        assert_eq!(query.len(), self.dims(), "query dimensionality mismatch");
        cursor.reset(query);
        let root = self.root();
        match &self.node(root).kind {
            NodeKind::Inner { entries } => {
                cursor.push_entries(model, root, entries, self.block_cache(root), 1);
            }
            NodeKind::Leaf { items } => {
                if !items.is_empty() {
                    let summary = model.summarize_leaf_items(items);
                    cursor.push_summary(model, Some(root), &summary, ElementOrigin::RootLeaf, 1);
                }
            }
        }
    }

    /// Starts a fresh cursor on `query`.  It allocates a whole cursor, so
    /// hot paths instead [`begin_query`](TreeView::begin_query) on a
    /// pooled cursor from [`with_scratch_cursors`], as the query fold and
    /// the classifier do.
    ///
    /// # Panics
    ///
    /// Panics if the query has the wrong dimensionality.
    #[must_use]
    fn new_query<M>(&self, model: &M, query: &[f64]) -> QueryCursor
    where
        M: QueryModel<S, LeafItem = L>,
    {
        let mut cursor = QueryCursor::new();
        self.begin_query(model, query, &mut cursor);
        cursor
    }

    /// Performs one refinement step (one node read) in the given order:
    /// replaces the selected frontier element by its children (splitting out
    /// the refined entry's hitchhiker buffer, whose mass its summary
    /// covered) and updates the partial answer and bounds.
    ///
    /// Returns `false` (and changes nothing) when no element is refinable.
    fn refine_query<M>(&self, model: &M, order: RefineOrder, cursor: &mut QueryCursor) -> bool
    where
        M: QueryModel<S, LeafItem = L>,
    {
        let Some(idx) = cursor.select(order) else {
            return false;
        };
        let element = cursor.remove_element(idx);
        // The refined entry's summary covered its own hitchhiker buffer;
        // the children below only cover descended mass, so the buffer is
        // split out as an unrefinable element of its own.
        if let ElementOrigin::Entry { node, index } = element.origin {
            if let Some(buffer) = &self.node(node).entries()[index].buffer {
                cursor.push_summary(
                    model,
                    None,
                    buffer,
                    ElementOrigin::Buffer { node, index },
                    element.depth,
                );
            }
        }
        let child = element.child.expect("selected element is refinable");
        let child_depth = element.depth + 1;
        match &self.node(child).kind {
            NodeKind::Inner { entries } => {
                cursor.push_entries(model, child, entries, self.block_cache(child), child_depth);
            }
            NodeKind::Leaf { items } => {
                cursor.push_leaf_items(model, child, items, self.block_cache(child), child_depth);
            }
        }
        cursor.resum_cancelled();
        cursor.nodes_read += 1;
        cursor.stats.nodes_read += 1;
        // Overlap the next candidate's page load with the caller's work on
        // the scores just produced: peek the element the next refinement
        // step would select and prefetch its child's epoch-page slot.
        if let Some(next) = cursor.next_refinable_child(order) {
            self.prefetch_node(next);
            cursor.stats.prefetches += 1;
        }
        true
    }

    /// Refines until either `budget` node reads have been spent or nothing
    /// is refinable; returns the number of reads actually performed.
    fn refine_query_up_to<M>(
        &self,
        model: &M,
        order: RefineOrder,
        budget: usize,
        cursor: &mut QueryCursor,
    ) -> usize
    where
        M: QueryModel<S, LeafItem = L>,
    {
        let mut done = 0;
        while done < budget && self.refine_query(model, order, cursor) {
            done += 1;
        }
        done
    }

    /// Refines a batch of queries through **one reused cursor** (the
    /// frontier allocation is shared scratch), each up to `budget` node
    /// reads, and returns the per-query answers plus the batch's merged
    /// work counters.
    ///
    /// # Panics
    ///
    /// Panics if any query has the wrong dimensionality.
    #[must_use]
    fn query_batch<M>(
        &self,
        model: &M,
        queries: &[Vec<f64>],
        order: RefineOrder,
        budget: usize,
    ) -> (Vec<QueryAnswer>, QueryStats)
    where
        M: QueryModel<S, LeafItem = L>,
    {
        let mut recorder = crate::obs::QueryBatchRecorder::new();
        let mut cursor = QueryCursor::new();
        let mut answers = Vec::with_capacity(queries.len());
        for query in queries {
            self.begin_query(model, query, &mut cursor);
            self.refine_query_up_to(model, order, budget, &mut cursor);
            let answer = cursor.answer();
            recorder.record(&answer);
            answers.push(answer);
        }
        recorder.finish(cursor.stats());
        (answers, *cursor.stats())
    }
}

/// Runs `f` on `n` of this thread's pooled scratch [`QueryCursor`]s — the
/// cursors the query fold ([`crate::shard::refine_frontiers_over`],
/// [`crate::shard::outlier_score_over`]) and multi-frontier loops such as
/// the per-class anytime classifier run on, so each query reuses the
/// frontier, heap and block-scratch allocations of the previous one instead
/// of building fresh cursors.
///
/// The pool grows to the largest `n` this thread has asked for and keeps
/// those cursors for the thread's lifetime.  The cursors are plain
/// scratch: [`TreeView::begin_query`] resets every per-query field, so
/// answers are identical to fresh cursors'.  Their work counters keep
/// accumulating across queries, so a caller records
/// `stats().delta_since(..)` of its own work.  While `f` runs the pool is
/// taken: a nested call — or one during thread teardown — gets fresh
/// cursors instead.
pub fn with_scratch_cursors<R>(n: usize, f: impl FnOnce(&mut [QueryCursor]) -> R) -> R {
    thread_local! {
        static POOL: Cell<Vec<QueryCursor>> = const { Cell::new(Vec::new()) };
    }
    let mut pool = POOL.try_with(Cell::take).unwrap_or_default();
    if pool.len() < n {
        pool.resize_with(n, QueryCursor::new);
    }
    let result = f(&mut pool[..n]);
    let _ = POOL.try_with(|slot| slot.set(pool));
    result
}

impl<S: Summary, L> TreeView<S, L> for AnytimeTree<S, L> {
    fn dims(&self) -> usize {
        AnytimeTree::dims(self)
    }

    fn root(&self) -> NodeId {
        AnytimeTree::root(self)
    }

    fn node(&self, id: NodeId) -> &Node<S, L> {
        AnytimeTree::node(self, id)
    }

    fn height(&self) -> usize {
        AnytimeTree::height(self)
    }

    fn block_cache(&self, id: NodeId) -> Option<&BlockCacheSlot> {
        Some(self.arena().cache_slot(id))
    }

    fn prefetch_node(&self, id: NodeId) {
        self.arena().prefetch(id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::InsertModel;
    use crate::shard::outlier_score_over;
    use bt_index::PageGeometry;

    /// A minimal distance-routed payload: (weight, component sums) — same
    /// shape as the descent-engine tests' Blob.
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

    struct BlobModel;

    impl InsertModel<Blob> for BlobModel {
        type Object = Blob;
        type LeafItem = Blob;
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
        fn summarize_leaf_items(&self, items: &[Blob]) -> Blob {
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
            let centers: Vec<Vec<f64>> = items.iter().map(Summary::center).collect();
            let (a, b) = crate::split::polar_partition(&centers, geometry.max_leaf);
            crate::split::distribute(items, &a, &b)
        }
    }

    /// A toy density model: contribution `w * exp(-d²)` of each element's
    /// centre, Jensen-free bounds `(0, w)` for summaries, exact at leaves.
    struct BlobQueryModel;

    impl QueryModel<Blob> for BlobQueryModel {
        type LeafItem = Blob;
        fn summary_contribution(&self, query: &[f64], summary: &Blob) -> f64 {
            summary.weight * (-summary.sq_dist_to(query)).exp()
        }
        fn summary_bounds(&self, _query: &[f64], summary: &Blob) -> (f64, f64) {
            (0.0, summary.weight)
        }
        fn leaf_contribution(&self, query: &[f64], item: &Blob) -> f64 {
            self.summary_contribution(query, item)
        }
        fn leaf_sq_dist(&self, query: &[f64], item: &Blob) -> f64 {
            item.sq_dist_to(query)
        }
        fn leaf_weight(&self, item: &Blob) -> f64 {
            item.weight
        }
        fn summarize_leaf_items(&self, items: &[Blob]) -> Blob {
            let mut s = items[0].clone();
            for i in &items[1..] {
                s.merge(i, ());
            }
            s
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

    fn sample_tree(n: usize, budget: usize) -> AnytimeTree<Blob, Blob> {
        let mut tree = AnytimeTree::new(2, geometry());
        let mut model = BlobModel;
        for i in 0..n {
            let c = if i % 2 == 0 { 0.0 } else { 20.0 };
            tree.insert(
                &mut model,
                blob(c + (i % 5) as f64 * 0.1, c + (i % 7) as f64 * 0.1),
                budget,
            );
        }
        tree
    }

    #[test]
    fn initial_frontier_covers_all_mass() {
        let tree = sample_tree(80, usize::MAX);
        let cursor = tree.new_query(&BlobQueryModel, &[0.0, 0.0]);
        assert!((cursor.total_weight() - 80.0).abs() < 1e-9);
        assert_eq!(cursor.nodes_read(), 0);
        assert!(cursor.can_refine());
    }

    #[test]
    fn refinement_conserves_weight_for_every_order() {
        for order in [
            RefineOrder::BreadthFirst,
            RefineOrder::DepthFirst,
            RefineOrder::ClosestFirst,
            RefineOrder::BestFirst,
            RefineOrder::WidestBound,
        ] {
            let tree = sample_tree(120, usize::MAX);
            let mut cursor = tree.new_query(&BlobQueryModel, &[1.0, 1.0]);
            while tree.refine_query(&BlobQueryModel, order, &mut cursor) {
                assert!(
                    (cursor.total_weight() - 120.0).abs() < 1e-9,
                    "{order:?}: weight drifted"
                );
            }
            assert!(!cursor.can_refine());
        }
    }

    #[test]
    fn parked_mass_surfaces_as_buffer_elements() {
        // Build with a finite budget so hitchhiker buffers hold mass, then
        // check the fully refined frontier still covers everything.
        let tree = sample_tree(150, 1);
        let mut cursor = tree.new_query(&BlobQueryModel, &[0.5, 0.5]);
        while tree.refine_query(&BlobQueryModel, RefineOrder::BreadthFirst, &mut cursor) {}
        assert!((cursor.total_weight() - 150.0).abs() < 1e-9);
        let buffered: f64 = cursor
            .elements()
            .iter()
            .filter(|e| matches!(e.origin, ElementOrigin::Buffer { .. }))
            .map(|e| e.weight)
            .sum();
        assert!(buffered > 0.0, "budget-1 inserts should have parked mass");
    }

    #[test]
    fn bounds_are_monotone_under_refinement() {
        let tree = sample_tree(200, usize::MAX);
        let mut cursor = tree.new_query(&BlobQueryModel, &[0.3, 0.2]);
        let mut last = cursor.uncertainty();
        let (mut last_lower, mut last_upper) = cursor.bounds();
        while tree.refine_query(&BlobQueryModel, RefineOrder::WidestBound, &mut cursor) {
            let (lower, upper) = cursor.bounds();
            assert!(lower >= last_lower - 1e-9, "lower bound regressed");
            assert!(upper <= last_upper + 1e-9, "upper bound regressed");
            assert!(cursor.uncertainty() <= last + 1e-9);
            last = cursor.uncertainty();
            last_lower = lower;
            last_upper = upper;
        }
        // Fully refined with nothing buffered: bounds collapse onto the
        // exact answer.
        assert!(cursor.uncertainty() < 1e-9);
        assert!((cursor.estimate() - cursor.bounds().0).abs() < 1e-9);
    }

    #[test]
    fn query_batch_reuses_one_cursor_and_counts_work() {
        let tree = sample_tree(100, usize::MAX);
        let queries = vec![vec![0.0, 0.0], vec![20.0, 20.0], vec![10.0, 10.0]];
        let (answers, stats) =
            tree.query_batch(&BlobQueryModel, &queries, RefineOrder::BestFirst, 4);
        assert_eq!(answers.len(), 3);
        assert_eq!(stats.queries, 3);
        assert_eq!(
            stats.nodes_read,
            answers.iter().map(|a| a.nodes_read as u64).sum::<u64>()
        );
        for a in &answers {
            assert!(a.lower <= a.estimate + 1e-9 && a.estimate <= a.upper + 1e-9);
        }
    }

    #[test]
    fn refinement_prefetches_the_next_candidate() {
        let tree = sample_tree(100, usize::MAX);
        let (_, stats) = tree.query_batch(
            &BlobQueryModel,
            &[vec![0.0, 0.0], vec![20.0, 20.0]],
            RefineOrder::BestFirst,
            6,
        );
        // Every refinement with a refinable successor prefetches it; only
        // the final step of an exhausted frontier has none, so the count
        // tracks nodes_read (never exceeding it).
        assert!(stats.prefetches > 0);
        assert!(stats.prefetches <= stats.nodes_read);
    }

    #[test]
    fn root_leaf_tree_exposes_one_synthetic_element() {
        let mut tree = AnytimeTree::new(2, geometry());
        let mut model = BlobModel;
        tree.insert(&mut model, blob(1.0, 1.0), usize::MAX);
        tree.insert(&mut model, blob(2.0, 2.0), usize::MAX);
        assert_eq!(tree.height(), 1);
        let mut cursor = tree.new_query(&BlobQueryModel, &[1.0, 1.0]);
        assert_eq!(cursor.elements().len(), 1);
        assert!(matches!(
            cursor.elements()[0].origin,
            ElementOrigin::RootLeaf
        ));
        assert!(tree.refine_query(&BlobQueryModel, RefineOrder::BestFirst, &mut cursor));
        assert_eq!(cursor.elements().len(), 2);
        assert!(!cursor.can_refine());
    }

    #[test]
    fn empty_tree_has_an_empty_frontier() {
        let tree: AnytimeTree<Blob, Blob> = AnytimeTree::new(2, geometry());
        let mut cursor = tree.new_query(&BlobQueryModel, &[0.0, 0.0]);
        assert!(cursor.elements().is_empty());
        assert!(!tree.refine_query(&BlobQueryModel, RefineOrder::BestFirst, &mut cursor));
        assert_eq!(cursor.estimate(), 0.0);
    }

    #[test]
    fn outlier_scoring_decides_with_few_reads() {
        let tree = sample_tree(200, usize::MAX);
        // A point far from both clusters: certainly an outlier at any
        // reasonable threshold.
        let views = std::slice::from_ref(&tree);
        let far = outlier_score_over(views, &BlobQueryModel, &[400.0, -400.0], 1e-3, 1_000);
        assert_eq!(far.verdict, OutlierVerdict::Outlier);
        // A point in the middle of the dense cluster: certainly an inlier.
        let near = outlier_score_over(views, &BlobQueryModel, &[0.2, 0.2], 1e-3, 1_000);
        assert_eq!(near.verdict, OutlierVerdict::Inlier);
        // The outlier decision needed fewer reads than exhausting the tree.
        assert!(far.answer.nodes_read < tree.num_nodes());
    }

    #[test]
    fn query_stats_display_is_compact() {
        let stats = QueryStats {
            queries: 2,
            nodes_read: 17,
            elements_scored: 64,
            block_gathers: 5,
            gathers_avoided: 12,
            prefetches: 9,
        };
        assert_eq!(
            stats.to_string(),
            "queries=2 reads=17 scored=64 gathers=5 cached=12 prefetch=9"
        );
    }

    #[test]
    fn gather_hit_rate_handles_the_empty_case() {
        assert_eq!(QueryStats::default().gather_hit_rate(), 0.0);
        let stats = QueryStats {
            block_gathers: 1,
            gathers_avoided: 3,
            ..QueryStats::default()
        };
        assert_eq!(stats.gather_hit_rate(), 0.75);
    }

    /// The scratch pool grows to the largest `n` asked for, hands the same
    /// cursors back on later calls (a call for one cursor gets its first),
    /// and gives a nested call fresh cursors.
    #[test]
    fn scratch_pool_grows_and_is_reused() {
        let tree = sample_tree(80, usize::MAX);
        std::thread::spawn(move || {
            let queries_of = |cursors: &[QueryCursor]| -> Vec<u64> {
                cursors.iter().map(|c| c.stats().queries).collect()
            };
            with_scratch_cursors(3, |cursors| {
                assert_eq!(queries_of(cursors), [0, 0, 0]);
                for (i, cursor) in cursors.iter_mut().enumerate() {
                    tree.begin_query(&BlobQueryModel, &[i as f64, 0.0], cursor);
                }
            });
            with_scratch_cursors(1, |cursors| {
                assert_eq!(queries_of(cursors), [1]);
                tree.begin_query(&BlobQueryModel, &[5.0, 5.0], &mut cursors[0]);
            });
            with_scratch_cursors(5, |cursors| {
                assert_eq!(queries_of(cursors), [2, 1, 1, 0, 0]);
                with_scratch_cursors(2, |nested| {
                    assert_eq!(queries_of(nested), [0, 0]);
                });
                with_scratch_cursors(1, |nested| assert_eq!(queries_of(nested), [0]));
            });
            with_scratch_cursors(2, |cursors| {
                assert_eq!(queries_of(cursors), [2, 1]);
            });
        })
        .join()
        .expect("pool thread");
    }
}
