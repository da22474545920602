//! The iterative, batched descent engine.
//!
//! The paper's anytime contract is that an insertion can stop at *any* node
//! of its root-to-leaf path and resume later.  The engine makes that contract
//! literal: a [`DescentCursor`] holds the complete state of one in-flight
//! insertion (current node, depth, remaining budget, the carried object with
//! any picked-up hitchhikers) and [`AnytimeTree::step_cursor`] advances it by
//! exactly one node.  There is no recursion anywhere on the insertion path,
//! so deep trees cost heap-free iteration instead of stack frames.
//!
//! On top of the cursor the engine adds **mini-batch insertion**
//! ([`AnytimeTree::insert_batch`]): a batch is bracketed by
//! [`AnytimeTree::begin_batch`] / [`AnytimeTree::finish_batch`], and within
//! one batch
//!
//! * every visited node's entry summaries (and hitchhiker buffers) are
//!   refreshed **once per batch** instead of once per object — objects
//!   sharing a path prefix share the refresh work (decay refreshes are
//!   idempotent at a fixed timestamp, so this is observably equivalent to
//!   refreshing per object),
//! * one per-tree scratch allocation serves every routing computation
//!   instead of a fresh `Vec` per insert.  Every directory is routed where
//!   it lies: one that lends its box columns ([`Directory::boxes`], the
//!   Bayes tree's) from those columns, any other by each entry row's
//!   [`Summary::sq_dist_to`] — nothing is gathered, and the node's
//!   block-cache slot, which belongs to readers, is never touched,
//! * splits and overflow handling are **deferred and resolved once per node**
//!   after the batch drains: `finish_batch` walks the dirty (visited)
//!   subtrees bottom-up, installs the replacement entries of split
//!   children, lets each written directory bring its derived state up to
//!   date ([`Directory::finish`]), repeatedly splits any node left over
//!   capacity and propagates the replacement entries upward (growing the
//!   root when the root itself splits).
//!
//! A batch of size 1 performs exactly the steps of the historical recursive
//! insertion, so `insert` is a thin wrapper over the engine.  The cursor is
//! also the planned concurrency unit for sharded trees: one cursor per shard
//! descends independently, and `finish_batch` is the single synchronisation
//! point where structural changes are applied.

use crate::model::InsertModel;
use crate::node::{Directory, LeafItems, Node, NodeId, NodeKind};
use crate::summary::Summary;
use crate::tree::{AnytimeTree, InsertOutcome};
use bt_index::rstar::choose_subtree_block;

/// The complete state of one in-flight insertion.
///
/// A cursor is created with [`DescentCursor::start`], advanced one node at a
/// time with [`AnytimeTree::step_cursor`] (or driven to completion with
/// [`AnytimeTree::drive_cursor`]), and is finished once it has delivered its
/// object to a leaf or parked it in a hitchhiker buffer.
#[derive(Debug)]
pub struct DescentCursor<O> {
    node: NodeId,
    depth: usize,
    budget: usize,
    obj: Option<O>,
    outcome: Option<InsertOutcome>,
}

impl<O> DescentCursor<O> {
    /// Starts a cursor at `tree`'s root, carrying `obj` with `budget`
    /// descent steps of time.
    #[must_use]
    pub fn start<S: Summary, L>(tree: &AnytimeTree<S, L>, obj: O, budget: usize) -> Self {
        Self {
            node: tree.root(),
            depth: 1,
            budget,
            obj: Some(obj),
            outcome: None,
        }
    }

    /// The node the cursor currently rests on.
    #[must_use]
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Depth of the current node (1 = root).
    #[must_use]
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// The insertion's outcome, once the cursor has finished.
    #[must_use]
    pub fn outcome(&self) -> Option<InsertOutcome> {
        self.outcome
    }

    /// Whether the cursor has delivered (or parked) its object.
    #[must_use]
    pub fn is_finished(&self) -> bool {
        self.outcome.is_some()
    }
}

/// What one [`AnytimeTree::step_cursor`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CursorStep {
    /// The cursor moved one level down and now rests on `node`.
    Descended {
        /// The node the cursor descended into.
        node: NodeId,
        /// Depth of that node (1 = root).
        depth: usize,
    },
    /// The cursor finished: the object reached a leaf or was parked.
    Finished(InsertOutcome),
}

/// Histogram of [`InsertOutcome`]s over a batch: how many objects reached
/// leaf level versus parked, and at which depths.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DepthHistogram {
    /// Number of objects that reached leaf level.
    pub reached_leaf: usize,
    /// `parked_at_depth[d]` counts the objects parked at depth `d`
    /// (index 0 is unused: parking depths start at 1).
    pub parked_at_depth: Vec<usize>,
}

impl DepthHistogram {
    /// Records one outcome.
    pub fn record(&mut self, outcome: InsertOutcome) {
        match outcome {
            InsertOutcome::ReachedLeaf => self.reached_leaf += 1,
            InsertOutcome::Parked { depth } => {
                if self.parked_at_depth.len() <= depth {
                    self.parked_at_depth.resize(depth + 1, 0);
                }
                self.parked_at_depth[depth] += 1;
            }
        }
    }

    /// Total number of parked objects.
    #[must_use]
    pub fn parked_total(&self) -> usize {
        self.parked_at_depth.iter().sum()
    }

    /// Total number of recorded outcomes.
    #[must_use]
    pub fn total(&self) -> usize {
        self.reached_leaf + self.parked_total()
    }

    /// Mean parking depth, or `None` when nothing parked.
    #[must_use]
    pub fn mean_parked_depth(&self) -> Option<f64> {
        let parked = self.parked_total();
        if parked == 0 {
            return None;
        }
        let weighted: usize = self
            .parked_at_depth
            .iter()
            .enumerate()
            .map(|(depth, count)| depth * count)
            .sum();
        Some(weighted as f64 / parked as f64)
    }

    /// Folds another histogram into this one.
    pub fn merge(&mut self, other: &DepthHistogram) {
        self.reached_leaf += other.reached_leaf;
        if self.parked_at_depth.len() < other.parked_at_depth.len() {
            self.parked_at_depth.resize(other.parked_at_depth.len(), 0);
        }
        for (acc, c) in self.parked_at_depth.iter_mut().zip(&other.parked_at_depth) {
            *acc += c;
        }
    }
}

/// The result of one [`AnytimeTree::insert_batch`] call.
#[derive(Debug, Clone)]
pub struct BatchOutcome {
    /// Per-object outcomes, in input order.
    pub outcomes: Vec<InsertOutcome>,
    /// Reached-leaf vs. parked-at-depth histogram over the batch.
    pub depths: DepthHistogram,
    /// Descent-engine work performed by this batch alone (refreshes, node
    /// visits, splits) — the delta of the tree's [`DescentStats`] counters.
    pub stats: DescentStats,
}

/// The descent engine's work counters: one struct shared by the single-tree
/// and the sharded insertion paths, merged shard-by-shard (or batch-by-batch)
/// with [`DescentStats::merge`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DescentStats {
    /// Payload-summary refresh operations (one per directory entry or leaf
    /// item brought up to date).  Batched insertion refreshes each visited
    /// node once per batch, so this grows strictly slower than under
    /// sequential insertion.
    pub summary_refreshes: u64,
    /// Cursor steps taken (one per node a descending object rests on).
    pub node_visits: u64,
    /// Node splits performed while resolving overflows.
    pub splits: u64,
    /// Batches opened with [`AnytimeTree::begin_batch`] (single-object
    /// inserts count as batches of one).
    pub batches: u64,
    /// Software prefetches issued for the routed child's node version, the
    /// reference-counted allocation the arena's slot points to (one per
    /// directory step that descends).
    pub prefetches: u64,
}

impl DescentStats {
    /// Folds another stats record into this one (used to aggregate per-shard
    /// and per-batch counters into one report).
    pub fn merge(&mut self, other: &DescentStats) {
        self.summary_refreshes += other.summary_refreshes;
        self.node_visits += other.node_visits;
        self.splits += other.splits;
        self.batches += other.batches;
        self.prefetches += other.prefetches;
    }

    /// The work performed since `earlier` was captured (element-wise
    /// saturating difference).
    #[must_use]
    pub fn delta_since(&self, earlier: &DescentStats) -> DescentStats {
        DescentStats {
            summary_refreshes: self
                .summary_refreshes
                .saturating_sub(earlier.summary_refreshes),
            node_visits: self.node_visits.saturating_sub(earlier.node_visits),
            splits: self.splits.saturating_sub(earlier.splits),
            batches: self.batches.saturating_sub(earlier.batches),
            prefetches: self.prefetches.saturating_sub(earlier.prefetches),
        }
    }
}

impl std::fmt::Display for DescentStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "refreshes={} visits={} splits={} batches={} prefetch={}",
            self.summary_refreshes, self.node_visits, self.splits, self.batches, self.prefetches
        )
    }
}

/// Reusable per-tree scratch state of the descent engine: the routing
/// buffers, the refresh / dirty stamps of the current batch and the repair
/// worklists.  Stamps are epoch-based so clearing a batch is a single
/// counter increment instead of a sweep.
#[derive(Debug, Clone)]
pub(crate) struct DescentScratch<S> {
    route: RouteScratch,
    refreshed: Vec<u64>,
    dirty: Vec<u64>,
    dirty_has_time: Vec<bool>,
    epoch: u64,
    in_batch: bool,
    dfs: Vec<NodeId>,
    order: Vec<NodeId>,
    pending: Vec<(NodeId, Vec<(S, NodeId)>)>,
}

impl<S> DescentScratch<S> {
    pub(crate) fn new() -> Self {
        Self {
            route: RouteScratch::default(),
            refreshed: Vec::new(),
            dirty: Vec::new(),
            dirty_has_time: Vec::new(),
            epoch: 0,
            in_batch: false,
            dfs: Vec::new(),
            order: Vec::new(),
            pending: Vec::new(),
        }
    }

    fn begin(&mut self, num_nodes: usize) {
        self.epoch += 1;
        self.in_batch = true;
        if self.refreshed.len() < num_nodes {
            self.refreshed.resize(num_nodes, 0);
            self.dirty.resize(num_nodes, 0);
            self.dirty_has_time.resize(num_nodes, false);
        }
    }

    /// Marks `id` refreshed for this batch; returns whether it was not yet.
    fn stamp_refreshed(&mut self, id: NodeId) -> bool {
        if self.refreshed[id] == self.epoch {
            return false;
        }
        self.refreshed[id] = self.epoch;
        true
    }

    /// Marks `id` as holding an insertion of this batch below it.
    fn mark_dirty(&mut self, id: NodeId, has_time: bool) {
        if self.dirty[id] != self.epoch {
            self.dirty[id] = self.epoch;
            self.dirty_has_time[id] = has_time;
        } else {
            self.dirty_has_time[id] |= has_time;
        }
    }

    fn is_dirty(&self, id: NodeId) -> bool {
        self.dirty.get(id).is_some_and(|&stamp| stamp == self.epoch)
    }

    fn dirty_had_time(&self, id: NodeId) -> bool {
        self.dirty_has_time.get(id).copied().unwrap_or(false)
    }

    fn in_batch(&self) -> bool {
        self.in_batch
    }
}

impl<S: Summary, L: LeafItems + Clone> AnytimeTree<S, L> {
    /// Opens a mini-batch: subsequent cursor steps refresh each visited
    /// node's summaries at most once, and structural repairs (splits,
    /// overflow fallbacks) are deferred until [`Self::finish_batch`].
    ///
    /// Every batch must be closed with `finish_batch` before the next one
    /// begins; [`Self::insert`] and [`Self::insert_batch`] bracket the
    /// engine for the common cases.
    ///
    /// Opening a batch also readies the arena's spares: node versions
    /// retired under pins that have since been released are recycled by
    /// this batch's copies ([`NodeArena::reclaim`](crate::NodeArena::reclaim)).
    pub fn begin_batch(&mut self) {
        self.stats_mut().batches += 1;
        self.arena_mut().reclaim();
        let num_nodes = self.arena_len();
        self.scratch_mut().begin(num_nodes);
    }

    /// Advances `cursor` by one node: refreshes the node's summaries (once
    /// per batch), routes and absorbs the carried object, and either
    /// descends, parks the object (buffered models out of budget), or
    /// delivers it to the leaf.  Calling it on a finished cursor is a no-op
    /// returning the recorded outcome.
    ///
    /// # Panics
    ///
    /// Panics if no batch is open — cursor stepping must be bracketed by
    /// [`Self::begin_batch`] / [`Self::finish_batch`] so that refresh
    /// stamping and deferred split repair stay sound.
    pub fn step_cursor<M>(
        &mut self,
        model: &mut M,
        cursor: &mut DescentCursor<M::Object>,
    ) -> CursorStep
    where
        M: InsertModel<S, Leaf = L>,
    {
        assert!(
            self.scratch().in_batch(),
            "step_cursor outside a begin_batch/finish_batch bracket"
        );
        if let Some(outcome) = cursor.outcome {
            return CursorStep::Finished(outcome);
        }
        self.stats_mut().node_visits += 1;
        let node_id = cursor.node;
        let ctx = model.ctx();

        // Refresh this node's payload once per batch.
        if self.scratch_mut().stamp_refreshed(node_id) {
            let refreshed = match &mut self.node_mut(node_id).kind {
                NodeKind::Leaf { items } => {
                    model.refresh_leaf_items(items);
                    items.len() as u64
                }
                NodeKind::Inner { entries } => {
                    entries.refresh(ctx);
                    entries.len() as u64
                }
            };
            self.stats_mut().summary_refreshes += refreshed;
        }

        let has_time = cursor.budget > 0;

        // Leaf: hand the object to the model's leaf policy.
        if self.node(node_id).is_leaf() {
            let obj = cursor
                .obj
                .take()
                .expect("unfinished cursor carries an object");
            model.insert_into_leaf(self.node_mut(node_id).items_mut(), obj);
            self.scratch_mut().mark_dirty(node_id, has_time);
            let outcome = InsertOutcome::ReachedLeaf;
            cursor.outcome = Some(outcome);
            return CursorStep::Finished(outcome);
        }

        // Directory node: route, absorb, then park or descend.
        let (arena, scratch) = self.arena_and_scratch_mut();
        let entries = arena.node_mut(node_id).entries_mut();
        let obj = cursor
            .obj
            .as_mut()
            .expect("unfinished cursor carries an object");
        let idx = route(entries, model, obj, &mut scratch.route);
        // The object ends up somewhere below this entry either way, so the
        // aggregate absorbs it now.
        model.absorb_into_entry(entries, idx, obj);

        if M::BUFFERED && !has_time {
            // Out of time: park the object in the hitchhiker buffer, moving
            // it into an empty one.
            let obj = cursor
                .obj
                .take()
                .expect("unfinished cursor carries an object");
            match entries.buffer_mut(idx) {
                Some(b) => model.absorb_into(b, &obj),
                slot @ None => *slot = Some(model.park(obj)),
            }
            let outcome = InsertOutcome::Parked {
                depth: cursor.depth,
            };
            cursor.outcome = Some(outcome);
            return CursorStep::Finished(outcome);
        }
        if M::BUFFERED {
            // Pick up waiting hitchhikers and carry them down.
            if let Some(buffer) = entries.buffer_mut(idx).take() {
                model.merge_buffer_into_object(obj, buffer);
            }
        }
        let child = entries.child(idx);
        // The next step reads the routed child: overlap loading its node
        // version with the cursor bookkeeping (and, under batched
        // insertion, with the interleaved steps of the other in-flight
        // cursors).
        arena.prefetch(child);
        scratch.mark_dirty(node_id, has_time);
        self.stats_mut().prefetches += 1;
        cursor.node = child;
        cursor.depth += 1;
        cursor.budget = cursor.budget.saturating_sub(model.step_cost());
        bt_obs::trace(|| bt_obs::TraceEvent::Descend {
            node: child as u64,
            depth: cursor.depth as u32,
        });
        CursorStep::Descended {
            node: child,
            depth: cursor.depth,
        }
    }

    /// Drives `cursor` until it finishes and returns the outcome.
    pub fn drive_cursor<M>(
        &mut self,
        model: &mut M,
        cursor: &mut DescentCursor<M::Object>,
    ) -> InsertOutcome
    where
        M: InsertModel<S, Leaf = L>,
    {
        loop {
            if let CursorStep::Finished(outcome) = self.step_cursor(model, cursor) {
                return outcome;
            }
        }
    }

    /// Closes the current batch: walks the visited subtrees bottom-up,
    /// installs the replacement entries of split children, finishes every
    /// written directory ([`Directory::finish`]), resolves every overflow
    /// once per node (splitting repeatedly until all parts fit, or applying
    /// the model's collapse fallback when splitting is not allowed),
    /// propagates replacement entries upward, and grows a new root when the
    /// root itself split.  Finally the batch's mutations
    /// are **published as a new root epoch**: later
    /// [`AnytimeTree::snapshot`]s pin the new epoch, while snapshots pinned
    /// before the batch keep reading the retired node versions untouched.
    pub fn finish_batch<M>(&mut self, model: &mut M)
    where
        M: InsertModel<S, Leaf = L>,
    {
        // Collect the dirty nodes in DFS pre-order; processing the list in
        // reverse visits children before parents without recursion.
        let mut dfs = std::mem::take(&mut self.scratch_mut().dfs);
        let mut order = std::mem::take(&mut self.scratch_mut().order);
        let mut pending = std::mem::take(&mut self.scratch_mut().pending);
        dfs.clear();
        order.clear();
        pending.clear();

        let root = self.root();
        if self.scratch().is_dirty(root) {
            dfs.push(root);
        }
        while let Some(id) = dfs.pop() {
            order.push(id);
            for child in self.node(id).children() {
                if self.scratch().is_dirty(child) {
                    dfs.push(child);
                }
            }
        }

        for &id in order.iter().rev() {
            let written = match &self.node(id).kind {
                NodeKind::Inner { entries } => !pending.is_empty() || !entries.is_finished(),
                NodeKind::Leaf { .. } => false,
            };
            if written {
                let ctx = model.ctx();
                let entries = self.node_mut(id).entries_mut();
                // Install the replacement entries of children that split:
                // the first part takes the split child's entry (and its
                // buffer), the others are appended.
                if !pending.is_empty() {
                    let mut appended: Vec<(S, NodeId)> = Vec::new();
                    for i in 0..entries.len() {
                        let child = entries.child(i);
                        let Some(pos) = pending.iter().position(|(c, _)| *c == child) else {
                            continue;
                        };
                        let (_, mut parts) = pending.swap_remove(pos);
                        let (summary, first) = parts.remove(0);
                        entries.replace(i, summary, first, ctx);
                        appended.extend(parts);
                    }
                    if !appended.is_empty() {
                        entries.extend_entries(appended);
                    }
                }
                entries.finish();
            }
            let has_time = self.scratch().dirty_had_time(id);
            if let Some(parts) = self.resolve_overflow(model, id, has_time) {
                pending.push((id, parts));
            }
        }

        // A split of the root grows the tree by one level.  A large batch
        // can shatter the root into more parts than one directory node
        // holds, so the fresh root resolves its own overflow, growing
        // further levels until it fits.
        if let Some(pos) = pending.iter().position(|(c, _)| *c == root) {
            let (_, mut parts) = pending.swap_remove(pos);
            loop {
                let new_root = self.push_node(Node::inner(S::Dir::from_entries(parts)));
                self.set_root(new_root, self.height() + 1);
                match self.resolve_overflow(model, new_root, true) {
                    Some(next) => parts = next,
                    None => break,
                }
            }
        }
        debug_assert!(pending.is_empty(), "every split was installed");

        let scratch = self.scratch_mut();
        scratch.dfs = dfs;
        scratch.order = order;
        scratch.pending = pending;
        scratch.in_batch = false;
        self.arena_mut().publish();
    }

    /// Inserts a mini-batch of objects, each with a budget of `budget`
    /// descent steps, sharing one summary refresh per visited node and one
    /// overflow resolution per node across the whole batch.
    ///
    /// Objects are routed in input order, so an object may pick up
    /// hitchhikers parked by an earlier object of the same batch — exactly
    /// as sequential insertion would.  A batch of size 1 is observably
    /// equivalent to [`Self::insert`].  An empty batch is a complete no-op
    /// (no batch is opened, no counters move) — the same rule sharded trees
    /// apply per shard, so the plain and sharded paths stay step-for-step
    /// comparable.
    pub fn insert_batch<M>(
        &mut self,
        model: &mut M,
        objs: Vec<M::Object>,
        budget: usize,
    ) -> BatchOutcome
    where
        M: InsertModel<S, Leaf = L>,
    {
        if objs.is_empty() {
            return BatchOutcome {
                outcomes: Vec::new(),
                depths: DepthHistogram::default(),
                stats: DescentStats::default(),
            };
        }
        let started = crate::obs::boundary_timer();
        let before = *self.stats();
        self.begin_batch();
        let mut outcomes = Vec::with_capacity(objs.len());
        let mut depths = DepthHistogram::default();
        for obj in objs {
            let mut cursor = DescentCursor::start(self, obj, budget);
            let outcome = self.drive_cursor(model, &mut cursor);
            depths.record(outcome);
            outcomes.push(outcome);
        }
        self.finish_batch(model);
        let stats = self.stats().delta_since(&before);
        crate::obs::record_insert_batch(&stats, &depths, started, self.height());
        BatchOutcome {
            outcomes,
            depths,
            stats,
        }
    }

    /// Brings an overfull node back within capacity.  Splitting nodes are
    /// split repeatedly until every part fits and the replacement entries
    /// are returned for the parent to install; nodes that may not split
    /// fall back to the model's collapse policy (leaves) or tolerate the
    /// bounded overflow (directory nodes) and return `None`.
    fn resolve_overflow<M>(
        &mut self,
        model: &M,
        node_id: NodeId,
        has_time: bool,
    ) -> Option<Vec<(S, NodeId)>>
    where
        M: InsertModel<S, Leaf = L>,
    {
        let is_leaf = self.node(node_id).is_leaf();
        let cap = if is_leaf {
            self.geometry().max_leaf
        } else {
            self.geometry().max_fanout
        };
        if self.node(node_id).len() <= cap {
            return None;
        }
        if !model.may_split(has_time) {
            if is_leaf {
                // One call brings the leaf back within capacity (models
                // whose collapse is a no-op keep the bounded overflow).
                model.collapse_leaf_items(self.node_mut(node_id).items_mut(), cap);
            }
            // Directory overflow without permission to split is tolerated:
            // it is bounded by the batch size and resolved by a later
            // insertion with time to spare.
            return None;
        }
        let mut parts = vec![node_id];
        let mut i = 0;
        while i < parts.len() {
            if self.node(parts[i]).len() > cap {
                let new_id = self.split_node(model, parts[i]);
                parts.push(new_id);
            } else {
                i += 1;
            }
        }
        Some(
            parts
                .into_iter()
                .map(|p| (self.summarize_node(model, p), p))
                .collect(),
        )
    }

    /// Splits one overfull node in place: half its payload stays, the other
    /// half moves to a fresh node whose id is returned.
    fn split_node<M>(&mut self, model: &M, node_id: NodeId) -> NodeId
    where
        M: InsertModel<S, Leaf = L>,
    {
        self.stats_mut().splits += 1;
        bt_obs::trace(|| bt_obs::TraceEvent::Split {
            node: node_id as u64,
        });
        if self.node(node_id).is_leaf() {
            let items = std::mem::take(self.node_mut(node_id).items_mut());
            let (first, second) = model.split_leaf_items(items, &self.geometry());
            *self.node_mut(node_id).items_mut() = first;
            self.push_node(Node::leaf(second))
        } else {
            let entries = std::mem::take(self.node_mut(node_id).entries_mut());
            let (first, second) = entries.split_in_two(&self.geometry(), self.dims());
            *self.node_mut(node_id).entries_mut() = first;
            self.push_node(Node::inner(second))
        }
    }
}

/// Reusable buffers of the routing path: the routing-point buffer and the
/// two per-entry lanes of the box chooser.
#[derive(Debug, Clone, Default)]
pub(crate) struct RouteScratch {
    point: Vec<f64>,
    lane_a: Vec<f64>,
    lane_b: Vec<f64>,
}

/// Chooses the entry the object descends into: by R* least enlargement for
/// a directory that lends its box columns, by closest summary otherwise.
///
/// Box routing scores every child in one vectorized pass over the
/// directory's own columns ([`choose_subtree_block`]), replicating the
/// per-entry arithmetic and tie-breaking of
/// `bt_index::rstar::choose_subtree_by` exactly.  Distance routing reads
/// each entry row's [`Summary::sq_dist_to`] where it lies: the first
/// minimal distance wins, and `NaN` never displaces the incumbent.
pub(crate) fn route<S, M>(
    entries: &S::Dir,
    model: &M,
    obj: &M::Object,
    scratch: &mut RouteScratch,
) -> usize
where
    S: Summary,
    M: InsertModel<S>,
{
    debug_assert!(!entries.is_empty(), "directory nodes are never empty");
    let len = entries.len();
    if len == 1 {
        return 0;
    }
    let point = model.route_point(obj, &mut scratch.point);
    if let Some((lower, upper)) = entries.boxes() {
        return choose_subtree_block(
            point,
            lower,
            upper,
            len,
            &mut scratch.lane_a,
            &mut scratch.lane_b,
        );
    }
    let mut best = (0, entries.summary(0).sq_dist_to(point));
    for i in 1..len {
        let d = entries.summary(i).sq_dist_to(point);
        if best.1 > d {
            best = (i, d);
        }
    }
    best.0
}
