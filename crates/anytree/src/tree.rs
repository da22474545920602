//! The arena tree and its budgeted insertion API.
//!
//! The descent algorithm itself — the iterative cursor engine, mini-batch
//! insertion and deferred split repair — lives in [`crate::descent`]; this
//! module owns the arena, the node/summary accessors and the single-object
//! [`AnytimeTree::insert`] convenience wrapper.

use crate::arena::{ArenaCensus, NodeArena};
use crate::descent::{DepthHistogram, DescentCursor, DescentScratch, DescentStats};
use crate::model::InsertModel;
use crate::node::{Directory, LeafItems, Node, NodeId, NodeKind};
use crate::snapshot::TreeSnapshot;
use crate::summary::Summary;
use bt_index::PageGeometry;

/// What happened to an inserted object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertOutcome {
    /// The object reached leaf level and was stored there.
    ReachedLeaf,
    /// The object ran out of budget and was parked in a hitchhiker buffer at
    /// the reported depth.
    Parked {
        /// Depth at which the object was parked (1 = directly below the
        /// root).
        depth: usize,
    },
}

/// The shared anytime index: a balanced arena tree whose directory entries
/// aggregate a payload [`Summary`] of their subtree.
///
/// Since PR 5 the node arena is **epoch-versioned** ([`crate::arena`]):
/// [`AnytimeTree::snapshot`] returns a cheap, immutable
/// [`TreeSnapshot`] that pins the current published epoch, and batched
/// mutation copies a node **only** when a pinned snapshot still references
/// it — reads and writes overlap without locks on the hot path.
#[derive(Debug, Clone)]
pub struct AnytimeTree<S: Summary, L> {
    dims: usize,
    geometry: PageGeometry,
    arena: NodeArena<S, L>,
    root: NodeId,
    height: usize,
    scratch: DescentScratch<S>,
    stats: DescentStats,
}

impl<S: Summary, L: LeafItems> AnytimeTree<S, L> {
    /// Creates an empty tree (a single empty leaf root) for
    /// `dims`-dimensional data.
    ///
    /// # Panics
    ///
    /// Panics if `dims == 0`.
    #[must_use]
    pub fn new(dims: usize, geometry: PageGeometry) -> Self {
        assert!(dims > 0, "dimensionality must be positive");
        Self {
            dims,
            geometry,
            arena: NodeArena::new(),
            root: 0,
            height: 1,
            scratch: DescentScratch::new(),
            stats: DescentStats::default(),
        }
    }
}

impl<S: Summary, L> AnytimeTree<S, L> {
    /// Dimensionality of the indexed data.
    #[must_use]
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Fanout / leaf-capacity parameters of the tree.
    #[must_use]
    pub fn geometry(&self) -> PageGeometry {
        self.geometry
    }

    /// The arena index of the root node.
    #[must_use]
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Height of the tree (a single leaf root has height 1).
    #[must_use]
    pub fn height(&self) -> usize {
        self.height
    }

    /// Read access to a node.
    #[must_use]
    pub fn node(&self, id: NodeId) -> &Node<S, L> {
        self.arena.node(id)
    }

    /// Adds a node to the arena and returns its id.
    pub fn push_node(&mut self, node: Node<S, L>) -> NodeId {
        self.arena.push(node)
    }

    /// Replaces the root node id and height (used by bulk loaders).
    pub fn set_root(&mut self, root: NodeId, height: usize) {
        self.root = root;
        self.height = height;
    }

    /// The published epoch: how many batches have been committed via
    /// `finish_batch` (single-object inserts count as batches of one).
    /// [`Self::snapshot`] pins this value.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.arena.epoch()
    }

    /// Publishes the current in-flight epoch *outside* the batch bracket —
    /// the commit point for construction paths that assemble the tree
    /// directly through [`Self::push_node`] / [`Self::set_root`] (the bulk
    /// loaders).  After the call every node stamped so far is covered by
    /// the published epoch, so snapshots of a freshly bulk-built tree
    /// satisfy the `node_version <= epoch` invariant just like
    /// incrementally built ones.
    pub fn publish_epoch(&mut self) {
        self.arena.publish();
    }

    /// The version stamp of a node: the epoch of the batch that last
    /// mutated it.
    #[must_use]
    pub fn node_version(&self, id: NodeId) -> u64 {
        self.arena.version(id)
    }

    /// Number of retired node copies created by copy-on-write so far.
    /// Stays zero as long as no snapshot — and no [`Clone`]d tree, which
    /// shares the arena slots the same way — overlaps a write: the
    /// no-sharer fast path mutates in place.
    #[must_use]
    pub fn retired_nodes(&self) -> u64 {
        self.arena.retired_nodes()
    }

    /// The arena's version census: node versions held, retired versions a
    /// pinned snapshot still reaches, and copy-on-write copies written into
    /// a recycled version so far ([`crate::arena`] has the reclamation
    /// rule).
    #[must_use]
    pub fn arena_census(&self) -> ArenaCensus {
        self.arena.census()
    }

    /// The oldest epoch still pinned by a live snapshot of this tree, if
    /// any.
    #[must_use]
    pub fn oldest_pinned_epoch(&self) -> Option<u64> {
        self.arena.registry().oldest_pinned()
    }

    /// Number of live snapshots currently pinning an epoch of this tree.
    #[must_use]
    pub fn pinned_snapshots(&self) -> usize {
        self.arena.registry().pinned_count()
    }

    /// Takes a cheap, immutable, point-in-time snapshot of the tree: the
    /// storage spine is captured (`O(chunks)` pointer copies, no
    /// node payload is touched) and the current published epoch is pinned
    /// in the shared [`EpochRegistry`](crate::EpochRegistry).
    ///
    /// The snapshot is `Send + Sync` (when the payloads are) and serves the
    /// full anytime query engine via [`TreeView`](crate::TreeView) while
    /// later batches keep mutating the tree — every write to a node the
    /// snapshot still references copies that node first, so the snapshot's
    /// answers are bit-identical to querying the tree at snapshot time.
    ///
    /// Taking a snapshot *between* batches captures the published tree;
    /// taking one mid-batch (between `begin_batch` and `finish_batch`)
    /// captures the partially applied batch — still a frozen, internally
    /// consistent view, just not a published epoch.
    #[must_use]
    pub fn snapshot(&self) -> TreeSnapshot<S, L> {
        TreeSnapshot::capture(
            self.arena.snapshot_spine(),
            self.root,
            self.height,
            self.dims,
            self.arena.epoch(),
            self.arena.registry().clone(),
        )
    }

    /// Number of payload-summary refresh operations performed by descents so
    /// far (one per directory entry or leaf item brought up to date).
    /// Batched insertion refreshes each visited node once per batch, so this
    /// counter grows strictly slower than under sequential insertion — the
    /// benches assert exactly that.
    #[must_use]
    pub fn summary_refreshes(&self) -> u64 {
        self.stats.summary_refreshes
    }

    /// The descent engine's work counters (refreshes, node visits, splits,
    /// batches) accumulated over the tree's lifetime.  Sharded trees merge
    /// these per shard via [`DescentStats::merge`].
    #[must_use]
    pub fn stats(&self) -> &DescentStats {
        &self.stats
    }

    pub(crate) fn stats_mut(&mut self) -> &mut DescentStats {
        &mut self.stats
    }

    pub(crate) fn arena_len(&self) -> usize {
        self.arena.len()
    }

    pub(crate) fn arena(&self) -> &NodeArena<S, L> {
        &self.arena
    }

    pub(crate) fn scratch(&self) -> &DescentScratch<S> {
        &self.scratch
    }

    pub(crate) fn scratch_mut(&mut self) -> &mut DescentScratch<S> {
        &mut self.scratch
    }

    pub(crate) fn arena_mut(&mut self) -> &mut NodeArena<S, L> {
        &mut self.arena
    }

    /// Split borrow of the node arena and the descent scratch, for the
    /// engine's routing step (which reads entries and writes the routing
    /// buffer at the same time).
    pub(crate) fn arena_and_scratch_mut(
        &mut self,
    ) -> (&mut NodeArena<S, L>, &mut DescentScratch<S>) {
        (&mut self.arena, &mut self.scratch)
    }

    /// The ids of every node reachable from the root, in depth-first order
    /// (the shared traversal lives once, in
    /// [`TreeView::reachable`](crate::TreeView::reachable)).
    #[must_use]
    pub fn reachable(&self) -> Vec<NodeId> {
        crate::query::TreeView::reachable(self)
    }

    /// Number of nodes reachable from the root (the arena may additionally
    /// hold nodes orphaned by bulk loading).
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        crate::query::TreeView::num_nodes(self)
    }

    /// Maximum leaf depth below `node` (a leaf has depth 1).
    #[must_use]
    pub fn measure_depth(&self, node: NodeId) -> usize {
        match &self.arena.node(node).kind {
            NodeKind::Leaf { .. } => 1,
            NodeKind::Inner { .. } => {
                1 + self
                    .arena
                    .node(node)
                    .children()
                    .map(|child| self.measure_depth(child))
                    .max()
                    .unwrap_or(0)
            }
        }
    }

    /// The summary describing any non-empty node `id` — what its parent
    /// entry holds: leaf nodes are summarised through the model's leaf
    /// policy, inner nodes by folding their entries
    /// ([`Directory::summarize`]).
    ///
    /// # Panics
    ///
    /// Panics if the node is empty.
    #[must_use]
    pub fn summarize_node<M>(&self, model: &M, id: NodeId) -> S
    where
        L: LeafItems,
        M: InsertModel<S, Leaf = L>,
    {
        match &self.arena.node(id).kind {
            NodeKind::Leaf { items } => {
                assert!(!items.is_empty(), "cannot summarise an empty leaf");
                model.summarize_leaf_items(items)
            }
            NodeKind::Inner { entries } => entries.summarize(model.ctx()),
        }
    }
}

impl<S: Summary, L: LeafItems + Clone> AnytimeTree<S, L> {
    /// Mutable access to a node — the arena's copy-on-write point: if a
    /// pinned snapshot still references the node it is cloned first (the
    /// snapshot keeps the retired copy), otherwise the write happens in
    /// place.  Requires `L: Clone` for exactly that copy.
    pub fn node_mut(&mut self, id: NodeId) -> &mut Node<S, L> {
        self.arena.node_mut(id)
    }

    /// Inserts one object with a budget of `budget` descent steps, driving
    /// the workload-specific decisions through `model`.
    ///
    /// A budget of 0 parks the object at root level immediately (for
    /// buffered models); unbuffered models ignore the budget.  Overflowing
    /// nodes split (when the model allows it) and splits propagate upward;
    /// a root split grows the tree by one level.
    ///
    /// This is a batch of one over the iterative engine in
    /// [`crate::descent`]; [`Self::insert_batch`](AnytimeTree::insert_batch)
    /// amortises summary refreshes and split handling over a mini-batch.
    pub fn insert<M>(&mut self, model: &mut M, obj: M::Object, budget: usize) -> InsertOutcome
    where
        M: InsertModel<S, Leaf = L>,
    {
        let started = crate::obs::boundary_timer();
        let before = *self.stats();
        self.begin_batch();
        let mut cursor = DescentCursor::start(self, obj, budget);
        let outcome = self.drive_cursor(model, &mut cursor);
        self.finish_batch(model);
        if started.is_some() {
            let mut depths = DepthHistogram::default();
            depths.record(outcome);
            crate::obs::record_insert_batch(
                &self.stats().delta_since(&before),
                &depths,
                started,
                self.height(),
            );
        }
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::InsertModel;

    /// A minimal distance-routed payload: (weight, centre).
    #[derive(Debug, Clone)]
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

    fn total_weight(tree: &AnytimeTree<Blob, Vec<Blob>>) -> f64 {
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

    #[test]
    fn unbudgeted_inserts_reach_leaves_and_grow_the_tree() {
        let mut tree = AnytimeTree::new(2, geometry());
        let mut model = BlobModel;
        for i in 0..60 {
            let c = if i % 2 == 0 { 0.0 } else { 20.0 };
            let outcome = tree.insert(&mut model, blob(c + (i % 5) as f64 * 0.1, c), usize::MAX);
            assert_eq!(outcome, InsertOutcome::ReachedLeaf);
        }
        assert!(tree.height() > 1);
        assert!((total_weight(&tree) - 60.0).abs() < 1e-9);
    }

    #[test]
    fn zero_budget_parks_at_the_root() {
        let mut tree = AnytimeTree::new(2, geometry());
        let mut model = BlobModel;
        for i in 0..30 {
            tree.insert(&mut model, blob(i as f64, 0.0), usize::MAX);
        }
        assert!(tree.height() > 1);
        let outcome = tree.insert(&mut model, blob(0.0, 0.0), 0);
        assert_eq!(outcome, InsertOutcome::Parked { depth: 1 });
        assert!((total_weight(&tree) - 31.0).abs() < 1e-9);
    }

    #[test]
    fn hitchhikers_are_carried_down_and_mass_is_conserved() {
        let mut tree = AnytimeTree::new(2, geometry());
        let mut model = BlobModel;
        for i in 0..30 {
            tree.insert(&mut model, blob(i as f64, i as f64), usize::MAX);
        }
        for _ in 0..5 {
            tree.insert(&mut model, blob(3.0, 3.0), 0);
        }
        for _ in 0..10 {
            tree.insert(&mut model, blob(3.1, 3.1), usize::MAX);
        }
        assert!((total_weight(&tree) - 45.0).abs() < 1e-9);
    }

    #[test]
    fn descent_prefetches_every_routed_child() {
        let mut tree = AnytimeTree::new(2, geometry());
        let mut model = BlobModel;
        for i in 0..60 {
            tree.insert(&mut model, blob((i % 9) as f64, (i % 7) as f64), usize::MAX);
        }
        assert!(tree.height() > 1);
        let stats = *tree.stats();
        // One prefetch per directory step that descends: strictly fewer
        // than node visits (leaf arrivals and parks issue none), and
        // non-zero once the tree has directory levels.
        assert!(stats.prefetches > 0);
        assert!(stats.prefetches < stats.node_visits);
    }

    #[test]
    fn root_entry_summaries_cover_all_mass() {
        let mut tree = AnytimeTree::new(2, geometry());
        let mut model = BlobModel;
        for i in 0..80 {
            tree.insert(&mut model, blob((i % 9) as f64, (i % 7) as f64), 3);
        }
        let root = tree.node(tree.root());
        if !root.is_leaf() {
            let total: f64 = root.entries().iter().map(crate::node::Entry::weight).sum();
            let buffered: f64 = root
                .entries()
                .iter()
                .map(crate::node::Entry::buffered_weight)
                .sum();
            assert!((total + buffered - 80.0).abs() < 1e-9 || (total - 80.0).abs() < 1e-9);
        }
    }

    #[test]
    fn height_tracks_root_splits() {
        let mut tree = AnytimeTree::new(1, geometry());
        let mut model = BlobModel;
        for i in 0..100 {
            tree.insert(
                &mut model,
                Blob {
                    weight: 1.0,
                    sum: vec![i as f64],
                },
                usize::MAX,
            );
        }
        assert_eq!(tree.height(), tree.measure_depth(tree.root()));
    }

    #[test]
    fn batched_inserts_conserve_mass_and_match_height_bookkeeping() {
        let mut tree = AnytimeTree::new(2, geometry());
        let mut model = BlobModel;
        for chunk in 0..10 {
            let batch: Vec<Blob> = (0..16)
                .map(|i| {
                    let c = if (chunk + i) % 2 == 0 { 0.0 } else { 20.0 };
                    blob(c + (i % 5) as f64 * 0.1, c + (chunk % 3) as f64 * 0.1)
                })
                .collect();
            let result = tree.insert_batch(&mut model, batch, usize::MAX);
            assert_eq!(result.outcomes.len(), 16);
            assert_eq!(result.depths.total(), 16);
            assert_eq!(result.depths.reached_leaf, 16);
        }
        assert!((total_weight(&tree) - 160.0).abs() < 1e-9);
        assert_eq!(tree.height(), tree.measure_depth(tree.root()));
    }

    #[test]
    fn batch_of_one_is_equivalent_to_sequential_insert() {
        let points: Vec<Blob> = (0..120)
            .map(|i| blob((i % 13) as f64, ((i * 7) % 11) as f64))
            .collect();
        let mut sequential = AnytimeTree::new(2, geometry());
        let mut batched = AnytimeTree::new(2, geometry());
        let mut model = BlobModel;
        for (i, p) in points.iter().enumerate() {
            let budget = i % 5;
            let a = sequential.insert(&mut model, p.clone(), budget);
            let b = batched.insert_batch(&mut model, vec![p.clone()], budget);
            assert_eq!(a, b.outcomes[0]);
        }
        assert_eq!(sequential.num_nodes(), batched.num_nodes());
        assert_eq!(sequential.height(), batched.height());
        assert!((total_weight(&sequential) - total_weight(&batched)).abs() < 1e-9);
    }

    #[test]
    fn zero_budget_batch_parks_everything_and_reports_depths() {
        let mut tree = AnytimeTree::new(2, geometry());
        let mut model = BlobModel;
        for i in 0..40 {
            tree.insert(&mut model, blob(i as f64, 0.0), usize::MAX);
        }
        assert!(tree.height() > 1);
        let batch: Vec<Blob> = (0..8).map(|i| blob(i as f64, 0.0)).collect();
        let result = tree.insert_batch(&mut model, batch, 0);
        assert_eq!(result.depths.reached_leaf, 0);
        assert_eq!(result.depths.parked_total(), 8);
        assert_eq!(result.depths.mean_parked_depth(), Some(1.0));
        assert!((total_weight(&tree) - 48.0).abs() < 1e-9);
    }

    #[test]
    fn batched_insertion_refreshes_fewer_summaries() {
        let points: Vec<Blob> = (0..256)
            .map(|i| blob((i % 17) as f64, ((i * 5) % 13) as f64))
            .collect();
        let mut model = BlobModel;
        let mut sequential = AnytimeTree::new(2, geometry());
        for p in &points {
            sequential.insert(&mut model, p.clone(), usize::MAX);
        }
        let mut batched = AnytimeTree::new(2, geometry());
        for chunk in points.chunks(64) {
            batched.insert_batch(&mut model, chunk.to_vec(), usize::MAX);
        }
        assert!(
            batched.summary_refreshes() < sequential.summary_refreshes(),
            "batched {} refreshes vs sequential {}",
            batched.summary_refreshes(),
            sequential.summary_refreshes()
        );
    }

    #[test]
    fn stepping_a_cursor_walks_one_node_at_a_time() {
        use crate::descent::CursorStep;
        let mut tree = AnytimeTree::new(2, geometry());
        let mut model = BlobModel;
        for i in 0..60 {
            tree.insert(
                &mut model,
                blob((i % 10) as f64, (i % 6) as f64),
                usize::MAX,
            );
        }
        let height = tree.height();
        assert!(height > 1);
        tree.begin_batch();
        let mut cursor = DescentCursor::start(&tree, blob(1.0, 1.0), usize::MAX);
        let mut steps = 0;
        loop {
            assert_eq!(cursor.depth(), steps + 1);
            match tree.step_cursor(&mut model, &mut cursor) {
                CursorStep::Descended { depth, .. } => {
                    steps += 1;
                    assert_eq!(depth, steps + 1);
                }
                CursorStep::Finished(outcome) => {
                    assert_eq!(outcome, InsertOutcome::ReachedLeaf);
                    break;
                }
            }
        }
        assert!(cursor.is_finished());
        assert_eq!(steps + 1, height);
        tree.finish_batch(&mut model);
        assert!((total_weight(&tree) - 61.0).abs() < 1e-9);
    }
}
