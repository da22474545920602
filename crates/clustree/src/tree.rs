//! The anytime clustering index (ClusTree-style).
//!
//! The tree stores micro-clusters at leaf level and aggregated cluster
//! features in its inner entries, exactly like the Bayes tree stores kernels
//! and CFs.  Three ideas from Section 4.2 make it *anytime*:
//!
//! * **Budgeted insertion** — an arriving object descends towards the closest
//!   entry; each step costs one node read.  When the budget is exhausted the
//!   object is **parked** in the entry's hitchhiker buffer instead of
//!   descending further.
//! * **Hitchhikers** — a later object descending through the same entry picks
//!   the buffered objects up and carries them one level further down, so
//!   parked mass eventually reaches the leaves without dedicated time.
//! * **Exponential decay and entry reuse** — every cluster feature ages with
//!   `2^(-lambda * dt)`; leaf entries whose decayed weight falls below an
//!   irrelevance threshold are reused for new data, keeping the model's size
//!   constant while staying up to date.
//!
//! As a consequence the tree's granularity adapts itself to the stream speed:
//! slow streams grant deep descents and fine micro-clusters, fast streams
//! park objects high up and keep the model coarse.
//!
//! The arena, the budgeted descent with its park/hitchhiker bookkeeping and
//! the split/overflow propagation all live in the shared
//! [`bt_anytree::AnytimeTree`] core — the same core the Bayes tree is built
//! on.  This module only supplies the micro-cluster payload policy: nearest
//! -centre routing, absorb-or-reuse leaf insertion, the polar split, and the
//! closest-pair collapse when there is no time to split.
//!
//! The tree owns its core through the shared sharding layer
//! ([`bt_anytree::shard`]): [`ClusTree::new`] builds one shard, the paper's
//! single tree, whose batches go straight to it; [`ClusTree::sharded`]
//! builds `K`, each mini-batch split by router and descended in parallel
//! so the per-object budget is spent on `K` cores at once.  Micro-clusters
//! are additive, so the offline step folds the shards' micro-clusters
//! ([`ClusTree::micro_clusters`]) before running
//! [`weighted_dbscan`] or recording a pyramidal
//! snapshot, exactly as over a single tree.

use crate::microcluster::{DecayCtx, MicroCluster};
use crate::offline::{weighted_dbscan, DbscanConfig, MacroClustering};
use crate::snapshot::SnapshotStore;
use bt_anytree::{
    AnytimeTree, CheapestRouter, DescentStats, Entry, InsertModel, Node, NodeId, NodeKind,
    PipelinedOutcome, RefineOrder, ShardRouter, ShardSet, ShardedAnytimeTree, ShardedTreeSnapshot,
};
use bt_index::PageGeometry;
use bt_stats::vector::sq_dist;

pub use bt_anytree::{BatchOutcome, DepthHistogram, InsertOutcome};

/// Configuration of the anytime clustering tree.
#[derive(Debug, Clone)]
pub struct ClusTreeConfig {
    /// Maximum number of entries per node (inner and leaf alike).
    pub max_entries: usize,
    /// Minimum number of entries a split must place in each node.
    pub min_entries: usize,
    /// Exponential decay rate `lambda` (0 disables decay).
    pub decay_lambda: f64,
    /// Leaf entries whose decayed weight drops below this threshold are
    /// considered irrelevant and may be reused for new data.
    pub irrelevance_threshold: f64,
    /// Whether splits are allowed to propagate (disallowing them caps the
    /// tree size; parked objects and merges absorb all growth).
    pub allow_splits: bool,
}

impl Default for ClusTreeConfig {
    fn default() -> Self {
        Self {
            max_entries: 3,
            min_entries: 1,
            decay_lambda: 0.0,
            irrelevance_threshold: 0.1,
            allow_splits: true,
        }
    }
}

impl ClusTreeConfig {
    /// Asserts the configuration's invariants.
    ///
    /// # Panics
    ///
    /// Panics if the configuration cannot support a node split.
    fn validate(&self) {
        assert!(self.max_entries >= 2, "need at least two entries per node");
        assert!(
            self.min_entries >= 1 && self.min_entries * 2 <= self.max_entries + 1,
            "min entries must allow a split"
        );
    }

    /// The `(min, max)` fanout this configuration induces on the shared
    /// core (the same capacity governs inner and leaf nodes) — the geometry
    /// of every shard, and of a directly driven [`ClusCore`].
    #[must_use]
    pub fn geometry(&self) -> PageGeometry {
        PageGeometry {
            min_fanout: self.min_entries,
            max_fanout: self.max_entries,
            min_leaf: self.min_entries,
            max_leaf: self.max_entries,
        }
    }
}

/// The micro-cluster insertion policy over the shared core: objects
/// observed at `now` under `config`.  Public so a [`bt_anytree::AnytimeTree`]
/// can be driven directly with the ClusTree's policy, as the equivalence
/// tests do.
#[derive(Debug, Clone, Copy)]
pub struct ClusModel<'a> {
    config: &'a ClusTreeConfig,
    now: f64,
}

impl<'a> ClusModel<'a> {
    /// The policy for objects observed at `now`.
    #[must_use]
    pub fn new(config: &'a ClusTreeConfig, now: f64) -> Self {
        Self { config, now }
    }

    fn lambda(&self) -> f64 {
        self.config.decay_lambda
    }
}

impl InsertModel<MicroCluster> for ClusModel<'_> {
    type Object = MicroCluster;
    type LeafItem = MicroCluster;
    const BUFFERED: bool = true;

    fn ctx(&self) -> DecayCtx {
        DecayCtx {
            now: self.now,
            lambda: self.lambda(),
        }
    }

    fn route_point<'a>(&self, obj: &'a MicroCluster, scratch: &'a mut Vec<f64>) -> &'a [f64] {
        obj.center_into(scratch);
        scratch
    }

    fn summary_of(&self, obj: &MicroCluster) -> MicroCluster {
        obj.clone()
    }

    fn absorb_into(&self, summary: &mut MicroCluster, obj: &MicroCluster) {
        summary.merge(obj, self.lambda());
    }

    fn merge_buffer_into_object(&self, obj: &mut MicroCluster, buffer: MicroCluster) {
        obj.merge(&buffer, self.lambda());
    }

    fn refresh_leaf_items(&self, items: &mut [MicroCluster]) {
        for mc in items {
            mc.decay_to(self.now, self.lambda());
        }
    }

    /// Absorbed as a fresh entry if there is room, replacing the lightest
    /// irrelevant (aged-out) entry otherwise; a genuine overflow is left for
    /// the core to split or collapse.
    fn insert_into_leaf(&mut self, items: &mut Vec<MicroCluster>, obj: MicroCluster) {
        if items.len() < self.config.max_entries {
            items.push(obj);
            return;
        }
        let irrelevant = items
            .iter()
            .enumerate()
            .filter(|(_, mc)| mc.weight() < self.config.irrelevance_threshold)
            .min_by(|(_, a), (_, b)| {
                a.weight()
                    .partial_cmp(&b.weight())
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .map(|(i, _)| i);
        if let Some(idx) = irrelevant {
            items[idx] = obj;
            return;
        }
        items.push(obj);
    }

    fn summarize_leaf_items(&self, items: &[MicroCluster]) -> MicroCluster {
        let lambda = self.lambda();
        let mut summary = items[0].clone();
        for mc in &items[1..] {
            summary.merge(mc, lambda);
        }
        summary.decay_to(self.now, lambda);
        summary
    }

    fn split_leaf_items(
        &self,
        items: Vec<MicroCluster>,
        _geometry: &PageGeometry,
    ) -> (Vec<MicroCluster>, Vec<MicroCluster>) {
        let centers: Vec<Vec<f64>> = items.iter().map(MicroCluster::center).collect();
        let (first, second) = bt_anytree::polar_partition(&centers, self.config.max_entries);
        bt_anytree::distribute(items, &first, &second)
    }

    fn collapse_leaf_items(&self, items: &mut Vec<MicroCluster>, cap: usize) {
        merge_closest_pairs(items, cap, self.lambda());
    }

    fn may_split(&self, has_time: bool) -> bool {
        self.config.allow_splits && has_time
    }
}

/// Merges the closest pair of `items` (squared centre distance; the first
/// pair `(i, j > i)` in row order wins ties) until at most `cap` remain —
/// the collapse of a leaf that may not split, one call per overflow.
///
/// Centres come from [`MicroCluster::center`] (`ls / n`), as in the polar
/// split, not from the routing [`MicroCluster::center_into`]
/// (`ls * (1/n)`), which can differ in the last bit and then pick another
/// pair.  They are built once into one flat row-major buffer and their
/// pair distances once into an upper-triangular matrix.  A merge
/// `swap_remove`s the absorbed item, so the last row moves into its slot,
/// and the merged row is recomputed; every other distance keeps its
/// value.  Distances are symmetric bit for bit (`x - y == -(y - x)`), so
/// each merge picks the pair a full rescan of fresh centres would.
fn merge_closest_pairs(items: &mut Vec<MicroCluster>, cap: usize, lambda: f64) {
    // Merging stops at one item, whatever the capacity.
    let cap = cap.max(1);
    let mut n = items.len();
    if n <= cap {
        return;
    }
    let dims = items[0].dims();
    let stride = n;
    let mut centers = Vec::with_capacity(n * dims);
    for mc in items.iter() {
        centers.extend_from_slice(&mc.center());
    }
    let dist_of = |centers: &[f64], i: usize, j: usize| {
        sq_dist(
            &centers[i * dims..(i + 1) * dims],
            &centers[j * dims..(j + 1) * dims],
        )
    };
    // `dist[i * stride + j]` for `i < j`.
    let mut dist = vec![0.0; n * stride];
    for i in 0..n {
        for j in i + 1..n {
            dist[i * stride + j] = dist_of(&centers, i, j);
        }
    }
    let at = |i: usize, j: usize| i.min(j) * stride + i.max(j);
    while n > cap {
        let (mut first, mut second, mut best) = (0usize, 1usize, f64::INFINITY);
        for i in 0..n {
            for j in i + 1..n {
                let d = dist[i * stride + j];
                if d < best {
                    (first, second, best) = (i, j, d);
                }
            }
        }
        let absorbed = items.swap_remove(second);
        items[first].merge(&absorbed, lambda);
        n -= 1;
        if second != n {
            centers.copy_within(n * dims..(n + 1) * dims, second * dims);
            for k in (0..n).filter(|&k| k != second) {
                dist[at(second, k)] = dist[at(n, k)];
            }
        }
        centers.truncate(n * dims);
        centers[first * dims..(first + 1) * dims].copy_from_slice(&items[first].center());
        for k in (0..n).filter(|&k| k != first) {
            dist[at(first, k)] = dist_of(&centers, first.min(k), first.max(k));
        }
    }
}

/// One shard of a ClusTree: the shared arena-tree core over micro-clusters.
pub type ClusCore = AnytimeTree<MicroCluster, MicroCluster>;

/// The anytime stream-clustering index over the shard set `C`.  Two
/// instantiations exist, each named by an alias: [`ClusTree`] reads and
/// writes the live shards, and [`ClusTreeSnapshot`] reads shards pinned by
/// [`ClusTree::snapshot`] (`crate::view`).  Every read is written once, over
/// any [`ShardSet`]; the writes and `snapshot()` exist on the live tree
/// only.
#[derive(Debug, Clone)]
pub struct ClusIndex<C> {
    pub(crate) config: ClusTreeConfig,
    pub(crate) core: C,
    pub(crate) num_inserted: usize,
    pub(crate) current_time: f64,
}

/// The live anytime stream-clustering index over `K` shards (one unless
/// built with [`ClusTree::sharded`] or [`ClusTree::with_router`]), routed
/// by `R`.
pub type ClusTree<R = CheapestRouter> =
    ClusIndex<ShardedAnytimeTree<MicroCluster, MicroCluster, R>>;

/// An epoch-pinned, immutable view of a [`ClusTree`]: one pinned core
/// snapshot per shard (a plain tree is one shard) plus the model parameters
/// (decay rate, current time, insert count) frozen at snapshot time.
/// `Send + Sync`; it answers every read bit-identically to the live tree
/// at snapshot time.
pub type ClusTreeSnapshot = ClusIndex<ShardedTreeSnapshot<MicroCluster, MicroCluster>>;

impl<C: ShardSet<MicroCluster, MicroCluster>> ClusIndex<C> {
    /// Dimensionality of the clustered points.
    #[must_use]
    pub fn dims(&self) -> usize {
        self.core.dims()
    }

    /// Number of objects inserted so far (across all shards).
    #[must_use]
    pub fn len(&self) -> usize {
        self.num_inserted
    }

    /// Whether no objects have been inserted yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.num_inserted == 0
    }

    /// The latest timestamp seen.
    #[must_use]
    pub fn current_time(&self) -> f64 {
        self.current_time
    }

    /// The epoch of every shard: the batches committed so far on a live
    /// tree, the pinned ones on a snapshot.  A snapshot taken now pins the
    /// live tree's values.
    #[must_use]
    pub fn epochs(&self) -> Vec<u64> {
        self.core.epochs()
    }

    /// The shard set: the live [`ShardedAnytimeTree`] or the pinned
    /// [`ShardedTreeSnapshot`], whose views the query folds read.
    #[must_use]
    pub fn core(&self) -> &C {
        &self.core
    }

    /// All current micro-clusters, **folded over the shards**: every
    /// shard's leaf entries plus non-empty hitchhiker buffers, decayed to
    /// the tree's current time (frozen on a snapshot), weightless ones
    /// dropped.  This fold is the
    /// input to the offline step — macro clustering and snapshots do not
    /// care how the model was partitioned.
    #[must_use]
    pub fn micro_clusters(&self) -> Vec<MicroCluster> {
        let mut out = Vec::new();
        for view in self.core.shards() {
            collect_micro_clusters(view, &mut out);
        }
        for mc in &mut out {
            mc.decay_to(self.current_time, self.config.decay_lambda);
        }
        out.retain(|mc| mc.weight() > f64::EPSILON);
        out
    }
}

impl ClusTree {
    /// Creates an empty one-shard tree for `dims`-dimensional points.
    ///
    /// # Panics
    ///
    /// Panics if `dims == 0` or the configuration is inconsistent.
    #[must_use]
    pub fn new(dims: usize, config: ClusTreeConfig) -> Self {
        Self::sharded(dims, config, 1)
    }
}

impl<R: Default> ClusTree<R> {
    /// Creates `num_shards` empty shards for `dims`-dimensional points with
    /// a default-constructed router.
    ///
    /// # Panics
    ///
    /// Panics if `dims == 0`, `num_shards == 0` or the configuration is
    /// inconsistent.
    #[must_use]
    pub fn sharded(dims: usize, config: ClusTreeConfig, num_shards: usize) -> Self {
        Self::with_router(dims, config, num_shards, R::default())
    }
}

impl<R> ClusTree<R> {
    /// Creates `num_shards` empty shards routed by `router`.
    ///
    /// # Panics
    ///
    /// Panics if `dims == 0`, `num_shards == 0` or the configuration is
    /// inconsistent.
    #[must_use]
    pub fn with_router(dims: usize, config: ClusTreeConfig, num_shards: usize, router: R) -> Self {
        assert!(dims > 0, "dimensionality must be positive");
        config.validate();
        let core = ShardedAnytimeTree::with_router(dims, config.geometry(), num_shards, router);
        Self {
            config,
            core,
            num_inserted: 0,
            current_time: 0.0,
        }
    }

    /// Number of shards.
    #[must_use]
    pub fn num_shards(&self) -> usize {
        self.core.num_shards()
    }

    /// The configuration the tree was created with.
    #[must_use]
    pub fn config(&self) -> &ClusTreeConfig {
        &self.config
    }

    /// Height of the tallest shard (a single leaf root has height 1).
    #[must_use]
    pub fn height(&self) -> usize {
        self.core.height()
    }

    /// The shard trees, for per-node inspection through
    /// [`bt_anytree::TreeView`] and for the query folds.
    #[must_use]
    pub fn shards(&self) -> &[ClusCore] {
        self.core.shards()
    }

    /// One shard tree: its `root()`, `node(id)` and reachable set.
    #[must_use]
    pub fn shard(&self, k: usize) -> &ClusCore {
        self.core.shard(k)
    }

    /// Objects routed to each shard so far — the direct skew measure for
    /// the configured router.  Counted at routing time: during a
    /// [`Self::pipelined_batch`] the sizes already include the in-flight
    /// batch while any pre-batch snapshot still reflects the old epochs.
    #[must_use]
    pub fn shard_sizes(&self) -> &[usize] {
        self.core.shard_sizes()
    }

    /// Number of reachable nodes across all shards.
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.core.num_nodes()
    }

    /// The descent-engine work counters merged over all shards.
    #[must_use]
    pub fn stats(&self) -> DescentStats {
        self.core.stats()
    }

    /// Number of payload-summary refresh (decay) operations performed by
    /// descents so far, over all shards.  Batched insertion refreshes each
    /// visited node once per batch, so it grows this counter strictly slower
    /// than sequential insertion.
    #[must_use]
    pub fn summary_refreshes(&self) -> u64 {
        self.core.summary_refreshes()
    }

    /// Retired node copies created by copy-on-write so far — zero as long
    /// as no snapshot (and no cloned tree, which shares the arena slots the
    /// same way) overlaps a write.
    #[must_use]
    pub fn retired_nodes(&self) -> u64 {
        self.core.retired_nodes()
    }

    /// Number of live snapshots currently pinning an epoch of this tree.
    #[must_use]
    pub fn pinned_snapshots(&self) -> usize {
        self.core.pinned_snapshots()
    }

    /// Number of current micro-clusters.
    #[must_use]
    pub fn num_micro_clusters(&self) -> usize {
        self.micro_clusters().len()
    }

    /// Total decayed weight currently represented by the tree.
    #[must_use]
    pub fn total_weight(&self) -> f64 {
        self.micro_clusters().iter().map(MicroCluster::weight).sum()
    }

    /// Runs the offline density-based macro clustering over the current
    /// micro-clusters.
    #[must_use]
    pub fn offline_clustering(&self, dbscan: &DbscanConfig) -> MacroClustering {
        weighted_dbscan(&self.micro_clusters(), dbscan)
    }

    /// Records the current micro-clusters as one pyramidal snapshot at
    /// integer tick `tick`.
    pub fn record_snapshot(&self, store: &mut SnapshotStore, tick: u64) {
        store.record(tick, self.micro_clusters());
    }

    /// Validates internal consistency, shard by shard: every node within
    /// capacity (plus the bounded directory slack a deferred split may
    /// leave behind), all aggregated weights non-negative, every CF sum and
    /// MBR corner finite, and every inner entry's box containing the boxes
    /// of its buffer and of everything in its child.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        for (k, shard) in self.shards().iter().enumerate() {
            validate_node(shard, &self.config, shard.root())
                .map_err(|e| format!("shard {k}: {e}"))?;
        }
        Ok(())
    }

    /// Admits `points` observed at `timestamp`: checks their
    /// dimensionality and finiteness (before any state changes), advances
    /// the clock and the insert count, and returns their payloads.
    fn admit(&mut self, points: &[Vec<f64>], timestamp: f64) -> Vec<MicroCluster> {
        let dims = self.dims();
        assert!(
            points.iter().all(|p| p.len() == dims),
            "point dimensionality mismatch"
        );
        assert_finite(points.iter().map(Vec::as_slice), timestamp);
        self.current_time = self.current_time.max(timestamp);
        self.num_inserted += points.len();
        points
            .iter()
            .map(|p| MicroCluster::from_point(p, timestamp))
            .collect()
    }
}

impl<R: ShardRouter<MicroCluster>> ClusTree<R> {
    /// Inserts an object observed at `timestamp` with a budget of
    /// `node_budget` node reads into the shard the router assigns it.
    ///
    /// A budget of 0 parks the object at the root level immediately.
    ///
    /// # Panics
    ///
    /// Panics if the point has the wrong dimensionality, or a coordinate or
    /// the timestamp is not finite.
    pub fn insert(&mut self, point: &[f64], timestamp: f64, node_budget: usize) -> InsertOutcome {
        assert_eq!(point.len(), self.dims(), "point dimensionality mismatch");
        assert_finite([point], timestamp);
        self.current_time = self.current_time.max(timestamp);
        self.num_inserted += 1;
        let payload = MicroCluster::from_point(point, timestamp);
        let mut model = ClusModel::new(&self.config, timestamp);
        self.core.insert(&mut model, payload, node_budget)
    }

    /// Inserts a mini-batch of objects observed at `timestamp`, each with a
    /// budget of `node_budget` node reads, through the core's batched
    /// descent engine ([`bt_anytree::descent`]).
    ///
    /// Within the batch every visited node refreshes (decays) its entry
    /// summaries once instead of once per object — observably equivalent for
    /// objects sharing a timestamp, since decay is idempotent at a fixed
    /// instant — and overflowing nodes split once after the batch drains.
    /// Objects are routed in input order, so a later object picks up
    /// hitchhikers parked by an earlier one exactly as sequential insertion
    /// would.  A tree of several shards descends every shard's share in
    /// parallel on scoped threads.  The returned [`BatchOutcome`] carries
    /// the per-object outcomes in input order plus the reached-leaf vs.
    /// parked-at-depth histogram.
    ///
    /// # Panics
    ///
    /// Panics if any point has the wrong dimensionality, or a coordinate or
    /// the timestamp is not finite; the tree is left untouched.
    pub fn insert_batch(
        &mut self,
        points: &[Vec<f64>],
        timestamp: f64,
        node_budget: usize,
    ) -> BatchOutcome {
        let payloads = self.admit(points, timestamp);
        let config = &self.config;
        self.core
            .insert_batch(&|| ClusModel::new(config, timestamp), payloads, node_budget)
    }

    /// The pipelined mode: drains a mini-batch through the per-shard
    /// writers **while** reader threads answer `queries` (density scores
    /// smoothed with `bandwidth`, refined in `order`) against the pre-batch
    /// snapshot — the returned answers are exactly what
    /// [`Self::density_batch`] would have returned *before* this batch
    /// (pre-batch total weight, pre-batch epochs; property-tested in
    /// `tests/snapshot_isolation.rs`).
    ///
    /// # Panics
    ///
    /// Panics if any point, query or the bandwidth has the wrong
    /// dimensionality, or a coordinate or the timestamp is not finite.
    #[allow(clippy::too_many_arguments)]
    pub fn pipelined_batch(
        &mut self,
        points: &[Vec<f64>],
        timestamp: f64,
        node_budget: usize,
        queries: &[Vec<f64>],
        bandwidth: &[f64],
        order: RefineOrder,
        query_budget: usize,
    ) -> PipelinedOutcome
    where
        R: Send,
    {
        // The readers answer against the pre-batch state, so they normalise
        // by the pre-batch global stored weight.
        let query_model = self.query_model(bandwidth);
        let payloads = self.admit(points, timestamp);
        let config = &self.config;
        self.core.pipelined_batch(
            &|| ClusModel::new(config, timestamp),
            payloads,
            node_budget,
            &query_model,
            queries,
            order,
            query_budget,
        )
    }
}

/// Rejects a non-finite coordinate or timestamp at a write entry, before
/// any state changes: one NaN or infinity folded into a cluster feature
/// voids every certified bound of its shard.
///
/// # Panics
///
/// Panics with "point coordinates must be finite" or "timestamps must be
/// finite".
fn assert_finite<'a>(points: impl IntoIterator<Item = &'a [f64]>, timestamp: f64) {
    assert!(timestamp.is_finite(), "timestamps must be finite");
    assert!(
        points.into_iter().all(|p| p.iter().all(|v| v.is_finite())),
        "point coordinates must be finite"
    );
}

/// Whether the CF (weight and sums) and MBR corners of `mc` are finite.
fn finite_cluster(mc: &MicroCluster) -> bool {
    let finite = |v: &[f64]| v.iter().all(|x| x.is_finite());
    mc.weight().is_finite()
        && finite(mc.cf().linear_sum())
        && finite(mc.cf().squared_sum())
        && finite(mc.mbr().lower())
        && finite(mc.mbr().upper())
}

/// Whether `entry`'s box contains the box of its hitchhiker buffer and of
/// every entry or item in its child — the nesting the MBR density bounds
/// rest on (a refined element's parts must lie inside its box).
fn boxes_nest(core: &ClusCore, entry: &Entry<MicroCluster>) -> bool {
    let outer = entry.summary.mbr();
    let contained = |mc: &MicroCluster| outer.contains_mbr(mc.mbr());
    let children = match &core.node(entry.child).kind {
        NodeKind::Leaf { items } => items.iter().all(contained),
        NodeKind::Inner { entries } => entries.iter().all(|e| contained(&e.summary)),
    };
    children && entry.buffer.as_ref().is_none_or(contained)
}

/// Gathers the raw (undecayed) micro-clusters of one core tree view: leaf
/// items plus any non-empty hitchhiker buffers.
fn collect_micro_clusters<V: bt_anytree::TreeView<MicroCluster, MicroCluster>>(
    core: &V,
    out: &mut Vec<MicroCluster>,
) {
    for id in core.reachable() {
        match &core.node(id).kind {
            NodeKind::Leaf { items } => out.extend(items.iter().cloned()),
            NodeKind::Inner { entries } => {
                out.extend(entries.iter().filter_map(|e| e.buffer.clone()));
            }
        }
    }
}

/// Validates one core (sub)tree: every node within capacity (plus the
/// bounded directory slack a deferred split may leave behind), all
/// aggregated weights non-negative, every cluster finite and every box
/// nested in its parent entry's.
fn validate_node(core: &ClusCore, config: &ClusTreeConfig, node_id: NodeId) -> Result<(), String> {
    let node: &Node<MicroCluster, MicroCluster> = core.node(node_id);
    // Inner nodes may temporarily exceed capacity by one when a split was
    // deferred for lack of time; anything beyond that is a bug.
    let slack = usize::from(!node.is_leaf());
    if node.len() > config.max_entries + slack {
        return Err(format!(
            "node {node_id} has {} entries (capacity {})",
            node.len(),
            config.max_entries
        ));
    }
    match &node.kind {
        NodeKind::Leaf { items } => {
            for mc in items {
                if mc.weight() < 0.0 {
                    return Err(format!("leaf {node_id} has a negative weight"));
                }
                if !finite_cluster(mc) {
                    return Err(format!(
                        "leaf {node_id} has a non-finite CF sum or MBR corner"
                    ));
                }
            }
        }
        NodeKind::Inner { entries } => {
            for entry in entries {
                if entry.weight() < 0.0 || entry.buffered_weight() < 0.0 {
                    return Err(format!("node {node_id} has a negative weight"));
                }
                if !(finite_cluster(&entry.summary)
                    && entry.buffer.as_ref().is_none_or(finite_cluster))
                {
                    return Err(format!(
                        "node {node_id} has a non-finite CF sum or MBR corner"
                    ));
                }
                validate_node(core, config, entry.child)?;
                if !boxes_nest(core, entry) {
                    return Err(format!(
                        "node {node_id}: a box in child {} or in the entry's buffer is not nested in the entry's box",
                        entry.child
                    ));
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use bt_stats::vector;

    fn two_cluster_stream(n: usize) -> Vec<(Vec<f64>, f64)> {
        (0..n)
            .map(|i| {
                let c = if i % 2 == 0 { 0.0 } else { 20.0 };
                let jitter = (i % 9) as f64 * 0.1;
                (vec![c + jitter, c - jitter], i as f64)
            })
            .collect()
    }

    #[test]
    fn inserting_builds_micro_clusters() {
        let mut tree = ClusTree::new(2, ClusTreeConfig::default());
        for (p, t) in two_cluster_stream(300) {
            tree.insert(&p, t, 10);
        }
        assert_eq!(tree.len(), 300);
        assert!(tree.num_micro_clusters() >= 2);
        tree.validate().expect("valid tree");
        // Without decay, no mass is lost.
        assert!((tree.total_weight() - 300.0).abs() < 1e-6);
    }

    #[test]
    fn zero_budget_parks_objects() {
        let mut tree = ClusTree::new(2, ClusTreeConfig::default());
        // Grow a small tree first.
        for (p, t) in two_cluster_stream(50) {
            tree.insert(&p, t, 10);
        }
        assert!(tree.height() > 1);
        let outcome = tree.insert(&[0.0, 0.0], 51.0, 0);
        assert!(matches!(outcome, InsertOutcome::Parked { depth: 1 }));
        // The parked object still counts toward the total weight.
        assert!((tree.total_weight() - 51.0).abs() < 1e-6);
    }

    #[test]
    fn hitchhikers_are_carried_down_later() {
        let mut tree = ClusTree::new(2, ClusTreeConfig::default());
        for (p, t) in two_cluster_stream(60) {
            tree.insert(&p, t, 10);
        }
        // Park a few objects.
        for i in 0..5 {
            tree.insert(&[0.5, 0.5], 60.0 + i as f64, 0);
        }
        // Subsequent descents with budget pick the buffers up again; mass is
        // conserved throughout.
        for i in 0..20 {
            tree.insert(&[0.4, 0.4], 70.0 + i as f64, 10);
        }
        assert!((tree.total_weight() - 85.0).abs() < 1e-6);
        tree.validate().expect("valid");
    }

    #[test]
    fn small_budget_keeps_tree_smaller() {
        let build = |budget: usize| {
            let mut tree = ClusTree::new(2, ClusTreeConfig::default());
            for (p, t) in two_cluster_stream(400) {
                tree.insert(&p, t, budget);
            }
            tree.num_nodes()
        };
        let small = build(1);
        let large = build(20);
        assert!(
            small <= large,
            "faster stream (budget 1) built a bigger tree: {small} vs {large}"
        );
    }

    #[test]
    fn decay_forgets_old_clusters() {
        let config = ClusTreeConfig {
            decay_lambda: 0.5,
            ..ClusTreeConfig::default()
        };
        let mut tree = ClusTree::new(2, config);
        // Old cluster around (0, 0).
        for i in 0..100 {
            tree.insert(&[0.0 + (i % 5) as f64 * 0.01, 0.0], i as f64 * 0.01, 5);
        }
        // Much later, a new cluster around (30, 30).
        for i in 0..100 {
            tree.insert(
                &[30.0, 30.0 + (i % 5) as f64 * 0.01],
                100.0 + i as f64 * 0.01,
                5,
            );
        }
        let mcs = tree.micro_clusters();
        let old_weight: f64 = mcs
            .iter()
            .filter(|m| m.center()[0] < 15.0)
            .map(MicroCluster::weight)
            .sum();
        let new_weight: f64 = mcs
            .iter()
            .filter(|m| m.center()[0] >= 15.0)
            .map(MicroCluster::weight)
            .sum();
        assert!(
            new_weight > old_weight * 10.0,
            "old {old_weight} vs new {new_weight}"
        );
    }

    #[test]
    fn disallowing_splits_caps_the_tree() {
        let config = ClusTreeConfig {
            allow_splits: false,
            ..ClusTreeConfig::default()
        };
        let mut tree = ClusTree::new(2, config);
        for (p, t) in two_cluster_stream(500) {
            tree.insert(&p, t, 10);
        }
        assert_eq!(tree.height(), 1);
        assert!(tree.num_micro_clusters() <= 3);
        assert!((tree.total_weight() - 500.0).abs() < 1e-6);
    }

    #[test]
    fn micro_cluster_centers_track_the_two_clusters() {
        let mut tree = ClusTree::new(2, ClusTreeConfig::default());
        for (p, t) in two_cluster_stream(400) {
            tree.insert(&p, t, 10);
        }
        let mcs = tree.micro_clusters();
        let near_low = mcs
            .iter()
            .any(|m| vector::dist(&m.center(), &[0.2, -0.2]) < 2.0);
        let near_high = mcs
            .iter()
            .any(|m| vector::dist(&m.center(), &[20.2, 19.8]) < 2.0);
        assert!(near_low && near_high);
    }

    #[test]
    fn validate_catches_nothing_on_fresh_tree() {
        let tree = ClusTree::new(3, ClusTreeConfig::default());
        assert!(tree.validate().is_ok());
        assert!(tree.is_empty());
        assert_eq!(tree.height(), 1);
    }

    #[test]
    #[should_panic(expected = "dimensionality mismatch")]
    fn wrong_dims_panics() {
        let mut tree = ClusTree::new(2, ClusTreeConfig::default());
        tree.insert(&[1.0], 0.0, 1);
    }

    #[test]
    fn batch_of_one_matches_sequential_insertion() {
        let stream = two_cluster_stream(250);
        let mut sequential = ClusTree::new(2, ClusTreeConfig::default());
        let mut batched = ClusTree::new(2, ClusTreeConfig::default());
        for (i, (p, t)) in stream.iter().enumerate() {
            let budget = i % 6;
            let a = sequential.insert(p, *t, budget);
            let b = batched.insert_batch(std::slice::from_ref(p), *t, budget);
            assert_eq!(a, b.outcomes[0]);
        }
        assert_eq!(sequential.num_nodes(), batched.num_nodes());
        assert_eq!(sequential.height(), batched.height());
        assert!((sequential.total_weight() - batched.total_weight()).abs() < 1e-9);
        batched.validate().expect("valid tree");
    }

    #[test]
    fn batched_inserts_conserve_mass_and_stay_valid() {
        let stream = two_cluster_stream(512);
        let mut tree = ClusTree::new(2, ClusTreeConfig::default());
        for (batch_idx, chunk) in stream.chunks(32).enumerate() {
            let points: Vec<Vec<f64>> = chunk.iter().map(|(p, _)| p.clone()).collect();
            let result = tree.insert_batch(&points, batch_idx as f64, 8);
            assert_eq!(result.outcomes.len(), points.len());
            assert_eq!(result.depths.total(), points.len());
        }
        assert_eq!(tree.len(), 512);
        assert!((tree.total_weight() - 512.0).abs() < 1e-6);
        tree.validate().expect("valid tree");
    }

    #[test]
    fn zero_budget_batch_parks_and_reports_the_depth_histogram() {
        let mut tree = ClusTree::new(2, ClusTreeConfig::default());
        for (p, t) in two_cluster_stream(60) {
            tree.insert(&p, t, 10);
        }
        assert!(tree.height() > 1);
        let points: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64 * 0.1, 0.0]).collect();
        let result = tree.insert_batch(&points, 61.0, 0);
        assert_eq!(result.depths.reached_leaf, 0);
        assert_eq!(result.depths.parked_total(), 10);
        assert_eq!(result.depths.mean_parked_depth(), Some(1.0));
        assert!((tree.total_weight() - 70.0).abs() < 1e-6);
    }

    #[test]
    fn batched_insertion_refreshes_fewer_summaries() {
        let stream = two_cluster_stream(600);
        let mut sequential = ClusTree::new(2, ClusTreeConfig::default());
        for (p, t) in &stream {
            sequential.insert(p, *t, 10);
        }
        let mut batched = ClusTree::new(2, ClusTreeConfig::default());
        for (batch_idx, chunk) in stream.chunks(64).enumerate() {
            let points: Vec<Vec<f64>> = chunk.iter().map(|(p, _)| p.clone()).collect();
            batched.insert_batch(&points, batch_idx as f64, 10);
        }
        assert!(
            batched.summary_refreshes() < sequential.summary_refreshes(),
            "batched {} vs sequential {}",
            batched.summary_refreshes(),
            sequential.summary_refreshes()
        );
    }

    #[test]
    fn validate_rejects_a_planted_non_finite_value() {
        let mut tree = ClusTree::new(2, ClusTreeConfig::default());
        for (p, t) in two_cluster_stream(300) {
            tree.insert(&p, t, 10);
        }
        tree.validate().expect("valid before planting");
        let shard = tree.shard(0);
        let root = shard.root();
        let leaf = bt_anytree::TreeView::reachable(shard)
            .into_iter()
            .find(|&id| shard.node(id).is_leaf() && !shard.node(id).items().is_empty())
            .expect("a leaf");
        let bad = MicroCluster::from_point(&[f64::NAN, 0.0], 1.0);

        let mut planted = tree.clone();
        planted.core.shard_mut(0).node_mut(leaf).items_mut()[0] = bad.clone();
        let err = planted.validate().unwrap_err();
        assert!(err.contains("non-finite"), "{err}");

        let mut planted = tree.clone();
        planted.core.shard_mut(0).node_mut(root).entries_mut()[0].summary = bad;
        let err = planted.validate().unwrap_err();
        assert!(err.contains("non-finite"), "{err}");
    }

    #[test]
    fn validate_rejects_a_box_outside_its_parent_entry() {
        let mut tree = ClusTree::new(2, ClusTreeConfig::default());
        for (p, t) in two_cluster_stream(300) {
            tree.insert(&p, t, 10);
        }
        tree.validate().expect("valid before planting");
        let shard = tree.shard(0);
        let leaf = bt_anytree::TreeView::reachable(shard)
            .into_iter()
            .find(|&id| shard.node(id).is_leaf() && !shard.node(id).items().is_empty())
            .expect("a leaf");
        assert_ne!(leaf, shard.root(), "the tree must have a directory level");

        // A finite cluster far outside every box above it: its parent
        // entry's box no longer contains it.
        let mut planted = tree.clone();
        planted.core.shard_mut(0).node_mut(leaf).items_mut()[0] =
            MicroCluster::from_point(&[1e6, -1e6], 1.0);
        let err = planted.validate().unwrap_err();
        assert!(err.contains("not nested"), "{err}");

        // A root entry whose box shrank to a point inside its subtree's
        // extent is caught the same way.
        let mut planted = tree.clone();
        let root = planted.shard(0).root();
        let entry = &mut planted.core.shard_mut(0).node_mut(root).entries_mut()[0];
        let point = entry.summary.mbr().lower().to_vec();
        entry.summary = MicroCluster::from_point(&point, 1.0);
        let err = planted.validate().unwrap_err();
        assert!(err.contains("not nested"), "{err}");
    }
}
