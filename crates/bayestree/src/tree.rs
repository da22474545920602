//! The Bayes tree structure (Definition 2).
//!
//! A Bayes tree with fanout parameters `(m, M)` and leaf capacity `(l, L)` is
//! a balanced multidimensional index whose inner entries additionally carry
//! cluster features, so that every level — and more generally every frontier
//! — stores a complete Gaussian mixture model of the entire data at some
//! granularity.
//!
//! Structurally each shard of the tree is a thin instantiation of the
//! shared [`bt_anytree::AnytimeTree`] core (node arena, descent, split
//! propagation) with the [`KernelSummary`] payload
//! and each leaf's kernel centres in one dimension-major block
//! ([`PointColumns`]), and the tree owns its shards
//! through the shared sharding layer ([`bt_anytree::ShardedAnytimeTree`])
//! — one shard for the paper's single tree.  The structure is built
//! either incrementally ([`crate::insert`]) or by one of the bulk loaders
//! ([`crate::bulk`]).

use crate::leaf::PointColumns;
use crate::node::{block_entries, node_cluster_feature, node_mbr, Entry, KernelSummary, NodeId};
use bt_anytree::{
    AnytimeTree, ArenaCensus, CheapestRouter, DescentStats, Directory, NodeKind, ShardSet,
    ShardedAnytimeTree, ShardedTreeSnapshot,
};
use bt_index::PageGeometry;
use bt_stats::bandwidth::silverman_bandwidth;
use bt_stats::kernel::{log_kernel_at, KernelBandwidth};
use std::sync::Arc;

/// One shard of a Bayes tree: the shared arena-tree core over the summaries
/// `S` (the tree's are [`KernelSummary`]) with each leaf's kernel centres in
/// one dimension-major block.
pub type BayesCore<S> = AnytimeTree<S, PointColumns>;

/// The Bayes tree over the shard set `C`: an R*-tree–style hierarchy of
/// Gaussian mixture models.  Two instantiations exist, each named by an
/// alias: [`BayesTree`] reads and writes the live shards, and
/// [`BayesTreeSnapshot`] reads shards pinned by [`BayesTree::snapshot`]
/// (`crate::view`).  Every read is written once, over any [`ShardSet`];
/// the writes and `snapshot()` exist on the live tree only.
///
/// The tree owns `K` shards behind the shared sharding layer of
/// [`bt_anytree::shard`]: [`BayesTree::new`] builds one, the paper's
/// single tree; [`BayesTree::sharded`] and [`BayesTree::with_router`]
/// build `K`, routed by `R` (default [`CheapestRouter`]), whose batches
/// descend in parallel.  Kernel density estimates are sums over kernels, so
/// the full-model density is the same however the kernels are partitioned:
/// `p(x) = (1/N) Σ_shards Σ_kernels K_h(x - x_i)`.  Every reader folds over
/// the shard set's views; per-node inspection goes through
/// [`BayesTree::shard`].
#[derive(Debug, Clone)]
pub struct BayesIndex<C> {
    pub(crate) core: C,
    pub(crate) num_points: usize,
    /// The bandwidth with its cached scoring terms; shared with snapshots,
    /// replaced (never mutated) when the bandwidth changes.
    pub(crate) bandwidth: Arc<KernelBandwidth>,
}

/// The summary a [`BayesTree`] stores at element type `E`.  It exists only
/// so that the alias keeps its `BayesTree::<f64>` spelling (perfbench
/// writes `BayesTree::<f64>::paged_geometry(dims)`): an alias parameter
/// must be used, and this projection uses it.  Its one impl, at `f64`,
/// also lets an unannotated `BayesTree::new(..)` infer `E`.
pub trait SummaryAt<E> {
    /// [`KernelSummary`] itself.
    type Summary;
}

impl SummaryAt<f64> for KernelSummary {
    type Summary = KernelSummary;
}

/// The live shard set of a [`BayesTree`] routed by `R`.
pub(crate) type LiveShards<R> = ShardedAnytimeTree<KernelSummary, PointColumns, R>;

/// The live Bayes tree: reads, writes and snapshots over its own shards.
pub type BayesTree<E = f64, R = CheapestRouter> =
    BayesIndex<ShardedAnytimeTree<<KernelSummary as SummaryAt<E>>::Summary, PointColumns, R>>;

/// An epoch-pinned, immutable view of a [`BayesTree`]: one pinned core
/// snapshot per shard (a plain tree is one shard) plus the density-model
/// parameters (global observation count, bandwidth) frozen at snapshot
/// time.  `Send + Sync`; it answers every read bit-identically to the
/// live tree at snapshot time.
pub type BayesTreeSnapshot = BayesIndex<ShardedTreeSnapshot<KernelSummary, PointColumns>>;

impl<C: ShardSet<KernelSummary, PointColumns>> BayesIndex<C> {
    /// Dimensionality of the stored kernels.
    #[must_use]
    pub fn dims(&self) -> usize {
        self.core.dims()
    }

    /// Number of stored observations across all shards.
    #[must_use]
    pub fn len(&self) -> usize {
        self.num_points
    }

    /// Whether the tree stores no observations.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.num_points == 0
    }

    /// The epoch of every shard: the batches committed so far on a live
    /// tree, the pinned ones on a snapshot.  A snapshot taken now pins the
    /// live tree's values.
    #[must_use]
    pub fn epochs(&self) -> Vec<u64> {
        self.core.epochs()
    }

    /// The per-dimension kernel bandwidth used for leaf-level kernels.
    #[must_use]
    pub fn bandwidth(&self) -> &[f64] {
        self.bandwidth.values()
    }

    /// The shard set: the live [`ShardedAnytimeTree`] or the pinned
    /// [`ShardedTreeSnapshot`], whose views the query folds read (and
    /// frontier construction starts from, `core().shard(0)`).
    #[must_use]
    pub fn core(&self) -> &C {
        &self.core
    }
}

impl BayesIndex<LiveShards<CheapestRouter>> {
    /// Creates an empty one-shard tree for `dims`-dimensional kernels.
    ///
    /// # Panics
    ///
    /// Panics if `dims == 0`.
    #[must_use]
    pub fn new(dims: usize, geometry: PageGeometry) -> Self {
        Self::sharded(dims, geometry, 1)
    }

    /// The 4 KiB-page geometry, [`PageGeometry::default_for_dims`]; kept
    /// because perfbench spells it `BayesTree::<f64>::paged_geometry`.
    ///
    /// # Panics
    ///
    /// Panics if a 4 KiB page cannot hold at least two entries (very high
    /// `dims`).
    #[must_use]
    pub fn paged_geometry(dims: usize) -> PageGeometry {
        PageGeometry::default_for_dims(dims)
    }
}

impl<R: Default> BayesIndex<LiveShards<R>> {
    /// Creates an empty tree of `num_shards` shards with a
    /// default-constructed router.
    ///
    /// # Panics
    ///
    /// Panics if `dims == 0` or `num_shards == 0`.
    #[must_use]
    pub fn sharded(dims: usize, geometry: PageGeometry, num_shards: usize) -> Self {
        Self::with_router(dims, geometry, num_shards, R::default())
    }
}

impl<R> BayesIndex<LiveShards<R>> {
    /// Creates an empty tree of `num_shards` shards routed by `router`.
    ///
    /// # Panics
    ///
    /// Panics if `dims == 0` or `num_shards == 0`.
    #[must_use]
    pub fn with_router(dims: usize, geometry: PageGeometry, num_shards: usize, router: R) -> Self {
        Self {
            core: ShardedAnytimeTree::with_router(dims, geometry, num_shards, router),
            num_points: 0,
            bandwidth: Arc::new(KernelBandwidth::new(vec![1.0; dims])),
        }
    }

    /// Fanout / leaf-capacity parameters shared by every shard.
    #[must_use]
    pub fn geometry(&self) -> PageGeometry {
        self.core.geometry()
    }

    /// Number of shards.
    #[must_use]
    pub fn num_shards(&self) -> usize {
        self.core.num_shards()
    }

    /// Height of the tallest shard (a single leaf root has height 1).
    #[must_use]
    pub fn height(&self) -> usize {
        self.core.height()
    }

    /// Number of nodes reachable from the shard roots.
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.core.num_nodes()
    }

    /// The shard trees, for per-node inspection through
    /// [`bt_anytree::TreeView`] and for the query folds.
    #[must_use]
    pub fn shards(&self) -> &[BayesCore<KernelSummary>] {
        self.core.shards()
    }

    /// One shard tree: its `root()`, `node(id)` and reachable set.
    #[must_use]
    pub fn shard(&self, k: usize) -> &BayesCore<KernelSummary> {
        self.core.shard(k)
    }

    /// Write access to one shard (crate-internal: the bulk loaders assemble
    /// shard 0 node by node).
    pub(crate) fn shard_mut(&mut self, k: usize) -> &mut BayesCore<KernelSummary> {
        self.core.shard_mut(k)
    }

    /// Observations routed to each shard so far — the direct skew measure
    /// for the configured router.  Counted at routing time: during a
    /// [`Self::pipelined_batch`] the sizes already include the in-flight
    /// batch while any pre-batch snapshot still reflects the old epochs.
    /// Bulk-loaded observations are not routed and not counted.
    #[must_use]
    pub fn shard_sizes(&self) -> &[usize] {
        self.core.shard_sizes()
    }

    /// The descent-engine work counters merged over all shards.
    #[must_use]
    pub fn stats(&self) -> DescentStats {
        self.core.stats()
    }

    /// Number of payload-summary refresh operations performed by descents so
    /// far, over all shards — batched insertion refreshes each visited node
    /// once per batch, so it grows this counter strictly slower than
    /// sequential insertion.
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

    /// The arenas' version census over all shards: node versions held,
    /// retired versions a pinned snapshot still reaches, and copies written
    /// into a recycled version so far.
    #[must_use]
    pub fn arena_census(&self) -> ArenaCensus {
        self.core.arena_census()
    }

    /// Number of live snapshots currently pinning an epoch of this tree.
    #[must_use]
    pub fn pinned_snapshots(&self) -> usize {
        self.core.pinned_snapshots()
    }

    /// Overrides the kernel bandwidth.
    ///
    /// # Panics
    ///
    /// Panics if the bandwidth vector has the wrong dimensionality or a
    /// component that is not finite and positive.
    pub fn set_bandwidth(&mut self, bandwidth: Vec<f64>) {
        assert_eq!(
            bandwidth.len(),
            self.dims(),
            "bandwidth dimensionality mismatch"
        );
        assert!(
            bandwidth.iter().all(|h| h.is_finite() && *h > 0.0),
            "bandwidths must be finite and positive"
        );
        self.bandwidth = Arc::new(KernelBandwidth::new(bandwidth));
    }

    /// Recomputes the kernel bandwidth with Silverman's rule over all stored
    /// observations (the paper's data-independent default).
    ///
    /// # Panics
    ///
    /// Panics, as [`Self::set_bandwidth`] does, if the rule yields a
    /// bandwidth that is not finite (data whose spread overflows `f64`).
    pub fn fit_bandwidth(&mut self) {
        let points = self.all_points();
        if !points.is_empty() {
            self.set_bandwidth(silverman_bandwidth(&points, self.dims()));
        }
    }

    /// All observations stored at leaf level (shard-major, arbitrary order
    /// within a shard).
    #[must_use]
    pub fn all_points(&self) -> Vec<Vec<f64>> {
        let mut out = Vec::with_capacity(self.num_points);
        self.for_each_leaf(|leaf| out.extend(leaf.rows()));
        out
    }

    /// Calls `f` on every leaf block, shard by shard.
    fn for_each_leaf(&self, mut f: impl FnMut(&PointColumns)) {
        for shard in self.shards() {
            for id in shard.reachable() {
                if let NodeKind::Leaf { items } = &shard.node(id).kind {
                    f(items);
                }
            }
        }
    }

    /// The entries the anytime descent starts from, over all shards: each
    /// shard's root entries, or a synthetic single entry summarising a
    /// non-empty leaf root.
    #[must_use]
    pub fn root_entries(&self) -> Vec<Entry> {
        self.shards().iter().flat_map(shard_root_entries).collect()
    }

    /// The complete mixture model stored at tree level `level` (0 = root
    /// entries) over all shards, as `(weight, gaussian)`-style entries.
    ///
    /// Level `height - 1` (and anything deeper) returns one entry per leaf
    /// node; levels beyond the directory return leaf-node summaries rather
    /// than raw kernels.
    #[must_use]
    pub fn level_entries(&self, level: usize) -> Vec<Entry> {
        let mut out = Vec::new();
        for shard in self.shards() {
            let mut current = shard_root_entries(shard);
            for _ in 0..level {
                let mut next = Vec::new();
                let mut expanded_any = false;
                for e in &current {
                    match &shard.node(e.child).kind {
                        NodeKind::Inner { entries } => {
                            next.extend(block_entries(entries));
                            expanded_any = true;
                        }
                        NodeKind::Leaf { .. } => next.push(e.clone()),
                    }
                }
                current = next;
                if !expanded_any {
                    break;
                }
            }
            out.extend(current);
        }
        out
    }

    /// Evaluates the full kernel density estimate `p(x)` by reading every
    /// leaf kernel of every shard — the model the anytime frontier
    /// converges to.
    #[must_use]
    pub fn full_kernel_density(&self, x: &[f64]) -> f64 {
        if self.num_points == 0 {
            return 0.0;
        }
        // The per-point scalar kernel (`GaussianKernel::density`'s terms
        // in its order), kept apart from the leaf pass the queries run, so
        // the two check each other.
        let mut acc = 0.0;
        self.for_each_leaf(|leaf| {
            for i in 0..leaf.len() {
                let sq = x.iter().enumerate().map(|(d, &v)| {
                    let diff = v - leaf.get(i, d);
                    diff * diff
                });
                acc += log_kernel_at(&self.bandwidth, sq).exp();
            }
        });
        acc / self.num_points as f64
    }

    /// Validates the structural invariants of Definition 2 plus the
    /// consistency of the aggregated statistics, shard by shard, and that
    /// the shards together hold [`Self::len`] observations.  Returns a
    /// description of the first violation found.
    ///
    /// `require_balanced` should be `true` for iteratively built and
    /// bottom-up bulk-loaded trees; the EM top-down bulk load may legally
    /// produce an unbalanced tree (Section 3.1).  Each shard is balanced on
    /// its own; shards may differ in height.
    ///
    /// # Errors
    ///
    /// Returns `Err` with a human-readable description of the violated
    /// invariant.
    pub fn validate(&self, require_balanced: bool) -> Result<(), String> {
        let mut seen_points = 0usize;
        for (k, shard) in self.shards().iter().enumerate() {
            seen_points +=
                validate_shard(shard, require_balanced).map_err(|e| format!("shard {k}: {e}"))?;
        }
        if seen_points != self.num_points {
            return Err(format!(
                "tree claims {} points but {} are reachable",
                self.num_points, seen_points
            ));
        }
        Ok(())
    }
}

/// Builds the entry (MBR + CF + pointer) describing `child` of `shard`.
///
/// # Panics
///
/// Panics if `child` is empty.
pub(crate) fn summarise(shard: &BayesCore<KernelSummary>, child: NodeId) -> Entry {
    let model = crate::insert::KernelModel::new(shard.dims());
    Entry {
        summary: shard.summarize_node(&model, child),
        child,
    }
}

/// One shard's root entries, or a synthetic single entry summarising its
/// root when the root is a non-empty leaf.
fn shard_root_entries(shard: &BayesCore<KernelSummary>) -> Vec<Entry> {
    match &shard.node(shard.root()).kind {
        NodeKind::Inner { entries } => block_entries(entries),
        NodeKind::Leaf { items } if items.is_empty() => Vec::new(),
        NodeKind::Leaf { .. } => vec![summarise(shard, shard.root())],
    }
}

/// Validates one shard (Definition 2 plus aggregate consistency) and
/// returns the number of observations reachable in it.
fn validate_shard(
    shard: &BayesCore<KernelSummary>,
    require_balanced: bool,
) -> Result<usize, String> {
    let mut leaf_depths = Vec::new();
    let mut seen_points = 0usize;
    validate_node(
        shard,
        shard.root(),
        1,
        true,
        &mut leaf_depths,
        &mut seen_points,
    )?;
    if require_balanced {
        if let (Some(min), Some(max)) = (leaf_depths.iter().min(), leaf_depths.iter().max()) {
            if min != max {
                return Err(format!(
                    "tree is not balanced: leaf depths range from {min} to {max}"
                ));
            }
            if *max != shard.height() {
                return Err(format!(
                    "stored height {} does not match actual depth {max}",
                    shard.height()
                ));
            }
        }
    }
    Ok(seen_points)
}

fn validate_node(
    shard: &BayesCore<KernelSummary>,
    id: NodeId,
    depth: usize,
    is_root: bool,
    leaf_depths: &mut Vec<usize>,
    seen_points: &mut usize,
) -> Result<(), String> {
    let geometry = shard.geometry();
    let dims = shard.dims();
    match &shard.node(id).kind {
        NodeKind::Leaf { items } => {
            leaf_depths.push(depth);
            *seen_points += items.len();
            if !is_root && items.len() > geometry.max_leaf {
                return Err(format!(
                    "leaf {id} holds {} observations, capacity is {}",
                    items.len(),
                    geometry.max_leaf
                ));
            }
            if !items.is_empty() && items.dims() != dims {
                return Err(format!("leaf {id} holds a point of wrong dimensionality"));
            }
            if !(0..items.dims()).all(|d| all_finite(items.column(d))) {
                return Err(format!("leaf {id} holds a non-finite coordinate"));
            }
            Ok(())
        }
        NodeKind::Inner { entries } => {
            if entries.is_empty() {
                return Err(format!("inner node {id} has no entries"));
            }
            if entries.len() > geometry.max_fanout {
                return Err(format!(
                    "inner node {id} has {} entries, fanout limit is {}",
                    entries.len(),
                    geometry.max_fanout
                ));
            }
            if !is_root && entries.len() < geometry.min_fanout.min(2) {
                return Err(format!(
                    "inner node {id} has {} entries, below the minimum",
                    entries.len()
                ));
            }
            if !entries.is_published() {
                return Err(format!("inner node {id} has stale derived lanes"));
            }
            for i in 0..entries.len() {
                if !(0..dims).all(|d| entries.payload_finite(i, d)) {
                    return Err(format!(
                        "entry {i} of node {id} has a non-finite MBR corner or CF sum"
                    ));
                }
                let entry = Entry {
                    summary: entries.entry_summary(i),
                    child: entries.child(i),
                };
                let (entry_mbr, entry_cf) = (&entry.mbr, &entry.cf);
                let child = shard.node(entry.child);
                if let Some(child_mbr) = node_mbr(child) {
                    if !entry_mbr.contains_mbr(&child_mbr) {
                        return Err(format!(
                            "entry {i} of node {id} does not contain its child's MBR"
                        ));
                    }
                }
                // CF weight must match the number of objects below.
                let child_cf = node_cluster_feature(child, dims);
                if (entry.weight() - child_cf.weight()).abs() > 1e-6 {
                    return Err(format!(
                        "entry {i} of node {id} claims {} objects, child holds {}",
                        entry.weight(),
                        child_cf.weight()
                    ));
                }
                // LS must agree with the child's fold up to the rounding of
                // the two summation orders.
                for d in 0..dims {
                    let entry_ls = entry_cf.linear_sum()[d];
                    let child_ls = child_cf.linear_sum()[d];
                    if (entry_ls - child_ls).abs() > 1e-4 * (1.0 + child_ls.abs()) {
                        return Err(format!(
                            "entry {i} of node {id}: LS[{d}] inconsistent with child"
                        ));
                    }
                }
                validate_node(
                    shard,
                    entry.child,
                    depth + 1,
                    false,
                    leaf_depths,
                    seen_points,
                )?;
            }
            Ok(())
        }
    }
}

fn all_finite(values: &[f64]) -> bool {
    values.iter().all(|v| v.is_finite())
}

#[cfg(test)]
mod tests {
    use super::*;
    use bt_stats::kernel::{GaussianKernel, Kernel};

    fn geometry() -> PageGeometry {
        PageGeometry::from_fanout(4, 4)
    }

    #[test]
    fn empty_tree_basics() {
        let tree: BayesTree = BayesTree::new(3, geometry());
        assert_eq!(tree.dims(), 3);
        assert!(tree.is_empty());
        assert_eq!(tree.height(), 1);
        assert_eq!(tree.num_nodes(), 1);
        assert!(tree.root_entries().is_empty());
        assert_eq!(tree.full_kernel_density(&[0.0, 0.0, 0.0]), 0.0);
        assert!(tree.validate(true).is_ok());
    }

    #[test]
    fn set_bandwidth_validates() {
        let mut tree: BayesTree = BayesTree::new(2, geometry());
        tree.set_bandwidth(vec![0.5, 0.25]);
        assert_eq!(tree.bandwidth(), &[0.5, 0.25]);
    }

    #[test]
    #[should_panic(expected = "bandwidths must be finite and positive")]
    fn infinite_bandwidth_panics() {
        let mut tree: BayesTree = BayesTree::new(2, geometry());
        tree.set_bandwidth(vec![f64::INFINITY, 1.0]);
    }

    #[test]
    #[should_panic(expected = "bandwidths must be finite and positive")]
    fn fit_bandwidth_rejects_a_spread_that_overflows() {
        // Silverman's rule squares the spread, which overflows to +inf.
        let mut tree: BayesTree = BayesTree::new(2, geometry());
        tree.insert_batch((0..50).map(|i| vec![f64::from(i) * 1e300, 1.0]).collect());
        tree.fit_bandwidth();
    }

    #[test]
    #[should_panic(expected = "bandwidth dimensionality mismatch")]
    fn wrong_bandwidth_dims_panics() {
        let mut tree: BayesTree = BayesTree::new(2, geometry());
        tree.set_bandwidth(vec![0.5]);
    }

    #[test]
    fn summarise_leaf_root() {
        let mut tree: BayesTree = BayesTree::new(1, geometry());
        tree.shard_mut(0).node_mut(0).items_mut().push(&[1.0]);
        tree.shard_mut(0).node_mut(0).items_mut().push(&[3.0]);
        tree.num_points = 2;
        let entries = tree.root_entries();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].weight(), 2.0);
        assert_eq!(entries[0].cf.mean(), vec![2.0]);
    }

    #[test]
    fn full_kernel_density_averages_kernels() {
        let mut tree: BayesTree = BayesTree::new(1, geometry());
        tree.shard_mut(0).node_mut(0).items_mut().push(&[-1.0]);
        tree.shard_mut(0).node_mut(0).items_mut().push(&[1.0]);
        tree.num_points = 2;
        tree.set_bandwidth(vec![1.0]);
        let d = tree.full_kernel_density(&[0.0]);
        let kernel = GaussianKernel;
        let expected = kernel.density(&[-1.0], &[0.0], &KernelBandwidth::new(vec![1.0]));
        assert!((d - expected).abs() < 1e-12);
    }

    #[test]
    fn validate_detects_wrong_point_count() {
        let mut tree: BayesTree = BayesTree::new(1, geometry());
        tree.shard_mut(0).node_mut(0).items_mut().push(&[1.0]);
        // num_points deliberately not incremented.
        let err = tree.validate(true).unwrap_err();
        assert!(err.contains("reachable"));
    }

    #[test]
    fn validate_rejects_a_planted_non_finite_value() {
        let points: Vec<Vec<f64>> = (0..40)
            .map(|i| vec![(i % 7) as f64, (i % 3) as f64])
            .collect();
        let tree: BayesTree = BayesTree::build_iterative(&points, 2, geometry());
        tree.validate(true).expect("valid before planting");
        let root = tree.shard(0).root();
        let leaf = bt_anytree::TreeView::reachable(tree.shard(0))
            .into_iter()
            .find(|&id| tree.shard(0).node(id).is_leaf())
            .expect("a leaf");

        let mut planted = tree.clone();
        planted
            .shard_mut(0)
            .node_mut(leaf)
            .items_mut()
            .set(0, 1, f64::NAN);
        let err = planted.validate(true).unwrap_err();
        assert!(err.contains("non-finite coordinate"), "{err}");

        // An entry whose CF sums and MBR corners are non-finite.
        let mut planted = tree.clone();
        let bad =
            crate::KernelSummary::from_points(&[vec![f64::INFINITY, 0.0]], 2).expect("one point");
        let entries = planted.shard_mut(0).node_mut(root).entries_mut();
        let child = entries.child(0);
        entries.replace(0, bad, child, ());
        let err = planted.validate(true).unwrap_err();
        assert!(err.contains("non-finite MBR corner or CF sum"), "{err}");
    }
}
