//! The clustering extension's instantiation of the shared anytime query
//! engine: anytime micro-cluster retrieval and density scoring.
//!
//! Two insert-free workloads run over the same index the stream writes to:
//!
//! * **Anytime k-NN micro-cluster retrieval**
//!   ([`ClusIndex::anytime_knn`]) — at budget 0 the answer is the root-level
//!   cluster summaries; every node read splits the frontier element closest
//!   to the query into finer clusters, so the returned neighbours sharpen
//!   from coarse inner aggregates to leaf micro-clusters as budget grows —
//!   retrieval *at any tree level*.  The ranking reads only centre
//!   distances, so its frontiers score through a distance-only model: one
//!   squared-distance pass per node, no kernel, no `exp`.
//! * **Anytime density scoring / outlier detection**
//!   ([`ClusIndex::anytime_density`], [`ClusIndex::outlier_score`]) — the
//!   [`ClusQueryModel`] scores a micro-cluster by the Gaussian product
//!   kernel evaluated at the cluster's *exact* per-dimension mean squared
//!   distance to the query, `E[(x_d - q_d)²] = (c_d - q_d)² + var_d`, which
//!   the cluster feature yields in closed form.  Because `exp(-t)` is convex
//!   this is a Jensen lower bound on the raw-point kernel sum, and the bound
//!   sums over any partition of the points: refining an element can only
//!   *raise* the score toward the leaf-granularity value.  Together with the
//!   box upper bound below this gives the nested `[lower, upper]` interval
//!   the engine's monotonicity contract asks for.
//!
//! The upper bound: every micro-cluster carries an MBR alongside the CF
//! ([`MicroCluster::lower`], [`MicroCluster::upper`]), so the upper bound
//! is the distance-aware `weight * K(nearest point of box)` — every
//! summarised point (and hence every child mean, by convexity) lies inside
//! the box, the product kernel decreases with per-dimension distance, and a
//! merged cluster's box is the union of its parts, so the boxes *nest* up
//! the tree exactly as the monotonicity contract requires.  (A deviation-box bound from
//! `sqrt(n·var)` looks tempting but is *not* nested: a small child's box
//! can stick out past its parent's, which would break the contract.)
//! With the MBR bound, far-away outliers are certified after few reads
//! instead of needing refinement down to leaf granularity.
//!
//! A node read is one fused pass ([`cluster_scores_block`]): the Jensen
//! kernel, both box bounds and the centre distance of every entry in one
//! walk over the gathered columns; a leaf read runs it without the box
//! lanes.
//!
//! The density model gathers each node it reads into columns
//! (`gather_clusters`) and the engine caches them per node, so density and
//! outlier reads share one gather.  The k-NN's distance-only model gathers
//! nothing: it reads each entry row's weight and centre distance where the
//! row lies, and neither fills nor needs a cache slot.
//!
//! Decay caveat: summaries are scored as stored (queries never mutate the
//! tree), so with a non-zero decay rate the bounds are exact only up to the
//! usual temporal-multiplicity approximation; with `lambda == 0` they are
//! exact.

use crate::microcluster::MicroCluster;
use crate::tree::ClusIndex;
use bt_anytree::{
    outlier_score_over, query_batch_over, query_over, refine_frontiers_over, ElementOrigin, Entry,
    NodeKind, OutlierScore, QueryAnswer, QueryCursor, QueryElement, QueryModel, QueryStats,
    RefineOrder, ShardSet, SummaryScore, TreeView,
};
use bt_stats::kernel::{
    cluster_scores_block, log_kernel_at, nearest_point_log_kernel, smoothed_farthest_log_kernel,
};
use bt_stats::{GatheredBlock, KernelBandwidth, ScoreLanes};
use std::borrow::Cow;

/// The micro-cluster query model: a smoothed Gaussian kernel score with
/// certain, monotone bounds computable from cluster features alone.
///
/// For sharded trees every shard must use the *same* global total weight, so
/// the per-shard partial scores fold by summation.
#[derive(Debug, Clone)]
pub struct ClusQueryModel {
    total_weight: f64,
    bandwidth: KernelBandwidth,
    lambda: f64,
}

impl ClusQueryModel {
    /// A model normalising by `total_weight` (clamped away from zero) with a
    /// per-dimension smoothing bandwidth.
    ///
    /// # Panics
    ///
    /// Panics if any bandwidth component is not finite and positive.
    #[must_use]
    pub fn new(total_weight: f64, bandwidth: Vec<f64>, lambda: f64) -> Self {
        assert!(
            bandwidth.iter().all(|h| h.is_finite() && *h > 0.0),
            "bandwidths must be finite and positive"
        );
        Self {
            total_weight: total_weight.max(f64::MIN_POSITIVE),
            bandwidth: KernelBandwidth::new(bandwidth),
            lambda,
        }
    }

    /// The model over a slice of core views — a tree's shards, live or
    /// pinned, or one directly driven core: normalised by the **global**
    /// stored weight across the views (so per-view partial scores fold by
    /// summation), smoothing with `bandwidth`, merging with decay rate
    /// `lambda`.
    ///
    /// # Panics
    ///
    /// Panics if the bandwidth has the wrong dimensionality or a component
    /// that is not finite and positive.
    #[must_use]
    pub fn over<V: TreeView<MicroCluster, Vec<MicroCluster>>>(
        views: &[V],
        bandwidth: &[f64],
        lambda: f64,
    ) -> Self {
        assert_eq!(
            bandwidth.len(),
            views[0].dims(),
            "bandwidth dimensionality mismatch"
        );
        let total: f64 = views.iter().map(stored_weight).sum();
        Self::new(total, bandwidth.to_vec(), lambda)
    }

    /// The global weight normaliser.
    #[must_use]
    pub fn total_weight(&self) -> f64 {
        self.total_weight
    }

    /// Log of the smoothed kernel: the Gaussian product kernel evaluated at
    /// the cluster's exact per-dimension mean squared distance to the
    /// query, `(q - m)^2 + v`, via the same [`log_kernel_at`] every other
    /// kernel evaluation in the workspace uses.  This and the two bound
    /// methods below are the scalar reference the fused block pass
    /// reproduces bit for bit.
    fn smoothed_log_kernel(&self, query: &[f64], mc: &MicroCluster) -> f64 {
        let n = mc.weight().max(f64::MIN_POSITIVE);
        let (ls, ss) = (mc.linear_sum(), mc.squared_sum());
        log_kernel_at(
            &self.bandwidth,
            (0..query.len()).map(|d| {
                let mean = ls[d] / n;
                let var = (ss[d] / n - mean * mean).max(0.0);
                (query[d] - mean) * (query[d] - mean) + var
            }),
        )
    }

    /// Log of the per-unit-weight upper bound: the product kernel at the
    /// nearest point of the cluster's MBR (distance-aware and nested, since
    /// child boxes lie inside their parent's — the shared
    /// [`nearest_point_log_kernel`] the Bayes-tree bounds also use).
    fn upper_log_kernel(&self, query: &[f64], mc: &MicroCluster) -> f64 {
        nearest_point_log_kernel(query, mc.lower(), mc.upper(), &self.bandwidth)
    }

    /// Log of the per-unit-weight lower bound: the Jensen bound
    /// ([`Self::smoothed_log_kernel`]) sharpened with the
    /// **smoothing-aware MBR floor** ([`smoothed_farthest_log_kernel`]):
    /// every summarised point lies in the box, so its distance is at most
    /// the farthest-corner distance and any descendant cluster's
    /// per-dimension variance is at most the box-confined maximum
    /// `(width/2)²`.  Both floors are certain and both nest (child boxes lie
    /// inside their parent's), so the max keeps the engine's
    /// monotone-refinement contract.
    ///
    /// Honesty note: for a cluster whose CF is *consistent* with its box
    /// (all mass inside, as with `lambda == 0`), the Jensen bound already
    /// dominates the MBR floor — the exact mean distance and variance are
    /// never worse than the corner/width caps.  The floor earns its keep as
    /// a certain backstop when decay has faded weights while the box never
    /// shrinks; it costs one more lane of the fused pass.
    fn lower_log_kernel(&self, query: &[f64], mc: &MicroCluster) -> f64 {
        let jensen = self.smoothed_log_kernel(query, mc);
        jensen.max(smoothed_farthest_log_kernel(
            query,
            mc.lower(),
            mc.upper(),
            &self.bandwidth,
        ))
    }
}

impl QueryModel<MicroCluster> for ClusQueryModel {
    type Leaf = Vec<MicroCluster>;

    fn summary_contribution(&self, query: &[f64], summary: &MicroCluster) -> f64 {
        summary.weight() / self.total_weight * self.smoothed_log_kernel(query, summary).exp()
    }

    fn summary_bounds(&self, query: &[f64], summary: &MicroCluster) -> (f64, f64) {
        let scale = summary.weight() / self.total_weight;
        (
            scale * self.lower_log_kernel(query, summary).exp(),
            scale * self.upper_log_kernel(query, summary).exp(),
        )
    }

    fn leaf_contribution(&self, query: &[f64], leaf: &Vec<MicroCluster>, index: usize) -> f64 {
        self.summary_contribution(query, &leaf[index])
    }

    fn leaf_sq_dist(&self, query: &[f64], leaf: &Vec<MicroCluster>, index: usize) -> f64 {
        leaf[index].sq_dist_to(query)
    }

    fn leaf_weight(&self, leaf: &Vec<MicroCluster>, index: usize) -> f64 {
        leaf[index].weight()
    }

    fn summarize_leaf_items(&self, items: &Vec<MicroCluster>) -> MicroCluster {
        summarize_clusters(items, self.lambda)
    }

    /// Block gather (`gather_clusters`): weights, smoothed means and
    /// variances, routing centres and MBR corners, so
    /// [`QueryModel::score_gathered`] scores the node in one fused pass.
    fn gather_entries(&self, entries: &Vec<Entry<MicroCluster>>, out: &mut GatheredBlock) -> bool {
        gather_clusters(entries.iter().map(|e| &e.summary), true, out);
        true
    }

    /// Block scoring over gathered columns: one fused pass
    /// ([`cluster_scores_block`]) yields the Jensen kernel, both MBR bounds
    /// and the geometric priority of every entry, bit-identical to the
    /// per-summary reference.
    fn score_gathered(
        &self,
        query: &[f64],
        _entries: &Vec<Entry<MicroCluster>>,
        gathered: &GatheredBlock,
        lanes: &mut ScoreLanes,
        out: &mut Vec<SummaryScore>,
    ) {
        let lanes = lanes.first_chunk_mut().expect("six score lanes");
        cluster_scores_block::<true>(query, &self.bandwidth, gathered, lanes);
        let [jensen, far, near, dist] = &*lanes;
        let weights = gathered.block.weights();
        out.clear();
        out.extend(weights.iter().enumerate().map(|(i, &weight)| {
            let scale = weight / self.total_weight;
            SummaryScore {
                weight,
                contribution: scale * jensen[i].exp(),
                lower: scale * jensen[i].max(far[i]).exp(),
                upper: scale * near[i].exp(),
                min_dist_sq: dist[i],
            }
        }));
    }

    /// Leaf block gather: leaf items are micro-clusters, so the gather is
    /// the entry gather minus the box columns — leaves are exact, their
    /// bounds collapse onto the contribution and never touch a box kernel.
    fn gather_leaf_items(&self, items: &Vec<MicroCluster>, out: &mut GatheredBlock) -> bool {
        gather_clusters(items.iter(), false, out);
        true
    }

    /// Leaf block scoring: the fused pass without its box lanes scores
    /// every leaf micro-cluster at once, bit-identically to the per-item
    /// scalar loop.
    fn score_gathered_leaves(
        &self,
        query: &[f64],
        _items: &Vec<MicroCluster>,
        gathered: &GatheredBlock,
        lanes: &mut ScoreLanes,
        out: &mut Vec<SummaryScore>,
    ) {
        let lanes = lanes.first_chunk_mut().expect("six score lanes");
        cluster_scores_block::<false>(query, &self.bandwidth, gathered, lanes);
        let [jensen, _, _, dist] = &*lanes;
        let weights = gathered.block.weights();
        out.clear();
        out.extend(weights.iter().enumerate().map(|(i, &weight)| {
            let contribution = weight / self.total_weight * jensen[i].exp();
            SummaryScore {
                weight,
                contribution,
                lower: contribution,
                upper: contribution,
                min_dist_sq: dist[i],
            }
        }));
    }
}

/// The summary of a whole leaf: its micro-clusters merged with decay rate
/// `lambda`.
fn summarize_clusters(items: &[MicroCluster], lambda: f64) -> MicroCluster {
    let mut summary = items[0].clone();
    for mc in &items[1..] {
        summary.merge(mc, lambda);
    }
    summary
}

/// Packs micro-clusters into the structure-of-arrays block: weights,
/// smoothed means and variances, routing centres and, with `boxes`, MBR
/// corners — the gather [`ClusQueryModel`] scores, so a cached block serves
/// density and outlier reads alike.  The block takes the clusters' own
/// dimensionality, never a model's.
///
/// The gather replicates the scalar arithmetic exactly (`ls / n` for the
/// smoothed mean, `ls * (1/n)` for the routing centre — different
/// roundings, hence two column sets; variance floored at `0.0`, not the
/// Gaussian floor), and it is a pure function of the clusters — the engine
/// caches it per node until the node's next write.
fn gather_clusters<'a>(
    clusters: impl ExactSizeIterator<Item = &'a MicroCluster> + Clone,
    boxes: bool,
    out: &mut GatheredBlock,
) {
    let len = clusters.len();
    let dims = clusters.clone().next().map_or(0, MicroCluster::dims);
    let block = &mut out.block;
    block.reset(dims, len);
    block.enable_vars();
    out.centers.clear();
    out.centers.resize(dims * len, 0.0);
    if boxes {
        block.enable_boxes();
    }
    for (i, mc) in clusters.enumerate() {
        block.set_weight(i, mc.weight());
        let n = mc.weight().max(f64::MIN_POSITIVE);
        let (ls, ss) = (mc.linear_sum(), mc.squared_sum());
        for d in 0..dims {
            let mean = ls[d] / n;
            let var = (ss[d] / n - mean * mean).max(0.0);
            block.set_mean(d, i, mean);
            block.set_var(d, i, var);
        }
        if !mc.is_empty() {
            let inv_n = 1.0 / mc.weight();
            for (d, &l) in ls.iter().enumerate() {
                out.centers[d * len + i] = l * inv_n;
            }
        }
        if boxes {
            let (lo, hi) = (mc.lower(), mc.upper());
            for d in 0..dims {
                block.set_lower(d, i, lo[d]);
                block.set_upper(d, i, hi[d]);
            }
        }
    }
}

/// The k-NN scoring model: every element's score is its weight and its
/// centre distance, the only lanes [`knn_over`] ranks by.
///
/// A closest-first refinement reads no estimate and no bound, so this model
/// skips [`ClusQueryModel`]'s Jensen kernel, both box kernels and their
/// `exp`s — and needs no bandwidth and no weight normaliser.  Contributions
/// and bounds are `0.0`.  It gathers nothing: the engine's per-summary
/// reference reads each entry's or leaf item's weight and
/// [`MicroCluster::sq_dist_to`] from its row, which are the density model's
/// weights and centre distances bit for bit, and a block another model
/// cached is never read.
#[derive(Debug, Clone, Copy)]
struct DistanceModel {
    lambda: f64,
}

impl QueryModel<MicroCluster> for DistanceModel {
    type Leaf = Vec<MicroCluster>;

    fn summary_contribution(&self, _query: &[f64], _summary: &MicroCluster) -> f64 {
        0.0
    }

    fn summary_bounds(&self, _query: &[f64], _summary: &MicroCluster) -> (f64, f64) {
        (0.0, 0.0)
    }

    fn leaf_contribution(&self, _query: &[f64], _leaf: &Vec<MicroCluster>, _index: usize) -> f64 {
        0.0
    }

    fn leaf_sq_dist(&self, query: &[f64], leaf: &Vec<MicroCluster>, index: usize) -> f64 {
        leaf[index].sq_dist_to(query)
    }

    fn leaf_weight(&self, leaf: &Vec<MicroCluster>, index: usize) -> f64 {
        leaf[index].weight()
    }

    fn summarize_leaf_items(&self, items: &Vec<MicroCluster>) -> MicroCluster {
        summarize_clusters(items, self.lambda)
    }
}

/// One retrieved neighbour: a micro-cluster (or inner aggregate) at the
/// frontier's current granularity.
#[derive(Debug, Clone)]
pub struct ClusterNeighbor {
    /// Centre of the cluster.
    pub center: Vec<f64>,
    /// (Stored, undecayed) weight of the cluster.
    pub weight: f64,
    /// RMS radius of the cluster.
    pub radius: f64,
    /// Squared distance from the query to the cluster centre.
    pub sq_dist: f64,
    /// Depth of the cluster's frontier element (1 = root level).
    pub depth: usize,
    /// Whether the cluster could be refined further with more budget.
    pub refinable: bool,
}

/// The (budget-dependent) answer of one anytime k-NN retrieval.
#[derive(Debug, Clone)]
pub struct KnnAnswer {
    /// The up-to-`k` closest clusters at the reached granularity, sorted by
    /// ascending centre distance.
    pub neighbors: Vec<ClusterNeighbor>,
    /// Refinement steps (node reads) the retrieval spent.
    pub nodes_read: usize,
}

/// Total stored weight at root level of one core tree view (entry summaries
/// cover their subtrees *and* their buffers, so this is everything) — live
/// trees and pinned snapshots alike.
fn stored_weight<V: TreeView<MicroCluster, Vec<MicroCluster>>>(core: &V) -> f64 {
    match &core.node(core.root()).kind {
        NodeKind::Inner { entries } => entries.iter().map(|e| e.summary.weight()).sum(),
        NodeKind::Leaf { items } => items.iter().map(MicroCluster::weight).sum(),
    }
}

/// The micro-cluster behind a frontier element, borrowed from the view —
/// only a root that is itself a leaf has no stored summary, and gets one
/// merged with decay rate `lambda`.
fn element_cluster<'v, V: TreeView<MicroCluster, Vec<MicroCluster>>>(
    core: &'v V,
    lambda: f64,
    element: &QueryElement,
) -> Cow<'v, MicroCluster> {
    match element.origin {
        ElementOrigin::Entry { node, index } => {
            Cow::Borrowed(&core.node(node).entries()[index].summary)
        }
        ElementOrigin::Buffer { node, index } => Cow::Borrowed(
            core.node(node).entries()[index]
                .buffer
                .as_ref()
                .expect("buffer element refers to an occupied buffer"),
        ),
        ElementOrigin::LeafItem { node, index } => Cow::Borrowed(&core.node(node).items()[index]),
        ElementOrigin::RootLeaf => {
            Cow::Owned(summarize_clusters(core.node(core.root()).items(), lambda))
        }
    }
}

/// Anytime k-NN micro-cluster retrieval over a slice of views — the one
/// k-NN fold every tree runs, live or pinned, over its shards (or over one
/// directly driven core as the one-view slice): each view's frontier
/// refines closest-first for up to `budget` node reads
/// ([`refine_frontiers_over`]), then the frontier elements of all views
/// are ranked together and the `k` closest clusters returned, ties in
/// view and frontier order.
///
/// The ranking reads nothing but centre distances, so the frontiers score
/// through a distance-only model: of `model` only the decay rate is used
/// (to summarise a root that is itself a leaf), and its bandwidth and
/// normaliser do not change the answer.  The frontiers read rows where
/// they lie: no node is gathered and no cache slot filled.
///
/// # Panics
///
/// Panics if the query has the wrong dimensionality or a NaN coordinate.
#[must_use]
pub fn knn_over<V: TreeView<MicroCluster, Vec<MicroCluster>> + Sync>(
    views: &[V],
    model: &ClusQueryModel,
    x: &[f64],
    k: usize,
    budget: usize,
) -> KnnAnswer {
    knn_with_decay(views, model.lambda, x, k, budget)
}

/// [`knn_over`] for a tree's own decay rate — what `anytime_knn` runs,
/// without building a density model.
pub(crate) fn knn_with_decay<V: TreeView<MicroCluster, Vec<MicroCluster>> + Sync>(
    views: &[V],
    lambda: f64,
    x: &[f64],
    k: usize,
    budget: usize,
) -> KnnAnswer {
    let model = DistanceModel { lambda };
    refine_frontiers_over(
        views,
        &model,
        x,
        RefineOrder::ClosestFirst,
        budget,
        |cursors| {
            // At most the whole frontier, so the kept buffer is sized once.
            let frontier = cursors.iter().map(|c| c.elements().len()).sum();
            let ranked = nearest_k(
                views
                    .iter()
                    .zip(cursors)
                    .flat_map(|(view, cursor)| cursor.elements().iter().map(move |e| (view, e))),
                k.min(frontier),
                |(_, element)| element.min_dist_sq,
            );
            let neighbors = ranked
                .into_iter()
                .map(|(view, element)| {
                    let mc = element_cluster(view, lambda, element);
                    ClusterNeighbor {
                        center: mc.center(),
                        weight: mc.weight(),
                        radius: mc.radius(),
                        sq_dist: element.min_dist_sq,
                        depth: element.depth,
                        refinable: element.is_refinable(),
                    }
                })
                .collect();
            KnnAnswer {
                neighbors,
                nodes_read: cursors.iter().map(QueryCursor::nodes_read).sum(),
            }
        },
    )
}

/// The first `k` of `items` stably sorted by ascending `key` — what
/// collecting, `sort_by` on `partial_cmp` and `truncate(k)` return, ties
/// in input order — kept in one insertion pass over a buffer of at most
/// `k` items: an item goes after every kept item it does not strictly
/// precede, and one that would land at position `k` is dropped.
pub(crate) fn nearest_k<T>(
    items: impl IntoIterator<Item = T>,
    k: usize,
    key: impl Fn(&T) -> f64,
) -> Vec<T> {
    // `partial_cmp(..) == Less`, the only order the sort acts on.
    let precedes = |a: f64, b: f64| a < b;
    let mut kept: Vec<T> = Vec::with_capacity(k);
    if k == 0 {
        return kept;
    }
    for item in items {
        let d = key(&item);
        if kept.len() == k && !precedes(d, key(&kept[k - 1])) {
            continue;
        }
        let at = kept
            .iter()
            .position(|t| precedes(d, key(t)))
            .unwrap_or(kept.len());
        if kept.len() == k {
            kept.pop();
        }
        kept.insert(at, item);
    }
    kept
}

impl<C: ShardSet<MicroCluster, Vec<MicroCluster>>> ClusIndex<C> {
    /// The micro-cluster query model of this tree: normalised by the
    /// **global** stored weight across all shards (so per-shard partial
    /// scores fold by summation), smoothing with `bandwidth`, merging with
    /// the tree's decay rate.
    ///
    /// # Panics
    ///
    /// Panics if the bandwidth has the wrong dimensionality or a component
    /// that is not finite and positive.
    #[must_use]
    pub fn query_model(&self, bandwidth: &[f64]) -> ClusQueryModel {
        ClusQueryModel::over(self.core.shards(), bandwidth, self.config.decay_lambda)
    }

    /// Budget-bracketed anytime density score: refines every shard's
    /// frontier in the given order for up to `budget` node reads (in
    /// parallel across busy shards) and returns the folded smoothed-kernel
    /// score with its certain `[lower, upper]` bounds.
    ///
    /// # Panics
    ///
    /// Panics if the query or bandwidth has the wrong dimensionality, or if
    /// the query has a NaN coordinate.
    #[must_use]
    pub fn anytime_density(
        &self,
        x: &[f64],
        bandwidth: &[f64],
        order: RefineOrder,
        budget: usize,
    ) -> QueryAnswer {
        let model = self.query_model(bandwidth);
        query_over(self.core.shards(), &model, x, order, budget)
    }

    /// Refines a batch of density queries through one reused cursor per
    /// shard and folds the partials per query.
    ///
    /// # Panics
    ///
    /// Panics if any query or the bandwidth has the wrong dimensionality,
    /// or if a query has a NaN coordinate.
    #[must_use]
    pub fn density_batch(
        &self,
        queries: &[Vec<f64>],
        bandwidth: &[f64],
        order: RefineOrder,
        budget: usize,
    ) -> (Vec<QueryAnswer>, QueryStats) {
        let model = self.query_model(bandwidth);
        query_batch_over(self.core.shards(), &model, queries, order, budget)
    }

    /// Anytime k-NN micro-cluster retrieval: refines every shard's frontier
    /// closest-first for up to `budget` node reads, ranks the shards'
    /// frontiers together and returns the `k` clusters nearest to `x` at
    /// the reached granularity — root-level aggregates at budget 0, leaf
    /// micro-clusters once the neighbourhood is fully refined.
    ///
    /// # Panics
    ///
    /// Panics if the query has the wrong dimensionality or a NaN
    /// coordinate.
    #[must_use]
    pub fn anytime_knn(&self, x: &[f64], k: usize, budget: usize) -> KnnAnswer {
        knn_with_decay(self.core.shards(), self.config.decay_lambda, x, k, budget)
    }

    /// Anytime outlier scoring against a density `threshold` (widest bound
    /// first, early exit once the verdict of the folded interval is
    /// certain).
    ///
    /// # Panics
    ///
    /// Panics if the query or bandwidth has the wrong dimensionality, or if
    /// the query has a NaN coordinate.
    #[must_use]
    pub fn outlier_score(
        &self,
        x: &[f64],
        bandwidth: &[f64],
        threshold: f64,
        budget: usize,
    ) -> OutlierScore {
        let model = self.query_model(bandwidth);
        outlier_score_over(self.core.shards(), &model, x, threshold, budget)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::ClusTree;
    use crate::tree::ClusTreeConfig;
    use bt_anytree::OutlierVerdict;
    use bt_stats::BlockScratch;

    fn two_cluster_tree(n: usize, budget: usize) -> ClusTree {
        let mut tree = ClusTree::new(2, ClusTreeConfig::default());
        for i in 0..n {
            let c = if i % 2 == 0 { 0.0 } else { 20.0 };
            let jitter = (i % 9) as f64 * 0.1;
            tree.insert(&[c + jitter, c - jitter], i as f64, budget);
        }
        tree
    }

    /// Sort-then-truncate, as the retrieval ranked before `nearest_k`.
    fn sorted_prefix(keys: &[f64], k: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..keys.len()).collect();
        order.sort_by(|&a, &b| {
            keys[a]
                .partial_cmp(&keys[b])
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        order.truncate(k);
        order
    }

    #[test]
    fn nearest_k_equals_the_stable_sorted_prefix() {
        let mut state = 0x9E37_79B9_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            state >> 33
        };
        for len in 0..40 {
            for levels in [1u64, 3, 1000] {
                // Few levels: long runs of equal keys; `inf` ties too.
                let keys: Vec<f64> = (0..len)
                    .map(|_| match next() % levels {
                        0 if levels > 1 => f64::INFINITY,
                        v => v as f64 * 0.25,
                    })
                    .collect();
                for k in [0, 1, 2, 5, len / 2, len, len + 3] {
                    let got = nearest_k(0..len, k, |&i| keys[i]);
                    assert_eq!(got, sorted_prefix(&keys, k), "len {len} k {k} {keys:?}");
                }
            }
        }
    }

    #[test]
    fn knn_at_budget_zero_returns_root_level_clusters() {
        let tree = two_cluster_tree(300, 10);
        assert!(tree.height() > 1);
        let answer = tree.anytime_knn(&[0.0, 0.0], 2, 0);
        assert_eq!(answer.nodes_read, 0);
        assert!(!answer.neighbors.is_empty());
        for n in &answer.neighbors {
            assert_eq!(n.depth, 1, "budget 0 must stay at root level");
        }
    }

    #[test]
    fn knn_sharpens_with_budget() {
        let tree = two_cluster_tree(400, 10);
        let query = [0.3, -0.3];
        let coarse = tree.anytime_knn(&query, 1, 0);
        let fine = tree.anytime_knn(&query, 1, 200);
        // The closest cluster after refinement is at least as close and at
        // least as deep as the coarse answer.
        assert!(fine.neighbors[0].sq_dist <= coarse.neighbors[0].sq_dist + 1e-9);
        assert!(fine.neighbors[0].depth >= coarse.neighbors[0].depth);
        // Fully refined near the query: the best neighbour is a leaf-level
        // micro-cluster in the low cluster.
        assert!(fine.neighbors[0].center[0] < 10.0);
    }

    #[test]
    fn knn_ranks_by_distance_and_caps_at_k() {
        let tree = two_cluster_tree(300, 10);
        let answer = tree.anytime_knn(&[20.0, 19.0], 3, 50);
        assert!(answer.neighbors.len() <= 3);
        for pair in answer.neighbors.windows(2) {
            assert!(pair[0].sq_dist <= pair[1].sq_dist);
        }
        // The nearest neighbour belongs to the high cluster.
        assert!(answer.neighbors[0].center[0] > 10.0);
    }

    #[test]
    fn density_bounds_tighten_monotonically() {
        let tree = two_cluster_tree(400, 8);
        let bandwidth = [2.0, 2.0];
        let query = [1.0, -1.0];
        let mut last = f64::INFINITY;
        let mut last_lower = 0.0;
        for budget in [0usize, 1, 2, 4, 8, 16, 64, usize::MAX] {
            let answer = tree.anytime_density(&query, &bandwidth, RefineOrder::WidestBound, budget);
            assert!(answer.lower <= answer.upper + 1e-12);
            assert!(
                answer.lower >= last_lower - 1e-12,
                "budget {budget}: lower bound regressed"
            );
            assert!(
                answer.uncertainty() <= last + 1e-12,
                "budget {budget}: uncertainty grew"
            );
            last = answer.uncertainty();
            last_lower = answer.lower;
        }
    }

    #[test]
    fn parked_mass_is_covered_by_the_frontier() {
        // Insert with tiny budgets so hitchhiker buffers hold real mass.
        let tree = two_cluster_tree(300, 1);
        let model = tree.query_model(&[1.0, 1.0]);
        let mut cursor = tree.shard(0).new_query(&model, &[0.0, 0.0]);
        while tree
            .shard(0)
            .refine_query(&model, RefineOrder::BreadthFirst, &mut cursor)
        {}
        assert!((cursor.total_weight() - 300.0).abs() < 1e-6);
    }

    #[test]
    fn outlier_verdicts_are_certain_for_clear_cases() {
        let tree = two_cluster_tree(400, 10);
        let bandwidth = [1.0, 1.0];
        let far = tree.outlier_score(&[500.0, 500.0], &bandwidth, 1e-6, 10_000);
        assert_eq!(far.verdict, OutlierVerdict::Outlier);
        let near = tree.outlier_score(&[0.2, -0.2], &bandwidth, 1e-6, 10_000);
        assert_eq!(near.verdict, OutlierVerdict::Inlier);
    }

    #[test]
    fn block_scores_match_the_scalar_reference_bitwise() {
        let tree = two_cluster_tree(400, 10);
        let model = tree.query_model(&[1.5, 0.8]);
        let mut scratch = BlockScratch::new();
        let mut scores = Vec::new();
        let mut inner_nodes = 0;
        for query in [[0.4, -0.2], [20.0, 19.5], [10.0, 10.0], [-80.0, 120.0]] {
            for id in TreeView::reachable(tree.shard(0)) {
                let node = tree.shard(0).node(id);
                let NodeKind::Inner { entries } = &node.kind else {
                    continue;
                };
                inner_nodes += 1;
                model.score_entries(&query, entries, &mut scratch, &mut scores);
                assert_eq!(scores.len(), entries.len());
                for (entry, score) in entries.iter().zip(&scores) {
                    let summary = &entry.summary;
                    let (lower, upper) = model.summary_bounds(&query, summary);
                    assert_eq!(score.weight.to_bits(), summary.weight().to_bits());
                    assert_eq!(
                        score.contribution.to_bits(),
                        model.summary_contribution(&query, summary).to_bits()
                    );
                    assert_eq!(score.lower.to_bits(), lower.to_bits());
                    assert_eq!(score.upper.to_bits(), upper.to_bits());
                    assert_eq!(
                        score.min_dist_sq.to_bits(),
                        model.summary_sq_dist(&query, summary).to_bits()
                    );
                }
            }
        }
        assert!(inner_nodes > 0, "tree too small to exercise the block path");
    }

    #[test]
    fn smoothed_mbr_floor_keeps_the_lower_bound_sound_and_monotone() {
        // Same contract as density_bounds_tighten_monotonically, but checked
        // against the fully refined value: the sharpened lower bound must
        // never overshoot it at any budget.
        let tree = two_cluster_tree(400, 10);
        let bandwidth = [1.0, 1.0];
        for query in [[0.5, 0.5], [10.0, 10.0], [40.0, -7.0]] {
            let exact =
                tree.anytime_density(&query, &bandwidth, RefineOrder::WidestBound, usize::MAX);
            for budget in [0usize, 1, 3, 9, 27] {
                let partial =
                    tree.anytime_density(&query, &bandwidth, RefineOrder::WidestBound, budget);
                assert!(
                    partial.lower <= exact.estimate + 1e-12,
                    "budget {budget}: lower bound {} overshoots refined value {}",
                    partial.lower,
                    exact.estimate
                );
                assert!(partial.upper + 1e-12 >= exact.estimate);
            }
        }
    }

    #[test]
    #[should_panic(expected = "bandwidths must be finite and positive")]
    fn infinite_bandwidth_is_rejected_by_the_model() {
        let _ = ClusQueryModel::new(10.0, vec![f64::INFINITY, 1.0], 0.0);
    }

    #[test]
    #[should_panic(expected = "bandwidths must be finite and positive")]
    fn infinite_bandwidth_is_rejected_by_the_tree_queries() {
        // An infinite bandwidth scores an estimate outside the certified
        // interval.
        let tree = two_cluster_tree(50, 10);
        let _ = tree.anytime_density(
            &[0.0, 0.0],
            &[f64::INFINITY, 1.0],
            RefineOrder::BestFirst,
            2,
        );
    }

    #[test]
    #[should_panic(expected = "bandwidth dimensionality")]
    fn too_long_bandwidth_is_rejected_by_a_direct_model() {
        // The third component used to be ignored silently: the answer was
        // the two-component bandwidth's.
        let tree = two_cluster_tree(300, 10);
        let model = ClusQueryModel::new(tree.total_weight(), vec![1.0, 1.0, 5.0], 0.0);
        let _ = query_over(
            tree.shards(),
            &model,
            &[1.0, 1.0],
            RefineOrder::WidestBound,
            5,
        );
    }

    #[test]
    #[should_panic(expected = "bandwidth dimensionality")]
    fn too_short_bandwidth_is_rejected_by_a_direct_model() {
        // This one used to panic with an index error.
        let tree = two_cluster_tree(300, 10);
        let model = ClusQueryModel::new(tree.total_weight(), vec![1.0], 0.0);
        let _ = query_over(
            tree.shards(),
            &model,
            &[1.0, 1.0],
            RefineOrder::WidestBound,
            5,
        );
    }

    #[test]
    fn density_batch_matches_one_shot() {
        let tree = two_cluster_tree(200, 10);
        let bandwidth = [1.5, 1.5];
        let queries = vec![vec![0.0, 0.0], vec![20.0, -20.0]];
        let (answers, stats) = tree.density_batch(&queries, &bandwidth, RefineOrder::BestFirst, 6);
        assert_eq!(stats.queries, 2);
        for (answer, q) in answers.iter().zip(&queries) {
            assert_eq!(
                *answer,
                tree.anytime_density(q, &bandwidth, RefineOrder::BestFirst, 6)
            );
        }
    }

    #[test]
    #[should_panic(expected = "query coordinates must not be NaN")]
    fn nan_query_is_rejected_by_outlier_scoring() {
        let tree = two_cluster_tree(200, 10);
        let _ = tree.outlier_score(&[f64::NAN, 1.0], &[1.0, 1.0], 1.0, 8);
    }

    #[test]
    #[should_panic(expected = "query coordinates must not be NaN")]
    fn nan_query_is_rejected_by_knn() {
        // Without the check the retrieval spent its whole budget and
        // returned neighbours at `sq_dist: NaN`.
        let tree = two_cluster_tree(200, 10);
        let _ = tree.anytime_knn(&[f64::NAN, 1.0], 3, 8);
    }

    #[test]
    #[should_panic(expected = "query coordinates must not be NaN")]
    fn one_nan_query_rejects_a_density_batch() {
        let tree = two_cluster_tree(200, 10);
        let queries = vec![vec![0.0, 0.0], vec![1.0, f64::NAN], vec![20.0, 20.0]];
        let _ = tree.density_batch(&queries, &[1.5, 1.5], RefineOrder::BestFirst, 6);
    }

    #[test]
    fn infinite_query_stays_valid() {
        let tree = two_cluster_tree(200, 10);
        let score = tree.outlier_score(&[f64::NEG_INFINITY, 1.0], &[1.0, 1.0], 1e-6, 8);
        assert_eq!(score.verdict, OutlierVerdict::Outlier);
        let knn = tree.anytime_knn(&[f64::INFINITY, 1.0], 2, 8);
        assert!(knn.neighbors.iter().all(|n| n.sq_dist == f64::INFINITY));
    }
}
