//! The Bayes tree's payload and node types, instantiated from the shared
//! [`bt_anytree`] core.
//!
//! Definition 1 of the paper: an entry `e_s` stores the minimum bounding
//! rectangle of the objects in its subtree, a pointer to the subtree, and the
//! cluster feature `CF = (n_s, LS, SS)` of those objects.  From the CF the
//! mean and variance of the subtree's Gaussian are derived, which is what
//! makes every *frontier* of entries a complete Gaussian mixture model.
//!
//! Here that payload is [`KernelSummary`]: the box and the cluster feature
//! in `f64`.  The arena and nodes are the generic ones of [`bt_anytree`],
//! specialised to it.  A directory node stores its entries in one
//! dimension-major block ([`EntryColumns`]: the payload plus the derived
//! mean and variance lanes the node pass reads); one entry materialises as
//! an [`Entry`], which dereferences to its summary, so the familiar
//! `entry.mbr` / `entry.cf` field access works on it.

pub use crate::directory::EntryColumns;
use crate::leaf::PointColumns;
use bt_anytree::{Directory, Summary};
use bt_index::Mbr;
use bt_stats::kernel::{cf_log_terms, farthest_point_log_kernel, nearest_point_log_kernel};
use bt_stats::{ClusterFeature, DiagGaussian, KernelBandwidth};

/// Arena index of a node within its tree.
pub type NodeId = bt_anytree::NodeId;

/// The Bayes tree's payload: the MBR and cluster feature of one subtree
/// (Definition 1).
#[derive(Debug)]
pub struct KernelSummary {
    /// Minimum bounding rectangle of all objects stored below.
    pub mbr: Mbr,
    /// Cluster feature `(n, LS, SS)` of all objects stored below.
    pub cf: ClusterFeature,
}

impl Clone for KernelSummary {
    fn clone(&self) -> Self {
        Self {
            mbr: self.mbr.clone(),
            cf: self.cf.clone(),
        }
    }

    /// Field-wise, so a recycled summary keeps its four buffers.
    fn clone_from(&mut self, source: &Self) {
        self.mbr.clone_from(&source.mbr);
        self.cf.clone_from(&source.cf);
    }
}

impl KernelSummary {
    /// The summary of a single kernel centre.
    #[must_use]
    pub fn from_point(point: &[f64]) -> Self {
        Self {
            mbr: Mbr::from_point(point),
            cf: ClusterFeature::from_point(point),
        }
    }

    /// The summary of a set of kernel centres, or `None` when empty.
    #[must_use]
    pub fn from_points(points: &[Vec<f64>], dims: usize) -> Option<Self> {
        let mbr = Mbr::from_points(points.iter().map(Vec::as_slice))?;
        let cf = ClusterFeature::from_points(points.iter().map(Vec::as_slice), dims);
        Some(Self { mbr, cf })
    }

    /// The summary of a leaf's kernel centres, or `None` when empty.  Each
    /// column is folded in point order from the values the per-point
    /// updates of [`Self::from_points`] start at (the first point's
    /// corners, zero sums), so both give the same bits.  Four columns fold
    /// side by side, so their four dependency chains overlap.
    #[must_use]
    pub fn from_leaf(leaf: &PointColumns) -> Option<Self> {
        if leaf.is_empty() {
            return None;
        }
        let dims = leaf.dims();
        let (mut lo, mut hi) = (vec![0.0; dims], vec![0.0; dims]);
        let (mut ls, mut ss) = (vec![0.0; dims], vec![0.0; dims]);
        for d0 in (0..dims).step_by(4) {
            let width = (dims - d0).min(4);
            // A group narrower than four repeats its last column.
            let columns: [&[f64]; 4] = std::array::from_fn(|k| leaf.column(d0 + k.min(width - 1)));
            let mut min = columns.map(|column| column[0]);
            let mut max = min;
            let (mut sum, mut sq) = ([0.0; 4], [0.0; 4]);
            for i in 0..leaf.len() {
                let point = columns.map(|column| column[i]);
                for (k, x) in point.into_iter().enumerate() {
                    min[k] = min[k].min(x);
                    max[k] = max[k].max(x);
                    sum[k] += x;
                    sq[k] += x * x;
                }
            }
            let group = d0..d0 + width;
            lo[group.clone()].copy_from_slice(&min[..width]);
            hi[group.clone()].copy_from_slice(&max[..width]);
            ls[group.clone()].copy_from_slice(&sum[..width]);
            ss[group].copy_from_slice(&sq[..width]);
        }
        Some(Self {
            mbr: Mbr::new(lo, hi),
            cf: ClusterFeature::from_parts(leaf.len() as f64, ls, ss),
        })
    }

    /// The Gaussian `N(LS/n, SS/n - (LS/n)^2)` this summary contributes to
    /// any mixture model containing it.
    #[must_use]
    pub fn gaussian(&self) -> DiagGaussian {
        self.cf.to_gaussian()
    }

    /// Absorbs a single new point into the summary (used on the insertion
    /// path: every ancestor entry of the target leaf is updated).
    pub fn absorb_point(&mut self, point: &[f64]) {
        self.mbr.extend_point(point);
        self.cf.insert(point);
    }

    /// The log product-kernel at the farthest and nearest point of this
    /// summary's box — `(farthest, nearest)`, the box sides of the certain
    /// bound interval.
    #[must_use]
    pub(crate) fn bound_log_kernels(
        &self,
        query: &[f64],
        bandwidth: &KernelBandwidth,
    ) -> (f64, f64) {
        let (lower, upper) = (self.mbr.lower(), self.mbr.upper());
        (
            farthest_point_log_kernel(query, lower, upper, bandwidth),
            nearest_point_log_kernel(query, lower, upper, bandwidth),
        )
    }

    /// The `(jensen, magnitude)` cluster-feature log terms
    /// ([`cf_log_terms`]) of the mean and raw variance — what the fused
    /// node pass computes for this summary, bit for bit.
    #[must_use]
    pub(crate) fn cf_log_terms(&self, query: &[f64], bandwidth: &KernelBandwidth) -> (f64, f64) {
        cf_log_terms(query, self.cf.raw_moments(), bandwidth)
    }
}

impl Summary for KernelSummary {
    type Ctx = ();
    type Dir = EntryColumns;

    fn merge(&mut self, other: &Self, _ctx: ()) {
        self.mbr.extend_mbr(&other.mbr);
        self.cf.merge(&other.cf);
    }

    fn weight(&self) -> f64 {
        self.cf.weight()
    }

    fn sq_dist_to(&self, point: &[f64]) -> f64 {
        // MINDIST to the stored box — keeps shard routing and refinement
        // ordering consistent with descent.
        self.mbr.min_dist_sq(point)
    }

    fn center(&self) -> Vec<f64> {
        self.cf.mean()
    }
}

/// A directory entry materialised from its node's block: the aggregated
/// description of one subtree and its child (Definition 1).  Dereferences
/// to its summary (`entry.mbr`, `entry.cf`, `entry.gaussian()`).
#[derive(Debug, Clone)]
pub struct Entry {
    /// Box and cluster feature of everything stored below.
    pub summary: KernelSummary,
    /// Arena index of the child node.
    pub child: NodeId,
}

impl Entry {
    /// Number of points summarised by this entry.
    #[must_use]
    pub fn weight(&self) -> f64 {
        self.summary.weight()
    }
}

impl std::ops::Deref for Entry {
    type Target = KernelSummary;
    fn deref(&self) -> &KernelSummary {
        &self.summary
    }
}

/// Every entry of a directory block, materialised in entry order.
#[must_use]
pub fn block_entries(entries: &EntryColumns) -> Vec<Entry> {
    (0..entries.len())
        .map(|i| Entry {
            summary: entries.entry_summary(i),
            child: entries.child(i),
        })
        .collect()
}

/// A directory block holding `entries` in order.
#[must_use]
pub fn entries_block(entries: &[Entry]) -> EntryColumns {
    EntryColumns::from_entries(
        entries
            .iter()
            .map(|e| (e.summary.clone(), e.child))
            .collect(),
    )
}

/// The payload of a node: either raw observations (leaf) or entries (inner).
pub type NodeKind = bt_anytree::NodeKind<KernelSummary, PointColumns>;

/// One node of the Bayes tree.
pub type Node = bt_anytree::Node<KernelSummary, PointColumns>;

/// The MBR of everything stored in `node`, or `None` when empty: leaves
/// aggregate their points, inner nodes fold their entries' boxes, so the
/// result is the box a parent entry's box must enclose.
#[must_use]
pub fn node_mbr(node: &Node) -> Option<Mbr> {
    match &node.kind {
        bt_anytree::NodeKind::Leaf { items } => KernelSummary::from_leaf(items).map(|s| s.mbr),
        bt_anytree::NodeKind::Inner { entries } => {
            (!entries.is_empty()).then(|| entries.summarize(()).mbr)
        }
    }
}

/// The cluster feature of everything stored in `node`.
#[must_use]
pub fn node_cluster_feature(node: &Node, dims: usize) -> ClusterFeature {
    match &node.kind {
        bt_anytree::NodeKind::Leaf { items } => {
            KernelSummary::from_leaf(items).map_or_else(|| ClusterFeature::empty(dims), |s| s.cf)
        }
        bt_anytree::NodeKind::Inner { entries } => {
            let mut cf = ClusterFeature::empty(dims);
            for i in 0..entries.len() {
                cf.merge(&entries.cluster_feature(i));
            }
            cf
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf(dims: usize, points: &[Vec<f64>]) -> PointColumns {
        PointColumns::from_rows(dims, points.iter().map(Vec::as_slice))
    }

    #[test]
    fn leaf_accessors() {
        let node: Node = bt_anytree::Node::leaf(leaf(2, &[vec![1.0, 2.0], vec![3.0, 4.0]]));
        assert!(node.is_leaf());
        assert_eq!(node.len(), 2);
        assert_eq!(node.items().len(), 2);
        let mbr = node_mbr(&node).unwrap();
        assert_eq!(mbr.lower(), &[1.0, 2.0][..]);
        assert_eq!(mbr.upper(), &[3.0, 4.0][..]);
    }

    #[test]
    fn leaf_summary_equals_the_per_point_summary_bitwise() {
        // Every group width (dims 1–9), short and long leaves, and blocks
        // with unused stride slots (grown by pushes, or compacted by a
        // split).
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for dims in 1..=9 {
            for n in [1, 2, 3, 5, 8, 31] {
                let points: Vec<Vec<f64>> = (0..n)
                    .map(|i| {
                        (0..dims)
                            .map(|d| {
                                ((i * 7 + d * 3) % 11) as f64 * 0.37 - 1.9
                                    + 0.1 / (1 + i + d) as f64
                            })
                            .collect()
                    })
                    .collect();
                let mut pushed = PointColumns::default();
                for p in &points {
                    pushed.push(p);
                }
                let order: Vec<usize> = (0..n).collect();
                let (kept, _) = pushed.clone().split(&order, &[], n + 1);
                let expected = KernelSummary::from_points(&points, dims).unwrap();
                for block in [leaf(dims, &points), pushed, kept] {
                    let got = KernelSummary::from_leaf(&block).unwrap();
                    assert_eq!(got.cf.weight(), expected.cf.weight());
                    assert_eq!(bits(got.cf.linear_sum()), bits(expected.cf.linear_sum()));
                    assert_eq!(bits(got.cf.squared_sum()), bits(expected.cf.squared_sum()));
                    assert_eq!(bits(got.mbr.lower()), bits(expected.mbr.lower()));
                    assert_eq!(bits(got.mbr.upper()), bits(expected.mbr.upper()));
                }
            }
        }
    }

    #[test]
    fn leaf_cluster_feature_matches_points() {
        let node: Node = bt_anytree::Node::leaf(leaf(1, &[vec![0.0], vec![2.0]]));
        let cf = node_cluster_feature(&node, 1);
        assert_eq!(cf.weight(), 2.0);
        assert_eq!(cf.mean(), vec![1.0]);
    }

    fn block(entries: &[(&[f64], NodeId)]) -> EntryColumns {
        EntryColumns::from_entries(
            entries
                .iter()
                .map(|&(point, child)| (KernelSummary::from_point(point), child))
                .collect(),
        )
    }

    #[test]
    fn inner_cluster_feature_merges_entries() {
        let node: Node = bt_anytree::Node::inner(block(&[(&[0.0], 1), (&[4.0], 2)]));
        assert!(!node.is_leaf());
        let cf = node_cluster_feature(&node, 1);
        assert_eq!(cf.weight(), 2.0);
        assert_eq!(cf.mean(), vec![2.0]);
    }

    #[test]
    fn entry_absorb_point_updates_both_summaries() {
        let mut entries = block(&[(&[1.0, 1.0], 0)]);
        entries.absorb_point(0, &[3.0, 0.0]);
        entries.finish();
        let entry = &block_entries(&entries)[0];
        assert_eq!(entry.weight(), 2.0);
        assert!(entry.mbr.contains_point(&[3.0, 0.0]));
        assert_eq!(entry.cf.mean(), vec![2.0, 0.5]);
    }

    #[test]
    fn entry_gaussian_comes_from_cf() {
        let mut entries = block(&[(&[0.0], 0)]);
        entries.absorb_point(0, &[2.0]);
        let entry = &block_entries(&entries)[0];
        let g = entry.gaussian();
        assert_eq!(g.mean(), &[1.0][..]);
        assert!((g.variance()[0] - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "leaf node")]
    fn entries_on_leaf_panics() {
        let node: Node = bt_anytree::Node::leaf(PointColumns::default());
        let _ = node.entries();
    }

    #[test]
    #[should_panic(expected = "inner node")]
    fn items_on_inner_panics() {
        let node: Node = bt_anytree::Node::inner(EntryColumns::default());
        let _ = node.items();
    }

    #[test]
    fn empty_leaf_has_no_mbr() {
        let node: Node = bt_anytree::Node::empty_leaf();
        assert!(node.is_empty());
        assert!(node_mbr(&node).is_none());
    }
}
