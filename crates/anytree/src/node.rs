//! Nodes and entries of the arena tree.
//!
//! Nodes live in an arena owned by [`crate::AnytimeTree`]; entries refer to
//! their child node by arena index.  This sidesteps the aliasing issues a
//! pointer-based tree would raise and keeps nodes contiguous in memory.

use crate::summary::Summary;
use bt_index::PageGeometry;
use std::borrow::Cow;

/// Arena index of a node within its tree.
pub type NodeId = usize;

/// A directory entry of a row directory (`Vec<Entry<S>>`, the clustering
/// extension's): the aggregated description of one subtree, an optional
/// hitchhiker buffer of parked objects, and the child pointer.
///
/// The entry [`Deref`](std::ops::Deref)s to its summary so instantiations
/// whose payloads expose public fields (e.g. `mbr` / `cf`) keep their
/// familiar field access.
#[derive(Debug)]
pub struct Entry<S> {
    /// Aggregate of everything stored below this entry (including buffered
    /// mass parked at or below it).
    pub summary: S,
    /// Hitchhiker buffer: objects parked here waiting to be carried down by
    /// a later descent.  `None` when nothing is parked.
    pub buffer: Option<S>,
    /// Arena index of the child node.
    pub child: NodeId,
}

impl<S: Clone> Clone for Entry<S> {
    fn clone(&self) -> Self {
        Self {
            summary: self.summary.clone(),
            buffer: self.buffer.clone(),
            child: self.child,
        }
    }

    /// Field-wise, so a recycled entry keeps its summary's buffers.
    fn clone_from(&mut self, source: &Self) {
        self.summary.clone_from(&source.summary);
        self.buffer.clone_from(&source.buffer);
        self.child = source.child;
    }
}

impl<S: Summary> Entry<S> {
    /// Creates an entry describing `child` with an empty buffer.
    #[must_use]
    pub fn new(summary: S, child: NodeId) -> Self {
        Self {
            summary,
            buffer: None,
            child,
        }
    }

    /// Number of objects summarised by this entry.
    #[must_use]
    pub fn weight(&self) -> f64 {
        self.summary.weight()
    }

    /// Weight currently parked in the hitchhiker buffer.
    #[must_use]
    pub fn buffered_weight(&self) -> f64 {
        self.buffer.as_ref().map_or(0.0, Summary::weight)
    }
}

impl<S> std::ops::Deref for Entry<S> {
    type Target = S;
    fn deref(&self) -> &S {
        &self.summary
    }
}

impl<S> std::ops::DerefMut for Entry<S> {
    fn deref_mut(&mut self) -> &mut S {
        &mut self.summary
    }
}

/// What a leaf node stores: a container of leaf items chosen by the
/// workload (a dimension-major point block for the Bayes tree, a
/// `Vec<MicroCluster>` for the clustering extension).  The core only needs
/// its length and an empty value; the models address one item by index.
pub trait LeafItems: Default {
    /// Number of items in the leaf.
    fn len(&self) -> usize;

    /// Whether the leaf holds no item.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> LeafItems for Vec<T> {
    fn len(&self) -> usize {
        Vec::len(self)
    }
}

/// What a directory node stores: its entries in a container chosen by the
/// payload ([`Summary::Dir`]) — one row per entry (`Vec<Entry<S>>`, the
/// clustering extension's) or the dimension-major block a reader scores in
/// place (the Bayes tree's).
///
/// The core reads a directory through this trait only: per-entry children,
/// summaries and buffers, routing boxes for MBR-routed containers, and the
/// structural writes of a batch (absorb through the model, install the
/// replacement entries of a split child, split, summarise).  Every batch
/// calls [`Directory::finish`] on each directory it wrote before it
/// publishes, so a container may defer derived state to it.
pub trait Directory<S: Summary>: Clone + Default + std::fmt::Debug + Send + Sync {
    /// A directory holding `entries` (summary, child) in order.
    fn from_entries(entries: Vec<(S, NodeId)>) -> Self;

    /// Number of entries.
    fn len(&self) -> usize;

    /// Whether the directory holds no entry.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The child node of entry `i`.
    fn child(&self, i: usize) -> NodeId;

    /// Entry `i`'s summary: borrowed from a row, materialised from a block.
    fn summary(&self, i: usize) -> Cow<'_, S>;

    /// Entry `i`'s summary for an in-place write, when the container keeps
    /// it as a row; `None` for a block, whose model absorbs through
    /// [`crate::InsertModel::absorb_into_entry`].
    fn summary_mut(&mut self, i: usize) -> Option<&mut S> {
        let _ = i;
        None
    }

    /// Entry `i`'s hitchhiker buffer (`None` when nothing is parked, and
    /// always for a container without buffers).
    fn buffer(&self, i: usize) -> Option<&S> {
        let _ = i;
        None
    }

    /// Entry `i`'s hitchhiker buffer slot, for buffered models.
    ///
    /// # Panics
    ///
    /// The default panics: a container without buffers serves only
    /// unbuffered models.
    fn buffer_mut(&mut self, i: usize) -> &mut Option<S> {
        panic!("entry {i}: this directory keeps no hitchhiker buffers")
    }

    /// The entries' boxes as dimension-major `(lower, upper)` columns
    /// (`d * len + i`) for a container that routes by least enlargement;
    /// `None` (the default) routes by distance.
    fn boxes(&self) -> Option<(&[f64], &[f64])> {
        None
    }

    /// Brings every entry (and buffer) up to date, once per batch.
    fn refresh(&mut self, ctx: S::Ctx) {
        let _ = ctx;
    }

    /// Replaces entry `i` by `summary` over `child` (the first replacement
    /// entry of a split child).  A parked buffer stays on the entry, and
    /// the new summary absorbs its mass.
    fn replace(&mut self, i: usize, summary: S, child: NodeId, ctx: S::Ctx);

    /// Appends `entries` in order.
    fn extend_entries(&mut self, entries: Vec<(S, NodeId)>);

    /// The summary of the whole node: the entries' summaries folded in
    /// entry order and refreshed (buffers are not added: an entry's summary
    /// already covers its own buffer).
    ///
    /// # Panics
    ///
    /// Panics if the directory is empty.
    fn summarize(&self, ctx: S::Ctx) -> S;

    /// Splits an overfull directory (over `dims`-dimensional data) into the
    /// entries that stay and the entries that move to a fresh node.
    #[must_use]
    fn split_in_two(self, geometry: &PageGeometry, dims: usize) -> (Self, Self);

    /// Brings state the batch's writes left behind up to date before the
    /// node is published (the default has none).
    fn finish(&mut self) {}

    /// Whether [`Directory::finish`] has nothing left to do (always, by
    /// default).
    fn is_finished(&self) -> bool {
        true
    }
}

impl<S: Summary + std::fmt::Debug + Send + Sync> Directory<S> for Vec<Entry<S>> {
    fn from_entries(entries: Vec<(S, NodeId)>) -> Self {
        entries
            .into_iter()
            .map(|(summary, child)| Entry::new(summary, child))
            .collect()
    }

    fn len(&self) -> usize {
        Vec::len(self)
    }

    fn child(&self, i: usize) -> NodeId {
        self[i].child
    }

    fn summary(&self, i: usize) -> Cow<'_, S> {
        Cow::Borrowed(&self[i].summary)
    }

    fn summary_mut(&mut self, i: usize) -> Option<&mut S> {
        Some(&mut self[i].summary)
    }

    fn buffer(&self, i: usize) -> Option<&S> {
        self[i].buffer.as_ref()
    }

    fn buffer_mut(&mut self, i: usize) -> &mut Option<S> {
        &mut self[i].buffer
    }

    fn refresh(&mut self, ctx: S::Ctx) {
        for e in self.iter_mut() {
            e.summary.refresh(ctx);
            if let Some(b) = &mut e.buffer {
                b.refresh(ctx);
            }
        }
    }

    /// Hitchhikers parked on the replaced entry after the last descent
    /// through it stay buffered on the replacement, whose summary absorbs
    /// their mass to keep `summary == child content + own buffer`.
    fn replace(&mut self, i: usize, summary: S, child: NodeId, ctx: S::Ctx) {
        let mut first = Entry::new(summary, child);
        if let Some(buffer) = self[i].buffer.take() {
            first.summary.merge(&buffer, ctx);
            first.buffer = Some(buffer);
        }
        self[i] = first;
    }

    fn extend_entries(&mut self, entries: Vec<(S, NodeId)>) {
        self.extend(
            entries
                .into_iter()
                .map(|(summary, child)| Entry::new(summary, child)),
        );
    }

    fn summarize(&self, ctx: S::Ctx) -> S {
        assert!(!self.is_empty(), "cannot summarise an empty inner node");
        let mut summary = self[0].summary.clone();
        for e in &self[1..] {
            summary.merge(&e.summary, ctx);
        }
        summary.refresh(ctx);
        summary
    }

    fn split_in_two(self, geometry: &PageGeometry, dims: usize) -> (Self, Self) {
        crate::split::split_entries(self, geometry, dims)
    }
}

/// The payload of a node: a leaf container or a directory.
#[derive(Debug)]
pub enum NodeKind<S: Summary, L> {
    /// A leaf node storing the workload's leaf container (a point block
    /// for the Bayes tree, micro-clusters for the clustering extension).
    Leaf {
        /// The items stored in this leaf.
        items: L,
    },
    /// An inner (directory) node storing between `m` and `M` entries in
    /// the payload's directory container.
    Inner {
        /// The entries of this node.
        entries: S::Dir,
    },
}

impl<S: Summary, L: Clone> Clone for NodeKind<S, L> {
    fn clone(&self) -> Self {
        match self {
            Self::Leaf { items } => Self::Leaf {
                items: items.clone(),
            },
            Self::Inner { entries } => Self::Inner {
                entries: entries.clone(),
            },
        }
    }

    /// Reuses `self`'s buffers when both payloads are of the same kind —
    /// the arena recycles retired versions per kind.
    fn clone_from(&mut self, source: &Self) {
        match (self, source) {
            (Self::Leaf { items }, Self::Leaf { items: from }) => items.clone_from(from),
            (Self::Inner { entries }, Self::Inner { entries: from }) => entries.clone_from(from),
            (this, source) => *this = source.clone(),
        }
    }
}

/// One node of the tree.
#[derive(Debug)]
pub struct Node<S: Summary, L> {
    /// The node's payload.
    pub kind: NodeKind<S, L>,
}

impl<S: Summary, L: Clone> Clone for Node<S, L> {
    fn clone(&self) -> Self {
        Self {
            kind: self.kind.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.kind.clone_from(&source.kind);
    }
}

impl<S: Summary, L: LeafItems> Node<S, L> {
    /// Creates an empty leaf node.
    #[must_use]
    pub fn empty_leaf() -> Self {
        Self {
            kind: NodeKind::Leaf {
                items: L::default(),
            },
        }
    }

    /// Creates a leaf node holding `items`.
    #[must_use]
    pub fn leaf(items: L) -> Self {
        Self {
            kind: NodeKind::Leaf { items },
        }
    }

    /// Number of entries (inner node) or items (leaf node).
    #[must_use]
    pub fn len(&self) -> usize {
        match &self.kind {
            NodeKind::Leaf { items } => items.len(),
            NodeKind::Inner { entries } => entries.len(),
        }
    }

    /// Whether the node holds nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<S: Summary, L> Node<S, L> {
    /// Creates an inner node holding `entries`.
    #[must_use]
    pub fn inner(entries: S::Dir) -> Self {
        Self {
            kind: NodeKind::Inner { entries },
        }
    }

    /// Whether this node is a leaf.
    #[must_use]
    pub fn is_leaf(&self) -> bool {
        matches!(self.kind, NodeKind::Leaf { .. })
    }

    /// The entries of an inner node.
    ///
    /// # Panics
    ///
    /// Panics if called on a leaf node.
    #[must_use]
    pub fn entries(&self) -> &S::Dir {
        match &self.kind {
            NodeKind::Inner { entries } => entries,
            NodeKind::Leaf { .. } => panic!("entries() called on a leaf node"),
        }
    }

    /// Mutable access to the entries of an inner node.
    ///
    /// # Panics
    ///
    /// Panics if called on a leaf node.
    #[must_use]
    pub fn entries_mut(&mut self) -> &mut S::Dir {
        match &mut self.kind {
            NodeKind::Inner { entries } => entries,
            NodeKind::Leaf { .. } => panic!("entries_mut() called on a leaf node"),
        }
    }

    /// The child of every entry of an inner node, in entry order (none for
    /// a leaf).
    pub fn children(&self) -> impl Iterator<Item = NodeId> + '_ {
        let dir = match &self.kind {
            NodeKind::Inner { entries } => Some(entries),
            NodeKind::Leaf { .. } => None,
        };
        dir.into_iter()
            .flat_map(|d| (0..d.len()).map(move |i| d.child(i)))
    }
    /// The items of a leaf node.
    ///
    /// # Panics
    ///
    /// Panics if called on an inner node.
    #[must_use]
    pub fn items(&self) -> &L {
        match &self.kind {
            NodeKind::Leaf { items } => items,
            NodeKind::Inner { .. } => panic!("items() called on an inner node"),
        }
    }

    /// Mutable access to the items of a leaf node.
    ///
    /// # Panics
    ///
    /// Panics if called on an inner node.
    #[must_use]
    pub fn items_mut(&mut self) -> &mut L {
        match &mut self.kind {
            NodeKind::Leaf { items } => items,
            NodeKind::Inner { .. } => panic!("items_mut() called on an inner node"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq)]
    struct W(Vec<f64>);

    impl Summary for W {
        type Ctx = ();
        type Dir = Vec<Entry<W>>;
        fn merge(&mut self, _other: &Self, _ctx: ()) {}
        fn weight(&self) -> f64 {
            self.0.len() as f64
        }
        fn sq_dist_to(&self, _point: &[f64]) -> f64 {
            0.0
        }
        fn center(&self) -> Vec<f64> {
            self.0.clone()
        }
    }

    fn entry(summary: &[f64], buffer: Option<&[f64]>, child: NodeId) -> Entry<W> {
        Entry {
            summary: W(summary.to_vec()),
            buffer: buffer.map(|b| W(b.to_vec())),
            child,
        }
    }

    fn shape(node: &Node<W, Vec<Vec<f64>>>) -> String {
        format!("{:?}", node.kind)
    }

    #[test]
    fn clone_from_equals_clone_within_and_across_kinds() {
        let nodes = [
            Node::leaf(vec![vec![1.0, 2.0], vec![3.0]]),
            Node::leaf(vec![vec![4.0; 5]]),
            Node::empty_leaf(),
            Node::inner(vec![
                entry(&[1.0, 2.0], None, 3),
                entry(&[5.0], Some(&[6.0, 7.0]), 9),
            ]),
            Node::inner(vec![entry(&[8.0], Some(&[9.0]), 1)]),
            Node::inner(vec![
                entry(&[1.0], Some(&[2.0]), 4),
                entry(&[3.0; 3], None, 5),
                entry(&[0.5], None, 6),
            ]),
        ];
        for target in &nodes {
            for source in &nodes {
                let mut recycled = target.clone();
                recycled.clone_from(source);
                assert_eq!(shape(&recycled), shape(source));
            }
        }
    }
}
