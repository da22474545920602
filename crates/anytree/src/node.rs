//! Nodes and entries of the arena tree.
//!
//! Nodes live in an arena owned by [`crate::AnytimeTree`]; entries refer to
//! their child node by arena index.  This sidesteps the aliasing issues a
//! pointer-based tree would raise and keeps nodes contiguous in memory.

use crate::summary::Summary;

/// Arena index of a node within its tree.
pub type NodeId = usize;

/// A directory entry: the aggregated description of one subtree, an optional
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
    /// a later descent.  `None` when nothing is parked (and always `None`
    /// for unbuffered workloads such as the Bayes tree).
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

/// The payload of a node: a leaf container or directory entries.
#[derive(Debug)]
pub enum NodeKind<S, L> {
    /// A leaf node storing the workload's leaf container (a point block
    /// for the Bayes tree, micro-clusters for the clustering extension).
    Leaf {
        /// The items stored in this leaf.
        items: L,
    },
    /// An inner (directory) node storing between `m` and `M` entries.
    Inner {
        /// The entries of this node.
        entries: Vec<Entry<S>>,
    },
}

impl<S: Clone, L: Clone> Clone for NodeKind<S, L> {
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
pub struct Node<S, L> {
    /// The node's payload.
    pub kind: NodeKind<S, L>,
}

impl<S: Clone, L: Clone> Clone for Node<S, L> {
    fn clone(&self) -> Self {
        Self {
            kind: self.kind.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.kind.clone_from(&source.kind);
    }
}

impl<S, L: LeafItems> Node<S, L> {
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

impl<S, L> Node<S, L> {
    /// Creates an inner node holding `entries`.
    #[must_use]
    pub fn inner(entries: Vec<Entry<S>>) -> Self {
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
    pub fn entries(&self) -> &[Entry<S>] {
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
    pub fn entries_mut(&mut self) -> &mut Vec<Entry<S>> {
        match &mut self.kind {
            NodeKind::Inner { entries } => entries,
            NodeKind::Leaf { .. } => panic!("entries_mut() called on a leaf node"),
        }
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
