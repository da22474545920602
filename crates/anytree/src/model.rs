//! The insertion policy: the handful of decisions that differ per workload.

use crate::node::{Directory, LeafItems};
use crate::summary::Summary;
use bt_index::PageGeometry;

/// Workload-specific policy driving [`crate::AnytimeTree::insert`].
///
/// The shared core owns the descent loop, buffer bookkeeping and split
/// propagation; the model supplies what genuinely differs between the Bayes
/// tree and the clustering extension:
///
/// * what descends (`Object`) and what leaves store (`Leaf`, a container
///   whose items the leaf hooks address by index),
/// * how an object is absorbed into ancestor summaries,
/// * the leaf insertion policy (append raw points vs. absorb / reuse
///   micro-cluster slots),
/// * how overfull leaves split, and what to do when splitting is not
///   allowed,
/// * whether hitchhiker buffering is enabled and what one descent step
///   costs.
pub trait InsertModel<S: Summary> {
    /// The object descending the tree (a raw point for the Bayes tree, a
    /// one-point micro-cluster for the clustering extension).
    type Object;
    /// What leaf nodes store: the container of one leaf's items.
    type Leaf: LeafItems;

    /// Whether hitchhiker/park buffers are in use.  When `false` the budget
    /// is ignored and every insertion descends to a leaf.
    const BUFFERED: bool = false;

    /// The context threaded through summary merges and refreshes.
    fn ctx(&self) -> S::Ctx;

    /// The point used to route `obj` through directory nodes.  `scratch` is
    /// a reusable buffer for models whose routing point must be computed
    /// (e.g. a micro-cluster centre); models that can borrow from the object
    /// may ignore it.
    fn route_point<'a>(&self, obj: &'a Self::Object, scratch: &'a mut Vec<f64>) -> &'a [f64];

    /// A standalone summary of `obj` (e.g. a shard's first aggregate).
    fn summary_of(&self, obj: &Self::Object) -> S;

    /// The summary an empty hitchhiker buffer takes when `obj` is parked
    /// there.  The default is [`summary_of`](InsertModel::summary_of); a
    /// model whose object already is a summary moves it in instead of
    /// copying it.
    fn park(&self, obj: Self::Object) -> S {
        self.summary_of(&obj)
    }

    /// Absorbs `obj` into an existing summary (an ancestor entry or an
    /// occupied buffer) without allocating.
    fn absorb_into(&self, summary: &mut S, obj: &Self::Object);

    /// Absorbs `obj` into entry `i` of a directory node.  The default
    /// absorbs into the entry's row ([`Directory::summary_mut`]); a model
    /// whose directory is a block without rows writes it there.
    ///
    /// # Panics
    ///
    /// The default panics on a directory without rows.
    fn absorb_into_entry(&self, entries: &mut S::Dir, i: usize, obj: &Self::Object) {
        let summary = entries
            .summary_mut(i)
            .expect("a directory without rows absorbs through its model");
        self.absorb_into(summary, obj);
    }

    /// Merges a picked-up hitchhiker buffer into the descending object.
    fn merge_buffer_into_object(&self, _obj: &mut Self::Object, _buffer: S) {}

    /// Brings leaf items up to date before insertion (e.g. applies decay).
    fn refresh_leaf_items(&self, _leaf: &mut Self::Leaf) {}

    /// Inserts `obj` into a leaf.  May leave the leaf over capacity; the
    /// core then splits it (or calls
    /// [`collapse_leaf_items`](InsertModel::collapse_leaf_items) when
    /// splitting is not allowed).
    fn insert_into_leaf(&mut self, leaf: &mut Self::Leaf, obj: Self::Object);

    /// The summary describing a (non-empty) leaf.
    fn summarize_leaf_items(&self, leaf: &Self::Leaf) -> S;

    /// Splits the items of an overfull leaf into the group that stays and
    /// the group that moves to a fresh node.
    fn split_leaf_items(
        &self,
        leaf: Self::Leaf,
        geometry: &PageGeometry,
    ) -> (Self::Leaf, Self::Leaf);

    /// Brings an overfull leaf back within `cap` items when splitting is
    /// not allowed (e.g. by merging closest pairs of micro-clusters until
    /// `cap` remain).  The core calls it once per overflow, with every
    /// item the batch added to the leaf; the default does nothing, and the
    /// leaf keeps its bounded overflow.
    fn collapse_leaf_items(&self, _leaf: &mut Self::Leaf, _cap: usize) {}

    /// Whether an overflowing node may split right now.  `has_time` reports
    /// whether the insertion still had budget at that node.
    fn may_split(&self, _has_time: bool) -> bool {
        true
    }

    /// Budget spent per descent step (node read).  The default of 1 matches
    /// the paper's cost model; heavier workloads can charge more per level.
    fn step_cost(&self) -> usize {
        1
    }
}
