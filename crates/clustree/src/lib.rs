//! # Anytime stream clustering on an index structure
//!
//! Section 4.2 of the paper lays out how the Bayes-tree idea extends to
//! *unsupervised* stream mining: keep a hierarchy of cluster features in an
//! index, decay old data exponentially, "park" insertion objects in inner
//! nodes when the stream is too fast and take them along on a later descent,
//! store snapshots in a pyramidal time frame, and run a density-based offline
//! clustering over the fine-grained leaf-level cluster features.  (This is
//! the research direction that later became ClusTree.)
//!
//! This crate implements that extension:
//!
//! * [`microcluster::MicroCluster`] — a decaying cluster feature with a
//!   timestamp,
//! * [`tree::ClusTree`] — the anytime index: budgeted insertion with
//!   hitchhiker buffers, exponential decay, irrelevance-based entry reuse and
//!   R*-style splits when time permits.  It owns one shard
//!   ([`ClusTree::new`]) or `K` ([`ClusTree::sharded`]) behind the shared
//!   sharding layer of [`bt_anytree::shard`]: a plain tree is a one-shard
//!   tree, whose batches go straight to its shard, while `K` shards split
//!   each batch by router and descend in parallel,
//! * [`snapshot::SnapshotStore`] — the pyramidal time frame,
//! * [`offline::weighted_dbscan`] — the offline macro-clustering component
//!   over micro-clusters,
//! * [`query::ClusQueryModel`] — the micro-cluster instantiation of the
//!   shared anytime query engine ([`bt_anytree::query`]): anytime k-NN
//!   micro-cluster retrieval at any tree level
//!   ([`ClusTree::anytime_knn`]), budget-bracketed density scores with
//!   certain bounds ([`ClusTree::anytime_density`]) and anytime outlier
//!   scoring ([`ClusTree::outlier_score`]).  Every query refines the
//!   per-shard frontiers (in parallel when several are busy) and folds
//!   them, k-NN ranking included ([`knn_over`]),
//! * [`tree::ClusIndex`] — the one struct behind [`ClusTree`] and
//!   [`ClusTreeSnapshot`]: it is generic over its shard set
//!   ([`bt_anytree::ShardSet`]), live or pinned, so each read method is
//!   written once and the snapshot runs exactly the live tree's code
//!   (writes and `snapshot()` exist on the live tree only).
//!
//! Because the index is the shared [`bt_anytree::AnytimeTree`] core, every
//! [`ClusTree`] also inherits the `bt-obs` instrumentation: budgeted
//! insert batches, anytime k-NN/density/outlier queries and snapshot
//! refreshes record `bt_*` metrics into the process-global registry at
//! batch/query boundaries.  See `docs/OBSERVABILITY.md` for the catalogue
//! and cost contract.
//!
//! ```
//! use clustree::{ClusTree, ClusTreeConfig};
//!
//! let mut tree = ClusTree::new(2, ClusTreeConfig::default());
//! // A fast stream: every object gets a budget of 3 node descents.
//! for i in 0..500 {
//!     let x = if i % 2 == 0 { 0.0 } else { 10.0 };
//!     tree.insert(&[x + (i % 7) as f64 * 0.05, x], i as f64, 3);
//! }
//! assert!(tree.num_micro_clusters() >= 2);
//! ```

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod microcluster;
pub mod offline;
pub mod query;
#[cfg(test)]
mod sharded;
pub mod snapshot;
pub mod tree;
pub mod view;

pub use microcluster::{DecayCtx, MicroCluster};
pub use offline::{weighted_dbscan, DbscanConfig, MacroClustering};
pub use query::{knn_over, ClusQueryModel, ClusterNeighbor, KnnAnswer};
pub use snapshot::SnapshotStore;
pub use tree::{
    BatchOutcome, ClusCore, ClusIndex, ClusModel, ClusTree, ClusTreeConfig, ClusTreeSnapshot,
    DepthHistogram, InsertOutcome,
};
