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
//!   R*-style splits when time permits,
//! * [`snapshot::SnapshotStore`] — the pyramidal time frame,
//! * [`offline::weighted_dbscan`] — the offline macro-clustering component
//!   over micro-clusters,
//! * [`query::ClusQueryModel`] — the micro-cluster instantiation of the
//!   shared anytime query engine ([`bt_anytree::query`]): anytime k-NN
//!   micro-cluster retrieval at any tree level
//!   ([`ClusTree::anytime_knn`]), budget-bracketed density scores with
//!   certain bounds ([`ClusTree::anytime_density`]) and anytime outlier
//!   scoring ([`ClusTree::outlier_score`]); [`ShardedClusTree`] refines
//!   per-shard frontiers in parallel and folds them — the same fold (and
//!   the same k-NN ranking) a plain tree runs over its one view, so both
//!   trees share one [`ClusTreeSnapshot`] type (one shard for a plain
//!   tree).
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
pub mod sharded;
pub mod snapshot;
pub mod tree;
pub mod view;

pub use microcluster::{DecayCtx, MicroCluster};
pub use offline::{weighted_dbscan, DbscanConfig, MacroClustering};
pub use query::{ClusQueryModel, ClusterNeighbor, KnnAnswer};
pub use sharded::ShardedClusTree;
pub use snapshot::SnapshotStore;
pub use tree::{BatchOutcome, ClusTree, ClusTreeConfig, DepthHistogram, InsertOutcome};
pub use view::ClusTreeSnapshot;
