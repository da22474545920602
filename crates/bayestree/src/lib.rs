//! # The Bayes tree: index-based anytime stream classification
//!
//! This crate is the core of the reproduction of *"Using Index Structures for
//! Anytime Stream Mining"* (Kranen, VLDB 2009): the **Bayes tree**, an
//! R*-tree–style index whose directory entries aggregate cluster features so
//! that every frontier of the tree is a complete Gaussian mixture model of
//! the training data.  Refining the frontier one node at a time turns
//! Bayesian kernel-density classification into an *anytime* algorithm.
//!
//! The arena, descent and split machinery lives in the shared
//! [`bt_anytree`] core (the same core the clustering extension builds on);
//! this crate instantiates it with the [`KernelSummary`] payload and adds
//! everything classification-specific: frontiers, descent strategies, the
//! qbk scheduler and the bulk loaders.
//!
//! The main entry points are:
//!
//! * [`tree::BayesTree`] — the index itself (incremental insertion via
//!   [`insert`], bulk construction via [`bulk`]).  It owns one shard
//!   ([`BayesTree::new`]) or `K` ([`BayesTree::sharded`]) behind the shared
//!   sharding layer of [`bt_anytree::shard`]: a plain tree is a one-shard
//!   tree, whose batches go straight to its shard, while `K` shards split
//!   each batch by router and descend in parallel,
//! * [`query::KernelQueryModel`] — the anytime probability density query
//!   (Definition 3) as a model of the shared query engine in
//!   [`bt_anytree::query`], refined in the descent strategies of
//!   Section 2.2 (a frontier is a [`bt_anytree::QueryCursor`] over one
//!   shard, `tree.shard(0).new_query(&tree.query_model(), x)`):
//!   budget-bracketed density queries with certain
//!   `[lower, upper]` bounds ([`BayesTree::anytime_density`]) and the
//!   insert-free anytime outlier scoring workload
//!   ([`BayesTree::outlier_score`]).  Every query refines the per-shard
//!   frontiers (in parallel when several are busy) and folds them into one
//!   global mixture answer, [`bt_anytree::QueryAnswer`],
//! * [`tree::BayesIndex`] — the one struct behind [`BayesTree`] and
//!   [`BayesTreeSnapshot`]: it is generic over its shard set
//!   ([`bt_anytree::ShardSet`]), live or pinned, so each read method is
//!   written once and the snapshot runs exactly the live tree's code
//!   (writes and `snapshot()` exist on the live tree only; the classifier
//!   does the same through [`classifier::Classifier`]),
//! * [`classifier::AnytimeClassifier`] — one tree per class, the qbk
//!   refinement strategy and budgeted classification.  The single
//!   multi-class tree that Section 4.1 sketches as future work is less
//!   accurate than this forest at equal CPU time on all four stand-ins
//!   (`docs/PERF.md`, "One classifier"),
//! * [`bulk`] — the bulk-loading strategies of Section 3 (Hilbert, Z-curve,
//!   STR, Goldberger, EM top-down) and the iterative baseline.
//!
//! ## Observability
//!
//! Every [`BayesTree`] inherits the `bt-obs` instrumentation of the shared
//! core for free: inserts, anytime queries, outlier certifications and
//! snapshot refreshes record `bt_*` counters and histograms into the
//! process-global registry at batch/query boundaries (including the
//! per-round refinement trace behind the paper's quality-over-time curve),
//! with nothing added to the hot loops.  A tree of several shards buffers
//! per shard and folds at the query boundary.  See `docs/OBSERVABILITY.md` for
//! the catalogue, switches and cost contract.
//!
//! ```
//! use bayestree::{AnytimeClassifier, ClassifierConfig};
//! use bt_data::synth::blobs::BlobConfig;
//!
//! let data = BlobConfig::new(3, 4).samples_per_class(60).seed(1).generate();
//! let (train, test) = data.split_holdout(0.25, 7);
//! let classifier = AnytimeClassifier::train(&train, &ClassifierConfig::default());
//!
//! // Interrupt after 15 node reads — the hallmark of an anytime algorithm is
//! // that any budget yields a usable answer.
//! let result = classifier.classify_with_budget(test.feature(0), 15);
//! assert!(result.label < 3);
//! ```

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod bulk;
pub mod classifier;
pub mod descent;
pub mod directory;
#[cfg(test)]
mod frontier;
pub mod insert;
pub mod leaf;
pub mod node;
pub mod pdq;
pub mod qbk;
pub mod query;
#[cfg(test)]
mod sharded;
pub mod tree;
pub mod view;

pub use bulk::{build_tree, try_build_tree, BulkLoadMethod};
pub use classifier::{
    AnytimeClassifier, AnytimeTrace, Classification, Classifier, ClassifierConfig,
    ClassifierSnapshot,
};
pub use descent::{DescentStrategy, PriorityMeasure};
pub use insert::InputError;
pub use leaf::PointColumns;
pub use node::{Entry, EntryColumns, KernelSummary, Node, NodeId, NodeKind};
pub use qbk::{RefinementScheduler, RefinementStrategy};
pub use query::{summary_mixture_term, KernelQueryModel};
pub use tree::{BayesCore, BayesIndex, BayesTree, BayesTreeSnapshot};
