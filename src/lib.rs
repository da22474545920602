//! # Anytime Stream Mining
//!
//! A Rust reproduction of *"Using Index Structures for Anytime Stream Mining"*
//! (Philipp Kranen, VLDB 2009): the **Bayes tree** anytime classifier, its
//! bulk-loading strategies, and the anytime stream-clustering extension.
//!
//! This facade crate re-exports the workspace crates so that examples and
//! downstream users can depend on a single package:
//!
//! * [`stats`] — Gaussians, kernel density estimation, cluster features,
//!   mixture models, EM, KL divergence and Goldberger mixture reduction.
//! * [`index`] — MBRs, R*-tree machinery, space-filling curves and STR packing.
//! * [`obs`] — the observability layer: a lock-free metrics registry
//!   (counters, gauges, log-bucketed histograms), bounded span tracing for
//!   the refinement lifecycle, and Prometheus/JSON exposition.
//! * [`anytree`] — the shared anytime-index core (see *Architecture* below).
//! * [`data`] — data sets, synthetic workload generators, folds and stream
//!   simulators.
//! * [`bayestree`] — the Bayes tree itself: anytime probability density
//!   queries, descent strategies, the qbk anytime classifier and bulk loaders.
//! * [`clustree`] — the anytime stream-clustering extension (ClusTree-style).
//! * [`eval`] — the experiment harness that regenerates the paper's figures.
//!
//! ## Architecture
//!
//! The paper's central observation is that the Bayes tree "is essentially an
//! index structure", and that the stream-clustering extension is the *same*
//! index with micro-clusters instead of kernels.  The workspace is layered
//! accordingly:
//!
//! ```text
//! stats ──► index ──► anytree{descent, query, shard} ──► { bayestree, clustree }
//!                       ▲                                         │
//!             obs ──────┘ (metrics registry,    data ─────────────┤
//!                          tracing, exposition)                   ▼
//!                                                       eval ──► bench
//! ```
//!
//! * **`stats`** owns the statistical substrate (cluster features,
//!   Gaussians, EM, KL) with allocation-lean in-place / into-scratch vector
//!   variants for the hot paths.
//! * **`index`** owns the R*-tree geometry: MBRs, page-derived `(m, M)`
//!   fanout, and choose-subtree / topological-split algorithms that are
//!   *payload-generic* (`choose_subtree_by`, `rstar_split_corners`).
//! * **`anytree`** is the shared anytime-index core both trees instantiate:
//!   the **epoch-versioned node arena** ([`anytree::arena`] — versioned,
//!   `Arc`-shared slots behind stable `NodeId` indices, copy-on-write at
//!   node granularity), entries generic over a [`anytree::Summary`] payload
//!   (merge / weight / distance / decay + an optional MBR hook into
//!   `index`), budgeted descent with a pluggable step cost, hitchhiker/park
//!   buffers, and split/overflow propagation.
//!   Insertion runs on the **iterative descent engine**
//!   ([`anytree::descent`]): a [`anytree::DescentCursor`] holds one
//!   in-flight insertion (current node, depth, remaining budget, the
//!   carried object with any picked-up hitchhikers) and advances one node
//!   per step — the paper's stop/resume-anywhere anytime contract made
//!   literal, with no recursion on the hot path.  Batches are bracketed by
//!   `begin_batch` / `finish_batch`: within a batch every visited node
//!   refreshes its summaries once, routing reuses one per-tree scratch
//!   buffer, and splits are deferred and resolved **once per node** after
//!   the batch drains (`finish_batch` walks the dirty subtrees bottom-up,
//!   re-splitting until every part fits and growing the root as needed).
//!   [`anytree::AnytimeTree::insert_batch`] reports a reached-leaf vs.
//!   parked-at-depth [`anytree::DepthHistogram`] so callers can observe how
//!   batching shifts parking depth.  The **anytime query engine**
//!   ([`anytree::query`]) mirrors the descent engine on the read side: a
//!   payload-generic [`anytree::QueryModel`] scores directory summaries and
//!   leaf items against a query point, a resumable [`anytree::QueryCursor`]
//!   refines a best-first frontier one node read at a time (the refinement
//!   orderings of Section 2.2 exist exactly once, with per-tree
//!   scratch/frontier reuse and [`anytree::QueryStats`] counters alongside
//!   [`anytree::DescentStats`]), and every partial answer carries certain
//!   `[lower, upper]` bounds that can only tighten with budget — the
//!   monotone anytime contract, property-tested for both trees.
//!   Insert-free workloads plug in with just a `Summary` + `QueryModel`:
//!   anytime **outlier scoring** ([`anytree::outlier_score_over`])
//!   refines the density interval until a threshold verdict is certain.
//!   On top of the engines sits the
//!   **sharding layer** ([`anytree::shard`]): a
//!   [`anytree::ShardedAnytimeTree`] partitions the object space into `K`
//!   independent shard trees behind a pluggable [`anytree::ShardRouter`]
//!   (the extension point — [`anytree::CheapestRouter`] routes to the shard
//!   whose root aggregate is closest, [`anytree::FixedPartitionRouter`]
//!   deals round-robin for equivalence tests, and new routers only
//!   implement one `route(point, aggregates)` method), descends every
//!   shard's share of a mini-batch **in parallel** on scoped threads (one
//!   cursor per shard as the concurrency unit, each shard's `finish_batch`
//!   its single synchronisation point), and merges the per-shard reports
//!   ([`anytree::DepthHistogram::merge`], [`anytree::DescentStats::merge`]).
//!   The query path is one engine: every query is a fold over a slice of
//!   tree views ([`anytree::query_over`], [`anytree::query_batch_over`],
//!   [`anytree::outlier_score_over`]) whose per-view frontiers refine
//!   concurrently and sum into one [`anytree::QueryAnswer`] whose bounds
//!   inherit each view's monotonicity.  The write side is one writer too:
//!   each tree family owns one sharded tree, and a plain tree is simply a
//!   one-shard tree whose batches go to its shard without routing, so it
//!   inserts and answers exactly like a directly driven core; per-shard
//!   object counts
//!   ([`anytree::ShardedAnytimeTree::shard_sizes`]) make router skew
//!   observable ahead of the planned work-stealing layer.  The core is
//!   `Send`/`Sync`-clean by construction — static assertions in
//!   `tests/send_assertions.rs` keep it that way.
//!
//!   **Snapshots and the pipelined mode.**  Reads and writes overlap
//!   without locks: every `finish_batch` publishes a new *root epoch*, and
//!   [`anytree::AnytimeTree::snapshot`] returns an owned, `Send + Sync`
//!   [`anytree::TreeSnapshot`] — a clone of the arena's slot spine plus one
//!   pin of the published epoch in the tree's
//!   [`anytree::EpochRegistry`].  Writers mutate through node-granularity
//!   **copy-on-write**: a write to a node some snapshot still references
//!   clones that one node into a fresh slot `Arc` (the snapshot keeps the
//!   retired version), while the no-reader fast path mutates in place (one
//!   atomic check, zero copies — asserted by tests).  The **reclamation
//!   rule**: a retired node version is owned only by the snapshot spines
//!   that pinned it, so its memory is freed *exactly when the last snapshot
//!   taken before the version was replaced is dropped* — the registry
//!   records which epochs are pinned (observability + the tests' fast-path
//!   assertions), the `Arc` drop does the freeing, and no collector or
//!   extra dependency is involved.  The whole query engine runs on the
//!   [`anytree::TreeView`] abstraction, so live trees and snapshots answer
//!   through the same code; frontier selection runs on a **per-order lazy
//!   heap** property-tested against the reference scan.  **One reader
//!   per index:** each family is one struct generic over its shard set
//!   ([`anytree::ShardSet`]): the live [`anytree::ShardedAnytimeTree`] or
//!   its pinned [`anytree::ShardedTreeSnapshot`] (one shard for a plain
//!   tree).  `BayesTree` and `BayesTreeSnapshot` are aliases of
//!   [`bayestree::BayesIndex`], `ClusTree` and `ClusTreeSnapshot` of
//!   [`clustree::ClusIndex`], `AnytimeClassifier` and
//!   `ClassifierSnapshot` of [`bayestree::Classifier`], so every read
//!   method is written once and serves both.  On the sharded layer,
//!   [`anytree::ShardedAnytimeTree::pipelined_batch`] drains a mini-batch
//!   through per-shard writer threads *while* readers refine query batches
//!   against the pre-batch [`anytree::ShardedTreeSnapshot`] —
//!   property-tested to return exactly the pre-batch answers
//!   (`tests/snapshot_isolation.rs`).
//!
//!   **The block-cache layer.**  The hot "score every entry of this node"
//!   step gathers a node's summaries into dimension-major
//!   structure-of-arrays columns ([`anytree::SummaryBlock`]) and runs the
//!   batch kernels of `stats` over all entries in one pass — explicitly
//!   SIMD-vectorised (portable 4-lane `f64` kernels with a
//!   runtime-dispatched AVX2 path and the scalar loop kept as the
//!   bit-exactness reference; `--no-default-features` on `bt-stats` turns
//!   the whole layer off).  On top of the gather sits the **per-node
//!   block cache** with one rule: every arena node carries a set-once
//!   [`anytree::BlockCacheSlot`] page-side, and the arena's one write path
//!   (`node_mut`, which needs `&mut`) empties it on *every* call.  A filled
//!   slot therefore always describes the node as it is now, so a read is a
//!   plain load — no version stamp, no flag, no lock — and the first
//!   reader to gather a cold node fills the slot (racing readers gathered
//!   the same node, so either block serves).  Copy-on-write completes the
//!   picture: the arena never writes a node on a page a snapshot holds (it
//!   retires a copy with an empty slot), so pinned snapshots keep their
//!   warm blocks while the live tree refills its own.  Scoring hits skip
//!   the gather entirely ([`anytree::QueryStats`] counts
//!   `gathers_avoided`); the insertion descent never fills a reader slot
//!   (its routing columns live in its own per-batch scratch), and leaf
//!   nodes get the same treatment through
//!   [`anytree::QueryModel::score_leaf_items`] — all bit-identical to the
//!   gather-every-time scalar reference in `f64` mode
//!   (`tests/block_cache.rs` in both tree crates,
//!   `tests/block_cache_rule.rs`).
//!
//!   **The 16-bit stored mode.**  The Bayes tree's stored summaries are
//!   parameterised by a stored mode (`bayestree::node::StoredElement`):
//!   `f64` is the bit-exact reference mode, `Quantized` stores MBR corners
//!   and cluster features at 16 bits — accumulating in `f64`, quantising
//!   on write with **outward-rounded** box corners so every stored
//!   rectangle still encloses its subtree and the certain `[lower, upper]`
//!   density bounds stay sound (property-tested in
//!   `tests/stored_precision.rs`).  Both modes route through the same R*
//!   MINDIST/enlargement machinery via per-corner accessors, leaf
//!   observations stay exact `f64` in both, and the page-size fanout
//!   derivation (`index::PageGeometry::from_page_size_for_scalar`) converts
//!   the narrower entries into ~4× fanout per fixed-size page.  Narrowing
//!   happens only on write: both modes gather into full-width block
//!   columns, so each mode's block path equals its scalar reference bit
//!   for bit.  Descent and refinement issue **software prefetches** for
//!   the next frontier candidate's page slot (counted in
//!   `QueryStats::prefetches` / `DescentStats::prefetches` and surfaced by
//!   the `eval` report tables).  `docs/PERF.md` records the precision
//!   contract and the measurements.
//!
//!   **The observability boundary.**  Every layer reports into one
//!   process-global [`obs`] registry without ever putting an atomic on a
//!   hot loop: descent and refinement keep accumulating into the existing
//!   [`anytree::DescentStats`] / [`anytree::QueryStats`] structs (now thin
//!   local views of the metric catalogue), and the `anytree::obs` glue
//!   folds each **batch / query / snapshot-refresh delta** into the
//!   registry's `bt_*` counters, gauges and log-bucketed histograms at the
//!   boundary — one relaxed atomic load when recording is disabled, and
//!   the whole layer compiles away under `--no-default-features` on
//!   `bt-obs`.  The refinement lifecycle additionally emits span-trace
//!   events (`descend`, `finish_batch`, `split`, `gather`, `refine_step`,
//!   `snapshot_refresh`) into a bounded ring or a pluggable subscriber,
//!   and the registry exposes itself as Prometheus text or a JSON snapshot
//!   ([`obs::Snapshot`]) — `eval::obs` brackets workloads with
//!   capture-deltas, and `docs/OBSERVABILITY.md` catalogues the
//!   metric names and the cost contract
//!   (`tests/metrics_equivalence.rs` pins recording equivalence across
//!   the live, snapshot and sharded paths).
//! * **`bayestree`** instantiates the core with an MBR + cluster-feature
//!   payload over raw kernel points (classification); **`clustree`**
//!   instantiates it with decaying micro-clusters (clustering).  Each crate
//!   only implements its leaf policy and split flavour — descent, buffering
//!   and split propagation exist exactly once.
//!
//! One core means one place to add sharding, batching and concurrency — and
//! new anytime workloads plug in by implementing `Summary` + `InsertModel`
//! (write side) or `Summary` + `QueryModel` (read side) rather than
//! re-implementing a tree.  Batching is already in: every layer exposes
//! mini-batch entry points over the core engine (`BayesTree::insert_batch`,
//! `AnytimeClassifier::learn_batch`, `ClusTree::insert_batch`), and `eval`
//! measures clustering purity versus budget and batch size
//! (`eval::batched_budget_sweep`).  Sharding is in
//! too: both trees own the sharded layer, one shard by default and `K`
//! through `BayesTree::sharded` / `ClusTree::sharded` (the clustering
//! snapshot/offline step simply folds the per-shard micro-clusters),
//! `AnytimeClassifier::train_sharded` builds the per-class trees on worker
//! threads bit-identically to sequential training, `eval::sharding` sweeps
//! quality and wall-clock throughput over shard counts 1/2/4/8, and the
//! `shard_scaling` criterion bench measures the 4-shard speedup (it asserts
//! the ≥1.5× smoke threshold only when run on a host with ≥4 CPUs; CI only
//! compiles it, `cargo bench --no-run`).  The query layer is in as well:
//! `bayestree` rebases its frontier (a `QueryCursor` over the
//! `KernelQueryModel`) and `pdq` reference on the shared engine and adds budget-bracketed density queries
//! (`BayesTree::anytime_density` / `density_batch`) plus anytime outlier
//! scoring (`BayesTree::outlier_score`); `clustree` adds anytime k-NN
//! micro-cluster retrieval at any tree level (`ClusTree::anytime_knn`) and
//! the same density/outlier scores; every tree answers queries through one
//! fold that refines per-shard frontiers in parallel and sums one global
//! mixture; and
//! the `anytime_query` criterion bench asserts refinement convergence plus
//! the ≥1.5× 4-shard query-throughput smoke threshold on ≥4-CPU runners.
//! Snapshot reads are in on every layer: `BayesTree::snapshot`,
//! `ClusTree::snapshot` (one snapshot type per family, at any shard count)
//! and `AnytimeClassifier::snapshot` return epoch-pinned `Send + Sync`
//! views that run the live structure's own read methods (answers
//! bit-identical to pin time — `tests/snapshot_isolation.rs`),
//! both trees expose `pipelined_batch` (inserts overlapped with
//! snapshot queries), `clustree` stores an MBR alongside every
//! micro-cluster CF for distance-aware density bounds (nested up the tree,
//! which `ClusTree::validate` checks and the monotone-refinement property
//! tests rely on), `eval::pipeline`
//! sweeps concurrent insert+query throughput at shards 1/2/4/8, and the
//! `pipelined` criterion bench asserts that two concurrent readers cost
//! the writer ≤20% insert throughput on ≥4-CPU runners.
//!
//! ## Quickstart
//!
//! ```
//! use anytime_stream_mining::bayestree::{AnytimeClassifier, ClassifierConfig};
//! use anytime_stream_mining::data::synth::blobs::BlobConfig;
//!
//! // A small synthetic 3-class problem.
//! let dataset = BlobConfig::new(3, 4).samples_per_class(120).seed(7).generate();
//! let (train, test) = dataset.split_holdout(0.25, 42);
//!
//! let classifier = AnytimeClassifier::train(&train, &ClassifierConfig::default());
//! // Classify with a budget of 20 node reads — more budget, better model.
//! let mut correct = 0usize;
//! for (x, y) in test.iter() {
//!     if classifier.classify_with_budget(x, 20).label == *y {
//!         correct += 1;
//!     }
//! }
//! assert!(correct as f64 / test.len() as f64 > 0.5);
//! ```

pub use bayestree;
pub use bt_anytree as anytree;
pub use bt_data as data;
pub use bt_eval as eval;
pub use bt_index as index;
pub use bt_obs as obs;
pub use bt_stats as stats;
pub use clustree;
