//! Experiment harness regenerating the paper's evaluation.
//!
//! Every table and figure of the paper's evaluation (Section 3.2) has a
//! corresponding experiment here:
//!
//! * **Table 1** — the data-set inventory ([`report::table1`]),
//! * **Figures 2 and 3** — anytime classification accuracy per node read on
//!   the Pendigits / Letter workloads for the four construction methods
//!   (EMTopDown, Hilbert, Goldberger, iterative insertion)
//!   ([`curve::figure_curves`]),
//! * **Figure 4** — the same on the Gender / Covertype workloads, comparing
//!   global-best descent against breadth-first traversal
//!   ([`curve::figure4_curves`]),
//! * the **"up to 13 %" improvement claim** ([`report::improvement_summary`]),
//! * ablations over descent strategies, the qbk parameter and the page
//!   geometry ([`ablation`]),
//! * the anytime-clustering extension's speed-adaptation experiment
//!   ([`clustering`]),
//! * the **mini-batch construction sweep** over the shared core's batched
//!   descent engine: the clustering budget × batch-size sweep reporting
//!   parking-depth histograms and shared refresh counts
//!   ([`clustering::batched_budget_sweep`]),
//! * the **shard-count sweeps** over the sharded concurrent trees: quality
//!   (purity/accuracy, which sharding must not hurt) and wall-clock
//!   insertion/training throughput at shards 1/2/4/8
//!   ([`sharding::clustering_shard_sweep`],
//!   [`sharding::classifier_shard_sweep`]), with per-shard object counts
//!   surfaced so router skew is observable,
//! * the **pipelined insert+query sweeps** over the epoch-versioned
//!   snapshot layer: solo versus concurrent-reader insert throughput, the
//!   writer's throughput ratio, and snapshot queries answered per second at
//!   shards 1/2/4/8 ([`pipeline::pipelined_sweep`]),
//! * the **registry-backed observability reporting** ([`obs`]): the shared
//!   guarded cache-column formatting every sweep table uses, plus
//!   capture-delta helpers that bracket a workload, read back its
//!   [`bt_obs`] metric delta and derive certified-query throughput from
//!   the refinement histograms.
//!
//! The bench crate's binaries (`figure2`, `figure3`, `figure4`, `table1`,
//! `improvement`, `ablation_descent`, `clustree_speed`, `calibrate`) are
//! thin wrappers around these functions that print their results;
//! `docs/PERF.md` records the measured comparisons.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod ablation;
pub mod clustering;
pub mod curve;
pub mod obs;
pub mod pipeline;
pub mod report;
pub mod sharding;

pub use clustering::{batched_budget_sweep, BatchedClusteringQuality};
pub use curve::{anytime_accuracy_curve, AccuracyCurve, CurveConfig};
pub use obs::RegistryCapture;
pub use pipeline::{pipelined_sweep, PipelinedThroughput};
pub use report::{ascii_chart, curves_to_csv, improvement_summary, table1};
pub use sharding::{
    classifier_shard_sweep, clustering_shard_sweep, ShardedClusteringQuality,
    ShardedTrainingQuality,
};
