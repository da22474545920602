//! The metric catalogue the tree layers record into.
//!
//! Every metric lives in the global [`Registry`] under a
//! `bt_` prefix; counters end in `_total`, histograms name their unit
//! (`_ns`) or quantity.  The full catalogue with semantics is documented
//! in `docs/OBSERVABILITY.md`.  Layers obtain the catalogue through
//! [`tree_metrics`], which registers it exactly once per process.

use std::sync::OnceLock;

use crate::hist::{Histogram, HistogramSpec};
use crate::registry::{Counter, Gauge, Registry};

/// Shared handles to every tree-layer metric.
///
/// Cloning a field clones a handle onto the same registered cell, so the
/// catalogue can be read (or recorded into) from any thread.
#[derive(Debug)]
pub struct TreeMetrics {
    // Insert lifecycle — fed from `DescentStats` deltas at batch
    // boundaries.
    /// Objects drained through batched insertion.
    pub insert_objects: Counter,
    /// Objects that reached leaf level within budget.
    pub insert_reached_leaf: Counter,
    /// Objects parked in hitchhiker buffers when budget ran out.
    pub insert_parked: Counter,
    /// Mini-batches finished (single inserts count as batches of one).
    pub insert_batches: Counter,
    /// Descent cursor steps (one per node an object rests on).
    pub insert_node_visits: Counter,
    /// Per-node summary refreshes performed while finishing batches.
    pub insert_summary_refreshes: Counter,
    /// Node splits resolved bottom-up at batch boundaries.
    pub insert_splits: Counter,
    /// Software prefetches issued for routed children.
    pub insert_prefetches: Counter,
    /// Wall-clock latency of each finished batch.
    pub batch_latency_ns: Histogram,

    // Query lifecycle — fed from `QueryStats` deltas and per-answer
    // observations at query boundaries.
    /// Queries begun on a cursor.
    pub queries: Counter,
    /// Refinement steps performed (one node read each).
    pub query_nodes_read: Counter,
    /// Frontier elements scored.
    pub query_elements_scored: Counter,
    /// Node-column gathers into scoring blocks (block-cache misses).
    pub query_block_gathers: Counter,
    /// Gathers served from the per-node block cache.
    pub query_gathers_avoided: Counter,
    /// Software prefetches issued for upcoming frontier candidates.
    pub query_prefetches: Counter,
    /// Wall-clock latency of each answered query.
    pub query_latency_ns: Histogram,
    /// Final certified `[lower, upper]` width of each answered query.
    pub query_bound_width: Histogram,

    // Refinement trace — the paper's quality-over-time curve, fed per
    // refinement round by the outlier/density refinement loops.
    /// Bound width observed at each refinement round.
    pub refine_bound_width: Histogram,
    /// Node reads spent per query at the round it finished.
    pub refine_budget_spent: Histogram,
    /// Queries whose verdict was certified within budget.
    pub queries_certified: Counter,
    /// Queries still undecided when budget ran out.
    pub queries_uncertain: Counter,

    // Snapshot lifecycle — fed by `TreeSnapshot::refresh`.
    /// Incremental snapshot refreshes performed.
    pub snapshot_refreshes: Counter,
    /// Slot-table chunks refreshes kept pinned unchanged.
    pub snapshot_chunks_reused: Counter,
    /// Slot-table chunks refreshes had to re-pin.
    pub snapshot_chunks_refreshed: Counter,

    // Arena memory — fed by each arena at its batch boundaries; the gauges
    // sum every arena alive in the process.
    /// Node versions the arenas hold: current versions plus the retired
    /// ones kept for recycling.
    pub arena_versions_live: Gauge,
    /// Retired versions the arenas keep that a pinned snapshot still
    /// reaches.
    pub arena_versions_held_by_pins: Gauge,
    /// Copy-on-write copies written into a recycled version.
    pub arena_versions_recycled: Counter,

    /// Height of the most recently batch-finished tree.
    pub tree_height: Gauge,
}

impl TreeMetrics {
    /// Registers (or re-attaches to) the whole catalogue on `registry`.
    #[must_use]
    pub fn register(registry: &Registry) -> Self {
        Self {
            insert_objects: registry.counter(
                "bt_insert_objects_total",
                "Objects drained through batched insertion",
            ),
            insert_reached_leaf: registry.counter(
                "bt_insert_reached_leaf_total",
                "Objects that reached leaf level within budget",
            ),
            insert_parked: registry.counter(
                "bt_insert_parked_total",
                "Objects parked in hitchhiker buffers when budget ran out",
            ),
            insert_batches: registry.counter(
                "bt_insert_batches_total",
                "Mini-batches finished (single inserts are batches of one)",
            ),
            insert_node_visits: registry.counter(
                "bt_insert_node_visits_total",
                "Descent cursor steps (one per node an object rests on)",
            ),
            insert_summary_refreshes: registry.counter(
                "bt_insert_summary_refreshes_total",
                "Per-node summary refreshes performed while finishing batches",
            ),
            insert_splits: registry.counter(
                "bt_insert_splits_total",
                "Node splits resolved bottom-up at batch boundaries",
            ),
            insert_prefetches: registry.counter(
                "bt_insert_prefetches_total",
                "Software prefetches issued for routed children",
            ),
            batch_latency_ns: registry.histogram(
                "bt_batch_latency_ns",
                "Wall-clock latency of each finished insert batch (ns)",
                HistogramSpec::LATENCY_NS,
            ),
            queries: registry.counter("bt_queries_total", "Queries begun on a cursor"),
            query_nodes_read: registry.counter(
                "bt_query_nodes_read_total",
                "Refinement steps performed (one node read each)",
            ),
            query_elements_scored: registry
                .counter("bt_query_elements_scored_total", "Frontier elements scored"),
            query_block_gathers: registry.counter(
                "bt_query_block_gathers_total",
                "Node-column gathers into scoring blocks (block-cache misses)",
            ),
            query_gathers_avoided: registry.counter(
                "bt_query_gathers_avoided_total",
                "Gathers served from the per-node block cache",
            ),
            query_prefetches: registry.counter(
                "bt_query_prefetches_total",
                "Software prefetches issued for upcoming frontier candidates",
            ),
            query_latency_ns: registry.histogram(
                "bt_query_latency_ns",
                "Wall-clock latency of each answered query (ns)",
                HistogramSpec::LATENCY_NS,
            ),
            query_bound_width: registry.histogram(
                "bt_query_bound_width",
                "Final certified [lower, upper] width per answered query",
                HistogramSpec::BOUND_WIDTH,
            ),
            refine_bound_width: registry.histogram(
                "bt_refine_bound_width",
                "Bound width observed at each refinement round",
                HistogramSpec::BOUND_WIDTH,
            ),
            refine_budget_spent: registry.histogram(
                "bt_refine_budget_spent",
                "Node reads spent per query at the round it finished",
                HistogramSpec::BUDGET,
            ),
            queries_certified: registry.counter(
                "bt_queries_certified_total",
                "Queries whose verdict was certified within budget",
            ),
            queries_uncertain: registry.counter(
                "bt_queries_uncertain_total",
                "Queries still undecided when budget ran out",
            ),
            snapshot_refreshes: registry.counter(
                "bt_snapshot_refreshes_total",
                "Incremental snapshot refreshes performed",
            ),
            snapshot_chunks_reused: registry.counter(
                "bt_snapshot_chunks_reused_total",
                "Slot-table chunks snapshot refreshes kept pinned unchanged",
            ),
            snapshot_chunks_refreshed: registry.counter(
                "bt_snapshot_chunks_refreshed_total",
                "Slot-table chunks snapshot refreshes had to re-pin",
            ),
            arena_versions_live: registry.gauge(
                "bt_arena_versions_live",
                "Node versions the arenas hold (current plus retired spares)",
            ),
            arena_versions_held_by_pins: registry.gauge(
                "bt_arena_versions_held_by_pins",
                "Retired node versions a pinned snapshot still reaches",
            ),
            arena_versions_recycled: registry.counter(
                "bt_arena_versions_recycled_total",
                "Copy-on-write copies written into a recycled node version",
            ),
            tree_height: registry.gauge(
                "bt_tree_height",
                "Height of the most recently batch-finished tree",
            ),
        }
    }
}

/// The catalogue registered on the global registry, created on first use.
#[must_use]
pub fn tree_metrics() -> &'static TreeMetrics {
    static METRICS: OnceLock<TreeMetrics> = OnceLock::new();
    METRICS.get_or_init(|| TreeMetrics::register(Registry::global()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_registers_once_and_shares_cells() {
        let a = tree_metrics();
        let b = tree_metrics();
        assert!(std::ptr::eq(a, b));
        // Re-registering on the global registry re-attaches to the same
        // cells instead of conflicting.
        let again = TreeMetrics::register(Registry::global());
        assert_eq!(again.queries.get(), a.queries.get());
    }
}
