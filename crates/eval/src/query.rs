//! Query-side sweeps: answer quality versus node-read budget, and sharded
//! query throughput versus shard count.
//!
//! The anytime query engine's promise is twofold: (1) the certain
//! `[lower, upper]` density interval can only tighten as the per-query
//! budget grows (monotone refinement), and (2) the sharded query path turns
//! cores into extra refinement — per-shard frontiers refine in parallel and
//! fold into one global mixture.  The sweeps here measure both:
//!
//! * [`density_budget_sweep`] — mean bound width (uncertainty) and mean
//!   absolute error against the fully refined kernel density, per budget;
//!   the uncertainty column must be non-increasing in budget,
//! * [`sharded_query_sweep`] — queries/sec and node-reads/sec of the folded
//!   sharded query at shard counts 1/2/4/8 (same per-shard budget, so the
//!   shards do proportionally more refinement in the same wall-clock).

use bayestree::{BayesTree, DescentStrategy, Quantized, StoredElement};
use bt_anytree::QueryStats;
use bt_index::PageGeometry;
use std::time::Instant;

use crate::obs::{cache_columns, CACHE_COLUMNS_HEADER, CACHE_COLUMNS_RULE};

/// Answer quality at one node-read budget, averaged over a query workload.
#[derive(Debug, Clone)]
pub struct QueryBudgetQuality {
    /// Node-read budget each query was allowed.
    pub budget: usize,
    /// Mean width of the certain `[lower, upper]` density interval — the
    /// honest remaining uncertainty, non-increasing in budget.
    pub mean_uncertainty: f64,
    /// Mean absolute error of the point estimate against the fully refined
    /// kernel density.
    pub mean_abs_error: f64,
    /// Mean node reads actually spent (queries may exhaust early).
    pub mean_nodes_read: f64,
    /// The engine's work counters over the whole workload at this budget.
    pub stats: QueryStats,
}

/// Sweeps the anytime density query over `budgets`, measuring bound width
/// and estimate error against the fully refined model.
///
/// # Panics
///
/// Panics if `points` or `queries` is empty.
#[must_use]
pub fn density_budget_sweep(
    points: &[Vec<f64>],
    queries: &[Vec<f64>],
    budgets: &[usize],
    geometry: PageGeometry,
) -> Vec<QueryBudgetQuality> {
    density_budget_sweep_for::<f64>(points, queries, budgets, geometry)
}

/// [`density_budget_sweep`] generalised over the stored-summary mode `E`
/// (`f64` or [`Quantized`]): the tree is built and queried with
/// summaries stored at that precision, while the error reference stays the
/// exact flat kernel density (leaves are exact `f64` in every mode).
///
/// # Panics
///
/// Panics if `points` or `queries` is empty.
#[must_use]
pub fn density_budget_sweep_for<E: StoredElement>(
    points: &[Vec<f64>],
    queries: &[Vec<f64>],
    budgets: &[usize],
    geometry: PageGeometry,
) -> Vec<QueryBudgetQuality> {
    assert!(!points.is_empty(), "need training points");
    assert!(!queries.is_empty(), "need query points");
    let dims = points[0].len();
    let tree: BayesTree<E> = BayesTree::build_iterative(points, dims, geometry);
    let truths: Vec<f64> = queries
        .iter()
        .map(|q| tree.full_kernel_density(q))
        .collect();
    budgets
        .iter()
        .map(|&budget| {
            let (answers, stats) = tree.density_batch(queries, DescentStrategy::default(), budget);
            let mean_uncertainty = answers
                .iter()
                .map(bt_anytree::QueryAnswer::uncertainty)
                .sum::<f64>()
                / answers.len() as f64;
            let mean_abs_error = answers
                .iter()
                .zip(&truths)
                .map(|(a, t)| (a.estimate - t).abs())
                .sum::<f64>()
                / answers.len() as f64;
            let mean_nodes_read =
                answers.iter().map(|a| a.nodes_read as f64).sum::<f64>() / answers.len() as f64;
            QueryBudgetQuality {
                budget,
                mean_uncertainty,
                mean_abs_error,
                mean_nodes_read,
                stats,
            }
        })
        .collect()
}

/// One stored-summary mode's quality rows in a [`stored_mode_sweep`].
#[derive(Debug, Clone)]
pub struct StoredModeQuality {
    /// Stored-mode label (`"f64"` or `"quantized"`).
    pub mode: &'static str,
    /// Resident bytes one scored directory entry costs in this mode: the
    /// exact `f64` weight plus four `dims`-wide stored columns (CF LS/SS
    /// and the two MBR corner rows).
    pub bytes_per_scored_entry: usize,
    /// The per-budget quality rows, same budgets across every mode.
    pub rows: Vec<QueryBudgetQuality>,
}

/// Resident bytes per scored directory entry for stored mode `E` at `dims`
/// dimensions — the footprint axis of the precision/bandwidth trade.
#[must_use]
pub const fn bytes_per_scored_entry<E: StoredElement>(dims: usize) -> usize {
    std::mem::size_of::<f64>() + dims * 4 * E::SCALAR_BYTES
}

/// Runs [`density_budget_sweep_for`] once per stored-summary mode (`f64`,
/// quantised) over the same workload, pairing each mode's quality
/// rows with its per-entry footprint — the data behind the
/// bytes-versus-bound-width trade-off table in `docs/PERF.md`.
///
/// # Panics
///
/// Panics if `points` or `queries` is empty.
#[must_use]
pub fn stored_mode_sweep(
    points: &[Vec<f64>],
    queries: &[Vec<f64>],
    budgets: &[usize],
    geometry: PageGeometry,
) -> Vec<StoredModeQuality> {
    let dims = points[0].len();
    vec![
        StoredModeQuality {
            mode: <f64 as StoredElement>::MODE,
            bytes_per_scored_entry: bytes_per_scored_entry::<f64>(dims),
            rows: density_budget_sweep_for::<f64>(points, queries, budgets, geometry),
        },
        StoredModeQuality {
            mode: Quantized::MODE,
            bytes_per_scored_entry: bytes_per_scored_entry::<Quantized>(dims),
            rows: density_budget_sweep_for::<Quantized>(points, queries, budgets, geometry),
        },
    ]
}

/// Throughput and quality of the sharded query path at one shard count.
#[derive(Debug, Clone)]
pub struct ShardedQueryThroughput {
    /// Number of shards the index was spread over.
    pub shards: usize,
    /// Folded queries answered per second.
    pub queries_per_sec: f64,
    /// Frontier node reads performed per second (the work axis that scales
    /// with cores: every shard refines its own frontier concurrently).
    pub nodes_per_sec: f64,
    /// Mean bound width of the folded answers.
    pub mean_uncertainty: f64,
    /// Fraction of node-block scorings served from the per-node block
    /// cache instead of re-gathering columns (merged over every shard).
    pub gather_hit_rate: f64,
    /// Software prefetches issued for upcoming frontier candidates, merged
    /// over every shard.
    pub prefetches: u64,
    /// Objects routed to each shard (router-skew observability).
    pub shard_sizes: Vec<usize>,
}

/// Runs a batch of anytime density queries against a [`BayesTree`]
/// at each shard count (same per-shard budget) and measures folded
/// throughput plus answer quality.
///
/// # Panics
///
/// Panics if `points` or `queries` is empty or any shard count is 0.
#[must_use]
pub fn sharded_query_sweep(
    points: &[Vec<f64>],
    queries: &[Vec<f64>],
    shard_counts: &[usize],
    budget_per_shard: usize,
    geometry: PageGeometry,
) -> Vec<ShardedQueryThroughput> {
    assert!(!points.is_empty(), "need training points");
    assert!(!queries.is_empty(), "need query points");
    let dims = points[0].len();
    shard_counts
        .iter()
        .map(|&shards| {
            let mut tree: BayesTree = BayesTree::sharded(dims, geometry, shards);
            for chunk in points.chunks(256) {
                let _ = tree.insert_batch(chunk.to_vec());
            }
            tree.fit_bandwidth();
            let start = Instant::now();
            let (answers, stats) =
                tree.density_batch(queries, DescentStrategy::default(), budget_per_shard);
            let wall_secs = start.elapsed().as_secs_f64().max(1e-9);
            let mean_uncertainty = answers
                .iter()
                .map(bt_anytree::QueryAnswer::uncertainty)
                .sum::<f64>()
                / answers.len() as f64;
            ShardedQueryThroughput {
                shards,
                queries_per_sec: queries.len() as f64 / wall_secs,
                nodes_per_sec: stats.nodes_read as f64 / wall_secs,
                mean_uncertainty,
                gather_hit_rate: stats.gather_hit_rate(),
                prefetches: stats.prefetches,
                shard_sizes: tree.shard_sizes().to_vec(),
            }
        })
        .collect()
}

/// Formats a density budget sweep as aligned text; the engine counters use
/// [`QueryStats`]' `Display` form, with the block-cache hit rate and the
/// frontier prefetch count broken out as their own columns
/// ([`QueryStats::gather_hit_rate`] guards the zero-gather case, so a
/// budget-0 row prints 0.00 rather than NaN).
#[must_use]
pub fn format_density_budget_sweep(rows: &[QueryBudgetQuality]) -> String {
    let mut out = format!(
        "budget  mean-reads  uncertainty  abs-error  {CACHE_COLUMNS_HEADER}  engine\n\
         ------  ----------  -----------  ---------  {CACHE_COLUMNS_RULE}  ------\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:>6}  {:>10.1}  {:>11.3e}  {:>9.3e}  {}  {}\n",
            r.budget,
            r.mean_nodes_read,
            r.mean_uncertainty,
            r.mean_abs_error,
            cache_columns(r.stats.gather_hit_rate(), r.stats.prefetches),
            r.stats
        ));
    }
    out
}

/// Formats a stored-mode sweep as aligned text: one row per (mode, budget)
/// pair, with the per-entry byte footprint and the mean certified bound
/// width side by side so the storage-versus-certainty trade reads off
/// directly.
#[must_use]
pub fn format_stored_mode_sweep(modes: &[StoredModeQuality]) -> String {
    let mut out = String::from(
        "mode       bytes/entry  budget  mean-reads  bound-width  abs-error\n\
         ---------  -----------  ------  ----------  -----------  ---------\n",
    );
    for m in modes {
        for r in &m.rows {
            out.push_str(&format!(
                "{:<9}  {:>11}  {:>6}  {:>10.1}  {:>11.3e}  {:>9.3e}\n",
                m.mode,
                m.bytes_per_scored_entry,
                r.budget,
                r.mean_nodes_read,
                r.mean_uncertainty,
                r.mean_abs_error,
            ));
        }
    }
    out
}

/// Formats a sharded query sweep as aligned text, including the per-shard
/// size split (router skew).
#[must_use]
pub fn format_sharded_query_sweep(rows: &[ShardedQueryThroughput]) -> String {
    let mut out = format!(
        "shards  queries/sec  reads/sec  uncertainty  {CACHE_COLUMNS_HEADER}  sizes\n\
         ------  -----------  ---------  -----------  {CACHE_COLUMNS_RULE}  -----\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:>6}  {:>11.0}  {:>9.0}  {:>11.3e}  {}  {:?}\n",
            r.shards,
            r.queries_per_sec,
            r.nodes_per_sec,
            r.mean_uncertainty,
            cache_columns(r.gather_hit_rate, r.prefetches),
            r.shard_sizes
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bt_data::synth::blobs::BlobConfig;

    fn workload() -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
        let dataset = BlobConfig::new(2, 3)
            .samples_per_class(150)
            .seed(17)
            .generate();
        let points = dataset.features().to_vec();
        let queries = points.iter().step_by(30).cloned().collect();
        (points, queries)
    }

    #[test]
    fn uncertainty_is_non_increasing_in_budget() {
        let (points, queries) = workload();
        let rows = density_budget_sweep(
            &points,
            &queries,
            &[0, 2, 8, 32, 128],
            PageGeometry::from_fanout(4, 6),
        );
        assert_eq!(rows.len(), 5);
        for pair in rows.windows(2) {
            assert!(
                pair[1].mean_uncertainty <= pair[0].mean_uncertainty + 1e-12,
                "budget {} -> {}: uncertainty grew",
                pair[0].budget,
                pair[1].budget
            );
        }
        // At a generous budget the estimate error is far below the
        // root-level error.
        assert!(rows.last().unwrap().mean_abs_error <= rows[0].mean_abs_error + 1e-12);
        let text = format_density_budget_sweep(&rows);
        assert_eq!(text.lines().count(), 7);
        assert!(
            text.contains("queries="),
            "engine column uses QueryStats Display"
        );
        assert!(
            text.contains("cached="),
            "engine column surfaces the block-cache counters"
        );
        assert!(
            text.contains("hit-rate") && text.contains("prefetch"),
            "cache hit rate and prefetch count get their own columns"
        );
        // The budget-0 row performs no gathers; the guarded hit rate must
        // still be a finite number in [0, 1].
        for r in &rows {
            assert!((0.0..=1.0).contains(&r.stats.gather_hit_rate()));
        }
    }

    #[test]
    fn stored_mode_sweep_pairs_footprint_with_bound_width() {
        let (points, queries) = workload();
        let modes = stored_mode_sweep(
            &points,
            &queries,
            &[0, 8, 64],
            PageGeometry::from_fanout(4, 6),
        );
        assert_eq!(modes.len(), 2);
        let dims = points[0].len();
        // 8-byte weight + 4 stored columns of dims scalars each.
        assert_eq!(modes[0].mode, "f64");
        assert_eq!(modes[0].bytes_per_scored_entry, 8 + dims * 4 * 8);
        assert_eq!(modes[1].mode, "quantized");
        assert_eq!(modes[1].bytes_per_scored_entry, 8 + dims * 4 * 2);
        for m in &modes {
            assert_eq!(m.rows.len(), 3);
            // Monotone refinement holds within every stored mode.
            for pair in m.rows.windows(2) {
                assert!(pair[1].mean_uncertainty <= pair[0].mean_uncertainty + 1e-12);
            }
            // Leaves are exact in every mode, so a generous budget drives
            // the estimate error below the root-level error.
            assert!(m.rows[2].mean_abs_error <= m.rows[0].mean_abs_error + 1e-12);
        }
        let text = format_stored_mode_sweep(&modes);
        assert_eq!(text.lines().count(), 2 + 2 * 3);
        assert!(text.contains("bytes/entry") && text.contains("bound-width"));
        assert!(text.contains("quantized"));
    }

    #[test]
    fn sharded_sweep_reports_throughput_and_skew() {
        let (points, queries) = workload();
        let rows = sharded_query_sweep(
            &points,
            &queries,
            &[1, 2, 4],
            8,
            PageGeometry::from_fanout(4, 6),
        );
        assert_eq!(rows.len(), 3);
        for r in &rows {
            assert!(r.queries_per_sec > 0.0);
            assert_eq!(r.shard_sizes.len(), r.shards);
            assert_eq!(r.shard_sizes.iter().sum::<usize>(), points.len());
        }
        let text = format_sharded_query_sweep(&rows);
        assert_eq!(text.lines().count(), 5);
        assert!(
            text.contains("hit-rate") && text.contains("prefetch"),
            "sharded report surfaces the cache hit rate and prefetch count"
        );
        for r in &rows {
            assert!((0.0..=1.0).contains(&r.gather_hit_rate));
        }
    }
}
