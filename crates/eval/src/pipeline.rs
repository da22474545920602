//! Pipelined insert+query sweeps: concurrent reader/writer throughput
//! versus shard count.
//!
//! The epoch-versioned snapshot layer's promise is that **readers do not
//! block writers**: a pinned snapshot answers density queries bit-identical
//! to the pre-batch state while the per-shard writers drain the next
//! mini-batch, and the only cost the writers pay is one copy-on-write per
//! node still pinned.  This sweep measures both sides of that trade at
//! shard counts 1/2/4/8:
//!
//! * the **solo** insert throughput (plain [`BayesTree::insert_batch`]
//!   with nobody reading),
//! * the **pipelined** insert throughput (the same stream through
//!   [`BayesTree::pipelined_batch`] with a query batch refining
//!   against the pre-batch snapshot during every mini-batch),
//! * the queries answered per second while inserting, and the writer's
//!   throughput ratio (pipelined / solo — ≥ 0.8 is the bench's smoke
//!   threshold on multi-core runners).

use bayestree::{BayesTree, DescentStrategy};
use bt_anytree::QueryStats;
use bt_index::PageGeometry;
use std::time::Instant;

use crate::obs::{cache_columns, CACHE_COLUMNS_HEADER, CACHE_COLUMNS_RULE};

/// Concurrent insert+query throughput at one shard count.
#[derive(Debug, Clone)]
pub struct PipelinedThroughput {
    /// Number of shards the index was spread over.
    pub shards: usize,
    /// Insert throughput with nobody reading (objects per second).
    pub solo_inserts_per_sec: f64,
    /// Insert throughput while readers refine against pre-batch snapshots
    /// (objects per second).
    pub pipelined_inserts_per_sec: f64,
    /// Snapshot queries answered per second while inserting.
    pub queries_per_sec: f64,
    /// Mean bound width of the answered queries.
    pub mean_uncertainty: f64,
    /// Retired node copies the writers paid for copy-on-write, across all
    /// shards (zero in the solo run).
    pub retired_nodes: u64,
    /// Fraction of node-block scorings the snapshot readers served from the
    /// per-node block cache, merged over every shard and mini-batch
    /// (0.0 when no blocks were gathered at all).
    pub gather_hit_rate: f64,
    /// Software prefetches the snapshot readers issued for upcoming
    /// frontier candidates, merged over every shard and mini-batch.
    pub prefetches: u64,
}

impl PipelinedThroughput {
    /// The writer's throughput ratio under concurrent readers
    /// (pipelined / solo; 1.0 = readers are free).
    #[must_use]
    pub fn writer_ratio(&self) -> f64 {
        if self.solo_inserts_per_sec <= 0.0 {
            1.0
        } else {
            self.pipelined_inserts_per_sec / self.solo_inserts_per_sec
        }
    }
}

/// Sweeps concurrent insert+query throughput over `shard_counts`: for each
/// count the same stream is inserted once solo and once pipelined (every
/// mini-batch overlapped with `queries` against the pre-batch snapshot).
///
/// # Panics
///
/// Panics if `points` or `queries` is empty, `batch_size` is 0 or any shard
/// count is 0.
#[must_use]
pub fn pipelined_sweep(
    points: &[Vec<f64>],
    queries: &[Vec<f64>],
    shard_counts: &[usize],
    batch_size: usize,
    query_budget: usize,
    geometry: PageGeometry,
) -> Vec<PipelinedThroughput> {
    assert!(!points.is_empty(), "need training points");
    assert!(!queries.is_empty(), "need query points");
    assert!(batch_size > 0, "need a positive batch size");
    let dims = points[0].len();
    shard_counts
        .iter()
        .map(|&shards| {
            // Solo baseline: same stream, nobody reading.
            let mut solo: BayesTree = BayesTree::sharded(dims, geometry, shards);
            let start = Instant::now();
            for chunk in points.chunks(batch_size) {
                let _ = solo.insert_batch(chunk.to_vec());
            }
            let solo_secs = start.elapsed().as_secs_f64().max(1e-9);

            // Pipelined: every mini-batch overlaps with the query workload
            // refining against the pre-batch snapshot.
            let mut tree: BayesTree = BayesTree::sharded(dims, geometry, shards);
            let mut answered = 0usize;
            let mut uncertainty_sum = 0.0;
            let mut reader_stats = QueryStats::default();
            let start = Instant::now();
            for chunk in points.chunks(batch_size) {
                let outcome = tree.pipelined_batch(
                    chunk.to_vec(),
                    queries,
                    DescentStrategy::default(),
                    query_budget,
                );
                answered += outcome.answers.len();
                uncertainty_sum += outcome
                    .answers
                    .iter()
                    .map(bt_anytree::QueryAnswer::uncertainty)
                    .sum::<f64>();
                reader_stats.merge(&outcome.query_stats);
            }
            let pipelined_secs = start.elapsed().as_secs_f64().max(1e-9);
            let retired_nodes = tree
                .shards()
                .iter()
                .map(bt_anytree::AnytimeTree::retired_nodes)
                .sum();

            PipelinedThroughput {
                shards,
                solo_inserts_per_sec: points.len() as f64 / solo_secs,
                pipelined_inserts_per_sec: points.len() as f64 / pipelined_secs,
                queries_per_sec: answered as f64 / pipelined_secs,
                mean_uncertainty: uncertainty_sum / answered.max(1) as f64,
                retired_nodes,
                gather_hit_rate: reader_stats.gather_hit_rate(),
                prefetches: reader_stats.prefetches,
            }
        })
        .collect()
}

/// Formats a pipelined sweep as aligned text.  The reader-side cache and
/// prefetch counters ride along so one table shows both what the writers
/// paid (retired copies) and what the readers saved (cached blocks,
/// prefetched nodes); the hit rate is already guarded against the
/// zero-gather case by [`QueryStats::gather_hit_rate`].
#[must_use]
pub fn format_pipelined_sweep(rows: &[PipelinedThroughput]) -> String {
    let mut out = format!(
        "shards  solo-ins/s  piped-ins/s  ratio  queries/s  uncertainty  retired  {CACHE_COLUMNS_HEADER}\n\
         ------  ----------  -----------  -----  ---------  -----------  -------  {CACHE_COLUMNS_RULE}\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:>6}  {:>10.0}  {:>11.0}  {:>5.2}  {:>9.0}  {:>11.3e}  {:>7}  {}\n",
            r.shards,
            r.solo_inserts_per_sec,
            r.pipelined_inserts_per_sec,
            r.writer_ratio(),
            r.queries_per_sec,
            r.mean_uncertainty,
            r.retired_nodes,
            cache_columns(r.gather_hit_rate, r.prefetches)
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
            .samples_per_class(200)
            .seed(23)
            .generate();
        let points = dataset.features().to_vec();
        let queries = points.iter().step_by(40).cloned().collect();
        (points, queries)
    }

    #[test]
    fn pipelined_sweep_reports_both_sides_of_the_trade() {
        let (points, queries) = workload();
        let rows = pipelined_sweep(
            &points,
            &queries,
            &[1, 2, 4],
            64,
            8,
            PageGeometry::from_fanout(4, 6),
        );
        assert_eq!(rows.len(), 3);
        for r in &rows {
            assert!(r.solo_inserts_per_sec > 0.0);
            assert!(r.pipelined_inserts_per_sec > 0.0);
            assert!(r.queries_per_sec > 0.0, "readers answered while writing");
            assert!(r.writer_ratio() > 0.0);
            // Readers pin pre-batch snapshots, so writers must have paid
            // some copy-on-write — and only while pinned.
            assert!(r.retired_nodes > 0);
            assert!((0.0..=1.0).contains(&r.gather_hit_rate));
        }
        let text = format_pipelined_sweep(&rows);
        assert_eq!(text.lines().count(), 5);
        assert!(text.contains("ratio"));
        assert!(
            text.contains("hit-rate") && text.contains("prefetch"),
            "pipelined report surfaces the reader-side cache counters"
        );
    }
}
