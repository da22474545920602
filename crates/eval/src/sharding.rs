//! Shard-count sweeps: quality and wall-clock throughput versus `K`.
//!
//! The sharded trees trade nothing on the quality axis (micro-clusters are
//! additive, kernel densities are sums, per-class trees are independent) and
//! buy wall-clock on the throughput axis — so the right evaluation reports
//! both: purity/accuracy to show quality holds, and objects-per-second
//! to show the scaling.  On a single-core runner the throughput column
//! degenerates to "no worse"; the criterion bench (`shard_scaling`) asserts
//! the ≥1.5× scaling claim only when ≥4 CPUs are available.

use crate::clustering::{micro_cluster_purity, ssq_per_object};
use bayestree::{AnytimeClassifier, ClassifierConfig};
use bt_anytree::DescentStats;
use bt_data::Dataset;
use clustree::{ClusTree, ClusTreeConfig, DbscanConfig};
use std::time::Instant;

/// Quality and throughput of one sharded stream-clustering run.
#[derive(Debug, Clone)]
pub struct ShardedClusteringQuality {
    /// Number of shards the stream was spread over.
    pub shards: usize,
    /// Wall-clock seconds spent inserting the stream.
    pub wall_secs: f64,
    /// Insertion throughput in objects per second.
    pub objects_per_sec: f64,
    /// Weight-weighted micro-cluster purity w.r.t. the true source labels.
    pub purity: f64,
    /// Mean squared distance of each object to its closest micro-cluster.
    pub ssq_per_object: f64,
    /// Number of micro-clusters after folding the shards.
    pub micro_clusters: usize,
    /// Total tree nodes across all shards.
    pub total_nodes: usize,
    /// Macro-clusters found by the offline DBSCAN step over the fold.
    pub macro_clusters: usize,
    /// Objects parked (ran out of budget) anywhere in the sweep.
    pub parked: usize,
    /// Objects routed to each shard — the router-skew observability hook
    /// ahead of the future work-stealing layer (a perfectly balanced router
    /// yields equal counts; `shard_skew` summarises the imbalance).
    pub shard_sizes: Vec<usize>,
    /// The descent engine's work counters merged across shards.
    pub stats: DescentStats,
}

impl ShardedClusteringQuality {
    /// Router skew: largest shard size over the mean shard size (1.0 means
    /// perfectly balanced).
    #[must_use]
    pub fn shard_skew(&self) -> f64 {
        let max = self.shard_sizes.iter().max().copied().unwrap_or(0) as f64;
        let total: usize = self.shard_sizes.iter().sum();
        let mean = total as f64 / self.shard_sizes.len().max(1) as f64;
        if mean <= 0.0 {
            1.0
        } else {
            max / mean
        }
    }
}

/// Inserts a labelled stream into a [`ClusTree`] at each shard count
/// and measures clustering quality plus wall-clock insertion throughput.
///
/// The stream is inserted in mini-batches of `batch_size` (each batch
/// descends all shards in parallel); timing covers insertion only, not the
/// offline metrics.
///
/// # Panics
///
/// Panics if the stream is empty, `batch_size == 0`, or any shard count is 0.
#[must_use]
pub fn clustering_shard_sweep(
    stream: &[(Vec<f64>, usize)],
    shard_counts: &[usize],
    node_budget: usize,
    batch_size: usize,
    config: &ClusTreeConfig,
    dbscan: &DbscanConfig,
) -> Vec<ShardedClusteringQuality> {
    assert!(!stream.is_empty(), "stream must not be empty");
    assert!(batch_size > 0, "batch size must be positive");
    let dims = stream[0].0.len();
    shard_counts
        .iter()
        .map(|&shards| {
            let mut tree: ClusTree = ClusTree::sharded(dims, config.clone(), shards);
            let mut parked = 0usize;
            let start = Instant::now();
            for (batch_idx, chunk) in stream.chunks(batch_size).enumerate() {
                let points: Vec<Vec<f64>> = chunk.iter().map(|(p, _)| p.clone()).collect();
                let timestamp = (batch_idx * batch_size) as f64;
                let result = tree.insert_batch(&points, timestamp, node_budget);
                parked += result.depths.parked_total();
            }
            let wall_secs = start.elapsed().as_secs_f64();
            let micro = tree.micro_clusters();
            ShardedClusteringQuality {
                shards,
                wall_secs,
                objects_per_sec: stream.len() as f64 / wall_secs.max(1e-9),
                purity: micro_cluster_purity(&micro, stream),
                ssq_per_object: ssq_per_object(&micro, stream),
                micro_clusters: micro.len(),
                total_nodes: tree.num_nodes(),
                macro_clusters: tree.offline_clustering(dbscan).num_clusters,
                parked,
                shard_sizes: tree.shard_sizes().to_vec(),
                stats: tree.stats(),
            }
        })
        .collect()
}

/// Training wall-clock and accuracy of one sharded classifier build.
#[derive(Debug, Clone)]
pub struct ShardedTrainingQuality {
    /// Worker-thread count the per-class trees were built with.
    pub shards: usize,
    /// Wall-clock seconds spent training.
    pub train_secs: f64,
    /// Holdout accuracy at `budget` node reads (identical across shard
    /// counts: sharded training is bit-identical to sequential training).
    pub accuracy: f64,
}

/// Trains the anytime classifier with [`AnytimeClassifier::train_sharded`]
/// at each worker count and measures training wall-clock plus holdout
/// accuracy at `budget` node reads.
///
/// # Panics
///
/// Panics if the training or test split is empty.
#[must_use]
pub fn classifier_shard_sweep(
    dataset: &Dataset,
    shard_counts: &[usize],
    budget: usize,
    config: &ClassifierConfig,
) -> Vec<ShardedTrainingQuality> {
    let (train, test) = dataset.split_holdout(0.25, config.seed);
    assert!(!train.is_empty() && !test.is_empty(), "empty split");
    shard_counts
        .iter()
        .map(|&shards| {
            let start = Instant::now();
            let classifier = AnytimeClassifier::train_sharded(&train, config, shards);
            let train_secs = start.elapsed().as_secs_f64();
            let mut correct = 0usize;
            for (x, &y) in test.iter() {
                if classifier.classify_with_budget(x, budget).label == y {
                    correct += 1;
                }
            }
            ShardedTrainingQuality {
                shards,
                train_secs,
                accuracy: correct as f64 / test.len() as f64,
            }
        })
        .collect()
}

/// Formats a clustering shard sweep as aligned text, including the
/// per-shard size split (router skew); the engine counters use
/// [`DescentStats`]' `Display` form.
#[must_use]
pub fn format_clustering_shard_sweep(rows: &[ShardedClusteringQuality]) -> String {
    let mut out = String::from(
        "shards  obj/sec  purity  micro  nodes  macro  parked  skew  sizes / engine\n\
         ------  -------  ------  -----  -----  -----  ------  ----  --------------\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:>6}  {:>7.0}  {:>6.3}  {:>5}  {:>5}  {:>5}  {:>6}  {:>4.2}  {:?} {}\n",
            r.shards,
            r.objects_per_sec,
            r.purity,
            r.micro_clusters,
            r.total_nodes,
            r.macro_clusters,
            r.parked,
            r.shard_skew(),
            r.shard_sizes,
            r.stats
        ));
    }
    out
}

/// Formats a classifier training shard sweep as aligned text.
#[must_use]
pub fn format_classifier_shard_sweep(rows: &[ShardedTrainingQuality]) -> String {
    let mut out = String::from(
        "shards  train-secs  accuracy\n\
         ------  ----------  --------\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:>6}  {:>10.3}  {:>8.3}\n",
            r.shards, r.train_secs, r.accuracy
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bt_data::stream::DriftingStream;
    use bt_data::synth::blobs::BlobConfig;

    fn stream() -> Vec<(Vec<f64>, usize)> {
        DriftingStream::new(3, 2, 0.3, 0.002, 5).generate(600)
    }

    #[test]
    fn clustering_sweep_produces_one_row_per_shard_count() {
        let rows = clustering_shard_sweep(
            &stream(),
            &[1, 2, 4],
            8,
            32,
            &ClusTreeConfig::default(),
            &DbscanConfig::default(),
        );
        assert_eq!(rows.len(), 3);
        for r in &rows {
            assert!(r.purity > 0.5 && r.purity <= 1.0, "purity {}", r.purity);
            assert!(r.ssq_per_object.is_finite());
            assert!(r.micro_clusters >= 1);
            assert!(r.objects_per_sec > 0.0);
            assert!(r.total_nodes >= r.shards);
            // Router skew is observable: every object lands in some shard.
            assert_eq!(r.shard_sizes.len(), r.shards);
            assert_eq!(r.shard_sizes.iter().sum::<usize>(), 600);
            assert!(r.shard_skew() >= 1.0 - 1e-9);
        }
        let text = format_clustering_shard_sweep(&rows);
        assert_eq!(text.lines().count(), 5);
        assert!(
            text.contains("refreshes="),
            "engine column uses DescentStats Display"
        );
    }

    #[test]
    fn sharding_does_not_hurt_clustering_quality() {
        let rows = clustering_shard_sweep(
            &stream(),
            &[1, 4],
            8,
            32,
            &ClusTreeConfig::default(),
            &DbscanConfig::default(),
        );
        // Shards refine the model (more independent roots), so purity must
        // not collapse relative to the single tree.
        assert!(rows[1].purity + 0.1 >= rows[0].purity);
    }

    #[test]
    fn classifier_sweep_is_quality_invariant_across_shard_counts() {
        let dataset = BlobConfig::new(3, 4)
            .samples_per_class(60)
            .seed(11)
            .generate();
        let rows = classifier_shard_sweep(&dataset, &[1, 2, 4], 15, &ClassifierConfig::default());
        assert_eq!(rows.len(), 3);
        // Sharded training is bit-identical to sequential training, so the
        // accuracy column is constant.
        for r in &rows {
            assert!((r.accuracy - rows[0].accuracy).abs() < 1e-12);
            assert!(r.train_secs >= 0.0);
        }
        assert!(rows[0].accuracy > 0.8, "accuracy {}", rows[0].accuracy);
        let text = format_classifier_shard_sweep(&rows);
        assert_eq!(text.lines().count(), 5);
    }
}
