//! Evaluation of the anytime stream-clustering extension (Section 4.2).
//!
//! The key claim is self-adaptation: the tree's granularity follows the
//! stream speed (node budget per arriving object), while exponential decay
//! keeps the model focused on recent data.  These experiments measure
//! micro-cluster purity, weighted SSQ (sum of squared distances of the
//! stream objects to their closest micro-cluster centre) and model size as a
//! function of the per-object node budget.

use bt_anytree::DescentStats;
use bt_stats::vector;
use clustree::{
    weighted_dbscan, ClusTree, ClusTreeConfig, DbscanConfig, DepthHistogram, MicroCluster,
};

/// Result of clustering a labelled stream at one node budget.
#[derive(Debug, Clone)]
pub struct ClusteringQuality {
    /// Per-object node budget used while inserting the stream.
    pub node_budget: usize,
    /// Number of micro-clusters in the final model.
    pub micro_clusters: usize,
    /// Number of tree nodes in the final model.
    pub tree_nodes: usize,
    /// Weight-weighted purity of the micro-clusters w.r.t. the true source
    /// labels (1.0 = every micro-cluster is single-source).
    pub purity: f64,
    /// Average squared distance of each stream object to its closest
    /// micro-cluster centre (lower is better).
    pub ssq_per_object: f64,
    /// Number of macro-clusters found by the offline DBSCAN step.
    pub macro_clusters: usize,
}

/// Inserts a labelled stream into a fresh ClusTree at the given budget and
/// measures the resulting clustering quality.
#[must_use]
pub fn evaluate_stream_clustering(
    stream: &[(Vec<f64>, usize)],
    node_budget: usize,
    config: &ClusTreeConfig,
    dbscan: &DbscanConfig,
) -> ClusteringQuality {
    assert!(!stream.is_empty(), "stream must not be empty");
    let dims = stream[0].0.len();
    let mut tree = ClusTree::new(dims, config.clone());
    for (t, (point, _)) in stream.iter().enumerate() {
        tree.insert(point, t as f64, node_budget);
    }
    let micro = tree.micro_clusters();
    let purity = micro_cluster_purity(&micro, stream);
    let ssq = ssq_per_object(&micro, stream);
    let macro_result = weighted_dbscan(&micro, dbscan);

    ClusteringQuality {
        node_budget,
        micro_clusters: micro.len(),
        tree_nodes: tree.num_nodes(),
        purity,
        ssq_per_object: ssq,
        macro_clusters: macro_result.num_clusters,
    }
}

/// Result of clustering a labelled stream at one node budget with mini-batch
/// insertion: the usual quality metrics plus the batch-specific outcome
/// statistics (where objects parked, how much refresh work was shared).
#[derive(Debug, Clone)]
pub struct BatchedClusteringQuality {
    /// Mini-batch size the stream was inserted with (1 = sequential).
    pub batch_size: usize,
    /// The clustering-quality metrics of the resulting model.
    pub quality: ClusteringQuality,
    /// Reached-leaf vs. parked-at-depth histogram over the whole stream —
    /// shows how batching shifts parking depth under the same budget.
    pub depths: DepthHistogram,
    /// The descent engine's work counters over the whole stream; batching
    /// amortises summary refreshes over the batch, so larger batches
    /// refresh less.
    pub stats: DescentStats,
}

/// Inserts a labelled stream in mini-batches of `batch_size` at the given
/// per-object node budget and measures clustering quality plus the batch
/// outcome statistics.  Objects within one batch share an arrival timestamp
/// (the batch's position in the stream).
///
/// # Panics
///
/// Panics if the stream is empty or `batch_size == 0`.
#[must_use]
pub fn evaluate_stream_clustering_batched(
    stream: &[(Vec<f64>, usize)],
    node_budget: usize,
    batch_size: usize,
    config: &ClusTreeConfig,
    dbscan: &DbscanConfig,
) -> BatchedClusteringQuality {
    assert!(!stream.is_empty(), "stream must not be empty");
    assert!(batch_size > 0, "batch size must be positive");
    let dims = stream[0].0.len();
    let mut tree = ClusTree::new(dims, config.clone());
    let mut depths = DepthHistogram::default();
    for (batch_idx, chunk) in stream.chunks(batch_size).enumerate() {
        let points: Vec<Vec<f64>> = chunk.iter().map(|(p, _)| p.clone()).collect();
        let timestamp = (batch_idx * batch_size) as f64;
        let result = tree.insert_batch(&points, timestamp, node_budget);
        depths.merge(&result.depths);
    }
    let micro = tree.micro_clusters();
    let purity = micro_cluster_purity(&micro, stream);
    let ssq = ssq_per_object(&micro, stream);
    let macro_result = weighted_dbscan(&micro, dbscan);
    BatchedClusteringQuality {
        batch_size,
        quality: ClusteringQuality {
            node_budget,
            micro_clusters: micro.len(),
            tree_nodes: tree.num_nodes(),
            purity,
            ssq_per_object: ssq,
            macro_clusters: macro_result.num_clusters,
        },
        depths,
        stats: tree.stats(),
    }
}

/// Sweeps node budgets × mini-batch sizes (the paper's speed axis × the
/// engine's batching axis) and returns one record per combination, in
/// `budgets`-major order.
#[must_use]
pub fn batched_budget_sweep(
    stream: &[(Vec<f64>, usize)],
    budgets: &[usize],
    batch_sizes: &[usize],
    config: &ClusTreeConfig,
    dbscan: &DbscanConfig,
) -> Vec<BatchedClusteringQuality> {
    budgets
        .iter()
        .flat_map(|&budget| {
            batch_sizes
                .iter()
                .map(move |&batch_size| (budget, batch_size))
        })
        .map(|(budget, batch_size)| {
            evaluate_stream_clustering_batched(stream, budget, batch_size, config, dbscan)
        })
        .collect()
}

/// Sweeps the node budget and returns one quality record per setting.
#[must_use]
pub fn budget_sweep(
    stream: &[(Vec<f64>, usize)],
    budgets: &[usize],
    config: &ClusTreeConfig,
    dbscan: &DbscanConfig,
) -> Vec<ClusteringQuality> {
    budgets
        .iter()
        .map(|&b| evaluate_stream_clustering(stream, b, config, dbscan))
        .collect()
}

/// Weight-weighted purity: every stream object votes for its closest
/// micro-cluster; a micro-cluster's purity is the fraction of its votes cast
/// by its dominant source label.
#[must_use]
pub fn micro_cluster_purity(micro: &[MicroCluster], stream: &[(Vec<f64>, usize)]) -> f64 {
    if micro.is_empty() || stream.is_empty() {
        return 0.0;
    }
    let num_labels = stream.iter().map(|(_, l)| *l).max().unwrap_or(0) + 1;
    let mut votes = vec![vec![0usize; num_labels]; micro.len()];
    for (point, label) in stream {
        let closest = closest_micro_cluster(micro, point);
        votes[closest][*label] += 1;
    }
    let mut pure = 0usize;
    let mut total = 0usize;
    for v in &votes {
        let sum: usize = v.iter().sum();
        let max: usize = v.iter().copied().max().unwrap_or(0);
        pure += max;
        total += sum;
    }
    pure as f64 / total.max(1) as f64
}

/// Mean squared distance of every stream object to its closest micro-cluster
/// centre.
#[must_use]
pub fn ssq_per_object(micro: &[MicroCluster], stream: &[(Vec<f64>, usize)]) -> f64 {
    if micro.is_empty() || stream.is_empty() {
        return f64::INFINITY;
    }
    let total: f64 = stream
        .iter()
        .map(|(point, _)| {
            let c = closest_micro_cluster(micro, point);
            vector::sq_dist(&micro[c].center(), point)
        })
        .sum();
    total / stream.len() as f64
}

fn closest_micro_cluster(micro: &[MicroCluster], point: &[f64]) -> usize {
    let mut best = 0;
    let mut best_d = f64::INFINITY;
    for (i, mc) in micro.iter().enumerate() {
        let d = vector::sq_dist(&mc.center(), point);
        if d < best_d {
            best_d = d;
            best = i;
        }
    }
    best
}

/// Formats a budget sweep as aligned text.
#[must_use]
pub fn format_sweep(rows: &[ClusteringQuality]) -> String {
    let mut out = String::from(
        "budget  micro  nodes  purity  ssq/object  macro\n\
         ------  -----  -----  ------  ----------  -----\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:>6}  {:>5}  {:>5}  {:>6.3}  {:>10.3}  {:>5}\n",
            r.node_budget,
            r.micro_clusters,
            r.tree_nodes,
            r.purity,
            r.ssq_per_object,
            r.macro_clusters
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bt_data::stream::DriftingStream;

    fn stream() -> Vec<(Vec<f64>, usize)> {
        DriftingStream::new(3, 2, 0.3, 0.002, 5).generate(600)
    }

    #[test]
    fn quality_metrics_are_in_range() {
        let q = evaluate_stream_clustering(
            &stream(),
            8,
            &ClusTreeConfig::default(),
            &DbscanConfig {
                epsilon: 2.0,
                min_weight: 10.0,
            },
        );
        assert!(q.purity > 0.5 && q.purity <= 1.0, "purity {}", q.purity);
        assert!(q.ssq_per_object.is_finite());
        assert!(q.micro_clusters >= 1);
        assert!(q.macro_clusters >= 1);
    }

    #[test]
    fn bigger_budget_gives_no_smaller_model() {
        let slow = evaluate_stream_clustering(
            &stream(),
            12,
            &ClusTreeConfig::default(),
            &DbscanConfig::default(),
        );
        let fast = evaluate_stream_clustering(
            &stream(),
            1,
            &ClusTreeConfig::default(),
            &DbscanConfig::default(),
        );
        assert!(
            slow.tree_nodes >= fast.tree_nodes,
            "slow {} vs fast {}",
            slow.tree_nodes,
            fast.tree_nodes
        );
    }

    #[test]
    fn budget_sweep_produces_one_row_per_budget() {
        let rows = budget_sweep(
            &stream(),
            &[1, 4, 8],
            &ClusTreeConfig::default(),
            &DbscanConfig::default(),
        );
        assert_eq!(rows.len(), 3);
        let text = format_sweep(&rows);
        assert!(text.lines().count() == 5);
    }

    #[test]
    fn batched_evaluation_matches_sequential_quality_at_batch_size_one() {
        let s = stream();
        let sequential =
            evaluate_stream_clustering(&s, 8, &ClusTreeConfig::default(), &DbscanConfig::default());
        let batched = evaluate_stream_clustering_batched(
            &s,
            8,
            1,
            &ClusTreeConfig::default(),
            &DbscanConfig::default(),
        );
        // Batch size 1 with zero decay inserts the identical tree (batch
        // timestamps differ from per-object timestamps, but lambda = 0 makes
        // time irrelevant).
        assert_eq!(sequential.micro_clusters, batched.quality.micro_clusters);
        assert_eq!(sequential.tree_nodes, batched.quality.tree_nodes);
        assert!((sequential.purity - batched.quality.purity).abs() < 1e-12);
    }

    #[test]
    fn larger_batches_refresh_fewer_summaries() {
        let s = stream();
        let rows = batched_budget_sweep(
            &s,
            &[4],
            &[1, 8, 64],
            &ClusTreeConfig::default(),
            &DbscanConfig::default(),
        );
        assert_eq!(rows.len(), 3);
        assert!(rows[1].stats.summary_refreshes < rows[0].stats.summary_refreshes);
        assert!(rows[2].stats.summary_refreshes < rows[1].stats.summary_refreshes);
        // Every object is accounted for in the outcome histogram.
        for r in &rows {
            assert_eq!(r.depths.total(), s.len());
        }
    }

    #[test]
    fn purity_of_perfect_micro_clusters_is_one() {
        let stream = vec![
            (vec![0.0, 0.0], 0),
            (vec![0.1, 0.0], 0),
            (vec![10.0, 10.0], 1),
            (vec![10.1, 10.0], 1),
        ];
        let micro = vec![
            MicroCluster::from_point(&[0.05, 0.0], 0.0),
            MicroCluster::from_point(&[10.05, 10.0], 0.0),
        ];
        assert_eq!(micro_cluster_purity(&micro, &stream), 1.0);
    }

    #[test]
    fn ssq_improves_with_closer_centers() {
        let stream = vec![(vec![0.0], 0), (vec![1.0], 0)];
        let far = vec![MicroCluster::from_point(&[10.0], 0.0)];
        let near = vec![MicroCluster::from_point(&[0.5], 0.0)];
        assert!(ssq_per_object(&near, &stream) < ssq_per_object(&far, &stream));
    }

    #[test]
    fn empty_micro_clusters_give_degenerate_metrics() {
        let stream = vec![(vec![0.0], 0)];
        assert_eq!(micro_cluster_purity(&[], &stream), 0.0);
        assert!(ssq_per_object(&[], &stream).is_infinite());
    }
}
