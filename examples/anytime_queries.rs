//! Anytime queries: interrupt anywhere, get an honest answer.
//!
//! The query engine's contract is the mirror of anytime insertion: a query's
//! mixture estimate improves monotonically as its node-read budget grows,
//! and the certain `[lower, upper]` bounds around it can only tighten.  This
//! example walks the three query workloads over one index:
//!
//! 1. budget-bracketed density queries on a Bayes tree (bounds narrowing),
//! 2. anytime outlier scoring (verdicts certain after a handful of reads),
//! 3. anytime k-NN micro-cluster retrieval on a ClusTree (coarse → fine),
//! 4. the sharded parallel query path: the same trees built with `K` shards
//!    (`BayesTree::sharded`, `ClusTree::sharded`) refine per-shard
//!    frontiers and fold them into one mixture.
//!
//! Run with `cargo run --release --example anytime_queries`.

use anytime_stream_mining::anytree::OutlierVerdict;
use anytime_stream_mining::bayestree::{BayesTree, DescentStrategy};
use anytime_stream_mining::clustree::{ClusTree, ClusTreeConfig};
use anytime_stream_mining::data::stream::DriftingStream;
use anytime_stream_mining::index::PageGeometry;

fn main() {
    let points: Vec<Vec<f64>> = DriftingStream::new(4, 3, 0.3, 0.002, 7)
        .generate(3_000)
        .into_iter()
        .map(|(p, _)| p)
        .collect();
    let geometry = PageGeometry::from_fanout(4, 8);

    // ------------------------------------------------------------------
    // 1. Budget-bracketed density queries: the bound interval narrows.
    // ------------------------------------------------------------------
    let mut tree: BayesTree = BayesTree::new(3, geometry);
    for chunk in points.chunks(256) {
        tree.insert_batch(chunk.to_vec());
    }
    tree.fit_bandwidth();
    let query = points[1].clone();
    println!("anytime density, one query, growing budget:");
    println!("budget  estimate     [lower, upper]              uncertainty");
    for budget in [0usize, 2, 8, 32, 128, usize::MAX] {
        let answer = tree.anytime_density(&query, DescentStrategy::default(), budget);
        let label = if budget == usize::MAX {
            "full".to_string()
        } else {
            budget.to_string()
        };
        println!(
            "{label:>6}  {:>9.5}   [{:>9.5}, {:>9.5}]      {:>9.2e}",
            answer.estimate,
            answer.lower,
            answer.upper,
            answer.uncertainty()
        );
    }
    let truth = tree.full_kernel_density(&query);
    println!("flat kernel density (reference): {truth:.5}\n");

    // ------------------------------------------------------------------
    // 2. Anytime outlier scoring: the verdict is certain long before the
    //    density is exact.
    // ------------------------------------------------------------------
    let threshold = 1e-4;
    let inlier = tree.outlier_score(&query, threshold, 10_000);
    let far = vec![100.0, -100.0, 100.0];
    let outlier = tree.outlier_score(&far, threshold, 10_000);
    println!("outlier scoring at threshold {threshold:.0e}:");
    for (name, score) in [("stream point", &inlier), ("far point", &outlier)] {
        println!(
            "  {name:<12} -> {:?} after {} node reads (bounds [{:.2e}, {:.2e}])",
            score.verdict, score.answer.nodes_read, score.answer.lower, score.answer.upper
        );
    }
    assert_eq!(outlier.verdict, OutlierVerdict::Outlier);
    println!();

    // ------------------------------------------------------------------
    // 3. Anytime k-NN retrieval on the clustering index: coarse root-level
    //    aggregates sharpen into leaf micro-clusters as budget grows.
    // ------------------------------------------------------------------
    let mut clus = ClusTree::new(3, ClusTreeConfig::default());
    for (i, chunk) in points.chunks(64).enumerate() {
        let _ = clus.insert_batch(chunk, i as f64, 8);
    }
    println!("anytime 3-NN micro-cluster retrieval:");
    for budget in [0usize, 8, 64, 512] {
        let knn = clus.anytime_knn(&query, 3, budget);
        let depths: Vec<usize> = knn.neighbors.iter().map(|n| n.depth).collect();
        let dists: Vec<String> = knn
            .neighbors
            .iter()
            .map(|n| format!("{:.2}", n.sq_dist.sqrt()))
            .collect();
        println!(
            "  budget {budget:>3}: {} reads, neighbour depths {depths:?}, centre distances {dists:?}",
            knn.nodes_read
        );
    }
    println!();

    // ------------------------------------------------------------------
    // 4. Sharded parallel queries: per-shard frontiers refine concurrently
    //    and fold into one global mixture with the same guarantees.
    // ------------------------------------------------------------------
    let mut sharded: BayesTree = BayesTree::sharded(3, geometry, 4);
    for chunk in points.chunks(256) {
        let _ = sharded.insert_batch(chunk.to_vec());
    }
    sharded.fit_bandwidth();
    println!(
        "sharded index: {} shards, sizes {:?}",
        sharded.num_shards(),
        sharded.shard_sizes()
    );
    let queries: Vec<Vec<f64>> = points.iter().step_by(500).cloned().collect();
    let (answers, stats) = sharded.density_batch(&queries, DescentStrategy::default(), 32);
    println!("folded batch of {} queries ({stats}):", answers.len());
    for (answer, q) in answers.iter().zip(&queries).take(3) {
        println!(
            "  q[0]={:>6.2}: estimate {:.5}, {} reads across shards, uncertainty {:.2e}",
            q[0],
            answer.estimate,
            answer.nodes_read,
            answer.uncertainty()
        );
    }
    // The anytime k-NN workload folds across shards, too.
    let sharded_clus = {
        let mut t: ClusTree = ClusTree::sharded(3, ClusTreeConfig::default(), 4);
        for (i, chunk) in points.chunks(64).enumerate() {
            let _ = t.insert_batch(chunk, i as f64, 8);
        }
        t
    };
    let knn = sharded_clus.anytime_knn(&query, 3, 128);
    println!(
        "sharded 3-NN: {} reads across shards, nearest centre distance {:.2}",
        knn.nodes_read,
        knn.neighbors[0].sq_dist.sqrt()
    );
    // More budget never worsens the folded bound.
    let coarse = sharded.anytime_density(&query, DescentStrategy::default(), 2);
    let fine = sharded.anytime_density(&query, DescentStrategy::default(), 64);
    assert!(fine.uncertainty() <= coarse.uncertainty() + 1e-12);
    println!(
        "monotone fold: uncertainty {:.2e} -> {:.2e}",
        coarse.uncertainty(),
        fine.uncertainty()
    );
}
