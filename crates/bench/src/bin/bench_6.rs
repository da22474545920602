//! Perf-trajectory recorder for the structure-of-arrays node layout.
//!
//! Measures the three numbers the layout PR is gated on and writes them to
//! `BENCH_6.json` (in the current directory, repo root when run via
//! `cargo run`): batched insert throughput, certified anytime outlier
//! queries per second, and the scalar-vs-block ratio for scoring one
//! 64-entry directory node.  The JSON is committed so the trajectory of the
//! numbers is recorded next to the code that produced them.

use bayestree::query::KernelQueryModel;
use bayestree::{BayesTree, KernelSummary};
use bayestree_bench::record::{best_of_3, BenchRecord, SplitMix};
use bt_anytree::{Entry, OutlierVerdict, QueryModel, Summary, SummaryScore};
use bt_data::stream::DriftingStream;
use bt_index::PageGeometry;
use bt_stats::{BlockScratch, KernelBandwidth};
use std::hint::black_box;

const DIMS: usize = 8;
const NODE_LEN: usize = 64;
const POINTS_PER_ENTRY: usize = 16;
const STREAM_LEN: usize = 8_000;
const BATCH_SIZE: usize = 256;
const QUERY_BUDGET: usize = 24;

fn stream_points() -> Vec<Vec<f64>> {
    DriftingStream::new(4, DIMS, 0.3, 0.002, 17)
        .generate(STREAM_LEN)
        .into_iter()
        .map(|(p, _)| p)
        .collect()
}

fn build_tree(points: &[Vec<f64>]) -> BayesTree {
    let mut tree: BayesTree = BayesTree::new(DIMS, PageGeometry::default_for_dims(DIMS));
    for chunk in points.chunks(BATCH_SIZE) {
        tree.insert_batch(chunk.to_vec());
    }
    tree
}

/// Batched insert throughput (objects per second).
fn measure_inserts(points: &[Vec<f64>]) -> f64 {
    let secs = best_of_3(|| build_tree(points).len());
    points.len() as f64 / secs
}

/// Anytime outlier queries per second, counting only queries whose verdict
/// was *certified* (the bound interval cleared the threshold) within the
/// node budget.
fn measure_certified_queries(tree: &BayesTree, points: &[Vec<f64>]) -> (f64, usize, usize) {
    let mut rng = SplitMix(0xbeef);
    let queries: Vec<Vec<f64>> = (0..512)
        .map(|i| {
            let mut q = points[(i * 13) % points.len()].clone();
            for v in &mut q {
                *v += rng.next_f64() - 0.5;
            }
            q
        })
        .collect();
    let threshold = tree.full_kernel_density(&queries[0]) * 0.05;

    let mut certified = 0usize;
    let secs = best_of_3(|| {
        certified = 0;
        for q in &queries {
            let score = tree.outlier_score(q, threshold, QUERY_BUDGET);
            if score.verdict != OutlierVerdict::Undecided {
                certified += 1;
            }
        }
        certified
    });
    (certified as f64 / secs, certified, queries.len())
}

/// Scalar-vs-block wall-clock ratio for scoring one 64-entry node — the
/// same measurement the `block_kernels` bench asserts on.
fn measure_kernel_ratio() -> (f64, f64, f64) {
    let mut rng = SplitMix(0x5eed);
    let entries: Vec<Entry<KernelSummary>> = (0..NODE_LEN)
        .map(|i| {
            let center = (i % 7) as f64;
            let points: Vec<Vec<f64>> = (0..POINTS_PER_ENTRY)
                .map(|_| (0..DIMS).map(|_| center + rng.next_f64()).collect())
                .collect();
            let summary = KernelSummary::from_points(&points, DIMS).expect("non-empty point batch");
            Entry::new(summary, i)
        })
        .collect();
    let bandwidth = KernelBandwidth::new(vec![0.75; DIMS]);
    let model = KernelQueryModel::new(NODE_LEN * POINTS_PER_ENTRY, &bandwidth);
    let query = vec![3.25; DIMS];
    let mut scratch = BlockScratch::new();
    let mut out: Vec<SummaryScore> = Vec::new();

    let reps = 4_000;
    let scalar = best_of_3(|| {
        for _ in 0..reps {
            out.clear();
            for entry in &entries {
                let summary = &entry.summary;
                let (lower, upper) = model.summary_bounds(&query, summary);
                out.push(SummaryScore {
                    weight: summary.weight(),
                    contribution: model.summary_contribution(&query, summary),
                    lower,
                    upper,
                    min_dist_sq: model.summary_sq_dist(&query, summary),
                });
            }
            black_box(&out);
        }
        out.len()
    });
    let block = best_of_3(|| {
        for _ in 0..reps {
            model.score_entries(&query, &entries, &mut scratch, &mut out);
            black_box(&out);
        }
        out.len()
    });
    let per_node = |total: f64| total / reps as f64 * 1e6;
    (per_node(scalar), per_node(block), scalar / block.max(1e-12))
}

fn main() {
    let points = stream_points();

    eprintln!("bench_6: inserting {STREAM_LEN} objects in batches of {BATCH_SIZE}...");
    let inserts_per_sec = measure_inserts(&points);

    let tree = build_tree(&points);
    eprintln!(
        "bench_6: outlier-scoring 512 queries at budget {QUERY_BUDGET} over {} nodes...",
        tree.num_nodes()
    );
    let (certified_per_sec, certified, total_queries) = measure_certified_queries(&tree, &points);

    eprintln!("bench_6: scoring one {NODE_LEN}-entry node, scalar vs block...");
    let (scalar_us, block_us, ratio) = measure_kernel_ratio();

    let json = BenchRecord::new("soa_node_layout")
        .config("dims", DIMS)
        .config("stream_len", STREAM_LEN)
        .config("batch_size", BATCH_SIZE)
        .config("query_budget", QUERY_BUDGET)
        .config("node_entries", NODE_LEN)
        .field("inserts_per_sec", format!("{inserts_per_sec:.1}"))
        .field(
            "certified_queries_per_sec",
            format!("{certified_per_sec:.1}"),
        )
        .field("certified_queries", format!("{certified}"))
        .field("total_queries", format!("{total_queries}"))
        .field("scalar_node_score_us", format!("{scalar_us:.3}"))
        .field("block_node_score_us", format!("{block_us:.3}"))
        .field("scalar_over_block_ratio", format!("{ratio:.3}"))
        .write("BENCH_6.json");
    println!("{json}");
    eprintln!("bench_6: wrote BENCH_6.json");
}
