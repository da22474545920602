//! Perf-trajectory recorder for the per-node block cache and the
//! explicit-SIMD kernels.
//!
//! Measures the numbers the block-cache PR is gated on and writes them to
//! `BENCH_7.json` (in the current directory, repo root when run via
//! `cargo run`): batched insert throughput, certified anytime outlier
//! queries per second, the scalar-vs-warm-cache ratio for scoring one
//! 64-entry directory node (the cache hit skips the gather entirely, so
//! this is the SIMD scoring kernels alone), the per-item-vs-block ratio for
//! scoring a 64-point leaf, and the block-cache hit rate of a real query
//! workload.  The JSON is committed so the trajectory of the numbers is
//! recorded next to the code that produced them.

use bayestree::query::KernelQueryModel;
use bayestree::{BayesTree, DescentStrategy, KernelSummary};
use bayestree_bench::record::{best_of_3, BenchRecord, SplitMix};
use bt_anytree::{
    BlockCacheSlot, BlockScratch, Entry, GatheredBlock, OutlierVerdict, QueryModel, Summary,
    SummaryScore,
};
use bt_data::stream::DriftingStream;
use bt_index::PageGeometry;
use bt_stats::{KernelBandwidth, ScoreLanes};
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

fn query_workload(points: &[Vec<f64>]) -> Vec<Vec<f64>> {
    let mut rng = SplitMix(0xbeef);
    (0..512)
        .map(|i| {
            let mut q = points[(i * 13) % points.len()].clone();
            for v in &mut q {
                *v += rng.next_f64() - 0.5;
            }
            q
        })
        .collect()
}

/// Batched insert throughput (objects per second).
fn measure_inserts(points: &[Vec<f64>]) -> f64 {
    let secs = best_of_3(|| build_tree(points).len());
    points.len() as f64 / secs
}

/// Anytime outlier queries per second, counting only queries whose verdict
/// was *certified* (the bound interval cleared the threshold) within the
/// node budget.
fn measure_certified_queries(
    tree: &BayesTree,
    queries: &[Vec<f64>],
    threshold: f64,
) -> (f64, usize) {
    let mut certified = 0usize;
    let secs = best_of_3(|| {
        certified = 0;
        for q in queries {
            let score = tree.outlier_score(q, threshold, QUERY_BUDGET);
            if score.verdict != OutlierVerdict::Undecided {
                certified += 1;
            }
        }
        certified
    });
    (certified as f64 / secs, certified)
}

/// Block-cache hit rate of a real batched query workload: every query in
/// the batch walks the same tree, so each node's block is gathered once and
/// served from its filled slot afterwards.
fn measure_hit_rate(tree: &BayesTree, queries: &[Vec<f64>]) -> f64 {
    let (_, stats) = tree.density_batch(queries, DescentStrategy::default(), QUERY_BUDGET);
    stats.gather_hit_rate()
}

fn node_entries() -> Vec<Entry<KernelSummary>> {
    let mut rng = SplitMix(0x5eed);
    (0..NODE_LEN)
        .map(|i| {
            let center = (i % 7) as f64;
            let points: Vec<Vec<f64>> = (0..POINTS_PER_ENTRY)
                .map(|_| (0..DIMS).map(|_| center + rng.next_f64()).collect())
                .collect();
            let summary = KernelSummary::from_points(&points, DIMS).expect("non-empty point batch");
            Entry::new(summary, i)
        })
        .collect()
}

/// Scalar-vs-warm-cache wall-clock ratio for scoring one 64-entry node: the
/// scalar path rebuilds per-entry Gaussians, the warm path looks the
/// gathered block up in an filled [`BlockCacheSlot`] (a hit, so no
/// gather) and runs the SIMD batch kernels over the cached columns — the
/// exact hit path of the query engine.
fn measure_warm_cache_ratio() -> (f64, f64, f64) {
    let entries = node_entries();
    let bandwidth = KernelBandwidth::new(vec![0.75; DIMS]);
    let model = KernelQueryModel::new(NODE_LEN * POINTS_PER_ENTRY, &bandwidth);
    let query = vec![3.25; DIMS];
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

    let slot = BlockCacheSlot::new();
    let mut gathered = GatheredBlock::new();
    assert!(model.gather_entries(&entries, &mut gathered));
    slot.fill(Box::new(gathered));
    let mut lanes: ScoreLanes = Default::default();
    let warm = best_of_3(|| {
        for _ in 0..reps {
            let cached = slot.get().expect("warm slot hits");
            model.score_gathered(&query, &entries, cached, &mut lanes, &mut out);
            black_box(&out);
        }
        out.len()
    });
    let per_node = |total: f64| total / reps as f64 * 1e6;
    (per_node(scalar), per_node(warm), scalar / warm.max(1e-12))
}

/// Per-item-vs-block wall-clock ratio for scoring one 64-point leaf: the
/// per-item loop is the default [`QueryModel::score_leaf_items`] fallback
/// (one kernel density per point), the block path gathers the points into
/// mean columns and scores them with the SIMD batch kernels.
fn measure_leaf_ratio() -> (f64, f64, f64) {
    let mut rng = SplitMix(0x1eaf);
    let items: Vec<Vec<f64>> = (0..NODE_LEN)
        .map(|i| {
            let center = (i % 7) as f64;
            (0..DIMS).map(|_| center + rng.next_f64()).collect()
        })
        .collect();
    let bandwidth = KernelBandwidth::new(vec![0.75; DIMS]);
    let model = KernelQueryModel::new(NODE_LEN * POINTS_PER_ENTRY, &bandwidth);
    let query = vec![3.25; DIMS];
    let mut scratch = BlockScratch::new();
    let mut out: Vec<SummaryScore> = Vec::new();

    let reps = 4_000;
    let per_item = best_of_3(|| {
        for _ in 0..reps {
            out.clear();
            for item in &items {
                let contribution =
                    QueryModel::<KernelSummary>::leaf_contribution(&model, &query, item);
                out.push(SummaryScore {
                    weight: QueryModel::<KernelSummary>::leaf_weight(&model, item),
                    contribution,
                    lower: contribution,
                    upper: contribution,
                    min_dist_sq: QueryModel::<KernelSummary>::leaf_sq_dist(&model, &query, item),
                });
            }
            black_box(&out);
        }
        out.len()
    });
    let block = best_of_3(|| {
        for _ in 0..reps {
            QueryModel::<KernelSummary>::score_leaf_items(
                &model,
                &query,
                &items,
                &mut scratch,
                &mut out,
            );
            black_box(&out);
        }
        out.len()
    });
    let per_leaf = |total: f64| total / reps as f64 * 1e6;
    (
        per_leaf(per_item),
        per_leaf(block),
        per_item / block.max(1e-12),
    )
}

fn main() {
    let points = stream_points();

    eprintln!("bench_7: inserting {STREAM_LEN} objects in batches of {BATCH_SIZE}...");
    let inserts_per_sec = measure_inserts(&points);

    let tree = build_tree(&points);
    let queries = query_workload(&points);
    let threshold = tree.full_kernel_density(&queries[0]) * 0.05;
    eprintln!(
        "bench_7: outlier-scoring {} queries at budget {QUERY_BUDGET} over {} nodes...",
        queries.len(),
        tree.num_nodes()
    );
    let (certified_per_sec, certified) = measure_certified_queries(&tree, &queries, threshold);

    eprintln!("bench_7: measuring the block-cache hit rate of the batched workload...");
    let gather_hit_rate = measure_hit_rate(&tree, &queries);

    eprintln!("bench_7: scoring one {NODE_LEN}-entry node, scalar vs warm block cache...");
    let (scalar_us, warm_us, warm_ratio) = measure_warm_cache_ratio();

    eprintln!("bench_7: scoring one {NODE_LEN}-point leaf, per-item vs block...");
    let (item_us, leaf_block_us, leaf_ratio) = measure_leaf_ratio();

    let json = BenchRecord::new("block_cache_simd")
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
        .field("total_queries", format!("{}", queries.len()))
        .field("scalar_node_score_us", format!("{scalar_us:.3}"))
        .field("block_node_score_us", format!("{warm_us:.3}"))
        .field("scalar_over_block_ratio", format!("{warm_ratio:.3}"))
        .field("leaf_item_score_us", format!("{item_us:.3}"))
        .field("leaf_block_score_us", format!("{leaf_block_us:.3}"))
        .field("leaf_block_ratio", format!("{leaf_ratio:.3}"))
        .field("gather_hit_rate", format!("{gather_hit_rate:.4}"))
        .write("BENCH_7.json");
    println!("{json}");
    eprintln!("bench_7: wrote BENCH_7.json");
}
