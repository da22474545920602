//! Perf-trajectory recorder for the half-width stored-summary mode.
//!
//! Runs the same streaming workload twice — once on a `f64`-stored
//! [`BayesTree`] and once on the opt-in `f32`-stored
//! [`BayesTreeF32`](bayestree::BayesTreeF32) — and writes the numbers the stored-precision PR is gated on to
//! `BENCH_8.json` (in the current directory, repo root when run via
//! `cargo run`): batched insert throughput, certified anytime outlier
//! queries per second, and the bytes each block-scored directory entry
//! streams out of the epoch pages (the quantity the `f32` mode halves).
//! The JSON is committed so the trajectory of the numbers is recorded next
//! to the code that produced them.
//!
//! The query passes of the two modes are **interleaved** (f64 pass, f32
//! pass, repeat) and each mode keeps its best round: wall-clock drift on a
//! shared machine then biases both modes equally instead of whichever mode
//! happened to run during the quiet stretch.

use bayestree::{BayesTree, DescentStrategy, StoredElement};
use bayestree_bench::record::{best_of_3, BenchRecord, SplitMix};
use bt_anytree::OutlierVerdict;
use bt_data::stream::DriftingStream;
use std::time::Instant;

// Each mode runs at its own 4 KiB-page geometry
// (`BayesTree::paged_geometry`): the half-width mode packs ~2x the fanout
// into the same physical page, which is where narrowed storage pays —
// every budgeted node read covers twice the summary mass, so bounds
// converge (and verdicts certify) in fewer reads.
const DIMS: usize = 16;
const STREAM_LEN: usize = 64_000;
const BATCH_SIZE: usize = 256;
const QUERY_BUDGET: usize = 48;
const QUERIES: usize = 4096;
const QUERY_ROUNDS: usize = 5;

fn stream_points() -> Vec<Vec<f64>> {
    DriftingStream::new(4, DIMS, 0.3, 0.002, 17)
        .generate(STREAM_LEN)
        .into_iter()
        .map(|(p, _)| p)
        .collect()
}

fn query_workload(points: &[Vec<f64>]) -> Vec<Vec<f64>> {
    let mut rng = SplitMix(0xbeef);
    (0..QUERIES)
        .map(|i| {
            let mut q = points[(i * 13) % points.len()].clone();
            for v in &mut q {
                *v += rng.next_f64() - 0.5;
            }
            q
        })
        .collect()
}

fn build_tree<E: StoredElement>(points: &[Vec<f64>]) -> BayesTree<E> {
    let mut tree: BayesTree<E> = BayesTree::new(DIMS, BayesTree::<E>::paged_geometry(DIMS));
    for chunk in points.chunks(BATCH_SIZE) {
        tree.insert_batch(chunk.to_vec());
    }
    tree
}

/// One timed anytime-outlier pass over the whole query workload; returns
/// (seconds, certified verdicts).
fn query_pass<E: StoredElement>(
    tree: &BayesTree<E>,
    queries: &[Vec<f64>],
    threshold: f64,
) -> (f64, usize) {
    let start = Instant::now();
    let mut certified = 0usize;
    for q in queries {
        let score = tree.outlier_score(q, threshold, QUERY_BUDGET);
        if score.verdict != OutlierVerdict::Undecided {
            certified += 1;
        }
    }
    (start.elapsed().as_secs_f64(), certified)
}

/// The bytes one block-scored directory entry streams out of its epoch
/// page: the stored CF sums (LS + SS) and MBR corners at the stored width,
/// plus the full-width weight.  This is the per-entry payload of the stored
/// representation (gathers widen it into `f64` scoring columns), i.e. the
/// page traffic the `f32` mode halves.
fn bytes_per_scored_entry<E: StoredElement>() -> usize {
    std::mem::size_of::<f64>() + DIMS * 4 * E::SCALAR_BYTES
}

fn main() {
    let points = stream_points();
    let queries = query_workload(&points);

    eprintln!("bench_8: building trees ({STREAM_LEN} objects per mode)...");
    let wide_insert_secs = best_of_3(|| build_tree::<f64>(&points).len());
    let narrow_insert_secs = best_of_3(|| build_tree::<f32>(&points).len());
    let wide = build_tree::<f64>(&points);
    let narrow = build_tree::<f32>(&points);
    let threshold = wide.full_kernel_density(&queries[0]) * 0.05;

    eprintln!(
        "bench_8: {QUERY_ROUNDS} interleaved query rounds ({} queries each)...",
        queries.len()
    );
    let (mut wide_secs, mut narrow_secs) = (f64::INFINITY, f64::INFINITY);
    let (mut wide_certified, mut narrow_certified) = (0usize, 0usize);
    for round in 0..QUERY_ROUNDS {
        let (ws, wc) = query_pass(&wide, &queries, threshold);
        let (ns, nc) = query_pass(&narrow, &queries, threshold);
        wide_secs = wide_secs.min(ws);
        narrow_secs = narrow_secs.min(ns);
        (wide_certified, narrow_certified) = (wc, nc);
        eprintln!("bench_8:   round {round}: f64 {ws:.3}s  f32 {ns:.3}s");
    }

    let (_, wide_stats) = wide.density_batch(&queries, DescentStrategy::default(), QUERY_BUDGET);
    let (_, narrow_stats) =
        narrow.density_batch(&queries, DescentStrategy::default(), QUERY_BUDGET);

    let wide_qps = wide_certified as f64 / wide_secs;
    let narrow_qps = narrow_certified as f64 / narrow_secs;
    let json = BenchRecord::new("stored_precision")
        .config("dims", DIMS)
        .config("stream_len", STREAM_LEN)
        .config("batch_size", BATCH_SIZE)
        .config("query_budget", QUERY_BUDGET)
        .config("query_rounds", QUERY_ROUNDS)
        .field(
            "f64_inserts_per_sec",
            format!("{:.1}", points.len() as f64 / wide_insert_secs),
        )
        .field(
            "f32_inserts_per_sec",
            format!("{:.1}", points.len() as f64 / narrow_insert_secs),
        )
        .field("f64_certified_queries_per_sec", format!("{wide_qps:.1}"))
        .field("f32_certified_queries_per_sec", format!("{narrow_qps:.1}"))
        .field("f64_certified_queries", format!("{wide_certified}"))
        .field("f32_certified_queries", format!("{narrow_certified}"))
        .field("total_queries", format!("{}", queries.len()))
        .field(
            "f64_gather_hit_rate",
            format!("{:.4}", wide_stats.gather_hit_rate()),
        )
        .field(
            "f32_gather_hit_rate",
            format!("{:.4}", narrow_stats.gather_hit_rate()),
        )
        .field(
            "f64_bytes_per_scored_entry",
            format!("{}", bytes_per_scored_entry::<f64>()),
        )
        .field(
            "f32_bytes_per_scored_entry",
            format!("{}", bytes_per_scored_entry::<f32>()),
        )
        .field(
            "f32_over_f64_certified_ratio",
            format!("{:.3}", narrow_qps / wide_qps.max(1e-12)),
        )
        .write("BENCH_8.json");
    println!("{json}");
    eprintln!("bench_8: wrote BENCH_8.json");
}
