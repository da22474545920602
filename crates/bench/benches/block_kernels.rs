//! Criterion bench: scalar vs structure-of-arrays scoring of one directory
//! node.
//!
//! The hot loop of every anytime query is "score all entries of the node I
//! just refined".  The scalar reference walks the entries one by one and
//! rebuilds a diagonal Gaussian (two `Vec` allocations plus per-dimension
//! `ln`/`exp`) for each; the block path runs the batch kernels of
//! `bt_stats::kernel` over all entries at once — over a Bayes directory's
//! own dimension-major block ([`bayestree::EntryColumns`]) where it lies,
//! and over a ClusTree node gathered into a reusable
//! [`bt_stats::SummaryBlock`] (or its cached gather).
//!
//! Besides the timed groups the bench runs two gates.  The speedup gate
//! (`bayestree_score_node/speedup_gate`) measures the scalar-vs-block ratio
//! on a 64-entry node and asserts the >= 1.5x speedup claim, so a refactor
//! that quietly loses the layout win fails.  The overhead gate
//! (`metrics_overhead/gate`) asserts the observability layer's cost
//! contract: metric recording enabled versus disabled on the batched-density
//! loop must stay within [`METRICS_OVERHEAD_LIMIT`].  Both time alternating
//! pairs in thread CPU time and gate on the median ratio.  A filter selects
//! groups and gates by id, as criterion does: `cargo bench --bench
//! block_kernels -- --test score_node` runs the two node groups and the
//! speedup gate, `-- --test metrics_overhead` the overhead group and gate,
//! and no filter runs everything once.

use bayestree::query::KernelQueryModel;
use bayestree::{EntryColumns, KernelSummary, PointColumns};
use bt_anytree::{Directory, Entry, LeafItems, QueryModel, Summary, SummaryScore};
use bt_stats::{BlockCacheSlot, BlockScratch, GatheredBlock, KernelBandwidth, ScoreLanes};
use clustree::{ClusQueryModel, MicroCluster};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

const DIMS: usize = 8;
const NODE_LEN: usize = 64;
const POINTS_PER_ENTRY: usize = 16;
/// Required block-over-scalar speedup when scoring a 64-entry node.
const SMOKE_SPEEDUP: f64 = 1.5;
/// Maximum enabled-over-disabled wall-clock ratio for metric recording on
/// the block-scoring query loop — the observability layer's cost contract.
const METRICS_OVERHEAD_LIMIT: f64 = 1.02;

/// Tiny deterministic generator so the bench needs no RNG dependency.
struct SplitMix(u64);

impl SplitMix {
    fn next_f64(&mut self) -> f64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 53) as f64
    }

    fn point(&mut self, center: f64) -> Vec<f64> {
        (0..DIMS).map(|_| center + self.next_f64()).collect()
    }
}

/// A 64-entry Bayes directory: the block the reader scores in place.
fn kernel_entries() -> EntryColumns {
    let mut rng = SplitMix(0x5eed);
    EntryColumns::from_entries(
        (0..NODE_LEN)
            .map(|i| {
                let center = (i % 7) as f64;
                let points: Vec<Vec<f64>> =
                    (0..POINTS_PER_ENTRY).map(|_| rng.point(center)).collect();
                let summary =
                    KernelSummary::from_points(&points, DIMS).expect("non-empty point batch");
                (summary, i)
            })
            .collect(),
    )
}

/// Every entry's summary as its own row, for the scalar reference.
fn rows<S: Summary>(entries: &S::Dir) -> Vec<S> {
    (0..entries.len())
        .map(|i| entries.summary(i).into_owned())
        .collect()
}

fn clus_entries() -> Vec<Entry<MicroCluster>> {
    let mut rng = SplitMix(0xc1a5_7e4d);
    (0..NODE_LEN)
        .map(|i| {
            let center = (i % 7) as f64;
            let mut mc = MicroCluster::from_point(&rng.point(center), 0.0);
            for t in 1..POINTS_PER_ENTRY {
                mc.insert(&rng.point(center), t as f64, 0.0);
            }
            Entry::new(mc, i)
        })
        .collect()
}

/// The scalar reference: the per-summary methods the default
/// [`QueryModel::score_entries`] delegates to, summary by summary.
fn score_scalar<S, M>(model: &M, query: &[f64], summaries: &[S], out: &mut Vec<SummaryScore>)
where
    S: Summary,
    M: QueryModel<S>,
{
    out.clear();
    for summary in summaries {
        let (lower, upper) = model.summary_bounds(query, summary);
        out.push(SummaryScore {
            weight: summary.weight(),
            contribution: model.summary_contribution(query, summary),
            lower,
            upper,
            min_dist_sq: model.summary_sq_dist(query, summary),
        });
    }
}

/// The scalar leaf reference: the per-item loop the default
/// [`QueryModel::score_leaf_items`] falls back to.
fn score_leaf_scalar<S, M>(model: &M, query: &[f64], leaf: &M::Leaf, out: &mut Vec<SummaryScore>)
where
    S: Summary,
    M: QueryModel<S>,
{
    out.clear();
    for index in 0..leaf.len() {
        let contribution = model.leaf_contribution(query, leaf, index);
        out.push(SummaryScore {
            weight: model.leaf_weight(leaf, index),
            contribution,
            lower: contribution,
            upper: contribution,
            min_dist_sq: model.leaf_sq_dist(query, leaf, index),
        });
    }
}

/// Timed (scalar, block) pairs of the speedup gate.
const SPEEDUP_PAIRS: usize = 15;
/// Node scorings per timed sample, so one sample runs for tens of
/// milliseconds: a single scoring of a few microseconds cannot resolve
/// the ratio on a shared host.
const SPEEDUP_REPS: usize = 2_000;

/// Speedup gate: the block-over-scalar ratio of scoring a 64-entry node,
/// asserted against [`SMOKE_SPEEDUP`].  Each sample scores the node
/// [`SPEEDUP_REPS`] times in thread CPU time, the order within each of the
/// [`SPEEDUP_PAIRS`] pairs alternates, and the gate reads the median of
/// the pairs' scalar/block ratios — the method of the overhead gate
/// ([`report_metrics_overhead`]).
fn report_block_speedup() {
    let entries = kernel_entries();
    let summaries = rows::<KernelSummary>(&entries);
    let bandwidth = vec![0.75; DIMS];
    let kernel_bandwidth = KernelBandwidth::new(bandwidth.clone());
    let model = KernelQueryModel::new(NODE_LEN * POINTS_PER_ENTRY, &kernel_bandwidth);
    let query = vec![3.25; DIMS];
    let mut scratch = BlockScratch::new();
    let mut out = Vec::new();

    // Same values either way (the block override is bit-exact in f64 mode),
    // so the ratio compares pure scoring cost.
    let mut sample = |block: bool| {
        let start = thread_cpu_ns();
        for _ in 0..SPEEDUP_REPS {
            if block {
                model.score_entries(
                    black_box(&query),
                    black_box(&entries),
                    &mut scratch,
                    &mut out,
                );
            } else {
                score_scalar(&model, black_box(&query), black_box(&summaries), &mut out);
            }
            black_box(&out);
        }
        (thread_cpu_ns() - start) as f64
    };
    sample(false); // warm both paths once
    sample(true);

    let mut pairs: Vec<(f64, f64)> = (0..SPEEDUP_PAIRS)
        .map(|pair| {
            if pair % 2 == 0 {
                let scalar = sample(false);
                (scalar, sample(true))
            } else {
                let block = sample(true);
                (sample(false), block)
            }
        })
        .collect();
    let ratio = |(scalar, block): (f64, f64)| scalar / block.max(1.0);
    pairs.sort_by(|&a, &b| ratio(a).total_cmp(&ratio(b)));
    let (scalar, block) = pairs[SPEEDUP_PAIRS / 2];
    let speedup = ratio((scalar, block));
    let per_node = |ns: f64| ns / SPEEDUP_REPS as f64 / 1e3;
    eprintln!(
        "block kernels: {NODE_LEN}-entry node, {DIMS} dims, {SPEEDUP_PAIRS} pairs in thread \
         CPU time: median pair scalar {:.2}us vs block {:.2}us per node -> speedup \
         {speedup:.2}x (range {:.2}..{:.2}, smoke threshold {SMOKE_SPEEDUP}x)",
        per_node(scalar),
        per_node(block),
        ratio(pairs[0]),
        ratio(pairs[SPEEDUP_PAIRS - 1]),
    );
    assert!(
        speedup >= SMOKE_SPEEDUP,
        "structure-of-arrays scoring regressed: median {speedup:.2}x < {SMOKE_SPEEDUP}x \
         on a {NODE_LEN}-entry node"
    );
}

/// Nanoseconds this thread has spent on a CPU (`CLOCK_THREAD_CPUTIME_ID`).
/// The one-shard query batch runs on the calling thread, so this clock
/// counts its work and leaves out the time other processes (or the host)
/// held the vCPU — the noise a wall clock adds on a shared machine.
fn thread_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, now: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut now = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `now` is a valid, writable `struct timespec` for the call.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut now) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    now.tv_sec as u64 * 1_000_000_000 + now.tv_nsec as u64
}

/// Timed (enabled, disabled) pairs of the metrics-overhead smoke: enough
/// that the median's run-to-run spread (a standard deviation of about
/// 0.004 on a busy 2-vCPU host) stays well inside the 2% limit.
const OVERHEAD_PAIRS: usize = 45;
/// Query batches per timed sample, so one sample runs for tens of
/// milliseconds: one batch of a few milliseconds cannot resolve 2%.
const OVERHEAD_BATCHES_PER_SAMPLE: usize = 16;

/// Metrics-overhead smoke: the same engine-driven block-scoring query
/// workload timed with registry recording enabled versus disabled,
/// asserting that the median enabled/disabled ratio over
/// [`OVERHEAD_PAIRS`] pairs stays within [`METRICS_OVERHEAD_LIMIT`].  Each
/// sample repeats the batch [`OVERHEAD_BATCHES_PER_SAMPLE`] times in thread
/// CPU time, and the order within a pair alternates so a warming (or
/// cooling) machine cannot favour one side.  The enabled side records
/// per-query histogram observations plus the batch-boundary counter flush,
/// so the ratio is an upper bound on what the *disabled* path (one relaxed
/// atomic load per boundary) can cost.
fn report_metrics_overhead() {
    use bayestree::BayesTree;
    use bt_index::PageGeometry;

    let mut rng = SplitMix(0x0b5e);
    let points: Vec<Vec<f64>> = (0..4_096).map(|i| rng.point((i % 13) as f64)).collect();
    let mut tree: BayesTree = BayesTree::new(DIMS, PageGeometry::default_for_dims(DIMS));
    for chunk in points.chunks(256) {
        tree.insert_batch(chunk.to_vec());
    }
    let queries: Vec<Vec<f64>> = (0..64).map(|i| rng.point((i % 13) as f64)).collect();

    let sample = |enabled: bool| {
        bt_obs::set_enabled(enabled);
        let start = thread_cpu_ns();
        for _ in 0..OVERHEAD_BATCHES_PER_SAMPLE {
            let (answers, _) = tree.density_batch(black_box(&queries), Default::default(), 32);
            black_box(answers.len());
        }
        (thread_cpu_ns() - start) as f64
    };
    sample(true); // warm both modes once (every Bayes node is read in place)

    let mut ratios: Vec<f64> = (0..OVERHEAD_PAIRS)
        .map(|pair| {
            let (enabled, disabled) = if pair % 2 == 0 {
                let enabled = sample(true);
                (enabled, sample(false))
            } else {
                let disabled = sample(false);
                (sample(true), disabled)
            };
            enabled / disabled.max(1.0)
        })
        .collect();
    bt_obs::set_enabled(true);
    ratios.sort_by(f64::total_cmp);
    let ratio = ratios[OVERHEAD_PAIRS / 2];
    eprintln!(
        "metrics overhead: {OVERHEAD_PAIRS} pairs of {OVERHEAD_BATCHES_PER_SAMPLE} x {}-query \
         batched density passes: median enabled/disabled ratio {ratio:.3} \
         (range {:.3}..{:.3}, limit {METRICS_OVERHEAD_LIMIT})",
        queries.len(),
        ratios[0],
        ratios[OVERHEAD_PAIRS - 1],
    );
    assert!(
        ratio <= METRICS_OVERHEAD_LIMIT,
        "metric recording costs too much on the block-scoring loop: \
         median enabled/disabled ratio {ratio:.3} > {METRICS_OVERHEAD_LIMIT}"
    );
}

/// Criterion twin of [`report_metrics_overhead`], recording both modes in
/// the committed trajectory.
fn metrics_overhead_benchmarks(c: &mut Criterion) {
    use bayestree::BayesTree;
    use bt_index::PageGeometry;

    let mut rng = SplitMix(0x0b5e);
    let points: Vec<Vec<f64>> = (0..4_096).map(|i| rng.point((i % 13) as f64)).collect();
    let mut tree: BayesTree = BayesTree::new(DIMS, PageGeometry::default_for_dims(DIMS));
    for chunk in points.chunks(256) {
        tree.insert_batch(chunk.to_vec());
    }
    let queries: Vec<Vec<f64>> = (0..64).map(|i| rng.point((i % 13) as f64)).collect();

    let mut group = c.benchmark_group("metrics_overhead");
    for (label, on) in [("enabled", true), ("disabled", false)] {
        group.bench_function(BenchmarkId::from_parameter(label), |b| {
            bt_obs::set_enabled(on);
            b.iter(|| {
                let (answers, _) = tree.density_batch(black_box(&queries), Default::default(), 32);
                answers.len()
            });
            bt_obs::set_enabled(true);
        });
    }
    group.finish();
}

fn block_kernel_benchmarks(c: &mut Criterion) {
    if c.is_selected("bayestree_score_node/speedup_gate") {
        report_block_speedup();
    }
    if c.is_selected("metrics_overhead/gate") {
        report_metrics_overhead();
    }

    let bandwidth = vec![0.75; DIMS];
    let kernel_bandwidth = KernelBandwidth::new(bandwidth.clone());
    let query = vec![3.25; DIMS];
    let mut scratch = BlockScratch::new();
    let mut out = Vec::new();

    let entries = kernel_entries();
    let summaries = rows::<KernelSummary>(&entries);
    let model = KernelQueryModel::new(NODE_LEN * POINTS_PER_ENTRY, &kernel_bandwidth);
    let mut group = c.benchmark_group("bayestree_score_node");
    group.bench_function(BenchmarkId::from_parameter("scalar"), |b| {
        b.iter(|| {
            score_scalar(&model, black_box(&query), black_box(&summaries), &mut out);
            out.len()
        })
    });
    group.bench_function(BenchmarkId::from_parameter("block"), |b| {
        b.iter(|| {
            model.score_entries(
                black_box(&query),
                black_box(&entries),
                &mut scratch,
                &mut out,
            );
            out.len()
        })
    });
    group.finish();

    let entries = clus_entries();
    let summaries = rows::<MicroCluster>(&entries);
    let total: f64 = entries.iter().map(|e| e.summary.weight()).sum();
    let model = ClusQueryModel::new(total, bandwidth.clone(), 0.0);
    let mut group = c.benchmark_group("clustree_score_node");
    group.bench_function(BenchmarkId::from_parameter("scalar"), |b| {
        b.iter(|| {
            score_scalar(&model, black_box(&query), black_box(&summaries), &mut out);
            out.len()
        })
    });
    group.bench_function(BenchmarkId::from_parameter("block"), |b| {
        b.iter(|| {
            model.score_entries(
                black_box(&query),
                black_box(&entries),
                &mut scratch,
                &mut out,
            );
            out.len()
        })
    });
    group.finish();

    cache_hit_benchmarks(c);
    leaf_block_benchmarks(c);
    prefetch_benchmarks(c);
    metrics_overhead_benchmarks(c);
}

/// Prefetch group: the two hot loops that now issue software prefetches for
/// the next node version they will touch — query refinement (the next
/// frontier candidate) and batched descent (the routed child).  There is no
/// prefetch-off toggle to compare against (the hint is unconditional), so
/// the group records the end-to-end throughput of both loops; the committed
/// trajectory catches regressions.
fn prefetch_benchmarks(c: &mut Criterion) {
    use bayestree::BayesTree;
    use bt_index::PageGeometry;

    let mut rng = SplitMix(0xfe7c);
    let points: Vec<Vec<f64>> = (0..4_096).map(|i| rng.point((i % 13) as f64)).collect();
    let mut tree: BayesTree = BayesTree::new(DIMS, PageGeometry::default_for_dims(DIMS));
    for chunk in points.chunks(256) {
        tree.insert_batch(chunk.to_vec());
    }
    let query = vec![6.5; DIMS];

    let mut group = c.benchmark_group("frontier_prefetch");
    group.bench_function(BenchmarkId::from_parameter("query_refine"), |b| {
        b.iter(|| {
            let answer = tree.anytime_density(black_box(&query), Default::default(), 32);
            black_box(answer.estimate)
        })
    });
    group.bench_function(BenchmarkId::from_parameter("insert_batch"), |b| {
        let mut scratch_tree: BayesTree =
            BayesTree::new(DIMS, PageGeometry::default_for_dims(DIMS));
        for chunk in points.chunks(256) {
            scratch_tree.insert_batch(chunk.to_vec());
        }
        let batch: Vec<Vec<f64>> = points[..256].to_vec();
        b.iter(|| {
            scratch_tree.insert_batch(batch.clone());
            scratch_tree.len()
        })
    });
    group.finish();
}

/// Cache-hit group: a Bayes directory block scored where it lies (the read
/// that replaced its gather and cache hit) next to a ClusTree directory's
/// gather + score (the cold miss) and its filled [`BlockCacheSlot`] lookup
/// + score (the warm hit that skips the gather).
fn cache_hit_benchmarks(c: &mut Criterion) {
    let bandwidth = vec![0.75; DIMS];
    let kernel_bandwidth = KernelBandwidth::new(bandwidth.clone());
    let query = vec![3.25; DIMS];
    let mut scratch = BlockScratch::new();
    let mut out = Vec::new();

    let entries = kernel_entries();
    let model = KernelQueryModel::new(NODE_LEN * POINTS_PER_ENTRY, &kernel_bandwidth);
    let mut group = c.benchmark_group("block_cache");
    group.bench_function(BenchmarkId::from_parameter("bayes_in_place"), |b| {
        b.iter(|| {
            model.score_entries(
                black_box(&query),
                black_box(&entries),
                &mut scratch,
                &mut out,
            );
            out.len()
        })
    });

    let entries = clus_entries();
    let total: f64 = entries.iter().map(|e| e.summary.weight()).sum();
    let model = ClusQueryModel::new(total, bandwidth, 0.0);
    let slot = BlockCacheSlot::new();
    let mut gathered = GatheredBlock::new();
    assert!(model.gather_entries(&entries, &mut gathered));
    slot.fill(Box::new(gathered));
    group.bench_function(BenchmarkId::from_parameter("clustree_cold_gather"), |b| {
        b.iter(|| {
            model.score_entries(
                black_box(&query),
                black_box(&entries),
                &mut scratch,
                &mut out,
            );
            out.len()
        })
    });
    let mut lanes: ScoreLanes = Default::default();
    group.bench_function(BenchmarkId::from_parameter("clustree_warm_hit"), |b| {
        b.iter(|| {
            let cached = slot.get().expect("warm slot hits");
            model.score_gathered(
                black_box(&query),
                black_box(&entries),
                cached,
                &mut lanes,
                &mut out,
            );
            out.len()
        })
    });
    group.finish();
}

/// Leaf-block group: the per-item scalar loop (the default
/// [`QueryModel::score_leaf_items`] fallback) versus the block path — a
/// Bayes leaf scored in place, a ClusTree leaf gathered — for both trees.
fn leaf_block_benchmarks(c: &mut Criterion) {
    let mut rng = SplitMix(0x1eaf);
    let points: Vec<Vec<f64>> = (0..NODE_LEN).map(|i| rng.point((i % 7) as f64)).collect();
    let points = PointColumns::from_rows(DIMS, points.iter().map(Vec::as_slice));
    let bandwidth = vec![0.75; DIMS];
    let kernel_bandwidth = KernelBandwidth::new(bandwidth.clone());
    let model = KernelQueryModel::new(NODE_LEN * POINTS_PER_ENTRY, &kernel_bandwidth);
    let query = vec![3.25; DIMS];
    let mut scratch = BlockScratch::new();
    let mut out = Vec::new();

    let mut group = c.benchmark_group("bayestree_score_leaf");
    group.bench_function(BenchmarkId::from_parameter("per_item"), |b| {
        b.iter(|| {
            score_leaf_scalar::<KernelSummary, _>(
                &model,
                black_box(&query),
                black_box(&points),
                &mut out,
            );
            out.len()
        })
    });
    group.bench_function(BenchmarkId::from_parameter("block"), |b| {
        b.iter(|| {
            QueryModel::<KernelSummary>::score_leaf_items(
                &model,
                black_box(&query),
                black_box(&points),
                &mut scratch,
                &mut out,
            );
            out.len()
        })
    });
    group.finish();

    let clusters: Vec<MicroCluster> = (0..NODE_LEN)
        .map(|i| {
            let mut mc = MicroCluster::from_point(&rng.point((i % 7) as f64), 0.0);
            for t in 1..POINTS_PER_ENTRY {
                mc.insert(&rng.point((i % 7) as f64), t as f64, 0.0);
            }
            mc
        })
        .collect();
    let total: f64 = clusters.iter().map(Summary::weight).sum();
    let model = ClusQueryModel::new(total, bandwidth, 0.0);
    let mut group = c.benchmark_group("clustree_score_leaf");
    group.bench_function(BenchmarkId::from_parameter("per_item"), |b| {
        b.iter(|| {
            score_leaf_scalar(&model, black_box(&query), black_box(&clusters), &mut out);
            out.len()
        })
    });
    group.bench_function(BenchmarkId::from_parameter("block"), |b| {
        b.iter(|| {
            model.score_leaf_items(
                black_box(&query),
                black_box(&clusters),
                &mut scratch,
                &mut out,
            );
            out.len()
        })
    });
    group.finish();
}

criterion_group!(benches, block_kernel_benchmarks);
criterion_main!(benches);
