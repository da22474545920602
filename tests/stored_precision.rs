//! Property tests for the narrowed stored-summary mode (the 16-bit
//! block-exponent `Quantized` mode): the interval-soundness and convergence
//! contracts that make narrow storage safe to opt into.
//!
//! The stored-precision design (see `bayestree::node`) promises:
//!
//! * **Outward quantisation** — a narrowed entry box always encloses the
//!   exact box of the points below it, so the MBR-derived `[lower, upper]`
//!   density bounds of Definition 3 remain *certain* bounds,
//! * **Exact leaves** — raw observations stay `f64`, so a fully refined
//!   query converges to the exact kernel density regardless of how the
//!   directory summaries were stored,
//! * **Bounded drift** — CF sums accumulate in `f64` and quantise on write,
//!   so stored means/variances sit within half a block step per component
//!   of the exact ones.
//!
//! Each property is exercised on live trees, epoch-pinned snapshots and the
//! sharded variant, mirroring the structure of `tests/query_equivalence.rs`
//! for the full-width mode.  Certain outlier verdicts are checked against
//! the exact density in both stored modes.

use anytime_stream_mining::anytree::{OutlierScore, OutlierVerdict};
use anytime_stream_mining::bayestree::{
    BayesTree, BayesTreeQuantized, DescentStrategy, Quantized, QuantizedSummary, StoredElement,
    StoredSummary,
};
use anytime_stream_mining::data::stream::DriftingStream;
use anytime_stream_mining::index::PageGeometry;
use anytime_stream_mining::stats::ClusterFeature;
use proptest::prelude::*;

/// Bounded 3-d point sets in two loose clusters, centred at `-2.5` and
/// `2.5` on every axis with a spread of `±1.5`, to force real tree
/// structure.  The spread is of the order of the bandwidth (see
/// [`BANDWIDTH`]), so an entry's box bounds are far from 0 and its
/// farthest-corner bound is a sizeable share of its nearest-point bound: a
/// box bound that is too high or too low shows in the enclosure checks.
fn points_strategy(max_len: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    let point = (
        prop_oneof![Just(-2.5f64), Just(2.5f64)],
        prop::collection::vec(-1.5f64..1.5, 3),
    )
        .prop_map(|(centre, offsets)| offsets.into_iter().map(|x| centre + x).collect());
    prop::collection::vec(point, 8..max_len)
}

/// Query coordinates: over the clusters and a little beyond them.
fn query_strategy() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-5.0f64..5.0, 3)
}

/// The per-dimension bandwidth every test tree uses.
const BANDWIDTH: [f64; 3] = [1.25, 0.8, 1.5];

fn geometry() -> PageGeometry {
    PageGeometry::from_fanout(4, 4)
}

fn build_f64(points: &[Vec<f64>]) -> BayesTree {
    let mut tree: BayesTree = BayesTree::new(3, geometry());
    for p in points {
        tree.insert(p.clone());
    }
    tree.set_bandwidth(BANDWIDTH.to_vec());
    tree
}

fn build_quantized(points: &[Vec<f64>]) -> BayesTreeQuantized {
    let mut tree = BayesTreeQuantized::new(3, geometry());
    for p in points {
        tree.insert(p.clone());
    }
    tree.set_bandwidth(BANDWIDTH.to_vec());
    tree
}

/// Whether a certain outlier verdict lies on the exact density's side of
/// the threshold.  Leaves are exact in every stored mode, so the flat
/// kernel density is the ground truth; the slack is relative, at the
/// scale of a few roundings of the threshold.
fn verdict_matches_truth(score: &OutlierScore, truth: f64, threshold: f64) -> bool {
    let slack = threshold * 1e-12;
    match score.verdict {
        OutlierVerdict::Outlier => truth <= threshold + slack,
        OutlierVerdict::Inlier => truth >= threshold - slack,
        OutlierVerdict::Undecided => true,
    }
}

/// At every budget, each *certain* outlier verdict of `tree` (interval
/// strictly on one side of the threshold) agrees with the exact density's
/// side.  The thresholds sit at a fixed level and close to the exact
/// density on both sides of it, where a bound that overshoots flips a
/// verdict.
fn check_certain_verdicts<E: StoredElement>(tree: &BayesTree<E>, q: &[f64]) {
    let truth = tree.full_kernel_density(q);
    for threshold in [1e-4, 0.5 * truth, 0.9 * truth, 1.1 * truth, 2.0 * truth] {
        if threshold <= 0.0 {
            continue;
        }
        for budget in [0usize, 1, 2, 4, 8, 32, usize::MAX] {
            let score = tree.outlier_score(q, threshold, budget);
            assert!(
                verdict_matches_truth(&score, truth, threshold),
                "{} mode, budget {budget}, threshold {threshold}: verdict {:?} on [{}, {}] \
                 contradicts the exact density {truth}",
                E::MODE,
                score.verdict,
                score.answer.lower,
                score.answer.upper
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The structural invariants of Definition 2 hold for quantised stored
    /// trees under arbitrary insertion orders — `bf16` outward rounding is
    /// value-deterministic and monotone, so every parent box remains a true
    /// superset of its (independently re-encoded) children.
    #[test]
    fn quantized_trees_stay_valid_under_arbitrary_inserts(points in points_strategy(80)) {
        let tree = build_quantized(&points);
        prop_assert_eq!(tree.len(), points.len());
        tree.validate(true).expect("quantised tree invariants hold");
    }

    /// Interval soundness: at every budget, the quantised tree's certified
    /// `[lower, upper]` interval brackets the *exact* kernel density, and
    /// the interval only tightens with budget.
    #[test]
    fn quantized_bounds_bracket_the_exact_density(points in points_strategy(60), q in query_strategy()) {
        let tree = build_quantized(&points);
        let truth = tree.full_kernel_density(&q);
        let mut last = f64::INFINITY;
        for budget in [0usize, 1, 2, 4, 8, 32, usize::MAX] {
            let answer = tree.anytime_density(&q, DescentStrategy::default(), budget);
            prop_assert!(
                answer.lower <= truth + 1e-12 && truth <= answer.upper + 1e-12,
                "budget {}: [{}, {}] misses {}", budget, answer.lower, answer.upper, truth
            );
            prop_assert!(answer.uncertainty() <= last + 1e-12, "budget {} widened the interval", budget);
            last = answer.uncertainty();
        }
    }

    /// Convergence: fully refined, the quantised tree's answer collapses
    /// onto the exact density — 16-bit storage only affects *intermediate*
    /// directory summaries, never the converged result (up to summation
    /// order across the two tree shapes).
    #[test]
    fn quantized_full_refinement_is_exact(points in points_strategy(60), q in query_strategy()) {
        let narrow = build_quantized(&points);
        let wide = build_f64(&points);
        let exact = wide.full_kernel_density(&q);
        let answer = narrow.anytime_density(&q, DescentStrategy::default(), usize::MAX);
        prop_assert!(answer.uncertainty() < 1e-12);
        prop_assert!(
            (answer.estimate - exact).abs() <= 1e-9 * (1.0 + exact.abs()),
            "converged quantised estimate {} != exact {}", answer.estimate, exact
        );
    }

    /// Per-component CF error of a freshly encoded quantised summary is at
    /// most half the advertised block step (round-to-nearest against a
    /// power-of-two step; the decode is exact in `f64`).
    #[test]
    fn quantized_cf_components_round_within_half_a_step(points in points_strategy(60)) {
        let summary = QuantizedSummary::from_points(&points, 3).expect("non-empty");
        let exact =
            ClusterFeature::from_points(points.iter().map(Vec::as_slice), 3);
        prop_assert_eq!(summary.count(), exact.weight());
        for d in 0..3 {
            let ls_err = (summary.linear_sum_at(d) - exact.linear_sum()[d]).abs();
            let ss_err = (summary.squared_sum_at(d) - exact.squared_sum()[d]).abs();
            prop_assert!(
                ls_err <= summary.ls_step() / 2.0 + 1e-12,
                "dim {}: LS error {} exceeds half step {}", d, ls_err, summary.ls_step() / 2.0
            );
            prop_assert!(
                ss_err <= summary.ss_step() / 2.0 + 1e-12,
                "dim {}: SS error {} exceeds half step {}", d, ss_err, summary.ss_step() / 2.0
            );
        }
    }

    /// Outlier verdicts from the quantised tree are trustworthy: at every
    /// budget a *certain* verdict agrees with the exact density's side.
    #[test]
    fn quantized_certain_outlier_verdicts_match_the_exact_density(points in points_strategy(60), q in query_strategy()) {
        check_certain_verdicts(&build_quantized(&points), &q);
    }

    /// The same check on the full-width tree, whose bounds also read the
    /// cluster feature.
    #[test]
    fn f64_certain_outlier_verdicts_match_the_exact_density(points in points_strategy(60), q in query_strategy()) {
        check_certain_verdicts(&build_f64(&points), &q);
    }

    /// A quantised summary's stored box encloses every point it summarises:
    /// `bf16_floor` / `bf16_ceil` round corners outward, never inward.
    #[test]
    fn quantized_boxes_enclose_every_summarised_point(points in points_strategy(60)) {
        let summary = QuantizedSummary::from_points(&points, 3).expect("non-empty");
        for p in &points {
            for (d, &v) in p.iter().enumerate().take(3) {
                prop_assert!(
                    summary.lower_at(d) <= v && v <= summary.upper_at(d),
                    "dim {}: point {} outside stored box [{}, {}]",
                    d, v, summary.lower_at(d), summary.upper_at(d)
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Epoch-pinned snapshots of quantised trees answer bit-identically to
    /// the live tree at snapshot time, and stay frozen while the live tree
    /// keeps ingesting.
    #[test]
    fn quantized_snapshots_freeze_the_answer(points in points_strategy(60), q in query_strategy()) {
        let mut tree = build_quantized(&points);
        let snapshot = tree.snapshot();
        let live = tree.anytime_density(&q, DescentStrategy::default(), 8);
        let frozen = snapshot.anytime_density(&q, DescentStrategy::default(), 8);
        prop_assert_eq!(live, frozen);
        tree.insert_batch(points.clone());
        prop_assert_eq!(
            snapshot.anytime_density(&q, DescentStrategy::default(), 8),
            frozen
        );
    }

    /// The sharded quantised tree folds per-shard intervals into a sound
    /// global interval, and its converged estimate matches the flat exact
    /// density.
    #[test]
    fn sharded_quantized_bounds_stay_sound(points in points_strategy(80), q in query_strategy()) {
        let mut sharded: BayesTree<Quantized> =
            BayesTree::sharded(3, geometry(), 3);
        for chunk in points.chunks(16) {
            let _ = sharded.insert_batch(chunk.to_vec());
        }
        sharded.set_bandwidth(BANDWIDTH.to_vec());
        sharded.validate(true).expect("sharded quantised invariants hold");
        let truth = sharded.full_kernel_density(&q);
        let mut last = f64::INFINITY;
        for budget in [0usize, 2, 8, usize::MAX] {
            let answer = sharded.anytime_density(&q, DescentStrategy::default(), budget);
            prop_assert!(
                answer.lower <= truth + 1e-12 && truth <= answer.upper + 1e-12,
                "budget {}: [{}, {}] misses {}", budget, answer.lower, answer.upper, truth
            );
            prop_assert!(answer.uncertainty() <= last + 1e-12);
            last = answer.uncertainty();
        }
        let full = sharded.anytime_density(&q, DescentStrategy::default(), usize::MAX);
        prop_assert!((full.estimate - truth).abs() <= 1e-9 * (1.0 + truth.abs()));
    }
}

/// The quantised mode stores 2-byte scalars — a quarter of full width — and
/// the page geometry turns that into directory fanout: a 4 KiB page that
/// holds 7 full-width 16-d entries (or 15 at 4-byte scalars) holds 29
/// quantised ones.
#[test]
fn quantized_entries_quarter_the_scalar_bytes_and_multiply_fanout() {
    assert_eq!(<f64 as StoredElement>::SCALAR_BYTES, 8);
    assert_eq!(<Quantized as StoredElement>::SCALAR_BYTES, 2);
    let wide = PageGeometry::from_page_size_for_scalar(4096, 16, 8);
    let narrow = PageGeometry::from_page_size_for_scalar(4096, 16, 4);
    let quant = PageGeometry::from_page_size_for_scalar(4096, 16, 2);
    assert_eq!(quant.max_fanout, 29);
    assert!(quant.max_fanout >= 4 * wide.max_fanout);
    assert!(quant.max_fanout >= narrow.max_fanout * 2 - 1);
    // Leaves hold exact full-width observations in every stored mode.
    assert_eq!(quant.max_leaf, wide.max_leaf);
}

/// Deterministic SplitMix64 draws in `[0, 1)`: the query jitter of the
/// stream workload below.
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
}

fn stream_tree<E: StoredElement>(points: &[Vec<f64>]) -> BayesTree<E> {
    let mut tree: BayesTree<E> = BayesTree::new(16, BayesTree::<E>::paged_geometry(16));
    for chunk in points.chunks(256) {
        tree.insert_batch(chunk.to_vec());
    }
    tree
}

/// A 16-d drifting stream at the quantised mode's own 4 KiB-page geometry
/// (29 entries per directory page): the quantised tree certifies outlier
/// verdicts within a 48-read budget, and every certain verdict agrees with
/// the exact density's side.  The threshold is 5% of the `f64` tree's
/// density at the first query.
#[test]
fn quantized_tree_certifies_stream_outlier_verdicts() {
    let points: Vec<Vec<f64>> = DriftingStream::new(4, 16, 0.3, 0.002, 17)
        .generate(4_000)
        .into_iter()
        .map(|(p, _)| p)
        .collect();
    let mut rng = SplitMix(0xbeef);
    let queries: Vec<Vec<f64>> = (0..256)
        .map(|i| {
            let mut q = points[(i * 13) % points.len()].clone();
            for v in &mut q {
                *v += rng.next_f64() - 0.5;
            }
            q
        })
        .collect();
    let wide = stream_tree::<f64>(&points);
    let quant = stream_tree::<Quantized>(&points);
    let threshold = wide.full_kernel_density(&queries[0]) * 0.05;
    let mut certified = 0;
    for q in &queries {
        let score = quant.outlier_score(q, threshold, 48);
        if score.verdict == OutlierVerdict::Undecided {
            continue;
        }
        certified += 1;
        let truth = quant.full_kernel_density(q);
        assert!(
            verdict_matches_truth(&score, truth, threshold),
            "verdict {:?} on [{}, {}] contradicts the exact density {truth} (threshold {threshold})",
            score.verdict,
            score.answer.lower,
            score.answer.upper
        );
    }
    assert!(
        certified > 0,
        "quantised mode certified no verdicts on the stream workload"
    );
}
