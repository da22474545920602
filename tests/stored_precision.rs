//! Certain outlier verdicts agree with the exact kernel density.
//!
//! A verdict is *certain* when the certified `[lower, upper]` interval lies
//! strictly on one side of the threshold.  Leaves hold the exact points, so
//! the flat kernel density (`full_kernel_density`) is the ground truth every
//! certain verdict must agree with: on small two-cluster trees whose boxes
//! are of the order of the bandwidth (where box bounds bite), at every
//! budget and at thresholds on both sides of the density, and on a 16-d
//! drifting stream at the 4 KiB-page geometry, where the budget binds.

use anytime_stream_mining::anytree::{OutlierScore, OutlierVerdict};
use anytime_stream_mining::bayestree::BayesTree;
use anytime_stream_mining::data::stream::DriftingStream;
use anytime_stream_mining::index::PageGeometry;
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

/// Whether a certain outlier verdict lies on the exact density's side of
/// the threshold.  Leaves are exact, so the flat kernel density is the
/// ground truth; the slack is relative, at the scale of a few roundings of
/// the threshold.
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
fn check_certain_verdicts(tree: &BayesTree, q: &[f64]) {
    let truth = tree.full_kernel_density(q);
    for threshold in [1e-4, 0.5 * truth, 0.9 * truth, 1.1 * truth, 2.0 * truth] {
        if threshold <= 0.0 {
            continue;
        }
        for budget in [0usize, 1, 2, 4, 8, 32, usize::MAX] {
            let score = tree.outlier_score(q, threshold, budget);
            assert!(
                verdict_matches_truth(&score, truth, threshold),
                "budget {budget}, threshold {threshold}: verdict {:?} on [{}, {}] \
                 contradicts the exact density {truth}",
                score.verdict,
                score.answer.lower,
                score.answer.upper
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// At every budget a *certain* verdict agrees with the exact density's
    /// side; the bounds read the box and the cluster feature.
    #[test]
    fn f64_certain_outlier_verdicts_match_the_exact_density(points in points_strategy(60), q in query_strategy()) {
        check_certain_verdicts(&build_f64(&points), &q);
    }
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

fn stream_tree(points: &[Vec<f64>]) -> BayesTree {
    let mut tree: BayesTree = BayesTree::new(16, BayesTree::<f64>::paged_geometry(16));
    for chunk in points.chunks(256) {
        tree.insert_batch(chunk.to_vec());
    }
    tree
}

/// A 16-d drifting stream at the 4 KiB-page geometry: the tree certifies
/// outlier verdicts within a 48-read budget, and every certain verdict
/// agrees with the exact density's side.  The threshold is 5% of the
/// density at the first query.
#[test]
fn f64_tree_certifies_stream_outlier_verdicts() {
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
    let tree = stream_tree(&points);
    let threshold = tree.full_kernel_density(&queries[0]) * 0.05;
    let mut certified = 0;
    for q in &queries {
        let score = tree.outlier_score(q, threshold, 48);
        if score.verdict == OutlierVerdict::Undecided {
            continue;
        }
        certified += 1;
        let truth = tree.full_kernel_density(q);
        assert!(
            verdict_matches_truth(&score, truth, threshold),
            "verdict {:?} on [{}, {}] contradicts the exact density {truth} (threshold {threshold})",
            score.verdict,
            score.answer.lower,
            score.answer.upper
        );
    }
    assert!(certified > 0, "no verdict certified on the stream workload");
}
