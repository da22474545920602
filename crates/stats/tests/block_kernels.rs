//! Property tests: the block kernels match their scalar references.
//!
//! **Tolerances.**
//!
//! * Block kernels against the scalar reference on the same values: every
//!   per-entry result must match **bit for bit** (0 ULP — asserted with
//!   `to_bits()` equality modulo the `-0.0` case).  The block kernels
//!   deliberately replicate the scalar operation order (terms added
//!   dimension-ascending, per-element division by the floored bandwidth,
//!   constants hoisted but recomputed identically), so this is an equality
//!   test.
//! * `f32` stored values against the exact `f64` ones: the `f32` stored
//!   mode quantises only the *stored operands* (means, variances, box
//!   bounds) and widens them into `f64` columns; all arithmetic and
//!   accumulation stay `f64`.  A quantised operand `x` differs from its
//!   `f64` value by at most `|x| * 2^-24`, so squared-distance-style results
//!   drift by a relative `~2^-23` per term; log-kernels add an absolute
//!   error of order `|diff| * 2^-23 / h^2` through the `u^2` term.  The
//!   generators below keep coordinates in `[-50, 50]` and bandwidths above
//!   `1e-3`, for which an absolute tolerance of `1e-2` on log values and a
//!   relative `1e-4` on distances is conservative; the tests assert those
//!   bounds.
//!
//! Edge cases covered explicitly: bandwidths at / below the variance-floor
//! square root, zero variances, empty blocks, and degenerate (point) boxes.

use proptest::prelude::*;

use bt_stats::kernel::{
    cf_log_terms, cluster_scores_block, farthest_point_log_kernel, gaussian_log_term,
    leaf_scores_block, nearest_point_log_kernel, node_estimates_block, node_scores_block,
    smoothed_farthest_log_kernel, sq_dists_block,
};
use bt_stats::{
    ColumnElement, DiagGaussian, GatheredBlock, GaussianKernel, Kernel, KernelBandwidth,
    ScoreLanes, SummaryBlock, VARIANCE_FLOOR,
};

/// One generated node: `len` entries over `dims` dimensions.
#[derive(Debug, Clone)]
struct Node {
    dims: usize,
    query: Vec<f64>,
    bandwidth: Vec<f64>,
    means: Vec<Vec<f64>>,
    vars: Vec<Vec<f64>>,
    lower: Vec<Vec<f64>>,
    upper: Vec<Vec<f64>>,
    /// Routing centres (micro-cluster nodes only), drawn independently of
    /// the means.
    centers: Vec<Vec<f64>>,
}

fn node_strategy() -> impl Strategy<Value = Node> {
    (1usize..5, 0usize..20).prop_flat_map(|(dims, len)| {
        let coord = -50.0f64..50.0;
        // Bandwidths from genuinely degenerate (below the floor sqrt,
        // ~3.2e-5) through ordinary scales.
        let band = prop_oneof![0.0f64..2e-5, 1e-3f64..4.0];
        // Variances including exact zero and sub-floor values.
        let var = prop_oneof![Just(0.0f64), 0.0f64..1e-10, 1e-6f64..9.0];
        (
            prop::collection::vec(coord.clone(), dims),
            prop::collection::vec(band, dims),
            prop::collection::vec(prop::collection::vec(coord.clone(), dims), len),
            prop::collection::vec(prop::collection::vec(var, dims), len),
            prop::collection::vec(
                prop::collection::vec((coord.clone(), 0.0f64..10.0), dims),
                len,
            ),
            prop::collection::vec(prop::collection::vec(coord.clone(), dims), len),
        )
            .prop_map(move |(query, bandwidth, means, vars, boxes, centers)| {
                let mut lower = Vec::with_capacity(boxes.len());
                let mut upper = Vec::with_capacity(boxes.len());
                for entry in &boxes {
                    lower.push(entry.iter().map(|(lo, _)| *lo).collect::<Vec<_>>());
                    upper.push(entry.iter().map(|(lo, w)| lo + w).collect::<Vec<_>>());
                }
                Node {
                    dims,
                    query,
                    bandwidth,
                    means,
                    vars,
                    lower,
                    upper,
                    centers,
                }
            })
    })
}

/// Gathers the node into a block.
fn gather(node: &Node) -> SummaryBlock {
    let mut block = SummaryBlock::new();
    block.reset(node.dims, node.means.len());
    block.enable_boxes();
    for (i, mean) in node.means.iter().enumerate() {
        block.set_weight(i, i as f64 + 1.0);
        for (d, &m) in mean.iter().enumerate() {
            block.set_mean(d, i, m);
            block.set_var(d, i, node.vars[i][d]);
            block.set_lower(d, i, node.lower[i][d]);
            block.set_upper(d, i, node.upper[i][d]);
        }
    }
    block
}

/// Gathers the node as a micro-cluster node: [`gather`]'s columns plus the
/// routing centres.
fn gather_clusters(node: &Node) -> GatheredBlock {
    let len = node.means.len();
    let mut centers = vec![0.0; node.dims * len];
    for (i, center) in node.centers.iter().enumerate() {
        for (d, &c) in center.iter().enumerate() {
            centers[d * len + i] = c;
        }
    }
    GatheredBlock {
        block: gather(node),
        centers,
    }
}

/// The node's values as the `f32` stored mode keeps them: means and
/// variances rounded to nearest, box corners rounded outward, widened back.
fn narrowed(node: &Node) -> Node {
    let round = |rows: &[Vec<f64>], narrow: fn(f64) -> f32| -> Vec<Vec<f64>> {
        rows.iter()
            .map(|row| row.iter().map(|&v| narrow(v).widen()).collect())
            .collect()
    };
    Node {
        means: round(&node.means, f32::narrow),
        vars: round(&node.vars, f32::narrow),
        centers: round(&node.centers, f32::narrow),
        lower: round(&node.lower, f32::narrow_down),
        upper: round(&node.upper, f32::narrow_up),
        ..node.clone()
    }
}

fn assert_bit_equal(got: &[f64], want: &[f64]) {
    assert_eq!(got.len(), want.len());
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            g.to_bits() == w.to_bits() || (*g == 0.0 && *w == 0.0),
            "entry {i}: block {g:?} ({:#x}) != scalar {w:?} ({:#x})",
            g.to_bits(),
            w.to_bits()
        );
    }
}

fn assert_close(got: &[f64], want: &[f64], abs_tol: f64, rel_tol: f64) {
    assert_eq!(got.len(), want.len());
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        let err = (g - w).abs();
        let bound = abs_tol + rel_tol * w.abs();
        assert!(err <= bound, "entry {i}: |{g} - {w}| = {err} > {bound}");
    }
}

/// The scalar ClusTree smoothed (Jensen) kernel term the micro-cluster pass
/// must reproduce.
fn scalar_smoothed(query: &[f64], mean: &[f64], var: &[f64], bandwidth: &[f64]) -> f64 {
    let mut acc = 0.0;
    for d in 0..query.len() {
        let diff = query[d] - mean[d];
        let t = diff * diff + var[d];
        acc += gaussian_log_term(t.sqrt(), bandwidth[d]);
    }
    acc
}

/// The scalar squared distance (same dimension-ascending accumulation as
/// `ClusterFeature::sq_dist_mean_to` evaluates against a gathered mean).
fn scalar_sq_dist(query: &[f64], mean: &[f64]) -> f64 {
    let mut acc = 0.0;
    for d in 0..query.len() {
        let diff = mean[d] - query[d];
        acc += diff * diff;
    }
    acc
}

/// The scalar box minimum squared distance (`Mbr::min_dist_sq`).
fn scalar_box_min_sq(query: &[f64], lower: &[f64], upper: &[f64]) -> f64 {
    let mut acc = 0.0;
    for d in 0..query.len() {
        let diff = if query[d] < lower[d] {
            lower[d] - query[d]
        } else if query[d] > upper[d] {
            query[d] - upper[d]
        } else {
            0.0
        };
        acc += diff * diff;
    }
    acc
}

/// Asserts that both Bayes-tree fused passes equal the scalar formulas on
/// `node`'s values: the node pass over the raw (unfloored, zero and
/// sub-floor included) variances and the precomputed log-variance column
/// (the Bayes-tree gather) — its log-pdf lane against the
/// DiagGaussian-clamped reference, its CF lanes against [`cf_log_terms`]
/// — and the leaf pass over the means.
fn check_fused_passes(node: &Node) {
    let mut block = gather(node);
    block.fill_log_vars();
    let bandwidth = KernelBandwidth::new(node.bandwidth.clone());
    let n = block.len();
    let mut lanes: ScoreLanes = Default::default();
    node_scores_block(&node.query, &bandwidth, &block, &mut lanes);
    let [log_pdf, far, near, dist, jensen, magnitude] = &lanes;
    let (want_jensen, want_magnitude): (Vec<f64>, Vec<f64>) = node
        .means
        .iter()
        .zip(&node.vars)
        .map(|(m, v)| {
            cf_log_terms(
                &node.query,
                m.iter().copied().zip(v.iter().copied()),
                &bandwidth,
            )
        })
        .unzip();
    assert_bit_equal(jensen, &want_jensen);
    assert_bit_equal(magnitude, &want_magnitude);
    let want: Vec<f64> = node
        .means
        .iter()
        .zip(&node.vars)
        .map(|(m, v)| DiagGaussian::new(m.clone(), v.clone()).log_pdf(&node.query))
        .collect();
    assert_bit_equal(log_pdf, &want);
    let want: Vec<f64> = (0..n)
        .map(|i| {
            farthest_point_log_kernel(&node.query, &node.lower[i], &node.upper[i], &node.bandwidth)
        })
        .collect();
    assert_bit_equal(far, &want);
    let want: Vec<f64> = (0..n)
        .map(|i| {
            nearest_point_log_kernel(&node.query, &node.lower[i], &node.upper[i], &node.bandwidth)
        })
        .collect();
    assert_bit_equal(near, &want);
    let want: Vec<f64> = (0..n)
        .map(|i| scalar_box_min_sq(&node.query, &node.lower[i], &node.upper[i]))
        .collect();
    assert_bit_equal(dist, &want);

    let (mut log_k, mut sq) = (Vec::new(), Vec::new());
    leaf_scores_block(
        &node.query,
        &bandwidth,
        block.mean(),
        n,
        &mut log_k,
        &mut sq,
    );
    let k = GaussianKernel;
    let want: Vec<f64> = node
        .means
        .iter()
        .map(|m| k.log_density(m, &node.query, &node.bandwidth))
        .collect();
    assert_bit_equal(&log_k, &want);
    let want: Vec<f64> = node
        .means
        .iter()
        .map(|m| scalar_sq_dist(&node.query, m))
        .collect();
    assert_bit_equal(&sq, &want);
}

/// Asserts that the micro-cluster pass equals the scalar formulas on
/// `node`'s values in both `BOUNDS` states: the Jensen term over the raw
/// variances (the ClusTree gather floors them at `0.0`), the smoothed
/// farthest-corner and nearest-point log-kernels, and the centre distance.
fn check_cluster_pass(node: &Node) {
    let gathered = gather_clusters(node);
    let bandwidth = KernelBandwidth::new(node.bandwidth.clone());
    let n = node.means.len();
    let jensen: Vec<f64> = node
        .means
        .iter()
        .zip(&node.vars)
        .map(|(m, v)| scalar_smoothed(&node.query, m, v, &node.bandwidth))
        .collect();
    let center_sq: Vec<f64> = node
        .centers
        .iter()
        .map(|c| scalar_sq_dist(&node.query, c))
        .collect();
    let mut lanes: [Vec<f64>; 4] = Default::default();
    cluster_scores_block::<true>(&node.query, &bandwidth, &gathered, &mut lanes);
    assert_bit_equal(&lanes[0], &jensen);
    let want: Vec<f64> = (0..n)
        .map(|i| {
            smoothed_farthest_log_kernel(
                &node.query,
                &node.lower[i],
                &node.upper[i],
                &node.bandwidth,
            )
        })
        .collect();
    assert_bit_equal(&lanes[1], &want);
    let want: Vec<f64> = (0..n)
        .map(|i| {
            nearest_point_log_kernel(&node.query, &node.lower[i], &node.upper[i], &node.bandwidth)
        })
        .collect();
    assert_bit_equal(&lanes[2], &want);
    assert_bit_equal(&lanes[3], &center_sq);

    cluster_scores_block::<false>(&node.query, &bandwidth, &gathered, &mut lanes);
    assert_bit_equal(&lanes[0], &jensen);
    assert!(lanes[1].is_empty() && lanes[2].is_empty());
    assert_bit_equal(&lanes[3], &center_sq);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sq_dists_match_scalar_bitwise(node in node_strategy()) {
        let block = gather(&node);
        let mut out = Vec::new();
        sq_dists_block(&node.query, block.mean(), block.len(), &mut out);
        let want: Vec<f64> = node.means.iter().map(|m| scalar_sq_dist(&node.query, m)).collect();
        assert_bit_equal(&out, &want);
    }

    #[test]
    fn gaussian_log_terms_match_scalar_bitwise(node in node_strategy()) {
        let bandwidth = KernelBandwidth::new(node.bandwidth.clone());
        // Without variances: the product log-kernel at each mean, the leaf
        // pass's first lane.
        let block = gather(&node);
        let (mut out, mut sq) = (Vec::new(), Vec::new());
        leaf_scores_block(&node.query, &bandwidth, block.mean(), block.len(), &mut out, &mut sq);
        let k = GaussianKernel;
        let want: Vec<f64> = node
            .means
            .iter()
            .map(|m| k.log_density(m, &node.query, &node.bandwidth))
            .collect();
        assert_bit_equal(&out, &want);
        // With variances: the smoothed (Jensen) kernel, the micro-cluster
        // pass's first lane.
        let mut lanes: [Vec<f64>; 4] = Default::default();
        cluster_scores_block::<false>(&node.query, &bandwidth, &gather_clusters(&node), &mut lanes);
        let want: Vec<f64> = node
            .means
            .iter()
            .zip(&node.vars)
            .map(|(m, v)| scalar_smoothed(&node.query, m, v, &node.bandwidth))
            .collect();
        assert_bit_equal(&lanes[0], &want);
    }

    #[test]
    fn diag_log_pdfs_match_scalar_bitwise(node in node_strategy()) {
        // The gather must replicate DiagGaussian::new's clamp; the log-pdf
        // lane reads the precomputed log-variance column (the cached-gather
        // fast path, SIMD-dispatched) and must not move a bit against the
        // inline-`ln` scalar reference.
        let mut block = gather(&node);
        for (i, vars) in node.vars.iter().enumerate() {
            for (d, &v) in vars.iter().enumerate() {
                let clamped = if v.is_finite() { v.max(VARIANCE_FLOOR) } else { VARIANCE_FLOOR };
                block.set_var(d, i, clamped);
            }
        }
        block.fill_log_vars();
        let want: Vec<f64> = node
            .means
            .iter()
            .zip(&node.vars)
            .map(|(m, v)| DiagGaussian::new(m.clone(), v.clone()).log_pdf(&node.query))
            .collect();
        let (mut out, mut min_sq) = (Vec::new(), Vec::new());
        node_estimates_block(&node.query, &block, &mut out, &mut min_sq);
        assert_bit_equal(&out, &want);
    }

    #[test]
    fn box_kernels_match_scalar_bitwise(node in node_strategy()) {
        let mut block = gather(&node);
        block.fill_log_vars();
        let bandwidth = KernelBandwidth::new(node.bandwidth.clone());
        let n = block.len();
        let mut lanes: ScoreLanes = Default::default();
        node_scores_block(&node.query, &bandwidth, &block, &mut lanes);
        let mut cluster: [Vec<f64>; 4] = Default::default();
        cluster_scores_block::<true>(&node.query, &bandwidth, &gather_clusters(&node), &mut cluster);

        let want: Vec<f64> = (0..n)
            .map(|i| nearest_point_log_kernel(&node.query, &node.lower[i], &node.upper[i], &node.bandwidth))
            .collect();
        assert_bit_equal(&lanes[2], &want);
        assert_bit_equal(&cluster[2], &want);

        let want: Vec<f64> = (0..n)
            .map(|i| farthest_point_log_kernel(&node.query, &node.lower[i], &node.upper[i], &node.bandwidth))
            .collect();
        assert_bit_equal(&lanes[1], &want);

        let want: Vec<f64> = (0..n)
            .map(|i| smoothed_farthest_log_kernel(&node.query, &node.lower[i], &node.upper[i], &node.bandwidth))
            .collect();
        assert_bit_equal(&cluster[1], &want);

        let want: Vec<f64> = (0..n)
            .map(|i| scalar_box_min_sq(&node.query, &node.lower[i], &node.upper[i]))
            .collect();
        assert_bit_equal(&lanes[3], &want);
    }

    #[test]
    fn fused_passes_match_scalar_bitwise(node in node_strategy()) {
        check_fused_passes(&node);
    }

    #[test]
    fn cluster_pass_matches_scalar_bitwise(node in node_strategy()) {
        check_cluster_pass(&node);
    }

    #[test]
    fn estimate_pass_equals_the_full_node_pass_bitwise(node in node_strategy()) {
        // Raw variances, as the Bayes-tree gather stores them: both passes
        // floor them identically.
        let mut block = gather(&node);
        block.fill_log_vars();
        let bandwidth = KernelBandwidth::new(node.bandwidth.clone());
        let mut lanes: ScoreLanes = Default::default();
        node_scores_block(&node.query, &bandwidth, &block, &mut lanes);
        let (mut log_pdf, mut min_sq) = (Vec::new(), Vec::new());
        node_estimates_block(&node.query, &block, &mut log_pdf, &mut min_sq);
        assert_bit_equal(&log_pdf, &lanes[0]);
        assert_bit_equal(&min_sq, &lanes[3]);
    }

    #[test]
    fn fused_f32_passes_match_the_f32_kernels_bitwise(node in node_strategy()) {
        // The f32 stored mode widens its narrowed values into the same f64
        // columns, so every fused lane must equal the scalar formulas on
        // those narrowed values.
        let narrow = narrowed(&node);
        check_fused_passes(&narrow);
        check_cluster_pass(&narrow);
    }

    #[test]
    fn f32_mode_is_within_documented_tolerance(node in node_strategy()) {
        let gathered = gather_clusters(&narrowed(&node));
        let block = &gathered.block;
        let mut out = Vec::new();
        let n = block.len();

        sq_dists_block(&node.query, block.mean(), n, &mut out);
        let want: Vec<f64> = node.means.iter().map(|m| scalar_sq_dist(&node.query, m)).collect();
        // Quantising a coordinate in [-50, 50] moves it by <= 50 * 2^-24
        // ~ 3e-6; a squared distance of magnitude D picks up ~2 sqrt(D)
        // per-dim errors of that size.
        assert_close(&out, &want, 1e-2, 1e-4);

        let bandwidth = KernelBandwidth::new(node.bandwidth.clone());
        let mut lanes: [Vec<f64>; 4] = Default::default();
        cluster_scores_block::<true>(&node.query, &bandwidth, &gathered, &mut lanes);
        let want: Vec<f64> = node
            .means
            .iter()
            .zip(&node.vars)
            .map(|(m, v)| scalar_smoothed(&node.query, m, v, &node.bandwidth))
            .collect();
        // Log-kernel error scales with |u| * delta_u; with the floored
        // bandwidth >= 3.16e-5 and |diff| <= 100 the u^2 term stays finite
        // and the relative bound below holds with wide margin.
        assert_close(&lanes[0], &want, 1e-2, 1e-3);

        let want: Vec<f64> = (0..n)
            .map(|i| nearest_point_log_kernel(&node.query, &node.lower[i], &node.upper[i], &node.bandwidth))
            .collect();
        assert_close(&lanes[2], &want, 1e-2, 1e-3);
    }

    #[test]
    fn empty_blocks_yield_empty_outputs(dims in 1usize..5) {
        let mut block = SummaryBlock::new();
        block.reset(dims, 0);
        block.enable_boxes();
        let query = vec![0.5; dims];
        let bandwidth = vec![1.0; dims];
        let bandwidth = KernelBandwidth::new(bandwidth);
        let mut out = vec![123.0];
        sq_dists_block(&query, block.mean(), 0, &mut out);
        prop_assert!(out.is_empty());
        let mut sq = vec![123.0];
        leaf_scores_block(&query, &bandwidth, block.mean(), 0, &mut out, &mut sq);
        prop_assert!(out.is_empty() && sq.is_empty());
        block.fill_log_vars();
        let mut lanes: ScoreLanes = std::array::from_fn(|_| vec![123.0]);
        node_scores_block(&query, &bandwidth, &block, &mut lanes);
        prop_assert!(lanes.iter().all(Vec::is_empty));
        let gathered = GatheredBlock { block, centers: Vec::new() };
        let mut lanes: [Vec<f64>; 4] = std::array::from_fn(|_| vec![123.0]);
        cluster_scores_block::<true>(&query, &bandwidth, &gathered, &mut lanes);
        prop_assert!(lanes.iter().all(Vec::is_empty));
    }
}

#[test]
fn smoothed_farthest_is_a_lower_bound_on_member_clusters() {
    // Any cluster whose mean and mass sit inside the box has a smoothed
    // kernel value >= the smoothed farthest-point bound.
    let query = [0.0, 3.0];
    let bandwidth = [0.7, 1.3];
    let lower = [1.0, -2.0];
    let upper = [4.0, 1.5];
    let floor = smoothed_farthest_log_kernel(&query, &lower, &upper, &bandwidth);
    for steps in 0..50 {
        let fx = steps as f64 / 49.0;
        let mean = [
            lower[0] + fx * (upper[0] - lower[0]),
            lower[1] + (1.0 - fx) * (upper[1] - lower[1]),
        ];
        // Maximum admissible variance for a member cluster.
        let var = [
            (0.5 * (upper[0] - lower[0])).powi(2) * fx,
            (0.5 * (upper[1] - lower[1])).powi(2) * (1.0 - fx),
        ];
        let mut acc = 0.0;
        for d in 0..2 {
            let diff = query[d] - mean[d];
            let t = diff * diff + var[d];
            acc += gaussian_log_term(t.sqrt(), bandwidth[d]);
        }
        assert!(
            acc >= floor - 1e-12,
            "member cluster {mean:?}/{var:?} below floor: {acc} < {floor}"
        );
    }
}

#[test]
fn smoothed_farthest_never_exceeds_plain_farthest() {
    // The smoothing term only adds distance, so the smoothed bound is
    // tighter-or-equal from below than... actually *smaller* or equal:
    // sqrt(far^2 + half^2) >= far, and the kernel decreases with distance.
    let query = [2.0];
    let bandwidth = [0.9];
    let lower = [4.0];
    let upper = [9.0];
    let smoothed = smoothed_farthest_log_kernel(&query, &lower, &upper, &bandwidth);
    let plain = farthest_point_log_kernel(&query, &lower, &upper, &bandwidth);
    assert!(smoothed <= plain + 1e-12);
}
