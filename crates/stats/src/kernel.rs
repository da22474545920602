//! Kernel density estimators.
//!
//! The Bayes tree stores the raw training observations in its leaves and
//! treats each of them as a *kernel*: a small density bump centred at the
//! observation.  The paper uses Gaussian kernels with a Silverman bandwidth
//! (Section 2.1); the [`Kernel`] trait and its one implementation,
//! [`GaussianKernel`], are that kernel, and the scalar formulas and fused
//! block passes below evaluate it (and its box and cluster-feature bounds)
//! over tree nodes.

use crate::block::{zero_fill, ColumnElement, GatheredBlock, ScoreLanes, SummaryBlock};
use crate::{LN_2PI, VARIANCE_FLOOR};

/// A product kernel over `d` dimensions with a per-dimension bandwidth.
pub trait Kernel {
    /// Log density contribution of a kernel centred at `center` evaluated at
    /// `x`, with per-dimension bandwidth `bandwidth`.
    fn log_density(&self, center: &[f64], x: &[f64], bandwidth: &[f64]) -> f64;

    /// Density contribution (non-log).
    fn density(&self, center: &[f64], x: &[f64], bandwidth: &[f64]) -> f64 {
        self.log_density(center, x, bandwidth).exp()
    }
}

/// Gaussian product kernel `K(u) = (2 pi)^(-d/2) exp(-||u||^2 / 2)` with
/// per-dimension scaling `u_j = (x_j - c_j) / h_j`.
#[derive(Debug, Clone, Copy, Default)]
pub struct GaussianKernel;

/// One dimension's contribution to the Gaussian product log-kernel at
/// (signed) distance `dist` with bandwidth `h`, including the shared
/// variance flooring.
///
/// This is *the* per-dimension term: [`GaussianKernel::log_density`] sums it
/// over `x - center`, and the anytime query models evaluate it at nearest /
/// farthest MBR distances (Bayes-tree bounds) and at cluster-feature mean
/// squared distances (ClusTree Jensen bounds).  Keeping it in one place
/// guarantees the bound arithmetic can never drift from the leaf-kernel
/// arithmetic it must bracket.
#[must_use]
pub fn gaussian_log_term(dist: f64, h: f64) -> f64 {
    let h = h.max(VARIANCE_FLOOR.sqrt());
    let u = dist / h;
    -0.5 * (LN_2PI + u * u) - h.ln()
}

/// A per-dimension kernel bandwidth together with its query-independent
/// terms: the floored bandwidth `h = max(b, sqrt(VARIANCE_FLOOR))` and
/// `ln h`, exactly as [`gaussian_log_term`] derives them per call, plus the
/// terms of the cluster-feature lanes ([`cf_log_terms`]): `1 / h^2`,
/// `-1 / (2 h^2)`, the log-kernel at distance zero and the rounding scale
/// of its sum.
///
/// The bandwidth changes only when a tree refits or overrides it, so the
/// trees keep one of these beside their bandwidth and the fused scoring
/// passes ([`node_scores_block`], [`leaf_scores_block`],
/// [`cluster_scores_block`]) read `h` and
/// `ln h` instead of recomputing a logarithm per dimension per node.  The
/// cached values are the same IEEE results the per-call derivation gives,
/// so substituting them changes no bit.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelBandwidth {
    values: Vec<f64>,
    floored: Vec<f64>,
    ln_floored: Vec<f64>,
    inv_sq: Vec<f64>,
    neg_half_inv_sq: Vec<f64>,
    log_peak: f64,
    log_scale: f64,
}

/// The bandwidth of no dimension: what the estimate pass, which reads no
/// bandwidth term, hands the shared pass body.
static NO_BANDWIDTH: KernelBandwidth = KernelBandwidth {
    values: Vec::new(),
    floored: Vec::new(),
    ln_floored: Vec::new(),
    inv_sq: Vec::new(),
    neg_half_inv_sq: Vec::new(),
    log_peak: 0.0,
    log_scale: 0.0,
};

impl KernelBandwidth {
    /// Derives the floored bandwidth and its per-dimension terms from
    /// `values`.
    #[must_use]
    pub fn new(values: Vec<f64>) -> Self {
        let floored: Vec<f64> = values
            .iter()
            .map(|b| b.max(VARIANCE_FLOOR.sqrt()))
            .collect();
        let ln_floored: Vec<f64> = floored.iter().map(|h| h.ln()).collect();
        let inv_sq: Vec<f64> = floored.iter().map(|h| 1.0 / (h * h)).collect();
        let neg_half_inv_sq = inv_sq.iter().map(|i| -0.5 * i).collect();
        let log_peak = ln_floored.iter().map(|ln_h| -0.5 * LN_2PI - ln_h).sum();
        let log_scale = ln_floored.iter().map(|ln_h| 1.0 + ln_h.abs()).sum();
        Self {
            values,
            floored,
            ln_floored,
            inv_sq,
            neg_half_inv_sq,
            log_peak,
            log_scale,
        }
    }

    /// The bandwidth as given (unfloored).
    #[must_use]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// The floored per-dimension bandwidth `h`.
    #[must_use]
    pub fn floored(&self) -> &[f64] {
        &self.floored
    }

    /// `ln h` of the floored bandwidth.
    #[must_use]
    pub fn ln_floored(&self) -> &[f64] {
        &self.ln_floored
    }

    /// `1 / h^2` of the floored bandwidth.
    #[must_use]
    pub fn inv_sq(&self) -> &[f64] {
        &self.inv_sq
    }

    /// `-1 / (2 h^2)` of the floored bandwidth.
    #[must_use]
    pub fn neg_half_inv_sq(&self) -> &[f64] {
        &self.neg_half_inv_sq
    }

    /// The product log-kernel at distance zero, `sum_d (-ln(2 pi) / 2 -
    /// ln h_d)`: where the Jensen lane starts.
    #[must_use]
    pub fn log_peak(&self) -> f64 {
        self.log_peak
    }

    /// `sum_d (1 + |ln h_d|)`: bounds the magnitude of the constant terms
    /// a log-kernel sum adds, so their rounding enters the CF margin
    /// ([`cf_margin`]); where the magnitude lane starts.
    #[must_use]
    pub fn log_scale(&self) -> f64 {
        self.log_scale
    }

    /// Number of dimensions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the bandwidth has no dimensions.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

/// Log of the Gaussian product kernel evaluated at the point of the box
/// `[lower, upper]` nearest to `query` — the shared *upper-bound* formula
/// of the anytime query models: every point inside the box (and every
/// subtree mean, by convexity) is at least the nearest-point distance away
/// per dimension, and the product kernel decreases with distance, so
/// `weight * exp(nearest_point_log_kernel(..))` bounds the box's refined
/// contribution from above.  Kept here, next to [`gaussian_log_term`], so
/// the Bayes-tree MBR bounds and the micro-cluster MBR bounds can never
/// drift apart.
#[must_use]
pub fn nearest_point_log_kernel<E: ColumnElement>(
    query: &[f64],
    lower: &[E],
    upper: &[E],
    bandwidth: &[f64],
) -> f64 {
    debug_assert_eq!(query.len(), lower.len());
    debug_assert_eq!(query.len(), upper.len());
    debug_assert_eq!(query.len(), bandwidth.len());
    let mut acc = 0.0;
    for d in 0..query.len() {
        let (lo, hi) = (lower[d].widen(), upper[d].widen());
        let dist = if query[d] < lo {
            lo - query[d]
        } else if query[d] > hi {
            query[d] - hi
        } else {
            0.0
        };
        acc += gaussian_log_term(dist, bandwidth[d]);
    }
    acc
}

/// Log of the Gaussian product kernel evaluated at the point of the box
/// `[lower, upper]` *farthest* from `query` — the shared *lower-bound*
/// formula: every point inside the box is at most the farthest-corner
/// distance away per dimension, so `weight * exp(farthest_point_log_kernel)`
/// bounds the box's refined contribution from below.
#[must_use]
pub fn farthest_point_log_kernel<E: ColumnElement>(
    query: &[f64],
    lower: &[E],
    upper: &[E],
    bandwidth: &[f64],
) -> f64 {
    debug_assert_eq!(query.len(), lower.len());
    debug_assert_eq!(query.len(), upper.len());
    debug_assert_eq!(query.len(), bandwidth.len());
    let mut acc = 0.0;
    for d in 0..query.len() {
        let (lo, hi) = (lower[d].widen(), upper[d].widen());
        let dist = (query[d] - lo).abs().max((query[d] - hi).abs());
        acc += gaussian_log_term(dist, bandwidth[d]);
    }
    acc
}

/// Smoothing-aware farthest-point log-kernel: the ClusTree lower bound for a
/// box of *micro-clusters* rather than raw points.
///
/// The ClusTree density term for a micro-cluster at mean `m` with
/// per-dimension variance `v` is `gaussian_log_term(sqrt((q-m)^2 + v), h)`
/// (Jensen smoothing).  For every cluster whose mean lies in `[lower,
/// upper]` *and whose summarised points all lie in the box too*,
/// `(q_d - m_d)^2 <= far_d^2` with `far_d` the farthest-corner distance, and
/// the variance of a variable confined to an interval of width `w` is at
/// most `(w/2)^2` (attained by the two-endpoint distribution), so
/// `v_d <= half_d^2` with `half_d = (upper_d - lower_d) / 2`.  The kernel
/// decreases in its distance argument, hence
/// `gaussian_log_term(sqrt(far_d^2 + half_d^2), h_d)` summed over dimensions
/// bounds every such cluster's smoothed term from below.  Because a child
/// box is contained in its parent's, the bound is nested and the anytime
/// lower bound stays monotone under refinement.
#[must_use]
pub fn smoothed_farthest_log_kernel<E: ColumnElement>(
    query: &[f64],
    lower: &[E],
    upper: &[E],
    bandwidth: &[f64],
) -> f64 {
    debug_assert_eq!(query.len(), lower.len());
    debug_assert_eq!(query.len(), upper.len());
    debug_assert_eq!(query.len(), bandwidth.len());
    let mut acc = 0.0;
    for d in 0..query.len() {
        let (lo, hi) = (lower[d].widen(), upper[d].widen());
        let far = (query[d] - lo).abs().max((query[d] - hi).abs());
        let half = 0.5 * (hi - lo);
        let t = far * far + half * half;
        acc += gaussian_log_term(t.sqrt(), bandwidth[d]);
    }
    acc
}

// ---------------------------------------------------------------------------
// Block kernels: evaluate all entries of one node in a single pass.
//
// Each function below is the structure-of-arrays counterpart of scalar
// formulas above (or in `gaussian` / `cluster_feature`): columns are
// dimension-major `f64` (`dim * len + entry`, see [`crate::block`]) and the
// accumulation order per entry is identical to the scalar reference (terms
// added dimension-ascending, all arithmetic in `f64`), so the results equal
// the scalar ones bit for bit (see the property tests in
// `crates/stats/tests/block_kernels.rs`).  Each also dispatches to an
// explicit-SIMD variant in [`crate::simd`] (runtime AVX2 check, `simd` cargo
// feature): the same IEEE expressions evaluated four entries per lane, with
// the loops below retained as the scalar reference and fallback.
// ---------------------------------------------------------------------------

#[inline]
fn prep_out(out: &mut Vec<f64>, len: usize) -> &mut [f64] {
    zero_fill(out, len);
    &mut out[..]
}

/// Squared Euclidean distances from `query` to each of `len` entry means —
/// the block counterpart of `ClusterFeature::sq_dist_mean_to` (routing
/// measure of the anytime descent).
///
/// `means` holds dimension-major mean columns; `out` is cleared and refilled
/// with one squared distance per entry.
pub fn sq_dists_block(query: &[f64], means: &[f64], len: usize, out: &mut Vec<f64>) {
    let out = prep_out(out, len);
    debug_assert_eq!(means.len(), query.len() * len);
    if crate::simd::sq_dists(query, means, len, out) {
        return;
    }
    for (d, &q) in query.iter().enumerate() {
        let col = &means[d * len..(d + 1) * len];
        for (o, &m) in out.iter_mut().zip(col) {
            let diff = m - q;
            *o += diff * diff;
        }
    }
}

// ---------------------------------------------------------------------------
// Fused passes: everything one node read needs, in one walk over the block.
//
// Every node read is one of these passes, or `sq_dists_block` for reads
// that need only distances.  Scoring a Bayes-tree directory node wants six
// per-entry quantities: the diagonal Gaussian log-pdf, the farthest- and
// nearest-corner log-kernels, the box minimum squared distance, and two
// cluster-feature lanes — the Jensen log-kernel at the entry's exact mean
// scaled squared distance and the magnitude that bounds its rounding (see
// [`certified_bounds`]).  Scoring a leaf wants two (the product log-kernel
// and the squared distance); a ClusTree node wants the Jensen-smoothed
// kernel, its two box bounds and the centre distance.  Each pass reads
// every column once, takes its bandwidth terms from a [`KernelBandwidth`],
// and fills every output lane — each lane with the exact expression and
// dimension-ascending accumulation order of its scalar formula, so the
// outputs equal the formulas' bit for bit.  A caller that reads no bound
// (the classifier's point estimates, ClusTree leaves) runs its pass
// without the bound lanes (`BOUNDS == false`).
// ---------------------------------------------------------------------------

/// The columns one fused node pass reads: `len` entries, dimension-major.
/// `var` holds each entry's variance as gathered, which may be below
/// [`VARIANCE_FLOOR`] or NaN (see [`SummaryBlock::var`]).
pub(crate) struct NodeColumns<'a> {
    pub(crate) len: usize,
    pub(crate) mean: &'a [f64],
    pub(crate) var: &'a [f64],
    pub(crate) log_var: &'a [f64],
    pub(crate) lower: &'a [f64],
    pub(crate) upper: &'a [f64],
}

/// The per-entry output lanes of one fused node pass.  An estimate-only
/// pass (`BOUNDS == false`) leaves `farthest`, `nearest`, `jensen` and
/// `magnitude` empty.
pub(crate) struct NodeLanes<'a> {
    pub(crate) log_pdf: &'a mut [f64],
    pub(crate) farthest: &'a mut [f64],
    pub(crate) nearest: &'a mut [f64],
    pub(crate) min_sq: &'a mut [f64],
    pub(crate) jensen: &'a mut [f64],
    pub(crate) magnitude: &'a mut [f64],
}

/// Scores every entry of a gathered directory node in one pass: fills
/// `lanes` with `[log_pdf, farthest, nearest, min_dist_sq, jensen,
/// magnitude]` — per entry `DiagGaussian::log_pdf` (with the block's
/// log-variance column in place of the inline `ln`),
/// [`farthest_point_log_kernel`], [`nearest_point_log_kernel`],
/// `Mbr::min_dist_sq` and the two [`cf_log_terms`] of the entry's mean and
/// variance columns, bit for bit.
///
/// # Panics
///
/// Panics if the block lacks its box columns or its log-variance column
/// ([`SummaryBlock::enable_boxes`], [`SummaryBlock::fill_log_vars`]), or if
/// the bandwidth's dimensionality differs from the query's.
pub fn node_scores_block(
    query: &[f64],
    bandwidth: &KernelBandwidth,
    block: &SummaryBlock,
    lanes: &mut ScoreLanes,
) {
    assert_eq!(bandwidth.len(), query.len(), "bandwidth dimensionality");
    let len = block.len();
    let [log_pdf, farthest, nearest, min_sq, jensen, magnitude] = lanes;
    let out = NodeLanes {
        log_pdf: prep_out(log_pdf, len),
        farthest: prep_out(farthest, len),
        nearest: prep_out(nearest, len),
        min_sq: prep_out(min_sq, len),
        jensen: prep_out(jensen, len),
        magnitude: prep_out(magnitude, len),
    };
    node_pass::<true>(query, bandwidth, block, out);
}

/// The estimate half of [`node_scores_block`]: fills `log_pdfs` and
/// `min_sq_dists` with exactly the `log_pdf` and `min_dist_sq` lanes that
/// pass computes, bit for bit, and skips the four bound lanes — for
/// callers that read only the point estimate and the geometric priority.
///
/// Those two lanes read the mean, variance, log-variance and box columns
/// and never a bandwidth, so the pass takes none: one call may score a
/// block whose lanes come from trees with different bandwidths.  Each lane
/// depends only on its own columns, so a lane's value does not depend on
/// the block it sits in.
///
/// # Panics
///
/// Panics if the block lacks its box columns or its log-variance column
/// ([`SummaryBlock::enable_boxes`], [`SummaryBlock::fill_log_vars`]).
pub fn node_estimates_block(
    query: &[f64],
    block: &SummaryBlock,
    log_pdfs: &mut Vec<f64>,
    min_sq_dists: &mut Vec<f64>,
) {
    let len = block.len();
    let out = NodeLanes {
        log_pdf: prep_out(log_pdfs, len),
        farthest: &mut [],
        nearest: &mut [],
        min_sq: prep_out(min_sq_dists, len),
        jensen: &mut [],
        magnitude: &mut [],
    };
    node_pass::<false>(query, &NO_BANDWIDTH, block, out);
}

/// The one body of both fused node passes; `BOUNDS` adds the farthest- and
/// nearest-corner log-kernels and the two cluster-feature lanes, the only
/// terms that read the bandwidth (the empty one without `BOUNDS`).
fn node_pass<const BOUNDS: bool>(
    query: &[f64],
    bandwidth: &KernelBandwidth,
    block: &SummaryBlock,
    mut out: NodeLanes<'_>,
) {
    assert!(block.has_boxes(), "node scoring needs the box columns");
    let log_var = block
        .log_vars()
        .expect("node scoring needs the log-variance column");
    let cols = NodeColumns {
        len: block.len(),
        mean: block.mean(),
        var: block.var(),
        log_var,
        lower: block.lower(),
        upper: block.upper(),
    };
    debug_assert_eq!(cols.mean.len(), query.len() * cols.len);
    debug_assert_eq!(cols.var.len(), query.len() * cols.len);
    debug_assert_eq!(cols.log_var.len(), query.len() * cols.len);
    debug_assert_eq!(cols.lower.len(), query.len() * cols.len);
    debug_assert_eq!(cols.upper.len(), query.len() * cols.len);
    if crate::simd::node_scores::<BOUNDS>(query, bandwidth, &cols, &mut out) {
        return;
    }
    if BOUNDS {
        out.jensen.fill(bandwidth.log_peak());
        out.magnitude.fill(bandwidth.log_scale());
    }
    for (d, &q) in query.iter().enumerate() {
        for i in 0..cols.len {
            let idx = d * cols.len + i;
            let (mean, var) = (cols.mean[idx], cols.var[idx]);
            let diff = q - mean;
            let dd = diff * diff;
            out.log_pdf[i] += -0.5 * (LN_2PI + cols.log_var[idx] + dd / var.max(VARIANCE_FLOOR));
            let (lo, hi) = (cols.lower[idx], cols.upper[idx]);
            let near = if q < lo {
                lo - q
            } else if q > hi {
                q - hi
            } else {
                0.0
            };
            if BOUNDS {
                let (h, ln_h) = (bandwidth.floored()[d], bandwidth.ln_floored()[d]);
                let far = (q - lo).abs().max((q - hi).abs());
                let u = far / h;
                out.farthest[i] += -0.5 * (LN_2PI + u * u) - ln_h;
                let u = near / h;
                out.nearest[i] += -0.5 * (LN_2PI + u * u) - ln_h;
                let t = dd + var;
                out.jensen[i] += t * bandwidth.neg_half_inv_sq()[d];
                out.magnitude[i] += (mean * mean + var + t) * bandwidth.inv_sq()[d];
            }
            out.min_sq[i] += near * near;
        }
    }
}

/// The two cluster-feature log terms of one entry, `(jensen, magnitude)`,
/// from its per-dimension `(mean, variance)` — the scalar reference of the
/// fused node pass's last two lanes, same expressions, same order:
///
/// * `jensen = log_peak - sum_d ((q_d - m_d)^2 + v_d) / (2 h_d^2)`, the
///   product log-kernel at the entry's mean scaled squared distance `ā`
///   (exact for the entry's points when `v` is their variance);
/// * `magnitude = log_scale + sum_d (m_d^2 + 2 v_d + (q_d - m_d)^2) / h_d^2`,
///   the scale every rounding error of `jensen` is proportional to (see
///   [`cf_margin`]).
///
/// `v` is the unfloored variance `SS/n - m^2`: it may round below zero,
/// which the margin covers, and a NaN (a non-finite variance) makes both
/// terms NaN, which [`certified_bounds`] reads as "no CF bound".
#[must_use]
pub fn cf_log_terms(
    query: &[f64],
    moments: impl IntoIterator<Item = (f64, f64)>,
    bandwidth: &KernelBandwidth,
) -> (f64, f64) {
    let (mut jensen, mut magnitude) = (bandwidth.log_peak(), bandwidth.log_scale());
    for (d, (&q, (mean, var))) in query.iter().zip(moments).enumerate() {
        let diff = q - mean;
        let t = diff * diff + var;
        jensen += t * bandwidth.neg_half_inv_sq()[d];
        magnitude += (mean * mean + var + t) * bandwidth.inv_sq()[d];
    }
    (jensen, magnitude)
}

/// Eight units of `f64` roundoff, `2^-50`: the per-operation rate of the
/// CF margin, four times the first-order error analysis in
/// [`cf_margin`].
const CF_ROUNDING: f64 = 1.0 / (1u64 << 50) as f64;

/// The log-space margin that makes the CF bounds of an entry over `count`
/// points sound in `f64`: `(count + dims + 8) * magnitude * 2^-50`, with
/// `magnitude` the [`cf_log_terms`] lane.
///
/// `jensen` is computed from sums, and three sources of rounding move it
/// off the exact log-kernel at `ā`: the stored `LS` and `SS` are floating
/// sums of the entry's `count` points (at most `count` roundings each,
/// relative to `sum |x|` and `sum x^2`); the gather's `SS/n - m^2` cancels
/// when the spread is far below the mean, so its error is absolute in
/// `m^2 + v`, not relative to `v`; and the pass (and the leaf kernels the
/// exact density is summed from) accumulate `dims` terms onto constants of
/// size `log_scale`.  To first order the error of `jensen` is at most
/// `2 (count + dims + 4) u * magnitude` with `u = 2^-53`; the margin is
/// four times that.  It is absolute in `m^2 + v`, so an offset of `1e4`
/// with a spread of `1e-4` widens the bound instead of breaking it.
#[must_use]
pub fn cf_margin(count: f64, dims: usize, magnitude: f64) -> f64 {
    (count + dims as f64 + 8.0) * magnitude * CF_ROUNDING
}

/// The certified `(lower, upper)` bounds on an entry's refined density
/// contribution, scaled by `scale`, from its four log terms: the box's
/// `far` and `near` log-kernels, the CF `jensen` log-kernel and its
/// rounding `margin` ([`cf_margin`]).
///
/// Write `a_j` for the scaled squared distance of point `j`, `ā` for their
/// mean, and `a_min <= a_j <= a_max` for the box's nearest and farthest
/// values, so `near = log_peak - a_min`, `far = log_peak - a_max` and
/// `jensen = log_peak - ā`.  The contribution is `C * mean_j exp(-a_j)`:
///
/// * **lower** `exp(max(jensen - margin, far))`: `exp(-a)` is convex, so
///   the mean is at least `exp(-ā)` (Jensen), and every `a_j <= a_max`;
/// * **upper** `min(p e^near + (1 - p) e^far, e^near)` with
///   `p = (jensen + margin - far) / (near - far)` clamped to `[0, 1]`: on
///   `[a_min, a_max]` a convex function lies below its chord, and the
///   chord is linear, so the mean is at most the chord at `ā`
///   (Edmundson–Madansky); every `a_j >= a_min`.
///
/// Both nest under refinement: a child's box lies in its parent's, and
/// the parent's `ā` is the weighted mean of its children's (the law of
/// total variance), so children's Jensen terms sum to at least the
/// parent's and their chords to at most the parent's.  A NaN `jensen` or
/// `margin` (no usable CF) gives the box bounds `(e^far, e^near)`.  The
/// upper bound is never below the lower one.
#[must_use]
pub fn certified_bounds(scale: f64, far: f64, near: f64, jensen: f64, margin: f64) -> (f64, f64) {
    let (e_far, e_near) = (far.exp(), near.exp());
    let low = jensen - margin;
    // `exp(max(low, far))`, with the `exp` of `far` shared.
    let lower = if low > far { low.exp() } else { e_far };
    let p = ((jensen + margin - far) / (near - far)).clamp(0.0, 1.0);
    let upper = (e_far + p * (e_near - e_far)).min(e_near).max(lower);
    (scale * lower, scale * upper)
}

/// Scores every item of a gathered leaf in one pass: `log_kernels` gets the
/// product log-kernel at each of the `len` mean columns and `sq_dists` the
/// squared distance to it — per item [`GaussianKernel::log_density`] and
/// the result of [`sq_dists_block`], bit for bit.
///
/// # Panics
///
/// Panics if the bandwidth's dimensionality differs from the query's.
pub fn leaf_scores_block(
    query: &[f64],
    bandwidth: &KernelBandwidth,
    means: &[f64],
    len: usize,
    log_kernels: &mut Vec<f64>,
    sq_dists: &mut Vec<f64>,
) {
    assert_eq!(bandwidth.len(), query.len(), "bandwidth dimensionality");
    let log_kernels = prep_out(log_kernels, len);
    let sq_dists = prep_out(sq_dists, len);
    debug_assert_eq!(means.len(), query.len() * len);
    let (h, ln_h) = (bandwidth.floored(), bandwidth.ln_floored());
    if crate::simd::leaf_scores(query, h, ln_h, means, len, log_kernels, sq_dists) {
        return;
    }
    for (d, &q) in query.iter().enumerate() {
        let (h, ln_h) = (h[d], ln_h[d]);
        let col = &means[d * len..(d + 1) * len];
        for i in 0..len {
            let m = col[i];
            let u = (q - m) / h;
            log_kernels[i] += -0.5 * (LN_2PI + u * u) - ln_h;
            let diff = m - q;
            sq_dists[i] += diff * diff;
        }
    }
}

/// The columns one fused micro-cluster pass reads: `len` entries,
/// dimension-major.  `lower` and `upper` are empty without `BOUNDS`.
pub(crate) struct ClusterColumns<'a> {
    pub(crate) len: usize,
    pub(crate) mean: &'a [f64],
    pub(crate) var: &'a [f64],
    pub(crate) lower: &'a [f64],
    pub(crate) upper: &'a [f64],
    pub(crate) center: &'a [f64],
}

/// The per-entry output lanes of one fused micro-cluster pass.  A pass
/// without `BOUNDS` leaves `farthest` and `nearest` empty.
pub(crate) struct ClusterLanes<'a> {
    pub(crate) jensen: &'a mut [f64],
    pub(crate) farthest: &'a mut [f64],
    pub(crate) nearest: &'a mut [f64],
    pub(crate) center_sq: &'a mut [f64],
}

/// Scores every micro-cluster of a gathered ClusTree node in one pass.
///
/// With `BOUNDS` (directory nodes) it fills `lanes` with `[jensen,
/// smoothed_farthest, nearest, centre_sq_dist]` — per entry the Jensen
/// kernel `sum_d gaussian_log_term(sqrt((q_d - m_d)^2 + v_d), h_d)` over the
/// block's mean and variance columns, [`smoothed_farthest_log_kernel`] and
/// [`nearest_point_log_kernel`] of its box, and the squared distance to its
/// routing centre (`gathered.centers`, as [`sq_dists_block`]), bit for bit.
/// Without `BOUNDS` (leaves, whose bounds collapse onto the estimate) it
/// fills only `jensen` and `centre_sq_dist`, leaves the two box lanes empty
/// and reads no box column.
///
/// # Panics
///
/// Panics if the bandwidth's dimensionality differs from the query's, or if
/// `BOUNDS` is set and the block lacks its box columns.
pub fn cluster_scores_block<const BOUNDS: bool>(
    query: &[f64],
    bandwidth: &KernelBandwidth,
    gathered: &GatheredBlock,
    lanes: &mut [Vec<f64>; 4],
) {
    assert_eq!(bandwidth.len(), query.len(), "bandwidth dimensionality");
    let block = &gathered.block;
    assert!(
        !BOUNDS || block.has_boxes(),
        "cluster scoring needs the box columns"
    );
    let cols = ClusterColumns {
        len: block.len(),
        mean: block.mean(),
        var: block.var(),
        lower: if BOUNDS { block.lower() } else { &[] },
        upper: if BOUNDS { block.upper() } else { &[] },
        center: &gathered.centers,
    };
    debug_assert_eq!(cols.mean.len(), query.len() * cols.len);
    debug_assert_eq!(cols.var.len(), query.len() * cols.len);
    debug_assert_eq!(cols.center.len(), query.len() * cols.len);
    let bounds_len = if BOUNDS { cols.len } else { 0 };
    let [jensen, farthest, nearest, center_sq] = lanes;
    let mut out = ClusterLanes {
        jensen: prep_out(jensen, cols.len),
        farthest: prep_out(farthest, bounds_len),
        nearest: prep_out(nearest, bounds_len),
        center_sq: prep_out(center_sq, cols.len),
    };
    let (h, ln_h) = (bandwidth.floored(), bandwidth.ln_floored());
    if crate::simd::cluster_scores::<BOUNDS>(query, h, ln_h, &cols, &mut out) {
        return;
    }
    for (d, &q) in query.iter().enumerate() {
        let (h, ln_h) = (h[d], ln_h[d]);
        for i in 0..cols.len {
            let idx = d * cols.len + i;
            let diff = q - cols.mean[idx];
            let t = diff * diff + cols.var[idx];
            let u = t.sqrt() / h;
            out.jensen[i] += -0.5 * (LN_2PI + u * u) - ln_h;
            if BOUNDS {
                let (lo, hi) = (cols.lower[idx], cols.upper[idx]);
                let far = (q - lo).abs().max((q - hi).abs());
                let half = 0.5 * (hi - lo);
                let t = far * far + half * half;
                let u = t.sqrt() / h;
                out.farthest[i] += -0.5 * (LN_2PI + u * u) - ln_h;
                let near = if q < lo {
                    lo - q
                } else if q > hi {
                    q - hi
                } else {
                    0.0
                };
                let u = near / h;
                out.nearest[i] += -0.5 * (LN_2PI + u * u) - ln_h;
            }
            let diff = cols.center[idx] - q;
            out.center_sq[i] += diff * diff;
        }
    }
}

impl Kernel for GaussianKernel {
    fn log_density(&self, center: &[f64], x: &[f64], bandwidth: &[f64]) -> f64 {
        debug_assert_eq!(center.len(), x.len());
        debug_assert_eq!(center.len(), bandwidth.len());
        let mut acc = 0.0;
        for d in 0..x.len() {
            acc += gaussian_log_term(x[d] - center[d], bandwidth[d]);
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gaussian_kernel_peaks_at_center() {
        let k = GaussianKernel;
        let c = [1.0, 2.0];
        let h = [0.5, 0.5];
        let at_center = k.density(&c, &c, &h);
        let off_center = k.density(&c, &[1.4, 2.4], &h);
        assert!(at_center > off_center);
    }

    #[test]
    fn gaussian_kernel_matches_univariate_normal() {
        let k = GaussianKernel;
        // Bandwidth h acts as standard deviation of a normal centred at c.
        let d = k.density(&[0.0], &[0.0], &[2.0]);
        let expected = 1.0 / (2.0 * std::f64::consts::PI).sqrt() / 2.0;
        assert!((d - expected).abs() < 1e-12);
    }

    /// The four log terms of the entry over `points` (1-d), and its exact
    /// mean kernel.
    fn one_dim_entry(points: &[f64], q: f64, h: f64) -> ([f64; 4], f64) {
        let bandwidth = KernelBandwidth::new(vec![h]);
        let (lo, hi) = points
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| {
                (lo.min(x), hi.max(x))
            });
        let far = farthest_point_log_kernel(&[q], &[lo], &[hi], &[h]);
        let near = nearest_point_log_kernel(&[q], &[lo], &[hi], &[h]);
        let n = points.len() as f64;
        let (ls, ss) = points
            .iter()
            .fold((0.0, 0.0), |(ls, ss), x| (ls + x, ss + x * x));
        let moments = crate::cluster_feature::raw_moments(ls, ss, n);
        let (jensen, magnitude) = cf_log_terms(&[q], [moments], &bandwidth);
        let margin = cf_margin(n, 1, magnitude);
        let exact = points
            .iter()
            .map(|&x| GaussianKernel.density(&[x], &[q], &[h]))
            .sum::<f64>()
            / n;
        ([far, near, jensen, margin], exact)
    }

    #[test]
    fn certified_bounds_enclose_and_tighten_the_box() {
        for (points, q, h) in [
            (vec![0.0, 1.0, 1.5, 3.0], 4.0, 1.0),
            (vec![0.0, 1.0, 1.5, 3.0], 1.2, 0.5),
            (vec![-2.0, -2.0, 5.0], 0.0, 2.0),
            (vec![10.0, 10.5], -1.0, 3.0),
        ] {
            let ([far, near, jensen, margin], exact) = one_dim_entry(&points, q, h);
            let (lower, upper) = certified_bounds(1.0, far, near, jensen, margin);
            assert!(
                lower <= exact && exact <= upper,
                "{points:?} at {q}: [{lower}, {upper}] misses {exact}"
            );
            assert!(lower >= far.exp() && upper <= near.exp());
            assert!(
                lower > far.exp() || upper < near.exp(),
                "{points:?} at {q}: no tighter than the box"
            );
        }
    }

    #[test]
    fn the_chord_bound_is_exact_at_the_box_ends() {
        // Two points at the ends of their box, the query beyond one end:
        // the points attain `a_min` and `a_max`, so the mean kernel lies on
        // the chord and the upper bound meets it up to the margin.
        let ([far, near, jensen, margin], exact) = one_dim_entry(&[0.0, 1.0, 1.0], 1.5, 0.8);
        let (_, upper) = certified_bounds(1.0, far, near, jensen, margin);
        assert!(
            upper >= exact && upper <= exact * (1.0 + 1e-12),
            "{upper} vs {exact}"
        );
    }

    #[test]
    fn certified_bounds_without_a_usable_cf_are_the_box_bounds() {
        let (far, near) = (-3.0_f64, -1.0_f64);
        let (lower, upper) = certified_bounds(0.5, far, near, f64::NAN, f64::NAN);
        assert_eq!(lower.to_bits(), (0.5 * far.exp()).to_bits());
        assert_eq!(upper.to_bits(), (0.5 * near.exp()).to_bits());
        // A point box (near == far) leaves both sides on the box too.
        let (lower, upper) = certified_bounds(1.0, far, far, far, 0.0);
        assert_eq!(
            (lower.to_bits(), upper.to_bits()),
            (far.exp().to_bits(), far.exp().to_bits())
        );
        // An infinitely distant query bounds to zero.
        let (lower, upper) = certified_bounds(
            1.0,
            f64::NEG_INFINITY,
            f64::NEG_INFINITY,
            f64::NEG_INFINITY,
            f64::INFINITY,
        );
        assert_eq!((lower, upper), (0.0, 0.0));
    }

    #[test]
    fn gaussian_log_density_consistent_with_density() {
        let k = GaussianKernel;
        let ld = k.log_density(&[0.3, 0.7], &[0.1, 0.9], &[0.2, 0.3]);
        let d = k.density(&[0.3, 0.7], &[0.1, 0.9], &[0.2, 0.3]);
        assert!((ld.exp() - d).abs() < 1e-12);
    }
}
