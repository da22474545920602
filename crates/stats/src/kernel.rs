//! Kernel density estimators.
//!
//! The Bayes tree stores the raw training observations in its leaves and
//! treats each of them as a *kernel*: a small density bump centred at the
//! observation.  The paper uses Gaussian kernels with a Silverman bandwidth
//! (Section 2.1); the [`Kernel`] trait and its one implementation,
//! [`GaussianKernel`], are that kernel, and the scalar formulas and fused
//! block passes below evaluate it (and its box and cluster-feature bounds)
//! over tree nodes.
//!
//! Every Gaussian product log-kernel here has one shape: it starts at the
//! log-kernel's peak and adds one product per dimension,
//!
//! ```text
//! log_peak + sum_d s_d * c_d,    c_d = -1 / (2 h_d^2)
//! ```
//!
//! with `s_d` the squared distance the formula evaluates it at: `(q - x)^2`
//! for a leaf kernel, the squared farthest-corner or nearest-point distance
//! of a box, `(q - m)^2 + v` for a cluster feature's Jensen term and
//! `far^2 + half^2` for the smoothed farthest corner.  [`KernelBandwidth`]
//! caches `log_peak` and every `c_d`, so no lane divides, takes a root or a
//! logarithm.  The shared shape is also what keeps the box bounds sound in
//! floating point: the box lanes and the leaf kernels they bracket run the
//! same monotone operations in the same order from the same start.

use crate::block::{zero_fill, GatheredBlock, ScoreLanes, SummaryBlock};
use crate::{LN_2PI, VARIANCE_FLOOR};

/// A product kernel over `d` dimensions with a per-dimension bandwidth.
pub trait Kernel {
    /// Log density contribution of a kernel centred at `center` evaluated at
    /// `x`, with per-dimension bandwidth `bandwidth`.
    fn log_density(&self, center: &[f64], x: &[f64], bandwidth: &KernelBandwidth) -> f64;

    /// Density contribution (non-log).
    fn density(&self, center: &[f64], x: &[f64], bandwidth: &KernelBandwidth) -> f64 {
        self.log_density(center, x, bandwidth).exp()
    }
}

/// Gaussian product kernel `K(u) = (2 pi)^(-d/2) exp(-||u||^2 / 2)` with
/// per-dimension scaling `u_j = (x_j - c_j) / h_j`.
#[derive(Debug, Clone, Copy, Default)]
pub struct GaussianKernel;

/// A per-dimension kernel bandwidth together with the query-independent
/// terms of the product log-kernel (see the [module docs](self)): for the
/// floored bandwidth `h = max(b, sqrt(VARIANCE_FLOOR))`, the factors
/// `1 / h^2` and `c = -1 / (2 h^2)`, the log-kernel at distance zero
/// (`log_peak`) and the rounding scale of its sum (`log_scale`).
///
/// The bandwidth changes only when a tree refits or overrides it, so the
/// trees keep one of these beside their bandwidth, and every kernel lane,
/// scalar or fused ([`node_scores_block`], [`leaf_scores_block`],
/// [`cluster_scores_block`]), reads its terms from here.  `1 / h^2` is
/// taken as `(1 / h) / h`: it stays positive past `h = 1e160`, long after
/// `h * h` overflows (from about `1.3e154`), and a zero factor would turn
/// an infinite query coordinate's `inf * 0` into NaN.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelBandwidth {
    values: Vec<f64>,
    inv_sq: Vec<f64>,
    neg_half_inv_sq: Vec<f64>,
    log_peak: f64,
    log_scale: f64,
}

/// The bandwidth of no dimension: what the estimate pass, which reads no
/// bandwidth term, hands the shared pass body.
static NO_BANDWIDTH: KernelBandwidth = KernelBandwidth {
    values: Vec::new(),
    inv_sq: Vec::new(),
    neg_half_inv_sq: Vec::new(),
    log_peak: 0.0,
    log_scale: 0.0,
};

impl KernelBandwidth {
    /// Derives the floored bandwidth's per-dimension terms from `values`.
    #[must_use]
    pub fn new(values: Vec<f64>) -> Self {
        let floored = || values.iter().map(|b| b.max(VARIANCE_FLOOR.sqrt()));
        let inv_sq: Vec<f64> = floored().map(|h| 1.0 / h / h).collect();
        let neg_half_inv_sq = inv_sq.iter().map(|i| -0.5 * i).collect();
        let log_peak = floored().map(|h| -0.5 * LN_2PI - h.ln()).sum();
        let log_scale = floored().map(|h| 1.0 + h.ln().abs()).sum();
        Self {
            values,
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

    /// `1 / h^2` of the floored bandwidth.
    #[must_use]
    pub fn inv_sq(&self) -> &[f64] {
        &self.inv_sq
    }

    /// `c = -1 / (2 h^2)` of the floored bandwidth: each dimension's
    /// factor on its squared distance.
    #[must_use]
    pub fn neg_half_inv_sq(&self) -> &[f64] {
        &self.neg_half_inv_sq
    }

    /// The product log-kernel at distance zero, `sum_d (-ln(2 pi) / 2 -
    /// ln h_d)`: where every kernel lane starts.
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

/// The product log-kernel at per-dimension squared distances `sq`: the one
/// term of the [module docs](self), `log_peak + sum_d s_d * c_d`, summed
/// dimension-ascending.  Every scalar formula below evaluates it, and each
/// fused pass evaluates the same expression per lane.
#[inline]
#[must_use]
pub fn log_kernel_at(bandwidth: &KernelBandwidth, sq: impl Iterator<Item = f64>) -> f64 {
    sq.zip(bandwidth.neg_half_inv_sq())
        .fold(bandwidth.log_peak(), |acc, (s, &c)| s * c + acc)
}

/// Log of the Gaussian product kernel evaluated at the point of the box
/// `[lower, upper]` nearest to `query` — the shared *upper-bound* formula
/// of the anytime query models: every point inside the box (and every
/// subtree mean, by convexity) is at least the nearest-point distance away
/// per dimension, and the product kernel decreases with distance, so
/// `weight * exp(nearest_point_log_kernel(..))` bounds the box's refined
/// contribution from above.  Shared by the Bayes-tree and the
/// micro-cluster MBR bounds.
#[must_use]
pub fn nearest_point_log_kernel(
    query: &[f64],
    lower: &[f64],
    upper: &[f64],
    bandwidth: &KernelBandwidth,
) -> f64 {
    debug_assert_eq!(query.len(), lower.len());
    debug_assert_eq!(query.len(), upper.len());
    debug_assert_eq!(query.len(), bandwidth.len());
    log_kernel_at(
        bandwidth,
        (0..query.len()).map(|d| {
            let near = nearest_dist(query[d], lower[d], upper[d]);
            near * near
        }),
    )
}

/// The distance from `q` to the interval `[lo, hi]`: the box's
/// nearest-point offset in one dimension.
#[inline]
fn nearest_dist(q: f64, lo: f64, hi: f64) -> f64 {
    if q < lo {
        lo - q
    } else if q > hi {
        q - hi
    } else {
        0.0
    }
}

/// Log of the Gaussian product kernel evaluated at the point of the box
/// `[lower, upper]` *farthest* from `query` — the shared *lower-bound*
/// formula: every point inside the box is at most the farthest-corner
/// distance away per dimension, so `weight * exp(farthest_point_log_kernel)`
/// bounds the box's refined contribution from below.
#[must_use]
pub fn farthest_point_log_kernel(
    query: &[f64],
    lower: &[f64],
    upper: &[f64],
    bandwidth: &KernelBandwidth,
) -> f64 {
    debug_assert_eq!(query.len(), lower.len());
    debug_assert_eq!(query.len(), upper.len());
    debug_assert_eq!(query.len(), bandwidth.len());
    log_kernel_at(
        bandwidth,
        (0..query.len()).map(|d| {
            let far = (query[d] - lower[d]).abs().max((query[d] - upper[d]).abs());
            far * far
        }),
    )
}

/// Smoothing-aware farthest-point log-kernel: the ClusTree lower bound for a
/// box of *micro-clusters* rather than raw points.
///
/// The ClusTree density term for a micro-cluster at mean `m` with
/// per-dimension variance `v` is the product log-kernel at squared
/// distances `(q - m)^2 + v` (Jensen smoothing).  For every cluster whose
/// mean lies in `[lower, upper]` *and whose summarised points all lie in
/// the box too*, `(q_d - m_d)^2 <= far_d^2` with `far_d` the
/// farthest-corner distance, and the variance of a variable confined to an
/// interval of width `w` is at most `(w/2)^2` (attained by the two-endpoint
/// distribution), so `v_d <= half_d^2` with `half_d = (upper_d - lower_d) /
/// 2`.  The kernel decreases in its squared distance, hence the log-kernel
/// at `far_d^2 + half_d^2` bounds every such cluster's smoothed term from
/// below.  Because a child box is contained in its parent's, the bound is
/// nested and the anytime lower bound stays monotone under refinement.
#[must_use]
pub fn smoothed_farthest_log_kernel(
    query: &[f64],
    lower: &[f64],
    upper: &[f64],
    bandwidth: &KernelBandwidth,
) -> f64 {
    debug_assert_eq!(query.len(), lower.len());
    debug_assert_eq!(query.len(), upper.len());
    debug_assert_eq!(query.len(), bandwidth.len());
    log_kernel_at(
        bandwidth,
        (0..query.len()).map(|d| {
            let (lo, hi) = (lower[d], upper[d]);
            let far = (query[d] - lo).abs().max((query[d] - hi).abs());
            let half = 0.5 * (hi - lo);
            far * far + half * half
        }),
    )
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

/// The columns one fused node pass reads: `len` entries, dimension-major
/// (coordinate `d` of entry `i` at `d * len + i` of every column).  `var`
/// holds each entry's variance as stored, which may be below
/// [`VARIANCE_FLOOR`] or NaN (see [`SummaryBlock::var`]); `log_var` holds
/// `ln(max(var, VARIANCE_FLOOR))` of the same values.
///
/// A gathered [`SummaryBlock`] lends its columns through `From`; a store
/// that keeps its entries in this layout (a Bayes-tree directory node)
/// builds one over its own buffer with [`NodeColumns::new`] and is scored
/// where it lies.
#[derive(Debug, Clone, Copy)]
pub struct NodeColumns<'a> {
    pub(crate) len: usize,
    pub(crate) mean: &'a [f64],
    pub(crate) var: &'a [f64],
    pub(crate) log_var: &'a [f64],
    pub(crate) lower: &'a [f64],
    pub(crate) upper: &'a [f64],
}

impl<'a> NodeColumns<'a> {
    /// The columns of `len` entries over `mean.len() / len` dimensions.
    ///
    /// # Panics
    ///
    /// Panics if the five columns differ in length.  A pass also panics
    /// when they hold fewer than `len` values per query dimension.
    #[must_use]
    pub fn new(
        len: usize,
        mean: &'a [f64],
        var: &'a [f64],
        log_var: &'a [f64],
        lower: &'a [f64],
        upper: &'a [f64],
    ) -> Self {
        let size = mean.len();
        assert!(
            [var, log_var, lower, upper].iter().all(|c| c.len() == size),
            "node columns differ in length"
        );
        Self {
            len,
            mean,
            var,
            log_var,
            lower,
            upper,
        }
    }

    /// Number of entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the columns hold no entry.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl<'a> From<&'a SummaryBlock> for NodeColumns<'a> {
    /// The block's columns.
    ///
    /// # Panics
    ///
    /// Panics if the block lacks its box columns or its log-variance column
    /// ([`SummaryBlock::enable_boxes`], [`SummaryBlock::fill_log_vars`] over
    /// the columns [`SummaryBlock::enable_vars`] sized).
    fn from(block: &'a SummaryBlock) -> Self {
        assert!(block.has_boxes(), "node scoring needs the box columns");
        let log_var = block
            .log_vars()
            .expect("node scoring needs the log-variance column");
        Self {
            len: block.len(),
            mean: block.mean(),
            var: block.var(),
            log_var,
            lower: block.lower(),
            upper: block.upper(),
        }
    }
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

/// Scores every entry of a directory node in one pass over its columns
/// (a [`NodeColumns`], or a gathered [`SummaryBlock`]): fills `lanes` with
/// `[log_pdf, farthest, nearest, min_dist_sq, jensen, magnitude]` — per
/// entry `DiagGaussian::log_pdf` (with the log-variance column in place of
/// the inline `ln`), [`farthest_point_log_kernel`],
/// [`nearest_point_log_kernel`], `Mbr::min_dist_sq` and the two
/// [`cf_log_terms`] of the entry's mean and variance columns, bit for bit.
///
/// # Panics
///
/// Panics if a block lacks its box columns or its log-variance column
/// ([`SummaryBlock::enable_boxes`], [`SummaryBlock::fill_log_vars`] over
/// the columns [`SummaryBlock::enable_vars`] sized), or if the bandwidth's
/// dimensionality differs from the query's.
pub fn node_scores_block<'a>(
    query: &[f64],
    bandwidth: &KernelBandwidth,
    columns: impl Into<NodeColumns<'a>>,
    lanes: &mut ScoreLanes,
) {
    assert_eq!(bandwidth.len(), query.len(), "bandwidth dimensionality");
    let cols = columns.into();
    let len = cols.len;
    let [log_pdf, farthest, nearest, min_sq, jensen, magnitude] = lanes;
    let out = NodeLanes {
        log_pdf: prep_out(log_pdf, len),
        farthest: prep_out(farthest, len),
        nearest: prep_out(nearest, len),
        min_sq: prep_out(min_sq, len),
        jensen: prep_out(jensen, len),
        magnitude: prep_out(magnitude, len),
    };
    node_pass::<true>(query, bandwidth, &cols, out);
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
/// Panics if a block lacks its box columns or its log-variance column
/// ([`SummaryBlock::enable_boxes`], [`SummaryBlock::fill_log_vars`] over
/// the columns [`SummaryBlock::enable_vars`] sized).
pub fn node_estimates_block<'a>(
    query: &[f64],
    columns: impl Into<NodeColumns<'a>>,
    log_pdfs: &mut Vec<f64>,
    min_sq_dists: &mut Vec<f64>,
) {
    let cols = columns.into();
    let len = cols.len;
    let out = NodeLanes {
        log_pdf: prep_out(log_pdfs, len),
        farthest: &mut [],
        nearest: &mut [],
        min_sq: prep_out(min_sq_dists, len),
        jensen: &mut [],
        magnitude: &mut [],
    };
    node_pass::<false>(query, &NO_BANDWIDTH, &cols, out);
}

/// The one body of both fused node passes; `BOUNDS` adds the farthest- and
/// nearest-corner log-kernels and the two cluster-feature lanes, the only
/// terms that read the bandwidth (the empty one without `BOUNDS`).
fn node_pass<const BOUNDS: bool>(
    query: &[f64],
    bandwidth: &KernelBandwidth,
    cols: &NodeColumns<'_>,
    mut out: NodeLanes<'_>,
) {
    debug_assert_eq!(cols.mean.len(), query.len() * cols.len);
    debug_assert_eq!(cols.var.len(), query.len() * cols.len);
    debug_assert_eq!(cols.log_var.len(), query.len() * cols.len);
    debug_assert_eq!(cols.lower.len(), query.len() * cols.len);
    debug_assert_eq!(cols.upper.len(), query.len() * cols.len);
    if crate::simd::node_scores::<BOUNDS>(query, bandwidth, cols, &mut out) {
        return;
    }
    if BOUNDS {
        for lane in [&mut out.farthest, &mut out.nearest, &mut out.jensen] {
            lane.fill(bandwidth.log_peak());
        }
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
            let near = nearest_dist(q, lo, hi);
            let near_sq = near * near;
            if BOUNDS {
                let c = bandwidth.neg_half_inv_sq()[d];
                let far = (q - lo).abs().max((q - hi).abs());
                out.farthest[i] += far * far * c;
                out.nearest[i] += near_sq * c;
                let t = dd + var;
                out.jensen[i] += t * c;
                out.magnitude[i] += (mean * mean + var + t) * bandwidth.inv_sq()[d];
            }
            out.min_sq[i] += near_sq;
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
/// `m^2 + v`, not relative to `v`; and the pass adds `dims` products onto
/// `log_peak`, whose size `log_scale` bounds.  The leaf kernels the exact
/// density is summed from have the same shape: a leaf kernel at true
/// scaled distance `a_j` is off by at most `(dims + 4) u (|log_peak| +
/// a_j)` (3 roundings in the square, 1 in the product, `dims` in the sum),
/// and since `exp(-a)` is convex that moves the density's log by at most
/// `(dims + 4) u (|log_peak| + ā)` either way.  The box lanes need no
/// margin: they bracket every computed leaf kernel exactly.  To first
/// order the error of `jensen` against the computed leaves is at most
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

/// Scores every point of a leaf block in one pass: `log_kernels` gets the
/// product log-kernel at each of the `len` points and `sq_dists` the
/// squared distance to it — per point [`GaussianKernel::log_density`] and
/// the result of [`sq_dists_block`], bit for bit.  The block is
/// dimension-major with column stride `stride >= len`: coordinate `d` of
/// point `i` is `means[d * stride + i]` (a gathered block has `stride ==
/// len`; a Bayes-tree leaf keeps room to append).
///
/// # Panics
///
/// Panics if the bandwidth's dimensionality differs from the query's, or
/// if `stride < len`.
pub fn leaf_scores_block(
    query: &[f64],
    bandwidth: &KernelBandwidth,
    means: &[f64],
    len: usize,
    stride: usize,
    log_kernels: &mut Vec<f64>,
    sq_dists: &mut Vec<f64>,
) {
    assert_eq!(bandwidth.len(), query.len(), "bandwidth dimensionality");
    assert!(stride >= len, "column stride below the block length");
    let log_kernels = prep_out(log_kernels, len);
    let sq_dists = prep_out(sq_dists, len);
    debug_assert!(len == 0 || means.len() >= query.len().saturating_sub(1) * stride + len);
    if crate::simd::leaf_scores(query, bandwidth, means, len, stride, log_kernels, sq_dists) {
        return;
    }
    log_kernels.fill(bandwidth.log_peak());
    for (d, &q) in query.iter().enumerate() {
        let c = bandwidth.neg_half_inv_sq()[d];
        let col = &means[d * stride..d * stride + len];
        for i in 0..len {
            let diff = col[i] - q;
            let s = diff * diff;
            log_kernels[i] += s * c;
            sq_dists[i] += s;
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
/// kernel, the product log-kernel at squared distances `(q_d - m_d)^2 +
/// v_d` over the block's mean and variance columns, [`smoothed_farthest_log_kernel`] and
/// [`nearest_point_log_kernel`] of its box, and the squared distance to its
/// routing centre (`gathered.centers`, as [`sq_dists_block`]), bit for bit.
/// Without `BOUNDS` (leaves, whose bounds collapse onto the estimate) it
/// fills only `jensen` and `centre_sq_dist`, leaves the two box lanes empty
/// and reads no box column.
///
/// # Panics
///
/// Panics if the bandwidth's dimensionality differs from the query's, if
/// the block lacks its variance columns ([`SummaryBlock::enable_vars`]), or
/// if `BOUNDS` is set and the block lacks its box columns.
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
    if crate::simd::cluster_scores::<BOUNDS>(query, bandwidth, &cols, &mut out) {
        return;
    }
    for lane in [&mut out.jensen, &mut out.farthest, &mut out.nearest] {
        lane.fill(bandwidth.log_peak());
    }
    for (d, &q) in query.iter().enumerate() {
        let c = bandwidth.neg_half_inv_sq()[d];
        for i in 0..cols.len {
            let idx = d * cols.len + i;
            let diff = q - cols.mean[idx];
            out.jensen[i] += (diff * diff + cols.var[idx]) * c;
            if BOUNDS {
                let (lo, hi) = (cols.lower[idx], cols.upper[idx]);
                let far = (q - lo).abs().max((q - hi).abs());
                let half = 0.5 * (hi - lo);
                out.farthest[i] += (far * far + half * half) * c;
                let near = nearest_dist(q, lo, hi);
                out.nearest[i] += near * near * c;
            }
            let diff = cols.center[idx] - q;
            out.center_sq[i] += diff * diff;
        }
    }
}

impl Kernel for GaussianKernel {
    fn log_density(&self, center: &[f64], x: &[f64], bandwidth: &KernelBandwidth) -> f64 {
        debug_assert_eq!(center.len(), x.len());
        debug_assert_eq!(center.len(), bandwidth.len());
        log_kernel_at(
            bandwidth,
            x.iter().zip(center).map(|(x, c)| {
                let diff = x - c;
                diff * diff
            }),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gaussian_kernel_peaks_at_center() {
        let k = GaussianKernel;
        let c = [1.0, 2.0];
        let h = KernelBandwidth::new(vec![0.5, 0.5]);
        let at_center = k.density(&c, &c, &h);
        let off_center = k.density(&c, &[1.4, 2.4], &h);
        assert!(at_center > off_center);
    }

    #[test]
    fn gaussian_kernel_matches_univariate_normal() {
        let k = GaussianKernel;
        // Bandwidth h acts as standard deviation of a normal centred at c.
        let d = k.density(&[0.0], &[0.0], &KernelBandwidth::new(vec![2.0]));
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
        let far = farthest_point_log_kernel(&[q], &[lo], &[hi], &bandwidth);
        let near = nearest_point_log_kernel(&[q], &[lo], &[hi], &bandwidth);
        let n = points.len() as f64;
        let (ls, ss) = points
            .iter()
            .fold((0.0, 0.0), |(ls, ss), x| (ls + x, ss + x * x));
        let moments = crate::cluster_feature::raw_moments(ls, ss, n);
        let (jensen, magnitude) = cf_log_terms(&[q], [moments], &bandwidth);
        let margin = cf_margin(n, 1, magnitude);
        let exact = points
            .iter()
            .map(|&x| GaussianKernel.density(&[x], &[q], &bandwidth))
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
        let h = KernelBandwidth::new(vec![0.2, 0.3]);
        let ld = k.log_density(&[0.3, 0.7], &[0.1, 0.9], &h);
        let d = k.density(&[0.3, 0.7], &[0.1, 0.9], &h);
        assert!((ld.exp() - d).abs() < 1e-12);
    }
}
