//! Explicit-SIMD variants of the hot block kernels.
//!
//! The batch kernels in [`crate::kernel`] are written so LLVM *can*
//! autovectorize them, but autovectorization of the branchy box and
//! log-kernel loops is brittle — a missed vectorization silently costs
//! 2–4×.  This module makes the vector shape explicit: a small local shim
//! type ([`F64x4`]) models one 256-bit lane of four `f64`s as a plain
//! `[f64; 4]` with element-wise IEEE operations, and the kernel bodies walk
//! the entry dimension four entries at a time.  The bodies are
//! compiled inside `#[target_feature(enable = "avx2")]` wrappers and
//! selected at runtime ([`avx2_available`]), so a binary built for the
//! baseline target still uses AVX2 registers on machines that have them.
//!
//! **Bit-exactness.**  Every lane op is the *same* IEEE-754 scalar
//! expression the reference loop uses (add, sub, mul, abs, `f64::max`, and
//! one div in the log-pdf lane — never a fused multiply-add, which would
//! change rounding), and each entry's accumulator still receives its
//! per-dimension terms in ascending-dimension order.  The SIMD path is therefore bit-identical to
//! the scalar reference; the parity tests in
//! `crates/stats/tests/block_kernels.rs` and
//! `crates/stats/tests/simd_parity.rs` assert it with `to_bits`.
//!
//! **Scope.**  Every node read is one of four kernels, all dispatched here:
//! the squared-distance pass (descent routing and k-NN, which need only
//! distances) and three **fused passes**, one per node shape.  The
//! Bayes-tree node pass fills the diagonal-Gaussian log-pdf, both box
//! corners' log-kernels, the box minimum squared distance and the Jensen
//! and magnitude terms of each entry's cluster feature; the leaf
//! pass the product log-kernel and the squared distance; the micro-cluster
//! pass the Jensen-smoothed kernel, the smoothed farthest-corner and
//! nearest-point log-kernels and the centre distance.  The log-pdf's
//! per-element `ln` has no vector form without a vector-libm dependency —
//! but `ln(var)` is query-independent, so the gather hoists it into
//! [`crate::SummaryBlock::fill_log_vars`] (cached with the block) and the
//! remaining arithmetic vectorizes here.
//!
//! Every kernel lane has the one shape of [`crate::kernel`]: it starts at
//! `log_peak` and adds a squared distance times `-1 / (2 h^2)` per
//! dimension, both read from [`crate::kernel::KernelBandwidth`], so the
//! leaf, box and micro-cluster lanes are sub, mul, add and max only — no
//! division and no root (`docs/PERF.md`, "Division-free kernel lanes").
//! The diagonal-Gaussian log-pdf keeps its division by the variance: EM's
//! bulk load shares `DiagGaussian::log_pdf`.  All four kernels, the distance
//! pass included, run entry chunks outermost so each chunk's accumulators
//! stay in registers for the whole dimension walk, and end a block with a
//! chunk that overlaps its predecessor instead of a scalar tail loop (only
//! a block under one lane pads).  The distance pass used to walk
//! dimensions outermost, storing and reloading every entry's running sum
//! once per dimension; the register form speeds up ClusTree routing and
//! k-NN reads (`docs/PERF.md`, "Routing distances in registers").  The node and
//! micro-cluster passes also run without their bound lanes (`BOUNDS ==
//! false`): for the classifier, which reads no bound, and for ClusTree
//! leaves, whose bounds collapse onto the estimate.  On a 16-d node of 4–9
//! entries the node pass takes about a third of the time of the four
//! per-quantity calls it replaced, which also computed 32 logarithms per
//! node (`docs/PERF.md`, "Fused node scoring").
//!
//! Everything degrades gracefully: with the `simd` cargo feature off, on
//! non-`x86_64` targets, or on CPUs without AVX2, [`avx2_available`] is
//! `false` and callers fall through to the scalar reference loops.

use crate::kernel::{ClusterColumns, ClusterLanes, KernelBandwidth, NodeColumns, NodeLanes};
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
use crate::{LN_2PI, VARIANCE_FLOOR};

/// Lanes per vector: one AVX2 register holds four `f64`s.
pub const LANES: usize = 4;

/// Whether the runtime-dispatched AVX2 kernel variants may be used.
///
/// `true` only when the `simd` feature is enabled, the target is `x86_64`
/// and the executing CPU reports AVX2; the answer is detected once and
/// cached.
#[must_use]
pub fn avx2_available() -> bool {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    {
        use std::sync::OnceLock;
        static AVX2: OnceLock<bool> = OnceLock::new();
        *AVX2.get_or_init(|| std::arch::is_x86_feature_detected!("avx2"))
    }
    #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
    {
        false
    }
}

/// One 256-bit lane of four `f64`s, modelled portably as `[f64; 4]`.
///
/// All operations are element-wise scalar IEEE expressions; compiled inside
/// an AVX2 `#[target_feature]` region LLVM lowers them to single vector
/// instructions, anywhere else they stay four scalar ops with identical
/// results.
#[derive(Debug, Clone, Copy)]
pub struct F64x4(pub [f64; 4]);

// The lane-wise arithmetic deliberately uses the intrinsic-style names
// (`add`/`sub`/`mul`/`div`) rather than operator overloads: the kernel code
// reads like the `_mm256_*` sequence it compiles down to.
#[allow(clippy::should_implement_trait)]
impl F64x4 {
    /// All four lanes set to `v`.
    #[inline(always)]
    #[must_use]
    pub fn splat(v: f64) -> Self {
        Self([v; 4])
    }

    /// Load of four consecutive column values.
    #[inline(always)]
    #[must_use]
    pub fn load(col: &[f64]) -> Self {
        Self([col[0], col[1], col[2], col[3]])
    }

    /// Stores the four lanes into `out[..4]`.
    #[inline(always)]
    pub fn store(self, out: &mut [f64]) {
        out[..4].copy_from_slice(&self.0);
    }

    #[inline(always)]
    fn zip(self, other: Self, f: impl Fn(f64, f64) -> f64) -> Self {
        Self([
            f(self.0[0], other.0[0]),
            f(self.0[1], other.0[1]),
            f(self.0[2], other.0[2]),
            f(self.0[3], other.0[3]),
        ])
    }

    #[inline(always)]
    fn map(self, f: impl Fn(f64) -> f64) -> Self {
        Self([f(self.0[0]), f(self.0[1]), f(self.0[2]), f(self.0[3])])
    }

    /// Lane-wise addition.
    #[inline(always)]
    #[must_use]
    pub fn add(self, other: Self) -> Self {
        self.zip(other, |a, b| a + b)
    }

    /// Lane-wise subtraction.
    #[inline(always)]
    #[must_use]
    pub fn sub(self, other: Self) -> Self {
        self.zip(other, |a, b| a - b)
    }

    /// Lane-wise multiplication.
    #[inline(always)]
    #[must_use]
    pub fn mul(self, other: Self) -> Self {
        self.zip(other, |a, b| a * b)
    }

    /// Lane-wise division.
    #[inline(always)]
    #[must_use]
    pub fn div(self, other: Self) -> Self {
        self.zip(other, |a, b| a / b)
    }

    /// Lane-wise absolute value.
    #[inline(always)]
    #[must_use]
    pub fn abs(self) -> Self {
        self.map(f64::abs)
    }

    /// Lane-wise `f64::max` (same NaN semantics as the scalar reference).
    #[inline(always)]
    #[must_use]
    pub fn max(self, other: Self) -> Self {
        self.zip(other, f64::max)
    }

    /// Lane-wise `f64::min` (same NaN semantics as the scalar reference).
    #[inline(always)]
    #[must_use]
    pub fn min(self, other: Self) -> Self {
        self.zip(other, f64::min)
    }
}

// ---------------------------------------------------------------------------
// Kernel bodies: `#[inline(always)]` so the `#[target_feature]` wrappers can
// absorb them into their AVX2-enabled codegen region.  Each body mirrors one
// scalar loop in `crate::kernel` expression for expression.
// ---------------------------------------------------------------------------

/// Squared-distance pass, laid out as the fused passes: entry chunks run
/// outermost over [`chunk_starts`], each chunk's four sums stay in one
/// register across the dimension walk, and per entry the terms arrive
/// dimension-ascending, so every distance is bit-identical to the scalar
/// loop in `kernel::sq_dists_block`.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
#[inline(always)]
fn sq_dists_body(query: &[f64], means: &[f64], len: usize, out: &mut [f64]) {
    if len >= LANES {
        sq_dists_chunks::<true>(query, means, len, out);
    } else {
        sq_dists_chunks::<false>(query, means, len, out);
    }
}

/// The chunk loop of [`sq_dists_body`]; `FULL` promises `len >= LANES`.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
#[inline(always)]
fn sq_dists_chunks<const FULL: bool>(query: &[f64], means: &[f64], len: usize, out: &mut [f64]) {
    let n = if FULL { LANES } else { len };
    for i in chunk_starts(len) {
        let mut acc = F64x4::splat(0.0);
        for (d, &q) in query.iter().enumerate() {
            let diff = load_padded(means, d * len + i, n, 0.0).sub(F64x4::splat(q));
            acc = diff.mul(diff).add(acc);
        }
        store_first(acc, out, i, n);
    }
}

/// Chunk starts of the fused passes: `0, 4, 8, …`, except that the last
/// chunk of a block holding at least one full lane is moved back to end
/// exactly at `len`.  It then overlaps its predecessor and recomputes the
/// shared entries bit-identically (lanes are independent), so every chunk
/// of such a block loads and stores full lanes — no tail loop.  A block
/// shorter than one lane is one padded chunk (see [`load_padded`]).
///
/// Plain code, so other crates' chunked bodies (the R* choose-subtree
/// pass in `bt_index`) share it inside and outside their AVX2 regions.
#[inline(always)]
pub fn chunk_starts(len: usize) -> impl Iterator<Item = usize> {
    (0..len)
        .step_by(LANES)
        .map(move |i| i.min(len.saturating_sub(LANES)))
}

/// Loads lanes `at..at + n` of a column (`n <= LANES`), padding the unused
/// lanes with `pad`; a padded lane's result is never stored.
#[inline(always)]
#[must_use]
pub fn load_padded(col: &[f64], at: usize, n: usize, pad: f64) -> F64x4 {
    if n == LANES {
        F64x4::load(&col[at..at + LANES])
    } else {
        let lane = |k: usize| if k < n { col[at + k] } else { pad };
        F64x4([lane(0), lane(1), lane(2), lane(3)])
    }
}

/// Stores the first `n` lanes into `out[at..at + n]`.
#[inline(always)]
pub fn store_first(v: F64x4, out: &mut [f64], at: usize, n: usize) {
    if n == LANES {
        v.store(&mut out[at..at + LANES]);
    } else {
        out[at..at + n].copy_from_slice(&v.0[..n]);
    }
}

/// Fused directory-node pass.  Entry chunks run outermost so each chunk's
/// six accumulators stay in registers across the dimension walk; per
/// entry the terms still arrive dimension-ascending, each lane evaluating
/// the expression of its scalar formula (the diagonal log-pdf with the
/// stored `ln var`, the two box corners' log-kernels, the box minimum
/// squared distance, the Jensen and magnitude terms of the entry's
/// cluster feature), so every output is bit-identical to the scalar
/// loop's.  The two CF lanes reuse the log-pdf's `diff * diff` and
/// variance load.  Without `BOUNDS` the four bound lanes are neither
/// computed nor stored; the other two are unchanged.
///
/// A block of at least one lane runs the `FULL` instantiation, where every
/// chunk is a plain full-lane load and store; only shorter blocks pay for
/// padding.  Deciding this once per block instead of per load keeps the
/// common 4–9 entry nodes on straight-line vector code (`docs/PERF.md`,
/// "Removed: opt-in FMA and f32 columns", has the measurement).
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
#[inline(always)]
fn node_scores_body<const BOUNDS: bool>(
    query: &[f64],
    bandwidth: &KernelBandwidth,
    cols: &NodeColumns<'_>,
    out: &mut NodeLanes<'_>,
) {
    if cols.len >= LANES {
        node_scores_chunks::<true, BOUNDS>(query, bandwidth, cols, out);
    } else {
        node_scores_chunks::<false, BOUNDS>(query, bandwidth, cols, out);
    }
}

/// The chunk loop of [`node_scores_body`]; `FULL` promises `cols.len >=
/// LANES`.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
#[inline(always)]
fn node_scores_chunks<const FULL: bool, const BOUNDS: bool>(
    query: &[f64],
    bandwidth: &KernelBandwidth,
    cols: &NodeColumns<'_>,
    out: &mut NodeLanes<'_>,
) {
    let len = cols.len;
    let zero = F64x4::splat(0.0);
    let floor = F64x4::splat(VARIANCE_FLOOR);
    let ln_2pi = F64x4::splat(LN_2PI);
    let neg_half = F64x4::splat(-0.5);
    let peak = F64x4::splat(bandwidth.log_peak());
    let (inv_sq, neg_half_inv_sq) = (bandwidth.inv_sq(), bandwidth.neg_half_inv_sq());
    let n = if FULL { LANES } else { len };
    for i in chunk_starts(len) {
        let (mut log_pdf, mut min_sq) = (zero, zero);
        let (mut farthest, mut nearest, mut jensen) = (peak, peak, peak);
        let mut magnitude = F64x4::splat(bandwidth.log_scale());
        for (d, &q) in query.iter().enumerate() {
            let at = d * len + i;
            let qv = F64x4::splat(q);
            // Pads keep the unused lanes finite: var 1, everything else 0.
            let mean = load_padded(cols.mean, at, n, 0.0);
            let var = load_padded(cols.var, at, n, 1.0);
            let log_var = load_padded(cols.log_var, at, n, 0.0);
            let lo = load_padded(cols.lower, at, n, 0.0);
            let hi = load_padded(cols.upper, at, n, 0.0);

            let diff = qv.sub(mean);
            let dd = diff.mul(diff);
            let sum = ln_2pi.add(log_var).add(dd.div(var.max(floor)));
            log_pdf = neg_half.mul(sum).add(log_pdf);

            let near = lo.sub(qv).max(zero).add(qv.sub(hi).max(zero));
            let near_sq = near.mul(near);
            if BOUNDS {
                let c = F64x4::splat(neg_half_inv_sq[d]);
                let far = qv.sub(lo).abs().max(qv.sub(hi).abs());
                farthest = far.mul(far).mul(c).add(farthest);
                nearest = near_sq.mul(c).add(nearest);
                let t = dd.add(var);
                jensen = t.mul(c).add(jensen);
                let m2 = mean.mul(mean).add(var).add(t);
                magnitude = m2.mul(F64x4::splat(inv_sq[d])).add(magnitude);
            }
            min_sq = near_sq.add(min_sq);
        }
        store_first(log_pdf, out.log_pdf, i, n);
        if BOUNDS {
            store_first(farthest, out.farthest, i, n);
            store_first(nearest, out.nearest, i, n);
            store_first(jensen, out.jensen, i, n);
            store_first(magnitude, out.magnitude, i, n);
        }
        store_first(min_sq, out.min_sq, i, n);
    }
}

/// Fused leaf pass: the product log-kernel at each mean and the squared
/// distance of `sq_dists_body`, entry chunks outermost and split into a
/// `FULL` and a padded instantiation as in [`node_scores_body`].  Column
/// `d` starts at `d * stride` (`stride >= len`), so a leaf block with room
/// to append is scored where it lies; only its first `len` slots per
/// column are loaded.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
#[inline(always)]
fn leaf_scores_body(
    query: &[f64],
    bandwidth: &KernelBandwidth,
    means: &[f64],
    len: usize,
    stride: usize,
    log_kernels: &mut [f64],
    sq_dists: &mut [f64],
) {
    if len >= LANES {
        leaf_scores_chunks::<true>(query, bandwidth, means, len, stride, log_kernels, sq_dists);
    } else {
        leaf_scores_chunks::<false>(query, bandwidth, means, len, stride, log_kernels, sq_dists);
    }
}

/// The chunk loop of [`leaf_scores_body`]; `FULL` promises `len >= LANES`.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
#[inline(always)]
fn leaf_scores_chunks<const FULL: bool>(
    query: &[f64],
    bandwidth: &KernelBandwidth,
    means: &[f64],
    len: usize,
    stride: usize,
    log_kernels: &mut [f64],
    sq_dists: &mut [f64],
) {
    let peak = F64x4::splat(bandwidth.log_peak());
    let neg_half_inv_sq = bandwidth.neg_half_inv_sq();
    let n = if FULL { LANES } else { len };
    for i in chunk_starts(len) {
        let (mut log_k, mut dist) = (peak, F64x4::splat(0.0));
        for (d, &q) in query.iter().enumerate() {
            let diff = load_padded(means, d * stride + i, n, 0.0).sub(F64x4::splat(q));
            let s = diff.mul(diff);
            log_k = s.mul(F64x4::splat(neg_half_inv_sq[d])).add(log_k);
            dist = s.add(dist);
        }
        store_first(log_k, log_kernels, i, n);
        store_first(dist, sq_dists, i, n);
    }
}

/// Fused micro-cluster pass, laid out as [`node_scores_body`]: per entry
/// the Jensen kernel over the mean and variance columns, with `BOUNDS` the
/// smoothed farthest-corner and nearest-point log-kernels of the box, and
/// the squared centre distance — each lane the exact expression of the
/// scalar loop in `kernel::cluster_scores_block`, terms added
/// dimension-ascending.  Without `BOUNDS` no box column is loaded.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
#[inline(always)]
fn cluster_scores_body<const BOUNDS: bool>(
    query: &[f64],
    bandwidth: &KernelBandwidth,
    cols: &ClusterColumns<'_>,
    out: &mut ClusterLanes<'_>,
) {
    if cols.len >= LANES {
        cluster_scores_chunks::<true, BOUNDS>(query, bandwidth, cols, out);
    } else {
        cluster_scores_chunks::<false, BOUNDS>(query, bandwidth, cols, out);
    }
}

/// The chunk loop of [`cluster_scores_body`]; `FULL` promises `cols.len >=
/// LANES`.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
#[inline(always)]
fn cluster_scores_chunks<const FULL: bool, const BOUNDS: bool>(
    query: &[f64],
    bandwidth: &KernelBandwidth,
    cols: &ClusterColumns<'_>,
    out: &mut ClusterLanes<'_>,
) {
    let len = cols.len;
    let zero = F64x4::splat(0.0);
    let half_f = F64x4::splat(0.5);
    let peak = F64x4::splat(bandwidth.log_peak());
    let neg_half_inv_sq = bandwidth.neg_half_inv_sq();
    let n = if FULL { LANES } else { len };
    for i in chunk_starts(len) {
        let (mut jensen, mut farthest, mut nearest) = (peak, peak, peak);
        let mut center_sq = zero;
        for (d, &q) in query.iter().enumerate() {
            let at = d * len + i;
            let qv = F64x4::splat(q);
            let c = F64x4::splat(neg_half_inv_sq[d]);
            // Pads keep the unused lanes finite.
            let mean = load_padded(cols.mean, at, n, 0.0);
            let var = load_padded(cols.var, at, n, 0.0);

            let diff = qv.sub(mean);
            jensen = diff.mul(diff).add(var).mul(c).add(jensen);

            if BOUNDS {
                let lo = load_padded(cols.lower, at, n, 0.0);
                let hi = load_padded(cols.upper, at, n, 0.0);
                let far = qv.sub(lo).abs().max(qv.sub(hi).abs());
                let half = half_f.mul(hi.sub(lo));
                farthest = far.mul(far).add(half.mul(half)).mul(c).add(farthest);
                // max(lo - q, 0) + max(q - hi, 0): at most one term is
                // positive and the other is exactly 0.0, so the sum equals
                // the branchy clamp bit for bit.
                let near = lo.sub(qv).max(zero).add(qv.sub(hi).max(zero));
                nearest = near.mul(near).mul(c).add(nearest);
            }

            let diff = load_padded(cols.center, at, n, 0.0).sub(qv);
            center_sq = diff.mul(diff).add(center_sq);
        }
        store_first(jensen, out.jensen, i, n);
        if BOUNDS {
            store_first(farthest, out.farthest, i, n);
            store_first(nearest, out.nearest, i, n);
        }
        store_first(center_sq, out.center_sq, i, n);
    }
}

// ---------------------------------------------------------------------------
// AVX2-enabled wrappers: same signatures as the bodies, unsafe only because
// the caller must have verified `avx2_available()`.
// ---------------------------------------------------------------------------

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
mod avx2 {
    use super::*;

    /// # Safety
    /// The executing CPU must support AVX2 (`avx2_available()`).
    #[target_feature(enable = "avx2")]
    pub unsafe fn sq_dists(query: &[f64], means: &[f64], len: usize, out: &mut [f64]) {
        sq_dists_body(query, means, len, out);
    }

    /// # Safety
    /// The executing CPU must support AVX2 (`avx2_available()`).
    #[target_feature(enable = "avx2")]
    pub unsafe fn node_scores<const BOUNDS: bool>(
        query: &[f64],
        bandwidth: &KernelBandwidth,
        cols: &NodeColumns<'_>,
        out: &mut NodeLanes<'_>,
    ) {
        node_scores_body::<BOUNDS>(query, bandwidth, cols, out);
    }

    /// # Safety
    /// The executing CPU must support AVX2 (`avx2_available()`).
    #[target_feature(enable = "avx2")]
    pub unsafe fn cluster_scores<const BOUNDS: bool>(
        query: &[f64],
        bandwidth: &KernelBandwidth,
        cols: &ClusterColumns<'_>,
        out: &mut ClusterLanes<'_>,
    ) {
        cluster_scores_body::<BOUNDS>(query, bandwidth, cols, out);
    }

    /// # Safety
    /// The executing CPU must support AVX2 (`avx2_available()`).
    #[target_feature(enable = "avx2")]
    pub unsafe fn leaf_scores(
        query: &[f64],
        bandwidth: &KernelBandwidth,
        means: &[f64],
        len: usize,
        stride: usize,
        log_kernels: &mut [f64],
        sq_dists: &mut [f64],
    ) {
        leaf_scores_body(query, bandwidth, means, len, stride, log_kernels, sq_dists);
    }
}

/// Runtime-dispatched squared-distance kernel; returns `false` when the
/// SIMD path is unavailable and the caller must run the scalar reference.
#[inline]
pub(crate) fn sq_dists(query: &[f64], means: &[f64], len: usize, out: &mut [f64]) -> bool {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    {
        if avx2_available() {
            // SAFETY: AVX2 support was just verified.
            unsafe { avx2::sq_dists(query, means, len, out) };
            return true;
        }
    }
    let _ = (query, means, len, out);
    false
}

/// Runtime-dispatched fused directory-node pass (see [`sq_dists`]);
/// `BOUNDS` as in [`node_scores_body`], which alone reads `bandwidth`.
#[inline]
pub(crate) fn node_scores<const BOUNDS: bool>(
    query: &[f64],
    bandwidth: &KernelBandwidth,
    cols: &NodeColumns<'_>,
    out: &mut NodeLanes<'_>,
) -> bool {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    {
        if avx2_available() {
            // SAFETY: AVX2 support was just verified.
            unsafe { avx2::node_scores::<BOUNDS>(query, bandwidth, cols, out) };
            return true;
        }
    }
    let _ = (query, bandwidth, cols, out);
    false
}

/// Runtime-dispatched fused leaf pass (see [`node_scores`]).
#[inline]
pub(crate) fn leaf_scores(
    query: &[f64],
    bandwidth: &KernelBandwidth,
    means: &[f64],
    len: usize,
    stride: usize,
    log_kernels: &mut [f64],
    sq_dists: &mut [f64],
) -> bool {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    {
        if avx2_available() {
            // SAFETY: AVX2 support was just verified.
            unsafe {
                avx2::leaf_scores(query, bandwidth, means, len, stride, log_kernels, sq_dists);
            }
            return true;
        }
    }
    let _ = (query, bandwidth, means, len, stride, log_kernels, sq_dists);
    false
}

/// Runtime-dispatched fused micro-cluster pass (see [`node_scores`]).
#[inline]
pub(crate) fn cluster_scores<const BOUNDS: bool>(
    query: &[f64],
    bandwidth: &KernelBandwidth,
    cols: &ClusterColumns<'_>,
    out: &mut ClusterLanes<'_>,
) -> bool {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    {
        if avx2_available() {
            // SAFETY: AVX2 support was just verified.
            unsafe { avx2::cluster_scores::<BOUNDS>(query, bandwidth, cols, out) };
            return true;
        }
    }
    let _ = (query, bandwidth, cols, out);
    false
}
