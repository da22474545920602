//! The Bayes tree's payload and node types, instantiated from the shared
//! [`bt_anytree`] core.
//!
//! Definition 1 of the paper: an entry `e_s` stores the minimum bounding
//! rectangle of the objects in its subtree, a pointer to the subtree, and the
//! cluster feature `CF = (n_s, LS, SS)` of those objects.  From the CF the
//! mean and variance of the subtree's Gaussian are derived, which is what
//! makes every *frontier* of entries a complete Gaussian mixture model.
//!
//! Here that payload is [`KernelSummary`]; the arena, entries and nodes are
//! the generic ones of [`bt_anytree`], specialised to it.  An [`Entry`]
//! dereferences to its summary, so the familiar `entry.mbr` / `entry.cf`
//! field access keeps working in the `f64` mode.
//!
//! # Stored precision
//!
//! The tree is parameterised by a [`StoredElement`] *mode* — the
//! representation its MBR corners and CF components are *stored* at:
//!
//! * **`f64`** (the default): full width ([`KernelSummary`]), the bit-exact
//!   reference the other mode is audited against, and the only mode whose
//!   certified bounds read the cluster feature
//!   ([`StoredSummary::CF_BOUNDS`]).
//! * **[`Quantized`]**: 16-bit storage ([`QuantizedSummary`]) — CF
//!   linear/squared sums as `i16` mantissas against a per-summary
//!   power-of-two block step (the "block exponent", chosen from the
//!   column's magnitude at quantise-on-write; see `bt_stats::quant`), MBR
//!   corners as `bf16`-style halves rounded outward.  All accumulation
//!   happens in `f64` and is quantised on write.  The outward corner
//!   rounding is value-deterministic and monotone, so parent boxes keep
//!   enclosing child boxes under independent re-encodes, which is what
//!   keeps the anytime `[lower, upper]` bounds sound and monotone.
//!   Decoding happens once per gather into full-width
//!   [`bt_stats::SummaryBlock`] columns (mantissa times power-of-two is
//!   *exact* in `f64`), so the per-node block cache amortises decode
//!   across query batches and the SIMD batch kernels run on decoded
//!   columns untouched.
//!
//! Narrowing therefore happens only when a summary is written: in both
//! modes the block path scores exactly the values the scalar
//! [`StoredSummary`] methods read, bit for bit.
//!
//! Both modes route through the same R* MINDIST/enlargement machinery: the
//! anytime core streams boxes through the per-corner
//! [`Summary::mbr_corner`] accessor (an exact decode for quantised
//! summaries, a plain read for `f64`), so routing quality does not depend on
//! the stored width — only the boxes' outward-rounded slack does.
use std::cell::RefCell;

use crate::leaf::PointColumns;
use bt_anytree::Summary;
use bt_index::Mbr;
use bt_stats::cluster_feature::raw_moments;
use bt_stats::kernel::{cf_log_terms, farthest_point_log_kernel, nearest_point_log_kernel};
use bt_stats::quant::{
    bf16_ceil, bf16_decode, bf16_floor, block_step, dequantize_i16, quantize_i16,
};
use bt_stats::{ClusterFeature, DiagGaussian, KernelBandwidth, SummaryBlock, VARIANCE_FLOOR};

/// Arena index of a node within its tree.
pub type NodeId = bt_anytree::NodeId;

/// The operations the Bayes tree needs from a stored summary beyond the
/// engine-facing [`Summary`] contract — construction from raw points, the
/// Gaussian view, and the decode hooks (block gather, box and
/// cluster-feature bound terms) that let each representation own its
/// decode arithmetic.
pub trait StoredSummary:
    Summary<Ctx = ()> + Clone + std::fmt::Debug + Send + Sync + 'static
{
    /// Whether the certified density bounds use this representation's
    /// cluster feature ([`bt_stats::kernel::certified_bounds`]) or its box
    /// alone.  Only the full-width `f64` mode stores its CF as the running
    /// floating sums the CF margin is derived for; the quantised mode
    /// stores a rounded CF and keeps the box bounds.
    const CF_BOUNDS: bool;

    /// The summary of a single kernel centre.
    fn from_point(point: &[f64]) -> Self;

    /// The summary of a set of kernel centres, or `None` when empty.
    fn from_points(points: &[Vec<f64>], dims: usize) -> Option<Self>;

    /// The summary of a leaf's kernel centres, or `None` when empty: bit
    /// for bit [`Self::from_points`] over the leaf's rows in order.
    fn from_leaf(leaf: &PointColumns) -> Option<Self>;

    /// Absorbs a single new point (used on the insertion path: every
    /// ancestor entry of the target leaf is updated).
    fn absorb_point(&mut self, point: &[f64]);

    /// The Gaussian `N(LS/n, SS/n - (LS/n)^2)` this summary contributes to
    /// any mixture model containing it, derived from the *decoded* CF.
    fn gaussian(&self) -> DiagGaussian;

    /// The decoded full-width cluster feature — the reference scans
    /// (`validate`, node aggregates) fold these instead of reading stored
    /// representations directly.
    fn exact_cf(&self) -> ClusterFeature;

    /// Absolute per-component slack the stored LS may have accumulated
    /// relative to the exact sum of its subtree (quantisation drift across
    /// absorbs and merges).  Zero for lossless-accumulation modes.
    fn ls_slack(&self) -> f64 {
        0.0
    }

    /// Decodes this summary into row `i` of a structure-of-arrays block:
    /// weight, mean / raw variance ([`raw_moments`]) and MBR corner
    /// columns.  The node passes floor the variance as the `DiagGaussian`
    /// clamp does, so the block kernels stay bit-identical to the scalar
    /// reference.  `block` has already been reset with boxes enabled.
    fn gather_into(&self, block: &mut SummaryBlock, i: usize, dims: usize);

    /// The log product-kernel at the farthest and nearest point of this
    /// summary's box — `(farthest, nearest)`, the box sides of the certain
    /// bound interval.  Each representation decodes its own corners so the
    /// full-width mode stays an allocation-free borrow.
    fn bound_log_kernels(&self, query: &[f64], bandwidth: &KernelBandwidth) -> (f64, f64);

    /// The `(jensen, magnitude)` cluster-feature log terms
    /// ([`cf_log_terms`]) of the gathered mean and raw variance — what the
    /// fused node pass computes for this summary, bit for bit.  Read only
    /// when [`Self::CF_BOUNDS`] holds; the default, `(NaN, NaN)`, is "no
    /// usable CF", which `certified_bounds` turns into the box bounds.
    fn cf_log_terms(&self, query: &[f64], bandwidth: &KernelBandwidth) -> (f64, f64) {
        let _ = (query, bandwidth);
        (f64::NAN, f64::NAN)
    }
}

/// A stored-summary *mode* of the Bayes tree: picks the summary
/// representation and describes its storage geometry.
///
/// `f64` is the bit-exact reference and [`Quantized`] the 16-bit
/// block-exponent mode (see the [module docs](self)).
pub trait StoredElement: Send + Sync + 'static {
    /// The summary representation entries store in this mode.
    type Summary: StoredSummary;

    /// Bytes per stored scalar component (MBR corner / CF component) —
    /// drives the per-mode page geometry, and with it the fanout per 4 KiB
    /// page.
    const SCALAR_BYTES: usize;

    /// Human-readable mode name for reports and bench records.
    const MODE: &'static str;
}

impl StoredElement for f64 {
    type Summary = KernelSummary;
    const SCALAR_BYTES: usize = 8;
    const MODE: &'static str = "f64";
}

/// Marker for the 16-bit quantised stored mode: CF components as `i16`
/// mantissas against per-summary block exponents, MBR corners as outward-
/// rounded `bf16` halves (summaries are [`QuantizedSummary`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Quantized;

impl StoredElement for Quantized {
    type Summary = QuantizedSummary;
    const SCALAR_BYTES: usize = 2;
    const MODE: &'static str = "quantized";
}

/// The Bayes tree's payload in the `f64` mode: the MBR and cluster feature
/// of one subtree (Definition 1).
#[derive(Debug)]
pub struct KernelSummary {
    /// Minimum bounding rectangle of all objects stored below.
    pub mbr: Mbr,
    /// Cluster feature `(n, LS, SS)` of all objects stored below.
    pub cf: ClusterFeature,
}

impl Clone for KernelSummary {
    fn clone(&self) -> Self {
        Self {
            mbr: self.mbr.clone(),
            cf: self.cf.clone(),
        }
    }

    /// Field-wise, so a recycled summary keeps its four buffers.
    fn clone_from(&mut self, source: &Self) {
        self.mbr.clone_from(&source.mbr);
        self.cf.clone_from(&source.cf);
    }
}

impl KernelSummary {
    /// The summary of a single kernel centre.
    #[must_use]
    pub fn from_point(point: &[f64]) -> Self {
        Self {
            mbr: Mbr::from_point(point),
            cf: ClusterFeature::from_point(point),
        }
    }

    /// The summary of a set of kernel centres, or `None` when empty.
    #[must_use]
    pub fn from_points(points: &[Vec<f64>], dims: usize) -> Option<Self> {
        let mbr = Mbr::from_points(points.iter().map(Vec::as_slice))?;
        let cf = ClusterFeature::from_points(points.iter().map(Vec::as_slice), dims);
        Some(Self { mbr, cf })
    }

    /// The summary of a leaf's kernel centres, or `None` when empty.  Each
    /// column is folded in point order from the values the per-point
    /// updates of [`Self::from_points`] start at (the first point's
    /// corners, zero sums), so both give the same bits.  Four columns fold
    /// side by side, so their four dependency chains overlap.
    #[must_use]
    pub fn from_leaf(leaf: &PointColumns) -> Option<Self> {
        if leaf.is_empty() {
            return None;
        }
        let dims = leaf.dims();
        let (mut lo, mut hi) = (vec![0.0; dims], vec![0.0; dims]);
        let (mut ls, mut ss) = (vec![0.0; dims], vec![0.0; dims]);
        for d0 in (0..dims).step_by(4) {
            let width = (dims - d0).min(4);
            // A group narrower than four repeats its last column.
            let columns: [&[f64]; 4] = std::array::from_fn(|k| leaf.column(d0 + k.min(width - 1)));
            let mut min = columns.map(|column| column[0]);
            let mut max = min;
            let (mut sum, mut sq) = ([0.0; 4], [0.0; 4]);
            for i in 0..leaf.len() {
                let point = columns.map(|column| column[i]);
                for (k, x) in point.into_iter().enumerate() {
                    min[k] = min[k].min(x);
                    max[k] = max[k].max(x);
                    sum[k] += x;
                    sq[k] += x * x;
                }
            }
            let group = d0..d0 + width;
            lo[group.clone()].copy_from_slice(&min[..width]);
            hi[group.clone()].copy_from_slice(&max[..width]);
            ls[group.clone()].copy_from_slice(&sum[..width]);
            ss[group].copy_from_slice(&sq[..width]);
        }
        Some(Self {
            mbr: Mbr::new(lo, hi),
            cf: ClusterFeature::from_parts(leaf.len() as f64, ls, ss),
        })
    }

    /// The Gaussian `N(LS/n, SS/n - (LS/n)^2)` this summary contributes to
    /// any mixture model containing it.
    #[must_use]
    pub fn gaussian(&self) -> DiagGaussian {
        self.cf.to_gaussian()
    }

    /// Absorbs a single new point into the summary (used on the insertion
    /// path: every ancestor entry of the target leaf is updated).
    pub fn absorb_point(&mut self, point: &[f64]) {
        self.mbr.extend_point(point);
        self.cf.insert(point);
    }
}

impl Summary for KernelSummary {
    type Ctx = ();
    const MBR_ROUTED: bool = true;

    fn merge(&mut self, other: &Self, _ctx: ()) {
        self.mbr.extend_mbr(&other.mbr);
        self.cf.merge(&other.cf);
    }

    fn weight(&self) -> f64 {
        self.cf.weight()
    }

    fn sq_dist_to(&self, point: &[f64]) -> f64 {
        // MINDIST to the stored box — keeps shard routing and refinement
        // ordering consistent with descent.
        self.mbr.min_dist_sq(point)
    }

    fn center(&self) -> Vec<f64> {
        self.cf.mean()
    }

    fn center_into(&self, out: &mut Vec<f64>) {
        self.cf.mean_into(out);
    }

    fn as_mbr(&self) -> Option<&Mbr> {
        Some(&self.mbr)
    }

    fn mbr_corner(&self, d: usize) -> (f64, f64) {
        (self.mbr.lower()[d], self.mbr.upper()[d])
    }

    fn owned_mbr(&self) -> Option<Mbr> {
        Some(self.mbr.clone())
    }
}

impl StoredSummary for KernelSummary {
    const CF_BOUNDS: bool = true;

    fn from_point(point: &[f64]) -> Self {
        KernelSummary::from_point(point)
    }

    fn from_points(points: &[Vec<f64>], dims: usize) -> Option<Self> {
        KernelSummary::from_points(points, dims)
    }

    fn from_leaf(leaf: &PointColumns) -> Option<Self> {
        KernelSummary::from_leaf(leaf)
    }

    fn absorb_point(&mut self, point: &[f64]) {
        KernelSummary::absorb_point(self, point);
    }

    fn gaussian(&self) -> DiagGaussian {
        KernelSummary::gaussian(self)
    }

    fn exact_cf(&self) -> ClusterFeature {
        self.cf.clone()
    }

    fn gather_into(&self, block: &mut SummaryBlock, i: usize, dims: usize) {
        block.set_weight(i, self.cf.weight());
        for (d, (mean, var)) in self.cf.raw_moments().take(dims).enumerate() {
            block.set_mean(d, i, mean);
            block.set_var(d, i, var);
        }
        let (lo, hi) = (self.mbr.lower(), self.mbr.upper());
        for d in 0..dims {
            block.set_lower(d, i, lo[d]);
            block.set_upper(d, i, hi[d]);
        }
    }

    fn bound_log_kernels(&self, query: &[f64], bandwidth: &KernelBandwidth) -> (f64, f64) {
        let lower = self.mbr.lower();
        let upper = self.mbr.upper();
        (
            farthest_point_log_kernel(query, lower, upper, bandwidth),
            nearest_point_log_kernel(query, lower, upper, bandwidth),
        )
    }

    fn cf_log_terms(&self, query: &[f64], bandwidth: &KernelBandwidth) -> (f64, f64) {
        cf_log_terms(query, self.cf.raw_moments(), bandwidth)
    }
}

/// Reusable decode buffers for [`QuantizedSummary`] accumulation — absorb
/// and merge decode to `f64`, update exactly, and re-encode, so the hot
/// insertion path must not allocate per call.
#[derive(Default)]
struct QuantScratch {
    ls: Vec<f64>,
    ss: Vec<f64>,
    lo: Vec<f64>,
    hi: Vec<f64>,
}

thread_local! {
    static QUANT_SCRATCH: RefCell<QuantScratch> = RefCell::new(QuantScratch::default());
}

/// The 16-bit stored summary of the [`Quantized`] mode.
///
/// * `LS` / `SS` columns are `i16` mantissas against per-summary
///   power-of-two block steps (`bt_stats::quant::block_step`, picked from
///   the column's magnitude at quantise-on-write): round-to-nearest, so the
///   per-component error is at most half a step, and `mantissa * step`
///   decodes *exactly* in `f64`.
/// * MBR corners are `bf16`-style halves rounded *outward*
///   (`bf16_floor` / `bf16_ceil`): every stored box encloses its subtree,
///   and because that rounding is a monotone function of the corner value
///   alone, parent boxes keep enclosing child boxes — so the certain
///   `[lower, upper]` density bounds stay sound and refinement stays
///   monotone.
/// * The weight `n` stays exact `f64` (quantising it would scale both bound
///   sides and break the nesting of intervals across refinement).
///
/// All accumulation decodes to `f64`, updates exactly, and re-encodes; both
/// codecs are idempotent, so already-representable state re-encodes to the
/// same bits and repeated churn does not drift the boxes.
#[derive(Debug)]
pub struct QuantizedSummary {
    n: f64,
    ls_step: f64,
    ss_step: f64,
    /// `[LS mantissas (dims) | SS mantissas (dims)]`.
    cf_q: Box<[i16]>,
    /// `[lower corners (dims) | upper corners (dims)]`, `bf16` bits.
    corners: Box<[u16]>,
}

impl Clone for QuantizedSummary {
    fn clone(&self) -> Self {
        Self {
            n: self.n,
            ls_step: self.ls_step,
            ss_step: self.ss_step,
            cf_q: self.cf_q.clone(),
            corners: self.corners.clone(),
        }
    }

    /// Field-wise, so a recycled summary keeps its two buffers (equal
    /// dimensionality: the boxed slices are copied in place).
    fn clone_from(&mut self, source: &Self) {
        self.n = source.n;
        self.ls_step = source.ls_step;
        self.ss_step = source.ss_step;
        self.cf_q.clone_from(&source.cf_q);
        self.corners.clone_from(&source.corners);
    }
}

impl QuantizedSummary {
    /// Quantises exact `f64` state: CF sums round to nearest against fresh
    /// block steps, corners round outward.
    fn encode(n: f64, ls: &[f64], ss: &[f64], lo: &[f64], hi: &[f64]) -> Self {
        let dims = ls.len();
        let ls_step = block_step(ls.iter().fold(0.0_f64, |a, v| a.max(v.abs())));
        let ss_step = block_step(ss.iter().fold(0.0_f64, |a, v| a.max(v.abs())));
        let mut cf_q = vec![0_i16; 2 * dims].into_boxed_slice();
        let mut corners = vec![0_u16; 2 * dims].into_boxed_slice();
        for d in 0..dims {
            cf_q[d] = quantize_i16(ls[d], ls_step);
            cf_q[dims + d] = quantize_i16(ss[d], ss_step);
            corners[d] = bf16_floor(lo[d]);
            corners[dims + d] = bf16_ceil(hi[d]);
        }
        Self {
            n,
            ls_step,
            ss_step,
            cf_q,
            corners,
        }
    }

    /// Quantises an exact full-width summary.
    fn encode_exact(exact: &KernelSummary) -> Self {
        let (cf, mbr) = (&exact.cf, &exact.mbr);
        Self::encode(
            cf.weight(),
            cf.linear_sum(),
            cf.squared_sum(),
            mbr.lower(),
            mbr.upper(),
        )
    }

    /// Number of dimensions of this summary.
    #[must_use]
    pub fn dims(&self) -> usize {
        self.corners.len() / 2
    }

    /// The stored weight `n` (exact, never quantised).
    #[must_use]
    pub fn count(&self) -> f64 {
        self.n
    }

    /// The shared power-of-two step of the `LS` mantissas — the
    /// per-component `LS` quantisation error is at most half of this.
    #[must_use]
    pub fn ls_step(&self) -> f64 {
        self.ls_step
    }

    /// The shared power-of-two step of the `SS` mantissas.
    #[must_use]
    pub fn ss_step(&self) -> f64 {
        self.ss_step
    }

    /// The decoded linear sum along dimension `d` (exact decode).
    #[must_use]
    pub fn linear_sum_at(&self, d: usize) -> f64 {
        dequantize_i16(self.cf_q[d], self.ls_step)
    }

    /// The decoded squared sum along dimension `d` (exact decode).
    #[must_use]
    pub fn squared_sum_at(&self, d: usize) -> f64 {
        dequantize_i16(self.cf_q[self.dims() + d], self.ss_step)
    }

    /// The decoded lower box corner along dimension `d`.
    #[must_use]
    pub fn lower_at(&self, d: usize) -> f64 {
        bf16_decode(self.corners[d])
    }

    /// The decoded upper box corner along dimension `d`.
    #[must_use]
    pub fn upper_at(&self, d: usize) -> f64 {
        bf16_decode(self.corners[self.dims() + d])
    }

    /// The decoded `(mean, raw variance)` along dimension `d`
    /// ([`raw_moments`]); `(0, VARIANCE_FLOOR)` for an empty summary.
    fn raw_moments_at(&self, d: usize) -> (f64, f64) {
        if self.n <= f64::EPSILON {
            (0.0, VARIANCE_FLOOR)
        } else {
            raw_moments(self.linear_sum_at(d), self.squared_sum_at(d), self.n)
        }
    }

    fn decode_cf_into(&self, ls: &mut Vec<f64>, ss: &mut Vec<f64>) {
        let dims = self.dims();
        ls.clear();
        ss.clear();
        ls.extend((0..dims).map(|d| self.linear_sum_at(d)));
        ss.extend((0..dims).map(|d| self.squared_sum_at(d)));
    }

    fn decode_corners_into(&self, lo: &mut Vec<f64>, hi: &mut Vec<f64>) {
        let dims = self.dims();
        lo.clear();
        hi.clear();
        lo.extend((0..dims).map(|d| self.lower_at(d)));
        hi.extend((0..dims).map(|d| self.upper_at(d)));
    }
}

impl Summary for QuantizedSummary {
    type Ctx = ();
    const MBR_ROUTED: bool = true;

    fn merge(&mut self, other: &Self, _ctx: ()) {
        QUANT_SCRATCH.with(|scratch| {
            let mut scratch = scratch.borrow_mut();
            let QuantScratch { ls, ss, lo, hi } = &mut *scratch;
            self.decode_cf_into(ls, ss);
            self.decode_corners_into(lo, hi);
            for d in 0..self.dims() {
                ls[d] += other.linear_sum_at(d);
                ss[d] += other.squared_sum_at(d);
                lo[d] = lo[d].min(other.lower_at(d));
                hi[d] = hi[d].max(other.upper_at(d));
            }
            *self = Self::encode(self.n + other.n, ls, ss, lo, hi);
        });
    }

    fn weight(&self) -> f64 {
        self.n
    }

    fn sq_dist_to(&self, point: &[f64]) -> f64 {
        // MINDIST to the decoded box, replicating `Mbr::min_dist_sq`'s
        // per-dimension arithmetic exactly so routing and refinement
        // ordering agree with the full-width mode whenever corners do.
        let mut acc = 0.0;
        for (d, &x) in point.iter().enumerate().take(self.dims()) {
            let lo = self.lower_at(d);
            let hi = self.upper_at(d);
            let diff = if x < lo {
                lo - x
            } else if x > hi {
                x - hi
            } else {
                0.0
            };
            acc += diff * diff;
        }
        acc
    }

    fn center(&self) -> Vec<f64> {
        (0..self.dims())
            .map(|d| self.linear_sum_at(d) / self.n)
            .collect()
    }

    fn center_into(&self, out: &mut Vec<f64>) {
        out.clear();
        out.extend((0..self.dims()).map(|d| self.linear_sum_at(d) / self.n));
    }

    fn as_mbr(&self) -> Option<&Mbr> {
        None
    }

    fn mbr_corner(&self, d: usize) -> (f64, f64) {
        (self.lower_at(d), self.upper_at(d))
    }

    fn owned_mbr(&self) -> Option<Mbr> {
        let dims = self.dims();
        Some(Mbr::new(
            (0..dims).map(|d| self.lower_at(d)).collect(),
            (0..dims).map(|d| self.upper_at(d)).collect(),
        ))
    }
}

impl StoredSummary for QuantizedSummary {
    const CF_BOUNDS: bool = false;

    fn from_point(point: &[f64]) -> Self {
        QUANT_SCRATCH.with(|scratch| {
            let mut scratch = scratch.borrow_mut();
            let QuantScratch { ls, ss, .. } = &mut *scratch;
            ls.clear();
            ss.clear();
            ls.extend_from_slice(point);
            ss.extend(point.iter().map(|v| v * v));
            Self::encode(1.0, ls, ss, point, point)
        })
    }

    fn from_points(points: &[Vec<f64>], dims: usize) -> Option<Self> {
        let exact = KernelSummary::from_points(points, dims)?;
        Some(Self::encode_exact(&exact))
    }

    fn from_leaf(leaf: &PointColumns) -> Option<Self> {
        let exact = KernelSummary::from_leaf(leaf)?;
        Some(Self::encode_exact(&exact))
    }

    fn absorb_point(&mut self, point: &[f64]) {
        QUANT_SCRATCH.with(|scratch| {
            let mut scratch = scratch.borrow_mut();
            let QuantScratch { ls, ss, lo, hi } = &mut *scratch;
            self.decode_cf_into(ls, ss);
            self.decode_corners_into(lo, hi);
            for (d, &x) in point.iter().enumerate().take(self.dims()) {
                ls[d] += x;
                ss[d] += x * x;
                lo[d] = lo[d].min(x);
                hi[d] = hi[d].max(x);
            }
            *self = Self::encode(self.n + 1.0, ls, ss, lo, hi);
        });
    }

    fn gaussian(&self) -> DiagGaussian {
        self.exact_cf().to_gaussian()
    }

    fn exact_cf(&self) -> ClusterFeature {
        let dims = self.dims();
        ClusterFeature::from_parts(
            self.n,
            (0..dims).map(|d| self.linear_sum_at(d)).collect(),
            (0..dims).map(|d| self.squared_sum_at(d)).collect(),
        )
    }

    fn ls_slack(&self) -> f64 {
        // Fresh encodes err by at most `step / 2` per component; decoding
        // and re-encoding across absorbs/merges between summary refreshes
        // can accumulate about one half-step per accumulated object.  A
        // `(1 + n)` multiple bounds both regimes with headroom.
        self.ls_step * (1.0 + self.n)
    }

    fn gather_into(&self, block: &mut SummaryBlock, i: usize, dims: usize) {
        // Mirrors the full-width gather on the decoded values (decode is
        // exact in f64), so the block kernels stay bit-identical to the
        // scalar reference on this mode too.
        block.set_weight(i, self.n);
        for d in 0..dims {
            let (mean, var) = self.raw_moments_at(d);
            block.set_mean(d, i, mean);
            block.set_var(d, i, var);
        }
        for d in 0..dims {
            block.set_lower(d, i, self.lower_at(d));
            block.set_upper(d, i, self.upper_at(d));
        }
    }

    fn bound_log_kernels(&self, query: &[f64], bandwidth: &KernelBandwidth) -> (f64, f64) {
        QUANT_SCRATCH.with(|scratch| {
            let mut scratch = scratch.borrow_mut();
            let QuantScratch { lo, hi, .. } = &mut *scratch;
            self.decode_corners_into(lo, hi);
            (
                farthest_point_log_kernel(query, lo, hi, bandwidth),
                nearest_point_log_kernel(query, lo, hi, bandwidth),
            )
        })
    }
}

/// A directory entry: the aggregated description of one subtree
/// (Definition 1).  Dereferences to its stored summary (`entry.mbr`,
/// `entry.cf` in the `f64` mode, `entry.gaussian()` in both).
pub type Entry<E = f64> = bt_anytree::Entry<<E as StoredElement>::Summary>;

/// The payload of a node: either raw observations (leaf) or entries (inner).
pub type NodeKind<E = f64> = bt_anytree::NodeKind<<E as StoredElement>::Summary, PointColumns>;

/// One node of the Bayes tree.
pub type Node<E = f64> = bt_anytree::Node<<E as StoredElement>::Summary, PointColumns>;

/// Builds an `f64`-mode [`Entry`] from its parts (the Definition 1
/// triple).
#[must_use]
pub fn make_entry(mbr: Mbr, cf: ClusterFeature, child: NodeId) -> Entry {
    bt_anytree::Entry::new(KernelSummary { mbr, cf }, child)
}

/// The full-width MBR of everything stored in `node`, or `None` when empty.
///
/// Leaves aggregate their exact points; inner nodes fold the decoded
/// ([`Summary::owned_mbr`]) boxes of their entries, so the result is the
/// reference box a parent entry's stored box must enclose.
#[must_use]
pub fn node_mbr<S: StoredSummary>(node: &bt_anytree::Node<S, PointColumns>) -> Option<Mbr> {
    match &node.kind {
        bt_anytree::NodeKind::Leaf { items } => KernelSummary::from_leaf(items).map(|s| s.mbr),
        bt_anytree::NodeKind::Inner { entries } => {
            let mut boxes = entries.iter().filter_map(|e| e.owned_mbr());
            let mut acc = boxes.next()?;
            for mbr in boxes {
                acc.extend_mbr(&mbr);
            }
            Some(acc)
        }
    }
}

/// The decoded full-width cluster feature of everything stored in `node`.
#[must_use]
pub fn node_cluster_feature<S: StoredSummary>(
    node: &bt_anytree::Node<S, PointColumns>,
    dims: usize,
) -> ClusterFeature {
    match &node.kind {
        bt_anytree::NodeKind::Leaf { items } => {
            KernelSummary::from_leaf(items).map_or_else(|| ClusterFeature::empty(dims), |s| s.cf)
        }
        bt_anytree::NodeKind::Inner { entries } => {
            let mut cf = ClusterFeature::empty(dims);
            for e in entries {
                cf.merge(&e.exact_cf());
            }
            cf
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf(dims: usize, points: &[Vec<f64>]) -> PointColumns {
        PointColumns::from_rows(dims, points.iter().map(Vec::as_slice))
    }

    #[test]
    fn leaf_accessors() {
        let node: Node = bt_anytree::Node::leaf(leaf(2, &[vec![1.0, 2.0], vec![3.0, 4.0]]));
        assert!(node.is_leaf());
        assert_eq!(node.len(), 2);
        assert_eq!(node.items().len(), 2);
        let mbr = node_mbr(&node).unwrap();
        assert_eq!(mbr.lower(), &[1.0, 2.0][..]);
        assert_eq!(mbr.upper(), &[3.0, 4.0][..]);
    }

    #[test]
    fn leaf_summary_equals_the_per_point_summary_bitwise() {
        // Every group width (dims 1–9), short and long leaves, and blocks
        // with unused stride slots (grown by pushes, or compacted by a
        // split).
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for dims in 1..=9 {
            for n in [1, 2, 3, 5, 8, 31] {
                let points: Vec<Vec<f64>> = (0..n)
                    .map(|i| {
                        (0..dims)
                            .map(|d| {
                                ((i * 7 + d * 3) % 11) as f64 * 0.37 - 1.9
                                    + 0.1 / (1 + i + d) as f64
                            })
                            .collect()
                    })
                    .collect();
                let mut pushed = PointColumns::default();
                for p in &points {
                    pushed.push(p);
                }
                let order: Vec<usize> = (0..n).collect();
                let (kept, _) = pushed.clone().split(&order, &[], n + 1);
                let expected = KernelSummary::from_points(&points, dims).unwrap();
                for block in [leaf(dims, &points), pushed, kept] {
                    let got = KernelSummary::from_leaf(&block).unwrap();
                    assert_eq!(got.cf.weight(), expected.cf.weight());
                    assert_eq!(bits(got.cf.linear_sum()), bits(expected.cf.linear_sum()));
                    assert_eq!(bits(got.cf.squared_sum()), bits(expected.cf.squared_sum()));
                    assert_eq!(bits(got.mbr.lower()), bits(expected.mbr.lower()));
                    assert_eq!(bits(got.mbr.upper()), bits(expected.mbr.upper()));
                }
            }
        }
    }

    #[test]
    fn leaf_cluster_feature_matches_points() {
        let node: Node = bt_anytree::Node::leaf(leaf(1, &[vec![0.0], vec![2.0]]));
        let cf = node_cluster_feature(&node, 1);
        assert_eq!(cf.weight(), 2.0);
        assert_eq!(cf.mean(), vec![1.0]);
    }

    #[test]
    fn inner_cluster_feature_merges_entries() {
        let e1 = make_entry(
            Mbr::from_point(&[0.0]),
            ClusterFeature::from_point(&[0.0]),
            1,
        );
        let e2 = make_entry(
            Mbr::from_point(&[4.0]),
            ClusterFeature::from_point(&[4.0]),
            2,
        );
        let node: Node = bt_anytree::Node::inner(vec![e1, e2]);
        assert!(!node.is_leaf());
        let cf = node_cluster_feature(&node, 1);
        assert_eq!(cf.weight(), 2.0);
        assert_eq!(cf.mean(), vec![2.0]);
    }

    #[test]
    fn entry_absorb_point_updates_both_summaries() {
        let mut entry: Entry = make_entry(
            Mbr::from_point(&[1.0, 1.0]),
            ClusterFeature::from_point(&[1.0, 1.0]),
            0,
        );
        entry.absorb_point(&[3.0, 0.0]);
        assert_eq!(entry.weight(), 2.0);
        assert!(entry.mbr.contains_point(&[3.0, 0.0]));
        assert_eq!(entry.cf.mean(), vec![2.0, 0.5]);
    }

    #[test]
    fn entry_gaussian_comes_from_cf() {
        let mut cf: ClusterFeature = ClusterFeature::from_point(&[0.0]);
        cf.insert(&[2.0]);
        let entry: Entry = make_entry(Mbr::from_point(&[0.0]), cf, 0);
        let g = entry.gaussian();
        assert_eq!(g.mean(), &[1.0][..]);
        assert!((g.variance()[0] - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "leaf node")]
    fn entries_on_leaf_panics() {
        let node: Node = bt_anytree::Node::leaf(PointColumns::default());
        let _ = node.entries();
    }

    #[test]
    #[should_panic(expected = "inner node")]
    fn items_on_inner_panics() {
        let node: Node = bt_anytree::Node::inner(vec![]);
        let _ = node.items();
    }

    #[test]
    fn empty_leaf_has_no_mbr() {
        let node: Node = bt_anytree::Node::empty_leaf();
        assert!(node.is_empty());
        assert!(node_mbr(&node).is_none());
    }

    #[test]
    fn quantized_summary_boxes_enclose_their_points() {
        let pts = vec![vec![0.13, -0.37], vec![2.71, 1.93], vec![-1.44, 0.61]];
        let s = QuantizedSummary::from_points(&pts, 2).unwrap();
        let owned = s.owned_mbr().unwrap();
        for p in &pts {
            assert!(
                owned.contains_point(p),
                "quantised box must contain exact point {p:?}"
            );
        }
        let exact: KernelSummary = KernelSummary::from_points(&pts, 2).unwrap();
        assert!(owned.contains_mbr(&exact.mbr));
    }

    #[test]
    fn quantized_cf_error_is_within_half_a_block_step() {
        let pts: Vec<Vec<f64>> = (0..40)
            .map(|i| vec![i as f64 * 0.713 - 9.0, (i as f64).sin() * 4.0])
            .collect();
        let s = QuantizedSummary::from_points(&pts, 2).unwrap();
        let exact: ClusterFeature = ClusterFeature::from_points(pts.iter().map(Vec::as_slice), 2);
        assert_eq!(s.weight(), exact.weight(), "weight stays exact f64");
        for d in 0..2 {
            assert!(
                (s.linear_sum_at(d) - exact.linear_sum()[d]).abs() <= s.ls_step() / 2.0,
                "LS[{d}] outside the half-step bound"
            );
            assert!(
                (s.squared_sum_at(d) - exact.squared_sum()[d]).abs() <= s.ss_step() / 2.0,
                "SS[{d}] outside the half-step bound"
            );
        }
    }

    #[test]
    fn quantized_corner_accessors_agree_bitwise() {
        let mut s = QuantizedSummary::from_point(&[0.2, -3.1]);
        s.absorb_point(&[5.7, 0.4]);
        let owned = s.owned_mbr().unwrap();
        for d in 0..2 {
            let (lo, hi) = Summary::mbr_corner(&s, d);
            assert_eq!(lo.to_bits(), owned.lower()[d].to_bits());
            assert_eq!(hi.to_bits(), owned.upper()[d].to_bits());
        }
        assert_eq!(s.sq_dist_to(&[1.0, -1.0]), 0.0);
        assert!(s.sq_dist_to(&[9.0, 9.0]) > 0.0);
        const {
            assert!(<QuantizedSummary as Summary>::MBR_ROUTED);
            assert!(!<QuantizedSummary as Summary>::CENTER_ROUTED);
        }
    }

    #[test]
    fn quantized_merge_nests_both_boxes_and_adds_mass() {
        let a = QuantizedSummary::from_points(&[vec![0.0, 0.0], vec![1.0, 2.0]], 2).unwrap();
        let b = QuantizedSummary::from_points(&[vec![-3.0, 5.0], vec![0.5, 0.5]], 2).unwrap();
        let mut merged = a.clone();
        merged.merge(&b, ());
        assert_eq!(merged.weight(), 4.0);
        let m = merged.owned_mbr().unwrap();
        assert!(m.contains_mbr(&a.owned_mbr().unwrap()));
        assert!(m.contains_mbr(&b.owned_mbr().unwrap()));
    }

    #[test]
    fn quantized_reencode_of_decoded_state_is_identity() {
        // Idempotence: decoding the stored state and re-encoding it must
        // reproduce the same bits, so churn without new extrema cannot
        // drift boxes or mantissas.
        let pts = vec![vec![0.37, -4.2], vec![6.1, 0.05], vec![2.2, 2.2]];
        let s = QuantizedSummary::from_points(&pts, 2).unwrap();
        let ls: Vec<f64> = (0..2).map(|d| s.linear_sum_at(d)).collect();
        let ss: Vec<f64> = (0..2).map(|d| s.squared_sum_at(d)).collect();
        let lo: Vec<f64> = (0..2).map(|d| s.lower_at(d)).collect();
        let hi: Vec<f64> = (0..2).map(|d| s.upper_at(d)).collect();
        let again = QuantizedSummary::encode(s.n, &ls, &ss, &lo, &hi);
        assert_eq!(s.cf_q, again.cf_q);
        assert_eq!(s.corners, again.corners);
        assert_eq!(s.ls_step, again.ls_step);
        assert_eq!(s.ss_step, again.ss_step);
    }

    #[test]
    fn quantized_gaussian_matches_the_decoded_cf() {
        let pts: Vec<Vec<f64>> = (0..12).map(|i| vec![i as f64 * 0.5, 3.0]).collect();
        let s = QuantizedSummary::from_points(&pts, 2).unwrap();
        let g = s.gaussian();
        let cf = s.exact_cf();
        let reference = cf.to_gaussian();
        assert_eq!(g.mean(), reference.mean());
        assert_eq!(g.variance(), reference.variance());
    }
}
