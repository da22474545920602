//! Cluster features `CF = (n, LS, SS)` — the sufficient statistics stored in
//! every Bayes-tree entry (Definition 1 of the paper).
//!
//! A cluster feature summarises a set of `d`-dimensional points by their
//! count `n`, linear sum `LS` and squared sum `SS`.  From it the mean
//! (`LS / n`) and the per-dimension variance (`SS / n - (LS / n)^2`) of the
//! set are recovered, which is exactly what the Bayes tree needs to place a
//! Gaussian over a whole subtree.  Cluster features are *additive*: the CF of
//! a union of disjoint sets is the sum of their CFs, which is what makes
//! bottom-up directory construction and incremental maintenance cheap.
//!
//! For the stream-clustering extension (Section 4.2) the CF additionally
//! supports *exponential decay*: multiplying `n`, `LS` and `SS` by a factor
//! `2^(-lambda * dt)` ages the statistics without touching their additivity.
//!
//! **Stored precision.**  The `LS` / `SS` components are generic over a
//! [`ColumnElement`] storage type (default `f64`, bit-identical to the
//! historical behaviour).  A `ClusterFeature<f32>` stores the sums
//! half-width — halving the entry's memory footprint and the bytes every
//! gather, copy-on-write and snapshot pin streams — while **every arithmetic
//! operation still runs in `f64`**: operands are widened on read and results
//! quantised (round to nearest) on write.  The count `n` always stays `f64`
//! so weights, and therefore mixture normalisation, never lose precision.

use crate::block::ColumnElement;
use crate::gaussian::DiagGaussian;
use crate::VARIANCE_FLOOR;

/// The mean `LS/n` and the raw variance `SS/n - (LS/n)^2` of one dimension
/// of a cluster feature: unfloored (it may round below zero), and NaN when
/// it is not finite.
///
/// The one decode of a dimension that the Bayes-tree gathers and the
/// scalar reference of its cluster-feature bounds share, so the two agree
/// bit for bit.  Flooring it at [`VARIANCE_FLOOR`] (NaN to the floor) gives
/// the variance the summary's [`DiagGaussian`] reads.
#[must_use]
pub fn raw_moments(ls: f64, ss: f64, n: f64) -> (f64, f64) {
    let mean = ls / n;
    let var = ss / n - mean * mean;
    (mean, if var.is_finite() { var } else { f64::NAN })
}

/// Additive sufficient statistics of a set of points, stored at element
/// precision `E` (see the [module docs](self) for the precision contract).
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterFeature<E: ColumnElement = f64> {
    /// Number of summarised objects (fractional once decay is applied).
    n: f64,
    /// Per-dimension linear sum of the objects.
    ls: Vec<E>,
    /// Per-dimension sum of squares of the objects.
    ss: Vec<E>,
}

impl<E: ColumnElement> ClusterFeature<E> {
    /// Creates an empty cluster feature of the given dimensionality.
    #[must_use]
    pub fn empty(dims: usize) -> Self {
        Self {
            n: 0.0,
            ls: vec![E::narrow(0.0); dims],
            ss: vec![E::narrow(0.0); dims],
        }
    }

    /// Creates a cluster feature summarising a single point.
    #[must_use]
    pub fn from_point(point: &[f64]) -> Self {
        Self {
            n: 1.0,
            ls: point.iter().map(|x| E::narrow(*x)).collect(),
            ss: point.iter().map(|x| E::narrow(x * x)).collect(),
        }
    }

    /// Creates a cluster feature from raw parts.
    ///
    /// # Panics
    ///
    /// Panics if `ls` and `ss` have different lengths or `n` is negative.
    #[must_use]
    pub fn from_parts(n: f64, ls: Vec<E>, ss: Vec<E>) -> Self {
        assert_eq!(
            ls.len(),
            ss.len(),
            "LS and SS must have the same dimensionality"
        );
        assert!(n >= 0.0, "object count must be non-negative");
        Self { n, ls, ss }
    }

    /// Creates a cluster feature summarising all `points`.
    #[must_use]
    pub fn from_points<'a, I>(points: I, dims: usize) -> Self
    where
        I: IntoIterator<Item = &'a [f64]>,
    {
        let mut cf = Self::empty(dims);
        for p in points {
            cf.insert(p);
        }
        cf
    }

    /// Re-quantises into another storage precision (widen, then narrow; the
    /// identity when `E == F`).
    #[must_use]
    pub fn to_precision<F: ColumnElement>(&self) -> ClusterFeature<F> {
        ClusterFeature {
            n: self.n,
            ls: self.ls.iter().map(|x| F::narrow(x.widen())).collect(),
            ss: self.ss.iter().map(|x| F::narrow(x.widen())).collect(),
        }
    }

    /// Dimensionality of the summarised points.
    #[must_use]
    pub fn dims(&self) -> usize {
        self.ls.len()
    }

    /// (Possibly decayed) number of summarised objects.
    #[must_use]
    pub fn weight(&self) -> f64 {
        self.n
    }

    /// The linear-sum component `LS` (at storage precision).
    #[must_use]
    pub fn linear_sum(&self) -> &[E] {
        &self.ls
    }

    /// The squared-sum component `SS` (at storage precision).
    #[must_use]
    pub fn squared_sum(&self) -> &[E] {
        &self.ss
    }

    /// Whether the feature currently summarises (essentially) nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.n <= f64::EPSILON
    }

    /// Adds a single point to the summary (accumulation in `f64`, quantised
    /// on write).
    pub fn insert(&mut self, point: &[f64]) {
        debug_assert_eq!(point.len(), self.dims());
        self.n += 1.0;
        for ((ls, ss), p) in self.ls.iter_mut().zip(&mut self.ss).zip(point) {
            *ls = E::narrow(ls.widen() + p);
            *ss = E::narrow(ss.widen() + p * p);
        }
    }

    /// Adds another cluster feature to the summary (CF additivity).
    pub fn merge(&mut self, other: &Self) {
        debug_assert_eq!(other.dims(), self.dims());
        self.n += other.n;
        for d in 0..self.ls.len() {
            self.ls[d] = E::narrow(self.ls[d].widen() + other.ls[d].widen());
            self.ss[d] = E::narrow(self.ss[d].widen() + other.ss[d].widen());
        }
    }

    /// Subtracts another cluster feature from the summary.
    ///
    /// Used when an entry is moved between nodes.  Values are clamped at zero
    /// to guard against floating-point drift.
    pub fn subtract(&mut self, other: &Self) {
        debug_assert_eq!(other.dims(), self.dims());
        self.n = (self.n - other.n).max(0.0);
        for d in 0..self.ls.len() {
            self.ls[d] = E::narrow(self.ls[d].widen() - other.ls[d].widen());
            self.ss[d] = E::narrow(self.ss[d].widen() - other.ss[d].widen());
        }
    }

    /// Mean vector `LS / n` of the summarised points (always `f64`).
    ///
    /// Returns a zero vector for an empty feature.
    #[must_use]
    pub fn mean(&self) -> Vec<f64> {
        if self.is_empty() {
            return vec![0.0; self.dims()];
        }
        self.ls.iter().map(|x| x.widen() / self.n).collect()
    }

    /// Writes the mean vector into `out` (cleared and refilled), so the
    /// descent hot path can reuse one scratch buffer instead of allocating a
    /// fresh centre per visited node.
    pub fn mean_into(&self, out: &mut Vec<f64>) {
        if self.is_empty() {
            out.clear();
            out.resize(self.dims(), 0.0);
            return;
        }
        // Same expression as `vector::scale_into(ls, 1.0 / n, out)`: the
        // routing-centre arithmetic `ls * (1/n)` must match
        // `sq_dist_mean_to` exactly (see the `Summary::center_into`
        // contract in `bt_anytree`).
        let inv_n = 1.0 / self.n;
        out.clear();
        out.extend(self.ls.iter().map(|x| x.widen() * inv_n));
    }

    /// Squared Euclidean distance from the mean to `point`, computed without
    /// materialising the mean vector (the routing measure of the anytime
    /// descent).
    #[must_use]
    pub fn sq_dist_mean_to(&self, point: &[f64]) -> f64 {
        debug_assert_eq!(point.len(), self.dims());
        if self.is_empty() {
            return crate::vector::sq_norm(point);
        }
        let inv_n = 1.0 / self.n;
        self.ls
            .iter()
            .zip(point)
            .map(|(ls, p)| {
                let diff = ls.widen() * inv_n - p;
                diff * diff
            })
            .sum()
    }

    /// Per-dimension variance `SS / n - (LS / n)^2` of the summarised points
    /// (always `f64`).
    ///
    /// Clamped below at [`VARIANCE_FLOOR`]; returns the floor for an empty
    /// feature.
    #[must_use]
    pub fn variance(&self) -> Vec<f64> {
        if self.is_empty() {
            return vec![VARIANCE_FLOOR; self.dims()];
        }
        self.ls
            .iter()
            .zip(&self.ss)
            .map(|(ls, ss)| {
                let mean = ls.widen() / self.n;
                (ss.widen() / self.n - mean * mean).max(VARIANCE_FLOOR)
            })
            .collect()
    }

    /// Per-dimension `(mean, raw variance)` of the summarised points, the
    /// variance unfloored ([`raw_moments`]); `(0, VARIANCE_FLOOR)` in every
    /// dimension of an empty feature.
    pub fn raw_moments(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        let empty = self.is_empty();
        self.ls.iter().zip(&self.ss).map(move |(ls, ss)| {
            if empty {
                (0.0, VARIANCE_FLOOR)
            } else {
                raw_moments(ls.widen(), ss.widen(), self.n)
            }
        })
    }

    /// The Gaussian `N(LS/n, SS/n - (LS/n)^2)` represented by this feature.
    #[must_use]
    pub fn to_gaussian(&self) -> DiagGaussian {
        DiagGaussian::new(self.mean(), self.variance())
    }

    /// Applies exponential decay with factor `factor in (0, 1]` to all three
    /// components (Section 4.2: "decrease the influence of older data ... by
    /// an exponential decay function").
    pub fn decay(&mut self, factor: f64) {
        debug_assert!((0.0..=1.0).contains(&factor));
        self.n *= factor;
        for d in 0..self.ls.len() {
            self.ls[d] = E::narrow(self.ls[d].widen() * factor);
            self.ss[d] = E::narrow(self.ss[d].widen() * factor);
        }
    }

    /// Radius of the summarised points: root-mean-square distance from the
    /// mean, a standard micro-cluster compactness measure.
    #[must_use]
    pub fn radius(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        let var_sum: f64 = self.variance().iter().sum();
        var_sum.max(0.0).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_point_mean_is_the_point() {
        let cf: ClusterFeature = ClusterFeature::from_point(&[1.0, 2.0, 3.0]);
        assert_eq!(cf.mean(), vec![1.0, 2.0, 3.0]);
        assert_eq!(cf.weight(), 1.0);
    }

    #[test]
    fn mean_and_variance_match_direct_formulas() {
        let pts: Vec<Vec<f64>> = vec![vec![0.0, 1.0], vec![2.0, 3.0], vec![4.0, 5.0]];
        let cf: ClusterFeature = ClusterFeature::from_points(pts.iter().map(Vec::as_slice), 2);
        assert_eq!(cf.mean(), vec![2.0, 3.0]);
        let var = cf.variance();
        // Population variance of {0,2,4} is 8/3.
        assert!((var[0] - 8.0 / 3.0).abs() < 1e-12);
        assert!((var[1] - 8.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn additivity_merge_equals_union() {
        let a: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64, (i * i) as f64]).collect();
        let b: Vec<Vec<f64>> = (10..25).map(|i| vec![i as f64, (i * 2) as f64]).collect();
        let mut cf_a: ClusterFeature = ClusterFeature::from_points(a.iter().map(Vec::as_slice), 2);
        let cf_b: ClusterFeature = ClusterFeature::from_points(b.iter().map(Vec::as_slice), 2);
        let all: Vec<Vec<f64>> = a.iter().chain(b.iter()).cloned().collect();
        let cf_all: ClusterFeature = ClusterFeature::from_points(all.iter().map(Vec::as_slice), 2);
        cf_a.merge(&cf_b);
        assert!((cf_a.weight() - cf_all.weight()).abs() < 1e-9);
        for d in 0..2 {
            assert!((cf_a.linear_sum()[d] - cf_all.linear_sum()[d]).abs() < 1e-9);
            assert!((cf_a.squared_sum()[d] - cf_all.squared_sum()[d]).abs() < 1e-9);
        }
    }

    #[test]
    fn subtract_inverts_merge() {
        let mut cf: ClusterFeature = ClusterFeature::from_point(&[1.0, 1.0]);
        let other: ClusterFeature = ClusterFeature::from_point(&[3.0, -1.0]);
        cf.merge(&other);
        cf.subtract(&other);
        assert!((cf.weight() - 1.0).abs() < 1e-12);
        assert!((cf.mean()[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn decay_reduces_weight_but_keeps_mean() {
        let pts: Vec<Vec<f64>> = vec![vec![2.0], vec![4.0]];
        let mut cf: ClusterFeature = ClusterFeature::from_points(pts.iter().map(Vec::as_slice), 1);
        let mean_before = cf.mean();
        cf.decay(0.5);
        assert!((cf.weight() - 1.0).abs() < 1e-12);
        assert_eq!(cf.mean(), mean_before);
    }

    #[test]
    fn empty_feature_is_safe() {
        let cf: ClusterFeature = ClusterFeature::empty(3);
        assert!(cf.is_empty());
        assert_eq!(cf.mean(), vec![0.0; 3]);
        assert!(cf.variance().iter().all(|v| *v >= VARIANCE_FLOOR));
        assert_eq!(cf.radius(), 0.0);
    }

    #[test]
    fn to_gaussian_round_trips_mean() {
        let pts: Vec<Vec<f64>> = vec![vec![1.0, 5.0], vec![3.0, 7.0]];
        let cf: ClusterFeature = ClusterFeature::from_points(pts.iter().map(Vec::as_slice), 2);
        let g = cf.to_gaussian();
        assert_eq!(g.mean(), &[2.0, 6.0][..]);
    }

    #[test]
    fn mean_into_and_sq_dist_match_mean() {
        let pts: Vec<Vec<f64>> = vec![vec![0.0, 1.0], vec![2.0, 3.0], vec![4.0, 5.0]];
        let cf: ClusterFeature = ClusterFeature::from_points(pts.iter().map(Vec::as_slice), 2);
        let mut scratch = Vec::new();
        cf.mean_into(&mut scratch);
        assert_eq!(scratch, cf.mean());
        let q = [7.0, -1.0];
        let direct = crate::vector::sq_dist(&cf.mean(), &q);
        assert!((cf.sq_dist_mean_to(&q) - direct).abs() < 1e-12);
    }

    #[test]
    fn empty_mean_into_is_zero_vector() {
        let cf: ClusterFeature = ClusterFeature::empty(3);
        let mut scratch = vec![9.0; 5];
        cf.mean_into(&mut scratch);
        assert_eq!(scratch, vec![0.0; 3]);
        assert_eq!(cf.sq_dist_mean_to(&[3.0, 4.0, 0.0]), 25.0);
    }

    #[test]
    fn radius_grows_with_spread() {
        let tight: ClusterFeature =
            ClusterFeature::from_points([vec![0.0], vec![0.1]].iter().map(Vec::as_slice), 1);
        let wide: ClusterFeature =
            ClusterFeature::from_points([vec![0.0], vec![10.0]].iter().map(Vec::as_slice), 1);
        assert!(wide.radius() > tight.radius());
    }

    #[test]
    fn f32_storage_accumulates_in_f64_and_quantises_on_write() {
        let pts: Vec<Vec<f64>> = (0..100)
            .map(|i| vec![0.1 * i as f64, 1.0 - 0.01 * i as f64])
            .collect();
        let wide: ClusterFeature = ClusterFeature::from_points(pts.iter().map(Vec::as_slice), 2);
        let narrow: ClusterFeature<f32> =
            ClusterFeature::from_points(pts.iter().map(Vec::as_slice), 2);
        // Weights are always full precision.
        assert_eq!(narrow.weight(), wide.weight());
        // Means and variances agree to f32 relative accuracy.
        for d in 0..2 {
            let rel = (narrow.mean()[d] - wide.mean()[d]).abs() / (1.0 + wide.mean()[d].abs());
            assert!(rel < 1e-5, "mean[{d}] rel err {rel}");
            let rel =
                (narrow.variance()[d] - wide.variance()[d]).abs() / (1.0 + wide.variance()[d]);
            assert!(rel < 1e-4, "var[{d}] rel err {rel}");
        }
    }

    #[test]
    fn precision_round_trip_is_lossless_from_f32() {
        let pts: Vec<Vec<f64>> = vec![vec![0.1, 0.7], vec![2.3, -1.9]];
        let narrow: ClusterFeature<f32> =
            ClusterFeature::from_points(pts.iter().map(Vec::as_slice), 2);
        let back: ClusterFeature<f32> = narrow.to_precision::<f64>().to_precision::<f32>();
        assert_eq!(narrow, back);
    }
}
