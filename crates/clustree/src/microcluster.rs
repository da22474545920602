//! Micro-clusters: decaying cluster features with timestamps.
//!
//! The "temporal multiplicity" idea of Section 4.2: by multiplying a cluster
//! feature's components with an exponential decay factor `2^(-lambda * dt)`
//! the influence of old data fades, while additivity — and therefore cheap
//! aggregation in inner nodes — is preserved.
//!
//! A micro-cluster is one row: its weight `n`, its timestamp and one
//! buffer laid out `[LS | SS | lower | upper]` (the cluster feature's
//! linear and squared sums, then the box corners), `dims` values each.
//! Building or cloning one allocates once, and every update is one pass
//! over that buffer.  Each element keeps the expression and order of
//! [`ClusterFeature`](bt_stats::ClusterFeature) and
//! [`Mbr`](bt_index::Mbr) (`crates/clustree/tests/row_oracle.rs` holds
//! the row to their bits).

use bt_stats::vector::sq_norm;
use bt_stats::{DiagGaussian, VARIANCE_FLOOR};

/// A cluster feature plus the timestamp of its last update and the MBR of
/// every point the cluster ever absorbed.
///
/// The box exists for the query side: it yields the distance-aware
/// `weight * K(nearest point of box)` upper density bound and the
/// smoothing-aware farthest-corner lower bound.  Every micro-cluster is
/// built from a point ([`MicroCluster::from_point`]) and grows only by
/// absorbing points and merging with other micro-clusters, so a cluster's
/// box is the union of its parts and the boxes **nest** up the tree —
/// exactly the monotonicity contract the anytime query engine requires
/// (`ClusTree::validate` checks it).  The box never shrinks (decay fades
/// weights, not extents), so it stays a conservative superset of the
/// remaining mass.
#[derive(Debug)]
pub struct MicroCluster {
    /// (Possibly decayed) number of summarised objects.
    n: f64,
    last_update: f64,
    /// `[LS | SS | lower | upper]`, `dims` values each.
    row: Vec<f64>,
}

impl Clone for MicroCluster {
    fn clone(&self) -> Self {
        Self {
            n: self.n,
            last_update: self.last_update,
            row: self.row.clone(),
        }
    }

    /// One copy into the existing row, so a recycled micro-cluster keeps
    /// its buffer.
    fn clone_from(&mut self, source: &Self) {
        self.n = source.n;
        self.last_update = source.last_update;
        self.row.clone_from(&source.row);
    }
}

impl MicroCluster {
    /// Creates a micro-cluster summarising a single point observed at `now`.
    #[must_use]
    pub fn from_point(point: &[f64], now: f64) -> Self {
        let mut row = Vec::with_capacity(4 * point.len());
        row.extend_from_slice(point);
        row.extend(point.iter().map(|x| x * x));
        row.extend_from_slice(point);
        row.extend_from_slice(point);
        Self {
            n: 1.0,
            last_update: now,
            row,
        }
    }

    /// The linear sum `LS` of the (not yet decayed) cluster feature.
    #[must_use]
    pub fn linear_sum(&self) -> &[f64] {
        &self.row[..self.dims()]
    }

    /// The squared sum `SS` of the (not yet decayed) cluster feature.
    #[must_use]
    pub fn squared_sum(&self) -> &[f64] {
        let d = self.dims();
        &self.row[d..2 * d]
    }

    /// The lower corner of the box of every point this cluster ever
    /// absorbed.  Conservative under decay (never shrinks).
    #[must_use]
    pub fn lower(&self) -> &[f64] {
        let d = self.dims();
        &self.row[2 * d..3 * d]
    }

    /// The upper corner of the box of every point this cluster ever
    /// absorbed.  Conservative under decay (never shrinks).
    #[must_use]
    pub fn upper(&self) -> &[f64] {
        &self.row[3 * self.dims()..]
    }

    /// Whether this cluster's box contains `other`'s.
    #[must_use]
    pub(crate) fn box_contains(&self, other: &MicroCluster) -> bool {
        let d = self.dims();
        let (lower, upper) = self.row[2 * d..].split_at(d);
        let (other_lower, other_upper) = other.row[2 * d..].split_at(d);
        lower.iter().zip(other_lower).all(|(l, o)| o >= l)
            && upper.iter().zip(other_upper).all(|(u, o)| o <= u)
    }

    /// Whether the weight, both sums and both corners are finite.
    #[must_use]
    pub(crate) fn is_finite(&self) -> bool {
        self.n.is_finite() && self.row.iter().all(|x| x.is_finite())
    }

    /// Timestamp of the last update.
    #[must_use]
    pub fn last_update(&self) -> f64 {
        self.last_update
    }

    /// Dimensionality of the summarised points.
    #[must_use]
    pub fn dims(&self) -> usize {
        self.row.len() / 4
    }

    /// Whether the micro-cluster currently summarises (essentially) nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.n <= f64::EPSILON
    }

    /// Applies exponential decay up to time `now` with decay rate `lambda`
    /// and advances the timestamp.  A `lambda` of 0 disables decay.
    pub fn decay_to(&mut self, now: f64, lambda: f64) {
        if lambda <= 0.0 {
            self.last_update = self.last_update.max(now);
            return;
        }
        if let Some(factor) = self.decay_factor(now, lambda) {
            debug_assert!((0.0..=1.0).contains(&factor));
            self.n *= factor;
            let sums = 2 * self.dims();
            for x in &mut self.row[..sums] {
                *x *= factor;
            }
            self.last_update = now;
        }
    }

    /// The factor decaying this cluster to `now` would scale its CF by, or
    /// `None` when it would not change (no decay, or `now` not later than
    /// the last update).
    fn decay_factor(&self, now: f64, lambda: f64) -> Option<f64> {
        let dt = now - self.last_update;
        if lambda <= 0.0 || dt <= 0.0 {
            return None;
        }
        Some((2.0f64).powf(-lambda * dt))
    }

    /// The weight the micro-cluster would have after decaying to `now`
    /// (without mutating it).
    #[must_use]
    pub fn weight_at(&self, now: f64, lambda: f64) -> f64 {
        if lambda <= 0.0 {
            return self.n;
        }
        let dt = (now - self.last_update).max(0.0);
        self.n * (2.0f64).powf(-lambda * dt)
    }

    /// Current (undecayed) weight.
    #[must_use]
    pub fn weight(&self) -> f64 {
        self.n
    }

    /// Centre of the micro-cluster, `ls / n` (zeros when empty).
    #[must_use]
    pub fn center(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.dims()];
        self.write_center(&mut out);
        out
    }

    /// Writes [`Self::center`] into `out`, which holds `dims` values.
    pub(crate) fn write_center(&self, out: &mut [f64]) {
        debug_assert_eq!(out.len(), self.dims());
        if self.is_empty() {
            out.fill(0.0);
            return;
        }
        let n = self.n;
        for (c, l) in out.iter_mut().zip(self.linear_sum()) {
            *c = l / n;
        }
    }

    /// RMS radius of the micro-cluster: the root of the summed
    /// per-dimension variances `SS / n - (LS / n)^2`, each floored at
    /// [`VARIANCE_FLOOR`]; 0 when empty.
    #[must_use]
    pub fn radius(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        let var_sum: f64 = self.variances().sum();
        var_sum.max(0.0).sqrt()
    }

    /// The floored per-dimension variances of a non-empty cluster.
    fn variances(&self) -> impl Iterator<Item = f64> + '_ {
        let n = self.n;
        self.linear_sum()
            .iter()
            .zip(self.squared_sum())
            .map(move |(ls, ss)| {
                let mean = ls / n;
                (ss / n - mean * mean).max(VARIANCE_FLOOR)
            })
    }

    /// The Gaussian summarising the micro-cluster.
    #[must_use]
    pub fn gaussian(&self) -> DiagGaussian {
        let variance = if self.is_empty() {
            vec![VARIANCE_FLOOR; self.dims()]
        } else {
            self.variances().collect()
        };
        DiagGaussian::new(self.center(), variance)
    }

    /// Absorbs a single point observed at `now`, decaying first with
    /// `lambda`; the box extends to cover the point.
    pub fn insert(&mut self, point: &[f64], now: f64, lambda: f64) {
        self.decay_to(now, lambda);
        let d = self.dims();
        debug_assert_eq!(point.len(), d);
        self.n += 1.0;
        let (ls, rest) = self.row.split_at_mut(d);
        let (ss, rest) = rest.split_at_mut(d);
        let (lower, upper) = rest.split_at_mut(d);
        for ((((ls, ss), lo), hi), &p) in ls.iter_mut().zip(ss).zip(lower).zip(upper).zip(point) {
            *ls += p;
            *ss += p * p;
            *lo = lo.min(p);
            *hi = hi.max(p);
        }
    }

    /// Merges another micro-cluster into this one; both are decayed to the
    /// later of the two timestamps first.  The box grows in place to the
    /// union of both parts (the nesting the query bounds rely on).
    pub fn merge(&mut self, other: &MicroCluster, lambda: f64) {
        let now = self.last_update.max(other.last_update);
        self.decay_to(now, lambda);
        match other.decay_factor(now, lambda) {
            Some(factor) => self.absorb(other, |x| x * factor),
            None => self.absorb(other, |x| x),
        }
    }

    /// Adds `scale` of `other`'s weight and sums and grows the box over
    /// `other`'s.
    #[inline(always)]
    fn absorb(&mut self, other: &MicroCluster, scale: impl Fn(f64) -> f64) {
        let d = self.dims();
        debug_assert_eq!(other.dims(), d);
        self.n += scale(other.n);
        let (sums, bounds) = self.row.split_at_mut(2 * d);
        let (other_sums, other_bounds) = other.row.split_at(2 * d);
        for (x, &o) in sums.iter_mut().zip(other_sums) {
            *x += scale(o);
        }
        let (lower, upper) = bounds.split_at_mut(d);
        let (other_lower, other_upper) = other_bounds.split_at(d);
        for (lo, &o) in lower.iter_mut().zip(other_lower) {
            *lo = lo.min(o);
        }
        for (hi, &o) in upper.iter_mut().zip(other_upper) {
            *hi = hi.max(o);
        }
    }

    /// Squared Euclidean distance from the centre to a point, computed
    /// without materialising the centre vector: `(ls * (1/n) - p)^2`
    /// summed, the squared norm of the point when empty.
    #[must_use]
    pub fn sq_dist_to(&self, point: &[f64]) -> f64 {
        debug_assert_eq!(point.len(), self.dims());
        if self.is_empty() {
            return sq_norm(point);
        }
        let inv_n = 1.0 / self.n;
        self.linear_sum()
            .iter()
            .zip(point)
            .map(|(ls, p)| {
                let diff = ls * inv_n - p;
                diff * diff
            })
            .sum()
    }

    /// Writes the routing centre `ls * (1/n)` (zeros when empty) into
    /// `out` (cleared and refilled), with [`Self::sq_dist_to`]'s
    /// arithmetic: the point a descending micro-cluster is routed by
    /// (`ClusModel::route_point`), written without allocating.
    pub fn center_into(&self, out: &mut Vec<f64>) {
        out.clear();
        if self.is_empty() {
            out.resize(self.dims(), 0.0);
            return;
        }
        let inv_n = 1.0 / self.n;
        out.extend(self.linear_sum().iter().map(|x| x * inv_n));
    }
}

/// The temporal context threaded through the shared tree core: the current
/// timestamp and the decay rate `lambda`.
#[derive(Debug, Clone, Copy)]
pub struct DecayCtx {
    /// The timestamp summaries are decayed to.
    pub now: f64,
    /// Exponential decay rate `lambda` (0 disables decay).
    pub lambda: f64,
}

impl bt_anytree::Summary for MicroCluster {
    type Ctx = DecayCtx;
    type Dir = Vec<bt_anytree::Entry<MicroCluster>>;

    fn merge(&mut self, other: &Self, ctx: DecayCtx) {
        MicroCluster::merge(self, other, ctx.lambda);
    }

    fn weight(&self) -> f64 {
        MicroCluster::weight(self)
    }

    fn refresh(&mut self, ctx: DecayCtx) {
        self.decay_to(ctx.now, ctx.lambda);
    }

    fn sq_dist_to(&self, point: &[f64]) -> f64 {
        MicroCluster::sq_dist_to(self, point)
    }

    fn center(&self) -> Vec<f64> {
        MicroCluster::center(self)
    }

    fn write_center(&self, out: &mut [f64]) {
        MicroCluster::write_center(self, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decay_halves_weight_after_half_life() {
        let mut mc = MicroCluster::from_point(&[1.0, 2.0], 0.0);
        mc.decay_to(1.0, 1.0); // lambda 1 => half-life of 1 time unit
        assert!((mc.weight() - 0.5).abs() < 1e-12);
        // Mean is unchanged by decay.
        assert_eq!(mc.center(), vec![1.0, 2.0]);
    }

    #[test]
    fn zero_lambda_disables_decay() {
        let mut mc = MicroCluster::from_point(&[1.0], 0.0);
        mc.decay_to(100.0, 0.0);
        assert_eq!(mc.weight(), 1.0);
    }

    #[test]
    fn weight_at_does_not_mutate() {
        let mc = MicroCluster::from_point(&[0.0], 0.0);
        let w = mc.weight_at(2.0, 1.0);
        assert!((w - 0.25).abs() < 1e-12);
        assert_eq!(mc.weight(), 1.0);
    }

    #[test]
    fn insert_decays_then_adds() {
        let mut mc = MicroCluster::from_point(&[0.0], 0.0);
        mc.insert(&[4.0], 1.0, 1.0);
        // Old point decayed to weight 0.5, new point weight 1 => total 1.5.
        assert!((mc.weight() - 1.5).abs() < 1e-12);
        // Mean = (0.5*0 + 1*4) / 1.5
        assert!((mc.center()[0] - 4.0 / 1.5).abs() < 1e-12);
    }

    #[test]
    fn merge_aligns_timestamps() {
        let a = MicroCluster::from_point(&[0.0], 0.0);
        let b = MicroCluster::from_point(&[2.0], 2.0);
        let mut merged = a.clone();
        merged.merge(&b, 1.0);
        // a decayed by 2 half-lives -> 0.25; b weight 1 -> total 1.25.
        assert!((merged.weight() - 1.25).abs() < 1e-12);
        assert_eq!(merged.last_update(), 2.0);
    }

    #[test]
    fn older_updates_do_not_rewind_time() {
        let mut mc = MicroCluster::from_point(&[0.0], 5.0);
        mc.decay_to(3.0, 1.0);
        assert_eq!(mc.last_update(), 5.0);
        assert_eq!(mc.weight(), 1.0);
    }

    #[test]
    fn sq_dist_uses_center() {
        let mut mc = MicroCluster::from_point(&[0.0, 0.0], 0.0);
        mc.insert(&[2.0, 0.0], 0.0, 0.0);
        assert!((mc.sq_dist_to(&[1.0, 0.0]) - 0.0).abs() < 1e-12);
    }

    #[test]
    fn mbr_tracks_every_absorbed_point_and_unions_on_merge() {
        let mut a = MicroCluster::from_point(&[0.0, 0.0], 0.0);
        a.insert(&[2.0, -1.0], 0.0, 0.0);
        assert_eq!(a.lower(), &[0.0, -1.0]);
        assert_eq!(a.upper(), &[2.0, 0.0]);

        let b = MicroCluster::from_point(&[-3.0, 5.0], 1.0);
        let mut merged = a.clone();
        merged.merge(&b, 0.0);
        assert_eq!(merged.lower(), &[-3.0, -1.0]);
        assert_eq!(merged.upper(), &[2.0, 5.0]);
        // The merged box contains both parts — the nesting the query
        // engine's monotone upper bound relies on.
        assert!(merged.box_contains(&a));
        assert!(merged.box_contains(&b));
        assert!(!a.box_contains(&merged));
    }

    #[test]
    fn mbr_survives_decay_and_is_absent_for_bare_cfs() {
        // Every micro-cluster is built from a point and carries its box, so
        // a box-less (bare-CF) cluster cannot be constructed at all; what is
        // left to check is that decay keeps the box.
        let mut mc = MicroCluster::from_point(&[1.0, 2.0], 0.0);
        mc.decay_to(10.0, 1.0);
        // Decay fades weight, never the extent: the box stays a superset.
        assert!(mc.weight() < 1e-2);
        assert_eq!(mc.lower(), &[1.0, 2.0]);
        assert_eq!(mc.upper(), &[1.0, 2.0]);
    }
}
