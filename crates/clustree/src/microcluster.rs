//! Micro-clusters: decaying cluster features with timestamps.
//!
//! The "temporal multiplicity" idea of Section 4.2: by multiplying a cluster
//! feature's components with an exponential decay factor `2^(-lambda * dt)`
//! the influence of old data fades, while additivity — and therefore cheap
//! aggregation in inner nodes — is preserved.

use bt_index::Mbr;
use bt_stats::{ClusterFeature, DiagGaussian};

/// A cluster feature plus the timestamp of its last update and the MBR of
/// every point the cluster ever absorbed.
///
/// The MBR exists for the query side: a bounding box yields the
/// distance-aware `weight * K(nearest point of box)` upper density bound and
/// the smoothing-aware farthest-corner lower bound.  Every micro-cluster is
/// built from a point ([`MicroCluster::from_point`]) and grows only by
/// absorbing points and merging with other micro-clusters, so a cluster's
/// box is the union of its parts and the boxes **nest** up the tree —
/// exactly the monotonicity contract the anytime query engine requires
/// (`ClusTree::validate` checks it).  The box never shrinks (decay fades
/// weights, not extents), so it stays a conservative superset of the
/// remaining mass.
#[derive(Debug)]
pub struct MicroCluster {
    cf: ClusterFeature,
    last_update: f64,
    mbr: Mbr,
}

impl Clone for MicroCluster {
    fn clone(&self) -> Self {
        Self {
            cf: self.cf.clone(),
            last_update: self.last_update,
            mbr: self.mbr.clone(),
        }
    }

    /// Field-wise, so a recycled micro-cluster keeps its buffers.
    fn clone_from(&mut self, source: &Self) {
        self.cf.clone_from(&source.cf);
        self.last_update = source.last_update;
        self.mbr.clone_from(&source.mbr);
    }
}

impl MicroCluster {
    /// Creates a micro-cluster summarising a single point observed at `now`.
    #[must_use]
    pub fn from_point(point: &[f64], now: f64) -> Self {
        Self {
            cf: ClusterFeature::from_point(point),
            last_update: now,
            mbr: Mbr::from_point(point),
        }
    }

    /// The bounding box of every point this cluster ever absorbed.
    /// Conservative under decay (never shrinks).
    #[must_use]
    pub fn mbr(&self) -> &Mbr {
        &self.mbr
    }

    /// The underlying (not yet decayed) cluster feature.
    #[must_use]
    pub fn cf(&self) -> &ClusterFeature {
        &self.cf
    }

    /// Timestamp of the last update.
    #[must_use]
    pub fn last_update(&self) -> f64 {
        self.last_update
    }

    /// Dimensionality of the summarised points.
    #[must_use]
    pub fn dims(&self) -> usize {
        self.cf.dims()
    }

    /// Whether the micro-cluster currently summarises (essentially) nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cf.is_empty()
    }

    /// Applies exponential decay up to time `now` with decay rate `lambda`
    /// and advances the timestamp.  A `lambda` of 0 disables decay.
    pub fn decay_to(&mut self, now: f64, lambda: f64) {
        if lambda <= 0.0 {
            self.last_update = self.last_update.max(now);
            return;
        }
        if let Some(factor) = self.decay_factor(now, lambda) {
            self.cf.decay(factor);
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
            return self.cf.weight();
        }
        let dt = (now - self.last_update).max(0.0);
        self.cf.weight() * (2.0f64).powf(-lambda * dt)
    }

    /// Current (undecayed) weight.
    #[must_use]
    pub fn weight(&self) -> f64 {
        self.cf.weight()
    }

    /// Centre of the micro-cluster.
    #[must_use]
    pub fn center(&self) -> Vec<f64> {
        self.cf.mean()
    }

    /// RMS radius of the micro-cluster.
    #[must_use]
    pub fn radius(&self) -> f64 {
        self.cf.radius()
    }

    /// The Gaussian summarising the micro-cluster.
    #[must_use]
    pub fn gaussian(&self) -> DiagGaussian {
        self.cf.to_gaussian()
    }

    /// Absorbs a single point observed at `now`, decaying first with
    /// `lambda`; the box extends to cover the point.
    pub fn insert(&mut self, point: &[f64], now: f64, lambda: f64) {
        self.decay_to(now, lambda);
        self.cf.insert(point);
        self.mbr.extend_point(point);
    }

    /// Merges another micro-cluster into this one; both are decayed to the
    /// later of the two timestamps first.  The box grows in place to the
    /// union of both parts (the nesting the query bounds rely on).
    pub fn merge(&mut self, other: &MicroCluster, lambda: f64) {
        let now = self.last_update.max(other.last_update);
        self.decay_to(now, lambda);
        match other.decay_factor(now, lambda) {
            Some(factor) => {
                let mut cf = other.cf.clone();
                cf.decay(factor);
                self.cf.merge(&cf);
            }
            None => self.cf.merge(&other.cf),
        }
        self.mbr.extend_mbr(&other.mbr);
    }

    /// Squared Euclidean distance from the centre to a point, computed
    /// without materialising the centre vector.
    #[must_use]
    pub fn sq_dist_to(&self, point: &[f64]) -> f64 {
        self.cf.sq_dist_mean_to(point)
    }

    /// Writes the centre into `out` (cleared and refilled) — the scratch
    /// variant used on the descent hot path.
    pub fn center_into(&self, out: &mut Vec<f64>) {
        self.cf.mean_into(out);
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

    /// Micro-clusters route by squared centre distance, and
    /// [`MicroCluster::center_into`] reproduces
    /// [`ClusterFeature::sq_dist_mean_to`](bt_stats::ClusterFeature::sq_dist_mean_to)'s
    /// arithmetic exactly (`ls * (1/n)`, zeros when empty), so descent may
    /// gather all entry centres into one structure-of-arrays block and pick
    /// subtrees with the vectorized distance kernel — bit-identically to
    /// the scalar scan.
    const CENTER_ROUTED: bool = true;

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

    fn center_into(&self, out: &mut Vec<f64>) {
        MicroCluster::center_into(self, out);
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
        assert_eq!(a.mbr().lower(), &[0.0, -1.0]);
        assert_eq!(a.mbr().upper(), &[2.0, 0.0]);

        let b = MicroCluster::from_point(&[-3.0, 5.0], 1.0);
        let mut merged = a.clone();
        merged.merge(&b, 0.0);
        let union = merged.mbr();
        assert_eq!(union.lower(), &[-3.0, -1.0]);
        assert_eq!(union.upper(), &[2.0, 5.0]);
        // The merged box contains both parts — the nesting the query
        // engine's monotone upper bound relies on.
        assert!(union.contains_mbr(a.mbr()));
        assert!(union.contains_mbr(b.mbr()));
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
        assert_eq!(mc.mbr().lower(), &[1.0, 2.0]);
    }
}
