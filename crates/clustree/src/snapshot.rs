//! Pyramidal time frame for micro-cluster snapshots.
//!
//! Section 4.2: "Applying a pyramidal time frame as in \[CluStream\] guarantees
//! a moderate memory consumption even for long running applications."  The
//! store keeps snapshots at geometrically coarser granularities: order `i`
//! holds snapshots taken at times divisible by `alpha^i`, and at most
//! `alpha + 1` snapshots per order are retained.  Together with the
//! additivity of cluster features this allows approximate horizon queries
//! ("the clustering over the last `h` time units") at any point in time.

use crate::microcluster::MicroCluster;

/// One stored snapshot.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// The time the snapshot was taken.
    pub time: f64,
    /// The micro-clusters at that time.
    pub micro_clusters: Vec<MicroCluster>,
}

/// A pyramidal time frame snapshot store.
#[derive(Debug, Clone)]
pub struct SnapshotStore {
    alpha: u64,
    max_per_order: usize,
    /// `orders[i]` holds the snapshot times (ascending) retained at order `i`.
    orders: Vec<Vec<f64>>,
    snapshots: Vec<Snapshot>,
}

impl SnapshotStore {
    /// Creates a store with base `alpha` (the paper's and CluStream's usual
    /// choice is 2).
    ///
    /// # Panics
    ///
    /// Panics if `alpha < 2`.
    #[must_use]
    pub fn new(alpha: u64) -> Self {
        assert!(alpha >= 2, "alpha must be at least 2");
        Self {
            alpha,
            max_per_order: alpha as usize + 1,
            orders: Vec::new(),
            snapshots: Vec::new(),
        }
    }

    /// Number of retained snapshots.
    #[must_use]
    pub fn len(&self) -> usize {
        self.snapshots.len()
    }

    /// Whether the store holds no snapshots.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.snapshots.is_empty()
    }

    /// Records a snapshot taken at integer tick `tick` (snapshots are taken
    /// at unit intervals; fractional stream time should be quantised by the
    /// caller).
    pub fn record(&mut self, tick: u64, micro_clusters: Vec<MicroCluster>) {
        let order = self.order_of(tick);
        while self.orders.len() <= order {
            self.orders.push(Vec::new());
        }
        let time = tick as f64;
        self.orders[order].push(time);
        self.snapshots.push(Snapshot {
            time,
            micro_clusters,
        });
        // Evict the oldest snapshot of this order beyond the retention limit,
        // unless a higher order also retains that exact time.
        if self.orders[order].len() > self.max_per_order {
            let evicted_time = self.orders[order].remove(0);
            let retained_elsewhere = self
                .orders
                .iter()
                .enumerate()
                .any(|(o, times)| o != order && times.contains(&evicted_time));
            if !retained_elsewhere {
                self.snapshots.retain(|s| s.time != evicted_time);
            }
        }
    }

    /// The retained snapshot closest to (and not after) `time`, if any.
    #[must_use]
    pub fn closest_before(&self, time: f64) -> Option<&Snapshot> {
        self.snapshots
            .iter()
            .filter(|s| s.time <= time)
            .max_by(|a, b| {
                a.time
                    .partial_cmp(&b.time)
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
    }

    /// All retained snapshot times, ascending.
    #[must_use]
    pub fn times(&self) -> Vec<f64> {
        let mut t: Vec<f64> = self.snapshots.iter().map(|s| s.time).collect();
        t.sort_by(f64::total_cmp);
        t
    }

    /// The highest order `i` such that `alpha^i` divides `tick` (order 0 for
    /// ticks not divisible by `alpha`, and for tick 0).
    fn order_of(&self, tick: u64) -> usize {
        if tick == 0 {
            return 0;
        }
        let mut order = 0usize;
        let mut t = tick;
        while t.is_multiple_of(self.alpha) {
            order += 1;
            t /= self.alpha;
        }
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy_mcs(value: f64) -> Vec<MicroCluster> {
        vec![MicroCluster::from_point(&[value], value)]
    }

    #[test]
    fn order_assignment_follows_divisibility() {
        let store = SnapshotStore::new(2);
        assert_eq!(store.order_of(1), 0);
        assert_eq!(store.order_of(2), 1);
        assert_eq!(store.order_of(4), 2);
        assert_eq!(store.order_of(6), 1);
        assert_eq!(store.order_of(8), 3);
        assert_eq!(store.order_of(0), 0);
    }

    #[test]
    fn retention_is_logarithmic_in_stream_length() {
        let mut store = SnapshotStore::new(2);
        for tick in 0..1024 {
            store.record(tick, dummy_mcs(tick as f64));
        }
        // A pyramidal frame keeps O(alpha * log_alpha(T)) snapshots.
        assert!(store.len() <= 40, "kept {} snapshots", store.len());
        assert!(store.len() >= 10);
    }

    #[test]
    fn recent_snapshots_are_dense_old_ones_sparse() {
        let mut store = SnapshotStore::new(2);
        for tick in 0..512 {
            store.record(tick, dummy_mcs(tick as f64));
        }
        let times = store.times();
        let recent: Vec<f64> = times.iter().copied().filter(|&t| t >= 500.0).collect();
        let old: Vec<f64> = times.iter().copied().filter(|&t| t < 128.0).collect();
        assert!(recent.len() >= 3, "recent snapshots {recent:?}");
        assert!(old.len() <= 6, "old snapshots {old:?}");
    }

    #[test]
    fn closest_before_finds_latest_not_after() {
        let mut store = SnapshotStore::new(2);
        for tick in 0..100 {
            store.record(tick, dummy_mcs(tick as f64));
        }
        let snap = store.closest_before(77.5).unwrap();
        assert!(snap.time <= 77.5);
        // Whatever is retained, something at or after time 64 must exist.
        assert!(snap.time >= 64.0);
    }

    #[test]
    fn closest_before_start_is_none_or_zero() {
        let mut store = SnapshotStore::new(2);
        store.record(5, dummy_mcs(5.0));
        assert!(store.closest_before(4.9).is_none());
        assert_eq!(store.closest_before(5.0).unwrap().time, 5.0);
    }

    #[test]
    fn snapshots_carry_their_micro_clusters() {
        let mut store = SnapshotStore::new(3);
        store.record(9, dummy_mcs(9.0));
        let snap = store.closest_before(10.0).unwrap();
        assert_eq!(snap.micro_clusters.len(), 1);
        assert_eq!(snap.micro_clusters[0].center(), vec![9.0]);
    }

    #[test]
    #[should_panic(expected = "alpha must be at least 2")]
    fn alpha_one_panics() {
        let _ = SnapshotStore::new(1);
    }
}
