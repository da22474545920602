//! The one-row micro-cluster against the composition it replaced.
//!
//! A `MicroCluster` stores its weight, its timestamp and one buffer laid
//! out `[LS | SS | lower | upper]`.  It used to be a `bt_stats`
//! `ClusterFeature` (weight and two sum buffers) beside a `bt_index` `Mbr`
//! (two corner buffers).  The reference below is that composition, kept
//! verbatim as the oracle: the same timestamp rules, the same decay and the
//! same merge (the other side cloned and decayed, then added), with every
//! read delegated to the feature or the box.  The row must give the same
//! bits for every state and every read, on random 16-d streams at decay 0
//! and 0.05 with duplicated points, signed zeros, magnitudes near 1e150 and
//! clusters decayed until they count as empty.

use bt_index::Mbr;
use bt_stats::{ClusterFeature, DiagGaussian};
use clustree::MicroCluster;

/// The former micro-cluster: a cluster feature, a timestamp and a box.
#[derive(Clone)]
struct Oracle {
    cf: ClusterFeature,
    last_update: f64,
    mbr: Mbr,
}

impl Oracle {
    fn from_point(point: &[f64], now: f64) -> Self {
        Self {
            cf: ClusterFeature::from_point(point),
            last_update: now,
            mbr: Mbr::from_point(point),
        }
    }

    fn decay_to(&mut self, now: f64, lambda: f64) {
        if lambda <= 0.0 {
            self.last_update = self.last_update.max(now);
            return;
        }
        if let Some(factor) = self.decay_factor(now, lambda) {
            self.cf.decay(factor);
            self.last_update = now;
        }
    }

    fn decay_factor(&self, now: f64, lambda: f64) -> Option<f64> {
        let dt = now - self.last_update;
        if lambda <= 0.0 || dt <= 0.0 {
            return None;
        }
        Some((2.0f64).powf(-lambda * dt))
    }

    fn weight_at(&self, now: f64, lambda: f64) -> f64 {
        if lambda <= 0.0 {
            return self.cf.weight();
        }
        let dt = (now - self.last_update).max(0.0);
        self.cf.weight() * (2.0f64).powf(-lambda * dt)
    }

    fn insert(&mut self, point: &[f64], now: f64, lambda: f64) {
        self.decay_to(now, lambda);
        self.cf.insert(point);
        self.mbr.extend_point(point);
    }

    fn merge(&mut self, other: &Oracle, lambda: f64) {
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
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|x| x.to_bits()).collect()
}

/// Every stored bit of a row: timestamp, weight, sums and corners.
fn row_bits(mc: &MicroCluster) -> Vec<u64> {
    let mut out = vec![mc.last_update().to_bits(), mc.weight().to_bits()];
    for part in [mc.linear_sum(), mc.squared_sum(), mc.lower(), mc.upper()] {
        out.extend(bits(part));
    }
    out
}

/// The same for the oracle.
fn oracle_bits(o: &Oracle) -> Vec<u64> {
    let mut out = vec![o.last_update.to_bits(), o.cf.weight().to_bits()];
    for part in [
        o.cf.linear_sum(),
        o.cf.squared_sum(),
        o.mbr.lower(),
        o.mbr.upper(),
    ] {
        out.extend(bits(part));
    }
    out
}

fn gaussian_bits(g: &DiagGaussian) -> (Vec<u64>, Vec<u64>) {
    (bits(g.mean()), bits(g.variance()))
}

/// Checks the stored bits and every read of `got` against `want`, reads
/// at `query`, at time `now` under `lambda`.
fn assert_same(
    got: &MicroCluster,
    want: &Oracle,
    query: &[f64],
    now: f64,
    lambda: f64,
    what: &str,
) {
    assert_eq!(row_bits(got), oracle_bits(want), "{what}: state");
    assert_eq!(got.dims(), want.cf.dims(), "{what}: dims");
    assert_eq!(got.is_empty(), want.cf.is_empty(), "{what}: is_empty");
    assert_eq!(
        got.weight_at(now, lambda).to_bits(),
        want.weight_at(now, lambda).to_bits(),
        "{what}: weight_at"
    );
    assert_eq!(bits(&got.center()), bits(&want.cf.mean()), "{what}: center");
    let mut got_center = vec![7.0; 3];
    let mut want_center = vec![7.0; 3];
    got.center_into(&mut got_center);
    want.cf.mean_into(&mut want_center);
    assert_eq!(bits(&got_center), bits(&want_center), "{what}: center_into");
    assert_eq!(
        got.sq_dist_to(query).to_bits(),
        want.cf.sq_dist_mean_to(query).to_bits(),
        "{what}: sq_dist_to"
    );
    assert_eq!(
        got.radius().to_bits(),
        want.cf.radius().to_bits(),
        "{what}: radius"
    );
    assert_eq!(
        gaussian_bits(&got.gaussian()),
        gaussian_bits(&want.cf.to_gaussian()),
        "{what}: gaussian"
    );
}

/// Deterministic SplitMix64 stream.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

const DIMS: usize = 16;

/// One coordinate: mostly uniform in `[-5, 5)`, some on the grid
/// `{0, 1, 2}`, some signed zeros, some near `±1e150`.
fn coordinate(rng: &mut SplitMix) -> f64 {
    match rng.below(8) {
        0 => rng.below(3) as f64,
        1 => 0.0,
        2 => -0.0,
        3 => (rng.unit() + 0.5) * if rng.below(2) == 0 { 1e150 } else { -1e150 },
        _ => rng.unit() * 10.0 - 5.0,
    }
}

/// The stream's next point; every fourth repeats an earlier one exactly.
fn next_point(rng: &mut SplitMix, seen: &mut Vec<Vec<f64>>) -> Vec<f64> {
    let point = if !seen.is_empty() && rng.below(4) == 0 {
        seen[rng.below(seen.len())].clone()
    } else {
        (0..DIMS).map(|_| coordinate(rng)).collect()
    };
    seen.push(point.clone());
    point
}

/// Drives pairs of rows and oracles through one random stream of
/// `from_point`, `insert`, `merge` (both orders, earlier and later
/// timestamps), `decay_to`, `clone` and `clone_from`, checking every pair
/// after every step.  Returns how many checked clusters counted as empty.
fn run_stream(seed: u64, lambda: f64, steps: usize) -> usize {
    let mut rng = SplitMix(seed);
    let mut seen = Vec::new();
    let mut pool: Vec<(MicroCluster, Oracle)> = Vec::new();
    let mut clock = 0.0f64;
    let mut empties = 0;
    for step in 0..steps {
        // Time mostly moves forward, sometimes jumps far ahead (decaying
        // old clusters below `f64::EPSILON` at decay 0.05) and sometimes
        // lags behind the clusters' own timestamps.
        clock += match rng.below(10) {
            0 => 2_000.0,
            1 => -3.0,
            _ => rng.unit() * 2.0,
        };
        let now = clock;
        let point = next_point(&mut rng, &mut seen);
        if pool.len() < 4 || rng.below(6) == 0 {
            pool.push((
                MicroCluster::from_point(&point, now),
                Oracle::from_point(&point, now),
            ));
        } else {
            let i = rng.below(pool.len());
            match rng.below(6) {
                0 | 1 => {
                    let (mc, o) = &mut pool[i];
                    mc.insert(&point, now, lambda);
                    o.insert(&point, now, lambda);
                }
                2 => {
                    let j = rng.below(pool.len());
                    let (other_mc, other_o) = pool[j].clone();
                    // Merge in both orders: into `i`, and `i` into a copy
                    // of `j`, whichever timestamp is later.
                    let (mc, o) = &pool[i];
                    let (mut back_mc, mut back_o) = (other_mc.clone(), other_o.clone());
                    back_mc.merge(mc, lambda);
                    back_o.merge(o, lambda);
                    assert_same(&back_mc, &back_o, &point, now, lambda, "merge into copy");
                    let (mc, o) = &mut pool[i];
                    mc.merge(&other_mc, lambda);
                    o.merge(&other_o, lambda);
                }
                3 => {
                    let (mc, o) = &mut pool[i];
                    mc.decay_to(now, lambda);
                    o.decay_to(now, lambda);
                }
                4 => {
                    let copy = pool[i].clone();
                    pool.push(copy);
                }
                _ => {
                    let j = rng.below(pool.len());
                    let (source_mc, source_o) = pool[j].clone();
                    let (mc, o) = &mut pool[i];
                    mc.clone_from(&source_mc);
                    o.clone_from(&source_o);
                }
            }
        }
        let query: Vec<f64> = (0..DIMS).map(|_| coordinate(&mut rng)).collect();
        for (k, (mc, o)) in pool.iter().enumerate() {
            let what = format!("seed {seed:#x}, lambda {lambda}, step {step}, cluster {k}");
            assert_same(mc, o, &query, now, lambda, &what);
            assert_same(mc, o, &point, now + 1.5, lambda, &what);
            empties += usize::from(mc.is_empty());
        }
        if pool.len() > 24 {
            pool.swap_remove(rng.below(pool.len()));
        }
    }
    empties
}

#[test]
fn the_row_equals_the_feature_and_box_it_replaced() {
    for seed in [1u64, 0x5EED, 0xC0FFEE] {
        assert_eq!(run_stream(seed, 0.0, 600), 0, "no decay, no empty cluster");
        let empties = run_stream(seed, 0.05, 600);
        assert!(empties > 0, "seed {seed:#x}: no cluster decayed to empty");
    }
}

#[test]
fn signed_zeros_and_huge_magnitudes_keep_their_bits() {
    let lambda = 0.05;
    let points = [
        [0.0, -0.0, 1e150, -1e150],
        [-0.0, 0.0, -1e150, 1e150],
        [-0.0, -0.0, 1.3e150, -0.7e150],
        [0.0, 0.0, 1e150, -1e150],
    ];
    for (a, b) in [(0, 1), (1, 0), (2, 3), (3, 2), (0, 0)] {
        for (ta, tb) in [(0.0, 0.0), (0.0, 4.0), (4.0, 0.0)] {
            let mut mc = MicroCluster::from_point(&points[a], ta);
            let mut o = Oracle::from_point(&points[a], ta);
            mc.insert(&points[b], ta, lambda);
            o.insert(&points[b], ta, lambda);
            let other_mc = MicroCluster::from_point(&points[b], tb);
            let other_o = Oracle::from_point(&points[b], tb);
            mc.merge(&other_mc, lambda);
            o.merge(&other_o, lambda);
            let what = format!("points {a}, {b} at {ta}, {tb}");
            assert_same(&mc, &o, &points[a], 5.0, lambda, &what);
            assert_same(&mc, &o, &[-0.0; 4], 5.0, lambda, &what);
        }
    }
}

#[test]
fn a_cluster_decayed_to_nothing_reads_as_empty() {
    let point: Vec<f64> = (0..DIMS).map(|d| d as f64 - 7.5).collect();
    let mut mc = MicroCluster::from_point(&point, 0.0);
    let mut o = Oracle::from_point(&point, 0.0);
    mc.insert(&point, 1.0, 0.05);
    o.insert(&point, 1.0, 0.05);
    mc.decay_to(2_000.0, 0.05);
    o.decay_to(2_000.0, 0.05);
    assert!(mc.weight() <= f64::EPSILON && mc.is_empty());
    assert_same(&mc, &o, &point, 2_000.0, 0.05, "decayed");
    assert_eq!(mc.center(), vec![0.0; DIMS]);
    assert_eq!(mc.radius(), 0.0);
    // A fresh point merged into the faded cluster brings it back.
    let fresh = MicroCluster::from_point(&point, 2_001.0);
    mc.merge(&fresh, 0.05);
    o.merge(&Oracle::from_point(&point, 2_001.0), 0.05);
    assert!(!mc.is_empty());
    assert_same(&mc, &o, &point, 2_001.0, 0.05, "revived");
}
