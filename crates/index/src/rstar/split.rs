//! Node-split algorithms.
//!
//! When an insertion overflows a node, its entries are divided into two
//! groups.  The Bayes tree uses the R* topological split (sort by each axis,
//! evaluate all allowed distributions, pick the axis with minimal total
//! margin and the distribution with minimal overlap/area); the quadratic
//! split of the original R-tree is provided as a baseline.
//!
//! The R* split runs as a sweep: every entry's corners are gathered once,
//! and for each sort order one pass grows the prefix boxes (first groups)
//! and one pass the suffix boxes (second groups) of all distributions.  A
//! split of `n` entries in `d` dimensions costs `O(d · n · (d + log n))`
//! instead of the `O(d² · n²)` of rebuilding both groups' boxes per
//! distribution, and picks the same partition.

use crate::mbr::Mbr;

/// The outcome of a split: indices of the entries assigned to each group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitResult {
    /// Entry indices of the first group.
    pub first: Vec<usize>,
    /// Entry indices of the second group.
    pub second: Vec<usize>,
}

impl SplitResult {
    /// Total number of distributed entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.first.len() + self.second.len()
    }

    /// True when both groups are empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.first.is_empty() && self.second.is_empty()
    }
}

/// R*-tree topological split.
///
/// `min_entries` is the minimum number of entries either group must receive
/// (the `m` of Definition 2).
///
/// # Panics
///
/// Panics if there are fewer than `2 * min_entries` entries or
/// `min_entries == 0`.
#[must_use]
pub fn rstar_split(mbrs: &[Mbr], min_entries: usize) -> SplitResult {
    rstar_split_by(mbrs, |m| m, min_entries)
}

/// Payload-generic variant of [`rstar_split`]: splits arbitrary entries
/// through an accessor that exposes each entry's MBR, so callers carrying
/// extra per-entry statistics need not clone rectangles into a side array.
///
/// # Panics
///
/// Panics under the same conditions as [`rstar_split`].
#[must_use]
pub fn rstar_split_by<T, F>(items: &[T], mbr_of: F, min_entries: usize) -> SplitResult
where
    F: Fn(&T) -> &Mbr,
{
    let dims = items.first().map_or(1, |item| mbr_of(item).dims());
    rstar_split_corners(
        items.len(),
        dims,
        |i, d| {
            let mbr = mbr_of(&items[i]);
            (mbr.lower()[d], mbr.upper()[d])
        },
        min_entries,
    )
}

/// Corner-accessor variant of [`rstar_split`]: `corner(i, d)` returns the
/// lower and upper coordinate of entry `i` along dimension `d`.  Callers
/// whose entries are raw points (`(x, x)`) or narrow-stored boxes (widened
/// per corner) split without building an [`Mbr`] per entry.
///
/// Each corner is read exactly once.  The partition equals the one of the
/// textbook formulation (rebuild both groups' boxes for every candidate
/// distribution) exactly: min/max are exact, and margin, area and overlap
/// are evaluated from the same corner values in the same dimension order
/// as [`Mbr::margin`], [`Mbr::area`] and [`Mbr::overlap`].
///
/// # Panics
///
/// Panics under the same conditions as [`rstar_split`], or if
/// `dims == 0`.
#[must_use]
pub fn rstar_split_corners<F>(len: usize, dims: usize, corner: F, min_entries: usize) -> SplitResult
where
    F: Fn(usize, usize) -> (f64, f64),
{
    assert!(min_entries > 0, "minimum entries must be positive");
    assert!(
        len >= 2 * min_entries,
        "need at least 2 * min_entries = {} entries, got {}",
        2 * min_entries,
        len
    );
    assert!(dims > 0, "MBR must have at least one dimension");
    let mut lo = Vec::with_capacity(len * dims);
    let mut hi = Vec::with_capacity(len * dims);
    for i in 0..len {
        for d in 0..dims {
            let (l, h) = corner(i, d);
            lo.push(l);
            hi.push(h);
        }
    }
    Sweep {
        dims,
        min: min_entries,
        lo: &lo,
        hi: &hi,
    }
    .split()
}

/// The entries' corners as item-major rows (`lo[i * dims + d]`), plus the
/// split parameters.
struct Sweep<'a> {
    dims: usize,
    min: usize,
    lo: &'a [f64],
    hi: &'a [f64],
}

/// One sort order of the entries and the boxes of both groups of every
/// allowed distribution `k`: the first group `order[..min + k]` is prefix
/// row `k`, the second group `order[min + k..]` is suffix row
/// `distributions - 1 - k` (suffix rows grow from the back of the order).
#[derive(Default)]
struct OrderSweep {
    order: Vec<usize>,
    prefix: Boxes,
    suffix: Boxes,
}

/// Row-major boxes (`lo[j * dims + d]`) with their margins.
#[derive(Default)]
struct Boxes {
    lo: Vec<f64>,
    hi: Vec<f64>,
    margin: Vec<f64>,
}

impl Boxes {
    fn row(&self, j: usize, dims: usize) -> (&[f64], &[f64]) {
        let span = j * dims..(j + 1) * dims;
        (&self.lo[span.clone()], &self.hi[span])
    }

    /// Row 0 becomes the box of the entries `seed`, and each further row
    /// the row before it grown by the next entry of `steps` (corner-wise
    /// min/max, as [`Mbr::extend_mbr`] grows a box).  Then every row's
    /// margin.
    fn grow_rows(
        &mut self,
        sweep: &Sweep<'_>,
        seed: &[usize],
        steps: impl ExactSizeIterator<Item = usize>,
    ) {
        let dims = sweep.dims;
        let rows = steps.len() + 1;
        self.lo.resize(rows * dims, 0.0);
        self.hi.resize(rows * dims, 0.0);
        let (lo, hi) = sweep.corners(seed[0]);
        self.lo[..dims].copy_from_slice(lo);
        self.hi[..dims].copy_from_slice(hi);
        for &i in &seed[1..] {
            let (lo, hi) = sweep.corners(i);
            grow(&mut self.lo[..dims], &mut self.hi[..dims], lo, hi);
        }
        for (j, i) in (1..rows).zip(steps) {
            let span = (j - 1) * dims..(j + 1) * dims;
            let (prev_lo, row_lo) = self.lo[span.clone()].split_at_mut(dims);
            let (prev_hi, row_hi) = self.hi[span].split_at_mut(dims);
            let (lo, hi) = sweep.corners(i);
            for ((out, &prev), &x) in row_lo.iter_mut().zip(&*prev_lo).zip(lo) {
                *out = prev.min(x);
            }
            for ((out, &prev), &x) in row_hi.iter_mut().zip(&*prev_hi).zip(hi) {
                *out = prev.max(x);
            }
        }
        // Row margins side by side: each sums its edges in dimension order
        // from the neutral element of `f64::sum`, as `Mbr::margin` does,
        // but the rows' additions are independent and overlap.
        self.margin.clear();
        self.margin.resize(rows, std::iter::empty::<f64>().sum());
        for d in 0..dims {
            let rows = self.lo.chunks_exact(dims).zip(self.hi.chunks_exact(dims));
            for (m, (lo, hi)) in self.margin.iter_mut().zip(rows) {
                *m += hi[d] - lo[d];
            }
        }
    }
}

impl Sweep<'_> {
    fn len(&self) -> usize {
        self.lo.len() / self.dims
    }

    fn distributions(&self) -> usize {
        self.len() - 2 * self.min + 1
    }

    fn corners(&self, i: usize) -> (&[f64], &[f64]) {
        let span = i * self.dims..(i + 1) * self.dims;
        (&self.lo[span.clone()], &self.hi[span])
    }

    /// Axis with minimal total margin over all distributions of both
    /// sortings (by lower and by upper coordinate), then the distribution
    /// on that axis with minimal overlap, ties broken by area.  The first
    /// candidate strictly better than every earlier one wins; if none beats
    /// `+inf` (infinite or NaN coordinates), axis 0 and its first
    /// distribution stand in.
    fn split(&self) -> SplitResult {
        // Pure points sort identically by both corners, so the upper-corner
        // order adds the same margins again and can never strictly improve
        // a distribution: one order serves as both.
        let orders = if self.lo == self.hi { 1 } else { 2 };
        let distributions = self.distributions();
        let mut keys = Vec::with_capacity(self.len());
        let mut current: [OrderSweep; 2] = Default::default();
        let mut chosen: [OrderSweep; 2] = Default::default();
        let mut best_margin = f64::INFINITY;
        for axis in 0..self.dims {
            let corners = [self.lo, self.hi].into_iter().zip(&mut current);
            for (rows, sweep) in corners.take(orders) {
                self.sort_axis(rows, axis, &mut keys, &mut sweep.order);
                self.sweep(sweep);
            }
            let mut margin_sum = 0.0;
            for o in 0..2 {
                let sweep = &current[o.min(orders - 1)];
                for k in 0..distributions {
                    margin_sum +=
                        sweep.prefix.margin[k] + sweep.suffix.margin[distributions - 1 - k];
                }
            }
            let better = margin_sum < best_margin;
            if better || axis == 0 {
                std::mem::swap(&mut current, &mut chosen);
            }
            if better {
                best_margin = margin_sum;
            }
        }

        let mut best = (0, 0);
        let mut best_overlap = f64::INFINITY;
        let mut best_area = f64::INFINITY;
        for (o, sweep) in chosen.iter().take(orders).enumerate() {
            for k in 0..distributions {
                let (p_lo, p_hi) = sweep.prefix.row(k, self.dims);
                let (s_lo, s_hi) = sweep.suffix.row(distributions - 1 - k, self.dims);
                let overlap = overlap(p_lo, p_hi, s_lo, s_hi);
                let area = area(p_lo, p_hi) + area(s_lo, s_hi);
                if overlap < best_overlap || (overlap == best_overlap && area < best_area) {
                    best_overlap = overlap;
                    best_area = area;
                    best = (o, k);
                }
            }
        }
        let (o, k) = best;
        let (first, second) = chosen[o].order.split_at(self.min + k);
        SplitResult {
            first: first.to_vec(),
            second: second.to_vec(),
        }
    }

    /// Sorts the entry indices by `rows[i * dims + axis]` under
    /// [`sort_key`], ties by index: a strict total order, so the unstable
    /// sort is deterministic.
    fn sort_axis(&self, rows: &[f64], axis: usize, keys: &mut Vec<u128>, order: &mut Vec<usize>) {
        keys.clear();
        keys.extend(
            (0..self.len())
                .map(|i| (u128::from(sort_key(rows[i * self.dims + axis])) << 64) | i as u128),
        );
        keys.sort_unstable();
        order.clear();
        order.extend(keys.iter().map(|&key| key as u64 as usize));
    }

    /// Fills the prefix and suffix boxes of every distribution of
    /// `sweep.order` in one pass each: each row grows the one before it by
    /// the one entry that differs.
    fn sweep(&self, sweep: &mut OrderSweep) {
        let (min, n) = (self.min, self.len());
        let order = &sweep.order;
        let moving = &order[min..n - min];
        let prefix_steps = moving.iter().copied();
        sweep.prefix.grow_rows(self, &order[..min], prefix_steps);
        let suffix_steps = moving.iter().rev().copied();
        sweep
            .suffix
            .grow_rows(self, &order[n - min..], suffix_steps);
    }
}

/// Order-preserving unsigned image of `x + 0.0` under [`f64::total_cmp`].
/// Adding `0.0` folds `-0.0` into `+0.0`, so on NaN-free input the order is
/// the `partial_cmp` order; NaNs sort beyond the infinities by sign and the
/// order stays total.
fn sort_key(x: f64) -> u64 {
    let bits = (x + 0.0).to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | (1 << 63)
    }
}

/// Grows the box `(acc_lo, acc_hi)` to contain the box `(lo, hi)`, as
/// [`Mbr::extend_mbr`] does.
fn grow(acc_lo: &mut [f64], acc_hi: &mut [f64], lo: &[f64], hi: &[f64]) {
    for (a, &x) in acc_lo.iter_mut().zip(lo) {
        *a = a.min(x);
    }
    for (a, &x) in acc_hi.iter_mut().zip(hi) {
        *a = a.max(x);
    }
}

/// [`Mbr::area`] over corner slices.
fn area(lo: &[f64], hi: &[f64]) -> f64 {
    lo.iter().zip(hi).map(|(l, u)| u - l).product()
}

/// [`Mbr::overlap`] over corner slices.
fn overlap(a_lo: &[f64], a_hi: &[f64], b_lo: &[f64], b_hi: &[f64]) -> f64 {
    let mut acc = 1.0;
    for d in 0..a_lo.len() {
        let lo = a_lo[d].max(b_lo[d]);
        let hi = a_hi[d].min(b_hi[d]);
        if hi <= lo {
            return 0.0;
        }
        acc *= hi - lo;
    }
    acc
}

/// Quadratic split of the original R-tree (Guttman, SIGMOD 1984): pick the
/// pair of entries that would waste the most area together as seeds, then
/// greedily assign the rest by least enlargement.
///
/// # Panics
///
/// Panics under the same conditions as [`rstar_split`].
#[must_use]
pub fn quadratic_split(mbrs: &[Mbr], min_entries: usize) -> SplitResult {
    assert!(min_entries > 0, "minimum entries must be positive");
    assert!(
        mbrs.len() >= 2 * min_entries,
        "need at least 2 * min_entries entries"
    );
    let n = mbrs.len();

    // Pick seeds.
    let mut seed_a = 0;
    let mut seed_b = 1;
    let mut worst = f64::NEG_INFINITY;
    for i in 0..n {
        for j in (i + 1)..n {
            let waste = mbrs[i].union(&mbrs[j]).area() - mbrs[i].area() - mbrs[j].area();
            if waste > worst {
                worst = waste;
                seed_a = i;
                seed_b = j;
            }
        }
    }

    let mut first = vec![seed_a];
    let mut second = vec![seed_b];
    let mut mbr_a = mbrs[seed_a].clone();
    let mut mbr_b = mbrs[seed_b].clone();
    let mut remaining: Vec<usize> = (0..n).filter(|&i| i != seed_a && i != seed_b).collect();

    while let Some(&_next) = remaining.first() {
        // If one group must take all remaining entries to reach the minimum,
        // assign them wholesale.
        if first.len() + remaining.len() == min_entries {
            first.append(&mut remaining);
            break;
        }
        if second.len() + remaining.len() == min_entries {
            second.append(&mut remaining);
            break;
        }
        // Pick the entry with the largest preference difference.
        let mut best_idx = 0;
        let mut best_diff = f64::NEG_INFINITY;
        for (pos, &i) in remaining.iter().enumerate() {
            let d1 = mbr_a.enlargement_for_mbr(&mbrs[i]);
            let d2 = mbr_b.enlargement_for_mbr(&mbrs[i]);
            let diff = (d1 - d2).abs();
            if diff > best_diff {
                best_diff = diff;
                best_idx = pos;
            }
        }
        let i = remaining.swap_remove(best_idx);
        let d1 = mbr_a.enlargement_for_mbr(&mbrs[i]);
        let d2 = mbr_b.enlargement_for_mbr(&mbrs[i]);
        let to_first = match d1.partial_cmp(&d2) {
            Some(std::cmp::Ordering::Less) => true,
            Some(std::cmp::Ordering::Greater) => false,
            _ => mbr_a.area() <= mbr_b.area(),
        };
        if to_first {
            first.push(i);
            mbr_a.extend_mbr(&mbrs[i]);
        } else {
            second.push(i);
            mbr_b.extend_mbr(&mbrs[i]);
        }
    }

    SplitResult { first, second }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_cluster_mbrs() -> Vec<Mbr> {
        let mut mbrs = Vec::new();
        for i in 0..4 {
            let x = i as f64 * 0.1;
            mbrs.push(Mbr::new(vec![x, 0.0], vec![x + 0.05, 0.05]));
        }
        for i in 0..4 {
            let x = 10.0 + i as f64 * 0.1;
            mbrs.push(Mbr::new(vec![x, 10.0], vec![x + 0.05, 10.05]));
        }
        mbrs
    }

    fn assert_valid_partition(result: &SplitResult, n: usize, min_entries: usize) {
        let mut all: Vec<usize> = result
            .first
            .iter()
            .chain(result.second.iter())
            .copied()
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..n).collect::<Vec<_>>());
        assert!(result.first.len() >= min_entries);
        assert!(result.second.len() >= min_entries);
    }

    #[test]
    fn rstar_split_separates_clusters() {
        let mbrs = two_cluster_mbrs();
        let result = rstar_split(&mbrs, 2);
        assert_valid_partition(&result, 8, 2);
        let low: Vec<usize> = (0..4).collect();
        let got_low: Vec<usize> = if result.first.contains(&0) {
            let mut f = result.first.clone();
            f.sort_unstable();
            f
        } else {
            let mut s = result.second.clone();
            s.sort_unstable();
            s
        };
        assert_eq!(got_low, low);
    }

    #[test]
    fn quadratic_split_separates_clusters() {
        let mbrs = two_cluster_mbrs();
        let result = quadratic_split(&mbrs, 2);
        assert_valid_partition(&result, 8, 2);
        let in_first = result.first.contains(&0);
        let group = if in_first {
            &result.first
        } else {
            &result.second
        };
        assert!(group.iter().all(|&i| i < 4));
    }

    #[test]
    fn rstar_split_respects_min_entries_on_skewed_data() {
        // Seven identical boxes plus one far outlier: the outlier's group
        // must still receive at least min_entries entries.
        let mut mbrs = vec![Mbr::new(vec![0.0, 0.0], vec![1.0, 1.0]); 7];
        mbrs.push(Mbr::new(vec![100.0, 100.0], vec![101.0, 101.0]));
        let result = rstar_split(&mbrs, 3);
        assert_valid_partition(&result, 8, 3);
    }

    #[test]
    fn quadratic_split_respects_min_entries_on_skewed_data() {
        let mut mbrs = vec![Mbr::new(vec![0.0, 0.0], vec![1.0, 1.0]); 7];
        mbrs.push(Mbr::new(vec![100.0, 100.0], vec![101.0, 101.0]));
        let result = quadratic_split(&mbrs, 3);
        assert_valid_partition(&result, 8, 3);
    }

    #[test]
    fn split_of_identical_boxes_is_balanced_enough() {
        let mbrs = vec![Mbr::new(vec![0.0], vec![1.0]); 10];
        let result = rstar_split(&mbrs, 4);
        assert_valid_partition(&result, 10, 4);
    }

    #[test]
    #[should_panic(expected = "min_entries")]
    fn too_few_entries_panics() {
        let mbrs = vec![Mbr::new(vec![0.0], vec![1.0]); 3];
        let _ = rstar_split(&mbrs, 2);
    }

    /// The textbook R* split the sweep replaces: both groups' boxes are
    /// rebuilt through [`Mbr::union_all`] for every distribution of every
    /// sort order.  Where that formulation found no candidate below `+inf`
    /// (infinite coordinates) and panicked, it takes axis 0 and its first
    /// distribution, as the sweep does; everything else is unchanged.
    fn naive_rstar_split(mbrs: &[Mbr], min_entries: usize) -> SplitResult {
        let dims = mbrs[0].dims();
        let total = mbrs.len();
        let distributions = total - 2 * min_entries + 1;
        let group_of = |indices: &[usize]| -> Mbr {
            Mbr::union_all(indices.iter().map(|&i| &mbrs[i])).expect("group is non-empty")
        };
        let sorted_indices = |key: &dyn Fn(usize) -> f64| {
            let mut idx: Vec<usize> = (0..total).collect();
            idx.sort_by(|&a, &b| {
                key(a)
                    .partial_cmp(&key(b))
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.cmp(&b))
            });
            idx
        };

        let mut best_axis_margin = f64::INFINITY;
        let mut best_axis_orders: Option<[Vec<usize>; 2]> = None;
        for axis in 0..dims {
            let by_lower = sorted_indices(&|i| mbrs[i].lower()[axis]);
            let by_upper = sorted_indices(&|i| mbrs[i].upper()[axis]);
            let mut margin_sum = 0.0;
            for order in [&by_lower, &by_upper] {
                for k in 0..distributions {
                    let (g1, g2) = order.split_at(min_entries + k);
                    margin_sum += group_of(g1).margin() + group_of(g2).margin();
                }
            }
            let better = margin_sum < best_axis_margin;
            if better || axis == 0 {
                best_axis_orders = Some([by_lower, by_upper]);
            }
            if better {
                best_axis_margin = margin_sum;
            }
        }
        let orders = best_axis_orders.expect("at least one axis exists");

        let mut best: Option<SplitResult> = None;
        let mut best_overlap = f64::INFINITY;
        let mut best_area = f64::INFINITY;
        for order in &orders {
            for k in 0..distributions {
                let (g1, g2) = order.split_at(min_entries + k);
                let (m1, m2) = (group_of(g1), group_of(g2));
                let overlap = m1.overlap(&m2);
                let area = m1.area() + m2.area();
                let better =
                    overlap < best_overlap || (overlap == best_overlap && area < best_area);
                if better || best.is_none() {
                    best = Some(SplitResult {
                        first: g1.to_vec(),
                        second: g2.to_vec(),
                    });
                }
                if better {
                    best_overlap = overlap;
                    best_area = area;
                }
            }
        }
        best.expect("at least one distribution exists")
    }

    /// SplitMix64: a tiny deterministic generator for the explicit edge
    /// generators below.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn unit(&mut self) -> f64 {
            (self.next() >> 11) as f64 / (1u64 << 53) as f64
        }

        fn pick(&mut self, values: &[f64]) -> f64 {
            values[self.below(values.len())]
        }
    }

    /// The coordinate families the parity test draws from.
    #[derive(Debug, Clone, Copy)]
    enum Coords {
        /// Uniform in `[0, 1)`: almost surely no ties.
        Uniform,
        /// Three values: heavy duplicates and sort-key ties.
        Duplicates,
        /// Signed zeros mixed with `±1`.
        SignedZeros,
        /// Finite values with occasional `±inf`.
        Infinite,
    }

    impl Coords {
        const ALL: [Coords; 4] = [
            Coords::Uniform,
            Coords::Duplicates,
            Coords::SignedZeros,
            Coords::Infinite,
        ];

        fn draw(self, rng: &mut Rng) -> f64 {
            match self {
                Coords::Uniform => rng.unit(),
                Coords::Duplicates => rng.pick(&[0.0, 0.5, 1.0]),
                Coords::SignedZeros => rng.pick(&[-0.0, 0.0, -1.0, 1.0]),
                Coords::Infinite => {
                    if rng.below(8) == 0 {
                        rng.pick(&[f64::NEG_INFINITY, f64::INFINITY])
                    } else {
                        rng.unit()
                    }
                }
            }
        }
    }

    /// `n` entries in `dims` dimensions: pure points (every corner pair
    /// equal) or boxes whose corners are two ordered draws.
    fn entries(rng: &mut Rng, coords: Coords, n: usize, dims: usize, points: bool) -> Vec<Mbr> {
        (0..n)
            .map(|_| {
                let (lo, hi): (Vec<f64>, Vec<f64>) = (0..dims)
                    .map(|_| {
                        let a = coords.draw(rng);
                        if points {
                            return (a, a);
                        }
                        let b = coords.draw(rng);
                        if b < a {
                            (b, a)
                        } else {
                            (a, b)
                        }
                    })
                    .unzip();
                if points {
                    Mbr::from_point(&lo)
                } else {
                    Mbr::new(lo, hi)
                }
            })
            .collect()
    }

    fn assert_matches_oracle(mbrs: &[Mbr], min_entries: usize, case: &str) {
        let expected = naive_rstar_split(mbrs, min_entries);
        assert_eq!(
            rstar_split(mbrs, min_entries),
            expected,
            "rstar_split: {case}"
        );
        let wrapped: Vec<(u8, &Mbr)> = mbrs.iter().map(|m| (0, m)).collect();
        assert_eq!(
            rstar_split_by(&wrapped, |w| w.1, min_entries),
            expected,
            "rstar_split_by: {case}"
        );
        let corners = rstar_split_corners(
            mbrs.len(),
            mbrs[0].dims(),
            |i, d| (mbrs[i].lower()[d], mbrs[i].upper()[d]),
            min_entries,
        );
        assert_eq!(corners, expected, "rstar_split_corners: {case}");
    }

    #[test]
    fn sweep_matches_naive_split_exactly() {
        let mut rng = Rng(0x5eed_0001);
        let mut cases = 0;
        for dims in [1usize, 2, 16, 33] {
            for coords in Coords::ALL {
                for points in [true, false] {
                    // Leaf-sized splits (min 12, up to a 30-point leaf plus
                    // a 64-point batch), directory-sized ones (min 3) and
                    // the smallest legal splits.
                    for (min_entries, n) in [
                        (1, 2),
                        (2, 5),
                        (3, 8),
                        (12, 24),
                        (12, 31 + rng.below(30)),
                        (12, 94),
                        (30, 60 + rng.below(35)),
                    ] {
                        if dims == 33 && n > 40 && !matches!(coords, Coords::Uniform) {
                            continue; // keep the quadratic oracle cheap in debug
                        }
                        let mbrs = entries(&mut rng, coords, n, dims, points);
                        let case = format!(
                            "dims {dims}, {coords:?}, points {points}, n {n}, min {min_entries}"
                        );
                        assert_matches_oracle(&mbrs, min_entries, &case);
                        cases += 1;
                    }
                }
            }
        }
        assert!(cases > 150);
    }

    #[test]
    fn sweep_matches_naive_split_on_identical_and_degenerate_entries() {
        let same_box = vec![Mbr::new(vec![0.0, -1.0], vec![1.0, 1.0]); 20];
        assert_matches_oracle(&same_box, 5, "identical boxes");
        let same_point = vec![Mbr::from_point(&[0.25; 16]); 31];
        assert_matches_oracle(&same_point, 12, "identical points");
        let mut mixed: Vec<Mbr> = (0..40)
            .map(|i| Mbr::from_point(&[f64::from(i % 4), -0.0, f64::from(i / 10)]))
            .collect();
        mixed.push(Mbr::new(vec![-1.0, 0.0, 0.0], vec![5.0, 0.0, 3.0]));
        assert_matches_oracle(&mixed, 12, "points plus one box");
        let whole_line = vec![Mbr::new(vec![f64::NEG_INFINITY], vec![f64::INFINITY]); 6];
        assert_matches_oracle(&whole_line, 2, "infinite boxes");
    }

    #[test]
    fn non_finite_coordinates_give_a_valid_partition() {
        let mut rng = Rng(0x5eed_0002);
        let specials = [f64::NAN, -f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        for trial in 0..200 {
            let dims = 1 + trial % 5;
            let n = 24 + rng.below(20);
            let min_entries = 1 + rng.below(n / 2);
            let points: Vec<Vec<f64>> = (0..n)
                .map(|_| {
                    (0..dims)
                        .map(|_| {
                            if rng.below(4) == 0 {
                                rng.pick(&specials)
                            } else {
                                rng.unit()
                            }
                        })
                        .collect()
                })
                .collect();
            let mbrs: Vec<Mbr> = points.iter().map(|p| Mbr::from_point(p)).collect();
            assert_valid_partition(&rstar_split(&mbrs, min_entries), n, min_entries);
            let boxes = rstar_split_corners(
                n,
                dims,
                |i, d| {
                    let x = points[i][d];
                    (x, if x.is_nan() { x } else { x + 1.0 })
                },
                min_entries,
            );
            assert_valid_partition(&boxes, n, min_entries);
        }
        let all_nan = vec![Mbr::from_point(&[f64::NAN, f64::NAN]); 10];
        assert_valid_partition(&rstar_split(&all_nan, 4), 10, 4);
    }

    #[test]
    fn sort_key_follows_total_order_with_signed_zeros_folded() {
        let ascending = [
            -f64::NAN,
            f64::NEG_INFINITY,
            f64::MIN,
            -1.0,
            -f64::MIN_POSITIVE,
            -1e-310,
            0.0,
            1e-310,
            f64::MIN_POSITIVE,
            1.0,
            f64::MAX,
            f64::INFINITY,
            f64::NAN,
        ];
        for pair in ascending.windows(2) {
            assert!(sort_key(pair[0]) < sort_key(pair[1]), "{pair:?}");
            assert_eq!(
                sort_key(pair[0]).cmp(&sort_key(pair[1])),
                (pair[0] + 0.0).total_cmp(&(pair[1] + 0.0))
            );
        }
        assert_eq!(sort_key(-0.0), sort_key(0.0));
    }
}
