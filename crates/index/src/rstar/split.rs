//! Node-split algorithms.
//!
//! When an insertion overflows a node, its entries are divided into two
//! groups.  The Bayes tree uses the R* topological split (sort by each axis,
//! evaluate all allowed distributions, pick the axis with minimal total
//! margin and the distribution with minimal overlap/area).
//!
//! The R* split runs as a sweep: every entry's corners are gathered once,
//! one rank table over all entry pairs yields every axis's sort order, and
//! for each sort order one pass grows the prefix boxes (first groups) and
//! the suffix boxes (second groups) of all distributions, each box's margin
//! summed right after it grows.  A split of `n` entries in `d` dimensions
//! costs `O(d · n · (d + n))`; above a small constant `n` (`RANK_CUTOFF`
//! under AVX2, `SCALAR_RANK_CUTOFF` otherwise) each axis is sorted by key
//! instead of ranked, for `O(d · n · (d + log n))`.  Either
//! replaces the `O(d² · n²)` of rebuilding both groups' boxes per
//! distribution, and picks the same partition.
//!
//! On x86_64 the sweep runs under AVX2 codegen whenever
//! [`bt_stats::simd::avx2_available`] holds (the CPU has AVX2 and
//! bt-stats' `simd` feature is on): the ranking compares and the
//! corner-wise min/max fill whole registers.  Otherwise the same code runs
//! as plain scalar code and picks the same partition.

use crate::mbr::Mbr;
use bt_stats::simd::LANES;

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
    with_sweep(len, dims, corner, min_entries, |sweep| sweep.run())
}

/// Gathers the entries' corners into a [`Sweep`] and hands it to `f`.
fn with_sweep<F, R>(
    len: usize,
    dims: usize,
    corner: F,
    min_entries: usize,
    f: impl FnOnce(&Sweep<'_>) -> R,
) -> R
where
    F: Fn(usize, usize) -> (f64, f64),
{
    let chunks = dims.div_ceil(LANES);
    let mut lo = vec![[0.0; LANES]; len * chunks];
    let mut hi = vec![[0.0; LANES]; len * chunks];
    let rows = lo.chunks_exact_mut(chunks).zip(hi.chunks_exact_mut(chunks));
    for (i, (lo, hi)) in rows.enumerate() {
        let (lo, hi) = (lo.as_flattened_mut(), hi.as_flattened_mut());
        for d in 0..dims {
            (lo[d], hi[d]) = corner(i, d);
        }
    }
    f(&Sweep {
        dims,
        chunks,
        min: min_entries,
        lo: &lo,
        hi: &hi,
    })
}

/// Under AVX2, splits of at most this many entries order every axis
/// through one rank table over all entry pairs (`O(n² · d)`, no
/// data-dependent branch); larger ones sort each axis by key.  Measured
/// per split in 16 and 33 dimensions, the table beats the sorts by 1.1–1.4×
/// at 64 entries, breaks even around 96 and loses at 128 (docs/PERF.md).
/// 96 covers a full 16-d leaf overflowed by a 64-point batch.
const RANK_CUTOFF: usize = 96;

/// [`RANK_CUTOFF`] without AVX2.  Baseline x86-64 has no 64-bit integer
/// vector compare, so the table is scalar and breaks even with the sorts
/// at about 24–31 entries.
const SCALAR_RANK_CUTOFF: usize = 24;

/// Coordinates of one vector register.
type Lane = [f64; LANES];

/// The entries' corners as item-major rows of `chunks` lanes (dimension
/// `d` of entry `i` is `lo[i * chunks + d / LANES][d % LANES]`; the last
/// lane is padded with zeros), plus the split parameters.
struct Sweep<'a> {
    dims: usize,
    chunks: usize,
    min: usize,
    lo: &'a [Lane],
    hi: &'a [Lane],
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

/// Row-major boxes in the entries' lane layout, with their margins.
#[derive(Default)]
struct Boxes {
    lo: Vec<Lane>,
    hi: Vec<Lane>,
    margin: Vec<f64>,
}

impl Boxes {
    fn row(&self, j: usize, sweep: &Sweep<'_>) -> (&[f64], &[f64]) {
        let span = j * sweep.chunks..(j + 1) * sweep.chunks;
        let dims = ..sweep.dims;
        let (lo, hi) = (&self.lo[span.clone()], &self.hi[span]);
        (&lo.as_flattened()[dims], &hi.as_flattened()[dims])
    }

    /// Sizes the boxes to `rows` rows and makes row 0 the box of the
    /// entries `seed` (corner-wise min/max, as [`Mbr::extend_mbr`] grows a
    /// box), with its margin.
    #[inline(always)]
    fn seed(&mut self, sweep: &Sweep<'_>, seed: &[usize], rows: usize) {
        let chunks = sweep.chunks;
        self.lo.resize(rows * chunks, [0.0; LANES]);
        self.hi.resize(rows * chunks, [0.0; LANES]);
        self.margin.resize(rows, 0.0);
        let (row_lo, row_hi) = (&mut self.lo[..chunks], &mut self.hi[..chunks]);
        let (lo, hi) = sweep.corners(seed[0]);
        row_lo.copy_from_slice(lo);
        row_hi.copy_from_slice(hi);
        for &i in &seed[1..] {
            let (lo, hi) = sweep.corners(i);
            for c in 0..chunks {
                row_lo[c] = lane_min(row_lo[c], lo[c]);
                row_hi[c] = lane_max(row_hi[c], hi[c]);
            }
        }
        self.margin[0] = margin(row_lo, row_hi, sweep.dims);
    }

    /// Makes row `j` the row before it grown by entry `i`, summing its
    /// margin while each lane is fresh.
    #[inline(always)]
    fn grow_row(&mut self, sweep: &Sweep<'_>, j: usize, i: usize) {
        let chunks = sweep.chunks;
        let span = (j - 1) * chunks..(j + 1) * chunks;
        let (prev_lo, row_lo) = self.lo[span.clone()].split_at_mut(chunks);
        let (prev_hi, row_hi) = self.hi[span].split_at_mut(chunks);
        let (lo, hi) = sweep.corners(i);
        let mut margin = Margin::new();
        for c in 0..chunks {
            let (l, h) = (lane_min(prev_lo[c], lo[c]), lane_max(prev_hi[c], hi[c]));
            (row_lo[c], row_hi[c]) = (l, h);
            margin.add(l, h, c, sweep.dims);
        }
        self.margin[j] = margin.0;
    }
}

/// Every entry's position in each axis's `(sort_key, index)` order, in the
/// entries' lane layout: entry `i`'s rank counts the entries before `i`
/// whose key is at most `i`'s plus the entries after `i` whose key is
/// below it.  The strict total order makes each axis's ranks a
/// permutation.
struct Ranks {
    rank: Vec<[i64; LANES]>,
}

impl Ranks {
    /// Ranks the entries by every axis of `rows` (a corner table of
    /// `sweep`) in one pass over all ordered entry pairs.
    #[inline(always)]
    fn of(sweep: &Sweep<'_>, rows: &[Lane]) -> Self {
        let chunks = sweep.chunks;
        let mut keys = vec![[0; LANES]; rows.len()];
        for (key, x) in keys.iter_mut().zip(rows) {
            for l in 0..LANES {
                key[l] = rank_key(x[l]);
            }
        }
        let mut rank = vec![[0; LANES]; rows.len()];
        let own_rows = keys.chunks_exact(chunks).zip(rank.chunks_exact_mut(chunks));
        for (i, (own, out)) in own_rows.enumerate() {
            let (before, after) = (&keys[..i * chunks], &keys[(i + 1) * chunks..]);
            for c in 0..chunks {
                let own = own[c];
                let mut acc = [0; LANES];
                for other in before.chunks_exact(chunks) {
                    for l in 0..LANES {
                        acc[l] += i64::from(other[c][l] <= own[l]);
                    }
                }
                for other in after.chunks_exact(chunks) {
                    for l in 0..LANES {
                        acc[l] += i64::from(other[c][l] < own[l]);
                    }
                }
                out[c] = acc;
            }
        }
        Ranks { rank }
    }

    /// Writes the entry indices in ascending rank along `axis` to `order`.
    #[inline(always)]
    fn order(&self, chunks: usize, axis: usize, order: &mut Vec<usize>) {
        order.resize(self.rank.len() / chunks, 0);
        let (c, l) = (axis / LANES, axis % LANES);
        for (i, rank) in self.rank.chunks_exact(chunks).enumerate() {
            order[rank[c][l] as usize] = i;
        }
    }
}

impl Sweep<'_> {
    fn len(&self) -> usize {
        self.lo.len() / self.chunks
    }

    fn distributions(&self) -> usize {
        self.len() - 2 * self.min + 1
    }

    fn corners(&self, i: usize) -> (&[Lane], &[Lane]) {
        let span = i * self.chunks..(i + 1) * self.chunks;
        (&self.lo[span.clone()], &self.hi[span])
    }

    /// [`Sweep::split`], compiled for AVX2 when the CPU has it.
    fn run(&self) -> SplitResult {
        #[cfg(target_arch = "x86_64")]
        if bt_stats::simd::avx2_available() {
            // SAFETY: AVX2 support was just verified.
            return unsafe { avx2::split(self) };
        }
        self.split(SCALAR_RANK_CUTOFF)
    }

    /// Axis with minimal total margin over all distributions of both
    /// sortings (by lower and by upper coordinate), then the distribution
    /// on that axis with minimal overlap, ties broken by area.  The first
    /// candidate strictly better than every earlier one wins; if none beats
    /// `+inf` (infinite or NaN coordinates), axis 0 and its first
    /// distribution stand in.
    #[inline(always)]
    fn split(&self, rank_cutoff: usize) -> SplitResult {
        // Pure points sort identically by both corners, so the upper-corner
        // order adds the same margins again and can never strictly improve
        // a distribution: one order serves as both.
        let orders = if self.lo == self.hi { 1 } else { 2 };
        let corners = [self.lo, self.hi];
        let ranks = self.ranks(orders, rank_cutoff);
        let distributions = self.distributions();
        let mut keys = Vec::new();
        let mut current: [OrderSweep; 2] = Default::default();
        let mut chosen: [OrderSweep; 2] = Default::default();
        let mut best_margin = f64::INFINITY;
        for axis in 0..self.dims {
            for (o, sweep) in current[..orders].iter_mut().enumerate() {
                match ranks.get(o) {
                    Some(ranks) => ranks.order(self.chunks, axis, &mut sweep.order),
                    None => self.sort_axis(corners[o], axis, &mut keys, &mut sweep.order),
                }
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
                let (p_lo, p_hi) = sweep.prefix.row(k, self);
                let (s_lo, s_hi) = sweep.suffix.row(distributions - 1 - k, self);
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

    /// The rank tables of the first `orders` corner tables (lower, then
    /// upper), or none above `rank_cutoff` entries, whose axes are sorted
    /// by key instead.
    #[inline(always)]
    fn ranks(&self, orders: usize, rank_cutoff: usize) -> Vec<Ranks> {
        // Plain loops rather than iterator adaptors here and in the other
        // helpers of `split`: a closure that runs inside a non-inlined
        // library function would leave the AVX2 codegen region.
        let mut ranks = Vec::with_capacity(orders);
        if self.len() <= rank_cutoff {
            for rows in &[self.lo, self.hi][..orders] {
                ranks.push(Ranks::of(self, rows));
            }
        }
        ranks
    }

    /// Sorts the entry indices by their `axis` coordinate in `rows` under
    /// [`sort_key`], ties by index: a strict total order, so the unstable
    /// sort is deterministic.
    fn sort_axis(&self, rows: &[Lane], axis: usize, keys: &mut Vec<u128>, order: &mut Vec<usize>) {
        let (c, l) = (axis / LANES, axis % LANES);
        keys.clear();
        for (i, row) in rows.chunks_exact(self.chunks).enumerate() {
            keys.push((u128::from(sort_key(row[c][l])) << 64) | i as u128);
        }
        keys.sort_unstable();
        order.clear();
        order.extend(keys.iter().map(|&key| key as u64 as usize));
    }

    /// Fills the prefix and suffix boxes of every distribution of
    /// `sweep.order` in one pass: each row grows the one before it by the
    /// one entry that differs.  A prefix row and a suffix row are
    /// independent, so growing them side by side overlaps their margin
    /// sums.
    #[inline(always)]
    fn sweep(&self, sweep: &mut OrderSweep) {
        let (min, n, rows) = (self.min, self.len(), self.distributions());
        let OrderSweep {
            order,
            prefix,
            suffix,
        } = sweep;
        prefix.seed(self, &order[..min], rows);
        suffix.seed(self, &order[n - min..], rows);
        for j in 1..rows {
            prefix.grow_row(self, j, order[min + j - 1]);
            suffix.grow_row(self, j, order[n - min - j]);
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{SplitResult, Sweep};

    /// [`Sweep::split`] in an AVX2 codegen region, ranking up to
    /// [`RANK_CUTOFF`](super::RANK_CUTOFF) entries: the rank compares and
    /// the corner-wise min/max run four lanes to a register.
    ///
    /// # Safety
    /// The executing CPU must support AVX2 (`avx2_available()`).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn split(sweep: &Sweep<'_>) -> SplitResult {
        sweep.split(super::RANK_CUTOFF)
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

/// [`sort_key`] with its top bit flipped: the same order under signed
/// comparison, which vector units do natively.
#[inline(always)]
fn rank_key(x: f64) -> i64 {
    (sort_key(x) ^ (1 << 63)) as i64
}

/// Lane-wise `f64::min`, as [`Mbr::extend_mbr`] grows a lower corner.
#[inline(always)]
fn lane_min(a: Lane, b: Lane) -> Lane {
    let mut out = a;
    for l in 0..LANES {
        out[l] = a[l].min(b[l]);
    }
    out
}

/// Lane-wise `f64::max`, as [`Mbr::extend_mbr`] grows an upper corner.
#[inline(always)]
fn lane_max(a: Lane, b: Lane) -> Lane {
    let mut out = a;
    for l in 0..LANES {
        out[l] = a[l].max(b[l]);
    }
    out
}

/// A box's margin summed lane by lane: the edges in dimension order from
/// the neutral element of `f64::sum`, exactly as [`Mbr::margin`] sums them.
struct Margin(f64);

impl Margin {
    #[inline(always)]
    fn new() -> Self {
        Margin(std::iter::empty::<f64>().sum())
    }

    /// Adds the edges of lane `c` (dimensions `c * LANES..`) that lie below
    /// `dims`.
    #[inline(always)]
    fn add(&mut self, lo: Lane, hi: Lane, c: usize, dims: usize) {
        let mut edge = hi;
        for l in 0..LANES {
            edge[l] = hi[l] - lo[l];
        }
        if (c + 1) * LANES <= dims {
            for e in edge {
                self.0 += e;
            }
        } else {
            for &e in &edge[..dims - c * LANES] {
                self.0 += e;
            }
        }
    }
}

/// The margin of the box `(lo, hi)` over its first `dims` dimensions.
#[inline(always)]
fn margin(lo: &[Lane], hi: &[Lane], dims: usize) -> f64 {
    let mut margin = Margin::new();
    for c in 0..lo.len() {
        margin.add(lo[c], hi[c], c, dims);
    }
    margin.0
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
    fn rstar_split_respects_min_entries_on_skewed_data() {
        // Seven identical boxes plus one far outlier: the outlier's group
        // must still receive at least min_entries entries.
        let mut mbrs = vec![Mbr::new(vec![0.0, 0.0], vec![1.0, 1.0]); 7];
        mbrs.push(Mbr::new(vec![100.0, 100.0], vec![101.0, 101.0]));
        let result = rstar_split(&mbrs, 3);
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
    /// distribution, as the sweep does.  It sorts by [`sort_key`], ties by
    /// index: on NaN-free input that is the old `partial_cmp` order, and
    /// with NaNs it is still a total order, so NaN partitions are pinned
    /// too.
    fn naive_rstar_split(mbrs: &[Mbr], min_entries: usize) -> SplitResult {
        let dims = mbrs[0].dims();
        let total = mbrs.len();
        let distributions = total - 2 * min_entries + 1;
        let group_of = |indices: &[usize]| -> Mbr {
            Mbr::union_all(indices.iter().map(|&i| &mbrs[i])).expect("group is non-empty")
        };
        let sorted_indices = |key: &dyn Fn(usize) -> f64| {
            let mut idx: Vec<usize> = (0..total).collect();
            idx.sort_by(|&a, &b| sort_key(key(a)).cmp(&sort_key(key(b))).then(a.cmp(&b)));
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
        /// Finite values with occasional `±NaN` and `±inf`: points only,
        /// since [`Mbr::new`] rejects NaN corners.
        Nan,
    }

    impl Coords {
        const ALL: [Coords; 5] = [
            Coords::Uniform,
            Coords::Duplicates,
            Coords::SignedZeros,
            Coords::Infinite,
            Coords::Nan,
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
                Coords::Nan => {
                    if rng.below(4) == 0 {
                        rng.pick(&[f64::NAN, -f64::NAN, f64::INFINITY, f64::NEG_INFINITY])
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
        assert_eq!(
            scalar_split(mbrs, min_entries),
            expected,
            "scalar sweep: {case}"
        );
    }

    /// [`Sweep::split`] outside the AVX2 codegen region, as it runs on a
    /// CPU without AVX2 or with bt-stats' `simd` feature off.
    fn scalar_split(mbrs: &[Mbr], min_entries: usize) -> SplitResult {
        with_sweep(
            mbrs.len(),
            mbrs[0].dims(),
            |i, d| (mbrs[i].lower()[d], mbrs[i].upper()[d]),
            min_entries,
            |sweep| sweep.split(SCALAR_RANK_CUTOFF),
        )
    }

    #[test]
    fn sweep_matches_naive_split_exactly() {
        let mut rng = Rng(0x5eed_0001);
        let mut cases = 0;
        for dims in [1usize, 2, 16, 33] {
            for coords in Coords::ALL {
                for points in [true, false] {
                    if !points && matches!(coords, Coords::Nan) {
                        continue;
                    }
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
        assert!(cases > 190);
    }

    #[test]
    fn ranked_and_sorted_orders_match_naive_split_at_the_cutoff() {
        let mut rng = Rng(0x5eed_0003);
        for dims in [16usize, 33] {
            for points in [true, false] {
                // The largest split that ranks and the smallest that sorts,
                // with AVX2 and without.
                for n in [
                    SCALAR_RANK_CUTOFF,
                    SCALAR_RANK_CUTOFF + 1,
                    RANK_CUTOFF,
                    RANK_CUTOFF + 1,
                ] {
                    // Duplicates make the index tie-break decide most
                    // positions; a large minimum keeps the oracle cheap.
                    for coords in [Coords::Uniform, Coords::Duplicates] {
                        let min_entries = n / 2 - 4;
                        let mbrs = entries(&mut rng, coords, n, dims, points);
                        let case = format!("dims {dims}, {coords:?}, points {points}, n {n}");
                        assert_matches_oracle(&mbrs, min_entries, &case);
                    }
                }
            }
        }
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

    /// Points with NaN and infinite coordinates split exactly as the
    /// oracle does.  Boxes with NaN corners cannot be built as [`Mbr`]s for
    /// the oracle, so they only have to partition validly, and the same
    /// way in both dispatch states.
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
            assert_matches_oracle(&mbrs, min_entries, &format!("trial {trial}"));
            let corner = |i: usize, d: usize| {
                let x = points[i][d];
                (x, if x.is_nan() { x } else { x + 1.0 })
            };
            let boxes = rstar_split_corners(n, dims, corner, min_entries);
            assert_valid_partition(&boxes, n, min_entries);
            let scalar = with_sweep(n, dims, corner, min_entries, |sweep| {
                sweep.split(SCALAR_RANK_CUTOFF)
            });
            assert_eq!(scalar, boxes, "scalar sweep: trial {trial}");
        }
        let all_nan = vec![Mbr::from_point(&[f64::NAN, f64::NAN]); 10];
        assert_matches_oracle(&all_nan, 4, "all NaN");
    }

    #[test]
    fn only_splits_up_to_the_cutoff_build_rank_tables() {
        // The table costs O(n² · d): a large split (one big batch into an
        // empty leaf) must sort instead.
        for cutoff in [RANK_CUTOFF, SCALAR_RANK_CUTOFF] {
            for (n, tables) in [(cutoff, 2), (cutoff + 1, 0), (4_096, 0)] {
                let corner = |i: usize, d: usize| (i as f64, (i + d) as f64);
                let built = with_sweep(n, 3, corner, 1, |s| s.ranks(2, cutoff).len());
                assert_eq!(built, tables, "cutoff {cutoff}, n {n}");
            }
        }
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
