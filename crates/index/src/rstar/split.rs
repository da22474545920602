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
//! the suffix boxes (second groups) of all distributions, each box's
//! margin summed right after it grows.  A split of `n` entries in `d`
//! dimensions costs `O(d · n · (d + n))`; above a small constant `n`
//! (`RANK_CUTOFF` under AVX2, `SCALAR_RANK_CUTOFF` otherwise) each axis
//! is sorted by key instead of ranked, for `O(d · n · (d + log n))`.
//! Either replaces the `O(d² · n²)` of rebuilding both groups' boxes per
//! distribution, and picks the same partition.
//!
//! The corner tables, rank tables, orders and rows live in per-thread
//! buffers that the next split reuses, so a split allocates only its
//! result.
//!
//! On x86_64 the sweep runs under AVX2 codegen whenever
//! [`bt_stats::simd::avx2_available`] holds (the CPU has AVX2 and
//! bt-stats' `simd` feature is on): the ranking compares and the
//! corner-wise min/max fill whole registers.  There, at 13–16 dimensions
//! on NaN-free corners, each group is swept with its box in registers and
//! the margins of four consecutive rows summed side by side, one row to a
//! lane, so the sweep is not bound by one chain of dependent additions
//! per row; only the chosen axis's rows are written out.  Otherwise the
//! rows are grown in memory, and without AVX2 the same code runs as plain
//! scalar code.  Every path picks the same partition.

use crate::mbr::Mbr;
use bt_stats::simd::LANES;
use std::cell::RefCell;

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
    with_sweep(len, dims, corner, min_entries, |sweep, work| {
        sweep.run(work)
    })
}

/// Gathers the entries' corners into a [`Sweep`] over this thread's split
/// buffers and hands it to `f` with the rest of the buffers.
fn with_sweep<F, R>(
    len: usize,
    dims: usize,
    corner: F,
    min_entries: usize,
    f: impl FnOnce(&Sweep<'_>, &mut Work) -> R,
) -> R
where
    F: Fn(usize, usize) -> (f64, f64),
{
    let chunks = dims.div_ceil(LANES);
    with_buffers(len * chunks, |buffers| {
        let SplitBuffers { lo, hi, work } = buffers;
        let (points, nan) = gather(len, dims, chunks, &corner, lo, hi);
        let sweep = Sweep {
            dims,
            chunks,
            min: min_entries,
            lo,
            hi: if points { lo } else { hi },
            points,
            nan,
        };
        f(&sweep, work)
    })
}

/// Writes every corner into the lane tables (`lo`, and `hi` once an upper
/// corner differs from its lower one; the last lane of each row is padded
/// with zeros).  Returns whether every upper corner equals its lower one
/// (pure points: `hi` is left unwritten) and whether a corner is NaN.
fn gather<F>(
    len: usize,
    dims: usize,
    chunks: usize,
    corner: &F,
    lo: &mut Vec<Lane>,
    hi: &mut Vec<Lane>,
) -> (bool, bool)
where
    F: Fn(usize, usize) -> (f64, f64),
{
    lo.clear();
    lo.resize(len * chunks, [0.0; LANES]);
    let (mut points, mut nan) = (true, false);
    for i in 0..len {
        for d in 0..dims {
            let (l, h) = corner(i, d);
            let at = (i * chunks + d / LANES, d % LANES);
            lo[at.0][at.1] = l;
            nan |= l.is_nan() | h.is_nan();
            if points && l == h {
                continue;
            }
            if points {
                // Every corner so far was a point's: its upper corner
                // equals the lower one already written.
                points = false;
                hi.clone_from(lo);
            }
            hi[at.0][at.1] = h;
        }
    }
    (points, nan)
}

/// Runs `f` on this thread's split buffers, or on fresh ones for a split
/// of more than [`RETAINED_LANES`] corner lanes, when they are in use (a
/// corner accessor that splits) or when they are already torn down.
fn with_buffers<R>(lanes: usize, f: impl FnOnce(&mut SplitBuffers) -> R) -> R {
    let mut f = Some(f);
    if lanes <= RETAINED_LANES {
        let pooled = BUFFERS.try_with(|buffers| {
            let mut buffers = buffers.try_borrow_mut().ok()?;
            Some((f.take()?)(&mut buffers))
        });
        if let Ok(Some(result)) = pooled {
            return result;
        }
    }
    (f.take().expect("the split has not run"))(&mut SplitBuffers::new())
}

thread_local! {
    /// The buffers of this thread's splits.
    static BUFFERS: RefCell<SplitBuffers> = const { RefCell::new(SplitBuffers::new()) };
}

/// The largest split, in corner lanes (entries times lanes per entry),
/// that runs in the thread's kept buffers: a 16-d leaf overflowed by one
/// point (31 × 4) or a directory split.  No buffer holds more lanes than
/// the split has, so a thread keeps at most eight tables of 128 lanes
/// (32 KiB; about 12 KiB after 31-point 16-d leaf splits).  Larger splits
/// (a batch into a full leaf) run in buffers of their own, freed when
/// they are done.
const RETAINED_LANES: usize = 128;

/// Under AVX2, splits of at most this many entries order every axis
/// through one rank table over all entry pairs (`O(n² · d)`, no
/// data-dependent branch); larger ones sort each axis by key.  Measured
/// per split in 16 and 33 dimensions, the table beats the sorts by 1.1–1.4×
/// at 64 entries, breaks even around 96 and loses at 128 (docs/PERF.md).
/// 96 covers a full 16-d leaf overflowed by a 64-point batch.
const RANK_CUTOFF: usize = 96;

/// [`RANK_CUTOFF`] without AVX2, measured when the table compared 64-bit
/// integer keys, which baseline x86-64 cannot compare in vector
/// registers: it broke even with the sorts at about 24–31 entries.
const SCALAR_RANK_CUTOFF: usize = 24;

/// The one width, in lanes, whose sweep is compiled with the width known:
/// 13–16 dimensions, the width of the benchmark streams and of the Letter
/// and Pendigits data.  Each further width would add about 6 KB of code
/// to the AVX2 region, and the split's code size shows in
/// `rss_peak_mb` (docs/PERF.md, "R* split kernel").
const WIDTH: usize = 4;

/// Coordinates of one vector register.
type Lane = [f64; LANES];

/// The corner tables of a split and the buffers its sweep works in.
struct SplitBuffers {
    lo: Vec<Lane>,
    hi: Vec<Lane>,
    work: Work,
}

/// Everything a sweep writes: rank tables, sort keys, orders, margins and
/// the boxes of the groups.
struct Work {
    /// Rank tables of the lower and the upper corners.
    ranks: [Vec<[i64; LANES]>; 2],
    /// Sort keys of one axis, above the rank cutoff.
    keys: Vec<u128>,
    /// The axis's order by lower and by upper corner.
    orders: [Vec<usize>; 2],
    /// One of `orders` back to front: its suffix groups are prefixes.
    reversed: Vec<usize>,
    /// Margins of the prefix and of the suffix groups of one order: row `j`
    /// grows the group's first `min` entries by `j` more.
    margins: [Vec<f64>; 2],
    /// The boxes of the prefix and of the suffix groups, with their
    /// margins on the sweep at run-time width.
    rows: [Boxes; 2],
}

impl SplitBuffers {
    const fn new() -> Self {
        Self {
            lo: Vec::new(),
            hi: Vec::new(),
            work: Work {
                ranks: [Vec::new(), Vec::new()],
                keys: Vec::new(),
                orders: [Vec::new(), Vec::new()],
                reversed: Vec::new(),
                margins: [Vec::new(), Vec::new()],
                rows: [Boxes::new(), Boxes::new()],
            },
        }
    }
}

/// The entries' corners as item-major rows of `chunks` lanes (dimension
/// `d` of entry `i` is `lo[i * chunks + d / LANES][d % LANES]`; the last
/// lane is padded with zeros), plus the split parameters.  For pure points
/// `hi` is `lo`.
struct Sweep<'a> {
    dims: usize,
    chunks: usize,
    min: usize,
    lo: &'a [Lane],
    hi: &'a [Lane],
    /// Every upper corner equals its lower one.
    points: bool,
    /// Some corner is NaN.
    nan: bool,
}

/// Row-major boxes in the entries' lane layout, with their margins.
struct Boxes {
    lo: Vec<Lane>,
    hi: Vec<Lane>,
    margin: Vec<f64>,
}

impl Boxes {
    const fn new() -> Self {
        Self {
            lo: Vec::new(),
            hi: Vec::new(),
            margin: Vec::new(),
        }
    }

    fn row(&self, j: usize, sweep: &Sweep<'_>) -> (&[f64], &[f64]) {
        let span = j * sweep.chunks..(j + 1) * sweep.chunks;
        let dims = ..sweep.dims;
        let (lo, hi) = (&self.lo[span.clone()], &self.hi[span]);
        (&lo.as_flattened()[dims], &hi.as_flattened()[dims])
    }

    /// Sizes the boxes to `rows` rows and makes row 0 the box of the
    /// entries `seed`, with its margin.
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
        let mut margin = Margin::new();
        for c in 0..chunks {
            margin.add(row_lo[c], row_hi[c], c, sweep.dims);
        }
        self.margin[0] = margin.0;
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

/// Writes the positions of the entries in ascending order of every axis of
/// `rows` (a corner table of `sweep`, free of NaN) to `rank`, in the
/// entries' lane layout, in one pass over all ordered entry pairs: entry
/// `i`'s rank counts the entries before `i` whose coordinate is at most
/// `i`'s plus the entries after `i` whose coordinate is below it.  On
/// NaN-free input `<=` is [`sort_key`]'s order (`-0.0` and `+0.0` compare
/// equal), so each axis's ranks are the positions in the `(sort_key,
/// index)` order, a permutation.
#[inline(always)]
fn rank_table(sweep: &Sweep<'_>, rows: &[Lane], rank: &mut Vec<[i64; LANES]>) {
    let chunks = sweep.chunks;
    rank.clear();
    rank.resize(rows.len(), [0; LANES]);
    let own_rows = rows.chunks_exact(chunks).zip(rank.chunks_exact_mut(chunks));
    for (i, (own, out)) in own_rows.enumerate() {
        let (before, after) = (&rows[..i * chunks], &rows[(i + 1) * chunks..]);
        for c in 0..chunks {
            let own = own[c];
            let mut acc = [0_i64; LANES];
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
}

impl Sweep<'_> {
    fn len(&self) -> usize {
        self.lo.len() / self.chunks
    }

    fn distributions(&self) -> usize {
        self.len() - 2 * self.min + 1
    }

    /// Pure points sort identically by both corners, so the upper-corner
    /// order adds the same margins again and can never strictly improve a
    /// distribution: one order serves as both.
    fn orders(&self) -> usize {
        if self.points {
            1
        } else {
            2
        }
    }

    /// The corner table of order `o`: lower corners, then upper ones.
    fn table(&self, o: usize) -> &[Lane] {
        [self.lo, self.hi][o]
    }

    /// Whether the axes are ordered through rank tables: at most
    /// `rank_cutoff` entries and no NaN corner (NaNs order only by key).
    fn ranked(&self, rank_cutoff: usize) -> bool {
        self.len() <= rank_cutoff && !self.nan
    }

    fn corners(&self, i: usize) -> (&[Lane], &[Lane]) {
        let span = i * self.chunks..(i + 1) * self.chunks;
        (&self.lo[span.clone()], &self.hi[span])
    }

    /// [`Sweep::split`], compiled for AVX2 when the CPU has it.
    fn run(&self, work: &mut Work) -> SplitResult {
        #[cfg(target_arch = "x86_64")]
        if bt_stats::simd::avx2_available() {
            // SAFETY: AVX2 support was just verified.
            return unsafe { avx2::split(self, work) };
        }
        self.split::<false>(SCALAR_RANK_CUTOFF, work)
    }

    /// Axis with minimal total margin over all distributions of both
    /// sortings (by lower and by upper coordinate), then the distribution
    /// on that axis with minimal overlap, ties broken by area.  The first
    /// candidate strictly better than every earlier one wins; if none beats
    /// `+inf` (infinite or NaN coordinates), axis 0 and its first
    /// distribution stand in.
    #[inline(always)]
    fn split<const WIDE: bool>(&self, rank_cutoff: usize, work: &mut Work) -> SplitResult {
        // Plain loops rather than iterator adaptors over closures here and
        // in the helpers of `split`: a closure that runs inside a
        // non-inlined library function would leave the AVX2 codegen region.
        let (orders, distributions) = (self.orders(), self.distributions());
        let ranked = self.ranked(rank_cutoff);
        if ranked {
            for o in 0..orders {
                rank_table(self, self.table(o), &mut work.ranks[o]);
            }
        }
        for margins in &mut work.margins {
            margins.resize(distributions, 0.0);
        }
        let mut best_axis = 0;
        let mut best_margin = f64::INFINITY;
        let mut best = (0, 0);
        let mut best_overlap = f64::INFINITY;
        let mut best_area = f64::INFINITY;
        // Steps `0..dims` sum each axis's margins; step `dims` sweeps the
        // chosen axis again, keeping its rows, and picks the distribution.
        // One loop, so the sweep is compiled once.
        for step in 0..=self.dims {
            let keep = step == self.dims;
            let axis = if keep { best_axis } else { step };
            let mut margin_sum = 0.0;
            for o in 0..orders {
                self.order(work, o, axis, ranked);
                let Work {
                    orders: by_order,
                    reversed,
                    margins: [prefix, suffix],
                    rows: [prefix_rows, suffix_rows],
                    ..
                } = &mut *work;
                if WIDE && !self.nan && self.chunks == WIDTH {
                    for suffixes in [false, true] {
                        let (seq, out, rows) = if suffixes {
                            (&reversed[..], &mut *suffix, &mut *suffix_rows)
                        } else {
                            (&by_order[o][..], &mut *prefix, &mut *prefix_rows)
                        };
                        self.group_in::<WIDTH>(seq, out, rows, keep);
                    }
                } else {
                    let seqs = [&by_order[o][..], &reversed[..]];
                    self.group_pair(seqs, [prefix_rows, suffix_rows], distributions);
                    prefix.copy_from_slice(&prefix_rows.margin);
                    suffix.copy_from_slice(&suffix_rows.margin);
                }
                if !keep {
                    // A point split's one order counts for both.
                    for _ in orders..3 {
                        for k in 0..distributions {
                            margin_sum += prefix[k] + suffix[distributions - 1 - k];
                        }
                    }
                    continue;
                }
                for k in 0..distributions {
                    let (p_lo, p_hi) = prefix_rows.row(k, self);
                    let (s_lo, s_hi) = suffix_rows.row(distributions - 1 - k, self);
                    let overlap = overlap_of(p_lo, p_hi, s_lo, s_hi);
                    let area = area_of(p_lo, p_hi) + area_of(s_lo, s_hi);
                    if overlap < best_overlap || (overlap == best_overlap && area < best_area) {
                        best_overlap = overlap;
                        best_area = area;
                        best = (o, k);
                    }
                }
            }
            if margin_sum < best_margin {
                best_margin = margin_sum;
                best_axis = axis;
            }
        }
        let (o, k) = best;
        let (first, second) = work.orders[o].split_at(self.min + k);
        SplitResult {
            first: first.to_vec(),
            second: second.to_vec(),
        }
    }

    /// Writes the entry indices in order `o` along `axis` to
    /// `work.orders[o]`, and back to front to `work.reversed`.
    #[inline(always)]
    fn order(&self, work: &mut Work, o: usize, axis: usize, ranked: bool) {
        let order = &mut work.orders[o];
        if ranked {
            order.resize(self.len(), 0);
            let (c, l) = (axis / LANES, axis % LANES);
            for (i, rank) in work.ranks[o].chunks_exact(self.chunks).enumerate() {
                order[rank[c][l] as usize] = i;
            }
        } else {
            self.sort_axis(self.table(o), axis, &mut work.keys, order);
        }
        work.reversed.clear();
        work.reversed.extend(order.iter().rev());
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

    /// Writes the margin of every prefix group `order[..min + j]` to
    /// `margins[0][j]` and of every suffix group `reversed[..min + j]` to
    /// `margins[1][j]`, with their boxes in the rows, each row the one
    /// before it grown by one entry (corner-wise `f64::min`/`f64::max`, as
    /// [`Mbr::extend_mbr`] grows a box) and its margin summed as it grows.
    /// A prefix and a suffix row are independent, so growing them side by
    /// side overlaps their margin sums.  The sweep at any width and on NaN
    /// corners.
    #[inline(always)]
    fn group_pair(
        &self,
        [order, reversed]: [&[usize]; 2],
        [prefix, suffix]: [&mut Boxes; 2],
        count: usize,
    ) {
        prefix.seed(self, &order[..self.min], count);
        suffix.seed(self, &reversed[..self.min], count);
        for j in 1..count {
            prefix.grow_row(self, j, order[self.min + j - 1]);
            suffix.grow_row(self, j, reversed[self.min + j - 1]);
        }
    }

    /// [`Sweep::group_pair`]'s margins for one group `seq[..min + j]`, on
    /// NaN-free corners at a width known at compile time: the growing box
    /// lives in `2 · C` registers and grows by compare and select, and
    /// four rows' margins are summed side by side, one row to a lane, each
    /// the edges in dimension order from the neutral element of `f64::sum`,
    /// exactly as [`Mbr::margin`] sums them (the padding of the last lane
    /// adds `-0.0`, the identity of `+`).  With `keep` the boxes are
    /// written to `rows`.
    #[inline(always)]
    fn group_in<const C: usize>(
        &self,
        seq: &[usize],
        out: &mut [f64],
        rows: &mut Boxes,
        keep: bool,
    ) {
        let count = out.len();
        if keep {
            rows.lo.resize(count * C, [0.0; LANES]);
            rows.hi.resize(count * C, [0.0; LANES]);
        }
        let mut pad = [0; LANES];
        for (l, pad) in pad.iter_mut().enumerate() {
            *pad = u64::from((C - 1) * LANES + l >= self.dims) << 63;
        }
        let (mut box_lo, mut box_hi) = self.lanes::<C>(seq[0]);
        for &i in &seq[1..self.min] {
            let (lo, hi) = self.lanes::<C>(i);
            for c in 0..C {
                box_lo[c] = lane_lower(box_lo[c], lo[c]);
                box_hi[c] = lane_upper(box_hi[c], hi[c]);
            }
        }
        let mut next = self.min;
        for block in (0..count).step_by(LANES) {
            let mut edges = [[[0.0; LANES]; C]; LANES];
            for (r, edges) in edges.iter_mut().enumerate() {
                let row = block + r;
                if row > 0 && row < count {
                    let (lo, hi) = self.lanes::<C>(seq[next]);
                    next += 1;
                    for c in 0..C {
                        box_lo[c] = lane_lower(box_lo[c], lo[c]);
                        box_hi[c] = lane_upper(box_hi[c], hi[c]);
                    }
                }
                if keep && row < count {
                    rows.lo[row * C..(row + 1) * C].copy_from_slice(&box_lo);
                    rows.hi[row * C..(row + 1) * C].copy_from_slice(&box_hi);
                }
                for c in 0..C {
                    for l in 0..LANES {
                        edges[c][l] = box_hi[c][l] - box_lo[c][l];
                    }
                }
                for l in 0..LANES {
                    edges[C - 1][l] = f64::from_bits(edges[C - 1][l].to_bits() | pad[l]);
                }
            }
            let mut sums = [-0.0; LANES];
            for d in 0..C * LANES {
                for r in 0..LANES {
                    sums[r] += edges[r][d / LANES][d % LANES];
                }
            }
            let take = (count - block).min(LANES);
            out[block..block + take].copy_from_slice(&sums[..take]);
        }
    }

    /// Entry `i`'s corners as `C` lanes each.
    #[inline(always)]
    fn lanes<const C: usize>(&self, i: usize) -> ([Lane; C], [Lane; C]) {
        let span = i * C..(i + 1) * C;
        let lo = self.lo[span.clone()].try_into().expect("C lanes");
        (lo, self.hi[span].try_into().expect("C lanes"))
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{SplitResult, Sweep, Work};

    /// [`Sweep::split`] in an AVX2 codegen region, ranking up to
    /// [`RANK_CUTOFF`](super::RANK_CUTOFF) entries: the rank compares and
    /// the corner-wise min/max run four lanes to a register.
    ///
    /// # Safety
    /// The executing CPU must support AVX2 (`avx2_available()`).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn split(sweep: &Sweep<'_>, work: &mut Work) -> SplitResult {
        sweep.split::<true>(super::RANK_CUTOFF, work)
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

/// Lane-wise minimum of NaN-free lanes by compare and select, one
/// instruction a register: [`lane_min`] up to the sign of a zero, which no
/// margin, area or overlap comparison of the split tells apart.
#[inline(always)]
fn lane_lower(a: Lane, b: Lane) -> Lane {
    let mut out = a;
    for l in 0..LANES {
        out[l] = if b[l] < a[l] { b[l] } else { a[l] };
    }
    out
}

/// [`lane_lower`]'s maximum: [`lane_max`] on NaN-free lanes.
#[inline(always)]
fn lane_upper(a: Lane, b: Lane) -> Lane {
    let mut out = a;
    for l in 0..LANES {
        out[l] = if b[l] > a[l] { b[l] } else { a[l] };
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

/// [`Mbr::area`] over corner slices.
fn area_of(lo: &[f64], hi: &[f64]) -> f64 {
    lo.iter().zip(hi).map(|(l, u)| u - l).product()
}

/// [`Mbr::overlap`] over corner slices.
fn overlap_of(a_lo: &[f64], a_hi: &[f64], b_lo: &[f64], b_hi: &[f64]) -> f64 {
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
            |sweep, work| sweep.split::<false>(SCALAR_RANK_CUTOFF, work),
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
    fn every_width_matches_naive_split() {
        // Dims 13-16 run the sweep with the box in registers under AVX2,
        // every other width (1-6 lanes, and 25 and 33 dims) and NaN points
        // the rows in memory; the scalar body runs the rows in memory at
        // every width.  Minimum group sizes from 1 to n / 2.
        let mut rng = Rng(0x5eed_0004);
        let mut cases = 0;
        for dims in (1..=24).chain([25, 33]) {
            for points in [true, false] {
                let families: &[Coords] = match (points, dims % 3) {
                    (true, 0) => &[Coords::Uniform, Coords::Nan],
                    (_, 1) => &[Coords::Duplicates],
                    _ => &[Coords::Uniform, Coords::SignedZeros],
                };
                for &coords in families {
                    let n = 2 + rng.below(30);
                    let mut mins = vec![1, 2, n / 4, n / 2];
                    mins.retain(|&m| m >= 1 && 2 * m <= n);
                    mins.dedup();
                    for min_entries in mins {
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
        assert!(cases > 250, "{cases} cases");
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
            let scalar = with_sweep(n, dims, corner, min_entries, |sweep, work| {
                sweep.split::<false>(SCALAR_RANK_CUTOFF, work)
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
        // NaN corners order only by key, at any size.
        for cutoff in [RANK_CUTOFF, SCALAR_RANK_CUTOFF] {
            for (n, ranked) in [(cutoff, true), (cutoff + 1, false), (4_096, false)] {
                let corner = |i: usize, d: usize| (i as f64, (i + d) as f64);
                let built = with_sweep(n, 3, corner, 1, |s, _| s.ranked(cutoff));
                assert_eq!(built, ranked, "cutoff {cutoff}, n {n}");
                let nan = |i: usize, d: usize| {
                    if i == 1 {
                        (f64::NAN, f64::NAN)
                    } else {
                        corner(i, d)
                    }
                };
                assert!(!with_sweep(n, 3, nan, 1, |s, _| s.ranked(cutoff)));
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
