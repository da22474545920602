//! The Bayes tree's directory node: its entries in one dimension-major
//! block.
//!
//! A directory node is read one way — every entry against one query, in
//! the fused node pass ([`bt_stats::kernel::node_scores_block`] and its
//! estimate half) — so its storage is that pass's layout.  One `f64`
//! buffer, sized to the node's entry count `len`, holds
//!
//! ```text
//! [ n | child | LS | SS | lower | upper | mean | raw var | ln floored var ]
//! ```
//!
//! `n` and `child` are one value per entry (the child id stored as its
//! bits); each of the seven sections after them is dimension-major,
//! coordinate `d` of entry `i` at `d * len + i`.  The first four sections
//! are the entry's Definition 1 payload (cluster feature and box), which
//! the writer updates in place; the last three are derived from them with
//! exactly the expressions a gather used to run per read
//! ([`bt_stats::cluster_feature::raw_moments`] and `ln(max(v, floor))`).
//! A write marks its entry's derived lanes stale, and the batch brings them
//! up to date before it publishes ([`Directory::finish`]), so a published
//! node is complete: readers score it where it lies, with no gather and no
//! cached second copy, and a copy-on-write copy is one `memcpy`.

use crate::node::KernelSummary;
use bt_anytree::{Directory, NodeId};
use bt_index::rstar::rstar_split_corners;
use bt_index::{Mbr, PageGeometry};
use bt_stats::cluster_feature::raw_moments;
use bt_stats::kernel::NodeColumns;
use bt_stats::{ClusterFeature, VARIANCE_FLOOR};
use std::borrow::Cow;

/// The seven per-dimension sections of a block, in buffer order.
const LS: usize = 0;
const SS: usize = 1;
const LOWER: usize = 2;
const UPPER: usize = 3;
const MEAN: usize = 4;
const VAR: usize = 5;
const LOG_VAR: usize = 6;
const SECTIONS: usize = 7;

/// The stale mask bit of entry `i`; the last bit covers every entry from
/// 63 on.
fn stale_bit(i: usize) -> u64 {
    1 << i.min(63)
}

/// Where each of the `2 + 7 * dims` lanes (`n`, `child`, then every
/// section's columns) starts in a block of `to_len` entries and in one of
/// `from_len`.
fn lanes(dims: usize, to_len: usize, from_len: usize) -> impl Iterator<Item = (usize, usize)> {
    (0..2 + SECTIONS * dims).map(move |c| (c * to_len, c * from_len))
}

/// The entries of one Bayes-tree directory node, stored dimension-major
/// (see the [module docs](self)).
#[derive(Debug, Default)]
pub struct EntryColumns {
    dims: usize,
    len: usize,
    /// Entries whose derived lanes a write left stale: bit
    /// `min(i, 63)` of entry `i`.  Empty on every published node.
    stale: u64,
    /// `len * (2 + 7 * dims)` values, laid out as in the module docs.
    data: Vec<f64>,
}

impl Clone for EntryColumns {
    fn clone(&self) -> Self {
        Self {
            dims: self.dims,
            len: self.len,
            stale: self.stale,
            data: self.data.clone(),
        }
    }

    /// One `memcpy` into `self`'s buffer (which grows only when it is too
    /// small), so a recycled directory version keeps its allocation.
    fn clone_from(&mut self, source: &Self) {
        self.dims = source.dims;
        self.len = source.len;
        self.stale = source.stale;
        self.data.clone_from(&source.data);
    }
}

impl EntryColumns {
    /// An empty block of `len` entries over `dims` dimensions.
    fn zeroed(dims: usize, len: usize) -> Self {
        Self {
            dims,
            len,
            stale: 0,
            data: vec![0.0; len * (2 + SECTIONS * dims)],
        }
    }

    /// Where section `k` starts in the buffer.
    fn at(&self, k: usize) -> usize {
        (2 + k * self.dims) * self.len
    }

    /// Section `k`: `dims` columns of `len` values.
    fn section(&self, k: usize) -> &[f64] {
        let at = self.at(k);
        &self.data[at..at + self.dims * self.len]
    }

    /// The index of value `(d, i)` of section `k`.
    fn idx(&self, k: usize, d: usize, i: usize) -> usize {
        self.at(k) + d * self.len + i
    }

    /// Every entry's object count `n`, in entry order.
    #[must_use]
    pub fn weights(&self) -> &[f64] {
        &self.data[..self.len]
    }

    /// The columns the fused node pass reads: means, raw and log-floored
    /// variances, and box corners.
    ///
    /// A read between two cursor steps of an open batch sees an absorbed
    /// entry's derived lanes as of the last publish.
    #[must_use]
    pub fn node_columns(&self) -> NodeColumns<'_> {
        let size = self.dims * self.len;
        let boxes = &self.data[self.at(LOWER)..];
        let (lower, boxes) = boxes.split_at(size);
        let (upper, derived) = boxes.split_at(size);
        let (mean, derived) = derived.split_at(size);
        let (var, log_var) = derived.split_at(size);
        NodeColumns::new(self.len, mean, var, log_var, lower, upper)
    }

    /// Whether every derived lane is up to date (true on every published
    /// node).
    #[must_use]
    pub fn is_published(&self) -> bool {
        self.stale == 0
    }

    /// Whether entry `i`'s box corners and cluster-feature sums along `d`
    /// are finite.
    #[must_use]
    pub fn payload_finite(&self, i: usize, d: usize) -> bool {
        [LS, SS, LOWER, UPPER]
            .iter()
            .all(|&k| self.data[self.idx(k, d, i)].is_finite())
    }

    /// Row `i` of section `k`.
    fn row(&self, k: usize, i: usize) -> Vec<f64> {
        (0..self.dims)
            .map(|d| self.data[self.idx(k, d, i)])
            .collect()
    }

    /// Entry `i`'s cluster feature `(n, LS, SS)`.
    #[must_use]
    pub fn cluster_feature(&self, i: usize) -> ClusterFeature {
        ClusterFeature::from_parts(self.data[i], self.row(LS, i), self.row(SS, i))
    }

    /// Entry `i` materialised as a summary (box and cluster feature).
    #[must_use]
    pub fn entry_summary(&self, i: usize) -> KernelSummary {
        KernelSummary {
            mbr: Mbr::new(self.row(LOWER, i), self.row(UPPER, i)),
            cf: self.cluster_feature(i),
        }
    }

    /// Entry `i`'s derived lanes as stored: per dimension `(mean, raw
    /// variance, ln floored variance)`.
    #[must_use]
    pub fn derived(&self, i: usize) -> Vec<(f64, f64, f64)> {
        (0..self.dims)
            .map(|d| {
                (
                    self.data[self.idx(MEAN, d, i)],
                    self.data[self.idx(VAR, d, i)],
                    self.data[self.idx(LOG_VAR, d, i)],
                )
            })
            .collect()
    }

    /// Absorbs one point into entry `i` in place — the cluster-feature and
    /// box updates of `KernelSummary::absorb_point`, same expressions — and
    /// marks the entry's derived lanes stale.
    pub fn absorb_point(&mut self, i: usize, point: &[f64]) {
        assert!(
            i < self.len && point.len() == self.dims,
            "entry {i} absorbs a point"
        );
        self.data[i] += 1.0;
        let len = self.len;
        let [ls, ss, lower, upper] = self.payload_mut();
        for (d, &x) in point.iter().enumerate() {
            let at = d * len + i;
            lower[at] = lower[at].min(x);
            upper[at] = upper[at].max(x);
            ls[at] += x;
            ss[at] += x * x;
        }
        self.stale |= stale_bit(i);
    }

    /// The four payload sections `[LS, SS, lower, upper]`, for a write.
    fn payload_mut(&mut self) -> [&mut [f64]; 4] {
        let (size, at) = (self.dims * self.len, self.at(LS));
        let (_, rest) = self.data.split_at_mut(at);
        let (ls, rest) = rest.split_at_mut(size);
        let (ss, rest) = rest.split_at_mut(size);
        let (lower, rest) = rest.split_at_mut(size);
        [ls, ss, lower, &mut rest[..size]]
    }

    /// Writes entry `i` from `summary` over `child`, derived lanes
    /// included.
    fn write_entry(&mut self, i: usize, summary: &KernelSummary, child: NodeId) {
        debug_assert_eq!(summary.cf.dims(), self.dims);
        self.data[i] = summary.cf.weight();
        self.data[self.len + i] = f64::from_bits(child as u64);
        let columns = [
            (LS, summary.cf.linear_sum()),
            (SS, summary.cf.squared_sum()),
            (LOWER, summary.mbr.lower()),
            (UPPER, summary.mbr.upper()),
        ];
        for (k, row) in columns {
            for (d, &v) in row.iter().enumerate() {
                let at = self.idx(k, d, i);
                self.data[at] = v;
            }
        }
        self.derive(i);
    }

    /// Brings entry `i`'s derived lanes up to date from its `n`, `LS` and
    /// `SS`: the mean and raw variance of `ClusterFeature::raw_moments`
    /// and the log of the variance floored as the `DiagGaussian` clamp
    /// does.
    fn derive(&mut self, i: usize) {
        let (len, size) = (self.len, self.dims * self.len);
        let (ls_at, mean_at) = (self.at(LS), self.at(MEAN));
        let n = self.data[i];
        let empty = n <= f64::EPSILON;
        let (payload, derived) = self.data.split_at_mut(mean_at);
        let payload = &payload[ls_at..];
        let (ls, ss) = (&payload[..size], &payload[size..2 * size]);
        let (mean, rest) = derived.split_at_mut(size);
        let (var, log_var) = rest.split_at_mut(size);
        for at in (i..size).step_by(len) {
            let (m, v) = if empty {
                (0.0, VARIANCE_FLOOR)
            } else {
                raw_moments(ls[at], ss[at], n)
            };
            mean[at] = m;
            var[at] = v;
            log_var[at] = v.max(VARIANCE_FLOOR).ln();
        }
    }

    /// A block of the entries of `self` at `order`, in that order.
    fn select(&self, order: &[usize]) -> Self {
        let mut out = Self::zeroed(self.dims, order.len());
        for (to, from) in lanes(self.dims, out.len, self.len) {
            for (k, &i) in order.iter().enumerate() {
                out.data[to + k] = self.data[from + i];
            }
        }
        out
    }

    /// Copies every lane of `source` into `self`'s entries `start..`.
    fn copy_from(&mut self, source: &Self, start: usize) {
        debug_assert_eq!(source.dims, self.dims);
        let len = source.len;
        for (to, from) in lanes(self.dims, self.len, len) {
            self.data[to + start..to + start + len].copy_from_slice(&source.data[from..from + len]);
        }
    }

    /// Every entry of `blocks`, stacked in order into one block over
    /// `dims` dimensions — each lane a copy of the sources' lane ranges,
    /// derived lanes included.
    ///
    /// # Panics
    ///
    /// Panics if a source has stale derived lanes or another
    /// dimensionality.
    #[must_use]
    pub fn stacked<'a>(
        dims: usize,
        blocks: impl Iterator<Item = &'a EntryColumns> + Clone,
    ) -> Self {
        let len = blocks.clone().map(|b| b.len).sum();
        let mut out = Self::zeroed(dims, len);
        let mut start = 0;
        for block in blocks.filter(|b| !b.is_empty()) {
            assert_eq!(block.dims, dims, "stacked blocks share a dimensionality");
            assert!(block.is_published(), "stacked blocks are published");
            out.copy_from(block, start);
            start += block.len;
        }
        out
    }
}

impl Directory<KernelSummary> for EntryColumns {
    fn from_entries(entries: Vec<(KernelSummary, NodeId)>) -> Self {
        let dims = entries.first().map_or(0, |(s, _)| s.cf.dims());
        let mut block = Self::zeroed(dims, entries.len());
        for (i, (summary, child)) in entries.iter().enumerate() {
            block.write_entry(i, summary, *child);
        }
        block
    }

    fn len(&self) -> usize {
        self.len
    }

    fn child(&self, i: usize) -> NodeId {
        self.data[self.len + i].to_bits() as NodeId
    }

    fn summary(&self, i: usize) -> Cow<'_, KernelSummary> {
        Cow::Owned(self.entry_summary(i))
    }

    fn boxes(&self) -> Option<(&[f64], &[f64])> {
        Some((self.section(LOWER), self.section(UPPER)))
    }

    fn replace(&mut self, i: usize, summary: KernelSummary, child: NodeId, _ctx: ()) {
        self.write_entry(i, &summary, child);
        if i < 63 {
            self.stale &= !stale_bit(i);
        }
    }

    /// Lays the block out again at the grown length, then writes the new
    /// entries.
    fn extend_entries(&mut self, entries: Vec<(KernelSummary, NodeId)>) {
        if self.len == 0 {
            *self = Self::from_entries(entries);
            return;
        }
        let old = self.len;
        let mut grown = Self::zeroed(self.dims, old + entries.len());
        grown.copy_from(self, 0);
        grown.stale = self.stale;
        for (k, (summary, child)) in entries.iter().enumerate() {
            grown.write_entry(old + k, summary, *child);
        }
        *self = grown;
    }

    /// Folds each lane in entry order from entry 0's values — the
    /// `clone` + `merge` fold of the entries' summaries, same operations in
    /// the same order, so the result keeps its bits.
    fn summarize(&self, _ctx: ()) -> KernelSummary {
        assert!(!self.is_empty(), "cannot summarise an empty inner node");
        let fold = |k: usize, op: fn(f64, f64) -> f64| -> Vec<f64> {
            let col = self.section(k);
            col.chunks_exact(self.len)
                .map(|c| c[1..].iter().fold(c[0], |acc, &v| op(acc, v)))
                .collect()
        };
        let n = self.weights()[1..]
            .iter()
            .fold(self.weights()[0], |acc, &v| acc + v);
        KernelSummary {
            mbr: Mbr::new(fold(LOWER, f64::min), fold(UPPER, f64::max)),
            cf: ClusterFeature::from_parts(n, fold(LS, |a, b| a + b), fold(SS, |a, b| a + b)),
        }
    }

    /// The R* topological split over the box columns; each group keeps its
    /// entries in their original order (the membership sets decide, not
    /// the sweep's sort order).
    fn split_in_two(self, geometry: &PageGeometry, dims: usize) -> (Self, Self) {
        debug_assert!(
            self.is_published(),
            "a batch finishes a node before it splits"
        );
        let min = geometry.min_fanout.min(self.len / 2).max(1);
        let (lower, upper) = (self.section(LOWER), self.section(UPPER));
        let len = self.len;
        let split = rstar_split_corners(
            len,
            dims,
            |i, d| (lower[d * len + i], upper[d * len + i]),
            min,
        );
        let mut in_first = vec![false; len];
        for &i in &split.first {
            in_first[i] = true;
        }
        let (first, second): (Vec<usize>, Vec<usize>) = (0..len).partition(|&i| in_first[i]);
        (self.select(&first), self.select(&second))
    }

    fn is_finished(&self) -> bool {
        self.is_published()
    }

    /// Derives the lanes of every entry a write left stale.
    fn finish(&mut self) {
        if self.stale == 0 {
            return;
        }
        for i in 0..self.len.min(63) {
            if self.stale & stale_bit(i) != 0 {
                self.derive(i);
            }
        }
        if self.stale & stale_bit(63) != 0 {
            for i in 63..self.len {
                self.derive(i);
            }
        }
        self.stale = 0;
    }
}
