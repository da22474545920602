//! The Bayes tree's leaf: its kernel centres in one dimension-major block.
//!
//! A leaf node is read one way — every kernel centre against one query, in
//! the fused leaf pass ([`bt_stats::kernel::leaf_scores_block`]) — so its
//! storage is that pass's layout: coordinate `d` of point `i` lives at
//! `d * stride + i` of one `f64` buffer.  The reader scores the block where
//! it lies (no gather, no cached second copy), a copy-on-write copy of the
//! leaf is one allocation (or one `memcpy` into a recycled version), and a
//! summary sums each column in point order, which is the order the
//! per-point cluster-feature and box updates add in, so every summary keeps
//! its bits.
//!
//! `stride >= len` leaves room to append without moving the block; a push
//! into a full block lays the block out again once, at a stride half as
//! large again.  Bulk-loaded blocks are exact (`stride == len`); the two
//! halves of a split keep room for a full page, so the appends that fill
//! them again write in place.

use bt_anytree::LeafItems;

/// The kernel centres of one Bayes-tree leaf, stored dimension-major.
#[derive(Debug, Default)]
pub struct PointColumns {
    dims: usize,
    len: usize,
    stride: usize,
    /// `dims * stride` values; point `i`'s coordinate `d` at
    /// `d * stride + i`, slots `len..stride` of each column unused.
    data: Vec<f64>,
}

impl Clone for PointColumns {
    fn clone(&self) -> Self {
        Self {
            dims: self.dims,
            len: self.len,
            stride: self.stride,
            data: self.data.clone(),
        }
    }

    /// One `memcpy` into `self`'s buffer (which grows only when it is too
    /// small), so a recycled leaf version keeps its allocation.
    fn clone_from(&mut self, source: &Self) {
        self.dims = source.dims;
        self.len = source.len;
        self.stride = source.stride;
        self.data.clone_from(&source.data);
    }
}

impl LeafItems for PointColumns {
    fn len(&self) -> usize {
        self.len
    }
}

impl PointColumns {
    /// An exact block (`stride == len`) holding `points` in order.
    ///
    /// # Panics
    ///
    /// Panics if a point's dimensionality differs from `dims`.
    #[must_use]
    pub fn from_rows<'a, I>(dims: usize, points: I) -> Self
    where
        I: IntoIterator<Item = &'a [f64]>,
        I::IntoIter: ExactSizeIterator,
    {
        let points = points.into_iter();
        let len = points.len();
        let mut data = vec![0.0; dims * len];
        for (i, point) in points.enumerate() {
            assert_eq!(point.len(), dims, "point dimensionality mismatch");
            for (d, &v) in point.iter().enumerate() {
                data[d * len + i] = v;
            }
        }
        Self {
            dims,
            len,
            stride: len,
            data,
        }
    }

    /// Dimensionality of the stored points (`0` for a leaf never written).
    #[must_use]
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Number of stored points.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the leaf holds no point.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Distance between consecutive columns in [`Self::columns`].
    #[must_use]
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// The whole block: column `d` starts at `d * stride`, and its first
    /// [`Self::len`] values are the points' coordinates.
    #[must_use]
    pub fn columns(&self) -> &[f64] {
        &self.data
    }

    /// Coordinate `d` of every point, in point order.
    #[must_use]
    pub fn column(&self, d: usize) -> &[f64] {
        &self.data[d * self.stride..d * self.stride + self.len]
    }

    /// Coordinate `d` of point `i`.
    #[must_use]
    pub fn get(&self, i: usize, d: usize) -> f64 {
        debug_assert!(i < self.len && d < self.dims);
        self.data[d * self.stride + i]
    }

    /// Overwrites coordinate `d` of point `i` (tests plant bad values).
    #[cfg(test)]
    pub(crate) fn set(&mut self, i: usize, d: usize, value: f64) {
        self.data[d * self.stride + i] = value;
    }

    /// Point `i` as a row.
    #[must_use]
    pub fn point(&self, i: usize) -> Vec<f64> {
        (0..self.dims).map(|d| self.get(i, d)).collect()
    }

    /// Every point as a row, in point order.
    #[must_use]
    pub fn rows(&self) -> Vec<Vec<f64>> {
        (0..self.len).map(|i| self.point(i)).collect()
    }

    /// Appends `point`, laying the block out again at a larger stride when
    /// it is full.  The first point of an empty leaf fixes its
    /// dimensionality.
    ///
    /// # Panics
    ///
    /// Panics if the point's dimensionality differs from the leaf's.
    pub fn push(&mut self, point: &[f64]) {
        if self.len == 0 && self.stride == 0 {
            self.dims = point.len();
        }
        assert_eq!(point.len(), self.dims, "point dimensionality mismatch");
        if self.len == self.stride {
            self.relayout((self.stride + self.stride / 2).max(self.stride + 4));
        }
        let at = self.len;
        for (column, &v) in self.data.chunks_exact_mut(self.stride).zip(point) {
            column[at] = v;
        }
        self.len += 1;
    }

    /// Moves the block to a buffer of stride `stride` (`>= len`).
    fn relayout(&mut self, stride: usize) {
        debug_assert!(stride >= self.len);
        let mut data = Vec::with_capacity(self.dims * stride);
        for d in 0..self.dims {
            data.extend_from_slice(self.column(d));
            data.resize((d + 1) * stride, 0.0);
        }
        self.data = data;
        self.stride = stride;
    }

    /// Splits the block in two, each half with room for `room` points, so
    /// the appends that fill a half again write in place: the points at
    /// `second` move, in that order, to a new block; the points at `first`
    /// stay in this buffer, in that order, which gives back what an
    /// overflow grew beyond `room`.
    #[must_use]
    pub fn split(mut self, first: &[usize], second: &[usize], room: usize) -> (Self, Self) {
        let stride = room.max(second.len());
        let mut data = Vec::with_capacity(self.dims * stride);
        for d in 0..self.dims {
            let column = self.column(d);
            data.extend(second.iter().map(|&i| column[i]));
            data.resize((d + 1) * stride, 0.0);
        }
        let moved = Self {
            dims: self.dims,
            len: second.len(),
            stride,
            data,
        };
        // Column `d` moves from `d * self.stride` down to `d * kept_stride`;
        // in column order no write reaches a column not yet read.
        let kept_stride = room.max(first.len()).min(self.stride);
        let mut kept = Vec::with_capacity(first.len());
        for d in 0..self.dims {
            let column = &self.data[d * self.stride..];
            kept.clear();
            kept.extend(first.iter().map(|&i| column[i]));
            self.data[d * kept_stride..d * kept_stride + first.len()].copy_from_slice(&kept);
        }
        self.data.truncate(self.dims * kept_stride);
        self.data.shrink_to_fit();
        self.stride = kept_stride;
        self.len = first.len();
        (self, moved)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(n: usize, dims: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| (0..dims).map(|d| (i * 10 + d) as f64).collect())
            .collect()
    }

    #[test]
    fn pushes_and_rows_agree_across_relayouts() {
        let points = rows(23, 3);
        let mut leaf = PointColumns::default();
        for (n, p) in points.iter().enumerate() {
            leaf.push(p);
            assert!(leaf.stride() >= leaf.len());
            assert_eq!(leaf.rows(), points[..=n]);
        }
        assert_eq!(leaf.dims(), 3);
        assert_eq!(
            leaf.column(1),
            points.iter().map(|p| p[1]).collect::<Vec<_>>()
        );
    }

    #[test]
    fn split_keeps_the_given_orders_and_leaves_room() {
        let points = rows(9, 4);
        let leaf = PointColumns::from_rows(4, points.iter().map(Vec::as_slice));
        assert_eq!((leaf.len(), leaf.stride()), (9, 9));
        assert_eq!(leaf.rows(), points);
        let pick = |idx: &[usize]| idx.iter().map(|&i| points[i].clone()).collect::<Vec<_>>();
        let (kept, moved) = leaf.clone().split(&[8, 0, 5, 1, 3, 6], &[7, 2, 4], 10);
        assert_eq!((kept.len(), kept.stride()), (6, 9));
        assert_eq!((moved.len(), moved.stride()), (3, 10));
        assert_eq!(kept.rows(), pick(&[8, 0, 5, 1, 3, 6]));
        assert_eq!(moved.rows(), pick(&[7, 2, 4]));

        // A block an overflow grew past the room gives the excess back.
        let (kept, moved) = leaf.split(&[4, 3], &[0, 8, 1, 7, 2, 6, 5], 3);
        assert_eq!((kept.len(), kept.stride()), (2, 3));
        assert_eq!(kept.columns().len(), 4 * 3);
        assert_eq!((moved.len(), moved.stride()), (7, 7));
        assert_eq!(kept.rows(), pick(&[4, 3]));
        assert_eq!(moved.rows(), pick(&[0, 8, 1, 7, 2, 6, 5]));
    }

    #[test]
    fn clone_from_reuses_the_buffer_and_equals_clone() {
        let mut grown = PointColumns::default();
        for p in rows(40, 2) {
            grown.push(&p);
        }
        let small = PointColumns::from_rows(2, rows(5, 2).iter().map(Vec::as_slice));
        let mut recycled = grown.clone();
        let before = recycled.columns().as_ptr();
        recycled.clone_from(&small);
        assert_eq!(recycled.columns().as_ptr(), before);
        assert_eq!(recycled.rows(), small.clone().rows());
        assert_eq!(recycled.stride(), small.stride());
    }
}
