//! Page geometry: deriving fanout and leaf capacity from a page size.
//!
//! In the paper "M is given through the fanout, which in turn is dictated by
//! the page size" (Section 3.1).  The Bayes tree in this repository is an
//! in-memory structure, but the fanout is still derived from a page-size-like
//! constraint so that experiments are parameterised the same way as the
//! original disk-based implementation:
//!
//! * an inner entry stores an MBR (2·d floats), a child pointer and a cluster
//!   feature (1 + 2·d floats),
//! * a leaf observation stores the d-dimensional kernel centre plus its
//!   class label.

/// Fanout and leaf-capacity parameters `(m, M, l, L)` of Definition 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageGeometry {
    /// Minimum number of entries per inner node.
    pub min_fanout: usize,
    /// Maximum number of entries per inner node.
    pub max_fanout: usize,
    /// Minimum number of observations per leaf node.
    pub min_leaf: usize,
    /// Maximum number of observations per leaf node.
    pub max_leaf: usize,
}

/// Size of one stored float in bytes.
const FLOAT_BYTES: usize = 8;
/// Size of a child pointer in bytes.
const POINTER_BYTES: usize = 8;
/// Fill factor used to derive the minimum fanout / leaf occupancy, the usual
/// 40 % of R*-trees.
const MIN_FILL: f64 = 0.4;

impl PageGeometry {
    /// Derives the geometry for `dims`-dimensional data and a page of
    /// `page_bytes` bytes.
    ///
    /// # Panics
    ///
    /// Panics if the page is too small to hold at least two inner entries or
    /// two leaf observations.
    #[must_use]
    pub fn from_page_size(page_bytes: usize, dims: usize) -> Self {
        // Inner entry: MBR (2d floats) + CF (n + LS + SS = 1 + 2d floats)
        // + pointer.
        let inner_entry = (4 * dims + 1) * FLOAT_BYTES + POINTER_BYTES;
        // Leaf observation: d floats + label.
        let leaf_entry = dims * FLOAT_BYTES + POINTER_BYTES;
        let max_fanout = page_bytes / inner_entry;
        let max_leaf = page_bytes / leaf_entry;
        assert!(
            max_fanout >= 2 && max_leaf >= 2,
            "page of {page_bytes} bytes is too small for {dims}-dimensional entries"
        );
        Self::from_fanout(max_fanout, max_leaf)
    }

    /// Creates a geometry directly from maximum fanout and leaf capacity,
    /// using the standard 40 % minimum fill.
    ///
    /// # Panics
    ///
    /// Panics if either capacity is below 2.
    #[must_use]
    pub fn from_fanout(max_fanout: usize, max_leaf: usize) -> Self {
        assert!(max_fanout >= 2, "fanout must be at least 2");
        assert!(max_leaf >= 2, "leaf capacity must be at least 2");
        let min_fanout = ((max_fanout as f64 * MIN_FILL).floor() as usize).max(1);
        let min_leaf = ((max_leaf as f64 * MIN_FILL).floor() as usize).max(1);
        Self {
            min_fanout,
            max_fanout,
            min_leaf,
            max_leaf,
        }
    }

    /// The default geometry used throughout the experiments: a 4 KiB page for
    /// the given dimensionality.
    #[must_use]
    pub fn default_for_dims(dims: usize) -> Self {
        Self::from_page_size(4096, dims)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_kib_page_sixteen_dims() {
        let g = PageGeometry::from_page_size(4096, 16);
        // Inner entry = (64 + 1) * 8 + 8 = 528 bytes -> fanout 7.
        assert_eq!(g.max_fanout, 7);
        // Leaf entry = 16 * 8 + 8 = 136 bytes -> 30 observations.
        assert_eq!(g.max_leaf, 30);
        assert!(g.min_fanout >= 1 && g.min_fanout <= g.max_fanout / 2 + 1);
    }

    #[test]
    fn bigger_pages_give_bigger_fanout() {
        let small = PageGeometry::from_page_size(2048, 10);
        let large = PageGeometry::from_page_size(8192, 10);
        assert!(large.max_fanout > small.max_fanout);
        assert!(large.max_leaf > small.max_leaf);
    }

    #[test]
    fn min_fill_is_forty_percent() {
        let g = PageGeometry::from_fanout(10, 20);
        assert_eq!(g.min_fanout, 4);
        assert_eq!(g.min_leaf, 8);
    }

    #[test]
    fn minimums_never_zero() {
        let g = PageGeometry::from_fanout(2, 2);
        assert_eq!(g.min_fanout, 1);
        assert_eq!(g.min_leaf, 1);
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn tiny_page_panics() {
        let _ = PageGeometry::from_page_size(64, 32);
    }
}
