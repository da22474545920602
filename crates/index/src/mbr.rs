//! Minimum bounding rectangles and their R*-tree geometry.
//!
//! Every Bayes-tree entry stores the MBR of the objects in its subtree
//! (Definition 1).  The geometric measures here are the standard R*-tree
//! ones: area, margin, overlap, enlargement needed to include a point, and
//! MINDIST (the geometric descent priority evaluated in the paper's
//! global-best strategy).

/// An axis-aligned minimum bounding rectangle in `d` dimensions.
#[derive(Debug, PartialEq)]
pub struct Mbr {
    lower: Vec<f64>,
    upper: Vec<f64>,
}

impl Clone for Mbr {
    fn clone(&self) -> Self {
        Self {
            lower: self.lower.clone(),
            upper: self.upper.clone(),
        }
    }

    /// Field-wise, so a recycled box keeps its corner buffers.
    fn clone_from(&mut self, source: &Self) {
        self.lower.clone_from(&source.lower);
        self.upper.clone_from(&source.upper);
    }
}

impl Mbr {
    /// Creates an MBR from explicit lower and upper corners.
    ///
    /// # Panics
    ///
    /// Panics if the corners have different lengths, are empty, or any lower
    /// coordinate exceeds the corresponding upper coordinate.
    #[must_use]
    pub fn new(lower: Vec<f64>, upper: Vec<f64>) -> Self {
        assert_eq!(lower.len(), upper.len(), "corner dimensionality mismatch");
        assert!(!lower.is_empty(), "MBR must have at least one dimension");
        assert!(
            lower.iter().zip(&upper).all(|(l, u)| l <= u),
            "lower corner must not exceed upper corner"
        );
        Self { lower, upper }
    }

    /// Creates a degenerate MBR containing a single point.
    #[must_use]
    pub fn from_point(point: &[f64]) -> Self {
        Self {
            lower: point.to_vec(),
            upper: point.to_vec(),
        }
    }

    /// Creates the MBR of a set of points.
    ///
    /// Returns `None` for an empty iterator.
    #[must_use]
    pub fn from_points<'a, I>(points: I) -> Option<Self>
    where
        I: IntoIterator<Item = &'a [f64]>,
    {
        let mut iter = points.into_iter();
        let first = iter.next()?;
        let mut mbr = Self::from_point(first);
        for p in iter {
            mbr.extend_point(p);
        }
        Some(mbr)
    }

    /// Creates the MBR enclosing a set of MBRs.
    ///
    /// Returns `None` for an empty iterator.
    #[must_use]
    pub fn union_all<'a, I>(mbrs: I) -> Option<Self>
    where
        I: IntoIterator<Item = &'a Mbr>,
    {
        let mut iter = mbrs.into_iter();
        let mut acc = iter.next()?.clone();
        for m in iter {
            acc.extend_mbr(m);
        }
        Some(acc)
    }

    /// Dimensionality of the rectangle.
    #[must_use]
    pub fn dims(&self) -> usize {
        self.lower.len()
    }

    /// Lower corner.
    #[must_use]
    pub fn lower(&self) -> &[f64] {
        &self.lower
    }

    /// Upper corner.
    #[must_use]
    pub fn upper(&self) -> &[f64] {
        &self.upper
    }

    /// Centre point of the rectangle.
    #[must_use]
    pub fn center(&self) -> Vec<f64> {
        self.lower
            .iter()
            .zip(&self.upper)
            .map(|(l, u)| 0.5 * (l + u))
            .collect()
    }

    /// Grows the rectangle to contain `point`.
    pub fn extend_point(&mut self, point: &[f64]) {
        debug_assert_eq!(point.len(), self.dims());
        for ((lo, hi), &p) in self.lower.iter_mut().zip(&mut self.upper).zip(point) {
            *lo = lo.min(p);
            *hi = hi.max(p);
        }
    }

    /// Grows the rectangle to contain `other`.
    pub fn extend_mbr(&mut self, other: &Mbr) {
        debug_assert_eq!(other.dims(), self.dims());
        for d in 0..self.dims() {
            self.lower[d] = self.lower[d].min(other.lower[d]);
            self.upper[d] = self.upper[d].max(other.upper[d]);
        }
    }

    /// The union of this rectangle and `other` as a new rectangle.
    #[must_use]
    pub fn union(&self, other: &Mbr) -> Mbr {
        let mut m = self.clone();
        m.extend_mbr(other);
        m
    }

    /// Whether `point` lies inside (or on the boundary of) the rectangle.
    #[must_use]
    pub fn contains_point(&self, point: &[f64]) -> bool {
        debug_assert_eq!(point.len(), self.dims());
        point
            .iter()
            .enumerate()
            .all(|(d, x)| *x >= self.lower[d] && *x <= self.upper[d])
    }

    /// Whether `other` is fully contained in this rectangle.
    #[must_use]
    pub fn contains_mbr(&self, other: &Mbr) -> bool {
        (0..self.dims()).all(|d| other.lower[d] >= self.lower[d] && other.upper[d] <= self.upper[d])
    }

    /// Volume (area in 2-d) of the rectangle.
    #[must_use]
    pub fn area(&self) -> f64 {
        self.lower
            .iter()
            .zip(&self.upper)
            .map(|(l, u)| u - l)
            .product()
    }

    /// Margin: the sum of the edge lengths (the R* split criterion).
    #[must_use]
    pub fn margin(&self) -> f64 {
        self.lower.iter().zip(&self.upper).map(|(l, u)| u - l).sum()
    }

    /// Volume of the intersection with `other` (0 when disjoint).
    #[must_use]
    pub fn overlap(&self, other: &Mbr) -> f64 {
        let mut acc = 1.0;
        for d in 0..self.dims() {
            let lo = self.lower[d].max(other.lower[d]);
            let hi = self.upper[d].min(other.upper[d]);
            if hi <= lo {
                return 0.0;
            }
            acc *= hi - lo;
        }
        acc
    }

    /// Increase in area needed to include `point`.
    #[must_use]
    pub fn enlargement_for_point(&self, point: &[f64]) -> f64 {
        let mut grown = self.clone();
        grown.extend_point(point);
        grown.area() - self.area()
    }

    /// MINDIST: squared Euclidean distance from `point` to the nearest point
    /// of the rectangle (0 when the point is inside).
    ///
    /// This is the *geometric* descent priority evaluated in Section 2.2.
    #[must_use]
    pub fn min_dist_sq(&self, point: &[f64]) -> f64 {
        debug_assert_eq!(point.len(), self.dims());
        let mut acc = 0.0;
        for ((&lo, &hi), &x) in self.lower.iter().zip(&self.upper).zip(point) {
            let diff = if x < lo {
                lo - x
            } else if x > hi {
                x - hi
            } else {
                0.0
            };
            acc += diff * diff;
        }
        acc
    }

    /// Edge length along dimension `d`.
    #[must_use]
    pub fn extent(&self, d: usize) -> f64 {
        self.upper[d] - self.lower[d]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_square() -> Mbr {
        Mbr::new(vec![0.0, 0.0], vec![1.0, 1.0])
    }

    #[test]
    fn from_points_bounds_everything() {
        let pts: Vec<Vec<f64>> = vec![vec![0.0, 5.0], vec![2.0, -1.0], vec![1.0, 3.0]];
        let mbr: Mbr = Mbr::from_points(pts.iter().map(Vec::as_slice)).unwrap();
        assert_eq!(mbr.lower(), &[0.0, -1.0][..]);
        assert_eq!(mbr.upper(), &[2.0, 5.0][..]);
        for p in &pts {
            assert!(mbr.contains_point(p));
        }
    }

    #[test]
    fn from_points_empty_is_none() {
        assert!(Mbr::from_points(std::iter::empty()).is_none());
    }

    #[test]
    fn area_margin_center() {
        let m: Mbr = Mbr::new(vec![0.0, 0.0], vec![2.0, 3.0]);
        assert_eq!(m.area(), 6.0);
        assert_eq!(m.margin(), 5.0);
        assert_eq!(m.center(), vec![1.0, 1.5]);
    }

    #[test]
    fn overlap_of_disjoint_is_zero() {
        let a = unit_square();
        let b = Mbr::new(vec![2.0, 2.0], vec![3.0, 3.0]);
        assert_eq!(a.overlap(&b), 0.0);
    }

    #[test]
    fn overlap_of_half_shifted_squares() {
        let a = unit_square();
        let b = Mbr::new(vec![0.5, 0.0], vec![1.5, 1.0]);
        assert!((a.overlap(&b) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn enlargement_for_contained_point_is_zero() {
        let a = unit_square();
        assert_eq!(a.enlargement_for_point(&[0.5, 0.5]), 0.0);
        assert!(a.enlargement_for_point(&[2.0, 0.5]) > 0.0);
    }

    #[test]
    fn min_dist_inside_is_zero_outside_positive() {
        let a = unit_square();
        assert_eq!(a.min_dist_sq(&[0.5, 0.5]), 0.0);
        assert!((a.min_dist_sq(&[2.0, 0.5]) - 1.0).abs() < 1e-12);
        assert!((a.min_dist_sq(&[2.0, 2.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn union_contains_both() {
        let a = unit_square();
        let b = Mbr::new(vec![3.0, 3.0], vec![4.0, 4.0]);
        let u = a.union(&b);
        assert!(u.contains_mbr(&a));
        assert!(u.contains_mbr(&b));
    }

    #[test]
    fn extend_point_grows_minimally() {
        let mut a = unit_square();
        a.extend_point(&[2.0, 0.5]);
        assert_eq!(a.upper(), &[2.0, 1.0][..]);
        assert_eq!(a.lower(), &[0.0, 0.0][..]);
    }

    #[test]
    #[should_panic(expected = "lower corner must not exceed")]
    fn inverted_corners_panic() {
        let _ = Mbr::new(vec![1.0], vec![0.0]);
    }

    #[test]
    fn degenerate_point_mbr() {
        let m: Mbr = Mbr::from_point(&[1.0, 2.0]);
        assert_eq!(m.area(), 0.0);
        assert!(m.contains_point(&[1.0, 2.0]));
        assert_eq!(m.min_dist_sq(&[1.0, 2.0]), 0.0);
    }
}
