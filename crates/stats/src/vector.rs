//! Small dense-vector helpers shared across the workspace.
//!
//! Points are plain `&[f64]` slices.  These helpers keep the arithmetic in one
//! place so that the Bayes tree, the clustering extension and the workload
//! generators all agree on elementwise semantics (and all panic loudly on
//! dimensionality mismatches in debug builds).

/// Elementwise sum `a + b` as a new vector.
#[must_use]
pub fn add(a: &[f64], b: &[f64]) -> Vec<f64> {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x + y).collect()
}

/// Adds `b` into `a` elementwise in place.
pub fn add_assign(a: &mut [f64], b: &[f64]) {
    debug_assert_eq!(a.len(), b.len());
    for (x, y) in a.iter_mut().zip(b) {
        *x += y;
    }
}

/// Elementwise difference `a - b` as a new vector.
#[must_use]
pub fn sub(a: &[f64], b: &[f64]) -> Vec<f64> {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x - y).collect()
}

/// Scales every element of `a` by `s` in place.
pub fn scale_assign(a: &mut [f64], s: f64) {
    for x in a.iter_mut() {
        *x *= s;
    }
}

/// Returns `a` scaled by `s` as a new vector.
#[must_use]
pub fn scale(a: &[f64], s: f64) -> Vec<f64> {
    a.iter().map(|x| x * s).collect()
}

/// Writes `a * s` into `out` (cleared and refilled).
pub fn scale_into(a: &[f64], s: f64, out: &mut Vec<f64>) {
    out.clear();
    out.extend(a.iter().map(|x| x * s));
}

/// Dot product of `a` and `b`.
#[must_use]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Squared Euclidean distance between `a` and `b`.
#[must_use]
pub fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Euclidean distance between `a` and `b`.
#[must_use]
pub fn dist(a: &[f64], b: &[f64]) -> f64 {
    sq_dist(a, b).sqrt()
}

/// Squared Euclidean norm of `a`.
#[must_use]
pub fn sq_norm(a: &[f64]) -> f64 {
    a.iter().map(|x| x * x).sum()
}

/// Elementwise square of `a` as a new vector.
#[must_use]
pub fn squared(a: &[f64]) -> Vec<f64> {
    a.iter().map(|x| x * x).collect()
}

/// Mean vector of a set of points.
///
/// Returns a zero vector of dimension `dims` when `points` is empty.
#[must_use]
pub fn mean(points: &[Vec<f64>], dims: usize) -> Vec<f64> {
    if points.is_empty() {
        return vec![0.0; dims];
    }
    let mut acc = vec![0.0; dims];
    for p in points {
        add_assign(&mut acc, p);
    }
    scale_assign(&mut acc, 1.0 / points.len() as f64);
    acc
}

/// Per-dimension (population) variance of a set of points around their mean.
///
/// Returns a zero vector of dimension `dims` when `points` has fewer than two
/// elements.
#[must_use]
pub fn variance(points: &[Vec<f64>], dims: usize) -> Vec<f64> {
    if points.len() < 2 {
        return vec![0.0; dims];
    }
    let m = mean(points, dims);
    let mut acc = vec![0.0; dims];
    for p in points {
        for (d, acc_d) in acc.iter_mut().enumerate() {
            let diff = p[d] - m[d];
            *acc_d += diff * diff;
        }
    }
    scale_assign(&mut acc, 1.0 / points.len() as f64);
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_sub_roundtrip() {
        let a = vec![1.0, 2.0, 3.0];
        let b = vec![0.5, -1.0, 4.0];
        let s = add(&a, &b);
        assert_eq!(sub(&s, &b), a);
    }

    #[test]
    fn dot_and_norm() {
        let a = vec![3.0, 4.0];
        assert_eq!(dot(&a, &a), 25.0);
        assert_eq!(sq_norm(&a), 25.0);
        assert_eq!(dist(&a, &[0.0, 0.0]), 5.0);
    }

    #[test]
    fn mean_of_points() {
        let pts = vec![vec![0.0, 0.0], vec![2.0, 4.0]];
        assert_eq!(mean(&pts, 2), vec![1.0, 2.0]);
    }

    #[test]
    fn mean_of_empty_is_zero() {
        assert_eq!(mean(&[], 3), vec![0.0; 3]);
    }

    #[test]
    fn variance_of_points() {
        let pts = vec![vec![0.0], vec![2.0]];
        assert_eq!(variance(&pts, 1), vec![1.0]);
    }

    #[test]
    fn scale_and_scale_assign_agree() {
        let a = vec![1.0, -2.0, 3.5];
        let mut b = a.clone();
        scale_assign(&mut b, 2.0);
        assert_eq!(scale(&a, 2.0), b);
    }

    #[test]
    fn into_variants_match_allocating_ones() {
        let a = vec![1.0, 2.0, 3.0];
        let b = vec![0.5, -1.0, 4.0];
        let mut scratch = b.clone();
        scale_into(&a, 2.5, &mut scratch);
        assert_eq!(scratch, scale(&a, 2.5));
    }

    #[test]
    fn into_variants_reuse_capacity() {
        let a = vec![1.0; 8];
        let mut scratch = Vec::with_capacity(8);
        scale_into(&a, 3.0, &mut scratch);
        let ptr = scratch.as_ptr();
        scale_into(&a, 4.0, &mut scratch);
        assert_eq!(scratch.as_ptr(), ptr, "scratch buffer was reallocated");
    }
}
