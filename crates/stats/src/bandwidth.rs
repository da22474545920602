//! Kernel bandwidth selection.
//!
//! The paper sets the bandwidth of its `d`-dimensional Gaussian kernel
//! estimators with "a common data independent method according to
//! [Silverman, 1986]" (Section 2.1).  This module implements Silverman's
//! rule of thumb, generalised per dimension.

use crate::summary::RunningStats;

/// Silverman's rule-of-thumb bandwidth for a `d`-dimensional Gaussian kernel.
///
/// For dimension `j` with sample standard deviation `sigma_j` over `n`
/// observations the bandwidth is
///
/// ```text
/// h_j = sigma_j * (4 / (d + 2))^(1/(d+4)) * n^(-1/(d+4))
/// ```
///
/// Degenerate dimensions (zero spread) receive a small positive bandwidth so
/// the kernel stays a proper density.
#[must_use]
pub fn silverman_bandwidth(points: &[Vec<f64>], dims: usize) -> Vec<f64> {
    let n = points.len().max(1) as f64;
    let d = dims as f64;
    let factor = (4.0 / (d + 2.0)).powf(1.0 / (d + 4.0)) * n.powf(-1.0 / (d + 4.0));
    per_dimension_sigma(points, dims)
        .into_iter()
        .map(|sigma| {
            let h = sigma * factor;
            if h > 0.0 {
                h
            } else {
                DEGENERATE_BANDWIDTH
            }
        })
        .collect()
}

/// Bandwidth assigned to dimensions with no spread at all.
pub const DEGENERATE_BANDWIDTH: f64 = 1e-3;

fn per_dimension_sigma(points: &[Vec<f64>], dims: usize) -> Vec<f64> {
    let mut stats: Vec<RunningStats> = vec![RunningStats::new(); dims];
    for p in points {
        for (d, s) in stats.iter_mut().enumerate() {
            s.push(p[d]);
        }
    }
    stats.iter().map(RunningStats::std_dev).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_cube_points() -> Vec<Vec<f64>> {
        (0..100)
            .map(|i| vec![i as f64 / 100.0, (i % 10) as f64 / 10.0])
            .collect()
    }

    #[test]
    fn bandwidth_has_one_entry_per_dimension() {
        let pts = unit_cube_points();
        assert_eq!(silverman_bandwidth(&pts, 2).len(), 2);
    }

    #[test]
    fn bandwidth_shrinks_with_more_data() {
        let few: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
        let many: Vec<Vec<f64>> = (0..10_000).map(|i| vec![(i % 10) as f64]).collect();
        let h_few = silverman_bandwidth(&few, 1)[0];
        let h_many = silverman_bandwidth(&many, 1)[0];
        assert!(h_many < h_few);
    }

    #[test]
    fn degenerate_dimension_gets_positive_bandwidth() {
        let pts = vec![vec![1.0, 5.0], vec![2.0, 5.0], vec![3.0, 5.0]];
        let h = silverman_bandwidth(&pts, 2);
        assert!(h[1] > 0.0);
    }

    #[test]
    fn bandwidth_scales_with_spread() {
        let narrow: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64 * 0.01]).collect();
        let wide: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64]).collect();
        assert!(silverman_bandwidth(&wide, 1)[0] > silverman_bandwidth(&narrow, 1)[0]);
    }
}
