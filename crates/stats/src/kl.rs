//! Kullback–Leibler divergences.
//!
//! The Goldberger bulk load (Section 3.1) measures the quality of a coarse
//! mixture `g` approximating a fine mixture `f` by
//!
//! ```text
//! d(f, g) = sum_i alpha_i * min_j KL(f_i, g_j)        (Definition 4)
//! ```
//!
//! where the inner KL is between individual Gaussian components.  For
//! diagonal Gaussians the KL divergence has the closed form implemented
//! here.

use crate::gaussian::DiagGaussian;
use crate::mixture::GaussianMixture;

/// Closed-form KL divergence `KL(p || q)` between diagonal Gaussians.
///
/// ```text
/// KL = 0.5 * sum_d [ var_p/var_q + (mu_q - mu_p)^2/var_q - 1 + ln(var_q/var_p) ]
/// ```
///
/// # Panics
///
/// Panics in debug builds if the Gaussians have different dimensionality.
#[must_use]
pub fn kl_diag_gaussian(p: &DiagGaussian, q: &DiagGaussian) -> f64 {
    debug_assert_eq!(p.dims(), q.dims());
    let mut acc = 0.0;
    for d in 0..p.dims() {
        let vp = p.variance()[d];
        let vq = q.variance()[d];
        let diff = q.mean()[d] - p.mean()[d];
        acc += vp / vq + diff * diff / vq - 1.0 + (vq / vp).ln();
    }
    0.5 * acc
}

/// The Goldberger mixture-to-mixture distance of Definition 4:
/// `d(f, g) = sum_i alpha_i min_j KL(f_i, g_j)`.
///
/// Returns `f64::INFINITY` when `g` is empty and `f` is not.
#[must_use]
pub fn mixture_distance(f: &GaussianMixture, g: &GaussianMixture) -> f64 {
    if f.is_empty() {
        return 0.0;
    }
    if g.is_empty() {
        return f64::INFINITY;
    }
    f.components()
        .iter()
        .map(|fc| {
            let best = g
                .components()
                .iter()
                .map(|gc| kl_diag_gaussian(&fc.gaussian, &gc.gaussian))
                .fold(f64::INFINITY, f64::min);
            fc.weight * best
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mixture::WeightedComponent;

    #[test]
    fn kl_of_identical_gaussians_is_zero() {
        let g = DiagGaussian::new(vec![1.0, -2.0], vec![0.5, 2.0]);
        assert!(kl_diag_gaussian(&g, &g).abs() < 1e-12);
    }

    #[test]
    fn kl_is_non_negative() {
        let p = DiagGaussian::new(vec![0.0, 0.0], vec![1.0, 2.0]);
        let q = DiagGaussian::new(vec![1.0, -1.0], vec![0.3, 4.0]);
        assert!(kl_diag_gaussian(&p, &q) >= 0.0);
        assert!(kl_diag_gaussian(&q, &p) >= 0.0);
    }

    #[test]
    fn kl_univariate_matches_closed_form() {
        // KL(N(0,1) || N(1,1)) = 0.5.
        let p = DiagGaussian::new(vec![0.0], vec![1.0]);
        let q = DiagGaussian::new(vec![1.0], vec![1.0]);
        assert!((kl_diag_gaussian(&p, &q) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn kl_is_asymmetric_in_general() {
        let p = DiagGaussian::new(vec![0.0], vec![1.0]);
        let q = DiagGaussian::new(vec![0.0], vec![4.0]);
        let a = kl_diag_gaussian(&p, &q);
        let b = kl_diag_gaussian(&q, &p);
        assert!((a - b).abs() > 1e-6);
    }

    fn mixture_of(means: &[f64]) -> GaussianMixture {
        GaussianMixture::from_components(
            means
                .iter()
                .map(|&m| WeightedComponent {
                    weight: 1.0,
                    gaussian: DiagGaussian::new(vec![m], vec![1.0]),
                })
                .collect(),
        )
    }

    #[test]
    fn mixture_distance_zero_for_superset() {
        let f = mixture_of(&[0.0, 5.0]);
        let g = mixture_of(&[0.0, 5.0, 10.0]);
        assert!(mixture_distance(&f, &g).abs() < 1e-12);
    }

    #[test]
    fn mixture_distance_grows_with_mismatch() {
        let f = mixture_of(&[0.0, 5.0]);
        let near = mixture_of(&[0.5, 5.5]);
        let far = mixture_of(&[20.0, 30.0]);
        assert!(mixture_distance(&f, &near) < mixture_distance(&f, &far));
    }

    #[test]
    fn empty_mixture_distances() {
        let f = mixture_of(&[0.0]);
        let empty = GaussianMixture::new();
        assert_eq!(mixture_distance(&empty, &f), 0.0);
        assert_eq!(mixture_distance(&f, &empty), f64::INFINITY);
    }
}
