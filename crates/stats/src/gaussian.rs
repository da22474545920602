//! Multivariate Gaussians with diagonal covariance.
//!
//! The Bayes tree stores, in every entry, the sufficient statistics of the
//! objects below it; from those a diagonal (axis-parallel) Gaussian is derived
//! (`mu = LS/n`, `sigma^2 = SS/n - (LS/n)^2`, Definition 1 of the paper).  This
//! module provides that Gaussian together with density evaluation and
//! sampling.

use crate::{LN_2PI, VARIANCE_FLOOR};
use rand::Rng;

/// A `d`-dimensional Gaussian with diagonal covariance matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct DiagGaussian {
    mean: Vec<f64>,
    variance: Vec<f64>,
}

impl DiagGaussian {
    /// Creates a Gaussian from a mean and per-dimension variance vector.
    ///
    /// Variances are clamped to [`VARIANCE_FLOOR`] so that degenerate
    /// components (e.g. a subtree holding a single point) still yield a
    /// proper, evaluable density.
    ///
    /// # Panics
    ///
    /// Panics if `mean` and `variance` have different lengths or are empty.
    #[must_use]
    pub fn new(mean: Vec<f64>, variance: Vec<f64>) -> Self {
        assert_eq!(
            mean.len(),
            variance.len(),
            "mean and variance must have the same dimensionality"
        );
        assert!(
            !mean.is_empty(),
            "Gaussian must have at least one dimension"
        );
        let variance = variance
            .into_iter()
            .map(|v| {
                if v.is_finite() {
                    v.max(VARIANCE_FLOOR)
                } else {
                    VARIANCE_FLOOR
                }
            })
            .collect();
        Self { mean, variance }
    }

    /// Creates a standard normal Gaussian of dimension `dims`.
    #[must_use]
    pub fn standard(dims: usize) -> Self {
        Self::new(vec![0.0; dims], vec![1.0; dims])
    }

    /// Dimensionality of the Gaussian.
    #[must_use]
    pub fn dims(&self) -> usize {
        self.mean.len()
    }

    /// The mean vector.
    #[must_use]
    pub fn mean(&self) -> &[f64] {
        &self.mean
    }

    /// The per-dimension variance vector.
    #[must_use]
    pub fn variance(&self) -> &[f64] {
        &self.variance
    }

    /// Per-dimension standard deviations.
    #[must_use]
    pub fn std_dev(&self) -> Vec<f64> {
        self.variance.iter().map(|v| v.sqrt()).collect()
    }

    /// Log probability density of `x` under this Gaussian.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `x` has the wrong dimensionality.
    #[must_use]
    pub fn log_pdf(&self, x: &[f64]) -> f64 {
        debug_assert_eq!(x.len(), self.dims());
        let mut acc = 0.0;
        for ((x_d, mean), &var) in x.iter().zip(&self.mean).zip(&self.variance) {
            let diff = x_d - mean;
            acc += -0.5 * (LN_2PI + var.ln() + diff * diff / var);
        }
        acc
    }

    /// Probability density of `x` under this Gaussian.
    #[must_use]
    pub fn pdf(&self, x: &[f64]) -> f64 {
        self.log_pdf(x).exp()
    }

    /// Draws a sample from this Gaussian using the Box–Muller transform.
    #[must_use]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<f64> {
        (0..self.dims())
            .map(|d| self.mean[d] + self.variance[d].sqrt() * standard_normal(rng))
            .collect()
    }
}

/// Draws a single standard-normal variate via the Box–Muller transform.
///
/// Implemented here (rather than pulling in `rand_distr`) because it is the
/// only continuous distribution the workspace needs to sample from.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // Avoid ln(0) by sampling u1 from the half-open interval (0, 1].
    let u1: f64 = 1.0 - rng.random::<f64>();
    let u2: f64 = rng.random::<f64>();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn univariate_pdf_matches_closed_form() {
        let g = DiagGaussian::new(vec![0.0], vec![1.0]);
        let expected = 1.0 / (2.0 * std::f64::consts::PI).sqrt();
        assert!((g.pdf(&[0.0]) - expected).abs() < 1e-12);
    }

    #[test]
    fn pdf_is_symmetric_around_mean() {
        let g = DiagGaussian::new(vec![2.0, -1.0], vec![0.5, 2.0]);
        assert!((g.pdf(&[2.5, 0.0]) - g.pdf(&[1.5, -2.0])).abs() < 1e-12);
    }

    #[test]
    fn zero_variance_is_floored() {
        let g = DiagGaussian::new(vec![1.0], vec![0.0]);
        assert!(g.pdf(&[1.0]).is_finite());
        assert!(g.variance()[0] >= VARIANCE_FLOOR);
    }

    #[test]
    fn log_pdf_and_pdf_agree() {
        let g = DiagGaussian::new(vec![0.0, 1.0, 2.0], vec![1.0, 2.0, 3.0]);
        let x = [0.3, 0.9, 2.5];
        assert!((g.log_pdf(&x).exp() - g.pdf(&x)).abs() < 1e-12);
    }

    #[test]
    fn sample_mean_converges() {
        let g = DiagGaussian::new(vec![3.0, -2.0], vec![0.5, 1.5]);
        let mut rng = StdRng::seed_from_u64(42);
        let n = 20_000;
        let mut acc = [0.0, 0.0];
        for _ in 0..n {
            let s = g.sample(&mut rng);
            acc[0] += s[0];
            acc[1] += s[1];
        }
        assert!((acc[0] / n as f64 - 3.0).abs() < 0.05);
        assert!((acc[1] / n as f64 + 2.0).abs() < 0.05);
    }

    #[test]
    #[should_panic(expected = "same dimensionality")]
    fn mismatched_dims_panic() {
        let _ = DiagGaussian::new(vec![0.0, 1.0], vec![1.0]);
    }
}
