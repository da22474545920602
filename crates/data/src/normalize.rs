//! Feature scaling fitted on training data and applied to test data.
//!
//! The Bayes tree derives its fanout from a page-size constraint and its
//! kernel bandwidths from the data spread; both behave best when features
//! live on comparable scales.  Scalers are always *fitted on the training
//! fold only* and then applied to both folds, as in the original evaluation.

use bt_stats::summary::RunningStats;

/// Min/max scaler mapping every feature to `[0, 1]`.
#[derive(Debug, Clone)]
pub struct MinMaxScaler {
    lower: Vec<f64>,
    range: Vec<f64>,
}

impl MinMaxScaler {
    /// Fits the scaler on a set of feature vectors.
    ///
    /// # Panics
    ///
    /// Panics if `features` is empty.
    #[must_use]
    pub fn fit(features: &[Vec<f64>]) -> Self {
        assert!(!features.is_empty(), "cannot fit a scaler on no data");
        let dims = features[0].len();
        let mut lower = vec![f64::INFINITY; dims];
        let mut upper = vec![f64::NEG_INFINITY; dims];
        for f in features {
            for d in 0..dims {
                lower[d] = lower[d].min(f[d]);
                upper[d] = upper[d].max(f[d]);
            }
        }
        let range = lower
            .iter()
            .zip(&upper)
            .map(|(l, u)| {
                let r = u - l;
                if r > 0.0 {
                    r
                } else {
                    1.0
                }
            })
            .collect();
        Self { lower, range }
    }

    /// Transforms one feature vector in place.
    pub fn transform_in_place(&self, features: &mut [f64]) {
        for ((f, &lo), &range) in features.iter_mut().zip(&self.lower).zip(&self.range) {
            *f = (*f - lo) / range;
        }
    }

    /// Returns a scaled copy of one feature vector.
    #[must_use]
    pub fn transform(&self, features: &[f64]) -> Vec<f64> {
        let mut out = features.to_vec();
        self.transform_in_place(&mut out);
        out
    }
}

/// Z-score scaler mapping every feature to zero mean and unit variance.
#[derive(Debug, Clone)]
pub struct StandardScaler {
    mean: Vec<f64>,
    std: Vec<f64>,
}

impl StandardScaler {
    /// Fits the scaler on a set of feature vectors.
    ///
    /// # Panics
    ///
    /// Panics if `features` is empty.
    #[must_use]
    pub fn fit(features: &[Vec<f64>]) -> Self {
        assert!(!features.is_empty(), "cannot fit a scaler on no data");
        let dims = features[0].len();
        let mut stats = vec![RunningStats::new(); dims];
        for f in features {
            for d in 0..dims {
                stats[d].push(f[d]);
            }
        }
        let mean = stats.iter().map(RunningStats::mean).collect();
        let std = stats
            .iter()
            .map(|s| {
                let sd = s.std_dev();
                if sd > 0.0 {
                    sd
                } else {
                    1.0
                }
            })
            .collect();
        Self { mean, std }
    }

    /// Returns a scaled copy of one feature vector.
    #[must_use]
    pub fn transform(&self, features: &[f64]) -> Vec<f64> {
        features
            .iter()
            .enumerate()
            .map(|(d, x)| (x - self.mean[d]) / self.std[d])
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn features() -> Vec<Vec<f64>> {
        vec![vec![0.0, 10.0], vec![5.0, 20.0], vec![10.0, 30.0]]
    }

    #[test]
    fn minmax_maps_to_unit_interval() {
        let scaler = MinMaxScaler::fit(&features());
        let t = scaler.transform(&[0.0, 10.0]);
        assert_eq!(t, vec![0.0, 0.0]);
        let t = scaler.transform(&[10.0, 30.0]);
        assert_eq!(t, vec![1.0, 1.0]);
        let t = scaler.transform(&[5.0, 20.0]);
        assert_eq!(t, vec![0.5, 0.5]);
    }

    #[test]
    fn minmax_handles_constant_dimension() {
        let scaler = MinMaxScaler::fit(&[vec![2.0, 7.0], vec![4.0, 7.0]]);
        let t = scaler.transform(&[3.0, 7.0]);
        assert_eq!(t[1], 0.0);
        assert!((t[0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn standard_scaler_zero_mean_unit_variance() {
        let scaler = StandardScaler::fit(&features());
        let transformed: Vec<Vec<f64>> = features().iter().map(|f| scaler.transform(f)).collect();
        for d in 0..2 {
            let mean: f64 = transformed.iter().map(|t| t[d]).sum::<f64>() / 3.0;
            assert!(mean.abs() < 1e-12);
        }
    }

    #[test]
    fn test_data_outside_training_range_extrapolates() {
        let scaler = MinMaxScaler::fit(&features());
        let t = scaler.transform(&[20.0, 40.0]);
        assert!(t[0] > 1.0);
    }
}
