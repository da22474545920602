//! Anytime accuracy curves (the measurement behind Figures 2–4).
//!
//! The paper's protocol: 4-fold cross validation; after building the
//! per-class Bayes trees with a given construction method, every test object
//! is classified and the decision is recorded after *every* node read from 0
//! to 100; the figures plot the resulting accuracy against the number of
//! nodes, averaged over the folds.

use bayestree::{
    AnytimeClassifier, BulkLoadMethod, ClassifierConfig, DescentStrategy, RefinementStrategy,
};
use bt_data::{stratified_folds, Dataset};
use bt_index::PageGeometry;

/// Configuration of one anytime-accuracy measurement.
#[derive(Debug, Clone)]
pub struct CurveConfig {
    /// Largest node budget on the x-axis (the paper plots 0..100).
    pub max_nodes: usize,
    /// Number of cross-validation folds (the paper uses 4).
    pub folds: usize,
    /// Seed for fold assignment and the randomised bulk loads.
    pub seed: u64,
    /// Descent strategy within each tree.
    pub descent: DescentStrategy,
    /// Refinement strategy across the class trees.
    pub refinement: RefinementStrategy,
    /// Page geometry; `None` uses a 4 KiB page for the data's dimensionality.
    pub geometry: Option<PageGeometry>,
    /// Upper bound on the number of test objects evaluated per fold
    /// (`None` = all).  Keeps debug-build tests fast; release benchmarks use
    /// `None`.
    pub max_test_queries: Option<usize>,
}

impl Default for CurveConfig {
    fn default() -> Self {
        Self {
            max_nodes: 100,
            folds: 4,
            seed: 42,
            descent: DescentStrategy::default(),
            refinement: RefinementStrategy::default(),
            geometry: None,
            max_test_queries: None,
        }
    }
}

/// An anytime accuracy curve: accuracy after each node read, averaged over
/// the folds.
#[derive(Debug, Clone)]
pub struct AccuracyCurve {
    /// Label of the curve (construction method, optionally the descent).
    pub label: String,
    /// `accuracy[t]` is the mean accuracy after `t` node reads.
    pub accuracy: Vec<f64>,
    /// Accuracy of the fully expanded model (every frontier exhausted).
    pub final_accuracy: f64,
}

impl AccuracyCurve {
    /// Accuracy after `nodes` node reads (saturating).
    #[must_use]
    pub fn at(&self, nodes: usize) -> f64 {
        let idx = nodes.min(self.accuracy.len().saturating_sub(1));
        self.accuracy[idx]
    }

    /// The largest accuracy anywhere on the curve.
    #[must_use]
    pub fn peak(&self) -> f64 {
        self.accuracy.iter().copied().fold(0.0, f64::max)
    }

    /// Mean accuracy over the whole curve — a scalar summary of anytime
    /// performance.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.accuracy.is_empty() {
            return 0.0;
        }
        self.accuracy.iter().sum::<f64>() / self.accuracy.len() as f64
    }
}

/// Measures the anytime accuracy curve of one construction method on one
/// data set under k-fold cross validation.
#[must_use]
pub fn anytime_accuracy_curve(
    dataset: &Dataset,
    method: BulkLoadMethod,
    config: &CurveConfig,
) -> AccuracyCurve {
    let classifier_config = ClassifierConfig {
        geometry: config.geometry,
        bulk_load: method,
        descent: config.descent,
        refinement: config.refinement,
        seed: config.seed,
    };
    let folds = stratified_folds(dataset, config.folds, config.seed);

    let mut correct = vec![0usize; config.max_nodes + 1];
    let mut total = 0usize;
    let mut final_correct = 0usize;

    for fold in &folds {
        let train = fold.train_set(dataset);
        let test = fold.test_set(dataset);
        let classifier = AnytimeClassifier::train(&train, &classifier_config);
        let limit = config
            .max_test_queries
            .unwrap_or(test.len())
            .min(test.len());
        for i in 0..limit {
            let trace = classifier.anytime_trace(test.feature(i), config.max_nodes);
            let truth = test.label(i);
            for (t, c) in correct.iter_mut().enumerate() {
                if trace.label_after(t) == truth {
                    *c += 1;
                }
            }
            if *trace.labels.last().expect("non-empty trace") == truth {
                final_correct += 1;
            }
            total += 1;
        }
    }

    let total = total.max(1);
    AccuracyCurve {
        label: method.name().to_string(),
        accuracy: correct.iter().map(|&c| c as f64 / total as f64).collect(),
        final_accuracy: final_correct as f64 / total as f64,
    }
}

/// Measures the curves of Figure 2 / Figure 3: the four construction methods
/// of the paper on one workload, with global-best descent and qbk.
#[must_use]
pub fn figure_curves(dataset: &Dataset, config: &CurveConfig) -> Vec<AccuracyCurve> {
    BulkLoadMethod::paper_figures()
        .into_iter()
        .map(|m| anytime_accuracy_curve(dataset, m, config))
        .collect()
}

/// Measures the curves of Figure 4: EMTopDown / Hilbert / iterative insertion
/// under both global-best (`glo`) and breadth-first (`bft`) descent.
#[must_use]
pub fn figure4_curves(dataset: &Dataset, config: &CurveConfig) -> Vec<AccuracyCurve> {
    let methods = [
        BulkLoadMethod::EmTopDown,
        BulkLoadMethod::Hilbert,
        BulkLoadMethod::Iterative,
    ];
    let descents = [
        (DescentStrategy::default(), "glo"),
        (DescentStrategy::BreadthFirst, "bft"),
    ];
    let mut curves = Vec::new();
    for method in methods {
        for (descent, descent_name) in descents {
            // The paper only shows Iterativ with glo in Figure 4.
            if method == BulkLoadMethod::Iterative && descent_name == "bft" {
                continue;
            }
            let cfg = CurveConfig {
                descent,
                ..config.clone()
            };
            let mut curve = anytime_accuracy_curve(dataset, method, &cfg);
            curve.label = format!("{} {}", method.name(), descent_name);
            curves.push(curve);
        }
    }
    curves
}

#[cfg(test)]
mod tests {
    use super::*;
    use bt_data::synth::blobs::BlobConfig;

    fn small_dataset() -> Dataset {
        BlobConfig::new(3, 4)
            .samples_per_class(60)
            .seed(5)
            .generate()
    }

    fn fast_config() -> CurveConfig {
        CurveConfig {
            max_nodes: 12,
            folds: 3,
            geometry: Some(PageGeometry::from_fanout(4, 6)),
            max_test_queries: Some(25),
            ..CurveConfig::default()
        }
    }

    #[test]
    fn curve_has_one_point_per_budget() {
        let curve =
            anytime_accuracy_curve(&small_dataset(), BulkLoadMethod::Iterative, &fast_config());
        assert_eq!(curve.accuracy.len(), 13);
        assert!(curve.accuracy.iter().all(|a| (0.0..=1.0).contains(a)));
        assert!(curve.final_accuracy > 0.5);
    }

    #[test]
    fn accuracy_improves_or_holds_with_budget_on_easy_data() {
        let curve =
            anytime_accuracy_curve(&small_dataset(), BulkLoadMethod::EmTopDown, &fast_config());
        assert!(curve.at(12) + 0.1 >= curve.at(0), "{:?}", curve.accuracy);
        assert!(curve.peak() > 0.8);
    }

    #[test]
    fn figure_curves_produce_four_labelled_curves() {
        let curves = figure_curves(&small_dataset(), &fast_config());
        assert_eq!(curves.len(), 4);
        let labels: Vec<&str> = curves.iter().map(|c| c.label.as_str()).collect();
        assert!(labels.contains(&"EMTopDown"));
        assert!(labels.contains(&"Iterativ"));
    }

    #[test]
    fn figure4_curves_cover_both_descents() {
        let curves = figure4_curves(&small_dataset(), &fast_config());
        assert_eq!(curves.len(), 5);
        assert!(curves.iter().any(|c| c.label == "EMTopDown glo"));
        assert!(curves.iter().any(|c| c.label == "EMTopDown bft"));
        assert!(curves.iter().any(|c| c.label == "Iterativ glo"));
    }

    #[test]
    fn curve_summary_statistics() {
        let curve = AccuracyCurve {
            label: "x".to_string(),
            accuracy: vec![0.5, 0.7, 0.9],
            final_accuracy: 0.9,
        };
        assert_eq!(curve.at(0), 0.5);
        assert_eq!(curve.at(100), 0.9);
        assert_eq!(curve.peak(), 0.9);
        assert!((curve.mean() - 0.7).abs() < 1e-12);
    }
}
