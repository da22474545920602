//! Ablation experiments over the classifier's design choices: descent
//! strategy and qbk parameter.  The `ablation_descent` bin prints both.

use crate::curve::{anytime_accuracy_curve, AccuracyCurve, CurveConfig};
use bayestree::{BulkLoadMethod, DescentStrategy, RefinementStrategy};
use bt_data::Dataset;

/// Measures one accuracy curve per descent strategy (bft, dft, glo-geo, glo).
#[must_use]
pub fn descent_ablation(
    dataset: &Dataset,
    method: BulkLoadMethod,
    config: &CurveConfig,
) -> Vec<AccuracyCurve> {
    DescentStrategy::all()
        .into_iter()
        .map(|descent| {
            let cfg = CurveConfig {
                descent,
                ..config.clone()
            };
            let mut curve = anytime_accuracy_curve(dataset, method, &cfg);
            curve.label = format!("{} {}", method.name(), descent.short_name());
            curve
        })
        .collect()
}

/// Measures one accuracy curve per qbk parameter `k` (plus round-robin).
#[must_use]
pub fn qbk_ablation(
    dataset: &Dataset,
    method: BulkLoadMethod,
    ks: &[usize],
    config: &CurveConfig,
) -> Vec<AccuracyCurve> {
    let mut strategies: Vec<(RefinementStrategy, String)> = ks
        .iter()
        .map(|&k| (RefinementStrategy::Qbk { k: Some(k) }, format!("qb{k}")))
        .collect();
    strategies.push((RefinementStrategy::RoundRobin, "rr".to_string()));
    strategies.push((RefinementStrategy::MostProbable, "top1".to_string()));

    strategies
        .into_iter()
        .map(|(refinement, label)| {
            let cfg = CurveConfig {
                refinement,
                ..config.clone()
            };
            let mut curve = anytime_accuracy_curve(dataset, method, &cfg);
            curve.label = label;
            curve
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bt_data::synth::blobs::BlobConfig;
    use bt_index::PageGeometry;

    fn dataset() -> Dataset {
        BlobConfig::new(3, 4)
            .samples_per_class(50)
            .seed(9)
            .generate()
    }

    fn fast_config() -> CurveConfig {
        CurveConfig {
            max_nodes: 8,
            folds: 2,
            geometry: Some(PageGeometry::from_fanout(4, 6)),
            max_test_queries: Some(20),
            ..CurveConfig::default()
        }
    }

    #[test]
    fn descent_ablation_covers_all_strategies() {
        let curves = descent_ablation(&dataset(), BulkLoadMethod::Iterative, &fast_config());
        assert_eq!(curves.len(), 4);
        assert!(curves.iter().any(|c| c.label.ends_with("bft")));
        assert!(curves.iter().any(|c| c.label.ends_with("glo")));
        for c in &curves {
            assert!(c.peak() > 0.5, "{}: {:?}", c.label, c.accuracy);
        }
    }

    #[test]
    fn qbk_ablation_produces_requested_variants() {
        let curves = qbk_ablation(
            &dataset(),
            BulkLoadMethod::Iterative,
            &[1, 2],
            &fast_config(),
        );
        let labels: Vec<&str> = curves.iter().map(|c| c.label.as_str()).collect();
        assert_eq!(labels, vec!["qb1", "qb2", "rr", "top1"]);
    }
}
