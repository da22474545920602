//! Probability density queries (Definition 3).
//!
//! A probability density query evaluates the mixture model defined by a set
//! of entries `E`:
//!
//! ```text
//! pdq(x, E) = sum_{e_s in E} (n_es / n) * g(x, mu_es, sigma_es)
//! ```
//!
//! The anytime classifier uses the incremental [`bt_anytree::query`]
//! machinery; the free functions here evaluate the same quantity non-incrementally for
//! whole levels of the tree, which is useful for tests, for the "model at
//! granularity k" inspection API, and as a reference implementation the
//! incremental path is validated against.  The per-entry mixture term itself
//! lives in exactly one place — [`crate::query::summary_mixture_term`] — so
//! the incremental and non-incremental paths cannot drift apart.

use crate::node::Entry;
use crate::query::summary_mixture_term;
use crate::tree::BayesTree;

/// Evaluates `pdq(x, E)` for an explicit set of entries.
///
/// `n` is taken as the total weight of the entries, per Definition 3.
#[must_use]
pub fn pdq(entries: &[Entry], x: &[f64]) -> f64 {
    let n: f64 = entries.iter().map(|e| e.weight()).sum();
    if n <= 0.0 {
        return 0.0;
    }
    entries
        .iter()
        .map(|e| summary_mixture_term(&e.summary, x, n))
        .sum()
}

/// Evaluates the complete mixture model stored at tree level `level`
/// (0 = the root's entries) for the query `x`.
#[must_use]
pub fn density_at_level(tree: &BayesTree, x: &[f64], level: usize) -> f64 {
    pdq(&tree.level_entries(level), x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bt_index::PageGeometry;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn tree_with(n: usize, seed: u64) -> BayesTree {
        let mut rng = StdRng::seed_from_u64(seed);
        let points: Vec<Vec<f64>> = (0..n)
            .map(|_| vec![rng.random::<f64>() * 4.0, rng.random::<f64>() * 4.0])
            .collect();
        BayesTree::build_iterative(&points, 2, PageGeometry::from_fanout(5, 6))
    }

    #[test]
    fn pdq_of_empty_entry_set_is_zero() {
        assert_eq!(pdq(&[], &[0.0, 0.0]), 0.0);
    }

    #[test]
    fn root_level_density_is_positive_near_data() {
        let tree = tree_with(200, 1);
        let d = density_at_level(&tree, &[2.0, 2.0], 0);
        assert!(d > 0.0);
    }

    #[test]
    fn deeper_levels_give_finer_models() {
        let tree = tree_with(300, 2);
        // All levels are proper densities over the same data; they need not
        // be equal, but none may be negative and each must integrate the same
        // total weight (checked via the entries directly).
        for level in 0..tree.height() {
            let entries = tree.level_entries(level);
            let total: f64 = entries.iter().map(|e| e.weight()).sum();
            assert!((total - 300.0).abs() < 1e-6, "level {level}");
            assert!(density_at_level(&tree, &[1.0, 1.0], level) >= 0.0);
        }
    }

    #[test]
    fn level_beyond_height_saturates_at_leaf_summaries() {
        let tree = tree_with(100, 3);
        let deep = tree.level_entries(100);
        let leaf_level = tree.level_entries(tree.height());
        assert_eq!(deep.len(), leaf_level.len());
    }

    #[test]
    fn density_far_from_data_is_tiny() {
        let tree = tree_with(100, 4);
        let near = density_at_level(&tree, &[2.0, 2.0], 1);
        let far = density_at_level(&tree, &[1000.0, 1000.0], 1);
        assert!(far < near);
    }
}
