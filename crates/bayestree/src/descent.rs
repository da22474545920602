//! Tree-descent strategies for anytime refinement.
//!
//! Section 2.2 evaluates three strategies for deciding which frontier entry
//! to refine next: breadth-first (`bft`), depth-first (`dft`) and *global
//! best* descent (`glo`), which orders all refinable entries by a priority
//! measure.  Two priority measures are considered: a geometric one (distance
//! from the query to the entry's MBR) and a probabilistic one (the weighted
//! probability density the entry contributes for the query).  The paper finds
//! global-best descent with the probabilistic measure to perform best; the
//! oscillation analysis of Figure 4 compares it against breadth-first.
//!
//! These strategies order the *query-side* frontier refinement.  The
//! *insertion-side* descent — the budgeted root-to-leaf walk that builds and
//! maintains the tree — is the shared iterative cursor engine in
//! [`bt_anytree::descent`], which [`crate::insert`] and the batched entry
//! points ([`crate::BayesTree::insert_batch`] and
//! [`crate::AnytimeClassifier::learn_batch`]) drive.

/// Priority measure used by global-best descent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PriorityMeasure {
    /// Distance from the query object to the entry's MBR (smaller = first).
    Geometric,
    /// Weighted probability density of the entry for the query
    /// (larger = first) — the paper's best-performing measure.
    #[default]
    Probabilistic,
}

/// Which frontier entry to refine next.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DescentStrategy {
    /// Refine entries level by level in insertion order (`bft`).
    BreadthFirst,
    /// Refine the most recently produced refinable entry first (`dft`).
    DepthFirst,
    /// Refine the globally best entry according to a [`PriorityMeasure`]
    /// (`glo`).
    GlobalBest(PriorityMeasure),
}

impl Default for DescentStrategy {
    fn default() -> Self {
        DescentStrategy::GlobalBest(PriorityMeasure::Probabilistic)
    }
}

impl DescentStrategy {
    /// The short names used in the paper's figures (`bft`, `dft`, `glo`).
    #[must_use]
    pub fn short_name(&self) -> &'static str {
        match self {
            DescentStrategy::BreadthFirst => "bft",
            DescentStrategy::DepthFirst => "dft",
            DescentStrategy::GlobalBest(PriorityMeasure::Geometric) => "glo-geo",
            DescentStrategy::GlobalBest(PriorityMeasure::Probabilistic) => "glo",
        }
    }

    /// All strategies evaluated in the paper, for ablation sweeps.
    #[must_use]
    pub fn all() -> Vec<DescentStrategy> {
        vec![
            DescentStrategy::BreadthFirst,
            DescentStrategy::DepthFirst,
            DescentStrategy::GlobalBest(PriorityMeasure::Geometric),
            DescentStrategy::GlobalBest(PriorityMeasure::Probabilistic),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_global_best_probabilistic() {
        assert_eq!(
            DescentStrategy::default(),
            DescentStrategy::GlobalBest(PriorityMeasure::Probabilistic)
        );
    }

    #[test]
    fn short_names_match_the_paper() {
        assert_eq!(DescentStrategy::BreadthFirst.short_name(), "bft");
        assert_eq!(DescentStrategy::DepthFirst.short_name(), "dft");
        assert_eq!(
            DescentStrategy::GlobalBest(PriorityMeasure::Probabilistic).short_name(),
            "glo"
        );
    }

    #[test]
    fn all_lists_four_strategies() {
        assert_eq!(DescentStrategy::all().len(), 4);
    }
}
