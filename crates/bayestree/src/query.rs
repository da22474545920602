//! The Bayes tree's instantiation of the shared anytime query engine.
//!
//! The incremental frontier machinery — which element to refine next, how
//! the partial mixture density is folded, the resumable cursor — lives in
//! [`bt_anytree::query`]; this module supplies the kernel-density
//! [`QueryModel`]:
//!
//! * a directory entry contributes the Definition 3 mixture term
//!   `(n_es / n) * g(x, mu_es, sigma_es)` ([`summary_mixture_term`], shared
//!   with the non-incremental [`crate::pdq`] reference),
//! * a leaf kernel contributes `K_h(x - x_i) / n` exactly,
//! * the certain `[lower, upper]` bounds on an entry's fully refined
//!   contribution `weight * mean_j K(x - x_j)` come from its box and its
//!   cluster feature ([`bt_stats::kernel::certified_bounds`]).  Write `a_j`
//!   for the scaled squared distance `sum_d (x_d - x_jd)^2 / (2 h_d^2)` of
//!   the entry's point `j`.  The box gives `a_min <= a_j <= a_max` (its
//!   nearest point and farthest corner); the CF gives their exact mean `ā
//!   = sum_d ((x_d - m_d)^2 + v_d) / (2 h_d^2)` from `m = LS/n` and `v =
//!   SS/n - m^2`.  Because `exp(-a)` is convex, the mean kernel is at least
//!   `K` at `ā` (Jensen) and at most the chord of `exp(-a)` over `[a_min,
//!   a_max]` at `ā` (Edmundson–Madansky); the box alone gives `K(farthest
//!   corner)` and `K(nearest point)`, and each side takes the tighter of
//!   the two.  A child's box lies in its parent's and a parent's `ā` is the
//!   weighted mean of its children's (law of total variance), so
//!   refinement can only tighten the interval — the engine's monotonicity
//!   contract.
//!
//!   In `f64` the CF terms are sound through two choices.  `ā` reads the
//!   raw variance `SS/n - m^2`, not the floored one the Gaussian reads: a
//!   floor would raise `ā` (too high a lower bound is unsound, too low an
//!   upper one too) and break nesting on near-duplicate data.  And a
//!   margin absolute in `m^2 + v` ([`bt_stats::kernel::cf_margin`]) moves
//!   the lower bound down and the upper bound up by the rounding `ā` can
//!   carry: `SS/n - m^2` cancels when the spread is far below the mean.
//! * The point estimate is the Definition 3 mixture, a different model
//!   from the kernel density the bounds enclose.  With CF bounds it may
//!   lie outside `[lower, upper]`; it is not clamped, so every estimate
//!   and every classification keeps its bits.
//!
//! On top of the model this module gives every [`BayesIndex`] — the live
//! [`BayesTree`](crate::BayesTree) and its snapshot alike —
//! budget-bracketed density queries ([`BayesIndex::anytime_density`],
//! [`BayesIndex::density_batch`]) and the first insert-free workload over
//! the same index: anytime outlier scoring ([`BayesIndex::outlier_score`]),
//! whose score *is* the refinable density interval.  Each is written once,
//! as the shared query fold ([`bt_anytree::shard`]) over the shard set's
//! views — one for a plain tree.

use crate::descent::{DescentStrategy, PriorityMeasure};
use crate::leaf::PointColumns;
use crate::node::{EntryColumns, KernelSummary};
use crate::tree::BayesIndex;
use bt_anytree::{
    outlier_score_over, query_batch_over, query_over, OutlierScore, QueryAnswer, QueryModel,
    QueryStats, RefineOrder, ShardSet, Summary as _, SummaryScore,
};
use bt_stats::kernel::{
    certified_bounds, cf_margin, leaf_scores_block, log_kernel_at, node_estimates_block,
    node_scores_block,
};
use bt_stats::{BlockScratch, KernelBandwidth};

/// The Definition 3 mixture term `(n_es / n) * g(x, mu_es, sigma_es)` of one
/// summary — the single place this arithmetic lives; the incremental
/// frontier and the non-incremental [`crate::pdq::pdq`] reference both call
/// it.
#[must_use]
pub fn summary_mixture_term(summary: &KernelSummary, x: &[f64], n: f64) -> f64 {
    summary.weight() / n * summary.gaussian().pdf(x)
}

/// The kernel-density query model: normalises by the global observation
/// count `n` and evaluates leaf kernels with the tree's bandwidth.
///
/// The model borrows the tree's [`KernelBandwidth`], whose kernel terms
/// (`-1 / (2 h^2)` and the log-kernel's peak) the tree derives once per
/// bandwidth change, so building a model per query costs nothing and
/// scoring a node computes no logarithm and no division by `h`.
///
/// For sharded trees every shard must use the *same* global `n`, so the
/// per-shard partial densities fold by summation.
#[derive(Debug, Clone, Copy)]
pub struct KernelQueryModel<'a> {
    n: f64,
    bandwidth: &'a KernelBandwidth,
}

impl<'a> KernelQueryModel<'a> {
    /// A model normalising by `count` stored observations (clamped to at
    /// least one so empty trees score zero instead of dividing by zero).
    #[must_use]
    pub fn new(count: usize, bandwidth: &'a KernelBandwidth) -> Self {
        Self {
            n: count.max(1) as f64,
            bandwidth,
        }
    }

    /// The global normaliser `n`.
    #[must_use]
    pub fn n(&self) -> f64 {
        self.n
    }

    /// The certain bounds of an entry of `weight` points from its log
    /// terms ([`certified_bounds`] with the [`cf_margin`] of `magnitude`).
    /// The block path and the scalar reference both end here.
    fn entry_bounds(
        &self,
        weight: f64,
        far: f64,
        near: f64,
        jensen: f64,
        magnitude: f64,
    ) -> (f64, f64) {
        let margin = cf_margin(weight, self.bandwidth.len(), magnitude);
        certified_bounds(weight / self.n, far, near, jensen, margin)
    }
}

impl QueryModel<KernelSummary> for KernelQueryModel<'_> {
    type Leaf = PointColumns;

    fn summary_contribution(&self, query: &[f64], summary: &KernelSummary) -> f64 {
        summary_mixture_term(summary, query, self.n)
    }

    /// Certain bounds from the summary's box and its cluster feature (see
    /// the [module docs](self)).  The log terms come from
    /// `KernelSummary::bound_log_kernels` and `KernelSummary::cf_log_terms`;
    /// the arithmetic that turns them into bounds is shared with the block
    /// path.
    fn summary_bounds(&self, query: &[f64], summary: &KernelSummary) -> (f64, f64) {
        let (far, near) = summary.bound_log_kernels(query, self.bandwidth);
        let (jensen, magnitude) = summary.cf_log_terms(query, self.bandwidth);
        self.entry_bounds(summary.weight(), far, near, jensen, magnitude)
    }

    /// `GaussianKernel::density` of the point against the query, over the
    /// point's column entries.
    fn leaf_contribution(&self, query: &[f64], leaf: &PointColumns, index: usize) -> f64 {
        let sq = query.iter().enumerate().map(|(d, &x)| {
            let diff = x - leaf.get(index, d);
            diff * diff
        });
        log_kernel_at(self.bandwidth, sq).exp() / self.n
    }

    fn leaf_sq_dist(&self, query: &[f64], leaf: &PointColumns, index: usize) -> f64 {
        query
            .iter()
            .enumerate()
            .map(|(d, &b)| {
                let diff = leaf.get(index, d) - b;
                diff * diff
            })
            .sum()
    }

    fn summarize_leaf_items(&self, leaf: &PointColumns) -> KernelSummary {
        KernelSummary::from_leaf(leaf).expect("cannot summarise an empty leaf")
    }

    /// Scores the directory where it lies: its block is the node pass's
    /// layout (`EntryColumns`), with the derived mean, raw-variance and
    /// log-variance lanes written when the batch that changed the node
    /// published, so one [`node_scores_block`] pass computes mixture term,
    /// certain bounds and geometric priority for every entry.  The pass
    /// accumulates in the same per-dimension order as the scalar methods,
    /// so the scores are bit-identical to the per-summary reference (the
    /// frontier tests assert this).  No gather runs and no cache slot is
    /// filled.
    fn score_entries(
        &self,
        query: &[f64],
        entries: &EntryColumns,
        scratch: &mut BlockScratch,
        out: &mut Vec<SummaryScore>,
    ) {
        let lanes = &mut scratch.lanes;
        node_scores_block(query, self.bandwidth, entries.node_columns(), lanes);
        let [contrib, far, near, dist, jensen, magnitude] = lanes;
        out.clear();
        out.extend(entries.weights().iter().enumerate().map(|(i, &weight)| {
            let (lower, upper) =
                self.entry_bounds(weight, far[i], near[i], jensen[i], magnitude[i]);
            SummaryScore {
                weight,
                contribution: weight / self.n * contrib[i].exp(),
                lower,
                upper,
                min_dist_sq: dist[i],
            }
        }));
    }

    /// Scores the leaf where it lies: its block is the leaf pass's
    /// dimension-major layout, so one strided [`leaf_scores_block`] pass
    /// evaluates every point's product kernel (the exact sum
    /// [`bt_stats::kernel::GaussianKernel`] takes, in the same dimension
    /// order, bit-identical) together with its geometric priority.  No
    /// gather runs and no cache slot is filled.
    fn score_leaf_items(
        &self,
        query: &[f64],
        leaf: &PointColumns,
        scratch: &mut BlockScratch,
        out: &mut Vec<SummaryScore>,
    ) {
        let [logk, dist, ..] = &mut scratch.lanes;
        let len = leaf.len();
        leaf_scores_block(
            query,
            self.bandwidth,
            leaf.columns(),
            len,
            leaf.stride(),
            logk,
            dist,
        );
        out.clear();
        out.extend(logk.iter().zip(dist.iter()).map(|(&logk, &dist)| {
            let contribution = logk.exp() / self.n;
            SummaryScore {
                weight: 1.0,
                contribution,
                lower: contribution,
                upper: contribution,
                min_dist_sq: dist,
            }
        }));
    }
}

/// The classifier's scoring model: [`KernelQueryModel`] computing only what
/// a classification reads — each element's mixture term (the frontier's
/// point estimate) and its geometric priority.
///
/// A classification ranks classes by [`bt_anytree::QueryCursor::estimate`]
/// and refines in a [`DescentStrategy`] order, none of which reads a bound
/// ([`RefineOrder::WidestBound`] is the only order that does, and no
/// strategy maps to it).  So a directory node runs
/// [`node_estimates_block`] over its block instead of the full fused pass,
/// skipping its four bound lanes and their `exp`s per entry, and every
/// element's interval collapses onto its estimate.  Estimates and
/// priorities equal the full model's bit for bit, so classifications do
/// too.
#[derive(Debug, Clone, Copy)]
pub(crate) struct EstimateModel<'a>(pub(crate) KernelQueryModel<'a>);

/// An estimate-only element: its mixture term `contribution` as the
/// estimate and the collapsed interval, with its weight and geometric
/// priority.
pub(crate) fn estimate_score(weight: f64, contribution: f64, min_dist_sq: f64) -> SummaryScore {
    SummaryScore {
        weight,
        contribution,
        lower: contribution,
        upper: contribution,
        min_dist_sq,
    }
}

impl QueryModel<KernelSummary> for EstimateModel<'_> {
    type Leaf = PointColumns;

    fn summary_contribution(&self, query: &[f64], summary: &KernelSummary) -> f64 {
        summary_mixture_term(summary, query, self.0.n)
    }

    fn summary_bounds(&self, query: &[f64], summary: &KernelSummary) -> (f64, f64) {
        let contribution = self.summary_contribution(query, summary);
        (contribution, contribution)
    }

    fn leaf_contribution(&self, query: &[f64], leaf: &PointColumns, index: usize) -> f64 {
        self.0.leaf_contribution(query, leaf, index)
    }

    fn leaf_sq_dist(&self, query: &[f64], leaf: &PointColumns, index: usize) -> f64 {
        self.0.leaf_sq_dist(query, leaf, index)
    }

    fn summarize_leaf_items(&self, leaf: &PointColumns) -> KernelSummary {
        self.0.summarize_leaf_items(leaf)
    }

    fn score_entries(
        &self,
        query: &[f64],
        entries: &EntryColumns,
        scratch: &mut BlockScratch,
        out: &mut Vec<SummaryScore>,
    ) {
        let [log_pdf, dist, ..] = &mut scratch.lanes;
        node_estimates_block(query, entries.node_columns(), log_pdf, dist);
        out.clear();
        // Each lane's mixture term `weight / n * exp(log_pdf)`: the
        // classifier's stacked root block forms the same product from
        // `weight / n` stored per lane, so both admit the same bits.
        out.extend(
            entries
                .weights()
                .iter()
                .zip(log_pdf.iter().zip(dist.iter()))
                .map(|(&weight, (&log_pdf, &dist))| {
                    estimate_score(weight, weight / self.0.n * log_pdf.exp(), dist)
                }),
        );
    }

    /// Leaves are exact, so the full model's in-place leaf pass already
    /// computes only the estimate and the priority.
    fn score_leaf_items(
        &self,
        query: &[f64],
        leaf: &PointColumns,
        scratch: &mut BlockScratch,
        out: &mut Vec<SummaryScore>,
    ) {
        self.0.score_leaf_items(query, leaf, scratch, out);
    }
}

impl From<DescentStrategy> for RefineOrder {
    fn from(strategy: DescentStrategy) -> RefineOrder {
        match strategy {
            DescentStrategy::BreadthFirst => RefineOrder::BreadthFirst,
            DescentStrategy::DepthFirst => RefineOrder::DepthFirst,
            DescentStrategy::GlobalBest(PriorityMeasure::Geometric) => RefineOrder::ClosestFirst,
            DescentStrategy::GlobalBest(PriorityMeasure::Probabilistic) => RefineOrder::BestFirst,
        }
    }
}

impl<C: ShardSet<KernelSummary, PointColumns>> BayesIndex<C> {
    /// The kernel-density query model of this tree: normalised by the
    /// **global** observation count, so per-shard partial densities fold by
    /// summation; kernels evaluated with the tree's bandwidth.
    #[must_use]
    pub fn query_model(&self) -> KernelQueryModel<'_> {
        KernelQueryModel::new(self.num_points, &self.bandwidth)
    }

    /// Budget-bracketed anytime density query: refines every shard's
    /// frontier with the given descent strategy for up to `budget` node
    /// reads (in parallel across busy shards) and returns the folded mixture
    /// estimate with its certain `[lower, upper]` bounds.  Each shard's
    /// interval can only tighten with budget, so the folded one does too.
    ///
    /// # Panics
    ///
    /// Panics if the query has the wrong dimensionality or a NaN
    /// coordinate.
    #[must_use]
    pub fn anytime_density(
        &self,
        x: &[f64],
        strategy: DescentStrategy,
        budget: usize,
    ) -> QueryAnswer {
        let model = self.query_model();
        query_over(self.core.shards(), &model, x, strategy.into(), budget)
    }

    /// Refines a batch of density queries through one reused cursor per
    /// shard, each up to `budget` node reads; returns the per-query folded
    /// answers plus the merged [`QueryStats`].
    ///
    /// # Panics
    ///
    /// Panics if any query has the wrong dimensionality or a NaN
    /// coordinate.
    #[must_use]
    pub fn density_batch(
        &self,
        queries: &[Vec<f64>],
        strategy: DescentStrategy,
        budget: usize,
    ) -> (Vec<QueryAnswer>, QueryStats) {
        let model = self.query_model();
        query_batch_over(self.core.shards(), &model, queries, strategy.into(), budget)
    }

    /// Anytime outlier scoring: refines the density bounds (widest interval
    /// first) until the verdict against `threshold` is certain or `budget`
    /// node reads are spent.  The score is the refinable density interval —
    /// an insert-free workload over the same index.
    ///
    /// # Panics
    ///
    /// Panics if the query has the wrong dimensionality or a NaN
    /// coordinate.
    #[must_use]
    pub fn outlier_score(&self, x: &[f64], threshold: f64, budget: usize) -> OutlierScore {
        let model = self.query_model();
        outlier_score_over(self.core.shards(), &model, x, threshold, budget)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BayesTree;
    use bt_anytree::{Directory, OutlierVerdict, TreeView};
    use bt_index::PageGeometry;
    use bt_stats::BlockScratch;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn sample_points(n: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let center = if i % 2 == 0 { 0.0 } else { 8.0 };
                vec![center + rng.random::<f64>(), center + rng.random::<f64>()]
            })
            .collect()
    }

    fn sample_tree(n: usize, seed: u64) -> BayesTree {
        BayesTree::build_iterative(&sample_points(n, seed), 2, PageGeometry::from_fanout(4, 4))
    }

    #[test]
    fn full_budget_density_matches_the_flat_estimate() {
        let tree: BayesTree = sample_tree(150, 1);
        let query = [0.5, 0.5];
        let answer = tree.anytime_density(&query, DescentStrategy::default(), usize::MAX);
        let expected = tree.full_kernel_density(&query);
        assert!((answer.estimate - expected).abs() < 1e-9);
        // Fully refined: the bounds collapse onto the exact density.
        assert!(answer.uncertainty() < 1e-12);
        assert!((answer.lower - expected).abs() < 1e-9);
    }

    #[test]
    fn bounds_bracket_the_true_density_at_every_budget() {
        let tree: BayesTree = sample_tree(200, 2);
        let query = [4.0, 4.0];
        let truth = tree.full_kernel_density(&query);
        let mut last_uncertainty = f64::INFINITY;
        for budget in [0, 1, 2, 4, 8, 16, 64] {
            let answer = tree.anytime_density(&query, DescentStrategy::default(), budget);
            assert!(
                answer.lower <= truth + 1e-12 && truth <= answer.upper + 1e-12,
                "budget {budget}: [{}, {}] misses {truth}",
                answer.lower,
                answer.upper
            );
            assert!(
                answer.uncertainty() <= last_uncertainty + 1e-12,
                "budget {budget} widened the bound"
            );
            last_uncertainty = answer.uncertainty();
        }
    }

    #[test]
    fn density_batch_matches_one_shot_queries() {
        let tree: BayesTree = sample_tree(120, 3);
        let queries = vec![vec![0.0, 0.0], vec![8.5, 8.5], vec![4.0, 4.0]];
        let (answers, stats) = tree.density_batch(&queries, DescentStrategy::default(), 10);
        assert_eq!(answers.len(), 3);
        assert_eq!(stats.queries, 3);
        for (answer, q) in answers.iter().zip(&queries) {
            let one_shot = tree.anytime_density(q, DescentStrategy::default(), 10);
            assert_eq!(*answer, one_shot);
        }
    }

    #[test]
    fn outlier_scoring_gives_certain_verdicts() {
        let tree: BayesTree = sample_tree(200, 4);
        // Density near the data is around 0.1; far away it is ~0.
        let far = tree.outlier_score(&[500.0, -500.0], 1e-6, 10_000);
        assert_eq!(far.verdict, OutlierVerdict::Outlier);
        let near = tree.outlier_score(&[0.5, 0.5], 1e-6, 10_000);
        assert_eq!(near.verdict, OutlierVerdict::Inlier);
        // The far verdict should be decided well before exhausting the tree.
        assert!(far.answer.nodes_read < tree.num_nodes() - 1);
    }

    #[test]
    fn pdq_and_model_share_the_mixture_arithmetic() {
        let tree: BayesTree = sample_tree(100, 5);
        let entries = tree.root_entries();
        let x = [1.0, 1.0];
        let n: f64 = entries.iter().map(|e| e.weight()).sum();
        let by_terms: f64 = entries
            .iter()
            .map(|e| summary_mixture_term(&e.summary, &x, n))
            .sum();
        assert!((by_terms - crate::pdq::pdq(&entries, &x)).abs() < 1e-12);
    }

    /// Scores every inner node of `tree` through the block path and checks
    /// each score against the scalar per-summary reference bit for bit.
    /// The expected bounds are derived here from the summary's log terms
    /// through `certified_bounds`.
    fn assert_block_scores_match_the_scalar_reference(tree: &BayesTree) {
        let model = tree.query_model();
        let bandwidth = &tree.bandwidth;
        let mut scratch = BlockScratch::new();
        let mut scores = Vec::new();
        let mut inner_nodes = 0;
        for query in [[0.5, 0.5], [8.3, 8.3], [4.0, 4.0], [-30.0, 55.0]] {
            for id in TreeView::reachable(tree.shard(0)) {
                let node = tree.shard(0).node(id);
                let bt_anytree::NodeKind::Inner { entries } = &node.kind else {
                    continue;
                };
                inner_nodes += 1;
                model.score_entries(&query, entries, &mut scratch, &mut scores);
                assert_eq!(scores.len(), entries.len());
                for (entry, score) in crate::node::block_entries(entries).iter().zip(&scores) {
                    let summary = &entry.summary;
                    let scale = summary.weight() / model.n();
                    let (far, near) = summary.bound_log_kernels(&query, bandwidth);
                    let (jensen, magnitude) = summary.cf_log_terms(&query, bandwidth);
                    let margin = cf_margin(summary.weight(), query.len(), magnitude);
                    let (lower, upper) = certified_bounds(scale, far, near, jensen, margin);
                    let reference = model.summary_bounds(&query, summary);
                    assert_eq!(reference.0.to_bits(), lower.to_bits());
                    assert_eq!(reference.1.to_bits(), upper.to_bits());
                    let expected = SummaryScore {
                        weight: summary.weight(),
                        contribution: model.summary_contribution(&query, summary),
                        lower,
                        upper,
                        min_dist_sq: model.summary_sq_dist(&query, summary),
                    };
                    assert_eq!(score.weight.to_bits(), expected.weight.to_bits());
                    assert_eq!(
                        score.contribution.to_bits(),
                        expected.contribution.to_bits()
                    );
                    assert_eq!(score.lower.to_bits(), expected.lower.to_bits());
                    assert_eq!(score.upper.to_bits(), expected.upper.to_bits());
                    assert_eq!(score.min_dist_sq.to_bits(), expected.min_dist_sq.to_bits());
                }
            }
        }
        assert!(inner_nodes > 0, "tree too small to exercise the block path");
    }

    #[test]
    fn block_scores_match_the_scalar_reference_bitwise() {
        assert_block_scores_match_the_scalar_reference(&sample_tree(300, 6));
    }

    #[test]
    fn cf_bounds_are_never_looser_than_the_box_bounds() {
        // Every f64 entry's interval lies inside its box interval, and on
        // ordinary data the cluster feature tightens most of them.
        let tree: BayesTree = sample_tree(300, 8);
        let model = tree.query_model();
        let (mut entries_seen, mut tightened) = (0, 0);
        for query in [[0.5, 0.5], [8.3, 8.9], [4.0, 4.0], [1.7, -0.4]] {
            for id in TreeView::reachable(tree.shard(0)) {
                let bt_anytree::NodeKind::Inner { entries } = &tree.shard(0).node(id).kind else {
                    continue;
                };
                for entry in crate::node::block_entries(entries) {
                    let summary = &entry.summary;
                    let scale = summary.weight() / model.n();
                    let (far, near) = summary.bound_log_kernels(&query, &tree.bandwidth);
                    let (lower, upper) = model.summary_bounds(&query, summary);
                    assert!(lower >= scale * far.exp() && upper <= scale * near.exp());
                    entries_seen += 1;
                    if lower > scale * far.exp() && upper < scale * near.exp() {
                        tightened += 1;
                    }
                }
            }
        }
        assert!(
            2 * tightened > entries_seen,
            "{tightened} of {entries_seen} tightened"
        );
    }

    #[test]
    fn strategies_map_onto_the_core_orders() {
        assert_eq!(
            RefineOrder::from(DescentStrategy::BreadthFirst),
            RefineOrder::BreadthFirst
        );
        assert_eq!(
            RefineOrder::from(DescentStrategy::GlobalBest(PriorityMeasure::Probabilistic)),
            RefineOrder::BestFirst
        );
        assert_eq!(
            RefineOrder::from(DescentStrategy::GlobalBest(PriorityMeasure::Geometric)),
            RefineOrder::ClosestFirst
        );
    }

    #[test]
    #[should_panic(expected = "query coordinates must not be NaN")]
    fn nan_query_is_rejected_by_outlier_scoring() {
        // A NaN query scores every bound NaN or zero: without the check the
        // verdict came back as a certain `Outlier` after 0 reads.
        let tree: BayesTree = sample_tree(100, 7);
        let _ = tree.outlier_score(&[f64::NAN, 1.0], 1.0, 8);
    }

    #[test]
    fn infinite_query_is_a_certain_outlier() {
        let tree: BayesTree = sample_tree(100, 7);
        for x in [f64::INFINITY, f64::NEG_INFINITY] {
            let score = tree.outlier_score(&[x, 1.0], 1e-6, 8);
            assert_eq!(score.verdict, OutlierVerdict::Outlier);
            assert_eq!(score.answer.upper, 0.0);
        }
    }
}
