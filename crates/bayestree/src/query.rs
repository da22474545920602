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
//!   The quantised mode stores a rounded CF, which this margin does not
//!   cover, so it keeps the box bounds ([`StoredSummary::CF_BOUNDS`]).
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
use crate::node::{StoredElement, StoredSummary};
use crate::tree::BayesIndex;
use bt_anytree::{
    outlier_score_over, query_batch_over, query_over, Entry, OutlierScore, QueryAnswer, QueryModel,
    QueryStats, RefineOrder, ShardSet, SummaryScore,
};
use bt_stats::kernel::{
    certified_bounds, cf_margin, leaf_scores_block, node_estimates_block, node_scores_block,
    GaussianKernel, Kernel,
};
use bt_stats::{GatheredBlock, KernelBandwidth, ScoreLanes};

/// The Definition 3 mixture term `(n_es / n) * g(x, mu_es, sigma_es)` of one
/// summary — the single place this arithmetic lives; the incremental
/// frontier and the non-incremental [`crate::pdq::pdq`] reference both call
/// it.
#[must_use]
pub fn summary_mixture_term<S: StoredSummary>(summary: &S, x: &[f64], n: f64) -> f64 {
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
    /// terms: the CF bounds ([`certified_bounds`]) when the stored mode
    /// keeps an exact CF, else the box's `weight * K(farthest corner)` and
    /// `weight * K(nearest point)`.  `jensen` and `magnitude` are read only
    /// in the first case.  The block path and the scalar reference both
    /// end here.
    fn entry_bounds<S: StoredSummary>(
        &self,
        weight: f64,
        far: f64,
        near: f64,
        jensen: f64,
        magnitude: f64,
    ) -> (f64, f64) {
        let scale = weight / self.n;
        if S::CF_BOUNDS {
            let margin = cf_margin(weight, self.bandwidth.len(), magnitude);
            certified_bounds(scale, far, near, jensen, margin)
        } else {
            (scale * far.exp(), scale * near.exp())
        }
    }
}

impl<S: StoredSummary> QueryModel<S> for KernelQueryModel<'_> {
    type LeafItem = Vec<f64>;

    fn summary_contribution(&self, query: &[f64], summary: &S) -> f64 {
        summary_mixture_term(summary, query, self.n)
    }

    /// Certain bounds from the summary's box and, in the `f64` mode, its
    /// cluster feature (see the [module docs](self)).  The log terms come
    /// from [`StoredSummary::bound_log_kernels`] and
    /// [`StoredSummary::cf_log_terms`] — each stored representation
    /// decodes its own corners and sums; the arithmetic that turns them
    /// into bounds is shared with the block path.
    fn summary_bounds(&self, query: &[f64], summary: &S) -> (f64, f64) {
        let (far, near) = summary.bound_log_kernels(query, self.bandwidth);
        let (jensen, magnitude) = if S::CF_BOUNDS {
            summary.cf_log_terms(query, self.bandwidth)
        } else {
            (f64::NAN, f64::NAN)
        };
        self.entry_bounds::<S>(summary.weight(), far, near, jensen, magnitude)
    }

    fn leaf_contribution(&self, query: &[f64], item: &Vec<f64>) -> f64 {
        GaussianKernel.density(item, query, self.bandwidth) / self.n
    }

    fn leaf_sq_dist(&self, query: &[f64], item: &Vec<f64>) -> f64 {
        item.iter().zip(query).map(|(a, b)| (a - b) * (a - b)).sum()
    }

    fn summarize_leaf_items(&self, items: &[Vec<f64>]) -> S {
        S::from_points(items, items[0].len()).expect("cannot summarise an empty leaf")
    }

    /// Block gather: packs the node's entries into the structure-of-arrays
    /// [`bt_stats::SummaryBlock`] (weights, Gaussian means / variances, MBR
    /// corners) so [`QueryModel::score_gathered`] can evaluate every entry
    /// in one fused, vectorized pass over the dimension-major columns
    /// instead of four scalar loops per entry.
    ///
    /// The per-entry decode lives in [`StoredSummary::gather_into`]:
    /// the `f64` mode copies and the quantised mode decodes its mantissas
    /// (exactly, in `f64`) — each replicates
    /// `ClusterFeature::variance` and the `DiagGaussian` variance clamp, and
    /// the gather is a pure function of `entries`, so the engine caches it
    /// per node keyed by the node's version stamp.
    fn gather_entries(&self, entries: &[Entry<S>], out: &mut GatheredBlock) -> bool {
        let dims = self.bandwidth.len();
        let len = entries.len();
        let block = &mut out.block;
        block.reset(dims, len);
        block.enable_vars();
        block.enable_boxes();
        for (i, entry) in entries.iter().enumerate() {
            entry.summary.gather_into(block, i, dims);
        }
        // Hoist the query-independent `ln(var)` out of the scoring loop:
        // the column is cached with the block, so warm hits score the node
        // without a single transcendental.
        block.fill_log_vars();
        true
    }

    /// Block scoring over gathered columns: mixture term, certain bounds
    /// and geometric priority for all entries in one [`node_scores_block`]
    /// pass.  The pass accumulates in the same per-dimension order as the
    /// scalar methods, so in every stored mode the scores are bit-identical
    /// to the per-summary reference (the frontier tests assert this).
    fn score_gathered(
        &self,
        query: &[f64],
        _entries: &[Entry<S>],
        gathered: &GatheredBlock,
        lanes: &mut ScoreLanes,
        out: &mut Vec<SummaryScore>,
    ) {
        let block = &gathered.block;
        let len = block.len();
        node_scores_block(query, self.bandwidth, block, lanes);
        let [contrib, far, near, dist, jensen, magnitude] = lanes;
        out.clear();
        out.reserve(len);
        for i in 0..len {
            let weight = block.weights()[i];
            let (lower, upper) =
                self.entry_bounds::<S>(weight, far[i], near[i], jensen[i], magnitude[i]);
            out.push(SummaryScore {
                weight,
                contribution: weight / self.n * contrib[i].exp(),
                lower,
                upper,
                min_dist_sq: dist[i],
            });
        }
    }

    /// Leaf block gather: a leaf's items are raw points, so their
    /// coordinates *are* the mean columns — nothing else is needed, and
    /// the variance and box columns stay empty.
    fn gather_leaf_items(&self, items: &[Vec<f64>], out: &mut GatheredBlock) -> bool {
        let dims = self.bandwidth.len();
        let len = items.len();
        let block = &mut out.block;
        block.reset(dims, len);
        for (i, item) in items.iter().enumerate() {
            block.set_weight(i, 1.0);
            for (d, &v) in item.iter().take(dims).enumerate() {
                block.set_mean(d, i, v);
            }
        }
        true
    }

    /// Leaf block scoring: one [`leaf_scores_block`] pass evaluates every
    /// item's product kernel (the exact sum [`GaussianKernel`] takes, in the
    /// same dimension order, bit-identical) together with its geometric
    /// priority.
    fn score_gathered_leaves(
        &self,
        query: &[f64],
        _items: &[Vec<f64>],
        gathered: &GatheredBlock,
        lanes: &mut ScoreLanes,
        out: &mut Vec<SummaryScore>,
    ) {
        let block = &gathered.block;
        let len = block.len();
        let [logk, dist, ..] = lanes;
        leaf_scores_block(query, self.bandwidth, block.mean(), len, logk, dist);
        out.clear();
        out.reserve(len);
        for i in 0..len {
            let contribution = logk[i].exp() / self.n;
            out.push(SummaryScore {
                weight: 1.0,
                contribution,
                lower: contribution,
                upper: contribution,
                min_dist_sq: dist[i],
            });
        }
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
/// [`node_estimates_block`] instead of the full fused pass, skipping its
/// four bound lanes and their `exp`s per entry, and every element's
/// interval collapses onto its estimate.  Estimates and priorities equal
/// the full model's bit for bit, so classifications do too.  The gathers
/// are the full model's, so cached blocks serve both.
#[derive(Debug, Clone, Copy)]
pub(crate) struct EstimateModel<'a>(pub(crate) KernelQueryModel<'a>);

impl EstimateModel<'_> {
    /// The score of one lane of a [`node_estimates_block`] pass: the
    /// mixture term `weight / n * exp(log_pdf)` as the element's estimate
    /// and collapsed interval, and its geometric priority.  Shared by node
    /// scoring and the classifier's stacked root block, so both admit the
    /// same bits.
    pub(crate) fn lane_score(&self, weight: f64, log_pdf: f64, min_dist_sq: f64) -> SummaryScore {
        let contribution = weight / self.0.n * log_pdf.exp();
        SummaryScore {
            weight,
            contribution,
            lower: contribution,
            upper: contribution,
            min_dist_sq,
        }
    }
}

impl<S: StoredSummary> QueryModel<S> for EstimateModel<'_> {
    type LeafItem = Vec<f64>;

    fn summary_contribution(&self, query: &[f64], summary: &S) -> f64 {
        summary_mixture_term(summary, query, self.0.n)
    }

    fn summary_bounds(&self, query: &[f64], summary: &S) -> (f64, f64) {
        let contribution = self.summary_contribution(query, summary);
        (contribution, contribution)
    }

    fn leaf_contribution(&self, query: &[f64], item: &Vec<f64>) -> f64 {
        QueryModel::<S>::leaf_contribution(&self.0, query, item)
    }

    fn leaf_sq_dist(&self, query: &[f64], item: &Vec<f64>) -> f64 {
        QueryModel::<S>::leaf_sq_dist(&self.0, query, item)
    }

    fn summarize_leaf_items(&self, items: &[Vec<f64>]) -> S {
        self.0.summarize_leaf_items(items)
    }

    fn gather_entries(&self, entries: &[Entry<S>], out: &mut GatheredBlock) -> bool {
        self.0.gather_entries(entries, out)
    }

    fn score_gathered(
        &self,
        query: &[f64],
        _entries: &[Entry<S>],
        gathered: &GatheredBlock,
        lanes: &mut ScoreLanes,
        out: &mut Vec<SummaryScore>,
    ) {
        let block = &gathered.block;
        let [log_pdf, dist, ..] = lanes;
        node_estimates_block(query, block, log_pdf, dist);
        out.clear();
        out.extend(
            block
                .weights()
                .iter()
                .zip(log_pdf.iter().zip(dist.iter()))
                .map(|(&weight, (&log_pdf, &dist))| self.lane_score(weight, log_pdf, dist)),
        );
    }

    fn gather_leaf_items(&self, items: &[Vec<f64>], out: &mut GatheredBlock) -> bool {
        QueryModel::<S>::gather_leaf_items(&self.0, items, out)
    }

    /// Leaves are exact, so the full model's leaf pass already computes
    /// only the estimate and the priority.
    fn score_gathered_leaves(
        &self,
        query: &[f64],
        items: &[Vec<f64>],
        gathered: &GatheredBlock,
        lanes: &mut ScoreLanes,
        out: &mut Vec<SummaryScore>,
    ) {
        QueryModel::<S>::score_gathered_leaves(&self.0, query, items, gathered, lanes, out);
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

impl<E: StoredElement, C: ShardSet<E::Summary, Vec<f64>>> BayesIndex<E, C> {
    /// The kernel-density query model of this tree: normalised by the
    /// **global** observation count, so per-shard partial densities fold by
    /// summation; kernels evaluated with the tree's bandwidth.
    ///
    /// Both stored modes gather full-width columns: quantised mantissas
    /// decode exactly in `f64`, so each mode's block path equals its scalar
    /// reference bit for bit.
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
    use bt_anytree::{OutlierVerdict, Summary as _, TreeView};
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
    /// each score against the scalar `StoredSummary` reference bit for bit.
    /// Both stored modes gather into full-width `f64` columns (the
    /// quantised decode `q * step` is exact), so both are held to the same
    /// contract.  The expected bounds are derived here from the summary's
    /// log terms: through `certified_bounds` when the mode keeps an exact
    /// CF (`f64`), as the box's `scale * exp(log kernel)` pair otherwise
    /// (quantised).
    fn assert_block_scores_match_the_scalar_reference<E: StoredElement>(tree: &BayesTree<E>) {
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
                for (entry, score) in entries.iter().zip(&scores) {
                    let summary = &entry.summary;
                    let scale = summary.weight() / model.n();
                    let (far, near) = summary.bound_log_kernels(&query, bandwidth);
                    let (lower, upper) = if E::Summary::CF_BOUNDS {
                        let (jensen, magnitude) = summary.cf_log_terms(&query, bandwidth);
                        let margin = cf_margin(summary.weight(), query.len(), magnitude);
                        certified_bounds(scale, far, near, jensen, margin)
                    } else {
                        (scale * far.exp(), scale * near.exp())
                    };
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
        const { assert!(<f64 as StoredElement>::Summary::CF_BOUNDS) };
        assert_block_scores_match_the_scalar_reference(&sample_tree(300, 6));
    }

    #[test]
    fn quantized_block_scores_match_the_scalar_reference_bitwise() {
        const { assert!(!<crate::node::Quantized as StoredElement>::Summary::CF_BOUNDS) };
        let tree: BayesTree<crate::node::Quantized> =
            BayesTree::build_iterative(&sample_points(300, 6), 2, PageGeometry::from_fanout(4, 4));
        assert_block_scores_match_the_scalar_reference(&tree);
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
                for entry in entries {
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
