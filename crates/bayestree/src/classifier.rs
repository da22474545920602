//! The anytime Bayesian classifier built on per-class Bayes trees.
//!
//! Training builds one Bayes tree per class (Section 2.2) — either by
//! iterative insertion or with one of the bulk loads of Section 3 — and
//! estimates the class priors from the relative class frequencies.
//! Classification maintains one frontier per class; in every time step the
//! refinement strategy (qbk by default) selects a class whose frontier is
//! refined by one node read, and the decision at any interruption point is
//! `argmax_c P(c) * pdq(x, E_c)`.
//!
//! Every classification starts from the 0-read root mixture of every
//! class.  The roots are scored together: a `RootBlock` stacks every
//! class root's entries (a leaf root's one summary) into one column block,
//! gathered by the first classification, and each classification scores
//! it with one estimate pass.  Each class frontier is then seeded from its
//! own lanes ([`QueryCursor::begin_scored`]) exactly as
//! [`TreeView::begin_query`] would have seeded it.  The block follows the
//! node cache rule one level up: the classifier's only writers
//! ([`AnytimeClassifier::learn_one`], [`AnytimeClassifier::learn_batch`])
//! empty it, and a snapshot fills its own.

use crate::bulk::{build_tree, BulkLoadMethod};
use crate::descent::DescentStrategy;
use crate::node::KernelSummary;
use crate::qbk::{RefinementScheduler, RefinementStrategy};
use crate::query::{EstimateModel, KernelQueryModel};
use crate::tree::{BayesIndex, BayesTree, BayesTreeSnapshot};
use crate::StoredSummary;
use bt_anytree::{
    with_scratch_cursors, ElementOrigin, NodeId, NodeKind, QueryCursor, QueryModel, QueryStats,
    RefineOrder, ShardSet, TreeView,
};
use bt_data::Dataset;
use bt_index::PageGeometry;
use bt_stats::kernel::node_estimates_block;
use bt_stats::SummaryBlock;
use std::ops::Range;
use std::sync::{Arc, OnceLock};

/// Configuration of the anytime classifier.  Each class's tree carries the
/// Silverman bandwidth of its own class, the paper's setting.
#[derive(Debug, Clone)]
pub struct ClassifierConfig {
    /// Fanout / leaf-capacity parameters; `None` derives them from a 4 KiB
    /// page for the training data's dimensionality.
    pub geometry: Option<PageGeometry>,
    /// How the per-class trees are constructed.
    pub bulk_load: BulkLoadMethod,
    /// Descent strategy used within each tree.
    pub descent: DescentStrategy,
    /// Strategy deciding which class refines next.
    pub refinement: RefinementStrategy,
    /// Seed for the randomised bulk loads.
    pub seed: u64,
}

impl Default for ClassifierConfig {
    fn default() -> Self {
        Self {
            geometry: None,
            bulk_load: BulkLoadMethod::EmTopDown,
            descent: DescentStrategy::default(),
            refinement: RefinementStrategy::default(),
            seed: 0,
        }
    }
}

impl ClassifierConfig {
    /// Convenience constructor that only overrides the bulk-load method.
    #[must_use]
    pub fn with_bulk_load(bulk_load: BulkLoadMethod) -> Self {
        Self {
            bulk_load,
            ..Self::default()
        }
    }
}

/// The decision for one query at one interruption point.
#[derive(Debug, Clone, PartialEq)]
pub struct Classification {
    /// Predicted class label.
    pub label: usize,
    /// Normalised posterior probabilities per class (uniform if every class
    /// density underflowed to zero).
    pub posteriors: Vec<f64>,
    /// Number of node reads spent across all class trees.
    pub nodes_read: usize,
}

/// The full anytime trace of one query: the decision after every node read.
#[derive(Debug, Clone)]
pub struct AnytimeTrace {
    /// `labels[t]` is the predicted label after `t` node reads
    /// (`labels[0]` is the root-level decision).
    pub labels: Vec<usize>,
    /// Posteriors at the final interruption point.
    pub final_posteriors: Vec<f64>,
}

impl AnytimeTrace {
    /// The label predicted after `nodes` node reads (saturating at the end of
    /// the trace, i.e. the fully refined model).
    #[must_use]
    pub fn label_after(&self, nodes: usize) -> usize {
        let idx = nodes.min(self.labels.len().saturating_sub(1));
        self.labels[idx]
    }
}

/// An anytime Bayesian classifier over the per-class trees `T`: one Bayes
/// tree per class.  Two instantiations exist, each named by an alias:
/// [`AnytimeClassifier`] learns into live trees, and [`ClassifierSnapshot`]
/// classifies against trees pinned by [`AnytimeClassifier::snapshot`]
/// (`crate::view`).  Every read is written once, for both; learning and
/// `snapshot()` exist on the live classifier only.
#[derive(Debug, Clone)]
pub struct Classifier<T> {
    pub(crate) trees: Vec<T>,
    pub(crate) priors: Vec<f64>,
    /// Shared with snapshots, which take it without a copy.
    pub(crate) class_names: Arc<[String]>,
    pub(crate) config: ClassifierConfig,
    pub(crate) dims: usize,
    /// The class roots' stacked block, gathered by the first
    /// classification since the last write.
    pub(crate) roots: OnceLock<RootBlock>,
}

/// The live classifier: one [`BayesTree`] per class.
pub type AnytimeClassifier = Classifier<BayesTree>;

/// An epoch-pinned, immutable view of an [`AnytimeClassifier`]: one
/// per-class [`BayesTreeSnapshot`] plus the priors frozen at snapshot time.
///
/// `Send + Sync`, so classification keeps running on reader threads while
/// [`AnytimeClassifier::learn_batch`] drains new labelled observations into
/// the live per-class trees.
pub type ClassifierSnapshot = Classifier<BayesTreeSnapshot>;

impl<C: ShardSet<KernelSummary, Vec<f64>>> Classifier<BayesIndex<f64, C>> {
    /// Number of classes.
    #[must_use]
    pub fn num_classes(&self) -> usize {
        self.trees.len()
    }

    /// Feature dimensionality.
    #[must_use]
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// The per-class trees.
    #[must_use]
    pub fn trees(&self) -> &[BayesIndex<f64, C>] {
        &self.trees
    }

    /// The class priors `P(c)`.
    #[must_use]
    pub fn priors(&self) -> &[f64] {
        &self.priors
    }

    /// Classifies `x` spending at most `budget` node reads.
    ///
    /// # Panics
    ///
    /// Panics if the query has the wrong dimensionality or a NaN
    /// coordinate.
    #[must_use]
    pub fn classify_with_budget(&self, x: &[f64], budget: usize) -> Classification {
        let (trace, nodes_read) = self.run_anytime(x, budget, false);
        Classification {
            label: *trace.labels.last().expect("trace is never empty"),
            posteriors: trace.final_posteriors,
            nodes_read,
        }
    }

    /// Produces the full anytime trace: the decision after every node read up
    /// to `max_nodes` (or until every frontier is exhausted).
    ///
    /// # Panics
    ///
    /// Panics if the query has the wrong dimensionality or a NaN
    /// coordinate.
    #[must_use]
    pub fn anytime_trace(&self, x: &[f64], max_nodes: usize) -> AnytimeTrace {
        self.run_anytime(x, max_nodes, true).0
    }

    /// The anytime classification loop over the per-class `(view, model)`
    /// pairs.  Each class's frontier lives on one of this thread's pooled
    /// scratch cursors ([`with_scratch_cursors`]), so a classification
    /// builds no cursor of its own.  Returns the trace plus the number of
    /// refinements (node reads) actually performed.
    ///
    /// The 0-read root mixture is one pass: `roots` (gathered on first use)
    /// holds every class root's lanes, one [`node_estimates_block`] call
    /// scores them all, and each class cursor is seeded from its own lanes
    /// by [`QueryCursor::begin_scored`] with the score its own model gives
    /// — `weight / n_c * exp(log_pdf)` — so every frontier equals the one
    /// [`TreeView::begin_query`] builds.  Each class root counts as one
    /// block gather when this call gathered `roots`, else as one gather
    /// avoided.
    ///
    /// The loop reads each frontier's point estimate and nothing of its
    /// bounds, so every class scores through its model's estimate-only form
    /// ([`EstimateModel`]): directory nodes skip the two box log-kernels,
    /// and the estimates — hence every decision — equal the full model's
    /// bit for bit.
    ///
    /// A NaN coordinate is rejected: it would score 0 in every class, so
    /// the decision would silently fall back to the priors.  ±inf is a
    /// valid far-away query.
    fn run_anytime(&self, x: &[f64], budget: usize, record_all: bool) -> (AnytimeTrace, usize) {
        assert_eq!(x.len(), self.dims, "query dimensionality mismatch");
        assert!(
            x.iter().all(|v| !v.is_nan()),
            "query coordinates must not be NaN"
        );
        // `build_tree` builds every class tree with one shard, so each class
        // refines one frontier.
        let classes: Vec<_> = self
            .trees
            .iter()
            .map(|t| (t.core().shard(0), t.query_model()))
            .collect();
        let priors = &self.priors;
        let order: RefineOrder = self.config.descent.into();
        debug_assert!(
            order != RefineOrder::WidestBound,
            "no descent strategy maps to WidestBound, the only order that reads the bounds EstimateModel skips"
        );
        let mut gathered = false;
        let roots = self.roots.get_or_init(|| {
            gathered = true;
            RootBlock::gather(&classes)
        });
        with_scratch_cursors(classes.len(), |cursors| {
            // Pooled cursors keep counting across queries: the registry gets
            // the work done since `before`, summed over every class.
            let mut before = QueryStats::default();
            for cursor in cursors.iter() {
                before.merge(cursor.stats());
            }
            // The root pass borrows the first cursor's output lanes.
            let mut lanes = std::mem::take(cursors[0].scratch_lanes());
            let [log_pdf, dist, ..] = &mut lanes;
            node_estimates_block(x, &roots.block, log_pdf, dist);
            let weights = roots.block.weights();
            let mut scores = Vec::with_capacity(classes.len());
            let mut refinable = Vec::with_capacity(classes.len());
            for ((((_, model), (root, span)), cursor), &prior) in classes
                .iter()
                .zip(&roots.spans)
                .zip(cursors.iter_mut())
                .zip(priors)
            {
                let model = EstimateModel(*model);
                let elements = span.clone().map(|lane| {
                    let (child, origin) = roots.lanes[lane];
                    let score = model.lane_score(weights[lane], log_pdf[lane], dist[lane]);
                    (child, origin, score)
                });
                cursor.begin_scored(x, *root, gathered, elements);
                scores.push(class_score(prior, cursor));
                refinable.push(cursor.can_refine());
            }
            *cursors[0].scratch_lanes() = lanes;

            let mut scheduler = RefinementScheduler::new(self.config.refinement, classes.len());
            let mut labels = Vec::new();
            let mut posteriors = Vec::new();
            if record_all {
                normalise_into(&scores, priors, &mut posteriors);
                labels.push(argmax(&posteriors));
            }
            let mut nodes_read = 0usize;
            for _ in 0..budget {
                let Some(class) = scheduler.next_class(&scores, &refinable) else {
                    break;
                };
                // Only the refined class's frontier moved: update its entries.
                let ((view, model), cursor) = (&classes[class], &mut cursors[class]);
                view.refine_query(&EstimateModel(*model), order, cursor);
                scores[class] = class_score(priors[class], cursor);
                refinable[class] = cursor.can_refine();
                nodes_read += 1;
                if record_all {
                    normalise_into(&scores, priors, &mut posteriors);
                    labels.push(argmax(&posteriors));
                }
            }
            if !record_all {
                // Only the final decision is needed.
                normalise_into(&scores, priors, &mut posteriors);
                labels.push(argmax(&posteriors));
            }
            // One registry fold per classification.  No latency is observed,
            // so the loop never reads the clock.
            let mut after = QueryStats::default();
            for cursor in cursors.iter() {
                after.merge(cursor.stats());
            }
            bt_anytree::obs::record_external_query(&after.delta_since(&before), None);
            (
                AnytimeTrace {
                    labels,
                    final_posteriors: posteriors,
                },
                nodes_read,
            )
        })
    }
}

impl AnytimeClassifier {
    /// Trains the classifier on a labelled data set.
    ///
    /// # Panics
    ///
    /// Panics if the data set is empty or has no classes.
    #[must_use]
    pub fn train(dataset: &Dataset, config: &ClassifierConfig) -> Self {
        Self::train_sharded(dataset, config, 1)
    }

    /// Trains the classifier with up to `num_workers` per-class trees built
    /// **in parallel** on scoped threads.
    ///
    /// The per-class Bayes trees are completely independent (one tree per
    /// class, seeded deterministically per class), so training is
    /// embarrassingly parallel across classes: classes are dealt to at most
    /// `num_workers` worker threads, each of which runs the configured bulk
    /// load for its share.  The result is bit-identical to [`Self::train`]
    /// at any worker count — only the wall-clock changes.
    ///
    /// # Panics
    ///
    /// Panics if the data set is empty or has no classes.
    #[must_use]
    pub fn train_sharded(dataset: &Dataset, config: &ClassifierConfig, num_workers: usize) -> Self {
        assert!(!dataset.is_empty(), "cannot train on an empty data set");
        assert!(dataset.num_classes() > 0, "data set has no classes");
        let dims = dataset.dims();
        let geometry = config
            .geometry
            .unwrap_or_else(|| PageGeometry::default_for_dims(dims));

        let num_classes = dataset.num_classes();
        let workers = num_workers.clamp(1, num_classes);
        let chunk = num_classes.div_ceil(workers);
        let mut slots: Vec<Option<BayesTree>> = (0..num_classes).map(|_| None).collect();
        let build_class = |class: usize, slot: &mut Option<BayesTree>| {
            let points = dataset.features_of_class(class);
            *slot = Some(build_tree(
                &points,
                dims,
                geometry,
                config.bulk_load,
                config.seed.wrapping_add(class as u64),
            ));
        };
        if workers <= 1 {
            for (class, slot) in slots.iter_mut().enumerate() {
                build_class(class, slot);
            }
        } else {
            std::thread::scope(|scope| {
                for (chunk_idx, chunk_slots) in slots.chunks_mut(chunk).enumerate() {
                    let build_class = &build_class;
                    scope.spawn(move || {
                        for (offset, slot) in chunk_slots.iter_mut().enumerate() {
                            build_class(chunk_idx * chunk + offset, slot);
                        }
                    });
                }
            });
        }
        let trees: Vec<BayesTree> = slots
            .into_iter()
            .map(|slot| slot.expect("every class tree was built"))
            .collect();

        Self {
            trees,
            priors: dataset.class_priors(),
            class_names: Arc::from(dataset.class_names()),
            config: config.clone(),
            dims,
            roots: OnceLock::new(),
        }
    }

    /// Class names, indexed by label.
    #[must_use]
    pub fn class_names(&self) -> &[String] {
        &self.class_names
    }

    /// The configuration the classifier was trained with.
    #[must_use]
    pub fn config(&self) -> &ClassifierConfig {
        &self.config
    }

    /// Incrementally learns one new labelled observation (online training on
    /// the stream, Section 1).
    ///
    /// # Panics
    ///
    /// Panics if the label is out of range or the point has the wrong
    /// dimensionality or a non-finite coordinate.
    pub fn learn_one(&mut self, point: Vec<f64>, label: usize) {
        assert!(label < self.trees.len(), "label out of range");
        self.trees[label].insert(point);
        self.roots.take();
        self.refresh_priors();
    }

    /// Incrementally learns a mini-batch of labelled observations: the batch
    /// is grouped by class and each group is routed through its tree's
    /// batched descent engine ([`BayesTree::insert_batch`]), sharing summary
    /// refreshes and split handling per tree.
    ///
    /// # Panics
    ///
    /// Panics if any label is out of range or any point has the wrong
    /// dimensionality or a non-finite coordinate — checked over the whole
    /// batch before grouping, so no class tree is half-written.
    pub fn learn_batch(&mut self, batch: Vec<(Vec<f64>, usize)>) {
        assert!(
            batch.iter().all(|(_, l)| *l < self.trees.len()),
            "label out of range"
        );
        assert!(
            batch.iter().all(|(p, _)| p.len() == self.dims),
            "point dimensionality mismatch"
        );
        crate::insert::assert_finite(batch.iter().map(|(p, _)| p));
        let mut per_class: Vec<Vec<Vec<f64>>> = vec![Vec::new(); self.trees.len()];
        for (point, label) in batch {
            per_class[label].push(point);
        }
        for (tree, points) in self.trees.iter_mut().zip(per_class) {
            if !points.is_empty() {
                tree.insert_batch(points);
            }
        }
        self.roots.take();
        self.refresh_priors();
    }

    /// Refreshes the priors from the per-class observation counts.
    fn refresh_priors(&mut self) {
        let total: f64 = self.trees.iter().map(|t| t.len() as f64).sum();
        for (prior, tree) in self.priors.iter_mut().zip(&self.trees) {
            *prior = tree.len() as f64 / total;
        }
    }
}

/// Every class root's frontier elements in one column block, class after
/// class: an inner root adds one lane per entry, a leaf root one lane (the
/// summary [`TreeView::begin_query`] builds for it, origin
/// [`ElementOrigin::RootLeaf`]), an empty class none.
///
/// The block is a pure function of the class roots, so the classifier and
/// each snapshot keep one in a [`OnceLock`]: the first classification
/// gathers it and every later one scores it.  The classifier's writers
/// empty it.
#[derive(Debug, Clone)]
pub(crate) struct RootBlock {
    /// The stacked columns, one lane per root element.
    block: SummaryBlock,
    /// Per class: its root and its range of lanes.
    spans: Vec<(NodeId, Range<usize>)>,
    /// Per lane: the element's child and origin.
    lanes: Vec<(Option<NodeId>, ElementOrigin)>,
}

impl RootBlock {
    /// Gathers every class root, in class order.
    fn gather<V: TreeView<KernelSummary, Vec<f64>>>(
        classes: &[(&V, KernelQueryModel<'_>)],
    ) -> Self {
        let len = classes
            .iter()
            .map(|(view, _)| match &view.node(view.root()).kind {
                NodeKind::Inner { entries } => entries.len(),
                NodeKind::Leaf { items } => usize::from(!items.is_empty()),
            })
            .sum();
        let dims = classes.first().map_or(0, |(view, _)| view.dims());
        let mut block = SummaryBlock::new();
        block.reset(dims, len);
        block.enable_vars();
        block.enable_boxes();
        let mut spans = Vec::with_capacity(classes.len());
        let mut lanes = Vec::with_capacity(len);
        for (view, model) in classes {
            let root = view.root();
            let start = lanes.len();
            match &view.node(root).kind {
                NodeKind::Inner { entries } => {
                    for (index, entry) in entries.iter().enumerate() {
                        entry.summary.gather_into(&mut block, lanes.len(), dims);
                        let origin = ElementOrigin::Entry { node: root, index };
                        lanes.push((Some(entry.child), origin));
                    }
                }
                NodeKind::Leaf { items } if !items.is_empty() => {
                    let summary: KernelSummary = model.summarize_leaf_items(items);
                    summary.gather_into(&mut block, start, dims);
                    lanes.push((Some(root), ElementOrigin::RootLeaf));
                }
                NodeKind::Leaf { .. } => {}
            }
            spans.push((root, start..lanes.len()));
        }
        block.fill_log_vars();
        Self {
            block,
            spans,
            lanes,
        }
    }
}

/// The unnormalised posterior `P(c) * pdq(x, E_c)` of one class frontier.
fn class_score(prior: f64, cursor: &QueryCursor) -> f64 {
    prior * cursor.estimate().max(0.0)
}

/// Normalises the class scores into `out` (falling back to the priors when
/// every class density underflowed).
fn normalise_into(scores: &[f64], priors: &[f64], out: &mut Vec<f64>) {
    out.clear();
    let total: f64 = scores.iter().sum();
    if total > 0.0 {
        out.extend(scores.iter().map(|j| j / total));
    } else {
        out.extend_from_slice(priors);
    }
}

fn argmax(values: &[f64]) -> usize {
    let mut best = 0;
    let mut best_v = f64::NEG_INFINITY;
    for (i, &v) in values.iter().enumerate() {
        if v > best_v {
            best_v = v;
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use bt_data::synth::blobs::BlobConfig;

    fn easy_dataset() -> Dataset {
        BlobConfig::new(3, 4)
            .samples_per_class(80)
            .seed(11)
            .generate()
    }

    fn accuracy(classifier: &AnytimeClassifier, test: &Dataset, budget: usize) -> f64 {
        let mut correct = 0usize;
        for (x, &y) in test.iter() {
            if classifier.classify_with_budget(x, budget).label == y {
                correct += 1;
            }
        }
        correct as f64 / test.len() as f64
    }

    #[test]
    fn training_builds_one_tree_per_class() {
        let data = easy_dataset();
        let clf = AnytimeClassifier::train(&data, &ClassifierConfig::default());
        assert_eq!(clf.num_classes(), 3);
        assert_eq!(clf.trees().len(), 3);
        let total: usize = clf.trees().iter().map(BayesTree::len).sum();
        assert_eq!(total, data.len());
        let prior_sum: f64 = clf.priors().iter().sum();
        assert!((prior_sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn classification_on_separated_blobs_is_accurate() {
        let data = easy_dataset();
        let (train, test) = data.split_holdout(0.3, 1);
        let clf = AnytimeClassifier::train(&train, &ClassifierConfig::default());
        let acc = accuracy(&clf, &test, 25);
        assert!(acc > 0.9, "accuracy {acc}");
    }

    #[test]
    fn more_budget_never_breaks_the_classifier() {
        let data = easy_dataset();
        let (train, test) = data.split_holdout(0.3, 2);
        let clf = AnytimeClassifier::train(&train, &ClassifierConfig::default());
        let low = accuracy(&clf, &test, 0);
        let high = accuracy(&clf, &test, 60);
        // The anytime property: more budget should not make things much
        // worse; on this easy problem it should help or stay equal.
        assert!(high + 0.05 >= low, "low {low}, high {high}");
    }

    #[test]
    fn anytime_trace_has_one_label_per_step() {
        let data = easy_dataset();
        // A small page geometry forces deep trees so the budget is actually
        // spendable.
        let config = ClassifierConfig {
            geometry: Some(PageGeometry::from_fanout(4, 4)),
            ..ClassifierConfig::default()
        };
        let clf = AnytimeClassifier::train(&data, &config);
        let trace = clf.anytime_trace(data.feature(0), 15);
        assert_eq!(trace.labels.len(), 16);
        assert_eq!(trace.label_after(0), trace.labels[0]);
        assert_eq!(trace.label_after(100), *trace.labels.last().unwrap());
    }

    #[test]
    fn trace_stops_early_when_trees_are_exhausted() {
        // With the default 4 KiB page geometry each class fits into a single
        // leaf, so only one refinement per class is possible.
        let data = easy_dataset();
        let clf = AnytimeClassifier::train(&data, &ClassifierConfig::default());
        let trace = clf.anytime_trace(data.feature(0), 50);
        assert!(trace.labels.len() <= 1 + 3);
    }

    #[test]
    fn posteriors_are_normalised() {
        let data = easy_dataset();
        let clf = AnytimeClassifier::train(&data, &ClassifierConfig::default());
        let c = clf.classify_with_budget(data.feature(3), 10);
        let sum: f64 = c.posteriors.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
        assert_eq!(c.posteriors.len(), 3);
    }

    #[test]
    fn far_away_query_falls_back_to_priors() {
        let data = easy_dataset();
        let clf = AnytimeClassifier::train(&data, &ClassifierConfig::default());
        for far in [[1e6; 4], [f64::INFINITY, 0.0, f64::NEG_INFINITY, 0.0]] {
            let c = clf.classify_with_budget(&far, 5);
            assert_eq!(c.posteriors, clf.priors());
        }
    }

    #[test]
    #[should_panic(expected = "query coordinates must not be NaN")]
    fn nan_query_panics() {
        let data = easy_dataset();
        let clf = AnytimeClassifier::train(&data, &ClassifierConfig::default());
        let _ = clf.classify_with_budget(&[f64::NAN, 10.3, 0.0, 0.0], 4);
    }

    /// A Letter stand-in (16-d, 26 classes) split into a training set and a
    /// labelled stream, with a classifier trained on a small page geometry
    /// so the per-class trees are several levels deep.
    fn letter_stream() -> (AnytimeClassifier, Vec<(Vec<f64>, usize)>) {
        let data = bt_data::synth::letter::generate(900, 4).shuffled(4);
        let train: Vec<usize> = (0..600).collect();
        let config = ClassifierConfig {
            geometry: Some(PageGeometry::from_fanout(4, 6)),
            bulk_load: BulkLoadMethod::Hilbert,
            ..ClassifierConfig::default()
        };
        let clf = AnytimeClassifier::train(&data.subset(&train), &config);
        let stream = (600..data.len())
            .map(|i| (data.feature(i).to_vec(), data.label(i)))
            .collect();
        (clf, stream)
    }

    #[test]
    fn learn_batch_of_one_matches_learn_one() {
        let (mut one, stream) = letter_stream();
        let mut batched = one.clone();
        for (point, label) in &stream {
            one.learn_one(point.clone(), *label);
            batched.learn_batch(vec![(point.clone(), *label)]);
        }
        let bits = |v: &[f64]| v.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(one.priors()), bits(batched.priors()));
        for (x, _) in stream.iter().step_by(15) {
            for budget in [0, 3, 10, 40] {
                let (a, b) = (
                    one.anytime_trace(x, budget),
                    batched.anytime_trace(x, budget),
                );
                assert_eq!(a.labels, b.labels, "budget {budget}");
                assert_eq!(bits(&a.final_posteriors), bits(&b.final_posteriors));
            }
        }
    }

    #[test]
    fn learn_batch_grows_every_class_and_keeps_trees_valid() {
        let (mut clf, stream) = letter_stream();
        for batch in stream.chunks(64) {
            let mut expected: Vec<usize> = clf.trees().iter().map(BayesTree::len).collect();
            for (_, label) in batch {
                expected[*label] += 1;
            }
            clf.learn_batch(batch.to_vec());
            let lens: Vec<usize> = clf.trees().iter().map(BayesTree::len).collect();
            assert_eq!(lens, expected);
            for tree in clf.trees() {
                tree.validate(true).expect("tree invariants hold");
            }
            let prior_sum: f64 = clf.priors().iter().sum();
            assert!((prior_sum - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn learn_batch_rejects_out_of_range_labels() {
        let data = easy_dataset();
        let mut clf = AnytimeClassifier::train(&data, &ClassifierConfig::default());
        clf.learn_batch(vec![
            (data.feature(0).to_vec(), 0),
            (data.feature(1).to_vec(), 3),
        ]);
    }

    #[test]
    fn online_learning_updates_priors_and_trees() {
        let data = easy_dataset();
        let mut clf = AnytimeClassifier::train(&data, &ClassifierConfig::default());
        let before = clf.trees()[1].len();
        clf.learn_one(data.feature(0).to_vec(), 1);
        assert_eq!(clf.trees()[1].len(), before + 1);
        let sum: f64 = clf.priors().iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn all_bulk_loads_classify_reasonably() {
        let data = easy_dataset();
        let (train, test) = data.split_holdout(0.3, 3);
        for method in BulkLoadMethod::all() {
            let config = ClassifierConfig::with_bulk_load(method);
            let clf = AnytimeClassifier::train(&train, &config);
            let acc = accuracy(&clf, &test, 20);
            assert!(acc > 0.8, "{method:?}: accuracy {acc}");
        }
    }

    #[test]
    #[should_panic(expected = "empty data set")]
    fn training_on_empty_data_panics() {
        let empty = Dataset::new("e", 2, vec!["a".to_string()]);
        let _ = AnytimeClassifier::train(&empty, &ClassifierConfig::default());
    }
}
