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
//! copied by the first classification from the roots' own blocks with each
//! lane's `weight / n_c`, and each classification scores it with one
//! estimate pass that leaves every lane's mixture term in a buffer.  Every class's root estimate is
//! summed from that buffer, and a class frontier is built only when the
//! refinement strategy first picks that class: it is seeded from the
//! class's own terms ([`bt_anytree::QueryCursor::begin_scored`]) exactly
//! as [`TreeView::begin_query`] would have seeded it.  The block follows
//! the node cache rule one level up: the classifier's only writers
//! ([`AnytimeClassifier::learn_one`], [`AnytimeClassifier::learn_batch`])
//! empty it, and a snapshot fills its own.
//!
//! [`Classifier::classify_with_budget`] and [`Classifier::anytime_trace`]
//! are two loops over one step: pick a class, seed its frontier if this is
//! its first pick, read one node, update its score.  A classification
//! keeps its class frontiers on the thread's pooled scratch cursors
//! ([`bt_anytree::with_scratch_cursors`]) and everything else — the lane
//! buffer, class scores, flags, the scheduler and the posteriors — on one
//! pooled per-thread scratch taken and returned the same way, so a warm
//! classification allocates only the answer it returns
//! (`tests/classify_allocations.rs`).

use crate::bulk::{build_tree, BulkLoadMethod};
use crate::descent::DescentStrategy;
use crate::insert::{check_point, or_panic, InputError};
use crate::leaf::PointColumns;
use crate::node::{EntryColumns, KernelSummary};
use crate::qbk::{RefinementScheduler, RefinementStrategy};
use crate::query::{estimate_score, EstimateModel};
use crate::tree::{BayesIndex, BayesTree, BayesTreeSnapshot};
use bt_anytree::{
    frontier_sum, with_scratch_cursors, ArenaCensus, Directory, ElementOrigin, NodeId, NodeKind,
    QueryCursor, QueryModel, QueryStats, RefineOrder, ShardSet, TreeView,
};
use bt_data::Dataset;
use bt_index::PageGeometry;
use bt_stats::kernel::node_estimates_block;
use std::borrow::Cow;
use std::cell::Cell;
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
    /// The class roots' stacked block, built by the first classification
    /// since the last write.
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

impl<C: ShardSet<KernelSummary, PointColumns>> Classifier<BayesIndex<C>> {
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
    pub fn trees(&self) -> &[BayesIndex<C>] {
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
        self.run_anytime(x, |run| {
            let nodes_read = (0..budget).take_while(|_| run.step()).count();
            let posteriors = run.posteriors().to_vec();
            Classification {
                label: argmax(&posteriors),
                posteriors,
                nodes_read,
            }
        })
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
        self.run_anytime(x, |run| {
            run.record_label();
            for _ in 0..max_nodes {
                if !run.step() {
                    break;
                }
                run.record_label();
            }
            AnytimeTrace {
                labels: run.scratch.labels.to_vec(),
                final_posteriors: run.posteriors().to_vec(),
            }
        })
    }

    /// The anytime classification loop: begins a [`ClassifyRun`] on `x` and
    /// hands it to `f`, which steps it and reads its decision.  Each
    /// class's frontier lives on one of this thread's pooled scratch
    /// cursors ([`with_scratch_cursors`]) and everything else on the
    /// thread's pooled [`ClassifyScratch`], so after its first calls a
    /// classification allocates only what `f` returns.
    ///
    /// The 0-read root mixture is one pass: `roots` (stacked on first use)
    /// holds every class root's lanes, and one [`node_estimates_block`]
    /// call scores them all into the scratch's lane buffer, which then
    /// holds each lane's term `weight / n_c * exp(log_pdf)` — the score its
    /// class's model gives, computed once per lane.  A class's root
    /// estimate is the compensated sum of its lanes' terms in lane order
    /// ([`frontier_sum`]), the bits a seeded cursor would hold.  Most
    /// classes are never refined (qbk spends the budget on the top `k`), so
    /// a class cursor is seeded from its lanes' terms by
    /// [`bt_anytree::QueryCursor::begin_scored`] only when the scheduler
    /// first picks the class; every frontier then equals the one
    /// [`TreeView::begin_query`] builds.  Seeded or not, each class counts
    /// one query, its root elements as scored and, for a non-empty root,
    /// one block gather when this call stacked `roots` (copying the root's
    /// published lanes), else one gather avoided.
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
    fn run_anytime<R>(&self, x: &[f64], f: impl FnOnce(&mut ClassifyRun<'_, C>) -> R) -> R {
        assert_eq!(x.len(), self.dims, "query dimensionality mismatch");
        assert!(
            x.iter().all(|v| !v.is_nan()),
            "query coordinates must not be NaN"
        );
        let order: RefineOrder = self.config.descent.into();
        debug_assert!(
            order != RefineOrder::WidestBound,
            "no descent strategy maps to WidestBound, the only order that reads the bounds EstimateModel skips"
        );
        let mut gathered = false;
        let roots = self.roots.get_or_init(|| {
            gathered = true;
            RootBlock::stack(&self.trees)
        });
        with_scratch_cursors(self.trees.len(), |cursors| {
            with_classify_scratch(|scratch| {
                scratch.begin(x, roots, &self.priors, self.config.refinement);
                let mut run = ClassifyRun {
                    classifier: self,
                    x,
                    roots,
                    gathered,
                    order,
                    cursors,
                    scratch,
                    before: QueryStats::default(),
                };
                let result = f(&mut run);
                run.record();
                result
            })
        })
    }
}

/// One classification in flight: the class frontiers on pooled cursors,
/// the class scores and flags on the pooled [`ClassifyScratch`], and the
/// work counters of the cursors seeded so far.
struct ClassifyRun<'a, C> {
    classifier: &'a Classifier<BayesIndex<C>>,
    x: &'a [f64],
    roots: &'a RootBlock,
    /// Whether this classification stacked `roots`.
    gathered: bool,
    order: RefineOrder,
    /// One per class; a class's cursor is seeded on its first refinement.
    cursors: &'a mut [QueryCursor],
    scratch: &'a mut ClassifyScratch,
    /// The seeded cursors' counters as they stood before their seeding
    /// (pooled cursors keep counting across queries).
    before: QueryStats,
}

impl<C: ShardSet<KernelSummary, PointColumns>> ClassifyRun<'_, C> {
    /// Spends one node read on the class the scheduler picks; `false` (and
    /// nothing read) once no class is refinable.
    fn step(&mut self) -> bool {
        let scratch = &mut *self.scratch;
        let Some(class) = scratch
            .scheduler
            .next_class(&scratch.scores, &scratch.refinable)
        else {
            return false;
        };
        // `build_tree` builds every class tree with one shard, so each class
        // refines one frontier.
        let tree = &self.classifier.trees[class];
        let cursor = &mut self.cursors[class];
        if !scratch.seeded[class] {
            self.before.merge(cursor.stats());
            let (root, span) = &self.roots.spans[class];
            let weights = self.roots.block.weights();
            let elements = span.clone().map(|lane| {
                let (child, origin) = self.roots.lanes[lane];
                let score = estimate_score(weights[lane], scratch.terms[lane], scratch.dists[lane]);
                (child, origin, score)
            });
            cursor.begin_scored(self.x, *root, self.gathered, elements);
            scratch.seeded[class] = true;
        }
        let model = EstimateModel(tree.query_model());
        tree.core()
            .shard(0)
            .refine_query(&model, self.order, cursor);
        // Only the refined class's frontier moved: update its entries.
        scratch.scores[class] = class_score(self.classifier.priors[class], cursor.estimate());
        scratch.refinable[class] = cursor.can_refine();
        true
    }

    /// The normalised posteriors of the current class scores.
    fn posteriors(&mut self) -> &[f64] {
        let scratch = &mut *self.scratch;
        normalise_into(
            &scratch.scores,
            &self.classifier.priors,
            &mut scratch.posteriors,
        );
        &scratch.posteriors
    }

    /// Appends the current decision to the scratch's label trace.
    fn record_label(&mut self) {
        let label = argmax(self.posteriors());
        self.scratch.labels.push(label);
    }

    /// One registry fold per classification: the seeded cursors' work since
    /// their seeding, and the root read of every class never seeded.  No
    /// latency is observed, so the loop never reads the clock.
    fn record(&self) {
        let mut after = QueryStats::default();
        let classes = self.cursors.iter().zip(&self.roots.spans);
        for ((cursor, (root, span)), &seeded) in classes.zip(&self.scratch.seeded) {
            if seeded {
                after.merge(cursor.stats());
            } else {
                after.count_scored_root(*root, span.len(), self.gathered);
            }
        }
        bt_anytree::obs::record_external_query(&after.delta_since(&self.before), None);
    }
}

/// Everything a classification keeps besides its cursors, reused from one
/// query to the next on the same thread ([`with_classify_scratch`]).
struct ClassifyScratch {
    /// Per root lane: the log-pdf of the root pass, then the lane's term
    /// `weight / n_c * exp(log_pdf)`.
    terms: Vec<f64>,
    /// Per root lane: the squared distance to the query.
    dists: Vec<f64>,
    /// Per class: `P(c)` times the frontier's current estimate.
    scores: Vec<f64>,
    /// Per class: whether its frontier can still be refined.
    refinable: Vec<bool>,
    /// Per class: whether its cursor has been seeded.
    seeded: Vec<bool>,
    scheduler: RefinementScheduler,
    posteriors: Vec<f64>,
    /// The decisions recorded so far (an anytime trace).
    labels: Vec<usize>,
}

impl Default for ClassifyScratch {
    fn default() -> Self {
        Self {
            terms: Vec::new(),
            dists: Vec::new(),
            scores: Vec::new(),
            refinable: Vec::new(),
            seeded: Vec::new(),
            scheduler: RefinementScheduler::new(RefinementStrategy::default(), 0),
            posteriors: Vec::new(),
            labels: Vec::new(),
        }
    }
}

impl ClassifyScratch {
    /// Scores every class root on `x` in one pass over `roots` and resets
    /// the per-class state: every class at its root estimate, refinable
    /// unless its root is empty, and no cursor seeded.
    fn begin(
        &mut self,
        x: &[f64],
        roots: &RootBlock,
        priors: &[f64],
        strategy: RefinementStrategy,
    ) {
        node_estimates_block(
            x,
            roots.block.node_columns(),
            &mut self.terms,
            &mut self.dists,
        );
        for (term, &scale) in self.terms.iter_mut().zip(&roots.scales) {
            *term = scale * term.exp();
        }
        let terms = &self.terms;
        self.scores.clear();
        self.scores
            .extend((roots.spans.iter().zip(priors)).map(|((_, span), &prior)| {
                class_score(prior, frontier_sum(terms[span.clone()].iter().copied()))
            }));
        self.refinable.clear();
        self.refinable
            .extend(roots.spans.iter().map(|(_, span)| !span.is_empty()));
        self.seeded.clear();
        self.seeded.resize(priors.len(), false);
        self.scheduler.reset(strategy, priors.len());
        self.labels.clear();
    }
}

/// Runs `f` on this thread's pooled [`ClassifyScratch`].  It follows the
/// scratch cursors' rule ([`with_scratch_cursors`]): while `f` runs the
/// scratch is taken, so a nested call — or one during thread teardown —
/// works on a fresh one.
fn with_classify_scratch<R>(f: impl FnOnce(&mut ClassifyScratch) -> R) -> R {
    thread_local! {
        static SCRATCH: Cell<Option<ClassifyScratch>> = const { Cell::new(None) };
    }
    let mut scratch = SCRATCH
        .try_with(Cell::take)
        .ok()
        .flatten()
        .unwrap_or_default();
    let result = f(&mut scratch);
    let _ = SCRATCH.try_with(|slot| slot.set(Some(scratch)));
    result
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
    /// dimensionality or a non-finite coordinate ([`Self::try_learn_one`]
    /// returns the error instead).
    pub fn learn_one(&mut self, point: Vec<f64>, label: usize) {
        or_panic(self.try_learn_one(point, label));
    }

    /// Learns one labelled observation, or rejects it before any state
    /// changes.
    ///
    /// # Errors
    ///
    /// [`InputError::LabelOutOfRange`], [`InputError::Dimensionality`] or
    /// [`InputError::NonFinite`] (index `0`); the classifier is left
    /// untouched.
    pub fn try_learn_one(&mut self, point: Vec<f64>, label: usize) -> Result<(), InputError> {
        self.check_object(0, &point, label)?;
        self.trees[label].insert_checked(point);
        self.roots.take();
        self.refresh_priors();
        Ok(())
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
    /// batch before grouping, so no class tree is half-written
    /// ([`Self::try_learn_batch`] returns the error instead).
    pub fn learn_batch(&mut self, batch: Vec<(Vec<f64>, usize)>) {
        or_panic(self.try_learn_batch(batch));
    }

    /// Learns a mini-batch as [`Self::learn_batch`] does, or rejects it:
    /// the whole batch is checked in one pass before any state changes.
    ///
    /// # Errors
    ///
    /// [`InputError::LabelOutOfRange`], [`InputError::Dimensionality`] or
    /// [`InputError::NonFinite`] naming the first offending object; the
    /// classifier is left untouched.
    pub fn try_learn_batch(&mut self, batch: Vec<(Vec<f64>, usize)>) -> Result<(), InputError> {
        for (index, (point, label)) in batch.iter().enumerate() {
            self.check_object(index, point, *label)?;
        }
        let mut per_class: Vec<Vec<Vec<f64>>> = vec![Vec::new(); self.trees.len()];
        for (point, label) in batch {
            per_class[label].push(point);
        }
        for (tree, points) in self.trees.iter_mut().zip(per_class) {
            if !points.is_empty() {
                tree.insert_batch_checked(points);
            }
        }
        self.roots.take();
        self.refresh_priors();
        Ok(())
    }

    /// Checks object `index` of a write: its label, then its point.
    fn check_object(&self, index: usize, point: &[f64], label: usize) -> Result<(), InputError> {
        let classes = self.trees.len();
        if label >= classes {
            return Err(InputError::LabelOutOfRange {
                index,
                label,
                classes,
            });
        }
        check_point(index, point, self.dims)
    }

    /// The per-class trees' arena censuses, summed: node versions held,
    /// retired versions a pinned snapshot still reaches, and copies written
    /// into a recycled version so far.
    #[must_use]
    pub fn arena_census(&self) -> ArenaCensus {
        self.trees.iter().map(BayesTree::arena_census).sum()
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
/// stacks it and every later one scores it, reading every class's root
/// estimate from it and seeding a class's frontier from its span only when
/// that class is first refined.  The classifier's writers empty it.
#[derive(Debug, Clone)]
pub(crate) struct RootBlock {
    /// The stacked columns, one lane per root element: copies of each
    /// inner root's published lanes, so stacking computes no logarithm.
    block: EntryColumns,
    /// Per lane: its weight over its class's observation count, the factor
    /// of `exp(log_pdf)` in the lane's mixture term.
    scales: Vec<f64>,
    /// Per class: its root and its range of lanes.
    spans: Vec<(NodeId, Range<usize>)>,
    /// Per lane: the element's child and origin.
    lanes: Vec<(Option<NodeId>, ElementOrigin)>,
}

impl RootBlock {
    /// Stacks every class root, in class order.
    fn stack<C: ShardSet<KernelSummary, PointColumns>>(trees: &[BayesIndex<C>]) -> Self {
        let dims = trees.first().map_or(0, |tree| tree.core().dims());
        // A leaf root's lane is its summary, written once here.
        let roots: Vec<Cow<'_, EntryColumns>> = trees
            .iter()
            .map(|tree| {
                let (view, model) = (tree.core().shard(0), tree.query_model());
                let root = view.root();
                match &view.node(root).kind {
                    NodeKind::Inner { entries } => Cow::Borrowed(entries),
                    NodeKind::Leaf { items } if !items.is_empty() => {
                        let summary: KernelSummary = model.summarize_leaf_items(items);
                        Cow::Owned(EntryColumns::from_entries(vec![(summary, root)]))
                    }
                    NodeKind::Leaf { .. } => Cow::Owned(EntryColumns::default()),
                }
            })
            .collect();
        let block = EntryColumns::stacked(dims, roots.iter().map(|root| &**root));
        let mut scales = Vec::with_capacity(block.len());
        let mut spans = Vec::with_capacity(trees.len());
        let mut lanes = Vec::with_capacity(block.len());
        for (tree, entries) in trees.iter().zip(&roots) {
            let view = tree.core().shard(0);
            let root = view.root();
            let start = lanes.len();
            if view.node(root).is_leaf() {
                lanes
                    .extend((!entries.is_empty()).then_some((Some(root), ElementOrigin::RootLeaf)));
            } else {
                lanes.extend((0..entries.len()).map(|index| {
                    let origin = ElementOrigin::Entry { node: root, index };
                    (Some(entries.child(index)), origin)
                }));
            }
            let n = tree.query_model().n();
            scales.extend(
                block.weights()[start..lanes.len()]
                    .iter()
                    .map(|weight| weight / n),
            );
            spans.push((root, start..lanes.len()));
        }
        Self {
            block,
            scales,
            spans,
            lanes,
        }
    }
}

/// The unnormalised posterior `P(c) * pdq(x, E_c)` of one class frontier
/// whose density estimate is `estimate`.
fn class_score(prior: f64, estimate: f64) -> f64 {
    prior * estimate.max(0.0)
}

/// Normalises the class scores into `out` (falling back to the priors when
/// every class density underflowed, and splitting the mass equally over
/// the classes whose density overflowed to `+inf`).  Finite scores are a
/// prior-weighted mean of finite densities, so only an infinite score makes
/// the total infinite.
fn normalise_into(scores: &[f64], priors: &[f64], out: &mut Vec<f64>) {
    out.clear();
    let total: f64 = scores.iter().sum();
    if total == f64::INFINITY {
        let overflowed = scores.iter().filter(|&&j| j == f64::INFINITY).count() as f64;
        out.extend(scores.iter().map(|&j| {
            if j == f64::INFINITY {
                1.0 / overflowed
            } else {
                0.0
            }
        }));
    } else if total > 0.0 {
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
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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
    fn query_on_a_class_whose_density_overflows_takes_its_label() {
        // 200 copies of one 80-d point (class `a`) beside 200 points spread
        // over [0, 10)^80 (class `b`): at the copies, class `a`'s Gaussian
        // overflows to `+inf`, which must win rather than read as NaN or 0.
        const DIMS: usize = 80;
        let mut rng = StdRng::seed_from_u64(0xF800);
        let copy = vec![0.5; DIMS];
        let mut data = Dataset::new("overflow", DIMS, vec!["a".into(), "b".into()]);
        for _ in 0..200 {
            data.push(copy.clone(), 0);
        }
        for _ in 0..200 {
            data.push((0..DIMS).map(|_| 10.0 * rng.random::<f64>()).collect(), 1);
        }
        let config = ClassifierConfig {
            geometry: Some(PageGeometry::from_page_size(32768, DIMS)),
            ..ClassifierConfig::default()
        };
        let clf = AnytimeClassifier::train(&data, &config);
        for budget in [0, 3, 50] {
            let c = clf.classify_with_budget(&copy, budget);
            assert_eq!(c.label, 0, "budget {budget}");
            assert_eq!(c.posteriors, [1.0, 0.0], "budget {budget}");
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
