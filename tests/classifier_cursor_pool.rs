//! The anytime classifier keeps its per-class frontiers on this thread's
//! pooled scratch cursors (`bt_anytree::with_scratch_cursors`).  A pooled
//! cursor is plain scratch, so whatever earlier queries left in it — other
//! classifiers of other dims and class counts, outlier scores, k-NN
//! retrievals — a classification must answer bit-identically to:
//!
//! * the same call on a freshly spawned thread, whose pool is empty,
//! * the reference loop over fresh query cursors running the full
//!   `KernelQueryModel`, posteriors renormalised after every node read,
//! * the same call made while the pool is held (a nested call runs on
//!   fresh cursors and leaves the held ones alone).
//!
//! The classifier scores every class root in one stacked block and seeds
//! each class cursor from its lanes instead of calling `begin_query`.  The
//! reference loop still runs `begin_query`, so matching it bit for bit —
//! under every refinement and descent strategy, with a class whose root is
//! a leaf and a class with no training objects — locks the stacked path to
//! the per-root one.  Learning empties the stacked block: a classifier that
//! classified before learning answers like one that never did.

use anytime_stream_mining::anytree::{with_scratch_cursors, QueryCursor, ShardSet, TreeView};
use anytime_stream_mining::bayestree::{
    AnytimeClassifier, AnytimeTrace, BayesTree, Classification, ClassifierConfig,
    ClassifierSnapshot, DescentStrategy, KernelQueryModel, KernelSummary, RefinementScheduler,
    RefinementStrategy,
};
use anytime_stream_mining::clustree::{ClusTree, ClusTreeConfig, ClusTreeSnapshot, KnnAnswer};
use anytime_stream_mining::data::dataset::generic_class_names;
use anytime_stream_mining::data::synth::blobs::BlobConfig;
use anytime_stream_mining::data::synth::letter;
use anytime_stream_mining::data::Dataset;
use anytime_stream_mining::index::PageGeometry;

const BUDGETS: [usize; 4] = [0, 1, 6, 32];
const TRACE_NODES: usize = 32;

/// Everything one object's answers are compared on, floats as bits.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Answers {
    classifications: Vec<(usize, Vec<u64>, usize)>,
    trace: (Vec<usize>, Vec<u64>),
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

fn classification_bits(c: &Classification) -> (usize, Vec<u64>, usize) {
    (c.label, bits(&c.posteriors), c.nodes_read)
}

fn trace_bits(t: &AnytimeTrace) -> (Vec<usize>, Vec<u64>) {
    (t.labels.clone(), bits(&t.final_posteriors))
}

/// The two classifier surfaces under test.
trait Classify {
    fn classify(&self, x: &[f64], budget: usize) -> Classification;
    fn trace(&self, x: &[f64], max_nodes: usize) -> AnytimeTrace;
    /// The reference loop over fresh frontiers: `(labels after every read,
    /// final posteriors, reads)`.
    fn reference(&self, x: &[f64], budget: usize) -> (Vec<usize>, Vec<f64>, usize);
}

impl Classify for AnytimeClassifier {
    fn classify(&self, x: &[f64], budget: usize) -> Classification {
        self.classify_with_budget(x, budget)
    }

    fn trace(&self, x: &[f64], max_nodes: usize) -> AnytimeTrace {
        self.anytime_trace(x, max_nodes)
    }

    fn reference(&self, x: &[f64], budget: usize) -> (Vec<usize>, Vec<f64>, usize) {
        let frontiers = self
            .trees()
            .iter()
            .map(|t| fresh(t.shard(0), t.query_model(), x))
            .collect();
        reference_loop(frontiers, self.priors(), self.config(), budget)
    }
}

/// The snapshot with the configuration of the classifier it was taken from
/// (the snapshot freezes exactly that configuration).
#[derive(Clone)]
struct Snapshot {
    snapshot: ClassifierSnapshot,
    config: ClassifierConfig,
}

impl Classify for Snapshot {
    fn classify(&self, x: &[f64], budget: usize) -> Classification {
        self.snapshot.classify_with_budget(x, budget)
    }

    fn trace(&self, x: &[f64], max_nodes: usize) -> AnytimeTrace {
        self.snapshot.anytime_trace(x, max_nodes)
    }

    fn reference(&self, x: &[f64], budget: usize) -> (Vec<usize>, Vec<f64>, usize) {
        let frontiers = self
            .snapshot
            .trees()
            .iter()
            .map(|t| fresh(t.core().shard(0), t.query_model(), x))
            .collect();
        reference_loop(frontiers, self.snapshot.priors(), &self.config, budget)
    }
}

/// One class's fresh frontier: the view it refines, the full kernel model
/// (bounds included, unlike the classifier's estimate-only model) and a
/// cursor of its own.
type Frontier<'a, V> = (&'a V, KernelQueryModel<'a>, QueryCursor);

fn fresh<'a, V: TreeView<KernelSummary, Vec<f64>>>(
    view: &'a V,
    model: KernelQueryModel<'a>,
    x: &[f64],
) -> Frontier<'a, V> {
    let cursor = view.new_query(&model, x);
    (view, model, cursor)
}

/// The frontier's mixture density `pdq(x, E)`.
fn density<V>(frontier: &Frontier<'_, V>) -> f64 {
    frontier.2.estimate().max(0.0)
}

/// The anytime classification loop over one freshly built frontier per
/// class, recomputing every class score and the posteriors after every
/// node read.
fn reference_loop<V: TreeView<KernelSummary, Vec<f64>>>(
    mut frontiers: Vec<Frontier<'_, V>>,
    priors: &[f64],
    config: &ClassifierConfig,
    budget: usize,
) -> (Vec<usize>, Vec<f64>, usize) {
    let posteriors_of = |frontiers: &[Frontier<'_, V>]| -> Vec<f64> {
        let joint: Vec<f64> = frontiers
            .iter()
            .zip(priors)
            .map(|(f, &p)| p * density(f))
            .collect();
        let total: f64 = joint.iter().sum();
        if total > 0.0 {
            joint.iter().map(|j| j / total).collect()
        } else {
            priors.to_vec()
        }
    };
    let mut scheduler = RefinementScheduler::new(config.refinement, frontiers.len());
    let mut posteriors = posteriors_of(&frontiers);
    let mut labels = vec![argmax(&posteriors)];
    let mut reads = 0;
    for _ in 0..budget {
        let scores: Vec<f64> = frontiers
            .iter()
            .zip(priors)
            .map(|(f, &p)| p * density(f))
            .collect();
        let refinable: Vec<bool> = frontiers.iter().map(|f| f.2.can_refine()).collect();
        let Some(class) = scheduler.next_class(&scores, &refinable) else {
            break;
        };
        let (view, model, cursor) = &mut frontiers[class];
        view.refine_query(&*model, config.descent.into(), cursor);
        reads += 1;
        posteriors = posteriors_of(&frontiers);
        labels.push(argmax(&posteriors));
    }
    (labels, posteriors, reads)
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

fn answers(classifier: &impl Classify, x: &[f64]) -> Answers {
    Answers {
        classifications: BUDGETS
            .iter()
            .map(|&b| classification_bits(&classifier.classify(x, b)))
            .collect(),
        trace: trace_bits(&classifier.trace(x, TRACE_NODES)),
    }
}

/// The answers the reference loop gives for `x`.
fn reference_answers(classifier: &impl Classify, x: &[f64]) -> Answers {
    Answers {
        classifications: BUDGETS
            .iter()
            .map(|&b| {
                let (labels, posteriors, reads) = classifier.reference(x, b);
                (*labels.last().unwrap(), bits(&posteriors), reads)
            })
            .collect(),
        trace: {
            let (labels, posteriors, _) = classifier.reference(x, TRACE_NODES);
            (labels, bits(&posteriors))
        },
    }
}

/// Runs `f` on a clone of `value` on a freshly spawned thread: its cursor
/// pool starts empty.
fn on_fresh_thread<T, R>(value: &T, f: impl FnOnce(&T) -> R + Send + 'static) -> R
where
    T: Clone + Send + 'static,
    R: Send + 'static,
{
    let value = value.clone();
    std::thread::spawn(move || f(&value))
        .join()
        .expect("fresh-thread call")
}

/// A classifier and its snapshot, plus the objects classified.
struct Fixture {
    live: AnytimeClassifier,
    snapshot: Snapshot,
    objects: Vec<Vec<f64>>,
}

impl Fixture {
    fn new(data: &Dataset, fanout: usize, leaf: usize) -> Self {
        let config = ClassifierConfig {
            geometry: Some(PageGeometry::from_fanout(fanout, leaf)),
            ..ClassifierConfig::default()
        };
        let live = AnytimeClassifier::train(data, &config);
        let snapshot = Snapshot {
            snapshot: live.snapshot(),
            config,
        };
        let objects = data
            .features()
            .iter()
            .step_by(37)
            .take(5)
            .cloned()
            .collect();
        Self {
            live,
            snapshot,
            objects,
        }
    }
}

/// The other pool users the checks interleave with: a 3-d Bayes tree's
/// outlier score and a 2-d ClusTree's k-NN retrieval, live and pinned.
struct OtherQueries {
    tree: BayesTree,
    clustree: ClusTree,
    clus_snapshot: ClusTreeSnapshot,
}

impl OtherQueries {
    fn new() -> Self {
        let points: Vec<Vec<f64>> = (0..200)
            .map(|i| {
                let t = i as f64;
                vec![(t * 0.37).sin() * 3.0, (t * 0.71).cos() * 3.0, t.sqrt()]
            })
            .collect();
        let mut tree: BayesTree = BayesTree::new(3, PageGeometry::from_fanout(4, 4));
        tree.insert_batch(points);
        tree.set_bandwidth(vec![0.7, 0.7, 0.7]);
        let mut clustree = ClusTree::new(2, ClusTreeConfig::default());
        for i in 0..300 {
            let c = if i % 2 == 0 { 0.0 } else { 20.0 };
            let jitter = (i % 9) as f64 * 0.1;
            clustree.insert(&[c + jitter, c - jitter], i as f64, 10);
        }
        let clus_snapshot = clustree.snapshot();
        Self {
            tree,
            clustree,
            clus_snapshot,
        }
    }

    /// Runs one of each, so the pool's first cursors last served them.
    fn run(&self, round: usize) {
        let x = [0.2 * round as f64, -0.5, 1.0];
        let _ = self.tree.outlier_score(&x, 1e-3, 5 + round);
        let _ = self.clustree.anytime_knn(&[1.0, 1.0], 3, round % 6);
        let _ = self.clus_snapshot.anytime_knn(&[19.0, 19.0], 2, 4);
    }
}

/// Answers of one classifier surface for `x`: pooled (warm) on this
/// thread, and on a fresh thread.
fn check_object<C>(classifier: &C, x: &[f64], fresh: Answers, others: &OtherQueries, round: usize)
where
    C: Classify,
{
    others.run(round);
    let pooled = answers(classifier, x);
    assert_eq!(pooled, fresh, "pooled answers differ from a fresh thread's");
    assert_eq!(
        pooled,
        reference_answers(classifier, x),
        "pooled answers differ from the fresh-frontier reference loop"
    );
}

fn small_fixture() -> Fixture {
    let data = BlobConfig::new(3, 2)
        .samples_per_class(40)
        .seed(17)
        .generate();
    Fixture::new(&data, 4, 5)
}

fn letter_fixture() -> Fixture {
    Fixture::new(&letter::generate(26 * 16, 5), 4, 6)
}

#[test]
fn pooled_classification_matches_a_fresh_thread() {
    let small = small_fixture();
    let letter = letter_fixture();
    let others = OtherQueries::new();
    assert_eq!(small.live.num_classes(), 3);
    assert_eq!(letter.live.num_classes(), 26);
    assert_eq!(letter.live.dims(), 16);

    // Warm the pool: both class counts and the other query kinds.
    for round in 0..3 {
        let _ = answers(&letter.snapshot, &letter.objects[round]);
        others.run(round);
        let _ = answers(&small.live, &small.objects[round]);
    }

    let mut round = 0;
    for (small_x, letter_x) in small.objects.iter().zip(&letter.objects) {
        // Alternate the fixtures so the pool was last grown or used by the
        // other class count before every check.
        for (fixture, x) in [(&small, small_x), (&letter, letter_x)] {
            round += 1;
            let fresh_live = {
                let x = x.clone();
                on_fresh_thread(&fixture.live, move |c| answers(c, &x))
            };
            check_object(&fixture.live, x, fresh_live, &others, round);
            let fresh_snapshot = {
                let x = x.clone();
                on_fresh_thread(&fixture.snapshot, move |s| answers(s, &x))
            };
            check_object(&fixture.snapshot, x, fresh_snapshot, &others, round);
        }
    }
}

#[test]
fn classification_inside_a_held_pool_runs_on_fresh_cursors() {
    let letter = letter_fixture();
    let small = small_fixture();
    let x = &letter.objects[1];
    let want = answers(&letter.live, x);
    let want_small = answers(&small.snapshot, &small.objects[2]);
    with_scratch_cursors(30, |held| {
        let before: Vec<_> = held.iter().map(|c| *c.stats()).collect();
        assert_eq!(answers(&letter.live, x), want);
        assert_eq!(answers(&letter.snapshot, x), want);
        assert_eq!(answers(&small.snapshot, &small.objects[2]), want_small);
        let after: Vec<_> = held.iter().map(|c| *c.stats()).collect();
        assert_eq!(before, after, "a held pool is left alone");
    });
    // The pool is back and still answers identically.
    assert_eq!(answers(&letter.live, x), want);
}

/// One retrieved neighbour, floats as bits.
type NeighborBits = (Vec<u64>, u64, u64, u64, usize, bool);

fn knn_bits(a: &KnnAnswer) -> (usize, Vec<NeighborBits>) {
    (
        a.nodes_read,
        a.neighbors
            .iter()
            .map(|n| {
                (
                    bits(&n.center),
                    n.weight.to_bits(),
                    n.radius.to_bits(),
                    n.sq_dist.to_bits(),
                    n.depth,
                    n.refinable,
                )
            })
            .collect(),
    )
}

/// k-NN retrieval on the pooled cursor answers as on a fresh thread, for
/// the live tree and its snapshot, between classifications.
#[test]
fn pooled_knn_matches_a_fresh_thread() {
    let others = OtherQueries::new();
    let small = small_fixture();
    for budget in [0, 1, 3, 8, 40] {
        let x = [0.4 * budget as f64, 1.5];
        let _ = answers(&small.live, &small.objects[budget % 5]);
        let live = knn_bits(&others.clustree.anytime_knn(&x, 4, budget));
        let fresh_live = on_fresh_thread(&others.clustree, move |t| t.anytime_knn(&x, 4, budget));
        assert_eq!(live, knn_bits(&fresh_live));
        let snap = knn_bits(&others.clus_snapshot.anytime_knn(&x, 4, budget));
        let fresh_snap =
            on_fresh_thread(&others.clus_snapshot, move |s| s.anytime_knn(&x, 4, budget));
        assert_eq!(snap, knn_bits(&fresh_snap));
        assert_eq!(live, snap);
    }
}

/// Five 3-d classes covering every root shape: classes 0–2 are blobs deep
/// enough for many reads, class 3 holds three points (its root is a leaf)
/// and class 4 none (its root is empty).
fn mixed_roots_data() -> Dataset {
    let blobs = BlobConfig::new(3, 3)
        .samples_per_class(40)
        .seed(23)
        .generate();
    let mut data = Dataset::new("mixed-roots", 3, generic_class_names(5));
    for (x, &y) in blobs.iter() {
        data.push(x.to_vec(), y);
    }
    for i in 0..3 {
        let t = i as f64;
        data.push(vec![0.5 + 0.1 * t, -0.3 * t, 1.0 - 0.2 * t], 3);
    }
    data
}

fn mixed_roots_config(
    refinement: RefinementStrategy,
    descent: DescentStrategy,
) -> ClassifierConfig {
    ClassifierConfig {
        geometry: Some(PageGeometry::from_fanout(4, 5)),
        refinement,
        descent,
        ..ClassifierConfig::default()
    }
}

/// Objects spread over every class, plus one near the leaf-root class.
fn mixed_roots_objects(data: &Dataset) -> Vec<Vec<f64>> {
    let mut objects: Vec<Vec<f64>> = data.features().iter().step_by(19).cloned().collect();
    objects.push(vec![0.55, -0.2, 0.9]);
    objects
}

/// Live and snapshot answers equal the `begin_query` reference loop bit
/// for bit under every refinement strategy (qbk with `k` 1–3, round robin,
/// most probable) and every descent strategy, at budgets 0, 1, 6 and 32
/// and along a 32-read trace, with a leaf root and an empty root among the
/// classes.
#[test]
fn stacked_roots_match_the_reference_under_every_strategy() {
    let data = mixed_roots_data();
    let objects = mixed_roots_objects(&data);
    let refinements = [
        RefinementStrategy::Qbk { k: Some(1) },
        RefinementStrategy::Qbk { k: Some(2) },
        RefinementStrategy::Qbk { k: Some(3) },
        RefinementStrategy::RoundRobin,
        RefinementStrategy::MostProbable,
    ];
    for refinement in refinements {
        for descent in DescentStrategy::all() {
            let config = mixed_roots_config(refinement, descent);
            let live = AnytimeClassifier::train(&data, &config);
            let (leaf, empty) = (&live.trees()[3], &live.trees()[4]);
            assert_eq!((leaf.len(), leaf.shard(0).height()), (3, 1));
            assert!(empty.is_empty());
            assert!(live.trees()[..3].iter().all(|t| t.shard(0).height() > 1));
            let snapshot = Snapshot {
                snapshot: live.snapshot(),
                config,
            };
            for x in &objects {
                let what = format!("{refinement:?}, {descent:?}, x {x:?}");
                let want = reference_answers(&live, x);
                assert_eq!(answers(&live, x), want, "live: {what}");
                assert_eq!(answers(&snapshot, x), want, "snapshot: {what}");
                assert_eq!(reference_answers(&snapshot, x), want, "reference: {what}");
            }
        }
    }
}

/// The stacked root block follows the cache rule: `learn_one` and
/// `learn_batch` empty it, so a classifier that classified (and built its
/// block) before learning answers exactly like a clone that never
/// classified before the same learning.  The learning reaches the leaf
/// root and the empty root, so a stale block would answer differently.
#[test]
fn learning_empties_the_stacked_root_block() {
    let data = mixed_roots_data();
    let objects = mixed_roots_objects(&data);
    let trained = AnytimeClassifier::train(
        &data,
        &mixed_roots_config(Default::default(), Default::default()),
    );
    let stream: Vec<(Vec<f64>, usize)> = (0..12)
        .map(|i| {
            let t = i as f64 * 0.05;
            (vec![0.4 + t, -0.1 - t, 0.8 + t], 3 + i % 2)
        })
        .collect();
    let learn_one = |c: &mut AnytimeClassifier| {
        for (point, label) in &stream {
            c.learn_one(point.clone(), *label);
        }
    };
    let learn_batch = |c: &mut AnytimeClassifier| c.learn_batch(stream.clone());
    for (name, learn) in [
        ("learn_one", &learn_one as &dyn Fn(&mut AnytimeClassifier)),
        ("learn_batch", &learn_batch),
    ] {
        let mut warm = trained.clone();
        let mut cold = trained.clone();
        for x in &objects {
            let _ = answers(&warm, x);
        }
        learn(&mut warm);
        learn(&mut cold);
        assert!(
            !cold.trees()[4].is_empty(),
            "{name} reached the empty class"
        );
        for x in &objects {
            let want = answers(&cold, x);
            assert_eq!(answers(&warm, x), want, "{name}: x {x:?}");
            assert_eq!(reference_answers(&warm, x), want, "{name}: x {x:?}");
        }
    }
}
