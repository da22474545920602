//! The four workloads.  Each one is closed-loop and single-threaded: the next
//! call starts when the previous one returns.  Inputs come from the seed
//! alone; every round replays the same inputs against the same starting
//! state, so rounds are identical and their outputs must be too.
//!
//! A round is split into an untimed [`Workload::prepare`], the timed
//! [`Workload::run`] and an untimed [`Workload::verify`] that checks the
//! outputs and drops per-round state (trees, classifier clones).

use crate::harness::{median, ratio, Calls, Kind, LatencyOf, SplitMix};
use bayestree::{AnytimeClassifier, BayesTree, Classification, ClassifierConfig};
use bt_anytree::{OutlierScore, OutlierVerdict};
use bt_data::stream::DriftingStream;
use bt_data::synth::letter;
use bt_index::PageGeometry;
use bt_obs::Snapshot;
use clustree::{ClusTree, ClusTreeConfig, KnnAnswer};

/// Dimensionality of every tree (the geometry is the 4 KiB page for it).
const DIMS: usize = 16;

pub const NAMES: [&str; 4] = ["ingest", "certify", "classify", "cluster"];

// ingest: drifting streams into empty Bayes trees, 64 mini-batches each.
// Four independent streams keep one seed's split pattern from deciding the
// latency tail.
const INGEST_STREAMS: usize = 4;
const INGEST_OBJECTS: usize = 4_096;
const INGEST_BATCH: usize = 64;

// certify: outlier verdicts against static Bayes trees.  Each tree holds
// its own drifting stream, so one seed's drift directions do not decide the
// whole figure.
const CERTIFY_TREES: usize = 8;
const CERTIFY_OBJECTS: usize = 8_192;
const CERTIFY_QUERIES: usize = 2_048;
const CERTIFY_CHUNK: usize = 64;
/// Queries whose exact density is computed at set-up: they fix the
/// threshold and are checked against the bounds.
const CERTIFY_SAMPLE_EVERY: usize = 4;
/// Range of the per-query displacement scale (uniform noise of that width
/// per dimension).
const CERTIFY_NOISE: (f64, f64) = (0.25, 4.0);
/// With the threshold below, `certified_frac` still rises past this budget
/// (see `perfbench/README.md`), so the budget binds.
const CERTIFY_BUDGET: usize = 48;
/// Threshold as a multiple of the median exact density of the sample.
const CERTIFY_THRESHOLD_FACTOR: f64 = 0.1;

// classify: prequential anytime classification on the Letter stand-in.
const CLASSIFY_TRAIN: usize = 4_000;
const CLASSIFY_STREAM: usize = 1_024;
const CLASSIFY_BATCH: usize = 64;
/// On the rising part of the accuracy curve (see `perfbench/README.md`).
const CLASSIFY_BUDGET: usize = 6;

// cluster: budgeted ClusTree insertion with decay plus k-NN probes.
const CLUSTER_OBJECTS: usize = 8_192;
const CLUSTER_BATCH: usize = 64;
/// The stream speed cycles: batch `t` may spend `1 + t % CLUSTER_BUDGET`
/// node reads per object, so fast phases park objects and slow phases let
/// later objects carry them down as hitchhikers.
const CLUSTER_BUDGET: usize = 4;
/// Decay rate per batch timestamp (weights halve every 100 batches).
const CLUSTER_DECAY: f64 = 0.01;
const KNN_PER_BATCH: usize = 4;
const KNN_K: usize = 5;
const KNN_BUDGET: usize = 8;

/// The anytime settings a workload is calibrated on.
#[derive(Debug, Clone, Copy)]
pub struct Knobs {
    /// Node reads per query (`certify`, `classify`), or the length of the
    /// per-object budget cycle (`cluster`).
    pub budget: usize,
    /// `certify` only: the outlier threshold as a multiple of the median
    /// exact density.
    pub threshold_factor: f64,
}

impl Knobs {
    pub fn default_for(name: &str) -> Self {
        let budget = match name {
            "certify" => CERTIFY_BUDGET,
            "classify" => CLASSIFY_BUDGET,
            "cluster" => CLUSTER_BUDGET,
            _ => usize::MAX,
        };
        Self {
            budget,
            threshold_factor: CERTIFY_THRESHOLD_FACTOR,
        }
    }
}

/// What one round did, gathered outside the timed region.
#[derive(Debug, Default, Clone, Copy)]
pub struct RoundReport {
    /// Operations completed (the unit of `ops_per_s`).
    pub ops: u64,
    /// Operations whose outputs were checked, and how many failed.
    pub checked: u64,
    pub failed: u64,
    /// The workload's answer quality at its fixed budget.
    pub quality: f64,
    /// Queries answered and the node reads they reported.
    pub queries: u64,
    pub query_nodes_read: u64,
    /// Mini-batch steps, snapshot pins and copy-on-write node copies.
    pub batches: u64,
    pub pins: u64,
    pub cow_copies: u64,
    /// Nodes of the structure at the end of the round.
    pub nodes: u64,
}

pub trait Workload {
    /// What the quality figure measures on this workload.
    fn quality_name(&self) -> &'static str;
    /// The interval one latency sample covers.
    fn latency_of(&self) -> LatencyOf;
    /// Untimed: creates the round's starting state.
    fn prepare(&mut self);
    /// Timed: one round, every library call made through `calls`.
    fn run(&mut self, calls: &mut Calls);
    /// Untimed: checks the round's outputs and drops its state; `delta` is
    /// the metrics registry's change over the round.
    fn verify(&mut self, delta: &Snapshot) -> RoundReport;
    /// Untimed, once per run: exact checks too slow to repeat every round.
    /// Returns `(checked, failed)`.
    fn final_check(&self) -> (u64, u64) {
        (0, 0)
    }
}

/// Builds workload `name` from `seed`; `None` for an unknown name.
pub fn setup(name: &str, seed: u64, knobs: Knobs) -> Option<Box<dyn Workload>> {
    Some(match name {
        "ingest" => Box::new(Ingest::new(seed)),
        "certify" => Box::new(Certify::new(seed, knobs)),
        "classify" => Box::new(Classify::new(seed, knobs)),
        "cluster" => Box::new(Cluster::new(seed, knobs)),
        _ => return None,
    })
}

fn drifting_points(count: usize, seed: u64) -> Vec<Vec<f64>> {
    DriftingStream::new(4, DIMS, 0.3, 0.002, seed)
        .generate(count)
        .into_iter()
        .map(|(p, _)| p)
        .collect()
}

fn empty_bayes_tree() -> BayesTree {
    BayesTree::new(DIMS, BayesTree::<f64>::paged_geometry(DIMS))
}

/// `ingest`: mini-batches of drifting streams, each into its own empty
/// Bayes tree.
struct Ingest {
    /// Per stream, its mini-batches.
    streams: Vec<Vec<Vec<Vec<f64>>>>,
    trees: Vec<BayesTree>,
}

impl Ingest {
    fn new(seed: u64) -> Self {
        let streams = (0..INGEST_STREAMS)
            .map(|k| {
                let stream_seed = seed
                    .wrapping_mul(INGEST_STREAMS as u64)
                    .wrapping_add(k as u64);
                drifting_points(INGEST_OBJECTS, stream_seed)
                    .chunks(INGEST_BATCH)
                    .map(<[_]>::to_vec)
                    .collect()
            })
            .collect();
        Self {
            streams,
            trees: Vec::new(),
        }
    }
}

impl Workload for Ingest {
    fn quality_name(&self) -> &'static str {
        "leaf_frac"
    }

    fn latency_of(&self) -> LatencyOf {
        LatencyOf::Call(Kind::Descent)
    }

    fn prepare(&mut self) {
        self.trees = (0..INGEST_STREAMS).map(|_| empty_bayes_tree()).collect();
    }

    fn run(&mut self, calls: &mut Calls) {
        for (tree, batches) in self.trees.iter_mut().zip(&self.streams) {
            for batch in batches {
                calls.batch(|c| {
                    let owned = batch.clone();
                    c.call(Kind::Descent, || tree.insert_batch(owned));
                });
            }
        }
    }

    fn verify(&mut self, delta: &Snapshot) -> RoundReport {
        let trees = std::mem::take(&mut self.trees);
        let ops = (INGEST_STREAMS * INGEST_OBJECTS) as u64;
        let ok = trees
            .iter()
            .all(|t| t.len() == INGEST_OBJECTS && t.validate(true).is_ok());
        RoundReport {
            ops,
            checked: ops,
            failed: if ok { 0 } else { ops },
            quality: ratio(
                delta.counter("bt_insert_reached_leaf_total") as f64,
                delta.counter("bt_insert_objects_total"),
            ),
            batches: self.streams.iter().map(|b| b.len() as u64).sum(),
            nodes: trees.iter().map(|t| t.num_nodes() as u64).sum(),
            ..RoundReport::default()
        }
    }
}

/// `certify`: anytime outlier verdicts at a fixed budget and threshold
/// against static trees built at set-up.
struct Certify {
    trees: Vec<BayesTree>,
    /// In the order a round answers them.
    queries: Vec<CertifyQuery>,
    budget: usize,
    /// `(query index, exact density)` of the sampled queries.
    exact: Vec<(usize, f64)>,
    scores: Vec<OutlierScore>,
    reference: Vec<OutlierScore>,
}

struct CertifyQuery {
    tree: usize,
    point: Vec<f64>,
    threshold: f64,
}

impl Certify {
    fn new(seed: u64, knobs: Knobs) -> Self {
        let per_tree = CERTIFY_QUERIES / CERTIFY_TREES;
        let mut trees = Vec::with_capacity(CERTIFY_TREES);
        let mut queries = Vec::with_capacity(CERTIFY_QUERIES);
        let mut exact = Vec::new();
        let mut rng = SplitMix(seed ^ 0x00c0_ffee);
        for t in 0..CERTIFY_TREES {
            let stream_seed = seed
                .wrapping_mul(CERTIFY_TREES as u64)
                .wrapping_add(t as u64);
            let points = drifting_points(CERTIFY_OBJECTS, stream_seed);
            let mut tree = empty_bayes_tree();
            for chunk in points.chunks(INGEST_BATCH) {
                tree.insert_batch(chunk.to_vec());
            }
            // Queries are stored points displaced by a log-uniform scale, so
            // their densities span inliers, borderline cases and outliers.
            let first = queries.len();
            for i in 0..per_tree {
                let mut point = points[(i * 13) % points.len()].clone();
                let scale =
                    CERTIFY_NOISE.0 * (CERTIFY_NOISE.1 / CERTIFY_NOISE.0).powf(rng.next_f64());
                for v in &mut point {
                    *v += scale * (rng.next_f64() - 0.5);
                }
                queries.push(CertifyQuery {
                    tree: t,
                    point,
                    threshold: 0.0,
                });
            }
            let sample: Vec<(usize, f64)> = (first..queries.len())
                .step_by(CERTIFY_SAMPLE_EVERY)
                .map(|i| (i, tree.full_kernel_density(&queries[i].point)))
                .collect();
            let densities: Vec<f64> = sample.iter().map(|&(_, d)| d).collect();
            let threshold = knobs.threshold_factor * median(&densities);
            for q in &mut queries[first..] {
                q.threshold = threshold;
            }
            exact.extend(sample);
            trees.push(tree);
        }
        Self {
            trees,
            queries,
            budget: knobs.budget,
            exact,
            scores: Vec::with_capacity(CERTIFY_QUERIES),
            reference: Vec::new(),
        }
    }
}

impl Workload for Certify {
    fn quality_name(&self) -> &'static str {
        "certified_frac"
    }

    fn latency_of(&self) -> LatencyOf {
        LatencyOf::Call(Kind::Query)
    }

    fn prepare(&mut self) {
        self.scores.clear();
    }

    fn run(&mut self, calls: &mut Calls) {
        let (trees, budget, scores) = (&self.trees, self.budget, &mut self.scores);
        for chunk in self.queries.chunks(CERTIFY_CHUNK) {
            calls.batch(|c| {
                for q in chunk {
                    let tree = &trees[q.tree];
                    scores.push(c.call(Kind::Query, || {
                        tree.outlier_score(&q.point, q.threshold, budget)
                    }));
                }
            });
        }
    }

    fn verify(&mut self, _delta: &Snapshot) -> RoundReport {
        if self.reference.is_empty() {
            self.reference = self.scores.clone();
        }
        let mut failed = 0;
        let mut certified = 0;
        let mut nodes_read = 0;
        for ((score, reference), q) in self.scores.iter().zip(&self.reference).zip(&self.queries) {
            let a = &score.answer;
            let sane = a.lower.is_finite()
                && a.upper.is_finite()
                && a.lower <= a.upper
                && score.verdict == a.verdict(q.threshold);
            if !sane || score != reference {
                failed += 1;
            }
            if score.verdict != OutlierVerdict::Undecided {
                certified += 1;
            }
            nodes_read += a.nodes_read as u64;
        }
        let ops = CERTIFY_QUERIES as u64;
        let answered = self.scores.len() as u64;
        RoundReport {
            ops,
            checked: ops,
            failed: failed + ops - answered.min(ops),
            quality: ratio(certified as f64, ops),
            queries: answered,
            query_nodes_read: nodes_read,
            batches: CERTIFY_QUERIES.div_ceil(CERTIFY_CHUNK) as u64,
            nodes: self.trees.iter().map(|t| t.num_nodes() as u64).sum(),
            ..RoundReport::default()
        }
    }

    /// The exact density must lie inside the certified bounds, and every
    /// certain verdict must agree with the exact comparison.
    fn final_check(&self) -> (u64, u64) {
        let failed = self
            .exact
            .iter()
            .filter(|&&(i, exact)| {
                let (score, threshold) = (&self.reference[i], self.queries[i].threshold);
                let slack = 1e-9 * exact.abs();
                let enclosed =
                    score.answer.lower <= exact + slack && exact - slack <= score.answer.upper;
                let agrees = match score.verdict {
                    OutlierVerdict::Outlier => exact < threshold,
                    OutlierVerdict::Inlier => exact > threshold,
                    OutlierVerdict::Undecided => true,
                };
                !(enclosed && agrees)
            })
            .count();
        (self.exact.len() as u64, failed as u64)
    }
}

/// `classify`: prequential anytime classification.  Per mini-batch: pin a
/// snapshot, learn the batch while the pin is held (so writes pay
/// copy-on-write), classify the batch against the pinned snapshot, release
/// the pin.
struct Classify {
    trained: AnytimeClassifier,
    live: Option<AnytimeClassifier>,
    batches: Vec<Vec<(Vec<f64>, usize)>>,
    budget: usize,
    retired_before: u64,
    results: Vec<Classification>,
    reference: Vec<Classification>,
}

fn retired_nodes(classifier: &AnytimeClassifier) -> u64 {
    classifier
        .trees()
        .iter()
        .map(BayesTree::retired_nodes)
        .sum()
}

impl Classify {
    fn new(seed: u64, knobs: Knobs) -> Self {
        let data = letter::generate(CLASSIFY_TRAIN + CLASSIFY_STREAM, seed).shuffled(seed);
        let train_indices: Vec<usize> = (0..CLASSIFY_TRAIN).collect();
        let config = ClassifierConfig {
            geometry: Some(BayesTree::<f64>::paged_geometry(DIMS)),
            ..ClassifierConfig::default()
        };
        let trained = AnytimeClassifier::train(&data.subset(&train_indices), &config);
        let stream: Vec<(Vec<f64>, usize)> = (CLASSIFY_TRAIN..data.len())
            .map(|i| (data.feature(i).to_vec(), data.label(i)))
            .collect();
        Self {
            trained,
            live: None,
            batches: stream.chunks(CLASSIFY_BATCH).map(<[_]>::to_vec).collect(),
            budget: knobs.budget,
            retired_before: 0,
            results: Vec::with_capacity(CLASSIFY_STREAM),
            reference: Vec::new(),
        }
    }
}

impl Workload for Classify {
    fn quality_name(&self) -> &'static str {
        "accuracy"
    }

    fn latency_of(&self) -> LatencyOf {
        LatencyOf::Call(Kind::Query)
    }

    fn prepare(&mut self) {
        let live = self.trained.clone();
        self.retired_before = retired_nodes(&live);
        self.live = Some(live);
        self.results.clear();
    }

    fn run(&mut self, calls: &mut Calls) {
        let live = self.live.as_mut().expect("round prepared");
        let (budget, results) = (self.budget, &mut self.results);
        for batch in &self.batches {
            calls.batch(|c| {
                let snapshot = c.call(Kind::Snapshot, || live.snapshot());
                let owned = batch.clone();
                c.call(Kind::Descent, || live.learn_batch(owned));
                for (x, _) in batch {
                    results.push(c.call(Kind::Query, || snapshot.classify_with_budget(x, budget)));
                }
                c.call(Kind::Snapshot, || drop(snapshot));
            });
        }
    }

    fn verify(&mut self, _delta: &Snapshot) -> RoundReport {
        let live = self.live.take().expect("round prepared");
        if self.reference.is_empty() {
            self.reference = self.results.clone();
        }
        let classes = live.num_classes();
        let labels = self.batches.iter().flatten().map(|&(_, label)| label);
        let mut failed = 0;
        let mut correct = 0;
        let mut nodes_read = 0;
        for ((result, reference), label) in self.results.iter().zip(&self.reference).zip(labels) {
            let sane = result.label < classes
                && result.posteriors.len() == classes
                && result.posteriors.iter().all(|p| p.is_finite() && *p >= 0.0);
            if !sane || result != reference {
                failed += 1;
            }
            if result.label == label {
                correct += 1;
            }
            nodes_read += result.nodes_read as u64;
        }
        let ops = CLASSIFY_STREAM as u64;
        let answered = self.results.len() as u64;
        let batches = self.batches.len() as u64;
        RoundReport {
            ops,
            checked: ops,
            failed: failed + ops - answered.min(ops),
            quality: ratio(correct as f64, ops),
            queries: answered,
            query_nodes_read: nodes_read,
            batches,
            pins: batches,
            cow_copies: retired_nodes(&live) - self.retired_before,
            nodes: live.trees().iter().map(|t| t.num_nodes() as u64).sum(),
        }
    }
}

/// `cluster`: budgeted ClusTree insertion with decay into a fresh tree,
/// each mini-batch followed by a few anytime k-NN probes.
struct Cluster {
    batches: Vec<Vec<Vec<f64>>>,
    config: ClusTreeConfig,
    budget: usize,
    tree: Option<ClusTree>,
    reached_leaf: u64,
    answers: Vec<KnnAnswer>,
    reference: Vec<Vec<(u64, u64)>>,
}

/// The bit patterns of a k-NN answer's distances and weights.
fn knn_fingerprint(answer: &KnnAnswer) -> Vec<(u64, u64)> {
    answer
        .neighbors
        .iter()
        .map(|n| (n.sq_dist.to_bits(), n.weight.to_bits()))
        .collect()
}

impl Cluster {
    fn new(seed: u64, knobs: Knobs) -> Self {
        let points = drifting_points(CLUSTER_OBJECTS, seed);
        let page = PageGeometry::default_for_dims(DIMS);
        Self {
            batches: points.chunks(CLUSTER_BATCH).map(<[_]>::to_vec).collect(),
            config: ClusTreeConfig {
                max_entries: page.max_fanout,
                min_entries: page.min_fanout,
                decay_lambda: CLUSTER_DECAY,
                ..ClusTreeConfig::default()
            },
            budget: knobs.budget,
            tree: None,
            reached_leaf: 0,
            answers: Vec::new(),
            reference: Vec::new(),
        }
    }
}

impl Workload for Cluster {
    fn quality_name(&self) -> &'static str {
        "leaf_frac"
    }

    fn latency_of(&self) -> LatencyOf {
        LatencyOf::Batch
    }

    fn prepare(&mut self) {
        self.tree = Some(ClusTree::new(DIMS, self.config.clone()));
        self.reached_leaf = 0;
        self.answers.clear();
    }

    fn run(&mut self, calls: &mut Calls) {
        let tree = self.tree.as_mut().expect("round prepared");
        let (budget, reached_leaf, answers) =
            (self.budget, &mut self.reached_leaf, &mut self.answers);
        for (t, batch) in self.batches.iter().enumerate() {
            calls.batch(|c| {
                let budget = 1 + t % budget;
                let outcome = c.call(Kind::Descent, || tree.insert_batch(batch, t as f64, budget));
                *reached_leaf += outcome.depths.reached_leaf as u64;
                // Probe where the stream currently is.
                for probe in batch.iter().step_by(CLUSTER_BATCH / KNN_PER_BATCH) {
                    answers
                        .push(c.call(Kind::Query, || tree.anytime_knn(probe, KNN_K, KNN_BUDGET)));
                }
            });
        }
    }

    fn verify(&mut self, _delta: &Snapshot) -> RoundReport {
        let tree = self.tree.take().expect("round prepared");
        let objects = CLUSTER_OBJECTS as u64;
        let weight = tree.total_weight();
        let tree_ok = tree.len() == CLUSTER_OBJECTS
            && tree.validate().is_ok()
            && weight > 0.0
            && weight <= CLUSTER_OBJECTS as f64 * (1.0 + 1e-9);
        let fingerprints: Vec<Vec<(u64, u64)>> = self.answers.iter().map(knn_fingerprint).collect();
        if self.reference.is_empty() {
            self.reference = fingerprints.clone();
        }
        let knn_failed = self
            .answers
            .iter()
            .zip(fingerprints.iter().zip(&self.reference))
            .filter(|(answer, (now, then))| {
                let sane = !answer.neighbors.is_empty()
                    && answer.neighbors.len() <= KNN_K
                    && answer
                        .neighbors
                        .iter()
                        .all(|n| n.sq_dist.is_finite() && n.weight > 0.0);
                !sane || now != then
            })
            .count() as u64;
        let probes = self.batches.len() as u64 * KNN_PER_BATCH as u64;
        let answered = self.answers.len() as u64;
        RoundReport {
            ops: objects,
            checked: objects + probes,
            failed: if tree_ok { 0 } else { objects } + knn_failed + probes - answered.min(probes),
            quality: ratio(self.reached_leaf as f64, objects),
            queries: answered,
            query_nodes_read: self.answers.iter().map(|a| a.nodes_read as u64).sum(),
            batches: self.batches.len() as u64,
            nodes: tree.num_nodes() as u64,
            ..RoundReport::default()
        }
    }
}
