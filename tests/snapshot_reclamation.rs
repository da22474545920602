//! Reclamation of retired node versions, through the public API.
//!
//! A write to a node a snapshot still reaches retires the node's version
//! to a copy.  Once the last pin reaching a retired version is released,
//! the arena's next batch writes a copy into it or frees it.  Locked down
//! here:
//!
//! * **soak**: the stream classifier's write pattern — each batch pins a
//!   snapshot, writes under the pin, reads once on the snapshot and
//!   releases it — keeps every arena's versions within its live nodes plus
//!   the copies of the last two batches, with nothing held by a pin after
//!   the release, and recycles most copies (a 16-d Bayes tree and the
//!   Letter-stand-in classifier),
//! * **long-held pin**: a snapshot held across 50 recycling batches reads
//!   the same bits before and after (Bayes density and outlier scores,
//!   classifications, ClusTree density, outlier scores and k-NN), and its
//!   versions become recyclable once it is released,
//! * **clones**: a cloned tree keeps its bits while the original recycles
//!   and vice versa, and neither keeps a version the other holds,
//! * **recycling is invisible**: a tree written under pins, whose copies
//!   reuse spare versions, answers bit for bit like the same tree written
//!   without pins (Bayes trees and ClusTree),
//! * **concurrent readers**: `pipelined_batch` readers on other threads
//!   answer the pre-batch reference while the writer recycles.

use anytime_stream_mining::anytree::{ArenaCensus, RefineOrder};
use anytime_stream_mining::bayestree::{
    AnytimeClassifier, BayesTree, BayesTreeSnapshot, ClassifierConfig, ClassifierSnapshot,
    DescentStrategy,
};
use anytime_stream_mining::clustree::{ClusTree, ClusTreeConfig, ClusTreeSnapshot};
use anytime_stream_mining::data::stream::DriftingStream;
use anytime_stream_mining::data::synth::letter;
use anytime_stream_mining::index::PageGeometry;

const DIMS: usize = 16;
const BATCH: usize = 64;

fn drifting(n: usize, dims: usize, seed: u64) -> Vec<Vec<f64>> {
    DriftingStream::new(4, dims, 0.3, 0.002, seed)
        .generate(n)
        .into_iter()
        .map(|(p, _)| p)
        .collect()
}

fn bayes_tree(points: &[Vec<f64>]) -> BayesTree {
    let mut tree: BayesTree = BayesTree::new(DIMS, BayesTree::<f64>::paged_geometry(DIMS));
    for chunk in points.chunks(BATCH) {
        tree.insert_batch(chunk.to_vec());
    }
    tree
}

/// Tracks the copy counts of the last two pinned batches and checks the
/// census after each release.
struct SoakCheck {
    /// Node ids no root reaches (bulk loading leaves some behind); each
    /// still holds its one version.
    orphans: usize,
    retired: u64,
    copies: [u64; 2],
    total_copies: u64,
}

impl SoakCheck {
    /// Starts from a tree that has never been pinned, so every version it
    /// holds is the current version of a node id.
    fn new(retired: u64, reachable: usize, census: ArenaCensus) -> Self {
        assert_eq!(census.versions_held_by_pins, 0);
        Self {
            orphans: census.versions_live - reachable,
            retired,
            copies: [0, 0],
            total_copies: 0,
        }
    }

    /// Checks the census taken right after a batch's pin was released.
    fn after_release(&mut self, retired: u64, reachable: usize, census: ArenaCensus, batch: usize) {
        let copies = retired - self.retired;
        self.retired = retired;
        self.copies = [self.copies[1], copies];
        self.total_copies += copies;
        assert_eq!(
            census.versions_held_by_pins, 0,
            "batch {batch}: no pin is held after the release"
        );
        let live_nodes = reachable + self.orphans;
        let bound = live_nodes as u64 + self.copies[0] + self.copies[1];
        assert!(
            census.versions_live as u64 <= bound,
            "batch {batch}: {} versions held, more than {live_nodes} live nodes plus the last \
             two batches' {:?} copies",
            census.versions_live,
            self.copies
        );
    }

    /// Checks that most copies of the soak wrote into a recycled version
    /// (a batch that copies more than the one before allocates the
    /// difference).
    fn recycled_most(&self, census: ArenaCensus) {
        assert!(self.total_copies > 0, "the pinned writes copied nodes");
        assert!(
            census.versions_recycled * 10 >= self.total_copies * 7,
            "only {} of {} copies recycled a version",
            census.versions_recycled,
            self.total_copies
        );
    }
}

#[test]
fn bayes_soak_gives_back_what_released_pins_retired() {
    const BUILD: usize = 4_000;
    const BATCHES: usize = 1_000;
    let stream = drifting(BUILD + BATCHES * BATCH, DIMS, 31);
    let mut tree = bayes_tree(&stream[..BUILD]);
    let mut check = SoakCheck::new(tree.retired_nodes(), tree.num_nodes(), tree.arena_census());
    for (k, batch) in stream[BUILD..].chunks(BATCH).enumerate() {
        let snapshot = tree.snapshot();
        tree.insert_batch(batch.to_vec());
        let answer = snapshot.anytime_density(&batch[0], DescentStrategy::default(), 4);
        assert!(answer.estimate.is_finite());
        drop(snapshot);
        check.after_release(
            tree.retired_nodes(),
            tree.num_nodes(),
            tree.arena_census(),
            k,
        );
    }
    check.recycled_most(tree.arena_census());
}

fn letter_classifier(seed: u64) -> (AnytimeClassifier, Vec<(Vec<f64>, usize)>) {
    const TRAIN: usize = 2_000;
    const STREAM: usize = 300 * BATCH;
    let data = letter::generate(TRAIN + STREAM, seed).shuffled(seed);
    let train: Vec<usize> = (0..TRAIN).collect();
    let config = ClassifierConfig {
        geometry: Some(BayesTree::<f64>::paged_geometry(DIMS)),
        ..ClassifierConfig::default()
    };
    let classifier = AnytimeClassifier::train(&data.subset(&train), &config);
    let stream = (TRAIN..data.len())
        .map(|i| (data.feature(i).to_vec(), data.label(i)))
        .collect();
    (classifier, stream)
}

fn live_nodes(classifier: &AnytimeClassifier) -> usize {
    classifier.trees().iter().map(BayesTree::num_nodes).sum()
}

fn retired(classifier: &AnytimeClassifier) -> u64 {
    classifier
        .trees()
        .iter()
        .map(BayesTree::retired_nodes)
        .sum()
}

#[test]
fn classifier_soak_gives_back_what_released_pins_retired() {
    let (mut classifier, stream) = letter_classifier(7);
    let mut check = SoakCheck::new(
        retired(&classifier),
        live_nodes(&classifier),
        classifier.arena_census(),
    );
    for (k, batch) in stream.chunks(BATCH).enumerate() {
        let snapshot = classifier.snapshot();
        classifier.learn_batch(batch.to_vec());
        let answer = snapshot.classify_with_budget(&batch[0].0, 6);
        assert!(answer.label < classifier.num_classes());
        drop(snapshot);
        // Each class tree keeps its own spares, so the bound sums over
        // the trees: live nodes plus the last two batches' copies.
        check.after_release(
            retired(&classifier),
            live_nodes(&classifier),
            classifier.arena_census(),
            k,
        );
    }
    check.recycled_most(classifier.arena_census());
}

/// The bits of a float slice.
fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

fn bayes_bits(snapshot: &BayesTreeSnapshot, queries: &[Vec<f64>]) -> Vec<u64> {
    let mut out = Vec::new();
    for q in queries {
        for budget in [0, 3, 12, usize::MAX] {
            let a = snapshot.anytime_density(q, DescentStrategy::default(), budget);
            out.extend(bits(&[a.estimate, a.lower, a.upper]));
            out.push(a.nodes_read as u64);
            let s = snapshot.outlier_score(q, 1e-3, budget);
            out.extend(bits(&[s.answer.estimate, s.answer.lower, s.answer.upper]));
            out.push(s.verdict as u64);
        }
    }
    out
}

fn classifier_bits(snapshot: &ClassifierSnapshot, queries: &[Vec<f64>]) -> Vec<u64> {
    let mut out = Vec::new();
    for q in queries {
        for budget in [0, 6, 40] {
            let c = snapshot.classify_with_budget(q, budget);
            out.extend([c.label as u64, c.nodes_read as u64]);
            out.extend(bits(&c.posteriors));
        }
    }
    out
}

fn clustree_bits(snapshot: &ClusTreeSnapshot, queries: &[Vec<f64>]) -> Vec<u64> {
    let bandwidth = [0.6, 0.6, 0.6];
    let mut out = Vec::new();
    for q in queries {
        for budget in [0, 4, usize::MAX] {
            let a = snapshot.anytime_density(q, &bandwidth, RefineOrder::BestFirst, budget);
            out.extend(bits(&[a.estimate, a.lower, a.upper]));
            let s = snapshot.outlier_score(q, &bandwidth, 0.01, budget);
            out.extend(bits(&[s.answer.estimate, s.answer.lower, s.answer.upper]));
            let knn = snapshot.anytime_knn(q, 3, budget);
            for n in &knn.neighbors {
                out.extend(bits(&n.center));
                out.extend(bits(&[n.weight, n.sq_dist]));
            }
        }
    }
    out
}

/// The long-held pin's checks: recycling went on during the hold, the
/// pinned versions were held throughout, and once released they were
/// recycled or freed by the next batch.
fn check_long_hold(during: ArenaCensus, after_release: ArenaCensus) {
    assert!(
        during.versions_recycled > 0,
        "batches recycle while the long pin is held"
    );
    assert!(
        during.versions_held_by_pins > 0,
        "the long pin holds retired versions"
    );
    assert_eq!(after_release.versions_held_by_pins, 0);
    assert!(
        after_release.versions_live < during.versions_live,
        "the released pin's versions are given back: {} versions held during the hold, {} after",
        during.versions_live,
        after_release.versions_live
    );
}

#[test]
fn a_long_held_pin_keeps_its_bits_while_bayes_batches_recycle() {
    let stream = drifting(2_000 + 50 * BATCH, DIMS, 11);
    let mut tree = bayes_tree(&stream[..2_000]);
    let queries: Vec<Vec<f64>> = stream.iter().step_by(700).take(3).cloned().collect();
    let held = tree.snapshot();
    let before = bayes_bits(&held, &queries);
    for batch in stream[2_000..].chunks(BATCH) {
        let short = tree.snapshot();
        tree.insert_batch(batch.to_vec());
        drop(short);
    }
    assert_eq!(bayes_bits(&held, &queries), before);
    let during = tree.arena_census();
    drop(held);
    let short = tree.snapshot();
    tree.insert_batch(stream[..BATCH].to_vec());
    drop(short);
    check_long_hold(during, tree.arena_census());
}

#[test]
fn a_long_held_pin_keeps_its_bits_while_classifier_batches_recycle() {
    let (mut classifier, stream) = letter_classifier(3);
    let queries: Vec<Vec<f64>> = stream
        .iter()
        .step_by(997)
        .take(4)
        .map(|s| s.0.clone())
        .collect();
    let held = classifier.snapshot();
    let before = classifier_bits(&held, &queries);
    for batch in stream.chunks(BATCH).take(50) {
        let short = classifier.snapshot();
        classifier.learn_batch(batch.to_vec());
        drop(short);
    }
    assert_eq!(classifier_bits(&held, &queries), before);
    let during = classifier.arena_census();
    drop(held);
    // A tree reclaims when it starts a batch: in eight more batches every
    // class receives objects.
    for batch in stream.chunks(BATCH).skip(50).take(8) {
        let short = classifier.snapshot();
        classifier.learn_batch(batch.to_vec());
        drop(short);
    }
    check_long_hold(during, classifier.arena_census());
}

#[test]
fn a_long_held_pin_keeps_its_bits_while_clustree_batches_recycle() {
    let stream = drifting(1_500 + 50 * BATCH, 3, 5);
    let config = ClusTreeConfig {
        decay_lambda: 0.01,
        ..ClusTreeConfig::default()
    };
    let mut tree = ClusTree::new(3, config);
    for (i, chunk) in stream[..1_500].chunks(BATCH).enumerate() {
        let _ = tree.insert_batch(chunk, i as f64, 6);
    }
    let queries: Vec<Vec<f64>> = stream.iter().step_by(500).take(3).cloned().collect();
    let held = tree.snapshot();
    let before = clustree_bits(&held, &queries);
    for (i, batch) in stream[1_500..].chunks(BATCH).enumerate() {
        let short = tree.snapshot();
        let _ = tree.insert_batch(batch, 100.0 + i as f64, 6);
        drop(short);
    }
    assert_eq!(clustree_bits(&held, &queries), before);
    let during = tree.arena_census();
    drop(held);
    let short = tree.snapshot();
    let _ = tree.insert_batch(&stream[..BATCH], 1_000.0, 6);
    drop(short);
    check_long_hold(during, tree.arena_census());
}

/// Runs `batches` pinned batches on `tree`.
fn pinned_batches(tree: &mut BayesTree, batches: &[Vec<f64>]) {
    for batch in batches.chunks(BATCH) {
        let pin = tree.snapshot();
        tree.insert_batch(batch.to_vec());
        drop(pin);
    }
}

#[test]
fn clones_keep_their_bits_while_the_other_side_recycles() {
    let stream = drifting(2_000 + 40 * BATCH, DIMS, 17);
    let trained = bayes_tree(&stream[..2_000]);
    let queries: Vec<Vec<f64>> = stream.iter().step_by(900).take(3).cloned().collect();
    let trained_bits = bayes_bits(&trained.snapshot(), &queries);

    // The clone recycles; the original keeps its bits.
    let mut live = trained.clone();
    pinned_batches(&mut live, &stream[2_000..2_000 + 20 * BATCH]);
    assert_eq!(bayes_bits(&trained.snapshot(), &queries), trained_bits);
    let census = live.arena_census();
    assert!(
        census.versions_recycled > 0,
        "the clone recycles its own copies"
    );
    assert_eq!(
        census.versions_held_by_pins, 0,
        "the clone keeps no version the original holds"
    );
    assert!(census.versions_live <= live.num_nodes() + 2 * 20 * BATCH);

    // The original recycles; the clone keeps its bits.
    let live_bits = bayes_bits(&live.snapshot(), &queries);
    let mut original = live;
    let frozen = original.clone();
    pinned_batches(&mut original, &stream[2_000 + 20 * BATCH..]);
    assert_eq!(bayes_bits(&frozen.snapshot(), &queries), live_bits);
    assert_eq!(original.arena_census().versions_held_by_pins, 0);
    assert_eq!(frozen.arena_census().versions_held_by_pins, 0);
    assert!(
        original.arena_census().versions_recycled > census.versions_recycled,
        "the original keeps recycling after being cloned"
    );
}

#[test]
fn pipelined_readers_answer_the_pre_batch_reference_while_the_writer_recycles() {
    let stream = drifting(2_000 + 30 * BATCH, DIMS, 23);
    let geometry = PageGeometry::from_fanout(4, 8);
    let mut tree: BayesTree = BayesTree::sharded(DIMS, geometry, 2);
    for chunk in stream[..2_000].chunks(BATCH) {
        tree.insert_batch(chunk.to_vec());
    }
    for (k, batch) in stream[2_000..].chunks(BATCH).enumerate() {
        let queries: Vec<Vec<f64>> = batch.iter().step_by(16).cloned().collect();
        let (expected, _) = tree.density_batch(&queries, DescentStrategy::default(), 10);
        let outcome =
            tree.pipelined_batch(batch.to_vec(), &queries, DescentStrategy::default(), 10);
        assert_eq!(outcome.answers, expected, "batch {k}");
        assert_eq!(tree.arena_census().versions_held_by_pins, 0);
    }
    assert!(tree.arena_census().versions_recycled > 0);
}

/// Writes `stream` into a fresh tree in batches, each under a pin when
/// `pinned`, and returns its snapshot's density and outlier bits.
fn bayes_written(stream: &[Vec<f64>], pinned: bool) -> (Vec<u64>, ArenaCensus) {
    let mut tree: BayesTree = BayesTree::new(3, PageGeometry::from_fanout(4, 4));
    for batch in stream.chunks(24) {
        let pin = pinned.then(|| tree.snapshot());
        tree.insert_batch(batch.to_vec());
        drop(pin);
    }
    let snapshot = tree.snapshot();
    let mut out = Vec::new();
    for q in stream.iter().step_by(97) {
        for budget in [2, 9, usize::MAX] {
            let a = snapshot.anytime_density(q, DescentStrategy::default(), budget);
            out.extend(bits(&[a.estimate, a.lower, a.upper]));
            let s = snapshot.outlier_score(q, 1e-3, budget);
            out.extend(bits(&[s.answer.lower, s.answer.upper]));
        }
    }
    (out, tree.arena_census())
}

#[test]
fn recycled_writes_answer_like_unpinned_writes() {
    let stream = drifting(1_200, 3, 41);
    let (pinned, unpinned) = (bayes_written(&stream, true), bayes_written(&stream, false));
    assert!(pinned.1.versions_recycled > 0);
    assert_eq!(unpinned.1.versions_recycled, 0);
    assert_eq!(pinned.0, unpinned.0);

    let clustree_written = |pinned: bool| {
        let config = ClusTreeConfig {
            decay_lambda: 0.01,
            ..ClusTreeConfig::default()
        };
        let mut tree = ClusTree::new(3, config);
        for (i, batch) in stream.chunks(24).enumerate() {
            let pin = pinned.then(|| tree.snapshot());
            let _ = tree.insert_batch(batch, i as f64, 3);
            drop(pin);
        }
        let queries: Vec<Vec<f64>> = stream.iter().step_by(150).cloned().collect();
        (
            clustree_bits(&tree.snapshot(), &queries),
            tree.arena_census(),
        )
    };
    let (pinned, unpinned) = (clustree_written(true), clustree_written(false));
    assert!(pinned.1.versions_recycled > 0);
    assert_eq!(pinned.0, unpinned.0);
}
