//! The write boundary rejects non-finite input: a NaN or infinite
//! coordinate (or ClusTree timestamp) panics with a clear message *before*
//! any state changes, at every write entry of both trees and the
//! classifier.  Without the check one bad point was accepted, `validate`
//! passed, and every density answer of its shard came back `NaN`.  Every
//! public bulk loader checks its input too, not only `build_tree`.

use anytime_stream_mining::anytree::RefineOrder;
use anytime_stream_mining::bayestree::{
    build_tree, bulk, AnytimeClassifier, BayesTree, BulkLoadMethod, ClassifierConfig,
    DescentStrategy,
};
use anytime_stream_mining::clustree::{ClusTree, ClusTreeConfig};
use anytime_stream_mining::data::synth::blobs::BlobConfig;
use anytime_stream_mining::index::PageGeometry;
use std::panic::{catch_unwind, AssertUnwindSafe};

fn points(n: usize) -> Vec<Vec<f64>> {
    (0..n)
        .map(|i| vec![(i % 7) as f64 * 0.5, (i % 5) as f64 * 0.25])
        .collect()
}

fn bad_batch() -> Vec<Vec<f64>> {
    vec![
        vec![1.0, 1.0],
        vec![f64::NAN, 2.0],
        vec![f64::INFINITY, 0.0],
    ]
}

fn bayes_tree() -> BayesTree {
    let mut tree: BayesTree = BayesTree::new(2, PageGeometry::from_fanout(4, 4));
    let _ = tree.insert_batch(points(50));
    tree
}

fn clus_tree() -> ClusTree {
    let mut tree = ClusTree::new(2, ClusTreeConfig::default());
    let _ = tree.insert_batch(&points(50), 1.0, 8);
    tree
}

fn answer_bits(estimate: f64, lower: f64, upper: f64) -> [u64; 3] {
    [estimate.to_bits(), lower.to_bits(), upper.to_bits()]
}

#[test]
#[should_panic(expected = "point coordinates must be finite")]
fn bayes_insert_rejects_a_nan_coordinate() {
    bayes_tree().insert(vec![f64::NAN, 1.0]);
}

#[test]
#[should_panic(expected = "point coordinates must be finite")]
fn bayes_insert_batch_rejects_an_infinite_coordinate() {
    let _ = bayes_tree().insert_batch(bad_batch());
}

#[test]
#[should_panic(expected = "point coordinates must be finite")]
fn bayes_pipelined_batch_rejects_a_non_finite_coordinate() {
    let _ = bayes_tree().pipelined_batch(
        bad_batch(),
        &[vec![1.0, 1.0]],
        DescentStrategy::default(),
        4,
    );
}

#[test]
#[should_panic(expected = "point coordinates must be finite")]
fn build_tree_rejects_a_non_finite_coordinate() {
    let mut input = points(40);
    input[17][1] = f64::NEG_INFINITY;
    let _ = build_tree(
        &input,
        2,
        PageGeometry::from_fanout(4, 4),
        BulkLoadMethod::Hilbert,
        0,
    );
}

/// The 50-point 2-d set with one `[NaN, 2.0]` that every public bulk
/// loader used to accept: the tree failed `validate(true)` and answered
/// `NaN` densities.
fn nan_set() -> Vec<Vec<f64>> {
    let mut input = points(50);
    input[23] = vec![f64::NAN, 2.0];
    input
}

#[test]
#[should_panic(expected = "point coordinates must be finite")]
fn build_hilbert_rejects_a_nan_coordinate() {
    let _ = bulk::spacefilling::build_hilbert(&nan_set(), 2, PageGeometry::from_fanout(4, 4));
}

#[test]
#[should_panic(expected = "point coordinates must be finite")]
fn build_zorder_rejects_a_nan_coordinate() {
    let _ = bulk::spacefilling::build_zorder(&nan_set(), 2, PageGeometry::from_fanout(4, 4));
}

#[test]
#[should_panic(expected = "point coordinates must be finite")]
fn build_str_rejects_a_nan_coordinate() {
    let _ = bulk::spacefilling::build_str(&nan_set(), 2, PageGeometry::from_fanout(4, 4));
}

#[test]
#[should_panic(expected = "point coordinates must be finite")]
fn build_em_topdown_rejects_a_nan_coordinate() {
    let _ = bulk::em_topdown::build_em_topdown(&nan_set(), 2, PageGeometry::from_fanout(4, 4), 7);
}

#[test]
#[should_panic(expected = "point coordinates must be finite")]
fn build_goldberger_rejects_a_nan_coordinate() {
    let _ = bulk::goldberger::build_goldberger(
        &nan_set(),
        2,
        PageGeometry::from_fanout(4, 4),
        &bulk::GoldbergerBulkConfig::default(),
    );
}

#[test]
#[should_panic(expected = "point coordinates must be finite")]
fn build_iterative_rejects_a_non_finite_coordinate() {
    let mut input = points(40);
    input[3][0] = f64::NAN;
    let _: BayesTree = BayesTree::build_iterative(&input, 2, PageGeometry::from_fanout(4, 4));
}

#[test]
fn a_rejected_bayes_batch_leaves_the_tree_bit_identical() {
    let mut tree = bayes_tree();
    let query = [1.0, 1.0];
    let answer = tree.anytime_density(&query, DescentStrategy::default(), 4);
    let before = (
        tree.len(),
        tree.epochs(),
        answer_bits(answer.estimate, answer.lower, answer.upper),
    );
    for attempt in 0..2 {
        let result = catch_unwind(AssertUnwindSafe(|| match attempt {
            0 => {
                let _ = tree.insert_batch(bad_batch());
            }
            _ => tree.insert(vec![0.5, f64::INFINITY]),
        }));
        assert!(result.is_err(), "attempt {attempt} was accepted");
    }
    let answer = tree.anytime_density(&query, DescentStrategy::default(), 4);
    let after = (
        tree.len(),
        tree.epochs(),
        answer_bits(answer.estimate, answer.lower, answer.upper),
    );
    assert_eq!(before, after);
    tree.validate(true).expect("still valid");
}

fn classifier() -> AnytimeClassifier {
    let dataset = BlobConfig::new(2, 2)
        .samples_per_class(30)
        .seed(5)
        .generate();
    AnytimeClassifier::train(&dataset, &ClassifierConfig::default())
}

#[test]
#[should_panic(expected = "point coordinates must be finite")]
fn learn_one_rejects_a_non_finite_coordinate() {
    classifier().learn_one(vec![f64::NAN, 0.0], 1);
}

#[test]
#[should_panic(expected = "point coordinates must be finite")]
fn learn_batch_rejects_a_non_finite_coordinate() {
    classifier().learn_batch(vec![(vec![0.0, 0.0], 0), (vec![f64::INFINITY, 0.0], 1)]);
}

#[test]
fn a_rejected_learn_batch_writes_no_class_tree() {
    let mut classifier = classifier();
    let lens = |c: &AnytimeClassifier| c.trees().iter().map(BayesTree::len).collect::<Vec<_>>();
    let before = (lens(&classifier), classifier.priors().to_vec());
    // The valid class-0 point comes first: checking after grouping would
    // have written it into the class-0 tree before the class-1 point failed.
    let result = catch_unwind(AssertUnwindSafe(|| {
        classifier.learn_batch(vec![(vec![0.5, 0.5], 0), (vec![f64::NAN, 0.5], 1)]);
    }));
    assert!(result.is_err());
    assert_eq!((lens(&classifier), classifier.priors().to_vec()), before);
}

#[test]
#[should_panic(expected = "point coordinates must be finite")]
fn clus_insert_rejects_a_nan_coordinate() {
    let _ = clus_tree().insert(&[f64::NAN, 1.0], 2.0, 8);
}

#[test]
#[should_panic(expected = "timestamps must be finite")]
fn clus_insert_rejects_a_non_finite_timestamp() {
    let _ = clus_tree().insert(&[1.0, 1.0], f64::INFINITY, 8);
}

#[test]
#[should_panic(expected = "point coordinates must be finite")]
fn clus_insert_batch_rejects_a_non_finite_coordinate() {
    let _ = clus_tree().insert_batch(&bad_batch(), 60.0, 8);
}

#[test]
#[should_panic(expected = "timestamps must be finite")]
fn clus_insert_batch_rejects_a_nan_timestamp() {
    let _ = clus_tree().insert_batch(&points(4), f64::NAN, 8);
}

#[test]
#[should_panic(expected = "point coordinates must be finite")]
fn clus_pipelined_batch_rejects_a_non_finite_coordinate() {
    let _ = clus_tree().pipelined_batch(
        &bad_batch(),
        60.0,
        8,
        &[vec![1.0, 1.0]],
        &[0.5, 0.5],
        RefineOrder::BestFirst,
        4,
    );
}

#[test]
fn a_rejected_clus_batch_leaves_the_tree_bit_identical() {
    let mut tree = clus_tree();
    let (query, bandwidth) = ([1.0, 1.0], [0.5, 0.5]);
    let answer = tree.anytime_density(&query, &bandwidth, RefineOrder::BestFirst, 4);
    let before = (
        tree.len(),
        tree.epochs(),
        tree.total_weight().to_bits(),
        answer_bits(answer.estimate, answer.lower, answer.upper),
    );
    for attempt in 0..3 {
        let result = catch_unwind(AssertUnwindSafe(|| match attempt {
            0 => {
                let _ = tree.insert_batch(&bad_batch(), 60.0, 8);
            }
            1 => {
                let _ = tree.insert_batch(&points(3), f64::INFINITY, 8);
            }
            _ => {
                let _ = tree.insert(&[f64::NAN, 0.0], 61.0, 8);
            }
        }));
        assert!(result.is_err(), "attempt {attempt} was accepted");
    }
    let answer = tree.anytime_density(&query, &bandwidth, RefineOrder::BestFirst, 4);
    let after = (
        tree.len(),
        tree.epochs(),
        tree.total_weight().to_bits(),
        answer_bits(answer.estimate, answer.lower, answer.upper),
    );
    assert_eq!(before, after);
    tree.validate().expect("still valid");
}
