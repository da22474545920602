//! The typed write boundary: `try_insert`, `try_insert_batch`,
//! `try_learn_one`, `try_learn_batch` and the bulk loaders'
//! `try_build_tree` return an [`InputError`] naming the offending object's
//! index — wrong dimensionality, a non-finite coordinate, a label out of
//! range — instead of panicking, and a rejected write changes nothing: the
//! batch is checked in one pass before any state changes.  Covered on a
//! plain tree, a sharded tree and a classifier, each while a snapshot pins
//! it (so a write that slipped through would also show as copy-on-write
//! copies in the arena census), on every bulk-load method, and on a plain
//! and a sharded ClusTree, whose writes also reject a non-finite timestamp
//! with the same error type.

use anytime_stream_mining::bayestree::{
    build_tree, try_build_tree, AnytimeClassifier, BayesTree, BulkLoadMethod, ClassifierConfig,
    DescentStrategy, InputError,
};
use anytime_stream_mining::clustree::{ClusTree, ClusTreeConfig};
use anytime_stream_mining::data::synth::blobs::BlobConfig;
use anytime_stream_mining::index::PageGeometry;

fn points(n: usize, phase: usize) -> Vec<Vec<f64>> {
    (0..n)
        .map(|i| {
            let i = i + phase;
            vec![(i % 7) as f64 * 0.5, (i % 5) as f64 * 0.25 + (i % 3) as f64]
        })
        .collect()
}

/// A valid batch with one bad point planted at `index`, and the error the
/// write boundary must report for it.
fn planted(index: usize) -> Vec<(Vec<Vec<f64>>, InputError)> {
    let with = |point: Vec<f64>| {
        let mut batch = points(6, 100);
        batch[index] = point;
        batch
    };
    vec![
        (
            with(vec![1.0]),
            InputError::Dimensionality {
                index,
                expected: 2,
                found: 1,
            },
        ),
        (
            with(vec![1.0, 2.0, 3.0]),
            InputError::Dimensionality {
                index,
                expected: 2,
                found: 3,
            },
        ),
        (
            with(vec![1.0, f64::NAN]),
            InputError::NonFinite { index, dim: 1 },
        ),
        (
            with(vec![f64::NEG_INFINITY, 0.0]),
            InputError::NonFinite { index, dim: 0 },
        ),
    ]
}

/// Everything a rejected write must leave as it was: the observation
/// count, the node count, the arena census and a fixed query's answer
/// bits.
fn fingerprint(tree: &BayesTree) -> (usize, usize, String, [u64; 4]) {
    let a = tree.anytime_density(&[1.2, 0.7], DescentStrategy::default(), 6);
    (
        tree.len(),
        tree.num_nodes(),
        format!("{:?}", tree.arena_census()),
        [
            a.estimate.to_bits(),
            a.lower.to_bits(),
            a.upper.to_bits(),
            a.nodes_read as u64,
        ],
    )
}

fn check_tree(mut tree: BayesTree) {
    tree.insert_batch(points(80, 0));
    let pin = tree.snapshot();
    let before = fingerprint(&tree);
    for index in [0, 3, 5] {
        for (batch, want) in planted(index) {
            let bad = batch[index].clone();
            assert_eq!(tree.try_insert_batch(batch).unwrap_err(), want);
            let single = tree.try_insert(bad).unwrap_err();
            assert_eq!(single, reindexed(want, 0));
            assert_eq!(fingerprint(&tree), before, "{want}");
        }
    }
    // The panicking forms say the same thing.
    let message = InputError::NonFinite { index: 2, dim: 0 }.to_string();
    assert!(message.starts_with("point coordinates must be finite"));
    // A valid write still goes through, and the pin keeps its answers.
    assert!(tree.try_insert_batch(points(10, 500)).is_ok());
    assert!(tree.try_insert(vec![0.5, 0.5]).is_ok());
    assert_eq!(tree.len(), before.0 + 11);
    assert_eq!(
        pin.anytime_density(&[1.2, 0.7], DescentStrategy::default(), 6)
            .estimate
            .to_bits(),
        before.3[0]
    );
}

fn reindexed(error: InputError, index: usize) -> InputError {
    match error {
        InputError::Dimensionality {
            expected, found, ..
        } => InputError::Dimensionality {
            index,
            expected,
            found,
        },
        InputError::NonFinite { dim, .. } => InputError::NonFinite { index, dim },
        InputError::NonFiniteTimestamp => InputError::NonFiniteTimestamp,
        InputError::LabelOutOfRange { label, classes, .. } => InputError::LabelOutOfRange {
            index,
            label,
            classes,
        },
    }
}

#[test]
fn a_plain_tree_rejects_bad_points_by_index_and_changes_nothing() {
    check_tree(BayesTree::new(2, PageGeometry::from_fanout(4, 4)));
}

#[test]
fn a_sharded_tree_rejects_bad_points_by_index_and_changes_nothing() {
    check_tree(BayesTree::sharded(2, PageGeometry::from_fanout(4, 4), 3));
}

#[test]
fn the_first_offending_point_of_a_batch_is_named() {
    let mut tree: BayesTree = BayesTree::new(2, PageGeometry::from_fanout(4, 4));
    let mut batch = points(8, 0);
    batch[2] = vec![f64::NAN, 1.0];
    batch[5] = vec![1.0];
    assert_eq!(
        tree.try_insert_batch(batch).unwrap_err(),
        InputError::NonFinite { index: 2, dim: 0 }
    );
    assert!(tree.is_empty());
}

/// The message a panicking call panicked with.
fn panic_message(run: impl FnOnce() + std::panic::UnwindSafe) -> String {
    let payload = std::panic::catch_unwind(run).expect_err("the call panics");
    match payload.downcast::<String>() {
        Ok(message) => *message,
        Err(payload) => (*payload.downcast::<&str>().expect("a text payload")).to_string(),
    }
}

#[test]
fn every_bulk_loader_rejects_bad_points_by_index() {
    let geometry = PageGeometry::from_fanout(4, 4);
    for method in BulkLoadMethod::all() {
        for index in [0, 3, 5] {
            for (batch, want) in planted(index) {
                let got = try_build_tree(&batch, 2, geometry, method, 7).map(|t| t.len());
                assert_eq!(got, Err(want), "{method:?}");
                // The panicking form says the same thing.
                let message = panic_message(|| drop(build_tree(&batch, 2, geometry, method, 7)));
                assert_eq!(message, want.to_string(), "{method:?}");
            }
        }
        // The first offending point of a longer batch is named.
        let mut batch = points(40, 0);
        batch[17] = vec![0.5, f64::NAN];
        batch[23] = vec![0.5];
        assert_eq!(
            try_build_tree(&batch, 2, geometry, method, 7).map(|t| t.len()),
            Err(InputError::NonFinite { index: 17, dim: 1 }),
            "{method:?}"
        );
        // A valid batch builds the tree `build_tree` builds.
        let good = points(40, 0);
        let tree = try_build_tree(&good, 2, geometry, method, 7).expect("a valid batch");
        let reference = build_tree(&good, 2, geometry, method, 7);
        tree.validate(method.guarantees_balance())
            .expect("a valid tree");
        assert_eq!(
            (tree.len(), tree.num_nodes(), tree.height()),
            (reference.len(), reference.num_nodes(), reference.height()),
            "{method:?}"
        );
        let q = [1.2, 0.7];
        assert_eq!(
            tree.anytime_density(&q, DescentStrategy::default(), 6),
            reference.anytime_density(&q, DescentStrategy::default(), 6),
            "{method:?}"
        );
    }
}

/// A classifier's observable state: per-class sizes, node counts and
/// census, the priors' bits and a fixed classification's bits.
fn classifier_fingerprint(clf: &AnytimeClassifier) -> String {
    let c = clf.classify_with_budget(&[1.0, 1.0], 6);
    let trees: Vec<(usize, usize)> = clf
        .trees()
        .iter()
        .map(|t| (t.len(), t.num_nodes()))
        .collect();
    let priors: Vec<u64> = clf.priors().iter().map(|p| p.to_bits()).collect();
    let posteriors: Vec<u64> = c.posteriors.iter().map(|p| p.to_bits()).collect();
    format!(
        "{trees:?} {:?} {priors:?} {} {posteriors:?} {}",
        clf.arena_census(),
        c.label,
        c.nodes_read
    )
}

#[test]
fn a_classifier_rejects_bad_objects_by_index_and_changes_nothing() {
    let data = BlobConfig::new(3, 2)
        .samples_per_class(40)
        .seed(3)
        .generate();
    let config = ClassifierConfig {
        geometry: Some(PageGeometry::from_fanout(4, 5)),
        ..ClassifierConfig::default()
    };
    let mut clf = AnytimeClassifier::train(&data, &config);
    let pin = clf.snapshot();
    let before = classifier_fingerprint(&clf);
    let labelled = |batch: Vec<Vec<f64>>| -> Vec<(Vec<f64>, usize)> {
        batch
            .into_iter()
            .enumerate()
            .map(|(i, p)| (p, i % 3))
            .collect()
    };
    for index in [0, 4] {
        for (batch, want) in planted(index) {
            let batch = labelled(batch);
            let (bad, label) = batch[index].clone();
            assert_eq!(clf.try_learn_batch(batch).unwrap_err(), want);
            assert_eq!(
                clf.try_learn_one(bad, label).unwrap_err(),
                reindexed(want, 0)
            );
            assert_eq!(classifier_fingerprint(&clf), before, "{want}");
        }
        let mut batch = labelled(points(6, 200));
        batch[index].1 = 7;
        let want = InputError::LabelOutOfRange {
            index,
            label: 7,
            classes: 3,
        };
        assert_eq!(clf.try_learn_batch(batch).unwrap_err(), want);
        assert_eq!(
            clf.try_learn_one(vec![1.0, 1.0], 3).unwrap_err(),
            InputError::LabelOutOfRange {
                index: 0,
                label: 3,
                classes: 3
            }
        );
        assert_eq!(classifier_fingerprint(&clf), before);
    }
    assert!(InputError::LabelOutOfRange {
        index: 1,
        label: 9,
        classes: 3
    }
    .to_string()
    .starts_with("label out of range"));
    assert!(clf.try_learn_batch(labelled(points(6, 300))).is_ok());
    assert!(clf.try_learn_one(vec![0.5, 0.5], 2).is_ok());
    assert_ne!(classifier_fingerprint(&clf), before);
    drop(pin);
}

/// What a rejected ClusTree write must leave as it was: the observation
/// count, the clock, the node count, the arena census and every
/// micro-cluster.
fn clustree_fingerprint(tree: &ClusTree) -> (usize, u64, usize, String, String) {
    (
        tree.len(),
        tree.current_time().to_bits(),
        tree.num_nodes(),
        format!("{:?}", tree.arena_census()),
        format!("{:?}", tree.micro_clusters()),
    )
}

fn check_clustree(mut tree: ClusTree) {
    for (round, chunk) in points(80, 0).chunks(16).enumerate() {
        tree.insert_batch(chunk, round as f64, 3);
    }
    let pin = tree.snapshot();
    let before = clustree_fingerprint(&tree);
    for index in [0, 3, 5] {
        for (batch, want) in planted(index) {
            let bad = batch[index].clone();
            assert_eq!(tree.try_insert_batch(&batch, 10.0, 3).unwrap_err(), want);
            let single = tree.try_insert(&bad, 10.0, 3).unwrap_err();
            assert_eq!(single, reindexed(want, 0));
            assert_eq!(clustree_fingerprint(&tree), before, "{want}");
        }
    }
    for timestamp in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let batch = points(6, 100);
        let error = tree.try_insert_batch(&batch, timestamp, 3).unwrap_err();
        assert_eq!(error, InputError::NonFiniteTimestamp);
        assert_eq!(tree.try_insert(&batch[0], timestamp, 3).unwrap_err(), error);
        assert_eq!(clustree_fingerprint(&tree), before, "timestamp {timestamp}");
    }
    // The panicking forms say what they said before.
    assert!(InputError::NonFiniteTimestamp
        .to_string()
        .starts_with("timestamps must be finite"));
    // A valid write still goes through, and the pin keeps its state.
    let pinned = format!("{:?}", pin.micro_clusters());
    assert!(tree.try_insert_batch(&points(10, 500), 11.0, 3).is_ok());
    assert!(tree.try_insert(&[0.5, 0.5], 12.0, 3).is_ok());
    assert_eq!(tree.len(), before.0 + 11);
    assert_eq!(format!("{:?}", pin.micro_clusters()), pinned);
    assert_eq!(pin.len(), before.0);
}

#[test]
fn a_plain_clustree_rejects_bad_points_and_timestamps_and_changes_nothing() {
    check_clustree(ClusTree::new(2, ClusTreeConfig::default()));
}

#[test]
fn a_sharded_clustree_rejects_bad_points_and_timestamps_and_changes_nothing() {
    check_clustree(ClusTree::sharded(2, ClusTreeConfig::default(), 3));
}
