//! The trees cache their bandwidth's scoring terms (`-1 / (2 h^2)`, the
//! log-kernel's peak) beside the bandwidth.  These tests pin that the cache
//! can never go stale: after `set_bandwidth` or `fit_bandwidth`, live,
//! snapshot and sharded queries answer bit for bit like a tree that had
//! that bandwidth from the start, while a snapshot pinned before the change
//! keeps answering with the old terms.

use anytime_stream_mining::anytree::{OutlierScore, QueryAnswer};
use anytime_stream_mining::bayestree::{BayesTree, BayesTreeSnapshot, DescentStrategy};
use anytime_stream_mining::index::PageGeometry;

const DIMS: usize = 3;
const SHARDS: usize = 3;

fn geometry() -> PageGeometry {
    PageGeometry::from_fanout(4, 5)
}

/// Deterministic 3-d points in two blobs, inserted in batches of 40.
fn points() -> Vec<Vec<f64>> {
    (0..320)
        .map(|i| {
            let t = i as f64;
            let centre = if i % 3 == 0 { 4.0 } else { -1.0 };
            vec![
                centre + (t * 0.29).sin() * 1.3,
                centre - (t * 0.53).cos(),
                (t * 0.17).sin() * 2.0,
            ]
        })
        .collect()
}

fn queries() -> Vec<Vec<f64>> {
    vec![
        vec![-1.0, -1.0, 0.0],
        vec![4.2, 3.8, 1.0],
        vec![1.5, 1.5, -0.5],
        vec![12.0, -7.0, 3.0],
    ]
}

/// A live tree holding every point, with `bandwidth` set before the first
/// insert when given.
fn tree(bandwidth: Option<&[f64]>) -> BayesTree {
    let mut tree: BayesTree = BayesTree::new(DIMS, geometry());
    if let Some(b) = bandwidth {
        tree.set_bandwidth(b.to_vec());
    }
    for chunk in points().chunks(40) {
        tree.insert_batch(chunk.to_vec());
    }
    tree
}

fn sharded(bandwidth: Option<&[f64]>) -> BayesTree {
    let mut tree: BayesTree = BayesTree::sharded(DIMS, geometry(), SHARDS);
    if let Some(b) = bandwidth {
        tree.set_bandwidth(b.to_vec());
    }
    for chunk in points().chunks(40) {
        let _ = tree.insert_batch(chunk.to_vec());
    }
    tree
}

/// Every bit of an answer: estimate, bounds and reads.
type Bits = (u64, u64, u64, usize);

fn bits(a: &QueryAnswer) -> Bits {
    (
        a.estimate.to_bits(),
        a.lower.to_bits(),
        a.upper.to_bits(),
        a.nodes_read,
    )
}

/// Density (budgets 0, 3, full), batched density and outlier answers of
/// the query set, through one tree's or snapshot's three query methods.
fn answers(
    density: impl Fn(&[f64], usize) -> QueryAnswer,
    outlier: impl Fn(&[f64]) -> OutlierScore,
    batch: impl Fn(&[Vec<f64>]) -> Vec<QueryAnswer>,
) -> Vec<Bits> {
    let mut out = Vec::new();
    for x in &queries() {
        for budget in [0, 3, usize::MAX] {
            out.push(bits(&density(x, budget)));
        }
        out.push(bits(&outlier(x).answer));
    }
    out.extend(batch(&queries()).iter().map(bits));
    out
}

fn live_answers(tree: &BayesTree) -> Vec<Bits> {
    answers(
        |x, budget| tree.anytime_density(x, DescentStrategy::default(), budget),
        |x| tree.outlier_score(x, 1e-3, 12),
        |qs| tree.density_batch(qs, DescentStrategy::default(), 5).0,
    )
}

/// One snapshot type serves the plain and the sharded trees.
fn snapshot_answers(snapshot: &BayesTreeSnapshot) -> Vec<Bits> {
    answers(
        |x, budget| snapshot.anytime_density(x, DescentStrategy::default(), budget),
        |x| snapshot.outlier_score(x, 1e-3, 12),
        |qs| snapshot.density_batch(qs, DescentStrategy::default(), 5).0,
    )
}

fn sharded_answers(tree: &BayesTree) -> Vec<Bits> {
    answers(
        |x, budget| tree.anytime_density(x, DescentStrategy::default(), budget),
        |x| tree.outlier_score(x, 1e-3, 12),
        |qs| tree.density_batch(qs, DescentStrategy::default(), 5).0,
    )
}

#[test]
fn set_bandwidth_refreshes_live_and_snapshot_terms() {
    let changed = [0.45, 0.8, 1.7];
    let mut subject = tree(None);
    let pinned = subject.snapshot();
    let before = snapshot_answers(&pinned);
    assert_eq!(before, live_answers(&subject));

    subject.set_bandwidth(changed.to_vec());
    let reference = tree(Some(&changed));
    let want = live_answers(&reference);
    assert_ne!(want, before, "the bandwidth change must move the answers");
    assert_eq!(live_answers(&subject), want);
    assert_eq!(snapshot_answers(&subject.snapshot()), want);
    assert_eq!(
        snapshot_answers(&pinned),
        before,
        "a snapshot pinned before the change keeps its bandwidth"
    );
}

#[test]
fn fit_bandwidth_refreshes_live_and_snapshot_terms() {
    let mut subject = tree(Some(&[2.0, 2.0, 2.0]));
    let pinned = subject.snapshot();
    let before = snapshot_answers(&pinned);

    subject.fit_bandwidth();
    let fitted = subject.bandwidth().to_vec();
    let reference = tree(Some(&fitted));
    let want = live_answers(&reference);
    assert_ne!(want, before, "the refit must move the answers");
    assert_eq!(live_answers(&subject), want);
    assert_eq!(snapshot_answers(&subject.snapshot()), want);
    assert_eq!(snapshot_answers(&pinned), before);
}

#[test]
fn sharded_bandwidth_changes_refresh_every_shards_terms() {
    let changed = [0.6, 1.1, 0.35];
    let mut subject = sharded(None);
    let pinned = subject.snapshot();
    let before = snapshot_answers(&pinned);
    assert_eq!(before, sharded_answers(&subject));

    subject.set_bandwidth(changed.to_vec());
    let want = sharded_answers(&sharded(Some(&changed)));
    assert_ne!(want, before, "the bandwidth change must move the answers");
    assert_eq!(sharded_answers(&subject), want);
    assert_eq!(snapshot_answers(&subject.snapshot()), want);
    assert_eq!(snapshot_answers(&pinned), before);

    subject.fit_bandwidth();
    let fitted = subject.bandwidth().to_vec();
    let want = sharded_answers(&sharded(Some(&fitted)));
    assert_eq!(sharded_answers(&subject), want);
    assert_eq!(snapshot_answers(&subject.snapshot()), want);
    assert_eq!(snapshot_answers(&pinned), before);
}
