//! EM top-down bulk load (Section 3.1) — the paper's best performer.
//!
//! The training set is recursively partitioned: the EM algorithm is applied
//! to the current set with the fanout `M` as the desired number of clusters;
//! if EM collapses to fewer than the minimum fanout the biggest cluster is
//! split further; a single-cluster result is split on its two farthest
//! elements.  Clusters with more than `L` objects are partitioned
//! recursively and become subtrees, smaller clusters become leaf nodes.
//!
//! The resulting tree may be unbalanced — the paper notes this explicitly
//! and observes that it is not a drawback but even improves anytime
//! accuracy.

use crate::leaf::PointColumns;
use crate::node::{Entry, KernelSummary, NodeId};
use crate::tree::{summarise, BayesCore, BayesTree};
use bt_index::PageGeometry;
use bt_stats::em::{fit_gmm, EmConfig, KMeans, KMeansConfig};
use bt_stats::vector;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Builds a Bayes tree with the EM top-down bulk load.
///
/// # Panics
///
/// Panics if any point has the wrong dimensionality or a non-finite
/// coordinate.
#[must_use]
pub fn build_em_topdown(
    points: &[Vec<f64>],
    dims: usize,
    geometry: PageGeometry,
    seed: u64,
) -> BayesTree {
    crate::insert::or_panic(crate::insert::check_points(points, dims));
    build_em_topdown_checked(points, dims, geometry, seed)
}

/// The EM top-down load of a batch that passed
/// [`check_points`](crate::insert::check_points).
pub(crate) fn build_em_topdown_checked(
    points: &[Vec<f64>],
    dims: usize,
    geometry: PageGeometry,
    seed: u64,
) -> BayesTree {
    let mut tree: BayesTree = BayesTree::new(dims, geometry);
    if points.is_empty() {
        return tree;
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let core = tree.shard_mut(0);
    // Everything may fit into the root leaf.
    let (root, depth) = build_recursive(core, points.to_vec(), &mut rng);
    core.set_root(root, depth);
    // The single commit point of the EM top-down load.
    core.publish_epoch();
    tree.num_points = points.len();
    tree.fit_bandwidth();
    tree
}

/// Recursively builds the subtree over `points`; returns the node id and the
/// height of that subtree.
fn build_recursive(
    core: &mut BayesCore<KernelSummary>,
    points: Vec<Vec<f64>>,
    rng: &mut StdRng,
) -> (NodeId, usize) {
    let geometry = core.geometry();
    if points.len() <= geometry.max_leaf {
        let leaf = PointColumns::from_rows(core.dims(), points.iter().map(Vec::as_slice));
        return (core.push_node(bt_anytree::Node::leaf(leaf)), 1);
    }

    let clusters = cluster_points(&points, &geometry, rng);

    let mut entries: Vec<Entry> = Vec::with_capacity(clusters.len());
    let mut max_child_height = 0usize;
    for cluster in clusters {
        if cluster.is_empty() {
            continue;
        }
        let cluster_points: Vec<Vec<f64>> = cluster.iter().map(|&i| points[i].clone()).collect();
        let (child, child_height) = build_recursive(core, cluster_points, rng);
        max_child_height = max_child_height.max(child_height);
        entries.push(summarise(core, child));
    }

    (
        core.push_node(bt_anytree::Node::inner(crate::node::entries_block(
            &entries,
        ))),
        max_child_height + 1,
    )
}

/// Clusters `points` into at most `M` groups following the paper's rules.
fn cluster_points(
    points: &[Vec<f64>],
    geometry: &PageGeometry,
    rng: &mut StdRng,
) -> Vec<Vec<usize>> {
    let desired = geometry.max_fanout;
    let em = fit_gmm(points, &EmConfig::new(desired), rng);
    let mut clusters = group_by_assignment(&em.assignment, em.mixture.len().max(1));
    clusters.retain(|c| !c.is_empty());

    if clusters.len() <= 1 {
        // EM collapsed to a single cluster: split on the two farthest
        // elements and assign the rest to the closer of the two.
        return farthest_pair_split(points);
    }

    // If EM returned fewer than the minimum fanout, keep splitting the
    // biggest cluster until we reach it (or cannot split further).
    while clusters.len() < geometry.min_fanout && clusters.len() < desired {
        let (biggest_idx, _) = clusters
            .iter()
            .enumerate()
            .max_by_key(|(_, c)| c.len())
            .expect("at least one cluster");
        if clusters[biggest_idx].len() < 2 {
            break;
        }
        let members = clusters.swap_remove(biggest_idx);
        let member_points: Vec<Vec<f64>> = members.iter().map(|&i| points[i].clone()).collect();
        let km = KMeans::fit(&member_points, &KMeansConfig::new(2), rng);
        if km.num_clusters() < 2 {
            // Identical points: put the cluster back and stop.
            clusters.push(members);
            break;
        }
        let mut a = Vec::new();
        let mut b = Vec::new();
        for (local, &global) in members.iter().enumerate() {
            if km.assignment[local] == 0 {
                a.push(global);
            } else {
                b.push(global);
            }
        }
        clusters.push(a);
        clusters.push(b);
    }
    clusters
}

/// Groups point indices by their cluster assignment.
fn group_by_assignment(assignment: &[usize], num_clusters: usize) -> Vec<Vec<usize>> {
    let mut groups = vec![Vec::new(); num_clusters];
    for (i, &a) in assignment.iter().enumerate() {
        groups[a.min(num_clusters - 1)].push(i);
    }
    groups
}

/// Splits a point set on its two farthest elements (used when EM returns a
/// single cluster).  The farthest pair is approximated by two passes of the
/// "pick the point farthest from the current pivot" heuristic.
fn farthest_pair_split(points: &[Vec<f64>]) -> Vec<Vec<usize>> {
    if points.len() < 2 {
        return vec![(0..points.len()).collect()];
    }
    let first = farthest_from(points, &points[0]);
    let second = farthest_from(points, &points[first]);
    let a = &points[first];
    let b = &points[second];
    if vector::sq_dist(a, b) == 0.0 {
        // All points identical: cut in half.
        let mid = points.len() / 2;
        return vec![(0..mid).collect(), (mid..points.len()).collect()];
    }
    let mut left = Vec::new();
    let mut right = Vec::new();
    for (i, p) in points.iter().enumerate() {
        if vector::sq_dist(p, a) <= vector::sq_dist(p, b) {
            left.push(i);
        } else {
            right.push(i);
        }
    }
    vec![left, right]
}

fn farthest_from(points: &[Vec<f64>], pivot: &[f64]) -> usize {
    let mut best = 0;
    let mut best_d = -1.0;
    for (i, p) in points.iter().enumerate() {
        let d = vector::sq_dist(p, pivot);
        if d > best_d {
            best_d = d;
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    fn clustered_points(n: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let c = (i % 5) as f64 * 20.0;
                vec![c + rng.random::<f64>(), c * 0.5 + rng.random::<f64>()]
            })
            .collect()
    }

    #[test]
    fn em_topdown_tree_is_valid() {
        let pts = clustered_points(400, 1);
        let tree = build_em_topdown(&pts, 2, PageGeometry::from_fanout(5, 10), 7);
        assert_eq!(tree.len(), 400);
        // May be unbalanced by design — validate without the balance check.
        tree.validate(false).expect("consistent EMTopDown tree");
    }

    #[test]
    fn small_input_is_a_single_leaf() {
        let pts = clustered_points(8, 2);
        let tree = build_em_topdown(&pts, 2, PageGeometry::from_fanout(4, 10), 1);
        assert_eq!(tree.height(), 1);
        assert_eq!(tree.len(), 8);
    }

    #[test]
    fn clusters_end_up_in_separate_subtrees() {
        // Two far-apart clusters: no root entry should span both.
        let mut pts = Vec::new();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..100 {
            pts.push(vec![rng.random::<f64>(), rng.random::<f64>()]);
        }
        for _ in 0..100 {
            pts.push(vec![
                500.0 + rng.random::<f64>(),
                500.0 + rng.random::<f64>(),
            ]);
        }
        let tree = build_em_topdown(&pts, 2, PageGeometry::from_fanout(4, 16), 5);
        for e in tree.root_entries() {
            let spans_both = e.mbr.lower()[0] < 250.0 && e.mbr.upper()[0] > 250.0;
            assert!(!spans_both, "a root entry spans both clusters");
        }
    }

    #[test]
    fn farthest_pair_split_separates_extremes() {
        let pts = vec![vec![0.0], vec![0.1], vec![9.9], vec![10.0]];
        let split = farthest_pair_split(&pts);
        assert_eq!(split.len(), 2);
        let left: &Vec<usize> = &split[0];
        let right: &Vec<usize> = &split[1];
        assert_eq!(left.len() + right.len(), 4);
        // The two extremes must be separated.
        let zero_side = left.contains(&0);
        assert_ne!(zero_side, left.contains(&3));
    }

    #[test]
    fn farthest_pair_split_identical_points() {
        let pts = vec![vec![1.0]; 6];
        let split = farthest_pair_split(&pts);
        let total: usize = split.iter().map(Vec::len).sum();
        assert_eq!(total, 6);
        assert_eq!(split.len(), 2);
    }

    #[test]
    fn identical_points_build_without_hanging() {
        let pts = vec![vec![2.0, 2.0]; 100];
        let tree = build_em_topdown(&pts, 2, PageGeometry::from_fanout(4, 8), 1);
        assert_eq!(tree.len(), 100);
        tree.validate(false).expect("valid");
    }
}
