//! Split algorithms shared by the tree instantiations.
//!
//! A directory container splits itself ([`crate::Directory::split_in_two`]): the
//! Bayes tree's box-routed block with the R* topological split over its
//! box columns, and a row directory (`Vec<Entry<S>>`, the clustering
//! extension's) with the **polar split** (farthest-pair seeding,
//! closer-seed assignment with capacity caps) over the entries' centres,
//! [`split_entries`].
//!
//! The polar partition is exposed so models can reuse it for their leaf
//! items as well.

use crate::node::Entry;
use crate::summary::Summary;
use bt_index::PageGeometry;

/// Splits the entries of an overfull row directory (over `dims`-dimensional
/// data) into the group that stays and the group that moves to a fresh
/// node: the polar split over the entries' [`Summary::center`]s, written
/// into one row-major buffer.
#[must_use]
pub fn split_entries<S: Summary>(
    entries: Vec<Entry<S>>,
    geometry: &PageGeometry,
    dims: usize,
) -> (Vec<Entry<S>>, Vec<Entry<S>>) {
    let mut centers = vec![0.0; entries.len() * dims];
    for (entry, center) in entries.iter().zip(centers.chunks_exact_mut(dims)) {
        entry.summary.write_center(center);
    }
    let (ia, ib) = polar_partition(&centers, dims, geometry.max_fanout);
    distribute(entries, &ia, &ib)
}

/// Moves `items` into two groups given index lists (each index must appear
/// in exactly one list); group order follows the index lists.  Used by the
/// core's directory splits and exposed for models to implement their leaf
/// splits without cloning items.
///
/// The items are permuted in place into `first ++ second` order, one cycle
/// at a time, and the second group is split off: the two groups (the first
/// keeps `items`' buffer) and one scratch order are all it allocates.
///
/// # Panics
///
/// Panics unless the two lists together name every index of `items`
/// exactly once.
#[must_use]
pub fn distribute<T>(mut items: Vec<T>, first: &[usize], second: &[usize]) -> (Vec<T>, Vec<T>) {
    const DONE: usize = usize::MAX;
    let n = items.len();
    assert_eq!(first.len() + second.len(), n, "every index appears once");
    // `order[k]` is the index whose item lands at position `k`.
    let mut order: Vec<usize> = first.iter().chain(second).copied().collect();
    for start in 0..n {
        if order[start] == DONE {
            continue;
        }
        let mut k = start;
        loop {
            let src = std::mem::replace(&mut order[k], DONE);
            if src == start {
                break;
            }
            assert!(src < n && order[src] != DONE, "index appears once");
            items.swap(k, src);
            k = src;
        }
    }
    let moved = items.split_off(first.len());
    (items, moved)
}

/// Farthest-pair split: seeds with the two centres farthest apart, assigns
/// every centre to the closer seed (capped at `cap` per group, overflow
/// falling back to the first group), and guarantees both groups are
/// non-empty.  `centers` is row-major, `dims` values per centre.  Returns
/// the index lists of both groups in scan order.
///
/// # Panics
///
/// Panics if fewer than two centres are given, or if `dims` is zero.
#[must_use]
pub fn polar_partition(centers: &[f64], dims: usize, cap: usize) -> (Vec<usize>, Vec<usize>) {
    assert!(dims > 0, "centres have at least one dimension");
    let n = centers.len() / dims;
    assert!(n >= 2, "cannot split fewer than two entries");
    let center = |i: usize| &centers[i * dims..(i + 1) * dims];
    let mut seed_a = 0;
    let mut seed_b = 1;
    let mut best = -1.0;
    for i in 0..n {
        for j in (i + 1)..n {
            let d = sq_dist(center(i), center(j));
            if d > best {
                best = d;
                seed_a = i;
                seed_b = j;
            }
        }
    }
    let mut group_a = Vec::with_capacity(n);
    let mut group_b = Vec::with_capacity(n);
    for i in 0..n {
        let c = center(i);
        let da = sq_dist(c, center(seed_a));
        let db = sq_dist(c, center(seed_b));
        if da <= db && group_a.len() < cap {
            group_a.push(i);
        } else if group_b.len() < cap {
            group_b.push(i);
        } else {
            group_a.push(i);
        }
    }
    if group_a.is_empty() {
        group_a.push(group_b.pop().expect("group B has entries"));
    }
    if group_b.is_empty() {
        group_b.push(group_a.pop().expect("group A has entries"));
    }
    (group_a, group_b)
}

fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn polar_partition_separates_two_clusters() {
        let centers = [0.0, 0.0, 0.1, 0.1, 10.0, 10.0, 10.1, 9.9];
        let (a, b) = polar_partition(&centers, 2, 4);
        let low = if a.contains(&0) { &a } else { &b };
        let high = if a.contains(&0) { &b } else { &a };
        assert_eq!(low, &vec![0, 1]);
        assert_eq!(high, &vec![2, 3]);
    }

    #[test]
    fn polar_partition_respects_cap_and_covers_everything() {
        let centers: Vec<f64> = (0..7).map(f64::from).collect();
        let (a, b) = polar_partition(&centers, 1, 6);
        assert!(a.len() <= 7 && b.len() <= 6);
        let mut all: Vec<usize> = a.iter().chain(b.iter()).copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..7).collect::<Vec<_>>());
        assert!(!a.is_empty() && !b.is_empty());
    }

    #[test]
    fn polar_partition_of_identical_centers_is_non_degenerate() {
        let centers = [1.0; 5];
        let (a, b) = polar_partition(&centers, 1, 4);
        assert!(!a.is_empty() && !b.is_empty());
        assert_eq!(a.len() + b.len(), 5);
    }

    #[test]
    fn distribute_moves_every_item_once() {
        let (a, b) = distribute(vec!['x', 'y', 'z'], &[2, 0], &[1]);
        assert_eq!(a, vec!['z', 'x']);
        assert_eq!(b, vec!['y']);
    }
}
