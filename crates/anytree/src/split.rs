//! Split algorithms shared by the tree instantiations.
//!
//! Directory nodes split in one of two ways, chosen statically by the
//! payload ([`Summary::MBR_ROUTED`]):
//!
//! * **R\* topological split** over the entries' MBRs (the Bayes tree), via
//!   [`bt_index::rstar::rstar_split_corners`], reading each corner from
//!   the box [`Summary::as_mbr`] lends, so no box is copied;
//! * **polar split** (farthest-pair seeding, closer-seed assignment with
//!   capacity caps) over the entries' centres (the clustering extension).
//!
//! The polar partition is exposed so models can reuse it for their leaf
//! items as well.

use crate::node::Entry;
use crate::summary::Summary;
use bt_index::rstar::rstar_split_corners;
use bt_index::PageGeometry;

/// Splits the entries of an overfull directory node (over `dims`-dimensional
/// data) into the group that stays and the group that moves to a fresh
/// node.
#[must_use]
pub fn split_entries<S: Summary>(
    entries: Vec<Entry<S>>,
    geometry: &PageGeometry,
    dims: usize,
) -> (Vec<Entry<S>>, Vec<Entry<S>>) {
    if S::MBR_ROUTED {
        let min = geometry.min_fanout.min(entries.len() / 2).max(1);
        let split = rstar_split_corners(
            entries.len(),
            dims,
            |i, d| {
                let mbr = entries[i]
                    .summary
                    .as_mbr()
                    .expect("MBR-routed payload exposes a box");
                (mbr.lower()[d], mbr.upper()[d])
            },
            min,
        );
        // Distribute in original entry order (the membership sets decide,
        // not the sort order), matching the historical Bayes-tree split.
        let in_first: Vec<bool> = membership(entries.len(), &split.first);
        let mut first = Vec::with_capacity(split.first.len());
        let mut second = Vec::with_capacity(split.second.len());
        for (i, e) in entries.into_iter().enumerate() {
            if in_first[i] {
                first.push(e);
            } else {
                second.push(e);
            }
        }
        (first, second)
    } else {
        let centers: Vec<Vec<f64>> = entries.iter().map(|e| e.summary.center()).collect();
        let (ia, ib) = polar_partition(&centers, geometry.max_fanout);
        distribute(entries, &ia, &ib)
    }
}

fn membership(len: usize, first: &[usize]) -> Vec<bool> {
    let mut m = vec![false; len];
    for &i in first {
        m[i] = true;
    }
    m
}

/// Moves `items` into two groups given index lists (each index must appear
/// in exactly one list); group order follows the index lists.  Used by the
/// core's directory splits and exposed for models to implement their leaf
/// splits without cloning items.
///
/// # Panics
///
/// Panics if an index appears in both lists.
#[must_use]
pub fn distribute<T>(items: Vec<T>, first: &[usize], second: &[usize]) -> (Vec<T>, Vec<T>) {
    let mut slots: Vec<Option<T>> = items.into_iter().map(Some).collect();
    let take = |slots: &mut Vec<Option<T>>, idx: &[usize]| {
        idx.iter()
            .map(|&i| slots[i].take().expect("index appears once"))
            .collect::<Vec<T>>()
    };
    let a = take(&mut slots, first);
    let b = take(&mut slots, second);
    (a, b)
}

/// Farthest-pair split: seeds with the two centres farthest apart, assigns
/// every centre to the closer seed (capped at `cap` per group, overflow
/// falling back to the first group), and guarantees both groups are
/// non-empty.  Returns the index lists of both groups in scan order.
///
/// # Panics
///
/// Panics if fewer than two centres are given.
#[must_use]
pub fn polar_partition(centers: &[Vec<f64>], cap: usize) -> (Vec<usize>, Vec<usize>) {
    assert!(centers.len() >= 2, "cannot split fewer than two entries");
    let mut seed_a = 0;
    let mut seed_b = 1;
    let mut best = -1.0;
    for i in 0..centers.len() {
        for j in (i + 1)..centers.len() {
            let d = sq_dist(&centers[i], &centers[j]);
            if d > best {
                best = d;
                seed_a = i;
                seed_b = j;
            }
        }
    }
    let mut group_a = Vec::new();
    let mut group_b = Vec::new();
    for (i, c) in centers.iter().enumerate() {
        let da = sq_dist(c, &centers[seed_a]);
        let db = sq_dist(c, &centers[seed_b]);
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
        let centers = vec![
            vec![0.0, 0.0],
            vec![0.1, 0.1],
            vec![10.0, 10.0],
            vec![10.1, 9.9],
        ];
        let (a, b) = polar_partition(&centers, 4);
        let low = if a.contains(&0) { &a } else { &b };
        let high = if a.contains(&0) { &b } else { &a };
        assert_eq!(low, &vec![0, 1]);
        assert_eq!(high, &vec![2, 3]);
    }

    #[test]
    fn polar_partition_respects_cap_and_covers_everything() {
        let centers: Vec<Vec<f64>> = (0..7).map(|i| vec![i as f64]).collect();
        let (a, b) = polar_partition(&centers, 6);
        assert!(a.len() <= 7 && b.len() <= 6);
        let mut all: Vec<usize> = a.iter().chain(b.iter()).copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..7).collect::<Vec<_>>());
        assert!(!a.is_empty() && !b.is_empty());
    }

    #[test]
    fn polar_partition_of_identical_centers_is_non_degenerate() {
        let centers = vec![vec![1.0]; 5];
        let (a, b) = polar_partition(&centers, 4);
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
