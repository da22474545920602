//! Directory splits read each entry's box through `Summary::mbr_corner`.
//!
//! Both stored modes must split exactly as the R* split over full-width
//! `owned_mbr()` copies does: same groups, entries in their original order.
//! Quantised boxes are decoded per corner, and both accessors must agree
//! bit for bit, so the partitions must too.

use bayestree::{Entry, Quantized, StoredElement, StoredSummary};
use bt_anytree::split::{distribute, split_entries};
use bt_anytree::Summary;
use bt_index::rstar::rstar_split;
use bt_index::{Mbr, PageGeometry};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `n` entries over `dims` dimensions, each summarising one to four points.
/// With `grid`, coordinates snap to a coarse grid so sort keys tie.
fn entries<E: StoredElement>(n: usize, dims: usize, grid: bool, seed: u64) -> Vec<Entry<E>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|child| {
            let count = rng.random_range(1..5usize);
            let points: Vec<Vec<f64>> = (0..count)
                .map(|_| {
                    (0..dims)
                        .map(|_| {
                            let x = rng.random::<f64>() * 6.0 - 3.0;
                            if grid {
                                x.round()
                            } else {
                                x
                            }
                        })
                        .collect()
                })
                .collect();
            let summary = E::Summary::from_points(&points, dims).expect("non-empty");
            bt_anytree::Entry::new(summary, child)
        })
        .collect()
}

/// The child ids of both groups: the R* split over owned full-width boxes,
/// distributed in original entry order.
fn owned_mbr_split<S: Summary>(entries: &[bt_anytree::Entry<S>], min: usize) -> [Vec<usize>; 2] {
    let boxes: Vec<Mbr> = entries
        .iter()
        .map(|e| e.summary.owned_mbr().expect("MBR-routed payload"))
        .collect();
    let split = rstar_split(&boxes, min);
    let mut first = split.first;
    let mut second = split.second;
    first.sort_unstable();
    second.sort_unstable();
    let ids: Vec<usize> = entries.iter().map(|e| e.child).collect();
    let (a, b) = distribute(ids, &first, &second);
    [a, b]
}

fn check_mode<E: StoredElement>() {
    let mut cases = 0;
    for dims in [1usize, 2, 16] {
        for (max_fanout, extra) in [(4usize, 1usize), (8, 1), (8, 6), (16, 1), (16, 12)] {
            let geometry = PageGeometry::from_fanout(max_fanout, 30);
            let n = max_fanout + extra;
            for grid in [false, true] {
                let seed = (dims * 1000 + n * 10 + usize::from(grid)) as u64;
                let entries = entries::<E>(n, dims, grid, seed);
                let min = geometry.min_fanout.min(n / 2).max(1);
                let expected = owned_mbr_split(&entries, min);
                let (first, second) = split_entries(entries, &geometry, dims);
                let got = [
                    first.iter().map(|e| e.child).collect::<Vec<_>>(),
                    second.iter().map(|e| e.child).collect::<Vec<_>>(),
                ];
                assert_eq!(
                    got,
                    expected,
                    "{} mode, dims {dims}, n {n}, grid {grid}",
                    E::MODE
                );
                cases += 1;
            }
        }
    }
    assert_eq!(cases, 30);
}

#[test]
fn f64_directory_split_matches_owned_mbr_split() {
    check_mode::<f64>();
}

#[test]
fn quantized_directory_split_matches_owned_mbr_split() {
    check_mode::<Quantized>();
}
