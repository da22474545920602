//! A directory block splits by reading each entry's corners from its box
//! columns.  It must split exactly as the R* split over copies of those
//! boxes does: same groups, entries in their original order.

use bayestree::node::entries_block;
use bayestree::{Entry, KernelSummary};
use bt_anytree::split::distribute;
use bt_anytree::Directory;
use bt_index::rstar::rstar_split;
use bt_index::{Mbr, PageGeometry};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `n` entries over `dims` dimensions, each summarising one to four points.
/// With `grid`, coordinates snap to a coarse grid so sort keys tie.
fn entries(n: usize, dims: usize, grid: bool, seed: u64) -> Vec<Entry> {
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
            let summary = KernelSummary::from_points(&points, dims).expect("non-empty");
            Entry { summary, child }
        })
        .collect()
}

/// The child ids of both groups: the R* split over copies of the boxes,
/// distributed in original entry order.
fn copied_box_split(entries: &[Entry], min: usize) -> [Vec<usize>; 2] {
    let boxes: Vec<Mbr> = entries.iter().map(|e| e.mbr.clone()).collect();
    let split = rstar_split(&boxes, min);
    let mut first = split.first;
    let mut second = split.second;
    first.sort_unstable();
    second.sort_unstable();
    let ids: Vec<usize> = entries.iter().map(|e| e.child).collect();
    let (a, b) = distribute(ids, &first, &second);
    [a, b]
}

fn check_splits() {
    let mut cases = 0;
    for dims in [1usize, 2, 16] {
        for (max_fanout, extra) in [(4usize, 1usize), (8, 1), (8, 6), (16, 1), (16, 12)] {
            let geometry = PageGeometry::from_fanout(max_fanout, 30);
            let n = max_fanout + extra;
            for grid in [false, true] {
                let seed = (dims * 1000 + n * 10 + usize::from(grid)) as u64;
                let entries = entries(n, dims, grid, seed);
                let min = geometry.min_fanout.min(n / 2).max(1);
                let expected = copied_box_split(&entries, min);
                let (first, second) = entries_block(&entries).split_in_two(&geometry, dims);
                let got = [
                    (0..first.len()).map(|i| first.child(i)).collect::<Vec<_>>(),
                    (0..second.len())
                        .map(|i| second.child(i))
                        .collect::<Vec<_>>(),
                ];
                assert_eq!(got, expected, "dims {dims}, n {n}, grid {grid}");
                cases += 1;
            }
        }
    }
    assert_eq!(cases, 30);
}

#[test]
fn f64_directory_split_matches_owned_mbr_split() {
    check_splits();
}
