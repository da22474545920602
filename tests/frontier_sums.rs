//! The query cursor keeps its estimate and its certain bounds as running
//! compensated sums: every node read subtracts the refined element and
//! adds its children.  When large terms cancel (a peaked kernel far below
//! the upper bound of the box it sat in) a sum can lose everything small
//! that was added while the large terms were live.  These tests hold the
//! enclosure the cursor promises on trees built to provoke exactly that:
//!
//! * `0 <= lower <= exact <= upper` at every budget, relative `1e-12`,
//!   where `exact` is the tree's flat kernel density,
//! * a fully refined estimate equal to `exact` within relative `1e-12`,
//!
//! for density queries and outlier scoring, on one-shard and two-shard
//! trees.  The trees hold 60–119 points uniform in `[0, 4]^16` with a
//! narrow bandwidth `h` in every dimension, so kernels are astronomically
//! peaked and densities range down to underflow.
//!
//! One more tree holds 200 copies of one 80-d point beside 200 points
//! spread over `[0, 10)^80`.  Queried on the copies, the Gaussian of the
//! copies' entry overflows to a `+inf` term while the exact density is
//! about `1e-67`; the running estimate must recover once that term is
//! refined away, on the live tree and on a snapshot.

use anytime_stream_mining::anytree::ShardSet;
use anytime_stream_mining::bayestree::{
    BayesIndex, BayesTree, DescentStrategy, KernelSummary, PointColumns,
};
use anytime_stream_mining::index::PageGeometry;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const DIMS: usize = 16;
const BUDGETS: [usize; 8] = [0, 1, 2, 4, 8, 16, 64, 1000];
const QUERIES: usize = 20;
const TREES_PER_BANDWIDTH: u64 = 6;
const REL: f64 = 1e-12;

fn uniform_point(rng: &mut StdRng) -> Vec<f64> {
    (0..DIMS).map(|_| 4.0 * rng.random::<f64>()).collect()
}

/// A tree of 60–119 uniform points with bandwidth `h`, as `shards` shards,
/// plus its queries: half uniform, half a stored point nudged by `h`, so
/// both underflowing and measurable densities are covered.
fn fixture(seed: u64, h: f64, shards: usize) -> (BayesTree, Vec<Vec<f64>>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.random_range(60..120usize);
    let points: Vec<Vec<f64>> = (0..n).map(|_| uniform_point(&mut rng)).collect();
    let geometry = if seed.is_multiple_of(2) {
        PageGeometry::default_for_dims(DIMS)
    } else {
        PageGeometry::from_fanout(4, 6)
    };
    let mut tree: BayesTree = BayesTree::sharded(DIMS, geometry, shards);
    tree.insert_batch(points.clone());
    tree.set_bandwidth(vec![h; DIMS]);
    let queries = (0..QUERIES)
        .map(|q| {
            if q.is_multiple_of(2) {
                uniform_point(&mut rng)
            } else {
                let p = &points[rng.random_range(0..n)];
                p.iter()
                    .map(|v| v + h * (rng.random::<f64>() - 0.5))
                    .collect()
            }
        })
        .collect();
    (tree, queries)
}

/// `0 <= lower <= exact <= upper`, relative `REL`.
fn assert_encloses(lower: f64, upper: f64, exact: f64, what: &str) {
    let slack = REL * exact;
    assert!(lower >= 0.0, "{what}: negative lower bound {lower:e}");
    assert!(
        lower <= exact + slack,
        "{what}: lower {lower:e} above exact {exact:e}"
    );
    assert!(
        upper >= exact - slack,
        "{what}: upper {upper:e} below exact {exact:e}"
    );
}

/// Checks every query against the live tree's flat kernel density, read
/// through `tree` (the live tree itself or a snapshot of it).
fn check_tree<C: ShardSet<KernelSummary, PointColumns>>(
    tree: &BayesIndex<C>,
    live: &BayesTree,
    queries: &[Vec<f64>],
    what: &str,
) {
    for (q, x) in queries.iter().enumerate() {
        let exact = live.full_kernel_density(x);
        for budget in BUDGETS {
            let what = format!("{what}, query {q}, budget {budget}");
            let answer = tree.anytime_density(x, DescentStrategy::default(), budget);
            assert_encloses(
                answer.lower,
                answer.upper,
                exact,
                &format!("{what}, density"),
            );
            if answer.nodes_read < budget {
                // Fully refined: the estimate is the exact density.
                assert!(
                    (answer.estimate - exact).abs() <= REL * exact,
                    "{what}: fully refined estimate {:e} != exact {exact:e}",
                    answer.estimate
                );
            }
            // Outlier scoring at the exact density never certifies a
            // verdict early, so it refines as far as the budget allows.
            let score = tree.outlier_score(x, exact, budget);
            assert_encloses(
                score.answer.lower,
                score.answer.upper,
                exact,
                &format!("{what}, outlier"),
            );
        }
    }
}

fn check_bandwidth(h: f64, seed_base: u64) {
    for t in 0..TREES_PER_BANDWIDTH {
        let seed = seed_base + t;
        for shards in [1, 2] {
            let (tree, queries) = fixture(seed, h, shards);
            assert_eq!(tree.num_shards(), shards);
            check_tree(
                &tree,
                &tree,
                &queries,
                &format!("h {h}, seed {seed}, {shards} shard(s)"),
            );
        }
    }
}

#[test]
fn bounds_enclose_the_exact_density_at_h_0_2() {
    check_bandwidth(0.2, 0xF500);
}

#[test]
fn bounds_enclose_the_exact_density_at_h_0_05() {
    check_bandwidth(0.05, 0xF600);
}

#[test]
fn bounds_enclose_the_exact_density_at_h_0_01() {
    check_bandwidth(0.01, 0xF700);
}

#[test]
fn bounds_enclose_the_exact_density_beside_an_overflowing_entry() {
    const DIMS: usize = 80;
    let mut rng = StdRng::seed_from_u64(0xF800);
    let copy = vec![0.5; DIMS];
    let mut points = vec![copy.clone(); 200];
    points.extend((0..200).map(|_| (0..DIMS).map(|_| 10.0 * rng.random::<f64>()).collect()));
    let mut tree: BayesTree = BayesTree::new(DIMS, PageGeometry::from_page_size(32768, DIMS));
    tree.insert_batch(points);
    tree.fit_bandwidth();
    let snapshot = tree.snapshot();
    // The overflowing term reads as `+inf` while it is on the frontier,
    // never as NaN.
    for budget in BUDGETS {
        for estimate in [
            tree.anytime_density(&copy, DescentStrategy::default(), budget),
            snapshot.anytime_density(&copy, DescentStrategy::default(), budget),
        ]
        .map(|answer| answer.estimate)
        {
            assert!(!estimate.is_nan(), "budget {budget}: NaN estimate");
        }
    }
    let queries = [copy];
    check_tree(&tree, &tree, &queries, "copies beside spread points, live");
    check_tree(
        &snapshot,
        &tree,
        &queries,
        "copies beside spread points, snapshot",
    );
}
