//! Adversarial enclosure of the cluster-feature density bounds.
//!
//! A full-width Bayes tree bounds an entry's refined contribution with the
//! Jensen and Edmundson–Madansky terms of its cluster feature (see
//! `bt_stats::kernel::certified_bounds`).  Those terms read the mean scaled
//! squared distance `ā`, computed from `SS/n - m^2`, so they are only as
//! sound as that difference.  These tests feed the bounds the inputs that
//! strain it:
//!
//! * duplicate points — zero variances, point boxes, and entries whose
//!   points sit at the two ends of their box, where the chord bound is
//!   exact and a variance raised by the floor would cut below the truth;
//! * near-duplicates — variances far below `VARIANCE_FLOOR`;
//! * constant dimensions — a zero variance beside real spread;
//! * a mean offset of `1e4` with a spread of `1e-4` — `SS/n` and `m^2`
//!   agree in their first twelve digits, so their difference is mostly
//!   rounding;
//!
//! each at bandwidths `1e-3` and `10`, on live trees and snapshots of one,
//! two and four shards.  At every budget the exact density (the flat sum
//! over every stored point) must lie in `[lower, upper]` within a relative
//! `1e-12`, and each budget's interval must nest inside the previous one's
//! — for density queries and for outlier scoring, whose widest-bound order
//! is the certify path.

use anytime_stream_mining::bayestree::{BayesTree, BayesTreeSnapshot, DescentStrategy};
use anytime_stream_mining::index::PageGeometry;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const DIMS: usize = 3;
const BANDWIDTHS: [f64; 2] = [1e-3, 10.0];
const SHARDS: [usize; 3] = [1, 2, 4];
const BUDGETS: [usize; 18] = [
    0, 1, 2, 3, 4, 5, 6, 8, 10, 12, 16, 20, 24, 32, 40, 48, 64, 1000,
];
const REL: f64 = 1e-12;

/// A fixture: the points to store and the queries to ask, both scaled to
/// the bandwidth `h`.
struct Fixture {
    points: Vec<Vec<f64>>,
    queries: Vec<Vec<f64>>,
}

fn shuffled(mut points: Vec<Vec<f64>>, rng: &mut StdRng) -> Vec<Vec<f64>> {
    for i in (1..points.len()).rev() {
        points.swap(i, rng.random_range(0..i + 1));
    }
    points
}

/// Stored points nudged by up to `h / 2` per dimension.
fn nudged(points: &[Vec<f64>], h: f64, count: usize, rng: &mut StdRng) -> Vec<Vec<f64>> {
    (0..count)
        .map(|_| {
            let p = &points[rng.random_range(0..points.len())];
            p.iter()
                .map(|v| v + h * (rng.random::<f64>() - 0.5))
                .collect()
        })
        .collect()
}

/// Four sites on one axis, each stored 40 times.  The other two dimensions
/// are constant, so every entry's box is a segment and an entry holding
/// two sites has its points at the segment's ends.  Queries sit on the
/// axis (beyond the ends, between sites) and just off it.
fn duplicate_sites(h: f64, rng: &mut StdRng) -> Fixture {
    let sites = [0.0, h, 2.5 * h, 4.0 * h];
    let site = |x: f64| vec![x, 0.25, -3.0];
    let points = sites
        .iter()
        .flat_map(|&x| std::iter::repeat_n(site(x), 40))
        .collect();
    let mut queries: Vec<Vec<f64>> = [-h, -0.3 * h, 0.5 * h, 1.7 * h, 3.2 * h, 4.4 * h, 5.0 * h]
        .iter()
        .map(|&x| site(x))
        .collect();
    queries.push(vec![4.5 * h, 0.25 + 0.3 * h, -3.0]);
    queries.push(vec![2.0 * h, 0.25, -3.0 - 0.6 * h]);
    Fixture {
        points: shuffled(points, rng),
        queries,
    }
}

/// Three sites a bandwidth apart, each stored 50 times with a jitter of
/// `1e-6 h` (a few ulps when `h` is `1e-3`): variances far below the
/// floor, and boxes that are not quite points.
fn near_duplicates(h: f64, rng: &mut StdRng) -> Fixture {
    let sites = [
        [1.0, 2.0, 3.0],
        [1.0 + h, 2.0, 3.0 - h],
        [1.0, 2.0 + h, 3.0],
    ];
    let mut points = Vec::new();
    for site in &sites {
        for _ in 0..50 {
            points.push(
                site.iter()
                    .map(|v| v + 1e-6 * h * (rng.random::<f64>() - 0.5))
                    .collect(),
            );
        }
    }
    let mut queries = nudged(&points, h, 6, rng);
    queries.push(vec![1.0 - h, 2.0, 3.0 + h]);
    queries.push(vec![1.0 + 2.0 * h, 2.0, 3.0 - 2.0 * h]);
    Fixture {
        points: shuffled(points, rng),
        queries,
    }
}

/// 150 points spread over `20 h` in two dimensions, constant in the third.
fn constant_dimension(h: f64, rng: &mut StdRng) -> Fixture {
    let points: Vec<Vec<f64>> = (0..150)
        .map(|_| {
            vec![
                20.0 * h * rng.random::<f64>(),
                7.0,
                -20.0 * h * rng.random::<f64>(),
            ]
        })
        .collect();
    let mut queries = nudged(&points, h, 6, rng);
    queries.push(vec![-h, 7.0, h]);
    queries.push(vec![10.0 * h, 7.0 + h, -10.0 * h]);
    Fixture { points, queries }
}

/// 150 points `1e4 + 1e-4 * uniform` in every dimension: `SS/n - m^2`
/// cancels in its first twelve digits.
fn offset_cancellation(h: f64, rng: &mut StdRng) -> Fixture {
    let points: Vec<Vec<f64>> = (0..150)
        .map(|_| {
            (0..DIMS)
                .map(|_| 1e4 + 1e-4 * rng.random::<f64>())
                .collect()
        })
        .collect();
    let mut queries = nudged(&points, h.min(1e-4), 6, rng);
    queries.push(vec![1e4 + 5e-5; DIMS]);
    queries.push(vec![1e4 - h, 1e4 + 5e-5, 1e4 + 1e-4 + h]);
    Fixture { points, queries }
}

/// `lower <= exact <= upper` within `REL`, and `[lower, upper]` inside the
/// previous budget's interval within `REL` of its bounds.
fn check_step(
    (lower, upper): (f64, f64),
    previous: Option<(f64, f64)>,
    exact: f64,
    what: &dyn Fn() -> String,
) {
    assert!(
        lower <= exact * (1.0 + REL),
        "{}: lower {lower:e} above exact {exact:e}",
        what()
    );
    assert!(
        upper >= exact * (1.0 - REL),
        "{}: upper {upper:e} below exact {exact:e}",
        what()
    );
    if let Some((last_lower, last_upper)) = previous {
        assert!(
            lower >= last_lower * (1.0 - REL),
            "{}: lower {lower:e} fell below the previous {last_lower:e}",
            what()
        );
        assert!(
            upper <= last_upper * (1.0 + REL),
            "{}: upper {upper:e} rose above the previous {last_upper:e}",
            what()
        );
    }
}

/// The two reads every tree and snapshot answers through.
trait DensityReads {
    fn density(&self, x: &[f64], budget: usize) -> (f64, f64);
    fn outlier(&self, x: &[f64], threshold: f64, budget: usize) -> (f64, f64);
}

impl DensityReads for BayesTree {
    fn density(&self, x: &[f64], budget: usize) -> (f64, f64) {
        let a = self.anytime_density(x, DescentStrategy::default(), budget);
        (a.lower, a.upper)
    }

    fn outlier(&self, x: &[f64], threshold: f64, budget: usize) -> (f64, f64) {
        let a = self.outlier_score(x, threshold, budget).answer;
        (a.lower, a.upper)
    }
}

impl DensityReads for BayesTreeSnapshot {
    fn density(&self, x: &[f64], budget: usize) -> (f64, f64) {
        let a = self.anytime_density(x, DescentStrategy::default(), budget);
        (a.lower, a.upper)
    }

    fn outlier(&self, x: &[f64], threshold: f64, budget: usize) -> (f64, f64) {
        let a = self.outlier_score(x, threshold, budget).answer;
        (a.lower, a.upper)
    }
}

fn check_reads(reads: &dyn DensityReads, tree: &BayesTree, queries: &[Vec<f64>], what: &str) {
    for (q, x) in queries.iter().enumerate() {
        let exact = tree.full_kernel_density(x);
        assert!(exact > 0.0, "{what}, query {q}: exact density underflows");
        let (mut density, mut outlier) = (None, None);
        for budget in BUDGETS {
            let here = || format!("{what}, query {q}, budget {budget}");
            let bounds = reads.density(x, budget);
            check_step(bounds, density, exact, &|| format!("{}, density", here()));
            density = Some(bounds);
            // At the exact density no verdict is ever certain, so outlier
            // scoring refines as far as the budget allows.
            let bounds = reads.outlier(x, exact, budget);
            check_step(bounds, outlier, exact, &|| format!("{}, outlier", here()));
            outlier = Some(bounds);
        }
    }
}

fn check_fixture(name: &str, seed: u64, build: fn(f64, &mut StdRng) -> Fixture) {
    for h in BANDWIDTHS {
        let mut rng = StdRng::seed_from_u64(seed);
        let fixture = build(h, &mut rng);
        for shards in SHARDS {
            let mut tree: BayesTree =
                BayesTree::sharded(DIMS, PageGeometry::from_fanout(4, 6), shards);
            tree.insert_batch(fixture.points.clone());
            tree.set_bandwidth(vec![h; DIMS]);
            assert_eq!(tree.num_shards(), shards);
            let what = format!("{name}, h {h}, {shards} shard(s)");
            check_reads(&tree, &tree, &fixture.queries, &format!("{what}, live"));
            let snapshot = tree.snapshot();
            check_reads(
                &snapshot,
                &tree,
                &fixture.queries,
                &format!("{what}, snapshot"),
            );
        }
    }
}

#[test]
fn cf_bounds_enclose_duplicate_sites() {
    check_fixture("duplicate sites", 0xCF01, duplicate_sites);
}

#[test]
fn cf_bounds_enclose_near_duplicates() {
    check_fixture("near duplicates", 0xCF02, near_duplicates);
}

#[test]
fn cf_bounds_enclose_a_constant_dimension() {
    check_fixture("constant dimension", 0xCF03, constant_dimension);
}

#[test]
fn cf_bounds_enclose_a_cancelling_offset() {
    check_fixture("offset 1e4, spread 1e-4", 0xCF04, offset_cancellation);
}
