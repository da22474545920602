//! Property-based tests on the core data structures and their invariants:
//! cluster-feature additivity, Bayes-tree structural invariants under
//! arbitrary insertion orders, space-filling-curve permutations, STR
//! partitioning, the probability-density-query consistency between the
//! incremental frontier and the non-incremental reference implementation,
//! the [`DepthHistogram`] merge algebra, the monotone-refinement contract of
//! the anytime query engine (for both tree instantiations), and the
//! observable equivalence of full-budget cursor classification with the
//! flat-density reference.

use anytime_stream_mining::anytree::{DepthHistogram, QueryCursor, RefineOrder, TreeView};
use anytime_stream_mining::bayestree::pdq::pdq;
use anytime_stream_mining::bayestree::BayesTree;
use anytime_stream_mining::bayestree::{
    build_tree, AnytimeClassifier, BulkLoadMethod, ClassifierConfig, DescentStrategy,
};
use anytime_stream_mining::clustree::{ClusTree, ClusTreeConfig, InsertOutcome};
use anytime_stream_mining::index::{
    hilbert_sort_order, str_partition, z_order_sort_order, Mbr, PageGeometry,
};
use anytime_stream_mining::stats::kl::kl_diag_gaussian;
use anytime_stream_mining::stats::{ClusterFeature, DiagGaussian};
use proptest::prelude::*;

/// The initial frontier of `query` over `tree`'s one shard: the root's
/// entries.
fn start(tree: &BayesTree, query: &[f64]) -> QueryCursor {
    tree.shard(0).new_query(&tree.query_model(), query)
}

/// One refinement step (one node read) in the default descent strategy.
fn refine(tree: &BayesTree, cursor: &mut QueryCursor) -> bool {
    tree.shard(0).refine_query(
        &tree.query_model(),
        DescentStrategy::default().into(),
        cursor,
    )
}

/// Strategy producing a small set of bounded 3-d points.
fn points_strategy(max_len: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(prop::collection::vec(-50.0f64..50.0, 3), 1..max_len)
}

/// Strategy producing a random list of encoded insertion outcomes
/// (0 = reached leaf, d > 0 = parked at depth d).
fn outcomes_strategy(max_len: usize) -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(0usize..8, 0..max_len)
}

fn histogram_of(encoded: &[usize]) -> DepthHistogram {
    let mut h = DepthHistogram::default();
    for &code in encoded {
        h.record(match code {
            0 => InsertOutcome::ReachedLeaf,
            depth => InsertOutcome::Parked { depth },
        });
    }
    h
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn cluster_feature_merge_matches_bulk_construction(points in points_strategy(60), split in 0usize..60) {
        let dims = 3;
        let split = split.min(points.len());
        let mut left: ClusterFeature = ClusterFeature::from_points(points[..split].iter().map(Vec::as_slice), dims);
        let right: ClusterFeature = ClusterFeature::from_points(points[split..].iter().map(Vec::as_slice), dims);
        let all: ClusterFeature = ClusterFeature::from_points(points.iter().map(Vec::as_slice), dims);
        left.merge(&right);
        prop_assert!((left.weight() - all.weight()).abs() < 1e-9);
        for d in 0..dims {
            prop_assert!((left.linear_sum()[d] - all.linear_sum()[d]).abs() < 1e-6);
            prop_assert!((left.squared_sum()[d] - all.squared_sum()[d]).abs() < 1e-4);
        }
    }

    #[test]
    fn cf_mean_and_variance_stay_within_data_bounds(points in points_strategy(40)) {
        let cf: ClusterFeature = ClusterFeature::from_points(points.iter().map(Vec::as_slice), 3);
        let mean = cf.mean();
        for d in 0..3 {
            let lo = points.iter().map(|p| p[d]).fold(f64::INFINITY, f64::min);
            let hi = points.iter().map(|p| p[d]).fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(mean[d] >= lo - 1e-9 && mean[d] <= hi + 1e-9);
            let spread = hi - lo;
            prop_assert!(cf.variance()[d] <= spread * spread + 1e-6);
        }
    }

    #[test]
    fn iterative_insertion_preserves_tree_invariants(points in points_strategy(120)) {
        let mut tree: BayesTree = BayesTree::new(3, PageGeometry::from_fanout(4, 5));
        for p in &points {
            tree.insert(p.clone());
        }
        prop_assert_eq!(tree.len(), points.len());
        prop_assert!(tree.validate(true).is_ok(), "{:?}", tree.validate(true));
    }

    #[test]
    fn bulk_loads_preserve_tree_invariants(points in points_strategy(100), seed in 0u64..1000) {
        let geometry = PageGeometry::from_fanout(4, 6);
        for method in [BulkLoadMethod::Hilbert, BulkLoadMethod::Str, BulkLoadMethod::EmTopDown] {
            let tree = build_tree(&points, 3, geometry, method, seed);
            prop_assert_eq!(tree.len(), points.len());
            prop_assert!(tree.validate(method.guarantees_balance()).is_ok());
        }
    }

    #[test]
    fn frontier_density_matches_reference_pdq_at_root(points in points_strategy(80), qx in -50.0f64..50.0) {
        let tree = build_tree(&points, 3, PageGeometry::from_fanout(4, 6), BulkLoadMethod::Hilbert, 0);
        let query = vec![qx, 0.0, 0.0];
        let frontier = start(&tree, &query);
        let reference = pdq(&tree.root_entries(), &query);
        prop_assert!((frontier.estimate().max(0.0) - reference).abs() <= 1e-9 * (1.0 + reference));
    }

    #[test]
    fn full_refinement_reaches_kernel_density(points in points_strategy(60), qx in -50.0f64..50.0) {
        let tree = build_tree(&points, 3, PageGeometry::from_fanout(4, 6), BulkLoadMethod::Str, 0);
        let query = vec![qx, qx * 0.5, -qx];
        let mut frontier = start(&tree, &query);
        while refine(&tree, &mut frontier) {}
        let expected = tree.full_kernel_density(&query);
        prop_assert!((frontier.estimate().max(0.0) - expected).abs() <= 1e-9 * (1.0 + expected));
    }

    #[test]
    fn hilbert_and_zorder_orders_are_permutations(points in points_strategy(80)) {
        for order in [hilbert_sort_order(&points, 8), z_order_sort_order(&points, 8)] {
            let mut sorted = order.clone();
            sorted.sort_unstable();
            prop_assert_eq!(sorted, (0..points.len()).collect::<Vec<_>>());
        }
    }

    #[test]
    fn str_partition_covers_all_points_within_capacity(points in points_strategy(90), capacity in 2usize..20) {
        let groups = str_partition(&points, capacity);
        let mut all: Vec<usize> = groups.iter().flatten().copied().collect();
        all.sort_unstable();
        prop_assert_eq!(all, (0..points.len()).collect::<Vec<_>>());
        prop_assert!(groups.iter().all(|g| g.len() <= capacity));
    }

    #[test]
    fn mbr_union_contains_both_operands(
        a in prop::collection::vec(-10.0f64..10.0, 2),
        b in prop::collection::vec(-10.0f64..10.0, 2),
    ) {
        let ma: Mbr = Mbr::from_point(&a);
        let mb: Mbr = Mbr::from_point(&b);
        let u = ma.union(&mb);
        prop_assert!(u.contains_point(&a));
        prop_assert!(u.contains_point(&b));
        prop_assert!(u.min_dist_sq(&a) == 0.0);
    }

    #[test]
    fn kl_divergence_is_non_negative_and_zero_on_self(
        mean in prop::collection::vec(-5.0f64..5.0, 3),
        var in prop::collection::vec(0.01f64..4.0, 3),
        mean2 in prop::collection::vec(-5.0f64..5.0, 3),
        var2 in prop::collection::vec(0.01f64..4.0, 3),
    ) {
        let p = DiagGaussian::new(mean.clone(), var.clone());
        let q = DiagGaussian::new(mean2, var2);
        prop_assert!(kl_diag_gaussian(&p, &q) >= -1e-12);
        prop_assert!(kl_diag_gaussian(&p, &p).abs() < 1e-9);
    }

    #[test]
    fn gaussian_pdf_is_bounded_by_its_peak(
        mean in prop::collection::vec(-5.0f64..5.0, 2),
        var in prop::collection::vec(0.05f64..4.0, 2),
        x in prop::collection::vec(-20.0f64..20.0, 2),
    ) {
        let g = DiagGaussian::new(mean.clone(), var);
        let at_mean = g.pdf(&mean);
        prop_assert!(g.pdf(&x) <= at_mean + 1e-12);
        prop_assert!(g.pdf(&x) >= 0.0);
    }

    #[test]
    fn depth_histogram_merge_is_commutative_associative_with_identity(
        a in outcomes_strategy(40),
        b in outcomes_strategy(40),
        c in outcomes_strategy(40),
    ) {
        let (ha, hb, hc) = (histogram_of(&a), histogram_of(&b), histogram_of(&c));

        // Identity: merging the empty histogram changes nothing.
        let mut with_identity = ha.clone();
        with_identity.merge(&DepthHistogram::default());
        prop_assert_eq!(&with_identity, &ha);
        let mut identity_first = DepthHistogram::default();
        identity_first.merge(&ha);
        prop_assert_eq!(&identity_first, &ha);

        // Commutativity: a ∪ b == b ∪ a.
        let mut ab = ha.clone();
        ab.merge(&hb);
        let mut ba = hb.clone();
        ba.merge(&ha);
        prop_assert_eq!(&ab, &ba);

        // Associativity: (a ∪ b) ∪ c == a ∪ (b ∪ c).
        let mut ab_c = ab.clone();
        ab_c.merge(&hc);
        let mut bc = hb.clone();
        bc.merge(&hc);
        let mut a_bc = ha.clone();
        a_bc.merge(&bc);
        prop_assert_eq!(&ab_c, &a_bc);

        // The merge is a plain sum, so totals add up.
        prop_assert_eq!(ab_c.total(), a.len() + b.len() + c.len());
    }

    #[test]
    fn bayes_query_refinement_is_monotone(points in points_strategy(80), qx in -50.0f64..50.0) {
        // More budget never worsens the bound: the certain interval around
        // the density can only tighten, and it always brackets the fully
        // refined answer.
        let tree = build_tree(&points, 3, PageGeometry::from_fanout(4, 6), BulkLoadMethod::Hilbert, 1);
        let query = vec![qx, -qx * 0.5, qx * 0.25];
        let truth = tree.full_kernel_density(&query);
        let mut frontier = start(&tree, &query);
        let mut last = frontier.uncertainty();
        loop {
            let (lower, upper) = frontier.bounds();
            prop_assert!(lower <= truth + 1e-12 && truth <= upper + 1e-12,
                "bounds [{lower}, {upper}] miss the fully refined density {truth}");
            if !refine(&tree, &mut frontier) {
                break;
            }
            prop_assert!(frontier.uncertainty() <= last + 1e-12, "refinement widened the bound");
            last = frontier.uncertainty();
        }
        prop_assert!(frontier.uncertainty() < 1e-12, "full refinement must collapse the bound");
    }

    #[test]
    fn clustree_query_refinement_is_monotone(
        points in points_strategy(80),
        budget in 0usize..12,
        qx in -50.0f64..50.0,
    ) {
        // The same contract holds on the clustering index, including trees
        // whose hitchhiker buffers hold parked mass (small insert budgets).
        let mut tree = ClusTree::new(3, ClusTreeConfig::default());
        for (t, p) in points.iter().enumerate() {
            tree.insert(p, t as f64, budget);
        }
        let bandwidth = [5.0, 5.0, 5.0];
        let query = vec![qx, qx, -qx];
        let mut last = f64::INFINITY;
        let mut last_lower = 0.0f64;
        for query_budget in [0usize, 1, 2, 4, 8, 16, 64, usize::MAX] {
            let answer = tree.anytime_density(&query, &bandwidth, RefineOrder::WidestBound, query_budget);
            prop_assert!(answer.lower <= answer.upper + 1e-12);
            prop_assert!(answer.lower >= last_lower - 1e-12, "lower bound regressed");
            prop_assert!(answer.uncertainty() <= last + 1e-12, "budget {query_budget} widened the bound");
            last = answer.uncertainty();
            last_lower = answer.lower;
        }
    }

    #[test]
    fn full_budget_cursor_classification_matches_the_flat_reference(
        seed in 0u64..500,
    ) {
        // The rebased query path must be observably equivalent to the
        // pre-refactor one at full budget: every class frontier refines to
        // the flat kernel density, so the posteriors equal the normalised
        // prior-weighted flat densities.
        let dataset = anytime_stream_mining::data::synth::blobs::BlobConfig::new(3, 3)
            .samples_per_class(40)
            .seed(seed)
            .generate();
        let config = ClassifierConfig {
            geometry: Some(PageGeometry::from_fanout(4, 5)),
            ..ClassifierConfig::default()
        };
        let classifier = AnytimeClassifier::train(&dataset, &config);
        for x in dataset.features().iter().step_by(17) {
            // 10k node reads exhausts every frontier of these small trees —
            // "full budget" without overflowing the trace preallocation.
            let result = classifier.classify_with_budget(x, 10_000);
            let joint: Vec<f64> = classifier
                .trees()
                .iter()
                .zip(classifier.priors())
                .map(|(tree, &prior)| prior * tree.full_kernel_density(x))
                .collect();
            let total: f64 = joint.iter().sum();
            prop_assert!(total > 0.0, "reference densities underflowed");
            // The incremental cursor sums the same kernel terms in a
            // different order than the flat reference (with compensated
            // accumulation), so agreement is float-level, not bitwise.
            let mut reference: Vec<f64> = joint.iter().map(|j| j / total).collect();
            for (posterior, r) in result.posteriors.iter().zip(&reference) {
                prop_assert!((posterior - r).abs() < 1e-9,
                    "posterior {posterior} vs reference {r}");
            }
            reference.sort_by(|a, b| b.partial_cmp(a).unwrap());
            if reference[0] - reference[1] > 1e-9 {
                // Clear winner: the decision itself must agree.
                let best = joint
                    .iter()
                    .enumerate()
                    .max_by(|(_, a), (_, b)| a.partial_cmp(b).unwrap())
                    .map(|(i, _)| i)
                    .unwrap();
                prop_assert_eq!(result.label, best);
            }
        }
    }
}
