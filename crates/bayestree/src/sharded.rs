//! Tests of the Bayes tree at `K` shards: batches split across the shards
//! and descend in parallel, and every facade folds the shards into one
//! mixture.  Kernel density estimates are sums over kernels, so the
//! full-model density is the same however the kernels are partitioned.

#[cfg(test)]
mod tests {
    use crate::descent::DescentStrategy;
    use crate::insert::KernelModel;
    use crate::query::KernelQueryModel;
    use crate::tree::{BayesCore, BayesTree};
    use crate::KernelSummary;
    use bt_anytree::{query_over, FixedPartitionRouter};
    use bt_index::PageGeometry;
    use bt_stats::KernelBandwidth;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn geometry() -> PageGeometry {
        PageGeometry::from_fanout(4, 4)
    }

    fn random_points(n: usize, dims: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| (0..dims).map(|_| rng.random::<f64>() * 10.0).collect())
            .collect()
    }

    #[test]
    fn sharded_batches_cover_every_point() {
        let points = random_points(400, 3, 1);
        let mut sharded: BayesTree = BayesTree::sharded(3, geometry(), 4);
        for chunk in points.chunks(50) {
            let routed_before: usize = sharded.shard_sizes().iter().sum();
            let result = sharded.insert_batch(chunk.to_vec());
            assert_eq!(result.outcomes.len(), chunk.len());
            let routed: usize = sharded.shard_sizes().iter().sum();
            assert_eq!(routed - routed_before, chunk.len());
        }
        assert_eq!(sharded.len(), 400);
        assert_eq!(sharded.all_points().len(), 400);
        sharded.validate(true).expect("valid sharded tree");
    }

    #[test]
    fn sharded_density_matches_the_single_tree() {
        let points = random_points(300, 2, 2);
        let mut single: BayesTree = BayesTree::new(2, geometry());
        let mut sharded: BayesTree = BayesTree::sharded(2, geometry(), 3);
        for chunk in points.chunks(32) {
            let _ = single.insert_batch(chunk.to_vec());
            let _ = sharded.insert_batch(chunk.to_vec());
        }
        single.fit_bandwidth();
        sharded.fit_bandwidth();
        // Same points, shard-major order: Silverman's rule agrees up to
        // floating-point summation order.
        for (a, b) in single.bandwidth().iter().zip(sharded.bandwidth()) {
            assert!((a - b).abs() < 1e-9 * (1.0 + a.abs()), "{a} vs {b}");
        }
        let shared = vec![0.8, 0.9];
        single.set_bandwidth(shared.clone());
        sharded.set_bandwidth(shared);
        for q in random_points(10, 2, 3) {
            let a = single.full_kernel_density(&q);
            let b = sharded.full_kernel_density(&q);
            assert!(
                (a - b).abs() <= 1e-12 * (1.0 + a.abs()),
                "density mismatch at {q:?}: {a} vs {b}"
            );
        }
    }

    #[test]
    fn fixed_router_spreads_points_evenly() {
        let mut sharded: BayesTree<f64, FixedPartitionRouter> =
            BayesTree::sharded(2, geometry(), 4);
        let _ = sharded.insert_batch(random_points(40, 2, 4));
        assert_eq!(sharded.shard_sizes(), &[10, 10, 10, 10]);
        sharded.validate(true).expect("valid");
    }

    #[test]
    fn single_inserts_work_too() {
        let mut sharded: BayesTree = BayesTree::sharded(2, geometry(), 2);
        for p in random_points(60, 2, 5) {
            sharded.insert(p);
        }
        assert_eq!(sharded.len(), 60);
        sharded.validate(true).expect("valid");
        assert_eq!(sharded.stats().batches, 60);
    }

    #[test]
    #[should_panic(expected = "dimensionality mismatch")]
    fn wrong_dims_panics() {
        let mut sharded: BayesTree = BayesTree::sharded(2, geometry(), 2);
        let _ = sharded.insert_batch(vec![vec![1.0]]);
    }

    #[test]
    fn one_shard_query_matches_the_single_tree() {
        // The reference is a directly driven core with the Bayes tree's
        // insertion policy, read as a one-view slice.
        let points = random_points(200, 2, 6);
        let mut single: BayesCore<KernelSummary> = BayesCore::new(2, geometry());
        let mut tree: BayesTree = BayesTree::new(2, geometry());
        for chunk in points.chunks(25) {
            let _ = single.insert_batch(&mut KernelModel::new(2), chunk.to_vec(), usize::MAX);
            let _ = tree.insert_batch(chunk.to_vec());
        }
        let bandwidth = vec![0.7, 0.9];
        let reference_bandwidth = KernelBandwidth::new(bandwidth.clone());
        let model = KernelQueryModel::new(points.len(), &reference_bandwidth);
        tree.set_bandwidth(bandwidth);
        let strategy = DescentStrategy::default();
        for budget in [0usize, 1, 4, 16, usize::MAX] {
            for q in random_points(5, 2, 7) {
                let views = std::slice::from_ref(&single);
                let reference = query_over(views, &model, &q, strategy.into(), budget);
                let folded = tree.anytime_density(&q, strategy, budget);
                assert_eq!(folded, reference, "budget {budget} at {q:?}");
            }
        }
    }

    #[test]
    fn sharded_density_bounds_bracket_the_flat_estimate() {
        let points = random_points(300, 2, 8);
        let mut sharded: BayesTree = BayesTree::sharded(2, geometry(), 4);
        for chunk in points.chunks(32) {
            let _ = sharded.insert_batch(chunk.to_vec());
        }
        sharded.set_bandwidth(vec![0.8, 0.8]);
        let q = vec![5.0, 5.0];
        let truth = sharded.full_kernel_density(&q);
        let mut last = f64::INFINITY;
        for budget in [0usize, 2, 8, 32, usize::MAX] {
            let answer = sharded.anytime_density(&q, DescentStrategy::default(), budget);
            assert!(
                answer.lower <= truth + 1e-12 && truth <= answer.upper + 1e-12,
                "budget {budget}: [{}, {}] misses {truth}",
                answer.lower,
                answer.upper
            );
            assert!(answer.uncertainty() <= last + 1e-12);
            last = answer.uncertainty();
        }
        // Fully refined the fold is exact.
        let full = sharded.anytime_density(&q, DescentStrategy::default(), usize::MAX);
        assert!((full.estimate - truth).abs() <= 1e-12 * (1.0 + truth));
        assert!(full.uncertainty() < 1e-12);
        // The batched path agrees with the one-shot path.
        let queries = random_points(4, 2, 9);
        let (answers, stats) = sharded.density_batch(&queries, DescentStrategy::default(), 6);
        assert_eq!(answers.len(), 4);
        assert!(stats.nodes_read > 0);
        for (answer, q) in answers.iter().zip(&queries) {
            assert_eq!(
                *answer,
                sharded.anytime_density(q, DescentStrategy::default(), 6)
            );
        }
    }

    #[test]
    fn sharded_outlier_scoring_exits_early_on_clear_verdicts() {
        use bt_anytree::OutlierVerdict;
        let points = random_points(300, 2, 11);
        let mut sharded: BayesTree = BayesTree::sharded(2, geometry(), 4);
        for chunk in points.chunks(32) {
            let _ = sharded.insert_batch(chunk.to_vec());
        }
        sharded.set_bandwidth(vec![0.5, 0.5]);
        let score = sharded.outlier_score(&[1000.0, -1000.0], 1e-6, 10_000);
        assert_eq!(score.verdict, OutlierVerdict::Outlier);
        // The verdict is certain long before every shard exhausts its
        // 10_000-read budget: the round-based refinement exits early.
        assert!(
            score.answer.nodes_read < 100,
            "spent {} reads on a clear-cut outlier",
            score.answer.nodes_read
        );
    }

    #[test]
    fn shard_sizes_are_observable() {
        let mut sharded: BayesTree<f64, FixedPartitionRouter> =
            BayesTree::sharded(2, geometry(), 4);
        let _ = sharded.insert_batch(random_points(42, 2, 10));
        assert_eq!(sharded.shard_sizes(), &[11, 11, 10, 10]);
        assert_eq!(sharded.shard_sizes().iter().sum::<usize>(), sharded.len());
    }
}
