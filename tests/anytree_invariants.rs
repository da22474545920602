//! Property tests for the extracted `bt-anytree` core: the cross-tree
//! aggregation invariant (every inner entry's summary equals the merge of
//! its child's entries plus the entry's own hitchhiker buffer) for *both*
//! instantiations, the pre-refactor insertion-outcome contract
//! (`ReachedLeaf` / `Parked { depth }`) for seeded streams, and the batched
//! descent engine's contracts: a batch of size 1 is observably equivalent to
//! sequential insertion, and the aggregation invariant survives mini-batched
//! insertion at any batch size.

use anytime_stream_mining::anytree::{NodeId, NodeKind};
use anytime_stream_mining::bayestree::node::block_entries;
use anytime_stream_mining::bayestree::{BayesCore, BayesTree, KernelSummary};
use anytime_stream_mining::clustree::{ClusTree, ClusTreeConfig, InsertOutcome, MicroCluster};
use anytime_stream_mining::index::PageGeometry;
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Bayes tree: inner entry CF/MBR == aggregate of the child node.
// ---------------------------------------------------------------------------

/// Walks the tree and asserts, for every inner entry, that its summary is
/// exactly the merge of its child's entries (or leaf points).
fn assert_bayes_aggregation(tree: &BayesTree) {
    fn visit(tree: &BayesCore<KernelSummary>, id: NodeId) {
        let node = tree.node(id);
        if let NodeKind::Inner { entries } = &node.kind {
            for entry in block_entries(entries) {
                let child = tree.node(entry.child);
                let (child_weight, child_ls): (f64, Vec<f64>) = match &child.kind {
                    NodeKind::Leaf { items } => {
                        let mut ls = vec![0.0; tree.dims()];
                        for p in items.rows() {
                            for (acc, x) in ls.iter_mut().zip(&p) {
                                *acc += x;
                            }
                        }
                        (items.len() as f64, ls)
                    }
                    NodeKind::Inner { entries } => {
                        let entries = block_entries(entries);
                        let mut ls = vec![0.0; tree.dims()];
                        for e in &entries {
                            for (acc, x) in ls.iter_mut().zip(e.cf.linear_sum()) {
                                *acc += x;
                            }
                        }
                        (entries.iter().map(|e| e.cf.weight()).sum(), ls)
                    }
                };
                assert!(
                    (entry.cf.weight() - child_weight).abs() < 1e-6,
                    "entry weight {} != child weight {child_weight}",
                    entry.cf.weight()
                );
                for (a, b) in entry.cf.linear_sum().iter().zip(&child_ls) {
                    assert!(
                        (a - b).abs() < 1e-4 * (1.0 + b.abs()),
                        "LS mismatch: {a} vs {b}"
                    );
                }
                visit(tree, entry.child);
            }
        }
    }
    for shard in tree.shards() {
        visit(shard, shard.root());
    }
}

// ---------------------------------------------------------------------------
// ClusTree: inner entry summary == child aggregate plus the entry's buffer,
// compared with decay aligned to a common timestamp.
// ---------------------------------------------------------------------------

fn weight_at(mc: &MicroCluster, now: f64, lambda: f64) -> f64 {
    mc.weight_at(now, lambda)
}

/// For every inner entry: summary mass == child subtree mass (its entries'
/// summaries, which already include mass parked below them) + the entry's
/// own hitchhiker buffer, all decayed to the same instant.
fn assert_clustree_aggregation(tree: &ClusTree) {
    let now = tree.current_time();
    let lambda = tree.config().decay_lambda;
    fn visit(core: &anytime_stream_mining::clustree::ClusCore, id: NodeId, now: f64, lambda: f64) {
        if let NodeKind::Inner { entries } = &core.node(id).kind {
            for entry in entries {
                let child_total: f64 = match &core.node(entry.child).kind {
                    NodeKind::Leaf { items } => {
                        items.iter().map(|mc| weight_at(mc, now, lambda)).sum()
                    }
                    NodeKind::Inner { entries } => entries
                        .iter()
                        .map(|e| weight_at(&e.summary, now, lambda))
                        .sum(),
                };
                let buffered = entry
                    .buffer
                    .as_ref()
                    .map_or(0.0, |b| weight_at(b, now, lambda));
                let own = weight_at(&entry.summary, now, lambda);
                assert!(
                    (own - (child_total + buffered)).abs() < 1e-6 * (1.0 + own.abs()),
                    "entry mass {own} != child {child_total} + buffer {buffered}"
                );
                visit(core, entry.child, now, lambda);
            }
        }
    }
    for core in tree.shards() {
        visit(core, core.root(), now, lambda);
    }
}

/// The pre-refactor outcome contract of the budgeted descent: with all
/// leaves at depth `height`, an insertion with budget `b` reaches a leaf
/// iff `b >= height - 1`, and otherwise parks at depth `b + 1`.
fn expected_outcome(height_before: usize, budget: usize) -> InsertOutcome {
    if budget + 1 >= height_before {
        InsertOutcome::ReachedLeaf
    } else {
        InsertOutcome::Parked { depth: budget + 1 }
    }
}

fn stream_point(i: usize, spread: f64) -> Vec<f64> {
    let c = if i.is_multiple_of(2) { 0.0 } else { spread };
    vec![c + (i % 9) as f64 * 0.1, c - (i % 7) as f64 * 0.1]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn bayes_inner_entries_aggregate_their_children(n in 1usize..160, seed in 0u64..1000) {
        let mut tree: BayesTree = BayesTree::new(2, PageGeometry::from_fanout(4, 5));
        for i in 0..n {
            let x = ((i as u64).wrapping_mul(seed + 7) % 97) as f64;
            let y = ((i as u64).wrapping_mul(31).wrapping_add(seed) % 83) as f64;
            tree.insert(vec![x, y]);
        }
        assert_bayes_aggregation(&tree);
        prop_assert!(tree.validate(true).is_ok(), "{:?}", tree.validate(true));
    }

    #[test]
    fn clustree_inner_entries_aggregate_children_plus_buffer(
        n in 2usize..250,
        lambda in 0.0f64..0.3,
        budget_cap in 1usize..8,
    ) {
        // Irrelevance reuse deliberately drops aged-out mass from leaves
        // without updating ancestors (it decays away there), so the exact
        // aggregation invariant is asserted with reuse disabled.
        let config = ClusTreeConfig {
            decay_lambda: lambda,
            irrelevance_threshold: 0.0,
            ..ClusTreeConfig::default()
        };
        let mut tree = ClusTree::new(2, config);
        for i in 0..n {
            let budget = i % (budget_cap + 1); // interleave parked and full descents
            tree.insert(&stream_point(i, 25.0), i as f64 * 0.1, budget);
        }
        assert_clustree_aggregation(&tree);
        prop_assert!(tree.validate().is_ok(), "{:?}", tree.validate());
    }

    #[test]
    fn insertion_outcomes_match_the_prerefactor_contract(
        n in 1usize..400,
        budget_cap in 0usize..10,
        spread in 5.0f64..60.0,
    ) {
        let mut tree = ClusTree::new(2, ClusTreeConfig::default());
        for i in 0..n {
            let budget = (i * 7 + 3) % (budget_cap + 1);
            let height_before = tree.height();
            let outcome = tree.insert(&stream_point(i, spread), i as f64, budget);
            prop_assert_eq!(
                outcome,
                expected_outcome(height_before, budget),
                "object {} with budget {} in tree of height {}",
                i,
                budget,
                height_before
            );
        }
        // Parked mass is never lost (no decay in this test).
        prop_assert!((tree.total_weight() - n as f64).abs() < 1e-6);
    }

    #[test]
    fn batch_of_one_is_observably_equivalent_to_sequential_insert(
        n in 1usize..220,
        lambda in 0.0f64..0.3,
        budget_cap in 0usize..8,
    ) {
        // Irrelevance reuse deliberately drops aged-out leaf mass, which the
        // exact aggregation assertion below cannot see — disable it here as
        // in the sequential aggregation tests (equivalence itself holds
        // either way).
        let config = ClusTreeConfig {
            decay_lambda: lambda,
            irrelevance_threshold: 0.0,
            ..ClusTreeConfig::default()
        };
        let mut sequential = ClusTree::new(2, config.clone());
        let mut batched = ClusTree::new(2, config);
        for i in 0..n {
            let budget = (i * 3 + 1) % (budget_cap + 1);
            let p = stream_point(i, 25.0);
            let a = sequential.insert(&p, i as f64 * 0.1, budget);
            let b = batched.insert_batch(std::slice::from_ref(&p), i as f64 * 0.1, budget);
            prop_assert_eq!(a, b.outcomes[0], "object {} diverged", i);
        }
        // Same outcomes, same structure, same aggregate summaries.
        prop_assert_eq!(sequential.num_nodes(), batched.num_nodes());
        prop_assert_eq!(sequential.height(), batched.height());
        prop_assert!(
            (sequential.total_weight() - batched.total_weight()).abs()
                < 1e-9 * (1.0 + sequential.total_weight())
        );
        assert_clustree_aggregation(&batched);
    }

    #[test]
    fn bayes_batch_of_one_builds_the_identical_tree(n in 1usize..160, seed in 0u64..1000) {
        let mut sequential: BayesTree = BayesTree::new(2, PageGeometry::from_fanout(4, 5));
        let mut batched: BayesTree = BayesTree::new(2, PageGeometry::from_fanout(4, 5));
        for i in 0..n {
            let x = ((i as u64).wrapping_mul(seed + 7) % 97) as f64;
            let y = ((i as u64).wrapping_mul(31).wrapping_add(seed) % 83) as f64;
            sequential.insert(vec![x, y]);
            batched.insert_batch(vec![vec![x, y]]);
        }
        prop_assert_eq!(sequential.num_nodes(), batched.num_nodes());
        prop_assert_eq!(sequential.height(), batched.height());
        prop_assert!(batched.validate(true).is_ok(), "{:?}", batched.validate(true));
        assert_bayes_aggregation(&batched);
    }

    #[test]
    fn clustree_aggregation_invariant_holds_after_batched_inserts(
        n in 2usize..250,
        lambda in 0.0f64..0.3,
        batch_size in 1usize..33,
        budget_cap in 1usize..8,
    ) {
        // As in the sequential variant, irrelevance reuse is disabled so the
        // exact aggregation invariant holds.
        let config = ClusTreeConfig {
            decay_lambda: lambda,
            irrelevance_threshold: 0.0,
            ..ClusTreeConfig::default()
        };
        let mut tree = ClusTree::new(2, config);
        let points: Vec<Vec<f64>> = (0..n).map(|i| stream_point(i, 25.0)).collect();
        for (batch_idx, chunk) in points.chunks(batch_size).enumerate() {
            let budget = batch_idx % (budget_cap + 1); // interleave parked and full descents
            tree.insert_batch(chunk, (batch_idx * batch_size) as f64 * 0.1, budget);
        }
        assert_clustree_aggregation(&tree);
        prop_assert!(tree.validate().is_ok(), "{:?}", tree.validate());
        // Without decay the exact stream mass is conserved; with decay the
        // remaining mass can only be smaller.
        if lambda == 0.0 {
            prop_assert!((tree.total_weight() - n as f64).abs() < 1e-6);
        } else {
            prop_assert!(tree.total_weight() <= n as f64 + 1e-6);
        }
    }

    #[test]
    fn bayes_aggregation_invariant_holds_after_batched_inserts(
        n in 1usize..200,
        batch_size in 1usize..33,
        seed in 0u64..1000,
    ) {
        let mut tree: BayesTree = BayesTree::new(2, PageGeometry::from_fanout(4, 5));
        let points: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                let x = ((i as u64).wrapping_mul(seed + 7) % 97) as f64;
                let y = ((i as u64).wrapping_mul(31).wrapping_add(seed) % 83) as f64;
                vec![x, y]
            })
            .collect();
        for chunk in points.chunks(batch_size) {
            tree.insert_batch(chunk.to_vec());
        }
        prop_assert_eq!(tree.len(), n);
        assert_bayes_aggregation(&tree);
        prop_assert!(tree.validate(true).is_ok(), "{:?}", tree.validate(true));
    }

    #[test]
    fn mass_is_conserved_across_park_and_pickup(n in 10usize..300) {
        let mut tree = ClusTree::new(2, ClusTreeConfig::default());
        // Phase 1: grow with generous budgets.
        for i in 0..n {
            tree.insert(&stream_point(i, 20.0), i as f64, 10);
        }
        // Phase 2: park everything (budget 0).
        for i in 0..n / 2 {
            tree.insert(&stream_point(i, 20.0), (n + i) as f64, 0);
        }
        // Phase 3: deep descents pick hitchhikers back up.
        for i in 0..n / 2 {
            tree.insert(&stream_point(i, 20.0), (n + n / 2 + i) as f64, 16);
        }
        let expected = (n + n / 2 + n / 2) as f64;
        prop_assert!((tree.total_weight() - expected).abs() < 1e-6);
        assert_clustree_aggregation(&tree);
    }
}

/// The two instantiations agree structurally: both are balanced arena trees
/// whose root aggregates the whole stream.
#[test]
fn both_trees_account_for_every_object_at_the_root() {
    let n = 200;
    let mut bayes: BayesTree = BayesTree::new(2, PageGeometry::from_fanout(4, 6));
    let mut clus = ClusTree::new(2, ClusTreeConfig::default());
    for i in 0..n {
        let p = stream_point(i, 30.0);
        bayes.insert(p.clone());
        clus.insert(&p, i as f64, usize::MAX);
    }
    let bayes_total: f64 = bayes.root_entries().iter().map(|e| e.weight()).sum();
    assert!((bayes_total - n as f64).abs() < 1e-6);
    assert!((clus.total_weight() - n as f64).abs() < 1e-6);
    assert_bayes_aggregation(&bayes);
    assert_clustree_aggregation(&clus);
}
