//! A Bayes-tree directory node is one dimension-major block whose derived
//! lanes (mean, raw variance, `ln` of the floored variance) are written
//! when a batch publishes.  Every value it stores and every score read
//! from it must equal the composition it replaced, bit for bit:
//!
//! * the row oracle — the entry as a `KernelSummary` (box and cluster
//!   feature), its absorb (`KernelSummary::absorb_point`) and its fold
//!   (`clone` + `merge`);
//! * the gather oracle — the row written into a `SummaryBlock` as the
//!   former per-read gather did (weight, `ClusterFeature::raw_moments`, box
//!   corners) followed by `SummaryBlock::fill_log_vars`;
//! * every `node_scores_block` and `node_estimates_block` lane over the
//!   block equals the same pass over the oracle's block.
//!
//! Random 16-d streams go into live trees (point by point and in
//! batches), core-driven trees whose insertion policy checks every absorb
//! against the row oracle, pinned snapshots of them, and every bulk
//! loader, at the 4 KiB page geometry.  The streams cover duplicates,
//! signed zeros, constant dimensions, `±1e150` magnitudes and a `1e4`
//! offset with `1e-4` spread.

use bayestree::insert::KernelModel;
use bayestree::node::block_entries;
use bayestree::{
    build_tree, BayesCore, BayesTree, BulkLoadMethod, EntryColumns, KernelSummary, PointColumns,
};
use bt_anytree::{AnytimeTree, Directory, InsertModel, NodeKind, ShardSet, TreeView};
use bt_index::PageGeometry;
use bt_stats::kernel::{node_estimates_block, node_scores_block};
use bt_stats::{KernelBandwidth, ScoreLanes, SummaryBlock};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::Cell;

const DIMS: usize = 16;

fn geometry() -> PageGeometry {
    BayesTree::<f64>::paged_geometry(DIMS)
}

/// The value shapes the oracle must survive, one stream each.
#[derive(Debug, Clone, Copy)]
enum Shape {
    Uniform,
    /// Few distinct points, each repeated many times.
    Duplicates,
    /// Coordinates drawn from `{-0.0, 0.0, ±1}`.
    SignedZeros,
    /// Half the dimensions constant.
    ConstantDims,
    /// Magnitudes around `1e150`, both signs.
    Huge,
    /// A `1e4` offset with `1e-4` spread.
    Offset,
}

const SHAPES: [Shape; 6] = [
    Shape::Uniform,
    Shape::Duplicates,
    Shape::SignedZeros,
    Shape::ConstantDims,
    Shape::Huge,
    Shape::Offset,
];

fn stream(shape: Shape, n: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let distinct: Vec<Vec<f64>> = (0..5)
        .map(|_| (0..DIMS).map(|_| rng.random::<f64>() * 4.0).collect())
        .collect();
    (0..n)
        .map(|i| {
            (0..DIMS)
                .map(|d| {
                    let u = rng.random::<f64>();
                    match shape {
                        Shape::Uniform => u * 10.0 - 5.0 + (i % 3) as f64 * 7.0,
                        Shape::Duplicates => distinct[(u * 5.0) as usize % 5][d],
                        Shape::SignedZeros => [-0.0, 0.0, 1.0, -1.0][(u * 4.0) as usize % 4],
                        Shape::ConstantDims if d % 2 == 0 => 3.25,
                        Shape::ConstantDims => u * 2.0,
                        Shape::Huge => (u - 0.5) * 2e150,
                        Shape::Offset => 1e4 + u * 1e-4,
                    }
                })
                .collect()
        })
        .collect()
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Asserts two summaries hold the same `n`, `LS`, `SS` and box, bit for
/// bit.
fn assert_same_payload(got: &KernelSummary, want: &KernelSummary, what: &str) {
    assert_eq!(
        got.cf.weight().to_bits(),
        want.cf.weight().to_bits(),
        "{what}: n"
    );
    assert_eq!(
        bits(got.cf.linear_sum()),
        bits(want.cf.linear_sum()),
        "{what}: LS"
    );
    assert_eq!(
        bits(got.cf.squared_sum()),
        bits(want.cf.squared_sum()),
        "{what}: SS"
    );
    assert_eq!(
        bits(got.mbr.lower()),
        bits(want.mbr.lower()),
        "{what}: lower"
    );
    assert_eq!(
        bits(got.mbr.upper()),
        bits(want.mbr.upper()),
        "{what}: upper"
    );
}

/// The gather oracle: the rows written into a `SummaryBlock` as the former
/// per-read gather did, then `fill_log_vars`.
fn oracle_block(rows: &[KernelSummary]) -> SummaryBlock {
    let mut block = SummaryBlock::new();
    block.reset(DIMS, rows.len());
    block.enable_vars();
    block.enable_boxes();
    for (i, row) in rows.iter().enumerate() {
        block.set_weight(i, row.cf.weight());
        for (d, (mean, var)) in row.cf.raw_moments().enumerate() {
            block.set_mean(d, i, mean);
            block.set_var(d, i, var);
        }
        for d in 0..DIMS {
            block.set_lower(d, i, row.mbr.lower()[d]);
            block.set_upper(d, i, row.mbr.upper()[d]);
        }
    }
    block.fill_log_vars();
    block
}

/// Checks one directory block against both oracles and returns the number
/// of entries checked.
fn check_block(entries: &EntryColumns, queries: &[Vec<f64>], what: &str) -> usize {
    assert!(
        entries.is_published(),
        "{what}: a published block is complete"
    );
    let rows: Vec<KernelSummary> = block_entries(entries)
        .into_iter()
        .map(|e| e.summary)
        .collect();
    let len = rows.len();
    let oracle = oracle_block(&rows);
    assert_eq!(bits(entries.weights()), bits(oracle.weights()), "{what}: n");
    let log_vars = oracle.log_vars().expect("filled");
    for i in 0..len {
        for (d, (mean, var, log_var)) in entries.derived(i).into_iter().enumerate() {
            let at = d * len + i;
            assert_eq!(
                mean.to_bits(),
                oracle.mean()[at].to_bits(),
                "{what}: mean {i} {d}"
            );
            assert_eq!(
                var.to_bits(),
                oracle.var()[at].to_bits(),
                "{what}: var {i} {d}"
            );
            assert_eq!(
                log_var.to_bits(),
                log_vars[at].to_bits(),
                "{what}: ln var {i} {d}"
            );
        }
    }
    // The block's fold equals the rows' clone + merge fold.
    let mut fold = rows[0].clone();
    for row in &rows[1..] {
        fold.mbr.extend_mbr(&row.mbr);
        fold.cf.merge(&row.cf);
    }
    assert_same_payload(&entries.summarize(()), &fold, &format!("{what}: fold"));
    // Every lane of both node passes.
    let (mut got, mut want): (ScoreLanes, ScoreLanes) = Default::default();
    for (q, query) in queries.iter().enumerate() {
        for h in [0.05, 1.0, 1e3] {
            let bandwidth = KernelBandwidth::new(vec![h; DIMS]);
            node_scores_block(query, &bandwidth, entries.node_columns(), &mut got);
            node_scores_block(query, &bandwidth, &oracle, &mut want);
            for (lane, (g, w)) in got.iter().zip(&want).enumerate() {
                assert_eq!(bits(g), bits(w), "{what}: query {q}, h {h}, lane {lane}");
            }
        }
        let (mut got_pdf, mut got_dist, mut want_pdf, mut want_dist) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        node_estimates_block(query, entries.node_columns(), &mut got_pdf, &mut got_dist);
        node_estimates_block(query, &oracle, &mut want_pdf, &mut want_dist);
        assert_eq!(
            bits(&got_pdf),
            bits(&want_pdf),
            "{what}: query {q} estimates"
        );
        assert_eq!(
            bits(&got_dist),
            bits(&want_dist),
            "{what}: query {q} distances"
        );
    }
    len
}

/// Checks every directory node reachable in `view`; returns the entries
/// checked.
fn check_view<V: TreeView<KernelSummary, PointColumns>>(
    view: &V,
    queries: &[Vec<f64>],
    what: &str,
) -> usize {
    view.reachable()
        .into_iter()
        .filter_map(|id| match &view.node(id).kind {
            NodeKind::Inner { entries } => {
                Some(check_block(entries, queries, &format!("{what}, node {id}")))
            }
            NodeKind::Leaf { .. } => None,
        })
        .sum()
}

/// The Bayes tree's insertion policy, checking every absorb into a
/// directory entry against the row oracle: the entry materialised before
/// the write, absorbed through `KernelSummary::absorb_point`, must equal
/// the entry after it.
struct RowChecked {
    inner: KernelModel,
    absorbs: Cell<usize>,
}

impl InsertModel<KernelSummary> for RowChecked {
    type Object = Vec<f64>;
    type Leaf = PointColumns;

    fn ctx(&self) {}

    fn route_point<'a>(&self, obj: &'a Vec<f64>, scratch: &'a mut Vec<f64>) -> &'a [f64] {
        self.inner.route_point(obj, scratch)
    }

    fn summary_of(&self, obj: &Vec<f64>) -> KernelSummary {
        self.inner.summary_of(obj)
    }

    fn absorb_into(&self, summary: &mut KernelSummary, obj: &Vec<f64>) {
        self.inner.absorb_into(summary, obj);
    }

    fn absorb_into_entry(&self, entries: &mut EntryColumns, i: usize, obj: &Vec<f64>) {
        let mut row = entries.entry_summary(i);
        row.absorb_point(obj);
        self.inner.absorb_into_entry(entries, i, obj);
        assert_same_payload(&entries.entry_summary(i), &row, "absorb");
        self.absorbs.set(self.absorbs.get() + 1);
    }

    fn insert_into_leaf(&mut self, leaf: &mut PointColumns, obj: Vec<f64>) {
        self.inner.insert_into_leaf(leaf, obj);
    }

    fn summarize_leaf_items(&self, leaf: &PointColumns) -> KernelSummary {
        self.inner.summarize_leaf_items(leaf)
    }

    fn split_leaf_items(
        &self,
        leaf: PointColumns,
        geometry: &PageGeometry,
    ) -> (PointColumns, PointColumns) {
        self.inner.split_leaf_items(leaf, geometry)
    }
}

fn queries(points: &[Vec<f64>]) -> Vec<Vec<f64>> {
    let mut out: Vec<Vec<f64>> = points.iter().step_by(97).take(3).cloned().collect();
    out.push(vec![0.0; DIMS]);
    out
}

#[test]
fn core_driven_writes_match_the_row_and_gather_oracles_live_and_pinned() {
    for (s, shape) in SHAPES.into_iter().enumerate() {
        let points = stream(shape, 900, 40 + s as u64);
        let queries = queries(&points);
        let mut core: BayesCore<KernelSummary> = AnytimeTree::new(DIMS, geometry());
        let mut model = RowChecked {
            inner: KernelModel::new(DIMS),
            absorbs: Cell::new(0),
        };
        let (mut checked, mut splits) = (0, 0);
        // One point at a time first, then growing batches.
        let mut at = 0;
        for size in (1..=40).chain([64, 128, 200]) {
            let end = (at + size).min(points.len());
            if at == end {
                break;
            }
            let pinned = core.snapshot();
            let before = check_view(&pinned, &queries, &format!("{shape:?} pinned"));
            let batch = points[at..end].to_vec();
            let outcome = core.insert_batch(&mut model, batch, usize::MAX);
            splits += outcome.stats.splits;
            checked += check_view(&core, &queries, &format!("{shape:?} live, batch at {at}"));
            // The pinned versions are untouched by the batch.
            assert_eq!(
                check_view(&pinned, &queries, &format!("{shape:?} pinned after")),
                before
            );
            at = end;
        }
        assert!(
            core.height() >= 3,
            "{shape:?}: the tree grows directory levels"
        );
        assert!(
            splits > 10 && checked > 100,
            "{shape:?}: {splits} splits, {checked}"
        );
        assert!(model.absorbs.get() > 1_000, "{shape:?}: absorbs checked");
    }
}

#[test]
fn tree_inserts_match_the_gather_oracle_after_every_batch() {
    for (s, shape) in SHAPES.into_iter().enumerate() {
        let points = stream(shape, 700, 60 + s as u64);
        let queries = queries(&points);
        let mut tree: BayesTree = BayesTree::new(DIMS, geometry());
        for p in &points[..150] {
            tree.insert(p.clone());
            check_view(tree.shard(0), &queries, &format!("{shape:?} insert"));
        }
        for chunk in points[150..].chunks(50) {
            let snapshot = tree.snapshot();
            tree.insert_batch(chunk.to_vec());
            check_view(tree.shard(0), &queries, &format!("{shape:?} batch"));
            check_view(
                snapshot.core().shard(0),
                &queries,
                &format!("{shape:?} snapshot"),
            );
        }
        tree.validate(true).expect("valid tree");
    }
}

#[test]
fn every_bulk_loader_builds_blocks_that_match_the_gather_oracle() {
    for (s, shape) in SHAPES.into_iter().enumerate() {
        let points = stream(shape, 600, 80 + s as u64);
        let queries = queries(&points);
        for method in BulkLoadMethod::all() {
            let tree = build_tree(&points, DIMS, geometry(), method, 5);
            let checked = check_view(tree.shard(0), &queries, &format!("{shape:?} {method:?}"));
            assert!(
                checked > 0,
                "{shape:?} {method:?}: the tree has directories"
            );
        }
    }
}
