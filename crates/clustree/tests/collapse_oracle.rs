//! The one-call leaf collapse against the closest-pair merge it replaced.
//!
//! A ClusTree leaf that overflows without time to split is collapsed by
//! merging closest pairs of micro-clusters until it fits.  The reference
//! below is the former implementation, kept verbatim as the oracle: one
//! `merge_closest_pair` per call (fresh centres from `Summary::center`, a
//! full pair scan with strict `<`, `swap_remove` of the second item), called
//! by the former core loop until the leaf holds at most `cap` items.  The
//! model's one-call collapse must leave the same items in the same order
//! with every CF sum, weight, box corner and timestamp equal bit for bit,
//! on random leaves and on whole budgeted streams.

use std::cell::Cell;

use bt_anytree::{AnytimeTree, InsertModel, NodeKind, Summary, TreeView};
use bt_index::PageGeometry;
use clustree::{ClusCore, ClusModel, ClusTreeConfig, DecayCtx, MicroCluster};

/// Merges the closest pair of summaries in place, reducing the collection's
/// size by one (the former `bt_anytree::merge_closest_pair`).
fn merge_closest_pair<S: Summary>(items: &mut Vec<S>, ctx: S::Ctx) {
    assert!(items.len() >= 2, "cannot merge fewer than two entries");
    let mut best = (0usize, 1usize, f64::INFINITY);
    let centers: Vec<Vec<f64>> = items.iter().map(Summary::center).collect();
    for i in 0..items.len() {
        for j in (i + 1)..items.len() {
            let d = sq_dist(&centers[i], &centers[j]);
            if d < best.2 {
                best = (i, j, d);
            }
        }
    }
    let (i, j, _) = best;
    let absorbed = items.swap_remove(j);
    items[i].merge(&absorbed, ctx);
}

fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// The former core loop: merge down until the leaf fits again.  Returns
/// the number of merges.
fn reference_collapse(items: &mut Vec<MicroCluster>, cap: usize, ctx: DecayCtx) -> usize {
    let mut merges = 0;
    loop {
        let before = items.len();
        if before <= cap || before < 2 {
            break;
        }
        merge_closest_pair(items, ctx);
        merges += 1;
        if items.len() >= before {
            break;
        }
    }
    merges
}

/// Every bit of a micro-cluster: timestamp, weight, CF sums, box corners.
fn fingerprint(mc: &MicroCluster) -> Vec<u64> {
    let mut out = vec![mc.last_update().to_bits(), mc.weight().to_bits()];
    out.extend(mc.linear_sum().iter().map(|x| x.to_bits()));
    out.extend(mc.squared_sum().iter().map(|x| x.to_bits()));
    out.extend(mc.lower().iter().map(|x| x.to_bits()));
    out.extend(mc.upper().iter().map(|x| x.to_bits()));
    out
}

fn fingerprints(items: &[MicroCluster]) -> Vec<Vec<u64>> {
    items.iter().map(fingerprint).collect()
}

/// Deterministic SplitMix64 stream.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

const DIMS: usize = 16;

/// A 16-d point, a quarter of its coordinates on the grid `{0, 1, 2}`.
fn random_point(rng: &mut SplitMix) -> Vec<f64> {
    (0..DIMS)
        .map(|_| {
            if rng.below(4) == 0 {
                rng.below(3) as f64
            } else {
                rng.unit() * 10.0 - 5.0
            }
        })
        .collect()
}

/// A leaf of `len` random 16-d micro-clusters of 1–4 points each, last
/// updated at different times under decay `lambda`.  Every third item
/// repeats an earlier one exactly, so zero distances and equal pair
/// distances tie; a quarter of the coordinates sit on a coarse grid, so
/// distinct clusters tie as well.
fn random_leaf(rng: &mut SplitMix, len: usize, lambda: f64) -> Vec<MicroCluster> {
    let mut items: Vec<MicroCluster> = Vec::with_capacity(len);
    for i in 0..len {
        if i % 3 == 2 {
            let copy = items[rng.below(i)].clone();
            items.push(copy);
            continue;
        }
        let start = rng.below(8) as f64;
        let mut mc = MicroCluster::from_point(&random_point(rng), start);
        for k in 0..rng.below(4) {
            mc.insert(&random_point(rng), start + 0.5 * (k + 1) as f64, lambda);
        }
        items.push(mc);
    }
    items
}

#[test]
fn one_call_collapse_equals_the_pairwise_merge_loop() {
    let mut rng = SplitMix(0xC011_A95E);
    let mut merges = 0;
    for lambda in [0.0, 0.05] {
        // Caps 0 and 1 merge down to one item, as the loop did.
        for cap in [0usize, 1, 2, 3, 7] {
            let config = ClusTreeConfig {
                max_entries: cap,
                min_entries: 1,
                decay_lambda: lambda,
                ..ClusTreeConfig::default()
            };
            let model = ClusModel::new(&config, 12.0);
            for len in cap + 1..=3 * cap.max(1) {
                for _ in 0..8 {
                    let leaf = random_leaf(&mut rng, len, lambda);
                    let mut want = leaf.clone();
                    merges += reference_collapse(&mut want, cap, model.ctx());
                    let mut got = leaf;
                    model.collapse_leaf_items(&mut got, cap);
                    assert_eq!(got.len(), cap.max(1));
                    assert_eq!(
                        fingerprints(&got),
                        fingerprints(&want),
                        "lambda {lambda}, cap {cap}, {len} items"
                    );
                }
            }
        }
    }
    assert!(merges > 500, "the oracle merged only {merges} times");
}

#[test]
fn a_leaf_within_capacity_is_left_alone() {
    let mut rng = SplitMix(7);
    let config = ClusTreeConfig::default();
    let model = ClusModel::new(&config, 0.0);
    for len in 0..=config.max_entries {
        let leaf = random_leaf(&mut rng, len, 0.0);
        let mut got = leaf.clone();
        model.collapse_leaf_items(&mut got, config.max_entries);
        assert_eq!(fingerprints(&got), fingerprints(&leaf));
    }
}

/// The ClusTree policy with the former collapse in place of the model's.
struct Reference<'a> {
    inner: ClusModel<'a>,
    merges: &'a Cell<usize>,
}

impl InsertModel<MicroCluster> for Reference<'_> {
    type Object = MicroCluster;
    type Leaf = Vec<MicroCluster>;
    const BUFFERED: bool = true;

    fn ctx(&self) -> DecayCtx {
        self.inner.ctx()
    }

    fn route_point<'a>(&self, obj: &'a MicroCluster, scratch: &'a mut Vec<f64>) -> &'a [f64] {
        self.inner.route_point(obj, scratch)
    }

    fn summary_of(&self, obj: &MicroCluster) -> MicroCluster {
        self.inner.summary_of(obj)
    }

    fn absorb_into(&self, summary: &mut MicroCluster, obj: &MicroCluster) {
        self.inner.absorb_into(summary, obj);
    }

    fn merge_buffer_into_object(&self, obj: &mut MicroCluster, buffer: MicroCluster) {
        self.inner.merge_buffer_into_object(obj, buffer);
    }

    fn refresh_leaf_items(&self, items: &mut Vec<MicroCluster>) {
        self.inner.refresh_leaf_items(items);
    }

    fn insert_into_leaf(&mut self, items: &mut Vec<MicroCluster>, obj: MicroCluster) {
        self.inner.insert_into_leaf(items, obj);
    }

    fn summarize_leaf_items(&self, items: &Vec<MicroCluster>) -> MicroCluster {
        self.inner.summarize_leaf_items(items)
    }

    fn split_leaf_items(
        &self,
        items: Vec<MicroCluster>,
        geometry: &PageGeometry,
    ) -> (Vec<MicroCluster>, Vec<MicroCluster>) {
        self.inner.split_leaf_items(items, geometry)
    }

    fn collapse_leaf_items(&self, items: &mut Vec<MicroCluster>, cap: usize) {
        let merges = reference_collapse(items, cap, self.ctx());
        self.merges.set(self.merges.get() + merges);
    }

    fn may_split(&self, has_time: bool) -> bool {
        self.inner.may_split(has_time)
    }

    fn step_cost(&self) -> usize {
        self.inner.step_cost()
    }
}

/// Every node of a core in reachable order: its id and, per leaf item or
/// directory entry, the child and the fingerprints of summary and buffer.
fn tree_fingerprint(core: &ClusCore) -> Vec<(usize, Vec<Vec<u64>>)> {
    TreeView::reachable(core)
        .into_iter()
        .map(|id| {
            let rows = match &core.node(id).kind {
                NodeKind::Leaf { items } => fingerprints(items),
                NodeKind::Inner { entries } => entries
                    .iter()
                    .map(|e| {
                        let mut row = vec![e.child as u64];
                        row.extend(fingerprint(&e.summary));
                        if let Some(buffer) = &e.buffer {
                            row.extend(fingerprint(buffer));
                        }
                        row
                    })
                    .collect(),
            };
            (id, rows)
        })
        .collect()
}

/// Drives two cores through the same stream, one with the model's collapse
/// and one with the reference, and compares them after every batch.
/// Returns the number of reference merges.
fn stream_against_reference(config: &ClusTreeConfig, budgets: &[usize], seed: u64) -> usize {
    let mut rng = SplitMix(seed);
    let mut live: ClusCore = AnytimeTree::new(DIMS, config.geometry());
    let mut oracle: ClusCore = AnytimeTree::new(DIMS, config.geometry());
    let merges = Cell::new(0);
    for batch in 0..48 {
        let now = batch as f64;
        let centre = (batch / 12) as f64 * 4.0;
        let objs: Vec<MicroCluster> = (0..32)
            .map(|_| {
                let point: Vec<f64> = (0..DIMS).map(|_| centre + rng.unit() * 3.0).collect();
                MicroCluster::from_point(&point, now)
            })
            .collect();
        let budget = budgets[batch % budgets.len()];
        let got = live.insert_batch(&mut ClusModel::new(config, now), objs.clone(), budget);
        let mut reference = Reference {
            inner: ClusModel::new(config, now),
            merges: &merges,
        };
        let want = oracle.insert_batch(&mut reference, objs, budget);
        assert_eq!(got.outcomes, want.outcomes, "batch {batch}: outcomes");
        assert_eq!(
            tree_fingerprint(&live),
            tree_fingerprint(&oracle),
            "batch {batch}: trees diverge"
        );
    }
    merges.get()
}

#[test]
fn budget_one_stream_equals_the_reference() {
    for lambda in [0.0, 0.05] {
        let config = ClusTreeConfig {
            max_entries: 7,
            min_entries: 3,
            decay_lambda: lambda,
            ..ClusTreeConfig::default()
        };
        let merges = stream_against_reference(&config, &[1], 0xB0D6E7 + lambda.to_bits());
        assert!(
            merges > 0,
            "lambda {lambda}: the stream never collapsed a leaf"
        );
    }
}

#[test]
fn split_free_cycling_budget_stream_equals_the_reference() {
    let config = ClusTreeConfig {
        max_entries: 3,
        min_entries: 1,
        decay_lambda: 0.05,
        allow_splits: false,
        ..ClusTreeConfig::default()
    };
    let merges = stream_against_reference(&config, &[1, 2, 3, 4], 0x5EED);
    assert!(merges > 100, "only {merges} merges");
}
