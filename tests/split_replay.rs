//! Every leaf split of the `ingest` benchmark's streams picks the
//! partition of the textbook R* split.
//!
//! The four seed-7 drifting 16-d streams of the `ingest` workload (4,096
//! points each, 64-point batches into an empty tree on the 4 KiB page
//! geometry) are inserted through the Bayes tree's own insertion policy,
//! wrapped so that it records each leaf it splits.  Each recorded leaf is
//! then split again by `rstar_split_corners` and by a reference that grows
//! every group's box one point at a time through [`Mbr`] and evaluates
//! margin, overlap and area with `Mbr`'s own methods.

use anytime_stream_mining::anytree::{AnytimeTree, InsertModel};
use anytime_stream_mining::bayestree::insert::KernelModel;
use anytime_stream_mining::bayestree::{BayesTree, EntryColumns, KernelSummary, PointColumns};
use anytime_stream_mining::data::stream::DriftingStream;
use anytime_stream_mining::index::rstar::{rstar_split_corners, SplitResult};
use anytime_stream_mining::index::{Mbr, PageGeometry};
use std::cell::RefCell;

const DIMS: usize = 16;

/// The Bayes tree's insertion policy, recording each leaf it splits with
/// the split's minimum group size.
struct Recording {
    inner: KernelModel,
    leaves: RefCell<Vec<(Vec<Vec<f64>>, usize)>>,
}

impl InsertModel<KernelSummary> for Recording {
    type Object = Vec<f64>;
    type Leaf = PointColumns;

    fn ctx(&self) {}

    fn route_point<'a>(&self, obj: &'a Vec<f64>, scratch: &'a mut Vec<f64>) -> &'a [f64] {
        <KernelModel as InsertModel<KernelSummary>>::route_point(&self.inner, obj, scratch)
    }

    fn summary_of(&self, obj: &Vec<f64>) -> KernelSummary {
        self.inner.summary_of(obj)
    }

    fn absorb_into(&self, summary: &mut KernelSummary, obj: &Vec<f64>) {
        self.inner.absorb_into(summary, obj);
    }

    fn absorb_into_entry(&self, entries: &mut EntryColumns, i: usize, obj: &Vec<f64>) {
        self.inner.absorb_into_entry(entries, i, obj);
    }

    fn insert_into_leaf(&mut self, leaf: &mut PointColumns, obj: Vec<f64>) {
        <KernelModel as InsertModel<KernelSummary>>::insert_into_leaf(&mut self.inner, leaf, obj);
    }

    fn summarize_leaf_items(&self, leaf: &PointColumns) -> KernelSummary {
        self.inner.summarize_leaf_items(leaf)
    }

    fn split_leaf_items(
        &self,
        leaf: PointColumns,
        geometry: &PageGeometry,
    ) -> (PointColumns, PointColumns) {
        let min = geometry.min_leaf.min(leaf.len() / 2).max(1);
        self.leaves.borrow_mut().push((leaf.rows(), min));
        <KernelModel as InsertModel<KernelSummary>>::split_leaf_items(&self.inner, leaf, geometry)
    }
}

/// The textbook R* split over the points' boxes: per axis, both sort
/// orders (by lower and by upper corner, ties by index), every group's box
/// grown through [`Mbr::extend_mbr`], the axis of least total
/// [`Mbr::margin`], then the distribution of least [`Mbr::overlap`], ties
/// by summed [`Mbr::area`]; the first strictly better candidate wins.
fn reference_split(points: &[Vec<f64>], min: usize) -> SplitResult {
    let boxes: Vec<Mbr> = points.iter().map(|p| Mbr::from_point(p)).collect();
    let n = boxes.len();
    let distributions = n - 2 * min + 1;
    let sorted = |key: &dyn Fn(&Mbr) -> f64| {
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| {
            key(&boxes[a])
                .partial_cmp(&key(&boxes[b]))
                .expect("finite")
                .then(a.cmp(&b))
        });
        order
    };
    // Row `j` of each list: the box of the first `min + j` entries of
    // `order`.
    let grown = |order: &[usize]| -> Vec<Mbr> {
        let mut group = boxes[order[0]].clone();
        for &i in &order[1..min] {
            group.extend_mbr(&boxes[i]);
        }
        let mut rows = vec![group.clone()];
        for &i in &order[min..min + distributions - 1] {
            group.extend_mbr(&boxes[i]);
            rows.push(group.clone());
        }
        rows
    };
    let groups = |order: &[usize]| {
        let reversed: Vec<usize> = order.iter().rev().copied().collect();
        (grown(order), grown(&reversed))
    };

    let (mut best_margin, mut chosen) = (f64::INFINITY, None);
    for axis in 0..DIMS {
        let orders = [
            sorted(&|b: &Mbr| b.lower()[axis]),
            sorted(&|b: &Mbr| b.upper()[axis]),
        ];
        let mut margin = 0.0;
        for order in &orders {
            let (prefix, suffix) = groups(order);
            for k in 0..distributions {
                margin += prefix[k].margin() + suffix[distributions - 1 - k].margin();
            }
        }
        if margin < best_margin || axis == 0 {
            chosen = Some(orders);
        }
        best_margin = best_margin.min(margin);
    }

    let orders = chosen.expect("an axis");
    let (mut best, mut best_overlap, mut best_area) = ((0, 0), f64::INFINITY, f64::INFINITY);
    for (o, order) in orders.iter().enumerate() {
        let (prefix, suffix) = groups(order);
        for k in 0..distributions {
            let (first, second) = (&prefix[k], &suffix[distributions - 1 - k]);
            let overlap = first.overlap(second);
            let area = first.area() + second.area();
            if overlap < best_overlap || (overlap == best_overlap && area < best_area) {
                (best, best_overlap, best_area) = ((o, k), overlap, area);
            }
        }
    }
    let (first, second) = orders[best.0].split_at(min + best.1);
    SplitResult {
        first: first.to_vec(),
        second: second.to_vec(),
    }
}

#[test]
fn every_leaf_split_of_the_ingest_streams_matches_the_textbook_split() {
    let mut replayed = 0;
    for k in 0..4_u64 {
        let seed = 7 * 4 + k;
        let points: Vec<Vec<f64>> = DriftingStream::new(4, DIMS, 0.3, 0.002, seed)
            .generate(4_096)
            .into_iter()
            .map(|(p, _)| p)
            .collect();
        let mut model = Recording {
            inner: KernelModel::new(DIMS),
            leaves: RefCell::new(Vec::new()),
        };
        let mut core: AnytimeTree<KernelSummary, PointColumns> =
            AnytimeTree::new(DIMS, BayesTree::<f64>::paged_geometry(DIMS));
        for batch in points.chunks(64) {
            let _ = core.insert_batch(&mut model, batch.to_vec(), usize::MAX);
        }
        for (leaf, min) in model.leaves.into_inner() {
            let split = rstar_split_corners(leaf.len(), DIMS, |i, d| (leaf[i][d], leaf[i][d]), min);
            assert_eq!(
                split,
                reference_split(&leaf, min),
                "stream {k}, a split of {} points",
                leaf.len()
            );
            replayed += 1;
        }
    }
    // The traced seed-7 run counts 53.4 splits per 1,000 objects, leaf and
    // directory splits together.
    assert!(replayed > 600, "{replayed} leaf splits replayed");
}
