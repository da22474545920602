//! A micro-cluster is one heap buffer, and its updates allocate nothing.
//!
//! A `MicroCluster` keeps its sums and box corners in one row, so:
//!
//! * `from_point` and `clone` allocate exactly once;
//! * `merge` (same timestamp and decayed), `insert`, `decay_to`,
//!   `clone_from` of equal dimensionality and `center_into` into a sized
//!   buffer allocate nothing;
//! * the collapse of a 16-d leaf of `cap + 6` items allocates at most its
//!   two scratch buffers (centres and pair distances);
//! * the polar split of an 8-item 16-d leaf allocates at most its centre
//!   buffer, its two index lists and its two halves;
//! * a warm, repeated `anytime_knn` on an unchanged tree allocates at most
//!   `k + 2` times (its kept `k`, its answer and one centre per neighbour),
//!   on a live tree and on a snapshot;
//! * so does a k-NN probe right after each `insert_batch`, whose reads of
//!   the nodes the batch wrote gather nothing and fill no cache slot;
//! * an object parked in an empty hitchhiker buffer is moved there, not
//!   copied: a one-object budget-0 batch allocates as often either way.
//!
//! This binary installs a counting global allocator.  It counts only on
//! the calling thread while a check is running, so the test harness's
//! other threads do not disturb the counts.  Run it unoptimised
//! (`cargo test --test clustree_allocations`), where LLVM cannot elide a
//! stray allocation.

use anytime_stream_mining::anytree::InsertModel;
use anytime_stream_mining::clustree::{ClusModel, ClusTree, ClusTreeConfig, MicroCluster};
use anytime_stream_mining::index::PageGeometry;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAllocator;

thread_local! {
    /// Whether this thread's allocations are being counted.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    /// Allocations (including reallocations) counted on this thread.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count() {
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        }
    });
}

// SAFETY: every method forwards to the system allocator with the caller's
// arguments unchanged, so it upholds `GlobalAlloc`'s contract exactly when
// `System` does; the counters are const-initialised thread-locals whose
// access never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's `layout` meets `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's `layout` meets `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from this allocator, hence from `System`, with
        // `layout`, and the caller's `new_size` meets `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, hence from `System`, with
        // `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Runs `f` and returns its result with the allocations it made on this
/// thread.
fn counted<R>(f: impl FnOnce() -> R) -> (R, usize) {
    ALLOCATIONS.with(|n| n.set(0));
    COUNTING.with(|on| on.set(true));
    let result = f();
    COUNTING.with(|on| on.set(false));
    (result, ALLOCATIONS.with(Cell::get))
}

const DIMS: usize = 16;

/// A deterministic 16-d point around one of four centres.
fn point(i: usize) -> Vec<f64> {
    let c = (i % 4) as f64 * 5.0;
    (0..DIMS)
        .map(|d| c + ((i * 31 + d * 17) % 97) as f64 / 97.0)
        .collect()
}

/// A micro-cluster of `points` points starting at `i`, last updated at `now`.
fn cluster(i: usize, points: usize, now: f64) -> MicroCluster {
    let mut mc = MicroCluster::from_point(&point(i), now);
    for k in 1..points {
        mc.insert(&point(i + k), now, 0.05);
    }
    mc
}

#[test]
fn building_and_cloning_a_cluster_allocate_once() {
    let p = point(3);
    let (mc, allocations) = counted(|| MicroCluster::from_point(&p, 1.0));
    assert_eq!(allocations, 1, "from_point");
    let (copy, allocations) = counted(|| mc.clone());
    assert_eq!(allocations, 1, "clone");
    assert_eq!(copy.linear_sum(), mc.linear_sum());
}

#[test]
fn updates_allocate_nothing() {
    let lambda = 0.05;
    let other = cluster(10, 3, 2.0);
    let later = cluster(20, 2, 6.0);
    let mut mc = cluster(0, 4, 2.0);
    let mut newer = later.clone();
    let mut center = Vec::with_capacity(DIMS);
    let p = point(7);
    let counts = [
        (
            "merge at the same time",
            counted(|| mc.merge(&other, lambda)).1,
        ),
        (
            "decayed merge of an older cluster",
            counted(|| newer.merge(&other, lambda)).1,
        ),
        (
            "merge into an older cluster",
            counted(|| mc.merge(&later, lambda)).1,
        ),
        ("insert", counted(|| mc.insert(&p, 9.0, lambda)).1),
        ("decay_to", counted(|| mc.decay_to(12.0, lambda)).1),
        ("center_into", counted(|| mc.center_into(&mut center)).1),
    ];
    for (what, allocations) in counts {
        assert_eq!(allocations, 0, "{what}");
    }
    assert_eq!(center.len(), DIMS);
    assert_eq!(mc.last_update(), 12.0);

    let mut target = cluster(30, 2, 1.0);
    let ((), allocations) = counted(|| target.clone_from(&mc));
    assert_eq!(allocations, 0, "clone_from of equal dimensionality");
    assert_eq!(target.upper(), mc.upper());
    assert_eq!(target.weight().to_bits(), mc.weight().to_bits());
}

#[test]
fn a_leaf_collapse_allocates_only_its_two_scratch_buffers() {
    for lambda in [0.0, 0.05] {
        let config = ClusTreeConfig {
            max_entries: 8,
            min_entries: 3,
            decay_lambda: lambda,
            allow_splits: false,
            ..ClusTreeConfig::default()
        };
        let cap = config.max_entries;
        let model = ClusModel::new(&config, 20.0);
        let mut items: Vec<MicroCluster> = (0..cap + 6)
            .map(|i| cluster(i * 5, 1 + i % 3, (i % 4) as f64))
            .collect();
        let ((), allocations) = counted(|| model.collapse_leaf_items(&mut items, cap));
        assert_eq!(items.len(), cap);
        assert!(
            allocations <= 2,
            "lambda {lambda}: the collapse allocated {allocations} times"
        );
    }
}

#[test]
fn a_leaf_split_allocates_its_centres_index_lists_and_halves() {
    let config = ClusTreeConfig {
        max_entries: 7,
        min_entries: 3,
        ..ClusTreeConfig::default()
    };
    let model = ClusModel::new(&config, 20.0);
    let geometry = PageGeometry::from_fanout(7, 7);
    let items = || -> Vec<MicroCluster> {
        (0..8)
            .map(|i| cluster(i * 5, 1 + i % 3, (i % 4) as f64))
            .collect()
    };
    let _ = model.split_leaf_items(items(), &geometry);
    let leaf = items();
    let ((first, second), allocations) = counted(|| model.split_leaf_items(leaf, &geometry));
    assert_eq!(first.len() + second.len(), 8);
    assert!(!first.is_empty() && !second.is_empty());
    assert!(allocations <= 5, "the split allocated {allocations} times");
}

/// A 16-d tree of 2,048 points inserted in batches of 64 at cycling
/// budgets, so directory entries, parked buffers and leaves all hold mass.
fn tree() -> ClusTree {
    let config = ClusTreeConfig {
        max_entries: 6,
        min_entries: 2,
        decay_lambda: 0.01,
        ..ClusTreeConfig::default()
    };
    let mut tree = ClusTree::new(DIMS, config);
    let points: Vec<Vec<f64>> = (0..2048).map(point).collect();
    for (t, batch) in points.chunks(64).enumerate() {
        let _ = tree.insert_batch(batch, t as f64, 1 + t % 4);
    }
    tree
}

#[test]
fn a_warm_knn_allocates_at_most_k_plus_two_times() {
    let tree = tree();
    let pin = tree.snapshot();
    let queries: Vec<Vec<f64>> = (0..4).map(|i| point(i * 13 + 1)).collect();
    let mut full_answers = 0;
    for k in [0usize, 1, 5] {
        for budget in [0usize, 5, 40] {
            for x in &queries {
                // Warm-up: grows the pooled cursors and fills the block
                // caches of every node the read visits.
                let want = tree.anytime_knn(x, k, budget).neighbors.len();
                assert_eq!(pin.anytime_knn(x, k, budget).neighbors.len(), want);
                full_answers += usize::from(k > 0 && want == k);
                for round in 0..2 {
                    let live = counted(|| tree.anytime_knn(x, k, budget));
                    let pinned = counted(|| pin.anytime_knn(x, k, budget));
                    for (side, (answer, allocations)) in [("live", live), ("snapshot", pinned)] {
                        // Its kept clusters, its answer and one centre per
                        // neighbour: at most `k + 2`.
                        assert_eq!(answer.neighbors.len(), want);
                        assert!(
                            allocations <= want + 2,
                            "{side}, k {k}, budget {budget}, round {round}: \
                             {allocations} allocations for {want} neighbours"
                        );
                    }
                }
            }
        }
    }
    assert!(
        full_answers >= 8,
        "only {full_answers} reads found k neighbours"
    );
}

#[test]
fn a_knn_probe_right_after_each_batch_allocates_at_most_k_plus_two_times() {
    let mut tree = tree();
    let queries: Vec<Vec<f64>> = (0..4).map(|i| point(i * 13 + 1)).collect();
    let k = 5;
    // Warm-up: grows the pooled cursors.
    for x in &queries {
        let _ = tree.anytime_knn(x, k, usize::MAX);
    }
    let points: Vec<Vec<f64>> = (5000..5000 + 64 * 12).map(point).collect();
    for (t, batch) in points.chunks(64).enumerate() {
        let budget = [0usize, 1, 4, 2, 8][t % 5];
        let _ = tree.insert_batch(batch, 40.0 + t as f64, budget);
        for (q, x) in queries.iter().enumerate() {
            let (answer, allocations) = counted(|| tree.anytime_knn(x, k, 8));
            assert_eq!(answer.neighbors.len(), k);
            assert!(
                allocations <= k + 2,
                "batch {t} (budget {budget}), query {q}: {allocations} allocations"
            );
        }
    }
}

/// Hitchhiker buffers that hold parked mass, over every shard's reachable
/// directory entries.
fn occupied_buffers(tree: &ClusTree) -> usize {
    tree.shards()
        .iter()
        .flat_map(|shard| shard.reachable().into_iter().map(move |id| shard.node(id)))
        .filter(|node| !node.is_leaf())
        .map(|node| node.entries().iter().filter(|e| e.buffer.is_some()).count())
        .sum()
}

/// An object parked in an empty buffer moves into it: a one-object
/// budget-0 batch allocates as often when its object lands in an empty
/// buffer as when it is absorbed by an occupied one, on 1 and 3 shards.
#[test]
fn a_budget_zero_batch_allocates_no_copy_per_parked_object() {
    for shards in [1, 3] {
        let config = ClusTreeConfig {
            max_entries: 6,
            min_entries: 2,
            decay_lambda: 0.01,
            ..ClusTreeConfig::default()
        };
        let mut tree = ClusTree::sharded(DIMS, config, shards);
        let points: Vec<Vec<f64>> = (0..1024).map(point).collect();
        for (t, batch) in points.chunks(64).enumerate() {
            let _ = tree.insert_batch(batch, t as f64, 1 + t % 4);
        }
        assert!(tree.height() > 2);
        // Warm-up: the first batch after a split grows the descent's
        // per-node scratch.
        let _ = tree.insert_batch(&[point(2999)], 19.0, 0);
        // `(into an empty buffer, into an occupied one)`, each as the
        // distinct allocation counts of its batches.
        let (mut empty, mut occupied) = (Vec::new(), Vec::new());
        for i in 0..96 {
            let now = 20.0 + i as f64;
            let p = [point(3000 + 7 * i)];
            let before = occupied_buffers(&tree);
            let (outcome, allocations) = counted(|| tree.insert_batch(&p, now, 0));
            assert_eq!(outcome.depths.parked_total(), 1);
            let kind = if occupied_buffers(&tree) > before {
                &mut empty
            } else {
                &mut occupied
            };
            if !kind.contains(&allocations) {
                kind.push(allocations);
            }
            // A budget-1 descent picks up the root buffer it passes and
            // parks one level down, so later parks find empty root buffers
            // and no batch reaches a leaf, splits or grows the arena.
            if i % 2 == 1 {
                let pickup = tree.insert_batch(&[point(4000 + i)], now, 1);
                assert_eq!(pickup.depths.parked_at_depth.get(2), Some(&1));
            }
        }
        assert!(
            !empty.is_empty() && !occupied.is_empty(),
            "{shards} shards: parks into empty buffers {empty:?}, into occupied ones {occupied:?}"
        );
        assert_eq!(
            (empty.len(), occupied.len()),
            (1, 1),
            "{shards} shards: allocation counts into empty buffers {empty:?}, into occupied ones {occupied:?}"
        );
        assert_eq!(
            empty, occupied,
            "{shards} shards: an object parked in an empty buffer was copied"
        );
    }
}
