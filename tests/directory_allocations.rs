//! A Bayes-tree directory node is its own scoring block.
//!
//! A directory stores its entries dimension-major in one buffer, which is
//! the layout the node pass reads, so readers score it where it lies and a
//! copy-on-write copy of it is one buffer.  Locked down here with a
//! counting global allocator:
//!
//! * a directory node's `clone` is one allocation, its block;
//! * a pinned `insert_batch` copies each directory node it touches with at
//!   most one allocation for its payload (two with the fresh version that
//!   holds it, none once the copy lands in a recycled version whose buffer
//!   is large enough);
//! * after a warm-up, `outlier_score` allocates nothing and
//!   `classify_with_budget` only its posteriors, on a live tree or
//!   classifier and on a snapshot, and no Bayes slot, leaf or directory,
//!   is ever filled.
//!
//! It counts only on the calling thread while a check is running, so the
//! test harness's other threads do not disturb the counts.  Run it
//! unoptimised (`cargo test --test directory_allocations`), where LLVM
//! cannot elide a stray allocation.

use anytime_stream_mining::anytree::{Directory, NodeKind, ShardSet, Summary, TreeView};
use anytime_stream_mining::bayestree::{
    AnytimeClassifier, BayesTree, BayesTreeSnapshot, Classification, ClassifierConfig, Node,
    PointColumns,
};
use anytime_stream_mining::data::synth::letter;
use anytime_stream_mining::index::PageGeometry;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAllocator;

thread_local! {
    /// Whether this thread's allocations are being counted.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    /// Allocations (including reallocations) counted on this thread.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
    /// Bytes requested by those allocations.
    static BYTES: Cell<usize> = const { Cell::new(0) };
}

fn count(size: usize) {
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
            let _ = BYTES.try_with(|b| b.set(b.get() + size));
        }
    });
}

// SAFETY: every method forwards to the system allocator with the caller's
// arguments unchanged, so it upholds `GlobalAlloc`'s contract exactly when
// `System` does; the counters are const-initialised thread-locals whose
// access never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's `layout` meets `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's `layout` meets `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
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

/// Runs `f` and returns its result with the allocations and bytes it
/// requested on this thread.
fn counted<R>(f: impl FnOnce() -> R) -> (R, usize, usize) {
    ALLOCATIONS.with(|n| n.set(0));
    BYTES.with(|b| b.set(0));
    COUNTING.with(|on| on.set(true));
    let result = f();
    COUNTING.with(|on| on.set(false));
    (result, ALLOCATIONS.with(Cell::get), BYTES.with(Cell::get))
}

const DIMS: usize = 16;
const BUDGET: usize = 48;

/// 16-d points around four centres, deterministic.
fn points(n: usize, phase: usize) -> Vec<Vec<f64>> {
    (0..n)
        .map(|i| {
            let i = i + phase;
            let c = (i % 4) as f64 * 5.0;
            (0..DIMS)
                .map(|d| c + ((i * 31 + d * 17) % 97) as f64 / 97.0)
                .collect()
        })
        .collect()
}

/// Asserts that no node reachable in `shards`, leaf or directory, has a
/// filled cache slot; returns the directory nodes seen.
fn assert_no_slot_filled<S: Summary, V: TreeView<S, PointColumns>>(shards: &[V]) -> usize {
    let mut dirs = 0;
    for shard in shards {
        for id in shard.reachable() {
            dirs += usize::from(!shard.node(id).is_leaf());
            assert!(
                shard
                    .block_cache(id)
                    .is_none_or(|slot| slot.get().is_none()),
                "node {id} was gathered into its cache slot"
            );
        }
    }
    dirs
}

/// Nodes of `live` whose version differs from the pinned one:
/// `(directory copies, leaf copies)`.
fn copies(live: &BayesTree, pinned: &BayesTreeSnapshot) -> (usize, usize) {
    let (live, pinned) = (live.shard(0), pinned.core().shard(0));
    let (mut dirs, mut leaves) = (0, 0);
    for id in pinned.reachable() {
        if !std::ptr::eq(live.node(id), pinned.node(id)) {
            if live.node(id).is_leaf() {
                leaves += 1;
            } else {
                dirs += 1;
            }
        }
    }
    (dirs, leaves)
}

#[test]
fn pinned_inserts_copy_each_directory_with_at_most_one_allocation() {
    // Two identical trees three levels deep: `pinned` writes under a
    // snapshot (copy on write), `twin` writes the same batches unpinned.
    // Each batch puts one point into each of four clusters, so it copies a
    // path of directory nodes; leaves have room, so no batch splits.
    let build = || {
        let mut tree: BayesTree = BayesTree::new(DIMS, PageGeometry::from_fanout(4, 40));
        for chunk in points(240, 0).chunks(64) {
            tree.insert_batch(chunk.to_vec());
        }
        tree
    };
    let (mut pinned, mut twin) = (build(), build());
    assert!(pinned.height() >= 3, "a three-level tree");
    let mut checked_dirs = 0;
    for round in 0..8 {
        let batch = points(4, 10_000 + round * 4);
        let nodes = pinned.num_nodes();
        let recycled = pinned.arena_census().versions_recycled;
        let snapshot = pinned.snapshot();
        let copy = batch.clone();
        let (_, with_pin, _) = counted(|| pinned.insert_batch(copy));
        let (_, without, _) = counted(|| twin.insert_batch(batch));
        assert_eq!(pinned.num_nodes(), nodes, "round {round} split a node");
        let (dirs, leaves) = copies(&pinned, &snapshot);
        assert!(dirs > 1 && leaves > 0, "round {round} copied a path");
        drop(snapshot);
        let recycled = pinned.arena_census().versions_recycled - recycled;
        // A copy into a fresh version allocates the version and its
        // payload; a recycled one at most its payload's buffer.
        let fresh = (dirs + leaves) as u64 - recycled;
        assert!(
            with_pin as u64 <= without as u64 + 2 * fresh + (dirs + leaves) as u64,
            "round {round}: {with_pin} allocations pinned, {without} unpinned, \
             {dirs} directory and {leaves} leaf copies, {recycled} recycled"
        );
        checked_dirs += dirs;
    }
    assert!(checked_dirs >= 16);

    // A fresh copy of a directory node is one block.
    let dir = pinned
        .shard(0)
        .reachable()
        .into_iter()
        .find(|&id| !pinned.shard(0).node(id).is_leaf())
        .expect("a directory");
    let node: &Node = pinned.shard(0).node(dir);
    assert!(node.len() > 1);
    let (copy, allocations, bytes) = counted(|| node.clone());
    assert_eq!(allocations, 1, "a directory copy is one allocation");
    let NodeKind::Inner { entries } = &copy.kind else {
        unreachable!("a directory's copy is a directory");
    };
    assert_eq!(
        bytes,
        entries.len() * (2 + 7 * DIMS) * std::mem::size_of::<f64>()
    );
}

#[test]
fn warm_reads_allocate_as_before_and_fill_no_slot() {
    let mut tree: BayesTree = BayesTree::new(DIMS, BayesTree::<f64>::paged_geometry(DIMS));
    for chunk in points(1_500, 0).chunks(64) {
        tree.insert_batch(chunk.to_vec());
    }
    tree.fit_bandwidth();
    let queries = points(24, 5_000);
    let thresholds: Vec<f64> = queries
        .iter()
        .map(|x| tree.full_kernel_density(x))
        .collect();
    let snapshot = tree.snapshot();
    for (surface, outlier) in [
        (
            "live",
            &(|x: &[f64], t| tree.outlier_score(x, t, BUDGET).answer.nodes_read)
                as &dyn Fn(&[f64], f64) -> usize,
        ),
        ("snapshot", &|x: &[f64], t| {
            snapshot.outlier_score(x, t, BUDGET).answer.nodes_read
        }),
    ] {
        for (x, &t) in queries.iter().zip(&thresholds) {
            let _ = outlier(x, t);
        }
        let mut reads = 0;
        for (q, (x, &t)) in queries.iter().zip(&thresholds).enumerate() {
            let (nodes_read, allocations, _) = counted(|| outlier(x, t));
            reads += nodes_read;
            assert_eq!(
                allocations, 0,
                "{surface} query {q}: outlier_score allocates nothing"
            );
        }
        assert!(reads > queries.len(), "{surface}: the verdicts read nodes");
    }
    assert!(assert_no_slot_filled(tree.shards()) > 1);
    assert!(assert_no_slot_filled(snapshot.core().shards()) > 1);

    let data = letter::generate(26 * 16, 5);
    let config = ClassifierConfig {
        geometry: Some(PageGeometry::from_fanout(4, 6)),
        ..ClassifierConfig::default()
    };
    let classifier = AnytimeClassifier::train(&data, &config);
    let snapshot = classifier.snapshot();
    let xs: Vec<Vec<f64>> = data.features().iter().step_by(13).cloned().collect();
    let classes = classifier.num_classes();
    for (surface, classify) in [
        (
            "live",
            &(|x: &[f64], b| classifier.classify_with_budget(x, b))
                as &dyn Fn(&[f64], usize) -> Classification,
        ),
        ("snapshot", &|x: &[f64], b| {
            snapshot.classify_with_budget(x, b)
        }),
    ] {
        for x in &xs {
            let _ = classify(x, 50);
        }
        for (q, x) in xs.iter().enumerate() {
            let (c, allocations, bytes) = counted(|| classify(x, 50));
            assert_eq!(c.nodes_read, 50, "{surface}: the budget reaches leaves");
            assert_eq!(
                (allocations, bytes),
                (1, classes * std::mem::size_of::<f64>()),
                "{surface} query {q}: only the posteriors are allocated"
            );
        }
    }
    for tree in classifier.trees() {
        assert_no_slot_filled(tree.core().shards());
    }
    for tree in snapshot.trees() {
        assert_no_slot_filled(tree.core().shards());
    }
}
