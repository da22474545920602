//! A Bayes-tree leaf is its own scoring block.
//!
//! A leaf stores its points dimension-major in one buffer, which is the
//! layout the leaf pass reads, so readers score it where it lies and a
//! copy-on-write copy of it is one buffer.  Locked down here with a
//! counting global allocator:
//!
//! * after a warm-up pass, `density_batch`, `outlier_score` and
//!   `classify_with_budget` allocate only their answers (the answers
//!   `Vec`, nothing, the posteriors), on a live tree or classifier and on a
//!   snapshot, and leave every Bayes leaf's cache slot empty: no leaf is
//!   gathered into a second copy;
//! * a pinned `insert_batch` copies each leaf it touches with at most one
//!   allocation more than the same batch costs on an unpinned twin (one
//!   block, or none when the copy lands in a recycled version whose buffer
//!   is large enough), and a leaf node's `clone` is one allocation.
//!
//! It counts only on the calling thread while a check is running, so the
//! test harness's other threads do not disturb the counts.  Run it
//! unoptimised (`cargo test --test leaf_allocations`), where LLVM cannot
//! elide a stray allocation.

use anytime_stream_mining::anytree::{NodeKind, ShardSet, Summary, TreeView};
use anytime_stream_mining::bayestree::{
    AnytimeClassifier, BayesIndex, BayesTree, BayesTreeSnapshot, Classification, ClassifierConfig,
    DescentStrategy, KernelSummary, Node, PointColumns,
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

/// A 16-d tree on the 4 KiB page geometry, several levels deep.
fn tree() -> BayesTree {
    let mut tree: BayesTree = BayesTree::new(DIMS, BayesTree::<f64>::paged_geometry(DIMS));
    for chunk in points(1_500, 0).chunks(64) {
        tree.insert_batch(chunk.to_vec());
    }
    tree.fit_bandwidth();
    tree
}

/// The number of leaves reachable in `shards`, after asserting that none
/// has a filled cache slot.
fn assert_no_leaf_slot_filled<S: Summary, V: TreeView<S, PointColumns>>(shards: &[V]) -> usize {
    let mut leaves = 0;
    for shard in shards {
        for id in shard.reachable() {
            if let NodeKind::Leaf { .. } = shard.node(id).kind {
                leaves += 1;
                assert!(
                    shard
                        .block_cache(id)
                        .is_none_or(|slot| slot.get().is_none()),
                    "leaf {id} was gathered into its cache slot"
                );
            }
        }
    }
    leaves
}

/// Warm-up, then every read again, counted: `density_batch` allocates its
/// answers `Vec` alone and `outlier_score` nothing.
fn check_tree_reads<C: ShardSet<KernelSummary, PointColumns>>(
    surface: &str,
    tree: &BayesIndex<C>,
    thresholds: &[f64],
) {
    let queries = points(24, 5_000);
    let strategy = DescentStrategy::default();
    for _ in 0..2 {
        let _ = tree.density_batch(&queries, strategy, BUDGET);
        for (x, &threshold) in queries.iter().zip(thresholds) {
            let _ = tree.outlier_score(x, threshold, BUDGET);
        }
    }
    let ((answers, stats), allocations, bytes) =
        counted(|| tree.density_batch(&queries, strategy, BUDGET));
    assert!(stats.nodes_read > 0, "{surface}: the reads reach leaves");
    assert_eq!(
        (allocations, bytes),
        (1, answers.len() * std::mem::size_of_val(&answers[0])),
        "{surface}: density_batch allocates its answers alone"
    );
    let mut reads = 0;
    for (q, (x, &threshold)) in queries.iter().zip(thresholds).enumerate() {
        let (score, allocations, _) = counted(|| tree.outlier_score(x, threshold, BUDGET));
        reads += score.answer.nodes_read;
        assert_eq!(
            allocations, 0,
            "{surface} query {q}: outlier_score allocates nothing"
        );
    }
    assert!(reads > queries.len(), "{surface}: the verdicts read leaves");
    let leaves = assert_no_leaf_slot_filled(tree.core().shards());
    assert!(leaves > 1, "{surface}: the tree has several leaves");
}

#[test]
fn warm_tree_reads_allocate_only_their_answers_and_fill_no_leaf_slot() {
    let tree = tree();
    // Each query's own density as its threshold: the interval straddles
    // it until refinement separates them, so every verdict reads nodes.
    let thresholds: Vec<f64> = points(24, 5_000)
        .iter()
        .map(|x| tree.full_kernel_density(x))
        .collect();
    check_tree_reads("live", &tree, &thresholds);
    let snapshot = tree.snapshot();
    check_tree_reads("snapshot", &snapshot, &thresholds);
}

#[test]
fn warm_classifications_allocate_only_their_posteriors_and_fill_no_leaf_slot() {
    let data = letter::generate(26 * 16, 5);
    let config = ClassifierConfig {
        geometry: Some(PageGeometry::from_fanout(4, 6)),
        ..ClassifierConfig::default()
    };
    let classifier = AnytimeClassifier::train(&data, &config);
    let snapshot = classifier.snapshot();
    let queries: Vec<Vec<f64>> = data.features().iter().step_by(13).cloned().collect();
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
        for x in &queries {
            let _ = classify(x, 50);
        }
        for (q, x) in queries.iter().enumerate() {
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
        assert_no_leaf_slot_filled(tree.core().shards());
    }
    for tree in snapshot.trees() {
        assert_no_leaf_slot_filled(tree.core().shards());
    }
}

/// Nodes of `live` whose version differs from the pinned `pinned` one:
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
fn pinned_inserts_copy_each_leaf_with_at_most_one_allocation() {
    // Two identical trees: `pinned` writes under a snapshot (copy on
    // write), `twin` writes the same batches unpinned.  Each batch puts one
    // point into each of the four clusters, so it touches a few leaves and
    // their directory path; leaves have room, so no batch splits.
    let build = || {
        let mut tree: BayesTree = BayesTree::new(DIMS, PageGeometry::from_fanout(16, 40));
        for chunk in points(240, 0).chunks(64) {
            tree.insert_batch(chunk.to_vec());
        }
        tree
    };
    let (mut pinned, mut twin) = (build(), build());
    let mut checked_leaf_copies = 0;
    for round in 0..8 {
        let batch = points(4, 10_000 + round * 4);
        let nodes = pinned.num_nodes();
        let snapshot = pinned.snapshot();
        let copy = batch.clone();
        let (_, with_pin, _) = counted(|| pinned.insert_batch(copy));
        let (_, without, _) = counted(|| twin.insert_batch(batch));
        assert_eq!(pinned.num_nodes(), nodes, "round {round} split a node");
        let (dirs, leaves) = copies(&pinned, &snapshot);
        assert!(leaves > 0 && dirs > 0, "round {round} copied nothing");
        drop(snapshot);
        // The first round copies into fresh versions (one version plus its
        // payload each); from the second on every copy recycles the
        // version the released pin gave back.  The root keeps its entry
        // count, so its copy allocates nothing; a leaf copy allocates at
        // most its block, when the recycled buffer is too small.
        assert_eq!(dirs, 1, "round {round}: a two-level tree");
        if round >= 1 {
            assert!(
                with_pin <= without + leaves,
                "round {round}: {with_pin} allocations pinned, {without} unpinned, \
                 {leaves} leaf and {dirs} directory copies"
            );
            checked_leaf_copies += leaves;
        }
    }
    assert!(checked_leaf_copies >= 8);
    assert!(pinned.arena_census().versions_recycled >= 7 * 5);

    // A fresh copy of a leaf node is one block.
    let leaf = pinned
        .shard(0)
        .reachable()
        .into_iter()
        .find(|&id| pinned.shard(0).node(id).is_leaf())
        .expect("a leaf");
    let node: &Node = pinned.shard(0).node(leaf);
    assert!(node.len() > 8);
    let (copy, allocations, bytes) = counted(|| node.clone());
    assert_eq!(allocations, 1, "a leaf copy is one allocation");
    let NodeKind::Leaf { items } = &copy.kind else {
        unreachable!("a leaf's copy is a leaf");
    };
    assert_eq!(bytes, std::mem::size_of_val(items.columns()));
}

#[test]
fn pinned_inserts_on_a_three_level_tree_allocate_no_more_than_unpinned_once_recycled() {
    // As above on a tree three levels deep: a batch copies a path of
    // directory nodes with different entry counts, and each copy takes a
    // spare at least as long as its source, so once the spares have grown
    // to their nodes a batch whose copies all recycled allocates no more
    // than its unpinned twin.
    let build = || {
        let mut tree: BayesTree = BayesTree::new(DIMS, PageGeometry::from_fanout(4, 40));
        for chunk in points(240, 0).chunks(64) {
            tree.insert_batch(chunk.to_vec());
        }
        tree
    };
    let (mut pinned, mut twin) = (build(), build());
    assert!(pinned.height() >= 3, "a three-level tree");
    let mut checked = 0;
    for round in 0..12 {
        let batch = points(4, 10_000 + round * 4);
        let nodes = pinned.num_nodes();
        let recycled = pinned.arena_census().versions_recycled;
        let snapshot = pinned.snapshot();
        let copy = batch.clone();
        let (_, with_pin, _) = counted(|| pinned.insert_batch(copy));
        let (_, without, _) = counted(|| twin.insert_batch(batch));
        assert_eq!(pinned.num_nodes(), nodes, "round {round} split a node");
        let (dirs, leaves) = copies(&pinned, &snapshot);
        assert!(dirs > 1, "round {round} copied one directory node");
        drop(snapshot);
        let recycled = pinned.arena_census().versions_recycled - recycled;
        if recycled == (dirs + leaves) as u64 {
            // The first recycled leaf buffers are the first copies, sized
            // to their leaves before this batch grew them: a leaf copy
            // may grow its block once.
            let slack = if checked == 0 { leaves } else { 0 };
            assert!(
                with_pin <= without + slack,
                "round {round}: {with_pin} allocations pinned, {without} unpinned, \
                 {leaves} leaf and {dirs} directory copies, all recycled"
            );
            checked += 1;
        }
    }
    assert!(checked >= 8, "{checked} rounds recycled every copy");
}
