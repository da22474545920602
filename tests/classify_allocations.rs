//! A warm classification allocates exactly its answer.
//!
//! The classifier keeps its class frontiers on the thread's pooled scratch
//! cursors and everything else a classification needs — the root lanes'
//! terms, class scores, refinable and seeded flags, the scheduler's
//! candidates, the posteriors and the trace labels — on one pooled
//! per-thread scratch.  Once a warm-up pass over the same queries has grown
//! the pool, gathered the stacked root block and filled the node block
//! caches, a call's only heap allocations are the `Vec`s it returns:
//!
//! * `classify_with_budget` allocates the posteriors and nothing else, at
//!   budgets 0, 1, 6 and 50, on a live classifier and on a snapshot;
//! * `anytime_trace` allocates its labels and its final posteriors.
//!
//! This binary installs a counting global allocator.  It counts only on
//! the calling thread while a check is running, so the test harness's
//! other threads do not disturb the counts.

use anytime_stream_mining::bayestree::{
    AnytimeClassifier, AnytimeTrace, Classification, ClassifierConfig,
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

const BUDGETS: [usize; 4] = [0, 1, 6, 50];
const TRACE_NODES: usize = 50;

/// A 26-class Letter stand-in on a small page geometry, so the class trees
/// are several levels deep and a budget of 50 is spent, plus the queries.
fn letter_classifier() -> (AnytimeClassifier, Vec<Vec<f64>>) {
    let data = letter::generate(26 * 16, 5);
    let config = ClassifierConfig {
        geometry: Some(PageGeometry::from_fanout(4, 6)),
        ..ClassifierConfig::default()
    };
    let classifier = AnytimeClassifier::train(&data, &config);
    let queries = data.features().iter().step_by(13).cloned().collect();
    (classifier, queries)
}

/// Checks one classifier surface's `classify_with_budget` (`classify`)
/// and `anytime_trace` (`trace`) over `classes` classes: a warm-up pass,
/// then every call again, counted.
fn check_surface(
    surface: &str,
    classes: usize,
    queries: &[Vec<f64>],
    classify: impl Fn(&[f64], usize) -> Classification,
    trace: impl Fn(&[f64], usize) -> AnytimeTrace,
) {
    for x in queries {
        for budget in BUDGETS {
            let _ = classify(x, budget);
        }
        let _ = trace(x, TRACE_NODES);
    }
    let f64_bytes = std::mem::size_of::<f64>();
    let mut spent = 0;
    for (q, x) in queries.iter().enumerate() {
        for budget in BUDGETS {
            let (c, allocations, bytes) = counted(|| classify(x, budget));
            assert_eq!(
                (allocations, bytes),
                (1, classes * f64_bytes),
                "{surface} query {q} budget {budget}: only the posteriors are allocated"
            );
            assert_eq!(c.posteriors.len(), classes);
            spent = spent.max(c.nodes_read);
        }
        let (t, allocations, bytes) = counted(|| trace(x, TRACE_NODES));
        let trace_bytes =
            t.labels.len() * std::mem::size_of::<usize>() + t.final_posteriors.len() * f64_bytes;
        assert_eq!(
            (allocations, bytes),
            (2, trace_bytes),
            "{surface} query {q}: only the trace's labels and posteriors are allocated"
        );
    }
    // The budgets were spent: the checks covered refinement and the
    // seeding of class frontiers, not only the root pass.
    assert_eq!(spent, 50, "{surface}");
}

#[test]
fn warm_classifications_allocate_only_their_answer() {
    let (classifier, queries) = letter_classifier();
    check_surface(
        "live",
        classifier.num_classes(),
        &queries,
        |x, budget| classifier.classify_with_budget(x, budget),
        |x, nodes| classifier.anytime_trace(x, nodes),
    );
}

#[test]
fn warm_snapshot_classifications_allocate_only_their_answer() {
    let (classifier, queries) = letter_classifier();
    let snapshot = classifier.snapshot();
    check_surface(
        "snapshot",
        snapshot.num_classes(),
        &queries,
        |x, budget| snapshot.classify_with_budget(x, budget),
        |x, nodes| snapshot.anytime_trace(x, nodes),
    );
}
