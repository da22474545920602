//! The R* split allocates only its result.
//!
//! The split works in per-thread buffers that the next split reuses, so
//! after a warm-up a split allocates only the two index lists it returns.
//! Locked down here with a counting global allocator:
//!
//! * a 31-point 16-d leaf split and the split of an overfull 8-entry 16-d
//!   directory node allocate exactly their result's two `Vec`s, in
//!   repeated rounds and after a larger split, which runs in buffers of
//!   its own.
//!
//! It counts only on the calling thread while a check is running, so the
//! test harness's other threads do not disturb the counts.  Run it
//! unoptimised (`cargo test --test split_allocations`), where LLVM cannot
//! elide a stray allocation.

use anytime_stream_mining::index::rstar::rstar_split_corners;
use anytime_stream_mining::index::{Mbr, PageGeometry};
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

/// `n` 16-d points around four centres, deterministic.
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

#[test]
fn warm_splits_allocate_only_their_result() {
    let geometry = PageGeometry::default_for_dims(DIMS);
    let leaf = points(geometry.max_leaf + 1, 0);
    let min = geometry.min_leaf.min(leaf.len() / 2).max(1);
    assert_eq!(leaf.len(), 31);
    let split_leaf = || rstar_split_corners(leaf.len(), DIMS, |i, d| (leaf[i][d], leaf[i][d]), min);

    let boxes: Vec<Mbr> = points(64, 1)
        .chunks(8)
        .map(|run| Mbr::from_points(run.iter().map(Vec::as_slice)).expect("non-empty run"))
        .collect();
    assert_eq!(boxes.len(), geometry.max_fanout + 1);
    let min_fanout = geometry.min_fanout.min(boxes.len() / 2).max(1);
    let split_directory = || {
        rstar_split_corners(
            boxes.len(),
            DIMS,
            |i, d| (boxes[i].lower()[d], boxes[i].upper()[d]),
            min_fanout,
        )
    };

    // Warm-up: the first splits size this thread's buffers.
    let (expected_leaf, expected_directory) = (split_leaf(), split_directory());
    for round in 0..3 {
        let (split, allocations, bytes) = counted(split_leaf);
        assert_eq!(split, expected_leaf);
        assert_eq!(
            allocations, 2,
            "round {round}: a leaf split allocates its two index lists"
        );
        assert_eq!(bytes, leaf.len() * std::mem::size_of::<usize>());
        let (split, allocations, bytes) = counted(split_directory);
        assert_eq!(split, expected_directory);
        assert_eq!(
            allocations, 2,
            "round {round}: a directory split allocates its two index lists"
        );
        assert_eq!(bytes, boxes.len() * std::mem::size_of::<usize>());
    }

    // A split of a 30-point leaf overflowed by a 64-point batch runs in
    // buffers of its own and frees them, so the kept ones stay as they
    // were: the next leaf split still allocates only its result.
    let batch = points(94, 2);
    let (_, own, _) =
        counted(|| rstar_split_corners(batch.len(), DIMS, |i, d| (batch[i][d], batch[i][d]), min));
    assert!(own > 2, "the large split ran in the kept buffers");
    let (split, allocations, _) = counted(split_leaf);
    assert_eq!(split, expected_leaf);
    assert_eq!(allocations, 2);
}
