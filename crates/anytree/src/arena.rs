//! The epoch-versioned node arena: copy-on-write **epoch pages** behind
//! stable ids.
//!
//! PR 5 turned the arena into a versioned store so reads and writes overlap
//! without locks; this revision changes *where node memory lives* so that a
//! batch's copy-on-write delta is cache-local (the `vdbesort.c`
//! batch-contiguous idiom: allocations of one batch land back to back in one
//! contiguous run, not scattered across the heap):
//!
//! * nodes live in **epoch pages** ([`PAGE_CAP`]-node contiguous
//!   `Arc<Vec<VersionedNode>>` allocations).  All nodes created or
//!   copy-on-written in one stretch of work share the *open page* (the last
//!   page, while it is unshared and not full), so a batch's delta occupies a
//!   handful of contiguous runs instead of one `Arc` allocation per node,
//! * a [`NodeId`] is still a stable dense index; the **slot table** (chunked
//!   `Arc`-shared arrays of `(page, index)` `SlotRef`s) maps it to the
//!   node's current home.  Child pointers never move; only the small slot
//!   chunk holding a rewritten id is copied (never counted as a retired
//!   node),
//! * every node carries a **version stamp**: the epoch of the batch that
//!   last mutated it ([`VersionedNode::version`]),
//! * every node carries a **block-cache slot** ([`VersionedNode::cache`])
//!   that [`NodeArena::node_mut`] empties on *every* write — the one cache
//!   rule: a filled slot describes the node as it is now, so readers use it
//!   with a plain load and no stamp check ([`bt_stats::BlockCacheSlot`]),
//! * mutation is **copy-on-write at node granularity** with page-level
//!   sharing checks: writing a node whose page is unshared (no snapshot, no
//!   cloned tree) mutates in place — one atomic load, zero copies.  Writing
//!   a node on a *shared* page retires that one node: the current version is
//!   copied to the open page, the slot is repointed, and the snapshot keeps
//!   reading the retired copy in its pinned page,
//! * `finish_batch` **publishes a new root epoch** ([`NodeArena::publish`]);
//!   [`crate::TreeSnapshot`]s pin the published epoch in a shared
//!   [`EpochRegistry`] so writers (and tests) can observe which epochs are
//!   still read,
//! * **reclamation**: the arena counts, per page, how many slots still point
//!   into it (`NodeArena::live` bookkeeping).  When the last slot leaves a
//!   page the arena drops its reference; the page's memory is freed exactly
//!   when the last snapshot spine ([`ArenaSpine`]) holding it is dropped —
//!   the epoch registry records the pins, the `Arc` drop does the freeing,
//!   and no background collector or extra dependency is needed.

use crate::node::{Node, NodeId};
use crate::summary::Summary;
use bt_stats::BlockCacheSlot;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Nodes per epoch page: one contiguous allocation shared copy-on-write
/// with snapshots.
pub const PAGE_CAP: usize = 256;

/// Slot-table entries per chunk: rewriting a node copies at most one chunk
/// of this many `(page, index)` pairs.
pub const SLOT_CHUNK: usize = 256;

/// One stored node: the payload plus the epoch of the batch that last
/// mutated it, plus the node's block-cache slot.
#[derive(Debug)]
pub struct VersionedNode<S, L> {
    /// The epoch stamp: the (in-flight) epoch of the last mutation, i.e. the
    /// publish that first covered this version of the node.
    pub version: u64,
    /// The node payload.
    pub node: Node<S, L>,
    /// The node's cached column gather, stored page-side so snapshots
    /// sharing the page share the warm block too.  Every write to the node
    /// empties it ([`NodeArena::node_mut`]), so a filled slot always
    /// describes this node as it is.
    pub cache: BlockCacheSlot,
}

impl<S: Clone, L: Clone> Clone for VersionedNode<S, L> {
    /// Cloning (the copy-on-write retire path) starts with an **empty**
    /// cache slot: the copy is about to be written, which would empty it
    /// anyway — the sharer keeps the warm block in the original page.
    fn clone(&self) -> Self {
        Self {
            version: self.version,
            node: self.node.clone(),
            cache: BlockCacheSlot::new(),
        }
    }
}

/// Where a node currently lives: `(page, index within page)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SlotRef {
    page: u32,
    idx: u32,
}

type Page<S, L> = Arc<Vec<VersionedNode<S, L>>>;
type SlotChunkArc = Arc<Vec<SlotRef>>;

/// Issues a best-effort T0 prefetch of the cache lines holding one
/// epoch-page slot (node header, version stamp and block-cache slot).
///
/// Computing `&page[idx]` touches only the page's `Vec` header; the slot
/// memory itself is not demand-loaded — that is the whole point.  A pure
/// hint: never faults, and compiles to nothing off x86-64.
#[inline(always)]
fn prefetch_page_slot<S: Summary, L>(pages: &[Option<Page<S, L>>], slot: SlotRef) {
    let Some(page) = pages.get(slot.page as usize).and_then(Option::as_ref) else {
        return;
    };
    let Some(versioned) = page.get(slot.idx as usize) else {
        return;
    };
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        let ptr = std::ptr::from_ref(versioned).cast::<i8>();
        // SAFETY: `_mm_prefetch` is a hint that never faults; the second
        // line covers slots wider than one cache line (the node header
        // plus its version and cache slot).
        unsafe {
            _mm_prefetch::<_MM_HINT_T0>(ptr);
            _mm_prefetch::<_MM_HINT_T0>(ptr.wrapping_add(64));
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = versioned;
}

/// The shared pin registry: which epochs are still pinned by how many
/// snapshots.
///
/// The registry does not own any node memory — retired copies are reclaimed
/// by the snapshots' `Arc` drops (see the [module docs](crate::arena)) — but
/// it is the single place writers can ask "is anything reading an old
/// epoch?", which makes the copy-on-write fast path observable and testable.
#[derive(Debug, Default)]
pub struct EpochRegistry {
    pinned: Mutex<BTreeMap<u64, usize>>,
}

impl EpochRegistry {
    /// Registers one snapshot pinning `epoch`.
    pub fn pin(&self, epoch: u64) {
        let mut pinned = self.pinned.lock().expect("epoch registry poisoned");
        *pinned.entry(epoch).or_insert(0) += 1;
    }

    /// Releases one snapshot pin of `epoch`.
    pub fn unpin(&self, epoch: u64) {
        let mut pinned = self.pinned.lock().expect("epoch registry poisoned");
        if let Some(count) = pinned.get_mut(&epoch) {
            *count -= 1;
            if *count == 0 {
                pinned.remove(&epoch);
            }
        }
    }

    /// The oldest epoch still pinned by a live snapshot, if any.
    #[must_use]
    pub fn oldest_pinned(&self) -> Option<u64> {
        self.pinned
            .lock()
            .expect("epoch registry poisoned")
            .keys()
            .next()
            .copied()
    }

    /// Number of live snapshot pins across all epochs.
    #[must_use]
    pub fn pinned_count(&self) -> usize {
        self.pinned
            .lock()
            .expect("epoch registry poisoned")
            .values()
            .sum()
    }
}

/// An RAII pin of one epoch in an [`EpochRegistry`]: created when a snapshot
/// is taken, released when the snapshot is dropped.
#[derive(Debug)]
pub struct EpochPin {
    registry: Arc<EpochRegistry>,
    epoch: u64,
}

impl EpochPin {
    /// Pins `epoch` in `registry`.
    #[must_use]
    pub fn new(registry: Arc<EpochRegistry>, epoch: u64) -> Self {
        registry.pin(epoch);
        Self { registry, epoch }
    }

    /// The pinned epoch.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Repoints this pin to `epoch` (releasing the old pin) — used by
    /// incremental snapshot refresh.
    pub(crate) fn repin(&mut self, epoch: u64) {
        if epoch != self.epoch {
            self.registry.pin(epoch);
            self.registry.unpin(self.epoch);
            self.epoch = epoch;
        }
    }

    /// Whether this pin and `registry` are the same registry instance.
    pub(crate) fn same_registry(&self, registry: &Arc<EpochRegistry>) -> bool {
        Arc::ptr_eq(&self.registry, registry)
    }
}

impl Clone for EpochPin {
    fn clone(&self) -> Self {
        Self::new(Arc::clone(&self.registry), self.epoch)
    }
}

impl Drop for EpochPin {
    fn drop(&mut self) {
        self.registry.unpin(self.epoch);
    }
}

/// An owned view of the arena's storage at one instant: the slot-table
/// chunks plus the epoch pages, all `Arc`-shared with the arena.
///
/// Taking one costs `O(chunks + pages)` pointer copies — no node payload is
/// touched — and works from `&self`: sharing is detected lazily at the
/// arena's next write to each page.  This is what a
/// [`crate::TreeSnapshot`] holds, and what incremental refresh diffs
/// against the live arena ([`NodeArena::refresh_spine`]).
#[derive(Debug, Clone)]
pub struct ArenaSpine<S: Summary, L> {
    chunks: Vec<SlotChunkArc>,
    pages: Vec<Option<Page<S, L>>>,
    len: usize,
}

impl<S: Summary, L> ArenaSpine<S, L> {
    /// Number of node ids covered (including orphaned nodes).
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the spine covers no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn slot(&self, id: NodeId) -> SlotRef {
        self.chunks[id / SLOT_CHUNK][id % SLOT_CHUNK]
    }

    /// Read access to a node as of capture time.
    #[must_use]
    pub fn node(&self, id: NodeId) -> &Node<S, L> {
        let slot = self.slot(id);
        &self.pages[slot.page as usize]
            .as_ref()
            .expect("spine page referenced by a slot is present")[slot.idx as usize]
            .node
    }

    /// Best-effort prefetch of the epoch-page slot holding node `id`:
    /// pulls the slot's cache lines toward L1 so an imminent
    /// [`Self::node`] read does not stall on memory.  Out-of-range ids are
    /// ignored; a pure hint on every platform.
    #[inline]
    pub fn prefetch(&self, id: NodeId) {
        if id < self.len {
            prefetch_page_slot(&self.pages, self.slot(id));
        }
    }

    /// The version stamp of a node as of capture time.
    #[must_use]
    pub fn version(&self, id: NodeId) -> u64 {
        let slot = self.slot(id);
        self.pages[slot.page as usize]
            .as_ref()
            .expect("spine page referenced by a slot is present")[slot.idx as usize]
            .version
    }

    /// The block-cache slot of a node as of capture time.
    ///
    /// The slot lives in the (possibly shared) epoch page, so a warm block
    /// filled through one spine is visible to every other holder of the
    /// page — including the live arena, as long as it has not retired the
    /// node.  The arena never writes a node on a shared page (it retires a
    /// copy instead), so the block stays valid for as long as the spine
    /// holds the page.
    #[must_use]
    pub fn cache_slot(&self, id: NodeId) -> &BlockCacheSlot {
        let slot = self.slot(id);
        &self.pages[slot.page as usize]
            .as_ref()
            .expect("spine page referenced by a slot is present")[slot.idx as usize]
            .cache
    }
}

/// Counters reported by one incremental snapshot refresh: how much of the
/// spine was reused (pointer-equal, untouched) versus re-pinned.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SnapshotRefresh {
    /// Slot-table chunks kept as-is (pointer-equal with the live arena).
    pub chunks_reused: usize,
    /// Slot-table chunks replaced because the arena rewrote them.
    pub chunks_refreshed: usize,
    /// Epoch pages kept as-is (pointer-equal with the live arena).
    pub pages_reused: usize,
    /// Epoch pages replaced or newly picked up from the arena.
    pub pages_refreshed: usize,
}

/// The epoch-versioned node arena over contiguous epoch pages.
///
/// Nodes are batch-contiguously allocated in [`PAGE_CAP`]-node pages and
/// addressed through a chunked slot table; mutation goes through
/// [`NodeArena::node_mut`], which copies a node **only** when its page is
/// shared with a snapshot or cloned tree (copy-on-write at node granularity,
/// detected at page granularity).  Node ids are stable: a copy repoints the
/// slot, so child pointers never need rewriting.
#[derive(Debug)]
pub struct NodeArena<S: Summary, L> {
    chunks: Vec<SlotChunkArc>,
    pages: Vec<Option<Page<S, L>>>,
    /// Per-page count of slots still pointing into the page; the arena
    /// drops its page reference when the count reaches zero.
    live: Vec<u32>,
    len: usize,
    /// Number of published epochs (batches closed by [`NodeArena::publish`]).
    epoch: u64,
    registry: Arc<EpochRegistry>,
    /// Retired node copies created by copy-on-write so far.
    retired: u64,
}

impl<S: Summary, L> NodeArena<S, L> {
    /// Creates an arena holding a single empty leaf (the root of a fresh
    /// tree).
    #[must_use]
    pub fn new() -> Self {
        let root = VersionedNode {
            version: 0,
            node: Node::empty_leaf(),
            cache: BlockCacheSlot::new(),
        };
        Self {
            chunks: vec![Arc::new(vec![SlotRef { page: 0, idx: 0 }])],
            pages: vec![Some(Arc::new(vec![root]))],
            live: vec![1],
            len: 1,
            epoch: 0,
            registry: Arc::new(EpochRegistry::default()),
            retired: 0,
        }
    }

    /// Number of node ids handed out (including nodes orphaned by bulk
    /// loading).
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the arena holds no nodes (never true in practice: a fresh
    /// arena holds the empty root leaf).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn slot(&self, id: NodeId) -> SlotRef {
        self.chunks[id / SLOT_CHUNK][id % SLOT_CHUNK]
    }

    /// Read access to a node.
    #[must_use]
    pub fn node(&self, id: NodeId) -> &Node<S, L> {
        let slot = self.slot(id);
        &self.pages[slot.page as usize]
            .as_ref()
            .expect("page referenced by a live slot is present")[slot.idx as usize]
            .node
    }

    /// Best-effort prefetch of the epoch-page slot holding node `id`:
    /// pulls the slot's cache lines toward L1 so an imminent
    /// [`Self::node`] read does not stall on memory.  Out-of-range ids are
    /// ignored; a pure hint on every platform.
    #[inline]
    pub fn prefetch(&self, id: NodeId) {
        if id < self.len {
            prefetch_page_slot(&self.pages, self.slot(id));
        }
    }

    /// The version stamp of a node: the epoch of the batch that last mutated
    /// it.
    #[must_use]
    pub fn version(&self, id: NodeId) -> u64 {
        let slot = self.slot(id);
        self.pages[slot.page as usize]
            .as_ref()
            .expect("page referenced by a live slot is present")[slot.idx as usize]
            .version
    }

    /// The block-cache slot of a node (shared with any snapshot holding the
    /// node's page).
    #[must_use]
    pub fn cache_slot(&self, id: NodeId) -> &BlockCacheSlot {
        let slot = self.slot(id);
        &self.pages[slot.page as usize]
            .as_ref()
            .expect("page referenced by a live slot is present")[slot.idx as usize]
            .cache
    }

    /// The published epoch: the number of batches closed so far.  Snapshots
    /// pin this value.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Publishes the current in-flight epoch (called by `finish_batch`):
    /// every node stamped during the batch becomes part of the new published
    /// root epoch.
    pub fn publish(&mut self) {
        self.epoch += 1;
    }

    /// Number of retired node copies created by copy-on-write so far.  Zero
    /// as long as no snapshot — and no [`Clone`]d tree, which shares the
    /// pages the same way — overlaps a write: the no-sharer fast path never
    /// copies.
    #[must_use]
    pub fn retired_nodes(&self) -> u64 {
        self.retired
    }

    /// Number of epoch pages currently allocated (present entries only).
    #[must_use]
    pub fn num_pages(&self) -> usize {
        self.pages.iter().filter(|p| p.is_some()).count()
    }

    /// The shared epoch registry (snapshots pin their epoch here).
    #[must_use]
    pub fn registry(&self) -> &Arc<EpochRegistry> {
        &self.registry
    }

    /// Captures the storage spine for a snapshot: `O(chunks + pages)`
    /// pointer copies, no node payload is touched.
    #[must_use]
    pub fn snapshot_spine(&self) -> ArenaSpine<S, L> {
        ArenaSpine {
            chunks: self.chunks.clone(),
            pages: self.pages.clone(),
            len: self.len,
        }
    }

    /// Incrementally refreshes `spine` to the arena's current state,
    /// replacing **only** the slot chunks and pages the arena has touched
    /// since the spine was captured (pointer-equality diff) and reusing the
    /// rest as-is.
    pub fn refresh_spine(&self, spine: &mut ArenaSpine<S, L>) -> SnapshotRefresh {
        let mut report = SnapshotRefresh::default();
        for (i, chunk) in self.chunks.iter().enumerate() {
            match spine.chunks.get_mut(i) {
                Some(held) if Arc::ptr_eq(held, chunk) => report.chunks_reused += 1,
                Some(held) => {
                    *held = Arc::clone(chunk);
                    report.chunks_refreshed += 1;
                }
                None => {
                    spine.chunks.push(Arc::clone(chunk));
                    report.chunks_refreshed += 1;
                }
            }
        }
        for (i, page) in self.pages.iter().enumerate() {
            match spine.pages.get_mut(i) {
                Some(held) => match (&held, page) {
                    (Some(h), Some(p)) if Arc::ptr_eq(h, p) => report.pages_reused += 1,
                    (None, None) => report.pages_reused += 1,
                    _ => {
                        *held = page.clone();
                        report.pages_refreshed += 1;
                    }
                },
                None => {
                    spine.pages.push(page.clone());
                    report.pages_refreshed += 1;
                }
            }
        }
        spine.len = self.len;
        report
    }

    /// Appends `node` to the open page (pushing a fresh page when the open
    /// one is shared or full) and returns its location.
    fn append_node(&mut self, node: VersionedNode<S, L>) -> SlotRef {
        let open_usable = matches!(
            self.pages.last(),
            Some(Some(page)) if Arc::strong_count(page) == 1 && page.len() < PAGE_CAP
        );
        if !open_usable {
            self.pages
                .push(Some(Arc::new(Vec::with_capacity(PAGE_CAP))));
            self.live.push(0);
        }
        let page_index = self.pages.len() - 1;
        let page = self.pages[page_index]
            .as_mut()
            .expect("open page just ensured");
        let nodes = Arc::get_mut(page).expect("open page is unshared");
        nodes.push(node);
        self.live[page_index] += 1;
        SlotRef {
            page: page_index as u32,
            idx: (nodes.len() - 1) as u32,
        }
    }

    /// Points `id`'s slot at `slot`, copying the covering chunk if shared
    /// (chunk copies are bookkeeping, never counted as retired nodes).
    fn set_slot(&mut self, id: NodeId, slot: SlotRef) {
        let chunk = &mut self.chunks[id / SLOT_CHUNK];
        Arc::make_mut(chunk)[id % SLOT_CHUNK] = slot;
    }

    /// Adds a node stamped with the in-flight epoch and returns its id.
    pub fn push(&mut self, node: Node<S, L>) -> NodeId {
        let slot = self.append_node(VersionedNode {
            version: self.epoch + 1,
            node,
            cache: BlockCacheSlot::new(),
        });
        let id = self.len;
        self.len += 1;
        if id.is_multiple_of(SLOT_CHUNK) {
            self.chunks.push(Arc::new(Vec::with_capacity(SLOT_CHUNK)));
        }
        let chunk = self.chunks.last_mut().expect("chunk just ensured");
        Arc::make_mut(chunk).push(slot);
        id
    }
}

impl<S: Summary + Clone, L: Clone> NodeArena<S, L> {
    /// Mutable access to a node — the copy-on-write point.
    ///
    /// If the node's page is unshared the write happens in place (one atomic
    /// load).  If a snapshot or cloned tree still holds the page, this one
    /// node is retired: its current version is copied to the open page
    /// (batch-contiguous with the rest of the in-flight delta), the slot is
    /// repointed, and the page's live count drops — reaching zero releases
    /// the arena's reference, leaving the page to its snapshots.  Either way
    /// the node is stamped with the in-flight epoch (`published + 1`), and
    /// its block-cache slot is emptied — on **every** call, which is the
    /// whole cache rule: this is the only way to change a node, so a filled
    /// slot always describes the node as it is now (the sharers keep their
    /// blocks — the copy-on-write retire path leaves the shared page alone).
    pub fn node_mut(&mut self, id: NodeId) -> &mut Node<S, L> {
        &mut self.versioned_mut(id).node
    }

    fn versioned_mut(&mut self, id: NodeId) -> &mut VersionedNode<S, L> {
        let mut slot = self.slot(id);
        let mut page_index = slot.page as usize;
        let stamp = self.epoch + 1;
        let shared = {
            let page = self.pages[page_index]
                .as_ref()
                .expect("page referenced by a live slot is present");
            Arc::strong_count(page) > 1
        };
        if shared {
            // Retire this node's current version onto the open page — the
            // sharer (snapshot or cloned tree) keeps reading the old page.
            self.retired += 1;
            let mut copy = self.pages[page_index]
                .as_ref()
                .expect("shared page is present")[slot.idx as usize]
                .clone();
            copy.version = stamp;
            let new_slot = self.append_node(copy);
            self.set_slot(id, new_slot);
            self.live[page_index] -= 1;
            if self.live[page_index] == 0 {
                self.pages[page_index] = None;
            }
            slot = new_slot;
            page_index = new_slot.page as usize;
        }
        let page = self.pages[page_index]
            .as_mut()
            .expect("target page is present");
        let versioned =
            &mut Arc::get_mut(page).expect("target page is unshared")[slot.idx as usize];
        versioned.cache.clear();
        versioned.version = stamp;
        versioned
    }
}

impl<S: Summary, L> Default for NodeArena<S, L> {
    fn default() -> Self {
        Self::new()
    }
}

impl<S: Summary, L> Clone for NodeArena<S, L> {
    /// Cloning an arena shares the slot chunks and epoch pages copy-on-write
    /// (cheap: pointer copies only) but starts a **fresh registry**:
    /// snapshots of the clone pin the clone's registry, not the original's.
    /// Mutating either tree copies shared nodes on first write, so the two
    /// trees stay isolated.
    fn clone(&self) -> Self {
        Self {
            chunks: self.chunks.clone(),
            pages: self.pages.clone(),
            live: self.live.clone(),
            len: self.len,
            epoch: self.epoch,
            registry: Arc::new(EpochRegistry::default()),
            retired: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeKind;

    #[derive(Debug, Clone)]
    struct W(f64);

    impl Summary for W {
        type Ctx = ();
        fn merge(&mut self, other: &Self, _ctx: ()) {
            self.0 += other.0;
        }
        fn weight(&self) -> f64 {
            self.0
        }
        fn sq_dist_to(&self, _point: &[f64]) -> f64 {
            0.0
        }
        fn center(&self) -> Vec<f64> {
            Vec::new()
        }
    }

    fn leaf_items(arena: &NodeArena<W, u32>, id: NodeId) -> Vec<u32> {
        match &arena.node(id).kind {
            NodeKind::Leaf { items } => items.clone(),
            NodeKind::Inner { .. } => panic!("expected leaf"),
        }
    }

    #[test]
    fn in_place_mutation_without_snapshots_retires_nothing() {
        let mut arena: NodeArena<W, u32> = NodeArena::new();
        for i in 0..10 {
            arena.node_mut(0).items_mut().push(i);
        }
        assert_eq!(arena.retired_nodes(), 0);
        assert_eq!(leaf_items(&arena, 0), (0..10).collect::<Vec<_>>());
        assert_eq!(arena.version(0), 1);
    }

    #[test]
    fn pinned_spine_forces_one_copy_then_writes_in_place() {
        let mut arena: NodeArena<W, u32> = NodeArena::new();
        arena.node_mut(0).items_mut().push(1);
        arena.publish();
        let spine = arena.snapshot_spine();
        // First write after the snapshot copies the node once...
        arena.node_mut(0).items_mut().push(2);
        assert_eq!(arena.retired_nodes(), 1);
        // ...subsequent writes hit the fresh copy in place.
        arena.node_mut(0).items_mut().push(3);
        assert_eq!(arena.retired_nodes(), 1);
        // The pinned spine still sees the pre-snapshot state.
        match &spine.node(0).kind {
            NodeKind::Leaf { items } => assert_eq!(items, &[1]),
            NodeKind::Inner { .. } => panic!("expected leaf"),
        }
        assert_eq!(spine.version(0), 1);
        assert_eq!(leaf_items(&arena, 0), vec![1, 2, 3]);
        assert_eq!(arena.version(0), 2);
    }

    #[test]
    fn registry_tracks_pins_in_epoch_order() {
        let registry = Arc::new(EpochRegistry::default());
        assert_eq!(registry.oldest_pinned(), None);
        let early = EpochPin::new(Arc::clone(&registry), 3);
        let late = EpochPin::new(Arc::clone(&registry), 7);
        assert_eq!(registry.oldest_pinned(), Some(3));
        assert_eq!(registry.pinned_count(), 2);
        let late_clone = late.clone();
        assert_eq!(registry.pinned_count(), 3);
        drop(early);
        assert_eq!(registry.oldest_pinned(), Some(7));
        drop(late);
        assert_eq!(registry.oldest_pinned(), Some(7), "clone still pins");
        drop(late_clone);
        assert_eq!(registry.oldest_pinned(), None);
        assert_eq!(registry.pinned_count(), 0);
    }

    #[test]
    fn cloned_arena_is_isolated_copy_on_write() {
        let mut a: NodeArena<W, u32> = NodeArena::new();
        a.node_mut(0).items_mut().push(1);
        let mut b = a.clone();
        b.node_mut(0).items_mut().push(2);
        assert_eq!(leaf_items(&a, 0), vec![1]);
        assert_eq!(leaf_items(&b, 0), vec![1, 2]);
    }

    #[test]
    fn pushes_fill_pages_contiguously() {
        let mut arena: NodeArena<W, u32> = NodeArena::new();
        // The root occupies page 0 slot 0; the next PAGE_CAP - 1 pushes
        // share its page, the one after opens page 1.
        for _ in 0..(PAGE_CAP - 1) {
            let _ = arena.push(Node::empty_leaf());
        }
        assert_eq!(arena.num_pages(), 1);
        let id = arena.push(Node::empty_leaf());
        assert_eq!(arena.num_pages(), 2);
        assert_eq!(id, PAGE_CAP);
        assert_eq!(arena.len(), PAGE_CAP + 1);
        // Ids keep resolving across the page boundary.
        arena.node_mut(id).items_mut().push(7);
        assert_eq!(leaf_items(&arena, id), vec![7]);
    }

    #[test]
    fn fully_retired_pages_are_released_by_the_arena() {
        let mut arena: NodeArena<W, u32> = NodeArena::new();
        arena.node_mut(0).items_mut().push(1);
        arena.publish();
        let spine = arena.snapshot_spine();
        // Retire the only node of page 0: the arena must drop the page
        // (the spine keeps it alive), leaving one present page.
        arena.node_mut(0).items_mut().push(2);
        assert_eq!(arena.retired_nodes(), 1);
        assert_eq!(arena.num_pages(), 1);
        match &spine.node(0).kind {
            NodeKind::Leaf { items } => assert_eq!(items, &[1]),
            NodeKind::Inner { .. } => panic!("expected leaf"),
        }
        drop(spine);
        assert_eq!(leaf_items(&arena, 0), vec![1, 2]);
    }

    fn warm(slot: &BlockCacheSlot) {
        slot.fill(Box::new(bt_stats::GatheredBlock::new()));
    }

    #[test]
    fn restamping_a_node_drops_its_cached_block() {
        let mut arena: NodeArena<W, u32> = NodeArena::new();
        arena.node_mut(0).items_mut().push(1);
        arena.publish();
        warm(arena.cache_slot(0));
        assert!(arena.cache_slot(0).get().is_some());
        // The first write of a batch empties the slot...
        arena.node_mut(0).items_mut().push(2);
        assert!(arena.cache_slot(0).get().is_none());
        // ...and so does every later write at the same stamp: a block
        // filled between two writes of one batch never outlives the next.
        warm(arena.cache_slot(0));
        arena.node_mut(0).items_mut().push(3);
        assert!(arena.cache_slot(0).get().is_none());
        arena.publish();
        warm(arena.cache_slot(0));
        arena.node_mut(0).items_mut().push(4);
        assert!(arena.cache_slot(0).get().is_none());
    }

    #[test]
    fn retiring_a_node_leaves_the_snapshot_block_warm() {
        let mut arena: NodeArena<W, u32> = NodeArena::new();
        arena.node_mut(0).items_mut().push(1);
        arena.publish();
        let spine = arena.snapshot_spine();
        warm(spine.cache_slot(0));
        // The slot is page-shared: the live arena sees the warm block until
        // it mutates the node.
        assert!(arena.cache_slot(0).get().is_some());
        // Copy-on-write retire: the live copy starts with an empty slot, the
        // spine keeps reading its warm block.
        arena.node_mut(0).items_mut().push(2);
        assert!(arena.cache_slot(0).get().is_none());
        assert!(spine.cache_slot(0).get().is_some());
    }

    #[test]
    fn refresh_spine_reuses_untouched_storage() {
        let mut arena: NodeArena<W, u32> = NodeArena::new();
        for _ in 0..(2 * PAGE_CAP) {
            let _ = arena.push(Node::empty_leaf());
        }
        arena.publish();
        let mut spine = arena.snapshot_spine();
        // No writes: everything is pointer-equal.
        let report = arena.refresh_spine(&mut spine);
        assert_eq!(report.chunks_refreshed, 0);
        assert_eq!(report.pages_refreshed, 0);
        assert!(report.chunks_reused > 0 && report.pages_reused > 0);
        // Touch one node on a shared page: exactly the rewritten chunk and
        // the affected pages (retired-from and open) refresh.
        arena.node_mut(0).items_mut().push(9);
        let report = arena.refresh_spine(&mut spine);
        assert_eq!(report.chunks_refreshed, 1);
        assert!(report.chunks_reused > 0);
        assert!(report.pages_refreshed >= 1 && report.pages_refreshed <= 2);
        assert!(report.pages_reused > 0);
        match &spine.node(0).kind {
            NodeKind::Leaf { items } => assert_eq!(items, &[9]),
            NodeKind::Inner { .. } => panic!("expected leaf"),
        }
    }
}
