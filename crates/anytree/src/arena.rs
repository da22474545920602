//! The epoch-versioned node arena: reference-counted node versions behind
//! stable ids, and a graveyard that recycles the versions released pins
//! gave back.
//!
//! * Every node version is its own `Arc` allocation ([`VersionedNode`]:
//!   the payload, its version stamp and its block-cache slot).  A
//!   [`NodeId`] is a stable dense index into the **slot table**, chunks of
//!   [`SLOT_CHUNK`] version pointers.  Child pointers never move; a write
//!   repoints one slot.
//! * Every version carries a **version stamp**: the epoch of the batch that
//!   last mutated it ([`VersionedNode::version`]).
//! * Every version carries a **block-cache slot** ([`VersionedNode::cache`])
//!   that [`NodeArena::node_mut`] empties on *every* write — the one cache
//!   rule: a filled slot describes the node as it is now, so readers use it
//!   with a plain load and no stamp check ([`bt_stats::BlockCacheSlot`]).
//! * A snapshot ([`ArenaSpine`]) takes one `Arc`-shared copy of each
//!   chunk: `O(chunks)` pointer copies, no payload touched.  A chunk's
//!   shared copy is built by the first capture after a write to the chunk
//!   (one count per slot) and reused by later captures until the next
//!   write.  Mutation is **copy-on-write per version**: the writer's own
//!   slots are plain vectors, so [`NodeArena::node_mut`] drops the arena's
//!   handle on the chunk's shared copy and then writes in place when no
//!   one else reaches the version — the no-sharer fast path, one
//!   reference-count check.  Otherwise it **retires** the version: the
//!   slot is repointed to a copy and the sharer keeps reading the old
//!   one.
//! * `finish_batch` **publishes a new root epoch** ([`NodeArena::publish`]);
//!   [`crate::TreeSnapshot`]s pin the published epoch in a shared
//!   [`EpochRegistry`] so writers (and tests) can observe which epochs are
//!   still read.
//!
//! **Reclamation rule.**  A retired version is owned by the snapshots that
//! still reach it and by the **graveyard** of the arena that created it;
//! no collector runs and no `unsafe` is involved.
//!
//! * The arena keeps every version it retires, per node kind (leaf or
//!   directory), unless it was created before the arena was last cloned:
//!   such a version may be shared with the other tree for good, so the
//!   arena only drops its reference.  Cloning starts a new *generation*
//!   on both sides, and an arena graveyards only versions of its own
//!   generation.
//! * At the start of each batch ([`NodeArena::reclaim`]) the retired
//!   versions that no snapshot reaches any more — `Arc::get_mut` is the
//!   proof — become **spares**, up to the number of copies the previous
//!   batch made of that kind.  Spares beyond that bound are freed.
//!   Versions a pin still reaches stay where they are until a later batch
//!   finds them released.
//! * A copy-on-write copy writes into a spare with `clone_from`, which
//!   reuses the spare's buffers, and allocates only when no spare is left.
//!
//! So a released pin's versions are recycled by the next batch that copies
//! nodes.  Beyond the versions pins still reach, an arena holds its live
//! versions plus, per node kind, at most as many retired versions as the
//! larger of its last two batches' copy counts ([`NodeArena::census`]).

use crate::node::{Directory, LeafItems, Node, NodeId, NodeKind};
use crate::summary::Summary;
use bt_stats::BlockCacheSlot;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Slot-table entries per chunk.  The first snapshot after a write to a
/// chunk shares this many version pointers (one count each), and dropping
/// the shared copy gives them back; on a pinned 100k-point tree 64 halved
/// that cost against 256 (`docs/PERF.md`, "Recycled node versions").
pub const SLOT_CHUNK: usize = 64;

/// One stored node version: the payload plus the epoch of the batch that
/// last mutated it, plus the node's block-cache slot.
#[derive(Debug)]
pub struct VersionedNode<S: Summary, L> {
    /// The epoch stamp: the (in-flight) epoch of the last mutation, i.e. the
    /// publish that first covered this version of the node.
    pub version: u64,
    /// The node payload.
    pub node: Node<S, L>,
    /// The version's cached column gather, shared by every snapshot that
    /// reaches the version.  Every write to the node empties it
    /// ([`NodeArena::node_mut`]), so a filled slot always describes this
    /// version as it is.
    pub cache: BlockCacheSlot,
    /// The arena generation that created this version: only that
    /// generation may graveyard it.
    generation: u64,
}

type Version<S, L> = Arc<VersionedNode<S, L>>;
type SharedChunk<S, L> = Arc<Vec<Version<S, L>>>;

/// One chunk of the arena's slot table.
#[derive(Debug)]
struct Chunk<S: Summary, L> {
    /// The arena's own slots, written without touching a shared count.
    slots: Vec<Version<S, L>>,
    /// The slots as snapshots share them: built by the first capture after
    /// a write, dropped by the next write (its pointers count as sharers
    /// while the arena holds it).
    shared: OnceLock<SharedChunk<S, L>>,
}

impl<S: Summary, L> Chunk<S, L> {
    fn new(slots: Vec<Version<S, L>>) -> Self {
        Self {
            slots,
            shared: OnceLock::new(),
        }
    }

    /// The chunk's shared copy, built on first use.
    fn share(&self) -> SharedChunk<S, L> {
        Arc::clone(self.shared.get_or_init(|| Arc::new(self.slots.clone())))
    }

    /// The slots, for a write: the arena lets go of its shared copy first.
    fn slots_mut(&mut self) -> &mut Vec<Version<S, L>> {
        self.shared.take();
        &mut self.slots
    }
}

impl<S: Summary, L> Clone for Chunk<S, L> {
    fn clone(&self) -> Self {
        Self {
            slots: self.slots.clone(),
            shared: self.shared.clone(),
        }
    }
}

/// A process-wide unique arena generation.
fn next_generation() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// Issues a best-effort T0 prefetch of the cache lines holding one node
/// version (node header, version stamp and block-cache slot).
///
/// Reading the slot's pointer loads only the chunk entry; the version
/// itself is not demand-loaded — that is the whole point.  A pure hint:
/// never faults, and compiles to nothing off x86-64.
#[inline(always)]
fn prefetch_version<S: Summary, L>(version: &Version<S, L>) {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        let ptr = Arc::as_ptr(version).cast::<i8>();
        // SAFETY: `_mm_prefetch` is a hint that never faults; the second
        // line covers versions wider than one cache line (the node header
        // plus its version and cache slot).
        unsafe {
            _mm_prefetch::<_MM_HINT_T0>(ptr);
            _mm_prefetch::<_MM_HINT_T0>(ptr.wrapping_add(64));
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = version;
}

/// The shared pin registry: which epochs are still pinned by how many
/// snapshots.
///
/// The registry does not own any node memory — retired versions are kept
/// alive by the snapshots' `Arc`s (see the [module docs](crate::arena)) —
/// but it is the single place writers can ask "is anything reading an old
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

/// An owned view of the arena's storage at one instant: the shared copies
/// of the slot-table chunks.
///
/// Taking one costs `O(chunks)` pointer copies (plus one count per slot of
/// each chunk written since the last capture) — no node payload is
/// touched — and works from `&self`: sharing is detected lazily at the
/// arena's next write to each version.  This is what a
/// [`crate::TreeSnapshot`] holds, and what incremental refresh diffs
/// against the live arena ([`NodeArena::refresh_spine`]).
#[derive(Debug, Clone)]
pub struct ArenaSpine<S: Summary, L> {
    chunks: Vec<SharedChunk<S, L>>,
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

    fn versioned(&self, id: NodeId) -> &VersionedNode<S, L> {
        &self.chunks[id / SLOT_CHUNK][id % SLOT_CHUNK]
    }

    /// Read access to a node as of capture time.
    #[must_use]
    pub fn node(&self, id: NodeId) -> &Node<S, L> {
        &self.versioned(id).node
    }

    /// Best-effort prefetch of the version holding node `id`: pulls its
    /// cache lines toward L1 so an imminent [`Self::node`] read does not
    /// stall on memory.  Out-of-range ids are ignored; a pure hint on every
    /// platform.
    #[inline]
    pub fn prefetch(&self, id: NodeId) {
        if id < self.len {
            prefetch_version(&self.chunks[id / SLOT_CHUNK][id % SLOT_CHUNK]);
        }
    }

    /// The version stamp of a node as of capture time.
    #[must_use]
    pub fn version(&self, id: NodeId) -> u64 {
        self.versioned(id).version
    }

    /// The block-cache slot of a node as of capture time.
    ///
    /// The slot lives in the (possibly shared) version, so a warm block
    /// filled through one spine is visible to every other holder of the
    /// version — including the live arena, as long as it has not retired
    /// it.  The arena never writes a version someone else reaches (it
    /// retires a copy instead), so the block stays valid for as long as the
    /// spine holds the version.
    #[must_use]
    pub fn cache_slot(&self, id: NodeId) -> &BlockCacheSlot {
        &self.versioned(id).cache
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
}

/// What an arena's node versions amount to at one instant
/// ([`NodeArena::census`]); censuses of several arenas add up.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArenaCensus {
    /// Node versions the arena holds: one current version per node id,
    /// plus every retired version it keeps for recycling.
    pub versions_live: usize,
    /// Retired versions the arena keeps that a snapshot still reaches, so
    /// they cannot be recycled yet.
    pub versions_held_by_pins: usize,
    /// Copy-on-write copies written into a recycled version so far.
    pub versions_recycled: u64,
}

impl std::ops::Add for ArenaCensus {
    type Output = Self;

    fn add(self, other: Self) -> Self {
        Self {
            versions_live: self.versions_live + other.versions_live,
            versions_held_by_pins: self.versions_held_by_pins + other.versions_held_by_pins,
            versions_recycled: self.versions_recycled + other.versions_recycled,
        }
    }
}

impl std::iter::Sum for ArenaCensus {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::default(), |a, b| a + b)
    }
}

/// The retired versions of one node kind an arena keeps for recycling.
#[derive(Debug)]
struct Graveyard<S: Summary, L> {
    /// Versions no snapshot reached at the last [`NodeArena::reclaim`]:
    /// the next copies write into these.
    spares: Vec<Version<S, L>>,
    /// Versions retired since the last reclaim, or still reached by a
    /// snapshot at it.
    retired: Vec<Version<S, L>>,
    /// Copies of this kind made since the last reclaim — the next
    /// reclaim's bound on spares.
    copies: usize,
}

impl<S: Summary, L> Default for Graveyard<S, L> {
    fn default() -> Self {
        Self {
            spares: Vec::new(),
            retired: Vec::new(),
            copies: 0,
        }
    }
}

impl<S: Summary, L> Graveyard<S, L> {
    /// Turns every retired version no snapshot reaches into a spare, keeps
    /// at most as many spares as the last batch made copies, and frees the
    /// rest.
    fn reclaim(&mut self) {
        let bound = std::mem::take(&mut self.copies);
        self.spares.truncate(bound);
        let mut i = 0;
        while i < self.retired.len() {
            if Arc::get_mut(&mut self.retired[i]).is_some() {
                let free = self.retired.swap_remove(i);
                if self.spares.len() < bound {
                    self.spares.push(free);
                }
            } else {
                i += 1;
            }
        }
    }

    /// Takes the spare a copy of `source` lands in.  A directory copy
    /// takes the shortest spare holding at least as many entries, else
    /// the one holding the most, so it clones as few entries afresh as it
    /// can.  A leaf copy takes the last spare: its buffer grows to the
    /// source's when it is too small, and a longer leaf's buffer would
    /// keep room the copy does not need.
    fn take_spare(&mut self, source: &Node<S, L>) -> Option<Version<S, L>> {
        let NodeKind::Inner { entries } = &source.kind else {
            return self.spares.pop();
        };
        let fit = |spare: &Version<S, L>| {
            let have = match &spare.node.kind {
                NodeKind::Inner { entries } => entries.len(),
                NodeKind::Leaf { .. } => 0,
            };
            // Spares holding enough entries first, the shortest of them;
            // then the one holding the most.
            let short = have < entries.len();
            (short, if short { usize::MAX - have } else { have })
        };
        let pick = (0..self.spares.len()).min_by_key(|&i| fit(&self.spares[i]))?;
        Some(self.spares.swap_remove(pick))
    }

    fn held_by_pins(&self) -> usize {
        self.retired
            .iter()
            .filter(|v| Arc::strong_count(v) > 1)
            .count()
    }

    fn len(&self) -> usize {
        self.spares.len() + self.retired.len()
    }
}

/// The epoch-versioned node arena over reference-counted node versions.
///
/// Nodes are addressed through a chunked slot table; mutation goes through
/// [`NodeArena::node_mut`], which copies a node **only** when a snapshot or
/// cloned tree still reaches its current version (copy-on-write at node
/// granularity).  Node ids are stable: a copy repoints the slot, so child
/// pointers never need rewriting.  The copy writes into a spare version
/// that a released pin gave back whenever one is left (see the
/// [module docs](crate::arena)).
#[derive(Debug)]
pub struct NodeArena<S: Summary, L> {
    chunks: Vec<Chunk<S, L>>,
    len: usize,
    /// Number of published epochs (batches closed by [`NodeArena::publish`]).
    epoch: u64,
    registry: Arc<EpochRegistry>,
    /// Retired node copies created by copy-on-write so far.
    retired: u64,
    /// Copies written into a recycled version so far.
    recycled: u64,
    /// This arena's generation; [`Clone`] moves both sides to a fresh one
    /// (an atomic, because `clone` takes `&self`).
    generation: AtomicU64,
    /// Retired versions kept for recycling: `[directory, leaf]`.
    graves: [Graveyard<S, L>; 2],
    /// The census this arena last added to the process-wide gauges, so
    /// the next report (or the arena's drop) adds only the difference.
    reported: ArenaCensus,
}

impl<S: Summary, L: LeafItems> NodeArena<S, L> {
    /// Creates an arena holding a single empty leaf (the root of a fresh
    /// tree).
    #[must_use]
    pub fn new() -> Self {
        let generation = next_generation();
        let root = Arc::new(VersionedNode {
            version: 0,
            node: Node::empty_leaf(),
            cache: BlockCacheSlot::new(),
            generation,
        });
        Self {
            chunks: vec![Chunk::new(vec![root])],
            len: 1,
            epoch: 0,
            registry: Arc::new(EpochRegistry::default()),
            retired: 0,
            recycled: 0,
            generation: AtomicU64::new(generation),
            graves: [Graveyard::default(), Graveyard::default()],
            reported: ArenaCensus::default(),
        }
    }
}

impl<S: Summary, L> NodeArena<S, L> {
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

    fn versioned(&self, id: NodeId) -> &VersionedNode<S, L> {
        &self.chunks[id / SLOT_CHUNK].slots[id % SLOT_CHUNK]
    }

    /// Read access to a node.
    #[must_use]
    pub fn node(&self, id: NodeId) -> &Node<S, L> {
        &self.versioned(id).node
    }

    /// Best-effort prefetch of the version holding node `id`: pulls its
    /// cache lines toward L1 so an imminent [`Self::node`] read does not
    /// stall on memory.  Out-of-range ids are ignored; a pure hint on every
    /// platform.
    #[inline]
    pub fn prefetch(&self, id: NodeId) {
        if id < self.len {
            prefetch_version(&self.chunks[id / SLOT_CHUNK].slots[id % SLOT_CHUNK]);
        }
    }

    /// The version stamp of a node: the epoch of the batch that last mutated
    /// it.
    #[must_use]
    pub fn version(&self, id: NodeId) -> u64 {
        self.versioned(id).version
    }

    /// The block-cache slot of a node (shared with any snapshot reaching
    /// the node's current version).
    #[must_use]
    pub fn cache_slot(&self, id: NodeId) -> &BlockCacheSlot {
        &self.versioned(id).cache
    }

    /// The published epoch: the number of batches closed so far.  Snapshots
    /// pin this value.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Publishes the current in-flight epoch (called by `finish_batch`):
    /// every node stamped during the batch becomes part of the new published
    /// root epoch.  The arena's gauges are reported here, once per batch.
    pub fn publish(&mut self) {
        self.epoch += 1;
        if bt_obs::enabled() {
            self.report(self.census());
        }
    }

    /// Starts a batch's reclamation: retired versions no snapshot reaches
    /// any more become spares for the batch's copies, up to the number of
    /// copies the previous batch made of each node kind; the rest are
    /// freed.  Versions a snapshot still reaches wait for a later batch.
    pub fn reclaim(&mut self) {
        for grave in &mut self.graves {
            grave.reclaim();
        }
    }

    /// Number of retired node copies created by copy-on-write so far.  Zero
    /// as long as no snapshot — and no [`Clone`]d tree, which shares the
    /// versions the same way — overlaps a write: the no-sharer fast path
    /// never copies.
    #[must_use]
    pub fn retired_nodes(&self) -> u64 {
        self.retired
    }

    /// The arena's version census: versions held, retired versions a pin
    /// still reaches, and copies recycled so far.  Costs one reference-count
    /// load per retired version kept.
    #[must_use]
    pub fn census(&self) -> ArenaCensus {
        ArenaCensus {
            versions_live: self.len + self.graves.iter().map(Graveyard::len).sum::<usize>(),
            versions_held_by_pins: self.graves.iter().map(Graveyard::held_by_pins).sum(),
            versions_recycled: self.recycled,
        }
    }

    /// Adds the difference between `census` and what this arena reported
    /// last to the process-wide gauges.
    fn report(&mut self, census: ArenaCensus) {
        let m = bt_obs::tree_metrics();
        let diff = |now: usize, then: usize| now as f64 - then as f64;
        m.arena_versions_live
            .add(diff(census.versions_live, self.reported.versions_live));
        m.arena_versions_held_by_pins.add(diff(
            census.versions_held_by_pins,
            self.reported.versions_held_by_pins,
        ));
        m.arena_versions_recycled
            .add(census.versions_recycled - self.reported.versions_recycled);
        self.reported = census;
    }

    /// The shared epoch registry (snapshots pin their epoch here).
    #[must_use]
    pub fn registry(&self) -> &Arc<EpochRegistry> {
        &self.registry
    }

    /// Captures the storage spine for a snapshot: `O(chunks)` pointer
    /// copies, plus one count per slot of each chunk written since the
    /// last capture; no node payload is touched.
    #[must_use]
    pub fn snapshot_spine(&self) -> ArenaSpine<S, L> {
        ArenaSpine {
            chunks: self.chunks.iter().map(Chunk::share).collect(),
            len: self.len,
        }
    }

    /// Incrementally refreshes `spine` to the arena's current state,
    /// replacing **only** the slot chunks the arena has touched since the
    /// spine was captured (pointer-equality diff) and reusing the rest
    /// as-is.
    pub fn refresh_spine(&self, spine: &mut ArenaSpine<S, L>) -> SnapshotRefresh {
        let mut report = SnapshotRefresh::default();
        for (i, chunk) in self.chunks.iter().enumerate() {
            let chunk = chunk.share();
            match spine.chunks.get_mut(i) {
                Some(held) if Arc::ptr_eq(held, &chunk) => report.chunks_reused += 1,
                Some(held) => {
                    *held = chunk;
                    report.chunks_refreshed += 1;
                }
                None => {
                    spine.chunks.push(chunk);
                    report.chunks_refreshed += 1;
                }
            }
        }
        spine.len = self.len;
        report
    }

    /// Adds a node stamped with the in-flight epoch and returns its id.
    pub fn push(&mut self, node: Node<S, L>) -> NodeId {
        let version = Arc::new(VersionedNode {
            version: self.epoch + 1,
            node,
            cache: BlockCacheSlot::new(),
            generation: *self.generation.get_mut(),
        });
        let id = self.len;
        self.len += 1;
        if id.is_multiple_of(SLOT_CHUNK) {
            self.chunks.push(Chunk::new(Vec::with_capacity(SLOT_CHUNK)));
        }
        let chunk = self.chunks.last_mut().expect("chunk just ensured");
        chunk.slots_mut().push(version);
        id
    }
}

impl<S: Summary + Clone, L: Clone> NodeArena<S, L> {
    /// Mutable access to a node — the copy-on-write point.
    ///
    /// If no snapshot or cloned tree reaches the node's current version,
    /// the write happens in place.  Otherwise this one node is retired: the
    /// slot is repointed to a copy — written into a spare version when one
    /// is left, freshly allocated when not — and the retired version goes
    /// to the graveyard (if this arena's generation created it).  Either
    /// way the node is stamped with the in-flight epoch (`published + 1`),
    /// and its block-cache slot is emptied — on **every** call, which is
    /// the whole cache rule: this is the only way to change a node, so a
    /// filled slot always describes the node as it is now (the sharers keep
    /// their blocks — the retire path never writes a shared version).
    pub fn node_mut(&mut self, id: NodeId) -> &mut Node<S, L> {
        &mut self.versioned_mut(id).node
    }

    fn versioned_mut(&mut self, id: NodeId) -> &mut VersionedNode<S, L> {
        let stamp = self.epoch + 1;
        let generation = *self.generation.get_mut();
        let slot = &mut self.chunks[id / SLOT_CHUNK].slots_mut()[id % SLOT_CHUNK];
        // No weak handles exist, so a count of one is the proof that no
        // snapshot or cloned tree reaches the version.
        if Arc::strong_count(slot) > 1 {
            self.retired += 1;
            let grave = &mut self.graves[usize::from(slot.node.is_leaf())];
            grave.copies += 1;
            let mut copy = grave.take_spare(&slot.node);
            if let Some(reused) = copy.as_mut().and_then(Arc::get_mut) {
                reused.node.clone_from(&slot.node);
                reused.generation = generation;
                self.recycled += 1;
            } else {
                copy = Some(Arc::new(VersionedNode {
                    version: stamp,
                    node: slot.node.clone(),
                    cache: BlockCacheSlot::new(),
                    generation,
                }));
            }
            let old = std::mem::replace(slot, copy.expect("a copy was made"));
            if old.generation == generation {
                grave.retired.push(old);
            }
        }
        let versioned = Arc::get_mut(slot).expect("the slot's version is unshared");
        versioned.cache.clear();
        versioned.version = stamp;
        versioned
    }
}

impl<S: Summary, L: LeafItems> Default for NodeArena<S, L> {
    fn default() -> Self {
        Self::new()
    }
}

impl<S: Summary, L> Clone for NodeArena<S, L> {
    /// Cloning an arena shares the versions copy-on-write (pointer copies
    /// only, one count per node) but starts a **fresh registry**:
    /// snapshots of the clone pin the clone's registry, not the original's.
    /// Mutating either tree copies shared nodes on first write, so the two
    /// trees stay isolated.
    ///
    /// Both arenas move to a fresh generation: a version they share may be
    /// held by the other tree for good, so neither graveyards it.  The
    /// clone starts with no spares.
    fn clone(&self) -> Self {
        self.generation.store(next_generation(), Ordering::Relaxed);
        Self {
            chunks: self.chunks.clone(),
            len: self.len,
            epoch: self.epoch,
            registry: Arc::new(EpochRegistry::default()),
            retired: 0,
            recycled: 0,
            generation: AtomicU64::new(next_generation()),
            graves: [Graveyard::default(), Graveyard::default()],
            reported: ArenaCensus::default(),
        }
    }
}

impl<S: Summary, L> Drop for NodeArena<S, L> {
    /// Takes this arena's share back out of the process-wide gauges.
    fn drop(&mut self) {
        if bt_obs::enabled() {
            self.report(ArenaCensus {
                versions_recycled: self.recycled,
                ..ArenaCensus::default()
            });
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
        type Dir = Vec<crate::node::Entry<W>>;
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

    fn leaf_items(arena: &NodeArena<W, Vec<u32>>, id: NodeId) -> Vec<u32> {
        match &arena.node(id).kind {
            NodeKind::Leaf { items } => items.clone(),
            NodeKind::Inner { .. } => panic!("expected leaf"),
        }
    }

    fn spine_items(spine: &ArenaSpine<W, Vec<u32>>, id: NodeId) -> Vec<u32> {
        match &spine.node(id).kind {
            NodeKind::Leaf { items } => items.clone(),
            NodeKind::Inner { .. } => panic!("expected leaf"),
        }
    }

    #[test]
    fn in_place_mutation_without_snapshots_retires_nothing() {
        let mut arena: NodeArena<W, Vec<u32>> = NodeArena::new();
        for i in 0..10 {
            arena.node_mut(0).items_mut().push(i);
        }
        assert_eq!(arena.retired_nodes(), 0);
        assert_eq!(leaf_items(&arena, 0), (0..10).collect::<Vec<_>>());
        assert_eq!(arena.version(0), 1);
    }

    #[test]
    fn pinned_spine_forces_one_copy_then_writes_in_place() {
        let mut arena: NodeArena<W, Vec<u32>> = NodeArena::new();
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
        assert_eq!(spine_items(&spine, 0), vec![1]);
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
        let mut a: NodeArena<W, Vec<u32>> = NodeArena::new();
        a.node_mut(0).items_mut().push(1);
        let mut b = a.clone();
        b.node_mut(0).items_mut().push(2);
        assert_eq!(leaf_items(&a, 0), vec![1]);
        assert_eq!(leaf_items(&b, 0), vec![1, 2]);
    }

    #[test]
    fn pushes_resolve_across_slot_chunks() {
        let mut arena: NodeArena<W, Vec<u32>> = NodeArena::new();
        // The root occupies slot 0 of chunk 0; the next SLOT_CHUNK - 1
        // pushes fill that chunk, the one after opens chunk 1.
        for _ in 0..(SLOT_CHUNK - 1) {
            let _ = arena.push(Node::empty_leaf());
        }
        let id = arena.push(Node::empty_leaf());
        assert_eq!(id, SLOT_CHUNK);
        assert_eq!(arena.len(), SLOT_CHUNK + 1);
        assert_eq!(arena.census().versions_live, SLOT_CHUNK + 1);
        // Ids keep resolving across the chunk boundary.
        arena.node_mut(id).items_mut().push(7);
        assert_eq!(leaf_items(&arena, id), vec![7]);
    }

    /// One pinned write per round: pin, write node 0, release.
    fn pinned_round(arena: &mut NodeArena<W, Vec<u32>>, item: u32) {
        arena.reclaim();
        let spine = arena.snapshot_spine();
        arena.node_mut(0).items_mut().push(item);
        arena.publish();
        drop(spine);
    }

    #[test]
    fn released_versions_are_recycled_by_the_next_copy() {
        let mut arena: NodeArena<W, Vec<u32>> = NodeArena::new();
        arena.node_mut(0).items_mut().push(0);
        arena.publish();
        pinned_round(&mut arena, 1);
        // The retired version waits in the graveyard; no pin reaches it.
        let census = arena.census();
        assert_eq!(census.versions_live, 2);
        assert_eq!(census.versions_held_by_pins, 0);
        assert_eq!(census.versions_recycled, 0);
        // Every later round writes its copy into the version the previous
        // round retired: the arena never holds more than one spare.
        for item in 2..10 {
            pinned_round(&mut arena, item);
            let census = arena.census();
            assert_eq!(census.versions_live, 2);
            assert_eq!(census.versions_recycled, u64::from(item) - 1);
        }
        assert_eq!(arena.retired_nodes(), 9);
        assert_eq!(leaf_items(&arena, 0), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn versions_a_pin_reaches_are_never_recycled() {
        let mut arena: NodeArena<W, Vec<u32>> = NodeArena::new();
        arena.node_mut(0).items_mut().push(0);
        arena.publish();
        let held = arena.snapshot_spine();
        pinned_round(&mut arena, 1);
        assert_eq!(arena.census().versions_held_by_pins, 1);
        for item in 2..6 {
            pinned_round(&mut arena, item);
        }
        // Nothing was recycled into the version `held` reads, and it still
        // reads the pre-pin state.
        assert_eq!(spine_items(&held, 0), vec![0]);
        assert_eq!(arena.census().versions_held_by_pins, 1);
        drop(held);
        assert_eq!(arena.census().versions_held_by_pins, 0);
        pinned_round(&mut arena, 6);
        assert_eq!(leaf_items(&arena, 0), (0..7).collect::<Vec<_>>());
    }

    #[test]
    fn spares_beyond_the_last_batch_copies_are_freed() {
        let mut arena: NodeArena<W, Vec<u32>> = NodeArena::new();
        for _ in 0..7 {
            let _ = arena.push(Node::empty_leaf());
        }
        arena.publish();
        // One batch retires all eight leaves under a pin...
        arena.reclaim();
        let spine = arena.snapshot_spine();
        for id in 0..8 {
            arena.node_mut(id).items_mut().push(1);
        }
        arena.publish();
        drop(spine);
        assert_eq!(arena.census().versions_live, 16);
        // ...the next one copies only two: it keeps eight spares (the last
        // batch's copies) and recycles two of them.
        arena.reclaim();
        let spine = arena.snapshot_spine();
        for id in 0..2 {
            arena.node_mut(id).items_mut().push(2);
        }
        arena.publish();
        drop(spine);
        assert_eq!(arena.census().versions_recycled, 2);
        assert_eq!(arena.census().versions_live, 16);
        // A batch without a pin copies nothing: the next reclaim keeps two
        // spares, the one after none.
        arena.reclaim();
        assert_eq!(arena.census().versions_live, 8 + 2);
        arena.reclaim();
        assert_eq!(arena.census().versions_live, 8);
    }

    #[test]
    fn cloned_arenas_graveyard_only_their_own_versions() {
        let mut trained: NodeArena<W, Vec<u32>> = NodeArena::new();
        trained.node_mut(0).items_mut().push(0);
        trained.publish();
        let mut live = trained.clone();
        // The first pinned write retires a version `trained` shares: it is
        // dropped, not kept, so `trained` cannot block the graveyard.
        pinned_round(&mut live, 1);
        assert_eq!(live.retired_nodes(), 1);
        assert_eq!(live.census().versions_live, 1);
        // Versions `live` made itself are recycled as usual.
        for item in 2..6 {
            pinned_round(&mut live, item);
        }
        assert_eq!(live.census().versions_held_by_pins, 0);
        assert_eq!(live.census().versions_recycled, 3);
        assert_eq!(leaf_items(&trained, 0), vec![0]);
        assert_eq!(leaf_items(&live, 0), (0..6).collect::<Vec<_>>());
    }

    fn warm(slot: &BlockCacheSlot) {
        slot.fill(Box::new(bt_stats::GatheredBlock::new()));
    }

    #[test]
    fn restamping_a_node_drops_its_cached_block() {
        let mut arena: NodeArena<W, Vec<u32>> = NodeArena::new();
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
        let mut arena: NodeArena<W, Vec<u32>> = NodeArena::new();
        arena.node_mut(0).items_mut().push(1);
        arena.publish();
        let spine = arena.snapshot_spine();
        warm(spine.cache_slot(0));
        // The slot is shared: the live arena sees the warm block until it
        // mutates the node.
        assert!(arena.cache_slot(0).get().is_some());
        // Copy-on-write retire: the live copy starts with an empty slot, the
        // spine keeps reading its warm block.
        arena.node_mut(0).items_mut().push(2);
        assert!(arena.cache_slot(0).get().is_none());
        assert!(spine.cache_slot(0).get().is_some());
    }

    #[test]
    fn recycled_versions_start_with_an_empty_block() {
        let mut arena: NodeArena<W, Vec<u32>> = NodeArena::new();
        arena.node_mut(0).items_mut().push(1);
        arena.publish();
        let spine = arena.snapshot_spine();
        warm(spine.cache_slot(0));
        arena.node_mut(0).items_mut().push(2);
        arena.publish();
        drop(spine);
        // The next pinned write recycles the warm retired version.
        pinned_round(&mut arena, 3);
        assert_eq!(arena.census().versions_recycled, 1);
        assert!(arena.cache_slot(0).get().is_none());
        assert_eq!(leaf_items(&arena, 0), vec![1, 2, 3]);
    }

    #[test]
    fn refresh_spine_reuses_untouched_storage() {
        let mut arena: NodeArena<W, Vec<u32>> = NodeArena::new();
        for _ in 0..(2 * SLOT_CHUNK) {
            let _ = arena.push(Node::empty_leaf());
        }
        arena.publish();
        let mut spine = arena.snapshot_spine();
        // No writes: everything is pointer-equal.
        let report = arena.refresh_spine(&mut spine);
        assert_eq!(report.chunks_refreshed, 0);
        assert_eq!(report.chunks_reused, 3);
        // Touch one node: exactly the rewritten chunk refreshes.
        arena.node_mut(0).items_mut().push(9);
        let report = arena.refresh_spine(&mut spine);
        assert_eq!(report.chunks_refreshed, 1);
        assert_eq!(report.chunks_reused, 2);
        assert_eq!(spine_items(&spine, 0), vec![9]);
    }
}
