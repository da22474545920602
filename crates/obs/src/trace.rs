//! Structured span tracing for the batch-insert and query-refinement
//! lifecycles.
//!
//! Tracing is separate from metrics because its events fire on per-node
//! paths (`descend`, `gather`), not just at boundaries: it is **off by
//! default** and gated by its own relaxed-atomic flag, so the disabled
//! cost on a hot loop is one load and a predictable branch.  Callers
//! build events lazily through [`trace`]'s closure so a disabled trace
//! never pays for event construction.
//!
//! Events go to the installed [`TraceSubscriber`]; the default is a
//! process-global bounded [`TraceRing`] that overwrites its oldest events
//! (and counts the overwrites) rather than blocking or growing.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};

use crate::metrics_compiled;

/// One span event from the tree layers.
///
/// The `RefineStep` stream is the paper's quality-over-time curve as
/// events: each refinement round of an outlier/density query reports the
/// budget spent so far, the current certified bound width and whether the
/// verdict is already certified.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// The batched-insert cursor descended one level.
    Descend {
        /// Arena index of the node descended into.
        node: u64,
        /// Depth of that node (root = 0).
        depth: u32,
    },
    /// One mini-batch finished (`finish_batch` published the epoch).
    FinishBatch {
        /// Objects drained in the batch.
        objects: u64,
        /// Node splits resolved while finishing.
        splits: u64,
        /// Wall-clock latency of the whole batch in nanoseconds.
        latency_ns: u64,
    },
    /// A node overflowed and was split.
    Split {
        /// Arena index of the node that split.
        node: u64,
    },
    /// A node's entries were gathered into a scoring block.
    Gather {
        /// Arena index of the gathered node.
        node: u64,
        /// Whether the per-node block cache served the gather.
        cached: bool,
    },
    /// One refinement round of an anytime query completed.
    RefineStep {
        /// Refinement round number (1-based).
        round: u32,
        /// Node reads spent so far on this query.
        budget_spent: u64,
        /// Current width of the certified `[lower, upper]` interval.
        bound_width: f64,
        /// Whether the verdict is already certified at this round.
        certified: bool,
    },
    /// A pinned snapshot caught up to the live tree.
    SnapshotRefresh {
        /// Slot-table chunks the refresh kept pinned unchanged.
        chunks_reused: u64,
        /// Slot-table chunks that had to be re-pinned.
        chunks_refreshed: u64,
    },
}

/// Receives every trace event while tracing is enabled.
///
/// Implementations must be cheap and non-blocking; they are called from
/// descent/query worker threads.
pub trait TraceSubscriber: Send + Sync {
    /// Delivers one event.
    fn record(&self, event: &TraceEvent);
}

/// A bounded in-memory event buffer — the default subscriber.
///
/// When full, the oldest event is dropped and counted in
/// [`TraceRing::dropped`]; the ring never blocks a recording thread
/// beyond its short mutex.
#[derive(Debug)]
pub struct TraceRing {
    capacity: usize,
    events: Mutex<VecDeque<TraceEvent>>,
    dropped: AtomicU64,
}

impl TraceRing {
    /// An empty ring holding at most `capacity` events.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            events: Mutex::new(VecDeque::new()),
            dropped: AtomicU64::new(0),
        }
    }

    /// Removes and returns every buffered event, oldest first.
    #[must_use]
    pub fn drain(&self) -> Vec<TraceEvent> {
        self.events
            .lock()
            .expect("trace ring poisoned")
            .drain(..)
            .collect()
    }

    /// Number of currently buffered events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.lock().expect("trace ring poisoned").len()
    }

    /// Whether the ring is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events overwritten because the ring was full.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

impl TraceSubscriber for TraceRing {
    fn record(&self, event: &TraceEvent) {
        let mut events = self.events.lock().expect("trace ring poisoned");
        if events.len() >= self.capacity {
            events.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        events.push_back(event.clone());
    }
}

static TRACING: AtomicBool = AtomicBool::new(false);

fn subscriber_slot() -> &'static RwLock<Option<Arc<dyn TraceSubscriber>>> {
    static SLOT: OnceLock<RwLock<Option<Arc<dyn TraceSubscriber>>>> = OnceLock::new();
    SLOT.get_or_init(|| RwLock::new(None))
}

/// The process-global default ring (capacity 4096) that receives events
/// when no custom subscriber is installed.
#[must_use]
pub fn trace_ring() -> &'static TraceRing {
    static RING: OnceLock<TraceRing> = OnceLock::new();
    RING.get_or_init(|| TraceRing::new(4096))
}

/// Whether span tracing is currently on (default: off).
#[inline]
#[must_use]
pub fn tracing() -> bool {
    metrics_compiled() && TRACING.load(Ordering::Relaxed)
}

/// Turns span tracing on or off process-wide.
///
/// Has no effect when the `metrics` feature is compiled out.
pub fn set_tracing(on: bool) {
    TRACING.store(on, Ordering::Relaxed);
}

/// Replaces the trace subscriber (`None` restores the default ring).
pub fn set_trace_subscriber(subscriber: Option<Arc<dyn TraceSubscriber>>) {
    *subscriber_slot().write().expect("subscriber poisoned") = subscriber;
}

/// Emits one trace event if tracing is on.
///
/// The event is built by the closure only after the enabled check, so a
/// disabled trace costs one relaxed load and a branch.
#[inline]
pub fn trace(event: impl FnOnce() -> TraceEvent) {
    if !tracing() {
        return;
    }
    let event = event();
    let slot = subscriber_slot().read().expect("subscriber poisoned");
    match &*slot {
        Some(subscriber) => subscriber.record(&event),
        None => trace_ring().record(&event),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_bounds_and_counts_drops() {
        let ring = TraceRing::new(2);
        for node in 0..5 {
            ring.record(&TraceEvent::Split { node });
        }
        assert_eq!(ring.len(), 2);
        assert_eq!(ring.dropped(), 3);
        let events = ring.drain();
        assert_eq!(
            events,
            vec![TraceEvent::Split { node: 3 }, TraceEvent::Split { node: 4 }]
        );
        assert!(ring.is_empty());
    }

    #[cfg(feature = "metrics")]
    #[test]
    fn events_reach_a_custom_subscriber_only_while_tracing() {
        let ring = Arc::new(TraceRing::new(16));
        set_trace_subscriber(Some(ring.clone()));
        trace(|| TraceEvent::Split { node: 1 });
        assert!(ring.is_empty(), "tracing starts disabled");
        set_tracing(true);
        trace(|| TraceEvent::Split { node: 2 });
        set_tracing(false);
        set_trace_subscriber(None);
        assert_eq!(ring.drain(), vec![TraceEvent::Split { node: 2 }]);
    }
}
