//! Boundary glue between the tree engine and the [`bt_obs`] registry.
//!
//! The engine's hot loops never touch an atomic: descent and refinement
//! keep accumulating into the existing [`DescentStats`] / [`QueryStats`]
//! structs (which thereby become thin local views of the metric
//! catalogue), and the helpers here fold the accumulated deltas into the
//! global registry **once per batch or query boundary** — the merge
//! discipline `bt_obs`'s `MetricsHandle` codifies.  Every helper is a
//! no-op behind [`bt_obs::enabled`]'s single relaxed-atomic check, and
//! the span-trace emissions are additionally gated on
//! [`bt_obs::tracing`] (off by default).

use std::cell::Cell;
use std::time::Instant;

use bt_obs::{tree_metrics, HistogramId, MetricsHandle, TraceEvent};

use crate::arena::SnapshotRefresh;
use crate::descent::{DepthHistogram, DescentStats};
use crate::query::{OutlierVerdict, QueryAnswer, QueryStats};

/// Starts a wall-clock timer only while metric recording is on, so
/// disabled runs never call [`Instant::now`].
#[inline]
#[must_use]
pub fn boundary_timer() -> Option<Instant> {
    bt_obs::enabled().then(Instant::now)
}

#[inline]
fn elapsed_ns(started: Option<Instant>) -> Option<u64> {
    started.map(|s| u64::try_from(s.elapsed().as_nanos()).unwrap_or(u64::MAX))
}

/// Folds one finished insert batch into the registry: the
/// [`DescentStats`] delta, the outcome split from the [`DepthHistogram`],
/// the batch latency and a `finish_batch` span event.
pub(crate) fn record_insert_batch(
    stats: &DescentStats,
    depths: &DepthHistogram,
    started: Option<Instant>,
    height: usize,
) {
    if !bt_obs::enabled() {
        return;
    }
    let m = tree_metrics();
    let reached = depths.reached_leaf as u64;
    let parked = depths.parked_total() as u64;
    m.insert_objects.add(reached + parked);
    m.insert_reached_leaf.add(reached);
    m.insert_parked.add(parked);
    m.insert_batches.add(stats.batches);
    m.insert_node_visits.add(stats.node_visits);
    m.insert_summary_refreshes.add(stats.summary_refreshes);
    m.insert_splits.add(stats.splits);
    m.insert_prefetches.add(stats.prefetches);
    m.tree_height.set(height as f64);
    if let Some(ns) = elapsed_ns(started) {
        m.batch_latency_ns.observe(ns as f64);
        bt_obs::trace(|| TraceEvent::FinishBatch {
            objects: reached + parked,
            splits: stats.splits,
            latency_ns: ns,
        });
    }
}

/// Folds a [`QueryStats`] delta into the registry's query counters.
pub(crate) fn record_query_stats(delta: &QueryStats) {
    if !bt_obs::enabled() {
        return;
    }
    let m = tree_metrics();
    m.queries.add(delta.queries);
    m.query_nodes_read.add(delta.nodes_read);
    m.query_elements_scored.add(delta.elements_scored);
    m.query_block_gathers.add(delta.block_gathers);
    m.query_gathers_avoided.add(delta.gathers_avoided);
    m.query_prefetches.add(delta.prefetches);
}

/// Records one answered query: latency, final bound width and the budget
/// it spent.
pub(crate) fn record_query_answer(answer: &QueryAnswer, started: Option<Instant>) {
    if !bt_obs::enabled() {
        return;
    }
    let m = tree_metrics();
    m.query_bound_width.observe(answer.uncertainty());
    m.refine_budget_spent.observe(answer.nodes_read as f64);
    if let Some(ns) = elapsed_ns(started) {
        m.query_latency_ns.observe(ns as f64);
    }
}

/// Folds a refinement loop into the registry as one query boundary: the
/// cursors' [`QueryStats`] delta plus the loop's wall-clock latency.
///
/// The query fold ([`crate::shard::refine_frontiers_over`]) records its
/// frontiers through this; downstream crates that drive cursors directly
/// through `begin_query` + `refine_query` — the Bayes-tree classifier does
/// — call it when their loop finishes, pairing it with [`boundary_timer`]
/// at the start, or passing `None` to record the work without reading a
/// clock.  Pooled cursors keep counting across queries, so `delta` is
/// `stats().delta_since(..)` of the loop's own work.
pub fn record_external_query(delta: &QueryStats, started: Option<Instant>) {
    if !bt_obs::enabled() {
        return;
    }
    record_query_stats(delta);
    if let Some(ns) = elapsed_ns(started) {
        tree_metrics().query_latency_ns.observe(ns as f64);
    }
}

/// Per-batch recorder for [`TreeView::query_batch`]'s per-answer
/// observations: buffers latency / bound-width / budget histograms in a
/// [`MetricsHandle`] and merges them (plus the cursor's [`QueryStats`]
/// delta) into the registry with one atomic op per metric when the batch
/// finishes.  Costs nothing but the enabled check when recording is off.
///
/// Latency is clocked **once per batch**, not per answer: clock reads can
/// cost microseconds under virtualised timers, so each answered query is
/// recorded at the batch's mean — the histogram's count and sum stay
/// exact while the batched hot loop never touches the clock.
///
/// The handle is the thread's: a finished batch hands it back for the
/// next, so a warm batch allocates nothing to record.
///
/// [`TreeView::query_batch`]: crate::TreeView::query_batch
pub(crate) struct QueryBatchRecorder(Option<RecorderInner>);

struct RecorderInner {
    handle: BatchHandle,
    started: Instant,
    answered: u64,
}

/// A handle buffering the three per-answer histograms.
struct BatchHandle {
    handle: MetricsHandle,
    latency_ns: HistogramId,
    bound_width: HistogramId,
    budget_spent: HistogramId,
}

thread_local! {
    /// The thread's batch handle between batches (flushed, so empty).
    static BATCH_HANDLE: Cell<Option<BatchHandle>> = const { Cell::new(None) };
}

impl BatchHandle {
    fn new() -> Self {
        let m = tree_metrics();
        let mut handle = MetricsHandle::new();
        let latency_ns = handle.histogram(&m.query_latency_ns);
        let bound_width = handle.histogram(&m.query_bound_width);
        let budget_spent = handle.histogram(&m.refine_budget_spent);
        Self {
            handle,
            latency_ns,
            bound_width,
            budget_spent,
        }
    }
}

impl QueryBatchRecorder {
    pub(crate) fn new() -> Self {
        if !bt_obs::enabled() {
            return Self(None);
        }
        let handle = BATCH_HANDLE
            .try_with(Cell::take)
            .ok()
            .flatten()
            .unwrap_or_else(BatchHandle::new);
        Self(Some(RecorderInner {
            handle,
            started: Instant::now(),
            answered: 0,
        }))
    }

    /// Buffers one answered query's observations locally.
    #[inline]
    pub(crate) fn record(&mut self, answer: &QueryAnswer) {
        let Some(inner) = &mut self.0 else {
            return;
        };
        inner.answered += 1;
        let h = &mut inner.handle;
        h.handle.observe(h.bound_width, answer.uncertainty());
        h.handle.observe(h.budget_spent, answer.nodes_read as f64);
    }

    /// Merges the buffered observations and the batch's [`QueryStats`]
    /// delta into the registry, spreading the batch's wall-clock evenly
    /// over the answered queries.
    pub(crate) fn finish(self, stats: &QueryStats) {
        if let Some(mut inner) = self.0 {
            let h = &mut inner.handle;
            if inner.answered > 0 {
                let total = elapsed_ns(Some(inner.started)).unwrap_or(0);
                let mean = total as f64 / inner.answered as f64;
                for _ in 0..inner.answered {
                    h.handle.observe(h.latency_ns, mean);
                }
            }
            h.handle.flush();
            record_query_stats(stats);
            let _ = BATCH_HANDLE.try_with(|slot| slot.set(Some(inner.handle)));
        }
    }
}

/// Records one refinement round of an anytime verdict loop — the
/// refinement trace: bound width into the registry histogram plus a
/// `refine_step` span event carrying (budget spent, width, certified?).
#[inline]
pub(crate) fn record_refine_step(round: u32, budget_spent: u64, width: f64, certified: bool) {
    if bt_obs::enabled() {
        tree_metrics().refine_bound_width.observe(width);
    }
    bt_obs::trace(|| TraceEvent::RefineStep {
        round,
        budget_spent,
        bound_width: width,
        certified,
    });
}

/// Records the verdict of a finished outlier/density certification.
pub(crate) fn record_verdict(verdict: OutlierVerdict) {
    if !bt_obs::enabled() {
        return;
    }
    let m = tree_metrics();
    if verdict == OutlierVerdict::Undecided {
        m.queries_uncertain.inc();
    } else {
        m.queries_certified.inc();
    }
}

/// Folds one incremental snapshot refresh into the registry and emits its
/// span event.
pub(crate) fn record_snapshot_refresh(refresh: &SnapshotRefresh) {
    if !bt_obs::enabled() {
        return;
    }
    let m = tree_metrics();
    m.snapshot_refreshes.inc();
    m.snapshot_chunks_reused.add(refresh.chunks_reused as u64);
    m.snapshot_chunks_refreshed
        .add(refresh.chunks_refreshed as u64);
    bt_obs::trace(|| TraceEvent::SnapshotRefresh {
        chunks_reused: refresh.chunks_reused as u64,
        chunks_refreshed: refresh.chunks_refreshed as u64,
    });
}
