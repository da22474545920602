//! # bt-obs — observability for the anytime index stack
//!
//! The paper's anytime contract is an observability claim: every query can
//! report a certified `[lower, upper]` answer *as a function of budget
//! spent*.  This crate turns that claim into first-class telemetry shared
//! by every layer of the workspace:
//!
//! * [`registry`] — a lock-free metrics registry: atomic [`Counter`]s,
//!   [`Gauge`]s and log-bucketed [`Histogram`]s registered by name in a
//!   process-global [`Registry`].  The only lock sits at
//!   registration/exposition time; recording is relaxed atomics.
//! * [`hist`] — power-of-two-bucketed histograms for quantities that span
//!   decades (latency in nanoseconds, bound widths in log-space), with an
//!   unsynchronised [`LocalHistogram`] mirror for per-shard buffering.
//! * [`handle`] — [`MetricsHandle`], a per-shard/per-worker buffer that
//!   accumulates counter increments and histogram observations locally and
//!   merges them into the global registry with one atomic op per metric at
//!   batch/query boundaries.
//! * [`trace`](mod@trace) — structured span events for the batch-insert and
//!   query-refinement lifecycles (`descend`, `finish_batch`, `split`,
//!   `gather`, `refine_step`, `snapshot_refresh`) delivered to a pluggable
//!   [`TraceSubscriber`]; the default subscriber is a bounded in-memory
//!   ring.  The `refine_step` stream is the paper's quality-over-time
//!   curve as events: (budget spent, bound width, certified?) per round.
//! * [`expo`] — exposition: a point-in-time [`Snapshot`] of the registry
//!   rendered as Prometheus text format or JSON (with a round-trip
//!   parser), plus [`Snapshot::delta_since`] for interval accounting.
//! * [`tree_metrics`](mod@tree_metrics) — the metric catalogue the tree layers record into
//!   (see `docs/OBSERVABILITY.md` for the full list and naming rules).
//!
//! ## Cost contract
//!
//! * **Disabled at runtime** ([`set_enabled`]`(false)`): every recording
//!   call is one relaxed atomic load and a predictable branch.
//! * **Compiled out** (`--no-default-features`): [`metrics_compiled`] is
//!   `false` and the guard folds to a constant, so recording paths vanish;
//!   registration and snapshots still work but report zeros.
//! * **Enabled**: hot loops stay untouched — the tree layers record at
//!   batch/query boundaries only, through existing `DescentStats` /
//!   `QueryStats` deltas or a [`MetricsHandle`].
//!
//! Tracing has its own flag ([`set_tracing`], default off) because span
//! events fire per node visit, not per boundary.

pub mod expo;
pub mod handle;
pub mod hist;
pub mod registry;
pub mod trace;
pub mod tree_metrics;

pub use expo::{MetricSnapshot, Snapshot, ValueSnapshot};
pub use handle::{CounterId, HistogramId, MetricsHandle};
pub use hist::{Histogram, HistogramSpec, LocalHistogram};
pub use registry::{enabled, set_enabled, Counter, Gauge, Registry};
pub use trace::{
    set_trace_subscriber, set_tracing, trace, trace_ring, tracing, TraceEvent, TraceRing,
    TraceSubscriber,
};
pub use tree_metrics::{tree_metrics, TreeMetrics};

/// Whether the recording paths were compiled in (`metrics` feature).
///
/// With the feature off this is `false` and every guard that checks it
/// folds away at compile time — the no-op contract of
/// `--no-default-features` builds.
#[must_use]
pub const fn metrics_compiled() -> bool {
    cfg!(feature = "metrics")
}
