//! The process-global metrics registry and its scalar metric types.
//!
//! Recording is lock-free: [`Counter`] and [`Gauge`] are relaxed atomics
//! behind an `Arc`, and the global enable flag is a single relaxed load.
//! The registry's mutex is touched only at registration time (once per
//! metric per process, typically at startup) and at exposition time —
//! never on a recording path.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::expo::{MetricSnapshot, Snapshot, ValueSnapshot};
use crate::hist::{Histogram, HistogramSpec};
use crate::metrics_compiled;

static ENABLED: AtomicBool = AtomicBool::new(true);

/// Whether metric recording is currently on.
///
/// This is the single relaxed-atomic check every recording call makes;
/// when the `metrics` feature is compiled out it folds to `false` at
/// compile time and the recording paths vanish.
#[inline]
#[must_use]
pub fn enabled() -> bool {
    metrics_compiled() && ENABLED.load(Ordering::Relaxed)
}

/// Turns metric recording on or off process-wide (default: on).
///
/// Flipping this off makes every `inc`/`observe`/`set` a relaxed load and
/// a predictable branch — the disabled-path cost the overhead bench
/// asserts on.  Has no effect when the `metrics` feature is compiled out.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// A monotonically increasing counter.  Clones share the same cell.
#[derive(Debug, Clone, Default)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// A fresh zero counter (usually obtained via [`Registry::counter`]).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n` (no-op while recording is disabled).
    #[inline]
    pub fn add(&self, n: u64) {
        if enabled() && n > 0 {
            self.cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// The current total.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A last-writer-wins floating-point gauge.  Clones share the same cell.
#[derive(Debug, Clone)]
pub struct Gauge {
    bits: Arc<AtomicU64>,
}

impl Default for Gauge {
    fn default() -> Self {
        Self {
            bits: Arc::new(AtomicU64::new(0.0f64.to_bits())),
        }
    }
}

impl Gauge {
    /// A fresh zero gauge (usually obtained via [`Registry::gauge`]).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the gauge (no-op while recording is disabled).
    #[inline]
    pub fn set(&self, value: f64) {
        if enabled() {
            self.bits.store(value.to_bits(), Ordering::Relaxed);
        }
    }

    /// Adds `delta` to the gauge (no-op while recording is disabled) —
    /// for gauges that sum one contribution per owner, each owner adding
    /// the change of its own share.
    #[inline]
    pub fn add(&self, delta: f64) {
        if enabled() && delta != 0.0 {
            let _ = self
                .bits
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
                    Some((f64::from_bits(bits) + delta).to_bits())
                });
        }
    }

    /// The current value.
    #[must_use]
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

struct Entry {
    name: String,
    help: String,
    metric: Metric,
}

/// A named collection of metrics.
///
/// Registration is get-or-create by name: asking twice for the same name
/// returns clones of the same underlying cells, so every layer can
/// `Registry::global().counter(...)` independently and still share
/// totals.  Registering a name as two different kinds (or two histogram
/// specs) is a programming error and panics.
#[derive(Default)]
pub struct Registry {
    entries: Mutex<Vec<Entry>>,
}

static GLOBAL: Registry = Registry::new();

impl Registry {
    /// An empty registry (the process-global one is [`Registry::global`]).
    #[must_use]
    pub const fn new() -> Self {
        Self {
            entries: Mutex::new(Vec::new()),
        }
    }

    /// The process-global registry every layer records into.
    #[must_use]
    pub fn global() -> &'static Registry {
        &GLOBAL
    }

    /// Gets or registers the counter called `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different kind.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        let mut entries = self.entries.lock().expect("registry poisoned");
        if let Some(entry) = entries.iter().find(|e| e.name == name) {
            match &entry.metric {
                Metric::Counter(c) => return c.clone(),
                _ => panic!("metric `{name}` already registered as a non-counter"),
            }
        }
        let counter = Counter::new();
        entries.push(Entry {
            name: name.to_string(),
            help: help.to_string(),
            metric: Metric::Counter(counter.clone()),
        });
        counter
    }

    /// Gets or registers the gauge called `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different kind.
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        let mut entries = self.entries.lock().expect("registry poisoned");
        if let Some(entry) = entries.iter().find(|e| e.name == name) {
            match &entry.metric {
                Metric::Gauge(g) => return g.clone(),
                _ => panic!("metric `{name}` already registered as a non-gauge"),
            }
        }
        let gauge = Gauge::new();
        entries.push(Entry {
            name: name.to_string(),
            help: help.to_string(),
            metric: Metric::Gauge(gauge.clone()),
        });
        gauge
    }

    /// Gets or registers the histogram called `name` with bucket `spec`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different kind or with
    /// a different spec.
    pub fn histogram(&self, name: &str, help: &str, spec: HistogramSpec) -> Histogram {
        let mut entries = self.entries.lock().expect("registry poisoned");
        if let Some(entry) = entries.iter().find(|e| e.name == name) {
            match &entry.metric {
                Metric::Histogram(h) if h.spec() == spec => return h.clone(),
                Metric::Histogram(_) => {
                    panic!("metric `{name}` already registered with a different spec")
                }
                _ => panic!("metric `{name}` already registered as a non-histogram"),
            }
        }
        let hist = Histogram::new(spec);
        entries.push(Entry {
            name: name.to_string(),
            help: help.to_string(),
            metric: Metric::Histogram(hist.clone()),
        });
        hist
    }

    /// A point-in-time copy of every registered metric, in registration
    /// order.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        let entries = self.entries.lock().expect("registry poisoned");
        Snapshot {
            metrics: entries
                .iter()
                .map(|e| MetricSnapshot {
                    name: e.name.clone(),
                    help: e.help.clone(),
                    value: match &e.metric {
                        Metric::Counter(c) => ValueSnapshot::Counter(c.get()),
                        Metric::Gauge(g) => ValueSnapshot::Gauge(g.get()),
                        Metric::Histogram(h) => ValueSnapshot::Histogram {
                            spec: h.spec(),
                            count: h.count(),
                            sum: h.sum(),
                            buckets: h.bucket_counts(),
                        },
                    },
                })
                .collect(),
        }
    }
}

/// Serialises unit tests that record or flip the global enable flag, so
/// `disabling_stops_recording` cannot race recording assertions elsewhere
/// in the crate.
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_get_or_create() {
        let _guard = test_lock();
        let reg = Registry::new();
        let a = reg.counter("x_total", "a counter");
        let b = reg.counter("x_total", "a counter");
        a.add(2);
        b.inc();
        if metrics_compiled() {
            assert_eq!(a.get(), 3, "clones share one cell");
        } else {
            assert_eq!(a.get(), 0, "recording compiled out");
        }
        assert_eq!(reg.snapshot().metrics.len(), 1);
    }

    #[test]
    #[should_panic(expected = "non-counter")]
    fn kind_conflicts_panic() {
        let reg = Registry::new();
        let _ = reg.gauge("dual", "a gauge");
        let _ = reg.counter("dual", "now a counter");
    }

    #[cfg(feature = "metrics")]
    #[test]
    fn disabling_stops_recording() {
        let _guard = test_lock();
        let reg = Registry::new();
        let c = reg.counter("gated_total", "gated");
        set_enabled(false);
        c.inc();
        set_enabled(true);
        c.inc();
        assert_eq!(c.get(), 1);
    }
}
