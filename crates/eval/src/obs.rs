//! Registry-backed observability reporting for the experiment harness.
//!
//! Two jobs live here:
//!
//! * the **shared guarded-column formatting** for the reader-side
//!   block-cache economics (`hit-rate  prefetch`), which every sweep table
//!   that surfaces cache behaviour uses so the columns stay aligned and
//!   the zero-gather guard is applied in exactly one place, and
//! * the **registry capture helper**: bracket a workload with
//!   [`RegistryCapture`] to read back the [`bt_obs`] metric delta the run
//!   produced.

use bt_obs::{Registry, Snapshot};

/// Header fragment for the shared reader-side cache columns.
pub const CACHE_COLUMNS_HEADER: &str = "hit-rate  prefetch";

/// Rule fragment aligned under [`CACHE_COLUMNS_HEADER`].
pub const CACHE_COLUMNS_RULE: &str = "--------  --------";

/// Formats the guarded hit-rate / prefetch cell pair every cache-aware
/// sweep table shares.  Callers pass a hit rate already guarded against
/// the zero-gather case (`QueryStats::gather_hit_rate` returns 0.0 there),
/// so a budget-0 row prints `0.00` rather than `NaN`.
#[must_use]
pub fn cache_columns(hit_rate: f64, prefetches: u64) -> String {
    format!("{hit_rate:>8.2}  {prefetches:>8}")
}

/// A registry baseline captured before a workload, so the workload's
/// metric delta can be read back afterwards — the eval-side bracket over
/// [`Snapshot::delta_since`].
#[derive(Debug, Clone)]
pub struct RegistryCapture {
    baseline: Snapshot,
}

impl RegistryCapture {
    /// Snapshots the global registry as the baseline.
    #[must_use]
    pub fn begin() -> Self {
        RegistryCapture {
            baseline: Registry::global().snapshot(),
        }
    }

    /// The metric delta accumulated since [`RegistryCapture::begin`].
    #[must_use]
    pub fn delta(&self) -> Snapshot {
        Registry::global().snapshot().delta_since(&self.baseline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_columns_align_with_their_header() {
        assert_eq!(CACHE_COLUMNS_HEADER.len(), CACHE_COLUMNS_RULE.len());
        assert_eq!(cache_columns(0.87, 42).len(), CACHE_COLUMNS_HEADER.len());
        assert_eq!(cache_columns(0.0, 0), "    0.00         0");
    }
}
