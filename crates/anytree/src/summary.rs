//! The payload trait: what an entry aggregates about its subtree.

use bt_index::Mbr;

/// The additive summary a directory entry keeps about everything stored in
/// its subtree.
///
/// The Bayes tree instantiates this with an MBR + cluster feature (kernels),
/// the clustering extension with a decaying micro-cluster.  The core only
/// relies on the operations below:
///
/// * [`merge`](Summary::merge) — additivity, used to maintain ancestor
///   summaries and to build parent entries after splits,
/// * [`weight`](Summary::weight) — the (possibly decayed) object count,
/// * [`sq_dist_to`](Summary::sq_dist_to) / [`center`](Summary::center) —
///   the geometric routing and splitting measures for payloads without an
///   MBR,
/// * [`refresh`](Summary::refresh) — the temporal-decay hook (a no-op for
///   payloads without temporal semantics),
/// * [`mbr_corner`](Summary::mbr_corner) / [`owned_mbr`](Summary::owned_mbr)
///   \+ [`MBR_ROUTED`](Summary::MBR_ROUTED) — the hook into
///   `bt_index::rstar`: when set, descent routes by least area enlargement
///   and overflowing directory nodes split with the R* topological split
///   instead of the distance-based split.  Both accessors produce
///   full-width (`f64`) corners regardless of how the payload stores its
///   box internally.
pub trait Summary: Clone {
    /// Per-operation context threaded through merges and refreshes (e.g. the
    /// current timestamp and decay rate).  `()` for payloads without one.
    type Ctx: Copy;

    /// Whether descent and directory splits should use the MBR machinery of
    /// `bt_index::rstar` ([`mbr_corner`](Summary::mbr_corner) and
    /// [`owned_mbr`](Summary::owned_mbr) must then produce a box).
    const MBR_ROUTED: bool = false;

    /// Adds `other`'s mass to this summary.
    fn merge(&mut self, other: &Self, ctx: Self::Ctx);

    /// Number of objects currently summarised (fractional under decay).
    fn weight(&self) -> f64;

    /// Brings the summary up to date (e.g. applies exponential decay).
    fn refresh(&mut self, _ctx: Self::Ctx) {}

    /// Squared distance from this summary's representative to a point — the
    /// routing measure for payloads without an MBR.
    fn sq_dist_to(&self, point: &[f64]) -> f64;

    /// Representative centre, used by the distance-based split and the
    /// closest-pair collapse of a leaf that may not split.
    ///
    /// Routing reads [`center_into`](Summary::center_into) instead.  The
    /// two may differ in the last bit (a micro-cluster computes `ls / n`
    /// here and `ls * (1/n)` there), so swapping one for the other changes
    /// which pairs split or merge, and with them the partitions.
    fn center(&self) -> Vec<f64>;

    /// The minimum bounding rectangle, for MBR-routed payloads that store
    /// their box at full width and can lend it without conversion.
    ///
    /// Payloads that store their box narrower than `f64` (and so cannot
    /// return a reference) may leave this `None` and override
    /// [`mbr_corner`](Summary::mbr_corner) and
    /// [`owned_mbr`](Summary::owned_mbr) instead — those two are the
    /// accessors descent and splits actually route through.
    fn as_mbr(&self) -> Option<&Mbr> {
        None
    }

    /// The low and high corner of the routing box along dimension `d`,
    /// widened to full precision — the allocation-free per-dimension
    /// accessor the block gather paths stream boxes through.
    ///
    /// Must agree bit for bit with [`owned_mbr`](Summary::owned_mbr); the
    /// default reads [`as_mbr`](Summary::as_mbr), so payloads whose box is
    /// already full-width need not override it.
    fn mbr_corner(&self, d: usize) -> (f64, f64) {
        let mbr = self.as_mbr().expect("MBR-routed payload exposes a box");
        (mbr.lower()[d], mbr.upper()[d])
    }

    /// A full-width copy of the routing box, for the rare paths (invariant
    /// checks, debug reference scans) that want whole rectangles.
    ///
    /// `None` exactly when the payload is not MBR-routed.  The default
    /// clones [`as_mbr`](Summary::as_mbr); narrow-stored payloads override
    /// it with an outward-rounded widening so the returned box encloses
    /// the stored one.
    fn owned_mbr(&self) -> Option<Mbr> {
        self.as_mbr().cloned()
    }

    /// Whether [`center_into`](Summary::center_into) reproduces the exact
    /// arithmetic of [`sq_dist_to`](Summary::sq_dist_to), so descent may
    /// route through the structure-of-arrays block path (gather all entry
    /// centres once, compute all squared distances in one vectorized pass)
    /// and still pick bit-identical subtrees.
    ///
    /// Leave `false` (the default) if `sq_dist_to` is anything other than
    /// the plain squared Euclidean distance to `center_into`'s output.
    const CENTER_ROUTED: bool = false;

    /// Writes the representative centre into `out` (cleared and refilled)
    /// without allocating — the gather hook for the block routing path.
    ///
    /// The default allocates via [`center`](Summary::center); payloads
    /// opting into [`CENTER_ROUTED`](Summary::CENTER_ROUTED) should override
    /// it with an allocation-free version whose per-dimension arithmetic
    /// matches `sq_dist_to` exactly.
    fn center_into(&self, out: &mut Vec<f64>) {
        out.clear();
        out.extend_from_slice(&self.center());
    }
}
