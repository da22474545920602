//! The payload trait: what an entry aggregates about its subtree.

use crate::node::Directory;

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
///   the geometric routing and splitting measures of distance-routed
///   directories (routing reads each entry's row where it lies),
/// * [`refresh`](Summary::refresh) — the temporal-decay hook (a no-op for
///   payloads without temporal semantics),
/// * [`Dir`](Summary::Dir) — the container a directory node keeps its
///   entries in.  A container that lends box columns
///   ([`Directory::boxes`]) is routed by least area enlargement through
///   `bt_index::rstar` and splits with its own (R*) split; the others
///   route by distance and split with the polar split.
pub trait Summary: Clone {
    /// Per-operation context threaded through merges and refreshes (e.g. the
    /// current timestamp and decay rate).  `()` for payloads without one.
    type Ctx: Copy;

    /// What a directory node of this payload stores: `Vec<Entry<Self>>`
    /// for one row per entry, or a container laid out for its reader.
    type Dir: Directory<Self>;

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
    /// Routing reads [`sq_dist_to`](Summary::sq_dist_to) instead.  The two
    /// may differ in the last bit (a micro-cluster's centre is `ls / n`
    /// here and `ls * (1/n)` in its distance), so swapping one for the
    /// other changes which pairs split or merge, and with them the
    /// partitions.
    fn center(&self) -> Vec<f64>;

    /// Writes [`center`](Summary::center)'s values into `out` (one
    /// centre's `dims` slots of a flat buffer).  The default copies
    /// `center`'s `Vec`; payloads override it to write in place.
    fn write_center(&self, out: &mut [f64]) {
        out.copy_from_slice(&self.center());
    }
}
