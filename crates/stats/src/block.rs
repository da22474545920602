//! Structure-of-arrays summary blocks: dimension-major columns over one
//! node's entries, so the hot kernels evaluate a whole node in one pass.
//!
//! The anytime engines spend their time scoring the entries of one directory
//! node against one point: per-entry Gaussian log-kernels, squared distances
//! and MBR bound kernels.  Stored entry-major (`Vec<f64>` per summary) those
//! evaluations are one scattered dot product per entry.  A [`SummaryBlock`]
//! regathers the node into **dimension-major columns** — for a node of `n`
//! entries over `d` dimensions, column value `(dim, entry)` lives at index
//! `dim * n + entry` — so the block kernels in [`crate::kernel`]
//! ([`crate::kernel::node_scores_block`],
//! [`crate::kernel::cluster_scores_block`],
//! [`crate::kernel::sq_dists_block`], …) stream each column once, hoist the
//! per-dimension constants (floored bandwidth, its log) out of the entry
//! loop, and accumulate all `n` results in vectorized inner loops.
//!
//! **Precision.**  Every column is `f64`.  Summaries stored narrower (the
//! `f32` and quantised stored modes) decode into these columns at gather
//! time, so narrowing happens only when a summary is written and every
//! block kernel does its arithmetic on exactly the values the scalar path
//! reads.  The entry-major scalar path remains the property-tested
//! reference (see `crates/stats/tests/block_kernels.rs`): the block kernels
//! reproduce it bit for bit.
//!
//! A block is plain reusable scratch: gather a node with [`SummaryBlock::
//! reset`] + the `set_*` writers, evaluate, reuse for the next node.  The
//! per-entry values can be read back out ([`SummaryBlock::entry_mean_into`]
//! and friends), so the block is convertible in both directions.
//!
//! **The per-node cache.**  A gather is query-independent, so the query
//! engine keeps one [`GatheredBlock`] per node in a [`BlockCacheSlot`] and
//! scores later visits straight from it.  The slot has one rule: its
//! owner empties it on every write to the node.  A filled slot therefore
//! always describes the node as it is now, and reading it is a plain load
//! with no version stamp, flag or lock.

/// An element type a stored summary may hold (`f64` or `f32`); widened to
/// `f64` before arithmetic.  Block columns are always `f64`: a narrow
/// summary widens into them when it is gathered.
///
/// Besides the round-to-nearest [`ColumnElement::narrow`] used for plain
/// value storage, the trait provides the two *directed* quantisations the
/// stored-precision summaries need for interval soundness: a quantised MBR
/// must **enclose** the exact box, so lower corners round toward `-∞`
/// ([`ColumnElement::narrow_down`]) and upper corners toward `+∞`
/// ([`ColumnElement::narrow_up`]).  For `f64` all three are the identity, so
/// full-precision storage is bit-identical by construction.
pub trait ColumnElement: Copy {
    /// The value as `f64`.
    fn widen(self) -> f64;
    /// Quantises an `f64` into this storage type (round to nearest).
    fn narrow(v: f64) -> Self;
    /// Quantises rounding toward `-∞`: the result, widened back, is `<= v`.
    fn narrow_down(v: f64) -> Self;
    /// Quantises rounding toward `+∞`: the result, widened back, is `>= v`.
    fn narrow_up(v: f64) -> Self;
}

impl ColumnElement for f64 {
    #[inline(always)]
    fn widen(self) -> f64 {
        self
    }
    #[inline(always)]
    fn narrow(v: f64) -> Self {
        v
    }
    #[inline(always)]
    fn narrow_down(v: f64) -> Self {
        v
    }
    #[inline(always)]
    fn narrow_up(v: f64) -> Self {
        v
    }
}

impl ColumnElement for f32 {
    #[inline(always)]
    fn widen(self) -> f64 {
        f64::from(self)
    }
    #[inline(always)]
    fn narrow(v: f64) -> Self {
        v as f32
    }
    #[inline(always)]
    fn narrow_down(v: f64) -> Self {
        let r = v as f32;
        if f64::from(r) > v {
            r.next_down()
        } else {
            r
        }
    }
    #[inline(always)]
    fn narrow_up(v: f64) -> Self {
        let r = v as f32;
        if f64::from(r) < v {
            r.next_up()
        } else {
            r
        }
    }
}

/// Clears `col` and zero-fills it to `n` values.
pub(crate) fn zero_fill(col: &mut Vec<f64>, n: usize) {
    col.clear();
    col.resize(n, 0.0);
}

/// A structure-of-arrays gather of one node's entry summaries: per-entry
/// weights plus dimension-major mean / variance columns and (optionally)
/// MBR lower / upper columns.
///
/// See the [module docs](crate::block) for the layout.
#[derive(Debug, Clone, Default)]
pub struct SummaryBlock {
    len: usize,
    dims: usize,
    weight: Vec<f64>,
    mean: Vec<f64>,
    var: Vec<f64>,
    /// Precomputed `ln` of each variance column value, filled on demand by
    /// [`Self::fill_log_vars`]; empty until then.
    log_var: Vec<f64>,
    lower: Vec<f64>,
    upper: Vec<f64>,
    has_boxes: bool,
}

impl SummaryBlock {
    /// An empty block.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Clears the block and sizes it for `len` entries over `dims`
    /// dimensions (weights and mean / variance columns zero-filled, box
    /// columns disabled until [`Self::enable_boxes`]).
    pub fn reset(&mut self, dims: usize, len: usize) {
        self.dims = dims;
        self.len = len;
        zero_fill(&mut self.weight, len);
        zero_fill(&mut self.mean, dims * len);
        zero_fill(&mut self.var, dims * len);
        self.log_var.clear();
        self.lower.clear();
        self.upper.clear();
        self.has_boxes = false;
    }

    /// Enables the MBR lower / upper columns (zero-filled) for the current
    /// shape.
    pub fn enable_boxes(&mut self) {
        zero_fill(&mut self.lower, self.dims * self.len);
        zero_fill(&mut self.upper, self.dims * self.len);
        self.has_boxes = true;
    }

    /// Number of gathered entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the block holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Dimensionality of the gathered summaries.
    #[must_use]
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Whether the MBR columns are gathered.
    #[must_use]
    pub fn has_boxes(&self) -> bool {
        self.has_boxes
    }

    /// Flat column index of `(dim, entry)`.
    #[inline]
    #[must_use]
    pub fn col(&self, dim: usize, entry: usize) -> usize {
        dim * self.len + entry
    }

    /// Sets entry `i`'s weight.
    #[inline]
    pub fn set_weight(&mut self, i: usize, w: f64) {
        self.weight[i] = w;
    }

    /// Per-entry weights (always `f64`).
    #[must_use]
    pub fn weights(&self) -> &[f64] {
        &self.weight
    }

    /// Sets the mean of entry `i` along `dim`.
    #[inline]
    pub fn set_mean(&mut self, dim: usize, i: usize, v: f64) {
        let idx = self.col(dim, i);
        self.mean[idx] = v;
    }

    /// Sets the variance of entry `i` along `dim` (and drops any
    /// previously filled log-variance column, which it would stale).
    #[inline]
    pub fn set_var(&mut self, dim: usize, i: usize, v: f64) {
        let idx = self.col(dim, i);
        self.var[idx] = v;
        self.log_var.clear();
    }

    /// Sets the box lower bound of entry `i` along `dim`.
    #[inline]
    pub fn set_lower(&mut self, dim: usize, i: usize, v: f64) {
        let idx = self.col(dim, i);
        self.lower[idx] = v;
    }

    /// Sets the box upper bound of entry `i` along `dim`.
    #[inline]
    pub fn set_upper(&mut self, dim: usize, i: usize, v: f64) {
        let idx = self.col(dim, i);
        self.upper[idx] = v;
    }

    /// The dimension-major mean columns.
    #[must_use]
    pub fn mean(&self) -> &[f64] {
        &self.mean
    }

    /// The dimension-major variance columns, as gathered.
    ///
    /// The fused node passes floor each value at [`crate::VARIANCE_FLOOR`]
    /// wherever a Gaussian reads it (as does [`Self::fill_log_vars`]), so a
    /// gatherer may store a variance below the floor.  The Bayes tree
    /// stores the raw cluster-feature variance `SS/n - m^2` — its certified
    /// bounds need it unfloored — and NaN when that is not finite, which
    /// the floor turns into [`crate::VARIANCE_FLOOR`], as `DiagGaussian`
    /// does.
    #[must_use]
    pub fn var(&self) -> &[f64] {
        &self.var
    }

    /// Precomputes the log-variance column: `ln` of every variance value
    /// floored at [`crate::VARIANCE_FLOOR`], exactly what the scoring loop
    /// would compute per call.
    ///
    /// `ln(var)` is query-independent, so hoisting it to gather time (where
    /// the result rides along in the per-node block cache) removes the only
    /// transcendental from the log-pdf lane of
    /// [`crate::kernel::node_scores_block`] and unlocks its SIMD path.
    /// Call after *all* variances are set; any later [`Self::set_var`]
    /// drops the column again.
    pub fn fill_log_vars(&mut self) {
        self.log_var.clear();
        self.log_var
            .extend(self.var.iter().map(|v| v.max(crate::VARIANCE_FLOOR).ln()));
    }

    /// The dimension-major log-variance column, or `None` until
    /// [`Self::fill_log_vars`] ran for the current variances.
    #[must_use]
    pub fn log_vars(&self) -> Option<&[f64]> {
        (self.log_var.len() == self.dims * self.len).then_some(&self.log_var[..])
    }

    /// The dimension-major box lower-bound columns.
    #[must_use]
    pub fn lower(&self) -> &[f64] {
        &self.lower
    }

    /// The dimension-major box upper-bound columns.
    #[must_use]
    pub fn upper(&self) -> &[f64] {
        &self.upper
    }

    /// Reads entry `i`'s mean back out (entry-major) — the inverse of the
    /// gather, used by round-trip tests.
    pub fn entry_mean_into(&self, i: usize, out: &mut Vec<f64>) {
        out.clear();
        for d in 0..self.dims {
            out.push(self.mean[self.col(d, i)]);
        }
    }

    /// Reads entry `i`'s variance back out (entry-major).
    pub fn entry_var_into(&self, i: usize, out: &mut Vec<f64>) {
        out.clear();
        for d in 0..self.dims {
            out.push(self.var[self.col(d, i)]);
        }
    }

    /// Reads entry `i`'s box back out as `(lower, upper)` (entry-major).
    pub fn entry_box_into(&self, i: usize, lower: &mut Vec<f64>, upper: &mut Vec<f64>) {
        lower.clear();
        upper.clear();
        for d in 0..self.dims {
            lower.push(self.lower[self.col(d, i)]);
            upper.push(self.upper[self.col(d, i)]);
        }
    }
}

/// Everything one gather of a node produces: the [`SummaryBlock`] columns
/// plus the dimension-major routing-centre columns, for models whose
/// geometric priority uses a centre whose rounding differs from the block's
/// Gaussian mean (e.g. `ls * (1/n)` versus `ls / n`).
///
/// This is the unit the per-node block cache stores: one boxed
/// `GatheredBlock` in a [`BlockCacheSlot`] serves every later scoring of
/// the node for as long as the node is unchanged.
#[derive(Debug, Clone, Default)]
pub struct GatheredBlock {
    /// The gathered column block (weights, means, variances, boxes).
    pub block: SummaryBlock,
    /// Dimension-major routing-centre columns (flat index `dim * len +
    /// entry`); empty when the model routes by box or mean.
    pub centers: Vec<f64>,
}

impl GatheredBlock {
    /// An empty gather.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

/// A per-node cache slot: empty, or the one [`GatheredBlock`] a reader
/// gathered from the node as it is now.
///
/// **The cache rule.**  A node changes only through its owner's `&mut`
/// access, and that access empties the slot every time ([`Self::clear`]).
/// So a filled slot always describes the node's current content: readers
/// need no version stamp, no flag and no lock — [`Self::get`] is a plain
/// load, and [`Self::fill`] is set-once.  Readers racing to fill a cold
/// slot gathered the same node, so whichever block wins serves them all.
#[derive(Debug, Default)]
pub struct BlockCacheSlot(std::sync::OnceLock<Box<GatheredBlock>>);

impl BlockCacheSlot {
    /// An empty slot.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The cached block, if a reader has filled the slot since the node's
    /// last write.
    #[must_use]
    pub fn get(&self) -> Option<&GatheredBlock> {
        self.0.get().map(|b| &**b)
    }

    /// Caches `block` unless another reader filled the slot first (the
    /// first filler wins; both gathered the same node).
    pub fn fill(&self, block: Box<GatheredBlock>) {
        let _ = self.0.set(block);
    }

    /// Empties the slot — the owner calls this on every write to the node.
    pub fn clear(&mut self) {
        self.0.take();
    }
}

/// Reusable per-entry `f64` output lanes for the fused passes of
/// [`crate::kernel`]: up to six concurrent results per node (log-kernels,
/// bound kernels, squared distances, cluster-feature terms).
pub type ScoreLanes = [Vec<f64>; 6];

/// Engine-owned scratch for block scoring: one [`GatheredBlock`] plus the
/// [`ScoreLanes`] the batch kernels write.
#[derive(Debug, Clone, Default)]
pub struct BlockScratch {
    /// The gathered columns (block + routing centres).
    pub gathered: GatheredBlock,
    /// Reusable per-entry output buffers.
    pub lanes: ScoreLanes,
}

impl BlockScratch {
    /// An empty scratch.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_round_trips_entries() {
        let mut block = SummaryBlock::new();
        block.reset(2, 3);
        block.enable_boxes();
        for i in 0..3 {
            block.set_weight(i, i as f64 + 1.0);
            for d in 0..2 {
                block.set_mean(d, i, 10.0 * d as f64 + i as f64);
                block.set_var(d, i, 0.5 + i as f64);
                block.set_lower(d, i, -1.0 - d as f64);
                block.set_upper(d, i, 1.0 + i as f64);
            }
        }
        assert_eq!(block.weights(), &[1.0, 2.0, 3.0]);
        let mut mean = Vec::new();
        let mut var = Vec::new();
        block.entry_mean_into(1, &mut mean);
        block.entry_var_into(1, &mut var);
        assert_eq!(mean, vec![1.0, 11.0]);
        assert_eq!(var, vec![1.5, 1.5]);
        let (mut lo, mut hi) = (Vec::new(), Vec::new());
        block.entry_box_into(2, &mut lo, &mut hi);
        assert_eq!(lo, vec![-1.0, -2.0]);
        assert_eq!(hi, vec![3.0, 3.0]);
    }

    #[test]
    fn cache_slot_fills_once_and_clears_through_the_owner() {
        let mut slot = BlockCacheSlot::new();
        assert!(slot.get().is_none());
        let mut first = GatheredBlock::new();
        first.block.reset(2, 4);
        slot.fill(Box::new(first));
        assert_eq!(slot.get().map(|g| g.block.len()), Some(4));
        // A second filler loses: the slot keeps the first block.
        let mut second = GatheredBlock::new();
        second.block.reset(2, 7);
        slot.fill(Box::new(second));
        assert_eq!(slot.get().map(|g| g.block.len()), Some(4));
        slot.clear();
        assert!(slot.get().is_none());
        slot.fill(Box::new(GatheredBlock::new()));
        assert!(slot.get().is_some(), "a cleared slot fills again");
    }

    #[test]
    fn log_var_column_tracks_the_variances() {
        let mut block = SummaryBlock::new();
        block.reset(2, 3);
        for i in 0..3 {
            for d in 0..2 {
                block.set_var(d, i, 0.5 + (d * 3 + i) as f64);
            }
        }
        assert!(block.log_vars().is_none(), "not filled yet");
        block.fill_log_vars();
        let lv = block.log_vars().expect("filled").to_vec();
        assert_eq!(lv.len(), 6);
        for (idx, &l) in lv.iter().enumerate() {
            assert_eq!(l.to_bits(), block.var()[idx].ln().to_bits());
        }
        // Any variance write stales the column, so it is dropped.
        block.set_var(0, 0, 2.0);
        assert!(block.log_vars().is_none());
        // A reset drops it too.
        block.fill_log_vars();
        block.reset(2, 3);
        assert!(block.log_vars().is_none());
    }
}
