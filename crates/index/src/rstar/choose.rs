//! Choose-subtree: which child should receive a new object.

use crate::mbr::Mbr;
use bt_stats::simd::{chunk_starts, load_padded, store_first, F64x4, LANES};

/// Chooses the child whose MBR needs the least area enlargement to cover
/// `point`; ties are broken by smaller area, then by lower index.
///
/// This is the classic R-tree insertion heuristic the Bayes tree inherits
/// for its iterative (non-bulk) construction.
///
/// # Panics
///
/// Panics if `children` is empty.
#[must_use]
pub fn choose_subtree(children: &[Mbr], point: &[f64]) -> usize {
    choose_subtree_by(children, |m| m, point)
}

/// Payload-generic variant of [`choose_subtree`]: chooses among arbitrary
/// entries through an accessor that exposes each entry's MBR, avoiding any
/// rectangle cloning on the descent hot path.
///
/// # Panics
///
/// Panics if `children` is empty.
#[must_use]
pub fn choose_subtree_by<T, F>(children: &[T], mbr_of: F, point: &[f64]) -> usize
where
    F: Fn(&T) -> &Mbr,
{
    assert!(!children.is_empty(), "cannot choose among zero children");
    let mut best = 0usize;
    let mut best_enlargement = f64::INFINITY;
    let mut best_area = f64::INFINITY;
    for (i, child) in children.iter().enumerate() {
        let mbr = mbr_of(child);
        let enlargement = mbr.enlargement_for_point(point);
        let area = mbr.area();
        if enlargement < best_enlargement || (enlargement == best_enlargement && area < best_area) {
            best = i;
            best_enlargement = enlargement;
            best_area = area;
        }
    }
    best
}

/// Structure-of-arrays variant of [`choose_subtree_by`]: the child boxes
/// arrive as dimension-major `lower` / `upper` columns (`dim * len + entry`,
/// the gather produced by the descent scratch), and areas / grown areas for
/// all `len` children are accumulated in one pass before a single
/// selection scan.
///
/// The arithmetic replicates the scalar path exactly — per-child area and
/// point-extended area are products over dimensions in ascending order
/// (starting from `1.0`, as `Iterator::product` does), enlargement is their
/// difference, and the selection scan keeps the *first* child with strictly
/// smaller enlargement, breaking ties by strictly smaller area — so the
/// chosen index is always identical to [`choose_subtree_by`]'s.
///
/// On x86_64 the area pass runs under AVX2 codegen whenever
/// [`bt_stats::simd::avx2_available`] holds, laid out as the `bt_stats`
/// fused passes: entry chunks outermost, each chunk's two products held in
/// registers across the dimension walk.  Otherwise the per-dimension
/// scalar loop (the reference) runs.  Both fill the same products.
///
/// `areas` and `grown` are caller-owned scratch, cleared and refilled.
///
/// # Panics
///
/// Panics if `len` is zero.
#[must_use]
pub fn choose_subtree_block(
    point: &[f64],
    lower: &[f64],
    upper: &[f64],
    len: usize,
    areas: &mut Vec<f64>,
    grown: &mut Vec<f64>,
) -> usize {
    assert!(len > 0, "cannot choose among zero children");
    debug_assert_eq!(lower.len(), point.len() * len);
    debug_assert_eq!(upper.len(), point.len() * len);
    areas.clear();
    areas.resize(len, 1.0);
    grown.clear();
    grown.resize(len, 1.0);
    #[cfg(target_arch = "x86_64")]
    if bt_stats::simd::avx2_available() {
        // SAFETY: AVX2 support was just verified.
        unsafe { avx2::box_areas(point, lower, upper, areas, grown) };
        return first_least_enlargement(areas, grown);
    }
    box_areas_scalar(point, lower, upper, areas, grown);
    first_least_enlargement(areas, grown)
}

/// The reference area pass: dimensions outermost, each child's running
/// products kept in `areas` / `grown` (filled with `1.0`).
fn box_areas_scalar(
    point: &[f64],
    lower: &[f64],
    upper: &[f64],
    areas: &mut [f64],
    grown: &mut [f64],
) {
    let len = areas.len();
    for (d, &p) in point.iter().enumerate() {
        let lcol = &lower[d * len..(d + 1) * len];
        let ucol = &upper[d * len..(d + 1) * len];
        for i in 0..len {
            let lo = lcol[i];
            let hi = ucol[i];
            areas[i] *= hi - lo;
            grown[i] *= hi.max(p) - lo.min(p);
        }
    }
}

/// The register-resident area pass: entry chunks outermost
/// ([`chunk_starts`]), each lane the scalar loop's expression with factors
/// multiplied dimension-ascending, so both passes store the same products.
#[inline(always)]
fn box_areas_body(
    point: &[f64],
    lower: &[f64],
    upper: &[f64],
    areas: &mut [f64],
    grown: &mut [f64],
) {
    if areas.len() >= LANES {
        box_areas_chunks::<true>(point, lower, upper, areas, grown);
    } else {
        box_areas_chunks::<false>(point, lower, upper, areas, grown);
    }
}

/// The chunk loop of [`box_areas_body`]; `FULL` promises at least one full
/// lane of children.
#[inline(always)]
fn box_areas_chunks<const FULL: bool>(
    point: &[f64],
    lower: &[f64],
    upper: &[f64],
    areas: &mut [f64],
    grown: &mut [f64],
) {
    let len = areas.len();
    let n = if FULL { LANES } else { len };
    for i in chunk_starts(len) {
        let (mut area, mut grown_area) = (F64x4::splat(1.0), F64x4::splat(1.0));
        for (d, &p) in point.iter().enumerate() {
            let pv = F64x4::splat(p);
            let lo = load_padded(lower, d * len + i, n, 0.0);
            let hi = load_padded(upper, d * len + i, n, 0.0);
            area = area.mul(hi.sub(lo));
            grown_area = grown_area.mul(hi.max(pv).sub(lo.min(pv)));
        }
        store_first(area, areas, i, n);
        store_first(grown_area, grown, i, n);
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    /// [`box_areas_body`](super::box_areas_body) in an AVX2 codegen region.
    ///
    /// # Safety
    /// The executing CPU must support AVX2 (`avx2_available()`).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn box_areas(
        point: &[f64],
        lower: &[f64],
        upper: &[f64],
        areas: &mut [f64],
        grown: &mut [f64],
    ) {
        super::box_areas_body(point, lower, upper, areas, grown);
    }
}

/// The selection scan: the first child with strictly smaller enlargement
/// (`grown - area`), ties broken by strictly smaller area.
fn first_least_enlargement(areas: &[f64], grown: &[f64]) -> usize {
    let mut best = 0usize;
    let mut best_enlargement = f64::INFINITY;
    let mut best_area = f64::INFINITY;
    for (i, (&area, &grown)) in areas.iter().zip(grown).enumerate() {
        let enlargement = grown - area;
        if enlargement < best_enlargement || (enlargement == best_enlargement && area < best_area) {
            best = i;
            best_enlargement = enlargement;
            best_area = area;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn children() -> Vec<Mbr> {
        vec![
            Mbr::new(vec![0.0, 0.0], vec![1.0, 1.0]),
            Mbr::new(vec![5.0, 5.0], vec![6.0, 6.0]),
        ]
    }

    #[test]
    fn point_inside_a_child_chooses_that_child() {
        assert_eq!(choose_subtree(&children(), &[0.5, 0.5]), 0);
        assert_eq!(choose_subtree(&children(), &[5.5, 5.5]), 1);
    }

    #[test]
    fn point_between_children_chooses_nearer_one() {
        assert_eq!(choose_subtree(&children(), &[1.5, 1.5]), 0);
        assert_eq!(choose_subtree(&children(), &[4.8, 4.8]), 1);
    }

    #[test]
    fn tie_broken_by_area() {
        let kids = vec![
            Mbr::new(vec![0.0, 0.0], vec![4.0, 4.0]),
            Mbr::new(vec![0.0, 0.0], vec![2.0, 2.0]),
        ];
        // Point inside both: zero enlargement for both, smaller area wins.
        assert_eq!(choose_subtree(&kids, &[1.0, 1.0]), 1);
    }

    #[test]
    #[should_panic(expected = "zero children")]
    fn empty_children_panics() {
        let _ = choose_subtree(&[], &[0.0]);
    }

    /// Dimension-major `lower` / `upper` columns of `kids`, as the descent
    /// gathers them.
    fn columns(kids: &[Mbr], dims: usize) -> (Vec<f64>, Vec<f64>) {
        let len = kids.len();
        let mut lower = vec![0.0; dims * len];
        let mut upper = vec![0.0; dims * len];
        for (i, mbr) in kids.iter().enumerate() {
            for d in 0..dims {
                lower[d * len + i] = mbr.lower()[d];
                upper[d * len + i] = mbr.upper()[d];
            }
        }
        (lower, upper)
    }

    /// The child the block chooser picks in every dispatch state: the
    /// dispatched pass (AVX2 where the CPU has it), the register-resident
    /// body called outside the AVX2 region, and the scalar loop (what runs
    /// without AVX2).  Panics unless all three agree.
    fn choose_every_way(kids: &[Mbr], point: &[f64]) -> usize {
        let (lower, upper) = columns(kids, point.len());
        let (mut areas, mut grown) = (Vec::new(), Vec::new());
        let dispatched =
            choose_subtree_block(point, &lower, &upper, kids.len(), &mut areas, &mut grown);
        let (mut areas, mut grown) = (vec![1.0; kids.len()], vec![1.0; kids.len()]);
        box_areas_body(point, &lower, &upper, &mut areas, &mut grown);
        let body = first_least_enlargement(&areas, &grown);
        let (mut areas, mut grown) = (vec![1.0; kids.len()], vec![1.0; kids.len()]);
        box_areas_scalar(point, &lower, &upper, &mut areas, &mut grown);
        let scalar = first_least_enlargement(&areas, &grown);
        assert_eq!(
            dispatched, body,
            "dispatched pass != plain body at {point:?}"
        );
        assert_eq!(
            dispatched, scalar,
            "dispatched pass != scalar loop at {point:?}"
        );
        dispatched
    }

    /// Deterministic SplitMix64 stream.
    struct SplitMix(u64);

    impl SplitMix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// `len` boxes on a small integer grid, so enlargements and areas tie
    /// exactly: every fifth box repeats an earlier one, every third has a
    /// zero-width side, and some corners sit at `-inf` / `+inf`.
    fn grid_boxes(rng: &mut SplitMix, len: usize, dims: usize) -> Vec<Mbr> {
        let mut kids: Vec<Mbr> = Vec::with_capacity(len);
        for i in 0..len {
            if i % 5 == 4 {
                let copy = kids[rng.below(i as u64) as usize].clone();
                kids.push(copy);
                continue;
            }
            let mut lower = Vec::with_capacity(dims);
            let mut upper = Vec::with_capacity(dims);
            for d in 0..dims {
                let lo = rng.below(7) as f64 - 3.0;
                let width = if (i + d) % 3 == 0 {
                    0.0
                } else {
                    rng.below(4) as f64
                };
                let (lo, hi) = match rng.below(16) {
                    0 => (f64::NEG_INFINITY, lo + width),
                    1 => (lo, f64::INFINITY),
                    2 => (f64::NEG_INFINITY, f64::INFINITY),
                    _ => (lo, lo + width),
                };
                lower.push(lo);
                upper.push(hi);
            }
            kids.push(Mbr::new(lower, upper));
        }
        kids
    }

    #[test]
    fn block_chooser_matches_scalar_everywhere() {
        // A grid of boxes with deliberate exact ties (identical boxes,
        // nested boxes, zero-area boxes) probed at many points.
        let kids = vec![
            Mbr::new(vec![0.0, 0.0], vec![4.0, 4.0]),
            Mbr::new(vec![0.0, 0.0], vec![2.0, 2.0]),
            Mbr::new(vec![0.0, 0.0], vec![2.0, 2.0]),
            Mbr::new(vec![1.0, 1.0], vec![1.0, 1.0]),
            Mbr::new(vec![5.0, 5.0], vec![6.0, 6.5]),
            Mbr::new(vec![-3.0, -2.0], vec![-1.0, 7.0]),
        ];
        for ix in -8..16 {
            for iy in -8..16 {
                let p = [ix as f64 * 0.7, iy as f64 * 0.7];
                let scalar = choose_subtree(&kids, &p);
                assert_eq!(scalar, choose_every_way(&kids, &p), "divergence at {p:?}");
            }
        }
        // Every lane shape: below one lane, exact lanes, overlapping last
        // chunks, and a fanout past 64.  Probes sit on the integer grid (on
        // box faces and corners), between grid lines, and at +-inf.
        let mut rng = SplitMix(0xC405E);
        for len in (1..=9).chain([26, 64]) {
            for dims in [1, 2, 3, 5] {
                for _ in 0..4 {
                    let kids = grid_boxes(&mut rng, len, dims);
                    for probe in 0..64 {
                        let p: Vec<f64> = (0..dims)
                            .map(|_| match (probe % 8, rng.below(12)) {
                                (7, 0) => f64::NEG_INFINITY,
                                (7, 1) => f64::INFINITY,
                                (0..=4, r) => r as f64 - 5.0,
                                (_, r) => r as f64 * 0.5 - 3.25,
                            })
                            .collect();
                        let scalar = choose_subtree(&kids, &p);
                        assert_eq!(
                            scalar,
                            choose_every_way(&kids, &p),
                            "len {len}, dims {dims}: divergence at {p:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn block_chooser_ties_go_to_the_first_minimal_entry() {
        // The best box repeated at every position: the first copy wins.
        let best = Mbr::new(vec![0.0, 0.0], vec![1.0, 1.0]);
        let far = Mbr::new(vec![8.0, 8.0], vec![9.0, 9.0]);
        for len in (2..=9).chain([26, 64]) {
            for first in 0..len - 1 {
                let kids: Vec<Mbr> = (0..len)
                    .map(|i| {
                        if i >= first {
                            best.clone()
                        } else {
                            far.clone()
                        }
                    })
                    .collect();
                assert_eq!(choose_every_way(&kids, &[0.5, 0.5]), first);
                assert_eq!(choose_subtree(&kids, &[0.5, 0.5]), first);
            }
        }
    }

    #[test]
    fn block_chooser_single_child() {
        let kids = vec![Mbr::new(vec![0.0], vec![1.0])];
        assert_eq!(choose_every_way(&kids, &[9.0]), 0);
    }
}
