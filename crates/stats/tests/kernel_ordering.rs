//! Zero-slack ordering of the kernel lanes: for every point `x` inside a box,
//! the box's farthest-corner lane, the leaf log-kernel at `x` and the box's
//! nearest-point lane satisfy
//!
//! ```text
//! farthest <= log_kernel(x) <= nearest
//! ```
//!
//! in plain `f64`, with no slack.  All three evaluate the one term
//! `log_peak + sum_d s_d * c_d` with the same operations in the same order,
//! and every operation is monotone in `s_d`, so a squared distance that is
//! larger (smaller) per dimension gives a lane that is no larger (no
//! smaller).  The certified box bounds of both trees rest on this.
//!
//! Each case is checked through the dispatched fused passes (AVX2 when the
//! host has it) and through the scalar formulas; the `--no-default-features`
//! build checks the scalar loops.  A second test feeds infinite query
//! coordinates and bandwidths up to `1e160`, where a naive `1 / (h * h)`
//! underflows to zero, and asserts that no lane turns NaN.

use bt_stats::kernel::{
    cf_log_terms, cluster_scores_block, farthest_point_log_kernel, leaf_scores_block,
    log_kernel_at, nearest_point_log_kernel, node_estimates_block, node_scores_block,
    smoothed_farthest_log_kernel, sq_dists_block,
};
use bt_stats::{
    GatheredBlock, GaussianKernel, Kernel, KernelBandwidth, ScoreLanes, SummaryBlock,
    VARIANCE_FLOOR,
};

/// Deterministic value generator (SplitMix64 over the unit interval).
struct SplitMix(u64);

impl SplitMix {
    fn next_f64(&mut self) -> f64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Where the boxes sit: coordinates in `[-50, 50]` with widths up to 8, or
/// around `1e4` with a spread of `1e-4`.
#[derive(Debug, Clone, Copy)]
enum Scale {
    Ordinary,
    Offset,
}

impl Scale {
    /// A coordinate and a box width.
    fn draw(self, rng: &mut SplitMix) -> (f64, f64) {
        match self {
            Scale::Ordinary => (rng.next_f64() * 100.0 - 50.0, rng.next_f64() * 8.0),
            Scale::Offset => (1e4 + rng.next_f64() * 1e-4, rng.next_f64() * 1e-4),
        }
    }
}

/// One node of `len` boxes over `dims` dimensions, each with `POINTS`
/// points inside it (its two corners among them), and a query that falls
/// inside some boxes' ranges and outside others'.
struct Case {
    query: Vec<f64>,
    block: SummaryBlock,
    /// `points[i]` are the points of box `i`, row-major.
    points: Vec<Vec<Vec<f64>>>,
}

const POINTS: usize = 6;

fn case(dims: usize, len: usize, scale: Scale, seed: u64) -> Case {
    let mut rng = SplitMix(seed);
    let mut block = SummaryBlock::new();
    block.reset(dims, len);
    block.enable_vars();
    block.enable_boxes();
    let mut points = vec![vec![vec![0.0; dims]; POINTS]; len];
    for (i, entry_points) in points.iter_mut().enumerate() {
        block.set_weight(i, POINTS as f64);
        for d in 0..dims {
            let (lo, width) = scale.draw(&mut rng);
            // A point box every few entries.
            let hi = if (i + d) % 5 == 0 { lo } else { lo + width };
            block.set_lower(d, i, lo);
            block.set_upper(d, i, hi);
            block.set_mean(d, i, 0.5 * (lo + hi));
            block.set_var(d, i, 1.0);
            for (j, point) in entry_points.iter_mut().enumerate() {
                point[d] = match j {
                    0 => lo,
                    1 => hi,
                    _ => (lo + rng.next_f64() * (hi - lo)).clamp(lo, hi),
                };
            }
        }
    }
    block.fill_log_vars();
    let query = (0..dims).map(|_| scale.draw(&mut rng).0).collect();
    Case {
        query,
        block,
        points,
    }
}

/// Asserts `farthest <= log_kernel(x) <= nearest` with plain `<=` for every
/// point of every box of `c`, through the fused passes and the scalar
/// formulas.
fn assert_ordered(c: &Case, bandwidth: &KernelBandwidth, what: &str) {
    let mut lanes: ScoreLanes = Default::default();
    node_scores_block(&c.query, bandwidth, &c.block, &mut lanes);
    let mut cluster: [Vec<f64>; 4] = Default::default();
    let gathered = GatheredBlock {
        block: c.block.clone(),
        centers: c.block.mean().to_vec(),
    };
    cluster_scores_block::<true>(&c.query, bandwidth, &gathered, &mut cluster);
    let (mut lo, mut hi) = (Vec::new(), Vec::new());
    for (i, points) in c.points.iter().enumerate() {
        c.block.entry_box_into(i, &mut lo, &mut hi);
        let far = farthest_point_log_kernel(&c.query, &lo, &hi, bandwidth);
        let near = nearest_point_log_kernel(&c.query, &lo, &hi, bandwidth);
        let (fused_far, fused_near) = (lanes[1][i], lanes[2][i]);
        // The leaf pass over all of the box's points (full lanes) and over
        // its first three (one padded chunk).
        let full = leaf_pass(&c.query, bandwidth, points);
        let padded = leaf_pass(&c.query, bandwidth, &points[..3]);
        for (j, p) in points.iter().enumerate() {
            let scalar = GaussianKernel.log_density(p, &c.query, bandwidth);
            let mut kernels = vec![(full[j], "leaf pass"), (scalar, "log_density")];
            kernels.extend(padded.get(j).map(|&x| (x, "padded leaf pass")));
            for (x, how) in kernels {
                assert!(
                    fused_far <= x && x <= fused_near,
                    "{what} box {i} point {j} ({how}): {x} outside the fused lanes \
                     [{fused_far}, {fused_near}]"
                );
                assert!(
                    far <= x && x <= near,
                    "{what} box {i} point {j} ({how}): {x} outside the scalar bounds \
                     [{far}, {near}]"
                );
                assert!(
                    x <= cluster[2][i],
                    "{what} box {i} point {j} ({how}): {x} above the micro-cluster \
                     nearest lane {}",
                    cluster[2][i]
                );
            }
        }
    }
}

/// The fused leaf pass's log-kernels at `points`.
fn leaf_pass(query: &[f64], bandwidth: &KernelBandwidth, points: &[Vec<f64>]) -> Vec<f64> {
    let (dims, len) = (query.len(), points.len());
    let mut means = vec![0.0; dims * len];
    for (j, p) in points.iter().enumerate() {
        for d in 0..dims {
            means[d * len + j] = p[d];
        }
    }
    let (mut leaf, mut sq) = (Vec::new(), Vec::new());
    leaf_scores_block(query, bandwidth, &means, len, len, &mut leaf, &mut sq);
    leaf
}

#[test]
fn box_lanes_bracket_every_leaf_kernel_without_slack() {
    let narrowest = VARIANCE_FLOOR.sqrt();
    for dims in 1..=17 {
        // 3 runs the padded chunk, 9 the full one with an overlap.
        for len in [3, 9] {
            for scale in [Scale::Ordinary, Scale::Offset] {
                for h in [narrowest, 1e3] {
                    let bandwidth = KernelBandwidth::new(vec![h; dims]);
                    for seed in 0..4u64 {
                        let seed = seed ^ (dims as u64) << 8 ^ (len as u64) << 16;
                        let c = case(dims, len, scale, seed);
                        let what = format!("dims {dims} len {len} {scale:?} h {h:e} seed {seed}");
                        assert_ordered(&c, &bandwidth, &what);
                    }
                }
            }
        }
    }
}

#[test]
fn infinite_queries_and_huge_bandwidths_give_no_nan() {
    let dims = 4;
    let mut rng = SplitMix(0x1F1F);
    let c = case(dims, 6, Scale::Ordinary, 0xBADD);
    let gathered = GatheredBlock {
        block: c.block.clone(),
        centers: c.block.mean().to_vec(),
    };
    let means = c.block.mean();
    for h in [1e-7, 1.0, 1e100, 1e154, 1e160] {
        let bandwidth = KernelBandwidth::new(vec![h; dims]);
        for inf in [f64::INFINITY, f64::NEG_INFINITY] {
            // One infinite coordinate, then all of them, mixed signs.
            for infinite in 1..=dims {
                let query: Vec<f64> = (0..dims)
                    .map(|d| match d {
                        _ if d < infinite && d % 2 == 0 => inf,
                        _ if d < infinite => -inf,
                        _ => rng.next_f64() * 10.0 - 5.0,
                    })
                    .collect();
                let what = format!("h {h:e} query {query:?}");
                let mut lanes: ScoreLanes = Default::default();
                node_scores_block(&query, &bandwidth, &c.block, &mut lanes);
                let mut cluster: [Vec<f64>; 4] = Default::default();
                cluster_scores_block::<true>(&query, &bandwidth, &gathered, &mut cluster);
                let (mut leaf, mut sq, mut dist) = (Vec::new(), Vec::new(), Vec::new());
                let len = c.block.len();
                leaf_scores_block(&query, &bandwidth, means, len, len, &mut leaf, &mut sq);
                sq_dists_block(&query, means, c.block.len(), &mut dist);
                let (mut log_pdf, mut min_sq) = (Vec::new(), Vec::new());
                node_estimates_block(&query, &c.block, &mut log_pdf, &mut min_sq);
                let fused = lanes
                    .iter()
                    .chain(&cluster)
                    .chain([&leaf, &sq, &dist, &log_pdf, &min_sq]);
                for (k, lane) in fused.enumerate() {
                    assert!(
                        lane.iter().all(|v| !v.is_nan()),
                        "{what}: lane {k} {lane:?}"
                    );
                    assert!(lane.len() == c.block.len(), "{what}: lane {k} length");
                }
                let (mut lo, mut hi, mut mean, mut var) =
                    (Vec::new(), Vec::new(), Vec::new(), Vec::new());
                for i in 0..c.block.len() {
                    c.block.entry_box_into(i, &mut lo, &mut hi);
                    c.block.entry_mean_into(i, &mut mean);
                    c.block.entry_var_into(i, &mut var);
                    let moments = mean.iter().copied().zip(var.iter().copied());
                    let (jensen, magnitude) = cf_log_terms(&query, moments, &bandwidth);
                    let scalar = [
                        farthest_point_log_kernel(&query, &lo, &hi, &bandwidth),
                        nearest_point_log_kernel(&query, &lo, &hi, &bandwidth),
                        smoothed_farthest_log_kernel(&query, &lo, &hi, &bandwidth),
                        GaussianKernel.log_density(&mean, &query, &bandwidth),
                        log_kernel_at(&bandwidth, query.iter().map(|q| q * q)),
                        jensen,
                        magnitude,
                    ];
                    assert!(
                        scalar.iter().all(|v| !v.is_nan()),
                        "{what}: entry {i} scalar {scalar:?}"
                    );
                }
            }
        }
    }
}
