//! SIMD-vs-scalar parity: the runtime-dispatched AVX2 kernel variants must
//! reproduce the scalar reference loops **bit for bit**.
//!
//! The property tests in `block_kernels.rs` already pin the block kernels to
//! the entry-major scalar formulas; this file is the explicit, deterministic
//! smoke for the SIMD dispatch itself: odd lengths (lane tails), lengths
//! below one lane, degenerate bandwidths and point boxes.  With the
//! `simd` feature off (or on a non-AVX2 host) the dispatched path *is* the
//! scalar loop and the assertions are trivially true — which is exactly the
//! property CI's feature-off build checks.

use bt_stats::kernel::{
    cf_log_terms, cluster_scores_block, farthest_point_log_kernel, gaussian_log_term,
    leaf_scores_block, nearest_point_log_kernel, node_estimates_block, node_scores_block,
    smoothed_farthest_log_kernel, sq_dists_block,
};
use bt_stats::{
    bf16_ceil, bf16_decode, bf16_floor, block_step, dequantize_i16, quantize_i16, ColumnElement,
    DiagGaussian, GatheredBlock, GaussianKernel, Kernel, KernelBandwidth, ScoreLanes, SummaryBlock,
    LN_2PI, VARIANCE_FLOOR,
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

    fn coord(&mut self) -> f64 {
        self.next_f64() * 100.0 - 50.0
    }
}

struct Case {
    len: usize,
    query: Vec<f64>,
    bandwidth: Vec<f64>,
    means: Vec<f64>,
    vars: Vec<f64>,
    lower: Vec<f64>,
    upper: Vec<f64>,
}

fn case(dims: usize, len: usize, seed: u64) -> Case {
    let mut rng = SplitMix(seed);
    let query: Vec<f64> = (0..dims).map(|_| rng.coord()).collect();
    // Include sub-floor bandwidths so the flooring path is covered.
    let bandwidth: Vec<f64> = (0..dims)
        .map(|d| {
            if d % 3 == 0 {
                rng.next_f64() * 1e-5
            } else {
                0.05 + rng.next_f64() * 3.0
            }
        })
        .collect();
    let mut means = vec![0.0; dims * len];
    let mut vars = vec![0.0; dims * len];
    let mut lower = vec![0.0; dims * len];
    let mut upper = vec![0.0; dims * len];
    for d in 0..dims {
        for i in 0..len {
            let idx = d * len + i;
            means[idx] = rng.coord();
            // Zero variances every few entries: the smoothing degenerate.
            vars[idx] = if i % 5 == 0 {
                0.0
            } else {
                rng.next_f64() * 4.0
            };
            let lo = rng.coord();
            // Point boxes (width 0) every few entries.
            let width = if i % 4 == 0 {
                0.0
            } else {
                rng.next_f64() * 8.0
            };
            lower[idx] = lo;
            upper[idx] = lo + width;
        }
    }
    Case {
        len,
        query,
        bandwidth,
        means,
        vars,
        lower,
        upper,
    }
}

fn assert_bits_eq(got: &[f64], want: &[f64], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{what}: entry {i} diverges ({g} vs {w})"
        );
    }
}

/// Lane-exercising lengths: below one lane, exact lanes, tails of 1..3.
const LENS: &[usize] = &[0, 1, 2, 3, 4, 5, 7, 8, 13, 64, 65];

#[test]
fn sq_dists_block_matches_scalar_bitwise() {
    for &len in LENS {
        let c = case(5, len, 0x51ED * (len as u64 + 1));
        let mut out = Vec::new();
        sq_dists_block(&c.query, &c.means, c.len, &mut out);
        let want: Vec<f64> = (0..len)
            .map(|i| {
                let mut acc = 0.0;
                for (d, &q) in c.query.iter().enumerate() {
                    let diff = c.means[d * len + i] - q;
                    acc += diff * diff;
                }
                acc
            })
            .collect();
        assert_bits_eq(&out, &want, "sq_dists");
    }
}

/// A gathered micro-cluster node over the case's columns: means and
/// variances as generated (zero variances included, as the ClusTree gather
/// floors them at `0.0`), box columns with `boxes`, and routing centres
/// drawn independently of the means so a lane that read the wrong column
/// would show.
fn cluster_block(c: &Case, boxes: bool, seed: u64) -> GatheredBlock {
    let (dims, len) = (c.query.len(), c.len);
    let mut gathered = GatheredBlock::new();
    let block = &mut gathered.block;
    block.reset(dims, len);
    if boxes {
        block.enable_boxes();
    }
    for d in 0..dims {
        for i in 0..len {
            let idx = d * len + i;
            block.set_mean(d, i, c.means[idx]);
            block.set_var(d, i, c.vars[idx]);
            if boxes {
                block.set_lower(d, i, c.lower[idx]);
                block.set_upper(d, i, c.upper[idx]);
            }
        }
    }
    let mut rng = SplitMix(seed ^ 0xC3A7_E125);
    gathered.centers = (0..dims * len).map(|_| rng.coord()).collect();
    gathered
}

/// The scalar Jensen term of entry `i`, as `ClusQueryModel`'s per-entry
/// reference evaluates it: `sum_d gaussian_log_term(sqrt((q_d - m_d)^2 +
/// v_d), h_d)`.
fn scalar_jensen(c: &Case, i: usize) -> f64 {
    let len = c.len;
    let mut acc = 0.0;
    for (d, &q) in c.query.iter().enumerate() {
        let diff = q - c.means[d * len + i];
        let t = diff * diff + c.vars[d * len + i];
        acc += gaussian_log_term(t.sqrt(), c.bandwidth[d]);
    }
    acc
}

#[test]
fn gaussian_log_terms_match_scalar_bitwise() {
    // The plain product log-kernel is the leaf pass's first lane; the
    // variance-smoothed (Jensen) one is the micro-cluster pass's.
    for &len in LENS {
        let c = case(6, len, 0xBEEF + len as u64);
        let bandwidth = KernelBandwidth::new(c.bandwidth.clone());
        let (mut plain, mut sq) = (Vec::new(), Vec::new());
        leaf_scores_block(&c.query, &bandwidth, &c.means, len, &mut plain, &mut sq);
        let mut lanes: [Vec<f64>; 4] = Default::default();
        let gathered = cluster_block(&c, false, len as u64);
        cluster_scores_block::<false>(&c.query, &bandwidth, &gathered, &mut lanes);
        let want_plain: Vec<f64> = (0..len)
            .map(|i| {
                let mut acc = 0.0;
                for (d, &q) in c.query.iter().enumerate() {
                    acc += gaussian_log_term(q - c.means[d * len + i], c.bandwidth[d]);
                }
                acc
            })
            .collect();
        let want_smoothed: Vec<f64> = (0..len).map(|i| scalar_jensen(&c, i)).collect();
        assert_bits_eq(&plain, &want_plain, "gaussian_log_terms");
        assert_bits_eq(&lanes[0], &want_smoothed, "gaussian_log_terms smoothed");
    }
}

#[test]
fn diag_log_pdfs_match_scalar_bitwise() {
    // The SIMD log-pdf lane reads the gather's log-variance column;
    // substituting the stored `ln` must not move a bit against the
    // inline-`ln` scalar reference, in the full and the estimate pass.
    for &len in LENS {
        let (c, block) = node_case(5, len, 0xD1A6 + ((len as u64) << 2), Stored::F64);
        let bandwidth = KernelBandwidth::new(c.bandwidth.clone());
        let mut full: ScoreLanes = Default::default();
        node_scores_block(&c.query, &bandwidth, &block, &mut full);
        let (mut estimate, mut min_sq) = (Vec::new(), Vec::new());
        node_estimates_block(&c.query, &block, &mut estimate, &mut min_sq);
        let want: Vec<f64> = (0..len)
            .map(|i| {
                let mut acc = 0.0;
                for (d, &q) in c.query.iter().enumerate() {
                    let diff = q - c.means[d * len + i];
                    let var = c.vars[d * len + i].max(VARIANCE_FLOOR);
                    acc += -0.5 * (LN_2PI + var.ln() + diff * diff / var);
                }
                acc
            })
            .collect();
        assert_bits_eq(&full[0], &want, "diag log-var column");
        assert_bits_eq(&estimate, &want, "diag log-var column, estimate pass");
    }
}

#[test]
fn box_kernels_match_scalar_bitwise() {
    // The box lanes of the node pass (both corners, minimum distance) and
    // of the micro-cluster pass (smoothed farthest corner, nearest point).
    for &len in LENS {
        let seed = 0xB0CE5 ^ (len as u64) << 3;
        let (c, block) = node_case(4, len, seed, Stored::F64);
        let bandwidth = KernelBandwidth::new(c.bandwidth.clone());
        let mut node: ScoreLanes = Default::default();
        node_scores_block(&c.query, &bandwidth, &block, &mut node);
        let mut cluster: [Vec<f64>; 4] = Default::default();
        let gathered = cluster_block(&c, true, seed);
        cluster_scores_block::<true>(&c.query, &bandwidth, &gathered, &mut cluster);
        let mut want_near = vec![0.0; len];
        let mut want_far = vec![0.0; len];
        let mut want_smooth = vec![0.0; len];
        let mut want_dist = vec![0.0; len];
        for (d, &q) in c.query.iter().enumerate() {
            for i in 0..len {
                let lo = c.lower[d * len + i];
                let hi = c.upper[d * len + i];
                let clamp = if q < lo {
                    lo - q
                } else if q > hi {
                    q - hi
                } else {
                    0.0
                };
                let farthest = (q - lo).abs().max((q - hi).abs());
                let half = 0.5 * (hi - lo);
                let t = farthest * farthest + half * half;
                want_near[i] += gaussian_log_term(clamp, c.bandwidth[d]);
                want_far[i] += gaussian_log_term(farthest, c.bandwidth[d]);
                want_smooth[i] += gaussian_log_term(t.sqrt(), c.bandwidth[d]);
                want_dist[i] += clamp * clamp;
            }
        }
        assert_bits_eq(&node[2], &want_near, "nearest");
        assert_bits_eq(&node[1], &want_far, "farthest");
        assert_bits_eq(&node[3], &want_dist, "box_min_sq_dists");
        assert_bits_eq(&cluster[1], &want_smooth, "smoothed_farthest");
        assert_bits_eq(&cluster[2], &want_near, "cluster nearest");
    }
}

#[test]
fn dispatch_reports_consistent_availability() {
    let available = bt_stats::simd::avx2_available();
    if cfg!(not(all(feature = "simd", target_arch = "x86_64"))) {
        assert!(!available, "SIMD must be off without the feature/arch");
    }
    // Either way the answer must be stable across calls (cached detection).
    assert_eq!(available, bt_stats::simd::avx2_available());
}

#[test]
fn f32_columns_stay_close_through_the_simd_path() {
    // The f32 stored mode quantises only on write and widens its values
    // into f64 columns at gather time, so the SIMD result on those columns
    // must equal the scalar recomputation on the quantised values bit for
    // bit.
    let len = 13;
    let c = case(3, len, 0xF32F32);
    let means32: Vec<f64> = c.means.iter().map(|&m| f32::narrow(m).widen()).collect();
    let mut out = Vec::new();
    sq_dists_block(&c.query, &means32, len, &mut out);
    let want: Vec<f64> = (0..len)
        .map(|i| {
            let mut acc = 0.0;
            for (d, &q) in c.query.iter().enumerate() {
                let diff = means32[d * len + i] - q;
                acc += diff * diff;
            }
            acc
        })
        .collect();
    assert_bits_eq(&out, &want, "sq_dists f32");
}

// ---------------------------------------------------------------------------
// Fused node / leaf / micro-cluster passes: every output lane must equal its
// per-quantity scalar kernel and the column-wise scalar reference bit for
// bit, on every lane tail and at the dimensionalities the trees use.
// ---------------------------------------------------------------------------

/// Dimensionalities of the fused parity cases: tiny, the benchmark's 16,
/// and an odd count well past it.
const FUSED_DIMS: &[usize] = &[1, 2, 16, 33];

/// Entry counts 1..=9: below one lane, one full lane, and every tail length
/// on top of one and two lanes.
const FUSED_LENS: std::ops::RangeInclusive<usize> = 1..=9;

/// How a case's values reach the (always `f64`) block columns.
#[derive(Debug, Clone, Copy)]
enum Stored {
    /// The values as generated.
    F64,
    /// Quantised-mode decodes: i16 block-exponent means and variances, bf16
    /// outward-rounded box corners.
    QuantisedDecode,
    /// `f32` stored-mode values: means and variances rounded to nearest,
    /// box corners rounded outward.
    F32,
}

/// Round-trips every value of one entry's column group through the i16
/// block-exponent code with the group's shared step, as the quantised
/// summaries store them.
fn i16_decode(values: &[f64]) -> Vec<f64> {
    let maxabs = values.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    let step = block_step(maxabs);
    values
        .iter()
        .map(|&v| dequantize_i16(quantize_i16(v, step), step))
        .collect()
}

/// A gathered node of `len` entries over `dims` dimensions with its query
/// and bandwidth: variances clamped like `DiagGaussian::new`, box and
/// log-variance columns filled, as the Bayes-tree gather leaves them.
fn node_case(dims: usize, len: usize, seed: u64, stored: Stored) -> (Case, SummaryBlock) {
    let c = case(dims, len, seed);
    let mut block = SummaryBlock::new();
    block.reset(dims, len);
    block.enable_boxes();
    for i in 0..len {
        block.set_weight(i, 1.0 + i as f64);
        let column = |cols: &[f64]| -> Vec<f64> { (0..dims).map(|d| cols[d * len + i]).collect() };
        let (mut mean, mut var) = (column(&c.means), column(&c.vars));
        let (mut lower, mut upper) = (column(&c.lower), column(&c.upper));
        match stored {
            Stored::F64 => {}
            Stored::QuantisedDecode => {
                mean = i16_decode(&mean);
                var = i16_decode(&var);
                lower = lower.iter().map(|&v| bf16_decode(bf16_floor(v))).collect();
                upper = upper.iter().map(|&v| bf16_decode(bf16_ceil(v))).collect();
            }
            Stored::F32 => {
                let round = |v: &mut Vec<f64>, narrow: fn(f64) -> f32| {
                    v.iter_mut().for_each(|x| *x = narrow(*x).widen());
                };
                round(&mut mean, f32::narrow);
                round(&mut var, f32::narrow);
                round(&mut lower, f32::narrow_down);
                round(&mut upper, f32::narrow_up);
            }
        }
        for d in 0..dims {
            block.set_mean(d, i, mean[d]);
            block.set_var(d, i, var[d].max(VARIANCE_FLOOR));
            block.set_lower(d, i, lower[d]);
            block.set_upper(d, i, upper[d]);
        }
    }
    block.fill_log_vars();
    (c, block)
}

/// The scalar reference of the fused node pass, read off the block's
/// columns: `[log_pdf, farthest, nearest, min_dist_sq]`.
fn node_reference(query: &[f64], bandwidth: &[f64], block: &SummaryBlock) -> [Vec<f64>; 4] {
    let mut want: [Vec<f64>; 4] = Default::default();
    for i in 0..block.len() {
        let mut acc = [0.0; 4];
        for (d, &q) in query.iter().enumerate() {
            let idx = block.col(d, i);
            let diff = q - block.mean()[idx];
            let var = block.var()[idx];
            let (lo, hi) = (block.lower()[idx], block.upper()[idx]);
            let clamp = if q < lo {
                lo - q
            } else if q > hi {
                q - hi
            } else {
                0.0
            };
            let farthest = (q - lo).abs().max((q - hi).abs());
            acc[0] += -0.5 * (LN_2PI + var.ln() + diff * diff / var);
            acc[1] += gaussian_log_term(farthest, bandwidth[d]);
            acc[2] += gaussian_log_term(clamp, bandwidth[d]);
            acc[3] += clamp * clamp;
        }
        for (lane, v) in want.iter_mut().zip(acc) {
            lane.push(v);
        }
    }
    want
}

/// The per-quantity scalar kernels, entry by entry, that the fused node
/// pass must equal: `DiagGaussian::log_pdf`, [`farthest_point_log_kernel`],
/// [`nearest_point_log_kernel`] and the box minimum squared distance.
fn node_per_quantity(query: &[f64], bandwidth: &[f64], block: &SummaryBlock) -> [Vec<f64>; 4] {
    let mut got: [Vec<f64>; 4] = Default::default();
    let (mut mean, mut var, mut lo, mut hi) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for i in 0..block.len() {
        block.entry_mean_into(i, &mut mean);
        block.entry_var_into(i, &mut var);
        block.entry_box_into(i, &mut lo, &mut hi);
        got[0].push(DiagGaussian::new(mean.clone(), var.clone()).log_pdf(query));
        got[1].push(farthest_point_log_kernel(query, &lo, &hi, bandwidth));
        got[2].push(nearest_point_log_kernel(query, &lo, &hi, bandwidth));
        let mut min_sq = 0.0;
        for (d, &q) in query.iter().enumerate() {
            let near = if q < lo[d] {
                lo[d] - q
            } else if q > hi[d] {
                q - hi[d]
            } else {
                0.0
            };
            min_sq += near * near;
        }
        got[3].push(min_sq);
    }
    got
}

/// The scalar reference of the fused leaf pass over `len` mean columns:
/// `(log_kernel, sq_dist)` per item.
fn leaf_reference(query: &[f64], bandwidth: &[f64], means: &[f64], len: usize) -> [Vec<f64>; 2] {
    let mut want: [Vec<f64>; 2] = Default::default();
    for i in 0..len {
        let (mut log_k, mut sq) = (0.0, 0.0);
        for (d, &q) in query.iter().enumerate() {
            let m = means[d * len + i];
            log_k += gaussian_log_term(q - m, bandwidth[d]);
            let diff = m - q;
            sq += diff * diff;
        }
        want[0].push(log_k);
        want[1].push(sq);
    }
    want
}

const LANE_NAMES: [&str; 4] = ["log_pdf", "farthest", "nearest", "min_dist_sq"];

#[test]
fn fused_node_pass_matches_per_quantity_kernels_bitwise() {
    for &dims in FUSED_DIMS {
        for len in FUSED_LENS {
            for stored in [Stored::F64, Stored::QuantisedDecode, Stored::F32] {
                let seed = 0xF05E_D000 + ((dims as u64) << 8) + len as u64;
                let (c, block) = node_case(dims, len, seed, stored);
                let bandwidth = KernelBandwidth::new(c.bandwidth.clone());
                let mut fused: ScoreLanes = Default::default();
                node_scores_block(&c.query, &bandwidth, &block, &mut fused);
                let per_quantity = node_per_quantity(&c.query, &c.bandwidth, &block);
                let want = node_reference(&c.query, &c.bandwidth, &block);
                for lane in 0..4 {
                    let what = format!("{stored:?} dims {dims} len {len} {}", LANE_NAMES[lane]);
                    assert_bits_eq(&fused[lane], &per_quantity[lane], &what);
                    let what = format!("{what} vs scalar");
                    assert_bits_eq(&fused[lane], &want[lane], &what);
                }
            }
        }
    }
}

#[test]
fn estimate_node_pass_matches_the_full_pass_bitwise() {
    // Lengths 1..=9 cover the padded chunk and every overlap of the full
    // one; 64 is a wide node.  Under AVX2 this checks the dispatched pass,
    // in the `--no-default-features` build the scalar loop.
    for &dims in FUSED_DIMS {
        for len in FUSED_LENS.chain([64]) {
            for stored in [Stored::F64, Stored::QuantisedDecode, Stored::F32] {
                let seed = 0xE571_0000 + ((dims as u64) << 8) + len as u64;
                let (c, block) = node_case(dims, len, seed, stored);
                let bandwidth = KernelBandwidth::new(c.bandwidth.clone());
                let mut full: ScoreLanes = Default::default();
                node_scores_block(&c.query, &bandwidth, &block, &mut full);
                let (mut log_pdf, mut min_sq) = (vec![f64::NAN; 3], Vec::new());
                node_estimates_block(&c.query, &block, &mut log_pdf, &mut min_sq);
                let want = node_reference(&c.query, &c.bandwidth, &block);
                let what = format!("{stored:?} dims {dims} len {len}");
                assert_bits_eq(&log_pdf, &full[0], &format!("{what} log_pdf"));
                assert_bits_eq(&min_sq, &full[3], &format!("{what} min_dist_sq"));
                assert_bits_eq(&log_pdf, &want[0], &format!("{what} log_pdf vs scalar"));
                assert_bits_eq(&min_sq, &want[3], &format!("{what} min_dist_sq vs scalar"));
            }
        }
    }
}

/// A gathered node as the Bayes-tree gather leaves it: raw cluster-feature
/// variances — positive, zero, sub-floor, rounded below zero by
/// cancellation, and NaN (a non-finite `SS/n - m^2`) — beside the case's
/// means and boxes.  Returns the variances it stored, dimension-major.
fn raw_variance_node(c: &Case) -> (SummaryBlock, Vec<f64>) {
    let (dims, len) = (c.query.len(), c.len);
    let mut rng = SplitMix(0x2A7 ^ (dims as u64) << 16 ^ len as u64);
    let mut block = SummaryBlock::new();
    block.reset(dims, len);
    block.enable_boxes();
    let mut vars = vec![0.0; dims * len];
    for d in 0..dims {
        for i in 0..len {
            let idx = d * len + i;
            vars[idx] = match (i + d) % 6 {
                0 => 0.0,
                1 => 1e-12 * rng.next_f64(),
                2 => -1e-13 * rng.next_f64(),
                3 if i % 4 == 3 => f64::NAN,
                _ => c.vars[idx],
            };
            block.set_weight(i, 1.0 + i as f64);
            block.set_mean(d, i, c.means[idx]);
            block.set_var(d, i, vars[idx]);
            block.set_lower(d, i, c.lower[idx]);
            block.set_upper(d, i, c.upper[idx]);
        }
    }
    block.fill_log_vars();
    (block, vars)
}

#[test]
fn cf_lanes_match_the_shared_formula_bitwise() {
    // The Jensen and magnitude lanes of the node pass against
    // `cf_log_terms` on raw variances, at lengths 1..=9 (the padded chunk
    // and every overlap of the full one), 26 and 64.  Under AVX2 this
    // checks the dispatched pass, in the `--no-default-features` build the
    // scalar loop; the log-pdf lane must still floor each raw variance as
    // `DiagGaussian` does.
    for &dims in FUSED_DIMS {
        for len in FUSED_LENS.chain([26, 64]) {
            let seed = 0xCF1A_0000 + ((dims as u64) << 8) + len as u64;
            let c = case(dims, len, seed);
            let (block, vars) = raw_variance_node(&c);
            let bandwidth = KernelBandwidth::new(c.bandwidth.clone());
            let mut lanes: ScoreLanes = Default::default();
            node_scores_block(&c.query, &bandwidth, &block, &mut lanes);
            let (means, vars) = (&c.means, &vars);
            let moments =
                |i: usize| (0..dims).map(move |d| (means[d * len + i], vars[d * len + i]));
            let (want_jensen, want_magnitude): (Vec<f64>, Vec<f64>) = (0..len)
                .map(|i| cf_log_terms(&c.query, moments(i), &bandwidth))
                .unzip();
            let what = format!("dims {dims} len {len}");
            assert_bits_eq(&lanes[4], &want_jensen, &format!("{what} jensen"));
            assert_bits_eq(&lanes[5], &want_magnitude, &format!("{what} magnitude"));
            let want_log_pdf: Vec<f64> = (0..len)
                .map(|i| {
                    let (mean, var): (Vec<f64>, Vec<f64>) = moments(i).unzip();
                    DiagGaussian::new(mean, var).log_pdf(&c.query)
                })
                .collect();
            assert_bits_eq(&lanes[0], &want_log_pdf, &format!("{what} floored log_pdf"));
            let (mut log_pdf, mut min_sq) = (Vec::new(), Vec::new());
            node_estimates_block(&c.query, &block, &mut log_pdf, &mut min_sq);
            assert_bits_eq(&log_pdf, &want_log_pdf, &format!("{what} estimate log_pdf"));
            let nan_jensen = (0..len).filter(|&i| moments(i).any(|(_, v)| v.is_nan()));
            for i in nan_jensen {
                assert!(
                    lanes[4][i].is_nan() && lanes[5][i].is_nan(),
                    "{what}: NaN variance"
                );
            }
        }
    }
}

#[test]
fn fused_leaf_pass_matches_per_quantity_kernels_bitwise() {
    for &dims in FUSED_DIMS {
        for len in FUSED_LENS {
            for stored in [Stored::F64, Stored::QuantisedDecode, Stored::F32] {
                let seed = 0x1EAF_0000 + ((dims as u64) << 8) + len as u64;
                let (c, block) = node_case(dims, len, seed, stored);
                let bandwidth = KernelBandwidth::new(c.bandwidth.clone());
                let (mut log_k, mut sq) = (Vec::new(), Vec::new());
                leaf_scores_block(&c.query, &bandwidth, block.mean(), len, &mut log_k, &mut sq);
                let mut mean = Vec::new();
                let want_k: Vec<f64> = (0..len)
                    .map(|i| {
                        block.entry_mean_into(i, &mut mean);
                        GaussianKernel.log_density(&mean, &c.query, &c.bandwidth)
                    })
                    .collect();
                let mut want_sq = Vec::new();
                sq_dists_block(&c.query, block.mean(), len, &mut want_sq);
                let what = format!("{stored:?} dims {dims} len {len}");
                assert_bits_eq(&log_k, &want_k, &format!("{what} log_kernel"));
                assert_bits_eq(&sq, &want_sq, &format!("{what} sq_dist"));
                let [ref_k, ref_sq] = leaf_reference(&c.query, &c.bandwidth, block.mean(), len);
                assert_bits_eq(&log_k, &ref_k, &format!("{what} log_kernel vs scalar"));
                assert_bits_eq(&sq, &ref_sq, &format!("{what} sq_dist vs scalar"));
            }
        }
    }
}

#[test]
fn fused_cluster_pass_matches_scalar_bitwise() {
    // Lengths 1..=9 cover the padded chunk and every overlap of the full
    // one; 64 is a wide node.  Under AVX2 this checks the dispatched pass,
    // in the `--no-default-features` build the scalar loop.
    for &dims in FUSED_DIMS {
        for len in FUSED_LENS.chain([64]) {
            let seed = 0xC105_7000 + ((dims as u64) << 8) + len as u64;
            let c = case(dims, len, seed);
            let bandwidth = KernelBandwidth::new(c.bandwidth.clone());
            let gathered = cluster_block(&c, true, seed);
            let mut want: [Vec<f64>; 4] = Default::default();
            let (mut lo, mut hi, mut center) = (Vec::new(), Vec::new(), Vec::new());
            for i in 0..len {
                gathered.block.entry_box_into(i, &mut lo, &mut hi);
                center.clear();
                center.extend((0..dims).map(|d| gathered.centers[d * len + i]));
                want[0].push(scalar_jensen(&c, i));
                want[1].push(smoothed_farthest_log_kernel(
                    &c.query,
                    &lo,
                    &hi,
                    &c.bandwidth,
                ));
                want[2].push(nearest_point_log_kernel(&c.query, &lo, &hi, &c.bandwidth));
                let mut sq = 0.0;
                for (d, &q) in c.query.iter().enumerate() {
                    let diff = center[d] - q;
                    sq += diff * diff;
                }
                want[3].push(sq);
            }
            let names = ["jensen", "smoothed_farthest", "nearest", "centre_sq_dist"];
            let mut bounds: [Vec<f64>; 4] = Default::default();
            cluster_scores_block::<true>(&c.query, &bandwidth, &gathered, &mut bounds);
            for lane in 0..4 {
                let what = format!("dims {dims} len {len} {}", names[lane]);
                assert_bits_eq(&bounds[lane], &want[lane], &what);
            }
            // Without BOUNDS: the box lanes stay empty (stale contents are
            // dropped), the other two are unchanged.
            let mut estimate: [Vec<f64>; 4] = [vec![1.0], vec![f64::NAN; 3], vec![2.0], vec![]];
            cluster_scores_block::<false>(&c.query, &bandwidth, &gathered, &mut estimate);
            let what = format!("dims {dims} len {len} without bounds");
            assert_bits_eq(&estimate[0], &want[0], &format!("{what} jensen"));
            assert_bits_eq(&estimate[3], &want[3], &format!("{what} centre_sq_dist"));
            assert!(estimate[1].is_empty() && estimate[2].is_empty(), "{what}");
        }
    }
}

#[test]
fn kernel_bandwidth_caches_the_per_call_terms() {
    let values = vec![0.75, 1e-7, 3.0, 0.0];
    let bandwidth = KernelBandwidth::new(values.clone());
    assert_eq!(bandwidth.values(), &values[..]);
    let (mut log_peak, mut log_scale) = (0.0, 0.0);
    for (d, &b) in values.iter().enumerate() {
        let h = b.max(VARIANCE_FLOOR.sqrt());
        assert_eq!(bandwidth.floored()[d].to_bits(), h.to_bits());
        assert_eq!(bandwidth.ln_floored()[d].to_bits(), h.ln().to_bits());
        let inv_sq = 1.0 / (h * h);
        assert_eq!(bandwidth.inv_sq()[d].to_bits(), inv_sq.to_bits());
        assert_eq!(
            bandwidth.neg_half_inv_sq()[d].to_bits(),
            (-0.5 * inv_sq).to_bits()
        );
        log_peak += -0.5 * LN_2PI - h.ln();
        log_scale += 1.0 + h.ln().abs();
    }
    assert!((bandwidth.log_peak() - log_peak).abs() <= 1e-12 * log_peak.abs());
    assert!((bandwidth.log_scale() - log_scale).abs() <= 1e-12 * log_scale);
}
