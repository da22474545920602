//! SIMD-vs-scalar parity: the runtime-dispatched AVX2 kernel variants must
//! reproduce the scalar reference loops **bit for bit**.
//!
//! The property tests in `block_kernels.rs` already pin the block kernels to
//! the entry-major scalar formulas; this file is the explicit, deterministic
//! smoke for the SIMD dispatch itself: odd lengths (lane tails), lengths
//! below one lane, degenerate bandwidths and inverted/point boxes.  With the
//! `simd` feature off (or on a non-AVX2 host) the dispatched path *is* the
//! scalar loop and the assertions are trivially true — which is exactly the
//! property CI's feature-off build checks.

use bt_stats::kernel::{
    box_min_sq_dists_block, diag_log_pdfs_block, farthest_point_log_kernels_block,
    gaussian_log_term, gaussian_log_terms_block, leaf_scores_block,
    nearest_point_log_kernels_block, node_estimates_block, node_scores_block,
    smoothed_farthest_log_kernels_block, sq_dists_block,
};
use bt_stats::{
    bf16_ceil, bf16_decode, bf16_floor, block_step, dequantize_i16, quantize_i16, ColumnElement,
    KernelBandwidth, SummaryBlock, LN_2PI, VARIANCE_FLOOR,
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

#[test]
fn gaussian_log_terms_block_matches_scalar_bitwise() {
    for &len in LENS {
        let c = case(6, len, 0xBEEF + len as u64);
        for with_vars in [false, true] {
            let mut out = Vec::new();
            let vars = with_vars.then_some(&c.vars[..]);
            gaussian_log_terms_block(&c.query, &c.bandwidth, &c.means, vars, c.len, &mut out);
            let want: Vec<f64> = (0..len)
                .map(|i| {
                    let mut acc = 0.0;
                    for (d, &q) in c.query.iter().enumerate() {
                        let m = c.means[d * len + i];
                        let dist = if with_vars {
                            let diff = q - m;
                            (diff * diff + c.vars[d * len + i]).sqrt()
                        } else {
                            q - m
                        };
                        acc += gaussian_log_term(dist, c.bandwidth[d]);
                    }
                    acc
                })
                .collect();
            assert_bits_eq(&out, &want, "gaussian_log_terms");
        }
    }
}

#[test]
fn diag_log_pdfs_block_matches_scalar_bitwise() {
    // The SIMD diag path only exists for gathers that precomputed their
    // log-variance column; substituting the stored `ln` must not move a bit
    // against the inline-`ln` scalar reference.
    for &len in LENS {
        let c = case(5, len, 0xD1A6 + ((len as u64) << 2));
        // Floor the variances like a real gather would (DiagGaussian's
        // clamp), so `ln` and the division stay finite.
        let vars: Vec<f64> = c.vars.iter().map(|v| v.max(VARIANCE_FLOOR)).collect();
        let log_vars: Vec<f64> = vars.iter().map(|v| v.ln()).collect();
        let mut with_column = Vec::new();
        diag_log_pdfs_block(
            &c.query,
            &c.means,
            &vars,
            Some(&log_vars),
            len,
            &mut with_column,
        );
        let mut inline_ln = Vec::new();
        diag_log_pdfs_block(&c.query, &c.means, &vars, None, len, &mut inline_ln);
        let want: Vec<f64> = (0..len)
            .map(|i| {
                let mut acc = 0.0;
                for (d, &q) in c.query.iter().enumerate() {
                    let diff = q - c.means[d * len + i];
                    let var = vars[d * len + i];
                    acc += -0.5 * (LN_2PI + var.ln() + diff * diff / var);
                }
                acc
            })
            .collect();
        assert_bits_eq(&inline_ln, &want, "diag inline-ln");
        assert_bits_eq(&with_column, &want, "diag log-var column");
    }
}

#[test]
fn box_kernels_match_scalar_bitwise() {
    for &len in LENS {
        let c = case(4, len, 0xB0CE5 ^ (len as u64) << 3);
        let mut near = Vec::new();
        let mut far = Vec::new();
        let mut smooth = Vec::new();
        let mut dist_sq = Vec::new();
        nearest_point_log_kernels_block(&c.query, &c.bandwidth, &c.lower, &c.upper, len, &mut near);
        farthest_point_log_kernels_block(&c.query, &c.bandwidth, &c.lower, &c.upper, len, &mut far);
        smoothed_farthest_log_kernels_block(
            &c.query,
            &c.bandwidth,
            &c.lower,
            &c.upper,
            len,
            &mut smooth,
        );
        box_min_sq_dists_block(&c.query, &c.lower, &c.upper, len, &mut dist_sq);
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
        assert_bits_eq(&near, &want_near, "nearest");
        assert_bits_eq(&far, &want_far, "farthest");
        assert_bits_eq(&smooth, &want_smooth, "smoothed_farthest");
        assert_bits_eq(&dist_sq, &want_dist, "box_min_sq_dists");
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
// Fused node / leaf passes: every output lane must equal its per-quantity
// kernel and the scalar reference bit for bit, on every lane tail and at
// the dimensionalities the trees use.
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

/// The four per-quantity kernels the fused node pass replaces.
fn node_per_quantity(query: &[f64], bandwidth: &[f64], block: &SummaryBlock) -> [Vec<f64>; 4] {
    let len = block.len();
    let mut got: [Vec<f64>; 4] = Default::default();
    let [log_pdf, far, near, dist] = &mut got;
    diag_log_pdfs_block(
        query,
        block.mean(),
        block.var(),
        block.log_vars(),
        len,
        log_pdf,
    );
    farthest_point_log_kernels_block(query, bandwidth, block.lower(), block.upper(), len, far);
    nearest_point_log_kernels_block(query, bandwidth, block.lower(), block.upper(), len, near);
    box_min_sq_dists_block(query, block.lower(), block.upper(), len, dist);
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
                let mut fused: [Vec<f64>; 4] = Default::default();
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
                let mut full: [Vec<f64>; 4] = Default::default();
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
                let (mut want_k, mut want_sq) = (Vec::new(), Vec::new());
                gaussian_log_terms_block(
                    &c.query,
                    &c.bandwidth,
                    block.mean(),
                    None,
                    len,
                    &mut want_k,
                );
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
fn kernel_bandwidth_caches_the_per_call_terms() {
    let values = vec![0.75, 1e-7, 3.0, 0.0];
    let bandwidth = KernelBandwidth::new(values.clone());
    assert_eq!(bandwidth.values(), &values[..]);
    for (d, &b) in values.iter().enumerate() {
        let h = b.max(VARIANCE_FLOOR.sqrt());
        assert_eq!(bandwidth.floored()[d].to_bits(), h.to_bits());
        assert_eq!(bandwidth.ln_floored()[d].to_bits(), h.ln().to_bits());
    }
}
