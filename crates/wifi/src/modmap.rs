//! Constellation mapping and max-log soft demapping.
//!
//! Gray-coded BPSK/QPSK/16-QAM/64-QAM per IEEE 802.11-2012 §18.3.5.8, with
//! the standard normalization factors (1, 1/√2, 1/√10, 1/√42) so every
//! constellation has unit average power.

use crate::params::Modulation;
use backfi_dsp::Complex;

/// Per-axis Gray levels for 16-QAM: input bits (b0 b1) → amplitude.
const LEVELS4: [f64; 4] = [-3.0, -1.0, 3.0, 1.0]; // index = b0 + 2*b1
/// Per-axis Gray levels for 64-QAM: index = b0 + 2*b1 + 4*b2.
const LEVELS8: [f64; 8] = [-7.0, -5.0, -1.0, -3.0, 7.0, 5.0, 1.0, 3.0];

/// Normalization factor K_MOD for a modulation.
pub fn norm(modulation: Modulation) -> f64 {
    match modulation {
        Modulation::Bpsk => 1.0,
        Modulation::Qpsk => 1.0 / 2f64.sqrt(),
        Modulation::Qam16 => 1.0 / 10f64.sqrt(),
        Modulation::Qam64 => 1.0 / 42f64.sqrt(),
    }
}

/// Map `bits_per_subcarrier` bits to one constellation point.
///
/// Bit order follows the standard: the first half of the bits select the I
/// axis (first bit is the MSB-like Gray bit), the second half the Q axis.
/// BPSK uses only the I axis.
///
/// # Panics
/// Panics if `bits.len()` doesn't match the modulation.
pub fn map_bits(modulation: Modulation, bits: &[bool]) -> Complex {
    assert_eq!(
        bits.len(),
        modulation.bits_per_subcarrier(),
        "wrong bit count for {modulation:?}"
    );
    let k = norm(modulation);
    match modulation {
        Modulation::Bpsk => Complex::new(if bits[0] { 1.0 } else { -1.0 }, 0.0),
        Modulation::Qpsk => Complex::new(
            if bits[0] { 1.0 } else { -1.0 },
            if bits[1] { 1.0 } else { -1.0 },
        )
        .scale(k),
        Modulation::Qam16 => {
            let i = LEVELS4[bits[0] as usize + 2 * bits[1] as usize];
            let q = LEVELS4[bits[2] as usize + 2 * bits[3] as usize];
            Complex::new(i, q).scale(k)
        }
        Modulation::Qam64 => {
            let i = LEVELS8[bits[0] as usize + 2 * bits[1] as usize + 4 * bits[2] as usize];
            let q = LEVELS8[bits[3] as usize + 2 * bits[4] as usize + 4 * bits[5] as usize];
            Complex::new(i, q).scale(k)
        }
    }
}

/// Map a whole coded-bit block to constellation points.
///
/// # Panics
/// Panics if `bits.len()` is not a multiple of the bits-per-subcarrier.
pub fn map_block(modulation: Modulation, bits: &[bool]) -> Vec<Complex> {
    let n = modulation.bits_per_subcarrier();
    assert_eq!(bits.len() % n, 0, "bit block not a multiple of {n}");
    bits.chunks_exact(n)
        .map(|c| map_bits(modulation, c))
        .collect()
}

/// All constellation points of a modulation together with their bit labels,
/// used by the max-log demapper and by tests.
pub fn constellation(modulation: Modulation) -> Vec<(Complex, Vec<bool>)> {
    let n = modulation.bits_per_subcarrier();
    (0..1usize << n)
        .map(|v| {
            let bits: Vec<bool> = (0..n).map(|i| (v >> i) & 1 == 1).collect();
            (map_bits(modulation, &bits), bits)
        })
        .collect()
}

/// Axis tables for the demapper. Every 802.11 constellation is square Gray
/// (BPSK the degenerate one-axis case) and factors into independent I/Q PAM
/// axes: with the labels `v = 0..2^n` of [`constellation`], the low `RB`
/// label bits select the I level `rax[v & (2^RB−1)]` and the high `IB` bits
/// the Q level `iax[v >> RB]`, bitwise (pinned by the
/// `constellations_factor_through_axis_tables` test).
struct ConstTable {
    rax: [f64; 8],
    iax: [f64; 8],
}

/// Process-wide cached [`ConstTable`]s, one per modulation. The reference
/// demapper rebuilds (and heap-allocates) the constellation on every call —
/// per subcarrier per symbol — which dominated receive-side demod time.
fn table(modulation: Modulation) -> &'static ConstTable {
    use std::sync::OnceLock;
    static TABLES: OnceLock<[ConstTable; 4]> = OnceLock::new();
    let all = TABLES.get_or_init(|| {
        [
            Modulation::Bpsk,
            Modulation::Qpsk,
            Modulation::Qam16,
            Modulation::Qam64,
        ]
        .map(|m| {
            // I levels from the points with all Q bits zero, Q levels from
            // the points with all I bits zero.
            let nbits = m.bits_per_subcarrier();
            let rb = nbits - nbits / 2;
            let pts = constellation(m);
            let mut t = ConstTable {
                rax: [0.0; 8],
                iax: [0.0; 8],
            };
            for (r, (p, _)) in t.rax.iter_mut().zip(&pts).take(1 << rb) {
                *r = p.re;
            }
            for (j, q) in t.iax.iter_mut().enumerate().take(1 << (nbits / 2)) {
                *q = pts[j << rb].0.im;
            }
            t
        })
    });
    let idx = match modulation {
        Modulation::Bpsk => 0,
        Modulation::Qpsk => 1,
        Modulation::Qam16 => 2,
        Modulation::Qam64 => 3,
    };
    &all[idx]
}

/// Max-log LLR soft demapping of a planar batch of equalized points (the
/// receive chain passes every symbol of a batch in one call), appending
/// `bits_per_subcarrier` LLRs per point to `out`.
///
/// `noise_var` scales the confidence; `csi[p]` (channel gain magnitude
/// squared) further weights point `p`, so faded subcarriers contribute weak
/// metrics — this is what makes soft-decision Viterbi shine on
/// frequency-selective channels. Output convention matches `backfi-coding`:
/// positive ⇒ bit 1.
///
/// Runs the separable axis scan over the cached [`ConstTable`]s;
/// bit-identical to per-point [`demap_soft_direct`] calls at every batch
/// size (pinned by the `_equiv` test; NaN sign and payload excepted).
///
/// # Panics
/// Panics if the planar slices differ in length.
pub fn demap_soft_batch(
    modulation: Modulation,
    eq_re: &[f64],
    eq_im: &[f64],
    csi: &[f64],
    noise_var: f64,
    out: &mut Vec<f64>,
) {
    let t = table(modulation);
    let nv = noise_var.max(1e-12);
    match modulation {
        Modulation::Bpsk => demap_sep_batch::<1, 0>(t, eq_re, eq_im, csi, nv, out),
        Modulation::Qpsk => demap_sep_batch::<1, 1>(t, eq_re, eq_im, csi, nv, out),
        Modulation::Qam16 => demap_sep_batch::<2, 2>(t, eq_re, eq_im, csi, nv, out),
        Modulation::Qam64 => demap_sep_batch::<3, 3>(t, eq_re, eq_im, csi, nv, out),
    }
}

/// Separable max-log demap of a planar batch: per point, `2^RB + 2^IB`
/// axis distances instead of `2^(RB+IB)` point distances.
///
/// **Value-identical to the 2-D scan of [`demap_soft_direct`].** Every
/// point distance is `fl(dre[j] + dim[j2])` over the product set of axis
/// distances, and float addition is monotone in both operands, so the
/// minimum over any subset `{bit fixed} × {all}` equals
/// `fl(min dre + min dim)` bitwise — the candidate built from the two axis
/// minima is a member of the subset and no member can round below it. Axis
/// minima use the same `f64::min`-chain semantics as the reference (a NaN
/// input point NaNs *every* distance on both paths, leaving the same +∞
/// minima).
fn demap_sep_batch<const RB: usize, const IB: usize>(
    t: &ConstTable,
    eq_re: &[f64],
    eq_im: &[f64],
    csi: &[f64],
    nv: f64,
    out: &mut Vec<f64>,
) {
    assert_eq!(eq_re.len(), eq_im.len(), "planar batch length mismatch");
    assert_eq!(eq_re.len(), csi.len(), "planar batch length mismatch");
    let nbits = RB + IB;
    let start = out.len();
    out.resize(start + eq_re.len() * nbits, 0.0);
    let dst = &mut out[start..];
    for p in 0..eq_re.len() {
        let pre = eq_re[p];
        let pim = eq_im[p];
        let mut dre = [0.0f64; 8];
        let mut dim = [0.0f64; 8];
        for (j, d) in dre.iter_mut().enumerate().take(1 << RB) {
            let dx = pre - t.rax[j];
            *d = dx * dx;
        }
        for (j, d) in dim.iter_mut().enumerate().take(1 << IB) {
            let dy = pim - t.iax[j];
            *d = dy * dy;
        }
        // Per-bit split minima along each axis, plus the whole-axis minimum
        // (min of any split — the multiset is order-independent).
        let mut r0 = [f64::INFINITY; 3];
        let mut r1 = [f64::INFINITY; 3];
        for (j, &d) in dre.iter().enumerate().take(1 << RB) {
            for b in 0..RB {
                if (j >> b) & 1 == 0 {
                    r0[b] = d.min(r0[b]);
                } else {
                    r1[b] = d.min(r1[b]);
                }
            }
        }
        let mre = if RB > 0 { r0[0].min(r1[0]) } else { dre[0] };
        let mut i0 = [f64::INFINITY; 3];
        let mut i1 = [f64::INFINITY; 3];
        for (j, &d) in dim.iter().enumerate().take(1 << IB) {
            for b in 0..IB {
                if (j >> b) & 1 == 0 {
                    i0[b] = d.min(i0[b]);
                } else {
                    i1[b] = d.min(i1[b]);
                }
            }
        }
        let mim = if IB > 0 { i0[0].min(i1[0]) } else { dim[0] };
        let scale = csi[p] / nv;
        let row = &mut dst[p * nbits..(p + 1) * nbits];
        for b in 0..RB {
            row[b] = ((r0[b] + mim) - (r1[b] + mim)) * scale;
        }
        for b in 0..IB {
            row[RB + b] = ((mre + i0[b]) - (mre + i1[b])) * scale;
        }
    }
}

/// Reference form of [`demap_soft_batch`] for one point: rebuilds the
/// constellation and scans it with the original branchy min loop. Pinned
/// against the batch demapper by the `_equiv` test.
pub fn demap_soft_direct(
    modulation: Modulation,
    point: Complex,
    csi: f64,
    noise_var: f64,
    out: &mut Vec<f64>,
) {
    let nbits = modulation.bits_per_subcarrier();
    let set = constellation(modulation);
    let scale = csi / noise_var.max(1e-12);
    for bit in 0..nbits {
        let mut d0 = f64::INFINITY;
        let mut d1 = f64::INFINITY;
        for (p, bits) in &set {
            let d = (point - *p).norm_sqr();
            if bits[bit] {
                d1 = d1.min(d);
            } else {
                d0 = d0.min(d);
            }
        }
        out.push((d0 - d1) * scale);
    }
}

/// Hard-decision demapping: nearest constellation point's bits. NaN
/// distances (a NaN input point) lose the nearest-point comparison instead
/// of panicking it.
pub fn demap_hard(modulation: Modulation, point: Complex) -> Vec<bool> {
    let key = |c: &(Complex, Vec<bool>)| {
        let d = (point - c.0).norm_sqr();
        if d.is_nan() {
            f64::INFINITY
        } else {
            d
        }
    };
    constellation(modulation)
        .into_iter()
        .min_by(|a, b| key(a).total_cmp(&key(b)))
        .map(|(_, bits)| bits)
        .expect("constellation is never empty")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::Modulation::*;

    #[test]
    fn unit_average_power() {
        for m in [Bpsk, Qpsk, Qam16, Qam64] {
            let pts = constellation(m);
            let p: f64 = pts.iter().map(|(c, _)| c.norm_sqr()).sum::<f64>() / pts.len() as f64;
            assert!((p - 1.0).abs() < 1e-12, "{m:?} power {p}");
        }
    }

    #[test]
    fn constellations_have_distinct_points() {
        for m in [Bpsk, Qpsk, Qam16, Qam64] {
            let pts = constellation(m);
            for i in 0..pts.len() {
                for j in i + 1..pts.len() {
                    assert!((pts[i].0 - pts[j].0).abs() > 1e-9, "{m:?} {i},{j}");
                }
            }
        }
    }

    #[test]
    fn gray_property_adjacent_levels_differ_one_bit() {
        // Sort 16-QAM I-axis levels; adjacent levels must differ in one bit.
        let mut lv: Vec<(i32, usize)> = (0..4).map(|v| (LEVELS4[v] as i32, v)).collect();
        lv.sort();
        for w in lv.windows(2) {
            let d = (w[0].1 ^ w[1].1).count_ones();
            assert_eq!(d, 1, "not gray: {:?}", w);
        }
        let mut lv8: Vec<(i32, usize)> = (0..8).map(|v| (LEVELS8[v] as i32, v)).collect();
        lv8.sort();
        for w in lv8.windows(2) {
            assert_eq!((w[0].1 ^ w[1].1).count_ones(), 1, "64qam not gray: {w:?}");
        }
    }

    #[test]
    fn hard_demap_roundtrip() {
        for m in [Bpsk, Qpsk, Qam16, Qam64] {
            for (p, bits) in constellation(m) {
                assert_eq!(demap_hard(m, p), bits, "{m:?}");
            }
        }
    }

    #[test]
    fn constellations_factor_through_axis_tables() {
        // The separable demapper is exact only if every point is the pair
        // of its I and Q axis levels, bit for bit.
        for m in [Bpsk, Qpsk, Qam16, Qam64] {
            let nbits = m.bits_per_subcarrier();
            let rb = nbits - nbits / 2;
            let rmask = (1 << rb) - 1;
            let t = table(m);
            for (v, (p, _)) in constellation(m).into_iter().enumerate() {
                assert_eq!(p.re.to_bits(), t.rax[v & rmask].to_bits(), "{m:?} {v}");
                assert_eq!(p.im.to_bits(), t.iax[v >> rb].to_bits(), "{m:?} {v}");
            }
        }
    }

    /// Soft-demap one point through the batch demapper.
    fn demap_one(m: Modulation, p: Complex, csi: f64, nv: f64) -> Vec<f64> {
        let mut llr = Vec::new();
        demap_soft_batch(m, &[p.re], &[p.im], &[csi], nv, &mut llr);
        llr
    }

    #[test]
    fn soft_demap_sign_matches_bits_at_high_snr() {
        for m in [Bpsk, Qpsk, Qam16, Qam64] {
            for (p, bits) in constellation(m) {
                let llr = demap_one(m, p, 1.0, 0.01);
                for (i, &b) in bits.iter().enumerate() {
                    assert_eq!(llr[i] > 0.0, b, "{m:?} bit {i}");
                }
            }
        }
    }

    #[test]
    fn soft_demap_scales_with_csi() {
        let pt = map_bits(Qpsk, &[true, false]);
        let strong = demap_one(Qpsk, pt, 1.0, 0.1);
        let weak = demap_one(Qpsk, pt, 0.01, 0.1);
        assert!(strong[0].abs() > weak[0].abs() * 50.0);
    }

    /// Batch-demap the planar points with every modulation and compare with
    /// per-point [`demap_soft_direct`] calls bit for bit (both paths yield
    /// NaN LLRs on NaN/∞ points; NaN bit patterns are unspecified).
    fn assert_batch_matches_direct(re: &[f64], im: &[f64], csi: &[f64], nv: f64) {
        for m in [Bpsk, Qpsk, Qam16, Qam64] {
            let mut fast = Vec::new();
            demap_soft_batch(m, re, im, csi, nv, &mut fast);
            let mut slow = Vec::new();
            for i in 0..re.len() {
                demap_soft_direct(m, Complex::new(re[i], im[i]), csi[i], nv, &mut slow);
            }
            let len = re.len();
            assert_eq!(fast.len(), slow.len(), "{m:?} len {len}");
            for (i, (a, b)) in fast.iter().zip(&slow).enumerate() {
                assert!(
                    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan()),
                    "{m:?} len {len} nv {nv} llr {i}: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn demap_soft_batch_equiv_direct() {
        // Ragged batch lengths — not a multiple of any SIMD lane width —
        // with NaN/∞ lanes and per-point csi.
        for len in [1usize, 5, 17, 48, 53] {
            let mut re = Vec::with_capacity(len);
            let mut im = Vec::with_capacity(len);
            let mut csi = Vec::with_capacity(len);
            for i in 0..len {
                re.push(((i * 7 + 3) % 13) as f64 * 0.21 - 1.2);
                im.push(((i * 5 + 1) % 11) as f64 * 0.27 - 1.3);
                csi.push(0.2 + (i % 4) as f64 * 0.45);
            }
            if len >= 5 {
                re[1] = f64::NAN;
                im[2] = f64::INFINITY;
                re[3] = f64::NEG_INFINITY;
                csi[4] = 0.0;
            }
            for nv in [0.15, 1e-14] {
                assert_batch_matches_direct(&re, &im, &csi, nv);
            }
        }
    }

    #[test]
    fn demap_soft_equiv_direct() {
        // A 9×9 point grid plus NaN, ∞ and denormal points, at three
        // uniform (csi, noise) pairs: each point alone as a one-point
        // batch, then the whole grid as one batch.
        let mut grid: Vec<Complex> = Vec::new();
        for i in -4i32..=4 {
            for q in -4i32..=4 {
                grid.push(Complex::new(i as f64 * 0.37, q as f64 * 0.29));
            }
        }
        grid.push(Complex::new(f64::NAN, 0.1));
        grid.push(Complex::new(f64::INFINITY, -1.0));
        grid.push(Complex::new(1e-300, -5e-324));
        let re: Vec<f64> = grid.iter().map(|p| p.re).collect();
        let im: Vec<f64> = grid.iter().map(|p| p.im).collect();
        for (csi, nv) in [(1.0, 0.1), (0.3, 1e-14), (0.0, 0.5)] {
            for i in 0..grid.len() {
                assert_batch_matches_direct(&re[i..=i], &im[i..=i], &[csi], nv);
            }
            assert_batch_matches_direct(&re, &im, &vec![csi; grid.len()], nv);
        }
    }

    #[test]
    fn demap_hard_nan_point_does_not_panic() {
        for m in [Bpsk, Qpsk, Qam16, Qam64] {
            let bits = demap_hard(m, Complex::new(f64::NAN, f64::NAN));
            assert_eq!(bits.len(), m.bits_per_subcarrier());
        }
    }

    #[test]
    fn block_mapping_length() {
        let bits: Vec<bool> = (0..96).map(|i| i % 2 == 0).collect();
        assert_eq!(map_block(Qpsk, &bits).len(), 48);
        assert_eq!(map_block(Qam16, &bits).len(), 24);
    }

    #[test]
    fn bpsk_points_are_real() {
        for (p, _) in constellation(Bpsk) {
            assert!(p.im.abs() < 1e-12);
        }
    }
}
