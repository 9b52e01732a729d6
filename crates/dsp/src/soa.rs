//! Structure-of-arrays (planar) complex kernels for the receive hot paths.
//!
//! The AoS `[Complex]` layout interleaves re/im in memory, which blocks the
//! autovectorizer on the inner loops of correlation and demapping. This
//! module holds the same arithmetic over *planar* `&[f64]` re/im slices,
//! where each output element is an independent elementwise expression the
//! compiler can vectorize freely.
//!
//! ## Bit-exactness contract
//!
//! Every kernel here evaluates, per output element, the *identical* sequence
//! of f64 operations as its AoS `_direct` counterpart (same products, same
//! add/sub order — see the per-function docs for the reference it mirrors).
//! Vectorization only batches independent elements, so results are
//! bit-identical to the direct forms on every backend, and
//! [`crate::correlate::xcorr`], which runs the planar body, cannot perturb
//! figure output.
//! The `_equiv` test suites pin this with `to_bits` comparisons, including
//! NaN/Inf/denormal lanes.
//!
//! One documented exemption: when an output element is NaN, its *sign and
//! payload bits* may differ between backends/opt-levels — Rust and LLVM
//! leave NaN bit patterns unspecified, so e.g. `a − b` may lower to
//! `a + (−b)` and flip which quiet NaN propagates. A NaN lane in one form is
//! always a NaN lane in the other, and NaN sign is unobservable downstream
//! (no `copysign`/`to_bits` on sample data; every comparison and every
//! formatter treats all NaNs alike), so figure output stays byte-identical.
//!
//! Backend selection (AVX2 vs baseline codegen) comes from
//! [`crate::simd::backend`]; `BACKFI_SIMD=off` or
//! [`crate::simd::force_scalar`] pins the baseline path.

use crate::simd::{backend, Backend};
use crate::Complex;

// ---------------------------------------------------------- AoS ↔ SoA ------

/// Split an AoS complex slice into freshly allocated planar re/im vectors.
pub fn split(x: &[Complex]) -> (Vec<f64>, Vec<f64>) {
    let mut re = Vec::with_capacity(x.len());
    let mut im = Vec::with_capacity(x.len());
    for v in x {
        re.push(v.re);
        im.push(v.im);
    }
    (re, im)
}

/// Merge planar re/im slices back into a freshly allocated AoS vector.
///
/// # Panics
/// Panics if the slice lengths differ.
pub fn merge(re: &[f64], im: &[f64]) -> Vec<Complex> {
    assert_eq!(re.len(), im.len(), "merge: length mismatch");
    re.iter()
        .zip(im)
        .map(|(&r, &i)| Complex::new(r, i))
        .collect()
}

// ------------------------------------------------------ elementwise bodies --
//
// Each `*_impl` is the single portable body; the `#[target_feature]`
// wrappers below re-instantiate the dispatched ones with AVX2 codegen. `#[inline(always)]` makes the
// body inline into each instantiation so the feature attribute actually
// reaches the loops.

#[inline(always)]
fn axpy_impl(cre: f64, cim: f64, xr: &[f64], xi: &[f64], yr: &mut [f64], yi: &mut [f64]) {
    for k in 0..yr.len() {
        // Mirrors `y[k] += c * x[k]` with `Complex::mul(self=c, rhs=x[k])`.
        yr[k] += cre * xr[k] - cim * xi[k];
        yi[k] += cre * xi[k] + cim * xr[k];
    }
}

// `dist_sqr_impl` and `masked_min2_impl` are the unfused demapper: the
// reference the fused `demap_mins` paths are checked against.

#[cfg(test)]
fn dist_sqr_impl(pre: f64, pim: f64, cre: &[f64], cim: &[f64], out: &mut [f64]) {
    for i in 0..out.len() {
        // Mirrors `(point - c[i]).norm_sqr()`.
        let dr = pre - cre[i];
        let di = pim - cim[i];
        out[i] = dr * dr + di * di;
    }
}

#[cfg(test)]
fn masked_min2_impl(dist: &[f64], labels: &[u8], bit: u32) -> (f64, f64) {
    let mut d0 = f64::INFINITY;
    let mut d1 = f64::INFINITY;
    for (d, &l) in dist.iter().zip(labels) {
        // Branchless form of "min into the side this label selects": the
        // non-selected side gets +∞, and `min(acc, +∞) == acc` because the
        // accumulators start at +∞ and `f64::min` never returns NaN from a
        // non-NaN operand. NaN distances lose the min on either side —
        // exactly like the branchy reference (`f64::min` ignores NaN).
        let is1 = (l >> bit) & 1 == 1;
        let m0 = if is1 { f64::INFINITY } else { *d };
        let m1 = if is1 { *d } else { f64::INFINITY };
        d0 = d0.min(m0);
        d1 = d1.min(m1);
    }
    (d0, d1)
}

/// Fused max-log demapper core: one pass over the constellation computing,
/// for every label bit `b < nbits`, the min squared distance over points with
/// bit `b` clear (`d0[b]`) and set (`d1[b]`). Same per-accumulator candidate
/// sequence as `dist_sqr_impl` followed by per-bit `masked_min2_impl`.
#[inline(always)]
fn demap_mins_impl(
    pre: f64,
    pim: f64,
    cre: &[f64],
    cim: &[f64],
    labels: &[u8],
    nbits: usize,
) -> ([f64; 6], [f64; 6]) {
    let mut d0 = [f64::INFINITY; 6];
    let mut d1 = [f64::INFINITY; 6];
    for i in 0..cre.len() {
        let dr = pre - cre[i];
        let di = pim - cim[i];
        let d = dr * dr + di * di;
        let l = labels[i];
        for (b, (a0, a1)) in d0.iter_mut().zip(d1.iter_mut()).enumerate().take(nbits) {
            let is1 = (l >> b) & 1 == 1;
            let m0 = if is1 { f64::INFINITY } else { d };
            let m1 = if is1 { d } else { f64::INFINITY };
            *a0 = a0.min(m0);
            *a1 = a1.min(m1);
        }
    }
    (d0, d1)
}

#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn equalize_impl(
    sr: &[f64],
    si: &[f64],
    hr: &[f64],
    hi: &[f64],
    dre: f64,
    dim: f64,
    or: &mut [f64],
    oi: &mut [f64],
    csi: &mut [f64],
) {
    for i in 0..or.len() {
        let hre = hr[i];
        let him = hi[i];
        // csi = h.norm_sqr()
        let d = hre * hre + him * him;
        csi[i] = d;
        // t = point * derot  (Complex::mul, self = point)
        let tre = sr[i] * dre - si[i] * dim;
        let tim = sr[i] * dim + si[i] * dre;
        if d > 1e-15 {
            // t / h = t * h.recip(), recip = (h.re/d, −h.im/d) with d
            // recomputed from norm_sqr — the same value as csi above.
            let rr = hre / d;
            let ri = (-him) / d;
            or[i] = tre * rr - tim * ri;
            oi[i] = tre * ri + tim * rr;
        } else {
            or[i] = 0.0;
            oi[i] = 0.0;
        }
    }
}

#[inline(always)]
fn xcorr_body_impl(xr: &[f64], xi: &[f64], tr: &[f64], ti: &[f64], yr: &mut [f64], yi: &mut [f64]) {
    let lags = yr.len();
    for i in 0..tr.len() {
        // c = conj(template[i]); per-lag accumulation stays in template
        // order, matching xcorr_direct's inner loop, while each pass runs
        // elementwise across all lags.
        axpy_impl(tr[i], -ti[i], &xr[i..i + lags], &xi[i..i + lags], yr, yi);
    }
}

// --------------------------------------------------- AVX2 instantiations ---

#[cfg(target_arch = "x86_64")]
mod avx2 {
    /// Hand-vectorized fused demapper: four constellation points per
    /// iteration with lane-split min accumulators. Value-identical to
    /// [`super::demap_mins_impl`] because squared distances are never `-0.0`
    /// (each is a sum of self-products), so the min reduction is
    /// reassociation-safe: NaN distances lose on every path, ties are between
    /// bit-identical values, and `vminpd(m, acc)` returns `acc` when `m` is
    /// NaN — exactly `f64::min(acc, m)` for never-NaN `acc`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn demap_mins(
        pre: f64,
        pim: f64,
        cre: &[f64],
        cim: &[f64],
        labels: &[u8],
        nbits: usize,
    ) -> ([f64; 6], [f64; 6]) {
        use std::arch::x86_64::*;
        debug_assert!(cre.len().is_multiple_of(4));
        let n = cre.len();
        let prev = _mm256_set1_pd(pre);
        let pimv = _mm256_set1_pd(pim);
        let infv = _mm256_set1_pd(f64::INFINITY);
        let mut acc0 = [infv; 6];
        let mut acc1 = [infv; 6];
        let mut i = 0usize;
        while i + 4 <= n {
            let cr = _mm256_loadu_pd(cre.as_ptr().add(i));
            let ci = _mm256_loadu_pd(cim.as_ptr().add(i));
            let dr = _mm256_sub_pd(prev, cr);
            let di = _mm256_sub_pd(pimv, ci);
            let d = _mm256_add_pd(_mm256_mul_pd(dr, dr), _mm256_mul_pd(di, di));
            let lv = _mm256_setr_epi64x(
                labels[i] as i64,
                labels[i + 1] as i64,
                labels[i + 2] as i64,
                labels[i + 3] as i64,
            );
            for b in 0..nbits {
                // All-ones where label bit `b` is CLEAR.
                let clear = _mm256_castsi256_pd(_mm256_cmpeq_epi64(
                    _mm256_and_si256(lv, _mm256_set1_epi64x(1i64 << b)),
                    _mm256_setzero_si256(),
                ));
                let m0 = _mm256_blendv_pd(infv, d, clear);
                let m1 = _mm256_blendv_pd(d, infv, clear);
                acc0[b] = _mm256_min_pd(m0, acc0[b]);
                acc1[b] = _mm256_min_pd(m1, acc1[b]);
            }
            i += 4;
        }
        let mut d0 = [f64::INFINITY; 6];
        let mut d1 = [f64::INFINITY; 6];
        let mut lanes = [0.0f64; 4];
        for b in 0..nbits {
            _mm256_storeu_pd(lanes.as_mut_ptr(), acc0[b]);
            d0[b] = lanes[0].min(lanes[1]).min(lanes[2]).min(lanes[3]);
            _mm256_storeu_pd(lanes.as_mut_ptr(), acc1[b]);
            d1[b] = lanes[0].min(lanes[1]).min(lanes[2]).min(lanes[3]);
        }
        (d0, d1)
    }
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn equalize(
        sr: &[f64],
        si: &[f64],
        hr: &[f64],
        hi: &[f64],
        dre: f64,
        dim: f64,
        or: &mut [f64],
        oi: &mut [f64],
        csi: &mut [f64],
    ) {
        super::equalize_impl(sr, si, hr, hi, dre, dim, or, oi, csi)
    }
    #[target_feature(enable = "avx2")]
    pub unsafe fn xcorr_body(
        xr: &[f64],
        xi: &[f64],
        tr: &[f64],
        ti: &[f64],
        yr: &mut [f64],
        yi: &mut [f64],
    ) {
        super::xcorr_body_impl(xr, xi, tr, ti, yr, yi)
    }
    /// Fused batch demapper over an identity-labeled constellation
    /// (`labels[v] = v`): per equalized point, min squared distance per label
    /// bit and side, then the scaled LLR `(d0 − d1) · csi/nv` written straight
    /// to `out`. Identity labels inside an aligned block of four consecutive
    /// points mean bit 0 follows the fixed lane pattern (0,1,0,1) and bit 1
    /// follows (0,0,1,1) — immediate blends, no label loads — while bits ≥ 2
    /// are constant across the block, so the block's distances feed exactly
    /// one accumulator chosen by a scalar bit test (the other side's
    /// candidates would all be `+inf`, the min identity). Value-identical to
    /// per-point [`demap_mins`] by the same argument documented there: each
    /// `(bit, side)` accumulator mins the same multiset of distances (never
    /// `-0.0`, NaN loses on every path), and min over such a multiset is
    /// order-independent.
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn demap_llrs_batch(
        eq_re: &[f64],
        eq_im: &[f64],
        csi: &[f64],
        nv: f64,
        cre: &[f64],
        cim: &[f64],
        nbits: usize,
        out: &mut [f64],
    ) {
        use std::arch::x86_64::*;
        let n = cre.len();
        debug_assert!(n.is_multiple_of(4) && n >= 8);
        let infv = _mm256_set1_pd(f64::INFINITY);
        for p in 0..eq_re.len() {
            let prev = _mm256_set1_pd(eq_re[p]);
            let pimv = _mm256_set1_pd(eq_im[p]);
            let mut acc0 = [infv; 6];
            let mut acc1 = [infv; 6];
            let mut i = 0usize;
            while i + 4 <= n {
                let cr = _mm256_loadu_pd(cre.as_ptr().add(i));
                let ci = _mm256_loadu_pd(cim.as_ptr().add(i));
                let dr = _mm256_sub_pd(prev, cr);
                let di = _mm256_sub_pd(pimv, ci);
                let d = _mm256_add_pd(_mm256_mul_pd(dr, dr), _mm256_mul_pd(di, di));
                // Labels i..i+3 with i % 4 == 0: bit 0 is set on lanes 1,3
                // and bit 1 on lanes 2,3.
                acc0[0] = _mm256_min_pd(_mm256_blend_pd(d, infv, 0b1010), acc0[0]);
                acc1[0] = _mm256_min_pd(_mm256_blend_pd(infv, d, 0b1010), acc1[0]);
                if nbits >= 2 {
                    acc0[1] = _mm256_min_pd(_mm256_blend_pd(d, infv, 0b1100), acc0[1]);
                    acc1[1] = _mm256_min_pd(_mm256_blend_pd(infv, d, 0b1100), acc1[1]);
                }
                for b in 2..nbits {
                    // Bit `b` of labels i..i+3 equals bit `b` of `i` for the
                    // whole block (i % 4 == 0, lane offset < 4).
                    if (i >> b) & 1 == 0 {
                        acc0[b] = _mm256_min_pd(d, acc0[b]);
                    } else {
                        acc1[b] = _mm256_min_pd(d, acc1[b]);
                    }
                }
                i += 4;
            }
            let scale = csi[p] / nv;
            let mut lanes = [0.0f64; 4];
            for b in 0..nbits {
                _mm256_storeu_pd(lanes.as_mut_ptr(), acc0[b]);
                let d0 = lanes[0].min(lanes[1]).min(lanes[2]).min(lanes[3]);
                _mm256_storeu_pd(lanes.as_mut_ptr(), acc1[b]);
                let d1 = lanes[0].min(lanes[1]).min(lanes[2]).min(lanes[3]);
                out[p * nbits + b] = (d0 - d1) * scale;
            }
        }
    }
}

#[inline]
fn use_avx2() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        backend() == Backend::Avx2
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = backend();
        false
    }
}

// ------------------------------------------------------- public dispatch ---

/// Fused max-log demapper: per label bit `b < nbits`, the minimum squared
/// distance from `point` to the constellation points with bit `b` clear
/// (`.0[b]`) and set (`.1[b]`). One pass over the constellation — equivalent
/// to a squared-distance scan followed by a per-bit masked min, and
/// bit-identical to it: squared distances are non-negative, `+inf`, or NaN
/// (never `-0.0`), so the min reduction order cannot change the result and
/// the lane-split AVX2 path (taken for lane-multiple constellations of ≥ 8
/// points) matches the scalar sequence bitwise.
///
/// # Panics
/// Panics if slice lengths differ or `nbits > 6`.
pub fn demap_mins(
    point: Complex,
    cre: &[f64],
    cim: &[f64],
    labels: &[u8],
    nbits: usize,
) -> ([f64; 6], [f64; 6]) {
    assert!(
        cre.len() == cim.len() && cre.len() == labels.len(),
        "demap_mins: length mismatch"
    );
    assert!(nbits <= 6, "demap_mins: at most 6 bits per symbol");
    #[cfg(target_arch = "x86_64")]
    if use_avx2() && cre.len().is_multiple_of(4) && cre.len() >= 8 {
        // SAFETY: AVX2 presence established by runtime detection.
        return unsafe { avx2::demap_mins(point.re, point.im, cre, cim, labels, nbits) };
    }
    demap_mins_impl(point.re, point.im, cre, cim, labels, nbits)
}

/// Fused batch demapper: max-log LLRs for a whole planar batch of equalized
/// points against one constellation, `out[p·nbits + b] = (d0 − d1) · scale`
/// with `scale = csi[p] / nv`. Labels must be the identity (`labels[v] = v`,
/// true for the cached constellation tables by construction) — that is what
/// lets the AVX2 path replace per-lane label mask arithmetic with immediate
/// blends (bits 0–1 have a fixed lane pattern inside every aligned block of
/// 4 consecutive labels) and whole-block accumulator selects (bits ≥ 2 are
/// constant across such a block). Non-identity labels, short
/// constellations, or `BACKFI_SIMD=off` fall back to the per-point
/// [`demap_mins`] scalar sequence.
///
/// Value-identical to per-point [`demap_mins`] + scale: each `(bit, side)`
/// min reduces the same multiset of squared distances, which are never
/// `-0.0` (sums of self-products), so the reduction order cannot change the
/// result; NaN distances lose on every path (`vminpd(d, acc)` returns `acc`
/// when `d` is NaN — exactly `f64::min(acc, d)` for never-NaN `acc`).
///
/// # Panics
/// Panics if planar slice lengths differ or `nbits > 6`.
#[allow(clippy::too_many_arguments)]
pub fn demap_llrs_batch(
    eq_re: &[f64],
    eq_im: &[f64],
    csi: &[f64],
    nv: f64,
    cre: &[f64],
    cim: &[f64],
    labels: &[u8],
    nbits: usize,
    out: &mut Vec<f64>,
) {
    assert!(
        eq_re.len() == eq_im.len() && eq_re.len() == csi.len(),
        "demap_llrs_batch: point length mismatch"
    );
    assert!(
        cre.len() == cim.len() && cre.len() == labels.len(),
        "demap_llrs_batch: table length mismatch"
    );
    assert!(nbits <= 6, "demap_llrs_batch: at most 6 bits per symbol");
    let start = out.len();
    out.resize(start + eq_re.len() * nbits, 0.0);
    let dst = &mut out[start..];
    #[cfg(target_arch = "x86_64")]
    if use_avx2()
        && cre.len().is_multiple_of(4)
        && cre.len() >= 8
        && labels.iter().enumerate().all(|(v, &l)| l as usize == v)
    {
        // SAFETY: AVX2 presence established by runtime detection.
        unsafe { avx2::demap_llrs_batch(eq_re, eq_im, csi, nv, cre, cim, nbits, dst) };
        return;
    }
    for p in 0..eq_re.len() {
        let (d0, d1) = demap_mins_impl(eq_re[p], eq_im[p], cre, cim, labels, nbits);
        let scale = csi[p] / nv;
        for b in 0..nbits {
            dst[p * nbits + b] = (d0[b] - d1[b]) * scale;
        }
    }
}

/// Planar per-subcarrier equalization: for each `i`,
/// `csi[i] = |h[i]|²` and `out[i] = (sym[i] · derot) / h[i]` when
/// `csi[i] > 1e-15`, else zero — the exact expression sequence of the AoS
/// receiver loop (`Complex::mul` then `Complex::div` via `recip`).
///
/// # Panics
/// Panics if the slice lengths differ.
#[allow(clippy::too_many_arguments)]
pub fn equalize_planar(
    sym_re: &[f64],
    sym_im: &[f64],
    h_re: &[f64],
    h_im: &[f64],
    derot: Complex,
    out_re: &mut [f64],
    out_im: &mut [f64],
    csi: &mut [f64],
) {
    let n = out_re.len();
    assert!(
        sym_re.len() == n
            && sym_im.len() == n
            && h_re.len() == n
            && h_im.len() == n
            && out_im.len() == n
            && csi.len() == n,
        "equalize_planar: length mismatch"
    );
    #[cfg(target_arch = "x86_64")]
    if use_avx2() {
        // SAFETY: AVX2 presence established by runtime detection.
        return unsafe {
            avx2::equalize(
                sym_re, sym_im, h_re, h_im, derot.re, derot.im, out_re, out_im, csi,
            )
        };
    }
    equalize_impl(
        sym_re, sym_im, h_re, h_im, derot.re, derot.im, out_re, out_im, csi,
    )
}

/// Planar sliding cross-correlation (`x.len() − t.len() + 1` lags),
/// bit-identical to [`crate::correlate::xcorr_direct`]: per lag, the
/// template sum runs in template order; across lags the update is
/// elementwise.
///
/// # Panics
/// Panics if the template is empty or longer than the signal.
pub fn xcorr_planar(xr: &[f64], xi: &[f64], tr: &[f64], ti: &[f64]) -> (Vec<f64>, Vec<f64>) {
    assert!(!tr.is_empty(), "xcorr: empty template");
    assert!(tr.len() <= xr.len(), "xcorr: template longer than signal");
    assert!(
        xr.len() == xi.len() && tr.len() == ti.len(),
        "xcorr_planar: re/im length mismatch"
    );
    let lags = xr.len() - tr.len() + 1;
    let mut yr = vec![0.0; lags];
    let mut yi = vec![0.0; lags];
    #[cfg(target_arch = "x86_64")]
    if use_avx2() {
        // SAFETY: AVX2 presence established by runtime detection.
        unsafe { avx2::xcorr_body(xr, xi, tr, ti, &mut yr, &mut yi) };
        return (yr, yi);
    }
    xcorr_body_impl(xr, xi, tr, ti, &mut yr, &mut yi);
    (yr, yi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::noise::cgauss_vec;
    use crate::rng::SplitMix64;
    use crate::simd::force_scalar;

    /// Bitwise equality, except NaN==NaN regardless of sign/payload (Rust
    /// leaves NaN bits unspecified across codegen — see the module docs).
    fn f64_eq(a: f64, b: f64) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    fn assert_f64_eq(a: f64, b: f64, what: &str) {
        assert!(
            f64_eq(a, b),
            "{what}: {a:?} ({:#x}) vs {b:?} ({:#x})",
            a.to_bits(),
            b.to_bits()
        );
    }

    fn assert_bits_eq(a: &[Complex], b: &[Complex], what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: length");
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_f64_eq(x.re, y.re, &format!("{what}: re[{i}]"));
            assert_f64_eq(x.im, y.im, &format!("{what}: im[{i}]"));
        }
    }

    /// Seeded signal with NaN/Inf/denormal/zero lanes mixed in, at a length
    /// that is not a multiple of any SIMD lane width.
    fn hostile(seed: u64, n: usize) -> Vec<Complex> {
        let mut rng = SplitMix64::new(seed);
        let mut v = cgauss_vec(&mut rng, n, 1.0);
        if n >= 8 {
            v[1] = Complex::new(f64::NAN, 0.3);
            v[3] = Complex::new(f64::INFINITY, -1.0);
            v[4] = Complex::new(-2.0, f64::NEG_INFINITY);
            v[5] = Complex::new(5e-324, -5e-324); // denormal
            v[6] = Complex::ZERO;
            v[7] = Complex::new(-0.0, 0.0);
        }
        v
    }

    #[test]
    fn split_merge_roundtrip() {
        let x = hostile(10, 13);
        let (re, im) = split(&x);
        assert_bits_eq(&merge(&re, &im), &x, "roundtrip");
    }

    #[test]
    fn axpy_impl_hostile_scalar_equiv() {
        // The xcorr body accumulates through `axpy_impl`.
        for n in [1usize, 5, 16, 37] {
            let a = hostile(30 + n as u64, n);
            let acc0 = hostile(50 + n as u64, n);
            let (ar, ai) = split(&a);
            let c = Complex::new(0.75, f64::MIN_POSITIVE);
            let (mut yr, mut yi) = split(&acc0);
            axpy_impl(c.re, c.im, &ar, &ai, &mut yr, &mut yi);
            let want: Vec<Complex> = acc0.iter().zip(&a).map(|(y, x)| *y + c * *x).collect();
            assert_bits_eq(&merge(&yr, &yi), &want, "axpy");
        }
    }

    #[test]
    fn dist_and_min2_equiv() {
        let pts = hostile(60, 9);
        let (cre, cim) = split(&pts);
        let labels: Vec<u8> = (0..9u8).collect();
        let point = Complex::new(0.4, -1.2);
        let mut dist = vec![0.0; 9];
        dist_sqr_impl(point.re, point.im, &cre, &cim, &mut dist);
        for (i, d) in dist.iter().enumerate() {
            assert_f64_eq(*d, (point - pts[i]).norm_sqr(), &format!("dist[{i}]"));
        }
        for bit in 0..4u32 {
            let (d0, d1) = masked_min2_impl(&dist, &labels, bit);
            // branchy reference
            let mut r0 = f64::INFINITY;
            let mut r1 = f64::INFINITY;
            for (i, d) in dist.iter().enumerate() {
                if (labels[i] >> bit) & 1 == 1 {
                    r1 = r1.min(*d);
                } else {
                    r0 = r0.min(*d);
                }
            }
            assert_f64_eq(d0, r0, &format!("bit {bit} d0"));
            assert_f64_eq(d1, r1, &format!("bit {bit} d1"));
        }
    }

    #[test]
    fn demap_mins_equiv() {
        // Constellation sizes exercising both the lane-multiple AVX2 path
        // (16, 64) and the scalar path (2, 4, 9); hostile constellation
        // entries and points so distances include NaN/+inf lanes.
        for (n, nbits) in [(2usize, 1usize), (4, 2), (9, 4), (16, 4), (64, 6)] {
            let pts = hostile(61 + n as u64, n);
            let (cre, cim) = split(&pts);
            let labels: Vec<u8> = (0..n as u8).collect();
            for point in [
                Complex::new(0.4, -1.2),
                Complex::new(f64::NAN, 0.0),
                Complex::new(f64::INFINITY, -2.0),
            ] {
                let (d0, d1) = demap_mins(point, &cre, &cim, &labels, nbits);
                // Reference: unfused dist scan then per-bit masked min.
                let mut dist = vec![0.0; n];
                dist_sqr_impl(point.re, point.im, &cre, &cim, &mut dist);
                for bit in 0..nbits {
                    let (r0, r1) = masked_min2_impl(&dist, &labels, bit as u32);
                    assert_f64_eq(d0[bit], r0, &format!("n {n} bit {bit} d0"));
                    assert_f64_eq(d1[bit], r1, &format!("n {n} bit {bit} d1"));
                }
                // Fused scalar body matches the dispatcher output bitwise.
                let (s0, s1) = demap_mins_impl(point.re, point.im, &cre, &cim, &labels, nbits);
                for bit in 0..nbits {
                    assert_f64_eq(d0[bit], s0[bit], &format!("n {n} bit {bit} scalar d0"));
                    assert_f64_eq(d1[bit], s1[bit], &format!("n {n} bit {bit} scalar d1"));
                }
            }
        }
    }

    #[test]
    fn equalize_equiv() {
        let sym = hostile(70, 11);
        let mut h = hostile(80, 11);
        h[2] = Complex::new(1e-9, -1e-9); // tiny but above the floor
        h[9] = Complex::ZERO; // below the csi floor -> zero output
        let derot = Complex::exp_j(-0.37);
        let (sr, si) = split(&sym);
        let (hr, hi) = split(&h);
        let mut or = vec![0.0; 11];
        let mut oi = vec![0.0; 11];
        let mut csi = vec![0.0; 11];
        equalize_planar(&sr, &si, &hr, &hi, derot, &mut or, &mut oi, &mut csi);
        for i in 0..11 {
            let want_csi = h[i].norm_sqr();
            let want = if want_csi > 1e-15 {
                (sym[i] * derot) / h[i]
            } else {
                Complex::ZERO
            };
            assert_f64_eq(csi[i], want_csi, &format!("csi[{i}]"));
            assert_f64_eq(or[i], want.re, &format!("eq re[{i}]"));
            assert_f64_eq(oi[i], want.im, &format!("eq im[{i}]"));
        }
    }

    #[test]
    fn convolve_filter_xcorr_equiv_direct() {
        // The `fir` dispatchers run with hostile taps (the scalar fallback)
        // and finite taps (the gather kernel) next to the planar xcorr.
        use crate::correlate::{xcorr, xcorr_direct};
        use crate::fir::{convolve, convolve_direct, filter, filter_direct, ConvMode};
        for (n, m) in [(9usize, 3usize), (50, 7), (129, 31), (300, 28)] {
            let x = hostile(100 + n as u64, n);
            let hostile_h = hostile(200 + m as u64, m);
            let finite_h = cgauss_vec(&mut SplitMix64::new(250 + m as u64), m, 1.0);
            for h in [&hostile_h, &finite_h] {
                assert_bits_eq(
                    &convolve(&x, h, ConvMode::Full),
                    &convolve_direct(&x, h, ConvMode::Full),
                    "convolve",
                );
                assert_bits_eq(&filter(h, &x), &filter_direct(h, &x), "filter");
            }
            assert_bits_eq(
                &xcorr(&x, &hostile_h),
                &xcorr_direct(&x, &hostile_h),
                "xcorr",
            );
        }
    }

    #[test]
    fn forced_scalar_matches_native_bitwise() {
        use crate::correlate::xcorr;
        use crate::fir::{convolve, ConvMode};
        let x = hostile(300, 257);
        let h = hostile(301, 29);
        let finite_h = cgauss_vec(&mut SplitMix64::new(302), 29, 1.0);
        let native = convolve(&x, &finite_h, ConvMode::Full);
        let native_x = xcorr(&x, &h);
        force_scalar(true);
        let scalar = convolve(&x, &finite_h, ConvMode::Full);
        let scalar_x = xcorr(&x, &h);
        force_scalar(false);
        assert_bits_eq(&native, &scalar, "convolve scalar-vs-native");
        assert_bits_eq(&native_x, &scalar_x, "xcorr scalar-vs-native");
    }
}
