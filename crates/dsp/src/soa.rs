//! Structure-of-arrays (planar) complex kernels for the receive hot paths:
//! the 802.11 receiver's per-subcarrier equalizer ([`equalize_planar`]) and
//! the sliding cross-correlation body ([`xcorr_planar`]).
//!
//! The AoS `[Complex]` layout interleaves re/im in memory, which blocks the
//! autovectorizer on the inner loops of correlation and equalization. This
//! module holds the same arithmetic over *planar* `&[f64]` re/im slices,
//! where each output element is an independent elementwise expression the
//! compiler can vectorize freely. (Soft demapping needs no planar kernel:
//! every 802.11 constellation is separable, so `backfi-wifi` demaps with a
//! per-axis scan.)
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
// wrappers below re-instantiate the dispatched ones with AVX2 codegen.
// `#[inline(always)]` makes the body inline into each instantiation so the
// feature attribute actually reaches the loops.

#[inline(always)]
fn axpy_impl(cre: f64, cim: f64, xr: &[f64], xi: &[f64], yr: &mut [f64], yi: &mut [f64]) {
    for k in 0..yr.len() {
        // Mirrors `y[k] += c * x[k]` with `Complex::mul(self=c, rhs=x[k])`.
        yr[k] += cre * xr[k] - cim * xi[k];
        yi[k] += cre * xi[k] + cim * xr[k];
    }
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
