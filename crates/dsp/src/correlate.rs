//! Correlation and peak-search primitives used for synchronization.
//!
//! Three consumers in the workspace:
//! * the tag's 16-bit wake-up preamble correlator (§4.1 of the paper),
//! * the reader's tag-preamble timing search (§4.3.1),
//! * the WiFi receiver's STF/LTF packet detection and symbol timing.

use crate::Complex;

/// Sliding cross-correlation of `x` against a shorter `template`:
/// `r[k] = Σ_i x[k+i]·conj(template[i])` for every full-overlap lag
/// (`x.len() − template.len() + 1` outputs).
///
/// Runs on planar re/im copies of both inputs, one `axpy` pass per
/// template sample across all lags: per lag, the template sum still runs in
/// template order, so each output is bit-identical to the lag-by-lag
/// reference loop the tests keep (`xcorr_direct`), while each pass is an
/// elementwise loop the compiler vectorizes. Its one production caller is
/// the WiFi client's LTF search (a 64-sample template over at most a few
/// hundred lags).
///
/// # Panics
/// Panics if `template` is empty or longer than `x`.
pub fn xcorr(x: &[Complex], template: &[Complex]) -> Vec<Complex> {
    assert!(!template.is_empty(), "xcorr: empty template");
    assert!(
        template.len() <= x.len(),
        "xcorr: template longer than signal"
    );
    let (xr, xi) = split(x);
    let (tr, ti) = split(template);
    let lags = x.len() - template.len() + 1;
    let mut yr = vec![0.0; lags];
    let mut yi = vec![0.0; lags];
    for i in 0..template.len() {
        // c = conj(template[i]); per-lag accumulation stays in template
        // order, matching the reference loop, while each pass runs
        // elementwise across all lags.
        axpy(
            tr[i],
            -ti[i],
            &xr[i..i + lags],
            &xi[i..i + lags],
            &mut yr,
            &mut yi,
        );
    }
    merge(&yr, &yi)
}

/// Split an AoS complex slice into freshly allocated planar re/im vectors.
fn split(x: &[Complex]) -> (Vec<f64>, Vec<f64>) {
    x.iter().map(|v| (v.re, v.im)).unzip()
}

/// Merge planar re/im slices of equal length into an AoS vector.
fn merge(re: &[f64], im: &[f64]) -> Vec<Complex> {
    re.iter()
        .zip(im)
        .map(|(&r, &i)| Complex::new(r, i))
        .collect()
}

/// `y[k] += c·x[k]` over planar slices, with `c = cre + j·cim`: the same
/// products and the same add/sub order as `Complex::mul(c, x[k])` followed
/// by `+=`, so every element is bit-identical to the AoS expression.
fn axpy(cre: f64, cim: f64, xr: &[f64], xi: &[f64], yr: &mut [f64], yi: &mut [f64]) {
    for k in 0..yr.len() {
        yr[k] += cre * xr[k] - cim * xi[k];
        yi[k] += cre * xi[k] + cim * xr[k];
    }
}

/// Normalized sliding cross-correlation: magnitude of [`xcorr`] divided by
/// the local energy of both windows, yielding values in `[0, 1]`.
///
/// A value near 1 at lag `k` means the signal window starting at `k` is a
/// scaled copy of the template — robust to unknown channel gain, which is why
/// the reader uses it to find the tag preamble.
pub fn xcorr_normalized(x: &[Complex], template: &[Complex]) -> Vec<f64> {
    let raw = xcorr(x, template);
    let temp_energy: f64 = template.iter().map(|v| v.norm_sqr()).sum();
    let mut out = Vec::with_capacity(raw.len());
    // running window energy of x
    let m = template.len();
    let mut win_energy: f64 = x[..m].iter().map(|v| v.norm_sqr()).sum();
    for (k, r) in raw.iter().enumerate() {
        let denom = (temp_energy * win_energy).sqrt();
        out.push(if denom > 0.0 { r.abs() / denom } else { 0.0 });
        if k + m < x.len() {
            win_energy += x[k + m].norm_sqr() - x[k].norm_sqr();
            if win_energy < 0.0 {
                win_energy = 0.0;
            }
        }
    }
    out
}

/// Lag-`d` autocorrelation metric used for 802.11 packet detection
/// (Schmidl–Cox style): `p[k] = Σ_{i<w} x[k+i]·conj(x[k+i+d])`, plus the
/// corresponding window energy `e[k] = Σ_{i<w} |x[k+i+d]|²`.
///
/// Returns `(p, e)` with `x.len() − d − w + 1` entries each.
///
/// # Panics
/// Panics if `x.len() < d + w`.
pub fn autocorr_metric(x: &[Complex], d: usize, w: usize) -> (Vec<Complex>, Vec<f64>) {
    assert!(x.len() >= d + w, "autocorr_metric: signal too short");
    let n = x.len() - d - w + 1;
    let mut p = Vec::with_capacity(n);
    let mut e = Vec::with_capacity(n);
    // initial window
    let mut acc = Complex::ZERO;
    let mut energy = 0.0;
    for i in 0..w {
        acc += x[i] * x[i + d].conj();
        energy += x[i + d].norm_sqr();
    }
    p.push(acc);
    e.push(energy);
    for k in 1..n {
        let out_i = k - 1;
        let in_i = k + w - 1;
        acc += x[in_i] * x[in_i + d].conj() - x[out_i] * x[out_i + d].conj();
        energy += x[in_i + d].norm_sqr() - x[out_i + d].norm_sqr();
        p.push(acc);
        e.push(energy.max(0.0));
    }
    (p, e)
}

/// Index and value of the maximum of a real-valued sequence.
/// Returns `None` for an empty slice; NaNs are skipped.
pub fn peak(x: &[f64]) -> Option<(usize, f64)> {
    let mut best: Option<(usize, f64)> = None;
    for (i, &v) in x.iter().enumerate() {
        if v.is_nan() {
            continue;
        }
        match best {
            Some((_, b)) if v <= b => {}
            _ => best = Some((i, v)),
        }
    }
    best
}

/// Binary correlation of a ±1 bit sequence against a received bit window,
/// as done by the tag's digital preamble matcher: counts agreements minus
/// disagreements. Output range is `[-len, +len]`.
///
/// # Panics
/// Panics if lengths differ.
pub fn bit_correlation(rx: &[bool], pattern: &[bool]) -> i32 {
    assert_eq!(rx.len(), pattern.len(), "bit_correlation: length mismatch");
    rx.iter()
        .zip(pattern)
        .map(|(a, b)| if a == b { 1 } else { -1 })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fir::{convolve, convolve_direct, filter, filter_direct};
    use crate::noise::cgauss_vec;
    use crate::rng::SplitMix64;
    use crate::simd::testing::{assert_bits, on_detected_backend, on_forced_scalar, SIZES};

    /// The lag-by-lag AoS loop of [`xcorr`]: the reference oracle.
    fn xcorr_direct(x: &[Complex], template: &[Complex]) -> Vec<Complex> {
        assert!(!template.is_empty(), "xcorr: empty template");
        assert!(
            template.len() <= x.len(),
            "xcorr: template longer than signal"
        );
        let lags = x.len() - template.len() + 1;
        let mut out = Vec::with_capacity(lags);
        for k in 0..lags {
            let mut acc = Complex::ZERO;
            for (i, &t) in template.iter().enumerate() {
                acc += x[k + i] * t.conj();
            }
            out.push(acc);
        }
        out
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

    fn label(what: &'static str) -> impl Fn() -> String {
        move || what.to_string()
    }

    #[test]
    fn xcorr_matches_direct() {
        on_detected_backend(|| {
            let mut rng = SplitMix64::new(0x5C);
            for &(n, m) in SIZES {
                if m > n {
                    continue;
                }
                let x = cgauss_vec(&mut rng, n, 1.0);
                let t = cgauss_vec(&mut rng, m, 1.0);
                assert_bits(&xcorr(&x, &t), &xcorr_direct(&x, &t), &|| {
                    format!("xcorr {n}x{m}")
                });
            }
        });
    }

    #[test]
    fn split_merge_roundtrip() {
        let x = hostile(10, 13);
        let (re, im) = split(&x);
        assert_bits(&merge(&re, &im), &x, &label("roundtrip"));
    }

    #[test]
    fn axpy_hostile_equiv() {
        // The xcorr body accumulates through `axpy`.
        for n in [1usize, 5, 16, 37] {
            let a = hostile(30 + n as u64, n);
            let acc0 = hostile(50 + n as u64, n);
            let (ar, ai) = split(&a);
            let c = Complex::new(0.75, f64::MIN_POSITIVE);
            let (mut yr, mut yi) = split(&acc0);
            axpy(c.re, c.im, &ar, &ai, &mut yr, &mut yi);
            let want: Vec<Complex> = acc0.iter().zip(&a).map(|(y, x)| *y + c * *x).collect();
            assert_bits(&merge(&yr, &yi), &want, &label("axpy"));
        }
    }

    #[test]
    fn convolve_filter_xcorr_equiv_direct() {
        // The `fir` dispatchers run with hostile taps (the scalar fallback)
        // and finite taps (the gather kernel) next to the planar xcorr, all
        // on hostile signals.
        on_detected_backend(|| {
            for (n, m) in [(9usize, 3usize), (50, 7), (129, 31), (300, 28)] {
                let x = hostile(100 + n as u64, n);
                let hostile_h = hostile(200 + m as u64, m);
                let finite_h = cgauss_vec(&mut SplitMix64::new(250 + m as u64), m, 1.0);
                for h in [&hostile_h, &finite_h] {
                    assert_bits(
                        &convolve(&x, h),
                        &convolve_direct(&x, h),
                        &label("convolve"),
                    );
                    assert_bits(&filter(h, &x), &filter_direct(h, &x), &label("filter"));
                }
                assert_bits(
                    &xcorr(&x, &hostile_h),
                    &xcorr_direct(&x, &hostile_h),
                    &label("xcorr"),
                );
            }
        });
    }

    #[test]
    fn forced_scalar_matches_native_bitwise() {
        let x = hostile(300, 257);
        let h = hostile(301, 29);
        let finite_h = cgauss_vec(&mut SplitMix64::new(302), 29, 1.0);
        let (native, native_x) = on_detected_backend(|| (convolve(&x, &finite_h), xcorr(&x, &h)));
        let (scalar, scalar_x) = on_forced_scalar(|| (convolve(&x, &finite_h), xcorr(&x, &h)));
        assert_bits(&native, &scalar, &label("convolve scalar-vs-native"));
        assert_bits(&native_x, &scalar_x, &label("xcorr scalar-vs-native"));
    }

    #[test]
    fn xcorr_finds_embedded_template() {
        let template: Vec<Complex> = (0..8).map(|i| Complex::exp_j(i as f64 * 1.3)).collect();
        let mut x = vec![Complex::ZERO; 50];
        let offset = 17;
        for (i, &t) in template.iter().enumerate() {
            x[offset + i] = t * Complex::from_polar(2.0, 0.7); // unknown gain+phase
        }
        let r = xcorr_normalized(&x, &template);
        let (idx, val) = peak(&r).unwrap();
        assert_eq!(idx, offset);
        assert!(val > 0.999);
    }

    #[test]
    fn xcorr_raw_peak_value() {
        let t = vec![Complex::ONE; 4];
        let mut x = vec![Complex::ZERO; 10];
        x[3..7].fill(Complex::ONE);
        let r = xcorr(&x, &t);
        assert!((r[3] - Complex::real(4.0)).abs() < 1e-12);
    }

    #[test]
    fn normalized_bounded_by_one() {
        let t: Vec<Complex> = (0..5).map(|i| Complex::new(i as f64, 1.0)).collect();
        let x: Vec<Complex> = (0..40)
            .map(|i| Complex::new((i as f64 * 0.7).sin(), (i as f64 * 0.3).cos()))
            .collect();
        for v in xcorr_normalized(&x, &t) {
            assert!((0.0..=1.0 + 1e-9).contains(&v));
        }
    }

    #[test]
    fn autocorr_detects_repetition() {
        // Signal with period-16 repetition for 64 samples then noise-free zeros
        let base: Vec<Complex> = (0..16).map(|i| Complex::exp_j(i as f64)).collect();
        let mut x = Vec::new();
        for _ in 0..4 {
            x.extend_from_slice(&base);
        }
        x.extend(std::iter::repeat_n(Complex::ZERO, 32));
        let (p, e) = autocorr_metric(&x, 16, 16);
        // at k=0 the window and its d-shift are identical -> |p| == e
        assert!((p[0].abs() - e[0]).abs() < 1e-9);
        assert!(e[0] > 1.0);
    }

    #[test]
    fn peak_and_threshold_helpers() {
        let v = [0.1, 0.5, f64::NAN, 0.9, 0.2];
        assert_eq!(peak(&v), Some((3, 0.9)));
        assert_eq!(peak(&[]), None);
    }

    #[test]
    fn bit_correlation_extremes() {
        let p = [true, false, true, true];
        assert_eq!(bit_correlation(&p, &p), 4);
        let inv: Vec<bool> = p.iter().map(|b| !b).collect();
        assert_eq!(bit_correlation(&inv, &p), -4);
    }
}
