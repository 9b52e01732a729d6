//! Correlation and peak-search primitives used for synchronization.
//!
//! Three consumers in the workspace:
//! * the tag's 16-bit wake-up preamble correlator (§4.1 of the paper),
//! * the reader's tag-preamble timing search (§4.3.1),
//! * the WiFi receiver's STF/LTF packet detection and symbol timing.

use crate::Complex;

/// Below this signal×template product [`xcorr`] runs the AoS direct loop
/// (the planar form pays two O(n) layout conversions); at or above it the
/// planar [`crate::soa::xcorr_soa`]. The two are bit-identical, so this is
/// purely a performance knob.
const XCORR_PLANAR_MIN_PRODUCT: usize = 4096;

/// Sliding cross-correlation of `x` against a shorter `template`:
/// `r[k] = Σ_i x[k+i]·conj(template[i])` for every full-overlap lag
/// (`x.len() − template.len() + 1` outputs).
///
/// Long templates (the reader's 640-sample tag-preamble search is the hot
/// case) dispatch to the overlap-save FFT path in [`crate::fastconv`] under
/// the same size crossover as [`crate::fir::convolve`]; short ones use the
/// direct form.
///
/// # Panics
/// Panics if `template` is empty or longer than `x`.
pub fn xcorr(x: &[Complex], template: &[Complex]) -> Vec<Complex> {
    assert!(!template.is_empty(), "xcorr: empty template");
    assert!(
        template.len() <= x.len(),
        "xcorr: template longer than signal"
    );
    if template.len() >= crate::fir::FFT_MIN_KERNEL
        && x.len().saturating_mul(template.len()) >= crate::fir::FFT_MIN_PRODUCT
    {
        crate::fastconv::xcorr_fft(x, template)
    } else if x.len().saturating_mul(template.len()) >= XCORR_PLANAR_MIN_PRODUCT {
        // Bit-identical to xcorr_direct, vectorized planar form.
        crate::soa::xcorr_soa(x, template)
    } else {
        xcorr_direct(x, template)
    }
}

/// The direct O(n·m) form of [`xcorr`], bypassing the size dispatch.
/// Reference implementation for the equivalence tests and benches.
///
/// # Panics
/// Panics if `template` is empty or longer than `x`.
pub fn xcorr_direct(x: &[Complex], template: &[Complex]) -> Vec<Complex> {
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
