//! Power, SNR, and EVM measurement plus dB conversions.
//!
//! The evaluation section of the paper reports everything in dB/dBm, so these
//! helpers are used by every experiment harness. Powers follow the usual
//! baseband convention: the power of a sample block is its mean squared
//! magnitude, and 0 dBm corresponds to power `1.0` in simulator units (the
//! link budget in `backfi-chan` sets absolute scale).

use crate::Complex;

/// Linear power ratio → decibels. Returns `-inf` for zero, NaN for negatives.
#[inline]
pub fn db(lin: f64) -> f64 {
    10.0 * lin.log10()
}

/// Decibels → linear power ratio.
#[inline]
pub fn undb(db: f64) -> f64 {
    10f64.powf(db / 10.0)
}

/// Mean power (mean squared magnitude) of a sample block.
/// Returns 0 for an empty block.
pub fn mean_power(x: &[Complex]) -> f64 {
    if x.is_empty() {
        return 0.0;
    }
    x.iter().map(|v| v.norm_sqr()).sum::<f64>() / x.len() as f64
}

/// MRC inner products `(Σ y[i]·conj(r[i]), Σ |r[i]|²)` in one pass, each sum
/// folded in index order: the combiner's numerator and reference energy,
/// and the canceller estimator's cross-correlation vector.
///
/// # Panics
/// Panics if the slices differ in length.
pub fn dot_conj_energy(y: &[Complex], r: &[Complex]) -> (Complex, f64) {
    assert_eq!(y.len(), r.len(), "dot_conj_energy: length mismatch");
    let mut num = Complex::ZERO;
    let mut den = 0.0;
    for (a, b) in y.iter().zip(r) {
        num += *a * b.conj();
        den += b.norm_sqr();
    }
    (num, den)
}

/// Root-mean-square magnitude.
pub fn rms(x: &[Complex]) -> f64 {
    mean_power(x).sqrt()
}

/// Signal-to-noise ratio (dB) given separate signal and error blocks:
/// `10·log10(P_signal / P_error)`.
pub fn snr_db(signal: &[Complex], error: &[Complex]) -> f64 {
    db(mean_power(signal) / mean_power(error))
}

/// Error-vector-magnitude (%) of received constellation points against their
/// ideal decisions: `100 · sqrt(P_err / P_ref)`.
///
/// # Panics
/// Panics if slices differ in length or are empty.
pub fn evm_percent(rx: &[Complex], ideal: &[Complex]) -> f64 {
    assert_eq!(rx.len(), ideal.len(), "evm: length mismatch");
    assert!(!rx.is_empty(), "evm: empty input");
    let perr: f64 = rx
        .iter()
        .zip(ideal)
        .map(|(a, b)| (*a - *b).norm_sqr())
        .sum();
    let pref: f64 = ideal.iter().map(|v| v.norm_sqr()).sum();
    100.0 * (perr / pref).sqrt()
}

/// Estimate SNR (dB) from EVM-style decision-directed statistics: given
/// received PSK symbols and their sliced ideal values, SNR ≈ P_ref / P_err.
pub fn snr_from_decisions_db(rx: &[Complex], ideal: &[Complex]) -> f64 {
    assert_eq!(rx.len(), ideal.len());
    let perr: f64 = rx
        .iter()
        .zip(ideal)
        .map(|(a, b)| (*a - *b).norm_sqr())
        .sum();
    let pref: f64 = ideal.iter().map(|v| v.norm_sqr()).sum();
    db(pref / perr)
}

/// Arithmetic mean of a real slice (0 for empty).
pub fn mean(x: &[f64]) -> f64 {
    if x.is_empty() {
        0.0
    } else {
        x.iter().sum::<f64>() / x.len() as f64
    }
}

/// Population variance of a real slice (0 for empty).
pub fn variance(x: &[f64]) -> f64 {
    if x.is_empty() {
        return 0.0;
    }
    let m = mean(x);
    x.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / x.len() as f64
}

/// Median of a real slice (NaN for empty). Sorts a copy; NaNs order last
/// (`total_cmp`), so a NaN-bearing slice yields a defined (if NaN-tainted)
/// result instead of panicking.
pub fn median(x: &[f64]) -> f64 {
    if x.is_empty() {
        return f64::NAN;
    }
    let mut v = x.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// The `q`-quantile (0 ≤ q ≤ 1) with linear interpolation, NaN for empty.
pub fn quantile(x: &[f64], q: f64) -> f64 {
    if x.is_empty() {
        return f64::NAN;
    }
    let mut v = x.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        v[lo]
    } else {
        let frac = pos - lo as f64;
        v[lo] * (1.0 - frac) + v[hi] * frac
    }
}

/// An empirical CDF over a set of real observations.
///
/// Used by the Fig. 12a / Fig. 13a harnesses, which report throughput CDFs.
#[derive(Clone, Debug)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Build from observations (NaNs are dropped).
    pub fn new(mut samples: Vec<f64>) -> Self {
        samples.retain(|v| !v.is_nan());
        samples.sort_by(f64::total_cmp);
        Ecdf { sorted: samples }
    }

    /// Number of retained observations.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True when no observations were retained.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Inverse CDF (quantile) with linear interpolation.
    pub fn quantile(&self, q: f64) -> f64 {
        quantile(&self.sorted, q)
    }

    /// Iterate `(value, cumulative_probability)` points for plotting.
    pub fn points(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        let n = self.sorted.len() as f64;
        self.sorted
            .iter()
            .enumerate()
            .map(move |(i, &v)| (v, (i + 1) as f64 / n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn db_roundtrip() {
        for &v in &[1e-9, 1.0, 3.5, 1e6] {
            assert!((undb(db(v)) - v).abs() / v < 1e-12);
        }
        assert!((db(10.0) - 10.0).abs() < 1e-12);
        assert!((db(100.0) - 20.0).abs() < 1e-12);
    }

    #[test]
    fn power_of_unit_phasors() {
        let x: Vec<Complex> = (0..100).map(|i| Complex::exp_j(i as f64)).collect();
        assert!((mean_power(&x) - 1.0).abs() < 1e-12);
        // Constant envelope: a 0 dB peak-to-average power ratio.
        let peak = x.iter().map(|v| v.norm_sqr()).fold(0.0, f64::max);
        assert!(db(peak / mean_power(&x)).abs() < 1e-9);
    }

    #[test]
    fn snr_known_ratio() {
        let s = vec![Complex::real(1.0); 64];
        let e = vec![Complex::real(0.1); 64];
        assert!((snr_db(&s, &e) - 20.0).abs() < 1e-9);
    }

    #[test]
    fn evm_zero_for_perfect() {
        let pts: Vec<Complex> = (0..16).map(|i| Complex::exp_j(i as f64)).collect();
        assert!(evm_percent(&pts, &pts) < 1e-12);
    }

    #[test]
    fn evm_known_error() {
        let ideal = vec![Complex::ONE; 10];
        let rx: Vec<Complex> = ideal.iter().map(|v| *v + Complex::new(0.1, 0.0)).collect();
        assert!((evm_percent(&rx, &ideal) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn median_and_quantile() {
        let v = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert!((median(&v) - 3.0).abs() < 1e-12);
        assert!((quantile(&v, 0.0) - 1.0).abs() < 1e-12);
        assert!((quantile(&v, 1.0) - 5.0).abs() < 1e-12);
        assert!((quantile(&v, 0.5) - 3.0).abs() < 1e-12);
        let even = [1.0, 2.0, 3.0, 4.0];
        assert!((median(&even) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn variance_known() {
        let v = [1.0, 1.0, 1.0];
        assert!(variance(&v).abs() < 1e-12);
        let w = [0.0, 2.0];
        assert!((variance(&w) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ecdf_basics() {
        let e = Ecdf::new(vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(e.len(), 4);
        assert!((e.quantile(0.5) - 2.5).abs() < 1e-12);
        let pts: Vec<_> = e.points().collect();
        assert_eq!(pts.len(), 4);
        assert!((pts[3].1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ecdf_drops_nan() {
        let e = Ecdf::new(vec![f64::NAN, 1.0]);
        assert_eq!(e.len(), 1);
    }

    #[test]
    fn dot_conj_energy_folds_in_order_and_propagates_nan_inf() {
        let y = [Complex::new(1.0, -2.0), Complex::new(0.5, 0.25)];
        let r = [Complex::new(0.5, 0.25), Complex::new(-1.0, 3.0)];
        let (num, den) = dot_conj_energy(&y, &r);
        assert_eq!(num, y[0] * r[0].conj() + y[1] * r[1].conj());
        assert_eq!(den, r[0].norm_sqr() + r[1].norm_sqr());
        assert_eq!(dot_conj_energy(&[], &[]), (Complex::ZERO, 0.0));
        // NaN/Inf lanes flow through without panicking.
        let mut y = vec![Complex::new(1.0, -2.0); 9];
        let mut r = vec![Complex::new(0.5, 0.25); 9];
        y[3] = Complex::new(f64::NAN, 0.0);
        r[7] = Complex::new(f64::INFINITY, 1.0);
        let (num, den) = dot_conj_energy(&y, &r);
        assert!(num.re.is_nan() && den.is_infinite());
    }
}
