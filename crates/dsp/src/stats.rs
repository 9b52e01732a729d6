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

/// Peak instantaneous power of a block.
pub fn peak_power(x: &[Complex]) -> f64 {
    x.iter().map(|v| v.norm_sqr()).fold(0.0, f64::max)
}

/// Peak-to-average power ratio in dB. Returns 0 for empty/zero input.
pub fn papr_db(x: &[Complex]) -> f64 {
    let avg = mean_power(x);
    if avg == 0.0 {
        return 0.0;
    }
    db(peak_power(x) / avg)
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
        assert!(papr_db(&x).abs() < 1e-9);
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
}
