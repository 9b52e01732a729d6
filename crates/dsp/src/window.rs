//! Window functions.
//!
//! Used for spectral estimates in the tests and benches.

use std::f64::consts::PI;

/// Rectangular window (all ones).
pub fn rectangular(n: usize) -> Vec<f64> {
    vec![1.0; n]
}

/// Hann window.
pub fn hann(n: usize) -> Vec<f64> {
    periodic(n, |x| 0.5 - 0.5 * (2.0 * PI * x).cos())
}

/// Hamming window.
pub fn hamming(n: usize) -> Vec<f64> {
    periodic(n, |x| 0.54 - 0.46 * (2.0 * PI * x).cos())
}

fn periodic(n: usize, f: impl Fn(f64) -> f64) -> Vec<f64> {
    if n == 0 {
        return Vec::new();
    }
    if n == 1 {
        return vec![1.0];
    }
    (0..n).map(|i| f(i as f64 / (n as f64 - 1.0))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lengths_and_edges() {
        for n in [1usize, 2, 16, 64] {
            for w in [hann(n), hamming(n), rectangular(n)] {
                assert_eq!(w.len(), n);
                assert!(w.iter().all(|v| (-1e-12..=1.0 + 1e-12).contains(v)));
            }
        }
        // Hann endpoints are zero, peak is one (odd length)
        let w = hann(65);
        assert!(w[0].abs() < 1e-12 && w[64].abs() < 1e-12);
        assert!((w[32] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn symmetry() {
        for w in [hann(33), hamming(33)] {
            for i in 0..w.len() {
                assert!((w[i] - w[w.len() - 1 - i]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn empty_and_single() {
        assert!(hann(0).is_empty());
        assert_eq!(hann(1), vec![1.0]);
    }
}
