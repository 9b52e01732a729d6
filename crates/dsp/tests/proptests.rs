//! Randomized property tests over the DSP primitives.
//!
//! Formerly `proptest`-based; now driven by the in-tree [`SplitMix64`]
//! generator so the suite builds offline and every case is reproducible from
//! its loop index.

use backfi_dsp::fft::{fft, fftshift, ifft, ifftshift};
use backfi_dsp::fir::{convolve, filter, ConvMode};
use backfi_dsp::rng::SplitMix64;
use backfi_dsp::stats::{db, mean_power, undb};
use backfi_dsp::Complex;

const CASES: u64 = 64;

fn uniform(rng: &mut SplitMix64, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * rng.next_f64()
}

fn complex_vec(rng: &mut SplitMix64, len: usize) -> Vec<Complex> {
    (0..len)
        .map(|_| Complex::new(uniform(rng, -1e3, 1e3), uniform(rng, -1e3, 1e3)))
        .collect()
}

fn pow2_sized(rng: &mut SplitMix64) -> Vec<Complex> {
    let bits = 1 + rng.below(7) as u32; // 2..=128 samples
    complex_vec(rng, 1 << bits)
}

#[test]
fn complex_field_properties() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0x01_0000 + case);
        let a = Complex::new(uniform(&mut rng, -1e6, 1e6), uniform(&mut rng, -1e6, 1e6));
        let b = Complex::new(uniform(&mut rng, -1e3, 1e3), uniform(&mut rng, -1e3, 1e3));
        // commutativity
        assert!(((a + b) - (b + a)).abs() < 1e-9);
        assert!(((a * b) - (b * a)).abs() < 1e-6 * (1.0 + (a * b).abs()));
        // conjugate distributes over multiplication
        let lhs = (a * b).conj();
        let rhs = a.conj() * b.conj();
        assert!((lhs - rhs).abs() < 1e-6 * (1.0 + lhs.abs()));
        // |ab| = |a||b|
        assert!(((a * b).abs() - a.abs() * b.abs()).abs() < 1e-6 * (1.0 + a.abs() * b.abs()));
    }
}

#[test]
fn division_inverts_multiplication() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0x02_0000 + case);
        let re = uniform(&mut rng, -1e3, 1e3);
        let im = uniform(&mut rng, -1e3, 1e3);
        if re.abs() + im.abs() <= 1e-6 {
            continue;
        }
        let a = Complex::new(re, im);
        let b = Complex::new(2.5, -1.25);
        assert!(((b * a) / a - b).abs() < 1e-9);
    }
}

#[test]
fn fft_roundtrip() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0x03_0000 + case);
        let x = pow2_sized(&mut rng);
        let y = ifft(&fft(&x));
        for (a, b) in x.iter().zip(&y) {
            assert!((*a - *b).abs() < 1e-6 * (1.0 + a.abs()));
        }
    }
}

#[test]
fn parseval_holds() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0x04_0000 + case);
        let x = pow2_sized(&mut rng);
        let n = x.len() as f64;
        let time_e: f64 = x.iter().map(|v| v.norm_sqr()).sum();
        let freq_e: f64 = fft(&x).iter().map(|v| v.norm_sqr()).sum::<f64>() / n;
        assert!((time_e - freq_e).abs() < 1e-6 * (1.0 + time_e));
    }
}

#[test]
fn fftshift_roundtrip() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0x05_0000 + case);
        let len = 1 + rng.below(63) as usize;
        let x = complex_vec(&mut rng, len);
        let back = ifftshift(&fftshift(&x));
        assert_eq!(back, x);
    }
}

#[test]
fn convolution_commutes() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0x06_0000 + case);
        let n_a = 1 + rng.below(23) as usize;
        let a = complex_vec(&mut rng, n_a);
        let n_b = 1 + rng.below(23) as usize;
        let b = complex_vec(&mut rng, n_b);
        let ab = convolve(&a, &b, ConvMode::Full);
        let ba = convolve(&b, &a, ConvMode::Full);
        for (x, y) in ab.iter().zip(&ba) {
            assert!((*x - *y).abs() < 1e-6 * (1.0 + x.abs()));
        }
    }
}

#[test]
fn filter_is_linear() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0x07_0000 + case);
        let n_x = 8 + rng.below(56) as usize;
        let x = complex_vec(&mut rng, n_x);
        let n_h = 1 + rng.below(7) as usize;
        let h = complex_vec(&mut rng, n_h);
        let k = uniform(&mut rng, -5.0, 5.0);
        let scaled: Vec<Complex> = x.iter().map(|v| v.scale(k)).collect();
        let y1: Vec<Complex> = filter(&h, &x).iter().map(|v| v.scale(k)).collect();
        let y2 = filter(&h, &scaled);
        for (a, b) in y1.iter().zip(&y2) {
            assert!((*a - *b).abs() < 1e-5 * (1.0 + a.abs()));
        }
    }
}

#[test]
fn db_undb_roundtrip() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0x08_0000 + case);
        // Log-uniform over 1e-12..1e12.
        let v = 10f64.powf(uniform(&mut rng, -12.0, 12.0));
        let r = undb(db(v));
        assert!((r / v - 1.0).abs() < 1e-9);
    }
}

#[test]
fn mean_power_scales_quadratically() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0x09_0000 + case);
        let n_x = 1 + rng.below(63) as usize;
        let x = complex_vec(&mut rng, n_x);
        let k = uniform(&mut rng, 0.1, 10.0);
        let p1 = mean_power(&x);
        let scaled: Vec<Complex> = x.iter().map(|v| v.scale(k)).collect();
        let p2 = mean_power(&scaled);
        assert!((p2 - k * k * p1).abs() < 1e-6 * (1.0 + p2));
    }
}

#[test]
fn quantile_is_monotone() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0x0B_0000 + case);
        let len = 1 + rng.below(49) as usize;
        let mut v: Vec<f64> = (0..len).map(|_| uniform(&mut rng, -1e6, 1e6)).collect();
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let q1 = rng.next_f64();
        let q2 = rng.next_f64();
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        let a = backfi_dsp::stats::quantile(&v, lo);
        let b = backfi_dsp::stats::quantile(&v, hi);
        assert!(a <= b + 1e-9);
    }
}
