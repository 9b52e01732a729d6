//! Bitwise equivalence suite for the direct-form kernels.
//!
//! The public entry points `fir::convolve`, `fir::filter` (with
//! `filter_into` and `filter_extend`) and `correlate::xcorr` each have one
//! direct form, with an AVX2 body and a scalar body. Over a grid of signal
//! and kernel lengths, and over every kernel length with hostile inputs,
//! both must equal the scalar oracles (`convolve_direct`, `filter_direct`,
//! `xcorr_direct`) bit for bit, NaN sign and payload excepted (see
//! [`same_bits`]). Equality with a deterministic oracle also pins each
//! kernel's determinism.

use backfi_dsp::correlate::{xcorr, xcorr_direct};
use backfi_dsp::fir::{
    convolve, convolve_direct, filter, filter_direct, filter_extend, filter_into, ConvMode,
};
use backfi_dsp::noise::cgauss_vec;
use backfi_dsp::rng::SplitMix64;
use backfi_dsp::simd::force_scalar;
use backfi_dsp::Complex;
use std::sync::Mutex;

/// Signal/kernel length grid: link-sized and long kernels, power-of-two and
/// odd lengths, equal lengths, and a kernel nearly as long as the signal.
const SIZES: &[(usize, usize)] = &[
    (256, 8),
    (512, 47),
    (2048, 48),
    (4096, 48),
    (3000, 64),
    (8192, 256),
    (300, 300),
    (1024, 1000),
    (20_000, 32), // a headline-length signal through the longest link FIR
];

#[test]
fn convolve_matches_direct_in_all_modes() {
    let mut rng = SplitMix64::new(0xC0);
    for &(n, m) in SIZES {
        let x = cgauss_vec(&mut rng, n, 1.0);
        let h = cgauss_vec(&mut rng, m, 1.0);
        for mode in [ConvMode::Full, ConvMode::Same, ConvMode::Valid] {
            assert_bits(
                &convolve(&x, &h, mode),
                &convolve_direct(&x, &h, mode),
                &|| format!("convolve {n}x{m} {mode:?}"),
            );
        }
    }
}

#[test]
fn filter_matches_direct() {
    let mut rng = SplitMix64::new(0xF1);
    for &(n, m) in SIZES {
        let x = cgauss_vec(&mut rng, n, 1.0);
        let h = cgauss_vec(&mut rng, m, 1.0);
        assert_bits(&filter(&h, &x), &filter_direct(&h, &x), &|| {
            format!("filter {n}x{m}")
        });
    }
}

#[test]
fn xcorr_matches_direct() {
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
}

/// Serializes the two backend passes of the bitwise sweep: the scalar pass
/// flips the process-wide [`force_scalar`] switch, which must not leak into
/// the detected-backend pass.
static BACKEND: Mutex<()> = Mutex::new(());

/// `x` of length `n` with every input the zero-skip argument cares about:
/// leading silence (with `-0.0` components), an interior zero run, signed
/// zeros inside nonzero samples, subnormals, and NaN and ±∞ samples late
/// enough that most outputs stay finite.
fn hostile_signal(rng: &mut SplitMix64, n: usize, m: usize) -> Vec<Complex> {
    let mut x = cgauss_vec(rng, n, 1.0);
    let zeros = [
        Complex::ZERO,
        Complex::new(-0.0, 0.0),
        Complex::new(0.0, -0.0),
        Complex::new(-0.0, -0.0),
    ];
    for (i, v) in x.iter_mut().take(n / 4 + 1).enumerate() {
        *v = zeros[i % 4];
    }
    let run = n / 2..(n / 2 + m + 3).min(n);
    for (i, v) in x[run].iter_mut().enumerate() {
        *v = zeros[(i + 1) % 4];
    }
    let specials = [
        Complex::new(-0.0, 0.75),
        Complex::new(1.25, -0.0),
        Complex::new(5e-324, -1e-310),
        Complex::new(f64::NAN, 0.5),
        Complex::new(f64::INFINITY, -1.0),
        Complex::new(0.25, f64::NEG_INFINITY),
    ];
    let at = [
        n / 3,
        n / 3 + 1,
        2 * n / 3,
        n.saturating_sub(4),
        n.saturating_sub(3),
        n.saturating_sub(2),
    ];
    for (&i, &v) in at.iter().zip(&specials) {
        if i < n {
            x[i] = v;
        }
    }
    x
}

/// Bitwise equality, except that two NaNs match whatever their sign and
/// payload: LLVM may commute an `a + b` whose operands are both NaN, so not
/// even the scalar oracle pins which NaN propagates (the exemption in
/// `soa`'s module docs). A NaN lane in one form is a NaN lane in the other.
fn same_bits(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

fn assert_bits(got: &[Complex], want: &[Complex], what: &dyn Fn() -> String) {
    assert_eq!(got.len(), want.len(), "{}: length", what());
    for (i, (a, b)) in got.iter().zip(want).enumerate() {
        assert!(
            same_bits(a.re, b.re) && same_bits(a.im, b.im),
            "{} sample {i}: {a:?} vs {b:?} ({:#x}, {:#x}) vs ({:#x}, {:#x})",
            what(),
            a.re.to_bits(),
            a.im.to_bits(),
            b.re.to_bits(),
            b.im.to_bits()
        );
    }
}

/// Tap counts of the six link FIRs of a headline trial (2, 24, 2, 16, 28
/// and 3 taps).
const LINK_TAPS: [usize; 5] = [2, 3, 16, 24, 28];

/// The headline trial's sample count.
const LONG: usize = 82_900;

/// Every kernel length up to 47 taps against the signal lengths
/// around the gather kernel's head, body and tail boundaries, with taps that
/// take the gather kernel (finite, with exact `0` and `-0.0` taps) and taps
/// that must fall back to the scalar loop (one NaN tap, one ∞ tap).
/// `filter`, `filter_into` on a dirty reused buffer, `filter_extend` over
/// extending prefixes, and `convolve` in all three modes must equal the
/// scalar oracles bit for bit. At the headline
/// length, where the debug-build gather kernel is slow, kernel lengths
/// outside [`LINK_TAPS`] check `filter_into` with finite taps only; the
/// kernel is shift-invariant, so the shorter shapes cover the rest.
fn direct_forms_match_oracles_bitwise() {
    let mut rng = SplitMix64::new(0xAE);
    let mut reused = vec![Complex::new(f64::NAN, 7.0); 100];
    for m in 1..=47usize {
        let q = m / 8 + 4;
        let mut lens = vec![0, 1, 8 * q - 1, 8 * q, 8 * q + 1, LONG];
        lens.extend(m.saturating_sub(2)..=m + 9);
        if [8, 9, 16, 24, 32, 47].contains(&m) {
            lens.push(6000);
        }
        let mut h = cgauss_vec(&mut rng, m, 1.0);
        for (k, t) in h.iter_mut().enumerate() {
            match k % 5 {
                1 => *t = Complex::ZERO,
                3 => *t = Complex::new(-0.0, if k % 2 == 0 { -0.0 } else { 0.5 }),
                _ => {}
            }
        }
        let mut nan_h = h.clone();
        nan_h[m / 2] = Complex::new(0.5, f64::NAN);
        let mut inf_h = h.clone();
        inf_h[m - 1] = Complex::new(f64::INFINITY, 0.25);
        for n in lens {
            let x = hostile_signal(&mut rng, n, m);
            let what = |op: &str, kind: &str| format!("{op} m {m} n {n} {kind} taps");
            if n == LONG && !LINK_TAPS.contains(&m) {
                filter_into(&h, &x, &mut reused);
                assert_bits(&reused, &filter_direct(&h, &x), &|| {
                    what("filter_into", "finite")
                });
                continue;
            }
            for (kind, h) in [("finite", &h), ("nan", &nan_h), ("inf", &inf_h)] {
                let want = filter_direct(h, &x);
                assert_bits(&filter(h, &x), &want, &|| what("filter", kind));
                filter_into(h, &x, &mut reused);
                assert_bits(&reused, &want, &|| what("filter_into", kind));
                // Extending prefixes, cut inside the head, at its end, in
                // the body and at the end.
                let mut grown = Vec::new();
                for cut in [m / 2, m - 1, m + 4, n / 2 + 1, n] {
                    filter_extend(h, &x, cut.min(n), &mut grown);
                }
                assert_bits(&grown, &want, &|| what("filter_extend", kind));
                if n == 0 {
                    continue;
                }
                for mode in [ConvMode::Full, ConvMode::Same, ConvMode::Valid] {
                    assert_bits(
                        &convolve(&x, h, mode),
                        &convolve_direct(&x, h, mode),
                        &|| what(&format!("convolve {mode:?}"), kind),
                    );
                }
            }
        }
    }
}

#[test]
fn direct_forms_are_bit_identical_to_oracles_on_detected_backend() {
    let _pass = BACKEND.lock().unwrap_or_else(|e| e.into_inner());
    direct_forms_match_oracles_bitwise();
}

#[test]
fn direct_forms_are_bit_identical_to_oracles_under_forced_scalar() {
    let _pass = BACKEND.lock().unwrap_or_else(|e| e.into_inner());
    struct Restore;
    impl Drop for Restore {
        fn drop(&mut self) {
            force_scalar(false);
        }
    }
    let _restore = Restore;
    force_scalar(true);
    direct_forms_match_oracles_bitwise();
}
