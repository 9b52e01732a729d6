//! Old-vs-new equivalence for the Toeplitz-structured normal-equation build.
//!
//! `estimate_fir` / `estimate_fir_masked` now assemble the Gram matrix from
//! per-lag prefix sums in O(N·taps); the `_direct` forms keep the original
//! O(N·taps²) triple loop. Over ≥20 seeds the solved taps must agree to
//! better than 1e-9 relative (per-element, relative to the largest tap).

use backfi_dsp::fir::filter;
use backfi_dsp::noise::{add_noise, cgauss_vec};
use backfi_dsp::rng::SplitMix64;
use backfi_dsp::Complex;
use backfi_sic::estimator::{
    estimate_fir, estimate_fir_direct, estimate_fir_masked, estimate_fir_masked_direct,
};

fn assert_taps_equiv(new: &[Complex], old: &[Complex], what: &str) {
    assert_eq!(new.len(), old.len(), "{what}: tap count mismatch");
    let scale = old
        .iter()
        .map(|t| t.abs())
        .fold(0.0f64, f64::max)
        .max(1e-300);
    for (i, (a, b)) in new.iter().zip(old).enumerate() {
        let err = (*a - *b).abs() / scale;
        assert!(err < 1e-9, "{what}: tap {i} relative error {err:e}");
    }
}

/// A deterministic per-seed scenario: random channel, noisy observation.
fn scenario(seed: u64, n: usize, true_taps: usize) -> (Vec<Complex>, Vec<Complex>) {
    let mut rng = SplitMix64::new(seed);
    let x = cgauss_vec(&mut rng, n, 1.0);
    let h = cgauss_vec(&mut rng, true_taps, 0.3);
    let mut y = filter(&h, &x);
    add_noise(&mut rng, &mut y, 1e-4);
    (x, y)
}

#[test]
fn estimate_fir_matches_direct_over_seeds() {
    for seed in 1..=25u64 {
        // Vary problem size with the seed so the suite covers short/long
        // windows and small/large tap counts.
        let n = 400 + (seed as usize % 5) * 700;
        let taps = 2 + (seed as usize % 4) * 9; // 2, 11, 20, 29
        let (x, y) = scenario(seed, n, 3);
        let new = estimate_fir(&x, &y, taps, 1e-8).expect("fast estimate failed");
        let old = estimate_fir_direct(&x, &y, taps, 1e-8).expect("direct estimate failed");
        assert_taps_equiv(&new, &old, &format!("seed {seed} n={n} taps={taps}"));
    }
}

#[test]
fn estimate_fir_masked_matches_direct_over_seeds() {
    for seed in 1..=25u64 {
        let n = 600 + (seed as usize % 4) * 500;
        let taps = 2 + (seed as usize % 3) * 3; // 2, 5, 8
        let (x, y) = scenario(seed.wrapping_mul(31).wrapping_add(7), n, 2);
        // Chip-transition-style mask: drop the first taps−1 samples of every
        // 20-sample chip, like the reader's h_fb estimation window.
        let mask: Vec<bool> = (0..n).map(|i| i % 20 >= taps - 1).collect();
        let new = estimate_fir_masked(&x, &y, taps, 1e-8, &mask).expect("fast masked failed");
        let old =
            estimate_fir_masked_direct(&x, &y, taps, 1e-8, &mask).expect("direct masked failed");
        assert_taps_equiv(&new, &old, &format!("masked seed {seed} n={n} taps={taps}"));
    }
}

#[test]
fn masked_with_sparse_irregular_mask_matches_direct() {
    // Irregular runs (not chip-periodic) exercise the run-collapsing logic.
    let (x, y) = scenario(99, 2000, 3);
    let mask: Vec<bool> = (0..2000)
        .map(|i| !(i * 2654435761usize).is_multiple_of(7) && !(500..530).contains(&i))
        .collect();
    let new = estimate_fir_masked(&x, &y, 6, 1e-8, &mask).unwrap();
    let old = estimate_fir_masked_direct(&x, &y, 6, 1e-8, &mask).unwrap();
    assert_taps_equiv(&new, &old, "irregular mask");
}

#[test]
fn fast_and_direct_agree_on_none_cases() {
    let x = vec![Complex::ONE; 10];
    let y = vec![Complex::ONE; 10];
    assert!(estimate_fir(&x, &y, 8, 1e-6).is_none());
    assert!(estimate_fir_direct(&x, &y, 8, 1e-6).is_none());
    let mask = vec![false; 10];
    assert!(estimate_fir_masked(&x, &y, 2, 1e-6, &mask).is_none());
    assert!(estimate_fir_masked_direct(&x, &y, 2, 1e-6, &mask).is_none());
}

#[test]
fn b_vector_kernel_is_bitwise_the_scalar_loop() {
    // The single-run cross-correlation vector is `stats::dot_conj_energy`,
    // which folds in observation order; complex multiplication commutes
    // bitwise, so `Σ y[i]·conj(x[i])` must equal the historical
    // `Σ conj(x[i])·y[i]` loop bit-for-bit — the pipeline's 320-sample
    // silent window takes this path.
    for seed in 1..=20u64 {
        let (x, y) = scenario(seed, 300, 3);
        for j in 0..8usize {
            let lo = 7; // taps − 1 for an 8-tap estimate
            let window_y = &y[lo..];
            let window_x = &x[lo - j..x.len() - j];
            let kernel = backfi_dsp::stats::dot_conj_energy(window_y, window_x).0;
            let mut scalar = Complex::ZERO;
            for i in lo..x.len() {
                scalar += x[i - j].conj() * y[i];
            }
            assert_eq!(
                kernel.re.to_bits(),
                scalar.re.to_bits(),
                "seed {seed} lag {j}: re differs"
            );
            assert_eq!(
                kernel.im.to_bits(),
                scalar.im.to_bits(),
                "seed {seed} lag {j}: im differs"
            );
        }
    }
}

#[test]
fn non_finite_observations_yield_none_not_nan_taps() {
    // The `solve` guard: a NaN in the observation window must surface as an
    // estimation failure instead of silently poisoning the canceller taps.
    let (x, mut y) = scenario(7, 800, 3);
    y[400] = Complex::new(f64::NAN, 0.0);
    assert!(estimate_fir(&x, &y, 4, 1e-8).is_none());
    let mut x_bad = x;
    x_bad[10] = Complex::new(f64::INFINITY, 1.0);
    let y_ok = vec![Complex::ONE; 800];
    assert!(estimate_fir(&x_bad, &y_ok, 4, 1e-8).is_none());
}
