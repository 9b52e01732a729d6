//! Regularized least-squares FIR channel estimation.
//!
//! Given a known input `x` and an observation `y ≈ x ∗ h + w`, estimate the
//! `taps`-long impulse response `h`. Used twice in the reader:
//!
//! 1. during the tag's silent period, with `x` = the clean transmitted WiFi
//!    samples, to estimate the residual self-interference channel;
//! 2. during the tag's preamble, with `x` = (transmitted WiFi × known PN
//!    chips), to estimate the combined forward∗backward channel `h_f ∗ h_b`
//!    (§4.3.1 — "this becomes a standard channel estimation problem").
//!
//! Solved via the ridge-regularized normal equations
//! `(XᴴX + λI) h = Xᴴ y`, built directly from correlations so no large
//! convolution matrix is materialized.

use crate::linalg::{solve, CMat};
use backfi_dsp::Complex;

/// Build the ridge-free normal equations `A`, `b` over the observation-index
/// `runs` (half-open, every index `i` satisfying `i ≥ taps−1`), plus the
/// total input power and observation count over those runs.
///
/// The Gram matrix is near-Toeplitz: `A[j][k] = Σ_i conj(x[i−j])·x[i−k]`
/// depends on the lag `ℓ = k−j` except for which window of the lag product
/// `g_ℓ[m] = conj(x[m])·x[m−ℓ]` is summed. So instead of the direct
/// O(N·taps²) triple loop, we compute one prefix-sum sequence of `g_ℓ` per
/// lag — O(N·taps) total — and read every `A[j][j+ℓ]` off it as an exact
/// windowed difference (the "edge corrections" per entry are the two prefix
/// lookups per run). The input-power sum falls out of the lag-0 diagonal for
/// free, so no separate mean-power pass is needed.
/// Fill `prefix[k][m+1]` for `m ∈ [lag0+k, n)` with the sequential lag-product
/// prefix sums `Σ conj(x[m])·x[m−(lag0+k)]` for `G` consecutive lags, plus
/// zeros below each lag's start. One fused pass runs the `G` chains
/// interleaved: each chain is a serial float-add dependency (4–5 cycles per
/// sample on its own), so overlapping independent chains recovers ~`G`× of
/// throughput. The **per-lag addition order — the bit-pinned quantity that
/// the canceller taps, and through them the figure tables, depend on — is
/// unchanged**: lane `k` performs exactly the adds of the old
/// one-lag-at-a-time loop, in the same order, against its own accumulator.
fn lag_prefix_group<const G: usize>(x: &[Complex], lag0: usize, prefix: &mut [Vec<Complex>]) {
    let n = x.len();
    let lmax = (lag0 + G - 1).min(n);
    let mut acc = [Complex::ZERO; G];
    // Ragged heads: lanes with smaller lags start earlier; the prefix is
    // zero at and below each lane's lag.
    for k in 0..G {
        let lag = lag0 + k;
        for v in prefix[k].iter_mut().take(lag.min(n) + 1) {
            *v = Complex::ZERO;
        }
        for m in lag..lmax {
            acc[k] += x[m].conj() * x[m - lag];
            prefix[k][m + 1] = acc[k];
        }
    }
    // Steady state: all G chains advance together.
    for m in lmax..n {
        for k in 0..G {
            acc[k] += x[m].conj() * x[m - (lag0 + k)];
            prefix[k][m + 1] = acc[k];
        }
    }
}

fn normal_equations(
    x: &[Complex],
    y: &[Complex],
    taps: usize,
    runs: &[(usize, usize)],
) -> (CMat, Vec<Complex>, f64, usize) {
    let n = x.len();
    let mut a = CMat::zeros(taps, taps);
    let mut b = vec![Complex::ZERO; taps];

    // Gram matrix from per-lag prefix sums, four lag chains per pass.
    let mut prefix: Vec<Vec<Complex>> = (0..4.min(taps))
        .map(|_| vec![Complex::ZERO; n + 1])
        .collect();
    let mut lag0 = 0usize;
    while lag0 < taps {
        let group = (taps - lag0).min(4);
        match group {
            4 => lag_prefix_group::<4>(x, lag0, &mut prefix),
            3 => lag_prefix_group::<3>(x, lag0, &mut prefix),
            2 => lag_prefix_group::<2>(x, lag0, &mut prefix),
            _ => lag_prefix_group::<1>(x, lag0, &mut prefix),
        }
        for (lane, pref) in prefix.iter().enumerate().take(group) {
            let lag = lag0 + lane;
            for j in 0..taps - lag {
                let k = j + lag;
                // Observation i sums g_lag[i−j]; run [lo, hi) maps to the
                // prefix window [lo−j, hi−j) (lo ≥ taps−1 ≥ j keeps it
                // valid).
                let mut acc = Complex::ZERO;
                for &(lo, hi) in runs {
                    acc += pref[hi - j] - pref[lo - j];
                }
                a[(j, k)] = acc;
                if lag != 0 {
                    a[(k, j)] = acc.conj();
                }
            }
        }
        lag0 += group;
    }

    // Cross-correlation vector, O(obs·taps) — already the lower bound.
    //
    // Single-run case (unmasked estimation, e.g. the canceller's silent
    // window): each b[j] is one contiguous conjugate dot product, so route
    // it through the SIMD reduction kernel. Bitwise identity with the
    // scalar loop holds because complex multiplication commutes bitwise
    // (`y·conj(x) == conj(x)·y`) and the kernel folds in observation order
    // below `SIMD_MIN_REDUCE` — pipeline-sized windows never leave the
    // bit-exact path (pinned by the `_equiv` tests). Multi-run masked
    // estimation keeps the per-run nested fold: splitting each b[j] into
    // per-run kernel calls would regroup the FP additions across runs.
    if let [(lo, hi)] = *runs {
        for (j, bj) in b.iter_mut().enumerate() {
            *bj = backfi_dsp::simd::dot_conj_energy_auto(&y[lo..hi], &x[lo - j..hi - j]).0;
        }
    } else {
        for (j, bj) in b.iter_mut().enumerate() {
            let mut acc = Complex::ZERO;
            for &(lo, hi) in runs {
                for i in lo..hi {
                    acc += x[i - j].conj() * y[i];
                }
            }
            *bj = acc;
        }
    }

    // conj(x)·x has exactly zero imaginary part, so the lag-0 diagonal
    // entry IS the input-power sum over the observation window.
    let power_sum = a[(0, 0)].re;
    let count = runs.iter().map(|&(lo, hi)| hi - lo).sum();
    (a, b, power_sum, count)
}

/// Estimate a `taps`-long FIR `h` from input `x` and output `y` (same
/// indexing: `y[n] = Σ_k h[k]·x[n−k]`). Only output samples `n ≥ taps−1`
/// (full history available) contribute.
///
/// `ridge` is the regularization λ relative to the average input power
/// (1e−6…1e−3 typical; guards against ill-conditioning when `x` has little
/// energy in some delay bins).
///
/// The normal equations are built in O(N·taps) by exploiting their
/// near-Toeplitz structure (see [`estimate_fir_direct`] for the reference
/// O(N·taps²) form, equivalent within float rounding).
///
/// Returns `None` when the system is singular even after regularization or
/// there are fewer observations than taps.
pub fn estimate_fir(x: &[Complex], y: &[Complex], taps: usize, ridge: f64) -> Option<Vec<Complex>> {
    assert_eq!(x.len(), y.len(), "estimate_fir: length mismatch");
    assert!(taps >= 1, "estimate_fir: need at least one tap");
    let _t = backfi_obs::span("sic.ls.estimate_fir");
    let n = x.len();
    if n < taps * 2 {
        return None;
    }
    let (mut a, b, power_sum, _) = normal_equations(x, y, taps, &[(taps - 1, n)]);
    a.add_diag(ridge * power_sum);
    solve(&a, &b)
}

/// The direct O(N·taps²) normal-equation build behind [`estimate_fir`],
/// bypassing the Toeplitz fast path. Reference implementation for the
/// equivalence tests and the before/after kernel benches.
///
/// # Panics
/// Panics on length mismatch or `taps == 0`.
pub fn estimate_fir_direct(
    x: &[Complex],
    y: &[Complex],
    taps: usize,
    ridge: f64,
) -> Option<Vec<Complex>> {
    assert_eq!(x.len(), y.len(), "estimate_fir: length mismatch");
    assert!(taps >= 1, "estimate_fir: need at least one tap");
    let n = x.len();
    if n < taps * 2 {
        return None;
    }

    // Normal equations: A[j][k] = Σ_n conj(x[n−j])·x[n−k],
    //                   b[j]    = Σ_n conj(x[n−j])·y[n],  n from taps−1.
    let mut a = CMat::zeros(taps, taps);
    let mut b = vec![Complex::ZERO; taps];
    let mut mean_power = 0.0;
    for xv in x.iter().take(n).skip(taps - 1) {
        mean_power += xv.norm_sqr();
    }
    mean_power /= (n - taps + 1) as f64;

    for j in 0..taps {
        for k in j..taps {
            let mut acc = Complex::ZERO;
            for n_i in taps - 1..n {
                acc += x[n_i - j].conj() * x[n_i - k];
            }
            a[(j, k)] = acc;
            if k != j {
                a[(k, j)] = acc.conj();
            }
        }
        let mut acc = Complex::ZERO;
        for n_i in taps - 1..n {
            acc += x[n_i - j].conj() * y[n_i];
        }
        b[j] = acc;
    }
    a.add_diag(ridge * mean_power * (n - taps + 1) as f64);
    solve(&a, &b)
}

/// Masked variant of [`estimate_fir`]: only output indices `n` with
/// `mask[n] == true` contribute observations.
///
/// The reader uses this for the forward∗backward channel (§4.3.1): the model
/// `y = (x·c) ∗ h_fb` is exact only when the whole length-`taps` history of a
/// sample lies inside one PN chip, so samples spanning a chip transition are
/// masked out.
pub fn estimate_fir_masked(
    x: &[Complex],
    y: &[Complex],
    taps: usize,
    ridge: f64,
    mask: &[bool],
) -> Option<Vec<Complex>> {
    assert_eq!(x.len(), y.len(), "estimate_fir_masked: length mismatch");
    assert_eq!(
        mask.len(),
        y.len(),
        "estimate_fir_masked: mask length mismatch"
    );
    assert!(taps >= 1, "estimate_fir_masked: need at least one tap");
    let _t = backfi_obs::span("sic.ls.estimate_fir_masked");
    let n = x.len();
    // Collapse the mask into contiguous observation runs: chip-transition
    // masks keep long true stretches, so the per-(j,k) cost of the
    // prefix-sum Gram build is two lookups per run instead of one
    // multiply-accumulate per observation.
    let mut runs: Vec<(usize, usize)> = Vec::new();
    let mut count = 0usize;
    let mut i = taps - 1;
    while i < n {
        if mask[i] {
            let lo = i;
            while i < n && mask[i] {
                i += 1;
            }
            runs.push((lo, i));
            count += i - lo;
        } else {
            i += 1;
        }
    }
    if count < taps * 2 {
        return None;
    }
    let (mut a, b, power_sum, obs) = normal_equations(x, y, taps, &runs);
    debug_assert_eq!(obs, count);
    a.add_diag(ridge * power_sum);
    solve(&a, &b)
}

/// The direct per-observation build behind [`estimate_fir_masked`],
/// bypassing the run-structured fast path. Reference implementation for the
/// equivalence tests and benches.
///
/// # Panics
/// Panics on length mismatch or `taps == 0`.
pub fn estimate_fir_masked_direct(
    x: &[Complex],
    y: &[Complex],
    taps: usize,
    ridge: f64,
    mask: &[bool],
) -> Option<Vec<Complex>> {
    assert_eq!(x.len(), y.len(), "estimate_fir_masked: length mismatch");
    assert_eq!(
        mask.len(),
        y.len(),
        "estimate_fir_masked: mask length mismatch"
    );
    assert!(taps >= 1, "estimate_fir_masked: need at least one tap");
    let n = x.len();
    let idx: Vec<usize> = (taps - 1..n).filter(|&i| mask[i]).collect();
    if idx.len() < taps * 2 {
        return None;
    }
    let mut a = CMat::zeros(taps, taps);
    let mut b = vec![Complex::ZERO; taps];
    let mut mean_power = 0.0;
    for &i in &idx {
        mean_power += x[i].norm_sqr();
    }
    mean_power /= idx.len() as f64;
    for j in 0..taps {
        for k in j..taps {
            let mut acc = Complex::ZERO;
            for &i in &idx {
                acc += x[i - j].conj() * x[i - k];
            }
            a[(j, k)] = acc;
            if k != j {
                a[(k, j)] = acc.conj();
            }
        }
        let mut acc = Complex::ZERO;
        for &i in &idx {
            acc += x[i - j].conj() * y[i];
        }
        b[j] = acc;
    }
    a.add_diag(ridge * mean_power * idx.len() as f64);
    solve(&a, &b)
}

/// Residual power after subtracting `x ∗ h` from `y` over the region where
/// the convolution is fully formed. Allocating wrapper over
/// [`residual_power_with`].
pub fn residual_power(x: &[Complex], y: &[Complex], h: &[Complex]) -> f64 {
    residual_power_with(x, y, h, &mut Vec::new())
}

/// [`residual_power`] with the model `x ∗ h` built in a caller-owned
/// buffer, so a caller scoring many candidate fits reuses one allocation.
pub fn residual_power_with(
    x: &[Complex],
    y: &[Complex],
    h: &[Complex],
    model: &mut Vec<Complex>,
) -> f64 {
    backfi_dsp::fir::filter_into(h, x, model);
    let start = h.len().saturating_sub(1);
    let mut acc = 0.0;
    let mut cnt = 0usize;
    for i in start..y.len().min(model.len()) {
        acc += (y[i] - model[i]).norm_sqr();
        cnt += 1;
    }
    if cnt == 0 {
        0.0
    } else {
        acc / cnt as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use backfi_dsp::fir::filter;
    use backfi_dsp::noise::{add_noise, cgauss_vec};
    use backfi_dsp::rng::SplitMix64;

    fn probe(n: usize, seed: u64) -> Vec<Complex> {
        let mut rng = SplitMix64::new(seed);
        cgauss_vec(&mut rng, n, 1.0)
    }

    #[test]
    fn recovers_exact_channel_noiseless() {
        let x = probe(500, 1);
        let h_true = vec![
            Complex::new(0.8, -0.1),
            Complex::new(0.0, 0.3),
            Complex::new(-0.05, 0.02),
        ];
        let y = filter(&h_true, &x);
        let h = estimate_fir(&x, &y, 3, 1e-9).unwrap();
        for (g, t) in h.iter().zip(&h_true) {
            assert!((*g - *t).abs() < 1e-9, "{g:?} vs {t:?}");
        }
    }

    #[test]
    fn overmodelling_finds_zero_extra_taps() {
        let x = probe(800, 2);
        let h_true = vec![Complex::ONE, Complex::new(0.2, 0.2)];
        let y = filter(&h_true, &x);
        let h = estimate_fir(&x, &y, 6, 1e-9).unwrap();
        for t in &h[2..] {
            assert!(t.abs() < 1e-8, "spurious tap {t:?}");
        }
    }

    #[test]
    fn estimation_error_scales_with_noise_and_length() {
        // Error variance per tap ≈ σ²/(N·Px): quadrupling N halves the error.
        let h_true = vec![Complex::ONE, Complex::new(-0.3, 0.4)];
        let mut errs = Vec::new();
        for &n in &[400usize, 1600] {
            let x = probe(n, 3);
            let mut y = filter(&h_true, &x);
            let mut rng = SplitMix64::new(99);
            add_noise(&mut rng, &mut y, 0.01);
            let h = estimate_fir(&x, &y, 2, 1e-9).unwrap();
            let err: f64 = h
                .iter()
                .zip(&h_true)
                .map(|(g, t)| (*g - *t).norm_sqr())
                .sum();
            errs.push(err);
        }
        assert!(errs[1] < errs[0], "more data must reduce error: {errs:?}");
    }

    #[test]
    fn residual_reaches_noise_floor() {
        let x = probe(1000, 4);
        let h_true = vec![
            Complex::new(0.5, 0.5),
            Complex::new(0.1, -0.2),
            Complex::new(0.01, 0.0),
        ];
        let mut y = filter(&h_true, &x);
        let noise = 1e-4;
        let mut rng = SplitMix64::new(7);
        add_noise(&mut rng, &mut y, noise);
        let h = estimate_fir(&x, &y, 3, 1e-9).unwrap();
        let res = residual_power(&x, &y, &h);
        assert!(res < noise * 1.2, "residual {res:e} vs noise {noise:e}");
    }

    #[test]
    fn too_few_samples_returns_none() {
        let x = probe(10, 5);
        let y = x.clone();
        assert!(estimate_fir(&x, &y, 8, 1e-6).is_none());
    }

    #[test]
    fn masked_estimation_ignores_corrupted_samples() {
        let x = probe(1000, 8);
        let h_true = vec![Complex::new(0.4, -0.2), Complex::new(0.1, 0.1)];
        let mut y = filter(&h_true, &x);
        // Corrupt every 10th sample badly; mask them out.
        let mut mask = vec![true; y.len()];
        for i in (0..y.len()).step_by(10) {
            y[i] += Complex::new(5.0, -5.0);
            mask[i] = false;
        }
        let h = estimate_fir_masked(&x, &y, 2, 1e-9, &mask).unwrap();
        for (g, t) in h.iter().zip(&h_true) {
            assert!((*g - *t).abs() < 1e-9, "{g:?} vs {t:?}");
        }
        // Unmasked estimation would be destroyed by the outliers.
        let h_bad = estimate_fir(&x, &y, 2, 1e-9).unwrap();
        let err: f64 = h_bad
            .iter()
            .zip(&h_true)
            .map(|(g, t)| (*g - *t).norm_sqr())
            .sum();
        assert!(err > 1e-3, "outliers should hurt: {err:e}");
    }

    #[test]
    fn masked_with_all_true_matches_unmasked() {
        let x = probe(400, 9);
        let h_true = vec![Complex::new(0.2, 0.7)];
        let y = filter(&h_true, &x);
        let mask = vec![true; y.len()];
        let a = estimate_fir(&x, &y, 1, 1e-9).unwrap();
        let b = estimate_fir_masked(&x, &y, 1, 1e-9, &mask).unwrap();
        assert!((a[0] - b[0]).abs() < 1e-12);
    }

    #[test]
    fn works_with_modulated_reference() {
        // The h_fb estimation case: x is WiFi × PN chips.
        let wifi = probe(600, 6);
        let chips: Vec<f64> = (0..600)
            .map(|i| if (i / 20) % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        let u: Vec<Complex> = wifi.iter().zip(&chips).map(|(w, c)| w.scale(*c)).collect();
        let h_true = vec![Complex::new(0.3, 0.1), Complex::new(-0.1, 0.05)];
        let y = filter(&h_true, &u);
        let h = estimate_fir(&u, &y, 2, 1e-9).unwrap();
        for (g, t) in h.iter().zip(&h_true) {
            assert!((*g - *t).abs() < 1e-9);
        }
    }
}
