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
//!
//! Both uses fit against the AP's own known signal, so the input-only half
//! of the problem — the Gram matrix `XᴴX + λI` and its LU factorization —
//! is fixed by the excitation while `Xᴴy` changes with every packet. A
//! [`FirPlan`] holds that half for one input window and [`FirPlan::fit`]
//! finishes each packet's fit; [`FirPlan::reuse`] keeps a plan in a
//! caller's slot and rebuilds it only when the input window differs from
//! the one it was built for, bit for bit. [`estimate_fir`] and
//! [`estimate_fir_masked`] are a fresh plan and one fit.

use crate::linalg::{solve, CMat, Lu};
use backfi_dsp::Complex;

/// The ridge-free Gram matrix `A[j][k] = Σ_i conj(x[i−j])·x[i−k]` over the
/// observation-index `runs` (half-open, every index `i` satisfying
/// `i ≥ taps−1`).
///
/// The Gram matrix is near-Toeplitz: `A[j][k]` depends on the lag
/// `ℓ = k−j` except for which window of the lag product
/// `g_ℓ[m] = conj(x[m])·x[m−ℓ]` is summed. So instead of the direct
/// O(N·taps²) triple loop, we compute one prefix-sum sequence of `g_ℓ` per
/// lag — O(N·taps) total — and read every `A[j][j+ℓ]` off it as an exact
/// windowed difference (the "edge corrections" per entry are the two prefix
/// lookups per run). `conj(x)·x` has exactly zero imaginary part, so the
/// lag-0 diagonal entry `A[0][0]` is the input-power sum over the
/// observations, and the ridge needs no separate mean-power pass.
fn gram(x: &[Complex], taps: usize, runs: &[(usize, usize)]) -> CMat {
    let n = x.len();
    let mut a = CMat::zeros(taps, taps);
    // Four lag chains per pass.
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
    a
}

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

/// The cross-correlation vector `b[j] = Σ_i conj(x[i−j])·y[i]` over the
/// observation `runs`, O(obs·taps) — already the lower bound.
///
/// Single-run case (unmasked estimation, e.g. the canceller's silent
/// window): each b[j] is one contiguous conjugate dot product,
/// `stats::dot_conj_energy`. Bitwise identity with the nested loop holds
/// because complex multiplication commutes bitwise
/// (`y·conj(x) == conj(x)·y`) and the kernel folds in observation order
/// (pinned by the `_equiv` tests). Multi-run masked estimation keeps the
/// per-run nested fold: splitting each b[j] into per-run kernel calls would
/// regroup the FP additions across runs. Its `taps` accumulator chains
/// advance together, one observation at a time, so each b[j] still folds
/// its products in observation order.
fn cross(x: &[Complex], y: &[Complex], taps: usize, runs: &[(usize, usize)]) -> Vec<Complex> {
    let mut b = vec![Complex::ZERO; taps];
    if let [(lo, hi)] = *runs {
        for (j, bj) in b.iter_mut().enumerate() {
            *bj = backfi_dsp::stats::dot_conj_energy(&y[lo..hi], &x[lo - j..hi - j]).0;
        }
    } else {
        for &(lo, hi) in runs {
            for (i, &yi) in (lo..hi).zip(&y[lo..hi]) {
                // x[i−j] for j = 0, 1, …: the history window, newest first.
                let history = x[i + 1 - taps..=i].iter().rev();
                for (bj, xv) in b.iter_mut().zip(history) {
                    *bj += xv.conj() * yi;
                }
            }
        }
    }
    b
}

/// The observations of a `taps`-long fit over an `n`-sample window: every
/// output index `i ≥ taps−1`, or with a mask (one entry per sample) the
/// maximal runs of such indices whose mask is `true`. They depend only on
/// `(n, taps, mask)`, so a caller fitting many windows of one shape builds
/// them once and hands them to every [`FirPlan::reuse`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Observations {
    n: usize,
    taps: usize,
    /// `None` when there are too few observations: fewer than `2·taps`
    /// samples unmasked, fewer than `2·taps` observations masked.
    runs: Option<Vec<(usize, usize)>>,
}

impl Observations {
    /// The observations of a `taps`-long fit over `n` samples, all of them
    /// or those a `mask` keeps.
    ///
    /// # Panics
    /// Panics if `taps == 0` or the mask length differs from `n`.
    pub fn new(n: usize, taps: usize, mask: Option<&[bool]>) -> Self {
        assert!(taps >= 1, "estimate_fir: need at least one tap");
        let runs = match mask {
            None => (n >= taps * 2).then(|| vec![(taps - 1, n)]),
            Some(mask) => {
                assert_eq!(mask.len(), n, "estimate_fir_masked: mask length mismatch");
                masked_runs(taps, mask)
            }
        };
        Observations { n, taps, runs }
    }
}

/// Collapse the mask into contiguous observation runs: chip-transition
/// masks keep long true stretches, so the per-(j,k) cost of the prefix-sum
/// Gram build is two lookups per run instead of one multiply-accumulate per
/// observation. `None` when fewer than `2·taps` indices are observed.
fn masked_runs(taps: usize, mask: &[bool]) -> Option<Vec<(usize, usize)>> {
    let n = mask.len();
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
    (count >= taps * 2).then_some(runs)
}

/// Whether two sample slices are the same bit for bit (`-0.0` differs from
/// `0.0`, and a NaN equals the same NaN).
fn same_bits(a: &[Complex], b: &[Complex]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(p, q)| p.re.to_bits() == q.re.to_bits() && p.im.to_bits() == q.im.to_bits())
}

/// The input-only half of a least-squares FIR fit: the input window, the
/// observations, and the LU factorization of the ridge-regularized Gram
/// matrix. [`FirPlan::fit`] adds the output's cross-correlation and solves,
/// bit-identical to building and eliminating the whole system for that
/// output.
#[derive(Clone, Debug)]
pub struct FirPlan {
    x: Vec<Complex>,
    obs: Observations,
    ridge: f64,
    /// `None` when there are too few observations, or the regularized Gram
    /// matrix is singular or non-finite.
    lu: Option<Lu>,
}

impl FirPlan {
    /// The plan for a fit on input `x` over the observations `obs` (built
    /// for `x.len()` samples) with ridge λ `ridge` (relative to the input
    /// power). It is the plan in `slot` when that was built for this very
    /// fit — the same input samples bit for bit, observations and ridge —
    /// else a new one, built into `slot`.
    ///
    /// # Panics
    /// Panics if `obs` was built for another window length than `x.len()`.
    pub fn reuse<'a>(
        slot: &'a mut Option<FirPlan>,
        x: &[Complex],
        obs: &Observations,
        ridge: f64,
    ) -> &'a FirPlan {
        let hit = slot.as_ref().is_some_and(|p| {
            p.obs == *obs && p.ridge.to_bits() == ridge.to_bits() && same_bits(&p.x, x)
        });
        if !hit {
            *slot = Some(Self::new(x, obs.clone(), ridge));
        }
        slot.as_ref().expect("the slot holds a plan")
    }

    /// A fresh plan (see [`FirPlan::reuse`] for the arguments).
    fn new(x: &[Complex], obs: Observations, ridge: f64) -> FirPlan {
        assert_eq!(
            obs.n,
            x.len(),
            "estimate_fir: observations for another window"
        );
        let _t = backfi_obs::span("sic.ls.plan");
        let lu = obs.runs.as_deref().and_then(|runs| {
            let mut a = gram(x, obs.taps, runs);
            let power_sum = a[(0, 0)].re;
            a.add_diag(ridge * power_sum);
            Lu::factor(&a)
        });
        FirPlan {
            x: x.to_vec(),
            obs,
            ridge,
            lu,
        }
    }

    /// The input window the plan was built for.
    pub fn input(&self) -> &[Complex] {
        &self.x
    }

    /// Estimate the FIR `h` with `y[n] ≈ Σ_k h[k]·x[n−k]` over the plan's
    /// observations. Returns `None` when there are too few observations,
    /// the regularized system is singular, or an input or observed sample
    /// is non-finite.
    ///
    /// # Panics
    /// Panics if `y` is not as long as the input window.
    pub fn fit(&self, y: &[Complex]) -> Option<Vec<Complex>> {
        assert_eq!(self.x.len(), y.len(), "estimate_fir: length mismatch");
        let _t = backfi_obs::span("sic.ls.fit");
        let (runs, lu) = (self.obs.runs.as_deref()?, self.lu.as_ref()?);
        lu.solve(&cross(&self.x, y, self.obs.taps, runs))
    }
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
/// O(N·taps²) form, equivalent within float rounding). A fresh
/// [`FirPlan`] and one fit; a caller fitting many outputs against the same
/// input keeps the plan instead.
///
/// Returns `None` when the system is singular even after regularization or
/// there are fewer observations than taps.
pub fn estimate_fir(x: &[Complex], y: &[Complex], taps: usize, ridge: f64) -> Option<Vec<Complex>> {
    assert_eq!(x.len(), y.len(), "estimate_fir: length mismatch");
    FirPlan::new(x, Observations::new(x.len(), taps, None), ridge).fit(y)
}

/// The direct O(N·taps²) normal-equation build behind [`estimate_fir`],
/// bypassing the Toeplitz fast path: the reference the equivalence tests
/// hold [`estimate_fir`] to. No production path calls it; it is public only
/// because the kernels bench times it next to [`estimate_fir`] and gates the
/// Toeplitz build at ≥ 3× faster.
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
    FirPlan::new(x, Observations::new(x.len(), taps, Some(mask)), ridge).fit(y)
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

    /// The direct per-observation build behind [`estimate_fir_masked`],
    /// bypassing the run-structured fast path: the reference oracle.
    fn estimate_fir_masked_direct(
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

    // Old-vs-new equivalence for the Toeplitz-structured normal-equation
    // build: `estimate_fir` / `estimate_fir_masked` assemble the Gram matrix
    // from per-lag prefix sums in O(N·taps); the `_direct` forms keep the
    // original O(N·taps²) triple loop. Over ≥20 seeds the solved taps must
    // agree to better than 1e-9 relative (per-element, relative to the
    // largest tap).

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
            let old = estimate_fir_masked_direct(&x, &y, taps, 1e-8, &mask)
                .expect("direct masked failed");
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

    fn tap_bits(h: &Option<Vec<Complex>>) -> Option<Vec<(u64, u64)>> {
        h.as_ref()
            .map(|h| h.iter().map(|t| (t.re.to_bits(), t.im.to_bits())).collect())
    }

    /// One plan slot carried across fits — the same input with new outputs,
    /// then inputs that differ only in one sample's bits, in the sign of a
    /// zero, in the mask or in the ridge — fits every output bit for bit as
    /// a fresh [`estimate_fir`] / [`estimate_fir_masked`] does.
    #[test]
    fn reused_plan_fits_bitwise_as_a_fresh_estimate() {
        let mut slot = None;
        for seed in 1..=20u64 {
            let n = 320 + (seed as usize % 3) * 200;
            let taps = [2, 8, 28][seed as usize % 3];
            let masked = seed % 2 == 0;
            let mask: Vec<bool> = (0..n).map(|i| i % 20 >= taps.min(19) - 1).collect();
            let mask = masked.then_some(&mask[..]);
            let obs = Observations::new(n, taps, mask);
            let (mut x, _) = scenario(seed, n, 3);
            if seed % 5 == 0 {
                x[n / 2] = Complex::new(-0.0, 0.0); // bitwise, not numerically, new
            }
            let ridge = if seed % 7 == 0 { 1e-6 } else { 1e-8 };
            for k in 0..3u64 {
                let (_, y) = scenario(seed * 100 + k, n, 3);
                let fresh = match mask {
                    Some(m) => estimate_fir_masked(&x, &y, taps, ridge, m),
                    None => estimate_fir(&x, &y, taps, ridge),
                };
                assert!(fresh.is_some(), "seed {seed}: fresh fit failed");
                let plan = FirPlan::reuse(&mut slot, &x, &obs, ridge);
                assert_eq!(
                    tap_bits(&plan.fit(&y)),
                    tap_bits(&fresh),
                    "seed {seed} y {k}"
                );
                assert!(same_bits(plan.input(), &x));
            }
            // The same length with one sample changed is another input.
            x[taps] = x[taps].scale(1.0 + f64::EPSILON);
            let (_, y) = scenario(seed * 100 + 9, n, 3);
            let fresh = match mask {
                Some(m) => estimate_fir_masked(&x, &y, taps, ridge, m),
                None => estimate_fir(&x, &y, taps, ridge),
            };
            let plan = FirPlan::reuse(&mut slot, &x, &obs, ridge);
            assert_eq!(
                tap_bits(&plan.fit(&y)),
                tap_bits(&fresh),
                "seed {seed} new x"
            );
        }
    }

    /// A plan whose observations are too few, or whose input is
    /// non-finite, fits `None` exactly where a fresh estimate does, and a
    /// slot holding one of them is rebuilt for a usable input.
    #[test]
    fn reused_plan_fails_where_a_fresh_estimate_fails() {
        let mut slot = None;
        let (x, y) = scenario(3, 400, 3);
        // 2·taps ≤ n < 3·taps−1: enough samples unmasked, too few
        // observations masked with an all-true mask.
        let short = &x[..12];
        let all = vec![true; 12];
        assert!(estimate_fir(short, &y[..12], 5, 1e-8).is_some());
        assert!(estimate_fir_masked(short, &y[..12], 5, 1e-8, &all).is_none());
        let unmasked =
            FirPlan::reuse(&mut slot, short, &Observations::new(12, 5, None), 1e-8).fit(&y[..12]);
        assert_eq!(
            tap_bits(&unmasked),
            tap_bits(&estimate_fir(short, &y[..12], 5, 1e-8))
        );
        let plan = FirPlan::reuse(
            &mut slot,
            short,
            &Observations::new(12, 5, Some(&all)),
            1e-8,
        );
        assert!(plan.fit(&y[..12]).is_none());
        let mut bad = x.clone();
        bad[100] = Complex::new(f64::NAN, 0.0);
        let obs = Observations::new(400, 4, None);
        assert!(FirPlan::reuse(&mut slot, &bad, &obs, 1e-8)
            .fit(&y)
            .is_none());
        let mut bad_y = y.clone();
        bad_y[200] = Complex::new(0.0, f64::INFINITY);
        let plan = FirPlan::reuse(&mut slot, &x, &obs, 1e-8);
        assert!(plan.fit(&bad_y).is_none());
        assert_eq!(
            tap_bits(&plan.fit(&y)),
            tap_bits(&estimate_fir(&x, &y, 4, 1e-8))
        );
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
    fn multi_run_b_vector_is_bitwise_the_per_tap_loop() {
        // The masked cross-correlation advances every tap's chain per
        // observation; each b[j] must still be the per-tap fold over the
        // runs in observation order, bit for bit.
        for seed in 1..=20u64 {
            let (x, y) = scenario(seed, 700, 3);
            let taps = 1 + seed as usize % 8;
            let mask: Vec<bool> = (0..700).map(|i| i % 20 >= taps).collect();
            let runs = masked_runs(taps, &mask).expect("enough observations");
            assert!(runs.len() > 1);
            let got = cross(&x, &y, taps, &runs);
            for (j, g) in got.iter().enumerate() {
                let mut acc = Complex::ZERO;
                for &(lo, hi) in &runs {
                    for i in lo..hi {
                        acc += x[i - j].conj() * y[i];
                    }
                }
                assert_eq!(
                    (g.re.to_bits(), g.im.to_bits()),
                    (acc.re.to_bits(), acc.im.to_bits()),
                    "seed {seed} tap {j}"
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
}
