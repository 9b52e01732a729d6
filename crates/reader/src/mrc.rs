//! Maximal-ratio combining symbol estimation (§4.3.2, Eq. 7).
//!
//! Within one tag symbol the reflection coefficient is a constant `e^{jθc}`,
//! and the received samples are `y[n] = e^{jθc}·ŷ[n] + w[n]` where
//! `ŷ = x ∗ ĥ_fb` is the reconstructed unmodulated backscatter. MRC weights
//! each observation by the reference and normalizes:
//!
//! ```text
//! ẑ = Σ_w y[n]·conj(ŷ[n]) / Σ_w |ŷ[n]|²        (Eq. 7)
//! ```
//!
//! Samples whose `h_fb` history crosses the symbol boundary are skipped
//! ("Sample ignored" in the paper's Fig. 6). The module also implements the
//! naive per-sample division the paper dismisses ("this works poorly because
//! it will also divide the noise term … and in many scenarios amplify it"),
//! used by the ablation bench.

use backfi_dsp::{stats, Complex};

/// Per-symbol estimate produced by the combiner.
#[derive(Clone, Copy, Debug)]
pub struct SymbolEstimate {
    /// Combined phasor ẑ (≈ `e^{jθc}` at high SNR).
    pub z: Complex,
    /// Reference energy Σ|ŷ|² used for this symbol (the MRC gain driver).
    pub ref_energy: f64,
    /// Effective noise variance of `z` given the per-sample noise power.
    pub noise_var: f64,
}

impl SymbolEstimate {
    /// A zero-information erasure: `z = 0` with infinite noise variance, so
    /// the soft-bit stage emits exactly-zero LLRs and the Viterbi decoder
    /// treats the symbol as unknown instead of as a confident wrong guess.
    /// Used for symbol windows dominated by saturated or non-finite samples.
    pub fn erasure() -> SymbolEstimate {
        SymbolEstimate {
            z: Complex::ZERO,
            ref_energy: 0.0,
            noise_var: f64::INFINITY,
        }
    }

    /// Whether this estimate is an [`SymbolEstimate::erasure`] placeholder.
    pub fn is_erasure(&self) -> bool {
        self.ref_energy == 0.0 && self.noise_var.is_infinite()
    }
}

/// MRC-combine one symbol window.
///
/// * `y` — received (cancelled) samples of the symbol window,
/// * `reference` — `x ∗ ĥ_fb` over the same window,
/// * `guard` — samples to skip at the window start (channel transient from
///   the previous symbol) — the trailing boundary is handled by the next
///   symbol's guard,
/// * `noise_power` — per-sample noise power estimate.
///
/// Returns `None` for a degenerate window (no usable samples or zero
/// reference energy).
pub fn mrc_symbol(
    y: &[Complex],
    reference: &[Complex],
    guard: usize,
    noise_power: f64,
) -> Option<SymbolEstimate> {
    assert_eq!(y.len(), reference.len(), "window length mismatch");
    if guard >= y.len() {
        return None;
    }
    // The in-order fold is bit-exact with the accumulation loop of the
    // reference `mrc_symbol_direct` in the tests.
    let (num, den) = stats::dot_conj_energy(&y[guard..], &reference[guard..]);
    if den <= 0.0 {
        return None;
    }
    Some(SymbolEstimate {
        z: num / den,
        ref_energy: den,
        noise_var: noise_power / den,
    })
}

/// Reference form of [`mrc_symbol`]: the original explicit accumulation
/// loop. Pinned against the dispatched path by the `_equiv` test.
#[cfg(test)]
fn mrc_symbol_direct(
    y: &[Complex],
    reference: &[Complex],
    guard: usize,
    noise_power: f64,
) -> Option<SymbolEstimate> {
    assert_eq!(y.len(), reference.len(), "window length mismatch");
    if guard >= y.len() {
        return None;
    }
    let mut num = Complex::ZERO;
    let mut den = 0.0;
    for i in guard..y.len() {
        num += y[i] * reference[i].conj();
        den += reference[i].norm_sqr();
    }
    if den <= 0.0 {
        return None;
    }
    Some(SymbolEstimate {
        z: num / den,
        ref_energy: den,
        noise_var: noise_power / den,
    })
}

/// The naive zero-forcing alternative: average of per-sample `y/ŷ`.
/// Amplifies noise wherever the OFDM reference passes near zero.
pub fn zf_symbol(y: &[Complex], reference: &[Complex], guard: usize) -> Option<Complex> {
    assert_eq!(y.len(), reference.len(), "window length mismatch");
    if guard >= y.len() {
        return None;
    }
    let mut acc = Complex::ZERO;
    let mut cnt = 0usize;
    for i in guard..y.len() {
        if reference[i].norm_sqr() > 0.0 {
            acc += y[i] / reference[i];
            cnt += 1;
        }
    }
    if cnt == 0 {
        None
    } else {
        Some(acc / cnt as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use backfi_dsp::noise::{cgauss, cgauss_vec};
    use backfi_dsp::rng::SplitMix64;

    #[test]
    fn mrc_equiv_direct() {
        let mut rng = SplitMix64::new(77);
        for (n, guard) in [(80usize, 16usize), (40, 4), (33, 0), (8, 7)] {
            let mut y = cgauss_vec(&mut rng, n, 1.0);
            let reference = cgauss_vec(&mut rng, n, 1.0);
            // Hostile lanes: the dispatched path must propagate non-finite
            // samples exactly like the reference loop.
            if n >= 8 {
                y[1].re = f64::NAN;
                y[3].im = f64::INFINITY;
                y[5] = Complex::ZERO;
            }
            let a = mrc_symbol(&y, &reference, guard, 0.25);
            let b = mrc_symbol_direct(&y, &reference, guard, 0.25);
            match (a, b) {
                (None, None) => {}
                (Some(a), Some(b)) => {
                    let eq =
                        |x: f64, y: f64| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan());
                    assert!(eq(a.z.re, b.z.re) && eq(a.z.im, b.z.im), "z mismatch n {n}");
                    assert!(eq(a.ref_energy, b.ref_energy), "ref_energy mismatch n {n}");
                    assert!(eq(a.noise_var, b.noise_var), "noise_var mismatch n {n}");
                }
                _ => panic!("Some/None disagreement at n {n}"),
            }
        }
    }

    #[test]
    fn noiseless_recovers_exact_phase() {
        let mut rng = SplitMix64::new(1);
        let reference = cgauss_vec(&mut rng, 40, 1.0);
        let theta = 1.234;
        let y: Vec<Complex> = reference
            .iter()
            .map(|r| *r * Complex::exp_j(theta))
            .collect();
        let est = mrc_symbol(&y, &reference, 4, 0.0).unwrap();
        assert!((est.z.arg() - theta).abs() < 1e-12);
        assert!((est.z.abs() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mrc_noise_variance_model_holds() {
        // var(ẑ) should match noise_power/Σ|ŷ|².
        let mut rng = SplitMix64::new(2);
        let reference = cgauss_vec(&mut rng, 32, 1.0);
        let noise = 0.1;
        let mut errs = Vec::new();
        let mut predicted = 0.0;
        for _ in 0..3000 {
            let y: Vec<Complex> = reference
                .iter()
                .map(|r| *r + cgauss(&mut rng, noise))
                .collect();
            let est = mrc_symbol(&y, &reference, 0, noise).unwrap();
            errs.push((est.z - Complex::ONE).norm_sqr());
            predicted = est.noise_var;
        }
        let measured = stats::mean(&errs);
        assert!(
            (measured / predicted - 1.0).abs() < 0.1,
            "measured {measured:e} predicted {predicted:e}"
        );
    }

    #[test]
    fn longer_windows_reduce_error() {
        // The MRC diversity gain of Fig. 11b: more samples per symbol →
        // lower phase-estimate variance.
        let mut rng = SplitMix64::new(3);
        let noise = 0.5;
        let mut var_by_len = Vec::new();
        for &len in &[8usize, 64] {
            let reference = cgauss_vec(&mut rng, len, 1.0);
            let mut errs = Vec::new();
            for _ in 0..2000 {
                let y: Vec<Complex> = reference
                    .iter()
                    .map(|r| *r + cgauss(&mut rng, noise))
                    .collect();
                let est = mrc_symbol(&y, &reference, 0, noise).unwrap();
                errs.push((est.z - Complex::ONE).norm_sqr());
            }
            var_by_len.push(stats::mean(&errs));
        }
        let ratio = var_by_len[0] / var_by_len[1];
        assert!(ratio > 4.0, "8→64 samples should cut variance ~8x: {ratio}");
    }

    #[test]
    fn mrc_beats_zero_forcing() {
        // §4.3.2's claim: dividing by the reference amplifies noise when the
        // wideband reference fades.
        let mut rng = SplitMix64::new(4);
        let noise = 0.05;
        let mut mrc_err = 0.0;
        let mut zf_err = 0.0;
        for _ in 0..500 {
            let reference = cgauss_vec(&mut rng, 24, 1.0); // OFDM-like: Rayleigh magnitudes
            let y: Vec<Complex> = reference
                .iter()
                .map(|r| *r + cgauss(&mut rng, noise))
                .collect();
            let m = mrc_symbol(&y, &reference, 0, noise).unwrap();
            let z = zf_symbol(&y, &reference, 0).unwrap();
            mrc_err += (m.z - Complex::ONE).norm_sqr();
            zf_err += (z - Complex::ONE).norm_sqr();
        }
        assert!(
            zf_err > mrc_err * 3.0,
            "ZF {zf_err:e} should be much worse than MRC {mrc_err:e}"
        );
    }

    #[test]
    fn guard_skips_corrupted_boundary() {
        let mut rng = SplitMix64::new(5);
        let reference = cgauss_vec(&mut rng, 20, 1.0);
        let mut y: Vec<Complex> = reference.clone();
        // Corrupt the first 3 samples (previous-symbol transient).
        for v in y.iter_mut().take(3) {
            *v = Complex::new(10.0, -10.0);
        }
        let est = mrc_symbol(&y, &reference, 3, 0.0).unwrap();
        assert!((est.z - Complex::ONE).abs() < 1e-12);
    }

    #[test]
    fn degenerate_windows_return_none() {
        let y = vec![Complex::ONE; 4];
        let r = vec![Complex::ZERO; 4];
        assert!(mrc_symbol(&y, &r, 0, 1.0).is_none());
        assert!(mrc_symbol(&y, &y, 4, 1.0).is_none());
        assert!(zf_symbol(&y, &r, 0).is_none());
    }
}
