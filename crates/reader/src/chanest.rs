//! Combined forward∗backward channel estimation (§4.3.1).
//!
//! During the tag's PN preamble the received (post-cancellation) signal is
//! `y[n] = ((x ∗ h_f)·c) ∗ h_b ≈ ((x·c) ∗ h_fb)[n]`, exact whenever the whole
//! `h_fb` history of sample `n` lies inside one PN chip. We therefore build
//! the reference `u = x·c`, mask out chip-transition samples, and solve
//! regularized least squares for `h_fb` — trying a handful of timing offsets
//! (the tag's comparator quantizes its timeline to 1 µs) and keeping the one
//! with the smallest residual.

use backfi_dsp::us_to_samples;
use backfi_dsp::Complex;
use backfi_sic::estimator::{estimate_fir_masked, residual_power_with};
use backfi_tag::framer::{TagFrame, PREAMBLE_CHIP_US};

/// Result of channel estimation.
#[derive(Clone, Debug)]
pub struct ChannelEstimate {
    /// Estimated combined channel `h_f ∗ h_b`.
    pub h_fb: Vec<Complex>,
    /// Timing correction (samples) applied to the nominal preamble start.
    pub offset: isize,
    /// LS residual power at the chosen offset.
    pub residual: f64,
    /// Total energy of the estimate (≈ received tag power / TX power).
    pub energy: f64,
}

/// Expand the ±1 chip sequence to one value per baseband sample.
pub fn chips_per_sample(preamble_us: f64) -> Vec<f64> {
    let chips = TagFrame::preamble_chips(preamble_us);
    let per = us_to_samples(PREAMBLE_CHIP_US);
    let mut out = Vec::with_capacity(chips.len() * per);
    for c in chips {
        out.extend(std::iter::repeat_n(c, per));
    }
    out
}

/// One past the last sample [`estimate_h_fb`] reads for any timing offset
/// within `±span` of `nominal_start`: the end of the latest candidate
/// preamble window.
pub(crate) fn window_end(nominal_start: usize, preamble_us: f64, span: usize) -> usize {
    nominal_start
        + span
        + TagFrame::preamble_chips(preamble_us).len() * us_to_samples(PREAMBLE_CHIP_US)
}

/// Estimate `h_fb` from the preamble window.
///
/// * `x` — clean transmitted baseband (with TX scaling), full packet,
/// * `y` — post-cancellation received samples, full packet,
/// * `nominal_start` — where the tag preamble nominally begins,
/// * `preamble_us` — tag preamble duration,
/// * `taps` — `h_fb` length to estimate,
/// * `search` — timing offsets (samples) to try, e.g. `[-20, 0, 20, 40]`,
/// * `ridge` — LS regularization.
///
/// Returns `None` when no offset yields a solvable system.
#[allow(clippy::too_many_arguments)]
pub fn estimate_h_fb(
    x: &[Complex],
    y: &[Complex],
    nominal_start: usize,
    preamble_us: f64,
    taps: usize,
    search: &[isize],
    ridge: f64,
) -> Option<ChannelEstimate> {
    let _t = backfi_obs::span("chanest.estimate_h_fb");
    let chips = chips_per_sample(preamble_us);
    let per_chip = us_to_samples(PREAMBLE_CHIP_US);
    let n = chips.len();

    // Mask: a sample is valid when its whole taps-history sits in one chip.
    let mask: Vec<bool> = (0..n).map(|i| i % per_chip >= taps - 1).collect();
    // Per-offset buffers, refilled for every candidate window.
    let mut u: Vec<Complex> = Vec::new();
    let mut model = Vec::new();
    let mut best: Option<ChannelEstimate> = None;
    for &off in search {
        let start = nominal_start as isize + off;
        if start < 0 {
            continue;
        }
        let start = start as usize;
        if start + n > x.len().min(y.len()) {
            continue;
        }
        // Reference u = x·c over the candidate window.
        u.clear();
        u.extend((0..n).map(|i| x[start + i].scale(chips[i])));
        let yw = &y[start..start + n];
        let Some(h) = estimate_fir_masked(&u, yw, taps, ridge, &mask) else {
            continue;
        };
        let res = residual_power_with(&u, yw, &h, &mut model);
        let energy: f64 = h.iter().map(|t| t.norm_sqr()).sum();
        let cand = ChannelEstimate {
            h_fb: h,
            offset: off,
            residual: res,
            energy,
        };
        match &best {
            Some(b) if b.residual <= cand.residual => {}
            _ => best = Some(cand),
        }
    }
    if let Some(b) = &best {
        backfi_obs::probe("chanest.energy", b.energy);
        backfi_obs::probe("chanest.residual", b.residual);
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use backfi_dsp::fir::filter;
    use backfi_dsp::noise::{add_noise, cgauss_vec};
    use backfi_dsp::rng::SplitMix64;

    /// Simulate the true tag preamble signal: ((x∗h_f)·c)∗h_b.
    fn tag_preamble_signal(
        x: &[Complex],
        start: usize,
        preamble_us: f64,
        h_f: &[Complex],
        h_b: &[Complex],
    ) -> Vec<Complex> {
        let chips = chips_per_sample(preamble_us);
        let z = filter(h_f, x);
        let modded: Vec<Complex> = z
            .iter()
            .enumerate()
            .map(|(i, &v)| {
                if i >= start && i < start + chips.len() {
                    v.scale(chips[i - start])
                } else {
                    Complex::ZERO
                }
            })
            .collect();
        filter(h_b, &modded)
    }

    #[test]
    fn recovers_cascade_channel() {
        let mut rng = SplitMix64::new(1);
        let x = cgauss_vec(&mut rng, 3000, 1.0);
        let h_f = vec![Complex::new(3e-3, 1e-3), Complex::new(5e-4, -2e-4)];
        let h_b = vec![Complex::new(2e-3, -1e-3), Complex::new(-3e-4, 1e-4)];
        let start = 500;
        let mut y = tag_preamble_signal(&x, start, 32.0, &h_f, &h_b);
        add_noise(&mut rng, &mut y, 1e-14);
        let est = estimate_h_fb(&x, &y, start, 32.0, 4, &[0], 1e-9).unwrap();
        let truth = backfi_dsp::fir::convolve(&h_f, &h_b);
        for (g, t) in est.h_fb.iter().zip(&truth) {
            assert!((*g - *t).abs() < 1e-7, "{g:?} vs {t:?}");
        }
        assert_eq!(est.offset, 0);
    }

    #[test]
    fn timing_search_finds_true_offset() {
        let mut rng = SplitMix64::new(2);
        let x = cgauss_vec(&mut rng, 4000, 1.0);
        let h_f = vec![Complex::new(2e-3, 0.0)];
        let h_b = vec![Complex::new(1e-3, 1e-3)];
        let true_start = 540; // 40 samples (2 µs) later than nominal
        let mut y = tag_preamble_signal(&x, true_start, 32.0, &h_f, &h_b);
        add_noise(&mut rng, &mut y, 1e-14);
        let est = estimate_h_fb(&x, &y, 500, 32.0, 3, &[-20, 0, 20, 40, 60], 1e-9).unwrap();
        assert_eq!(est.offset, 40);
    }

    #[test]
    fn longer_preamble_reduces_estimation_error() {
        // The Fig. 8 mechanism: 96 µs preamble → ~3× more observations →
        // lower estimate variance.
        let h_f = vec![Complex::new(1e-4, 5e-5)];
        let h_b = vec![Complex::new(1e-4, -5e-5)];
        let truth = backfi_dsp::fir::convolve(&h_f, &h_b);
        let noise = 1e-9;
        let mut errs = Vec::new();
        for &us in &[32.0, 96.0] {
            let mut total = 0.0;
            for seed in 0..24 {
                let mut rng = SplitMix64::new(100 + seed);
                let x = cgauss_vec(&mut rng, 4000, 1.0);
                let mut y = tag_preamble_signal(&x, 300, us, &h_f, &h_b);
                add_noise(&mut rng, &mut y, noise);
                let est = estimate_h_fb(&x, &y, 300, us, 2, &[0], 1e-9).unwrap();
                total += est
                    .h_fb
                    .iter()
                    .zip(&truth)
                    .map(|(g, t)| (*g - *t).norm_sqr())
                    .sum::<f64>();
            }
            errs.push(total);
        }
        assert!(
            errs[1] < errs[0] * 0.6,
            "96 µs should be ~3x better: {errs:?}"
        );
    }

    #[test]
    fn chips_per_sample_expansion() {
        let c = chips_per_sample(32.0);
        assert_eq!(c.len(), 640);
        // 20 equal samples per chip
        for chip in 0..32 {
            let v = c[chip * 20];
            for i in 0..20 {
                assert_eq!(c[chip * 20 + i], v);
            }
        }
    }

    #[test]
    fn returns_none_when_window_escapes_buffer() {
        let x = vec![Complex::ONE; 100];
        let y = vec![Complex::ONE; 100];
        assert!(estimate_h_fb(&x, &y, 90, 32.0, 4, &[0], 1e-9).is_none());
    }
}
