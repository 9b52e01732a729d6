//! Combined forward∗backward channel estimation (§4.3.1).
//!
//! During the tag's PN preamble the received (post-cancellation) signal is
//! `y[n] = ((x ∗ h_f)·c) ∗ h_b ≈ ((x·c) ∗ h_fb)[n]`, exact whenever the whole
//! `h_fb` history of sample `n` lies inside one PN chip. We therefore build
//! the reference `u = x·c`, mask out chip-transition samples, and solve
//! regularized least squares for `h_fb` — trying a handful of timing offsets
//! (the tag's comparator quantizes its timeline to 1 µs) and keeping the one
//! with the smallest residual.
//!
//! Every candidate's reference `u` depends only on the excitation, so a
//! [`TimingSearch`] carried across packets keeps one LS plan per candidate
//! ([`FirPlan`]) and refits it against each packet's received samples.

use backfi_dsp::us_to_samples;
use backfi_dsp::Complex;
use backfi_sic::estimator::{residual_power_with, FirPlan, Observations};
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
/// Returns `None` when no offset yields a solvable system. A fresh
/// [`TimingSearch`] over `search`; a caller estimating many packets keeps
/// one and calls [`TimingSearch::estimate`] instead.
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
    let mut s = TimingSearch::default();
    s.shape(preamble_us, taps);
    s.best(x, y, nominal_start, search, ridge)
}

/// The timing offsets a search within `±span` samples tries, in order:
/// zero, then each whole microsecond (20 samples) outward, later before
/// earlier.
fn offsets_within(span: usize) -> Vec<isize> {
    let mut search = vec![0];
    let mut off = 20isize;
    while off <= span as isize {
        search.push(off);
        search.push(-off);
        off += 20;
    }
    search
}

/// The timing search of [`estimate_h_fb`] with what depends only on the
/// excitation and the configuration kept across packets: the chip
/// expansion and the observations of the preamble window (fixed by the
/// preamble length and the tap count), the offsets searched (fixed by the
/// span), and one [`FirPlan`] per candidate offset, holding the
/// candidate's reference `u = x·c` and its factored Gram matrix, plus the
/// buffers the search refills. A plan is reused only while its candidate's
/// `u` is the same bit for bit, so a search carried across packets of any
/// excitation or configuration returns exactly what a fresh one does.
#[derive(Debug, Default)]
pub struct TimingSearch {
    shape: Option<Shape>,
    /// The span `offsets` are for.
    span: Option<usize>,
    offsets: Vec<isize>,
    plans: Vec<Option<FirPlan>>,
    u: Vec<Complex>,
    model: Vec<Complex>,
}

/// What every candidate window of a search shares, fixed by the preamble
/// length and the tap count.
#[derive(Debug)]
struct Shape {
    preamble_us: f64,
    taps: usize,
    /// The ±1 chips, one per preamble sample.
    chips: Vec<f64>,
    /// The preamble samples whose whole `taps`-history sits in one chip.
    obs: Observations,
}

impl Shape {
    fn new(preamble_us: f64, taps: usize) -> Self {
        let chips = chips_per_sample(preamble_us);
        let per_chip = us_to_samples(PREAMBLE_CHIP_US);
        let mask: Vec<bool> = (0..chips.len()).map(|i| i % per_chip >= taps - 1).collect();
        let obs = Observations::new(chips.len(), taps, Some(&mask));
        Shape {
            preamble_us,
            taps,
            chips,
            obs,
        }
    }
}

impl TimingSearch {
    /// [`estimate_h_fb`] over the offsets within `±span` samples of
    /// `nominal_start` (zero, then each microsecond outward, later first),
    /// with this search's plans and buffers.
    #[allow(clippy::too_many_arguments)]
    pub fn estimate(
        &mut self,
        x: &[Complex],
        y: &[Complex],
        nominal_start: usize,
        preamble_us: f64,
        taps: usize,
        span: usize,
        ridge: f64,
    ) -> Option<ChannelEstimate> {
        self.shape(preamble_us, taps);
        if self.span != Some(span) {
            self.offsets = offsets_within(span);
            self.span = Some(span);
        }
        let search = std::mem::take(&mut self.offsets);
        let best = self.best(x, y, nominal_start, &search, ridge);
        self.offsets = search;
        best
    }

    /// Keep the [`Shape`] of `(preamble_us, taps)`, building it unless it
    /// is the one kept.
    fn shape(&mut self, preamble_us: f64, taps: usize) {
        let kept = self
            .shape
            .as_ref()
            .is_some_and(|s| s.preamble_us.to_bits() == preamble_us.to_bits() && s.taps == taps);
        if !kept {
            self.shape = Some(Shape::new(preamble_us, taps));
        }
    }

    /// The candidate of `search` with the smallest LS residual, on the
    /// shape kept.
    fn best(
        &mut self,
        x: &[Complex],
        y: &[Complex],
        nominal_start: usize,
        search: &[isize],
        ridge: f64,
    ) -> Option<ChannelEstimate> {
        let _t = backfi_obs::span("chanest.estimate_h_fb");
        let Shape { chips, obs, .. } = self.shape.as_ref().expect("a shape is kept");
        let n = chips.len();
        if self.plans.len() < search.len() {
            self.plans.resize_with(search.len(), || None);
        }
        let mut best: Option<ChannelEstimate> = None;
        for (&off, slot) in search.iter().zip(&mut self.plans) {
            let start = nominal_start as isize + off;
            if start < 0 {
                continue;
            }
            let start = start as usize;
            if start + n > x.len().min(y.len()) {
                continue;
            }
            // Reference u = x·c over the candidate window.
            self.u.clear();
            self.u.extend((0..n).map(|i| x[start + i].scale(chips[i])));
            let plan = FirPlan::reuse(slot, &self.u, obs, ridge);
            let yw = &y[start..start + n];
            let Some(h) = plan.fit(yw) else {
                continue;
            };
            let res = residual_power_with(plan.input(), yw, &h, &mut self.model);
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
