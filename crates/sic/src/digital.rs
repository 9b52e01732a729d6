//! The digital cancellation stage.
//!
//! After the ADC, a FIR filter estimated by least squares removes the
//! residual self-interference. BackFi's twist on standard full-duplex
//! digital cancellation (§4.2): the filter is trained **only on the tag's
//! silent period**, so the backscatter signal — which is correlated with the
//! transmitted signal — can never leak into the estimate and get cancelled
//! along with the interference.

use crate::estimator::{FirPlan, Observations};
use backfi_dsp::Complex;

/// A trained digital canceller.
#[derive(Clone, Debug)]
pub struct DigitalCanceller {
    taps: Vec<Complex>,
}

impl DigitalCanceller {
    /// Train on a window where the tag is known to be silent.
    ///
    /// * `x_clean` — transmitted baseband over the window,
    /// * `y` — post-ADC received samples over the same window,
    /// * `taps` — filter length (should cover the full environment delay
    ///   spread; see `backfi-chan::environment`),
    /// * `ridge` — LS regularization.
    ///
    /// Returns `None` if the window is too short for the requested length.
    pub fn train(x_clean: &[Complex], y: &[Complex], taps: usize, ridge: f64) -> Option<Self> {
        Self::train_with(x_clean, y, taps, ridge, &mut None)
    }

    /// [`DigitalCanceller::train`] with the input-only half of the fit kept
    /// in `plan` ([`FirPlan::reuse`]): packets that share the silent
    /// window's `x_clean` factor its Gram matrix once. Bit-identical to
    /// `train`.
    pub fn train_with(
        x_clean: &[Complex],
        y: &[Complex],
        taps: usize,
        ridge: f64,
        plan: &mut Option<FirPlan>,
    ) -> Option<Self> {
        let _t = backfi_obs::span("sic.digital.train");
        let obs = Observations::new(x_clean.len(), taps, None);
        let h = FirPlan::reuse(plan, x_clean, &obs, ridge).fit(y)?;
        Some(DigitalCanceller { taps: h })
    }

    /// The estimated residual-interference response.
    pub fn taps(&self) -> &[Complex] {
        &self.taps
    }

    /// Subtract the reconstructed interference from `y` over the whole
    /// packet. Allocating wrapper over `cancel_extend`.
    pub fn cancel(&self, x_clean: &[Complex], y: &[Complex]) -> Vec<Complex> {
        assert_eq!(x_clean.len(), y.len(), "length mismatch");
        let mut out = Vec::new();
        self.cancel_extend(x_clean, y, x_clean.len(), &mut out);
        out
    }

    /// [`DigitalCanceller::cancel`] in extending prefixes: appends the
    /// cancelled samples `out.len()..end` to `out`, leaving the ones it
    /// already holds untouched. The model is a causal filter of `x_clean`
    /// ([`backfi_dsp::fir::filter_extend`]), so each appended sample is
    /// bit-identical to the same sample of the whole-packet `cancel`; only
    /// `y[out.len()..end]` is read, so `y` needs to reach only `end`.
    pub(crate) fn cancel_extend(
        &self,
        x_clean: &[Complex],
        y: &[Complex],
        end: usize,
        out: &mut Vec<Complex>,
    ) {
        assert!(end <= y.len(), "end out of range");
        let _t = backfi_obs::span("sic.digital.cancel");
        let start = out.len();
        backfi_dsp::fir::filter_extend(&self.taps, x_clean, end, out);
        for (m, a) in out[start..].iter_mut().zip(&y[start..]) {
            *m = *a - *m;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use backfi_dsp::fir::filter;
    use backfi_dsp::noise::{add_noise, cgauss_vec};
    use backfi_dsp::rng::SplitMix64;
    use backfi_dsp::stats::{db, mean_power};

    #[test]
    fn cancels_to_near_noise_floor() {
        let mut rng = SplitMix64::new(1);
        let x = cgauss_vec(&mut rng, 2000, 1.0);
        let h = vec![
            Complex::new(0.01, 0.005),
            Complex::new(-0.002, 0.001),
            Complex::new(0.0005, -0.0002),
        ];
        let noise = 1e-9;
        let mut y = filter(&h, &x);
        add_noise(&mut rng, &mut y, noise);
        let c = DigitalCanceller::train(&x[..400], &y[..400], 8, 1e-8).unwrap();
        let out = c.cancel(&x, &y);
        let res = mean_power(&out[8..]);
        assert!(db(res / noise) < 1.0, "residual {res:e} vs noise {noise:e}");
    }

    #[test]
    fn training_on_silent_period_spares_the_tag_signal() {
        // The paper's central protocol argument: train during silence, and
        // the backscatter survives cancellation untouched.
        let mut rng = SplitMix64::new(2);
        let n = 4000;
        let silent = 400usize;
        let x = cgauss_vec(&mut rng, n, 1.0);
        let h_env = vec![Complex::new(0.02, -0.01), Complex::new(0.003, 0.001)];
        let h_fb = vec![Complex::new(1e-4, 5e-5)];
        // Tag modulates BPSK after the silent period.
        let gamma: Vec<Complex> = (0..n)
            .map(|i| {
                if i < silent {
                    Complex::ZERO
                } else if (i / 20) % 2 == 0 {
                    Complex::ONE
                } else {
                    -Complex::ONE
                }
            })
            .collect();
        let si = filter(&h_env, &x);
        let tag_in = filter(&h_fb, &x);
        let tag: Vec<Complex> = tag_in.iter().zip(&gamma).map(|(a, g)| *a * *g).collect();
        let mut y: Vec<Complex> = si.iter().zip(&tag).map(|(a, b)| *a + *b).collect();
        add_noise(&mut rng, &mut y, 1e-12);

        let c = DigitalCanceller::train(&x[..silent], &y[..silent], 4, 1e-9).unwrap();
        let out = c.cancel(&x, &y);
        // After cancellation, the remaining signal in the data region should
        // be ≈ the tag signal.
        let tag_power = mean_power(&tag[silent..]);
        let out_power = mean_power(&out[silent..]);
        assert!(
            db(out_power / tag_power).abs() < 1.0,
            "tag preserved: out {out_power:e} vs tag {tag_power:e}"
        );
    }

    #[test]
    fn naive_training_on_modulated_region_cancels_the_tag() {
        // Ablation (DESIGN.md §5): train on a window where the tag is
        // backscattering a CONSTANT phase — the estimator then absorbs the
        // tag path into its interference model and cancels it.
        let mut rng = SplitMix64::new(3);
        let n = 3000;
        let x = cgauss_vec(&mut rng, n, 1.0);
        let h_env = vec![Complex::new(0.02, -0.01)];
        let h_fb = vec![Complex::new(2e-4, 1e-4)];
        let si = filter(&h_env, &x);
        let tag_in = filter(&h_fb, &x);
        // Tag reflects constantly (e.g. preamble) during training.
        let mut y: Vec<Complex> = si.iter().zip(&tag_in).map(|(a, b)| *a + *b).collect();
        add_noise(&mut rng, &mut y, 1e-14);
        let c = DigitalCanceller::train(&x[..600], &y[..600], 4, 1e-9).unwrap();
        let out = c.cancel(&x, &y);
        let tag_power = mean_power(&tag_in);
        let out_power = mean_power(&out[4..]);
        assert!(
            out_power < tag_power * 0.01,
            "tag should be (wrongly) cancelled: {out_power:e} vs {tag_power:e}"
        );
    }

    #[test]
    fn short_window_returns_none() {
        let x = vec![Complex::ONE; 10];
        let y = vec![Complex::ONE; 10];
        assert!(DigitalCanceller::train(&x, &y, 16, 1e-6).is_none());
    }
}
