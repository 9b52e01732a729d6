//! The composed two-stage cancellation pipeline, including the ADC.
//!
//! RF chain: `y_rx → (− analog reconstruction) → AGC+ADC → (− digital
//! reconstruction) → clean baseband`. The digital stage trains on the
//! protocol's silent window.

use crate::analog::{AnalogCanceller, AnalogConfig};
use crate::digital::DigitalCanceller;
use backfi_chan::frontend::Adc;
use backfi_dsp::{stats, Complex};

/// Full canceller configuration.
#[derive(Clone, Copy, Debug)]
pub struct CancellerConfig {
    /// Analog stage settings.
    pub analog: AnalogConfig,
    /// Digital FIR length (must cover the environment delay spread).
    pub digital_taps: usize,
    /// LS regularization for digital training.
    pub ridge: f64,
    /// ADC resolution in bits.
    pub adc_bits: u32,
    /// AGC headroom in dB above the RMS of the post-analog signal.
    pub agc_headroom_db: f64,
    /// Set `false` to bypass the analog stage (ablation).
    pub analog_enabled: bool,
    /// Set `false` to bypass the digital stage (ablation).
    pub digital_enabled: bool,
}

impl Default for CancellerConfig {
    fn default() -> Self {
        CancellerConfig {
            analog: AnalogConfig::default(),
            digital_taps: 28,
            ridge: 1e-7,
            adc_bits: 12,
            agc_headroom_db: 12.0,
            analog_enabled: true,
            digital_enabled: true,
        }
    }
}

/// Outcome of one cancellation run.
#[derive(Clone, Debug)]
pub struct CancellerReport {
    /// Cleaned baseband samples (same length as the input).
    pub samples: Vec<Complex>,
    /// Input self-interference power (dB, simulator units) over the silent
    /// window.
    pub input_si_db: f64,
    /// Residual power over the silent window after both stages.
    pub residual_db: f64,
    /// Total cancellation achieved (dB).
    pub cancellation_db: f64,
    /// Fraction of post-analog samples that clipped in the ADC.
    pub adc_clip_fraction: f64,
    /// Maximal runs of consecutive clipped samples (sorted, disjoint).
    /// Saturation transients show up here as long runs; the reader marks
    /// heavily clipped symbol windows as erasures.
    pub clip_ranges: Vec<std::ops::Range<usize>>,
}

/// The reader's self-interference canceller.
#[derive(Clone, Debug)]
pub struct SelfInterferenceCanceller {
    cfg: CancellerConfig,
    analog: AnalogCanceller,
}

impl SelfInterferenceCanceller {
    /// Build with the analog stage tuned against the (converged-tuning view
    /// of the) environment response.
    pub fn new(cfg: CancellerConfig, h_env: &[Complex]) -> Self {
        let analog = if cfg.analog_enabled {
            AnalogCanceller::tuned(h_env, cfg.analog)
        } else {
            AnalogCanceller::disabled()
        };
        SelfInterferenceCanceller { cfg, analog }
    }

    /// Run cancellation over a packet.
    ///
    /// * `x_clean` — transmitted baseband (with TX power applied),
    /// * `y_rx` — received samples (same length),
    /// * `silent` — sample range within which the tag is known silent
    ///   (used to train the digital stage and to report residuals).
    ///
    /// Returns `None` when digital training fails (window too short).
    /// Allocating wrapper over [`SelfInterferenceCanceller::process_with`].
    pub fn process(
        &self,
        x_clean: &[Complex],
        y_rx: &[Complex],
        silent: std::ops::Range<usize>,
    ) -> Option<CancellerReport> {
        self.process_with(x_clean, y_rx, silent, &mut SicScratch::default())
    }

    /// [`SelfInterferenceCanceller::process`] over reusable buffers: the
    /// analog stage subtracts its model into `scratch`'s post-analog buffer,
    /// the ADC quantizes that buffer in place after its clip scan, and the
    /// digital stage subtracts into the recycled output buffer that the
    /// report's `samples` then owns. Hand it back with
    /// [`SicScratch::recycle`] once the report is consumed.
    pub fn process_with(
        &self,
        x_clean: &[Complex],
        y_rx: &[Complex],
        silent: std::ops::Range<usize>,
        scratch: &mut SicScratch,
    ) -> Option<CancellerReport> {
        assert_eq!(x_clean.len(), y_rx.len(), "length mismatch");
        assert!(silent.end <= y_rx.len(), "silent window out of range");
        let input_si_db = stats::db(stats::mean_power(&y_rx[silent.clone()]));

        // Stage 1: analog subtraction.
        let after_analog = &mut scratch.analog;
        {
            let _t = backfi_obs::span("sic.analog");
            self.analog.cancel_into(x_clean, y_rx, after_analog);
        }
        if backfi_obs::enabled() {
            // Residual power after the analog stage alone — the Fig. 11a
            // attribution probe (how much work is left for the ADC+digital
            // chain). Measured over the silent window, obs-gated because it
            // is an extra pass the pipeline itself never needs.
            backfi_obs::probe(
                "sic.after_analog_db",
                stats::db(stats::mean_power(&after_analog[silent.clone()])),
            );
            backfi_obs::probe("sic.input_si_db", input_si_db);
        }

        // AGC + ADC, quantizing the post-analog buffer in place.
        let (adc_clip_fraction, clip_ranges) = {
            let _t = backfi_obs::span("sic.adc");
            let rms = stats::rms(after_analog);
            let full_scale = rms * 10f64.powf(self.cfg.agc_headroom_db / 20.0);
            let adc = Adc {
                bits: self.cfg.adc_bits,
                full_scale: full_scale.max(1e-30),
            };
            let (adc_clip_fraction, clip_ranges) = adc.clip_scan(after_analog);
            backfi_obs::probe("sic.adc_clip_fraction", adc_clip_fraction);
            adc.quantize(after_analog);
            (adc_clip_fraction, clip_ranges)
        };
        let digitized = &scratch.analog;

        // Stage 2: digital subtraction, trained on the silent window.
        let samples = if self.cfg.digital_enabled {
            let _t = backfi_obs::span("sic.digital");
            let dig = {
                let _t = backfi_obs::span("sic.digital.train");
                DigitalCanceller::train(
                    &x_clean[silent.clone()],
                    &digitized[silent.clone()],
                    self.cfg.digital_taps,
                    self.cfg.ridge,
                )?
            };
            let _t = backfi_obs::span("sic.digital.apply");
            let mut samples = std::mem::take(&mut scratch.samples);
            dig.cancel_into(x_clean, digitized, &mut samples);
            samples
        } else {
            std::mem::take(&mut scratch.analog)
        };

        let residual_db = stats::db(stats::mean_power(
            &samples[trim(&silent, self.cfg.digital_taps)],
        ));
        backfi_obs::probe("sic.residual_db", residual_db);
        Some(CancellerReport {
            cancellation_db: input_si_db - residual_db,
            input_si_db,
            residual_db,
            adc_clip_fraction,
            clip_ranges,
            samples,
        })
    }
}

/// The canceller's excitation-length buffers, kept by a caller that
/// cancels many packets so each run reuses their capacity: the post-analog
/// signal (digitized in place) and a recycled output buffer.
#[derive(Debug, Default)]
pub struct SicScratch {
    analog: Vec<Complex>,
    samples: Vec<Complex>,
}

impl SicScratch {
    /// Return a report's `samples` buffer for the next
    /// [`SelfInterferenceCanceller::process_with`] to overwrite; the larger
    /// of it and the buffer already held is kept.
    pub fn recycle(&mut self, samples: Vec<Complex>) {
        if samples.capacity() > self.samples.capacity() {
            self.samples = samples;
        }
    }
}

/// Skip the filter-settling prefix of the silent window when measuring
/// residuals.
fn trim(silent: &std::ops::Range<usize>, taps: usize) -> std::ops::Range<usize> {
    let start = (silent.start + taps).min(silent.end);
    start..silent.end
}

#[cfg(test)]
mod tests {
    use super::*;
    use backfi_dsp::fir::filter;
    use backfi_dsp::noise::{add_noise, cgauss_vec};
    use backfi_dsp::rng::SplitMix64;
    use backfi_dsp::stats::{db, mean_power};

    /// Build a synthetic scene: strong SI channel + noise, no tag.
    fn scene(seed: u64, n: usize, noise: f64) -> (Vec<Complex>, Vec<Complex>, Vec<Complex>) {
        let mut rng = SplitMix64::new(seed);
        let x = cgauss_vec(&mut rng, n, 10.0); // ~10 dBm
        let mut h_env = vec![Complex::ZERO; 20];
        h_env[0] = Complex::new(0.08, -0.05); // leakage
        for (i, t) in h_env.iter_mut().enumerate().skip(1) {
            let a = 0.004 * (-(i as f64) / 5.0).exp();
            *t = Complex::new(a, -a * 0.5);
        }
        let mut y = filter(&h_env, &x);
        add_noise(&mut rng, &mut y, noise);
        (x, y, h_env)
    }

    #[test]
    fn two_stage_reaches_near_noise_floor() {
        let noise = 1e-9; // -90 dBm
        let (x, y, h_env) = scene(1, 4000, noise);
        let c = SelfInterferenceCanceller::new(CancellerConfig::default(), &h_env);
        let rep = c.process(&x, &y, 0..320).unwrap();
        assert!(
            rep.adc_clip_fraction < 0.01,
            "clip {}",
            rep.adc_clip_fraction
        );
        let excess = rep.residual_db - db(noise);
        assert!(
            excess < 3.0,
            "residual {} dB vs floor {} dB",
            rep.residual_db,
            db(noise)
        );
        assert!(rep.cancellation_db > 55.0, "total {}", rep.cancellation_db);
    }

    #[test]
    fn without_analog_stage_adc_saturates() {
        let noise = 1e-9;
        let (x, y, h_env) = scene(2, 4000, noise);
        let cfg = CancellerConfig {
            analog_enabled: false,
            ..Default::default()
        };
        let c = SelfInterferenceCanceller::new(cfg, &h_env);
        let rep = c.process(&x, &y, 0..320).unwrap();
        // AGC scales to the huge SI, so quantization noise swamps everything:
        // residual sits far above the thermal floor.
        let excess = rep.residual_db - db(noise);
        assert!(excess > 10.0, "expected degraded floor, excess {excess} dB");
    }

    #[test]
    fn without_digital_stage_residual_is_large() {
        let noise = 1e-9;
        let (x, y, h_env) = scene(3, 4000, noise);
        let cfg = CancellerConfig {
            digital_enabled: false,
            ..Default::default()
        };
        let c = SelfInterferenceCanceller::new(cfg, &h_env);
        let rep = c.process(&x, &y, 0..320).unwrap();
        let excess = rep.residual_db - db(noise);
        assert!(
            excess > 20.0,
            "analog alone should leave residue: {excess} dB"
        );
    }

    #[test]
    fn preserves_a_backscatter_signal_outside_the_silent_window() {
        let noise = 1e-12;
        let (x, mut y, h_env) = scene(4, 6000, noise);
        // Inject a BPSK-modulated tag signal after sample 1000.
        let h_fb = vec![Complex::new(3e-5, 1e-5)];
        let tag_in = filter(&h_fb, &x);
        let tag: Vec<Complex> = tag_in
            .iter()
            .enumerate()
            .map(|(i, v)| {
                if i < 1000 {
                    Complex::ZERO
                } else if (i / 40) % 2 == 0 {
                    *v
                } else {
                    -*v
                }
            })
            .collect();
        for (a, b) in y.iter_mut().zip(&tag) {
            *a += *b;
        }
        let c = SelfInterferenceCanceller::new(CancellerConfig::default(), &h_env);
        let rep = c.process(&x, &y, 0..900).unwrap();
        let out_power = mean_power(&rep.samples[1000..]);
        let tag_power = mean_power(&tag[1000..]);
        // The cleaned signal should be tag-dominated (within ~3 dB).
        assert!(
            db(out_power / tag_power).abs() < 3.0,
            "out {out_power:e} tag {tag_power:e}"
        );
    }

    #[test]
    fn clip_ranges_account_for_every_clipped_sample() {
        // A blocker transient far above the stream rms rails the ADC (the
        // AGC tracks the whole-packet rms, not the burst). The reported runs
        // must cover exactly the clipped fraction and be maximal (sorted,
        // with a gap between consecutive runs) and include the burst span.
        let (x, mut y, h_env) = scene(6, 4000, 1e-9);
        let burst = 2000..2040;
        let amp = 1e3 * stats::rms(&y);
        for v in &mut y[burst.clone()] {
            *v = Complex::new(amp, -amp);
        }
        let cfg = CancellerConfig {
            analog_enabled: false,
            ..Default::default()
        };
        let c = SelfInterferenceCanceller::new(cfg, &h_env);
        let rep = c.process(&x, &y, 0..320).unwrap();
        let total: usize = rep.clip_ranges.iter().map(|r| r.len()).sum();
        assert!(total >= burst.len(), "burst should saturate: {total}");
        assert!((total as f64 / rep.samples.len() as f64 - rep.adc_clip_fraction).abs() < 1e-12);
        for w in rep.clip_ranges.windows(2) {
            assert!(w[0].end < w[1].start, "runs must be maximal and sorted");
        }
        assert!(
            rep.clip_ranges
                .iter()
                .any(|r| r.start <= burst.start && r.end >= burst.end),
            "one maximal run must cover the burst: {:?}",
            rep.clip_ranges
        );
    }

    #[test]
    fn process_with_reused_scratch_matches_process_bitwise() {
        let bits = |v: &[Complex]| -> Vec<(u64, u64)> {
            v.iter().map(|c| (c.re.to_bits(), c.im.to_bits())).collect()
        };
        let mut scratch = SicScratch::default();
        for (seed, n, analog) in [(7u64, 5000usize, true), (8, 2000, true), (9, 3000, false)] {
            let (x, y, h_env) = scene(seed, n, 1e-9);
            let cfg = CancellerConfig {
                analog_enabled: analog,
                ..Default::default()
            };
            let c = SelfInterferenceCanceller::new(cfg, &h_env);
            let want = c.process(&x, &y, 0..320).unwrap();
            let got = c.process_with(&x, &y, 0..320, &mut scratch).unwrap();
            assert_eq!(bits(&got.samples), bits(&want.samples));
            assert_eq!(got.residual_db.to_bits(), want.residual_db.to_bits());
            assert_eq!(got.clip_ranges, want.clip_ranges);
            scratch.recycle(got.samples);
        }
    }

    #[test]
    fn report_powers_are_consistent() {
        let (x, y, h_env) = scene(5, 3000, 1e-9);
        let c = SelfInterferenceCanceller::new(CancellerConfig::default(), &h_env);
        let rep = c.process(&x, &y, 0..320).unwrap();
        assert!((rep.cancellation_db - (rep.input_si_db - rep.residual_db)).abs() < 1e-9);
        assert_eq!(rep.samples.len(), y.len());
    }
}
