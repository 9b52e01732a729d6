//! The composed two-stage cancellation pipeline, including the ADC.
//!
//! RF chain: `y_rx → (− analog reconstruction) → AGC+ADC → (− digital
//! reconstruction) → clean baseband`. The digital stage trains on the
//! protocol's silent window.

use crate::analog::{AnalogCanceller, AnalogConfig};
use crate::digital::DigitalCanceller;
use crate::estimator::FirPlan;
use backfi_chan::frontend::{Adc, RxSource};
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
    /// AGC headroom in dB above the RMS of the post-analog signal over the
    /// silent window.
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
    /// Cleaned baseband samples: every input sample from
    /// [`SelfInterferenceCanceller::process`]; from
    /// [`SelfInterferenceCanceller::process_with`], the prefix it was asked
    /// for, grown by [`CancellerReport::extend`].
    pub samples: Vec<Complex>,
    /// Input self-interference power (dB, simulator units) over the silent
    /// window.
    pub input_si_db: f64,
    /// Residual power over the silent window after both stages.
    pub residual_db: f64,
    /// Total cancellation achieved (dB).
    pub cancellation_db: f64,
    /// Maximal runs of consecutive clipped samples (sorted, disjoint) over
    /// the samples the ADC's clip scan has covered, which reach at least
    /// through `samples` and never end inside a run: a run still open where
    /// the cancelled prefix ends is read to its end. Saturation transients
    /// show up here as long runs; the reader marks heavily clipped symbol
    /// windows as erasures.
    pub clip_ranges: Vec<std::ops::Range<usize>>,
    /// The ADC the AGC set for the packet.
    adc: Adc,
    /// The analog stage, kept so [`CancellerReport::extend`] can cancel
    /// further samples.
    analog: AnalogCanceller,
    /// The trained digital stage (`None` when it is disabled).
    digital: Option<DigitalCanceller>,
    /// Samples the clip scan has covered, and how many of them clipped.
    scanned: usize,
    clipped: usize,
}

impl CancellerReport {
    /// Fraction of the post-analog samples the clip scan has covered that
    /// clipped in the ADC (over the whole packet from
    /// [`SelfInterferenceCanceller::process`]).
    pub fn adc_clip_fraction(&self) -> f64 {
        if self.scanned == 0 {
            0.0
        } else {
            self.clipped as f64 / self.scanned as f64
        }
    }

    /// Cancel further samples: grow `samples` to the first `end` samples of
    /// the packet, pulling from `y_rx` what the analog stage and the clip
    /// scan read. `x_clean`, `y_rx` and `scratch` must be the ones
    /// [`SelfInterferenceCanceller::process_with`] ran on, with nothing else
    /// run through `scratch` since. Every sample is bit-identical to the
    /// same sample of a whole-packet run (see `process_with`). A no-op when
    /// `end <= samples.len()`.
    ///
    /// # Panics
    /// Panics if `end` exceeds the packet length, or if `scratch` was
    /// digitized to another point than this report's `samples`.
    pub fn extend(
        &mut self,
        x_clean: &[Complex],
        y_rx: &mut dyn RxSource,
        end: usize,
        scratch: &mut SicScratch,
    ) {
        let start = self.samples.len();
        if end <= start {
            return;
        }
        assert!(end <= x_clean.len(), "end out of range");
        assert_eq!(
            scratch.digitized, start,
            "the scratch was digitized for another report"
        );
        {
            let _t = backfi_obs::span("sic.adc");
            self.digitize_to(x_clean, y_rx, end, scratch);
        }
        match &self.digital {
            Some(dig) => {
                let _t = backfi_obs::span("sic.digital.apply");
                dig.cancel_extend(x_clean, &scratch.analog, end, &mut self.samples);
            }
            None => self.samples.extend_from_slice(&scratch.analog[start..end]),
        }
    }

    /// Digitize the post-analog signal through sample `end`: analog-cancel
    /// as far as the clip scan reads, scan for clipping (on past `end`
    /// while a run is open, so the scan never ends inside a run), then
    /// quantize in place. The scan runs before the quantize, which rounds
    /// near-full-scale samples onto the rails.
    fn digitize_to(
        &mut self,
        x_clean: &[Complex],
        y_rx: &mut dyn RxSource,
        end: usize,
        scratch: &mut SicScratch,
    ) {
        /// Samples read past the end per step while a clipped run is open.
        const READ_PAST: usize = 64;
        let n = x_clean.len();
        let mut to = end;
        loop {
            let y = y_rx.pull(to);
            self.analog
                .cancel_extend(x_clean, y, to, &mut scratch.analog);
            if self.scanned < to {
                self.clipped +=
                    self.adc
                        .clip_scan(&scratch.analog[..to], self.scanned, &mut self.clip_ranges);
                self.scanned = to;
            }
            let open = self
                .clip_ranges
                .last()
                .is_some_and(|r| r.end == self.scanned);
            if !open || self.scanned == n {
                break;
            }
            to = (self.scanned + READ_PAST).min(n);
        }
        if end > scratch.digitized {
            self.adc
                .quantize(&mut scratch.analog[scratch.digitized..end]);
            scratch.digitized = end;
        }
    }
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
    ///   (used to set the AGC, to train the digital stage and to report
    ///   residuals).
    ///
    /// Returns `None` when digital training fails (window too short).
    /// Allocating wrapper over [`SelfInterferenceCanceller::process_with`],
    /// cancelling every sample.
    pub fn process(
        &self,
        x_clean: &[Complex],
        mut y_rx: &[Complex],
        silent: std::ops::Range<usize>,
    ) -> Option<CancellerReport> {
        let n = y_rx.len();
        self.process_with(x_clean, &mut y_rx, silent, n, &mut SicScratch::default())
    }

    /// [`SelfInterferenceCanceller::process`] over reusable buffers, and
    /// only as far as the caller needs: the report's `samples` cover the
    /// first `end` samples (at least through the silent window), and
    /// [`CancellerReport::extend`] cancels more later. `y_rx` is pulled
    /// only as far as that reads.
    ///
    /// Every stage is causal, so a prefix of the output is bit-identical to
    /// the same samples of the whole, and a report extended to the packet
    /// length equals the one `process` returns:
    /// * the analog stage subtracts its causal FIR model into `scratch`'s
    ///   post-analog buffer;
    /// * the AGC sets the ADC's full scale once, from the rms of the
    ///   post-analog samples over the silent window (nothing after its
    ///   end), and holds it for the packet, as a front end settles its gain
    ///   before the tag speaks;
    /// * the ADC scans that buffer for clipping and then quantizes it in
    ///   place (the scan runs on while a clipped run is open, see
    ///   [`CancellerReport::clip_ranges`]);
    /// * the digital stage, trained on the silent window, subtracts its
    ///   causal FIR model into the recycled output buffer that the report's
    ///   `samples` then owns.
    ///
    /// Hand `samples` back with [`SicScratch::recycle`] once the report is
    /// consumed.
    ///
    /// # Panics
    /// Panics if the lengths differ, or `silent` or `end` run past the
    /// packet.
    pub fn process_with(
        &self,
        x_clean: &[Complex],
        y_rx: &mut dyn RxSource,
        silent: std::ops::Range<usize>,
        end: usize,
        scratch: &mut SicScratch,
    ) -> Option<CancellerReport> {
        let n = x_clean.len();
        assert_eq!(n, y_rx.packet_len(), "length mismatch");
        assert!(silent.end <= n, "silent window out of range");
        assert!(end <= n, "end out of range");
        let end = end.max(silent.end);
        let y = y_rx.pull(end);
        let input_si_db = stats::db(stats::mean_power(&y[silent.clone()]));

        // Stage 1: analog subtraction through the silent window.
        let after_analog = &mut scratch.analog;
        after_analog.clear();
        {
            let _t = backfi_obs::span("sic.analog");
            self.analog
                .cancel_extend(x_clean, y, silent.end, after_analog);
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

        // AGC + ADC: full scale from the silent window's post-analog rms,
        // then clip scan and quantize over the prefix.
        let rms = stats::rms(&after_analog[silent.clone()]);
        let full_scale = rms * 10f64.powf(self.cfg.agc_headroom_db / 20.0);
        let mut samples = std::mem::take(&mut scratch.samples);
        samples.clear();
        let mut rep = CancellerReport {
            samples,
            input_si_db,
            residual_db: 0.0,
            cancellation_db: 0.0,
            clip_ranges: Vec::new(),
            adc: Adc {
                bits: self.cfg.adc_bits,
                full_scale: full_scale.max(1e-30),
            },
            analog: self.analog.clone(),
            digital: None,
            scanned: 0,
            clipped: 0,
        };
        scratch.digitized = 0;
        {
            let _t = backfi_obs::span("sic.adc");
            rep.digitize_to(x_clean, y_rx, end, scratch);
        }
        let digitized = &scratch.analog;

        // Stage 2: digital subtraction, trained on the silent window.
        if self.cfg.digital_enabled {
            let _t = backfi_obs::span("sic.digital");
            // `train` records its own `sic.digital.train` span.
            let dig = DigitalCanceller::train_with(
                &x_clean[silent.clone()],
                &digitized[silent.clone()],
                self.cfg.digital_taps,
                self.cfg.ridge,
                &mut scratch.plan,
            );
            let Some(dig) = dig else {
                scratch.samples = rep.samples;
                return None;
            };
            let _t = backfi_obs::span("sic.digital.apply");
            dig.cancel_extend(x_clean, digitized, end, &mut rep.samples);
            rep.digital = Some(dig);
        } else {
            rep.samples.extend_from_slice(&digitized[..end]);
        }

        rep.residual_db = stats::db(stats::mean_power(
            &rep.samples[trim(&silent, self.cfg.digital_taps)],
        ));
        rep.cancellation_db = input_si_db - rep.residual_db;
        backfi_obs::probe("sic.residual_db", rep.residual_db);
        Some(rep)
    }
}

/// What the canceller keeps across the packets of a caller that cancels
/// many: the excitation-length buffers, so each run reuses their capacity
/// (the post-analog signal, digitized in place with the ADC the AGC set for
/// the packet as far as the packet's report has been cancelled and analog
/// beyond, and a recycled output buffer), and the digital stage's
/// silent-window [`FirPlan`], reused while the silent window's `x_clean`
/// is the same bit for bit.
#[derive(Debug, Default)]
pub struct SicScratch {
    analog: Vec<Complex>,
    /// `analog[..digitized]` is quantized, the rest still analog.
    digitized: usize,
    samples: Vec<Complex>,
    plan: Option<FirPlan>,
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
            rep.adc_clip_fraction() < 0.01,
            "clip {}",
            rep.adc_clip_fraction()
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
        // AGC set its gain on the silent window, before the burst). The reported runs
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
        assert!((total as f64 / rep.samples.len() as f64 - rep.adc_clip_fraction()).abs() < 1e-12);
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
        // (transmission seed, reception seed, …): the last case keeps the
        // transmission of the case before it, and so the digital stage's
        // plan, with another received signal.
        let cases = [
            (7u64, 7u64, 5000usize, true),
            (8, 8, 2000, true),
            (9, 9, 3000, false),
            (9, 10, 3000, false),
        ];
        for (tx_seed, rx_seed, n, analog) in cases {
            let (x, _, h_env) = scene(tx_seed, n, 1e-9);
            let (_, y, _) = scene(rx_seed, n, 1e-9);
            let cfg = CancellerConfig {
                analog_enabled: analog,
                ..Default::default()
            };
            let c = SelfInterferenceCanceller::new(cfg, &h_env);
            let want = c.process(&x, &y, 0..320).unwrap();
            let got = c
                .process_with(&x, &mut &y[..], 0..320, n, &mut scratch)
                .unwrap();
            assert_eq!(bits(&got.samples), bits(&want.samples));
            assert_eq!(got.residual_db.to_bits(), want.residual_db.to_bits());
            assert_eq!(got.clip_ranges, want.clip_ranges);
            scratch.recycle(got.samples);
        }
    }

    /// A received stream that records how far it was pulled.
    struct Counted<'a> {
        y: &'a [Complex],
        pulled: usize,
    }

    impl RxSource for Counted<'_> {
        fn packet_len(&self) -> usize {
            self.y.len()
        }

        fn pull(&mut self, end: usize) -> &[Complex] {
            self.pulled = self.pulled.max(end.min(self.y.len()));
            &self.y[..self.pulled]
        }
    }

    /// A report cancelled over a prefix and extended in steps equals the
    /// whole-packet report bit for bit, with either stage bypassed and with
    /// a clipping burst that straddles an extension's end. The front end is
    /// causal: the AGC sets its gain on the silent window, so a late
    /// clipping burst changes no sample before it, and the received stream
    /// is pulled only as far as the report reads, plus the end of a clipped
    /// run that is open where an extension ends.
    #[test]
    fn extended_prefix_matches_process_bitwise() {
        let bits = |v: &[Complex]| -> Vec<(u64, u64)> {
            v.iter().map(|c| (c.re.to_bits(), c.im.to_bits())).collect()
        };
        let mut scratch = SicScratch::default();
        for (seed, analog, digital) in [(11u64, true, true), (12, false, true), (13, true, false)] {
            let n = 4000;
            let (x, clean, h_env) = scene(seed, n, 1e-9);
            let amp = 1e3 * stats::rms(&clean);
            let mut y = clean.clone();
            y[990..1030].fill(Complex::new(amp, -amp));
            y[3500..3540].fill(Complex::new(amp, -amp));
            let cfg = CancellerConfig {
                analog_enabled: analog,
                digital_enabled: digital,
                ..Default::default()
            };
            let c = SelfInterferenceCanceller::new(cfg, &h_env);
            let want = c.process(&x, &y, 0..320).unwrap();
            let mut rx = Counted { y: &y, pulled: 0 };
            let mut got = c
                .process_with(&x, &mut rx, 0..320, 100, &mut scratch)
                .unwrap();
            assert_eq!(
                got.samples.len(),
                320,
                "the silent window is always cancelled"
            );
            assert_eq!(rx.pulled, 320, "pulled past the silent window");
            got.extend(&x, &mut rx, 1001, &mut scratch);
            got.extend(&x, &mut rx, 999, &mut scratch);
            assert_eq!(got.samples.len(), 1001);
            assert!(
                (1030..1030 + 64).contains(&rx.pulled),
                "the burst open at 1001 is read to its end: {}",
                rx.pulled
            );
            assert_eq!(got.clip_ranges.last(), Some(&(990..1030)));
            assert_eq!(bits(&got.samples), bits(&want.samples[..1001]));
            got.extend(&x, &mut rx, n, &mut scratch);
            assert_eq!(bits(&got.samples), bits(&want.samples));
            assert_eq!(got.residual_db.to_bits(), want.residual_db.to_bits());
            assert_eq!(
                got.adc_clip_fraction().to_bits(),
                want.adc_clip_fraction().to_bits()
            );
            assert_eq!(got.clip_ranges, want.clip_ranges);
            scratch.recycle(got.samples);

            // Causal gain: without the late burst every earlier sample is
            // the same, and only the burst's run is missing.
            let mut early = clean;
            early[990..1030].fill(Complex::new(amp, -amp));
            let early = c.process(&x, &early, 0..320).unwrap();
            assert_eq!(bits(&early.samples[..3500]), bits(&want.samples[..3500]));
            assert_eq!(
                early.clip_ranges[..],
                want.clip_ranges[..want.clip_ranges.len() - 1]
            );
            assert!(want.clip_ranges.last().unwrap().start >= 3500);
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
