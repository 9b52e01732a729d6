//! Deterministic, seeded impairment injection — the off-nominal conditions
//! the paper's clean testbed avoids.
//!
//! Every knob models a failure mode a deployed BackFi link meets in the wild:
//!
//! * **tag clock drift** — the tag's cheap oscillator runs fast/slow, so its
//!   reflection timeline stretches relative to the reader's sample clock,
//! * **timing desync** — a static offset between the tag's notion of
//!   "excitation detected" and the reader's nominal timeline,
//! * **residual CFO** — an uncompensated frequency offset in the reader's
//!   receive chain rotating the whole baseband (SI included, so the
//!   LTI digital canceller degrades too),
//! * **bursty co-channel interference** — other WiFi transmitters keying up
//!   mid-packet,
//! * **ADC saturation transients** — a strong in-band blocker railing the
//!   front end for a few microseconds,
//! * **impulsive noise** — single-sample spikes (relay chatter, ignition),
//! * **truncation** — the sample stream cuts out early (DMA overrun),
//! * **non-finite corruption** — a burst of NaN samples from a flaky
//!   capture chain.
//!
//! All randomness is derived from the per-job seed through per-mode
//! [`SplitMix64`] sub-streams, so impaired waveforms are bit-identical for
//! any worker count and enabling one mode never shifts another mode's draws.
//! The default configuration is **all-off** and [`Impairments::apply_rx`]
//! then returns without touching the buffer or drawing a single random
//! number — existing figure output stays byte-identical.

use backfi_dsp::noise::cgauss;
use backfi_dsp::rng::SplitMix64;
use backfi_dsp::{Complex, SAMPLE_RATE_HZ};

/// Salt separating impairment streams from the medium's channel/noise
/// streams, which consume the raw job seed.
const IMPAIR_SALT: u64 = 0xC0FF_EE00_BAD5_EED5;

/// One injectable failure mode (see module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ImpairmentMode {
    /// Tag oscillator ppm error stretching the reflection timeline.
    ClockDrift,
    /// Static tag↔reader timeline offset.
    TimingDesync,
    /// Residual receive-chain carrier frequency offset.
    Cfo,
    /// Bursty co-channel WiFi interference.
    Interference,
    /// ADC saturation transient from an in-band blocker.
    Saturation,
    /// Impulsive (single-sample) noise spikes.
    Impulse,
    /// Early truncation of the sample stream.
    Truncate,
    /// A run of non-finite (NaN) samples.
    NonFinite,
}

impl ImpairmentMode {
    /// Every mode, in canonical order (fault matrices iterate this).
    pub const ALL: [ImpairmentMode; 8] = [
        ImpairmentMode::ClockDrift,
        ImpairmentMode::TimingDesync,
        ImpairmentMode::Cfo,
        ImpairmentMode::Interference,
        ImpairmentMode::Saturation,
        ImpairmentMode::Impulse,
        ImpairmentMode::Truncate,
        ImpairmentMode::NonFinite,
    ];

    /// Stable short name (CLI/env spec token and report label).
    pub fn name(self) -> &'static str {
        match self {
            ImpairmentMode::ClockDrift => "drift",
            ImpairmentMode::TimingDesync => "desync",
            ImpairmentMode::Cfo => "cfo",
            ImpairmentMode::Interference => "interference",
            ImpairmentMode::Saturation => "saturation",
            ImpairmentMode::Impulse => "impulse",
            ImpairmentMode::Truncate => "truncate",
            ImpairmentMode::NonFinite => "nonfinite",
        }
    }

    /// Index of this mode's dedicated random sub-stream.
    fn stream(self) -> u64 {
        ImpairmentMode::ALL.iter().position(|&m| m == self).unwrap() as u64
    }
}

/// The per-mode RNG: a pure function of `(job seed, mode)`, decorrelated
/// from the medium's streams by [`IMPAIR_SALT`].
fn mode_rng(seed: u64, mode: ImpairmentMode) -> SplitMix64 {
    SplitMix64::new(SplitMix64::derive(seed ^ IMPAIR_SALT, mode.stream()))
}

/// Uniform draw in `[-1, 1)`.
fn pm1(rng: &mut SplitMix64) -> f64 {
    2.0 * rng.next_f64() - 1.0
}

/// Impairment configuration — every primary knob at `0.0` disables its mode.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Impairments {
    /// Max |tag clock error| in ppm; the per-trial error is uniform ±.
    pub clock_drift_ppm: f64,
    /// Max |static timeline offset| in µs; per-trial uniform ±.
    pub timing_desync_us: f64,
    /// Max |residual CFO| in Hz; per-trial uniform ±.
    pub cfo_hz: f64,
    /// Interference burst power relative to the thermal floor (linear);
    /// `0.0` disables the interferer.
    pub interference_rel: f64,
    /// Fraction of the packet covered by interference bursts.
    pub interference_duty: f64,
    /// Length of one interference burst, µs.
    pub interference_burst_us: f64,
    /// Probability of one saturation transient per packet.
    pub saturation_prob: f64,
    /// Duration of the saturation transient, µs.
    pub saturation_us: f64,
    /// Blocker amplitude as a multiple of the packet RMS.
    pub saturation_gain: f64,
    /// Expected impulsive-noise spikes per packet.
    pub impulse_per_packet: f64,
    /// Impulse power relative to the thermal floor (linear).
    pub impulse_rel: f64,
    /// Probability the sample stream truncates (tail zeroed).
    pub truncate_prob: f64,
    /// Probability of a short NaN burst in the stream.
    pub nonfinite_prob: f64,
}

impl Default for Impairments {
    fn default() -> Self {
        Impairments::off()
    }
}

impl Impairments {
    /// Everything disabled (the byte-identical baseline).
    pub fn off() -> Self {
        Impairments {
            clock_drift_ppm: 0.0,
            timing_desync_us: 0.0,
            cfo_hz: 0.0,
            interference_rel: 0.0,
            interference_duty: 0.15,
            interference_burst_us: 25.0,
            saturation_prob: 0.0,
            saturation_us: 10.0,
            saturation_gain: 30.0,
            impulse_per_packet: 0.0,
            impulse_rel: 1e5,
            truncate_prob: 0.0,
            nonfinite_prob: 0.0,
        }
    }

    /// `true` when no mode is active; the injection entry points are then
    /// exact no-ops (no draws, no writes).
    pub fn is_off(&self) -> bool {
        self.clock_drift_ppm == 0.0
            && self.timing_desync_us == 0.0
            && self.cfo_hz == 0.0
            && self.interference_rel == 0.0
            && self.saturation_prob == 0.0
            && self.impulse_per_packet == 0.0
            && self.truncate_prob == 0.0
            && self.nonfinite_prob == 0.0
    }

    /// One mode at a canonical `intensity ∈ [0, 1]` scaling (the fault
    /// matrix's x-axis). Intensity `0` is off; `1` is a severe but physically
    /// plausible level for each mode (drift is accelerated so it matters over
    /// sub-millisecond simulated packets).
    pub fn single(mode: ImpairmentMode, intensity: f64) -> Self {
        let i = intensity.clamp(0.0, 1.0);
        let mut imp = Impairments::off();
        match mode {
            ImpairmentMode::ClockDrift => imp.clock_drift_ppm = 2000.0 * i,
            ImpairmentMode::TimingDesync => imp.timing_desync_us = 4.0 * i,
            ImpairmentMode::Cfo => imp.cfo_hz = 2000.0 * i,
            ImpairmentMode::Interference => {
                imp.interference_rel = if i > 0.0 { 10f64.powf(4.0 * i) } else { 0.0 }
            }
            ImpairmentMode::Saturation => imp.saturation_prob = i,
            ImpairmentMode::Impulse => imp.impulse_per_packet = 30.0 * i,
            ImpairmentMode::Truncate => imp.truncate_prob = i,
            ImpairmentMode::NonFinite => imp.nonfinite_prob = i,
        }
        imp
    }

    /// Every mode at once, each at `intensity`.
    pub fn all(intensity: f64) -> Self {
        ImpairmentMode::ALL
            .iter()
            .fold(Impairments::off(), |acc, &m| {
                acc.merge(&Impairments::single(m, intensity))
            })
    }

    /// Field-wise max of two configurations.
    pub fn merge(&self, other: &Impairments) -> Impairments {
        Impairments {
            clock_drift_ppm: self.clock_drift_ppm.max(other.clock_drift_ppm),
            timing_desync_us: self.timing_desync_us.max(other.timing_desync_us),
            cfo_hz: self.cfo_hz.max(other.cfo_hz),
            interference_rel: self.interference_rel.max(other.interference_rel),
            interference_duty: self.interference_duty.max(other.interference_duty),
            interference_burst_us: self.interference_burst_us.max(other.interference_burst_us),
            saturation_prob: self.saturation_prob.max(other.saturation_prob),
            saturation_us: self.saturation_us.max(other.saturation_us),
            saturation_gain: self.saturation_gain.max(other.saturation_gain),
            impulse_per_packet: self.impulse_per_packet.max(other.impulse_per_packet),
            impulse_rel: self.impulse_rel.max(other.impulse_rel),
            truncate_prob: self.truncate_prob.max(other.truncate_prob),
            nonfinite_prob: self.nonfinite_prob.max(other.nonfinite_prob),
        }
    }

    /// Parse a spec like `"cfo:0.5,drift:1"`, `"all:0.25"` or `"off"`.
    ///
    /// Tokens are `mode[:intensity]` with intensity defaulting to `0.5`;
    /// an intensity that is not a number in `[0, 1]` (NaN, ±∞, negative or
    /// above one) is an error. Modes merge field-wise. Recognized mode
    /// names are the [`ImpairmentMode::name`] tokens plus `all` and `off`.
    pub fn parse(spec: &str) -> Result<Impairments, String> {
        let mut imp = Impairments::off();
        for token in spec.split(',').map(str::trim).filter(|t| !t.is_empty()) {
            let (name, val) = match token.split_once(':') {
                Some((n, v)) => {
                    let i = v
                        .trim()
                        .parse::<f64>()
                        .ok()
                        .filter(|i| (0.0..=1.0).contains(i))
                        .ok_or_else(|| {
                            format!("bad intensity {v:?} in {token:?} (want a number in [0, 1])")
                        })?;
                    (n.trim(), i)
                }
                None => (token, 0.5),
            };
            if name == "off" {
                imp = Impairments::off();
                continue;
            }
            if name == "all" {
                imp = imp.merge(&Impairments::all(val));
                continue;
            }
            let mode = ImpairmentMode::ALL
                .iter()
                .find(|m| m.name() == name)
                .ok_or_else(|| format!("unknown impairment mode {name:?}"))?;
            imp = imp.merge(&Impairments::single(*mode, val));
        }
        Ok(imp)
    }

    /// Warp the tag's reflection timeline for clock drift / desync.
    ///
    /// Models the tag switching its reflection coefficient on its *own*
    /// clock: sample `i` of the reader's timeline sees the coefficient the
    /// tag held at `i − desync − drift·i`. Out-of-range indices read as
    /// no-reflection (the tag hasn't started yet / already stopped).
    ///
    /// Returns `None` (no allocation, no draws) when both modes are off.
    pub fn warp_gamma(&self, gamma: &[Complex], seed: u64) -> Option<Vec<Complex>> {
        if self.clock_drift_ppm == 0.0 && self.timing_desync_us == 0.0 {
            return None;
        }
        let desync = if self.timing_desync_us > 0.0 {
            let mut r = mode_rng(seed, ImpairmentMode::TimingDesync);
            pm1(&mut r) * self.timing_desync_us * 1e-6 * SAMPLE_RATE_HZ
        } else {
            0.0
        };
        let drift = if self.clock_drift_ppm > 0.0 {
            let mut r = mode_rng(seed, ImpairmentMode::ClockDrift);
            pm1(&mut r) * self.clock_drift_ppm * 1e-6
        } else {
            0.0
        };
        let n = gamma.len();
        Some(
            (0..n)
                .map(|i| {
                    let src = (i as f64 - desync - drift * i as f64).round();
                    if src < 0.0 || src >= n as f64 {
                        Complex::ZERO
                    } else {
                        gamma[src as usize]
                    }
                })
                .collect(),
        )
    }

    /// Corrupt the received baseband in place. `noise_power` is the thermal
    /// floor the relative interference/impulse powers scale against.
    ///
    /// Returns a summary of what was injected. Exact no-op when
    /// [`Impairments::is_off`] (and for the two timeline modes, which act in
    /// [`Impairments::warp_gamma`] instead).
    pub fn apply_rx(&self, y: &mut [Complex], noise_power: f64, seed: u64) -> Applied {
        let mut applied = Applied::default();
        let n = y.len();
        if self.is_off() || n == 0 {
            return applied;
        }

        // Residual CFO: rotate everything, SI included.
        if self.cfo_hz > 0.0 {
            let mut r = mode_rng(seed, ImpairmentMode::Cfo);
            let f = pm1(&mut r) * self.cfo_hz;
            let w = std::f64::consts::TAU * f / SAMPLE_RATE_HZ;
            for (i, v) in y.iter_mut().enumerate() {
                *v *= Complex::exp_j(w * i as f64);
            }
            applied.cfo_hz = f;
        }

        // Bursty co-channel interference (wideband, OFDM-like).
        if self.interference_rel > 0.0 && self.interference_duty > 0.0 {
            let mut r = mode_rng(seed, ImpairmentMode::Interference);
            let burst = backfi_dsp::us_to_samples(self.interference_burst_us).max(1);
            let bursts =
                ((self.interference_duty * n as f64 / burst as f64).round() as usize).max(1);
            let power = self.interference_rel * noise_power;
            for _ in 0..bursts {
                let start = r.below(n as u64) as usize;
                let end = (start + burst).min(n);
                for v in &mut y[start..end] {
                    *v += cgauss(&mut r, power);
                }
            }
            applied.bursts = bursts;
        }

        // Impulsive noise: isolated single-sample spikes.
        if self.impulse_per_packet > 0.0 {
            let mut r = mode_rng(seed, ImpairmentMode::Impulse);
            let mut count = self.impulse_per_packet.floor() as usize;
            if r.next_f64() < self.impulse_per_packet.fract() {
                count += 1;
            }
            let power = self.impulse_rel * noise_power;
            for _ in 0..count {
                let pos = r.below(n as u64) as usize;
                y[pos] += cgauss(&mut r, power);
            }
            applied.impulses = count;
        }

        // ADC-railing blocker transient: a strong constant-envelope tone.
        if self.saturation_prob > 0.0 {
            let mut r = mode_rng(seed, ImpairmentMode::Saturation);
            if r.next_f64() < self.saturation_prob {
                let rms = backfi_dsp::stats::rms(y).max(1e-30);
                let amp = self.saturation_gain * rms;
                let dur = backfi_dsp::us_to_samples(self.saturation_us).max(1);
                let start = r.below(n as u64) as usize;
                let end = (start + dur).min(n);
                let f = pm1(&mut r) * 2e6;
                let w = std::f64::consts::TAU * f / SAMPLE_RATE_HZ;
                let phi0 = std::f64::consts::TAU * r.next_f64();
                for (i, v) in y[start..end].iter_mut().enumerate() {
                    *v += Complex::exp_j(w * i as f64 + phi0) * amp;
                }
                applied.saturated = true;
            }
        }

        // Stream truncation: the tail reads as zeros (capture stopped).
        if self.truncate_prob > 0.0 {
            let mut r = mode_rng(seed, ImpairmentMode::Truncate);
            if r.next_f64() < self.truncate_prob {
                let keep = n / 2 + r.below((n / 2).max(1) as u64) as usize;
                for v in &mut y[keep.min(n)..] {
                    *v = Complex::ZERO;
                }
                applied.truncated_at = Some(keep.min(n));
            }
        }

        // Non-finite corruption: a short NaN burst in the payload region.
        if self.nonfinite_prob > 0.0 {
            let mut r = mode_rng(seed, ImpairmentMode::NonFinite);
            if r.next_f64() < self.nonfinite_prob {
                let lo = n / 4;
                let span = (n - lo).max(1);
                let pos = lo + r.below(span as u64) as usize;
                let end = (pos + 8).min(n);
                for v in &mut y[pos..end] {
                    *v = Complex::new(f64::NAN, f64::NAN);
                }
                applied.nonfinite = end - pos;
            }
        }

        applied
    }
}

/// What [`Impairments::apply_rx`] actually injected into one packet.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Applied {
    /// The CFO drawn for this packet, Hz (0 when the mode is off).
    pub cfo_hz: f64,
    /// Number of interference bursts injected.
    pub bursts: usize,
    /// Whether a saturation transient fired.
    pub saturated: bool,
    /// Number of impulsive-noise spikes injected.
    pub impulses: usize,
    /// Sample index the stream truncated at, if it did.
    pub truncated_at: Option<usize>,
    /// Number of samples overwritten with NaN.
    pub nonfinite: usize,
}

impl Applied {
    /// Did any receive-path mode fire on this packet?
    pub fn any(&self) -> bool {
        self != &Applied::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<Complex> {
        (0..n)
            .map(|i| Complex::new(1.0 + i as f64, -(i as f64)))
            .collect()
    }

    #[test]
    fn default_is_off_and_noop() {
        let imp = Impairments::default();
        assert!(imp.is_off());
        let mut y = ramp(64);
        let orig = y.clone();
        let applied = imp.apply_rx(&mut y, 1e-9, 42);
        assert_eq!(applied, Applied::default());
        assert!(!applied.any());
        for (a, b) in y.iter().zip(&orig) {
            assert_eq!(a.re.to_bits(), b.re.to_bits());
            assert_eq!(a.im.to_bits(), b.im.to_bits());
        }
        assert!(imp.warp_gamma(&orig, 42).is_none());
    }

    #[test]
    fn same_seed_is_bit_identical_per_mode() {
        for &mode in &ImpairmentMode::ALL {
            let imp = Impairments::single(mode, 0.8);
            let mut a = ramp(512);
            let mut b = ramp(512);
            let ra = imp.apply_rx(&mut a, 1e-9, 1234);
            let rb = imp.apply_rx(&mut b, 1e-9, 1234);
            assert_eq!(ra, rb, "{}", mode.name());
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.re.to_bits(), y.re.to_bits(), "{}", mode.name());
                assert_eq!(x.im.to_bits(), y.im.to_bits(), "{}", mode.name());
            }
            let wa = imp.warp_gamma(&ramp(512), 1234);
            let wb = imp.warp_gamma(&ramp(512), 1234);
            assert_eq!(wa, wb, "{}", mode.name());
        }
    }

    #[test]
    fn cfo_preserves_magnitude() {
        let imp = Impairments::single(ImpairmentMode::Cfo, 1.0);
        let mut y = ramp(256);
        let orig = y.clone();
        let applied = imp.apply_rx(&mut y, 1e-9, 7);
        assert!(applied.cfo_hz.abs() > 0.0);
        for (a, b) in y.iter().zip(&orig) {
            assert!((a.abs() - b.abs()).abs() < 1e-9 * b.abs().max(1.0));
        }
    }

    #[test]
    fn truncate_zeroes_tail() {
        let imp = Impairments::single(ImpairmentMode::Truncate, 1.0);
        let mut y = ramp(400);
        let applied = imp.apply_rx(&mut y, 1e-9, 5);
        let at = applied.truncated_at.expect("prob 1 must truncate");
        assert!((200..400).contains(&at));
        assert!(y[at..].iter().all(|v| v.re == 0.0 && v.im == 0.0));
        assert!(y[..at].iter().all(|v| v.re != 0.0));
    }

    #[test]
    fn nonfinite_injects_nan_burst() {
        let imp = Impairments::single(ImpairmentMode::NonFinite, 1.0);
        let mut y = ramp(400);
        let applied = imp.apply_rx(&mut y, 1e-9, 5);
        assert_eq!(applied.nonfinite, 8);
        let bad = y.iter().filter(|v| !v.re.is_finite()).count();
        assert_eq!(bad, 8);
    }

    #[test]
    fn saturation_raises_peak() {
        let imp = Impairments::single(ImpairmentMode::Saturation, 1.0);
        let mut y: Vec<Complex> = vec![Complex::new(1.0, 0.0); 1000];
        let applied = imp.apply_rx(&mut y, 1e-9, 3);
        assert!(applied.saturated);
        let peak = y.iter().map(|v| v.abs()).fold(0.0f64, f64::max);
        assert!(peak > 20.0, "blocker should dominate: peak {peak}");
    }

    #[test]
    fn interference_adds_power() {
        let imp = Impairments::single(ImpairmentMode::Interference, 1.0);
        let mut y = vec![Complex::ZERO; 4000];
        let noise = 1e-9;
        let applied = imp.apply_rx(&mut y, noise, 11);
        assert!(applied.bursts >= 1);
        let p = backfi_dsp::stats::mean_power(&y);
        // +40 dB relative bursts at ~15% duty ⇒ mean power well above floor.
        assert!(p > 100.0 * noise, "burst power {p:e} vs floor {noise:e}");
    }

    #[test]
    fn desync_shifts_timeline_most_seeds() {
        let imp = Impairments::single(ImpairmentMode::TimingDesync, 1.0);
        let gamma = ramp(500);
        let mut moved = 0;
        for seed in 0..20u64 {
            let w = imp.warp_gamma(&gamma, seed).unwrap();
            assert_eq!(w.len(), gamma.len());
            if w != gamma {
                moved += 1;
            }
        }
        // ±4 µs uniform: a draw rounding to a 0-sample shift is ~1% likely.
        assert!(moved >= 18, "only {moved}/20 seeds shifted the timeline");
    }

    #[test]
    fn drift_stretches_timeline() {
        let imp = Impairments::single(ImpairmentMode::ClockDrift, 1.0);
        let gamma = ramp(10_000);
        let w = imp.warp_gamma(&gamma, 9).unwrap();
        // 2000 ppm over 10k samples ⇒ up to ±20 samples of stretch at the
        // end while the start stays aligned.
        assert_eq!(w[0], gamma[0]);
        assert_ne!(w[9_999], gamma[9_999]);
    }

    #[test]
    fn spec_parsing() {
        let imp = Impairments::parse("cfo:0.5,drift:1").unwrap();
        assert_eq!(imp.cfo_hz, 1000.0);
        assert_eq!(imp.clock_drift_ppm, 2000.0);
        assert_eq!(imp.timing_desync_us, 0.0);

        let all = Impairments::parse("all:0.25").unwrap();
        assert!(!all.is_off());
        assert!(all.truncate_prob > 0.0 && all.saturation_prob > 0.0);

        assert!(Impairments::parse("off").unwrap().is_off());
        assert!(Impairments::parse("").unwrap().is_off());
        assert_eq!(
            Impairments::parse("interference").unwrap().interference_rel,
            100.0
        );
        assert!(Impairments::parse("bogus:1").is_err());
        assert!(Impairments::parse("cfo:wat").is_err());
        for bad in [
            "cfo:nan",
            "drift:-1",
            "all:inf",
            "saturation:-inf",
            "cfo:1.5",
        ] {
            let err = Impairments::parse(bad).unwrap_err();
            assert!(err.contains("bad intensity"), "{bad}: {err}");
        }
        assert_eq!(Impairments::parse("cfo:0,drift:1").unwrap().cfo_hz, 0.0);
    }

    #[test]
    fn modes_use_independent_streams() {
        // Enabling truncation must not change which samples the NaN burst
        // lands on: each mode draws from its own sub-stream.
        let just_nan = Impairments::single(ImpairmentMode::NonFinite, 1.0);
        let both = just_nan.merge(&Impairments::single(ImpairmentMode::Truncate, 1.0));
        let mut a = ramp(4000);
        let mut b = ramp(4000);
        let ra = just_nan.apply_rx(&mut a, 1e-9, 77);
        let rb = both.apply_rx(&mut b, 1e-9, 77);
        assert_eq!(ra.nonfinite, rb.nonfinite);
        let nan_at = |v: &[Complex]| {
            v.iter()
                .position(|c| !c.re.is_finite())
                .unwrap_or(usize::MAX)
        };
        // NaN injection runs after truncation, so the burst position must
        // agree exactly whether or not the truncate mode is enabled.
        assert!(rb.truncated_at.is_some());
        assert_eq!(nan_at(&a), nan_at(&b));
    }
}
