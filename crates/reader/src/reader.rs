//! The composed BackFi reader (Fig. 5).
//!
//! `decode()` takes the clean transmitted baseband, the raw received samples
//! and the protocol timeline, then runs: two-stage self-interference
//! cancellation (digital stage trained on the silent window) → `h_fb`
//! estimation from the PN preamble (with timing search) → per-symbol MRC →
//! soft-decision Viterbi → frame parse.

use crate::chanest::estimate_h_fb;
use crate::decode::{decode_symbols, LinkMetrics};
use crate::mrc::{mrc_symbol, zf_symbol, SymbolEstimate};
use crate::timeline::Timeline;
use backfi_dsp::{stats, Complex};
use backfi_sic::{CancellerConfig, SelfInterferenceCanceller, SicScratch};
use backfi_tag::config::TagConfig;
use backfi_tag::framer::FrameError;

/// Reader-side settings.
#[derive(Clone, Copy, Debug)]
pub struct ReaderConfig {
    /// Self-interference canceller settings.
    pub canceller: CancellerConfig,
    /// Taps of the combined forward∗backward channel estimate.
    pub fb_taps: usize,
    /// LS regularization for the channel estimate.
    pub ridge: f64,
    /// Timing search span in ±samples around the nominal preamble start
    /// (searched in 1 µs steps plus zero).
    pub timing_span: usize,
    /// Use the naive zero-forcing combiner instead of MRC (ablation).
    pub use_zero_forcing: bool,
}

impl Default for ReaderConfig {
    fn default() -> Self {
        ReaderConfig {
            canceller: CancellerConfig::default(),
            fb_taps: 3,
            ridge: 1e-6,
            timing_span: 40,
            use_zero_forcing: false,
        }
    }
}

/// Why the reader failed to produce symbols.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReaderError {
    /// The digital canceller could not be trained (silent window too short).
    CancellationFailed,
    /// No timing offset yielded a channel estimate.
    ChannelEstimationFailed,
    /// The payload window holds no complete symbol.
    NoSymbols,
    /// The inputs are unusable: non-finite reference/environment samples, or
    /// a received stream that is mostly non-finite (mirrors the
    /// `linalg::solve` guard, but at the pipeline's front door).
    InvalidInput,
}

impl std::fmt::Display for ReaderError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ReaderError::CancellationFailed => "self-interference cancellation failed",
            ReaderError::ChannelEstimationFailed => "forward/backward channel estimation failed",
            ReaderError::NoSymbols => "no complete tag symbols in the payload window",
            ReaderError::InvalidInput => "non-finite samples in the reader inputs",
        };
        f.write_str(s)
    }
}

impl std::error::Error for ReaderError {}

impl ReaderError {
    /// The obs counter attributing this failure to its pipeline stage
    /// (`reader.err.*`); bumped on every error return so CRC-level failure
    /// rates can be decomposed by cause instead of one opaque
    /// `success: false`.
    pub fn obs_counter(&self) -> &'static str {
        match self {
            ReaderError::CancellationFailed => "reader.err.cancellation",
            ReaderError::ChannelEstimationFailed => "reader.err.chanest",
            ReaderError::NoSymbols => "reader.err.no_symbols",
            ReaderError::InvalidInput => "reader.err.invalid_input",
        }
    }
}

/// Count a reader-stage failure and pass the error through (used on every
/// `ReaderError` return path so the attribution counters cannot drift from
/// the error identity).
fn count_err(e: ReaderError) -> ReaderError {
    backfi_obs::counter_add(e.obs_counter(), 1);
    e
}

/// Everything the reader learned from one packet.
#[derive(Clone, Debug)]
pub struct TagDecodeResult {
    /// Parsed tag payload (or why parsing failed — CRC errors etc.).
    pub payload: Result<Vec<u8>, FrameError>,
    /// Raw decoded information bits (for BER measurements).
    pub decoded_bits: Vec<bool>,
    /// Link quality metrics.
    pub metrics: LinkMetrics,
    /// Per-symbol phasors (constellation view).
    pub symbols: Vec<SymbolEstimate>,
    /// Total cancellation achieved, dB.
    pub cancellation_db: f64,
    /// Post-cancellation residual floor, dB (simulator units).
    pub residual_db: f64,
    /// Estimated combined channel.
    pub h_fb: Vec<Complex>,
    /// Timing correction applied, samples.
    pub timing_offset: isize,
}

/// The BackFi AP's backscatter receive path.
#[derive(Clone, Debug)]
pub struct BackscatterReader {
    cfg: ReaderConfig,
}

impl Default for BackscatterReader {
    fn default() -> Self {
        Self::new(ReaderConfig::default())
    }
}

impl BackscatterReader {
    /// Create a reader.
    pub fn new(cfg: ReaderConfig) -> Self {
        BackscatterReader { cfg }
    }

    /// The configuration in use.
    pub fn config(&self) -> &ReaderConfig {
        &self.cfg
    }

    /// Decode one tag transmission.
    ///
    /// * `x_clean` — transmitted baseband with TX power applied (the
    ///   canceller's reference tap),
    /// * `y_rx` — received samples (same length; truncate the medium's tail),
    /// * `h_env_view` — the analog canceller's converged view of the
    ///   environment response,
    /// * `timeline` — nominal protocol timeline,
    /// * `tag_cfg` — the tag's modulation/coding/symbol-rate settings.
    ///
    /// Allocating wrapper over [`BackscatterReader::decode_with`].
    pub fn decode(
        &self,
        x_clean: &[Complex],
        y_rx: &[Complex],
        h_env_view: &[Complex],
        timeline: &Timeline,
        tag_cfg: &TagConfig,
    ) -> Result<TagDecodeResult, ReaderError> {
        let mut scratch = ReaderScratch::default();
        self.decode_with(x_clean, y_rx, h_env_view, timeline, tag_cfg, &mut scratch)
    }

    /// [`BackscatterReader::decode`] over reusable excitation-length buffers
    /// (canceller stages, MRC reference, sanitized input): a caller that
    /// decodes many packets keeps one [`ReaderScratch`] and allocates none
    /// of them after the first packet. Bit-identical to `decode`.
    pub fn decode_with(
        &self,
        x_clean: &[Complex],
        y_rx: &[Complex],
        h_env_view: &[Complex],
        timeline: &Timeline,
        tag_cfg: &TagConfig,
        scratch: &mut ReaderScratch,
    ) -> Result<TagDecodeResult, ReaderError> {
        let branch = self.demodulate(x_clean, y_rx, h_env_view, timeline, tag_cfg, scratch)?;
        Ok(self.finish(branch, tag_cfg))
    }

    /// Decode one tag transmission received on several antennas
    /// simultaneously (§7: "multiple antennas at the AP provide additional
    /// diversity combining gain … We can then perform MRC combining for the
    /// signals received across space").
    ///
    /// Each antenna gets its own `(y_rx, h_env_view)` pair; per-antenna
    /// demodulation runs independently (own canceller, own h_f∗h_b estimate,
    /// own timing) and the per-symbol estimates are then maximal-ratio
    /// combined across space, weighted by each branch's reference energy
    /// over its noise floor.
    ///
    /// # Panics
    /// Panics if `antennas` is empty.
    pub fn decode_mimo(
        &self,
        x_clean: &[Complex],
        antennas: &[(&[Complex], &[Complex])],
        timeline: &Timeline,
        tag_cfg: &TagConfig,
    ) -> Result<TagDecodeResult, ReaderError> {
        assert!(!antennas.is_empty(), "need at least one antenna");
        let mut branches = Vec::new();
        let mut scratch = ReaderScratch::default();
        for (y_rx, h_env_view) in antennas {
            // A branch may individually fail (deep fade); keep the others.
            if let Ok(b) =
                self.demodulate(x_clean, y_rx, h_env_view, timeline, tag_cfg, &mut scratch)
            {
                branches.push(b);
            }
        }
        if branches.is_empty() {
            return Err(ReaderError::ChannelEstimationFailed);
        }

        // Spatial MRC: combine per-symbol numerators/denominators. Each
        // branch's SymbolEstimate is z = num/den with noise_var = N0/den, so
        // num = z·den and the optimal weights are den/N0.
        // `branches` was checked non-empty above, but prefer a defined
        // degenerate value over a panic path if that invariant ever shifts.
        let nsym = branches.iter().map(|b| b.symbols.len()).min().unwrap_or(0);
        let mut combined = Vec::with_capacity(nsym);
        for i in 0..nsym {
            let mut num = Complex::ZERO;
            let mut den = 0.0;
            let mut inv_noise_den = 0.0;
            for b in &branches {
                let s = &b.symbols[i];
                let n0 = stats::undb(b.residual_db);
                num += s.z * (s.ref_energy / n0);
                den += s.ref_energy / n0;
                inv_noise_den += s.ref_energy / n0;
            }
            // Every branch erased this symbol ⇒ the combination stays an
            // erasure (0/0 here would send NaN into the soft decoder).
            combined.push(if den > 0.0 {
                SymbolEstimate {
                    z: num / den,
                    ref_energy: den,
                    noise_var: 1.0 / inv_noise_den.max(1e-300),
                }
            } else {
                SymbolEstimate::erasure()
            });
        }

        // Take the best branch's bookkeeping, replace its symbols.
        let mut best = branches
            .into_iter()
            .max_by(|a, b| nan_loses_max(a.snr_proxy(), b.snr_proxy()))
            .ok_or(ReaderError::ChannelEstimationFailed)?;
        best.symbols = combined;
        Ok(self.finish(best, tag_cfg))
    }

    /// Per-antenna front half: cancellation → channel estimation → MRC.
    fn demodulate(
        &self,
        x_clean: &[Complex],
        y_rx: &[Complex],
        h_env_view: &[Complex],
        timeline: &Timeline,
        tag_cfg: &TagConfig,
        scratch: &mut ReaderScratch,
    ) -> Result<Branch, ReaderError> {
        assert_eq!(x_clean.len(), y_rx.len(), "length mismatch");
        let ReaderScratch {
            sic,
            reference,
            sanitized,
        } = scratch;

        // --- Stage 0: input validation / sanitization -------------------
        // The reader's own reference and the analog canceller's view must be
        // finite — a NaN there poisons every downstream filter silently.
        if x_clean.iter().any(|v| !v.is_finite()) || h_env_view.iter().any(|v| !v.is_finite()) {
            return Err(count_err(ReaderError::InvalidInput));
        }
        // Non-finite *received* samples are a front-end fault the pipeline
        // can ride out: zero them (the AGC/canceller then ignores them) and
        // remember where they were so the affected symbols become erasures.
        // A stream that is mostly garbage is rejected outright.
        let bad_rx: Vec<usize> = y_rx
            .iter()
            .enumerate()
            .filter(|(_, v)| !v.is_finite())
            .map(|(i, _)| i)
            .collect();
        if bad_rx.len() * 2 > y_rx.len() {
            return Err(count_err(ReaderError::InvalidInput));
        }
        let y_rx: &[Complex] = if bad_rx.is_empty() {
            y_rx
        } else {
            backfi_obs::counter_add("reader.nonfinite_rx", bad_rx.len() as u64);
            sanitized.clear();
            sanitized.extend_from_slice(y_rx);
            for &i in &bad_rx {
                sanitized[i] = Complex::ZERO;
            }
            sanitized
        };

        // --- Stage 1+2: self-interference cancellation -----------------
        // Degradation ladder rung 1: if the residual diverges towards the
        // end of the silent window (a time-varying effect like residual CFO
        // that the LTI digital filter cannot track, or a transient that
        // corrupted the head of the window), retrain on the trailing half
        // and keep whichever training leaves the cleaner tail.
        let rep = {
            let _t = backfi_obs::span("reader.sic");
            let canceller = SelfInterferenceCanceller::new(self.cfg.canceller, h_env_view);
            match canceller.process_with(x_clean, y_rx, timeline.silent.clone(), sic) {
                Some(rep) => self.sic_retrain(&canceller, x_clean, y_rx, timeline, rep, sic),
                None => {
                    backfi_obs::counter_add("reader.sic_retrain", 1);
                    let fallback = fallback_window(&timeline.silent);
                    canceller
                        .process_with(x_clean, y_rx, fallback, sic)
                        .ok_or_else(|| count_err(ReaderError::CancellationFailed))?
                }
            }
        };
        backfi_obs::probe("reader.cancellation_db", rep.cancellation_db);
        backfi_obs::probe("reader.residual_db", rep.residual_db);
        let branch =
            self.estimate_and_combine(x_clean, &rep, &bad_rx, timeline, tag_cfg, reference);
        sic.recycle(rep.samples);
        branch
    }

    /// The front half after cancellation: erasure mask → `h_fb` estimation
    /// with timing search → per-symbol MRC over `rep.samples`, with the MRC
    /// reference built in the reusable `reference` buffer.
    fn estimate_and_combine(
        &self,
        x_clean: &[Complex],
        rep: &backfi_sic::CancellerReport,
        bad_rx: &[usize],
        timeline: &Timeline,
        tag_cfg: &TagConfig,
        reference: &mut Vec<Complex>,
    ) -> Result<Branch, ReaderError> {
        let noise_power = stats::undb(rep.residual_db);

        // Erasure mask: non-finite input positions plus the ADC's *long*
        // clipped runs. Isolated clipped samples (Gaussian tails crossing
        // full scale) keep the seed behavior — only transient-scale runs,
        // which ordinary operation essentially never produces, mark spans.
        const CLIP_RUN_MIN: usize = 16;
        let flag_prefix = {
            let clip: Vec<&std::ops::Range<usize>> = rep
                .clip_ranges
                .iter()
                .filter(|r| r.len() >= CLIP_RUN_MIN)
                .collect();
            if bad_rx.is_empty() && clip.is_empty() {
                None
            } else {
                let mut flags = vec![0u32; rep.samples.len() + 1];
                for &i in bad_rx {
                    flags[i] = 1;
                }
                for r in clip {
                    for f in &mut flags[r.clone()] {
                        *f = 1;
                    }
                }
                // In-place prefix sum: flags[i] = flagged samples in [0, i).
                let mut acc = 0u32;
                for f in flags.iter_mut() {
                    let v = *f;
                    *f = acc;
                    acc += v;
                }
                Some(flags)
            }
        };
        let y = &rep.samples;

        // --- Stage 3: h_fb estimation with timing search ----------------
        // Degradation ladder rung 2: when no nominal offset yields an
        // estimate, re-acquire with a 3× wider, finer search before giving
        // up. The clean path never gets here (the nominal search only fails
        // when every candidate window escapes the buffer).
        let est = {
            let _t = backfi_obs::span("reader.chanest");
            let mut search: Vec<isize> = vec![0];
            let mut off = 20isize;
            while off <= self.cfg.timing_span as isize {
                search.push(off);
                search.push(-off);
                off += 20;
            }
            let nominal = estimate_h_fb(
                x_clean,
                y,
                timeline.preamble.start,
                tag_cfg.preamble_us,
                self.cfg.fb_taps,
                &search,
                self.cfg.ridge,
            );
            nominal
                .or_else(|| {
                    backfi_obs::counter_add("reader.timing_reacquire", 1);
                    let _t = backfi_obs::span("reader.acquire");
                    let span = (self.cfg.timing_span as isize).max(20) * 3;
                    let mut wide: Vec<isize> = vec![0];
                    let mut off = 10isize;
                    while off <= span {
                        wide.push(off);
                        wide.push(-off);
                        off += 10;
                    }
                    estimate_h_fb(
                        x_clean,
                        y,
                        timeline.preamble.start,
                        tag_cfg.preamble_us,
                        self.cfg.fb_taps,
                        &wide,
                        self.cfg.ridge,
                    )
                })
                .ok_or_else(|| count_err(ReaderError::ChannelEstimationFailed))?
        };
        backfi_obs::probe("reader.timing_offset_samples", est.offset as f64);
        let timeline = timeline.shifted(est.offset);

        // --- Stage 4: MRC over every payload symbol ---------------------
        // Degradation ladder rung 3: symbol windows dominated by flagged
        // (saturated/non-finite) samples become erasures — zero LLRs into
        // the soft Viterbi — instead of confident wrong decisions.
        let _t_mrc = backfi_obs::span("reader.mrc");
        backfi_dsp::fir::filter_into(&est.h_fb, x_clean, reference);
        let sps = tag_cfg.samples_per_symbol();
        let nsym = timeline.payload.len() / sps;
        if nsym == 0 {
            return Err(count_err(ReaderError::NoSymbols));
        }
        let guard = self.cfg.fb_taps; // §4.3.2's boundary guard
        let mut symbols = Vec::with_capacity(nsym);
        let mut erased = 0u64;
        for i in 0..nsym {
            let s = timeline.payload.start + i * sps;
            let e = (s + sps).min(y.len());
            if e <= s + guard {
                break;
            }
            if let Some(p) = &flag_prefix {
                let usable = e - (s + guard);
                let flagged = (p[e] - p[s + guard]) as usize;
                if flagged * 4 >= usable {
                    symbols.push(SymbolEstimate::erasure());
                    erased += 1;
                    continue;
                }
            }
            let estimate = if self.cfg.use_zero_forcing {
                zf_symbol(&y[s..e], &reference[s..e], guard).map(|z| SymbolEstimate {
                    z,
                    ref_energy: 1.0,
                    noise_var: noise_power,
                })
            } else {
                mrc_symbol(&y[s..e], &reference[s..e], guard, noise_power)
            };
            match estimate {
                Some(v) if v.z.is_finite() => symbols.push(v),
                Some(_) => {
                    symbols.push(SymbolEstimate::erasure());
                    erased += 1;
                }
                None => break,
            }
        }
        if erased > 0 {
            backfi_obs::counter_add("reader.erasures", erased);
        }
        if symbols.len() <= backfi_tag::framer::PILOT_SYMBOLS {
            return Err(count_err(ReaderError::NoSymbols));
        }
        Ok(Branch {
            symbols,
            cancellation_db: rep.cancellation_db,
            residual_db: rep.residual_db,
            h_fb: est.h_fb,
            timing_offset: est.offset,
        })
    }

    /// SIC divergence check + retrain (degradation ladder rung 1).
    ///
    /// Compares the residual over the *trailing* quarter of the silent
    /// window against the *leading* quarter (after the filter-settling
    /// trim). A hot tail means the whole-window fit is diverging in time —
    /// a transient corrupted part of the window, the stream truncated, or a
    /// time-varying effect is outrunning the LTI filter. Retrain on the
    /// trailing half (closest to the payload) and keep whichever training
    /// leaves the cleaner tail. Returns `None` to keep the original report;
    /// the 6 dB margin is far beyond clean-run fluctuation (≲ 1 dB between
    /// two 80-sample quarters), so the clean path never retrains.
    fn sic_retrain(
        &self,
        canceller: &SelfInterferenceCanceller,
        x_clean: &[Complex],
        y_rx: &[Complex],
        timeline: &Timeline,
        rep: backfi_sic::CancellerReport,
        sic: &mut SicScratch,
    ) -> backfi_sic::CancellerReport {
        const DIVERGENCE_DB: f64 = 6.0;
        let silent = &timeline.silent;
        let q = silent.len() / 4;
        let head_start = silent.start + self.cfg.canceller.digital_taps;
        if q == 0 || head_start + q > silent.end - q {
            return rep;
        }
        let tail = (silent.end - q)..silent.end;
        // SIMD-routed power scans: `mean_power_auto` folds in order below
        // `SIMD_MIN_REDUCE`, so quarter-window scans (≲ a few hundred
        // samples) are bitwise identical to `stats::mean_power`.
        let head_db = stats::db(backfi_dsp::simd::mean_power_auto(
            &rep.samples[head_start..head_start + q],
        ));
        let tail_db = stats::db(backfi_dsp::simd::mean_power_auto(
            &rep.samples[tail.clone()],
        ));
        if !tail_db.is_finite() || !head_db.is_finite() || tail_db <= head_db + DIVERGENCE_DB {
            return rep;
        }
        backfi_obs::counter_add("reader.sic_retrain", 1);
        let _t = backfi_obs::span("reader.retrain");
        backfi_obs::trace::instant_arg("reader.retrain", "tail_minus_head_db", tail_db - head_db);
        let Some(rep2) = canceller.process_with(x_clean, y_rx, fallback_window(silent), sic) else {
            return rep;
        };
        let tail2_db = stats::db(backfi_dsp::simd::mean_power_auto(&rep2.samples[tail]));
        let (keep, spare) = if tail2_db < tail_db {
            (rep2, rep)
        } else {
            (rep, rep2)
        };
        sic.recycle(spare.samples);
        keep
    }

    /// Shared back half: pilot phase anchor → decision-directed phase
    /// refinement → soft decode → frame parse.
    fn finish(&self, branch: Branch, tag_cfg: &TagConfig) -> TagDecodeResult {
        let _t = backfi_obs::span("reader.decode");
        let Branch {
            symbols,
            cancellation_db,
            residual_db,
            h_fb,
            timing_offset,
        } = branch;
        // The first payload symbol is a known index-0 pilot; derotating by
        // its phase removes any constant phase error the channel estimate
        // picked up (which would otherwise rotate the whole constellation by
        // a step and flip every bit consistently).
        let pilot: Complex = symbols[..backfi_tag::framer::PILOT_SYMBOLS]
            .iter()
            .map(|s| s.z)
            .sum();
        let derot = if pilot.abs() > 0.0 {
            Complex::exp_j(-pilot.arg())
        } else {
            Complex::ONE
        };
        let mut symbols = symbols;
        for s in symbols.iter_mut() {
            s.z *= derot;
        }
        // Second pass: the single pilot is itself noisy, and its phase error
        // rotates every symbol. Refine the common phase decision-directed:
        // slice each symbol, accumulate z·conj(ideal), and derotate by the
        // residual — averaging the phase reference over the whole frame.
        {
            let mut acc = Complex::ZERO;
            for s in symbols.iter() {
                let idx = backfi_tag::psk::hard_index(tag_cfg.modulation, s.z.arg());
                let ideal = Complex::exp_j(backfi_tag::psk::index_phase(tag_cfg.modulation, idx));
                // Weight by reference energy so noisy symbols count less.
                acc += s.z * ideal.conj() * s.ref_energy;
            }
            if acc.abs() > 0.0 {
                let refine = Complex::exp_j(-acc.arg());
                for s in symbols.iter_mut() {
                    s.z *= refine;
                }
            }
        }
        let data_symbols = &symbols[backfi_tag::framer::PILOT_SYMBOLS..];
        let (payload, decoded_bits, metrics) =
            decode_symbols(data_symbols, tag_cfg.modulation, tag_cfg.code_rate);

        TagDecodeResult {
            payload,
            decoded_bits,
            metrics,
            symbols,
            cancellation_db,
            residual_db,
            h_fb,
            timing_offset,
        }
    }
}

/// Total order on `f64` where NaN always loses a max selection (sorts below
/// `-∞`); identical to `partial_cmp` for finite values, but panic-free.
fn nan_loses_max(a: f64, b: f64) -> std::cmp::Ordering {
    let key = |v: f64| if v.is_nan() { f64::NEG_INFINITY } else { v };
    key(a).total_cmp(&key(b))
}

/// The trailing half of the silent window — the SIC retrain fallback
/// (closest to the payload, and past any transient that corrupted the head).
fn fallback_window(silent: &std::ops::Range<usize>) -> std::ops::Range<usize> {
    (silent.start + silent.len() / 2)..silent.end
}

/// The reader's reusable excitation-length buffers for
/// [`BackscatterReader::decode_with`]: the canceller's stages, the MRC
/// reference `h_fb ∗ x`, and the sanitized copy of a received stream with
/// non-finite samples. Every buffer is cleared or fully overwritten before
/// it is read, so a scratch carried across packets never changes a result.
#[derive(Debug, Default)]
pub struct ReaderScratch {
    sic: SicScratch,
    reference: Vec<Complex>,
    sanitized: Vec<Complex>,
}

/// One antenna's demodulated view of the packet.
struct Branch {
    symbols: Vec<SymbolEstimate>,
    cancellation_db: f64,
    residual_db: f64,
    h_fb: Vec<Complex>,
    timing_offset: isize,
}

impl Branch {
    /// Rough per-branch quality: total reference energy over the noise floor.
    fn snr_proxy(&self) -> f64 {
        let e: f64 = self.symbols.iter().map(|s| s.ref_energy).sum();
        e / stats::undb(self.residual_db).max(1e-300)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use backfi_chan::budget::LinkBudget;
    use backfi_chan::medium::{BackscatterMedium, MediumConfig};
    use backfi_dsp::noise::cgauss_vec;
    use backfi_dsp::rng::SplitMix64;
    use backfi_tag::Tag;

    /// Full closed-loop: synthetic wideband excitation with an embedded
    /// wake-up preamble, a real Tag state machine, the real medium, and the
    /// reader. (End-to-end with real WiFi excitation lives in `backfi-core`.)
    fn run_link(
        distance: f64,
        tag_cfg: TagConfig,
        seed: u64,
    ) -> (Result<TagDecodeResult, ReaderError>, Vec<u8>) {
        run_link_mut(distance, tag_cfg, seed, |_| {})
    }

    /// [`run_link`] with a hook that corrupts the received samples before
    /// they reach the reader (the fault-injection tests' entry point).
    fn run_link_mut(
        distance: f64,
        tag_cfg: TagConfig,
        seed: u64,
        corrupt: impl Fn(&mut [Complex]),
    ) -> (Result<TagDecodeResult, ReaderError>, Vec<u8>) {
        use backfi_tag::detector::SAMPLES_PER_BIT;

        // Excitation: idle, wake-up pulses for tag 1, then wideband "data".
        let mut rng = SplitMix64::new(seed);
        let mut x = vec![Complex::ZERO; 200];
        for &b in &backfi_coding::prbs::tag_preamble(1) {
            if b {
                x.extend(cgauss_vec(&mut rng, SAMPLES_PER_BIT, 1.0));
            } else {
                x.extend(std::iter::repeat_n(Complex::ZERO, SAMPLES_PER_BIT));
            }
        }
        let detect_end = x.len();
        let data_samples = backfi_dsp::us_to_samples(1500.0);
        x.extend(cgauss_vec(&mut rng, data_samples, 1.0));
        let excitation_end = x.len();

        // Tag reacts to the forward signal.
        let budget = LinkBudget::default();
        let mut medium = BackscatterMedium::new(budget, MediumConfig::at_distance(distance), seed);
        let a = budget.tx_power().sqrt();
        let incident: Vec<Complex> =
            backfi_dsp::fir::filter(&medium.h_f, &x.iter().map(|&v| v * a).collect::<Vec<_>>());
        let mut tag = Tag::new(1, tag_cfg);
        // Size the payload to fit the excitation at this configuration.
        let airtime_us = backfi_dsp::samples_to_us(excitation_end - detect_end);
        let max = backfi_tag::framer::TagFrame::max_payload_bytes(&tag_cfg, airtime_us);
        let len = max.clamp(4, 48);
        let data: Vec<u8> = (0..len).map(|i| (i * 11 + 3) as u8).collect();
        tag.load_data(&data);
        let gamma = tag.react(&incident);

        // Propagate and decode.
        let mut y_full = medium.propagate(&x, &gamma);
        let x_scaled: Vec<Complex> = x.iter().map(|&v| v * a).collect();
        corrupt(&mut y_full[..x.len()]);
        let y = &y_full[..x.len()];
        let timeline = Timeline::nominal(detect_end, excitation_end, &tag_cfg);
        let reader = BackscatterReader::default();
        (
            reader.decode(&x_scaled, y, &medium.h_env, &timeline, &tag_cfg),
            data,
        )
    }

    #[test]
    fn decodes_qpsk_at_one_meter() {
        let cfg = TagConfig::default(); // QPSK 1/2 @ 1 MSPS
        let (res, data) = run_link(1.0, cfg, 42);
        let res = res.expect("decode");
        assert_eq!(res.payload.as_ref().unwrap(), &data);
        assert!(
            res.cancellation_db > 50.0,
            "cancellation {}",
            res.cancellation_db
        );
        assert!(
            res.metrics.symbol_snr_db > 5.0,
            "snr {}",
            res.metrics.symbol_snr_db
        );
    }

    #[test]
    fn decodes_bpsk_at_three_meters() {
        let cfg = TagConfig {
            modulation: backfi_tag::TagModulation::Bpsk,
            code_rate: backfi_coding::CodeRate::Half,
            symbol_rate_hz: 500e3,
            preamble_us: 32.0,
        };
        let (res, data) = run_link(3.0, cfg, 7);
        let res = res.expect("decode");
        assert_eq!(res.payload.as_ref().unwrap(), &data);
    }

    #[test]
    fn fails_gracefully_at_extreme_range() {
        let cfg = TagConfig {
            modulation: backfi_tag::TagModulation::Psk16,
            code_rate: backfi_coding::CodeRate::TwoThirds,
            symbol_rate_hz: 2.5e6,
            preamble_us: 32.0,
        };
        // 16PSK 2/3 at 2.5 MSPS at 6 m should not decode — but must not
        // panic either: CRC failure or reader error are both acceptable.
        let (res, data) = run_link(6.0, cfg, 9);
        if let Ok(r) = res {
            assert_ne!(r.payload.ok(), Some(data))
        }
    }

    #[test]
    fn snr_decreases_with_distance() {
        // Averaged over ≥20 seeds so a single lucky/unlucky fading draw
        // cannot flip the comparison (ROADMAP statistical-test convention).
        let cfg = TagConfig::default();
        let mean_snr_at = |d: f64| {
            let mut total = 0.0;
            let mut n = 0usize;
            for seed in 0..20u64 {
                let (res, _) = run_link(d, cfg, 123 + seed);
                if let Ok(r) = res {
                    total += r.metrics.symbol_snr_db;
                    n += 1;
                }
            }
            assert!(n >= 15, "{d} m: too few successful decodes ({n}/20)");
            total / n as f64
        };
        let near = mean_snr_at(0.5);
        let far = mean_snr_at(4.0);
        assert!(
            near > far + 3.0,
            "0.5 m mean snr {near} should exceed 4 m mean snr {far}"
        );
    }

    /// Force each `ReaderError` in turn and check the failure lands on the
    /// right `reader.err.*` attribution counter (the obs layer's per-stage
    /// breakdown of CRC-level failures).
    #[test]
    fn failure_modes_increment_their_stage_counter() {
        use crate::timeline::Timeline;

        backfi_obs::enable();
        let mut rng = SplitMix64::new(77);
        let n = 3000usize;
        let x: Vec<Complex> = cgauss_vec(&mut rng, n, 1.0);
        let h_env = vec![Complex::new(0.05, -0.02), Complex::new(0.004, 0.001)];
        let mut y = backfi_dsp::fir::filter(&h_env, &x);
        backfi_dsp::noise::add_noise(&mut rng, &mut y, 1e-10);
        let tag_cfg = TagConfig::default();
        let reader = BackscatterReader::default();

        let force = |timeline: Timeline, want: ReaderError| {
            let before = backfi_obs::counter_value(want.obs_counter());
            let got = reader
                .decode(&x, &y, &h_env, &timeline, &tag_cfg)
                .expect_err("decode must fail");
            assert_eq!(got, want, "wrong failure stage");
            let after = backfi_obs::counter_value(want.obs_counter());
            assert!(
                after > before,
                "{} did not increment ({before} -> {after})",
                want.obs_counter()
            );
        };

        // Silent window shorter than the digital canceller's 28 taps: the
        // digital stage cannot train.
        force(
            Timeline {
                silent: 0..10,
                preamble: 10..650,
                payload: 650..n,
            },
            ReaderError::CancellationFailed,
        );
        // Preamble window escapes the buffer at every searched offset: no
        // candidate yields a solvable LS system.
        force(
            Timeline {
                silent: 0..400,
                preamble: 2900..2950,
                payload: 2950..n,
            },
            ReaderError::ChannelEstimationFailed,
        );
        // Payload window shorter than one symbol (20 samples at 1 MSPS):
        // chanest succeeds on the (noise-only) preamble, MRC finds nothing.
        force(
            Timeline {
                silent: 0..400,
                preamble: 400..1040,
                payload: 1040..1050,
            },
            ReaderError::NoSymbols,
        );

        // Non-finite reference samples: rejected at the front door.
        let timeline = Timeline {
            silent: 0..400,
            preamble: 400..1040,
            payload: 1040..n,
        };
        let mut x_bad = x.clone();
        x_bad[17] = Complex::new(f64::NAN, 0.0);
        let before = backfi_obs::counter_value(ReaderError::InvalidInput.obs_counter());
        let got = reader
            .decode(&x_bad, &y, &h_env, &timeline, &tag_cfg)
            .expect_err("NaN reference must fail");
        assert_eq!(got, ReaderError::InvalidInput);
        // Non-finite analog-canceller view: same guard.
        let mut h_bad = h_env.clone();
        h_bad[0] = Complex::new(f64::INFINITY, 0.0);
        let got = reader
            .decode(&x, &y, &h_bad, &timeline, &tag_cfg)
            .expect_err("Inf h_env must fail");
        assert_eq!(got, ReaderError::InvalidInput);
        // A mostly-NaN received stream: unusable.
        let mut y_bad = y.clone();
        for v in y_bad.iter_mut().take(2 * n / 3) {
            *v = Complex::new(f64::NAN, f64::NAN);
        }
        let got = reader
            .decode(&x, &y_bad, &h_env, &timeline, &tag_cfg)
            .expect_err("mostly-NaN stream must fail");
        assert_eq!(got, ReaderError::InvalidInput);
        let after = backfi_obs::counter_value(ReaderError::InvalidInput.obs_counter());
        assert_eq!(after, before + 3, "each InvalidInput must be counted");
    }

    /// A handful of NaN samples in the received stream must be survivable:
    /// they are zeroed, their symbols become erasures, and the frame still
    /// decodes through the FEC.
    #[test]
    fn few_nonfinite_rx_samples_decode_gracefully() {
        let cfg = TagConfig::default();
        let (res, data) = run_link_mut(1.0, cfg, 42, |y| {
            let mid = y.len() / 2;
            for v in &mut y[mid..mid + 8] {
                *v = Complex::new(f64::NAN, f64::NAN);
            }
        });
        let res = res.expect("graceful path must produce a decode");
        assert_eq!(
            res.payload.as_ref().expect("CRC should still pass"),
            &data,
            "8 erased samples are well within the FEC's budget"
        );
    }

    /// A strong blocker railing the ADC mid-payload: the clipped span's
    /// symbols become erasures and the decode path must not panic. With a
    /// short transient the FEC usually still recovers the frame.
    #[test]
    fn saturation_transient_is_survivable() {
        backfi_obs::enable();
        let cfg = TagConfig::default();
        let before = backfi_obs::counter_value("reader.erasures");
        let (res, _data) = run_link_mut(1.0, cfg, 42, |y| {
            let mid = y.len() / 2;
            for v in &mut y[mid..mid + 300] {
                *v = Complex::new(1.0, -1.0); // ~60 dB above the SI level
            }
        });
        // Graceful: either a decode attempt (CRC pass or fail) or a typed
        // error — never a panic or a NaN-poisoned result.
        if let Ok(r) = res {
            assert!(
                r.metrics.symbol_snr_db.is_finite() || r.symbols.iter().all(|s| s.is_erasure())
            );
            let after = backfi_obs::counter_value("reader.erasures");
            assert!(after > before, "clipped span should erase symbols");
        }
    }

    /// Corrupting the tail of the silent window forces the SIC divergence
    /// detector to fire and attempt a fallback-window retrain.
    #[test]
    fn sic_divergence_triggers_retrain() {
        use backfi_tag::detector::SAMPLES_PER_BIT;
        backfi_obs::enable();
        let cfg = TagConfig::default();
        // Reconstruct the timeline run_link_mut builds internally.
        let detect_end = 200 + backfi_coding::prbs::tag_preamble(1).len() * SAMPLES_PER_BIT;
        let silent = Timeline::nominal(
            detect_end,
            detect_end + backfi_dsp::us_to_samples(1500.0),
            &cfg,
        )
        .silent;
        let before = backfi_obs::counter_value("reader.sic_retrain");
        let (res, _data) = run_link_mut(1.0, cfg, 42, |y| {
            let q = silent.len() / 4;
            for v in &mut y[silent.end - q..silent.end] {
                *v += Complex::new(0.5, 0.5); // blocker burst in the tail
            }
        });
        let after = backfi_obs::counter_value("reader.sic_retrain");
        assert!(after > before, "divergence detector should have fired");
        // Graceful ladder: a typed result either way, no panic.
        let _ = res;
    }
}
