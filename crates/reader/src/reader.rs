//! The composed BackFi reader (Fig. 5).
//!
//! [`BackscatterReader::decode_from`] is the one single-antenna pipeline. It
//! takes the clean transmitted baseband (a [`TxReference`]), the received
//! stream and the protocol timeline, then runs: two-stage self-interference
//! cancellation (digital stage trained on the silent window) → `h_fb`
//! estimation from the PN preamble (with timing search) → per-symbol MRC →
//! header prefix decode → soft-decision Viterbi over the announced frame
//! (every slot when the header fails) → frame parse. `decode` wraps it for
//! complete slices; `decode_mimo` runs its front half once per antenna (§7).
//!
//! Both halves are bounded by the frame (DESIGN.md §17). The received
//! stream is pulled on demand ([`RxSource`]) and every front-half stage is
//! causal: the canceller (analog stage, AGC set on the silent window, ADC
//! clip scan and quantize, digital apply) and MRC run first through the
//! timing-search window, then through the header prefix, then through the
//! announced frame, or through every slot when the header fails. The
//! results are bit-identical to cancelling and combining the whole
//! excitation.

use crate::chanest::{window_end, TimingSearch};
use crate::decode::{announced_len, decode_frame, decode_symbols, header_symbols, LinkMetrics};
use crate::mrc::{mrc_symbol, zf_symbol, SymbolEstimate};
use crate::timeline::Timeline;
use backfi_dsp::{stats, Complex};
use backfi_sic::{
    CancellerConfig, CancellerReport, RxSource, SelfInterferenceCanceller, SicScratch,
};
use backfi_tag::config::{TagConfig, TagModulation};
use backfi_tag::framer::{FrameError, TagFrame, PILOT_SYMBOLS};
use backfi_tag::psk::{hard_index_of, ideal_points};
use std::sync::Arc;

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

/// Whether every sample is finite.
fn all_finite(x: &[Complex]) -> bool {
    x.iter().all(|v| v.is_finite())
}

/// The reader's clean TX reference (the canceller's reference tap, with TX
/// power applied) together with whether every sample of it is finite.
/// [`TxReference::new`] is the only way to build one and always makes that
/// check, so a caller decoding many packets against one excitation checks
/// its reference once, not once per packet: the decode entry points
/// ([`BackscatterReader::decode_from`], [`BackscatterReader::decode_mimo`])
/// read the verdict.
#[derive(Clone, Debug)]
pub struct TxReference {
    samples: Arc<[Complex]>,
    finite: bool,
}

impl TxReference {
    /// Check `samples` for non-finite values and keep the verdict.
    pub fn new(samples: Arc<[Complex]>) -> Self {
        let finite = all_finite(&samples);
        TxReference { samples, finite }
    }

    /// The reference samples.
    pub fn samples(&self) -> &[Complex] {
        &self.samples
    }

    /// Whether every sample is finite.
    pub fn is_finite(&self) -> bool {
        self.finite
    }

    /// The samples, or a counted [`ReaderError::InvalidInput`] when one is
    /// not finite: how every decode entry point reads the reference.
    fn checked(&self) -> Result<&[Complex], ReaderError> {
        let x = self.finite.then_some(&self.samples[..]);
        x.ok_or_else(|| count_err(ReaderError::InvalidInput))
    }
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
    /// Per-symbol phasors (constellation view), pilot first: the announced
    /// frame's symbols when its header decoded and the frame fits, else
    /// every symbol slot of the payload window.
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

    /// [`BackscatterReader::decode_from`] over complete slices, with the
    /// reference copied into a fresh [`TxReference`] and a fresh scratch.
    pub fn decode(
        &self,
        x_clean: &[Complex],
        mut y_rx: &[Complex],
        h_env_view: &[Complex],
        timeline: &Timeline,
        tag_cfg: &TagConfig,
    ) -> Result<TagDecodeResult, ReaderError> {
        let x = TxReference::new(x_clean.into());
        let scratch = &mut ReaderScratch::default();
        self.decode_from(&x, &mut y_rx, h_env_view, timeline, tag_cfg, scratch)
    }

    /// Decode one tag transmission.
    ///
    /// * `x_clean` — transmitted baseband with TX power applied (the
    ///   canceller's reference tap), checked for non-finite samples when it
    ///   was built, so a packet costs no pass over the whole excitation (a
    ///   non-finite one fails with [`ReaderError::InvalidInput`]),
    /// * `y_rx` — the received stream (same length), a slice or one the
    ///   reader pulls on demand (DESIGN.md §17): through the timing-search
    ///   window, the header prefix, then the announced frame or every slot
    ///   when the header fails, plus the end of a clipped run still open
    ///   where a pull ends; bit-identical to decoding the complete stream,
    /// * `h_env_view` — the analog canceller's converged view of the
    ///   environment response,
    /// * `timeline` — nominal protocol timeline,
    /// * `tag_cfg` — the tag's modulation/coding/symbol-rate settings,
    /// * `scratch` — excitation-length buffers a caller keeps across
    ///   packets, so none is allocated after the first.
    ///
    /// Non-finite received samples are zeroed and erased wherever a pull
    /// finds them, but the front door rejects a mostly non-finite stream
    /// only on what it has pulled by then (all of a slice), so a lazy
    /// source is exact for finite streams.
    pub fn decode_from(
        &self,
        x_clean: &TxReference,
        y_rx: &mut dyn RxSource,
        h_env_view: &[Complex],
        timeline: &Timeline,
        tag_cfg: &TagConfig,
        scratch: &mut ReaderScratch,
    ) -> Result<TagDecodeResult, ReaderError> {
        let x_clean = x_clean.checked()?;
        let mut branch = self.demodulate(x_clean, y_rx, h_env_view, timeline, tag_cfg, scratch)?;
        let frame = self.read_frame(&mut branch, tag_cfg, x_clean, scratch);
        Ok(self.finish(branch, frame, tag_cfg))
    }

    /// Decode one tag transmission received on several antennas
    /// simultaneously (§7: "multiple antennas at the AP provide additional
    /// diversity combining gain … We can then perform MRC combining for the
    /// signals received across space").
    ///
    /// Each antenna gets its own `(y_rx, h_env_view)` pair; per-antenna
    /// demodulation runs independently (own canceller, own h_f∗h_b estimate,
    /// own timing, every symbol slot combined) and the per-symbol estimates
    /// are then maximal-ratio combined across space, weighted by each
    /// branch's reference energy over its noise floor.
    ///
    /// # Panics
    /// Panics if `antennas` is empty.
    pub fn decode_mimo(
        &self,
        x_clean: &TxReference,
        antennas: &[(&[Complex], &[Complex])],
        timeline: &Timeline,
        tag_cfg: &TagConfig,
    ) -> Result<TagDecodeResult, ReaderError> {
        assert!(!antennas.is_empty(), "need at least one antenna");
        let x_clean = x_clean.checked()?;
        let mut branches = Vec::new();
        let mut scratch = ReaderScratch::default();
        let mut failure = None;
        let mut streams: Vec<&[Complex]> = antennas.iter().map(|&(y, _)| y).collect();
        for (y_rx, &(_, h_env_view)) in streams.iter_mut().zip(antennas) {
            // A branch may individually fail (deep fade); keep the others.
            match self.demodulate(x_clean, y_rx, h_env_view, timeline, tag_cfg, &mut scratch) {
                Ok(mut b) => {
                    self.combine(&mut b, usize::MAX, x_clean, &mut scratch);
                    branches.push(b);
                }
                Err(e) => failure = Some(e),
            }
        }
        // Every branch failed: report the last branch's own (counted) error.
        if let (true, Some(e)) = (branches.is_empty(), failure) {
            return Err(e);
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
            for b in &branches {
                let s = &b.symbols[i];
                let n0 = stats::undb(b.residual_db);
                num += s.z * (s.ref_energy / n0);
                den += s.ref_energy / n0;
            }
            // Every branch erased this symbol ⇒ the combination stays an
            // erasure (0/0 here would send NaN into the soft decoder).
            combined.push(if den > 0.0 {
                SymbolEstimate {
                    z: num / den,
                    ref_energy: den,
                    noise_var: 1.0 / den.max(1e-300),
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
        let frame = self.read_frame(&mut best, tag_cfg, x_clean, &mut scratch);
        Ok(self.finish(best, frame, tag_cfg))
    }

    /// Per-antenna front half: cancellation → channel estimation → MRC
    /// through the header prefix, on a reference the caller has checked is
    /// finite. The canceller runs only as far as channel estimation reads;
    /// the branch combines further slots with
    /// [`BackscatterReader::combine`], pulling the stream as it goes.
    fn demodulate<'s>(
        &self,
        x_clean: &[Complex],
        y_rx: &'s mut dyn RxSource,
        h_env_view: &[Complex],
        timeline: &Timeline,
        tag_cfg: &TagConfig,
        scratch: &mut ReaderScratch,
    ) -> Result<Branch<'s>, ReaderError> {
        let len = y_rx.packet_len();
        assert_eq!(x_clean.len(), len, "length mismatch");

        // --- Stage 0: input validation / sanitization -------------------
        // Degradation ladder rung 1 (DESIGN.md §10). The reader's own
        // reference (checked when its `TxReference` was built) and the analog
        // canceller's view must be finite — a NaN there poisons every
        // downstream filter silently.
        if !all_finite(h_env_view) {
            return Err(count_err(ReaderError::InvalidInput));
        }
        // Cancelled through the last sample the timing search can read.
        let end = window_end(
            timeline.preamble.start,
            tag_cfg.preamble_us,
            self.cfg.timing_span,
        )
        .min(len);

        // --- Stage 1+2: self-interference cancellation -----------------
        // One training per packet, on the silent window. The span also
        // times the first pull, which produces the samples cancelled here.
        let mut rx = Sanitized::new(y_rx);
        let rep = {
            let _t = backfi_obs::span("reader.sic");
            // Non-finite *received* samples are a front-end fault the
            // pipeline can ride out: zero them (the AGC/canceller then
            // ignores them) and remember where they were so the affected
            // symbols become erasures. A stream that is mostly garbage is
            // rejected outright.
            rx.pull(end);
            if rx.bad.len() * 2 > len {
                return Err(count_err(ReaderError::InvalidInput));
            }
            rx.count_nonfinite();
            let canceller = SelfInterferenceCanceller::new(self.cfg.canceller, h_env_view);
            let silent = timeline.silent.clone();
            canceller
                .process_with(x_clean, &mut rx, silent, end, &mut scratch.sic)
                .ok_or_else(|| count_err(ReaderError::CancellationFailed))?
        };
        backfi_obs::probe("reader.cancellation_db", rep.cancellation_db);
        backfi_obs::probe("reader.residual_db", rep.residual_db);
        self.estimate_and_combine(x_clean, rep, rx, timeline, tag_cfg, scratch)
    }

    /// The front half after cancellation: `h_fb` estimation with timing
    /// search → per-symbol MRC through the header prefix. On failure the
    /// report's buffer goes back to the scratch.
    fn estimate_and_combine<'s>(
        &self,
        x_clean: &[Complex],
        rep: CancellerReport,
        rx: Sanitized<'s>,
        timeline: &Timeline,
        tag_cfg: &TagConfig,
        scratch: &mut ReaderScratch,
    ) -> Result<Branch<'s>, ReaderError> {
        let noise_power = stats::undb(rep.residual_db);

        // --- Stage 3: h_fb estimation with timing search ----------------
        // The search fails only when every candidate window escapes the
        // packet. `rep.samples` ends at the packet end or past every window
        // the search reads, so a window escapes it exactly when it escapes
        // the packet.
        let est = {
            let _t = backfi_obs::span("reader.chanest");
            scratch.chanest.estimate(
                x_clean,
                &rep.samples,
                timeline.preamble.start,
                tag_cfg.preamble_us,
                self.cfg.fb_taps,
                self.cfg.timing_span,
                self.cfg.ridge,
            )
        };
        let Some(est) = est else {
            scratch.sic.recycle(rep.samples);
            return Err(count_err(ReaderError::ChannelEstimationFailed));
        };
        backfi_obs::probe("reader.timing_offset_samples", est.offset as f64);
        let timeline = timeline.shifted(est.offset);

        // --- Stage 4: MRC through the header prefix ---------------------
        let sps = tag_cfg.samples_per_symbol();
        let slots = timeline.payload.len() / sps;
        if slots == 0 {
            scratch.sic.recycle(rep.samples);
            return Err(count_err(ReaderError::NoSymbols));
        }
        let mut rest = Rest {
            rx,
            rep,
            long: Vec::new(),
            payload_start: timeline.payload.start,
            slots,
            sps,
            len: x_clean.len(),
            guard: self.cfg.fb_taps, // §4.3.2's boundary guard
            noise_power,
        };
        rest.update_long_runs();
        scratch.reference.clear();
        let mut branch = Branch {
            symbols: Vec::new(),
            cancellation_db: rest.rep.cancellation_db,
            residual_db: rest.rep.residual_db,
            h_fb: est.h_fb,
            timing_offset: est.offset,
            rest: Some(rest),
        };
        let header = PILOT_SYMBOLS + header_symbols(tag_cfg.modulation, tag_cfg.code_rate);
        self.combine(&mut branch, header, x_clean, scratch);
        // The header prefix holds more than the pilot, so the list only
        // ends at or before the pilot when every slot's list does.
        if branch.symbols.len() <= PILOT_SYMBOLS {
            branch.release(&mut scratch.sic);
            return Err(count_err(ReaderError::NoSymbols));
        }
        Ok(branch)
    }

    /// MRC-combine the branch's slots through slot `upto` (clamped to the
    /// payload window), cancelling and filtering the reference `h_fb ∗ x`
    /// only as far as those slots reach. The slots are combined in order
    /// exactly as one pass over every slot would: the first degenerate
    /// window ends the list, so the symbols are always a prefix of the
    /// all-slots list. Once no slot is left the branch releases its
    /// canceller report.
    ///
    /// Degradation ladder rung 2 (DESIGN.md §10): symbol windows dominated
    /// by flagged (saturated/non-finite) samples become erasures — zero LLRs
    /// into the soft Viterbi — instead of confident wrong decisions. The
    /// `reader.erasures` counter counts the erasures among the slots
    /// combined: masked windows and non-finite estimates.
    fn combine(
        &self,
        branch: &mut Branch<'_>,
        upto: usize,
        x_clean: &[Complex],
        scratch: &mut ReaderScratch,
    ) {
        let Some(rest) = &mut branch.rest else {
            return;
        };
        let upto = upto.min(rest.slots);
        let mut ended = false;
        if upto > branch.symbols.len() {
            let end = (rest.payload_start + upto * rest.sps).min(rest.len);
            {
                let _t = backfi_obs::span("reader.sic");
                rest.rep
                    .extend(x_clean, &mut rest.rx, end, &mut scratch.sic);
                rest.update_long_runs();
            }
            let _t = backfi_obs::span("reader.mrc");
            let reference = &mut scratch.reference;
            backfi_dsp::fir::filter_extend(&branch.h_fb, x_clean, end, reference);
            let (y, guard) = (&rest.rep.samples, rest.guard);
            let mut erased = 0u64;
            for i in branch.symbols.len()..upto {
                let Some((s, e)) = rest.window(i) else {
                    ended = true;
                    break;
                };
                if rest.masked((s, e)) {
                    branch.symbols.push(SymbolEstimate::erasure());
                    erased += 1;
                    continue;
                }
                let estimate = if self.cfg.use_zero_forcing {
                    zf_symbol(&y[s..e], &reference[s..e], guard).map(|z| SymbolEstimate {
                        z,
                        ref_energy: 1.0,
                        noise_var: rest.noise_power,
                    })
                } else {
                    mrc_symbol(&y[s..e], &reference[s..e], guard, rest.noise_power)
                };
                match estimate {
                    Some(v) if v.z.is_finite() => branch.symbols.push(v),
                    Some(_) => {
                        branch.symbols.push(SymbolEstimate::erasure());
                        erased += 1;
                    }
                    None => {
                        ended = true;
                        break;
                    }
                }
            }
            if erased > 0 {
                backfi_obs::counter_add("reader.erasures", erased);
            }
        }
        if ended || branch.symbols.len() == rest.slots {
            branch.release(&mut scratch.sic);
        }
    }

    /// Read the frame header from the branch's data symbols and combine
    /// exactly the slots the rest of the decode needs: through the
    /// announced frame when its CRC-8 holds and the frame fits in the slots
    /// (returning its payload length), else through every slot (`None`:
    /// bad header, length out of range, or a frame that streams past the
    /// excitation). A frame fits exactly when combining through it yields
    /// all of its slots, so the verdict is the one the all-slots list
    /// gives.
    fn read_frame(
        &self,
        branch: &mut Branch<'_>,
        tag_cfg: &TagConfig,
        x_clean: &[Complex],
        scratch: &mut ReaderScratch,
    ) -> Option<usize> {
        let (m, r) = (tag_cfg.modulation, tag_cfg.code_rate);
        let frame = announced_len(&branch.symbols[PILOT_SYMBOLS..], m, r).filter(|&len| {
            let count = TagFrame::symbol_count(len, tag_cfg);
            self.combine(branch, count, x_clean, scratch);
            count <= branch.symbols.len()
        });
        if frame.is_none() {
            self.combine(branch, usize::MAX, x_clean, scratch);
        }
        branch.release(&mut scratch.sic);
        frame
    }

    /// Shared back half, bounded by the frame (DESIGN.md §17): with the
    /// `frame` length [`BackscatterReader::read_frame`] found, cut the
    /// symbols to exactly that frame and decode it with the terminated
    /// trellis; without one, decode every slot, truncated. Either way the
    /// common phase is first refined decision-directed over the symbols
    /// kept.
    fn finish(
        &self,
        branch: Branch<'_>,
        frame: Option<usize>,
        tag_cfg: &TagConfig,
    ) -> TagDecodeResult {
        let _t = backfi_obs::span("reader.decode");
        let Branch {
            mut symbols,
            cancellation_db,
            residual_db,
            h_fb,
            timing_offset,
            ..
        } = branch;
        let (m, r) = (tag_cfg.modulation, tag_cfg.code_rate);
        match frame {
            Some(len) => symbols.truncate(TagFrame::symbol_count(len, tag_cfg)),
            None => backfi_obs::counter_add("reader.all_slots", 1),
        }
        {
            let _t = backfi_obs::span("decode.refine_phase");
            refine_phase(&mut symbols, m);
        }
        let data = &symbols[PILOT_SYMBOLS..];
        let (payload, decoded_bits, metrics) = match frame {
            Some(len) => decode_frame(data, m, r, len),
            None => decode_symbols(data, m, r),
        };

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

/// Decision-directed common-phase refinement: slice each symbol, accumulate
/// `z·conj(ideal)` weighted by reference energy (noisy symbols count less),
/// and derotate every symbol by the residual phase. The `h_fb` estimate
/// already carries the absolute phase from the PN preamble's known chips;
/// this averages out what common error it has over the whole frame.
fn refine_phase(symbols: &mut [SymbolEstimate], modulation: TagModulation) {
    let points = ideal_points(modulation);
    let mut acc = Complex::ZERO;
    for s in symbols.iter() {
        let ideal = points[hard_index_of(modulation, s.z)];
        acc += s.z * ideal.conj() * s.ref_energy;
    }
    if acc.abs() > 0.0 {
        let refine = Complex::exp_j(-acc.arg());
        for s in symbols.iter_mut() {
            s.z *= refine;
        }
    }
}

/// Total order on `f64` where NaN always loses a max selection (sorts below
/// `-∞`); identical to `partial_cmp` for finite values, but panic-free.
fn nan_loses_max(a: f64, b: f64) -> std::cmp::Ordering {
    let key = |v: f64| if v.is_nan() { f64::NEG_INFINITY } else { v };
    key(a).total_cmp(&key(b))
}

/// What the reader keeps across the packets of
/// [`BackscatterReader::decode_from`]: the excitation-length buffers (the
/// canceller's stages and the MRC reference `h_fb ∗ x`) and the two
/// least-squares plans that depend only on the excitation (the digital
/// canceller's silent-window plan and the timing search's per-candidate
/// plans). Every buffer is cleared or overwritten before it is read, and a
/// plan is reused only for the same reference window bit for bit, so a
/// scratch carried across packets never changes a result.
#[derive(Debug, Default)]
pub struct ReaderScratch {
    sic: SicScratch,
    chanest: TimingSearch,
    /// `h_fb ∗ x` through the last slot combined so far.
    reference: Vec<Complex>,
}

/// Samples a run of clipped samples must span to mark the erasure mask.
/// Isolated clipped samples (Gaussian tails crossing full scale) keep the
/// seed behavior — only transient-scale runs, which ordinary operation
/// essentially never produces, mark spans.
const CLIP_RUN_MIN: usize = 16;

/// The received stream as the front half reads it: pulled from the source
/// on demand, with the non-finite samples found so far zeroed (in a copy,
/// made once the first one shows up) and their positions kept for the
/// erasure mask.
struct Sanitized<'s> {
    source: &'s mut dyn RxSource,
    /// The pulled samples with `bad` zeroed; in use once `bad` is not empty.
    copy: Vec<Complex>,
    /// Positions of the non-finite samples found so far, ascending.
    bad: Vec<usize>,
    /// Samples checked for non-finite values (all pulled so far).
    checked: usize,
    /// How many of `bad` the `reader.nonfinite_rx` counter has taken.
    counted: usize,
}

impl<'s> Sanitized<'s> {
    fn new(source: &'s mut dyn RxSource) -> Self {
        Sanitized {
            source,
            copy: Vec::new(),
            bad: Vec::new(),
            checked: 0,
            counted: 0,
        }
    }

    /// Count the non-finite samples found since the last count.
    fn count_nonfinite(&mut self) {
        if self.bad.len() > self.counted {
            let found = (self.bad.len() - self.counted) as u64;
            backfi_obs::counter_add("reader.nonfinite_rx", found);
            self.counted = self.bad.len();
        }
    }
}

impl RxSource for Sanitized<'_> {
    fn packet_len(&self) -> usize {
        self.source.packet_len()
    }

    fn pull(&mut self, end: usize) -> &[Complex] {
        let y = self.source.pull(end);
        if y.len() > self.checked {
            let first = self.bad.len();
            self.bad
                .extend((self.checked..y.len()).filter(|&i| !y[i].is_finite()));
            self.checked = y.len();
            if !self.bad.is_empty() {
                let from = self.copy.len();
                self.copy.extend_from_slice(&y[from..]);
                for &i in &self.bad[first..] {
                    self.copy[i] = Complex::ZERO;
                }
            }
        }
        if self.bad.is_empty() {
            y
        } else {
            &self.copy
        }
    }
}

/// One antenna's demodulated view of the packet: the symbols combined so
/// far and, while slots are left, what combining them needs.
struct Branch<'s> {
    symbols: Vec<SymbolEstimate>,
    cancellation_db: f64,
    residual_db: f64,
    h_fb: Vec<Complex>,
    timing_offset: isize,
    /// `None` once no slot is left to combine.
    rest: Option<Rest<'s>>,
}

/// What a [`Branch`] needs to combine further slots. The canceller's report
/// is cancelled as far as the slots combined so far reach, and the MRC
/// reference grows alongside in [`ReaderScratch`].
struct Rest<'s> {
    /// The received stream, pulled as far as the report has read.
    rx: Sanitized<'s>,
    rep: CancellerReport,
    /// The report's clipped runs of at least [`CLIP_RUN_MIN`] samples:
    /// with `rx.bad`, the erasure mask.
    long: Vec<std::ops::Range<usize>>,
    payload_start: usize,
    /// Symbol slots in the payload window.
    slots: usize,
    sps: usize,
    /// Packet length in samples.
    len: usize,
    /// Samples skipped at each window's start.
    guard: usize,
    noise_power: f64,
}

impl Rest<'_> {
    /// Slot `i`'s sample window `(s, e)`, or `None` when it holds no sample
    /// past the guard, which ends the list.
    fn window(&self, i: usize) -> Option<(usize, usize)> {
        let s = self.payload_start + i * self.sps;
        let e = (s + self.sps).min(self.len);
        (e > s + self.guard).then_some((s, e))
    }

    /// Refresh `long` from the report's clip runs, which are complete
    /// wherever the report has scanned.
    fn update_long_runs(&mut self) {
        let from = self.long.last().map_or(0, |r| r.end);
        let runs = &self.rep.clip_ranges;
        let first = runs.partition_point(|r| r.end <= from);
        self.long.extend(
            runs[first..]
                .iter()
                .filter(|r| r.len() >= CLIP_RUN_MIN)
                .cloned(),
        );
    }

    /// Whether the erasure mask erases window `(s, e)`: flagged samples
    /// (non-finite inputs, or in a long clipped run) make up at least a
    /// quarter of those past the guard.
    fn masked(&self, (s, e): (usize, usize)) -> bool {
        let (long, bad) = (&self.long, &self.rx.bad);
        if long.is_empty() && bad.is_empty() {
            return false;
        }
        let start = s + self.guard;
        let first = long.partition_point(|r| r.end <= start);
        let mut flagged: usize = long[first..]
            .iter()
            .take_while(|r| r.start < e)
            .map(|r| r.end.min(e) - r.start.max(start))
            .sum();
        let lo = bad.partition_point(|&i| i < start);
        for &i in bad[lo..].iter().take_while(|&&i| i < e) {
            let k = long.partition_point(|r| r.end <= i);
            if long.get(k).is_none_or(|r| r.start > i) {
                flagged += 1;
            }
        }
        flagged * 4 >= e - start
    }
}

impl Branch<'_> {
    /// Rough per-branch quality: total reference energy over the noise floor.
    fn snr_proxy(&self) -> f64 {
        let e: f64 = self.symbols.iter().map(|s| s.ref_energy).sum();
        e / stats::undb(self.residual_db).max(1e-300)
    }

    /// Stop combining: count the samples the branch's report cancelled
    /// (`reader.front.samples`), record the ADC's clip fraction over what
    /// it scanned, and hand the report's buffer back.
    fn release(&mut self, sic: &mut SicScratch) {
        if let Some(mut rest) = self.rest.take() {
            rest.rx.count_nonfinite();
            backfi_obs::probe("sic.adc_clip_fraction", rest.rep.adc_clip_fraction());
            let samples = rest.rep.samples;
            backfi_obs::counter_add("reader.front.samples", samples.len() as u64);
            sic.recycle(samples);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chanest::estimate_h_fb;
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
        let link = Link::new(distance, tag_cfg, seed, corrupt);
        let reader = BackscatterReader::default();
        (
            reader.decode(&link.x, &link.y, &link.h_env, &link.timeline, &tag_cfg),
            link.data,
        )
    }

    /// The reader's inputs for one packet of [`run_link_mut`].
    struct Link {
        x: Vec<Complex>,
        y: Vec<Complex>,
        h_env: Vec<Complex>,
        timeline: Timeline,
        data: Vec<u8>,
    }

    impl Link {
        fn new(
            distance: f64,
            tag_cfg: TagConfig,
            seed: u64,
            corrupt: impl Fn(&mut [Complex]),
        ) -> Self {
            Link::build(distance, tag_cfg, seed, seed, corrupt)
        }

        /// [`Link::new`] with the excitation drawn from `exc_seed` and the
        /// channel and noise from `seed`.
        fn build(
            distance: f64,
            tag_cfg: TagConfig,
            exc_seed: u64,
            seed: u64,
            corrupt: impl Fn(&mut [Complex]),
        ) -> Self {
            use backfi_tag::detector::SAMPLES_PER_BIT;

            // Excitation: idle, wake-up pulses for tag 1, then wideband "data".
            let mut rng = SplitMix64::new(exc_seed);
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
            let mut medium =
                BackscatterMedium::new(budget, MediumConfig::at_distance(distance), seed);
            let a = budget.tx_power().sqrt();
            let x_scaled: Vec<Complex> = x.iter().map(|&v| v * a).collect();
            let incident: Vec<Complex> = backfi_dsp::fir::filter(&medium.h_f, &x_scaled);
            let mut tag = Tag::new(1, tag_cfg);
            // Size the payload to fit the excitation at this configuration.
            let airtime_us = backfi_dsp::samples_to_us(excitation_end - detect_end);
            let max = backfi_tag::framer::TagFrame::max_payload_bytes(&tag_cfg, airtime_us);
            let len = max.clamp(4, 48);
            let data: Vec<u8> = (0..len).map(|i| (i * 11 + 3) as u8).collect();
            tag.load_data(&data);
            let gamma = tag.react(&incident);

            // Propagate.
            let mut y = medium.propagate(&x, &gamma);
            y.truncate(x.len());
            corrupt(&mut y);
            Link {
                x: x_scaled,
                y,
                h_env: medium.h_env,
                timeline: Timeline::nominal(detect_end, excitation_end, &tag_cfg),
                data,
            }
        }

        /// [`BackscatterReader::decode_from`] over the complete packet,
        /// through `scratch`.
        fn decode_from(
            &self,
            reader: &BackscatterReader,
            tag_cfg: &TagConfig,
            scratch: &mut ReaderScratch,
        ) -> Result<TagDecodeResult, ReaderError> {
            let x = TxReference::new(self.x.as_slice().into());
            let (h_env, timeline) = (&self.h_env, &self.timeline);
            reader.decode_from(&x, &mut &self.y[..], h_env, timeline, tag_cfg, scratch)
        }
    }

    /// Noise-free estimates of constellation indices, then `noise_slots`
    /// slots of unit-power noise (the tag has stopped reflecting).
    fn estimates(indices: &[usize], m: TagModulation, noise_slots: usize) -> Vec<SymbolEstimate> {
        let mut rng = SplitMix64::new(5);
        let order = m.order() as f64;
        let clean = indices
            .iter()
            .map(|&i| Complex::exp_j(std::f64::consts::TAU * i as f64 / order));
        let noise = (0..noise_slots).map(|_| backfi_dsp::noise::cgauss(&mut rng, 1.0));
        clean
            .chain(noise)
            .map(|z| SymbolEstimate {
                z,
                ref_energy: 1.0,
                noise_var: 1e-2,
            })
            .collect()
    }

    /// The reader's back half on `symbols`, with dummy front-half bookkeeping.
    fn finish(symbols: Vec<SymbolEstimate>, tag_cfg: &TagConfig) -> TagDecodeResult {
        let mut branch = Branch {
            symbols,
            cancellation_db: 0.0,
            residual_db: 0.0,
            h_fb: Vec::new(),
            timing_offset: 0,
            rest: None,
        };
        let reader = BackscatterReader::default();
        let frame = reader.read_frame(&mut branch, tag_cfg, &[], &mut ReaderScratch::default());
        reader.finish(branch, frame, tag_cfg)
    }

    /// [`refine_phase`] with the constellation table derotates every symbol
    /// exactly as slicing each one through `exp_j(index_phase(…))` does.
    #[test]
    fn refine_phase_matches_the_per_symbol_slicing() {
        use backfi_tag::psk::{hard_index, index_phase};
        let mut rng = SplitMix64::new(9);
        for m in TagModulation::ALL {
            let symbols: Vec<SymbolEstimate> = (0..544)
                .map(|_| SymbolEstimate {
                    z: backfi_dsp::noise::cgauss(&mut rng, 1.0),
                    ref_energy: 0.5 + rng.next_f64(),
                    noise_var: 0.1,
                })
                .collect();
            let mut want = symbols.clone();
            let mut acc = Complex::ZERO;
            for s in &want {
                let ideal = Complex::exp_j(index_phase(m, hard_index(m, s.z.arg())));
                acc += s.z * ideal.conj() * s.ref_energy;
            }
            let refine = Complex::exp_j(-acc.arg());
            for s in &mut want {
                s.z *= refine;
            }
            let mut got = symbols;
            refine_phase(&mut got, m);
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(
                    (g.z.re.to_bits(), g.z.im.to_bits()),
                    (w.z.re.to_bits(), w.z.im.to_bits()),
                    "{m:?}"
                );
            }
        }
    }

    #[test]
    fn decodes_exactly_the_announced_frame_for_every_modulation_and_rate() {
        for m in TagModulation::ALL {
            for r in backfi_tag::config::TAG_CODE_RATES {
                let cfg = TagConfig {
                    modulation: m,
                    code_rate: r,
                    symbol_rate_hz: 500e3,
                    preamble_us: 32.0,
                };
                let (res, data) = run_link(0.5, cfg, 3);
                let res = res.expect("decode");
                let label = format!("{} {}", m.label(), r.label());
                assert_eq!(res.payload.as_ref().expect(&label), &data, "{label}");
                assert_eq!(
                    res.symbols.len(),
                    TagFrame::symbol_count(data.len(), &cfg),
                    "{label}"
                );
                assert_eq!(res.metrics.symbols, res.symbols.len() - PILOT_SYMBOLS);
            }
        }
    }

    #[test]
    fn bad_header_decodes_every_slot() {
        // A frame whose header CRC-8 fails, encoded like `TagFrame::encode`.
        let cfg = TagConfig::default();
        let m = cfg.modulation;
        let mut bits = TagFrame::info_bits(&[0x5A; 20]);
        bits[3] = !bits[3];
        let mother = backfi_coding::ConvEncoder::ieee80211().encode_terminated(&bits);
        let mut coded = backfi_coding::puncture::puncture(&mother, cfg.code_rate);
        coded.resize(coded.len().next_multiple_of(m.bits_per_symbol()), false);
        let mut indices = vec![0; PILOT_SYMBOLS];
        for c in coded.chunks_exact(m.bits_per_symbol()) {
            indices.push(backfi_tag::psk::bits_to_index(m, c));
        }
        let slots = indices.len() + 300;
        let res = finish(estimates(&indices, m, 300), &cfg);
        assert_eq!(res.payload, Err(FrameError::BadHeader));
        assert_eq!(res.symbols.len(), slots);
    }

    #[test]
    fn frame_longer_than_the_excitation_decodes_every_slot() {
        let cfg = TagConfig::default();
        let indices = TagFrame::encode(&[0xC3; 40], &cfg);
        let slots = indices.len() / 2;
        let res = finish(estimates(&indices[..slots], cfg.modulation, 0), &cfg);
        assert_eq!(res.payload, Err(FrameError::LengthOutOfRange));
        assert_eq!(res.symbols.len(), slots);
    }

    #[test]
    fn frame_bounded_decode_with_matches_decode() {
        // One scratch carried across two packets, against fresh decodes.
        let cfg = TagConfig::default();
        let reader = BackscatterReader::default();
        let mut scratch = ReaderScratch::default();
        for (distance, seed) in [(1.0, 42), (0.5, 43)] {
            let l = Link::new(distance, cfg, seed, |_| {});
            let label = format!("{distance} m, seed {seed}");
            let a = reader
                .decode(&l.x, &l.y, &l.h_env, &l.timeline, &cfg)
                .expect("decode");
            let b = l
                .decode_from(&reader, &cfg, &mut scratch)
                .expect("decode_from");
            assert_eq!(a.payload.as_ref().expect("frame"), &l.data);
            assert_eq!(a.symbols.len(), TagFrame::symbol_count(l.data.len(), &cfg));
            assert_same(&b, &a, &label);
        }
    }

    /// One scratch carried across interleaved packets — two excitations,
    /// each under several channel draws, at both preamble lengths, so its
    /// least-squares plans are reused, missed and rebuilt — decodes every
    /// packet bit for bit as a fresh scratch does.
    #[test]
    fn scratch_carried_across_interleaved_packets_matches_fresh_decodes() {
        let reader = BackscatterReader::default();
        let mut scratch = ReaderScratch::default();
        for preamble_us in [32.0, 96.0] {
            let cfg = TagConfig {
                preamble_us,
                ..TagConfig::default()
            };
            for (exc, seed) in [(1, 50), (2, 51), (1, 52), (1, 53), (2, 54), (2, 55)] {
                let l = Link::build(1.0, cfg, exc, seed, |_| {});
                let label = format!("{preamble_us} µs, excitation {exc}, seed {seed}");
                let fresh = reader.decode(&l.x, &l.y, &l.h_env, &l.timeline, &cfg);
                let carried = l.decode_from(&reader, &cfg, &mut scratch);
                let want = fresh.unwrap_or_else(|e| panic!("{label}: {e:?}"));
                let got = carried.unwrap_or_else(|e| panic!("{label}: {e:?}"));
                assert_same(&got, &want, &label);
            }
        }
    }

    /// Test-only full-length oracle for [`BackscatterReader::decode_from`]:
    /// [`SelfInterferenceCanceller::process`] over every sample, the channel
    /// estimate and the MRC reference over the whole packet, MRC over every
    /// slot, then the back half.
    fn oracle_decode(
        reader: &BackscatterReader,
        x: &[Complex],
        y: &[Complex],
        h_env: &[Complex],
        timeline: &Timeline,
        tag_cfg: &TagConfig,
    ) -> Option<TagDecodeResult> {
        let cfg = reader.cfg;
        let n = y.len();
        let bad: Vec<usize> = (0..n).filter(|&i| !y[i].is_finite()).collect();
        let mut y = y.to_vec();
        for &i in &bad {
            y[i] = Complex::ZERO;
        }
        let canceller = SelfInterferenceCanceller::new(cfg.canceller, h_env);
        let rep = canceller.process(x, &y, timeline.silent.clone())?;
        assert_eq!(rep.samples.len(), n);
        let mut flagged = vec![false; n];
        for &i in &bad {
            flagged[i] = true;
        }
        for r in rep.clip_ranges.iter().filter(|r| r.len() >= 16) {
            flagged[r.clone()].fill(true);
        }
        let mut search = vec![0];
        for off in (20..=cfg.timing_span as isize).step_by(20) {
            search.extend([off, -off]);
        }
        let est = estimate_h_fb(
            x,
            &rep.samples,
            timeline.preamble.start,
            tag_cfg.preamble_us,
            cfg.fb_taps,
            &search,
            cfg.ridge,
        )?;
        let reference = backfi_dsp::fir::filter(&est.h_fb, x);
        let shifted = timeline.shifted(est.offset);
        let sps = tag_cfg.samples_per_symbol();
        let guard = cfg.fb_taps;
        let noise_power = stats::undb(rep.residual_db);
        let mut symbols = Vec::new();
        for i in 0..shifted.payload.len() / sps {
            let s = shifted.payload.start + i * sps;
            let e = (s + sps).min(n);
            if e <= s + guard {
                break;
            }
            let bad = flagged[s + guard..e].iter().filter(|&&f| f).count();
            if bad * 4 >= e - (s + guard) {
                symbols.push(SymbolEstimate::erasure());
                continue;
            }
            let estimate = if cfg.use_zero_forcing {
                zf_symbol(&rep.samples[s..e], &reference[s..e], guard).map(|z| SymbolEstimate {
                    z,
                    ref_energy: 1.0,
                    noise_var: noise_power,
                })
            } else {
                mrc_symbol(&rep.samples[s..e], &reference[s..e], guard, noise_power)
            };
            match estimate {
                Some(v) if v.z.is_finite() => symbols.push(v),
                Some(_) => symbols.push(SymbolEstimate::erasure()),
                None => break,
            }
        }
        if symbols.len() <= PILOT_SYMBOLS {
            return None;
        }
        let mut branch = Branch {
            symbols,
            cancellation_db: rep.cancellation_db,
            residual_db: rep.residual_db,
            h_fb: est.h_fb,
            timing_offset: est.offset,
            rest: None,
        };
        let frame = reader.read_frame(&mut branch, tag_cfg, x, &mut ReaderScratch::default());
        Some(reader.finish(branch, frame, tag_cfg))
    }

    /// A received stream that exposes only the prefix pulled so far, as a
    /// lazily simulated one does.
    struct Prefix<'a> {
        y: &'a [Complex],
        pulled: usize,
    }

    impl RxSource for Prefix<'_> {
        fn packet_len(&self) -> usize {
            self.y.len()
        }

        fn pull(&mut self, end: usize) -> &[Complex] {
            self.pulled = self.pulled.max(end.min(self.y.len()));
            &self.y[..self.pulled]
        }
    }

    /// `decode_from` over the complete slice (through one scratch carried
    /// across calls) and over a stream exposed only as far as it is
    /// pulled, each against [`oracle_decode`] on one packet, bit for bit;
    /// returns the result and how far the stream was pulled.
    fn assert_matches_oracle(
        l: &Link,
        cfg: &TagConfig,
        scratch: &mut ReaderScratch,
        label: &str,
    ) -> (TagDecodeResult, usize) {
        let reader = BackscatterReader::default();
        let want = oracle_decode(&reader, &l.x, &l.y, &l.h_env, &l.timeline, cfg)
            .unwrap_or_else(|| panic!("{label}: oracle failed"));
        let got = l
            .decode_from(&reader, cfg, scratch)
            .unwrap_or_else(|e| panic!("{label}: slice {e:?}"));
        assert_same(&got, &want, label);
        let mut rx = Prefix { y: &l.y, pulled: 0 };
        let x = TxReference::new(l.x.as_slice().into());
        let lazy = reader
            .decode_from(&x, &mut rx, &l.h_env, &l.timeline, cfg, scratch)
            .unwrap_or_else(|e| panic!("{label}: decode_from {e:?}"));
        assert_same(&lazy, &want, &format!("{label}, pulled"));
        (got, rx.pulled)
    }

    /// Two decodes of one packet agree bit for bit.
    fn assert_same(got: &TagDecodeResult, want: &TagDecodeResult, label: &str) {
        let bits = |v: f64| v.to_bits();
        assert_eq!(got.payload, want.payload, "{label}");
        assert_eq!(got.decoded_bits, want.decoded_bits, "{label}");
        assert_eq!(
            (
                bits(got.metrics.symbol_snr_db),
                bits(got.metrics.evm_percent),
                got.metrics.symbols
            ),
            (
                bits(want.metrics.symbol_snr_db),
                bits(want.metrics.evm_percent),
                want.metrics.symbols
            ),
            "{label}"
        );
        assert_eq!(got.symbols.len(), want.symbols.len(), "{label}");
        for (p, q) in got.symbols.iter().zip(&want.symbols) {
            assert_eq!(
                [
                    bits(p.z.re),
                    bits(p.z.im),
                    bits(p.ref_energy),
                    bits(p.noise_var)
                ],
                [
                    bits(q.z.re),
                    bits(q.z.im),
                    bits(q.ref_energy),
                    bits(q.noise_var)
                ],
                "{label}"
            );
        }
        let taps = |h: &[Complex]| -> Vec<(u64, u64)> {
            h.iter().map(|c| (bits(c.re), bits(c.im))).collect()
        };
        assert_eq!(taps(&got.h_fb), taps(&want.h_fb), "{label}");
        assert_eq!(got.timing_offset, want.timing_offset, "{label}");
        assert_eq!(bits(got.residual_db), bits(want.residual_db), "{label}");
    }

    /// The frame-bounded front half (cancel and combine through the header
    /// prefix, then through the announced frame or every slot) decodes
    /// exactly what cancelling and combining the whole excitation does, on
    /// the frame path and on every fallback, from a complete slice and from
    /// a stream exposed only as far as it is pulled. (The link-level pin,
    /// `LinkSimulator::run` against a full-length trial, is in
    /// `backfi-core`.)
    #[test]
    fn frame_bounded_front_half_matches_full_length_oracle() {
        let mut scratch = ReaderScratch::default();

        // Every modulation × code rate on the frame path.
        for m in TagModulation::ALL {
            for r in backfi_tag::config::TAG_CODE_RATES {
                let cfg = TagConfig {
                    modulation: m,
                    code_rate: r,
                    symbol_rate_hz: 500e3,
                    preamble_us: 32.0,
                };
                let l = Link::new(0.5, cfg, 21, |_| {});
                let label = format!("{} {}", m.label(), r.label());
                let (res, pulled) = assert_matches_oracle(&l, &cfg, &mut scratch, &label);
                assert_eq!(res.payload.as_ref().expect(&label), &l.data, "{label}");
                assert!(pulled < l.y.len(), "{label}: pulled the whole packet");
            }
        }

        // A corrupted header: the tag's component over the header symbols
        // is pushed off its constellation, so the CRC-8 fails and every
        // slot is decoded.
        let cfg = TagConfig::default();
        let clean = Link::new(1.0, cfg, 22, |_| {});
        let res = BackscatterReader::default()
            .decode(&clean.x, &clean.y, &clean.h_env, &clean.timeline, &cfg)
            .expect("clean decode");
        let tag = backfi_dsp::fir::filter(&res.h_fb, &clean.x);
        let sps = cfg.samples_per_symbol();
        let start = (clean.timeline.payload.start as isize + res.timing_offset) as usize;
        let header = start + 2 * sps..start + 40 * sps;
        let mut bad = clean;
        for (v, t) in bad.y[header.clone()].iter_mut().zip(&tag[header]) {
            *v -= *t * 2.0;
        }
        let (res, pulled) = assert_matches_oracle(&bad, &cfg, &mut scratch, "corrupted header");
        assert!(res.payload.is_err());
        assert!(pulled + sps > bad.y.len(), "every slot: {pulled}");
        assert!(res.symbols.len() > TagFrame::symbol_count(bad.data.len(), &cfg));

        // A frame longer than the excitation (the 10 kSPS streaming regime).
        let slow = TagConfig {
            symbol_rate_hz: 10e3,
            ..cfg
        };
        let l = Link::new(1.0, slow, 23, |_| {});
        let (res, _) = assert_matches_oracle(&l, &slow, &mut scratch, "streaming");
        assert!(TagFrame::symbol_count(l.data.len(), &slow) > res.symbols.len());

        // A NaN burst and a railing transient inside the frame: the
        // sanitizer, the erasure mask and `bad_rx` all run.
        let l = Link::new(1.0, cfg, 24, |y| {
            let at = y.len() / 10;
            y[at..at + 12].fill(Complex::new(f64::NAN, 0.0));
            y[at + 1000..at + 1040].fill(Complex::new(0.02, -0.02));
        });
        let (res, _) = assert_matches_oracle(&l, &cfg, &mut scratch, "nan + saturation");
        assert!(res.symbols.iter().any(|s| s.is_erasure()), "no erasure");
        assert_eq!(
            res.symbols.len(),
            TagFrame::symbol_count(l.data.len(), &cfg)
        );

        // A railing run of at least `CLIP_RUN_MIN` samples that straddles
        // the frame's end: a pull that stops at the frame sees only its
        // head, so the clip scan reads on to the run's end, and the last
        // frame symbol is erased exactly as the whole-packet scan erases it.
        let mut l = Link::new(1.0, cfg, 26, |_| {});
        let res = BackscatterReader::default()
            .decode(&l.x, &l.y, &l.h_env, &l.timeline, &cfg)
            .expect("clean decode");
        let start = (l.timeline.payload.start as isize + res.timing_offset) as usize;
        let end = start + TagFrame::symbol_count(l.data.len(), &cfg) * sps;
        l.y[end - 8..end + 12].fill(Complex::new(1.0, -1.0));
        let (res, pulled) = assert_matches_oracle(&l, &cfg, &mut scratch, "run across the end");
        assert_eq!(
            res.symbols.len(),
            TagFrame::symbol_count(l.data.len(), &cfg)
        );
        assert!(res.symbols.last().is_some_and(|s| s.is_erasure()));
        assert!(
            (end + 12..end + 12 + 64).contains(&pulled),
            "pulled {pulled}"
        );
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
        // Every entry point rejects it: `decode` builds its `TxReference`
        // per call, `decode_from` and `decode_mimo` read the verdict theirs
        // was built with.
        let got = reader
            .decode(&x_bad, &y, &h_env, &timeline, &tag_cfg)
            .expect_err("NaN reference must fail");
        assert_eq!(got, ReaderError::InvalidInput);
        let mut scratch = ReaderScratch::default();
        let x_ref = TxReference::new(x_bad.as_slice().into());
        assert!(!x_ref.is_finite());
        let got = reader
            .decode_from(
                &x_ref,
                &mut &y[..],
                &h_env,
                &timeline,
                &tag_cfg,
                &mut scratch,
            )
            .expect_err("NaN reference must fail");
        assert_eq!(got, ReaderError::InvalidInput);
        let antennas = [(&y[..], &h_env[..]), (&y[..], &h_env[..])];
        let got = reader
            .decode_mimo(&x_ref, &antennas, &timeline, &tag_cfg)
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
        assert_eq!(after, before + 5, "each InvalidInput must be counted");
    }

    /// When every antenna's branch fails, `decode_mimo` returns a branch's
    /// own error, the one its counter recorded.
    #[test]
    fn mimo_with_every_branch_failing_returns_the_branch_error() {
        let link = Link::new(1.0, TagConfig::default(), 42, |_| {});
        let x_ref = TxReference::new(link.x.as_slice().into());
        let h_bad = vec![Complex::new(f64::NAN, 0.0); link.h_env.len()];
        let antennas = [(&link.y[..], &h_bad[..]), (&link.y[..], &h_bad[..])];
        let got = BackscatterReader::default()
            .decode_mimo(&x_ref, &antennas, &link.timeline, &TagConfig::default())
            .expect_err("non-finite h_env on every antenna must fail");
        assert_eq!(got, ReaderError::InvalidInput);
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

    /// A strong blocker railing the ADC (≈60 dB above the SI level) for
    /// 300 samples. Inside the announced frame, the clipped span's symbols
    /// become erasures, counted by `reader.erasures`, and the decode path
    /// yields finite metrics instead of panicking (15 consecutive erased
    /// symbols are more than the code corrects). Past the frame, nothing the reader computes sees it: the
    /// AGC set its gain on the silent window and the front half stops at
    /// the frame's end, so the decode is the clean one bit for bit.
    #[test]
    fn saturation_transient_is_survivable() {
        backfi_obs::enable();
        let cfg = TagConfig::default();
        let blast =
            |at: usize| move |y: &mut [Complex]| y[at..at + 300].fill(Complex::new(1.0, -1.0));
        let clean = Link::new(1.0, cfg, 42, |_| {});
        let sps = cfg.samples_per_symbol();
        let start = clean.timeline.payload.start;
        let frame_end = start + TagFrame::symbol_count(clean.data.len(), &cfg) * sps;

        let before = backfi_obs::counter_value("reader.erasures");
        let (res, _) = run_link_mut(1.0, cfg, 42, blast(start + 100 * sps));
        let res = res.expect("a transient inside the frame decodes");
        assert!(res.metrics.symbol_snr_db.is_finite());
        let erased = res.symbols.iter().filter(|s| s.is_erasure()).count();
        assert!(erased >= 300 / sps, "{erased} erasures");
        let after = backfi_obs::counter_value("reader.erasures");
        assert!(after >= before + erased as u64, "{before} -> {after}");

        let reader = BackscatterReader::default();
        let want = reader
            .decode(&clean.x, &clean.y, &clean.h_env, &clean.timeline, &cfg)
            .expect("clean decode");
        let (got, data) = run_link_mut(1.0, cfg, 42, blast(frame_end + 1000));
        let got = got.expect("a transient past the frame decodes");
        assert_eq!(got.payload.as_ref().expect("frame"), &data);
        assert_eq!(got.symbols.len(), want.symbols.len());
        for (p, q) in got.symbols.iter().zip(&want.symbols) {
            assert_eq!(
                (p.z.re.to_bits(), p.z.im.to_bits()),
                (q.z.re.to_bits(), q.z.im.to_bits())
            );
        }
    }
}
