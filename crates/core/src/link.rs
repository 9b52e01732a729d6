//! One complete reader ↔ tag exchange.
//!
//! Wires together the excitation builder, the tag state machine, the
//! backscatter medium and the reader, and reports everything the evaluation
//! harnesses need: decode success, goodput, SNRs (measured and "VNA truth"),
//! cancellation quality and tag energy.

use crate::excitation::{Excitation, ExcitationConfig};
use backfi_chan::budget::LinkBudget;
use backfi_chan::frontend::RxSource;
use backfi_chan::impair::Impairments;
use backfi_chan::medium::{BackscatterMedium, MediumConfig, PropagateScratch};
use backfi_dsp::Complex;
use backfi_reader::reader::{
    BackscatterReader, ReaderConfig, ReaderError, ReaderScratch, TagDecodeResult, TxReference,
};
use backfi_reader::Timeline;
use backfi_tag::config::TagConfig;
use backfi_tag::detector::SAMPLES_PER_BIT;
use backfi_tag::energy::epb_pj;
use backfi_tag::framer::TagFrame;
use backfi_tag::psk::{gray_decode, hard_index_of};
use backfi_tag::state::TagState;
use backfi_tag::Tag;
use std::cell::RefCell;
use std::sync::Arc;

/// Configuration of one link experiment.
#[derive(Clone, Debug)]
pub struct LinkConfig {
    /// Link budget (calibrated defaults).
    pub budget: LinkBudget,
    /// Reader ↔ tag distance in metres.
    pub distance_m: f64,
    /// Tag communication parameters.
    pub tag: TagConfig,
    /// Excitation parameters.
    pub excitation: ExcitationConfig,
    /// Reader parameters.
    pub reader: ReaderConfig,
    /// Fault-injection impairments (off by default; see
    /// [`backfi_chan::impair`]). When every knob is zero the simulation is
    /// bit-identical to a build without this field.
    pub impair: Impairments,
}

impl LinkConfig {
    /// A deployment at `distance_m` with all defaults, impairments off.
    pub fn at_distance(distance_m: f64) -> Self {
        LinkConfig {
            budget: LinkBudget::default(),
            distance_m,
            tag: TagConfig::default(),
            excitation: ExcitationConfig::default(),
            reader: ReaderConfig::default(),
            impair: Impairments::off(),
        }
    }
}

/// Everything one exchange produced.
#[derive(Clone, Debug)]
pub struct LinkReport {
    /// Did the reader recover the exact payload (CRC-verified)?
    pub success: bool,
    /// The payload the tag sent.
    pub sent: Vec<u8>,
    /// BER over the frame's information bits (post-FEC).
    pub ber: f64,
    /// Raw hard-decision bit error rate on the PSK symbols before Viterbi
    /// decoding — the quantity Fig. 11b's waterfalls plot.
    pub pre_fec_ber: f64,
    /// Decision-directed symbol SNR at the reader, dB (Fig. 11a "measured").
    pub measured_snr_db: f64,
    /// Ideal per-sample backscatter SNR from the medium's true channels
    /// (Fig. 11a "expected", the VNA ground truth).
    pub expected_snr_db: f64,
    /// Total self-interference cancellation achieved, dB.
    pub cancellation_db: f64,
    /// Uplink goodput in bit/s over the data-packet airtime (0 on failure).
    pub goodput_bps: f64,
    /// Tag energy for this frame in picojoules (energy model × bits).
    pub tag_energy_pj: f64,
    /// Reader error, if the pipeline failed before producing symbols.
    pub reader_error: Option<ReaderError>,
    /// Whether this trial's job panicked and was caught by the sweep
    /// executor; such reports carry worst-case statistics so aggregates stay
    /// well defined.
    pub panicked: bool,
}

impl LinkReport {
    /// The report recorded for a job that panicked: a counted failure with
    /// worst-case statistics (BER 1, −∞ SNR, zero goodput) so aggregation
    /// over a grid cell never divides by a missing trial.
    pub fn job_failed() -> LinkReport {
        LinkReport {
            panicked: true,
            reader_error: None,
            ..LinkReport::failed(Vec::new(), f64::NEG_INFINITY, 0.0, ReaderError::NoSymbols)
        }
    }

    /// An exchange that delivered nothing: the tag never woke, or the
    /// reader failed with `error` before producing symbols.
    fn failed(
        sent: Vec<u8>,
        expected_snr_db: f64,
        tag_energy_pj: f64,
        error: ReaderError,
    ) -> LinkReport {
        LinkReport {
            success: false,
            sent,
            ber: 1.0,
            pre_fec_ber: 0.5,
            measured_snr_db: f64::NEG_INFINITY,
            expected_snr_db,
            cancellation_db: 0.0,
            goodput_bps: 0.0,
            tag_energy_pj,
            reader_error: Some(error),
            panicked: false,
        }
    }
}

/// The excitation-length buffers of one link trial, owned by a thread and
/// reused by every [`LinkSimulator::run`] on it, so a warm trial allocates
/// no per-sample buffer and touches no fresh pages (a received stream with
/// non-finite samples gets a fresh sanitized copy).
///
/// * **Buffers.** The wave at the tag (`incident = h_f ∗ x`, convolved once
///   and shared by the tag and the medium), the tag's reflection stream
///   `gamma`, the received signal `rx`, the medium's three intermediate
///   signals, and the reader's canceller stages and MRC reference.
/// * **Plans.** The reader's scratch also keeps the least-squares plans
///   that depend only on the excitation (the digital canceller's
///   silent-window Gram factorization and the timing search's
///   per-candidate ones), reused by the thread's next trial while its
///   reference windows are the same bit for bit and rebuilt otherwise.
/// * **Lifetime.** One per thread, built empty on the thread's first trial
///   and sized by it (never in [`LinkSimulator::new`]). A sweep executor's
///   scoped workers live for one pass, so their scratch does too; a
///   long-lived thread keeps its largest trial's buffers until it exits.
/// * **Reads.** Every buffer is cleared or resized and then written (as far
///   as the trial reads it) before it is read, and a plan is reused only
///   for its own reference window, so what a previous trial (of any
///   configuration, or one that panicked half-way) left behind never
///   reaches a result: a run on a warm scratch is bit-identical to the same
///   seed on a fresh thread.
/// * **Unwind.** `run` holds the borrow through a `RefCell` guard, which a
///   panic releases while unwinding; the next trial on that thread borrows
///   the scratch again.
#[derive(Default)]
struct TrialScratch {
    incident: Vec<Complex>,
    gamma: Vec<Complex>,
    rx: Vec<Complex>,
    medium: PropagateScratch,
    reader: ReaderScratch,
}

thread_local! {
    static TRIAL_SCRATCH: RefCell<TrialScratch> = RefCell::new(TrialScratch::default());
}

/// One trial's received signal, simulated only as far as the reader pulls
/// it (DESIGN.md §17.2). The wave at the tag (`h_f ∗ x`), the tag's reaction
/// and both paths of the medium extend together to each watermark, rounded
/// up to a tag comparator bit ([`SAMPLES_PER_BIT`] = 20 samples, a multiple
/// of the noise streams' 4 lanes) or the packet end, so every extension
/// appends exactly the samples one whole-packet pass gives.
struct LazyTrial<'a> {
    x_scaled: &'a [Complex],
    medium: &'a mut BackscatterMedium,
    tag: &'a mut Tag,
    incident: &'a mut Vec<Complex>,
    gamma: &'a mut Vec<Complex>,
    scratch: &'a mut PropagateScratch,
    rx: &'a mut Vec<Complex>,
}

impl LazyTrial<'_> {
    /// `end` rounded up to a comparator bit, within the packet.
    fn watermark(&self, end: usize) -> usize {
        end.next_multiple_of(SAMPLES_PER_BIT)
            .min(self.x_scaled.len())
    }

    /// Extend the wave at the tag and the tag's reaction through `end`.
    fn react_to(&mut self, end: usize) {
        let end = self.watermark(end);
        if end > self.gamma.len() {
            let _t = backfi_obs::span("link.tag_react");
            backfi_dsp::fir::filter_extend(&self.medium.h_f, self.x_scaled, end, self.incident);
            self.tag.react_extend(self.incident, end, self.gamma);
        }
    }

    /// The whole received signal with the receiver-side impairments
    /// applied (the tag's reaction, warped by the tag-timeline ones, is
    /// already whole).
    fn impaired(&mut self, impair: &Impairments, noise_power: f64, seed: u64) -> &[Complex] {
        let n = self.x_scaled.len();
        self.pull(n);
        // Receiver-side impairments (CFO, interference bursts, saturation,
        // impulses, truncation, non-finite corruption).
        let applied = impair.apply_rx(&mut self.rx[..n], noise_power, seed);
        if applied.any() {
            backfi_obs::counter_add("link.impair.rx", 1);
            backfi_obs::counter_add("link.impair.bursts", applied.bursts as u64);
            backfi_obs::counter_add("link.impair.impulses", applied.impulses as u64);
            if applied.saturated {
                backfi_obs::counter_add("link.impair.saturated", 1);
            }
            if applied.truncated_at.is_some() {
                backfi_obs::counter_add("link.impair.truncated", 1);
            }
            if applied.nonfinite > 0 {
                backfi_obs::counter_add("link.impair.nonfinite", 1);
            }
        }
        &self.rx[..n]
    }
}

impl RxSource for LazyTrial<'_> {
    fn packet_len(&self) -> usize {
        self.x_scaled.len()
    }

    fn pull(&mut self, end: usize) -> &[Complex] {
        let end = self.watermark(end);
        if end > self.rx.len() {
            self.react_to(end);
            let _t = backfi_obs::span("link.propagate");
            self.medium.propagate_extend(
                self.x_scaled,
                self.incident,
                self.gamma,
                end,
                self.scratch,
                self.rx,
            );
        }
        self.rx
    }
}

/// The composed simulator.
///
/// Construction shares what depends only on the configuration's excitation:
/// the WiFi excitation (scrambler → conv-code → interleave → IFFT) comes
/// from the process-wide [`Excitation::cached`] store, and its TX-scaled
/// copy from that excitation's [`Excitation::scaled`] memo, so every
/// simulator with the same excitation and TX amplitude holds the same two
/// allocations and a sweep builds its simulators in pointer copies.
/// `run(seed)` itself is pure per-trial work (`&self`, seed-derived state
/// only), so one simulator can serve many sweep worker threads
/// concurrently.
#[derive(Clone)]
pub struct LinkSimulator {
    cfg: LinkConfig,
    exc: Arc<Excitation>,
    /// The excitation at the budget's TX amplitude (the canceller's clean
    /// reference), shared with every simulator of the same excitation and
    /// amplitude, and checked for non-finite samples once with it.
    x_scaled: TxReference,
}

impl LinkSimulator {
    /// Create a simulator for the given configuration.
    pub fn new(cfg: LinkConfig) -> Self {
        let exc = Excitation::cached(&cfg.excitation);
        let x_scaled = exc.scaled(cfg.budget.tx_power().sqrt());
        LinkSimulator { cfg, exc, x_scaled }
    }

    /// The configuration in use.
    pub fn config(&self) -> &LinkConfig {
        &self.cfg
    }

    /// The shared excitation this simulator replays every trial.
    pub fn excitation(&self) -> &Excitation {
        &self.exc
    }

    /// Run one exchange with the given channel/noise/payload seed, over this
    /// thread's reusable trial buffers.
    pub fn run(&self, seed: u64) -> LinkReport {
        TRIAL_SCRATCH.with(|cell| self.run_with(seed, &mut cell.borrow_mut()).0)
    }

    /// [`LinkSimulator::run`], also returning how many received samples
    /// the trial simulated.
    fn run_with(&self, seed: u64, scratch: &mut TrialScratch) -> (LinkReport, usize) {
        let _t_trial = backfi_obs::span("link.trial");
        backfi_obs::counter_add("link.trials", 1);
        let cfg = &self.cfg;
        // --- AP transmission -------------------------------------------
        let exc = &*self.exc;
        let x_scaled = self.x_scaled.samples();

        // --- medium and tag ----------------------------------------------
        let _t_medium = backfi_obs::span("link.medium");
        let mut medium =
            BackscatterMedium::new(cfg.budget, MediumConfig::at_distance(cfg.distance_m), seed);
        let expected_snr_db = medium.expected_backscatter_snr_db();
        drop(_t_medium);
        backfi_obs::probe("link.expected_snr_db", expected_snr_db);

        let _t_load = backfi_obs::span("link.load_data");
        let (sent, frame_fits) = self.payload(seed);
        let mut tag = Tag::new(cfg.excitation.tag_id, cfg.tag);
        tag.load_data(&sent);
        drop(_t_load);
        let TrialScratch {
            incident,
            gamma,
            rx,
            medium: medium_scratch,
            reader: reader_scratch,
        } = scratch;
        incident.clear();
        gamma.clear();
        rx.clear();
        let n = exc.samples.len();
        let h_env = medium.h_env.clone();
        let mut trial = LazyTrial {
            x_scaled,
            medium: &mut medium,
            tag: &mut tag,
            incident,
            gamma,
            scratch: medium_scratch,
            rx,
        };
        if cfg.impair.is_off() {
            // React through the wake-up preamble; a tag still listening
            // there reacts to the whole excitation, which decides the
            // wake-up as one whole-packet reaction would (a tag that has
            // woken never listens again).
            trial.react_to(exc.detect_end + SAMPLES_PER_BIT);
            if matches!(trial.tag.state(), TagState::Listening | TagState::Sleep) {
                trial.react_to(n);
            }
        } else {
            trial.react_to(n);
            // Tag-timeline impairments (clock drift / desync): warp the
            // reflection-coefficient stream. `None` when both knobs are off.
            if let Some(warped) = cfg.impair.warp_gamma(trial.gamma, seed) {
                backfi_obs::counter_add("link.impair.timeline", 1);
                *trial.gamma = warped;
            }
        }

        let energy_bits = (sent.len() * 8) as f64;
        let tag_energy_pj = epb_pj(&cfg.tag) * energy_bits;

        // If the tag never woke up (below sensitivity), the exchange fails.
        if matches!(trial.tag.state(), TagState::Listening | TagState::Sleep) {
            backfi_obs::counter_add("link.fail.wakeup", 1);
            let error = ReaderError::NoSymbols;
            return (
                LinkReport::failed(sent, expected_snr_db, tag_energy_pj, error),
                0,
            );
        }

        // --- reader -------------------------------------------------------
        // With every impairment off the reader pulls the received signal on
        // demand, so the trial simulates only the samples it reads. The
        // impairments read the whole packet (the tag-timeline warp, the
        // saturation blocker's amplitude and the burst positions), so an
        // impaired trial is simulated full-length first.
        let timeline = Timeline::nominal(exc.detect_end, n, &cfg.tag);
        let mut impaired;
        let rx: &mut dyn RxSource = if cfg.impair.is_off() {
            &mut trial
        } else {
            impaired = trial.impaired(&cfg.impair, cfg.budget.noise_power(), seed);
            &mut impaired
        };
        let decoded = {
            let _t_reader = backfi_obs::span("link.reader");
            BackscatterReader::new(cfg.reader).decode_from(
                &self.x_scaled,
                rx,
                &h_env,
                &timeline,
                &cfg.tag,
                reader_scratch,
            )
        };
        let simulated = trial.rx.len();
        backfi_obs::counter_add("link.samples", simulated as u64);
        let _t_report = backfi_obs::span("link.report");
        let report = self.report(
            sent,
            tag.symbols(),
            frame_fits,
            expected_snr_db,
            tag_energy_pj,
            &medium,
            decoded,
        );
        (report, simulated)
    }

    /// The payload the tag sends on trial `seed`, and whether its frame
    /// fits in one excitation.
    fn payload(&self, seed: u64) -> (Vec<u8>, bool) {
        let exc = &*self.exc;
        // Size the payload to fill the excitation (§6.1: "The IoT sensor
        // backscatters for the entire duration of the packet"). At very low
        // symbol rates a whole CRC-protected frame cannot fit in one packet
        // (a minimal frame at 10 kSPS spans ~16 ms); the tag then streams the
        // frame across packets, and a single exchange is judged by its raw
        // symbol error rate instead of the end-of-frame CRC — exactly how
        // sub-frame throughput is measured on hardware.
        let airtime = backfi_dsp::samples_to_us(exc.samples.len() - exc.detect_end);
        let max_payload = TagFrame::max_payload_bytes(&self.cfg.tag, airtime);
        let frame_fits = max_payload >= 1;
        // "A typical backscatter packet will have 1000 bits of information in
        // it" (§5.2.1) — cap the frame near that so the frame-error criterion
        // is comparable across configurations and excitation lengths; fast
        // configurations simply finish early.
        let payload_len = max_payload.clamp(1, 128);
        let sent: Vec<u8> = (0..payload_len)
            .map(|i| (seed as usize + i * 131 + 7) as u8)
            .collect();
        (sent, frame_fits)
    }

    /// The trial's report from what the reader decoded; `sent_symbols` are
    /// the constellation indices the tag modulated for `sent`.
    #[allow(clippy::too_many_arguments)]
    fn report(
        &self,
        sent: Vec<u8>,
        sent_symbols: &[usize],
        frame_fits: bool,
        expected_snr_db: f64,
        tag_energy_pj: f64,
        medium: &BackscatterMedium,
        decoded: Result<TagDecodeResult, ReaderError>,
    ) -> LinkReport {
        let (cfg, exc) = (&self.cfg, &*self.exc);
        let energy_bits = (sent.len() * 8) as f64;
        match decoded {
            Ok(res) => {
                if backfi_obs::enabled() {
                    // Channel-estimate fidelity vs the medium's ground truth
                    // (the "VNA view" the paper compares against): MSE of the
                    // reader's h_f∗h_b estimate over the true cascade taps.
                    let truth = medium.h_fb_true();
                    let n = truth.len().max(res.h_fb.len()).max(1);
                    let mse: f64 = (0..n)
                        .map(|i| {
                            let g = res.h_fb.get(i).copied().unwrap_or(Complex::ZERO);
                            let t = truth.get(i).copied().unwrap_or(Complex::ZERO);
                            (g - t).norm_sqr()
                        })
                        .sum::<f64>()
                        / n as f64;
                    backfi_obs::probe("link.chanest_mse", mse);
                }
                let frame_success = res.payload.as_ref().map(|p| p == &sent).unwrap_or(false);
                let ber = backfi_reader::decode::frame_ber(&res.decoded_bits, &sent);
                // Pre-FEC BER: hard-decide each received phasor and compare
                // against the symbols the tag actually modulated.
                let m = cfg.tag.modulation;
                let bps = m.bits_per_symbol();
                let mut raw_errs = 0usize;
                let mut raw_bits = 0usize;
                for (i, &idx) in sent_symbols.iter().enumerate() {
                    let Some(est) = res.symbols.get(i) else { break };
                    let got = gray_decode(hard_index_of(m, est.z));
                    raw_errs += (got ^ gray_decode(idx)).count_ones() as usize;
                    raw_bits += bps;
                }
                let pre_fec_ber = if raw_bits == 0 {
                    0.5
                } else {
                    raw_errs as f64 / raw_bits as f64
                };
                // Probe criterion for frames that span multiple packets: the
                // rate-1/2 K=7 code corrects raw BER up to a few percent, so
                // the link "works" when the symbol stream is that clean.
                let success = if frame_fits {
                    frame_success
                } else {
                    raw_bits >= 12 && pre_fec_ber < 0.02
                };
                backfi_obs::probe("link.measured_snr_db", res.metrics.symbol_snr_db);
                backfi_obs::probe("link.cancellation_db", res.cancellation_db);
                backfi_obs::probe("link.pre_fec_ber", pre_fec_ber);
                if success {
                    backfi_obs::counter_add("link.success", 1);
                    backfi_obs::trace::instant_arg(
                        "link.success",
                        "snr_db",
                        res.metrics.symbol_snr_db,
                    );
                } else if !frame_fits {
                    backfi_obs::counter_add("link.fail.stream_ber", 1);
                    backfi_obs::trace::instant_arg("link.fail", "pre_fec_ber", pre_fec_ber);
                } else if res.payload.is_err() {
                    backfi_obs::counter_add("link.fail.crc", 1);
                    backfi_obs::trace::instant("link.fail.crc");
                } else {
                    // CRC validated but the bytes differ from what the tag
                    // loaded — an undetected-error event worth counting apart.
                    backfi_obs::counter_add("link.fail.payload_mismatch", 1);
                }
                let goodput_bps = if frame_fits && frame_success {
                    // Delivered bits over the time the frame actually
                    // occupied (protocol overhead + symbols); fast
                    // configurations finish early and the link could start
                    // the next frame.
                    let frame_us = TagFrame::symbol_count(sent.len(), &cfg.tag) as f64 * 1e6
                        / cfg.tag.symbol_rate_hz;
                    let overhead_us = 16.0 + 16.0 + cfg.tag.preamble_us;
                    energy_bits / ((frame_us + overhead_us) * 1e-6)
                } else if success {
                    // Streaming regime: steady-state throughput over the
                    // usable payload window.
                    cfg.tag.throughput_bps()
                        * (raw_bits as f64 / cfg.tag.modulation.bits_per_symbol() as f64)
                        * cfg.tag.samples_per_symbol() as f64
                        / exc.samples.len() as f64
                } else {
                    0.0
                };
                LinkReport {
                    success,
                    sent,
                    ber,
                    pre_fec_ber,
                    measured_snr_db: res.metrics.symbol_snr_db,
                    expected_snr_db,
                    cancellation_db: res.cancellation_db,
                    goodput_bps,
                    tag_energy_pj,
                    reader_error: None,
                    panicked: false,
                }
            }
            Err(e) => {
                let stage = match e {
                    ReaderError::CancellationFailed => "link.fail.cancellation",
                    ReaderError::ChannelEstimationFailed => "link.fail.chanest",
                    ReaderError::NoSymbols => "link.fail.no_symbols",
                    ReaderError::InvalidInput => "link.fail.invalid_input",
                };
                backfi_obs::counter_add(stage, 1);
                backfi_obs::trace::instant(stage);
                LinkReport::failed(sent, expected_snr_db, tag_energy_pj, e)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use backfi_coding::CodeRate;
    use backfi_tag::config::TagModulation;

    fn quick_cfg(distance: f64, tag: TagConfig) -> LinkConfig {
        let mut cfg = LinkConfig::at_distance(distance);
        cfg.tag = tag;
        cfg.excitation.wifi_payload_bytes = 1500; // ≈0.5 ms — keep tests fast
        cfg
    }

    #[test]
    fn qpsk_link_works_at_one_meter() {
        let sim = LinkSimulator::new(quick_cfg(1.0, TagConfig::default()));
        let rep = sim.run(11);
        assert!(rep.success, "error {:?}, ber {}", rep.reader_error, rep.ber);
        assert!(rep.goodput_bps > 2e5, "goodput {}", rep.goodput_bps);
        assert!(rep.cancellation_db > 50.0);
        assert!(rep.tag_energy_pj > 0.0);
    }

    #[test]
    fn headline_16psk_works_close() {
        let tag = TagConfig {
            modulation: TagModulation::Psk16,
            code_rate: CodeRate::Half,
            symbol_rate_hz: 2.5e6,
            preamble_us: 32.0,
        };
        let sim = LinkSimulator::new(quick_cfg(0.5, tag));
        let mut ok = 0;
        for seed in 0..3 {
            if sim.run(seed).success {
                ok += 1;
            }
        }
        assert!(ok >= 2, "16PSK 1/2 @ 2.5 MSPS at 0.5 m: {ok}/3");
    }

    #[test]
    fn headline_point_decodes_over_twenty_seeds() {
        // The paper's headline configuration, 16PSK 1/2 @ 2.5 MSPS at 1 m,
        // decodes on at least 80 % of 20 fading and noise draws.
        let tag = TagConfig {
            modulation: TagModulation::Psk16,
            code_rate: CodeRate::Half,
            symbol_rate_hz: 2.5e6,
            preamble_us: 32.0,
        };
        let sim = LinkSimulator::new(quick_cfg(1.0, tag));
        let ok = (0..20u64).filter(|&s| sim.run(1000 + s).success).count();
        assert!(ok >= 16, "16PSK 1/2 @ 2.5 MSPS at 1 m: {ok}/20");
    }

    #[test]
    fn distant_16psk_fails() {
        let tag = TagConfig {
            modulation: TagModulation::Psk16,
            code_rate: CodeRate::TwoThirds,
            symbol_rate_hz: 2.5e6,
            preamble_us: 32.0,
        };
        let sim = LinkSimulator::new(quick_cfg(5.0, tag));
        let rep = sim.run(3);
        assert!(!rep.success, "6.67 Mbps must not decode at 5 m");
    }

    /// Mean of a per-seed link statistic over ≥20 seeds (ROADMAP convention:
    /// statistical assertions never ride on one fading draw).
    fn mean_over_seeds(sim: &LinkSimulator, f: impl Fn(&LinkReport) -> f64) -> f64 {
        let n = 20u64;
        (0..n).map(|s| f(&sim.run(s))).sum::<f64>() / n as f64
    }

    #[test]
    fn goodput_reflects_throughput_config() {
        // A faster tag config that decodes yields more goodput, on average
        // over 20 seeds.
        let slow = TagConfig {
            modulation: TagModulation::Bpsk,
            code_rate: CodeRate::Half,
            symbol_rate_hz: 500e3,
            preamble_us: 32.0,
        };
        let fast = TagConfig::default(); // QPSK 1 MSPS
        let sim_s = LinkSimulator::new(quick_cfg(1.0, slow));
        let sim_f = LinkSimulator::new(quick_cfg(1.0, fast));
        let gs = mean_over_seeds(&sim_s, |r| r.goodput_bps);
        let gf = mean_over_seeds(&sim_f, |r| r.goodput_bps);
        assert!(gs > 0.0, "slow config never decoded");
        assert!(gf > gs * 2.0, "fast {gf} vs slow {gs}");
    }

    /// Test-only full-length oracle of [`LinkSimulator::run`], built from
    /// the allocating public items as a caller without the lazy trial
    /// would: the tag reacts to the whole excitation, the medium propagates
    /// it whole (channel tails included), the impairments apply, and the
    /// reader decodes the complete stream. Also returns the decode's timing
    /// offset, when it produced one.
    fn full_length_trial(sim: &LinkSimulator, seed: u64) -> (LinkReport, Option<isize>) {
        let (cfg, exc) = (&sim.cfg, &*sim.exc);
        let mut medium =
            BackscatterMedium::new(cfg.budget, MediumConfig::at_distance(cfg.distance_m), seed);
        let expected_snr_db = medium.expected_backscatter_snr_db();
        let (sent, frame_fits) = sim.payload(seed);
        let tag_energy_pj = epb_pj(&cfg.tag) * (sent.len() * 8) as f64;
        let mut tag = Tag::new(cfg.excitation.tag_id, cfg.tag);
        tag.load_data(&sent);
        let gamma = tag.react(&backfi_dsp::fir::filter(
            &medium.h_f,
            sim.x_scaled.samples(),
        ));
        let gamma = cfg.impair.warp_gamma(&gamma, seed).unwrap_or(gamma);
        if matches!(tag.state(), TagState::Listening | TagState::Sleep) {
            let error = ReaderError::NoSymbols;
            let report = LinkReport::failed(sent, expected_snr_db, tag_energy_pj, error);
            return (report, None);
        }
        let n = exc.samples.len();
        let mut y = medium.propagate(&exc.samples, &gamma);
        cfg.impair
            .apply_rx(&mut y[..n], cfg.budget.noise_power(), seed);
        y.truncate(n);
        let timeline = Timeline::nominal(exc.detect_end, n, &cfg.tag);
        let decoded = BackscatterReader::new(cfg.reader).decode(
            sim.x_scaled.samples(),
            &y,
            &medium.h_env,
            &timeline,
            &cfg.tag,
        );
        let timing = decoded.as_ref().ok().map(|r| r.timing_offset);
        let report = sim.report(
            sent,
            tag.symbols(),
            frame_fits,
            expected_snr_db,
            tag_energy_pj,
            &medium,
            decoded,
        );
        (report, timing)
    }

    /// One trial of `sim`, lazy and full-length, compared field by field
    /// bit for bit; returns how many samples the lazy trial simulated and
    /// the decode's timing offset.
    fn assert_lazy_matches(sim: &LinkSimulator, seed: u64, label: &str) -> (usize, Option<isize>) {
        let (got, simulated) =
            TRIAL_SCRATCH.with(|cell| sim.run_with(seed, &mut cell.borrow_mut()));
        let (want, timing) = full_length_trial(sim, seed);
        let key = |r: &LinkReport| {
            let f = [
                r.ber,
                r.pre_fec_ber,
                r.measured_snr_db,
                r.expected_snr_db,
                r.cancellation_db,
                r.goodput_bps,
                r.tag_energy_pj,
            ];
            let bits = f.map(f64::to_bits);
            (r.success, r.sent.clone(), bits, r.reader_error, r.panicked)
        };
        assert_eq!(key(&got), key(&want), "{label}, seed {seed}");
        (simulated, timing)
    }

    /// Symbol slots of `sim`'s nominal payload window.
    fn all_slots(sim: &LinkSimulator) -> usize {
        let exc = sim.excitation();
        let timeline = Timeline::nominal(exc.detect_end, exc.samples.len(), &sim.cfg.tag);
        timeline.payload.len() / sim.cfg.tag.samples_per_symbol()
    }

    /// How far a trial that combines every slot of the nominal payload
    /// window pulls the received signal: through its last whole slot,
    /// rounded up to a comparator bit.
    fn every_slot_end(sim: &LinkSimulator) -> usize {
        let exc = sim.excitation();
        let start = exc.detect_end + backfi_dsp::us_to_samples(16.0 + sim.cfg.tag.preamble_us);
        let end = start + all_slots(sim) * sim.cfg.tag.samples_per_symbol();
        end.next_multiple_of(SAMPLES_PER_BIT).min(exc.samples.len())
    }

    /// The lazy trial reports exactly what the full-length oracle does, on
    /// the detected SIMD backend and on the scalar kernels
    /// (`BACKFI_SIMD=off`): every modulation × symbol rate, a header that
    /// fails its CRC, the 10 kSPS streaming regime, and the impaired trials
    /// (a NaN burst plus saturation, a tag-timeline desync), which are
    /// simulated whole. A clean trial reads through
    /// every whole slot when the reader falls back to every slot, and
    /// otherwise stops near the frame's end. (A clipped run across the
    /// frame's end, which only a lazily pulled stream can cut, is pinned by
    /// the reader's `frame_bounded_front_half_matches_full_length_oracle`.)
    #[test]
    fn lazy_trial_matches_full_length_oracle() {
        use backfi_dsp::simd::{backend, force_scalar, Backend};
        let was_scalar = backend() == Backend::Scalar;
        for scalar in [false, true] {
            force_scalar(scalar);
            for m in TagModulation::ALL {
                for rate in backfi_tag::config::TAG_SYMBOL_RATES {
                    let tag = TagConfig {
                        modulation: m,
                        code_rate: CodeRate::Half,
                        symbol_rate_hz: rate,
                        preamble_us: 32.0,
                    };
                    let sim = LinkSimulator::new(quick_cfg(1.0, tag));
                    let label = format!("{} @ {rate} SPS", m.label());
                    let (simulated, _) = assert_lazy_matches(&sim, 5, &label);
                    let (sent, fits) = sim.payload(5);
                    let (read, all) = (simulated, every_slot_end(&sim));
                    if !fits {
                        assert_eq!(read, all, "{label}: streaming reads every slot");
                    } else if sim.run(5).success {
                        // Through the frame, give or take the timing offset
                        // and a comparator bit.
                        let start = all - all_slots(&sim) * tag.samples_per_symbol();
                        let frame = TagFrame::symbol_count(sent.len(), &tag);
                        let end = start + frame * tag.samples_per_symbol();
                        assert!(read < end + 160, "{label}: {read} vs {end}");
                    }
                }
            }

            // A header whose CRC-8 fails far out: the all-slots fallback.
            let tag = TagConfig {
                modulation: TagModulation::Psk16,
                code_rate: CodeRate::TwoThirds,
                symbol_rate_hz: 2.5e6,
                preamble_us: 32.0,
            };
            let sim = LinkSimulator::new(quick_cfg(3.0, tag));
            let all = every_slot_end(&sim);
            let fallback = (0..40u64)
                .find(|&seed| assert_lazy_matches(&sim, seed, "bad header").0 >= all)
                .expect("some trial falls back to every slot");
            assert!(!sim.run(fallback).success);

            // Impaired trials are simulated whole: a NaN burst plus a
            // saturation transient, and a tag-timeline desync that moves
            // the timing estimate.
            let impaired = |spec: &str| {
                let mut cfg = quick_cfg(1.0, TagConfig::default());
                cfg.impair = Impairments::parse(spec).expect("spec");
                LinkSimulator::new(cfg)
            };
            let sim = impaired("nonfinite:1,saturation:1");
            let n = sim.excitation().samples.len();
            assert_eq!(assert_lazy_matches(&sim, 7, "nan + saturation").0, n);
            let sim = impaired("desync:1");
            let shifted = (0..40u64).find(|&seed| {
                let (simulated, timing) = assert_lazy_matches(&sim, seed, "desync");
                timing.is_some_and(|t| t != 0 && simulated == n)
            });
            assert!(shifted.is_some(), "no desync moved the timing estimate");
        }
        force_scalar(was_scalar);
    }

    /// Simulators of one excitation and TX power share one scaled
    /// reference; another TX power gets its own, equal bit for bit to the
    /// samples times its amplitude.
    #[test]
    fn scaled_reference_is_shared_per_excitation_and_amplitude() {
        let mut cfg = quick_cfg(1.0, TagConfig::default());
        cfg.excitation.tag_id = 11; // an excitation no other test scales
        let a = LinkSimulator::new(cfg.clone());
        cfg.distance_m = 3.0;
        cfg.tag.preamble_us = 96.0;
        let b = LinkSimulator::new(cfg.clone());
        let ptr = |s: &LinkSimulator| s.x_scaled.samples().as_ptr();
        assert_eq!(ptr(&a), ptr(&b));
        assert!(Arc::ptr_eq(&a.exc, &b.exc));
        let bits = |v: &[Complex]| -> Vec<(u64, u64)> {
            v.iter().map(|c| (c.re.to_bits(), c.im.to_bits())).collect()
        };
        for dbm in [17.0, 23.0] {
            cfg.budget.tx_power_dbm = dbm;
            let c = LinkSimulator::new(cfg.clone());
            assert_ne!(ptr(&a), ptr(&c), "{dbm} dBm");
            let amp = cfg.budget.tx_power().sqrt();
            let want: Vec<Complex> = c.exc.samples.iter().map(|&v| v * amp).collect();
            assert_eq!(bits(c.x_scaled.samples()), bits(&want), "{dbm} dBm");
        }
    }

    /// A reference with a non-finite sample past the wake-up (so the tag
    /// wakes and reflects) is rejected by the reader as an invalid input,
    /// on the lazy path and on the impaired one, and counted as such.
    #[test]
    fn non_finite_reference_is_invalid_input() {
        backfi_obs::enable();
        for impair in [
            Impairments::off(),
            Impairments::parse("saturation:1").expect("spec"),
        ] {
            let mut cfg = quick_cfg(1.0, TagConfig::default());
            cfg.impair = impair;
            let mut exc = Excitation::build(cfg.excitation.clone());
            let at = exc.detect_end + 2000;
            exc.samples[at] = Complex::new(f64::NAN, 0.0);
            let x_scaled = exc.scaled(cfg.budget.tx_power().sqrt());
            assert!(!x_scaled.is_finite());
            let exc = Arc::new(exc);
            let sim = LinkSimulator { cfg, exc, x_scaled };
            let counters = ["reader.err.invalid_input", "link.fail.invalid_input"];
            let before = counters.map(backfi_obs::counter_value);
            let rep = sim.run(3);
            assert_eq!(rep.reader_error, Some(ReaderError::InvalidInput));
            assert!(!rep.success);
            assert_eq!(
                counters.map(backfi_obs::counter_value),
                before.map(|c| c + 1)
            );
        }
    }

    #[test]
    fn expected_snr_tracks_distance() {
        let sim_near = LinkSimulator::new(quick_cfg(0.5, TagConfig::default()));
        let sim_far = LinkSimulator::new(quick_cfg(4.0, TagConfig::default()));
        let near = mean_over_seeds(&sim_near, |r| r.expected_snr_db);
        let far = mean_over_seeds(&sim_far, |r| r.expected_snr_db);
        assert!(near > far + 5.0, "near {near} dB vs far {far} dB");
    }
}
