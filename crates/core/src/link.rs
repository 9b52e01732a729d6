//! One complete reader ↔ tag exchange.
//!
//! Wires together the excitation builder, the tag state machine, the
//! backscatter medium and the reader, and reports everything the evaluation
//! harnesses need: decode success, goodput, SNRs (measured and "VNA truth"),
//! cancellation quality and tag energy.

use crate::excitation::{Excitation, ExcitationConfig};
use backfi_chan::budget::LinkBudget;
use backfi_chan::impair::Impairments;
use backfi_chan::medium::{BackscatterMedium, MediumConfig, PropagateScratch};
use backfi_dsp::Complex;
use backfi_reader::reader::{BackscatterReader, ReaderConfig, ReaderError, ReaderScratch};
use backfi_reader::Timeline;
use backfi_tag::config::TagConfig;
use backfi_tag::energy::epb_pj;
use backfi_tag::framer::TagFrame;
use backfi_tag::psk::{gray_decode, hard_index};
use backfi_tag::state::TagState;
use backfi_tag::Tag;
use std::cell::RefCell;

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
            success: false,
            sent: Vec::new(),
            ber: 1.0,
            pre_fec_ber: 0.5,
            measured_snr_db: f64::NEG_INFINITY,
            expected_snr_db: f64::NEG_INFINITY,
            cancellation_db: 0.0,
            goodput_bps: 0.0,
            tag_energy_pj: 0.0,
            reader_error: None,
            panicked: true,
        }
    }
}

/// The excitation-length buffers of one link trial, owned by a thread and
/// reused by every [`LinkSimulator::run`] on it, so a warm trial allocates
/// no per-sample buffer and touches no fresh pages.
///
/// * **Buffers.** The wave at the tag (`incident = h_f ∗ x`, convolved once
///   and shared by the tag and the medium), the tag's reflection stream
///   `gamma`, the received signal `rx`, the medium's two intermediate
///   signals, and the reader's canceller stages, MRC reference and
///   sanitized-input copy.
/// * **Lifetime.** One per thread, built empty on the thread's first trial
///   and sized by it (never in [`LinkSimulator::new`]). A sweep executor's
///   scoped workers live for one pass, so their scratch does too; a
///   long-lived thread keeps its largest trial's buffers until it exits.
/// * **Reads.** Every buffer is cleared or resized and then fully written
///   before it is read, so what a previous trial (of any configuration, or
///   one that panicked half-way) left behind never reaches a result: a run
///   on a warm scratch is bit-identical to the same seed on a fresh thread.
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

/// The composed simulator.
///
/// Construction is the expensive part: the WiFi excitation (scrambler →
/// conv-code → interleave → IFFT) is synthesized once here — via the
/// process-wide [`Excitation::cached`] store — and shared immutably by every
/// [`LinkSimulator::run`] call. `run(seed)` itself is pure per-trial work
/// (`&self`, seed-derived state only), so one simulator can serve many sweep
/// worker threads concurrently.
#[derive(Clone)]
pub struct LinkSimulator {
    cfg: LinkConfig,
    exc: std::sync::Arc<Excitation>,
    /// Excitation pre-scaled to the budget's TX amplitude (the canceller's
    /// clean reference), computed once per simulator instead of per trial.
    x_scaled: std::sync::Arc<Vec<Complex>>,
}

impl LinkSimulator {
    /// Create a simulator for the given configuration.
    pub fn new(cfg: LinkConfig) -> Self {
        let exc = Excitation::cached(&cfg.excitation);
        let a = cfg.budget.tx_power().sqrt();
        let x_scaled = std::sync::Arc::new(exc.samples.iter().map(|&v| v * a).collect());
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
        TRIAL_SCRATCH.with(|cell| self.run_with(seed, &mut cell.borrow_mut()))
    }

    fn run_with(&self, seed: u64, scratch: &mut TrialScratch) -> LinkReport {
        let _t_trial = backfi_obs::span("link.trial");
        backfi_obs::counter_add("link.trials", 1);
        let cfg = &self.cfg;
        // --- AP transmission -------------------------------------------
        let exc = &*self.exc;
        let x_scaled: &[Complex] = &self.x_scaled;

        // --- medium and tag ----------------------------------------------
        let _t_medium = backfi_obs::span("link.medium");
        let mut medium =
            BackscatterMedium::new(cfg.budget, MediumConfig::at_distance(cfg.distance_m), seed);
        let expected_snr_db = medium.expected_backscatter_snr_db();
        drop(_t_medium);
        backfi_obs::probe("link.expected_snr_db", expected_snr_db);

        // Size the payload to fill the excitation (§6.1: "The IoT sensor
        // backscatters for the entire duration of the packet"). At very low
        // symbol rates a whole CRC-protected frame cannot fit in one packet
        // (a minimal frame at 10 kSPS spans ~16 ms); the tag then streams the
        // frame across packets, and a single exchange is judged by its raw
        // symbol error rate instead of the end-of-frame CRC — exactly how
        // sub-frame throughput is measured on hardware.
        let airtime = backfi_dsp::samples_to_us(exc.samples.len() - exc.detect_end);
        let max_payload = TagFrame::max_payload_bytes(&cfg.tag, airtime);
        let frame_fits = max_payload >= 1;
        // "A typical backscatter packet will have 1000 bits of information in
        // it" (§5.2.1) — cap the frame near that so the frame-error criterion
        // is comparable across configurations and excitation lengths; fast
        // configurations simply finish early.
        let payload_len = max_payload.clamp(1, 128);
        let sent: Vec<u8> = (0..payload_len)
            .map(|i| (seed as usize + i * 131 + 7) as u8)
            .collect();

        let mut tag = Tag::new(cfg.excitation.tag_id, cfg.tag);
        tag.load_data(&sent);
        let TrialScratch {
            incident,
            gamma,
            rx,
            medium: medium_scratch,
            reader: reader_scratch,
        } = scratch;
        let _t_react = backfi_obs::span("link.tag_react");
        backfi_dsp::fir::filter_into(&medium.h_f, x_scaled, incident);
        tag.react_into(incident, gamma);
        drop(_t_react);
        // Tag-timeline impairments (clock drift / desync): warp the
        // reflection-coefficient stream. `None` when both knobs are off —
        // the clean path allocates and draws nothing.
        let warped = cfg.impair.warp_gamma(gamma, seed);
        if warped.is_some() {
            backfi_obs::counter_add("link.impair.timeline", 1);
        }
        let gamma: &[Complex] = warped.as_deref().unwrap_or(gamma);

        let energy_bits = (sent.len() * 8) as f64;
        let tag_energy_pj = epb_pj(&cfg.tag) * energy_bits;

        // If the tag never woke up (below sensitivity), the exchange fails.
        if tag.state() == TagState::Listening || tag.state() == TagState::Sleep {
            backfi_obs::counter_add("link.fail.wakeup", 1);
            return LinkReport {
                success: false,
                sent,
                ber: 1.0,
                pre_fec_ber: 0.5,
                measured_snr_db: f64::NEG_INFINITY,
                expected_snr_db,
                cancellation_db: 0.0,
                goodput_bps: 0.0,
                tag_energy_pj,
                reader_error: Some(ReaderError::NoSymbols),
                panicked: false,
            };
        }

        let _t_prop = backfi_obs::span("link.propagate");
        medium.propagate_into(x_scaled, incident, gamma, medium_scratch, rx);
        let y_full = rx;
        drop(_t_prop);
        // Receiver-side impairments (CFO, interference bursts, saturation,
        // impulses, truncation, non-finite corruption). A no-op returning a
        // default `Applied` when the set is off.
        if !cfg.impair.is_off() {
            let n = exc.samples.len();
            let applied = cfg
                .impair
                .apply_rx(&mut y_full[..n], cfg.budget.noise_power(), seed);
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
        }
        let y = &y_full[..exc.samples.len()];

        // --- reader -------------------------------------------------------
        let timeline = Timeline::nominal(exc.detect_end, exc.samples.len(), &cfg.tag);
        let reader = BackscatterReader::new(cfg.reader);
        let _t_reader = backfi_obs::span("link.reader");
        let decoded = reader.decode_with(
            x_scaled,
            y,
            &medium.h_env,
            &timeline,
            &cfg.tag,
            reader_scratch,
        );
        drop(_t_reader);
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
                let expect_syms = TagFrame::encode(&sent, &cfg.tag);
                let m = cfg.tag.modulation;
                let bps = m.bits_per_symbol();
                let mut raw_errs = 0usize;
                let mut raw_bits = 0usize;
                for (i, &idx) in expect_syms.iter().enumerate() {
                    let Some(est) = res.symbols.get(i) else { break };
                    let got = gray_decode(hard_index(m, est.z.arg()));
                    let phase = std::f64::consts::TAU * idx as f64 / m.order() as f64;
                    let want = gray_decode(hard_index(m, phase));
                    raw_errs += (got ^ want).count_ones() as usize;
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
                    reader_error: Some(e),
                    panicked: false,
                }
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

    #[test]
    fn expected_snr_tracks_distance() {
        let sim_near = LinkSimulator::new(quick_cfg(0.5, TagConfig::default()));
        let sim_far = LinkSimulator::new(quick_cfg(4.0, TagConfig::default()));
        let near = mean_over_seeds(&sim_near, |r| r.expected_snr_db);
        let far = mean_over_seeds(&sim_far, |r| r.expected_snr_db);
        assert!(near > far + 5.0, "near {near} dB vs far {far} dB");
    }
}
