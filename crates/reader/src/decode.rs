//! Soft bits → Viterbi → tag frame.
//!
//! Takes the per-symbol phasors from the MRC stage, produces Gray-PSK soft
//! metrics, strips the puncturing, runs the Viterbi decoder and parses the
//! tag frame. The reader's back half uses three entry points:
//!
//! * [`announced_len`] decodes a short prefix (the header plus a traceback
//!   margin, truncated) and returns the payload length its CRC-8-checked
//!   header announces;
//! * [`decode_frame`] decodes exactly that frame, depunctured to its mother
//!   length, with the terminated trellis the tag sends;
//! * [`decode_symbols`] decodes every symbol it is given, truncated (the
//!   trellis ends at no known state), for when the header fails or the frame
//!   runs past the excitation.

use crate::mrc::SymbolEstimate;
use backfi_coding::puncture::{depuncture_soft, puncture, punctured_len};
use backfi_coding::{CodeRate, ConvEncoder, ViterbiDecoder};
use backfi_dsp::stats;
use backfi_tag::config::TagModulation;
use backfi_tag::framer::{FrameError, TagFrame, HEADER_BITS};
use backfi_tag::psk::{hard_index_of, ideal_points, SoftDemapper};

/// Information bits [`announced_len`] decodes: the header plus a traceback
/// margin of 48 bits (about seven constraint lengths), so the truncated
/// decoder's unreliable last decisions fall past the header.
const HEADER_PREFIX_BITS: usize = HEADER_BITS + 48;

/// Decoded link-quality metrics.
#[derive(Clone, Debug)]
pub struct LinkMetrics {
    /// Decision-directed symbol SNR in dB (the Fig. 11a "measured SNR").
    pub symbol_snr_db: f64,
    /// EVM of the symbol phasors in percent.
    pub evm_percent: f64,
    /// Number of payload symbols combined.
    pub symbols: usize,
}

/// Soft bits of every estimate, in order: one cached planar constellation
/// for the whole burst, so `from_polar` runs once per point instead of once
/// per point·bit·symbol.
fn soft_bits(estimates: &[SymbolEstimate], modulation: TagModulation) -> Vec<f64> {
    let _t = backfi_obs::span("decode.soft_bits");
    let demap = SoftDemapper::new(modulation, 1.0);
    let mut llrs = Vec::with_capacity(estimates.len() * modulation.bits_per_symbol());
    for est in estimates {
        demap.soft_bits(est.z, est.noise_var, &mut llrs);
    }
    llrs
}

/// Truncated decode of `llrs` cut to a whole puncturing period (so that
/// depuncturing is consistent). Returns the transmitted bits used and the
/// decoded bits, empty when fewer than 16 mother bits remain.
fn decode_truncated(llrs: &[f64], code_rate: CodeRate) -> (usize, Vec<bool>) {
    let period_mother = code_rate.pattern().len();
    let period_tx = punctured_len(period_mother, code_rate);
    let usable = llrs.len() - llrs.len() % period_tx;
    let mother_len = usable / period_tx * period_mother;
    if mother_len < 16 {
        return (usable, Vec::new());
    }
    let _t = backfi_obs::span("decode.viterbi");
    let soft = depuncture_soft(&llrs[..usable], code_rate, mother_len);
    (
        usable,
        ViterbiDecoder::ieee80211().decode_soft_truncated(&soft),
    )
}

/// The data symbols [`announced_len`] reads: those that carry the header
/// prefix's coded bits.
pub(crate) fn header_symbols(modulation: TagModulation, code_rate: CodeRate) -> usize {
    punctured_len(2 * HEADER_PREFIX_BITS, code_rate).div_ceil(modulation.bits_per_symbol())
}

/// The payload length announced by the frame header, read from a fixed
/// prefix of the data symbols (those after the pilot): `None` when the
/// prefix is too short, the header fails its CRC-8 or announces zero bytes.
pub fn announced_len(
    estimates: &[SymbolEstimate],
    modulation: TagModulation,
    code_rate: CodeRate,
) -> Option<usize> {
    let _t = backfi_obs::span("decode.header");
    let coded = punctured_len(2 * HEADER_PREFIX_BITS, code_rate);
    let n = header_symbols(modulation, code_rate).min(estimates.len());
    let llrs = soft_bits(&estimates[..n], modulation);
    let (_, bits) = decode_truncated(&llrs[..coded.min(llrs.len())], code_rate);
    TagFrame::header_len(&bits).ok()
}

/// Decode the data symbols of a frame whose header announced `payload_len`
/// bytes: the first [`TagFrame::mother_len`]-worth of punctured soft bits,
/// depunctured to exactly that length and decoded with the terminated
/// trellis. `estimates` must cover the frame (the symbols after the pilot).
///
/// # Panics
/// Panics if `estimates` holds fewer soft bits than the frame's coded length.
pub fn decode_frame(
    estimates: &[SymbolEstimate],
    modulation: TagModulation,
    code_rate: CodeRate,
    payload_len: usize,
) -> (Result<Vec<u8>, FrameError>, Vec<bool>, LinkMetrics) {
    let llrs = soft_bits(estimates, modulation);
    let mother_len = TagFrame::mother_len(payload_len);
    let coded = punctured_len(mother_len, code_rate);
    assert!(llrs.len() >= coded, "estimates do not cover the frame");
    let decoded = {
        let _t = backfi_obs::span("decode.viterbi");
        let soft = depuncture_soft(&llrs[..coded], code_rate, mother_len);
        ViterbiDecoder::ieee80211().decode_soft_terminated(&soft)
    };
    if backfi_obs::enabled() {
        let _t = backfi_obs::span("decode.reencode");
        let reenc = ConvEncoder::ieee80211().encode_terminated(&decoded);
        probe_corrections(&llrs[..coded], &reenc, code_rate);
    }
    conclude(estimates, modulation, code_rate, decoded)
}

/// Decode MRC symbol estimates into a tag frame, decoding every symbol
/// (truncated trellis: the tag pads its coded stream to a whole symbol, and
/// slots past the frame hold noise, so the stream ends at no known state).
///
/// Returns the frame parse result, the raw decoded information bits (for BER
/// experiments against known payloads) and the link metrics.
pub fn decode_symbols(
    estimates: &[SymbolEstimate],
    modulation: TagModulation,
    code_rate: CodeRate,
) -> (Result<Vec<u8>, FrameError>, Vec<bool>, LinkMetrics) {
    let llrs = soft_bits(estimates, modulation);
    let (usable, decoded) = decode_truncated(&llrs, code_rate);
    if backfi_obs::enabled() && !decoded.is_empty() {
        let _t = backfi_obs::span("decode.reencode");
        let reenc = ConvEncoder::ieee80211().encode(&decoded);
        probe_corrections(&llrs[..usable], &reenc, code_rate);
    }
    conclude(estimates, modulation, code_rate, decoded)
}

/// Viterbi work metric: puncture the re-encoded decision sequence `mother`
/// back to the transmitted rate and count where it disagrees with the hard
/// decisions of the received soft bits `llrs`. Each disagreement is a
/// channel bit the decoder corrected (or, past the FEC's limit,
/// miscorrected) — the pre-FEC error count attribution probe.
fn probe_corrections(llrs: &[f64], mother: &[bool], code_rate: CodeRate) {
    let punct = puncture(mother, code_rate);
    let corrected = llrs
        .iter()
        .zip(&punct)
        .filter(|(l, b)| (**l > 0.0) != **b)
        .count();
    backfi_obs::probe("decode.viterbi_corrected_bits", corrected as f64);
    backfi_obs::probe(
        "decode.pre_fec_ber",
        corrected as f64 / llrs.len().min(punct.len()).max(1) as f64,
    );
}

/// Frame parse and link metrics shared by both decoders.
fn conclude(
    estimates: &[SymbolEstimate],
    modulation: TagModulation,
    code_rate: CodeRate,
    decoded: Vec<bool>,
) -> (Result<Vec<u8>, FrameError>, Vec<bool>, LinkMetrics) {
    let frame = {
        let _t = backfi_obs::span("decode.crc");
        TagFrame::parse(&decoded)
    };
    if frame.is_err() {
        backfi_obs::counter_add("reader.err.crc", 1);
        backfi_obs::trace::instant("decode.crc_fail");
    }

    // Metrics over the symbols the frame actually occupies: the tag stops
    // reflecting once its frame ends, so trailing symbol slots in the
    // excitation hold only noise and must not pollute the link statistics.
    let span = match &frame {
        Ok(payload) => {
            let coded = punctured_len(TagFrame::mother_len(payload.len()), code_rate);
            coded
                .div_ceil(modulation.bits_per_symbol())
                .min(estimates.len())
        }
        Err(_) => estimates.len(),
    };
    let metrics = {
        let _t = backfi_obs::span("decode.metrics");
        link_metrics(&estimates[..span], modulation)
    };

    (frame, decoded, metrics)
}

/// Decision-directed link metrics over a set of symbol phasors.
pub fn link_metrics(estimates: &[SymbolEstimate], modulation: TagModulation) -> LinkMetrics {
    if estimates.is_empty() {
        return LinkMetrics {
            symbol_snr_db: f64::NEG_INFINITY,
            evm_percent: 100.0,
            symbols: 0,
        };
    }
    let points = ideal_points(modulation);
    let (perr, pref) = stats::decision_powers(
        estimates
            .iter()
            .map(|e| (e.z, points[hard_index_of(modulation, e.z)])),
    );
    LinkMetrics {
        symbol_snr_db: stats::db(pref / perr),
        evm_percent: 100.0 * (perr / pref).sqrt(),
        symbols: estimates.len(),
    }
}

/// Compare decoded information bits against the expected frame for a known
/// payload; returns the BER over the frame's information bits.
pub fn frame_ber(decoded: &[bool], payload: &[u8]) -> f64 {
    let expect = TagFrame::info_bits(payload);
    backfi_coding::bits::bit_error_rate(&expect, decoded).unwrap_or(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use backfi_dsp::noise::cgauss;
    use backfi_dsp::rng::SplitMix64;
    use backfi_dsp::Complex;

    /// Build symbol estimates straight from an encoded frame, with optional
    /// phase noise.
    fn estimates_for(
        payload: &[u8],
        modulation: TagModulation,
        code_rate: CodeRate,
        noise: f64,
        seed: u64,
    ) -> Vec<SymbolEstimate> {
        let cfg = backfi_tag::config::TagConfig {
            modulation,
            code_rate,
            symbol_rate_hz: 1e6,
            preamble_us: 32.0,
        };
        let symbols = TagFrame::encode(payload, &cfg);
        let mut rng = SplitMix64::new(seed);
        // decode_symbols consumes the post-pilot data symbols.
        symbols[backfi_tag::framer::PILOT_SYMBOLS..]
            .iter()
            .map(|&idx| {
                let phase = 2.0 * std::f64::consts::PI * idx as f64 / modulation.order() as f64;
                let z = Complex::exp_j(phase) + cgauss(&mut rng, noise);
                SymbolEstimate {
                    z,
                    ref_energy: 1.0,
                    noise_var: noise.max(1e-12),
                }
            })
            .collect()
    }

    /// [`link_metrics`] from the constellation table in one pass equals
    /// the per-symbol `exp_j(index_phase(…))` slicing through
    /// `stats::snr_from_decisions_db` and `stats::evm_percent`, bit for bit,
    /// erasures included.
    #[test]
    fn link_metrics_match_the_per_symbol_slicing() {
        use backfi_tag::psk::{hard_index, index_phase};
        let mut rng = SplitMix64::new(17);
        for m in TagModulation::ALL {
            let mut estimates: Vec<SymbolEstimate> = (0..300)
                .map(|_| SymbolEstimate {
                    z: cgauss(&mut rng, 1.0),
                    ref_energy: 1.0,
                    noise_var: 0.1,
                })
                .collect();
            estimates[7] = SymbolEstimate::erasure();
            let rx: Vec<Complex> = estimates.iter().map(|e| e.z).collect();
            let ideal: Vec<Complex> = rx
                .iter()
                .map(|z| Complex::exp_j(index_phase(m, hard_index(m, z.arg()))))
                .collect();
            let got = link_metrics(&estimates, m);
            assert_eq!(
                got.symbol_snr_db.to_bits(),
                stats::snr_from_decisions_db(&rx, &ideal).to_bits(),
                "{m:?}"
            );
            assert_eq!(
                got.evm_percent.to_bits(),
                stats::evm_percent(&rx, &ideal).to_bits(),
                "{m:?}"
            );
        }
    }

    #[test]
    fn clean_decode_all_modulations_and_rates() {
        let payload: Vec<u8> = (0..40).map(|i| (i * 7) as u8).collect();
        for m in TagModulation::ALL {
            for r in [CodeRate::Half, CodeRate::TwoThirds] {
                let est = estimates_for(&payload, m, r, 0.0, 1);
                let (frame, _, metrics) = decode_symbols(&est, m, r);
                assert_eq!(frame.unwrap(), payload, "{m:?} {}", r.label());
                assert!(metrics.symbol_snr_db > 60.0);
                assert!(metrics.evm_percent < 1e-3);
            }
        }
    }

    #[test]
    fn decodes_through_moderate_noise() {
        let payload: Vec<u8> = (0..64).map(|i| (i ^ 0x35) as u8).collect();
        // QPSK at ~10 dB symbol SNR with rate-1/2 coding decodes cleanly.
        let est = estimates_for(&payload, TagModulation::Qpsk, CodeRate::Half, 0.1, 2);
        let (frame, decoded, metrics) = decode_symbols(&est, TagModulation::Qpsk, CodeRate::Half);
        assert_eq!(frame.unwrap(), payload);
        assert!(frame_ber(&decoded, &payload) < 1e-9);
        assert!(
            (metrics.symbol_snr_db - 10.0).abs() < 2.0,
            "snr {}",
            metrics.symbol_snr_db
        );
    }

    #[test]
    fn heavy_noise_fails_crc_not_panics() {
        let payload = vec![0x42; 30];
        let est = estimates_for(&payload, TagModulation::Psk16, CodeRate::TwoThirds, 2.0, 3);
        let (frame, decoded, _) = decode_symbols(&est, TagModulation::Psk16, CodeRate::TwoThirds);
        assert!(frame.is_err());
        assert!(frame_ber(&decoded, &payload) > 0.01);
    }

    #[test]
    fn ber_degrades_monotonically_with_noise() {
        let payload: Vec<u8> = (0..100).map(|i| i as u8).collect();
        let mut prev = -1.0;
        for noise in [0.3, 0.8, 2.0] {
            let mut total = 0.0;
            for seed in 0..5 {
                let est = estimates_for(
                    &payload,
                    TagModulation::Qpsk,
                    CodeRate::Half,
                    noise,
                    10 + seed,
                );
                let (_, decoded, _) = decode_symbols(&est, TagModulation::Qpsk, CodeRate::Half);
                total += frame_ber(&decoded, &payload);
            }
            assert!(total >= prev, "noise {noise}: {total} < {prev}");
            prev = total;
        }
    }

    #[test]
    fn empty_input_is_graceful() {
        let (frame, decoded, metrics) = decode_symbols(&[], TagModulation::Bpsk, CodeRate::Half);
        assert!(frame.is_err());
        assert!(decoded.is_empty());
        assert_eq!(metrics.symbols, 0);
    }
}
