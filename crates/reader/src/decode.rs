//! Soft bits → Viterbi → tag frame.
//!
//! Takes the per-symbol phasors from the MRC stage, produces Gray-PSK soft
//! metrics, strips the puncturing, runs the Viterbi decoder (truncated: the
//! tag pads its coded stream to a whole symbol, so the trellis does not end
//! at a known state at the very end — only the in-frame tail is zero), and
//! parses the tag frame.

use crate::mrc::SymbolEstimate;
use backfi_coding::puncture::depuncture_soft;
use backfi_coding::{CodeRate, ViterbiDecoder};
use backfi_dsp::{stats, Complex};
use backfi_tag::config::TagModulation;
use backfi_tag::framer::{FrameError, TagFrame};
use backfi_tag::psk::{hard_index, index_phase, SoftDemapper};

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

/// Decode MRC symbol estimates into a tag frame.
///
/// Returns the frame parse result, the raw decoded information bits (for BER
/// experiments against known payloads) and the link metrics.
pub fn decode_symbols(
    estimates: &[SymbolEstimate],
    modulation: TagModulation,
    code_rate: CodeRate,
) -> (Result<Vec<u8>, FrameError>, Vec<bool>, LinkMetrics) {
    let bps = modulation.bits_per_symbol();

    // Soft bits from each phasor.
    let mut llrs = Vec::with_capacity(estimates.len() * bps);
    {
        let _t = backfi_obs::span("decode.soft_bits");
        // One cached planar constellation for the whole burst: `from_polar`
        // runs once per point here instead of once per point·bit·symbol.
        let demap = SoftDemapper::new(modulation, 1.0);
        for est in estimates {
            demap.soft_bits(est.z, est.noise_var, &mut llrs);
        }
    }

    // Trim to a whole puncturing period so depuncturing is consistent.
    let (period_tx, period_mother) = match code_rate {
        CodeRate::Half => (2usize, 2usize),
        CodeRate::TwoThirds => (3, 4),
        CodeRate::ThreeQuarters => (4, 6),
    };
    let usable = llrs.len() - llrs.len() % period_tx;
    let mother_len = usable / period_tx * period_mother;
    let decoded = if mother_len >= 16 {
        let _t = backfi_obs::span("decode.viterbi");
        let soft = depuncture_soft(&llrs[..usable], code_rate, mother_len);
        ViterbiDecoder::ieee80211().decode_soft_truncated(&soft)
    } else {
        Vec::new()
    };

    if backfi_obs::enabled() && !decoded.is_empty() {
        // Viterbi work metric: re-encode the decoded sequence, puncture it
        // back to the transmitted rate, and count where it disagrees with the
        // hard decisions of the received soft bits. Each disagreement is a
        // channel bit the decoder corrected (or, past the FEC's limit,
        // miscorrected) — the pre-FEC error count attribution probe.
        let reenc = backfi_coding::ConvEncoder::ieee80211().encode(&decoded);
        let punct = backfi_coding::puncture::puncture(&reenc, code_rate);
        let corrected = llrs[..usable]
            .iter()
            .zip(&punct)
            .filter(|(l, b)| (**l > 0.0) != **b)
            .count();
        backfi_obs::probe("decode.viterbi_corrected_bits", corrected as f64);
        backfi_obs::probe(
            "decode.pre_fec_ber",
            corrected as f64 / usable.min(punct.len()).max(1) as f64,
        );
    }

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
            let info = (3 + payload.len() + 4) * 8 + 6;
            let coded = match code_rate {
                CodeRate::Half => info * 2,
                CodeRate::TwoThirds => info * 2 * 3 / 4,
                CodeRate::ThreeQuarters => info * 2 * 2 / 3,
            };
            coded.div_ceil(bps).min(estimates.len())
        }
        Err(_) => estimates.len(),
    };
    let metrics = link_metrics(&estimates[..span], modulation);

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
    let rx: Vec<Complex> = estimates.iter().map(|e| e.z).collect();
    let ideal: Vec<Complex> = rx
        .iter()
        .map(|z| Complex::exp_j(index_phase(modulation, hard_index(modulation, z.arg()))))
        .collect();
    LinkMetrics {
        symbol_snr_db: stats::snr_from_decisions_db(&rx, &ideal),
        evm_percent: stats::evm_percent(&rx, &ideal),
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
