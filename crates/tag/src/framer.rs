//! The tag uplink frame (Fig. 4 timeline).
//!
//! On-air structure once the tag has detected the AP's wake-up preamble:
//!
//! ```text
//! | silent 16 µs | PN preamble (32 or 96 µs, ±1 chips @ 1 µs) | payload symbols |
//! ```
//!
//! The byte stream inside the payload section is
//! `len(2) ‖ crc8(header) ‖ payload ‖ crc32(payload)`, convolutionally
//! encoded (terminated), optionally punctured to rate 2/3, then Gray-mapped
//! to n-PSK symbols. The tag stops reflecting once its frame ends, and the
//! *frame length is in-band*: the reader decodes a short prefix, reads
//! `len` from the CRC-8-checked header, and decodes exactly the
//! [`TagFrame::symbol_count`] symbols it announces. Only when the header
//! fails its CRC, or the frame runs past the excitation, does the reader
//! decode every symbol slot that fits.

use crate::config::TagConfig;
use crate::psk::bits_to_phase;
use backfi_coding::bits::{bits_to_bytes_lsb, bytes_to_bits_lsb};
use backfi_coding::crc::{crc32_append, crc32_check, crc8, crc8_append};
use backfi_coding::prbs::Lfsr;
use backfi_coding::puncture::{puncture, punctured_len};
use backfi_coding::ConvEncoder;

/// Silent period duration (µs) during which the reader estimates `h_env`.
pub const SILENT_US: f64 = 16.0;
/// Chip duration of the tag PN preamble (µs).
pub const PREAMBLE_CHIP_US: f64 = 1.0;
/// Known pilot symbols (constellation index 0) that open the payload. The
/// reader does not derotate by them: the PN preamble's known ±1 chips
/// already give the `h_fb` estimate the absolute phase, and one noisy pilot
/// symbol would only add a common phase error to every symbol. They stay on
/// air as part of the frame format.
pub const PILOT_SYMBOLS: usize = 1;
/// Information bits of the frame header `len(2) ‖ crc8`.
pub const HEADER_BITS: usize = 24;

/// Why parsing a decoded tag frame failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// Too few bits to even hold the header.
    TooShort,
    /// Header CRC-8 failed.
    BadHeader,
    /// The announced length exceeds the decoded bits.
    LengthOutOfRange,
    /// The header announces a zero-length payload. No sender emits one, and
    /// an all-zero stream passes both CRCs (CRC-8 with init 0 over a zero
    /// length, CRC-32 of an empty body), so it is always a decoding error.
    EmptyPayload,
    /// Payload CRC-32 failed.
    BadPayload,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            FrameError::TooShort => "decoded stream too short for a header",
            FrameError::BadHeader => "header CRC-8 mismatch",
            FrameError::LengthOutOfRange => "announced length exceeds decoded bits",
            FrameError::EmptyPayload => "announced payload length is zero",
            FrameError::BadPayload => "payload CRC-32 mismatch",
        };
        f.write_str(s)
    }
}

impl std::error::Error for FrameError {}

/// Frame construction and parsing.
pub struct TagFrame;

impl TagFrame {
    /// The tag PN preamble as ±1 chips (one per µs). Drawn from a degree-7
    /// m-sequence — period 127 ≥ 96 chips, two-valued autocorrelation.
    pub fn preamble_chips(preamble_us: f64) -> Vec<f64> {
        let n = preamble_us.round() as usize;
        let mut l = Lfsr::maximal(7, 0x2B);
        l.bits(n)
            .into_iter()
            .map(|b| if b { 1.0 } else { -1.0 })
            .collect()
    }

    /// Information bit stream for a payload: header ‖ payload ‖ CRC-32.
    pub fn info_bits(payload: &[u8]) -> Vec<bool> {
        assert!(payload.len() <= u16::MAX as usize, "payload too long");
        let len = (payload.len() as u16).to_le_bytes();
        let header = crc8_append(&len); // 3 bytes
        let mut bytes = header;
        bytes.extend_from_slice(&crc32_append(payload));
        bytes_to_bits_lsb(&bytes)
    }

    /// Encode a payload to PSK constellation indices: a phase pilot, then the
    /// conv-encoded (terminated), punctured, Gray-mapped stream padded to a
    /// whole symbol.
    pub fn encode(payload: &[u8], cfg: &TagConfig) -> Vec<usize> {
        let bits = Self::info_bits(payload);
        let mut enc = ConvEncoder::ieee80211();
        let mother = enc.encode_terminated(&bits);
        let mut coded = puncture(&mother, cfg.code_rate);
        let bps = cfg.modulation.bits_per_symbol();
        while !coded.len().is_multiple_of(bps) {
            coded.push(false);
        }
        let mut out = vec![0usize; PILOT_SYMBOLS];
        out.extend(coded.chunks_exact(bps).map(|c| {
            let phase = bits_to_phase(cfg.modulation, c);
            // store the constellation index rather than the angle
            let order = cfg.modulation.order() as f64;
            ((phase / (2.0 * std::f64::consts::PI) * order).round() as usize)
                % cfg.modulation.order()
        }));
        out
    }

    /// Number of payload symbols [`TagFrame::encode`] will produce
    /// (including the phase pilot).
    pub fn symbol_count(payload_len: usize, cfg: &TagConfig) -> usize {
        let coded = punctured_len(Self::mother_len(payload_len), cfg.code_rate);
        PILOT_SYMBOLS + coded.div_ceil(cfg.modulation.bits_per_symbol())
    }

    /// Length of the terminated mother-code stream of a `payload_len`-byte
    /// frame: header, payload and CRC-32, plus the 6 tail bits, at rate 1/2.
    pub fn mother_len(payload_len: usize) -> usize {
        let info = (HEADER_BITS / 8 + payload_len + 4) * 8;
        (info + 6) * 2
    }

    /// Largest payload (bytes) whose frame fits in `airtime_us` of excitation
    /// after the silent period and preamble. Returns 0 when nothing fits.
    pub fn max_payload_bytes(cfg: &TagConfig, airtime_us: f64) -> usize {
        let data_us = airtime_us - SILENT_US - cfg.preamble_us;
        if data_us <= 0.0 {
            return 0;
        }
        let symbols =
            ((data_us * 1e-6 * cfg.symbol_rate_hz).floor() as usize).saturating_sub(PILOT_SYMBOLS);
        // Invert symbol_count: info bits available ≈ symbols·bps·rate − overhead.
        let coded_bits = symbols * cfg.modulation.bits_per_symbol();
        let mother = match cfg.code_rate {
            backfi_coding::CodeRate::Half => coded_bits,
            backfi_coding::CodeRate::TwoThirds => coded_bits * 4 / 3,
            backfi_coding::CodeRate::ThreeQuarters => coded_bits * 3 / 2,
        };
        let info = mother / 2;
        let bytes = info.saturating_sub(6) / 8; // tail bits
        bytes.saturating_sub(3 + 4) // header + crc32
    }

    /// The payload length announced by the header at the start of `bits`:
    /// the first [`HEADER_BITS`] bits are `len(2) ‖ crc8(len)`. A length of
    /// zero is [`FrameError::EmptyPayload`].
    pub fn header_len(bits: &[bool]) -> Result<usize, FrameError> {
        if bits.len() < HEADER_BITS {
            return Err(FrameError::TooShort);
        }
        let header = bits_to_bytes_lsb(&bits[..HEADER_BITS]);
        if crc8(&header[..2]) != header[2] {
            return Err(FrameError::BadHeader);
        }
        match u16::from_le_bytes([header[0], header[1]]) as usize {
            0 => Err(FrameError::EmptyPayload),
            len => Ok(len),
        }
    }

    /// Parse decoded (possibly over-long) information bits back into the
    /// payload. Extra trailing pad bits are ignored.
    pub fn parse(bits: &[bool]) -> Result<Vec<u8>, FrameError> {
        let len = Self::header_len(bits)?;
        let need = HEADER_BITS + (len + 4) * 8;
        if bits.len() < need {
            return Err(FrameError::LengthOutOfRange);
        }
        let body = bits_to_bytes_lsb(&bits[HEADER_BITS..need]);
        if !crc32_check(&body) {
            return Err(FrameError::BadPayload);
        }
        Ok(body[..len].to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TagModulation;
    use backfi_coding::CodeRate;

    #[test]
    fn info_bits_roundtrip() {
        let payload = vec![0x10, 0x32, 0x54, 0xAB];
        let bits = TagFrame::info_bits(&payload);
        assert_eq!(TagFrame::parse(&bits).unwrap(), payload);
        assert_eq!(TagFrame::header_len(&bits[..HEADER_BITS]), Ok(4));
        assert_eq!(
            TagFrame::mother_len(payload.len()),
            ConvEncoder::ieee80211().encode_terminated(&bits).len()
        );
    }

    #[test]
    fn parse_ignores_pad() {
        let payload: Vec<u8> = (0..50).collect();
        let mut bits = TagFrame::info_bits(&payload);
        bits.extend(std::iter::repeat_n(true, 17));
        assert_eq!(TagFrame::parse(&bits).unwrap(), payload);
    }

    #[test]
    fn parse_detects_corruption() {
        let payload = vec![1u8, 2, 3];
        let mut bits = TagFrame::info_bits(&payload);
        // corrupt header
        bits[0] = !bits[0];
        assert!(matches!(
            TagFrame::parse(&bits),
            Err(FrameError::BadHeader) | Err(FrameError::LengthOutOfRange)
        ));
        // corrupt payload only
        let mut bits2 = TagFrame::info_bits(&payload);
        bits2[30] = !bits2[30];
        assert_eq!(TagFrame::parse(&bits2), Err(FrameError::BadPayload));
        assert_eq!(TagFrame::parse(&[true; 10]), Err(FrameError::TooShort));
    }

    #[test]
    fn all_zero_stream_is_not_a_valid_frame() {
        // Both CRCs accept all-zero bits; the zero length must reject it.
        assert_eq!(
            TagFrame::parse(&[false; 200]),
            Err(FrameError::EmptyPayload)
        );
        assert_eq!(
            TagFrame::parse(&TagFrame::info_bits(&[])),
            Err(FrameError::EmptyPayload)
        );
        assert_eq!(TagFrame::parse(&TagFrame::info_bits(&[0])), Ok(vec![0]));
    }

    #[test]
    fn encode_symbol_count_matches_prediction() {
        for m in TagModulation::ALL {
            for r in [CodeRate::Half, CodeRate::TwoThirds] {
                let cfg = TagConfig {
                    modulation: m,
                    code_rate: r,
                    symbol_rate_hz: 1e6,
                    preamble_us: 32.0,
                };
                let payload = vec![0xCD; 37];
                let symbols = TagFrame::encode(&payload, &cfg);
                assert_eq!(
                    symbols.len(),
                    TagFrame::symbol_count(payload.len(), &cfg),
                    "{m:?} {}",
                    r.label()
                );
                assert!(symbols.iter().all(|&s| s < m.order()));
            }
        }
    }

    #[test]
    fn preamble_chips_are_pm_one() {
        for us in [32.0, 96.0] {
            let chips = TagFrame::preamble_chips(us);
            assert_eq!(chips.len(), us as usize);
            assert!(chips.iter().all(|&c| c == 1.0 || c == -1.0));
        }
        // deterministic
        assert_eq!(
            TagFrame::preamble_chips(32.0),
            TagFrame::preamble_chips(32.0)
        );
    }

    #[test]
    fn max_payload_roundtrip() {
        let cfg = TagConfig::default(); // QPSK 1/2 @ 1 MSPS
        let airtime = 1000.0; // 1 ms excitation
        let max = TagFrame::max_payload_bytes(&cfg, airtime);
        assert!(max > 50, "max {max}");
        // A frame of exactly that size must fit in the available symbols.
        let symbols = TagFrame::symbol_count(max, &cfg);
        let avail = ((airtime - SILENT_US - cfg.preamble_us) * 1e-6 * cfg.symbol_rate_hz) as usize;
        assert!(symbols <= avail, "{symbols} > {avail}");
        // And one more byte must not.
        assert!(TagFrame::symbol_count(max + 2, &cfg) > avail);
    }

    #[test]
    fn max_payload_zero_for_tiny_excitation() {
        let cfg = TagConfig::default();
        assert_eq!(TagFrame::max_payload_bytes(&cfg, 40.0), 0);
    }
}
