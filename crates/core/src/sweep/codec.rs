//! Fixed-width binary codec for sweep configurations and results.
//!
//! The **result cache** ([`super::cache`]) hashes the encoded [`LinkConfig`]
//! bytes into its content address, so two processes that build the same
//! cell always derive the same key, and stores each cell's [`TrialStats`] as
//! a fixed-width record it decodes again on a hit.
//!
//! The format is deliberately dumb: little-endian fixed-width fields in
//! declaration order, `f64` as IEEE-754 bit patterns (`to_bits`), enums as
//! one tag byte. No varints, no compression, no external crates. Field
//! additions bump [`FORMAT_VERSION`], which is folded into the cache salt,
//! so a store written under another layout is never read.

use crate::excitation::ExcitationConfig;
use crate::link::LinkConfig;
use crate::sweep::TrialStats;
use backfi_chan::budget::LinkBudget;
use backfi_chan::impair::Impairments;
use backfi_coding::CodeRate;
use backfi_reader::reader::ReaderConfig;
use backfi_sic::analog::AnalogConfig;
use backfi_sic::CancellerConfig;
use backfi_tag::config::{TagConfig, TagModulation};
use backfi_wifi::Mcs;

/// Version of the serialized layout. Bumped whenever a field is added,
/// removed or reordered; folded into [`super::cache::code_salt`].
pub const FORMAT_VERSION: u32 = 1;

/// Serialized size of one [`TrialStats`] payload, bytes (2 tag bytes,
/// 7 `f64`s, one `u64`).
pub const TRIAL_STATS_LEN: usize = 2 + 7 * 8 + 8;

/// Decode failure: the buffer was truncated or carried an invalid tag.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// Fewer bytes than the fixed-width layout requires.
    Truncated,
    /// An enum tag byte was out of range for the named field.
    BadTag(&'static str, u8),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "buffer truncated"),
            CodecError::BadTag(field, v) => write!(f, "invalid tag {v} for {field}"),
        }
    }
}

// ---------------------------------------------------------------- writer ---

/// Append-only little-endian byte writer.
#[derive(Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// A writer with a pre-sized buffer.
    pub fn with_capacity(n: usize) -> Self {
        Writer {
            buf: Vec::with_capacity(n),
        }
    }

    /// The bytes written so far.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far, borrowed.
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Append one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a `u16`, little-endian.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `f64` as its IEEE-754 bit pattern (exact round trip,
    /// including NaN payloads, ±∞ and −0.0).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Append a `bool` as one byte (0/1).
    pub fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }
}

// ---------------------------------------------------------------- reader ---

/// Cursor over a byte slice with fixed-width reads.
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read an `f64` from its bit pattern.
    pub fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64()?))
    }
}

// ----------------------------------------------------------------- enums ---

fn modulation_tag(m: TagModulation) -> u8 {
    match m {
        TagModulation::Bpsk => 0,
        TagModulation::Qpsk => 1,
        TagModulation::Psk16 => 2,
    }
}

fn modulation_from(tag: u8) -> Result<TagModulation, CodecError> {
    match tag {
        0 => Ok(TagModulation::Bpsk),
        1 => Ok(TagModulation::Qpsk),
        2 => Ok(TagModulation::Psk16),
        v => Err(CodecError::BadTag("TagModulation", v)),
    }
}

fn code_rate_tag(r: CodeRate) -> u8 {
    match r {
        CodeRate::Half => 0,
        CodeRate::TwoThirds => 1,
        CodeRate::ThreeQuarters => 2,
    }
}

fn code_rate_from(tag: u8) -> Result<CodeRate, CodecError> {
    match tag {
        0 => Ok(CodeRate::Half),
        1 => Ok(CodeRate::TwoThirds),
        2 => Ok(CodeRate::ThreeQuarters),
        v => Err(CodecError::BadTag("CodeRate", v)),
    }
}

fn mcs_tag(m: Mcs) -> u8 {
    Mcs::ALL
        .iter()
        .position(|&x| x == m)
        .expect("Mcs::ALL covers every variant") as u8
}

// ------------------------------------------------------------ link config ---

fn encode_budget(w: &mut Writer, b: &LinkBudget) {
    w.f64(b.tx_power_dbm);
    w.f64(b.noise_floor_dbm);
    w.f64(b.bs_pathloss_1m_db);
    w.f64(b.bs_exponent_near);
    w.f64(b.bs_exponent_far);
    w.f64(b.knee_m);
    w.f64(b.knee2_m);
    w.f64(b.bs_exponent_beyond);
    w.f64(b.wifi_pathloss_1m_db);
    w.f64(b.wifi_exponent);
    w.f64(b.leakage_db);
    w.f64(b.reflections_db);
    w.f64(b.tx_noise_dbc);
}

fn encode_tag_config(w: &mut Writer, t: &TagConfig) {
    w.u8(modulation_tag(t.modulation));
    w.u8(code_rate_tag(t.code_rate));
    w.f64(t.symbol_rate_hz);
    w.f64(t.preamble_us);
}

fn encode_excitation(w: &mut Writer, e: &ExcitationConfig) {
    w.u16(e.tag_id);
    w.u8(mcs_tag(e.mcs));
    w.u64(e.wifi_payload_bytes as u64);
    w.u8(e.scrambler_seed);
    w.u64(e.lead_in as u64);
}

fn encode_reader(w: &mut Writer, r: &ReaderConfig) {
    let can: &CancellerConfig = &r.canceller;
    let ana: &AnalogConfig = &can.analog;
    w.u64(ana.taps as u64);
    w.u32(ana.control_bits);
    w.u64(can.digital_taps as u64);
    w.f64(can.ridge);
    w.u32(can.adc_bits);
    w.f64(can.agc_headroom_db);
    w.bool(can.analog_enabled);
    w.bool(can.digital_enabled);
    w.u64(r.fb_taps as u64);
    w.f64(r.ridge);
    w.u64(r.timing_span as u64);
    w.bool(r.use_zero_forcing);
}

fn encode_impairments(w: &mut Writer, i: &Impairments) {
    w.f64(i.clock_drift_ppm);
    w.f64(i.timing_desync_us);
    w.f64(i.cfo_hz);
    w.f64(i.interference_rel);
    w.f64(i.interference_duty);
    w.f64(i.interference_burst_us);
    w.f64(i.saturation_prob);
    w.f64(i.saturation_us);
    w.f64(i.saturation_gain);
    w.f64(i.impulse_per_packet);
    w.f64(i.impulse_rel);
    w.f64(i.truncate_prob);
    w.f64(i.nonfinite_prob);
}

/// Serialize a [`LinkConfig`] into `w`. Every field of every nested struct,
/// in declaration order — the bytes are the cell's identity in the cache
/// key.
pub fn encode_link_config(w: &mut Writer, cfg: &LinkConfig) {
    encode_budget(w, &cfg.budget);
    w.f64(cfg.distance_m);
    encode_tag_config(w, &cfg.tag);
    encode_excitation(w, &cfg.excitation);
    encode_reader(w, &cfg.reader);
    encode_impairments(w, &cfg.impair);
}

/// Serialize a [`LinkConfig`] into a fresh buffer.
pub fn link_config_bytes(cfg: &LinkConfig) -> Vec<u8> {
    let mut w = Writer::with_capacity(320);
    encode_link_config(&mut w, cfg);
    w.into_bytes()
}

// ------------------------------------------------------------ trial stats ---

/// Serialize a [`TrialStats`] into `w` — exactly [`TRIAL_STATS_LEN`] bytes.
/// Every `f64` travels as its bit pattern, so a decoded copy is bit-identical
/// to the original (the cache's byte-neutrality guarantee rests on this).
pub fn encode_trial_stats(w: &mut Writer, s: &TrialStats) {
    w.u8(modulation_tag(s.config.modulation));
    w.u8(code_rate_tag(s.config.code_rate));
    w.f64(s.config.symbol_rate_hz);
    w.f64(s.config.preamble_us);
    w.f64(s.success_rate);
    w.f64(s.mean_snr_db);
    w.f64(s.mean_ber);
    w.f64(s.mean_pre_fec_ber);
    w.f64(s.mean_goodput_bps);
    w.u64(s.panics as u64);
}

/// Deserialize a [`TrialStats`] (inverse of [`encode_trial_stats`]).
pub fn decode_trial_stats(c: &mut Cursor) -> Result<TrialStats, CodecError> {
    let config = TagConfig {
        modulation: modulation_from(c.u8()?)?,
        code_rate: code_rate_from(c.u8()?)?,
        symbol_rate_hz: c.f64()?,
        preamble_us: c.f64()?,
    };
    Ok(TrialStats {
        config,
        success_rate: c.f64()?,
        mean_snr_db: c.f64()?,
        mean_ber: c.f64()?,
        mean_pre_fec_ber: c.f64()?,
        mean_goodput_bps: c.f64()?,
        panics: c.u64()? as usize,
    })
}

// ------------------------------------------------------------------ hash ---

const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x100000001b3;

/// 64-bit FNV-1a over `bytes`, folded onto a caller-chosen starting state —
/// the second, independently-seeded pass behind the 128-bit cache key.
pub fn fnv1a64_seeded(seed: u64, bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET ^ seed.wrapping_mul(FNV_PRIME);
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Plain 64-bit FNV-1a (seed 0 keeps the classic offset basis).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_seeded(0, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_config() -> LinkConfig {
        let mut cfg = LinkConfig::at_distance(3.25);
        cfg.tag = TagConfig {
            modulation: TagModulation::Psk16,
            code_rate: CodeRate::TwoThirds,
            symbol_rate_hz: 2.5e6,
            preamble_us: 96.0,
        };
        cfg.excitation.wifi_payload_bytes = 2718;
        cfg.excitation.mcs = Mcs::Mbps48;
        cfg.reader.use_zero_forcing = true;
        cfg.impair.cfo_hz = 123.5;
        cfg.impair.truncate_prob = 0.125;
        cfg
    }

    #[test]
    fn trial_stats_roundtrip_preserves_nonfinite_bits() {
        let s = TrialStats {
            config: TagConfig::default(),
            success_rate: 0.35,
            mean_snr_db: f64::NEG_INFINITY,
            mean_ber: f64::NAN,
            mean_pre_fec_ber: -0.0,
            mean_goodput_bps: 1.25e6,
            panics: 3,
        };
        let mut w = Writer::default();
        encode_trial_stats(&mut w, &s);
        assert_eq!(w.bytes().len(), TRIAL_STATS_LEN);
        let mut c = Cursor::new(w.bytes());
        let back = decode_trial_stats(&mut c).unwrap();
        assert_eq!(c.remaining(), 0, "decoder must consume every byte");
        assert_eq!(s.success_rate.to_bits(), back.success_rate.to_bits());
        assert_eq!(s.mean_snr_db.to_bits(), back.mean_snr_db.to_bits());
        assert_eq!(s.mean_ber.to_bits(), back.mean_ber.to_bits());
        assert_eq!(
            s.mean_pre_fec_ber.to_bits(),
            back.mean_pre_fec_ber.to_bits()
        );
        assert_eq!(
            s.mean_goodput_bps.to_bits(),
            back.mean_goodput_bps.to_bits()
        );
        assert_eq!(s.panics, back.panics);
    }

    /// The cache key is only as good as the encoding's coverage: changing
    /// one field of any nested struct must change the bytes. Each nested
    /// struct is perturbed in its last field, so an encoder that stops short
    /// of the end of a struct fails here.
    #[test]
    fn distinct_cells_encode_to_distinct_bytes() {
        type Perturb = fn(&mut LinkConfig);
        let a = link_config_bytes(&sample_config());
        let perturbations: [(&str, Perturb); 7] = [
            ("budget", |c| c.budget.tx_noise_dbc += 0.5),
            ("distance", |c| c.distance_m *= 1.0000001),
            ("tag", |c| c.tag.preamble_us += 1.0),
            ("excitation", |c| c.excitation.lead_in += 1),
            ("reader.canceller", |c| {
                c.reader.canceller.digital_enabled ^= true
            }),
            ("reader", |c| c.reader.use_zero_forcing ^= true),
            ("impair", |c| c.impair.nonfinite_prob += 0.25),
        ];
        for (what, perturb) in perturbations {
            let mut other = sample_config();
            perturb(&mut other);
            assert_ne!(a, link_config_bytes(&other), "{what} field not encoded");
        }
    }

    fn sample_stats_bytes() -> Vec<u8> {
        let mut w = Writer::default();
        encode_trial_stats(&mut w, &TrialStats::aggregate(sample_config().tag, &[]));
        w.into_bytes()
    }

    #[test]
    fn truncated_buffer_is_an_error_not_a_panic() {
        let bytes = sample_stats_bytes();
        for cut in [0, 1, 7, bytes.len() / 2, bytes.len() - 1] {
            let mut c = Cursor::new(&bytes[..cut]);
            assert!(matches!(
                decode_trial_stats(&mut c),
                Err(CodecError::Truncated)
            ));
        }
    }

    #[test]
    fn bad_enum_tag_is_rejected() {
        // Byte 0 is the modulation tag, byte 1 the code-rate tag.
        for (pos, field) in [(0, "TagModulation"), (1, "CodeRate")] {
            let mut bytes = sample_stats_bytes();
            bytes[pos] = 250;
            let mut c = Cursor::new(&bytes);
            assert_eq!(
                decode_trial_stats(&mut c).unwrap_err(),
                CodecError::BadTag(field, 250)
            );
        }
    }

    #[test]
    fn seeded_fnv_passes_are_independent() {
        let b = b"same bytes";
        assert_ne!(fnv1a64_seeded(0, b), fnv1a64_seeded(1, b));
        assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
    }
}
