//! The AP's transmission — protocol prologue plus the WiFi excitation packet.
//!
//! §4.1: "Whenever a BackFi AP transmits, if it is willing to receive
//! backscatter communication … it transmits a CTS_to_SELF packet to force
//! other WiFi devices to keep silent. Next it transmits a series of short
//! pulses to encode a pseudo-random preamble sequence. … The preamble is 16
//! bits long and each bit period lasts for 1 µs." The WiFi data packet that
//! follows is simultaneously a normal downlink frame to a client and the
//! tag's excitation signal.

use backfi_coding::prbs::tag_preamble;
use backfi_dsp::{us_to_samples, Complex};
use backfi_reader::TxReference;
use backfi_tag::detector::SAMPLES_PER_BIT;
use backfi_wifi::mac::{Frame, MacAddr};
use backfi_wifi::{Mcs, WifiTransmitter};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// Parameters of one excitation transmission.
#[derive(Clone, Debug)]
pub struct ExcitationConfig {
    /// Which tag to address (selects the pulse preamble).
    pub tag_id: u16,
    /// MCS of the WiFi data packet (the paper transmits at 24 Mbit/s).
    pub mcs: Mcs,
    /// WiFi payload length in bytes (sets the excitation duration,
    /// 1–4 ms in the paper's experiments).
    pub wifi_payload_bytes: usize,
    /// Scrambler seed for the data packet (vary per packet).
    pub scrambler_seed: u8,
    /// Idle gap before the CTS (samples of silence).
    pub lead_in: usize,
}

impl Default for ExcitationConfig {
    fn default() -> Self {
        ExcitationConfig {
            tag_id: 1,
            mcs: Mcs::Mbps24,
            wifi_payload_bytes: 3000, // ≈1 ms at 24 Mbit/s
            scrambler_seed: 0x5D,
            lead_in: 100,
        }
    }
}

/// A generated excitation with its protocol landmarks.
#[derive(Clone, Debug)]
pub struct Excitation {
    /// Unit-power baseband samples of the whole transmission.
    pub samples: Vec<Complex>,
    /// Sample index where the 16-bit pulse preamble ends (the tag's silent
    /// period starts here).
    pub detect_end: usize,
    /// Sample range of the WiFi data packet.
    pub data_span: std::ops::Range<usize>,
    /// The WiFi PSDU carried to the client (for client-side verification).
    pub wifi_psdu: Vec<u8>,
    /// The configuration used.
    pub config: ExcitationConfig,
    /// The samples scaled to the first TX amplitude asked of
    /// [`Excitation::scaled`], keyed by the amplitude's exact bits, with
    /// their finiteness checked.
    scaled: OnceLock<(u64, TxReference)>,
}

/// The excitation is a pure function of its config (no per-trial randomness:
/// payload, scrambler seed and preamble are all fixed by `ExcitationConfig`),
/// so sweeps share one synthesis per distinct config instead of re-running
/// the scrambler → conv-code → interleave → IFFT chain for every trial.
type ExcitationKey = (u16, Mcs, usize, u8, usize);

impl ExcitationConfig {
    fn cache_key(&self) -> ExcitationKey {
        (
            self.tag_id,
            self.mcs,
            self.wifi_payload_bytes,
            self.scrambler_seed,
            self.lead_in,
        )
    }
}

/// Keep the cache small: figure harnesses only ever use a handful of
/// distinct excitation configs at a time.
const CACHE_CAP: usize = 32;

fn cache() -> &'static Mutex<HashMap<ExcitationKey, Arc<Excitation>>> {
    static CACHE: OnceLock<Mutex<HashMap<ExcitationKey, Arc<Excitation>>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

impl Excitation {
    /// Build the transmission for `cfg`, sharing one synthesis per distinct
    /// config across the process (and across sweep worker threads).
    ///
    /// The returned value is sample-identical to `Excitation::build(cfg)`;
    /// only the synthesis cost is amortized.
    pub fn cached(cfg: &ExcitationConfig) -> Arc<Excitation> {
        let _t = backfi_obs::span("excitation.fetch");
        let key = cfg.cache_key();
        if let Some(hit) = cache().lock().expect("excitation cache poisoned").get(&key) {
            backfi_obs::counter_add("excitation.cache_hit", 1);
            return hit.clone();
        }
        backfi_obs::counter_add("excitation.cache_miss", 1);
        backfi_obs::trace::instant("excitation.build");
        // Build outside the lock so a long synthesis doesn't block lookups
        // of other configs; concurrent first-builds of the same config both
        // compute, which is deterministic and rare.
        let built = Arc::new(Excitation::build(cfg.clone()));
        let mut map = cache().lock().expect("excitation cache poisoned");
        if map.len() >= CACHE_CAP {
            map.clear();
        }
        map.entry(key).or_insert_with(|| built.clone()).clone()
    }

    /// Build the transmission.
    pub fn build(cfg: ExcitationConfig) -> Excitation {
        let tx = WifiTransmitter::new();
        let mut samples = vec![Complex::ZERO; cfg.lead_in];

        // CTS-to-self at the 6 Mbit/s base rate. NAV duration covers the
        // pulse preamble + data packet (µs, clamped to the field width).
        let data_frame = Frame::Data {
            dst: MacAddr::local(100),
            src: MacAddr::local(0),
            seq: 1,
            payload: vec![0xD5u8; cfg.wifi_payload_bytes],
        };
        let wifi_psdu = data_frame.to_psdu();
        let nav_us = 16.0 + cfg.mcs.packet_airtime_us(wifi_psdu.len()) + 16.0;
        let cts = Frame::CtsToSelf {
            addr: MacAddr::local(0),
            duration_us: nav_us.min(u16::MAX as f64) as u16,
        };
        let cts_pkt = tx.transmit(&cts.to_psdu(), Mcs::Mbps6, cfg.scrambler_seed ^ 0x2A);
        samples.extend_from_slice(&cts_pkt.samples);
        // SIFS gap.
        samples.extend(std::iter::repeat_n(Complex::ZERO, us_to_samples(16.0)));

        // Align the pulse preamble to the tag's 1 µs comparator grid so bit
        // decisions land cleanly (the hardware AP does the same by design).
        let pad = (SAMPLES_PER_BIT - samples.len() % SAMPLES_PER_BIT) % SAMPLES_PER_BIT;
        samples.extend(std::iter::repeat_n(Complex::ZERO, pad));

        // 16-bit wake-up/identification pulse preamble, 1 µs per bit. The
        // pulses are constant-envelope, so the PA can drive them at its peak
        // power — +6 dB over the OFDM average — which keeps them above the
        // tag's peak-hold threshold even right after a high-PAPR WiFi burst.
        const PULSE_AMPLITUDE: f64 = 2.0;
        for (i, &b) in tag_preamble(cfg.tag_id).iter().enumerate() {
            if b {
                samples.extend((0..SAMPLES_PER_BIT).map(|k| {
                    Complex::from_polar(PULSE_AMPLITUDE, 0.9 * (i * SAMPLES_PER_BIT + k) as f64)
                }));
            } else {
                samples.extend(std::iter::repeat_n(Complex::ZERO, SAMPLES_PER_BIT));
            }
        }
        let detect_end = samples.len();

        // The WiFi data packet (the actual excitation).
        let data_pkt = tx.transmit(&wifi_psdu, cfg.mcs, cfg.scrambler_seed);
        let data_start = samples.len();
        samples.extend_from_slice(&data_pkt.samples);
        let data_span = data_start..samples.len();

        Excitation {
            samples,
            detect_end,
            data_span,
            wifi_psdu,
            config: cfg,
            scaled: OnceLock::new(),
        }
    }

    /// The samples scaled to TX amplitude `a` (`samples[i] * a`, the
    /// canceller's clean reference), checked for non-finite samples. The
    /// first amplitude asked is kept and shared by every caller asking for
    /// it bit for bit: one scaled copy and one check per excitation, not
    /// one per simulator or per trial. Any other amplitude is scaled and
    /// checked afresh on each call. The samples must not change after the
    /// first call (a clone carries the kept copy).
    pub fn scaled(&self, a: f64) -> TxReference {
        let scale = || TxReference::new(self.samples.iter().map(|&v| v * a).collect());
        let (key, x) = self.scaled.get_or_init(|| (a.to_bits(), scale()));
        if *key == a.to_bits() {
            x.clone()
        } else {
            scale()
        }
    }

    /// Total airtime of the transmission in µs.
    pub fn airtime_us(&self) -> f64 {
        backfi_dsp::samples_to_us(self.samples.len())
    }

    /// Airtime of the data (excitation) portion available for backscatter.
    pub fn data_airtime_us(&self) -> f64 {
        backfi_dsp::samples_to_us(self.data_span.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn landmarks_are_consistent() {
        let e = Excitation::build(ExcitationConfig::default());
        assert!(e.detect_end < e.data_span.start + 1);
        assert_eq!(e.data_span.end, e.samples.len());
        // Pulse preamble: 16 µs of alternating pulses right before data.
        let pre = &e.samples[e.detect_end - 16 * SAMPLES_PER_BIT..e.detect_end];
        assert_eq!(pre.len(), 320);
    }

    #[test]
    fn preamble_pulses_match_tag_pattern() {
        let cfg = ExcitationConfig {
            tag_id: 7,
            ..Default::default()
        };
        let e = Excitation::build(cfg);
        let pattern = tag_preamble(7);
        let pre_start = e.detect_end - 16 * SAMPLES_PER_BIT;
        for (i, &b) in pattern.iter().enumerate() {
            let blk =
                &e.samples[pre_start + i * SAMPLES_PER_BIT..pre_start + (i + 1) * SAMPLES_PER_BIT];
            let p: f64 = blk.iter().map(|v| v.norm_sqr()).sum();
            if b {
                assert!(p > 10.0, "bit {i} should be a pulse");
            } else {
                assert!(p < 1e-12, "bit {i} should be silent");
            }
        }
    }

    #[test]
    fn data_duration_tracks_payload() {
        let short = Excitation::build(ExcitationConfig {
            wifi_payload_bytes: 500,
            ..Default::default()
        });
        let long = Excitation::build(ExcitationConfig {
            wifi_payload_bytes: 3900,
            ..Default::default()
        });
        assert!(long.data_airtime_us() > 3.0 * short.data_airtime_us());
        // ~1 ms for the default 3000 bytes at 24 Mbit/s
        let default = Excitation::build(ExcitationConfig::default());
        assert!(
            (default.data_airtime_us() - 1030.0).abs() < 60.0,
            "{}",
            default.data_airtime_us()
        );
    }

    #[test]
    fn wifi_psdu_is_a_valid_frame() {
        let e = Excitation::build(ExcitationConfig::default());
        assert!(backfi_wifi::mac::check_fcs(&e.wifi_psdu));
        match Frame::from_psdu(&e.wifi_psdu) {
            Some(Frame::Data { payload, .. }) => assert_eq!(payload.len(), 3000),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn cached_is_sample_identical_to_fresh_build() {
        let cfg = ExcitationConfig {
            tag_id: 3,
            wifi_payload_bytes: 700,
            ..Default::default()
        };
        let cached = Excitation::cached(&cfg);
        let fresh = Excitation::build(cfg.clone());
        assert_eq!(cached.samples, fresh.samples);
        assert_eq!(cached.detect_end, fresh.detect_end);
        assert_eq!(cached.data_span, fresh.data_span);
        assert_eq!(cached.wifi_psdu, fresh.wifi_psdu);
    }

    #[test]
    fn cache_shares_one_allocation_per_config() {
        let cfg = ExcitationConfig {
            tag_id: 4,
            wifi_payload_bytes: 600,
            ..Default::default()
        };
        let a = Excitation::cached(&cfg);
        let b = Excitation::cached(&cfg);
        assert!(Arc::ptr_eq(&a, &b));
        // A different config must not alias.
        let other = ExcitationConfig {
            tag_id: 5,
            wifi_payload_bytes: 600,
            ..Default::default()
        };
        let c = Excitation::cached(&other);
        assert!(!Arc::ptr_eq(&a, &c));
    }

    #[test]
    fn scaled_memo_keys_by_amplitude_bits() {
        let e = Excitation::build(ExcitationConfig {
            wifi_payload_bytes: 200,
            ..Default::default()
        });
        let bits = |v: &[Complex]| -> Vec<(u64, u64)> {
            v.iter().map(|c| (c.re.to_bits(), c.im.to_bits())).collect()
        };
        // The first amplitude is kept; the others are scaled afresh, still
        // exactly.
        let amps = [10.0, 10.0f64.next_up(), 3.0];
        for &a in &amps {
            let want: Vec<Complex> = e.samples.iter().map(|&v| v * a).collect();
            let got = e.scaled(a);
            assert_eq!(bits(got.samples()), bits(&want), "amplitude {a}");
            assert!(got.is_finite(), "amplitude {a}");
        }
        let ptr = |a: f64| e.scaled(a).samples().as_ptr();
        assert_eq!(ptr(10.0), ptr(10.0));
        // A non-finite amplitude is scaled and checked afresh, too.
        assert!(!e.scaled(f64::INFINITY).is_finite());
        assert!(e.scaled(10.0).is_finite());
    }

    #[test]
    fn detect_end_is_microsecond_aligned() {
        for id in [1u16, 5, 9] {
            let e = Excitation::build(ExcitationConfig {
                tag_id: id,
                ..Default::default()
            });
            assert_eq!(e.detect_end % SAMPLES_PER_BIT, 0);
        }
    }
}
