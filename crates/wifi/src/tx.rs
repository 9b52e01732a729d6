//! The 802.11g OFDM transmitter chain.
//!
//! PSDU bytes → SERVICE + tail + pad → scramble → convolutional encode →
//! puncture → per-symbol interleave → constellation map → pilot insertion →
//! 64-point IFFT + cyclic prefix, with the PLCP preamble and SIGNAL symbol in
//! front. The emitted packet is normalized to unit average power; the link
//! budget in `backfi-chan` sets the absolute transmit power.

use crate::modmap::map_block;
use crate::params::{Mcs, OFDM};
use crate::preamble::full_preamble;
use crate::signal_field::Signal;
use crate::subcarrier::{assemble_symbol, pilot_polarity_sequence};
use backfi_coding::bits::bytes_to_bits_lsb;
use backfi_coding::interleaver::Interleaver;
use backfi_coding::puncture::puncture;
use backfi_coding::scrambler::Scrambler;
use backfi_coding::ConvEncoder;
use backfi_dsp::fft::FftPlan;
use backfi_dsp::{stats, Complex};

/// A generated baseband packet plus the metadata tests and experiments need.
#[derive(Clone, Debug)]
pub struct TxPacket {
    /// Unit-power baseband samples at 20 MHz (preamble + SIGNAL + DATA).
    pub samples: Vec<Complex>,
    /// The MCS used.
    pub mcs: Mcs,
    /// The PSDU that was encoded (so receivers can compute BER).
    pub psdu: Vec<u8>,
    /// Number of DATA OFDM symbols.
    pub data_symbols: usize,
    /// Scale factor that was applied for unit power (needed by tests that
    /// reconstruct intermediate signals).
    pub power_scale: f64,
}

impl TxPacket {
    /// Airtime of this packet in microseconds.
    pub fn airtime_us(&self) -> f64 {
        backfi_dsp::samples_to_us(self.samples.len())
    }
}

/// The transmitter. Holds precomputed tables; reusable across packets.
#[derive(Clone, Debug)]
pub struct WifiTransmitter {
    plan: FftPlan,
    polarity: Vec<f64>,
    preamble: Vec<Complex>,
}

impl Default for WifiTransmitter {
    fn default() -> Self {
        Self::new()
    }
}

impl WifiTransmitter {
    /// Create a transmitter with precomputed preamble/FFT/pilot tables.
    pub fn new() -> Self {
        WifiTransmitter {
            plan: FftPlan::new(OFDM::FFT),
            polarity: pilot_polarity_sequence(),
            preamble: full_preamble(),
        }
    }

    /// Encode one PSDU into a baseband packet.
    ///
    /// `scrambler_seed` must be a nonzero 7-bit value (pick pseudo-randomly
    /// per packet like real hardware; Annex G uses 0x5D).
    ///
    /// # Panics
    /// Panics if the PSDU is empty or longer than 4095 bytes.
    pub fn transmit(&self, psdu: &[u8], mcs: Mcs, scrambler_seed: u8) -> TxPacket {
        assert!(
            !psdu.is_empty() && psdu.len() < 4096,
            "PSDU must be 1..=4095 bytes"
        );
        let nsym = mcs.data_symbols(psdu.len());
        let dbps = mcs.dbps();

        // --- bit pipeline -------------------------------------------------
        // SERVICE (16 zero bits) + PSDU + 6 tail + pad.
        let mut bits = vec![false; 16];
        bits.extend(bytes_to_bits_lsb(psdu));
        let tail_at = bits.len();
        bits.extend(std::iter::repeat_n(false, 6));
        let total = nsym * dbps;
        bits.resize(total, false);

        // Scramble everything, then restore the tail bits to zero so the
        // decoder's trellis terminates (§18.3.5.3).
        let mut scr = Scrambler::new(scrambler_seed);
        scr.process_in_place(&mut bits);
        for b in &mut bits[tail_at..tail_at + 6] {
            *b = false;
        }

        // Convolutional encode + puncture.
        let mut enc = ConvEncoder::ieee80211();
        enc.reset();
        let mother = enc.encode(&bits);
        let coded = puncture(&mother, mcs.code_rate());
        debug_assert_eq!(coded.len(), nsym * mcs.cbps());

        // --- symbol pipeline ----------------------------------------------
        let mut samples = self.preamble.clone();

        // SIGNAL symbol (symbol index 0).
        let sig = Signal {
            mcs,
            length: psdu.len(),
        }
        .encode();
        let sig_il = Interleaver::new(48, 1).interleave(&sig);
        let sig_pts = map_block(crate::params::Modulation::Bpsk, &sig_il);
        self.push_symbol(&mut samples, &sig_pts, 0);

        // DATA symbols (indices 1..).
        let il = Interleaver::new(mcs.cbps(), mcs.modulation().bits_per_subcarrier());
        for (n, chunk) in coded.chunks_exact(mcs.cbps()).enumerate() {
            let inter = il.interleave(chunk);
            let pts = map_block(mcs.modulation(), &inter);
            self.push_symbol(&mut samples, &pts, n + 1);
        }

        // Normalize to unit average power.
        let p = stats::mean_power(&samples);
        let scale = 1.0 / p.sqrt();
        for s in &mut samples {
            *s *= scale;
        }

        TxPacket {
            samples,
            mcs,
            psdu: psdu.to_vec(),
            data_symbols: nsym,
            power_scale: scale,
        }
    }

    /// IFFT one frequency-domain symbol, prepend its cyclic prefix, append to
    /// the sample stream.
    fn push_symbol(&self, out: &mut Vec<Complex>, data: &[Complex], n: usize) {
        let mut bins = assemble_symbol(data, n, &self.polarity);
        self.plan.inverse(&mut bins);
        out.extend_from_slice(&bins[OFDM::FFT - OFDM::CP..]);
        out.extend_from_slice(&bins);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packet_length_matches_airtime_formula() {
        let tx = WifiTransmitter::new();
        for mcs in Mcs::ALL {
            let pkt = tx.transmit(&[0xA5; 100], mcs, 0x5D);
            let expect_us = mcs.packet_airtime_us(100);
            assert!(
                (pkt.airtime_us() - expect_us).abs() < 1e-9,
                "{mcs:?}: {} vs {}",
                pkt.airtime_us(),
                expect_us
            );
        }
    }

    #[test]
    fn unit_power() {
        let tx = WifiTransmitter::new();
        let pkt = tx.transmit(&vec![0x3C; 500], Mcs::Mbps24, 0x11);
        let p = stats::mean_power(&pkt.samples);
        assert!((p - 1.0).abs() < 1e-9, "power {p}");
    }

    #[test]
    fn papr_is_ofdm_like() {
        // OFDM should have multi-dB PAPR — a sanity check that we're not
        // emitting a constant-envelope signal.
        let tx = WifiTransmitter::new();
        let pkt = tx.transmit(&vec![0x77; 1000], Mcs::Mbps54, 0x2F);
        let peak = pkt.samples.iter().map(|v| v.norm_sqr()).fold(0.0, f64::max);
        let papr = stats::db(peak / stats::mean_power(&pkt.samples));
        assert!(papr > 5.0 && papr < 15.0, "papr {papr}");
    }

    #[test]
    fn different_seeds_give_different_waveforms() {
        let tx = WifiTransmitter::new();
        let a = tx.transmit(&[0u8; 100], Mcs::Mbps6, 0x01);
        let b = tx.transmit(&[0u8; 100], Mcs::Mbps6, 0x55);
        assert_eq!(a.samples.len(), b.samples.len());
        let diff: f64 = a
            .samples
            .iter()
            .zip(&b.samples)
            .map(|(x, y)| (*x - *y).norm_sqr())
            .sum();
        assert!(diff > 1.0, "scrambler had no effect");
    }

    #[test]
    fn preamble_is_in_front() {
        let tx = WifiTransmitter::new();
        let pkt = tx.transmit(&[1, 2, 3], Mcs::Mbps6, 0x5D);
        let pre = full_preamble();
        // Same shape up to the power normalization factor.
        let k = pkt.power_scale;
        #[allow(clippy::needless_range_loop)] // compares two buffers at index i
        for i in 0..pre.len() {
            assert!((pkt.samples[i] - pre[i] * k).abs() < 1e-9, "sample {i}");
        }
    }

    #[test]
    #[should_panic(expected = "PSDU")]
    fn rejects_empty_psdu() {
        WifiTransmitter::new().transmit(&[], Mcs::Mbps6, 0x5D);
    }
}
