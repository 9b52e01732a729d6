//! The 802.11g OFDM receiver chain.
//!
//! Detection (STF autocorrelation) → coarse CFO → LTF timing (cross-
//! correlation) → fine CFO → LTF channel + noise estimation → SIGNAL decode →
//! per-symbol equalization with pilot phase tracking → soft demap →
//! deinterleave → depuncture → Viterbi → descramble.
//!
//! The coexistence experiments of the paper (Figs. 12b, 13) hinge on this
//! receiver: a backscattering tag perturbs the client's channel mid-packet,
//! and the question is how much that costs in post-equalization SNR and
//! packet success.

use crate::modmap::{demap_soft_batch, demap_soft_direct};
use crate::params::{Mcs, Modulation, OFDM};
use crate::preamble::{ltf_frequency_domain, ltf_symbol};
use crate::signal_field::Signal;
use crate::subcarrier::{
    bin, data_subcarriers, disassemble_symbol, pilot_polarity_sequence, PILOT_BASE,
    PILOT_SUBCARRIERS,
};
use backfi_coding::bits::bits_to_bytes_lsb;
use backfi_coding::interleaver::Interleaver;
use backfi_coding::puncture::depuncture_soft;
use backfi_coding::ViterbiDecoder;
use backfi_dsp::correlate::{autocorr_metric, xcorr_normalized};
use backfi_dsp::fft::FftPlan;
use backfi_dsp::{stats, Complex, SAMPLE_RATE_HZ};

/// Why a packet could not be decoded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RxError {
    /// No STF-like structure found in the buffer.
    NotDetected,
    /// STF found but LTF timing could not be confirmed.
    SyncFailed,
    /// The SIGNAL field failed its parity/consistency checks.
    BadSignalField,
    /// The buffer ends before the announced packet length.
    Truncated,
}

impl std::fmt::Display for RxError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            RxError::NotDetected => "no packet detected",
            RxError::SyncFailed => "LTF synchronization failed",
            RxError::BadSignalField => "SIGNAL field invalid",
            RxError::Truncated => "buffer shorter than announced packet",
        };
        f.write_str(s)
    }
}

impl std::error::Error for RxError {}

/// A successfully synchronized and decoded packet.
#[derive(Clone, Debug)]
pub struct RxPacket {
    /// Announced and used MCS.
    pub mcs: Mcs,
    /// Recovered PSDU bytes (integrity not yet checked — see
    /// [`crate::mac::check_fcs`]).
    pub psdu: Vec<u8>,
    /// Post-equalization SNR estimate in dB (from the LTF).
    pub snr_db: f64,
    /// Estimated carrier frequency offset in Hz.
    pub cfo_hz: f64,
    /// Sample index where the preamble started.
    pub start: usize,
}

/// Channel-probe result: everything up to (not including) payload decoding.
#[derive(Clone, Debug)]
pub struct ProbeReport {
    /// LTF-based SNR estimate in dB.
    pub snr_db: f64,
    /// Estimated CFO in Hz.
    pub cfo_hz: f64,
    /// Sample index of the preamble start.
    pub start: usize,
    /// Per-bin channel estimate (64 entries; unloaded bins are zero).
    pub channel: Vec<Complex>,
}

/// Number of OFDM symbols processed per planar batch by the demod loop
/// ([`WifiReceiver::receive`] runs SIGNAL as a one-symbol batch). One batch
/// shares one strided FFT invocation, one demapper table fetch and one set
/// of planar scratch buffers; symbols are independent, so the cut is purely
/// a locality/amortization knob — output is bit-identical at every batch
/// size (pinned by the `_equiv` suite). 16 symbols keep the
/// whole working set (16 KiB of FFT lanes + ~45 KiB of planar f64 scratch)
/// L1/L2-resident while amortizing per-call overhead ~16×.
pub const RX_SYMBOL_BATCH: usize = 16;

/// Detection thresholds and search limits.
#[derive(Clone, Copy, Debug)]
pub struct RxConfig {
    /// Normalized STF autocorrelation threshold (0–1).
    pub detect_threshold: f64,
    /// Normalized LTF cross-correlation threshold (0–1).
    pub sync_threshold: f64,
    /// Samples of timing backoff into the cyclic prefix.
    pub timing_backoff: usize,
}

impl Default for RxConfig {
    fn default() -> Self {
        RxConfig {
            detect_threshold: 0.7,
            sync_threshold: 0.55,
            timing_backoff: 2,
        }
    }
}

/// The receiver. Holds precomputed tables; reusable across packets.
#[derive(Clone, Debug)]
pub struct WifiReceiver {
    plan: FftPlan,
    polarity: Vec<f64>,
    ltf_time: Vec<Complex>,
    ltf_freq: Vec<Complex>,
    /// FFT bins of the 48 data subcarriers, in transmission order —
    /// precomputed so the per-symbol hot loop gathers instead of re-deriving
    /// the subcarrier map.
    data_bins: Vec<usize>,
    cfg: RxConfig,
}

impl Default for WifiReceiver {
    fn default() -> Self {
        Self::new(RxConfig::default())
    }
}

impl WifiReceiver {
    /// Create a receiver with the given thresholds.
    pub fn new(cfg: RxConfig) -> Self {
        WifiReceiver {
            plan: FftPlan::new(OFDM::FFT),
            polarity: pilot_polarity_sequence(),
            ltf_time: ltf_symbol(),
            ltf_freq: ltf_frequency_domain(),
            data_bins: data_subcarriers().into_iter().map(bin).collect(),
            cfg,
        }
    }

    /// Synchronize to the strongest packet in `samples` and estimate the
    /// channel, without decoding the payload.
    pub fn probe(&self, samples: &[Complex]) -> Result<ProbeReport, RxError> {
        let sync = self.synchronize(samples)?;
        Ok(ProbeReport {
            snr_db: sync.snr_db,
            cfo_hz: sync.cfo_hz,
            start: sync.start,
            channel: sync.channel,
        })
    }

    /// Full packet decode.
    pub fn receive(&self, samples: &[Complex]) -> Result<RxPacket, RxError> {
        let sync = {
            let _span = backfi_obs::span("wifi.rx.sync");
            self.synchronize(samples)?
        };
        let x = &sync.corrected;
        let noise_var = sync.noise_var;

        // ---- SIGNAL symbol ------------------------------------------------
        let sig_start = sync.data_start;
        if sig_start + OFDM::SYMBOL > x.len() {
            return Err(RxError::Truncated);
        }
        let sig_llr = self.demap_batched(
            x,
            sig_start,
            1,
            0,
            &sync.channel,
            noise_var,
            Modulation::Bpsk,
        );
        let signal = Signal::decode_soft(&sig_llr).ok_or(RxError::BadSignalField)?;
        let mcs = signal.mcs;
        let nsym = mcs.data_symbols(signal.length);

        let payload_start = sig_start + OFDM::SYMBOL;
        if payload_start + nsym * OFDM::SYMBOL > x.len() {
            return Err(RxError::Truncated);
        }

        // ---- DATA symbols ---------------------------------------------------
        let llrs = {
            let _span = backfi_obs::span("wifi.rx.batch");
            self.demap_batched(
                x,
                payload_start,
                nsym,
                1,
                &sync.channel,
                noise_var,
                mcs.modulation(),
            )
        };

        // ---- decode ---------------------------------------------------------
        let _decode_span = backfi_obs::span("wifi.rx.decode");
        let info_bits = nsym * mcs.dbps();
        let mother_len = info_bits * 2;
        let soft = {
            let _span = backfi_obs::span("wifi.rx.depuncture");
            depuncture_soft(&llrs, mcs.code_rate(), mother_len)
        };
        let scrambled = {
            let _span = backfi_obs::span("wifi.rx.viterbi");
            ViterbiDecoder::ieee80211().decode_soft_truncated(&soft)
        };

        // Descramble: SERVICE bits are zero on air, so the first 7 decoded
        // bits are the scrambler sequence itself; extend it by its recurrence
        // z[i] = z[i−4] ⊕ z[i−7], descrambling in the same preallocated pass.
        let mut z = vec![false; scrambled.len()];
        z[..7].copy_from_slice(&scrambled[..7]);
        for i in 7..scrambled.len() {
            z[i] = z[i - 4] ^ z[i - 7];
        }
        let bits: Vec<bool> = scrambled.iter().zip(&z).map(|(b, s)| b ^ s).collect();

        let need = 16 + 8 * signal.length;
        if bits.len() < need {
            return Err(RxError::Truncated);
        }
        let psdu = bits_to_bytes_lsb(&bits[16..need]);

        Ok(RxPacket {
            mcs,
            psdu,
            snr_db: sync.snr_db,
            cfo_hz: sync.cfo_hz,
            start: sync.start,
        })
    }

    // ---- internals ----------------------------------------------------------

    fn synchronize(&self, samples: &[Complex]) -> Result<SyncState, RxError> {
        if samples.len() < 480 {
            return Err(RxError::NotDetected);
        }
        // 1. STF detection: 16-sample periodicity.
        let (p, e) = autocorr_metric(samples, 16, 64);
        let peak_energy = e.iter().cloned().fold(0.0, f64::max);
        if peak_energy <= 0.0 {
            return Err(RxError::NotDetected);
        }
        let mut detect = None;
        for k in 0..p.len() {
            // Require real energy (vs. the quietest parts of the buffer) so
            // noise-only regions with flukey correlation don't trigger.
            if e[k] > 0.05 * peak_energy && p[k].abs() / e[k] > self.cfg.detect_threshold {
                detect = Some(k);
                break;
            }
        }
        let coarse = detect.ok_or(RxError::NotDetected)?;

        // 2. Coarse CFO from the STF autocorrelation phase.
        let cfo1 = -p[coarse].arg() / (2.0 * std::f64::consts::PI * 16.0 / SAMPLE_RATE_HZ);
        let mut x: Vec<Complex> = samples.to_vec();
        apply_cfo(&mut x, -cfo1);

        // 3. LTF timing by normalized cross-correlation, confirmed by the
        // second long symbol exactly 64 samples later.
        let search_end = (coarse + 500).min(x.len());
        let window = &x[coarse..search_end];
        if window.len() < 192 {
            return Err(RxError::SyncFailed);
        }
        let corr = xcorr_normalized(window, &self.ltf_time);
        let mut best: Option<(usize, f64)> = None;
        for k in 0..corr.len().saturating_sub(64) {
            let score = corr[k] + corr[k + 64];
            if corr[k] > self.cfg.sync_threshold && corr[k + 64] > self.cfg.sync_threshold {
                match best {
                    Some((_, b)) if score <= b => {}
                    _ => best = Some((k, score)),
                }
            }
        }
        let (rel, _) = best.ok_or(RxError::SyncFailed)?;
        let ltf1 = (coarse + rel).saturating_sub(self.cfg.timing_backoff);
        if ltf1 + 128 + OFDM::SYMBOL > x.len() {
            return Err(RxError::Truncated);
        }

        // 4. Fine CFO from the two long symbols.
        let s1 = &x[ltf1..ltf1 + 64];
        let s2 = &x[ltf1 + 64..ltf1 + 128];
        // s2 = s1·e^{j2π·cfo·64/fs}, so Σ s1·conj(s2) has phase −2π·cfo·64/fs.
        let acc: Complex = s1.iter().zip(s2).map(|(a, b)| *a * b.conj()).sum();
        let cfo2 = -acc.arg() / (2.0 * std::f64::consts::PI * 64.0 / SAMPLE_RATE_HZ);
        apply_cfo(&mut x, -cfo2);

        // 5. Channel + noise estimation from the two (re-corrected) symbols.
        let mut f1 = x[ltf1..ltf1 + 64].to_vec();
        let mut f2 = x[ltf1 + 64..ltf1 + 128].to_vec();
        self.plan.forward(&mut f1);
        self.plan.forward(&mut f2);
        let mut channel = vec![Complex::ZERO; 64];
        let mut noise_acc = 0.0;
        let mut sig_acc = 0.0;
        let mut loaded = 0usize;
        for k in -26i32..=26 {
            if k == 0 {
                continue;
            }
            let b = bin(k);
            let l = self.ltf_freq[b];
            if l.abs() < 0.5 {
                continue;
            }
            let avg = (f1[b] + f2[b]) / 2.0;
            channel[b] = avg / l;
            noise_acc += (f1[b] - f2[b]).norm_sqr() / 2.0;
            sig_acc += avg.norm_sqr();
            loaded += 1;
        }
        let noise_var = (noise_acc / loaded as f64).max(1e-15);
        let sig_pow = sig_acc / loaded as f64;
        let snr_db = stats::db((sig_pow / noise_var).max(1e-12));

        let start = ltf1.saturating_sub(192); // preamble start estimate
        Ok(SyncState {
            corrected: x,
            channel,
            noise_var,
            snr_db,
            cfo_hz: cfo1 + cfo2,
            data_start: ltf1 + 128,
            start,
        })
    }

    /// Reference form of one symbol of [`Self::demap_batched`] (before
    /// deinterleaving): FFT one symbol, track pilot phase, then heap
    /// scratch, per-subcarrier AoS equalization and the rebuild-every-call
    /// demapper — the original receive path, kept for the `_equiv` suite.
    #[cfg_attr(not(test), allow(dead_code))]
    fn demap_symbol_direct(
        &self,
        x: &[Complex],
        at: usize,
        n: usize,
        channel: &[Complex],
        noise_var: f64,
        modulation: Modulation,
    ) -> Vec<f64> {
        let mut bins = x[at + OFDM::CP..at + OFDM::SYMBOL].to_vec();
        self.plan.forward(&mut bins);

        // Pilot-based common phase error estimate.
        let pol = self.polarity[n % self.polarity.len()];
        let mut acc = Complex::ZERO;
        for (i, &k) in PILOT_SUBCARRIERS.iter().enumerate() {
            let b = bin(k);
            let expected = channel[b] * (PILOT_BASE[i] * pol);
            acc += bins[b] * expected.conj();
        }
        let phase = if acc.abs() > 0.0 { acc.arg() } else { 0.0 };
        let derot = Complex::exp_j(-phase);

        let (data, _pilots) = disassemble_symbol(&bins);
        let mut llr = Vec::with_capacity(data.len() * modulation.bits_per_subcarrier());
        for (pt, k) in data.iter().zip(data_subcarriers()) {
            let h = channel[bin(k)];
            let csi = h.norm_sqr();
            let eq = if csi > 1e-15 {
                (*pt * derot) / h
            } else {
                Complex::ZERO
            };
            demap_soft_direct(modulation, eq, csi, noise_var, &mut llr);
        }
        llr
    }

    /// Demodulate `nsym` consecutive OFDM symbols of one modulation starting
    /// at sample `start` — the SIGNAL symbol (`nsym = 1`, BPSK, pilot
    /// polarity index `first = 0`) and the payload (`first = 1`) alike — in
    /// [`RX_SYMBOL_BATCH`]-symbol planar batches: one strided FFT call per
    /// batch, per-symbol pilot phase tracking and planar equalization into
    /// shared scratch, one fused demap pass over the batch, and per-symbol
    /// deinterleaving straight into the returned LLR buffer. Symbols are
    /// independent, so output is bit-identical to the symbol-at-a-time
    /// [`Self::demap_symbol_direct`] loop plus deinterleave at every symbol
    /// count — including counts that are not a multiple of the batch size
    /// (pinned by the `_equiv` tests).
    #[allow(clippy::too_many_arguments)]
    fn demap_batched(
        &self,
        x: &[Complex],
        start: usize,
        nsym: usize,
        first: usize,
        channel: &[Complex],
        noise_var: f64,
        modulation: Modulation,
    ) -> Vec<f64> {
        const ND: usize = 48;
        let nbpsc = modulation.bits_per_subcarrier();
        let cbps = ND * nbpsc;
        let il = Interleaver::new(cbps, nbpsc);
        // deinterleave_into writes every slot of each symbol's range.
        let mut llrs = vec![0.0f64; nsym * cbps];

        // The channel is static over the packet: gather its planar form once.
        let mut hr = [0.0f64; ND];
        let mut hi = [0.0f64; ND];
        for (i, &b) in self.data_bins.iter().enumerate() {
            hr[i] = channel[b].re;
            hi[i] = channel[b].im;
        }

        let batch = nsym.min(RX_SYMBOL_BATCH);
        let mut fftbuf = vec![Complex::ZERO; batch * OFDM::FFT];
        let mut sr = vec![0.0f64; batch * ND];
        let mut si = vec![0.0f64; batch * ND];
        let mut eq_re = vec![0.0f64; batch * ND];
        let mut eq_im = vec![0.0f64; batch * ND];
        let mut csi = vec![0.0f64; batch * ND];
        let mut batch_llr: Vec<f64> = Vec::with_capacity(batch * cbps);

        let mut n0 = 0usize;
        while n0 < nsym {
            let b = batch.min(nsym - n0);
            // 1. Strip CPs and transform the whole batch with one plan call.
            for s in 0..b {
                let at = start + (n0 + s) * OFDM::SYMBOL;
                fftbuf[s * OFDM::FFT..(s + 1) * OFDM::FFT]
                    .copy_from_slice(&x[at + OFDM::CP..at + OFDM::SYMBOL]);
            }
            self.plan.forward_many(&mut fftbuf[..b * OFDM::FFT]);
            // 2. Pilot CPE + planar equalization, symbol by symbol (the
            // derotator differs per symbol).
            for s in 0..b {
                let bins_s = &fftbuf[s * OFDM::FFT..(s + 1) * OFDM::FFT];
                let pol = self.polarity[(first + n0 + s) % self.polarity.len()];
                let mut acc = Complex::ZERO;
                for (i, &k) in PILOT_SUBCARRIERS.iter().enumerate() {
                    let pb = bin(k);
                    let expected = channel[pb] * (PILOT_BASE[i] * pol);
                    acc += bins_s[pb] * expected.conj();
                }
                let phase = if acc.abs() > 0.0 { acc.arg() } else { 0.0 };
                let derot = Complex::exp_j(-phase);
                let o = s * ND;
                for (i, &pb) in self.data_bins.iter().enumerate() {
                    sr[o + i] = bins_s[pb].re;
                    si[o + i] = bins_s[pb].im;
                }
                backfi_dsp::soa::equalize_planar(
                    &sr[o..o + ND],
                    &si[o..o + ND],
                    &hr,
                    &hi,
                    derot,
                    &mut eq_re[o..o + ND],
                    &mut eq_im[o..o + ND],
                    &mut csi[o..o + ND],
                );
            }
            // 3. One fused demap pass over the whole batch.
            batch_llr.clear();
            demap_soft_batch(
                modulation,
                &eq_re[..b * ND],
                &eq_im[..b * ND],
                &csi[..b * ND],
                noise_var,
                &mut batch_llr,
            );
            // 4. Deinterleave each symbol into its slot of the output.
            for s in 0..b {
                il.deinterleave_into(
                    &batch_llr[s * cbps..(s + 1) * cbps],
                    &mut llrs[(n0 + s) * cbps..(n0 + s + 1) * cbps],
                );
            }
            n0 += b;
        }
        llrs
    }

    /// Reference form of [`Self::demap_batched`] over the payload: the
    /// original symbol-at-a-time loop over [`Self::demap_symbol_direct`]
    /// with allocating deinterleaves. Kept for the batched `_equiv` suite.
    #[cfg_attr(not(test), allow(dead_code))]
    fn demap_payload_direct(
        &self,
        x: &[Complex],
        payload_start: usize,
        nsym: usize,
        channel: &[Complex],
        noise_var: f64,
        mcs: Mcs,
    ) -> Vec<f64> {
        let il = Interleaver::new(mcs.cbps(), mcs.modulation().bits_per_subcarrier());
        let mut llrs = Vec::with_capacity(nsym * mcs.cbps());
        for n in 0..nsym {
            let sym_llr = self.demap_symbol_direct(
                x,
                payload_start + n * OFDM::SYMBOL,
                n + 1,
                channel,
                noise_var,
                mcs.modulation(),
            );
            llrs.extend(il.deinterleave(&sym_llr));
        }
        llrs
    }
}

struct SyncState {
    corrected: Vec<Complex>,
    channel: Vec<Complex>,
    noise_var: f64,
    snr_db: f64,
    cfo_hz: f64,
    data_start: usize,
    start: usize,
}

/// Apply a frequency shift of `hz` to a sample buffer in place.
pub fn apply_cfo(x: &mut [Complex], hz: f64) {
    if hz == 0.0 {
        return;
    }
    let w = 2.0 * std::f64::consts::PI * hz / SAMPLE_RATE_HZ;
    for (i, v) in x.iter_mut().enumerate() {
        *v *= Complex::exp_j(w * i as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tx::WifiTransmitter;
    use backfi_dsp::noise::add_noise;
    use backfi_dsp::rng::SplitMix64;

    fn loopback(
        mcs: Mcs,
        len: usize,
        noise: f64,
        cfo: f64,
        pad: usize,
    ) -> Result<RxPacket, RxError> {
        let tx = WifiTransmitter::new();
        let psdu: Vec<u8> = (0..len).map(|i| (i * 37 + 11) as u8).collect();
        let pkt = tx.transmit(&psdu, mcs, 0x5D);
        let mut buf = vec![Complex::ZERO; pad];
        buf.extend_from_slice(&pkt.samples);
        buf.extend(std::iter::repeat_n(Complex::ZERO, 200));
        let mut rng = SplitMix64::new(99);
        add_noise(&mut rng, &mut buf, noise);
        if cfo != 0.0 {
            apply_cfo(&mut buf, cfo);
        }
        let rx = WifiReceiver::default();
        let got = rx.receive(&buf)?;
        assert_eq!(got.psdu, psdu, "PSDU mismatch");
        Ok(got)
    }

    #[test]
    fn clean_loopback_all_rates() {
        for mcs in Mcs::ALL {
            loopback(mcs, 200, 0.0, 0.0, 64).unwrap_or_else(|e| panic!("{mcs:?}: {e}"));
        }
    }

    #[test]
    fn noisy_loopback_low_rate() {
        // 20 dB SNR is plenty for 6 Mbps.
        let got = loopback(Mcs::Mbps6, 300, 0.01, 0.0, 128).expect("decode");
        assert!(got.snr_db > 15.0, "snr {}", got.snr_db);
    }

    #[test]
    fn noisy_loopback_high_rate() {
        // 30 dB SNR decodes 54 Mbps.
        loopback(Mcs::Mbps54, 300, 0.001, 0.0, 48).expect("decode");
    }

    #[test]
    fn cfo_is_estimated_and_corrected() {
        let got = loopback(Mcs::Mbps12, 150, 0.003, 40_000.0, 100).expect("decode");
        assert!(
            (got.cfo_hz - 40_000.0).abs() < 2_000.0,
            "cfo estimate {}",
            got.cfo_hz
        );
    }

    #[test]
    fn detects_start_offset() {
        let got = loopback(Mcs::Mbps6, 60, 0.001, 0.0, 500).expect("decode");
        assert!(
            (got.start as i64 - 500).unsigned_abs() <= 8,
            "start {}",
            got.start
        );
    }

    #[test]
    fn noise_only_is_not_detected() {
        let mut rng = SplitMix64::new(5);
        let mut buf = vec![Complex::ZERO; 4000];
        add_noise(&mut rng, &mut buf, 1.0);
        let rx = WifiReceiver::default();
        match rx.receive(&buf) {
            Err(RxError::NotDetected) | Err(RxError::SyncFailed) => {}
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn truncated_buffer_reports_truncated() {
        let tx = WifiTransmitter::new();
        let pkt = tx.transmit(&vec![9u8; 400], Mcs::Mbps6, 0x5D);
        let cut = &pkt.samples[..pkt.samples.len() / 2];
        let rx = WifiReceiver::default();
        assert_eq!(rx.receive(cut).unwrap_err(), RxError::Truncated);
    }

    #[test]
    fn probe_reports_high_snr_on_clean_signal() {
        let tx = WifiTransmitter::new();
        let pkt = tx.transmit(&[1u8; 100], Mcs::Mbps24, 0x33);
        let mut buf = pkt.samples.clone();
        let mut rng = SplitMix64::new(8);
        add_noise(&mut rng, &mut buf, 1e-4);
        let rx = WifiReceiver::default();
        let probe = rx.probe(&buf).expect("probe");
        assert!(probe.snr_db > 30.0, "snr {}", probe.snr_db);
        // channel should be ~flat unit gain
        let loaded: Vec<f64> = probe
            .channel
            .iter()
            .filter(|h| h.abs() > 1e-6)
            .map(|h| h.abs())
            .collect();
        assert_eq!(loaded.len(), 52);
    }

    #[test]
    fn demap_symbol_equiv_direct() {
        // One symbol at pilot polarity index 0 — the SIGNAL call — through
        // the batched planar gather + equalize + demap + deinterleave must
        // reproduce the original AoS symbol pipeline bit-for-bit, for every
        // modulation.
        let tx = WifiTransmitter::new();
        let psdu: Vec<u8> = (0..300).map(|i| (i * 31 + 7) as u8).collect();
        let pkt = tx.transmit(&psdu, Mcs::Mbps54, 0x5D);
        let mut buf = pkt.samples.clone();
        let mut rng = SplitMix64::new(3);
        add_noise(&mut rng, &mut buf, 1e-3);
        let rx = WifiReceiver::default();
        let sync = rx.synchronize(&buf).expect("sync");
        let x = &sync.corrected;
        for (n, modu) in [
            (0usize, Modulation::Bpsk),
            (1, Modulation::Qpsk),
            (2, Modulation::Qam16),
            (3, Modulation::Qam64),
        ] {
            let at = sync.data_start + n * OFDM::SYMBOL;
            assert!(at + OFDM::SYMBOL <= x.len());
            let (ch, nv) = (&sync.channel, sync.noise_var);
            let fast = rx.demap_batched(x, at, 1, 0, ch, nv, modu);
            let nbpsc = modu.bits_per_subcarrier();
            let slow = Interleaver::new(48 * nbpsc, nbpsc)
                .deinterleave(&rx.demap_symbol_direct(x, at, 0, ch, nv, modu));
            assert_eq!(fast.len(), slow.len(), "{modu:?}");
            for (i, (a, b)) in fast.iter().zip(&slow).enumerate() {
                assert!(
                    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan()),
                    "sym {n} {modu:?} llr {i}: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn demap_payload_batched_equiv_direct() {
        // Whole-payload check of the batched FFT→equalize→demap→deinterleave
        // pipeline against the original symbol-at-a-time loop: bit-identical
        // LLR buffers at symbol counts that are NOT a multiple of the batch
        // size (both the ragged tail and the full-batch body must agree),
        // across code rates/modulations.
        let tx = WifiTransmitter::new();
        let rx = WifiReceiver::default();
        for (bytes, mcs, seed) in [
            (500usize, Mcs::Mbps24, 21u64), // nsym = 42: 2×16 + ragged 10
            (61, Mcs::Mbps6, 22),           // BPSK, small ragged count
            (97, Mcs::Mbps18, 23),          // QPSK 3/4
            (1500, Mcs::Mbps54, 24),        // 64-QAM 3/4, > 3 batches
        ] {
            let psdu: Vec<u8> = (0..bytes).map(|i| (i * 13 + 5) as u8).collect();
            let pkt = tx.transmit(&psdu, mcs, 0x5D);
            let mut buf = pkt.samples.clone();
            let mut rng = SplitMix64::new(seed);
            add_noise(&mut rng, &mut buf, 1e-3);
            let sync = rx.synchronize(&buf).expect("sync");
            let x = &sync.corrected;
            let nsym = mcs.data_symbols(bytes);
            let payload_start = sync.data_start + OFDM::SYMBOL;
            assert!(payload_start + nsym * OFDM::SYMBOL <= x.len());
            let fast = rx.demap_batched(
                x,
                payload_start,
                nsym,
                1,
                &sync.channel,
                sync.noise_var,
                mcs.modulation(),
            );
            let slow =
                rx.demap_payload_direct(x, payload_start, nsym, &sync.channel, sync.noise_var, mcs);
            assert_eq!(fast.len(), slow.len(), "{mcs:?}");
            for (i, (a, b)) in fast.iter().zip(&slow).enumerate() {
                assert!(
                    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan()),
                    "{mcs:?} nsym {nsym} llr {i}: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn multipath_loopback() {
        // Two-tap channel within the CP.
        let tx = WifiTransmitter::new();
        let psdu: Vec<u8> = (0..250).map(|i| (i ^ 0x5A) as u8).collect();
        let pkt = tx.transmit(&psdu, Mcs::Mbps24, 0x41);
        let h = [
            Complex::from_polar(1.0, 0.4),
            Complex::ZERO,
            Complex::ZERO,
            Complex::from_polar(0.4, -1.1),
        ];
        let mut buf = backfi_dsp::fir::filter(&h, &pkt.samples);
        let mut rng = SplitMix64::new(17);
        add_noise(&mut rng, &mut buf, 1e-4);
        let rx = WifiReceiver::default();
        let got = rx.receive(&buf).expect("decode through multipath");
        assert_eq!(got.psdu, psdu);
    }
}
