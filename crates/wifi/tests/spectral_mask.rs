//! Spectral sanity of the simulated 802.11g waveform: the excitation the tag
//! rides on must look like real WiFi in the frequency domain. The Welch PSD
//! estimator and its Hann window live here, next to their only user.

use backfi_dsp::fft::{fftshift, FftPlan};
use backfi_dsp::Complex;
use backfi_wifi::{Mcs, WifiTransmitter};
use std::f64::consts::PI;

/// Symmetric Hann window of length `n` (zero at both ends for `n ≥ 2`).
fn hann(n: usize) -> Vec<f64> {
    match n {
        0 => Vec::new(),
        1 => vec![1.0],
        _ => (0..n)
            .map(|i| {
                let x = i as f64 / (n as f64 - 1.0);
                0.5 - 0.5 * (2.0 * PI * x).cos()
            })
            .collect(),
    }
}

/// Welch PSD estimate of `x` over Hann-windowed `nfft`-sample segments
/// (`nfft` a power of two) overlapping by `overlap` (clamped to `[0, 0.9]`).
///
/// Returns `nfft` power values (linear, per-bin, DC first — apply
/// `fftshift` for a centred spectrum). Normalized so the sum over bins
/// equals the mean power of `x` (Parseval-consistent).
fn welch_psd(x: &[Complex], nfft: usize, overlap: f64) -> Vec<f64> {
    assert!(nfft.is_power_of_two(), "nfft must be a power of two");
    assert!(x.len() >= nfft, "signal shorter than one segment");
    let overlap = overlap.clamp(0.0, 0.9);
    let hop = ((nfft as f64) * (1.0 - overlap)).max(1.0) as usize;
    let plan = FftPlan::new(nfft);
    let win = hann(nfft);
    let win_power: f64 = win.iter().map(|w| w * w).sum::<f64>() / nfft as f64;

    let mut acc = vec![0.0f64; nfft];
    let mut segments = 0usize;
    let mut start = 0usize;
    let mut buf = vec![Complex::ZERO; nfft];
    while start + nfft <= x.len() {
        for (i, b) in buf.iter_mut().enumerate() {
            *b = x[start + i].scale(win[i]);
        }
        plan.forward(&mut buf);
        for (a, v) in acc.iter_mut().zip(&buf) {
            *a += v.norm_sqr();
        }
        segments += 1;
        start += hop;
    }
    let norm = 1.0 / (segments as f64 * nfft as f64 * nfft as f64 * win_power);
    acc.iter_mut().for_each(|a| *a *= norm);
    acc
}

/// Occupied bandwidth: the smallest set of bins, strongest first, holding
/// `fraction` of the total power, expressed in Hz for a given sample rate.
fn occupied_bandwidth(psd: &[f64], sample_rate_hz: f64, fraction: f64) -> f64 {
    let total: f64 = psd.iter().sum();
    if total <= 0.0 {
        return 0.0;
    }
    // NaN bins lose: they are keyed as −∞ so they sort last instead of
    // panicking the comparator.
    let desc_key = |v: f64| if v.is_nan() { f64::NEG_INFINITY } else { v };
    let mut idx: Vec<usize> = (0..psd.len()).collect();
    idx.sort_by(|&a, &b| desc_key(psd[b]).total_cmp(&desc_key(psd[a])));
    let mut acc = 0.0;
    let mut count = 0usize;
    for &i in &idx {
        acc += psd[i];
        count += 1;
        if acc >= fraction * total {
            break;
        }
    }
    count as f64 * sample_rate_hz / psd.len() as f64
}

#[test]
fn hann_lengths_and_edges() {
    for n in [1usize, 2, 16, 64] {
        let w = hann(n);
        assert_eq!(w.len(), n);
        assert!(w.iter().all(|v| (-1e-12..=1.0 + 1e-12).contains(v)));
    }
    // Hann endpoints are zero, peak is one (odd length)
    let w = hann(65);
    assert!(w[0].abs() < 1e-12 && w[64].abs() < 1e-12);
    assert!((w[32] - 1.0).abs() < 1e-12);
}

#[test]
fn hann_symmetry() {
    let w = hann(33);
    for i in 0..w.len() {
        assert!((w[i] - w[w.len() - 1 - i]).abs() < 1e-12);
    }
}

#[test]
fn hann_empty_and_single() {
    assert!(hann(0).is_empty());
    assert_eq!(hann(1), vec![1.0]);
}

#[test]
fn white_noise_is_flat_and_parseval_consistent() {
    let mut rng = backfi_dsp::rng::SplitMix64::new(1);
    let x = backfi_dsp::noise::cgauss_vec(&mut rng, 64 * 200, 2.0);
    let psd = welch_psd(&x, 64, 0.5);
    let total: f64 = psd.iter().sum();
    let p = backfi_dsp::stats::mean_power(&x);
    assert!((total / p - 1.0).abs() < 0.1, "total {total} vs power {p}");
    // Flatness: no bin more than 3x the mean.
    let mean = total / 64.0;
    for (i, v) in psd.iter().enumerate() {
        assert!(*v < mean * 3.0, "bin {i} sticks out");
    }
}

#[test]
fn tone_concentrates_in_one_bin() {
    let f = 5.0 / 64.0; // exactly bin 5
    let x: Vec<Complex> = (0..6400)
        .map(|n| Complex::exp_j(std::f64::consts::TAU * f * n as f64))
        .collect();
    let psd = welch_psd(&x, 64, 0.5);
    let peak = psd
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .unwrap()
        .0;
    assert_eq!(peak, 5);
    // ≥80 % of power within the peak ±1 bins (Hann spreads a little).
    let total: f64 = psd.iter().sum();
    let local: f64 = psd[4..=6].iter().sum();
    assert!(local / total > 0.8, "{}", local / total);
}

#[test]
fn occupied_bandwidth_of_a_tone_is_narrow() {
    let x: Vec<Complex> = (0..6400).map(|n| Complex::exp_j(0.7 * n as f64)).collect();
    let psd = welch_psd(&x, 128, 0.5);
    let bw = occupied_bandwidth(&psd, 20e6, 0.9);
    assert!(bw < 1e6, "tone bandwidth {bw}");
}

#[test]
fn ofdm_occupies_the_loaded_subcarriers() {
    let tx = WifiTransmitter::new();
    let pkt = tx.transmit(&vec![0xA7; 1500], Mcs::Mbps24, 0x5D);
    let psd = welch_psd(&pkt.samples, 64, 0.5);
    // 90 % of power inside ≈52/64 · 20 MHz = 16.25 MHz.
    let bw = occupied_bandwidth(&psd, 20e6, 0.90);
    assert!(bw > 12e6 && bw < 18e6, "occupied bandwidth {bw}");
}

#[test]
fn guard_bands_are_quiet() {
    let tx = WifiTransmitter::new();
    let pkt = tx.transmit(&vec![0x3C; 1500], Mcs::Mbps54, 0x11);
    let psd = fftshift(&welch_psd(&pkt.samples, 64, 0.5));
    // Centred spectrum: bins 0..4 and 60..64 are the deep guard band
    // (|k| > 28 of 32), loaded region is bins 6..58.
    let guard: f64 = psd[..4].iter().chain(psd[60..].iter()).sum::<f64>() / 8.0;
    let loaded: f64 = psd[8..56].iter().sum::<f64>() / 48.0;
    let ratio_db = 10.0 * (loaded / guard).log10();
    // Welch with a 64-bin Hann window leaks ~-15 dB into adjacent bins, so
    // the measurable null depth is bounded; 12 dB clearly separates loaded
    // from guard spectrum at this resolution.
    assert!(ratio_db > 12.0, "guard suppression only {ratio_db:.1} dB");
}

#[test]
fn all_rates_share_the_same_occupancy() {
    let tx = WifiTransmitter::new();
    let mut bws = Vec::new();
    for mcs in [Mcs::Mbps6, Mcs::Mbps24, Mcs::Mbps54] {
        let pkt = tx.transmit(&vec![1u8; 800], mcs, 0x2F);
        let psd = welch_psd(&pkt.samples, 64, 0.5);
        bws.push(occupied_bandwidth(&psd, 20e6, 0.9));
    }
    let spread = bws.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
        - bws.iter().cloned().fold(f64::INFINITY, f64::min);
    assert!(spread < 2e6, "occupancy should not depend on MCS: {bws:?}");
}
