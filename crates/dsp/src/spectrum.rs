//! Power spectral density estimation (Welch's method).
//!
//! Used to sanity-check the simulated waveforms: the 802.11g excitation must
//! occupy its 16.6 MHz of loaded subcarriers and respect the transmit
//! spectral mask, and the tag's backscatter is a spectrum-shifted copy whose
//! occupancy the tests verify.

use crate::fft::FftPlan;
use crate::window::hann;
use crate::Complex;

/// Welch PSD estimate.
///
/// * `x` — input samples,
/// * `nfft` — segment/FFT size (power of two),
/// * `overlap` — fraction of segment overlap in `[0, 0.9]`.
///
/// Returns `nfft` power values (linear, per-bin, DC first — apply
/// [`crate::fft::fftshift`] for a centred spectrum). Normalized so the sum
/// over bins equals the mean power of `x` (Parseval-consistent).
///
/// # Panics
/// Panics if `nfft` is not a power of two or `x.len() < nfft`.
pub fn welch_psd(x: &[Complex], nfft: usize, overlap: f64) -> Vec<f64> {
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

/// Occupied bandwidth: the smallest symmetric-around-peak set of bins holding
/// `fraction` of the total power, expressed in Hz for a given sample rate.
pub fn occupied_bandwidth(psd: &[f64], sample_rate_hz: f64, fraction: f64) -> f64 {
    let total: f64 = psd.iter().sum();
    if total <= 0.0 {
        return 0.0;
    }
    // Sort bins by power (descending), accumulate until the fraction is
    // reached. NaN bins lose: they are keyed as −∞ so they sort last instead
    // of panicking the comparator.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fft::fftshift;
    use crate::noise::cgauss_vec;
    use crate::rng::SplitMix64;
    use crate::stats::mean_power;

    #[test]
    fn white_noise_is_flat_and_parseval_consistent() {
        let mut rng = SplitMix64::new(1);
        let x = cgauss_vec(&mut rng, 64 * 200, 2.0);
        let psd = welch_psd(&x, 64, 0.5);
        let total: f64 = psd.iter().sum();
        let p = mean_power(&x);
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
    fn fftshift_centres_spectrum() {
        let psd = vec![1.0, 0.0, 0.0, 9.0];
        let centred = fftshift(&psd);
        assert_eq!(centred, vec![0.0, 9.0, 1.0, 0.0]);
    }
}
