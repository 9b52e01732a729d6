//! # backfi-dsp
//!
//! Complex-baseband DSP primitives used throughout the BackFi reproduction.
//!
//! The BackFi system (SIGCOMM 2015) operates on 20 MHz complex baseband
//! samples. This crate provides the numeric substrate for every other crate in
//! the workspace:
//!
//! * [`Complex`] — complex arithmetic (the `num-complex` crate is not on the
//!   offline allowlist, so we implement it ourselves),
//! * [`fft`] — an iterative radix-2 FFT/IFFT for OFDM modulation,
//! * [`fir`] — direct-form FIR filtering and convolution (channels,
//!   cancellers; every link impulse response is ≤ 32 taps),
//! * [`correlate`] — cross/auto-correlation and peak search (synchronization),
//! * [`window`] — window functions,
//! * [`stats`] — power/SNR/EVM measurement and dB conversions,
//! * [`noise`] — deterministic complex Gaussian noise generation,
//! * [`rng`] — the seedable SplitMix64 generator behind all randomness,
//! * [`spectrum`] — Welch PSD estimation (waveform sanity checks),
//! * [`simd`] — runtime backend detection for the dispatched kernels,
//! * [`soa`] — structure-of-arrays planar kernels for the receive hot paths
//!   (802.11 equalization, cross-correlation).
//!
//! Everything is `f64`: the simulation favours numerical fidelity over
//! throughput, and the wall-clock benches show the pipelines are still fast
//! enough to sweep the paper's full parameter space.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod complex;
pub mod correlate;
pub mod fft;
pub mod fir;
pub mod noise;
pub mod rng;
pub mod simd;
pub mod soa;
pub mod spectrum;
pub mod stats;
pub mod window;

pub use complex::Complex;

/// Shorthand for the sample type used across the workspace: `f64` complex.
pub type Cf64 = Complex;

/// The baseband sampling rate used by the whole system: 20 MHz (one sample
/// per 50 ns), matching a 20 MHz-wide 802.11g channel.
pub const SAMPLE_RATE_HZ: f64 = 20.0e6;

/// Duration of one baseband sample in seconds (50 ns at 20 MHz).
pub const SAMPLE_DT_S: f64 = 1.0 / SAMPLE_RATE_HZ;

/// Convert a duration in microseconds to a whole number of baseband samples.
///
/// ```
/// assert_eq!(backfi_dsp::us_to_samples(16.0), 320);
/// ```
pub fn us_to_samples(us: f64) -> usize {
    (us * 1e-6 * SAMPLE_RATE_HZ).round() as usize
}

/// Convert a number of baseband samples to microseconds.
///
/// ```
/// assert!((backfi_dsp::samples_to_us(320) - 16.0).abs() < 1e-9);
/// ```
pub fn samples_to_us(n: usize) -> f64 {
    n as f64 * SAMPLE_DT_S * 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_time_roundtrip() {
        for us in [1.0, 4.0, 16.0, 32.0, 96.0, 1000.0] {
            let n = us_to_samples(us);
            assert!((samples_to_us(n) - us).abs() < 1e-6, "us={us}");
        }
    }

    #[test]
    fn twenty_megahertz() {
        assert_eq!(us_to_samples(1.0), 20);
        assert_eq!(us_to_samples(0.05), 1);
    }
}
