//! Receiver front end: ADC quantization and saturation.
//!
//! The reason BackFi needs an *analog* cancellation stage at all (§4.2) is
//! the ADC: "Analog cancellation is necessary to ensure that the receiver's
//! ADC is not saturated by self-interference which would drown out the weak
//! backscatter signal before being received in baseband." This module models
//! that constraint — a finite-resolution, finite-full-scale converter. The
//! self-interference canceller digitizes the post-analog signal with it, at
//! a full scale set by its AGC.

use backfi_dsp::Complex;
use std::ops::Range;

/// The samples at a receiver's input port, as a stream the receiver pulls
/// in order: a source may simulate its samples only when they are first
/// asked for, so a receiver that stops reading early never pays for the
/// rest of the packet. A slice is a source that is already complete.
pub trait RxSource {
    /// Length of the whole packet in samples.
    fn packet_len(&self) -> usize;

    /// A prefix of the packet of at least `end.min(packet_len())` samples.
    /// A prefix never changes once pulled: a longer one extends it.
    fn pull(&mut self, end: usize) -> &[Complex];
}

impl RxSource for &[Complex] {
    fn packet_len(&self) -> usize {
        self.len()
    }

    fn pull(&mut self, _end: usize) -> &[Complex] {
        self
    }
}

/// A complex ADC pair (I and Q converters).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Adc {
    /// Bits of resolution per axis (WARP's AD9963 is 12-bit).
    pub bits: u32,
    /// Full-scale amplitude per axis in simulator units.
    pub full_scale: f64,
}

impl Default for Adc {
    fn default() -> Self {
        // 12-bit converter whose full scale is set so the AGC'd residual
        // after analog cancellation fits comfortably.
        Adc {
            bits: 12,
            full_scale: 1.0e-2,
        }
    }
}

impl Adc {
    /// Quantization step per axis.
    pub fn step(&self) -> f64 {
        2.0 * self.full_scale / (1u64 << self.bits) as f64
    }

    /// Quantization noise power (per complex sample, both axes): `2·Δ²/12`.
    pub fn quantization_noise_power(&self) -> f64 {
        let d = self.step();
        2.0 * d * d / 12.0
    }

    /// Convert a block in place: clip each axis to full scale, then round to
    /// the quantization grid (half away from zero).
    ///
    /// One body, compiled twice: for the AVX2 backend, where LLVM lowers
    /// `f64::round` to `vroundpd` plus a half-away fixup instead of a libm
    /// call per component, and for the baseline target (`BACKFI_SIMD=off`,
    /// off x86-64). Both round every input, NaN, ±∞ and the sign of zero
    /// included, to the same bits.
    pub fn quantize(&self, x: &mut [Complex]) {
        #[cfg(target_arch = "x86_64")]
        if backfi_dsp::simd::backend() == backfi_dsp::simd::Backend::Avx2 {
            // SAFETY: AVX2 presence established by runtime detection.
            unsafe { self.quantize_avx2(x) };
            return;
        }
        self.quantize_body(x);
    }

    /// [`Adc::quantize`]'s body compiled with AVX2 enabled.
    ///
    /// # Safety
    /// AVX2 must be available.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn quantize_avx2(&self, x: &mut [Complex]) {
        self.quantize_body(x);
    }

    #[inline(always)]
    fn quantize_body(&self, x: &mut [Complex]) {
        let d = self.step();
        for v in x {
            *v = Complex::new(
                (v.re.clamp(-self.full_scale, self.full_scale) / d).round() * d,
                (v.im.clamp(-self.full_scale, self.full_scale) / d).round() * d,
            );
        }
    }

    /// Scan `x[from..]` for samples that hit the rails (the saturation
    /// indicator an AGC watches): appends the maximal runs of consecutive
    /// clipped samples to `runs`, in absolute indices, merging the first
    /// with a run of `runs` that ends at `from`, and returns how many
    /// samples clipped. A scan in extending prefixes thus yields the runs
    /// of one scan over the whole.
    pub fn clip_scan(&self, x: &[Complex], from: usize, runs: &mut Vec<Range<usize>>) -> usize {
        let mut clipped = 0usize;
        for (i, v) in x.iter().enumerate().skip(from) {
            if v.re.abs() >= self.full_scale || v.im.abs() >= self.full_scale {
                clipped += 1;
                match runs.last_mut() {
                    Some(r) if r.end == i => r.end = i + 1,
                    _ => runs.push(i..i + 1),
                }
            }
        }
        clipped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use backfi_dsp::noise::cgauss_vec;
    use backfi_dsp::rng::SplitMix64;
    use backfi_dsp::stats::mean_power;

    #[test]
    fn small_signals_survive() {
        let adc = Adc {
            bits: 12,
            full_scale: 1.0,
        };
        let x = Complex::new(0.5, -0.25);
        let mut y = [x];
        adc.quantize(&mut y);
        assert!((x - y[0]).abs() < adc.step());
    }

    #[test]
    fn saturation_clips() {
        let adc = Adc {
            bits: 12,
            full_scale: 1.0,
        };
        let mut y = [Complex::new(5.0, -7.0)];
        adc.quantize(&mut y);
        assert!((y[0].re - 1.0).abs() < 1e-9);
        assert!((y[0].im + 1.0).abs() < 1e-9);
    }

    #[test]
    fn quantization_noise_matches_model() {
        let adc = Adc {
            bits: 10,
            full_scale: 1.0,
        };
        let mut rng = SplitMix64::new(1);
        // Uniform-ish complex signal well inside full scale.
        let x = cgauss_vec(&mut rng, 100_000, 0.05);
        let mut y = x.clone();
        adc.quantize(&mut y);
        let err: Vec<Complex> = x.iter().zip(&y).map(|(a, b)| *a - *b).collect();
        let measured = mean_power(&err);
        let model = adc.quantization_noise_power();
        assert!(
            (measured / model - 1.0).abs() < 0.15,
            "measured {measured:e} model {model:e}"
        );
    }

    /// The AVX2 and the baseline build of `quantize` agree bit for bit on
    /// the rounding edge cases: signed zeros (an input in (−½Δ, 0) rounds to
    /// `−0`), exact half-steps either side of zero, both rails and beyond,
    /// ±∞, NaN (which stays NaN), subnormals, and a Gaussian block long
    /// enough for the vector body and its tail.
    #[test]
    fn quantize_is_bit_identical_on_every_backend() {
        use backfi_dsp::simd::{backend, force_scalar, Backend};
        let adc = Adc {
            bits: 12,
            full_scale: 1.0,
        };
        let d = adc.step();
        let mut edges = vec![
            0.0,
            -0.0,
            0.25 * d,
            -0.25 * d,
            0.5 * d,
            -0.5 * d,
            1.5 * d,
            -1.5 * d,
            2.5 * d,
            -2.5 * d,
            0.5 * d - f64::EPSILON * d,
            -(0.5 * d - f64::EPSILON * d),
            1.0,
            -1.0,
            1.0 - 0.5 * d,
            -1.0 + 0.5 * d,
            3.0,
            -3.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
            5e-324,
            -5e-324,
        ];
        let mut rng = SplitMix64::new(0xADC);
        edges.extend(
            cgauss_vec(&mut rng, 1000, 0.3)
                .iter()
                .flat_map(|c| [c.re, c.im]),
        );
        let mut x: Vec<Complex> = edges
            .iter()
            .flat_map(|&a| edges.iter().take(24).map(move |&b| Complex::new(a, b)))
            .collect();
        x.push(Complex::new(-0.3 * d, 0.3 * d));
        let was_scalar = backend() == Backend::Scalar;
        let mut fast = x.clone();
        adc.quantize(&mut fast);
        force_scalar(true);
        let mut scalar = x.clone();
        adc.quantize(&mut scalar);
        force_scalar(was_scalar);
        for ((a, b), v) in fast.iter().zip(&scalar).zip(&x) {
            for (p, q, i) in [(a.re, b.re, v.re), (a.im, b.im, v.im)] {
                assert!(
                    p.to_bits() == q.to_bits() || (p.is_nan() && q.is_nan()),
                    "input {i:e}: {p:e} vs {q:e}"
                );
                assert_eq!(p.is_nan(), i.is_nan(), "input {i:e}");
            }
        }
        let z = scalar.last().unwrap();
        assert!(z.re.to_bits() == (-0.0f64).to_bits() && z.im.to_bits() == 0);
    }

    #[test]
    fn clip_fraction_detects_overdrive() {
        let adc = Adc {
            bits: 8,
            full_scale: 0.1,
        };
        let scan = |x: &[Complex]| {
            let mut runs = Vec::new();
            (adc.clip_scan(x, 0, &mut runs), runs)
        };
        let quiet = vec![Complex::new(0.01, 0.0); 100];
        assert_eq!(scan(&quiet), (0, Vec::new()));
        let loud = vec![Complex::new(1.0, 0.0); 100];
        let (clipped, runs) = scan(&loud);
        assert_eq!(
            (clipped, runs.len(), runs.first()),
            (100, 1, Some(&(0..100)))
        );
        let mut bursts = quiet.clone();
        bursts[3] = Complex::new(0.0, -0.2);
        bursts[10..13].fill(Complex::new(0.5, 0.0));
        assert_eq!(scan(&bursts), (4, vec![3..4, 10..13]));
        // In extending prefixes, a run cut at a prefix end is merged.
        let mut runs = Vec::new();
        let mut clipped = 0;
        for (from, to) in [(0, 4), (4, 11), (11, 100)] {
            clipped += adc.clip_scan(&bursts[..to], from, &mut runs);
        }
        assert_eq!((clipped, runs), scan(&bursts));
    }

    #[test]
    fn uncancelled_si_saturates_default_adc() {
        // The paper's premise: without analog cancellation, 0 dBm of leakage
        // saturates a converter scaled for microwatt residues.
        let adc = Adc::default();
        let si = vec![Complex::new(0.7, 0.7); 64]; // ~0 dBm leakage
        assert_eq!(adc.clip_scan(&si, 0, &mut Vec::new()), si.len());
    }
}
