//! FIR filtering and linear convolution.
//!
//! Channels in this workspace (the environmental self-interference path
//! `h_env`, the forward/backward tag channels `h_f`, `h_b`, and the cancelling
//! filters) are all modelled as complex FIR impulse responses, so linear
//! convolution is the single most-used kernel in the simulator.
//!
//! Every impulse response the link runs is short (≤ 32 taps: the channels'
//! delay spread is a few samples at 20 MS/s), so [`filter`] and [`convolve`]
//! have one direct O(n·m) form with two bodies (DESIGN.md §8): the AVX2
//! gather kernel, and the scalar scatter loop of [`filter_direct`] and
//! [`convolve_direct`]. The gather kernel keeps eight outputs in registers
//! across the taps and is bit-identical to the scatter loop (see the proof
//! on `gather`); the scatter loop is both the reference oracle and the
//! portable fallback.

use crate::Complex;
use core::mem::MaybeUninit;

/// Convolution output-length mode, mirroring NumPy's `mode` argument.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConvMode {
    /// Full convolution, output length `n + m − 1`.
    Full,
    /// Central part, output length `max(n, m)`.
    Same,
    /// Only samples where the signals fully overlap, length `max(n,m) − min(n,m) + 1`.
    Valid,
}

#[cfg(target_arch = "x86_64")]
mod gather {
    //! AVX2 gather form of the direct FIR: each output is accumulated in
    //! registers as `acc ← acc + x[j−k]·h[k]` for `k` descending, eight
    //! outputs per step in four `__m256d` of two complex lanes each.
    //!
    //! **Bit-identical to the scalar scatter loop** (`scatter`) when every
    //! tap is finite. That loop visits inputs in ascending order, so
    //! each output receives its terms for `k` descending, starting from `+0`,
    //! each term rounded as `Complex::mul` rounds it, with inputs equal to
    //! zero skipped. This kernel makes the same adds in the same order —
    //! `re = xr·hr − xi·hi` and `im = xi·hr + xr·hi` through `mul`, `mul`,
    //! `addsub`, then `acc + term`, no FMA; the imaginary sum's operands are
    //! swapped, which IEEE addition makes value-identical — but it does not
    //! skip zero inputs.
    //! With finite taps a skipped term is `±0`, and an accumulator that
    //! starts at `+0` is never `−0` (an IEEE sum is `−0` only when both
    //! operands are), so adding the term changes no bit, NaN and ∞
    //! accumulators included. A non-finite tap would turn a zero input into
    //! `0·∞ = NaN`, so such calls stay on the scalar loop. As everywhere in
    //! this crate (see `soa`'s module docs), the sign and payload of a NaN
    //! output are unspecified: when two NaNs meet in one add, which one
    //! propagates depends on how LLVM orders the operands, in the scalar
    //! loop too. A NaN output of one form is a NaN output of the other.
    use super::Complex;
    use core::arch::x86_64::*;
    use core::mem::MaybeUninit;

    /// One output in gather order, over the taps whose input exists.
    #[inline(always)]
    fn one(h: &[Complex], x: &[Complex], j: usize) -> Complex {
        let mut acc = Complex::ZERO;
        for k in ((j + 1).saturating_sub(x.len())..=j.min(h.len() - 1)).rev() {
            acc += x[j - k] * h[k];
        }
        acc
    }

    /// Writes `y[j] = Σ_k x[j−k]·h[k]`, inputs outside `x` absent, for every
    /// `j < y.len()`; `y.len()` is `x.len()` for the causal filter and
    /// `x.len() + h.len() − 1` for the full convolution. `h` must be
    /// non-empty.
    ///
    /// # Safety
    /// AVX2 must be available.
    #[target_feature(enable = "avx2")]
    pub unsafe fn fir(h: &[Complex], x: &[Complex], y: &mut [MaybeUninit<Complex>]) {
        let (m, n) = (h.len(), x.len());
        // The vector body reads x[j−k..j+8] and writes y[j..j+8].
        let body_end = n.min(y.len());
        let xp = x.as_ptr() as *const f64;
        let yp = y.as_mut_ptr() as *mut f64;
        // Head: outputs whose longest-delay taps reach before x[0].
        let mut j = 0;
        while j < y.len().min(m - 1) {
            y[j].write(one(h, x, j));
            j += 1;
        }
        // Body: eight outputs whose every tap has its input in `x`.
        while j + 8 <= body_end {
            let mut acc = [_mm256_setzero_pd(); 4];
            for k in (0..m).rev() {
                let hr = _mm256_set1_pd(h[k].re);
                let hi = _mm256_set1_pd(h[k].im);
                // SAFETY (with the loads and stores below): j ≥ m − 1 ≥ k
                // after the head, and j + 8 ≤ body_end bounds both slices.
                let p = xp.add(2 * (j - k));
                for (v, a) in acc.iter_mut().enumerate() {
                    // The input pair x[j−k+2v], x[j−k+2v+1] as
                    // [xr, xi, xr', xi'], and re/im-swapped.
                    let xv = _mm256_loadu_pd(p.add(4 * v));
                    let xs = _mm256_permute_pd(xv, 0b0101);
                    // addsub: even lanes xr·hr − xi·hi, odd lanes
                    // xi·hr + xr·hi.
                    let term = _mm256_addsub_pd(_mm256_mul_pd(xv, hr), _mm256_mul_pd(xs, hi));
                    *a = _mm256_add_pd(*a, term);
                }
            }
            for (v, a) in acc.iter().enumerate() {
                _mm256_storeu_pd(yp.add(2 * j + 4 * v), *a);
            }
            j += 8;
        }
        // Tail: the last outputs, and the convolution's ramp-down.
        while j < y.len() {
            y[j].write(one(h, x, j));
            j += 1;
        }
    }
}

/// Runs the AVX2 gather kernel into `y`, writing every element, and returns
/// true — or returns false with `y` untouched when the scalar loop must run:
/// on the `Scalar` backend, off x86-64, or when a tap is not finite.
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
fn try_gather(h: &[Complex], x: &[Complex], y: &mut [MaybeUninit<Complex>]) -> bool {
    #[cfg(target_arch = "x86_64")]
    if crate::simd::backend() == crate::simd::Backend::Avx2
        && h.iter().all(|t| t.re.is_finite() && t.im.is_finite())
    {
        // SAFETY: AVX2 presence established by runtime detection.
        unsafe { gather::fir(h, x, y) };
        return true;
    }
    false
}

/// The direct form into a caller-owned buffer: `y` is cleared and refilled
/// with `len` outputs (`x.len()` for [`filter`], `x.len() + h.len() − 1`
/// for a full [`convolve`]), reusing its capacity. Takes the gather kernel
/// where [`try_gather`] allows and the scalar scatter loop otherwise.
fn direct_into(h: &[Complex], x: &[Complex], len: usize, y: &mut Vec<Complex>) {
    if y.capacity() < len {
        // A fresh buffer: growing the old one would copy its contents.
        *y = Vec::with_capacity(len);
    }
    y.clear();
    if try_gather(h, x, &mut y.spare_capacity_mut()[..len]) {
        // SAFETY: the gather kernel initialized all `len` elements.
        unsafe { y.set_len(len) };
    } else {
        y.resize(len, Complex::ZERO);
        scatter(h, x, y);
    }
}

/// Slice a full convolution down to the requested [`ConvMode`].
fn apply_mode(full: Vec<Complex>, n: usize, m: usize, mode: ConvMode) -> Vec<Complex> {
    let full_len = n + m - 1;
    debug_assert_eq!(full.len(), full_len);
    match mode {
        ConvMode::Full => full,
        ConvMode::Same => {
            let out_len = n.max(m);
            let start = (full_len - out_len) / 2;
            full[start..start + out_len].to_vec()
        }
        ConvMode::Valid => {
            let out_len = n.max(m) - n.min(m) + 1;
            let start = n.min(m) - 1;
            full[start..start + out_len].to_vec()
        }
    }
}

/// Linear convolution of `x` with `h`: the direct O(n·m) form, bit-identical
/// to [`convolve_direct`] (the AVX2 gather kernel on the AVX2 backend with
/// finite taps, the scalar scatter loop otherwise).
///
/// # Panics
/// Panics if either input is empty.
pub fn convolve(x: &[Complex], h: &[Complex], mode: ConvMode) -> Vec<Complex> {
    assert!(!x.is_empty() && !h.is_empty(), "convolve: empty input");
    let (n, m) = (x.len(), h.len());
    let mut full = Vec::new();
    direct_into(h, x, n + m - 1, &mut full);
    apply_mode(full, n, m, mode)
}

/// The scalar scatter loop of [`convolve`]: the reference implementation for
/// the equivalence tests and the kernel benches.
///
/// # Panics
/// Panics if either input is empty.
pub fn convolve_direct(x: &[Complex], h: &[Complex], mode: ConvMode) -> Vec<Complex> {
    assert!(!x.is_empty() && !h.is_empty(), "convolve: empty input");
    let (n, m) = (x.len(), h.len());
    let mut full = vec![Complex::ZERO; n + m - 1];
    scatter(h, x, &mut full);
    apply_mode(full, n, m, mode)
}

/// Causal FIR application: `y[i] = Σ_k h[k] x[i−k]`, with `x[j]=0` for `j<0`,
/// output the same length as `x`. This is the "signal goes through a channel"
/// operation — the convolution tail beyond the input length is dropped.
///
/// Allocating wrapper over [`filter_into`].
pub fn filter(h: &[Complex], x: &[Complex]) -> Vec<Complex> {
    let mut y = Vec::new();
    filter_into(h, x, &mut y);
    y
}

/// [`filter`] into a caller-owned buffer: `y` is cleared and refilled with
/// `x.len()` outputs, reusing its capacity, so a caller that keeps `y`
/// across calls allocates nothing.
///
/// The output comes from one of two bodies, both bit-identical to
/// [`filter_direct`]: the AVX2 gather kernel, or the scalar scatter loop
/// itself on the `Scalar` backend (`BACKFI_SIMD=off`), off x86-64, and
/// whenever a tap is NaN or ∞.
pub fn filter_into(h: &[Complex], x: &[Complex], y: &mut Vec<Complex>) {
    assert!(!h.is_empty(), "filter: empty impulse response");
    direct_into(h, x, x.len(), y);
}

/// The scalar scatter loop of [`filter`]: the reference implementation for
/// the equivalence tests and benches.
///
/// # Panics
/// Panics if `h` is empty.
pub fn filter_direct(h: &[Complex], x: &[Complex]) -> Vec<Complex> {
    assert!(!h.is_empty(), "filter: empty impulse response");
    let mut y = vec![Complex::ZERO; x.len()];
    scatter(h, x, &mut y);
    y
}

/// The scalar scatter loop behind [`filter_direct`] and [`convolve_direct`]:
/// `y[i + k] += x[i]·h[k]` for every nonzero input, truncated at `y.len()`.
/// `y` must be zeros, `x.len()` long for the causal filter or
/// `x.len() + h.len() − 1` for the full convolution.
fn scatter(h: &[Complex], x: &[Complex], y: &mut [Complex]) {
    for (i, &xi) in x.iter().enumerate() {
        if xi == Complex::ZERO {
            continue;
        }
        let kmax = h.len().min(y.len() - i);
        for k in 0..kmax {
            y[i + k] += xi * h[k];
        }
    }
}

/// A stateful streaming FIR filter.
///
/// Keeps a delay line between calls so a long signal can be filtered in
/// chunks — used by the receiver front end and the digital canceller, which
/// process the packet as it "arrives".
#[derive(Clone, Debug)]
pub struct FirFilter {
    taps: Vec<Complex>,
    /// Circular delay line holding the most recent `taps.len()−1` inputs.
    state: Vec<Complex>,
    pos: usize,
}

impl FirFilter {
    /// Create a streaming filter with the given taps (`taps[0]` is the
    /// zero-delay tap).
    ///
    /// # Panics
    /// Panics if `taps` is empty.
    pub fn new(taps: Vec<Complex>) -> Self {
        assert!(!taps.is_empty(), "FirFilter: empty taps");
        let len = taps.len();
        FirFilter {
            taps,
            state: vec![Complex::ZERO; len],
            pos: 0,
        }
    }

    /// Number of taps.
    pub fn order(&self) -> usize {
        self.taps.len()
    }

    /// Borrow the taps.
    pub fn taps(&self) -> &[Complex] {
        &self.taps
    }

    /// Reset the delay line to zeros.
    pub fn reset(&mut self) {
        self.state.iter_mut().for_each(|v| *v = Complex::ZERO);
        self.pos = 0;
    }

    /// Push one sample, get one output sample.
    #[inline]
    pub fn push(&mut self, x: Complex) -> Complex {
        let n = self.state.len();
        self.state[self.pos] = x;
        let mut acc = Complex::ZERO;
        let mut idx = self.pos;
        for &t in &self.taps {
            acc += t * self.state[idx];
            idx = if idx == 0 { n - 1 } else { idx - 1 };
        }
        self.pos = (self.pos + 1) % n;
        acc
    }

    /// Filter a whole block, preserving state across calls.
    pub fn process(&mut self, x: &[Complex]) -> Vec<Complex> {
        x.iter().map(|&v| self.push(v)).collect()
    }
}

/// Design a real lowpass FIR by the windowed-sinc method.
///
/// `cutoff` is the normalized cutoff in cycles/sample (0 < cutoff < 0.5);
/// `ntaps` should be odd for a symmetric (linear-phase) filter. Returns real
/// taps as `Complex` with zero imaginary parts, normalized to unit DC gain.
///
/// # Panics
/// Panics if `cutoff` is outside (0, 0.5) or `ntaps == 0`.
pub fn lowpass_taps(ntaps: usize, cutoff: f64) -> Vec<Complex> {
    assert!(ntaps > 0, "lowpass_taps: ntaps must be positive");
    assert!(cutoff > 0.0 && cutoff < 0.5, "cutoff must lie in (0, 0.5)");
    let mid = (ntaps as f64 - 1.0) / 2.0;
    let mut taps: Vec<f64> = (0..ntaps)
        .map(|i| {
            let t = i as f64 - mid;
            let sinc = if t.abs() < 1e-12 {
                2.0 * cutoff
            } else {
                (2.0 * std::f64::consts::PI * cutoff * t).sin() / (std::f64::consts::PI * t)
            };
            // Hamming window
            let w = 0.54
                - 0.46
                    * (2.0 * std::f64::consts::PI * i as f64 / (ntaps as f64 - 1.0).max(1.0)).cos();
            sinc * w
        })
        .collect();
    let sum: f64 = taps.iter().sum();
    taps.iter_mut().for_each(|t| *t /= sum);
    taps.into_iter().map(Complex::real).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(re: f64) -> Complex {
        Complex::real(re)
    }

    #[test]
    fn filter_into_reuses_a_dirty_buffer_bitwise() {
        // Both bodies (gather, scalar fallback) must overwrite a reused
        // buffer completely, whether it is longer or shorter.
        let mut rng = crate::rng::SplitMix64::new(0x51);
        let mut y = vec![Complex::new(f64::NAN, 7.0); 9000];
        for (taps, n) in [
            (2, 5000),
            (16, 300),
            (40, 4000),
            (64, 8192),
            (3, 10),
            (5, 700),
        ] {
            let mut h = crate::noise::cgauss_vec(&mut rng, taps, 1.0);
            if taps == 5 {
                h[1].im = f64::INFINITY; // takes the scalar fallback
            }
            let mut x = crate::noise::cgauss_vec(&mut rng, n, 1.0);
            x[n / 2] = Complex::ZERO;
            filter_into(&h, &x, &mut y);
            let want = filter(&h, &x);
            assert_eq!(y.len(), want.len());
            for (a, b) in y.iter().zip(&want) {
                assert_eq!(
                    (a.re.to_bits(), a.im.to_bits()),
                    (b.re.to_bits(), b.im.to_bits())
                );
            }
        }
    }

    #[test]
    fn full_convolution_known_answer() {
        let x = [c(1.0), c(2.0), c(3.0)];
        let h = [c(1.0), c(1.0)];
        let y = convolve(&x, &h, ConvMode::Full);
        let expect = [1.0, 3.0, 5.0, 3.0];
        assert_eq!(y.len(), 4);
        for (a, b) in y.iter().zip(expect) {
            assert!((a.re - b).abs() < 1e-12 && a.im.abs() < 1e-12);
        }
    }

    #[test]
    fn same_mode_length() {
        let x = vec![c(1.0); 10];
        let h = vec![c(1.0); 3];
        assert_eq!(convolve(&x, &h, ConvMode::Same).len(), 10);
    }

    #[test]
    fn valid_mode_length() {
        let x = vec![c(1.0); 10];
        let h = vec![c(1.0); 3];
        let y = convolve(&x, &h, ConvMode::Valid);
        assert_eq!(y.len(), 8);
        for v in y {
            assert!((v.re - 3.0).abs() < 1e-12);
        }
    }

    #[test]
    fn identity_impulse() {
        let x: Vec<Complex> = (0..20)
            .map(|i| Complex::new(i as f64, -(i as f64)))
            .collect();
        let h = [Complex::ONE];
        assert_eq!(filter(&h, &x), x);
    }

    #[test]
    fn delay_impulse() {
        let x: Vec<Complex> = (0..5).map(|i| c(i as f64 + 1.0)).collect();
        let h = [Complex::ZERO, Complex::ONE]; // one-sample delay
        let y = filter(&h, &x);
        assert!((y[0].abs()) < 1e-12);
        for i in 1..5 {
            assert!((y[i] - x[i - 1]).abs() < 1e-12);
        }
    }

    #[test]
    fn filter_matches_truncated_convolution() {
        let x: Vec<Complex> = (0..30)
            .map(|i| Complex::new((i as f64).sin(), (i as f64).cos()))
            .collect();
        let h: Vec<Complex> = (0..4)
            .map(|i| Complex::new(0.5f64.powi(i), 0.1 * i as f64))
            .collect();
        let full = convolve(&x, &h, ConvMode::Full);
        let y = filter(&h, &x);
        for i in 0..x.len() {
            assert!((y[i] - full[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn streaming_matches_block() {
        let x: Vec<Complex> = (0..50)
            .map(|i| Complex::new((i as f64 * 0.3).sin(), 0.2))
            .collect();
        let h: Vec<Complex> = vec![c(0.5), c(-0.25), Complex::new(0.0, 0.125)];
        let block = filter(&h, &x);
        let mut f = FirFilter::new(h);
        // process in uneven chunks
        let mut out = Vec::new();
        out.extend(f.process(&x[..7]));
        out.extend(f.process(&x[7..23]));
        out.extend(f.process(&x[23..]));
        for (a, b) in out.iter().zip(&block) {
            assert!((*a - *b).abs() < 1e-12);
        }
    }

    #[test]
    fn fir_reset_clears_state() {
        let h: Vec<Complex> = vec![c(1.0), c(1.0)];
        let mut f = FirFilter::new(h);
        f.push(c(5.0));
        f.reset();
        assert!((f.push(c(1.0)) - c(1.0)).abs() < 1e-12);
    }

    #[test]
    fn lowpass_dc_gain_is_one() {
        let taps = lowpass_taps(31, 0.2);
        let dc: Complex = taps.iter().sum();
        assert!((dc.re - 1.0).abs() < 1e-12);
    }

    #[test]
    fn lowpass_attenuates_high_frequency() {
        let taps = lowpass_taps(63, 0.1);
        // Evaluate frequency response at f = 0.05 (passband) and f = 0.35 (stopband)
        let resp = |f: f64| -> f64 {
            taps.iter()
                .enumerate()
                .map(|(i, t)| *t * Complex::exp_j(-2.0 * std::f64::consts::PI * f * i as f64))
                .sum::<Complex>()
                .abs()
        };
        assert!(resp(0.05) > 0.9);
        assert!(resp(0.35) < 0.01);
    }
}
