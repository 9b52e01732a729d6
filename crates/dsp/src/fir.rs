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
//! gather kernel, and the scalar scatter loop. The gather kernel keeps eight
//! outputs in registers across the taps and is bit-identical to the scatter
//! loop (see the proof on `gather`); the scatter loop is the portable
//! fallback, and the tests' reference oracle wraps it.

use crate::Complex;
use core::mem::MaybeUninit;

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
    //! this crate (DESIGN.md §11), the sign and payload of a NaN output are
    //! unspecified: when two NaNs meet in one add, which one
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

    /// Writes `y[j − first] = Σ_k x[j−k]·h[k]`, inputs outside `x` absent,
    /// for every `j` in `first..first + y.len()`; the end is `x.len()` for
    /// the causal filter and `x.len() + h.len() − 1` for the full
    /// convolution. `h` must be non-empty.
    ///
    /// # Safety
    /// AVX2 must be available.
    #[target_feature(enable = "avx2")]
    pub unsafe fn fir(h: &[Complex], x: &[Complex], first: usize, y: &mut [MaybeUninit<Complex>]) {
        let (m, n) = (h.len(), x.len());
        let end = first + y.len();
        // The vector body reads x[j−k..j+8] and writes y[j−first..j−first+8].
        let body_end = n.min(end);
        let xp = x.as_ptr() as *const f64;
        let yp = y.as_mut_ptr() as *mut f64;
        // Head: outputs whose longest-delay taps reach before x[0].
        let mut j = first;
        while j < end.min(m - 1) {
            y[j - first].write(one(h, x, j));
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
                _mm256_storeu_pd(yp.add(2 * (j - first) + 4 * v), *a);
            }
            j += 8;
        }
        // Tail: the last outputs, and the convolution's ramp-down.
        while j < end {
            y[j - first].write(one(h, x, j));
            j += 1;
        }
    }
}

/// Runs the AVX2 gather kernel for outputs `first..first + y.len()` into
/// `y`, writing every element, and returns true — or returns false with `y`
/// untouched when the scalar loop must run: on the `Scalar` backend, off
/// x86-64, or when a tap is not finite.
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
fn try_gather(h: &[Complex], x: &[Complex], first: usize, y: &mut [MaybeUninit<Complex>]) -> bool {
    #[cfg(target_arch = "x86_64")]
    if crate::simd::backend() == crate::simd::Backend::Avx2
        && h.iter().all(|t| t.re.is_finite() && t.im.is_finite())
    {
        // SAFETY: AVX2 presence established by runtime detection.
        unsafe { gather::fir(h, x, first, y) };
        return true;
    }
    false
}

/// The direct form into a caller-owned buffer: `y` is cleared and refilled
/// with `len` outputs (`x.len()` for [`filter`], `x.len() + h.len() − 1`
/// for a full [`convolve`]), reusing its capacity.
fn direct_into(h: &[Complex], x: &[Complex], len: usize, y: &mut Vec<Complex>) {
    if y.capacity() < len {
        // A fresh buffer: growing the old one would copy its contents.
        *y = Vec::with_capacity(len);
    }
    y.clear();
    direct_append(h, x, len, y);
}

/// Appends outputs `y.len()..len` of the direct form to `y`, leaving the
/// elements `y` already holds untouched. Takes the gather kernel where
/// [`try_gather`] allows and the scalar scatter loop otherwise.
fn direct_append(h: &[Complex], x: &[Complex], len: usize, y: &mut Vec<Complex>) {
    let first = y.len();
    y.reserve(len - first);
    if try_gather(h, x, first, &mut y.spare_capacity_mut()[..len - first]) {
        // SAFETY: the gather kernel initialized the `len − first` elements
        // past the old length.
        unsafe { y.set_len(len) };
    } else {
        y.resize(len, Complex::ZERO);
        scatter(h, x, first, &mut y[first..]);
    }
}

/// Full linear convolution of `x` with `h` (`x.len() + h.len() − 1`
/// outputs): the direct O(n·m) form, the AVX2 gather kernel on the AVX2
/// backend with finite taps and the scalar scatter loop otherwise, both
/// bit-identical.
///
/// # Panics
/// Panics if either input is empty.
pub fn convolve(x: &[Complex], h: &[Complex]) -> Vec<Complex> {
    assert!(!x.is_empty() && !h.is_empty(), "convolve: empty input");
    let mut full = Vec::new();
    direct_into(h, x, x.len() + h.len() - 1, &mut full);
    full
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
/// The output comes from one of two bodies, bit-identical to each other:
/// the AVX2 gather kernel, or the scalar scatter loop on the `Scalar`
/// backend (`BACKFI_SIMD=off`), off x86-64, and whenever a tap is NaN or ∞.
pub fn filter_into(h: &[Complex], x: &[Complex], y: &mut Vec<Complex>) {
    assert!(!h.is_empty(), "filter: empty impulse response");
    direct_into(h, x, x.len(), y);
}

/// Appends outputs `y.len()..end` of [`filter`]`(h, x)` to `y`, leaving the
/// elements `y` already holds untouched: a causal filter computed in
/// extending prefixes. Each output reads only its own `h.len()` inputs, so
/// the call touches `x[y.len() + 1 − h.len()..end]` and every appended
/// output is bit-identical to the same output of the whole filter, on
/// either body (see [`filter_into`]). A no-op when `end <= y.len()`.
///
/// # Panics
/// Panics if `h` is empty or `end > x.len()`.
pub fn filter_extend(h: &[Complex], x: &[Complex], end: usize, y: &mut Vec<Complex>) {
    assert!(!h.is_empty(), "filter: empty impulse response");
    if end > y.len() {
        direct_append(h, &x[..end], end, y);
    }
}

/// The scalar scatter loop: `y[i + k − first] += x[i]·h[k]` for every
/// nonzero input and every output index `i + k` in `first..first + y.len()`.
/// `y` must be zeros; its end is `x.len()` for the causal filter or
/// `x.len() + h.len() − 1` for the full convolution. Each output receives its terms in ascending `i` whatever
/// `first` is, so a window of outputs is bit-identical to the same outputs
/// of the whole.
fn scatter(h: &[Complex], x: &[Complex], first: usize, y: &mut [Complex]) {
    let end = first + y.len();
    for i in first.saturating_sub(h.len() - 1)..x.len().min(end) {
        let xi = x[i];
        if xi == Complex::ZERO {
            continue;
        }
        let kmax = h.len().min(end - i);
        for k in first.saturating_sub(i)..kmax {
            y[i + k - first] += xi * h[k];
        }
    }
}

/// The reference oracle of [`filter`]: the scalar scatter loop on a fresh
/// buffer, whatever the backend.
#[cfg(test)]
pub(crate) fn filter_direct(h: &[Complex], x: &[Complex]) -> Vec<Complex> {
    assert!(!h.is_empty(), "filter: empty impulse response");
    let mut y = vec![Complex::ZERO; x.len()];
    scatter(h, x, 0, &mut y);
    y
}

/// The reference oracle of [`convolve`]: the scalar scatter loop on a fresh
/// buffer, whatever the backend.
#[cfg(test)]
pub(crate) fn convolve_direct(x: &[Complex], h: &[Complex]) -> Vec<Complex> {
    assert!(!x.is_empty() && !h.is_empty(), "convolve: empty input");
    let mut full = vec![Complex::ZERO; x.len() + h.len() - 1];
    scatter(h, x, 0, &mut full);
    full
}

#[cfg(test)]
mod tests {
    //! Besides the known answers, the bitwise equivalence suite of the
    //! direct form: over a grid of signal and kernel lengths, and over every
    //! kernel length with hostile inputs, [`convolve`], [`filter`],
    //! [`filter_into`] and [`filter_extend`] must equal the scalar oracles
    //! ([`convolve_direct`], [`filter_direct`]) bit for bit, NaN sign and
    //! payload excepted, on the detected backend and under `force_scalar`.
    //! Equality with a deterministic oracle also pins the kernel's
    //! determinism.
    use super::*;
    use crate::noise::cgauss_vec;
    use crate::rng::SplitMix64;
    use crate::simd::testing::{assert_bits, on_detected_backend, on_forced_scalar, SIZES};

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
        let y = convolve(&x, &h);
        let expect = [1.0, 3.0, 5.0, 3.0];
        assert_eq!(y.len(), 4);
        for (a, b) in y.iter().zip(expect) {
            assert!((a.re - b).abs() < 1e-12 && a.im.abs() < 1e-12);
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
        let full = convolve(&x, &h);
        let y = filter(&h, &x);
        for i in 0..x.len() {
            assert!((y[i] - full[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn convolve_matches_direct() {
        on_detected_backend(|| {
            let mut rng = SplitMix64::new(0xC0);
            for &(n, m) in SIZES {
                let x = cgauss_vec(&mut rng, n, 1.0);
                let h = cgauss_vec(&mut rng, m, 1.0);
                assert_bits(&convolve(&x, &h), &convolve_direct(&x, &h), &|| {
                    format!("convolve {n}x{m}")
                });
            }
        });
    }

    #[test]
    fn filter_matches_direct() {
        on_detected_backend(|| {
            let mut rng = SplitMix64::new(0xF1);
            for &(n, m) in SIZES {
                let x = cgauss_vec(&mut rng, n, 1.0);
                let h = cgauss_vec(&mut rng, m, 1.0);
                assert_bits(&filter(&h, &x), &filter_direct(&h, &x), &|| {
                    format!("filter {n}x{m}")
                });
            }
        });
    }

    /// `x` of length `n` with every input the zero-skip argument cares
    /// about: leading silence (with `-0.0` components), an interior zero
    /// run, signed zeros inside nonzero samples, subnormals, and NaN and ±∞
    /// samples late enough that most outputs stay finite.
    fn hostile_signal(rng: &mut SplitMix64, n: usize, m: usize) -> Vec<Complex> {
        let mut x = cgauss_vec(rng, n, 1.0);
        let zeros = [
            Complex::ZERO,
            Complex::new(-0.0, 0.0),
            Complex::new(0.0, -0.0),
            Complex::new(-0.0, -0.0),
        ];
        for (i, v) in x.iter_mut().take(n / 4 + 1).enumerate() {
            *v = zeros[i % 4];
        }
        let run = n / 2..(n / 2 + m + 3).min(n);
        for (i, v) in x[run].iter_mut().enumerate() {
            *v = zeros[(i + 1) % 4];
        }
        let specials = [
            Complex::new(-0.0, 0.75),
            Complex::new(1.25, -0.0),
            Complex::new(5e-324, -1e-310),
            Complex::new(f64::NAN, 0.5),
            Complex::new(f64::INFINITY, -1.0),
            Complex::new(0.25, f64::NEG_INFINITY),
        ];
        let at = [
            n / 3,
            n / 3 + 1,
            2 * n / 3,
            n.saturating_sub(4),
            n.saturating_sub(3),
            n.saturating_sub(2),
        ];
        for (&i, &v) in at.iter().zip(&specials) {
            if i < n {
                x[i] = v;
            }
        }
        x
    }

    /// Tap counts of the six link FIRs of a headline trial (2, 24, 2, 16,
    /// 28 and 3 taps).
    const LINK_TAPS: [usize; 5] = [2, 3, 16, 24, 28];

    /// The headline trial's sample count.
    const LONG: usize = 82_900;

    /// Every kernel length up to 47 taps against the signal lengths around
    /// the gather kernel's head, body and tail boundaries, with taps that
    /// take the gather kernel (finite, with exact `0` and `-0.0` taps) and
    /// taps that must fall back to the scalar loop (one NaN tap, one ∞ tap).
    /// `filter`, `filter_into` on a dirty reused buffer, `filter_extend`
    /// over extending prefixes, and `convolve` must equal the scalar oracles
    /// bit for bit. At the headline length, where the debug-build gather
    /// kernel is slow, kernel lengths outside [`LINK_TAPS`] check
    /// `filter_into` with finite taps only; the kernel is shift-invariant,
    /// so the shorter shapes cover the rest.
    fn direct_forms_match_oracles_bitwise() {
        let mut rng = SplitMix64::new(0xAE);
        let mut reused = vec![Complex::new(f64::NAN, 7.0); 100];
        for m in 1..=47usize {
            let q = m / 8 + 4;
            let mut lens = vec![0, 1, 8 * q - 1, 8 * q, 8 * q + 1, LONG];
            lens.extend(m.saturating_sub(2)..=m + 9);
            if [8, 9, 16, 24, 32, 47].contains(&m) {
                lens.push(6000);
            }
            let mut h = cgauss_vec(&mut rng, m, 1.0);
            for (k, t) in h.iter_mut().enumerate() {
                match k % 5 {
                    1 => *t = Complex::ZERO,
                    3 => *t = Complex::new(-0.0, if k % 2 == 0 { -0.0 } else { 0.5 }),
                    _ => {}
                }
            }
            let mut nan_h = h.clone();
            nan_h[m / 2] = Complex::new(0.5, f64::NAN);
            let mut inf_h = h.clone();
            inf_h[m - 1] = Complex::new(f64::INFINITY, 0.25);
            for n in lens {
                let x = hostile_signal(&mut rng, n, m);
                let what = |op: &str, kind: &str| format!("{op} m {m} n {n} {kind} taps");
                if n == LONG && !LINK_TAPS.contains(&m) {
                    filter_into(&h, &x, &mut reused);
                    assert_bits(&reused, &filter_direct(&h, &x), &|| {
                        what("filter_into", "finite")
                    });
                    continue;
                }
                for (kind, h) in [("finite", &h), ("nan", &nan_h), ("inf", &inf_h)] {
                    let want = filter_direct(h, &x);
                    assert_bits(&filter(h, &x), &want, &|| what("filter", kind));
                    filter_into(h, &x, &mut reused);
                    assert_bits(&reused, &want, &|| what("filter_into", kind));
                    // Extending prefixes, cut inside the head, at its end, in
                    // the body and at the end.
                    let mut grown = Vec::new();
                    for cut in [m / 2, m - 1, m + 4, n / 2 + 1, n] {
                        filter_extend(h, &x, cut.min(n), &mut grown);
                    }
                    assert_bits(&grown, &want, &|| what("filter_extend", kind));
                    if n == 0 {
                        continue;
                    }
                    assert_bits(&convolve(&x, h), &convolve_direct(&x, h), &|| {
                        what("convolve", kind)
                    });
                }
            }
        }
    }

    #[test]
    fn direct_forms_are_bit_identical_to_oracles_on_detected_backend() {
        on_detected_backend(direct_forms_match_oracles_bitwise);
    }

    #[test]
    fn direct_forms_are_bit_identical_to_oracles_under_forced_scalar() {
        on_forced_scalar(direct_forms_match_oracles_bitwise);
    }
}
