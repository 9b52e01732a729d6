//! Iterative radix-2 decimation-in-time FFT.
//!
//! OFDM modulation in `backfi-wifi` needs exactly one transform size (64), but
//! the implementation is generic over any power of two so the channel
//! estimator and spectral tests can use longer transforms.
//!
//! Conventions: [`fft`] computes the unnormalized forward DFT
//! `X[k] = Σ x[n]·e^{-j2πkn/N}`; [`ifft`] computes the inverse with the
//! customary `1/N` normalization so `ifft(fft(x)) == x`.

use crate::Complex;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// A planned FFT of a fixed power-of-two size.
///
/// Planning precomputes the twiddle table and bit-reversal permutation so the
/// per-call cost is the butterflies alone. The plan is immutable and can be
/// shared between threads.
#[derive(Clone, Debug)]
pub struct FftPlan {
    n: usize,
    /// twiddles[k] = e^{-j 2π k / n} for k in 0..n/2
    twiddles: Vec<Complex>,
    bitrev: Vec<u32>,
}

impl FftPlan {
    /// Create a plan for size `n`.
    ///
    /// # Panics
    /// Panics if `n` is zero or not a power of two.
    pub fn new(n: usize) -> Self {
        assert!(
            n.is_power_of_two() && n > 0,
            "FFT size must be a power of two, got {n}"
        );
        let twiddles = (0..n / 2)
            .map(|k| Complex::exp_j(-2.0 * std::f64::consts::PI * k as f64 / n as f64))
            .collect();
        let bits = n.trailing_zeros();
        let bitrev = (0..n as u32)
            .map(|i| i.reverse_bits() >> (32 - bits))
            .collect();
        FftPlan {
            n,
            twiddles,
            bitrev,
        }
    }

    /// Fetch (or build and cache) a shared plan for size `n`.
    ///
    /// Planning costs O(n) trigonometry, which dwarfs the butterflies for the
    /// small transforms the convenience wrappers are called with, so plans are
    /// shared process-wide — same pattern as the excitation cache in
    /// `backfi-core`. Callers that transform one size in a tight loop can
    /// still hold a [`FftPlan`] (or this `Arc`) directly and skip the lock.
    ///
    /// # Panics
    /// Panics if `n` is zero or not a power of two.
    pub fn cached(n: usize) -> Arc<FftPlan> {
        /// Distinct sizes alive at once stay tiny (OFDM 64, a few
        /// overlap-save block sizes, Welch segments); the cap only guards
        /// against a pathological caller sweeping sizes forever.
        const CACHE_CAP: usize = 32;
        static CACHE: OnceLock<Mutex<HashMap<usize, Arc<FftPlan>>>> = OnceLock::new();
        let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
        if let Some(hit) = cache.lock().expect("fft plan cache poisoned").get(&n) {
            return hit.clone();
        }
        // Build outside the lock: concurrent first-builds of one size both
        // compute identical tables, which is deterministic and rare.
        let built = Arc::new(FftPlan::new(n));
        let mut map = cache.lock().expect("fft plan cache poisoned");
        if map.len() >= CACHE_CAP {
            map.clear();
        }
        map.entry(n).or_insert_with(|| built.clone()).clone()
    }

    /// Transform size.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Always false: plans have size ≥ 1.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// In-place forward FFT.
    ///
    /// # Panics
    /// Panics if `buf.len() != self.len()`.
    pub fn forward(&self, buf: &mut [Complex]) {
        assert_eq!(buf.len(), self.n, "buffer length must equal plan size");
        self.permute(buf);
        self.butterflies(buf, false);
    }

    /// In-place forward FFT of many same-size transforms packed back to
    /// back: `buf` holds `buf.len() / n` contiguous transforms, each
    /// permuted and butterflied with exactly the op sequence of
    /// [`Self::forward`] — bit-identical per transform at every batch size.
    /// One plan invocation amortizes the dispatch and keeps the twiddle and
    /// bit-reversal tables hot across the whole batch (the receive chain
    /// uses this to transform [`crate::soa`]-batched OFDM symbols).
    ///
    /// # Panics
    /// Panics if `buf.len()` is not a multiple of the plan size.
    pub fn forward_many(&self, buf: &mut [Complex]) {
        assert_eq!(
            buf.len() % self.n,
            0,
            "batch buffer must be a multiple of the plan size"
        );
        for chunk in buf.chunks_exact_mut(self.n) {
            self.permute(chunk);
            self.butterflies(chunk, false);
        }
    }

    /// In-place inverse FFT (includes the `1/N` normalization).
    ///
    /// # Panics
    /// Panics if `buf.len() != self.len()`.
    pub fn inverse(&self, buf: &mut [Complex]) {
        assert_eq!(buf.len(), self.n, "buffer length must equal plan size");
        self.permute(buf);
        self.butterflies(buf, true);
        let scale = 1.0 / self.n as f64;
        for v in buf.iter_mut() {
            *v *= scale;
        }
    }

    fn permute(&self, buf: &mut [Complex]) {
        for i in 0..self.n {
            let j = self.bitrev[i] as usize;
            if j > i {
                buf.swap(i, j);
            }
        }
    }

    fn butterflies(&self, buf: &mut [Complex], inverse: bool) {
        let n = self.n;
        let mut len = 2;
        while len <= n {
            let half = len / 2;
            let stride = n / len;
            for start in (0..n).step_by(len) {
                for k in 0..half {
                    let mut w = self.twiddles[k * stride];
                    if inverse {
                        w = w.conj();
                    }
                    let a = buf[start + k];
                    let b = buf[start + k + half] * w;
                    buf[start + k] = a + b;
                    buf[start + k + half] = a - b;
                }
            }
            len <<= 1;
        }
    }
}

/// Out-of-place forward FFT convenience wrapper.
///
/// # Panics
/// Panics if `x.len()` is not a power of two.
pub fn fft(x: &[Complex]) -> Vec<Complex> {
    let plan = FftPlan::cached(x.len());
    let mut buf = x.to_vec();
    plan.forward(&mut buf);
    buf
}

/// Out-of-place inverse FFT convenience wrapper (normalized by `1/N`).
///
/// # Panics
/// Panics if `x.len()` is not a power of two.
pub fn ifft(x: &[Complex]) -> Vec<Complex> {
    let plan = FftPlan::cached(x.len());
    let mut buf = x.to_vec();
    plan.inverse(&mut buf);
    buf
}

/// Swap the two halves of a spectrum so DC moves to the centre
/// (`fftshift` in NumPy/MATLAB terms). For odd lengths the extra element
/// stays with the second half, matching NumPy.
pub fn fftshift<T: Copy>(x: &[T]) -> Vec<T> {
    let n = x.len();
    let half = n.div_ceil(2);
    let mut out = Vec::with_capacity(n);
    out.extend_from_slice(&x[half..]);
    out.extend_from_slice(&x[..half]);
    out
}

/// Inverse of [`fftshift`].
pub fn ifftshift<T: Copy>(x: &[T]) -> Vec<T> {
    let n = x.len();
    let half = n / 2;
    let mut out = Vec::with_capacity(n);
    out.extend_from_slice(&x[half..]);
    out.extend_from_slice(&x[..half]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    fn assert_close(a: &[Complex], b: &[Complex], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!((*x - *y).abs() < tol, "index {i}: {x:?} vs {y:?}");
        }
    }

    #[test]
    fn dc_input() {
        let x = vec![Complex::ONE; 8];
        let y = fft(&x);
        assert!((y[0] - Complex::real(8.0)).abs() < 1e-12);
        for v in &y[1..] {
            assert!(v.abs() < 1e-12);
        }
    }

    #[test]
    fn single_tone_lands_on_one_bin() {
        let n = 64;
        let k0 = 7;
        let x: Vec<Complex> = (0..n)
            .map(|i| Complex::exp_j(2.0 * PI * k0 as f64 * i as f64 / n as f64))
            .collect();
        let y = fft(&x);
        for (k, v) in y.iter().enumerate() {
            if k == k0 {
                assert!((v.abs() - n as f64).abs() < 1e-9);
            } else {
                assert!(v.abs() < 1e-9, "leakage at bin {k}");
            }
        }
    }

    #[test]
    fn roundtrip_random() {
        // xorshift-style deterministic pseudo-random input
        let mut s = 0x12345678u64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s as f64 / u64::MAX as f64) - 0.5
        };
        for n in [2usize, 4, 16, 64, 256, 1024] {
            let x: Vec<Complex> = (0..n).map(|_| Complex::new(next(), next())).collect();
            let y = ifft(&fft(&x));
            assert_close(&x, &y, 1e-9);
        }
    }

    #[test]
    fn linearity() {
        let a: Vec<Complex> = (0..16)
            .map(|i| Complex::new(i as f64, -(i as f64)))
            .collect();
        let b: Vec<Complex> = (0..16).map(|i| Complex::new(1.0, i as f64 * 0.5)).collect();
        let sum: Vec<Complex> = a.iter().zip(&b).map(|(x, y)| *x + *y).collect();
        let fa = fft(&a);
        let fb = fft(&b);
        let fsum = fft(&sum);
        let expect: Vec<Complex> = fa.iter().zip(&fb).map(|(x, y)| *x + *y).collect();
        assert_close(&fsum, &expect, 1e-9);
    }

    #[test]
    fn parseval() {
        let x: Vec<Complex> = (0..64)
            .map(|i| Complex::new((i as f64 * 0.17).sin(), (i as f64 * 0.31).cos()))
            .collect();
        let y = fft(&x);
        let ex: f64 = x.iter().map(|v| v.norm_sqr()).sum();
        let ey: f64 = y.iter().map(|v| v.norm_sqr()).sum::<f64>() / 64.0;
        assert!((ex - ey).abs() / ex < 1e-12);
    }

    #[test]
    fn fftshift_even_odd() {
        assert_eq!(fftshift(&[0, 1, 2, 3]), vec![2, 3, 0, 1]);
        assert_eq!(fftshift(&[0, 1, 2, 3, 4]), vec![3, 4, 0, 1, 2]);
        assert_eq!(ifftshift(&fftshift(&[0, 1, 2, 3, 4])), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two() {
        FftPlan::new(12);
    }

    #[test]
    fn cached_plans_are_shared_and_identical_to_fresh() {
        let a = FftPlan::cached(256);
        let b = FftPlan::cached(256);
        assert!(Arc::ptr_eq(&a, &b), "same size must share one plan");
        let x: Vec<Complex> = (0..256)
            .map(|i| Complex::new((i as f64 * 0.11).sin(), (i as f64 * 0.07).cos()))
            .collect();
        let mut via_cache = x.clone();
        a.forward(&mut via_cache);
        let mut fresh = x;
        FftPlan::new(256).forward(&mut fresh);
        for (u, v) in via_cache.iter().zip(&fresh) {
            assert_eq!(u, v, "cached plan must be bit-identical to a fresh one");
        }
    }
}
