//! Portable SIMD layer: runtime backend detection for the dispatched kernels.
//!
//! Zero external crates: on x86_64 the fast paths are ordinary Rust loops or
//! intrinsics compiled inside `#[target_feature(enable = "avx2")]`
//! functions, selected at runtime with `is_x86_feature_detected!`. On
//! aarch64 NEON is part of the baseline target, so the portable loops
//! already vectorize and the dispatch collapses to the scalar backend.
//! Everything else falls back to the same portable code compiled for the
//! baseline target.
//!
//! ## Bit-exactness (DESIGN.md §11)
//!
//! Every dispatched kernel (the [`crate::fir`] gather kernel, the ADC
//! quantizer, the Viterbi ACS step) computes each output element with the
//! same f64 expression in the same order on every backend, so the backend
//! never changes a result. The planar loops of [`crate::correlate::xcorr`]
//! and of the 802.11 equalizer have no AVX2 twin: their one body is compiled
//! for the baseline target, because an AVX2 build of either saved under
//! 0.5% of a reception. Reductions are not dispatched either: the power and
//! inner-product sums the pipeline takes ([`crate::stats::mean_power`],
//! [`crate::stats::dot_conj_energy`]) fold in index order, because a
//! lane-split sum would reassociate the additions.
//!
//! ## Disabling SIMD
//!
//! Set `BACKFI_SIMD=off` (or `0`/`scalar`) in the environment, or call
//! [`force_scalar`] from a test, to pin every dispatched kernel to the
//! baseline-codegen path. CI runs the full test suite once in this mode.

use crate::Complex;
use std::sync::atomic::{AtomicU8, Ordering};

/// Which instruction-set backend the dispatched kernels run on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// Portable code compiled for the baseline target (SSE2 on x86_64,
    /// NEON on aarch64 — both part of those targets' baselines).
    Scalar,
    /// Runtime-detected AVX2 codegen (x86_64 only).
    #[cfg(target_arch = "x86_64")]
    Avx2,
}

impl Backend {
    /// Short label for logs and bench records.
    pub fn label(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 => "avx2",
        }
    }
}

/// 0 = uninitialized, 1 = native backend, 2 = forced scalar.
static FORCE: AtomicU8 = AtomicU8::new(0);

fn env_disabled() -> bool {
    matches!(
        std::env::var("BACKFI_SIMD").as_deref(),
        Ok("off") | Ok("0") | Ok("scalar")
    )
}

fn force_state() -> u8 {
    let s = FORCE.load(Ordering::Relaxed);
    if s != 0 {
        return s;
    }
    let s = if env_disabled() { 2 } else { 1 };
    // A concurrent first call computes the same value: the env var is the
    // only input, so the race is benign.
    FORCE.store(s, Ordering::Relaxed);
    s
}

/// Test hook: pin every dispatched kernel to the scalar backend (`true`) or
/// restore runtime detection (`false`). Overrides `BACKFI_SIMD`.
///
/// All dispatched kernels are bit-identical across backends (see the module
/// docs), so flipping this concurrently with other threads is safe — it only
/// changes which codegen runs, never the results.
pub fn force_scalar(on: bool) {
    FORCE.store(if on { 2 } else { 1 }, Ordering::Relaxed);
}

/// The backend the dispatched kernels currently run on.
pub fn backend() -> Backend {
    if force_state() == 2 {
        return Backend::Scalar;
    }
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            return Backend::Avx2;
        }
    }
    Backend::Scalar
}

/// [`crate::stats::mean_power`] under its former name, kept only because the
/// repository benchmark (`benchmark/src/link.rs`) still calls it. New code
/// calls `stats::mean_power`.
pub fn mean_power_auto(x: &[Complex]) -> f64 {
    crate::stats::mean_power(x)
}

/// Test support shared by the kernel tests of this crate: the lock every
/// test that pins a backend holds, the size grid, and bitwise output
/// comparison.
#[cfg(test)]
pub(crate) mod testing {
    use super::{backend, force_scalar, Backend};
    use crate::Complex;
    use std::sync::{Mutex, MutexGuard};

    /// Serializes the tests that pin a backend: a test that forces the
    /// scalar backend flips a process-wide switch, which must not leak into
    /// a test that means to run on the detected backend (or be undone under
    /// a forced pass by that test's restore).
    static BACKEND: Mutex<()> = Mutex::new(());

    fn lock() -> MutexGuard<'static, ()> {
        BACKEND.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Runs `f` on the backend the process detected (or `BACKFI_SIMD`
    /// chose), with no other backend-pinning test running.
    pub(crate) fn on_detected_backend<R>(f: impl FnOnce() -> R) -> R {
        let _pass = lock();
        f()
    }

    /// Runs `f` with every dispatched kernel pinned to the scalar backend,
    /// then restores the previous backend, also when `f` panics.
    pub(crate) fn on_forced_scalar<R>(f: impl FnOnce() -> R) -> R {
        struct Restore(bool);
        impl Drop for Restore {
            fn drop(&mut self) {
                force_scalar(self.0);
            }
        }
        let _pass = lock();
        let _restore = Restore(backend() == Backend::Scalar);
        force_scalar(true);
        f()
    }

    /// Signal/kernel length grid of the kernel equivalence tests: link-sized
    /// and long kernels, power-of-two and odd lengths, equal lengths, and a
    /// kernel nearly as long as the signal.
    pub(crate) const SIZES: &[(usize, usize)] = &[
        (256, 8),
        (512, 47),
        (2048, 48),
        (4096, 48),
        (3000, 64),
        (8192, 256),
        (300, 300),
        (1024, 1000),
        (20_000, 32), // a headline-length signal through the longest link FIR
    ];

    /// Bitwise equality, except that two NaNs match whatever their sign and
    /// payload: LLVM may commute an `a + b` whose operands are both NaN, so
    /// not even a scalar reference loop pins which NaN propagates. A NaN
    /// lane in one form is a NaN lane in the other, and no consumer reads a
    /// NaN's sign or payload.
    fn same_bits(a: f64, b: f64) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    /// [`same_bits`] over two complex slices of equal length; `what` names
    /// the case in the failure message.
    pub(crate) fn assert_bits(got: &[Complex], want: &[Complex], what: &dyn Fn() -> String) {
        assert_eq!(got.len(), want.len(), "{}: length", what());
        for (i, (a, b)) in got.iter().zip(want).enumerate() {
            assert!(
                same_bits(a.re, b.re) && same_bits(a.im, b.im),
                "{} sample {i}: {a:?} vs {b:?} ({:#x}, {:#x}) vs ({:#x}, {:#x})",
                what(),
                a.re.to_bits(),
                a.im.to_bits(),
                b.re.to_bits(),
                b.im.to_bits()
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_reports_something() {
        let b = backend();
        assert!(!b.label().is_empty());
    }
}
