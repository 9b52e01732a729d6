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
//! Every dispatched kernel (the [`crate::fir`] gather kernel, the
//! [`crate::soa`] planar bodies, the Viterbi ACS step) computes each output
//! element with the same f64 expression in the same order on every backend,
//! so the backend never changes a result. Reductions are not dispatched:
//! the power and inner-product sums the pipeline takes
//! ([`crate::stats::mean_power`], [`crate::stats::dot_conj_energy`]) fold in
//! index order, because a lane-split sum would reassociate the additions.
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_reports_something() {
        let b = backend();
        assert!(!b.label().is_empty());
    }
}
