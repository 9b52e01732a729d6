//! Deterministic pseudo-random numbers without external dependencies.
//!
//! Every stochastic element of the simulator (thermal noise, multipath tap
//! realizations, payload bits, trace arrivals) draws from [`SplitMix64`], a
//! 64-bit mixing generator with a one-word state (Steele, Lea & Flood,
//! OOPSLA 2014; the same finalizer as MurmurHash3). It is seedable from a
//! single `u64`, every distinct seed yields an independent-looking stream,
//! and — critically for the sweep engine — a fresh, statistically decorrelated
//! seed can be derived for any `(seed0, job index)` pair with [`SplitMix64::derive`],
//! so results never depend on which worker thread ran which job.
//!
//! The generator passes BigCrush when used as a stream and is far more than
//! adequate for Monte-Carlo channel realizations. It replaces the `rand`
//! crate, which is not available in the offline build environment.

/// The SplitMix64 finalizer: one bijective avalanche round over `u64`.
///
/// Useful on its own for hashing small integers into well-mixed words.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Minimal RNG interface used by the noise/channel generators.
///
/// Mirrors the subset of `rand::Rng` the codebase needs. Implemented by
/// [`SplitMix64`]; generic code (e.g. [`crate::noise`]) stays polymorphic so
/// tests can substitute counters or recorded streams.
pub trait Rng {
    /// The next 64 uniformly distributed bits.
    fn next_u64(&mut self) -> u64;

    /// A uniform `f64` in `[0, 1)` with 53 random mantissa bits.
    #[inline]
    fn next_f64(&mut self) -> f64 {
        // 53 high bits → [0,1) with full double precision.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform `u32`.
    #[inline]
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// A uniform integer in `[0, n)`. `n` must be nonzero.
    #[inline]
    fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        // Multiply-shift rejection-free mapping; bias ≤ 2⁻⁶⁴·n, negligible
        // for the simulation sizes used here.
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

/// A seedable one-word PRNG (SplitMix64).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Create a generator; the same `seed` reproduces the same stream.
    ///
    /// The seed is pre-mixed so that adjacent seeds (0, 1, 2, …) still give
    /// decorrelated streams.
    #[inline]
    pub fn new(seed: u64) -> Self {
        SplitMix64 {
            state: mix64(seed ^ 0x9E37_79B9_7F4A_7C15),
        }
    }

    /// Derive the seed for job `index` of a sweep rooted at `seed0`.
    ///
    /// The mapping is a double avalanche over both words, so neighbouring
    /// `(seed0, index)` pairs land in unrelated parts of the seed space.
    /// Sweep executors use this to make per-job randomness a pure function
    /// of the job's grid position — independent of thread count or schedule.
    #[inline]
    pub fn derive(seed0: u64, index: u64) -> u64 {
        mix64(mix64(seed0).wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
    }
}

impl Rng for SplitMix64 {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix64(self.state)
    }
}

// Inherent mirrors of the trait methods so callers holding a concrete
// `SplitMix64` don't need the trait in scope.
impl SplitMix64 {
    /// The next 64 uniformly distributed bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        Rng::next_u64(self)
    }

    /// A uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        Rng::next_f64(self)
    }

    /// A uniform `u32`.
    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        Rng::next_u32(self)
    }

    /// A uniform integer in `[0, n)`.
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        Rng::below(self, n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let a: Vec<u64> = {
            let mut r = SplitMix64::new(42);
            (0..32).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = SplitMix64::new(42);
            (0..32).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SplitMix64::new(7);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x), "{x}");
        }
    }

    #[test]
    fn f64_mean_is_half() {
        let mut r = SplitMix64::new(3);
        let n = 100_000;
        let s: f64 = (0..n).map(|_| r.next_f64()).sum();
        let mean = s / n as f64;
        assert!((mean - 0.5).abs() < 0.005, "mean {mean}");
    }

    #[test]
    fn below_is_in_range_and_covers() {
        let mut r = SplitMix64::new(11);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            seen[r.below(7) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn derive_decorrelates_adjacent_jobs() {
        // Seeds for neighbouring job indices must not collide and should
        // differ in roughly half their bits.
        let mut total = 0u32;
        for i in 0..1000u64 {
            let a = SplitMix64::derive(1234, i);
            let b = SplitMix64::derive(1234, i + 1);
            assert_ne!(a, b);
            total += (a ^ b).count_ones();
        }
        let avg = total as f64 / 1000.0;
        assert!((avg - 32.0).abs() < 2.0, "avg bit flips {avg}");
    }

    #[test]
    fn derive_differs_across_roots() {
        assert_ne!(SplitMix64::derive(1, 5), SplitMix64::derive(2, 5));
    }

    #[test]
    fn mix64_is_bijective_on_samples() {
        use std::collections::HashSet;
        let set: HashSet<u64> = (0..10_000u64).map(mix64).collect();
        assert_eq!(set.len(), 10_000);
    }
}
