//! Log-bucketed latency histogram (HDR-style, power-of-two buckets).
//!
//! Recording is wait-free: one `fetch_add` into the bucket whose index is
//! `floor(log2(v)) + 1`, plus count/sum/max bookkeeping — no allocation and
//! no locks, so sweep workers can hammer the same histogram concurrently.
//! Quantiles are approximate by construction (resolved to the bucket's upper
//! bound, i.e. within a factor of 2), which is plenty for stage-latency
//! attribution.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of power-of-two buckets. Bucket 0 holds exact zeros; bucket `i`
/// (`i ≥ 1`) holds values in `[2^(i-1), 2^i - 1]`. 64 buckets cover the full
/// `u64` nanosecond range (≈ 584 years).
pub const BUCKETS: usize = 64;

/// A concurrent log₂-bucketed histogram of `u64` samples (nanoseconds, by
/// convention).
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// The bucket a value lands in: 0 for 0, else `floor(log2(v)) + 1`,
    /// clamped to the last bucket.
    #[inline]
    pub fn bucket_index(v: u64) -> usize {
        ((64 - v.leading_zeros()) as usize).min(BUCKETS - 1)
    }

    /// The largest value bucket `i` can hold (`u64::MAX` for the last).
    pub fn bucket_upper_bound(i: usize) -> u64 {
        match i {
            0 => 0,
            i if i >= BUCKETS - 1 => u64::MAX,
            i => (1u64 << i) - 1,
        }
    }

    /// Record one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[Self::bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Largest recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Approximate quantile `q ∈ [0, 1]`: the upper bound of the bucket the
    /// `ceil(q·count)`-th smallest sample falls in, capped at the observed
    /// max. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for i in 0..BUCKETS {
            cum += self.buckets[i].load(Ordering::Relaxed);
            if cum >= target {
                return Self::bucket_upper_bound(i).min(self.max());
            }
        }
        self.max()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(7), 3);
        assert_eq!(Histogram::bucket_index(8), 4);
        // Every bucket i ≥ 1 covers exactly [2^(i-1), 2^i - 1].
        for i in 1..BUCKETS - 1 {
            let lo = 1u64 << (i - 1);
            let hi = (1u64 << i) - 1;
            assert_eq!(Histogram::bucket_index(lo), i, "low edge of bucket {i}");
            assert_eq!(Histogram::bucket_index(hi), i, "high edge of bucket {i}");
            assert_eq!(Histogram::bucket_upper_bound(i), hi);
        }
        assert_eq!(Histogram::bucket_index(u64::MAX), BUCKETS - 1);
        assert_eq!(Histogram::bucket_upper_bound(BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn counts_sum_max() {
        let h = Histogram::new();
        for v in [0u64, 1, 5, 5, 100, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 1111);
        assert_eq!(h.max(), 1000);
        assert_eq!(h.buckets[0].load(Ordering::Relaxed), 1); // the zero
        assert_eq!(h.buckets[3].load(Ordering::Relaxed), 2); // the two fives ∈ [4,7]
    }

    #[test]
    fn quantiles_resolve_to_bucket_upper_bounds() {
        let h = Histogram::new();
        for _ in 0..90 {
            h.record(10); // bucket [8,15]
        }
        for _ in 0..10 {
            h.record(1000); // bucket [512,1023]
        }
        assert_eq!(h.quantile(0.5), 15);
        assert_eq!(h.quantile(0.9), 15);
        // p99 lands in the tail bucket; capped at the observed max.
        assert_eq!(h.quantile(0.99), 1000);
        assert_eq!(h.quantile(1.0), 1000);
    }

    #[test]
    fn empty_quantile_is_zero() {
        assert_eq!(Histogram::new().quantile(0.5), 0);
    }
}
