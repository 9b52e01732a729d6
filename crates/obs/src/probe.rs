//! Per-trial physics probes: lock-free streaming summaries of `f64` samples.
//!
//! A probe point captures a stage-level quantity every trial (residual power
//! after analog SIC, channel-estimate MSE, Viterbi corrected bits, …) and
//! keeps only a streaming summary — count / sum / min / max — updated with
//! CAS loops on the value's bit pattern, so sweep workers never contend on a
//! lock and nothing allocates after the probe's first registration.

use std::sync::atomic::{AtomicU64, Ordering};

/// Streaming summary of one probe point.
#[derive(Debug)]
pub struct ProbeStats {
    count: AtomicU64,
    /// `f64` bit pattern, accumulated with a CAS loop.
    sum_bits: AtomicU64,
    min_bits: AtomicU64,
    max_bits: AtomicU64,
}

impl Default for ProbeStats {
    fn default() -> Self {
        Self::new()
    }
}

impl ProbeStats {
    /// An empty probe summary.
    pub fn new() -> Self {
        ProbeStats {
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
            min_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            max_bits: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
        }
    }

    /// Record one sample. Non-finite values are dropped (a probe fed
    /// `-inf` dB from a failed trial must not poison the whole summary).
    pub fn record(&self, v: f64) {
        if !v.is_finite() {
            return;
        }
        self.count.fetch_add(1, Ordering::Relaxed);
        // sum += v
        let mut cur = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(x) => cur = x,
            }
        }
        // min/max: compare as f64 (bit order and float order disagree for
        // negative values), swap only while we'd improve the bound.
        let mut cur = self.min_bits.load(Ordering::Relaxed);
        while v < f64::from_bits(cur) {
            match self.min_bits.compare_exchange_weak(
                cur,
                v.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(x) => cur = x,
            }
        }
        let mut cur = self.max_bits.load(Ordering::Relaxed);
        while v > f64::from_bits(cur) {
            match self.max_bits.compare_exchange_weak(
                cur,
                v.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(x) => cur = x,
            }
        }
    }

    /// Finite samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded samples.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    /// Mean of recorded samples (0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() / n as f64
        }
    }

    /// Smallest recorded sample (+∞ when empty).
    pub fn min(&self) -> f64 {
        f64::from_bits(self.min_bits.load(Ordering::Relaxed))
    }

    /// Largest recorded sample (−∞ when empty).
    pub fn max(&self) -> f64 {
        f64::from_bits(self.max_bits.load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_tracks_count_mean_min_max() {
        let p = ProbeStats::new();
        for v in [3.0, -1.0, 5.0, 1.0] {
            p.record(v);
        }
        assert_eq!(p.count(), 4);
        assert!((p.mean() - 2.0).abs() < 1e-12);
        assert_eq!(p.min(), -1.0);
        assert_eq!(p.max(), 5.0);
    }

    #[test]
    fn non_finite_samples_are_dropped() {
        let p = ProbeStats::new();
        p.record(f64::NEG_INFINITY);
        p.record(f64::NAN);
        p.record(2.5);
        assert_eq!(p.count(), 1);
        assert_eq!(p.min(), 2.5);
        assert_eq!(p.max(), 2.5);
    }

    #[test]
    fn negative_minima_beat_positive_ones() {
        // Bit-pattern ordering would get this wrong; f64 comparison must win.
        let p = ProbeStats::new();
        p.record(0.5);
        p.record(-0.5);
        assert_eq!(p.min(), -0.5);
        assert_eq!(p.max(), 0.5);
    }
}
