//! The tag's wake-up energy detector (§4.1).
//!
//! "The design has an envelope detector, a peak finder, a set-threshold
//! circuit and a comparator. … The comparator outputs a bit decision every
//! microsecond. … digital logic correlates the detected 16-bit long sequence
//! over sliding windows with the known preamble."
//!
//! Modelled after the sub-µW wake-up radios the paper cites ([40, 18]):
//! detection works down to a configurable sensitivity (−50 dBm by default,
//! between the −41 and −56 dBm the cited designs achieve).

use backfi_dsp::correlate::bit_correlation;
use backfi_dsp::Complex;

/// Samples per comparator decision (1 µs at 20 MHz).
pub const SAMPLES_PER_BIT: usize = 20;

/// The envelope → peak-hold → threshold → comparator pipeline.
#[derive(Clone, Debug)]
pub struct EnergyDetector {
    /// Minimum detectable envelope power (linear, simulator units).
    sensitivity: f64,
    /// Peak-hold state (decays slowly like a real peak detector).
    peak: f64,
    /// Leftover samples not yet forming a full 1 µs block.
    pending: Vec<Complex>,
}

impl EnergyDetector {
    /// Create a detector with the given sensitivity in dBm.
    pub fn new(sensitivity_dbm: f64) -> Self {
        EnergyDetector {
            sensitivity: 10f64.powf(sensitivity_dbm / 10.0),
            peak: 0.0,
            pending: Vec::new(),
        }
    }

    /// Default −50 dBm sensitivity (between the −41 and −56 dBm of the
    /// cited wake-up radio designs), enough to arm the tag out to ~7 m.
    pub fn default_sensitivity() -> Self {
        Self::new(-50.0)
    }

    /// Feed incident samples; returns one bit per completed microsecond.
    /// A `true` bit means "energy above half the held peak".
    pub fn process(&mut self, incident: &[Complex]) -> Vec<bool> {
        incident.iter().filter_map(|&s| self.push(s)).collect()
    }

    /// Feed one incident sample; returns the comparator bit when it
    /// completes a microsecond. The non-allocating core of
    /// [`EnergyDetector::process`], for sample-by-sample callers.
    pub(crate) fn push(&mut self, s: Complex) -> Option<bool> {
        self.pending.push(s);
        if self.pending.len() < SAMPLES_PER_BIT {
            return None;
        }
        let p: f64 =
            self.pending.iter().map(|v| v.norm_sqr()).sum::<f64>() / SAMPLES_PER_BIT as f64;
        self.pending.clear();
        // Peak hold with slow decay (~1% per µs).
        self.peak = (self.peak * 0.99).max(p);
        let threshold = (self.peak / 2.0).max(self.sensitivity);
        Some(p >= threshold && p >= self.sensitivity)
    }

    /// Reset all state (new listening session).
    pub fn reset(&mut self) {
        self.peak = 0.0;
        self.pending.clear();
    }
}

/// Sliding 16-bit preamble correlator.
#[derive(Clone, Debug)]
pub struct PreambleCorrelator {
    pattern: Vec<bool>,
    window: Vec<bool>,
    /// Minimum agreement score (out of `pattern.len()`) to declare a match.
    min_score: i32,
}

impl PreambleCorrelator {
    /// Create a correlator for `pattern`, requiring at least `min_matches`
    /// agreeing bits (e.g. 15 of 16).
    ///
    /// # Panics
    /// Panics if the pattern is empty or `min_matches > pattern.len()`.
    pub fn new(pattern: Vec<bool>, min_matches: usize) -> Self {
        assert!(!pattern.is_empty(), "empty preamble pattern");
        assert!(min_matches <= pattern.len(), "min_matches too large");
        let min_score = (2 * min_matches) as i32 - pattern.len() as i32;
        PreambleCorrelator {
            pattern,
            window: Vec::new(),
            min_score,
        }
    }

    /// Push comparator bits one at a time; returns `true` on the bit that
    /// completes a match.
    pub fn push(&mut self, bit: bool) -> bool {
        self.window.push(bit);
        if self.window.len() > self.pattern.len() {
            self.window.remove(0);
        }
        if self.window.len() == self.pattern.len() {
            bit_correlation(&self.window, &self.pattern) >= self.min_score
        } else {
            false
        }
    }

    /// Clear the sliding window.
    pub fn reset(&mut self) {
        self.window.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pulses(bits: &[bool], amp: f64) -> Vec<Complex> {
        let mut v = Vec::new();
        for &b in bits {
            let level = if b { amp } else { 0.0 };
            v.extend((0..SAMPLES_PER_BIT).map(|i| Complex::from_polar(level, i as f64 * 0.7)));
        }
        v
    }

    #[test]
    fn recovers_pulse_pattern() {
        let pattern = [true, false, true, true, false, false, true, false];
        let mut det = EnergyDetector::new(-60.0);
        // amplitude well above sensitivity
        let rx = pulses(&pattern, 1e-2);
        let bits = det.process(&rx);
        assert_eq!(&bits[..], &pattern[..]);
    }

    #[test]
    fn below_sensitivity_is_silent() {
        let pattern = [true; 8];
        let mut det = EnergyDetector::new(-40.0);
        let rx = pulses(&pattern, 1e-4); // -80 dBm power
        let bits = det.process(&rx);
        assert!(bits.iter().all(|&b| !b));
    }

    #[test]
    fn chunked_processing_matches_block() {
        let pattern = [true, true, false, true, false, true, true, false];
        let rx = pulses(&pattern, 5e-3);
        let mut a = EnergyDetector::new(-60.0);
        let block = a.process(&rx);
        let mut b = EnergyDetector::new(-60.0);
        let mut chunked = Vec::new();
        for chunk in rx.chunks(13) {
            chunked.extend(b.process(chunk));
        }
        assert_eq!(block, chunked);
    }

    #[test]
    fn correlator_finds_pattern_in_stream() {
        let pattern = backfi_coding::prbs::default_ap_preamble();
        let mut c = PreambleCorrelator::new(pattern.clone(), 16);
        // noise bits then the pattern
        let mut hits = 0;
        for &b in [true, false, false, true, true, false]
            .iter()
            .chain(pattern.iter())
        {
            if c.push(b) {
                hits += 1;
            }
        }
        assert_eq!(hits, 1);
    }

    #[test]
    fn correlator_tolerates_one_error_at_15_of_16() {
        let pattern = backfi_coding::prbs::default_ap_preamble();
        let mut flipped = pattern.clone();
        flipped[7] = !flipped[7];
        let mut c = PreambleCorrelator::new(pattern, 15);
        let mut hit = false;
        for &b in &flipped {
            hit |= c.push(b);
        }
        assert!(hit);
    }

    #[test]
    fn correlator_rejects_wrong_tag_pattern() {
        // Per-tag addressing (§4.1): tag 2's correlator must not fire on
        // tag 1's preamble.
        let p1 = backfi_coding::prbs::tag_preamble(1);
        let p2 = backfi_coding::prbs::tag_preamble(2);
        let mut c = PreambleCorrelator::new(p2, 15);
        let mut hit = false;
        for &b in &p1 {
            hit |= c.push(b);
        }
        assert!(!hit);
    }

    #[test]
    fn peak_hold_adapts_threshold() {
        // After a strong pulse, a half-amplitude pulse still reads as 1
        // (threshold = peak/2), but a tenth-amplitude pulse reads 0.
        let mut det = EnergyDetector::new(-80.0);
        let strong = pulses(&[true], 1e-2);
        let half = pulses(&[true], (0.6e-4f64).sqrt()); // power 0.6e-4 ≥ peak/2? peak=1e-4
        let weak = pulses(&[true], 1e-3); // power 1e-6 « peak/2
        det.process(&strong);
        assert_eq!(det.process(&half), vec![true]);
        assert_eq!(det.process(&weak), vec![false]);
    }
}
