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
    /// Leftover samples of a bit that straddles calls (fewer than
    /// [`SAMPLES_PER_BIT`]).
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
    pub fn process(&mut self, mut incident: &[Complex]) -> Vec<bool> {
        let mut bits = Vec::with_capacity(incident.len() / SAMPLES_PER_BIT + 1);
        while !incident.is_empty() {
            let (taken, bit) = self.next_bit(incident);
            bits.extend(bit);
            incident = &incident[taken..];
        }
        bits
    }

    /// Feed samples from the front of `incident` until one comparator bit
    /// completes or the samples run out: returns how many samples were
    /// taken and the bit, if one completed. A whole microsecond that starts
    /// on a bit boundary is decided in place; a bit that straddles calls
    /// collects its samples first.
    pub(crate) fn next_bit(&mut self, incident: &[Complex]) -> (usize, Option<bool>) {
        if self.pending.is_empty() {
            if let Some(block) = incident.get(..SAMPLES_PER_BIT) {
                let bit = decide(&mut self.peak, self.sensitivity, block);
                return (SAMPLES_PER_BIT, Some(bit));
            }
        }
        let take = (SAMPLES_PER_BIT - self.pending.len()).min(incident.len());
        self.pending.extend_from_slice(&incident[..take]);
        if self.pending.len() < SAMPLES_PER_BIT {
            return (take, None);
        }
        let bit = decide(&mut self.peak, self.sensitivity, &self.pending);
        self.pending.clear();
        (take, Some(bit))
    }

    /// Reset all state (new listening session).
    pub fn reset(&mut self) {
        self.peak = 0.0;
        self.pending.clear();
    }
}

/// The comparator decision on one microsecond of samples: the block's mean
/// power, summed in sample order, against half the decaying held `peak` and
/// the `sensitivity` floor.
fn decide(peak: &mut f64, sensitivity: f64, block: &[Complex]) -> bool {
    debug_assert_eq!(block.len(), SAMPLES_PER_BIT);
    let p: f64 = block.iter().map(|v| v.norm_sqr()).sum::<f64>() / SAMPLES_PER_BIT as f64;
    // Peak hold with slow decay (~1% per µs).
    *peak = (*peak * 0.99).max(p);
    let threshold = (*peak / 2.0).max(sensitivity);
    p >= threshold && p >= sensitivity
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

    /// The comparator as it decided sample by sample before whole-bit
    /// decisions: every sample goes into a pending buffer, and a bit is
    /// decided, from the buffer's in-order power sum, when it holds a
    /// microsecond. The oracle [`EnergyDetector::next_bit`] is pinned
    /// against.
    struct SampleDetector {
        sensitivity: f64,
        peak: f64,
        pending: Vec<Complex>,
    }

    impl SampleDetector {
        fn new(sensitivity_dbm: f64) -> Self {
            SampleDetector {
                sensitivity: 10f64.powf(sensitivity_dbm / 10.0),
                peak: 0.0,
                pending: Vec::new(),
            }
        }

        fn push(&mut self, s: Complex) -> Option<bool> {
            self.pending.push(s);
            if self.pending.len() < SAMPLES_PER_BIT {
                return None;
            }
            let p: f64 =
                self.pending.iter().map(|v| v.norm_sqr()).sum::<f64>() / SAMPLES_PER_BIT as f64;
            self.pending.clear();
            self.peak = (self.peak * 0.99).max(p);
            let threshold = (self.peak / 2.0).max(self.sensitivity);
            Some(p >= threshold && p >= self.sensitivity)
        }
    }

    /// Samples of `bits` microseconds at random energies (log-uniform over
    /// eight decades around the sensitivity, some bits silent) and phases,
    /// plus `tail` samples of a last, partial bit.
    fn random_energies(
        rng: &mut backfi_dsp::rng::SplitMix64,
        bits: usize,
        tail: usize,
    ) -> Vec<Complex> {
        let mut v = Vec::new();
        for i in 0..bits * SAMPLES_PER_BIT + tail {
            if i % SAMPLES_PER_BIT == 0 && rng.next_f64() < 0.2 {
                v.extend(std::iter::repeat_n(Complex::ZERO, SAMPLES_PER_BIT));
            }
            let amp = 10f64.powf(-1.0 - 4.0 * rng.next_f64());
            v.push(Complex::from_polar(amp, 6.3 * rng.next_f64()));
        }
        v.truncate(bits * SAMPLES_PER_BIT + tail);
        v
    }

    #[test]
    fn block_decisions_match_sample_oracle() {
        let mut rng = backfi_dsp::rng::SplitMix64::new(0xDE7);
        for case in 0..40 {
            let tail = case % SAMPLES_PER_BIT;
            let rx = random_energies(&mut rng, 30, tail);
            let mut oracle = SampleDetector::new(-60.0);
            let want: Vec<bool> = rx.iter().filter_map(|&s| oracle.push(s)).collect();
            // Whole, and in ragged chunks that split bits across calls.
            let mut whole = EnergyDetector::new(-60.0);
            assert_eq!(whole.process(&rx), want, "case {case}");
            let mut chunked = EnergyDetector::new(-60.0);
            let mut got = Vec::new();
            let mut rest = &rx[..];
            while !rest.is_empty() {
                let n = (1 + rng.next_u64() as usize % 47).min(rest.len());
                got.extend(chunked.process(&rest[..n]));
                rest = &rest[n..];
            }
            assert_eq!(got, want, "case {case}, chunked");
            for det in [&whole, &chunked] {
                assert_eq!(det.peak.to_bits(), oracle.peak.to_bits(), "case {case}");
                assert_eq!(det.pending, oracle.pending, "case {case}");
            }
        }
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
