//! Pseudo-random binary sequences.
//!
//! Two protocol elements of BackFi are built on PN sequences (§4.1):
//! * the AP's 16-bit wake-up/identification preamble, pulsed at 1 µs per bit
//!   ("a series of short pulses to encode a pseudo-random preamble sequence"),
//! * the tag's 32 µs synchronization preamble, "pseudo random with very high
//!   auto-correlation", used by the reader for channel estimation and symbol
//!   timing.
//!
//! Maximal-length LFSR sequences (m-sequences) give exactly the required
//! two-valued autocorrelation (N vs −1).

/// A Fibonacci LFSR over GF(2) defined by a tap mask.
///
/// `taps` has bit i set when register bit i feeds the XOR (bit 0 is the
/// output end). With a primitive polynomial the period is `2^degree − 1`.
#[derive(Clone, Debug)]
pub struct Lfsr {
    state: u32,
    taps: u32,
    degree: u32,
}

impl Lfsr {
    /// Create an LFSR of the given degree with `taps` (must include bit
    /// `degree−1`) and a nonzero initial state.
    ///
    /// # Panics
    /// Panics if `degree` is 0 or > 31, or `state` is zero after masking.
    pub fn new(degree: u32, taps: u32, state: u32) -> Self {
        assert!((1..=31).contains(&degree), "degree must be 1..=31");
        let mask = (1u32 << degree) - 1;
        let state = state & mask;
        assert!(state != 0, "LFSR state must be nonzero");
        Lfsr {
            state,
            taps: taps & mask,
            degree,
        }
    }

    /// Standard maximal-length generators for a few degrees used in BackFi.
    ///
    /// # Panics
    /// Panics for unsupported degrees (supported: 4, 5, 6, 7, 9, 15).
    pub fn maximal(degree: u32, seed: u32) -> Self {
        // Tap masks encode the recurrence x_{n+d} = XOR of x_{n+i} for set
        // bits i. Each corresponds to a primitive polynomial x^d + x^i + 1
        // (bit 0 is always set because the polynomial's constant term maps to
        // the oldest register bit under this crate's shift-right convention).
        let taps = match degree {
            4 => 0b1001,                // x^4 + x^3 + 1
            5 => 0b0_1001,              // x^5 + x^3 + 1
            6 => 0b10_0001,             // x^6 + x^5 + 1
            7 => 0b100_0001,            // x^7 + x^6 + 1
            9 => 0b0_0010_0001,         // x^9 + x^5 + 1
            15 => 0b100_0000_0000_0001, // x^15 + x^14 + 1
            _ => panic!("no canned maximal polynomial for degree {degree}"),
        };
        Lfsr::new(degree, taps, seed)
    }

    /// Advance one step, returning the output bit.
    #[inline]
    pub fn next_bit(&mut self) -> bool {
        let out = self.state & 1 == 1;
        let fb = (self.state & self.taps).count_ones() & 1;
        self.state = (self.state >> 1) | (fb << (self.degree - 1));
        out
    }

    /// Generate `n` bits.
    pub fn bits(&mut self, n: usize) -> Vec<bool> {
        (0..n).map(|_| self.next_bit()).collect()
    }

    /// Sequence period (`2^degree − 1` when the polynomial is primitive).
    pub fn period(&self) -> usize {
        (1usize << self.degree) - 1
    }
}

/// The default 16-bit AP wake-up preamble used throughout the workspace.
/// One fixed draw from a degree-15 m-sequence; tags can be assigned other
/// 16-bit patterns to support per-tag addressing.
pub fn default_ap_preamble() -> Vec<bool> {
    Lfsr::maximal(15, 0x4D2E).bits(16)
}

/// A per-tag 16-bit identification preamble derived from the tag id.
pub fn tag_preamble(tag_id: u16) -> Vec<bool> {
    // Different nonzero seeds give different phases of the m-sequence, which
    // have low mutual correlation.
    let seed = (tag_id as u32).wrapping_mul(0x9E37).wrapping_add(1) & 0x7FFF;
    Lfsr::maximal(15, seed.max(1)).bits(16)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maximal_period() {
        for degree in [4u32, 5, 6, 7, 9] {
            let mut l = Lfsr::maximal(degree, 1);
            let period = l.period();
            let seq = l.bits(period * 2);
            assert_eq!(&seq[..period], &seq[period..], "degree {degree}");
            // no shorter period dividing it: check the first repeat isn't earlier
            for p in 1..period {
                if period.is_multiple_of(p)
                    && seq[..p] == seq[p..2 * p]
                    && seq[..period - p] == seq[p..period]
                {
                    panic!("degree {degree} repeated at {p}");
                }
            }
        }
    }

    #[test]
    fn balance_property() {
        // m-sequence of degree n has 2^(n-1) ones per period.
        let mut l = Lfsr::maximal(7, 3);
        let ones = l.bits(127).iter().filter(|&&b| b).count();
        assert_eq!(ones, 64);
    }

    #[test]
    fn two_valued_autocorrelation() {
        let mut l = Lfsr::maximal(6, 1);
        let period = l.period();
        let chips: Vec<i32> = l
            .bits(period)
            .iter()
            .map(|&b| if b { 1 } else { -1 })
            .collect();
        let n = chips.len();
        let autocorr =
            |lag: usize| -> i32 { (0..n).map(|i| chips[i] * chips[(i + lag) % n]).sum() };
        assert_eq!(autocorr(0), n as i32);
        for lag in 1..n {
            assert_eq!(autocorr(lag), -1, "lag {lag}");
        }
    }

    #[test]
    fn preambles_are_16_bits_and_distinct() {
        let ap = default_ap_preamble();
        assert_eq!(ap.len(), 16);
        let a = tag_preamble(1);
        let b = tag_preamble(2);
        assert_eq!(a.len(), 16);
        assert_ne!(a, b, "different tags must get different preambles");
    }

    #[test]
    fn deterministic() {
        assert_eq!(default_ap_preamble(), default_ap_preamble());
        assert_eq!(tag_preamble(42), tag_preamble(42));
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn rejects_zero_state() {
        Lfsr::new(5, 0b10100, 0);
    }
}
