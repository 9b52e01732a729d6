//! Convolutional encoding.
//!
//! The industry-standard K=7 code with generator polynomials 133/171 (octal)
//! is used by 802.11a/g and by the BackFi tag (§4.1). The encoder is exactly
//! the "6 shift registers and 8 XOR gates" circuit the paper describes; the
//! [`crate::viterbi`] module decodes it.

/// Constraint length of the standard 802.11 / BackFi code.
pub const CONSTRAINT_LENGTH: usize = 7;
/// Generator polynomial g0 = 133 octal (0b1011011).
pub const G0: u32 = 0o133;
/// Generator polynomial g1 = 171 octal (0b1111001).
pub const G1: u32 = 0o171;

/// A rate-1/2 convolutional encoder with configurable constraint length and
/// two generator polynomials. State is kept across calls so a frame can be
/// encoded in pieces; call [`ConvEncoder::reset`] between frames.
#[derive(Clone, Debug)]
pub struct ConvEncoder {
    k: usize,
    g0: u32,
    g1: u32,
    state: u32,
}

impl Default for ConvEncoder {
    fn default() -> Self {
        Self::ieee80211()
    }
}

impl ConvEncoder {
    /// The standard K=7, (133, 171) encoder.
    pub fn ieee80211() -> Self {
        Self::new(CONSTRAINT_LENGTH, G0, G1)
    }

    /// Custom code. `k` is the constraint length (number of taps including the
    /// current input); polynomials are given with the conventional bit order
    /// where the MSB (bit `k−1`) multiplies the newest input bit.
    ///
    /// # Panics
    /// Panics if `k` is 0 or greater than 16.
    pub fn new(k: usize, g0: u32, g1: u32) -> Self {
        assert!(k > 0 && k <= 16, "constraint length must be in 1..=16");
        ConvEncoder {
            k,
            g0,
            g1,
            state: 0,
        }
    }

    /// Number of memory bits (`k − 1`).
    pub fn memory(&self) -> usize {
        self.k - 1
    }

    /// Zero the shift register.
    pub fn reset(&mut self) {
        self.state = 0;
    }

    /// Encode one input bit to two output bits `(b0, b1)` — the outputs of
    /// the g0 and g1 XOR trees.
    #[inline]
    pub fn push(&mut self, bit: bool) -> (bool, bool) {
        // Shift register: newest bit in the MSB position (bit k-1).
        self.state = ((self.state >> 1) | ((bit as u32) << (self.k - 1))) & ((1 << self.k) - 1);
        let b0 = (self.state & self.g0).count_ones() & 1 == 1;
        let b1 = (self.state & self.g1).count_ones() & 1 == 1;
        (b0, b1)
    }

    /// Encode a block of bits. Output has `2 × input.len()` bits, interleaved
    /// as `b0, b1, b0, b1, …`. Does **not** reset or flush — see
    /// [`ConvEncoder::encode_terminated`] for the framed variant.
    pub fn encode(&mut self, bits: &[bool]) -> Vec<bool> {
        let mut out = Vec::with_capacity(bits.len() * 2);
        for &b in bits {
            let (b0, b1) = self.push(b);
            out.push(b0);
            out.push(b1);
        }
        out
    }

    /// Encode a whole frame from the zero state and append `k − 1` zero tail
    /// bits so the trellis terminates at state 0 (this is what both 802.11 and
    /// the tag do; it lets the Viterbi decoder anchor the traceback).
    pub fn encode_terminated(&mut self, bits: &[bool]) -> Vec<bool> {
        self.reset();
        let mut out = self.encode(bits);
        for _ in 0..self.memory() {
            let (b0, b1) = self.push(false);
            out.push(b0);
            out.push(b1);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_test_vector_all_zeros() {
        let mut enc = ConvEncoder::ieee80211();
        let out = enc.encode_terminated(&[false; 8]);
        assert_eq!(out.len(), (8 + 6) * 2);
        assert!(out.iter().all(|b| !b));
    }

    #[test]
    fn impulse_response_matches_polynomials() {
        // A single 1 followed by zeros walks the 1 across the register; the
        // g0 output sequence equals the binary expansion of G0 (MSB first,
        // since the newest bit occupies the MSB).
        let mut enc = ConvEncoder::ieee80211();
        let mut input = vec![true];
        input.extend(std::iter::repeat_n(false, 6));
        let out = enc.encode_terminated(&input);
        let g0_bits: Vec<bool> = (0..7).rev().map(|i| (G0 >> i) & 1 == 1).collect();
        let g1_bits: Vec<bool> = (0..7).rev().map(|i| (G1 >> i) & 1 == 1).collect();
        for i in 0..7 {
            assert_eq!(out[2 * i], g0_bits[i], "g0 bit {i}");
            assert_eq!(out[2 * i + 1], g1_bits[i], "g1 bit {i}");
        }
    }

    #[test]
    fn linearity_over_gf2() {
        // conv codes are linear: enc(a ^ b) == enc(a) ^ enc(b)
        let a: Vec<bool> = (0..32).map(|i| i % 3 == 0).collect();
        let b: Vec<bool> = (0..32).map(|i| i % 5 == 1).collect();
        let xor: Vec<bool> = a.iter().zip(&b).map(|(x, y)| x ^ y).collect();
        let mut enc = ConvEncoder::ieee80211();
        let ea = enc.encode_terminated(&a);
        let eb = enc.encode_terminated(&b);
        let exor = enc.encode_terminated(&xor);
        for i in 0..ea.len() {
            assert_eq!(exor[i], ea[i] ^ eb[i], "bit {i}");
        }
    }

    #[test]
    fn stateful_encoding_matches_block() {
        let bits: Vec<bool> = (0..40).map(|i| (i * 7) % 11 < 5).collect();
        let mut enc = ConvEncoder::ieee80211();
        enc.reset();
        let mut chunked = enc.encode(&bits[..13]);
        chunked.extend(enc.encode(&bits[13..]));
        let mut enc2 = ConvEncoder::ieee80211();
        enc2.reset();
        let block = enc2.encode(&bits);
        assert_eq!(chunked, block);
    }

    #[test]
    fn terminated_frame_ends_in_zero_state() {
        let bits: Vec<bool> = (0..25).map(|i| i % 2 == 0).collect();
        let mut enc = ConvEncoder::ieee80211();
        enc.encode_terminated(&bits);
        // The forward-going memory is state >> 1; the tail must have flushed it.
        assert_eq!(enc.state >> 1, 0, "memory bits must be zero after tail");
    }

    #[test]
    fn time_invariance() {
        // Shifting the input by k-1 zeros shifts the output by 2(k-1) bits.
        let bits: Vec<bool> = (0..16).map(|i| (i * 5) % 7 < 3).collect();
        let mut enc = ConvEncoder::ieee80211();
        enc.reset();
        let direct = enc.encode(&bits);
        let mut padded = vec![false; 6];
        padded.extend_from_slice(&bits);
        enc.reset();
        let shifted = enc.encode(&padded);
        assert_eq!(&shifted[12..], &direct[..]);
    }
}
