//! Bit/byte packing helpers.
//!
//! Both PHYs in this workspace operate on `Vec<bool>` bit streams between the
//! coding stages; frames at the MAC boundary are byte-oriented. 802.11
//! transmits each byte LSB-first, and the tag link uses the same convention
//! for consistency.

/// Unpack bytes to bits, LSB of each byte first (the 802.11 convention).
pub fn bytes_to_bits_lsb(bytes: &[u8]) -> Vec<bool> {
    let mut bits = Vec::with_capacity(bytes.len() * 8);
    for &b in bytes {
        for i in 0..8 {
            bits.push((b >> i) & 1 == 1);
        }
    }
    bits
}

/// Pack bits (LSB-first per byte) back into bytes. The bit length must be a
/// multiple of 8.
///
/// # Panics
/// Panics if `bits.len() % 8 != 0`.
pub fn bits_to_bytes_lsb(bits: &[bool]) -> Vec<u8> {
    assert_eq!(bits.len() % 8, 0, "bit count must be a multiple of 8");
    bits.chunks_exact(8)
        .map(|c| {
            c.iter()
                .enumerate()
                .fold(0u8, |acc, (i, &b)| acc | ((b as u8) << i))
        })
        .collect()
}

/// Count positions where two bit slices differ (Hamming distance).
///
/// # Panics
/// Panics if lengths differ.
pub fn hamming_distance(a: &[bool], b: &[bool]) -> usize {
    assert_eq!(a.len(), b.len(), "hamming_distance: length mismatch");
    a.iter().zip(b).filter(|(x, y)| x != y).count()
}

/// Bit error rate between a transmitted and received bit stream, comparing
/// the overlapping prefix. Returns `None` when either stream is empty.
pub fn bit_error_rate(tx: &[bool], rx: &[bool]) -> Option<f64> {
    let n = tx.len().min(rx.len());
    if n == 0 {
        return None;
    }
    // Bits the receiver never produced count as errors.
    let missing = tx.len().saturating_sub(rx.len());
    let errs = hamming_distance(&tx[..n], &rx[..n]) + missing;
    Some(errs as f64 / tx.len().max(1) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_roundtrip() {
        let bytes = vec![0x00, 0xFF, 0xA5, 0x3C, 0x01];
        assert_eq!(bits_to_bytes_lsb(&bytes_to_bits_lsb(&bytes)), bytes);
    }

    #[test]
    fn lsb_first_ordering() {
        let bits = bytes_to_bits_lsb(&[0b0000_0001]);
        assert!(bits[0]);
        assert!(bits[1..].iter().all(|b| !b));
    }

    #[test]
    fn hamming() {
        let a = [true, false, true];
        let b = [true, true, false];
        assert_eq!(hamming_distance(&a, &b), 2);
        assert_eq!(hamming_distance(&a, &a), 0);
    }

    #[test]
    fn ber() {
        let tx = vec![true; 10];
        let mut rx = tx.clone();
        rx[0] = false;
        assert!((bit_error_rate(&tx, &rx).unwrap() - 0.1).abs() < 1e-12);
        assert_eq!(bit_error_rate(&[], &rx), None);
        // truncated rx counts missing bits as errors
        assert!((bit_error_rate(&tx, &tx[..5]).unwrap() - 0.5).abs() < 1e-12);
    }
}
