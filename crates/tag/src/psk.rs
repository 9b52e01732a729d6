//! Gray-coded n-PSK phase mapping for the tag's data symbols.
//!
//! The tag "reads the data that needs to be transmitted, picks out two bits
//! at a time, maps it to the appropriate QPSK symbol and then multiplies the
//! received excitation signal … with the corresponding phase signal" (§4.1).
//! Gray coding makes adjacent constellation points differ in one bit, so the
//! dominant nearest-neighbour errors cost a single bit — which the
//! convolutional code then cleans up.

use crate::config::TagModulation;

/// Gray-encode an index (binary → Gray).
pub fn gray_encode(v: usize) -> usize {
    v ^ (v >> 1)
}

/// Gray-decode (Gray → binary).
pub fn gray_decode(mut g: usize) -> usize {
    let mut v = g;
    while g > 0 {
        g >>= 1;
        v ^= g;
    }
    v
}

/// Map `bits_per_symbol` bits (LSB-first) to a phase in radians.
///
/// The constellation point for bit value `v` is at angle
/// `2π·gray_encode(v)/order`, so Gray-adjacent values are physical
/// neighbours.
///
/// # Panics
/// Panics if `bits.len()` doesn't match the modulation.
pub fn bits_to_phase(m: TagModulation, bits: &[bool]) -> f64 {
    assert_eq!(bits.len(), m.bits_per_symbol(), "wrong bit count for {m:?}");
    let v = bits
        .iter()
        .enumerate()
        .fold(0usize, |acc, (i, &b)| acc | ((b as usize) << i));
    index_phase(m, gray_encode(v))
}

/// Nearest-phase hard decision: returns the bits (LSB-first).
pub fn phase_to_bits(m: TagModulation, phase: f64) -> Vec<bool> {
    let v = gray_decode(hard_index(m, phase));
    (0..m.bits_per_symbol())
        .map(|i| (v >> i) & 1 == 1)
        .collect()
}

/// Nearest-phase hard decision as a constellation (Gray) index: the point
/// at `2π·idx/order` nearest to `phase`, wrapped into `0..order`.
/// `gray_decode` of it is the decided bit value; NaN decides index 0.
/// The non-allocating core of [`phase_to_bits`], for per-symbol loops.
pub fn hard_index(m: TagModulation, phase: f64) -> usize {
    let order = m.order() as f64;
    let step = 2.0 * std::f64::consts::PI / order;
    let mut idx = (phase / step).round() as i64 % m.order() as i64;
    if idx < 0 {
        idx += m.order() as i64;
    }
    idx as usize
}

/// The phase of constellation (Gray) index `idx`, `2π·idx/order`: the
/// ideal point a [`hard_index`] decision refers to.
pub fn index_phase(m: TagModulation, idx: usize) -> f64 {
    2.0 * std::f64::consts::PI * idx as f64 / m.order() as f64
}

/// Reference per-bit soft demapper: recomputes every constellation point
/// (`from_polar` per point per bit) on each call. Kept as the bit-exact
/// oracle the cached [`SoftDemapper`] is pinned against in the `_equiv`
/// tests.
#[cfg(test)]
fn soft_bits_direct(
    m: TagModulation,
    z: backfi_dsp::Complex,
    amp: f64,
    noise_var: f64,
    out: &mut Vec<f64>,
) {
    let n = m.bits_per_symbol();
    let scale = 1.0 / noise_var.max(1e-18);
    for bit in 0..n {
        let mut d0 = f64::INFINITY;
        let mut d1 = f64::INFINITY;
        for v in 0..m.order() {
            let idx = gray_encode(v);
            let phase = 2.0 * std::f64::consts::PI * idx as f64 / m.order() as f64;
            let p = backfi_dsp::Complex::from_polar(amp, phase);
            let d = (z - p).norm_sqr();
            if (v >> bit) & 1 == 1 {
                d1 = d1.min(d);
            } else {
                d0 = d0.min(d);
            }
        }
        out.push((d0 - d1) * scale);
    }
}

/// Cached Gray-PSK soft demapper: the constellation for one
/// `(modulation, amp)` pair, stored as planar `re`/`im` tables in natural
/// bit-value order.
///
/// Construction computes each point with exactly the
/// `Complex::from_polar(amp, 2π·gray(v)/order)` expression the reference
/// `soft_bits_direct` in the tests uses, so the cached distances — and
/// therefore the emitted LLRs — are bit-identical to the reference:
/// per bit, the reference takes `min` over the same distance multiset in the
/// same `v` order, and hoisting the (identical) distance computation out of
/// the bit loop cannot change any `f64::min` chain.
#[derive(Clone, Debug)]
pub struct SoftDemapper {
    order: usize,
    bits: usize,
    /// Planar constellation, natural bit-value order: `pre[v] + j·pim[v]`
    /// is the point a symbol with bit value `v` is transmitted as.
    pre: [f64; 16],
    pim: [f64; 16],
}

impl SoftDemapper {
    /// Precompute the planar constellation tables for `(m, amp)`.
    pub fn new(m: TagModulation, amp: f64) -> Self {
        let mut d = SoftDemapper {
            order: m.order(),
            bits: m.bits_per_symbol(),
            pre: [0.0; 16],
            pim: [0.0; 16],
        };
        for v in 0..d.order {
            let idx = gray_encode(v);
            let phase = 2.0 * std::f64::consts::PI * idx as f64 / m.order() as f64;
            let p = backfi_dsp::Complex::from_polar(amp, phase);
            d.pre[v] = p.re;
            d.pim[v] = p.im;
        }
        d
    }

    /// Append the per-bit max-log LLRs (positive ⇒ bit 1) for phasor `z`
    /// with noise variance `noise_var` to `out`; bit-identical to the
    /// reference `soft_bits_direct` in the tests with the same `(m, amp)`.
    pub fn soft_bits(&self, z: backfi_dsp::Complex, noise_var: f64, out: &mut Vec<f64>) {
        let scale = 1.0 / noise_var.max(1e-18);
        let mut dist = [0.0f64; 16];
        for (v, d) in dist.iter_mut().enumerate().take(self.order) {
            let dre = z.re - self.pre[v];
            let dim = z.im - self.pim[v];
            *d = dre * dre + dim * dim;
        }
        for bit in 0..self.bits {
            let mut d0 = f64::INFINITY;
            let mut d1 = f64::INFINITY;
            for (v, &d) in dist[..self.order].iter().enumerate() {
                if (v >> bit) & 1 == 1 {
                    d1 = d1.min(d);
                } else {
                    d0 = d0.min(d);
                }
            }
            out.push((d0 - d1) * scale);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use backfi_dsp::Complex;

    #[test]
    fn gray_roundtrip() {
        for v in 0..64 {
            assert_eq!(gray_decode(gray_encode(v)), v);
        }
    }

    #[test]
    fn gray_adjacent_differ_one_bit() {
        for v in 0..15usize {
            let d = gray_encode(v) ^ gray_encode(v + 1);
            assert_eq!(d.count_ones(), 1);
        }
    }

    #[test]
    fn phase_roundtrip_all_modulations() {
        for m in TagModulation::ALL {
            for v in 0..m.order() {
                let bits: Vec<bool> = (0..m.bits_per_symbol())
                    .map(|i| (v >> i) & 1 == 1)
                    .collect();
                let phase = bits_to_phase(m, &bits);
                assert_eq!(phase_to_bits(m, phase), bits, "{m:?} v={v}");
            }
        }
    }

    #[test]
    fn phases_are_evenly_spaced() {
        for m in TagModulation::ALL {
            let mut phases: Vec<f64> = (0..m.order())
                .map(|v| {
                    let bits: Vec<bool> = (0..m.bits_per_symbol())
                        .map(|i| (v >> i) & 1 == 1)
                        .collect();
                    bits_to_phase(m, &bits)
                })
                .collect();
            phases.sort_by(f64::total_cmp);
            let step = 2.0 * std::f64::consts::PI / m.order() as f64;
            for (i, p) in phases.iter().enumerate() {
                assert!((p - i as f64 * step).abs() < 1e-12, "{m:?} {i}");
            }
        }
    }

    #[test]
    fn hard_decision_tolerates_noise_within_half_step() {
        let m = TagModulation::Psk16;
        let bits = vec![true, false, true, false];
        let phase = bits_to_phase(m, &bits);
        let step = 2.0 * std::f64::consts::PI / 16.0;
        assert_eq!(phase_to_bits(m, phase + 0.45 * step), bits);
        assert_eq!(phase_to_bits(m, phase - 0.45 * step), bits);
    }

    #[test]
    fn negative_phase_wraps() {
        let m = TagModulation::Qpsk;
        let bits = phase_to_bits(m, -0.1);
        assert_eq!(bits, phase_to_bits(m, 2.0 * std::f64::consts::PI - 0.1));
    }

    /// The allocating hard decision as it stood before [`hard_index`]
    /// existed: the oracle the non-allocating helpers are pinned against.
    fn phase_to_bits_reference(m: TagModulation, phase: f64) -> Vec<bool> {
        let order = m.order() as f64;
        let step = 2.0 * std::f64::consts::PI / order;
        let mut idx = (phase / step).round() as i64 % m.order() as i64;
        if idx < 0 {
            idx += m.order() as i64;
        }
        let v = gray_decode(idx as usize);
        (0..m.bits_per_symbol())
            .map(|i| (v >> i) & 1 == 1)
            .collect()
    }

    /// Companion oracle of [`phase_to_bits_reference`].
    fn bits_to_phase_reference(m: TagModulation, bits: &[bool]) -> f64 {
        let v = bits
            .iter()
            .enumerate()
            .fold(0usize, |acc, (i, &b)| acc | ((b as usize) << i));
        let idx = gray_encode(v);
        2.0 * std::f64::consts::PI * idx as f64 / m.order() as f64
    }

    #[test]
    fn hard_index_matches_allocating_decision_bitwise() {
        use std::f64::consts::PI;
        let adjacent = |p: f64| {
            [
                f64::from_bits(p.to_bits() - 1),
                p,
                f64::from_bits(p.to_bits() + 1),
            ]
        };
        for m in TagModulation::ALL {
            let step = 2.0 * PI / m.order() as f64;
            let mut phases: Vec<f64> = (0..=4000)
                .map(|i| -2.5 * PI + 5.0 * PI * i as f64 / 4000.0)
                .collect();
            phases.extend([PI, -PI, 0.0, -0.0, f64::NAN, -f64::NAN]);
            // Every decision boundary (half-steps) and ideal point over two
            // turns, with both floating-point neighbours.
            for k in -2 * m.order() as i64..=2 * m.order() as i64 {
                for p in [(k as f64 + 0.5) * step, k as f64 * step] {
                    if p != 0.0 {
                        phases.extend(adjacent(p));
                    }
                }
            }
            for phase in phases {
                let want = phase_to_bits_reference(m, phase);
                let idx = hard_index(m, phase);
                assert!(idx < m.order(), "{m:?} {phase}: index {idx}");
                let v = gray_decode(idx);
                let got: Vec<bool> = (0..m.bits_per_symbol())
                    .map(|i| (v >> i) & 1 == 1)
                    .collect();
                assert_eq!(got, want, "{m:?} phase {phase:e}");
                assert_eq!(phase_to_bits(m, phase), want, "{m:?} phase {phase:e}");
                assert_eq!(
                    index_phase(m, idx).to_bits(),
                    bits_to_phase_reference(m, &want).to_bits(),
                    "{m:?} phase {phase:e}"
                );
                assert_eq!(
                    bits_to_phase(m, &want).to_bits(),
                    bits_to_phase_reference(m, &want).to_bits()
                );
            }
        }
    }

    #[test]
    fn soft_bits_cached_matches_direct_bitwise() {
        use backfi_dsp::rng::SplitMix64;
        let mut rng = SplitMix64::new(0xD5);
        for m in TagModulation::ALL {
            for amp in [1.0, 0.37, 2.5] {
                let demap = SoftDemapper::new(m, amp);
                let mut zs: Vec<Complex> = (0..64)
                    .map(|_| {
                        Complex::new(4.0 * (rng.next_f64() - 0.5), 4.0 * (rng.next_f64() - 0.5))
                    })
                    .collect();
                // Hostile lanes: the cached path must reproduce the
                // reference's NaN/∞ propagation exactly.
                zs.push(Complex::new(f64::NAN, 0.3));
                zs.push(Complex::new(f64::INFINITY, -1.0));
                zs.push(Complex::new(0.0, f64::NEG_INFINITY));
                for z in zs {
                    for nv in [1e-3, 0.2, 0.0] {
                        let mut a = Vec::new();
                        let mut b = Vec::new();
                        demap.soft_bits(z, nv, &mut a);
                        soft_bits_direct(m, z, amp, nv, &mut b);
                        assert_eq!(a.len(), b.len());
                        for (i, (p, q)) in a.iter().zip(&b).enumerate() {
                            assert_eq!(
                                p.to_bits(),
                                q.to_bits(),
                                "{m:?} amp {amp} z {z:?} bit {i}: {p} vs {q}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn soft_bits_sign_matches_hard_decision() {
        for m in TagModulation::ALL {
            for v in 0..m.order() {
                let bits: Vec<bool> = (0..m.bits_per_symbol())
                    .map(|i| (v >> i) & 1 == 1)
                    .collect();
                let phase = bits_to_phase(m, &bits);
                let z = Complex::from_polar(1.0, phase);
                let mut llr = Vec::new();
                SoftDemapper::new(m, 1.0).soft_bits(z, 0.01, &mut llr);
                for (i, &b) in bits.iter().enumerate() {
                    assert_eq!(llr[i] > 0.0, b, "{m:?} v={v} bit {i}");
                }
            }
        }
    }
}
