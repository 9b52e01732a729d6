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
    index_phase(m, bits_to_index(m, bits))
}

/// Map `bits_per_symbol` bits (LSB-first) to their constellation (Gray)
/// index `gray_encode(v)`: the index whose phase [`bits_to_phase`] returns.
///
/// # Panics
/// Panics if `bits.len()` doesn't match the modulation.
pub fn bits_to_index(m: TagModulation, bits: &[bool]) -> usize {
    assert_eq!(bits.len(), m.bits_per_symbol(), "wrong bit count for {m:?}");
    let v = bits
        .iter()
        .enumerate()
        .fold(0usize, |acc, (i, &b)| acc | ((b as usize) << i));
    gray_encode(v)
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

/// Relative width of the band around each decision boundary inside which
/// [`hard_index_of`] defers to `hard_index(m, z.arg())`. It is far wider
/// than the few-ulp error of `atan2`, of the division by the step and of
/// the boundary products, so outside it the geometric decision and the
/// `atan2` one agree; it is far narrower than the noise on any symbol, so
/// almost no symbol lands inside it.
const SLICE_MARGIN: f64 = 1e-9;
/// tan(π/16) and tan(3π/16): the two 16PSK decision boundaries inside the
/// first octant, as slopes `v/u`.
const TAN_PI_16: f64 = 0.198_912_367_379_658;
const TAN_3PI_16: f64 = 0.668_178_637_919_298_9;

/// Nearest-phase hard decision of the phasor `z` as a constellation (Gray)
/// index: exactly `hard_index(m, z.arg())` for every `z`, without the
/// `atan2` for almost all of them.
///
/// `z` is folded into the first octant (`u = max(|re|, |im|)`,
/// `v = min(|re|, |im|)`), `v` is compared with `u·tan` of each decision
/// boundary inside the octant, and the sector is unfolded by the swap and
/// the two signs. An input within a relative 1e-9 of a boundary, on an
/// axis or zero (where `atan2` reads the signs of zeros), with a subnormal
/// or non-finite component as its larger magnitude, or with a NaN
/// component takes the `hard_index(m, z.arg())` path itself.
#[inline]
pub fn hard_index_of(m: TagModulation, z: backfi_dsp::Complex) -> usize {
    octant_index(m, z).unwrap_or_else(|| hard_index(m, z.arg()))
}

/// The geometric decision of [`hard_index_of`], or `None` for an input it
/// leaves to `hard_index`.
#[inline(always)]
fn octant_index(m: TagModulation, z: backfi_dsp::Complex) -> Option<usize> {
    let (a, b) = (z.re.abs(), z.im.abs());
    // `swapped`: the imaginary part dominates, so the first-quadrant angle
    // is π/2 minus the octant's. A NaN leaves `u` or `v` NaN.
    let swapped = a < b;
    let (u, v) = if swapped { (b, a) } else { (a, b) };
    if !(v > 0.0 && (f64::MIN_POSITIVE..f64::INFINITY).contains(&u)) {
        return None;
    }
    let order = m.order();
    // The index within the first quadrant, in steps of 2π/order.
    let q = match m {
        TagModulation::Bpsk => {
            // The one boundary is the imaginary axis.
            if swapped && v <= u * SLICE_MARGIN {
                return None;
            }
            return Some((z.re < 0.0) as usize);
        }
        TagModulation::Qpsk => {
            // The boundary is the diagonal `u = v`, the octant's edge.
            if v >= u * (1.0 - SLICE_MARGIN) {
                return None;
            }
            swapped as usize
        }
        TagModulation::Psk16 => {
            let (t1, t3, band) = (u * TAN_PI_16, u * TAN_3PI_16, u * SLICE_MARGIN);
            if (v - t1).abs() <= band || (v - t3).abs() <= band {
                return None;
            }
            let s = (v > t1) as usize + (v > t3) as usize;
            if swapped {
                4 - s
            } else {
                s
            }
        }
    };
    let q = if z.re < 0.0 { order / 2 - q } else { q };
    let q = if z.im < 0.0 { order - q } else { q };
    Some(q & (order - 1))
}

/// The phase of constellation (Gray) index `idx`, `2π·idx/order`: the
/// ideal point a [`hard_index`] decision refers to.
pub fn index_phase(m: TagModulation, idx: usize) -> f64 {
    2.0 * std::f64::consts::PI * idx as f64 / m.order() as f64
}

/// The unit phasors `exp(j·index_phase(m, idx))` of every constellation
/// index `idx < m.order()`, in index order (the entries past the order are
/// zero): the ideal point of a [`hard_index`] decision, computed once per
/// call site instead of once per symbol.
pub fn ideal_points(m: TagModulation) -> [backfi_dsp::Complex; 16] {
    let mut points = [backfi_dsp::Complex::ZERO; 16];
    for (idx, p) in points.iter_mut().enumerate().take(m.order()) {
        *p = backfi_dsp::Complex::exp_j(index_phase(m, idx));
    }
    points
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
/// bit-value order, demapped by one body per constellation order.
///
/// Construction computes each point with exactly the
/// `Complex::from_polar(amp, 2π·gray(v)/order)` expression the reference
/// `soft_bits_direct` in the tests uses, so the cached distances — and
/// therefore the emitted LLRs — are bit-identical to the reference: per
/// bit, both take the minimum over the same distances. Every distance is a
/// sum of squares, so it is `+0` or more (never `-0`) and the minimum is
/// one value bit for bit whatever the order it is taken in; a NaN distance
/// never wins, neither under `f64::min` from `+∞` nor under the
/// compare-select `if d < m`.
#[derive(Clone, Debug)]
pub struct SoftDemapper {
    modulation: TagModulation,
    /// Planar constellation, natural bit-value order: `pre[v] + j·pim[v]`
    /// is the point a symbol with bit value `v` is transmitted as.
    pre: [f64; 16],
    pim: [f64; 16],
}

impl SoftDemapper {
    /// Precompute the planar constellation tables for `(m, amp)`.
    pub fn new(m: TagModulation, amp: f64) -> Self {
        let mut d = SoftDemapper {
            modulation: m,
            pre: [0.0; 16],
            pim: [0.0; 16],
        };
        for v in 0..m.order() {
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
    #[inline]
    pub fn soft_bits(&self, z: backfi_dsp::Complex, noise_var: f64, out: &mut Vec<f64>) {
        match self.modulation {
            TagModulation::Bpsk => self.soft_bits_of::<2, 1>(z, noise_var, out),
            TagModulation::Qpsk => self.soft_bits_of::<4, 2>(z, noise_var, out),
            TagModulation::Psk16 => self.soft_bits_of::<16, 4>(z, noise_var, out),
        }
    }

    /// [`SoftDemapper::soft_bits`] for an `ORDER`-point constellation of
    /// `BITS` bits per symbol, with the loops fixed at compile time.
    #[inline(always)]
    fn soft_bits_of<const ORDER: usize, const BITS: usize>(
        &self,
        z: backfi_dsp::Complex,
        noise_var: f64,
        out: &mut Vec<f64>,
    ) {
        let scale = 1.0 / noise_var.max(1e-18);
        let mut dist = [0.0f64; ORDER];
        for (v, d) in dist.iter_mut().enumerate() {
            let dre = z.re - self.pre[v];
            let dim = z.im - self.pim[v];
            *d = dre * dre + dim * dim;
        }
        let mut llrs = [0.0f64; BITS];
        for (bit, llr) in llrs.iter_mut().enumerate() {
            let mut d0 = f64::INFINITY;
            let mut d1 = f64::INFINITY;
            for (v, &d) in dist.iter().enumerate() {
                let m = if (v >> bit) & 1 == 1 {
                    &mut d1
                } else {
                    &mut d0
                };
                *m = if d < *m { d } else { *m };
            }
            *llr = (d0 - d1) * scale;
        }
        out.extend_from_slice(&llrs);
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

    /// Check [`hard_index_of`] against its oracle on `z`, and return
    /// whether the input took the `atan2` fallback.
    fn check_slicer(m: TagModulation, z: Complex) -> bool {
        let want = hard_index(m, z.arg());
        assert_eq!(
            hard_index_of(m, z),
            want,
            "{m:?} z ({:e}, {:e})",
            z.re,
            z.im
        );
        octant_index(m, z).is_none()
    }

    /// `p` moved by `k` units in the last place (same sign, no zero crossing
    /// for the finite non-zero `p` and small `k` used here).
    fn ulps(p: f64, k: i64) -> f64 {
        f64::from_bits((p.to_bits() as i64 + k) as u64)
    }

    #[test]
    fn octant_slicer_matches_atan2_on_random_points() {
        use backfi_dsp::rng::SplitMix64;
        let mut rng = SplitMix64::new(0x51CE);
        for m in TagModulation::ALL {
            let mut fallbacks = 0usize;
            const POINTS: usize = 1 << 20;
            for i in 0..POINTS {
                // Radii across the whole normal range, and every eighth
                // point with independent component scales.
                let e = (rng.next_f64() * 600.0 - 300.0) as i32;
                let f = if i % 8 == 0 {
                    (rng.next_f64() * 600.0 - 300.0) as i32
                } else {
                    e
                };
                let z = Complex::new(
                    (2.0 * rng.next_f64() - 1.0) * 10f64.powi(e),
                    (2.0 * rng.next_f64() - 1.0) * 10f64.powi(f),
                );
                // Independent scales put a BPSK point near the imaginary
                // axis, inside its band, half the time.
                fallbacks += (check_slicer(m, z) && e == f) as usize;
            }
            // The band is ~1e-9 wide: random points of one scale almost
            // never fall back.
            assert!(fallbacks < POINTS / 10_000, "{m:?}: {fallbacks} fallbacks");
        }
    }

    #[test]
    fn octant_slicer_matches_atan2_at_decision_boundaries() {
        use std::f64::consts::TAU;
        for m in TagModulation::ALL {
            let (mut fast, mut fallbacks) = (0usize, 0usize);
            let mut count = |fell_back: bool| {
                if fell_back {
                    fallbacks += 1;
                } else {
                    fast += 1;
                }
            };
            let step = TAU / m.order() as f64;
            for k in 0..m.order() {
                let boundary = (k as f64 + 0.5) * step;
                for r in [1e-300, 1e-10, 1.0, 1e10, 1e300] {
                    // ±50 ulps of the boundary angle, and of each component
                    // of the point on it.
                    let (x, y) = (r * boundary.cos(), r * boundary.sin());
                    for d in -50..=50 {
                        let a = ulps(boundary, d);
                        count(check_slicer(m, Complex::new(r * a.cos(), r * a.sin())));
                        count(check_slicer(m, Complex::new(ulps(x, d), y)));
                        count(check_slicer(m, Complex::new(x, ulps(y, d))));
                    }
                    // Both sides of the fallback band's edge.
                    for delta in [1e-11, 1e-10, 3e-10, 1e-9, 3e-9, 1e-8, 1e-6, 1e-3] {
                        for a in [boundary - delta, boundary + delta] {
                            count(check_slicer(m, Complex::new(r * a.cos(), r * a.sin())));
                        }
                    }
                }
            }
            assert!(fallbacks > 0, "{m:?}: no boundary input fell back");
            assert!(fast > 0, "{m:?}: no boundary input was sliced");
        }
    }

    #[test]
    fn octant_slicer_matches_atan2_on_special_values() {
        let tiny = f64::MIN_POSITIVE / 8.0; // subnormal
        let values = [
            0.0,
            -0.0,
            1.0,
            -1.0,
            0.3,
            -0.3,
            tiny,
            -tiny,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            f64::MAX,
            -f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
        ];
        for m in TagModulation::ALL {
            let mut fallbacks = 0usize;
            for &re in &values {
                for &im in &values {
                    fallbacks += check_slicer(m, Complex::new(re, im)) as usize;
                }
            }
            // Zero, the axes, subnormal and non-finite inputs all fall back.
            assert!(fallbacks > values.len(), "{m:?}: {fallbacks} fallbacks");
            assert!(octant_index(m, Complex::ZERO).is_none());
        }
    }

    /// Index → phase → index round trips are identities on every index:
    /// `round(phase/2π·order) % order` of a bit value's phase is its Gray
    /// index, and `hard_index` of an index's own phase is that index. So
    /// the framer and the link's pre-FEC BER take the index directly.
    #[test]
    fn index_phase_round_trips_are_identities() {
        use std::f64::consts::TAU;
        for m in TagModulation::ALL {
            let order = m.order();
            for v in 0..order {
                let bits: Vec<bool> = (0..m.bits_per_symbol())
                    .map(|i| (v >> i) & 1 == 1)
                    .collect();
                let phase = bits_to_phase(m, &bits);
                let framer = ((phase / TAU * order as f64).round() as usize) % order;
                assert_eq!(framer, bits_to_index(m, &bits), "{m:?} v={v}");
                assert_eq!(framer, gray_encode(v), "{m:?} v={v}");
                let report = gray_decode(hard_index(m, TAU * v as f64 / order as f64));
                assert_eq!(report, gray_decode(v), "{m:?} index {v}");
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
                // Hostile lanes: the order-specialised bodies must
                // reproduce the reference's NaN/∞ propagation, signed
                // zeros, subnormals and overflowing distances exactly.
                let tiny = f64::MIN_POSITIVE / 8.0; // subnormal
                zs.extend([
                    Complex::new(f64::NAN, 0.3),
                    Complex::new(f64::INFINITY, -1.0),
                    Complex::new(0.0, f64::NEG_INFINITY),
                    Complex::new(0.0, 0.0),
                    Complex::new(-0.0, -0.0),
                    Complex::new(-0.0, 0.0),
                    Complex::new(tiny, -tiny),
                    Complex::new(amp + tiny, 0.0),
                    Complex::new(1e200, -1e200),
                    Complex::new(f64::MAX, f64::MAX),
                    Complex::new(-f64::MAX, 1.0),
                ]);
                for z in zs {
                    for nv in [1e-3, 0.2, 0.0, -0.0, tiny, f64::NAN] {
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
