//! Viterbi decoding of the K=7 (133, 171) rate-1/2 convolutional code
//! (optionally punctured).
//!
//! The BackFi reader runs this after MRC demodulation ("decoded using a
//! standard Viterbi decoder", §4.3.2), and the WiFi client receiver runs it on
//! every packet. Supports both hard decisions and soft metrics; erasures from
//! depuncturing carry zero metric and cost nothing either way.

use crate::conv::{CONSTRAINT_LENGTH, G0, G1};
use crate::puncture::{depuncture_soft, CodeRate};
#[cfg(target_arch = "x86_64")]
use backfi_dsp::simd::{backend, Backend};

/// Trellis states, `2^(K−1)` = 64: one `u64` holds a step's decision bits.
const STATES: usize = 1 << (CONSTRAINT_LENGTH - 1);
/// Butterflies per step.
const HALF: usize = STATES / 2;
/// Zero tail bits the encoder appends to terminate a frame.
const TAIL: usize = CONSTRAINT_LENGTH - 1;
const NEG: f64 = f64::NEG_INFINITY;

/// A Viterbi decoder for the K=7 (133, 171) code, shared by the WiFi receiver
/// and the BackFi reader.
///
/// The decoder runs the code's butterfly form. Trellis state = the 6-bit
/// encoder memory (newest input in the MSB, mirroring
/// [`ConvEncoder::push`](crate::conv::ConvEncoder::push)), so next-state `j`
/// (input 0) and `j + 32` (input 1) are both fed by predecessors `2j` and
/// `2j+1`. Both generators tap the newest and the oldest register bit, so the
/// four branch outputs of butterfly `j` are one value `a` (predecessor `2j`,
/// input 0 — the parities of `2j & G0` and `2j & G1`) and its complement, and
/// the four branch metrics are `±v_j` with `v_j = s0[j]·m0 + s1[j]·m1`. That
/// removes the per-edge table lookups and makes the ACS loop branchless and
/// lane-parallel across `j`. A unit test derives the same tables from the
/// full trellis.
#[derive(Clone, Debug)]
pub struct ViterbiDecoder {
    /// Sign of `m0` in `v_j` (+1 when branch output bit 0 is 1).
    s0: [f64; HALF],
    /// Sign of `m1` in `v_j` (+1 when branch output bit 1 is 1).
    s1: [f64; HALF],
    /// `s0` as IEEE sign masks (`-0.0` where `s0[j] < 0`, `+0.0` elsewhere):
    /// for finite `m`, `s·m` equals `m XOR mask` bitwise (multiplying by
    /// exactly ±1.0 only flips the sign bit), letting the AVX2 fast path
    /// trade two multiplies for two 1-cycle XORs per lane group.
    sm0: [f64; HALF],
    /// `s1` as IEEE sign masks.
    sm1: [f64; HALF],
}

impl Default for ViterbiDecoder {
    fn default() -> Self {
        Self::ieee80211()
    }
}

impl ViterbiDecoder {
    /// Decoder for the standard K=7 (133, 171) code.
    pub fn ieee80211() -> Self {
        let sign = |g: u32, j: usize| {
            if ((2 * j as u32) & g).count_ones() & 1 == 1 {
                1.0
            } else {
                -1.0
            }
        };
        let s0: [f64; HALF] = std::array::from_fn(|j| sign(G0, j));
        let s1: [f64; HALF] = std::array::from_fn(|j| sign(G1, j));
        let mask = |s: &[f64; HALF]| s.map(|v| if v < 0.0 { -0.0 } else { 0.0 });
        ViterbiDecoder {
            sm0: mask(&s0),
            sm1: mask(&s1),
            s0,
            s1,
        }
    }

    /// Soft-decision decode of a **terminated** frame.
    ///
    /// `soft` holds one metric per mother-code bit (`> 0` means bit 1 is
    /// likely; magnitude is confidence; `0.0` is an erasure). Its length must
    /// be even; the frame is assumed to start and end in state 0 (the encoder
    /// appended `K−1 = 6` zero tail bits, which are stripped from the output).
    ///
    /// Returns the decoded information bits (length `soft.len()/2 − 6`).
    ///
    /// # Panics
    /// Panics if `soft.len()` is odd or shorter than the tail.
    pub fn decode_soft_terminated(&self, soft: &[f64]) -> Vec<bool> {
        assert_eq!(soft.len() % 2, 0, "soft stream must have even length");
        let steps = soft.len() / 2;
        assert!(steps >= TAIL, "frame shorter than the code tail");
        let mut decided = self.run(soft, true);
        decided.truncate(steps - TAIL);
        decided
    }

    /// Soft-decision decode without termination assumption (traceback from
    /// the best end state). Used for streams that were truncated.
    pub fn decode_soft_truncated(&self, soft: &[f64]) -> Vec<bool> {
        assert_eq!(soft.len() % 2, 0, "soft stream must have even length");
        self.run(soft, false)
    }

    /// Hard-decision decode of a terminated frame: bits are mapped to ±1
    /// metrics internally.
    pub fn decode_hard_terminated(&self, bits: &[bool]) -> Vec<bool> {
        let soft: Vec<f64> = bits.iter().map(|&b| if b { 1.0 } else { -1.0 }).collect();
        self.decode_soft_terminated(&soft)
    }

    /// Convenience: depuncture a soft stream at `rate` and decode the
    /// terminated frame. `info_bits` is the number of information bits
    /// (excluding the 6-bit tail the encoder appended).
    pub fn decode_punctured_soft(
        &self,
        punctured_soft: &[f64],
        rate: CodeRate,
        info_bits: usize,
    ) -> Vec<bool> {
        let mother_len = (info_bits + TAIL) * 2;
        let soft = depuncture_soft(punctured_soft, rate, mother_len);
        self.decode_soft_terminated(&soft)
    }

    /// Butterfly ACS over every step: per butterfly `j`, the four edge
    /// metrics are `±v_j`, and the two winners are picked branchlessly — no
    /// per-edge lookups, no data-dependent branches (a state-by-state loop's
    /// compare branch is ~random on real LLRs and its mispredicts dominate
    /// decode time).
    ///
    /// Survivors are stored **bit-packed**: one decision bit per state per
    /// step (one `u64` per step), because the predecessor is recoverable
    /// from the state label alone — `prev = ((s mod 32)·2) | d` and the
    /// emitted bit is `s ≥ 32`. That keeps the whole store L1-resident for
    /// full-packet decodes.
    ///
    /// A NaN metric carries no information about its bit, so it is decoded
    /// as an erasure (`0.0`): one corrupted LLR costs at most its own bit
    /// instead of sending every path metric to −∞ for the rest of the frame.
    ///
    /// A step runs the AVX2 [`acs_step_avx2`](Self::acs_step_avx2) on the
    /// AVX2 backend when both of its metrics are finite, else the portable
    /// [`acs_step`](Self::acs_step) (±∞ LLRs, `BACKFI_SIMD=off` and non-x86
    /// hosts included). The figures, examples and benchmark
    /// workloads feed only finite LLRs (depuncturing erasures are exact
    /// zeros), so on AVX2 hosts the portable step serves hostile inputs.
    ///
    /// Produces bit-identical decisions to the state-by-state reference
    /// loop the tests keep (per-edge lookups, `if cand > best` updates in
    /// ascending state order, unreachable states skipped):
    /// * `s·m` with `s = ±1.0` equals `±m` bitwise, so `v_j` equals the
    ///   reference's branch metric, and `pm − v` ≡ `pm + (−v)` in IEEE;
    /// * a predecessor at `−∞` (unreachable) yields a candidate of `−∞` (or
    ///   NaN when `v = ±∞`, since `−∞ + ∞` is NaN, sanitized to `−∞`), which
    ///   loses every strict comparison — exactly like the reference's skip;
    /// * NaN candidates are sanitized to `−∞`, matching `NaN > x == false`;
    /// * ties keep the even predecessor, matching the reference's strict
    ///   `>` update with ascending state order;
    /// * the reference's "survivor 0 for unreachable states" convention is
    ///   reproduced exactly: a `−∞` winner always stores decision bit 0
    ///   (`−∞ > −∞` is false), traceback from a finite-metric state never
    ///   visits a `−∞`-metric one (a finite winner implies a finite
    ///   predecessor), and the single remaining case — *starting* traceback
    ///   on a `−∞` state — is handled explicitly in [`traceback`].
    fn run(&self, soft: &[f64], terminated: bool) -> Vec<bool> {
        let (mut a, mut b) = ([NEG; STATES], [NEG; STATES]);
        a[0] = 0.0; // encoder starts from state 0
        let (mut metric, mut metric_next) = (&mut a, &mut b);
        let mut words = vec![0u64; soft.len() / 2];

        #[cfg(target_arch = "x86_64")]
        let avx2 = backend() == Backend::Avx2;

        for (word, m) in words.iter_mut().zip(soft.chunks_exact(2)) {
            let (m0, m1) = (erase_nan(m[0]), erase_nan(m[1]));
            #[cfg(target_arch = "x86_64")]
            if avx2 && m0.is_finite() && m1.is_finite() {
                // SAFETY: the AVX2 backend is only reported after runtime
                // detection.
                *word = unsafe { self.acs_step_avx2(m0, m1, metric, metric_next) };
                std::mem::swap(&mut metric, &mut metric_next);
                continue;
            }
            *word = self.acs_step(m0, m1, metric, metric_next);
            std::mem::swap(&mut metric, &mut metric_next);
        }

        traceback(&words, metric, terminated)
    }

    /// One trellis step of the butterfly ACS (see [`Self::run`] for the
    /// equivalence argument). `metric_next` is fully overwritten; returns the
    /// packed decision bits for this step (state `s`'s bit at position `s`).
    #[inline(always)]
    fn acs_step(
        &self,
        m0: f64,
        m1: f64,
        metric: &[f64; STATES],
        metric_next: &mut [f64; STATES],
    ) -> u64 {
        let (lo, hi) = metric_next.split_at_mut(HALF);
        let mut row = 0u64;
        for j in 0..HALF {
            let vj = self.s0[j] * m0 + self.s1[j] * m1;
            let pm0 = metric[2 * j];
            let pm1 = metric[2 * j + 1];
            // input 0 → state j: candidates pm0 + v (from 2j), pm1 − v (from 2j+1)
            let c0 = pm0 + vj;
            let c1 = pm1 - vj;
            let k0 = if c0.is_nan() { NEG } else { c0 };
            let k1 = if c1.is_nan() { NEG } else { c1 };
            let take1 = k1 > k0;
            lo[j] = if take1 { k1 } else { k0 };
            row |= (take1 as u64) << j;
            // input 1 → state j+32: candidates pm0 − v, pm1 + v
            let d0 = pm0 - vj;
            let d1 = pm1 + vj;
            let q0 = if d0.is_nan() { NEG } else { d0 };
            let q1 = if d1.is_nan() { NEG } else { d1 };
            let t1 = q1 > q0;
            hi[j] = if t1 { q1 } else { q0 };
            row |= (t1 as u64) << (HALF + j);
        }
        row
    }

    /// Hand-vectorized AVX2 instantiation of [`Self::acs_step`]: four
    /// butterflies per iteration, decision bits harvested straight from the
    /// compare masks with `movemask` (no survivor-index arithmetic or stores
    /// at all). Returns the packed decision word for this step.
    ///
    /// The caller guarantees both step metrics are finite. Then no candidate
    /// can be NaN (path metrics are finite or −∞, and finite ± finite / −∞ ±
    /// finite never produce NaN), so the portable body's NaN sanitize is the
    /// identity and is left out, and the ±1 signs apply as sign-bit XORs
    /// (bit-identical to the multiply for finite metrics; see
    /// [`Self::sm0`]). Every lane otherwise performs the same IEEE add/sub
    /// and the same compare/select sequence as [`Self::acs_step`] (no FMA
    /// contraction), so the result is bit-identical. The compare masks
    /// encode the "−∞ winner stores decision 0" convention (`−∞ > −∞` is
    /// false).
    ///
    /// The survivor metric is selected with `vmaxpd` rather than a blend on
    /// the compare mask: `_mm256_max_pd(a, b)` returns `a > b ? a : b` and
    /// gives its second operand `b` on ties, on ±0 pairs and when either
    /// operand is NaN. So `max(c1, c0)` is exactly `c1 > c0 (ordered) ? c1 :
    /// c0`, the `_CMP_GT_OQ` blend, bit for bit; the compare stays because
    /// the decision bits come from its mask.
    ///
    /// # Safety
    /// The CPU must support AVX2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn acs_step_avx2(
        &self,
        m0: f64,
        m1: f64,
        metric: &[f64; STATES],
        metric_next: &mut [f64; STATES],
    ) -> u64 {
        use std::arch::x86_64::*;
        let (lo, hi) = metric_next.split_at_mut(HALF);
        let m0v = _mm256_set1_pd(m0);
        let m1v = _mm256_set1_pd(m1);
        let mut lo_acc: u64 = 0;
        let mut hi_acc: u64 = 0;
        // HALF = 32 is a multiple of 4, and every load and store below stays
        // inside its fixed-size array: `sm0`/`sm1`/`lo`/`hi` at `j..j+4`,
        // `metric` at `2j..2j+8`.
        for j in (0..HALF).step_by(4) {
            let sm0v = _mm256_loadu_pd(self.sm0.as_ptr().add(j));
            let sm1v = _mm256_loadu_pd(self.sm1.as_ptr().add(j));
            let vv = _mm256_add_pd(_mm256_xor_pd(m0v, sm0v), _mm256_xor_pd(m1v, sm1v));
            // Deinterleave metric[2j..2j+8] into pm0 (even) / pm1 (odd) lanes.
            let a = _mm256_loadu_pd(metric.as_ptr().add(2 * j));
            let b = _mm256_loadu_pd(metric.as_ptr().add(2 * j + 4));
            let t0 = _mm256_permute2f128_pd(a, b, 0x20);
            let t1 = _mm256_permute2f128_pd(a, b, 0x31);
            let pm0 = _mm256_unpacklo_pd(t0, t1);
            let pm1 = _mm256_unpackhi_pd(t0, t1);
            // input 0 → states j..j+4: candidates pm0 + v, pm1 − v.
            let c0 = _mm256_add_pd(pm0, vv);
            let c1 = _mm256_sub_pd(pm1, vv);
            let gt = _mm256_cmp_pd(c1, c0, _CMP_GT_OQ);
            let m = _mm256_max_pd(c1, c0);
            _mm256_storeu_pd(lo.as_mut_ptr().add(j), m);
            lo_acc |= (_mm256_movemask_pd(gt) as u64) << j;
            // input 1 → states j+32..j+36: candidates pm0 − v, pm1 + v.
            let d0 = _mm256_sub_pd(pm0, vv);
            let d1 = _mm256_add_pd(pm1, vv);
            let gt2 = _mm256_cmp_pd(d1, d0, _CMP_GT_OQ);
            let q = _mm256_max_pd(d1, d0);
            _mm256_storeu_pd(hi.as_mut_ptr().add(j), q);
            hi_acc |= (_mm256_movemask_pd(gt2) as u64) << j;
        }
        lo_acc | (hi_acc << HALF)
    }
}

/// A NaN soft metric as an erasure (`0.0`); every other value unchanged.
#[inline(always)]
fn erase_nan(m: f64) -> f64 {
    if m.is_nan() {
        0.0
    } else {
        m
    }
}

/// Traceback start: state 0 for a terminated frame, else the best end
/// state. NaN-poisoned path metrics (corrupted LLR inputs) must lose the
/// comparison, not panic it: NaN maps below −∞, then total order.
fn start_state(metric: &[f64], terminated: bool) -> usize {
    if terminated {
        return 0;
    }
    let key = |m: &f64| if m.is_nan() { f64::NEG_INFINITY } else { *m };
    metric
        .iter()
        .enumerate()
        .max_by(|a, b| key(a.1).total_cmp(&key(b.1)))
        .map(|(i, _)| i)
        .unwrap_or(0)
}

/// Branchless traceback over the packed decision bits.
///
/// The butterfly structure makes the predecessor recoverable from the state
/// label and its one decision bit: entry into state `s` used input
/// `s ≥ 32`, from predecessor `((s mod 32)·2) | d`. Equivalence with the
/// reference loop's walk over `u32` survivors (`pred | input<<31`, zero for
/// unreachable states):
/// * starting from a finite-metric state, every state visited has a finite
///   metric at its time (a finite winner implies a finite predecessor
///   candidate, which implies a finite predecessor metric), so the u32 walk
///   never reads a zeroed "unreachable" entry — both walks follow the same
///   decisions;
/// * starting from a `−∞`-metric state (all-`−∞` final metrics, or a
///   terminated frame whose state 0 ended unreachable), the u32 walk reads
///   survivor 0 — bit `false`, state 0. The explicit first-step special case
///   below reproduces that jump; from then on, while state 0's metric stays
///   `−∞` its packed decision bit is 0 (`−∞ > −∞` is false), so the packed
///   walk also emits (`false`, state 0), and once state 0's metric turns
///   finite both walks follow identical real survivors.
fn traceback(words: &[u64], metric: &[f64; STATES], terminated: bool) -> Vec<bool> {
    let mut state = start_state(metric, terminated);
    let mut bits = vec![false; words.len()];
    let mut t = words.len();
    if t > 0 && metric[state] == f64::NEG_INFINITY {
        // Unreachable start: the u32 store holds 0 here (bit false, state 0).
        t -= 1;
        state = 0;
    }
    while t > 0 {
        t -= 1;
        let d = (words[t] >> state) & 1;
        bits[t] = state >= HALF;
        state = ((state & (HALF - 1)) << 1) | d as usize;
    }
    bits
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conv::ConvEncoder;
    use crate::puncture::puncture;
    use backfi_dsp::rng::SplitMix64;

    /// Full trellis of the K=7 code: the reference decoder's tables.
    struct Trellis {
        /// `next[s][input]` — state after shifting `input` into state `s`.
        next: [[usize; 2]; STATES],
        /// `out[s][input]` — the two coded bits (b0, b1) packed as `b0 | b1<<1`.
        out: [[u8; 2]; STATES],
    }

    impl Trellis {
        fn new() -> Self {
            let mut next = [[0usize; 2]; STATES];
            let mut out = [[0u8; 2]; STATES];
            for s in 0..STATES {
                for input in 0..2 {
                    // Trellis state = the 6-bit memory (the most recent 6
                    // inputs, newest in the MSB, bit 5). The full 7-bit
                    // register seen by the generator taps when `input` is
                    // shifted in has the new bit at the MSB (bit 6) —
                    // mirroring `ConvEncoder::push`.
                    let register = ((input << TAIL) | s) as u32;
                    let b0 = ((register & G0).count_ones() & 1) as u8;
                    let b1 = ((register & G1).count_ones() & 1) as u8;
                    out[s][input] = b0 | (b1 << 1);
                    // New memory: drop the oldest bit (LSB), newest input
                    // enters at the MSB of the memory (bit 5).
                    next[s][input] = (s >> 1) | (input << (TAIL - 1));
                }
            }
            Trellis { next, out }
        }
    }

    /// Direct add-compare-select: state-by-state with per-edge table lookups
    /// and a data-dependent compare branch. The reference the production
    /// decoder is pinned to.
    fn run_direct(soft: &[f64], terminated: bool) -> Vec<bool> {
        let trellis = Trellis::new();
        let steps = soft.len() / 2;
        let mut metric = vec![NEG; STATES];
        metric[0] = 0.0; // encoder starts from state 0
        let mut metric_next = vec![NEG; STATES];
        // survivor[t][s] packs (prev_state, input) — input in bit 31.
        let mut survivor = vec![0u32; steps * STATES];

        for t in 0..steps {
            let m0 = erase_nan(soft[2 * t]);
            let m1 = erase_nan(soft[2 * t + 1]);
            metric_next.iter_mut().for_each(|m| *m = NEG);
            let surv = &mut survivor[t * STATES..(t + 1) * STATES];
            #[allow(clippy::needless_range_loop)] // s is the state label, not just an index
            for s in 0..STATES {
                let pm = metric[s];
                if pm == NEG {
                    continue;
                }
                for input in 0..2usize {
                    let nsid = trellis.next[s][input];
                    let out = trellis.out[s][input];
                    // Correlation metric: +m when coded bit is 1, −m when 0.
                    let bm = (if out & 1 == 1 { m0 } else { -m0 })
                        + (if out & 2 == 2 { m1 } else { -m1 });
                    let cand = pm + bm;
                    if cand > metric_next[nsid] {
                        metric_next[nsid] = cand;
                        surv[nsid] = s as u32 | ((input as u32) << 31);
                    }
                }
            }
            std::mem::swap(&mut metric, &mut metric_next);
        }

        traceback_direct(&survivor, &metric, steps, terminated)
    }

    /// Traceback over the reference loop's u32 survivor memory.
    fn traceback_direct(
        survivor: &[u32],
        metric: &[f64],
        steps: usize,
        terminated: bool,
    ) -> Vec<bool> {
        let mut state = start_state(metric, terminated);
        let mut bits = vec![false; steps];
        for t in (0..steps).rev() {
            let packed = survivor[t * STATES + state];
            bits[t] = packed >> 31 == 1;
            state = (packed & 0x7FFF_FFFF) as usize;
        }
        bits
    }

    /// Reference form of [`ViterbiDecoder::decode_soft_terminated`].
    fn decode_soft_terminated_direct(soft: &[f64]) -> Vec<bool> {
        assert_eq!(soft.len() % 2, 0, "soft stream must have even length");
        let steps = soft.len() / 2;
        assert!(steps >= TAIL, "frame shorter than the code tail");
        run_direct(soft, true)[..steps - TAIL].to_vec()
    }

    /// Reference form of [`ViterbiDecoder::decode_soft_truncated`].
    fn decode_soft_truncated_direct(soft: &[f64]) -> Vec<bool> {
        assert_eq!(soft.len() % 2, 0, "soft stream must have even length");
        run_direct(soft, false)
    }

    #[test]
    fn butterfly_tables_match_full_trellis() {
        // Next-states `j` and `j+32` are fed by `2j` and `2j+1`, the four
        // branch outputs are `a = out[2j][0]` and its complement, and the
        // tables `ieee80211()` builds carry `a`'s signs and sign masks.
        let trellis = Trellis::new();
        let dec = ViterbiDecoder::ieee80211();
        for j in 0..HALF {
            let a = trellis.out[2 * j][0];
            assert_eq!(trellis.out[2 * j + 1][0], a ^ 3, "butterfly {j}");
            assert_eq!(trellis.out[2 * j][1], a ^ 3, "butterfly {j}");
            assert_eq!(trellis.out[2 * j + 1][1], a, "butterfly {j}");
            assert_eq!(trellis.next[2 * j], [j, j + HALF], "butterfly {j}");
            assert_eq!(trellis.next[2 * j + 1], [j, j + HALF], "butterfly {j}");
            let sign = |bit: u8| if a & bit != 0 { 1.0f64 } else { -1.0 };
            let mask = |bit: u8| if a & bit != 0 { 0.0f64 } else { -0.0 };
            assert_eq!(dec.s0[j].to_bits(), sign(1).to_bits(), "s0[{j}]");
            assert_eq!(dec.s1[j].to_bits(), sign(2).to_bits(), "s1[{j}]");
            assert_eq!(dec.sm0[j].to_bits(), mask(1).to_bits(), "sm0[{j}]");
            assert_eq!(dec.sm1[j].to_bits(), mask(2).to_bits(), "sm1[{j}]");
        }
    }

    fn roundtrip(bits: &[bool]) -> Vec<bool> {
        let mut enc = ConvEncoder::ieee80211();
        let coded = enc.encode_terminated(bits);
        ViterbiDecoder::ieee80211().decode_hard_terminated(&coded)
    }

    #[test]
    fn clean_roundtrip() {
        let bits: Vec<bool> = (0..64).map(|i| (i * 31) % 7 > 2).collect();
        assert_eq!(roundtrip(&bits), bits);
    }

    #[test]
    fn clean_roundtrip_all_lengths() {
        for n in 1..40 {
            let bits: Vec<bool> = (0..n).map(|i| (i * 13) % 5 < 2).collect();
            assert_eq!(roundtrip(&bits), bits, "length {n}");
        }
    }

    #[test]
    fn corrects_scattered_errors() {
        let bits: Vec<bool> = (0..100).map(|i| (i * 17) % 13 > 6).collect();
        let mut enc = ConvEncoder::ieee80211();
        let mut coded = enc.encode_terminated(&bits);
        // Flip well-separated bits — the free distance 10 code fixes these.
        for idx in [3usize, 40, 80, 120, 160] {
            coded[idx] = !coded[idx];
        }
        let dec = ViterbiDecoder::ieee80211().decode_hard_terminated(&coded);
        assert_eq!(dec, bits);
    }

    #[test]
    fn soft_beats_hard_with_confidence() {
        // A bit flipped with tiny confidence should be shrugged off.
        let bits: Vec<bool> = (0..40).map(|i| i % 3 == 0).collect();
        let mut enc = ConvEncoder::ieee80211();
        let coded = enc.encode_terminated(&bits);
        let mut soft: Vec<f64> = coded.iter().map(|&b| if b { 1.0 } else { -1.0 }).collect();
        // Weak wrong values at several places
        for idx in [2usize, 11, 30, 31, 50] {
            soft[idx] = -soft[idx] * 0.05;
        }
        let dec = ViterbiDecoder::ieee80211().decode_soft_terminated(&soft);
        assert_eq!(dec, bits);
    }

    #[test]
    fn erasures_are_neutral() {
        let bits: Vec<bool> = (0..30).map(|i| (i * 7) % 4 == 1).collect();
        let mut enc = ConvEncoder::ieee80211();
        let coded = enc.encode_terminated(&bits);
        let mut soft: Vec<f64> = coded.iter().map(|&b| if b { 1.0 } else { -1.0 }).collect();
        // Erase a quarter of the bits.
        for i in (0..soft.len()).step_by(4) {
            soft[i] = 0.0;
        }
        let dec = ViterbiDecoder::ieee80211().decode_soft_terminated(&soft);
        assert_eq!(dec, bits);
    }

    #[test]
    fn punctured_roundtrip_all_rates() {
        for rate in [CodeRate::Half, CodeRate::TwoThirds, CodeRate::ThreeQuarters] {
            // info length chosen so (info + 6) mother bits align with the
            // puncturing period
            let info = 54;
            let bits: Vec<bool> = (0..info).map(|i| (i * 29) % 11 < 5).collect();
            let mut enc = ConvEncoder::ieee80211();
            let mother = enc.encode_terminated(&bits);
            let tx = puncture(&mother, rate);
            let soft: Vec<f64> = tx.iter().map(|&b| if b { 1.0 } else { -1.0 }).collect();
            let dec = ViterbiDecoder::ieee80211().decode_punctured_soft(&soft, rate, info);
            assert_eq!(dec, bits, "rate {}", rate.label());
        }
    }

    #[test]
    fn punctured_with_errors() {
        let info = 96;
        let bits: Vec<bool> = (0..info).map(|i| (i * 3) % 7 == 1).collect();
        let mut enc = ConvEncoder::ieee80211();
        let mother = enc.encode_terminated(&bits);
        let mut tx = puncture(&mother, CodeRate::TwoThirds);
        for idx in [10usize, 70, 130] {
            tx[idx] = !tx[idx];
        }
        let soft: Vec<f64> = tx.iter().map(|&b| if b { 1.0 } else { -1.0 }).collect();
        let dec =
            ViterbiDecoder::ieee80211().decode_punctured_soft(&soft, CodeRate::TwoThirds, info);
        assert_eq!(dec, bits);
    }

    #[test]
    fn truncated_decode_recovers_most_bits() {
        let bits: Vec<bool> = (0..80).map(|i| (i * 19) % 6 < 3).collect();
        let mut enc = ConvEncoder::ieee80211();
        enc.reset();
        let coded = enc.encode(&bits); // no termination
        let soft: Vec<f64> = coded.iter().map(|&b| if b { 1.0 } else { -1.0 }).collect();
        let dec = ViterbiDecoder::ieee80211().decode_soft_truncated(&soft);
        assert_eq!(dec.len(), bits.len());
        // all but perhaps the last few bits must match
        assert_eq!(&dec[..70], &bits[..70]);
    }

    fn rand_llrs(seed: u64, n: usize) -> Vec<f64> {
        let mut rng = SplitMix64::new(seed);
        (0..n)
            .map(|_| (rng.next_u64() as f64 / u64::MAX as f64) * 4.0 - 2.0)
            .collect()
    }

    /// Random LLR streams of assorted lengths.
    fn random_sets() -> Vec<Vec<f64>> {
        (0..8u64)
            .map(|seed| rand_llrs(seed, 2 * (20 + (seed as usize * 37) % 200)))
            .collect()
    }

    /// NaN, ±∞, erasures and denormals sprinkled into real LLRs; the last
    /// four sets carry ±∞ but no NaN. Both decoders read a NaN LLR as an
    /// erasure, so the trellis stays alive past it, and ±∞ metrics meet live
    /// paths and unreachable (−∞) predecessors in the same step: the `∞ − ∞`
    /// NaN candidates the sanitize in `acs_step` exists for.
    fn hostile_sets() -> Vec<Vec<f64>> {
        let mut sets: Vec<Vec<f64>> = (0..4u64)
            .map(|seed| {
                let mut soft = rand_llrs(100 + seed, 120);
                soft[3] = f64::NAN;
                soft[10] = f64::INFINITY;
                soft[11] = f64::NEG_INFINITY;
                soft[20] = 0.0;
                soft[21] = -0.0;
                soft[30] = 5e-324;
                soft[31] = f64::NAN;
                soft
            })
            .collect();
        // A NaN in the very first step, while state 0 is the only reachable
        // state, then an ±∞ pair straddling two steps.
        let mut first = rand_llrs(42, 80);
        first[0] = f64::NAN;
        first[9] = f64::INFINITY;
        first[10] = f64::NEG_INFINITY;
        first[11] = -0.0;
        sets.push(first);
        sets.extend((0..4u64).map(|seed| {
            let mut soft = rand_llrs(200 + seed, 160);
            // ±∞ on one LLR in eight, in a seed-shifted pattern.
            for (i, v) in soft.iter_mut().enumerate() {
                match (7 * i as u64 + seed) % 16 {
                    0 => *v = f64::INFINITY,
                    1 => *v = f64::NEG_INFINITY,
                    _ => {}
                }
            }
            soft
        }));
        sets
    }

    /// Degenerate whole streams: all-negative, all-zero (every branch ties —
    /// the tie-break must resolve identically on both paths), and all −∞
    /// (every path metric saturates). These stress the packed survivor
    /// words where every bit in a word is equal.
    fn degenerate_sets() -> Vec<Vec<f64>> {
        vec![
            vec![-1.5f64; 96],
            vec![0.0f64; 96],
            vec![f64::NEG_INFINITY; 96],
        ]
    }

    /// Truncated and terminated decodes of every stream agree with the
    /// direct oracle (and neither path panics).
    fn assert_matches_direct(dec: &ViterbiDecoder, sets: &[Vec<f64>], what: &str) {
        for (i, soft) in sets.iter().enumerate() {
            assert_eq!(
                dec.decode_soft_truncated(soft),
                decode_soft_truncated_direct(soft),
                "{what} {i} truncated"
            );
            assert_eq!(
                dec.decode_soft_terminated(soft),
                decode_soft_terminated_direct(soft),
                "{what} {i} terminated"
            );
        }
    }

    #[test]
    fn nan_llr_is_an_erasure() {
        // One NaN LLR in a terminated random frame costs no bit: the code
        // corrects one erased metric, and every other metric is clean.
        let mut rng = SplitMix64::new(0x4E);
        let bits: Vec<bool> = (0..200).map(|_| rng.next_u64() & 1 == 1).collect();
        let coded = ConvEncoder::ieee80211().encode_terminated(&bits);
        let mut soft: Vec<f64> = coded.iter().map(|&b| if b { 1.0 } else { -1.0 }).collect();
        for at in [0, 1, 57, 200, soft.len() - 1] {
            let was = std::mem::replace(&mut soft[at], f64::NAN);
            let dec = ViterbiDecoder::ieee80211();
            assert_eq!(dec.decode_soft_terminated(&soft), bits, "NaN at {at}");
            assert_eq!(
                decode_soft_terminated_direct(&soft),
                bits,
                "oracle, NaN at {at}"
            );
            soft[at] = was;
        }
    }

    #[test]
    fn batched_equivalent_to_direct_random_llrs() {
        assert_matches_direct(&ViterbiDecoder::ieee80211(), &random_sets(), "random");
    }

    #[test]
    fn batched_equivalent_to_direct_hostile_llrs() {
        assert_matches_direct(&ViterbiDecoder::ieee80211(), &hostile_sets(), "hostile");
    }

    #[test]
    fn batched_equivalent_to_direct_degenerate_llrs() {
        assert_matches_direct(
            &ViterbiDecoder::ieee80211(),
            &degenerate_sets(),
            "degenerate",
        );
    }

    #[test]
    fn forced_scalar_portable_acs_matches_direct() {
        // On an AVX2 host the portable `acs_step` runs only the steps with a
        // non-finite metric; the scalar backend runs it on every step.
        use backfi_dsp::simd::{backend, force_scalar, Backend};
        let was_scalar = backend() == Backend::Scalar;
        force_scalar(true);
        let dec = ViterbiDecoder::ieee80211();
        assert_matches_direct(&dec, &random_sets(), "random");
        assert_matches_direct(&dec, &hostile_sets(), "hostile");
        assert_matches_direct(&dec, &degenerate_sets(), "degenerate");
        force_scalar(was_scalar);
    }
}
