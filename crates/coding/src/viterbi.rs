//! Viterbi decoding of the rate-1/2 convolutional code (optionally punctured).
//!
//! The BackFi reader runs this after MRC demodulation ("decoded using a
//! standard Viterbi decoder", §4.3.2), and the WiFi client receiver runs it on
//! every packet. Supports both hard decisions and soft metrics; erasures from
//! depuncturing carry zero metric and cost nothing either way.

use crate::puncture::{depuncture_soft, CodeRate};
#[cfg(target_arch = "x86_64")]
use backfi_dsp::simd::{backend, Backend};

/// Precomputed trellis for a rate-1/2 code.
#[derive(Clone, Debug)]
struct Trellis {
    /// Number of states = 2^(k−1).
    states: usize,
    /// next_state[s][input] — state after shifting `input` into state `s`.
    next: Vec<[u32; 2]>,
    /// out[s][input] — the two coded bits (b0, b1) packed as `b0 | b1<<1`.
    out: Vec<[u8; 2]>,
}

impl Trellis {
    fn new(k: usize, g0: u32, g1: u32) -> Self {
        let states = 1usize << (k - 1);
        let mut next = vec![[0u32; 2]; states];
        let mut out = vec![[0u8; 2]; states];
        for s in 0..states {
            for (input, slot) in [(false, 0usize), (true, 1usize)] {
                // Trellis state = the (k−1)-bit memory (the most recent k−1
                // inputs, newest in the MSB, bit k−2). The full k-bit register
                // seen by the generator taps when `input` is shifted in has
                // the new bit at the MSB (bit k−1) — mirroring
                // `ConvEncoder::push`.
                let mem = s as u32;
                let register = ((input as u32) << (k - 1)) | mem;
                let b0 = ((register & g0).count_ones() & 1) as u8;
                let b1 = ((register & g1).count_ones() & 1) as u8;
                out[s][slot] = b0 | (b1 << 1);
                // New memory: drop the oldest bit (LSB), newest input enters
                // at the MSB of the memory (bit k−2).
                let new_mem = (mem >> 1) | ((input as u32) << (k - 2));
                next[s][slot] = new_mem;
            }
        }
        Trellis { states, next, out }
    }
}

/// Butterfly form of a rate-1/2 trellis for the batched add-compare-select.
///
/// For any feedforward rate-1/2 code built like [`Trellis::new`], next-state
/// `j` (input 0) and `j + half` (input 1) are both fed by predecessors `2j`
/// and `2j+1`. When both generators tap the newest (bit `k−1`) and oldest
/// (bit `0`) register bits — true for the K=7 (133, 171) code and every
/// code with free-distance-optimal generators — the four branch outputs of
/// the butterfly collapse to one value `a = out[2j][0]` and its complement
/// `a^3`, so the four branch metrics are `±v_j` with
/// `v_j = s0[j]·m0 + s1[j]·m1`. That removes the per-edge table lookups and
/// makes the ACS loop branchless and lane-parallel across `j`.
///
/// Construction verifies the butterfly relations structurally and returns
/// `None` when they don't hold, falling back to the direct path.
#[derive(Clone, Debug)]
struct BatchedTrellis {
    /// Sign of `m0` in `v_j` (+1 when branch output bit 0 is 1).
    s0: Vec<f64>,
    /// Sign of `m1` in `v_j` (+1 when branch output bit 1 is 1).
    s1: Vec<f64>,
    /// `s0` as IEEE sign masks (`-0.0` where `s0[j] < 0`, `+0.0` elsewhere):
    /// for finite `m`, `s·m` equals `m XOR mask` bitwise (multiplying by
    /// exactly ±1.0 only flips the sign bit), letting the AVX2 fast path
    /// trade two multiplies for two 1-cycle XORs per lane group.
    sm0: Vec<f64>,
    /// `s1` as IEEE sign masks.
    sm1: Vec<f64>,
}

impl BatchedTrellis {
    fn build(trellis: &Trellis) -> Option<Self> {
        let ns = trellis.states;
        if ns < 2 {
            return None;
        }
        let half = ns / 2;
        let mut s0 = Vec::with_capacity(half);
        let mut s1 = Vec::with_capacity(half);
        for j in 0..half {
            let a = trellis.out[2 * j][0];
            let butterfly_codes = trellis.out[2 * j + 1][0] == a ^ 3
                && trellis.out[2 * j][1] == a ^ 3
                && trellis.out[2 * j + 1][1] == a;
            let butterfly_edges = trellis.next[2 * j][0] == j as u32
                && trellis.next[2 * j + 1][0] == j as u32
                && trellis.next[2 * j][1] == (j + half) as u32
                && trellis.next[2 * j + 1][1] == (j + half) as u32;
            if !butterfly_codes || !butterfly_edges {
                return None;
            }
            s0.push(if a & 1 == 1 { 1.0 } else { -1.0 });
            s1.push(if a & 2 == 2 { 1.0 } else { -1.0 });
        }
        let mask = |s: &[f64]| {
            s.iter()
                .map(|&v| if v < 0.0 { -0.0 } else { 0.0 })
                .collect()
        };
        let (sm0, sm1) = (mask(&s0), mask(&s1));
        Some(BatchedTrellis { s0, s1, sm0, sm1 })
    }
}

/// A Viterbi decoder for the K=7 (133, 171) code, shared by the WiFi receiver
/// and the BackFi reader.
#[derive(Clone, Debug)]
pub struct ViterbiDecoder {
    trellis: Trellis,
    k: usize,
    /// Butterfly ACS tables when the code's structure admits them.
    batched: Option<BatchedTrellis>,
}

impl Default for ViterbiDecoder {
    fn default() -> Self {
        Self::ieee80211()
    }
}

impl ViterbiDecoder {
    /// Decoder for the standard K=7 (133, 171) code.
    pub fn ieee80211() -> Self {
        Self::new(
            crate::conv::CONSTRAINT_LENGTH,
            crate::conv::G0,
            crate::conv::G1,
        )
    }

    /// Decoder for a custom rate-1/2 code matching
    /// [`ConvEncoder::new`](crate::conv::ConvEncoder::new).
    pub fn new(k: usize, g0: u32, g1: u32) -> Self {
        assert!((2..=16).contains(&k), "constraint length must be in 2..=16");
        let trellis = Trellis::new(k, g0, g1);
        let batched = BatchedTrellis::build(&trellis);
        ViterbiDecoder {
            trellis,
            k,
            batched,
        }
    }

    /// Soft-decision decode of a **terminated** frame.
    ///
    /// `soft` holds one metric per mother-code bit (`> 0` means bit 1 is
    /// likely; magnitude is confidence; `0.0` is an erasure). Its length must
    /// be even; the frame is assumed to start and end in state 0 (the encoder
    /// appended `k−1` zero tail bits, which are stripped from the output).
    ///
    /// Returns the decoded information bits (length `soft.len()/2 − (k−1)`).
    ///
    /// # Panics
    /// Panics if `soft.len()` is odd or shorter than the tail.
    pub fn decode_soft_terminated(&self, soft: &[f64]) -> Vec<bool> {
        assert_eq!(soft.len() % 2, 0, "soft stream must have even length");
        let steps = soft.len() / 2;
        let tail = self.k - 1;
        assert!(steps >= tail, "frame shorter than the code tail");
        let decided = self.run(soft, steps, true);
        decided[..steps - tail].to_vec()
    }

    /// Soft-decision decode without termination assumption (traceback from
    /// the best end state). Used for streams that were truncated.
    pub fn decode_soft_truncated(&self, soft: &[f64]) -> Vec<bool> {
        assert_eq!(soft.len() % 2, 0, "soft stream must have even length");
        let steps = soft.len() / 2;
        self.run(soft, steps, false)
    }

    /// Reference form of [`Self::decode_soft_terminated`] that always runs
    /// the direct (state-by-state, branchy) ACS loop, bypassing the batched
    /// dispatch. Pinned against the fast path by the `_equiv` tests.
    ///
    /// # Panics
    /// Panics if `soft.len()` is odd or shorter than the tail.
    pub fn decode_soft_terminated_direct(&self, soft: &[f64]) -> Vec<bool> {
        assert_eq!(soft.len() % 2, 0, "soft stream must have even length");
        let steps = soft.len() / 2;
        let tail = self.k - 1;
        assert!(steps >= tail, "frame shorter than the code tail");
        let decided = self.run_direct(soft, steps, true);
        decided[..steps - tail].to_vec()
    }

    /// Reference form of [`Self::decode_soft_truncated`] that always runs
    /// the direct ACS loop, bypassing the batched dispatch.
    ///
    /// # Panics
    /// Panics if `soft.len()` is odd.
    pub fn decode_soft_truncated_direct(&self, soft: &[f64]) -> Vec<bool> {
        assert_eq!(soft.len() % 2, 0, "soft stream must have even length");
        let steps = soft.len() / 2;
        self.run_direct(soft, steps, false)
    }

    /// Hard-decision decode of a terminated frame: bits are mapped to ±1
    /// metrics internally.
    pub fn decode_hard_terminated(&self, bits: &[bool]) -> Vec<bool> {
        let soft: Vec<f64> = bits.iter().map(|&b| if b { 1.0 } else { -1.0 }).collect();
        self.decode_soft_terminated(&soft)
    }

    /// Convenience: depuncture a soft stream at `rate` and decode the
    /// terminated frame. `info_bits` is the number of information bits
    /// (excluding the `k−1` tail the encoder appended).
    pub fn decode_punctured_soft(
        &self,
        punctured_soft: &[f64],
        rate: CodeRate,
        info_bits: usize,
    ) -> Vec<bool> {
        let mother_len = (info_bits + self.k - 1) * 2;
        let soft = depuncture_soft(punctured_soft, rate, mother_len);
        self.decode_soft_terminated(&soft)
    }

    /// Dispatch: batched butterfly ACS when the code admits it, else the
    /// direct reference loop. Both produce identical bits for every input.
    fn run(&self, soft: &[f64], steps: usize, terminated: bool) -> Vec<bool> {
        match &self.batched {
            Some(b) => self.run_batched(b, soft, steps, terminated),
            None => self.run_direct(soft, steps, terminated),
        }
    }

    /// Direct add-compare-select: state-by-state with per-edge table lookups
    /// and a data-dependent compare branch. Reference implementation.
    fn run_direct(&self, soft: &[f64], steps: usize, terminated: bool) -> Vec<bool> {
        let ns = self.trellis.states;
        const NEG: f64 = f64::NEG_INFINITY;
        let mut metric = vec![NEG; ns];
        metric[0] = 0.0; // encoder starts from state 0
        let mut metric_next = vec![NEG; ns];
        // survivor[t][s] packs (prev_state, input) — input in bit 31.
        let mut survivor = vec![0u32; steps * ns];

        for t in 0..steps {
            let m0 = soft[2 * t];
            let m1 = soft[2 * t + 1];
            metric_next.iter_mut().for_each(|m| *m = NEG);
            let surv = &mut survivor[t * ns..(t + 1) * ns];
            #[allow(clippy::needless_range_loop)] // s is the state label, not just an index
            for s in 0..ns {
                let pm = metric[s];
                if pm == NEG {
                    continue;
                }
                for input in 0..2usize {
                    let nsid = self.trellis.next[s][input] as usize;
                    let out = self.trellis.out[s][input];
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

        traceback(&survivor, &metric, ns, steps, terminated)
    }

    /// Batched butterfly ACS: per butterfly `j`, the four edge metrics are
    /// `±v_j`, and the two winners are picked branchlessly — no per-edge
    /// lookups, no data-dependent branches (the direct loop's compare branch
    /// is ~random on real LLRs and its mispredicts dominate decode time).
    ///
    /// Survivors are stored **bit-packed**: one decision bit per state per
    /// step (`ns/64` words per step instead of `ns` u32 lanes), because the
    /// predecessor is recoverable from the state label alone —
    /// `prev = ((s mod half)·2) | d` and the emitted bit is `s ≥ half`.
    /// For the K=7 code that shrinks survivor memory 32× (one u64 per step),
    /// keeping the whole store L1-resident for full-packet decodes.
    ///
    /// A step runs the AVX2 [`acs_step_avx2`] on the AVX2 backend for codes
    /// of at most 64 states when both of its metrics are finite, else the
    /// portable [`acs_step`] (hostile ±∞/NaN LLRs, `BACKFI_SIMD=off` and
    /// non-x86 hosts included). The figures, examples and benchmark
    /// workloads feed only finite LLRs (depuncturing erasures are exact
    /// zeros), so on AVX2 hosts the portable step serves hostile inputs.
    ///
    /// Produces bit-identical decisions to [`Self::run_direct`]:
    /// * `s·m` with `s = ±1.0` equals `±m` bitwise, so `v_j` equals the
    ///   direct loop's branch metric, and `pm − v` ≡ `pm + (−v)` in IEEE;
    /// * a predecessor at `−∞` (unreachable) yields a candidate of `−∞` (or
    ///   NaN when `v = ±∞`, sanitized to `−∞`), which loses every strict
    ///   comparison — exactly like the direct loop's skip;
    /// * NaN candidates are sanitized to `−∞`, matching `NaN > x == false`;
    /// * ties keep the even predecessor, matching the direct loop's strict
    ///   `>` update with ascending state order;
    /// * the direct loop's "survivor 0 for unreachable states" convention is
    ///   reproduced exactly: a `−∞` winner always stores decision bit 0
    ///   (`−∞ > −∞` is false), traceback from a finite-metric state never
    ///   visits a `−∞`-metric one (a finite winner implies a finite
    ///   predecessor), and the single remaining case — *starting* traceback
    ///   on a `−∞` state — is handled explicitly in
    ///   [`traceback_packed`].
    fn run_batched(
        &self,
        b: &BatchedTrellis,
        soft: &[f64],
        steps: usize,
        terminated: bool,
    ) -> Vec<bool> {
        let ns = self.trellis.states;
        const NEG: f64 = f64::NEG_INFINITY;
        let mut metric = vec![NEG; ns];
        metric[0] = 0.0; // encoder starts from state 0
        let mut metric_next = vec![NEG; ns];
        // Packed decision bits: words_per_step words, state s's bit at
        // word s/64, position s%64.
        let wps = ns.div_ceil(64);
        let mut words = vec![0u64; steps * wps];

        #[cfg(target_arch = "x86_64")]
        let avx2 = ns <= 64 && backend() == Backend::Avx2;

        for t in 0..steps {
            let m0 = soft[2 * t];
            let m1 = soft[2 * t + 1];
            #[cfg(target_arch = "x86_64")]
            if avx2 && m0.is_finite() && m1.is_finite() {
                // SAFETY: the AVX2 backend is only reported after runtime
                // detection. With `ns <= 64` one word holds a step's bits
                // (`wps == 1`), the same layout `acs_step` writes.
                words[t] = unsafe { acs_step_avx2(b, m0, m1, &metric, &mut metric_next) };
                std::mem::swap(&mut metric, &mut metric_next);
                continue;
            }
            acs_step(
                &b.s0,
                &b.s1,
                m0,
                m1,
                &metric,
                &mut metric_next,
                &mut words[t * wps..(t + 1) * wps],
            );
            std::mem::swap(&mut metric, &mut metric_next);
        }

        traceback_packed(&words, wps, &metric, ns, steps, terminated)
    }
}

/// One trellis step of the butterfly ACS (see
/// [`ViterbiDecoder::run_batched`] for the equivalence argument).
/// `metric_next` is fully overwritten; `row` receives the packed decision
/// bits for this step (state `s`'s bit at word `s/64`, position `s%64`).
#[inline(always)]
fn acs_step(
    s0: &[f64],
    s1: &[f64],
    m0: f64,
    m1: f64,
    metric: &[f64],
    metric_next: &mut [f64],
    row: &mut [u64],
) {
    const NEG: f64 = f64::NEG_INFINITY;
    let half = s0.len();
    let (lo, hi) = metric_next.split_at_mut(half);
    row.iter_mut().for_each(|w| *w = 0);
    for j in 0..half {
        let vj = s0[j] * m0 + s1[j] * m1;
        let pm0 = metric[2 * j];
        let pm1 = metric[2 * j + 1];
        // input 0 → state j: candidates pm0 + v (from 2j), pm1 − v (from 2j+1)
        let c0 = pm0 + vj;
        let c1 = pm1 - vj;
        let k0 = if c0.is_nan() { NEG } else { c0 };
        let k1 = if c1.is_nan() { NEG } else { c1 };
        let take1 = k1 > k0;
        lo[j] = if take1 { k1 } else { k0 };
        row[j >> 6] |= (take1 as u64) << (j & 63);
        // input 1 → state j+half: candidates pm0 − v, pm1 + v
        let d0 = pm0 - vj;
        let d1 = pm1 + vj;
        let q0 = if d0.is_nan() { NEG } else { d0 };
        let q1 = if d1.is_nan() { NEG } else { d1 };
        let t1 = q1 > q0;
        hi[j] = if t1 { q1 } else { q0 };
        let hj = half + j;
        row[hj >> 6] |= (t1 as u64) << (hj & 63);
    }
}

/// Hand-vectorized AVX2 instantiation of [`acs_step`]: four butterflies per
/// iteration, decision bits harvested straight from the compare masks with
/// `movemask` (no survivor-index arithmetic or stores at all). Returns the
/// packed decision word for this step; the caller guarantees `ns ≤ 64` so
/// one u64 holds every state's bit.
///
/// The caller guarantees both step metrics are finite. Then no candidate can
/// be NaN (path metrics are finite or −∞, and finite ± finite / −∞ ± finite
/// never produce NaN), so the portable body's NaN sanitize is the identity
/// and is left out, and the ±1 signs apply as sign-bit XORs (bit-identical
/// to the multiply for finite metrics; see `BatchedTrellis::sm0`). Every
/// lane otherwise performs the same IEEE add/sub and the same
/// compare/select sequence as [`acs_step`] (no FMA contraction), so the
/// result is bit-identical. The compare masks encode the "−∞ winner stores
/// decision 0" convention (`−∞ > −∞` is false).
///
/// # Safety
/// The CPU must support AVX2, and `metric` must hold at least
/// `2 · b.s0.len()` entries: the vector loads read `metric[2j..2j + 8]`
/// without bounds checks.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn acs_step_avx2(
    b: &BatchedTrellis,
    m0: f64,
    m1: f64,
    metric: &[f64],
    metric_next: &mut [f64],
) -> u64 {
    use std::arch::x86_64::*;
    let (s0, s1) = (&b.s0[..], &b.s1[..]);
    let half = s0.len();
    let (lo, hi) = metric_next.split_at_mut(half);
    let m0v = _mm256_set1_pd(m0);
    let m1v = _mm256_set1_pd(m1);
    let mut lo_acc: u64 = 0;
    let mut hi_acc: u64 = 0;
    let mut j = 0usize;
    while j + 4 <= half {
        let sm0v = _mm256_loadu_pd(b.sm0.as_ptr().add(j));
        let sm1v = _mm256_loadu_pd(b.sm1.as_ptr().add(j));
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
        let m = _mm256_blendv_pd(c0, c1, gt);
        _mm256_storeu_pd(lo.as_mut_ptr().add(j), m);
        lo_acc |= (_mm256_movemask_pd(gt) as u64) << j;
        // input 1 → states j+half..j+half+4: candidates pm0 − v, pm1 + v.
        let d0 = _mm256_sub_pd(pm0, vv);
        let d1 = _mm256_add_pd(pm1, vv);
        let gt2 = _mm256_cmp_pd(d1, d0, _CMP_GT_OQ);
        let q = _mm256_blendv_pd(d0, d1, gt2);
        _mm256_storeu_pd(hi.as_mut_ptr().add(j), q);
        hi_acc |= (_mm256_movemask_pd(gt2) as u64) << j;
        j += 4;
    }
    // Scalar tail for trellises whose half-size is not a multiple of 4
    // (e.g. the K=3 test code, half = 2) — `acs_step`'s body without the
    // sanitize.
    while j < half {
        let vj = s0[j] * m0 + s1[j] * m1;
        let pm0 = metric[2 * j];
        let pm1 = metric[2 * j + 1];
        let c0 = pm0 + vj;
        let c1 = pm1 - vj;
        let take1 = c1 > c0;
        lo[j] = if take1 { c1 } else { c0 };
        lo_acc |= (take1 as u64) << j;
        let d0 = pm0 - vj;
        let d1 = pm1 + vj;
        let t1 = d1 > d0;
        hi[j] = if t1 { d1 } else { d0 };
        hi_acc |= (t1 as u64) << j;
        j += 1;
    }
    lo_acc | (hi_acc << half)
}

/// Shared traceback over the direct path's u32 survivor memory.
fn traceback(
    survivor: &[u32],
    metric: &[f64],
    ns: usize,
    steps: usize,
    terminated: bool,
) -> Vec<bool> {
    let mut state = if terminated {
        0usize
    } else {
        // NaN-poisoned path metrics (corrupted LLR inputs) must lose the
        // comparison, not panic it: map NaN below -inf, then total order.
        let key = |m: &f64| if m.is_nan() { f64::NEG_INFINITY } else { *m };
        metric
            .iter()
            .enumerate()
            .max_by(|a, b| key(a.1).total_cmp(&key(b.1)))
            .map(|(i, _)| i)
            .unwrap_or(0)
    };
    let mut bits = vec![false; steps];
    for t in (0..steps).rev() {
        let packed = survivor[t * ns + state];
        bits[t] = packed >> 31 == 1;
        state = (packed & 0x7FFF_FFFF) as usize;
    }
    bits
}

/// Branchless traceback over the packed decision bits.
///
/// The butterfly structure makes the predecessor recoverable from the state
/// label and its one decision bit: entry into state `s` used input
/// `s ≥ half`, from predecessor `((s mod half)·2) | d`. Equivalence with
/// [`traceback`]'s u32 walk:
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
fn traceback_packed(
    words: &[u64],
    wps: usize,
    metric: &[f64],
    ns: usize,
    steps: usize,
    terminated: bool,
) -> Vec<bool> {
    let half = ns / 2;
    let mut state = if terminated {
        0usize
    } else {
        let key = |m: &f64| if m.is_nan() { f64::NEG_INFINITY } else { *m };
        metric
            .iter()
            .enumerate()
            .max_by(|a, b| key(a.1).total_cmp(&key(b.1)))
            .map(|(i, _)| i)
            .unwrap_or(0)
    };
    let mut bits = vec![false; steps];
    let mut t = steps;
    if t > 0 && metric[state] == f64::NEG_INFINITY {
        // Unreachable start: the u32 store holds 0 here (bit false, state 0).
        t -= 1;
        state = 0;
    }
    while t > 0 {
        t -= 1;
        let row = &words[t * wps..];
        let d = (row[state >> 6] >> (state & 63)) & 1;
        bits[t] = state >= half;
        state = ((state & (half - 1)) << 1) | d as usize;
    }
    bits
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conv::ConvEncoder;
    use crate::puncture::puncture;
    use backfi_dsp::rng::SplitMix64;

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

    /// NaN, ±∞, erasures and denormals sprinkled into real LLRs.
    fn hostile_sets() -> Vec<Vec<f64>> {
        (0..4u64)
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
            .collect()
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
                dec.decode_soft_truncated_direct(soft),
                "{what} {i} truncated"
            );
            assert_eq!(
                dec.decode_soft_terminated(soft),
                dec.decode_soft_terminated_direct(soft),
                "{what} {i} terminated"
            );
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
    fn k3_batched_matches_direct_on_hostile_llrs() {
        // 4-state code: the packed survivor traceback stores 4 decisions per
        // word slot — the narrowest layout — and must still agree with the
        // direct u32 path under NaN/∞ contamination.
        let dec = ViterbiDecoder::new(3, 0b111, 0b101);
        assert!(dec.batched.is_some());
        let mut soft = rand_llrs(42, 80);
        soft[0] = f64::NAN;
        soft[9] = f64::INFINITY;
        soft[10] = f64::NEG_INFINITY;
        soft[11] = -0.0;
        assert_eq!(
            dec.decode_soft_truncated(&soft),
            dec.decode_soft_truncated_direct(&soft)
        );
        assert_eq!(
            dec.decode_soft_terminated(&soft),
            dec.decode_soft_terminated_direct(&soft)
        );
    }

    #[test]
    fn forced_scalar_portable_acs_matches_direct() {
        // Every tested code has at most 64 states, so on an AVX2 host only
        // the scalar backend reaches the portable `acs_step`.
        use backfi_dsp::simd::{backend, force_scalar, Backend};
        let was_scalar = backend() == Backend::Scalar;
        force_scalar(true);
        let dec = ViterbiDecoder::ieee80211();
        assert_matches_direct(&dec, &random_sets(), "random");
        assert_matches_direct(&dec, &hostile_sets(), "hostile");
        assert_matches_direct(&dec, &degenerate_sets(), "degenerate");
        force_scalar(was_scalar);
    }

    #[test]
    fn k3_code_uses_batched_path_and_matches() {
        // (7, 5) taps newest+oldest bits in both generators → butterfly form.
        let dec = ViterbiDecoder::new(3, 0b111, 0b101);
        assert!(dec.batched.is_some());
        let soft = rand_llrs(11, 60);
        assert_eq!(
            dec.decode_soft_truncated(&soft),
            dec.decode_soft_truncated_direct(&soft)
        );
    }

    #[test]
    fn non_butterfly_code_falls_back_to_direct() {
        // g1 = 0b110 doesn't tap the oldest bit → butterfly relations fail,
        // the decoder must silently use the direct path and stay correct.
        let dec = ViterbiDecoder::new(3, 0b111, 0b110);
        assert!(dec.batched.is_none());
        let bits: Vec<bool> = (0..20).map(|i| (i * 5) % 3 == 1).collect();
        let mut enc = ConvEncoder::new(3, 0b111, 0b110);
        let coded = enc.encode_terminated(&bits);
        assert_eq!(dec.decode_hard_terminated(&coded), bits);
    }

    #[test]
    fn small_code_k3() {
        // K=3 (7,5) code — a classic textbook example.
        let bits: Vec<bool> = (0..20).map(|i| i % 2 == 0).collect();
        let mut enc = ConvEncoder::new(3, 0b111, 0b101);
        let coded = enc.encode_terminated(&bits);
        let dec = ViterbiDecoder::new(3, 0b111, 0b101).decode_hard_terminated(&coded);
        assert_eq!(dec, bits);
    }
}
