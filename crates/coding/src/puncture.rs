//! Puncturing of the rate-1/2 mother code.
//!
//! 802.11a/g derives rates 2/3 and 3/4 from the K=7 rate-1/2 code by deleting
//! coded bits in a fixed pattern; the receiver re-inserts erasures before
//! Viterbi decoding. The BackFi tag uses rates 1/2 and 2/3 (Fig. 7 of the
//! paper), and the energy model charges the tag for the post-puncturing
//! on-air bit count.

/// Code rate of the (possibly punctured) K=7 convolutional code.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CodeRate {
    /// Unpunctured mother code, rate 1/2.
    Half,
    /// Punctured to rate 2/3.
    TwoThirds,
    /// Punctured to rate 3/4.
    ThreeQuarters,
}

impl CodeRate {
    /// Numerator of the rate fraction (information bits per puncturing period).
    pub fn k(self) -> usize {
        match self {
            CodeRate::Half => 1,
            CodeRate::TwoThirds => 2,
            CodeRate::ThreeQuarters => 3,
        }
    }

    /// Denominator of the rate fraction (transmitted bits per puncturing period).
    pub fn n(self) -> usize {
        match self {
            CodeRate::Half => 2,
            CodeRate::TwoThirds => 3,
            CodeRate::ThreeQuarters => 4,
        }
    }

    /// The rate as a float (`k/n`).
    pub fn as_f64(self) -> f64 {
        self.k() as f64 / self.n() as f64
    }

    /// Human-readable label, e.g. `"1/2"`.
    pub fn label(self) -> &'static str {
        match self {
            CodeRate::Half => "1/2",
            CodeRate::TwoThirds => "2/3",
            CodeRate::ThreeQuarters => "3/4",
        }
    }

    /// The 802.11 puncturing pattern over one period of mother-code output
    /// bits: `true` = transmit, `false` = delete. Period length is `2·k()`.
    pub fn pattern(self) -> &'static [bool] {
        match self {
            // transmit everything
            CodeRate::Half => &[true, true],
            // A1 B1 A2 (B2 stolen)
            CodeRate::TwoThirds => &[true, true, true, false],
            // A1 B1 A2 B3 (B2, A3 stolen)
            CodeRate::ThreeQuarters => &[true, true, true, false, false, true],
        }
    }
}

/// Delete bits from a rate-1/2 coded stream according to the rate's pattern.
pub fn puncture(coded: &[bool], rate: CodeRate) -> Vec<bool> {
    let pat = rate.pattern();
    coded
        .iter()
        .enumerate()
        .filter(|(i, _)| pat[i % pat.len()])
        .map(|(_, &b)| b)
        .collect()
}

/// Re-insert erasures into a punctured **soft** stream so the Viterbi decoder
/// sees one metric per mother-code bit. Soft values follow the convention
/// `>0 ⇒ bit 1 likely`, `<0 ⇒ bit 0 likely`; erasures become exactly `0.0`
/// (no information).
///
/// `mother_len` is the length of the original unpunctured stream (must be
/// consistent with the pattern and input length).
///
/// # Panics
/// Panics if `punctured` has more bits than the pattern allows for
/// `mother_len`.
pub fn depuncture_soft(punctured: &[f64], rate: CodeRate, mother_len: usize) -> Vec<f64> {
    if rate == CodeRate::Half {
        // Rate 1/2 transmits every mother bit — depuncturing is a copy.
        assert!(punctured.len() >= mother_len, "punctured stream too short");
        assert!(
            punctured.len() <= mother_len,
            "punctured stream too long for mother_len"
        );
        return punctured.to_vec();
    }
    let pat = rate.pattern();
    let mut out = Vec::with_capacity(mother_len);
    let mut src = punctured.iter();
    for i in 0..mother_len {
        if pat[i % pat.len()] {
            out.push(*src.next().expect("punctured stream too short"));
        } else {
            out.push(0.0);
        }
    }
    assert!(
        src.next().is_none(),
        "punctured stream too long for mother_len"
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_fractions() {
        assert!((CodeRate::Half.as_f64() - 0.5).abs() < 1e-12);
        assert!((CodeRate::TwoThirds.as_f64() - 2.0 / 3.0).abs() < 1e-12);
        assert!((CodeRate::ThreeQuarters.as_f64() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn puncture_lengths() {
        // 12 mother bits = 6 info bits
        let coded = vec![true; 12];
        assert_eq!(puncture(&coded, CodeRate::Half).len(), 12);
        assert_eq!(puncture(&coded, CodeRate::TwoThirds).len(), 9);
        assert_eq!(puncture(&coded, CodeRate::ThreeQuarters).len(), 8);
    }

    #[test]
    fn depuncture_restores_positions() {
        let mother: Vec<bool> = (0..24).map(|i| i % 3 == 0).collect();
        for rate in [CodeRate::Half, CodeRate::TwoThirds, CodeRate::ThreeQuarters] {
            let tx = puncture(&mother, rate);
            let soft_tx: Vec<f64> = tx.iter().map(|&b| if b { 1.0 } else { -1.0 }).collect();
            let back = depuncture_soft(&soft_tx, rate, mother.len());
            assert_eq!(back.len(), mother.len());
            let pat = rate.pattern();
            for (i, v) in back.iter().enumerate() {
                if pat[i % pat.len()] {
                    assert_eq!(*v > 0.0, mother[i], "bit {i}");
                } else {
                    assert_eq!(*v, 0.0, "erasure {i}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "too short")]
    fn depuncture_rejects_short_stream() {
        depuncture_soft(&[1.0], CodeRate::Half, 4);
    }
}
