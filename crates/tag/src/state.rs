//! The tag's link-layer state machine (Fig. 4), driven sample by sample.
//!
//! The tag watches the incident RF through its energy detector; when it
//! recognizes the AP's 16-bit wake-up preamble it runs the protocol:
//! 16 µs silent (absorbing), then its PN preamble, then payload symbols until
//! its data (or the excitation) runs out. The only output of the tag is its
//! per-sample reflection coefficient Γ — everything else (what the reader
//! sees) is physics handled by `backfi-chan`.

use crate::config::TagConfig;
use crate::detector::{EnergyDetector, PreambleCorrelator, SAMPLES_PER_BIT};
use crate::framer::{TagFrame, SILENT_US};
use crate::modulator::SwitchTreeModulator;
use backfi_dsp::{us_to_samples, Complex};

/// Current protocol state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TagState {
    /// No data to send; not reacting (absorbing).
    Sleep,
    /// Data loaded; watching for the AP wake-up preamble.
    Listening,
    /// Detected; absorbing for 16 µs while the reader estimates `h_env`.
    Silent,
    /// Backscattering the PN preamble.
    Preamble,
    /// Backscattering payload symbols.
    Payload,
    /// Frame complete; absorbing until re-armed.
    Done,
}

/// A BackFi tag.
#[derive(Clone, Debug)]
pub struct Tag {
    /// Tag identifier (selects its wake-up preamble).
    pub id: u16,
    cfg: TagConfig,
    state: TagState,
    detector: EnergyDetector,
    correlator: PreambleCorrelator,
    modulator: SwitchTreeModulator,
    /// Encoded payload symbols (constellation indices).
    symbols: Vec<usize>,
    /// Preamble chips (±1).
    chips: Vec<f64>,
    /// Sample countdown/cursor within the current state.
    cursor: usize,
    samples_per_symbol: usize,
}

impl Tag {
    /// Create a tag with the given id and configuration. Starts in `Sleep`.
    pub fn new(id: u16, cfg: TagConfig) -> Self {
        let pattern = backfi_coding::prbs::tag_preamble(id);
        Tag {
            id,
            cfg,
            state: TagState::Sleep,
            detector: EnergyDetector::default_sensitivity(),
            correlator: PreambleCorrelator::new(pattern, 15),
            modulator: SwitchTreeModulator::new(cfg.modulation, 1.5),
            symbols: Vec::new(),
            chips: TagFrame::preamble_chips(cfg.preamble_us),
            cursor: 0,
            samples_per_symbol: cfg.samples_per_symbol(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &TagConfig {
        &self.cfg
    }

    /// Current protocol state.
    pub fn state(&self) -> TagState {
        self.state
    }

    /// Load sensor data; the tag wakes from `Sleep` to `Listening`
    /// ("if it has sufficient data to transmit, the tag wakes up and listens
    /// for its preamble", §4.1).
    pub fn load_data(&mut self, payload: &[u8]) {
        self.symbols = TagFrame::encode(payload, &self.cfg);
        self.state = TagState::Listening;
        self.cursor = 0;
        self.detector.reset();
        self.correlator.reset();
    }

    /// The constellation indices of the frame [`Tag::load_data`] encoded
    /// (`TagFrame::encode` of the payload), in transmit order.
    pub fn symbols(&self) -> &[usize] {
        &self.symbols
    }

    /// Re-arm after `Done` without changing the loaded data (for repeated
    /// transmissions of the same frame in experiments).
    pub fn rearm(&mut self) {
        if !self.symbols.is_empty() {
            self.state = TagState::Listening;
            self.cursor = 0;
            self.detector.reset();
            self.correlator.reset();
        }
    }

    /// Feed the incident baseband samples the tag's antenna sees; returns the
    /// reflection coefficient Γ the tag applies to each of those samples.
    pub fn react(&mut self, incident: &[Complex]) -> Vec<Complex> {
        let mut gamma = Vec::with_capacity(incident.len());
        self.react_append(incident, &mut gamma);
        gamma
    }

    /// [`Tag::react`] in extending prefixes: appends the coefficients
    /// of samples `gamma.len()..end` of `incident` to `gamma`. The state
    /// machine walks its input in comparator-bit chunks of
    /// [`SAMPLES_PER_BIT`] samples counted from the call's first sample, so
    /// a prefix that ends on a bit boundary leaves the tag exactly where one
    /// whole-packet call would be at that sample, and every appended
    /// coefficient is the one `react` gives. A no-op when
    /// `end <= gamma.len()`.
    ///
    /// # Panics
    /// Panics if `gamma.len()` is not a multiple of [`SAMPLES_PER_BIT`], or
    /// `end > incident.len()`.
    pub fn react_extend(&mut self, incident: &[Complex], end: usize, gamma: &mut Vec<Complex>) {
        let start = gamma.len();
        if end <= start {
            return;
        }
        assert!(
            start.is_multiple_of(SAMPLES_PER_BIT),
            "a reaction extends from a comparator-bit boundary"
        );
        self.react_append(&incident[start..end], gamma);
    }

    /// The state machine behind [`Tag::react`]: appends one
    /// coefficient per incident sample to `gamma`.
    fn react_append(&mut self, incident: &[Complex], gamma: &mut Vec<Complex>) {
        for chunk in ChunkIter::new(incident) {
            match self.state {
                TagState::Sleep | TagState::Done => {
                    gamma.extend(std::iter::repeat_n(Complex::ZERO, chunk.len()));
                }
                TagState::Listening => {
                    // Sample-exact: a comparator bit completes every 20th
                    // sample; the state transition happens at precisely that
                    // sample so caller chunking cannot shift the timeline.
                    // The detector takes a bit at a time (a chunk holds one
                    // whole bit, or the two parts of one that straddles
                    // calls).
                    let mut taken = 0;
                    let mut matched = false;
                    while taken < chunk.len() && !matched {
                        let (took, bit) = self.detector.next_bit(&chunk[taken..]);
                        gamma.extend(std::iter::repeat_n(Complex::ZERO, took));
                        taken += took;
                        matched = bit.is_some_and(|b| self.correlator.push(b));
                    }
                    if matched {
                        self.state = TagState::Silent;
                        self.cursor = us_to_samples(SILENT_US);
                        if taken < chunk.len() {
                            self.react_append(&chunk[taken..], gamma);
                        }
                    }
                }
                TagState::Silent => {
                    let take = chunk.len().min(self.cursor);
                    gamma.extend(std::iter::repeat_n(Complex::ZERO, take));
                    self.cursor -= take;
                    if self.cursor == 0 {
                        self.state = TagState::Preamble;
                    }
                    // Feed any remaining samples of this chunk recursively.
                    if take < chunk.len() {
                        self.react_append(&chunk[take..], gamma);
                    }
                }
                TagState::Preamble => {
                    let chip_samples = us_to_samples(crate::framer::PREAMBLE_CHIP_US);
                    let total = self.chips.len() * chip_samples;
                    let mut taken = 0;
                    while taken < chunk.len() && self.cursor < total {
                        let chip = self.chips[self.cursor / chip_samples];
                        gamma.push(Complex::real(chip));
                        self.cursor += 1;
                        taken += 1;
                    }
                    if self.cursor >= total {
                        self.state = TagState::Payload;
                        self.cursor = 0;
                    }
                    if taken < chunk.len() {
                        self.react_append(&chunk[taken..], gamma);
                    }
                }
                TagState::Payload => {
                    let total = self.symbols.len() * self.samples_per_symbol;
                    let mut taken = 0;
                    let mut last_sym = usize::MAX;
                    while taken < chunk.len() && self.cursor < total {
                        let sym = self.cursor / self.samples_per_symbol;
                        if sym != last_sym {
                            // One switch-tree selection per symbol.
                            self.modulator.select(self.symbols[sym]);
                            last_sym = sym;
                        }
                        gamma.push(self.modulator.coefficient(self.symbols[sym]));
                        self.cursor += 1;
                        taken += 1;
                    }
                    if self.cursor >= total {
                        self.state = TagState::Done;
                    }
                    if taken < chunk.len() {
                        self.react_append(&chunk[taken..], gamma);
                    }
                }
            }
        }
    }
}

/// Helper that yields the input in µs-aligned chunks so the detector's
/// decisions land on the same boundaries regardless of caller chunking.
struct ChunkIter<'a> {
    data: &'a [Complex],
    pos: usize,
}

impl<'a> ChunkIter<'a> {
    fn new(data: &'a [Complex]) -> Self {
        ChunkIter { data, pos: 0 }
    }
}

impl<'a> Iterator for ChunkIter<'a> {
    type Item = &'a [Complex];
    fn next(&mut self) -> Option<&'a [Complex]> {
        if self.pos >= self.data.len() {
            return None;
        }
        let end = (self.pos + SAMPLES_PER_BIT).min(self.data.len());
        let chunk = &self.data[self.pos..end];
        self.pos = end;
        Some(chunk)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use backfi_coding::prbs::tag_preamble;

    /// Build an excitation: idle, then the AP pulse preamble for this tag,
    /// then `data_us` of constant excitation.
    fn excitation(tag_id: u16, amp: f64, data_us: f64) -> Vec<Complex> {
        let mut v = vec![Complex::ZERO; 100];
        for &b in &tag_preamble(tag_id) {
            let level = if b { amp } else { 0.0 };
            v.extend((0..SAMPLES_PER_BIT).map(|_| Complex::real(level)));
        }
        v.extend((0..us_to_samples(data_us)).map(|i| Complex::from_polar(amp, i as f64 * 0.3)));
        v
    }

    #[test]
    fn full_protocol_sequence() {
        let cfg = TagConfig::default();
        let mut tag = Tag::new(3, cfg);
        assert_eq!(tag.state(), TagState::Sleep);
        tag.load_data(&[0xAA; 20]);
        assert_eq!(tag.state(), TagState::Listening);

        let x = excitation(3, 1e-2, 400.0);
        let gamma = tag.react(&x);
        assert_eq!(gamma.len(), x.len());
        assert_eq!(tag.state(), TagState::Done);

        // Find where modulation starts: first nonzero gamma.
        let first = gamma
            .iter()
            .position(|g| g.abs() > 0.0)
            .expect("tag reflected");
        // Everything before it is silent; the preamble follows for 32 µs.
        let pre_len = us_to_samples(cfg.preamble_us);
        #[allow(clippy::needless_range_loop)] // i names the absolute sample index
        for i in first..first + pre_len {
            assert!((gamma[i].abs() - 1.0).abs() < 1e-9, "preamble sample {i}");
            assert!(gamma[i].im.abs() < 1e-9, "preamble must be ±1");
        }
        // Payload symbols follow.
        let sym0 = gamma[first + pre_len];
        assert!((sym0.abs() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn silent_period_is_16us() {
        let cfg = TagConfig::default();
        let mut tag = Tag::new(1, cfg);
        tag.load_data(&[1, 2, 3]);
        let x = excitation(1, 1e-2, 200.0);
        let gamma = tag.react(&x);
        let first_reflect = gamma.iter().position(|g| g.abs() > 0.0).unwrap();
        // The match completes on the last preamble bit; silence follows.
        // Detection happens within a bit of the preamble end = 100 + 16*20.
        let preamble_end = 100 + 16 * SAMPLES_PER_BIT;
        let silent = first_reflect - preamble_end;
        let expect = us_to_samples(SILENT_US);
        assert!(
            (silent as i64 - expect as i64).unsigned_abs() <= SAMPLES_PER_BIT as u64,
            "silent gap {silent} vs {expect}"
        );
    }

    #[test]
    fn ignores_other_tags_preamble() {
        let mut tag = Tag::new(5, TagConfig::default());
        tag.load_data(&[9; 8]);
        let x = excitation(6, 1e-2, 200.0); // wrong id
        let gamma = tag.react(&x);
        assert!(gamma.iter().all(|g| g.abs() == 0.0));
        assert_eq!(tag.state(), TagState::Listening);
    }

    #[test]
    fn sleeping_tag_never_reflects() {
        let mut tag = Tag::new(2, TagConfig::default());
        let x = excitation(2, 1e-2, 100.0);
        let gamma = tag.react(&x);
        assert!(gamma.iter().all(|g| g.abs() == 0.0));
    }

    #[test]
    fn weak_excitation_below_sensitivity_is_ignored() {
        let mut tag = Tag::new(4, TagConfig::default());
        tag.load_data(&[7; 4]);
        let x = excitation(4, 1e-5, 100.0); // −100 dBm-ish
        tag.react(&x);
        assert_eq!(tag.state(), TagState::Listening);
    }

    #[test]
    fn chunked_reaction_matches_block() {
        let cfg = TagConfig::default();
        let x = excitation(7, 1e-2, 150.0);
        let mut a = Tag::new(7, cfg);
        a.load_data(&[3; 10]);
        let block = a.react(&x);
        let mut b = Tag::new(7, cfg);
        b.load_data(&[3; 10]);
        let mut chunked = Vec::new();
        for c in x.chunks(33) {
            chunked.extend(b.react(c));
        }
        assert_eq!(block, chunked);
    }

    #[test]
    fn extended_reaction_matches_block() {
        // Extensions on comparator-bit boundaries, the last one ragged,
        // across the wake-up, the silent period, the preamble and payload.
        let cfg = TagConfig::default();
        let x = excitation(7, 1e-2, 150.0);
        let mut a = Tag::new(7, cfg);
        a.load_data(&[3; 10]);
        let block = a.react(&x);
        let mut b = Tag::new(7, cfg);
        b.load_data(&[3; 10]);
        let (mut gamma, mut len) = (Vec::new(), 0);
        for end in [0, 40, 20, 420, 440, 1000, 2000, 2000, x.len()] {
            b.react_extend(&x, end, &mut gamma);
            len = len.max(end);
            assert_eq!(gamma.len(), len);
        }
        assert_eq!(block, gamma);
        assert_eq!(a.state(), b.state());
    }

    #[test]
    fn block_reaction_matches_sample_by_sample() {
        // The listening tag decides a comparator bit per 20-sample block;
        // fed one sample per call it collects every bit sample by sample.
        // Both must wake at the same sample and reflect the same Γ: the
        // wake-up preamble lands at every sample phase of the comparator's
        // bits, after random-energy lead-ins, with a ragged last bit; and a
        // tag whose preamble never comes listens to the end.
        use backfi_dsp::rng::SplitMix64;
        let cfg = TagConfig::default();
        let mut rng = SplitMix64::new(0x7A6);
        let mut wakes = 0;
        for case in 0..2 * SAMPLES_PER_BIT + 2 {
            let id = if case < 2 * SAMPLES_PER_BIT { 7 } else { 6 };
            let lead = case % (2 * SAMPLES_PER_BIT) + if case % 3 == 0 { 0 } else { 100 };
            let mut x: Vec<Complex> = (0..lead)
                .map(|_| {
                    let amp = 10f64.powf(-2.0 - 4.0 * rng.next_f64());
                    Complex::from_polar(amp, 6.3 * rng.next_f64())
                })
                .collect();
            x.extend(excitation(id, 1e-2, 60.0));
            x.truncate(x.len() - 7);
            let mut block = Tag::new(7, cfg);
            block.load_data(&[5; 4]);
            let want = block.react(&x);
            let mut sample = Tag::new(7, cfg);
            sample.load_data(&[5; 4]);
            let got: Vec<Complex> = x
                .iter()
                .flat_map(|s| sample.react(std::slice::from_ref(s)))
                .collect();
            assert_eq!(got, want, "case {case}");
            assert_eq!(sample.state(), block.state(), "case {case}");
            // A preamble on the comparator's bit grid always wakes its tag;
            // straddling the grid may cost the 15-of-16 match.
            let woke = block.state() != TagState::Listening;
            if id != 7 || lead.is_multiple_of(SAMPLES_PER_BIT) {
                assert_eq!(woke, id == 7, "case {case}: state {:?}", block.state());
            }
            wakes += woke as usize;
        }
        assert!(wakes > SAMPLES_PER_BIT, "only {wakes} tags woke");
    }

    #[test]
    #[should_panic(expected = "comparator-bit boundary")]
    fn reaction_extends_only_from_a_bit_boundary() {
        let x = excitation(7, 1e-2, 10.0);
        let mut tag = Tag::new(7, TagConfig::default());
        let mut gamma = Vec::new();
        tag.react_extend(&x, 30, &mut gamma);
        tag.react_extend(&x, 60, &mut gamma);
    }

    #[test]
    fn rearm_allows_second_frame() {
        let cfg = TagConfig::default();
        let mut tag = Tag::new(8, cfg);
        tag.load_data(&[1; 10]);
        let x = excitation(8, 1e-2, 300.0);
        tag.react(&x);
        assert_eq!(tag.state(), TagState::Done);
        tag.rearm();
        assert_eq!(tag.state(), TagState::Listening);
        let gamma = tag.react(&x);
        assert!(gamma.iter().any(|g| g.abs() > 0.0));
    }
}
