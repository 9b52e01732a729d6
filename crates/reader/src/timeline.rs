//! Protocol timeline bookkeeping (Fig. 4).
//!
//! The reader transmitted the wake-up preamble itself, so it knows — up to
//! the tag's 1 µs comparator quantization and the propagation delay — where
//! the tag's silent period, PN preamble and payload land in its own sample
//! stream. The channel estimator refines this with a small timing search.

use backfi_dsp::us_to_samples;
use backfi_tag::config::TagConfig;
use backfi_tag::framer::SILENT_US;
use std::ops::Range;

/// Sample ranges of the tag protocol phases within the reader's stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Timeline {
    /// Tag silent window (reader trains the digital canceller here).
    pub silent: Range<usize>,
    /// Tag PN preamble window.
    pub preamble: Range<usize>,
    /// Tag payload window (up to the end of the excitation).
    pub payload: Range<usize>,
}

impl Timeline {
    /// Build the nominal timeline.
    ///
    /// * `detect_end` — sample index where the AP's 16-bit wake-up preamble
    ///   ended (the tag detects on its final bit),
    /// * `excitation_end` — last sample of the excitation signal,
    /// * `cfg` — the tag's configuration (for the preamble length).
    ///
    /// # Panics
    /// Panics if the excitation ends before the payload could start.
    pub fn nominal(detect_end: usize, excitation_end: usize, cfg: &TagConfig) -> Timeline {
        let silent_start = detect_end;
        let silent_end = silent_start + us_to_samples(SILENT_US);
        let preamble_end = silent_end + us_to_samples(cfg.preamble_us);
        assert!(
            preamble_end < excitation_end,
            "excitation too short for the tag protocol"
        );
        Timeline {
            silent: silent_start..silent_end,
            preamble: silent_end..preamble_end,
            payload: preamble_end..excitation_end,
        }
    }

    /// Shift the preamble+payload part of the timeline by `offset` samples
    /// (timing-search correction; the silent window is conservative and is
    /// not shifted).
    pub fn shifted(&self, offset: isize) -> Timeline {
        let mv = |r: &Range<usize>| {
            let s = (r.start as isize + offset).max(0) as usize;
            let e = (r.end as isize + offset).max(0) as usize;
            s..e
        };
        Timeline {
            silent: self.silent.clone(),
            preamble: mv(&self.preamble),
            payload: mv(&self.payload),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nominal_layout() {
        let cfg = TagConfig::default(); // 32 µs preamble
        let t = Timeline::nominal(1000, 50_000, &cfg);
        assert_eq!(t.silent, 1000..1320);
        assert_eq!(t.preamble, 1320..1960);
        assert_eq!(t.payload, 1960..50_000);
    }

    #[test]
    fn shifting() {
        let cfg = TagConfig::default();
        let t = Timeline::nominal(100, 10_000, &cfg);
        let s = t.shifted(40);
        assert_eq!(s.preamble.start, t.preamble.start + 40);
        assert_eq!(s.payload.start, t.payload.start + 40);
        assert_eq!(s.silent, t.silent);
        let neg = t.shifted(-20);
        assert_eq!(neg.preamble.start, t.preamble.start - 20);
    }

    #[test]
    #[should_panic(expected = "too short")]
    fn rejects_tiny_excitation() {
        Timeline::nominal(0, 500, &TagConfig::default());
    }
}
