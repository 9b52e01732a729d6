//! The RF switch-tree backscatter phase modulator (Fig. 3 of the paper).
//!
//! A binary tree of SPDT switches routes the incident RF to one of `n`
//! short-circuited transmission-line stubs; the stub length sets the phase of
//! the reflection. We model the discrete phases (with a per-leaf fabrication
//! error from trace-length quantization), the switch-count bookkeeping that
//! the energy model charges for, and the number of switch *toggles* (dynamic
//! energy is consumed per toggle).

use crate::config::TagModulation;
use backfi_dsp::Complex;

/// A realized switch-tree modulator.
#[derive(Clone, Debug)]
pub struct SwitchTreeModulator {
    modulation: TagModulation,
    /// Reflection coefficient for each leaf (constellation index order).
    leaves: Vec<Complex>,
    /// Currently selected leaf.
    current: usize,
    toggles: u64,
    symbols: u64,
}

impl SwitchTreeModulator {
    /// Build a tree for `modulation`. `phase_error_rms_deg` models the trace
    /// length quantization of a real PCB (per-leaf deterministic offsets,
    /// derived from a small hash so they are reproducible without an RNG).
    pub fn new(modulation: TagModulation, phase_error_rms_deg: f64) -> Self {
        let order = modulation.order();
        let leaves = (0..order)
            .map(|i| {
                let nominal = 2.0 * std::f64::consts::PI * i as f64 / order as f64;
                // Deterministic pseudo-error in [-√3σ, +√3σ] (uniform, rms σ).
                let h = (i as u64)
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .rotate_left(17);
                let u = (h as f64 / u64::MAX as f64) * 2.0 - 1.0;
                let err = u * 3f64.sqrt() * phase_error_rms_deg.to_radians();
                Complex::exp_j(nominal + err)
            })
            .collect();
        SwitchTreeModulator {
            modulation,
            leaves,
            current: 0,
            toggles: 0,
            symbols: 0,
        }
    }

    /// An ideal tree (no fabrication error).
    pub fn ideal(modulation: TagModulation) -> Self {
        Self::new(modulation, 0.0)
    }

    /// The modulation this tree implements.
    pub fn modulation(&self) -> TagModulation {
        self.modulation
    }

    /// Select the leaf whose nominal phase index is `idx`; returns the
    /// reflection coefficient that will be applied to the incident RF.
    ///
    /// # Panics
    /// Panics if `idx` is out of range.
    pub fn select(&mut self, idx: usize) -> Complex {
        assert!(idx < self.leaves.len(), "phase index {idx} out of range");
        // Count how many SPDT control lines change between the two leaves:
        // the control word is the path through the binary tree, so toggles =
        // Hamming distance between leaf indices over the tree depth.
        let depth = self.leaves.len().trailing_zeros();
        let changed = ((self.current ^ idx) & ((1usize << depth) - 1)).count_ones();
        self.toggles += changed as u64;
        self.symbols += 1;
        self.current = idx;
        self.leaves[idx]
    }

    /// Reflection coefficient of a leaf without selecting it.
    pub fn coefficient(&self, idx: usize) -> Complex {
        self.leaves[idx]
    }

    /// Total SPDT control-line toggles so far (dynamic-energy proxy).
    pub fn toggles(&self) -> u64 {
        self.toggles
    }

    /// Symbols modulated so far.
    pub fn symbols(&self) -> u64 {
        self.symbols
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_leaves_are_unit_roots() {
        for m in TagModulation::ALL {
            let t = SwitchTreeModulator::ideal(m);
            for i in 0..m.order() {
                let c = t.coefficient(i);
                assert!((c.abs() - 1.0).abs() < 1e-12);
                let expect = 2.0 * std::f64::consts::PI * i as f64 / m.order() as f64;
                let mut diff = (c.arg() - expect).rem_euclid(2.0 * std::f64::consts::PI);
                if diff > std::f64::consts::PI {
                    diff -= 2.0 * std::f64::consts::PI;
                }
                assert!(diff.abs() < 1e-12, "{m:?} leaf {i}");
            }
        }
    }

    #[test]
    fn phase_error_is_bounded_and_reproducible() {
        let a = SwitchTreeModulator::new(TagModulation::Psk16, 2.0);
        let b = SwitchTreeModulator::new(TagModulation::Psk16, 2.0);
        for i in 0..16 {
            assert_eq!(a.coefficient(i), b.coefficient(i));
            let nominal = 2.0 * std::f64::consts::PI * i as f64 / 16.0;
            let mut diff =
                (a.coefficient(i).arg() - nominal).rem_euclid(2.0 * std::f64::consts::PI);
            if diff > std::f64::consts::PI {
                diff -= 2.0 * std::f64::consts::PI;
            }
            assert!(
                diff.abs() < (2.0f64 * 3f64.sqrt()).to_radians() + 1e-9,
                "leaf {i}"
            );
        }
    }

    #[test]
    fn toggle_counting() {
        let mut t = SwitchTreeModulator::ideal(TagModulation::Qpsk);
        t.select(0); // no change from initial 0
        assert_eq!(t.toggles(), 0);
        t.select(3); // 00 -> 11: two control lines
        assert_eq!(t.toggles(), 2);
        t.select(2); // 11 -> 10: one line
        assert_eq!(t.toggles(), 3);
        assert_eq!(t.symbols(), 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_index() {
        SwitchTreeModulator::ideal(TagModulation::Bpsk).select(2);
    }
}
