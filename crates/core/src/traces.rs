//! Loaded-AP airtime traces and their replay (Fig. 12a).
//!
//! The paper replays real traces [24, 47, 41] "captured for a wide variety of
//! scenarios for heavily loaded networks", filtered to AP transmissions, and
//! activates the tag only while the AP transmits. No such traces ship with
//! this reproduction, so we synthesize the *transmit-opportunity process*
//! with a two-state (busy/idle) Markov burst model calibrated to heavily
//! loaded hotspots: AP airtime shares of roughly 0.55–0.95 with bursty
//! packet trains — the only statistics the experiment actually consumes.

use backfi_dsp::rng::SplitMix64;
// rng trait methods are inherent on SplitMix64

/// One AP transmission in a trace.
#[derive(Clone, Copy, Debug)]
pub struct TraceEntry {
    /// Start time, µs.
    pub start_us: f64,
    /// Packet airtime, µs.
    pub duration_us: f64,
}

/// A synthetic loaded-AP trace.
#[derive(Clone, Debug)]
pub struct ApTrace {
    /// The AP's transmissions, in time order.
    pub entries: Vec<TraceEntry>,
    /// Total trace duration, µs.
    pub total_us: f64,
}

/// Burst-model parameters.
#[derive(Clone, Copy, Debug)]
pub struct TraceModel {
    /// Mean packets per busy burst.
    pub mean_burst_packets: f64,
    /// Mean idle gap between bursts, µs.
    pub mean_idle_us: f64,
    /// Packet airtime range (µs): the AP sends 1–4 ms excitations.
    pub packet_us: (f64, f64),
    /// Inter-frame spacing inside a burst, µs (SIFS+ACK+DIFS ≈ 100 µs).
    pub intra_gap_us: f64,
}

impl Default for TraceModel {
    fn default() -> Self {
        TraceModel {
            mean_burst_packets: 8.0,
            mean_idle_us: 1200.0,
            packet_us: (1000.0, 4000.0),
            intra_gap_us: 100.0,
        }
    }
}

impl ApTrace {
    /// Generate a trace of `total_us` using the burst model. Different seeds
    /// give APs with different loads (idle gaps scale with a per-AP factor).
    pub fn generate(model: &TraceModel, total_us: f64, seed: u64) -> ApTrace {
        let mut rng = SplitMix64::new(seed);
        // Per-AP load factor: scales the idle time 0.25×–3×.
        let load_factor = 0.25 + rng.next_f64() * 2.75;
        let mut entries = Vec::new();
        let mut t = rng.next_f64() * model.mean_idle_us;
        while t < total_us {
            // Geometric burst length ≥ 1.
            let burst = 1
                + (-rng.next_f64().max(1e-12).ln() * (model.mean_burst_packets - 1.0)).round()
                    as usize;
            for _ in 0..burst {
                if t >= total_us {
                    break;
                }
                let dur =
                    model.packet_us.0 + rng.next_f64() * (model.packet_us.1 - model.packet_us.0);
                let dur = dur.min(total_us - t);
                entries.push(TraceEntry {
                    start_us: t,
                    duration_us: dur,
                });
                t += dur + model.intra_gap_us;
            }
            // Exponential idle gap.
            t += -rng.next_f64().max(1e-12).ln() * model.mean_idle_us * load_factor;
        }
        ApTrace { entries, total_us }
    }

    /// Replay the trace for a BackFi link whose steady-state goodput while
    /// the AP transmits is `active_goodput_bps`, accounting for the per-
    /// packet protocol overhead (16 µs detection + 16 µs silence + preamble).
    ///
    /// Returns the average backscatter throughput over the whole trace
    /// (bit/s) — the quantity whose CDF Fig. 12a plots.
    pub fn replay_throughput_bps(&self, active_goodput_bps: f64, overhead_us: f64) -> f64 {
        let bits: f64 = self
            .entries
            .iter()
            .map(|e| (e.duration_us - overhead_us).max(0.0) * 1e-6 * active_goodput_bps)
            .sum();
        bits / (self.total_us * 1e-6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fraction of time the AP is transmitting.
    fn airtime_share(t: &ApTrace) -> f64 {
        let busy: f64 = t.entries.iter().map(|e| e.duration_us).sum();
        busy / t.total_us
    }

    #[test]
    fn traces_are_loaded() {
        // "The traces are captured … for heavily loaded networks."
        let model = TraceModel::default();
        let shares: Vec<f64> = (0..20)
            .map(|s| airtime_share(&ApTrace::generate(&model, 2_000_000.0, s)))
            .collect();
        let med = backfi_dsp::stats::median(&shares);
        assert!(med > 0.5 && med < 0.98, "median share {med}");
        // and they differ across APs
        let spread = shares.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            - shares.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(spread > 0.1, "spread {spread}");
    }

    #[test]
    fn entries_do_not_overlap() {
        let t = ApTrace::generate(&TraceModel::default(), 500_000.0, 3);
        for w in t.entries.windows(2) {
            assert!(w[1].start_us >= w[0].start_us + w[0].duration_us - 1e-9);
        }
        for e in &t.entries {
            assert!(e.start_us + e.duration_us <= t.total_us + 1e-6);
        }
    }

    #[test]
    fn replay_scales_with_airtime() {
        let t = ApTrace::generate(&TraceModel::default(), 1_000_000.0, 5);
        let thr = t.replay_throughput_bps(5e6, 64.0);
        let share = airtime_share(&t);
        // Throughput ≈ share × 5 Mbps, minus overhead.
        assert!(thr < share * 5e6 + 1.0);
        assert!(thr > share * 5e6 * 0.8, "thr {thr} share {share}");
    }

    #[test]
    fn deterministic_per_seed() {
        let a = ApTrace::generate(&TraceModel::default(), 100_000.0, 9);
        let b = ApTrace::generate(&TraceModel::default(), 100_000.0, 9);
        assert_eq!(a.entries.len(), b.entries.len());
        assert!((airtime_share(&a) - airtime_share(&b)).abs() < 1e-12);
    }

    #[test]
    fn overhead_reduces_throughput() {
        let t = ApTrace::generate(&TraceModel::default(), 1_000_000.0, 7);
        let lean = t.replay_throughput_bps(1e6, 0.0);
        let heavy = t.replay_throughput_bps(1e6, 500.0);
        assert!(heavy < lean);
    }
}
