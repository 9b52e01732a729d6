//! Rate adaptation (§6.1).
//!
//! "The rate adaptation algorithm would always pick the modulation, coding
//! rate and symbol switching rate combination with the lowest REPB since the
//! most precious resource here is energy." Given the set of configurations
//! that decode successfully at the current range, this module implements the
//! paper's selection policy — min energy-per-bit at a target throughput —
//! and the (throughput, REPB) frontier it walks (Figs. 9/10).

use backfi_tag::config::TagConfig;
use backfi_tag::energy::repb;

/// Total order where NaN loses a "smaller is better" comparison (sorts above
/// `+∞`).
fn nan_last_asc_key(v: f64) -> f64 {
    if v.is_nan() {
        f64::INFINITY
    } else {
        v
    }
}

/// A configuration together with whether it decoded at the evaluated link.
#[derive(Clone, Copy, Debug)]
pub struct TrialOutcome {
    /// The evaluated tag configuration.
    pub config: TagConfig,
    /// Whether the reader recovered the frame (CRC clean).
    pub decoded: bool,
    /// Measured symbol SNR (dB), for diagnostics.
    pub symbol_snr_db: f64,
}

/// Minimum-REPB decodable configuration achieving at least
/// `target_throughput_bps`. This is the paper's preferred policy.
pub fn min_repb_at_throughput(
    outcomes: &[TrialOutcome],
    target_throughput_bps: f64,
) -> Option<TagConfig> {
    outcomes
        .iter()
        .filter(|o| o.decoded && o.config.throughput_bps() >= target_throughput_bps - 1e-6)
        .min_by(|a, b| {
            nan_last_asc_key(repb(&a.config)).total_cmp(&nan_last_asc_key(repb(&b.config)))
        })
        .map(|o| o.config)
}

/// The (throughput, min-REPB) frontier over all decodable configurations:
/// for each achievable throughput, the smallest REPB that reaches it.
/// Sorted by throughput ascending — the data behind each Fig. 9 curve.
pub fn energy_frontier(outcomes: &[TrialOutcome]) -> Vec<(f64, f64)> {
    let mut points: Vec<(f64, f64)> = outcomes
        .iter()
        .filter(|o| o.decoded)
        .map(|o| (o.config.throughput_bps(), repb(&o.config)))
        .collect();
    points.sort_by(|a, b| nan_last_asc_key(a.0).total_cmp(&nan_last_asc_key(b.0)));
    // Deduplicate equal throughputs, keeping the min REPB.
    let mut out: Vec<(f64, f64)> = Vec::new();
    for (t, e) in points {
        match out.last_mut() {
            Some((lt, le)) if (*lt - t).abs() < 1e-6 => *le = le.min(e),
            _ => out.push((t, e)),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use backfi_coding::CodeRate;
    use backfi_tag::config::TagModulation;

    fn outcome(m: TagModulation, r: CodeRate, f: f64, decoded: bool) -> TrialOutcome {
        TrialOutcome {
            config: TagConfig {
                modulation: m,
                code_rate: r,
                symbol_rate_hz: f,
                preamble_us: 32.0,
            },
            decoded,
            symbol_snr_db: 10.0,
        }
    }

    fn sample_outcomes() -> Vec<TrialOutcome> {
        vec![
            outcome(TagModulation::Bpsk, CodeRate::Half, 1e6, true), // 0.5 Mbps
            outcome(TagModulation::Qpsk, CodeRate::Half, 1e6, true), // 1.0 Mbps
            outcome(TagModulation::Qpsk, CodeRate::TwoThirds, 1e6, true), // 1.33 Mbps
            outcome(TagModulation::Psk16, CodeRate::Half, 1e6, false), // 2.0 Mbps (fails)
            outcome(TagModulation::Psk16, CodeRate::TwoThirds, 2.5e6, false),
        ]
    }

    #[test]
    fn min_repb_prefers_cheaper_config() {
        // Both QPSK 1/2 and QPSK 2/3 exceed 1 Mbps... only 2/3 does (1.33 ≥ 1.0
        // and 1.0 ≥ 1.0). Of those, 2/3 has the lower REPB (paper §6.1).
        let cfg = min_repb_at_throughput(&sample_outcomes(), 1.0e6).unwrap();
        assert_eq!(cfg.code_rate, CodeRate::TwoThirds);
    }

    #[test]
    fn unreachable_target_gives_none() {
        assert!(min_repb_at_throughput(&sample_outcomes(), 5e6).is_none());
        assert!(min_repb_at_throughput(&[], 1.0).is_none());
    }

    #[test]
    fn frontier_is_sorted_and_deduplicated() {
        let mut o = sample_outcomes();
        // duplicate throughput with worse REPB (slower symbol rate)
        o.push(outcome(TagModulation::Bpsk, CodeRate::Half, 1e6, true));
        let f = energy_frontier(&o);
        assert!(!f.is_empty());
        for w in f.windows(2) {
            assert!(w[0].0 < w[1].0);
        }
    }

    #[test]
    fn nan_throughput_cannot_win_or_panic() {
        // A config with NaN symbol rate has NaN throughput and NaN REPB.
        // Every policy must survive it and never select it.
        let mut o = sample_outcomes();
        o.push(outcome(TagModulation::Qpsk, CodeRate::Half, f64::NAN, true));
        let cheap = min_repb_at_throughput(&o, 1.0e6).unwrap();
        assert!(cheap.symbol_rate_hz.is_finite());
        let f = energy_frontier(&o);
        assert!(!f.is_empty()); // no panic; NaN rows sort last

        // All-NaN input: policies return *something* without panicking, and
        // a frontier over it stays well-formed.
        let only_nan = vec![outcome(TagModulation::Bpsk, CodeRate::Half, f64::NAN, true)];
        let _ = min_repb_at_throughput(&only_nan, 1.0);
        let _ = energy_frontier(&only_nan);
    }

    #[test]
    fn frontier_matches_paper_shape_more_throughput_costs_energy_at_fixed_rate() {
        // At a fixed symbol rate, frontier REPB for 16PSK exceeds QPSK.
        let o = vec![
            outcome(TagModulation::Qpsk, CodeRate::Half, 1e6, true),
            outcome(TagModulation::Psk16, CodeRate::Half, 1e6, true),
        ];
        let f = energy_frontier(&o);
        assert_eq!(f.len(), 2);
        assert!(f[1].1 > f[0].1, "16PSK REPB should exceed QPSK: {f:?}");
    }
}
