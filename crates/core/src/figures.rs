//! One data-generating function per figure/table of the paper's evaluation.
//!
//! Each function returns plain data; the `backfi-bench` binaries print it in
//! the paper's format and EXPERIMENTS.md records paper-vs-measured values.
//! A [`FigureBudget`] controls how many trials each point gets so the same
//! code serves quick CI checks and full reproduction runs.

use crate::baseline::PriorWifiBackscatter;
use crate::link::{LinkConfig, LinkSimulator};
use crate::network::{ClientPhyExperiment, ClientPhyResult, NetworkModel};
use crate::sweep::{grid_cells, max_throughput_bps, RunContext, TrialStats};
use crate::traces::{ApTrace, TraceModel};
use backfi_chan::budget::LinkBudget;
use backfi_coding::CodeRate;
use backfi_dsp::stats::Ecdf;
use backfi_reader::rate_adapt;
use backfi_tag::config::{TagConfig, TagModulation};
use backfi_tag::energy::{fig7_table, repb, Fig7Row};
use backfi_wifi::Mcs;

/// How much work each figure point gets.
#[derive(Clone, Copy, Debug)]
pub struct FigureBudget {
    /// Trials per (distance, configuration) point.
    pub trials: usize,
    /// WiFi payload bytes per excitation (sets packet length, 1–4 ms in the
    /// paper).
    pub wifi_payload_bytes: usize,
    /// Packets per point in the client-PHY experiment.
    pub client_packets: usize,
    /// Random configurations in the network experiments.
    pub network_configs: usize,
}

impl FigureBudget {
    /// Fast settings for tests and smoke runs.
    pub fn quick() -> Self {
        FigureBudget {
            trials: 2,
            wifi_payload_bytes: 1200,
            client_packets: 3,
            network_configs: 5,
        }
    }

    /// Full reproduction settings (matches the paper's 20 trials/point).
    pub fn paper() -> Self {
        FigureBudget {
            trials: 10,
            wifi_payload_bytes: 3000,
            client_packets: 10,
            network_configs: 30,
        }
    }
}

/// NaN-safe "bigger is better" key: NaN sorts below `-∞` so it can never win
/// a `max_by` under `total_cmp` (identical ordering to `partial_cmp` on real
/// values — figure output bytes are unchanged).
fn nan_loses(v: f64) -> f64 {
    if v.is_nan() {
        f64::NEG_INFINITY
    } else {
        v
    }
}

fn base_link(ctx: &RunContext, distance: f64, budget: &FigureBudget) -> LinkConfig {
    let mut cfg = LinkConfig::at_distance(distance);
    cfg.impair = ctx.impair;
    cfg.excitation.wifi_payload_bytes = budget.wifi_payload_bytes;
    // Full reproduction runs use the paper's long (≈4 ms) excitations so the
    // low symbol rates get enough symbols per packet; a 3000-byte frame at
    // the 6 Mbit/s base rate lasts 4.02 ms.
    if budget.wifi_payload_bytes >= 2500 {
        cfg.excitation.mcs = Mcs::Mbps6;
    }
    cfg
}

// ---------------------------------------------------------------- Fig. 7 --

/// Fig. 7: the REPB/throughput table. Pure energy-model computation.
pub fn fig7() -> Vec<Fig7Row> {
    fig7_table()
}

// ---------------------------------------------------------------- Fig. 8 --

/// One point of the throughput-vs-range frontier.
#[derive(Clone, Debug)]
pub struct Fig8Point {
    /// Tag preamble duration, µs.
    pub preamble_us: f64,
    /// Reader ↔ tag distance, m.
    pub distance_m: f64,
    /// Maximum decodable throughput, bit/s (0 when nothing decodes).
    pub max_throughput_bps: f64,
    /// The winning configuration, if any.
    pub best: Option<TagConfig>,
}

impl Fig8Point {
    /// The frontier point of one (preamble, distance) block of grid results.
    fn from_stats(preamble_us: f64, distance_m: f64, stats: &[TrialStats]) -> Self {
        let best = stats
            .iter()
            .filter(|s| s.decoded())
            .max_by(|a, b| {
                nan_loses(a.config.throughput_bps())
                    .total_cmp(&nan_loses(b.config.throughput_bps()))
            })
            .map(|s| s.config);
        Fig8Point {
            preamble_us,
            distance_m,
            max_throughput_bps: max_throughput_bps(stats),
            best,
        }
    }
}

/// Fig. 8: max throughput vs range for 32 µs and 96 µs preambles.
///
/// The whole (preamble × distance × config × trial) grid is one flat job
/// list: every trial of every point runs in parallel rather than one
/// configuration at a time.
pub fn fig8(
    ctx: &RunContext,
    distances: &[f64],
    preambles: &[f64],
    budget: &FigureBudget,
) -> Vec<Fig8Point> {
    let mut cells = Vec::new();
    let mut spans = Vec::new();
    for &preamble_us in preambles {
        let candidates = TagConfig::all_combinations(preamble_us);
        for &distance_m in distances {
            let base = base_link(ctx, distance_m, budget);
            spans.push((preamble_us, distance_m, cells.len(), candidates.len()));
            cells.extend(grid_cells(&base, &candidates));
        }
    }
    let stats = ctx.run_grid(&cells, budget.trials, 1000);
    spans
        .into_iter()
        .map(|(p, d, start, len)| Fig8Point::from_stats(p, d, &stats[start..start + len]))
        .collect()
}

// ------------------------------------------------------------- Figs. 9/10 --

/// One grid over every 32 µs-preamble configuration at each distance,
/// returned as one window of rate-adaptation outcomes per distance.
fn outcomes_by_distance(
    ctx: &RunContext,
    distances: &[f64],
    budget: &FigureBudget,
    seed0: u64,
) -> Vec<Vec<rate_adapt::TrialOutcome>> {
    let candidates = TagConfig::all_combinations(32.0);
    let cells: Vec<LinkConfig> = distances
        .iter()
        .flat_map(|&d| grid_cells(&base_link(ctx, d, budget), &candidates))
        .collect();
    let stats = ctx.run_grid(&cells, budget.trials, seed0);
    stats
        .chunks(candidates.len())
        .map(|window| window.iter().map(TrialStats::outcome).collect())
        .collect()
}

/// Fig. 9: the (throughput, min-REPB) frontier per range.
pub fn fig9(
    ctx: &RunContext,
    distances: &[f64],
    budget: &FigureBudget,
) -> Vec<(f64, Vec<(f64, f64)>)> {
    let outcomes = outcomes_by_distance(ctx, distances, budget, 2000);
    distances
        .iter()
        .zip(&outcomes)
        .map(|(&d, o)| (d, rate_adapt::energy_frontier(o)))
        .collect()
}

/// Per-distance Fig. 10 row: `(distance, per-target winner)` where each entry
/// is the cheapest configuration reaching that target and its REPB.
pub type Fig10Row = (f64, Vec<Option<(TagConfig, f64)>>);

/// Fig. 10: min REPB achieving a fixed throughput, per range. `None` entries
/// mean the target is unreachable at that range.
pub fn fig10(
    ctx: &RunContext,
    distances: &[f64],
    targets_bps: &[f64],
    budget: &FigureBudget,
) -> Vec<Fig10Row> {
    let outcomes = outcomes_by_distance(ctx, distances, budget, 3000);
    distances
        .iter()
        .zip(&outcomes)
        .map(|(&d, o)| {
            let per_target = targets_bps
                .iter()
                .map(|&t| rate_adapt::min_repb_at_throughput(o, t).map(|cfg| (cfg, repb(&cfg))))
                .collect();
            (d, per_target)
        })
        .collect()
}

// --------------------------------------------------------------- Fig. 11 --

/// One Fig. 11a scatter point: expected (ground-truth-channel) vs measured
/// post-cancellation SNR.
#[derive(Clone, Copy, Debug)]
pub struct Fig11aPoint {
    /// Expected per-symbol SNR from the true channels ("VNA"), dB.
    pub expected_db: f64,
    /// Measured decision-directed symbol SNR, dB.
    pub measured_db: f64,
}

/// Fig. 11a: SNR scatter over `locations × runs`, plus the median
/// degradation (paper: ≈2.3 dB).
pub fn fig11a(
    ctx: &RunContext,
    locations: usize,
    runs: usize,
    budget: &FigureBudget,
) -> (Vec<Fig11aPoint>, f64) {
    // Random distances 0.5–3 m across "locations in the testbed".
    let cfgs: Vec<LinkConfig> = (0..locations)
        .map(|loc| {
            let d = 0.5 + 2.5 * (loc as f64 * 0.37).fract();
            let mut cfg = base_link(ctx, d, budget);
            cfg.tag.symbol_rate_hz = 1e6;
            cfg
        })
        .collect();
    let sims: Vec<LinkSimulator> = cfgs.iter().map(|c| LinkSimulator::new(c.clone())).collect();
    // One flat (location × run) job list; seeds stay `loc*1000 + run`.
    let runs = runs.max(1);
    let jobs: Vec<(usize, u64)> = (0..locations * runs)
        .map(|j| (j / runs, ((j / runs) * 1000 + j % runs) as u64))
        .collect();
    let reports = ctx.exec.run(&jobs, |_, &(loc, seed)| sims[loc].run(seed));

    let mut pts = Vec::new();
    let mut degradations = Vec::new();
    for (&(loc, _), rep) in jobs.iter().zip(&reports) {
        if !rep.measured_snr_db.is_finite() {
            continue;
        }
        // Expected symbol SNR = per-sample SNR + MRC gain over the
        // effective samples per symbol.
        let cfg = &cfgs[loc];
        let guard = cfg.reader.fb_taps as f64;
        let n_eff = (cfg.tag.samples_per_symbol() as f64 - guard).max(1.0);
        let expected_db = rep.expected_snr_db + 10.0 * n_eff.log10();
        pts.push(Fig11aPoint {
            expected_db,
            measured_db: rep.measured_snr_db,
        });
        degradations.push(expected_db - rep.measured_snr_db);
    }
    (pts, backfi_dsp::stats::median(&degradations))
}

/// One Fig. 11b waterfall point.
#[derive(Clone, Copy, Debug)]
pub struct Fig11bPoint {
    /// Modulation evaluated (rate 1/2 coding throughout).
    pub modulation: TagModulation,
    /// Tag symbol rate, Hz.
    pub symbol_rate_hz: f64,
    /// Raw (pre-FEC) BER.
    pub ber: f64,
}

/// Fig. 11b: BER vs tag symbol rate for BPSK and QPSK at rate 1/2, fixed
/// placement — the MRC time-diversity waterfall.
pub fn fig11b(
    ctx: &RunContext,
    distance_m: f64,
    symbol_rates: &[f64],
    budget: &FigureBudget,
) -> Vec<Fig11bPoint> {
    let mut cells = Vec::new();
    let mut labels = Vec::new();
    for &m in &[TagModulation::Bpsk, TagModulation::Qpsk] {
        for &f in symbol_rates {
            let mut cfg = base_link(ctx, distance_m, budget);
            cfg.tag = TagConfig {
                modulation: m,
                code_rate: CodeRate::Half,
                symbol_rate_hz: f,
                preamble_us: 32.0,
            };
            cells.push(cfg);
            labels.push((m, f));
        }
    }
    let stats = ctx.run_grid(&cells, budget.trials, 4000);
    labels
        .into_iter()
        .zip(&stats)
        .map(|((modulation, symbol_rate_hz), s)| Fig11bPoint {
            modulation,
            symbol_rate_hz,
            ber: s.mean_pre_fec_ber,
        })
        .collect()
}

// --------------------------------------------------------------- Fig. 12 --

/// Fig. 12a: the CDF of BackFi throughput under loaded-AP traces. The active
/// goodput is measured sample-level at `distance_m`, then each of
/// `n_traces` synthetic APs is replayed.
pub fn fig12a(
    ctx: &RunContext,
    distance_m: f64,
    n_traces: usize,
    budget: &FigureBudget,
) -> (Ecdf, f64) {
    // Measure the steady-state goodput at this range with the best config.
    let base = base_link(ctx, distance_m, budget);
    let candidates = TagConfig::all_combinations(32.0);
    let stats = ctx.run_grid(&grid_cells(&base, &candidates), budget.trials, 5000);
    let active = max_throughput_bps(&stats);

    let overhead_us = 16.0 + 16.0 + 32.0; // detection + silence + preamble
    let model = TraceModel::default();
    let throughputs: Vec<f64> = (0..n_traces as u64)
        .map(|seed| {
            ApTrace::generate(&model, 5_000_000.0, seed).replay_throughput_bps(active, overhead_us)
        })
        .collect();
    (Ecdf::new(throughputs), active)
}

/// One Fig. 12b point: average network throughput with/without the tag at a
/// given tag–AP distance.
#[derive(Clone, Copy, Debug)]
pub struct Fig12bPoint {
    /// Tag ↔ AP distance, m.
    pub tag_distance_m: f64,
    /// Average client throughput without the tag, Mbit/s.
    pub off_mbps: f64,
    /// Average client throughput with the tag, Mbit/s.
    pub on_mbps: f64,
}

/// Fig. 12b: network impact vs tag distance, over random configurations of
/// ten clients.
pub fn fig12b(ctx: &RunContext, tag_distances: &[f64], budget: &FigureBudget) -> Vec<Fig12bPoint> {
    let model = NetworkModel::default();
    let k = budget.network_configs.max(1);
    // Flat (distance × random-configuration) job list, seeds 7000.. as before.
    let jobs: Vec<(usize, u64)> = (0..tag_distances.len() * k)
        .map(|j| (j / k, 7000 + (j % k) as u64))
        .collect();
    let results = ctx.exec.run(&jobs, |_, &(di, seed)| {
        let outcomes = model.run_config(10, 10.0, tag_distances[di], seed);
        NetworkModel::average_throughput(&outcomes)
    });
    tag_distances
        .iter()
        .enumerate()
        .map(|(di, &d)| {
            let window = &results[di * k..(di + 1) * k];
            let off: f64 = window.iter().map(|(o, _)| o).sum();
            let on: f64 = window.iter().map(|(_, n)| n).sum();
            Fig12bPoint {
                tag_distance_m: d,
                off_mbps: off / k as f64,
                on_mbps: on / k as f64,
            }
        })
        .collect()
}

// --------------------------------------------------------------- Fig. 13 --

/// Fig. 13: per-bitrate client PHY success and SNR with the tag at 0.25 m.
pub fn fig13(ctx: &RunContext, rates: &[Mcs], budget: &FigureBudget) -> Vec<ClientPhyResult> {
    let exp = ClientPhyExperiment {
        budget: LinkBudget::default(),
        tag_distance_m: 0.25,
        tag_cfg: crate::network::fig13_tag_config(),
    };
    ctx.exec.run(rates, |i, &m| {
        exp.run(m, budget.client_packets, 400, 9000 + i as u64)
    })
}

// -------------------------------------------------------------- headline --

/// The §6 headline comparison against prior WiFi backscatter.
#[derive(Clone, Debug)]
pub struct HeadlineComparison {
    /// BackFi throughput at 1 m, bit/s.
    pub backfi_1m_bps: f64,
    /// BackFi throughput at 5 m, bit/s.
    pub backfi_5m_bps: f64,
    /// Prior system's throughput at its best, bit/s.
    pub prior_bps: f64,
    /// Prior system's maximum range, m.
    pub prior_range_m: f64,
    /// Throughput ratio at 1 m.
    pub throughput_gain: f64,
}

/// Compute the headline comparison.
pub fn headline(ctx: &RunContext, budget: &FigureBudget) -> HeadlineComparison {
    let pts = fig8(ctx, &[1.0, 5.0], &[32.0], budget);
    let backfi_1m = pts
        .iter()
        .find(|p| p.distance_m == 1.0)
        .map(|p| p.max_throughput_bps)
        .unwrap_or(0.0);
    let backfi_5m = pts
        .iter()
        .find(|p| p.distance_m == 5.0)
        .map(|p| p.max_throughput_bps)
        .unwrap_or(0.0);
    let prior = PriorWifiBackscatter::default();
    let b = LinkBudget::default();
    let prior_bps = prior.throughput_bps(&b, 0.3);
    HeadlineComparison {
        backfi_1m_bps: backfi_1m,
        backfi_5m_bps: backfi_5m,
        prior_bps,
        prior_range_m: prior.max_range_m(&b),
        throughput_gain: backfi_1m / prior_bps.max(1.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use backfi_chan::impair::Impairments;

    #[test]
    fn fig7_has_36_entries() {
        let t = fig7();
        assert_eq!(t.len(), 6);
        assert!(t.iter().all(|r| r.columns.len() == 6));
    }

    #[test]
    fn base_link_carries_the_context_impairments() {
        let ctx = RunContext {
            impair: Impairments::all(0.5),
            ..RunContext::default()
        };
        let budget = FigureBudget::quick();
        assert_eq!(base_link(&ctx, 2.0, &budget).impair, Impairments::all(0.5));
        let clean = base_link(&RunContext::default(), 2.0, &budget);
        assert!(clean.impair.is_off());
    }

    #[test]
    fn fig12b_far_tag_harmless() {
        let pts = fig12b(&RunContext::default(), &[4.0], &FigureBudget::quick());
        assert_eq!(pts.len(), 1);
        let drop = (pts[0].off_mbps - pts[0].on_mbps) / pts[0].off_mbps;
        assert!(drop < 0.05, "drop {drop}");
    }

    #[test]
    fn fig12a_trace_cdf_is_sane() {
        let (cdf, active) = fig12a(&RunContext::default(), 2.0, 10, &FigureBudget::quick());
        assert!(active > 0.0, "active goodput {active}");
        assert_eq!(cdf.len(), 10);
        // Throughput under duty cycling is below the optimum.
        assert!(cdf.quantile(0.5) < active);
        assert!(cdf.quantile(0.5) > 0.3 * active);
    }

    #[test]
    fn headline_orders_of_magnitude() {
        let h = headline(&RunContext::default(), &FigureBudget::quick());
        assert!(h.backfi_1m_bps >= 1e6, "BackFi @1m {}", h.backfi_1m_bps);
        assert!(h.prior_bps <= 1e3);
        assert!(h.throughput_gain > 500.0, "gain {}", h.throughput_gain);
        assert!(h.prior_range_m < 2.0);
    }
}
