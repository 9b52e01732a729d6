//! The three link workloads.
//!
//! * `sweep_short` / `sweep_faulted` — the `--quick` fig08 grid (8 distances
//!   × 2 preambles × 36 tag configurations × 2 trials, 24 Mbps/1200 B
//!   excitation) through `sweep::run_grid_on`, clean or with every cell
//!   impaired by [`FAULT_SPEC`].
//! * `trial_long` — one thread calling `LinkSimulator::run` at the paper's
//!   headline point (16PSK 1/2 @ 2.5 MSPS, 1 m) on a 4 ms excitation.
//!
//! The traced run replays `LinkSimulator::run` step by step from here, with
//! the public functions of each layer, timing every step; it must reproduce
//! `run(seed)` bit for bit. Reader sub-stages are then replayed on the same
//! inputs to split the reader's time.

use crate::metrics::{Ledger, Outcome};
use crate::plan::{self, us, Plan};
use crate::stats;
use backfi_chan::budget::dbm_to_lin;
use backfi_chan::impair::Impairments;
use backfi_chan::medium::{BackscatterMedium, MediumConfig};
use backfi_coding::puncture::depuncture_soft;
use backfi_coding::{CodeRate, ViterbiDecoder};
use backfi_core::excitation::{Excitation, ExcitationConfig};
use backfi_core::link::{LinkConfig, LinkReport, LinkSimulator};
use backfi_core::sweep::{grid_cells, run_grid_on, Executor, TrialStats};
use backfi_dsp::rng::SplitMix64;
use backfi_dsp::{fir, noise, Complex};
use backfi_reader::chanest::estimate_h_fb;
use backfi_reader::decode::{decode_symbols, frame_ber};
use backfi_reader::mrc::mrc_symbol;
use backfi_reader::{BackscatterReader, ReaderError, TagDecodeResult, Timeline};
use backfi_sic::analog::AnalogCanceller;
use backfi_sic::digital::DigitalCanceller;
use backfi_sic::{CancellerReport, SelfInterferenceCanceller};
use backfi_tag::config::{TagConfig, TagModulation};
use backfi_tag::framer::{TagFrame, PILOT_SYMBOLS};
use backfi_tag::psk::{bits_to_phase, phase_to_bits, SoftDemapper};
use backfi_tag::state::TagState;
use backfi_tag::Tag;
use backfi_wifi::Mcs;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// The fig08 binary's distances and tag preambles.
const DISTANCES_M: [f64; 8] = [0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0];
const PREAMBLES_US: [f64; 2] = [32.0, 96.0];
const SWEEP_TRIALS: usize = 2;
/// Passes every sweep run makes before its time box (11,520 trials).
const SWEEP_PASSES: usize = 10;
/// `--quick` figure budget: 24 Mbps, 1200 B (10,260 samples).
const SWEEP_PAYLOAD_BYTES: usize = 1200;
/// Faults the reader's degradation ladder exists for: ADC-railing blockers
/// (clip-run erasures), NaN bursts (sanitize) and timeline desync (SIC
/// retrain, timing re-acquisition).
pub const FAULT_SPEC: &str = "saturation:0.5,nonfinite:0.5,desync:1";
const LONG_ROUND: usize = 60;
/// Rounds every `trial_long` run makes before its time box (600 trials).
const LONG_ROUNDS: usize = 10;
const LONG_TRACED: usize = 120;

// ------------------------------------------------------------- inputs ---

fn sweep_cells(faulted: bool, smoke: bool) -> Vec<LinkConfig> {
    let impair = if faulted {
        Impairments::parse(FAULT_SPEC).expect("FAULT_SPEC parses")
    } else {
        Impairments::off()
    };
    let mut cells = Vec::new();
    for &preamble_us in &PREAMBLES_US {
        let candidates = TagConfig::all_combinations(preamble_us);
        for &d in &DISTANCES_M {
            let mut base = LinkConfig::at_distance(d);
            base.excitation.wifi_payload_bytes = SWEEP_PAYLOAD_BYTES;
            // `at_distance` reads the process-wide default (BACKFI_IMPAIR);
            // every cell states its impairments explicitly instead.
            base.impair = impair;
            cells.extend(grid_cells(&base, &candidates));
        }
    }
    if smoke {
        cells = cells.into_iter().step_by(50).collect();
    }
    cells
}

fn headline_cell() -> LinkConfig {
    let mut cfg = LinkConfig::at_distance(1.0);
    cfg.tag = TagConfig {
        modulation: TagModulation::Psk16,
        code_rate: CodeRate::Half,
        symbol_rate_hz: 2.5e6,
        preamble_us: 32.0,
    };
    // Paper budget: 6 Mbps, 3000 B — 82,900 samples, ≈4.1 ms.
    cfg.excitation.mcs = Mcs::Mbps6;
    cfg.excitation.wifi_payload_bytes = 3000;
    cfg.impair = Impairments::off();
    cfg
}

fn same_excitation(a: &ExcitationConfig, b: &ExcitationConfig) -> bool {
    (
        a.tag_id,
        a.mcs,
        a.wifi_payload_bytes,
        a.scrambler_seed,
        a.lead_in,
    ) == (
        b.tag_id,
        b.mcs,
        b.wifi_payload_bytes,
        b.scrambler_seed,
        b.lead_in,
    )
}

/// The workload's set-up: one uncached synthesis per distinct excitation,
/// then one simulator per cell.
fn build_sims(cells: &[LinkConfig]) -> Vec<LinkSimulator> {
    let mut built: Vec<&ExcitationConfig> = Vec::new();
    for c in cells {
        if !built.iter().any(|e| same_excitation(e, &c.excitation)) {
            black_box(Excitation::build(c.excitation.clone()));
            built.push(&c.excitation);
        }
    }
    cells
        .iter()
        .map(|c| LinkSimulator::new(c.clone()))
        .collect()
}

/// `LinkSimulator`'s private TX-scaled reference, recomputed with the same
/// arithmetic.
fn scaled_excitation(sim: &LinkSimulator) -> Vec<Complex> {
    let a = sim.config().budget.tx_power().sqrt();
    sim.excitation().samples.iter().map(|&v| v * a).collect()
}

fn run_caught(sim: &LinkSimulator, seed: u64) -> Option<LinkReport> {
    catch_unwind(AssertUnwindSafe(|| sim.run(seed))).ok()
}

/// The fields a traced replica must reproduce bit for bit.
type Fingerprint = (bool, u64, u64);

fn fingerprint(success: bool, measured_snr_db: f64, cancellation_db: f64) -> Fingerprint {
    (
        success,
        measured_snr_db.to_bits(),
        cancellation_db.to_bits(),
    )
}

fn report_fingerprint(r: &LinkReport) -> Fingerprint {
    fingerprint(r.success, r.measured_snr_db, r.cancellation_db)
}

fn stats_eq(a: &TrialStats, b: &TrialStats) -> bool {
    a.config == b.config
        && a.success_rate.to_bits() == b.success_rate.to_bits()
        && a.mean_snr_db.to_bits() == b.mean_snr_db.to_bits()
        && a.mean_ber.to_bits() == b.mean_ber.to_bits()
        && a.mean_pre_fec_ber.to_bits() == b.mean_pre_fec_ber.to_bits()
        && a.mean_goodput_bps.to_bits() == b.mean_goodput_bps.to_bits()
        && a.panics == b.panics
}

/// Fig. 11a's degradation for one trial: expected per-sample SNR plus the
/// MRC gain over the usable samples of a symbol, minus the measured symbol
/// SNR. `None` when the trial produced no symbols.
fn snr_loss_db(cfg: &LinkConfig, r: &LinkReport) -> Option<f64> {
    let usable = cfg
        .tag
        .samples_per_symbol()
        .saturating_sub(cfg.reader.fb_taps)
        .max(1);
    (r.measured_snr_db.is_finite() && r.expected_snr_db.is_finite())
        .then(|| r.expected_snr_db + 10.0 * (usable as f64).log10() - r.measured_snr_db)
}

/// Uncached excitation synthesis cost per sample (median of three builds).
fn tx_ns_per_sample(cfg: &ExcitationConfig) -> f64 {
    let mut t = Vec::new();
    let mut n = 0;
    for _ in 0..3 {
        let t0 = Instant::now();
        n = black_box(Excitation::build(cfg.clone())).samples.len();
        t.push(t0.elapsed().as_secs_f64());
    }
    stats::median(&t) * 1e9 / n as f64
}

// ------------------------------------------------------------- sweeps ---

pub fn run_sweep(plan: &Plan, faulted: bool, e2e: bool, layer: bool) -> Outcome {
    let cells = sweep_cells(faulted, plan.smoke);
    let (cold, setup_s, sims) = plan::time_setup(|| build_sims(&cells));
    let exec = Executor::with_threads(plan::threads());
    let mut out = Outcome::default();
    out.ledger.set("threads", exec.threads() as f64);
    out.ledger.set("cells", cells.len() as f64);
    if e2e {
        out.metric("setup_s", setup_s);
        sweep_untraced(plan, &cells, &exec, &mut out);
    }
    if layer {
        out.metric("setup.cold_s", cold);
        sweep_traced(plan, &cells, &sims, &exec, &mut out);
    }
    out
}

fn sweep_untraced(plan: &Plan, cells: &[LinkConfig], exec: &Executor, out: &mut Outcome) {
    let per_pass = cells.len() * SWEEP_TRIALS;
    let mut walls = Vec::new();
    let mut quality: Vec<Vec<TrialStats>> = Vec::new();
    let mut panics = 0usize;
    let rounds = plan.rounds(SWEEP_PASSES, |r, fixed| {
        let seed0 = SplitMix64::derive(plan.seed, r as u64);
        let t = Instant::now();
        let stats = run_grid_on(exec, cells, SWEEP_TRIALS, seed0);
        walls.push(t.elapsed().as_secs_f64());
        panics += stats.iter().map(|s| s.panics).sum::<usize>();
        if fixed {
            quality.push(stats);
        }
    });
    out.attempted += (rounds * per_pass) as u64;
    if panics > 0 {
        out.fail(panics as u64, format!("{panics} sweep trials panicked"));
    }
    // Pass 0 again under a different steal schedule: stats must not move.
    let again = run_grid_on(exec, cells, SWEEP_TRIALS, SplitMix64::derive(plan.seed, 0));
    let moved = again
        .iter()
        .zip(&quality[0])
        .filter(|(a, b)| !stats_eq(a, b))
        .count();
    if moved > 0 {
        out.fail(
            (moved * SWEEP_TRIALS) as u64,
            format!("{moved} cells of pass 0 changed when recomputed"),
        );
    }
    let rates: Vec<f64> = walls.iter().map(|w| per_pass as f64 / w).collect();
    let walls_us: Vec<f64> = walls.iter().map(|w| w * 1e6).collect();
    out.record_latency("pass", &walls_us);
    let all: Vec<&TrialStats> = quality.iter().flatten().collect();
    let success = all.iter().map(|s| s.success_rate).sum::<f64>() / all.len() as f64;
    out.metric("success_rate", success);
    out.record_rounds(rounds, &rates);
}

fn sweep_traced(
    plan: &Plan,
    cells: &[LinkConfig],
    sims: &[LinkSimulator],
    exec: &Executor,
    out: &mut Outcome,
) {
    out.metric(
        "wifi.tx_ns_per_sample",
        tx_ns_per_sample(&cells[0].excitation),
    );
    for c in cells {
        let t = Instant::now();
        black_box(LinkSimulator::new(c.clone()));
        out.ledger.push("sweep.sim_new_us", us(t.elapsed()));
    }
    let seed0 = SplitMix64::derive(plan.seed, 0);
    let t = Instant::now();
    let parallel = run_grid_on(exec, cells, SWEEP_TRIALS, seed0);
    let pass_wall_us = us(t.elapsed());

    // Pass 0 once more on this thread, trial by trial: untraced, then the
    // traced replica of the same seed.
    let mut reports = Vec::with_capacity(cells.len() * SWEEP_TRIALS);
    let mut untraced = Vec::new();
    for (c, sim) in sims.iter().enumerate() {
        let x_scaled = scaled_excitation(sim);
        for t in 0..SWEEP_TRIALS {
            let seed = SplitMix64::derive(seed0, (c * SWEEP_TRIALS + t) as u64);
            let (rep, wall) = trace_one(sim, &x_scaled, seed, out);
            untraced.push(wall);
            reports.push(rep.unwrap_or_else(LinkReport::job_failed));
        }
    }
    let serial: Vec<TrialStats> = reports
        .chunks(SWEEP_TRIALS)
        .zip(cells)
        .map(|(chunk, cell)| TrialStats::aggregate(cell.tag, chunk))
        .collect();
    let moved = serial
        .iter()
        .zip(&parallel)
        .filter(|(a, b)| !stats_eq(a, b))
        .count();
    if moved > 0 {
        out.fail(
            (moved * SWEEP_TRIALS) as u64,
            format!(
                "{moved} cells of pass 0 differ between 1 and {} threads",
                exec.threads()
            ),
        );
    }
    out.ledger.set(
        "sweep.parallel_efficiency",
        untraced.iter().sum::<f64>() / (exec.threads() as f64 * pass_wall_us),
    );
    finish_traced(out, &untraced);
}

// ---------------------------------------------------------- trial_long ---

pub fn run_long(plan: &Plan, e2e: bool, layer: bool) -> Outcome {
    let cfg = headline_cell();
    let (cold, setup_s, sims) = plan::time_setup(|| build_sims(std::slice::from_ref(&cfg)));
    let sim = &sims[0];
    let mut out = Outcome::default();
    out.ledger
        .set("excitation.samples", sim.excitation().samples.len() as f64);
    if e2e {
        out.metric("setup_s", setup_s);
        long_untraced(plan, sim, &mut out);
    }
    if layer {
        out.metric("setup.cold_s", cold);
        out.metric("wifi.tx_ns_per_sample", tx_ns_per_sample(&cfg.excitation));
        let x_scaled = scaled_excitation(sim);
        let mut untraced = Vec::new();
        for i in 0..plan.scaled(LONG_TRACED) {
            let seed = SplitMix64::derive(plan.seed, i as u64);
            untraced.push(trace_one(sim, &x_scaled, seed, &mut out).1);
        }
        finish_traced(&mut out, &untraced);
    }
    out
}

fn long_untraced(plan: &Plan, sim: &LinkSimulator, out: &mut Outcome) {
    let n = plan.scaled(LONG_ROUND);
    let mut lat_us = Vec::new();
    let mut rates = Vec::new();
    let mut quality: Vec<LinkReport> = Vec::new();
    let mut firsts: Vec<(u64, Fingerprint)> = Vec::new();
    let mut panics = 0u64;
    let rounds = plan.rounds(LONG_ROUNDS, |r, fixed| {
        let round = Instant::now();
        for t in 0..n {
            let seed = SplitMix64::derive(plan.seed, (r * n + t) as u64);
            let t0 = Instant::now();
            let rep = run_caught(sim, seed);
            lat_us.push(us(t0.elapsed()));
            match rep {
                Some(rep) => {
                    if t == 0 {
                        firsts.push((seed, report_fingerprint(&rep)));
                    }
                    if fixed {
                        quality.push(rep);
                    }
                }
                None => panics += 1,
            }
        }
        rates.push(n as f64 / round.elapsed().as_secs_f64());
    });
    out.attempted += (rounds * n) as u64;
    if panics > 0 {
        out.fail(panics, format!("{panics} trials panicked"));
    }
    // Determinism: the first trial of every round, recomputed.
    let moved = firsts
        .iter()
        .filter(|(seed, fp)| run_caught(sim, *seed).map(|r| report_fingerprint(&r)) != Some(*fp))
        .count();
    if moved > 0 {
        out.fail(
            moved as u64,
            format!("{moved} trials changed when recomputed"),
        );
    }
    let success = quality.iter().filter(|r| r.success).count() as f64 / quality.len() as f64;
    out.metric("success_rate", success);
    out.record_rounds(rounds, &rates);
    out.record_latency("trial", &lat_us);
    let cfg = sim.config();
    let losses: Vec<f64> = quality.iter().filter_map(|r| snr_loss_db(cfg, r)).collect();
    out.ledger.set("snr_loss_db", stats::median(&losses));
    out.ledger.set("snr_loss_db.n", losses.len() as f64);
}

// ------------------------------------------------------------- tracing ---

/// Untraced `run(seed)`, then the traced replica of the same trial; counts
/// a failed op on any mismatch. Returns the untraced report and wall (µs).
fn trace_one(
    sim: &LinkSimulator,
    x_scaled: &[Complex],
    seed: u64,
    out: &mut Outcome,
) -> (Option<LinkReport>, f64) {
    out.attempted += 1;
    let t = Instant::now();
    let rep = run_caught(sim, seed);
    let wall = us(t.elapsed());
    let led = &mut out.ledger;
    let replica = catch_unwind(AssertUnwindSafe(|| {
        let traced = traced_trial(sim, x_scaled, seed, led);
        traced.replay(sim.config(), x_scaled, seed, led);
        traced.fingerprint
    }))
    .ok();
    match (&rep, replica) {
        (Some(r), Some(fp)) if report_fingerprint(r) == fp => {}
        (Some(_), Some(_)) => out.fail(1, format!("seed {seed}: traced trial differs from run()")),
        _ => out.fail(1, format!("seed {seed}: trial panicked")),
    }
    (rep, wall)
}

/// Charges elapsed time to the stage that just finished.
struct Stopwatch {
    start: Instant,
    last: Instant,
    staged: f64,
}

impl Stopwatch {
    fn new() -> Self {
        let now = Instant::now();
        Stopwatch {
            start: now,
            last: now,
            staged: 0.0,
        }
    }

    /// µs since the previous call, counted as attributed time.
    fn take(&mut self) -> f64 {
        let now = Instant::now();
        let d = us(now - self.last);
        self.last = now;
        self.staged += d;
        d
    }

    fn lap(&mut self, led: &mut Ledger, stage: &str) {
        let d = self.take();
        led.push(stage, d);
    }

    fn finish(self, led: &mut Ledger) {
        let wall = us(self.start.elapsed());
        led.push("trial_us", wall);
        led.push("trial.unattributed_us", wall - self.staged);
    }
}

/// The traced trial plus what the sub-stage replays need.
struct Traced {
    fingerprint: Fingerprint,
    /// `None` when the tag never woke (nothing propagated or decoded).
    rx: Option<Received>,
}

struct Received {
    medium: BackscatterMedium,
    y: Vec<Complex>,
    timeline: Timeline,
    decoded: Result<TagDecodeResult, ReaderError>,
}

/// `LinkSimulator::run`, step by step, timing each top-level stage.
fn traced_trial(sim: &LinkSimulator, x_scaled: &[Complex], seed: u64, led: &mut Ledger) -> Traced {
    let cfg = sim.config();
    let exc = sim.excitation();
    let mut sw = Stopwatch::new();

    let mut medium =
        BackscatterMedium::new(cfg.budget, MediumConfig::at_distance(cfg.distance_m), seed);
    black_box(medium.expected_backscatter_snr_db());
    sw.lap(led, "medium.new_us");

    let airtime = backfi_dsp::samples_to_us(exc.samples.len() - exc.detect_end);
    let max_payload = TagFrame::max_payload_bytes(&cfg.tag, airtime);
    let frame_fits = max_payload >= 1;
    let sent: Vec<u8> = (0..max_payload.clamp(1, 128))
        .map(|i| (seed as usize + i * 131 + 7) as u8)
        .collect();
    let mut tag = Tag::new(cfg.excitation.tag_id, cfg.tag);
    tag.load_data(&sent);
    let incident = fir::filter(&medium.h_f, x_scaled);
    let gamma = tag.react(&incident);
    sw.lap(led, "tag.react_us");

    let gamma = cfg.impair.warp_gamma(&gamma, seed).unwrap_or(gamma);
    let warp_us = sw.take();
    if matches!(tag.state(), TagState::Listening | TagState::Sleep) {
        led.push("impair.apply_us", warp_us);
        led.add("link.fail.wakeup", 1.0);
        sw.finish(led);
        return Traced {
            fingerprint: fingerprint(false, f64::NEG_INFINITY, 0.0),
            rx: None,
        };
    }

    let mut y_full = medium.propagate(&exc.samples, &gamma);
    sw.lap(led, "medium.propagate_us");

    let n = exc.samples.len();
    if !cfg.impair.is_off() {
        let applied = cfg
            .impair
            .apply_rx(&mut y_full[..n], cfg.budget.noise_power(), seed);
        led.add("impair.nonfinite_samples", applied.nonfinite as f64);
    }
    led.push("impair.apply_us", warp_us + sw.take());
    y_full.truncate(n);
    let y = y_full;

    let timeline = Timeline::nominal(exc.detect_end, n, &cfg.tag);
    let reader = BackscatterReader::new(cfg.reader);
    let decoded = reader.decode(x_scaled, &y, &medium.h_env, &timeline, &cfg.tag);
    sw.lap(led, "reader.decode_us");
    led.add("reader.samples", n as f64);

    // The success criterion of `LinkSimulator::run`, verbatim.
    let fp = match &decoded {
        Ok(res) => {
            let frame_success = res.payload.as_ref().map(|p| p == &sent).unwrap_or(false);
            black_box(frame_ber(&res.decoded_bits, &sent));
            let expect_syms = TagFrame::encode(&sent, &cfg.tag);
            let bps = cfg.tag.modulation.bits_per_symbol();
            let (mut raw_errs, mut raw_bits) = (0usize, 0usize);
            for (i, &idx) in expect_syms.iter().enumerate() {
                let Some(est) = res.symbols.get(i) else { break };
                let got = phase_to_bits(cfg.tag.modulation, est.z.arg());
                let phase = std::f64::consts::TAU * idx as f64 / cfg.tag.modulation.order() as f64;
                let want = phase_to_bits(cfg.tag.modulation, phase);
                raw_errs += got.iter().zip(&want).filter(|(a, b)| a != b).count();
                raw_bits += bps;
            }
            let pre_fec_ber = if raw_bits == 0 {
                0.5
            } else {
                raw_errs as f64 / raw_bits as f64
            };
            let success = if frame_fits {
                frame_success
            } else {
                raw_bits >= 12 && pre_fec_ber < 0.02
            };
            if !success {
                let why = if !frame_fits {
                    "link.fail.stream_ber"
                } else if res.payload.is_err() {
                    "link.fail.crc"
                } else {
                    // CRC-valid but not what the tag sent. An all-zero
                    // decoded stream parses as a valid empty frame (CRC-8
                    // with init 0, and the CRC-32 of an empty body is 0).
                    if matches!(&res.payload, Ok(p) if p.is_empty()) {
                        led.add("link.undetected_empty_frames", 1.0);
                    }
                    "link.undetected_errors"
                };
                led.add(why, 1.0);
            }
            fingerprint(success, res.metrics.symbol_snr_db, res.cancellation_db)
        }
        Err(e) => {
            led.add(
                match e {
                    ReaderError::CancellationFailed => "link.fail.cancellation",
                    ReaderError::ChannelEstimationFailed => "link.fail.chanest",
                    ReaderError::NoSymbols => "link.fail.no_symbols",
                    ReaderError::InvalidInput => "link.fail.invalid_input",
                },
                1.0,
            );
            fingerprint(false, f64::NEG_INFINITY, 0.0)
        }
    };
    sw.lap(led, "link.post_us");
    sw.finish(led);
    Traced {
        fingerprint: fp,
        rx: Some(Received {
            medium,
            y,
            timeline,
            decoded,
        }),
    }
}

impl Traced {
    /// Time the insides of `propagate` and of the reader on this trial's
    /// inputs (outside the trial's own wall time).
    fn replay(&self, cfg: &LinkConfig, x_scaled: &[Complex], seed: u64, led: &mut Ledger) {
        let Some(rx) = &self.rx else { return };
        replay_medium(&rx.medium, x_scaled, seed, led);
        let reader_us = *led.series("reader.decode_us").last().expect("traced");
        let parts = replay_reader(cfg, x_scaled, rx, led);
        led.push("reader.unattributed_us", reader_us - parts);
    }
}

/// `propagate`'s Box–Muller noise and its three FIRs at the same lengths.
fn replay_medium(m: &BackscatterMedium, x_scaled: &[Complex], seed: u64, led: &mut Ledger) {
    let budget = m.budget();
    let n = x_scaled.len();
    let out_len = n + m.h_env.len().max(m.h_f.len() + m.h_b.len());
    let tx_noise = budget.tx_power() * dbm_to_lin(budget.tx_noise_dbc);
    let mut rng = SplitMix64::new(seed);
    let t = Instant::now();
    let n_tx = noise::cgauss_vec(&mut rng, n, tx_noise);
    let mut y = vec![Complex::ZERO; out_len];
    noise::add_noise(&mut rng, &mut y, budget.noise_power());
    led.push("medium.noise_us", us(t.elapsed()));
    black_box((n_tx, y));
    led.add("medium.noise_samples", (n + out_len) as f64);

    let mut padded = x_scaled.to_vec();
    padded.resize(out_len, Complex::ZERO);
    let t = Instant::now();
    for h in [&m.h_env, &m.h_f, &m.h_b] {
        black_box(fir::filter(h, &padded));
    }
    led.push("medium.fir_us", us(t.elapsed()));
    led.add("medium.fir_samples", (3 * out_len) as f64);
}

/// The reader's stages on the trial's own inputs, stopping where the real
/// decode stopped. Returns the µs of the top-level reader stages replayed.
fn replay_reader(cfg: &LinkConfig, x: &[Complex], rx: &Received, led: &mut Ledger) -> f64 {
    let rc = cfg.reader;
    let silent = rx.timeline.silent.clone();
    let mut parts = 0.0;
    let stage = |led: &mut Ledger, name: &str, t: Instant| {
        let d = us(t.elapsed());
        led.push(name, d);
        d
    };

    // Front door: non-finite received samples are zeroed.
    let t = Instant::now();
    let bad: Vec<usize> = (0..rx.y.len()).filter(|&i| !rx.y[i].is_finite()).collect();
    let sanitized = (!bad.is_empty() && bad.len() * 2 <= rx.y.len()).then(|| {
        let mut y = rx.y.clone();
        for &i in &bad {
            y[i] = Complex::ZERO;
        }
        y
    });
    parts += stage(led, "reader.sanitize_us", t);
    if bad.len() * 2 > rx.y.len() {
        return parts;
    }
    led.add("reader.sanitized_samples", bad.len() as f64);
    let y: &[Complex] = sanitized.as_deref().unwrap_or(&rx.y);

    // Cancellation, with the reader's retrain ladder.
    let t = Instant::now();
    let canceller = SelfInterferenceCanceller::new(rc.canceller, &rx.medium.h_env);
    let fallback = (silent.start + silent.len() / 2)..silent.end;
    let rep = match canceller.process(x, y, silent.clone()) {
        Some(rep) => retrain(
            &canceller,
            x,
            y,
            &silent,
            rc.canceller.digital_taps,
            rep,
            led,
        ),
        None => {
            led.add("sic.retrains", 1.0);
            canceller.process(x, y, fallback)
        }
    };
    let sic_us = stage(led, "sic.process_us", t);
    parts += sic_us;

    // SIC sub-stages. The ADC is private to the canceller, so the digital
    // stage replays on post-analog samples: the same lengths and tap count.
    let t = Instant::now();
    let after = AnalogCanceller::tuned(&rx.medium.h_env, rc.canceller.analog).cancel(x, y);
    let analog = stage(led, "sic.analog_us", t);
    let t = Instant::now();
    let dig = DigitalCanceller::train(
        &x[silent.clone()],
        &after[silent.clone()],
        rc.canceller.digital_taps,
        rc.canceller.ridge,
    );
    let train = stage(led, "sic.digital_train_us", t);
    let mut apply = 0.0;
    if let Some(dig) = dig {
        let t = Instant::now();
        black_box(dig.cancel(x, &after));
        apply = stage(led, "sic.digital_apply_us", t);
    }
    led.push("sic.adc_us", sic_us - analog - train - apply);
    let Some(rep) = rep else { return parts };

    // h_f∗h_b estimation with the reader's nominal, then wide, search.
    let t = Instant::now();
    let offsets = |step: usize, span: usize| {
        let mut v = vec![0isize];
        for off in (step..=span).step_by(step) {
            v.extend([off as isize, -(off as isize)]);
        }
        v
    };
    let est = |search: &[isize]| {
        estimate_h_fb(
            x,
            &rep.samples,
            rx.timeline.preamble.start,
            cfg.tag.preamble_us,
            rc.fb_taps,
            search,
            rc.ridge,
        )
    };
    let est =
        est(&offsets(20, rc.timing_span)).or_else(|| est(&offsets(10, rc.timing_span.max(20) * 3)));
    parts += stage(led, "reader.chanest_us", t);
    let Some(est) = est else { return parts };

    // MRC over the payload symbols.
    let t = Instant::now();
    let timeline = rx.timeline.shifted(est.offset);
    let reference = fir::filter(&est.h_fb, x);
    let sps = cfg.tag.samples_per_symbol();
    let noise_power = backfi_dsp::stats::undb(rep.residual_db);
    let guard = rc.fb_taps;
    for i in 0..timeline.payload.len() / sps {
        let s = timeline.payload.start + i * sps;
        let e = (s + sps).min(rep.samples.len());
        if e <= s + guard {
            break;
        }
        black_box(mrc_symbol(
            &rep.samples[s..e],
            &reference[s..e],
            guard,
            noise_power,
        ));
    }
    parts += stage(led, "reader.mrc_us", t);

    let Ok(res) = &rx.decoded else { return parts };
    let (m, r) = (cfg.tag.modulation, cfg.tag.code_rate);

    // The reader's back half before the decoder: pilot phase anchor, then
    // decision-directed common-phase refinement.
    let t = Instant::now();
    let mut symbols = res.symbols.clone();
    let pilot: Complex = symbols[..PILOT_SYMBOLS].iter().map(|s| s.z).sum();
    let derot = Complex::exp_j(-pilot.arg());
    for s in symbols.iter_mut() {
        s.z *= derot;
    }
    let mut acc = Complex::ZERO;
    for s in &symbols {
        let bits = phase_to_bits(m, s.z.arg());
        acc += s.z * Complex::exp_j(bits_to_phase(m, &bits)).conj() * s.ref_energy;
    }
    let refine = Complex::exp_j(-acc.arg());
    for s in symbols.iter_mut() {
        s.z *= refine;
    }
    black_box(symbols);
    parts += stage(led, "reader.finish_us", t);

    let data = &res.symbols[PILOT_SYMBOLS..];
    let t = Instant::now();
    let _ = black_box(decode_symbols(data, m, r));
    parts += stage(led, "reader.decode_symbols_us", t);
    led.add("decode.symbols", data.len() as f64);

    // decode_symbols' own stages: soft demap, Viterbi, CRC/frame parse.
    let t = Instant::now();
    let demap = SoftDemapper::new(m, 1.0);
    let mut llrs = Vec::with_capacity(data.len() * m.bits_per_symbol());
    for s in data {
        demap.soft_bits(s.z, s.noise_var, &mut llrs);
    }
    stage(led, "decode.demap_us", t);
    let (period_tx, period_mother) = match r {
        CodeRate::Half => (2, 2),
        CodeRate::TwoThirds => (3, 4),
        CodeRate::ThreeQuarters => (4, 6),
    };
    let usable = llrs.len() - llrs.len() % period_tx;
    let mother_len = usable / period_tx * period_mother;
    if mother_len >= 16 {
        let t = Instant::now();
        let soft = depuncture_soft(&llrs[..usable], r, mother_len);
        black_box(ViterbiDecoder::ieee80211().decode_soft_truncated(&soft));
        stage(led, "decode.viterbi_us", t);
        led.add("decode.viterbi_bits", (mother_len / 2) as f64);
    }
    let t = Instant::now();
    black_box(TagFrame::parse(&res.decoded_bits)).ok();
    stage(led, "decode.crc_us", t);
    parts
}

/// The reader's SIC divergence check: retrain on the trailing half of the
/// silent window when the residual's tail runs 6 dB hotter than its head.
fn retrain(
    canceller: &SelfInterferenceCanceller,
    x: &[Complex],
    y: &[Complex],
    silent: &std::ops::Range<usize>,
    taps: usize,
    rep: CancellerReport,
    led: &mut Ledger,
) -> Option<CancellerReport> {
    let q = silent.len() / 4;
    let head = silent.start + taps;
    if q == 0 || head + q > silent.end - q {
        return Some(rep);
    }
    let tail = (silent.end - q)..silent.end;
    let db = |s: &[Complex]| backfi_dsp::stats::db(backfi_dsp::simd::mean_power_auto(s));
    let (head_db, tail_db) = (
        db(&rep.samples[head..head + q]),
        db(&rep.samples[tail.clone()]),
    );
    if !tail_db.is_finite() || !head_db.is_finite() || tail_db <= head_db + 6.0 {
        return Some(rep);
    }
    led.add("sic.retrains", 1.0);
    let fallback = (silent.start + silent.len() / 2)..silent.end;
    match canceller.process(x, y, fallback) {
        Some(rep2) if db(&rep2.samples[tail]) < tail_db => Some(rep2),
        _ => Some(rep),
    }
}

/// Uniform per-layer metrics and the derived ledger ratios of a traced link
/// run. `untraced_us` are the same trials' untraced walls.
fn finish_traced(out: &mut Outcome, untraced_us: &[f64]) {
    let led = &out.ledger;
    let ratio = |num: &str, den: &str| led.sum(num) / led.sum(den);
    let per = |num: &str, den: &str| led.sum(num) * 1e3 / led.value(den);
    let trial = led.series("trial_us").to_vec();
    let n = trial.len() as f64;
    let mut derived = vec![
        (
            "trial.unattributed_frac",
            ratio("trial.unattributed_us", "trial_us"),
        ),
        (
            "reader.unattributed_frac",
            ratio("reader.unattributed_us", "reader.decode_us"),
        ),
        (
            "reader.msps",
            led.value("reader.samples") / led.sum("reader.decode_us"),
        ),
        (
            "dsp.fir_ns_per_sample",
            per("medium.fir_us", "medium.fir_samples"),
        ),
        (
            "dsp.noise_ns_per_sample",
            per("medium.noise_us", "medium.noise_samples"),
        ),
        (
            "coding.viterbi_ns_per_bit",
            per("decode.viterbi_us", "decode.viterbi_bits"),
        ),
    ];
    for name in [
        "link.fail.wakeup",
        "link.fail.cancellation",
        "link.fail.chanest",
        "link.fail.no_symbols",
        "link.fail.invalid_input",
        "link.fail.crc",
        "link.fail.stream_ber",
    ] {
        derived.push((name, led.value(name) / n));
    }
    for (k, v) in derived {
        match crate::metrics::def(k) {
            Some(d) => out.metric(d.name, v),
            None => out.ledger.set(k, v),
        }
    }
    out.ledger.set(
        "link.undetected_errors",
        out.ledger.value("link.undetected_errors"),
    );
    out.record_traced(&trial, untraced_us);
}
