//! Wall-clock benches over the composed pipelines: WiFi TX/RX, the
//! self-interference canceller, and a full BackFi link exchange. Plain
//! `harness = false` timing loops (no external bench framework in the
//! offline build).
//!
//! Every point also lands in `BENCH_pipeline.json` at the repo root via
//! [`BenchReport`] — the machine-readable perf trajectory diffed across PRs.
//! Pass `--short` for the CI smoke run.

use backfi_bench::timing::BenchReport;
use backfi_core::link::{LinkConfig, LinkSimulator};
use backfi_dsp::noise::add_noise;
use backfi_dsp::rng::SplitMix64;
use backfi_wifi::{Mcs, WifiReceiver, WifiTransmitter};
use std::hint::black_box;

/// Scale an iteration count down for `--short` CI smoke runs.
fn iters(full: u32, short: bool) -> u32 {
    if short {
        (full / 10).max(2)
    } else {
        full
    }
}

fn bench_wifi_tx(rep: &mut BenchReport, short: bool) {
    let _ = short; // calibrated points size themselves by wall time
    let tx = WifiTransmitter::new();
    let psdu: Vec<u8> = (0..500).map(|i| i as u8).collect();
    let samples = tx.transmit(&psdu, Mcs::Mbps24, 0x5D).samples.len();
    rep.measure_calibrated("wifi_tx_500B_24mbps", "auto", samples, 0, samples, || {
        black_box(
            tx.transmit(black_box(&psdu), Mcs::Mbps24, 0x5D)
                .samples
                .len(),
        );
    });
}

/// Receive throughput recorded by the batched-Viterbi SoA pipeline
/// (`BENCH_pipeline.json` as committed by PR 5) — the denominator of the
/// asserted speedup gate below. The pre-SoA PR 2 baseline was 789,399.101
/// samples/s; the current gate compounds on the PR 5 number.
const WIFI_RX_BASELINE_SAMPLES_PER_SEC: f64 = 5_681_119.803;

fn bench_wifi_rx(rep: &mut BenchReport, short: bool) {
    let tx = WifiTransmitter::new();
    let rx = WifiReceiver::default();
    let psdu: Vec<u8> = (0..500).map(|i| i as u8).collect();
    let pkt = tx.transmit(&psdu, Mcs::Mbps24, 0x5D);
    let mut buf = pkt.samples.clone();
    let mut rng = SplitMix64::new(1);
    add_noise(&mut rng, &mut buf, 1e-4);
    let n = buf.len();
    // Asserted speedup gate (same contract as the PR 2 kernel gates): the
    // packed-survivor Viterbi + batched FFT/demap receive path must hold a
    // 2x advantage over the recorded PR 5 baseline, or the bench run fails.
    // `--short` smoke runs use a looser floor to absorb CI timer noise.
    let floor = if short { 1.2 } else { 2.0 };
    let gate_ns = n as f64 / (floor * WIFI_RX_BASELINE_SAMPLES_PER_SEC) * 1e9;
    let ns = rep.measure_calibrated_gated("wifi_rx_500B_24mbps", "auto", n, 0, n, gate_ns, || {
        black_box(rx.receive(black_box(&buf)).is_ok());
    });
    let samples_per_sec = n as f64 / (ns * 1e-9);
    assert!(
        samples_per_sec >= floor * WIFI_RX_BASELINE_SAMPLES_PER_SEC,
        "wifi_rx regression: {samples_per_sec:.0} samples/s < {floor}x baseline {WIFI_RX_BASELINE_SAMPLES_PER_SEC:.0}"
    );

    // High-rate point: a full 1500 B MPDU at 54 Mbps (64-QAM, rate 3/4)
    // stresses the fused demapper and depuncturer instead of the rate-1/2
    // Viterbi. Required by the CI bench validator (presence + nonzero
    // samples/s) so the trajectory always carries a 64-QAM receive number.
    let psdu_big: Vec<u8> = (0..1500).map(|i| i as u8).collect();
    let pkt_big = tx.transmit(&psdu_big, Mcs::Mbps54, 0x5D);
    let mut buf_big = pkt_big.samples.clone();
    let mut rng_big = SplitMix64::new(2);
    add_noise(&mut rng_big, &mut buf_big, 1e-5);
    assert!(
        rx.receive(&buf_big).is_ok(),
        "54 Mbps bench packet must decode"
    );
    let n_big = buf_big.len();
    rep.measure_calibrated("wifi_rx_1500B_54mbps", "auto", n_big, 0, n_big, || {
        black_box(rx.receive(black_box(&buf_big)).is_ok());
    });
}

/// Link-exchange throughput recorded by the PR 5 pipeline — denominator of
/// the 1.5x gate on the SIMD-trained exchange below.
const LINK_BASELINE_SAMPLES_PER_SEC: f64 = 2_773_412.296;

fn bench_full_link(rep: &mut BenchReport, short: bool) {
    let mut cfg = LinkConfig::at_distance(1.0);
    cfg.excitation.wifi_payload_bytes = 1200;
    let sim = LinkSimulator::new(cfg);
    // One "iteration" processes the whole excitation capture, so the
    // per-second figure must be charged against its sample count — a zero
    // here used to make the record claim 0 samples/s (and the CI validator
    // now rejects such records outright).
    let n = sim.excitation().samples.len();
    assert!(n > 0, "link excitation produced no samples");
    let mut seed = 0u64;
    // Asserted speedup gate: SIMD-routed training (estimate_fir Gram build,
    // digital canceller inner products, chanest accumulations) plus the
    // planar tag demapper must hold 1.5x over the recorded PR 5 baseline.
    let floor = if short { 1.0 } else { 1.5 };
    let gate_ns = n as f64 / (floor * LINK_BASELINE_SAMPLES_PER_SEC) * 1e9;
    let ns = rep.measure_calibrated_gated(
        "backfi_link_exchange_0p5ms",
        "auto",
        n,
        0,
        n,
        gate_ns,
        || {
            seed += 1;
            black_box(sim.run(seed).success);
        },
    );
    let samples_per_sec = n as f64 / (ns * 1e-9);
    assert!(
        samples_per_sec >= floor * LINK_BASELINE_SAMPLES_PER_SEC,
        "link exchange regression: {samples_per_sec:.0} samples/s < {floor}x baseline {LINK_BASELINE_SAMPLES_PER_SEC:.0}"
    );
}

fn bench_sweep_cache_replay(rep: &mut BenchReport, short: bool) {
    use backfi_core::sweep::{cache::ResultCache, grid_cells, RunContext};
    use backfi_tag::config::TagConfig;
    use std::sync::Arc;

    let dir = std::env::temp_dir().join(format!("backfi-bench-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = Arc::new(ResultCache::open(&dir).expect("open bench cache store"));
    let ctx = RunContext {
        cache: Some(Arc::clone(&cache)),
        ..RunContext::default()
    };
    let mut base = LinkConfig::at_distance(1.0);
    base.excitation.wifi_payload_bytes = 1200;
    let mut cells = grid_cells(&base, &[TagConfig::default()]);
    cells.extend(grid_cells(
        &LinkConfig::at_distance(2.0),
        &[TagConfig::default()],
    ));
    let trials = if short { 2 } else { 4 };
    let jobs = cells.len() * trials;

    // Cold path: re-chill the store inside the closure so every timed
    // iteration (including `time_ns`'s warm-up call) recomputes the grid.
    let cold_ns = rep.measure(
        "sweep_cache_replay",
        "cold",
        jobs,
        0,
        jobs,
        iters(5, short),
        || {
            cache.clear_entries().expect("clear bench cache store");
            black_box(ctx.run_grid(&cells, trials, 1000).len());
        },
    );
    // Warm path: the store is populated (the cold bench's last iteration left
    // it warm); every iteration serves all cells from disk.
    let warm_ns = rep.measure(
        "sweep_cache_replay",
        "warm",
        jobs,
        0,
        jobs,
        iters(20, short),
        || {
            black_box(ctx.run_grid(&cells, trials, 1000).len());
        },
    );
    let _ = std::fs::remove_dir_all(&dir);
    // Replay gate: serving from the content-addressed store must beat
    // recomputation by a wide margin, or the cache is pure overhead.
    assert!(
        warm_ns * 2.0 <= cold_ns,
        "sweep cache replay too slow: warm {warm_ns:.0} ns vs cold {cold_ns:.0} ns"
    );
}

fn main() {
    let short = BenchReport::short_mode();
    let mut rep = BenchReport::new("pipeline", if short { "short" } else { "full" });
    bench_wifi_tx(&mut rep, short);
    bench_wifi_rx(&mut rep, short);
    bench_full_link(&mut rep, short);
    bench_sweep_cache_replay(&mut rep, short);
    let path = rep.write();
    println!("wrote {}", path.display());
}
