//! Wall-clock benches over the DSP/coding kernels that dominate the
//! simulator's runtime. Plain `harness = false` timing loops (no external
//! bench framework in the offline build): each kernel is warmed up, then
//! timed over enough iterations to smooth scheduler noise, and reported as
//! ns/iter on stdout.
//!
//! Besides the human-readable lines, every point lands in
//! `BENCH_kernels.json` at the repo root via [`BenchReport`] — the
//! machine-readable perf trajectory diffed across PRs. Where a production
//! kernel (`auto`) has a reference oracle (`direct`), the two are timed side
//! by side, and two of those pairs are gated by [`check_speedups`] (see
//! DESIGN.md §8).
//!
//! Pass `--short` for the CI smoke run (fewer iterations, same size grid).

use backfi_bench::timing::BenchReport;
use backfi_chan::frontend::Adc;
use backfi_dsp::fir::{self, filter};
use backfi_dsp::noise::{cgauss_vec, NoiseStream};
use backfi_dsp::rng::SplitMix64;
use backfi_dsp::simd::{backend, force_scalar, Backend};
use backfi_dsp::Complex;
use backfi_sic::estimator::{estimate_fir, estimate_fir_direct};
use std::hint::black_box;

/// Scale an iteration count down for `--short` CI smoke runs.
fn iters(full: u32, short: bool) -> u32 {
    if short {
        (full / 10).max(2)
    } else {
        full
    }
}

/// Old-vs-new FIR least-squares estimator. The (4096, 64) point is the
/// acceptance benchmark: the Toeplitz prefix-sum build must beat the direct
/// O(N·taps²) build by ≥ 3×.
fn bench_estimator_grid(rep: &mut BenchReport, short: bool) {
    let mut rng = SplitMix64::new(0x33);
    const GRID: &[(usize, usize, u32)] = &[(640, 6, 200), (2048, 28, 30), (4096, 64, 10)];
    for &(n, taps, it) in GRID {
        let x = cgauss_vec(&mut rng, n, 1.0);
        let h: Vec<Complex> = cgauss_vec(&mut rng, taps.min(8), 0.01);
        let y = filter(&h, &x);
        let it = iters(it, short);
        rep.measure("estimate_fir", "direct", n, taps, n, it, || {
            black_box(estimate_fir_direct(&x, &y, taps, 1e-9).map(|v| v.len()));
        });
        rep.measure("estimate_fir", "toeplitz", n, taps, n, it, || {
            black_box(estimate_fir(&x, &y, taps, 1e-9).map(|v| v.len()));
        });
    }
}

/// The headline trial's six link FIRs at their real shape: n = 82,900
/// samples against the 2, 3, 16, 24 and 28 tap counts. `auto` is the
/// production `filter_into` on a reused buffer (the AVX2 gather kernel where
/// available), `direct` is `filter` on a fresh buffer under
/// `force_scalar(true)`: the scalar scatter loop the tests' oracle runs.
/// Timed with min-wall calibration, so the gated ratio sees the fastest
/// batches.
fn bench_fir_link_shapes(rep: &mut BenchReport) {
    const N: usize = 82_900;
    let mut rng = SplitMix64::new(7);
    let x = cgauss_vec(&mut rng, N, 1.0);
    let mut y = Vec::new();
    let scalar = backend() == Backend::Scalar;
    for taps in [2usize, 3, 16, 24, 28] {
        let h = cgauss_vec(&mut rng, taps, 0.1);
        rep.measure_calibrated("fir_filter", "auto", N, taps, N, || {
            fir::filter_into(black_box(&h), black_box(&x), &mut y);
            black_box(y[0]);
        });
        force_scalar(true);
        rep.measure_calibrated("fir_filter", "direct", N, taps, N, || {
            black_box(filter(black_box(&h), black_box(&x))[0]);
        });
        // Back to the backend the `auto` points run on.
        force_scalar(scalar);
    }
}

/// The canceller's ADC over a headline-length packet: clip each component
/// to full scale and round it to the 12-bit grid (`Adc::quantize`, the AVX2
/// build where available). Quantizing a quantized buffer again costs the
/// same, so the buffer is reused in place.
fn bench_adc(rep: &mut BenchReport) {
    const N: usize = 82_900;
    let mut rng = SplitMix64::new(8);
    let mut x = cgauss_vec(&mut rng, N, 0.1);
    let adc = Adc {
        bits: 12,
        full_scale: 1.0,
    };
    rep.measure_calibrated("adc", "quantize", N, 0, N, || {
        adc.quantize(black_box(&mut x));
        black_box(x[0]);
    });
}

/// The pipeline-shaped kernels kept from the original bench set; short
/// kernels are bit-identical to the direct oracles on every path.
fn bench_pipeline_kernels(rep: &mut BenchReport, short: bool) {
    let mut rng = SplitMix64::new(2);
    let x = cgauss_vec(&mut rng, 20_000, 1.0);
    let h = cgauss_vec(&mut rng, 24, 0.01);
    rep.measure(
        "fir_filter",
        "auto",
        20_000,
        24,
        20_000,
        iters(50, short),
        || {
            black_box(filter(black_box(&h), black_box(&x))[0]);
        },
    );

    let mut rng = SplitMix64::new(3);
    let x = cgauss_vec(&mut rng, 4_000, 1.0);
    let t = cgauss_vec(&mut rng, 64, 1.0);
    rep.measure(
        "xcorr_normalized",
        "auto",
        4_000,
        64,
        4_000,
        iters(50, short),
        || {
            black_box(backfi_dsp::correlate::xcorr_normalized(&x, &t)[0]);
        },
    );

    let bits: Vec<bool> = (0..1000).map(|i| (i * 31) % 7 > 2).collect();
    let mut enc = backfi_coding::ConvEncoder::ieee80211();
    let coded = enc.encode_terminated(&bits);
    let soft: Vec<f64> = coded.iter().map(|&b| if b { 1.0 } else { -1.0 }).collect();
    let dec = backfi_coding::ViterbiDecoder::ieee80211();
    rep.measure(
        "viterbi_k7",
        "auto",
        1000,
        0,
        1000,
        iters(50, short),
        || {
            black_box(dec.decode_soft_terminated(black_box(&soft)).len());
        },
    );

    // Two normal draws per received sample: the largest per-trial cost of a
    // link simulation (transmitter noise plus thermal noise in `propagate`,
    // each drawn from its own 4-lane `NoiseStream`).
    let mut stream = NoiseStream::new(6);
    let mut buf = vec![Complex::ZERO; 20_000];
    rep.measure(
        "add_noise",
        "ziggurat",
        20_000,
        0,
        20_000,
        iters(200, short),
        || {
            stream.add_noise(black_box(&mut buf), 1e-3);
            black_box(buf[0]);
        },
    );

    let mut rng = SplitMix64::new(5);
    let reference = cgauss_vec(&mut rng, 20, 1.0);
    let y: Vec<Complex> = reference.iter().map(|r| *r * Complex::exp_j(0.7)).collect();
    rep.measure(
        "mrc_symbol",
        "auto",
        20,
        0,
        20,
        iters(20_000, short),
        || {
            black_box(backfi_reader::mrc::mrc_symbol(
                black_box(&y),
                black_box(&reference),
                4,
                1e-9,
            ));
        },
    );
}

/// The reader's Gray-PSK soft demapper over a burst of noisy symbols, at
/// the headline 16PSK point and at QPSK (the per-symbol cost of
/// `decode.soft_bits`).
fn bench_soft_demap(rep: &mut BenchReport, short: bool) {
    use backfi_tag::config::TagModulation;
    use backfi_tag::psk::SoftDemapper;
    const SYMBOLS: usize = 1000;
    let mut rng = SplitMix64::new(7);
    let zs = cgauss_vec(&mut rng, SYMBOLS, 1.0);
    let mut llrs = Vec::with_capacity(4 * SYMBOLS);
    for (m, path) in [
        (TagModulation::Psk16, "psk16"),
        (TagModulation::Qpsk, "qpsk"),
    ] {
        let demap = SoftDemapper::new(m, 1.0);
        rep.measure(
            "soft_demap",
            path,
            SYMBOLS,
            0,
            SYMBOLS,
            iters(2000, short),
            || {
                llrs.clear();
                for &z in black_box(&zs) {
                    demap.soft_bits(z, 0.05, &mut llrs);
                }
                black_box(llrs[0]);
            },
        );
    }
}

/// The reader's hard PSK decision over a burst of noisy 16PSK symbols: the
/// per-symbol cost of `decode.refine_phase`, `decode.metrics` and the
/// link report's pre-FEC BER, each of which decides every symbol once.
fn bench_psk_slice(rep: &mut BenchReport, short: bool) {
    use backfi_tag::config::TagModulation;
    use backfi_tag::psk::hard_index_of;
    const SYMBOLS: usize = 1000;
    let mut rng = SplitMix64::new(7);
    let zs = cgauss_vec(&mut rng, SYMBOLS, 1.0);
    rep.measure(
        "psk_slice",
        "psk16",
        SYMBOLS,
        0,
        SYMBOLS,
        iters(2000, short),
        || {
            let mut acc = 0usize;
            for &z in black_box(&zs) {
                acc += hard_index_of(TagModulation::Psk16, z);
            }
            black_box(acc);
        },
    );
}

/// The 802.11 receiver on one 1500 B 6 Mbps capture, the heaviest entry of
/// the repository benchmark's `client_rx` pool, built the same way:
/// transmit, an indoor line-of-sight multipath draw, and noise at the MCS's
/// required SNR + 6 dB. One iteration is one whole `WifiReceiver::receive`
/// (sync, demap, Viterbi, descramble).
fn bench_wifi_rx(rep: &mut BenchReport, short: bool) {
    use backfi_chan::multipath::MultipathProfile;
    use backfi_wifi::{Mcs, WifiReceiver, WifiTransmitter};
    const BYTES: usize = 1500;
    let mut rng = SplitMix64::new(11);
    let psdu: Vec<u8> = (0..BYTES).map(|_| rng.next_u64() as u8).collect();
    let mcs = Mcs::Mbps6;
    let pkt = WifiTransmitter::new().transmit(&psdu, mcs, 0x5D);
    let h = MultipathProfile::indoor_los().realize(&mut rng);
    let mut y = filter(&h, &pkt.samples);
    let snr = backfi_dsp::stats::undb(mcs.required_snr_db() + 6.0);
    let noise_power = backfi_dsp::stats::mean_power(&y) / snr;
    backfi_dsp::noise::add_noise(&mut rng, &mut y, noise_power);
    let rx = WifiReceiver::default();
    let got = rx.receive(&y).expect("bench capture decodes");
    assert_eq!(got.psdu, psdu, "bench capture must decode to its PSDU");
    rep.measure(
        "wifi_rx",
        "mbps6",
        BYTES,
        0,
        y.len(),
        iters(100, short),
        || {
            black_box(rx.receive(black_box(&y)).map(|p| p.psdu.len()).ok());
        },
    );
}

/// The disabled observability fast path. With the recorder and the tracer
/// both off, a span guard is one relaxed atomic load and a branch at
/// construction and the same again at drop — the acceptance bound is
/// < 5 ns per call, i.e. instrumentation points are free to leave in the
/// per-trial hot path unconditionally.
///
/// Timed with min-wall calibration (the fastest ≥ 20 ms batch), in both full
/// and `--short` mode: host load slows only some batches down, while a real
/// per-call cost slows every batch, the fastest one included.
fn bench_obs_overhead(rep: &mut BenchReport) {
    backfi_obs::disable();
    backfi_obs::trace::disable();
    const CALLS: usize = 1024;
    let ns = rep.measure_calibrated("obs_span", "disabled", CALLS, 0, CALLS, || {
        for _ in 0..CALLS {
            drop(black_box(backfi_obs::span(black_box("bench.obs_overhead"))));
        }
    });
    let per_call = ns / CALLS as f64;
    println!("disabled span path: {per_call:.2} ns/call");
    assert!(
        per_call < 5.0,
        "disabled span guard must stay under 5 ns/call, got {per_call:.2}"
    );
}

/// Assert the acceptance speedups from the recorded trajectory and print the
/// ratio table: the Toeplitz estimator ≥ 3× direct at (4096, 64), and the
/// production FIR ≥ 2.5× the scalar oracle at the 2-tap link shape
/// (82,900, 2). Skipped in `--short` mode where the low iteration counts
/// make ratios noisy.
fn check_speedups(rep: &BenchReport, short: bool) {
    let find = |name: &str| {
        rep.records()
            .iter()
            .find(|r| r.name == name)
            .unwrap_or_else(|| panic!("missing bench record {name}"))
            .ns_per_iter
    };
    let pairs = [
        (
            "estimate_fir_direct_n4096_l64",
            "estimate_fir_toeplitz_n4096_l64",
            3.0,
        ),
        (
            "fir_filter_direct_n82900_l2",
            "fir_filter_auto_n82900_l2",
            2.5,
        ),
    ];
    for (slow, fast, floor) in pairs {
        let ratio = find(slow) / find(fast);
        println!("speedup {fast} vs {slow}: {ratio:.1}x");
        if !short {
            assert!(ratio >= floor, "{fast} only {ratio:.2}x faster than {slow}");
        }
    }
}

fn main() {
    let short = BenchReport::short_mode();
    let mut rep = BenchReport::new("kernels", if short { "short" } else { "full" });

    bench_estimator_grid(&mut rep, short);
    bench_fir_link_shapes(&mut rep);
    bench_adc(&mut rep);
    bench_pipeline_kernels(&mut rep, short);
    bench_soft_demap(&mut rep, short);
    bench_psk_slice(&mut rep, short);
    bench_wifi_rx(&mut rep, short);
    bench_obs_overhead(&mut rep);

    check_speedups(&rep, short);
    let path = rep.write();
    println!("wrote {}", path.display());
}
