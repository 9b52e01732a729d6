//! End-to-end fault-injection properties: deterministic injection, graceful
//! (monotone) degradation under every impairment mode, and a sweep executor
//! that survives a panicking grid cell.

use backfi_chan::impair::{ImpairmentMode, Impairments};
use backfi_core::sweep::{grid_cells, run_grid_on, Executor};
use backfi_core::LinkConfig;
use backfi_tag::config::TagConfig;

fn base(distance: f64) -> LinkConfig {
    let mut cfg = LinkConfig::at_distance(distance);
    cfg.excitation.wifi_payload_bytes = 1200;
    cfg
}

/// Composite degradation score of one configuration: failed-frame fraction
/// plus the raw symbol-decision BER. Clean links score near 0; a dead link
/// scores near 1.5.
fn degradation(cfg: &LinkConfig, seeds: usize) -> f64 {
    let stats = &run_grid_on(&Executor::new(), std::slice::from_ref(cfg), seeds, 9000)[0];
    (1.0 - stats.success_rate) + stats.mean_pre_fec_ber
}

/// ROADMAP convention: statistical assertions average ≥20 seeds.
const SEEDS: usize = 20;

#[test]
fn every_mode_degrades_monotonically_and_never_panics() {
    let mut worst = Vec::new();
    for mode in ImpairmentMode::ALL {
        let mut scores = Vec::new();
        for &intensity in &[0.0, 0.5, 1.0] {
            let mut cfg = base(2.0);
            cfg.impair = Impairments::single(mode, intensity);
            scores.push(degradation(&cfg, SEEDS));
        }
        // Monotone within statistical tolerance: turning a fault *up* never
        // makes the link meaningfully better. (Some modes — e.g. a short NaN
        // burst the reader erases — are almost fully absorbed by the
        // degradation ladder, so equality is allowed.)
        assert!(
            scores[1] <= scores[2] + 0.08 && scores[0] <= scores[1] + 0.08,
            "{}: degradation must not decrease with intensity: {scores:?}",
            mode.name()
        );
        assert!(
            scores[0] < 0.4,
            "{}: zero intensity must be a clean link: {scores:?}",
            mode.name()
        );
        worst.push((mode, scores[2]));
    }
    // Full-intensity faults must actually bite somewhere: at least half the
    // modes show clear degradation over the clean link.
    let biting = worst.iter().filter(|(_, s)| *s > 0.3).count();
    assert!(
        biting * 2 >= ImpairmentMode::ALL.len(),
        "full-intensity faults too gentle: {worst:?}"
    );
}

#[test]
fn impaired_sweeps_are_bit_identical_across_worker_counts() {
    // Same seed ⇒ bit-identical aggregates for any worker count, with every
    // impairment mode active: injection draws derive from the job seed, not
    // from thread identity or steal order.
    let mut cfg = base(1.5);
    cfg.impair = Impairments::all(0.4);
    let cells: Vec<LinkConfig> = grid_cells(&cfg, &[TagConfig::default()])
        .into_iter()
        .chain(
            grid_cells(&base(3.0), &[TagConfig::default()])
                .into_iter()
                .map(|mut c| {
                    c.impair = Impairments::all(0.4);
                    c
                }),
        )
        .collect();
    let a = run_grid_on(&Executor::with_threads(1), &cells, 6, 4242);
    let b = run_grid_on(&Executor::with_threads(7), &cells, 6, 4242);
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.success_rate.to_bits(), y.success_rate.to_bits());
        assert_eq!(x.mean_snr_db.to_bits(), y.mean_snr_db.to_bits());
        assert_eq!(x.mean_ber.to_bits(), y.mean_ber.to_bits());
        assert_eq!(x.mean_pre_fec_ber.to_bits(), y.mean_pre_fec_ber.to_bits());
        assert_eq!(x.mean_goodput_bps.to_bits(), y.mean_goodput_bps.to_bits());
        assert_eq!(x.panics, y.panics);
    }
}

#[test]
fn executor_completes_a_grid_with_a_panicking_cell() {
    backfi_obs::enable();
    // symbol_rate 10 MHz at a 20 MHz sample rate leaves 2 samples/symbol —
    // below the tag pipeline's minimum, which panics by contract. The sweep
    // must absorb it: the poisoned cell reports failed trials with `panics`
    // attribution while healthy cells are unaffected.
    let poison = TagConfig {
        symbol_rate_hz: 10e6,
        ..TagConfig::default()
    };
    let cells = grid_cells(&base(1.0), &[TagConfig::default(), poison]);
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let before = backfi_obs::counter_value("sweep.job_panic");
    let trials = 3;
    let stats = run_grid_on(&Executor::with_threads(4), &cells, trials, 77);
    std::panic::set_hook(hook);
    let after = backfi_obs::counter_value("sweep.job_panic");

    assert_eq!(stats.len(), 2, "grid must complete despite the panics");
    assert_eq!(stats[0].panics, 0);
    assert!(stats[0].success_rate > 0.5, "healthy cell unaffected");
    assert_eq!(stats[1].panics, trials, "every poisoned trial attributed");
    assert_eq!(stats[1].success_rate, 0.0);
    assert_eq!(stats[1].mean_ber, 1.0);
    assert!(
        after >= before + trials as u64,
        "sweep.job_panic must count: {before} -> {after}"
    );
}
