//! Fault-injection smoke matrix — the robustness harness, not a paper figure.
//!
//! Runs the end-to-end link under every impairment mode at several
//! intensities, plus one deliberately poisoned sweep cell, and verifies the
//! pipeline *degrades instead of dying*: no job may panic uncaught, clean
//! cells must keep decoding, and the poisoned cell must be attributed. Exits
//! non-zero on any violation, so CI can gate on it. `--short` (or `--quick`)
//! shrinks the seed count for smoke runs. `--impair` and `--cache` are
//! accepted but have no effect: every cell states its own impairments and
//! every trial is computed.

use backfi_bench::{header, rule, Cli};
use backfi_chan::impair::{ImpairmentMode, Impairments};
use backfi_core::link::LinkConfig;
use backfi_core::sweep::{grid_cells, run_grid_on};
use backfi_tag::config::TagConfig;

fn base(distance: f64) -> LinkConfig {
    let mut cfg = LinkConfig::at_distance(distance);
    cfg.excitation.wifi_payload_bytes = 1200;
    cfg
}

fn main() {
    let cli = Cli::parse("fault_matrix");
    header(
        "Fault matrix",
        "Graceful degradation under injected impairments + executor panic safety",
        "robustness harness (no paper counterpart): zero uncaught panics",
    );
    let trials = if cli.quick { 4 } else { 20 };
    let exec = cli.ctx.exec;
    backfi_obs::enable(); // counters feed the panic-attribution checks

    let mut violations = 0usize;

    // --- impairment grid: every mode × intensity --------------------------
    println!(
        "{:<14} {:>9} {:>9} {:>12} {:>12} {:>8}",
        "mode", "intensity", "success", "pre-FEC BER", "goodput", "panics"
    );
    rule(70);
    for mode in ImpairmentMode::ALL {
        let mut clean_rate = None;
        for &intensity in &[0.0, 0.25, 0.5, 1.0] {
            let mut cfg = base(2.0);
            cfg.impair = Impairments::single(mode, intensity);
            let stats = &run_grid_on(&exec, &[cfg], trials, 31_000)[0];
            if stats.panics > 0 {
                violations += 1;
            }
            if intensity == 0.0 {
                clean_rate = Some(stats.success_rate);
            }
            println!(
                "{:<14} {:>9.2} {:>8.0}% {:>12.4} {:>10.0}bps {:>8}",
                mode.name(),
                intensity,
                100.0 * stats.success_rate,
                stats.mean_pre_fec_ber,
                stats.mean_goodput_bps,
                stats.panics
            );
        }
        // Zero intensity must be a healthy link at 2 m.
        if clean_rate.unwrap_or(0.0) < 0.5 {
            eprintln!("VIOLATION: {} at intensity 0 is not clean", mode.name());
            violations += 1;
        }
    }
    rule(70);

    // --- everything at once ----------------------------------------------
    let mut cfg = base(2.0);
    cfg.impair = Impairments::all(0.5);
    let combined = &run_grid_on(&exec, &[cfg], trials, 32_000)[0];
    println!(
        "{:<14} {:>9} {:>8.0}% {:>12.4} {:>10.0}bps {:>8}",
        "all",
        "0.50",
        100.0 * combined.success_rate,
        combined.mean_pre_fec_ber,
        combined.mean_goodput_bps,
        combined.panics
    );
    if combined.panics > 0 {
        violations += 1;
    }

    // --- executor panic safety: a deliberately poisoned cell --------------
    // 10 MHz symbols at 20 MSPS is below the tag pipeline's contract and
    // panics; the sweep must absorb it and attribute every lost trial.
    let poison = TagConfig {
        symbol_rate_hz: 10e6,
        ..TagConfig::default()
    };
    let cells = grid_cells(&base(1.0), &[TagConfig::default(), poison]);
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {})); // the panics below are deliberate
    let before = backfi_obs::counter_value("sweep.job_panic");
    let stats = run_grid_on(&exec, &cells, trials, 33_000);
    std::panic::set_hook(hook);
    let caught = backfi_obs::counter_value("sweep.job_panic") - before;
    println!(
        "poisoned cell: {}/{} trials panicked, caught {} (healthy cell {:.0}% success)",
        stats[1].panics,
        trials,
        caught,
        100.0 * stats[0].success_rate
    );
    if stats.len() != 2 || stats[1].panics != trials || caught < trials as u64 {
        eprintln!("VIOLATION: poisoned trials not fully caught/attributed");
        violations += 1;
    }
    if stats[0].success_rate < 0.5 {
        eprintln!("VIOLATION: healthy cell degraded by its poisoned neighbour");
        violations += 1;
    }

    rule(70);
    if violations == 0 {
        println!("fault matrix clean: 0 uncaught job panics, 0 violations");
    } else {
        println!("fault matrix FAILED: {violations} violation(s)");
        std::process::exit(1);
    }
}
