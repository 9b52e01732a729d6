//! The per-thread trial scratch never leaks state between trials: a thread
//! that has run other configurations — longer, shorter, faulted, or one
//! that panicked half-way — produces the same `LinkReport`, bit for bit, as
//! a fresh thread running the same seed.

use backfi_chan::impair::Impairments;
use backfi_coding::CodeRate;
use backfi_core::{LinkConfig, LinkReport, LinkSimulator};
use backfi_tag::config::{TagConfig, TagModulation};
use backfi_wifi::Mcs;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The paper headline point: 16PSK 1/2 @ 2.5 MSPS, 1 m, 6 Mbps/3000 B.
fn headline_cell() -> LinkConfig {
    let mut cfg = LinkConfig::at_distance(1.0);
    cfg.tag = TagConfig {
        modulation: TagModulation::Psk16,
        code_rate: CodeRate::Half,
        symbol_rate_hz: 2.5e6,
        preamble_us: 32.0,
    };
    cfg.excitation.mcs = Mcs::Mbps6;
    cfg.excitation.wifi_payload_bytes = 3000;
    cfg
}

/// One fig08 `--quick` cell: QPSK 1/2 @ 1 MSPS, 1 m, 24 Mbps/1200 B.
fn quick_cell() -> LinkConfig {
    let mut cfg = LinkConfig::at_distance(1.0);
    cfg.excitation.wifi_payload_bytes = 1200;
    cfg
}

/// The quick cell under the reader's degradation ladder: ADC-railing
/// blockers, NaN bursts and timeline desync.
fn faulted_cell() -> LinkConfig {
    let mut cfg = quick_cell();
    cfg.impair = Impairments::parse("saturation:0.5,nonfinite:0.5,desync:1").unwrap();
    cfg
}

/// `seed` on a thread that has run nothing else.
fn fresh(cfg: &LinkConfig, seed: u64) -> LinkReport {
    let cfg = cfg.clone();
    std::thread::spawn(move || LinkSimulator::new(cfg).run(seed))
        .join()
        .unwrap()
}

fn assert_bitwise_eq(a: &LinkReport, b: &LinkReport, what: &str) {
    let floats = |r: &LinkReport| {
        [
            r.ber,
            r.pre_fec_ber,
            r.measured_snr_db,
            r.expected_snr_db,
            r.cancellation_db,
            r.goodput_bps,
            r.tag_energy_pj,
        ]
        .map(f64::to_bits)
    };
    assert_eq!(a.success, b.success, "{what}: success");
    assert_eq!(a.sent, b.sent, "{what}: sent");
    assert_eq!(floats(a), floats(b), "{what}: {a:?} vs {b:?}");
    assert_eq!(a.reader_error, b.reader_error, "{what}: reader_error");
    assert_eq!(a.panicked, b.panicked, "{what}: panicked");
}

#[test]
fn mixed_sequence_on_one_thread_matches_fresh_threads() {
    let sequence = [
        ("headline", headline_cell(), 3u64),
        ("quick", quick_cell(), 5),
        // Seed 4 injects a NaN burst (sanitized input); seed 6 ends in a
        // reader error after cancellation.
        ("faulted", faulted_cell(), 4),
        ("faulted", faulted_cell(), 6),
        ("headline", headline_cell(), 11),
        ("quick", quick_cell(), 5),
    ];
    // The faulted trials must reach the reader's sanitized-input buffer.
    backfi_obs::enable();
    let sanitized_before = backfi_obs::counter_value("reader.nonfinite_rx");
    for (name, cfg, seed) in &sequence {
        let warm = LinkSimulator::new(cfg.clone()).run(*seed);
        assert_bitwise_eq(&warm, &fresh(cfg, *seed), &format!("{name} seed {seed}"));
    }
    assert!(backfi_obs::counter_value("reader.nonfinite_rx") > sanitized_before);
}

#[test]
fn scratch_borrow_is_released_when_a_trial_panics() {
    // 10 MHz symbols at 20 MHz sampling leave 2 samples per symbol, below
    // the tag pipeline's minimum: the trial panics by contract.
    let mut poison = quick_cell();
    poison.tag.symbol_rate_hz = 10e6;
    let headline = LinkSimulator::new(headline_cell());
    headline.run(1);
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let caught = catch_unwind(AssertUnwindSafe(|| LinkSimulator::new(poison).run(2)));
    std::panic::set_hook(hook);
    assert!(caught.is_err(), "the poisoned trial must panic");
    // Same thread: the scratch is borrowable again and what the panicking
    // trial left in it does not reach the next result.
    let after = headline.run(4);
    assert_bitwise_eq(
        &after,
        &fresh(&headline_cell(), 4),
        "headline after a panic",
    );
}
