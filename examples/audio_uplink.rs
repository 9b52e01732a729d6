//! A security microphone streaming compressed audio — the paper's high-rate
//! motivating scenario (§1: "a few Mbps (e.g., security microphones/cameras
//! recording audio/video)").
//!
//! 64 kbit/s audio needs sustained throughput; the tag uses rate adaptation
//! (§6.1) to pick the least-energy configuration that still carries the
//! stream at its range.
//!
//! Run with: `cargo run --release --example audio_uplink`

use backfi::core::sweep::{cycle_configs, TrialStats};
use backfi::prelude::*;
use backfi::reader::rate_adapt;
use backfi::tag::energy::repb;

fn main() {
    let audio_rate_bps = 64_000.0; // codec output
    let duty_margin = 4.0; // the AP transmits ~25 % of the time
    let needed = audio_rate_bps * duty_margin;

    for &distance in &[1.0, 4.0] {
        println!(
            "microphone at {distance} m (needs {:.0} kbps of link rate):",
            needed / 1e3
        );
        let mut base = LinkConfig::at_distance(distance);
        base.excitation.wifi_payload_bytes = 1500;

        // Cycle candidate configurations like the paper's methodology.
        let candidates = TagConfig::all_combinations(32.0);
        let stats = cycle_configs(&base, &candidates, 3, 7);
        let outcomes: Vec<_> = stats.iter().map(TrialStats::outcome).collect();

        match rate_adapt::min_repb_at_throughput(&outcomes, needed) {
            Some(cfg) => {
                println!("  selected        : {}", cfg.label());
                println!("  link throughput : {:.2} Mbps", cfg.throughput_bps() / 1e6);
                println!(
                    "  REPB            : {:.3} (ref = BPSK 1/2 @ 1 MSPS)",
                    repb(&cfg)
                );
                let effective = cfg.throughput_bps() / duty_margin;
                println!(
                    "  audio margin    : {:.1}x the 64 kbps stream",
                    effective / audio_rate_bps
                );
            }
            None => println!("  no configuration sustains the stream at this range"),
        }
        println!();
    }
    println!("ok: rate adaptation picked energy-minimal configs per range.");
}
