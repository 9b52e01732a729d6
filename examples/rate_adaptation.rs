//! Watch the rate adaptation walk down the configuration ladder as a tag is
//! carried away from the AP — the §6.1 energy-first policy in action.
//!
//! Run with: `cargo run --release --example rate_adaptation`

use backfi::core::sweep::{cycle_configs, max_throughput_bps, TrialStats};
use backfi::prelude::*;
use backfi::reader::rate_adapt;
use backfi::tag::energy::repb;

fn main() {
    println!("carrying a tag away from the AP…\n");
    println!(
        "{:>8} | {:>28} | {:>10} | {:>6}",
        "range", "selected configuration", "throughput", "REPB"
    );
    println!("{}", "-".repeat(64));

    for &d in &[0.5, 1.0, 2.0, 3.0, 5.0] {
        let mut base = LinkConfig::at_distance(d);
        base.excitation.wifi_payload_bytes = 1500;
        let candidates = TagConfig::all_combinations(32.0);
        let stats = cycle_configs(&base, &candidates, 3, 11);
        let outcomes: Vec<_> = stats.iter().map(TrialStats::outcome).collect();

        // The paper's policy: among configurations reaching the best
        // achievable throughput, pick the lowest REPB.
        let best_throughput = max_throughput_bps(&stats);
        match rate_adapt::min_repb_at_throughput(&outcomes, best_throughput) {
            Some(cfg) => println!(
                "{:>6} m | {:>28} | {:>7.2} Mb | {:>6.3}",
                d,
                cfg.label(),
                cfg.throughput_bps() / 1e6,
                repb(&cfg)
            ),
            None => println!(
                "{d:>6} m | {:>28} | {:>10} | {:>6}",
                "out of range", "-", "-"
            ),
        }
    }

    println!(
        "\nok: denser modulations and faster switching near the AP, \
              robust slow BPSK at the edge."
    );
}
