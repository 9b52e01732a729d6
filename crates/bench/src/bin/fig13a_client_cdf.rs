//! Fig. 13a — "Shows the CDF of the client throughput when the tag is placed
//! at 0.25 m from the AP. There is almost no degradation for lower bit rate
//! of 6 Mbps… However, we observe noticeable difference at 54 Mbps."
//!
//! Sample-level: real OFDM packets decoded by the full WiFi receiver with
//! the tag's actual reflected waveform added at the client.

use backfi_bench::timing::timed_figure;
use backfi_bench::{header, rule, Cli};
use backfi_core::figures::fig13;
use backfi_wifi::Mcs;

fn main() {
    let cli = Cli::parse("fig13a");
    header(
        "Fig. 13a",
        "Per-bitrate client PHY throughput, tag at 0.25 m from the AP",
        "no degradation at 6 Mbps; noticeable only at 54 Mbps",
    );
    let rates = [
        Mcs::Mbps6,
        Mcs::Mbps12,
        Mcs::Mbps24,
        Mcs::Mbps36,
        Mcs::Mbps54,
    ];
    let pts = timed_figure("fig13", || fig13(&cli.ctx, &rates, &cli.budget));

    println!(
        "{:>9} | {:>9} | {:>11} | {:>11} | {:>11}",
        "rate", "client d", "tput off", "tput on", "drop"
    );
    rule(64);
    for p in &pts {
        let off = p.mcs.mbps() * p.success_off;
        let on = p.mcs.mbps() * p.success_on;
        println!(
            "{:>6} Mb | {:>7.1} m | {:>8.2} Mb | {:>8.2} Mb | {:>9.1} %",
            p.mcs.mbps(),
            p.client_distance_m,
            off,
            on,
            100.0 * (off - on) / off.max(1e-9)
        );
    }
    rule(64);
    let low = &pts[0];
    let high = pts.last().unwrap();
    println!(
        "6 Mbps success {:.0} % -> {:.0} % | 54 Mbps success {:.0} % -> {:.0} %",
        100.0 * low.success_off,
        100.0 * low.success_on,
        100.0 * high.success_off,
        100.0 * high.success_on
    );
}
