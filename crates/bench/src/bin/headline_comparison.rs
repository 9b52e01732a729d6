//! §6 headline — "BackFi provides three orders of magnitude higher
//! throughput, an order of magnitude higher range compared to the best known
//! WiFi backscatter system [27, 25]."

use backfi_bench::timing::timed_figure;
use backfi_bench::{fmt_bps, header, rule, Cli};
use backfi_core::figures::headline;

fn main() {
    let cli = Cli::parse("headline");
    header(
        "§6 headline",
        "BackFi vs prior WiFi backscatter (Wi-Fi Backscatter [27], [25])",
        "10^3x throughput, ~10x range; prior: ≤1 Kbps at <1 m",
    );
    let h = timed_figure("headline", || headline(&cli.ctx, &cli.budget));

    println!("{:>28} | {:>14} | {:>14}", "", "BackFi", "prior [27,25]");
    rule(64);
    println!(
        "{:>28} | {:>14} | {:>14}",
        "throughput @ 1 m",
        fmt_bps(h.backfi_1m_bps),
        fmt_bps(h.prior_bps)
    );
    println!(
        "{:>28} | {:>14} | {:>14}",
        "throughput @ 5 m",
        fmt_bps(h.backfi_5m_bps),
        "0 bps"
    );
    println!(
        "{:>28} | {:>14} | {:>13.2}m",
        "max range", "≥7 m", h.prior_range_m
    );
    rule(64);
    println!(
        "throughput gain at 1 m: {:.0}x (paper: one to three orders of magnitude)",
        h.throughput_gain
    );
}
