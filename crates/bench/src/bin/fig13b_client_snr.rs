//! Fig. 13b — "shows the degradation of SNR for tag on and tag off for each
//! point for the plot on the left."

use backfi_bench::timing::timed_figure;
use backfi_bench::{header, rule, Cli};
use backfi_core::figures::fig13;
use backfi_wifi::Mcs;

fn main() {
    let cli = Cli::parse("fig13b");
    header(
        "Fig. 13b",
        "Client SNR with tag on vs off, per bitrate point",
        "small (≈1–2 dB) degradation, largest for the closest/fastest clients",
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
        "{:>9} | {:>11} | {:>11} | {:>12}",
        "rate", "SNR off", "SNR on", "degradation"
    );
    rule(52);
    for p in &pts {
        println!(
            "{:>6} Mb | {:>8.1} dB | {:>8.1} dB | {:>9.2} dB",
            p.mcs.mbps(),
            p.snr_off_db,
            p.snr_on_db,
            p.snr_off_db - p.snr_on_db
        );
    }
    rule(52);
    let worst = pts
        .iter()
        .map(|p| p.snr_off_db - p.snr_on_db)
        .fold(f64::NEG_INFINITY, f64::max);
    println!("worst-case SNR degradation: {worst:.2} dB (paper: a few dB at most)");
}
