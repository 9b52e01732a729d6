//! Fig. 11a — "Demonstrates the effect of imperfect cancellation on the
//! degradation of the measured SNR vs the expected SNR at the reader of
//! BackFi." (30 locations × 10 runs; VNA ground truth.)

use backfi_bench::timing::timed_figure;
use backfi_bench::{header, rule, Cli};
use backfi_core::figures::fig11a;

fn main() {
    let cli = Cli::parse("fig11a");
    header(
        "Fig. 11a",
        "Measured vs expected symbol SNR scatter (cancellation residue)",
        "median degradation < 2.3 dB (prior full-duplex work reports 1.7 dB)",
    );
    let (locations, runs) = if cli.quick { (8, 2) } else { (30, 10) };
    let (pts, median) = timed_figure("fig11a", || fig11a(&cli.ctx, locations, runs, &cli.budget));

    println!(
        "{:>14} | {:>14} | {:>12}",
        "expected dB", "measured dB", "degradation"
    );
    rule(48);
    for p in pts.iter().take(15) {
        println!(
            "{:>12.1}   | {:>12.1}   | {:>10.2}",
            p.expected_db,
            p.measured_db,
            p.expected_db - p.measured_db
        );
    }
    if pts.len() > 15 {
        println!("   … ({} points total)", pts.len());
    }
    rule(48);
    println!("median SNR degradation: {median:.2} dB (paper: < 2.3 dB median)");
}
