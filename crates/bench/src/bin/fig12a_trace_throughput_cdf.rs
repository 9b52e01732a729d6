//! Fig. 12a — "Throughput of BackFi's tag … under normal WiFi deployment.
//! BackFi tag is active only when the BackFi's reader is transmitting. Hence
//! we achieve on an average 4 Mbps throughput vs the maximum throughput of
//! 5 Mbps" (tag at 2 m, 20 loaded-AP traces).

use backfi_bench::timing::timed_figure;
use backfi_bench::{fmt_bps, header, rule, Cli};
use backfi_core::figures::fig12a;

fn main() {
    let cli = Cli::parse("fig12a");
    header(
        "Fig. 12a",
        "CDF of BackFi throughput under loaded-AP traces (tag at 2 m)",
        "median ≈ 80 % of the continuous-excitation optimum (4 of 5 Mbps)",
    );
    let n_traces = if cli.quick { 8 } else { 20 };
    let (cdf, active) = timed_figure("fig12a", || fig12a(&cli.ctx, 2.0, n_traces, &cli.budget));

    println!("continuous-excitation optimum at 2 m: {}", fmt_bps(active));
    println!("{:>14} | {:>6}", "throughput", "CDF");
    rule(25);
    for q in [0.1, 0.25, 0.5, 0.75, 0.9, 1.0] {
        println!("{:>14} | {:>5.2}", fmt_bps(cdf.quantile(q)), q);
    }
    rule(25);
    let median = cdf.quantile(0.5);
    println!(
        "median {} = {:.0} % of optimum (paper: ≈80 %)",
        fmt_bps(median),
        100.0 * median / active.max(1.0)
    );
}
