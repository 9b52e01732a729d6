//! Fig. 8 — "Relationship showing range of BackFi and maximum possible data
//! rate for two different training times."
//!
//! Sweeps tag distance, cycling every (modulation × coding × symbol-rate)
//! combination per §6.1's methodology, for 32 µs and 96 µs tag preambles.

use backfi_bench::timing::timed_figure;
use backfi_bench::{fmt_bps, header, rule, Cli};
use backfi_core::figures::fig8;

fn main() {
    let cli = Cli::parse("fig08");
    header(
        "Fig. 8",
        "Maximum throughput vs range, preamble 32 µs vs 96 µs",
        "≈6.67 Mbps @ 0.5 m, 5 Mbps @ 1 m, 1 Mbps @ 5 m; at 7 m the 96 µs \
         preamble buys ~10x over 32 µs",
    );
    let distances = [0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0];
    let preambles = [32.0, 96.0];
    let pts = timed_figure("fig08", || {
        fig8(&cli.ctx, &distances, &preambles, &cli.budget)
    });

    println!(
        "{:>8} | {:>22} | {:>22}",
        "range", "32 µs preamble", "96 µs preamble"
    );
    rule(60);
    for &d in &distances {
        let get = |p: f64| {
            pts.iter()
                .find(|x| x.preamble_us == p && x.distance_m == d)
                .map(|x| {
                    let label = x.best.map(|c| c.label()).unwrap_or_else(|| "-".to_string());
                    format!("{:>10} {label}", fmt_bps(x.max_throughput_bps))
                })
                .unwrap_or_default()
        };
        println!("{d:>6} m | {:>32} | {:>32}", get(32.0), get(96.0));
    }
    rule(60);

    // Headline checks.
    let at = |d: f64, p: f64| {
        pts.iter()
            .find(|x| x.distance_m == d && x.preamble_us == p)
            .map(|x| x.max_throughput_bps)
            .unwrap_or(0.0)
    };
    println!("@1 m (32 µs): {} (paper ≈ 5 Mbps)", fmt_bps(at(1.0, 32.0)));
    println!("@5 m (32 µs): {} (paper ≈ 1 Mbps)", fmt_bps(at(5.0, 32.0)));
    let r7 = at(7.0, 96.0) / at(7.0, 32.0).max(1.0);
    println!(
        "@7 m: 96 µs / 32 µs = {:.1}x (paper ≈ 10x: 100 Kbps vs 10 Kbps)",
        r7
    );
}
