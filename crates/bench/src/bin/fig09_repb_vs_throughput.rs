//! Fig. 9 — "Each plot is BackFi's REPB for corresponding throughput achieved
//! for the range varying between 0.5 m to 5 m… the vertical line indicates
//! the maximum throughput that is achievable at a given distance."

use backfi_bench::timing::timed_figure;
use backfi_bench::{fmt_bps, header, rule, Cli};
use backfi_core::figures::fig9;

fn main() {
    let cli = Cli::parse("fig09");
    header(
        "Fig. 9",
        "Min REPB vs achieved throughput, one curve per range",
        "REPB between ~0.5 and 3 for most combinations; max-throughput \
         frontier shrinks with range",
    );
    let ranges = [0.5, 1.0, 2.0, 4.0, 5.0];
    let curves = timed_figure("fig09", || fig9(&cli.ctx, &ranges, &cli.budget));

    for (d, frontier) in &curves {
        println!("range {d} m:");
        if frontier.is_empty() {
            println!("   (nothing decodable)");
            continue;
        }
        for (thr, repb) in frontier {
            println!("   {:>10}  REPB {:.3}", fmt_bps(*thr), repb);
        }
        let max = frontier.last().map(|p| p.0).unwrap_or(0.0);
        println!("   max achievable: {}", fmt_bps(max));
        rule(40);
    }

    // Shape checks the paper calls out.
    let max_at = |d: f64| {
        curves
            .iter()
            .find(|(r, _)| *r == d)
            .and_then(|(_, f)| f.last().map(|p| p.0))
            .unwrap_or(0.0)
    };
    println!(
        "frontier monotone with range: 0.5 m {} ≥ 1 m {} ≥ 5 m {}",
        fmt_bps(max_at(0.5)),
        fmt_bps(max_at(1.0)),
        fmt_bps(max_at(5.0))
    );
}
