//! Fig. 10 — "For achieving fixed throughput using BackFi for different
//! distance, the tag needs to spend more energy as it goes far away. For
//! achieving 1.25 Mbps we need to spend 2.5× more than power needed for
//! reference modulation, coding and switching rate."

use backfi_bench::timing::timed_figure;
use backfi_bench::{fmt_bps, header, rule, Cli};
use backfi_core::figures::fig10;

fn main() {
    let cli = Cli::parse("fig10");
    header(
        "Fig. 10",
        "Min REPB to sustain a fixed throughput vs range",
        "REPB steps between the two supported coding rates (1/2 and 2/3); \
         farther ranges need costlier configurations until the target becomes \
         infeasible",
    );
    let ranges = [0.5, 1.0, 2.0, 3.0, 4.0, 5.0];
    let targets = [1.25e6, 5.0e6];
    let rows = timed_figure("fig10", || fig10(&cli.ctx, &ranges, &targets, &cli.budget));

    println!(
        "{:>8} | {:^34} | {:^34}",
        "range",
        format!("target {}", fmt_bps(targets[0])),
        format!("target {}", fmt_bps(targets[1]))
    );
    rule(84);
    for (d, per_target) in &rows {
        let cell = |o: &Option<(backfi_tag::config::TagConfig, f64)>| match o {
            Some((cfg, repb)) => format!("REPB {:.3} via {}", repb, cfg.label()),
            None => "infeasible".to_string(),
        };
        println!(
            "{d:>6} m | {:>34} | {:>34}",
            cell(&per_target[0]),
            cell(&per_target[1])
        );
    }
    rule(84);

    // Shape check: REPB at the 1.25 Mbps target must not decrease with range.
    let repbs: Vec<Option<f64>> = rows.iter().map(|(_, t)| t[0].map(|x| x.1)).collect();
    let feasible: Vec<f64> = repbs.iter().flatten().copied().collect();
    let monotone = feasible.windows(2).all(|w| w[1] >= w[0] - 1e-9);
    println!("1.25 Mbps REPB non-decreasing with range: {monotone}");
}
