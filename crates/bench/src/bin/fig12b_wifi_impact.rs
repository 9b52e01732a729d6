//! Fig. 12b — "Average throughput for all the clients at different locations
//! as a function of distance of tag from the AP. … when the tag is at
//! 0.25 m, we see a 10 % throughput drop when tag is modulating. As the tag
//! moves away from AP, we see no degradation."

use backfi_bench::timing::timed_figure;
use backfi_bench::{header, rule, Cli};
use backfi_core::figures::fig12b;

fn main() {
    let cli = Cli::parse("fig12b");
    header(
        "Fig. 12b",
        "WiFi network throughput with/without an active tag vs tag–AP distance",
        "≤10 % impact at 0.25–0.5 m, negligible beyond",
    );
    let distances = [0.25, 0.5, 1.0, 2.0, 3.0, 4.0];
    let pts = timed_figure("fig12b", || fig12b(&cli.ctx, &distances, &cli.budget));

    println!(
        "{:>10} | {:>12} | {:>12} | {:>8}",
        "tag dist", "tag off", "tag on", "drop"
    );
    rule(52);
    for p in &pts {
        let drop = 100.0 * (p.off_mbps - p.on_mbps) / p.off_mbps.max(1e-9);
        println!(
            "{:>8} m | {:>9.2} Mb | {:>9.2} Mb | {:>6.1} %",
            p.tag_distance_m, p.off_mbps, p.on_mbps, drop
        );
    }
    rule(52);
    let near = &pts[0];
    let far = pts.last().unwrap();
    let near_drop = (near.off_mbps - near.on_mbps) / near.off_mbps.max(1e-9);
    let far_drop = (far.off_mbps - far.on_mbps) / far.off_mbps.max(1e-9);
    println!(
        "0.25 m drop {:.1} % (paper ≈10 %); {} m drop {:.1} % (paper ≈0 %)",
        100.0 * near_drop,
        far.tag_distance_m,
        100.0 * far_drop
    );
}
