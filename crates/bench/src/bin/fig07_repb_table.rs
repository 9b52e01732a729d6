//! Fig. 7 — "Table provides BackFi tag's relative EPB and corresponding data
//! rate for different choices of modulation, coding and tag symbol switching
//! rate." Pure energy-model computation; compares against the paper's
//! values cell by cell.

use backfi_bench::timing::timed_figure;
use backfi_bench::{fmt_bps, header, rule, Cli};
use backfi_core::figures::fig7;

/// The paper's own REPB table (rows: symbol rate; cols: BPSK 1/2, BPSK 2/3,
/// QPSK 1/2, QPSK 2/3, 16PSK 1/2, 16PSK 2/3).
const PAPER: [(f64, [f64; 6]); 6] = [
    (10e3, [29.2162, 28.1984, 31.2517, 29.7250, 40.4117, 36.5951]),
    (100e3, [3.5651, 3.3333, 4.0287, 3.6810, 6.1151, 5.2458]),
    (500e3, [1.2850, 1.1231, 1.6089, 1.3660, 3.0665, 2.4592]),
    (1e6, [1.0000, 0.8468, 1.3064, 1.0766, 2.6855, 2.1109]),
    (2e6, [0.8575, 0.7086, 1.1552, 0.9319, 2.4949, 1.9367]),
    (2.5e6, [0.8290, 0.6810, 1.1250, 0.9030, 2.4568, 1.9019]),
];

fn main() {
    let _cli = Cli::parse("fig07");
    header(
        "Fig. 7",
        "Relative energy-per-bit and throughput per tag configuration",
        "reference EPB (BPSK 1/2 @ 1 MSPS) = 3.15 pJ/bit",
    );
    let table = timed_figure("fig07", fig7);
    println!(
        "{:>10} | {:^22} | {:^22} | {:^22}",
        "sym rate", "BPSK 1/2 / 2/3", "QPSK 1/2 / 2/3", "16PSK 1/2 / 2/3"
    );
    rule(106);
    let mut worst = 0.0f64;
    for (row, paper) in table.iter().zip(PAPER.iter()) {
        assert!((row.symbol_rate_hz - paper.0).abs() < 1.0);
        let mut cells = Vec::new();
        for (i, (_, repb, thr)) in row.columns.iter().enumerate() {
            let err = (repb - paper.1[i]).abs() / paper.1[i];
            worst = worst.max(err);
            cells.push(format!("{:7.4} ({:>9})", repb, fmt_bps(*thr)));
        }
        println!(
            "{:>7} Hz | {} {} | {} {} | {} {}",
            row.symbol_rate_hz, cells[0], cells[1], cells[2], cells[3], cells[4], cells[5]
        );
    }
    rule(106);
    println!(
        "worst deviation from the paper's table: {:.3} %",
        worst * 100.0
    );
    println!(
        "reference EPB: {:.3} pJ/bit (paper: 3.15 pJ/bit)",
        backfi_tag::energy::epb_pj(&backfi_tag::energy::reference_config())
    );
}
