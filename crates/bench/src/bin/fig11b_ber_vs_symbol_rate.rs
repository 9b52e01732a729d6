//! Fig. 11b — "Demonstrates the diversity gains of MRC: as we increase the
//! symbol time period, we have more samples for averaging, hence it improves
//! the SNR. This increase in SNR results in lower bit error rate (BER) for a
//! given modulation."

use backfi_bench::timing::timed_figure;
use backfi_bench::{header, rule, Cli};
use backfi_core::figures::fig11b;
use backfi_tag::config::TagModulation;

fn main() {
    let cli = Cli::parse("fig11b");
    header(
        "Fig. 11b",
        "Raw BER vs tag symbol rate (MRC time-diversity waterfall)",
        "BER 1e-2…1e-3 at the highest symbol rate, dropping to 1e-4…1e-5 as \
         the symbol rate decreases",
    );
    // A placement where the highest symbol rates are error-prone.
    let distance = 3.5;
    let rates = [2.5e6, 2.0e6, 1.0e6, 500e3, 100e3];
    let pts = timed_figure("fig11b", || fig11b(&cli.ctx, distance, &rates, &cli.budget));

    println!("placement: tag at {distance} m, rate-1/2 coding");
    println!(
        "{:>10} | {:>12} | {:>12}",
        "sym rate", "BPSK BER", "QPSK BER"
    );
    rule(42);
    for &f in &rates {
        let get = |m: TagModulation| {
            pts.iter()
                .find(|p| p.modulation == m && p.symbol_rate_hz == f)
                .map(|p| {
                    if p.ber == 0.0 {
                        "<1e-5".to_string()
                    } else {
                        format!("{:.2e}", p.ber)
                    }
                })
                .unwrap_or_default()
        };
        println!(
            "{:>7} Hz | {:>12} | {:>12}",
            f,
            get(TagModulation::Bpsk),
            get(TagModulation::Qpsk)
        );
    }
    rule(42);

    // Waterfall shape check.
    for m in [TagModulation::Bpsk, TagModulation::Qpsk] {
        let hi = pts
            .iter()
            .find(|p| p.modulation == m && p.symbol_rate_hz == 2.5e6)
            .map(|p| p.ber)
            .unwrap_or(1.0);
        let lo = pts
            .iter()
            .find(|p| p.modulation == m && p.symbol_rate_hz == 100e3)
            .map(|p| p.ber)
            .unwrap_or(1.0);
        println!("{m:?}: BER drops {hi:.2e} -> {lo:.2e} as symbol time grows");
    }
}
