//! Ablations of BackFi's design choices (DESIGN.md §5): quantify what each
//! ingredient buys, including the §7 multi-antenna extension.

use backfi_bench::timing::timed_figure;
use backfi_bench::{header, rule, Cli};
use backfi_core::link::{LinkConfig, LinkSimulator};
use backfi_core::mimo::MimoLinkSimulator;
use backfi_core::sweep::RunContext;
use backfi_dsp::stats;

fn base(ctx: &RunContext, distance: f64, payload: usize) -> LinkConfig {
    let mut cfg = LinkConfig::at_distance(distance);
    cfg.impair = ctx.impair;
    cfg.excitation.wifi_payload_bytes = payload;
    cfg
}

fn mean_snr(cfg: &LinkConfig, trials: usize, seed0: u64) -> (f64, f64) {
    let sim = LinkSimulator::new(cfg.clone());
    let mut snrs = Vec::new();
    let mut ok = 0usize;
    for s in 0..trials as u64 {
        let r = sim.run(seed0 + s);
        if r.measured_snr_db.is_finite() {
            snrs.push(r.measured_snr_db);
        }
        if r.success {
            ok += 1;
        }
    }
    (stats::mean(&snrs), ok as f64 / trials as f64)
}

fn main() {
    let cli = Cli::parse("ablations");
    let trials = cli.budget.trials.max(3);
    let payload = cli.budget.wifi_payload_bytes.min(1500);

    header(
        "Ablations",
        "What each design ingredient buys (DESIGN.md §5)",
        "silent-period SIC, MRC vs division, coding, analog+digital stages, \
         preamble length, multi-antenna MRC (§7)",
    );

    // 1. MRC vs zero-forcing division (§4.3.2).
    let mut cfg = base(&cli.ctx, 3.0, payload);
    cfg.tag.symbol_rate_hz = 500e3;
    let ((snr_mrc, ok_mrc), (snr_zf, ok_zf)) = timed_figure("ablations.mrc_vs_zf", || {
        let mrc = mean_snr(&cfg, trials, 100);
        let mut zf_cfg = cfg.clone();
        zf_cfg.reader.use_zero_forcing = true;
        (mrc, mean_snr(&zf_cfg, trials, 100))
    });
    println!("MRC vs per-sample division (3 m, 500 kSPS):");
    println!("   MRC: {snr_mrc:+.1} dB, {:.0} % frames", ok_mrc * 100.0);
    println!("   ZF : {snr_zf:+.1} dB, {:.0} % frames", ok_zf * 100.0);
    rule(60);

    // 2. Canceller stages.
    let ((snr_full, ok_full), ok_no_analog, ok_no_digital) =
        timed_figure("ablations.canceller_stages", || {
            let full = mean_snr(&base(&cli.ctx, 1.5, payload), trials, 200);
            let mut cfg = base(&cli.ctx, 1.5, payload);
            cfg.reader.canceller.analog_enabled = false;
            let (_, no_analog) = mean_snr(&cfg, trials, 200);
            let mut cfg = base(&cli.ctx, 1.5, payload);
            cfg.reader.canceller.digital_enabled = false;
            let (_, no_digital) = mean_snr(&cfg, trials, 200);
            (full, no_analog, no_digital)
        });
    println!("cancellation stages (1.5 m):");
    println!(
        "   both stages   : {snr_full:+.1} dB, {:.0} % frames",
        ok_full * 100.0
    );
    println!(
        "   no analog     : {:.0} % frames (ADC saturates)",
        ok_no_analog * 100.0
    );
    println!(
        "   no digital    : {:.0} % frames (residual SI)",
        ok_no_digital * 100.0
    );
    rule(60);

    // 3. Preamble length at the edge of range.
    let mut cfg = base(&cli.ctx, 6.0, payload);
    cfg.tag.symbol_rate_hz = 500e3;
    let ((snr32, ok32), (snr96, ok96)) = timed_figure("ablations.preamble_length", || {
        let short = mean_snr(&cfg, trials, 300);
        let mut long_cfg = cfg.clone();
        long_cfg.tag.preamble_us = 96.0;
        (short, mean_snr(&long_cfg, trials, 300))
    });
    println!("tag preamble at 6 m, 500 kSPS:");
    println!("   32 µs: {snr32:+.1} dB, {:.0} % frames", ok32 * 100.0);
    println!("   96 µs: {snr96:+.1} dB, {:.0} % frames", ok96 * 100.0);
    rule(60);

    // 4. Multi-antenna MRC (§7).
    println!("spatial MRC at 2 m (QPSK 1 MSPS):");
    let mimo_rows = timed_figure("ablations.spatial_mrc", || {
        [1usize, 2, 4].map(|n| {
            let sim = MimoLinkSimulator::new(base(&cli.ctx, 2.0, payload), n);
            let mut snrs = Vec::new();
            let mut ok = 0usize;
            for s in 0..trials as u64 {
                let r = sim.run(400 + s);
                if r.snr_db.is_finite() {
                    snrs.push(r.snr_db);
                }
                if r.success {
                    ok += 1;
                }
            }
            (n, stats::mean(&snrs), ok as f64 / trials as f64)
        })
    });
    for (n, snr, ok) in mimo_rows {
        println!(
            "   {n} antenna(s): {snr:+.1} dB, {:.0} % frames",
            ok * 100.0
        );
    }
    rule(60);
    println!("(paper §7 predicts additional diversity gain from spatial MRC)");
}
