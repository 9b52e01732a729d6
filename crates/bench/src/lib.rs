//! # backfi-bench
//!
//! The benchmark/reproduction harness: one binary per table and figure of
//! the paper's evaluation (§5–§6), plus wall-clock benches over the DSP
//! kernels and the end-to-end pipeline (`benches/`, plain timing loops —
//! no external bench framework in the offline build).
//!
//! Run a figure with e.g. `cargo run --release -p backfi-bench --bin
//! fig08_throughput_vs_range`. Every binary accepts `--quick` for a smoke
//! run and prints the same rows/series the paper reports, alongside the
//! paper's own numbers for comparison (recorded in EXPERIMENTS.md).

#![deny(missing_docs)]
#![warn(clippy::all)]

use backfi_core::figures::FigureBudget;

pub mod timing;

/// Parse the common CLI convention: `--quick` (alias `--short`) selects the
/// smoke budget, anything else (or nothing) the full reproduction budget.
pub fn budget_from_args() -> FigureBudget {
    if std::env::args().any(|a| a == "--quick" || a == "--short") {
        FigureBudget::quick()
    } else {
        FigureBudget::paper()
    }
}

/// Arm the observability layers for a figure binary.
///
/// Every figure calls this once at startup: `--obs` on the command line
/// force-enables recording (equivalent to `BACKFI_OBS=1`) and `--trace`
/// force-enables the event tracer (equivalent to `BACKFI_TRACE=1`). Run
/// metadata (figure id, quick/paper mode, trial budget, a config hash) is
/// stamped into the manifest, and the returned [`backfi_obs::RunScope`]
/// guard writes `OBS_<figure>.json` (recorder on) and/or `TRACE_<figure>.json`
/// (tracer on) at the repo root when it drops at the end of `main`.
///
/// Returns `None` when both layers are off — the figure then pays one
/// relaxed atomic load per instrumentation point, and no file is written.
/// All obs/trace output goes to stderr and the JSON files; stdout stays
/// byte-identical either way.
pub fn obs_setup(figure: &str, budget: &FigureBudget) -> Option<backfi_obs::RunScope> {
    if std::env::args().any(|a| a == "--obs") {
        backfi_obs::enable();
    }
    if std::env::args().any(|a| a == "--trace") {
        backfi_obs::trace::enable();
    }
    if !backfi_obs::enabled() && !backfi_obs::trace::enabled() {
        return None;
    }
    if backfi_obs::enabled() {
        let quick = std::env::args().any(|a| a == "--quick" || a == "--short");
        backfi_obs::set_meta("figure", figure);
        backfi_obs::set_meta("mode", if quick { "quick" } else { "paper" });
        backfi_obs::set_meta("trials", &budget.trials.to_string());
        let cfg = format!("{budget:?}");
        backfi_obs::set_meta(
            "config_hash",
            &format!("{:016x}", backfi_obs::fnv1a64(cfg.as_bytes())),
        );
    }
    backfi_obs::run_scope(figure)
}

/// Arm the fault-injection layer for a figure binary.
///
/// `--impair <spec>` (e.g. `--impair cfo:0.5,interference:1`, `--impair
/// all:0.25`, `--impair off`) installs the parsed impairment set process-wide;
/// without the flag the `BACKFI_IMPAIR` environment variable applies, and
/// with neither the layer is off and every figure's stdout is byte-identical
/// to a build without it. A malformed spec is a usage error: the binary
/// prints the parse error and exits with status 2 rather than silently
/// benchmarking the wrong fault model. The active (non-off) set is echoed to
/// stderr so logs record what was injected.
pub fn impair_setup() {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == "--impair" {
            let spec = args.next().unwrap_or_default();
            match backfi_chan::impair::Impairments::parse(&spec) {
                Ok(imp) => backfi_chan::impair::set_global(imp),
                Err(e) => {
                    eprintln!("error: --impair {spec:?}: {e}");
                    std::process::exit(2);
                }
            }
            break;
        }
    }
    let active = backfi_chan::impair::global();
    if !active.is_off() {
        eprintln!("# fault injection active: {active:?}");
    }
}

/// Arm the sweep result cache for a figure binary.
///
/// `--cache <dir>` (or `BACKFI_CACHE=<dir>`) opens/creates a persistent
/// content-addressed result cache there, so a rerun only computes grid
/// cells it has not seen — stdout is byte-identical to a cold run. Without
/// either, the sweep layer is untouched and default runs stay byte-identical
/// to a build without it.
///
/// A missing directory argument is a usage error (exit 2), matching
/// [`impair_setup`]. An *unusable cache directory* is deliberately not: the
/// cache degrades to pass-through with a warning and a
/// `sweep.cache.disabled` counter, because a full disk must cost recompute
/// time, never the run. An active cache is echoed to stderr.
pub fn sweep_setup() {
    let mut cache_dir: Option<String> = std::env::var("BACKFI_CACHE").ok();
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == "--cache" {
            cache_dir = match args.next() {
                Some(v) if !v.is_empty() && !v.starts_with("--") => Some(v),
                _ => {
                    eprintln!("error: --cache requires a directory argument");
                    std::process::exit(2);
                }
            };
        }
    }
    if let Some(dir) = cache_dir {
        let path = std::path::Path::new(&dir);
        if let Err(e) = backfi_core::sweep::cache::set_global(Some(path)) {
            backfi_obs::counter_add("sweep.cache.disabled", 1);
            eprintln!(
                "warning: cache dir {dir:?} unusable ({e}); continuing without a result cache"
            );
        } else {
            eprintln!("# sweep result cache: {dir}");
        }
    }
}

/// Format a bit/s figure the way the paper writes it (kbps/Mbps).
pub fn fmt_bps(bps: f64) -> String {
    if bps >= 1e6 {
        format!("{:.2} Mbps", bps / 1e6)
    } else if bps >= 1e3 {
        format!("{:.1} Kbps", bps / 1e3)
    } else {
        format!("{bps:.0} bps")
    }
}

/// Print a horizontal rule sized for the standard table width.
pub fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}

/// Print the standard experiment header.
pub fn header(id: &str, title: &str, paper_claim: &str) {
    rule(78);
    println!("{id}: {title}");
    println!("paper: {paper_claim}");
    rule(78);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bps_formatting() {
        assert_eq!(fmt_bps(5.0e6), "5.00 Mbps");
        assert_eq!(fmt_bps(6.67e6), "6.67 Mbps");
        assert_eq!(fmt_bps(10e3), "10.0 Kbps");
        assert_eq!(fmt_bps(500.0), "500 bps");
    }
}
