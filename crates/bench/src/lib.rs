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
//! paper's own numbers for comparison (recorded in EXPERIMENTS.md). [`Cli`]
//! parses the flags every binary shares.

#![deny(missing_docs)]
#![warn(clippy::all)]

use backfi_chan::impair::Impairments;
use backfi_core::figures::FigureBudget;
use backfi_core::sweep::cache::ResultCache;
use backfi_core::sweep::RunContext;
use std::sync::Arc;

pub mod timing;

const USAGE: &str = "usage: [--quick|--short] [--obs] [--trace] [--impair SPEC] [--cache DIR]";

/// Every run parameter of a figure binary, parsed once from the command
/// line: `--quick`/`--short` (smoke budget), `--obs`/`--trace` (the only
/// switches of the obs recorder and the tracer), `--impair SPEC` (an impairment set
/// stamped on every link the figure builds, e.g. `cfo:0.5,interference:1`)
/// and `--cache DIR` (a persistent result cache).
///
/// The last `--impair`/`--cache` wins. A missing or `--`-prefixed value, a
/// malformed spec or an unknown argument is a usage error: without flags the
/// full paper budget runs for minutes, so a typo must not silently select it.
pub struct Cli {
    /// Trial budget: [`FigureBudget::quick`] under `--quick`, else the paper's.
    pub budget: FigureBudget,
    /// `--quick`/`--short` was given.
    pub quick: bool,
    /// Executor, result cache and impairments every sweep runs against.
    pub ctx: RunContext,
    /// Writes the obs manifest and/or trace timeline when dropped at the end
    /// of `main`; `None` (free) when both layers are off.
    pub obs: Option<backfi_obs::RunScope>,
}

impl Cli {
    /// Parse `std::env::args()` for binary `figure`; on a usage error print
    /// it and exit with status 2.
    pub fn parse(figure: &str) -> Cli {
        Cli::from_iter(figure, std::env::args().skip(1)).unwrap_or_else(|e| {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2)
        })
    }

    /// Parse `args` (without the program name) for binary `figure`.
    ///
    /// Arms the obs layers first, so a cache directory that cannot be opened
    /// is counted (`sweep.cache.disabled`). That case is a warning, not an
    /// error: the run continues without a cache, because a full disk must
    /// cost recompute time, never the run. An active impairment set or cache
    /// is echoed to stderr; stdout is never touched.
    pub fn from_iter<I: IntoIterator<Item = String>>(figure: &str, args: I) -> Result<Cli, String> {
        let (mut quick, mut obs, mut trace) = (false, false, false);
        let mut impair = Impairments::off();
        let mut cache_dir = None;
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--quick" | "--short" => quick = true,
                "--obs" => obs = true,
                "--trace" => trace = true,
                "--impair" => {
                    let spec = flag_value(&arg, args.next())?;
                    impair =
                        Impairments::parse(&spec).map_err(|e| format!("--impair {spec:?}: {e}"))?;
                }
                "--cache" => cache_dir = Some(flag_value(&arg, args.next())?),
                _ => return Err(format!("unknown argument {arg:?}")),
            }
        }
        let budget = if quick {
            FigureBudget::quick()
        } else {
            FigureBudget::paper()
        };
        if obs {
            backfi_obs::enable();
        }
        if trace {
            backfi_obs::trace::enable();
        }
        if backfi_obs::enabled() {
            backfi_obs::set_meta("figure", figure);
            backfi_obs::set_meta("mode", if quick { "quick" } else { "paper" });
            backfi_obs::set_meta("trials", &budget.trials.to_string());
            let cfg = format!("{budget:?}");
            backfi_obs::set_meta(
                "config_hash",
                &format!("{:016x}", backfi_obs::fnv1a64(cfg.as_bytes())),
            );
        }
        if !impair.is_off() {
            eprintln!("# fault injection active: {impair:?}");
        }
        let cache = cache_dir.and_then(|dir| match ResultCache::open(dir.as_ref()) {
            Ok(c) => {
                eprintln!("# sweep result cache: {dir}");
                Some(Arc::new(c))
            }
            Err(e) => {
                backfi_obs::counter_add("sweep.cache.disabled", 1);
                eprintln!(
                    "warning: cache dir {dir:?} unusable ({e}); continuing without a result cache"
                );
                None
            }
        });
        Ok(Cli {
            budget,
            quick,
            ctx: RunContext {
                cache,
                impair,
                ..RunContext::default()
            },
            obs: backfi_obs::run_scope(figure),
        })
    }
}

/// The value following `flag`, which must exist and not look like a flag.
fn flag_value(flag: &str, value: Option<String>) -> Result<String, String> {
    match value {
        Some(v) if !v.is_empty() && !v.starts_with("--") => Ok(v),
        _ => Err(format!("{flag} requires a value")),
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

    /// Parse a whitespace-separated argument line.
    fn cli(line: &str) -> Result<Cli, String> {
        Cli::from_iter("cli-test", line.split_whitespace().map(String::from))
    }

    /// Everything a parse decided, in comparable form.
    fn summary(c: &Cli) -> String {
        let cache = c.ctx.cache.as_ref().map(|c| c.dir().to_path_buf());
        let (exec, impair) = (c.ctx.exec, c.ctx.impair);
        let (budget, quick, obs) = (c.budget, c.quick, c.obs.is_some());
        format!("{budget:?} {quick} {exec:?} {impair:?} {cache:?} {obs}")
    }

    #[test]
    fn short_and_quick_are_the_same_cli() {
        let short = summary(&cli("--short").unwrap());
        assert_eq!(short, summary(&cli("--quick").unwrap()));
        assert_ne!(short, summary(&cli("").unwrap()));
    }

    #[test]
    fn flags_parse_and_the_last_value_wins() {
        let (off, all) = (Impairments::off(), Impairments::all);
        let cases = [
            ("", false, off),
            ("--quick --impair all:0.5", true, all(0.5)),
            ("--impair all:0.5 --impair off", false, off),
            ("--impair off --impair all:0.25", false, all(0.25)),
        ];
        for (line, quick, impair) in cases {
            let c = cli(line).unwrap();
            assert_eq!((c.quick, c.ctx.impair), (quick, impair));
            let trials = [FigureBudget::paper(), FigureBudget::quick()][quick as usize].trials;
            assert_eq!(c.budget.trials, trials, "{line}");
            assert!(c.ctx.cache.is_none() && c.obs.is_none(), "{line}");
        }
        let root = std::env::temp_dir().join(format!("backfi-cli-{}", std::process::id()));
        let (a, b) = (root.join("a"), root.join("b"));
        let c = cli(&format!("--cache {} --cache {}", a.display(), b.display())).unwrap();
        assert_eq!(c.ctx.cache.as_ref().unwrap().dir(), b.as_path());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn malformed_arguments_are_usage_errors() {
        let cases = [
            ("--impair", "--impair requires a value"),
            ("--quick --impair", "--impair requires a value"),
            ("--impair --quick", "--impair requires a value"),
            ("--impair bogus:xyz", "--impair \"bogus:xyz\""),
            ("--impair bogus:xyz --impair off", "--impair \"bogus:xyz\""),
            ("--impair cfo:nan", "--impair \"cfo:nan\""),
            ("--impair drift:-1", "--impair \"drift:-1\""),
            ("--cache", "--cache requires a value"),
            ("--cache --quick", "--cache requires a value"),
            ("--quikc", "unknown argument \"--quikc\""),
            ("--quick quick", "unknown argument \"quick\""),
            ("-q", "unknown argument \"-q\""),
        ];
        for (line, want) in cases {
            let err = cli(line).err().unwrap_or_default();
            assert!(err.contains(want), "{line}: {err:?} lacks {want:?}");
        }
        let empty = Cli::from_iter("cli-test", ["--impair".into(), String::new()]);
        assert!(empty.is_err(), "an empty --impair value must be rejected");
    }

    #[test]
    fn bps_formatting() {
        assert_eq!(fmt_bps(5.0e6), "5.00 Mbps");
        assert_eq!(fmt_bps(6.67e6), "6.67 Mbps");
        assert_eq!(fmt_bps(10e3), "10.0 Kbps");
        assert_eq!(fmt_bps(500.0), "500 bps");
    }
}
