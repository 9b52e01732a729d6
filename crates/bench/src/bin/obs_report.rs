//! `obs_report` — the automated perf-regression gate.
//!
//! Diffs two `OBS_<run>.json` run manifests and reports per-span p50/p99
//! deltas and counter deltas against configurable thresholds. Prints a
//! human table on stdout, optionally writes a machine-readable verdict
//! (`--json <path>`), and with `--check` exits nonzero when any regression
//! crosses its threshold — the CI gate against the committed baseline
//! manifest.
//!
//! ```text
//! obs_report <baseline.json> <current.json> [options]
//!   --check                  exit 1 if any regression is found
//!   --span-threshold <f>     span p50/p99 regression factor      (default 0.20)
//!   --counter-threshold <f>  allowed relative counter drift      (default 0, exact)
//!   --ignore-spans           compare counters only (machine-speed-independent)
//!   --ignore <prefix>        skip spans/counters with this name prefix
//!   --require-span NAME[:F]  NAME must exist in the current manifest (count
//!                            > 0) even under --ignore-spans; with :F, its
//!                            p50/p99 are additionally gated at regression
//!                            factor F against the baseline. Hot-path spans
//!                            (wifi.rx.batch, sic.digital.train) are wired
//!                            through this in CI so a deleted or
//!                            order-of-magnitude-slower kernel span fails
//!                            the gate even though the machine-speed-
//!                            dependent default span diff stays off.
//!   --json <path>            also write the verdict as JSON
//! ```
//!
//! Exit status: 0 clean (or regressions found without `--check`), 1
//! regressions found under `--check`, 2 usage or input error.
//!
//! A second mode diffs two sweep result-cache stores cell by cell — the
//! gate for a deliberate numerics re-baseline (DESIGN.md §6.1):
//!
//! ```text
//! obs_report --cells <store_a> <store_b> --trials <N> [--check] [--json <path>]
//! ```
//!
//! Both stores are read without being opened for use: records are checked
//! for magic and checksum but not for the code salt (the baseline store
//! comes from another build), and nothing is ever wiped or deleted. Records
//! pair by cache key; differing key sets exit 2. Every cell's Δsuccess,
//! ΔSNR and Δgoodput is printed, then the cells whose `decoded()` verdict
//! flips and those whose |Δsuccess| leaves a 3σ two-proportion band at N
//! trials. `--check` exits 1 when a pooled all-cell quantity (success rate,
//! mean finite SNR, mean goodput) leaves its 4σ band.

use backfi_core::sweep::cache::{read_store, CacheKey};
use backfi_core::sweep::TrialStats;
use backfi_obs::json::{self, Json};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

/// Parsed CLI options.
struct Opts {
    baseline: String,
    current: String,
    check: bool,
    span_threshold: f64,
    counter_threshold: f64,
    ignore_spans: bool,
    ignore: Vec<String>,
    /// Spans that must be present in the current manifest; the factor, when
    /// given, gates their p50/p99 against the baseline even under
    /// `--ignore-spans`.
    require_spans: Vec<(String, Option<f64>)>,
    json_out: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: obs_report <baseline.json> <current.json> [--check] \
         [--span-threshold F] [--counter-threshold F] \
         [--ignore-spans] [--ignore PREFIX]... [--require-span NAME[:F]]... \
         [--json PATH]\n       obs_report --cells <store_a> <store_b> --trials N \
         [--check] [--json PATH]"
    );
    std::process::exit(2);
}

fn parse_opts() -> Opts {
    let mut positional = Vec::new();
    let mut opts = Opts {
        baseline: String::new(),
        current: String::new(),
        check: false,
        span_threshold: 0.20,
        counter_threshold: 0.0,
        ignore_spans: false,
        ignore: Vec::new(),
        require_spans: Vec::new(),
        json_out: None,
    };
    let mut args = std::env::args().skip(1);
    let next_f = |args: &mut dyn Iterator<Item = String>, flag: &str| -> f64 {
        match args.next().and_then(|v| v.parse::<f64>().ok()) {
            Some(v) if v >= 0.0 => v,
            _ => {
                eprintln!("error: {flag} requires a non-negative number");
                usage();
            }
        }
    };
    while let Some(a) = args.next() {
        match a.as_str() {
            "--check" => opts.check = true,
            "--ignore-spans" => opts.ignore_spans = true,
            "--span-threshold" => opts.span_threshold = next_f(&mut args, "--span-threshold"),
            "--counter-threshold" => {
                opts.counter_threshold = next_f(&mut args, "--counter-threshold")
            }
            "--ignore" => match args.next() {
                Some(p) if !p.is_empty() => opts.ignore.push(p),
                _ => usage(),
            },
            "--require-span" => match args.next() {
                Some(spec) if !spec.is_empty() => {
                    let (name, factor) = match spec.split_once(':') {
                        Some((n, f)) => match f.parse::<f64>() {
                            Ok(v) if v >= 0.0 && !n.is_empty() => (n.to_string(), Some(v)),
                            _ => {
                                eprintln!(
                                    "error: --require-span factor must be a \
                                     non-negative number: {spec}"
                                );
                                usage();
                            }
                        },
                        None => (spec, None),
                    };
                    opts.require_spans.push((name, factor));
                }
                _ => usage(),
            },
            "--json" => match args.next() {
                Some(p) if !p.is_empty() => opts.json_out = Some(p),
                _ => usage(),
            },
            _ if a.starts_with("--") => usage(),
            _ => positional.push(a),
        }
    }
    if positional.len() != 2 {
        usage();
    }
    opts.baseline = positional.remove(0);
    opts.current = positional.remove(0);
    opts
}

/// One comparison outcome row.
struct Finding {
    kind: &'static str,
    name: String,
    baseline: f64,
    current: f64,
    /// Relative change, `current/baseline − 1` (`inf` when baseline is 0).
    delta: f64,
    regression: bool,
    note: &'static str,
}

fn rel(baseline: f64, current: f64) -> f64 {
    if baseline == 0.0 {
        if current == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        current / baseline - 1.0
    }
}

fn ignored(name: &str, opts: &Opts) -> bool {
    opts.ignore.iter().any(|p| name.starts_with(p.as_str()))
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn f(v: &Json, key: &str) -> f64 {
    v.get(key).and_then(Json::as_f64).unwrap_or(0.0)
}

fn name_of(v: &Json) -> String {
    v.get("name")
        .and_then(Json::as_str)
        .unwrap_or("<unnamed>")
        .to_string()
}

/// Index an array-of-objects section by its `"name"` member.
fn by_name<'a>(doc: &'a Json, section: &str) -> BTreeMap<String, &'a Json> {
    doc.get(section)
        .and_then(Json::as_arr)
        .map(|arr| arr.iter().map(|v| (name_of(v), v)).collect())
        .unwrap_or_default()
}

/// Compare two OBS manifests: span p50/p99 regressions plus counter
/// drift. Gauges and probes are machine- or wall-clock-shaped; they are not
/// gated here.
fn compare_manifests(base: &Json, cur: &Json, opts: &Opts) -> Vec<Finding> {
    let mut out = Vec::new();
    if !opts.ignore_spans {
        let b = by_name(base, "spans");
        let c = by_name(cur, "spans");
        for (name, bs) in &b {
            if ignored(name, opts) {
                continue;
            }
            let Some(cs) = c.get(name) else {
                if f(bs, "count") > 0.0 {
                    out.push(Finding {
                        kind: "span",
                        name: name.clone(),
                        baseline: f(bs, "count"),
                        current: 0.0,
                        delta: -1.0,
                        regression: true,
                        note: "span missing from current run",
                    });
                }
                continue;
            };
            for (metric, key) in [("p50_ns", "p50_ns"), ("p99_ns", "p99_ns")] {
                let bv = f(bs, key);
                let cv = f(cs, key);
                let delta = rel(bv, cv);
                let regression = bv > 0.0 && cv > bv * (1.0 + opts.span_threshold);
                if regression || delta.abs() > opts.span_threshold {
                    out.push(Finding {
                        kind: "span",
                        name: format!("{name}.{metric}"),
                        baseline: bv,
                        current: cv,
                        delta,
                        regression,
                        note: if regression {
                            "slower than threshold"
                        } else {
                            ""
                        },
                    });
                }
            }
        }
        for name in c.keys() {
            if !b.contains_key(name) && !ignored(name, opts) {
                out.push(Finding {
                    kind: "span",
                    name: name.clone(),
                    baseline: 0.0,
                    current: f(c[name], "count"),
                    delta: f64::INFINITY,
                    regression: false,
                    note: "new span (not in baseline)",
                });
            }
        }
    }
    // Required hot-path spans: presence is machine-speed-independent, so it
    // is enforced even under --ignore-spans; the optional factor bounds
    // p50/p99 against the baseline loosely enough to survive machine skew
    // while still catching an order-of-magnitude kernel blow-up.
    let bspans = by_name(base, "spans");
    let cspans = by_name(cur, "spans");
    for (name, factor) in &opts.require_spans {
        let Some(cs) = cspans.get(name).filter(|s| f(s, "count") > 0.0) else {
            out.push(Finding {
                kind: "span",
                name: name.clone(),
                baseline: bspans.get(name).map(|s| f(s, "count")).unwrap_or(0.0),
                current: 0.0,
                delta: -1.0,
                regression: true,
                note: "required span missing from current run",
            });
            continue;
        };
        let (Some(factor), Some(bs)) = (factor, bspans.get(name)) else {
            continue;
        };
        for key in ["p50_ns", "p99_ns"] {
            let bv = f(bs, key);
            let cv = f(cs, key);
            if bv > 0.0 && cv > bv * (1.0 + factor) {
                out.push(Finding {
                    kind: "span",
                    name: format!("{name}.{key}"),
                    baseline: bv,
                    current: cv,
                    delta: rel(bv, cv),
                    regression: true,
                    note: "required span slower than its factor",
                });
            }
        }
    }
    let b = by_name(base, "counters");
    let c = by_name(cur, "counters");
    let mut names: Vec<&String> = b.keys().chain(c.keys()).collect();
    names.sort();
    names.dedup();
    for name in names {
        if ignored(name, opts) {
            continue;
        }
        let bv = b.get(name).map(|v| f(v, "value")).unwrap_or(0.0);
        let cv = c.get(name).map(|v| f(v, "value")).unwrap_or(0.0);
        if bv == cv {
            continue;
        }
        let delta = rel(bv, cv);
        let regression = delta.abs() > opts.counter_threshold;
        out.push(Finding {
            kind: "counter",
            name: name.clone(),
            baseline: bv,
            current: cv,
            delta,
            regression,
            note: if regression { "counter drift" } else { "" },
        });
    }
    out
}

fn verdict_json(findings: &[Finding], regressions: usize) -> String {
    let mut s = String::from("{\n  \"findings\": [");
    for (i, fd) in findings.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "\n    {{\"kind\": \"{}\", \"name\": \"{}\", \"baseline\": {}, \
             \"current\": {}, \"delta\": {}, \"regression\": {}, \"note\": \"{}\"}}",
            json::escape(fd.kind),
            json::escape(&fd.name),
            json::num(fd.baseline),
            json::num(fd.current),
            json::num(fd.delta),
            fd.regression,
            json::escape(fd.note),
        ));
    }
    if !findings.is_empty() {
        s.push_str("\n  ");
    }
    s.push_str(&format!("],\n  \"regressions\": {regressions}\n}}\n"));
    s
}

// ------------------------------------------------------------ cell diff ---

/// Per-cell band: a cell has moved when |Δsuccess| exceeds this many
/// standard errors of a two-proportion difference at N trials per store.
const CELL_SIGMAS: f64 = 3.0;
/// Pooled band: `--check` fails when an all-cell mean difference exceeds
/// this many standard errors. Three pooled tests at 4σ keep the chance of a
/// false alarm between two equivalent generators below 0.02 %.
const POOLED_SIGMAS: f64 = 4.0;

/// Parsed `--cells` options.
struct CellOpts {
    a: String,
    b: String,
    trials: usize,
    check: bool,
    json_out: Option<String>,
}

fn cells_usage() -> ! {
    eprintln!("usage: obs_report --cells <store_a> <store_b> --trials N [--check] [--json PATH]");
    std::process::exit(2);
}

fn parse_cell_opts(mut args: impl Iterator<Item = String>) -> CellOpts {
    let (mut positional, mut trials, mut check, mut json_out) = (Vec::new(), None, false, None);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--check" => check = true,
            "--trials" => match args.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n > 0 => trials = Some(n),
                _ => {
                    eprintln!("error: --trials requires a positive integer");
                    cells_usage();
                }
            },
            "--json" => match args.next() {
                Some(p) if !p.is_empty() => json_out = Some(p),
                _ => cells_usage(),
            },
            _ if a.starts_with("--") => cells_usage(),
            _ => positional.push(a),
        }
    }
    let (Some(trials), [a, b]) = (trials, positional.as_slice()) else {
        cells_usage();
    };
    CellOpts {
        a: a.clone(),
        b: b.clone(),
        trials,
        check,
        json_out,
    }
}

/// One paired cell.
struct CellDiff<'s> {
    key: CacheKey,
    a: &'s TrialStats,
    b: &'s TrialStats,
    flipped: bool,
    outside_band: bool,
}

/// One pooled all-cell quantity with its band.
struct Pooled {
    name: &'static str,
    a: f64,
    b: f64,
    /// `POOLED_SIGMAS` standard errors of the mean difference.
    band: f64,
}

impl Pooled {
    fn pass(&self) -> bool {
        (self.b - self.a).abs() <= self.band
    }
}

/// Pooled mean difference of a per-cell quantity whose per-trial variance
/// the store does not keep: the standard error comes from the spread of
/// the paired per-cell differences.
fn pooled_paired(name: &'static str, pairs: &[(f64, f64)]) -> Pooled {
    let m = pairs.len().max(1) as f64;
    let mean = |f: fn(&(f64, f64)) -> f64| pairs.iter().map(f).sum::<f64>() / m;
    let (a, b) = (mean(|p| p.0), mean(|p| p.1));
    let var = pairs
        .iter()
        .map(|p| (p.1 - p.0 - (b - a)).powi(2))
        .sum::<f64>()
        / (m - 1.0).max(1.0);
    Pooled {
        name,
        a,
        b,
        band: POOLED_SIGMAS * (var / m).sqrt(),
    }
}

fn compare_cells<'s>(
    a: &'s BTreeMap<CacheKey, TrialStats>,
    b: &'s BTreeMap<CacheKey, TrialStats>,
    trials: usize,
) -> (Vec<CellDiff<'s>>, Vec<Pooled>) {
    let n = trials as f64;
    let cells: Vec<CellDiff> = a
        .iter()
        .map(|(key, sa)| {
            let sb = &b[key];
            let p = (sa.success_rate + sb.success_rate) / 2.0;
            let sigma = (2.0 * p * (1.0 - p) / n).sqrt();
            CellDiff {
                key: *key,
                a: sa,
                b: sb,
                flipped: sa.decoded() != sb.decoded(),
                outside_band: (sb.success_rate - sa.success_rate).abs() > CELL_SIGMAS * sigma,
            }
        })
        .collect();
    let m = cells.len().max(1) as f64;
    // Success is binomial per cell, so its pooled variance is known exactly.
    let success = Pooled {
        name: "success_rate",
        a: cells.iter().map(|c| c.a.success_rate).sum::<f64>() / m,
        b: cells.iter().map(|c| c.b.success_rate).sum::<f64>() / m,
        band: POOLED_SIGMAS
            * cells
                .iter()
                .map(|c| {
                    let p = (c.a.success_rate + c.b.success_rate) / 2.0;
                    2.0 * p * (1.0 - p) / n
                })
                .sum::<f64>()
                .sqrt()
            / m,
    };
    let snr: Vec<(f64, f64)> = cells
        .iter()
        .map(|c| (c.a.mean_snr_db, c.b.mean_snr_db))
        .filter(|p| p.0.is_finite() && p.1.is_finite())
        .collect();
    let goodput: Vec<(f64, f64)> = cells
        .iter()
        .map(|c| (c.a.mean_goodput_bps, c.b.mean_goodput_bps))
        .collect();
    let pooled = vec![
        success,
        pooled_paired("mean_snr_db", &snr),
        pooled_paired("mean_goodput_bps", &goodput),
    ];
    (cells, pooled)
}

fn cell_label(c: &CellDiff) -> String {
    format!(
        "{}  {:<22} {:>3.0}us",
        c.key,
        c.a.config.label(),
        c.a.config.preamble_us
    )
}

fn cells_json(
    opts: &CellOpts,
    n_cells: usize,
    lists: [&[&CellDiff]; 2],
    pooled: &[Pooled],
    moved: usize,
) -> String {
    let [flips, out_band] = lists.map(|hits| {
        hits.iter()
            .map(|c| {
                format!(
                    "\n    {{\"key\": \"{}\", \"config\": \"{}\", \"success_a\": {}, \
                     \"success_b\": {}}}",
                    c.key,
                    json::escape(&c.a.config.label()),
                    json::num(c.a.success_rate),
                    json::num(c.b.success_rate)
                )
            })
            .collect::<Vec<_>>()
            .join(",")
    });
    let pooled_rows = pooled
        .iter()
        .map(|p| {
            format!(
                "\n    {{\"name\": \"{}\", \"a\": {}, \"b\": {}, \"delta\": {}, \
                 \"band\": {}, \"pass\": {}}}",
                p.name,
                json::num(p.a),
                json::num(p.b),
                json::num(p.b - p.a),
                json::num(p.band),
                p.pass()
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    format!(
        "{{\n  \"store_a\": \"{}\",\n  \"store_b\": \"{}\",\n  \"trials\": {},\n  \
         \"cells\": {n_cells},\n  \"moved\": {moved},\n  \"flipped\": [{flips}],\n  \
         \"outside_band\": [{out_band}],\n  \"pooled\": [{pooled_rows}]\n}}\n",
        json::escape(&opts.a),
        json::escape(&opts.b),
        opts.trials,
    )
}

/// `obs_report --cells`: see the module docs.
fn run_cells(opts: &CellOpts) -> ExitCode {
    let (a, b) = match (
        read_store(Path::new(&opts.a)),
        read_store(Path::new(&opts.b)),
    ) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) => {
            eprintln!("error: {}: {e}", opts.a);
            return ExitCode::from(2);
        }
        (_, Err(e)) => {
            eprintln!("error: {}: {e}", opts.b);
            return ExitCode::from(2);
        }
    };
    let only_a = a.keys().filter(|k| !b.contains_key(k)).count();
    let only_b = b.keys().filter(|k| !a.contains_key(k)).count();
    if only_a + only_b > 0 || a.is_empty() {
        eprintln!(
            "error: stores do not hold the same cells ({} paired, {only_a} only in A, \
             {only_b} only in B)",
            a.len() - only_a
        );
        return ExitCode::from(2);
    }
    let (cells, pooled) = compare_cells(&a, &b, opts.trials);
    let moved = cells.iter().filter(|c| c.flipped || c.outside_band).count();

    println!("obs_report --cells: A = {}, B = {}", opts.a, opts.b);
    println!(
        "{} paired cells, {} trials per cell; a cell has moved when its decoded() verdict \
         flips or |Δsuccess| > {CELL_SIGMAS}σ, σ = √(2p̄(1−p̄)/N)",
        cells.len(),
        opts.trials
    );
    println!();
    println!(
        "{:<32}  {:<22} {:>5}  {:>6} {:>6} {:>7}  {:>7} {:>7} {:>7}  {:>8} {:>8} {:>8}  flags",
        "cell key",
        "config",
        "pre",
        "succ A",
        "succ B",
        "Δsucc",
        "SNR A",
        "SNR B",
        "ΔSNR",
        "Mbps A",
        "Mbps B",
        "ΔMbps"
    );
    for c in &cells {
        let flags = match (c.flipped, c.outside_band) {
            (true, true) => "FLIP BAND",
            (true, false) => "FLIP",
            (false, true) => "BAND",
            (false, false) => "",
        };
        let (ga, gb) = (c.a.mean_goodput_bps / 1e6, c.b.mean_goodput_bps / 1e6);
        println!(
            "{}  {:>6.2} {:>6.2} {:>+7.2}  {:>7.2} {:>7.2} {:>+7.2}  {:>8.3} {:>8.3} {:>+8.3}  {flags}",
            cell_label(c),
            c.a.success_rate,
            c.b.success_rate,
            c.b.success_rate - c.a.success_rate,
            c.a.mean_snr_db,
            c.b.mean_snr_db,
            c.b.mean_snr_db - c.a.mean_snr_db,
            ga,
            gb,
            gb - ga,
        );
    }
    let flips: Vec<&CellDiff> = cells.iter().filter(|c| c.flipped).collect();
    let out_band: Vec<&CellDiff> = cells.iter().filter(|c| c.outside_band).collect();
    for (title, hits) in [
        ("decoded() verdict flips", &flips),
        ("|Δsuccess| outside the 3σ band", &out_band),
    ] {
        println!();
        println!("{title}: {}", hits.len());
        for c in hits {
            println!(
                "  {}  success {:.2} -> {:.2}",
                cell_label(c),
                c.a.success_rate,
                c.b.success_rate
            );
        }
    }
    println!();
    println!("pooled over all cells (band = {POOLED_SIGMAS}σ of the mean difference):");
    for p in &pooled {
        println!(
            "  {:<17} A {:>14.4}  B {:>14.4}  Δ {:>+12.4}  band ±{:<12.4} {}",
            p.name,
            p.a,
            p.b,
            p.b - p.a,
            p.band,
            if p.pass() { "ok" } else { "OUT OF BAND" }
        );
    }
    let failed = pooled.iter().filter(|p| !p.pass()).count();
    println!("moved cells: {moved}; pooled quantities out of band: {failed}");
    if let Some(path) = &opts.json_out {
        let doc = cells_json(opts, cells.len(), [&flips, &out_band], &pooled, moved);
        if let Err(e) = std::fs::write(path, doc) {
            eprintln!("error: --json {path}: {e}");
            return ExitCode::from(2);
        }
    }
    if opts.check && failed > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some("--cells") {
        return run_cells(&parse_cell_opts(std::env::args().skip(2)));
    }
    let opts = parse_opts();
    let (base, cur) = match (load(&opts.baseline), load(&opts.current)) {
        (Ok(b), Ok(c)) => (b, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let findings = compare_manifests(&base, &cur, &opts);
    let regressions = findings.iter().filter(|fd| fd.regression).count();

    println!("obs_report: {} vs {}", opts.baseline, opts.current);
    if findings.is_empty() {
        println!("no deltas beyond thresholds; {regressions} regression(s)");
    } else {
        println!(
            "{:<9} {:<44} {:>14} {:>14} {:>9}  note",
            "kind", "name", "baseline", "current", "delta"
        );
        for fd in &findings {
            let flag = if fd.regression { "REGRESSION " } else { "" };
            println!(
                "{:<9} {:<44} {:>14.1} {:>14.1} {:>8.1}%  {}{}",
                fd.kind,
                fd.name,
                fd.baseline,
                fd.current,
                fd.delta * 100.0,
                flag,
                fd.note,
            );
        }
        println!(
            "{} finding(s), {} regression(s)",
            findings.len(),
            regressions
        );
    }
    if let Some(path) = &opts.json_out {
        let doc = verdict_json(&findings, regressions);
        if let Err(e) = std::fs::write(path, doc) {
            eprintln!("error: --json {path}: {e}");
            return ExitCode::from(2);
        }
    }
    if opts.check && regressions > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
