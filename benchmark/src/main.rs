//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--out FILE] [--smoke]
//! cargo run --release --manifest-path benchmark/Cargo.toml -- --compare A.json… -- B.json…
//! ```
//!
//! One process runs one workload. `--trace 0` is the untraced run and
//! prints the end-to-end metrics; `--trace 1` is the traced run and prints
//! the per-layer metrics; without `--trace` the process does both, one after
//! the other. Without `--workload` the program re-executes itself once per
//! workload, one after another. The last line of stdout is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; the full run record
//! (metadata, metrics and the per-stage ledger) goes to `--out`, by default
//! a file under `benchmark/out/`. See `benchmark/README.md`.

mod client;
mod compare;
mod json;
mod link;
mod metrics;
mod plan;
mod stats;

use json::{obj, Value};
use metrics::Outcome;
use plan::Plan;
use std::path::{Path, PathBuf};
use std::process::{exit, Command, Stdio};
use std::time::Instant;

/// Every workload, in the order a default invocation runs them.
const WORKLOADS: [&str; 4] = ["sweep_short", "trial_long", "sweep_faulted", "client_rx"];

const USAGE: &str = "usage: backfi-benchmark [--workload NAME] [--seed N] [--seconds S] \
[--trace 0|1] [--out FILE] [--smoke]\n       backfi-benchmark --compare A.json... -- B.json...\n\
workloads: sweep_short, trial_long, sweep_faulted, client_rx";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    out: Option<PathBuf>,
    smoke: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 20.0,
        trace: None,
        out: None,
        smoke: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload {w:?}"));
                }
                args.workload = Some(w.clone());
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
                args.seconds = s;
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                })
            }
            "--out" => args.out = Some(PathBuf::from(value()?)),
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--compare") {
        let rest = &argv[1..];
        let split = rest.iter().position(|a| a == "--");
        let Some(split) = split.filter(|&i| i > 0 && i + 1 < rest.len()) else {
            eprintln!("{USAGE}");
            exit(2);
        };
        let side = |s: &[String]| s.iter().map(PathBuf::from).collect::<Vec<_>>();
        match compare::run(&side(&rest[..split]), &side(&rest[split + 1..])) {
            Ok(clean) => exit(if clean { 0 } else { 1 }),
            Err(e) => {
                eprintln!("error: {e}");
                exit(2);
            }
        }
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            exit(2);
        }
    };
    // The obs layer and the event tracer change what the pipeline does
    // (probes, spans, extra passes); a measurement with them on is not a
    // measurement of the program users run.
    for var in ["BACKFI_OBS", "BACKFI_TRACE"] {
        if std::env::var_os(var).is_some() {
            eprintln!("error: {var} is set; unset it to benchmark");
            exit(2);
        }
    }
    exit(match &args.workload {
        Some(w) => run_one(w, &args),
        None => run_all(&args),
    })
}

fn default_out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn run_one(workload: &str, args: &Args) -> i32 {
    let plan = Plan {
        seed: args.seed,
        seconds: args.seconds,
        smoke: args.smoke,
    };
    let (e2e, layer) = match args.trace {
        Some(traced) => (!traced, traced),
        None => (true, true),
    };
    let t0 = Instant::now();
    let mut outcome = match workload {
        "sweep_short" => link::run_sweep(&plan, false, e2e, layer),
        "sweep_faulted" => link::run_sweep(&plan, true, e2e, layer),
        "trial_long" => link::run_long(&plan, e2e, layer),
        "client_rx" => client::run(&plan, e2e, layer),
        _ => unreachable!("workload names are validated by parse_args"),
    };
    let elapsed_s = t0.elapsed().as_secs_f64();
    for (name, v) in &outcome.metrics {
        if !v.is_finite() {
            outcome
                .errors
                .push(format!("metric {name} is not finite ({v})"));
        }
    }
    let correct = outcome.failed == 0 && outcome.errors.is_empty();
    let result = result_value(&outcome, correct);

    let mode = match args.trace {
        Some(true) => "trace1",
        Some(false) => "trace0",
        None => "both",
    };
    let path = args.out.clone().unwrap_or_else(|| {
        default_out_dir().join(format!("{workload}-seed{}-{mode}.json", args.seed))
    });
    let record = obj([
        ("workload", Value::Str(workload.into())),
        ("seed", Value::Int(args.seed)),
        ("seconds", Value::Num(args.seconds)),
        ("trace", Value::Str(mode.into())),
        ("smoke", Value::Bool(args.smoke)),
        ("elapsed_s", Value::Num(elapsed_s)),
        ("meta", meta()),
        ("result", result.clone()),
        ("ledger", ledger_value(&outcome)),
        (
            "errors",
            Value::Arr(
                outcome
                    .errors
                    .iter()
                    .map(|e| Value::Str(e.clone()))
                    .collect(),
            ),
        ),
    ]);
    let write = record.render().and_then(|text| {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::write(&path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))
    });
    if let Err(e) = write {
        eprintln!("error: run record not written: {e}");
    }

    eprintln!("# {workload} seed={} {mode} in {elapsed_s:.1} s", args.seed);
    for (k, v) in outcome.ledger.entries() {
        eprintln!("#   {k:<34} {v:.6}");
    }
    for e in outcome.errors.iter().take(20) {
        eprintln!("# FAILED: {e}");
    }
    match result.render() {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    }
    if correct {
        0
    } else {
        1
    }
}

/// `{"correct", "attempted", "failed", "metrics"}` — non-finite metrics are
/// left out (and have already made the run incorrect).
fn result_value(o: &Outcome, correct: bool) -> Value {
    let metrics = o
        .metrics
        .iter()
        .filter(|(_, v)| v.is_finite())
        .map(|&(name, v)| {
            let unit = metrics::def(name).map(|d| d.unit).unwrap_or("");
            (
                name,
                obj([("value", Value::Num(v)), ("unit", Value::Str(unit.into()))]),
            )
        });
    obj([
        ("correct", Value::Bool(correct)),
        ("attempted", Value::Int(o.attempted.max(1))),
        ("failed", Value::Int(o.failed)),
        ("metrics", obj(metrics)),
    ])
}

/// The ledger, with unmeasured (non-finite) entries as `null`.
fn ledger_value(o: &Outcome) -> Value {
    obj(o.ledger.entries().into_iter().map(|(k, v)| {
        (
            k,
            if v.is_finite() {
                Value::Num(v)
            } else {
                Value::Null
            },
        )
    }))
}

fn meta() -> Value {
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    obj([
        (
            "backfi_simd",
            Value::Str(std::env::var("BACKFI_SIMD").unwrap_or_else(|_| "auto".into())),
        ),
        ("nproc", Value::Int(nproc as u64)),
        ("threads", Value::Int(plan::threads() as u64)),
        ("git_rev", Value::Str(git_rev())),
        ("rustc", Value::Str(rustc_version())),
        ("arch", Value::Str(std::env::consts::ARCH.into())),
    ])
}

/// The checkout's commit, read from `.git` without running git (a source
/// export has no `.git`: "unknown").
fn git_rev() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return head.into();
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(name)) {
        return rev.trim().into();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(name))
                .and_then(|l| l.split_whitespace().next().map(String::from))
        })
        .unwrap_or_else(|| name.into())
}

fn rustc_version() -> String {
    Command::new(std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into()))
        .arg("--version")
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Re-execute this program once per workload, one after another, each in a
/// fresh process; fold their result lines into one.
fn run_all(args: &Args) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: cannot locate own executable: {e}");
            return 2;
        }
    };
    let mut all_correct = true;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut merged = Vec::new();
    for w in WORKLOADS {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        if let Some(t) = args.trace {
            cmd.args(["--trace", if t { "1" } else { "0" }]);
        }
        if args.smoke {
            cmd.arg("--smoke");
        }
        if let Some(dir) = &args.out {
            cmd.arg("--out").arg(dir.join(format!("{w}.json")));
        }
        let output = match cmd.output() {
            Ok(o) => o,
            Err(e) => {
                eprintln!("error: {w}: {e}");
                return 2;
            }
        };
        let stdout = String::from_utf8_lossy(&output.stdout);
        let last = stdout.lines().last().unwrap_or("");
        let Ok(doc) = backfi_obs::json::parse(last) else {
            eprintln!("error: {w}: no result line");
            return 1;
        };
        all_correct &= output.status.success()
            && doc.get("correct") == Some(&backfi_obs::json::Json::Bool(true));
        let num = |k: &str| doc.get(k).and_then(|v| v.as_f64()).unwrap_or(0.0) as u64;
        attempted += num("attempted");
        failed += num("failed");
        if let Some(backfi_obs::json::Json::Obj(m)) = doc.get("metrics") {
            for (name, v) in m {
                let value = v.get("value").and_then(|x| x.as_f64()).unwrap_or(f64::NAN);
                let unit = v.get("unit").and_then(|x| x.as_str()).unwrap_or("");
                eprintln!("{w:<14} {name:<28} {value:>16.6} {unit}");
                merged.push((
                    format!("{w}/{name}"),
                    obj([
                        ("value", Value::Num(value)),
                        ("unit", Value::Str(unit.into())),
                    ]),
                ));
            }
        }
    }
    let line = obj([
        ("correct", Value::Bool(all_correct)),
        ("attempted", Value::Int(attempted.max(1))),
        ("failed", Value::Int(failed)),
        ("metrics", obj(merged)),
    ]);
    match line.render() {
        Ok(l) => println!("{l}"),
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    }
    if all_correct {
        0
    } else {
        1
    }
}
