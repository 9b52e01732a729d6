//! End-to-end self-test: every workload at 1/50 of its count, in both
//! modes, must print exactly the metrics `BENCHMARK.json` declares, with
//! their units, all finite, and pass its own correctness checks.

use backfi_obs::json::{parse, Json};
use std::path::Path;
use std::process::Command;

const WORKLOADS: [&str; 4] = ["sweep_short", "trial_long", "sweep_faulted", "client_rx"];

fn manifest() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(doc: &Json, section: &str) -> Vec<(String, String)> {
    let mut v: Vec<(String, String)> = doc
        .get(section)
        .and_then(Json::as_arr)
        .expect("metric section")
        .iter()
        .map(|m| {
            let s = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
            (s("name"), s("unit"))
        })
        .collect();
    v.sort();
    v
}

#[test]
fn smoke_runs_emit_exactly_the_declared_metrics() {
    let doc = manifest();
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("workload name"))
        .collect();
    assert_eq!(workloads, WORKLOADS);
    let out_dir = Path::new(env!("CARGO_TARGET_TMPDIR"));
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let want = declared(&doc, section);
        for w in WORKLOADS {
            let out = out_dir.join(format!("smoke-{w}-{trace}.json"));
            let run = Command::new(env!("CARGO_BIN_EXE_backfi-benchmark"))
                .args([
                    "--workload",
                    w,
                    "--seed",
                    "3",
                    "--trace",
                    trace,
                    "--smoke",
                    "--out",
                ])
                .arg(&out)
                .env_remove("BACKFI_OBS")
                .env_remove("BACKFI_TRACE")
                .output()
                .expect("run the benchmark");
            let stdout = String::from_utf8_lossy(&run.stdout);
            assert!(
                run.status.success(),
                "{w} trace {trace} failed:\n{}",
                String::from_utf8_lossy(&run.stderr)
            );
            let line = parse(stdout.lines().last().expect("result line")).expect("JSON result");
            assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
            assert_eq!(line.get("failed").and_then(Json::as_f64), Some(0.0));
            assert!(line.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
            let Some(Json::Obj(metrics)) = line.get("metrics") else {
                panic!("{w}: no metrics object")
            };
            let mut got: Vec<(String, String)> = metrics
                .iter()
                .map(|(name, m)| {
                    let v = m.get("value").and_then(Json::as_f64).expect("value");
                    assert!(v.is_finite(), "{w}: {name} = {v}");
                    (
                        name.clone(),
                        m.get("unit").and_then(Json::as_str).unwrap().to_string(),
                    )
                })
                .collect();
            got.sort();
            assert_eq!(got, want, "{w} trace {trace}");
            assert!(out.exists(), "{w}: run record written to --out");
        }
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [&["--workload", "nope"][..], &["--trace", "2"], &["--bogus"]] {
        let run = Command::new(env!("CARGO_BIN_EXE_backfi-benchmark"))
            .args(args)
            .output()
            .expect("run the benchmark");
        assert_eq!(run.status.code(), Some(2), "{args:?}");
        assert!(run.stdout.is_empty(), "{args:?}");
    }
    let run = Command::new(env!("CARGO_BIN_EXE_backfi-benchmark"))
        .args(["--workload", "client_rx", "--smoke"])
        .env("BACKFI_OBS", "1")
        .output()
        .expect("run the benchmark");
    assert_eq!(run.status.code(), Some(2), "BACKFI_OBS must be refused");
}
