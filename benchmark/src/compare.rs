//! `--compare A.json… -- B.json…`: compare two sets of run files (side A,
//! e.g. the parent commit, and side B, the change). Per workload and metric
//! it prints each side's median and quartiles, the fraction of pairs B wins
//! and a verdict against the metric's bound.

use crate::metrics::{self, Better, MetricDef};
use crate::stats;
use backfi_obs::json::{parse, Json};
use std::collections::BTreeMap;
use std::path::PathBuf;

/// workload → metric → values, one per run file.
type Runs = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn load(paths: &[PathBuf]) -> Result<Runs, String> {
    let mut runs = Runs::new();
    for p in paths {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
        let doc = parse(&text).map_err(|e| format!("{}: {e}", p.display()))?;
        let workload = doc
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{}: no workload", p.display()))?;
        let Some(Json::Obj(metrics)) = doc.get("result").and_then(|r| r.get("metrics")) else {
            return Err(format!("{}: no result.metrics", p.display()));
        };
        let entry = runs.entry(workload.to_string()).or_default();
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                entry.entry(name.clone()).or_default().push(v);
            }
        }
    }
    Ok(runs)
}

/// How much worse `y` is than `x`, as a share of `|x|` (negative = better).
fn worsening(def: &MetricDef, x: f64, y: f64) -> f64 {
    let d = match def.better {
        Better::Lower => y - x,
        Better::Higher => x - y,
    };
    d / x.abs()
}

fn b_wins(def: &MetricDef, a: f64, b: f64) -> bool {
    match def.better {
        Better::Lower => b < a,
        Better::Higher => b > a,
    }
}

/// The verdict rule: a regression is a median worse by more than the
/// bound; a spread wider than the bound leaves the metric unresolved unless
/// every B run beats every A run; a gain needs ≥ 9/10 pair wins and a
/// median difference larger than A's own quartile spread.
fn verdict(def: &MetricDef, a: &[f64], b: &[f64], win_frac: f64) -> &'static str {
    let Some(bound) = def.bound else {
        return "-";
    };
    let (am, bm) = (stats::median(a), stats::median(b));
    let all_better = a.iter().all(|&x| b.iter().all(|&y| b_wins(def, x, y)));
    let (q1, q3) = stats::quartiles(a).unwrap_or((am, am));
    if all_better {
        "better"
    } else if worsening(def, am, bm) > bound {
        "REGRESSION"
    } else if (q3 - q1) / am.abs() > bound {
        "unresolved"
    } else if win_frac >= 0.9 && (bm - am).abs() > q3 - q1 {
        "better"
    } else {
        "no change"
    }
}

fn describe(v: &[f64]) -> String {
    match stats::quartiles(v) {
        Some((q1, q3)) => format!("{:.4} [{:.4}, {:.4}]", stats::median(v), q1, q3),
        None => format!("{:.4}", stats::median(v)),
    }
}

/// Print the comparison; `Err` on unreadable input, `Ok(true)` when no
/// end-to-end metric regressed.
pub fn run(a: &[PathBuf], b: &[PathBuf]) -> Result<bool, String> {
    let (ra, rb) = (load(a)?, load(b)?);
    let mut clean = true;
    println!(
        "{:<14} {:<26} {:>36} {:>36} {:>5} verdict",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "wins"
    );
    for (workload, ma) in &ra {
        let Some(mb) = rb.get(workload) else { continue };
        for def in metrics::END_TO_END.iter().chain(metrics::PER_LAYER.iter()) {
            let (Some(av), Some(bv)) = (ma.get(def.name), mb.get(def.name)) else {
                continue;
            };
            let pairs = av.len().min(bv.len());
            let wins = (0..pairs).filter(|&i| b_wins(def, av[i], bv[i])).count();
            let win_frac = wins as f64 / pairs.max(1) as f64;
            let v = verdict(def, av, bv, win_frac);
            clean &= v != "REGRESSION";
            println!(
                "{workload:<14} {:<26} {:>36} {:>36} {:>5.2} {v}",
                format!("{} ({})", def.name, def.unit),
                describe(av),
                describe(bv),
                win_frac
            );
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(name: &str) -> &'static MetricDef {
        metrics::def(name).unwrap()
    }

    #[test]
    fn verdicts_follow_the_bound_and_direction() {
        let ops = def("ops_per_s");
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        assert_eq!(
            verdict(ops, &a, &[70.0, 71.0, 69.0, 70.0, 70.5], 0.0),
            "REGRESSION"
        );
        assert_eq!(
            verdict(ops, &a, &[99.0, 101.5, 100.0, 99.8, 100.2], 0.4),
            "no change"
        );
        assert_eq!(
            verdict(ops, &a, &[120.0, 121.0, 119.0, 120.0, 122.0], 1.0),
            "better"
        );
        let setup = def("setup_s");
        assert_eq!(
            verdict(setup, &[10.0, 10.1, 9.9], &[13.0, 13.1, 12.9], 0.0),
            "REGRESSION"
        );
        let noisy = [50.0, 100.0, 150.0, 75.0, 125.0];
        assert_eq!(
            verdict(ops, &noisy, &[95.0, 105.0, 100.0], 0.5),
            "unresolved"
        );
        assert_eq!(verdict(def("op.traced_mean_us"), &a, &a, 0.0), "-");
    }
}
