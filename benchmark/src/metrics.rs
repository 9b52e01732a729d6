//! The metric catalogue (mirrored by `BENCHMARK.json`; the smoke test keeps
//! the two identical) and the per-run outcome that carries measured values.

use crate::stats;
use std::collections::BTreeMap;

/// Which direction of change is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// One named metric with its unit, direction and (end-to-end only) the
/// share of the parent's median by which it may worsen.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

/// Reported by the untraced run (`--trace 0`) of every workload.
pub const END_TO_END: [MetricDef; 3] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("ops_per_s", "1/s", Better::Higher, 0.25),
    e2e("success_rate", "fraction", Better::Higher, 0.25),
];

/// Reported by the traced run (`--trace 1`) of every workload. Only layers
/// that every workload exercises are here; the workload-specific stages
/// (SIC, reader, WiFi receiver, ...) are in the run's ledger.
pub const PER_LAYER: [MetricDef; 8] = [
    layer("setup.cold_s", "s", Better::Lower),
    layer("wifi.tx_ns_per_sample", "ns", Better::Lower),
    layer("dsp.fir_ns_per_sample", "ns", Better::Lower),
    layer("dsp.noise_ns_per_sample", "ns", Better::Lower),
    layer("coding.viterbi_ns_per_bit", "ns", Better::Lower),
    layer("op.traced_mean_us", "us", Better::Lower),
    layer("op.traced_tail_us", "us", Better::Lower),
    layer("trace.overhead_frac", "fraction", Better::Lower),
];

/// Look a metric up by name in either table.
pub fn def(name: &str) -> Option<&'static MetricDef> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
}

/// Free-form per-stage numbers for the run's output file: sample series
/// (reported as p50 and count) and scalar values.
#[derive(Default)]
pub struct Ledger {
    series: BTreeMap<String, Vec<f64>>,
    values: BTreeMap<String, f64>,
}

impl Ledger {
    pub fn push(&mut self, name: &str, v: f64) {
        self.series.entry(name.to_string()).or_default().push(v);
    }

    pub fn add(&mut self, name: &str, v: f64) {
        *self.values.entry(name.to_string()).or_default() += v;
    }

    pub fn set(&mut self, name: &str, v: f64) {
        self.values.insert(name.to_string(), v);
    }

    pub fn series(&self, name: &str) -> &[f64] {
        self.series.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    pub fn sum(&self, name: &str) -> f64 {
        self.series(name).iter().sum()
    }

    pub fn value(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// Flatten: every series becomes `<name>.mean` (means add up across
    /// stages), `<name>.p50` and `<name>.n`.
    pub fn entries(&self) -> Vec<(String, f64)> {
        let mut out: Vec<(String, f64)> =
            self.values.iter().map(|(k, v)| (k.clone(), *v)).collect();
        for (k, v) in &self.series {
            out.push((format!("{k}.mean"), v.iter().sum::<f64>() / v.len() as f64));
            out.push((format!("{k}.p50"), stats::median(v)));
            out.push((format!("{k}.n"), v.len() as f64));
        }
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }
}

/// What one workload process measured.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64)>,
    pub ledger: Ledger,
    /// Human-readable descriptions of failed correctness checks.
    pub errors: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, v: f64) {
        debug_assert!(def(name).is_some(), "unknown metric {name}");
        self.metrics.push((name, v));
    }

    pub fn fail(&mut self, ops: u64, why: String) {
        self.failed += ops;
        self.errors.push(why);
    }

    /// `ops_per_s` (the median per-round rate), with the round count and
    /// the rates' quartiles in the ledger.
    pub fn record_rounds(&mut self, rounds: usize, rates: &[f64]) {
        self.metric("ops_per_s", stats::median(rates));
        self.ledger.set("rounds", rounds as f64);
        if let Some((q1, q3)) = stats::quartiles(rates) {
            self.ledger.set("ops_per_s.q1", q1);
            self.ledger.set("ops_per_s.q3", q3);
        }
    }

    /// The traced op's mean and tail wall time, and the tracing overhead:
    /// total traced over total untraced wall of the same ops, minus one.
    pub fn record_traced(&mut self, traced_us: &[f64], untraced_us: &[f64]) {
        let total = |v: &[f64]| v.iter().sum::<f64>();
        self.metric(
            "op.traced_mean_us",
            total(traced_us) / traced_us.len() as f64,
        );
        let tail = stats::tail(traced_us);
        let (p, v) = tail.unwrap_or((100.0, stats::percentile(traced_us, 100.0)));
        self.metric("op.traced_tail_us", v);
        self.ledger.set("op.traced_tail.percentile", p);
        self.ledger.set("op.traced", traced_us.len() as f64);
        self.metric(
            "trace.overhead_frac",
            total(traced_us) / total(untraced_us) - 1.0,
        );
    }

    /// Ledger: p50, p90 and the tail percentile (the highest with at least
    /// ten samples beyond it) of per-op latencies, µs, with the count.
    pub fn record_latency(&mut self, op: &str, lat_us: &[f64]) {
        self.ledger
            .set(&format!("{op}_p50_us"), stats::percentile(lat_us, 50.0));
        self.ledger
            .set(&format!("{op}_p90_us"), stats::percentile(lat_us, 90.0));
        self.ledger.set(&format!("{op}.n"), lat_us.len() as f64);
        if let Some((p, v)) = stats::tail(lat_us) {
            self.ledger.set(&format!("{op}_tail.percentile"), p);
            self.ledger.set(&format!("{op}_tail_us"), v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use backfi_obs::json::{parse, Json};

    /// The catalogue and `BENCHMARK.json` must agree on every name, unit,
    /// direction and bound.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let doc = parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        for (section, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let entries = doc.get(section).and_then(Json::as_arr).unwrap();
            assert_eq!(entries.len(), table.len(), "{section}");
            for (e, d) in entries.iter().zip(table) {
                assert_eq!(e.get("name").and_then(Json::as_str), Some(d.name));
                assert_eq!(e.get("unit").and_then(Json::as_str), Some(d.unit));
                let better = match d.better {
                    Better::Lower => "lower",
                    Better::Higher => "higher",
                };
                assert_eq!(e.get("better").and_then(Json::as_str), Some(better));
                assert_eq!(e.get("bound").and_then(Json::as_f64), d.bound, "{}", d.name);
            }
        }
    }
}
