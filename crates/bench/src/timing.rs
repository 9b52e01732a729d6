//! Minimal wall-clock measurement for the bench targets and figure binaries.
//!
//! Instrumentation output goes to **stderr** so the figure tables on stdout
//! stay byte-identical across runs and thread counts (they are diffed by the
//! reproduction harness); only the timing lines vary run to run.

use backfi_obs::json::escape;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Time `iters` calls of `f` after one warm-up call; returns ns/iter.
///
/// The measurement core behind [`BenchReport::measure`].
///
/// # Panics
/// Panics when `iters == 0`: a zero-iteration call would time nothing and
/// silently report ~0 ns/iter — a bogus trajectory point that perf diffs
/// would read as an infinite speedup.
pub fn time_ns<F: FnMut()>(iters: u32, mut f: F) -> f64 {
    assert!(iters >= 1, "time_ns: iters must be >= 1 (got 0)");
    f(); // warm-up: touch caches, fault pages, fill planners
    let t0 = Instant::now();
    for _ in 0..iters {
        f();
    }
    t0.elapsed().as_nanos() as f64 / f64::from(iters)
}

/// Wall time one calibrated timing batch must span. Short enough that a
/// handful of repeats per point keeps the bench under a second, long enough
/// that a scheduler preemption mid-batch is amortized instead of doubling
/// the reading.
const MIN_BATCH_WALL: Duration = Duration::from_millis(20);

/// Calibrated batches timed per point; the fastest batch is reported.
const CALIBRATION_REPEATS: u32 = 5;

/// Robust ns/iter with min-wall-time calibration: grow the iteration count
/// until one timed batch spans `MIN_BATCH_WALL` (20 ms), then time
/// `CALIBRATION_REPEATS` (5) such batches and report the **fastest** batch.
/// On a shared machine, preemption and frequency excursions only ever make a
/// batch slower, never faster, so the minimum is the noise-rejecting
/// estimator — a fixed `iters: 10` reading of a multi-millisecond point
/// swings ±50% run to run; the calibrated minimum is stable to a few
/// percent. Returns `(ns_per_iter, total_iters_timed)`.
pub fn time_ns_min_wall<F: FnMut()>(mut f: F) -> (f64, u32) {
    f(); // warm-up: touch caches, fault pages, fill planners
         // Calibrate: grow the batch geometrically until it spans the target.
    let mut iters: u32 = 1;
    let mut best = loop {
        let t0 = Instant::now();
        for _ in 0..iters {
            f();
        }
        let dt = t0.elapsed();
        if dt >= MIN_BATCH_WALL || iters >= 1 << 26 {
            break dt.as_nanos() as f64 / f64::from(iters);
        }
        // Project the batch size that would span the target (with 20%
        // headroom), growing at least 2x and at most 16x per step.
        let grow = (MIN_BATCH_WALL.as_nanos() as f64 / dt.as_nanos().max(1) as f64) * 1.2;
        iters = (f64::from(iters) * grow.clamp(2.0, 16.0)).ceil() as u32;
    };
    // The calibrated batch above is the first measurement; time the rest.
    let mut total_iters = iters;
    for _ in 1..CALIBRATION_REPEATS {
        let t0 = Instant::now();
        for _ in 0..iters {
            f();
        }
        let batch = t0.elapsed().as_nanos() as f64 / f64::from(iters);
        if batch < best {
            best = batch;
        }
        total_iters += iters;
    }
    (best, total_iters)
}

// ------------------------------------------------------- perf trajectory ---

/// One measured kernel point for the machine-readable perf trajectory.
#[derive(Clone, Debug)]
pub struct BenchRecord {
    /// Unique point name, e.g. `fir_filter_direct_n82900_l2`.
    pub name: String,
    /// Kernel family, e.g. `fir_filter`, `xcorr_normalized`, `estimate_fir`.
    pub kernel: String,
    /// Signal length (samples) of the measured problem.
    pub n: usize,
    /// Kernel length (taps / template samples); 0 when not applicable.
    pub l: usize,
    /// Which implementation ran, e.g. `direct` (the test oracle), `toeplitz`,
    /// or `auto` (the production entry point).
    pub path: String,
    /// Measured nanoseconds per iteration.
    pub ns_per_iter: f64,
    /// Input samples processed per second at that rate.
    pub samples_per_sec: f64,
    /// Iterations timed.
    pub iters: u32,
}

/// Collects [`BenchRecord`]s and writes one `BENCH_<name>.json` at the repo
/// root — the machine-readable perf trajectory that later PRs diff against
/// (the CI bench smoke job uploads these as artifacts).
pub struct BenchReport {
    bench: String,
    mode: String,
    records: Vec<BenchRecord>,
}

/// Format an `f64` as a JSON number (JSON has no NaN/∞; clamp those to 0).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3}")
    } else {
        "0".to_string()
    }
}

impl BenchReport {
    /// Start a report for bench target `bench` (e.g. `kernels`)
    /// running in `mode` (`short` for CI smoke runs, `full` otherwise).
    pub fn new(bench: &str, mode: &str) -> Self {
        BenchReport {
            bench: bench.to_string(),
            mode: mode.to_string(),
            records: Vec::new(),
        }
    }

    /// True when the bench args request the CI smoke run (`--short`).
    pub fn short_mode() -> bool {
        std::env::args().any(|a| a == "--short")
    }

    /// Time `iters` calls of `f`, print the usual stdout line, and record the
    /// point. `n`/`l` describe the problem size; `samples` is how many input
    /// samples one iteration processes (for the samples/sec column).
    #[allow(clippy::too_many_arguments)]
    pub fn measure<F: FnMut()>(
        &mut self,
        kernel: &str,
        path: &str,
        n: usize,
        l: usize,
        samples: usize,
        iters: u32,
        f: F,
    ) -> f64 {
        let ns = time_ns(iters, f);
        self.record(kernel, path, n, l, samples, ns, iters)
    }

    /// Like [`BenchReport::measure`], but with min-wall-time iteration
    /// calibration ([`time_ns_min_wall`]): the point runs for at least
    /// `CALIBRATION_REPEATS ×` the minimum batch wall time and records the
    /// fastest batch. The recorded `iters` is the total number of timed
    /// iterations, so the JSON schema is unchanged and zero-iteration records
    /// remain impossible.
    pub fn measure_calibrated<F: FnMut()>(
        &mut self,
        kernel: &str,
        path: &str,
        n: usize,
        l: usize,
        samples: usize,
        f: F,
    ) -> f64 {
        let (ns, iters) = time_ns_min_wall(f);
        self.record(kernel, path, n, l, samples, ns, iters)
    }

    /// Name the point `<kernel>_<path>_n<n>[_l<l>]`, print its stdout line
    /// and record it; returns `ns`.
    #[allow(clippy::too_many_arguments)]
    fn record(
        &mut self,
        kernel: &str,
        path: &str,
        n: usize,
        l: usize,
        samples: usize,
        ns: f64,
        iters: u32,
    ) -> f64 {
        let name = if l > 0 {
            format!("{kernel}_{path}_n{n}_l{l}")
        } else {
            format!("{kernel}_{path}_n{n}")
        };
        println!("{name:<36} {:>12} ns/iter ({iters} iters)", ns as u128);
        self.records.push(BenchRecord {
            name,
            kernel: kernel.to_string(),
            n,
            l,
            path: path.to_string(),
            ns_per_iter: ns,
            samples_per_sec: samples as f64 / (ns * 1e-9).max(1e-12),
            iters,
        });
        ns
    }

    /// The points measured so far (for speedup assertions in the benches).
    pub fn records(&self) -> &[BenchRecord] {
        &self.records
    }

    /// The workspace root (two levels up from the `backfi-bench` manifest),
    /// where the `BENCH_*.json` trajectory files live.
    pub fn repo_root() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
    }

    /// Serialize to `BENCH_<bench>.json` at the repo root. Returns the path
    /// written. Panics on I/O failure — a bench that cannot record its
    /// trajectory should fail loudly in CI.
    pub fn write(&self) -> PathBuf {
        assert!(
            !self.records.is_empty(),
            "BenchReport::write: no records measured"
        );
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str(&format!("  \"bench\": \"{}\",\n", escape(&self.bench)));
        s.push_str(&format!("  \"mode\": \"{}\",\n", escape(&self.mode)));
        s.push_str("  \"records\": [\n");
        for (i, r) in self.records.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"name\": \"{}\", \"kernel\": \"{}\", \"n\": {}, \"l\": {}, \
                 \"path\": \"{}\", \"ns_per_iter\": {}, \"samples_per_sec\": {}, \
                 \"iters\": {}}}{}\n",
                escape(&r.name),
                escape(&r.kernel),
                r.n,
                r.l,
                escape(&r.path),
                json_num(r.ns_per_iter),
                json_num(r.samples_per_sec),
                r.iters,
                if i + 1 < self.records.len() { "," } else { "" }
            ));
        }
        s.push_str("  ]\n}\n");
        let path = Self::repo_root().join(format!("BENCH_{}.json", self.bench));
        std::fs::write(&path, s).expect("write BENCH json");
        path
    }
}

/// Run one figure computation and print its wall time and link-trial rate
/// to stderr.
///
/// The trial count comes from the sweep executor's process-wide job counter
/// ([`backfi_core::sweep::metrics_snapshot`]), so the binary doesn't need to
/// know how many jobs its figure fanned out. When the obs layer is enabled
/// the same numbers also land in the run manifest as gauges.
pub fn timed_figure<T>(label: &str, f: impl FnOnce() -> T) -> T {
    let jobs0 = backfi_core::sweep::metrics_snapshot();
    let t0 = Instant::now();
    let out = f();
    let wall = t0.elapsed().as_secs_f64();
    let jobs1 = backfi_core::sweep::metrics_snapshot();
    let trials = jobs1 - jobs0;
    if trials > 0 {
        eprintln!(
            "# {label} wall={wall:.3}s trials={trials} rate={:.1} trials/s",
            trials as f64 / wall.max(1e-9)
        );
    } else {
        eprintln!("# {label} wall={wall:.3}s");
    }
    if backfi_obs::enabled() {
        backfi_obs::gauge_set("figure.wall_s", wall);
        backfi_obs::gauge_set("figure.trials", trials as f64);
        backfi_obs::gauge_set("figure.trials_per_s", trials as f64 / wall.max(1e-9));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "iters must be >= 1")]
    fn time_ns_rejects_zero_iters() {
        // A zero-iteration measurement must fail loudly, not report ~0 ns.
        time_ns(0, || {});
    }

    #[test]
    fn time_ns_measures_positive_time() {
        let ns = time_ns(3, || {
            std::hint::black_box((0..100).sum::<u64>());
        });
        assert!(ns > 0.0);
    }
}
