//! # backfi-obs
//!
//! Zero-dependency structured observability for the BackFi pipeline: scoped
//! [`Span`] timers aggregated into log-bucketed latency histograms, named
//! counter/gauge registries, per-trial [`probe()`] points for stage-level
//! physics, and machine-readable `OBS_<run>.json` run manifests.
//!
//! ## The disabled-by-default contract
//!
//! The global recorder is **off** until a harness calls [`enable`] (the
//! figure binaries do for `--obs`). While disabled, every instrumentation call — [`span`], [`counter_add`],
//! [`probe()`] and [`gauge_set`] — compiles down to a single relaxed atomic
//! load plus a branch: no clock reads, no locks, no allocation. Figure
//! stdout is never touched in either mode; all obs output goes to stderr and
//! to the JSON manifest.
//!
//! ## Usage
//!
//! ```
//! backfi_obs::enable();
//! {
//!     let _t = backfi_obs::span("demo.stage");      // timed to end of scope
//!     backfi_obs::counter_add("demo.events", 1);
//!     backfi_obs::probe("demo.residual_db", -92.5); // streaming min/mean/max
//! }
//! let snap = backfi_obs::snapshot();
//! assert_eq!(snap.counter("demo.events"), 1);
//! backfi_obs::disable();
//! ```
//!
//! Span, counter and probe names are `&'static str` by design: the registry
//! interns nothing and the steady-state record path does a read-locked map
//! lookup plus wait-free atomics.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod hist;
pub mod json;
pub mod probe;
pub mod trace;

use hist::Histogram;
use probe::ProbeStats;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::time::Instant;

// ------------------------------------------------------------ on/off gate ---

static ON: AtomicBool = AtomicBool::new(false);

/// Is the global recorder on? One relaxed atomic load.
#[inline]
pub fn enabled() -> bool {
    ON.load(Ordering::Relaxed)
}

/// Turn the recorder on (the figure binaries' `--obs` flag).
pub fn enable() {
    ON.store(true, Ordering::Relaxed);
}

/// Turn the recorder off. Already-recorded data is kept until [`reset`].
pub fn disable() {
    ON.store(false, Ordering::Relaxed);
}

// --------------------------------------------------------------- registry ---

struct Registry {
    spans: RwLock<BTreeMap<&'static str, Arc<Histogram>>>,
    counters: RwLock<BTreeMap<&'static str, Arc<AtomicU64>>>,
    gauges: RwLock<BTreeMap<&'static str, Arc<AtomicU64>>>,
    probes: RwLock<BTreeMap<&'static str, Arc<ProbeStats>>>,
    meta: Mutex<BTreeMap<String, String>>,
}

fn registry() -> &'static Registry {
    static R: OnceLock<Registry> = OnceLock::new();
    R.get_or_init(|| Registry {
        spans: RwLock::new(BTreeMap::new()),
        counters: RwLock::new(BTreeMap::new()),
        gauges: RwLock::new(BTreeMap::new()),
        probes: RwLock::new(BTreeMap::new()),
        meta: Mutex::new(BTreeMap::new()),
    })
}

/// Look up (or lazily create) a named entry and hand it to `f`. The steady
/// state is a read lock + map lookup; the write lock is taken once per name.
fn with_entry<T: Default, R2>(
    map: &RwLock<BTreeMap<&'static str, Arc<T>>>,
    name: &'static str,
    f: impl FnOnce(&T) -> R2,
) -> R2 {
    {
        let g = map.read().expect("obs registry poisoned");
        if let Some(v) = g.get(name) {
            return f(v);
        }
    }
    let arc = map
        .write()
        .expect("obs registry poisoned")
        .entry(name)
        .or_default()
        .clone();
    f(&arc)
}

// ------------------------------------------------------------------ spans ---

/// A scoped stage timer. Created by [`span`]; records its elapsed wall time
/// into the named latency histogram when dropped. When the recorder is
/// disabled the guard is inert (no clock read on either end).
#[must_use = "a span measures the scope it is bound to; bind it with `let _t = span(..)`"]
pub struct Span {
    name: &'static str,
    start: Option<Instant>,
}

/// Start a scoped timer for stage `name`.
///
/// The guard records into the latency histogram when the recorder is on,
/// **and** emits a complete slice on the current thread's [`trace`] timeline
/// when the tracer is on — one clock read either way. With both layers off
/// the guard is inert (two relaxed atomic loads, no clock read).
#[inline]
pub fn span(name: &'static str) -> Span {
    Span {
        name,
        start: (enabled() || trace::enabled()).then(Instant::now),
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(t0) = self.start {
            let ns = t0.elapsed().as_nanos() as u64;
            if enabled() {
                record_span_ns(self.name, ns);
            }
            if trace::enabled() {
                trace::complete_from(self.name, t0, ns);
            }
        }
    }
}

/// Record a pre-measured duration (nanoseconds) into stage `name`'s
/// histogram. Bypasses the enabled check — callers own that gate.
pub fn record_span_ns(name: &'static str, ns: u64) {
    with_entry(&registry().spans, name, |h| h.record(ns));
}

// ------------------------------------------------- counters/gauges/probes ---

/// Add `delta` to the named counter (no-op while disabled).
#[inline]
pub fn counter_add(name: &'static str, delta: u64) {
    if enabled() {
        with_entry(&registry().counters, name, |c| {
            c.fetch_add(delta, Ordering::Relaxed);
        });
    }
}

/// Current value of a counter (0 if never written).
pub fn counter_value(name: &str) -> u64 {
    registry()
        .counters
        .read()
        .expect("obs registry poisoned")
        .get(name)
        .map(|c| c.load(Ordering::Relaxed))
        .unwrap_or(0)
}

/// Set the named gauge to `value` (last write wins; no-op while disabled).
#[inline]
pub fn gauge_set(name: &'static str, value: f64) {
    if enabled() {
        with_entry(&registry().gauges, name, |g| {
            g.store(value.to_bits(), Ordering::Relaxed);
        });
    }
}

/// Record one sample at the named probe point (no-op while disabled;
/// non-finite samples are dropped by the summary). Guard *expensive* sample
/// computations with [`enabled`] at the call site — the argument is
/// evaluated either way.
#[inline]
pub fn probe(name: &'static str, value: f64) {
    if enabled() {
        with_entry(&registry().probes, name, |p| p.record(value));
    }
}

/// Attach a key → value pair to the next manifest (config hash, seed, …).
/// No-op while disabled.
pub fn set_meta(key: &str, value: &str) {
    if enabled() {
        registry()
            .meta
            .lock()
            .expect("obs meta poisoned")
            .insert(key.to_string(), value.to_string());
    }
}

/// Clear every histogram, counter, gauge, probe and meta entry (test
/// isolation; the enabled state is left alone).
pub fn reset() {
    let r = registry();
    r.spans.write().expect("obs registry poisoned").clear();
    r.counters.write().expect("obs registry poisoned").clear();
    r.gauges.write().expect("obs registry poisoned").clear();
    r.probes.write().expect("obs registry poisoned").clear();
    r.meta.lock().expect("obs meta poisoned").clear();
}

// --------------------------------------------------------------- snapshot ---

/// Aggregated view of one span histogram.
#[derive(Clone, Debug)]
pub struct SpanSummary {
    /// Stage name.
    pub name: String,
    /// Number of recorded spans.
    pub count: u64,
    /// Summed duration, nanoseconds.
    pub total_ns: u64,
    /// Approximate 50th percentile, nanoseconds.
    pub p50_ns: u64,
    /// Approximate 90th percentile, nanoseconds.
    pub p90_ns: u64,
    /// Approximate 99th percentile, nanoseconds.
    pub p99_ns: u64,
    /// Largest recorded span, nanoseconds.
    pub max_ns: u64,
}

/// Aggregated view of one probe point.
#[derive(Clone, Debug)]
pub struct ProbeSummary {
    /// Probe name.
    pub name: String,
    /// Finite samples recorded.
    pub count: u64,
    /// Mean of the samples.
    pub mean: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
}

/// A point-in-time copy of everything the recorder holds.
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    /// Span histograms, sorted by name.
    pub spans: Vec<SpanSummary>,
    /// Counters, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Gauges, sorted by name.
    pub gauges: Vec<(String, f64)>,
    /// Probe summaries, sorted by name.
    pub probes: Vec<ProbeSummary>,
    /// Manifest metadata, sorted by key.
    pub meta: Vec<(String, String)>,
}

impl Snapshot {
    /// Counter value by name (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    /// Span summary by name.
    pub fn span(&self, name: &str) -> Option<&SpanSummary> {
        self.spans.iter().find(|s| s.name == name)
    }

    /// Probe summary by name.
    pub fn probe(&self, name: &str) -> Option<&ProbeSummary> {
        self.probes.iter().find(|p| p.name == name)
    }
}

/// Copy out the recorder's current state (works whether or not the recorder
/// is currently enabled — data survives [`disable`] until [`reset`]).
pub fn snapshot() -> Snapshot {
    let r = registry();
    let spans = r
        .spans
        .read()
        .expect("obs registry poisoned")
        .iter()
        .map(|(name, h)| SpanSummary {
            name: name.to_string(),
            count: h.count(),
            total_ns: h.sum(),
            p50_ns: h.quantile(0.50),
            p90_ns: h.quantile(0.90),
            p99_ns: h.quantile(0.99),
            max_ns: h.max(),
        })
        .collect();
    let counters = r
        .counters
        .read()
        .expect("obs registry poisoned")
        .iter()
        .map(|(n, c)| (n.to_string(), c.load(Ordering::Relaxed)))
        .collect();
    let gauges = r
        .gauges
        .read()
        .expect("obs registry poisoned")
        .iter()
        .map(|(n, g)| (n.to_string(), f64::from_bits(g.load(Ordering::Relaxed))))
        .collect();
    let probes = r
        .probes
        .read()
        .expect("obs registry poisoned")
        .iter()
        .map(|(name, p)| ProbeSummary {
            name: name.to_string(),
            count: p.count(),
            mean: p.mean(),
            min: p.min(),
            max: p.max(),
        })
        .collect();
    let meta = r
        .meta
        .lock()
        .expect("obs meta poisoned")
        .iter()
        .map(|(k, v)| (k.clone(), v.clone()))
        .collect();
    Snapshot {
        spans,
        counters,
        gauges,
        probes,
        meta,
    }
}

// --------------------------------------------------------------- manifest ---

/// 64-bit FNV-1a — a stable, dependency-free config hash for manifests.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Where manifests land: `$BACKFI_OBS_DIR` if set, else the workspace root
/// (next to the `BENCH_*.json` perf-trajectory files).
pub fn manifest_dir() -> PathBuf {
    let dir = std::env::var_os("BACKFI_OBS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../.."));
    // Resolve the `crates/obs/../..` hop so reported paths read cleanly.
    dir.canonicalize().unwrap_or(dir)
}

/// `git describe --always --dirty` at the workspace root, or `"unknown"`.
pub fn git_describe() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .current_dir(PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../.."))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Serialize a snapshot as the manifest JSON document. A probe with no
/// samples has no min or max; those print as `null`.
pub fn manifest_json(run: &str, snap: &Snapshot) -> String {
    use json::{obj, Json};
    let named = |name: &str, value: Json| obj([("name", name.into()), ("value", value)]);
    let spans = snap.spans.iter().map(|sp| {
        obj([
            ("name", sp.name.as_str().into()),
            ("count", sp.count.into()),
            ("total_ms", (sp.total_ns as f64 * 1e-6).into()),
            ("p50_ns", sp.p50_ns.into()),
            ("p90_ns", sp.p90_ns.into()),
            ("p99_ns", sp.p99_ns.into()),
            ("max_ns", sp.max_ns.into()),
        ])
    });
    let probes = snap.probes.iter().map(|p| {
        obj([
            ("name", p.name.as_str().into()),
            ("count", p.count.into()),
            ("mean", p.mean.into()),
            ("min", p.min.into()),
            ("max", p.max.into()),
        ])
    });
    let meta = snap
        .meta
        .iter()
        .map(|(k, v)| (k.as_str(), v.as_str().into()));
    let doc = obj([
        ("run", run.into()),
        ("git", Json::Str(git_describe())),
        ("meta", obj(meta)),
        ("spans", spans.collect()),
        (
            "counters",
            snap.counters
                .iter()
                .map(|(n, v)| named(n, (*v).into()))
                .collect(),
        ),
        (
            "gauges",
            snap.gauges
                .iter()
                .map(|(n, v)| named(n, (*v).into()))
                .collect(),
        ),
        ("probes", probes.collect()),
    ]);
    doc.render() + "\n"
}

pub(crate) fn sanitize_run_name(run: &str) -> String {
    run.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Write `OBS_<run>.json` into `dir` from the current snapshot. Returns the
/// path written, or `None` when the recorder is disabled. I/O failures are
/// reported on stderr, never panicked — telemetry must not kill a run.
pub fn write_manifest_to(dir: &std::path::Path, run: &str) -> Option<PathBuf> {
    if !enabled() {
        return None;
    }
    let path = dir.join(format!("OBS_{}.json", sanitize_run_name(run)));
    write_or_warn(path, |out| {
        out.write_all(manifest_json(run, &snapshot()).as_bytes())
    })
}

/// Create `path` and fill it through `fill`. Returns the path, or `None`
/// after reporting the failure on stderr.
pub(crate) fn write_or_warn(
    path: PathBuf,
    fill: impl FnOnce(&mut dyn Write) -> std::io::Result<()>,
) -> Option<PathBuf> {
    let written = std::fs::File::create(&path).and_then(|file| {
        let mut out = std::io::BufWriter::new(file);
        fill(&mut out)?;
        out.flush()
    });
    if let Err(e) = written {
        eprintln!("# obs: failed to write {}: {e}", path.display());
        return None;
    }
    Some(path)
}

/// Guard tying a run to its output files: emits `OBS_<run>.json` (recorder
/// on) and/or `TRACE_<run>.json` (tracer on), each with a one-line stderr
/// pointer, when dropped. Created by [`run_scope`].
pub struct RunScope {
    run: String,
    t0: Instant,
}

/// Open a run scope named `run`. Returns `None` while both the recorder and
/// the [`trace`] tracer are disabled, so holding the guard costs nothing in
/// the default mode.
pub fn run_scope(run: &str) -> Option<RunScope> {
    (enabled() || trace::enabled()).then(|| RunScope {
        run: run.to_string(),
        t0: Instant::now(),
    })
}

impl Drop for RunScope {
    fn drop(&mut self) {
        gauge_set("run.wall_s", self.t0.elapsed().as_secs_f64());
        if trace::dropped() > 0 {
            counter_add("trace.dropped_events", trace::dropped());
        }
        let dir = manifest_dir();
        if let Some(path) = write_manifest_to(&dir, &self.run) {
            eprintln!("# obs manifest: {}", path.display());
        }
        if let Some(path) = trace::write_trace_to(&dir, &self.run) {
            eprintln!("# trace timeline: {}", path.display());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Unit tests here only touch uniquely named entries so they stay
    // independent of the integration tests and of each other; apart from the
    // one gate race test, global enable/disable sequencing lives in
    // tests/obs.rs behind a mutex.

    #[test]
    fn fnv_is_stable() {
        assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a64(b"a"), 0xaf63dc4c8601ec8c);
        assert_ne!(fnv1a64(b"config-a"), fnv1a64(b"config-b"));
    }

    #[test]
    fn sanitized_run_names_are_path_safe() {
        assert_eq!(sanitize_run_name("fig11a"), "fig11a");
        assert_eq!(sanitize_run_name("a/b c!"), "a_b_c_");
    }

    #[test]
    fn manifest_json_of_empty_snapshot_parses() {
        let doc = manifest_json("unit_empty", &Snapshot::default());
        let v = json::parse(&doc).expect("valid JSON");
        assert_eq!(v.get("run").unwrap().as_str(), Some("unit_empty"));
        assert_eq!(v.get("spans").unwrap().as_arr().unwrap().len(), 0);
    }
}
