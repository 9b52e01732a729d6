//! # backfi-obs
//!
//! Zero-dependency structured observability for the BackFi pipeline: scoped
//! [`Span`] timers aggregated into log-bucketed latency histograms, named
//! counter/gauge registries, per-trial [`probe`] points for stage-level
//! physics, and machine-readable `OBS_<run>.json` run manifests.
//!
//! ## The disabled-by-default contract
//!
//! The global recorder is **off** unless `BACKFI_OBS=1` is set in the
//! environment (or a harness calls [`enable`], e.g. for a `--obs` flag).
//! While disabled, every instrumentation call — [`span`], [`counter_add`],
//! [`probe`], [`gauge_set`] and the `obs_*!` macros — compiles down to a
//! single relaxed atomic load plus a branch: no clock reads, no locks, no
//! allocation. Figure stdout is never touched in either mode; all obs output
//! goes to stderr and to the JSON manifest.
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
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::time::Instant;

// ------------------------------------------------------------ on/off gate ---

const STATE_UNINIT: u8 = 0;
const STATE_OFF: u8 = 1;
const STATE_ON: u8 = 2;

static STATE: AtomicU8 = AtomicU8::new(STATE_UNINIT);

/// Is the global recorder on? First call resolves `BACKFI_OBS` from the
/// environment; every later call is one relaxed atomic load and a branch.
#[inline]
pub fn enabled() -> bool {
    match STATE.load(Ordering::Relaxed) {
        STATE_ON => true,
        STATE_OFF => false,
        _ => init_from_env(),
    }
}

#[cold]
fn init_from_env() -> bool {
    let on = std::env::var("BACKFI_OBS")
        .map(|v| !v.is_empty() && v != "0")
        .unwrap_or(false);
    STATE.store(if on { STATE_ON } else { STATE_OFF }, Ordering::Relaxed);
    on
}

/// Turn the recorder on programmatically (e.g. for a `--obs` CLI flag).
pub fn enable() {
    STATE.store(STATE_ON, Ordering::Relaxed);
}

/// Turn the recorder off. Already-recorded data is kept until [`reset`].
pub fn disable() {
    STATE.store(STATE_OFF, Ordering::Relaxed);
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

// ----------------------------------------------------------------- macros ---

/// Time the rest of the enclosing scope as stage `$name`.
///
/// Expands to a `let` binding of a [`Span`] guard; while the recorder is
/// disabled this is one relaxed atomic load and a branch.
#[macro_export]
macro_rules! obs_span {
    ($name:expr) => {
        let _obs_span_guard = $crate::span($name);
    };
}

/// Increment a named counter (by 1, or by an explicit delta).
#[macro_export]
macro_rules! obs_count {
    ($name:expr) => {
        $crate::counter_add($name, 1)
    };
    ($name:expr, $delta:expr) => {
        $crate::counter_add($name, $delta)
    };
}

/// Record one sample at a named probe point.
#[macro_export]
macro_rules! obs_probe {
    ($name:expr, $value:expr) => {
        $crate::probe($name, $value)
    };
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

/// Serialize a snapshot as the manifest JSON document.
pub fn manifest_json(run: &str, snap: &Snapshot) -> String {
    use json::{escape, num};
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(&format!("  \"run\": \"{}\",\n", escape(run)));
    s.push_str(&format!("  \"git\": \"{}\",\n", escape(&git_describe())));
    s.push_str("  \"meta\": {");
    for (i, (k, v)) in snap.meta.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!("\n    \"{}\": \"{}\"", escape(k), escape(v)));
    }
    if !snap.meta.is_empty() {
        s.push_str("\n  ");
    }
    s.push_str("},\n  \"spans\": [");
    for (i, sp) in snap.spans.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "\n    {{\"name\": \"{}\", \"count\": {}, \"total_ms\": {}, \
             \"p50_ns\": {}, \"p90_ns\": {}, \"p99_ns\": {}, \"max_ns\": {}}}",
            escape(&sp.name),
            sp.count,
            num(sp.total_ns as f64 * 1e-6),
            sp.p50_ns,
            sp.p90_ns,
            sp.p99_ns,
            sp.max_ns,
        ));
    }
    if !snap.spans.is_empty() {
        s.push_str("\n  ");
    }
    s.push_str("],\n  \"counters\": [");
    for (i, (n, v)) in snap.counters.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "\n    {{\"name\": \"{}\", \"value\": {v}}}",
            escape(n)
        ));
    }
    if !snap.counters.is_empty() {
        s.push_str("\n  ");
    }
    s.push_str("],\n  \"gauges\": [");
    for (i, (n, v)) in snap.gauges.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "\n    {{\"name\": \"{}\", \"value\": {}}}",
            escape(n),
            num(*v)
        ));
    }
    if !snap.gauges.is_empty() {
        s.push_str("\n  ");
    }
    s.push_str("],\n  \"probes\": [");
    for (i, p) in snap.probes.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "\n    {{\"name\": \"{}\", \"count\": {}, \"mean\": {}, \"min\": {}, \"max\": {}}}",
            escape(&p.name),
            p.count,
            num(p.mean),
            num(if p.count == 0 { 0.0 } else { p.min }),
            num(if p.count == 0 { 0.0 } else { p.max }),
        ));
    }
    if !snap.probes.is_empty() {
        s.push_str("\n  ");
    }
    s.push_str("]\n}\n");
    s
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
    let doc = manifest_json(run, &snapshot());
    match std::fs::write(&path, doc) {
        Ok(()) => Some(path),
        Err(e) => {
            eprintln!("# obs: failed to write {}: {e}", path.display());
            None
        }
    }
}

/// Write `OBS_<run>.json` into [`manifest_dir`]. See [`write_manifest_to`].
pub fn write_manifest(run: &str) -> Option<PathBuf> {
    write_manifest_to(&manifest_dir(), run)
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
        if let Some(path) = write_manifest(&self.run) {
            eprintln!("# obs manifest: {}", path.display());
        }
        if let Some(path) = trace::write_trace(&self.run) {
            eprintln!("# trace timeline: {}", path.display());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Unit tests here only touch uniquely named entries so they stay
    // independent of the integration tests and of each other; global
    // enable/disable sequencing lives in tests/obs.rs behind a mutex.

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
