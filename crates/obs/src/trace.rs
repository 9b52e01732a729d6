//! Event-level tracing: per-thread ring-buffered timelines exported as
//! Chrome `trace_event` JSON (`TRACE_<run>.json`, loadable in
//! `chrome://tracing` / Perfetto).
//!
//! Where the [`crate`] histograms answer *"how long does stage X take on
//! average?"*, the tracer answers *"where inside **this** trial did the time
//! go?"*: every [`crate::span`] guard doubles as a begin/end pair on the
//! active thread's timeline, and [`instant`] / [`begin`] / [`end`] mark
//! one-off events between spans.
//!
//! ## The disabled-by-default contract
//!
//! Tracing is **off** unless `BACKFI_TRACE=1` is set (or a harness calls
//! [`enable`], e.g. for a `--trace` flag). While disabled every tracing call
//! is one relaxed atomic load plus a branch — no clock reads, no locks, no
//! allocation — so hot-path instrumentation stays free (the kernels bench
//! asserts < 5 ns/call). Figure stdout is never touched in either mode.
//!
//! ## Model
//!
//! Events land in per-thread rings (an uncontended mutex over a bounded
//! `Vec`; overflow drops the event and counts it in [`dropped`]). Thread ids
//! are small dense integers assigned at first use. The exporter assembles
//! one JSON document from this process's rings under `pid 0`
//! ("coordinator"), sorted by `(tid, ts, dur, name)` so the output is
//! deterministic for a fixed event set regardless of drain order.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

// ------------------------------------------------------------ on/off gate ---

const STATE_UNINIT: u8 = 0;
const STATE_OFF: u8 = 1;
const STATE_ON: u8 = 2;

static STATE: AtomicU8 = AtomicU8::new(STATE_UNINIT);

/// Is the tracer on? First call resolves `BACKFI_TRACE` from the
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
    let on = std::env::var("BACKFI_TRACE")
        .map(|v| !v.is_empty() && v != "0")
        .unwrap_or(false);
    if on {
        epoch(); // pin the timeline origin before the first event
    }
    STATE.store(if on { STATE_ON } else { STATE_OFF }, Ordering::Relaxed);
    on
}

/// Turn the tracer on programmatically (e.g. for a `--trace` CLI flag).
pub fn enable() {
    epoch();
    STATE.store(STATE_ON, Ordering::Relaxed);
}

/// Turn the tracer off. Already-buffered events are kept until [`reset`].
pub fn disable() {
    STATE.store(STATE_OFF, Ordering::Relaxed);
}

// ---------------------------------------------------------------- events ---

/// Chrome `trace_event` phase tags the tracer emits.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    /// `"B"` — begin of a duration slice.
    Begin,
    /// `"E"` — end of a duration slice.
    End,
    /// `"X"` — complete slice (`ts` + `dur`).
    Complete,
    /// `"i"` — instant marker.
    Instant,
}

impl Phase {
    /// The single-character phase string Chrome expects.
    pub fn as_str(self) -> &'static str {
        match self {
            Phase::Begin => "B",
            Phase::End => "E",
            Phase::Complete => "X",
            Phase::Instant => "i",
        }
    }
}

/// One timeline event. Names are `&'static str`, so recording allocates
/// nothing.
#[derive(Clone, Debug)]
pub struct Event {
    /// Event name (a span/stage name, by convention dot-separated).
    pub name: &'static str,
    /// Phase tag.
    pub phase: Phase,
    /// Nanoseconds since the process trace epoch.
    pub ts_ns: u64,
    /// Duration in nanoseconds (`Complete` events only; 0 otherwise).
    pub dur_ns: u64,
    /// Dense per-process thread id.
    pub tid: u32,
    /// Optional single numeric argument, rendered into `"args"`.
    pub arg: Option<(&'static str, f64)>,
}

// ----------------------------------------------------------- thread rings ---

/// Per-thread ring capacity. At ~100 events per trial this covers thousands
/// of trials per thread; overflow drops events (counted), never blocks.
pub const RING_CAP: usize = 1 << 18;

struct ThreadRing {
    tid: u32,
    events: Mutex<Vec<Event>>,
}

struct TraceState {
    rings: Mutex<Vec<Arc<ThreadRing>>>,
}

fn state() -> &'static TraceState {
    static S: OnceLock<TraceState> = OnceLock::new();
    S.get_or_init(|| TraceState {
        rings: Mutex::new(Vec::new()),
    })
}

static NEXT_TID: AtomicU32 = AtomicU32::new(1);
static DROPPED: AtomicU64 = AtomicU64::new(0);

/// The process trace epoch: `ts_ns = now − epoch`. Pinned on first use.
fn epoch() -> Instant {
    static T0: OnceLock<Instant> = OnceLock::new();
    *T0.get_or_init(Instant::now)
}

/// Nanoseconds since the trace epoch.
#[inline]
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

thread_local! {
    static RING: Arc<ThreadRing> = {
        let ring = Arc::new(ThreadRing {
            tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
            events: Mutex::new(Vec::new()),
        });
        state()
            .rings
            .lock()
            .expect("trace ring registry poisoned")
            .push(ring.clone());
        ring
    };
}

fn push(mut ev: Event) {
    RING.with(|ring| {
        ev.tid = ring.tid;
        let mut g = ring.events.lock().expect("trace ring poisoned");
        if g.len() < RING_CAP {
            g.push(ev);
        } else {
            DROPPED.fetch_add(1, Ordering::Relaxed);
        }
    });
}

/// Events dropped on ring overflow since the last [`reset`].
pub fn dropped() -> u64 {
    DROPPED.load(Ordering::Relaxed)
}

// -------------------------------------------------------------- recording ---

/// Mark an instant event on the current thread's timeline (no-op while
/// disabled).
#[inline]
pub fn instant(name: &'static str) {
    if enabled() {
        push(Event {
            name,
            phase: Phase::Instant,
            ts_ns: now_ns(),
            dur_ns: 0,
            tid: 0,
            arg: None,
        });
    }
}

/// [`instant`] with one numeric argument (shows in the Chrome event pane).
#[inline]
pub fn instant_arg(name: &'static str, key: &'static str, value: f64) {
    if enabled() {
        push(Event {
            name,
            phase: Phase::Instant,
            ts_ns: now_ns(),
            dur_ns: 0,
            tid: 0,
            arg: Some((key, value)),
        });
    }
}

/// Open a duration slice on the current thread's timeline (no-op while
/// disabled). Pair with [`end`] on the **same thread**; prefer
/// [`crate::span`] where a scope guard fits.
#[inline]
pub fn begin(name: &'static str) {
    if enabled() {
        push(Event {
            name,
            phase: Phase::Begin,
            ts_ns: now_ns(),
            dur_ns: 0,
            tid: 0,
            arg: None,
        });
    }
}

/// Close the innermost open slice named `name` (no-op while disabled).
#[inline]
pub fn end(name: &'static str) {
    if enabled() {
        push(Event {
            name,
            phase: Phase::End,
            ts_ns: now_ns(),
            dur_ns: 0,
            tid: 0,
            arg: None,
        });
    }
}

/// Record a complete slice whose start was captured as an [`Instant`]
/// (the [`crate::span`] drop path; callers own the enabled gate).
pub fn complete_from(name: &'static str, start: Instant, dur_ns: u64) {
    let ts_ns = start.duration_since(epoch()).as_nanos() as u64;
    push(Event {
        name,
        phase: Phase::Complete,
        ts_ns,
        dur_ns,
        tid: 0,
        arg: None,
    });
}

// --------------------------------------------------------- buffer access ---

/// Copy (without draining) every buffered event.
pub fn local_events() -> Vec<Event> {
    let rings = state().rings.lock().expect("trace ring registry poisoned");
    let mut out = Vec::new();
    for ring in rings.iter() {
        out.extend(
            ring.events
                .lock()
                .expect("trace ring poisoned")
                .iter()
                .cloned(),
        );
    }
    out
}

/// Clear every buffered event and the dropped counter
/// (test isolation; the enabled state is left alone).
pub fn reset() {
    let s = state();
    for ring in s.rings.lock().expect("trace ring registry poisoned").iter() {
        ring.events.lock().expect("trace ring poisoned").clear();
    }
    DROPPED.store(0, Ordering::Relaxed);
}

// ---------------------------------------------------------------- export ---

/// Format nanoseconds as the microsecond `ts`/`dur` field Chrome expects,
/// with exact 3-decimal precision (`1234567 ns` → `"1234.567"`).
fn us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

fn event_json(out: &mut String, ev: &Event) {
    use crate::json::{escape, num};
    out.push_str(&format!(
        "{{\"name\":\"{}\",\"ph\":\"{}\",\"ts\":{},\"pid\":0,\"tid\":{}",
        escape(ev.name),
        ev.phase.as_str(),
        us(ev.ts_ns),
        ev.tid,
    ));
    if ev.phase == Phase::Complete {
        out.push_str(&format!(",\"dur\":{}", us(ev.dur_ns)));
    }
    if ev.phase == Phase::Instant {
        out.push_str(",\"s\":\"t\"");
    }
    if let Some((k, v)) = &ev.arg {
        out.push_str(&format!(",\"args\":{{\"{}\":{}}}", escape(k), num(*v)));
    }
    out.push('}');
}

/// Serialize the timeline as a Chrome `trace_event` JSON document.
/// Deterministic for a fixed event set: events are emitted in sorted
/// `(tid, ts, dur, name, phase)` order, so reruns that buffer the same
/// events produce identical bytes.
pub fn trace_json(run: &str) -> String {
    use crate::json::escape;
    let mut all = local_events();
    all.sort_by(|a, b| {
        (a.tid, a.ts_ns, a.dur_ns, a.name, a.phase)
            .cmp(&(b.tid, b.ts_ns, b.dur_ns, b.name, b.phase))
    });
    let mut s = String::new();
    s.push_str("{\"traceEvents\":[\n");
    if !all.is_empty() {
        s.push_str(
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\
             \"args\":{\"name\":\"coordinator\"}}",
        );
    }
    for ev in &all {
        s.push_str(",\n");
        event_json(&mut s, ev);
    }
    s.push_str(&format!(
        "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{{\"run\":\"{}\",\"dropped_events\":{}}}}}\n",
        escape(run),
        dropped()
    ));
    s
}

/// Write `TRACE_<run>.json` into `dir`. Returns the path written, or `None`
/// when the tracer is disabled. I/O failures are reported on stderr, never
/// panicked — telemetry must not kill a run.
pub fn write_trace_to(dir: &std::path::Path, run: &str) -> Option<PathBuf> {
    if !enabled() {
        return None;
    }
    let path = dir.join(format!("TRACE_{}.json", crate::sanitize_run_name(run)));
    let doc = trace_json(run);
    match std::fs::write(&path, doc) {
        Ok(()) => Some(path),
        Err(e) => {
            eprintln!("# trace: failed to write {}: {e}", path.display());
            None
        }
    }
}

/// Write `TRACE_<run>.json` into [`crate::manifest_dir`].
pub fn write_trace(run: &str) -> Option<PathBuf> {
    write_trace_to(&crate::manifest_dir(), run)
}

#[cfg(test)]
mod tests {
    use super::*;

    // The enabled gate is process-global; these unit tests only exercise
    // gate-independent pieces. End-to-end enable/record/export sequencing
    // lives in tests/trace.rs behind a mutex.

    #[test]
    fn microsecond_formatting_is_exact() {
        assert_eq!(us(0), "0.000");
        assert_eq!(us(999), "0.999");
        assert_eq!(us(1_000), "1.000");
        assert_eq!(us(1_234_567), "1234.567");
    }
}
