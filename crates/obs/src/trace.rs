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
//! Tracing is **off** until a harness calls [`enable`] (the figure binaries
//! do for `--trace`). While disabled every tracing call
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

use crate::json::{obj, Json};
use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

// ------------------------------------------------------------ on/off gate ---

static ON: AtomicBool = AtomicBool::new(false);

/// Is the tracer on? One relaxed atomic load.
#[inline]
pub fn enabled() -> bool {
    ON.load(Ordering::Relaxed)
}

/// Turn the tracer on (the figure binaries' `--trace` flag).
pub fn enable() {
    epoch(); // pin the timeline origin before the first event
    ON.store(true, Ordering::Relaxed);
}

/// Turn the tracer off. Already-buffered events are kept until [`reset`].
pub fn disable() {
    ON.store(false, Ordering::Relaxed);
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

/// Nanoseconds as the microsecond `ts`/`dur` number Chrome expects. The
/// division is correctly rounded, so the shortest round-trip form prints
/// the exact 3-decimal value (`1234567 ns` → `1234.567`).
fn us(ns: u64) -> Json {
    (ns as f64 / 1e3).into()
}

fn event_json(ev: &Event) -> Json {
    let mut members = vec![
        ("name", ev.name.into()),
        ("ph", ev.phase.as_str().into()),
        ("ts", us(ev.ts_ns)),
        ("pid", 0u32.into()),
        ("tid", ev.tid.into()),
    ];
    if ev.phase == Phase::Complete {
        members.push(("dur", us(ev.dur_ns)));
    }
    if ev.phase == Phase::Instant {
        members.push(("s", "t".into()));
    }
    if let Some((k, v)) = ev.arg {
        members.push(("args", obj([(k, v.into())])));
    }
    obj(members)
}

/// Write the timeline as a Chrome `trace_event` JSON document into `out`,
/// one event at a time: the timeline can hold 2 × [`RING_CAP`] events, so
/// it is never held as one [`Json`] value. Deterministic for a fixed event
/// set: events are emitted in sorted `(tid, ts, dur, name, phase)` order,
/// so reruns that buffer the same events produce identical bytes.
pub fn write_timeline(out: &mut dyn Write, run: &str) -> std::io::Result<()> {
    let mut all = local_events();
    all.sort_by(|a, b| {
        (a.tid, a.ts_ns, a.dur_ns, a.name, a.phase)
            .cmp(&(b.tid, b.ts_ns, b.dur_ns, b.name, b.phase))
    });
    // The fixed outer wrapper, with the lane's constant `process_name`
    // record first: the bytes `Json::render` would write for the whole
    // document, whose last key is `traceEvents`.
    let mut line = String::from("{\n  \"displayTimeUnit\": \"ms\",\n  \"otherData\": ");
    obj([("dropped_events", dropped().into()), ("run", run.into())]).write(&mut line, 1);
    line.push_str(
        ",\n  \"traceEvents\": [\n    {\"args\": {\"name\": \"coordinator\"}, \
         \"name\": \"process_name\", \"ph\": \"M\", \"pid\": 0, \"tid\": 0}",
    );
    out.write_all(line.as_bytes())?;
    for ev in &all {
        line.clear();
        line.push_str(",\n    ");
        event_json(ev).write(&mut line, 2);
        out.write_all(line.as_bytes())?;
    }
    out.write_all(b"\n  ]\n}\n")
}

/// Write `TRACE_<run>.json` into `dir`. Returns the path written, or `None`
/// when the tracer is disabled. I/O failures are reported on stderr, never
/// panicked — telemetry must not kill a run.
pub fn write_trace_to(dir: &std::path::Path, run: &str) -> Option<PathBuf> {
    if !enabled() {
        return None;
    }
    let path = dir.join(format!("TRACE_{}.json", crate::sanitize_run_name(run)));
    crate::write_or_warn(path, |out| write_timeline(out, run))
}

#[cfg(test)]
mod tests {
    use super::*;

    // The enabled gate is process-global; these unit tests only exercise
    // gate-independent pieces. End-to-end enable/record/export sequencing
    // lives in tests/trace.rs behind a mutex.

    #[test]
    fn microsecond_formatting_is_exact() {
        assert_eq!(us(0).render(), "0");
        assert_eq!(us(999).render(), "0.999");
        assert_eq!(us(1_000).render(), "1");
        assert_eq!(us(1_234_567).render(), "1234.567");
        assert_eq!(us(86_400_000_000_001).render(), "86400000000.001");
    }
}
