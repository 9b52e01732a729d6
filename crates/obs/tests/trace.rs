//! Integration tests for the event tracer: disabled-path inertness, the
//! span-guard/trace coupling, concurrent recording from scoped-thread
//! workers (no lost or duplicated events, per-thread timestamp order), and
//! the on-disk export.
//!
//! The tracer (like the recorder) is process-global, and the cargo test
//! harness runs tests on parallel threads — every test here serializes on
//! one mutex and resets both layers around itself.

use backfi_obs as obs;
use backfi_obs::trace::{self, Event, Phase};
use std::sync::Mutex;

static GLOBAL: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    GLOBAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn fresh() -> std::sync::MutexGuard<'static, ()> {
    let g = lock();
    obs::disable();
    trace::disable();
    obs::reset();
    trace::reset();
    g
}

#[test]
fn disabled_tracer_buffers_nothing() {
    let _g = fresh();
    {
        let _t = obs::span("tr.disabled_span");
        trace::instant("tr.disabled_instant");
        trace::begin("tr.disabled_slice");
        trace::end("tr.disabled_slice");
    }
    assert!(trace::local_events().is_empty());
    assert_eq!(trace::dropped(), 0);
    assert!(trace::write_trace_to(std::env::temp_dir().as_path(), "tr_disabled").is_none());
    assert!(obs::run_scope("tr_disabled").is_none());
}

#[test]
fn span_guard_emits_complete_event_even_with_recorder_off() {
    let _g = fresh();
    trace::enable();
    {
        let _t = obs::span("tr.guard_span");
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    let events = trace::local_events();
    let ev: Vec<_> = events
        .iter()
        .filter(|e| e.name == "tr.guard_span")
        .collect();
    assert_eq!(ev.len(), 1, "exactly one complete slice");
    assert_eq!(ev[0].phase, Phase::Complete);
    assert!(ev[0].dur_ns >= 1_000_000, "≥ 1 ms slept: {}", ev[0].dur_ns);
    // The recorder stayed off: the histogram side saw nothing.
    assert!(obs::snapshot().span("tr.guard_span").is_none());
    trace::reset();
    trace::disable();
}

#[test]
fn concurrent_workers_lose_and_duplicate_nothing() {
    let _g = fresh();
    trace::enable();
    const WORKERS: usize = 8;
    const ITERS: usize = 400;
    const NAMES: [&str; WORKERS] = [
        "tr.w0", "tr.w1", "tr.w2", "tr.w3", "tr.w4", "tr.w5", "tr.w6", "tr.w7",
    ];
    std::thread::scope(|scope| {
        for name in NAMES {
            scope.spawn(move || {
                for i in 0..ITERS {
                    trace::begin(name);
                    trace::instant_arg(name, "i", i as f64);
                    trace::end(name);
                }
            });
        }
    });
    let events = trace::local_events();
    assert_eq!(trace::dropped(), 0);
    assert_eq!(
        events.len(),
        WORKERS * ITERS * 3,
        "every event buffered once"
    );
    for name in NAMES {
        let own: Vec<&Event> = events.iter().filter(|e| e.name == name).collect();
        assert_eq!(own.len(), ITERS * 3, "{name}: no loss, no duplication");
        // One thread per name: its events sit on exactly one lane …
        let tid = own[0].tid;
        assert!(own.iter().all(|e| e.tid == tid), "{name}: single tid");
        // … and per-thread ring order is timestamp order (monotonic clock,
        // single writer): begin ≤ instant ≤ end per iteration, iteration
        // blocks in emit order.
        for pair in own.windows(2) {
            assert!(
                pair[0].ts_ns <= pair[1].ts_ns,
                "{name}: per-thread timestamps must be non-decreasing"
            );
        }
        let phases: Vec<Phase> = own.iter().map(|e| e.phase).collect();
        for block in phases.chunks(3) {
            assert_eq!(block, [Phase::Begin, Phase::Instant, Phase::End]);
        }
    }
    // The exported document is valid JSON under the workspace parser.
    let mut doc = Vec::new();
    trace::write_timeline(&mut doc, "tr_stress").expect("write to a Vec");
    let doc = String::from_utf8(doc).expect("UTF-8 timeline");
    obs::json::parse(&doc).expect("stress timeline is valid JSON");
    trace::reset();
    trace::disable();
}

#[test]
fn trace_file_round_trips_through_the_parser() {
    let _g = fresh();
    trace::enable();
    trace::instant("tr.file_marker");
    {
        let _t = obs::span("tr.file_span");
    }
    let dir = std::env::temp_dir().join(format!("backfi-trace-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = trace::write_trace_to(&dir, "tr file!").expect("tracer on → file written");
    assert!(
        path.file_name()
            .unwrap()
            .to_str()
            .unwrap()
            .starts_with("TRACE_tr_file_"),
        "run name sanitized: {path:?}"
    );
    let text = std::fs::read_to_string(&path).unwrap();
    let doc = obs::json::parse(&text).expect("valid JSON on disk");
    // Streamed one event at a time, yet laid out as the renderer lays out
    // the whole document.
    assert_eq!(text, doc.render() + "\n");
    let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
    assert!(
        events.iter().any(|e| {
            e.get("name").and_then(|n| n.as_str()) == Some("tr.file_marker")
                && e.get("ph").and_then(|p| p.as_str()) == Some("i")
        }),
        "instant marker present"
    );
    assert!(
        events.iter().any(|e| {
            e.get("name").and_then(|n| n.as_str()) == Some("tr.file_span")
                && e.get("ph").and_then(|p| p.as_str()) == Some("X")
                && e.get("dur").is_some()
        }),
        "complete slice present with dur"
    );
    let _ = std::fs::remove_dir_all(&dir);
    trace::reset();
    trace::disable();
}
