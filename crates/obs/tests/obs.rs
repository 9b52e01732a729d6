//! Integration tests for the global recorder: enabled/disabled contract,
//! concurrent recording from `std::thread::scope` workers, and the
//! `OBS_*.json` manifest schema round-trip.
//!
//! Every test that flips the global enable state or reads whole-registry
//! snapshots serializes on one mutex — the recorder is process-global by
//! design, and the cargo test harness runs tests on parallel threads.

use backfi_obs as obs;
use std::sync::Mutex;

static GLOBAL: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    GLOBAL.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn disabled_fast_path_records_nothing() {
    let _g = lock();
    obs::disable();
    obs::reset();
    {
        let _t = obs::span("t.disabled_span");
        obs::counter_add("t.disabled_counter", 5);
        obs::probe("t.disabled_probe", 1.0);
        obs::gauge_set("t.disabled_gauge", 2.0);
        obs::set_meta("t.disabled", "yes");
    }
    let snap = obs::snapshot();
    assert!(snap.span("t.disabled_span").is_none());
    assert_eq!(snap.counter("t.disabled_counter"), 0);
    assert!(snap.probe("t.disabled_probe").is_none());
    assert!(snap.gauges.is_empty());
    assert!(snap.meta.is_empty());
    assert!(obs::run_scope("t_disabled").is_none());
    assert!(obs::write_manifest_to(&obs::manifest_dir(), "t_disabled").is_none());
}

#[test]
fn concurrent_span_recording_counts_deterministically() {
    let _g = lock();
    obs::enable();
    obs::reset();
    const WORKERS: usize = 8;
    const PER_WORKER: usize = 250;
    std::thread::scope(|scope| {
        for w in 0..WORKERS {
            scope.spawn(move || {
                for i in 0..PER_WORKER {
                    let _t = obs::span("t.concurrent_span");
                    obs::counter_add("t.concurrent_counter", 1);
                    obs::probe("t.concurrent_probe", (w * PER_WORKER + i) as f64);
                }
            });
        }
    });
    let snap = obs::snapshot();
    // Counts are deterministic regardless of interleaving; timings are not.
    let span = snap.span("t.concurrent_span").expect("span registered");
    assert_eq!(span.count, (WORKERS * PER_WORKER) as u64);
    assert!(span.p50_ns <= span.p90_ns && span.p90_ns <= span.p99_ns);
    assert!(span.p99_ns <= span.max_ns.max(1));
    assert_eq!(
        snap.counter("t.concurrent_counter"),
        (WORKERS * PER_WORKER) as u64
    );
    let probe = snap.probe("t.concurrent_probe").expect("probe registered");
    assert_eq!(probe.count, (WORKERS * PER_WORKER) as u64);
    assert_eq!(probe.min, 0.0);
    assert_eq!(probe.max, (WORKERS * PER_WORKER - 1) as f64);
    let n = (WORKERS * PER_WORKER) as f64;
    assert!((probe.mean - (n - 1.0) / 2.0).abs() < 1e-9);
    obs::disable();
}

#[test]
fn manifest_schema_round_trips() {
    let _g = lock();
    obs::enable();
    obs::reset();
    obs::set_meta("figure", "roundtrip");
    obs::set_meta("seed", "42");
    obs::record_span_ns("t.rt_stage_a", 1_000);
    obs::record_span_ns("t.rt_stage_a", 2_000);
    obs::record_span_ns("t.rt_stage_b", 50);
    obs::counter_add("t.rt_counter", 7);
    obs::gauge_set("t.rt_gauge", 2.5);
    obs::probe("t.rt_probe", -92.0);
    obs::probe("t.rt_probe", -88.0);
    obs::probe("t.rt_tiny", 1e-9);
    obs::gauge_set("t.rt_nan", f64::NAN);

    let dir = std::env::temp_dir().join(format!("backfi_obs_rt_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = obs::write_manifest_to(&dir, "round/trip").expect("manifest written");
    assert_eq!(
        path.file_name().unwrap().to_str().unwrap(),
        "OBS_round_trip.json"
    );

    let doc = std::fs::read_to_string(&path).unwrap();
    let v = obs::json::parse(&doc).expect("manifest is valid JSON");

    assert_eq!(v.get("run").unwrap().as_str(), Some("round/trip"));
    assert!(v.get("git").unwrap().as_str().is_some());
    let meta = v.get("meta").unwrap();
    assert_eq!(meta.get("figure").unwrap().as_str(), Some("roundtrip"));
    assert_eq!(meta.get("seed").unwrap().as_str(), Some("42"));

    let spans = v.get("spans").unwrap().as_arr().unwrap();
    let a = spans
        .iter()
        .find(|s| s.get("name").unwrap().as_str() == Some("t.rt_stage_a"))
        .expect("stage_a span in manifest");
    assert_eq!(a.get("count").unwrap().as_f64(), Some(2.0));
    for key in ["total_ms", "p50_ns", "p90_ns", "p99_ns", "max_ns"] {
        assert!(a.get(key).unwrap().as_f64().is_some(), "span field {key}");
    }
    assert_eq!(a.get("max_ns").unwrap().as_f64(), Some(2000.0));

    let counters = v.get("counters").unwrap().as_arr().unwrap();
    let c = counters
        .iter()
        .find(|c| c.get("name").unwrap().as_str() == Some("t.rt_counter"))
        .expect("counter in manifest");
    assert_eq!(c.get("value").unwrap().as_f64(), Some(7.0));

    let gauges = v.get("gauges").unwrap().as_arr().unwrap();
    let g = gauges
        .iter()
        .find(|g| g.get("name").unwrap().as_str() == Some("t.rt_gauge"))
        .expect("gauge in manifest");
    assert_eq!(g.get("value").unwrap().as_f64(), Some(2.5));
    // JSON has no NaN: a non-finite gauge reads back as null.
    let g = gauges
        .iter()
        .find(|g| g.get("name").unwrap().as_str() == Some("t.rt_nan"))
        .expect("NaN gauge in manifest");
    assert_eq!(g.get("value"), Some(&obs::json::Json::Null));

    let probes = v.get("probes").unwrap().as_arr().unwrap();
    let p = probes
        .iter()
        .find(|p| p.get("name").unwrap().as_str() == Some("t.rt_probe"))
        .expect("probe in manifest");
    assert_eq!(p.get("count").unwrap().as_f64(), Some(2.0));
    assert_eq!(p.get("mean").unwrap().as_f64(), Some(-90.0));
    assert_eq!(p.get("min").unwrap().as_f64(), Some(-92.0));
    assert_eq!(p.get("max").unwrap().as_f64(), Some(-88.0));
    // Full precision: a probe far below 1e-6 is not printed as 0.
    let p = probes
        .iter()
        .find(|p| p.get("name").unwrap().as_str() == Some("t.rt_tiny"))
        .expect("tiny probe in manifest");
    for key in ["mean", "min", "max"] {
        assert_eq!(p.get(key).unwrap().as_f64(), Some(1e-9), "probe {key}");
    }

    std::fs::remove_dir_all(&dir).ok();
    obs::disable();
    obs::reset();
}

#[test]
fn run_scope_emits_manifest_on_drop() {
    let _g = lock();
    obs::enable();
    obs::reset();
    let dir = std::env::temp_dir().join(format!("backfi_obs_scope_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    // Route the default manifest dir through the env override.
    std::env::set_var("BACKFI_OBS_DIR", &dir);
    {
        let _scope = obs::run_scope("scope_test").expect("enabled");
        obs::counter_add("t.scope_counter", 1);
    }
    std::env::remove_var("BACKFI_OBS_DIR");
    let path = dir.join("OBS_scope_test.json");
    let doc = std::fs::read_to_string(&path).expect("manifest emitted on drop");
    let v = obs::json::parse(&doc).unwrap();
    // The run scope records its wall time as a gauge before serializing.
    let gauges = v.get("gauges").unwrap().as_arr().unwrap();
    assert!(gauges
        .iter()
        .any(|g| g.get("name").unwrap().as_str() == Some("run.wall_s")));
    std::fs::remove_dir_all(&dir).ok();
    obs::disable();
    obs::reset();
}
