//! `obs_report --check --json`: the verdict file agrees with the table. A
//! counter that goes from 0 to 3 is a regression whose relative change is
//! infinite, which JSON writes as `null`, not 0.

use backfi_obs::json::{obj, parse, Json};
use std::fs;
use std::process::Command;

fn manifest(failures: u64) -> String {
    let counter = obj([
        ("name", "link.fail.payload_mismatch".into()),
        ("value", failures.into()),
    ]);
    let doc = obj([
        ("run", "verdict".into()),
        ("spans", Json::Arr(vec![])),
        ("counters", Json::Arr(vec![counter])),
    ]);
    doc.render()
}

#[test]
fn a_counter_leaving_zero_is_a_regression_with_a_null_delta() {
    let dir = std::env::temp_dir().join(format!("backfi-verdict-{}", std::process::id()));
    fs::create_dir_all(&dir).unwrap();
    let (base, cur, verdict) = (
        dir.join("base.json"),
        dir.join("cur.json"),
        dir.join("v.json"),
    );
    fs::write(&base, manifest(0)).unwrap();
    fs::write(&cur, manifest(3)).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_obs_report"))
        .arg(&base)
        .arg(&cur)
        .arg("--check")
        .arg("--json")
        .arg(&verdict)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let v = parse(&fs::read_to_string(&verdict).unwrap()).expect("verdict is JSON");
    assert_eq!(v.get("regressions").and_then(Json::as_f64), Some(1.0));
    let finding = &v.get("findings").and_then(Json::as_arr).unwrap()[0];
    assert_eq!(finding.get("regression"), Some(&Json::Bool(true)));
    assert_eq!(finding.get("delta"), Some(&Json::Null));
    assert_eq!(finding.get("current").and_then(Json::as_f64), Some(3.0));
    let _ = fs::remove_dir_all(&dir);
}
