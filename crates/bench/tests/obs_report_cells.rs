//! `obs_report --cells`: the cell-by-cell store diff that gates a numerics
//! re-baseline. Stores are filled with synthetic cells through the cache API,
//! so these tests run no link simulation.

use backfi_core::sweep::cache::{cell_key, ResultCache};
use backfi_core::sweep::TrialStats;
use backfi_core::LinkConfig;
use backfi_tag::config::TagConfig;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const TRIALS: usize = 10;
const CELLS: u64 = 40;

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("backfi-cells-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&d);
    d
}

/// A store of `CELLS` cells; `shift` is added to every success rate.
fn fill(dir: &Path, shift: f64) {
    let cache = ResultCache::open(dir).unwrap();
    let cfg = LinkConfig::at_distance(2.0);
    for i in 0..CELLS {
        let success = ((i % 11) as f64 / 10.0 + shift).clamp(0.0, 1.0);
        let stats = TrialStats {
            config: TagConfig::default(),
            success_rate: success,
            mean_snr_db: 5.0 + i as f64 * 0.25,
            mean_ber: 0.0,
            mean_pre_fec_ber: 0.01,
            mean_goodput_bps: success * 1e6,
            panics: 0,
        };
        cache.put(cell_key(&cfg, 1000, i * TRIALS as u64, TRIALS), &stats);
    }
}

fn cells(a: &Path, b: &Path, extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_obs_report"))
        .arg("--cells")
        .arg(a)
        .arg(b)
        .args(["--trials", &TRIALS.to_string()])
        .args(extra)
        .output()
        .unwrap()
}

fn stdout(o: &Output) -> String {
    String::from_utf8_lossy(&o.stdout).into_owned()
}

#[test]
fn a_store_against_itself_moves_no_cell() {
    let dir = tmpdir("self");
    fill(&dir, 0.0);
    let out = cells(&dir, &dir, &["--check"]);
    assert_eq!(out.status.code(), Some(0), "{}", stdout(&out));
    let text = stdout(&out);
    assert!(text.contains(&format!("{CELLS} paired cells")), "{text}");
    assert!(text.contains("moved cells: 0;"), "{text}");
    assert!(text.contains("out of band: 0"), "{text}");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn shifted_success_in_every_record_fails_the_pooled_check() {
    let (a, b) = (tmpdir("base"), tmpdir("doctored"));
    fill(&a, 0.0);
    fill(&b, 0.2);
    let out = cells(&a, &b, &["--check"]);
    assert_eq!(out.status.code(), Some(1), "{}", stdout(&out));
    let text = stdout(&out);
    assert!(text.contains("OUT OF BAND"), "{text}");
    assert!(!text.contains("moved cells: 0;"), "{text}");
    // Without --check the same findings are reported but do not fail.
    assert_eq!(cells(&a, &b, &[]).status.code(), Some(0));
    let _ = fs::remove_dir_all(&a);
    let _ = fs::remove_dir_all(&b);
}

#[test]
fn different_key_sets_are_an_input_error() {
    let (a, b) = (tmpdir("keys-a"), tmpdir("keys-b"));
    fill(&a, 0.0);
    fill(&b, 0.0);
    let cache = ResultCache::open(&b).unwrap();
    let extra = TrialStats::aggregate(TagConfig::default(), &[]);
    cache.put(cell_key(&LinkConfig::at_distance(9.0), 1, 0, 1), &extra);
    let out = cells(&a, &b, &[]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("1 only in B"));
    let _ = fs::remove_dir_all(&a);
    let _ = fs::remove_dir_all(&b);
}

#[test]
fn a_stale_salt_store_is_read_and_left_intact() {
    let dir = tmpdir("stale");
    fill(&dir, 0.0);
    let stamp = dir.join("CACHE_VERSION");
    fs::write(&stamp, "00000000deadbeef\n").unwrap();
    let out = cells(&dir, &dir, &["--check"]);
    assert_eq!(out.status.code(), Some(0), "{}", stdout(&out));
    assert_eq!(fs::read_to_string(&stamp).unwrap(), "00000000deadbeef\n");
    // Count entries without `ResultCache::open`, which would wipe them.
    let entries = fs::read_dir(&dir)
        .unwrap()
        .filter_map(|s| fs::read_dir(s.ok()?.path()).ok())
        .flatten()
        .count();
    assert_eq!(entries as u64, CELLS, "reading must not evict anything");
    let _ = fs::remove_dir_all(&dir);
}
