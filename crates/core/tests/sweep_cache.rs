//! End-to-end properties of the persistent sweep result cache: warm reruns
//! recompute nothing and stay bit-identical, racing executors converge,
//! corruption is detected and healed, and a stale code-version salt wipes
//! the store.

use backfi_core::sweep::cache::{cell_key, ResultCache};
use backfi_core::sweep::{
    grid_cells, metrics_snapshot, run_grid_on, Executor, RunContext, TrialStats,
};
use backfi_core::LinkConfig;
use backfi_tag::config::TagConfig;
use std::fs;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

/// Obs counters and the executor job counter are process-wide; tests that
/// assert on their deltas hold this to keep the deltas attributable.
static METRICS: Mutex<()> = Mutex::new(());

fn serialize() -> std::sync::MutexGuard<'static, ()> {
    METRICS.lock().unwrap_or_else(|e| e.into_inner())
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("backfi-sweep-cache-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&d);
    d
}

/// A run context on the host executor, serving cells from `cache`.
fn cached(cache: &Arc<ResultCache>) -> RunContext {
    RunContext {
        cache: Some(Arc::clone(cache)),
        ..RunContext::default()
    }
}

fn small_grid() -> (Vec<LinkConfig>, usize, u64) {
    let mut base = LinkConfig::at_distance(1.0);
    base.excitation.wifi_payload_bytes = 1200;
    let mut cells = grid_cells(&base, &[TagConfig::default()]);
    let mut far = LinkConfig::at_distance(2.5);
    far.excitation.wifi_payload_bytes = 1200;
    cells.extend(grid_cells(&far, &[TagConfig::default()]));
    (cells, 3, 4242)
}

fn assert_stats_bits_eq(a: &[TrialStats], b: &[TrialStats], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            x.success_rate.to_bits(),
            y.success_rate.to_bits(),
            "{what}[{i}]"
        );
        assert_eq!(
            x.mean_snr_db.to_bits(),
            y.mean_snr_db.to_bits(),
            "{what}[{i}]"
        );
        assert_eq!(x.mean_ber.to_bits(), y.mean_ber.to_bits(), "{what}[{i}]");
        assert_eq!(
            x.mean_pre_fec_ber.to_bits(),
            y.mean_pre_fec_ber.to_bits(),
            "{what}[{i}]"
        );
        assert_eq!(
            x.mean_goodput_bps.to_bits(),
            y.mean_goodput_bps.to_bits(),
            "{what}[{i}]"
        );
        assert_eq!(x.panics, y.panics, "{what}[{i}]");
    }
}

/// Every `.bfc` entry file under the store.
fn entry_files(cache: &ResultCache) -> Vec<PathBuf> {
    let mut out = Vec::new();
    for shard in fs::read_dir(cache.dir()).unwrap() {
        let shard = shard.unwrap();
        if !shard.file_type().unwrap().is_dir() {
            continue;
        }
        for e in fs::read_dir(shard.path()).unwrap() {
            let p = e.unwrap().path();
            if p.extension().is_some_and(|x| x == "bfc") {
                out.push(p);
            }
        }
    }
    out.sort();
    out
}

#[test]
fn warm_rerun_is_bit_identical_and_recomputes_nothing() {
    let _m = serialize();
    let dir = tmpdir("warm");
    let cache = Arc::new(ResultCache::open(&dir).unwrap());
    let (cells, trials, seed0) = small_grid();
    let exec = Executor::new();

    let plain = run_grid_on(&exec, &cells, trials, seed0);
    let cold = cached(&cache).run_grid(&cells, trials, seed0);
    assert_stats_bits_eq(&plain, &cold, "cold cached vs plain");

    let jobs_before = metrics_snapshot();
    let warm = cached(&cache).run_grid(&cells, trials, seed0);
    let jobs_after = metrics_snapshot();
    assert_eq!(
        jobs_after, jobs_before,
        "a fully warm cache must execute zero link trials"
    );
    assert_stats_bits_eq(&cold, &warm, "warm vs cold");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn a_partial_hit_computes_the_miss_with_its_full_grid_seeds() {
    let _m = serialize();
    let dir = tmpdir("partial");
    let cache = Arc::new(ResultCache::open(&dir).unwrap());
    let (cells, trials, seed0) = small_grid();
    let cold = cached(&cache).run_grid(&cells, trials, seed0);

    // Drop the last cell only: its trials start at job index `trials`, not
    // 0, so a miss recomputed as a one-cell grid would draw other seeds.
    let last = cells.len() - 1;
    let key = cell_key(&cells[last], seed0, (last * trials) as u64, trials);
    let name = format!("{key}.bfc");
    let entry = entry_files(&cache)
        .into_iter()
        .find(|p| p.file_name().is_some_and(|n| n == name.as_str()))
        .expect("the last cell's entry");
    fs::remove_file(entry).unwrap();

    let jobs_before = metrics_snapshot();
    let partial = cached(&cache).run_grid(&cells, trials, seed0);
    assert_eq!(metrics_snapshot() - jobs_before, trials as u64);
    assert_stats_bits_eq(&cold, &partial, "partial hit");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn racing_executors_converge_to_one_valid_entry_per_cell() {
    let _m = serialize();
    let dir = tmpdir("race");
    let cache = Arc::new(ResultCache::open(&dir).unwrap());
    let (cells, trials, seed0) = small_grid();
    let reference = run_grid_on(&Executor::new(), &cells, trials, seed0);

    // Two executors race cold on the same store: both compute every cell and
    // both publish every key via temp-file + rename.
    let results: Vec<Vec<TrialStats>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let (cache, cells) = (&cache, &cells);
                s.spawn(move || cached(cache).run_grid(cells, trials, seed0))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for r in &results {
        assert_stats_bits_eq(&reference, r, "racing writer");
    }
    assert_eq!(
        cache.entry_count().unwrap(),
        cells.len(),
        "exactly one entry per cell survives the race"
    );
    // And each surviving entry is valid: a warm read returns the reference
    // bits without recomputation.
    let warm = cached(&cache).run_grid(&cells, trials, seed0);
    assert_stats_bits_eq(&reference, &warm, "post-race warm read");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_entries_are_rejected_and_recomputed() {
    let _m = serialize();
    backfi_obs::enable();
    let dir = tmpdir("corrupt");
    let cache = Arc::new(ResultCache::open(&dir).unwrap());
    let (cells, trials, seed0) = small_grid();
    let cold = cached(&cache).run_grid(&cells, trials, seed0);

    let files = entry_files(&cache);
    assert_eq!(files.len(), cells.len());
    // Truncate one entry, flip a payload bit in the other.
    let bytes = fs::read(&files[0]).unwrap();
    fs::write(&files[0], &bytes[..bytes.len() / 2]).unwrap();
    let mut bytes = fs::read(&files[1]).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    fs::write(&files[1], &bytes).unwrap();

    let corrupt_before = backfi_obs::counter_value("sweep.cache.corrupt");
    let healed = cached(&cache).run_grid(&cells, trials, seed0);
    let corrupt_after = backfi_obs::counter_value("sweep.cache.corrupt");
    assert_stats_bits_eq(&cold, &healed, "healed rerun");
    assert_eq!(
        corrupt_after - corrupt_before,
        2,
        "both damaged entries must be detected by checksum"
    );
    // The store healed itself: both entries rewritten, next run is all hits.
    assert_eq!(cache.entry_count().unwrap(), cells.len());
    let jobs_before = metrics_snapshot();
    let warm = cached(&cache).run_grid(&cells, trials, seed0);
    let jobs_after = metrics_snapshot();
    assert_eq!(jobs_after, jobs_before, "healed store must serve from disk");
    assert_stats_bits_eq(&cold, &warm, "post-heal warm read");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn stale_code_salt_invalidates_the_whole_store() {
    let _m = serialize();
    let dir = tmpdir("salt");
    let cache = Arc::new(ResultCache::open(&dir).unwrap());
    let (cells, trials, seed0) = small_grid();
    cached(&cache).run_grid(&cells, trials, seed0);
    assert_eq!(cache.entry_count().unwrap(), cells.len());
    drop(cache);

    // A build with a different layout/crate/sim revision stamped this store.
    fs::write(dir.join("CACHE_VERSION"), "00000000deadbeef\n").unwrap();
    let reopened = Arc::new(ResultCache::open(&dir).unwrap());
    assert_eq!(
        reopened.entry_count().unwrap(),
        0,
        "every entry from a stale salt must be evicted on open"
    );
    // The store is usable again afterwards with the current salt.
    let again = cached(&reopened).run_grid(&cells, trials, seed0);
    assert_eq!(again.len(), cells.len());
    assert_eq!(reopened.entry_count().unwrap(), cells.len());
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn panicked_cells_are_never_frozen_into_the_cache() {
    let _m = serialize();
    let dir = tmpdir("panic");
    let cache = Arc::new(ResultCache::open(&dir).unwrap());
    // symbol_rate 10 MHz at 20 MS/s leaves 2 samples/symbol — below the tag
    // pipeline's minimum, which panics by contract.
    let poison = TagConfig {
        symbol_rate_hz: 10e6,
        ..TagConfig::default()
    };
    let mut base = LinkConfig::at_distance(1.0);
    base.excitation.wifi_payload_bytes = 1200;
    let cells = grid_cells(&base, &[TagConfig::default(), poison]);
    let trials = 2usize;

    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let cold = cached(&cache).run_grid(&cells, trials, 77);
    assert_eq!(cold[1].panics, trials, "poisoned cell attributed");
    assert_eq!(
        cache.entry_count().unwrap(),
        1,
        "only the healthy cell may be cached"
    );
    // A rerun recomputes exactly the poisoned cell's trials.
    let jobs_before = metrics_snapshot();
    let warm = cached(&cache).run_grid(&cells, trials, 77);
    let jobs_after = metrics_snapshot();
    std::panic::set_hook(hook);
    assert_eq!(
        jobs_after - jobs_before,
        trials as u64,
        "only the uncached (panicking) cell reruns"
    );
    assert_stats_bits_eq(&cold, &warm, "panic cell rerun");
    let _ = fs::remove_dir_all(&dir);
}
