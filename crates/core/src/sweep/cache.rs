//! Persistent content-addressed result cache for sweep grids.
//!
//! Maps a stable 128-bit hash of *(the cell's [`LinkConfig`], sweep seed,
//! job-index base, trial count)* to the cell's aggregated [`TrialStats`],
//! stored as fixed-width binary records on disk (DESIGN.md §12). A warm
//! cache lets every figure binary skip cells it has already computed — the
//! incremental mode behind `--cache`. This module is the only owner of the
//! cell identity and of the on-disk format.
//!
//! Guarantees:
//!
//! * **Byte-neutral.** Every value travels as a little-endian `u64` word
//!   (`f64`s as their bit patterns), so a cache hit reproduces the cold-run
//!   result bit-for-bit and figure stdout is identical either way.
//! * **Concurrent-writer safe.** Records are written to a unique temp file
//!   and published with `fs::rename`, which is atomic on POSIX: two
//!   executors racing the same key converge to one valid entry, never a
//!   torn one.
//! * **Corruption-tolerant.** Every record ends in an FNV-1a checksum over
//!   the full record body; a truncated or bit-flipped entry is detected,
//!   deleted and transparently recomputed.
//! * **Version-safe.** Records embed a code-version salt
//!   ([`code_salt`]) derived from the record layout version, the crate
//!   version and a manually bumped simulation revision; a store written by
//!   a stale build is wiped wholesale on open.
//!
//! The cache is off unless a directory is configured; default runs never
//! touch the filesystem.

use crate::link::LinkConfig;
use crate::sweep::TrialStats;
use backfi_coding::CodeRate;
use backfi_obs::fnv1a64;
use backfi_tag::config::{TagConfig, TagModulation};
use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Record magic: `b"BFCACHE1"` little-endian.
pub const MAGIC: u64 = u64::from_le_bytes(*b"BFCACHE1");

/// Version of the record layout and of the key scheme, folded into
/// [`code_salt`]. Rev 2: cells keyed by `LinkConfig`'s derived `Debug`,
/// records as 15 little-endian `u64` words.
const LAYOUT_VERSION: u32 = 2;

/// Manually bumped whenever simulation *semantics* change in a way that
/// invalidates previously cached results without changing any config
/// struct (e.g. a reordered RNG draw or a retuned pipeline constant).
/// Rev 2: the ziggurat normal generator and empty-frame rejection.
/// Rev 3: per-source 4-lane noise sub-streams and the frame-bounded reader
/// back half (no pilot derotation).
/// Rev 4: the causal AGC (the ADC's full scale set on the silent window).
/// Rev 5: a two-rung degradation ladder in the reader (no SIC divergence
/// retrain, no wide timing re-acquire); impaired cells change.
pub const SIM_REV: u64 = 5;

/// Words before the checksum: magic, salt, key (hi, lo), then the ten
/// [`TrialStats`] words (modulation, code rate, symbol rate, preamble,
/// the five means, panics).
const BODY_WORDS: usize = 14;

/// On-disk record size: the body words plus the checksum word.
pub const RECORD_LEN: usize = 8 * (BODY_WORDS + 1);

/// Every code rate, in the order of the record's code-rate word.
const CODE_RATES: [CodeRate; 3] = [CodeRate::Half, CodeRate::TwoThirds, CodeRate::ThreeQuarters];

/// Name of the per-store version-salt file.
const VERSION_FILE: &str = "CACHE_VERSION";

/// The code-version salt embedded in every record and in the store's
/// `CACHE_VERSION` file: hash of the layout version, crate version and
/// [`SIM_REV`]. Any of the three changing orphans every existing store.
pub fn code_salt() -> u64 {
    let tag = format!(
        "fmt{LAYOUT_VERSION}:pkg{}:rev{SIM_REV}",
        env!("CARGO_PKG_VERSION")
    );
    fnv1a64(tag.as_bytes())
}

/// A 128-bit content address: two independently prefixed FNV-1a passes
/// over the cell's identity. Also the entry's file name.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CacheKey {
    /// First hash pass (also selects the shard subdirectory).
    pub hi: u64,
    /// Second, independently prefixed pass.
    pub lo: u64,
}

/// Both halves in hex: the entry's file name without its extension.
impl std::fmt::Display for CacheKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}{:016x}", self.hi, self.lo)
    }
}

/// Compute the cache key for one grid cell: hashes the derived `Debug`
/// text of `cfg` plus the sweep seed, the cell's job-index base and the
/// trial count — everything that determines the cell's [`TrialStats`].
///
/// Every type inside [`LinkConfig`] derives `Debug`, so every field is in
/// the text by construction, and `Debug` prints distinct finite `f64`s,
/// ±0.0 and ±∞ distinctly.
pub fn cell_key(cfg: &LinkConfig, seed0: u64, base: u64, trials: usize) -> CacheKey {
    let id = format!("{cfg:?} seed0={seed0} base={base} trials={trials}");
    let pass = |prefix: &str| fnv1a64(format!("{prefix}:{id}").as_bytes());
    CacheKey {
        hi: pass("backfiHi"),
        lo: pass("backfiLo"),
    }
}

/// Position of `v` in `all`, as a record word.
fn index_word<T: PartialEq>(all: &[T], v: T) -> u64 {
    all.iter()
        .position(|x| *x == v)
        .expect("the variant list covers every variant") as u64
}

/// One record: the body words in little-endian bytes, then the FNV-1a
/// checksum of those bytes.
fn encode_record(salt: u64, key: CacheKey, s: &TrialStats) -> Vec<u8> {
    let c = &s.config;
    let body: [u64; BODY_WORDS] = [
        MAGIC,
        salt,
        key.hi,
        key.lo,
        index_word(&TagModulation::ALL, c.modulation),
        index_word(&CODE_RATES, c.code_rate),
        c.symbol_rate_hz.to_bits(),
        c.preamble_us.to_bits(),
        s.success_rate.to_bits(),
        s.mean_snr_db.to_bits(),
        s.mean_ber.to_bits(),
        s.mean_pre_fec_ber.to_bits(),
        s.mean_goodput_bps.to_bits(),
        s.panics as u64,
    ];
    let mut bytes: Vec<u8> = body.iter().flat_map(|w| w.to_le_bytes()).collect();
    let sum = fnv1a64(&bytes);
    bytes.extend_from_slice(&sum.to_le_bytes());
    bytes
}

/// Why a read produced no value (drives the obs counters).
enum ReadMiss {
    /// No entry on disk.
    Absent,
    /// Entry present but truncated, bit-flipped, mis-keyed or stale.
    Corrupt,
    /// Filesystem error other than not-found.
    Io,
}

/// Length, checksum, magic and enum-word check; returns the record's
/// salt, key and payload. `None` for any damaged or foreign record.
fn parse_record(bytes: &[u8]) -> Option<(u64, CacheKey, TrialStats)> {
    if bytes.len() != RECORD_LEN {
        return None;
    }
    let (body, sum) = bytes.split_at(RECORD_LEN - 8);
    if fnv1a64(body).to_le_bytes() != sum {
        return None;
    }
    let words: [u64; BODY_WORDS] = std::array::from_fn(|i| {
        u64::from_le_bytes(body[8 * i..8 * i + 8].try_into().expect("an 8-byte word"))
    });
    let [magic, salt, hi, lo, modulation, code_rate, symbol_rate, preamble, means @ ..] = words;
    let [success, snr, ber, pre_fec, goodput, panics] = means;
    if magic != MAGIC {
        return None;
    }
    let f = f64::from_bits;
    let config = TagConfig {
        modulation: *TagModulation::ALL.get(usize::try_from(modulation).ok()?)?,
        code_rate: *CODE_RATES.get(usize::try_from(code_rate).ok()?)?,
        symbol_rate_hz: f(symbol_rate),
        preamble_us: f(preamble),
    };
    let stats = TrialStats {
        config,
        success_rate: f(success),
        mean_snr_db: f(snr),
        mean_ber: f(ber),
        mean_pre_fec_ber: f(pre_fec),
        mean_goodput_bps: f(goodput),
        panics: usize::try_from(panics).ok()?,
    };
    Some((salt, CacheKey { hi, lo }, stats))
}

fn decode_record(bytes: &[u8], salt: u64, key: CacheKey) -> Result<TrialStats, ReadMiss> {
    match parse_record(bytes) {
        Some((s, k, stats)) if s == salt && k == key => Ok(stats),
        _ => Err(ReadMiss::Corrupt),
    }
}

/// Read every record of the store at `dir` without opening it for use.
///
/// Checks each record's length, checksum, magic and that its key matches
/// its file name, but *not* the code salt, so a store written by another
/// build stays readable for cross-build comparison (`obs_report --cells`).
/// Never writes, evicts or deletes anything. A damaged record is an
/// `InvalidData` error naming the file.
pub fn read_store(dir: &Path) -> io::Result<BTreeMap<CacheKey, TrialStats>> {
    let mut out = BTreeMap::new();
    for path in entry_paths(dir)? {
        let bytes = fs::read(&path)?;
        let named = path.file_stem().and_then(|s| s.to_str()).unwrap_or("");
        match parse_record(&bytes) {
            Some((_, key, stats)) if named == key.to_string() => {
                out.insert(key, stats);
            }
            _ => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("damaged cache record {}", path.display()),
                ))
            }
        }
    }
    Ok(out)
}

/// Paths of every `.bfc` entry under the shard directories of `dir`.
fn entry_paths(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    for shard in fs::read_dir(dir)? {
        let shard = shard?;
        if !shard.file_type()?.is_dir() {
            continue;
        }
        for entry in fs::read_dir(shard.path())? {
            let path = entry?.path();
            if path.extension().is_some_and(|e| e == "bfc") {
                out.push(path);
            }
        }
    }
    Ok(out)
}

/// Consecutive filesystem errors before the store turns itself off. One-off
/// hiccups (a transient EINTR, one unreadable entry) should not disable a
/// warm cache; a dead mount or full disk will blow past this immediately.
const DISABLE_AFTER: u32 = 8;

/// A content-addressed on-disk store of per-cell sweep results.
pub struct ResultCache {
    dir: PathBuf,
    salt: u64,
    tmp_seq: AtomicU64,
    /// Consecutive I/O failures; reset by any successful disk interaction.
    io_streak: std::sync::atomic::AtomicU32,
    /// Once set, `get`/`put` are pass-through no-ops: an unwritable dir or
    /// ENOSPC degrades the sweep to cold-cache, never to a failure.
    disabled: std::sync::atomic::AtomicBool,
}

impl ResultCache {
    /// Open (creating if needed) a cache store rooted at `dir`.
    ///
    /// If the store was written under a different code-version salt, every
    /// entry is evicted before the store is used — a stale build's results
    /// must never leak into a fresh run.
    pub fn open(dir: &Path) -> io::Result<Self> {
        let cache = ResultCache {
            dir: dir.to_path_buf(),
            salt: code_salt(),
            tmp_seq: AtomicU64::new(0),
            io_streak: std::sync::atomic::AtomicU32::new(0),
            disabled: std::sync::atomic::AtomicBool::new(false),
        };
        fs::create_dir_all(dir)?;
        let vfile = dir.join(VERSION_FILE);
        let want = format!("{:016x}\n", cache.salt);
        match fs::read_to_string(&vfile) {
            Ok(have) if have == want => {}
            Ok(_) => {
                // Stale salt: wipe the whole store, then stamp ours.
                let evicted = cache.clear_entries()?;
                backfi_obs::counter_add("sweep.cache.evict", evicted as u64);
                fs::write(&vfile, &want)?;
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                fs::write(&vfile, &want)?;
            }
            Err(e) => return Err(e),
        }
        Ok(cache)
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Whether the store has degraded to pass-through (test/diagnostic).
    pub fn is_disabled(&self) -> bool {
        self.disabled.load(Ordering::Relaxed)
    }

    /// One more filesystem failure; past [`DISABLE_AFTER`] in a row the
    /// store turns itself off with a counter and one stderr warning.
    fn note_io_error(&self) {
        backfi_obs::counter_add("sweep.cache.io_error", 1);
        let streak = self.io_streak.fetch_add(1, Ordering::Relaxed) + 1;
        if streak >= DISABLE_AFTER && !self.disabled.swap(true, Ordering::Relaxed) {
            backfi_obs::counter_add("sweep.cache.disabled", 1);
            eprintln!(
                "[backfi cache] {} consecutive I/O errors under {}; disabling cache \
                 (results are unaffected, cells recompute)",
                streak,
                self.dir.display()
            );
        }
    }

    fn note_io_ok(&self) {
        self.io_streak.store(0, Ordering::Relaxed);
    }

    fn entry_path(&self, key: CacheKey) -> PathBuf {
        self.dir
            .join(format!("{:02x}", (key.hi >> 56) as u8))
            .join(format!("{key}.bfc"))
    }

    /// Look up a cell result. Returns `None` on absence, corruption (the
    /// entry is deleted so the recomputed value can replace it) or I/O
    /// error — the caller recomputes in every miss case.
    pub fn get(&self, key: CacheKey) -> Option<TrialStats> {
        if self.is_disabled() {
            return None;
        }
        let _t = backfi_obs::span("sweep.cache.get");
        let path = self.entry_path(key);
        let miss = match fs::read(&path) {
            Ok(bytes) => match decode_record(&bytes, self.salt, key) {
                Ok(stats) => {
                    self.note_io_ok();
                    backfi_obs::counter_add("sweep.cache.hit", 1);
                    backfi_obs::trace::instant("sweep.cache.hit");
                    return Some(stats);
                }
                Err(m) => m,
            },
            Err(e) if e.kind() == io::ErrorKind::NotFound => ReadMiss::Absent,
            Err(_) => ReadMiss::Io,
        };
        match miss {
            ReadMiss::Absent => self.note_io_ok(),
            ReadMiss::Corrupt => {
                self.note_io_ok();
                backfi_obs::counter_add("sweep.cache.corrupt", 1);
                let _ = fs::remove_file(&path);
            }
            ReadMiss::Io => self.note_io_error(),
        }
        backfi_obs::counter_add("sweep.cache.miss", 1);
        backfi_obs::trace::instant("sweep.cache.miss");
        None
    }

    /// Store a cell result. Best-effort: a full disk or permission error
    /// degrades to "cache stays cold", never to a failed sweep. Writes are
    /// temp-file + atomic rename, so concurrent writers of the same key
    /// each publish a complete record and one of them wins.
    pub fn put(&self, key: CacheKey, stats: &TrialStats) {
        if self.is_disabled() {
            return;
        }
        let _t = backfi_obs::span("sweep.cache.put");
        let record = encode_record(self.salt, key, stats);
        let path = self.entry_path(key);
        let shard = path.parent().expect("entry path always has a shard dir");
        let tmp = shard.join(format!(
            ".tmp-{}-{}",
            std::process::id(),
            self.tmp_seq.fetch_add(1, Ordering::Relaxed)
        ));
        let ok = fs::create_dir_all(shard)
            .and_then(|_| fs::write(&tmp, &record))
            .and_then(|_| fs::rename(&tmp, &path));
        match ok {
            Ok(()) => self.note_io_ok(),
            Err(_) => {
                self.note_io_error();
                let _ = fs::remove_file(&tmp);
            }
        }
    }

    /// Delete every entry (the `CACHE_VERSION` stamp stays). Returns the
    /// number of entries removed. Used by salt invalidation and by the
    /// cold-path replay bench to re-chill the store between iterations.
    pub fn clear_entries(&self) -> io::Result<usize> {
        let paths = entry_paths(&self.dir)?;
        for path in &paths {
            fs::remove_file(path)?;
        }
        Ok(paths.len())
    }

    /// Number of entries currently on disk (test/diagnostic helper).
    pub fn entry_count(&self) -> io::Result<usize> {
        Ok(entry_paths(&self.dir)?.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use backfi_wifi::Mcs;

    fn tmpdir(tag: &str) -> PathBuf {
        let d =
            std::env::temp_dir().join(format!("backfi-cache-unit-{}-{}", std::process::id(), tag));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn stats() -> TrialStats {
        TrialStats {
            config: TagConfig::default(),
            success_rate: 0.75,
            mean_snr_db: 12.5,
            mean_ber: 1e-3,
            mean_pre_fec_ber: 2e-2,
            mean_goodput_bps: 3.5e6,
            panics: 0,
        }
    }

    #[test]
    fn put_get_roundtrip_bit_exact() {
        let dir = tmpdir("roundtrip");
        let cache = ResultCache::open(&dir).unwrap();
        let cfg = LinkConfig::at_distance(2.0);
        let key = cell_key(&cfg, 1000, 0, 5);
        assert!(cache.get(key).is_none());
        let s = stats();
        cache.put(key, &s);
        let back = cache.get(key).unwrap();
        assert_eq!(
            s.mean_goodput_bps.to_bits(),
            back.mean_goodput_bps.to_bits()
        );
        assert_eq!(s.success_rate.to_bits(), back.success_rate.to_bits());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn key_depends_on_every_coordinate() {
        let cfg = LinkConfig::at_distance(2.0);
        let k = cell_key(&cfg, 1000, 0, 5);
        assert_ne!(k, cell_key(&cfg, 1001, 0, 5), "seed must matter");
        assert_ne!(k, cell_key(&cfg, 1000, 5, 5), "base must matter");
        assert_ne!(k, cell_key(&cfg, 1000, 0, 6), "trial count must matter");
        let mut other = cfg.clone();
        other.distance_m += 0.5;
        assert_ne!(k, cell_key(&other, 1000, 0, 5), "config must matter");
    }

    fn sample_config() -> LinkConfig {
        let mut cfg = LinkConfig::at_distance(3.25);
        cfg.tag = TagConfig {
            modulation: TagModulation::Psk16,
            code_rate: CodeRate::TwoThirds,
            symbol_rate_hz: 2.5e6,
            preamble_us: 96.0,
        };
        cfg.excitation.wifi_payload_bytes = 2718;
        cfg.excitation.mcs = Mcs::Mbps48;
        cfg.reader.use_zero_forcing = true;
        cfg.impair.cfo_hz = 123.5;
        cfg.impair.truncate_prob = 0.125;
        cfg
    }

    /// The key covers every field: changing the first or the last field of
    /// any nested struct of `LinkConfig` (the first scalar one where the
    /// first field is itself a struct), or the distance by one ulp, changes
    /// it. A key built from a hand-picked field list fails here.
    #[test]
    fn distinct_cells_get_distinct_keys() {
        type Perturb = fn(&mut LinkConfig);
        let key = |cfg: &LinkConfig| cell_key(cfg, 1000, 0, 5);
        let a = key(&sample_config());
        let perturbations: [(&str, Perturb); 15] = [
            ("budget first", |c| c.budget.tx_power_dbm += 0.5),
            ("budget last", |c| c.budget.tx_noise_dbc += 0.5),
            ("distance", |c| {
                c.distance_m = f64::from_bits(c.distance_m.to_bits() + 1)
            }),
            ("tag first", |c| c.tag.modulation = TagModulation::Bpsk),
            ("tag last", |c| c.tag.preamble_us += 1.0),
            ("excitation first", |c| c.excitation.tag_id += 1),
            ("excitation last", |c| c.excitation.lead_in += 1),
            ("reader first", |c| c.reader.fb_taps += 1),
            ("reader last", |c| c.reader.use_zero_forcing ^= true),
            ("reader.canceller first", |c| {
                c.reader.canceller.digital_taps += 1
            }),
            ("reader.canceller last", |c| {
                c.reader.canceller.digital_enabled ^= true
            }),
            ("reader.canceller.analog first", |c| {
                c.reader.canceller.analog.taps += 1
            }),
            ("reader.canceller.analog last", |c| {
                c.reader.canceller.analog.control_bits += 1
            }),
            ("impair first", |c| c.impair.clock_drift_ppm += 1.0),
            ("impair last", |c| c.impair.nonfinite_prob += 0.25),
        ];
        for (what, perturb) in perturbations {
            let mut other = sample_config();
            perturb(&mut other);
            assert_ne!(a, key(&other), "{what} field not in the key");
        }
        let at = |d: f64| key(&LinkConfig::at_distance(d));
        assert_ne!(at(0.0), at(-0.0), "signed zeros");
        assert_ne!(at(f64::INFINITY), at(f64::NEG_INFINITY), "infinities");
    }

    #[test]
    fn key_halves_are_independent_passes() {
        let keys: Vec<CacheKey> = (0..64)
            .map(|i| cell_key(&LinkConfig::at_distance(0.5 + 0.1 * i as f64), 1000, 0, 5))
            .collect();
        let distinct = |f: fn(&CacheKey) -> u64| {
            keys.iter()
                .map(f)
                .collect::<std::collections::BTreeSet<_>>()
                .len()
        };
        assert_eq!(distinct(|k| k.hi), keys.len());
        assert_eq!(distinct(|k| k.lo), keys.len());
        assert!(keys.iter().all(|k| k.hi != k.lo));
        assert!(
            distinct(|k| k.hi ^ k.lo) > 1,
            "lo must not be hi under a fixed mask"
        );
    }

    #[test]
    fn record_roundtrip_preserves_nonfinite_bits() {
        let s = TrialStats {
            config: sample_config().tag,
            success_rate: 0.35,
            mean_snr_db: f64::NEG_INFINITY,
            mean_ber: f64::NAN,
            mean_pre_fec_ber: -0.0,
            mean_goodput_bps: 1.25e6,
            panics: 3,
        };
        let key = CacheKey { hi: 1, lo: 2 };
        let (salt, k, back) = parse_record(&encode_record(7, key, &s)).unwrap();
        assert_eq!((salt, k), (7, key));
        assert_eq!(back.config, s.config);
        let bits = |s: &TrialStats| {
            [
                s.success_rate,
                s.mean_snr_db,
                s.mean_ber,
                s.mean_pre_fec_ber,
                s.mean_goodput_bps,
            ]
            .map(f64::to_bits)
        };
        assert_eq!(bits(&back), bits(&s));
        assert_eq!(back.panics, s.panics);
    }

    #[test]
    fn truncated_record_is_rejected_not_a_panic() {
        let bytes = encode_record(code_salt(), CacheKey { hi: 1, lo: 2 }, &stats());
        for cut in [0, 1, 7, RECORD_LEN / 2, RECORD_LEN - 1] {
            assert!(parse_record(&bytes[..cut]).is_none(), "cut at {cut}");
        }
        let mut long = bytes;
        long.push(0);
        assert!(parse_record(&long).is_none(), "one byte too many");
    }

    /// `bytes` with body word `i` replaced by `w` and the checksum redone,
    /// so only the word's meaning can reject it.
    fn with_word(bytes: &[u8], i: usize, w: u64) -> Vec<u8> {
        let mut b = bytes[..RECORD_LEN - 8].to_vec();
        b[8 * i..8 * i + 8].copy_from_slice(&w.to_le_bytes());
        let sum = fnv1a64(&b);
        b.extend_from_slice(&sum.to_le_bytes());
        b
    }

    #[test]
    fn bad_enum_word_is_rejected() {
        let good = encode_record(code_salt(), CacheKey { hi: 1, lo: 2 }, &stats());
        assert!(parse_record(&with_word(&good, 4, 2)).is_some(), "16PSK");
        assert!(parse_record(&with_word(&good, 5, 2)).is_some(), "rate 3/4");
        // Word 4 is the modulation, word 5 the code rate, word 0 the magic.
        for (word, value) in [(4, 3), (5, 3), (4, 250), (5, u64::MAX), (0, 0)] {
            assert!(
                parse_record(&with_word(&good, word, value)).is_none(),
                "word {word} = {value}"
            );
        }
    }

    #[test]
    fn record_layout_is_fixed_width() {
        let key = CacheKey { hi: 1, lo: 2 };
        assert_eq!(encode_record(code_salt(), key, &stats()).len(), RECORD_LEN);
    }

    #[test]
    fn read_store_ignores_the_salt_and_leaves_the_store_intact() {
        let dir = tmpdir("readonly");
        let cache = ResultCache::open(&dir).unwrap();
        let cfg = LinkConfig::at_distance(2.0);
        let fresh = cell_key(&cfg, 1000, 0, 5);
        cache.put(fresh, &stats());
        // A record written by a build with another salt, under a stale stamp.
        let stale = cell_key(&cfg, 1000, 5, 5);
        let path = cache.entry_path(stale);
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(&path, encode_record(0xdead_beef, stale, &stats())).unwrap();
        fs::write(dir.join(VERSION_FILE), "00000000deadbeef\n").unwrap();

        let read = read_store(&dir).unwrap();
        assert_eq!(read.len(), 2, "both salts must be readable");
        assert_eq!(read[&stale].success_rate, 0.75);
        assert_eq!(cache.entry_count().unwrap(), 2, "nothing evicted");
        assert_eq!(
            fs::read_to_string(dir.join(VERSION_FILE)).unwrap(),
            "00000000deadbeef\n",
            "stamp untouched"
        );

        // A damaged record is an error, and it too stays on disk.
        let mut bytes = fs::read(&path).unwrap();
        bytes[40] ^= 1;
        fs::write(&path, &bytes).unwrap();
        assert_eq!(
            read_store(&dir).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
        assert!(path.exists());
        let _ = fs::remove_dir_all(&dir);
    }

    /// A record in the layout of `LAYOUT_VERSION` 1, checksum intact: magic,
    /// salt, key, one byte each for modulation and code rate, seven `f64`s,
    /// panics and the checksum — 106 bytes.
    fn layout_v1_record(salt: u64, key: CacheKey, s: &TrialStats) -> Vec<u8> {
        let mut b: Vec<u8> = [MAGIC, salt, key.hi, key.lo]
            .iter()
            .flat_map(|w| w.to_le_bytes())
            .collect();
        b.extend_from_slice(&[1, 0]);
        for v in [
            s.config.symbol_rate_hz,
            s.config.preamble_us,
            s.success_rate,
            s.mean_snr_db,
            s.mean_ber,
            s.mean_pre_fec_ber,
            s.mean_goodput_bps,
        ] {
            b.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        b.extend_from_slice(&(s.panics as u64).to_le_bytes());
        let sum = fnv1a64(&b);
        b.extend_from_slice(&sum.to_le_bytes());
        assert_eq!(b.len(), 106);
        b
    }

    #[test]
    fn read_store_rejects_a_layout_v1_record_by_name() {
        let dir = tmpdir("layout-v1");
        let cache = ResultCache::open(&dir).unwrap();
        let key = cell_key(&LinkConfig::at_distance(2.0), 1000, 0, 5);
        let old = layout_v1_record(code_salt(), key, &stats());
        assert!(parse_record(&old).is_none(), "never misparsed");
        let path = cache.entry_path(key);
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(&path, &old).unwrap();

        let err = read_store(&dir).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(
            err.to_string().contains(&path.display().to_string()),
            "{err}"
        );
        // An open store treats it as a corrupt miss and deletes it.
        assert!(cache.get(key).is_none());
        assert!(!path.exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn repeated_io_errors_degrade_to_pass_through() {
        let dir = tmpdir("degrade");
        let cache = ResultCache::open(&dir).unwrap();
        let cfg = LinkConfig::at_distance(2.0);
        // Yank the store out from under the handle and plant a file where
        // the directory was: every subsequent write hits NotADirectory —
        // the same shape as an unwritable or vanished mount.
        fs::remove_dir_all(&dir).unwrap();
        fs::write(&dir, b"not a directory").unwrap();
        for i in 0..DISABLE_AFTER {
            assert!(!cache.is_disabled(), "must tolerate {i} one-off errors");
            cache.put(cell_key(&cfg, 1000, u64::from(i), 5), &stats());
        }
        assert!(
            cache.is_disabled(),
            "{DISABLE_AFTER} consecutive I/O errors must disable the store"
        );
        // Disabled store is inert: no panics, no results, no further I/O.
        let key = cell_key(&cfg, 1000, 0, 5);
        cache.put(key, &stats());
        assert!(cache.get(key).is_none());
        let _ = fs::remove_file(&dir);
    }
}
