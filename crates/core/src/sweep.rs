//! Trial and parameter sweeps — the §6.1 methodology.
//!
//! "For each distance, we cycle the IoT sensor through all combinations of
//! symbol switching rates and modulations, and then calculate throughput for
//! combinations that can be decoded at the reader."
//!
//! Sweeps run on [`Executor`], a work-stealing pool of `std::thread::scope`
//! workers that fans out over a **flat job list** — every (cell × trial) of a
//! grid at once, not just the trials of one configuration. Each job's seed is
//! a pure function of `(seed0, job index)` via [`SplitMix64::derive`], so
//! results are bit-identical for any worker count (on a single-core host the
//! jobs simply run sequentially).

pub mod cache;

use crate::link::{LinkConfig, LinkReport, LinkSimulator};
use backfi_chan::impair::Impairments;
use backfi_dsp::rng::SplitMix64;
use backfi_reader::rate_adapt::TrialOutcome;
use backfi_tag::config::TagConfig;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Aggregate outcome of several trials of one configuration.
#[derive(Clone, Debug)]
pub struct TrialStats {
    /// The evaluated tag configuration.
    pub config: TagConfig,
    /// Fraction of trials that decoded.
    pub success_rate: f64,
    /// Mean measured symbol SNR over trials that produced symbols, dB.
    pub mean_snr_db: f64,
    /// Mean post-FEC BER over all trials.
    pub mean_ber: f64,
    /// Mean raw (pre-FEC) symbol-decision BER over all trials.
    pub mean_pre_fec_ber: f64,
    /// Mean goodput over all trials, bit/s.
    pub mean_goodput_bps: f64,
    /// Number of trials whose job panicked and was caught by the executor
    /// (each counted as a worst-case failure in every mean above).
    pub panics: usize,
}

impl TrialStats {
    /// A configuration "can be decoded" when a clear majority of trials
    /// succeed (the paper repeats each point 20×; we use the same idea).
    pub fn decoded(&self) -> bool {
        self.success_rate >= 0.5
    }

    /// View as a rate-adaptation outcome.
    pub fn outcome(&self) -> TrialOutcome {
        TrialOutcome {
            config: self.config,
            decoded: self.decoded(),
            symbol_snr_db: self.mean_snr_db,
        }
    }

    /// Fold per-trial reports into the aggregate the figures consume.
    pub fn aggregate(config: TagConfig, reports: &[LinkReport]) -> TrialStats {
        let n = reports.len().max(1) as f64;
        let successes = reports.iter().filter(|r| r.success).count();
        let snrs: Vec<f64> = reports
            .iter()
            .filter(|r| r.measured_snr_db.is_finite())
            .map(|r| r.measured_snr_db)
            .collect();
        TrialStats {
            config,
            success_rate: successes as f64 / n,
            mean_snr_db: backfi_dsp::stats::mean(&snrs),
            mean_ber: reports.iter().map(|r| r.ber).sum::<f64>() / n,
            mean_pre_fec_ber: reports.iter().map(|r| r.pre_fec_ber).sum::<f64>() / n,
            mean_goodput_bps: reports.iter().map(|r| r.goodput_bps).sum::<f64>() / n,
            panics: reports.iter().filter(|r| r.panicked).count(),
        }
    }
}

// ------------------------------------------------------------- executor ---

/// Process-wide job counter, so harness binaries can report trials/sec
/// without threading a metrics handle through every figure function.
static JOBS_RUN: AtomicU64 = AtomicU64::new(0);

/// Jobs executed by [`Executor`] since process start. Diff two snapshots
/// around a figure computation to report its trials/sec.
pub fn metrics_snapshot() -> u64 {
    JOBS_RUN.load(Ordering::Relaxed)
}

/// Rate-limited sweep progress on stderr (never stdout — figure output must
/// stay byte-identical with observability on). Built only when the obs layer
/// is enabled, so the default path pays one branch per executor pass.
struct Progress {
    t0: Instant,
    total: usize,
    done: AtomicUsize,
    /// Elapsed ms at the last line printed (CAS-guarded so only one worker
    /// prints per interval).
    last_ms: AtomicU64,
}

impl Progress {
    const INTERVAL_MS: u64 = 500;

    fn new(total: usize) -> Option<Self> {
        (backfi_obs::enabled() && total > 1).then(|| Progress {
            t0: Instant::now(),
            total,
            done: AtomicUsize::new(0),
            last_ms: AtomicU64::new(0),
        })
    }

    fn tick(&self) {
        let done = self.done.fetch_add(1, Ordering::Relaxed) + 1;
        let elapsed = self.t0.elapsed();
        let ms = elapsed.as_millis() as u64;
        let last = self.last_ms.load(Ordering::Relaxed);
        let finished = done == self.total;
        if !finished && ms < last.saturating_add(Self::INTERVAL_MS) {
            return;
        }
        // One worker wins the interval; the final job always prints.
        if self
            .last_ms
            .compare_exchange(last, ms, Ordering::Relaxed, Ordering::Relaxed)
            .is_err()
            && !finished
        {
            return;
        }
        let secs = elapsed.as_secs_f64();
        let rate = done as f64 / secs.max(1e-9);
        let eta = (self.total - done) as f64 / rate.max(1e-9);
        eprintln!(
            "# sweep progress {done}/{} ({:.0}%) elapsed={secs:.1}s rate={rate:.1} jobs/s eta={eta:.1}s",
            self.total,
            100.0 * done as f64 / self.total as f64,
        );
    }
}

/// A work-stealing executor over flat job lists.
///
/// Workers are `std::thread::scope` threads pulling job indices from a shared
/// atomic counter, so long jobs (near distances that decode and run the full
/// Viterbi chain) don't stall a statically chunked partner. Results are
/// reassembled in job order, and job seeds come from the caller as pure
/// functions of the job index — output is therefore independent of both the
/// thread count and the steal schedule.
#[derive(Clone, Copy, Debug)]
pub struct Executor {
    threads: usize,
}

impl Default for Executor {
    fn default() -> Self {
        Executor::new()
    }
}

impl Executor {
    /// An executor sized to the host (`available_parallelism`).
    pub fn new() -> Self {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Executor { threads }
    }

    /// An executor with an explicit worker count (mainly for determinism
    /// tests; `0` is clamped to 1).
    pub fn with_threads(threads: usize) -> Self {
        Executor {
            threads: threads.max(1),
        }
    }

    /// The worker count this executor fans out to.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Map `f` over `items`, in parallel, preserving order.
    ///
    /// `f` receives `(job_index, &item)`; derive any per-job randomness from
    /// the index (e.g. [`SplitMix64::derive`]) — never from thread identity.
    pub fn run<I, T, F>(&self, items: &[I], f: F) -> Vec<T>
    where
        I: Sync,
        T: Send,
        F: Fn(usize, &I) -> T + Sync,
    {
        let n = items.len();
        let _t_pass = backfi_obs::span("sweep.pass");
        let threads = self.threads.min(n.max(1));
        let progress = Progress::new(n);
        let run_job = |i: usize, item: &I| {
            let _t = backfi_obs::span("sweep.job");
            let out = f(i, item);
            if let Some(p) = &progress {
                p.tick();
            }
            out
        };
        let out = if threads <= 1 {
            items
                .iter()
                .enumerate()
                .map(|(i, item)| run_job(i, item))
                .collect()
        } else {
            let next = AtomicUsize::new(0);
            let shards: Vec<Vec<(usize, T)>> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..threads)
                    .map(|_| {
                        scope.spawn(|| {
                            let mut local = Vec::new();
                            loop {
                                let i = next.fetch_add(1, Ordering::Relaxed);
                                if i >= n {
                                    break;
                                }
                                local.push((i, run_job(i, &items[i])));
                            }
                            local
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("sweep worker panicked"))
                    .collect()
            });
            let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
            for shard in shards {
                for (i, v) in shard {
                    slots[i] = Some(v);
                }
            }
            slots
                .into_iter()
                .map(|s| s.expect("every job index filled"))
                .collect()
        };
        JOBS_RUN.fetch_add(n as u64, Ordering::Relaxed);
        out
    }

    /// [`Executor::run`] with per-job panic isolation: a job that panics
    /// yields `Err(JobPanic)` in its slot instead of tearing down the worker
    /// (and with it every job the worker had left to steal). The panic is
    /// counted (`sweep.job_panic`), attributed on stderr, and the pass
    /// completes every remaining job.
    pub fn run_caught<I, T, F>(&self, items: &[I], f: F) -> Vec<Result<T, JobPanic>>
    where
        I: Sync,
        T: Send,
        F: Fn(usize, &I) -> T + Sync,
    {
        self.run(items, |i, item| {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(i, item))).map_err(
                |payload| {
                    let message = panic_message(&*payload);
                    backfi_obs::counter_add("sweep.job_panic", 1);
                    eprintln!("# sweep job {i} panicked: {message}");
                    JobPanic { index: i, message }
                },
            )
        })
    }
}

/// A job that panicked during an [`Executor::run_caught`] pass.
#[derive(Clone, Debug)]
pub struct JobPanic {
    /// Index of the job in the submitted list.
    pub index: usize,
    /// The panic payload rendered as text.
    pub message: String,
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

// ----------------------------------------------------------------- grids ---

/// Everything a sweep needs beyond its grid: the executor its jobs run on,
/// an optional persistent result cache, and the impairment set that figure
/// builders stamp on the cells they make.
///
/// Built once per binary (`backfi_bench::Cli::parse`) and passed explicitly,
/// so what a run computes never depends on process state. The default is
/// the host-sized executor, no cache and impairments off.
#[derive(Clone, Default)]
pub struct RunContext {
    /// Executor every (cell × trial) job list fans out on.
    pub exec: Executor,
    /// Result cache consulted before computing a cell, if any.
    pub cache: Option<Arc<cache::ResultCache>>,
    /// Impairments applied to the link configurations figures build.
    pub impair: Impairments,
}

impl RunContext {
    /// Evaluate every cell of a sweep grid, `trials` exchanges each, fanning
    /// the **whole** (cell × trial) job list across the executor at once.
    ///
    /// Cell `c`, trial `t` runs with seed `SplitMix64::derive(seed0,
    /// c*trials+t)` — a pure function of grid position, so the returned
    /// stats are identical for any worker count, cached or not. Returns one
    /// [`TrialStats`] per cell, in order.
    pub fn run_grid(&self, cells: &[LinkConfig], trials: usize, seed0: u64) -> Vec<TrialStats> {
        match &self.cache {
            Some(c) => run_cached(&self.exec, c, cells, trials, seed0),
            None => run_grid_on(&self.exec, cells, trials, seed0),
        }
    }
}

/// [`RunContext::run_grid`] on a bare executor: no cache, the cells exactly
/// as given.
pub fn run_grid_on(
    exec: &Executor,
    cells: &[LinkConfig],
    trials: usize,
    seed0: u64,
) -> Vec<TrialStats> {
    let bases = dense_bases(cells.len(), trials);
    run_cells(exec, cells, trials, seed0, &bases)
}

/// Job-index bases of a full grid: cell `c` starts at `c * trials`.
fn dense_bases(cells: usize, trials: usize) -> Vec<u64> {
    (0..cells as u64)
        .map(|c| c * trials.max(1) as u64)
        .collect()
}

/// Grid evaluation against a result cache: cells whose key is already
/// stored are returned from disk (bit-identical: records keep every `f64`'s
/// bits); only the misses are computed — with the exact job-index bases
/// they had in the full grid, so their seeds are unchanged — and then
/// stored for the next run. Cells whose stats recorded a caught panic are
/// *not* stored: a transient failure must not be frozen into the cache.
fn run_cached(
    exec: &Executor,
    cache: &cache::ResultCache,
    cells: &[LinkConfig],
    trials: usize,
    seed0: u64,
) -> Vec<TrialStats> {
    let bases = dense_bases(cells.len(), trials);
    let keys: Vec<cache::CacheKey> = cells
        .iter()
        .zip(&bases)
        .map(|(cfg, &b)| cache::cell_key(cfg, seed0, b, trials.max(1)))
        .collect();
    let mut out: Vec<Option<TrialStats>> = keys.iter().map(|&k| cache.get(k)).collect();
    let miss: Vec<usize> = (0..cells.len()).filter(|&i| out[i].is_none()).collect();
    if !miss.is_empty() {
        let miss_cells: Vec<LinkConfig> = miss.iter().map(|&i| cells[i].clone()).collect();
        let miss_bases: Vec<u64> = miss.iter().map(|&i| bases[i]).collect();
        let computed = run_cells(exec, &miss_cells, trials, seed0, &miss_bases);
        for (&i, s) in miss.iter().zip(computed) {
            if s.panics == 0 {
                cache.put(keys[i], &s);
            }
            out[i] = Some(s);
        }
    }
    out.into_iter()
        .map(|s| s.expect("every cell is either a hit or was just computed"))
        .collect()
}

/// The compute body: every (cell × trial) job computed here.
fn run_cells(
    exec: &Executor,
    cells: &[LinkConfig],
    trials: usize,
    seed0: u64,
    bases: &[u64],
) -> Vec<TrialStats> {
    assert_eq!(cells.len(), bases.len(), "one job-index base per cell");
    // Build one simulator per cell up front: excitation synthesis is cached
    // and shared, and `run` takes `&self`, so workers share them freely.
    let sims: Vec<LinkSimulator> = cells
        .iter()
        .map(|c| LinkSimulator::new(c.clone()))
        .collect();
    let trials = trials.max(1);
    let jobs: Vec<(usize, u64)> = (0..cells.len() * trials)
        .map(|j| {
            let cell = j / trials;
            let t = (j % trials) as u64;
            (cell, SplitMix64::derive(seed0, bases[cell] + t))
        })
        .collect();
    // Panic-isolated: a single poisonous (cell, seed) records a failed trial
    // instead of killing the whole sweep.
    let reports: Vec<LinkReport> = exec
        .run_caught(&jobs, |_, &(cell, seed)| sims[cell].run(seed))
        .into_iter()
        .map(|r| r.unwrap_or_else(|_| LinkReport::job_failed()))
        .collect();
    reports
        .chunks(trials)
        .zip(cells)
        .map(|(chunk, cell)| TrialStats::aggregate(cell.tag, chunk))
        .collect()
}

/// Expand `(base distance-config) × candidates` into grid cells: one
/// [`LinkConfig`] per candidate tag configuration.
pub fn grid_cells(base: &LinkConfig, candidates: &[TagConfig]) -> Vec<LinkConfig> {
    candidates
        .iter()
        .map(|&tag| {
            let mut cfg = base.clone();
            cfg.tag = tag;
            cfg
        })
        .collect()
}

/// Cycle through candidate tag configurations at one distance, most
/// aggressive first, and report per-config stats: the whole candidate grid
/// is evaluated in one parallel pass.
pub fn cycle_configs(
    base: &LinkConfig,
    candidates: &[TagConfig],
    trials: usize,
    seed0: u64,
) -> Vec<TrialStats> {
    RunContext::default().run_grid(
        &grid_cells(base, &by_throughput_desc(candidates)),
        trials,
        seed0,
    )
}

/// `candidates` sorted by throughput, descending; NaN throughput sorts last
/// instead of panicking the comparator (same order as `partial_cmp` on real
/// values).
fn by_throughput_desc(candidates: &[TagConfig]) -> Vec<TagConfig> {
    let mut sorted = candidates.to_vec();
    let desc_key = |c: &TagConfig| {
        let t = c.throughput_bps();
        if t.is_nan() {
            f64::NEG_INFINITY
        } else {
            t
        }
    };
    sorted.sort_by(|a, b| desc_key(b).total_cmp(&desc_key(a)));
    sorted
}

/// Max decodable throughput at a distance (bit/s), or 0 when nothing decodes.
pub fn max_throughput_bps(stats: &[TrialStats]) -> f64 {
    stats
        .iter()
        .filter(|s| s.decoded())
        .map(|s| s.config.throughput_bps())
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use backfi_coding::CodeRate;
    use backfi_tag::config::TagModulation;

    fn base(distance: f64) -> LinkConfig {
        let mut cfg = LinkConfig::at_distance(distance);
        cfg.excitation.wifi_payload_bytes = 1200;
        cfg
    }

    #[test]
    fn trials_aggregate() {
        // 20 trials so the success-rate assertion reflects the configuration,
        // not a couple of lucky seeds (ROADMAP statistical-test convention).
        let stats = &run_grid_on(&Executor::new(), &[base(1.0)], 20, 100)[0];
        assert!(stats.success_rate > 0.6, "{}", stats.success_rate);
        assert!(stats.decoded());
        assert!(stats.mean_goodput_bps > 0.0);
        assert!(stats.outcome().decoded);
    }

    #[test]
    fn grid_identical_across_worker_counts() {
        let candidates = vec![
            TagConfig::default(),
            TagConfig {
                modulation: TagModulation::Bpsk,
                code_rate: CodeRate::Half,
                symbol_rate_hz: 500e3,
                preamble_us: 32.0,
            },
        ];
        let cells: Vec<LinkConfig> = [0.5, 2.0]
            .iter()
            .flat_map(|&d| grid_cells(&base(d), &candidates))
            .collect();
        let a = run_grid_on(&Executor::with_threads(1), &cells, 3, 99);
        let b = run_grid_on(&Executor::with_threads(7), &cells, 3, 99);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.config, y.config);
            assert_eq!(x.success_rate.to_bits(), y.success_rate.to_bits());
            assert_eq!(x.mean_snr_db.to_bits(), y.mean_snr_db.to_bits());
            assert_eq!(x.mean_goodput_bps.to_bits(), y.mean_goodput_bps.to_bits());
        }
    }

    #[test]
    fn executor_preserves_job_order() {
        let items: Vec<usize> = (0..101).collect();
        let out = Executor::with_threads(5).run(&items, |i, &v| {
            assert_eq!(i, v);
            v * 2
        });
        assert_eq!(out, (0..101).map(|v| v * 2).collect::<Vec<_>>());
    }

    #[test]
    fn executor_handles_empty_and_single() {
        let empty: Vec<u32> = Vec::new();
        assert!(Executor::new().run(&empty, |_, &v| v).is_empty());
        assert_eq!(Executor::new().run(&[7u32], |_, &v| v + 1), vec![8]);
    }

    #[test]
    fn run_caught_isolates_panicking_jobs() {
        backfi_obs::enable();
        // Suppress the default panic hook's backtrace spam for the
        // deliberate panics below; restore it afterwards.
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let before = backfi_obs::counter_value("sweep.job_panic");
        let items: Vec<u32> = (0..50).collect();
        let out = Executor::with_threads(4).run_caught(&items, |_, &v| {
            assert!(!v.is_multiple_of(13), "poison {v}");
            v * 2
        });
        std::panic::set_hook(hook);
        assert_eq!(out.len(), 50);
        for (i, r) in out.iter().enumerate() {
            if i % 13 == 0 {
                let e = r.as_ref().expect_err("multiples of 13 must panic");
                assert_eq!(e.index, i);
                assert!(e.message.contains("poison"), "{}", e.message);
            } else {
                assert_eq!(*r.as_ref().unwrap(), 2 * i as u32);
            }
        }
        let after = backfi_obs::counter_value("sweep.job_panic");
        assert!(after >= before + 4, "4 poisoned jobs: {before} -> {after}");
    }

    #[test]
    fn run_caught_is_deterministic_across_worker_counts() {
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let items: Vec<u32> = (0..40).collect();
        let job = |_: usize, v: &u32| {
            assert!(*v != 17, "boom");
            *v + 1
        };
        let a = Executor::with_threads(1).run_caught(&items, job);
        let b = Executor::with_threads(6).run_caught(&items, job);
        std::panic::set_hook(hook);
        for (x, y) in a.iter().zip(&b) {
            match (x, y) {
                (Ok(p), Ok(q)) => assert_eq!(p, q),
                (Err(p), Err(q)) => assert_eq!(p.index, q.index),
                other => panic!("worker count changed outcomes: {other:?}"),
            }
        }
    }

    #[test]
    fn cycle_candidates_sort_by_throughput_with_nan_last() {
        let tag = |modulation, symbol_rate_hz| TagConfig {
            modulation,
            code_rate: CodeRate::Half,
            symbol_rate_hz,
            preamble_us: 32.0,
        };
        let nan = tag(TagModulation::Bpsk, f64::NAN);
        let slow = tag(TagModulation::Bpsk, 100e3);
        let fast = tag(TagModulation::Qpsk, 1e6);
        let mid = tag(TagModulation::Bpsk, 500e3);
        let sorted = by_throughput_desc(&[nan, slow, fast, mid]);
        assert_eq!(&sorted[..3], &[fast, mid, slow]);
        assert!(sorted[3].symbol_rate_hz.is_nan(), "NaN-rate candidate last");
    }

    #[test]
    fn metrics_count_jobs() {
        let jobs0 = metrics_snapshot();
        let items: Vec<u64> = (0..10).collect();
        Executor::with_threads(2).run(&items, |_, &v| v);
        let jobs1 = metrics_snapshot();
        assert!(jobs1 >= jobs0 + 10);
    }
}
