//! Run-length policy shared by every workload.

use std::time::{Duration, Instant};

/// Rounds a `--smoke` run executes (two, so quartiles exist).
const SMOKE_ROUNDS: usize = 2;

/// Set-up is repeated at least this often, and for at least this long, so
/// that the median of even a millisecond-scale set-up is steady.
const SETUP_MIN_REPS: usize = 5;
const SETUP_MIN_SECONDS: f64 = 0.5;
const SETUP_MAX_REPS: usize = 200;

/// One workload process's settings.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    pub seed: u64,
    /// Wall time the untraced run keeps starting rounds for.
    pub seconds: f64,
    /// Cut every per-round count to 1/50 and run exactly two rounds.
    pub smoke: bool,
}

impl Plan {
    pub fn scaled(&self, n: usize) -> usize {
        if self.smoke {
            (n / 50).max(1)
        } else {
            n
        }
    }

    /// Call `round(r, fixed)` for r = 0, 1, … until the workload's `fixed`
    /// round count has run and `seconds` have passed; returns the number of
    /// rounds. `fixed` is true for the first `fixed` rounds: the run's
    /// quality numbers come from those alone, so they are a pure function of
    /// the seed, identical on every commit that keeps the simulation
    /// bit-exact, whatever the machine's speed.
    pub fn rounds(&self, fixed: usize, mut round: impl FnMut(usize, bool)) -> usize {
        let fixed = if self.smoke { SMOKE_ROUNDS } else { fixed };
        let t0 = Instant::now();
        let mut r = 0;
        while r < fixed || (!self.smoke && t0.elapsed().as_secs_f64() < self.seconds) {
            round(r, r < fixed);
            r += 1;
        }
        r
    }
}

/// Sweep executor width: at most two threads, never more than the host has.
pub fn threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(2)
}

/// Time `f` once cold, then repeatedly (at least five times and half a
/// second). Returns the cold time, the median warm time (seconds) and the
/// last value built.
pub fn time_setup<T>(mut f: impl FnMut() -> T) -> (f64, f64, T) {
    let t = Instant::now();
    let mut out = f();
    let cold = t.elapsed().as_secs_f64();
    let mut reps = Vec::new();
    let t0 = Instant::now();
    while reps.len() < SETUP_MIN_REPS
        || (reps.len() < SETUP_MAX_REPS && t0.elapsed().as_secs_f64() < SETUP_MIN_SECONDS)
    {
        let t = Instant::now();
        let v = std::hint::black_box(f());
        reps.push(t.elapsed().as_secs_f64());
        out = v;
    }
    (cold, crate::stats::median(&reps), out)
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}
