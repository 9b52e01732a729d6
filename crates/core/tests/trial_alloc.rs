//! Allocation budget of a warm link trial.
//!
//! A counting `#[global_allocator]` with thread-local counters (so tests
//! running on other threads never pollute a measurement) records every
//! allocation the measuring thread makes during `LinkSimulator::run`. After
//! one warm-up trial has sized the thread's trial scratch, a warm trial must
//! make no allocation as large as half an excitation-length
//! `Vec<Complex>` (8·n bytes), and its total allocated bytes must stay
//! within 10% of what the allocating pipeline needed before the scratch
//! existed. Deterministic: counts bytes and calls, never time, and does not
//! depend on how the system allocator retains freed memory.

use backfi_coding::CodeRate;
use backfi_core::{LinkConfig, LinkSimulator};
use backfi_tag::config::{TagConfig, TagModulation};
use backfi_wifi::Mcs;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static CALLS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn record(size: usize) {
    // `try_with`: the allocator also runs while thread locals are torn down.
    let _ = ARMED.try_with(|armed| {
        if armed.get() {
            CALLS.with(|c| c.set(c.get() + 1));
            BYTES.with(|b| b.set(b.get() + size as u64));
            LARGEST.with(|l| l.set(l.get().max(size)));
        }
    });
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// What this thread allocated while running `f`.
#[derive(Debug)]
struct Allocs {
    calls: u64,
    bytes: u64,
    largest: usize,
}

fn measure(f: impl FnOnce()) -> Allocs {
    CALLS.with(|c| c.set(0));
    BYTES.with(|b| b.set(0));
    LARGEST.with(|l| l.set(0));
    ARMED.with(|a| a.set(true));
    f();
    ARMED.with(|a| a.set(false));
    Allocs {
        calls: CALLS.with(Cell::get),
        bytes: BYTES.with(Cell::get),
        largest: LARGEST.with(Cell::get),
    }
}

/// The paper headline point: 16PSK 1/2 @ 2.5 MSPS, 1 m, 6 Mbps/3000 B.
fn headline_cell() -> LinkConfig {
    let mut cfg = LinkConfig::at_distance(1.0);
    cfg.tag = TagConfig {
        modulation: TagModulation::Psk16,
        code_rate: CodeRate::Half,
        symbol_rate_hz: 2.5e6,
        preamble_us: 32.0,
    };
    cfg.excitation.mcs = Mcs::Mbps6;
    cfg.excitation.wifi_payload_bytes = 3000;
    cfg
}

/// One fig08 `--quick` cell: QPSK 1/2 @ 1 MSPS, 1 m, 24 Mbps/1200 B.
fn quick_cell() -> LinkConfig {
    let mut cfg = LinkConfig::at_distance(1.0);
    cfg.excitation.wifi_payload_bytes = 1200;
    cfg
}

/// Runs one warm-up trial, then three measured warm trials, and checks the
/// budget on each. `parent_bytes` is the smallest per-trial total the same
/// cell allocated (seeds 1–3) when every stage built fresh buffers.
fn check_budget(cfg: LinkConfig, parent_bytes: u64) {
    let sim = LinkSimulator::new(cfg);
    let n = sim.excitation().samples.len();
    sim.run(100);
    for seed in 1..=3u64 {
        let a = measure(|| {
            std::hint::black_box(sim.run(seed));
        });
        assert!(
            a.largest < 8 * n,
            "seed {seed}: a {} B allocation in a warm trial (n = {n}, limit {} B): {a:?}",
            a.largest,
            8 * n
        );
        assert!(
            a.bytes * 10 <= parent_bytes,
            "seed {seed}: {} B in {} allocations in a warm trial, budget {} B",
            a.bytes,
            a.calls,
            parent_bytes / 10
        );
    }
}

/// Before trials reused a scratch, a warm headline trial (n = 82,900)
/// allocated 25,455,044–25,796,772 B in 11,954–21,449 calls, the largest a
/// 2,652,800 B regrowth of a padded excitation copy. With the scratch it
/// allocates ≈1.75 MB, mostly per-symbol decoder buffers.
#[test]
fn warm_headline_trial_stays_within_budget() {
    check_budget(headline_cell(), 25_455_044);
}

/// The fig08 `--quick` cell (n = 10,260) allocated 3,342,401 B in 1,810
/// calls per warm trial before the scratch, ≈0.30 MB with it.
#[test]
fn warm_quick_trial_stays_within_budget() {
    check_budget(quick_cell(), 3_342_401);
}
