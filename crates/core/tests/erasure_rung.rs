//! The reader's erasure mask (degradation ladder rung 2, DESIGN.md §10) is
//! reached by a link input and pays for itself: under ADC-railing blockers
//! and NaN bursts it erases symbols, and the link decodes more often than it
//! would without the mask. This file is its own test binary so the obs
//! counters it reads belong to it alone.

use backfi_chan::impair::Impairments;
use backfi_core::sweep::{run_grid_on, Executor};
use backfi_core::LinkConfig;

/// Seeds of the cell: well above the ≥20 of the ROADMAP convention,
/// because the cell decodes rarely and the floor below must sit several
/// successes away from either side.
const SEEDS: usize = 160;

/// Success rate the cell must beat, halfway between the two measured over
/// these seeds: 0.09375 (15 of 160) with the mask, 0.01875 (3 of 160) with
/// the reader's `Rest::masked` stubbed to `false`.
const FLOOR: f64 = (0.09375 + 0.01875) / 2.0;

#[test]
fn erasure_mask_is_reached_and_keeps_the_link_up() {
    backfi_obs::enable();
    let mut cfg = LinkConfig::at_distance(1.0);
    cfg.impair = Impairments::parse("saturation:1,nonfinite:1").expect("spec");
    let erasures = backfi_obs::counter_value("reader.erasures");
    let nonfinite = backfi_obs::counter_value("reader.nonfinite_rx");

    let stats = &run_grid_on(&Executor::new(), &[cfg], SEEDS, 7100)[0];

    let erased = backfi_obs::counter_value("reader.erasures") - erasures;
    let zeroed = backfi_obs::counter_value("reader.nonfinite_rx") - nonfinite;
    assert!(erased > 0, "no symbol was erased");
    assert!(zeroed > 0, "no non-finite sample reached the reader");
    assert_eq!(stats.panics, 0);
    assert!(
        stats.success_rate > FLOOR,
        "success rate {} at or below {FLOOR}",
        stats.success_rate
    );
}
