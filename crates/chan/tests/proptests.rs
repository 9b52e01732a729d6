//! Randomized tests over the channel models and link budget.
//!
//! Formerly `proptest`-based; now driven by the in-tree [`SplitMix64`]
//! generator so the suite builds offline and every case is reproducible from
//! its loop index.

use backfi_chan::budget::{dbm_to_lin, lin_to_dbm, LinkBudget};
use backfi_chan::frontend::Adc;
use backfi_chan::multipath::MultipathProfile;
use backfi_dsp::rng::SplitMix64;
use backfi_dsp::Complex;

const CASES: u64 = 64;

fn uniform(rng: &mut SplitMix64, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * rng.next_f64()
}

#[test]
fn pathloss_monotone_and_continuous() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0x41_0000 + case);
        let d1 = uniform(&mut rng, 0.2, 10.0);
        let d2 = uniform(&mut rng, 0.2, 10.0);
        let b = LinkBudget::default();
        let (lo, hi) = if d1 <= d2 { (d1, d2) } else { (d2, d1) };
        assert!(b.backscatter_pathloss_db(lo) <= b.backscatter_pathloss_db(hi) + 1e-9);
        assert!(b.wifi_pathloss_db(lo) <= b.wifi_pathloss_db(hi) + 1e-9);
        // local continuity
        let eps = 1e-6;
        let a = b.backscatter_pathloss_db(lo);
        let c = b.backscatter_pathloss_db(lo + eps);
        assert!((a - c).abs() < 1e-3);
    }
}

#[test]
fn budget_identities() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0x42_0000 + case);
        let d = uniform(&mut rng, 0.2, 10.0);
        let b = LinkBudget::default();
        assert!(
            (b.backscatter_rx_power_dbm(d) - (b.tx_power_dbm - b.backscatter_pathloss_db(d))).abs()
                < 1e-9
        );
        // amplitude² == linear power gain
        let amp = b.backscatter_amplitude(d);
        let gain_db = lin_to_dbm(amp * amp);
        assert!((gain_db + b.backscatter_pathloss_db(d)).abs() < 1e-6);
    }
}

#[test]
fn dbm_roundtrip() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0x43_0000 + case);
        let v = uniform(&mut rng, -150.0, 50.0);
        assert!((lin_to_dbm(dbm_to_lin(v)) - v).abs() < 1e-9);
    }
}

#[test]
fn multipath_always_unit_energy() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0x44_0000 + case);
        let taps = 1 + rng.below(7) as usize;
        let decay = uniform(&mut rng, 0.2, 5.0);
        let k_db = uniform(&mut rng, -5.0, 20.0);
        let seed = rng.below(500);
        let p = MultipathProfile {
            taps,
            decay_taps: decay,
            rician_k_db: k_db,
        };
        let mut ch_rng = SplitMix64::new(seed);
        let h = p.realize(&mut ch_rng);
        let e: f64 = h.iter().map(|t| t.norm_sqr()).sum();
        assert!((e - 1.0).abs() < 1e-9);
        assert_eq!(h.len(), taps);
        assert!(h.iter().all(|t| t.is_finite()));
    }
}

#[test]
fn adc_never_amplifies() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0x45_0000 + case);
        let re = uniform(&mut rng, -10.0, 10.0);
        let im = uniform(&mut rng, -10.0, 10.0);
        let bits = 4 + rng.below(12) as u32;
        let adc = Adc {
            bits,
            full_scale: 1.0,
        };
        let mut y = [Complex::new(re, im)];
        adc.quantize(&mut y);
        let y = y[0];
        assert!(y.re.abs() <= 1.0 + 1e-12);
        assert!(y.im.abs() <= 1.0 + 1e-12);
        // In-range samples move at most half a step.
        if re.abs() < 1.0 && im.abs() < 1.0 {
            let d = adc.step();
            assert!((y.re - re).abs() <= d / 2.0 + 1e-12);
            assert!((y.im - im).abs() <= d / 2.0 + 1e-12);
        }
    }
}

#[test]
fn tag_interference_decays_with_both_legs() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0x46_0000 + case);
        let d1 = uniform(&mut rng, 0.1, 5.0);
        let d2 = uniform(&mut rng, 0.1, 20.0);
        let b = LinkBudget::default();
        let base = b.tag_interference_dbm(d1, d2);
        assert!(b.tag_interference_dbm(d1 * 2.0, d2) < base);
        assert!(b.tag_interference_dbm(d1, d2 * 2.0) < base);
        // symmetric in its legs
        assert!((b.tag_interference_dbm(d1, d2) - b.tag_interference_dbm(d2, d1)).abs() < 1e-9);
    }
}
