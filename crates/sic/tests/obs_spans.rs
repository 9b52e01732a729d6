//! Span accounting of the canceller. A binary of its own, so no concurrent
//! test shares the process-wide obs registry.

use backfi_dsp::fir::filter;
use backfi_dsp::noise::{add_noise, cgauss_vec};
use backfi_dsp::rng::SplitMix64;
use backfi_dsp::Complex;
use backfi_sic::{CancellerConfig, SelfInterferenceCanceller};

#[test]
fn process_records_digital_train_span_once() {
    backfi_obs::enable();
    let mut rng = SplitMix64::new(1);
    let x = cgauss_vec(&mut rng, 4000, 10.0);
    let mut h_env = vec![Complex::ZERO; 20];
    h_env[0] = Complex::new(0.08, -0.05);
    for (i, t) in h_env.iter_mut().enumerate().skip(1) {
        let a = 0.004 * (-(i as f64) / 5.0).exp();
        *t = Complex::new(a, -a * 0.5);
    }
    let mut y = filter(&h_env, &x);
    add_noise(&mut rng, &mut y, 1e-9);
    let c = SelfInterferenceCanceller::new(CancellerConfig::default(), &h_env);

    c.process(&x, &y, 0..320).expect("digital stage trains");
    let count = |name| backfi_obs::snapshot().span(name).map_or(0, |s| s.count);
    assert_eq!(count("sic.digital.train"), 1);
    assert_eq!(count("sic.digital.apply"), 1);
}
