//! The analog RF cancellation stage.
//!
//! A bank of fixed-delay lines with tunable attenuators/phase shifters
//! ("implemented using a combination of RF FIR filters and couplers", §4.2).
//! Its sole job is to bring the self-interference inside the ADC's dynamic
//! range; precision is limited by the control DACs, so it "cannot completely
//! eliminate self-interference due to the imprecision of analog components".
//!
//! We model a converged tuning loop: the canceller taps equal the first
//! `taps` of the true environment response, quantized to `control_bits` of
//! amplitude/phase resolution — which caps its cancellation depth at roughly
//! `6·control_bits` dB.

use backfi_dsp::Complex;

/// The analog canceller.
#[derive(Clone, Debug)]
pub struct AnalogCanceller {
    taps: Vec<Complex>,
}

/// Configuration of the analog stage.
#[derive(Clone, Copy, Debug)]
pub struct AnalogConfig {
    /// Number of RF delay taps (boards typically have 8–16).
    pub taps: usize,
    /// Control-DAC resolution in bits for each of I and Q per tap.
    pub control_bits: u32,
}

impl Default for AnalogConfig {
    fn default() -> Self {
        // 16 taps like the SIGCOMM'13 analog board [12]: enough delay span
        // to cover the bulk of the reflection tail, so the post-analog
        // residual fits a 12-bit ADC without its quantization noise raising
        // the post-digital floor.
        AnalogConfig {
            taps: 16,
            control_bits: 8,
        }
    }
}

impl AnalogCanceller {
    /// Tune against a known environment response (represents the converged
    /// state of the board's tuning algorithm). Taps beyond `cfg.taps` are
    /// left for the digital stage.
    pub fn tuned(h_env: &[Complex], cfg: AnalogConfig) -> Self {
        let n = cfg.taps.min(h_env.len());
        // Quantization grid scaled to the largest tap.
        let max_mag = h_env[..n]
            .iter()
            .map(|t| t.re.abs().max(t.im.abs()))
            .fold(0.0, f64::max)
            .max(1e-30);
        let step = max_mag / (1u64 << cfg.control_bits) as f64;
        let taps = h_env[..n]
            .iter()
            .map(|t| Complex::new((t.re / step).round() * step, (t.im / step).round() * step))
            .collect();
        AnalogCanceller { taps }
    }

    /// A disabled canceller (all-zero taps) for ablation experiments.
    pub fn disabled() -> Self {
        AnalogCanceller {
            taps: vec![Complex::ZERO],
        }
    }

    /// The canceller's FIR taps.
    pub fn taps(&self) -> &[Complex] {
        &self.taps
    }

    /// Subtract the canceller's reconstruction of the self-interference from
    /// the received signal. `x_clean` is the transmitted baseband (the RF
    /// coupler's copy); both slices must be the same length. Allocating
    /// wrapper over `cancel_extend`.
    pub fn cancel(&self, x_clean: &[Complex], y_rx: &[Complex]) -> Vec<Complex> {
        assert_eq!(x_clean.len(), y_rx.len(), "length mismatch");
        let mut out = Vec::new();
        self.cancel_extend(x_clean, y_rx, x_clean.len(), &mut out);
        out
    }

    /// [`AnalogCanceller::cancel`] in extending prefixes: appends the
    /// post-analog samples `out.len()..end` to `out`, filtering the model
    /// into `out` and then subtracting it from `y_rx` in place. The model is
    /// a causal filter of `x_clean` ([`backfi_dsp::fir::filter_extend`]), so
    /// each appended sample is bit-identical to the same sample of the
    /// whole-packet `cancel`; `y_rx` needs to reach only `end`. A no-op
    /// when `end <= out.len()`.
    pub(crate) fn cancel_extend(
        &self,
        x_clean: &[Complex],
        y_rx: &[Complex],
        end: usize,
        out: &mut Vec<Complex>,
    ) {
        let start = out.len();
        if end <= start {
            return;
        }
        let _t = backfi_obs::span("sic.analog.fir");
        backfi_dsp::fir::filter_extend(&self.taps, x_clean, end, out);
        for (m, y) in out[start..].iter_mut().zip(&y_rx[start..end]) {
            *m = *y - *m;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use backfi_dsp::fir::filter;
    use backfi_dsp::noise::cgauss_vec;
    use backfi_dsp::rng::SplitMix64;
    use backfi_dsp::stats::{db, mean_power};

    fn env_channel() -> Vec<Complex> {
        vec![
            Complex::new(0.09, -0.03), // leakage ~ -20 dB
            Complex::new(0.004, 0.002),
            Complex::new(-0.002, 0.003),
            Complex::new(0.001, -0.001),
        ]
    }

    #[test]
    fn cancellation_depth_limited_by_control_bits() {
        let h = env_channel();
        let mut rng = SplitMix64::new(1);
        let x = cgauss_vec(&mut rng, 5000, 1.0);
        let y = filter(&h, &x);
        for (bits, min_db, max_db) in [(6u32, 25.0, 50.0), (8, 38.0, 62.0), (10, 50.0, 75.0)] {
            let c = AnalogCanceller::tuned(
                &h,
                AnalogConfig {
                    taps: 8,
                    control_bits: bits,
                },
            );
            let out = c.cancel(&x, &y);
            let depth = db(mean_power(&y) / mean_power(&out));
            assert!(
                depth > min_db && depth < max_db,
                "{bits} bits: depth {depth} dB"
            );
        }
    }

    #[test]
    fn more_bits_cancel_deeper() {
        let h = env_channel();
        let mut rng = SplitMix64::new(2);
        let x = cgauss_vec(&mut rng, 5000, 1.0);
        let y = filter(&h, &x);
        let mut prev = 0.0;
        for bits in [4u32, 6, 8, 10] {
            let c = AnalogCanceller::tuned(
                &h,
                AnalogConfig {
                    taps: 8,
                    control_bits: bits,
                },
            );
            let out = c.cancel(&x, &y);
            let depth = db(mean_power(&y) / mean_power(&out));
            assert!(depth > prev, "bits {bits}: {depth} <= {prev}");
            prev = depth;
        }
    }

    #[test]
    fn disabled_is_identity() {
        let mut rng = SplitMix64::new(3);
        let x = cgauss_vec(&mut rng, 100, 1.0);
        let y = cgauss_vec(&mut rng, 100, 1.0);
        let c = AnalogCanceller::disabled();
        let out = c.cancel(&x, &y);
        for (a, b) in out.iter().zip(&y) {
            assert!((*a - *b).abs() < 1e-15);
        }
    }

    #[test]
    fn leaves_late_taps_alone() {
        // Taps beyond the analog board's reach stay for the digital stage.
        let mut h = vec![Complex::ZERO; 12];
        h[0] = Complex::new(0.1, 0.0);
        h[10] = Complex::new(0.01, 0.01); // beyond this board's 8 taps
        let cfg = AnalogConfig {
            taps: 8,
            control_bits: 8,
        };
        let c = AnalogCanceller::tuned(&h, cfg);
        assert_eq!(c.taps().len(), 8);
        let mut rng = SplitMix64::new(4);
        let x = cgauss_vec(&mut rng, 3000, 1.0);
        let y = filter(&h, &x);
        let out = c.cancel(&x, &y);
        // Residual dominated by the late tap's power (~1e-4·2)
        let res = mean_power(&out);
        assert!(res > 1e-4, "late tap should survive analog stage: {res:e}");
    }
}
