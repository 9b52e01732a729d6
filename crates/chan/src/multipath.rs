//! Tapped-delay-line multipath channel realizations.
//!
//! Indoor 2.4 GHz channels have delay spreads of 50–80 ns (§4.3.2 of the
//! paper: "a channel usually lasts for 50−80 ns"), i.e. 1–2 samples at
//! 20 MHz plus a weak tail. We synthesize channels with an exponential power
//! delay profile: a Rician first tap (LOS) followed by Rayleigh taps.

use backfi_dsp::noise::cgauss;
use backfi_dsp::rng::Rng;
use backfi_dsp::Complex;

/// Parameters of a multipath channel realization.
#[derive(Clone, Copy, Debug)]
pub struct MultipathProfile {
    /// Number of taps (at 20 MHz, 50 ns each).
    pub taps: usize,
    /// RMS decay of the exponential power delay profile, in taps.
    pub decay_taps: f64,
    /// Rician K-factor of the first tap in dB (`f64::NEG_INFINITY` for pure
    /// Rayleigh).
    pub rician_k_db: f64,
}

impl MultipathProfile {
    /// Typical indoor LOS profile for the tag link: short, LOS-dominated.
    pub fn indoor_los() -> Self {
        MultipathProfile {
            taps: 2,
            decay_taps: 0.7,
            rician_k_db: 8.0,
        }
    }

    /// Richer non-LOS profile (e.g. reflections off walls).
    pub fn indoor_nlos() -> Self {
        MultipathProfile {
            taps: 4,
            decay_taps: 1.2,
            rician_k_db: f64::NEG_INFINITY,
        }
    }

    /// Draw one unit-energy channel realization.
    ///
    /// The expected (and, after normalization, exact) total energy is 1, so
    /// the link budget's amplitude scaling fully controls received power.
    pub fn realize<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<Complex> {
        assert!(self.taps >= 1, "need at least one tap");
        let mut h = Vec::with_capacity(self.taps);
        // Per-tap variance from the exponential PDP.
        let weights: Vec<f64> = (0..self.taps)
            .map(|i| (-(i as f64) / self.decay_taps.max(1e-6)).exp())
            .collect();
        let wsum: f64 = weights.iter().sum();
        for (i, w) in weights.iter().enumerate() {
            let var = w / wsum;
            let mut tap = cgauss(rng, var);
            if i == 0 && self.rician_k_db.is_finite() {
                // Rician: deterministic LOS component + scattered component.
                let k = 10f64.powf(self.rician_k_db / 10.0);
                let los = (var * k / (k + 1.0)).sqrt();
                let scatter_scale = (1.0 / (k + 1.0)).sqrt();
                let phase = rng.next_f64() * std::f64::consts::TAU;
                tap = Complex::from_polar(los, phase) + tap.scale(scatter_scale);
            }
            h.push(tap);
        }
        // Normalize to exactly unit energy so experiments are repeatable in
        // power even for short channels.
        let e: f64 = h.iter().map(|t| t.norm_sqr()).sum();
        let s = 1.0 / e.sqrt();
        for t in &mut h {
            *t *= s;
        }
        h
    }
}

/// Scale an impulse response by a linear amplitude (utility for applying a
/// link-budget gain to a unit-energy realization).
pub fn scaled(h: &[Complex], amplitude: f64) -> Vec<Complex> {
    h.iter().map(|t| t.scale(amplitude)).collect()
}

/// Convolve two impulse responses (e.g. `h_f ∗ h_b`, the combined channel the
/// reader estimates in §4.3.1).
pub fn cascade(a: &[Complex], b: &[Complex]) -> Vec<Complex> {
    backfi_dsp::fir::convolve(a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use backfi_dsp::rng::SplitMix64;

    #[test]
    fn unit_energy() {
        let mut rng = SplitMix64::new(1);
        for profile in [
            MultipathProfile::indoor_los(),
            MultipathProfile::indoor_nlos(),
        ] {
            for _ in 0..50 {
                let h = profile.realize(&mut rng);
                let e: f64 = h.iter().map(|t| t.norm_sqr()).sum();
                assert!((e - 1.0).abs() < 1e-12);
                assert_eq!(h.len(), profile.taps);
            }
        }
    }

    #[test]
    fn los_tap_dominates_with_high_k() {
        let mut rng = SplitMix64::new(2);
        let p = MultipathProfile {
            taps: 4,
            decay_taps: 1.0,
            rician_k_db: 20.0,
        };
        let mut first_tap_energy = 0.0;
        let n = 200;
        for _ in 0..n {
            let h = p.realize(&mut rng);
            first_tap_energy += h[0].norm_sqr();
        }
        assert!(first_tap_energy / n as f64 > 0.5, "LOS tap should dominate");
    }

    #[test]
    fn rayleigh_taps_vary_between_draws() {
        let mut rng = SplitMix64::new(3);
        let p = MultipathProfile::indoor_nlos();
        let a = p.realize(&mut rng);
        let b = p.realize(&mut rng);
        assert!((a[0] - b[0]).abs() > 1e-6);
    }

    #[test]
    fn cascade_length() {
        let a = vec![Complex::ONE; 3];
        let b = vec![Complex::ONE; 4];
        assert_eq!(cascade(&a, &b).len(), 6);
    }

    #[test]
    fn scaled_energy() {
        let mut rng = SplitMix64::new(4);
        let h = MultipathProfile::indoor_los().realize(&mut rng);
        let s = scaled(&h, 0.1);
        let e: f64 = s.iter().map(|t| t.norm_sqr()).sum();
        assert!((e - 0.01).abs() < 1e-12);
    }

    #[test]
    fn deterministic_under_seed() {
        let p = MultipathProfile::indoor_nlos();
        let a = p.realize(&mut SplitMix64::new(9));
        let b = p.realize(&mut SplitMix64::new(9));
        assert_eq!(a, b);
    }
}
