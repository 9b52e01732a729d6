//! The self-interference channel `h_env`.
//!
//! What the reader receives of its **own** transmission (Eq. 1's
//! `x ∗ h_env` term) consists of:
//!
//! 1. direct circulator/antenna leakage — strong (≈ −20 dB of TX power) and
//!    nearly immediate,
//! 2. environmental reflections (walls, furniture) — weaker but spread over
//!    many taps, with a long exponential tail.
//!
//! The tail matters: a digital canceller with `K` taps cannot model energy
//! beyond tap `K`, and that *undermodelling* residue is what leaves the
//! ≈2 dB post-cancellation SNR degradation the paper measures in Fig. 11a.

use crate::budget::{dbm_to_lin, LinkBudget};
use backfi_dsp::noise::cgauss;
use backfi_dsp::rng::Rng;
use backfi_dsp::Complex;

/// Configuration for drawing `h_env` realizations.
#[derive(Clone, Copy, Debug)]
pub struct EnvironmentProfile {
    /// Total number of taps of the true environment response.
    pub taps: usize,
    /// Delay (in taps) of the leakage path.
    pub leakage_delay: usize,
    /// Exponential decay constant (taps) of the reflection tail.
    pub reflection_decay: f64,
    /// First reflection arrival (taps).
    pub reflection_start: usize,
}

impl Default for EnvironmentProfile {
    fn default() -> Self {
        EnvironmentProfile {
            taps: 24,
            leakage_delay: 0,
            reflection_decay: 3.0,
            reflection_start: 1,
        }
    }
}

impl EnvironmentProfile {
    /// Draw a realization of `h_env` scaled according to the link budget:
    /// the leakage tap carries `budget.leakage_db` of the TX power and the
    /// reflection taps collectively carry `budget.reflections_db`.
    pub fn realize<R: Rng + ?Sized>(&self, budget: &LinkBudget, rng: &mut R) -> Vec<Complex> {
        assert!(
            self.leakage_delay < self.taps,
            "leakage beyond channel length"
        );
        let mut h = vec![Complex::ZERO; self.taps];

        // Leakage: fixed power, random phase (cable lengths).
        let leak_amp = dbm_to_lin(budget.leakage_db).sqrt();
        let phase = rng.next_f64() * std::f64::consts::TAU;
        h[self.leakage_delay] = Complex::from_polar(leak_amp, phase);

        // Reflections: Rayleigh taps under an exponential profile, normalized
        // to the budgeted total power.
        let total_refl = dbm_to_lin(budget.reflections_db);
        let weights: Vec<f64> = (self.reflection_start..self.taps)
            .map(|i| (-(i as f64 - self.reflection_start as f64) / self.reflection_decay).exp())
            .collect();
        let wsum: f64 = weights.iter().sum();
        for (j, i) in (self.reflection_start..self.taps).enumerate() {
            let var = total_refl * weights[j] / wsum;
            h[i] += cgauss(rng, var);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use backfi_dsp::rng::SplitMix64;

    #[test]
    fn leakage_dominates() {
        let mut rng = SplitMix64::new(1);
        let budget = LinkBudget::default();
        let h = EnvironmentProfile::default().realize(&budget, &mut rng);
        let leak = h[0].norm_sqr();
        let rest: f64 = h[1..].iter().map(|t| t.norm_sqr()).sum();
        assert!(leak > rest * 10.0, "leak {leak} rest {rest}");
    }

    #[test]
    fn total_si_power_matches_budget() {
        let mut rng = SplitMix64::new(2);
        let budget = LinkBudget::default();
        let profile = EnvironmentProfile::default();
        let n = 300;
        let mut total = 0.0;
        for _ in 0..n {
            let h = profile.realize(&budget, &mut rng);
            total += h.iter().map(|t| t.norm_sqr()).sum::<f64>();
        }
        let mean = total / n as f64;
        let expect = dbm_to_lin(budget.leakage_db) + dbm_to_lin(budget.reflections_db);
        assert!(
            (mean / expect - 1.0).abs() < 0.1,
            "mean {mean} expect {expect}"
        );
    }

    #[test]
    fn undermodelled_tail_would_swamp_the_tag() {
        // A canceller that models only half the environment response leaves a
        // residue tens of dB above the noise floor — which is why the digital
        // canceller must span the full delay spread, and why the remaining
        // ≈2 dB degradation comes from transmitter noise instead (see
        // `LinkBudget::tx_noise_dbc`).
        let mut rng = SplitMix64::new(4);
        let budget = LinkBudget::default();
        let profile = EnvironmentProfile::default();
        let mut fracs = Vec::new();
        for _ in 0..100 {
            let h = profile.realize(&budget, &mut rng);
            let tail: f64 = h[12..].iter().map(|t| t.norm_sqr()).sum();
            fracs.push(tail * budget.tx_power());
        }
        let mean_tail = backfi_dsp::stats::mean(&fracs);
        let ratio_db = 10.0 * (mean_tail / budget.noise_power()).log10();
        assert!(ratio_db > 30.0, "tail-to-noise ratio {ratio_db} dB");
    }
}
