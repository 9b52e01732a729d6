//! The composed backscatter medium — the paper's Eq. 1/3.
//!
//! Everything between the reader's DAC and its ADC input:
//!
//! ```text
//! y(t) = (x(t)+n_tx(t)) ∗ h_env(t)
//!      + [ (x(t) ∗ h_f(t)) · Γ(t) ] ∗ h_b(t)
//!      + n(t)
//! ```
//!
//! where `Γ(t)` is the tag's per-sample reflection coefficient: `0` when the
//! tag absorbs (silent mode) and `e^{jθ(t)}` while modulating. `n_tx` is
//! broadband transmitter noise, present on the self-interference path but not
//! in the canceller's clean reference — the factor that bounds cancellation.
//! `n_tx` and `n` each draw from their own [`NoiseStream`], derived from the
//! deployment seed, so neither source's draws move the other's.
//!
//! The medium also exposes its ground-truth channels, playing the role of the
//! vector network analyzer the paper uses for the Fig. 11a comparison.

use crate::budget::LinkBudget;
use crate::environment::EnvironmentProfile;
use crate::multipath::{cascade, scaled, MultipathProfile};
use backfi_dsp::fir::{filter, filter_into};
use backfi_dsp::noise::NoiseStream;
use backfi_dsp::rng::SplitMix64;
use backfi_dsp::{stats, Complex};

/// Geometry and propagation profiles of one reader/tag deployment.
#[derive(Clone, Copy, Debug)]
pub struct MediumConfig {
    /// Reader ↔ tag distance in metres.
    pub distance_m: f64,
    /// Multipath profile of the forward (reader→tag) channel.
    pub forward: MultipathProfile,
    /// Multipath profile of the backward (tag→reader) channel.
    pub backward: MultipathProfile,
    /// Environment (self-interference) profile.
    pub environment: EnvironmentProfile,
}

impl MediumConfig {
    /// Typical deployment at `distance_m` with LOS tag channels.
    pub fn at_distance(distance_m: f64) -> Self {
        MediumConfig {
            distance_m,
            forward: MultipathProfile::indoor_los(),
            backward: MultipathProfile::indoor_los(),
            environment: EnvironmentProfile::default(),
        }
    }
}

/// Reusable buffers for [`BackscatterMedium::propagate_into`]: `signal`
/// holds the TX-plus-noise wave and then the tag-modulated wave, `back` the
/// backward leg's output. A caller that propagates many times keeps one so
/// each propagation reuses their capacity instead of allocating.
#[derive(Debug, Default)]
pub struct PropagateScratch {
    signal: Vec<Complex>,
    back: Vec<Complex>,
}

/// One realized deployment: channels are drawn once (they are "time invariant
/// for the duration of the tag packet", §4.3) and reused for every
/// propagation through this medium.
#[derive(Clone, Debug)]
pub struct BackscatterMedium {
    budget: LinkBudget,
    /// True self-interference response (ground truth for experiments).
    pub h_env: Vec<Complex>,
    /// True forward channel, link-budget-scaled.
    pub h_f: Vec<Complex>,
    /// True backward channel, link-budget-scaled.
    pub h_b: Vec<Complex>,
    /// Transmitter noise `n_tx`.
    tx_noise: NoiseStream,
    /// Thermal noise `n` at the receive port.
    thermal: NoiseStream,
}

/// Salt of the noise sub-stream seeds, apart from the channel draws on
/// `seed` itself and the impairment streams.
const NOISE_SALT: u64 = 0x6e6f_6973_6553_706c; // b"noiseSpl"

impl BackscatterMedium {
    /// Draw a deployment. The same `seed` reproduces the same channels and
    /// noise sequences: the channels draw from `SplitMix64::new(seed)`, the
    /// transmitter and thermal noise from the sub-streams
    /// `derive(seed ^ NOISE_SALT, 0)` and `derive(seed ^ NOISE_SALT, 1)`.
    pub fn new(budget: LinkBudget, cfg: MediumConfig, seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed);
        let h_env = cfg.environment.realize(&budget, &mut rng);
        // Split the two-way gain evenly (in dB) between the legs.
        let leg_amp = budget.backscatter_amplitude(cfg.distance_m).sqrt();
        let h_f = scaled(&cfg.forward.realize(&mut rng), leg_amp);
        let h_b = scaled(&cfg.backward.realize(&mut rng), leg_amp);
        let noise = |k| NoiseStream::new(SplitMix64::derive(seed ^ NOISE_SALT, k));
        BackscatterMedium {
            budget,
            h_env,
            h_f,
            h_b,
            tx_noise: noise(0),
            thermal: noise(1),
        }
    }

    /// The combined forward∗backward channel — what a VNA would measure and
    /// what the reader's preamble-based estimator targets (§4.3.1).
    pub fn h_fb_true(&self) -> Vec<Complex> {
        cascade(&self.h_f, &self.h_b)
    }

    /// Ideal post-MRC-input backscatter SNR per sample in dB: received tag
    /// power over the thermal floor, assuming perfect cancellation. This is
    /// the "expected SNR" axis of Fig. 11a.
    pub fn expected_backscatter_snr_db(&self) -> f64 {
        let e_fb: f64 = self.h_fb_true().iter().map(|t| t.norm_sqr()).sum();
        stats::db(self.budget.tx_power() * e_fb / self.budget.noise_power())
    }

    /// Propagate one transmission.
    ///
    /// * `x` — unit-power baseband samples from the WiFi transmitter,
    /// * `gamma` — the tag's reflection coefficient per sample (must be at
    ///   least as long as `x`; zero = absorbing/silent).
    ///
    /// Returns the signal at the reader's receive port (before analog
    /// cancellation and the ADC). Length equals `x.len()` plus the channel
    /// tails. Allocating wrapper over [`Self::propagate_into`]: scales `x`
    /// to the TX amplitude and convolves it with `h_f` over the full output
    /// length, so a `gamma` longer than `x` also modulates the `h_f` tail.
    ///
    /// # Panics
    /// Panics if `gamma` is shorter than `x`.
    pub fn propagate(&mut self, x: &[Complex], gamma: &[Complex]) -> Vec<Complex> {
        assert!(
            gamma.len() >= x.len(),
            "gamma must cover the whole excitation"
        );
        let a = self.budget.tx_power().sqrt();
        let x_scaled: Vec<Complex> = x.iter().map(|&v| v * a).collect();
        let mut padded = x_scaled.clone();
        padded.resize(self.out_len(x.len()), Complex::ZERO);
        let incident = filter(&self.h_f, &padded);
        let mut y = Vec::new();
        self.propagate_into(
            &x_scaled,
            &incident,
            gamma,
            &mut PropagateScratch::default(),
            &mut y,
        );
        y
    }

    /// Length of the received signal for an `n`-sample excitation: `n` plus
    /// the longest channel tail.
    fn out_len(&self, n: usize) -> usize {
        n + self.h_env.len().max(self.h_f.len() + self.h_b.len())
    }

    /// [`Self::propagate`] from the wave the tag already saw, into `y`.
    ///
    /// * `x_scaled` — the excitation at TX amplitude (`√P_tx · x`),
    /// * `incident` — `h_f ∗ x_scaled`, the wave at the tag's antenna (at
    ///   least `x_scaled.len()` samples; a longer one carries the `h_f` tail),
    /// * `gamma` — the tag's reflection coefficient per sample (at least as
    ///   long as `x_scaled`).
    ///
    /// The backscatter path modulates `incident[i]·gamma[i]` wherever both
    /// exist, so `h_f` is convolved once per trial (by the caller, for the
    /// tag) and the scaled excitation is never rebuilt. `y` is cleared and
    /// refilled with `x_scaled.len()` plus the longest channel tail samples;
    /// `scratch` holds the intermediate signals. Every buffer is overwritten before it is read,
    /// so reusing them across trials changes no output bit.
    ///
    /// # Panics
    /// Panics if `gamma` or `incident` is shorter than `x_scaled`.
    pub fn propagate_into(
        &mut self,
        x_scaled: &[Complex],
        incident: &[Complex],
        gamma: &[Complex],
        scratch: &mut PropagateScratch,
        y: &mut Vec<Complex>,
    ) {
        let n = x_scaled.len();
        assert!(gamma.len() >= n, "gamma must cover the whole excitation");
        assert!(
            incident.len() >= n,
            "incident must cover the whole excitation"
        );
        let out_len = self.out_len(n);
        let PropagateScratch { signal, back } = scratch;

        // Self-interference path: (a·x + n_tx) ∗ h_env.
        let tx_noise_power =
            self.budget.tx_power() * crate::budget::dbm_to_lin(self.budget.tx_noise_dbc);
        signal.clear();
        signal.reserve(out_len);
        signal.extend_from_slice(x_scaled);
        self.tx_noise.add_noise(signal, tx_noise_power);
        signal.resize(out_len, Complex::ZERO);
        filter_into(&self.h_env, signal, y);

        // Backscatter path: ((a·x) ∗ h_f) · Γ ∗ h_b, reusing the TX buffer
        // for the modulated wave.
        let modulated = incident.len().min(gamma.len()).min(out_len);
        signal.clear();
        signal.extend(
            incident[..modulated]
                .iter()
                .zip(&gamma[..modulated])
                .map(|(&v, &g)| v * g),
        );
        signal.resize(out_len, Complex::ZERO);
        filter_into(&self.h_b, signal, back);
        for (a, b) in y.iter_mut().zip(back.iter()) {
            *a += *b;
        }

        // Thermal noise.
        self.thermal.add_noise(y, self.budget.noise_power());
    }

    /// The link budget this medium was built with.
    pub fn budget(&self) -> &LinkBudget {
        &self.budget
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic wideband unit-power probe (a tone would fade in
    /// frequency-selective channels and make power checks meaningless).
    fn unit_tone(n: usize) -> Vec<Complex> {
        let mut r = SplitMix64::new(0xFEED);
        (0..n)
            .map(|_| Complex::exp_j(r.next_f64() * std::f64::consts::TAU))
            .collect()
    }

    #[test]
    fn silent_tag_leaves_only_environment() {
        let budget = LinkBudget::default();
        let mut m = BackscatterMedium::new(budget, MediumConfig::at_distance(1.0), 7);
        let x = unit_tone(2000);
        // A fully absorbing tag (all-zero Γ): the environment alone.
        let y = m.propagate(&x, &vec![Complex::ZERO; x.len()]);
        // Received power ≈ TX power × |h_env|² (leakage dominates).
        let e_env: f64 = m.h_env.iter().map(|t| t.norm_sqr()).sum();
        let expect = budget.tx_power() * e_env;
        let got = stats::mean_power(&y[..x.len()]);
        let ratio_db = stats::db(got / expect);
        assert!(ratio_db.abs() < 1.0, "ratio {ratio_db} dB");
    }

    #[test]
    fn backscatter_power_matches_budget() {
        let budget = LinkBudget::default();
        let d = 1.0;
        let x = unit_tone(4000);
        let gamma = vec![Complex::ONE; x.len()];
        // Average over deployments: a single channel realization fades.
        let mut acc = 0.0;
        let seeds = 12;
        for seed in 0..seeds {
            let mut m = BackscatterMedium::new(budget, MediumConfig::at_distance(d), seed);
            let with_tag = m.propagate(&x, &gamma);
            // Rebuild the same medium to get identical noise, then subtract.
            let mut m2 = BackscatterMedium::new(budget, MediumConfig::at_distance(d), seed);
            let silent = m2.propagate(&x, &vec![Complex::ZERO; x.len()]);
            let tag_only: Vec<Complex> =
                with_tag.iter().zip(&silent).map(|(a, b)| *a - *b).collect();
            acc += stats::mean_power(&tag_only[..x.len()]);
        }
        let expect_db = budget.backscatter_rx_power_dbm(d);
        let got_db = stats::db(acc / seeds as f64);
        assert!(
            (got_db - expect_db).abs() < 2.0,
            "got {got_db} dBm expect {expect_db} dBm"
        );
    }

    #[test]
    fn expected_snr_close_to_budget_snr() {
        let budget = LinkBudget::default();
        for d in [0.5, 1.0, 3.0, 5.0] {
            let m = BackscatterMedium::new(budget, MediumConfig::at_distance(d), 3);
            let got = m.expected_backscatter_snr_db();
            let nominal = budget.backscatter_snr_db(d);
            assert!(
                (got - nominal).abs() < 3.0,
                "d={d}: got {got} nominal {nominal}"
            );
        }
    }

    #[test]
    fn tag_signal_is_buried_under_si() {
        // §3.1: the self-interference "would end up completely drowning the
        // backscatter signal" — verify the simulated medium reproduces that
        // dynamic-range problem.
        let budget = LinkBudget::default();
        let mut m = BackscatterMedium::new(budget, MediumConfig::at_distance(1.0), 5);
        let x = unit_tone(2000);
        let gamma = vec![Complex::ONE; x.len()];
        let y = m.propagate(&x, &gamma);
        let total = stats::mean_power(&y[..x.len()]);
        let tag_dbm = budget.backscatter_rx_power_dbm(1.0);
        assert!(
            stats::db(total) - tag_dbm > 50.0,
            "SI should dominate by >50 dB"
        );
    }

    #[test]
    fn propagate_into_matches_propagate_with_reused_buffers() {
        // The link's form: the tag's incident wave `h_f ∗ (a·x)` over the
        // excitation only, Γ as long as x. Bit-identical to `propagate`,
        // also when the scratch and output carry a longer earlier signal.
        let budget = LinkBudget::default();
        let a = budget.tx_power().sqrt();
        let mut scratch = PropagateScratch::default();
        let mut y = Vec::new();
        for (seed, n) in [(1u64, 3000usize), (2, 700), (3, 1500)] {
            let x = unit_tone(n);
            let gamma: Vec<Complex> = (0..n)
                .map(|i| Complex::exp_j(i as f64 * 0.37) * ((i / 40) % 2) as f64)
                .collect();
            let cfg = MediumConfig::at_distance(1.5);
            let want = BackscatterMedium::new(budget, cfg, seed).propagate(&x, &gamma);
            let mut m = BackscatterMedium::new(budget, cfg, seed);
            let x_scaled: Vec<Complex> = x.iter().map(|&v| v * a).collect();
            let incident = filter(&m.h_f, &x_scaled);
            m.propagate_into(&x_scaled, &incident, &gamma, &mut scratch, &mut y);
            assert_eq!(y.len(), want.len());
            for (p, q) in y.iter().zip(&want) {
                assert_eq!(
                    (p.re.to_bits(), p.im.to_bits()),
                    (q.re.to_bits(), q.im.to_bits())
                );
            }
        }
    }

    #[test]
    fn tx_and_thermal_noise_draw_their_own_sub_streams() {
        // With a silent excitation the received wave is n_tx ∗ h_env + n,
        // and each term is rebuilt from its own sub-stream alone.
        let budget = LinkBudget::default();
        let seed = 21;
        let n = 777;
        let mut m = BackscatterMedium::new(budget, MediumConfig::at_distance(1.0), seed);
        let y = m.propagate(&vec![Complex::ZERO; n], &vec![Complex::ONE; n]);
        let stream = |k| NoiseStream::new(SplitMix64::derive(seed ^ NOISE_SALT, k));
        let mut tx = vec![Complex::ZERO; n];
        let tx_power = budget.tx_power() * crate::budget::dbm_to_lin(budget.tx_noise_dbc);
        stream(0).add_noise(&mut tx, tx_power);
        tx.resize(y.len(), Complex::ZERO);
        let mut want = filter(&m.h_env, &tx);
        stream(1).add_noise(&mut want, budget.noise_power());
        assert_eq!(y, want);
    }

    #[test]
    fn deterministic_per_seed() {
        let budget = LinkBudget::default();
        let x = unit_tone(500);
        let gamma = vec![Complex::ONE; x.len()];
        let mut a = BackscatterMedium::new(budget, MediumConfig::at_distance(2.0), 99);
        let mut b = BackscatterMedium::new(budget, MediumConfig::at_distance(2.0), 99);
        assert_eq!(a.propagate(&x, &gamma), b.propagate(&x, &gamma));
    }

    #[test]
    fn gamma_modulation_shows_up_in_output() {
        let budget = LinkBudget::default();
        let x = unit_tone(1000);
        let mut m1 = BackscatterMedium::new(budget, MediumConfig::at_distance(0.5), 11);
        let mut m2 = BackscatterMedium::new(budget, MediumConfig::at_distance(0.5), 11);
        let g1 = vec![Complex::ONE; x.len()];
        let g2: Vec<Complex> = (0..x.len())
            .map(|i| {
                if i % 2 == 0 {
                    Complex::ONE
                } else {
                    -Complex::ONE
                }
            })
            .collect();
        let y1 = m1.propagate(&x, &g1);
        let y2 = m2.propagate(&x, &g2);
        let diff: f64 = y1.iter().zip(&y2).map(|(a, b)| (*a - *b).norm_sqr()).sum();
        assert!(
            diff > 0.0,
            "different tag data must change the received signal"
        );
    }

    #[test]
    #[should_panic(expected = "gamma")]
    fn rejects_short_gamma() {
        let budget = LinkBudget::default();
        let mut m = BackscatterMedium::new(budget, MediumConfig::at_distance(1.0), 1);
        let x = unit_tone(100);
        let gamma = vec![Complex::ONE; 50];
        m.propagate(&x, &gamma);
    }
}
