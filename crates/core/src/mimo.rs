//! Multi-antenna BackFi AP (§7, future work made real).
//!
//! "BackFi's range and throughput can be enhanced further with the use of
//! multiple antennas at the WiFi APs since multiple antennas at the AP
//! provides additional diversity combining gain. … We can then perform MRC
//! combining for the signals received across space, providing BackFi with
//! better SNR."
//!
//! Each receive antenna sees its own backward channel and its own
//! self-interference environment; cancellation and channel estimation run
//! per branch, and the per-symbol estimates are combined across space in the
//! reader's [`decode_mimo`](backfi_reader::reader::BackscatterReader::decode_mimo).
//! Every branch cancels against the excitation's one shared TX-scaled
//! reference ([`Excitation::scaled`]), as a single-antenna link does, so
//! the reference is checked for non-finite samples once, when it is built.

use crate::excitation::Excitation;
use crate::link::LinkConfig;
use backfi_chan::environment::EnvironmentProfile;
use backfi_chan::multipath::scaled;
use backfi_dsp::fir::filter;
use backfi_dsp::noise::add_noise;
use backfi_dsp::rng::SplitMix64;
use backfi_dsp::Complex;
use backfi_reader::reader::BackscatterReader;
use backfi_reader::Timeline;
use backfi_tag::framer::TagFrame;
use backfi_tag::Tag;

/// Outcome of one multi-antenna exchange.
#[derive(Clone, Debug)]
pub struct MimoReport {
    /// Whether the combined decode recovered the payload.
    pub success: bool,
    /// Combined decision-directed symbol SNR, dB.
    pub snr_db: f64,
}

/// A reader with `n_antennas` receive chains.
pub struct MimoLinkSimulator {
    cfg: LinkConfig,
    n_antennas: usize,
}

impl MimoLinkSimulator {
    /// Create a simulator; `n_antennas ≥ 1`.
    pub fn new(cfg: LinkConfig, n_antennas: usize) -> Self {
        assert!(n_antennas >= 1, "need at least one antenna");
        MimoLinkSimulator { cfg, n_antennas }
    }

    /// Run one exchange.
    pub fn run(&self, seed: u64) -> MimoReport {
        let cfg = &self.cfg;
        let exc = Excitation::cached(&cfg.excitation);
        let reference = exc.scaled(cfg.budget.tx_power().sqrt());
        let xs = reference.samples();

        let mut rng = SplitMix64::new(seed);

        // Shared forward channel (one TX antenna), split two-way gain.
        let leg_amp = cfg.budget.backscatter_amplitude(cfg.distance_m).sqrt();
        let h_f = scaled(
            &backfi_chan::multipath::MultipathProfile::indoor_los().realize(&mut rng),
            leg_amp,
        );

        // Tag reacts once to the forward signal.
        let airtime = backfi_dsp::samples_to_us(exc.samples.len() - exc.detect_end);
        let len = TagFrame::max_payload_bytes(&cfg.tag, airtime).clamp(1, 128);
        let sent: Vec<u8> = (0..len).map(|i| (seed as usize + i * 7) as u8).collect();
        let mut tag = Tag::new(cfg.excitation.tag_id, cfg.tag);
        tag.load_data(&sent);
        let incident = filter(&h_f, xs);
        let gamma = tag.react(&incident);

        // Per-antenna: independent backward channel + environment + noise.
        let env_profile = EnvironmentProfile::default();
        let tx_noise_power =
            cfg.budget.tx_power() * backfi_chan::budget::dbm_to_lin(cfg.budget.tx_noise_dbc);
        let modded: Vec<Complex> = incident.iter().zip(&gamma).map(|(v, g)| *v * *g).collect();

        let mut ys: Vec<Vec<Complex>> = Vec::with_capacity(self.n_antennas);
        let mut h_envs: Vec<Vec<Complex>> = Vec::with_capacity(self.n_antennas);
        for _ in 0..self.n_antennas {
            let h_env = env_profile.realize(&cfg.budget, &mut rng);
            let h_b = scaled(
                &backfi_chan::multipath::MultipathProfile::indoor_los().realize(&mut rng),
                leg_amp,
            );
            // SI path with uncancellable transmitter noise.
            let mut tx_sig: Vec<Complex> = xs.to_vec();
            add_noise(&mut rng, &mut tx_sig, tx_noise_power);
            let mut y = filter(&h_env, &tx_sig);
            let back = filter(&h_b, &modded);
            for (p, q) in y.iter_mut().zip(&back) {
                *p += *q;
            }
            add_noise(&mut rng, &mut y, cfg.budget.noise_power());
            ys.push(y);
            h_envs.push(h_env);
        }

        let timeline = Timeline::nominal(exc.detect_end, exc.samples.len(), &cfg.tag);
        let reader = BackscatterReader::new(cfg.reader);
        let pairs: Vec<(&[Complex], &[Complex])> = ys
            .iter()
            .zip(&h_envs)
            .map(|(y, h)| (&y[..], &h[..]))
            .collect();
        match reader.decode_mimo(&reference, &pairs, &timeline, &cfg.tag) {
            Ok(res) => MimoReport {
                success: res.payload.map(|p| p == sent).unwrap_or(false),
                snr_db: res.metrics.symbol_snr_db,
            },
            Err(_) => MimoReport {
                success: false,
                snr_db: f64::NEG_INFINITY,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(distance: f64) -> LinkConfig {
        let mut c = LinkConfig::at_distance(distance);
        c.excitation.wifi_payload_bytes = 1200;
        c
    }

    #[test]
    fn single_antenna_matches_siso_behaviour() {
        let rep = MimoLinkSimulator::new(cfg(1.0), 1).run(5);
        assert!(rep.success, "1-antenna MIMO should decode at 1 m");
    }

    #[test]
    fn more_antennas_more_snr() {
        // Averaged over ≥20 seeds (ROADMAP statistical-test convention):
        // 4 antennas should clearly beat 1.
        let mut snr1 = 0.0;
        let mut snr4 = 0.0;
        let n = 20;
        for seed in 0..n {
            snr1 += MimoLinkSimulator::new(cfg(2.0), 1).run(seed).snr_db;
            snr4 += MimoLinkSimulator::new(cfg(2.0), 4).run(seed).snr_db;
        }
        let gain = (snr4 - snr1) / n as f64;
        assert!(
            gain > 2.0,
            "expected several dB of spatial MRC gain, got {gain:.1} dB"
        );
    }

    #[test]
    fn mimo_extends_range() {
        // A configuration that fails on one antenna at long range should
        // succeed with four.
        let mut c = cfg(5.0);
        c.tag.symbol_rate_hz = 2e6;
        c.tag.modulation = backfi_tag::TagModulation::Qpsk;
        // Counted over ≥20 seeds (ROADMAP statistical-test convention).
        let n = 20;
        let mut one = 0;
        let mut four = 0;
        for seed in 0..n {
            if MimoLinkSimulator::new(c.clone(), 1).run(seed).success {
                one += 1;
            }
            if MimoLinkSimulator::new(c.clone(), 4).run(seed).success {
                four += 1;
            }
        }
        assert!(
            four > one,
            "4-antenna ({four}/{n}) should beat 1-antenna ({one}/{n})"
        );
    }
}
