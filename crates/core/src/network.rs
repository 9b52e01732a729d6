//! WiFi-network coexistence (Figs. 12b and 13).
//!
//! Does a backscattering tag hurt the WiFi network it piggybacks on? Two
//! harnesses answer that at two fidelities:
//!
//! * [`NetworkModel`] — a link-budget-level simulator for fleets of clients
//!   (Fig. 12b: 30 random configurations × 10 clients): SINR → rate
//!   adaptation → per-client throughput, with log-normal shadowing.
//! * [`ClientPhyExperiment`] — a sample-level experiment for a single client
//!   (Fig. 13): real OFDM packets, the tag's actual reflected waveform added
//!   at the client, decoded by the full `backfi-wifi` receiver.

use backfi_chan::budget::{dbm_to_lin, LinkBudget};
use backfi_chan::multipath::MultipathProfile;
use backfi_dsp::noise::{add_noise, gauss};
use backfi_dsp::rng::SplitMix64;
use backfi_dsp::{stats, Complex};
use backfi_tag::config::TagConfig;
use backfi_wifi::{Mcs, WifiReceiver, WifiTransmitter};
// rng trait methods are inherent on SplitMix64

/// Pick the fastest MCS whose SNR requirement is met (with `margin_db` of
/// headroom), or `None` when even 6 Mbit/s won't work.
pub fn select_mcs(snr_db: f64, margin_db: f64) -> Option<Mcs> {
    Mcs::ALL
        .into_iter()
        .rev()
        .find(|m| snr_db >= m.required_snr_db() + margin_db)
}

/// Model-level network simulator.
#[derive(Clone, Debug)]
pub struct NetworkModel {
    /// Link budget in use.
    pub budget: LinkBudget,
    /// Log-normal shadowing standard deviation per link, dB.
    pub shadowing_db: f64,
    /// Rate-selection SNR margin, dB.
    pub margin_db: f64,
}

impl Default for NetworkModel {
    fn default() -> Self {
        NetworkModel {
            budget: LinkBudget::default(),
            shadowing_db: 6.0,
            margin_db: 1.0,
        }
    }
}

/// One client's outcome in a network realization.
#[derive(Clone, Copy, Debug)]
pub struct ClientOutcome {
    /// AP ↔ client distance, m.
    pub distance_m: f64,
    /// SNR without the tag, dB.
    pub snr_db: f64,
    /// SINR with the tag active, dB.
    pub sinr_db: f64,
    /// PHY throughput without the tag, Mbit/s (0 when unreachable).
    pub throughput_off_mbps: f64,
    /// PHY throughput with the tag active, Mbit/s.
    pub throughput_on_mbps: f64,
}

impl NetworkModel {
    /// Simulate one random configuration: `n_clients` placed uniformly in a
    /// disc of `radius_m` around the AP, a tag at `tag_distance_m` from the
    /// AP. Returns each client's with/without-tag outcome.
    pub fn run_config(
        &self,
        n_clients: usize,
        radius_m: f64,
        tag_distance_m: f64,
        seed: u64,
    ) -> Vec<ClientOutcome> {
        let mut rng = SplitMix64::new(seed);
        let noise = self.budget.noise_power();
        (0..n_clients)
            .map(|_| {
                // Uniform in the disc (area-uniform radius), at least 1 m out.
                let d: f64 = (radius_m * rng.next_f64().sqrt()).max(1.0);
                let angle = rng.next_f64() * std::f64::consts::TAU;
                let shadow = self.shadowing_db * gauss(&mut rng);
                let snr_db = self.budget.wifi_snr_db(d) - shadow.abs();

                // Tag → client distance from the geometry (tag on the x-axis).
                let cx = d * angle.cos();
                let cy = d * angle.sin();
                let d_tc = ((cx - tag_distance_m).powi(2) + cy * cy).sqrt().max(0.1);
                let interference =
                    dbm_to_lin(self.budget.tag_interference_dbm(tag_distance_m, d_tc));
                let rx = dbm_to_lin(self.budget.wifi_rx_power_dbm(d) - shadow.abs());
                let sinr_db = stats::db(rx / (noise + interference));

                ClientOutcome {
                    distance_m: d,
                    snr_db,
                    sinr_db,
                    throughput_off_mbps: select_mcs(snr_db, self.margin_db)
                        .map(|m| m.mbps())
                        .unwrap_or(0.0),
                    throughput_on_mbps: select_mcs(sinr_db, self.margin_db)
                        .map(|m| m.mbps())
                        .unwrap_or(0.0),
                }
            })
            .collect()
    }

    /// Average network throughputs (off, on) over a configuration.
    pub fn average_throughput(outcomes: &[ClientOutcome]) -> (f64, f64) {
        let n = outcomes.len().max(1) as f64;
        (
            outcomes.iter().map(|o| o.throughput_off_mbps).sum::<f64>() / n,
            outcomes.iter().map(|o| o.throughput_on_mbps).sum::<f64>() / n,
        )
    }
}

/// Sample-level single-client experiment (Fig. 13).
pub struct ClientPhyExperiment {
    /// Link budget.
    pub budget: LinkBudget,
    /// Tag ↔ AP distance (0.25 m in the paper's worst case).
    pub tag_distance_m: f64,
    /// The tag's communication parameters.
    pub tag_cfg: TagConfig,
}

/// Per-bitrate result of the client experiment.
#[derive(Clone, Debug)]
pub struct ClientPhyResult {
    /// WiFi bitrate evaluated.
    pub mcs: Mcs,
    /// AP ↔ client distance chosen so this rate is ~3 dB above threshold.
    pub client_distance_m: f64,
    /// Packet success rate with the tag off.
    pub success_off: f64,
    /// Packet success rate with the tag on.
    pub success_on: f64,
    /// Mean client SNR with the tag off, dB.
    pub snr_off_db: f64,
    /// Mean client SNR (really SINR) with the tag on, dB.
    pub snr_on_db: f64,
}

impl ClientPhyExperiment {
    /// Distance at which a client sees `mcs`'s requirement + `margin` dB.
    pub fn distance_for(&self, mcs: Mcs, margin_db: f64) -> f64 {
        let target = mcs.required_snr_db() + margin_db;
        let pl = self.budget.tx_power_dbm - self.budget.noise_floor_dbm - target;
        10f64
            .powf((pl - self.budget.wifi_pathloss_1m_db) / (10.0 * self.budget.wifi_exponent))
            .max(1.0)
    }

    /// Run `packets` packets at `mcs` and measure success with the tag off
    /// and on.
    pub fn run(
        &self,
        mcs: Mcs,
        packets: usize,
        payload_bytes: usize,
        seed: u64,
    ) -> ClientPhyResult {
        let client_distance_m = self.distance_for(mcs, 3.0);
        let d_tc = (client_distance_m - self.tag_distance_m).abs().max(0.1);

        let tx = WifiTransmitter::new();
        let rx = WifiReceiver::default();
        let mut rng = SplitMix64::new(seed);

        let mut ok_off = 0usize;
        let mut ok_on = 0usize;
        let mut snr_off = Vec::new();
        let mut snr_on = Vec::new();

        // Channel amplitudes.
        let a_c = self.budget.wifi_amplitude(client_distance_m) * self.budget.tx_power().sqrt();
        let leg = |d: f64| dbm_to_lin(-self.budget.tag_scatter_leg_db(d)).sqrt();
        let a_tag = leg(self.tag_distance_m) * leg(d_tc) * self.budget.tx_power().sqrt();
        let noise = self.budget.noise_power();

        for p in 0..packets {
            let psdu: Vec<u8> = (0..payload_bytes).map(|i| (i + p) as u8).collect();
            let pkt = tx.transmit(&psdu, mcs, (0x30 + (p as u8 & 0x3F)) | 1);

            // Client channel: short multipath.
            let h_c = backfi_chan::multipath::scaled(
                &MultipathProfile::indoor_los().realize(&mut rng),
                a_c,
            );
            let direct = backfi_dsp::fir::filter(&h_c, &pkt.samples);

            for (tag_on, ok, snrs) in [
                (false, &mut ok_off, &mut snr_off),
                (true, &mut ok_on, &mut snr_on),
            ] {
                let mut y = direct.clone();
                if tag_on {
                    // The tag's reflected waveform as seen by the client:
                    // ((x∗h_f)·Γ)∗h_tc with per-symbol random PSK phases.
                    let h_f = MultipathProfile::indoor_los().realize(&mut rng);
                    let h_tc = MultipathProfile::indoor_nlos().realize(&mut rng);
                    let z = backfi_dsp::fir::filter(&h_f, &pkt.samples);
                    let sps = self.tag_cfg.samples_per_symbol();
                    let order = self.tag_cfg.modulation.order();
                    let modded: Vec<Complex> = z
                        .iter()
                        .enumerate()
                        .map(|(i, &v)| {
                            let idx = ((i / sps) * 7 + 3) % order;
                            v * Complex::exp_j(std::f64::consts::TAU * idx as f64 / order as f64)
                        })
                        .collect();
                    let scattered = backfi_dsp::fir::filter(&h_tc, &modded);
                    for (a, b) in y.iter_mut().zip(&scattered) {
                        *a += b.scale(a_tag);
                    }
                }
                add_noise(&mut rng, &mut y, noise);
                match rx.receive(&y) {
                    Ok(got) => {
                        snrs.push(got.snr_db);
                        if got.psdu == psdu {
                            *ok += 1;
                        }
                    }
                    Err(_) => snrs.push(f64::NEG_INFINITY),
                }
            }
        }

        let finite_mean = |v: &[f64]| {
            let f: Vec<f64> = v.iter().copied().filter(|x| x.is_finite()).collect();
            stats::mean(&f)
        };
        ClientPhyResult {
            mcs,
            client_distance_m,
            success_off: ok_off as f64 / packets.max(1) as f64,
            success_on: ok_on as f64 / packets.max(1) as f64,
            snr_off_db: finite_mean(&snr_off),
            snr_on_db: finite_mean(&snr_on),
        }
    }
}

/// Convenience: the tag configuration the Fig. 13 experiment uses (fast
/// QPSK so the interference is as wideband as possible).
pub fn fig13_tag_config() -> TagConfig {
    TagConfig {
        symbol_rate_hz: 2.5e6,
        ..TagConfig::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mcs_selection_is_monotone() {
        assert_eq!(select_mcs(40.0, 1.0), Some(Mcs::Mbps54));
        assert_eq!(select_mcs(10.0, 1.0), Some(Mcs::Mbps12)); // needs 8 + 1 dB
        assert_eq!(select_mcs(8.5, 1.0), Some(Mcs::Mbps9));
        assert_eq!(select_mcs(3.0, 1.0), None);
        let mut prev = 0.0;
        for snr in [6.0, 10.0, 15.0, 20.0, 25.0, 30.0] {
            let m = select_mcs(snr, 1.0).map(|m| m.mbps()).unwrap_or(0.0);
            assert!(m >= prev);
            prev = m;
        }
    }

    #[test]
    fn faraway_tag_has_no_model_impact() {
        let model = NetworkModel::default();
        let outcomes = model.run_config(10, 10.0, 4.0, 3);
        let (off, on) = NetworkModel::average_throughput(&outcomes);
        assert!(off > 0.0);
        assert!((off - on) / off < 0.05, "off {off} on {on}");
    }

    #[test]
    fn very_close_tag_hurts_more_than_far_tag() {
        let model = NetworkModel::default();
        let mut drop_close = 0.0;
        let mut drop_far = 0.0;
        for seed in 0..20 {
            let near = model.run_config(10, 10.0, 0.25, seed);
            let (off_n, on_n) = NetworkModel::average_throughput(&near);
            drop_close += (off_n - on_n) / off_n.max(1e-9);
            let far = model.run_config(10, 10.0, 3.0, seed);
            let (off_f, on_f) = NetworkModel::average_throughput(&far);
            drop_far += (off_f - on_f) / off_f.max(1e-9);
        }
        assert!(
            drop_close > drop_far,
            "close {drop_close} should exceed far {drop_far}"
        );
        assert!(drop_close / 20.0 < 0.25, "impact should stay moderate");
    }

    #[test]
    fn client_distance_ordering() {
        let exp = ClientPhyExperiment {
            budget: LinkBudget::default(),
            tag_distance_m: 0.25,
            tag_cfg: fig13_tag_config(),
        };
        // Lower rates tolerate longer distances.
        let d6 = exp.distance_for(Mcs::Mbps6, 3.0);
        let d54 = exp.distance_for(Mcs::Mbps54, 3.0);
        assert!(d6 > d54 * 2.0, "6 Mbps at {d6} m vs 54 Mbps at {d54} m");
    }

    #[test]
    fn client_phy_mostly_succeeds_without_tag() {
        let exp = ClientPhyExperiment {
            budget: LinkBudget::default(),
            tag_distance_m: 0.25,
            tag_cfg: fig13_tag_config(),
        };
        let res = exp.run(Mcs::Mbps6, 4, 200, 9);
        assert!(res.success_off >= 0.75, "success {}", res.success_off);
        assert!(res.snr_off_db > 5.0);
    }
}
