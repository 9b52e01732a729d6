//! `client_rx`: the 802.11 receiver alone, on a pool of captures built
//! during set-up. The backscatter layers (chan medium, SIC, reader) do none
//! of the timed work, so this is the bypass workload for link optimisations
//! and the second, long-frame user of `coding::viterbi`.

use crate::metrics::Outcome;
use crate::plan::{self, us, Plan};
use backfi_chan::multipath::MultipathProfile;
use backfi_coding::{ConvEncoder, ViterbiDecoder};
use backfi_dsp::rng::SplitMix64;
use backfi_dsp::{fir, noise, Complex};
use backfi_wifi::{Mcs, RxError, WifiReceiver, WifiTransmitter};
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

const PSDU_BYTES: [usize; 2] = [100, 1500];
const SEEDS_PER_POINT: usize = 6;
/// Capture SNR above each MCS's ~90%-success requirement.
const SNR_MARGIN_DB: f64 = 6.0;
/// Visits of each capture per round (96 × 10 = 960 receptions).
const VISITS_PER_ROUND: usize = 10;
/// Rounds every run makes before its time box.
const ROUNDS: usize = 16;
/// Separates the visiting-order stream from the capture streams.
const ORDER_SALT: u64 = 0x0bde_c0de_5eed;

struct Capture {
    psdu: Vec<u8>,
    samples: Vec<Complex>,
    mcs: Mcs,
}

/// What one reception produced: the PSDU and the SNR estimate's bits.
type Decoded = Result<(Vec<u8>, u64), RxError>;

/// Per-stage times of one pool build (traced run only), ns.
#[derive(Default)]
struct BuildTimes {
    tx_ns: f64,
    tx_samples: f64,
    fir_ns: f64,
    noise_ns: f64,
    chan_samples: f64,
}

/// 8 MCS × {100 B, 1500 B} × 6 seeds: transmit → indoor-LOS multipath →
/// noise at the MCS's required SNR + 6 dB.
fn build_pool(plan: &Plan, mut times: Option<&mut BuildTimes>) -> Vec<Capture> {
    let tx = WifiTransmitter::new();
    let (bytes, seeds): (&[usize], usize) = if plan.smoke {
        (&PSDU_BYTES[..1], 1)
    } else {
        (&PSDU_BYTES, SEEDS_PER_POINT)
    };
    let mut pool = Vec::new();
    for mcs in Mcs::ALL {
        for &len in bytes {
            for _ in 0..seeds {
                let mut rng = SplitMix64::new(SplitMix64::derive(plan.seed, pool.len() as u64));
                let psdu: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
                let scrambler = rng.below(127) as u8 + 1;
                let t = Instant::now();
                let pkt = tx.transmit(&psdu, mcs, scrambler);
                let tx_ns = t.elapsed().as_secs_f64() * 1e9;
                let h = MultipathProfile::indoor_los().realize(&mut rng);
                let t = Instant::now();
                let mut y = fir::filter(&h, &pkt.samples);
                let fir_ns = t.elapsed().as_secs_f64() * 1e9;
                let snr = backfi_dsp::stats::undb(mcs.required_snr_db() + SNR_MARGIN_DB);
                let noise_power = backfi_dsp::stats::mean_power(&y) / snr;
                let t = Instant::now();
                noise::add_noise(&mut rng, &mut y, noise_power);
                if let Some(bt) = times.as_deref_mut() {
                    bt.noise_ns += t.elapsed().as_secs_f64() * 1e9;
                    bt.tx_ns += tx_ns;
                    bt.fir_ns += fir_ns;
                    bt.tx_samples += pkt.samples.len() as f64;
                    bt.chan_samples += y.len() as f64;
                }
                pool.push(Capture {
                    psdu,
                    samples: y,
                    mcs,
                });
            }
        }
    }
    pool
}

fn receive(rx: &WifiReceiver, c: &Capture) -> Option<Decoded> {
    catch_unwind(AssertUnwindSafe(|| {
        rx.receive(&c.samples).map(|p| (p.psdu, p.snr_db.to_bits()))
    }))
    .ok()
}

/// Round `r`'s seeded visiting order over the pool.
///
/// Every capture is visited equally often, so each round — and each run —
/// times the same mix of frame lengths and rates, only shuffled.
fn order(plan: &Plan, r: usize, pool: usize) -> Vec<usize> {
    let mut rng = SplitMix64::new(SplitMix64::derive(plan.seed ^ ORDER_SALT, r as u64));
    let mut v: Vec<usize> = (0..plan.scaled(VISITS_PER_ROUND) * pool)
        .map(|i| i % pool)
        .collect();
    for i in (1..v.len()).rev() {
        v.swap(i, rng.below(i as u64 + 1) as usize);
    }
    v
}

pub fn run(plan: &Plan, e2e: bool, layer: bool) -> Outcome {
    let (cold, setup_s, pool) = plan::time_setup(|| build_pool(plan, None));
    let rx = WifiReceiver::default();
    // Reference outcome per capture: every later reception must repeat it.
    let reference: Vec<Option<Decoded>> = pool.iter().map(|c| receive(&rx, c)).collect();
    let mut out = Outcome::default();
    out.ledger.set("pool", pool.len() as f64);
    let ok = reference
        .iter()
        .zip(&pool)
        .filter(|(d, c)| matches!(d, Some(Ok((p, _))) if *p == c.psdu))
        .count();
    out.ledger.set("pool.decodable", ok as f64);
    if e2e {
        out.metric("setup_s", setup_s);
        untraced(plan, &rx, &pool, &reference, &mut out);
    }
    if layer {
        out.metric("setup.cold_s", cold);
        traced(plan, &rx, &pool, &reference, &mut out);
    }
    out
}

/// Counts a failed op unless the reception repeats the reference outcome
/// and, when it decoded, delivered exactly the PSDU that was sent.
fn check(out: &mut Outcome, got: &Option<Decoded>, want: &Option<Decoded>, c: &Capture) -> bool {
    let delivered_wrong = matches!(got, Some(Ok((p, _))) if *p != c.psdu);
    if got.is_none() || got != want || delivered_wrong {
        out.fail(
            1,
            format!("{:?} reception diverged or delivered wrong bytes", c.mcs),
        );
        return false;
    }
    matches!(got, Some(Ok(_)))
}

fn untraced(
    plan: &Plan,
    rx: &WifiReceiver,
    pool: &[Capture],
    reference: &[Option<Decoded>],
    out: &mut Outcome,
) {
    let mut lat_us = Vec::new();
    let mut rates = Vec::new();
    let (mut quality, mut decoded) = (0usize, 0usize);
    let mut results = Vec::new();
    let rounds = plan.rounds(ROUNDS, |r, fixed| {
        let visit = order(plan, r, pool.len());
        let round = Instant::now();
        for &i in &visit {
            let t = Instant::now();
            let got = receive(rx, &pool[i]);
            lat_us.push(us(t.elapsed()));
            results.push((i, got));
        }
        rates.push(visit.len() as f64 / round.elapsed().as_secs_f64());
        // Checked outside the timed loop; quality from the first rounds only.
        for (i, got) in results.drain(..) {
            let success = check(out, &got, &reference[i], &pool[i]);
            if fixed {
                quality += 1;
                decoded += success as usize;
            }
        }
    });
    out.attempted += (rounds * plan.scaled(VISITS_PER_ROUND) * pool.len()) as u64;
    out.metric("success_rate", decoded as f64 / quality as f64);
    out.record_rounds(rounds, &rates);
    out.record_latency("rx", &lat_us);
}

/// One round, each reception timed untraced and then traced: `receive`,
/// `probe` (sync + channel estimate) and a Viterbi replay at the capture's
/// coded length.
fn traced(
    plan: &Plan,
    rx: &WifiReceiver,
    pool: &[Capture],
    reference: &[Option<Decoded>],
    out: &mut Outcome,
) {
    let mut bt = BuildTimes::default();
    build_pool(plan, Some(&mut bt));
    out.metric("wifi.tx_ns_per_sample", bt.tx_ns / bt.tx_samples);
    out.metric("dsp.fir_ns_per_sample", bt.fir_ns / bt.chan_samples);
    out.metric("dsp.noise_ns_per_sample", bt.noise_ns / bt.chan_samples);

    // Soft inputs for the Viterbi replay: the mother-code length of each
    // capture's DATA field, encoded from seeded bits.
    let soft: Vec<Vec<f64>> = pool
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let bits = c.mcs.data_symbols(c.psdu.len()) * c.mcs.dbps();
            let mut rng = SplitMix64::new(SplitMix64::derive(plan.seed ^ ORDER_SALT, !(i as u64)));
            let info: Vec<bool> = (0..bits).map(|_| rng.next_u64() & 1 == 1).collect();
            ConvEncoder::ieee80211()
                .encode(&info)
                .into_iter()
                .map(|b| if b { 1.0 } else { -1.0 })
                .collect()
        })
        .collect();
    let viterbi = ViterbiDecoder::ieee80211();

    let (mut untraced_us, mut traced_us) = (Vec::new(), Vec::new());
    let (mut samples, mut vit_ns, mut vit_bits) = (0.0, 0.0, 0.0);
    for i in order(plan, 0, pool.len()) {
        let c = &pool[i];
        out.attempted += 1;
        let t = Instant::now();
        let plain = receive(rx, c);
        untraced_us.push(us(t.elapsed()));

        let t = Instant::now();
        let got = receive(rx, c);
        let rx_t = us(t.elapsed());
        let t = Instant::now();
        black_box(rx.probe(&c.samples)).ok();
        let sync_t = us(t.elapsed());
        let t = Instant::now();
        black_box(viterbi.decode_soft_truncated(&soft[i]));
        vit_ns += t.elapsed().as_secs_f64() * 1e9;
        vit_bits += (soft[i].len() / 2) as f64;

        if plain != got {
            out.fail(
                1,
                format!("{:?} traced reception differs from untraced", c.mcs),
            );
        } else {
            check(out, &got, &reference[i], c);
        }
        traced_us.push(rx_t);
        out.ledger.push("wifi.rx_us", rx_t);
        out.ledger.push("wifi.rx_sync_us", sync_t);
        out.ledger.push("wifi.rx_payload_us", rx_t - sync_t);
        samples += c.samples.len() as f64;
    }
    out.metric("coding.viterbi_ns_per_bit", vit_ns / vit_bits);
    out.record_traced(&traced_us, &untraced_us);
    out.ledger
        .set("wifi.rx_msps", samples / traced_us.iter().sum::<f64>());
    let not_ok = reference
        .iter()
        .filter(|d| !matches!(d, Some(Ok(_))))
        .count();
    out.ledger
        .set("wifi.rx_fail_frac", not_ok as f64 / pool.len() as f64);
}
