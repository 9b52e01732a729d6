//! Deterministic complex Gaussian noise.
//!
//! Every stochastic element of the simulator (thermal noise, multipath tap
//! realizations, payload bits) is driven by seeded [`crate::rng`] generators
//! so that every figure in EXPERIMENTS.md is exactly reproducible.
//!
//! Normal deviates come from a 256-layer ziggurat (Marsaglia & Tsang, "The
//! Ziggurat Method for Generating Random Variables", J. Stat. Softw. 5(8),
//! 2000). The area under `f(x) = exp(−x²/2)` is cut into 255 horizontal
//! layers plus a base strip with its tail, all of equal area `v`. A draw
//! takes one `next_u64`: the low 8 bits pick a layer, the top 53 bits a
//! signed uniform `u`. When `|u|` falls inside the part of the layer that
//! lies wholly under the curve (≈98.5 % of draws) the sample is `u·x[i]`;
//! otherwise an exact wedge test or Marsaglia's exponential tail sampler
//! decides, consuming more uniforms. The number of `next_u64` calls per
//! sample is therefore variable. DESIGN.md §6.1 has the derivation.
//!
//! A [`NoiseStream`] splits one noise source over [`NOISE_LANES`]
//! interleaved generators, so that each lane's draw count depends only on
//! its own values.

use crate::rng::{Rng, SplitMix64};
use crate::Complex;
use std::sync::OnceLock;

/// Number of ziggurat layers (the base strip counts as layer 0).
const LAYERS: usize = 256;
/// `r`, the right edge of the base strip, where the tail begins:
/// Marsaglia–Tsang's `3.6541528853610088` as the shortest literal of the
/// same `f64`.
const TAIL_R: f64 = 3.654_152_885_361_009;
/// `v`, the common area of every layer (and of the base strip plus tail)
/// under the unnormalized density `exp(−x²/2)`.
const AREA_V: f64 = 0.004_928_673_233_99;

/// Immutable ziggurat tables, built once per process.
struct Ziggurat {
    /// Layer right edges, decreasing: `x[0] = v/f(r)` (the base strip's
    /// virtual width), `x[1] = r`, …, `x[LAYERS] = 0`.
    x: [f64; LAYERS + 1],
    /// `f(x[i]) = exp(−x[i]²/2)`, increasing to `f[LAYERS] = 1`.
    f: [f64; LAYERS + 1],
    /// `x[i+1]/x[i]`: the fraction of layer `i` wholly under the curve.
    ratio: [f64; LAYERS],
}

impl Ziggurat {
    /// The process-wide tables (built on first use, then shared).
    #[inline]
    fn get() -> &'static Ziggurat {
        static TABLES: OnceLock<Ziggurat> = OnceLock::new();
        TABLES.get_or_init(Ziggurat::build)
    }

    /// The equal-area recurrence `x[i] = f⁻¹(v/x[i−1] + f(x[i−1]))`.
    fn build() -> Ziggurat {
        let mut x = [0.0; LAYERS + 1];
        let mut f = [0.0; LAYERS + 1];
        x[0] = AREA_V / density(TAIL_R);
        x[1] = TAIL_R;
        for i in 2..LAYERS {
            x[i] = (-2.0 * (AREA_V / x[i - 1] + density(x[i - 1])).ln()).sqrt();
        }
        x[LAYERS] = 0.0;
        for (fi, &xi) in f.iter_mut().zip(&x) {
            *fi = density(xi);
        }
        let mut ratio = [0.0; LAYERS];
        for (i, q) in ratio.iter_mut().enumerate() {
            *q = x[i + 1] / x[i];
        }
        Ziggurat { x, f, ratio }
    }

    /// One standard normal deviate.
    #[inline(always)]
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let bits = rng.next_u64();
        let i = (bits & 0xff) as usize;
        let u = (bits >> 11) as f64 * (1.0 / (1u64 << 52) as f64) - 1.0;
        if u.abs() < self.ratio[i] {
            return u * self.x[i];
        }
        self.sample_slow(rng, i, u)
    }

    /// The ≈1.5 % of draws that land outside layer `i`'s inner rectangle:
    /// the tail for the base strip, else the exact wedge test, and a fresh
    /// draw when the wedge rejects.
    #[cold]
    #[inline(never)]
    fn sample_slow<R: Rng + ?Sized>(&self, rng: &mut R, i: usize, u: f64) -> f64 {
        if i == 0 {
            return tail(rng, u < 0.0);
        }
        let x = u * self.x[i];
        // (|x|, y) is uniform over layer i's wedge rectangle; accept exactly
        // when it lies under the density.
        let y = self.f[i] + rng.next_f64() * (self.f[i + 1] - self.f[i]);
        if y < density(x) {
            return x;
        }
        self.sample(rng)
    }

    /// One complex sample with standard deviation `s` per component, real
    /// part drawn first.
    #[inline(always)]
    fn complex<R: Rng + ?Sized>(&self, rng: &mut R, s: f64) -> Complex {
        let re = self.sample(rng);
        Complex::new(s * re, s * self.sample(rng))
    }
}

/// The unnormalized standard normal density `exp(−x²/2)`.
#[inline]
fn density(x: f64) -> f64 {
    (-0.5 * x * x).exp()
}

/// Marsaglia's exponential sampler for `|x| > r`, signed by `negative`.
fn tail<R: Rng + ?Sized>(rng: &mut R, negative: bool) -> f64 {
    loop {
        // Uniforms in (0, 1] so the logarithms stay finite.
        let e = -(1.0 - rng.next_f64()).ln() / TAIL_R;
        let y = -(1.0 - rng.next_f64()).ln();
        if 2.0 * y >= e * e {
            return if negative { -(TAIL_R + e) } else { TAIL_R + e };
        }
    }
}

/// Standard normal deviate (ziggurat; see the module docs).
#[inline]
pub fn gauss<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    Ziggurat::get().sample(rng)
}

/// Draw one circularly-symmetric complex Gaussian sample with total variance
/// `var` (i.e. `var/2` per real component).
#[inline]
pub fn cgauss<R: Rng + ?Sized>(rng: &mut R, var: f64) -> Complex {
    Ziggurat::get().complex(rng, (var / 2.0).sqrt())
}

/// A vector of i.i.d. complex Gaussian samples with total variance `var`.
pub fn cgauss_vec<R: Rng + ?Sized>(rng: &mut R, n: usize, var: f64) -> Vec<Complex> {
    let (z, s) = (Ziggurat::get(), (var / 2.0).sqrt());
    (0..n).map(|_| z.complex(rng, s)).collect()
}

/// Add complex Gaussian noise of power `noise_power` to a signal in place.
/// Draws nothing when `noise_power <= 0`.
pub fn add_noise<R: Rng + ?Sized>(rng: &mut R, x: &mut [Complex], noise_power: f64) {
    if noise_power <= 0.0 {
        return;
    }
    let (z, s) = (Ziggurat::get(), (noise_power / 2.0).sqrt());
    for v in x.iter_mut() {
        *v += z.complex(rng, s);
    }
}

/// Number of interleaved generator lanes in a [`NoiseStream`].
pub const NOISE_LANES: usize = 4;

/// One noise source's own sub-stream: [`NOISE_LANES`] interleaved
/// [`SplitMix64`] lanes, where sample `i` of a call draws both of its
/// components, rejections included, from lane `i mod 4`. A lane's position
/// never depends on another lane's values, so a 4-wide vector generator can
/// reproduce the stream bit for bit.
#[derive(Clone, Debug)]
pub struct NoiseStream {
    lanes: [SplitMix64; NOISE_LANES],
}

impl NoiseStream {
    /// The sub-stream rooted at `seed`; lane `k` is seeded with
    /// `SplitMix64::derive(seed, k)`.
    pub fn new(seed: u64) -> Self {
        NoiseStream {
            lanes: std::array::from_fn(|k| SplitMix64::new(SplitMix64::derive(seed, k as u64))),
        }
    }

    /// [`add_noise`] over the lanes. Draws nothing when `noise_power <= 0`.
    pub fn add_noise(&mut self, x: &mut [Complex], noise_power: f64) {
        if noise_power <= 0.0 {
            return;
        }
        let (z, s) = (Ziggurat::get(), (noise_power / 2.0).sqrt());
        for quad in x.chunks_mut(NOISE_LANES) {
            for (v, lane) in quad.iter_mut().zip(&mut self.lanes) {
                *v += z.complex(lane, s);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::mean_power;

    #[test]
    fn noise_power_matches_request() {
        let mut rng = SplitMix64::new(7);
        let v = cgauss_vec(&mut rng, 200_000, 2.5);
        let p = mean_power(&v);
        assert!((p - 2.5).abs() < 0.05, "measured power {p}");
    }

    #[test]
    fn gauss_mean_and_var() {
        let mut rng = SplitMix64::new(42);
        let xs: Vec<f64> = (0..200_000).map(|_| gauss(&mut rng)).collect();
        let m = crate::stats::mean(&xs);
        let v = crate::stats::variance(&xs);
        assert!(m.abs() < 0.01, "mean {m}");
        assert!((v - 1.0).abs() < 0.02, "var {v}");
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(1);
        assert_eq!(cgauss_vec(&mut a, 16, 1.0), cgauss_vec(&mut b, 16, 1.0));
    }

    #[test]
    fn vec_and_in_place_forms_draw_the_same_stream() {
        let mut a = SplitMix64::new(11);
        let mut b = SplitMix64::new(11);
        let mut c = SplitMix64::new(11);
        let v = cgauss_vec(&mut a, 1000, 0.3);
        let mut x = vec![Complex::ZERO; 1000];
        add_noise(&mut b, &mut x, 0.3);
        let one: Vec<Complex> = (0..1000).map(|_| cgauss(&mut c, 0.3)).collect();
        assert_eq!(v, x);
        assert_eq!(v, one);
    }

    #[test]
    fn noise_stream_lane_i_mod_4_draws_sample_i() {
        // Each lane alone, drawing every fourth sample, rebuilds the stream;
        // a call boundary restarts the lane index at sample 0.
        let seed = 0xB0F1;
        let var = 0.8;
        let mut stream = NoiseStream::new(seed);
        let mut x = vec![Complex::ZERO; 1001];
        stream.add_noise(&mut x, var);
        let mut lanes: Vec<SplitMix64> = (0..NOISE_LANES as u64)
            .map(|k| SplitMix64::new(SplitMix64::derive(seed, k)))
            .collect();
        for (i, v) in x.iter().enumerate() {
            assert_eq!(*v, cgauss(&mut lanes[i % NOISE_LANES], var), "sample {i}");
        }
        let mut y = vec![Complex::ZERO; 6];
        stream.add_noise(&mut y, var);
        for (i, v) in y.iter().enumerate() {
            assert_eq!(
                *v,
                cgauss(&mut lanes[i % NOISE_LANES], var),
                "next call, sample {i}"
            );
        }
        let mut z = vec![Complex::ZERO; 200_000];
        NoiseStream::new(3).add_noise(&mut z, var);
        let p = mean_power(&z);
        assert!((p - var).abs() < 0.02, "measured power {p}");
    }

    #[test]
    fn zero_power_noise_is_noop() {
        let mut rng = SplitMix64::new(3);
        let mut x = vec![Complex::ONE; 8];
        add_noise(&mut rng, &mut x, 0.0);
        assert!(x.iter().all(|v| (*v - Complex::ONE).abs() < 1e-15));
    }

    #[test]
    fn add_noise_raises_power() {
        let mut rng = SplitMix64::new(9);
        let mut x = vec![Complex::ZERO; 100_000];
        add_noise(&mut rng, &mut x, 0.7);
        let p = mean_power(&x);
        assert!((p - 0.7).abs() < 0.03, "{p}");
    }

    /// ∫_a^∞ exp(−x²/2) dx by composite Simpson over [a, a + 20].
    fn tail_area(a: f64) -> f64 {
        let n = 200_000;
        let h = 20.0 / n as f64;
        let mut s = density(a) + density(a + 20.0);
        for k in 1..n {
            s += density(a + k as f64 * h) * if k % 2 == 1 { 4.0 } else { 2.0 };
        }
        s * h / 3.0
    }

    #[test]
    fn every_layer_has_area_v_and_the_top_closes_at_the_peak() {
        let z = Ziggurat::get();
        let rel = |a: f64| (a - AREA_V).abs() / AREA_V;
        // Base strip: the rectangle under f(r) out to r plus the tail.
        let base = TAIL_R * density(TAIL_R) + tail_area(TAIL_R);
        assert!(rel(base) < 1e-9, "base strip area {base}");
        assert!(rel(z.x[0] * z.f[1]) < 1e-12, "base strip virtual width");
        for i in 1..LAYERS {
            let area = z.x[i] * (z.f[i + 1] - z.f[i]);
            assert!(rel(area) < 1e-9, "layer {i} area {area}");
        }
        assert_eq!(z.f[LAYERS], 1.0, "top layer must reach the peak");
        assert!(z.x.windows(2).all(|w| w[0] > w[1]), "edges must decrease");
    }

    /// Pooled moments over many seeds: standard errors shrink with the pool,
    /// so the bands are derived, not tuned.
    #[test]
    fn pooled_moments_match_the_standard_normal() {
        const SEEDS: u64 = 20;
        const DRAWS: usize = 200_000;
        let (mut s1, mut s2, mut s4) = (0.0f64, 0.0f64, 0.0f64);
        for seed in 0..SEEDS {
            let mut rng = SplitMix64::new(1000 + seed);
            for _ in 0..DRAWS {
                let x = gauss(&mut rng);
                s1 += x;
                s2 += x * x;
                s4 += x * x * x * x;
            }
        }
        let n = (SEEDS as usize * DRAWS) as f64;
        let (mean, var, m4) = (s1 / n, s2 / n, s4 / n);
        // Standard errors for a standard normal: mean 1/√n, second moment
        // √(2/n), sample kurtosis √(24/n).
        assert!(mean.abs() < 5.0 / n.sqrt(), "mean {mean}");
        assert!((var - 1.0).abs() < 5.0 * (2.0 / n).sqrt(), "variance {var}");
        let kurtosis = m4 / (var * var);
        assert!(
            (kurtosis - 3.0).abs() < 5.0 * (24.0 / n).sqrt(),
            "kurtosis {kurtosis}"
        );
    }

    #[test]
    fn tail_rates_match_and_the_tail_branch_fires() {
        const SEEDS: u64 = 20;
        const DRAWS: usize = 200_000;
        let (mut over3, mut over4, mut beyond_r) = (0u64, 0u64, 0u64);
        for seed in 0..SEEDS {
            let mut rng = SplitMix64::new(2000 + seed);
            for _ in 0..DRAWS {
                let a = gauss(&mut rng).abs();
                over3 += u64::from(a > 3.0);
                over4 += u64::from(a > 4.0);
                beyond_r += u64::from(a > TAIL_R);
            }
        }
        let n = (SEEDS as usize * DRAWS) as f64;
        // Two-sided standard normal tail probabilities.
        for (count, p, what) in [
            (over3, 2.699_796_063_260_207e-3, "P(|x|>3)"),
            (over4, 6.334_248_366_623_996e-5, "P(|x|>4)"),
        ] {
            let sigma = (n * p * (1.0 - p)).sqrt();
            let dev = (count as f64 - n * p).abs();
            assert!(
                dev < 4.0 * sigma,
                "{what}: {count} vs {:.1} ± {sigma:.1}",
                n * p
            );
        }
        assert!(
            beyond_r > 0,
            "no draw beyond r: tail sampler never exercised"
        );
    }

    #[test]
    fn cgauss_is_circular_with_the_requested_power() {
        let var = 0.8;
        let mut rng = SplitMix64::new(5);
        let n = 400_000;
        let (mut p, mut m2) = (0.0, Complex::ZERO);
        for _ in 0..n {
            let z = cgauss(&mut rng, var);
            p += z.norm_sqr();
            m2 += z * z;
        }
        let n = n as f64;
        // |z|² is var·Exp(1): standard error var/√n. z² has E|z²|² = var².
        assert!(
            (p / n - var).abs() < 5.0 * var / n.sqrt(),
            "E|z|² = {}",
            p / n
        );
        let m2 = m2.scale(1.0 / n);
        assert!(m2.abs() < 5.0 * var / n.sqrt(), "E[z²] = {m2:?}");
    }
}
