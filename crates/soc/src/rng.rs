//! Deterministic pseudo-random number generation and sampling.
//!
//! The whole study must be reproducible run-to-run (the paper's artifact
//! fixes seeds for its workload sweeps), so we implement a small, fully
//! deterministic xoshiro256++ generator seeded through SplitMix64, plus the
//! handful of distributions the simulator needs (uniform, normal via
//! Box–Muller, lognormal). Implementing these ~100 lines ourselves keeps the
//! workspace free of the `rand`/`rand_distr` version churn and guarantees
//! bit-identical streams on every platform.

/// A deterministic xoshiro256++ pseudo-random number generator.
///
/// # Example
///
/// ```
/// use edgereasoning_soc::rng::Rng;
///
/// let mut a = Rng::seed_from_u64(7);
/// let mut b = Rng::seed_from_u64(7);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    state: [u64; 4],
    /// Cached second output of the most recent Box–Muller transform.
    gauss_cache: Option<u64>,
}

impl Rng {
    /// Creates a generator from a 64-bit seed, expanding it with SplitMix64
    /// as recommended by the xoshiro authors.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let state = [next(), next(), next(), next()];
        Self {
            state,
            gauss_cache: None,
        }
    }

    /// Derives an independent child generator; used to give every simulated
    /// component (GPU jitter, workload sampling, model behaviour) its own
    /// stream so adding draws in one place never perturbs another.
    pub fn fork(&mut self, stream: u64) -> Self {
        let base = self.next_u64();
        Self::seed_from_u64(base ^ stream.wrapping_mul(0xA24B_AED4_963E_E407))
    }

    /// Returns the next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform draw in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform draw in `(0, 1]`: `1.0 - next_f64()`. Safe to feed to `ln`
    /// for exponential inter-arrival sampling (`-ln(u)/rate`) — the draw can
    /// never be zero, so no `max(epsilon)` clamp is needed downstream.
    /// Consumes exactly one `next_u64`, same as [`Rng::next_f64`].
    pub fn next_open01(&mut self) -> f64 {
        1.0 - self.next_f64()
    }

    /// Uniform draw in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or either bound is not finite.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(
            lo.is_finite() && hi.is_finite() && lo <= hi,
            "invalid range"
        );
        lo + (hi - lo) * self.next_f64()
    }

    /// Uniform integer draw in `[0, n)` using Lemire rejection.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn range_usize(&mut self, n: usize) -> usize {
        assert!(n > 0, "range_usize requires n > 0");
        let n = n as u64;
        // Rejection sampling on the top bits avoids modulo bias.
        let zone = u64::MAX - (u64::MAX % n);
        loop {
            let v = self.next_u64();
            if v < zone {
                return (v % n) as usize;
            }
        }
    }

    /// Bernoulli draw: `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p.clamp(0.0, 1.0)
    }

    /// Standard normal draw via the Box–Muller transform (second value of
    /// each pair is cached, so draws come in amortized half-cost).
    pub fn normal(&mut self) -> f64 {
        if let Some(bits) = self.gauss_cache.take() {
            return f64::from_bits(bits);
        }
        // Draw u1 in (0, 1] to avoid ln(0).
        let u1 = self.next_open01();
        let u2 = self.next_f64();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        self.gauss_cache = Some(f64::to_bits(r * theta.sin()));
        r * theta.cos()
    }

    /// Normal draw with the given mean and standard deviation.
    ///
    /// # Panics
    ///
    /// Panics if `std_dev < 0`.
    pub fn normal_with(&mut self, mean: f64, std_dev: f64) -> f64 {
        assert!(std_dev >= 0.0, "standard deviation must be non-negative");
        mean + std_dev * self.normal()
    }

    /// Lognormal draw parameterized by the *underlying* normal's `mu` and
    /// `sigma` (i.e. `exp(N(mu, sigma))`).
    pub fn lognormal(&mut self, mu: f64, sigma: f64) -> f64 {
        self.normal_with(mu, sigma).exp()
    }

    /// Lognormal draw parameterized by the distribution's own mean and
    /// standard deviation (moment matching), convenient for calibrating
    /// token-length distributions to published per-config averages.
    /// Equal, bit for bit, to [`Rng::lognormal`] at
    /// [`lognormal_mu_sigma`]`(mean, std_dev)`, which a caller drawing
    /// many values of one distribution can derive once.
    ///
    /// # Panics
    ///
    /// Panics if `mean <= 0` or `std_dev < 0`.
    pub fn lognormal_mean_std(&mut self, mean: f64, std_dev: f64) -> f64 {
        let (mu, sigma) = lognormal_mu_sigma(mean, std_dev);
        self.lognormal(mu, sigma)
    }

    /// Multiplicative jitter `1 + N(0, rel)` truncated to stay positive;
    /// models run-to-run measurement noise.
    pub fn jitter(&mut self, rel: f64) -> f64 {
        (1.0 + self.normal_with(0.0, rel)).max(0.05)
    }
}

/// The underlying normal's `(mu, sigma)` of the lognormal distribution with
/// the given mean and standard deviation (moment matching): the parameters
/// [`Rng::lognormal_mean_std`] draws with.
///
/// # Panics
///
/// Panics if `mean <= 0` or `std_dev < 0`.
pub fn lognormal_mu_sigma(mean: f64, std_dev: f64) -> (f64, f64) {
    assert!(mean > 0.0, "lognormal mean must be positive");
    assert!(std_dev >= 0.0, "standard deviation must be non-negative");
    let cv2 = (std_dev / mean).powi(2);
    let sigma2 = (1.0 + cv2).ln();
    (mean.ln() - 0.5 * sigma2, sigma2.sqrt())
}

/// A deterministic 64-bit hash used to derive *stable per-shape* perturbations
/// (e.g. which "CUTLASS kernel variant" a GEMM shape selects). Unlike draws
/// from [`Rng`], the value depends only on the inputs, never on call order.
pub fn stable_hash(values: &[u64]) -> u64 {
    values
        .iter()
        .fold(StableHasher::new(), |h, &v| h.with(v))
        .finish()
}

/// The streaming form of [`stable_hash`]: FNV-1a over the little-endian
/// bytes of each word, absorbed one word at a time. A hasher that has
/// absorbed a common head can be copied and extended many times, so keys
/// sharing that head cost only their own tail words.
///
/// # Example
///
/// ```
/// use edgereasoning_soc::rng::{stable_hash, StableHasher};
///
/// let head = StableHasher::new().with(1).with(2);
/// assert_eq!(head.with(3).finish(), stable_hash(&[1, 2, 3]));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StableHasher {
    h: u64,
}

impl StableHasher {
    /// The state of a hasher that has absorbed nothing.
    #[must_use]
    #[inline]
    pub const fn new() -> Self {
        Self {
            h: 0xcbf2_9ce4_8422_2325,
        }
    }

    /// The state after also absorbing `word`.
    #[must_use]
    #[inline]
    pub fn with(self, word: u64) -> Self {
        let mut h = self.h;
        for byte in word.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        Self { h }
    }

    /// The hash of every word absorbed so far.
    #[must_use]
    #[inline]
    pub fn finish(self) -> u64 {
        self.h
    }
}

impl Default for StableHasher {
    fn default() -> Self {
        Self::new()
    }
}

/// A minimal FxHash-style [`std::hash::Hasher`] (rotate–xor–multiply per
/// word, the rustc/Firefox workhorse) for hot in-process maps keyed by
/// small plain data. 5–10x cheaper than the collision-hardened SipHash
/// default, which matters when a map probe sits on a simulator hot path.
/// Not collision-resistant against adversarial keys — use only for
/// internal keys (sequence ids, phase keys), and never where map iteration
/// order could become observable.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(Self::SEED);
    }
}

impl std::hash::Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let mut buf = [0u8; 8];
            buf.copy_from_slice(chunk);
            self.add(u64::from_le_bytes(buf));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
}

/// `BuildHasher` plugging [`FxHasher`] into `HashMap`/`HashSet`.
pub type FxBuildHasher = std::hash::BuildHasherDefault<FxHasher>;

/// Maps a stable hash to a deterministic value in `[-1, 1]`.
pub fn stable_unit(values: &[u64]) -> f64 {
    let h = stable_hash(values);
    ((h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)) * 2.0 - 1.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = Rng::seed_from_u64(123);
        let mut b = Rng::seed_from_u64(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng::seed_from_u64(1);
        let mut b = Rng::seed_from_u64(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn uniform_bounds_and_mean() {
        let mut rng = Rng::seed_from_u64(9);
        let mut sum = 0.0;
        const N: usize = 20_000;
        for _ in 0..N {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / N as f64;
        assert!((mean - 0.5).abs() < 0.01, "uniform mean off: {mean}");
    }

    #[test]
    fn normal_moments() {
        let mut rng = Rng::seed_from_u64(4);
        const N: usize = 50_000;
        let xs: Vec<f64> = (0..N).map(|_| rng.normal_with(3.0, 2.0)).collect();
        let mean = xs.iter().sum::<f64>() / N as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / N as f64;
        assert!((mean - 3.0).abs() < 0.05, "mean {mean}");
        assert!((var - 4.0).abs() < 0.15, "var {var}");
    }

    #[test]
    fn lognormal_mean_std_matches_moments() {
        let mut rng = Rng::seed_from_u64(11);
        const N: usize = 100_000;
        let xs: Vec<f64> = (0..N)
            .map(|_| rng.lognormal_mean_std(800.0, 400.0))
            .collect();
        let mean = xs.iter().sum::<f64>() / N as f64;
        assert!(
            (mean - 800.0).abs() / 800.0 < 0.02,
            "lognormal mean {mean} should be near 800"
        );
        assert!(xs.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn lognormal_mu_sigma_is_what_lognormal_mean_std_draws_with() {
        // The moment matching written out inline: the reference the helper
        // must match bit for bit.
        let inline = |mean: f64, std_dev: f64| {
            let sigma2 = (1.0 + (std_dev / mean).powi(2)).ln();
            (mean.ln() - 0.5 * sigma2, sigma2.sqrt())
        };
        let mut grid = Rng::seed_from_u64(31);
        for i in 0..500 {
            let mean = match i % 3 {
                0 => grid.range_f64(1e-3, 1.0),
                1 => grid.range_f64(1.0, 50.0),
                _ => grid.range_f64(50.0, 2e4),
            };
            let std_dev = if i % 7 == 0 {
                0.0
            } else {
                mean * grid.range_f64(0.0, 1.5)
            };
            let (mu, sigma) = lognormal_mu_sigma(mean, std_dev);
            let (mu_ref, sigma_ref) = inline(mean, std_dev);
            assert_eq!(mu.to_bits(), mu_ref.to_bits(), "mu at {mean}, {std_dev}");
            assert_eq!(sigma.to_bits(), sigma_ref.to_bits());
            let mut a = Rng::seed_from_u64(i);
            let mut b = Rng::seed_from_u64(i);
            for _ in 0..5 {
                assert_eq!(
                    a.lognormal_mean_std(mean, std_dev).to_bits(),
                    b.lognormal(mu, sigma).to_bits()
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "mean must be positive")]
    fn lognormal_mu_sigma_rejects_a_zero_mean() {
        let _ = lognormal_mu_sigma(0.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn lognormal_mu_sigma_rejects_a_negative_std() {
        let _ = lognormal_mu_sigma(1.0, -0.5);
    }

    #[test]
    fn range_usize_covers_all_residues() {
        let mut rng = Rng::seed_from_u64(5);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            seen[rng.range_usize(7)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn chance_extremes() {
        let mut rng = Rng::seed_from_u64(6);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
    }

    #[test]
    fn stable_hash_is_order_sensitive_and_stable() {
        assert_eq!(stable_hash(&[1, 2, 3]), stable_hash(&[1, 2, 3]));
        assert_ne!(stable_hash(&[1, 2, 3]), stable_hash(&[3, 2, 1]));
        let u = stable_unit(&[42, 7]);
        assert!((-1.0..=1.0).contains(&u));
        assert_eq!(u, stable_unit(&[42, 7]));
    }

    #[test]
    fn streaming_hash_matches_stable_hash_on_the_concatenation() {
        let mut rng = Rng::seed_from_u64(21);
        for len in 0..12 {
            let words: Vec<u64> = (0..len).map(|_| rng.next_u64()).collect();
            for split in 0..=len {
                let head = words[..split]
                    .iter()
                    .fold(StableHasher::new(), |h, &w| h.with(w));
                let whole = words[split..].iter().fold(head, |h, &w| h.with(w));
                assert_eq!(
                    whole.finish(),
                    stable_hash(&words),
                    "split {split} of {len}"
                );
            }
        }
        assert_eq!(StableHasher::default().finish(), stable_hash(&[]));
        // The FNV-1a reference value of eight zero bytes.
        assert_eq!(stable_hash(&[0]), 0xa8c7_f832_281a_39c5);
    }

    #[test]
    fn fork_streams_are_independent() {
        let mut parent = Rng::seed_from_u64(77);
        let mut c1 = parent.fork(1);
        let mut c2 = parent.fork(2);
        let a: Vec<u64> = (0..8).map(|_| c1.next_u64()).collect();
        let b: Vec<u64> = (0..8).map(|_| c2.next_u64()).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn jitter_stays_positive() {
        let mut rng = Rng::seed_from_u64(3);
        for _ in 0..10_000 {
            assert!(rng.jitter(0.5) > 0.0);
        }
    }
}
