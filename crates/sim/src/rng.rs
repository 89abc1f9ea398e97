//! Deterministic random sampling.
//!
//! Every stochastic element of the reproduction — operator-length jitter in
//! the synthetic traces, PMT's 20–40 µs context-switch cost, K-Means++
//! seeding, random workload picks for the scaling study — draws from a
//! [`SimRng`] seeded explicitly, so that every experiment replays bit-for-bit
//! from its seed.
//!
//! The generator is a self-contained xoshiro256++ core seeded through
//! SplitMix64 — no external crates, so the workspace builds in fully offline
//! environments and the stream is frozen forever by this file alone. Normal
//! and lognormal variates are generated with Box–Muller.

/// SplitMix64 step; used to expand a 64-bit seed into xoshiro state.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seedable PRNG with the sampling helpers the simulator needs.
///
/// # Example
///
/// ```
/// use v10_sim::SimRng;
/// let mut a = SimRng::seed_from(42);
/// let mut b = SimRng::seed_from(42);
/// // Same seed, same stream.
/// assert_eq!(a.next_u64(), b.next_u64());
/// let lengths: Vec<f64> = a.lognormals(100.0, 0.5).take(4).collect();
/// assert!(lengths.iter().all(|&x| x > 0.0));
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    /// xoshiro256++ state; never all-zero thanks to SplitMix64 seeding.
    state: [u64; 4],
    /// Cached second variate from Box–Muller.
    spare_normal: Option<f64>,
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    #[must_use]
    pub fn seed_from(seed: u64) -> Self {
        let mut sm = seed;
        SimRng {
            state: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
            spare_normal: None,
        }
    }

    /// Derives an independent child generator; used to give each workload
    /// its own stream so adding a workload never perturbs the others.
    #[must_use]
    pub fn fork(&mut self, salt: u64) -> SimRng {
        let s = self.next_u64() ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        SimRng::seed_from(s)
    }

    /// Next raw 64-bit value (xoshiro256++ step).
    pub fn next_u64(&mut self) -> u64 {
        let [s0, s1, s2, s3] = self.state;
        let result = s0.wrapping_add(s3).rotate_left(23).wrapping_add(s0);
        let t = s1 << 17;
        let mut s2 = s2 ^ s0;
        let s3 = s3 ^ s1;
        let s1 = s1 ^ s2;
        let s0 = s0 ^ s3;
        s2 ^= t;
        self.state = [s0, s1, s2, s3.rotate_left(45)];
        result
    }

    /// Uniform float in `[0, 1)` — 53 high bits of a raw draw.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform float in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi, "uniform range must be non-empty: [{lo}, {hi})");
        lo + (hi - lo) * self.unit_f64()
    }

    /// Uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn uniform_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "uniform range must be non-empty: [{lo}, {hi})");
        let span = hi - lo;
        // Fixed-point multiply maps a raw draw onto [0, span) without modulo
        // bias beyond 2^-64 — indistinguishable at simulation sample counts.
        let wide = u128::from(self.next_u64()) * u128::from(span);
        lo + (wide >> 64) as u64
    }

    /// Uniform index in `[0, n)` — the idiom for random picks.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "cannot pick from an empty range");
        self.uniform_u64(0, n as u64) as usize
    }

    /// Standard normal variate via Box–Muller.
    pub fn standard_normal(&mut self) -> f64 {
        if let Some(z) = self.spare_normal.take() {
            return z;
        }
        // Draw u1 in (0, 1] to avoid ln(0).
        let u1: f64 = 1.0 - self.unit_f64();
        let u2: f64 = self.unit_f64();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        self.spare_normal = Some(r * theta.sin());
        r * theta.cos()
    }

    /// An endless stream of lognormal variates with the given *arithmetic*
    /// mean and shape `sigma` (the std-dev of the underlying normal), each
    /// drawn from this generator as it is taken.
    ///
    /// Parameterizing by the arithmetic mean lets callers plug in Table 1's
    /// average operator lengths directly: `E[X] = mean` exactly, with heavier
    /// tails as `sigma` grows. The log-mean is computed once per stream.
    ///
    /// # Panics
    ///
    /// Panics if `mean <= 0` or `sigma < 0`.
    pub fn lognormals(&mut self, mean: f64, sigma: f64) -> impl Iterator<Item = f64> + '_ {
        assert!(mean > 0.0, "lognormal mean must be positive, got {mean}");
        assert!(sigma >= 0.0, "lognormal sigma must be non-negative");
        // If X = exp(N(mu, sigma^2)) then E[X] = exp(mu + sigma^2/2);
        // solve for mu so the arithmetic mean is exact.
        let mu = mean.ln() - sigma * sigma / 2.0;
        std::iter::repeat_with(move || (mu + sigma * self.standard_normal()).exp())
    }

    /// Exponential variate with the given mean — inter-arrival times of a
    /// Poisson process with rate `1 / mean`.
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not positive.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(mean > 0.0, "exponential mean must be positive, got {mean}");
        // Inverse-CDF with u in (0, 1] to avoid ln(0).
        -mean * (1.0 - self.unit_f64()).ln()
    }

    /// Picks a uniformly random element, or `None` if the slice is empty.
    pub fn choose<'a, T>(&mut self, slice: &'a [T]) -> Option<&'a T> {
        if slice.is_empty() {
            None
        } else {
            slice.get(self.index(slice.len()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from(7);
        let mut b = SimRng::seed_from(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::seed_from(1);
        let mut b = SimRng::seed_from(2);
        let same = (0..16).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4, "streams from different seeds should diverge");
    }

    #[test]
    fn fork_is_deterministic_and_independent() {
        let mut parent1 = SimRng::seed_from(9);
        let mut parent2 = SimRng::seed_from(9);
        let mut c1 = parent1.fork(0);
        let mut c2 = parent2.fork(0);
        assert_eq!(c1.next_u64(), c2.next_u64());
        // A differently-salted fork gives a different stream.
        let mut c3 = parent1.fork(1);
        assert_ne!(c1.next_u64(), c3.next_u64());
    }

    #[test]
    fn unit_f64_stays_in_range() {
        let mut r = SimRng::seed_from(23);
        for _ in 0..10_000 {
            let x = r.unit_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn uniform_respects_bounds() {
        let mut r = SimRng::seed_from(3);
        for _ in 0..1000 {
            let x = r.uniform(2.0, 5.0);
            assert!((2.0..5.0).contains(&x));
            let n = r.uniform_u64(10, 20);
            assert!((10..20).contains(&n));
        }
    }

    #[test]
    fn uniform_u64_covers_small_ranges() {
        let mut r = SimRng::seed_from(29);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            seen[r.uniform_u64(0, 8) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all buckets reachable: {seen:?}");
    }

    #[test]
    fn standard_normal_moments_are_plausible() {
        let mut r = SimRng::seed_from(11);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| r.standard_normal()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean} too far from 0");
        assert!((var - 1.0).abs() < 0.1, "variance {var} too far from 1");
    }

    #[test]
    fn lognormal_arithmetic_mean_is_exact_in_expectation() {
        let mut r = SimRng::seed_from(13);
        let n = 40_000;
        let target = 877.0; // BERT's average SA operator length in µs (Table 1)
        let mean = r.lognormals(target, 0.5).take(n).sum::<f64>() / n as f64;
        assert!(
            (mean - target).abs() / target < 0.05,
            "sample mean {mean} vs target {target}"
        );
    }

    #[test]
    fn lognormal_zero_sigma_is_constant() {
        let mut r = SimRng::seed_from(17);
        for x in r.lognormals(50.0, 0.0).take(10) {
            assert!((x - 50.0).abs() < 1e-9);
        }
    }

    #[test]
    fn choose_from_empty_is_none() {
        let mut r = SimRng::seed_from(5);
        let empty: [u8; 0] = [];
        assert_eq!(r.choose(&empty), None);
        assert!(r.choose(&[1, 2, 3]).is_some());
    }

    #[test]
    fn exponential_mean_is_plausible_and_positive() {
        let mut r = SimRng::seed_from(19);
        let n = 40_000;
        let target = 5_000.0;
        let samples: Vec<f64> = (0..n).map(|_| r.exponential(target)).collect();
        assert!(samples.iter().all(|&x| x >= 0.0));
        let mean = samples.iter().sum::<f64>() / n as f64;
        assert!(
            (mean - target).abs() / target < 0.05,
            "sample mean {mean} vs target {target}"
        );
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn exponential_rejects_nonpositive_mean() {
        SimRng::seed_from(0).exponential(0.0);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn uniform_rejects_empty_range() {
        SimRng::seed_from(0).uniform(1.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn lognormal_rejects_nonpositive_mean() {
        let _ = SimRng::seed_from(0).lognormals(0.0, 1.0);
    }
}
