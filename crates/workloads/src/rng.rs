//! Deterministic pseudo-random number generation.
//!
//! Every simulation in this suite is a pure function of (configuration,
//! seed); the workload models therefore use a self-contained xoshiro256**
//! generator seeded through SplitMix64 rather than an external RNG whose
//! stream might change across versions.

/// A deterministic xoshiro256** PRNG.
///
/// # Example
///
/// ```
/// use hbc_workloads::Rng;
///
/// let mut a = Rng::new(42);
/// let mut b = Rng::new(42);
/// assert_eq!(a.next_u64(), b.next_u64()); // same seed, same stream
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Creates a generator from `seed` (any value, including zero).
    pub fn new(seed: u64) -> Self {
        // SplitMix64 expansion of the seed into the xoshiro state.
        let mut x = seed;
        let mut next = || {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        Rng { s: [next(), next(), next(), next()] }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform value in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be non-zero");
        // Multiply-shift range reduction; the tiny modulo bias is irrelevant
        // for workload sampling.
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }

    /// Uniform float in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Geometric sample with the given mean (support `1, 2, 3, ...`).
    ///
    /// Used for dependency distances: a mean of `m` produces mostly short
    /// distances with an exponential tail.
    ///
    /// # Panics
    ///
    /// Panics if `mean` is less than one.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "hot path: a float-to-int `as` saturates; the draw is positive"
    )]
    pub fn geometric(&mut self, mean: f64) -> u64 {
        assert!(mean >= 1.0, "geometric mean must be at least one");
        if mean == 1.0 {
            return 1;
        }
        let p = 1.0 / mean;
        let u = self.next_f64().max(f64::MIN_POSITIVE);
        (u.ln() / (1.0 - p).ln()).floor() as u64 + 1
    }

    /// The precomputed log-denominator `ln(1 - 1/mean)` for
    /// [`Rng::geometric_with`].
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not greater than one (`mean == 1.0` draws
    /// nothing in [`Rng::geometric`], so there is no denominator to cache).
    pub fn geometric_denom(mean: f64) -> f64 {
        assert!(mean > 1.0, "geometric denominator needs mean > 1");
        let p = 1.0 / mean;
        (1.0 - p).ln()
    }

    /// [`Rng::geometric`] with the `ln(1 - p)` denominator hoisted out:
    /// bit-identical samples from the identical single draw, minus one
    /// `ln` per call on hot paths that sample the same mean repeatedly.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "hot path: a float-to-int `as` saturates; the draw is positive"
    )]
    pub fn geometric_with(&mut self, denom: f64) -> u64 {
        let u = self.next_f64().max(f64::MIN_POSITIVE);
        (u.ln() / denom).floor() as u64 + 1
    }

    /// Consumes exactly the randomness of [`Rng::geometric`] without
    /// computing the sample (two `ln` calls): fast paths that discard the
    /// value keep draw parity with the full path at a fraction of the cost.
    pub fn skip_geometric(&mut self, mean: f64) {
        if mean != 1.0 {
            let _ = self.next_u64();
        }
    }

    /// Splits off an independent generator (for per-component streams).
    pub fn split(&mut self) -> Rng {
        Rng::new(self.next_u64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_streams() {
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2);
    }

    #[test]
    fn below_respects_bound() {
        let mut r = Rng::new(3);
        for _ in 0..10_000 {
            assert!(r.below(7) < 7);
        }
        for _ in 0..100 {
            assert_eq!(r.below(1), 0);
        }
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut r = Rng::new(9);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn chance_tracks_probability() {
        let mut r = Rng::new(11);
        let hits = (0..100_000).filter(|_| r.chance(0.3)).count();
        let frac = hits as f64 / 100_000.0;
        assert!((frac - 0.3).abs() < 0.01, "observed {frac}");
    }

    #[test]
    fn geometric_mean_is_close() {
        let mut r = Rng::new(13);
        let n = 200_000;
        let sum: u64 = (0..n).map(|_| r.geometric(5.0)).sum();
        let mean = sum as f64 / n as f64;
        assert!((mean - 5.0).abs() < 0.15, "observed mean {mean}");
        assert!((0..1000).all(|_| r.geometric(1.0) == 1));
    }

    #[test]
    fn geometric_with_matches_geometric() {
        let mut a = Rng::new(17);
        let mut b = Rng::new(17);
        let denom = Rng::geometric_denom(6.5);
        for _ in 0..10_000 {
            assert_eq!(a.geometric(6.5), b.geometric_with(denom));
        }
        assert_eq!(a, b, "identical draw counts leave identical state");
    }

    #[test]
    fn skip_geometric_keeps_draw_parity() {
        let mut a = Rng::new(23);
        let mut b = Rng::new(23);
        for mean in [1.0, 2.0, 40.0] {
            let _ = a.geometric(mean);
            b.skip_geometric(mean);
            assert_eq!(a, b, "mean {mean} desynchronized the streams");
        }
    }

    #[test]
    fn split_produces_independent_streams() {
        let mut parent = Rng::new(5);
        let mut child = parent.split();
        assert_ne!(parent.next_u64(), child.next_u64());
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn below_zero_bound_panics() {
        let _ = Rng::new(0).below(0);
    }
}
