//! Deterministic random-number generation.
//!
//! All randomness in the simulator flows through [`SimRng`], an in-tree
//! xoshiro256** generator seeded through SplitMix64 (Blackman & Vigna's
//! recommended seeding procedure). The implementation is self-contained so
//! the workspace builds with no external crates and no network access; the
//! wrapper exposes exactly the distributions the workload models need and
//! supports deterministic splitting ([`SimRng::fork`]) so that independent
//! subsystems (e.g. each task's behaviour) consume independent streams —
//! adding a draw in one workload does not perturb another.
//!
//! The module also hosts the seed-derivation helpers ([`splitmix64`],
//! [`mix64`], [`hash_str`]) that the experiment harness uses to derive
//! per-cell seeds: a cell's seed is a pure function of the base seed and
//! the cell's coordinates, never of execution order, which is what makes
//! parallel experiment runs byte-identical to serial ones.

/// One step of the SplitMix64 sequence: returns the output for state `x`.
///
/// SplitMix64 (Steele, Lea & Flood, OOPSLA 2014) is a bijective finalizer
/// with good avalanche behaviour, which also makes it a solid one-shot
/// 64-bit hash.
///
/// # Examples
///
/// ```
/// use nest_simcore::rng::splitmix64;
///
/// // Deterministic and sensitive to every input bit.
/// assert_eq!(splitmix64(1), splitmix64(1));
/// assert_ne!(splitmix64(1), splitmix64(2));
/// ```
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Folds `word` into accumulator `acc`, SplitMix-style.
///
/// Repeated calls build an order-sensitive hash of a word sequence:
/// `mix64(mix64(seed, a), b)` differs from `mix64(mix64(seed, b), a)`.
pub fn mix64(acc: u64, word: u64) -> u64 {
    splitmix64(acc ^ splitmix64(word))
}

/// Hashes a string to a 64-bit value (for labeling seed streams).
///
/// FNV-1a over the UTF-8 bytes, finalized with [`splitmix64`] for better
/// diffusion of the high bits.
pub fn hash_str(s: &str) -> u64 {
    let mut h = Fnv1a::new();
    h.write(s.as_bytes());
    h.finish()
}

/// The streaming form of [`hash_str`]: bytes fed in any number of pieces
/// hash exactly as their concatenation would.
///
/// # Examples
///
/// ```
/// use nest_simcore::rng::{hash_str, Fnv1a};
///
/// let mut h = Fnv1a::new();
/// h.write(b"Nest ");
/// h.write(b"sched");
/// assert_eq!(h.finish(), hash_str("Nest sched"));
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// A hasher that has seen no bytes.
    pub fn new() -> Fnv1a {
        Fnv1a(0xCBF2_9CE4_8422_2325)
    }

    /// Feeds `bytes` into the hash.
    pub fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= *b as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01B3);
        }
    }

    /// The [`splitmix64`]-finalized digest of everything written so far.
    pub fn finish(&self) -> u64 {
        splitmix64(self.0)
    }
}

impl Default for Fnv1a {
    fn default() -> Fnv1a {
        Fnv1a::new()
    }
}

/// A deterministic, splittable random-number generator (xoshiro256**).
///
/// # Examples
///
/// ```
/// use nest_simcore::rng::SimRng;
///
/// let mut a = SimRng::new(7);
/// let mut b = SimRng::new(7);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
pub struct SimRng {
    s: [u64; 4],
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    ///
    /// The 256-bit xoshiro state is filled by iterating SplitMix64 from
    /// the seed, the seeding procedure the xoshiro authors recommend.
    pub fn new(seed: u64) -> SimRng {
        let mut x = seed;
        let mut s = [0u64; 4];
        for w in &mut s {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            *w = splitmix64(x);
        }
        // All-zero state is the one invalid xoshiro state; splitmix64 of
        // four consecutive states cannot all be zero, but keep the guard
        // explicit for clarity.
        if s == [0, 0, 0, 0] {
            s[0] = 0x9E37_79B9_7F4A_7C15;
        }
        SimRng { s }
    }

    /// Returns the raw 256-bit xoshiro state (for snapshots).
    ///
    /// Together with [`SimRng::from_state`] this makes the generator
    /// losslessly checkpointable: restoring the returned words yields a
    /// generator whose future draws are bit-identical to this one's.
    pub fn state(&self) -> [u64; 4] {
        self.s
    }

    /// Reconstructs a generator from a state captured by
    /// [`SimRng::state`].
    ///
    /// The all-zero state is invalid for xoshiro and is coerced to the
    /// same fallback [`SimRng::new`] uses; a captured state can never be
    /// all-zero, so round-trips are exact.
    pub fn from_state(s: [u64; 4]) -> SimRng {
        if s == [0, 0, 0, 0] {
            return SimRng {
                s: [0x9E37_79B9_7F4A_7C15, 0, 0, 0],
            };
        }
        SimRng { s }
    }

    /// Derives an independent generator for a labeled subsystem.
    ///
    /// The child stream is a pure function of the parent seed state and the
    /// label, so reordering *draws* between subsystems cannot change any
    /// subsystem's stream.
    pub fn fork(&mut self, label: u64) -> SimRng {
        let s = self.next_u64();
        SimRng::new(s ^ label.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Returns the next raw 64-bit value (xoshiro256** step).
    pub fn next_u64(&mut self) -> u64 {
        let out = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        out
    }

    /// Returns a uniformly distributed integer in `[lo, hi]`.
    ///
    /// Uses Lemire's widening-multiply rejection method, so every value in
    /// the range is exactly equally likely.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn uniform_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "empty range [{lo}, {hi}]");
        let span = hi - lo;
        if span == u64::MAX {
            return self.next_u64();
        }
        let n = span + 1;
        // Rejection zone below 2^64 mod n keeps the draw unbiased.
        let threshold = n.wrapping_neg() % n;
        loop {
            let x = self.next_u64();
            let wide = (x as u128) * (n as u128);
            if (wide as u64) >= threshold {
                return lo + (wide >> 64) as u64;
            }
        }
    }

    /// Returns a uniformly distributed `f64` in `[0, 1)`.
    pub fn uniform_f64(&mut self) -> f64 {
        // 53 random mantissa bits scaled by 2^-53.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn chance(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
        self.uniform_f64() < p
    }

    /// Returns a sample from an exponential distribution with the given
    /// mean, as used for inter-arrival and service times.
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not positive and finite.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(mean.is_finite() && mean > 0.0, "invalid mean: {mean}");
        // u ∈ (0, 1]: never 0, so ln(u) is finite; u = 1 gives sample 0.
        let u = ((self.next_u64() >> 11) + 1) as f64 * (1.0 / (1u64 << 53) as f64);
        -mean * u.ln()
    }

    /// Returns a sample from a log-normal-ish "jittered" value: `base`
    /// multiplied by a factor uniform in `[1 - jitter, 1 + jitter]`.
    ///
    /// Used to desynchronize otherwise identical tasks (e.g. NAS workers).
    ///
    /// # Panics
    ///
    /// Panics if `jitter` is outside `[0, 1]`.
    pub fn jitter(&mut self, base: u64, jitter: f64) -> u64 {
        assert!(
            (0.0..=1.0).contains(&jitter),
            "jitter out of range: {jitter}"
        );
        if jitter == 0.0 || base == 0 {
            return base;
        }
        let factor = 1.0 + jitter * (2.0 * self.uniform_f64() - 1.0);
        ((base as f64) * factor).round().max(0.0) as u64
    }

    /// Samples an index from a slice of relative weights.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty, any weight is negative or non-finite,
    /// or the weights sum to zero.
    pub fn weighted_index(&mut self, weights: &[f64]) -> usize {
        assert!(!weights.is_empty(), "no weights");
        let total: f64 = weights
            .iter()
            .inspect(|w| {
                assert!(
                    w.is_finite() && **w >= 0.0,
                    "weights must be non-negative and finite"
                );
            })
            .sum();
        assert!(total > 0.0, "weights must sum > 0");
        let mut target = self.uniform_f64() * total;
        for (i, w) in weights.iter().enumerate() {
            if target < *w {
                return i;
            }
            target -= w;
        }
        // Float round-off can leave a vanishing remainder past the last
        // positive weight; attribute it there.
        weights
            .iter()
            .rposition(|w| *w > 0.0)
            .expect("some weight is positive")
    }

    /// Shuffles a slice in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.uniform_u64(0, i as u64) as usize;
            slice.swap(i, j);
        }
    }

    /// Returns a standard-normal sample (Box–Muller transform).
    ///
    /// Consumes exactly two raw draws per call regardless of the sample
    /// value, so interleaving normal draws with other distributions keeps
    /// streams reproducible.
    pub fn normal(&mut self) -> f64 {
        // u1 ∈ (0, 1] so ln(u1) is finite; u2 ∈ [0, 1).
        let u1 = ((self.next_u64() >> 11) + 1) as f64 * (1.0 / (1u64 << 53) as f64);
        let u2 = self.uniform_f64();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Returns a log-normal sample `exp(mu + sigma·Z)` with `Z` standard
    /// normal, as used for heavy-tailed service times.
    ///
    /// # Panics
    ///
    /// Panics if either parameter is non-finite or `sigma` is negative.
    pub fn lognormal(&mut self, mu: f64, sigma: f64) -> f64 {
        assert!(
            mu.is_finite() && sigma.is_finite() && sigma >= 0.0,
            "invalid lognormal parameters: mu={mu}, sigma={sigma}"
        );
        (mu + sigma * self.normal()).exp()
    }
}

impl std::fmt::Debug for SimRng {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("SimRng")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(123);
        let mut b = SimRng::new(123);
        for _ in 0..32 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn matches_xoshiro_reference_vector() {
        // State {1,2,3,4} must produce the xoshiro256** reference outputs.
        let mut r = SimRng { s: [1, 2, 3, 4] };
        let expected: [u64; 4] = [11520, 0, 1509978240, 1215971899390074240];
        for e in expected {
            assert_eq!(r.next_u64(), e);
        }
    }

    #[test]
    fn splitmix_reference_vector() {
        // The canonical SplitMix64 seed-0 output sequence: the generator
        // advances its state by the golden gamma before each finalize, so
        // output i is splitmix64(i * gamma).
        let gamma = 0x9E37_79B9_7F4A_7C15u64;
        let expected: [u64; 3] = [
            0xE220_A839_7B1D_CDAF,
            0x6E78_9E6A_A1B9_65F4,
            0x06C4_5D18_8009_454F,
        ];
        for (i, e) in expected.into_iter().enumerate() {
            assert_eq!(splitmix64(gamma.wrapping_mul(i as u64)), e);
        }
    }

    #[test]
    fn mix64_is_order_sensitive() {
        assert_ne!(mix64(mix64(0, 1), 2), mix64(mix64(0, 2), 1));
        assert_eq!(mix64(7, 9), mix64(7, 9));
    }

    #[test]
    fn hash_str_distinguishes_labels() {
        assert_eq!(hash_str("Nest sched"), hash_str("Nest sched"));
        assert_ne!(hash_str("Nest sched"), hash_str("Nest perf"));
        assert_ne!(hash_str(""), hash_str(" "));
    }

    #[test]
    fn forked_streams_differ_from_parent_and_each_other() {
        let mut parent = SimRng::new(1);
        let mut c1 = parent.fork(10);
        let mut parent2 = SimRng::new(1);
        let mut c2 = parent2.fork(11);
        assert_ne!(c1.next_u64(), c2.next_u64());
    }

    #[test]
    fn fork_is_deterministic() {
        let mut a = SimRng::new(9).fork(5);
        let mut b = SimRng::new(9).fork(5);
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn uniform_respects_bounds() {
        let mut r = SimRng::new(2);
        for _ in 0..1000 {
            let v = r.uniform_u64(10, 20);
            assert!((10..=20).contains(&v));
        }
        assert_eq!(r.uniform_u64(5, 5), 5);
        let _ = r.uniform_u64(0, u64::MAX);
    }

    #[test]
    fn uniform_is_roughly_uniform() {
        let mut r = SimRng::new(8);
        let mut counts = [0usize; 10];
        for _ in 0..10_000 {
            counts[r.uniform_u64(0, 9) as usize] += 1;
        }
        for c in counts {
            assert!((800..1200).contains(&c), "bucket count {c}");
        }
    }

    #[test]
    fn uniform_f64_in_unit_interval() {
        let mut r = SimRng::new(10);
        for _ in 0..10_000 {
            let v = r.uniform_f64();
            assert!((0.0..1.0).contains(&v), "{v}");
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::new(3);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
    }

    #[test]
    fn exponential_mean_roughly_correct() {
        let mut r = SimRng::new(4);
        let n = 20_000;
        let sum: f64 = (0..n).map(|_| r.exponential(5.0)).sum();
        let mean = sum / n as f64;
        assert!((mean - 5.0).abs() < 0.2, "mean was {mean}");
    }

    #[test]
    fn jitter_bounds() {
        let mut r = SimRng::new(5);
        for _ in 0..1000 {
            let v = r.jitter(1000, 0.1);
            assert!((900..=1100).contains(&v), "{v}");
        }
        assert_eq!(r.jitter(1000, 0.0), 1000);
        assert_eq!(r.jitter(0, 0.5), 0);
    }

    #[test]
    fn weighted_index_prefers_heavy_weight() {
        let mut r = SimRng::new(6);
        let mut counts = [0usize; 2];
        for _ in 0..1000 {
            counts[r.weighted_index(&[1.0, 9.0])] += 1;
        }
        assert!(counts[1] > counts[0]);
    }

    #[test]
    fn weighted_index_skips_zero_weights() {
        let mut r = SimRng::new(12);
        for _ in 0..100 {
            assert_eq!(r.weighted_index(&[0.0, 1.0, 0.0]), 1);
        }
    }

    #[test]
    fn normal_moments_roughly_standard() {
        let mut r = SimRng::new(11);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| r.normal()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean was {mean}");
        assert!((var - 1.0).abs() < 0.1, "variance was {var}");
    }

    #[test]
    fn normal_draw_count_is_fixed() {
        // Two generators stay in lockstep when one interleaves normal
        // draws and the other burns two raw draws per normal.
        let mut a = SimRng::new(13);
        let mut b = SimRng::new(13);
        let _ = a.normal();
        let _ = b.next_u64();
        let _ = b.next_u64();
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn lognormal_mean_matches_formula() {
        // E[lognormal(mu, sigma)] = exp(mu + sigma^2 / 2).
        let (mu, sigma) = (1.0f64, 0.5f64);
        let expected = (mu + sigma * sigma / 2.0).exp();
        let mut r = SimRng::new(14);
        let n = 40_000;
        let mean = (0..n).map(|_| r.lognormal(mu, sigma)).sum::<f64>() / n as f64;
        assert!((mean - expected).abs() / expected < 0.05, "mean was {mean}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = SimRng::new(7);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }
}
