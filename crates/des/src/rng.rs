//! Deterministic random-number generation for simulations.
//!
//! [`SimRng`] is a self-contained xoshiro256** generator (seeded through
//! SplitMix64, the reference seeding procedure) with the handful of
//! distributions the traffic models need (uniform, exponential, normal via
//! Box–Muller). Named sub-streams ([`SimRng::stream`]) let independent model
//! pieces draw from decorrelated sequences that are still fully determined by
//! the master seed, so adding a draw in one component never perturbs another
//! component's sequence. Being dependency-free keeps the draw sequence under
//! this crate's control: it can never shift underneath saved experiment seeds
//! because an upstream RNG crate changed its algorithm.

/// A seeded, deterministic random-number generator with the distribution
/// helpers simulation models need.
///
/// # Examples
///
/// ```
/// use tsbus_des::SimRng;
///
/// let mut rng = SimRng::seeded(7);
/// let a = rng.next_u64();
/// let mut rng2 = SimRng::seeded(7);
/// assert_eq!(a, rng2.next_u64()); // same seed, same sequence
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    state: [u64; 4],
    seed: u64,
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    #[must_use]
    pub fn seeded(seed: u64) -> Self {
        // Expand the seed through SplitMix64 so near-identical seeds still
        // produce uncorrelated xoshiro states (the reference construction).
        let mut splitmix = SplitMix64(seed);
        let state = [
            splitmix.next_u64(),
            splitmix.next_u64(),
            splitmix.next_u64(),
            splitmix.next_u64(),
        ];
        SimRng { state, seed }
    }

    /// Derives an independent, named sub-stream. The sub-stream's sequence
    /// depends only on the master seed and the name, not on how many draws
    /// the parent has made.
    #[must_use]
    pub fn stream(&self, name: &str) -> SimRng {
        SimRng::seeded(self.seed ^ fnv1a(name.as_bytes()))
    }

    /// The next raw 64-bit draw (xoshiro256**).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.state[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.state[1] << 17;
        self.state[2] ^= self.state[0];
        self.state[3] ^= self.state[1];
        self.state[1] ^= self.state[2];
        self.state[0] ^= self.state[3];
        self.state[2] ^= t;
        self.state[3] = self.state[3].rotate_left(45);
        result
    }

    /// A uniform draw in `[0, 1)`.
    #[inline]
    pub fn uniform_f64(&mut self) -> f64 {
        // 53 high-quality bits → the standard [0, 1) double construction.
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A uniform integer draw in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below requires a positive bound");
        // Lemire's multiply-shift bounded draw with rejection, unbiased.
        loop {
            let x = self.next_u64();
            let m = u128::from(x) * u128::from(bound);
            let low = m as u64;
            if low >= bound.wrapping_neg() % bound || bound.is_power_of_two() {
                return (m >> 64) as u64;
            }
        }
    }

    /// An exponentially distributed draw with the given mean (inverse-CDF
    /// method) — the inter-arrival law of Poisson traffic.
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not positive and finite.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(
            mean.is_finite() && mean > 0.0,
            "exponential mean must be positive and finite, got {mean}"
        );
        // 1 - u is in (0, 1], so ln never sees zero.
        let u = self.uniform_f64();
        -mean * (1.0 - u).ln()
    }

    /// A Bernoulli draw: `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0, 1]");
        self.uniform_f64() < p
    }
}

/// SplitMix64's output finaliser: a bijective mix that avalanches every
/// input bit across the output. The workspace's one copy: it finalises
/// each [`SplitMix64`] draw and the shard ring's FNV-1a hashes.
#[inline]
#[must_use]
pub fn splitmix64_finalize(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The SplitMix64 stream: a counter (the field; `SplitMix64(seed)` starts
/// at `seed`) advanced by the golden gamma and finalised per draw.
///
/// The workspace's one SplitMix64 step, replacing the private copies that
/// seeded [`SimRng`], mixed [`derive_stream_seed`] and derived the chaos
/// harnesses' fault environments (`tsbus_core::chaos`,
/// `tsbus_shard::chaos`). Saved seeds name the storms it derives, so its
/// sequence is pinned like [`derive_stream_seed`]'s.
#[derive(Debug, Clone)]
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    /// The next draw.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        splitmix64_finalize(self.0)
    }

    /// A draw in `[lo, hi)` (requires `lo < hi`) by remainder; the small
    /// modulo bias is part of the pinned fault derivations.
    #[inline]
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo)
    }
}

/// Derives the seed of the replication stream for one point of an
/// experiment campaign.
///
/// The derivation depends only on the three coordinates — never on
/// execution order, thread count, or how many draws any other stream has
/// made — so a campaign scheduled across a thread pool reproduces the
/// exact sequences of a serial run. The construction (two rounds of
/// SplitMix64 finalization over the mixed-in coordinates) is part of this
/// crate's stability contract: changing it would silently shift every
/// saved campaign result, so it is pinned by golden-value tests.
#[must_use]
pub fn derive_stream_seed(campaign_seed: u64, point_index: u64, replication: u64) -> u64 {
    // Distinct odd multipliers keep (point, replication) = (a, b) and
    // (b, a) from colliding; the SplitMix64 finalizer then decorrelates
    // neighbouring coordinates.
    let mut z = campaign_seed
        ^ point_index.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        ^ replication.wrapping_mul(0xc2b2_ae3d_27d4_eb4f);
    for _ in 0..2 {
        z = SplitMix64(z).next_u64();
    }
    z
}

/// Derives an independent [`SimRng`] stream for one `(point, replication)`
/// of an experiment campaign — see [`derive_stream_seed`].
///
/// # Examples
///
/// ```
/// use tsbus_des::derive_stream;
///
/// let mut a = derive_stream(42, 3, 0);
/// let mut b = derive_stream(42, 3, 1);
/// assert_ne!(a.next_u64(), b.next_u64()); // replications decorrelate
/// ```
#[must_use]
pub fn derive_stream(campaign_seed: u64, point_index: u64, replication: u64) -> SimRng {
    SimRng::seeded(derive_stream_seed(campaign_seed, point_index, replication))
}

/// FNV-1a over bytes — a stable, dependency-free string hash for deriving
/// sub-stream seeds (must never change across versions or saved experiment
/// seeds would silently shift).
fn fnv1a(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = OFFSET;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(PRIME);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_independent_of_parent_draws() {
        let mut a = SimRng::seeded(1);
        let b = SimRng::seeded(1);
        let _ = a.next_u64(); // perturb the parent
        let mut sa = a.stream("cbr");
        let mut sb = b.stream("cbr");
        assert_eq!(sa.next_u64(), sb.next_u64());
    }

    #[test]
    fn streams_with_different_names_differ() {
        let root = SimRng::seeded(1);
        let mut a = root.stream("alpha");
        let mut b = root.stream("beta");
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn nearby_seeds_are_uncorrelated() {
        let mut a = SimRng::seeded(0);
        let mut b = SimRng::seeded(1);
        let matches = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(matches, 0, "adjacent seeds should share no draws");
    }

    #[test]
    fn exponential_mean_is_close() {
        let mut rng = SimRng::seeded(99);
        let n = 20_000;
        let total: f64 = (0..n).map(|_| rng.exponential(2.5)).sum();
        let mean = total / f64::from(n);
        assert!(
            (mean - 2.5).abs() < 0.1,
            "sample mean {mean} too far from 2.5"
        );
    }

    #[test]
    fn exponential_is_nonnegative() {
        let mut rng = SimRng::seeded(3);
        for _ in 0..10_000 {
            assert!(rng.exponential(0.001) >= 0.0);
        }
    }

    #[test]
    fn below_respects_bound() {
        let mut rng = SimRng::seeded(8);
        for _ in 0..1000 {
            assert!(rng.below(7) < 7);
        }
    }

    #[test]
    fn below_covers_small_bounds() {
        let mut rng = SimRng::seeded(11);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            seen[rng.below(7) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues reachable: {seen:?}");
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::seeded(8);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn exponential_rejects_bad_mean() {
        let _ = SimRng::seeded(0).exponential(0.0);
    }

    #[test]
    fn stream_seeds_are_pairwise_distinct() {
        let mut seen = std::collections::HashSet::new();
        for campaign in [0u64, 1, 42, u64::MAX] {
            for point in 0..16 {
                for rep in 0..8 {
                    assert!(
                        seen.insert(derive_stream_seed(campaign, point, rep)),
                        "collision at campaign={campaign} point={point} rep={rep}"
                    );
                }
            }
        }
    }

    #[test]
    fn stream_seeds_ignore_coordinate_swap() {
        // (point, rep) = (a, b) and (b, a) must not collide.
        assert_ne!(derive_stream_seed(7, 2, 5), derive_stream_seed(7, 5, 2));
    }

    #[test]
    fn stream_derivation_is_stable_across_releases() {
        // Golden values: saved campaign caches key on these seeds, so the
        // derivation is frozen. If this test fails, the derivation changed
        // and every on-disk campaign result would silently be invalidated.
        assert_eq!(derive_stream_seed(0, 0, 0), 0xa706_dd2f_4d19_7e6f);
        assert_eq!(derive_stream_seed(42, 0, 0), 0x57e1_faba_6510_7204);
        assert_eq!(derive_stream_seed(42, 1, 0), 0xfc99_1bca_1a1a_a1ae);
        assert_eq!(derive_stream_seed(42, 0, 1), 0xe470_2c25_dd86_7201);
        assert_eq!(
            derive_stream_seed(u64::MAX, 1000, 99),
            0xf919_c1c2_6683_b97f
        );
    }

    #[test]
    fn derive_stream_matches_seed() {
        let mut derived = derive_stream(9, 4, 2);
        let mut seeded = SimRng::seeded(derive_stream_seed(9, 4, 2));
        assert_eq!(derived.below(1 << 40), seeded.below(1 << 40));
    }
}
