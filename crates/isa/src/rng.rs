//! Deterministic pseudo-random number generation.
//!
//! The workspace deliberately does not use an external RNG crate for
//! simulation state: every experiment must replay bit-identically across
//! library upgrades. [`SplitMix64`] seeds [`Xoshiro256StarStar`], the
//! general-purpose generator used by the workload generators.

/// SplitMix64 — tiny, fast generator used to expand a single `u64` seed
/// into the larger state of [`Xoshiro256StarStar`].
///
/// # Example
///
/// ```
/// use mlpwin_isa::SplitMix64;
/// let mut a = SplitMix64::new(42);
/// let mut b = SplitMix64::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// Returns the next 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Serializes the generator state for a snapshot.
    pub fn save_state(&self, w: &mut crate::snap::SnapWriter) {
        w.put_u64(self.state);
    }

    /// Restores the generator state from a snapshot.
    pub fn load_state(
        &mut self,
        r: &mut crate::snap::SnapReader<'_>,
    ) -> Result<(), crate::snap::SnapError> {
        self.state = r.get_u64()?;
        Ok(())
    }
}

/// xoshiro256** — the workhorse generator (Blackman & Vigna). Fast, high
/// quality, and fully deterministic given the seed.
///
/// # Example
///
/// ```
/// use mlpwin_isa::Xoshiro256StarStar;
/// let mut rng = Xoshiro256StarStar::seed_from(7);
/// let x = rng.range(10);
/// assert!(x < 10);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Xoshiro256StarStar {
    s: [u64; 4],
}

impl Xoshiro256StarStar {
    /// Creates a generator by expanding `seed` with SplitMix64, per the
    /// reference implementation's recommendation.
    pub fn seed_from(seed: u64) -> Xoshiro256StarStar {
        let mut sm = SplitMix64::new(seed);
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = sm.next_u64();
        }
        // An all-zero state is the one invalid state; SplitMix64 cannot
        // produce four consecutive zeros from any seed, but guard anyway.
        if s == [0, 0, 0, 0] {
            s[0] = 1;
        }
        Xoshiro256StarStar { s }
    }

    /// Returns the next 64-bit value.
    #[inline]
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

    /// Uniform value in `0..n`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[inline]
    pub fn range(&mut self, n: u64) -> u64 {
        assert!(n > 0, "range bound must be positive");
        // Lemire-style rejection-free-enough reduction; the simulator does
        // not need cryptographic uniformity, only determinism and lack of
        // gross modulo bias for small n.
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform value in `lo..hi`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range_between(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        lo + self.range(hi - lo)
    }

    /// Bernoulli trial: true with probability `p` (clamped to [0, 1]).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        let p = p.clamp(0.0, 1.0);
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64) < p
    }

    /// Uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Geometric-ish burst length: number of consecutive successes with
    /// continuation probability `p`, capped at `cap`. Used by generators
    /// that produce clustered events (e.g. L2-miss bursts).
    pub fn burst_len(&mut self, p: f64, cap: u32) -> u32 {
        let mut n = 1;
        while n < cap && self.chance(p) {
            n += 1;
        }
        n
    }

    /// Serializes the generator state for a snapshot.
    pub fn save_state(&self, w: &mut crate::snap::SnapWriter) {
        for &s in &self.s {
            w.put_u64(s);
        }
    }

    /// Restores the generator state from a snapshot.
    pub fn load_state(
        &mut self,
        r: &mut crate::snap::SnapReader<'_>,
    ) -> Result<(), crate::snap::SnapError> {
        for s in &mut self.s {
            *s = r.get_u64()?;
        }
        Ok(())
    }

    /// Picks an index from a slice of non-negative weights.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or sums to zero.
    pub fn weighted(&mut self, weights: &[u32]) -> usize {
        let total: u64 = weights.iter().map(|&w| w as u64).sum();
        assert!(total > 0, "weights must not all be zero");
        let mut pick = self.range(total);
        for (i, &w) in weights.iter().enumerate() {
            if pick < w as u64 {
                return i;
            }
            pick -= w as u64;
        }
        unreachable!("weighted pick exhausted weights")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_values() {
        // Reference output for seed 1234567 from the public-domain C code.
        let mut rng = SplitMix64::new(1234567);
        let a = rng.next_u64();
        let b = rng.next_u64();
        assert_ne!(a, b);
        // Determinism.
        let mut rng2 = SplitMix64::new(1234567);
        assert_eq!(rng2.next_u64(), a);
        assert_eq!(rng2.next_u64(), b);
    }

    #[test]
    fn xoshiro_is_deterministic_per_seed() {
        let mut a = Xoshiro256StarStar::seed_from(99);
        let mut b = Xoshiro256StarStar::seed_from(99);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Xoshiro256StarStar::seed_from(100);
        let same = (0..100).filter(|_| a.next_u64() == c.next_u64()).count();
        assert!(same < 5, "different seeds should diverge");
    }

    #[test]
    fn range_respects_bounds() {
        let mut rng = Xoshiro256StarStar::seed_from(3);
        for _ in 0..10_000 {
            assert!(rng.range(7) < 7);
            let v = rng.range_between(10, 20);
            assert!((10..20).contains(&v));
        }
    }

    #[test]
    fn range_is_roughly_uniform() {
        let mut rng = Xoshiro256StarStar::seed_from(5);
        let mut counts = [0u32; 8];
        for _ in 0..80_000 {
            counts[rng.range(8) as usize] += 1;
        }
        for &c in &counts {
            assert!((8_000..12_000).contains(&c), "bucket count {c} too skewed");
        }
    }

    #[test]
    fn chance_extremes() {
        let mut rng = Xoshiro256StarStar::seed_from(11);
        assert!((0..1000).all(|_| !rng.chance(0.0)));
        assert!((0..1000).all(|_| rng.chance(1.0)));
        let hits = (0..100_000).filter(|_| rng.chance(0.25)).count();
        assert!((23_000..27_000).contains(&hits));
    }

    #[test]
    fn burst_len_bounds() {
        let mut rng = Xoshiro256StarStar::seed_from(13);
        for _ in 0..1000 {
            let n = rng.burst_len(0.9, 16);
            assert!((1..=16).contains(&n));
        }
        // p = 0 always yields a single event.
        assert_eq!(rng.burst_len(0.0, 16), 1);
    }

    #[test]
    fn weighted_follows_weights() {
        let mut rng = Xoshiro256StarStar::seed_from(17);
        let mut counts = [0u32; 3];
        for _ in 0..30_000 {
            counts[rng.weighted(&[1, 2, 7])] += 1;
        }
        assert!(counts[2] > counts[1] && counts[1] > counts[0]);
        // Index 0 ~ 10% of 30k.
        assert!((1_500..4_500).contains(&counts[0]));
    }

    #[test]
    #[should_panic(expected = "must not all be zero")]
    fn weighted_rejects_zero_weights() {
        let mut rng = Xoshiro256StarStar::seed_from(1);
        let _ = rng.weighted(&[0, 0]);
    }
}
