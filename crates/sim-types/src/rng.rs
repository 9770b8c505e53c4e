//! Deterministic pseudo-random number generation.
//!
//! Simulations must be reproducible byte-for-byte: the same seed must give
//! the same trace, placement and statistics on every platform and in every
//! run. [`SplitMix64`] is a tiny, well-understood generator (Steele et al.,
//! OOPSLA 2014) that we use everywhere randomness is needed inside the
//! simulator itself. Workload *generation* additionally uses the `rand`
//! crate in `workloads`, seeded from this type.

/// A 64-bit SplitMix generator.
///
/// ```
/// use sim_types::rng::SplitMix64;
/// let mut a = SplitMix64::new(42);
/// let mut b = SplitMix64::new(42);
/// assert_eq!(a.next_u64(), b.next_u64()); // deterministic
/// let x = a.gen_range(10);
/// assert!(x < 10);
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed. Any seed, including 0, is fine.
    pub const fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Returns the next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Returns a uniformly distributed value in `0..bound`.
    ///
    /// Uses the widening-multiply technique (Lemire); slightly biased for
    /// astronomically large bounds, which is irrelevant at simulator scale.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    #[inline]
    pub fn gen_range(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "gen_range bound must be non-zero");
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }

    /// Returns `true` with probability `num/den`.
    ///
    /// # Panics
    ///
    /// Panics if `den == 0`.
    #[inline]
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.gen_range(den) < num
    }

    /// Derives an independent child generator; handy for giving each core or
    /// each workload phase its own stream.
    #[must_use]
    pub fn fork(&mut self) -> SplitMix64 {
        SplitMix64::new(self.next_u64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_equal_seeds() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn known_value_from_reference_implementation() {
        // First output of SplitMix64 with seed 0 is 0xE220A8397B1DCDAF.
        let mut g = SplitMix64::new(0);
        assert_eq!(g.next_u64(), 0xE220_A839_7B1D_CDAF);
    }

    #[test]
    fn gen_range_respects_bound() {
        let mut g = SplitMix64::new(99);
        for _ in 0..10_000 {
            assert!(g.gen_range(17) < 17);
        }
    }

    #[test]
    fn gen_range_covers_small_domains() {
        let mut g = SplitMix64::new(5);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            seen[g.gen_range(8) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all buckets should be hit");
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn gen_range_zero_bound_panics() {
        SplitMix64::new(0).gen_range(0);
    }

    #[test]
    fn chance_extremes() {
        let mut g = SplitMix64::new(3);
        for _ in 0..100 {
            assert!(g.chance(1, 1));
            assert!(!g.chance(0, 5));
        }
    }

    #[test]
    fn fork_produces_independent_stream() {
        let mut parent = SplitMix64::new(42);
        let mut child = parent.fork();
        // Child continues deterministically and differs from parent's stream.
        let c: Vec<u64> = (0..4).map(|_| child.next_u64()).collect();
        let p: Vec<u64> = (0..4).map(|_| parent.next_u64()).collect();
        assert_ne!(c, p);
    }

    #[test]
    fn rough_uniformity() {
        let mut g = SplitMix64::new(2024);
        let mut buckets = [0u32; 10];
        let n = 100_000;
        for _ in 0..n {
            buckets[g.gen_range(10) as usize] += 1;
        }
        for &b in &buckets {
            let expected = n / 10;
            assert!(
                (b as i64 - expected as i64).unsigned_abs() < expected as u64 / 10,
                "bucket count {b} too far from {expected}"
            );
        }
    }
}
