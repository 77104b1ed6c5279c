//! Deterministic, forkable random-number streams.
//!
//! Every stochastic component of a model gets its own `RngStream`, forked
//! from the simulation's master stream by a *label*. Forking by label —
//! rather than drawing sub-seeds sequentially — means adding a new
//! component (or reordering initialization) does not shift the random
//! sequence observed by existing components, which keeps experiment
//! results comparable across code revisions.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A deterministic random stream (xoshiro-family generator from `rand`'s
/// `SmallRng`, seeded explicitly — never from OS entropy).
pub struct RngStream {
    rng: SmallRng,
    seed: u64,
}

impl RngStream {
    /// Creates a stream from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        RngStream {
            rng: SmallRng::seed_from_u64(seed),
            seed,
        }
    }

    /// Derives an independent child stream identified by `label`.
    ///
    /// The child seed is `fnv1a(parent_seed || label)`, so the same
    /// (seed, label) pair always yields the same child stream.
    pub fn fork(&self, label: &str) -> RngStream {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in self.seed.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        for b in label.as_bytes() {
            h ^= *b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        RngStream::new(h)
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.rng.random()
    }

    /// Uniform draw in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        self.rng.random::<f64>()
    }

    /// Uniform integer in `[lo, hi)`. Panics if `lo >= hi`.
    pub fn uniform_range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "uniform_range: empty range");
        self.rng.random_range(lo..hi)
    }

    /// Uniform float in `[lo, hi)`.
    pub fn uniform_f64(&mut self, lo: f64, hi: f64) -> f64 {
        self.rng.random_range(lo..hi)
    }

    /// Bernoulli trial with success probability `p` (clamped to `[0,1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.uniform() < p
        }
    }

    /// Exponentially distributed draw with the given mean (seconds).
    /// Used for inter-arrival jitter; returns 0 for non-positive means.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        if mean <= 0.0 {
            return 0.0;
        }
        // Inverse CDF; (1 - u) avoids ln(0).
        -mean * (1.0 - self.uniform()).ln()
    }

    /// Picks a uniformly random element index from a non-empty slice len.
    pub fn pick(&mut self, len: usize) -> usize {
        assert!(len > 0, "pick from empty collection");
        self.rng.random_range(0..len)
    }

    /// Fisher–Yates shuffles a slice in place.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.rng.random_range(0..=i);
            xs.swap(i, j);
        }
    }
}

impl std::fmt::Debug for RngStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "RngStream(seed={:#x})", self.seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence() {
        let mut a = RngStream::new(42);
        let mut b = RngStream::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn forks_are_label_stable() {
        let parent = RngStream::new(42);
        let mut c1 = parent.fork("scheduler");
        let mut c2 = parent.fork("scheduler");
        let mut other = parent.fork("client-3");
        assert_eq!(c1.next_u64(), c2.next_u64());
        // Overwhelmingly unlikely to collide if streams are independent.
        assert_ne!(c1.next_u64(), other.next_u64());
    }

    #[test]
    fn uniform_in_unit_interval() {
        let mut r = RngStream::new(1);
        for _ in 0..1000 {
            let x = r.uniform();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = RngStream::new(1);
        assert!(!r.chance(0.0));
        assert!(!r.chance(-1.0));
        assert!(r.chance(1.0));
        assert!(r.chance(2.0));
    }

    #[test]
    fn exponential_mean_roughly_correct() {
        let mut r = RngStream::new(5);
        let n = 20_000;
        let mean = 10.0;
        let sum: f64 = (0..n).map(|_| r.exponential(mean)).sum();
        let observed = sum / n as f64;
        assert!(
            (observed - mean).abs() < 0.5,
            "observed mean {observed} too far from {mean}"
        );
        assert_eq!(r.exponential(0.0), 0.0);
        assert_eq!(r.exponential(-3.0), 0.0);
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = RngStream::new(3);
        let mut xs: Vec<u32> = (0..50).collect();
        r.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn uniform_range_bounds() {
        let mut r = RngStream::new(3);
        for _ in 0..1000 {
            let x = r.uniform_range(10, 20);
            assert!((10..20).contains(&x));
        }
    }
}
