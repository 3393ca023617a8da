//! Deterministic random-number support for the simulator.
//!
//! Every simulation run is seeded explicitly; identical seeds reproduce
//! identical packet traces, which the tests and experiments rely on.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The simulator's RNG: a seeded [`SmallRng`] plus the distribution helpers
/// the network models need (`rand_distr` is outside the approved dependency
/// set, so exponential sampling is implemented here).
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: SmallRng,
}

impl SimRng {
    /// Create from a 64-bit seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        SimRng {
            inner: SmallRng::seed_from_u64(seed),
        }
    }

    /// Uniform in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// Uniform integer in `[lo, hi)`. Panics if the range is empty.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range");
        self.inner.gen_range(lo..hi)
    }

    /// Bernoulli trial with success probability `p` (clamped to \[0,1\]).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.f64() < p
        }
    }

    /// Exponential with the given mean (inverse-transform sampling).
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(mean > 0.0, "exponential mean must be positive");
        let u = loop {
            let u = self.f64();
            if u > 1e-12 {
                break u;
            }
        };
        -mean * u.ln()
    }

    /// Split off an independent child RNG (for per-link streams), seeded
    /// deterministically from this one.
    pub fn split(&mut self) -> SimRng {
        SimRng::seed_from_u64(self.inner.gen())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_seeds_identical_streams() {
        let mut a = SimRng::seed_from_u64(42);
        let mut b = SimRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.f64().to_bits(), b.f64().to_bits());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::seed_from_u64(1);
        let mut b = SimRng::seed_from_u64(2);
        let same = (0..32).filter(|_| a.f64() == b.f64()).count();
        assert!(same < 4);
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::seed_from_u64(7);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-0.5));
        assert!(r.chance(1.5));
    }

    #[test]
    fn exponential_mean_approximately_right() {
        let mut r = SimRng::seed_from_u64(13);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| r.exponential(3.0)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.15, "mean {mean}");
        // Exponential samples are non-negative.
        assert!((0..100).all(|_| r.exponential(1.0) >= 0.0));
    }

    #[test]
    fn split_is_deterministic() {
        let mut a = SimRng::seed_from_u64(99);
        let mut b = SimRng::seed_from_u64(99);
        let mut ca = a.split();
        let mut cb = b.split();
        for _ in 0..10 {
            assert_eq!(ca.f64().to_bits(), cb.f64().to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        let mut r = SimRng::seed_from_u64(1);
        let _ = r.range_u64(5, 5);
    }
}
