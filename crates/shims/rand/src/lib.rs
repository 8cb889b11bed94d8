//! Offline stand-in for the `rand` crate.
//!
//! The build environment has no access to crates.io, so this workspace
//! vendors the *minimal* surface of `rand` 0.8 it actually uses: the
//! [`Rng`] / [`SeedableRng`] traits and a deterministic [`rngs::StdRng`].
//! The generator is SplitMix64 — statistically solid for simulation
//! workloads and fully reproducible from a `u64` seed. Streams are NOT
//! bit-compatible with upstream `rand`; nothing in this workspace depends
//! on upstream streams, only on in-process determinism.

/// Types that can be sampled uniformly from a generator (the stand-in for
/// `rand`'s `Standard` distribution).
pub trait SampleStandard {
    /// Draws one uniformly distributed value.
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self;
}

impl SampleStandard for u64 {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl SampleStandard for u32 {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 32) as u32
    }
}

impl SampleStandard for bool {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl SampleStandard for f64 {
    // Inlined so a vectorizing caller sees the whole draw: its loop need
    // not rest on rustc's cross-crate inlining heuristic.
    #[inline]
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        // 53 random mantissa bits -> uniform in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl SampleStandard for f32 {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

/// A random-number generator: one raw-bits method plus generic sampling,
/// mirroring the subset of `rand::Rng` this workspace calls.
pub trait Rng {
    /// The next 64 raw pseudo-random bits.
    fn next_u64(&mut self) -> u64;

    /// Samples a value uniformly (e.g. `rng.gen::<f64>()` in `[0, 1)`).
    fn gen<T: SampleStandard>(&mut self) -> T {
        T::sample(self)
    }

    /// Samples uniformly from `[low, high)`.
    ///
    /// # Panics
    ///
    /// Panics if `low >= high`.
    fn gen_range(&mut self, low: f64, high: f64) -> f64 {
        assert!(low < high, "gen_range: empty range");
        low + (high - low) * self.gen::<f64>()
    }
}

impl<R: Rng + ?Sized> Rng for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Construction of a generator from a seed.
pub trait SeedableRng: Sized {
    /// Builds a generator whose stream is fully determined by `state`.
    fn seed_from_u64(state: u64) -> Self;
}

/// Concrete generators.
pub mod rngs {
    use super::{Rng, SeedableRng};

    /// The workspace's standard deterministic generator (SplitMix64).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        state: u64,
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(state: u64) -> Self {
            // One warm-up step decorrelates small consecutive seeds.
            let mut rng = Self { state };
            let _ = rng.next_u64();
            rng
        }
    }

    impl Rng for StdRng {
        #[inline]
        fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_from_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let x: f64 = rng.gen();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }
}
