//! Offline stand-in for the `proptest` crate.
//!
//! Implements the slice used by the workspace's property tests: the
//! [`proptest!`] macro (with `#![proptest_config(..)]`), range and
//! `prop::collection::vec` strategies, `any::<T>()`, `.prop_map(..)`,
//! and the `prop_assert*` / `prop_assume!` macros.
//!
//! Differences from the real crate, deliberate for an offline CI:
//! no shrinking (a failing case panics with its values via the assertion
//! message), and case generation is fully deterministic — seeds are
//! derived from the test name and case index, so failures reproduce
//! exactly on every run and machine.

use rand::{Rng, SeedableRng, StdRng};
use std::marker::PhantomData;
use std::ops::{Range, RangeInclusive};

/// Per-test configuration; only `cases` is consulted.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases to run for each property.
    pub cases: u32,
    /// Accepted for source compatibility with upstream proptest; this
    /// shim reports the failing case verbatim instead of shrinking it.
    pub max_shrink_iters: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig {
            cases: 256,
            max_shrink_iters: 1024,
        }
    }
}

/// Deterministic per-case source of randomness handed to strategies.
pub struct TestRng(StdRng);

impl TestRng {
    /// RNG for `case` of the property named `name` — a pure function of
    /// both, so every run explores the identical case list.
    pub fn for_case(name: &str, case: u32) -> Self {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        TestRng(StdRng::seed_from_u64(h ^ (u64::from(case) << 32 | 0x9E37)))
    }

    /// Next raw 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
    }

    fn gen_f64(&mut self, lo: f64, hi: f64) -> f64 {
        self.0.gen_range(lo..=hi)
    }

    fn gen_usize(&mut self, lo: usize, hi_inclusive: usize) -> usize {
        self.0.gen_range(lo..=hi_inclusive)
    }
}

/// A generator of test-case values, mirroring `proptest::strategy::Strategy`.
pub trait Strategy {
    /// The type of value this strategy produces.
    type Value;

    /// Produce one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Transform generated values with `f`.
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

/// Strategy adapter produced by [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;

    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

impl Strategy for Range<f64> {
    type Value = f64;

    fn generate(&self, rng: &mut TestRng) -> f64 {
        // treat the half-open bound as inclusive; the measure-zero
        // difference is irrelevant to the properties under test
        rng.gen_f64(self.start, self.end)
    }
}

impl Strategy for RangeInclusive<f64> {
    type Value = f64;

    fn generate(&self, rng: &mut TestRng) -> f64 {
        rng.gen_f64(*self.start(), *self.end())
    }
}

macro_rules! impl_int_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty strategy range");
                self.start + (rng.next_u64() % (self.end - self.start) as u64) as $t
            }
        }

        impl Strategy for RangeInclusive<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty strategy range");
                let span = (hi - lo) as u64 + 1;
                lo + (rng.next_u64() % span) as $t
            }
        }
    )*};
}

impl_int_strategy!(u32, u64, usize, i32, i64);

/// Strategy for the full value domain of `T`; see [`any`].
pub struct Any<T>(PhantomData<T>);

/// Mirror of `proptest::arbitrary::any::<T>()`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(PhantomData)
}

/// Types with a canonical whole-domain strategy.
pub trait Arbitrary {
    /// Sample uniformly from the full domain.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

impl Arbitrary for u64 {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64()
    }
}

impl Arbitrary for u32 {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() as u32
    }
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// Collection strategies (`prop::collection::vec`).
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::{Range, RangeInclusive};

    /// Length specifications accepted by [`vec()`]: an exact length, a
    /// half-open range, or an inclusive range.
    pub trait IntoSizeRange {
        /// The inclusive `(min, max)` length bounds.
        fn bounds(&self) -> (usize, usize);
    }

    impl IntoSizeRange for usize {
        fn bounds(&self) -> (usize, usize) {
            (*self, *self)
        }
    }

    impl IntoSizeRange for Range<usize> {
        fn bounds(&self) -> (usize, usize) {
            assert!(self.start < self.end, "empty size range");
            (self.start, self.end - 1)
        }
    }

    impl IntoSizeRange for RangeInclusive<usize> {
        fn bounds(&self) -> (usize, usize) {
            (*self.start(), *self.end())
        }
    }

    /// Strategy producing `Vec`s of `elem`-generated values.
    pub struct VecStrategy<S> {
        elem: S,
        min: usize,
        max: usize,
    }

    /// Mirror of `proptest::collection::vec(element, size)`.
    pub fn vec<S: Strategy>(elem: S, size: impl IntoSizeRange) -> VecStrategy<S> {
        let (min, max) = size.bounds();
        VecStrategy { elem, min, max }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = rng.gen_usize(self.min, self.max);
            (0..len).map(|_| self.elem.generate(rng)).collect()
        }
    }
}

/// Driver behind the [`proptest!`] macro: runs `body` once per case with
/// a deterministic per-case RNG.
pub fn run_cases<F: FnMut(&mut TestRng)>(config: &ProptestConfig, name: &str, mut body: F) {
    for case in 0..config.cases {
        let mut rng = TestRng::for_case(name, case);
        body(&mut rng);
    }
}

/// Everything the property tests import, mirroring `proptest::prelude::*`.
pub mod prelude {
    pub use crate as prop;
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assume, proptest, Arbitrary, ProptestConfig,
        Strategy,
    };
}

/// Define property tests. Supports an optional leading
/// `#![proptest_config(expr)]` and any number of
/// `#[test] fn name(pat in strategy, ...) { .. }` items.
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($config:expr)]
        $($rest:tt)*
    ) => {
        $crate::__proptest_impl! { ($config) $($rest)* }
    };
    ( $($rest:tt)* ) => {
        $crate::__proptest_impl! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

/// Implementation detail of [`proptest!`]: the config expression is bound
/// outside the per-test repetition so it may be repeated into every test.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (
        ($config:expr)
        $(
            $(#[$meta:meta])*
            fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __config = $config;
                $crate::run_cases(&__config, stringify!($name), |__rng| {
                    $(let $arg = $crate::Strategy::generate(&($strat), __rng);)+
                    $body
                });
            }
        )*
    };
}

/// Assert a condition inside a property; panics (no shrinking) on failure.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)+) => { assert!($cond, $($fmt)+) };
}

/// Assert equality inside a property; panics (no shrinking) on failure.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => { assert_eq!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)+) => { assert_eq!($a, $b, $($fmt)+) };
}

/// Skip the current case when its inputs don't satisfy a precondition.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return;
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn determinism_across_runs() {
        let mut a = crate::TestRng::for_case("x", 3);
        let mut b = crate::TestRng::for_case("x", 3);
        assert_eq!(a.next_u64(), b.next_u64());
        let mut c = crate::TestRng::for_case("x", 4);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

        #[test]
        fn vec_lengths_respect_bounds(v in prop::collection::vec(0.0f64..=1.0, 2..=10)) {
            prop_assert!((2..=10).contains(&v.len()));
            for x in &v {
                prop_assert!((0.0..=1.0).contains(x));
            }
        }

        #[test]
        fn prop_map_applies(n in (1usize..5).prop_map(|x| x * 2)) {
            prop_assert!(n % 2 == 0);
            prop_assert!((2..10).contains(&n));
        }

        #[test]
        fn assume_skips(n in 0u32..10) {
            prop_assume!(n % 2 == 0);
            prop_assert_eq!(n % 2, 0, "assume failed to filter {}", n);
        }
    }
}
