//! A vendored, dependency-free stand-in for the `proptest` crate.
//!
//! This workspace builds in environments with no crates.io access, so the
//! real `proptest` cannot be fetched. This shim re-implements exactly the
//! API surface the workspace's property tests use — the `proptest!`,
//! `prop_compose!`, `prop_oneof!` and assertion macros, the [`Strategy`]
//! trait with `prop_map`/`prop_flat_map`, `Just`, integer/float range
//! strategies, tuples, `any::<T>()`, and `prop::collection::{vec,
//! btree_set}` — on top of a deterministic SplitMix64 generator.
//!
//! Differences from the real crate, deliberately accepted:
//!
//! * **No shrinking.** A failing case reports its seed so it can be
//!   replayed, but is not minimized.
//! * **Deterministic cases.** Case seeds are derived from the test name,
//!   so runs are reproducible across machines and invocations (the real
//!   crate randomizes unless `PROPTEST_RNG_SEED` is set).
//! * `*.proptest-regressions` files are ignored.

use std::ops::{Range, RangeInclusive};

pub mod test_runner {
    //! Case scheduling, configuration, and the deterministic RNG.

    /// Subset of `proptest::test_runner::Config` that the tests set.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of successful cases required for the test to pass.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// Config running `cases` successful cases per test.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 256 }
        }
    }

    /// Why a single generated case did not pass.
    #[derive(Debug)]
    pub enum TestCaseError {
        /// An explicit failure from `prop_assert!`-family macros.
        Fail(String),
        /// The case was vetoed by `prop_assume!` and should be retried.
        Reject,
    }

    /// SplitMix64: tiny, full-period, plenty for test-case generation.
    #[derive(Debug, Clone)]
    pub struct TestRng(u64);

    impl TestRng {
        pub fn new(seed: u64) -> Self {
            TestRng(seed)
        }

        pub fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform draw in `[0, bound)`. `bound` must be nonzero.
        pub fn below(&mut self, bound: u64) -> u64 {
            // Lemire's multiply-shift; the slight bias is irrelevant here.
            ((self.next_u64() as u128 * bound as u128) >> 64) as u64
        }

        pub fn usize_below(&mut self, bound: usize) -> usize {
            self.below(bound as u64) as usize
        }

        /// Uniform draw in `[0, 1)`.
        pub fn f64_unit(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }
    }

    /// Deterministic per-case seed: FNV-1a of the test name mixed with the
    /// attempt index. Stable across runs so failures are replayable.
    pub fn case_seed(test_name: &str, attempt: u32) -> u64 {
        let mut h: u64 = 0xCBF2_9CE4_8422_2325;
        for b in test_name.bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
        h ^ (attempt as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }
}

pub mod strategy {
    //! The [`Strategy`] trait and its combinators.

    use super::test_runner::TestRng;

    /// A recipe for generating values of one type.
    ///
    /// Unlike the real crate there is no value tree: a strategy is just a
    /// sampling function, which is all non-shrinking generation needs.
    pub trait Strategy {
        type Value;

        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }

        fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
            S: Strategy,
            F: Fn(Self::Value) -> S,
        {
            FlatMap { inner: self, f }
        }

        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            Box::new(self)
        }
    }

    pub type BoxedStrategy<T> = Box<dyn Strategy<Value = T>>;

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            (**self).generate(rng)
        }
    }

    impl<S: Strategy + ?Sized> Strategy for &S {
        type Value = S::Value;
        fn generate(&self, rng: &mut TestRng) -> S::Value {
            (**self).generate(rng)
        }
    }

    /// Always produces a clone of the given value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S, O, F> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> O,
    {
        type Value = O;
        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    pub struct FlatMap<S, F> {
        inner: S,
        f: F,
    }

    impl<S, T, F> Strategy for FlatMap<S, F>
    where
        S: Strategy,
        T: Strategy,
        F: Fn(S::Value) -> T,
    {
        type Value = T::Value;
        fn generate(&self, rng: &mut TestRng) -> T::Value {
            (self.f)(self.inner.generate(rng)).generate(rng)
        }
    }

    /// Uniform choice between boxed alternatives (`prop_oneof!`).
    pub struct Union<T> {
        arms: Vec<BoxedStrategy<T>>,
    }

    impl<T> Union<T> {
        pub fn new(arms: Vec<BoxedStrategy<T>>) -> Self {
            assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
            Union { arms }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            let i = rng.usize_below(self.arms.len());
            self.arms[i].generate(rng)
        }
    }

    /// Wraps a plain sampling closure as a strategy (`prop_compose!`).
    pub struct Generator<F>(F);

    impl<F> Generator<F> {
        pub fn new(f: F) -> Self {
            Generator(f)
        }
    }

    impl<T, F> Strategy for Generator<F>
    where
        F: Fn(&mut TestRng) -> T,
    {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            (self.0)(rng)
        }
    }

    macro_rules! tuple_strategy {
        ($(($($s:ident . $idx:tt),+))+) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.generate(rng),)+)
                }
            }
        )+};
    }

    tuple_strategy! {
        (A.0, B.1)
        (A.0, B.1, C.2)
        (A.0, B.1, C.2, D.3)
    }
}

mod ranges {
    use super::strategy::Strategy;
    use super::test_runner::TestRng;
    use super::{Range, RangeInclusive};

    macro_rules! int_range_strategy {
        ($($t:ty),+) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty integer range strategy");
                    let span = (self.end as u64).wrapping_sub(self.start as u64);
                    self.start + rng.below(span) as $t
                }
            }

            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty integer range strategy");
                    let span = (hi as u64).wrapping_sub(lo as u64).wrapping_add(1);
                    if span == 0 {
                        // Full-width inclusive range.
                        return rng.next_u64() as $t;
                    }
                    lo + rng.below(span) as $t
                }
            }
        )+};
    }

    int_range_strategy!(u8, u16, u32, u64, usize);

    impl Strategy for Range<f64> {
        type Value = f64;
        fn generate(&self, rng: &mut TestRng) -> f64 {
            assert!(self.start < self.end, "empty float range strategy");
            let v = self.start + rng.f64_unit() * (self.end - self.start);
            // Guard against rounding up onto the excluded endpoint.
            if v >= self.end {
                self.start
            } else {
                v
            }
        }
    }
}

pub mod arbitrary {
    //! `any::<T>()` for the handful of types the tests ask for.

    use super::strategy::Strategy;
    use super::test_runner::TestRng;
    use std::marker::PhantomData;

    pub struct Any<T>(PhantomData<T>);

    /// The full-domain strategy for `T` (`any::<bool>()`, `any::<u64>()`).
    pub fn any<T>() -> Any<T> {
        Any(PhantomData)
    }

    impl Strategy for Any<bool> {
        type Value = bool;
        fn generate(&self, rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    macro_rules! any_int {
        ($($t:ty),+) => {$(
            impl Strategy for Any<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )+};
    }

    any_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64);
}

pub mod collection {
    //! `prop::collection::{vec, btree_set}`.

    use super::strategy::Strategy;
    use super::test_runner::TestRng;
    use super::{Range, RangeInclusive};
    use std::collections::BTreeSet;

    /// Inclusive bounds on a generated collection's length.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty collection size range");
            SizeRange {
                lo: r.start,
                hi: r.end - 1,
            }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            SizeRange {
                lo: *r.start(),
                hi: *r.end(),
            }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n }
        }
    }

    impl SizeRange {
        fn sample(&self, rng: &mut TestRng) -> usize {
            self.lo + rng.usize_below(self.hi - self.lo + 1)
        }
    }

    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// `n` independent draws of `element`, `n` sampled from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.size.sample(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }

    pub struct BTreeSetStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// A set built from draws of `element`; duplicates collapse, so the
    /// result may be smaller than the sampled target (never below one when
    /// the minimum is at least one, matching how the tests rely on it).
    pub fn btree_set<S>(element: S, size: impl Into<SizeRange>) -> BTreeSetStrategy<S>
    where
        S: Strategy,
        S::Value: Ord,
    {
        BTreeSetStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S> Strategy for BTreeSetStrategy<S>
    where
        S: Strategy,
        S::Value: Ord,
    {
        type Value = BTreeSet<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> BTreeSet<S::Value> {
            let target = self.size.sample(rng);
            let mut set = BTreeSet::new();
            // A few extra attempts to approach the target size despite
            // collisions; exactness is not part of the contract.
            let mut attempts = target.saturating_mul(2);
            while set.len() < target && attempts > 0 {
                set.insert(self.element.generate(rng));
                attempts -= 1;
            }
            set
        }
    }
}

pub mod prelude {
    //! One-stop import mirroring `proptest::prelude`.

    pub use crate::arbitrary::any;
    pub use crate::strategy::{BoxedStrategy, Just, Strategy, Union};
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_compose, prop_oneof,
        proptest,
    };

    pub mod prop {
        pub use crate::collection;
        pub use crate::strategy;
    }
}

/// Defines `#[test]` functions whose arguments are drawn from strategies.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns! { ($crate::test_runner::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    ( ($cfg:expr)
      $( $(#[$meta:meta])* fn $name:ident ( $($arg:ident in $strat:expr),+ $(,)? ) $body:block )*
    ) => {$(
        $(#[$meta])*
        fn $name() {
            let config: $crate::test_runner::ProptestConfig = $cfg;
            let mut passed: u32 = 0;
            let mut attempt: u32 = 0;
            while passed < config.cases {
                attempt += 1;
                if attempt > config.cases.saturating_mul(16).saturating_add(64) {
                    panic!(
                        "proptest {}: too many cases rejected by prop_assume!",
                        stringify!($name)
                    );
                }
                let seed = $crate::test_runner::case_seed(stringify!($name), attempt);
                let mut prop_rng = $crate::test_runner::TestRng::new(seed);
                $(let $arg = $crate::strategy::Strategy::generate(&($strat), &mut prop_rng);)+
                let outcome: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                    (|| {
                        $body
                        ::std::result::Result::Ok(())
                    })();
                match outcome {
                    ::std::result::Result::Ok(()) => passed += 1,
                    ::std::result::Result::Err($crate::test_runner::TestCaseError::Reject) => {}
                    ::std::result::Result::Err($crate::test_runner::TestCaseError::Fail(msg)) => {
                        panic!(
                            "proptest {} failed at case {} (seed {:#018x}):\n{}",
                            stringify!($name),
                            passed,
                            seed,
                            msg
                        );
                    }
                }
            }
        }
    )*};
}

/// Defines a function returning a composite strategy.
#[macro_export]
macro_rules! prop_compose {
    ( $(#[$meta:meta])* $vis:vis fn $name:ident ( $($outer:ident: $oty:ty),* $(,)? )
      ( $($arg:ident in $strat:expr),+ $(,)? ) -> $ret:ty $body:block
    ) => {
        $(#[$meta])*
        $vis fn $name($($outer: $oty),*) -> impl $crate::strategy::Strategy<Value = $ret> {
            $crate::strategy::Generator::new(
                move |prop_rng: &mut $crate::test_runner::TestRng| {
                    $(let $arg =
                        $crate::strategy::Strategy::generate(&($strat), prop_rng);)+
                    $body
                },
            )
        }
    };
}

/// Uniform choice between alternative strategies for one value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($strat)),+
        ])
    };
}

/// Like `assert!` but fails the current case instead of unwinding, so the
/// harness can report the case seed.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Fail(
                format!($($fmt)+),
            ));
        }
    };
}

/// `prop_assert!` specialized to equality, printing both operands.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        $crate::prop_assert!(
            __l == __r,
            "assertion failed: `{:?}` != `{:?}`",
            __l,
            __r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (__l, __r) = (&$left, &$right);
        $crate::prop_assert!(__l == __r, $($fmt)+);
    }};
}

/// `prop_assert!` specialized to inequality.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        $crate::prop_assert!(
            __l != __r,
            "assertion failed: both sides equal `{:?}`",
            __l
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (__l, __r) = (&$left, &$right);
        $crate::prop_assert!(__l != __r, $($fmt)+);
    }};
}

/// Vetoes the current case; the harness draws a replacement.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Reject);
        }
    };
}

#[cfg(test)]
mod self_tests {
    use crate::prelude::*;

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = crate::test_runner::TestRng::new(7);
        for _ in 0..1000 {
            let v = (10u64..20).generate(&mut rng);
            assert!((10..20).contains(&v));
            let f = (0.25f64..0.75).generate(&mut rng);
            assert!((0.25..0.75).contains(&f));
        }
    }

    #[test]
    fn collections_respect_sizes() {
        let mut rng = crate::test_runner::TestRng::new(11);
        for _ in 0..200 {
            let v = prop::collection::vec(0u32..100, 3..6).generate(&mut rng);
            assert!((3..6).contains(&v.len()));
            let s = prop::collection::btree_set(0u32..1_000_000, 1..40).generate(&mut rng);
            assert!(!s.is_empty() && s.len() < 40);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn macro_pipeline_works(
            a in 1u32..50,
            b in prop_oneof![Just(1u32), Just(2), Just(3)],
            flip in any::<bool>(),
        ) {
            prop_assume!(a != 13);
            prop_assert!(a >= 1 && a < 50);
            prop_assert_eq!(b.min(3), b);
            prop_assert_ne!(a + b, 0);
            let _ = flip;
        }
    }
}
