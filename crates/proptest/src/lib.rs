//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no network access to crates.io, so the
//! workspace vendors a minimal property-testing harness implementing the
//! subset of the proptest 1.x API its tests use: the [`Strategy`] trait
//! with `prop_map` / `prop_recursive` / `boxed`, ranges and tuples as
//! strategies, `Just`, `any::<bool>()`, `prop_oneof!`,
//! `proptest::collection::vec`, `proptest::option::of`, and the
//! [`proptest!`] macro with `prop_assert!` / `prop_assert_eq!`.
//!
//! Differences from upstream: cases are generated from a fixed
//! deterministic seed sequence (no persisted failure seeds) and failing
//! cases are *not* shrunk — the panic message reports the case index so a
//! failure is reproducible by rerunning the test.

use std::rc::Rc;

pub mod test_runner {
    //! The deterministic case generator.

    /// A small deterministic RNG (SplitMix64) driving case generation.
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// A generator for the given case seed.
        pub fn new(seed: u64) -> TestRng {
            TestRng { state: seed ^ 0x9E37_79B9_7F4A_7C15 }
        }

        /// The next 64 uniformly distributed bits.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// A uniform draw below `n` (`n > 0`).
        pub fn below(&mut self, n: u64) -> u64 {
            debug_assert!(n > 0);
            self.next_u64() % n
        }

        /// A uniform draw in `[0, 1)`.
        pub fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }
    }

    /// Per-test configuration (`#![proptest_config(...)]`).
    #[derive(Debug, Clone)]
    pub struct Config {
        /// Number of random cases to run.
        pub cases: u32,
    }

    impl Config {
        /// A configuration running `cases` cases.
        pub fn with_cases(cases: u32) -> Config {
            Config { cases }
        }
    }

    impl Default for Config {
        fn default() -> Config {
            Config { cases: 32 }
        }
    }
}

pub use test_runner::Config as ProptestConfig;
use test_runner::TestRng;

/// A generator of random values of one type.
pub trait Strategy {
    /// The generated value type.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }

    /// Type-erases the strategy behind a clonable handle.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
        Self::Value: 'static,
    {
        BoxedStrategy(Rc::new(move |rng: &mut TestRng| self.generate(rng)))
    }

    /// Builds a recursive strategy: `self` generates the leaves, `f` wraps
    /// a strategy for depth `d` into one for depth `d + 1`. The size
    /// parameters of the upstream API are accepted and ignored; recursion
    /// is capped at `depth` levels and biased toward termination.
    fn prop_recursive<S, F>(
        self,
        depth: u32,
        _desired_size: u32,
        _expected_branch_size: u32,
        f: F,
    ) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
        Self::Value: 'static,
        S: Strategy<Value = Self::Value> + 'static,
        F: Fn(BoxedStrategy<Self::Value>) -> S,
    {
        let leaf = self.boxed();
        let mut cur = leaf.clone();
        for _ in 0..depth {
            let deeper = f(cur).boxed();
            let l = leaf.clone();
            cur = BoxedStrategy(Rc::new(move |rng: &mut TestRng| {
                // One in three draws terminates early at a leaf, keeping
                // generated structures small on average.
                if rng.below(3) == 0 {
                    l.generate(rng)
                } else {
                    deeper.generate(rng)
                }
            }));
        }
        cur
    }
}

/// A type-erased, clonable strategy handle.
pub struct BoxedStrategy<T>(Rc<dyn Fn(&mut TestRng) -> T>);

impl<T> Clone for BoxedStrategy<T> {
    fn clone(&self) -> Self {
        BoxedStrategy(Rc::clone(&self.0))
    }
}

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        (self.0)(rng)
    }
}

/// The strategy returned by [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;
    fn generate(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

/// A strategy always producing a clone of one value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Types with a canonical full-domain strategy ([`any`]).
pub trait Arbitrary: Sized {
    /// Draws one arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}

impl_arbitrary_int!(u8, u16, u32, u64, i8, i16, i32, i64, usize, isize);

/// The strategy returned by [`any`].
pub struct Any<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// The canonical strategy for `T`'s whole domain.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

macro_rules! impl_int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u128;
                let r = ((rng.next_u64() as u128) % span) as i128;
                (self.start as i128 + r) as $t
            }
        }
    )*};
}

impl_int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_tuple_strategy {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    };
}

impl_tuple_strategy!(A: 0);
impl_tuple_strategy!(A: 0, B: 1);
impl_tuple_strategy!(A: 0, B: 1, C: 2);
impl_tuple_strategy!(A: 0, B: 1, C: 2, D: 3);
impl_tuple_strategy!(A: 0, B: 1, C: 2, D: 3, E: 4);
impl_tuple_strategy!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5);

/// A uniform choice among boxed strategies ([`prop_oneof!`]).
pub struct Union<T> {
    options: Vec<BoxedStrategy<T>>,
}

impl<T> Union<T> {
    /// A union of the given alternatives.
    ///
    /// # Panics
    ///
    /// Panics when `options` is empty.
    pub fn new(options: Vec<BoxedStrategy<T>>) -> Union<T> {
        assert!(!options.is_empty(), "prop_oneof! needs at least one arm");
        Union { options }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        let k = rng.below(self.options.len() as u64) as usize;
        self.options[k].generate(rng)
    }
}

pub mod collection {
    //! Collection strategies (`proptest::collection::vec`).

    use super::{Strategy, TestRng};

    /// A length specification: an exact size or a half-open range.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi: usize, // exclusive
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> SizeRange {
            SizeRange { lo: n, hi: n + 1 }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> SizeRange {
            assert!(r.start < r.end, "empty vec size range");
            SizeRange { lo: r.start, hi: r.end }
        }
    }

    /// The strategy returned by [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.hi - self.size.lo) as u64;
            let len = self.size.lo + rng.below(span) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// Vectors of `element` values with a length drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { element, size: size.into() }
    }
}

pub mod option {
    //! Option strategies (`proptest::option::of`).

    use super::{Strategy, TestRng};

    /// The strategy returned by [`of`].
    pub struct OptionStrategy<S> {
        inner: S,
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Option<S::Value> {
            // `Some` three times out of four, matching upstream's bias
            // toward populated values.
            if rng.below(4) == 0 {
                None
            } else {
                Some(self.inner.generate(rng))
            }
        }
    }

    /// `None` or `Some` of a generated value.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }
}

pub mod strategy {
    //! Re-exports mirroring upstream's module layout.
    pub use super::{Any, BoxedStrategy, Just, Map, Strategy, Union};
}

pub mod prelude {
    //! The usual glob import.
    pub use super::strategy::{BoxedStrategy, Just, Strategy};
    pub use super::{any, Arbitrary, ProptestConfig};
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };
}

/// Fails the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !$cond {
            return ::std::result::Result::Err(::std::format!(
                "assertion failed: {}",
                ::std::stringify!($cond)
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err(::std::format!($($fmt)+));
        }
    };
}

/// Fails the current case unless the two values compare equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {{
        let (left, right) = (&$a, &$b);
        if !(left == right) {
            return ::std::result::Result::Err(::std::format!(
                "assertion failed: `{:?}` == `{:?}`",
                left,
                right
            ));
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (left, right) = (&$a, &$b);
        if !(left == right) {
            return ::std::result::Result::Err(::std::format!(
                "assertion failed: `{:?}` == `{:?}`: {}",
                left,
                right,
                ::std::format!($($fmt)+)
            ));
        }
    }};
}

/// Fails the current case if the two values compare equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr $(,)?) => {{
        let (left, right) = (&$a, &$b);
        if left == right {
            return ::std::result::Result::Err(::std::format!(
                "assertion failed: `{:?}` != `{:?}`",
                left,
                right
            ));
        }
    }};
}

/// Skips the current case unless `cond` holds (counted as a pass).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !$cond {
            return ::std::result::Result::Ok(());
        }
    };
}

/// Declares property tests: each `fn name(arg in strategy, ...)` becomes a
/// `#[test]` running `cases` random cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { config = $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { config = $crate::ProptestConfig::default(); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (config = $cfg:expr; $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            let strategies = ($($strat,)+);
            for case in 0..config.cases {
                let mut rng = $crate::test_runner::TestRng::new(
                    0xC0FF_EE00_0000_0000u64 ^ (case as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                );
                let ($($arg,)+) = $crate::Strategy::generate(&strategies, &mut rng);
                let outcome: ::std::result::Result<(), ::std::string::String> =
                    (move || {
                        $body
                        ::std::result::Result::Ok(())
                    })();
                if let ::std::result::Result::Err(msg) = outcome {
                    ::std::panic!("proptest case {case} failed: {msg}");
                }
            }
        }
    )*};
}

/// Picks one strategy uniformly among the listed alternatives.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(::std::vec![$($crate::Strategy::boxed($strat)),+])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_and_tuples_generate_in_bounds() {
        let mut rng = crate::test_runner::TestRng::new(3);
        let s = (0i64..10, 5u8..6);
        for _ in 0..100 {
            let (a, b) = s.generate(&mut rng);
            assert!((0..10).contains(&a));
            assert_eq!(b, 5);
        }
    }

    #[test]
    fn recursive_strategies_terminate() {
        #[derive(Debug, Clone)]
        enum Tree {
            #[allow(dead_code)]
            // the payload exercises leaf generation; only the shape is asserted
            Leaf(i64),
            Node(Box<Tree>, Box<Tree>),
        }
        fn depth(t: &Tree) -> u32 {
            match t {
                Tree::Leaf(_) => 0,
                Tree::Node(a, b) => 1 + depth(a).max(depth(b)),
            }
        }
        let s = (0i64..5).prop_map(Tree::Leaf).prop_recursive(4, 16, 2, |inner| {
            (inner.clone(), inner).prop_map(|(a, b)| Tree::Node(Box::new(a), Box::new(b)))
        });
        let mut rng = crate::test_runner::TestRng::new(9);
        for _ in 0..200 {
            let t = s.generate(&mut rng);
            assert!(depth(&t) <= 4);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn the_macro_runs_cases(x in 0i64..100, flip in any::<bool>()) {
            prop_assert!(x < 100);
            if flip {
                prop_assert_eq!(x + 1, 1 + x);
            }
        }

        #[test]
        fn vec_and_option_strategies_work(
            xs in crate::collection::vec(0u8..4, 1..8),
            o in crate::option::of(1u32..16),
        ) {
            prop_assert!(!xs.is_empty() && xs.len() < 8);
            prop_assert!(xs.iter().all(|x| *x < 4));
            if let Some(v) = o {
                prop_assert!((1..16).contains(&v));
            }
        }
    }
}
