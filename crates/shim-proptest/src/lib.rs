//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no network access and no crates.io mirror, so
//! the workspace vendors the API subset its property tests actually use:
//! [`Strategy`] with `prop_map` / `prop_flat_map` / `prop_recursive` /
//! `boxed`, integer-range and tuple strategies, [`Just`], [`any`],
//! [`collection::vec`], [`option::of`], weighted [`prop_oneof!`], and the
//! [`proptest!`] / [`prop_assert!`] macros.
//!
//! Semantics differ from the real crate in two deliberate ways: generation
//! is driven by a deterministic per-test RNG (seeded from the test's module
//! path), and there is **no shrinking** — a failing case panics with the
//! generated values still bound, which is enough for CI-grade regression
//! detection in an offline environment.

#![forbid(unsafe_code)]

use std::cell::Cell;
use std::marker::PhantomData;
use std::ops::{Range, RangeInclusive};
use std::rc::Rc;

/// Deterministic generator driving all strategies (xoshiro256** seeded via
/// SplitMix64 from a name hash).
#[derive(Debug, Clone)]
pub struct TestRng {
    s: [u64; 4],
}

impl TestRng {
    /// A generator seeded deterministically from `name` (typically the
    /// test's `module_path!() :: name`).
    pub fn deterministic(name: &str) -> TestRng {
        // FNV-1a over the name, then SplitMix64 expansion.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        let mut sm = h;
        let mut next = move || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        TestRng {
            s: [next(), next(), next(), next()],
        }
    }

    /// The next 64 random bits.
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

    /// A uniform value in `0..span` (`span == 0` yields 0).
    pub fn below(&mut self, span: u64) -> u64 {
        if span == 0 {
            0
        } else {
            ((self.next_u64() as u128 * span as u128) >> 64) as u64
        }
    }
}

/// Runner configuration (subset of `proptest::test_runner::Config`).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of generated cases per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` generated inputs per property.
    pub fn with_cases(cases: u32) -> ProptestConfig {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> ProptestConfig {
        ProptestConfig { cases: 256 }
    }
}

/// A value generator (subset of `proptest::strategy::Strategy`).
///
/// Unlike the real crate there is no value tree / shrinking: `generate`
/// produces one value directly.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Generates one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    /// Feeds generated values into `f` to pick a dependent strategy.
    fn prop_flat_map<R, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        R: Strategy,
        F: Fn(Self::Value) -> R,
    {
        FlatMap { inner: self, f }
    }

    /// Type-erases the strategy behind a cheaply clonable handle.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
        Self::Value: 'static,
    {
        BoxedStrategy(Rc::new(move |rng: &mut TestRng| self.generate(rng)))
    }

    /// Builds a recursive strategy: `self` generates leaves, and `recurse`
    /// wraps an inner strategy into composite values, applied up to `depth`
    /// levels (`desired_size` / `expected_branch_size` are accepted for API
    /// compatibility; size is bounded structurally by the depth cap here).
    fn prop_recursive<R, F>(
        self,
        depth: u32,
        _desired_size: u32,
        _expected_branch_size: u32,
        recurse: F,
    ) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
        Self::Value: 'static,
        R: Strategy<Value = Self::Value> + 'static,
        F: Fn(BoxedStrategy<Self::Value>) -> R,
    {
        let leaf = self.boxed();
        let mut current = leaf.clone();
        for _ in 0..depth {
            let composite = recurse(current.clone()).boxed();
            let leaf = leaf.clone();
            current = BoxedStrategy(Rc::new(move |rng: &mut TestRng| {
                // Mix leaves back in so generated depths vary.
                if rng.below(4) == 0 {
                    leaf.generate(rng)
                } else {
                    composite.generate(rng)
                }
            }));
        }
        current
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

/// Always generates a clone of the wrapped value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// See [`Strategy::prop_map`].
#[derive(Debug, Clone)]
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

/// See [`Strategy::prop_flat_map`].
#[derive(Debug, Clone)]
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S, R, F> Strategy for FlatMap<S, F>
where
    S: Strategy,
    R: Strategy,
    F: Fn(S::Value) -> R,
{
    type Value = R::Value;

    fn generate(&self, rng: &mut TestRng) -> R::Value {
        (self.f)(self.inner.generate(rng)).generate(rng)
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as u128).wrapping_sub(self.start as u128) as u64;
                self.start.wrapping_add(rng.below(span) as $t)
            }
        }

        impl Strategy for RangeInclusive<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample empty range");
                let span = (hi as u128).wrapping_sub(lo as u128).wrapping_add(1);
                if span > u64::MAX as u128 {
                    return lo.wrapping_add(rng.next_u64() as $t);
                }
                lo.wrapping_add(rng.below(span as u64) as $t)
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);

            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    };
}

impl_tuple_strategy!(A);
impl_tuple_strategy!(A, B);
impl_tuple_strategy!(A, B, C);
impl_tuple_strategy!(A, B, C, D);
impl_tuple_strategy!(A, B, C, D, E);
impl_tuple_strategy!(A, B, C, D, E, F);
impl_tuple_strategy!(A, B, C, D, E, F, G);
impl_tuple_strategy!(A, B, C, D, E, F, G, H);

/// Types with a canonical strategy (subset of `proptest::arbitrary`).
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

impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// See [`any`].
pub struct Any<T>(PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// The canonical strategy for `T` (e.g. `any::<bool>()`).
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(PhantomData)
}

/// Support types for the [`prop_oneof!`] macro.
pub mod strategy {
    pub use super::BoxedStrategy;
    use super::{Strategy, TestRng};

    /// A weighted union of strategies: each generation picks one arm with
    /// probability proportional to its weight.
    pub struct Union<T> {
        arms: Vec<(u32, BoxedStrategy<T>)>,
        total: u64,
    }

    impl<T: 'static> Union<T> {
        /// Builds a union from `(weight, strategy)` arms.
        ///
        /// # Panics
        ///
        /// Panics if `arms` is empty or all weights are zero.
        pub fn new(arms: Vec<(u32, BoxedStrategy<T>)>) -> Union<T> {
            let total: u64 = arms.iter().map(|(w, _)| *w as u64).sum();
            assert!(total > 0, "prop_oneof! requires a positive total weight");
            Union { arms, total }
        }
    }

    impl<T: 'static> Strategy for Union<T> {
        type Value = T;

        fn generate(&self, rng: &mut TestRng) -> T {
            let mut pick = rng.below(self.total);
            for (w, arm) in &self.arms {
                if pick < *w as u64 {
                    return arm.generate(rng);
                }
                pick -= *w as u64;
            }
            unreachable!("weighted pick out of range")
        }
    }
}

/// Collection strategies (subset of `proptest::collection`).
pub mod collection {
    use super::{Strategy, TestRng};

    /// An inclusive-low, exclusive-high length range for [`vec()`].
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: u64,
        hi_exclusive: u64,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> SizeRange {
            SizeRange {
                lo: n as u64,
                hi_exclusive: n as u64 + 1,
            }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> SizeRange {
            assert!(r.start < r.end, "empty vec size range");
            SizeRange {
                lo: r.start as u64,
                hi_exclusive: r.end as u64,
            }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> SizeRange {
            assert!(r.start() <= r.end(), "empty vec size range");
            SizeRange {
                lo: *r.start() as u64,
                hi_exclusive: *r.end() as u64 + 1,
            }
        }
    }

    /// See [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = self.size.hi_exclusive - self.size.lo;
            let len = self.size.lo + rng.below(span);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// A strategy for `Vec`s of `element` values with a length drawn from
    /// `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }
}

/// Option strategies (subset of `proptest::option`).
pub mod option {
    use super::{Strategy, TestRng};

    /// See [`of`].
    pub struct OptionStrategy<S> {
        inner: S,
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Option<S::Value> {
            // Some with probability 3/4, matching the real crate's bias
            // toward populated values.
            if rng.below(4) == 0 {
                None
            } else {
                Some(self.inner.generate(rng))
            }
        }
    }

    /// A strategy producing `None` or `Some` of an `inner` value.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }
}

thread_local! {
    /// Set while a `proptest!` case body runs so failure messages can point
    /// at the deterministic case index.
    pub static CURRENT_CASE: Cell<u32> = const { Cell::new(0) };
}

/// Everything a property test usually imports.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest, Arbitrary,
        BoxedStrategy, Just, ProptestConfig, Strategy,
    };
}

/// Defines `#[test]` functions whose arguments are drawn from strategies.
///
/// Supports an optional leading `#![proptest_config(...)]`, then any number
/// of `fn name(pat in strategy, ...) { body }` items carrying their own
/// attributes (including `#[test]`).
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { (<$crate::ProptestConfig as ::std::default::Default>::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    ( ($cfg:expr)
      $( $(#[$meta:meta])*
         fn $name:ident( $($pat:pat in $strat:expr),* $(,)? ) $body:block )* ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __config: $crate::ProptestConfig = $cfg;
                let mut __rng = $crate::TestRng::deterministic(
                    concat!(module_path!(), "::", stringify!($name)),
                );
                for __case in 0..__config.cases {
                    $crate::CURRENT_CASE.with(|c| c.set(__case));
                    $( let $pat = $crate::Strategy::generate(&($strat), &mut __rng); )*
                    // The body runs in a closure returning Result so tests
                    // can early-exit with `return Ok(())`, as under the
                    // real crate.
                    let __body = || {
                        $body
                        ::std::result::Result::Ok(())
                    };
                    let __outcome: ::std::result::Result<
                        (),
                        ::std::boxed::Box<dyn ::std::error::Error>,
                    > = __body();
                    if let ::std::result::Result::Err(e) = __outcome {
                        panic!("property failed at case {__case}: {e}");
                    }
                }
            }
        )*
    };
}

/// Asserts a condition inside a property body, reporting the failing case.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            panic!(
                "property failed at case {}: {}",
                $crate::CURRENT_CASE.with(|c| c.get()),
                format!($($fmt)*),
            );
        }
    };
}

/// Asserts equality inside a property body, reporting the failing case.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l == r, "{:?} != {:?}", l, r);
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l == r, "{:?} != {:?}: {}", l, r, format!($($fmt)*));
    }};
}

/// Asserts inequality inside a property body, reporting the failing case.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l != r, "{:?} == {:?}", l, r);
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l != r, "{:?} == {:?}: {}", l, r, format!($($fmt)*));
    }};
}

/// A weighted (or uniform) choice between strategies.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $( (($weight) as u32, $crate::Strategy::boxed($strat)) ),+
        ])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $( (1u32, $crate::Strategy::boxed($strat)) ),+
        ])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::TestRng;

    #[test]
    fn ranges_and_tuples_stay_in_bounds() {
        let mut rng = TestRng::deterministic("bounds");
        let strat = (3usize..9, 0u64..=4, -2i64..3);
        for _ in 0..500 {
            let (a, b, c) = Strategy::generate(&strat, &mut rng);
            assert!((3..9).contains(&a));
            assert!(b <= 4);
            assert!((-2..3).contains(&c));
        }
    }

    #[test]
    fn oneof_respects_zero_weighted_absence() {
        let mut rng = TestRng::deterministic("oneof");
        let strat = prop_oneof![3 => 10u64..20, 1 => Just(99u64)];
        let mut saw_just = 0;
        for _ in 0..400 {
            let v = Strategy::generate(&strat, &mut rng);
            assert!((10..20).contains(&v) || v == 99);
            if v == 99 {
                saw_just += 1;
            }
        }
        assert!(saw_just > 20 && saw_just < 250, "got {saw_just}");
    }

    #[test]
    fn recursive_strategies_terminate() {
        #[derive(Debug, Clone)]
        enum Tree {
            Leaf(u64),
            Node(Vec<Tree>),
        }
        fn depth(t: &Tree) -> usize {
            match t {
                Tree::Leaf(v) => usize::from(*v < 8),
                Tree::Node(kids) => 1 + kids.iter().map(depth).max().unwrap_or(0),
            }
        }
        let strat = (0u64..8)
            .prop_map(Tree::Leaf)
            .prop_recursive(3, 12, 3, |inner| {
                crate::collection::vec(inner, 0..4).prop_map(Tree::Node)
            });
        let mut rng = TestRng::deterministic("recursive");
        for _ in 0..200 {
            let t = Strategy::generate(&strat, &mut rng);
            assert!(depth(&t) <= 7, "depth {} too deep: {t:?}", depth(&t));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn macro_binds_patterns(
            (a, b) in (0u64..5, 0u64..5),
            v in crate::collection::vec(0usize..3, 1..4),
        ) {
            prop_assert!(a < 5 && b < 5);
            prop_assert!(!v.is_empty() && v.len() < 4);
            prop_assert_eq!(v.len(), v.iter().copied().count());
        }
    }
}
