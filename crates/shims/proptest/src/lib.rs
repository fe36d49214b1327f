//! Std-only stand-in for the slice of `proptest` this workspace uses.
//!
//! Supported surface: the [`proptest!`] macro (with `pat in strategy`
//! and `name: Type` parameters), [`prop_assert!`], [`prop_assert_eq!`],
//! [`prop_assert_ne!`], [`prop_assume!`], [`prop_oneof!`], range and
//! tuple strategies, [`Just`], [`Strategy::prop_map`],
//! [`collection::vec`], [`num::f64::NORMAL`], and [`arbitrary::any`].
//!
//! Failing cases **shrink**: the runner repeatedly replaces the failing
//! input with the first still-failing candidate from
//! [`Strategy::shrinks`] — halving/bisection toward the range origin
//! for numeric strategies, length halving plus element-wise shrinking
//! for collections, component-wise shrinking for tuples — and reports
//! the minimal failing input alongside the recorded generator state, so
//! a counterexample sampled as a million-element spec arrives as the
//! few elements that matter. Strategies that cannot shrink (mapped,
//! one-of, `Just`) report the sampled value unshrunk. The generator is
//! deterministic per test name; case count defaults to 64 and is
//! overridable via `PROPTEST_CASES`.

#![forbid(unsafe_code)]

use std::ops::{Range, RangeInclusive};

pub mod prelude {
    //! One-stop import mirroring `proptest::prelude::*`.
    pub use crate::arbitrary::any;
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest, Just,
        Strategy, TestCaseError,
    };
}

/// Why a single test case did not pass.
#[derive(Debug)]
pub enum TestCaseError {
    /// An assertion failed; the whole property fails.
    Fail(String),
    /// `prop_assume!` rejected the inputs; the case is skipped.
    Reject,
}

/// The deterministic generator driving all sampling (SplitMix64).
#[derive(Clone, Debug)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seeds from a test name so every property has its own stream.
    pub fn from_name(name: &str) -> Self {
        let mut h = 0xcbf2_9ce4_8422_2325u64; // FNV-1a offset basis.
        for b in name.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        Self { state: h }
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform index in `[0, bound)`.
    pub fn next_index(&mut self, bound: usize) -> usize {
        assert!(bound > 0, "empty choice");
        (self.next_u64() % bound as u64) as usize
    }
}

/// A source of random values of one type.
pub trait Strategy {
    /// The value type this strategy produces.
    type Value;

    /// Draws one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    /// Candidate simplifications of a failing `value`, most aggressive
    /// first. The runner keeps the first candidate that still fails and
    /// repeats until none do, so candidates should move toward the
    /// strategy's origin (range start, empty-ish collection). The
    /// default — no candidates — is correct for any strategy and merely
    /// skips shrinking.
    fn shrinks(&self, value: &Self::Value) -> Vec<Self::Value> {
        let _ = value;
        Vec::new()
    }

    /// Maps produced values through `f`. Mapped strategies do not
    /// shrink (the mapping is not invertible in general).
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;

    fn sample(&self, rng: &mut TestRng) -> Self::Value {
        (**self).sample(rng)
    }

    fn shrinks(&self, value: &Self::Value) -> Vec<Self::Value> {
        (**self).shrinks(value)
    }
}

impl<V> Strategy for Box<dyn Strategy<Value = V>> {
    type Value = V;

    fn sample(&self, rng: &mut TestRng) -> V {
        (**self).sample(rng)
    }

    fn shrinks(&self, value: &V) -> Vec<V> {
        (**self).shrinks(value)
    }
}

/// Always produces a clone of the wrapped value.
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn sample(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// The [`Strategy::prop_map`] adapter.
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;

    fn sample(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.sample(rng))
    }
}

/// Uniform choice among boxed strategies (built by [`prop_oneof!`]).
/// Does not shrink: the producing arm of a sampled value is unknown.
pub struct Union<V> {
    choices: Vec<Box<dyn Strategy<Value = V>>>,
}

impl<V> Union<V> {
    /// Wraps a non-empty choice list.
    pub fn new(choices: Vec<Box<dyn Strategy<Value = V>>>) -> Self {
        assert!(!choices.is_empty(), "prop_oneof! needs at least one arm");
        Self { choices }
    }
}

impl<V> Strategy for Union<V> {
    type Value = V;

    fn sample(&self, rng: &mut TestRng) -> V {
        let i = rng.next_index(self.choices.len());
        self.choices[i].sample(rng)
    }
}

/// Primitive types uniformly samplable from half-open/closed ranges.
pub trait SampleRange: Sized + Copy + PartialOrd {
    /// Uniform draw from `[lo, hi)`.
    fn sample_range(lo: Self, hi: Self, rng: &mut TestRng) -> Self;
    /// Uniform draw from `[lo, hi]`.
    fn sample_range_inclusive(lo: Self, hi: Self, rng: &mut TestRng) -> Self;
    /// Shrink candidates for `value`, moving toward `origin` (the range
    /// start): the origin itself, the bisection midpoint, one step.
    fn shrink_toward(origin: Self, value: Self) -> Vec<Self>;
}

macro_rules! impl_sample_int {
    ($($t:ty),*) => {$(
        impl SampleRange for $t {
            fn sample_range(lo: Self, hi: Self, rng: &mut TestRng) -> Self {
                assert!(lo < hi, "empty range");
                let span = (hi as i128 - lo as i128) as u128;
                let off = (u128::from(rng.next_u64()) % span) as i128;
                (lo as i128 + off) as $t
            }

            fn sample_range_inclusive(lo: Self, hi: Self, rng: &mut TestRng) -> Self {
                assert!(lo <= hi, "empty range");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                let off = (u128::from(rng.next_u64()) % span) as i128;
                (lo as i128 + off) as $t
            }

            fn shrink_toward(origin: Self, value: Self) -> Vec<Self> {
                if value == origin {
                    return Vec::new();
                }
                let (o, v) = (origin as i128, value as i128);
                let step = if v > o { -1 } else { 1 };
                let mut out = vec![origin, (o + (v - o) / 2) as $t, (v + step) as $t];
                out.dedup();
                out.retain(|&c| c != value);
                out
            }
        }
    )*};
}

impl_sample_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_sample_float {
    ($($t:ty),*) => {$(
        impl SampleRange for $t {
            fn sample_range(lo: Self, hi: Self, rng: &mut TestRng) -> Self {
                assert!(lo < hi, "empty range");
                lo + (rng.next_f64() as $t) * (hi - lo)
            }

            fn sample_range_inclusive(lo: Self, hi: Self, rng: &mut TestRng) -> Self {
                assert!(lo <= hi, "empty range");
                // Include the top endpoint by scaling a closed unit draw.
                let u = (rng.next_u64() >> 11) as $t / ((1u64 << 53) - 1) as $t;
                lo + u * (hi - lo)
            }

            fn shrink_toward(origin: Self, value: Self) -> Vec<Self> {
                if !value.is_finite() || value == origin {
                    return Vec::new();
                }
                let mut out = vec![origin, origin + (value - origin) / 2.0];
                out.retain(|&c| c != value && c.is_finite());
                out.dedup_by(|a, b| a == b);
                out
            }
        }
    )*};
}

impl_sample_float!(f32, f64);

impl<T: SampleRange> Strategy for Range<T> {
    type Value = T;

    fn sample(&self, rng: &mut TestRng) -> T {
        T::sample_range(self.start, self.end, rng)
    }

    fn shrinks(&self, value: &T) -> Vec<T> {
        T::shrink_toward(self.start, *value)
    }
}

impl<T: SampleRange> Strategy for RangeInclusive<T> {
    type Value = T;

    fn sample(&self, rng: &mut TestRng) -> T {
        T::sample_range_inclusive(*self.start(), *self.end(), rng)
    }

    fn shrinks(&self, value: &T) -> Vec<T> {
        T::shrink_toward(*self.start(), *value)
    }
}

/// The unit strategy (parameterless properties).
impl Strategy for () {
    type Value = ();

    fn sample(&self, _rng: &mut TestRng) -> Self::Value {}
}

macro_rules! impl_tuple_strategy {
    ($($name:ident . $idx:tt),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+)
        where
            $($name::Value: Clone),+
        {
            type Value = ($($name::Value,)+);

            #[allow(non_snake_case)]
            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.sample(rng),)+)
            }

            /// Component-wise: shrink one coordinate, keep the rest.
            fn shrinks(&self, value: &Self::Value) -> Vec<Self::Value> {
                let mut out = Vec::new();
                $(
                    for cand in self.$idx.shrinks(&value.$idx) {
                        let mut next = value.clone();
                        next.$idx = cand;
                        out.push(next);
                    }
                )+
                out
            }
        }
    };
}

impl_tuple_strategy!(A.0);
impl_tuple_strategy!(A.0, B.1);
impl_tuple_strategy!(A.0, B.1, C.2);
impl_tuple_strategy!(A.0, B.1, C.2, D.3);
impl_tuple_strategy!(A.0, B.1, C.2, D.3, E.4);
impl_tuple_strategy!(A.0, B.1, C.2, D.3, E.4, F.5);
impl_tuple_strategy!(A.0, B.1, C.2, D.3, E.4, F.5, G.6);
impl_tuple_strategy!(A.0, B.1, C.2, D.3, E.4, F.5, G.6, H.7);
impl_tuple_strategy!(A.0, B.1, C.2, D.3, E.4, F.5, G.6, H.7, I.8);
impl_tuple_strategy!(A.0, B.1, C.2, D.3, E.4, F.5, G.6, H.7, I.8, J.9);

pub mod collection {
    //! Collection strategies.

    use super::{SampleRange, Strategy, TestRng};

    /// Element-count specification for [`vec()`](fn@vec).
    #[derive(Clone, Debug)]
    pub struct SizeRange {
        lo: usize,
        hi_inclusive: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            Self {
                lo: n,
                hi_inclusive: n,
            }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            Self {
                lo: r.start,
                hi_inclusive: r.end - 1,
            }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> Self {
            Self {
                lo: *r.start(),
                hi_inclusive: *r.end(),
            }
        }
    }

    /// The strategy returned by [`vec()`](fn@vec).
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// Vectors of `size` elements drawn from `element`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S>
    where
        S::Value: Clone,
    {
        type Value = Vec<S::Value>;

        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = usize::sample_range_inclusive(self.size.lo, self.size.hi_inclusive, rng);
            (0..len).map(|_| self.element.sample(rng)).collect()
        }

        /// Length halving toward the minimum size, then dropping single
        /// elements, then shrinking elements in place — so an oversized
        /// counterexample collapses to the few elements that matter.
        fn shrinks(&self, value: &Vec<S::Value>) -> Vec<Vec<S::Value>> {
            let mut out = Vec::new();
            let len = value.len();
            if len > self.size.lo {
                let half = (len / 2).max(self.size.lo);
                if half < len {
                    out.push(value[..half].to_vec());
                }
                // Drop one element at a time (front bias: later elements
                // often depend on earlier ones staying put).
                for i in 0..len {
                    let mut next = value.clone();
                    next.remove(i);
                    out.push(next);
                }
            }
            for (i, elem) in value.iter().enumerate() {
                for cand in self.element.shrinks(elem) {
                    let mut next = value.clone();
                    next[i] = cand;
                    out.push(next);
                }
            }
            out
        }
    }
}

pub mod num {
    //! Numeric special-value strategies.

    #[allow(nonstandard_style)]
    pub mod f64 {
        //! `f64` strategies.

        use crate::{Strategy, TestRng};

        /// Strategy over *normal* floats: finite, non-zero, non-subnormal,
        /// either sign.
        #[derive(Clone, Copy, Debug)]
        pub struct NormalStrategy;

        /// All normal `f64` values.
        pub const NORMAL: NormalStrategy = NormalStrategy;

        impl Strategy for NormalStrategy {
            type Value = core::primitive::f64;

            fn sample(&self, rng: &mut TestRng) -> core::primitive::f64 {
                loop {
                    let x = core::primitive::f64::from_bits(rng.next_u64());
                    if x.is_normal() {
                        return x;
                    }
                }
            }

            fn shrinks(&self, value: &core::primitive::f64) -> Vec<core::primitive::f64> {
                // Stay inside the normal domain: halve toward ±1.0.
                let origin = value.signum();
                let mut out = vec![origin, origin + (value - origin) / 2.0];
                out.retain(|c| c.is_normal() && c != value);
                out.dedup_by(|a, b| a == b);
                out
            }
        }
    }
}

pub mod arbitrary {
    //! `any::<T>()` support for the `name: Type` parameter form.

    use super::{SampleRange, Strategy, TestRng};
    use std::marker::PhantomData;

    /// Types with a canonical full-domain strategy.
    pub trait Arbitrary: Sized {
        /// Draws one arbitrary value.
        fn arbitrary(rng: &mut TestRng) -> Self;

        /// Shrink candidates toward the type's origin (0 / `false`).
        fn shrink(value: &Self) -> Vec<Self> {
            let _ = value;
            Vec::new()
        }
    }

    /// The strategy returned by [`any`].
    pub struct Any<T>(PhantomData<T>);

    /// The canonical strategy for `T`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;

        fn sample(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }

        fn shrinks(&self, value: &T) -> Vec<T> {
            T::shrink(value)
        }
    }

    macro_rules! impl_arbitrary_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> Self {
                    rng.next_u64() as $t
                }

                fn shrink(value: &Self) -> Vec<Self> {
                    <$t as SampleRange>::shrink_toward(0, *value)
                }
            }
        )*};
    }

    impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> Self {
            rng.next_u64() & 1 == 1
        }

        fn shrink(value: &Self) -> Vec<Self> {
            if *value {
                vec![false]
            } else {
                Vec::new()
            }
        }
    }

    impl Arbitrary for f64 {
        fn arbitrary(rng: &mut TestRng) -> Self {
            f64::from_bits(rng.next_u64())
        }

        fn shrink(value: &Self) -> Vec<Self> {
            <f64 as SampleRange>::shrink_toward(0.0, *value)
        }
    }
}

/// Hard cap on accepted shrink steps, so a pathological strategy cannot
/// loop forever minimizing (each accepted step re-runs the case).
const MAX_SHRINK_STEPS: u32 = 4096;

/// Runs one case, converting a panic in the property body (a plain
/// `assert!`/`expect` rather than `prop_assert!`) into a normal
/// failure, so panicking inputs shrink like asserting ones instead of
/// aborting the minimizer mid-search.
fn run_case<V, F>(case: &mut F, value: V) -> Result<(), TestCaseError>
where
    F: FnMut(V) -> Result<(), TestCaseError>,
{
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| case(value))) {
        Ok(outcome) => outcome,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("property body panicked");
            Err(TestCaseError::Fail(format!("panicked: {msg}")))
        }
    }
}

/// Runs one property over `strategy`: samples cases until the target
/// count passes, skipping rejects; on the first failure, shrinks the
/// input to a minimal still-failing value and panics with it. Used by
/// the [`proptest!`] expansion; not part of the public surface.
#[doc(hidden)]
// disallowed_methods: PROPTEST_CASES only scales the case count for
// local soak runs; the per-case RNG stays seeded from the test name.
#[allow(clippy::disallowed_methods)]
pub fn __run_proptest<S, F>(name: &str, strategy: &S, mut case: F)
where
    S: Strategy,
    S::Value: Clone + core::fmt::Debug,
    F: FnMut(S::Value) -> Result<(), TestCaseError>,
{
    let cases: u32 = std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(64);
    let mut rng = TestRng::from_name(name);
    let mut accepted = 0u32;
    let mut attempts = 0u32;
    while accepted < cases {
        attempts += 1;
        assert!(
            attempts <= cases.saturating_mul(64),
            "property `{name}`: too many prop_assume! rejections \
             ({accepted}/{cases} cases after {attempts} attempts)"
        );
        let state_before = rng.clone();
        let value = strategy.sample(&mut rng);
        match run_case(&mut case, value.clone()) {
            Ok(()) => accepted += 1,
            Err(TestCaseError::Reject) => {}
            Err(TestCaseError::Fail(msg)) => {
                let (minimal, msg, steps) = minimize(strategy, value, msg, &mut case);
                panic!(
                    "property `{name}` failed at case {accepted} \
                     (rng state {:#x}, {steps} shrink steps)\n\
                     minimal failing input: {minimal:?}\n{msg}",
                    state_before.state
                )
            }
        }
    }
}

/// Greedy shrink: take the first candidate that still fails, repeat
/// until no candidate fails (or the step budget runs out). Rejected
/// candidates (via `prop_assume!`) count as passing — they are not
/// valid counterexamples.
fn minimize<S, F>(
    strategy: &S,
    mut value: S::Value,
    mut msg: String,
    case: &mut F,
) -> (S::Value, String, u32)
where
    S: Strategy,
    S::Value: Clone,
    F: FnMut(S::Value) -> Result<(), TestCaseError>,
{
    let mut steps = 0u32;
    'minimizing: while steps < MAX_SHRINK_STEPS {
        for candidate in strategy.shrinks(&value) {
            if let Err(TestCaseError::Fail(m)) = run_case(case, candidate.clone()) {
                value = candidate;
                msg = m;
                steps += 1;
                continue 'minimizing;
            }
        }
        break; // No candidate fails: `value` is locally minimal.
    }
    (value, msg, steps)
}

/// Defines property tests. See module docs for the supported surface.
#[macro_export]
macro_rules! proptest {
    ($($(#[$meta:meta])* fn $name:ident($($params:tt)*) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                $crate::__proptest_case!($name, $body; (); (); $($params)*);
            }
        )*
    };
}

/// Parameter-list muncher for [`proptest!`]: accumulates one strategy
/// tuple and one pattern tuple, then hands both to the runner; internal.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_case {
    // All parameters consumed: run.
    ($name:ident, $body:block; ($($strat:expr,)*); ($($pat:pat,)*);) => {
        $crate::__run_proptest(
            stringify!($name),
            &($($strat,)*),
            |($($pat,)*)| -> ::std::result::Result<(), $crate::TestCaseError> {
                $body
                Ok(())
            },
        );
    };
    // `name: Type` parameter → the type's canonical strategy.
    ($name:ident, $body:block; ($($strat:expr,)*); ($($pat:pat,)*);
     $p:ident : $t:ty $(, $($rest:tt)*)?) => {
        $crate::__proptest_case!(
            $name, $body;
            ($($strat,)* $crate::arbitrary::any::<$t>(),);
            ($($pat,)* $p,);
            $($($rest)*)?
        );
    };
    // `pat in strategy` parameter.
    ($name:ident, $body:block; ($($strat:expr,)*); ($($pat:pat,)*);
     $p:pat in $s:expr $(, $($rest:tt)*)?) => {
        $crate::__proptest_case!(
            $name, $body;
            ($($strat,)* $s,);
            ($($pat,)* $p,);
            $($($rest)*)?
        );
    };
}

/// Property-scoped assertion: fails the current case without panicking
/// through the sampling machinery.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::Fail(
                format!("assertion failed: {}", stringify!($cond)),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::Fail(
                format!($($fmt)+),
            ));
        }
    };
}

/// Property-scoped equality assertion.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {{
        let (__a, __b) = (&$a, &$b);
        if !(*__a == *__b) {
            return ::std::result::Result::Err($crate::TestCaseError::Fail(format!(
                "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
                stringify!($a),
                stringify!($b),
                __a,
                __b
            )));
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (__a, __b) = (&$a, &$b);
        if !(*__a == *__b) {
            return ::std::result::Result::Err($crate::TestCaseError::Fail(format!(
                "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}\n{}",
                stringify!($a),
                stringify!($b),
                __a,
                __b,
                format!($($fmt)+)
            )));
        }
    }};
}

/// Property-scoped inequality assertion.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr $(,)?) => {{
        let (__a, __b) = (&$a, &$b);
        if *__a == *__b {
            return ::std::result::Result::Err($crate::TestCaseError::Fail(format!(
                "assertion failed: `{} != {}`\n  both: {:?}",
                stringify!($a),
                stringify!($b),
                __a
            )));
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (__a, __b) = (&$a, &$b);
        if *__a == *__b {
            return ::std::result::Result::Err($crate::TestCaseError::Fail(format!(
                "assertion failed: `{} != {}`\n  both: {:?}\n{}",
                stringify!($a),
                stringify!($b),
                __a,
                format!($($fmt)+)
            )));
        }
    }};
}

/// Skips the current case when its sampled inputs are out of scope.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::Reject);
        }
    };
}

/// Uniform choice among strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($s:expr),+ $(,)?) => {{
        let __choices: ::std::vec::Vec<
            ::std::boxed::Box<dyn $crate::Strategy<Value = _>>,
        > = vec![$(::std::boxed::Box::new($s)),+];
        $crate::Union::new(__choices)
    }};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #[test]
        fn ranges_respect_bounds(
            x in -50i64..50,
            y in 0.0f64..1.0,
            z in (10usize..=20),
            w: u64,
        ) {
            prop_assert!((-50..50).contains(&x));
            prop_assert!((0.0..1.0).contains(&y));
            prop_assert!((10..=20).contains(&z));
            let _ = w;
        }

        #[test]
        fn vec_and_tuple_strategies_compose(
            xs in crate::collection::vec((0usize..5, -2i32..3), 1..40),
        ) {
            prop_assert!(!xs.is_empty() && xs.len() < 40);
            for (a, b) in xs {
                prop_assert!(a < 5);
                prop_assert!((-2..3).contains(&b));
            }
        }

        #[test]
        fn assume_rejects_and_oneof_mixes(a in 0u32..100, b in 0u32..100) {
            prop_assume!(a != b);
            let strat = prop_oneof![Just(1u8), Just(2u8), (3u8..5).prop_map(|v| v)];
            let mut rng = crate::TestRng::from_name("inner");
            let mut seen_small = false;
            for _ in 0..64 {
                let v = strat.sample(&mut rng);
                prop_assert!((1..5).contains(&v));
                seen_small |= v < 3;
            }
            prop_assert!(seen_small);
            prop_assert_ne!(a, b);
        }

        #[test]
        fn normal_floats_are_normal(x in crate::num::f64::NORMAL) {
            prop_assert!(x.is_normal());
        }
    }

    #[test]
    #[should_panic(expected = "property `always_fails` failed")]
    fn failures_panic_with_context() {
        crate::__run_proptest("always_fails", &(0u32..10,), |(_x,)| {
            prop_assert!(false, "boom");
            #[allow(unreachable_code)]
            Ok(())
        });
    }

    /// Shrinking drives a range failure to its boundary: any x ≥ 10
    /// fails, so the minimal counterexample is exactly 10.
    #[test]
    fn numeric_failures_shrink_to_the_boundary() {
        let err = std::panic::catch_unwind(|| {
            crate::__run_proptest("shrink_numeric", &(0u64..1_000_000,), |(x,)| {
                prop_assert!(x < 10, "too big: {x}");
                Ok(())
            });
        })
        .expect_err("property must fail");
        let msg = err.downcast_ref::<String>().expect("string panic");
        assert!(
            msg.contains("minimal failing input: (10,)"),
            "not shrunk to the boundary: {msg}"
        );
    }

    /// A million-element-style collection counterexample shrinks to the
    /// one element that matters.
    #[test]
    fn collection_failures_shrink_to_one_element() {
        let strategy = (crate::collection::vec(0u32..1000, 0..300),);
        let err = std::panic::catch_unwind(|| {
            crate::__run_proptest("shrink_vec", &strategy, |(xs,)| {
                prop_assert!(xs.iter().all(|&x| x < 500), "bad element");
                Ok(())
            });
        })
        .expect_err("property must fail");
        let msg = err.downcast_ref::<String>().expect("string panic");
        assert!(
            msg.contains("minimal failing input: ([500],)"),
            "not shrunk to the minimal element: {msg}"
        );
    }

    /// Property bodies that panic outright (plain `assert!`/`expect`
    /// rather than `prop_assert!`) still shrink to the minimal input
    /// instead of aborting the minimizer with the candidate's panic.
    #[test]
    fn panicking_bodies_shrink_like_asserting_ones() {
        let err = std::panic::catch_unwind(|| {
            crate::__run_proptest("shrink_panic", &(0u64..100_000,), |(x,)| {
                assert!(x < 10, "plain panic at {x}");
                Ok(())
            });
        })
        .expect_err("property must fail");
        let msg = err.downcast_ref::<String>().expect("string panic");
        assert!(
            msg.contains("minimal failing input: (10,)"),
            "not shrunk to the boundary: {msg}"
        );
        assert!(msg.contains("plain panic at 10"), "wrong message: {msg}");
    }

    /// Component-wise tuple shrinking leaves passing coordinates at
    /// their origins.
    #[test]
    fn tuple_failures_shrink_componentwise() {
        let err = std::panic::catch_unwind(|| {
            crate::__run_proptest("shrink_tuple", &(0i64..100, 0i64..100), |(a, b)| {
                prop_assert!(a + b < 50, "sum too big");
                Ok(())
            });
        })
        .expect_err("property must fail");
        let msg = err.downcast_ref::<String>().expect("string panic");
        // Greedy bisection lands on a locally minimal pair: both
        // coordinates unable to move toward 0 without passing.
        let start = msg.find("minimal failing input: (").expect("has input") + 24;
        let end = msg[start..].find(')').unwrap() + start;
        let parts: Vec<i64> = msg[start..end]
            .split(", ")
            .map(|s| s.trim().parse().unwrap())
            .collect();
        assert_eq!(parts[0] + parts[1], 50, "not locally minimal: {msg}");
    }
}
