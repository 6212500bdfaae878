//! An offline, dependency-free stand-in for the `proptest` crate.
//!
//! The container this workspace builds in has no crates-io access, so the
//! real `proptest` cannot be fetched. This crate implements the subset of
//! its API the workspace's property tests actually use — seeded strategy
//! sampling, `proptest!`, `prop_assert*`, `prop_oneof!`, collection and
//! regex-ish string strategies — with a deterministic xorshift generator,
//! so `use proptest::prelude::*;` tests compile and run unchanged.
//!
//! Differences from real proptest, by design:
//!
//! * **No shrinking.** A failing case reports its inputs and seed; re-run
//!   with `PROPTEST_SEED` to reproduce it exactly.
//! * **Deterministic by default.** The case seed derives from the test
//!   name and case index (override with `PROPTEST_SEED`), so CI runs are
//!   reproducible without a persistence file.
//! * Only the regex forms actually used are supported by the string
//!   strategy: literals, `.`, `[...]` classes with ranges, and `{m,n}` /
//!   `{n}` repetition.

#![forbid(unsafe_code)]

use std::ops::Range;

/// The deterministic generator behind every strategy sample
/// (xorshift64*; public so the macros can construct it).
#[derive(Clone, Debug)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// A generator seeded for one test case.
    pub fn new(seed: u64) -> Self {
        TestRng {
            state: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1,
        }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform value in `[0, bound)`; `bound` must be non-zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A source of values of one type; the sampling half of proptest's
/// `Strategy` (no shrink tree).
pub trait Strategy {
    /// The type of value this strategy produces.
    type Value;

    /// Samples one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Erases the strategy type.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(std::rc::Rc::new(self))
    }
}

/// A type-erased strategy (the target of [`Strategy::boxed`]).
pub struct BoxedStrategy<V>(std::rc::Rc<dyn Strategy<Value = V>>);

impl<V> Clone for BoxedStrategy<V> {
    fn clone(&self) -> Self {
        BoxedStrategy(self.0.clone())
    }
}

impl<V> Strategy for BoxedStrategy<V> {
    type Value = V;
    fn generate(&self, rng: &mut TestRng) -> V {
        self.0.generate(rng)
    }
}

/// The result of [`Strategy::prop_map`].
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

/// A strategy producing one constant value.
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Uniform choice between boxed alternatives (the engine of
/// [`prop_oneof!`]).
pub struct Union<V>(pub Vec<BoxedStrategy<V>>);

impl<V> Strategy for Union<V> {
    type Value = V;
    fn generate(&self, rng: &mut TestRng) -> V {
        let i = rng.below(self.0.len() as u64) as usize;
        self.0[i].generate(rng)
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let span = (self.end as i128 - self.start as i128) as u64;
                assert!(span > 0, "empty range strategy");
                (self.start as i128 + rng.below(span) as i128) as $t
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let span = (*self.end() as i128 - *self.start() as i128 + 1) as u64;
                (*self.start() as i128 + rng.below(span) as i128) as $t
            }
        }
    )*};
}
int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! tuple_strategy {
    ($(($($n:tt $S:ident),+))*) => {$(
        impl<$($S: Strategy),+> Strategy for ($($S,)+) {
            type Value = ($($S::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$n.generate(rng),)+)
            }
        }
    )*};
}
tuple_strategy! {
    (0 A)
    (0 A, 1 B)
    (0 A, 1 B, 2 C)
    (0 A, 1 B, 2 C, 3 D)
    (0 A, 1 B, 2 C, 3 D, 4 E)
    (0 A, 1 B, 2 C, 3 D, 4 E, 5 F)
}

/// `&str` patterns act as string strategies over a small regex subset.
impl Strategy for &'static str {
    type Value = String;
    fn generate(&self, rng: &mut TestRng) -> String {
        regex_like::generate(self, rng)
    }
}

mod regex_like {
    use super::TestRng;

    enum Atom {
        /// A literal character.
        Lit(char),
        /// `.` — any printable character except newline.
        Dot,
        /// `[...]` — one of an explicit alternative set.
        Class(Vec<char>),
    }

    fn parse_class(chars: &mut std::iter::Peekable<std::str::Chars>) -> Vec<char> {
        let mut out = Vec::new();
        let mut prev: Option<char> = None;
        while let Some(c) = chars.next() {
            match c {
                ']' => break,
                '-' if prev.is_some() && chars.peek().is_some_and(|&n| n != ']') => {
                    let lo = prev.take().expect("checked") as u32 + 1;
                    let hi = chars.next().expect("checked") as u32;
                    for v in lo..=hi {
                        if let Some(ch) = char::from_u32(v) {
                            out.push(ch);
                        }
                    }
                }
                _ => {
                    out.push(c);
                    prev = Some(c);
                }
            }
        }
        out
    }

    /// Parses `{m,n}` or `{n}` immediately following an atom; returns the
    /// repetition bounds, defaulting to exactly-once.
    fn parse_reps(chars: &mut std::iter::Peekable<std::str::Chars>) -> (usize, usize) {
        if chars.peek() != Some(&'{') {
            return (1, 1);
        }
        chars.next();
        let mut body = String::new();
        for c in chars.by_ref() {
            if c == '}' {
                break;
            }
            body.push(c);
        }
        match body.split_once(',') {
            Some((lo, hi)) => (
                lo.trim().parse().unwrap_or(0),
                hi.trim().parse().unwrap_or(0),
            ),
            None => {
                let n = body.trim().parse().unwrap_or(1);
                (n, n)
            }
        }
    }

    pub fn generate(pattern: &str, rng: &mut TestRng) -> String {
        let mut out = String::new();
        let mut chars = pattern.chars().peekable();
        while let Some(c) = chars.next() {
            let atom = match c {
                '.' => Atom::Dot,
                '[' => Atom::Class(parse_class(&mut chars)),
                '\\' => Atom::Lit(chars.next().unwrap_or('\\')),
                other => Atom::Lit(other),
            };
            let (lo, hi) = parse_reps(&mut chars);
            let n = lo + rng.below((hi - lo + 1) as u64) as usize;
            for _ in 0..n {
                match &atom {
                    Atom::Lit(ch) => out.push(*ch),
                    Atom::Dot => {
                        // Mostly printable ASCII with the occasional
                        // multi-byte char, never a newline (regex `.`).
                        if rng.below(10) == 0 {
                            out.push(['λ', '¥', '中', 'ß', '🦀'][rng.below(5) as usize]);
                        } else {
                            out.push((0x20u8 + rng.below(0x5F) as u8) as char);
                        }
                    }
                    Atom::Class(set) => {
                        if !set.is_empty() {
                            out.push(set[rng.below(set.len() as u64) as usize]);
                        }
                    }
                }
            }
        }
        out
    }
}

/// `any::<T>()` support for common primitives.
pub trait Arbitrary: Sized {
    /// Samples an arbitrary value of the type.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! arb_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}
arb_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut TestRng) -> f64 {
        rng.unit_f64()
    }
}

impl Arbitrary for char {
    fn arbitrary(rng: &mut TestRng) -> char {
        (0x20u8 + rng.below(0x5F) as u8) as char
    }
}

/// The strategy returned by [`any`].
pub struct Any<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// A strategy over every value of `T` (for supported primitives).
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

/// Collection strategies (`vec`, `btree_set`, `btree_map`).
pub mod collection {
    use super::{Strategy, TestRng};
    use std::collections::{BTreeMap, BTreeSet};
    use std::ops::Range;

    /// A collection-size specification: an exact length or a half-open
    /// range of lengths (mirrors proptest's `SizeRange` conversions).
    pub struct SizeRange(Range<usize>);

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange(n..n + 1)
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            SizeRange(r)
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> Self {
            SizeRange(*r.start()..r.end() + 1)
        }
    }

    /// A strategy producing `Vec`s with lengths drawn from `size`.
    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    /// Vectors of `element` values with length in `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into().0,
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.end - self.size.start).max(1) as u64;
            let n = self.size.start + rng.below(span) as usize;
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// A strategy producing `BTreeSet`s (duplicates collapse).
    pub struct BTreeSetStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    /// Sets of `element` values with at most `size.end - 1` members.
    pub fn btree_set<S: Strategy>(element: S, size: impl Into<SizeRange>) -> BTreeSetStrategy<S>
    where
        S::Value: Ord,
    {
        BTreeSetStrategy {
            element,
            size: size.into().0,
        }
    }

    impl<S: Strategy> Strategy for BTreeSetStrategy<S>
    where
        S::Value: Ord,
    {
        type Value = BTreeSet<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> BTreeSet<S::Value> {
            let span = (self.size.end - self.size.start).max(1) as u64;
            let n = self.size.start + rng.below(span) as usize;
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// A strategy producing `BTreeMap`s (duplicate keys collapse).
    pub struct BTreeMapStrategy<K, V> {
        key: K,
        value: V,
        size: Range<usize>,
    }

    /// Maps with keys/values from the given strategies.
    pub fn btree_map<K: Strategy, V: Strategy>(
        key: K,
        value: V,
        size: impl Into<SizeRange>,
    ) -> BTreeMapStrategy<K, V>
    where
        K::Value: Ord,
    {
        BTreeMapStrategy {
            key,
            value,
            size: size.into().0,
        }
    }

    impl<K: Strategy, V: Strategy> Strategy for BTreeMapStrategy<K, V>
    where
        K::Value: Ord,
    {
        type Value = BTreeMap<K::Value, V::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let span = (self.size.end - self.size.start).max(1) as u64;
            let n = self.size.start + rng.below(span) as usize;
            (0..n)
                .map(|_| (self.key.generate(rng), self.value.generate(rng)))
                .collect()
        }
    }
}

/// Per-`proptest!`-block configuration.
#[derive(Clone, Copy, Debug)]
pub struct ProptestConfig {
    /// Number of cases to run per test.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

impl ProptestConfig {
    /// A config running `cases` cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

/// Runtime support consumed by the [`proptest!`] expansion.
pub mod runtime {
    use super::ProptestConfig;

    /// Cases to run: `PROPTEST_CASES` env override, else the config.
    pub fn case_count(config: &ProptestConfig) -> u32 {
        std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(config.cases)
    }

    /// Deterministic per-test seed: `PROPTEST_SEED` env override, else a
    /// hash of the test's module path and name.
    pub fn base_seed(test_name: &str) -> u64 {
        if let Some(seed) = std::env::var("PROPTEST_SEED")
            .ok()
            .and_then(|v| v.parse().ok())
        {
            return seed;
        }
        // FNV-1a over the test name.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in test_name.bytes() {
            h = (h ^ b as u64).wrapping_mul(0x1000_0000_01b3);
        }
        h
    }
}

/// Defines seeded property tests over the strategies in its parameter
/// lists (API-compatible subset of proptest's macro).
#[macro_export]
macro_rules! proptest {
    // Internal expansion arm — must precede the catch-all below, which
    // would otherwise re-match `@cfg ...` and recurse without end.
    (@cfg ($config:expr) $(
        $(#[$meta:meta])+
        fn $name:ident($($arg:pat in $strat:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])+
        fn $name() {
            let config: $crate::ProptestConfig = $config;
            let cases = $crate::runtime::case_count(&config);
            let seed = $crate::runtime::base_seed(concat!(module_path!(), "::", stringify!($name)));
            for case in 0..cases as u64 {
                let mut rng = $crate::TestRng::new(seed ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15));
                let mut inputs = String::new();
                let result: ::std::result::Result<(), $crate::TestCaseError> = (|| {
                    $(
                        let value = $crate::Strategy::generate(&$strat, &mut rng);
                        inputs.push_str(&format!(
                            "  {} = {:?}\n", stringify!($arg), value
                        ));
                        let $arg = value;
                    )+
                    $body
                    #[allow(unreachable_code)]
                    Ok(())
                })();
                if let Err(e) = result {
                    panic!(
                        "proptest case {case} of {cases} failed (seed {seed}):\n{inputs}{e}",
                    );
                }
            }
        }
    )*};
    // With a leading #![proptest_config(...)] attribute.
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::proptest!(@cfg ($config) $($rest)*);
    };
    // Without one: default config.
    ($($rest:tt)*) => {
        $crate::proptest!(@cfg ($crate::ProptestConfig::default()) $($rest)*);
    };
}

/// A failed property (carried by `prop_assert*` early returns).
#[derive(Clone, Debug)]
pub struct TestCaseError(pub String);

impl std::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// Asserts a condition, failing the case (not the process) on violation.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return Err($crate::TestCaseError(format!(
                "assertion failed: {}", stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err($crate::TestCaseError(format!(
                "assertion failed: {} ({})", stringify!($cond), format!($($fmt)+)
            )));
        }
    };
}

/// Asserts equality, failing the case on violation.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        if !(a == b) {
            return Err($crate::TestCaseError(format!(
                "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
                stringify!($a), stringify!($b), a, b
            )));
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (a, b) = (&$a, &$b);
        if !(a == b) {
            return Err($crate::TestCaseError(format!(
                "assertion failed: {} == {} ({})\n  left: {:?}\n right: {:?}",
                stringify!($a), stringify!($b), format!($($fmt)+), a, b
            )));
        }
    }};
}

/// Asserts inequality, failing the case on violation.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        if a == b {
            return Err($crate::TestCaseError(format!(
                "assertion failed: {} != {} (both {:?})",
                stringify!($a),
                stringify!($b),
                a
            )));
        }
    }};
}

/// Rejects the current case (treated as a skipped case, not a failure).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return Ok(());
        }
    };
}

/// Uniform choice among strategies of a common value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::Union(vec![$($crate::Strategy::boxed($strat)),+])
    };
}

/// Everything a property test needs in scope.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
        Arbitrary, BoxedStrategy, Just, ProptestConfig, Strategy, TestCaseError,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::TestRng;

    #[test]
    fn ranges_sample_in_bounds() {
        let mut rng = TestRng::new(7);
        for _ in 0..200 {
            let v = Strategy::generate(&(3u32..9), &mut rng);
            assert!((3..9).contains(&v));
        }
    }

    #[test]
    fn regex_subset_generates_matching_strings() {
        let mut rng = TestRng::new(3);
        for _ in 0..100 {
            let s = Strategy::generate(&"[a-c][a-c0-9._-]{0,4}", &mut rng);
            assert!(!s.is_empty() && s.len() <= 5, "{s:?}");
            assert!(s.chars().next().is_some_and(|c| ('a'..='c').contains(&c)));
        }
    }

    #[test]
    fn determinism_per_seed() {
        let a: Vec<u64> = {
            let mut rng = TestRng::new(42);
            (0..8).map(|_| rng.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut rng = TestRng::new(42);
            (0..8).map(|_| rng.next_u64()).collect()
        };
        assert_eq!(a, b);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn vec_lengths_respect_bounds(v in crate::collection::vec(0u8..10, 2..6)) {
            prop_assert!(v.len() >= 2 && v.len() < 6);
            for x in &v {
                prop_assert!(*x < 10);
            }
        }

        #[test]
        fn oneof_covers_alternatives(x in prop_oneof![Just(1u32), Just(2u32), (5u32..8)]) {
            prop_assert!(x == 1 || x == 2 || (5..8).contains(&x));
        }
    }
}
