//! Offline shim for the `proptest` crate.
//!
//! This build environment cannot reach crates.io, so the workspace carries a
//! minimal, dependency-free reimplementation of the proptest API surface its
//! test suites actually use:
//!
//! * the [`Strategy`] trait with [`Strategy::prop_map`];
//! * range strategies for the primitive numeric types (`a..b`, `a..=b`);
//! * tuple strategies up to arity 10;
//! * [`collection::vec`], [`option::of`], [`any`], [`Just`];
//! * `&str` regex-subset strategies for random strings;
//! * the [`proptest!`] macro with `#![proptest_config(...)]`, and the
//!   `prop_assert!` / `prop_assert_eq!` assertion macros.
//!
//! Generation is **deterministic**: every test function derives its RNG seed
//! from its own name, so failures reproduce without a persistence file.
//! There is no shrinking — the failing case is reported as-is. That loses
//! minimality but keeps the dependency surface at zero, which is the
//! constraint this environment imposes.

#![forbid(unsafe_code)]

use std::ops::{Range, RangeInclusive};

/// Deterministic 64-bit RNG (splitmix64) used for all value generation.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Creates an RNG from a seed.
    pub fn new(seed: u64) -> Self {
        TestRng { state: seed.wrapping_add(0x9E37_79B9_7F4A_7C15) }
    }

    /// Next raw 64-bit value (splitmix64 step).
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `u64` in `[0, bound)`; `bound` must be nonzero.
    pub fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        self.next_u64() % bound
    }
}

/// FNV-1a hash of a string, used to derive per-test seeds from test names.
pub fn seed_from_name(name: &str) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// A generator of random values of one type.
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
}

/// Strategies behind references generate like the strategy itself.
impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> S::Value {
        (**self).generate(rng)
    }
}

/// The strategy returned by [`Strategy::prop_map`].
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

/// A strategy that always yields a clone of one value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! int_range_strategies {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty integer range strategy");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.below(span) as i128) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start() as i128, *self.end() as i128);
                assert!(lo <= hi, "empty integer range strategy");
                let span = (hi - lo + 1) as u128;
                if span > u64::MAX as u128 {
                    // Full-width range: any value.
                    rng.next_u64() as $t
                } else {
                    (lo + rng.below(span as u64) as i128) as $t
                }
            }
        }
    )*};
}

int_range_strategies!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty f64 range strategy");
        self.start + (self.end - self.start) * rng.unit_f64()
    }
}

impl Strategy for RangeInclusive<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "empty f64 range strategy");
        // Occasionally hit the endpoints exactly.
        match rng.below(64) {
            0 => lo,
            1 => hi,
            _ => lo + (hi - lo) * rng.unit_f64(),
        }
    }
}

impl Strategy for Range<f32> {
    type Value = f32;
    fn generate(&self, rng: &mut TestRng) -> f32 {
        (Range { start: self.start as f64, end: self.end as f64 }).generate(rng) as f32
    }
}

macro_rules! tuple_strategies {
    ($(($($s:ident . $idx:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )*};
}

tuple_strategies! {
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
    (A.0, B.1, C.2, D.3, E.4)
    (A.0, B.1, C.2, D.3, E.4, F.5)
    (A.0, B.1, C.2, D.3, E.4, F.5, G.6)
    (A.0, B.1, C.2, D.3, E.4, F.5, G.6, H.7)
    (A.0, B.1, C.2, D.3, E.4, F.5, G.6, H.7, I.8)
    (A.0, B.1, C.2, D.3, E.4, F.5, G.6, H.7, I.8, J.9)
}

/// Types with a canonical "any value" strategy.
pub trait Arbitrary {
    /// The canonical strategy for the type.
    type Strategy: Strategy<Value = Self>;
    /// Returns the canonical strategy.
    fn arbitrary() -> Self::Strategy;
}

/// Strategy produced by [`any`] for primitive types.
#[derive(Debug, Clone, Copy, Default)]
pub struct AnyStrategy<T>(std::marker::PhantomData<T>);

macro_rules! arbitrary_ints {
    ($($t:ty),*) => {$(
        impl Strategy for AnyStrategy<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
        impl Arbitrary for $t {
            type Strategy = AnyStrategy<$t>;
            fn arbitrary() -> Self::Strategy {
                AnyStrategy(std::marker::PhantomData)
            }
        }
    )*};
}

arbitrary_ints!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for AnyStrategy<bool> {
    type Value = bool;
    fn generate(&self, rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for bool {
    type Strategy = AnyStrategy<bool>;
    fn arbitrary() -> Self::Strategy {
        AnyStrategy(std::marker::PhantomData)
    }
}

/// The canonical strategy for any [`Arbitrary`] type.
pub fn any<T: Arbitrary>() -> T::Strategy {
    T::arbitrary()
}

/// `&str` regex-subset strategies: generates strings matching the pattern.
///
/// Supported syntax: literal characters, `\`-escapes, character classes
/// `[a-z0-9-]`, groups `(...)`, alternation `|`, and the quantifiers `{n}`,
/// `{m,n}`, `?`, `*`, `+` (unbounded quantifiers cap at 8 repeats).
impl Strategy for str {
    type Value = String;
    fn generate(&self, rng: &mut TestRng) -> String {
        let ast = regex_gen::parse(self);
        let mut out = String::new();
        regex_gen::emit(&ast, rng, &mut out);
        out
    }
}

mod regex_gen {
    use super::TestRng;

    #[derive(Debug)]
    pub enum Node {
        /// Sequence of nodes.
        Seq(Vec<Node>),
        /// One of several alternatives.
        Alt(Vec<Node>),
        /// A single literal character.
        Lit(char),
        /// A set of candidate characters (expanded from a class).
        Class(Vec<char>),
        /// Repetition of a node between `min` and `max` times.
        Repeat(Box<Node>, usize, usize),
    }

    pub fn parse(pattern: &str) -> Node {
        let chars: Vec<char> = pattern.chars().collect();
        let (node, used) = parse_alt(&chars, 0);
        assert!(used == chars.len(), "unsupported regex pattern: {pattern:?}");
        node
    }

    fn parse_alt(chars: &[char], mut i: usize) -> (Node, usize) {
        let mut alts = Vec::new();
        let (first, ni) = parse_seq(chars, i);
        alts.push(first);
        i = ni;
        while i < chars.len() && chars[i] == '|' {
            let (next, ni) = parse_seq(chars, i + 1);
            alts.push(next);
            i = ni;
        }
        if alts.len() == 1 {
            (alts.pop().unwrap(), i)
        } else {
            (Node::Alt(alts), i)
        }
    }

    fn parse_seq(chars: &[char], mut i: usize) -> (Node, usize) {
        let mut seq = Vec::new();
        while i < chars.len() && chars[i] != '|' && chars[i] != ')' {
            let (atom, ni) = parse_atom(chars, i);
            i = ni;
            let (node, ni) = parse_quantifier(atom, chars, i);
            i = ni;
            seq.push(node);
        }
        (Node::Seq(seq), i)
    }

    fn parse_atom(chars: &[char], i: usize) -> (Node, usize) {
        match chars[i] {
            '(' => {
                let (inner, ni) = parse_alt(chars, i + 1);
                assert!(ni < chars.len() && chars[ni] == ')', "unclosed group");
                (inner, ni + 1)
            }
            '[' => parse_class(chars, i + 1),
            '\\' => (Node::Lit(chars[i + 1]), i + 2),
            '.' => (Node::Class(('a'..='z').chain('0'..='9').collect()), i + 1),
            c => (Node::Lit(c), i + 1),
        }
    }

    fn parse_class(chars: &[char], mut i: usize) -> (Node, usize) {
        let mut set = Vec::new();
        while chars[i] != ']' {
            let c = if chars[i] == '\\' {
                i += 1;
                chars[i]
            } else {
                chars[i]
            };
            if i + 2 < chars.len() && chars[i + 1] == '-' && chars[i + 2] != ']' {
                let hi = chars[i + 2];
                for x in c..=hi {
                    set.push(x);
                }
                i += 3;
            } else {
                set.push(c);
                i += 1;
            }
        }
        assert!(!set.is_empty(), "empty character class");
        (Node::Class(set), i + 1)
    }

    fn parse_quantifier(node: Node, chars: &[char], i: usize) -> (Node, usize) {
        if i >= chars.len() {
            return (node, i);
        }
        match chars[i] {
            '?' => (Node::Repeat(Box::new(node), 0, 1), i + 1),
            '*' => (Node::Repeat(Box::new(node), 0, 8), i + 1),
            '+' => (Node::Repeat(Box::new(node), 1, 8), i + 1),
            '{' => {
                let close = (i..chars.len()).find(|&j| chars[j] == '}').expect("unclosed {}");
                let body: String = chars[i + 1..close].iter().collect();
                let (lo, hi) = match body.split_once(',') {
                    Some((a, b)) => {
                        let lo = a.trim().parse().expect("bad quantifier");
                        let hi =
                            if b.trim().is_empty() { lo + 8 } else { b.trim().parse().unwrap() };
                        (lo, hi)
                    }
                    None => {
                        let n = body.trim().parse().expect("bad quantifier");
                        (n, n)
                    }
                };
                (Node::Repeat(Box::new(node), lo, hi), close + 1)
            }
            _ => (node, i),
        }
    }

    pub fn emit(node: &Node, rng: &mut TestRng, out: &mut String) {
        match node {
            Node::Seq(nodes) => {
                for n in nodes {
                    emit(n, rng, out);
                }
            }
            Node::Alt(alts) => {
                let pick = rng.below(alts.len() as u64) as usize;
                emit(&alts[pick], rng, out);
            }
            Node::Lit(c) => out.push(*c),
            Node::Class(set) => {
                out.push(set[rng.below(set.len() as u64) as usize]);
            }
            Node::Repeat(inner, lo, hi) => {
                let n = *lo + rng.below((*hi - *lo + 1) as u64) as usize;
                for _ in 0..n {
                    emit(inner, rng, out);
                }
            }
        }
    }
}

/// Collection strategies (`prop::collection`).
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// Strategy for `Vec<T>` with element strategy `element` and a length
    /// drawn from `len`.
    pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
        assert!(len.start < len.end, "empty length range");
        VecStrategy { element, len }
    }

    /// The strategy returned by [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        len: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.len.end - self.len.start) as u64;
            let n = self.len.start + rng.below(span) as usize;
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Option strategies (`prop::option`).
pub mod option {
    use super::{Strategy, TestRng};

    /// Strategy for `Option<T>`: `None` about a quarter of the time.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }

    /// The strategy returned by [`of`].
    #[derive(Debug, Clone)]
    pub struct OptionStrategy<S> {
        inner: S,
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Option<S::Value> {
            if rng.below(4) == 0 {
                None
            } else {
                Some(self.inner.generate(rng))
            }
        }
    }
}

/// Runtime configuration for a `proptest!` block.
#[derive(Debug, Clone, Copy)]
pub struct ProptestConfig {
    /// Number of random cases each test runs.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` random cases per test.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

/// Everything a test module needs: `use proptest::prelude::*;`.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, proptest, Arbitrary, Just,
        ProptestConfig, Strategy,
    };

    /// The `prop::` namespace (`prop::collection::vec`, `prop::option::of`).
    pub mod prop {
        pub use crate::{collection, option};
    }
}

/// Asserts a condition inside a `proptest!` case, reporting the formatted
/// message on failure. Without shrinking, this is `assert!` plus context.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        assert!($cond);
    };
    ($cond:expr, $($fmt:tt)*) => {
        assert!($cond, $($fmt)*);
    };
}

/// `assert_eq!` inside a `proptest!` case.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {
        assert_eq!($a, $b);
    };
    ($a:expr, $b:expr, $($fmt:tt)*) => {
        assert_eq!($a, $b, $($fmt)*);
    };
}

/// `assert_ne!` inside a `proptest!` case.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr $(,)?) => {
        assert_ne!($a, $b);
    };
    ($a:expr, $b:expr, $($fmt:tt)*) => {
        assert_ne!($a, $b, $($fmt)*);
    };
}

/// Declares property tests. Each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` that runs the body over `cases` deterministic random
/// inputs (seeded from the test's name).
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!{ cfg = $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!{ cfg = $crate::ProptestConfig::default(); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (cfg = $cfg:expr; $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let cfg: $crate::ProptestConfig = $cfg;
            let base = $crate::seed_from_name(concat!(module_path!(), "::", stringify!($name)));
            for case in 0..cfg.cases as u64 {
                let mut rng = $crate::TestRng::new(base ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15));
                $(let $arg = $crate::Strategy::generate(&($strat), &mut rng);)+
                $body
            }
        }
    )*};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = crate::TestRng::new(7);
        for _ in 0..1000 {
            let x = (3u64..10).generate(&mut rng);
            assert!((3..10).contains(&x));
            let y = (-2.5f64..4.0).generate(&mut rng);
            assert!((-2.5..4.0).contains(&y));
            let z = (1u16..=256).generate(&mut rng);
            assert!((1..=256).contains(&z));
        }
    }

    #[test]
    fn vec_and_option_strategies() {
        let mut rng = crate::TestRng::new(9);
        let s = prop::collection::vec(prop::option::of(0.0f64..1.0), 1..20);
        let mut saw_none = false;
        for _ in 0..200 {
            let v = s.generate(&mut rng);
            assert!((1..20).contains(&v.len()));
            saw_none |= v.iter().any(|o| o.is_none());
        }
        assert!(saw_none, "option::of never produced None");
    }

    #[test]
    fn regex_strategy_matches_shape() {
        let mut rng = crate::TestRng::new(11);
        let pat = "[a-z0-9-]{0,20}(\\.[a-z]{2,8}){0,3}";
        for _ in 0..200 {
            let s = pat.generate(&mut rng);
            assert!(
                s.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || "-.".contains(c)),
                "unexpected char in {s:?}"
            );
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let strat = (0u64..1000, 0.0f64..1.0).prop_map(|(a, b)| (a, b));
        let a: Vec<_> = (0..10).map(|i| strat.generate(&mut crate::TestRng::new(i))).collect();
        let b: Vec<_> = (0..10).map(|i| strat.generate(&mut crate::TestRng::new(i))).collect();
        assert_eq!(a, b);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn the_macro_itself_works(x in 0u32..100, ys in prop::collection::vec(any::<u64>(), 0..8)) {
            prop_assert!(x < 100);
            prop_assert_eq!(ys.len(), ys.len());
        }
    }
}
