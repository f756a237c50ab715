//! Offline stand-in for `proptest`.
//!
//! Implements the API subset this workspace's property tests use: the
//! [`proptest!`] macro, [`strategy::Strategy`] with `prop_map`, numeric-range
//! and tuple strategies, [`collection::vec`], [`arbitrary::any`],
//! [`prop_assert!`] / [`prop_assume!`], and
//! [`test_runner::ProptestConfig::with_cases`].
//!
//! Differences from upstream, by design: cases are generated from a fixed
//! deterministic seed sequence (fully reproducible runs), there is **no
//! shrinking** (a failure reports the case number and the seed, and how to
//! replay it), and strategies are simple uniform samplers. That is
//! sufficient for invariant checking, which is all this workspace needs.
//!
//! Two environment variables change a run without touching the code:
//!
//! * `PROPTEST_CASES=n` runs `n` cases of every property. (Upstream reads
//!   the same variable but lets an explicit `with_cases` win; here the
//!   variable wins, so a whole suite can be run longer or shorter.)
//! * `PROPTEST_RNG_SEED=s` (decimal or `0x` hex) replaces the base seed
//!   every case's generator derives from: a second seed is a second set
//!   of cases, and the seed a failure prints replays it.

pub mod test_runner {
    //! Case execution: config, error type, runner.

    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Subset of proptest's `Config`.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of random cases per property.
        pub cases: u32,
        /// Base seed the per-case generators derive from.
        pub seed: u64,
        /// Maximum `prop_assume!` rejections before the property errors.
        pub max_global_rejects: u32,
    }

    impl ProptestConfig {
        /// A config running `cases` random cases.
        pub fn with_cases(cases: u32) -> Self {
            Self {
                cases,
                ..Self::default()
            }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            Self {
                cases: 256,
                seed: 0x9E37_79B9_7F4A_7C15,
                max_global_rejects: 1024,
            }
        }
    }

    /// Why a single case did not pass.
    #[derive(Debug, Clone)]
    pub enum TestCaseError {
        /// An assertion failed; the property is falsified.
        Fail(String),
        /// `prop_assume!` rejected the inputs; the case does not count.
        Reject,
    }

    /// Result of one case body.
    pub type TestCaseResult = Result<(), TestCaseError>;

    /// Runs the configured number of cases of one property.
    #[derive(Debug)]
    pub struct TestRunner {
        pub(crate) config: ProptestConfig,
    }

    /// `config` with the case count and base seed replaced by
    /// `PROPTEST_CASES` and `PROPTEST_RNG_SEED` where `var` has them.
    ///
    /// # Panics
    ///
    /// Panics when a variable is set to anything but a number (decimal or
    /// `0x` hex): a typo must not quietly run the default cases.
    pub fn with_overrides(
        mut config: ProptestConfig,
        var: impl Fn(&str) -> Option<String>,
    ) -> ProptestConfig {
        let number = |name: &str| {
            let text = var(name)?;
            let parsed = match text.strip_prefix("0x") {
                Some(hex) => u64::from_str_radix(hex, 16),
                None => text.parse(),
            };
            Some(parsed.unwrap_or_else(|_| panic!("{name}={text:?} is not a number")))
        };
        if let Some(cases) = number("PROPTEST_CASES") {
            config.cases = u32::try_from(cases).expect("PROPTEST_CASES fits a u32");
        }
        if let Some(seed) = number("PROPTEST_RNG_SEED") {
            config.seed = seed;
        }
        config
    }

    impl TestRunner {
        /// Creates a runner. `PROPTEST_CASES` and `PROPTEST_RNG_SEED`, when
        /// set in the environment, replace the config's case count and
        /// base seed.
        pub fn new(config: ProptestConfig) -> Self {
            Self {
                config: with_overrides(config, |name| std::env::var(name).ok()),
            }
        }

        /// Runs `body` once per case with a per-case seeded generator.
        ///
        /// # Panics
        ///
        /// Panics (failing the enclosing `#[test]`) when a case returns
        /// [`TestCaseError::Fail`] or rejections exceed the configured cap.
        pub fn run_cases<F>(&mut self, property: &str, mut body: F)
        where
            F: FnMut(&mut StdRng) -> TestCaseResult,
        {
            let mut rejects = 0u32;
            let mut case = 0u32;
            let mut stream = 0u64;
            while case < self.config.cases {
                let mut rng = StdRng::seed_from_u64(
                    self.config
                        .seed
                        .wrapping_add(stream.wrapping_mul(0x5851_F42D_4C95_7F2D)),
                );
                stream += 1;
                match body(&mut rng) {
                    Ok(()) => case += 1,
                    Err(TestCaseError::Reject) => {
                        rejects += 1;
                        assert!(
                            rejects <= self.config.max_global_rejects,
                            "property `{property}`: too many prop_assume! rejections ({rejects})"
                        );
                    }
                    Err(TestCaseError::Fail(msg)) => {
                        panic!(
                            "property `{property}` falsified at case {case} (seed {:#x}, \
                             stream {}; replay with PROPTEST_RNG_SEED={:#x}): {msg}",
                            self.config.seed,
                            stream - 1,
                            self.config.seed,
                        );
                    }
                }
            }
        }
    }
}

pub mod strategy {
    //! Value-generation strategies.

    use rand::rngs::StdRng;
    use rand::Rng;

    /// A recipe for generating values of `Self::Value`.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Draws one value.
        fn generate(&self, rng: &mut StdRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }
    }

    /// Strategy returned by [`Strategy::prop_map`].
    #[derive(Debug, Clone)]
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;

        fn generate(&self, rng: &mut StdRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// Always generates a clone of the wrapped value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;

        fn generate(&self, _rng: &mut StdRng) -> T {
            self.0.clone()
        }
    }

    macro_rules! range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for core::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut StdRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }
            impl Strategy for core::ops::RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut StdRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }
        )*};
    }

    range_strategy!(usize, u64, u32, u16, u8, i64, i32, f64, f32);

    macro_rules! tuple_strategy {
        ($($name:ident),+) => {
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                #[allow(non_snake_case)]
                fn generate(&self, rng: &mut StdRng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.generate(rng),)+)
                }
            }
        };
    }

    tuple_strategy!(A);
    tuple_strategy!(A, B);
    tuple_strategy!(A, B, C);
    tuple_strategy!(A, B, C, D);
    tuple_strategy!(A, B, C, D, E);
    tuple_strategy!(A, B, C, D, E, F);
    tuple_strategy!(A, B, C, D, E, F, G);
    tuple_strategy!(A, B, C, D, E, F, G, H);
    tuple_strategy!(A, B, C, D, E, F, G, H, I);
    tuple_strategy!(A, B, C, D, E, F, G, H, I, J);
    tuple_strategy!(A, B, C, D, E, F, G, H, I, J, K);
    tuple_strategy!(A, B, C, D, E, F, G, H, I, J, K, L);
}

pub mod arbitrary {
    //! `any::<T>()` support.

    use rand::rngs::StdRng;
    use rand::Rng;

    use crate::strategy::Strategy;

    /// Types with a canonical "generate anything" strategy.
    pub trait Arbitrary: Sized {
        /// Draws one arbitrary value.
        fn arbitrary_value(rng: &mut StdRng) -> Self;
    }

    macro_rules! arbitrary_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary_value(rng: &mut StdRng) -> Self {
                    rng.gen_range(<$t>::MIN..=<$t>::MAX)
                }
            }
        )*};
    }

    arbitrary_int!(u8, u16, u32, u64, usize, i32, i64);

    impl Arbitrary for bool {
        fn arbitrary_value(rng: &mut StdRng) -> Self {
            rng.gen_bool(0.5)
        }
    }

    impl Arbitrary for f64 {
        fn arbitrary_value(rng: &mut StdRng) -> Self {
            rng.gen::<f64>()
        }
    }

    /// Strategy generating arbitrary values of `T`.
    #[derive(Debug, Clone, Default)]
    pub struct Any<T>(core::marker::PhantomData<T>);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;

        fn generate(&self, rng: &mut StdRng) -> T {
            T::arbitrary_value(rng)
        }
    }

    /// The canonical strategy for `T` (uniform over its domain).
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(core::marker::PhantomData)
    }
}

pub mod collection {
    //! Collection strategies.

    use rand::rngs::StdRng;
    use rand::Rng;

    use crate::strategy::Strategy;

    /// A size specification for generated collections.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        /// Inclusive lower bound.
        pub min: usize,
        /// Inclusive upper bound.
        pub max: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            Self { min: n, max: n }
        }
    }

    impl From<core::ops::Range<usize>> for SizeRange {
        fn from(r: core::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            Self {
                min: r.start,
                max: r.end - 1,
            }
        }
    }

    impl From<core::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: core::ops::RangeInclusive<usize>) -> Self {
            Self {
                min: *r.start(),
                max: *r.end(),
            }
        }
    }

    /// Strategy generating `Vec`s of an element strategy.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut StdRng) -> Self::Value {
            let len = rng.gen_range(self.size.min..=self.size.max);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// Generates vectors whose length falls in `size`, with elements drawn
    /// from `element`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }
}

/// Fails the current case with a formatted message unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)));
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::Fail(
                format!($($fmt)+),
            ));
        }
    };
}

/// Fails the current case unless `left == right`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l == r, "assertion failed: {:?} != {:?}", l, r);
    }};
}

/// Rejects the current case (it is re-drawn, not counted) unless `cond`.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::Reject);
        }
    };
}

/// Declares property tests: each `fn name(pat in strategy, ...) { body }`
/// becomes a `#[test]` that runs the configured number of random cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! {
            ($crate::test_runner::ProptestConfig::default()) $($rest)*
        }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (($cfg:expr)) => {};
    (($cfg:expr)
     $(#[$meta:meta])*
     fn $name:ident ( $($pat:pat in $strat:expr),+ $(,)? ) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::test_runner::ProptestConfig = $cfg;
            let mut runner = $crate::test_runner::TestRunner::new(config);
            runner.run_cases(stringify!($name), |__proptest_rng| {
                let ($($pat,)+) = $crate::strategy::Strategy::generate(
                    &($($strat,)+),
                    __proptest_rng,
                );
                $body
                ::core::result::Result::Ok(())
            });
        }
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
}

pub mod prelude {
    //! The glob-import surface: `use proptest::prelude::*;`.

    pub use crate::arbitrary::{any, Arbitrary};
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assume, proptest};

    /// Namespace mirror of upstream's `prop` module tree.
    pub mod prop {
        pub use crate::collection;
        pub use crate::strategy;
    }
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_respect_bounds(x in 1usize..10, y in 0.5f64..2.0) {
            prop_assert!((1..10).contains(&x));
            prop_assert!((0.5..2.0).contains(&y), "y out of range: {y}");
        }

        #[test]
        fn map_and_vec_compose(
            v in prop::collection::vec((0u32..5, 1usize..=3), 0..8),
            (a, _b) in (any::<u16>(), 2i64..=3).prop_map(|(a, b)| (a, b * 2)),
        ) {
            prop_assert!(v.len() < 8);
            prop_assume!(a != 1);
            for (x, y) in v {
                prop_assert!(x < 5 && (1..=3).contains(&y));
            }
        }
    }

    #[test]
    fn overrides_replace_cases_and_seed() {
        use crate::test_runner::{with_overrides, TestRunner};
        let runs = |cases: Option<&str>, seed: Option<&str>| {
            let var = |name: &str| match name {
                "PROPTEST_CASES" => cases.map(str::to_string),
                "PROPTEST_RNG_SEED" => seed.map(str::to_string),
                _ => None,
            };
            let config = with_overrides(ProptestConfig::with_cases(4), var);
            let mut drawn = Vec::new();
            TestRunner { config }.run_cases("drawn", |rng| {
                drawn.push(any::<u64>().generate(rng));
                Ok(())
            });
            drawn
        };
        let default = runs(None, None);
        assert_eq!(default.len(), 4);
        assert_eq!(runs(Some("9"), None).len(), 9);
        assert_eq!(runs(None, Some("0x9E3779B97F4A7C15")), default);
        assert_ne!(runs(None, Some("7")), default);
        assert_eq!(runs(None, Some("7")), runs(None, Some("0x7")));
    }

    #[test]
    #[should_panic(expected = "replay with PROPTEST_RNG_SEED=0x")]
    fn failing_property_prints_its_seed() {
        let mut runner = crate::test_runner::TestRunner::new(ProptestConfig::with_cases(4));
        runner.run_cases("always_fails", |_rng| {
            Err(crate::test_runner::TestCaseError::Fail("nope".into()))
        });
    }

    #[test]
    #[should_panic(expected = "falsified")]
    fn failing_property_panics() {
        let mut runner = crate::test_runner::TestRunner::new(ProptestConfig::with_cases(4));
        runner.run_cases("always_fails", |_rng| {
            Err(crate::test_runner::TestCaseError::Fail("nope".into()))
        });
    }
}
