//! Offline stand-in for the `proptest` crate.
//!
//! The build container has no registry access, so this shim implements the
//! subset of proptest the workspace's tests use: the [`proptest!`] macro over
//! named strategies, range and tuple strategies, [`strategy::Strategy::prop_map`],
//! `prop::collection::vec`, [`test_runner::ProptestConfig::with_cases`], and
//! the `prop_assert*` / `prop_assume` macros. Cases are generated from a
//! deterministic per-test RNG (seeded by the test's module path and name), so
//! failures are reproducible run to run. There is no shrinking: a failing
//! case panics with the sampled inputs' debug representation instead. Swap
//! the path dependency for the real crate when network access exists.

pub mod collection;
pub mod strategy;
pub mod test_runner;

/// Mirror of proptest's prelude.
pub mod prelude {
    pub use crate as prop;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};
}

/// Strategies: how test inputs are sampled.
pub mod strategy_impls {}

/// Defines property tests: each `fn name(arg in strategy, ..) { body }` item
/// becomes a `#[test]` running `cases` sampled inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { ($crate::test_runner::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (($cfg:expr)) => {};
    (($cfg:expr)
     $(#[$meta:meta])*
     fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::test_runner::ProptestConfig = $cfg;
            let mut rng = $crate::test_runner::TestRng::deterministic(
                concat!(module_path!(), "::", stringify!($name)),
            );
            let mut accepted: u32 = 0;
            let mut attempts: u32 = 0;
            while accepted < config.cases {
                attempts += 1;
                assert!(
                    attempts <= config.cases.saturating_mul(20).saturating_add(100),
                    "{}: too many rejected cases ({} accepted of {} wanted)",
                    stringify!($name),
                    accepted,
                    config.cases
                );
                $(let $arg = $crate::strategy::Strategy::sample(&$strat, &mut rng);)+
                #[allow(clippy::redundant_closure_call)]
                let outcome = (|| -> ::std::result::Result<(), $crate::test_runner::TestCaseError> {
                    $body
                    #[allow(unreachable_code)]
                    Ok(())
                })();
                match outcome {
                    Ok(()) => accepted += 1,
                    Err($crate::test_runner::TestCaseError::Reject) => {}
                }
            }
        }
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
}

/// Assert inside a property test (panics with the formatted message).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)+) => { assert!($cond, $($fmt)+) };
}

/// Equality assert inside a property test.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => { assert_eq!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)+) => { assert_eq!($a, $b, $($fmt)+) };
}

/// Inequality assert inside a property test.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => { assert_ne!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)+) => { assert_ne!($a, $b, $($fmt)+) };
}

/// Discard the current case unless the precondition holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Reject);
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        $crate::prop_assume!($cond)
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_stay_in_bounds(x in 3usize..9, y in 0.25f64..0.75, z in 1u64..=4) {
            prop_assert!((3..9).contains(&x));
            prop_assert!((0.25..0.75).contains(&y), "y = {}", y);
            prop_assert!((1..=4).contains(&z));
        }

        #[test]
        fn tuples_and_map_compose(v in (1usize..4, 0u64..10).prop_map(|(a, b)| a as u64 + b)) {
            prop_assert!(v <= 12);
        }

        #[test]
        fn collections_sample_lengths(v in prop::collection::vec(0u32..5, 2..6)) {
            prop_assert!((2..6).contains(&v.len()));
            prop_assert!(v.iter().all(|&x| x < 5));
        }

        #[test]
        fn assume_rejects_without_failing(n in 0usize..10) {
            prop_assume!(n % 2 == 0);
            prop_assert_eq!(n % 2, 0);
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let mut a = crate::test_runner::TestRng::deterministic("same-name");
        let mut b = crate::test_runner::TestRng::deterministic("same-name");
        assert_eq!(a.next_u64(), b.next_u64());
    }
}
