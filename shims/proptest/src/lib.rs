//! Offline stand-in for `proptest`.
//!
//! Implements the subset of the proptest API this workspace uses:
//! the [`proptest!`] macro, `any::<T>()`, range and tuple strategies,
//! [`collection::vec`], `prop_map`, [`sample::Index`], the
//! `prop_assert*` / `prop_assume!` macros, and a deterministic runner.
//!
//! Differences from the real crate, by design:
//!
//! - **No shrinking.** A failing case reports its exact inputs (all
//!   strategies generate `Debug` values) instead of a minimized one.
//! - **Deterministic exploration.** Case generation is seeded from the
//!   test name, so a given build always runs the same cases; set
//!   `PROPTEST_CASES` to widen the sweep. A count pinned with
//!   `ProptestConfig::with_cases(n)` runs `max(n, PROPTEST_CASES)`
//!   cases, so the variable raises it and never lowers it.
//! - `.proptest-regressions` files are not consulted; regressions worth
//!   keeping are pinned as explicit unit tests instead.

#![forbid(unsafe_code)]

pub mod collection;
pub mod sample;
pub mod strategy;
pub mod test_runner;

/// A strategy producing any value of `T` (uniform with edge-case bias).
pub fn any<T: strategy::Arbitrary>() -> strategy::Any<T> {
    strategy::Any::new()
}

/// What `use proptest::prelude::*` is expected to bring in.
pub mod prelude {
    pub use crate as prop;
    pub use crate::any;
    pub use crate::strategy::Strategy;
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};
}

/// Asserts a condition inside a property, failing the case (not
/// panicking) so the runner can report the generated inputs.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::core::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(format!($($fmt)*)),
            );
        }
    };
}

/// `prop_assert!(a == b)` with a diff-style message.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left == *right,
            "assertion failed: `{:?}` == `{:?}`",
            left,
            right
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left == *right,
            "assertion failed: `{:?}` == `{:?}`: {}",
            left,
            right,
            format!($($fmt)*)
        );
    }};
}

/// `prop_assert!(a != b)` with a diff-style message.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left != *right,
            "assertion failed: `{:?}` != `{:?}`",
            left,
            right
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left != *right,
            "assertion failed: `{:?}` != `{:?}`: {}",
            left,
            right,
            format!($($fmt)*)
        );
    }};
}

/// Rejects the current case (it is regenerated, not failed).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::reject(
                concat!("assumption failed: ", stringify!($cond)),
            ));
        }
    };
}

/// Declares property tests. Accepts the same surface grammar as the
/// real crate for `fn name(param in strategy, ...) { body }` items with
/// an optional leading `#![proptest_config(...)]`.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($config); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! {
            ($crate::test_runner::ProptestConfig::default()); $($rest)*
        }
    };
}

/// Internal expansion of [`proptest!`]; not public API.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (($config:expr); $($(#[$attr:meta])* fn $name:ident(
        $($param:ident in $strategy:expr),* $(,)?
    ) $body:block)*) => {$(
        $(#[$attr])*
        fn $name() {
            let config = $config;
            $crate::test_runner::run(&config, stringify!($name), |__rng| {
                $(let $param =
                    $crate::strategy::Strategy::generate(&($strategy), __rng);)*
                let __described: ::std::string::String = [
                    $(format!(concat!(stringify!($param), " = {:?}"), &$param)),*
                ].join(", ");
                let __outcome: ::core::result::Result<
                    (),
                    $crate::test_runner::TestCaseError,
                > = (|| { $body ::core::result::Result::Ok(()) })();
                (__described, __outcome)
            });
        }
    )*};
}
