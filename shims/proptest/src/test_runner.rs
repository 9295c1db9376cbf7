//! Deterministic property-test runner.

use rand::{splitmix64, SeedableRng};

use crate::strategy::TestRng;

/// Non-success outcome of one generated case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TestCaseError {
    /// The case does not satisfy an assumption; draw another one.
    Reject(String),
    /// The property is violated for this case.
    Fail(String),
}

impl TestCaseError {
    /// Builds a [`TestCaseError::Fail`].
    pub fn fail(reason: impl Into<String>) -> Self {
        TestCaseError::Fail(reason.into())
    }

    /// Builds a [`TestCaseError::Reject`].
    pub fn reject(reason: impl Into<String>) -> Self {
        TestCaseError::Reject(reason.into())
    }
}

impl std::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TestCaseError::Reject(reason) => write!(f, "rejected: {reason}"),
            TestCaseError::Fail(reason) => write!(f, "failed: {reason}"),
        }
    }
}

/// Runner configuration; mirrors the fields this workspace sets.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of successful cases required for the test to pass.
    pub cases: u32,
    /// Maximum rejected draws (via `prop_assume!`) before giving up.
    pub max_global_rejects: u32,
}

impl ProptestConfig {
    /// Config running `cases` successful cases, or `PROPTEST_CASES` if
    /// that is larger: the variable widens a pinned sweep and never
    /// narrows it.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig {
            cases: widened(cases, env_cases()),
            ..ProptestConfig::default()
        }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig {
            cases: env_cases().unwrap_or(256),
            max_global_rejects: 1024,
        }
    }
}

/// The case count `PROPTEST_CASES` asks for, if set and numeric.
fn env_cases() -> Option<u32> {
    std::env::var("PROPTEST_CASES").ok()?.parse().ok()
}

/// A pinned case count raised (never lowered) to the requested one.
fn widened(pinned: u32, requested: Option<u32>) -> u32 {
    requested.map_or(pinned, |requested| pinned.max(requested))
}

/// Derives the per-test RNG seed from the test name, so a given build
/// always explores the same cases for the same test.
fn seed_for(name: &str) -> u64 {
    let mut state: u64 = 0x9e37_79b9_7f4a_7c15;
    for &byte in name.as_bytes() {
        state ^= u64::from(byte);
        state = splitmix64(&mut state);
    }
    splitmix64(&mut state)
}

/// Runs `case` until `config.cases` successes, a failure, or the reject
/// budget is exhausted. `case` returns the case's `Debug` description
/// plus its outcome; on failure the runner panics with both, which is
/// how a failing property surfaces through `cargo test`.
pub fn run(
    config: &ProptestConfig,
    name: &str,
    mut case: impl FnMut(&mut TestRng) -> (String, Result<(), TestCaseError>),
) {
    let seed = seed_for(name);
    let mut rng = TestRng::seed_from_u64(seed);
    let mut successes: u32 = 0;
    let mut rejects: u32 = 0;
    let mut attempt: u64 = 0;
    while successes < config.cases {
        attempt += 1;
        let (described, outcome) = case(&mut rng);
        match outcome {
            Ok(()) => successes += 1,
            Err(TestCaseError::Reject(_)) => {
                rejects += 1;
                assert!(
                    rejects <= config.max_global_rejects,
                    "proptest '{name}': too many rejected cases \
                     ({rejects} rejects for {successes} successes; seed {seed:#x})"
                );
            }
            Err(TestCaseError::Fail(reason)) => panic!(
                "proptest '{name}' failed at case {attempt} (seed {seed:#x}):\n\
                 {reason}\n  inputs: {described}"
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_differ_by_name() {
        assert_ne!(seed_for("alpha"), seed_for("beta"));
        assert_eq!(seed_for("alpha"), seed_for("alpha"));
    }

    #[test]
    fn env_cases_raise_a_pinned_count_and_never_lower_it() {
        assert_eq!(widened(12, None), 12);
        assert_eq!(widened(12, Some(96)), 96);
        assert_eq!(widened(48, Some(5)), 48);
    }

    #[test]
    fn runs_requested_cases() {
        let mut count = 0;
        run(&ProptestConfig::with_cases(17), "count", |_rng| {
            count += 1;
            (String::new(), Ok(()))
        });
        assert_eq!(count, 17);
    }

    #[test]
    #[should_panic(expected = "too many rejected cases")]
    fn reject_budget_enforced() {
        run(&ProptestConfig::with_cases(1), "always_reject", |_rng| {
            (String::new(), Err(TestCaseError::reject("nope")))
        });
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn failure_panics_with_reason() {
        run(&ProptestConfig::with_cases(4), "boom_test", |_rng| {
            ("x = 1".into(), Err(TestCaseError::fail("boom")))
        });
    }
}
