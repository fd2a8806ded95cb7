//! Strict-invariant support: checked-accounting assertions.
//!
//! The simulator's accounting structures (allocators, MSHR tables, cycle
//! counters) maintain invariants that, when silently broken, corrupt results
//! rather than crash. This module gates a layer of assertions that verify
//! those invariants after every mutation. The checks are compiled in when
//! either `debug_assertions` is on (any `cargo test` / dev build) or the
//! `strict-invariants` cargo feature is enabled, which lets release-mode
//! experiment sweeps opt into checked accounting:
//!
//! ```text
//! cargo run --release --features strict-invariants ...
//! ```
//!
//! In a plain release build the [`enabled`] predicate is `const false`, so
//! every `strict_assert!` body is removed by the optimizer.

/// Whether strict-invariant checks are compiled into this build.
#[must_use]
pub const fn enabled() -> bool {
    cfg!(any(debug_assertions, feature = "strict-invariants"))
}

/// Asserts a simulator invariant when strict checks are compiled in (see
/// [`enabled`]); a no-op in plain release builds.
///
/// Takes the same arguments as [`assert!`].
#[macro_export]
macro_rules! strict_assert {
    ($($arg:tt)*) => {
        if $crate::invariant::enabled() {
            assert!($($arg)*);
        }
    };
}

#[cfg(test)]
mod tests {
    #[cfg(any(debug_assertions, feature = "strict-invariants"))]
    #[test]
    fn enabled_in_test_builds() {
        assert!(super::enabled());
    }

    #[cfg(not(any(debug_assertions, feature = "strict-invariants")))]
    #[test]
    fn disabled_in_plain_release_builds() {
        assert!(!super::enabled());
    }

    #[test]
    fn passing_assertion_is_silent() {
        strict_assert!(1 + 1 == 2, "arithmetic holds");
    }

    #[cfg(any(debug_assertions, feature = "strict-invariants"))]
    #[test]
    #[should_panic(expected = "deliberate")]
    fn failing_assertion_panics_when_enabled() {
        strict_assert!(false, "deliberate");
    }

    #[cfg(not(any(debug_assertions, feature = "strict-invariants")))]
    #[test]
    fn failing_assertion_is_a_no_op_when_disabled() {
        strict_assert!(false, "deliberate");
    }
}
