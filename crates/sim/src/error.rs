//! The workspace error type.
//!
//! Every public constructor and runner across the workspace validates its
//! inputs and reports violations as a [`V10Error`] instead of panicking, so
//! embedding crates (benches, sweep drivers) can surface bad configurations
//! without tearing down the process. Internal invariant violations
//! (programmer errors) remain `debug_assert!`s.

use std::fmt;

/// Errors produced at the workspace's public boundaries.
#[derive(Debug)]
#[non_exhaustive]
pub enum V10Error {
    /// A constructor or runner was handed an invalid argument.
    InvalidArgument {
        /// Which API rejected the value (e.g. `"RunOptions::new"`).
        context: &'static str,
        /// Human-readable description of the violation.
        message: String,
    },
    /// The simulation reached a state with no pending events: every
    /// workload is stuck and the clock cannot advance.
    Deadlock {
        /// Simulated cycle at which the engine stalled.
        cycle: f64,
        /// Diagnostic detail (workload count, pending state).
        message: String,
    },
    /// The simulation clock stopped advancing: thousands of consecutive
    /// zero-length steps without discrete progress.
    Livelock {
        /// Simulated cycle at which the engine spun in place.
        cycle: f64,
    },
}

impl V10Error {
    /// Convenience constructor for [`V10Error::InvalidArgument`].
    #[must_use]
    pub fn invalid(context: &'static str, message: impl Into<String>) -> Self {
        V10Error::InvalidArgument {
            context,
            message: message.into(),
        }
    }
}

impl fmt::Display for V10Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            V10Error::InvalidArgument { context, message } => {
                write!(f, "{context}: {message}")
            }
            V10Error::Deadlock { cycle, message } => {
                write!(f, "engine deadlock at cycle {cycle}: {message}")
            }
            V10Error::Livelock { cycle } => write!(f, "engine livelock at cycle {cycle}"),
        }
    }
}

impl std::error::Error for V10Error {}

/// Shorthand result type used across the workspace.
pub type V10Result<T> = Result<T, V10Error>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_context() {
        let e = V10Error::invalid("RunOptions::new", "need at least one request");
        assert_eq!(e.to_string(), "RunOptions::new: need at least one request");
    }

    #[test]
    fn deadlock_and_livelock_name_the_cycle() {
        let d = V10Error::Deadlock {
            cycle: 42.0,
            message: "no pending events".into(),
        };
        assert!(d.to_string().contains("deadlock at cycle 42"));
        let l = V10Error::Livelock { cycle: 7.0 };
        assert!(l.to_string().contains("livelock at cycle 7"));
    }
}
