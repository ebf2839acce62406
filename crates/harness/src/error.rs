//! Harness errors.

use jmst_store::trace::Trace;
use std::fmt;

/// An error raised while running tests.
#[derive(Debug)]
#[non_exhaustive]
pub enum HarnessError {
    /// The test specification is malformed.
    InvalidSpec(String),
    /// A crash plan was given but no broker admin hook.
    MissingAdmin,
    /// A driver controller failed to terminate; the partial trace is
    /// preserved so the run can still be reported.
    TestHung {
        /// Which driver group hung.
        stage: &'static str,
        /// Everything logged before the run was abandoned.
        partial_trace: Box<Trace>,
    },
    /// A driver exhausted its retry budget (or died), so the run cannot
    /// support a verdict either way; the salvaged trace is preserved for
    /// a best-effort analysis.
    Inconclusive {
        /// Why the run was abandoned.
        reason: String,
        /// Everything logged before the run was abandoned.
        partial_trace: Box<Trace>,
    },
}

impl fmt::Display for HarnessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HarnessError::InvalidSpec(reason) => write!(f, "invalid test spec: {reason}"),
            HarnessError::MissingAdmin => f.write_str("crash plan requires a broker admin hook"),
            HarnessError::TestHung { stage, .. } => {
                write!(f, "test hung while waiting for {stage}")
            }
            HarnessError::Inconclusive { reason, .. } => {
                write!(f, "test inconclusive: {reason}")
            }
        }
    }
}

impl std::error::Error for HarnessError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays() {
        assert!(HarnessError::InvalidSpec("x".into())
            .to_string()
            .contains("invalid test spec"));
        assert!(HarnessError::MissingAdmin
            .to_string()
            .contains("crash plan"));
        let hung = HarnessError::TestHung {
            stage: "consumers",
            partial_trace: Box::new(Trace::new()),
        };
        assert!(hung.to_string().contains("consumers"));
        let inconclusive = HarnessError::Inconclusive {
            reason: "producer 1001: retry budget of 64 exhausted".into(),
            partial_trace: Box::new(Trace::new()),
        };
        assert!(inconclusive.to_string().contains("inconclusive"));
        assert!(inconclusive.to_string().contains("budget"));
    }
}
