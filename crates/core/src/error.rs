//! Workflow-level error type.

use std::fmt;

/// Error raised while building, validating, linting or enacting a
/// workflow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MoteurError {
    /// A free-form build/enactment failure.
    Message(String),
    /// The static analyzer refused the workflow: `errors` diagnostics of
    /// error severity were reported (see [`crate::lint`]). The rendered
    /// report travels in `summary` so callers without the full
    /// [`crate::lint::LintReport`] can still show something actionable.
    Lint { errors: usize, summary: String },
}

impl MoteurError {
    pub fn new(message: impl Into<String>) -> Self {
        MoteurError::Message(message.into())
    }

    /// A lint rejection carrying the error count and a one-line summary.
    pub fn lint(errors: usize, summary: impl Into<String>) -> Self {
        MoteurError::Lint {
            errors,
            summary: summary.into(),
        }
    }

    /// The human-readable payload, whichever variant.
    pub fn message(&self) -> &str {
        match self {
            MoteurError::Message(m) => m,
            MoteurError::Lint { summary, .. } => summary,
        }
    }

    /// True when this is a static-analysis rejection rather than a
    /// build/run failure.
    pub fn is_lint(&self) -> bool {
        matches!(self, MoteurError::Lint { .. })
    }
}

impl fmt::Display for MoteurError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MoteurError::Message(m) => write!(f, "moteur error: {m}"),
            MoteurError::Lint { errors, summary } => {
                write!(f, "moteur lint: {errors} error(s): {summary}")
            }
        }
    }
}

impl std::error::Error for MoteurError {}

impl From<moteur_wrapper::WrapperError> for MoteurError {
    fn from(e: moteur_wrapper::WrapperError) -> Self {
        MoteurError::new(e.to_string())
    }
}

/// A binding fault carries the enactor's own message; a malformed
/// command line is a wrapper error.
impl From<moteur_wrapper::FillError> for MoteurError {
    fn from(e: moteur_wrapper::FillError) -> Self {
        match e {
            moteur_wrapper::FillError::Bind(message) => MoteurError::new(message),
            moteur_wrapper::FillError::Plan(e) => e.into(),
        }
    }
}

// `MoteurError` stays `Clone + Eq`, so the I/O error is captured as its
// rendered message rather than stored as a payload.
impl From<std::io::Error> for MoteurError {
    fn from(e: std::io::Error) -> Self {
        MoteurError::new(format!("i/o error: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_conversion() {
        assert_eq!(MoteurError::new("x").to_string(), "moteur error: x");
        let w = moteur_wrapper::WrapperError::new("inner");
        let m: MoteurError = w.into();
        assert!(m.message().contains("inner"));
        assert!(!m.is_lint());
    }

    #[test]
    fn lint_variant_carries_count_and_summary() {
        let e = MoteurError::lint(3, "dangling links");
        assert!(e.is_lint());
        assert_eq!(e.message(), "dangling links");
        assert_eq!(e.to_string(), "moteur lint: 3 error(s): dangling links");
    }
}
