//! Error types shared across the service crates.

use crate::ids::DocumentId;
use std::fmt;

/// Top-level service error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// The requested document does not exist on the contacted server.
    DocumentNotFound(DocumentId),
    /// An operation was attempted in a state where it is not allowed
    /// (violates the Fig. 4 application state machine).
    InvalidStateTransition {
        /// State the session was in.
        state: String,
        /// Operation that was attempted.
        operation: String,
    },
    /// A scenario failed validation.
    MalformedScenario(String),
    /// Markup parse failure.
    ParseError(String),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::DocumentNotFound(d) => write!(f, "document not found: {d}"),
            ServiceError::InvalidStateTransition { state, operation } => {
                write!(f, "operation '{operation}' invalid in state '{state}'")
            }
            ServiceError::MalformedScenario(m) => write!(f, "malformed scenario: {m}"),
            ServiceError::ParseError(m) => write!(f, "parse error: {m}"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// Convenient result alias.
pub type ServiceResult<T> = Result<T, ServiceError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display() {
        let e = ServiceError::DocumentNotFound(DocumentId::new(4));
        assert_eq!(e.to_string(), "document not found: doc-4");
        let e = ServiceError::InvalidStateTransition {
            state: "Viewing".into(),
            operation: "subscribe".into(),
        };
        assert!(e.to_string().contains("Viewing"));
    }

    #[test]
    fn error_is_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&ServiceError::ParseError(String::new()));
    }
}
