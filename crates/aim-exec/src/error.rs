//! Execution-layer error type.

use aim_storage::StorageError;
use std::fmt;

/// Errors produced while binding, planning or executing a statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// Underlying storage failure.
    Storage(StorageError),
    /// Name resolution failure (unknown table binding / ambiguous column).
    Binding(String),
    /// Statement shape the engine does not support.
    Unsupported(String),
    /// Runtime evaluation failure (type mismatch etc.).
    Eval(String),
    /// A fault injected at an execution-layer site by an armed
    /// [`aim_storage::FaultPlan`] (chaos testing).
    FaultInjected { site: String },
}

impl ExecError {
    /// True for errors produced by the fault-injection layer, at either
    /// the storage or the execution layer. Injected faults model transient
    /// infrastructure failures: a tuning pass aborts on one and the next
    /// pass tries again, while every other `ExecError` is deterministic and
    /// trying again is futile.
    pub fn is_injected(&self) -> bool {
        match self {
            ExecError::FaultInjected { .. } => true,
            ExecError::Storage(e) => e.is_injected(),
            _ => false,
        }
    }
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Storage(e) => write!(f, "storage error: {e}"),
            ExecError::Binding(msg) => write!(f, "binding error: {msg}"),
            ExecError::Unsupported(msg) => write!(f, "unsupported: {msg}"),
            ExecError::Eval(msg) => write!(f, "evaluation error: {msg}"),
            ExecError::FaultInjected { site } => write!(f, "injected fault at {site}"),
        }
    }
}

impl std::error::Error for ExecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExecError::Storage(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StorageError> for ExecError {
    fn from(e: StorageError) -> Self {
        ExecError::Storage(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storage_error_converts_and_sources() {
        let e: ExecError = StorageError::UnknownTable("t".into()).into();
        assert!(matches!(e, ExecError::Storage(_)));
        assert!(std::error::Error::source(&e).is_some());
    }
}
