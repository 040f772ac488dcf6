//! The unified advisor error type.
//!
//! Everything a tuning pass can fail with is an [`AimError`], tagged with
//! the pipeline phase that failed. The variants split along the one
//! distinction the session cares about: an injected fault
//! ([`AimError::Fault`] — produced by the fault-injection layer, modelling
//! infrastructure hiccups) aborts the pass, which the caller's next pass
//! retries, while a deterministic error inside a phase keeps its fallback
//! there (one candidate rejected, one observation dropped).

use aim_exec::ExecError;
use aim_storage::StorageError;
use std::fmt;

/// Why a tuning pass (or one of its phases) failed.
#[non_exhaustive]
#[derive(Debug, Clone)]
pub enum AimError {
    /// A deterministic execution-layer failure surfaced by a phase.
    Exec {
        /// Pipeline phase that failed (`"ranking"`, `"validation"`, ...).
        phase: &'static str,
        source: ExecError,
    },
    /// An injected fault aborted the pass; any indexes materialized by the
    /// aborted pass have been rolled back.
    Fault {
        phase: &'static str,
        /// Operation site that failed, e.g. `"storage.clone"`.
        site: String,
    },
    /// The pass's deadline expired; any indexes materialized by the
    /// aborted pass have been rolled back.
    DeadlineExceeded { phase: &'static str },
    /// The pass was cancelled via its [`CancelToken`](crate::CancelToken);
    /// any indexes materialized by the aborted pass have been rolled back.
    Cancelled { phase: &'static str },
}

impl AimError {
    /// Classifies an execution-layer error surfaced by `phase`: injected
    /// faults become [`AimError::Fault`], everything else is an
    /// [`AimError::Exec`].
    pub fn from_exec(phase: &'static str, e: ExecError) -> Self {
        match e {
            ExecError::FaultInjected { site } => AimError::Fault { phase, site },
            ExecError::Storage(StorageError::FaultInjected { site }) => {
                AimError::Fault { phase, site }
            }
            source => AimError::Exec { phase, source },
        }
    }

    /// The pipeline phase the error is attributed to.
    pub fn phase(&self) -> &'static str {
        match self {
            AimError::Exec { phase, .. }
            | AimError::Fault { phase, .. }
            | AimError::DeadlineExceeded { phase }
            | AimError::Cancelled { phase } => phase,
        }
    }

    /// Lossy mapping back to the execution-layer error, for code paths
    /// (e.g. validation replay) that report through [`ExecError`].
    /// Deadline/cancel aborts degrade to [`ExecError::Eval`].
    pub fn into_exec(self) -> ExecError {
        match self {
            AimError::Exec { source, .. } => source,
            AimError::Fault { site, .. } => ExecError::FaultInjected { site },
            other => ExecError::Eval(other.to_string()),
        }
    }
}

impl fmt::Display for AimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AimError::Exec { phase, source } => write!(f, "{phase} failed: {source}"),
            AimError::Fault { phase, site } => {
                write!(f, "{phase} failed: injected fault at {site}")
            }
            AimError::DeadlineExceeded { phase } => {
                write!(f, "deadline exceeded during {phase}")
            }
            AimError::Cancelled { phase } => write!(f, "cancelled during {phase}"),
        }
    }
}

impl std::error::Error for AimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AimError::Exec { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<ExecError> for AimError {
    fn from(e: ExecError) -> Self {
        AimError::from_exec("exec", e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn injected_errors_classify_as_retryable_fault() {
        let e = AimError::from_exec(
            "ranking",
            ExecError::FaultInjected {
                site: "exec.whatif".into(),
            },
        );
        assert!(matches!(e, AimError::Fault { .. }));
        assert_eq!(e.phase(), "ranking");
        let e = AimError::from_exec(
            "validation",
            ExecError::Storage(StorageError::FaultInjected {
                site: "storage.clone".into(),
            }),
        );
        assert!(matches!(&e, AimError::Fault { site, .. } if site == "storage.clone"));
    }

    #[test]
    fn deterministic_errors_are_terminal() {
        let e = AimError::from_exec("ranking", ExecError::Binding("no such column".into()));
        assert!(matches!(e, AimError::Exec { .. }));
        assert!(std::error::Error::source(&e).is_some());
        assert!(matches!(e.into_exec(), ExecError::Binding(_)));
    }

    #[test]
    fn aborts_are_not_retryable() {
        let d = AimError::DeadlineExceeded { phase: "ranking" };
        let c = AimError::Cancelled {
            phase: "materialize",
        };
        assert!(!matches!(d, AimError::Fault { .. }) && !matches!(c, AimError::Fault { .. }));
        assert!(d.to_string().contains("deadline"));
        assert!(matches!(c.into_exec(), ExecError::Eval(_)));
    }
}
