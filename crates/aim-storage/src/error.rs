//! Storage-layer error type.

use std::fmt;

/// Errors produced by the storage engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// Schema construction failed (empty PK, duplicate columns, ...).
    InvalidSchema(String),
    UnknownTable(String),
    UnknownColumn {
        table: String,
        column: String,
    },
    UnknownIndex {
        table: String,
        index: String,
    },
    DuplicateTable(String),
    DuplicateIndex {
        table: String,
        index: String,
    },
    /// Primary-key or unique-index violation.
    DuplicateKey {
        table: String,
        key: String,
    },
    /// Row arity or value type does not match the schema.
    RowMismatch(String),
    /// A fault injected by an armed [`crate::fault::FaultPlan`] (chaos
    /// testing); `site` names the instrumented operation that failed.
    FaultInjected {
        site: String,
    },
    /// An operating-system I/O failure from the disk backend (open, read,
    /// write, fsync). Not retryable: the pager cannot know whether the
    /// kernel persisted anything.
    Io(String),
    /// On-disk corruption detected by the disk backend: a page whose
    /// checksum does not match its payload (torn write), a malformed WAL
    /// record, or an undecodable catalog. Never retryable.
    Corrupt {
        detail: String,
    },
}

impl StorageError {
    /// True for errors produced by the fault-injection layer. Injected
    /// faults model transient infrastructure failures and are the only
    /// storage errors worth retrying.
    pub fn is_injected(&self) -> bool {
        matches!(self, StorageError::FaultInjected { .. })
    }
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::InvalidSchema(msg) => write!(f, "invalid schema: {msg}"),
            StorageError::UnknownTable(t) => write!(f, "unknown table {t}"),
            StorageError::UnknownColumn { table, column } => {
                write!(f, "unknown column {table}.{column}")
            }
            StorageError::UnknownIndex { table, index } => {
                write!(f, "unknown index {index} on {table}")
            }
            StorageError::DuplicateTable(t) => write!(f, "table {t} already exists"),
            StorageError::DuplicateIndex { table, index } => {
                write!(f, "index {index} already exists on {table}")
            }
            StorageError::DuplicateKey { table, key } => {
                write!(f, "duplicate key {key} in table {table}")
            }
            StorageError::RowMismatch(msg) => write!(f, "row mismatch: {msg}"),
            StorageError::FaultInjected { site } => {
                write!(f, "injected fault at {site}")
            }
            StorageError::Io(msg) => write!(f, "storage I/O error: {msg}"),
            StorageError::Corrupt { detail } => {
                write!(f, "storage corruption: {detail}")
            }
        }
    }
}

impl std::error::Error for StorageError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert_eq!(
            StorageError::UnknownTable("t".into()).to_string(),
            "unknown table t"
        );
        assert_eq!(
            StorageError::UnknownColumn {
                table: "t".into(),
                column: "c".into()
            }
            .to_string(),
            "unknown column t.c"
        );
    }
}
