//! Storage-backend selection for tuning deployments.
//!
//! The advisor itself is backend-agnostic — it sees a
//! [`Database`] and never asks where the bytes live. What *does* differ
//! per deployment is how the production instance is provisioned: purely
//! in-memory (benchmarks, unit tests, MyShadow clones) or on the
//! disk-backed pager engine (WAL, buffer pool, crash recovery). A
//! [`BackendSpec`] captures that choice declaratively so it can be parsed
//! off a CLI flag and provisioned where a deployment opens its database.

use aim_storage::{Database, PagerOptions, StorageError};
use std::fmt;
use std::path::PathBuf;

/// Declarative choice of storage backend for the production database.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum BackendSpec {
    /// Pure in-memory engine: no durability, fastest, the default.
    #[default]
    Memory,
    /// Disk-backed engine rooted at `dir`: paged heap + B+-trees behind a
    /// buffer pool of `pool_frames` 16 KiB frames, WAL-protected with an
    /// automatic checkpoint once the log passes
    /// `wal_autocheckpoint_bytes`. Zero values mean "pager default".
    Disk {
        dir: PathBuf,
        pool_frames: usize,
        wal_autocheckpoint_bytes: u64,
    },
}

impl BackendSpec {
    /// Disk spec with default pager tuning.
    pub fn disk(dir: impl Into<PathBuf>) -> Self {
        BackendSpec::Disk {
            dir: dir.into(),
            pool_frames: 0,
            wal_autocheckpoint_bytes: 0,
        }
    }

    /// Parses a CLI-style spec: `mem` | `memory` | `disk:PATH`.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "mem" | "memory" => Ok(BackendSpec::Memory),
            _ => match s.strip_prefix("disk:") {
                Some(path) if !path.is_empty() => Ok(BackendSpec::disk(path)),
                _ => Err(format!(
                    "invalid backend spec {s:?}: expected \"mem\" or \"disk:PATH\""
                )),
            },
        }
    }

    /// Opens (or creates) a database on this backend. For
    /// [`BackendSpec::Disk`] this runs WAL recovery and loads the working
    /// set; see [`Database::open_disk`].
    pub fn provision(&self) -> Result<Database, StorageError> {
        match self {
            BackendSpec::Memory => Ok(Database::new()),
            BackendSpec::Disk {
                dir,
                pool_frames,
                wal_autocheckpoint_bytes,
            } => {
                let defaults = PagerOptions::default();
                let opts = PagerOptions {
                    pool_frames: if *pool_frames == 0 {
                        defaults.pool_frames
                    } else {
                        *pool_frames
                    },
                    wal_autocheckpoint_bytes: if *wal_autocheckpoint_bytes == 0 {
                        defaults.wal_autocheckpoint_bytes
                    } else {
                        *wal_autocheckpoint_bytes
                    },
                };
                Database::open_disk(dir, opts)
            }
        }
    }
}

impl fmt::Display for BackendSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BackendSpec::Memory => write!(f, "mem"),
            BackendSpec::Disk { dir, .. } => write!(f, "disk:{}", dir.display()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_mem_and_disk() {
        assert_eq!(BackendSpec::parse("mem").unwrap(), BackendSpec::Memory);
        assert_eq!(BackendSpec::parse("memory").unwrap(), BackendSpec::Memory);
        let disk = BackendSpec::parse("disk:/tmp/x").unwrap();
        assert_eq!(disk, BackendSpec::disk("/tmp/x"));
        assert_eq!(disk.to_string(), "disk:/tmp/x");
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(BackendSpec::parse("disk:").is_err());
        assert!(BackendSpec::parse("floppy:/a").is_err());
    }

    #[test]
    fn memory_provision_is_empty_database() {
        let db = BackendSpec::Memory.provision().unwrap();
        assert_eq!(db.backend_kind(), aim_storage::BackendKind::Memory);
        assert_eq!(db.tables().count(), 0);
    }

    #[test]
    fn disk_provision_round_trips() {
        use aim_storage::{ColumnDef, ColumnType, IoStats, TableSchema, Value};
        let dir = std::env::temp_dir().join(format!("aim-backendspec-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spec = BackendSpec::disk(&dir);
        {
            let mut db = spec.provision().unwrap();
            assert_eq!(db.backend_kind(), aim_storage::BackendKind::Disk);
            db.create_table(
                TableSchema::new("t", vec![ColumnDef::new("id", ColumnType::Int)], &["id"])
                    .unwrap(),
            )
            .unwrap();
            let mut io = IoStats::new();
            db.table_mut("t")
                .unwrap()
                .insert(vec![Value::Int(7)], &mut io)
                .unwrap();
        }
        let db = spec.provision().unwrap();
        assert_eq!(db.table("t").unwrap().row_count(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
