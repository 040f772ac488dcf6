//! In-memory relational storage engine for the AIM reproduction.
//!
//! This crate is the substrate the paper assumes a DBMS provides:
//!
//! * typed [`value::Value`]s with B+-tree key ordering,
//! * clustered-primary-key [`table::Table`]s with composite
//!   [`index::SecondaryIndex`]es (InnoDB layout: secondary entries carry the
//!   PK as suffix),
//! * per-column [`stats`] (NDV, equi-depth histograms) powering selectivity
//!   estimation and *dataless indexes*,
//! * physical [`io`] accounting (pages, seeks, rows) from which simulated
//!   CPU cost is derived, and
//! * a cloneable [`database::Database`] catalog — cloning stands in for the
//!   paper's MyShadow test-environment provider.
//!
//! # Example
//!
//! ```
//! use aim_storage::{
//!     Database, TableSchema, ColumnDef, ColumnType, IndexDef, IoStats, Value,
//! };
//!
//! let mut db = Database::new();
//! db.create_table(TableSchema::new(
//!     "students",
//!     vec![
//!         ColumnDef::new("id", ColumnType::Int),
//!         ColumnDef::new("score", ColumnType::Int),
//!     ],
//!     &["id"],
//! ).unwrap()).unwrap();
//!
//! let mut io = IoStats::new();
//! for i in 0..100 {
//!     db.table_mut("students").unwrap()
//!         .insert(vec![Value::Int(i), Value::Int(i % 10)], &mut io)
//!         .unwrap();
//! }
//! db.create_index(IndexDef::new("ix_score", "students", vec!["score".into()]), &mut io).unwrap();
//! db.analyze_all();
//! assert_eq!(db.stats("students").unwrap().column("score").unwrap().ndv, 10);
//! ```

pub mod backend;
pub mod btree_page;
pub mod codec;
pub mod database;
pub mod error;
pub mod fault;
pub mod heap;
pub mod index;
pub mod io;
pub mod pager;
pub mod schema;
pub mod stats;
pub mod table;
pub mod value;

pub use backend::{
    memory_backend, BackendKind, DiskBackend, LoadedTable, MemoryBackend, StorageBackend,
    StorageCounters, TaggedEntry,
};
pub use database::Database;
pub use error::StorageError;
pub use pager::{Pager, PagerOptions};
pub use fault::{FaultKind, FaultPlan, FaultRule, Injection};
pub use index::SecondaryIndex;
pub use io::{pages_for, IoStats, PAGE_SIZE};
pub use schema::{ColumnDef, ColumnType, IndexDef, TableSchema};
pub use stats::{analyze, ColumnStats, Histogram, TableStats};
pub use table::Table;
pub use value::{prefix_upper_bound, Key, Row, Value};
