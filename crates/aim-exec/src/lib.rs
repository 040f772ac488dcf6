//! Query optimizer, executor and what-if costing for the AIM reproduction.
//!
//! Layered on `aim-storage`, this crate provides what the paper's DBMS
//! provides to AIM:
//!
//! * a cost-based [`planner`] that selects access paths (clustered scan,
//!   composite index ranges with index-prefix-predicate matching, covering
//!   index-only scans, OR index-merge unions) and join orders,
//! * an [`executor`] that runs those plans with physical I/O accounting —
//!   the source of the rows-read / rows-sent / CPU statistics the workload
//!   monitor aggregates,
//! * [`hypothetical`] ("dataless", §III-A4) indexes and a what-if costing
//!   API ([`planner::estimate_statement_cost`]) used by AIM and by every
//!   baseline advisor, and
//! * the shared [`cost::CostModel`] that keeps estimates and measurements
//!   in the same unit system.
//!
//! # Example
//!
//! ```
//! use aim_exec::{Engine, HypoConfig};
//! use aim_sql::parse_statement;
//! use aim_storage::{ColumnDef, ColumnType, Database, IoStats, TableSchema, Value};
//!
//! let mut db = Database::new();
//! db.create_table(TableSchema::new(
//!     "t",
//!     vec![ColumnDef::new("id", ColumnType::Int), ColumnDef::new("a", ColumnType::Int)],
//!     &["id"],
//! ).unwrap()).unwrap();
//! let mut io = IoStats::new();
//! for i in 0..100 {
//!     db.table_mut("t").unwrap()
//!       .insert(vec![Value::Int(i), Value::Int(i % 10)], &mut io).unwrap();
//! }
//! db.analyze_all();
//!
//! let engine = Engine::new();
//! let stmt = parse_statement("SELECT id FROM t WHERE a = 3").unwrap();
//! let out = engine.execute(&mut db, &stmt).unwrap();
//! assert_eq!(out.rows.len(), 10);
//! ```

pub mod bind;
pub mod cost;
pub mod error;
pub mod eval;
pub mod executor;
pub mod explain;
pub mod hypothetical;
pub mod iocheck;
pub mod planner;
pub mod predicate;
pub mod whatif;

pub use bind::{Binder, BoundColumn, BoundTable};
pub use cost::{CostModel, OptimizerSwitches};
pub use error::ExecError;
pub use executor::{Engine, ExecOutcome, OpenSelect};
pub use explain::{explain_select, ExplainAlternative, ExplainNode, ExplainPlan};
pub use hypothetical::{HypoConfig, HypotheticalIndex};
pub use iocheck::IoAccuracy;
pub use planner::{
    estimate_statement_cost, estimate_statement_cost_batch, estimate_statement_cost_batch_until,
    AccessPath, EqSource,
    IndexChoice, IndexScan, Plan, Planner, TableStep,
};
pub use predicate::{JoinPred, PredicateAnalysis, Sarg, SargValue};
pub use whatif::{WhatIfCache, WhatIfCacheStats, WhatIfEntry};
