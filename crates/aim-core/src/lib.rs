//! AIM — Automatic Index Manager.
//!
//! From-scratch reproduction of the index-management algorithm of
//! *"AIM: A practical approach to automated index management for SQL
//! databases"* (ICDE 2023). The pipeline:
//!
//! 1. **Workload selection** (`aim-monitor`): pick the queries worth tuning
//!    from execution statistics (Eq. 5).
//! 2. **Structural candidate generation** ([`candidates`], Algorithms 2–7):
//!    derive [`partial_order::PartialOrder`]s of index columns from each
//!    query's predicates, join neighbourhood (bounded by the join parameter
//!    `j`), GROUP BY and ORDER BY — without asking the optimizer.
//! 3. **Partial-order merging** ([`partial_order`], §III-E): combine orders
//!    across queries into wide composite candidates.
//! 4. **Ranking** ([`ranking`], Eqs. 7–8): what-if benefit minus write
//!    amplification, then knapsack selection under the storage budget.
//! 5. **Clone validation** ([`validate`], §VII-B): materialize on a clone,
//!    replay, and enforce the "no regression" guarantee.
//! 6. **Continuous tuning** ([`continuous`], §VI-D/VII-C): periodic passes,
//!    regression-driven reverts, unused-index garbage collection.
//!
//! [`session::TuningSession`] (built via [`session::AimConfig::builder`]) is
//! the per-database entry point: it runs the pipeline under an optional
//! deadline and cancel token, retries transient faults with backoff, and
//! rolls back anything an aborted pass materialized ([`error::AimError`]
//! describes the failure). [`fleet::FleetSession`] scales it horizontally —
//! N tenants on a bounded worker pool, cross-shard candidate seeding, and
//! fleet-level storage-budget allocation — and its 1-tenant form is
//! bit-identical to a bare session, making `FleetSession → TuningSession`
//! the single entry path. [`advisor::AimAdvisor`] runs the same planning
//! code (`plan.rs`: selection → candidates → ranking, written once for the
//! session, the fleet probe and the advisor) over weighted analytical
//! workloads for benchmark comparisons against baselines.
//!
//! # Example
//!
//! ```
//! use aim_core::AimConfig;
//! use aim_exec::Engine;
//! use aim_monitor::{SelectionConfig, WorkloadMonitor};
//! use aim_sql::parse_statement;
//! use aim_storage::{ColumnDef, ColumnType, Database, IoStats, TableSchema, Value};
//!
//! // A table and a workload that scans it inefficiently.
//! let mut db = Database::new();
//! db.create_table(TableSchema::new(
//!     "t",
//!     vec![ColumnDef::new("id", ColumnType::Int), ColumnDef::new("a", ColumnType::Int)],
//!     &["id"],
//! ).unwrap()).unwrap();
//! let mut io = IoStats::new();
//! for i in 0..3000 {
//!     db.table_mut("t").unwrap()
//!       .insert(vec![Value::Int(i), Value::Int(i % 50)], &mut io).unwrap();
//! }
//! db.analyze_all();
//!
//! let engine = Engine::new();
//! let mut monitor = WorkloadMonitor::new();
//! let stmt = parse_statement("SELECT id FROM t WHERE a = 7").unwrap();
//! for _ in 0..10 {
//!     let out = engine.execute(&mut db, &stmt).unwrap();
//!     monitor.record(&stmt, &out);
//! }
//!
//! let session = AimConfig::builder()
//!     .selection(SelectionConfig { min_executions: 1, min_benefit: 0.0, ..Default::default() })
//!     .session();
//! let outcome = session.run(&mut db, &monitor).unwrap();
//! assert_eq!(outcome.created.len(), 1);
//! assert_eq!(outcome.created[0].def.columns, vec!["a".to_string()]);
//! ```

pub mod advisor;
pub mod backend;
pub mod candidates;
pub mod continuous;
pub mod error;
pub mod fleet;
pub mod ledger;
pub mod metadata;
pub mod partial_order;
mod plan;
pub mod ranking;
pub mod selection_lp;
pub mod session;
pub mod sharding;
pub mod validate;

pub use advisor::{
    config_size, defs_to_config, synthetic_workload, workload_cost, workload_cost_batch,
    AimAdvisor, IndexAdvisor, WeightedQuery,
};
pub use candidates::{
    generate_candidates, try_generate_candidates, CandidateGenConfig, CandidateIndex,
    CoveringMode, CoveringPolicy,
};
pub use continuous::{
    find_unused_indexes, ContinuousOutcome, ContinuousTuner, RegressionDetector, AIM_INDEX_PREFIX,
};
pub use backend::BackendSpec;
pub use error::AimError;
pub use fleet::{
    BudgetAllocation, FleetConfig, FleetConfigBuilder, FleetOutcome, FleetSession, Tenant,
    TenantOutcome,
};
pub use ledger::{CandidateRecord, DecisionLedger, LedgerEvent};
pub use metadata::{analyze_structure, FactorGroup, OpClass, QueryStructure, TableInfo};
pub use partial_order::{merge_cross_shard, merge_partial_orders, PartialOrder};
pub use ranking::{
    knapsack, knapsack_select, rank_candidates_unbatched,
    rank_candidates_with, try_rank_candidates_with, KnapsackDecision, RankedCandidate,
};
pub use selection_lp::{refine_selection, LpDecision, LpOutcome};
pub use session::{
    AimConfig, AimConfigBuilder, AimOutcome, CancelToken, CreatedIndex, RetryPolicy, RunCtl,
    SelectionStrategy, TuningSession,
};
pub use sharding::ShardingProfile;
pub use validate::{
    try_validate_on_clone, validate_on_clone, RejectReason, ValidationConfig, ValidationOutcome,
};

/// The session's end-to-end unit tests, under the module path the suite
/// has always listed them by.
#[cfg(test)]
mod driver {
    mod tests;
}
