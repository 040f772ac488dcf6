//! The common index-advisor interface shared by AIM and every baseline.
//!
//! This mirrors the evaluation harness of Kossmann et al. (the framework
//! the paper benchmarks against in §VI-B): an advisor receives a database,
//! a weighted analytical workload and a storage budget, and returns a set
//! of index definitions. Solution quality is then measured as the
//! optimizer-*estimated* workload cost under the returned configuration,
//! relative to the unindexed cost.

use crate::candidates::{CandidateGenConfig, CoveringPolicy};
use crate::ledger::Decisions;
use crate::plan::PassPlanner;
use crate::ranking::knapsack_select;
use crate::session::{AimOutcome, RunCtl};
use aim_exec::{estimate_statement_cost, HypoConfig, HypotheticalIndex, WhatIfCache};
use aim_monitor::{QueryStats, WorkloadQuery};
use aim_sql::ast::Statement;
use aim_storage::{Database, IndexDef};

/// One workload query with its weight `w_q` (frequency / importance).
#[derive(Debug, Clone)]
pub struct WeightedQuery {
    pub statement: Statement,
    pub weight: f64,
}

impl WeightedQuery {
    pub fn new(statement: Statement, weight: f64) -> Self {
        Self { statement, weight }
    }
}

/// An index-selection algorithm under benchmark conditions.
pub trait IndexAdvisor {
    /// Short display name ("AIM", "Extend", "DTA", ...).
    fn name(&self) -> &str;

    /// Recommends a set of indexes for `workload` within `budget_bytes`.
    fn recommend(
        &mut self,
        db: &Database,
        workload: &[WeightedQuery],
        budget_bytes: u64,
    ) -> Vec<IndexDef>;
}

/// Builds the what-if configuration for a set of index definitions
/// (dropping any that cannot be built on this database).
pub fn defs_to_config(db: &Database, defs: &[IndexDef]) -> HypoConfig {
    let indexes = defs
        .iter()
        .filter_map(|d| HypotheticalIndex::build(db, d.clone()))
        .collect();
    HypoConfig::overlay(indexes)
}

/// Total estimated workload cost `Σ w_q · cost(q, X)` under a what-if
/// configuration — the y-axis of Figure 4a/4c — asking `cache`, summed in
/// workload order.
pub fn workload_cost(
    db: &Database,
    workload: &[WeightedQuery],
    config: &HypoConfig,
    cache: &WhatIfCache,
) -> f64 {
    workload.iter().fold(0.0, |total, wq| {
        let cost = estimate_statement_cost(db, &wq.statement, config, cache);
        total + wq.weight * cost.unwrap_or(f64::INFINITY)
    })
}

/// Estimated total size of a configuration in bytes.
pub fn config_size(db: &Database, defs: &[IndexDef]) -> u64 {
    defs.iter()
        .filter_map(|d| HypotheticalIndex::build(db, d.clone()))
        .map(|h| h.size_bytes)
        .sum()
}

/// The monitor statistics a weighted workload stands for: weight × the
/// estimated cost on the database as it stands takes the place of observed
/// CPU, which is what Eq. 7 scales by. This is how every benchmark-style
/// caller — the advisor, the paper-figure bins, the micro-benchmarks —
/// turns weighted statements into the [`WorkloadQuery`]s the pipeline
/// consumes. The estimates ask `cache`.
pub fn synthetic_workload(
    db: &Database,
    workload: &[WeightedQuery],
    cache: &WhatIfCache,
) -> Vec<WorkloadQuery> {
    let empty = HypoConfig::none();
    workload
        .iter()
        .map(|wq| {
            let base = estimate_statement_cost(db, &wq.statement, &empty, cache).unwrap_or(0.0);
            WorkloadQuery {
                stats: QueryStats::synthetic(
                    &wq.statement,
                    wq.weight.max(1.0) as u64,
                    wq.weight * base,
                ),
                benefit: 0.0,
                weight: wq.weight,
            }
        })
        .collect()
}

/// AIM operating as a pure advisor: structural candidate generation +
/// merging + ranking + knapsack, no clone validation (the benchmark
/// framework has no execution phase).
#[derive(Debug, Clone)]
pub struct AimAdvisor {
    pub gen: CandidateGenConfig,
    /// What-if lookups (hits and misses) of the last
    /// [`IndexAdvisor::recommend`], each run from a cache of its own.
    pub last_whatif_calls: u64,
}

impl AimAdvisor {
    /// Advisor with the given join parameter and maximum index width.
    pub fn new(join_parameter: usize, max_width: usize) -> Self {
        Self {
            gen: CandidateGenConfig {
                join_parameter,
                max_width,
                covering: CoveringPolicy::Both,
                ..Default::default()
            },
            last_whatif_calls: 0,
        }
    }
}

impl IndexAdvisor for AimAdvisor {
    fn name(&self) -> &str {
        "AIM"
    }

    fn recommend(
        &mut self,
        db: &Database,
        workload: &[WeightedQuery],
        budget_bytes: u64,
    ) -> Vec<IndexDef> {
        let _span = aim_telemetry::span("aim.recommend");
        let cache = WhatIfCache::new();
        let synthetic = synthetic_workload(db, workload, &cache);
        // The session's planning code under benchmark conditions: no
        // deadline, nobody listening to the decisions. An injected what-if
        // fault therefore recommends nothing rather than failing — the
        // interface has no error channel.
        let planner = PassPlanner {
            candidate_gen: &self.gen,
            sharding: None,
            ctl: &RunCtl::none(),
            decisions: &Decisions::none(),
            cache: &cache,
        };
        let ranked = planner
            .plan(db, &synthetic, &mut AimOutcome::default())
            .unwrap_or_default();
        let asked = cache.stats();
        self.last_whatif_calls = asked.hits + asked.misses;
        // Existing indexes do not count against the benchmark's budget.
        knapsack_select(&ranked, budget_bytes, 0)
            .into_iter()
            .map(|r| r.candidate.def())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aim_sql::parse_statement;
    use aim_storage::{ColumnDef, ColumnType, IoStats, TableSchema, Value};

    fn db() -> Database {
        let mut db = Database::new();
        db.create_table(
            TableSchema::new(
                "t",
                vec![
                    ColumnDef::new("id", ColumnType::Int),
                    ColumnDef::new("a", ColumnType::Int),
                    ColumnDef::new("b", ColumnType::Int),
                ],
                &["id"],
            )
            .unwrap(),
        )
        .unwrap();
        let mut io = IoStats::new();
        for i in 0..4000i64 {
            db.table_mut("t")
                .unwrap()
                .insert(
                    vec![Value::Int(i), Value::Int(i % 200), Value::Int(i % 8)],
                    &mut io,
                )
                .unwrap();
        }
        db.analyze_all();
        db
    }

    fn wq(sql: &str, weight: f64) -> WeightedQuery {
        WeightedQuery::new(parse_statement(sql).unwrap(), weight)
    }

    #[test]
    fn aim_advisor_reduces_estimated_workload_cost() {
        let db = db();
        let workload = vec![
            wq("SELECT id FROM t WHERE a = 17", 100.0),
            wq("SELECT id FROM t WHERE a = 4 AND b = 2", 50.0),
        ];
        let mut advisor = AimAdvisor::new(2, 0);
        let defs = advisor.recommend(&db, &workload, u64::MAX);
        assert!(!defs.is_empty());
        let cache = WhatIfCache::new();
        let base = workload_cost(&db, &workload, &HypoConfig::none(), &cache);
        let with = workload_cost(&db, &workload, &defs_to_config(&db, &defs), &cache);
        assert!(
            with < base / 2.0,
            "expected large improvement: base {base}, with {with}"
        );
    }

    #[test]
    fn budget_zero_recommends_nothing() {
        let db = db();
        let workload = vec![wq("SELECT id FROM t WHERE a = 17", 100.0)];
        let mut advisor = AimAdvisor::new(2, 0);
        assert!(advisor.recommend(&db, &workload, 0).is_empty());
    }

    #[test]
    fn budget_monotonicity() {
        let db = db();
        let workload = vec![
            wq("SELECT id FROM t WHERE a = 17", 100.0),
            wq("SELECT id FROM t WHERE b = 2 AND a > 5", 100.0),
        ];
        let cache = WhatIfCache::new();
        let base = workload_cost(&db, &workload, &HypoConfig::none(), &cache);
        let mut costs = Vec::new();
        for budget in [64 * 1024, 1 << 20, u64::MAX] {
            let mut advisor = AimAdvisor::new(2, 0);
            let defs = advisor.recommend(&db, &workload, budget);
            assert!(config_size(&db, &defs) <= budget);
            costs.push(workload_cost(
                &db,
                &workload,
                &defs_to_config(&db, &defs),
                &cache,
            ));
        }
        // Larger budgets never hurt.
        assert!(costs[0] >= costs[1] - 1e-9);
        assert!(costs[1] >= costs[2] - 1e-9);
        assert!(costs[2] < base);
    }

    #[test]
    fn max_width_respected() {
        let db = db();
        let workload = vec![wq(
            "SELECT id FROM t WHERE a = 1 AND b = 2 AND id > 5",
            10.0,
        )];
        let mut advisor = AimAdvisor::new(2, 2);
        let defs = advisor.recommend(&db, &workload, u64::MAX);
        assert!(defs.iter().all(|d| d.columns.len() <= 2));
    }
}
