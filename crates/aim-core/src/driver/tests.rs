//! End-to-end unit tests of one tuning pass: a session built from a
//! config, run against a small observed database.

#![cfg(test)]

use crate::session::{AimConfig, TuningSession};
use aim_exec::Engine;
use aim_monitor::{SelectionConfig, WorkloadMonitor};
use aim_sql::parse_statement;
use aim_storage::{ColumnDef, ColumnType, Database, IoStats, TableSchema, Value};
use std::time::Duration;

fn db() -> Database {
    let mut db = Database::new();
    db.create_table(
        TableSchema::new(
            "orders",
            vec![
                ColumnDef::new("id", ColumnType::Int),
                ColumnDef::new("customer", ColumnType::Int),
                ColumnDef::new("region", ColumnType::Int),
                ColumnDef::new("amount", ColumnType::Int),
            ],
            &["id"],
        )
        .unwrap(),
    )
    .unwrap();
    let mut io = IoStats::new();
    for i in 0..6000i64 {
        db.table_mut("orders")
            .unwrap()
            .insert(
                vec![
                    Value::Int(i),
                    Value::Int(i % 300),
                    Value::Int(i % 12),
                    Value::Int(i % 97),
                ],
                &mut io,
            )
            .unwrap();
    }
    db.analyze_all();
    db
}

fn observe(db: &mut Database, monitor: &mut WorkloadMonitor, sql: &str, n: usize) {
    let engine = Engine::new();
    let stmt = parse_statement(sql).unwrap();
    for _ in 0..n {
        let out = engine.execute(db, &stmt).unwrap();
        monitor.record(&stmt, &out);
    }
}

fn quick_selection() -> SelectionConfig {
    SelectionConfig {
        min_executions: 1,
        min_benefit: 0.0,
        max_queries: 50,
        include_dml: true,
    }
}

fn quick_session() -> TuningSession {
    AimConfig::builder().selection(quick_selection()).session()
}

#[test]
fn session_creates_useful_index_and_improves_query() {
    let mut db = db();
    let mut monitor = WorkloadMonitor::new();
    observe(
        &mut db,
        &mut monitor,
        "SELECT id FROM orders WHERE customer = 42",
        20,
    );

    let engine = Engine::new();
    let stmt = parse_statement("SELECT id FROM orders WHERE customer = 42").unwrap();
    let before = engine.execute(&mut db, &stmt).unwrap();

    let outcome = quick_session().run(&mut db, &monitor).unwrap();
    assert!(
        !outcome.created.is_empty(),
        "rejected: {:?}",
        outcome.rejected
    );
    assert!(outcome.created[0].explanation.contains("orders"));

    let after = engine.execute(&mut db, &stmt).unwrap();
    assert!(
        after.io.rows_read < before.io.rows_read / 10,
        "before {} rows read, after {}",
        before.io.rows_read,
        after.io.rows_read
    );
}

#[test]
fn session_with_no_workload_is_a_noop() {
    let mut db = db();
    let monitor = WorkloadMonitor::new();
    let outcome = quick_session().run(&mut db, &monitor).unwrap();
    assert!(outcome.created.is_empty());
    assert_eq!(outcome.workload_size, 0);
    assert!(db.all_indexes().is_empty());
}

#[test]
fn storage_budget_limits_creation() {
    let mut db = db();
    let mut monitor = WorkloadMonitor::new();
    observe(
        &mut db,
        &mut monitor,
        "SELECT id FROM orders WHERE customer = 42",
        10,
    );
    observe(
        &mut db,
        &mut monitor,
        "SELECT id FROM orders WHERE amount = 5",
        10,
    );

    let session = AimConfig::builder()
        .selection(quick_selection())
        .storage_budget(1) // effectively zero
        .session();
    let outcome = session.run(&mut db, &monitor).unwrap();
    assert!(outcome.created.is_empty());
}

#[test]
fn rerun_does_not_duplicate_indexes() {
    let mut db = db();
    let mut monitor = WorkloadMonitor::new();
    observe(
        &mut db,
        &mut monitor,
        "SELECT id FROM orders WHERE customer = 42",
        20,
    );
    let session = quick_session();
    let first = session.run(&mut db, &monitor).unwrap();
    assert!(!first.created.is_empty());
    let count = db.all_indexes().len();
    // Same observations again: candidates now duplicate existing
    // indexes and are filtered out.
    let second = session.run(&mut db, &monitor).unwrap();
    assert!(second.created.is_empty(), "{:?}", second.created);
    assert_eq!(db.all_indexes().len(), count);
}

#[test]
fn outcome_reports_runtime_and_counts() {
    let mut db = db();
    let mut monitor = WorkloadMonitor::new();
    observe(
        &mut db,
        &mut monitor,
        "SELECT id FROM orders WHERE customer = 1",
        5,
    );
    let outcome = quick_session().run(&mut db, &monitor).unwrap();
    assert!(outcome.workload_size >= 1);
    assert!(outcome.candidates_generated >= 1);
    assert!(outcome.elapsed > Duration::ZERO);
}

#[test]
fn sharding_profile_suppresses_narrow_benefit_indexes() {
    let mut db = db();
    let mut monitor = WorkloadMonitor::new();
    observe(
        &mut db,
        &mut monitor,
        "SELECT id FROM orders WHERE customer = 42",
        20,
    );
    // Write traffic that every shard pays index maintenance for.
    observe(
        &mut db,
        &mut monitor,
        "UPDATE orders SET customer = 7 WHERE id = 3",
        20,
    );

    // Unsharded: the index is created (benefit outweighs maintenance).
    let mut unsharded_db = db.clone();
    assert!(!quick_session()
        .run(&mut unsharded_db, &monitor)
        .unwrap()
        .created
        .is_empty());

    // 1000 shards, the read hits 0.1% of them while maintenance is paid
    // everywhere: fleet economics reject the index.
    let fp = monitor.queries().find(|q| !q.is_dml()).unwrap().fingerprint;
    let mut profile = crate::sharding::ShardingProfile::new(1000);
    profile.set_hit_fraction(fp, 0.001);
    let sharded_session = AimConfig::builder()
        .selection(quick_selection())
        .sharding(profile)
        .session();
    let outcome = sharded_session.run(&mut db, &monitor).unwrap();
    assert!(
        outcome.created.is_empty(),
        "fleet-wide maintenance should sink the index: {:?}",
        outcome.created
    );
}

#[test]
fn ledger_records_full_lifecycle_when_enabled() {
    let mut db = db();
    let mut monitor = WorkloadMonitor::new();
    observe(
        &mut db,
        &mut monitor,
        "SELECT id FROM orders WHERE customer = 42",
        20,
    );
    let session = AimConfig::builder()
        .selection(quick_selection())
        .ledger(true)
        .session();
    let outcome = session.run(&mut db, &monitor).unwrap();
    assert!(!outcome.created.is_empty());

    let ledger = session.ledger();
    assert_eq!(ledger.passes, 1);
    for c in &outcome.created {
        let rec = ledger
            .find(&c.def.name)
            .expect("created index has a record");
        let stages = rec.stages();
        for want in [
            "generated",
            "ranked",
            "knapsack_accepted",
            "validation_accepted",
            "materialized",
        ] {
            assert!(stages.contains(&want), "missing {want} in {stages:?}");
        }
        assert!(!rec.sources.is_empty(), "generation provenance recorded");
        assert_eq!(rec.size_bytes, Some(c.size_bytes));
        assert_eq!(rec.outcome(), "materialized");
    }

    // A second pass over the same workload: the candidate now
    // duplicates the existing index and the ledger says so.
    session.run(&mut db, &monitor).unwrap();
    let ledger = session.ledger();
    assert_eq!(ledger.passes, 2);
    assert!(ledger
        .records()
        .iter()
        .any(|r| r.pass == 2 && r.outcome() == "already_served"));
}

#[test]
fn ledger_is_off_by_default() {
    let mut db = db();
    let mut monitor = WorkloadMonitor::new();
    observe(
        &mut db,
        &mut monitor,
        "SELECT id FROM orders WHERE customer = 42",
        20,
    );
    let session = quick_session();
    assert!(!session.run(&mut db, &monitor).unwrap().created.is_empty());
    assert!(session.ledger().is_empty());
    assert_eq!(session.ledger().passes, 0);
}

#[test]
fn skip_validation_mode_creates_without_replay() {
    let mut db = db();
    let mut monitor = WorkloadMonitor::new();
    observe(
        &mut db,
        &mut monitor,
        "SELECT id FROM orders WHERE region = 3",
        20,
    );
    let session = AimConfig::builder()
        .selection(quick_selection())
        .skip_validation(true)
        .session();
    let outcome = session.run(&mut db, &monitor).unwrap();
    assert!(!outcome.created.is_empty());
}
