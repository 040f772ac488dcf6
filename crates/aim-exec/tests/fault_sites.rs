//! The executor's two fault sites, `exec.whatif` and `exec.execute`.
//!
//! The fault registry is process-global, so these tests live in their own
//! binary — every other test of the crate passes through both sites and
//! would eat an armed plan's skips and failures — and take turns.

use aim_exec::{Engine, HypoConfig, WhatIfCache};
use aim_sql::{parse_statement, Select, Statement};
use aim_storage::fault::{self, FaultGuard, FaultPlan};
use aim_storage::{ColumnDef, ColumnType, Database, IoStats, TableSchema, Value};

fn db() -> Database {
    let mut db = Database::new();
    db.create_table(
        TableSchema::new(
            "t",
            vec![
                ColumnDef::new("id", ColumnType::Int),
                ColumnDef::new("a", ColumnType::Int),
            ],
            &["id"],
        )
        .unwrap(),
    )
    .unwrap();
    let mut io = IoStats::new();
    for i in 0..3000i64 {
        db.table_mut("t")
            .unwrap()
            .insert(vec![Value::Int(i), Value::Int(i % 60)], &mut io)
            .unwrap();
    }
    db.analyze_all();
    db
}

fn select(sql: &str) -> Select {
    match parse_statement(sql).unwrap() {
        Statement::Select(s) => s,
        other => panic!("expected SELECT, got {other:?}"),
    }
}

#[test]
fn injected_faults_propagate_and_never_touch_the_cache() {
    let _g = FaultGuard::acquire();
    let mut db = db();
    let cache = WhatIfCache::new();
    let s = select("SELECT id FROM t WHERE a = 7");
    let cfg = HypoConfig::none();

    // exec.whatif: fails before any cache interaction.
    fault::arm(FaultPlan::new(1).fail("exec.whatif", 0, 1));
    let err = cache.eval_select(&db, &s, &cfg).unwrap_err();
    assert!(err.is_injected(), "unexpected error class: {err}");
    let stats = cache.stats();
    assert_eq!(
        (stats.hits, stats.misses),
        (0, 0),
        "injected fault must not touch the counters"
    );
    // Limit exhausted: the next call misses (the fault stored no entry),
    // plans normally and memoizes, so the one after hits.
    cache.eval_select(&db, &s, &cfg).unwrap();
    cache.eval_select(&db, &s, &cfg).unwrap();
    let stats = cache.stats();
    assert_eq!((stats.hits, stats.misses), (1, 1));
    fault::disarm();

    // exec.execute: both the statement path and the direct SELECT
    // path consult the same site exactly once per call.
    let engine = Engine::default();
    fault::arm(FaultPlan::new(1).fail("exec.execute", 0, 2));
    let stmt = parse_statement("SELECT id FROM t WHERE a = 7").unwrap();
    let err = engine.execute(&mut db, &stmt).unwrap_err();
    assert!(err.is_injected());
    let err = engine.execute_select(&db, &s).unwrap_err();
    assert!(err.is_injected());
    engine.execute(&mut db, &stmt).unwrap();
    let log = fault::disarm();
    assert_eq!(log.len(), 2, "execute fired twice: {log:?}");
}

#[test]
fn batched_evaluation_hits_fault_site_per_config() {
    let _g = FaultGuard::acquire();
    let db = db();
    let s = select("SELECT id FROM t WHERE a = 7");
    let cfgs: Vec<HypoConfig> = (0..4).map(|_| HypoConfig::none()).collect();
    let refs: Vec<&HypoConfig> = cfgs.iter().collect();
    let cache = WhatIfCache::new();

    // Skip 2 hits, fail 1: exactly the third config must error, and
    // the injected failure must not be cached for it.
    fault::arm(FaultPlan::new(1).fail("exec.whatif", 2, 1));
    let got = cache.eval_select_batch(&db, &s, &refs);
    let log = fault::disarm();
    assert_eq!(log.len(), 1, "fault fired once: {log:?}");
    assert!(got[0].is_ok() && got[1].is_ok() && got[3].is_ok());
    assert!(got[2].as_ref().unwrap_err().is_injected());
}
