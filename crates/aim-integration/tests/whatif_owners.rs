//! Whose what-if questions a pass asks, as counts: the hits and misses
//! each pass's costing makes, read as deltas of telemetry's
//! `exec.whatif_cache_hits` and `exec.whatif_cache_misses`, which every
//! lookup moves whatever cache answers it, and held equal to the counts
//! the pass reports in [`AimOutcome::whatif`](aim_core::AimOutcome).
//!
//! * A [`ContinuousTuner`] over three windows, with writes to one of its
//!   two tables between them.
//! * A two-tenant fleet on one worker, per tenant and phase, from the
//!   `{phase, tenant}` series.
//! * Two [`TuningSession::run`]s on fresh clones of one database, each
//!   from a cold cache: the end-to-end benchmark's passes.
//! * Two runs on the same database, the second right after the first: it
//!   asks a cache of its own, not the first pass's.
//!
//! Telemetry is process-wide, so this binary holds one test, which runs
//! the cases in a fixed order with nothing beside it.

mod common;

use aim_core::continuous::ContinuousTuner;
use aim_core::fleet::{FleetConfig, Tenant};
use aim_core::{AimConfig, TuningSession};
use aim_exec::{Engine, WhatIfCacheStats};
use aim_monitor::{SelectionConfig, WorkloadMonitor};
use aim_sql::parse_statement;
use aim_storage::{ColumnDef, ColumnType, Database, IoStats, TableSchema, Value};
use aim_telemetry::metrics::snapshot;

const HITS: &str = "exec.whatif_cache_hits";
const MISSES: &str = "exec.whatif_cache_misses";

/// (hits, misses) so far, all tenants and phases.
fn lookups() -> (u64, u64) {
    let snap = snapshot();
    let read = |name| snap.counter(name).unwrap_or(0);
    (read(HITS), read(MISSES))
}

fn pair(stats: WhatIfCacheStats) -> (u64, u64) {
    (stats.hits, stats.misses)
}

/// (hits, misses) of `f`.
fn delta<T>(f: impl FnOnce() -> T) -> (T, (u64, u64)) {
    let (h0, m0) = lookups();
    let out = f();
    let (h1, m1) = lookups();
    (out, (h1 - h0, m1 - m0))
}

fn selection() -> SelectionConfig {
    SelectionConfig {
        min_executions: 1,
        min_benefit: 0.0,
        max_queries: usize::MAX,
        include_dml: true,
    }
}

/// Tables `orders(id, customer, region)` and `items(id, sku, qty)`.
fn two_tables(rows: i64) -> Database {
    let mut db = Database::new();
    for (name, columns) in [
        ("orders", ["id", "customer", "region"]),
        ("items", ["id", "sku", "qty"]),
    ] {
        let columns = columns
            .iter()
            .map(|c| ColumnDef::new(*c, ColumnType::Int))
            .collect();
        db.create_table(TableSchema::new(name, columns, &["id"]).unwrap())
            .unwrap();
    }
    let mut io = IoStats::new();
    for i in 0..rows {
        for (name, a, b) in [("orders", i % 300, i % 12), ("items", i % 500, i % 7)] {
            let row = vec![Value::Int(i), Value::Int(a), Value::Int(b)];
            db.table_mut(name).unwrap().insert(row, &mut io).unwrap();
        }
    }
    db.analyze_all();
    db
}

fn observe(db: &mut Database, monitor: &mut WorkloadMonitor, sql: &str, n: usize) {
    let stmt = parse_statement(sql).unwrap();
    for _ in 0..n {
        let out = Engine::new().execute(db, &stmt).unwrap();
        monitor.record(&stmt, &out);
    }
}

/// Reads of both tables, and from the second window on, writes to
/// `orders` executed before the window's reads.
fn window(db: &mut Database, w: i64) -> WorkloadMonitor {
    let mut monitor = WorkloadMonitor::new();
    if w > 0 {
        let sql = format!("UPDATE orders SET region = {w} WHERE customer = {}", 40 + w);
        observe(db, &mut monitor, &sql, 3);
    }
    observe(
        db,
        &mut monitor,
        "SELECT id FROM orders WHERE customer = 42",
        8,
    );
    observe(
        db,
        &mut monitor,
        "SELECT id FROM orders WHERE region = 3 AND customer > 250",
        4,
    );
    observe(db, &mut monitor, "SELECT id FROM items WHERE sku = 17", 8);
    observe(
        db,
        &mut monitor,
        "SELECT qty FROM items WHERE sku > 490 AND qty = 2",
        4,
    );
    let sql = format!("SELECT sku FROM items WHERE qty = {w} AND id > 100");
    observe(db, &mut monitor, &sql, 6);
    monitor
}

fn continuous_windows() -> Vec<(u64, u64)> {
    let mut db = two_tables(3000);
    let session = AimConfig::builder()
        .selection(selection())
        .skip_validation(true)
        .session();
    let mut tuner = ContinuousTuner::with_session(session, 0.5);
    (0..3)
        .map(|w| {
            let monitor = window(&mut db, w);
            let (step, counts) = delta(|| tuner.step(&mut db, &monitor).unwrap());
            assert_eq!(pair(step.tuning.whatif), counts, "window {w}");
            eprintln!(
                "continuous window {w}: {counts:?}, created {}",
                step.tuning.created.len()
            );
            counts
        })
        .collect()
}

/// (tenant, phase) → (hits, misses) for a two-tenant fleet on one worker.
fn fleet_by_tenant_and_phase() -> Vec<(&'static str, &'static str, (u64, u64))> {
    let mut tenants: Vec<Tenant> = ["t0", "t1"]
        .into_iter()
        .zip([2500, 4000])
        .map(|(id, rows)| {
            let mut t = Tenant::new(id, two_tables(rows));
            let monitor = window(&mut t.db, 0);
            t.monitor = monitor;
            t
        })
        .collect();
    let session = FleetConfig::builder()
        .base(
            AimConfig::builder()
                .selection(selection())
                .skip_validation(true)
                .build(),
        )
        .fleet_workers(1)
        .session();
    let (outcome, total) = delta(|| session.run(&mut tenants));
    assert_eq!(outcome.tuned(), 2);
    let snap = snapshot();
    let mut rows = Vec::new();
    for (tenant, tuned) in ["t0", "t1"].into_iter().zip(&outcome.tenants) {
        for phase in ["probe", "tune"] {
            let labels = [("phase", phase), ("tenant", tenant)];
            let read = |name| snap.counter_labeled(name, &labels).unwrap_or(0);
            let counts = (read(HITS), read(MISSES));
            eprintln!("fleet {tenant} {phase}: {counts:?}");
            if phase == "tune" {
                let reported = tuned.result.as_ref().unwrap().whatif;
                assert_eq!(pair(reported), counts, "{tenant}");
            }
            rows.push((tenant, phase, counts));
        }
    }
    let summed = rows
        .iter()
        .fold((0, 0), |(h, m), (_, _, (dh, dm))| (h + dh, m + dm));
    assert_eq!(
        summed, total,
        "every lookup of the fleet is a tenant's, in a phase"
    );
    rows
}

/// The TPC-H fixture, observed.
fn tpch() -> (Database, WorkloadMonitor) {
    let common::Fixture { mut db, texts, .. } = common::tpch_fixture();
    let monitor = common::observe(&mut db, texts);
    (db, monitor)
}

fn session() -> TuningSession {
    AimConfig::builder()
        .selection(selection())
        .skip_validation(true)
        .session()
}

/// Each pass on a fresh clone of `source`, from the cold cache it makes.
fn runs_on_fresh_clones() -> Vec<(u64, u64)> {
    let (source, monitor) = tpch();
    let session = session();
    (0..2)
        .map(|pass| {
            let mut db = source.try_clone().unwrap();
            let (out, counts) = delta(|| session.run(&mut db, &monitor).unwrap());
            assert_eq!(pair(out.whatif), counts, "pass {pass}");
            eprintln!(
                "fresh clone, pass {pass}: {counts:?}, created {}",
                out.created.len()
            );
            counts
        })
        .collect()
}

/// Two passes on one database.
fn runs_on_one_database() -> Vec<(u64, u64)> {
    let (mut db, monitor) = tpch();
    let session = session();
    (0..2)
        .map(|pass| {
            let (out, counts) = delta(|| session.run(&mut db, &monitor).unwrap());
            assert_eq!(pair(out.whatif), counts, "pass {pass}");
            eprintln!(
                "one database, pass {pass}: {counts:?}, created {}",
                out.created.len()
            );
            counts
        })
        .collect()
}

#[test]
fn whose_lookups_a_pass_makes() {
    aim_telemetry::enable();
    aim_telemetry::reset();

    // Window 1 hits 3 entries window 0 left on `items`; window 2 asks
    // only what the new indexes left open.
    assert_eq!(continuous_windows(), [(4, 10), (3, 6), (0, 3)]);
    // Each tenant's tune answers every question from its own probe.
    assert_eq!(
        fleet_by_tenant_and_phase(),
        [
            ("t0", "probe", (4, 10)),
            ("t0", "tune", (14, 0)),
            ("t1", "probe", (4, 10)),
            ("t1", "tune", (14, 0)),
        ]
    );
    assert_eq!(runs_on_fresh_clones(), [(0, 60), (0, 60)]);
    // Each pass asks a cache of its own, so the second asks all 49 of its
    // questions again. It was (2, 47) while every pass asked one
    // process-wide cache: the second hit 2 entries the first left on
    // tables it built no index on.
    assert_eq!(runs_on_one_database(), [(0, 60), (0, 49)]);

    aim_telemetry::disable();
}
