//! The observability subsystem observed end to end: a deterministic tuning
//! pass, asserting the span tree shape and the counter taxonomy.

use aim_core::{AimConfig, TuningSession};
use aim_exec::Engine;
use aim_monitor::{SelectionConfig, WorkloadMonitor};
use aim_sql::parse_statement;
use aim_storage::{ColumnDef, ColumnType, Database, IoStats, TableSchema, Value};
use aim_telemetry::ProfileNode;
use std::sync::Mutex;

/// Telemetry state is process-global; tests in this binary take turns.
static LOCK: Mutex<()> = Mutex::new(());

fn db() -> Database {
    let mut db = Database::new();
    db.create_table(
        TableSchema::new(
            "orders",
            vec![
                ColumnDef::new("id", ColumnType::Int),
                ColumnDef::new("customer", ColumnType::Int),
                ColumnDef::new("region", ColumnType::Int),
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
                vec![Value::Int(i), Value::Int(i % 300), Value::Int(i % 12)],
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

fn aim() -> TuningSession {
    AimConfig::builder()
        .selection(SelectionConfig {
            min_executions: 1,
            min_benefit: 0.0,
            max_queries: 50,
            include_dml: true,
        })
        .session()
}

/// One full observed tuning pass; returns the profile tree.
fn traced_tune() -> ProfileNode {
    let mut db = db();
    let mut monitor = WorkloadMonitor::new();
    observe(
        &mut db,
        &mut monitor,
        "SELECT id FROM orders WHERE customer = 42",
        20,
    );

    aim_telemetry::enable();
    aim_telemetry::reset();

    let outcome = aim().run(&mut db, &monitor).unwrap();
    assert!(
        !outcome.created.is_empty(),
        "fixture must create an index; rejected: {:?}",
        outcome.rejected
    );

    let profile = aim_telemetry::take_profile();
    aim_telemetry::disable();
    profile
}

#[test]
fn span_tree_nests_all_driver_phases() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let profile = traced_tune();

    let tune = profile.child("aim.tune").expect("root span recorded");
    assert_eq!(tune.count, 1);
    for phase in [
        "select_workload",
        "candidate_generation",
        "ranking",
        "knapsack",
        "validation",
        "materialize",
    ] {
        let node = tune
            .child(phase)
            .unwrap_or_else(|| panic!("phase '{phase}' missing from span tree"));
        assert!(node.count >= 1, "phase '{phase}' never entered");
    }
    // Deeper nesting: validation wraps the clone bed and replay rounds,
    // candidate generation wraps derivation and merging.
    assert!(tune.descendant("validation/clone_test_bed").is_some());
    assert!(tune.descendant("validation/validation_round").is_some());
    assert!(tune
        .descendant("candidate_generation/derive_partial_orders")
        .is_some());
    // What-if costing nests under ranking, not at top level.
    assert!(tune.descendant("ranking/exec.whatif").is_some());
    // Phases never account for more time than their parent.
    assert!(tune.children_total() <= tune.total);
}

#[test]
fn counters_reflect_the_pass() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    traced_tune();
    // take_profile does not clear counters; read them post-pass.
    let snap = aim_telemetry::snapshot();
    let get = |name: &str| snap.counter(name).unwrap_or(0);
    assert!(get("exec.whatif_calls") > 0, "what-if counter stayed zero");
    assert!(get("exec.plans_evaluated") >= get("exec.whatif_calls"));
    assert!(get("aim.candidates_generated") > 0);
    assert!(get("aim.validation_rounds") > 0);
    assert!(get("aim.indexes_created") > 0);
}

/// The storage engine's buffer-pool and WAL counters flow into the
/// telemetry registry, appear in the `/metrics` (Prometheus) rendering
/// and in the profile report's counter table.
#[test]
fn storage_counters_surface_in_metrics_and_profile_report() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    aim_telemetry::reset();
    aim_telemetry::enable();

    let dir = std::env::temp_dir().join(format!("aim-telemetry-storage-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    {
        let mut db = aim_core::BackendSpec::disk(&dir).provision().unwrap();
        db.create_table(
            TableSchema::new(
                "t",
                vec![
                    ColumnDef::new("id", ColumnType::Int),
                    ColumnDef::new("v", ColumnType::Int),
                ],
                &["id"],
            )
            .unwrap(),
        )
        .unwrap();
        let mut io = IoStats::new();
        for i in 0..2_000 {
            db.table_mut("t")
                .unwrap()
                .insert(vec![Value::Int(i), Value::Int(i % 5)], &mut io)
                .unwrap();
        }
        db.checkpoint().unwrap();
        db.simulate_crash(); // skip Drop-time flushing; counters are pushed
    }
    let _ = std::fs::remove_dir_all(&dir);

    let snap = aim_telemetry::snapshot();
    let get = |name: &str| snap.counter(name).unwrap_or(0);
    assert!(get("storage.bp.hit") > 0, "buffer-pool hits not exported");
    assert!(
        get("storage.wal.bytes") > 0,
        "WAL byte counter not exported"
    );
    assert!(
        get("storage.wal.fsyncs") > 0,
        "WAL fsync counter not exported"
    );
    assert!(
        snap.counter("storage.bp.miss").is_some(),
        "miss counter must exist even when zero"
    );

    let prometheus = aim_telemetry::render_prometheus(&snap);
    for name in ["storage_bp_hit", "storage_wal_bytes", "storage_wal_fsyncs"] {
        assert!(
            prometheus.contains(name),
            "/metrics rendering lacks {name}:\n{prometheus}"
        );
    }
    let report = aim_telemetry::render_counters(&snap);
    assert!(
        report.contains("storage.wal.bytes"),
        "profile counter table lacks storage.wal.bytes:\n{report}"
    );
    aim_telemetry::disable();
}
