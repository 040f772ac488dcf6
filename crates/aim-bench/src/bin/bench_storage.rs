//! Storage-engine benchmark: disk backend vs. the in-memory engine.
//!
//! Runs an identical data set and query sweep (the fig4-style mix of point
//! lookups, ranges and scans) on both backends, then reports for the disk
//! engine:
//!
//! * buffer-pool hit rate, pages read/written, WAL bytes/fsyncs,
//! * estimated-vs-measured cost error ([`aim_exec::IoAccuracy`]) — the
//!   cost model checked against real page walks instead of its own
//!   simulation,
//! * a full tuning pass on the disk backend, and
//! * a checkpoint + reopen cycle verifying durability.
//!
//! Results land in `results/bench_storage.json`. `smoke` mode shrinks the
//! data set, writes under `target/smoke/` instead, and exits non-zero when
//! any invariant fails (memory/disk divergence, zero buffer-pool traffic,
//! lost rows after reopen) — the `storage_smoke` CI gate.
//!
//! Usage: `cargo run -p aim-bench --bin bench_storage --release -- [quick|smoke]`

use aim_core::{AimConfig, BackendSpec};
use aim_exec::{Engine, IoAccuracy};
use aim_monitor::{SelectionConfig, WorkloadMonitor};
use aim_sql::parse_statement;
use aim_storage::{ColumnDef, ColumnType, Database, IoStats, TableSchema, Value};

fn populate(db: &mut Database, rows: i64) {
    db.create_table(
        TableSchema::new(
            "orders",
            vec![
                ColumnDef::new("id", ColumnType::Int),
                ColumnDef::new("customer_id", ColumnType::Int),
                ColumnDef::new("region", ColumnType::Int),
                ColumnDef::new("amount", ColumnType::Float),
            ],
            &["id"],
        )
        .expect("valid schema"),
    )
    .expect("fresh table");
    let mut io = IoStats::new();
    for i in 0..rows {
        db.table_mut("orders")
            .expect("exists")
            .insert(
                vec![
                    Value::Int(i),
                    Value::Int(i % 211),
                    Value::Int(i % 9),
                    Value::Float((i % 130) as f64),
                ],
                &mut io,
            )
            .expect("unique pk");
    }
    db.analyze_all();
}

fn sweep_queries(rows: i64) -> Vec<String> {
    let mut q = Vec::new();
    for v in [7, 42, 99, 150] {
        q.push(format!("SELECT id FROM orders WHERE customer_id = {v}"));
    }
    q.push(format!(
        "SELECT id, amount FROM orders WHERE id >= {} AND id < {}",
        rows / 4,
        rows / 4 + rows / 10
    ));
    q.push("SELECT region, COUNT(*) FROM orders GROUP BY region".to_string());
    q.push("SELECT id FROM orders WHERE amount = 64.0".to_string());
    q
}

/// Executes the sweep, recording workload observations and cost accuracy.
/// Returns the result rows of every statement (for cross-backend diffing).
fn run_sweep(
    db: &mut Database,
    queries: &[String],
    monitor: &mut WorkloadMonitor,
    acc: &mut IoAccuracy,
) -> Vec<Vec<aim_storage::Row>> {
    let engine = Engine::new();
    let mut all = Vec::new();
    for sql in queries {
        let stmt = parse_statement(sql).expect("valid sweep SQL");
        for _ in 0..3 {
            let out = engine.execute(db, &stmt).expect("sweep executes");
            monitor.record(&stmt, &out);
            acc.record(&out.plan, &out);
        }
        let out = engine.execute(db, &stmt).expect("sweep executes");
        all.push(out.rows);
    }
    all
}

fn fail(smoke: bool, msg: &str) {
    eprintln!("bench_storage: FAIL: {msg}");
    if smoke {
        std::process::exit(1);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "smoke");
    let quick = smoke || args.iter().any(|a| a == "quick");
    let rows: i64 = if quick { 4_000 } else { 40_000 };

    let dir = std::env::temp_dir().join(format!("aim-bench-storage-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let spec = BackendSpec::disk(&dir);
    let queries = sweep_queries(rows);

    // Memory reference.
    let mut mem_db = Database::new();
    populate(&mut mem_db, rows);
    let mut mem_monitor = WorkloadMonitor::new();
    let mut mem_acc = IoAccuracy::new();
    let mem_results = run_sweep(&mut mem_db, &queries, &mut mem_monitor, &mut mem_acc);

    // Disk run: identical data, measured I/O.
    let mut disk_monitor = WorkloadMonitor::new();
    let mut disk_acc = IoAccuracy::new();
    let (disk_results, counters, tuning_created, rows_after_reopen) = {
        let mut db = spec.provision().expect("open disk database");
        populate(&mut db, rows);
        let results = run_sweep(&mut db, &queries, &mut disk_monitor, &mut disk_acc);

        // Full tuning pass on the disk backend.
        let session = AimConfig::builder()
            .selection(SelectionConfig {
                min_executions: 1,
                min_benefit: 0.0,
                ..Default::default()
            })
            .session();
        let outcome = session.run(&mut db, &disk_monitor).expect("tuning pass on disk");

        db.checkpoint().expect("checkpoint");
        let counters = db.storage_counters();
        drop(db);

        // Reopen: recovery must restore the committed row count and the
        // indexes the tuning pass materialized.
        let db = spec.provision().expect("reopen disk database");
        let n = db.table("orders").expect("table survives").row_count();
        if db.all_indexes().len() != outcome.created.len() {
            fail(smoke, "tuned indexes did not survive reopen");
        }
        (results, counters, outcome.created.len(), n)
    };
    let _ = std::fs::remove_dir_all(&dir);

    // Invariants.
    if mem_results != disk_results {
        fail(smoke, "disk backend returned different query results than memory");
    }
    if rows_after_reopen != rows as usize {
        fail(
            smoke,
            &format!("reopen restored {rows_after_reopen} of {rows} rows"),
        );
    }
    let bp_total = counters.bp_hits + counters.bp_misses;
    if bp_total == 0 || counters.wal_fsyncs == 0 || counters.pages_written == 0 {
        fail(smoke, "disk backend shows no buffer-pool/WAL traffic");
    }
    let hit_rate = if bp_total == 0 {
        0.0
    } else {
        counters.bp_hits as f64 / bp_total as f64
    };

    let json = format!(
        "{{\n  \"rows\": {rows},\n  \"queries\": {},\n  \"tuning_indexes_created\": {tuning_created},\n  \"bp_hit_rate\": {hit_rate:.4},\n  \"bp_hits\": {},\n  \"bp_misses\": {},\n  \"bp_evictions\": {},\n  \"pages_read\": {},\n  \"pages_written\": {},\n  \"wal_bytes\": {},\n  \"wal_fsyncs\": {},\n  \"checkpoints\": {},\n  \"est_vs_actual\": {{\n    \"disk_mean_relative_error\": {:.4},\n    \"disk_bias\": {:.4},\n    \"disk_pages_touched\": {},\n    \"memory_mean_relative_error\": {:.4},\n    \"memory_bias\": {:.4}\n  }}\n}}",
        queries.len(),
        counters.bp_hits,
        counters.bp_misses,
        counters.bp_evictions,
        counters.pages_read,
        counters.pages_written,
        counters.wal_bytes,
        counters.wal_fsyncs,
        counters.checkpoints,
        disk_acc.mean_relative_error(),
        disk_acc.bias(),
        disk_acc.pages_touched,
        mem_acc.mean_relative_error(),
        mem_acc.bias(),
    );
    match aim_bench::write_artifact("bench_storage.json", smoke, &format!("{json}\n")) {
        Ok(path) => eprintln!("# wrote {path}"),
        Err(e) => eprintln!("# failed to write bench_storage.json: {e}"),
    }
    println!("{json}");
    eprintln!(
        "# disk: bp hit rate {:.1}%, {} pages read, {} written, wal {} B / {} fsyncs, est err {:.1}%",
        hit_rate * 100.0,
        counters.pages_read,
        counters.pages_written,
        counters.wal_bytes,
        counters.wal_fsyncs,
        disk_acc.mean_relative_error() * 100.0
    );
    if smoke {
        eprintln!("bench_storage: smoke OK");
    }
}
