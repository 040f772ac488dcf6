//! Disk-backend integration: the full advisor stack running on the paged
//! storage engine, and the durability contract across kills and reopens.

use aim_core::{
    generate_candidates, knapsack_select, try_rank_candidates_with, validate_on_clone, AimConfig,
    BackendSpec, CandidateGenConfig, RunCtl, ValidationConfig,
};
use aim_exec::{Engine, ExecOutcome, WhatIfCache};
use aim_monitor::{select_workload, SelectionConfig, WorkloadMonitor};
use aim_sql::parse_statement;
use aim_storage::{
    BackendKind, ColumnDef, ColumnType, Database, IndexDef, IoStats, SecondaryIndex, TableSchema,
    Value,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "aim-backend-it-{}-{}-{name}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn populate(db: &mut Database, rows: i64) {
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
    for i in 0..rows {
        db.table_mut("orders")
            .unwrap()
            .insert(
                vec![Value::Int(i), Value::Int(i % 150), Value::Int(i % 7)],
                &mut io,
            )
            .unwrap();
    }
    db.analyze_all();
}

fn observe(db: &mut Database, monitor: &mut WorkloadMonitor, sql: &str, n: usize) {
    let engine = Engine::new();
    let stmt = parse_statement(sql).unwrap();
    for _ in 0..n {
        let out = engine.execute(db, &stmt).unwrap();
        monitor.record(&stmt, &out);
    }
}

fn quick_session() -> aim_core::TuningSession {
    AimConfig::builder()
        .selection(SelectionConfig {
            min_executions: 1,
            min_benefit: 0.0,
            ..Default::default()
        })
        .session()
}

/// Acceptance criterion: a full tuning pass runs green on the disk
/// backend, the created indexes survive a process restart, and queries
/// actually get faster.
#[test]
fn full_tuning_pass_on_disk_backend_survives_reopen() {
    let dir = temp_dir("tuning");
    let spec = BackendSpec::disk(&dir);
    let sql = "SELECT id FROM orders WHERE customer = 42";
    let engine = Engine::new();
    let stmt = parse_statement(sql).unwrap();

    let (created, before_rows_read) = {
        let mut db = spec.provision().unwrap();
        assert_eq!(db.backend_kind(), BackendKind::Disk);
        populate(&mut db, 6_000);
        let before = engine.execute(&mut db, &stmt).unwrap();
        let mut monitor = WorkloadMonitor::new();
        observe(&mut db, &mut monitor, sql, 20);
        let outcome = quick_session().run(&mut db, &monitor).unwrap();
        assert!(
            !outcome.created.is_empty(),
            "rejected: {:?}",
            outcome.rejected
        );
        db.check_consistency().unwrap();
        (outcome.created.len(), before.io.rows_read)
    }; // drop checkpoints and closes the files

    let mut db = spec.provision().unwrap();
    assert_eq!(db.table("orders").unwrap().row_count(), 6_000);
    assert_eq!(
        db.all_indexes().len(),
        created,
        "indexes must survive reopen"
    );
    db.check_consistency().unwrap();
    let after = engine.execute(&mut db, &stmt).unwrap();
    assert!(
        after.io.rows_read < before_rows_read / 10,
        "reopened index unused: {} rows read before, {} after",
        before_rows_read,
        after.io.rows_read
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Acceptance criterion: kill-and-reopen restores exactly the committed
/// state. The kill drops every buffered page without flushing, so reopen
/// runs pure WAL redo; page checksums are verified on every read along
/// the way.
#[test]
fn kill_and_reopen_recovers_committed_state() {
    let dir = temp_dir("kill");
    let spec = BackendSpec::disk(&dir);
    let expected: Vec<Vec<Value>> = {
        let mut db = spec.provision().unwrap();
        populate(&mut db, 1_500);
        let mut io = IoStats::new();
        // Post-populate mutations that only the WAL has seen.
        for i in 0..200 {
            db.table_mut("orders")
                .unwrap()
                .update(
                    &vec![Value::Int(i)],
                    vec![Value::Int(i), Value::Int(-1), Value::Int(-1)],
                    &mut io,
                )
                .unwrap();
        }
        for i in 1_400..1_500 {
            db.table_mut("orders")
                .unwrap()
                .delete(&vec![Value::Int(i)], &mut io)
                .unwrap();
        }
        let mut scan_io = IoStats::new();
        let committed: Vec<Vec<Value>> = db
            .table("orders")
            .unwrap()
            .scan_all(&mut scan_io)
            .cloned()
            .collect();
        db.simulate_crash(); // kill: no checkpoint, no flush
        committed
    };
    let db = spec.provision().unwrap();
    let mut scan_io = IoStats::new();
    let recovered: Vec<Vec<Value>> = db
        .table("orders")
        .unwrap()
        .scan_all(&mut scan_io)
        .cloned()
        .collect();
    assert_eq!(
        recovered, expected,
        "recovery must replay every committed batch"
    );
    let counters = db.storage_counters();
    assert!(
        counters.recovered_batches > 0,
        "reopen must have replayed the WAL"
    );
    assert_eq!(
        counters.checksum_failures, 0,
        "no page may fail its checksum"
    );
    db.check_consistency().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// MyShadow contract on disk: validation clones of a disk-backed database
/// are in-memory — experimentation never touches the production files.
#[test]
fn clones_of_disk_database_are_memory_backed() {
    let dir = temp_dir("clone");
    let spec = BackendSpec::disk(&dir);
    let mut db = spec.provision().unwrap();
    populate(&mut db, 500);
    let wal_before = db.storage_counters().wal_bytes;

    let mut clone = db.try_clone().unwrap();
    assert_eq!(clone.backend_kind(), BackendKind::Memory);
    let mut io = IoStats::new();
    for i in 10_000..10_200 {
        clone
            .table_mut("orders")
            .unwrap()
            .insert(vec![Value::Int(i), Value::Int(0), Value::Int(0)], &mut io)
            .unwrap();
    }
    clone
        .create_index(
            aim_storage::IndexDef::new("ix_probe", "orders", vec!["customer".into()]),
            &mut io,
        )
        .unwrap();
    assert_eq!(
        db.storage_counters().wal_bytes,
        wal_before,
        "clone writes must not reach the production WAL"
    );
    drop(db);

    // Production reopens without any trace of the clone's experiments.
    let db = spec.provision().unwrap();
    assert_eq!(db.table("orders").unwrap().row_count(), 500);
    assert!(db.all_indexes().is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A read-only pass on a disk-backed production adopts the test bed's
/// builds: validation hands its bed back, and every accepted index
/// production installs is the bed's own, persisted to the tree a build
/// would write. After a kill and a reopen, WAL redo gives every index
/// entry for entry as a fresh build over the reopened rows gives it, and
/// the reopened trees pass `btree_page::check` (debug builds audit every
/// tree they open).
#[test]
fn a_read_only_pass_on_disk_adopts_the_beds_builds_and_they_survive_a_kill() {
    let dir = temp_dir("adopt");
    let spec = BackendSpec::disk(&dir);
    let mut db = spec.provision().unwrap();
    populate(&mut db, 3_000);
    let mut monitor = WorkloadMonitor::new();
    observe(
        &mut db,
        &mut monitor,
        "SELECT id FROM orders WHERE customer = 42",
        20,
    );
    observe(
        &mut db,
        &mut monitor,
        "SELECT id FROM orders WHERE region = 3 AND id < 90",
        20,
    );
    let selection = SelectionConfig {
        min_executions: 1,
        min_benefit: 0.0,
        ..Default::default()
    };
    let workload = select_workload(&monitor, &selection);
    let candidates = generate_candidates(&db, &workload, &CandidateGenConfig::default());
    let ranked = try_rank_candidates_with(
        &db,
        &workload,
        &candidates,
        &RunCtl::none(),
        &WhatIfCache::new(),
    )
    .unwrap();
    let chosen = knapsack_select(&ranked, u64::MAX, 0);
    let outcome = validate_on_clone(
        &db,
        &workload,
        &chosen,
        &Engine::new(),
        &ValidationConfig::default(),
    )
    .unwrap();
    assert!(
        !outcome.accepted.is_empty(),
        "rejected: {:?}",
        outcome.rejected
    );
    let ix = |db: &Database, def: &IndexDef| {
        db.table(&def.table).unwrap().index(&def.name).unwrap() as *const SecondaryIndex
    };
    let wal_before = db.storage_counters().wal_bytes;
    for r in &outcome.accepted {
        let def = r.candidate.def();
        db.create_index_from(&outcome.bed, def.clone(), &mut IoStats::new())
            .unwrap();
        assert!(
            std::ptr::eq(ix(&db, &def), ix(&outcome.bed, &def)),
            "{} built again",
            def.name
        );
    }
    assert!(
        db.storage_counters().wal_bytes > wal_before,
        "adopted trees are persisted"
    );
    let defs = db.all_indexes();
    db.simulate_crash();
    drop(db);

    let db = spec.provision().unwrap();
    assert_eq!(db.all_indexes(), defs);
    db.check_consistency().unwrap();
    let entries = |db: &Database, def: &IndexDef| {
        let table = db.table(&def.table).unwrap();
        let all = (std::ops::Bound::Unbounded, std::ops::Bound::Unbounded);
        let mut entries = Vec::new();
        let ix = table.index(&def.name).unwrap();
        table.index_range(ix, all, false, &mut IoStats::new(), |e| {
            entries.push(e.key().clone());
            false
        });
        entries
    };
    for def in &defs {
        let mut fresh = db.clone();
        fresh.drop_index(&def.table, &def.name).unwrap();
        fresh
            .create_index(def.clone(), &mut IoStats::new())
            .unwrap();
        assert_eq!(entries(&db, def), entries(&fresh, def), "{}", def.name);
    }
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Measured accounting: on disk, query costs come from real page walks,
/// and the buffer pool's counters move with the traffic.
#[test]
fn disk_queries_charge_real_pages_and_update_pool_counters() {
    let dir = temp_dir("pages");
    let spec = BackendSpec::disk(&dir);
    let mut db = spec.provision().unwrap();
    populate(&mut db, 3_000);
    let before = db.storage_counters();

    let engine = Engine::new();
    let stmt = parse_statement("SELECT id FROM orders WHERE id >= 100 AND id < 600").unwrap();
    let out = engine.execute(&mut db, &stmt).unwrap();
    assert_eq!(out.rows.len(), 500);
    assert!(out.io.pages_read > 0, "range scan must charge real pages");

    let after = db.storage_counters();
    // The working set fits in the pool after populate, so the walk is
    // served by hits — what must move is pool traffic, not disk reads.
    assert!(
        after.bp_hits + after.bp_misses > before.bp_hits + before.bp_misses,
        "buffer pool saw no traffic"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Estimated against measured cost over executed statements: every
/// statement carries the planner's estimate (`Plan::est_cost`) and the
/// cost of the I/O the storage engine charged (`ExecOutcome::cost`: page
/// walks on disk, the model's charges in memory).
#[derive(Debug, Default)]
struct IoAccuracy {
    /// Statements recorded.
    samples: u64,
    est_total: f64,
    actual_total: f64,
    /// Sum of per-statement relative errors `|est - actual| / actual`
    /// over the statements with a measured cost.
    sum_rel_err: f64,
    /// Statements that contributed a relative-error term.
    err_samples: u64,
    /// Pages read and written by the measured executions.
    pages_touched: u64,
}

impl IoAccuracy {
    fn record(&mut self, out: &ExecOutcome) {
        self.record_raw(out.plan.est_cost, out.cost, &out.io);
    }

    fn record_raw(&mut self, est: f64, actual: f64, io: &IoStats) {
        self.samples += 1;
        self.est_total += est;
        self.actual_total += actual;
        self.pages_touched += io.pages_read + io.pages_written;
        if actual > 0.0 {
            self.sum_rel_err += (est - actual).abs() / actual;
            self.err_samples += 1;
        }
    }

    /// Mean relative error across recorded statements (`0.0` when nothing
    /// measurable was recorded): `0.15` is off by 15 % on an average
    /// statement.
    fn mean_relative_error(&self) -> f64 {
        if self.err_samples == 0 {
            0.0
        } else {
            self.sum_rel_err / self.err_samples as f64
        }
    }

    /// Total estimated over total measured cost: `> 1` over-estimates.
    fn bias(&self) -> f64 {
        if self.actual_total > 0.0 {
            self.est_total / self.actual_total
        } else {
            1.0
        }
    }
}

mod io_accuracy {
    use super::*;

    fn io(pages: u64) -> IoStats {
        IoStats {
            pages_read: pages,
            ..IoStats::new()
        }
    }

    #[test]
    fn perfect_estimates_have_zero_error_and_unit_bias() {
        let mut acc = IoAccuracy::default();
        acc.record_raw(10.0, 10.0, &io(3));
        acc.record_raw(4.0, 4.0, &io(1));
        assert_eq!(acc.samples, 2);
        assert_eq!(acc.mean_relative_error(), 0.0);
        assert_eq!(acc.bias(), 1.0);
        assert_eq!(acc.pages_touched, 4);
    }

    #[test]
    fn relative_error_averages_per_statement() {
        let mut acc = IoAccuracy::default();
        acc.record_raw(15.0, 10.0, &io(0)); // 50% over
        acc.record_raw(5.0, 10.0, &io(0)); // 50% under
        assert!((acc.mean_relative_error() - 0.5).abs() < 1e-12);
        assert!((acc.bias() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_actual_contributes_no_error_term() {
        let mut acc = IoAccuracy::default();
        acc.record_raw(3.0, 0.0, &io(0));
        assert_eq!(acc.samples, 1);
        assert_eq!(acc.mean_relative_error(), 0.0);
    }
}

/// The planner's page arithmetic against what execution charges, on both
/// backends: a 4 000-row table swept with point lookups, a PK range, a
/// grouped scan and an unindexed filter. On disk the charges are real page
/// walks, so this is the cost model checked against the pager. Measured
/// at introduction: mean relative error 0.0231 disk / 0.0275 memory, bias
/// 0.986 / 0.997, 258 pages touched on disk.
#[test]
fn estimated_pages_track_measured_pages() {
    const ROWS: i64 = 4_000;
    fn sweep(db: &mut Database) -> (IoAccuracy, Vec<Vec<aim_storage::Row>>) {
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
            .unwrap(),
        )
        .unwrap();
        let mut io = IoStats::new();
        for i in 0..ROWS {
            let row = vec![
                Value::Int(i),
                Value::Int(i % 211),
                Value::Int(i % 9),
                Value::Float((i % 130) as f64),
            ];
            db.table_mut("orders")
                .unwrap()
                .insert(row, &mut io)
                .unwrap();
        }
        db.analyze_all();

        let mut queries: Vec<String> = [7, 42, 99, 150]
            .iter()
            .map(|v| format!("SELECT id FROM orders WHERE customer_id = {v}"))
            .collect();
        queries.push(format!(
            "SELECT id, amount FROM orders WHERE id >= {} AND id < {}",
            ROWS / 4,
            ROWS / 4 + ROWS / 10
        ));
        queries.push("SELECT region, COUNT(*) FROM orders GROUP BY region".into());
        queries.push("SELECT id FROM orders WHERE amount = 64.0".into());

        let engine = Engine::new();
        let mut acc = IoAccuracy::default();
        let mut results = Vec::new();
        for sql in &queries {
            let stmt = parse_statement(sql).unwrap();
            let mut rows = Vec::new();
            for _ in 0..3 {
                let out = engine.execute(db, &stmt).unwrap();
                acc.record(&out);
                rows = out.rows;
            }
            results.push(rows);
        }
        (acc, results)
    }

    let (mem_acc, mem_results) = sweep(&mut Database::new());
    let dir = temp_dir("iocheck");
    let mut disk = BackendSpec::disk(&dir).provision().unwrap();
    let (disk_acc, disk_results) = sweep(&mut disk);
    disk.checkpoint().unwrap();
    let counters = disk.storage_counters();
    drop(disk);
    let _ = std::fs::remove_dir_all(&dir);

    assert_eq!(
        disk_results, mem_results,
        "the sweep must read the same rows on both backends"
    );
    for (backend, acc) in [("memory", &mem_acc), ("disk", &disk_acc)] {
        eprintln!(
            "{backend}: mean relative error {:.4}, bias {:.4}, {} pages touched",
            acc.mean_relative_error(),
            acc.bias(),
            acc.pages_touched
        );
        assert_eq!(acc.samples, 21, "{backend}");
        assert!(
            acc.mean_relative_error() <= 0.05,
            "{backend}: estimates are off by {:.4} on an average statement",
            acc.mean_relative_error()
        );
        assert!(
            (0.9..=1.1).contains(&acc.bias()),
            "{backend}: estimated / measured cost is {:.4}",
            acc.bias()
        );
    }
    assert!(
        disk_acc.pages_touched > 0,
        "disk charges must come from page walks"
    );
    assert!(
        counters.wal_fsyncs > 0 && counters.pages_written > 0,
        "load and checkpoint must reach the WAL and the data file: {counters:?}"
    );
}
