//! Differential oracle for the executor: one digest line per executed
//! statement, compared against a committed file instead of against a second
//! implementation.
//!
//! Each line carries an FNV-1a digest over the result rows (in order, with
//! their exact value variants and float bits), every `IoStats` field,
//! `cost.to_bits()`, `affected` and `plan.access_summary()`, next to the
//! row count and rows read so that a changed line says what kind of
//! statement moved. Any executor change that alters a result, its order, a
//! charged page or the chosen plan changes the file.
//!
//! The golden file lives in `tests/golden/`; regenerate intentionally with
//! `BLESS=1 cargo test -p aim-integration --test exec_golden`.

mod common;

use aim_core::{AimConfig, BackendSpec};
use aim_exec::{Engine, ExecError, ExecOutcome};
use aim_monitor::{SelectionConfig, WorkloadMonitor};
use aim_sql::normalize::fnv1a;
use aim_sql::{parse_statement, Statement};
use aim_storage::{ColumnDef, ColumnType, Database, TableSchema, Value};
use aim_workloads::{job, production, tpch};
use std::fmt::Write as _;

fn encode_value(v: &Value, buf: &mut Vec<u8>) {
    match v {
        Value::Null => buf.push(0),
        Value::Bool(b) => buf.extend([1, u8::from(*b)]),
        Value::Int(i) => {
            buf.push(2);
            buf.extend(i.to_le_bytes());
        }
        Value::Float(f) => {
            buf.push(3);
            buf.extend(f.to_bits().to_le_bytes());
        }
        Value::Str(s) => {
            buf.push(4);
            buf.extend((s.len() as u64).to_le_bytes());
            buf.extend(s.as_bytes());
        }
        Value::MaxKey => buf.push(5),
    }
}

fn digest(out: &ExecOutcome) -> u64 {
    let mut buf = Vec::new();
    buf.extend((out.rows.len() as u64).to_le_bytes());
    for row in &out.rows {
        buf.extend((row.len() as u64).to_le_bytes());
        for v in row {
            encode_value(v, &mut buf);
        }
    }
    let io = &out.io;
    for n in [
        io.pages_read,
        io.seeks,
        io.rows_read,
        io.rows_written,
        io.pages_written,
        io.pages_faulted,
        out.cost.to_bits(),
        out.affected,
    ] {
        buf.extend(n.to_le_bytes());
    }
    buf.extend(out.plan.access_summary().as_bytes());
    fnv1a(&buf)
}

fn error_kind(e: &ExecError) -> &'static str {
    match e {
        ExecError::Storage(_) => "Storage",
        ExecError::Binding(_) => "Binding",
        ExecError::Unsupported(_) => "Unsupported",
        ExecError::Eval(_) => "Eval",
        ExecError::FaultInjected { .. } => "FaultInjected",
    }
}

/// Executes every statement in order, appending one line each, and feeds
/// the monitor when one is given.
fn run_section(
    out: &mut String,
    section: &str,
    db: &mut Database,
    stmts: &[(String, Statement)],
    mut monitor: Option<&mut WorkloadMonitor>,
) {
    let engine = Engine::new();
    for (label, stmt) in stmts {
        match engine.execute(db, stmt) {
            Ok(o) => {
                writeln!(
                    out,
                    "{section} {label} {:016x} rows={} read={} affected={}",
                    digest(&o),
                    o.rows.len(),
                    o.io.rows_read,
                    o.affected
                )
                .unwrap();
                if let Some(m) = monitor.as_deref_mut() {
                    m.record(stmt, &o);
                }
            }
            Err(e) => writeln!(out, "{section} {label} error {}", error_kind(&e)).unwrap(),
        }
    }
}

fn parsed(texts: Vec<(String, String)>, prefix: &str) -> Vec<(String, Statement)> {
    texts
        .into_iter()
        .map(|(name, sql)| {
            let stmt = parse_statement(&sql).unwrap_or_else(|e| panic!("{name}: {e}\n{sql}"));
            (format!("{prefix}{name}"), stmt)
        })
        .collect()
}

fn session() -> aim_core::TuningSession {
    AimConfig::builder()
        .selection(SelectionConfig {
            min_executions: 1,
            min_benefit: 0.0,
            max_queries: usize::MAX,
            include_dml: true,
        })
        .session()
}

/// Runs `stmts` on the index-free database, tunes it from what the monitor
/// saw, and runs them again on the tuned database.
fn before_and_after_tuning(
    out: &mut String,
    name: &str,
    db: &mut Database,
    stmts: &[(String, Statement)],
) {
    let mut monitor = WorkloadMonitor::new();
    run_section(out, &format!("{name}.pre"), db, stmts, Some(&mut monitor));
    let outcome = session().run(db, &monitor).expect("tuning pass");
    writeln!(out, "{name}.tune created={}", outcome.created.len()).unwrap();
    run_section(out, &format!("{name}.post"), db, stmts, None);
}

fn tpch_section(out: &mut String) {
    let mut db = tpch::build_database(&tpch::TpchConfig::default());
    let mut stmts = parsed(tpch::query_texts(0xA1), "s0.");
    stmts.extend(parsed(tpch::query_texts(0xA2), "s1."));
    before_and_after_tuning(out, "tpch", &mut db, &stmts);
}

fn job_section(out: &mut String) {
    let mut db = job::build_database(&job::JobConfig {
        titles: 1500,
        ..Default::default()
    });
    let stmts = parsed(job::query_texts(0x10B), "");
    before_and_after_tuning(out, "job", &mut db, &stmts);
}

/// Every variant of every Product B query spec on its index-free database,
/// then again with the DBA oracle's indexes: full scans, PK and secondary
/// lookups, covering scans and joins over 184 tables, reads and writes.
/// The 9 544 statements fold into one line per spec (the digest of its
/// variants' lines) to keep the golden file reviewable.
fn product_b_section(out: &mut String) {
    let w = production::build(&production::profiles()[1]);
    let mut db = w.db;
    let mut run = |section: &str, db: &mut Database| {
        for (q, spec) in w.specs.iter().enumerate() {
            let stmts: Vec<(String, Statement)> = spec
                .variants
                .iter()
                .enumerate()
                .map(|(v, stmt)| (format!("{v}"), stmt.clone()))
                .collect();
            let mut lines = String::new();
            run_section(&mut lines, "", db, &stmts, None);
            writeln!(
                out,
                "{section} q{q} {:016x} stmts={}",
                fnv1a(lines.as_bytes()),
                stmts.len()
            )
            .unwrap();
        }
    };
    run("prodb.pre", &mut db);
    production::apply_indexes(&mut db, &w.dba_indexes);
    run("prodb.post", &mut db);
}

/// INSERT / UPDATE / DELETE interleaved with the reads that observe them,
/// with a secondary index appearing halfway so both write paths (with and
/// without index maintenance) and both read paths are digested.
fn dml_statements() -> Vec<(String, Statement)> {
    let mut texts: Vec<String> = Vec::new();
    for id in 0..400i64 {
        texts.push(format!(
            "INSERT INTO orders (id, customer_id, region, amount, note) \
             VALUES ({id}, {}, {}, {}.5, 'note-{id}')",
            (id * 7) % 31,
            id % 5,
            (id * 13) % 200
        ));
    }
    let reads = [
        "SELECT id, amount FROM orders WHERE customer_id = 7",
        "SELECT region, COUNT(*), SUM(amount) FROM orders GROUP BY region",
        "SELECT id, note FROM orders WHERE id >= 100 AND id < 140",
        "SELECT customer_id, MAX(amount) FROM orders WHERE region = 2 \
         GROUP BY customer_id ORDER BY customer_id LIMIT 5",
        "SELECT DISTINCT region FROM orders WHERE amount > 100 ORDER BY region DESC",
    ];
    let writes = |round: i64| {
        vec![
            format!(
                "UPDATE orders SET amount = amount + {round}, region = {} WHERE customer_id = {}",
                round % 5,
                round + 3
            ),
            format!("UPDATE orders SET note = 'touched' WHERE id = {}", round * 11),
            format!("DELETE FROM orders WHERE id >= {} AND id < {}", 300 + round * 10, 305 + round * 10),
            format!("DELETE FROM orders WHERE customer_id = {} AND region = 1", round + 20),
            format!(
                "INSERT INTO orders (id, customer_id, region, amount, note) \
                 VALUES ({}, 7, 3, 9.25, 'late')",
                1000 + round
            ),
        ]
    };
    for round in 0..3 {
        texts.extend(reads.iter().map(|s| s.to_string()));
        texts.extend(writes(round));
    }
    texts.push("CREATE INDEX ix_orders_customer ON orders (customer_id, region)".into());
    for round in 3..6 {
        texts.extend(reads.iter().map(|s| s.to_string()));
        texts.extend(writes(round));
    }
    texts.extend(reads.iter().map(|s| s.to_string()));
    texts
        .into_iter()
        .enumerate()
        .map(|(i, sql)| {
            let stmt = parse_statement(&sql).unwrap_or_else(|e| panic!("{e}\n{sql}"));
            (format!("{i}"), stmt)
        })
        .collect()
}

fn dml_section(out: &mut String, name: &str, mut db: Database) {
    db.create_table(
        TableSchema::new(
            "orders",
            vec![
                ColumnDef::new("id", ColumnType::Int),
                ColumnDef::new("customer_id", ColumnType::Int),
                ColumnDef::new("region", ColumnType::Int),
                ColumnDef::new("amount", ColumnType::Float),
                ColumnDef::new("note", ColumnType::Str),
            ],
            &["id"],
        )
        .unwrap(),
    )
    .unwrap();
    run_section(out, name, &mut db, &dml_statements(), None);
}

#[test]
fn executor_digests_match_golden() {
    let mut actual = String::new();
    tpch_section(&mut actual);
    job_section(&mut actual);
    product_b_section(&mut actual);
    dml_section(&mut actual, "dml.mem", Database::new());
    let dir = std::env::temp_dir().join(format!("aim-exec-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dml_section(
        &mut actual,
        "dml.disk",
        BackendSpec::disk(&dir).provision().expect("disk backend"),
    );
    let _ = std::fs::remove_dir_all(&dir);

    common::assert_matches_golden("exec_digest.txt", &actual);
}
