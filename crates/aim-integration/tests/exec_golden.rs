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
            format!(
                "UPDATE orders SET note = 'touched' WHERE id = {}",
                round * 11
            ),
            format!(
                "DELETE FROM orders WHERE id >= {} AND id < {}",
                300 + round * 10,
                305 + round * 10
            ),
            format!(
                "DELETE FROM orders WHERE customer_id = {} AND region = 1",
                round + 20
            ),
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

/// The join shapes whose inner levels the executor may shortcut: an
/// unindexed inner table matched on a key column holding NULLs, `Int` and
/// `Float` that compare equal (`5` / `5.0`, `2^53` / `2^53 + 1`) and
/// strings; conjuncts that fail (integer overflow, `LIKE` on an integer)
/// before and after the key conjunct; non-covering probes whose level
/// conjuncts read the index entry's columns only, others only, and both;
/// index-ordered `ORDER BY … LIMIT`s; an UPDATE and a DELETE that locate
/// their rows through a non-covering probe; and single-table LIMITs read
/// in index order and stopped early: through a non-covering probe whose
/// entry answers a conjunct (rejecting some entries, all, none, or
/// failing), stopped before, on and without reaching the end of its
/// range, and through a covering index and the primary key.
fn edge_join_section(out: &mut String, name: &str, mut db: Database) {
    const BIG: i64 = 1 << 62;
    const P53: i64 = 1 << 53;
    const NULL: Value = Value::Null;
    let (int, float, text) = (Value::Int, Value::Float, |s: &str| Value::Str(s.into()));
    let mut create = |table: &str, columns: &[(&str, ColumnType)]| {
        let columns = columns
            .iter()
            .map(|(c, ty)| ColumnDef::new(*c, *ty))
            .collect();
        db.create_table(TableSchema::new(table, columns, &["id"]).unwrap())
            .unwrap();
    };
    use ColumnType::{Float as F, Int as I, Str as S};
    let wide = [("id", I), ("k", I), ("f", F), ("s", S), ("n", I), ("t", S)];
    create("a", &wide);
    create("b", &wide);
    create("c", &[("id", I), ("x", I), ("y", I), ("z", S)]);

    // Outer rows, in key order: the first one's key columns are all NULL,
    // and only those whose `k` is 5 have a pattern `t`.
    let a_rows = [
        [int(1), NULL, NULL, NULL, int(1), NULL],
        [int(2), int(5), float(5.0), text("x"), int(2), text("x%")],
        [
            int(3),
            int(P53 + 1),
            float(P53 as f64),
            text("ab"),
            int(3),
            NULL,
        ],
        [int(4), int(P53), float(-0.0), text(""), int(-1), NULL],
        [int(5), float(5.0), int(7), text("ab"), int(0), text("_b")],
        [int(6), int(7), float(0.0), text("zz"), int(2), NULL],
    ];
    // Inner rows: every kind of key value, a huge `n` only where `k` is
    // NULL (so `a.n * b.n` overflows only on pairs the key rejects), and a
    // string `t` only where `k` is 5 (so `b.t LIKE a.t` fails everywhere else).
    let keys = [
        NULL,
        int(5),
        float(5.0),
        int(P53),
        int(P53 + 1),
        float(P53 as f64),
        int(7),
        float(-0.0),
    ];
    let strings = [NULL, text("x"), text("ab"), text(""), text("AB")];
    let mut io = aim_storage::IoStats::new();
    for row in a_rows {
        db.table_mut("a")
            .unwrap()
            .insert(row.to_vec(), &mut io)
            .unwrap();
    }
    for i in 0..40i64 {
        let k = keys[i as usize % keys.len()].clone();
        let n = if k.is_null() { int(BIG) } else { int(i % 9) };
        let t = if matches!(k, Value::Int(5) | Value::Float(5.0)) {
            text(["x1", "ab"][i as usize % 2])
        } else {
            int(i)
        };
        let row = vec![
            int(i),
            k,
            keys[(i as usize * 3 + 1) % keys.len()].clone(),
            strings[i as usize % strings.len()].clone(),
            n,
            t,
        ];
        db.table_mut("b").unwrap().insert(row, &mut io).unwrap();
    }
    for i in 0..800i64 {
        let x = match i % 400 {
            0 => NULL,
            5 => float(3.0),
            r => int(r),
        };
        let row = vec![int(i), x, int(i * 7 % 50), text(&format!("z{i}"))];
        db.table_mut("c").unwrap().insert(row, &mut io).unwrap();
    }
    db.analyze_all();

    let texts = [
        // Inner full scans matched on a key column.
        "SELECT a.id, b.id FROM a, b WHERE a.k = b.k",
        "SELECT a.id, b.id, b.f FROM a, b WHERE a.f = b.k",
        "SELECT a.id, b.id FROM a, b WHERE b.s = a.s",
        "SELECT a.id, b.id FROM a, b WHERE a.k = b.f AND b.n > 3",
        "SELECT a.id, b.id FROM a, b WHERE b.n > 3 AND a.k = b.k",
        "SELECT a.id, b.id FROM a, b WHERE b.n IN (1, 2, 3) AND b.s IS NOT NULL \
         AND b.id BETWEEN 2 AND 30 AND a.s = b.s",
        "SELECT a.id, b.id FROM a, b WHERE a.k <=> b.k",
        "SELECT a.id, b.id FROM a, b WHERE a.k = b.k AND b.id = a.n + 1",
        "SELECT a.s, COUNT(*), SUM(b.n), MIN(b.f) FROM a, b WHERE a.k = b.k GROUP BY a.s",
        "SELECT b1.id, b2.id FROM b AS b1, b AS b2 WHERE b1.k = b2.k AND b1.id < b2.id",
        "SELECT a.id, b.id, d.id FROM a, b, b AS d WHERE a.k = b.k AND b.s = d.s AND d.n < 4",
        "SELECT a.id, b.id FROM a, b WHERE a.k = b.k AND a.id = 2",
        "SELECT a.id, b.id FROM a, b WHERE a.k = b.k ORDER BY a.id LIMIT 3",
        "SELECT a.id, b.id FROM a, b WHERE a.k = b.k ORDER BY b.id DESC LIMIT 4",
        // Conjuncts that fail, before and after the key conjunct.
        "SELECT a.id, b.id FROM a, b WHERE a.n * b.n > 0 AND a.k = b.k",
        "SELECT a.id, b.id FROM a, b WHERE a.k = b.k AND a.n * b.n > 0",
        "SELECT a.id, b.id FROM a, b WHERE b.t LIKE a.t AND a.k = b.k",
        "SELECT a.id, b.id FROM a, b WHERE a.k = b.k AND b.t LIKE a.t",
        // Non-covering probes of ix_c_x.
        "CREATE INDEX ix_c_x ON c (x)",
        "SELECT id, z FROM c WHERE x = 3",
        "SELECT id, z FROM c WHERE x = 3 AND id > 400",
        "SELECT id, z FROM c WHERE x = 3 AND y > 30",
        "SELECT id, z FROM c WHERE y > 30 AND x = 3",
        "SELECT id, z FROM c WHERE x = 3 AND id > 100 AND y < 40 AND z LIKE 'z4%'",
        "SELECT id, z FROM c WHERE x IN (1, 3, 6) AND id BETWEEN 5 AND 400 AND z <> 'z103'",
        "SELECT id, z FROM c WHERE x = 3 AND id * 4611686018427387904 > 0",
        "SELECT id, z FROM c WHERE x = 3 AND z LIKE id",
        "SELECT a.id, c.id, c.z FROM a, c WHERE a.n = c.x AND c.id > 10",
        "SELECT a.id, c.id, c.z FROM a, c WHERE a.n = c.x AND c.y < 40 AND c.id > 10",
        "SELECT a.id, c.id FROM a, c WHERE c.y > a.n AND a.n = c.x",
        "SELECT a.id, c.id, c.z FROM a, c WHERE a.k = c.x AND c.id < a.n + 300",
        "SELECT COUNT(*), SUM(c.y) FROM a, c WHERE a.n = c.x AND c.id >= 8",
        // An index-ordered ORDER BY … LIMIT.
        "SELECT id, z FROM c WHERE x BETWEEN 100 AND 103 ORDER BY x LIMIT 4",
        "SELECT id, z FROM c WHERE x > 390 AND y > 10 ORDER BY x LIMIT 4",
        "SELECT a.id, c.id FROM c, a WHERE c.x >= 97 AND c.x = a.n + 95 ORDER BY c.x LIMIT 3",
        // Writes located through a non-covering probe, and what they leave.
        "UPDATE c SET z = 'u' WHERE x = 3 AND y > 30",
        "SELECT id, z FROM c WHERE x = 3",
        "DELETE FROM c WHERE x = 2 AND id < 400",
        "SELECT id, x, z FROM c WHERE x >= 1 AND x <= 3",
        "SELECT a.id, c.id, c.z FROM a, c WHERE a.n = c.x AND c.id > 10",
        // Streamed index-ordered LIMITs: through the non-covering ix_c_x
        // with a conjunct its entry answers (rejecting some entries, all
        // of them, none, and failing on one), stopped early or read to the
        // end; and through a covering index and the primary key.
        "SELECT id, z FROM c WHERE x BETWEEN 391 AND 394 AND id + 0 > 100 ORDER BY x LIMIT 3",
        "SELECT id, z FROM c WHERE x BETWEEN 391 AND 394 AND id + 0 > 400 ORDER BY x LIMIT 3",
        "SELECT id, y FROM c WHERE x BETWEEN 394 AND 397 AND id + 0 > 795 ORDER BY x LIMIT 2",
        "SELECT id, z FROM c WHERE x > 395 AND id + 0 < 5 ORDER BY x LIMIT 3",
        "SELECT id, z FROM c WHERE x BETWEEN 200 AND 203 AND id * 4611686018427387904 > 0 \
         ORDER BY x LIMIT 2",
        "SELECT id, z FROM c WHERE x BETWEEN 391 AND 394 AND id + 0 > 400 AND y < 30 \
         ORDER BY x LIMIT 2",
        "SELECT id, z FROM c WHERE x BETWEEN 391 AND 394 AND id + 0 > 400 ORDER BY x LIMIT 0",
        "SELECT id, y FROM c WHERE x BETWEEN 100 AND 101 ORDER BY x LIMIT 3",
        "SELECT id FROM c WHERE x BETWEEN 100 AND 400 ORDER BY x LIMIT 4",
        "SELECT id FROM c WHERE x BETWEEN 100 AND 400 ORDER BY x",
        "SELECT id, x FROM c WHERE id BETWEEN 100 AND 700 ORDER BY id LIMIT 5",
    ];
    let stmts: Vec<(String, Statement)> = texts
        .iter()
        .enumerate()
        .map(|(i, sql)| {
            let stmt = parse_statement(sql).unwrap_or_else(|e| panic!("{e}\n{sql}"));
            (format!("{i}"), stmt)
        })
        .collect();
    run_section(out, name, &mut db, &stmts, None);
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
    edge_join_section(&mut actual, "edge.mem", Database::new());
    edge_join_section(
        &mut actual,
        "edge.disk",
        BackendSpec::disk(&dir).provision().expect("disk backend"),
    );
    let _ = std::fs::remove_dir_all(&dir);
    // A pool of four frames, fewer than the section's pages: each line's
    // `pages_faulted` depends on every page touched before it, in order.
    let small_pool = BackendSpec::Disk {
        dir: dir.clone(),
        pool_frames: 4,
        wal_autocheckpoint_bytes: 0,
    };
    edge_join_section(
        &mut actual,
        "edge.pool4",
        small_pool.provision().expect("disk backend"),
    );
    let _ = std::fs::remove_dir_all(&dir);

    common::assert_matches_golden("exec_digest.txt", &actual);
}
