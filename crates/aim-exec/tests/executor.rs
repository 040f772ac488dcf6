//! End-to-end executor tests: SQL in, rows out, with physical accounting.

use aim_exec::{AccessPath, Engine, ExecError, IndexChoice};
use aim_sql::parse_statement;
use aim_storage::{ColumnDef, ColumnType, Database, IndexDef, IoStats, TableSchema, Value};

/// orders(id, customer_id, status, amount, region) with deterministic data.
fn orders_db(n: i64) -> Database {
    let mut db = Database::new();
    db.create_table(
        TableSchema::new(
            "orders",
            vec![
                ColumnDef::new("id", ColumnType::Int),
                ColumnDef::new("customer_id", ColumnType::Int),
                ColumnDef::new("status", ColumnType::Str),
                ColumnDef::new("amount", ColumnType::Float),
                ColumnDef::new("region", ColumnType::Int),
            ],
            &["id"],
        )
        .unwrap(),
    )
    .unwrap();
    let mut io = IoStats::new();
    let statuses = ["open", "shipped", "closed"];
    for i in 0..n {
        db.table_mut("orders")
            .unwrap()
            .insert(
                vec![
                    Value::Int(i),
                    Value::Int(i % 50),
                    Value::Str(statuses[(i % 3) as usize].to_string()),
                    Value::Float((i % 97) as f64 * 1.5),
                    Value::Int(i % 7),
                ],
                &mut io,
            )
            .unwrap();
    }
    db.analyze_all();
    db
}

fn customers_db(db: &mut Database, n: i64) {
    db.create_table(
        TableSchema::new(
            "customers",
            vec![
                ColumnDef::new("id", ColumnType::Int),
                ColumnDef::new("name", ColumnType::Str),
                ColumnDef::new("tier", ColumnType::Int),
            ],
            &["id"],
        )
        .unwrap(),
    )
    .unwrap();
    let mut io = IoStats::new();
    for i in 0..n {
        db.table_mut("customers")
            .unwrap()
            .insert(
                vec![
                    Value::Int(i),
                    Value::Str(format!("cust{i}")),
                    Value::Int(i % 4),
                ],
                &mut io,
            )
            .unwrap();
    }
    db.analyze_all();
}

fn run(db: &mut Database, sql: &str) -> aim_exec::ExecOutcome {
    let engine = Engine::new();
    let stmt = parse_statement(sql).unwrap();
    engine.execute(db, &stmt).unwrap()
}

#[test]
fn point_query_via_pk() {
    let mut db = orders_db(1000);
    let out = run(&mut db, "SELECT id, amount FROM orders WHERE id = 42");
    assert_eq!(out.rows.len(), 1);
    assert_eq!(out.rows[0][0], Value::Int(42));
    // One seek, not a scan.
    assert!(out.io.rows_read <= 2, "rows_read = {}", out.io.rows_read);
}

#[test]
fn equality_filter_correct_with_and_without_index() {
    let mut db = orders_db(3000);
    let base = run(&mut db, "SELECT id FROM orders WHERE customer_id = 7");
    let mut io = IoStats::new();
    db.create_index(
        IndexDef::new("ix_cust", "orders", vec!["customer_id".into()]),
        &mut io,
    )
    .unwrap();
    let indexed = run(&mut db, "SELECT id FROM orders WHERE customer_id = 7");
    let mut a = base.rows.clone();
    let mut b = indexed.rows.clone();
    a.sort();
    b.sort();
    assert_eq!(a, b);
    assert!(indexed.io.rows_read < base.io.rows_read / 5);
}

#[test]
fn index_chosen_plan_reported() {
    let mut db = orders_db(3000);
    let mut io = IoStats::new();
    db.create_index(
        IndexDef::new("ix_cust", "orders", vec!["customer_id".into()]),
        &mut io,
    )
    .unwrap();
    let out = run(&mut db, "SELECT id FROM orders WHERE customer_id = 7");
    assert!(matches!(out.plan.steps[0].path, AccessPath::IndexScan(_)));
    let used = out.plan.used_indexes();
    assert_eq!(used.len(), 1);
}

#[test]
fn is_null_plans_through_an_index_and_equals_null_selects_nothing() {
    let mut db = orders_db(3000);
    // A tenth of the rows, 300, lose their region.
    run(
        &mut db,
        "UPDATE orders SET region = NULL WHERE customer_id < 5",
    );
    db.analyze_all();
    let sorted = |mut rows: Vec<Vec<Value>>| {
        rows.sort();
        rows
    };
    let scanned = sorted(run(&mut db, "SELECT id FROM orders WHERE region IS NULL").rows);
    assert_eq!(scanned.len(), 300);
    assert!(run(&mut db, "SELECT id FROM orders WHERE region = NULL")
        .rows
        .is_empty());

    let mut io = IoStats::new();
    db.create_index(
        IndexDef::new("ix_region", "orders", vec!["region".into()]),
        &mut io,
    )
    .unwrap();
    for sql in [
        "SELECT id FROM orders WHERE region IS NULL",
        "SELECT id FROM orders WHERE region <=> NULL",
    ] {
        let out = run(&mut db, sql);
        let used = out.plan.used_indexes();
        assert!(
            matches!(&used[..], [(0, IndexChoice::Secondary(n))] if n == "ix_region"),
            "{sql}: {used:?}"
        );
        assert!(
            out.io.rows_read < 3000 / 5,
            "{sql}: {} rows read",
            out.io.rows_read
        );
        assert_eq!(sorted(out.rows), scanned, "{sql}");
    }
    assert!(run(&mut db, "SELECT id FROM orders WHERE region = NULL")
        .rows
        .is_empty());
}

#[test]
fn range_and_prefix_composite_index() {
    let mut db = orders_db(3000);
    let mut io = IoStats::new();
    db.create_index(
        IndexDef::new(
            "ix_cr",
            "orders",
            vec!["customer_id".into(), "region".into()],
        ),
        &mut io,
    )
    .unwrap();
    let out = run(
        &mut db,
        "SELECT id FROM orders WHERE customer_id = 7 AND region > 2",
    );
    let expected: Vec<i64> = (0..3000).filter(|i| i % 50 == 7 && i % 7 > 2).collect();
    assert_eq!(out.rows.len(), expected.len());
}

#[test]
fn in_list_probes() {
    let mut db = orders_db(2000);
    let mut io = IoStats::new();
    db.create_index(
        IndexDef::new("ix_cust", "orders", vec!["customer_id".into()]),
        &mut io,
    )
    .unwrap();
    let out = run(
        &mut db,
        "SELECT id FROM orders WHERE customer_id IN (3, 17, 31)",
    );
    let expected = (0..2000)
        .filter(|i| [3, 17, 31].contains(&(i % 50)))
        .count();
    assert_eq!(out.rows.len(), expected);
}

#[test]
fn join_two_tables() {
    let mut db = orders_db(1000);
    customers_db(&mut db, 50);
    let out = run(
        &mut db,
        "SELECT o.id, c.name FROM orders o, customers c \
         WHERE o.customer_id = c.id AND c.tier = 2 AND o.region = 1",
    );
    let expected = (0..1000i64)
        .filter(|i| (i % 50) % 4 == 2 && i % 7 == 1)
        .count();
    assert_eq!(out.rows.len(), expected);
}

#[test]
fn join_uses_pk_probe_on_inner() {
    // The inner table must be large enough that repeated full scans lose
    // to PK probes (tiny inner tables legitimately favour scans).
    let mut db = orders_db(1000);
    customers_db(&mut db, 5000);
    let out = run(
        &mut db,
        "SELECT o.id, c.name FROM orders o, customers c WHERE o.customer_id = c.id AND o.id < 10",
    );
    assert_eq!(out.rows.len(), 10);
    // The inner customers access must be index probes, not 10 full scans.
    let inner = &out.plan.steps[1];
    assert!(
        matches!(inner.path, AccessPath::IndexScan(_)),
        "{:?}",
        inner.path
    );
}

#[test]
fn three_way_join() {
    let mut db = orders_db(500);
    customers_db(&mut db, 50);
    db.create_table(
        TableSchema::new(
            "regions",
            vec![
                ColumnDef::new("id", ColumnType::Int),
                ColumnDef::new("name", ColumnType::Str),
            ],
            &["id"],
        )
        .unwrap(),
    )
    .unwrap();
    let mut io = IoStats::new();
    for i in 0..7 {
        db.table_mut("regions")
            .unwrap()
            .insert(
                vec![Value::Int(i), Value::Str(format!("region{i}"))],
                &mut io,
            )
            .unwrap();
    }
    db.analyze_all();
    let out = run(
        &mut db,
        "SELECT o.id, c.name, r.name FROM orders o, customers c, regions r \
         WHERE o.customer_id = c.id AND o.region = r.id AND r.id = 3 AND c.tier = 0",
    );
    let expected = (0..500i64)
        .filter(|i| i % 7 == 3 && (i % 50) % 4 == 0)
        .count();
    assert_eq!(out.rows.len(), expected);
}

#[test]
fn explicit_join_syntax_equivalent() {
    let mut db = orders_db(500);
    customers_db(&mut db, 50);
    let a = run(
        &mut db,
        "SELECT o.id FROM orders o JOIN customers c ON o.customer_id = c.id WHERE c.tier = 1",
    );
    let b = run(
        &mut db,
        "SELECT o.id FROM orders o, customers c WHERE o.customer_id = c.id AND c.tier = 1",
    );
    let (mut x, mut y) = (a.rows.clone(), b.rows.clone());
    x.sort();
    y.sort();
    assert_eq!(x, y);
}

#[test]
fn group_by_count_sum() {
    let mut db = orders_db(300);
    let out = run(
        &mut db,
        "SELECT region, COUNT(*), SUM(amount) FROM orders GROUP BY region ORDER BY region",
    );
    assert_eq!(out.rows.len(), 7);
    // Region 0 appears ceil(300/7)=43 times for i%7==0.
    let count0 = (0..300).filter(|i| i % 7 == 0).count() as i64;
    assert_eq!(out.rows[0][1], Value::Int(count0));
    let sum0: f64 = (0..300i64)
        .filter(|i| i % 7 == 0)
        .map(|i| (i % 97) as f64 * 1.5)
        .sum();
    match &out.rows[0][2] {
        Value::Float(f) => assert!((f - sum0).abs() < 1e-6),
        other => panic!("{other:?}"),
    }
}

#[test]
fn aggregate_without_group_by() {
    let mut db = orders_db(100);
    let out = run(&mut db, "SELECT COUNT(*), MIN(id), MAX(id) FROM orders");
    assert_eq!(
        out.rows,
        vec![vec![Value::Int(100), Value::Int(0), Value::Int(99)]]
    );
}

#[test]
fn having_filters_groups() {
    let mut db = orders_db(300);
    let out = run(
        &mut db,
        "SELECT customer_id, COUNT(*) FROM orders GROUP BY customer_id HAVING COUNT(*) > 5",
    );
    for row in &out.rows {
        match row[1] {
            Value::Int(c) => assert!(c > 5),
            _ => panic!(),
        }
    }
}

#[test]
fn order_by_desc_and_limit() {
    let mut db = orders_db(100);
    let out = run(&mut db, "SELECT id FROM orders ORDER BY id DESC LIMIT 5");
    let ids: Vec<Value> = out.rows.iter().map(|r| r[0].clone()).collect();
    assert_eq!(
        ids,
        vec![
            Value::Int(99),
            Value::Int(98),
            Value::Int(97),
            Value::Int(96),
            Value::Int(95)
        ]
    );
}

#[test]
fn order_by_limit_via_index_reads_few_rows() {
    let mut db = orders_db(5000);
    let mut io = IoStats::new();
    db.create_index(
        IndexDef::new("ix_region", "orders", vec!["region".into()]),
        &mut io,
    )
    .unwrap();
    let out = run(
        &mut db,
        "SELECT region, id FROM orders ORDER BY region LIMIT 10",
    );
    assert_eq!(out.rows.len(), 10);
    assert!(out.plan.order_via_index);
    assert!(
        out.io.rows_read < 100,
        "early termination expected, read {}",
        out.io.rows_read
    );
    // All returned regions must be the minimum region value.
    assert!(out.rows.iter().all(|r| r[0] == Value::Int(0)));
}

#[test]
fn distinct_dedupes() {
    let mut db = orders_db(100);
    let out = run(&mut db, "SELECT DISTINCT region FROM orders");
    assert_eq!(out.rows.len(), 7);
}

#[test]
fn or_union_correctness() {
    let mut db = orders_db(2000);
    let base = run(
        &mut db,
        "SELECT id FROM orders WHERE customer_id = 3 OR region = 5",
    );
    let mut io = IoStats::new();
    db.create_index(
        IndexDef::new("ix_cust", "orders", vec!["customer_id".into()]),
        &mut io,
    )
    .unwrap();
    db.create_index(
        IndexDef::new("ix_region", "orders", vec!["region".into()]),
        &mut io,
    )
    .unwrap();
    let indexed = run(
        &mut db,
        "SELECT id FROM orders WHERE customer_id = 3 OR region = 5",
    );
    let (mut a, mut b) = (base.rows.clone(), indexed.rows.clone());
    a.sort();
    b.sort();
    assert_eq!(a, b);
}

#[test]
fn covering_index_avoids_base_lookups() {
    let mut db = orders_db(5000);
    let mut io = IoStats::new();
    db.create_index(
        IndexDef::new(
            "ix_cov",
            "orders",
            vec!["customer_id".into(), "region".into()],
        ),
        &mut io,
    )
    .unwrap();
    // (customer_id, region) + PK id covers the query.
    let out = run(
        &mut db,
        "SELECT customer_id, region, id FROM orders WHERE customer_id = 9",
    );
    let expected = (0..5000).filter(|i| i % 50 == 9).count();
    assert_eq!(out.rows.len(), expected);
    match &out.plan.steps[0].path {
        AccessPath::IndexScan(ix) => assert!(ix.covering),
        other => panic!("{other:?}"),
    }
    // Covering: roughly one seek, no per-row base lookups.
    assert!(out.io.seeks < 5, "seeks = {}", out.io.seeks);
}

#[test]
fn insert_update_delete_roundtrip() {
    let mut db = orders_db(10);
    let ins = run(
        &mut db,
        "INSERT INTO orders (id, customer_id, status, amount, region) \
         VALUES (100, 1, 'open', 5.0, 2), (101, 2, 'open', 6.0, 3)",
    );
    assert_eq!(ins.affected, 2);
    assert_eq!(db.table("orders").unwrap().row_count(), 12);

    let upd = run(&mut db, "UPDATE orders SET region = 6 WHERE id = 100");
    assert_eq!(upd.affected, 1);
    let check = run(&mut db, "SELECT region FROM orders WHERE id = 100");
    assert_eq!(check.rows[0][0], Value::Int(6));

    let del = run(&mut db, "DELETE FROM orders WHERE id >= 100");
    assert_eq!(del.affected, 2);
    assert_eq!(db.table("orders").unwrap().row_count(), 10);
}

#[test]
fn update_with_expression_rhs() {
    let mut db = orders_db(10);
    run(
        &mut db,
        "UPDATE orders SET region = region + 10 WHERE id = 3",
    );
    let check = run(&mut db, "SELECT region FROM orders WHERE id = 3");
    assert_eq!(check.rows[0][0], Value::Int(3 + 10));
}

/// An UPDATE that fails on one of its rows writes none of them, so what it
/// leaves behind does not depend on the order its plan located the rows in:
/// here an index on `amount` hands them over in another order than the
/// primary key does, and `region * 1844674407370955162` overflows from
/// `region = 5` on.
#[test]
fn a_failed_update_writes_no_row_whichever_plan_located_them() {
    let mut plain = orders_db(20_000);
    let mut indexed = plain.clone();
    indexed
        .create_index(
            IndexDef::new("ix_amount", "orders", vec!["amount".into()]),
            &mut IoStats::new(),
        )
        .unwrap();
    let update = parse_statement(
        "UPDATE orders SET region = region * 1844674407370955162 WHERE amount >= 142.5",
    )
    .unwrap();
    for db in [&mut plain, &mut indexed] {
        let err = Engine::new().execute(db, &update).unwrap_err();
        assert!(matches!(err, ExecError::Eval(_)), "{err}");
        let out = run(db, "SELECT id FROM orders WHERE region > 100");
        assert!(out.rows.is_empty(), "{} rows written", out.rows.len());
    }
}

/// An UPDATE may not assign a primary-key column: refused when the
/// statement binds, before any row is located or written.
#[test]
fn an_update_of_the_primary_key_is_refused_when_it_binds() {
    let mut db = orders_db(10);
    let update = parse_statement("UPDATE orders SET id = id + 100 WHERE id >= 5").unwrap();
    let err = Engine::new().execute(&mut db, &update).unwrap_err();
    assert!(matches!(err, ExecError::Binding(_)), "{err}");
    let out = run(&mut db, "SELECT id FROM orders WHERE id >= 5");
    assert_eq!(out.rows.len(), 5);
}

#[test]
fn dml_maintains_indexes() {
    let mut db = orders_db(100);
    let mut io = IoStats::new();
    db.create_index(
        IndexDef::new("ix_region", "orders", vec!["region".into()]),
        &mut io,
    )
    .unwrap();
    run(
        &mut db,
        "INSERT INTO orders (id, customer_id, status, amount, region) VALUES (500, 1, 'x', 1.0, 99)",
    );
    let out = run(&mut db, "SELECT id FROM orders WHERE region = 99");
    assert_eq!(out.rows.len(), 1);
    run(&mut db, "DELETE FROM orders WHERE region = 99");
    let out = run(&mut db, "SELECT id FROM orders WHERE region = 99");
    assert!(out.rows.is_empty());
}

#[test]
fn ddl_via_sql() {
    let mut db = Database::new();
    run(
        &mut db,
        "CREATE TABLE items (id BIGINT, name VARCHAR(32), price DOUBLE, PRIMARY KEY (id))",
    );
    run(
        &mut db,
        "INSERT INTO items (id, name, price) VALUES (1, 'a', 2.5)",
    );
    run(&mut db, "CREATE INDEX ix_name ON items (name)");
    assert!(db.table("items").unwrap().index("ix_name").is_some());
    run(&mut db, "DROP INDEX ix_name ON items");
    assert!(db.table("items").unwrap().index("ix_name").is_none());
}

#[test]
fn select_constant_without_from() {
    let mut db = Database::new();
    let out = run(&mut db, "SELECT 1 + 2");
    assert_eq!(out.rows, vec![vec![Value::Int(3)]]);
}

#[test]
fn between_and_like_filters() {
    let mut db = orders_db(300);
    let out = run(
        &mut db,
        "SELECT id FROM orders WHERE amount BETWEEN 10.0 AND 20.0 AND status LIKE 'ship%'",
    );
    let expected = (0..300i64)
        .filter(|i| {
            let amount = (i % 97) as f64 * 1.5;
            (10.0..=20.0).contains(&amount) && i % 3 == 1
        })
        .count();
    assert_eq!(out.rows.len(), expected);
}

#[test]
fn cost_and_io_are_positive() {
    let mut db = orders_db(500);
    let out = run(&mut db, "SELECT id FROM orders WHERE region = 3");
    assert!(out.cost > 0.0);
    assert!(out.io.rows_read > 0);
    assert_eq!(out.rows_sent(), out.rows.len() as u64);
}

#[test]
fn self_join_with_aliases() {
    let mut db = orders_db(50);
    let out = run(
        &mut db,
        "SELECT a.id, b.id FROM orders a, orders b \
         WHERE a.customer_id = b.customer_id AND a.id = 0 AND b.id > 0",
    );
    // customer 0: ids 0 and 50.. but only 50 rows, so i%50==0 -> just id 0.
    assert!(out.rows.is_empty());
    let out = run(
        &mut db,
        "SELECT a.id, b.id FROM orders a, orders b \
         WHERE a.customer_id = b.customer_id AND a.id = 0 AND b.id <> 0",
    );
    assert!(out.rows.is_empty());
}

#[test]
fn order_by_aggregate() {
    let mut db = orders_db(300);
    let out = run(
        &mut db,
        "SELECT customer_id, COUNT(*) FROM orders GROUP BY customer_id \
         ORDER BY COUNT(*) DESC LIMIT 3",
    );
    assert_eq!(out.rows.len(), 3);
    // Counts must be non-increasing.
    let counts: Vec<i64> = out
        .rows
        .iter()
        .map(|r| match r[1] {
            Value::Int(c) => c,
            _ => panic!(),
        })
        .collect();
    assert!(counts.windows(2).all(|w| w[0] >= w[1]), "{counts:?}");
}

#[test]
fn having_with_order_by_and_limit() {
    let mut db = orders_db(300);
    let out = run(
        &mut db,
        "SELECT region, SUM(amount) FROM orders GROUP BY region \
         HAVING COUNT(*) > 10 ORDER BY region LIMIT 4",
    );
    assert!(out.rows.len() <= 4);
    let regions: Vec<Value> = out.rows.iter().map(|r| r[0].clone()).collect();
    let mut sorted = regions.clone();
    sorted.sort();
    assert_eq!(regions, sorted);
}

#[test]
fn count_distinct() {
    let mut db = orders_db(300);
    let out = run(&mut db, "SELECT COUNT(DISTINCT region) FROM orders");
    assert_eq!(out.rows, vec![vec![Value::Int(7)]]);
}

#[test]
fn avg_handles_nulls_and_empty_groups() {
    let mut db = orders_db(10);
    // No rows match: aggregate over an empty set.
    let out = run(
        &mut db,
        "SELECT COUNT(*), SUM(amount), AVG(amount) FROM orders WHERE id > 9999",
    );
    assert_eq!(out.rows.len(), 1);
    assert_eq!(out.rows[0][0], Value::Int(0));
    assert_eq!(out.rows[0][1], Value::Null);
    assert_eq!(out.rows[0][2], Value::Null);
}

#[test]
fn in_list_on_strings() {
    let mut db = orders_db(300);
    let out = run(
        &mut db,
        "SELECT id FROM orders WHERE status IN ('open', 'closed')",
    );
    let expected = (0..300).filter(|i| i % 3 != 1).count();
    assert_eq!(out.rows.len(), expected);
}

#[test]
fn limit_zero_returns_nothing() {
    let mut db = orders_db(50);
    let out = run(&mut db, "SELECT id FROM orders LIMIT 0");
    assert!(out.rows.is_empty());
}

#[test]
fn composite_pk_point_and_prefix() {
    let mut db = Database::new();
    run(
        &mut db,
        "CREATE TABLE items (order_id BIGINT, line BIGINT, qty BIGINT, PRIMARY KEY (order_id, line))",
    );
    for o in 0..300 {
        for l in 0..3 {
            run(
                &mut db,
                &format!(
                    "INSERT INTO items (order_id, line, qty) VALUES ({o}, {l}, {})",
                    o + l
                ),
            );
        }
    }
    db.analyze_all();
    // Full composite key: point lookup.
    let out = run(
        &mut db,
        "SELECT qty FROM items WHERE order_id = 7 AND line = 2",
    );
    assert_eq!(out.rows, vec![vec![Value::Int(9)]]);
    assert!(out.io.rows_read <= 2);
    // PK prefix: range over one order.
    let out = run(&mut db, "SELECT line FROM items WHERE order_id = 7");
    assert_eq!(out.rows.len(), 3);
    assert!(
        out.io.rows_read <= 6,
        "prefix scan read {}",
        out.io.rows_read
    );
}

#[test]
fn group_by_two_columns() {
    let mut db = orders_db(120);
    let out = run(
        &mut db,
        "SELECT region, status, COUNT(*) FROM orders GROUP BY region, status ORDER BY region, status",
    );
    // 7 regions x 3 statuses, all populated at 120 rows.
    assert_eq!(out.rows.len(), 21);
    let total: i64 = out
        .rows
        .iter()
        .map(|r| match r[2] {
            Value::Int(c) => c,
            _ => panic!(),
        })
        .sum();
    assert_eq!(total, 120);
}

#[test]
fn where_on_aggregult_free_expression_arithmetic() {
    let mut db = orders_db(100);
    let a = run(&mut db, "SELECT id FROM orders WHERE id + 1 = 50");
    assert_eq!(a.rows, vec![vec![Value::Int(49)]]);
    let b = run(
        &mut db,
        "SELECT id FROM orders WHERE id % 10 = 3 AND id < 50",
    );
    assert_eq!(b.rows.len(), 5);
}

#[test]
fn delete_everything_then_empty_scans() {
    let mut db = orders_db(40);
    let del = run(&mut db, "DELETE FROM orders WHERE id >= 0");
    assert_eq!(del.affected, 40);
    let out = run(&mut db, "SELECT COUNT(*) FROM orders");
    assert_eq!(out.rows, vec![vec![Value::Int(0)]]);
    let out = run(&mut db, "SELECT id FROM orders WHERE region = 1");
    assert!(out.rows.is_empty());
}

#[test]
fn update_affecting_zero_rows() {
    let mut db = orders_db(10);
    let out = run(&mut db, "UPDATE orders SET region = 1 WHERE id = 12345");
    assert_eq!(out.affected, 0);
}

#[test]
fn nine_table_join_uses_greedy_order() {
    // More tables than the DP limit (8) exercises the greedy join-order
    // search; correctness must be unaffected.
    let mut db = Database::new();
    run(
        &mut db,
        "CREATE TABLE hub (id BIGINT, v BIGINT, PRIMARY KEY (id))",
    );
    for t in 0..8 {
        run(
            &mut db,
            &format!("CREATE TABLE s{t} (id BIGINT, hub_id BIGINT, w BIGINT, PRIMARY KEY (id))"),
        );
    }
    for i in 0..30 {
        run(
            &mut db,
            &format!("INSERT INTO hub (id, v) VALUES ({i}, {})", i % 5),
        );
        for t in 0..8 {
            run(
                &mut db,
                &format!(
                    "INSERT INTO s{t} (id, hub_id, w) VALUES ({i}, {i}, {})",
                    (i + t) % 3
                ),
            );
        }
    }
    db.analyze_all();
    let joins: Vec<String> = (0..8).map(|t| format!("s{t}.hub_id = hub.id")).collect();
    let sql = format!(
        "SELECT hub.id FROM hub, s0, s1, s2, s3, s4, s5, s6, s7 WHERE {} AND hub.v = 2",
        joins.join(" AND ")
    );
    let out = run(&mut db, &sql);
    let expected = (0..30).filter(|i| i % 5 == 2).count();
    assert_eq!(out.rows.len(), expected);
    assert_eq!(out.plan.steps.len(), 9);
}

// ------------------------------------------------------------------
// Bind-once error parity: name and shape errors are raised when the
// statement is bound, before any row is read — so they surface on an
// empty table too, where a per-row resolver would have nothing to trip on.

fn run_err(db: &mut Database, sql: &str) -> ExecError {
    let stmt = parse_statement(sql).unwrap();
    Engine::new()
        .execute(db, &stmt)
        .expect_err(&format!("{sql} should fail"))
}

fn empty_orders_and_customers() -> Database {
    let mut db = orders_db(0);
    customers_db(&mut db, 0);
    db
}

#[test]
fn unknown_and_ambiguous_columns_fail_at_bind_time() {
    let mut db = empty_orders_and_customers();
    for (sql, message) in [
        ("SELECT nosuch FROM orders", "unknown column nosuch"),
        (
            "SELECT id FROM orders WHERE nosuch = 1",
            "unknown column nosuch",
        ),
        (
            "SELECT region FROM orders GROUP BY nosuch",
            "unknown column nosuch",
        ),
        (
            "SELECT region, COUNT(*) FROM orders GROUP BY region HAVING SUM(nosuch) > 1",
            "unknown column nosuch",
        ),
        (
            "SELECT id FROM orders ORDER BY nosuch",
            "unknown column nosuch",
        ),
        ("SELECT o.nosuch FROM orders o", "unknown column o.nosuch"),
        ("SELECT x.id FROM orders o", "unknown table binding x"),
        ("SELECT id FROM orders, customers", "ambiguous column id"),
        (
            "SELECT name FROM orders, customers WHERE id = 3",
            "ambiguous column id",
        ),
    ] {
        assert_eq!(
            run_err(&mut db, sql),
            ExecError::Binding(message.into()),
            "{sql}"
        );
    }
}

#[test]
fn aggregate_in_where_and_unbound_parameter_fail_at_bind_time() {
    let mut db = empty_orders_and_customers();
    for sql in [
        "SELECT id FROM orders WHERE COUNT(*) > 1",
        "SELECT region FROM orders GROUP BY SUM(amount)",
        "SELECT id FROM orders ORDER BY COUNT(*)",
        "SELECT SUM(COUNT(*)) FROM orders",
    ] {
        assert_eq!(
            run_err(&mut db, sql),
            ExecError::Eval("aggregate evaluated in scalar context".into()),
            "{sql}"
        );
    }
    for sql in [
        "SELECT id FROM orders WHERE amount > ?",
        "SELECT id + ? FROM orders",
        "SELECT id FROM orders WHERE customer_id = 3 ORDER BY amount * ?",
    ] {
        assert_eq!(
            run_err(&mut db, sql),
            ExecError::Eval("unbound ? parameter at execution time".into()),
            "{sql}"
        );
    }
}

#[test]
fn non_constant_limit_is_unsupported() {
    let mut db = orders_db(10);
    for sql in [
        "SELECT id FROM orders LIMIT 1 + 1",
        "SELECT id FROM orders LIMIT ?",
    ] {
        assert!(
            matches!(run_err(&mut db, sql), ExecError::Unsupported(m) if m.starts_with("non-constant LIMIT")),
            "{sql}"
        );
    }
}

#[test]
fn update_with_unbindable_rhs_writes_nothing() {
    let mut db = orders_db(20);
    let before = run(&mut db, "SELECT id, amount, region FROM orders ORDER BY id").rows;
    assert_eq!(
        run_err(
            &mut db,
            "UPDATE orders SET amount = nosuch + 1 WHERE id < 10"
        ),
        ExecError::Binding("unknown column nosuch".into())
    );
    // Raised at bind time even when no row matches.
    assert_eq!(
        run_err(
            &mut db,
            "UPDATE orders SET amount = nosuch + 1 WHERE id < 0"
        ),
        ExecError::Binding("unknown column nosuch".into())
    );
    assert_eq!(
        run_err(&mut db, "UPDATE orders SET region = COUNT(*) WHERE id < 10"),
        ExecError::Eval("aggregate evaluated in scalar context".into())
    );
    let after = run(&mut db, "SELECT id, amount, region FROM orders ORDER BY id").rows;
    assert_eq!(before, after);
}

/// Type errors depend on the values met, so they stay per-row errors with
/// their messages — and a table without rows has none to object to.
#[test]
fn non_boolean_operands_and_like_on_non_strings_are_value_errors() {
    let mut db = orders_db(10);
    for (sql, message) in [
        (
            "SELECT id FROM orders WHERE NOT region",
            "NOT of non-boolean 0",
        ),
        (
            "SELECT id FROM orders WHERE NOT (region AND id = 1)",
            "AND of non-boolean 0",
        ),
        (
            "SELECT id FROM orders WHERE id = 1 OR region",
            "OR of non-boolean 0",
        ),
        (
            "SELECT id FROM orders WHERE region LIKE 'a%'",
            "LIKE on non-strings 0, 'a%'",
        ),
        (
            "SELECT id FROM orders WHERE status LIKE 5",
            "LIKE on non-strings 'open', 5",
        ),
    ] {
        assert_eq!(
            run_err(&mut db, sql),
            ExecError::Eval(message.into()),
            "{sql}"
        );
    }
    let mut empty = orders_db(0);
    assert!(run(&mut empty, "SELECT id FROM orders WHERE NOT region")
        .rows
        .is_empty());
}

/// t(id, a, b) with NULLs in `a` and `b`:
/// id 1: (1, 1), 2: (1, NULL), 3: (NULL, 1), 4: (NULL, NULL), 5: (0, 0), 6: (0, NULL).
fn nullable_db() -> Database {
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
    let n = Value::Null;
    for (id, a, b) in [
        (1, Value::Int(1), Value::Int(1)),
        (2, Value::Int(1), n.clone()),
        (3, n.clone(), Value::Int(1)),
        (4, n.clone(), n.clone()),
        (5, Value::Int(0), Value::Int(0)),
        (6, Value::Int(0), n.clone()),
    ] {
        db.table_mut("t")
            .unwrap()
            .insert(vec![Value::Int(id), a, b], &mut io)
            .unwrap();
    }
    db.analyze_all();
    db
}

fn ids(db: &mut Database, predicate: &str) -> Vec<i64> {
    run(
        db,
        &format!("SELECT id FROM t WHERE {predicate} ORDER BY id"),
    )
    .rows
    .iter()
    .map(|r| match r[0] {
        Value::Int(id) => id,
        ref other => panic!("id column holds {other:?}"),
    })
    .collect()
}

#[test]
fn three_valued_logic_with_nulls() {
    let mut db = nullable_db();
    // AND: false dominates NULL, NULL rejects.
    assert_eq!(ids(&mut db, "a = 1 AND b = 1"), [1]);
    assert_eq!(ids(&mut db, "NOT (a = 1 AND b = 1)"), [5, 6]);
    // OR: true dominates NULL.
    assert_eq!(ids(&mut db, "a = 1 OR b = 1"), [1, 2, 3]);
    assert_eq!(ids(&mut db, "NOT (a = 1 OR b = 1)"), [5]);
    // IN: a NULL in the list turns a miss into NULL.
    assert_eq!(ids(&mut db, "a IN (1, NULL)"), [1, 2]);
    assert_eq!(ids(&mut db, "a NOT IN (1, NULL)"), Vec::<i64>::new());
    assert_eq!(ids(&mut db, "a NOT IN (1, 2)"), [5, 6]);
    // BETWEEN: any NULL operand is NULL.
    assert_eq!(ids(&mut db, "a BETWEEN 0 AND 1"), [1, 2, 5, 6]);
    assert_eq!(ids(&mut db, "a BETWEEN 0 AND NULL"), Vec::<i64>::new());
    assert_eq!(ids(&mut db, "a NOT BETWEEN 1 AND 2"), [5, 6]);
    // IS NULL and the null-safe comparison see NULLs as values.
    assert_eq!(ids(&mut db, "a IS NULL AND b IS NOT NULL"), [3]);
    assert_eq!(ids(&mut db, "a <=> b"), [1, 4, 5]);
    assert_eq!(ids(&mut db, "a <=> NULL"), [3, 4]);
}

#[test]
fn aggregates_skip_nulls_and_count_star_does_not() {
    let mut db = nullable_db();
    let out = run(
        &mut db,
        "SELECT COUNT(*), COUNT(a), SUM(a), MIN(b), MAX(b), AVG(a), COUNT(DISTINCT a) FROM t",
    );
    assert_eq!(
        out.rows,
        [vec![
            Value::Int(6),
            Value::Int(4),
            Value::Int(2),
            Value::Int(0),
            Value::Int(1),
            Value::Float(0.5),
            Value::Int(2),
        ]]
    );
    // NULL is a group key of its own and sorts first.
    let out = run(&mut db, "SELECT a, COUNT(*), SUM(b) FROM t GROUP BY a");
    assert_eq!(
        out.rows,
        [
            vec![Value::Null, Value::Int(2), Value::Int(1)],
            vec![Value::Int(0), Value::Int(2), Value::Int(0)],
            vec![Value::Int(1), Value::Int(2), Value::Int(1)],
        ]
    );
}

#[test]
fn aggregate_only_query_over_zero_rows_yields_one_row() {
    let mut db = orders_db(100);
    let out = run(
        &mut db,
        "SELECT COUNT(*), SUM(amount), MIN(amount), MAX(region), AVG(amount) FROM orders WHERE id < 0",
    );
    assert_eq!(
        out.rows,
        [vec![
            Value::Int(0),
            Value::Null,
            Value::Null,
            Value::Null,
            Value::Null
        ]]
    );
    // A grouped query over zero rows has no groups.
    let out = run(
        &mut db,
        "SELECT region, COUNT(*) FROM orders WHERE id < 0 GROUP BY region",
    );
    assert!(out.rows.is_empty());
    // A bare column beside the aggregate has no row to read.
    assert_eq!(
        run_err(&mut db, "SELECT region, COUNT(*) FROM orders WHERE id < 0"),
        ExecError::Eval("table instance 0 is not bound in this context".into())
    );
}

#[test]
fn having_without_group_by() {
    let mut db = orders_db(100);
    let out = run(&mut db, "SELECT COUNT(*) FROM orders HAVING COUNT(*) > 5");
    assert_eq!(out.rows, [vec![Value::Int(100)]]);
    let out = run(
        &mut db,
        "SELECT COUNT(*) FROM orders HAVING SUM(region) > 1000000",
    );
    assert!(out.rows.is_empty());
    // HAVING alone makes the query an aggregate query.
    let out = run(&mut db, "SELECT 1 FROM orders HAVING MAX(id) = 99");
    assert_eq!(out.rows, [vec![Value::Int(1)]]);
}

#[test]
fn distinct_order_by_limit() {
    let mut db = orders_db(100);
    let out = run(
        &mut db,
        "SELECT DISTINCT region FROM orders ORDER BY region DESC LIMIT 3",
    );
    assert_eq!(
        out.rows,
        [
            vec![Value::Int(6)],
            vec![Value::Int(5)],
            vec![Value::Int(4)]
        ]
    );
    // DISTINCT keeps each row's first occurrence; the sort is stable.
    let out = run(
        &mut db,
        "SELECT DISTINCT status, region FROM orders WHERE id < 21 ORDER BY status LIMIT 4",
    );
    assert_eq!(
        out.rows,
        [
            vec![Value::Str("closed".into()), Value::Int(2)],
            vec![Value::Str("closed".into()), Value::Int(5)],
            vec![Value::Str("closed".into()), Value::Int(1)],
            vec![Value::Str("closed".into()), Value::Int(4)],
        ]
    );
}

#[test]
fn distinct_aggregates_per_group() {
    let mut db = orders_db(210);
    let out = run(
        &mut db,
        "SELECT status, COUNT(DISTINCT region), SUM(DISTINCT region), COUNT(region) \
         FROM orders GROUP BY status",
    );
    for row in &out.rows {
        assert_eq!(row[1..], [Value::Int(7), Value::Int(21), Value::Int(70)]);
    }
    assert_eq!(out.rows.len(), 3);
}

#[test]
fn covering_index_scan_feeds_a_join() {
    let sql = "SELECT o.region, c.name FROM orders o, customers c \
               WHERE o.customer_id = c.id AND o.customer_id = 7 AND c.tier = 3";
    let mut plain = orders_db(2000);
    customers_db(&mut plain, 50);
    let unindexed = run(&mut plain, sql);
    let mut expected = unindexed.rows;
    expected.sort();
    assert_eq!(expected.len(), 40);

    let mut db = orders_db(2000);
    customers_db(&mut db, 50);
    let mut io = IoStats::new();
    db.create_index(
        IndexDef::new(
            "ix_cust_region",
            "orders",
            vec!["customer_id".into(), "region".into()],
        ),
        &mut io,
    )
    .unwrap();
    db.analyze_all();
    let out = run(&mut db, sql);
    assert!(
        out.plan.steps.iter().any(|s| matches!(
            &s.path,
            AccessPath::IndexScan(ix) if ix.covering && s.table == "orders"
        )),
        "plan: {}",
        out.plan.access_summary()
    );
    // The join reads 40 index entries of orders, not its 2000 rows.
    assert!(
        out.io.rows_read < unindexed.io.rows_read / 3,
        "rows_read = {} (unindexed {})",
        out.io.rows_read,
        unindexed.io.rows_read
    );
    let mut rows = out.rows;
    rows.sort();
    assert_eq!(rows, expected);

    // `*` over a covering scan still yields full-width rows in table order.
    let out = run(
        &mut db,
        "SELECT customer_id, region, id FROM orders WHERE customer_id = 7 AND region = 0",
    );
    assert!(matches!(&out.plan.steps[0].path, AccessPath::IndexScan(ix) if ix.covering));
    assert_eq!(out.rows[0], [Value::Int(7), Value::Int(0), Value::Int(7)]);
}

// ------------------------------------------------------------------
// SUM accumulates integers in i64: exact beyond 2^53, checked at i64::MAX.

fn big_ints_db(values: &[Value]) -> Database {
    let mut db = Database::new();
    db.create_table(
        TableSchema::new(
            "n",
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
    for (i, v) in values.iter().enumerate() {
        db.table_mut("n")
            .unwrap()
            .insert(vec![Value::Int(i as i64), v.clone()], &mut io)
            .unwrap();
    }
    db.analyze_all();
    db
}

#[test]
fn integer_sum_is_exact_beyond_two_to_the_53() {
    let two53 = 1i64 << 53;
    let mut db = big_ints_db(&[Value::Int(two53), Value::Int(1)]);
    let out = run(&mut db, "SELECT SUM(v), AVG(v) FROM n");
    // An f64 accumulator rounds 2^53 + 1 back down to 2^53.
    assert_eq!(out.rows[0][0], Value::Int(two53 + 1));
    assert!(matches!(out.rows[0][0], Value::Int(_)));
    assert_eq!(out.rows[0][1], Value::Float((two53 + 1) as f64 / 2.0));
}

#[test]
fn integer_sum_overflow_is_an_error() {
    let mut db = big_ints_db(&[Value::Int(i64::MAX), Value::Int(1)]);
    assert_eq!(
        run_err(&mut db, "SELECT SUM(v) FROM n"),
        ExecError::Eval("integer overflow".into())
    );
    // MIN / MAX / COUNT over the same rows are unaffected.
    let out = run(&mut db, "SELECT MAX(v), COUNT(v) FROM n");
    assert_eq!(out.rows, [vec![Value::Int(i64::MAX), Value::Int(2)]]);
}

#[test]
fn sum_switches_to_float_when_a_float_arrives() {
    let mut db = orders_db(4);
    // amount is Float, region Int: region + 0 stays Int, amount is Float.
    let out = run(
        &mut db,
        "SELECT SUM(region), SUM(amount), SUM(region + amount) FROM orders",
    );
    assert_eq!(
        out.rows,
        [vec![Value::Int(6), Value::Float(9.0), Value::Float(15.0)]]
    );
    assert!(matches!(out.rows[0][0], Value::Int(_)));
    assert!(matches!(out.rows[0][1], Value::Float(_)));
}

/// `open_select` shows the plan before any row is read, `run` executes
/// that plan, and plan identity follows the work, not the estimates: an
/// index the statement cannot use leaves it the same execution at the same
/// cost, an index it reads through makes it another.
#[test]
fn an_open_select_runs_the_plan_it_shows_and_identity_ignores_estimates() {
    let mut db = orders_db(2000);
    let engine = Engine::new();
    let aim_sql::Statement::Select(sel) =
        parse_statement("SELECT id FROM orders WHERE customer_id = 7").unwrap()
    else {
        unreachable!()
    };
    let open = engine.open_select(&db, &sel).unwrap();
    let shown = open.plan().clone();
    let scanned = open.run().unwrap();
    assert!(shown.same_execution(&scanned.plan));
    let direct = engine.execute_select(&db, &sel).unwrap();
    assert_eq!(
        (direct.rows, direct.cost.to_bits()),
        (scanned.rows.clone(), scanned.cost.to_bits())
    );

    let mut io = IoStats::new();
    db.create_index(
        IndexDef::new("ix_status", "orders", vec!["status".into()]),
        &mut io,
    )
    .unwrap();
    let unaffected = engine.execute_select(&db, &sel).unwrap();
    assert!(unaffected.plan.same_execution(&scanned.plan));
    assert_eq!(unaffected.cost.to_bits(), scanned.cost.to_bits());
    let mut cheaper_on_paper = scanned.plan.clone();
    cheaper_on_paper.est_cost /= 2.0;
    cheaper_on_paper.steps[0].rows_each += 1.0;
    assert!(cheaper_on_paper.same_execution(&scanned.plan));

    db.create_index(
        IndexDef::new("ix_cust", "orders", vec!["customer_id".into()]),
        &mut io,
    )
    .unwrap();
    let seeking = engine.execute_select(&db, &sel).unwrap();
    assert!(matches!(
        seeking.plan.steps[0].path,
        AccessPath::IndexScan(_)
    ));
    assert!(!seeking.plan.same_execution(&scanned.plan));
    assert!(seeking.cost < scanned.cost);
    assert_eq!(seeking.rows.len(), scanned.rows.len());
}

/// A FROM list names at most 64 table instances: a join plans over sets
/// of them held in one word, and a 65th is refused when the list binds,
/// before anything is planned or read.
#[test]
fn a_from_list_of_more_than_64_instances_is_refused() {
    // One row: the 64-way join is one tuple.
    let mut db = orders_db(1);
    let from = |n: usize| {
        (0..n)
            .map(|i| format!("orders AS o{i}"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let sql = format!("SELECT o0.id FROM {} WHERE o0.id = 0", from(64));
    let stmt = parse_statement(&sql).unwrap();
    assert_eq!(Engine::new().execute(&mut db, &stmt).unwrap().rows.len(), 1);
    let sql = format!("SELECT o0.id FROM {} WHERE o0.id = 0", from(65));
    let stmt = parse_statement(&sql).unwrap();
    let err = Engine::new().execute(&mut db, &stmt).unwrap_err();
    assert!(matches!(err, ExecError::Binding(_)), "{err}");
}
