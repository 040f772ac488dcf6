//! Golden-file tests for the EXPLAIN text rendering, plus the decision
//! ledger round trip: serialize → parse → verify that every selected
//! index carries a complete generated → ranked → knapsack → validation →
//! materialized chain.
//!
//! Golden files live in `tests/golden/`; regenerate intentionally with
//! `BLESS=1 cargo test -p aim-integration --test explain`.

mod common;

use aim_core::AimConfig;
use aim_exec::{explain_select, AccessPath, Engine, HypoConfig, HypotheticalIndex};
use aim_monitor::{SelectionConfig, WorkloadMonitor};
use aim_sql::{parse_statement, Statement};
use aim_storage::{
    ColumnDef, ColumnType, Database, IndexDef, IoStats, TableSchema, Value,
};
use aim_telemetry::jsonv::{self, Json};
use aim_workloads::rng::{Rng, SeedableRng, StdRng};
use std::path::PathBuf;

/// Orders/customers fixture with one composite secondary index — enough
/// surface for a PK lookup, a covering secondary scan and a join.
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
    db.create_table(
        TableSchema::new(
            "customers",
            vec![
                ColumnDef::new("id", ColumnType::Int),
                ColumnDef::new("vip", ColumnType::Int),
            ],
            &["id"],
        )
        .unwrap(),
    )
    .unwrap();
    let mut io = IoStats::new();
    for i in 0..8000i64 {
        db.table_mut("orders")
            .unwrap()
            .insert(
                vec![
                    Value::Int(i),
                    Value::Int(i % 400),
                    Value::Int(i % 9),
                    Value::Int(i % 130),
                ],
                &mut io,
            )
            .unwrap();
    }
    for i in 0..400i64 {
        db.table_mut("customers")
            .unwrap()
            .insert(vec![Value::Int(i), Value::Int(i % 20)], &mut io)
            .unwrap();
    }
    db.create_index(
        IndexDef::new("ix_orders_customer_region", "orders", vec![
            "customer".into(),
            "region".into(),
        ]),
        &mut io,
    )
    .unwrap();
    db.analyze_all();
    db
}

fn explain_text(db: &Database, sql: &str) -> String {
    let Statement::Select(s) = parse_statement(sql).unwrap() else {
        panic!("fixture queries are SELECTs")
    };
    explain_select(db, &s, &HypoConfig::none(), &Engine::new().cost_model)
        .unwrap()
        .1
        .render_text()
}

fn assert_golden(name: &str, actual: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var_os("BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden file {} ({e}); regenerate with BLESS=1", path.display())
    });
    assert_eq!(
        actual,
        expected,
        "EXPLAIN text drifted from {}; if intended, re-bless with BLESS=1",
        path.display()
    );
}

#[test]
fn golden_pk_lookup() {
    let text = explain_text(&db(), "SELECT id FROM orders WHERE id = 123");
    assert!(text.contains("PRIMARY"), "{text}");
    assert!(text.contains("rejected full scan"), "{text}");
    assert_golden("explain_pk_lookup.txt", &text);
}

#[test]
fn golden_covering_secondary_scan() {
    let text = explain_text(&db(), "SELECT region FROM orders WHERE customer = 42");
    assert!(text.contains("ix_orders_customer_region"), "{text}");
    assert!(text.contains("covering"), "{text}");
    // The beaten full scan appears with its own cost.
    assert!(text.contains("rejected full scan"), "{text}");
    assert_golden("explain_covering_scan.txt", &text);
}

#[test]
fn golden_two_table_join() {
    let text = explain_text(
        &db(),
        "SELECT orders.id FROM customers, orders \
         WHERE customers.id = orders.customer AND customers.vip = 3",
    );
    // Two join steps, each with its own alternatives block.
    assert!(text.contains("0: "), "{text}");
    assert!(text.contains("1: "), "{text}");
    assert_golden("explain_two_table_join.txt", &text);
}

/// What EXPLAIN of `sql` says under `config` is what the search did: per
/// join step one chosen alternative, the plan's path at the plan's cost to
/// the bit, nothing usable strictly cheaper, and every index of the table
/// that `config` shows listed exactly once.
fn assert_explain_is_the_search(db: &Database, sql: &str, config: &HypoConfig) {
    let Statement::Select(select) = parse_statement(sql).unwrap() else {
        return;
    };
    let (plan, explain) = explain_select(db, &select, config, &Engine::new().cost_model).unwrap();
    assert_eq!(explain.nodes.len(), plan.steps.len(), "{sql}");
    for (node, step) in explain.nodes.iter().zip(&plan.steps) {
        let chosen: Vec<_> = node.alternatives.iter().filter(|a| a.chosen).collect();
        assert_eq!(chosen.len(), 1, "{sql}: {node:?}");
        let chosen = chosen[0];
        let cost = chosen.est_cost.expect("the chosen path is priced");
        assert_eq!(cost.to_bits(), step.cost_each.to_bits(), "{sql}: {node:?}");
        assert_eq!(node.est_cost.to_bits(), step.cost_each.to_bits(), "{sql}");
        match &step.path {
            AccessPath::FullScan => assert_eq!(chosen.access, "full scan", "{sql}"),
            AccessPath::IndexScan(ix) => {
                assert_eq!(chosen.index.as_deref(), Some(&*ix.index.label()), "{sql}");
                assert_eq!((chosen.eq_prefix, chosen.range), (ix.eq.len(), ix.range.is_some()));
            }
            AccessPath::OrUnion(_) => assert!(chosen.access.starts_with("index-merge"), "{sql}"),
        }
        for alt in node.rejected() {
            assert!(alt.est_cost.unwrap() >= cost, "{sql}: cheaper than chosen: {alt:?}");
        }

        let table = db.table(&node.table).unwrap();
        let mut visible = vec!["PRIMARY".to_string()];
        if config.include_materialized {
            visible.extend(table.indexes().map(|ix| ix.def().name.clone()));
        }
        visible.extend(config.for_table(&node.table).map(|(i, _)| format!("<hypo#{i}>")));
        visible.sort();
        let mut listed: Vec<String> =
            node.alternatives.iter().filter_map(|a| a.index.clone()).collect();
        listed.sort();
        assert_eq!(listed, visible, "{sql}");
    }
}

/// EXPLAIN is the search: over TPC-H, JOB and a seeded 500-statement sample
/// of Product B — on the index-free database, with the corpus's index set
/// overlaid as hypotheticals, and with it built.
#[test]
fn explain_is_the_search() {
    for fixture in [common::tpch_fixture(), common::job_fixture(), common::product_b_fixture()] {
        let common::Fixture { mut texts, mut db, indexes, .. } = fixture;
        if texts.len() > 500 {
            let mut rng = StdRng::seed_from_u64(0xe5a1);
            texts = (0..500).map(|_| texts[rng.gen_range(0..texts.len())].clone()).collect();
        }
        let overlay = HypoConfig::overlay(
            indexes.iter().filter_map(|def| HypotheticalIndex::build(&db, def.clone())).collect(),
        );
        assert!(!overlay.indexes.is_empty());
        for sql in &texts {
            assert_explain_is_the_search(&db, sql, &HypoConfig::none());
            assert_explain_is_the_search(&db, sql, &overlay);
        }
        aim_workloads::production::apply_indexes(&mut db, &indexes);
        for sql in &texts {
            assert_explain_is_the_search(&db, sql, &HypoConfig::none());
        }
    }
}

/// The ledger artifact round trip: a full tuning pass with recording on,
/// serialized to JSON, parsed back, and audited — every index the pass
/// created must be explained end to end, and every rejection must carry
/// a reason.
#[test]
fn ledger_round_trip_explains_every_selected_index() {
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
    for i in 0..6000i64 {
        db.table_mut("t")
            .unwrap()
            .insert(
                vec![Value::Int(i), Value::Int(i % 200), Value::Int(i % 10)],
                &mut io,
            )
            .unwrap();
    }
    db.analyze_all();

    let engine = Engine::new();
    let mut monitor = WorkloadMonitor::new();
    for sql in [
        "SELECT id FROM t WHERE a = 7",
        "SELECT id FROM t WHERE b = 3",
        "UPDATE t SET b = 1 WHERE id = 5",
    ] {
        let stmt = parse_statement(sql).unwrap();
        for _ in 0..10 {
            let out = engine.execute(&mut db, &stmt).unwrap();
            monitor.record(&stmt, &out);
        }
    }

    let session = AimConfig::builder()
        .selection(SelectionConfig {
            min_executions: 1,
            min_benefit: 0.0,
            max_queries: 50,
            include_dml: true,
        })
        .ledger(true)
        .session();
    let outcome = session.run(&mut db, &monitor).unwrap();
    assert!(!outcome.created.is_empty(), "fixture must create an index");

    let doc = jsonv::parse(&session.ledger_json()).expect("ledger JSON parses");
    assert_eq!(doc.path("passes").and_then(Json::as_f64), Some(1.0));
    let records = doc.path("records").and_then(Json::as_arr).unwrap();
    assert!(!records.is_empty());

    let stages_of = |r: &Json| -> Vec<String> {
        r.path("events")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|e| e.path("stage").and_then(Json::as_str).unwrap().to_string())
            .collect()
    };

    // Every created index has the complete chain, with matching economics.
    for c in &outcome.created {
        let rec = records
            .iter()
            .find(|r| r.path("name").and_then(Json::as_str) == Some(&c.def.name))
            .unwrap_or_else(|| panic!("created index {} missing from ledger", c.def.name));
        let stages = stages_of(rec);
        let mut last = 0usize;
        for want in [
            "generated",
            "ranked",
            "knapsack_accepted",
            "validation_accepted",
            "materialized",
        ] {
            let pos = stages
                .iter()
                .position(|s| s == want)
                .unwrap_or_else(|| panic!("{}: missing stage {want} in {stages:?}", c.def.name));
            assert!(pos >= last, "{}: stage {want} out of order in {stages:?}", c.def.name);
            last = pos;
        }
        assert_eq!(rec.path("outcome").and_then(Json::as_str), Some("materialized"));
        assert_eq!(
            rec.path("size_bytes").and_then(Json::as_f64),
            Some(c.size_bytes as f64)
        );
        assert!(
            !rec.path("sources").and_then(Json::as_arr).unwrap().is_empty(),
            "{}: no generation provenance",
            c.def.name
        );
    }

    // Every record that was *not* materialized ends on an explicit
    // rejection stage with a non-empty reason.
    for r in records {
        let outcome_stage = r.path("outcome").and_then(Json::as_str).unwrap();
        if outcome_stage == "materialized" {
            continue;
        }
        assert!(
            matches!(
                outcome_stage,
                "already_served"
                    | "knapsack_rejected"
                    | "validation_rejected"
                    | "build_rejected"
                    | "rolled_back"
            ),
            "unexpected terminal stage {outcome_stage}"
        );
        let events = r.path("events").and_then(Json::as_arr).unwrap();
        let detail = events.last().unwrap().path("detail").and_then(Json::as_str).unwrap();
        assert!(!detail.is_empty(), "rejection without a reason");
    }
}
