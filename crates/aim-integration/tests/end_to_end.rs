//! Cross-crate integration tests: the full pipeline from SQL text through
//! storage, execution, monitoring, tuning and back to faster execution.

use aim_core::{AimAdvisor, AimConfig, IndexAdvisor};
use aim_exec::Engine;
use aim_monitor::{SelectionConfig, WorkloadMonitor};
use aim_sql::parse_statement;
use aim_storage::{Database, IoStats};
use aim_workloads::join_heavy::{self, JoinHeavyConfig};
use aim_workloads::production::{apply_indexes, build, profiles};
use aim_workloads::replay::Replayer;
use aim_workloads::tpch::{self, TpchConfig};

fn quick_selection() -> SelectionConfig {
    SelectionConfig {
        min_executions: 1,
        min_benefit: 0.0,
        max_queries: usize::MAX,
        include_dml: true,
    }
}

#[test]
fn tuning_never_regresses_the_observed_workload() {
    // The "no regression" guarantee, checked end to end: measured cost of
    // every observed query after tuning must stay within tolerance of its
    // pre-tuning cost.
    let cfg = JoinHeavyConfig {
        child_rows: 3000,
        parent_rows: 400,
        grand_rows: 80,
        dim_rows: 100,
        seed: 5,
    };
    let mut db = join_heavy::build_database(&cfg);
    let engine = Engine::new();
    let specs = join_heavy::specs(9);

    let mut monitor = WorkloadMonitor::new();
    let mut replayer = Replayer::new(specs.clone(), 3);
    replayer.run_tick(&mut db, Some(&mut monitor), 150, f64::INFINITY);

    // Snapshot per-query exemplar costs before tuning.
    let before: Vec<(aim_sql::Statement, f64)> = monitor
        .queries()
        .map(|q| {
            let cost = engine
                .execute(&mut db.clone(), &q.exemplar)
                .expect("replayable")
                .cost;
            (q.exemplar.clone(), cost)
        })
        .collect();

    let session = AimConfig::builder().selection(quick_selection()).session();
    let outcome = session.run(&mut db, &monitor).expect("tuning pass");
    assert!(!outcome.created.is_empty());

    for (stmt, before_cost) in before {
        let after = engine.execute(&mut db, &stmt).expect("replayable").cost;
        assert!(
            after <= before_cost * 1.25 + 5.0,
            "{stmt} regressed: {before_cost:.1} -> {after:.1}"
        );
    }
}

#[test]
fn results_identical_before_and_after_tuning() {
    // Indexes must never change query *results*.
    let cfg = TpchConfig {
        scale: 0.0005,
        seed: 0xAA17,
    };
    let mut db = tpch::build_database(&cfg);
    let engine = Engine::new();
    // Single- and two-table queries execute quickly at this scale.
    let queries: Vec<aim_sql::Statement> = tpch::query_texts(5)
        .into_iter()
        .filter_map(|(_, sql)| {
            let stmt = parse_statement(&sql).ok()?;
            match &stmt {
                aim_sql::Statement::Select(s) if s.from.len() <= 2 => Some(stmt),
                _ => None,
            }
        })
        .collect();
    assert!(queries.len() >= 5);

    let mut before: Vec<Vec<aim_storage::Row>> = Vec::new();
    let mut monitor = WorkloadMonitor::new();
    for q in &queries {
        let out = engine.execute(&mut db, q).expect("executes");
        monitor.record(q, &out);
        let mut rows = out.rows;
        rows.sort();
        before.push(rows);
    }

    let session = AimConfig::builder().selection(quick_selection()).session();
    session.run(&mut db, &monitor).expect("tuning pass");

    for (q, expected) in queries.iter().zip(&before) {
        let out = engine.execute(&mut db, q).expect("executes");
        let mut rows = out.rows;
        rows.sort();
        assert_eq!(rows.len(), expected.len(), "row count changed for {q}");
        for (got, want) in rows.iter().zip(expected) {
            assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(want) {
                // Aggregates sum floats in plan-dependent order; allow
                // relative rounding noise, require exactness otherwise.
                match (g, w) {
                    (aim_storage::Value::Float(a), aim_storage::Value::Float(b)) => {
                        assert!(
                            (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0),
                            "value drifted for {q}: {a} vs {b}"
                        );
                    }
                    _ => assert_eq!(g, w, "results changed for {q}"),
                }
            }
        }
    }
}

#[test]
fn budget_is_respected_end_to_end() {
    let profile = &profiles()[5]; // Product F (small).
    let w = build(profile);
    let mut db = w.db.clone();
    let budget = 200_000u64;
    let session = AimConfig::builder()
        .selection(quick_selection())
        .storage_budget(budget)
        .session();
    let mut replayer = Replayer::new(w.specs.clone(), 3);
    for _ in 0..3 {
        let mut monitor = WorkloadMonitor::new();
        replayer.run_tick(&mut db, Some(&mut monitor), 120, f64::INFINITY);
        session.run(&mut db, &monitor).expect("tuning pass");
        assert!(
            db.total_secondary_index_bytes() <= budget + budget / 4,
            "budget exceeded: {} > {budget} (estimate tolerance 25%)",
            db.total_secondary_index_bytes()
        );
    }
}

#[test]
fn dba_and_aim_configurations_perform_comparably() {
    // The Table II claim, as a pass/fail bound.
    let profile = &profiles()[5];
    let w = build(profile);

    let mut dba_db = w.db.clone();
    apply_indexes(&mut dba_db, &w.dba_indexes);
    let mut aim_db = w.db.clone();
    let result = aim_bench_bootstrap(&mut aim_db, &w.specs);
    assert!(!result.is_empty(), "AIM created nothing");

    let dba_cost = avg_cost(&mut dba_db, &w.specs);
    let aim_cost = avg_cost(&mut aim_db, &w.specs);
    assert!(
        aim_cost <= dba_cost * 1.25,
        "AIM config much worse than DBA: {aim_cost:.1} vs {dba_cost:.1}"
    );
    // And with no more storage (the paper: usually fewer/smaller indexes).
    assert!(aim_db.total_secondary_index_bytes() <= dba_db.total_secondary_index_bytes() * 3 / 2);
}

fn aim_bench_bootstrap(
    db: &mut Database,
    specs: &[aim_workloads::replay::QuerySpec],
) -> Vec<aim_storage::IndexDef> {
    let session = AimConfig::builder()
        .selection(SelectionConfig {
            min_executions: 2,
            min_benefit: 0.5,
            max_queries: usize::MAX,
            include_dml: true,
        })
        .session();
    let mut replayer = Replayer::new(specs.to_vec(), 42);
    let mut created = Vec::new();
    for _ in 0..4 {
        let mut monitor = WorkloadMonitor::new();
        replayer.run_tick(db, Some(&mut monitor), specs.len() * 3, f64::INFINITY);
        let outcome = session.run(db, &monitor).expect("tuning pass");
        let n = outcome.created.len();
        created.extend(outcome.created.into_iter().map(|c| c.def));
        if n == 0 {
            break;
        }
    }
    created
}

fn avg_cost(db: &mut Database, specs: &[aim_workloads::replay::QuerySpec]) -> f64 {
    let mut replayer = Replayer::new(specs.to_vec(), 42);
    let s = replayer.run_tick(db, None, specs.len() * 3, f64::INFINITY);
    s.total_cost / s.executed.max(1) as f64
}

#[test]
fn advisor_and_driver_agree_on_candidates() {
    // The advisor path (benchmark mode) and the driver path (production
    // mode) share candidate generation: on a single-shape workload they
    // must pick an index on the same leading column.
    let mut db = Database::new();
    db.create_table(
        aim_storage::TableSchema::new(
            "t",
            vec![
                aim_storage::ColumnDef::new("id", aim_storage::ColumnType::Int),
                aim_storage::ColumnDef::new("a", aim_storage::ColumnType::Int),
            ],
            &["id"],
        )
        .expect("valid"),
    )
    .expect("fresh");
    let mut io = IoStats::new();
    for i in 0..5000i64 {
        db.table_mut("t")
            .expect("exists")
            .insert(
                vec![aim_storage::Value::Int(i), aim_storage::Value::Int(i % 50)],
                &mut io,
            )
            .expect("unique");
    }
    db.analyze_all();

    let stmt = parse_statement("SELECT id FROM t WHERE a = 7").expect("valid");
    let mut advisor = AimAdvisor::new(2, 0);
    let defs = advisor.recommend(
        &db,
        &[aim_core::WeightedQuery::new(stmt.clone(), 10.0)],
        u64::MAX,
    );
    assert!(defs.iter().any(|d| d.columns[0] == "a"));

    let engine = Engine::new();
    let mut monitor = WorkloadMonitor::new();
    for _ in 0..5 {
        let out = engine.execute(&mut db, &stmt).expect("executes");
        monitor.record(&stmt, &out);
    }
    let session = AimConfig::builder().selection(quick_selection()).session();
    let outcome = session.run(&mut db, &monitor).expect("tuning pass");
    assert!(outcome.created.iter().any(|c| c.def.columns[0] == "a"));
}
