//! Who drops an index after a regression, window by window.
//!
//! Five seeded scenarios run through [`ContinuousTuner::step`], each under
//! both judges the tuner can carry — the per-query [`RegressionDetector`]
//! alone, and the detector with a default [`LatencySentinel`] attached —
//! and every window's outcome is pinned as one line: what the step's pass
//! created, what the detector reverted, what the sentinel rolled back,
//! what was dropped and built again inside the same step, how many
//! regressions were counted and journaled, and what the bystander query
//! `SELECT id FROM t WHERE a = 5` costs afterwards.
//!
//! * **A** — `observability.rs`'s seeded regression: the table grows 16×
//!   and traffic moves to an unindexed `b = ?`. No query that used
//!   `aim_t_a` got slower.
//! * **A'** — the same with `a = ?` still in the traffic.
//! * **B** — skew arrives under stale statistics: the plan keeps using the
//!   index the previous step created and the query gets far slower.
//! * **C** — write amplification: the INSERT template doubles in cost
//!   after `aim_t_a`, a trade-off ranking priced and accepted (Eq. 8).
//! * **D** — the table grows by a third under indexed traffic: every
//!   template slows, the widest by 30 %, none past the per-query tolerance.
//!
//! Everything is seeded and nothing reads a clock.
//!
//! [`RegressionDetector`]: aim_core::RegressionDetector

use aim_core::continuous::ContinuousTuner;
use aim_core::{AimConfig, LatencySentinel, SentinelConfig};
use aim_exec::Engine;
use aim_monitor::{SelectionConfig, WorkloadMonitor};
use aim_sql::parse_statement;
use aim_storage::{ColumnDef, ColumnType, Database, IoStats, TableSchema, Value};
use aim_telemetry::EventKind;
use std::sync::Mutex;

/// Telemetry state is process-global; tests in this binary take turns.
static LOCK: Mutex<()> = Mutex::new(());

const BYSTANDER: &str = "SELECT id FROM t WHERE a = 5";

#[derive(Clone, Copy, PartialEq, Debug)]
enum Judge {
    Detector,
    DetectorAndSentinel,
}

fn build_db(rows: i64) -> Database {
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
    insert_rows(&mut db, 0, rows, |i| i % 200);
    db.analyze_all();
    db
}

/// Rows `from..to` with `a` from `a_of` and `b = id % 10`.
fn insert_rows(db: &mut Database, from: i64, to: i64, a_of: impl Fn(i64) -> i64) {
    let mut io = IoStats::new();
    for i in from..to {
        db.table_mut("t")
            .unwrap()
            .insert(
                vec![Value::Int(i), Value::Int(a_of(i)), Value::Int(i % 10)],
                &mut io,
            )
            .unwrap();
    }
}

fn repeat(sql: &str, n: usize) -> Vec<String> {
    vec![sql.to_string(); n]
}

/// One scenario: `window(w, db)` applies window `w`'s data change (windows
/// count from 1) and returns the statements that window executes.
struct Scenario {
    windows: usize,
    window: fn(usize, &mut Database) -> Vec<String>,
}

const A: Scenario = Scenario {
    windows: 4,
    window: |w, db| {
        if w == 1 {
            return repeat("SELECT id FROM t WHERE a = 5", 10);
        }
        if w == 2 {
            insert_rows(db, 4000, 64_000, |i| i % 200);
            db.analyze_all();
        }
        repeat("SELECT id FROM t WHERE b = 3", 10)
    },
};

const A_WITH_BYSTANDER_TRAFFIC: Scenario = Scenario {
    windows: 4,
    window: |w, db| {
        let mut stmts = (A.window)(w, db);
        if w > 1 {
            stmts.extend(repeat("SELECT id FROM t WHERE a = 5", 10));
        }
        stmts
    },
};

const B: Scenario = Scenario {
    windows: 4,
    window: |w, db| {
        if w == 2 {
            // Skew: sixty thousand rows of the hot value, statistics stale.
            insert_rows(db, 4000, 64_000, |_| 5);
        }
        repeat("SELECT id, b FROM t WHERE a = 5", 10)
    },
};

const C: Scenario = Scenario {
    windows: 4,
    window: |w, _| {
        let mut stmts = repeat("SELECT id FROM t WHERE a = 5", 10);
        let base = 1_000_000 + 10 * w as i64;
        stmts.extend((base..base + 10).map(|id| format!("INSERT INTO t VALUES ({id}, 7, 7)")));
        stmts
    },
};

const D: Scenario = Scenario {
    windows: 4,
    window: |w, db| {
        if w == 3 {
            insert_rows(db, 4000, 5400, |i| i % 200);
            db.analyze_all();
        }
        let mut stmts = repeat("SELECT id FROM t WHERE a = 5", 10);
        stmts.extend(repeat("SELECT id FROM t WHERE b = 3", 10));
        stmts
    },
};

/// Executed cost of `sql` right now, kept out of the telemetry the
/// sentinel reads.
fn cost_of(db: &mut Database, sql: &str) -> f64 {
    let was_on = aim_telemetry::is_enabled();
    aim_telemetry::disable();
    let cost = Engine::new()
        .execute(db, &parse_statement(sql).unwrap())
        .unwrap()
        .cost;
    if was_on {
        aim_telemetry::enable();
    }
    cost
}

fn regression_events() -> usize {
    aim_telemetry::journal::events()
        .iter()
        .filter(|e| {
            matches!(
                e.kind,
                EventKind::RegressionDetected | EventKind::RegressionRollback
            )
        })
        .count()
}

/// Every template of the window: its average cost and the secondary
/// indexes its plan used — the evidence a per-query judge has.
fn observed(monitor: &WorkloadMonitor) -> String {
    let templates: Vec<String> = monitor
        .queries()
        .map(|q| {
            let via: Vec<&str> = q
                .indexes_used
                .iter()
                .map(|u| u.index.as_str())
                .filter(|name| *name != "PRIMARY")
                .collect();
            format!("{} {:.1} via {via:?}", q.normalized_text, q.cpu_avg())
        })
        .collect();
    templates.join("; ")
}

/// Runs `scenario` under `judge` with telemetry on and returns one line
/// per window. The unused-index GC is off, so every drop in a transcript
/// is a regression judge's.
fn transcript(scenario: &Scenario, judge: Judge) -> Vec<String> {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    aim_telemetry::enable();
    aim_telemetry::reset();

    let mut db = build_db(4000);
    let session = AimConfig::builder()
        .selection(SelectionConfig {
            min_executions: 1,
            min_benefit: 0.0,
            max_queries: 50,
            include_dml: true,
        })
        .ledger(true)
        .session();
    let mut tuner = ContinuousTuner::with_session(session, 0.5);
    tuner.unused_grace_windows = 0;
    if judge == Judge::DetectorAndSentinel {
        tuner = tuner.with_sentinel(LatencySentinel::new(SentinelConfig::default()));
    }

    let engine = Engine::new();
    let mut lines = Vec::new();
    for w in 1..=scenario.windows {
        let mut monitor = WorkloadMonitor::new();
        for sql in (scenario.window)(w, &mut db) {
            let stmt = parse_statement(&sql).unwrap();
            let out = engine.execute(&mut db, &stmt).unwrap();
            monitor.record(&stmt, &out);
        }
        let detected = aim_telemetry::metrics::REGRESSIONS_DETECTED.get();
        let journaled = regression_events();
        let out = tuner.step(&mut db, &monitor).unwrap();
        let created: Vec<&str> = out.tuning.created.iter().map(|c| c.def.name.as_str()).collect();
        let rebuilt: Vec<&str> = out
            .reverted
            .iter()
            .chain(&out.rolled_back)
            .map(String::as_str)
            .filter(|name| created.contains(name))
            .collect();
        lines.push(format!(
            "w{w}: {} | reverted {:?} rolled_back {:?} created {created:?} rebuilt {rebuilt:?} \
             | detected +{} journaled +{} | bystander {:.1}",
            observed(&monitor),
            out.reverted,
            out.rolled_back,
            aim_telemetry::metrics::REGRESSIONS_DETECTED.get() - detected,
            regression_events() - journaled,
            cost_of(&mut db, BYSTANDER),
        ));
    }
    aim_telemetry::disable();
    lines
}

fn check(name: &str, scenario: &Scenario, judge: Judge, pinned: &[&str]) {
    let lines = transcript(scenario, judge);
    println!("scenario {name}, {judge:?}:");
    for line in &lines {
        println!("  {line}");
    }
    assert_eq!(lines, pinned, "scenario {name} under {judge:?}");
}

#[test]
fn scenario_a_growth_and_a_shift_to_an_unindexed_column() {
    check(
        "A",
        &A,
        Judge::Detector,
        &[
            r#"w1: SELECT id FROM t WHERE a = ? 210.4 via [] | reverted [] rolled_back [] created ["aim_t_a"] rebuilt [] | detected +0 journaled +0 | bystander 6.4"#,
            r#"w2: SELECT id FROM t WHERE b = ? 3426.0 via [] | reverted [] rolled_back [] created ["aim_t_b"] rebuilt [] | detected +0 journaled +0 | bystander 27.4"#,
            r#"w3: SELECT id FROM t WHERE b = ? 459.0 via ["aim_t_b"] | reverted [] rolled_back [] created [] rebuilt [] | detected +0 journaled +0 | bystander 27.4"#,
            r#"w4: SELECT id FROM t WHERE b = ? 459.0 via ["aim_t_b"] | reverted [] rolled_back [] created [] rebuilt [] | detected +0 journaled +0 | bystander 27.4"#,
        ],
    );
    check(
        "A",
        &A,
        Judge::DetectorAndSentinel,
        &[
            r#"w1: SELECT id FROM t WHERE a = ? 210.4 via [] | reverted [] rolled_back [] created ["aim_t_a"] rebuilt [] | detected +0 journaled +0 | bystander 6.4"#,
            r#"w2: SELECT id FROM t WHERE b = ? 3426.0 via [] | reverted [] rolled_back ["aim_t_a"] created ["aim_t_b"] rebuilt [] | detected +1 journaled +1 | bystander 3304.4"#,
            r#"w3: SELECT id FROM t WHERE b = ? 459.0 via ["aim_t_b"] | reverted [] rolled_back ["aim_t_b"] created ["aim_t_b"] rebuilt ["aim_t_b"] | detected +1 journaled +1 | bystander 3304.4"#,
            r#"w4: SELECT id FROM t WHERE b = ? 459.0 via ["aim_t_b"] | reverted [] rolled_back ["aim_t_b"] created ["aim_t_b"] rebuilt ["aim_t_b"] | detected +1 journaled +1 | bystander 3304.4"#,
        ],
    );
}

#[test]
fn scenario_a_with_the_bystander_still_in_the_traffic() {
    check(
        "A'",
        &A_WITH_BYSTANDER_TRAFFIC,
        Judge::Detector,
        &[
            r#"w1: SELECT id FROM t WHERE a = ? 210.4 via [] | reverted [] rolled_back [] created ["aim_t_a"] rebuilt [] | detected +0 journaled +0 | bystander 6.4"#,
            r#"w2: SELECT id FROM t WHERE b = ? 3426.0 via []; SELECT id FROM t WHERE a = ? 27.4 via ["aim_t_a"] | reverted [] rolled_back [] created ["aim_t_b"] rebuilt [] | detected +0 journaled +0 | bystander 27.4"#,
            r#"w3: SELECT id FROM t WHERE b = ? 459.0 via ["aim_t_b"]; SELECT id FROM t WHERE a = ? 27.4 via ["aim_t_a"] | reverted [] rolled_back [] created [] rebuilt [] | detected +0 journaled +0 | bystander 27.4"#,
            r#"w4: SELECT id FROM t WHERE b = ? 459.0 via ["aim_t_b"]; SELECT id FROM t WHERE a = ? 27.4 via ["aim_t_a"] | reverted [] rolled_back [] created [] rebuilt [] | detected +0 journaled +0 | bystander 27.4"#,
        ],
    );
    check(
        "A'",
        &A_WITH_BYSTANDER_TRAFFIC,
        Judge::DetectorAndSentinel,
        &[
            r#"w1: SELECT id FROM t WHERE a = ? 210.4 via [] | reverted [] rolled_back [] created ["aim_t_a"] rebuilt [] | detected +0 journaled +0 | bystander 6.4"#,
            r#"w2: SELECT id FROM t WHERE b = ? 3426.0 via []; SELECT id FROM t WHERE a = ? 27.4 via ["aim_t_a"] | reverted [] rolled_back ["aim_t_a"] created ["aim_t_b", "aim_t_a"] rebuilt ["aim_t_a"] | detected +1 journaled +1 | bystander 27.4"#,
            r#"w3: SELECT id FROM t WHERE b = ? 459.0 via ["aim_t_b"]; SELECT id FROM t WHERE a = ? 27.4 via ["aim_t_a"] | reverted [] rolled_back ["aim_t_a", "aim_t_b"] created ["aim_t_b", "aim_t_a"] rebuilt ["aim_t_a", "aim_t_b"] | detected +1 journaled +2 | bystander 27.4"#,
            r#"w4: SELECT id FROM t WHERE b = ? 459.0 via ["aim_t_b"]; SELECT id FROM t WHERE a = ? 27.4 via ["aim_t_a"] | reverted [] rolled_back ["aim_t_a", "aim_t_b"] created ["aim_t_b", "aim_t_a"] rebuilt ["aim_t_a", "aim_t_b"] | detected +1 journaled +2 | bystander 27.4"#,
        ],
    );
}

#[test]
fn scenario_b_an_index_that_hurts_the_query_using_it() {
    check(
        "B",
        &B,
        Judge::Detector,
        &[
            r#"w1: SELECT id, b FROM t WHERE a = ? 210.4 via [] | reverted [] rolled_back [] created ["aim_t_a"] rebuilt [] | detected +0 journaled +0 | bystander 6.4"#,
            r#"w2: SELECT id, b FROM t WHERE a = ? 247345.4 via ["aim_t_a"] | reverted ["aim_t_a"] rolled_back [] created [] rebuilt [] | detected +1 journaled +1 | bystander 4498.4"#,
            r#"w3: SELECT id, b FROM t WHERE a = ? 4498.4 via [] | reverted [] rolled_back [] created [] rebuilt [] | detected +1 journaled +1 | bystander 4498.4"#,
            r#"w4: SELECT id, b FROM t WHERE a = ? 4498.4 via [] | reverted [] rolled_back [] created [] rebuilt [] | detected +1 journaled +1 | bystander 4498.4"#,
        ],
    );
    check(
        "B",
        &B,
        Judge::DetectorAndSentinel,
        &[
            r#"w1: SELECT id, b FROM t WHERE a = ? 210.4 via [] | reverted [] rolled_back [] created ["aim_t_a"] rebuilt [] | detected +0 journaled +0 | bystander 6.4"#,
            r#"w2: SELECT id, b FROM t WHERE a = ? 247345.4 via ["aim_t_a"] | reverted [] rolled_back ["aim_t_a"] created [] rebuilt [] | detected +2 journaled +2 | bystander 4498.4"#,
            r#"w3: SELECT id, b FROM t WHERE a = ? 4498.4 via [] | reverted [] rolled_back [] created [] rebuilt [] | detected +1 journaled +1 | bystander 4498.4"#,
            r#"w4: SELECT id, b FROM t WHERE a = ? 4498.4 via [] | reverted [] rolled_back [] created [] rebuilt [] | detected +1 journaled +1 | bystander 4498.4"#,
        ],
    );
}

#[test]
fn scenario_c_write_amplification() {
    check(
        "C",
        &C,
        Judge::Detector,
        &[
            r#"w1: SELECT id FROM t WHERE a = ? 210.4 via []; INSERT INTO t VALUES (?, ?, ?) 2.2 via [] | reverted [] rolled_back [] created ["aim_t_a"] rebuilt [] | detected +0 journaled +0 | bystander 6.4"#,
            r#"w2: SELECT id FROM t WHERE a = ? 6.4 via ["aim_t_a"]; INSERT INTO t VALUES (?, ?, ?) 4.4 via [] | reverted [] rolled_back [] created [] rebuilt [] | detected +1 journaled +1 | bystander 6.4"#,
            r#"w3: SELECT id FROM t WHERE a = ? 6.4 via ["aim_t_a"]; INSERT INTO t VALUES (?, ?, ?) 4.4 via [] | reverted [] rolled_back [] created [] rebuilt [] | detected +1 journaled +1 | bystander 6.4"#,
            r#"w4: SELECT id FROM t WHERE a = ? 6.4 via ["aim_t_a"]; INSERT INTO t VALUES (?, ?, ?) 4.4 via [] | reverted [] rolled_back [] created [] rebuilt [] | detected +1 journaled +1 | bystander 6.4"#,
        ],
    );
    check(
        "C",
        &C,
        Judge::DetectorAndSentinel,
        &[
            r#"w1: SELECT id FROM t WHERE a = ? 210.4 via []; INSERT INTO t VALUES (?, ?, ?) 2.2 via [] | reverted [] rolled_back [] created ["aim_t_a"] rebuilt [] | detected +0 journaled +0 | bystander 6.4"#,
            r#"w2: SELECT id FROM t WHERE a = ? 6.4 via ["aim_t_a"]; INSERT INTO t VALUES (?, ?, ?) 4.4 via [] | reverted [] rolled_back [] created [] rebuilt [] | detected +1 journaled +1 | bystander 6.4"#,
            r#"w3: SELECT id FROM t WHERE a = ? 6.4 via ["aim_t_a"]; INSERT INTO t VALUES (?, ?, ?) 4.4 via [] | reverted [] rolled_back [] created [] rebuilt [] | detected +1 journaled +1 | bystander 6.4"#,
            r#"w4: SELECT id FROM t WHERE a = ? 6.4 via ["aim_t_a"]; INSERT INTO t VALUES (?, ?, ?) 4.4 via [] | reverted [] rolled_back [] created [] rebuilt [] | detected +1 journaled +1 | bystander 6.4"#,
        ],
    );
}

#[test]
fn scenario_d_every_template_slower_within_the_tolerance() {
    check(
        "D",
        &D,
        Judge::Detector,
        &[
            r#"w1: SELECT id FROM t WHERE b = ? 218.0 via []; SELECT id FROM t WHERE a = ? 210.4 via [] | reverted [] rolled_back [] created ["aim_t_a", "aim_t_b"] rebuilt [] | detected +0 journaled +0 | bystander 6.4"#,
            r#"w2: SELECT id FROM t WHERE b = ? 33.0 via ["aim_t_b"]; SELECT id FROM t WHERE a = ? 6.4 via ["aim_t_a"] | reverted [] rolled_back [] created [] rebuilt [] | detected +0 journaled +0 | bystander 6.4"#,
            r#"w3: SELECT id FROM t WHERE b = ? 42.8 via ["aim_t_b"]; SELECT id FROM t WHERE a = ? 6.9 via ["aim_t_a"] | reverted [] rolled_back [] created [] rebuilt [] | detected +0 journaled +0 | bystander 6.9"#,
            r#"w4: SELECT id FROM t WHERE b = ? 42.8 via ["aim_t_b"]; SELECT id FROM t WHERE a = ? 6.9 via ["aim_t_a"] | reverted [] rolled_back [] created [] rebuilt [] | detected +0 journaled +0 | bystander 6.9"#,
        ],
    );
    check(
        "D",
        &D,
        Judge::DetectorAndSentinel,
        &[
            r#"w1: SELECT id FROM t WHERE b = ? 218.0 via []; SELECT id FROM t WHERE a = ? 210.4 via [] | reverted [] rolled_back [] created ["aim_t_a", "aim_t_b"] rebuilt [] | detected +0 journaled +0 | bystander 6.4"#,
            r#"w2: SELECT id FROM t WHERE b = ? 33.0 via ["aim_t_b"]; SELECT id FROM t WHERE a = ? 6.4 via ["aim_t_a"] | reverted [] rolled_back [] created [] rebuilt [] | detected +0 journaled +0 | bystander 6.4"#,
            r#"w3: SELECT id FROM t WHERE b = ? 42.8 via ["aim_t_b"]; SELECT id FROM t WHERE a = ? 6.9 via ["aim_t_a"] | reverted [] rolled_back [] created [] rebuilt [] | detected +0 journaled +0 | bystander 6.9"#,
            r#"w4: SELECT id FROM t WHERE b = ? 42.8 via ["aim_t_b"]; SELECT id FROM t WHERE a = ? 6.9 via ["aim_t_a"] | reverted [] rolled_back [] created [] rebuilt [] | detected +0 journaled +0 | bystander 6.9"#,
        ],
    );
}
