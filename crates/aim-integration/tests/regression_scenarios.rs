//! Who drops an index after a regression, window by window.
//!
//! Seeded scenarios run through [`ContinuousTuner::step`], whose one
//! regression judge is the per-query [`RegressionDetector`] over the
//! window's monitor. Every window's outcome is pinned as one line: what the
//! window observed (each template's average cost and the indexes its plan
//! used), what the step reverted, what its pass created, how many
//! regressions it counted and returned, and what the bystander query
//! `SELECT id FROM t WHERE a = 5` costs afterwards. The unused-index GC is
//! off, so every drop in a transcript is the judge's.
//!
//! * **A** — the table grows 16× and traffic moves to an unindexed
//!   `b = ?`. No query that used `aim_t_a` got slower, so nothing is
//!   dropped.
//! * **A'** — the same with `a = ?` still in the traffic.
//! * **B** — skew arrives under stale statistics: the plan keeps using the
//!   index the previous step created and the query gets far slower. The
//!   index is reverted; the slowdown that remains (the data grew) has no
//!   index to blame and is reported once.
//! * **C** — write amplification: the INSERT template doubles in cost
//!   after `aim_t_a`, a trade-off ranking priced and accepted (Eq. 8).
//!   Reported on the window it appears, nothing dropped; window 5 has no
//!   INSERT, so window 6 reports it again.
//! * **D** — the table grows by a third under indexed traffic: every
//!   template slows, the widest by 30 %, none past the per-query tolerance.
//!   Nothing fires.
//!
//! On every window of every scenario: no index is dropped and built again
//! within the step; an index is reverted only if a template whose average
//! regressed used it in that window; the reverted index's ledger record
//! ends in `reverted` after `materialized`; and the run decides the same
//! with telemetry on and with telemetry off.
//!
//! Everything is seeded and nothing reads a clock. EXPERIMENTS.md, "One
//! regression judge", has what a second judge fed from telemetry did on
//! the same scenarios.
//!
//! [`RegressionDetector`]: aim_core::RegressionDetector

mod common;

use aim_core::continuous::ContinuousTuner;
use aim_core::AimConfig;
use aim_exec::Engine;
use aim_monitor::{SelectionConfig, WorkloadMonitor};
use aim_sql::normalize::QueryFingerprint;
use aim_sql::parse_statement;
use aim_storage::Database;
use std::collections::BTreeMap;
use std::sync::Mutex;

/// Telemetry state is process-global; tests in this binary take turns.
static LOCK: Mutex<()> = Mutex::new(());

const BYSTANDER: &str = "SELECT id FROM t WHERE a = 5";

/// The tolerance every tuner in this file runs with.
const TOLERANCE: f64 = 0.5;

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
            common::insert_t_rows(db, 4000, 64_000, |i| i % 200);
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
            common::insert_t_rows(db, 4000, 64_000, |_| 5);
        }
        repeat("SELECT id, b FROM t WHERE a = 5", 10)
    },
};

const C: Scenario = Scenario {
    windows: 6,
    window: |w, _| {
        let mut stmts = repeat("SELECT id FROM t WHERE a = 5", 10);
        if w != 5 {
            let base = 1_000_000 + 10 * w as i64;
            stmts.extend((base..base + 10).map(|id| format!("INSERT INTO t VALUES ({id}, 7, 7)")));
        }
        stmts
    },
};

const D: Scenario = Scenario {
    windows: 4,
    window: |w, db| {
        if w == 3 {
            common::insert_t_rows(db, 4000, 5400, |i| i % 200);
            db.analyze_all();
        }
        let mut stmts = repeat("SELECT id FROM t WHERE a = 5", 10);
        stmts.extend(repeat("SELECT id FROM t WHERE b = 3", 10));
        stmts
    },
};

/// Executed cost of `sql` right now.
fn cost_of(db: &mut Database, sql: &str) -> f64 {
    Engine::new()
        .execute(db, &parse_statement(sql).unwrap())
        .unwrap()
        .cost
}

fn session() -> aim_core::TuningSession {
    AimConfig::builder()
        .selection(SelectionConfig {
            min_executions: 1,
            min_benefit: 0.0,
            max_queries: 50,
            include_dml: true,
        })
        .ledger(true)
        .session()
}

/// Executes `stmts` and returns the window they make.
fn observe(db: &mut Database, stmts: Vec<String>) -> WorkloadMonitor {
    let engine = Engine::new();
    let mut monitor = WorkloadMonitor::new();
    for sql in stmts {
        let stmt = parse_statement(&sql).unwrap();
        let out = engine.execute(db, &stmt).unwrap();
        monitor.record(&stmt, &out);
    }
    monitor
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

/// One window of a transcript: what the step decided, and what it counted.
#[derive(Clone, PartialEq, Debug)]
struct Step {
    /// Observed templates, reverted and created indexes.
    decided: String,
    /// The regressions the step returned (`ContinuousOutcome::regressions`).
    returned: usize,
    /// What the step added to `aim.regressions_detected`: the one part
    /// that depends on telemetry.
    detected: u64,
    /// The bystander's cost after the step.
    bystander: String,
}

/// Runs `scenario` and returns one [`Step`] per window, asserting the
/// per-window invariants on the way.
fn transcript(scenario: &Scenario, telemetry: bool) -> Vec<Step> {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    aim_telemetry::reset();
    if telemetry {
        aim_telemetry::enable();
    }

    let mut db = common::t_db(4000);
    let mut tuner = ContinuousTuner::with_session(session(), TOLERANCE);
    tuner.unused_grace_windows = 0;

    // The judge's baseline, kept independently: best average seen so far.
    let mut best: BTreeMap<QueryFingerprint, f64> = BTreeMap::new();
    let mut steps = Vec::new();
    for w in 1..=scenario.windows {
        let stmts = (scenario.window)(w, &mut db);
        let monitor = observe(&mut db, stmts);
        let detected = aim_telemetry::metrics::REGRESSIONS_DETECTED.get();
        let out = tuner.step(&mut db, &monitor).unwrap();
        let created: Vec<&str> = out
            .tuning
            .created
            .iter()
            .map(|c| c.def.name.as_str())
            .collect();

        for name in &out.reverted {
            assert!(
                !created.contains(&name.as_str()),
                "w{w}: {name} dropped and built again within one step"
            );
            assert!(
                monitor.queries().any(|q| {
                    q.indexes_used.iter().any(|u| &u.index == name)
                        && best
                            .get(&q.fingerprint)
                            .is_some_and(|b| q.cpu_avg() > b * (1.0 + TOLERANCE))
                }),
                "w{w}: {name} reverted, but no regressed template used it"
            );
            let ledger = tuner.session.ledger();
            let record = ledger
                .find(name)
                .expect("reverted index has a ledger record");
            assert_eq!(record.outcome(), "reverted");
            assert!(
                record.stages().contains(&"materialized"),
                "{:?}",
                record.stages()
            );
        }
        assert!(out.dropped_unused.is_empty(), "the GC is off");
        for q in monitor.queries() {
            let avg = q.cpu_avg();
            best.entry(q.fingerprint)
                .and_modify(|b| *b = b.min(avg))
                .or_insert(avg);
        }

        steps.push(Step {
            decided: format!(
                "w{w}: {} | reverted {:?} created {created:?}",
                observed(&monitor),
                out.reverted
            ),
            returned: out.regressions.len(),
            detected: aim_telemetry::metrics::REGRESSIONS_DETECTED.get() - detected,
            bystander: format!("bystander {:.1}", cost_of(&mut db, BYSTANDER)),
        });
    }
    aim_telemetry::disable();
    steps
}

/// Holds `scenario` to its pinned transcript with telemetry on, and to the
/// same decisions with telemetry off.
fn check(name: &str, scenario: &Scenario, pinned: &[&str]) {
    let on = transcript(scenario, true);
    println!("scenario {name}:");
    let lines: Vec<String> = on
        .iter()
        .map(|s| {
            format!(
                "{} | detected +{} returned +{} | {}",
                s.decided, s.detected, s.returned, s.bystander
            )
        })
        .collect();
    for line in &lines {
        println!("  {line}");
    }
    assert_eq!(lines, pinned, "scenario {name}");

    for s in &on {
        assert_eq!(s.detected, s.returned as u64, "{}", s.decided);
    }
    let uncounted: Vec<Step> = on.into_iter().map(|s| Step { detected: 0, ..s }).collect();
    assert_eq!(
        transcript(scenario, false),
        uncounted,
        "scenario {name}: telemetry decided something"
    );
}

#[test]
fn scenario_a_growth_and_a_shift_to_an_unindexed_column() {
    check(
        "A",
        &A,
        &[
            r#"w1: SELECT id FROM t WHERE a = ? 210.4 via [] | reverted [] created ["aim_t_a"] | detected +0 returned +0 | bystander 6.4"#,
            r#"w2: SELECT id FROM t WHERE b = ? 3426.0 via [] | reverted [] created ["aim_t_b"] | detected +0 returned +0 | bystander 27.4"#,
            r#"w3: SELECT id FROM t WHERE b = ? 459.0 via ["aim_t_b"] | reverted [] created [] | detected +0 returned +0 | bystander 27.4"#,
            r#"w4: SELECT id FROM t WHERE b = ? 459.0 via ["aim_t_b"] | reverted [] created [] | detected +0 returned +0 | bystander 27.4"#,
        ],
    );
}

#[test]
fn scenario_a_with_the_bystander_still_in_the_traffic() {
    check(
        "A'",
        &A_WITH_BYSTANDER_TRAFFIC,
        &[
            r#"w1: SELECT id FROM t WHERE a = ? 210.4 via [] | reverted [] created ["aim_t_a"] | detected +0 returned +0 | bystander 6.4"#,
            r#"w2: SELECT id FROM t WHERE b = ? 3426.0 via []; SELECT id FROM t WHERE a = ? 27.4 via ["aim_t_a"] | reverted [] created ["aim_t_b"] | detected +0 returned +0 | bystander 27.4"#,
            r#"w3: SELECT id FROM t WHERE b = ? 459.0 via ["aim_t_b"]; SELECT id FROM t WHERE a = ? 27.4 via ["aim_t_a"] | reverted [] created [] | detected +0 returned +0 | bystander 27.4"#,
            r#"w4: SELECT id FROM t WHERE b = ? 459.0 via ["aim_t_b"]; SELECT id FROM t WHERE a = ? 27.4 via ["aim_t_a"] | reverted [] created [] | detected +0 returned +0 | bystander 27.4"#,
        ],
    );
}

#[test]
fn scenario_b_an_index_that_hurts_the_query_using_it() {
    check(
        "B",
        &B,
        &[
            r#"w1: SELECT id, b FROM t WHERE a = ? 210.4 via [] | reverted [] created ["aim_t_a"] | detected +0 returned +0 | bystander 6.4"#,
            r#"w2: SELECT id, b FROM t WHERE a = ? 247345.4 via ["aim_t_a"] | reverted ["aim_t_a"] created [] | detected +1 returned +1 | bystander 4498.4"#,
            r#"w3: SELECT id, b FROM t WHERE a = ? 4498.4 via [] | reverted [] created [] | detected +1 returned +1 | bystander 4498.4"#,
            r#"w4: SELECT id, b FROM t WHERE a = ? 4498.4 via [] | reverted [] created [] | detected +0 returned +0 | bystander 4498.4"#,
        ],
    );
}

#[test]
fn scenario_c_write_amplification() {
    check(
        "C",
        &C,
        &[
            r#"w1: SELECT id FROM t WHERE a = ? 210.4 via []; INSERT INTO t VALUES (?, ?, ?) 2.2 via [] | reverted [] created ["aim_t_a"] | detected +0 returned +0 | bystander 6.4"#,
            r#"w2: SELECT id FROM t WHERE a = ? 6.4 via ["aim_t_a"]; INSERT INTO t VALUES (?, ?, ?) 4.4 via [] | reverted [] created [] | detected +1 returned +1 | bystander 6.4"#,
            r#"w3: SELECT id FROM t WHERE a = ? 6.4 via ["aim_t_a"]; INSERT INTO t VALUES (?, ?, ?) 4.4 via [] | reverted [] created [] | detected +0 returned +0 | bystander 6.4"#,
            r#"w4: SELECT id FROM t WHERE a = ? 6.4 via ["aim_t_a"]; INSERT INTO t VALUES (?, ?, ?) 4.4 via [] | reverted [] created [] | detected +0 returned +0 | bystander 6.4"#,
            r#"w5: SELECT id FROM t WHERE a = ? 6.4 via ["aim_t_a"] | reverted [] created [] | detected +0 returned +0 | bystander 6.4"#,
            r#"w6: SELECT id FROM t WHERE a = ? 6.4 via ["aim_t_a"]; INSERT INTO t VALUES (?, ?, ?) 4.4 via [] | reverted [] created [] | detected +1 returned +1 | bystander 6.4"#,
        ],
    );
}

#[test]
fn scenario_d_every_template_slower_within_the_tolerance() {
    check(
        "D",
        &D,
        &[
            r#"w1: SELECT id FROM t WHERE b = ? 218.0 via []; SELECT id FROM t WHERE a = ? 210.4 via [] | reverted [] created ["aim_t_a", "aim_t_b"] | detected +0 returned +0 | bystander 6.4"#,
            r#"w2: SELECT id FROM t WHERE b = ? 33.0 via ["aim_t_b"]; SELECT id FROM t WHERE a = ? 6.4 via ["aim_t_a"] | reverted [] created [] | detected +0 returned +0 | bystander 6.4"#,
            r#"w3: SELECT id FROM t WHERE b = ? 42.8 via ["aim_t_b"]; SELECT id FROM t WHERE a = ? 6.9 via ["aim_t_a"] | reverted [] created [] | detected +0 returned +0 | bystander 6.9"#,
            r#"w4: SELECT id FROM t WHERE b = ? 42.8 via ["aim_t_b"]; SELECT id FROM t WHERE a = ? 6.9 via ["aim_t_a"] | reverted [] created [] | detected +0 returned +0 | bystander 6.9"#,
        ],
    );
}

/// Three tenants, each with its own tuner, database and monitor, stepped
/// in turn under their telemetry scopes: the skew that reverts alpha's
/// index leaves beta's and gamma's alone. By construction — a tuner sees
/// one database and one monitor — so asserted once.
#[test]
fn a_tenants_regression_reverts_only_that_tenants_index() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    aim_telemetry::reset();
    aim_telemetry::enable();

    let mut tenants: Vec<(&str, Database, ContinuousTuner)> = ["alpha", "beta", "gamma"]
        .into_iter()
        .map(|id| {
            (
                id,
                common::t_db(4000),
                ContinuousTuner::with_session(session(), TOLERANCE),
            )
        })
        .collect();
    let mut reverted: Vec<(&str, Vec<String>)> = Vec::new();
    for w in 1..=2 {
        for (id, db, tuner) in tenants.iter_mut() {
            let _scope = aim_telemetry::scope(id);
            if w == 2 && *id == "alpha" {
                common::insert_t_rows(db, 4000, 10_000, |_| 5);
            }
            let monitor = observe(db, repeat("SELECT id, b FROM t WHERE a = 5", 10));
            let out = tuner.step(db, &monitor).unwrap();
            if w == 2 {
                reverted.push((id, out.reverted));
            }
        }
    }
    aim_telemetry::disable();

    assert_eq!(
        reverted,
        [
            ("alpha", vec!["aim_t_a".to_string()]),
            ("beta", vec![]),
            ("gamma", vec![]),
        ]
    );
    for (id, db, _) in &tenants {
        let has = db.all_indexes().iter().any(|d| d.name == "aim_t_a");
        assert_eq!(has, *id != "alpha", "{id}");
    }
}
