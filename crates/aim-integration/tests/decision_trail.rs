//! Where each decision of the advisor is read back after the fact.
//!
//! One test runs with telemetry and the decision ledger on and drives every
//! kind of decision the advisor makes: a validated pass that accepts and
//! rejects, a pass aborted mid-materialization, a continuous window that
//! reverts an index, one whose regression no index explains, an unused
//! index dropped, and a fleet whose tenant-0 probe faults. For each
//! decision it asserts the fact where an operator finds it: in what the
//! pass returns (`AimOutcome`, `ContinuousOutcome`, `FleetOutcome`, the
//! returned `AimError`), in the ledger's stages, in a counter, or in the
//! monitor's per-template statistics. EXPERIMENTS.md, "One decision
//! trail", maps each fact to its home.
//!
//! The fixtures are the TPC-H case of `pass_golden.rs`, the `t` table and
//! scenario B of `regression_scenarios.rs`, and the faulted fleet of
//! `fleet.rs`. Fault state and telemetry are process-global; this binary
//! holds one test.

mod common;

use aim_core::continuous::ContinuousTuner;
use aim_core::{AimConfig, DecisionLedger};
use aim_monitor::{SelectionConfig, WorkloadMonitor};
use aim_storage::fault::{self, FaultGuard, FaultPlan};
use aim_storage::Database;
use aim_telemetry as tel;
use aim_workloads::tpch;

/// Every template observed once is a candidate source; writes included.
fn selection() -> SelectionConfig {
    SelectionConfig {
        min_executions: 1,
        min_benefit: 0.0,
        max_queries: usize::MAX,
        include_dml: true,
    }
}

fn counter(name: &str) -> u64 {
    tel::snapshot().counter(name).unwrap_or(0)
}

/// Names of the ledger's records whose last stage is `stage`, sorted.
fn ending_in(ledger: &DecisionLedger, stage: &str) -> Vec<String> {
    sorted(
        ledger
            .records()
            .iter()
            .filter(|r| r.outcome() == stage)
            .map(|r| r.name.as_str()),
    )
}

/// Names of the ledger's records that passed through `stage`, sorted.
fn through(ledger: &DecisionLedger, stage: &str) -> Vec<String> {
    sorted(
        ledger
            .records()
            .iter()
            .filter(|r| r.stages().contains(&stage))
            .map(|r| r.name.as_str()),
    )
}

fn sorted<'a>(names: impl IntoIterator<Item = &'a str>) -> Vec<String> {
    let mut names: Vec<String> = names.into_iter().map(str::to_string).collect();
    names.sort();
    names
}

#[test]
fn every_decision_is_read_back_from_what_a_pass_returns_the_ledger_or_a_counter() {
    let _faults = FaultGuard::acquire();
    tel::enable();
    a_validated_pass_that_accepts_and_rejects();
    a_pass_aborted_while_materializing();
    a_window_that_reverts_then_one_with_nothing_to_revert();
    an_unused_index_dropped();
    a_fleet_whose_probe_faults();
    tel::disable();
    tel::reset();
}

/// The TPC-H case of `pass_golden.rs`: 7 indexes accepted, 2 rejected for
/// the regression of one template.
fn a_validated_pass_that_accepts_and_rejects() {
    tel::reset();
    let mut db = tpch::build_database(&tpch::TpchConfig::default());
    let texts = [0xA1, 0xA2]
        .into_iter()
        .flat_map(tpch::query_texts)
        .map(|(_, sql)| sql);
    let monitor = common::observe(&mut db, texts);
    let session = AimConfig::builder()
        .selection(selection())
        .ledger(true)
        .session();
    let out = session.run(&mut db, &monitor).unwrap();
    let ledger = session.ledger();
    let created: Vec<&str> = out.created.iter().map(|c| c.def.name.as_str()).collect();
    let rejected: Vec<&str> = out.rejected.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!((created.len(), rejected.len()), (7, 2));

    // Accepted: returned, `materialized` in the ledger, counted.
    assert_eq!(ending_in(&ledger, "materialized"), sorted(created.clone()));
    assert_eq!(counter("aim.indexes_created"), 7);
    // Rejected: returned with the reason, `validation_rejected`, counted.
    assert_eq!(
        ending_in(&ledger, "validation_rejected"),
        sorted(rejected.clone())
    );
    for (name, reason) in &out.rejected {
        let record = ledger.find(name).unwrap();
        assert_eq!(&record.events.last().unwrap().detail, reason);
    }
    assert_eq!(counter("aim.indexes_rejected"), 2);
    // The validation verdict: every validated candidate's stage, and the
    // rounds it took.
    assert_eq!(
        through(&ledger, "validation_accepted"),
        sorted(created.clone())
    );
    assert!(counter("aim.validation_rounds") >= 2);
    // Generation: every candidate's record starts at `generated`, with
    // the templates it was derived from.
    assert!(out.candidates_generated >= created.len() + rejected.len());
    assert_eq!(
        counter("aim.candidates_generated"),
        out.candidates_generated as u64
    );
    for record in ledger.records() {
        assert_eq!(record.stages()[0], "generated", "{}", record.name);
        assert!(!record.sources.is_empty(), "{}", record.name);
    }
}

/// Two estimate-only candidates on `t`; the second build on production
/// fails, and the first is rolled back.
fn a_pass_aborted_while_materializing() {
    tel::reset();
    let mut db = common::t_db(4000);
    let texts = [
        "SELECT id FROM t WHERE a = 5",
        "SELECT id FROM t WHERE b = 3 AND a < 190",
    ]
    .into_iter()
    .flat_map(|sql| vec![sql.to_string(); 10]);
    let monitor = common::observe(&mut db, texts);
    let session = AimConfig::builder()
        .selection(selection())
        .skip_validation(true)
        .ledger(true)
        .session();
    fault::arm(FaultPlan::new(7).fail("storage.create_index", 1, 1));
    let err = session.run(&mut db, &monitor).unwrap_err();
    assert_eq!(fault::disarm().len(), 1);

    // The returned error names the phase and the site; the ledger names
    // what was rolled back; the counter counts the abort.
    assert_eq!(err.phase(), "materialize");
    assert!(err.to_string().contains("storage.create_index"), "{err}");
    let ledger = session.ledger();
    assert_eq!(ending_in(&ledger, "rolled_back"), ["aim_t_a"]);
    assert!(db.all_indexes().is_empty());
    assert_eq!(counter("aim.passes_aborted"), 1);
}

/// Runs `sql` `n` times on `db`.
fn window(db: &mut Database, sql: &str, n: usize) -> WorkloadMonitor {
    common::observe(db, vec![sql.to_string(); n])
}

fn tuner() -> ContinuousTuner {
    let session = AimConfig::builder()
        .selection(selection())
        .ledger(true)
        .session();
    ContinuousTuner::with_session(session, 0.5)
}

/// Scenario B of `regression_scenarios.rs`: skew under stale statistics
/// makes the query using the new index far slower. Window 2 reverts the
/// index; window 3's slowdown (the data grew) has no index to blame and is
/// counted without a revert.
fn a_window_that_reverts_then_one_with_nothing_to_revert() {
    const QUERY: &str = "SELECT id, b FROM t WHERE a = 5";
    tel::reset();
    let mut db = common::t_db(4000);
    let mut tuner = tuner();
    tuner.unused_grace_windows = 0;
    let w1 = window(&mut db, QUERY, 10);
    let out = tuner.step(&mut db, &w1).unwrap();
    let created: Vec<&str> = out
        .tuning
        .created
        .iter()
        .map(|c| c.def.name.as_str())
        .collect();
    assert_eq!(created, ["aim_t_a"]);

    common::insert_t_rows(&mut db, 4000, 64_000, |_| 5);
    let w2 = window(&mut db, QUERY, 10);
    let detected = counter("aim.regressions_detected");
    let out = tuner.step(&mut db, &w2).unwrap();

    // The plan the window ran: the monitor's last plan of the template.
    let stats = w2.queries().next().unwrap();
    let used: Vec<&str> = stats
        .indexes_used
        .iter()
        .map(|u| u.index.as_str())
        .collect();
    assert_eq!(used, ["aim_t_a"]);
    // Reverted: returned, `reverted` in the ledger, and counted as the
    // one regression the step returns.
    assert_eq!(out.reverted, ["aim_t_a"]);
    assert_eq!(ending_in(&tuner.session.ledger(), "reverted"), ["aim_t_a"]);
    assert_eq!(counter("aim.regressions_detected") - detected, 1);
    assert_eq!(out.regressions.len(), 1);
    assert_eq!(out.regressions[0].query, stats.fingerprint);
    assert_eq!(out.regressions[0].suspect_indexes, ["aim_t_a"]);

    let w3 = window(&mut db, QUERY, 10);
    let detected = counter("aim.regressions_detected");
    let out = tuner.step(&mut db, &w3).unwrap();
    // Nothing to revert, one regression counted and returned.
    assert!(out.reverted.is_empty());
    assert_eq!(counter("aim.regressions_detected") - detected, 1);
    assert_eq!(out.regressions.len(), 1);
    assert_eq!(out.regressions[0].query, stats.fingerprint);
    assert!(out.regressions[0].suspect_indexes.is_empty());
    assert!(out.regressions[0].current > out.regressions[0].baseline * 1.5);

    // While it lasts it is not counted or returned again.
    let w4 = window(&mut db, QUERY, 10);
    let detected = counter("aim.regressions_detected");
    let out = tuner.step(&mut db, &w4).unwrap();
    assert_eq!(counter("aim.regressions_detected") - detected, 0);
    assert!(out.regressions.is_empty());
}

/// Traffic moves from `a` to `b`; with a grace of one window the index on
/// `a` goes in the window it is first unused.
fn an_unused_index_dropped() {
    tel::reset();
    let mut db = common::t_db(4000);
    let mut tuner = tuner();
    tuner.unused_grace_windows = 1;
    let w1 = window(&mut db, "SELECT id FROM t WHERE a = 5", 10);
    tuner.step(&mut db, &w1).unwrap();
    let w2 = window(&mut db, "SELECT id FROM t WHERE b = 3", 10);
    let out = tuner.step(&mut db, &w2).unwrap();

    assert_eq!(out.dropped_unused, ["aim_t_a"]);
    let ledger = tuner.session.ledger();
    assert_eq!(ending_in(&ledger, "dropped_unused"), ["aim_t_a"]);
}

/// The faulted fleet of `fleet.rs`: tenant-0 fails in the probe, the
/// other three tune.
fn a_fleet_whose_probe_faults() {
    tel::reset();
    let base = AimConfig::builder()
        .selection(selection())
        .ledger(true)
        .build();
    let (outcome, _) = common::fleet_with_one_probe_fault(base);

    assert_eq!((outcome.tuned(), outcome.failed()), (3, 1));
    let err = outcome.tenants[0].result.as_ref().unwrap_err();
    assert!(err.to_string().contains("exec.whatif"), "{err}");
    assert_eq!(counter("fleet.tenant_failures"), 1);
    assert_eq!(counter("fleet.shards_tuned"), 3);
    assert_eq!(counter("fleet.budget_transfers"), outcome.budget_transfers);
    for tenant in &outcome.tenants[1..] {
        assert!(tenant
            .ledger_json
            .as_ref()
            .unwrap()
            .contains("materialized"));
    }
}
