//! What clone validation pays for, as counts — no wall clock.
//!
//! A validated pass is proportional to what its candidate set changes
//! (DESIGN.md §18): one test bed, each candidate built on it once, an
//! exemplar executed only under a plan not yet measured, no ANALYZE after
//! an index build. The tests read the process-wide telemetry counters and
//! the injection log of a fault plan that only observes, so they live in
//! their own binary and take turns.

mod common;

use aim_core::{
    generate_candidates, knapsack_select, rank_candidates_with, validate_on_clone, AimConfig,
    CandidateGenConfig, RankedCandidate, ValidationConfig,
};
use aim_exec::{CostModel, Engine};
use aim_monitor::{select_workload, SelectionConfig, WorkloadMonitor, WorkloadQuery};
use aim_sql::parse_statement;
use aim_storage::fault::{self, FaultPlan};
use aim_storage::Database;
use aim_telemetry as tel;
use aim_workloads::tpch;
use std::sync::Mutex;

static LOCK: Mutex<()> = Mutex::new(());

fn selection() -> SelectionConfig {
    SelectionConfig {
        min_executions: 1,
        min_benefit: 0.0,
        max_queries: usize::MAX,
        include_dml: true,
    }
}

/// The TPC-H fixture of `pass_golden.rs` (`tpch_case()`): 22 templates, two
/// parameter seeds each, observed on the index-free database.
fn tpch_case() -> (Database, WorkloadMonitor) {
    let mut db = tpch::build_database(&tpch::TpchConfig::default());
    let texts = [0xA1, 0xA2].into_iter().flat_map(tpch::query_texts).map(|(_, sql)| sql);
    let monitor = common::observe(&mut db, texts);
    (db, monitor)
}

/// Workload and unbounded knapsack choice, through the public stage
/// functions the session calls.
fn chosen(db: &Database, monitor: &WorkloadMonitor) -> (Vec<WorkloadQuery>, Vec<RankedCandidate>) {
    let workload = select_workload(monitor, &selection());
    let candidates = generate_candidates(db, &workload, &CandidateGenConfig::default());
    let ranked = rank_candidates_with(db, &workload, &candidates, &CostModel::default(), 0);
    let chosen = knapsack_select(&ranked, u64::MAX, 0);
    (workload, chosen)
}

/// `(rounds, executed, reused)` as the counters stand.
fn validation_counters() -> (u64, u64, u64) {
    let snap = tel::snapshot();
    let get = |name: &str| snap.counter(name).unwrap();
    (
        get("aim.validation_rounds"),
        get("aim.validation_executed"),
        get("aim.validation_reused"),
    )
}

#[test]
fn a_validated_pass_pays_for_what_its_candidates_change() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (mut db, monitor) = tpch_case();
    assert!(!db.stats_dirty(), "the pass starts on an analysed database");
    let (workload, picked) = chosen(&db, &monitor);
    let exemplars = workload.len() as u64;
    let untuned = db.clone();

    // A zero-millisecond stall that never runs out logs every consultation
    // of its site and changes nothing.
    let sites = ["storage.clone", "storage.create_index", "storage.analyze"];
    let observer = sites
        .iter()
        .fold(FaultPlan::new(1), |plan, site| plan.delay_ms(site, 0, 0, u64::MAX));
    tel::enable();
    tel::reset();
    fault::arm(observer);
    let outcome = AimConfig::builder()
        .selection(selection())
        .session()
        .run(&mut db, &monitor)
        .unwrap();
    let log = fault::disarm();
    let (rounds, executed, reused) = validation_counters();
    tel::disable();

    let consulted = |site: &str| log.iter().filter(|i| i.site == site).count();
    let created = outcome.created.len();
    assert!(created > 0 && !outcome.rejected.is_empty(), "{outcome:?}");
    assert_eq!(picked.len(), created + outcome.rejected.len());
    assert_eq!(rounds, 2, "round 1 rejects, round 2 confirms the survivors");
    assert_eq!(consulted("storage.clone"), 1, "one test bed per validation");
    assert_eq!(
        consulted("storage.create_index"),
        picked.len() + created,
        "each chosen candidate built once on the bed, each accepted one once on production"
    );
    assert_eq!(consulted("storage.analyze"), 0, "an index build leaves statistics current");
    assert!(!db.stats_dirty());
    assert_eq!(executed + reused, exemplars * (1 + rounds));
    assert_eq!(
        (executed, reused),
        (34, 32),
        "the baseline executes all 22; round 1 only the 12 whose plan moved"
    );

    // Round 2 executes nothing: its plans are those of the baseline or of
    // round 1. Cut off after round 1, validation has executed as much.
    let executed_within = |max_rounds: usize| {
        tel::enable();
        tel::reset();
        let cfg = ValidationConfig { max_rounds, ..Default::default() };
        validate_on_clone(&untuned, &workload, &picked, &Engine::new(), &cfg).unwrap();
        let counts = validation_counters();
        tel::disable();
        counts
    };
    let (one_round, executed_in_one, _) = executed_within(1);
    let (all_rounds, executed_in_all, reused_in_all) = executed_within(3);
    assert_eq!((one_round, all_rounds), (1, 2));
    assert_eq!(executed_in_all, executed_in_one);
    assert_eq!((executed_in_all, reused_in_all), (executed, reused));
}

/// `executor.rs`: "validation replays ... must not pollute the live-traffic
/// signal" — whatever the worker count. (With one worker they used to go
/// through `Engine::execute`.)
#[test]
fn validation_replays_do_not_feed_the_live_traffic_signal() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (mut db, monitor) = tpch_case();
    let (workload, picked) = chosen(&db, &monitor);
    assert!(!picked.is_empty());

    tel::enable();
    tel::reset();
    // One production SELECT, so that both series exist.
    let stmt = parse_statement("SELECT r_name FROM region WHERE r_regionkey = 1").unwrap();
    Engine::new().execute(&mut db, &stmt).unwrap();
    let live = || {
        let snap = tel::snapshot();
        let select_cost = snap
            .histograms
            .iter()
            .find(|(series, _)| series.is_bare("exec.select_cost"))
            .map(|(_, h)| h.count);
        (select_cost, snap.counter("exec.statements"))
    };
    let before = live();
    assert_eq!(before, (Some(1), Some(1)));
    for workers in [1, 4] {
        let cfg = ValidationConfig { workers, ..Default::default() };
        let outcome = validate_on_clone(&db, &workload, &picked, &Engine::new(), &cfg).unwrap();
        assert!(!outcome.accepted.is_empty());
        assert_eq!(live(), before, "workers: {workers}");
    }
    tel::disable();
}
