//! What clone validation pays for, as counts — no wall clock.
//!
//! A validated pass is proportional to what its candidate set changes
//! (DESIGN.md §18): one test bed, each candidate built on it once, an
//! exemplar executed only under a plan not yet measured — by this
//! validation, or by the monitor on the same contents — no ANALYZE after an
//! index build. The tests read the process-wide telemetry counters and
//! the injection log of a fault plan that only observes, so they live in
//! their own binary and take turns.
//!
//! The baseline replay is pinned on its own (validation cut off before its
//! first round): on the source the monitor observed it executes nothing.
//! After a write it executes exactly the exemplars that bind the written
//! table — none for a table no exemplar reads — and on a disk-backed
//! source it executes every exemplar.

mod common;

use aim_core::{
    generate_candidates, knapsack_select, try_rank_candidates_with, validate_on_clone, AimConfig,
    CandidateGenConfig, RankedCandidate, RunCtl, ValidationConfig,
};
use aim_exec::{Engine, WhatIfCache};
use aim_monitor::{select_workload, SelectionConfig, WorkloadMonitor, WorkloadQuery};
use aim_sql::{parse_statement, Statement};
use aim_storage::fault::{self, FaultPlan};
use aim_storage::{ColumnDef, ColumnType, Database, IoStats, TableSchema};
use aim_telemetry as tel;
use aim_workloads::{job, tpch};
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
    observed(tpch::build_database(&tpch::TpchConfig::default()))
}

/// `db` with the fixture's 44 statements executed and recorded.
fn observed(mut db: Database) -> (Database, WorkloadMonitor) {
    let texts = [0xA1, 0xA2]
        .into_iter()
        .flat_map(tpch::query_texts)
        .map(|(_, sql)| sql);
    let monitor = common::observe(&mut db, texts);
    (db, monitor)
}

/// Workload and unbounded knapsack choice, through the public stage
/// functions the session calls.
fn chosen(db: &Database, monitor: &WorkloadMonitor) -> (Vec<WorkloadQuery>, Vec<RankedCandidate>) {
    let workload = select_workload(monitor, &selection());
    let candidates = generate_candidates(db, &workload, &CandidateGenConfig::default());
    let ranked = try_rank_candidates_with(
        db,
        &workload,
        &candidates,
        &RunCtl::none(),
        &WhatIfCache::new(),
    )
    .unwrap();
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

/// `(rounds, executed, reused)` of one validation of `picked` on `db` cut
/// off after `max_rounds` rounds; 0 leaves the baseline replay alone.
fn validated(
    db: &Database,
    workload: &[WorkloadQuery],
    picked: &[RankedCandidate],
    max_rounds: usize,
) -> (u64, u64, u64) {
    tel::enable();
    tel::reset();
    let cfg = ValidationConfig {
        max_rounds,
        ..Default::default()
    };
    validate_on_clone(db, workload, picked, &Engine::new(), &cfg).unwrap();
    let counts = validation_counters();
    tel::disable();
    counts
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
    let sites = [
        "storage.clone",
        "storage.create_index",
        "storage.analyze",
        "exec.execute",
    ];
    let observer = sites.iter().fold(FaultPlan::new(1), |plan, site| {
        plan.delay_ms(site, 0, 0, u64::MAX)
    });
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
    // Was 2, until a column's range conjuncts became one interval: round 1
    // rejects `aim_customer_c_custkey_c_acctbal_c_name` for the regression
    // of the query without a range (TPC-H Q13) that both it and
    // `aim_orders_o_custkey_o_orderdate` serve, the least useful of the
    // two; round 2 still sees it regress and rejects the other, whose
    // regression on Q10 had rejected it in round 1 before; round 3
    // confirms the survivors.
    assert_eq!(
        rounds, 3,
        "round 1 rejects, round 2 rejects again, round 3 confirms the survivors"
    );
    assert_eq!(consulted("storage.clone"), 1, "one test bed per validation");
    assert_eq!(
        consulted("storage.create_index"),
        picked.len() + created,
        "each chosen candidate built once on the bed, each accepted one consulted once on \
         production; adopted, not rebuilt"
    );
    assert_eq!(
        consulted("storage.analyze"),
        0,
        "an index build leaves statistics current"
    );
    assert_eq!(
        consulted("exec.execute") as u64,
        exemplars * (1 + rounds),
        "every replay opens every exemplar"
    );
    assert!(!db.stats_dirty());
    assert_eq!(executed + reused, exemplars * (1 + rounds));
    // Was (34, 32): the baseline executed all 22. Then (12, 54), in two
    // rounds.
    assert_eq!(
        (executed, reused),
        (13, 75),
        "the baseline executes nothing; the rounds only the 13 plans they move"
    );

    // The baseline alone reuses every exemplar the monitor measured on
    // these contents (was (22, 0)). A memory clone keeps the version.
    assert_eq!(
        validated(&untuned, &workload, &picked, 0),
        (0, 0, exemplars)
    );
    // Round 1 executes the 12 statements whose plan moved, round 2 the one
    // whose plan without the rejected index no earlier round ran, round 3
    // nothing: its plans are those of the baseline or of an earlier round.
    // (Was: round 1 the 12, round 2 nothing, in two rounds.)
    let (one_round, executed_in_one, _) = validated(&untuned, &workload, &picked, 1);
    let (two_rounds, executed_in_two, _) = validated(&untuned, &workload, &picked, 2);
    let (all_rounds, executed_in_all, reused_in_all) = validated(&untuned, &workload, &picked, 3);
    assert_eq!((one_round, two_rounds, all_rounds), (1, 2, 3));
    assert_eq!(
        (executed_in_one, executed_in_two, executed_in_all),
        (12, 13, 13)
    );
    assert_eq!((executed_in_all, reused_in_all), (executed, reused));
}

/// A write after the monitor observed the source moves only the written
/// table's version, so the baseline executes exactly the exemplars that
/// bind that table: none for a table no exemplar reads, and for `nation`
/// the nine of Q2, Q5, Q7, Q8, Q9, Q10, Q11, Q20 and Q21.
#[test]
fn a_write_after_observing_executes_the_exemplars_that_bind_the_table() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let mut db = tpch::build_database(&tpch::TpchConfig::default());
    let audit = TableSchema::new(
        "audit",
        vec![ColumnDef::new("id", ColumnType::Int)],
        &["id"],
    );
    db.create_table(audit.unwrap()).unwrap();
    let (mut db, monitor) = observed(db);
    let (workload, picked) = chosen(&db, &monitor);
    let write = |db: &mut Database, sql: &str| {
        Engine::new()
            .execute(db, &parse_statement(sql).unwrap())
            .unwrap();
    };
    write(&mut db, "INSERT INTO audit (id) VALUES (1)");
    // Both were (0, 22, 0) while the version covered the whole database.
    assert_eq!(validated(&db, &workload, &picked, 0), (0, 0, 22));

    let binds_nation = |wq: &&WorkloadQuery| match &wq.stats.exemplar {
        Statement::Select(sel) => sel.from.iter().any(|t| t.name == "nation"),
        _ => false,
    };
    assert_eq!(workload.iter().filter(binds_nation).count(), 9);
    let nation = "INSERT INTO nation (n_nationkey, n_name, n_regionkey) VALUES (99, 'NATION99', 0)";
    write(&mut db, nation);
    assert_eq!(validated(&db, &workload, &picked, 0), (0, 9, 13));
}

/// The TPC-H fixture with one UPDATE of `orders` observed after its 44
/// SELECTs.
fn tpch_with_an_update() -> (Database, WorkloadMonitor) {
    let mut db = tpch::build_database(&tpch::TpchConfig::default());
    let update = "UPDATE orders SET o_totalprice = 1.0 WHERE o_orderkey = 7".to_string();
    let texts = [0xA1, 0xA2]
        .into_iter()
        .flat_map(tpch::query_texts)
        .map(|(_, sql)| sql);
    let monitor = common::observe(&mut db, texts.chain([update]));
    (db, monitor)
}

/// A workload with writes replays on copies of the test bed, each copying
/// only the table the UPDATE writes: the bed builds each candidate once,
/// a SELECT runs only under a plan its position has not measured yet, and
/// the bed hands back every accepted index over the rows it still shares
/// with production, which adopts it.
#[test]
fn a_workload_with_writes_builds_on_the_bed_and_production_adopts() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (mut db, monitor) = tpch_with_an_update();
    let (workload, picked) = chosen(&db, &monitor);
    let writes = workload
        .iter()
        .filter(|wq| wq.stats.exemplar.written_table().is_some())
        .count();
    assert_eq!((workload.len(), writes, picked.len()), (23, 1, 9));
    let exemplars = workload.len() as u64;

    let sites = ["storage.clone", "storage.create_index", "exec.execute"];
    let observer = sites.iter().fold(FaultPlan::new(1), |plan, site| {
        plan.delay_ms(site, 0, 0, u64::MAX)
    });
    tel::enable();
    tel::reset();
    fault::arm(observer);
    let cfg = ValidationConfig::default();
    let outcome = validate_on_clone(&db, &workload, &picked, &Engine::new(), &cfg).unwrap();
    let mut io = IoStats::new();
    for r in &outcome.accepted {
        let def = r.candidate.def();
        let bed = outcome.bed.table(&def.table).unwrap();
        assert!(bed.shares_rows_with(db.table(&def.table).unwrap()));
        db.create_index_from(&outcome.bed, def.clone(), &mut io)
            .unwrap();
        let adopted = db.table(&def.table).unwrap().index(&def.name).unwrap();
        assert!(
            std::ptr::eq(adopted, bed.index(&def.name).unwrap()),
            "{} is built again on production",
            def.name
        );
    }
    let log = fault::disarm();
    let (rounds, executed, reused) = validation_counters();
    tel::disable();

    let consulted = |site: &str| log.iter().filter(|i| i.site == site).count() as u64;
    let accepted = outcome.accepted.len() as u64;
    assert_eq!((accepted, outcome.rejected.len()), (7, 2));
    // 5, as before, when each round's copy was fresh.
    assert_eq!(
        consulted("storage.clone"),
        2 + rounds,
        "the bed, and a copy of it for the baseline and for each round"
    );
    // Was 31: 9 + 8 + 7 survivors built on the round copies, then 7 built
    // again on production.
    assert_eq!(
        consulted("storage.create_index"),
        picked.len() as u64 + accepted,
        "each chosen candidate built once on the bed, each accepted one adopted"
    );
    // Was 96: the UPDATE consulted the gate twice, in `Engine::execute` and
    // in the SELECT that locates its rows.
    assert_eq!(
        consulted("exec.execute"),
        exemplars * (1 + rounds),
        "every replay opens every exemplar once"
    );
    // Was (3, 92, 0): every round copied the bed, built the survivors on
    // the copy and executed all 23 exemplars. Now the UPDATE runs in each
    // of the four replays and 23 SELECTs run once: the 10 binding `orders`,
    // whose monitor stamps the observed UPDATE made stale, in the baseline
    // and the 13 whose plan moved in a round.
    assert_eq!((rounds, executed, reused), (3, 27, 65));
    assert_eq!(db.all_indexes().len(), outcome.accepted.len());
    db.check_consistency().unwrap();
}

/// Every exemplar of the baseline runs when the source is disk-backed: the
/// monitor's costs come from page walks, the test bed's from the model.
#[test]
fn a_disk_backed_source_runs_the_whole_baseline() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let dir = std::env::temp_dir().join(format!("aim-validation-counts-{}", std::process::id()));
    // The fixture's schema at the smallest scale: a few thousand rows, each
    // its own transaction.
    let source = tpch::build_database(&tpch::TpchConfig {
        scale: 0.0,
        ..Default::default()
    });
    let disk = common::on_disk(&source, &dir);
    let (disk, monitor) = observed(disk);
    let (workload, picked) = chosen(&disk, &monitor);
    assert_eq!(workload.len(), 22);
    assert_eq!(validated(&disk, &workload, &picked, 0), (0, 22, 0));
    drop(disk);
    let _ = std::fs::remove_dir_all(&dir);
}

/// What a second pass decides on the database the first pass tuned, as
/// counts.
#[derive(Debug, PartialEq)]
struct SecondPass {
    /// Candidates ranked with a benefit above zero.
    benefiting: usize,
    /// Candidates the knapsack handed to validation.
    chosen: usize,
    /// Consultations of `storage.create_index`: bed builds and production
    /// builds together.
    create_index: usize,
    /// Validation refutations by reason.
    refuted: Vec<(&'static str, usize)>,
    created: usize,
    /// The smallest ranked benefit among the created indexes, in cost units
    /// to one decimal: how little an index may be worth and still be added.
    least_created_benefit: Option<f64>,
}

/// The short name of a reject reason's text (`session::reject_text`).
fn refutation(text: &str) -> &'static str {
    [
        ("total workload cost regressed", "total regressed"),
        ("regressed", "regressed"),
        ("never used", "never used"),
        ("no query improved", "no improvement"),
        ("not materializable", "unbuildable"),
        ("rounds exhausted", "rounds exhausted"),
    ]
    .into_iter()
    .find(|(needle, _)| text.contains(needle))
    .map_or_else(
        || panic!("unknown reject reason: {text}"),
        |(_, short)| short,
    )
}

/// Runs the same window twice on `db` and counts what the second pass does.
fn second_pass(mut db: Database, monitor: &WorkloadMonitor) -> SecondPass {
    let session = AimConfig::builder()
        .selection(selection())
        .ledger(true)
        .session();
    session.run(&mut db, monitor).unwrap();
    fault::arm(FaultPlan::new(1).delay_ms("storage.create_index", 0, 0, u64::MAX));
    let outcome = session.run(&mut db, monitor);
    let log = fault::disarm();
    let outcome = outcome.unwrap();
    let ledger = session.ledger();
    let pass2 = || ledger.records().iter().filter(|r| r.pass == 2);
    let mut refuted = std::collections::BTreeMap::new();
    for (_, why) in &outcome.rejected {
        *refuted.entry(refutation(why)).or_default() += 1;
    }
    SecondPass {
        benefiting: pass2()
            .filter(|r| r.benefit.is_some_and(|b| b > 0.0))
            .count(),
        chosen: pass2()
            .filter(|r| r.stages().iter().any(|s| s.starts_with("validation_")))
            .count(),
        create_index: log
            .iter()
            .filter(|i| i.site == "storage.create_index")
            .count(),
        refuted: refuted.into_iter().collect(),
        created: outcome.created.len(),
        least_created_benefit: outcome
            .created
            .iter()
            .map(|c| (c.benefit * 10.0).round() / 10.0)
            .reduce(f64::min),
    }
}

/// Pass 2 over the TPC-H fixture and `pass_golden.rs`'s JOB fixture, each on
/// the database its pass 1 tuned.
#[test]
fn a_second_pass_on_the_tuned_database() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (db, monitor) = tpch_case();
    // Was 7, 5, 7, [never used 1, regressed 2], 2, 6.8 while ranking priced
    // against no index: `aim_partsupp_ps_availqty` is no longer chosen. The
    // least created is `aim_part_p_size_p_type` (0.9) beside pass 1's
    // `aim_part_p_size_p_brand_p_type`; it was the permutation
    // `aim_part_p_size_p_type_p_brand` (6.8). Only a keep/drop selection
    // (ROADMAP item 12) stops such an accretion.
    assert_eq!(
        second_pass(db, &monitor),
        SecondPass {
            benefiting: 5,
            chosen: 4,
            create_index: 6,
            refuted: vec![("regressed", 2)],
            created: 2,
            least_created_benefit: Some(0.9),
        },
        "tpch"
    );

    let mut db = job::build_database(&job::JobConfig {
        titles: 1500,
        ..Default::default()
    });
    let texts = job::query_texts(0x10B).into_iter().map(|(_, sql)| sql);
    let monitor = common::observe(&mut db, texts);
    // Was 4, 4, 4, [no improvement 4], 0, none: four column permutations of
    // pass 1's indexes, each refuted.
    assert_eq!(
        second_pass(db, &monitor),
        SecondPass {
            benefiting: 1,
            chosen: 1,
            create_index: 2,
            refuted: vec![],
            created: 1,
            least_created_benefit: Some(15150.4),
        },
        "job"
    );
}

/// `executor.rs`: only `Engine::execute` feeds the live-traffic signal;
/// validation replays its SELECTs through `open_select` and its writes
/// through `execute_direct`. (With one worker the SELECTs used to go
/// through `Engine::execute`, and until writes took `execute_direct` one
/// validation of the workload with an UPDATE moved `exec.statements` 1 → 5
/// and `exec.rows_read` 5 → 13.)
#[test]
fn validation_replays_do_not_feed_the_live_traffic_signal() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (mut db, monitor) = tpch_case();
    let (with_writes, writes_monitor) = tpch_with_an_update();
    let cases = [chosen(&db, &monitor), chosen(&with_writes, &writes_monitor)];

    tel::enable();
    tel::reset();
    // One production SELECT, so that every series exists.
    let stmt = parse_statement("SELECT r_name FROM region WHERE r_regionkey = 1").unwrap();
    Engine::new().execute(&mut db, &stmt).unwrap();
    let live = || {
        let snap = tel::snapshot();
        let select_cost = snap
            .histograms
            .iter()
            .find(|(series, _)| series.is_bare("exec.select_cost"))
            .map(|(_, h)| h.count);
        let counters = [
            "exec.statements",
            "exec.rows_read",
            "exec.pages_read",
            "exec.seeks",
        ];
        (select_cost, counters.map(|name| snap.counter(name)))
    };
    let before = live();
    assert_eq!((before.0, before.1[0]), (Some(1), Some(1)));
    let cfg = ValidationConfig::default();
    for ((workload, picked), source) in cases.iter().zip([&db, &with_writes]) {
        assert!(!picked.is_empty());
        let outcome = validate_on_clone(source, workload, picked, &Engine::new(), &cfg).unwrap();
        assert!(!outcome.accepted.is_empty());
        assert_eq!(live(), before);
    }
    tel::disable();
}
