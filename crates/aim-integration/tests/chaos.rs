//! Chaos suite: seeded fault schedules driven through the continuous
//! tuning loop.
//!
//! Every test asserts some combination of the resilience contract:
//!
//! * the database passes `check_consistency` after every step, whether the
//!   pass succeeded or aborted;
//! * an injected fault aborts the pass, which rolls back everything it
//!   materialized, and the next pass (the next window) is the retry;
//! * deadlines and cancellation are respected mid-pass;
//! * with faults disarmed (or never matching), outcomes are bit-identical
//!   to a fault-free run — the injection layer is zero-cost when quiet.
//!
//! Fault state is process-global, so tests in this binary take turns.

mod common;

use aim_core::continuous::ContinuousTuner;
use aim_core::{
    generate_candidates, try_generate_candidates, AimConfig, AimError, CandidateGenConfig, RunCtl,
    SelectionStrategy, TuningSession,
};
use aim_exec::Engine;
use aim_monitor::{select_workload, SelectionConfig, WorkloadMonitor};
use aim_sql::parse_statement;
use aim_storage::fault::{self, FaultGuard, FaultPlan};
use aim_storage::{ColumnDef, ColumnType, Database, IoStats, TableSchema, Value};
use aim_workloads::tpch;
use std::time::{Duration, Instant};

fn db() -> Database {
    let mut db = Database::new();
    db.create_table(
        TableSchema::new(
            "orders",
            vec![
                ColumnDef::new("id", ColumnType::Int),
                ColumnDef::new("customer", ColumnType::Int),
                ColumnDef::new("region", ColumnType::Int),
            ],
            &["id"],
        )
        .unwrap(),
    )
    .unwrap();
    let mut io = IoStats::new();
    for i in 0..6000i64 {
        db.table_mut("orders")
            .unwrap()
            .insert(
                vec![Value::Int(i), Value::Int(i % 300), Value::Int(i % 12)],
                &mut io,
            )
            .unwrap();
    }
    db.analyze_all();
    db
}

fn observe(db: &mut Database, monitor: &mut WorkloadMonitor, sql: &str, n: usize) {
    let engine = Engine::new();
    let stmt = parse_statement(sql).unwrap();
    for _ in 0..n {
        // Under an exec.execute fault schedule some statements fail, just
        // as they would against flaky infrastructure; only successful
        // executions reach the monitor.
        if let Ok(out) = engine.execute(db, &stmt) {
            monitor.record(&stmt, &out);
        }
    }
}

fn selection() -> SelectionConfig {
    SelectionConfig {
        min_executions: 1,
        min_benefit: 0.0,
        max_queries: 50,
        include_dml: true,
    }
}

fn session() -> TuningSession {
    AimConfig::builder().selection(selection()).session()
}

/// The observable shape of an outcome, for bit-identity comparisons:
/// exact f64 bits, not approximate equality.
fn shape(outcome: &aim_core::AimOutcome) -> Vec<(String, u64, u64, u64)> {
    outcome
        .created
        .iter()
        .map(|c| {
            (
                c.def.name.clone(),
                c.benefit.to_bits(),
                c.maintenance.to_bits(),
                c.size_bytes,
            )
        })
        .collect()
}

/// (a) of the chaos contract: five seeded fault schedules, each pushed
/// through three continuous-tuning windows. Whatever the schedule does —
/// a window whose faults miss the pass, or a pass aborted by one — the
/// database must pass its consistency check after every step.
#[test]
fn seeded_fault_schedules_leave_database_consistent() {
    let _g = FaultGuard::acquire();
    let schedules: Vec<(&str, FaultPlan)> = vec![
        (
            "create-index flaky",
            FaultPlan::new(101).fail("storage.create_index", 0, 2),
        ),
        (
            "clone flaky",
            FaultPlan::new(202).fail("storage.clone", 1, 3),
        ),
        (
            "whatif 20% failure",
            FaultPlan::new(303).fail_with_probability("exec.whatif", 0.2, 25),
        ),
        (
            "stats corruption then exec faults",
            FaultPlan::new(404)
                .corrupt_stats("storage.analyze", 0, 1)
                .fail("exec.execute", 5, 3),
        ),
        (
            "mixed latency + failures",
            FaultPlan::new(505)
                .delay_ms("exec.whatif", 1, 0, 5)
                .fail("storage.clone", 0, 1)
                .fail("storage.create_index", 1, 1),
        ),
    ];
    for (label, plan) in schedules {
        let mut db = db();
        let baseline_indexes = db.all_indexes().len();
        let mut tuner = ContinuousTuner::with_session(session(), 0.5);
        fault::arm(plan);
        let mut aborted = 0;
        for window in 0..3 {
            let mut monitor = WorkloadMonitor::new();
            let sql = if window % 2 == 0 {
                "SELECT id FROM orders WHERE customer = 42"
            } else {
                "SELECT id FROM orders WHERE region = 3"
            };
            observe(&mut db, &mut monitor, sql, 10);
            if tuner.step(&mut db, &monitor).is_err() {
                aborted += 1;
            }
            assert!(
                db.check_consistency().is_ok(),
                "[{label}] window {window}: consistency violated: {:?}",
                db.check_consistency().unwrap_err()
            );
        }
        let log = fault::disarm();
        assert!(
            !log.is_empty(),
            "[{label}] schedule never fired — not exercising anything"
        );
        // An aborted step must not have leaked partial state either.
        if aborted == 3 {
            assert_eq!(
                db.all_indexes().len(),
                baseline_indexes,
                "[{label}] every step aborted, yet indexes appeared"
            );
        }
    }
}

/// (b) of the chaos contract, half one: the same seeded schedule replayed
/// against the same database fires at the same call sites in the same
/// order and produces the same outcome — faults are deterministic.
#[test]
fn identical_schedules_replay_identically() {
    let _g = FaultGuard::acquire();
    let run = || {
        let mut db = db();
        let mut monitor = WorkloadMonitor::new();
        observe(
            &mut db,
            &mut monitor,
            "SELECT id FROM orders WHERE customer = 42",
            10,
        );
        fault::arm(
            FaultPlan::new(777)
                .fail_with_probability("exec.whatif", 0.3, 10)
                .fail("storage.clone", 0, 1),
        );
        let result = session().run(&mut db, &monitor);
        let log: Vec<(String, u64)> = fault::disarm()
            .into_iter()
            .map(|i| (i.site, i.call))
            .collect();
        (result.map(|o| shape(&o)).map_err(|e| e.to_string()), log)
    };
    let (first_outcome, first_log) = run();
    let (second_outcome, second_log) = run();
    assert!(!first_log.is_empty(), "schedule never fired");
    assert_eq!(
        first_log, second_log,
        "injection sequence must be deterministic"
    );
    assert_eq!(
        first_outcome, second_outcome,
        "outcome must be deterministic"
    );
}

/// (b) of the chaos contract, half two: an armed-but-never-matching plan
/// is observationally identical to no plan at all — the disarmed (and
/// quiet-armed) fast path costs nothing and changes nothing.
#[test]
fn disarmed_and_nonmatching_runs_are_bit_identical_to_baseline() {
    let _g = FaultGuard::acquire();
    let run = |plan: Option<FaultPlan>| {
        let mut db = db();
        let mut monitor = WorkloadMonitor::new();
        observe(
            &mut db,
            &mut monitor,
            "SELECT id FROM orders WHERE customer = 42",
            10,
        );
        if let Some(p) = plan {
            fault::arm(p);
        }
        let outcome = session().run(&mut db, &monitor).expect("no faults fire");
        let log = fault::disarm();
        assert!(log.is_empty(), "nothing may fire: {log:?}");
        shape(&outcome)
    };
    let baseline = run(None);
    assert!(!baseline.is_empty(), "fixture must create an index");
    let armed_nonmatching = run(Some(FaultPlan::new(1).fail("no.such.site", 0, 99)));
    assert_eq!(baseline, armed_nonmatching);
}

/// (c) of the chaos contract: a pass under a deadline it cannot meet (every
/// what-if call sleeps) aborts with `DeadlineExceeded`, within a bounded
/// overshoot, and rolls back anything it created.
#[test]
fn deadline_is_respected_and_aborted_pass_rolls_back() {
    let _g = FaultGuard::acquire();
    let mut db = db();
    let mut monitor = WorkloadMonitor::new();
    observe(
        &mut db,
        &mut monitor,
        "SELECT id FROM orders WHERE customer = 42",
        10,
    );
    observe(
        &mut db,
        &mut monitor,
        "SELECT id FROM orders WHERE region = 3",
        10,
    );
    let before = db.all_indexes().len();

    fault::arm(FaultPlan::new(9).delay_ms("exec.whatif", 20, 0, u64::MAX));
    let deadline = Duration::from_millis(40);
    let started = std::time::Instant::now();
    let err = AimConfig::builder()
        .selection(selection())
        .deadline(deadline)
        .session()
        .run(&mut db, &monitor)
        .expect_err("a 40ms budget cannot survive 20ms per what-if call");
    let elapsed = started.elapsed();
    fault::disarm();

    assert!(
        matches!(err, AimError::DeadlineExceeded { .. }),
        "expected DeadlineExceeded, got {err}"
    );
    // Checks run between queries, so the overshoot is bounded by one
    // query's work — generous margin for CI jitter.
    assert!(
        elapsed < deadline + Duration::from_secs(2),
        "deadline overshot unreasonably: {elapsed:?}"
    );
    assert_eq!(
        db.all_indexes().len(),
        before,
        "aborted pass must roll back"
    );
    assert!(db.check_consistency().is_ok());
}

/// Satellite: cancellation from another thread lands mid-ranking, aborts
/// the pass, and leaves no trace behind. The cancel is raised once the
/// first what-if call began — ranking's first — and that call's latency
/// fault keeps the phase busy until the cancel lands.
#[test]
fn cancellation_mid_ranking_aborts_and_rolls_back() {
    let _g = FaultGuard::acquire();
    let mut db = db();
    let mut monitor = WorkloadMonitor::new();
    observe(
        &mut db,
        &mut monitor,
        "SELECT id FROM orders WHERE customer = 42",
        10,
    );
    observe(
        &mut db,
        &mut monitor,
        "SELECT id FROM orders WHERE region = 3",
        10,
    );
    let before = db.all_indexes().len();

    fault::arm(FaultPlan::new(11).delay_ms("exec.whatif", 10, 0, u64::MAX));
    let (result, _) = run_cancelling_at(&session(), &mut db, &monitor, 1);
    fault::disarm();
    let err = result.expect_err("cancelled pass must not complete");

    assert!(matches!(err, AimError::Cancelled { .. }), "got {err}");
    // The slow phase the cancel landed in is ranking (every what-if call
    // sleeps 10ms; selection and candidate generation do none).
    assert_eq!(err.phase(), "ranking");
    assert_eq!(
        db.all_indexes().len(),
        before,
        "cancelled pass must roll back"
    );
    assert!(db.check_consistency().is_ok());
}

/// Runs a pass of `session` while another thread cancels it right after
/// the armed plan's `k`-th injection. Returns the pass's result and the
/// injection count read after the cancel (a call that slipped in before
/// that read is not held against the bound) — `None` when the pass
/// finished with fewer than `k` injections.
fn run_cancelling_at(
    session: &TuningSession,
    db: &mut Database,
    monitor: &WorkloadMonitor,
    k: usize,
) -> (Result<aim_core::AimOutcome, AimError>, Option<usize>) {
    use std::sync::atomic::{AtomicBool, Ordering};

    let token = session.cancel_token();
    let finished = AtomicBool::new(false);
    std::thread::scope(|s| {
        let canceller = s.spawn(|| {
            while fault::injection_count() < k {
                if finished.load(Ordering::SeqCst) {
                    return None;
                }
                std::thread::yield_now();
            }
            token.cancel();
            Some(fault::injection_count())
        });
        let result = session.run(db, monitor);
        finished.store(true, Ordering::SeqCst);
        (result, canceller.join().unwrap())
    })
}

/// The stated cancellation bound: once the token is cancelled, a ranking
/// worker starts at most one more what-if call — inside a batch of slots
/// (the SELECT workload's pair and marginal probes) as well as around the
/// per-config calls and the singleton batch of DML maintenance costing (the
/// UPDATE workload). Counted from the fault log rather than timed: every
/// what-if call passes the `exec.whatif` site, and the canceller cancels
/// right after the `k`-th call began, for every `k` the pass reaches.
#[test]
fn cancel_to_abort_is_at_most_one_whatif_call() {
    let _g = FaultGuard::acquire();
    let workloads: [&[&str]; 2] = [
        &[
            "SELECT id FROM orders WHERE customer = 42 AND region = 3",
            "SELECT id FROM orders WHERE region = 3",
        ],
        &[
            "UPDATE orders SET region = 1 WHERE customer = 42",
            "UPDATE orders SET customer = 7 WHERE region = 3 AND customer = 9",
        ],
    ];
    for statements in workloads {
        let mut db = db();
        let mut monitor = WorkloadMonitor::new();
        for sql in statements {
            observe(&mut db, &mut monitor, sql, 10);
        }
        let before = db.all_indexes().len();
        let mut cancelled_runs = 0;
        for k in 1.. {
            // Each run asks a fresh cache of its own: every call goes
            // through its slot's gate either way, and the plans behind it
            // are real.
            fault::arm(FaultPlan::new(11).delay_ms("exec.whatif", 2, 0, u64::MAX));
            let session = AimConfig::builder().selection(selection()).session();
            let (result, calls_at_cancel) = run_cancelling_at(&session, &mut db, &monitor, k);
            let calls_at_end = fault::disarm().len();
            let Some(calls_at_cancel) = calls_at_cancel else {
                // The pass needs fewer than k calls: every cut is covered.
                assert!(result.is_ok(), "uncancelled pass failed: {result:?}");
                break;
            };
            if let Err(err) = result {
                assert!(matches!(err, AimError::Cancelled { .. }), "got {err}");
                if err.phase() == "ranking" {
                    cancelled_runs += 1;
                    assert!(
                        calls_at_end - calls_at_cancel <= 1,
                        "{statements:?}, cancel after call {k}: {} more what-if calls began",
                        calls_at_end - calls_at_cancel
                    );
                }
                assert_eq!(
                    db.all_indexes().len(),
                    before,
                    "cancelled pass must roll back"
                );
            } else {
                // The cancel landed after the last check of the pass;
                // undo what it built so the next cut starts equal.
                for ix in db.all_indexes() {
                    if ix.name.starts_with("aim_") {
                        db.drop_index(&ix.table, &ix.name).unwrap();
                    }
                }
            }
        }
        assert!(
            cancelled_runs >= 4,
            "{statements:?}: only {cancelled_runs} cuts landed in ranking"
        );
    }
}

/// The merge phase's abort bound: candidate generation consults its control
/// between tables as well as between queries, so a deadline that expires
/// once the partial orders are derived aborts the phase instead of letting
/// it merge every table. Counted, not timed: with telemetry on,
/// `aim.partial_order_merges` says how far the merge phase got, and a run
/// that aborts holding some but not all of the merges stopped between two
/// tables. Deadlines sweep the phase's own undisturbed duration until one
/// lands there; wherever a deadline falls, the run either aborts
/// attributed to the phase or returns the full list.
#[test]
fn deadline_after_derivation_aborts_candidate_generation_between_tables() {
    let _g = FaultGuard::acquire();
    // 32 empty tables, and on each a family of predicates whose partial
    // orders merge into one another.
    const COLUMNS: [&str; 4] = ["a", "b", "c", "d"];
    let mut db = Database::new();
    let mut monitor = WorkloadMonitor::new();
    for t in 0..32 {
        let columns = ["id"]
            .iter()
            .chain(&COLUMNS)
            .map(|c| ColumnDef::new(*c, ColumnType::Int));
        db.create_table(TableSchema::new(format!("t{t}"), columns.collect(), &["id"]).unwrap())
            .unwrap();
        for from in 0..COLUMNS.len() {
            for to in from + 1..=COLUMNS.len() {
                let filter: Vec<String> = COLUMNS[from..to]
                    .iter()
                    .map(|c| format!("{c} = {t}"))
                    .collect();
                let sql = format!("SELECT id FROM t{t} WHERE {}", filter.join(" AND "));
                observe(&mut db, &mut monitor, &sql, 1);
            }
        }
    }
    db.analyze_all();
    let workload = select_workload(
        &monitor,
        &SelectionConfig {
            max_queries: usize::MAX,
            ..selection()
        },
    );
    let cfg = CandidateGenConfig::default();

    aim_telemetry::enable();
    aim_telemetry::reset();
    let started = Instant::now();
    let full = generate_candidates(&db, &workload, &cfg);
    let undisturbed = started.elapsed();
    let all_merges = aim_telemetry::metrics::PO_MERGES.get();
    assert!(
        all_merges >= 32,
        "every table should merge something: {all_merges}"
    );

    const CUTS: u32 = 200;
    let mut stopped_between_tables = None;
    for cut in 0..CUTS {
        aim_telemetry::reset();
        let deadline = Instant::now() + undisturbed * 3 / 2 * cut / CUTS;
        let result =
            try_generate_candidates(&db, &workload, &cfg, &RunCtl::new(None, Some(deadline)));
        let merges = aim_telemetry::metrics::PO_MERGES.get();
        match result {
            Ok(candidates) => assert_eq!(candidates, full, "cut {cut}: a partial list escaped"),
            Err(err) => {
                assert!(
                    matches!(err, AimError::DeadlineExceeded { .. }),
                    "cut {cut}: {err}"
                );
                assert_eq!(err.phase(), "candidate_generation");
                assert!(
                    merges < all_merges,
                    "cut {cut}: aborted after the last table"
                );
                if merges > 0 {
                    stopped_between_tables = Some((cut, merges));
                    break;
                }
            }
        }
    }
    aim_telemetry::disable();
    aim_telemetry::reset();
    eprintln!(
        "undisturbed {undisturbed:?}, {all_merges} merges; stopped at {stopped_between_tables:?}"
    );
    assert!(
        stopped_between_tables.is_some(),
        "no deadline of {CUTS} across {undisturbed:?} stopped the merge phase between tables"
    );
}

/// The instance of `pass_golden.rs::lp_selection_replaces_greedy_where_
/// greedy_strands_the_budget`: TPC-H, `j = 3`, 40 % of the full
/// configuration, estimate-only. Built once; a pass gets its own clone.
struct LpInstance {
    db: Database,
    monitor: WorkloadMonitor,
    budget: u64,
    /// `exec.whatif` hits of a pass before the LP selector starts.
    hits_before_lp: u64,
    /// Hits of the undisturbed LP pass, and what it created.
    hits: u64,
    created: Vec<(String, u64, u64, u64)>,
}

impl LpInstance {
    fn session(&self, strategy: SelectionStrategy) -> TuningSession {
        AimConfig::builder()
            .selection(SelectionConfig {
                max_queries: usize::MAX,
                ..selection()
            })
            .candidate_gen(CandidateGenConfig {
                join_parameter: 3,
                ..Default::default()
            })
            .storage_budget(self.budget)
            .skip_validation(true)
            .selection_strategy(strategy)
            .session()
    }

    /// One undisturbed pass on a clone, every what-if hit logged.
    fn pass(&self, strategy: SelectionStrategy) -> (u64, Vec<(String, u64, u64, u64)>) {
        fault::arm(FaultPlan::new(1).delay_ms("exec.whatif", 0, 0, u64::MAX));
        let outcome = self
            .session(strategy)
            .run(&mut self.db.clone(), &self.monitor);
        let hits = fault::disarm().len() as u64;
        (hits, shape(&outcome.expect("undisturbed pass")))
    }

    /// Call under the [`FaultGuard`].
    fn get() -> &'static LpInstance {
        static INSTANCE: std::sync::OnceLock<LpInstance> = std::sync::OnceLock::new();
        INSTANCE.get_or_init(|| {
            let mut db = tpch::build_database(&tpch::TpchConfig::default());
            let texts = [0xA1, 0xA2]
                .into_iter()
                .flat_map(tpch::query_texts)
                .map(|(_, sql)| sql);
            let monitor = common::observe(&mut db, texts);
            let mut instance = LpInstance {
                db,
                monitor,
                budget: u64::MAX,
                hits_before_lp: 0,
                hits: 0,
                created: Vec::new(),
            };
            // Greedy under an unbounded budget builds the full configuration;
            // under the real one it makes every what-if call of the LP pass
            // up to the selector.
            let full: u64 = instance
                .pass(SelectionStrategy::Greedy)
                .1
                .iter()
                .map(|c| c.3)
                .sum();
            instance.budget = full * 2 / 5;
            instance.hits_before_lp = instance.pass(SelectionStrategy::Greedy).0;
            (instance.hits, instance.created) = instance.pass(SelectionStrategy::Lp);
            assert!(
                instance.hits > instance.hits_before_lp + 100,
                "the LP prices nothing"
            );
            instance
        })
    }
}

/// The LP selector observes the pass's cancel token: raised from the k-th
/// what-if call *inside* `selection_lp` — first, early, middle, last — the
/// pass aborts in that phase after at most one further call, and nothing
/// was built.
#[test]
fn cancel_inside_lp_selection_aborts_within_one_whatif_call() {
    let _g = FaultGuard::acquire();
    let lp = LpInstance::get();
    let lp_hits = (lp.hits - lp.hits_before_lp) as usize;
    let mut db = lp.db.clone();
    for k in [1, 2, lp_hits / 2, lp_hits] {
        // Only the selector's calls stall and are logged, so the log's
        // k-th entry is its k-th call.
        fault::arm(FaultPlan::new(11).delay_ms("exec.whatif", 1, lp.hits_before_lp, u64::MAX));
        let session = lp.session(SelectionStrategy::Lp);
        let (result, calls_at_cancel) = run_cancelling_at(&session, &mut db, &lp.monitor, k);
        let calls_at_end = fault::disarm().len();
        let calls_at_cancel = calls_at_cancel.expect("the selector makes k calls");
        let err = result.expect_err("cancelled pass must not complete");
        assert!(
            matches!(
                err,
                AimError::Cancelled {
                    phase: "selection_lp"
                }
            ),
            "cancel after call {k} of {lp_hits}: {err}"
        );
        assert!(
            calls_at_end - calls_at_cancel <= 1,
            "cancel after call {k}: {} more what-if calls began",
            calls_at_end - calls_at_cancel
        );
        assert!(
            db.all_indexes().is_empty(),
            "cancelled pass must leave the database untouched"
        );
    }
}

/// One injected what-if failure inside the LP selector aborts the pass
/// with a fault in `selection_lp` instead of silently dropping the
/// statement from the LP: nothing is built, the abort is counted, and the
/// next pass — the retry — builds what the undisturbed pass builds.
#[test]
fn transient_fault_inside_lp_selection_is_retried() {
    let _g = FaultGuard::acquire();
    let lp = LpInstance::get();
    let mut db = lp.db.clone();
    aim_telemetry::enable();
    aim_telemetry::reset();
    fault::arm(FaultPlan::new(7).fail("exec.whatif", lp.hits_before_lp + 40, 1));
    let faulted = lp.session(SelectionStrategy::Lp).run(&mut db, &lp.monitor);
    let log = fault::disarm();
    let aborted = aim_telemetry::metrics::PASSES_ABORTED.get();
    aim_telemetry::disable();
    aim_telemetry::reset();

    let err = faulted.expect_err("an injected fault aborts the pass");
    assert_eq!(log.len(), 1, "exactly the planned fault fires: {log:?}");
    assert!(
        matches!(
            err,
            AimError::Fault {
                phase: "selection_lp",
                ..
            }
        ),
        "{err}"
    );
    assert_eq!(aborted, 1, "the abort is counted");
    assert!(
        db.all_indexes().is_empty(),
        "the aborted pass built nothing"
    );

    let retried = lp.session(SelectionStrategy::Lp).run(&mut db, &lp.monitor);
    let retried = retried.expect("the next pass runs undisturbed");
    assert_eq!(
        shape(&retried),
        lp.created,
        "the next pass builds the undisturbed set"
    );
}

/// Satellite: a fault during validation (the test-bed clone fails once)
/// aborts the pass with a fault attributed to validation and rolls it
/// back; the next pass converges to the exact outcome of a fault-free run —
/// bit-identical.
#[test]
fn fault_during_validation_retries_to_bit_identical_outcome() {
    let _g = FaultGuard::acquire();
    let setup = || {
        let mut db = db();
        let mut monitor = WorkloadMonitor::new();
        observe(
            &mut db,
            &mut monitor,
            "SELECT id FROM orders WHERE customer = 42",
            10,
        );
        (db, monitor)
    };

    let (mut db, monitor) = setup();
    let clean = shape(&session().run(&mut db, &monitor).expect("fault-free pass"));
    assert!(!clean.is_empty(), "fixture must create an index");

    let (mut db, monitor) = setup();
    let before = db.all_indexes().len();
    fault::arm(FaultPlan::new(33).fail("storage.clone", 0, 1));
    let faulted = session().run(&mut db, &monitor);
    let log = fault::disarm();
    assert_eq!(log.len(), 1, "exactly the planned fault fires: {log:?}");
    let err = faulted.expect_err("a clone fault must abort validation");
    assert!(matches!(err, AimError::Fault { .. }), "{err}");
    assert_eq!(err.phase(), "validation");
    assert_eq!(
        db.all_indexes().len(),
        before,
        "aborted pass must roll back"
    );
    assert!(db.check_consistency().is_ok());

    let retried = session()
        .run(&mut db, &monitor)
        .expect("the next pass runs");
    assert_eq!(
        clean,
        shape(&retried),
        "the next pass must be bit-identical to the fault-free run"
    );
}

/// A fault that never clears exhausts every retry: each pass — the first
/// and every next pass that retries it — aborts with the fault classified
/// correctly, attributed to validation, and still rolls back.
#[test]
fn exhausted_retries_abort_with_fault_error() {
    let _g = FaultGuard::acquire();
    let mut db = db();
    let mut monitor = WorkloadMonitor::new();
    observe(
        &mut db,
        &mut monitor,
        "SELECT id FROM orders WHERE customer = 42",
        10,
    );
    let before = db.all_indexes().len();

    fault::arm(FaultPlan::new(55).fail("storage.clone", 0, u64::MAX));
    let errs: Vec<AimError> = (0..3)
        .map(|_| {
            session()
                .run(&mut db, &monitor)
                .expect_err("a permanent clone failure must abort validation")
        })
        .collect();
    fault::disarm();

    for err in &errs {
        assert!(
            matches!(err, AimError::Fault { site, .. } if site == "storage.clone"),
            "exhaustion surfaces the injected fault: {err}"
        );
        assert_eq!(err.phase(), "validation");
    }
    assert_eq!(db.all_indexes().len(), before);
    assert!(db.check_consistency().is_ok());
}

/// The next window is the retry: a one-shot fault at the test-bed clone,
/// at the first index build, or at the first what-if call fails window 1
/// of a continuous tuner in the fault's phase and leaves the database as
/// it was; window 2, over the same statements, creates exactly what a
/// fault-free tuner creates in its window 1.
#[test]
fn next_window_retries_a_faulted_pass() {
    let _g = FaultGuard::acquire();
    let window = |db: &mut Database| {
        let mut monitor = WorkloadMonitor::new();
        observe(
            db,
            &mut monitor,
            "SELECT id FROM orders WHERE customer = 42",
            10,
        );
        observe(
            db,
            &mut monitor,
            "SELECT id FROM orders WHERE region = 3",
            10,
        );
        monitor
    };
    let tuner = || ContinuousTuner::with_session(session(), 0.5);

    let mut clean_db = db();
    let monitor = window(&mut clean_db);
    let clean = tuner()
        .step(&mut clean_db, &monitor)
        .expect("fault-free window");
    let clean = shape(&clean.tuning);
    assert!(!clean.is_empty(), "fixture must create an index");

    for (site, phase) in [
        ("storage.clone", "validation"),
        ("storage.create_index", "validation"),
        ("exec.whatif", "ranking"),
    ] {
        let mut db = db();
        let mut tuner = tuner();
        let before = db.all_indexes();
        let monitor = window(&mut db);
        fault::arm(FaultPlan::new(5).fail(site, 0, 1));
        let result = tuner.step(&mut db, &monitor);
        let log = fault::disarm();
        let err = result.expect_err("window 1 must fail");
        assert_eq!(
            log.len(),
            1,
            "[{site}] exactly the planned fault fires: {log:?}"
        );
        assert!(
            matches!(&err, AimError::Fault { phase: p, site: s } if *p == phase && s == site),
            "[{site}] {err}"
        );
        assert_eq!(
            db.all_indexes(),
            before,
            "[{site}] window 1 must leave the indexes as they were"
        );
        db.check_consistency().unwrap();

        let monitor = window(&mut db);
        let retried = tuner.step(&mut db, &monitor).expect("window 2 tunes");
        assert_eq!(
            shape(&retried.tuning),
            clean,
            "[{site}] window 2 must build what window 1 would have"
        );
    }
}

/// Corrupted statistics must never corrupt *data*: a schedule that poisons
/// ANALYZE output can skew decisions, but consistency and rollback still
/// hold, and the next clean ANALYZE self-heals.
#[test]
fn corrupted_statistics_do_not_break_consistency() {
    let _g = FaultGuard::acquire();
    let mut db = db();
    let mut tuner =
        ContinuousTuner::with_session(AimConfig::builder().selection(selection()).session(), 0.5);
    fault::arm(FaultPlan::new(66).corrupt_stats("storage.analyze", 0, u64::MAX));
    for window in 0..2 {
        let mut monitor = WorkloadMonitor::new();
        observe(
            &mut db,
            &mut monitor,
            "SELECT id FROM orders WHERE customer = 42",
            10,
        );
        let _ = tuner.step(&mut db, &monitor);
        assert!(
            db.check_consistency().is_ok(),
            "window {window}: {:?}",
            db.check_consistency().unwrap_err()
        );
    }
    fault::disarm();
    // Self-heal: a clean re-ANALYZE restores sane statistics.
    db.analyze_all();
    assert!(db.check_consistency().is_ok());
    let rows = db.table("orders").unwrap().row_count();
    assert_eq!(db.stats("orders").unwrap().row_count as usize, rows);
}

// ------------------------------------------------- storage-engine chaos

/// Fresh per-test directory for a disk-backed database.
fn disk_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("aim-chaos-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn disk_db(dir: &std::path::Path, rows: i64) -> Database {
    let mut db = aim_core::BackendSpec::disk(dir).provision().unwrap();
    db.create_table(
        TableSchema::new(
            "orders",
            vec![
                ColumnDef::new("id", ColumnType::Int),
                ColumnDef::new("customer", ColumnType::Int),
                ColumnDef::new("region", ColumnType::Int),
            ],
            &["id"],
        )
        .unwrap(),
    )
    .unwrap();
    let mut io = IoStats::new();
    for i in 0..rows {
        db.table_mut("orders")
            .unwrap()
            .insert(
                vec![Value::Int(i), Value::Int(i % 300), Value::Int(i % 12)],
                &mut io,
            )
            .unwrap();
    }
    db.analyze_all();
    db
}

/// Identical committed histories must converge to bit-identical data
/// files whether or not a crash interrupted them: one instance runs
/// clean, the other is killed mid-stream (buffered pages dropped, WAL
/// intact) and recovers on reopen. After a checkpoint both `aim.db`
/// files must match byte for byte — redo is a pure function of the log.
#[test]
fn crash_recovery_replays_wal_to_bit_identical_data_file() {
    let _g = FaultGuard::acquire();
    let dirs = [disk_dir("replay-clean"), disk_dir("replay-crash")];
    let mutate = |db: &mut Database, lo: i64, hi: i64| {
        let mut io = IoStats::new();
        for i in lo..hi {
            db.table_mut("orders")
                .unwrap()
                .update(
                    &vec![Value::Int(i)],
                    vec![Value::Int(i), Value::Int(i % 7), Value::Int(-1)],
                    &mut io,
                )
                .unwrap();
        }
        db.table_mut("orders")
            .unwrap()
            .delete(&vec![Value::Int(hi)], &mut io)
            .unwrap();
    };
    for (n, dir) in dirs.iter().enumerate() {
        let crash = n == 1;
        let db = {
            let mut db = disk_db(dir, 800);
            mutate(&mut db, 0, 120);
            if crash {
                db.simulate_crash();
                drop(db);
                aim_core::BackendSpec::disk(dir).provision().unwrap()
            } else {
                db
            }
        };
        assert_eq!(db.table("orders").unwrap().row_count(), 799);
        db.checkpoint().unwrap();
        db.simulate_crash(); // prevent Drop-time churn after the checkpoint
    }
    let clean = std::fs::read(dirs[0].join("aim.db")).unwrap();
    let crashed = std::fs::read(dirs[1].join("aim.db")).unwrap();
    assert_eq!(
        clean, crashed,
        "recovered data file diverges from the crash-free run"
    );
    for dir in &dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// An fsync failure in the WAL surfaces through the whole advisor stack
/// as [`AimError::Fault`]: the pass aborts and rolls back, and the next
/// pass — the retry — completes.
#[test]
fn wal_fsync_fault_aborts_the_pass_and_the_next_pass_completes() {
    let _g = FaultGuard::acquire();
    let dir = disk_dir("fsync");
    let mut db = disk_db(&dir, 3_000);
    let mut monitor = WorkloadMonitor::new();
    observe(
        &mut db,
        &mut monitor,
        "SELECT id FROM orders WHERE customer = 42",
        10,
    );
    let before = db.all_indexes().len();

    fault::arm(FaultPlan::new(21).fail("storage.wal.fsync", 0, 1));
    let faulted = session().run(&mut db, &monitor);
    let log = fault::disarm();
    assert_eq!(log.len(), 1, "exactly the planned fault fires: {log:?}");
    let err = faulted.expect_err("an fsync fault must abort the pass");
    assert!(
        matches!(err, AimError::Fault { .. }),
        "fsync fault must classify as a fault: {err}"
    );
    assert_eq!(
        db.all_indexes().len(),
        before,
        "aborted pass must roll back"
    );
    db.check_consistency().unwrap();

    let outcome = session().run(&mut db, &monitor).unwrap();
    assert!(
        !outcome.created.is_empty(),
        "rejected: {:?}",
        outcome.rejected
    );
    db.check_consistency().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A torn page write (power loss mid-write: only half the page reaches
/// the platter) fires on the physical write path — checkpoint — and
/// classifies as the same fault class, which aborts a pass. The
/// half-written page is harmless: the WAL still holds the full image, so a
/// crash-reopen recovers every committed row with checksums intact, and a
/// retried checkpoint succeeds.
#[test]
fn torn_page_write_fault_classifies_as_fault_and_recovers() {
    let _g = FaultGuard::acquire();
    let dir = disk_dir("torn");
    let mut db = disk_db(&dir, 3_000);

    fault::arm(FaultPlan::new(33).fail("storage.pager.write", 0, u64::MAX));
    let err = db
        .checkpoint()
        .expect_err("torn write must fail the checkpoint");
    fault::disarm();
    assert!(err.is_injected(), "{err}");
    let classified = AimError::from_exec("checkpoint", aim_exec::ExecError::Storage(err));
    assert!(
        matches!(classified, AimError::Fault { .. }),
        "torn write must classify as a fault: {classified}"
    );

    // Retry with the fault gone: the redirtied pages flush cleanly.
    db.checkpoint().unwrap();

    // And the crash path: commit fresh changes (WAL-protected), then tear
    // a page while flushing them. On reopen the half-written page is
    // re-imaged from the log — no committed row or checksum may be lost.
    let mut io = IoStats::new();
    for i in 0..50 {
        db.table_mut("orders")
            .unwrap()
            .update(
                &vec![Value::Int(i)],
                vec![Value::Int(i), Value::Int(-5), Value::Int(-5)],
                &mut io,
            )
            .unwrap();
    }
    fault::arm(FaultPlan::new(33).fail("storage.pager.write", 0, 1));
    let _ = db.checkpoint(); // tears one page, redirties, fails
    fault::disarm();
    db.simulate_crash();
    drop(db);
    let db = aim_core::BackendSpec::disk(&dir).provision().unwrap();
    assert_eq!(db.table("orders").unwrap().row_count(), 3_000);
    db.check_consistency().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}
