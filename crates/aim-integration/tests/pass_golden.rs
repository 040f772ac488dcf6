//! Differential oracle for a tuning pass: what Algorithm 1 decides on five
//! corpora, a validated workload with writes, a fleet, the advisor
//! interface and the LP selector, compared against a committed file
//! instead of against a second implementation.
//!
//! Per corpus the file holds the workload size, every ranked candidate with
//! its exact benefit and maintenance bits, the knapsack's verdict and budget
//! arithmetic for each candidate at three budgets, what
//! [`TuningSession::run`] created and rejected (and why) with the decision
//! ledger on, the FNV-1a of that ledger's JSON, and a second pass on the
//! tuned database. The ledger-off session must create the same set. Any
//! change to selection, candidate generation, ranking arithmetic, knapsack
//! order, validation verdicts or a ledger string changes the file.
//!
//! Lists longer than [`FOLD_OVER`] lines fold into one digest line plus
//! their head, to keep the file reviewable. Regenerate intentionally with
//! `BLESS=1 cargo test -p aim-integration --test pass_golden`.

mod common;

use aim_core::fleet::{FleetConfig, FleetOutcome, Tenant};
use aim_core::{
    config_size, generate_candidates, knapsack, knapsack_select, refine_selection,
    try_rank_candidates_with, AimAdvisor, AimConfig, AimConfigBuilder, AimOutcome,
    CandidateGenConfig, IndexAdvisor, RankedCandidate, RunCtl, SelectionStrategy, WeightedQuery,
};
use aim_exec::{Engine, WhatIfCache};
use aim_monitor::{select_workload, SelectionConfig, WorkloadMonitor};
use aim_sql::normalize::fnv1a;
use aim_sql::{parse_statement, Statement};
use aim_storage::Database;
use aim_workloads::fleet::{generate_fleet, FleetSpec};
use aim_workloads::{job, production, tpcds, tpch};
use std::fmt::Write as _;

const FOLD_OVER: usize = 200;
const FOLD_HEAD: usize = 20;

/// Appends `lines` under `title`, folded when there are too many of them.
fn section(out: &mut String, title: &str, lines: Vec<String>) {
    if lines.len() > FOLD_OVER {
        let digest = fnv1a(lines.join("\n").as_bytes());
        writeln!(
            out,
            "{title}: {} lines, fnv {digest:016x}, first {FOLD_HEAD}",
            lines.len()
        )
        .unwrap();
        for line in &lines[..FOLD_HEAD] {
            writeln!(out, "  {line}").unwrap();
        }
    } else {
        writeln!(out, "{title}: {} lines", lines.len()).unwrap();
        for line in &lines {
            writeln!(out, "  {line}").unwrap();
        }
    }
}

fn selection() -> SelectionConfig {
    SelectionConfig {
        min_executions: 1,
        min_benefit: 0.0,
        max_queries: usize::MAX,
        include_dml: true,
    }
}

/// Executes every statement once on `db` and records what succeeded.
fn observe(db: &mut Database, stmts: impl IntoIterator<Item = Statement>) -> WorkloadMonitor {
    let engine = Engine::new();
    let mut monitor = WorkloadMonitor::new();
    for stmt in stmts {
        if let Ok(outcome) = engine.execute(db, &stmt) {
            monitor.record(&stmt, &outcome);
        }
    }
    monitor
}

fn parsed(texts: impl IntoIterator<Item = String>) -> Vec<Statement> {
    texts
        .into_iter()
        .map(|sql| parse_statement(&sql).unwrap_or_else(|e| panic!("{e}\n{sql}")))
        .collect()
}

fn ranked_line(r: &RankedCandidate) -> String {
    format!(
        "{} {} {:016x} {:016x} {}",
        r.candidate.name(),
        r.size_bytes,
        r.benefit.to_bits(),
        r.maintenance.to_bits(),
        r.benefiting_queries.len()
    )
}

fn names(chosen: &[RankedCandidate]) -> Vec<String> {
    chosen.iter().map(|r| r.candidate.name()).collect()
}

fn created(outcome: &AimOutcome) -> Vec<String> {
    outcome
        .created
        .iter()
        .map(|c| {
            format!(
                "{} {} {:016x} {:016x}",
                c.def.name,
                c.size_bytes,
                c.benefit.to_bits(),
                c.maintenance.to_bits()
            )
        })
        .collect()
}

fn outcome_lines(out: &mut String, title: &str, outcome: &AimOutcome) {
    writeln!(
        out,
        "{title} workload={} candidates={}",
        outcome.workload_size, outcome.candidates_generated
    )
    .unwrap();
    section(out, &format!("{title} created"), created(outcome));
    section(
        out,
        &format!("{title} rejected"),
        outcome
            .rejected
            .iter()
            .map(|(n, why)| format!("{n}: {why}"))
            .collect(),
    );
}

/// The ranked list of `workload` on `db` through the public stage
/// functions, and the size of what an unbounded knapsack takes from it
/// ("the full configuration").
fn rank(
    db: &Database,
    monitor: &WorkloadMonitor,
    gen: &CandidateGenConfig,
) -> (usize, Vec<RankedCandidate>, u64) {
    let workload = select_workload(monitor, &selection());
    let candidates = generate_candidates(db, &workload, gen);
    let ranked = try_rank_candidates_with(
        db,
        &workload,
        &candidates,
        &RunCtl::none(),
        &WhatIfCache::new(),
    )
    .unwrap();
    let full = knapsack_select(&ranked, u64::MAX, 0)
        .iter()
        .map(|r| r.size_bytes)
        .sum();
    (candidates.len(), ranked, full)
}

struct Case {
    name: &'static str,
    db: Database,
    monitor: WorkloadMonitor,
    budget: u64,
    skip_validation: bool,
}

impl Case {
    fn builder(&self) -> AimConfigBuilder {
        AimConfig::builder()
            .selection(selection())
            .storage_budget(self.budget)
            .skip_validation(self.skip_validation)
    }
}

fn pass_case(out: &mut String, case: &Case) {
    let name = case.name;
    let (generated, ranked, full) = rank(&case.db, &case.monitor, &CandidateGenConfig::default());
    writeln!(
        out,
        "[{name}] generated={generated} full_configuration={full}"
    )
    .unwrap();
    section(
        out,
        &format!("[{name}] ranked"),
        ranked.iter().map(ranked_line).collect(),
    );
    for (label, budget) in [("inf", u64::MAX), ("40%", full * 2 / 5), ("10%", full / 10)] {
        let mut decisions = Vec::new();
        let chosen = knapsack(&ranked, budget, 0, Some(&mut decisions));
        section(
            out,
            &format!("[{name}] knapsack {label} chosen"),
            names(&chosen),
        );
        section(
            out,
            &format!("[{name}] knapsack {label} decisions"),
            decisions
                .iter()
                .map(|d| {
                    format!(
                        "{} {} {} {} {}",
                        d.name, d.accepted, d.remaining_before, d.reclaimed, d.remaining_after
                    )
                })
                .collect(),
        );
    }

    let with_ledger = case.builder().ledger(true).session();
    let mut db = case.db.clone();
    let first = with_ledger
        .run(&mut db, &case.monitor)
        .expect("pass with ledger");
    outcome_lines(out, &format!("[{name}] pass1"), &first);
    let ledger = with_ledger.ledger_json();
    writeln!(
        out,
        "[{name}] pass1 ledger fnv {:016x}",
        fnv1a(ledger.as_bytes())
    )
    .unwrap();

    let mut plain_db = case.db.clone();
    let plain = case
        .builder()
        .session()
        .run(&mut plain_db, &case.monitor)
        .expect("pass");
    assert_eq!(
        created(&first),
        created(&plain),
        "{name}: the ledger changed the pass"
    );
    assert_eq!(
        first.rejected, plain.rejected,
        "{name}: the ledger changed the pass"
    );

    // The same window again on the tuned database: candidates an index now
    // serves are filtered before ranking.
    let second = with_ledger
        .run(&mut db, &case.monitor)
        .expect("second pass");
    outcome_lines(out, &format!("[{name}] pass2"), &second);
    let ledger = with_ledger.ledger_json();
    writeln!(
        out,
        "[{name}] pass2 ledger fnv {:016x}",
        fnv1a(ledger.as_bytes())
    )
    .unwrap();
}

fn tpch_case() -> Case {
    let mut db = tpch::build_database(&tpch::TpchConfig::default());
    let texts = [0xA1, 0xA2]
        .into_iter()
        .flat_map(tpch::query_texts)
        .map(|(_, sql)| sql);
    let monitor = observe(&mut db, parsed(texts));
    Case {
        name: "tpch",
        db,
        monitor,
        budget: u64::MAX,
        skip_validation: false,
    }
}

fn job_case() -> Case {
    let mut db = job::build_database(&job::JobConfig {
        titles: 1500,
        ..Default::default()
    });
    let monitor = observe(
        &mut db,
        parsed(job::query_texts(0x10B).into_iter().map(|(_, sql)| sql)),
    );
    Case {
        name: "job",
        db,
        monitor,
        budget: u64::MAX,
        skip_validation: false,
    }
}

/// Product B as the benchmark's `prod_advise` runs it: estimate-only,
/// 12 MiB.
fn product_b_case() -> Case {
    let w = production::build(&production::profiles()[1]);
    let mut db = w.db;
    let monitor = observe(
        &mut db,
        w.specs.iter().flat_map(|s| s.variants.iter().cloned()),
    );
    Case {
        name: "prodb",
        db,
        monitor,
        budget: 12 << 20,
        skip_validation: true,
    }
}

fn oltp_case() -> Case {
    let mut db = common::oltp_db();
    let monitor = observe(&mut db, parsed(common::oltp_texts()));
    db.analyze_all();
    Case {
        name: "oltp",
        db,
        monitor,
        budget: u64::MAX,
        skip_validation: false,
    }
}

/// A validated pass over the TPC-H fixture's SELECTs and three writes
/// (`common::tpch_texts_with_writes`), on a memory source and on a
/// disk-backed one at the smallest scale: what it created, and what it
/// rejected, why, and at what cost before and after.
fn tpch_writes_section(out: &mut String) {
    let dir = std::env::temp_dir().join(format!("aim-pass-golden-{}", std::process::id()));
    let smallest = tpch::build_database(&tpch::TpchConfig {
        scale: 0.0,
        ..Default::default()
    });
    let sources = [
        ("mem", tpch::build_database(&tpch::TpchConfig::default())),
        ("disk", common::on_disk(&smallest, &dir)),
    ];
    for (backend, mut db) in sources {
        let monitor = observe(&mut db, parsed(common::tpch_texts_with_writes()));
        let outcome = AimConfig::builder()
            .selection(selection())
            .session()
            .run(&mut db, &monitor)
            .expect("pass");
        outcome_lines(out, &format!("[tpch writes {backend}] pass1"), &outcome);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

fn fleet_section(out: &mut String) {
    let workloads = generate_fleet(&FleetSpec {
        tenants: 6,
        base_rows: 1200,
        ..FleetSpec::default()
    });
    let base = AimConfig::builder()
        .selection(selection())
        .ledger(true)
        .build();
    // The uniform split is every tenant tuned alone under `budget / n`.
    let run = |budget: u64, uniform: bool| -> FleetOutcome {
        let mut tenants: Vec<Tenant> = workloads.iter().map(|w| w.tenant.clone()).collect();
        if uniform {
            return common::uniform_split(&base, budget, &mut tenants);
        }
        FleetConfig::builder()
            .base(common::with_budget(&base, budget))
            .fleet_workers(2)
            .session()
            .run(&mut tenants)
    };
    let full: u64 = run(u64::MAX, false)
        .tenants
        .iter()
        .filter_map(|t| t.result.as_ref().ok())
        .flat_map(|o| o.created.iter())
        .map(|c| c.size_bytes)
        .sum();
    let budget = full * 35 / 100;
    for (label, uniform) in [("knapsack", false), ("uniform", true)] {
        let outcome = run(budget, uniform);
        writeln!(
            out,
            "[fleet {label}] budget={budget} failed={} transfers={} transferred={}",
            outcome.failed(),
            outcome.budget_transfers,
            outcome.transferred_bytes
        )
        .unwrap();
        for t in &outcome.tenants {
            let result = match &t.result {
                Ok(o) => o
                    .created
                    .iter()
                    .map(|c| c.def.name.clone())
                    .collect::<Vec<_>>()
                    .join(","),
                Err(e) => format!("error {e}"),
            };
            let ledger = t.ledger_json.as_deref().map_or(0, |j| fnv1a(j.as_bytes()));
            writeln!(
                out,
                "[fleet {label}] {} budget={} ledger={ledger:016x} created={result}",
                t.id, t.budget
            )
            .unwrap();
        }
    }
}

fn advisor_section(out: &mut String, name: &str, db: &Database, workload: &[WeightedQuery]) {
    let mut advisor = AimAdvisor::new(3, 4);
    let full = config_size(db, &advisor.recommend(db, workload, u64::MAX));
    for (label, budget) in [("inf", u64::MAX), ("40%", full * 2 / 5), ("10%", full / 10)] {
        let defs = advisor.recommend(db, workload, budget);
        section(
            out,
            &format!("[advisor {name}] {label} size={}", config_size(db, &defs)),
            defs.iter()
                .map(|d| format!("{}({})", d.name, d.columns.join(",")))
                .collect(),
        );
    }
}

/// The LP instance's budget: 5 % of the full configuration. It was 40 %
/// until a column's range conjuncts became one interval; under the prices
/// that followed, greedy at 40 % costs less than the LP's selection
/// (9 479.9 M against 9 481.9 M) and the LP is not used.
fn lp_budget(full: u64) -> u64 {
    full / 20
}

/// TPC-H with join parameter 3 at [`lp_budget`], estimate-only: greedy
/// fills up with small dense indexes and can no longer fit the one large
/// index the LP relaxation starts from.
fn lp_section(out: &mut String, tpch: &Case) {
    let gen = CandidateGenConfig {
        join_parameter: 3,
        ..Default::default()
    };
    let (_, _, full) = rank(&tpch.db, &tpch.monitor, &gen);
    let budget = lp_budget(full);
    for (label, strategy) in [
        ("greedy", SelectionStrategy::Greedy),
        ("lp", SelectionStrategy::Lp),
    ] {
        let session = tpch
            .builder()
            .candidate_gen(gen.clone())
            .storage_budget(budget)
            .skip_validation(true)
            .selection_strategy(strategy)
            .ledger(true)
            .session();
        let mut db = tpch.db.clone();
        let outcome = session.run(&mut db, &tpch.monitor).expect("pass");
        outcome_lines(
            out,
            &format!("[lp tpch j=3 5% {label}] budget={budget}"),
            &outcome,
        );
        let ledger = session.ledger();
        let count = |stage: &str| {
            ledger
                .records()
                .iter()
                .filter(|r| r.stages().contains(&stage))
                .count()
        };
        writeln!(
            out,
            "[lp tpch j=3 5% {label}] lp_accepted={} lp_rejected={} ledger fnv {:016x}",
            count("lp_accepted"),
            count("lp_rejected"),
            fnv1a(session.ledger_json().as_bytes())
        )
        .unwrap();
    }
}

#[test]
fn pass_decisions_match_golden() {
    let mut actual = String::new();
    let tpch = tpch_case();
    pass_case(&mut actual, &tpch);
    let job = job_case();
    pass_case(&mut actual, &job);
    pass_case(&mut actual, &product_b_case());
    pass_case(&mut actual, &oltp_case());
    tpch_writes_section(&mut actual);
    fleet_section(&mut actual);
    advisor_section(
        &mut actual,
        "tpch",
        &tpch.db,
        &tpch::weighted_workload(0xA1),
    );
    let tpcds_db = tpcds::build_database(&tpcds::TpcdsConfig::default());
    advisor_section(
        &mut actual,
        "tpcds",
        &tpcds_db,
        &tpcds::weighted_workload(0xD5),
    );
    advisor_section(&mut actual, "job", &job.db, &job::weighted_workload(0x10B));
    lp_section(&mut actual, &tpch);

    common::assert_matches_golden("pass_digest.txt", &actual);
}

/// The LP selector's accept branch, on the instance of [`lp_section`]:
/// the rounded LP selection replaces greedy because it is cheaper on
/// actual batched workload cost, stays within the budget, and is exactly
/// what the `Lp` session builds and explains.
#[test]
fn lp_selection_replaces_greedy_where_greedy_strands_the_budget() {
    let tpch = tpch_case();
    let gen = CandidateGenConfig {
        join_parameter: 3,
        ..Default::default()
    };
    let (_, ranked, full) = rank(&tpch.db, &tpch.monitor, &gen);
    let budget = lp_budget(full);
    let workload = select_workload(&tpch.monitor, &selection());
    let greedy = knapsack_select(&ranked, budget, 0);
    let lp = refine_selection(
        &tpch.db,
        &workload,
        &ranked,
        &greedy,
        budget,
        &RunCtl::none(),
        &WhatIfCache::new(),
    )
    .expect("nothing interrupts or fails the refinement");
    assert!(
        lp.used_lp,
        "greedy kept: lp {} vs greedy {}",
        lp.lp_cost, lp.greedy_cost
    );
    assert!(lp.lp_cost < lp.greedy_cost);
    assert!(lp.chosen.iter().map(|r| r.size_bytes).sum::<u64>() <= budget);
    assert_ne!(names(&lp.chosen), names(&greedy));

    let session = |strategy| {
        let session = tpch
            .builder()
            .candidate_gen(gen.clone())
            .storage_budget(budget)
            .skip_validation(true)
            .selection_strategy(strategy)
            .ledger(true)
            .session();
        let outcome = session
            .run(&mut tpch.db.clone(), &tpch.monitor)
            .expect("pass");
        let built: Vec<String> = outcome.created.iter().map(|c| c.def.name.clone()).collect();
        (built, session.ledger())
    };
    let (built, ledger) = session(SelectionStrategy::Lp);
    assert_eq!(
        built,
        names(&lp.chosen),
        "the session materializes the LP's choice"
    );
    for d in &lp.decisions {
        let stages = ledger
            .find(&d.name)
            .expect("shortlisted candidate has a record")
            .stages();
        assert!(stages.contains(&d.stage), "{}: {stages:?}", d.name);
    }
    assert!(
        lp.decisions.len() > lp.chosen.len(),
        "the shortlist holds rejected candidates too"
    );

    let (built, ledger) = session(SelectionStrategy::Greedy);
    assert_eq!(built, names(&greedy), "greedy sessions never see the LP");
    assert!(ledger
        .records()
        .iter()
        .all(|r| !r.stages().iter().any(|s| s.starts_with("lp_"))));
}
