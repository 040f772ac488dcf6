//! Fleet driver integration suite.
//!
//! The contract under test:
//!
//! * a fleet of one is the *degenerate* form of the API — bit-identical
//!   (outcome shape, reject list, decision ledger) to running the bare
//!   [`TuningSession`] on the same inputs;
//! * one tenant faulting is isolated into its [`TenantOutcome`] and must
//!   not abort the fleet (chaos coverage);
//! * the fleet-level knapsack allocation beats the fixed uniform per-shard
//!   split — every tenant tuned alone under `budget / n` — on total
//!   post-tuning workload cost.
//!
//! Fault state and telemetry are process-global, so tests take turns.

mod common;

use aim_core::fleet::{FleetConfig, FleetOutcome, Tenant};
use aim_core::{workload_cost, AimConfig, TuningSession};
use aim_exec::{Engine, HypoConfig, WhatIfCache};
use aim_monitor::{SelectionConfig, WorkloadMonitor};
use aim_sql::parse_statement;
use aim_storage::fault::{self, FaultGuard, FaultPlan};
use aim_storage::Database;
use aim_workloads::fleet::{generate_fleet, FleetSpec, TenantWorkload};

fn selection() -> SelectionConfig {
    SelectionConfig {
        min_executions: 1,
        min_benefit: 0.0,
        max_queries: 50,
        include_dml: true,
    }
}

fn observe(db: &mut Database, monitor: &mut WorkloadMonitor, sql: &str, n: usize) {
    let engine = Engine::new();
    let stmt = parse_statement(sql).unwrap();
    for _ in 0..n {
        let out = engine.execute(db, &stmt).unwrap();
        monitor.record(&stmt, &out);
    }
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

/// Satellite: a 1-tenant fleet is the degenerate form of the single
/// entry path — same outcome shape, same reject list, same decision
/// ledger (string-identical JSON) as the bare `TuningSession` it wraps.
#[test]
fn single_tenant_fleet_bit_identical_to_tuning_session() {
    let _g = FaultGuard::acquire();
    let base = || {
        AimConfig::builder()
            .selection(selection())
            .ledger(true)
            .build()
    };
    let populate = |db: &mut Database, monitor: &mut WorkloadMonitor| {
        observe(db, monitor, "SELECT id FROM orders WHERE customer = 42", 8);
        observe(
            db,
            monitor,
            "SELECT id FROM orders WHERE region = 3 AND customer = 7",
            5,
        );
    };

    // Bare session.
    let mut bare_db = common::orders_db(6000);
    let mut bare_monitor = WorkloadMonitor::new();
    populate(&mut bare_db, &mut bare_monitor);
    let bare_session: TuningSession = AimConfig::builder()
        .selection(selection())
        .ledger(true)
        .session();
    let bare = bare_session
        .run(&mut bare_db, &bare_monitor)
        .expect("bare pass converges");
    assert!(!bare.created.is_empty(), "fixture must create an index");

    // Fleet of one, same seed inputs.
    let mut fleet_db = common::orders_db(6000);
    let mut fleet_monitor = WorkloadMonitor::new();
    populate(&mut fleet_db, &mut fleet_monitor);
    let mut tenants = vec![Tenant::new("only", fleet_db)];
    tenants[0].monitor = fleet_monitor;
    let fleet: FleetOutcome = FleetConfig::builder()
        .base(base())
        .session()
        .run(&mut tenants);

    assert_eq!(fleet.tenants.len(), 1);
    assert_eq!(
        fleet.budget_transfers, 0,
        "no allocation phase for one tenant"
    );
    let t = &fleet.tenants[0];
    let fleet_outcome = t.result.as_ref().expect("degenerate pass converges");

    assert_eq!(shape(&bare), shape(fleet_outcome));
    assert_eq!(bare.rejected, fleet_outcome.rejected);
    assert_eq!(bare.workload_size, fleet_outcome.workload_size);
    assert_eq!(
        bare.candidates_generated,
        fleet_outcome.candidates_generated
    );
    assert_eq!(
        Some(bare_session.ledger_json()),
        t.ledger_json,
        "decision ledgers must be string-identical"
    );
    // Both databases ended up with the same physical design.
    let names = |db: &Database| -> Vec<String> {
        db.all_indexes().iter().map(|d| d.name.clone()).collect()
    };
    assert_eq!(names(&bare_db), names(&tenants[0].db));
}

/// Chaos satellite: one tenant hitting a fault (its validation clone
/// fails) is isolated — the fleet completes, the other tenants converge,
/// and the faulted tenant's database is rolled back.
#[test]
fn one_tenant_faulting_does_not_abort_the_fleet() {
    let _g = FaultGuard::acquire();
    let mut tenants: Vec<Tenant> = (0..4)
        .map(|i| {
            let mut db = common::orders_db(3000 + 500 * i);
            let mut monitor = WorkloadMonitor::new();
            observe(
                &mut db,
                &mut monitor,
                "SELECT id FROM orders WHERE customer = 42",
                6,
            );
            let mut t = Tenant::new(format!("tenant-{i}"), db);
            t.monitor = monitor;
            t
        })
        .collect();

    // One fleet worker → tenants tune strictly in input order, so the
    // first validation clone in the tune phase belongs to tenant-0.
    fault::arm(FaultPlan::new(7).fail("storage.clone", 0, 1));
    let outcome = FleetConfig::builder()
        .base(AimConfig::builder().selection(selection()).build())
        .fleet_workers(1)
        .session()
        .run(&mut tenants);
    let log = fault::disarm();

    assert_eq!(log.len(), 1, "exactly the planned fault fires: {log:?}");
    assert_eq!(outcome.failed(), 1, "the fault stays in one tenant");
    assert_eq!(outcome.tuned(), 3, "the rest of the fleet converges");
    assert!(
        outcome.tenants[0].result.is_err(),
        "the deterministic pool order pins the fault to tenant-0"
    );
    assert!(
        tenants[0].db.all_indexes().is_empty(),
        "the faulted tenant's pass rolled back"
    );
    for (t, out) in tenants.iter().zip(&outcome.tenants).skip(1) {
        let o = out.result.as_ref().expect("unfaulted tenant converges");
        assert!(!o.created.is_empty(), "{} tunes normally", out.id);
        assert!(!t.db.all_indexes().is_empty());
        t.db.check_consistency()
            .expect("consistent after fleet pass");
    }
    tenants[0]
        .db
        .check_consistency()
        .expect("consistent after rollback");
}

/// A probe fault fails that tenant — and is accounted for like any other
/// tenant failure: counted, returned as the tenant's error naming the
/// fault site, isolated from the rest of the fleet.
#[test]
fn probe_failure_is_counted_and_returned_like_a_tune_failure() {
    let _g = FaultGuard::acquire();
    aim_telemetry::enable();
    aim_telemetry::reset();
    let base = AimConfig::builder().selection(selection()).build();
    let (outcome, tenants) = common::fleet_with_one_probe_fault(base);
    aim_telemetry::disable();
    assert_eq!(outcome.failed(), 1);
    let err = outcome.tenants[0]
        .result
        .as_ref()
        .expect_err("the first what-if call is tenant-0's");
    assert!(err.to_string().contains("exec.whatif"), "{err}");
    for (t, out) in tenants.iter().zip(&outcome.tenants).skip(1) {
        let o = out.result.as_ref().expect("unfaulted tenant converges");
        assert!(!o.created.is_empty(), "{} tunes normally", out.id);
        assert!(!t.db.all_indexes().is_empty());
    }
    assert_eq!(
        aim_telemetry::snapshot().counter("fleet.tenant_failures"),
        Some(1)
    );
}

/// The `fleet.budget_used_bytes` gauge counts what a tenant's budget is
/// charged for: its secondary-index bytes over all its shards, which on an
/// unconstrained fleet is the sum of the sizes its pass created.
#[test]
fn budget_used_gauge_counts_every_shard() {
    let _g = FaultGuard::acquire();
    let mut tenants: Vec<Tenant> = generate_fleet(&FleetSpec {
        tenants: 8,
        ..FleetSpec::default()
    })
    .into_iter()
    .map(|w| w.tenant)
    .collect();
    assert!(
        tenants.iter().any(|t| t.profile.is_some()),
        "the fleet has a sharded tenant"
    );
    aim_telemetry::enable();
    aim_telemetry::reset();
    let outcome = FleetConfig::builder()
        .base(AimConfig::builder().selection(selection()).build())
        .session()
        .run(&mut tenants);
    let snap = aim_telemetry::snapshot();
    aim_telemetry::disable();
    assert_eq!(outcome.failed(), 0);
    for t in &outcome.tenants {
        let created: u64 = t
            .result
            .as_ref()
            .unwrap()
            .created
            .iter()
            .map(|c| c.size_bytes)
            .sum();
        let used: Vec<i64> = snap
            .gauges
            .iter()
            .filter(|(s, _)| {
                s.name() == "fleet.budget_used_bytes" && s.label("tenant") == Some(t.id.as_str())
            })
            .map(|(_, v)| *v)
            .collect();
        assert_eq!(used, [created as i64], "{}", t.id);
    }
}

/// Total post-tuning workload cost of a fleet (materialized indexes
/// visible to the planner).
fn fleet_cost(tenants: &[Tenant], workloads: &[TenantWorkload]) -> f64 {
    let none = HypoConfig::none();
    let cache = WhatIfCache::new();
    tenants
        .iter()
        .zip(workloads)
        .map(|(t, w)| workload_cost(&t.db, &w.weighted, &none, &cache))
        .sum()
}

/// Under a contested budget, the fleet-level knapsack allocation beats the
/// fixed uniform per-shard split on total workload cost, and actually moves
/// budget beyond the uniform share — on fleets of 6, 10 and 16 tenants from
/// three fleet seeds, at 35 % of each fleet's unconstrained build.
#[test]
fn knapsack_allocation_beats_uniform_split_on_workload_cost() {
    let _g = FaultGuard::acquire();
    let base = AimConfig::builder().selection(selection()).build();
    let mut ratios = Vec::new();
    for tenants in [6, 10, 16] {
        for seed in [42, 1, 2] {
            let spec = FleetSpec {
                tenants,
                seed,
                base_rows: 1200,
                ..FleetSpec::default()
            };
            let workloads = generate_fleet(&spec);
            let run = |budget: u64, uniform: bool| -> (f64, FleetOutcome) {
                let mut tenants: Vec<Tenant> = workloads.iter().map(|w| w.tenant.clone()).collect();
                let outcome = if uniform {
                    common::uniform_split(&base, budget, &mut tenants)
                } else {
                    FleetConfig::builder()
                        .base(common::with_budget(&base, budget))
                        .session()
                        .run(&mut tenants)
                };
                assert_eq!(outcome.failed(), 0);
                (fleet_cost(&tenants, &workloads), outcome)
            };

            // Size a budget that genuinely bites: 35% of the unconstrained build.
            let (_, unconstrained) = run(u64::MAX, false);
            let full_build: u64 = unconstrained
                .tenants
                .iter()
                .filter_map(|t| t.result.as_ref().ok())
                .flat_map(|o| o.created.iter())
                .map(|c| c.size_bytes)
                .sum();
            assert!(
                full_build > 0,
                "the fleet must build something unconstrained"
            );
            let budget = (full_build as f64 * 0.35) as u64;

            let (uniform_cost, _) = run(budget, true);
            let (knapsack_cost, knapsack) = run(budget, false);
            let at = format!("{tenants} tenants, seed {seed}");
            assert!(
                knapsack.budget_transfers > 0,
                "{at}: the knapsack must move budget beyond the uniform share"
            );
            assert!(
                knapsack_cost < uniform_cost,
                "{at}: knapsack split must beat uniform: {knapsack_cost:.1} vs {uniform_cost:.1}"
            );
            println!(
                "{at}: knapsack / uniform = {:.3}",
                knapsack_cost / uniform_cost
            );
            ratios.push(knapsack_cost / uniform_cost);
        }
    }
    let min = ratios.iter().copied().fold(f64::INFINITY, f64::min);
    let max = ratios.iter().copied().fold(0.0, f64::max);
    println!(
        "knapsack / uniform at 35 %: {min:.3}..{max:.3} over {} fleets",
        ratios.len()
    );
}
