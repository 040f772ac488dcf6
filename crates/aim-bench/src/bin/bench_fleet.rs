//! Fleet-scale tuning benchmark: N Zipf-skewed tenants on the
//! [`aim_core::FleetSession`] worker pool.
//!
//! The headline measurement is budget-allocation quality: the same fleet
//! is tuned under the same total storage budget twice — once with the
//! fixed uniform per-shard split, once with the fleet-level knapsack that
//! moves budget toward tenants whose candidates buy the most workload
//! cost per byte — and the total post-tuning workload cost must be lower
//! under the knapsack split (asserted). The budget is set to 35% of what
//! an unconstrained run would build, so the split genuinely bites.
//!
//! Also reported: shards-tuned-per-second on the pool, budget transfers
//! and bytes moved beyond the uniform share, cross-shard seed orders, and
//! (quick/full) the knapsack split combined with the per-tenant LP
//! selection refinement, which must match or beat the greedy split.
//!
//! Usage: `cargo run -p aim-bench --bin bench_fleet --release -- [smoke|quick]`
//!
//! `smoke` (12 tenants) is the CI gate: every tenant must converge, the
//! knapsack split must not lose to uniform, and the emitted artifact must
//! be well-formed JSON (checked in-process via `aim_telemetry::jsonv`).
//! The default mode runs 256 tenants and writes `results/BENCH_fleet.json`
//! (`smoke`: under `target/smoke/`).

use aim_core::fleet::{BudgetAllocation, FleetConfig, FleetOutcome, Tenant};
use aim_core::{workload_cost, AimConfig, SelectionStrategy};
use aim_exec::{CostModel, HypoConfig};
use aim_monitor::SelectionConfig;
use aim_workloads::fleet::{generate_fleet, FleetSpec, TenantWorkload};

/// Total post-tuning workload cost: each tenant's weighted SELECT shapes
/// priced against its (now tuned) database, summed across the fleet.
fn fleet_cost(tenants: &[Tenant], workloads: &[TenantWorkload], cm: &CostModel) -> f64 {
    // `none()` keeps materialized indexes visible — the whole point is to
    // price the workload against what tuning actually built.
    let none = HypoConfig::none();
    tenants
        .iter()
        .zip(workloads)
        .map(|(t, w)| workload_cost(&t.db, &w.weighted, &none, cm))
        .sum()
}

fn base_config() -> AimConfig {
    AimConfig::builder()
        .selection(SelectionConfig {
            min_executions: 1,
            min_benefit: 0.0,
            max_queries: 50,
            include_dml: true,
        })
        .build()
}

struct RunReport {
    label: &'static str,
    cost: f64,
    outcome: FleetOutcome,
    shards_per_s: f64,
}

/// Tunes a fresh copy of the fleet under `allocation` and `budget`.
fn run_fleet(
    workloads: &[TenantWorkload],
    budget: u64,
    allocation: BudgetAllocation,
    strategy: SelectionStrategy,
    label: &'static str,
    cm: &CostModel,
) -> RunReport {
    let mut tenants: Vec<Tenant> = workloads.iter().map(|w| w.tenant.clone()).collect();
    let mut base = base_config();
    base.selection_strategy = strategy;
    let fleet = FleetConfig::builder()
        .base(base)
        .fleet_budget(budget)
        .allocation(allocation)
        .session();
    let outcome = fleet.run(&mut tenants);
    let elapsed = outcome.elapsed.as_secs_f64();
    RunReport {
        label,
        cost: fleet_cost(&tenants, workloads, cm),
        shards_per_s: tenants.len() as f64 / elapsed.max(1e-9),
        outcome,
    }
}

fn created_bytes(outcome: &FleetOutcome) -> u64 {
    outcome
        .tenants
        .iter()
        .filter_map(|t| t.result.as_ref().ok())
        .flat_map(|o| o.created.iter())
        .map(|c| c.size_bytes)
        .sum()
}

/// Straggler skew: the slowest tenant's tune-slot wall time over the mean
/// slot — the factor by which one tenant gates the pool's wall clock.
fn straggler_skew(outcome: &FleetOutcome) -> (String, f64, f64) {
    let Some((id, slowest)) = &outcome.slowest_tenant else {
        return (String::new(), 0.0, 0.0);
    };
    let n = outcome.tenants.len().max(1) as f64;
    let mean_s = outcome
        .tenants
        .iter()
        .map(|t| t.elapsed.as_secs_f64())
        .sum::<f64>()
        / n;
    let slowest_s = slowest.as_secs_f64();
    let skew = if mean_s > 0.0 { slowest_s / mean_s } else { 0.0 };
    (id.clone(), slowest_s * 1e3, skew)
}

fn report_json(r: &RunReport) -> String {
    let (slow_id, slow_ms, skew) = straggler_skew(&r.outcome);
    format!(
        "{{ \"label\": \"{}\", \"total_cost\": {:.4}, \"tuned\": {}, \"failed\": {}, \
         \"elapsed_s\": {:.6}, \"shards_per_s\": {:.2}, \"budget_transfers\": {}, \
         \"transferred_bytes\": {}, \"seeded_orders\": {}, \"created_bytes\": {}, \
         \"slowest_tenant\": \"{}\", \"slowest_tenant_ms\": {:.3}, \
         \"straggler_skew\": {:.3} }}",
        r.label,
        r.cost,
        r.outcome.tuned(),
        r.outcome.failed(),
        r.outcome.elapsed.as_secs_f64(),
        r.shards_per_s,
        r.outcome.budget_transfers,
        r.outcome.transferred_bytes,
        r.outcome.seeded_orders,
        created_bytes(&r.outcome),
        slow_id,
        slow_ms,
        skew,
    )
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "smoke");
    let quick = !smoke && args.iter().any(|a| a == "quick");
    let mode = if smoke {
        "smoke"
    } else if quick {
        "quick"
    } else {
        "full"
    };
    aim_telemetry::enable();

    let (tenants, base_rows) = if smoke {
        (12usize, 1_200i64)
    } else if quick {
        (64, 2_500)
    } else {
        (256, 4_000)
    };
    let spec = FleetSpec {
        tenants,
        base_rows,
        ..FleetSpec::default()
    };
    let workloads = generate_fleet(&spec);
    let cm = CostModel::default();

    let baseline_cost = {
        let pristine: Vec<Tenant> = workloads.iter().map(|w| w.tenant.clone()).collect();
        fleet_cost(&pristine, &workloads, &cm)
    };

    // Size the contested budget off an unconstrained run: 35% of what the
    // fleet would build with no budget pressure at all.
    let unconstrained = run_fleet(
        &workloads,
        u64::MAX,
        BudgetAllocation::Knapsack,
        SelectionStrategy::Greedy,
        "unconstrained",
        &cm,
    );
    let full_build = created_bytes(&unconstrained.outcome);
    let budget = ((full_build as f64) * 0.35) as u64;

    let uniform = run_fleet(
        &workloads,
        budget,
        BudgetAllocation::Uniform,
        SelectionStrategy::Greedy,
        "uniform",
        &cm,
    );
    let knapsack = run_fleet(
        &workloads,
        budget,
        BudgetAllocation::Knapsack,
        SelectionStrategy::Greedy,
        "knapsack",
        &cm,
    );
    let lp = if smoke {
        None
    } else {
        Some(run_fleet(
            &workloads,
            budget,
            BudgetAllocation::Knapsack,
            SelectionStrategy::Lp,
            "knapsack+lp",
            &cm,
        ))
    };

    let improvement_pct = if uniform.cost > 0.0 {
        (uniform.cost - knapsack.cost) / uniform.cost * 100.0
    } else {
        0.0
    };

    println!(
        "# bench_fleet ({mode}): {tenants} tenants, base {base_rows} rows, \
         budget {budget} bytes (35% of {full_build} unconstrained)"
    );
    println!("baseline (untuned) fleet cost: {baseline_cost:.1}");
    for r in [&unconstrained, &uniform, &knapsack]
        .into_iter()
        .chain(lp.as_ref())
    {
        let (slow_id, slow_ms, skew) = straggler_skew(&r.outcome);
        println!(
            "{:>14}: cost {:>12.1} | {}/{} tuned | {:.1} shards/s | {} transfers \
             ({} bytes) | {} seed orders | straggler {} {:.1}ms ({:.2}x mean)",
            r.label,
            r.cost,
            r.outcome.tuned(),
            r.outcome.tenants.len(),
            r.shards_per_s,
            r.outcome.budget_transfers,
            r.outcome.transferred_bytes,
            r.outcome.seeded_orders,
            slow_id,
            slow_ms,
            skew,
        );
    }
    println!(
        "knapsack vs uniform split: {improvement_pct:.2}% lower total workload cost"
    );

    let mut failures = Vec::new();
    for r in [&unconstrained, &uniform, &knapsack]
        .into_iter()
        .chain(lp.as_ref())
    {
        if r.outcome.failed() > 0 {
            failures.push(format!("{}: {} tenants failed", r.label, r.outcome.failed()));
        }
    }
    if knapsack.cost > uniform.cost {
        failures.push(format!(
            "knapsack split lost to uniform: {:.1} > {:.1}",
            knapsack.cost, uniform.cost
        ));
    }
    if !smoke && knapsack.cost >= uniform.cost {
        failures.push("knapsack split failed to strictly beat uniform".into());
    }
    if knapsack.outcome.budget_transfers == 0 && budget > 0 {
        failures.push("knapsack run moved no budget beyond the uniform share".into());
    }
    if let Some(lp) = &lp {
        // Per-tenant LP refinement never loses to greedy by construction.
        if lp.cost > knapsack.cost * 1.0000001 {
            failures.push(format!(
                "LP refinement lost to greedy: {:.1} > {:.1}",
                lp.cost, knapsack.cost
            ));
        }
    }

    let reports: Vec<String> = [&unconstrained, &uniform, &knapsack]
        .into_iter()
        .chain(lp.as_ref())
        .map(report_json)
        .collect();
    let json = format!(
        "{{\n  \"benchmark\": \"bench_fleet\",\n  \"mode\": \"{mode}\",\n  \
         \"tenants\": {tenants},\n  \"zipf_s\": {zipf_s},\n  \"seed\": {seed},\n  \
         \"base_rows\": {base_rows},\n  \"budget_bytes\": {budget},\n  \
         \"unconstrained_build_bytes\": {full_build},\n  \
         \"baseline_cost\": {baseline_cost:.4},\n  \
         \"improvement_pct\": {improvement_pct:.4},\n  \
         \"runs\": [\n    {runs}\n  ],\n  \
         \"telemetry\": {{ \"shards_tuned\": {shards_tuned}, \
         \"tenant_failures\": {tenant_failures}, \"budget_transfers\": {transfers}, \
         \"seeded_orders\": {seeded} }}\n}}\n",
        zipf_s = spec.zipf_s,
        seed = spec.seed,
        runs = reports.join(",\n    "),
        shards_tuned = aim_telemetry::metrics::FLEET_SHARDS_TUNED.get(),
        tenant_failures = aim_telemetry::metrics::FLEET_TENANT_FAILURES.get(),
        transfers = aim_telemetry::metrics::FLEET_BUDGET_TRANSFERS.get(),
        seeded = aim_telemetry::metrics::FLEET_SEEDED_ORDERS.get(),
    );
    if let Err(e) = aim_telemetry::jsonv::parse(&json) {
        failures.push(format!("artifact is not well-formed JSON: {e}"));
    }
    let name = if quick { "BENCH_fleet_quick.json" } else { "BENCH_fleet.json" };
    match aim_bench::write_artifact(name, smoke, &json) {
        Ok(path) => eprintln!("# artifact: {path}"),
        Err(e) => failures.push(format!("artifact write failed: {e}")),
    }

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }
}
