//! Fleet-scale tuning: many tenants, one storage budget, one entry path.
//!
//! AIM's deployment context is a sharded fleet — the paper tunes thousands
//! of MySQL shards, not one database. [`FleetSession`] is the driver for
//! that setting. It owns N [`Tenant`]s (each a [`Database`], a
//! [`WorkloadMonitor`] ingestion stream and an optional
//! [`ShardingProfile`]) and runs one fleet pass in three phases:
//!
//! 1. **Probe.** Every tenant's representative workload is selected,
//!    candidates are generated and ranked (sequentially per tenant; the
//!    fleet-level worker pool provides the parallelism). The probe yields
//!    each tenant's ranked candidate economics, its current index
//!    footprint, and a hotness signal (window CPU).
//! 2. **Allocate.** The storage budget is split *across* tenants by a
//!    fleet-level greedy knapsack over all probed candidates in global
//!    utility-density order ([`BudgetAllocation::Knapsack`]), instead of a
//!    fixed per-shard split ([`BudgetAllocation::Uniform`]). Hot tenants
//!    with dense candidates draw budget away from tenants that cannot use
//!    it; each transfer beyond the uniform share is counted in
//!    [`FleetOutcome::budget_transfers`].
//! 3. **Tune.** A per-tenant [`TuningSession`] runs under the allocated
//!    budget on a bounded worker pool, reusing the session's
//!    `RunCtl`/retry/rollback plumbing: the fleet deadline and a shared
//!    [`CancelToken`] are threaded into every tenant session. A tenant
//!    that faults is recorded in its [`TenantOutcome`] and does **not**
//!    abort the fleet. Hot tenants additionally *seed* cold ones: their
//!    top-ranked partial orders are handed to cold tenants'
//!    candidate generation, where
//!    [`merge_cross_shard`](crate::partial_order::merge_cross_shard)
//!    widens locally evidenced orders (evidence-free seeds are inert).
//!
//! A 1-tenant fleet skips the probe/allocate phases entirely and runs the
//! tenant's [`TuningSession`] directly — it is bit-identical to a bare
//! session on the same inputs, which makes `FleetSession` the single
//! entry path for both fleets and standalone databases.
//!
//! ```ignore
//! let mut tenants = vec![Tenant::new("shard-0", db0), Tenant::new("shard-1", db1)];
//! let fleet = FleetConfig::builder()
//!     .base(AimConfig::builder().build())
//!     .fleet_budget(256 << 20)
//!     .session();
//! let outcome = fleet.run(&mut tenants);
//! assert_eq!(outcome.failed(), 0);
//! ```

use crate::error::AimError;
use crate::ledger::Decisions;
use crate::partial_order::PartialOrder;
use crate::plan::PassPlanner;
use crate::ranking::{effective_workers, RankedCandidate};
use crate::session::{AimConfig, AimOutcome, CancelToken, RetryPolicy, RunCtl, TuningSession};
use crate::sharding::ShardingProfile;
use aim_monitor::WorkloadMonitor;
use aim_storage::Database;
use aim_telemetry as tel;
use std::collections::{BTreeSet, VecDeque};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One logical tenant of a fleet: a database, the ingestion stream of its
/// observed workload, and (for tenants that are themselves horizontally
/// sharded) a [`ShardingProfile`] overriding the fleet-wide one.
#[derive(Debug, Clone)]
pub struct Tenant {
    /// Stable identifier, echoed in [`TenantOutcome::id`].
    pub id: String,
    pub db: Database,
    pub monitor: WorkloadMonitor,
    /// Per-tenant sharding economics; `None` inherits the fleet base
    /// config's profile.
    pub profile: Option<ShardingProfile>,
}

impl Tenant {
    /// A tenant with an empty observation window and no sharding profile.
    pub fn new(id: impl Into<String>, db: Database) -> Self {
        Self {
            id: id.into(),
            db,
            monitor: WorkloadMonitor::new(),
            profile: None,
        }
    }

    /// Sets this tenant's sharding profile (chainable).
    pub fn with_profile(mut self, profile: ShardingProfile) -> Self {
        self.profile = Some(profile);
        self
    }
}

/// How the fleet-wide storage budget is split across tenants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BudgetAllocation {
    /// Every tenant gets `fleet_budget / n` — the fixed per-shard split
    /// the paper's fleet deployment starts from.
    Uniform,
    /// Fleet-level greedy knapsack over all tenants' probed candidates in
    /// global utility-density order: budget flows to the tenants whose
    /// candidates buy the most workload cost per byte. The per-tenant
    /// session then re-selects under its allocation (greedy, or the LP
    /// refinement when the base config picks
    /// [`SelectionStrategy::Lp`](crate::session::SelectionStrategy::Lp)).
    #[default]
    Knapsack,
}

/// Fleet pass configuration.
///
/// `#[non_exhaustive]`: construct via [`FleetConfig::builder`] — fleet
/// knobs may appear in any release.
#[non_exhaustive]
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Per-tenant tuning configuration (selection, candidate generation,
    /// validation, ledger, selection strategy…). Each tenant session runs
    /// a copy with its allocated `storage_budget` and, in a multi-tenant
    /// fleet, `workers = 1` (the fleet pool provides the parallelism).
    pub base: AimConfig,
    /// Total storage budget in bytes across *all* tenants. Defaults to
    /// the base config's budget.
    pub fleet_budget: u64,
    /// Worker threads tuning tenants concurrently (`0` = one per
    /// available core, clamped to the tenant count).
    pub fleet_workers: usize,
    /// Budget split policy.
    pub allocation: BudgetAllocation,
    /// Hand hot tenants' top partial orders to cold tenants' candidate
    /// generation (on by default; evidence-free seeds are inert there).
    pub cross_shard_seeding: bool,
    /// At most this many seed orders are taken from each hot tenant.
    pub max_seed_orders: usize,
}

impl Default for FleetConfig {
    fn default() -> Self {
        let base = AimConfig::default();
        Self {
            fleet_budget: base.storage_budget,
            base,
            fleet_workers: 0,
            allocation: BudgetAllocation::default(),
            cross_shard_seeding: true,
            max_seed_orders: 8,
        }
    }
}

impl FleetConfig {
    /// Starts a builder — the construction path for fleet configs and
    /// [`FleetSession`]s.
    pub fn builder() -> FleetConfigBuilder {
        FleetConfigBuilder::default()
    }
}

/// Builder for [`FleetConfig`] and the [`FleetSession`] running it.
#[derive(Debug, Clone, Default)]
pub struct FleetConfigBuilder {
    cfg: FleetConfig,
    fleet_budget: Option<u64>,
    deadline: Option<Duration>,
    retry: RetryPolicy,
}

impl FleetConfigBuilder {
    /// Per-tenant tuning configuration. Unless
    /// [`FleetConfigBuilder::fleet_budget`] is called, the base config's
    /// `storage_budget` becomes the fleet-wide budget.
    pub fn base(mut self, base: AimConfig) -> Self {
        self.cfg.base = base;
        self
    }

    /// Total storage budget in bytes across all tenants.
    pub fn fleet_budget(mut self, bytes: u64) -> Self {
        self.fleet_budget = Some(bytes);
        self
    }

    /// Worker threads tuning tenants concurrently (`0` = auto).
    pub fn fleet_workers(mut self, workers: usize) -> Self {
        self.cfg.fleet_workers = workers;
        self
    }

    /// Budget split policy.
    pub fn allocation(mut self, allocation: BudgetAllocation) -> Self {
        self.cfg.allocation = allocation;
        self
    }

    /// Enables/disables hot→cold candidate seeding.
    pub fn cross_shard_seeding(mut self, on: bool) -> Self {
        self.cfg.cross_shard_seeding = on;
        self
    }

    /// Cap on seed orders taken from each hot tenant.
    pub fn max_seed_orders(mut self, n: usize) -> Self {
        self.cfg.max_seed_orders = n;
        self
    }

    /// Wall-clock budget for the whole fleet pass; the remaining time is
    /// threaded into every tenant session as its deadline.
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Retry policy applied inside every tenant session.
    pub fn retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Finishes the configuration.
    pub fn build(self) -> FleetConfig {
        let mut cfg = self.cfg;
        cfg.fleet_budget = self.fleet_budget.unwrap_or(cfg.base.storage_budget);
        cfg
    }

    /// Finishes into a ready-to-run [`FleetSession`].
    pub fn session(self) -> FleetSession {
        let deadline = self.deadline;
        let retry = self.retry.clone();
        FleetSession {
            cfg: self.build(),
            deadline,
            retry,
            cancel: CancelToken::new(),
        }
    }
}

/// Result of one tenant's tuning pass inside a fleet run.
///
/// `#[non_exhaustive]`: read-only for callers.
#[non_exhaustive]
#[derive(Debug)]
pub struct TenantOutcome {
    pub id: String,
    /// Storage budget (bytes) this tenant was allocated.
    pub budget: u64,
    /// Cross-shard seed orders injected into this tenant's candidate
    /// generation (0 for hot tenants and with seeding disabled).
    pub seeded_orders: usize,
    /// The tenant session's outcome; an `Err` is isolated to this tenant.
    pub result: Result<AimOutcome, AimError>,
    /// The tenant session's decision ledger, when the base config records
    /// one.
    pub ledger_json: Option<String>,
    /// Wall-clock time this tenant's tune slot took (probe time excluded).
    pub elapsed: Duration,
}

/// Outcome of one fleet pass.
///
/// `#[non_exhaustive]`: read-only for callers; new observability fields
/// may appear in any release.
#[non_exhaustive]
#[derive(Debug, Default)]
pub struct FleetOutcome {
    /// Per-tenant outcomes, in input order.
    pub tenants: Vec<TenantOutcome>,
    /// Tenants whose knapsack allocation exceeded the uniform share.
    pub budget_transfers: u64,
    /// Bytes of budget moved beyond the uniform split, summed over the
    /// transferring tenants.
    pub transferred_bytes: u64,
    /// Total cross-shard seed orders injected across cold tenants.
    pub seeded_orders: u64,
    /// Wall-clock time of the fleet pass.
    pub elapsed: Duration,
    /// The straggler: the tenant whose tune slot took longest, with its
    /// wall time. Fleet wall clock is gated by this tenant, so the skew
    /// between it and the mean is the fleet's parallelism headroom.
    pub slowest_tenant: Option<(String, Duration)>,
}

impl FleetOutcome {
    /// Tenants whose pass completed.
    pub fn tuned(&self) -> usize {
        self.tenants.iter().filter(|t| t.result.is_ok()).count()
    }

    /// Tenants whose pass failed (fault isolated; fleet continued).
    pub fn failed(&self) -> usize {
        self.tenants.len() - self.tuned()
    }
}

/// What the probe phase learned about one tenant.
struct Probe {
    /// The ranked candidates, or why the tenant could not be probed.
    ranked: Result<Vec<RankedCandidate>, AimError>,
    /// Existing secondary-index footprint (shard-multiplied).
    used: u64,
    /// Window CPU — the hot/cold signal.
    hotness: f64,
}

/// The fleet driver. Built via [`FleetConfig::builder`]; one
/// [`FleetSession::run`] call executes one fleet pass and may be repeated
/// (continuous fleet tuning reuses one session per window).
#[derive(Debug, Clone)]
pub struct FleetSession {
    cfg: FleetConfig,
    deadline: Option<Duration>,
    retry: RetryPolicy,
    cancel: CancelToken,
}

impl FleetSession {
    /// The fleet configuration.
    pub fn config(&self) -> &FleetConfig {
        &self.cfg
    }

    /// A shared handle cancelling the fleet pass and every in-flight
    /// tenant session (they all share this token).
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Runs one fleet pass over `tenants`. Per-tenant failures are
    /// isolated into their [`TenantOutcome`]; the fleet itself always
    /// returns an outcome.
    pub fn run(&self, tenants: &mut [Tenant]) -> FleetOutcome {
        let root = tel::span("fleet.run");
        let started = Instant::now();
        let fleet_deadline = self.deadline.map(|d| started + d);
        let mut outcome = FleetOutcome::default();
        if tenants.is_empty() {
            outcome.elapsed = root.elapsed();
            return outcome;
        }

        if tenants.len() == 1 {
            // Degenerate fleet of one: no probe, no allocation — the
            // tenant session *is* the pass, bit-identical to a bare
            // `TuningSession` on the same inputs.
            let t = &mut tenants[0];
            let out = self.tune_tenant(t, self.cfg.fleet_budget, &[], fleet_deadline, false);
            outcome.slowest_tenant = Some((out.id.clone(), out.elapsed));
            outcome.tenants.push(out);
            outcome.elapsed = root.elapsed();
            return outcome;
        }

        let workers = effective_workers(self.cfg.fleet_workers, tenants.len());
        let ctl = RunCtl::new(Some(self.cancel.clone()), fleet_deadline);

        // Phase 1: probe every tenant's candidate economics.
        let probes: Vec<Probe> = {
            let _s = tel::span("fleet.probe");
            run_pool(workers, &mut *tenants, |t| {
                let _scope = tel::scope_phase(&t.id, "probe");
                self.probe_tenant(t, &ctl)
            })
        };
        tel::timeseries::tick("fleet.probe");

        // Phase 2: split the budget across tenants.
        let (budgets, transfers, transferred) = {
            let _s = tel::span("fleet.allocate");
            allocate_budgets(&self.cfg, &probes)
        };
        outcome.budget_transfers = transfers;
        outcome.transferred_bytes = transferred;
        tel::metrics::FLEET_BUDGET_TRANSFERS.add(transfers);

        // Hot tenants (top quartile by window CPU) offer their top-ranked
        // partial orders as seeds to everyone else.
        let seeds = if self.cfg.cross_shard_seeding {
            collect_seeds(&probes, self.cfg.max_seed_orders)
        } else {
            Vec::new()
        };
        let hot = hot_tenants(&probes);

        // Phase 3: tune every tenant under its allocation, on the pool.
        let tuned: Vec<TenantOutcome> = {
            let _s = tel::span("fleet.tune");
            run_pool(workers, tenants.iter_mut().enumerate(), |(i, t)| {
                if let Err(err) = &probes[i].ranked {
                    // The probe already failed this tenant; don't spend
                    // budgeted tune time re-failing it — account for it.
                    let _scope = tel::scope_phase(&t.id, "tune");
                    let failed = Err(err.clone());
                    return self.tenant_outcome(t, budgets[i], 0, failed, None, Instant::now());
                }
                let tenant_seeds: &[(String, PartialOrder)] =
                    if hot.contains(&i) { &[] } else { &seeds };
                self.tune_tenant(t, budgets[i], tenant_seeds, fleet_deadline, true)
            })
        };
        for t in &tuned {
            outcome.seeded_orders += t.seeded_orders as u64;
        }
        tel::metrics::FLEET_SEEDED_ORDERS.add(outcome.seeded_orders);
        outcome.slowest_tenant = tuned
            .iter()
            .max_by_key(|t| t.elapsed)
            .map(|t| (t.id.clone(), t.elapsed));
        outcome.tenants = tuned;
        tel::timeseries::tick("fleet.tune");

        if tel::is_enabled() {
            tel::event(
                tel::EventKind::TuningPass,
                "fleet",
                format!(
                    "{} tenants tuned, {} failed, {} budget transfers ({} bytes), {} seed orders",
                    outcome.tuned(),
                    outcome.failed(),
                    outcome.budget_transfers,
                    outcome.transferred_bytes,
                    outcome.seeded_orders,
                ),
            );
        }
        outcome.elapsed = root.elapsed();
        outcome
    }

    /// Runs one tenant's session under `budget`, with the fleet deadline,
    /// retry policy and shared cancel token threaded in. `multi` marks a
    /// multi-tenant pass (per-session worker fan-out is disabled so the
    /// fleet pool is the only parallelism); the degenerate fleet of one
    /// passes `false` and leaves the base worker settings untouched — a
    /// requirement of its bit-identity contract with a bare session.
    fn tune_tenant(
        &self,
        tenant: &mut Tenant,
        budget: u64,
        seeds: &[(String, PartialOrder)],
        fleet_deadline: Option<Instant>,
        multi: bool,
    ) -> TenantOutcome {
        // The whole tune slot runs scoped to this tenant: every instrument
        // below (and inside the session, via `tenant_label`) records a
        // `tenant="…"` labeled twin alongside the flat fleet totals.
        let _scope = tel::scope_phase(&tenant.id, "tune");
        let slot_started = Instant::now();
        let mut cfg = self.cfg.base.clone();
        cfg.storage_budget = budget;
        cfg.tenant_label = Some(tenant.id.clone());
        if tenant.profile.is_some() {
            cfg.sharding = tenant.profile.clone();
        }
        let seeded_orders = seeds.len();
        if !seeds.is_empty() {
            cfg.candidate_gen.seed_orders = seeds.to_vec();
        }
        if multi {
            // The fleet pool is the parallelism; nested per-session worker
            // fan-out would oversubscribe the host at fleet scale.
            cfg.workers = 1;
            cfg.validation.workers = 1;
        }
        let session = TuningSession::new(
            cfg,
            fleet_deadline.map(|d| d.saturating_duration_since(Instant::now())),
            self.retry.clone(),
            self.cancel.clone(),
        );
        let result = session.run(&mut tenant.db, &tenant.monitor);
        let ledger_json = session.config().record_ledger.then(|| session.ledger_json());
        self.tenant_outcome(tenant, budget, seeded_orders, result, ledger_json, slot_started)
    }

    /// The one place a tenant's slot is accounted for, whichever phase
    /// ended it: tuned/failed counters, the isolation event, the per-tenant
    /// rollups behind `/fleet`. Runs under the tenant's telemetry scope.
    fn tenant_outcome(
        &self,
        tenant: &Tenant,
        budget: u64,
        seeded_orders: usize,
        result: Result<AimOutcome, AimError>,
        ledger_json: Option<String>,
        slot_started: Instant,
    ) -> TenantOutcome {
        match &result {
            Ok(_) => tel::metrics::FLEET_SHARDS_TUNED.incr(),
            Err(e) => {
                tel::metrics::FLEET_TENANT_FAILURES.incr();
                if tel::is_enabled() {
                    tel::event(
                        tel::EventKind::PassAborted,
                        &tenant.id,
                        format!("tenant isolated from fleet: {e}"),
                    );
                }
            }
        }
        let elapsed = slot_started.elapsed();
        // Wall time as a labeled histogram (straggler skew), granted vs
        // used budget as labeled gauges.
        tel::metrics::histogram_record("fleet.tenant_duration", elapsed.as_secs_f64() * 1e3);
        tel::metrics::gauge_set(
            "fleet.budget_granted_bytes",
            budget.min(i64::MAX as u64) as i64,
        );
        tel::metrics::gauge_set(
            "fleet.budget_used_bytes",
            tenant
                .db
                .total_secondary_index_bytes()
                .min(i64::MAX as u64) as i64,
        );
        TenantOutcome {
            id: tenant.id.clone(),
            budget,
            seeded_orders,
            result,
            ledger_json,
            elapsed,
        }
    }

    /// Probes one tenant: the session's read-only half (selection →
    /// candidates → ranking → sharding re-price) with one ranking worker,
    /// under the fleet's retry policy. Materializes nothing, reports to no
    /// ledger.
    fn probe_tenant(&self, tenant: &mut Tenant, ctl: &RunCtl) -> Probe {
        let base = &self.cfg.base;
        let profile = tenant.profile.as_ref().or(base.sharding.as_ref());
        let shard_mult = profile.map_or(1, |p| p.shard_count);
        let planner = PassPlanner {
            candidate_gen: &base.candidate_gen,
            sharding: profile,
            workers: 1,
            cost_model: &aim_exec::CostModel::default(),
            retry: &self.retry,
            ctl,
            decisions: &Decisions::none(),
        };
        let planned = planner.plan_observed(
            &mut tenant.db,
            &tenant.monitor,
            &base.selection,
            &mut AimOutcome::default(),
        );
        Probe {
            ranked: planned.map(|(_, ranked)| ranked),
            used: tenant.db.total_secondary_index_bytes().saturating_mul(shard_mult),
            hotness: tenant.monitor.total_cpu(),
        }
    }
}

/// Splits the fleet budget per [`BudgetAllocation`]. Returns per-tenant
/// absolute budgets (existing footprint + allocation), the number of
/// tenants lifted above the uniform share, and the bytes moved to them.
fn allocate_budgets(cfg: &FleetConfig, probes: &[Probe]) -> (Vec<u64>, u64, u64) {
    let n = probes.len() as u64;
    // Unconstrained fleet: everyone is unconstrained; nothing to split.
    if cfg.fleet_budget == u64::MAX {
        return (vec![u64::MAX; probes.len()], 0, 0);
    }
    let uniform_share = cfg.fleet_budget / n.max(1);
    if cfg.allocation == BudgetAllocation::Uniform {
        return (vec![uniform_share; probes.len()], 0, 0);
    }

    // Global greedy knapsack in utility-density order over every probed
    // candidate, spending only the budget not already occupied by existing
    // indexes. Ties break on (tenant, candidate) input order so the split
    // is deterministic.
    let total_used: u64 = probes.iter().map(|p| p.used).sum();
    let mut remaining = cfg.fleet_budget.saturating_sub(total_used);
    let mut items: Vec<(f64, usize, usize, u64)> = Vec::new();
    for (ti, p) in probes.iter().enumerate() {
        for (ci, r) in p.ranked.iter().flatten().enumerate() {
            if r.utility() > 0.0 {
                items.push((r.density(), ti, ci, r.size_bytes));
            }
        }
    }
    items.sort_by(|a, b| {
        b.0.total_cmp(&a.0)
            .then_with(|| a.1.cmp(&b.1))
            .then_with(|| a.2.cmp(&b.2))
    });
    let mut alloc = vec![0u64; probes.len()];
    for (_, ti, _, size) in items {
        if size <= remaining {
            alloc[ti] += size;
            remaining -= size;
        }
    }
    let budgets: Vec<u64> = probes
        .iter()
        .zip(&alloc)
        .map(|(p, a)| p.used.saturating_add(*a))
        .collect();
    let mut transfers = 0u64;
    let mut transferred = 0u64;
    for (b, a) in budgets.iter().zip(&alloc) {
        if *a > 0 && *b > uniform_share {
            transfers += 1;
            transferred += b - uniform_share;
        }
    }
    (budgets, transfers, transferred)
}

/// Indices of the hot tenants: the top quartile (at least one) by window
/// CPU, excluding tenants with no traffic at all.
fn hot_tenants(probes: &[Probe]) -> BTreeSet<usize> {
    let mut by_heat: Vec<(usize, f64)> = probes
        .iter()
        .enumerate()
        .filter(|(_, p)| p.hotness > 0.0)
        .map(|(i, p)| (i, p.hotness))
        .collect();
    by_heat.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    let take = (probes.len() / 4).max(1);
    by_heat.into_iter().take(take).map(|(i, _)| i).collect()
}

/// The seed pool: each hot tenant's top-ranked candidate partial orders
/// (post sharding re-price, so the order reflects fleet economics),
/// deduplicated across tenants.
fn collect_seeds(probes: &[Probe], max_per_tenant: usize) -> Vec<(String, PartialOrder)> {
    let hot = hot_tenants(probes);
    let mut seen: BTreeSet<(String, PartialOrder)> = BTreeSet::new();
    for i in &hot {
        for r in probes[*i].ranked.iter().flatten().take(max_per_tenant) {
            seen.insert((r.candidate.table.clone(), r.candidate.po.clone()));
        }
    }
    seen.into_iter().collect()
}

/// Runs `f` over `items` on `workers` scoped threads, preserving input
/// order in the result. Items are handed out front-to-back, so with one
/// worker execution order equals input order (deterministic fault
/// targeting in the chaos suite relies on this).
fn run_pool<T, R, F>(workers: usize, items: impl IntoIterator<Item = T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let queue: Mutex<VecDeque<(usize, T)>> =
        Mutex::new(items.into_iter().enumerate().collect());
    let n = queue.lock().unwrap_or_else(|e| e.into_inner()).len();
    let slots: Mutex<Vec<Option<R>>> =
        Mutex::new((0..n).map(|_| None).collect());
    let workers = workers.clamp(1, n.max(1));
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let item = queue.lock().unwrap_or_else(|e| e.into_inner()).pop_front();
                let Some((i, item)) = item else { break };
                let r = f(item);
                slots.lock().unwrap_or_else(|e| e.into_inner())[i] = Some(r);
            });
        }
    });
    slots
        .into_inner()
        .unwrap_or_else(|e| e.into_inner())
        .into_iter()
        .map(|r| r.expect("pool worker filled every slot"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use aim_exec::Engine;
    use aim_monitor::SelectionConfig;
    use aim_sql::parse_statement;
    use aim_storage::{ColumnDef, ColumnType, IoStats, TableSchema, Value};

    fn tenant_db(rows: i64) -> Database {
        let mut db = Database::new();
        db.create_table(
            TableSchema::new(
                "events",
                vec![
                    ColumnDef::new("id", ColumnType::Int),
                    ColumnDef::new("user_id", ColumnType::Int),
                    ColumnDef::new("kind", ColumnType::Int),
                ],
                &["id"],
            )
            .unwrap(),
        )
        .unwrap();
        let mut io = IoStats::new();
        for i in 0..rows {
            db.table_mut("events")
                .unwrap()
                .insert(
                    vec![Value::Int(i), Value::Int(i % 50), Value::Int(i % 7)],
                    &mut io,
                )
                .unwrap();
        }
        db.analyze_all();
        db
    }

    fn observe(t: &mut Tenant, sql: &str, times: usize) {
        let engine = Engine::new();
        let stmt = parse_statement(sql).unwrap();
        for _ in 0..times {
            let out = engine.execute(&mut t.db, &stmt).unwrap();
            t.monitor.record(&stmt, &out);
        }
    }

    fn quick_base() -> AimConfig {
        AimConfig::builder()
            .selection(SelectionConfig {
                min_executions: 1,
                min_benefit: 0.0,
                max_queries: 50,
                include_dml: true,
            })
            .build()
    }

    #[test]
    fn fleet_budget_defaults_to_base_budget() {
        let cfg = FleetConfig::builder()
            .base(AimConfig::builder().storage_budget(1234).build())
            .build();
        assert_eq!(cfg.fleet_budget, 1234);
        let cfg = FleetConfig::builder()
            .base(AimConfig::builder().storage_budget(1234).build())
            .fleet_budget(99)
            .build();
        assert_eq!(cfg.fleet_budget, 99);
    }

    #[test]
    fn empty_fleet_is_a_noop() {
        let fleet = FleetConfig::builder().base(quick_base()).session();
        let out = fleet.run(&mut []);
        assert!(out.tenants.is_empty());
        assert_eq!(out.tuned(), 0);
        assert_eq!(out.failed(), 0);
    }

    #[test]
    fn two_tenant_fleet_tunes_both() {
        let mut tenants = vec![
            Tenant::new("a", tenant_db(3000)),
            Tenant::new("b", tenant_db(2000)),
        ];
        observe(&mut tenants[0], "SELECT id FROM events WHERE user_id = 3", 20);
        observe(&mut tenants[1], "SELECT id FROM events WHERE user_id = 9", 20);
        let fleet = FleetConfig::builder()
            .base(quick_base())
            .fleet_workers(2)
            .session();
        let out = fleet.run(&mut tenants);
        assert_eq!(out.tuned(), 2, "{:?}", out.tenants);
        for (t, o) in tenants.iter().zip(&out.tenants) {
            assert_eq!(t.id, o.id);
            assert!(!o.result.as_ref().unwrap().created.is_empty());
        }
        // The straggler is one of the tenants, and its wall time is the
        // max over the per-tenant slots.
        let (slow_id, slow_elapsed) = out.slowest_tenant.clone().unwrap();
        assert!(out.tenants.iter().any(|t| t.id == slow_id));
        assert!(out.tenants.iter().all(|t| t.elapsed <= slow_elapsed));
        assert!(!tenants[0].db.all_indexes().is_empty());
        assert!(!tenants[1].db.all_indexes().is_empty());
    }

    #[test]
    fn uniform_allocation_splits_evenly() {
        let probes = vec![
            Probe { ranked: Ok(Vec::new()), used: 0, hotness: 1.0 },
            Probe { ranked: Ok(Vec::new()), used: 0, hotness: 2.0 },
        ];
        let cfg = FleetConfig::builder()
            .base(quick_base())
            .fleet_budget(1000)
            .allocation(BudgetAllocation::Uniform)
            .build();
        let (budgets, transfers, moved) = allocate_budgets(&cfg, &probes);
        assert_eq!(budgets, vec![500, 500]);
        assert_eq!(transfers, 0);
        assert_eq!(moved, 0);
    }

    #[test]
    fn knapsack_allocation_follows_density() {
        use crate::candidates::CandidateIndex;
        use aim_sql::normalize::QueryFingerprint;
        fn cand(benefit: f64, size: u64) -> RankedCandidate {
            RankedCandidate {
                candidate: CandidateIndex {
                    table: "t".into(),
                    columns: vec!["c".into()],
                    po: PartialOrder::chain(["c".to_string()]).unwrap(),
                    sources: BTreeSet::new(),
                },
                size_bytes: size,
                benefit,
                maintenance: 0.0,
                benefiting_queries: vec![(QueryFingerprint(1), benefit)],
            }
        }
        // Tenant 0's candidate is 10× denser; budget only fits one.
        let probes = vec![
            Probe { ranked: Ok(vec![cand(1000.0, 400)]), used: 0, hotness: 5.0 },
            Probe { ranked: Ok(vec![cand(100.0, 400)]), used: 0, hotness: 1.0 },
        ];
        let cfg = FleetConfig::builder()
            .base(quick_base())
            .fleet_budget(600)
            .allocation(BudgetAllocation::Knapsack)
            .build();
        let (budgets, transfers, moved) = allocate_budgets(&cfg, &probes);
        assert_eq!(budgets[0], 400, "dense tenant funded past its 300-byte share");
        assert_eq!(budgets[1], 0);
        assert_eq!(transfers, 1);
        assert_eq!(moved, 100);
    }

    #[test]
    fn hot_tenants_are_top_quartile_with_traffic() {
        let mk = |h: f64| Probe { ranked: Ok(Vec::new()), used: 0, hotness: h };
        let probes = vec![mk(1.0), mk(9.0), mk(0.0), mk(3.0), mk(2.0), mk(0.5), mk(4.0), mk(0.1)];
        let hot = hot_tenants(&probes);
        assert_eq!(hot, BTreeSet::from([1, 6])); // 8/4 = 2 hottest (9.0, 4.0)
        // All-idle fleet: nobody is hot.
        let idle = vec![mk(0.0), mk(0.0)];
        assert!(hot_tenants(&idle).is_empty());
    }

    #[test]
    fn run_pool_preserves_order_and_uses_all_items() {
        let items: Vec<usize> = (0..37).collect();
        let out = run_pool(4, items, |i| i * 2);
        assert_eq!(out, (0..37).map(|i| i * 2).collect::<Vec<_>>());
        let out = run_pool(1, vec![5usize, 6, 7], |i| i + 1);
        assert_eq!(out, vec![6, 7, 8]);
    }
}
