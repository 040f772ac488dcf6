//! Zipf-skewed tenant fleets for fleet-scale tuning benchmarks.
//!
//! Real fleets are skewed: a handful of tenants hold most of the data and
//! serve most of the traffic, while a long tail is nearly idle. This
//! generator builds N tenants over a shared `events` schema whose row
//! counts *and* per-query execution counts follow a Zipf law with
//! exponent `s` — tenant rank `r` gets `base_rows / (r+1)^s` rows — the
//! shape where fleet-level budget allocation visibly beats a uniform
//! per-shard split (hot tenants can absorb far more budget than their
//! uniform share buys).
//!
//! Hot tenants (the leading ranks) additionally run a wider composite
//! query, so the head and the tail want different indexes. Every 7th
//! tenant carries a [`ShardingProfile`] to exercise per-tenant sharding
//! economics (§VIII-b) inside a fleet run.

use crate::rng::{Rng, SeedableRng, StdRng};
use aim_core::fleet::Tenant;
use aim_core::sharding::ShardingProfile;
use aim_core::WeightedQuery;
use aim_exec::Engine;
use aim_sql::parse_statement;
use aim_storage::{ColumnDef, ColumnType, Database, IoStats, TableSchema, Value};

/// Parameters of a generated fleet.
#[derive(Debug, Clone)]
pub struct FleetSpec {
    /// Number of tenants.
    pub tenants: usize,
    /// Zipf exponent for tenant sizes and traffic (`1.0` ≈ classic skew;
    /// larger = steeper head).
    pub zipf_s: f64,
    /// PRNG seed; the same spec generates the same fleet bit-for-bit.
    pub seed: u64,
    /// Rows for the rank-0 (hottest) tenant.
    pub base_rows: i64,
    /// Row floor for tail tenants.
    pub min_rows: i64,
    /// Executions per query shape on the rank-0 tenant; scaled down the
    /// ranks by the same Zipf weight.
    pub executions_hot: usize,
}

impl Default for FleetSpec {
    fn default() -> Self {
        Self {
            tenants: 16,
            zipf_s: 1.0,
            seed: 42,
            base_rows: 4000,
            min_rows: 60,
            executions_hot: 12,
        }
    }
}

/// One generated tenant plus the weighted query set evaluating it.
#[derive(Debug, Clone)]
pub struct TenantWorkload {
    /// The tenant (database + populated monitor + optional profile),
    /// ready for [`FleetSession::run`](aim_core::fleet::FleetSession::run).
    pub tenant: Tenant,
    /// The tenant's SELECT shapes with their execution weights — input to
    /// [`workload_cost`](aim_core::advisor::workload_cost) when scoring a
    /// tuning outcome.
    pub weighted: Vec<WeightedQuery>,
    /// Rows in the tenant's `events` table.
    pub rows: i64,
}

/// Generates the fleet: every tenant's database is populated, its queries
/// are actually executed, and its monitor holds the observed window.
pub fn generate_fleet(spec: &FleetSpec) -> Vec<TenantWorkload> {
    let engine = Engine::new();
    let mut out = Vec::with_capacity(spec.tenants);
    for rank in 0..spec.tenants {
        let weight = 1.0 / ((rank + 1) as f64).powf(spec.zipf_s);
        let rows = ((spec.base_rows as f64 * weight) as i64).max(spec.min_rows);
        let mut rng = StdRng::seed_from_u64(spec.seed ^ (rank as u64).wrapping_mul(0x9E37_79B9));
        let db = tenant_db(rows, &mut rng);
        let mut tenant = Tenant::new(format!("tenant-{rank:04}"), db);
        if rank % 7 == 6 {
            tenant = tenant.with_profile(ShardingProfile::new(2).with_default_hit_fraction(0.75));
        }

        let executions = ((spec.executions_hot as f64 * weight).round() as usize).max(2);
        let hot = rank < (spec.tenants / 4).max(1);
        let user = rng.gen_range(0..user_ndv(rows));
        let kind = rng.gen_range(0..8i64);
        let region = rng.gen_range(0..12i64);
        let mut shapes: Vec<String> = vec![
            format!("SELECT id FROM events WHERE user_id = {user}"),
            format!("SELECT id FROM events WHERE kind = {kind} AND region = {region}"),
        ];
        if hot {
            // The head of the fleet also runs the wide composite shape.
            shapes.push(format!(
                "SELECT id, amount FROM events WHERE user_id = {user} AND kind = {kind}"
            ));
        }
        shapes.push(format!(
            "UPDATE events SET amount = {} WHERE id = {}",
            rng.gen_range(0..1000i64),
            rng.gen_range(0..rows),
        ));

        let mut weighted = Vec::new();
        for sql in &shapes {
            let stmt = parse_statement(sql).expect("generated SQL parses");
            for _ in 0..executions {
                let res = engine
                    .execute(&mut tenant.db, &stmt)
                    .expect("generated SQL executes");
                tenant.monitor.record(&stmt, &res);
            }
            if !stmt.is_dml() {
                weighted.push(WeightedQuery::new(stmt, executions as f64));
            }
        }
        out.push(TenantWorkload {
            tenant,
            weighted,
            rows,
        });
    }
    out
}

/// Distinct `user_id` values for a tenant of `rows` rows: enough that a
/// point lookup is selective (and an index on it worth building).
fn user_ndv(rows: i64) -> i64 {
    (rows / 20).max(10)
}

/// One tenant's `events` table, populated and analyzed.
fn tenant_db(rows: i64, rng: &mut StdRng) -> Database {
    let mut db = Database::new();
    db.create_table(
        TableSchema::new(
            "events",
            vec![
                ColumnDef::new("id", ColumnType::Int),
                ColumnDef::new("user_id", ColumnType::Int),
                ColumnDef::new("kind", ColumnType::Int),
                ColumnDef::new("region", ColumnType::Int),
                ColumnDef::new("amount", ColumnType::Int),
            ],
            &["id"],
        )
        .expect("valid schema"),
    )
    .expect("fresh database");
    let ndv = user_ndv(rows);
    let mut io = IoStats::new();
    for i in 0..rows {
        db.table_mut("events")
            .unwrap()
            .insert(
                vec![
                    Value::Int(i),
                    Value::Int(rng.gen_range(0..ndv)),
                    Value::Int(i % 8),
                    Value::Int(i % 12),
                    Value::Int(rng.gen_range(0..1000i64)),
                ],
                &mut io,
            )
            .expect("insert");
    }
    db.analyze_all();
    db
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_sizes_follow_zipf() {
        let spec = FleetSpec {
            tenants: 8,
            ..FleetSpec::default()
        };
        let fleet = generate_fleet(&spec);
        assert_eq!(fleet.len(), 8);
        assert_eq!(fleet[0].rows, spec.base_rows);
        for w in fleet.windows(2) {
            assert!(w[0].rows >= w[1].rows, "sizes must be non-increasing");
        }
        assert!(fleet[7].rows < fleet[0].rows / 4);
    }

    #[test]
    fn tenants_have_observed_windows_and_weighted_queries() {
        let fleet = generate_fleet(&FleetSpec {
            tenants: 9,
            ..FleetSpec::default()
        });
        for t in &fleet {
            assert!(!t.tenant.monitor.is_empty(), "{} saw traffic", t.tenant.id);
            assert!(!t.weighted.is_empty());
            // DML is observed (for maintenance costing) but not scored.
            assert!(t.weighted.iter().all(|q| !q.statement.is_dml()));
        }
        // Hot head runs the wide composite; the tail doesn't.
        assert!(fleet[0].tenant.monitor.len() > fleet[8].tenant.monitor.len());
        // Every 7th tenant is sharded.
        assert!(fleet[6].tenant.profile.is_some());
        assert!(fleet[0].tenant.profile.is_none());
    }

    #[test]
    fn generation_is_deterministic() {
        let spec = FleetSpec {
            tenants: 3,
            ..FleetSpec::default()
        };
        let a = generate_fleet(&spec);
        let b = generate_fleet(&spec);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.rows, y.rows);
            assert_eq!(x.tenant.monitor.len(), y.tenant.monitor.len());
            assert!((x.tenant.monitor.total_cpu() - y.tenant.monitor.total_cpu()).abs() < 1e-9);
        }
    }
}
