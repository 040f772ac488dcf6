//! Workload replay with simulated machine capacity.
//!
//! Figures 3 and 6 of the paper plot CPU% and throughput over time while
//! indexes are dropped and re-created. The replayer models a machine with a
//! fixed cost-unit capacity per tick: each tick executes a batch of queries
//! sampled from the workload mix, and reports
//!
//! * `cpu_pct`  — consumed cost units relative to capacity (capped at 100),
//! * `throughput` — completed queries per tick; when offered load exceeds
//!   capacity, completion degrades proportionally (a saturated machine).

use crate::rng::{Rng, SeedableRng, StdRng};
use aim_exec::Engine;
use aim_monitor::WorkloadMonitor;
use aim_sql::ast::Statement;
use aim_storage::Database;

/// One workload query shape with pre-instantiated parameter variants.
#[derive(Debug, Clone)]
pub struct QuerySpec {
    pub label: String,
    /// Relative execution frequency.
    pub weight: f64,
    /// Concrete instantiations cycled through during replay.
    pub variants: Vec<Statement>,
}

impl QuerySpec {
    pub fn new(label: impl Into<String>, weight: f64, variants: Vec<Statement>) -> Self {
        Self {
            label: label.into(),
            weight,
            variants,
        }
    }
}

/// One tick's observations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TickSample {
    /// Simulated CPU utilisation in percent (0–100).
    pub cpu_pct: f64,
    /// Queries completed this tick.
    pub throughput: f64,
    /// Raw cost units consumed.
    pub total_cost: f64,
    /// Statements executed.
    pub executed: usize,
}

/// Replays a weighted workload mix against a database.
pub struct Replayer {
    specs: Vec<QuerySpec>,
    cumulative: Vec<f64>,
    next_variant: Vec<usize>,
    rng: StdRng,
    pub engine: Engine,
}

impl Replayer {
    /// Builds a replayer over the given specs.
    pub fn new(specs: Vec<QuerySpec>, seed: u64) -> Self {
        let mut cumulative = Vec::with_capacity(specs.len());
        let mut acc = 0.0;
        for s in &specs {
            acc += s.weight.max(0.0);
            cumulative.push(acc);
        }
        let next_variant = vec![0; specs.len()];
        Self {
            specs,
            cumulative,
            next_variant,
            rng: StdRng::seed_from_u64(seed),
            engine: Engine::new(),
        }
    }

    /// Samples the next statement according to the weight mix.
    fn next_statement(&mut self) -> Option<(usize, Statement)> {
        let total = *self.cumulative.last()?;
        if total <= 0.0 {
            return None;
        }
        let x: f64 = self.rng.gen_range(0.0..total);
        let idx = self.cumulative.partition_point(|&c| c <= x);
        let idx = idx.min(self.specs.len() - 1);
        let spec = &self.specs[idx];
        if spec.variants.is_empty() {
            return None;
        }
        let v = self.next_variant[idx] % spec.variants.len();
        self.next_variant[idx] += 1;
        Some((idx, spec.variants[v].clone()))
    }

    /// Executes `offered` sampled statements against `db`, recording into
    /// `monitor` when provided. `capacity` is the machine's cost-unit
    /// budget for the tick.
    pub fn run_tick(
        &mut self,
        db: &mut Database,
        monitor: Option<&mut WorkloadMonitor>,
        offered: usize,
        capacity: f64,
    ) -> TickSample {
        let mut total_cost = 0.0;
        let mut executed = 0usize;
        let mut mon = monitor;
        for _ in 0..offered {
            let Some((_, stmt)) = self.next_statement() else {
                break;
            };
            match self.engine.execute(db, &stmt) {
                Ok(out) => {
                    total_cost += out.cost;
                    executed += 1;
                    if let Some(m) = mon.as_deref_mut() {
                        m.record(&stmt, &out);
                    }
                }
                Err(_) => {
                    // Replay errors (e.g. duplicate-key on repeated DML
                    // variants) consume no budget and complete no query.
                }
            }
        }
        let cpu_pct = if capacity > 0.0 {
            (total_cost / capacity * 100.0).min(100.0)
        } else {
            100.0
        };
        // Saturation: past capacity, completions degrade proportionally.
        let throughput = if total_cost <= capacity || total_cost <= 0.0 {
            executed as f64
        } else {
            executed as f64 * (capacity / total_cost)
        };
        TickSample {
            cpu_pct,
            throughput,
            total_cost,
            executed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aim_sql::parse_statement;
    use aim_storage::{ColumnDef, ColumnType, IoStats, TableSchema, Value};

    fn db() -> Database {
        let mut db = Database::new();
        db.create_table(
            TableSchema::new(
                "t",
                vec![
                    ColumnDef::new("id", ColumnType::Int),
                    ColumnDef::new("a", ColumnType::Int),
                ],
                &["id"],
            )
            .unwrap(),
        )
        .unwrap();
        let mut io = IoStats::new();
        for i in 0..2000 {
            db.table_mut("t")
                .unwrap()
                .insert(vec![Value::Int(i), Value::Int(i % 20)], &mut io)
                .unwrap();
        }
        db.analyze_all();
        db
    }

    fn spec(label: &str, weight: f64, sqls: &[&str]) -> QuerySpec {
        QuerySpec::new(
            label,
            weight,
            sqls.iter().map(|s| parse_statement(s).unwrap()).collect(),
        )
    }

    #[test]
    fn tick_reports_cpu_and_throughput() {
        let mut db = db();
        let mut r = Replayer::new(
            vec![spec("scan", 1.0, &["SELECT id FROM t WHERE a = 3"])],
            7,
        );
        let sample = r.run_tick(&mut db, None, 10, 1e9);
        assert_eq!(sample.executed, 10);
        assert!(sample.cpu_pct > 0.0);
        assert_eq!(sample.throughput, 10.0);
    }

    #[test]
    fn saturation_caps_cpu_and_degrades_throughput() {
        let mut db = db();
        let mut r = Replayer::new(
            vec![spec("scan", 1.0, &["SELECT id FROM t WHERE a = 3"])],
            7,
        );
        let sample = r.run_tick(&mut db, None, 50, 1.0);
        assert_eq!(sample.cpu_pct, 100.0);
        assert!(sample.throughput < 50.0);
    }

    #[test]
    fn monitor_receives_executions() {
        let mut db = db();
        let mut r = Replayer::new(
            vec![
                spec("scan", 1.0, &["SELECT id FROM t WHERE a = 3"]),
                spec("point", 1.0, &["SELECT a FROM t WHERE id = 1"]),
            ],
            7,
        );
        let mut m = WorkloadMonitor::new();
        r.run_tick(&mut db, Some(&mut m), 40, 1e9);
        assert!(m.len() >= 2);
        let total: u64 = m.queries().map(|q| q.executions).sum();
        assert_eq!(total, 40);
    }

    #[test]
    fn weights_steer_the_mix() {
        let mut db = db();
        let mut r = Replayer::new(
            vec![
                spec("hot", 9.0, &["SELECT id FROM t WHERE a = 3"]),
                spec("cold", 1.0, &["SELECT a FROM t WHERE id = 1"]),
            ],
            7,
        );
        let mut m = WorkloadMonitor::new();
        r.run_tick(&mut db, Some(&mut m), 200, 1e9);
        let hot = m
            .queries()
            .find(|q| q.normalized_text.contains("a = ?"))
            .unwrap()
            .executions;
        assert!(hot > 140, "hot executions = {hot}");
    }

    #[test]
    fn variants_cycle() {
        let mut db = db();
        let mut r = Replayer::new(
            vec![spec(
                "scan",
                1.0,
                &[
                    "SELECT id FROM t WHERE a = 1",
                    "SELECT id FROM t WHERE a = 2",
                ],
            )],
            7,
        );
        let mut m = WorkloadMonitor::new();
        r.run_tick(&mut db, Some(&mut m), 10, 1e9);
        // Both variants share one fingerprint; executions accumulate.
        assert_eq!(m.len(), 1);
        assert_eq!(m.queries().next().unwrap().executions, 10);
    }

    #[test]
    fn failed_statements_do_not_count() {
        let mut db = db();
        let mut r = Replayer::new(
            vec![spec(
                "dup",
                1.0,
                &["INSERT INTO t (id, a) VALUES (1, 1)"], // duplicate PK
            )],
            7,
        );
        let sample = r.run_tick(&mut db, None, 5, 1e9);
        assert_eq!(sample.executed, 0);
        assert_eq!(sample.throughput, 0.0);
    }
}
