//! Figure 5: per-query processing costs for TPC-H under a fixed storage
//! budget, comparing the configurations chosen by AIM, DTA and Extend.
//!
//! The paper fixes a 15 GB budget at SF 10 (~40% of the full configuration
//! size); we use the same *fraction* at our scale. Both optimizer-estimated
//! and measured (executed) costs are reported per query — §VI-B notes that
//! for Q21 the optimizer over-estimated AIM's covering-index plan while
//! actual execution costs were similar, which only a measured column can
//! show.

use crate::fig4::{Bed, Benchmark};
use crate::Scale;
use aim_baselines::{Dta, Extend};
use aim_core::{defs_to_config, IndexAdvisor};
use aim_exec::{estimate_statement_cost, CostModel, Engine};
use aim_storage::IoStats;

/// The advisors compared, `none` being the unindexed database.
pub const ADVISORS: [&str; 4] = ["none", "AIM", "DTA", "Extend"];

/// One query's cost under one advisor's configuration.
#[derive(Debug, Clone)]
pub struct Row {
    /// `Q1`–`Q22`.
    pub query: String,
    pub advisor: &'static str,
    /// Optimizer estimate under the hypothetical configuration.
    pub estimated_cost: f64,
    /// Executed cost with the configuration materialized on a copy.
    pub measured_cost: f64,
}

#[derive(Debug, Clone)]
pub struct PerQuery {
    /// 40% of AIM's unlimited configuration (the paper's 15 GB / SF10).
    pub budget_bytes: u64,
    /// One row per query per entry of [`ADVISORS`], advisor-major.
    pub rows: Vec<Row>,
}

impl PerQuery {
    /// `(estimated, measured)` cost of the whole workload under `advisor`.
    pub fn totals(&self, advisor: &str) -> (f64, f64) {
        self.rows
            .iter()
            .filter(|r| r.advisor == advisor)
            .fold((0.0, 0.0), |(e, m), r| {
                (e + r.estimated_cost, m + r.measured_cost)
            })
    }
}

/// TPC-H has one size (see `fig4`'s `Bed::build`), so both scales run the
/// same experiment.
pub fn run(scale: Scale) -> PerQuery {
    let bed = Bed::build(Benchmark::Tpch, scale);
    let (db, workload) = (&bed.db, &bed.workload);
    let labels: Vec<String> = aim_workloads::tpch::query_texts(17)
        .into_iter()
        .map(|(l, _)| l)
        .collect();
    let cm = CostModel::default();
    let budget_bytes = (bed.full_configuration_bytes() as f64 * 0.4) as u64;

    let configurations = [
        Vec::new(),
        bed.aim().recommend(db, workload, budget_bytes),
        Dta::new(bed.max_width).recommend(db, workload, budget_bytes),
        Extend::new(bed.max_width).recommend(db, workload, budget_bytes),
    ];
    let engine = Engine::new();
    let mut rows = Vec::new();
    for (advisor, defs) in ADVISORS.into_iter().zip(configurations) {
        let hypo = defs_to_config(db, &defs);
        // The configuration for real, on a copy, for the measured column.
        let mut materialized = db.clone();
        for d in defs {
            let _ = materialized.create_index(d, &mut IoStats::new());
        }
        materialized.analyze_all();
        for (query, wq) in labels.iter().cloned().zip(workload) {
            rows.push(Row {
                query,
                advisor,
                estimated_cost: estimate_statement_cost(db, &wq.statement, &hypo, &cm)
                    .unwrap_or(f64::NAN),
                measured_cost: engine
                    .execute(&mut materialized, &wq.statement)
                    .map_or(f64::NAN, |o| o.cost),
            });
        }
    }
    PerQuery { budget_bytes, rows }
}
