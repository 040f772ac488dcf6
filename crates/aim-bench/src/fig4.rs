//! Figure 4: estimated workload processing cost, advisor runtime and
//! optimizer calls vs. storage budget, for AIM / DTA / Extend on the
//! TPC-H-like, JOB-like and TPC-DS-like benchmarks.
//!
//! Matches §VI-B's setup: purely analytical comparison on what-if
//! (dataless) costing, maximum index width 4 for TPC-H and 3 for JOB and
//! TPC-DS, cost reported *relative to the unindexed workload cost* (Figure
//! 4a/4c), runtime in seconds plus what-if-call counts (Figure 4b/4d).

use crate::Scale;
use aim_baselines::{Dta, Extend};
use aim_core::{
    config_size, defs_to_config, workload_cost, AimAdvisor, IndexAdvisor, WeightedQuery,
};
use aim_exec::{HypoConfig, WhatIfCache};
use aim_storage::{Database, IndexDef};
use std::time::Instant;

/// The benchmark a sweep runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Benchmark {
    Tpch,
    Job,
    Tpcds,
}

impl Benchmark {
    /// `tpch`, `job` or `tpcds`.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "tpch" => Some(Benchmark::Tpch),
            "job" => Some(Benchmark::Job),
            "tpcds" => Some(Benchmark::Tpcds),
            _ => None,
        }
    }

    pub fn label(self) -> &'static str {
        match self {
            Benchmark::Tpch => "TPC-H",
            Benchmark::Job => "JOB",
            Benchmark::Tpcds => "TPC-DS",
        }
    }
}

/// A benchmark database with its weighted workload and §VI-B's width cap.
pub(crate) struct Bed {
    pub db: Database,
    pub workload: Vec<WeightedQuery>,
    pub max_width: usize,
}

impl Bed {
    pub fn build(benchmark: Benchmark, scale: Scale) -> Self {
        use aim_workloads::{job, tpcds, tpch};
        match benchmark {
            // One size for both scales: below SF 0.002 the smallest budgets
            // stop separating the advisors (Figure 4a's low-budget claim).
            Benchmark::Tpch => Bed {
                db: tpch::build_database(&tpch::TpchConfig {
                    scale: 0.002,
                    seed: 0xAA17,
                }),
                workload: tpch::weighted_workload(17),
                max_width: 4,
            },
            Benchmark::Job => Bed {
                db: job::build_database(&job::JobConfig {
                    titles: scale.pick(800, 2500),
                    seed: 0x10B,
                }),
                workload: job::weighted_workload(17),
                max_width: 3,
            },
            Benchmark::Tpcds => Bed {
                db: tpcds::build_database(&tpcds::TpcdsConfig {
                    sales_rows: scale.pick(2_000, 8_000),
                    seed: 0xD5,
                }),
                workload: tpcds::weighted_workload(17),
                max_width: 3,
            },
        }
    }

    /// Size of AIM's configuration under an unlimited budget: the unit
    /// budgets are expressed in.
    pub fn full_configuration_bytes(&self) -> u64 {
        let full = self.aim().recommend(&self.db, &self.workload, u64::MAX);
        config_size(&self.db, &full).max(1)
    }

    pub fn aim(&self) -> AimAdvisor {
        AimAdvisor::new(3, self.max_width)
    }
}

/// One advisor's recommendation at one budget.
#[derive(Debug, Clone)]
pub struct Row {
    pub advisor: &'static str,
    pub budget_bytes: u64,
    /// Estimated workload cost under the recommendation / unindexed cost.
    pub relative_cost: f64,
    /// Wall clock of `recommend` (printed, never asserted on).
    pub runtime_s: f64,
    /// What-if calls of the run: the questions the advisor put to the
    /// optimizer's what-if interface.
    pub whatif_calls: u64,
    pub indexes: usize,
}

/// A budget sweep over one benchmark.
#[derive(Debug, Clone)]
pub struct Sweep {
    pub benchmark: Benchmark,
    /// Estimated cost of the unindexed workload, in cost units.
    pub base_cost: f64,
    /// Three rows (AIM, DTA, Extend) per budget, budgets ascending.
    pub rows: Vec<Row>,
}

impl Sweep {
    /// The rows of one advisor, budgets ascending.
    pub fn of(&self, advisor: &str) -> Vec<&Row> {
        self.rows.iter().filter(|r| r.advisor == advisor).collect()
    }
}

/// Budget grids, as fractions of AIM's unlimited configuration.
const QUICK_FRACTIONS: &[f64] = &[0.1, 0.2, 0.35, 1.0];
const FULL_FRACTIONS: &[f64] = &[0.1, 0.2, 0.35, 0.5, 0.75, 1.0, 1.25];

/// Sweeps the budget grid with all three advisors.
pub fn run(benchmark: Benchmark, scale: Scale) -> Sweep {
    let bed = Bed::build(benchmark, scale);
    let (db, workload) = (&bed.db, &bed.workload);
    // Every recommendation is judged from one cache of the sweep's own.
    let judge = WhatIfCache::new();
    let base_cost = workload_cost(db, workload, &HypoConfig::none(), &judge);
    let full_size = bed.full_configuration_bytes();

    let mut rows = Vec::new();
    for &frac in scale.pick(QUICK_FRACTIONS, FULL_FRACTIONS) {
        let budget = (full_size as f64 * frac) as u64;
        let mut row = |advisor, defs: Vec<IndexDef>, started: Instant, whatif_calls| {
            let runtime_s = started.elapsed().as_secs_f64();
            let cost = workload_cost(db, workload, &defs_to_config(db, &defs), &judge);
            rows.push(Row {
                advisor,
                budget_bytes: budget,
                relative_cost: cost / base_cost,
                runtime_s,
                whatif_calls,
                indexes: defs.len(),
            });
        };

        // Each advisor counts the what-if calls of its run from a cache of
        // the run's own: AIM every question it asked (hits and misses; a
        // hit is a question its memo answered), DTA and Extend the questions
        // their evaluator's cache could not answer.
        let mut aim = bed.aim();
        let started = Instant::now();
        let defs = aim.recommend(db, workload, budget);
        row("AIM", defs, started, aim.last_whatif_calls);

        let mut dta = Dta::new(bed.max_width);
        let started = Instant::now();
        let defs = dta.recommend(db, workload, budget);
        row("DTA", defs, started, dta.last_whatif_calls);

        let mut ext = Extend::new(bed.max_width);
        let started = Instant::now();
        let defs = ext.recommend(db, workload, budget);
        row("Extend", defs, started, ext.last_whatif_calls);
    }
    Sweep {
        benchmark,
        base_cost,
        rows,
    }
}
