//! Extend (Schlosser, Kossmann, Boissier — ICDE 2019): recursive
//! width-extension, the academic state of the art the paper compares
//! against, and the "greedy incremental algorithm" (GIA) of Figure 6.
//!
//! The search maintains a selected configuration and repeatedly applies the
//! best of two moves, judged by what-if benefit per byte:
//!
//! * **add** a new single-attribute index, or
//! * **extend** an already selected index by appending one attribute.
//!
//! It stops when no move improves cost or the budget is exhausted. Because
//! every step widens by exactly one column, a combination of attributes
//! that only pays off jointly (the paper's three-sub-predicate join
//! example, §VI-C) is never discovered — the weakness Figure 6
//! demonstrates.

use crate::common::{indexable_columns, CostEvaluator};
use aim_core::{IndexAdvisor, WeightedQuery};
use aim_storage::{Database, IndexDef};
use std::collections::BTreeSet;

/// The Extend advisor. `max_width == 0` means unlimited.
#[derive(Debug, Clone)]
pub struct Extend {
    pub max_width: usize,
    /// Minimum relative improvement per step (Extend's ε).
    pub min_gain: f64,
    /// Number of what-if calls made by the last `recommend` run.
    pub last_whatif_calls: u64,
}

impl Extend {
    pub fn new(max_width: usize) -> Self {
        Self {
            max_width,
            min_gain: 1e-4,
            last_whatif_calls: 0,
        }
    }
}

impl Default for Extend {
    fn default() -> Self {
        Self::new(0)
    }
}

impl IndexAdvisor for Extend {
    fn name(&self) -> &str {
        "Extend"
    }

    fn recommend(
        &mut self,
        db: &Database,
        workload: &[WeightedQuery],
        budget_bytes: u64,
    ) -> Vec<IndexDef> {
        let _span = aim_telemetry::span("extend.recommend");
        let eval = CostEvaluator::new(db, workload);

        // Attribute pool per table: every indexable attribute of any
        // query, plus referenced (projection) columns — extensions over
        // those are how Extend discovers covering indexes.
        let mut attrs: Vec<(String, String)> = Vec::new();
        let mut seen: BTreeSet<(String, String)> = BTreeSet::new();
        for wq in workload {
            for (table, cols) in indexable_columns(db, &wq.statement) {
                for c in cols
                    .eq
                    .iter()
                    .chain(cols.range.iter())
                    .chain(cols.group.iter())
                    .chain(cols.order.iter())
                    .chain(cols.referenced.iter())
                {
                    if seen.insert((table.clone(), c.clone())) {
                        attrs.push((table.clone(), c.clone()));
                    }
                }
            }
        }

        let mut chosen: Vec<IndexDef> = Vec::new();
        let mut current_cost = eval.workload_cost(&chosen);

        loop {
            let used: u64 = eval.config_size(&chosen);
            let remaining = budget_bytes.saturating_sub(used);
            let mut best: Option<(f64, Vec<IndexDef>, f64)> = None; // (density, config, cost)

            // Move 1: add a new single-attribute index.
            for (table, col) in &attrs {
                if chosen
                    .iter()
                    .any(|d| d.table == *table && d.columns == vec![col.clone()])
                {
                    continue;
                }
                let cand = IndexDef::new(
                    format!("ext_{table}_{col}"),
                    table.clone(),
                    vec![col.clone()],
                );
                let size = eval.index_size(&cand);
                if size > remaining {
                    continue;
                }
                let mut trial = chosen.clone();
                trial.push(cand);
                let cost = eval.workload_cost(&trial);
                let gain = current_cost - cost;
                if gain > self.min_gain * current_cost.max(1.0) {
                    let density = gain / size.max(1) as f64;
                    if best.as_ref().is_none_or(|(d, _, _)| density > *d) {
                        best = Some((density, trial, cost));
                    }
                }
            }

            // Move 2: extend a selected index by one attribute.
            for i in 0..chosen.len() {
                if self.max_width > 0 && chosen[i].columns.len() >= self.max_width {
                    continue;
                }
                for (table, col) in &attrs {
                    if chosen[i].table != *table || chosen[i].columns.contains(col) {
                        continue;
                    }
                    let mut extended = chosen[i].clone();
                    extended.columns.push(col.clone());
                    extended.name =
                        format!("ext_{}_{}", extended.table, extended.columns.join("_"));
                    let delta_size = eval
                        .index_size(&extended)
                        .saturating_sub(eval.index_size(&chosen[i]));
                    if delta_size > remaining {
                        continue;
                    }
                    let mut trial = chosen.clone();
                    trial[i] = extended;
                    let cost = eval.workload_cost(&trial);
                    let gain = current_cost - cost;
                    if gain > self.min_gain * current_cost.max(1.0) {
                        let density = gain / delta_size.max(1) as f64;
                        if best.as_ref().is_none_or(|(d, _, _)| density > *d) {
                            best = Some((density, trial, cost));
                        }
                    }
                }
            }

            match best {
                Some((_, config, cost)) => {
                    chosen = config;
                    current_cost = cost;
                }
                None => break,
            }
        }

        self.last_whatif_calls = eval.whatif_calls();
        chosen
    }
}

/// Figure 6's "greedy incremental algorithm" label: Extend under another
/// name (the paper uses Extend as the greedy comparator there).
pub type Gia = Extend;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::tests_support::{test_db, wq};
    use aim_core::{defs_to_config, workload_cost};
    use aim_exec::{HypoConfig, WhatIfCache};

    #[test]
    fn extend_builds_useful_indexes() {
        let db = test_db();
        let workload = vec![
            wq("SELECT id FROM t WHERE a = 5", 100.0),
            wq("SELECT id FROM t WHERE b = 2 AND c > 10", 50.0),
        ];
        let mut ext = Extend::default();
        let defs = ext.recommend(&db, &workload, u64::MAX);
        assert!(!defs.is_empty());
        assert!(ext.last_whatif_calls > 0);
        let cache = WhatIfCache::new();
        let base = workload_cost(&db, &workload, &HypoConfig::none(), &cache);
        let with = workload_cost(&db, &workload, &defs_to_config(&db, &defs), &cache);
        assert!(with < base, "base {base}, with {with}");
    }

    #[test]
    fn extend_respects_budget() {
        let db = test_db();
        let workload = vec![
            wq("SELECT id FROM t WHERE a = 5", 100.0),
            wq("SELECT id FROM t WHERE c = 7", 100.0),
        ];
        let mut ext = Extend::default();
        let all = ext.recommend(&db, &workload, u64::MAX);
        let eval = CostEvaluator::new(&db, &workload);
        let full_size = eval.config_size(&all);
        let mut ext2 = Extend::default();
        let constrained = ext2.recommend(&db, &workload, full_size / 2);
        assert!(eval.config_size(&constrained) <= full_size / 2);
    }

    #[test]
    fn extend_width_grows_past_one() {
        let db = test_db();
        // a alone already helps (ndv 500); extending to (a, b) covers the
        // query and helps more — the extension step must find it.
        let workload = vec![wq("SELECT id, b FROM t WHERE a = 5 AND b = 2", 100.0)];
        let mut ext = Extend::default();
        let defs = ext.recommend(&db, &workload, u64::MAX);
        assert!(defs.iter().any(|d| d.columns.len() >= 2), "{defs:?}");
    }

    #[test]
    fn extend_misses_jointly_beneficial_combination() {
        let db = test_db();
        // Neither b nor c alone beats a full scan, but (b, c) does — the
        // one-column-at-a-time search cannot discover it (§VI-C's argument
        // for AIM's structural generation).
        let workload = vec![wq("SELECT id FROM t WHERE b = 2 AND c = 10", 100.0)];
        let mut ext = Extend::default();
        let defs = ext.recommend(&db, &workload, u64::MAX);
        assert!(defs.is_empty(), "greedy should stall here: {defs:?}");
        // AIM's structural candidate generation finds it directly.
        let mut aim = aim_core::AimAdvisor::new(2, 0);
        let aim_defs = aim.recommend(&db, &workload, u64::MAX);
        assert!(
            aim_defs.iter().any(|d| d.columns.len() >= 2),
            "{aim_defs:?}"
        );
    }

    #[test]
    fn max_width_cap() {
        let db = test_db();
        let workload = vec![wq(
            "SELECT id FROM t WHERE a = 1 AND b = 2 AND c = 3",
            100.0,
        )];
        let mut ext = Extend::new(2);
        let defs = ext.recommend(&db, &workload, u64::MAX);
        assert!(defs.iter().all(|d| d.columns.len() <= 2));
    }
}
