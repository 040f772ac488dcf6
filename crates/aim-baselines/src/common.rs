//! Shared infrastructure for the baseline advisors.
//!
//! All baselines are *what-if driven*: they repeatedly ask the optimizer to
//! cost the workload under hypothetical configurations. [`CostEvaluator`]
//! provides that service with memoization and an optimizer-call counter —
//! the paper (citing Papadomanolakis et al.) notes such algorithms spend
//! ~90% of their runtime in the optimizer, which is exactly the behaviour
//! the counter exposes.

use aim_core::WeightedQuery;
use aim_exec::{estimate_statement_cost, HypoConfig, HypotheticalIndex, WhatIfCache};
use aim_sql::ast::Statement;
use aim_storage::{Database, IndexDef};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Canonical key of an index definition (table + ordered columns).
pub type DefKey = (String, Vec<String>);

/// Key for one index definition.
pub fn def_key(def: &IndexDef) -> DefKey {
    (def.table.clone(), def.columns.clone())
}

/// What-if cost oracle over a fixed database + workload, memoized by a
/// [`WhatIfCache`] of its own: its misses are the optimizer calls the run
/// made.
pub struct CostEvaluator<'a> {
    pub db: &'a Database,
    pub workload: &'a [WeightedQuery],
    cache: WhatIfCache,
    /// Hypothetical-index construction cache.
    hypo_cache: RefCell<BTreeMap<DefKey, Option<Arc<HypotheticalIndex>>>>,
}

impl<'a> CostEvaluator<'a> {
    /// New evaluator with an empty cache.
    pub fn new(db: &'a Database, workload: &'a [WeightedQuery]) -> Self {
        Self {
            db,
            workload,
            cache: WhatIfCache::new(),
            hypo_cache: RefCell::new(BTreeMap::new()),
        }
    }

    /// Number of optimizer invocations so far: the questions the cache
    /// could not answer.
    pub fn whatif_calls(&self) -> u64 {
        self.cache.stats().misses
    }

    fn hypo(&self, def: &IndexDef) -> Option<Arc<HypotheticalIndex>> {
        let key = def_key(def);
        self.hypo_cache
            .borrow_mut()
            .entry(key)
            .or_insert_with(|| HypotheticalIndex::build(self.db, def.clone()).map(Arc::new))
            .clone()
    }

    /// Estimated size of one index.
    pub fn index_size(&self, def: &IndexDef) -> u64 {
        self.hypo(def).map_or(u64::MAX, |h| h.size_bytes)
    }

    /// Total estimated size of a configuration.
    pub fn config_size(&self, defs: &[IndexDef]) -> u64 {
        defs.iter().map(|d| self.index_size(d)).sum()
    }

    /// Workload cost `Σ w_q · cost(q, defs)`.
    pub fn workload_cost(&self, defs: &[IndexDef]) -> f64 {
        (0..self.workload.len())
            .map(|i| self.query_cost(i, defs))
            .sum()
    }

    /// Weighted cost of one workload query under a configuration.
    pub fn query_cost(&self, query_idx: usize, defs: &[IndexDef]) -> f64 {
        // Only indexes on tables the query touches matter; keeping only
        // those raises the cache hit rate without changing results.
        let tables = statement_tables(&self.workload[query_idx].statement);
        let mut keys: Vec<DefKey> = defs
            .iter()
            .filter(|d| tables.contains(&d.table))
            .map(def_key)
            .collect();
        keys.sort();
        keys.dedup();
        let hypos = keys
            .into_iter()
            .filter_map(|(t, cols)| {
                self.hypo(&IndexDef::new(
                    format!("h_{}_{}", t, cols.join("_")),
                    t,
                    cols,
                ))
            })
            .collect();
        let (cfg, wq) = (HypoConfig::shared(hypos), &self.workload[query_idx]);
        let cost = estimate_statement_cost(self.db, &wq.statement, &cfg, &self.cache);
        wq.weight * cost.unwrap_or(f64::INFINITY)
    }
}

/// Tables referenced by a statement's FROM / target.
pub fn statement_tables(stmt: &Statement) -> BTreeSet<String> {
    match stmt {
        Statement::Select(s) => s.from.iter().map(|t| t.name.clone()).collect(),
        Statement::Insert(i) => [i.table.clone()].into(),
        Statement::Update(u) => [u.table.clone()].into(),
        Statement::Delete(d) => [d.table.clone()].into(),
        _ => BTreeSet::new(),
    }
}

/// Per-table indexable attributes of one query, grouped by role.
#[derive(Debug, Clone, Default)]
pub struct IndexableColumns {
    /// Equality (index-prefix) columns, sorted by descending NDV.
    pub eq: Vec<String>,
    /// Range columns, sorted by descending NDV.
    pub range: Vec<String>,
    /// ORDER BY columns in clause order.
    pub order: Vec<String>,
    /// GROUP BY columns in clause order.
    pub group: Vec<String>,
    /// All referenced columns.
    pub referenced: BTreeSet<String>,
}

/// Extracts per-table indexable attributes using `aim-core`'s structural
/// metadata (the baselines share the syntactic front-end; they differ in
/// the search they run on top).
pub fn indexable_columns(db: &Database, stmt: &Statement) -> BTreeMap<String, IndexableColumns> {
    let mut out: BTreeMap<String, IndexableColumns> = BTreeMap::new();
    let Ok(structure) = aim_core::analyze_structure(db, stmt) else {
        return out;
    };
    for t in &structure.tables {
        let e = out.entry(t.table.clone()).or_default();
        let mut eq: BTreeSet<String> = BTreeSet::new();
        let mut range: BTreeSet<String> = BTreeSet::new();
        for g in &t.filter_groups {
            eq.extend(g.ipp.iter().cloned());
            range.extend(g.range.iter().cloned());
        }
        // Join columns are equality columns for baseline purposes.
        for cols in t.join_edges.values() {
            eq.extend(cols.iter().cloned());
        }
        let ndv = |c: &String| {
            db.stats(&t.table)
                .and_then(|s| s.column(c))
                .map_or(0, |cs| cs.ndv)
        };
        let mut eq: Vec<String> = eq.into_iter().collect();
        eq.sort_by_key(|c| std::cmp::Reverse(ndv(c)));
        let mut range: Vec<String> = range.into_iter().filter(|c| !eq.contains(c)).collect();
        range.sort_by_key(|c| std::cmp::Reverse(ndv(c)));
        e.eq = merge_unique(&e.eq, &eq);
        e.range = merge_unique(&e.range, &range);
        e.order = merge_unique(
            &e.order,
            &t.order_by
                .iter()
                .map(|(c, _)| c.clone())
                .collect::<Vec<_>>(),
        );
        e.group = merge_unique(&e.group, &t.group_by);
        e.referenced.extend(t.referenced.iter().cloned());
    }
    out
}

fn merge_unique(a: &[String], b: &[String]) -> Vec<String> {
    let mut out = a.to_vec();
    for c in b {
        if !out.contains(c) {
            out.push(c.clone());
        }
    }
    out
}

/// Syntactic candidate pool: for each query and table, every prefix of the
/// canonical attribute order (eq by NDV, then ranges, then order/group
/// columns) up to `max_width`, plus each single attribute. This mirrors the
/// per-query candidate pools of AutoAdmin/DB2Advis-class algorithms.
pub fn syntactic_candidates(
    db: &Database,
    workload: &[WeightedQuery],
    max_width: usize,
) -> Vec<IndexDef> {
    let mut seen: BTreeSet<DefKey> = BTreeSet::new();
    let mut out: Vec<IndexDef> = Vec::new();
    let mut push = |table: &str, cols: Vec<String>| {
        if cols.is_empty() || (max_width > 0 && cols.len() > max_width) {
            return;
        }
        // Skip pure PK prefixes.
        if let Ok(t) = db.table(table) {
            let pk: Vec<String> = t
                .schema()
                .primary_key_names()
                .iter()
                .map(|s| s.to_string())
                .collect();
            if pk.starts_with(&cols[..]) {
                return;
            }
        }
        let key = (table.to_string(), cols.clone());
        if seen.insert(key) {
            out.push(IndexDef::new(
                format!("b_{}_{}", table, cols.join("_")),
                table,
                cols,
            ));
        }
    };
    for wq in workload {
        for (table, cols) in indexable_columns(db, &wq.statement) {
            let mut canonical: Vec<String> = Vec::new();
            for c in cols
                .eq
                .iter()
                .chain(cols.range.iter())
                .chain(cols.group.iter())
                .chain(cols.order.iter())
            {
                if !canonical.contains(c) {
                    canonical.push(c.clone());
                }
            }
            // All prefixes of the canonical order.
            for w in 1..=canonical.len() {
                push(&table, canonical[..w].to_vec());
            }
            // Each attribute alone.
            for c in &canonical {
                push(&table, vec![c.clone()]);
            }
            // Covering variants: canonical prefix plus the remaining
            // referenced columns ("included columns" in DTA / DB2Advis
            // terms), width permitting.
            let mut covering = canonical.clone();
            for c in &cols.referenced {
                if !covering.contains(c) {
                    covering.push(c.clone());
                }
            }
            if covering.len() > canonical.len() {
                push(&table, covering.clone());
                if !canonical.is_empty() {
                    // Also the widest prefix that fits the cap.
                    if max_width > 0 && covering.len() > max_width {
                        push(&table, covering[..max_width].to_vec());
                    }
                }
            }
        }
    }
    out
}

/// Shared fixtures for the baseline test suites.
#[cfg(test)]
pub mod tests_support {
    use aim_core::WeightedQuery;
    use aim_sql::parse_statement;
    use aim_storage::{ColumnDef, ColumnType, Database, IoStats, TableSchema, Value};

    /// t(id, a, b, c) with NDVs 500 / 10 / 50 over 3000 rows.
    pub fn test_db() -> Database {
        let mut db = Database::new();
        db.create_table(
            TableSchema::new(
                "t",
                vec![
                    ColumnDef::new("id", ColumnType::Int),
                    ColumnDef::new("a", ColumnType::Int),
                    ColumnDef::new("b", ColumnType::Int),
                    ColumnDef::new("c", ColumnType::Int),
                ],
                &["id"],
            )
            .unwrap(),
        )
        .unwrap();
        let mut io = IoStats::new();
        for i in 0..3000i64 {
            db.table_mut("t")
                .unwrap()
                .insert(
                    vec![
                        Value::Int(i),
                        Value::Int(i % 500),
                        Value::Int(i % 10),
                        Value::Int(i % 50),
                    ],
                    &mut io,
                )
                .unwrap();
        }
        db.analyze_all();
        db
    }

    /// Weighted query from SQL text.
    pub fn wq(sql: &str, weight: f64) -> WeightedQuery {
        WeightedQuery::new(parse_statement(sql).unwrap(), weight)
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
                    ColumnDef::new("b", ColumnType::Int),
                    ColumnDef::new("c", ColumnType::Int),
                ],
                &["id"],
            )
            .unwrap(),
        )
        .unwrap();
        let mut io = IoStats::new();
        for i in 0..3000i64 {
            db.table_mut("t")
                .unwrap()
                .insert(
                    vec![
                        Value::Int(i),
                        Value::Int(i % 500),
                        Value::Int(i % 10),
                        Value::Int(i % 50),
                    ],
                    &mut io,
                )
                .unwrap();
        }
        db.analyze_all();
        db
    }

    fn wq(sql: &str, weight: f64) -> WeightedQuery {
        WeightedQuery::new(parse_statement(sql).unwrap(), weight)
    }

    #[test]
    fn evaluator_counts_and_caches_calls() {
        let db = db();
        let workload = vec![wq("SELECT id FROM t WHERE a = 5", 10.0)];
        let eval = CostEvaluator::new(&db, &workload);
        let defs = vec![IndexDef::new("x", "t", vec!["a".into()])];
        let c1 = eval.workload_cost(&defs);
        assert_eq!(eval.whatif_calls(), 1);
        let c2 = eval.workload_cost(&defs);
        assert_eq!(eval.whatif_calls(), 1, "second call must hit the cache");
        assert_eq!(c1, c2);
        // Different config misses.
        eval.workload_cost(&[]);
        assert_eq!(eval.whatif_calls(), 2);
    }

    #[test]
    fn irrelevant_indexes_do_not_bust_cache() {
        let mut db = db();
        db.create_table(
            TableSchema::new(
                "other",
                vec![
                    ColumnDef::new("id", ColumnType::Int),
                    ColumnDef::new("z", ColumnType::Int),
                ],
                &["id"],
            )
            .unwrap(),
        )
        .unwrap();
        let workload = vec![wq("SELECT id FROM t WHERE a = 5", 10.0)];
        let eval = CostEvaluator::new(&db, &workload);
        eval.workload_cost(&[]);
        // Index on an unrelated table: cache key unchanged.
        eval.workload_cost(&[IndexDef::new("x", "other", vec!["z".into()])]);
        assert_eq!(eval.whatif_calls(), 1);
    }

    #[test]
    fn index_reduces_workload_cost() {
        let db = db();
        let workload = vec![wq("SELECT id FROM t WHERE a = 5", 10.0)];
        let eval = CostEvaluator::new(&db, &workload);
        let base = eval.workload_cost(&[]);
        let with = eval.workload_cost(&[IndexDef::new("x", "t", vec!["a".into()])]);
        assert!(with < base / 2.0);
    }

    #[test]
    fn indexable_columns_classified_and_sorted() {
        let db = db();
        let stmt =
            parse_statement("SELECT id FROM t WHERE b = 1 AND a = 2 AND c > 3 ORDER BY c").unwrap();
        let cols = indexable_columns(&db, &stmt);
        let t = &cols["t"];
        // a (ndv 500) before b (ndv 10).
        assert_eq!(t.eq, vec!["a", "b"]);
        assert_eq!(t.range, vec!["c"]);
        assert_eq!(t.order, vec!["c"]);
    }

    #[test]
    fn syntactic_pool_has_prefixes_and_singletons() {
        let db = db();
        let workload = vec![wq("SELECT id FROM t WHERE a = 1 AND b = 2 AND c > 3", 1.0)];
        let pool = syntactic_candidates(&db, &workload, 3);
        let keys: BTreeSet<Vec<String>> = pool.iter().map(|d| d.columns.clone()).collect();
        assert!(keys.contains(&vec!["a".to_string()]));
        assert!(keys.contains(&vec!["b".to_string()]));
        assert!(keys.contains(&vec!["c".to_string()]));
        assert!(keys.contains(&vec!["a".to_string(), "b".to_string()]));
        assert!(keys.contains(&vec!["a".to_string(), "b".to_string(), "c".to_string()]));
    }

    #[test]
    fn width_cap_enforced() {
        let db = db();
        let workload = vec![wq("SELECT id FROM t WHERE a = 1 AND b = 2 AND c > 3", 1.0)];
        let pool = syntactic_candidates(&db, &workload, 2);
        assert!(pool.iter().all(|d| d.columns.len() <= 2));
    }

    #[test]
    fn pk_prefix_skipped() {
        let db = db();
        let workload = vec![wq("SELECT a FROM t WHERE id = 1", 1.0)];
        let pool = syntactic_candidates(&db, &workload, 2);
        assert!(pool.iter().all(|d| d.columns != vec!["id".to_string()]));
    }
}
