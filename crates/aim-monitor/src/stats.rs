//! Per-normalized-query execution statistics.

use aim_exec::{AccessPath, ExecOutcome, IndexScan};
use aim_sql::ast::Statement;
use aim_sql::normalize::{fingerprint, normalize_statement, QueryFingerprint};
use std::collections::btree_map::{BTreeMap, Entry};

/// One index observed in use by a query's most recent execution plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexUse {
    /// Table the index belongs to.
    pub table: String,
    /// Index label (`PRIMARY`, a secondary index name, or a hypothetical
    /// marker).
    pub index: String,
    /// Number of leading key columns matched by equality.
    pub eq_prefix_len: usize,
    /// Whether the scan was covering (no base-table lookups).
    pub covering: bool,
}

impl IndexUse {
    /// True if this is what `scan` on `table` would be recorded as.
    fn describes(&self, table: &str, scan: &IndexScan) -> bool {
        self.table == table
            && self.index == scan.index.label()
            && self.eq_prefix_len == scan.eq.len()
            && self.covering == scan.covering
    }
}

/// Aggregated statistics for one normalized query over the current window.
#[derive(Debug, Clone)]
pub struct QueryStats {
    pub fingerprint: QueryFingerprint,
    /// Normalized SQL text (`?` placeholders).
    pub normalized_text: String,
    /// Normalized statement, input to structural candidate generation.
    pub normalized: Statement,
    /// A concrete exemplar execution of this query (with literals), usable
    /// for replay during clone validation.
    pub exemplar: Statement,
    pub executions: u64,
    /// Total measured cost (cost units ≈ µs of simulated CPU, including
    /// IO-wait, matching the paper's `cpu_avg` convention).
    pub total_cpu: f64,
    pub total_rows_read: u64,
    pub total_rows_sent: u64,
    /// Sum over executions of per-execution `rows_sent / rows_read`.
    sum_sent_read_ratio: f64,
    /// Indexes used by the most recently observed plan.
    pub indexes_used: Vec<IndexUse>,
    /// Average seeks per execution (drives the covering-index decision).
    pub total_seeks: u64,
}

impl QueryStats {
    /// Builds synthetic statistics for a query that was never observed —
    /// used when driving AIM as a pure *advisor* over an analytical
    /// workload (the Figure 4/5 benchmark setting), where only the query
    /// text and a weight are known.
    pub fn synthetic(stmt: &Statement, executions: u64, total_cpu: f64) -> Self {
        let norm = normalize_statement(stmt);
        Self {
            fingerprint: norm.fingerprint,
            normalized_text: norm.text,
            normalized: norm.statement,
            exemplar: stmt.clone(),
            executions,
            total_cpu,
            total_rows_read: 0,
            total_rows_sent: 0,
            sum_sent_read_ratio: 0.0,
            indexes_used: Vec::new(),
            total_seeks: 0,
        }
    }

    /// Adds one execution's counters and keeps the most recent plan's index
    /// usage, which is rewritten only when that plan differs from the
    /// stored one.
    fn observe(&mut self, outcome: &ExecOutcome) {
        self.executions += 1;
        self.total_cpu += outcome.cost;
        self.total_rows_read += outcome.io.rows_read;
        self.total_rows_sent += outcome.rows_sent();
        self.total_seeks += outcome.io.seeks;
        let read = outcome.io.rows_read;
        let ratio = if read == 0 {
            1.0
        } else {
            (outcome.rows_sent() as f64 / read as f64).min(1.0)
        };
        self.sum_sent_read_ratio += ratio;
        let mut stored = self.indexes_used.iter();
        let same_plan = plan_scans(outcome)
            .all(|(table, scan)| stored.next().is_some_and(|u| u.describes(table, scan)))
            && stored.next().is_none();
        if !same_plan {
            self.indexes_used.clear();
            self.indexes_used
                .extend(plan_scans(outcome).map(|(table, scan)| IndexUse {
                    table: table.to_string(),
                    index: scan.index.label().into_owned(),
                    eq_prefix_len: scan.eq.len(),
                    covering: scan.covering,
                }));
        }
    }

    /// Average CPU cost per execution (cost units).
    pub fn cpu_avg(&self) -> f64 {
        if self.executions == 0 {
            0.0
        } else {
            self.total_cpu / self.executions as f64
        }
    }

    /// Discarded-data ratio as defined in §III-A2: the ratio of data sent
    /// to data read, averaged across executions. A value near 0 means
    /// almost everything read was discarded (inefficient); near 1 means
    /// reads were fully useful.
    pub fn ddr_avg(&self) -> f64 {
        if self.executions == 0 {
            1.0
        } else {
            self.sum_sent_read_ratio / self.executions as f64
        }
    }

    /// Optimistic expected benefit from optimizing this query (Eq. 5):
    /// `(1 − ddr_avg) · cpu_avg`.
    pub fn expected_benefit(&self) -> f64 {
        (1.0 - self.ddr_avg()).max(0.0) * self.cpu_avg()
    }

    /// Average seeks per execution.
    pub fn seeks_avg(&self) -> f64 {
        if self.executions == 0 {
            0.0
        } else {
            self.total_seeks as f64 / self.executions as f64
        }
    }

    /// Workload weight `w_q`: total CPU consumed over the window, so that
    /// expensive-and-frequent queries dominate the objective (Eq. 1).
    pub fn weight(&self) -> f64 {
        self.total_cpu
    }

    /// True if the statement mutates data (DML).
    pub fn is_dml(&self) -> bool {
        self.normalized.is_dml()
    }
}

/// Aggregates execution statistics per normalized query.
#[derive(Debug, Clone, Default)]
pub struct WorkloadMonitor {
    queries: BTreeMap<QueryFingerprint, QueryStats>,
}

impl WorkloadMonitor {
    /// New, empty monitor.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one execution of `stmt` with its outcome.
    ///
    /// A known template costs its streamed fingerprint, one map lookup, the
    /// counters, and an in-place overwrite of the exemplar (freshest wins)
    /// that reuses the stored statement's buffers. Only first sight
    /// normalizes the statement into a tree and a text.
    pub fn record(&mut self, stmt: &Statement, outcome: &ExecOutcome) {
        aim_telemetry::metrics::MONITOR_RECORDS.incr();
        let stats = match self.queries.entry(fingerprint(stmt)) {
            Entry::Occupied(known) => {
                let stats = known.into_mut();
                stats.exemplar.clone_from(stmt);
                stats
            }
            Entry::Vacant(first_sight) => {
                let stats = QueryStats::synthetic(stmt, 0, 0.0);
                debug_assert_eq!(stats.fingerprint, *first_sight.key());
                first_sight.insert(stats)
            }
        };
        stats.observe(outcome);
    }

    /// Clears the window (start of a new observation interval).
    pub fn reset(&mut self) {
        self.queries.clear();
    }

    /// All tracked queries.
    pub fn queries(&self) -> impl Iterator<Item = &QueryStats> {
        self.queries.values()
    }

    /// Number of distinct normalized queries tracked.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// True if no queries recorded.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// Stats for one fingerprint.
    pub fn get(&self, fp: QueryFingerprint) -> Option<&QueryStats> {
        self.queries.get(&fp)
    }

    /// Total CPU cost recorded across all queries in the window.
    pub fn total_cpu(&self) -> f64 {
        self.queries.values().map(|q| q.total_cpu).sum()
    }
}

/// Every index scan of an executed plan with the table it reads, in plan
/// order.
fn plan_scans(outcome: &ExecOutcome) -> impl Iterator<Item = (&str, &IndexScan)> {
    outcome.plan.steps.iter().flat_map(|step| {
        let scans = match &step.path {
            AccessPath::FullScan => &[],
            AccessPath::IndexScan(s) => std::slice::from_ref(s),
            AccessPath::OrUnion(branches) => branches.as_slice(),
        };
        scans.iter().map(move |s| (step.table.as_str(), s))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use aim_exec::Engine;
    use aim_sql::parse_statement;
    use aim_storage::{ColumnDef, ColumnType, Database, IoStats, TableSchema, Value};

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
        for i in 0..1000 {
            db.table_mut("t")
                .unwrap()
                .insert(vec![Value::Int(i), Value::Int(i % 10)], &mut io)
                .unwrap();
        }
        db.analyze_all();
        db
    }

    fn record(monitor: &mut WorkloadMonitor, db: &mut Database, sql: &str) {
        let engine = Engine::new();
        let stmt = parse_statement(sql).unwrap();
        let out = engine.execute(db, &stmt).unwrap();
        monitor.record(&stmt, &out);
    }

    #[test]
    fn same_shape_aggregates_under_one_fingerprint() {
        let mut db = db();
        let mut m = WorkloadMonitor::new();
        record(&mut m, &mut db, "SELECT id FROM t WHERE a = 1");
        record(&mut m, &mut db, "SELECT id FROM t WHERE a = 2");
        record(&mut m, &mut db, "SELECT id FROM t WHERE a = 3");
        assert_eq!(m.len(), 1);
        let q = m.queries().next().unwrap();
        assert_eq!(q.executions, 3);
        assert_eq!(q.normalized_text, "SELECT id FROM t WHERE a = ?");
    }

    #[test]
    fn ddr_low_for_selective_scan_queries() {
        let mut db = db();
        let mut m = WorkloadMonitor::new();
        // 1000 rows read, ~100 sent: ddr ≈ 0.1 (mostly discarded).
        record(&mut m, &mut db, "SELECT id FROM t WHERE a = 1");
        let q = m.queries().next().unwrap();
        assert!(q.ddr_avg() < 0.2, "ddr = {}", q.ddr_avg());
        assert!(q.expected_benefit() > 0.0);
    }

    #[test]
    fn ddr_high_for_full_result_queries() {
        let mut db = db();
        let mut m = WorkloadMonitor::new();
        record(&mut m, &mut db, "SELECT id, a FROM t");
        let q = m.queries().next().unwrap();
        assert!(q.ddr_avg() > 0.9, "ddr = {}", q.ddr_avg());
        // Efficient query: little expected benefit relative to cost.
        assert!(q.expected_benefit() < 0.2 * q.cpu_avg());
    }

    #[test]
    fn point_lookup_has_tiny_benefit() {
        let mut db = db();
        let mut m = WorkloadMonitor::new();
        record(&mut m, &mut db, "SELECT id FROM t WHERE id = 5");
        let q = m.queries().next().unwrap();
        assert!(q.ddr_avg() > 0.9);
    }

    #[test]
    fn exemplar_keeps_literals() {
        let mut db = db();
        let mut m = WorkloadMonitor::new();
        record(&mut m, &mut db, "SELECT id FROM t WHERE a = 7");
        let q = m.queries().next().unwrap();
        assert!(q.exemplar.to_string().contains("= 7"));
        assert!(q.normalized_text.contains("= ?"));
    }

    #[test]
    fn dml_recorded_and_flagged() {
        let mut db = db();
        let mut m = WorkloadMonitor::new();
        record(&mut m, &mut db, "UPDATE t SET a = 5 WHERE id = 3");
        let q = m.queries().next().unwrap();
        assert!(q.is_dml());
        assert!(q.total_cpu > 0.0);
    }

    #[test]
    fn index_usage_tracked() {
        let mut db = db();
        let mut io = IoStats::new();
        db.create_index(
            aim_storage::IndexDef::new("ix_a", "t", vec!["a".into()]),
            &mut io,
        )
        .unwrap();
        let mut m = WorkloadMonitor::new();
        record(&mut m, &mut db, "SELECT id, a FROM t WHERE a = 1");
        let q = m.queries().next().unwrap();
        assert_eq!(q.indexes_used.len(), 1);
        assert_eq!(q.indexes_used[0].index, "ix_a");
        assert_eq!(q.indexes_used[0].table, "t");
        assert_eq!(q.indexes_used[0].eq_prefix_len, 1);
    }

    #[test]
    fn known_template_takes_the_freshest_exemplar_and_plan() {
        let mut db = db();
        let mut m = WorkloadMonitor::new();
        record(&mut m, &mut db, "SELECT id, a FROM t WHERE a IN (1, 2, 3)");
        assert!(m.queries().next().unwrap().indexes_used.is_empty());
        // Same template, another shape (a shorter list) and another plan.
        db.create_index(
            aim_storage::IndexDef::new("ix_a", "t", vec!["a".into()]),
            &mut IoStats::new(),
        )
        .unwrap();
        record(&mut m, &mut db, "SELECT id, a FROM t WHERE a IN (4)");
        assert_eq!(m.len(), 1);
        let q = m.queries().next().unwrap();
        assert_eq!(q.executions, 2);
        assert_eq!(q.exemplar.to_string(), "SELECT id, a FROM t WHERE a IN (4)");
        assert_eq!(q.indexes_used.len(), 1);
        assert_eq!(q.indexes_used[0].index, "ix_a");
        // The same plan again leaves the stored usage as it is.
        record(&mut m, &mut db, "SELECT id, a FROM t WHERE a IN (5, 6)");
        let q = m.queries().next().unwrap();
        assert_eq!(q.exemplar.to_string(), "SELECT id, a FROM t WHERE a IN (5, 6)");
        assert_eq!(q.indexes_used.len(), 1);
        assert_eq!(q.indexes_used[0].index, "ix_a");
        // And the index going away is seen too.
        db.drop_index("t", "ix_a").unwrap();
        record(&mut m, &mut db, "SELECT id, a FROM t WHERE a IN (7)");
        assert!(m.queries().next().unwrap().indexes_used.is_empty());
    }

    #[test]
    fn reset_clears_window() {
        let mut db = db();
        let mut m = WorkloadMonitor::new();
        record(&mut m, &mut db, "SELECT id FROM t WHERE a = 1");
        assert!(!m.is_empty());
        m.reset();
        assert!(m.is_empty());
        assert_eq!(m.total_cpu(), 0.0);
    }

    #[test]
    fn weight_is_total_cpu() {
        let mut db = db();
        let mut m = WorkloadMonitor::new();
        record(&mut m, &mut db, "SELECT id FROM t WHERE a = 1");
        record(&mut m, &mut db, "SELECT id FROM t WHERE a = 2");
        let q = m.queries().next().unwrap();
        assert!((q.weight() - q.total_cpu).abs() < 1e-12);
        assert!(q.weight() > q.cpu_avg());
    }
}
