//! Continuous tuning (§VI-D) and the continuous regression detector
//! (§VII-C).
//!
//! AIM achieves continuous tuning by re-running the (cheap) tuning pass
//! periodically. Between passes, an off-host regression detector watches
//! the average CPU of every normalized query; a regression attributed to an
//! index the previous step created reverts that index. Automation-created
//! indexes no query of the window used are dropped after a grace period of
//! consecutive unused windows. Nothing else leaves: an index made
//! redundant by a wider one stays until it goes unused (ROADMAP item 12).
//!
//! # The one regression judge
//!
//! [`RegressionDetector`] over the [`WorkloadMonitor`] is the only code
//! that drops an index on a regression signal, and it decides from the
//! monitor alone: a step runs the same with telemetry on or off
//! (`aim-integration/tests/regression_scenarios.rs` holds it to that).
//!
//! * **Baseline.** Per template, the best (lowest) window average ever
//!   observed, folded in at the end of every step.
//! * **Verdict.** A template regressed when this window's average exceeds
//!   its baseline by more than the tolerance.
//! * **Attribution.** An index is reverted only if the regressed
//!   template's plan used it in this window *and* the previous step
//!   created it; an index no regressed query used is never a suspect,
//!   however the rest of the workload moved.
//! * **What it does not catch.** A slowdown that stays under the tolerance
//!   on every template (the table growing by a third, scenario D), and a
//!   regression no recent index explains: DML paying for the maintenance
//!   of a new index (scenario C — the trade-off ranking already priced,
//!   Eq. 8) or a query slower because its data grew. Those are counted and
//!   journaled on the window they first appear, and nothing is dropped.
//!
//! Clone validation compares before and after too (Eqs. 2–4,
//! `validate.rs`), and its rule is deliberately not reused here: it
//! attributes a DML regression to the candidates on the written table,
//! which is right before deployment, when rejecting one costs nothing.
//! Applied after deployment it would revert the new index in scenario C,
//! the next pass would build it again for the reads ranking chose it for,
//! and the configuration would flap with period two.

use crate::error::AimError;
use crate::session::{AimOutcome, TuningSession};
use aim_monitor::WorkloadMonitor;
use aim_sql::normalize::QueryFingerprint;
use aim_storage::{Database, IndexDef};
use std::collections::{BTreeMap, BTreeSet};

/// Prefix of every index name AIM creates; regressions are only ever
/// auto-reverted for automation-owned indexes.
pub const AIM_INDEX_PREFIX: &str = "aim_";

/// A detected per-query performance regression.
#[derive(Debug, Clone)]
pub struct Regression {
    pub query: QueryFingerprint,
    /// Baseline average CPU per execution (cost units).
    pub baseline: f64,
    /// Current average CPU per execution.
    pub current: f64,
    /// AIM indexes used by the query's current plan (revert suspects).
    pub suspect_indexes: Vec<String>,
}

/// Watches per-query average CPU across observation windows.
#[derive(Debug, Clone)]
pub struct RegressionDetector {
    /// Tolerated relative growth before a regression is declared.
    pub tolerance: f64,
    baselines: BTreeMap<QueryFingerprint, f64>,
}

impl RegressionDetector {
    /// Detector tolerating `tolerance` relative growth (e.g. `0.5` = 50%).
    pub fn new(tolerance: f64) -> Self {
        Self {
            tolerance,
            baselines: BTreeMap::new(),
        }
    }

    /// Folds the current window into the baselines. The baseline keeps the
    /// *best* (lowest) observed average so a slow creep cannot mask a
    /// regression; queries seen for the first time just register.
    pub fn absorb(&mut self, monitor: &WorkloadMonitor) {
        for q in monitor.queries() {
            if q.executions == 0 {
                continue;
            }
            let avg = q.cpu_avg();
            self.baselines
                .entry(q.fingerprint)
                .and_modify(|b| *b = b.min(avg))
                .or_insert(avg);
        }
    }

    /// Compares the current window against the baselines.
    pub fn detect(&self, monitor: &WorkloadMonitor) -> Vec<Regression> {
        let mut out = Vec::new();
        for q in monitor.queries() {
            let Some(&baseline) = self.baselines.get(&q.fingerprint) else {
                continue;
            };
            if baseline <= 0.0 || q.executions == 0 {
                continue;
            }
            let current = q.cpu_avg();
            if current > baseline * (1.0 + self.tolerance) {
                let suspect_indexes = q
                    .indexes_used
                    .iter()
                    .filter(|u| u.index.starts_with(AIM_INDEX_PREFIX))
                    .map(|u| u.index.clone())
                    .collect();
                out.push(Regression {
                    query: q.fingerprint,
                    baseline,
                    current,
                    suspect_indexes,
                });
            }
        }
        out
    }
}

/// AIM-created secondary indexes that no query in the window used.
pub fn find_unused_indexes(db: &Database, monitor: &WorkloadMonitor) -> Vec<IndexDef> {
    let mut used: BTreeSet<&str> = BTreeSet::new();
    for q in monitor.queries() {
        for u in &q.indexes_used {
            used.insert(u.index.as_str());
        }
    }
    db.all_indexes()
        .into_iter()
        .filter(|d| d.name.starts_with(AIM_INDEX_PREFIX) && !used.contains(d.name.as_str()))
        .collect()
}

/// Drops the index called `name`, whichever table holds it. `None` when
/// there is no such index or the drop failed.
fn drop_index_named(db: &mut Database, name: &str) -> Option<IndexDef> {
    let def = db.all_indexes().into_iter().find(|d| d.name == name)?;
    db.drop_index(&def.table, &def.name).ok()?;
    Some(def)
}

/// Outcome of one continuous-tuning step.
#[derive(Debug, Clone, Default)]
pub struct ContinuousOutcome {
    /// The tuning pass result.
    pub tuning: AimOutcome,
    /// Indexes dropped because a per-query regression implicated them.
    pub reverted: Vec<String>,
    /// Indexes dropped as unused over the window.
    pub dropped_unused: Vec<String>,
}

/// Periodic tuner: regression-revert, tune, optionally garbage-collect
/// unused automation indexes, then refresh regression baselines.
#[derive(Debug, Clone)]
pub struct ContinuousTuner {
    /// The resilient session driving each pass; its deadline, retry policy
    /// and cancel token apply to every [`ContinuousTuner::step`].
    pub session: TuningSession,
    pub detector: RegressionDetector,
    /// Drop AIM indexes unused for `unused_grace_windows` consecutive
    /// windows. `0` disables the GC.
    pub unused_grace_windows: usize,
    unused_streak: BTreeMap<String, usize>,
    /// Indexes created by the previous step: the only revert candidates —
    /// §VII-C flags "a regression ... due to an index added by automation",
    /// i.e. a *recent* change, not any index the plan happens to use.
    recently_created: BTreeSet<String>,
    /// Templates whose regression was counted and journaled with nothing
    /// to revert. Such a regression is reported on the window it first
    /// appears and not again while it lasts; a template leaves the set when
    /// it stops regressing.
    unattributed: BTreeSet<QueryFingerprint>,
}

impl ContinuousTuner {
    /// Creates a continuous tuner around a configured [`TuningSession`],
    /// inheriting its deadline, retry policy and cancel token per step.
    pub fn with_session(session: TuningSession, regression_tolerance: f64) -> Self {
        Self {
            session,
            detector: RegressionDetector::new(regression_tolerance),
            unused_grace_windows: 2,
            unused_streak: BTreeMap::new(),
            recently_created: BTreeSet::new(),
            unattributed: BTreeSet::new(),
        }
    }

    /// Runs one step at the end of an observation window.
    ///
    /// On error the step's tuning pass has already rolled back any indexes
    /// it materialized (see [`TuningSession::run`]); reverts and GC from
    /// earlier in the step stand — they were driven by the *previous*
    /// window's evidence, not the failed pass.
    pub fn step(
        &mut self,
        db: &mut Database,
        monitor: &WorkloadMonitor,
    ) -> Result<ContinuousOutcome, AimError> {
        let _step_span = aim_telemetry::span("aim.continuous_step");
        let mut outcome = ContinuousOutcome::default();

        // A step is a window boundary for whoever reads the telemetry
        // time-series; the step itself reads nothing back.
        aim_telemetry::timeseries::tick("continuous_window");

        // 1. Revert recently-added automation indexes implicated in
        //    regressions (pre-existing indexes are never auto-dropped on a
        //    regression signal: the regression cannot be "due to an index
        //    added by automation" if automation added nothing lately).
        let scan_span = aim_telemetry::span("regression_scan");
        let mut unattributed = BTreeSet::new();
        for regression in self.detector.detect(monitor) {
            let implicated: Vec<&String> = regression
                .suspect_indexes
                .iter()
                .filter(|name| self.recently_created.contains(*name))
                .collect();
            if implicated.is_empty() {
                unattributed.insert(regression.query);
                if self.unattributed.contains(&regression.query) {
                    continue;
                }
            }
            aim_telemetry::metrics::REGRESSIONS_DETECTED.incr();
            if aim_telemetry::is_enabled() {
                aim_telemetry::event(
                    aim_telemetry::EventKind::RegressionDetected,
                    regression.query.to_string(),
                    format!(
                        "avg cpu {:.1} -> {:.1}, suspects {:?}",
                        regression.baseline, regression.current, regression.suspect_indexes
                    ),
                );
            }
            for name in implicated {
                if let Some(def) = drop_index_named(db, name) {
                    aim_telemetry::event(
                        aim_telemetry::EventKind::IndexReverted,
                        &def.name,
                        "regression implicated a recently-created index",
                    );
                    self.session.ledger_annotate(
                        &def.name,
                        &def.table,
                        "reverted",
                        format!(
                            "query {} regressed (avg cpu {:.1} -> {:.1}) and its \
                             plan used this recently-created index",
                            regression.query, regression.baseline, regression.current
                        ),
                    );
                    outcome.reverted.push(def.name);
                }
            }
        }
        self.unattributed = unattributed;
        drop(scan_span);

        // 2. Tune.
        outcome.tuning = self.session.run(db, monitor)?;
        self.recently_created = outcome
            .tuning
            .created
            .iter()
            .map(|c| c.def.name.clone())
            .collect();

        // 3. Unused-index GC with a grace period.
        let _gc_span = aim_telemetry::span("unused_gc");
        if self.unused_grace_windows > 0 {
            let unused_now: BTreeSet<String> = find_unused_indexes(db, monitor)
                .into_iter()
                // An index created *this* step had no chance to be used yet.
                .filter(|d| !outcome.tuning.created.iter().any(|c| c.def.name == d.name))
                .map(|d| d.name)
                .collect();
            self.unused_streak.retain(|name, _| unused_now.contains(name));
            for name in &unused_now {
                *self.unused_streak.entry(name.clone()).or_insert(0) += 1;
            }
            let expired: Vec<String> = self
                .unused_streak
                .iter()
                .filter(|(_, streak)| **streak >= self.unused_grace_windows)
                .map(|(name, _)| name.clone())
                .collect();
            for name in expired {
                if let Some(def) = drop_index_named(db, &name) {
                    aim_telemetry::event(
                        aim_telemetry::EventKind::IndexDropped,
                        &name,
                        format!("unused for {} windows", self.unused_grace_windows),
                    );
                    self.session.ledger_annotate(
                        &def.name,
                        &def.table,
                        "dropped_unused",
                        format!(
                            "no query used this index for {} consecutive \
                             observation windows",
                            self.unused_grace_windows
                        ),
                    );
                    outcome.dropped_unused.push(name.clone());
                }
                self.unused_streak.remove(&name);
            }
        }

        // 4. Refresh baselines with this window.
        self.detector.absorb(monitor);
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::AimConfig;
    use aim_exec::Engine;
    use aim_monitor::SelectionConfig;
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
                ],
                &["id"],
            )
            .unwrap(),
        )
        .unwrap();
        let mut io = IoStats::new();
        for i in 0..4000i64 {
            db.table_mut("t")
                .unwrap()
                .insert(
                    vec![Value::Int(i), Value::Int(i % 100), Value::Int(i % 10)],
                    &mut io,
                )
                .unwrap();
        }
        db.analyze_all();
        db
    }

    fn observe(db: &mut Database, m: &mut WorkloadMonitor, sql: &str, n: usize) {
        let engine = Engine::new();
        let stmt = parse_statement(sql).unwrap();
        for _ in 0..n {
            let out = engine.execute(db, &stmt).unwrap();
            m.record(&stmt, &out);
        }
    }

    fn tuner() -> ContinuousTuner {
        // Ledger recording on: the continuous tests double as a check
        // that recording never changes tuning behaviour.
        ContinuousTuner::with_session(
            AimConfig::builder()
                .selection(SelectionConfig {
                    min_executions: 1,
                    min_benefit: 0.0,
                    max_queries: 50,
                    include_dml: true,
                })
                .ledger(true)
                .session(),
            0.5,
        )
    }

    #[test]
    fn detector_flags_cost_growth() {
        let mut db = db();
        let mut detector = RegressionDetector::new(0.5);
        let mut w1 = WorkloadMonitor::new();
        // Fast baseline: point lookups.
        observe(&mut db, &mut w1, "SELECT id FROM t WHERE id = 5", 5);
        detector.absorb(&w1);

        // Manufacture a slow window for the same fingerprint by growing
        // the table 4x (same shape, higher cost).
        let mut io = IoStats::new();
        for i in 4000..16000i64 {
            db.table_mut("t")
                .unwrap()
                .insert(
                    vec![Value::Int(i), Value::Int(i % 100), Value::Int(i % 10)],
                    &mut io,
                )
                .unwrap();
        }
        // PK lookups stay fast, so use a scan-shaped query instead.
        let mut d2 = RegressionDetector::new(0.5);
        let mut fast = WorkloadMonitor::new();
        let mut small_db = db.clone();
        observe(&mut small_db, &mut fast, "SELECT id FROM t WHERE a = 5", 3);
        d2.absorb(&fast);
        let mut io2 = IoStats::new();
        for i in 16000..64000i64 {
            small_db
                .table_mut("t")
                .unwrap()
                .insert(
                    vec![Value::Int(i), Value::Int(i % 100), Value::Int(i % 10)],
                    &mut io2,
                )
                .unwrap();
        }
        let mut slow = WorkloadMonitor::new();
        observe(&mut small_db, &mut slow, "SELECT id FROM t WHERE a = 5", 3);
        let regressions = d2.detect(&slow);
        assert_eq!(regressions.len(), 1);
        assert!(regressions[0].current > regressions[0].baseline);
    }

    #[test]
    fn unused_aim_indexes_detected() {
        let mut db = db();
        let mut io = IoStats::new();
        db.create_index(IndexDef::new("aim_t_b", "t", vec!["b".into()]), &mut io)
            .unwrap();
        db.create_index(IndexDef::new("manual_ix", "t", vec!["a".into()]), &mut io)
            .unwrap();
        let mut m = WorkloadMonitor::new();
        // Workload only uses manual_ix (filter on a).
        observe(&mut db, &mut m, "SELECT id, a FROM t WHERE a = 5", 3);
        let unused = find_unused_indexes(&db, &m);
        // Only automation-owned unused indexes are reported.
        assert_eq!(unused.len(), 1);
        assert_eq!(unused[0].name, "aim_t_b");
    }

    #[test]
    fn continuous_step_tunes_and_gcs() {
        let mut db = db();
        let mut tuner = tuner();
        tuner.unused_grace_windows = 1;

        // Window 1: scan-heavy workload; AIM creates an index.
        let mut w = WorkloadMonitor::new();
        observe(&mut db, &mut w, "SELECT id FROM t WHERE a = 5", 10);
        let out1 = tuner.step(&mut db, &w).unwrap();
        assert!(!out1.tuning.created.is_empty());
        let created = out1.tuning.created[0].def.name.clone();

        // Window 2: workload shifts entirely to b; the index on a goes
        // unused but survives the grace period accounting this window.
        let mut w2 = WorkloadMonitor::new();
        observe(&mut db, &mut w2, "SELECT id FROM t WHERE b = 2", 10);
        let out2 = tuner.step(&mut db, &w2).unwrap();
        // Window 3: still unused -> dropped.
        let mut w3 = WorkloadMonitor::new();
        observe(&mut db, &mut w3, "SELECT id FROM t WHERE b = 2", 10);
        let out3 = tuner.step(&mut db, &w3).unwrap();
        let dropped: Vec<&String> = out2
            .dropped_unused
            .iter()
            .chain(out3.dropped_unused.iter())
            .collect();
        assert!(
            dropped.contains(&&created),
            "index {created} should be GC'd: {out2:?} {out3:?}"
        );
        // The ledger closes the loop: the created index's record ends in
        // the GC drop, with the full creation chain before it.
        let ledger = tuner.session.ledger();
        let rec = ledger.find(&created).expect("GC'd index has a ledger record");
        assert_eq!(rec.outcome(), "dropped_unused");
        assert!(rec.stages().contains(&"materialized"), "{:?}", rec.stages());
    }

    #[test]
    fn workload_shift_creates_new_index() {
        let mut db = db();
        let mut tuner = tuner();
        let mut w = WorkloadMonitor::new();
        observe(&mut db, &mut w, "SELECT id FROM t WHERE a = 5", 10);
        tuner.step(&mut db, &w).unwrap();
        let before = db.all_indexes().len();

        let mut w2 = WorkloadMonitor::new();
        observe(&mut db, &mut w2, "SELECT id FROM t WHERE b = 2 AND a > 50", 10);
        let out = tuner.step(&mut db, &w2).unwrap();
        assert!(!out.tuning.created.is_empty());
        assert!(db.all_indexes().len() > before - 1);
    }
}
