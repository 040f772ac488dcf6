//! Clone validation: the "no regression" guarantee (§VII-B).
//!
//! Candidate indexes are materialized on a *clone* of the database (the
//! paper's MyShadow logical copy) and the workload's exemplar queries are
//! replayed. Two checks gate promotion to production:
//!
//! 1. **Usage** — the optimizer must actually pick each candidate for at
//!    least one workload query (Algorithm 1 line 3); what-if estimates can
//!    be wrong, and an unused index is pure overhead.
//! 2. **Per-query regression** — no query's measured cost may grow beyond
//!    `(1 + λ₃)` of its pre-change cost (Eq. 4). Offending indexes are
//!    rejected and validation repeats until stable.

use crate::error::AimError;
use crate::ranking::RankedCandidate;
use crate::session::RunCtl;
use aim_exec::{Engine, ExecError, IndexChoice, Plan};
use aim_monitor::WorkloadQuery;
use aim_sql::ast::Statement;
use aim_sql::normalize::QueryFingerprint;
use aim_storage::{Database, IoStats};
use std::collections::{BTreeMap, BTreeSet};

/// Validation thresholds.
#[derive(Debug, Clone, PartialEq)]
pub struct ValidationConfig {
    /// λ₃ of Eq. 4: tolerated relative per-query cost growth.
    pub regression_tolerance: f64,
    /// λ₂ of Eq. 3: when set, the whole change set is rejected unless at
    /// least one query improves by this relative margin — there is no
    /// point paying storage and validation churn for a configuration that
    /// helps nothing measurably.
    pub min_improvement: Option<f64>,
    /// λ₁ of Eq. 2: when set, the post-change *total* workload cost must
    /// stay within `(1 + λ₁)` of the pre-change total (guards against
    /// configurations that trade one query's win for diffuse losses that
    /// each stay under λ₃).
    pub total_cost_tolerance: Option<f64>,
    /// Reject candidates no replayed plan uses.
    pub require_usage: bool,
    /// Maximum reject-and-revalidate rounds.
    pub max_rounds: usize,
    /// Validate on a sampled clone instead of a full copy (MyShadow's
    /// economical-test-bed sampling, §VII-B). `None` = full clone.
    pub sample_fraction: Option<f64>,
    /// Seed for the deterministic sample.
    pub sample_seed: u64,
    /// Replay worker threads (`0` = one per available core). Parallel
    /// replay engages only for pure-SELECT workloads, where the verdict is
    /// bit-identical for any worker count; workloads containing DML
    /// always replay sequentially so statements observe each other's
    /// mutations in workload order.
    pub workers: usize,
}

impl Default for ValidationConfig {
    fn default() -> Self {
        Self {
            regression_tolerance: 0.1,
            min_improvement: Some(0.05),
            total_cost_tolerance: Some(0.1),
            require_usage: true,
            max_rounds: 3,
            sample_fraction: None,
            sample_seed: 0x5A11,
            workers: 0,
        }
    }
}

/// What one replayed statement contributes to the validation verdict:
/// its measured cost and which of the candidate indexes its plan used
/// (`None` where execution failed).
type Observation = Option<(f64, BTreeSet<String>)>;

/// A plan an exemplar was executed with on the test bed, and what it cost.
type Measured = (Plan, f64);

fn observe(plan: &Plan, cost: f64, names: &[String]) -> Observation {
    let mut used_here: BTreeSet<String> = BTreeSet::new();
    for (_, choice) in plan.used_indexes() {
        if let IndexChoice::Secondary(name) = choice {
            if names.contains(&name) {
                used_here.insert(name);
            }
        }
    }
    Some((cost, used_here))
}

/// One replayed statement under the strict-mode contract: injected
/// (transient) failures propagate so the session loop can retry, while
/// deterministic failures degrade to `None` exactly as the lenient path
/// always did.
fn tolerate<T>(res: Result<T, ExecError>, strict: bool) -> Result<Option<T>, AimError> {
    match res {
        Ok(v) => Ok(Some(v)),
        Err(e) if strict && e.is_injected() => Err(AimError::from_exec("validation", e)),
        Err(_) => Ok(None),
    }
}

/// What every replay of one validation is given.
struct Replay<'a> {
    workload: &'a [WorkloadQuery],
    engine: &'a Engine,
    workers: usize,
    ctl: &'a RunCtl,
    strict: bool,
}

impl Replay<'_> {
    /// Replays a pure-SELECT workload against `db`, one observation per
    /// query, executing only what has not been measured yet.
    ///
    /// Every exemplar is opened — fault gate, planning — on `workers`
    /// scoped threads sharing the database read-only. Execution cost is a
    /// deterministic function of data + plan and nothing here changes the
    /// data, so a statement whose plan is execution-identical
    /// ([`Plan::same_execution`]) to one in `measured[i]` costs what was
    /// measured then and is not run again; any other plan is executed and
    /// joins `measured[i]`. Observations are therefore those of a full
    /// replay, for any worker count.
    fn read_only(
        &self,
        db: &Database,
        measured: &mut [Vec<Measured>],
        names: &[String],
    ) -> Result<Vec<Observation>, AimError> {
        enum Replayed {
            Known(usize),
            Executed(Measured),
        }
        let items: Vec<(&WorkloadQuery, &[Measured])> = self
            .workload
            .iter()
            .zip(measured.iter().map(Vec::as_slice))
            .collect();
        let workers = crate::ranking::effective_workers(self.workers, items.len());
        let replayed =
            crate::ranking::fan_out(&items, workers, self.ctl, "validation", |(wq, known)| {
                let Statement::Select(sel) = &wq.stats.exemplar else {
                    return Ok(None);
                };
                let res = self.engine.open_select(db, sel).and_then(|open| {
                    match known.iter().position(|(plan, _)| plan.same_execution(open.plan())) {
                        Some(k) => Ok(Replayed::Known(k)),
                        None => open.run().map(|out| Replayed::Executed((out.plan, out.cost))),
                    }
                });
                tolerate(res, self.strict)
            })?;
        let mut executed = 0u64;
        let mut reused = 0u64;
        let observations = replayed
            .into_iter()
            .zip(measured)
            .map(|(r, known)| {
                let (plan, cost) = match r? {
                    Replayed::Known(k) => {
                        reused += 1;
                        &known[k]
                    }
                    Replayed::Executed(m) => {
                        executed += 1;
                        known.push(m);
                        known.last().expect("just pushed")
                    }
                };
                observe(plan, *cost, names)
            })
            .collect();
        aim_telemetry::metrics::VALIDATION_EXECUTED.add(executed);
        aim_telemetry::metrics::VALIDATION_REUSED.add(reused);
        Ok(observations)
    }

    /// Replays a workload containing DML against `db`, in workload order
    /// on the calling thread: DML must see prior statements' mutations. The
    /// replay changes the data, so every statement is executed and nothing
    /// measured on another copy applies. SELECTs take the direct path,
    /// which leaves the live-traffic signal (`exec.select_cost`) alone.
    fn sequential(
        &self,
        db: &mut Database,
        names: &[String],
    ) -> Result<Vec<Observation>, AimError> {
        let mut out = Vec::with_capacity(self.workload.len());
        for wq in self.workload {
            self.ctl.check("validation")?;
            let res = match &wq.stats.exemplar {
                Statement::Select(sel) => self.engine.execute_select(db, sel),
                stmt => self.engine.execute(db, stmt),
            };
            out.push(tolerate(res, self.strict)?.and_then(|o| observe(&o.plan, o.cost, names)));
        }
        aim_telemetry::metrics::VALIDATION_EXECUTED.add(out.len() as u64);
        Ok(out)
    }
}

/// Clones the test bed: fault-gated (`storage.clone`) in strict mode so an
/// injected clone failure surfaces as a retryable fault; plain `Clone`
/// otherwise.
fn clone_db(db: &Database, strict: bool) -> Result<Database, AimError> {
    if strict {
        db.try_clone()
            .map_err(|e| AimError::from_exec("validation", ExecError::Storage(e)))
    } else {
        Ok(db.clone())
    }
}

/// Why a candidate was rejected during validation.
#[derive(Debug, Clone, PartialEq)]
pub enum RejectReason {
    /// No replayed query plan used the index.
    Unused,
    /// A query regressed beyond tolerance and this index was implicated.
    Regression {
        query: QueryFingerprint,
        before: f64,
        after: f64,
    },
    /// The index could not be materialized (duplicate columns etc.).
    Unbuildable(String),
    /// Eq. 3 failed: no query improved by at least λ₂.
    NoImprovement,
    /// Eq. 2 failed: total workload cost grew beyond λ₁.
    TotalCostRegression { before: f64, after: f64 },
    /// The reject-and-revalidate budget ran out before a round passed
    /// cleanly; unvalidated candidates are rejected rather than shipped
    /// (the guarantee is "no regression", not "best effort").
    RoundsExhausted,
}

/// Result of clone validation.
#[derive(Debug, Clone)]
pub struct ValidationOutcome {
    pub accepted: Vec<RankedCandidate>,
    pub rejected: Vec<(RankedCandidate, RejectReason)>,
}

/// Builds the `accepted` candidates on the test database `db`; those that
/// cannot be built move to `rejected`.
fn materialize(
    db: &mut Database,
    accepted: &mut Vec<RankedCandidate>,
    rejected: &mut Vec<(RankedCandidate, RejectReason)>,
    strict: bool,
) -> Result<(), AimError> {
    let mut io = IoStats::new();
    let mut buildable: Vec<RankedCandidate> = Vec::new();
    for r in accepted.drain(..) {
        let def = r.candidate.def();
        let exists = db
            .table(&r.candidate.table)
            .is_ok_and(|t| t.has_index_on(&r.candidate.columns));
        if exists {
            rejected.push((
                r,
                RejectReason::Unbuildable("identical index already exists".into()),
            ));
            continue;
        }
        match db.create_index(def, &mut io) {
            Ok(()) => buildable.push(r),
            Err(e) if strict && e.is_injected() => {
                // Transient build failure on the test bed: let the session
                // loop retry the validation rather than mislabelling the
                // candidate Unbuildable.
                return Err(AimError::from_exec("validation", ExecError::Storage(e)));
            }
            Err(e) => rejected.push((r, RejectReason::Unbuildable(e.to_string()))),
        }
    }
    *accepted = buildable;
    Ok(())
}

/// Validates `chosen` on a clone of `db` by replaying the workload's
/// exemplar statements.
pub fn validate_on_clone(
    db: &Database,
    workload: &[WorkloadQuery],
    chosen: &[RankedCandidate],
    engine: &Engine,
    cfg: &ValidationConfig,
) -> Result<ValidationOutcome, ExecError> {
    validate_core(db, workload, chosen, engine, cfg, &RunCtl::none(), false)
        .map_err(AimError::into_exec)
}

/// [`validate_on_clone`] under a [`RunCtl`]: replay workers observe the
/// deadline/cancel token between queries, clone operations are fault-gated
/// (`storage.clone`), and injected failures propagate as retryable
/// [`AimError::Fault`]s instead of silently dropping observations. On
/// success the verdict is bit-identical to the lenient path.
pub fn try_validate_on_clone(
    db: &Database,
    workload: &[WorkloadQuery],
    chosen: &[RankedCandidate],
    engine: &Engine,
    cfg: &ValidationConfig,
    ctl: &RunCtl,
) -> Result<ValidationOutcome, AimError> {
    validate_core(db, workload, chosen, engine, cfg, ctl, true)
}

fn validate_core(
    db: &Database,
    workload: &[WorkloadQuery],
    chosen: &[RankedCandidate],
    engine: &Engine,
    cfg: &ValidationConfig,
    ctl: &RunCtl,
    strict: bool,
) -> Result<ValidationOutcome, AimError> {
    let mut accepted: Vec<RankedCandidate> = chosen.to_vec();
    let mut rejected: Vec<(RankedCandidate, RejectReason)> = Vec::new();

    // The test bed: a full logical copy, or MyShadow's sampled one.
    let mut bed: Database = {
        let _s = aim_telemetry::span("clone_test_bed");
        match cfg.sample_fraction {
            Some(f) if f < 1.0 => db.sample(f, cfg.sample_seed),
            _ => clone_db(db, strict)?,
        }
    };

    // A pure-SELECT replay cannot mutate the database it runs on, so the
    // baseline and every round share the bed: candidates are built on it
    // once, a round drops what the round before rejected, and an exemplar
    // is executed only under a plan not yet measured in this validation
    // (`measured` never outlives this call — another pass has other data).
    // A workload containing DML changes what it replays on, so its baseline
    // and each of its rounds get a fresh copy of the bed and a full replay.
    let read_only = workload
        .iter()
        .all(|wq| matches!(wq.stats.exemplar, Statement::Select(_)));
    let mut measured: Vec<Vec<Measured>> = vec![Vec::new(); workload.len()];
    let replayer = Replay {
        workload,
        engine,
        workers: cfg.workers,
        ctl,
        strict,
    };
    let mut replay = |db: &mut Database, names: &[String]| {
        if read_only {
            replayer.read_only(db, &mut measured, names)
        } else {
            replayer.sequential(db, names)
        }
    };

    // Baseline measured costs, before any index is materialized.
    let _baseline_span = aim_telemetry::span("baseline_replay");
    let baseline_obs = if read_only {
        replay(&mut bed, &[])?
    } else {
        replay(&mut clone_db(&bed, strict)?, &[])?
    };
    let mut baseline: BTreeMap<QueryFingerprint, f64> = BTreeMap::new();
    for (wq, ob) in workload.iter().zip(&baseline_obs) {
        if let Some((cost, _)) = ob {
            baseline.insert(wq.stats.fingerprint, *cost);
        }
    }
    drop(_baseline_span);

    // Set only when a full round completes with nothing rejected — i.e.
    // the surviving set was actually re-validated as a whole.
    let mut clean_round = false;
    // `rejected[shed_from..]` is what the last round rejected: candidates
    // still built on the bed.
    let mut shed_from = 0;
    for round in 0..cfg.max_rounds {
        if accepted.is_empty() {
            clean_round = true;
            break;
        }
        ctl.check("validation")?;
        let _round_span = aim_telemetry::span("validation_round");
        aim_telemetry::metrics::VALIDATION_ROUNDS.incr();
        let mut round_clone;
        let db = if read_only {
            &mut bed
        } else {
            round_clone = clone_db(&bed, strict)?;
            &mut round_clone
        };
        if read_only && round > 0 {
            // The survivors are built already.
            for (r, _) in &rejected[shed_from..] {
                db.drop_index(&r.candidate.table, &r.candidate.name())
                    .map_err(|e| AimError::from_exec("validation", ExecError::Storage(e)))?;
            }
        } else {
            materialize(db, &mut accepted, &mut rejected, strict)?;
            // Nothing to do unless the source came with stale statistics:
            // an index build leaves them current.
            db.analyze_all();
        }
        shed_from = rejected.len();

        // Replay and observe usage + per-query costs.
        let names: Vec<String> = accepted.iter().map(|r| r.candidate.name()).collect();
        let mut used: BTreeSet<String> = BTreeSet::new();
        let mut regressions: Vec<(QueryFingerprint, f64, f64, BTreeSet<String>)> = Vec::new();
        let mut improved = false;
        let mut total_before = 0.0f64;
        let mut total_after = 0.0f64;
        let observations = replay(db, &names)?;
        for (wq, ob) in workload.iter().zip(observations) {
            let Some((after, used_here)) = ob else {
                continue;
            };
            used.extend(used_here.iter().cloned());
            if let Some(&before) = baseline.get(&wq.stats.fingerprint) {
                let weight = wq.stats.executions.max(1) as f64;
                total_before += before * weight;
                total_after += after * weight;
                if let Some(lambda2) = cfg.min_improvement {
                    if after < before * (1.0 - lambda2) {
                        improved = true;
                    }
                }
                if after > before * (1.0 + cfg.regression_tolerance) && before > 0.0 {
                    // For DML the implicated indexes are those on the
                    // written table; for SELECTs, the plan's new indexes.
                    let mut implicated = used_here;
                    if implicated.is_empty() {
                        if let Some(t) = wq.stats.exemplar.written_table() {
                            implicated = accepted
                                .iter()
                                .filter(|r| r.candidate.table == t)
                                .map(|r| r.candidate.name())
                                .collect();
                        }
                    }
                    regressions.push((wq.stats.fingerprint, before, after, implicated));
                }
            }
        }

        // Eq. 3 (λ₂): at least one query must improve measurably; if not,
        // the whole change set is pointless — reject everything and stop.
        if cfg.min_improvement.is_some() && !improved && !accepted.is_empty() {
            for r in accepted.drain(..) {
                rejected.push((r, RejectReason::NoImprovement));
            }
            break;
        }
        // Eq. 2 (λ₁): total workload cost must not grow materially; shed
        // the least-useful candidate and revalidate.
        if let Some(lambda1) = cfg.total_cost_tolerance {
            if total_before > 0.0 && total_after > total_before * (1.0 + lambda1) {
                if let Some(worst) = accepted
                    .iter()
                    .enumerate()
                    .min_by(|(_, a), (_, b)| a.utility().total_cmp(&b.utility()))
                    .map(|(i, _)| i)
                {
                    let r = accepted.remove(worst);
                    rejected.push((
                        r,
                        RejectReason::TotalCostRegression {
                            before: total_before,
                            after: total_after,
                        },
                    ));
                    continue;
                }
            }
        }

        let mut to_reject: BTreeMap<String, RejectReason> = BTreeMap::new();
        if cfg.require_usage {
            for r in &accepted {
                let name = r.candidate.name();
                if !used.contains(&name) {
                    to_reject.insert(name, RejectReason::Unused);
                }
            }
        }
        for (fp, before, after, implicated) in regressions {
            // Reject the least-useful implicated index first.
            let victim = accepted
                .iter()
                .filter(|r| implicated.contains(&r.candidate.name()))
                .min_by(|a, b| a.utility().total_cmp(&b.utility()))
                .map(|r| r.candidate.name());
            if let Some(name) = victim {
                to_reject
                    .entry(name)
                    .or_insert(RejectReason::Regression {
                        query: fp,
                        before,
                        after,
                    });
            }
        }

        if to_reject.is_empty() {
            clean_round = true;
            break;
        }
        let (keep, drop): (Vec<_>, Vec<_>) = accepted
            .into_iter()
            .partition(|r| !to_reject.contains_key(&r.candidate.name()));
        for r in drop {
            let reason = to_reject
                .get(&r.candidate.name())
                .cloned()
                .unwrap_or(RejectReason::Unused);
            rejected.push((r, reason));
        }
        accepted = keep;
    }

    // Rounds exhausted while still shedding: the remaining candidates were
    // never replayed as the final configuration — reject them instead of
    // shipping an unvalidated set.
    if !clean_round {
        for r in accepted.drain(..) {
            rejected.push((r, RejectReason::RoundsExhausted));
        }
    }

    if aim_telemetry::is_enabled() {
        aim_telemetry::event(
            aim_telemetry::EventKind::ValidationVerdict,
            "validate_on_clone",
            format!(
                "accepted {}, rejected {}, clean_round {}",
                accepted.len(),
                rejected.len(),
                clean_round
            ),
        );
    }
    Ok(ValidationOutcome { accepted, rejected })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::{generate_candidates, CandidateGenConfig};
    use crate::ranking::{knapsack_select, rank_candidates_with};
    use aim_exec::CostModel;
    use aim_monitor::{select_workload, SelectionConfig, WorkloadMonitor};
    use aim_sql::parse_statement;
    use aim_storage::{ColumnDef, ColumnType, IndexDef, TableSchema, Value};

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
        for i in 0..5000i64 {
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

    fn pipeline(
        db: &mut Database,
        sqls: &[(&str, usize)],
    ) -> (Vec<WorkloadQuery>, Vec<RankedCandidate>) {
        let engine = Engine::new();
        let mut m = WorkloadMonitor::new();
        for (sql, n) in sqls {
            let stmt = parse_statement(sql).unwrap();
            for _ in 0..*n {
                let out = engine.execute(db, &stmt).unwrap();
                m.record(&stmt, &out);
            }
        }
        let w = select_workload(
            &m,
            &SelectionConfig {
                min_executions: 1,
                min_benefit: 0.0,
                max_queries: 100,
                include_dml: true,
            },
        );
        let cands = generate_candidates(db, &w, &CandidateGenConfig::default());
        let ranked = rank_candidates_with(db, &w, &cands, &CostModel::default(), 0);
        let chosen = knapsack_select(&ranked, u64::MAX, 0);
        (w, chosen)
    }

    /// A candidate on `t(b)` that ranking did not propose.
    fn on_b(benefit: f64, maintenance: f64) -> RankedCandidate {
        RankedCandidate {
            candidate: crate::candidates::CandidateIndex {
                table: "t".into(),
                columns: vec!["b".into()],
                po: crate::partial_order::PartialOrder::chain(["b"]).unwrap(),
                sources: BTreeSet::new(),
            },
            size_bytes: 1,
            benefit,
            maintenance,
            benefiting_queries: Vec::new(),
        }
    }

    #[test]
    fn useful_index_is_accepted() {
        let mut db = db();
        let (w, chosen) = pipeline(&mut db, &[("SELECT id FROM t WHERE a = 5", 10)]);
        assert!(!chosen.is_empty());
        let outcome =
            validate_on_clone(&db, &w, &chosen, &Engine::new(), &ValidationConfig::default())
                .unwrap();
        assert!(!outcome.accepted.is_empty());
        assert!(outcome
            .accepted
            .iter()
            .any(|r| r.candidate.columns.contains(&"a".to_string())));
    }

    #[test]
    fn validation_does_not_touch_production() {
        let mut db = db();
        let (w, chosen) = pipeline(&mut db, &[("SELECT id FROM t WHERE a = 5", 10)]);
        let before = db.all_indexes().len();
        validate_on_clone(&db, &w, &chosen, &Engine::new(), &ValidationConfig::default())
            .unwrap();
        assert_eq!(db.all_indexes().len(), before);
    }

    #[test]
    fn unused_index_rejected() {
        let mut db = db();
        let (w, mut chosen) = pipeline(&mut db, &[("SELECT id FROM t WHERE a = 5", 10)]);
        // Inject a candidate the optimizer will never use: index on b for a
        // workload that only filters a.
        chosen.push(on_b(1.0, 0.0));
        let outcome =
            validate_on_clone(&db, &w, &chosen, &Engine::new(), &ValidationConfig::default())
                .unwrap();
        assert!(outcome
            .rejected
            .iter()
            .any(|(r, reason)| r.candidate.columns == vec!["b".to_string()]
                && *reason == RejectReason::Unused));
    }

    #[test]
    fn duplicate_of_existing_index_rejected() {
        let mut db = db();
        let (w, chosen) = pipeline(&mut db, &[("SELECT id FROM t WHERE a = 5", 10)]);
        // Pre-create the same index on "production".
        let mut io = IoStats::new();
        db.create_index(IndexDef::new("existing_a", "t", vec!["a".into()]), &mut io)
            .unwrap();
        let outcome =
            validate_on_clone(&db, &w, &chosen, &Engine::new(), &ValidationConfig::default())
                .unwrap();
        assert!(outcome
            .rejected
            .iter()
            .any(|(_, reason)| matches!(reason, RejectReason::Unbuildable(_))));
    }

    #[test]
    fn no_improvement_rejects_whole_change_set() {
        let mut db = db();
        let (w, chosen) = pipeline(&mut db, &[("SELECT id FROM t WHERE a = 5", 10)]);
        assert!(!chosen.is_empty());
        // An absurd λ₂ (99.9% improvement required) cannot be met: the
        // whole change set must be rejected with NoImprovement.
        let outcome = validate_on_clone(
            &db,
            &w,
            &chosen,
            &Engine::new(),
            &ValidationConfig {
                min_improvement: Some(0.999),
                ..Default::default()
            },
        )
        .unwrap();
        assert!(outcome.accepted.is_empty());
        assert!(outcome
            .rejected
            .iter()
            .all(|(_, reason)| *reason == RejectReason::NoImprovement));
    }

    #[test]
    fn lambda2_disabled_keeps_acceptance() {
        let mut db = db();
        let (w, chosen) = pipeline(&mut db, &[("SELECT id FROM t WHERE a = 5", 10)]);
        let outcome = validate_on_clone(
            &db,
            &w,
            &chosen,
            &Engine::new(),
            &ValidationConfig {
                min_improvement: None,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(!outcome.accepted.is_empty());
    }

    /// Execution-weighted cost of the workload replayed in order on a copy
    /// of `db` with exactly `built` materialized.
    fn replayed_total(db: &Database, w: &[WorkloadQuery], built: &[RankedCandidate]) -> f64 {
        let mut copy = db.clone();
        let mut io = IoStats::new();
        for r in built {
            copy.create_index(r.candidate.def(), &mut io).unwrap();
        }
        let engine = Engine::new();
        w.iter()
            .map(|wq| {
                let cost = engine.execute(&mut copy, &wq.stats.exemplar).unwrap().cost;
                cost * wq.stats.executions.max(1) as f64
            })
            .sum()
    }

    #[test]
    fn total_cost_guard_sheds_candidates() {
        let mut db = db();
        // A write-heavy workload plus one rare read. The read earns its
        // index on `a`; an index on `b`, which every write must maintain
        // and no statement reads through, only adds write amplification.
        // With a strict λ₁ the total-cost guard must not admit a
        // configuration that grows overall cost.
        let (w, mut chosen) = pipeline(
            &mut db,
            &[
                ("UPDATE t SET b = b + 1 WHERE id = 2", 400),
                ("SELECT id FROM t WHERE a = 5", 1),
            ],
        );
        db.analyze_all();
        assert!(!chosen.is_empty(), "ranking must propose the index on a");
        chosen.push(on_b(0.0, 1.0));
        let lambda1 = 0.0;
        let outcome = validate_on_clone(
            &db,
            &w,
            &chosen,
            &Engine::new(),
            &ValidationConfig {
                total_cost_tolerance: Some(lambda1),
                min_improvement: None,
                ..Default::default()
            },
        )
        .unwrap();
        // Every accepted candidate survived the λ₁ = 0 guard: replaying
        // the workload with them must not cost more than before.
        let before = replayed_total(&db, &w, &[]);
        let after = replayed_total(&db, &w, &outcome.accepted);
        assert!(!outcome.accepted.is_empty());
        assert!(
            after <= before * (1.0 + lambda1),
            "accepted configuration costs {after}, index-free {before}"
        );
        // The whole change set would have grown it, so the guard had to
        // shed something.
        assert!(replayed_total(&db, &w, &chosen) > before * (1.0 + lambda1));
        assert!(
            outcome
                .rejected
                .iter()
                .any(|(_, why)| matches!(why, RejectReason::TotalCostRegression { .. })),
            "rejected: {:?}",
            outcome.rejected.iter().map(|(r, why)| (r.candidate.name(), why.clone())).collect::<Vec<_>>()
        );
    }

    #[test]
    fn rounds_exhaustion_rejects_rather_than_ships() {
        let mut db = db();
        let (w, chosen) = pipeline(&mut db, &[("SELECT id FROM t WHERE a = 5", 10)]);
        assert!(!chosen.is_empty());
        // max_rounds = 0: no round can complete, so nothing may ship.
        let outcome = validate_on_clone(
            &db,
            &w,
            &chosen,
            &Engine::new(),
            &ValidationConfig {
                max_rounds: 0,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(outcome.accepted.is_empty());
        assert!(outcome
            .rejected
            .iter()
            .all(|(_, reason)| *reason == RejectReason::RoundsExhausted));
    }

    #[test]
    fn sampled_validation_still_accepts_useful_index() {
        let mut db = db();
        let (w, chosen) = pipeline(&mut db, &[("SELECT id FROM t WHERE a = 5", 10)]);
        assert!(!chosen.is_empty());
        let outcome = validate_on_clone(
            &db,
            &w,
            &chosen,
            &Engine::new(),
            &ValidationConfig {
                sample_fraction: Some(0.3),
                // Costs shrink with the sample; relax λ₂ so the signal
                // remains detectable on 30% of the data.
                min_improvement: Some(0.01),
                ..Default::default()
            },
        )
        .unwrap();
        assert!(
            !outcome.accepted.is_empty(),
            "rejected: {:?}",
            outcome.rejected.iter().map(|(r, why)| (r.candidate.name(), why.clone())).collect::<Vec<_>>()
        );
        // Production untouched either way.
        assert!(db.all_indexes().is_empty());
    }

    #[test]
    fn parallel_validation_matches_sequential_for_read_only_workload() {
        let mut db = db();
        let (w, chosen) = pipeline(
            &mut db,
            &[
                ("SELECT id FROM t WHERE a = 5", 10),
                ("SELECT id FROM t WHERE b = 2", 10),
                ("SELECT id FROM t WHERE a = 9 AND b = 1", 5),
            ],
        );
        assert!(!chosen.is_empty());
        let run = |workers: usize| {
            validate_on_clone(
                &db,
                &w,
                &chosen,
                &Engine::new(),
                &ValidationConfig {
                    workers,
                    ..Default::default()
                },
            )
            .unwrap()
        };
        let seq = run(1);
        let par = run(4);
        let names = |o: &ValidationOutcome| {
            (
                o.accepted.iter().map(|r| r.candidate.name()).collect::<Vec<_>>(),
                o.rejected
                    .iter()
                    .map(|(r, why)| (r.candidate.name(), why.clone()))
                    .collect::<Vec<_>>(),
            )
        };
        assert_eq!(names(&seq), names(&par));
    }

    #[test]
    fn usage_check_can_be_disabled() {
        let mut db = db();
        let (w, mut chosen) = pipeline(&mut db, &[("SELECT id FROM t WHERE a = 5", 10)]);
        chosen.push(on_b(1.0, 0.0));
        let outcome = validate_on_clone(
            &db,
            &w,
            &chosen,
            &Engine::new(),
            &ValidationConfig {
                require_usage: false,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(outcome
            .accepted
            .iter()
            .any(|r| r.candidate.columns == vec!["b".to_string()]));
    }
}
