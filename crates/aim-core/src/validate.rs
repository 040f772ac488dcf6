//! Clone validation: the "no regression" guarantee (§VII-B).
//!
//! Candidate indexes are materialized on a *clone* of the database (the
//! paper's MyShadow logical copy) and the workload's exemplar queries are
//! replayed. Three checks gate promotion to production:
//!
//! 1. **Improvement** — at least one query must get cheaper by λ₂ (Eq. 3),
//!    or the whole change set is rejected.
//! 2. **Usage** — the optimizer must actually pick each candidate for at
//!    least one workload query (Algorithm 1 line 3); what-if estimates can
//!    be wrong, and an unused index is pure overhead.
//! 3. **Per-query regression** — no query's measured cost may grow beyond
//!    `(1 + λ₃)` of its pre-change cost (Eq. 4). Offending indexes are
//!    rejected and validation repeats until stable.
//!
//! The total-cost guard (Eq. 2) is not a fourth check: with λ₁ = λ₃ it
//! holds in every round that passes Eq. 4, and debug builds assert it.

use crate::error::AimError;
use crate::ranking::RankedCandidate;
use crate::session::RunCtl;
use aim_exec::{CostStamp, Engine, ExecError, IndexChoice, OpenSelect, Plan};
use aim_monitor::WorkloadQuery;
use aim_sql::ast::{Select, Statement};
use aim_sql::normalize::QueryFingerprint;
use aim_storage::{Database, IoStats};
use std::collections::{BTreeMap, BTreeSet};

/// λ₂ of Eq. 3: the whole change set is rejected unless at least one query
/// improves by this relative margin — there is no point paying storage and
/// validation churn for a configuration that helps nothing measurably.
const MIN_IMPROVEMENT: f64 = 0.05;

/// Validation thresholds.
#[derive(Debug, Clone, PartialEq)]
pub struct ValidationConfig {
    /// λ₃ of Eq. 4: tolerated relative per-query cost growth. It is λ₁ of
    /// Eq. 2 as well: a round in which no query grows beyond `(1 + λ₃)`
    /// has a workload total within `(1 + λ₃)` of its baseline (DESIGN.md
    /// §2, "Eq. 2 holds by Eq. 4").
    pub regression_tolerance: f64,
    /// Maximum reject-and-revalidate rounds.
    pub max_rounds: usize,
    /// Read by nothing in `crates/`: validation replays on the calling
    /// thread. Kept only because `bench/` reads it; the next `benchmark`
    /// change deletes it.
    pub workers: usize,
}

impl Default for ValidationConfig {
    fn default() -> Self {
        Self {
            regression_tolerance: 0.1,
            max_rounds: 3,
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

/// `cost`, taken as what `open` costs on the bed without executing it: the
/// monitor's measurement of an exemplar whose stamp is the one it was
/// measured under, or this bed's measurement of an execution-identical
/// plan — same contents, same plan, same cost bits (DESIGN.md §18). Builds
/// with debug assertions — the test profile — execute the plan anyway and
/// hold it to those bits, so every validating test audits both rules.
fn audited(open: OpenSelect<'_>, sel: &Select, cost: f64, taken: &str) -> Result<Plan, ExecError> {
    if cfg!(debug_assertions) {
        let out = open.run()?;
        assert_eq!(
            out.cost.to_bits(),
            cost.to_bits(),
            "{sel}: costs {} on the bed, {cost} {taken}",
            out.cost
        );
        Ok(out.plan)
    } else {
        Ok(open.into_plan())
    }
}

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

/// One replayed statement: an injected failure aborts the validation, and
/// with it the pass, while a deterministic failure drops the observation
/// (`None`).
fn tolerate<T>(res: Result<T, ExecError>) -> Result<Option<T>, AimError> {
    match res {
        Ok(v) => Ok(Some(v)),
        Err(e) if e.is_injected() => Err(AimError::from_exec("validation", e)),
        Err(_) => Ok(None),
    }
}

/// What every replay of one validation is given.
struct Replay<'a> {
    workload: &'a [WorkloadQuery],
    engine: &'a Engine,
    ctl: &'a RunCtl,
}

impl Replay<'_> {
    /// Replays the workload against `db` in workload order, one
    /// observation per exemplar, executing every write and only the SELECTs
    /// not measured yet.
    ///
    /// Every SELECT is opened (fault gate, planning). Execution cost is a
    /// deterministic function of data + plan, and every replay of one
    /// validation starts from the bed's rows and applies the same writes in
    /// the same order, so exemplar `i` sees the same rows in each
    /// (DESIGN.md §18). A SELECT whose plan is execution-identical
    /// ([`Plan::same_execution`]) to one in `measured[i]` therefore costs
    /// what was measured then and is not run again. Nor is one the monitor
    /// measured under the stamp it has on `db` — none of its tables has
    /// changed since production was observed — which costs what the
    /// monitor recorded. Debug builds audit both ([`audited`]). Any other
    /// plan is executed; either way it joins `measured[i]`. Observations
    /// are therefore those of a full replay.
    fn run(
        &self,
        db: &mut Database,
        measured: &mut [Vec<Measured>],
        names: &[String],
    ) -> Result<Vec<Observation>, AimError> {
        let mut executed = 0u64;
        let mut reused = 0u64;
        let mut observations = Vec::with_capacity(self.workload.len());
        for (wq, known) in self.workload.iter().zip(measured) {
            self.ctl.check("validation")?;
            let Statement::Select(sel) = &wq.stats.exemplar else {
                let res = self.engine.execute_direct(db, &wq.stats.exemplar);
                executed += 1;
                observations.push(tolerate(res)?.and_then(|o| observe(&o.plan, o.cost, names)));
                continue;
            };
            let db = &*db;
            // The position in `known` of this plan's measurement.
            let res = self.engine.open_select(db, sel).and_then(|open| {
                if let Some(k) = known
                    .iter()
                    .position(|(plan, _)| plan.same_execution(open.plan()))
                {
                    let taken = "where an execution-identical plan was measured";
                    audited(open, sel, known[k].1, taken)?;
                    reused += 1;
                    return Ok(k);
                }
                let tables = sel.from.iter().map(|t| t.name.as_str());
                let m = match wq.stats.exemplar_cost {
                    Some((cost, seen)) if seen == CostStamp::of(db, tables) => {
                        let taken = "where the monitor saw it under the same stamp";
                        let plan = audited(open, sel, cost, taken)?;
                        reused += 1;
                        (plan, cost)
                    }
                    _ => {
                        let out = open.run()?;
                        executed += 1;
                        (out.plan, out.cost)
                    }
                };
                known.push(m);
                Ok(known.len() - 1)
            });
            observations.push(tolerate(res)?.and_then(|k| {
                let (plan, cost) = &known[k];
                observe(plan, *cost, names)
            }));
        }
        aim_telemetry::metrics::VALIDATION_EXECUTED.add(executed);
        aim_telemetry::metrics::VALIDATION_REUSED.add(reused);
        Ok(observations)
    }
}

/// Clones the test bed through the fault gate (`storage.clone`): an
/// injected clone failure aborts the validation. Without an armed fault
/// plan this is `db.clone()`.
fn clone_db(db: &Database) -> Result<Database, AimError> {
    db.try_clone()
        .map_err(|e| AimError::from_exec("validation", ExecError::Storage(e)))
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
    /// The test bed, as the last round left it: it holds every accepted
    /// index, built over rows it still shares with the source (a replay
    /// that writes runs on a copy), for [`Database::create_index_from`] to
    /// adopt.
    pub bed: Database,
}

/// Builds the `accepted` candidates on the test database `db`; those that
/// cannot be built move to `rejected`.
fn materialize(
    db: &mut Database,
    accepted: &mut Vec<RankedCandidate>,
    rejected: &mut Vec<(RankedCandidate, RejectReason)>,
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
            Err(e) if e.is_injected() => {
                // An injected build failure on the test bed aborts the
                // validation rather than mislabelling the candidate
                // Unbuildable.
                return Err(AimError::from_exec("validation", ExecError::Storage(e)));
            }
            Err(e) => rejected.push((r, RejectReason::Unbuildable(e.to_string()))),
        }
    }
    *accepted = buildable;
    Ok(())
}

/// Validates `chosen` on a clone of `db` by replaying the workload's
/// exemplar statements: [`try_validate_on_clone`] without a deadline or
/// cancel token, its error mapped back to an [`ExecError`].
pub fn validate_on_clone(
    db: &Database,
    workload: &[WorkloadQuery],
    chosen: &[RankedCandidate],
    engine: &Engine,
    cfg: &ValidationConfig,
) -> Result<ValidationOutcome, ExecError> {
    try_validate_on_clone(db, workload, chosen, engine, cfg, &RunCtl::none())
        .map_err(AimError::into_exec)
}

/// [`validate_on_clone`] under a [`RunCtl`]: the replay observes the
/// deadline/cancel token between queries. Clone operations are fault-gated
/// (`storage.clone`), and injected failures propagate as
/// [`AimError::Fault`]s instead of silently dropping observations.
pub fn try_validate_on_clone(
    db: &Database,
    workload: &[WorkloadQuery],
    chosen: &[RankedCandidate],
    engine: &Engine,
    cfg: &ValidationConfig,
    ctl: &RunCtl,
) -> Result<ValidationOutcome, AimError> {
    let mut accepted: Vec<RankedCandidate> = chosen.to_vec();
    let mut rejected: Vec<(RankedCandidate, RejectReason)> = Vec::new();

    // The test bed: a full logical copy, sharing every table with `db`
    // until one side writes it.
    let mut bed: Database = {
        let _s = aim_telemetry::span("clone_test_bed");
        clone_db(db)?
    };

    // The baseline and every round replay from the bed: candidates are
    // built on it once, a round drops what the round before rejected, and
    // a SELECT is executed only under a plan not yet measured at its
    // position in this validation (`measured` never outlives this call —
    // another pass has other data). A workload without writes replays on
    // the bed itself; one with writes replays on a copy of it, which
    // copies only the tables the writes touch.
    let writes = workload
        .iter()
        .any(|wq| !matches!(wq.stats.exemplar, Statement::Select(_)));
    let mut measured: Vec<Vec<Measured>> = vec![Vec::new(); workload.len()];
    let replayer = Replay {
        workload,
        engine,
        ctl,
    };
    let mut replay = |bed: &mut Database, names: &[String]| {
        if writes {
            replayer.run(&mut clone_db(bed)?, &mut measured, names)
        } else {
            replayer.run(bed, &mut measured, names)
        }
    };

    // Baseline measured costs, before any index is materialized.
    let _baseline_span = aim_telemetry::span("baseline_replay");
    let baseline_obs = replay(&mut bed, &[])?;
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
        if round == 0 {
            materialize(&mut bed, &mut accepted, &mut rejected)?;
            // Nothing to do unless the source came with stale statistics:
            // an index build leaves them current.
            bed.analyze_all();
        } else {
            // The survivors are built already.
            for (r, _) in &rejected[shed_from..] {
                bed.drop_index(&r.candidate.table, &r.candidate.name())
                    .map_err(|e| AimError::from_exec("validation", ExecError::Storage(e)))?;
            }
        }
        shed_from = rejected.len();

        // Replay and observe usage + per-query costs.
        let names: Vec<String> = accepted.iter().map(|r| r.candidate.name()).collect();
        let mut used: BTreeSet<String> = BTreeSet::new();
        let mut regressions: Vec<(QueryFingerprint, f64, f64, BTreeSet<String>)> = Vec::new();
        let mut improved = false;
        // Eq. 2 with λ₁ = λ₃, its right-hand side summed query by query so
        // that Eq. 4 implies it in floating point too (DESIGN.md §2).
        let mut total_after = 0.0f64;
        let mut total_bound = 0.0f64;
        let observations = replay(&mut bed, &names)?;
        for (wq, ob) in workload.iter().zip(observations) {
            let Some((after, used_here)) = ob else {
                continue;
            };
            used.extend(used_here.iter().cloned());
            if let Some(&before) = baseline.get(&wq.stats.fingerprint) {
                let weight = wq.stats.executions.max(1) as f64;
                let bound = before * (1.0 + cfg.regression_tolerance);
                total_after += after * weight;
                total_bound += bound * weight;
                if after < before * (1.0 - MIN_IMPROVEMENT) {
                    improved = true;
                }
                // A zero baseline bounds at zero: any cost at all regresses.
                if after > bound {
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
        if !improved && !accepted.is_empty() {
            for r in accepted.drain(..) {
                rejected.push((r, RejectReason::NoImprovement));
            }
            break;
        }

        let mut to_reject: BTreeMap<String, RejectReason> = BTreeMap::new();
        for r in &accepted {
            let name = r.candidate.name();
            if !used.contains(&name) {
                to_reject.insert(name, RejectReason::Unused);
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
                to_reject.entry(name).or_insert(RejectReason::Regression {
                    query: fp,
                    before,
                    after,
                });
            }
        }

        if to_reject.is_empty() {
            // Eq. 2 is not checked: in a round Eq. 4 passes it holds.
            debug_assert!(
                total_after <= total_bound,
                "Eq. 2 fails in a clean round: {total_after} > {total_bound}"
            );
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

    Ok(ValidationOutcome {
        accepted,
        rejected,
        bed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::{generate_candidates, CandidateGenConfig};
    use crate::ranking::{knapsack_select, try_rank_candidates_with};
    use aim_exec::WhatIfCache;
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
        let ranked =
            try_rank_candidates_with(db, &w, &cands, &RunCtl::none(), &WhatIfCache::new()).unwrap();
        let chosen = knapsack_select(&ranked, u64::MAX, 0);
        (w, chosen)
    }

    /// A candidate on `t(columns)` that ranking did not propose.
    fn on_t(columns: &[&str], benefit: f64, maintenance: f64) -> RankedCandidate {
        RankedCandidate {
            candidate: crate::candidates::CandidateIndex {
                table: "t".into(),
                columns: columns.iter().map(|c| c.to_string()).collect(),
                po: crate::partial_order::PartialOrder::chain(columns.iter().copied()).unwrap(),
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
        let outcome = validate_on_clone(
            &db,
            &w,
            &chosen,
            &Engine::new(),
            &ValidationConfig::default(),
        )
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
        validate_on_clone(
            &db,
            &w,
            &chosen,
            &Engine::new(),
            &ValidationConfig::default(),
        )
        .unwrap();
        assert_eq!(db.all_indexes().len(), before);
    }

    #[test]
    fn unused_index_rejected() {
        let mut db = db();
        let (w, mut chosen) = pipeline(&mut db, &[("SELECT id FROM t WHERE a = 5", 10)]);
        // Inject a candidate the optimizer will never use: index on b for a
        // workload that only filters a.
        chosen.push(on_t(&["b"], 1.0, 0.0));
        let outcome = validate_on_clone(
            &db,
            &w,
            &chosen,
            &Engine::new(),
            &ValidationConfig::default(),
        )
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
        let outcome = validate_on_clone(
            &db,
            &w,
            &chosen,
            &Engine::new(),
            &ValidationConfig::default(),
        )
        .unwrap();
        assert!(outcome
            .rejected
            .iter()
            .any(|(_, reason)| matches!(reason, RejectReason::Unbuildable(_))));
    }

    #[test]
    fn no_improvement_rejects_whole_change_set() {
        let mut db = db();
        // Production already serves the workload's one query through an
        // index on `a`; neither candidate can make it cheaper by λ₂.
        let mut io = IoStats::new();
        db.create_index(IndexDef::new("existing_a", "t", vec!["a".into()]), &mut io)
            .unwrap();
        let (w, _) = pipeline(&mut db, &[("SELECT id FROM t WHERE a = 5", 10)]);
        let chosen = [on_t(&["b"], 1.0, 0.0), on_t(&["b", "a"], 2.0, 0.0)];
        let outcome = validate_on_clone(
            &db,
            &w,
            &chosen,
            &Engine::new(),
            &ValidationConfig::default(),
        )
        .unwrap();
        // Neither is used either, but Eq. 3 judges first and rejects the
        // whole change set.
        assert!(outcome.accepted.is_empty());
        assert_eq!(outcome.rejected.len(), 2);
        assert!(outcome
            .rejected
            .iter()
            .all(|(_, reason)| *reason == RejectReason::NoImprovement));
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
        // The whole change set grows the total beyond λ₁ = λ₃; what
        // validation accepts must not.
        let (w, mut chosen) = pipeline(
            &mut db,
            &[
                ("UPDATE t SET b = b + 1 WHERE id = 2", 400),
                ("SELECT id FROM t WHERE a = 5", 1),
            ],
        );
        db.analyze_all();
        assert!(!chosen.is_empty(), "ranking must propose the index on a");
        chosen.push(on_t(&["b"], 0.0, 1.0));
        let cfg = ValidationConfig::default();
        let outcome = validate_on_clone(&db, &w, &chosen, &Engine::new(), &cfg).unwrap();
        let lambda = cfg.regression_tolerance;
        let before = replayed_total(&db, &w, &[]);
        let after = replayed_total(&db, &w, &outcome.accepted);
        assert!(!outcome.accepted.is_empty());
        assert!(
            after <= before * (1.0 + lambda),
            "accepted configuration costs {after}, index-free {before}"
        );
        assert!(replayed_total(&db, &w, &chosen) > before * (1.0 + lambda));
        assert!(
            outcome
                .rejected
                .iter()
                .any(|(r, _)| r.candidate.name() == "aim_t_b"),
            "rejected: {:?}",
            outcome
                .rejected
                .iter()
                .map(|(r, why)| (r.candidate.name(), why.clone()))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn total_cost_growth_rejects_only_the_index_that_caused_it() {
        let mut db = db();
        db.create_table(
            TableSchema::new(
                "u",
                vec![
                    ColumnDef::new("id", ColumnType::Int),
                    ColumnDef::new("x", ColumnType::Int),
                ],
                &["id"],
            )
            .unwrap(),
        )
        .unwrap();
        let mut io = IoStats::new();
        for i in 0..5000i64 {
            db.table_mut("u")
                .unwrap()
                .insert(vec![Value::Int(i), Value::Int(i % 100)], &mut io)
                .unwrap();
        }
        db.analyze_all();
        // 400 writes to `t` and one read of `u`. The read earns `u(x)`; an
        // index on `t(b)` only makes every write maintain it, so the total
        // grows past λ₁ and one write regresses past λ₃.
        let (w, mut chosen) = pipeline(
            &mut db,
            &[
                ("UPDATE t SET b = b + 1 WHERE id = 2", 400),
                ("SELECT id FROM u WHERE x = 5", 1),
            ],
        );
        let names: Vec<String> = chosen.iter().map(|r| r.candidate.name()).collect();
        assert_eq!(names, ["aim_u_x"]);
        // Ranked far above `u(x)`, so a rule that sheds the least useful
        // index rather than the one the regressed write maintains would
        // shed `u(x)`, which no regressed statement touches.
        chosen.push(on_t(&["b"], 1.0e9, 0.0));
        let outcome = validate_on_clone(
            &db,
            &w,
            &chosen,
            &Engine::new(),
            &ValidationConfig::default(),
        )
        .unwrap();
        let accepted: Vec<String> = outcome
            .accepted
            .iter()
            .map(|r| r.candidate.name())
            .collect();
        let rejected: Vec<(String, RejectReason)> = outcome
            .rejected
            .iter()
            .map(|(r, why)| (r.candidate.name(), why.clone()))
            .collect();
        assert_eq!(accepted, ["aim_u_x"], "rejected: {rejected:?}");
        assert_eq!(rejected, [("aim_t_b".to_string(), RejectReason::Unused)]);
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
}
