//! Candidate ranking and selection (§III-F, Eqs. 7–8).
//!
//! Each candidate's utility combines:
//!
//! * **benefit** `U₊(q, I)` — the relative what-if cost reduction of each
//!   benefiting query, scaled by that query's observed CPU consumption
//!   (Eq. 7), distributed among the candidate indexes the what-if plan
//!   actually uses, proportionally to their marginal contribution, and
//! * **maintenance** `u₋(i)` — the relative write-amplification overhead
//!   the index imposes on each DML statement, scaled by that statement's
//!   CPU (Eq. 8).
//!
//! Selection is a knapsack: candidates are taken in order of net utility
//! per byte of storage until the budget is exhausted.

use crate::candidates::{is_key_prefix, CandidateIndex};
use crate::error::AimError;
use crate::session::RunCtl;
use aim_exec::whatif::WhatIfEntry;
use aim_exec::{
    estimate_statement_cost, estimate_statement_cost_batch_until, CostModel, ExecError, HypoConfig,
    HypotheticalIndex,
};
use aim_monitor::WorkloadQuery;
use aim_sql::ast::{Select, Statement};
use aim_sql::normalize::QueryFingerprint;
use aim_storage::Database;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A candidate with its computed economics.
#[derive(Debug, Clone)]
pub struct RankedCandidate {
    pub candidate: CandidateIndex,
    /// Estimated size in bytes (hypothetical-index estimate).
    pub size_bytes: u64,
    /// Total expected CPU benefit over the observation window (cost units).
    pub benefit: f64,
    /// Total expected maintenance overhead over the window (cost units).
    pub maintenance: f64,
    /// Per-query benefit attribution — the "metrics driven explanation"
    /// that accompanies each recommendation.
    pub benefiting_queries: Vec<(QueryFingerprint, f64)>,
}

impl RankedCandidate {
    /// Net utility `u(i)` (Eq. 7 minus Eq. 8).
    pub fn utility(&self) -> f64 {
        self.benefit - self.maintenance
    }

    /// Utility per byte — the knapsack ordering key.
    pub fn density(&self) -> f64 {
        self.utility() / self.size_bytes.max(1) as f64
    }

    /// Human-readable explanation of the recommendation.
    pub fn explanation(&self) -> String {
        format!(
            "index {} on {}({}): benefit {:.1} cost-units/window over {} queries, \
             maintenance {:.1}, size {} bytes, net utility {:.1}",
            self.candidate.name(),
            self.candidate.table,
            self.candidate.columns.join(", "),
            self.benefit,
            self.benefiting_queries.len(),
            self.maintenance,
            self.size_bytes,
            self.utility()
        )
    }
}

/// The SELECT whose cost stands in for `cost_r(q, X)`: SELECTs cost
/// themselves; UPDATE/DELETE cost their row-location step.
fn benefit_select(stmt: &Statement) -> Option<Cow<'_, Select>> {
    match stmt {
        Statement::Select(s) => Some(Cow::Borrowed(s)),
        dml => dml.row_location().map(Cow::Owned),
    }
}

/// A buildable candidate: its position in the candidate list and its
/// hypothetical index.
type Hypo = (usize, Arc<HypotheticalIndex>);

/// The buildable candidates, in candidate order, and the two lookups every
/// query evaluation makes — built once per ranking, so a query reads its
/// lists instead of scanning all candidates for them. Each list keeps
/// candidate order.
struct Hypos<'a> {
    all: Vec<Hypo>,
    /// Positions in `all` of the candidates generated for a query.
    by_source: BTreeMap<QueryFingerprint, Vec<usize>>,
    /// Positions in `all` of the candidates on a table.
    by_table: BTreeMap<&'a str, Vec<usize>>,
}

impl<'a> Hypos<'a> {
    /// Builds the hypothetical indexes, dropping unbuildable candidates.
    fn build(db: &Database, candidates: &'a [CandidateIndex]) -> Self {
        let mut hypos = Hypos {
            all: Vec::new(),
            by_source: BTreeMap::new(),
            by_table: BTreeMap::new(),
        };
        for (i, c) in candidates.iter().enumerate() {
            let Some(h) = HypotheticalIndex::build(db, c.def()) else {
                continue;
            };
            let at = hypos.all.len();
            for source in &c.sources {
                hypos.by_source.entry(*source).or_default().push(at);
            }
            hypos.by_table.entry(&c.table).or_default().push(at);
            hypos.all.push((i, Arc::new(h)));
        }
        hypos
    }

    fn listed(&self, positions: Option<&Vec<usize>>) -> Vec<Hypo> {
        let positions = positions.map_or(&[][..], Vec::as_slice);
        positions.iter().map(|&at| self.all[at].clone()).collect()
    }
}

/// What one workload query contributes to the ranking: benefit shares and
/// maintenance overheads per candidate index. Evaluating a query is a pure
/// function of `(db, query, candidates)`, which is what makes the
/// per-query fan-out below safe; merging contributions *in workload order*
/// is what makes it bit-identical to the sequential pass.
struct QueryContribution {
    fingerprint: QueryFingerprint,
    /// `(candidate index, benefit share)` in plan-usage order.
    benefit: Vec<(usize, f64)>,
    /// `(candidate index, maintenance overhead)` in candidate order.
    maintenance: Vec<(usize, f64)>,
}

/// Classifies an error from a what-if / estimate call: in strict mode an
/// *injected* (transient) failure aborts the evaluation so the session can
/// retry it; deterministic errors always fall back to `fallback`, exactly
/// as the original sequential pass did.
fn cost_or(
    res: Result<f64, ExecError>,
    fallback: f64,
    strict: bool,
) -> Result<f64, AimError> {
    match res {
        Ok(c) => Ok(c),
        Err(e) if strict && e.is_injected() => Err(AimError::from_exec("ranking", e)),
        Err(_) => Ok(fallback),
    }
}

/// Runs one batched what-if evaluation under `ctl`: the batch consults the
/// deadline and cancel token before every slot, and an interrupted batch
/// becomes the abort that interrupted it, attributed to `phase` — so a
/// cancel or deadline lands within one what-if call however many slots the
/// batch has.
pub(crate) fn under_ctl<T>(
    ctl: &RunCtl,
    phase: &'static str,
    batch: impl FnOnce(&dyn Fn() -> bool) -> Option<T>,
) -> Result<T, AimError> {
    let abort = std::cell::Cell::new(None);
    let out = batch(&|| match ctl.check(phase) {
        Ok(()) => false,
        Err(e) => {
            abort.set(Some(e));
            true
        }
    });
    out.ok_or_else(|| {
        abort
            .take()
            .expect("only the abort check interrupts a batch")
    })
}

/// How [`eval_query`] prices one statement under N configurations: through
/// the one what-if entry point either way, so both variants make the same
/// what-if calls in the same order, return their results in `configs`
/// order, rank bit-identically (unit and property tests enforce this) and
/// fire fault-injection sites in the same order.
#[derive(Clone, Copy)]
enum Costing {
    /// One N-slot call, so parsing, binding, probe contexts and index
    /// prices are shared across the configs: the hot path.
    Batched,
    /// N one-slot calls: the reference behind
    /// [`rank_candidates_unbatched`].
    PerConfig,
}

impl Costing {
    /// Prices `configs` through `call`, one what-if call per slice this
    /// costing cuts them into, each under `ctl`.
    fn price<T>(
        self,
        configs: &[&HypoConfig],
        ctl: &RunCtl,
        call: impl Fn(&[&HypoConfig], &dyn Fn() -> bool) -> Option<Vec<T>>,
    ) -> Result<Vec<T>, AimError> {
        let slots = match self {
            Costing::Batched => configs.len().max(1),
            Costing::PerConfig => 1,
        };
        let mut out = Vec::with_capacity(configs.len());
        for slice in configs.chunks(slots) {
            out.extend(under_ctl(ctl, "ranking", |stop| call(slice, stop))?);
        }
        Ok(out)
    }

    fn selects(
        self,
        db: &Database,
        select: &Select,
        configs: &[&HypoConfig],
        cm: &CostModel,
        ctl: &RunCtl,
    ) -> Result<Vec<Result<WhatIfEntry, ExecError>>, AimError> {
        let cache = aim_exec::whatif::global();
        self.price(configs, ctl, |slice, stop| {
            cache.eval_select_batch_until(db, select, slice, cm, stop)
        })
    }

    fn statements(
        self,
        db: &Database,
        stmt: &Statement,
        configs: &[&HypoConfig],
        cm: &CostModel,
        ctl: &RunCtl,
    ) -> Result<Vec<Result<f64, ExecError>>, AimError> {
        self.price(configs, ctl, |slice, stop| {
            estimate_statement_cost_batch_until(db, stmt, slice, cm, stop)
        })
    }
}

/// Evaluates one workload query against all candidates (Eqs. 7–8): the
/// `[empty, relevant]` pair, the marginal "config minus one index" probes,
/// and the DML maintenance singletons each go through one [`Costing`]
/// request.
///
/// With `strict` set, injected (transient) failures propagate instead of
/// degrading to ∞/0 fallbacks — the resilient session retries them; the
/// numeric behaviour on the success path is unchanged either way.
#[allow(clippy::too_many_arguments)]
fn eval_query(
    db: &Database,
    wq: &WorkloadQuery,
    hypos: &Hypos,
    empty_cfg: &HypoConfig,
    cm: &CostModel,
    strict: bool,
    costing: Costing,
    ctl: &RunCtl,
) -> Result<QueryContribution, AimError> {
    let mut out = QueryContribution {
        fingerprint: wq.stats.fingerprint,
        benefit: Vec::new(),
        maintenance: Vec::new(),
    };

    // ---------------------------------------------------- benefit (Eq. 7)
    if let Some(select) = benefit_select(&wq.stats.exemplar) {
        // Candidates generated for this query.
        let relevant = hypos.listed(hypos.by_source.get(&wq.stats.fingerprint));
        if !relevant.is_empty() {
            let cfg =
                HypoConfig::shared(relevant.iter().map(|(_, h)| Arc::clone(h)).collect());
            // The empty baseline, then the full relevant config.
            let mut pair = costing.selects(db, &select, &[empty_cfg, &cfg], cm, ctl)?.into_iter();
            let cost_empty = cost_or(
                pair.next().expect("one result per config").map(|e| e.cost),
                f64::INFINITY,
                strict,
            )?;
            let entry = match pair.next().expect("one result per config") {
                Ok(e) => Some(e),
                Err(e) if strict && e.is_injected() => {
                    return Err(AimError::from_exec("ranking", e));
                }
                Err(_) => None,
            };
            if let Some(entry) = entry {
                let cost_with = entry.cost;
                if cost_empty.is_finite() && cost_empty > 0.0 && cost_with < cost_empty {
                    let u_plus = (cost_empty - cost_with) / cost_empty * wq.stats.total_cpu;
                    // Which relevant hypos did the plan use? The cache
                    // remembers them by definition identity, which is
                    // stable across config orderings (unlike positions).
                    let used: Vec<usize> = entry
                        .used_hypos
                        .iter()
                        .filter_map(|dk| {
                            relevant
                                .iter()
                                .find(|(_, h)| h.def_key() == *dk)
                                .map(|(i, _)| *i)
                        })
                        .collect();
                    if !used.is_empty() {
                        // Shares proportional to marginal contribution:
                        // every "config minus one index" probe. They share
                        // the already-built Arcs and their costs are
                        // memoized, so overlapping subsets across used
                        // indexes (and across queries with the same
                        // relevant set) are planned once.
                        let withouts: Vec<HypoConfig> = used
                            .iter()
                            .map(|&uix| {
                                HypoConfig::shared(
                                    relevant
                                        .iter()
                                        .filter(|(i, _)| *i != uix)
                                        .map(|(_, h)| Arc::clone(h))
                                        .collect(),
                                )
                            })
                            .collect();
                        let without_refs: Vec<&HypoConfig> = withouts.iter().collect();
                        let mut marginals: Vec<f64> = Vec::with_capacity(used.len());
                        for res in costing.selects(db, &select, &without_refs, cm, ctl)? {
                            let c_without =
                                cost_or(res.map(|e| e.cost), cost_empty, strict)?;
                            marginals.push((c_without - cost_with).max(0.0));
                        }
                        let total: f64 = marginals.iter().sum();
                        for (&uix, &m) in used.iter().zip(&marginals) {
                            let share = if total > 0.0 {
                                m / total
                            } else {
                                1.0 / used.len() as f64
                            };
                            out.benefit.push((uix, share * u_plus));
                        }
                    }
                }
            }
        }
    }

    // ------------------------------------------------ maintenance (Eq. 8)
    if wq.stats.is_dml() {
        let stmt = &wq.stats.exemplar;
        ctl.check("ranking")?;
        let base = cost_or(estimate_statement_cost(db, stmt, empty_cfg, cm), 0.0, strict)?;
        if base > 0.0 {
            // Only indexes on the written table can be affected.
            let affected = hypos.listed(stmt.written_table().and_then(|t| hypos.by_table.get(t)));
            if !affected.is_empty() {
                let ones: Vec<HypoConfig> = affected
                    .iter()
                    .map(|(_, h)| HypoConfig::shared(vec![Arc::clone(h)]))
                    .collect();
                let one_refs: Vec<&HypoConfig> = ones.iter().collect();
                let results = costing.statements(db, stmt, &one_refs, cm, ctl)?;
                for ((i, _), res) in affected.iter().zip(results) {
                    let with = cost_or(res, base, strict)?;
                    let overhead = ((with - base) / base).max(0.0) * wq.stats.total_cpu;
                    out.maintenance.push((*i, overhead));
                }
            }
        }
    }

    Ok(out)
}

/// Resolves a worker-count knob: `0` means [`std::thread::available_parallelism`],
/// and the result is clamped to `[1, items]` so small inputs never spawn
/// idle threads.
pub(crate) fn effective_workers(requested: usize, items: usize) -> usize {
    let w = if requested == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        requested
    };
    w.clamp(1, items.max(1))
}

/// Maps `f` over `items` on `workers` (already resolved by
/// [`effective_workers`]) scoped threads, one contiguous chunk each, and
/// returns the results in input order: chunks are joined in spawn order,
/// so the output — and, when several items fail, which error wins — are
/// those of the sequential loop one worker runs. Every worker checks `ctl`
/// before each item, attributing an abort to `phase`, and the whole call
/// fails on the first error (never a partial result).
///
/// Workers adopt a trace context so their span subtrees (per-item
/// `exec.whatif` / `exec.select` timings) stitch back into the caller's
/// open span instead of dying with the scoped threads.
pub(crate) fn fan_out<T: Sync, R: Send>(
    items: &[T],
    workers: usize,
    ctl: &RunCtl,
    phase: &'static str,
    f: impl Fn(&T) -> Result<R, AimError> + Sync,
) -> Result<Vec<R>, AimError> {
    let run = |chunk: &[T]| -> Result<Vec<R>, AimError> {
        let mut out = Vec::with_capacity(chunk.len());
        for item in chunk {
            ctl.check(phase)?;
            out.push(f(item)?);
        }
        Ok(out)
    };
    if workers <= 1 {
        return run(items);
    }
    let trace = aim_telemetry::trace::fork();
    let (run, trace_ref) = (&run, &trace);
    let scoped = std::thread::scope(|s| {
        let handles: Vec<_> = items
            .chunks(items.len().div_ceil(workers))
            .map(|chunk| {
                s.spawn(move || {
                    let _adopt = trace_ref.adopt();
                    run(chunk)
                })
            })
            .collect();
        let mut all = Vec::with_capacity(items.len());
        for h in handles {
            all.extend(h.join().expect("fan-out worker panicked")?);
        }
        Ok(all)
    });
    // Stitch even when the phase aborts: partial worker profiles are real
    // time spent and must not leak into the pending buffer.
    trace.stitch();
    scoped
}

/// Ranks candidates against the workload: returns them with their
/// benefit/maintenance economics, sorted by descending utility density.
/// `workers` is the worker count (`0` = one per available core).
///
/// Workload queries are evaluated independently — each produces a
/// [`QueryContribution`] — through `fan_out`, then merged on the calling
/// thread *in workload order*. Since f64 accumulation happens in the same
/// order as the sequential loop, the output is bit-identical for any
/// worker count.
pub fn rank_candidates_with(
    db: &Database,
    workload: &[WorkloadQuery],
    candidates: &[CandidateIndex],
    cm: &CostModel,
    workers: usize,
) -> Vec<RankedCandidate> {
    rank_core(db, workload, candidates, cm, workers, &RunCtl::none(), false, Costing::Batched)
        .expect("lenient ranking without deadline or cancel cannot fail")
}

/// [`rank_candidates_with`] costed one config per what-if call — the
/// reference the batched hot path must match bit for bit (unit and
/// property tests compare the two).
pub fn rank_candidates_unbatched(
    db: &Database,
    workload: &[WorkloadQuery],
    candidates: &[CandidateIndex],
    cm: &CostModel,
    workers: usize,
) -> Vec<RankedCandidate> {
    rank_core(db, workload, candidates, cm, workers, &RunCtl::none(), false, Costing::PerConfig)
        .expect("lenient ranking without deadline or cancel cannot fail")
}

/// [`rank_candidates_with`] under a [`RunCtl`]: workers check the
/// deadline/cancel token before every what-if call (between queries and
/// between the slots of a batch), so an abort lands within one call per
/// worker, and injected (transient)
/// what-if failures propagate as retryable [`AimError::Fault`]s instead of
/// silently degrading a candidate's economics. On success the output is
/// bit-identical to the lenient path for any worker count.
pub fn try_rank_candidates_with(
    db: &Database,
    workload: &[WorkloadQuery],
    candidates: &[CandidateIndex],
    cm: &CostModel,
    workers: usize,
    ctl: &RunCtl,
) -> Result<Vec<RankedCandidate>, AimError> {
    rank_core(db, workload, candidates, cm, workers, ctl, true, Costing::Batched)
}

#[allow(clippy::too_many_arguments)]
fn rank_core(
    db: &Database,
    workload: &[WorkloadQuery],
    candidates: &[CandidateIndex],
    cm: &CostModel,
    workers: usize,
    ctl: &RunCtl,
    strict: bool,
    costing: Costing,
) -> Result<Vec<RankedCandidate>, AimError> {
    let hypos = Hypos::build(db, candidates);
    let empty_cfg = HypoConfig::only(Vec::new());
    // Workers observe aborts between queries and, inside a query, before
    // every what-if call.
    let workers = effective_workers(workers, workload.len());
    let contributions = fan_out(workload, workers, ctl, "ranking", |wq| {
        eval_query(db, wq, &hypos, &empty_cfg, cm, strict, costing, ctl)
    })?;

    // An abort that arrived during the last what-if call belongs to this
    // phase, not to whichever phase checks next.
    ctl.check("ranking")?;

    let mut benefit: BTreeMap<usize, f64> = BTreeMap::new();
    let mut maintenance: BTreeMap<usize, f64> = BTreeMap::new();
    let mut attribution: BTreeMap<usize, Vec<(QueryFingerprint, f64)>> = BTreeMap::new();
    for c in contributions {
        for (i, b) in c.benefit {
            *benefit.entry(i).or_default() += b;
            attribution.entry(i).or_default().push((c.fingerprint, b));
        }
        for (i, m) in c.maintenance {
            *maintenance.entry(i).or_default() += m;
        }
    }

    let mut ranked: Vec<RankedCandidate> = hypos
        .all
        .into_iter()
        .map(|(i, h)| RankedCandidate {
            candidate: candidates[i].clone(),
            size_bytes: h.size_bytes,
            benefit: benefit.get(&i).copied().unwrap_or(0.0),
            maintenance: maintenance.get(&i).copied().unwrap_or(0.0),
            benefiting_queries: attribution.remove(&i).unwrap_or_default(),
        })
        .collect();
    ranked.sort_by(|a, b| b.density().total_cmp(&a.density()));
    Ok(ranked)
}

/// One knapsack verdict with its budget arithmetic — the decision-ledger
/// view of [`knapsack_select`].
#[derive(Debug, Clone)]
pub struct KnapsackDecision {
    /// Candidate index name.
    pub name: String,
    pub accepted: bool,
    /// Budget bytes remaining before this candidate was considered.
    pub remaining_before: u64,
    /// Bytes freed by absorbing already-chosen prefix indexes (0 when no
    /// absorption applies).
    pub reclaimed: u64,
    /// Budget bytes remaining after the decision (unchanged on reject).
    pub remaining_after: u64,
    /// Human-readable arithmetic behind the verdict.
    pub reason: String,
}

/// Knapsack selection: greedily takes candidates in density order while the
/// storage budget holds and net utility stays positive. `used_bytes` is
/// storage already consumed by pre-existing indexes that count against the
/// budget.
pub fn knapsack_select(
    ranked: &[RankedCandidate],
    budget_bytes: u64,
    used_bytes: u64,
) -> Vec<RankedCandidate> {
    knapsack(ranked, budget_bytes, used_bytes, None)
}

/// The knapsack loop behind [`knapsack_select`]. With `explain` present a
/// [`KnapsackDecision`] for *every* ranked candidate is pushed onto it, in
/// consideration order; its reason is formatted only then, so the plain
/// selection pays for none of it.
pub fn knapsack(
    ranked: &[RankedCandidate],
    budget_bytes: u64,
    used_bytes: u64,
    mut explain: Option<&mut Vec<KnapsackDecision>>,
) -> Vec<RankedCandidate> {
    let mut remaining = budget_bytes.saturating_sub(used_bytes);
    let mut chosen: Vec<RankedCandidate> = Vec::new();
    for r in ranked {
        let before = remaining;
        let mut verdict = |accepted: bool, reclaimed: u64, after: u64, reason: &dyn Fn() -> String| {
            if let Some(decisions) = explain.as_deref_mut() {
                decisions.push(KnapsackDecision {
                    name: r.candidate.name(),
                    accepted,
                    remaining_before: before,
                    reclaimed,
                    remaining_after: after,
                    reason: reason(),
                });
            }
        };
        if r.utility() <= 0.0 {
            verdict(false, 0, before, &|| {
                format!(
                    "net utility {:.1} <= 0 (benefit {:.1} - maintenance {:.1}): \
                     not worth any budget",
                    r.utility(),
                    r.benefit,
                    r.maintenance
                )
            });
            continue;
        }
        // A candidate whose key columns are a prefix of an already chosen
        // index on the same table adds no access path the wider one lacks;
        // keeping it would only burn budget (the paper's limited
        // index-interaction accounting handles exactly this case through
        // merging; the selection must not undo it).
        let serving = chosen.iter().find(|c| {
            c.candidate.table == r.candidate.table
                && is_key_prefix(&r.candidate.columns, &c.candidate.columns)
        });
        if let Some(wide) = serving {
            verdict(false, 0, before, &|| {
                format!(
                    "key columns are a prefix of already-chosen {}: adds no access path",
                    wide.candidate.name()
                )
            });
            continue;
        }
        // A wider candidate absorbs any previously chosen strict prefix of
        // itself, reclaiming that budget — so fit is checked against
        // remaining *plus* what absorption would free.
        let absorbs = |c: &RankedCandidate| {
            c.candidate.table == r.candidate.table
                && c.candidate.columns.len() < r.candidate.columns.len()
                && is_key_prefix(&c.candidate.columns, &r.candidate.columns)
        };
        let reclaimable: u64 = chosen.iter().filter(|c| absorbs(c)).map(|c| c.size_bytes).sum();
        if r.size_bytes <= remaining + reclaimable {
            remaining = remaining + reclaimable - r.size_bytes;
            verdict(true, reclaimable, remaining, &|| {
                let absorbed: Vec<String> = chosen
                    .iter()
                    .filter(|c| absorbs(c))
                    .map(|c| c.candidate.name())
                    .collect();
                let absorbed_note = if absorbed.is_empty() {
                    String::new()
                } else {
                    format!(", absorbing {} ({} bytes reclaimed)", absorbed.join(", "), reclaimable)
                };
                format!(
                    "fits: {} bytes <= {} remaining{absorbed_note}; {} bytes left",
                    r.size_bytes,
                    before + reclaimable,
                    remaining
                )
            });
            chosen.retain(|c| !absorbs(c));
            chosen.push(r.clone());
        } else {
            verdict(false, reclaimable, before, &|| {
                format!(
                    "does not fit: needs {} bytes, only {} remaining (budget {}, \
                     pre-used {}, reclaimable {})",
                    r.size_bytes,
                    before + reclaimable,
                    budget_bytes,
                    used_bytes,
                    reclaimable
                )
            });
        }
    }
    chosen
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::{generate_candidates, CandidateGenConfig};
    use aim_exec::Engine;
    use aim_monitor::{select_workload, SelectionConfig, WorkloadMonitor};
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
        for i in 0..5000i64 {
            db.table_mut("t")
                .unwrap()
                .insert(
                    vec![
                        Value::Int(i),
                        Value::Int(i % 100),
                        Value::Int(i % 10),
                        Value::Int(i % 1000),
                    ],
                    &mut io,
                )
                .unwrap();
        }
        db.analyze_all();
        db
    }

    fn workload(db: &mut Database, sqls: &[(&str, usize)]) -> Vec<WorkloadQuery> {
        let engine = Engine::new();
        let mut m = WorkloadMonitor::new();
        for (sql, n) in sqls {
            let stmt = parse_statement(sql).unwrap();
            for _ in 0..*n {
                let out = engine.execute(db, &stmt).unwrap();
                m.record(&stmt, &out);
            }
        }
        select_workload(
            &m,
            &SelectionConfig {
                min_executions: 1,
                min_benefit: 0.0,
                max_queries: 100,
                include_dml: true,
            },
        )
    }

    fn rank_for(db: &mut Database, sqls: &[(&str, usize)]) -> Vec<RankedCandidate> {
        let w = workload(db, sqls);
        let cands = generate_candidates(db, &w, &CandidateGenConfig::default());
        rank_candidates_with(db, &w, &cands, &CostModel::default(), 0)
    }

    #[test]
    fn beneficial_candidate_has_positive_utility() {
        let mut db = db();
        let ranked = rank_for(&mut db, &[("SELECT id FROM t WHERE a = 5", 20)]);
        assert!(!ranked.is_empty());
        let top = &ranked[0];
        assert!(top.benefit > 0.0, "{}", top.explanation());
        assert!(top.utility() > 0.0);
        assert!(top.candidate.columns.contains(&"a".to_string()));
        assert!(!top.benefiting_queries.is_empty());
    }

    #[test]
    fn hot_query_candidate_ranks_above_cold() {
        let mut db = db();
        let ranked = rank_for(
            &mut db,
            &[
                ("SELECT id FROM t WHERE a = 5", 50),
                ("SELECT id FROM t WHERE c = 7", 1),
            ],
        );
        let pos_a = ranked
            .iter()
            .position(|r| r.candidate.columns == vec!["a".to_string()])
            .unwrap();
        let pos_c = ranked
            .iter()
            .position(|r| r.candidate.columns == vec!["c".to_string()])
            .unwrap();
        assert!(pos_a < pos_c, "hot-query index should rank first");
    }

    #[test]
    fn dml_heavy_workload_penalizes_maintenance() {
        let mut db = db();
        let ranked = rank_for(
            &mut db,
            &[
                ("SELECT id FROM t WHERE a = 5", 2),
                ("UPDATE t SET a = 3 WHERE id = 17", 200),
            ],
        );
        let r = ranked
            .iter()
            .find(|r| r.candidate.columns == vec!["a".to_string()])
            .unwrap();
        assert!(r.maintenance > 0.0, "{}", r.explanation());
    }

    #[test]
    fn knapsack_respects_budget() {
        let mut db = db();
        let ranked = rank_for(
            &mut db,
            &[
                ("SELECT id FROM t WHERE a = 5", 20),
                ("SELECT id FROM t WHERE c = 7", 20),
                ("SELECT id FROM t WHERE b = 2 AND c > 100", 20),
            ],
        );
        let all_sizes: u64 = ranked.iter().map(|r| r.size_bytes).sum();
        let unlimited = knapsack_select(&ranked, u64::MAX, 0);
        let limited = knapsack_select(&ranked, all_sizes / 3, 0);
        assert!(limited.len() < unlimited.len());
        let used: u64 = limited.iter().map(|r| r.size_bytes).sum();
        assert!(used <= all_sizes / 3);
    }

    #[test]
    fn knapsack_skips_negative_utility() {
        let mut db = db();
        // Pure write workload: every index has negative or zero utility.
        let ranked = rank_for(
            &mut db,
            &[("UPDATE t SET a = 3 WHERE id = 17", 100)],
        );
        let chosen = knapsack_select(&ranked, u64::MAX, 0);
        assert!(chosen.iter().all(|c| c.utility() > 0.0));
    }

    #[test]
    fn pre_used_budget_reduces_capacity() {
        let mut db = db();
        let ranked = rank_for(&mut db, &[("SELECT id FROM t WHERE a = 5", 20)]);
        assert!(!ranked.is_empty());
        let size = ranked[0].size_bytes;
        let chosen = knapsack_select(&ranked, size, size / 2);
        assert!(chosen.is_empty());
    }

    #[test]
    fn knapsack_absorbs_prefix_to_fit_wider_candidate() {
        use crate::candidates::CandidateIndex;
        use crate::partial_order::PartialOrder;
        use std::collections::BTreeSet;
        let mk = |cols: Vec<&str>, benefit: f64, size: u64| RankedCandidate {
            candidate: CandidateIndex {
                table: "t".into(),
                columns: cols.iter().map(|s| s.to_string()).collect(),
                po: PartialOrder::chain(cols.iter().map(|s| s.to_string())).expect("valid"),
                sources: BTreeSet::new(),
            },
            size_bytes: size,
            benefit,
            maintenance: 0.0,
            benefiting_queries: Vec::new(),
        };
        // Density order: narrow (dense) first, wide (more total utility,
        // less dense) second; budget fits either alone but not both.
        let ranked = vec![mk(vec!["a"], 100.0, 100), mk(vec!["a", "b"], 150.0, 160)];
        let chosen = knapsack_select(&ranked, 200, 0);
        // The wide candidate must absorb its chosen prefix and fit.
        assert_eq!(chosen.len(), 1);
        assert_eq!(chosen[0].candidate.columns, vec!["a", "b"]);
    }

    #[test]
    fn knapsack_explains_every_candidate_and_its_budget_arithmetic_balances() {
        let mut db = db();
        let ranked = rank_for(
            &mut db,
            &[
                ("SELECT id FROM t WHERE a = 5", 20),
                ("SELECT id FROM t WHERE c = 7", 20),
                ("SELECT id FROM t WHERE b = 2 AND c > 100", 20),
                ("UPDATE t SET a = 3 WHERE id = 17", 40),
            ],
        );
        assert!(!ranked.is_empty());
        let all_sizes: u64 = ranked.iter().map(|r| r.size_bytes).sum();
        for budget in [u64::MAX, all_sizes / 3, 1] {
            let mut decisions = Vec::new();
            let chosen = knapsack(&ranked, budget, 0, Some(&mut decisions));
            // Every ranked candidate gets a verdict, and verdicts agree
            // with the selection.
            assert_eq!(decisions.len(), ranked.len());
            for (d, r) in decisions.iter().zip(&ranked) {
                assert_eq!(d.name, r.candidate.name(), "verdicts come in ranked order");
                let selected = chosen.iter().any(|c| c.candidate.name() == d.name);
                assert!(!d.reason.is_empty());
                if d.accepted {
                    // An accepted candidate is in the final selection
                    // unless a later, wider accept absorbed it.
                    let absorbed = decisions
                        .iter()
                        .any(|o| o.accepted && o.reason.contains(&d.name));
                    assert!(selected || absorbed, "{}: {}", d.name, d.reason);
                    assert_eq!(
                        d.remaining_after,
                        (d.remaining_before + d.reclaimed).saturating_sub(r.size_bytes),
                        "budget math must balance: {}",
                        d.reason
                    );
                } else {
                    assert!(!selected, "{}: {}", d.name, d.reason);
                    assert_eq!(d.remaining_after, d.remaining_before);
                }
            }
        }
    }

    #[test]
    fn knapsack_explained_reports_absorption() {
        use crate::candidates::CandidateIndex;
        use crate::partial_order::PartialOrder;
        use std::collections::BTreeSet;
        let mk = |cols: Vec<&str>, benefit: f64, size: u64| RankedCandidate {
            candidate: CandidateIndex {
                table: "t".into(),
                columns: cols.iter().map(|s| s.to_string()).collect(),
                po: PartialOrder::chain(cols.iter().map(|s| s.to_string())).expect("valid"),
                sources: BTreeSet::new(),
            },
            size_bytes: size,
            benefit,
            maintenance: 0.0,
            benefiting_queries: Vec::new(),
        };
        let ranked = vec![mk(vec!["a"], 100.0, 100), mk(vec!["a", "b"], 150.0, 160)];
        let mut decisions = Vec::new();
        let chosen = knapsack(&ranked, 200, 0, Some(&mut decisions));
        assert_eq!(chosen.len(), 1);
        assert_eq!(decisions.len(), 2);
        assert!(decisions[0].accepted);
        assert!(decisions[1].accepted);
        assert_eq!(decisions[1].reclaimed, 100);
        assert!(decisions[1].reason.contains("absorbing aim_t_a"), "{}", decisions[1].reason);
    }

    fn assert_bit_identical(a: &[RankedCandidate], b: &[RankedCandidate]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.candidate.name(), y.candidate.name());
            assert_eq!(x.size_bytes, y.size_bytes);
            assert_eq!(x.benefit.to_bits(), y.benefit.to_bits(), "{}", x.explanation());
            assert_eq!(x.maintenance.to_bits(), y.maintenance.to_bits());
            assert_eq!(x.benefiting_queries.len(), y.benefiting_queries.len());
            for ((fa, ba), (fb, bb)) in
                x.benefiting_queries.iter().zip(&y.benefiting_queries)
            {
                assert_eq!(fa, fb);
                assert_eq!(ba.to_bits(), bb.to_bits());
            }
        }
    }

    fn mixed_workload(db: &mut Database) -> Vec<WorkloadQuery> {
        workload(
            db,
            &[
                ("SELECT id FROM t WHERE a = 5", 20),
                ("SELECT id FROM t WHERE c = 7", 10),
                ("SELECT id FROM t WHERE b = 2 AND c > 100", 15),
                ("SELECT id FROM t WHERE a = 1 AND b = 3", 5),
                ("UPDATE t SET a = 3 WHERE id = 17", 25),
                ("DELETE FROM t WHERE c = 999", 3),
            ],
        )
    }

    #[test]
    fn parallel_ranking_is_bit_identical_to_sequential() {
        let mut db = db();
        let w = mixed_workload(&mut db);
        let cands = generate_candidates(&db, &w, &CandidateGenConfig::default());
        let cm = CostModel::default();
        let sequential = rank_candidates_with(&db, &w, &cands, &cm, 1);
        let parallel = rank_candidates_with(&db, &w, &cands, &cm, 4);
        assert!(!sequential.is_empty());
        assert_bit_identical(&sequential, &parallel);
    }

    #[test]
    fn batched_ranking_is_bit_identical_to_unbatched() {
        let mut db = db();
        let w = mixed_workload(&mut db);
        let cands = generate_candidates(&db, &w, &CandidateGenConfig::default());
        let cm = CostModel::default();
        let cache = aim_exec::whatif::global();
        // A cold cache each so both paths genuinely plan (no cross-path
        // leakage).
        cache.clear();
        let batched = rank_candidates_with(&db, &w, &cands, &cm, 1);
        cache.clear();
        let sequential = rank_candidates_unbatched(&db, &w, &cands, &cm, 1);
        assert!(!batched.is_empty());
        assert_bit_identical(&sequential, &batched);
    }

    #[test]
    fn cached_ranking_matches_uncached() {
        let mut db = db();
        let w = mixed_workload(&mut db);
        let cands = generate_candidates(&db, &w, &CandidateGenConfig::default());
        let cm = CostModel::default();
        aim_exec::whatif::global().clear();
        let cold = rank_candidates_with(&db, &w, &cands, &cm, 1);
        // Twice more: the last pass runs almost entirely off memoized
        // entries and must still match the cold one.
        let warm = rank_candidates_with(&db, &w, &cands, &cm, 1);
        let hot = rank_candidates_with(&db, &w, &cands, &cm, 1);
        assert_bit_identical(&cold, &warm);
        assert_bit_identical(&cold, &hot);
    }

    #[test]
    fn workers_zero_resolves_to_available_parallelism() {
        assert!(effective_workers(0, 100) >= 1);
        assert_eq!(effective_workers(8, 3), 3);
        assert_eq!(effective_workers(2, 100), 2);
        assert_eq!(effective_workers(0, 0), 1);
    }

    #[test]
    fn explanation_mentions_table_and_columns() {
        let mut db = db();
        let ranked = rank_for(&mut db, &[("SELECT id FROM t WHERE a = 5", 20)]);
        let text = ranked[0].explanation();
        assert!(text.contains("t(") && text.contains('a'), "{text}");
    }
}
